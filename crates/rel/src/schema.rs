//! Relation schemas.

use std::sync::Arc;

use crate::error::RelError;
use crate::value::Value;
use crate::Result;

/// Type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer; 8 bytes in the fixed-width record encoding.
    Int,
    /// String stored in a fixed number of bytes (zero-padded). The paper's
    /// record-oriented file system used fixed-width records; the width bound
    /// is enforced at encode time.
    Str(usize),
}

impl ColumnType {
    /// Encoded width of this column in bytes.
    pub fn width(&self) -> usize {
        match self {
            ColumnType::Int => 8,
            ColumnType::Str(n) => *n,
        }
    }

    /// Whether `value` inhabits this column type (ignoring width).
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (ColumnType::Int, Value::Int(_)) | (ColumnType::Str(_), Value::Str(_))
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, e.g. `student-id`.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }

    /// Shorthand for an integer field.
    pub fn int(name: impl Into<String>) -> Self {
        Field::new(name, ColumnType::Int)
    }

    /// Shorthand for a fixed-width string field.
    pub fn str(name: impl Into<String>, width: usize) -> Self {
        Field::new(name, ColumnType::Str(width))
    }
}

/// An ordered list of fields describing a relation; the fields are
/// shared, so a clone (one per batch, scan and reply) allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    /// Creates a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: fields.into(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at `index`.
    pub fn field(&self, index: usize) -> Result<&Field> {
        self.fields.get(index).ok_or(RelError::ColumnOutOfRange {
            index,
            arity: self.fields.len(),
        })
    }

    /// Resolves a column name to its index.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Total fixed-width record size in bytes.
    ///
    /// The paper's experiments used 8-byte divisor/quotient records and
    /// 16-byte dividend records; record size drives page cardinalities and
    /// hence I/O costs.
    pub fn record_width(&self) -> usize {
        self.fields.iter().map(|f| f.ty.width()).sum()
    }

    /// Byte offset of column `index` within the fixed-width encoding.
    pub fn column_offset(&self, index: usize) -> usize {
        self.fields[..index].iter().map(|f| f.ty.width()).sum()
    }

    /// A schema consisting of the columns at `indices`, in that order.
    ///
    /// Used to derive the quotient schema from dividend and divisor schemas:
    /// the quotient attributes are the dividend attributes not in the
    /// divisor.
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(indices.len());
        for &i in indices {
            fields.push(self.field(i)?.clone());
        }
        Ok(Schema::new(fields))
    }

    /// Checks that a slice of values conforms to this schema.
    pub fn validate(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.fields.len() {
            return Err(RelError::ArityMismatch {
                expected: self.fields.len(),
                actual: values.len(),
            });
        }
        for (i, (f, v)) in self.fields.iter().zip(values).enumerate() {
            if !f.ty.admits(v) {
                return Err(RelError::TypeMismatch {
                    column: i,
                    expected: format!("{:?}", f.ty),
                    actual: v.type_name().to_owned(),
                });
            }
            if let (ColumnType::Str(w), Value::Str(s)) = (f.ty, v) {
                if s.len() > w {
                    return Err(RelError::StringTooLong {
                        column: i,
                        width: w,
                        len: s.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transcript() -> Schema {
        // The paper's running example: Transcript(student-id, course-no),
        // already projected onto its key attributes.
        Schema::new(vec![Field::int("student-id"), Field::int("course-no")])
    }

    #[test]
    fn record_width_matches_paper_sizes() {
        // Dividend records were 16 bytes, divisor/quotient records 8 bytes.
        assert_eq!(transcript().record_width(), 16);
        let divisor = Schema::new(vec![Field::int("course-no")]);
        assert_eq!(divisor.record_width(), 8);
    }

    #[test]
    fn column_offsets_accumulate_widths() {
        let s = Schema::new(vec![Field::int("a"), Field::str("b", 4), Field::int("c")]);
        assert_eq!(s.column_offset(0), 0);
        assert_eq!(s.column_offset(1), 8);
        assert_eq!(s.column_offset(2), 12);
        assert_eq!(s.record_width(), 20);
    }

    #[test]
    fn column_index_by_name() {
        let s = transcript();
        assert_eq!(s.column_index("course-no"), Some(1));
        assert_eq!(s.column_index("grade"), None);
    }

    #[test]
    fn project_reorders_and_checks_bounds() {
        let s = transcript();
        let p = s.project(&[1]).unwrap();
        assert_eq!(p.arity(), 1);
        assert_eq!(p.fields()[0].name, "course-no");
        assert!(matches!(
            s.project(&[2]),
            Err(RelError::ColumnOutOfRange { index: 2, arity: 2 })
        ));
    }

    #[test]
    fn validate_checks_arity_type_and_width() {
        let s = Schema::new(vec![Field::int("id"), Field::str("title", 4)]);
        assert!(s.validate(&[Value::Int(1), Value::from("db")]).is_ok());
        assert!(matches!(
            s.validate(&[Value::Int(1)]),
            Err(RelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.validate(&[Value::from("x"), Value::from("db")]),
            Err(RelError::TypeMismatch { column: 0, .. })
        ));
        assert!(matches!(
            s.validate(&[Value::Int(1), Value::from("toolong")]),
            Err(RelError::StringTooLong {
                column: 1,
                width: 4,
                len: 7
            })
        ));
    }

    #[test]
    fn admits_is_type_based() {
        assert!(ColumnType::Int.admits(&Value::Int(0)));
        assert!(!ColumnType::Int.admits(&Value::from("x")));
        assert!(ColumnType::Str(3).admits(&Value::from("abcdef"))); // width checked separately
    }
}
