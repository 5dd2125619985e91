//! Fixed-width record encoding of tuples.
//!
//! The paper's storage substrate is record-oriented: relations live in
//! extent-based files of fixed-width binary records (8-byte divisor and
//! quotient records, 16-byte dividend records). [`RecordCodec`] converts
//! between [`Tuple`]s and those byte records according to a [`Schema`].
//!
//! Integers are encoded little-endian in 8 bytes; strings are zero-padded
//! to their declared fixed width (embedded NUL bytes are therefore not
//! representable, which the encoder rejects).

use bytes::{Buf, BufMut};

use crate::error::RelError;
use crate::schema::{ColumnType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// Encoder/decoder for fixed-width records of one schema.
#[derive(Debug, Clone)]
pub struct RecordCodec {
    schema: Schema,
}

impl RecordCodec {
    /// Creates a codec for `schema`.
    pub fn new(schema: Schema) -> Self {
        RecordCodec { schema }
    }

    /// The codec's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Encoded record size in bytes.
    pub fn record_width(&self) -> usize {
        self.schema.record_width()
    }

    /// Encodes `tuple` into a fresh byte vector.
    pub fn encode(&self, tuple: &Tuple) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.record_width());
        self.encode_into(tuple, &mut out)?;
        Ok(out)
    }

    /// Encodes `tuple`, appending to `out`.
    pub fn encode_into(&self, tuple: &Tuple, out: &mut Vec<u8>) -> Result<()> {
        self.schema.validate(tuple.values())?;
        for (i, (field, value)) in self.schema.fields().iter().zip(tuple.values()).enumerate() {
            match (&field.ty, value) {
                (ColumnType::Int, Value::Int(v)) => out.put_i64_le(*v),
                (ColumnType::Str(w), Value::Str(s)) => {
                    if s.as_bytes().contains(&0) {
                        return Err(embedded_nul(i));
                    }
                    out.put_slice(s.as_bytes());
                    out.put_bytes(0, w - s.len());
                }
                // validate() above guarantees type agreement.
                _ => unreachable!("schema validation admitted a mismatched value"),
            }
        }
        Ok(())
    }

    /// Decodes one record from the front of `bytes`.
    pub fn decode(&self, mut bytes: &[u8]) -> Result<Tuple> {
        check_width(&self.schema, bytes)?;
        let mut values = Vec::with_capacity(self.schema.arity());
        for field in self.schema.fields() {
            match field.ty {
                ColumnType::Int => values.push(Value::Int(bytes.get_i64_le())),
                ColumnType::Str(w) => {
                    values.push(Value::Str(str_field(&bytes[..w])?.to_owned()));
                    bytes.advance(w);
                }
            }
        }
        Ok(Tuple::new(values))
    }
}

#[cold]
fn embedded_nul(column: usize) -> RelError {
    RelError::Decode(format!(
        "column {column}: embedded NUL not representable in fixed-width string"
    ))
}

/// Checks that `tuple` has a record of `schema` — what
/// [`RecordCodec::encode_into`] checks (inline, in its one pass over the
/// values), without writing the record.
pub(crate) fn check_tuple(schema: &Schema, tuple: &Tuple) -> Result<()> {
    schema.validate(tuple.values())?;
    for (i, value) in tuple.values().iter().enumerate() {
        if matches!(value, Value::Str(s) if s.as_bytes().contains(&0)) {
            return Err(embedded_nul(i));
        }
    }
    Ok(())
}

/// Rejects a byte string too short to hold one record of `schema`.
pub(crate) fn check_width(schema: &Schema, bytes: &[u8]) -> Result<()> {
    let need = schema.record_width();
    if bytes.len() < need {
        return Err(RelError::Decode(format!(
            "record truncated: need {need} bytes, have {}",
            bytes.len()
        )));
    }
    Ok(())
}

/// The string a zero-padded fixed-width field holds.
pub(crate) fn str_field(raw: &[u8]) -> Result<&str> {
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    std::str::from_utf8(&raw[..end]).map_err(|e| RelError::Decode(format!("invalid UTF-8: {e}")))
}

/// Encodes the columns `cols` of `tuple` as an **order-preserving** byte
/// string: byte-wise comparison of two encodings orders exactly like
/// [`Tuple::cmp_keys`] on the same columns.
///
/// This is the key format for B+-tree indexes: equality search needs only
/// injectivity, range scans need order preservation.
///
/// * `Int(v)`: tag `0x01`, then `v` with the sign bit flipped, big-endian
///   (so negative values order before positive ones byte-wise),
/// * `Str(s)`: tag `0x02`, then the bytes, then a `0x00` terminator
///   (strings containing NUL are not representable, matching the
///   fixed-width codec's restriction).
pub fn index_key(tuple: &Tuple, cols: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(cols.len() * 9);
    for &c in cols {
        match tuple.value(c) {
            Value::Int(v) => {
                out.push(0x01);
                out.extend_from_slice(&((*v as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(0x02);
                out.extend_from_slice(s.as_bytes());
                out.push(0x00);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::tuple::ints;

    #[test]
    fn index_key_preserves_integer_order() {
        let values = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        let keys: Vec<Vec<u8>> = values
            .iter()
            .map(|&v| index_key(&ints(&[v]), &[0]))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "byte order must match numeric order");
        }
    }

    #[test]
    fn index_key_preserves_string_order_and_is_prefix_free() {
        let a = Tuple::new(vec![Value::from("ab"), Value::Int(0)]);
        let b = Tuple::new(vec![Value::from("abc"), Value::Int(0)]);
        let ka = index_key(&a, &[0, 1]);
        let kb = index_key(&b, &[0, 1]);
        assert!(ka < kb);
        // The terminator keeps ("ab", big-int) from colliding with
        // ("abc", ...) prefixes.
        assert!(!kb.starts_with(&ka));
    }

    #[test]
    fn index_key_is_injective_across_types() {
        let i = index_key(&Tuple::new(vec![Value::Int(0x61)]), &[0]);
        let s = index_key(&Tuple::new(vec![Value::from("a")]), &[0]);
        assert_ne!(i, s, "type tags keep Int(0x61) and \"a\" apart");
    }

    #[test]
    fn index_key_respects_column_selection_and_order() {
        let t = ints(&[7, 8]);
        assert_ne!(index_key(&t, &[0, 1]), index_key(&t, &[1, 0]));
        assert_eq!(index_key(&t, &[1]), index_key(&ints(&[99, 8]), &[1]));
    }

    fn codec(fields: Vec<Field>) -> RecordCodec {
        RecordCodec::new(Schema::new(fields))
    }

    #[test]
    fn int_roundtrip_is_exact_and_16_bytes() {
        let c = codec(vec![Field::int("student-id"), Field::int("course-no")]);
        assert_eq!(c.record_width(), 16);
        let t = ints(&[i64::MIN, i64::MAX]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn string_roundtrip_pads_and_trims() {
        let c = codec(vec![Field::str("title", 10)]);
        let t = Tuple::new(vec![Value::from("db")]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(bytes.len(), 10);
        assert_eq!(&bytes[..2], b"db");
        assert!(bytes[2..].iter().all(|&b| b == 0));
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn full_width_string_roundtrips_without_terminator() {
        let c = codec(vec![Field::str("s", 3)]);
        let t = Tuple::new(vec![Value::from("abc")]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn mixed_schema_roundtrip() {
        let c = codec(vec![
            Field::int("id"),
            Field::str("name", 6),
            Field::int("x"),
        ]);
        let t = Tuple::new(vec![Value::Int(7), Value::from("ann"), Value::Int(-1)]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(bytes.len(), 22);
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn decode_rejects_truncated_records() {
        let c = codec(vec![Field::int("id")]);
        assert!(matches!(c.decode(&[0u8; 4]), Err(RelError::Decode(_))));
    }

    #[test]
    fn encode_rejects_oversized_strings_and_type_mismatch() {
        let c = codec(vec![Field::str("s", 2)]);
        assert!(matches!(
            c.encode(&Tuple::new(vec![Value::from("abc")])),
            Err(RelError::StringTooLong { .. })
        ));
        assert!(matches!(
            c.encode(&ints(&[1])),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn encode_rejects_embedded_nul() {
        let c = codec(vec![Field::str("s", 4)]);
        let t = Tuple::new(vec![Value::from("a\0b")]);
        assert!(matches!(c.encode(&t), Err(RelError::Decode(_))));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let c = codec(vec![Field::str("s", 2)]);
        assert!(matches!(c.decode(&[0xff, 0xfe]), Err(RelError::Decode(_))));
    }
}
