//! Selection predicates.
//!
//! A [`BatchPredicate`] is a structured predicate with a per-column
//! evaluation kernel: [`BatchPredicate::select`] scans one column of a
//! batch and appends the matching row indices to a selection vector. The
//! filter operator ([`crate::batch::filter::BatchFilter`]) gathers those
//! rows. Comparisons against a mistyped column select nothing, and
//! substring matching is case-insensitive on both sides.
//!
//! The paper's second example restricts the divisor by "a prior
//! selection" (courses whose title contains `"database"`);
//! [`BatchPredicate::str_contains`] builds that predicate.

use std::cmp::Ordering;

use reldiv_rel::{Batch, ColumnVec};

/// A comparison operator for [`BatchPredicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchCmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl BatchCmp {
    /// Whether an ordering outcome satisfies this comparison.
    pub fn eval(self, ord: Ordering) -> bool {
        matches!(
            (self, ord),
            (BatchCmp::Eq, Ordering::Equal)
                | (BatchCmp::Ne, Ordering::Less | Ordering::Greater)
                | (BatchCmp::Lt, Ordering::Less)
                | (BatchCmp::Le, Ordering::Less | Ordering::Equal)
                | (BatchCmp::Gt, Ordering::Greater)
                | (BatchCmp::Ge, Ordering::Greater | Ordering::Equal)
        )
    }
}

/// A structured selection predicate with a vectorized evaluation kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchPredicate {
    /// Compare an integer column against a literal; rows of a
    /// non-integer column never match.
    IntCompare {
        /// Column index.
        column: usize,
        /// The comparison.
        cmp: BatchCmp,
        /// The literal.
        target: i64,
    },
    /// Compare a string column against a literal; rows of a non-string
    /// column never match.
    StrCompare {
        /// Column index.
        column: usize,
        /// The comparison.
        cmp: BatchCmp,
        /// The literal.
        target: String,
    },
    /// Case-insensitive substring match on a string column; rows of a
    /// non-string column never match. Construct with
    /// [`BatchPredicate::str_contains`] so the needle is pre-lowercased.
    StrContains {
        /// Column index.
        column: usize,
        /// The needle, lowercased.
        needle: String,
    },
}

impl BatchPredicate {
    /// Predicate: string column `column` contains `needle`
    /// (case-insensitive).
    pub fn str_contains(column: usize, needle: &str) -> BatchPredicate {
        BatchPredicate::StrContains {
            column,
            needle: needle.to_ascii_lowercase(),
        }
    }

    /// Predicate: integer column `column` equals `target`.
    pub fn int_equals(column: usize, target: i64) -> BatchPredicate {
        BatchPredicate::IntCompare {
            column,
            cmp: BatchCmp::Eq,
            target,
        }
    }

    /// Appends the indices of matching rows to `rows`.
    pub fn select(&self, batch: &Batch, rows: &mut Vec<usize>) {
        match self {
            BatchPredicate::IntCompare {
                column,
                cmp,
                target,
            } => {
                if let ColumnVec::Int(vs) = batch.column(*column) {
                    for (row, v) in vs.iter().enumerate() {
                        if cmp.eval(v.cmp(target)) {
                            rows.push(row);
                        }
                    }
                }
            }
            BatchPredicate::StrCompare {
                column,
                cmp,
                target,
            } => {
                if let ColumnVec::Str(vs) = batch.column(*column) {
                    for (row, s) in vs.iter().enumerate() {
                        if cmp.eval(s.as_str().cmp(target.as_str())) {
                            rows.push(row);
                        }
                    }
                }
            }
            BatchPredicate::StrContains { column, needle } => {
                if let ColumnVec::Str(vs) = batch.column(*column) {
                    for (row, s) in vs.iter().enumerate() {
                        if s.to_ascii_lowercase().contains(needle.as_str()) {
                            rows.push(row);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::filter::BatchFilter;
    use crate::batch::scan::BatchMemScan;
    use crate::batch::BatchOperator;
    use reldiv_rel::schema::Field;
    use reldiv_rel::{Relation, Schema, Tuple, Value};

    fn courses() -> Relation {
        let schema = Schema::new(vec![Field::int("course-no"), Field::str("title", 32)]);
        let rows = [
            (1, "Intro to Database Systems"),
            (2, "Optics"),
            (3, "database implementation"),
            (4, "Compilers"),
        ];
        Relation::from_tuples(
            schema,
            rows.iter()
                .map(|&(no, title)| Tuple::new(vec![Value::Int(no), Value::from(title)]))
                .collect(),
        )
        .unwrap()
    }

    fn selected(pred: BatchPredicate) -> Vec<usize> {
        let courses = courses();
        let mut batch = Batch::with_capacity(courses.schema().clone(), courses.cardinality());
        courses.tuples().iter().for_each(|t| batch.push_tuple(t));
        let mut rows = Vec::new();
        pred.select(&batch, &mut rows);
        rows
    }

    #[test]
    fn str_contains_selects_database_courses() {
        assert_eq!(
            selected(BatchPredicate::str_contains(1, "database")),
            [0, 2]
        );
    }

    #[test]
    fn int_equals_selects_one_course() {
        assert_eq!(selected(BatchPredicate::int_equals(0, 2)), [1]);
    }

    #[test]
    fn str_contains_on_int_column_matches_nothing() {
        assert!(selected(BatchPredicate::str_contains(0, "1")).is_empty());
    }

    #[test]
    fn filter_preserves_schema() {
        let f = BatchFilter::new(
            Box::new(BatchMemScan::new(courses())),
            BatchPredicate::int_equals(0, 1),
        );
        assert_eq!(f.schema(), courses().schema());
    }
}
