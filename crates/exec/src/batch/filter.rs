//! Vectorized selection.
//!
//! A filter evaluates a [`BatchPredicate`] with a per-column kernel over
//! the whole batch, producing a selection vector that one
//! [`Batch::gather`] turns into the output batch.

use reldiv_rel::{Batch, Schema};

use super::{select, BatchOperator, BoxedBatchOp};
use crate::filter::BatchPredicate;
use crate::Result;

/// Filters batches by a [`BatchPredicate`].
///
/// A batch in which no row matches yields an **empty** output batch
/// rather than silently draining the input — that keeps the caller's
/// per-batch cancellation poll firing even across long all-rejected
/// stretches.
pub struct BatchFilter {
    input: BoxedBatchOp,
    predicate: BatchPredicate,
    selection: Vec<usize>,
}

impl BatchFilter {
    /// Creates a filter over `input`.
    pub fn new(input: BoxedBatchOp, predicate: BatchPredicate) -> BatchFilter {
        BatchFilter {
            input,
            predicate,
            selection: Vec::new(),
        }
    }
}

impl BatchOperator for BatchFilter {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        self.selection.clear();
        self.predicate.select(&batch, &mut self.selection);
        Ok(Some(select(batch, &self.selection)))
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::filter::BatchCmp;
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::{Relation, Tuple, Value};

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

    fn filtered(pred: BatchPredicate) -> Relation {
        collect_batches(
            Box::new(BatchFilter::new(
                Box::new(BatchMemScan::new(courses())),
                pred,
            )),
            CancelToken::none(),
        )
        .unwrap()
    }

    #[test]
    fn str_contains_selects_database_courses() {
        let out = filtered(BatchPredicate::str_contains(1, "Database"));
        assert_eq!(out.schema().arity(), 2, "a filter keeps its input's schema");
        let nos: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(nos, vec![1, 3]);
    }

    #[test]
    fn int_compare_selects_matching_rows() {
        assert_eq!(filtered(BatchPredicate::int_equals(0, 2)).cardinality(), 1);
        let ge = filtered(BatchPredicate::IntCompare {
            column: 0,
            cmp: BatchCmp::Ge,
            target: 3,
        });
        assert_eq!(ge.cardinality(), 2);
    }

    #[test]
    fn mistyped_column_matches_nothing() {
        assert!(filtered(BatchPredicate::str_contains(0, "1")).is_empty());
        assert!(filtered(BatchPredicate::int_equals(1, 1)).is_empty());
    }

    #[test]
    fn str_compare_orders_lexicographically() {
        let out = filtered(BatchPredicate::StrCompare {
            column: 1,
            cmp: BatchCmp::Lt,
            target: "D".into(),
        });
        assert_eq!(out.cardinality(), 1, "only \"Compilers\" sorts before D");
    }

    #[test]
    fn all_rejected_batches_still_flow_as_empties() {
        let mut f = BatchFilter::new(
            Box::new(BatchMemScan::new(courses()).with_batch_size(2)),
            BatchPredicate::int_equals(0, 999),
        );
        f.open().unwrap();
        // Two input batches, both fully rejected: two empty output
        // batches before exhaustion — each an upstream cancel poll.
        assert_eq!(f.next_batch().unwrap().unwrap().len(), 0);
        assert_eq!(f.next_batch().unwrap().unwrap().len(), 0);
        assert!(f.next_batch().unwrap().is_none());
        f.close().unwrap();
    }
}
