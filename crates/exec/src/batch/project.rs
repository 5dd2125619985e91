//! Vectorized projection (bag semantics — no duplicate elimination).
//!
//! Duplicate elimination is deliberately a separate concern: the paper
//! stresses that it "can be quite expensive, making an algorithm very
//! desirable that is insensitive to duplicates in its inputs". When a
//! duplicate-free projection is required, compose [`BatchProject`] with a
//! distinct sort or rely on hash-division's built-in insensitivity.
//!
//! Projecting a batch clones whole column vectors instead of building a
//! fresh `Vec<Value>` per row — the column-major payoff for the most
//! common plan shape, `project` over `filter` over `scan`.

use reldiv_rel::{Batch, Schema};

use super::{BatchOperator, BoxedBatchOp};
use crate::{ExecError, Result};

/// Projects batches onto a list of column indices (with reordering).
pub struct BatchProject {
    input: BoxedBatchOp,
    columns: Vec<usize>,
    schema: Schema,
}

impl BatchProject {
    /// Creates a projection of `input` onto `columns`.
    pub fn new(input: BoxedBatchOp, columns: Vec<usize>) -> Result<Self> {
        let schema = input
            .schema()
            .project(&columns)
            .map_err(|e| ExecError::Plan(format!("projection: {e}")))?;
        Ok(BatchProject {
            input,
            columns,
            schema,
        })
    }
}

impl BatchOperator for BatchProject {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        match self.input.next_batch()? {
            Some(batch) => Ok(Some(batch.project(&self.columns).map_err(ExecError::from)?)),
            None => Ok(None),
        }
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
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Field::int("sid"),
            Field::int("cno"),
            Field::int("grade"),
        ]);
        Relation::from_tuples(
            schema,
            vec![ints(&[1, 10, 4]), ints(&[2, 10, 3]), ints(&[1, 20, 4])],
        )
        .unwrap()
    }

    #[test]
    fn project_selects_and_reorders_columns() {
        let p = BatchProject::new(Box::new(BatchMemScan::new(rel())), vec![1, 0]).unwrap();
        let out = collect_batches(Box::new(p), CancelToken::none()).unwrap();
        assert_eq!(out.schema().fields()[0].name, "cno");
        assert_eq!(out.tuples()[0], ints(&[10, 1]));
        assert_eq!(out.cardinality(), 3, "bag semantics: duplicates kept");
    }

    #[test]
    fn invalid_column_is_a_plan_error() {
        assert!(matches!(
            BatchProject::new(Box::new(BatchMemScan::new(rel())), vec![7]),
            Err(ExecError::Plan(_))
        ));
    }
}
