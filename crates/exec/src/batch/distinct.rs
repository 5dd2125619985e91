//! Vectorized hash-based duplicate elimination.
//!
//! The batch counterpart of [`crate::agg::HashDistinct`]: same
//! bucket-chained table, same memory accounting (one record width per
//! kept row on top of the chain elements), same exhaustion signal, and —
//! because the hash kernel is bit-identical to `Tuple::hash_on` — the
//! same insertion order, so the output order matches the tuple path
//! exactly. The kept rows live in the output batches themselves: a table
//! entry is a row number, compared row against row ([`Batch::cmp_rows`]),
//! and no tuple is ever built.

use std::cmp::Ordering;

use reldiv_rel::{Batch, Schema};
use reldiv_storage::MemoryPool;

use super::{BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use crate::cancel::CancelToken;
use crate::hash_table::ChainedTable;
use crate::op::OpState;
use crate::Result;

/// Hash-based duplicate elimination over all columns, batch-at-a-time.
pub struct BatchDistinct {
    input: BoxedBatchOp,
    pool: MemoryPool,
    cancel: CancelToken,
    state: OpState,
    drain: std::vec::IntoIter<Batch>,
}

impl BatchDistinct {
    /// Creates a distinct over all columns of `input`.
    pub fn new(input: BoxedBatchOp, pool: MemoryPool) -> BatchDistinct {
        BatchDistinct {
            input,
            pool,
            cancel: CancelToken::none(),
            state: OpState::Created,
            drain: Vec::new().into_iter(),
        }
    }

    /// Polls `cancel` once per input batch while `open` builds the
    /// distinct table.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl BatchOperator for BatchDistinct {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        const ROWS: usize = DEFAULT_BATCH_SIZE;
        self.input.open()?;
        let schema = self.input.schema().clone();
        let all: Vec<usize> = (0..schema.arity()).collect();
        let width = schema.record_width();
        // Entry `n` is row `n % ROWS` of kept batch `n / ROWS`.
        let mut table: ChainedTable<u32> = ChainedTable::new(&self.pool, 16)?;
        let mut payload = self.pool.reserve(0)?;
        let mut kept: Vec<Batch> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            self.cancel.check()?;
            for (row, &h) in batch.hash_rows(&all).iter().enumerate() {
                let same = |&n: &u32| {
                    let (of, at) = (&kept[n as usize / ROWS], n as usize % ROWS);
                    batch.cmp_rows(&all, row, of, &all, at) == Ordering::Equal
                };
                if table.find_hashed(h, same).is_none() {
                    payload.grow(width)?;
                    if table.insert(h, table.len() as u32)? as usize % ROWS == 0 {
                        kept.push(Batch::with_capacity(schema.clone(), ROWS));
                    }
                    kept.last_mut().expect("pushed").push_row_from(&batch, row);
                }
            }
        }
        self.input.close()?;
        self.drain = kept.into_iter();
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        Ok(self.drain.next())
    }

    fn close(&mut self) -> Result<()> {
        self.drain = Vec::new().into_iter();
        self.state = OpState::Closed;
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::HashDistinct;
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::op::collect;
    use crate::scan::MemScan;
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn dup_rel() -> Relation {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        Relation::from_tuples(
            schema,
            (0..5000).map(|i| ints(&[i % 40, (i % 40) * 2])).collect(),
        )
        .unwrap()
    }

    #[test]
    fn distinct_matches_tuple_path_byte_for_byte() {
        let tuple_out = collect(Box::new(HashDistinct::new(
            Box::new(MemScan::new(dup_rel())),
            MemoryPool::unbounded(),
        )))
        .unwrap();
        let batch_out = collect_batches(
            Box::new(BatchDistinct::new(
                Box::new(BatchMemScan::new(dup_rel()).with_batch_size(64)),
                MemoryPool::unbounded(),
            )),
            CancelToken::none(),
        )
        .unwrap();
        // Identical hash kernel + identical table => identical row order.
        assert_eq!(tuple_out.tuples(), batch_out.tuples());
        assert_eq!(batch_out.cardinality(), 40);
    }

    #[test]
    fn memory_exhaustion_surfaces_like_the_tuple_path() {
        let schema = Schema::new(vec![Field::int("a")]);
        let rel = Relation::from_tuples(schema, (0..10_000).map(|i| ints(&[i])).collect()).unwrap();
        let mut d = BatchDistinct::new(Box::new(BatchMemScan::new(rel)), MemoryPool::new(2048));
        assert!(d.open().unwrap_err().is_memory_exhausted());
    }
}
