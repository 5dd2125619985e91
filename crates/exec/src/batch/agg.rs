//! Vectorized aggregation: the spilling hash group count, the scalar
//! count and `HAVING count = N` — division by aggregation on the batch
//! path.

use reldiv_rel::{counters, Batch, ColumnVec, Schema};
use reldiv_storage::{MemoryPool, StorageRef};

use super::{drain_batches, BatchOperator, BoxedBatchOp};
use crate::agg::{count_schema, GroupCounts};
use crate::cancel::CancelToken;
use crate::op::OpState;
use crate::{ExecError, Result};

/// Hash-based `COUNT(*) GROUP BY`, spilling like
/// [`crate::agg::HashCountAggregate`] with `with_spill` (one shared
/// `GroupCounts` state), probed a batch at a time — one hash pass, the key
/// columns typed once, each row compared with the groups of equal hash —
/// so output order, the row at which memory is exhausted and the spilled
/// records are those of the tuple operator.
pub struct BatchHashCountAggregate {
    input: BoxedBatchOp,
    group_keys: Vec<usize>,
    schema: Schema,
    pool: MemoryPool,
    storage: StorageRef,
    cancel: CancelToken,
    state: OpState,
    drain: std::vec::IntoIter<Batch>,
}

impl BatchHashCountAggregate {
    /// Groups `input` on `group_keys`, counting rows per group; the table
    /// draws from `pool` and spills to `storage`'s data disk.
    pub fn new(
        input: BoxedBatchOp,
        group_keys: Vec<usize>,
        pool: MemoryPool,
        storage: StorageRef,
    ) -> Result<Self> {
        Ok(BatchHashCountAggregate {
            schema: count_schema(input.schema(), &group_keys)?,
            input,
            group_keys,
            pool,
            storage,
            cancel: CancelToken::none(),
            state: OpState::Created,
            drain: Vec::new().into_iter(),
        })
    }

    /// Polls `cancel` once per input batch while `open` aggregates, and
    /// every checkpoint stride of spilled records after.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl BatchOperator for BatchHashCountAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let storage = Some(self.storage.clone());
        let mut counts = GroupCounts::new(&self.pool, storage, self.schema.clone())?;
        while let Some(batch) = self.input.next_batch()? {
            self.cancel.check()?;
            counts.add_batch(&batch, &self.group_keys)?;
        }
        self.input.close()?;
        self.drain = counts.finish(self.cancel)?.into_iter();
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

/// Scalar `COUNT(*)`: drains `input` and returns its number of rows (of
/// distinct rows under `distinct`, in an in-memory set of whole rows —
/// the scalar aggregate of a division plan counts the small divisor).
/// `cancel` is polled once per batch.
pub fn count_rows(input: BoxedBatchOp, distinct: bool, cancel: CancelToken) -> Result<i64> {
    let mut seen = std::collections::HashSet::new();
    let mut count = 0;
    drain_batches(input, cancel, |batch| {
        count += match distinct {
            true => (0..batch.len())
                .filter(|&row| seen.insert(batch.tuple(row)))
                .count(),
            false => batch.len(),
        };
        Ok(())
    })?;
    Ok(count as i64)
}

/// Selects groups whose trailing count equals `target` and projects the
/// count away — the final step of division by aggregation.
pub struct BatchHavingCount {
    input: BoxedBatchOp,
    target: i64,
    keep: Vec<usize>,
    schema: Schema,
    selection: Vec<usize>,
}

impl BatchHavingCount {
    /// Filters `(group..., count)` batches to rows with `count == target`.
    pub fn new(input: BoxedBatchOp, target: i64) -> Result<Self> {
        let arity = input.schema().arity();
        if arity < 2 {
            return Err(ExecError::Plan(
                "HavingCount: input needs group + count columns".into(),
            ));
        }
        let keep: Vec<usize> = (0..arity - 1).collect();
        let schema = input.schema().project(&keep).map_err(ExecError::from)?;
        Ok(BatchHavingCount {
            input,
            target,
            keep,
            schema,
            selection: Vec::new(),
        })
    }
}

impl BatchOperator for BatchHavingCount {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        // One comparison per input row.
        counters::count_comparisons(batch.len() as u64);
        self.selection.clear();
        let count_col = batch.schema().arity() - 1;
        if let ColumnVec::Int(counts) = batch.column(count_col) {
            for (row, &c) in counts.iter().enumerate() {
                if c == self.target {
                    self.selection.push(row);
                }
            }
        }
        let out = batch
            .gather(&self.selection)
            .project(&self.keep)
            .map_err(ExecError::from)?;
        Ok(Some(out))
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
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    #[test]
    fn having_count_selects_full_groups() {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("count")]);
        let rel = Relation::from_tuples(schema, vec![ints(&[1, 2]), ints(&[2, 1]), ints(&[3, 2])])
            .unwrap();
        let out = collect_batches(
            Box::new(BatchHavingCount::new(Box::new(BatchMemScan::new(rel)), 2).unwrap()),
            CancelToken::none(),
        )
        .unwrap();
        let sids: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(sids, vec![1, 3]);
        assert_eq!(out.schema().arity(), 1, "count column projected away");
    }

    #[test]
    fn single_column_input_is_a_plan_error() {
        let schema = Schema::new(vec![Field::int("count")]);
        let rel = Relation::from_tuples(schema, vec![ints(&[1])]).unwrap();
        assert!(matches!(
            BatchHavingCount::new(Box::new(BatchMemScan::new(rel)), 1),
            Err(ExecError::Plan(_))
        ));
    }

    /// `groups` groups of `per_group` rows over a string and an int key.
    fn groups(groups: i64, per_group: i64) -> Relation {
        use reldiv_rel::{Tuple, Value};
        let schema = Schema::new(vec![Field::str("g", 8), Field::int("h"), Field::int("x")]);
        let rows = (0..groups * per_group).map(|i| {
            let g = i % groups;
            Tuple::new(vec![
                Value::Str(format!("g{}", g % 97)),
                Value::Int(g),
                Value::Int(i),
            ])
        });
        Relation::from_tuples(schema, rows.collect()).unwrap()
    }

    #[test]
    fn group_count_spills_exactly_like_the_tuple_aggregate() {
        use crate::agg::HashCountAggregate;
        use crate::op::collect;
        use crate::scan::MemScan;
        use reldiv_storage::manager::{StorageConfig, StorageManager};
        // (pool bytes, outcome): fits; spills and recovers; exhausted even
        // per cluster.
        for (pool_bytes, exhausted) in [(1 << 20, false), (48 * 1024, false), (6 * 1024, true)] {
            let rel = groups(3000, 3);
            let storages = [(); 2].map(|()| {
                StorageManager::shared(StorageConfig {
                    buffer_bytes: 16 * 1024,
                    ..StorageConfig::paper()
                })
            });
            let tuple = collect(Box::new(
                HashCountAggregate::new(
                    Box::new(MemScan::new(rel.clone())),
                    vec![1, 0],
                    MemoryPool::new(pool_bytes),
                )
                .unwrap()
                .with_spill(storages[0].clone()),
            ));
            let batch = collect_batches(
                Box::new(
                    BatchHashCountAggregate::new(
                        Box::new(BatchMemScan::new(rel).with_batch_size(500)),
                        vec![1, 0],
                        MemoryPool::new(pool_bytes),
                        storages[1].clone(),
                    )
                    .unwrap(),
                ),
                CancelToken::none(),
            );
            match (tuple, batch) {
                (Ok(tuple), Ok(batch)) => {
                    assert!(!exhausted);
                    assert_eq!(tuple, batch, "same groups, same order");
                    assert_eq!(batch.cardinality(), 3000);
                }
                (Err(tuple), Err(batch)) => {
                    assert!(exhausted && tuple.is_memory_exhausted());
                    assert!(batch.is_memory_exhausted());
                }
                (tuple, batch) => panic!("{tuple:?} vs {batch:?}"),
            }
            // The same records went to the same clusters, page for page,
            // and no cluster file outlives the operator.
            let [t, b] = storages.map(|s| {
                let sm = s.borrow();
                (sm.io_stats(), sm.file_count(), sm.pinned_frames())
            });
            assert_eq!(t, b);
            assert_eq!((b.1, b.2), (0, 0));
            assert_eq!(b.0.transfers() > 0, pool_bytes < (1 << 20));
        }
    }

    #[test]
    fn scalar_count_counts_rows_or_distinct_rows() {
        let schema = Schema::new(vec![Field::int("x")]);
        let rel =
            Relation::from_tuples(schema, (0..3000).map(|i| ints(&[i % 7])).collect()).unwrap();
        for (distinct, want) in [(false, 3000), (true, 7)] {
            let scan = Box::new(BatchMemScan::new(rel.clone()));
            assert_eq!(count_rows(scan, distinct, CancelToken::none()), Ok(want));
        }
    }
}
