//! Vectorized aggregation: the hash grouping — the spilling group count
//! and the spilling distinct, one operator — the scalar count and
//! `HAVING count = N`, division by aggregation on the batch path.

use reldiv_rel::{counters, Batch, ColumnVec, Schema};
use reldiv_storage::{MemoryPool, StorageRef};

use super::{drain_batches, BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use crate::agg::count_schema;
use crate::cancel::CancelToken;
use crate::groups::{Aggregate, GroupTable};
use crate::hash_table::{Probe, Tally};
use crate::hybrid::{Hybrid, DEFAULT_FANOUT};
use crate::op::OpState;
use crate::report::DegradationReport;
use crate::{ExecError, Result};

/// Hash grouping, a batch at a time, on one [`GroupTable`]: the group
/// count (`COUNT(*) GROUP BY`, [`BatchHashCountAggregate::new`]) or the
/// distinct over all columns ([`BatchDistinct::distinct`]).
///
/// "Hash-based aggregate functions keep the tuples of the output relation
/// in a main memory hash-table. ... since the hash table contains only the
/// aggregation output, it is not necessary that the aggregation input fit
/// into main memory." (Section 2.2.2.) Hash-based duplicate elimination,
/// though, must keep "the entire input ... in main memory hash tables or
/// in overflow files": a distinct group is charged its row's record width.
///
/// The groups start in one resident table, probed a batch at a time — one
/// hash pass, the key columns typed once, each row compared with the
/// groups of equal hash. A table that exhausts the pool is handed whole to
/// the partition engine every grouping spills through ([`Hybrid`]), and the
/// rest of the input goes there. Without spill storage the exhaustion is
/// the error. Resident groups come out in the order of their first row.
pub struct BatchHashGroup {
    input: BoxedBatchOp,
    keys: Vec<usize>,
    agg: Aggregate,
    schema: Schema,
    pool: MemoryPool,
    storage: Option<StorageRef>,
    /// Whether the resident table counts its `Hash`es and `Comp`s.
    priced: bool,
    cancel: CancelToken,
    state: OpState,
    drain: std::vec::IntoIter<Batch>,
}

/// The group count: a [`BatchHashGroup`] that counts.
pub type BatchHashCountAggregate = BatchHashGroup;

/// The hash-based distinct: a [`BatchHashGroup`] with no aggregate.
pub type BatchDistinct = BatchHashGroup;

impl BatchHashGroup {
    /// Groups `input` on `group_keys`, counting rows per group; the table
    /// draws from `pool` and spills to `storage`'s data disk.
    pub fn new(
        input: BoxedBatchOp,
        group_keys: Vec<usize>,
        pool: MemoryPool,
        storage: StorageRef,
    ) -> Result<Self> {
        let schema = count_schema(input.schema(), &group_keys)?;
        Ok(Self::grouping(input, group_keys, Aggregate::Count, schema, pool).spilling_to(storage))
    }

    /// Eliminates duplicate rows of `input`, a row kept at its first
    /// occurrence; the table draws from `pool` and spills to `storage`'s
    /// data disk.
    pub fn distinct(input: BoxedBatchOp, pool: MemoryPool, storage: StorageRef) -> Self {
        let (schema, all) = (
            input.schema().clone(),
            (0..input.schema().arity()).collect(),
        );
        Self::grouping(input, all, Aggregate::Distinct, schema, pool).spilling_to(storage)
    }

    /// A grouping of `input` on `keys` into rows of `schema`, no spill.
    pub(crate) fn grouping(
        input: BoxedBatchOp,
        keys: Vec<usize>,
        agg: Aggregate,
        schema: Schema,
        pool: MemoryPool,
    ) -> Self {
        BatchHashGroup {
            input,
            keys,
            agg,
            schema,
            pool,
            storage: None,
            priced: true,
            cancel: CancelToken::none(),
            state: OpState::Created,
            drain: Vec::new().into_iter(),
        }
    }

    /// Spills to `storage`'s data disk when the pool runs out.
    pub(crate) fn spilling_to(mut self, storage: StorageRef) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Polls `cancel` once per input batch while `open` groups, and every
    /// checkpoint stride of rows or spilled records once spilling.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Groups the whole input: in the resident table until it runs out,
    /// then in the partition engine. Returns the output batches.
    fn group(&mut self) -> Result<Vec<Batch>> {
        let keys = self.input.schema().project(&self.keys)?;
        let mut resident = Some(GroupTable::new(&self.pool, &keys, self.agg)?);
        let (storage, mut report) = (self.storage.clone(), DegradationReport::new());
        let mut spill: Option<Hybrid> = None;
        while let Some(batch) = self.input.next_batch()? {
            self.cancel.check()?;
            let hashes = match self.priced {
                true => batch.hash_rows(&self.keys),
                false => batch.hash_rows_uncounted(&self.keys),
            };
            let mut from = 0;
            if let Some(table) = &mut resident {
                let (spills, mut tally) = (storage.is_some(), Tally::default());
                let stopped =
                    absorb_resident(table, (&batch, &self.keys), &hashes, spills, &mut tally);
                tally.comps *= u64::from(self.priced);
                let Some(row) = stopped? else {
                    continue;
                };
                let storage = storage.as_ref().expect("only a spilling grouping stops");
                let (pool, agg, cancel) = (&self.pool, self.agg, self.cancel);
                let engine = Hybrid::new(
                    storage,
                    pool,
                    keys.clone(),
                    agg,
                    DEFAULT_FANOUT,
                    cancel,
                    None,
                );
                let engine = spill.insert(engine);
                engine.adopt(resident.take().expect("resident"), &mut report)?;
                from = row;
            }
            let rows: Vec<usize> = (from..batch.len()).collect();
            let matched = (&rows[..], &hashes[from..], &vec![Some(0); rows.len()][..]);
            let engine = spill.as_mut().expect("spilling");
            engine.absorb_rows((&batch, &self.keys), matched, &mut report)?;
        }
        let Some(engine) = spill else {
            let table = resident.expect("resident unless spilling");
            return Ok(table
                .into_rows(self.schema.clone())
                .into_chunks(DEFAULT_BATCH_SIZE));
        };
        let mut out = Vec::new();
        engine.finish(true, &mut report, |groups| {
            let all: Vec<usize> = (0..groups.len()).collect();
            let rows = groups.rows(&all, self.schema.clone());
            out.extend(rows.into_chunks(DEFAULT_BATCH_SIZE));
            Ok(())
        })?;
        Ok(out)
    }
}

/// Absorbs every row of `batch`, hashed `hashes` on its columns `keys`,
/// into `table`, counting in `tally`: a group found counts the row, a
/// group not found is added with it. Returns the row that found the pool
/// exhausted when the grouping `spills`; without, the exhaustion is the
/// error.
fn absorb_resident(
    table: &mut GroupTable,
    (batch, keys): (&Batch, &[usize]),
    hashes: &[u64],
    spills: bool,
    tally: &mut Tally,
) -> Result<Option<usize>> {
    let probe = Probe::new(batch, keys);
    for (row, &h) in hashes.iter().enumerate() {
        let key = (&probe, row);
        match table.find((h, None), key, true, tally) {
            Some(g) => _ = table.absorb(g, 0, tally),
            None => match table.insert(h, key, Some(0)) {
                Ok(_) => {}
                Err(e) if e.is_memory_exhausted() && spills => return Ok(Some(row)),
                Err(e) => return Err(e),
            },
        }
    }
    Ok(None)
}

impl BatchOperator for BatchHashGroup {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        self.drain = self.group()?.into_iter();
        self.input.close()?;
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

/// Scalar `COUNT(*)`: drains `input` and returns its number of rows, or,
/// given `distinct`'s pool and spill storage, of distinct rows — a
/// [`BatchDistinct`] that counts no operation while its rows fit (the
/// scalar aggregate of a division plan counts the small divisor, which
/// the paper does not price). `cancel` is polled once per batch.
pub fn count_rows(
    input: BoxedBatchOp,
    distinct: Option<(MemoryPool, StorageRef)>,
    cancel: CancelToken,
) -> Result<i64> {
    let input: BoxedBatchOp = match distinct {
        Some((pool, storage)) => {
            let mut seen = BatchDistinct::distinct(input, pool, storage).with_cancel(cancel);
            seen.priced = false;
            Box::new(seen)
        }
        None => input,
    };
    let mut count = 0;
    drain_batches(input, cancel, |batch| {
        count += batch.len();
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
        use crate::batch::BatchToTuple;
        use crate::op::collect;
        use reldiv_rel::Value;
        use reldiv_storage::manager::{StorageConfig, StorageManager};
        // Fits; spills and merges back; spills and re-partitions.
        for pool_bytes in [1 << 20, 48 * 1024, 6 * 1024] {
            let rel = groups(3000, 3);
            let storages = [(); 2].map(|()| {
                StorageManager::shared(StorageConfig {
                    buffer_bytes: 16 * 1024,
                    ..StorageConfig::paper()
                })
            });
            let tuple = collect(Box::new(
                HashCountAggregate::new(
                    Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel.clone())))),
                    vec![1, 0],
                    MemoryPool::new(pool_bytes),
                )
                .unwrap()
                .with_spill(storages[0].clone()),
            ))
            .unwrap();
            let batch = collect_batches(
                Box::new(
                    BatchHashCountAggregate::new(
                        Box::new(BatchMemScan::new(rel)),
                        vec![1, 0],
                        MemoryPool::new(pool_bytes),
                        storages[1].clone(),
                    )
                    .unwrap(),
                ),
                CancelToken::none(),
            )
            .unwrap();
            assert_eq!(tuple, batch, "same groups, same order");
            assert_eq!(batch.cardinality(), 3000);
            assert!(batch.tuples().iter().all(|t| t.value(2) == &Value::Int(3)));
            // Fed batches of the same rows, the same records went to the
            // same partitions, page for page (a batch's delta records are
            // written when it is done), and no spill file outlives the
            // operator.
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
        let storage = || {
            use reldiv_storage::manager::{StorageConfig, StorageManager};
            StorageManager::shared(StorageConfig::large())
        };
        for (distinct, want) in [(false, 3000), (true, 7)] {
            let scan = Box::new(BatchMemScan::new(rel.clone()));
            let distinct = distinct.then(|| (MemoryPool::unbounded(), storage()));
            assert_eq!(count_rows(scan, distinct, CancelToken::none()), Ok(want));
        }
        // 3000 distinct rows past a 2 KB pool: counted from overflow files.
        let rel = Relation::from_tuples(
            rel.schema().clone(),
            (0..3000).map(|i| ints(&[i])).collect(),
        )
        .unwrap();
        let (pool, storage) = (MemoryPool::new(2048), storage());
        let scan = Box::new(BatchMemScan::new(rel));
        let distinct = Some((pool.clone(), storage.clone()));
        assert_eq!(count_rows(scan, distinct, CancelToken::none()), Ok(3000));
        assert!(pool.peak() <= 2048 && storage.borrow().buffer_stats().peak_bytes > 0);
        assert_eq!(storage.borrow().file_count(), 0);
    }
}
