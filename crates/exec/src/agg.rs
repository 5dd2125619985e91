//! Hash-based aggregation: the group count and the state it shares with
//! the batch engine's [`crate::batch::agg::BatchHashCountAggregate`].
//!
//! With the sort-based count ([`crate::batch::sort::BatchSort::counting`]),
//! the scalar count ([`crate::batch::agg::count_rows`]) and `HAVING count
//! = N` ([`crate::batch::agg::BatchHavingCount`]) it expresses division
//! by aggregation, the paper's Section 2.2:
//! "First, the courses offered by the university are counted using a scalar
//! aggregate operator. Second, for each student, the courses taken are
//! counted using an aggregate function operator. Third, only those students
//! whose number of courses taken is equal to the number of courses offered
//! are selected." Both operators count in one `GroupCounts`: a
//! [`KeyTable`] of groups and a count per group.

use reldiv_rel::schema::Field;
use reldiv_rel::{counters, Batch, ColumnType, ColumnVec, Schema, Tuple};
use reldiv_storage::{FileId, MemoryPool, StorageManager, StorageRef};

use crate::batch::scan::read_page;
use crate::batch::DEFAULT_BATCH_SIZE;
use crate::cancel::CancelToken;
use crate::hash_table::{Key, KeyTable, Probe, Tally};
use crate::op::{BoxedOp, OpState, Operator};
use crate::{ExecError, Result};

/// Hash-based `COUNT(*) GROUP BY`.
///
/// "Hash-based aggregate functions keep the tuples of the output relation
/// in a main memory hash-table. ... since the hash table contains only the
/// aggregation output, it is not necessary that the aggregation input fit
/// into main memory." (Section 2.2.2.)
///
/// Note the limitation the paper stresses: hash aggregation counts
/// duplicates; it *cannot* eliminate them on the fly, because only one
/// tuple per group is kept. Callers needing distinct counts must
/// pre-process — exactly the weakness hash-division removes.
pub struct HashCountAggregate {
    input: BoxedOp,
    group_keys: Vec<usize>,
    schema: Schema,
    pool: MemoryPool,
    /// Where partial aggregates spill on exhaustion instead of failing —
    /// the GAMMA-style partitioned ("hybrid") aggregation.
    spill: Option<StorageRef>,
    cancel: CancelToken,
    state: OpState,
    drain: Option<std::vec::IntoIter<Tuple>>,
}

/// The output schema of a group count: the group columns, then `count`.
pub(crate) fn count_schema(input: &Schema, group_keys: &[usize]) -> Result<Schema> {
    let out_of_range = |_| ExecError::Plan("hash aggregate: group key out of range".into());
    let keys = input.project(group_keys).map_err(out_of_range)?;
    let count = Field::new("count", ColumnType::Int);
    Ok(Schema::new(
        keys.fields().iter().cloned().chain([count]).collect(),
    ))
}

impl HashCountAggregate {
    /// Groups `input` on `group_keys`, counting tuples per group. The hash
    /// table draws from `pool`; exhaustion is an error (see
    /// [`HashCountAggregate::with_spill`]).
    pub fn new(input: BoxedOp, group_keys: Vec<usize>, pool: MemoryPool) -> Result<Self> {
        Ok(HashCountAggregate {
            schema: count_schema(input.schema(), &group_keys)?,
            input,
            group_keys,
            pool,
            spill: None,
            cancel: CancelToken::none(),
            state: OpState::Created,
            drain: None,
        })
    }

    /// Polls `cancel` every checkpoint stride of tuples while `open`
    /// aggregates (and re-aggregates spill clusters): all before the first
    /// `next`, which a deadline could not otherwise interrupt.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Spools partial aggregates to group-hash cluster files on `storage`'s
    /// data disk when the table exhausts the pool, each cluster aggregated
    /// in its own phase: hash-division's quotient partitioning, for
    /// aggregation.
    pub fn with_spill(mut self, storage: StorageRef) -> Self {
        self.spill = Some(storage);
        self
    }
}

/// Group-hash clusters for the spill path.
const SPILL_PARTITIONS: usize = 8;

/// A group count's state: a key table of groups (charged its buckets and
/// chain elements) and a count per group until the pool is exhausted; then
/// [`SPILL_PARTITIONS`] cluster files of `(group..., count)` records, each
/// re-aggregated in a phase of its own, all deleted with the state.
pub(crate) struct GroupCounts {
    pool: MemoryPool,
    spill: Option<StorageRef>,
    /// The output rows, and the group columns they start with.
    schema: Schema,
    keys: Schema,
    /// `None` once spilling (its memory released for the phases).
    table: Option<(KeyTable, Vec<i64>)>,
    clusters: Vec<FileId>,
    records: Vec<u8>,
}

impl GroupCounts {
    /// An empty state producing rows of `schema` (a [`count_schema`]).
    pub(crate) fn new(
        pool: &MemoryPool,
        spill: Option<StorageRef>,
        schema: Schema,
    ) -> Result<Self> {
        let keys = schema.project(&(0..schema.arity() - 1).collect::<Vec<_>>())?;
        Ok(GroupCounts {
            table: Some((KeyTable::new(pool, &keys, 0)?, Vec::new())),
            pool: pool.clone(),
            spill,
            schema,
            keys,
            clusters: Vec::new(),
            records: Vec::new(),
        })
    }

    /// Counts the rows of `batch`, grouped on its columns `on`: one hash
    /// pass and one typed probe, each row compared with the groups of
    /// equal hash.
    pub(crate) fn add_batch(&mut self, batch: &Batch, on: &[usize]) -> Result<()> {
        let (probe, mut tally) = (Probe::new(batch, on), Tally::default());
        for (row, h) in batch.hash_rows(on).into_iter().enumerate() {
            self.add(h, (&probe, row), 1, true, &mut tally)?;
        }
        Ok(())
    }

    /// Counts `n` more rows of group `key` under hash `h`, compared with
    /// every chain element or — `hashed` — those of equal hash; once
    /// spilling, routes one. A table that exhausts the pool is drained into
    /// the clusters (without spilling, that is the error).
    pub(crate) fn add(
        &mut self,
        h: u64,
        key: impl Key,
        n: i64,
        hashed: bool,
        tally: &mut Tally,
    ) -> Result<()> {
        let Some((table, counts)) = &mut self.table else {
            return self.route(&[h], |row| key.push(row), vec![1]);
        };
        if let Some(g) = table.find((h, None), key, hashed, tally) {
            counts[g] += n;
            return Ok(());
        }
        match table.insert(h, key) {
            Ok(_) => counts.push(n),
            Err(e) if e.is_memory_exhausted() && self.spill.is_some() => {
                let mut sm = self.spill.as_ref().expect("checked").borrow_mut();
                let files =
                    (0..SPILL_PARTITIONS).map(|_| sm.create_file(StorageManager::DATA_DISK));
                self.clusters = files.collect();
                drop(sm);
                // Each group rehashed to find its cluster, then this row.
                let (table, counts) = self.table.take().expect("table present");
                let groups = table.into_keys();
                let hashes = groups.hash_rows(&(0..groups.schema().arity()).collect::<Vec<_>>());
                self.route(&hashes, |rows| *rows = groups, counts)?;
                self.route(&[h], |row| key.push(row), vec![1])?;
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Spools groups — the key rows `fill` puts in a batch, with `counts` —
    /// to the clusters their `hashes` name, in order.
    fn route(
        &mut self,
        hashes: &[u64],
        fill: impl FnOnce(&mut Batch),
        counts: Vec<i64>,
    ) -> Result<()> {
        let mut rows = Batch::with_capacity(self.keys.clone(), hashes.len());
        fill(&mut rows);
        let rows = rows.widen(self.schema.clone(), [ColumnVec::Int(counts)]);
        self.records.clear();
        rows.encode_records(&mut self.records)?;
        let mut sm = self
            .spill
            .as_ref()
            .expect("clusters imply spill")
            .borrow_mut();
        let records = self.records.chunks(self.schema.record_width());
        for (&h, record) in hashes.iter().zip(records) {
            sm.append(self.clusters[(h as usize) % SPILL_PARTITIONS], record)?;
        }
        Ok(())
    }

    /// The groups as batches, the key columns widened by the count column,
    /// in insertion order (cluster by cluster, if spilled, polling
    /// `cancel` every checkpoint stride).
    pub(crate) fn finish(mut self, cancel: CancelToken) -> Result<Vec<Batch>> {
        if let Some((table, counts)) = self.table.take() {
            let rows = table
                .into_keys()
                .widen(self.schema.clone(), [ColumnVec::Int(counts)]);
            return Ok(rows.into_chunks(DEFAULT_BATCH_SIZE));
        }
        let storage = self.spill.clone().expect("clusters imply spill");
        let on: Vec<usize> = (0..self.keys.arity()).collect();
        let (mut out, mut budget, mut tally) = (Vec::new(), 0u32, Tally::default());
        for &file in &self.clusters {
            // A cluster that still exhausts memory means the group
            // population defeats k-way partitioning; surface that honestly.
            let mut phase = GroupCounts::new(&self.pool, None, self.schema.clone())?;
            for i in 0.. {
                let Some(page) = read_page(&mut storage.borrow_mut(), file, i, &self.schema)?
                else {
                    break;
                };
                let ColumnVec::Int(partial) = page.column(on.len()) else {
                    unreachable!("a count is an Int column");
                };
                // Each record compared with its whole chain.
                let probe = Probe::new(&page, &on);
                for (row, h) in page.hash_rows_uncounted(&on).into_iter().enumerate() {
                    cancel.checkpoint(&mut budget)?;
                    counters::count_hashes(1);
                    phase.add(h, (&probe, row), partial[row], false, &mut tally)?;
                }
            }
            out.extend(phase.finish(cancel)?);
        }
        Ok(out)
    }
}

impl Drop for GroupCounts {
    fn drop(&mut self) {
        if let Some(Ok(mut sm)) = self.spill.as_ref().map(|s| s.try_borrow_mut()) {
            for file in self.clusters.drain(..) {
                let _ = sm.delete_file(file);
            }
        }
    }
}

impl Operator for HashCountAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let mut counts = GroupCounts::new(&self.pool, self.spill.clone(), self.schema.clone())?;
        let (keys, mut budget, mut tally) = (&self.group_keys[..], 0u32, Tally::default());
        while let Some(t) = self.input.next()? {
            self.cancel.checkpoint(&mut budget)?;
            let h = t.hash_on(keys);
            counts.add(h, (&t, keys), 1, false, &mut tally)?;
        }
        self.input.close()?;
        let rows = counts
            .finish(self.cancel)?
            .into_iter()
            .flat_map(Batch::into_tuples);
        self.drain = Some(rows.collect::<Vec<Tuple>>().into_iter());
        self.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.state.require_open()?;
        Ok(self.drain.as_mut().expect("open sets drain").next())
    }

    fn close(&mut self) -> Result<()> {
        self.drain = None;
        self.state = OpState::Closed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::agg::{count_rows, BatchHavingCount};
    use crate::batch::distinct::BatchDistinct;
    use crate::batch::project::BatchProject;
    use crate::batch::scan::BatchMemScan;
    use crate::batch::sort::BatchSort;
    use crate::batch::BatchToTuple;
    use crate::batch::{collect_batches, BatchOperator, BoxedBatchOp};
    use crate::op::collect;
    use crate::sort::{SortConfig, SortMode};
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_storage::manager::{StorageConfig, StorageManager};

    fn transcript() -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(
            schema,
            vec![
                ints(&[1, 10]),
                ints(&[1, 20]),
                ints(&[2, 10]),
                ints(&[3, 10]),
                ints(&[3, 20]),
                ints(&[3, 30]),
            ],
        )
        .unwrap()
    }

    fn counts_of(rel: Relation) -> std::collections::BTreeMap<i64, i64> {
        rel.tuples()
            .iter()
            .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
            .collect()
    }

    /// The sort-based count of a division plan: `(sid, count)` rows, after
    /// a distinct sort on all columns under `distinct`.
    fn sort_counted(rel: Relation, distinct: bool) -> BoxedBatchOp {
        let storage = StorageManager::shared(StorageConfig::paper());
        let config = SortConfig::default();
        let mut input: BoxedBatchOp = Box::new(BatchMemScan::new(rel));
        if distinct {
            let mode = SortMode::Distinct;
            input =
                Box::new(BatchSort::new(storage.clone(), input, vec![0, 1], mode, config).unwrap());
        }
        let counted = BatchSort::counting(storage, input, vec![0], config).unwrap();
        Box::new(BatchProject::new(Box::new(counted), vec![0, 2]).unwrap())
    }

    fn drain(op: BoxedBatchOp) -> Relation {
        collect_batches(op, CancelToken::none()).unwrap()
    }

    #[test]
    fn sort_aggregate_counts_courses_per_student() {
        let out = drain(sort_counted(transcript(), false));
        assert_eq!(counts_of(out), [(1, 2), (2, 1), (3, 3)].into());
    }

    #[test]
    fn sort_aggregate_distinct_collapses_duplicates() {
        let mut rel = transcript();
        rel.push(ints(&[1, 10])).unwrap(); // duplicate transcript row
        rel.push(ints(&[1, 10])).unwrap();
        let out = drain(sort_counted(rel, true));
        assert_eq!(counts_of(out)[&1], 2, "duplicates counted once");
    }

    #[test]
    fn hash_aggregate_counts_courses_per_student() {
        let agg = HashCountAggregate::new(
            Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(transcript())))),
            vec![0],
            MemoryPool::unbounded(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(counts_of(out), [(1, 2), (2, 1), (3, 3)].into());
    }

    #[test]
    fn hash_aggregate_counts_duplicates_twice() {
        // The documented limitation: hash aggregation does NOT eliminate
        // duplicates.
        let mut rel = transcript();
        rel.push(ints(&[2, 10])).unwrap();
        let agg = HashCountAggregate::new(
            Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel)))),
            vec![0],
            MemoryPool::unbounded(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(counts_of(out)[&2], 2);
    }

    #[test]
    fn hash_aggregate_table_holds_groups_not_input() {
        // 10,000 input tuples, 5 groups: the pool must only pay for ~5
        // entries (the paper's 500-students-of-10,000-transcripts point).
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        let rel = Relation::from_tuples(schema, (0..10_000).map(|i| ints(&[i % 5, i])).collect())
            .unwrap();
        let pool = MemoryPool::new(4096);
        let agg = HashCountAggregate::new(
            Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel)))),
            vec![0],
            pool.clone(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.cardinality(), 5);
        assert!(out
            .tuples()
            .iter()
            .all(|t| t.value(1).as_int().unwrap() == 2000));
    }

    #[test]
    fn scalar_count_plain_and_distinct() {
        let schema = Schema::new(vec![Field::int("cno")]);
        let rel =
            Relation::from_tuples(schema, vec![ints(&[10]), ints(&[20]), ints(&[10])]).unwrap();
        for (distinct, want) in [(false, 3), (true, 2)] {
            let scan = Box::new(BatchMemScan::new(rel.clone()));
            assert_eq!(count_rows(scan, distinct, CancelToken::none()), Ok(want));
        }
    }

    #[test]
    fn scalar_count_of_empty_input_is_zero() {
        let rel = Relation::empty(Schema::new(vec![Field::int("x")]));
        let scan = Box::new(BatchMemScan::new(rel));
        assert_eq!(count_rows(scan, false, CancelToken::none()), Ok(0));
    }

    #[test]
    fn having_count_selects_full_groups() {
        // Division's final step over the sort-based count: the students
        // with count == 2, and the count column projected away.
        let having = BatchHavingCount::new(sort_counted(transcript(), false), 2).unwrap();
        let out = drain(Box::new(having));
        assert_eq!(out.tuples(), &[ints(&[1])]);
        assert_eq!(out.schema().arity(), 1, "count column projected away");
    }

    #[test]
    fn hash_distinct_removes_exact_duplicates() {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        let rel = Relation::from_tuples(
            schema,
            vec![ints(&[1, 2]), ints(&[1, 2]), ints(&[1, 3]), ints(&[1, 2])],
        )
        .unwrap();
        let d = BatchDistinct::new(Box::new(BatchMemScan::new(rel)), MemoryPool::unbounded());
        assert_eq!(drain(Box::new(d)).cardinality(), 2);
    }

    #[test]
    fn hash_distinct_holds_whole_input_and_can_exhaust_memory() {
        let schema = Schema::new(vec![Field::int("a")]);
        let rel = Relation::from_tuples(schema, (0..10_000).map(|i| ints(&[i])).collect()).unwrap();
        // Every distinct row is held: at least one record width each.
        let pool = MemoryPool::unbounded();
        let scan = Box::new(BatchMemScan::new(rel.clone()));
        assert_eq!(drain(Box::new(BatchDistinct::new(scan, pool.clone()))), rel);
        assert!(pool.peak() >= 10_000 * 8, "peak {}", pool.peak());
        let scan = Box::new(BatchMemScan::new(rel));
        let mut d = BatchDistinct::new(scan, MemoryPool::new(2048));
        assert!(d.open().unwrap_err().is_memory_exhausted());
    }

    #[test]
    fn having_count_zero_matches_nothing_from_counts() {
        // Aggregation never yields zero-count groups — the subtle semantic
        // difference from true division with an empty divisor.
        let schema = Schema::new(vec![Field::int("sid"), Field::int("count")]);
        let rel = Relation::from_tuples(schema, vec![ints(&[1, 1])]).unwrap();
        let having = BatchHavingCount::new(Box::new(BatchMemScan::new(rel)), 0).unwrap();
        assert!(drain(Box::new(having)).is_empty());
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use crate::batch::scan::BatchMemScan;
    use crate::batch::BatchToTuple;
    use crate::op::collect;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_storage::manager::{StorageConfig, StorageManager};

    fn groups(n: i64, per_group: i64) -> Relation {
        let schema = Schema::new(vec![Field::int("g"), Field::int("x")]);
        Relation::from_tuples(
            schema,
            (0..n * per_group).map(|i| ints(&[i % n, i])).collect(),
        )
        .unwrap()
    }

    #[test]
    fn spill_produces_the_same_counts_as_in_memory() {
        let rel = groups(3000, 4);
        // In-memory reference with an unbounded pool.
        let reference = collect(Box::new(
            HashCountAggregate::new(
                Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel.clone())))),
                vec![0],
                MemoryPool::unbounded(),
            )
            .unwrap(),
        ))
        .unwrap();
        // Spilling run: a pool too small for 3000 groups.
        let storage = StorageManager::shared(StorageConfig {
            buffer_bytes: 1 << 22,
            ..StorageConfig::paper()
        });
        let pool = MemoryPool::new(32 * 1024);
        let spilled = collect(Box::new(
            HashCountAggregate::new(
                Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel)))),
                vec![0],
                pool,
            )
            .unwrap()
            .with_spill(storage.clone()),
        ))
        .unwrap();
        assert_eq!(reference.bag_counts(), spilled.bag_counts());
        assert_eq!(spilled.cardinality(), 3000);
        assert!(
            spilled
                .tuples()
                .iter()
                .all(|t| t.value(1).as_int().unwrap() == 4),
            "every group counts 4"
        );
    }

    #[test]
    fn without_spill_the_same_pressure_is_an_error() {
        let rel = groups(3000, 4);
        let mut agg = HashCountAggregate::new(
            Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel)))),
            vec![0],
            MemoryPool::new(32 * 1024),
        )
        .unwrap();
        assert!(agg.open().unwrap_err().is_memory_exhausted());
    }

    #[test]
    fn spill_is_a_noop_when_the_table_fits() {
        let rel = groups(10, 5);
        let storage = StorageManager::shared(StorageConfig::large());
        let out = collect(Box::new(
            HashCountAggregate::new(
                Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel)))),
                vec![0],
                MemoryPool::new(1 << 20),
            )
            .unwrap()
            .with_spill(storage.clone()),
        ))
        .unwrap();
        assert_eq!(out.cardinality(), 10);
        // No temporary files were written.
        assert_eq!(storage.borrow().io_stats().transfers(), 0);
        assert_eq!(storage.borrow().buffer_stats().peak_bytes, 0);
    }
}
