//! Hash-based aggregation's tuple face, and the output schema of every
//! group count.
//!
//! With the sort-based count ([`crate::batch::sort::BatchSort::counting`]),
//! the scalar count ([`crate::batch::agg::count_rows`]) and `HAVING count
//! = N` ([`crate::batch::agg::BatchHavingCount`]) the group count
//! expresses division by aggregation, the paper's Section 2.2:
//! "First, the courses offered by the university are counted using a scalar
//! aggregate operator. Second, for each student, the courses taken are
//! counted using an aggregate function operator. Third, only those students
//! whose number of courses taken is equal to the number of courses offered
//! are selected." The group count is one hash grouping,
//! [`crate::batch::agg::BatchHashCountAggregate`], spilling through the
//! partition engine every grouping shares ([`crate::hybrid`]).

use reldiv_rel::schema::Field;
use reldiv_rel::{ColumnType, Schema, Tuple};
use reldiv_storage::{MemoryPool, StorageRef};

use crate::batch::agg::{BatchHashCountAggregate, BatchHashGroup};
use crate::batch::BatchToTuple;
use crate::cancel::CancelToken;
use crate::groups::Aggregate;
use crate::op::{BoxedOp, Operator};
use crate::sort::TupleBatches;
use crate::{ExecError, Result};

/// Hash-based `COUNT(*) GROUP BY` over a tuple input: a
/// [`BatchHashCountAggregate`] fed the input a batch at a time, its groups
/// bridged back into tuples. Rows, counts, pages and spill files are the
/// batch operator's.
///
/// Note the limitation the paper stresses: hash aggregation counts
/// duplicates; it *cannot* eliminate them on the fly, because only one
/// tuple per group is kept. Callers needing distinct counts must
/// pre-process — exactly the weakness hash-division removes.
pub struct HashCountAggregate(BatchToTuple<BatchHashCountAggregate>);

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
        let schema = count_schema(input.schema(), &group_keys)?;
        let input = Box::new(TupleBatches::new(input, usize::MAX));
        let agg = BatchHashGroup::grouping(input, group_keys, Aggregate::Count, schema, pool);
        Ok(HashCountAggregate(BatchToTuple::new(Box::new(agg))))
    }

    /// Polls `cancel` once per input batch while `open` groups, and every
    /// checkpoint stride of rows or spilled records once spilling: all
    /// before the first `next`, which a deadline could not otherwise
    /// interrupt.
    pub fn with_cancel(self, cancel: CancelToken) -> Self {
        HashCountAggregate(BatchToTuple::new(Box::new(
            self.0.input.with_cancel(cancel),
        )))
    }

    /// Spills to `storage`'s data disk when the table exhausts the pool,
    /// as every hash grouping does.
    pub fn with_spill(self, storage: StorageRef) -> Self {
        HashCountAggregate(BatchToTuple::new(Box::new(
            self.0.input.spilling_to(storage),
        )))
    }
}

impl Operator for HashCountAggregate {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.0.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.0.next()
    }

    fn close(&mut self) -> Result<()> {
        self.0.close()
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
    use crate::batch::{collect_batches, BoxedBatchOp};
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
            let storage = StorageManager::shared(StorageConfig::large());
            let distinct = distinct.then(|| (MemoryPool::unbounded(), storage));
            assert_eq!(count_rows(scan, distinct, CancelToken::none()), Ok(want));
        }
    }

    #[test]
    fn scalar_count_of_empty_input_is_zero() {
        let rel = Relation::empty(Schema::new(vec![Field::int("x")]));
        let scan = Box::new(BatchMemScan::new(rel));
        assert_eq!(count_rows(scan, None, CancelToken::none()), Ok(0));
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
        let storage = StorageManager::shared(StorageConfig::large());
        let scan = Box::new(BatchMemScan::new(rel));
        let d = BatchDistinct::distinct(scan, MemoryPool::unbounded(), storage);
        assert_eq!(drain(Box::new(d)).cardinality(), 2);
    }

    #[test]
    fn hash_distinct_holds_whole_input_and_spills_past_the_pool() {
        let schema = Schema::new(vec![Field::int("a")]);
        let rel = Relation::from_tuples(schema, (0..10_000).map(|i| ints(&[i])).collect()).unwrap();
        let storage = StorageManager::shared(StorageConfig::large());
        // Every distinct row is held: at least one record width each.
        let pool = MemoryPool::unbounded();
        let scan = Box::new(BatchMemScan::new(rel.clone()));
        let d = BatchDistinct::distinct(scan, pool.clone(), storage.clone());
        assert_eq!(drain(Box::new(d)), rel);
        assert!(pool.peak() >= 10_000 * 8, "peak {}", pool.peak());
        assert_eq!(storage.borrow().io_stats().transfers(), 0);
        // In 2 KB the rows go to overflow files, and come back once each.
        let storage = StorageManager::shared(StorageConfig {
            buffer_bytes: 16 * 1024,
            ..StorageConfig::paper()
        });
        let pool = MemoryPool::new(2048);
        let scan = Box::new(BatchMemScan::new(rel.clone()));
        let d = BatchDistinct::distinct(scan, pool.clone(), storage.clone());
        assert_eq!(drain(Box::new(d)).bag_counts(), rel.bag_counts());
        assert!(pool.peak() <= 2048);
        let sm = storage.borrow();
        assert!(sm.io_stats().transfers() > 0);
        assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
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
