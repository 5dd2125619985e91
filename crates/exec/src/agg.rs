//! Aggregation operators: sort-based, hash-based, scalar, and the
//! `HAVING count = N` filter.
//!
//! Together these express division by aggregation, the paper's Section 2.2:
//! "First, the courses offered by the university are counted using a scalar
//! aggregate operator. Second, for each student, the courses taken are
//! counted using an aggregate function operator. Third, only those students
//! whose number of courses taken is equal to the number of courses offered
//! are selected."

use reldiv_rel::schema::Field;
use reldiv_rel::{counters, ColumnType, Schema, Tuple, Value};
use reldiv_storage::{MemoryPool, StorageRef};

use crate::cancel::CancelToken;
use crate::hash_table::ChainedTable;
use crate::op::{BoxedOp, OpState, Operator};
use crate::sort::{Sort, SortConfig, SortMode};
use crate::{ExecError, Result};

/// Appends a constant `count = 1` column; internal adapter feeding
/// [`SortCountAggregate`]'s `CountAggregate` sort.
struct AppendOne {
    input: BoxedOp,
    schema: Schema,
}

impl AppendOne {
    fn new(input: BoxedOp) -> Self {
        let mut fields = input.schema().fields().to_vec();
        fields.push(Field::new("count", ColumnType::Int));
        AppendOne {
            input,
            schema: Schema::new(fields),
        }
    }
}

impl Operator for AppendOne {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }
    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(self.input.next()?.map(|t| {
            let mut vals = t.into_values();
            vals.push(Value::Int(1));
            Tuple::new(vals)
        }))
    }
    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Sort-based `COUNT(*) GROUP BY` with the aggregation performed during
/// sorting (run generation and merging), as the paper's sort does.
///
/// Output schema: the group columns followed by an `Int` count column.
pub struct SortCountAggregate {
    sort: Sort,
    schema: Schema,
}

impl SortCountAggregate {
    /// Groups `input` on `group_keys`, counting tuples per group.
    ///
    /// If `distinct_within_group` is set, duplicate tuples (same *full*
    /// input tuple) count once — the "explicitly request uniqueness"
    /// footnote of the paper. This is realized by a distinct sort on all
    /// columns before the counting sort.
    pub fn new(
        storage: StorageRef,
        input: BoxedOp,
        group_keys: Vec<usize>,
        distinct_within_group: bool,
        config: SortConfig,
    ) -> Result<Self> {
        let source: BoxedOp = if distinct_within_group {
            let all: Vec<usize> = (0..input.schema().arity()).collect();
            Box::new(Sort::new(
                storage.clone(),
                input,
                all,
                SortMode::Distinct,
                config,
            )?)
        } else {
            input
        };
        let appended = AppendOne::new(source);
        let schema = appended.schema.clone();
        // The trailing count column is not a sort key.
        let sort = Sort::new(
            storage,
            Box::new(appended),
            group_keys.clone(),
            SortMode::CountAggregate,
            config,
        )?;
        // Output schema: group columns then count.
        let mut fields: Vec<Field> = group_keys
            .iter()
            .map(|&k| schema.fields()[k].clone())
            .collect();
        fields.push(Field::new("count", ColumnType::Int));
        Ok(SortCountAggregate {
            sort,
            schema: Schema::new(fields),
        })
    }

    fn group_keys(&self) -> Vec<usize> {
        // The sort's keys are the group keys.
        (0..self.schema.arity() - 1).collect()
    }

    /// Polls `cancel` inside the counting sort's run-generation and merge
    /// loops.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.sort.set_cancel(cancel);
        self
    }
}

impl Operator for SortCountAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.sort.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        // Sorted tuples are (all input columns..., count); project to
        // (group columns..., count). The sort's keys are the group keys in
        // their original positions of the widened schema.
        let Some(t) = self.sort.next()? else {
            return Ok(None);
        };
        let n = self.group_keys().len();
        let sort_keys = self.sort_keys();
        let mut vals = Vec::with_capacity(n + 1);
        for &k in &sort_keys {
            vals.push(t.value(k).clone());
        }
        vals.push(t.value(t.arity() - 1).clone());
        Ok(Some(Tuple::new(vals)))
    }

    fn close(&mut self) -> Result<()> {
        self.sort.close()
    }
}

impl SortCountAggregate {
    fn sort_keys(&self) -> Vec<usize> {
        self.sort.keys().to_vec()
    }
}

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
    /// When set, the aggregation table spills partial aggregates to
    /// temporary cluster files on exhaustion instead of failing — the
    /// GAMMA-style partitioned ("hybrid") aggregation.
    spill: Option<StorageRef>,
    cancel: CancelToken,
    state: OpState,
    drain: Option<std::vec::IntoIter<Tuple>>,
}

/// The output schema of a group count: the group columns, then `count`.
pub(crate) fn count_schema(input: &Schema, group_keys: &[usize]) -> Result<Schema> {
    if group_keys.iter().any(|&k| k >= input.arity()) {
        return Err(ExecError::Plan(
            "hash aggregate: group key out of range".into(),
        ));
    }
    let mut fields: Vec<Field> = group_keys
        .iter()
        .map(|&k| input.fields()[k].clone())
        .collect();
    fields.push(Field::new("count", ColumnType::Int));
    Ok(Schema::new(fields))
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
    /// drains the input into the aggregation table (and while spill
    /// clusters are re-aggregated) — the whole aggregation happens before
    /// the first `next`, so without this a deadline cannot interrupt it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enables partitioned overflow handling: when the aggregation table
    /// exhausts the memory pool, partial aggregates are spooled to
    /// group-hash cluster files on `storage`'s data disk and each cluster
    /// is aggregated in its own phase — the aggregation analogue of
    /// hash-division's quotient partitioning.
    pub fn with_spill(mut self, storage: StorageRef) -> Self {
        self.spill = Some(storage);
        self
    }
}

/// Group-hash clusters for the spill path.
const SPILL_PARTITIONS: usize = 8;

pub(crate) type GroupTable = ChainedTable<(Tuple, i64)>;

/// Widens a group tuple with its count into an output-schema tuple.
fn widen(group: Tuple, count: i64) -> Tuple {
    let mut vals = group.into_values();
    vals.push(Value::Int(count));
    Tuple::new(vals)
}

/// The state of a group count, shared by both engines' operators: the
/// table of `(group, count)` until the pool is exhausted, then
/// [`SPILL_PARTITIONS`] cluster files of `(group..., count)` records, each
/// re-aggregated in its own phase and all deleted with the state.
pub(crate) struct GroupCounts {
    pool: MemoryPool,
    spill: Option<StorageRef>,
    codec: reldiv_rel::RecordCodec,
    /// `None` once spilling has begun (the table's memory is released
    /// back to the pool before the phase tables need it).
    table: Option<GroupTable>,
    clusters: Vec<reldiv_storage::FileId>,
}

impl GroupCounts {
    /// An empty state producing rows of `schema` (a [`count_schema`]).
    pub(crate) fn new(
        pool: &MemoryPool,
        spill: Option<StorageRef>,
        schema: Schema,
    ) -> Result<Self> {
        Ok(GroupCounts {
            table: Some(ChainedTable::new(pool, 16)?),
            pool: pool.clone(),
            spill,
            codec: reldiv_rel::RecordCodec::new(schema),
            clusters: Vec::new(),
        })
    }

    /// Spools one partial aggregate to the cluster its group hash names.
    fn route(&self, hash: u64, group: Tuple, count: i64) -> Result<()> {
        let storage = self.spill.as_ref().expect("clusters imply spill");
        let record = self.codec.encode(&widen(group, count))?;
        let cluster = self.clusters[(hash as usize) % SPILL_PARTITIONS];
        storage.borrow_mut().append(cluster, &record)?;
        Ok(())
    }

    /// Counts one more row of the group hashing to `hash` that `find`
    /// locates in the table, or of a new group `group()`; once spilling,
    /// routes it. A table that exhausts the pool is drained into the
    /// cluster files (if spilling is enabled: otherwise that is the error).
    pub(crate) fn add(
        &mut self,
        hash: u64,
        find: impl FnOnce(&GroupTable) -> Option<u32>,
        group: impl Fn() -> Tuple,
    ) -> Result<()> {
        let Some(table) = &mut self.table else {
            return self.route(hash, group(), 1);
        };
        if let Some(idx) = find(table) {
            table.get_mut(idx).1 += 1;
            return Ok(());
        }
        match table.insert(hash, (group(), 1)) {
            Err(e) if e.is_memory_exhausted() && self.spill.is_some() => {
                let storage = self.spill.as_ref().expect("checked");
                self.clusters = {
                    let mut sm = storage.borrow_mut();
                    (0..SPILL_PARTITIONS)
                        .map(|_| sm.create_file(reldiv_storage::StorageManager::DATA_DISK))
                        .collect()
                };
                let out_keys: Vec<usize> = (0..self.codec.schema().arity() - 1).collect();
                for (g, c) in self.table.take().expect("table present").into_items() {
                    self.route(g.hash_on(&out_keys), g, c)?;
                }
                self.route(hash, group(), 1)
            }
            other => other.map(|_| ()),
        }
    }

    /// The counted groups as output tuples, in insertion order (cluster
    /// by cluster, if spilled, polling `cancel` every checkpoint stride).
    pub(crate) fn finish(mut self, cancel: CancelToken) -> Result<Vec<Tuple>> {
        if let Some(table) = self.table.take() {
            return Ok(table.into_items().map(|(g, c)| widen(g, c)).collect());
        }
        let storage = self.spill.clone().expect("clusters imply spill");
        let out_keys: Vec<usize> = (0..self.codec.schema().arity() - 1).collect();
        let (mut out, mut budget) = (Vec::new(), 0u32);
        for &file in &self.clusters {
            let mut phase: GroupTable = ChainedTable::new(&self.pool, 16)?;
            let mut cursor = reldiv_storage::file::ScanCursor::new(file);
            loop {
                cancel.checkpoint(&mut budget)?;
                let mut sm = storage.borrow_mut();
                let Some((_, record)) = cursor.next(&mut sm)? else {
                    break;
                };
                let t = self.codec.decode(record)?;
                let count = t.value(t.arity() - 1).as_int().unwrap_or(0);
                let group = t.project(&out_keys);
                // A cluster that still exhausts memory means the group
                // population defeats k-way partitioning; surface that
                // honestly.
                let h = group.hash_on(&out_keys);
                match phase.find(h, |(g, _)| group.eq_on(&out_keys, g, &out_keys)) {
                    Some(idx) => phase.get_mut(idx).1 += count,
                    None => {
                        phase.insert(h, (group, count))?;
                    }
                }
            }
            out.extend(phase.into_items().map(|(g, c)| widen(g, c)));
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
        let out_keys: Vec<usize> = (0..self.group_keys.len()).collect();
        let mut counts = GroupCounts::new(&self.pool, self.spill.clone(), self.schema.clone())?;
        let mut budget = 0u32;
        while let Some(t) = self.input.next()? {
            self.cancel.checkpoint(&mut budget)?;
            let group = t.project(&self.group_keys);
            let h = group.hash_on(&out_keys);
            let find =
                |table: &GroupTable| table.find(h, |(g, _)| group.eq_on(&out_keys, g, &out_keys));
            counts.add(h, find, || group.clone())?;
        }
        self.input.close()?;
        self.drain = Some(counts.finish(self.cancel)?.into_iter());
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

/// Scalar `COUNT(*)`: consumes the input, emits one `(count)` tuple.
///
/// "The scalar aggregate operator can be implemented quite easily, e.g.,
/// using a file scan." With `distinct`, duplicate input tuples count once
/// (using a lightweight in-memory set — appropriate because the scalar
/// aggregate of a division plan counts the small divisor).
pub struct ScalarCount {
    input: BoxedOp,
    distinct: bool,
    schema: Schema,
    cancel: CancelToken,
    state: OpState,
    produced: bool,
    count: i64,
}

impl ScalarCount {
    /// Counts tuples of `input` (distinct tuples if `distinct`).
    pub fn new(input: BoxedOp, distinct: bool) -> Self {
        ScalarCount {
            input,
            distinct,
            schema: Schema::new(vec![Field::new("count", ColumnType::Int)]),
            cancel: CancelToken::none(),
            state: OpState::Created,
            produced: false,
            count: 0,
        }
    }

    /// Polls `cancel` every checkpoint stride while `open` counts.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl Operator for ScalarCount {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        self.count = 0;
        self.produced = false;
        let mut seen = std::collections::HashSet::new();
        let mut budget = 0u32;
        while let Some(t) = self.input.next()? {
            self.cancel.checkpoint(&mut budget)?;
            if self.distinct {
                if seen.insert(t) {
                    self.count += 1;
                }
            } else {
                self.count += 1;
            }
        }
        self.input.close()?;
        self.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.state.require_open()?;
        if self.produced {
            return Ok(None);
        }
        self.produced = true;
        Ok(Some(Tuple::new(vec![Value::Int(self.count)])))
    }

    fn close(&mut self) -> Result<()> {
        self.state = OpState::Closed;
        Ok(())
    }
}

/// Hash-based duplicate elimination.
///
/// The paper notes that "efficient duplicate elimination schemes based on
/// hashing exist \[Gerber1986a\], they require that the entire input must
/// be kept in main memory hash tables or in overflow files. Thus,
/// duplicate elimination based on hashing may be impractical for a very
/// large dividend relation." This operator is that scheme: the whole input
/// lives in the accounted hash table, so a large input exhausts the pool —
/// which is the point the paper makes when motivating hash-division's
/// built-in duplicate insensitivity.
pub struct HashDistinct {
    input: BoxedOp,
    pool: MemoryPool,
    cancel: CancelToken,
    state: OpState,
    drain: Option<std::vec::IntoIter<Tuple>>,
}

impl HashDistinct {
    /// Creates a distinct over all columns of `input`.
    pub fn new(input: BoxedOp, pool: MemoryPool) -> Self {
        HashDistinct {
            input,
            pool,
            cancel: CancelToken::none(),
            state: OpState::Created,
            drain: None,
        }
    }

    /// Polls `cancel` every checkpoint stride while `open` builds the
    /// distinct table.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl Operator for HashDistinct {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let all: Vec<usize> = (0..self.input.schema().arity()).collect();
        let width = self.input.schema().record_width();
        let mut table: ChainedTable<Tuple> = ChainedTable::new(&self.pool, 16)?;
        let mut payload = self.pool.reserve(0)?;
        let mut budget = 0u32;
        while let Some(t) = self.input.next()? {
            self.cancel.checkpoint(&mut budget)?;
            let h = t.hash_on(&all);
            if table.find(h, |cand| t.eq_on(&all, cand, &all)).is_none() {
                payload.grow(width)?;
                table.insert(h, t)?;
            }
        }
        self.input.close()?;
        let out: Vec<Tuple> = table.into_items().collect();
        self.drain = Some(out.into_iter());
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

/// Selects groups whose trailing count equals `target` and projects the
/// count away — the final step of division by aggregation.
pub struct HavingCount {
    input: BoxedOp,
    target: i64,
    schema: Schema,
    cancel: CancelToken,
    budget: u32,
}

impl HavingCount {
    /// Filters `(group..., count)` tuples to those with `count == target`.
    pub fn new(input: BoxedOp, target: i64) -> Result<Self> {
        let arity = input.schema().arity();
        if arity < 2 {
            return Err(ExecError::Plan(
                "HavingCount: input needs group + count columns".into(),
            ));
        }
        let cols: Vec<usize> = (0..arity - 1).collect();
        let schema = input.schema().project(&cols).map_err(ExecError::from)?;
        Ok(HavingCount {
            input,
            target,
            schema,
            cancel: CancelToken::none(),
            budget: 0,
        })
    }

    /// Polls `cancel` every checkpoint stride of rejected groups.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl Operator for HavingCount {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let count_col = self.input.schema().arity() - 1;
        while let Some(t) = self.input.next()? {
            counters::count_comparisons(1);
            if t.value(count_col).as_int() == Some(self.target) {
                let cols: Vec<usize> = (0..count_col).collect();
                return Ok(Some(t.project(&cols)));
            }
            self.cancel.checkpoint(&mut self.budget)?;
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use crate::scan::MemScan;
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

    #[test]
    fn sort_aggregate_counts_courses_per_student() {
        let storage = StorageManager::shared(StorageConfig::paper());
        let agg = SortCountAggregate::new(
            storage,
            Box::new(MemScan::new(transcript())),
            vec![0],
            false,
            SortConfig::default(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(counts_of(out), [(1, 2), (2, 1), (3, 3)].into());
    }

    #[test]
    fn sort_aggregate_distinct_collapses_duplicates() {
        let storage = StorageManager::shared(StorageConfig::paper());
        let mut rel = transcript();
        rel.push(ints(&[1, 10])).unwrap(); // duplicate transcript row
        rel.push(ints(&[1, 10])).unwrap();
        let agg = SortCountAggregate::new(
            storage,
            Box::new(MemScan::new(rel)),
            vec![0],
            true,
            SortConfig::default(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(counts_of(out)[&1], 2, "duplicates counted once");
    }

    #[test]
    fn hash_aggregate_counts_courses_per_student() {
        let agg = HashCountAggregate::new(
            Box::new(MemScan::new(transcript())),
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
            Box::new(MemScan::new(rel)),
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
        let agg =
            HashCountAggregate::new(Box::new(MemScan::new(rel)), vec![0], pool.clone()).unwrap();
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
        let plain = collect(Box::new(ScalarCount::new(
            Box::new(MemScan::new(rel.clone())),
            false,
        )))
        .unwrap();
        assert_eq!(plain.tuples()[0], ints(&[3]));
        let distinct = collect(Box::new(ScalarCount::new(
            Box::new(MemScan::new(rel)),
            true,
        )))
        .unwrap();
        assert_eq!(distinct.tuples()[0], ints(&[2]));
    }

    #[test]
    fn scalar_count_of_empty_input_is_zero() {
        let schema = Schema::new(vec![Field::int("x")]);
        let rel = Relation::empty(schema);
        let out = collect(Box::new(ScalarCount::new(
            Box::new(MemScan::new(rel)),
            false,
        )))
        .unwrap();
        assert_eq!(out.tuples()[0], ints(&[0]));
    }

    #[test]
    fn having_count_selects_full_groups() {
        // Students with count == 2 of 2 courses: division's final step.
        let schema = Schema::new(vec![Field::int("sid"), Field::int("count")]);
        let rel = Relation::from_tuples(schema, vec![ints(&[1, 2]), ints(&[2, 1]), ints(&[3, 2])])
            .unwrap();
        let out = collect(Box::new(
            HavingCount::new(Box::new(MemScan::new(rel)), 2).unwrap(),
        ))
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
    fn hash_distinct_removes_exact_duplicates() {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        let rel = Relation::from_tuples(
            schema,
            vec![ints(&[1, 2]), ints(&[1, 2]), ints(&[1, 3]), ints(&[1, 2])],
        )
        .unwrap();
        let d = HashDistinct::new(Box::new(MemScan::new(rel)), MemoryPool::unbounded());
        let out = collect(Box::new(d)).unwrap();
        assert_eq!(out.cardinality(), 2);
    }

    #[test]
    fn hash_distinct_holds_whole_input_and_can_exhaust_memory() {
        let schema = Schema::new(vec![Field::int("a")]);
        let rel = Relation::from_tuples(schema, (0..10_000).map(|i| ints(&[i])).collect()).unwrap();
        let mut d = HashDistinct::new(Box::new(MemScan::new(rel)), MemoryPool::new(2048));
        assert!(d.open().unwrap_err().is_memory_exhausted());
    }

    #[test]
    fn having_count_zero_matches_nothing_from_counts() {
        // Aggregation never yields zero-count groups — the subtle semantic
        // difference from true division with an empty divisor.
        let schema = Schema::new(vec![Field::int("sid"), Field::int("count")]);
        let rel = Relation::from_tuples(schema, vec![ints(&[1, 1])]).unwrap();
        let out = collect(Box::new(
            HavingCount::new(Box::new(MemScan::new(rel)), 0).unwrap(),
        ))
        .unwrap();
        assert!(out.is_empty());
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use crate::op::collect;
    use crate::scan::MemScan;
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
                Box::new(MemScan::new(rel.clone())),
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
            HashCountAggregate::new(Box::new(MemScan::new(rel)), vec![0], pool)
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
            Box::new(MemScan::new(rel)),
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
                Box::new(MemScan::new(rel)),
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
