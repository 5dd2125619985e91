//! One plan vocabulary over the batch engine.
//!
//! A division plan's *shape* — operators, span labels, the
//! duplicate-elimination rule — is written once, over the operator
//! constructors of an [`Engine`]. Each builds a batch operator, installs
//! the query's cancel token if the operator blocks, and wraps it in its
//! profiling span.

use reldiv_exec::batch::agg::{count_rows, BatchHashCountAggregate, BatchHavingCount};
use reldiv_exec::batch::distinct::BatchDistinct;
use reldiv_exec::batch::join::BatchMergeSemiJoin;
use reldiv_exec::batch::profile::maybe_profile_batch;
use reldiv_exec::batch::project::BatchProject;
use reldiv_exec::batch::scan::materialize;
use reldiv_exec::batch::sort::BatchSort;
use reldiv_exec::batch::{collect_batches, BoxedBatchOp};
use reldiv_exec::hash_join::BatchHashJoin;
use reldiv_exec::merge_join::JoinMode;
use reldiv_exec::profile::{SpanKind, SpanMetrics, SpanScope};
use reldiv_exec::sort::{SortConfig, SortMode};
use reldiv_rel::Relation;
use reldiv_storage::{FileId, MemoryPool, StorageRef};

use crate::api::{DivisionConfig, Source};
use crate::batch_div::BatchHashDivision;
use crate::hash_division::HashDivisionMode;
use crate::naive::BatchNaiveDivision;
use crate::spec::DivisionSpec;
use crate::Result;

/// The span labels of profiled base-relation scans, in every family.
pub(crate) const SCAN_DIVIDEND: &str = "scan dividend";
pub(crate) const SCAN_DIVISOR: &str = "scan divisor";

/// The operator constructors of one query: its storage, its knobs and
/// the one pool its hash tables draw on.
pub(crate) struct Engine<'a> {
    pub storage: &'a StorageRef,
    pub config: &'a DivisionConfig,
    /// Under a `mem_budget`, a child pool capped at the budget that still
    /// charges the storage's shared pool, so concurrent queries contend
    /// while each respects its own; otherwise the shared pool.
    pub pool: MemoryPool,
}

impl<'a> Engine<'a> {
    /// The engine of one division over `storage` under `config`.
    pub(crate) fn new(storage: &'a StorageRef, config: &'a DivisionConfig) -> Engine<'a> {
        let shared = storage.borrow().memory();
        let pool = match config.mem_budget {
            Some(budget) => shared.child(budget),
            None => shared,
        };
        Engine {
            storage,
            config,
            pool,
        }
    }

    /// A fresh scan of `source`.
    pub(crate) fn scan(&self, source: &Source) -> BoxedBatchOp {
        source.scan_batches(self.storage)
    }

    /// `op` under a profiling span (when the query is profiled).
    pub(crate) fn span(
        &self,
        op: BoxedBatchOp,
        label: &'static str,
        kind: SpanKind,
    ) -> BoxedBatchOp {
        let sink = self.config.profile.as_ref();
        maybe_profile_batch(op, sink, label, kind, Some(self.storage))
    }

    /// A fresh scan of `source` under a `Scan` span.
    pub(crate) fn scan_as(&self, source: &Source, label: &'static str) -> BoxedBatchOp {
        self.span(self.scan(source), label, SpanKind::Scan)
    }

    /// The query's sort space: its storage's work memory, within its budget.
    fn sort_space(&self) -> SortConfig {
        let work_memory = self.storage.borrow().config().work_memory_bytes;
        SortConfig {
            memory_bytes: work_memory.min(self.config.mem_budget.unwrap_or(usize::MAX)),
            ..SortConfig::default()
        }
    }

    /// An external sort in the query's sort space, under no span.
    fn sort_op(
        &self,
        input: BoxedBatchOp,
        keys: Vec<usize>,
        mode: SortMode,
    ) -> Result<BoxedBatchOp> {
        let sort = BatchSort::new(self.storage.clone(), input, keys, mode, self.sort_space())?;
        Ok(Box::new(sort.with_cancel(self.config.cancel)))
    }

    /// An external sort in the query's sort space.
    pub(crate) fn sort(
        &self,
        input: BoxedBatchOp,
        keys: Vec<usize>,
        mode: SortMode,
        label: &'static str,
    ) -> Result<BoxedBatchOp> {
        Ok(self.span(self.sort_op(input, keys, mode)?, label, SpanKind::Sort))
    }

    pub(crate) fn project(&self, input: BoxedBatchOp, columns: Vec<usize>) -> Result<BoxedBatchOp> {
        Ok(Box::new(BatchProject::new(input, columns)?))
    }

    /// Hash-based duplicate elimination, the whole input in the pool or in
    /// overflow files.
    pub(crate) fn hash_distinct(&self, input: BoxedBatchOp) -> BoxedBatchOp {
        let (pool, storage) = (self.pool.clone(), self.storage.clone());
        let distinct = BatchDistinct::distinct(input, pool, storage);
        Box::new(distinct.with_cancel(self.config.cancel))
    }

    /// The semi-join keeping the `outer` rows that match an `inner` row:
    /// hash-based (building on `inner`), or merging sorted inputs.
    pub(crate) fn semi_join(
        &self,
        hashed: bool,
        (outer, ok): (BoxedBatchOp, Vec<usize>),
        (inner, ik): (BoxedBatchOp, Vec<usize>),
    ) -> Result<BoxedBatchOp> {
        if !hashed {
            let op = BatchMergeSemiJoin::new(outer, inner, ok, ik)?;
            return Ok(self.span(Box::new(op), "merge semi-join", SpanKind::MergeJoin));
        }
        let (pool, cancel) = (self.pool.clone(), self.config.cancel);
        let op = BatchHashJoin::new(outer, inner, ok, ik, JoinMode::LeftSemi, pool)?;
        let op = Box::new(op.with_cancel(cancel));
        Ok(self.span(op, "hash semi-join", SpanKind::HashJoin))
    }

    /// Runs `op` into a temporary record file, under a `Materialize`
    /// span; returns the file, which the caller deletes, and a scan of
    /// it. No failure leaves the file behind.
    pub(crate) fn materialize(
        &self,
        op: BoxedBatchOp,
        label: &'static str,
    ) -> Result<(FileId, BoxedBatchOp)> {
        let scope = self.config.profile.as_ref().map(|sink| {
            let storage = Some(self.storage.clone());
            SpanScope::enter(sink, label, SpanKind::Materialize, storage)
        });
        let schema = op.schema().clone();
        let file = materialize(self.storage, op, self.config.cancel)?;
        if let Some(scope) = scope {
            scope.finish();
        }
        Ok((file, self.scan(&Source::from_file(file, schema))))
    }

    /// Sort-based `COUNT(*) GROUP BY keys`; `distinct` counts duplicate
    /// input rows once (a distinct sort on all columns goes first).
    pub(crate) fn sort_count(
        &self,
        mut input: BoxedBatchOp,
        keys: Vec<usize>,
        distinct: bool,
    ) -> Result<BoxedBatchOp> {
        if distinct {
            let all = (0..input.schema().arity()).collect();
            input = self.sort_op(input, all, SortMode::Distinct)?;
        }
        let (st, sort, cancel) = (self.storage.clone(), self.sort_space(), self.config.cancel);
        // Sorted rows are (input columns..., count); keep the group
        // columns and the count.
        let mut columns = keys.clone();
        columns.push(input.schema().arity());
        let counted = BatchSort::counting(st, input, keys, sort)?.with_cancel(cancel);
        let op = Box::new(BatchProject::new(Box::new(counted), columns)?);
        Ok(self.span(op, "sort-based count aggregate", SpanKind::Aggregation))
    }

    /// Hash-based `COUNT(*) GROUP BY keys`, spilling when out of pool.
    pub(crate) fn hash_count(&self, input: BoxedBatchOp, keys: Vec<usize>) -> Result<BoxedBatchOp> {
        let (pool, st) = (self.pool.clone(), self.storage.clone());
        let op = BatchHashCountAggregate::new(input, keys, pool, st)?;
        Ok(Box::new(op.with_cancel(self.config.cancel)))
    }

    /// Runs the scalar `COUNT(*)` (`COUNT(DISTINCT *)`) of `input`, spanned:
    /// a drain under the span, which reports the one row an operator would
    /// have emitted.
    pub(crate) fn count(
        &self,
        input: BoxedBatchOp,
        distinct: bool,
        label: &'static str,
    ) -> Result<i64> {
        let sink = self.config.profile.as_ref();
        let storage = Some(self.storage.clone());
        let scope = sink.map(|s| SpanScope::enter(s, label, SpanKind::Aggregation, storage));
        let distinct = distinct.then(|| (self.pool.clone(), self.storage.clone()));
        let count = count_rows(input, distinct, self.config.cancel)?;
        if let (Some(sink), Some(scope)) = (sink, scope) {
            let one_row = SpanMetrics {
                tuples_out: 1,
                ..SpanMetrics::default()
            };
            sink.add(scope.id(), &one_row);
            scope.finish();
        }
        Ok(count)
    }

    /// The groups of `counts` whose count is the divisor's: the quotient.
    pub(crate) fn having(&self, counts: BoxedBatchOp, target: i64) -> Result<Relation> {
        let op = Box::new(BatchHavingCount::new(counts, target)?);
        self.collect(self.span(op, "having count = |divisor|", SpanKind::Other))
    }

    /// The naive merge-scan step over sorted, duplicate-free inputs.
    pub(crate) fn merge_scan(
        &self,
        dividend: BoxedBatchOp,
        divisor: BoxedBatchOp,
        spec: &DivisionSpec,
    ) -> Result<BoxedBatchOp> {
        let op = Box::new(BatchNaiveDivision::new(dividend, divisor, spec.clone())?);
        Ok(self.span(op, "naive merge-scan division", SpanKind::NaiveDivision))
    }

    /// The in-memory hash-division operator, its tables in `pool`.
    pub(crate) fn hash_division(
        &self,
        dividend: BoxedBatchOp,
        divisor: BoxedBatchOp,
        spec: &DivisionSpec,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> Result<BoxedBatchOp> {
        let mut op = BatchHashDivision::new(dividend, divisor, spec.clone(), mode, pool)?;
        op.set_cancel(self.config.cancel);
        Ok(self.span(
            Box::new(op),
            "hash-division (in-memory)",
            SpanKind::HashDivision,
        ))
    }

    /// Drains `op` into a relation, polling the query's cancel token.
    pub(crate) fn collect(&self, op: BoxedBatchOp) -> Result<Relation> {
        collect_batches(op, self.config.cancel)
    }
}
