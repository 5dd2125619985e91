//! One plan vocabulary, two execution engines.
//!
//! A division plan's *shape* — operators, span labels, the
//! duplicate-elimination rule — is written once, over the operator
//! constructors of an [`Engine`]. Each builds the tuple operator or its
//! batch twin as [`DivisionConfig::exec`] says, installs the query's
//! cancel token if the operator blocks, and wraps it in its profiling
//! span. An [`Op`] is an edge of either kind.

use reldiv_exec::agg::{
    HashCountAggregate, HashDistinct, HavingCount, ScalarCount, SortCountAggregate,
};
use reldiv_exec::batch::agg::{count_rows, BatchHashCountAggregate, BatchHavingCount};
use reldiv_exec::batch::distinct::BatchDistinct;
use reldiv_exec::batch::join::{BatchHashJoin, BatchMergeSemiJoin};
use reldiv_exec::batch::profile::maybe_profile_batch;
use reldiv_exec::batch::project::BatchProject;
use reldiv_exec::batch::scan::materialize;
use reldiv_exec::batch::sort::BatchSort;
use reldiv_exec::batch::{collect_batches, BatchOperator, BoxedBatchOp, ExecMode};
use reldiv_exec::hash_join::HashJoin;
use reldiv_exec::merge_join::{JoinMode, MergeJoin};
use reldiv_exec::op::{BoxedOp, Operator};
use reldiv_exec::profile::{maybe_profile, SpanKind, SpanMetrics, SpanScope};
use reldiv_exec::project::Project;
use reldiv_exec::scan::spool;
use reldiv_exec::sort::{Sort, SortMode};
use reldiv_rel::{RecordCodec, Relation, Schema};
use reldiv_storage::{FileId, MemoryPool, StorageManager, StorageRef};

use crate::api::{collect_cancel, DivisionConfig, Source};
use crate::batch_div::BatchHashDivision;
use crate::hash_division::{HashDivision, HashDivisionMode};
use crate::naive::{BatchNaiveDivision, NaiveDivision};
use crate::spec::DivisionSpec;
use crate::Result;

/// The span labels of profiled base-relation scans, in every family.
pub(crate) const SCAN_DIVIDEND: &str = "scan dividend";
pub(crate) const SCAN_DIVISOR: &str = "scan divisor";

/// An operator of either engine.
pub(crate) enum Op {
    Tuple(BoxedOp),
    Batch(BoxedBatchOp),
}

impl Op {
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Op::Tuple(op) => op.schema(),
            Op::Batch(op) => op.schema(),
        }
    }
}

const ONE_ENGINE: &str = "all scans of a plan come from one Engine";

fn tuple(op: impl Operator + 'static) -> Op {
    Op::Tuple(Box::new(op))
}

fn batch(op: impl BatchOperator + 'static) -> Op {
    Op::Batch(Box::new(op))
}

/// The operator constructors of the engine `config.exec` names.
pub(crate) struct Engine<'a> {
    pub storage: &'a StorageRef,
    pub config: &'a DivisionConfig,
}

impl Engine<'_> {
    /// A fresh scan of `source`.
    pub(crate) fn scan(&self, source: &Source) -> Op {
        match self.config.exec {
            ExecMode::Tuple => Op::Tuple(source.scan(self.storage)),
            ExecMode::Batch => Op::Batch(source.scan_batches(self.storage)),
        }
    }

    /// `op` under a profiling span (when the query is profiled).
    pub(crate) fn span(&self, op: Op, label: &'static str, kind: SpanKind) -> Op {
        let (sink, storage) = (self.config.profile.as_ref(), Some(self.storage));
        match op {
            Op::Tuple(op) => Op::Tuple(maybe_profile(op, sink, label, kind, storage)),
            Op::Batch(op) => Op::Batch(maybe_profile_batch(op, sink, label, kind, storage)),
        }
    }

    /// A fresh scan of `source` under a `Scan` span.
    pub(crate) fn scan_as(&self, source: &Source, label: &'static str) -> Op {
        self.span(self.scan(source), label, SpanKind::Scan)
    }

    /// An external sort in the configured sort space, under no span.
    fn sort_op(&self, input: Op, keys: Vec<usize>, mode: SortMode) -> Result<Op> {
        let (st, sort, cancel) = (self.storage.clone(), self.config.sort, self.config.cancel);
        Ok(match input {
            Op::Tuple(i) => tuple(Sort::new(st, i, keys, mode, sort)?.with_cancel(cancel)),
            Op::Batch(i) => batch(BatchSort::new(st, i, keys, mode, sort)?.with_cancel(cancel)),
        })
    }

    /// An external sort in the configured sort space.
    pub(crate) fn sort(
        &self,
        input: Op,
        keys: Vec<usize>,
        mode: SortMode,
        label: &'static str,
    ) -> Result<Op> {
        Ok(self.span(self.sort_op(input, keys, mode)?, label, SpanKind::Sort))
    }

    pub(crate) fn project(&self, input: Op, columns: Vec<usize>) -> Result<Op> {
        Ok(match input {
            Op::Tuple(input) => tuple(Project::new(input, columns)?),
            Op::Batch(input) => batch(BatchProject::new(input, columns)?),
        })
    }

    /// Hash-based duplicate elimination, the whole input in the pool.
    pub(crate) fn hash_distinct(&self, input: Op) -> Op {
        let (pool, cancel) = (self.storage.borrow().memory(), self.config.cancel);
        match input {
            Op::Tuple(input) => tuple(HashDistinct::new(input, pool).with_cancel(cancel)),
            Op::Batch(input) => batch(BatchDistinct::new(input, pool).with_cancel(cancel)),
        }
    }

    /// The semi-join keeping the `outer` rows that match an `inner` row:
    /// hash-based (building on `inner`), or merging sorted inputs.
    pub(crate) fn semi_join(
        &self,
        hashed: bool,
        (outer, ok): (Op, Vec<usize>),
        (inner, ik): (Op, Vec<usize>),
    ) -> Result<Op> {
        let (pool, cancel) = (self.storage.borrow().memory(), self.config.cancel);
        let mode = JoinMode::LeftSemi;
        let op = match (hashed, outer, inner) {
            (false, Op::Tuple(o), Op::Tuple(i)) => tuple(MergeJoin::new(o, i, ok, ik, mode)?),
            (false, Op::Batch(o), Op::Batch(i)) => batch(BatchMergeSemiJoin::new(o, i, ok, ik)?),
            (true, Op::Tuple(o), Op::Tuple(i)) => tuple(
                HashJoin::new(o, i, ok, ik, mode)?
                    .with_cancel(cancel)
                    .with_pool(pool),
            ),
            (true, Op::Batch(o), Op::Batch(i)) => {
                batch(BatchHashJoin::new(o, i, ok, ik, mode, pool)?.with_cancel(cancel))
            }
            _ => unreachable!("{ONE_ENGINE}"),
        };
        Ok(match hashed {
            true => self.span(op, "hash semi-join", SpanKind::HashJoin),
            false => self.span(op, "merge semi-join", SpanKind::MergeJoin),
        })
    }

    /// Runs `op` into a temporary record file, under a `Materialize`
    /// span; returns the file, which the caller deletes, and a scan of
    /// it. No failure leaves the file behind.
    pub(crate) fn materialize(&self, op: Op, label: &'static str) -> Result<(FileId, Op)> {
        let scope = self.config.profile.as_ref().map(|sink| {
            let storage = Some(self.storage.clone());
            SpanScope::enter(sink, label, SpanKind::Materialize, storage)
        });
        let schema = op.schema().clone();
        let file = match op {
            Op::Tuple(mut op) => {
                // `close` runs on every exit — a mid-drain failure must not
                // leak what the plan holds (pinned pages, run files).
                let (codec, disk) = (RecordCodec::new(schema.clone()), StorageManager::DATA_DISK);
                let spooled =
                    (op.open()).and_then(|()| spool(self.storage, disk, &codec, || op.next()));
                let closed = op.close();
                let file = spooled?;
                if let Err(e) = closed {
                    self.storage.borrow_mut().delete_file(file)?;
                    return Err(e);
                }
                file
            }
            Op::Batch(op) => materialize(self.storage, op, self.config.cancel)?,
        };
        if let Some(scope) = scope {
            scope.finish();
        }
        Ok((file, self.scan(&Source::from_file(file, schema))))
    }

    /// Sort-based `COUNT(*) GROUP BY keys`; `distinct` counts duplicate
    /// input rows once (a distinct sort on all columns goes first).
    pub(crate) fn sort_count(&self, mut input: Op, keys: Vec<usize>, distinct: bool) -> Result<Op> {
        if distinct {
            let all = (0..input.schema().arity()).collect();
            input = self.sort_op(input, all, SortMode::Distinct)?;
        }
        let (st, sort, cancel) = (self.storage.clone(), self.config.sort, self.config.cancel);
        let op = match input {
            Op::Tuple(i) => {
                tuple(SortCountAggregate::new(st, i, keys, false, sort)?.with_cancel(cancel))
            }
            Op::Batch(input) => {
                // Sorted rows are (input columns..., count); keep the
                // group columns and the count.
                let mut columns = keys.clone();
                columns.push(input.schema().arity());
                let counted = BatchSort::counting(st, input, keys, sort)?.with_cancel(cancel);
                batch(BatchProject::new(Box::new(counted), columns)?)
            }
        };
        Ok(self.span(op, "sort-based count aggregate", SpanKind::Aggregation))
    }

    /// Hash-based `COUNT(*) GROUP BY keys`, spilling when out of pool.
    pub(crate) fn hash_count(&self, input: Op, keys: Vec<usize>) -> Result<Op> {
        let (pool, st) = (self.storage.borrow().memory(), self.storage.clone());
        let cancel = self.config.cancel;
        Ok(match input {
            Op::Tuple(i) => tuple(
                HashCountAggregate::new(i, keys, pool)?
                    .with_spill(st)
                    .with_cancel(cancel),
            ),
            Op::Batch(i) => {
                batch(BatchHashCountAggregate::new(i, keys, pool, st)?.with_cancel(cancel))
            }
        })
    }

    /// Runs the scalar `COUNT(*)` (`COUNT(DISTINCT *)`) of `input`, spanned.
    pub(crate) fn count(&self, input: Op, distinct: bool, label: &'static str) -> Result<i64> {
        let (cancel, kind) = (self.config.cancel, SpanKind::Aggregation);
        match input {
            Op::Tuple(input) => {
                let count = tuple(ScalarCount::new(input, distinct).with_cancel(cancel));
                let counted = self.collect(self.span(count, label, kind))?;
                Ok(counted.tuples()[0].value(0).as_int().expect("count is Int"))
            }
            // The count is consumed here: a drain under the span, which
            // reports the one row an operator would have emitted.
            Op::Batch(input) => {
                let sink = self.config.profile.as_ref();
                let storage = Some(self.storage.clone());
                let scope = sink.map(|s| SpanScope::enter(s, label, kind, storage));
                let count = count_rows(input, distinct, cancel)?;
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
        }
    }

    /// The groups of `counts` whose count is the divisor's: the quotient.
    pub(crate) fn having(&self, counts: Op, target: i64) -> Result<Relation> {
        let op = match counts {
            Op::Tuple(c) => tuple(HavingCount::new(c, target)?.with_cancel(self.config.cancel)),
            Op::Batch(c) => batch(BatchHavingCount::new(c, target)?),
        };
        self.collect(self.span(op, "having count = |divisor|", SpanKind::Other))
    }

    /// The naive merge-scan step over sorted, duplicate-free inputs.
    pub(crate) fn merge_scan(&self, dividend: Op, divisor: Op, spec: &DivisionSpec) -> Result<Op> {
        let spec = spec.clone();
        let op = match (dividend, divisor) {
            (Op::Tuple(r), Op::Tuple(s)) => tuple(NaiveDivision::new(r, s, spec)?),
            (Op::Batch(r), Op::Batch(s)) => batch(BatchNaiveDivision::new(r, s, spec)?),
            _ => unreachable!("{ONE_ENGINE}"),
        };
        Ok(self.span(op, "naive merge-scan division", SpanKind::NaiveDivision))
    }

    /// The in-memory hash-division operator, its tables in `pool`.
    pub(crate) fn hash_division(
        &self,
        dividend: Op,
        divisor: Op,
        spec: &DivisionSpec,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> Result<Op> {
        let (spec, cancel) = (spec.clone(), self.config.cancel);
        let op = match (dividend, divisor) {
            (Op::Tuple(r), Op::Tuple(s)) => {
                let mut op = HashDivision::new(r, s, spec, mode, pool)?;
                op.set_cancel(cancel);
                tuple(op)
            }
            (Op::Batch(r), Op::Batch(s)) => {
                let mut op = BatchHashDivision::new(r, s, spec, mode, pool)?;
                op.set_cancel(cancel);
                batch(op)
            }
            _ => unreachable!("{ONE_ENGINE}"),
        };
        Ok(self.span(op, "hash-division (in-memory)", SpanKind::HashDivision))
    }

    /// Drains `op` into a relation, polling the query's cancel token.
    pub(crate) fn collect(&self, op: Op) -> Result<Relation> {
        match op {
            Op::Tuple(op) => collect_cancel(op, self.config.cancel),
            Op::Batch(op) => collect_batches(op, self.config.cancel),
        }
    }
}
