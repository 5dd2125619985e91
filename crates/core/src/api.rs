//! The engine-level division API.
//!
//! [`divide`] runs any of the four algorithms over [`Source`]s — relations
//! stored in record files of a [`StorageManager`] or held in memory — and
//! returns the quotient relation. [`divide_relations`] is the convenience
//! wrapper used by examples and tests: it provisions a private storage
//! manager with the paper's configuration.

use std::rc::Rc;

use reldiv_exec::batch::profile::maybe_profile_batch;
use reldiv_exec::batch::scan::{BatchColumnsScan, BatchFileScan, BatchMemScan};
use reldiv_exec::batch::{BatchToTuple, BoxedBatchOp, ExecMode};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::op::BoxedOp;
use reldiv_exec::profile::{ProfileSink, QueryProfile, SpanKind, SpanScope};
use reldiv_exec::scan::{FileScan, MemScan};
use reldiv_exec::sort::SortConfig;
use reldiv_rel::{Columns, Relation, Schema, Tuple};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{FileId, StorageManager, StorageRef};

use crate::engine::{Engine, SCAN_DIVIDEND, SCAN_DIVISOR};
use crate::hash_agg::hash_agg_division;
use crate::hash_division::HashDivisionMode;
use crate::hybrid;
use crate::naive::naive_division;
use crate::overflow;
use crate::report::DegradationReport;
use crate::sort_agg::sort_agg_division;
use crate::spec::DivisionSpec;
use crate::{ExecError, Result};

/// A re-scannable relation source: algorithms that need to read an input
/// more than once (aggregation plans read the divisor for both the scalar
/// count and the join; overflow retries re-read everything) open fresh
/// scans from the source.
#[derive(Clone)]
pub enum Source {
    /// A record file in the storage manager.
    File {
        /// The file holding the relation's records.
        file: FileId,
        /// Schema for decoding the records.
        schema: Schema,
    },
    /// An in-memory relation (shared, so re-scans are cheap).
    Mem {
        /// The relation's schema.
        schema: Schema,
        /// The tuples, shared among scans.
        tuples: Rc<Vec<Tuple>>,
    },
    /// A relation held as shared columns — the service catalog's form and
    /// what a plan's materialized intermediates become. The payload is
    /// `Send + Sync`: one copy serves every worker thread.
    Columns(Columns),
}

impl Source {
    /// Wraps an in-memory relation.
    pub fn from_relation(relation: &Relation) -> Source {
        Source::Mem {
            schema: relation.schema().clone(),
            tuples: Rc::new(relation.tuples().to_vec()),
        }
    }

    /// Wraps a record file.
    pub fn from_file(file: FileId, schema: Schema) -> Source {
        Source::File { file, schema }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Source::File { schema, .. } | Source::Mem { schema, .. } => schema,
            Source::Columns(columns) => columns.schema(),
        }
    }

    /// Opens a fresh scan over the relation. Shared columns have no
    /// tuple-at-a-time scan of their own: the batch scan is bridged.
    pub fn scan(&self, storage: &StorageRef) -> BoxedOp {
        match self {
            Source::Columns(_) => Box::new(BatchToTuple::new(self.scan_batches(storage))),
            Source::File { file, schema } => {
                Box::new(FileScan::new(storage.clone(), *file, schema.clone()))
            }
            Source::Mem { schema, tuples } => {
                Box::new(MemScan::shared(schema.clone(), tuples.clone()))
            }
        }
    }

    /// Opens a fresh batch scan over the relation. Every kind is
    /// batch-native: a record file is decoded page by page straight into
    /// columns, with the page I/O of [`Source::scan`] on the same file;
    /// shared columns are handed out batch by batch, with none.
    pub fn scan_batches(&self, storage: &StorageRef) -> BoxedBatchOp {
        match self {
            Source::Columns(columns) => Box::new(BatchColumnsScan::new(columns.clone())),
            Source::File { file, schema } => {
                Box::new(BatchFileScan::new(storage.clone(), *file, schema.clone()))
            }
            Source::Mem { schema, tuples } => {
                Box::new(BatchMemScan::shared(schema.clone(), tuples.clone()))
            }
        }
    }
}

/// Algorithm selection — the four algorithms of the paper's title.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Naive sorted-merge division (Section 2.1).
    Naive,
    /// Division by sort-based aggregation (Section 2.2.1); `join` adds the
    /// merge semi-join that restricts counting to valid divisor values.
    SortAggregation {
        /// Whether a semi-join precedes the aggregation.
        join: bool,
    },
    /// Division by hash-based aggregation (Section 2.2.2); `join` adds the
    /// hash semi-join.
    HashAggregation {
        /// Whether a semi-join precedes the aggregation.
        join: bool,
    },
    /// Hash-division (Section 3).
    HashDivision {
        /// Variant selection.
        mode: HashDivisionMode,
    },
}

impl From<reldiv_costmodel::PlannedAlgorithm> for Algorithm {
    fn from(p: reldiv_costmodel::PlannedAlgorithm) -> Algorithm {
        use reldiv_costmodel::PlannedAlgorithm as P;
        match p {
            P::Naive => Algorithm::Naive,
            P::SortAggregation { join } => Algorithm::SortAggregation { join },
            P::HashAggregation { join } => Algorithm::HashAggregation { join },
            P::HashDivision => Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
        }
    }
}

impl Algorithm {
    /// Cost-based algorithm choice (Section 5.2: "the possible error in
    /// the selectivity estimate makes it imperative to choose the
    /// division algorithm very carefully").
    ///
    /// * `restricted_divisor`: the dividend may contain tuples whose
    ///   divisor attributes are not in the divisor (divisor produced by a
    ///   selection), forcing the aggregation plans to join;
    /// * `duplicate_free`: both inputs are projections on keys, so no
    ///   duplicate elimination is needed.
    pub fn recommend(
        divisor_size: u64,
        quotient_size: u64,
        dividend_size: Option<u64>,
        restricted_divisor: bool,
        duplicate_free: bool,
    ) -> Algorithm {
        reldiv_costmodel::recommend(&reldiv_costmodel::PlannerInput {
            divisor_size,
            quotient_size,
            dividend_size,
            restricted_divisor,
            duplicate_free,
        })
        .into()
    }

    /// The six columns of the paper's Tables 2 and 4, in column order.
    pub fn table_columns() -> [Algorithm; 6] {
        [
            Algorithm::Naive,
            Algorithm::SortAggregation { join: false },
            Algorithm::SortAggregation { join: true },
            Algorithm::HashAggregation { join: false },
            Algorithm::HashAggregation { join: true },
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
        ]
    }

    /// Short label, matching the paper's table headers.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Naive => "Naive Div.",
            Algorithm::SortAggregation { join: false } => "Sort-Agg (no join)",
            Algorithm::SortAggregation { join: true } => "Sort-Agg (with join)",
            Algorithm::HashAggregation { join: false } => "Hash-Agg (no join)",
            Algorithm::HashAggregation { join: true } => "Hash-Agg (with join)",
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            } => "Hash-Div.",
            Algorithm::HashDivision {
                mode: HashDivisionMode::EarlyOut,
            } => "Hash-Div. (early)",
            Algorithm::HashDivision {
                mode: HashDivisionMode::CounterOnly,
            } => "Hash-Div. (counter)",
        }
    }
}

/// What to do when hash-division's tables exceed the memory pool
/// (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Surface `MemoryExhausted` to the caller.
    Fail,
    /// Partition the dividend on the quotient attributes into this many
    /// clusters; the divisor table stays resident across all phases.
    QuotientPartition {
        /// Number of clusters.
        partitions: usize,
    },
    /// Partition both inputs on the divisor attributes; a collection phase
    /// divides the union of the quotient clusters by the phase numbers.
    DivisorPartition {
        /// Number of clusters.
        partitions: usize,
    },
    /// Combined partitioning (Section 3.4's "combinations of the
    /// techniques"): divisor partitioning whose phases are themselves
    /// quotient-partitioned — for inputs where both the divisor and the
    /// quotient exceed memory.
    CombinedPartition {
        /// Number of divisor-attribute clusters.
        divisor_partitions: usize,
        /// Number of quotient-attribute clusters per phase.
        quotient_partitions: usize,
    },
    /// Memory-adaptive hybrid hash-division: all quotient partitions start
    /// memory-resident, victims spill incrementally under pressure and
    /// revive when memory frees up, skewed groups get a hot-group
    /// accumulator, and oversized partitions re-partition recursively (see
    /// [`crate::hybrid`]). Unlike the static rungs, nothing restarts: one
    /// pass over the dividend, spilling only what the actual input needs.
    Adaptive {
        /// Number of quotient-hash partitions (at least 2).
        fanout: usize,
    },
    /// Adaptive hybrid first (its optimistic phase *is* the in-memory
    /// attempt); if the divisor table itself does not fit — the one
    /// pressure quotient-side spilling cannot relieve — divisor
    /// partitioning with the cluster count doubling 2 → 256, then combined
    /// partitioning 4 → 256.
    #[default]
    Auto,
}

/// Execution knobs shared by all algorithms.
#[derive(Debug, Clone)]
pub struct DivisionConfig {
    /// Declare the inputs duplicate-free, skipping the duplicate
    /// elimination steps the aggregate-based algorithms otherwise need.
    /// (Hash-division never needs them.) The Table 4 experiments set this,
    /// matching the paper's duplicate-free workloads.
    pub assume_unique: bool,
    /// Sort memory and fan-in for the sort-based algorithms.
    pub sort: SortConfig,
    /// Hash-table overflow handling for hash-division.
    pub overflow: OverflowPolicy,
    /// Cooperative cancellation token, polled in the per-tuple loops. The
    /// default token never cancels.
    pub cancel: CancelToken,
    /// Per-operator profiling sink (`EXPLAIN ANALYZE`). `None` — the
    /// default — builds exactly the unprofiled plan: no wrapper operators,
    /// no dormant branches in per-tuple loops, zero cost.
    pub profile: Option<ProfileSink>,
    /// Per-query memory budget in bytes for hash-division. `Some(b)` runs
    /// the division against a child pool capped at `b` that still charges
    /// the storage manager's shared pool, so concurrent queries contend
    /// for the global budget while each respects its own. `None` uses the
    /// shared pool directly.
    pub mem_budget: Option<usize>,
    /// The engine the plan is built from, for every algorithm:
    /// [`ExecMode::Batch`] instantiates the same plan from batch
    /// operators — byte-identical quotients and memory accounting,
    /// amortized per-tuple overheads. Under hash-division's overflow
    /// policies the adaptive hybrid reads batches on either engine, and
    /// the static partitioning rungs tuples. The default is
    /// [`ExecMode::Tuple`], the classic path and the paper's counts.
    pub exec: ExecMode,
}

impl Default for DivisionConfig {
    fn default() -> Self {
        DivisionConfig {
            assume_unique: false,
            sort: SortConfig::default(),
            overflow: OverflowPolicy::Auto,
            cancel: CancelToken::none(),
            profile: None,
            mem_budget: None,
            exec: ExecMode::Tuple,
        }
    }
}

/// Drains an operator into a relation, polling `cancel` between tuples.
///
/// `close` runs on **every** exit, including mid-drain errors and
/// cancellation, so operator resources (pinned pages, run files, pool
/// reservations) are never leaked; the drain's error takes precedence
/// over any close error.
pub(crate) fn collect_cancel(mut op: BoxedOp, cancel: CancelToken) -> Result<Relation> {
    fn drain(op: &mut BoxedOp, cancel: CancelToken) -> Result<Relation> {
        op.open()?;
        let mut rel = Relation::empty(op.schema().clone());
        let mut budget = 0u32;
        while let Some(t) = op.next()? {
            cancel.checkpoint(&mut budget)?;
            rel.push(t).map_err(ExecError::from)?;
        }
        Ok(rel)
    }
    let result = drain(&mut op, cancel);
    let closed = op.close();
    let rel = result?;
    closed?;
    Ok(rel)
}

/// Runs `dividend ÷ divisor` with the chosen algorithm over the given
/// storage manager. The quotient tuple order is algorithm-dependent (a
/// bag-equality comparison is the right way to check results).
pub fn divide(
    storage: &StorageRef,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    algorithm: Algorithm,
    config: &DivisionConfig,
) -> Result<Relation> {
    divide_with_report(storage, dividend, divisor, spec, algorithm, config).map(|(rel, _)| rel)
}

/// [`divide`], additionally returning a [`DegradationReport`] describing
/// any graceful degradation the division needed — overflow phases walked,
/// bytes spilled to cluster files, fallback retries. For algorithms other
/// than hash-division and for divisions that fit in memory the report is
/// clean (`degraded == false`).
pub fn divide_with_report(
    storage: &StorageRef,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    algorithm: Algorithm,
    config: &DivisionConfig,
) -> Result<(Relation, DegradationReport)> {
    spec.validate(dividend.schema(), divisor.schema())?;
    let mut report = DegradationReport::new();
    // The root span covers the whole division, including plan construction;
    // operator spans created while it is active become its children.
    let root = config.profile.as_ref().map(|sink| {
        SpanScope::enter(
            sink,
            format!("divide [{}]", algorithm.label()),
            SpanKind::Query,
            Some(storage.clone()),
        )
    });
    // Each family's plan is written once and runs on the engine
    // `config.exec` names.
    let engine = Engine { storage, config };
    let rel = match algorithm {
        Algorithm::Naive => naive_division(&engine, dividend, divisor, spec)?,
        Algorithm::SortAggregation { join } => {
            sort_agg_division(&engine, dividend, divisor, spec, join)?
        }
        Algorithm::HashAggregation { join } => {
            hash_agg_division(&engine, dividend, divisor, spec, join)?
        }
        Algorithm::HashDivision { mode } => {
            hash_division_with_overflow(&engine, dividend, divisor, spec, mode, &mut report)?
        }
    };
    if let (Some(root), Some(sink)) = (root, config.profile.as_ref()) {
        // Fold the degradation story into the root span: every ladder rung
        // walked and the bytes spilled to cluster files along the way.
        for phase in &report.phases {
            root.note_phase(phase.clone());
        }
        sink.add_spill(root.id(), report.spill_bytes);
        root.finish();
    }
    Ok((rel, report))
}

/// [`divide_with_report`], with profiling forced on: runs the division
/// with a fresh [`ProfileSink`] (any sink already present in `config` is
/// replaced) and returns the finished per-operator [`QueryProfile`]
/// alongside the quotient and the degradation report.
pub fn divide_profiled(
    storage: &StorageRef,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    algorithm: Algorithm,
    config: &DivisionConfig,
) -> Result<(Relation, DegradationReport, QueryProfile)> {
    let sink = ProfileSink::new();
    let config = DivisionConfig {
        profile: Some(sink.clone()),
        ..config.clone()
    };
    let (rel, report) = divide_with_report(storage, dividend, divisor, spec, algorithm, &config)?;
    Ok((rel, report, sink.finish()))
}

/// Appends a failure marker to the most recent phase in `report`.
fn mark_exhausted(report: &mut DegradationReport) {
    if let Some(last) = report.phases.last_mut() {
        last.push_str(": memory exhausted");
    }
}

/// Appends the adaptive path's failure reason to its last phase.
fn mark_failed(report: &mut DegradationReport, e: &ExecError) {
    if let Some(last) = report.phases.last_mut() {
        if e.is_recursion_limit() {
            last.push_str(": recursion limit");
        } else {
            last.push_str(": memory exhausted");
        }
    }
}

/// Hash-division with the configured overflow policy.
///
/// Under `Auto` this degrades at runtime: the memory-adaptive hybrid
/// first — its optimistic phase is the in-memory fast path, and quotient
/// pressure is absorbed by incremental spilling — then, if the divisor
/// table itself does not fit (or a quotient group defeats re-partitioning,
/// the recursion limit), divisor partitioning with the cluster count
/// doubling 2 → 256, and finally combined partitioning 4 → 256. Every
/// phase is recorded in `report`.
fn hash_division_with_overflow(
    engine: &Engine,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    report: &mut DegradationReport,
) -> Result<Relation> {
    let (storage, config) = (engine.storage, engine.config);
    let base_pool = storage.borrow().memory();
    // A per-query budget is a child pool: capped at the budget, still
    // charging the shared pool so concurrent queries contend.
    let pool = match config.mem_budget {
        Some(budget) => base_pool.child(budget),
        None => base_pool,
    };
    let cancel = config.cancel;
    let profile = config.profile.clone();
    // Either engine's operator: same layout, same accounting, same bytes.
    let in_memory = |report: &mut DegradationReport| -> Result<Relation> {
        report.note_phase("in-memory");
        let (r, s) = (
            engine.scan_as(dividend, SCAN_DIVIDEND),
            engine.scan_as(divisor, SCAN_DIVISOR),
        );
        engine.collect(engine.hash_division(r, s, spec, mode, pool.clone())?)
    };
    // Each overflow rung gets its own Partition span: the partitioned
    // executions run entirely inside overflow.rs, so the span measures the
    // whole rung (partitioning, phases, collection) as one region.
    let rung = |label: &str| -> Option<SpanScope> {
        config
            .profile
            .as_ref()
            .map(|sink| SpanScope::enter(sink, label, SpanKind::Partition, Some(storage.clone())))
    };
    // The adaptive hybrid: profiled batch scans feed `hybrid` on either
    // engine; it opens its own "hash-division (adaptive)" span and records
    // spills/revives.
    let adaptive = |fanout: usize, report: &mut DegradationReport| -> Result<Relation> {
        let scan = |source: &Source, label| {
            let scan = source.scan_batches(storage);
            maybe_profile_batch(scan, profile.as_ref(), label, SpanKind::Scan, Some(storage))
        };
        hybrid::adaptive_hybrid_report(
            storage,
            &pool,
            scan(dividend, SCAN_DIVIDEND),
            scan(divisor, SCAN_DIVISOR),
            spec,
            mode,
            fanout,
            cancel,
            profile.as_ref(),
            report,
        )
    };
    match config.overflow {
        OverflowPolicy::Fail => in_memory(report),
        OverflowPolicy::Adaptive { fanout } => adaptive(fanout, report),
        OverflowPolicy::QuotientPartition { partitions } => {
            report.note_phase(format!("quotient-partitioned k={partitions}"));
            let _rung = rung(&format!("quotient-partitioned k={partitions}"));
            overflow::quotient_partitioned_report(
                storage,
                &pool,
                dividend.scan(storage),
                divisor.scan(storage),
                spec,
                mode,
                partitions,
                cancel,
                report,
            )
        }
        OverflowPolicy::DivisorPartition { partitions } => {
            report.note_phase(format!("divisor-partitioned k={partitions}"));
            let _rung = rung(&format!("divisor-partitioned k={partitions}"));
            overflow::divisor_partitioned_report(
                storage,
                &pool,
                dividend.scan(storage),
                divisor.scan(storage),
                spec,
                partitions,
                cancel,
                report,
            )
        }
        OverflowPolicy::CombinedPartition {
            divisor_partitions,
            quotient_partitions,
        } => {
            report.note_phase(format!(
                "combined-partitioned dk={divisor_partitions} qk={quotient_partitions}"
            ));
            let _rung = rung(&format!(
                "combined-partitioned dk={divisor_partitions} qk={quotient_partitions}"
            ));
            overflow::combined_partitioned_report(
                storage,
                &pool,
                dividend.scan(storage),
                divisor.scan(storage),
                spec,
                divisor_partitions,
                quotient_partitions,
                cancel,
                report,
            )
        }
        OverflowPolicy::Auto => {
            // Rung 0, batch mode only: the vectorized in-memory attempt.
            // Its row-entry kernels share the tuple path's tables and
            // memory accounting, so exhaustion fires at the same tuple
            // and the ladder below is unchanged.
            if config.exec == ExecMode::Batch {
                match in_memory(report) {
                    Ok(rel) => return Ok(rel),
                    Err(e) if e.is_memory_exhausted() => {
                        mark_exhausted(report);
                        report.note_retry();
                    }
                    Err(e) => return Err(e),
                }
            }
            // Rung 1: the adaptive hybrid. Its optimistic phase is the
            // in-memory attempt; quotient-table pressure is absorbed by
            // incremental spilling, so it only fails when the divisor
            // table itself does not fit or a single quotient group defeats
            // re-partitioning (the recursion limit).
            let mut last = match adaptive(hybrid::DEFAULT_FANOUT, report) {
                Ok(rel) => return Ok(rel),
                Err(e) if e.is_memory_exhausted() || e.is_recursion_limit() => {
                    mark_failed(report, &e);
                    e
                }
                Err(e) => return Err(e),
            };
            // Rung 2: the divisor table does not fit — partition it.
            let mut k = 2usize;
            while k <= 256 {
                report.note_retry();
                report.note_phase(format!("divisor-partitioned k={k}"));
                let attempt = {
                    let _rung = rung(&format!("divisor-partitioned k={k}"));
                    overflow::divisor_partitioned_report(
                        storage,
                        &pool,
                        dividend.scan(storage),
                        divisor.scan(storage),
                        spec,
                        k,
                        cancel,
                        report,
                    )
                };
                match attempt {
                    Ok(rel) => return Ok(rel),
                    Err(e) if e.is_memory_exhausted() => {
                        mark_exhausted(report);
                        last = e;
                        k *= 2;
                    }
                    Err(e) => return Err(e),
                }
            }
            // Rung 3: both tables are too large — combine the strategies.
            let mut k = 4usize;
            while k <= 256 {
                report.note_retry();
                report.note_phase(format!("combined-partitioned dk={k} qk={k}"));
                let attempt = {
                    let _rung = rung(&format!("combined-partitioned dk={k} qk={k}"));
                    overflow::combined_partitioned_report(
                        storage,
                        &pool,
                        dividend.scan(storage),
                        divisor.scan(storage),
                        spec,
                        k,
                        k,
                        cancel,
                        report,
                    )
                };
                match attempt {
                    Ok(rel) => return Ok(rel),
                    Err(e) if e.is_memory_exhausted() => {
                        mark_exhausted(report);
                        last = e;
                        k *= 2;
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(last)
        }
    }
}

/// Convenience: divides two in-memory relations with a private storage
/// manager (the paper's configuration, but an ample memory pool).
///
/// The divisor columns are matched positionally against the *trailing*
/// dividend columns, as in `Transcript(student-id, course-no) ÷
/// Courses(course-no)`; use [`divide`] with an explicit [`DivisionSpec`]
/// for other layouts.
pub fn divide_relations(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: Algorithm,
) -> Result<Relation> {
    let storage = StorageManager::shared(StorageConfig::large());
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema())?;
    divide(
        &storage,
        &Source::from_relation(dividend),
        &Source::from_relation(divisor),
        &spec,
        algorithm,
        &DivisionConfig::default(),
    )
}

/// Loads a relation into a record file and returns it as a source.
pub fn load_source(storage: &StorageRef, relation: &Relation) -> Result<Source> {
    let file = reldiv_exec::scan::load_relation(storage, relation)?;
    Ok(Source::from_file(file, relation.schema().clone()))
}

/// Guard for misuse: algorithms that cannot run meaningfully.
pub fn validate_algorithm_for_inputs(algorithm: Algorithm, assume_unique: bool) -> Result<()> {
    if let Algorithm::HashDivision {
        mode: HashDivisionMode::CounterOnly,
    } = algorithm
    {
        if !assume_unique {
            return Err(ExecError::Plan(
                "CounterOnly hash-division requires duplicate-free inputs \
                 (set assume_unique or use the Standard mode)"
                    .into(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Value;

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn all_algorithms() -> Vec<Algorithm> {
        let mut v = Algorithm::table_columns().to_vec();
        v.push(Algorithm::HashDivision {
            mode: HashDivisionMode::EarlyOut,
        });
        v
    }

    #[test]
    fn every_algorithm_agrees_on_the_running_example() {
        let rows = [[1, 10], [1, 20], [2, 10], [3, 20], [3, 10], [4, 99]];
        let dividend = transcript(&rows);
        let divisor = courses(&[10, 20]);
        for alg in all_algorithms() {
            let q = divide_relations(&dividend, &divisor, alg).unwrap();
            let mut sids: Vec<i64> = q
                .tuples()
                .iter()
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            sids.sort_unstable();
            assert_eq!(sids, vec![1, 3], "{alg:?}");
        }
    }

    #[test]
    fn every_algorithm_agrees_on_empty_divisor() {
        let dividend = transcript(&[[5, 10], [6, 20], [5, 30]]);
        let divisor = courses(&[]);
        for alg in all_algorithms() {
            let q = divide_relations(&dividend, &divisor, alg).unwrap();
            let mut sids: Vec<i64> = q
                .tuples()
                .iter()
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            sids.sort_unstable();
            assert_eq!(sids, vec![5, 6], "{alg:?}");
        }
    }

    #[test]
    fn file_sources_match_memory_sources() {
        let dividend = transcript(&[[1, 10], [1, 20], [2, 10]]);
        let divisor = courses(&[10, 20]);
        let storage = StorageManager::shared(StorageConfig::large());
        let d_src = load_source(&storage, &dividend).unwrap();
        let s_src = load_source(&storage, &divisor).unwrap();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        for alg in all_algorithms() {
            let q = divide(
                &storage,
                &d_src,
                &s_src,
                &spec,
                alg,
                &DivisionConfig::default(),
            )
            .unwrap();
            assert_eq!(q.cardinality(), 1, "{alg:?}");
            assert_eq!(q.tuples()[0], ints(&[1]), "{alg:?}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            all_algorithms().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), all_algorithms().len());
    }

    #[test]
    fn counter_mode_requires_unique_declaration() {
        assert!(validate_algorithm_for_inputs(
            Algorithm::HashDivision {
                mode: HashDivisionMode::CounterOnly
            },
            false
        )
        .is_err());
        assert!(validate_algorithm_for_inputs(
            Algorithm::HashDivision {
                mode: HashDivisionMode::CounterOnly
            },
            true
        )
        .is_ok());
    }

    #[test]
    fn auto_overflow_recovers_from_small_pool() {
        // A pool too small for the quotient table: Auto's adaptive hybrid
        // spills partitions incrementally and still produces the right
        // answer, without restarting the division.
        let mut rows = Vec::new();
        for q in 0..2000 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig {
            data_page_size: 8192,
            run_page_size: 1024,
            buffer_bytes: 1 << 22,
            work_memory_bytes: 64 * 1024,
        });
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, report) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig::default(),
        )
        .unwrap();
        assert_eq!(q.cardinality(), 2000);
        // The runtime degradation is visible in the report: the optimistic
        // phase hit the pool limit and the adaptive phase won.
        assert!(report.degraded);
        assert!(report.retries >= 1);
        assert_eq!(report.phases[0], "in-memory: memory exhausted");
        let winner = report.final_phase().unwrap();
        assert!(winner.starts_with("adaptive-hybrid"), "{winner}");
        assert!(report.partitions_spilled > 0, "victims were evicted");
        assert!(report.spill_bytes > 0, "spilled partitions hit disk");
    }

    /// A workload with duplicates, noise rows, and a mix of complete and
    /// incomplete candidates.
    fn noisy_workload() -> (Relation, Relation) {
        let mut rows = Vec::new();
        for sid in 0..200 {
            for cno in 0..(sid % 5) + 1 {
                rows.push([sid, cno]);
            }
            rows.push([sid, 900 + sid]); // no divisor match
            rows.push([sid, 0]); // duplicate
        }
        (transcript(&rows), courses(&[0, 1, 2, 3]))
    }

    /// `Transcript(sid, course) ÷ Courses(course)` over a string divisor
    /// column: `students` of them take all `courses` courses, every fifth
    /// further one misses some. The dirty form adds noise rows (courses
    /// not in the divisor, sorting before, between and after its values)
    /// and duplicates on both sides, in scrambled order.
    fn string_workload(students: i64, courses: i64, dirty: bool) -> (Relation, Relation) {
        let course = |c: i64| Value::Str(format!("c{c:03}"));
        let mut rows = Vec::new();
        for sid in 0..students + students / 5 {
            let taken = if sid < students {
                courses
            } else {
                sid % courses
            };
            for c in 0..taken {
                rows.push(Tuple::new(vec![Value::Int(sid), course(c)]));
            }
            if dirty {
                for noise in ["a-noise", "c0015x", "z-noise"] {
                    rows.push(Tuple::new(vec![Value::Int(sid), Value::from(noise)]));
                }
                rows.push(Tuple::new(vec![Value::Int(sid), course(0)])); // duplicate
            }
        }
        let n = rows.len();
        let rows = (0..n).map(|i| rows[i * 7919 % n].clone()).collect();
        let copies = if dirty { 2 } else { 1 };
        let divisor = (0..courses * copies).map(|c| Tuple::new(vec![course(c % courses)]));
        let transcript = Schema::new(vec![Field::int("sid"), Field::str("course", 8)]);
        let offered = Schema::new(vec![Field::str("course", 8)]);
        (
            Relation::from_tuples(transcript, rows).unwrap(),
            Relation::from_tuples(offered, divisor.collect()).unwrap(),
        )
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Mem,
        File,
        Columns,
    }

    /// One division on a fresh storage manager, cold: the outcome, the
    /// I/O it cost, and the temporary files and pins it left behind.
    fn run_cold(
        storage: &StorageConfig,
        kind: Kind,
        (dividend, divisor): &(Relation, Relation),
        algorithm: Algorithm,
        config: &DivisionConfig,
    ) -> (
        Result<Relation>,
        reldiv_storage::disk::IoStats,
        (usize, usize),
    ) {
        let storage = StorageManager::shared(storage.clone());
        let source = |rel: &Relation| match kind {
            Kind::Mem => Source::from_relation(rel),
            Kind::File => load_source(&storage, rel).unwrap(),
            Kind::Columns => {
                Source::Columns(Columns::from_tuples(rel.schema().clone(), rel.tuples()).unwrap())
            }
        };
        let (r, s) = (source(dividend), source(divisor));
        storage.borrow_mut().evict_all().unwrap();
        storage.borrow_mut().reset_stats();
        let files = storage.borrow().file_count();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let outcome = divide(&storage, &r, &s, &spec, algorithm, config);
        let sm = storage.borrow();
        let left = (sm.file_count() - files, sm.pinned_frames());
        (outcome, sm.io_stats(), left)
    }

    /// Runs `algorithm` on both engines and holds the batch engine to the
    /// tuple engine's outcome: the same rows in the same order, or the
    /// same exhaustion. Returns both runs' I/O and the common quotient.
    fn both_engines(
        storage: &StorageConfig,
        kind: Kind,
        workload: &(Relation, Relation),
        algorithm: Algorithm,
        config: &DivisionConfig,
        case: &str,
    ) -> ([reldiv_storage::disk::IoStats; 2], Option<Relation>) {
        let [(tuple, tuple_io, tuple_left), (batch, batch_io, batch_left)] =
            [ExecMode::Tuple, ExecMode::Batch].map(|exec| {
                // Hash-division without the ladder: under `Auto` the tuple
                // engine's first rung is the hybrid, whose order differs.
                let config = DivisionConfig {
                    exec,
                    overflow: OverflowPolicy::Fail,
                    ..config.clone()
                };
                run_cold(storage, kind, workload, algorithm, &config)
            });
        assert_eq!((tuple_left, batch_left), ((0, 0), (0, 0)), "{case}");
        let quotient = match (tuple, batch) {
            (Ok(tuple), Ok(batch)) => {
                assert_eq!(tuple, batch, "{case}");
                Some(batch)
            }
            (Err(tuple), Err(batch)) => {
                assert!(tuple.is_memory_exhausted(), "{case}: {tuple}");
                assert!(batch.is_memory_exhausted(), "{case}: {batch}");
                None
            }
            (tuple, batch) => panic!("{case}: tuple {tuple:?}, batch {batch:?}"),
        };
        ([tuple_io, batch_io], quotient)
    }

    fn small_sorts() -> SortConfig {
        SortConfig {
            memory_bytes: 4 * 1024,
            fan_in: 4,
        }
    }

    #[test]
    fn batch_exec_matches_tuple_exec_byte_for_byte() {
        let dirty = string_workload(120, 12, true);
        let clean = string_workload(120, 12, false);
        let empty_divisor = (dirty.0.clone(), Relation::empty(dirty.1.schema().clone()));
        let all_students = |upto: i64| -> Vec<String> {
            let mut ids: Vec<String> = (0..upto).map(|s| format!("({s})")).collect();
            ids.sort();
            ids
        };
        let mut exhausted = 0;
        for algorithm in Algorithm::table_columns() {
            let with_join = !matches!(
                algorithm,
                Algorithm::SortAggregation { join: false }
                    | Algorithm::HashAggregation { join: false }
            );
            for (storage, storage_name) in [
                (StorageConfig::large(), "large"),
                (StorageConfig::paper(), "paper"),
            ] {
                for kind in [Kind::Mem, Kind::File, Kind::Columns] {
                    for sort in [SortConfig::default(), small_sorts()] {
                        for (workload, name, assume_unique, expected) in [
                            (&dirty, "dirty", false, with_join.then(|| all_students(120))),
                            (&clean, "clean", false, Some(all_students(120))),
                            (&clean, "clean", true, Some(all_students(120))),
                            (
                                &empty_divisor,
                                "empty divisor",
                                false,
                                Some(all_students(144)),
                            ),
                        ] {
                            let case = format!(
                                "{algorithm:?} {storage_name} {kind:?} {sort:?} {name} \
                                 unique={assume_unique}"
                            );
                            let config = DivisionConfig {
                                assume_unique,
                                sort,
                                ..Default::default()
                            };
                            let (_, quotient) =
                                both_engines(&storage, kind, workload, algorithm, &config, &case);
                            // The no-join plans on noisy inputs answer
                            // something else, identically; the rest answer
                            // the division.
                            match (quotient, expected) {
                                (Some(quotient), Some(expected)) => {
                                    let got: Vec<String> =
                                        quotient.bag_counts().into_keys().collect();
                                    assert_eq!(got, expected, "{case}");
                                }
                                (None, _) => exhausted += 1,
                                (Some(_), None) => {}
                            }
                        }
                    }
                }
            }
        }
        assert!(
            exhausted > 0,
            "the dirty dividend's duplicate elimination overflows 100 KB"
        );

        // Under `Auto` both engines still agree on the bag.
        let spec = DivisionSpec::trailing_divisor(dirty.0.schema(), dirty.1.schema()).unwrap();
        let storage = StorageManager::shared(StorageConfig::large());
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            let [tuple, batch] = [ExecMode::Tuple, ExecMode::Batch].map(|exec| {
                let config = DivisionConfig {
                    exec,
                    ..Default::default()
                };
                let (r, s) = (
                    Source::from_relation(&dirty.0),
                    Source::from_relation(&dirty.1),
                );
                divide(
                    &storage,
                    &r,
                    &s,
                    &spec,
                    Algorithm::HashDivision { mode },
                    &config,
                )
                .unwrap()
            });
            assert_eq!(tuple.bag_counts(), batch.bag_counts(), "{mode:?}");
        }
    }

    #[test]
    fn batch_exec_transfers_the_pages_tuple_exec_does_on_the_paper_configuration() {
        // 27 000 16-byte records: a 430 KB dividend against the paper's
        // 256 KB pool and 100 KB of work memory, from files, cold.
        let workload = string_workload(1500, 18, false);
        let paper = StorageConfig::paper();
        for algorithm in Algorithm::table_columns() {
            for sort in [SortConfig::default(), small_sorts()] {
                let case = format!("{algorithm:?} {sort:?}");
                let config = DivisionConfig {
                    assume_unique: true,
                    sort,
                    ..Default::default()
                };
                let ([tuple, batch], quotient) =
                    both_engines(&paper, Kind::File, &workload, algorithm, &config, &case);
                assert_eq!(quotient.map(|q| q.cardinality()), Some(1500), "{case}");
                assert!(tuple.reads > 70, "{case}: the dividend is read from disk");
                if matches!(
                    algorithm,
                    Algorithm::HashAggregation { .. } | Algorithm::HashDivision { .. }
                ) {
                    // Scans, and one materialized file: the same transfers.
                    // A batch plan alternates between scanning and
                    // materializing per batch, not per tuple, so it may
                    // seek less.
                    assert_eq!(
                        (tuple.reads, tuple.writes, tuple.bytes),
                        (batch.reads, batch.writes, batch.bytes),
                        "{case}"
                    );
                    assert!(batch.seeks <= tuple.seeks, "{case}");
                    continue;
                }
                // Sorts: the sort itself moves the tuple sort's pages
                // exactly (reldiv-exec tests that), but a batch file scan
                // hands it up to two data pages at once, so a run can be
                // cut one page read later than in the tuple plan — which
                // shifts what the pool still holds when merging starts by
                // a few run pages.
                let near = |a: u64, b: u64| a.abs_diff(b) * 100 <= a.max(b);
                for (t, b) in [
                    (tuple.reads, batch.reads),
                    (tuple.writes, batch.writes),
                    (tuple.bytes, batch.bytes),
                ] {
                    assert!(near(t, b), "{case}: {tuple:?} vs {batch:?}");
                }
                assert!(
                    near(tuple.seeks, batch.seeks) || batch.seeks < tuple.seeks,
                    "{case}: {tuple:?} vs {batch:?}"
                );
            }
        }

        // Where duplicates must go first, hash-based elimination of this
        // dividend exhausts 100 KB on either engine, at the same row.
        let config = DivisionConfig::default();
        for join in [false, true] {
            let algorithm = Algorithm::HashAggregation { join };
            let (_, quotient) = both_engines(
                &paper,
                Kind::File,
                &workload,
                algorithm,
                &config,
                "exhausted",
            );
            assert!(quotient.is_none());
        }
    }

    #[test]
    fn batch_auto_overflow_falls_down_the_ladder() {
        // Same undersized pool as the tuple-path test above: the batch
        // rung exhausts at the same tuple (shared memory accounting), and
        // the ladder below it — the adaptive hybrid first — finishes the
        // job.
        let mut rows = Vec::new();
        for q in 0..2000 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig {
            data_page_size: 8192,
            run_page_size: 1024,
            buffer_bytes: 1 << 22,
            work_memory_bytes: 64 * 1024,
        });
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, report) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig {
                exec: ExecMode::Batch,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(q.cardinality(), 2000);
        assert!(report.degraded);
        assert!(report.retries >= 1);
        assert_eq!(report.phases[0], "in-memory: memory exhausted");
        let winner = report.final_phase().unwrap();
        assert!(winner.starts_with("adaptive-hybrid"), "{winner}");
    }

    #[test]
    fn batch_clean_division_reports_in_memory() {
        let (dividend, divisor) = noisy_workload();
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (_, report) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig {
                exec: ExecMode::Batch,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!report.degraded);
        assert_eq!(report.final_phase().unwrap(), "in-memory");
    }

    #[test]
    fn batch_profiled_run_keeps_the_span_labels() {
        let (dividend, divisor) = noisy_workload();
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, _, profile) = divide_profiled(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig {
                exec: ExecMode::Batch,
                ..Default::default()
            },
        )
        .unwrap();
        let root = &profile.root;
        assert_eq!(root.phases, vec!["in-memory".to_string()]);
        let labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        assert!(
            labels.contains(&"hash-division (in-memory)"),
            "spans: {labels:?}"
        );
        let div = root
            .children
            .iter()
            .find(|c| c.label == "hash-division (in-memory)")
            .unwrap();
        assert_eq!(div.tuples_out, q.cardinality() as u64);
        let scan_labels: Vec<&str> = div.children.iter().map(|c| c.label.as_str()).collect();
        assert!(scan_labels.contains(&"scan dividend"), "{scan_labels:?}");
        assert!(scan_labels.contains(&"scan divisor"), "{scan_labels:?}");
    }

    #[test]
    fn explicit_adaptive_policy_runs_through_divide() {
        let mut rows = Vec::new();
        for q in 0..500 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, report) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig {
                overflow: OverflowPolicy::Adaptive { fanout: 8 },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(q.cardinality(), 500);
        assert!(!report.degraded, "ample memory: clean adaptive run");
        assert_eq!(report.final_phase(), Some("in-memory"));
    }

    #[test]
    fn mem_budget_degrades_division_without_touching_shared_pool_config() {
        // The same workload fits the shared pool but not the per-query
        // budget: the budget alone must force (and survive) degradation.
        let mut rows = Vec::new();
        for q in 0..2000 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, report) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig {
                mem_budget: Some(48 * 1024),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(q.cardinality(), 2000);
        assert!(report.degraded, "the 48 KB budget must bite");
        assert!(report.partitions_spilled > 0);
        // And without the budget the identical division is clean.
        let (_, clean) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig::default(),
        )
        .unwrap();
        assert!(!clean.degraded);
    }

    #[test]
    fn clean_division_reports_no_degradation() {
        let dividend = transcript(&[[1, 1], [1, 2], [2, 1]]);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, report) = divide_with_report(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig::default(),
        )
        .unwrap();
        assert_eq!(q.cardinality(), 1);
        assert!(!report.degraded);
        assert_eq!(report.retries, 0);
        assert_eq!(report.final_phase(), Some("in-memory"));
        assert_eq!(report.spill_bytes, 0);
    }

    #[test]
    fn divide_profiled_builds_a_span_tree_for_every_algorithm() {
        let rows = [[1, 10], [1, 20], [2, 10], [3, 20], [3, 10], [4, 99]];
        let dividend = transcript(&rows);
        let divisor = courses(&[10, 20]);
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        for alg in all_algorithms() {
            let (q, _report, profile) = divide_profiled(
                &storage,
                &Source::from_relation(&dividend),
                &Source::from_relation(&divisor),
                &spec,
                alg,
                &DivisionConfig::default(),
            )
            .unwrap();
            assert_eq!(q.cardinality(), 2, "{alg:?}");
            // Root is the query span; the plan's operators hang below it.
            assert!(
                profile.root.label.starts_with("divide ["),
                "{alg:?}: {}",
                profile.root.label
            );
            assert!(
                profile.root.node_count() >= 3,
                "{alg:?}: want operator spans, got\n{}",
                profile.render()
            );
            // The in-memory path reports its phase on the root span.
            if matches!(alg, Algorithm::HashDivision { .. }) {
                assert_eq!(profile.root.phases, vec!["in-memory".to_owned()]);
            }
        }
    }

    #[test]
    fn profiled_adaptive_overflow_gets_spill_spans() {
        let mut rows = Vec::new();
        for q in 0..2000 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig {
            data_page_size: 8192,
            run_page_size: 1024,
            buffer_bytes: 1 << 22,
            work_memory_bytes: 64 * 1024,
        });
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (q, report, profile) = divide_profiled(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig::default(),
        )
        .unwrap();
        assert_eq!(q.cardinality(), 2000);
        assert!(report.degraded);
        // The adaptive hybrid appears as a HashDivision span under the
        // root, its incremental evictions as nested Spill spans, and the
        // spill bytes land on the root span.
        let hybrid = profile
            .root
            .children
            .iter()
            .find(|c| c.label == "hash-division (adaptive)")
            .expect("adaptive span");
        assert_eq!(hybrid.kind, reldiv_exec::profile::SpanKind::HashDivision);
        fn count_kind(
            n: &reldiv_exec::profile::ProfileNode,
            kind: reldiv_exec::profile::SpanKind,
        ) -> usize {
            usize::from(n.kind == kind)
                + n.children
                    .iter()
                    .map(|c| count_kind(c, kind))
                    .sum::<usize>()
        }
        let spills = count_kind(hybrid, reldiv_exec::profile::SpanKind::Spill);
        assert!(spills > 0, "evictions must be profiled");
        assert_eq!(spills, report.partitions_spilled as usize);
        assert_eq!(profile.root.spill_bytes, report.spill_bytes);
        assert_eq!(profile.root.phases.len(), report.phases.len());
    }

    #[test]
    fn failed_hash_aggregation_with_join_leaves_no_file_or_pin_behind() {
        // The semi-join output is materialized into a temporary file; a
        // division that dies while that file is being written — deadline
        // in the semi-join, unreadable dividend page mid-scan — must
        // delete it and unfix everything.
        let rows: Vec<[i64; 2]> = (0..1000).flat_map(|q| [[q, 1], [q, 2]]).collect();
        let (dividend, divisor) = (transcript(&rows), courses(&[1, 2]));
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let algorithm = Algorithm::HashAggregation { join: true };
        let storage = StorageManager::shared(StorageConfig::paper());
        let r = load_source(&storage, &dividend).unwrap();
        let s = load_source(&storage, &divisor).unwrap();
        let Source::File { file, .. } = &r else {
            unreachable!("load_source returns a file source");
        };
        let third_page = {
            let mut sm = storage.borrow_mut();
            let mut cursor = reldiv_storage::file::ScanCursor::new(*file);
            let mut pages = Vec::new();
            while let Some((rid, _)) = cursor.next(&mut sm).unwrap() {
                if pages.last() != Some(&rid.page.page) {
                    pages.push(rid.page.page);
                }
            }
            sm.evict_all().unwrap();
            pages[2]
        };
        let baseline = storage.borrow().file_count();

        let config = DivisionConfig {
            assume_unique: true,
            ..Default::default()
        };
        let cancelled = DivisionConfig {
            cancel: CancelToken::after(std::time::Duration::ZERO),
            ..config.clone()
        };
        let err = divide(&storage, &r, &s, &spec, algorithm, &cancelled).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(storage.borrow().file_count(), baseline);
        assert_eq!(storage.borrow().pinned_frames(), 0);

        let plan = reldiv_storage::FaultPlan::seeded(7).with_bad_page(third_page);
        storage.borrow_mut().inject_faults(&plan);
        let err = divide(&storage, &r, &s, &spec, algorithm, &config).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Storage(reldiv_storage::StorageError::Permanent { .. })
            ),
            "{err}"
        );
        assert_eq!(storage.borrow().file_count(), baseline);
        assert_eq!(storage.borrow().pinned_frames(), 0);

        // The storage manager is as good as new for the next query.
        storage.borrow_mut().clear_faults();
        let quotient = divide(&storage, &r, &s, &spec, algorithm, &config).unwrap();
        assert_eq!(quotient.cardinality(), 1000);
        assert_eq!(storage.borrow().file_count(), baseline);
    }

    #[test]
    fn expired_deadline_cancels_division() {
        let dividend = transcript(&[[1, 1], [1, 2], [2, 1]]);
        let divisor = courses(&[1, 2]);
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        // Every plan's first blocking operator holds the token, on either
        // engine, whether or not a duplicate elimination comes first.
        for algorithm in Algorithm::table_columns() {
            for exec in [ExecMode::Tuple, ExecMode::Batch] {
                for assume_unique in [false, true] {
                    let config = DivisionConfig {
                        cancel: CancelToken::after(std::time::Duration::ZERO),
                        exec,
                        assume_unique,
                        ..Default::default()
                    };
                    let err = divide(
                        &storage,
                        &Source::from_relation(&dividend),
                        &Source::from_relation(&divisor),
                        &spec,
                        algorithm,
                        &config,
                    )
                    .unwrap_err();
                    assert!(err.is_cancelled(), "{algorithm:?} {exec:?}: {err}");
                    let sm = storage.borrow();
                    assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
                }
            }
        }
    }
}

#[cfg(test)]
mod planner_tests {
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;

    #[test]
    fn recommend_maps_planner_choices_onto_algorithms() {
        // Unrestricted, duplicate-free: hash aggregation without join.
        assert_eq!(
            Algorithm::recommend(100, 100, None, false, true),
            Algorithm::HashAggregation { join: false }
        );
        // Restricted divisor: hash-division.
        assert_eq!(
            Algorithm::recommend(100, 100, None, true, true),
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard
            }
        );
        // Possible duplicates: hash-division ("fast and general").
        assert_eq!(
            Algorithm::recommend(100, 100, None, false, false),
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard
            }
        );
    }

    #[test]
    fn recommended_algorithm_actually_divides() {
        let dividend = Relation::from_tuples(
            Schema::new(vec![Field::int("q"), Field::int("d")]),
            vec![ints(&[1, 5]), ints(&[1, 6]), ints(&[2, 5])],
        )
        .unwrap();
        let divisor = Relation::from_tuples(
            Schema::new(vec![Field::int("d")]),
            vec![ints(&[5]), ints(&[6])],
        )
        .unwrap();
        let alg = Algorithm::recommend(2, 2, Some(3), true, false);
        let q = divide_relations(&dividend, &divisor, alg).unwrap();
        assert_eq!(q.cardinality(), 1);
    }

    #[test]
    fn combined_partition_policy_runs_through_divide() {
        let dividend = Relation::from_tuples(
            Schema::new(vec![Field::int("q"), Field::int("d")]),
            (0..200)
                .flat_map(|q| (0..4).map(move |d| ints(&[q, d])))
                .collect(),
        )
        .unwrap();
        let divisor = Relation::from_tuples(
            Schema::new(vec![Field::int("d")]),
            (0..4).map(|d| ints(&[d])).collect(),
        )
        .unwrap();
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let q = divide(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &DivisionConfig {
                overflow: OverflowPolicy::CombinedPartition {
                    divisor_partitions: 3,
                    quotient_partitions: 4,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(q.cardinality(), 200);
    }
}
