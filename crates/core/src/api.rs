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
use reldiv_exec::batch::{collect_batches, BatchToTuple, BoxedBatchOp, ExecMode};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::op::BoxedOp;
use reldiv_exec::profile::{maybe_profile, ProfileSink, QueryProfile, SpanKind, SpanScope};
use reldiv_exec::scan::{spool, FileScan, MemScan};
use reldiv_exec::sort::SortConfig;
use reldiv_rel::{Columns, Relation, Schema, Tuple};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{FileId, StorageManager, StorageRef};

use crate::batch_div::BatchHashDivision;
use crate::hash_division::{HashDivision, HashDivisionMode};
use crate::hybrid;
use crate::naive::naive_division_plan_profiled;
use crate::overflow;
use crate::report::DegradationReport;
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
    /// Execution path for hash-division's in-memory case.
    /// [`ExecMode::Batch`] runs the vectorized operator
    /// ([`crate::batch_div::BatchHashDivision`]) — byte-identical
    /// quotients and memory accounting, amortized per-tuple overheads.
    /// The spilling overflow rungs always run tuple-at-a-time. The
    /// default is [`ExecMode::Tuple`], the classic path.
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
fn collect_cancel(mut op: BoxedOp, cancel: CancelToken) -> Result<Relation> {
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
    let rel = match algorithm {
        Algorithm::Naive => {
            let plan = naive_division_plan_profiled(
                storage.clone(),
                dividend.scan(storage),
                divisor.scan(storage),
                spec.clone(),
                config.sort,
                config.profile.as_ref(),
            )?;
            collect_cancel(plan, config.cancel)?
        }
        Algorithm::SortAggregation { join } => {
            crate::sort_agg::sort_agg_division(storage, dividend, divisor, spec, join, config)?
        }
        Algorithm::HashAggregation { join } => {
            crate::hash_agg::hash_agg_division(storage, dividend, divisor, spec, join, config)?
        }
        Algorithm::HashDivision { mode } => hash_division_with_overflow(
            storage,
            dividend,
            divisor,
            spec,
            mode,
            config,
            &mut report,
        )?,
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
    storage: &StorageRef,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    config: &DivisionConfig,
    report: &mut DegradationReport,
) -> Result<Relation> {
    let base_pool = storage.borrow().memory();
    // A per-query budget is a child pool: capped at the budget, still
    // charging the shared pool so concurrent queries contend.
    let pool = match config.mem_budget {
        Some(budget) => base_pool.child(budget),
        None => base_pool,
    };
    let cancel = config.cancel;
    let profile = config.profile.clone();
    let in_memory = |report: &mut DegradationReport| -> Result<Relation> {
        report.note_phase("in-memory");
        if config.exec == ExecMode::Batch {
            // The vectorized path: same span labels, same hash-table
            // layout, same memory accounting — byte-identical output.
            let dividend_scan = maybe_profile_batch(
                dividend.scan_batches(storage),
                profile.as_ref(),
                "scan dividend",
                SpanKind::Scan,
                Some(storage),
            );
            let divisor_scan = maybe_profile_batch(
                divisor.scan_batches(storage),
                profile.as_ref(),
                "scan divisor",
                SpanKind::Scan,
                Some(storage),
            );
            let mut op = BatchHashDivision::new(
                dividend_scan,
                divisor_scan,
                spec.clone(),
                mode,
                pool.clone(),
            )?;
            op.set_cancel(cancel);
            let op = maybe_profile_batch(
                Box::new(op),
                profile.as_ref(),
                "hash-division (in-memory)",
                SpanKind::HashDivision,
                Some(storage),
            );
            return collect_batches(op, cancel);
        }
        let dividend_scan = maybe_profile(
            dividend.scan(storage),
            profile.as_ref(),
            "scan dividend",
            SpanKind::Scan,
            Some(storage),
        );
        let divisor_scan = maybe_profile(
            divisor.scan(storage),
            profile.as_ref(),
            "scan divisor",
            SpanKind::Scan,
            Some(storage),
        );
        let mut op = HashDivision::new(
            dividend_scan,
            divisor_scan,
            spec.clone(),
            mode,
            pool.clone(),
        )?;
        op.set_cancel(cancel);
        let op = maybe_profile(
            Box::new(op),
            profile.as_ref(),
            "hash-division (in-memory)",
            SpanKind::HashDivision,
            Some(storage),
        );
        collect_cancel(op, cancel)
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
    // The adaptive hybrid: profiled scans feed `hybrid`, which opens its
    // own "hash-division (adaptive)" span and records spills/revives.
    let adaptive = |fanout: usize, report: &mut DegradationReport| -> Result<Relation> {
        let dividend_scan = maybe_profile(
            dividend.scan(storage),
            profile.as_ref(),
            "scan dividend",
            SpanKind::Scan,
            Some(storage),
        );
        let divisor_scan = maybe_profile(
            divisor.scan(storage),
            profile.as_ref(),
            "scan divisor",
            SpanKind::Scan,
            Some(storage),
        );
        hybrid::adaptive_hybrid_report(
            storage,
            &pool,
            dividend_scan,
            divisor_scan,
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

/// Materializes an operator's output into a temporary record file,
/// returning its file id and schema.
///
/// The aggregate-with-join plans use this between the semi-join and the
/// aggregation: the paper's cost model charges the dividend scan twice in
/// those plans (`r·SIO` appears in both the semi-join and the aggregation
/// terms), which corresponds to a materialized intermediate. Small
/// intermediates stay in the buffer pool and cost no transfers.
///
/// The caller owns the file and must `delete_file` it when done.
pub fn materialize(storage: &StorageRef, mut op: BoxedOp) -> Result<(FileId, Schema)> {
    let schema = op.schema().clone();
    let codec = reldiv_rel::RecordCodec::new(schema.clone());
    // `close` runs on every exit — a mid-drain encode or append failure
    // must not leak what the plan holds (pinned pages, run files) — and
    // no failure leaves the file behind.
    let spooled = op
        .open()
        .and_then(|()| spool(storage, StorageManager::DATA_DISK, &codec, || op.next()));
    let closed = op.close();
    let file = spooled?;
    if let Err(e) = closed {
        storage.borrow_mut().delete_file(file)?;
        return Err(e);
    }
    Ok((file, schema))
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
    /// incomplete candidates — enough structure to notice any divergence
    /// between the execution paths.
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

    #[test]
    fn batch_exec_matches_tuple_exec_byte_for_byte() {
        let (dividend, divisor) = noisy_workload();
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            for overflow in [OverflowPolicy::Fail, OverflowPolicy::Auto] {
                let run = |exec| {
                    divide(
                        &storage,
                        &Source::from_relation(&dividend),
                        &Source::from_relation(&divisor),
                        &spec,
                        Algorithm::HashDivision { mode },
                        &DivisionConfig {
                            overflow,
                            exec,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                };
                let tuple = run(ExecMode::Tuple);
                let batch = run(ExecMode::Batch);
                if overflow == OverflowPolicy::Fail {
                    // Both paths run the in-memory operator: identical
                    // hash kernels give identical insertion order, so
                    // ordered equality, not just bag equality.
                    assert_eq!(tuple, batch, "{mode:?} {overflow:?}");
                } else {
                    // Under Auto the tuple path's first rung is the
                    // adaptive hybrid, whose partitioned emission order
                    // legitimately differs; `divide` documents quotient
                    // order as algorithm-dependent.
                    assert_eq!(
                        tuple.bag_counts(),
                        batch.bag_counts(),
                        "{mode:?} {overflow:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_auto_overflow_falls_down_the_ladder() {
        // Same undersized pool as the tuple-path test above: the batch
        // rung exhausts at the same tuple (shared memory accounting), and
        // the unchanged tuple-path ladder finishes the job.
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
        let config = DivisionConfig {
            cancel: CancelToken::after(std::time::Duration::ZERO),
            ..Default::default()
        };
        for algorithm in [
            Algorithm::Naive,
            Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
        ] {
            let err = divide(
                &storage,
                &Source::from_relation(&dividend),
                &Source::from_relation(&divisor),
                &spec,
                algorithm,
                &config,
            )
            .unwrap_err();
            assert!(err.is_cancelled(), "{algorithm:?}: {err}");
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
