//! The engine-level division API.
//!
//! [`divide`] runs any of the four algorithms over [`Source`]s — relations
//! stored in record files of a [`StorageManager`] or held in memory — and
//! returns the quotient relation. [`divide_relations`] is the convenience
//! wrapper used by examples and tests: it provisions a private storage
//! manager with the paper's configuration.

use reldiv_exec::batch::scan::{BatchColumnsScan, BatchFileScan};
use reldiv_exec::batch::{BatchToTuple, BoxedBatchOp, ExecMode};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::op::BoxedOp;
use reldiv_exec::profile::{ProfileSink, QueryProfile, SpanKind, SpanScope};
use reldiv_rel::{Columns, Relation, Schema};
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
    /// A relation held in memory as shared columns — an in-memory
    /// relation's form, the service catalog's, and what a plan's
    /// materialized intermediates become. Its scans hand out the stored
    /// batches; the payload is `Send + Sync`: one copy serves every worker
    /// thread.
    Columns(Columns),
}

impl Source {
    /// Wraps an in-memory relation: its rows as columns, built once for
    /// every scan.
    pub fn from_relation(relation: &Relation) -> Source {
        Source::Columns(Columns::from_relation(relation))
    }

    /// Wraps a record file.
    pub fn from_file(file: FileId, schema: Schema) -> Source {
        Source::File { file, schema }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Source::File { schema, .. } => schema,
            Source::Columns(columns) => columns.schema(),
        }
    }

    /// Opens a fresh tuple-at-a-time scan over the relation: its batch
    /// scan, bridged.
    pub fn scan(&self, storage: &StorageRef) -> BoxedOp {
        Box::new(BatchToTuple::new(self.scan_batches(storage)))
    }

    /// Opens a fresh batch scan over the relation: a record file is
    /// decoded page by page straight into columns; shared columns are
    /// handed out batch by batch, with no I/O.
    pub fn scan_batches(&self, storage: &StorageRef) -> BoxedBatchOp {
        match self {
            Source::Columns(columns) => Box::new(BatchColumnsScan::new(columns.clone())),
            Source::File { file, schema } => {
                Box::new(BatchFileScan::new(storage.clone(), *file, schema.clone()))
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
    /// Memory-adaptive hybrid hash-division, quotient partitioning done
    /// dynamically: all quotient partitions start memory-resident, victims
    /// spill incrementally under pressure and revive when memory frees up,
    /// skewed groups get a hot-group accumulator, and oversized partitions
    /// re-partition recursively (see [`crate::hybrid`]). Nothing restarts:
    /// one pass over the dividend, spilling only what the input needs.
    Adaptive,
    /// Partition both inputs on the divisor attributes; each phase runs
    /// the adaptive hybrid, and a collection phase divides the union of
    /// the quotient clusters by the phase numbers (see
    /// [`crate::overflow`]).
    DivisorPartition {
        /// Number of clusters.
        partitions: usize,
    },
    /// A ladder whose first rung the query's budget picks. A query with
    /// no `mem_budget` tries the in-memory operator first and falls to
    /// the adaptive hybrid only if the pool runs out; a budgeted query
    /// starts in the adaptive hybrid, whose optimistic phase *is* the
    /// in-memory attempt. If the divisor table itself does not fit — the
    /// one pressure quotient-side spilling cannot relieve — or one group
    /// defeats re-partitioning, divisor partitioning follows with the
    /// cluster count doubling 2 → 256.
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
    /// Hash-table overflow handling for hash-division.
    pub overflow: OverflowPolicy,
    /// Cooperative cancellation token, polled in the per-tuple loops. The
    /// default token never cancels.
    pub cancel: CancelToken,
    /// Per-operator profiling sink (`EXPLAIN ANALYZE`). `None` — the
    /// default — builds exactly the unprofiled plan: no wrapper operators,
    /// no dormant branches in per-tuple loops, zero cost.
    pub profile: Option<ProfileSink>,
    /// Per-query memory budget in bytes. `Some(b)` caps every sort's work
    /// memory at `b`, and runs hash-division against a child pool capped at
    /// `b` that still charges the storage manager's shared pool, so
    /// concurrent queries contend for the global budget while each respects
    /// its own. `None` uses the storage's work memory and shared pool.
    pub mem_budget: Option<usize>,
    /// Selects nothing: every plan is built from batch operators. Kept
    /// for the benchmark adapter, which still names it.
    pub exec: ExecMode,
}

impl Default for DivisionConfig {
    fn default() -> Self {
        DivisionConfig {
            assume_unique: false,
            overflow: OverflowPolicy::Auto,
            cancel: CancelToken::none(),
            profile: None,
            mem_budget: None,
            exec: ExecMode::Batch,
        }
    }
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

/// Appends a rung's failure reason to its last phase.
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
/// Under `Auto` this degrades at runtime: an unbudgeted query tries the
/// in-memory operator first; then (a budgeted query starts here) the
/// memory-adaptive hybrid — its optimistic phase is the in-memory attempt,
/// and quotient pressure is absorbed by incremental spilling — then, if the
/// divisor table itself does not fit (or a quotient group defeats
/// re-partitioning, the recursion limit), divisor partitioning with the
/// cluster count doubling 2 → 256, every phase run by the hybrid. Every
/// rung is recorded in `report`.
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
    let in_memory = |report: &mut DegradationReport| -> Result<Relation> {
        report.note_phase("in-memory");
        let (r, s) = (
            engine.scan_as(dividend, SCAN_DIVIDEND),
            engine.scan_as(divisor, SCAN_DIVISOR),
        );
        engine.collect(engine.hash_division(r, s, spec, mode, pool.clone())?)
    };
    // The adaptive hybrid opens its own "hash-division (adaptive)" span
    // and records spills/revives.
    let adaptive = |report: &mut DegradationReport| -> Result<Relation> {
        hybrid::adaptive_hybrid_report(
            storage,
            &pool,
            engine.scan_as(dividend, SCAN_DIVIDEND),
            engine.scan_as(divisor, SCAN_DIVISOR),
            spec,
            mode,
            hybrid::DEFAULT_FANOUT,
            cancel,
            config.profile.as_ref(),
            report,
        )
    };
    // Divisor partitioning gets a Partition span: it runs entirely inside
    // overflow.rs, so the span measures the whole rung (partitioning,
    // phases, collection) as one region.
    let divisor_partitioned = |k: usize, report: &mut DegradationReport| -> Result<Relation> {
        let label = format!("divisor-partitioned k={k}");
        let _rung = config
            .profile
            .as_ref()
            .map(|sink| SpanScope::enter(sink, &label, SpanKind::Partition, Some(storage.clone())));
        report.note_phase(label);
        overflow::divisor_partitioned_report(
            storage,
            &pool,
            engine.scan_as(dividend, SCAN_DIVIDEND),
            engine.scan_as(divisor, SCAN_DIVISOR),
            spec,
            k,
            cancel,
            report,
        )
    };
    match config.overflow {
        OverflowPolicy::Fail => in_memory(report),
        OverflowPolicy::Adaptive => adaptive(report),
        OverflowPolicy::DivisorPartition { partitions } => divisor_partitioned(partitions, report),
        OverflowPolicy::Auto => {
            // Rung 0, unbudgeted queries only: the in-memory operator. A
            // budget says the tables may not fit, and the hybrid's
            // optimistic phase is the same attempt with a way out.
            if config.mem_budget.is_none() {
                match in_memory(report) {
                    Ok(rel) => return Ok(rel),
                    Err(e) if e.is_memory_exhausted() => {
                        mark_failed(report, &e);
                        report.note_retry();
                    }
                    Err(e) => return Err(e),
                }
            }
            // Rung 1: the adaptive hybrid. Its optimistic phase is the
            // in-memory attempt; quotient-table pressure is absorbed by
            // incremental spilling, so it only fails when the divisor
            // table itself does not fit or a single quotient group defeats
            // re-partitioning (the recursion limit). Then the divisor is
            // partitioned, into ever more clusters: each phase holds a
            // smaller divisor table and narrower bit maps.
            let mut attempt = adaptive(report);
            let mut k = 2usize;
            while let Err(e) = &attempt {
                if !(e.is_memory_exhausted() || e.is_recursion_limit()) {
                    break;
                }
                mark_failed(report, e);
                if k > 256 {
                    break;
                }
                report.note_retry();
                attempt = divisor_partitioned(k, report);
                k *= 2;
            }
            attempt
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
    use reldiv_rel::{Tuple, Value};

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

    /// One division on a fresh storage manager, cold, under `Fail`
    /// (hash-division without the ladder): it must leave no file and no
    /// pin behind. Returns the quotient — `None` if the pool ran out, the
    /// one failure these inputs may meet — and the I/O it cost.
    fn run_clean(
        storage: &StorageConfig,
        kind: Kind,
        workload: &(Relation, Relation),
        algorithm: Algorithm,
        config: &DivisionConfig,
        case: &str,
    ) -> (Option<Relation>, reldiv_storage::disk::IoStats) {
        let config = DivisionConfig {
            overflow: OverflowPolicy::Fail,
            ..config.clone()
        };
        let (outcome, io, left) = run_cold(storage, kind, workload, algorithm, &config);
        assert_eq!(left, (0, 0), "{case}");
        match outcome {
            Ok(quotient) => (Some(quotient), io),
            Err(e) => {
                assert!(e.is_memory_exhausted(), "{case}: {e}");
                (None, io)
            }
        }
    }

    /// A budget that caps every sort's space at 4 KB.
    const SMALL_BUDGET: Option<usize> = Some(4 * 1024);

    #[test]
    fn every_family_answers_alike_from_every_source_kind() {
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
                for mem_budget in [None, SMALL_BUDGET] {
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
                            "{algorithm:?} {storage_name} {mem_budget:?} {name} unique={assume_unique}"
                        );
                        let config = DivisionConfig {
                            assume_unique,
                            mem_budget,
                            ..Default::default()
                        };
                        // The same rows in the same order, or the same
                        // exhaustion, whatever the inputs are stored as.
                        let [mem, file, columns] =
                            [Kind::Mem, Kind::File, Kind::Columns].map(|kind| {
                                let case = format!("{case} {kind:?}");
                                run_clean(&storage, kind, workload, algorithm, &config, &case).0
                            });
                        assert_eq!(mem, file, "{case}");
                        assert_eq!(mem, columns, "{case}");
                        // The no-join plans on noisy inputs answer
                        // something else; the rest answer the division.
                        match (mem, expected) {
                            (Some(quotient), Some(expected)) => {
                                let got: Vec<String> = quotient.bag_counts().into_keys().collect();
                                assert_eq!(got, expected, "{case}");
                            }
                            (None, _) => exhausted += 1,
                            (Some(_), None) => {}
                        }
                    }
                }
            }
        }
        assert!(
            exhausted > 0,
            "the dirty dividend's duplicate elimination overflows 100 KB"
        );

        // Under `Auto` too.
        let spec = DivisionSpec::trailing_divisor(dirty.0.schema(), dirty.1.schema()).unwrap();
        let storage = StorageManager::shared(StorageConfig::large());
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            let (r, s) = (
                Source::from_relation(&dirty.0),
                Source::from_relation(&dirty.1),
            );
            let algorithm = Algorithm::HashDivision { mode };
            let config = DivisionConfig::default();
            let quotient = divide(&storage, &r, &s, &spec, algorithm, &config).unwrap();
            let got: Vec<String> = quotient.bag_counts().into_keys().collect();
            assert_eq!(got, all_students(120), "{mode:?}");
        }
    }

    #[test]
    fn batch_exec_transfers_the_pages_tuple_exec_does_on_the_paper_configuration() {
        // 27 000 16-byte records: a 430 KB dividend against the paper's
        // 256 KB pool and 100 KB of work memory, from files, cold:
        // `(reads, writes, seeks, bytes)` without a budget and under a
        // 4 KB one. Without, the transfers are those the tuple-at-a-time
        // engine made, recorded before it was retired; under the budget,
        // those `BatchSort` makes sorting in 4 KB at the default fan-in
        // (`None`: the budget exhausts hash-division's tables).
        let recorded = [
            (
                Algorithm::Naive,
                [
                    Some((639, 601, 707, 1_800_192)),
                    Some((1353, 1279, 1861, 3_225_600)),
                ],
            ),
            (
                Algorithm::SortAggregation { join: false },
                [
                    Some((656, 616, 729, 1_832_960)),
                    Some((1214, 1172, 1675, 2_973_696)),
                ],
            ),
            (
                Algorithm::SortAggregation { join: true },
                [
                    Some((1255, 1253, 1510, 3_105_792)),
                    Some((2497, 2455, 3781, 5_608_448)),
                ],
            ),
            (
                Algorithm::HashAggregation { join: false },
                [Some((74, 0, 2, 606_208)); 2],
            ),
            (
                Algorithm::HashAggregation { join: true },
                [Some((147, 73, 148, 1_802_240)); 2],
            ),
            (
                Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                },
                [Some((74, 0, 2, 606_208)), None],
            ),
        ];
        let workload = string_workload(1500, 18, false);
        let paper = StorageConfig::paper();
        for (algorithm, per_budget) in recorded {
            for (mem_budget, want) in [None, SMALL_BUDGET].into_iter().zip(per_budget) {
                let case = format!("{algorithm:?} {mem_budget:?}");
                let config = DivisionConfig {
                    assume_unique: true,
                    mem_budget,
                    ..Default::default()
                };
                let (quotient, io) =
                    run_clean(&paper, Kind::File, &workload, algorithm, &config, &case);
                let got = (io.reads, io.writes, io.seeks, io.bytes);
                assert_eq!(
                    quotient.map(|q| q.cardinality()),
                    want.map(|_| 1500),
                    "{case}"
                );
                if want.is_some() {
                    assert_eq!(Some(got), want, "{case}");
                }
            }
        }

        // Where duplicates must go first, hash-based elimination of this
        // dividend exhausts 100 KB.
        let config = DivisionConfig::default();
        for join in [false, true] {
            let algorithm = Algorithm::HashAggregation { join };
            let case = format!("{algorithm:?} exhausted");
            let (quotient, _) = run_clean(&paper, Kind::File, &workload, algorithm, &config, &case);
            assert!(quotient.is_none(), "{case}");
        }
    }

    #[test]
    fn batch_auto_overflow_falls_down_the_ladder() {
        // Under `Auto` an unbudgeted query tries the in-memory operator
        // first; on this undersized pool it runs out, and the adaptive
        // hybrid — whose optimistic phase is the same attempt — finishes
        // the job. A budgeted query starts in the hybrid: the same phases,
        // less the first.
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
        let run = |mem_budget| {
            let (q, report) = divide_with_report(
                &storage,
                &Source::from_relation(&dividend),
                &Source::from_relation(&divisor),
                &spec,
                Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                },
                &DivisionConfig {
                    mem_budget,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(q.cardinality(), 2000);
            report
        };
        let unbudgeted = run(None);
        assert_eq!(unbudgeted.phases[0], "in-memory: memory exhausted");
        let winner = unbudgeted.final_phase().unwrap();
        assert!(winner.starts_with("adaptive-hybrid"), "{winner}");
        let budgeted = run(Some(1 << 22));
        assert_eq!(budgeted.phases, unbudgeted.phases[1..]);
        assert_eq!(budgeted.retries + 1, unbudgeted.retries);
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
            &DivisionConfig::default(),
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
            &DivisionConfig::default(),
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
                overflow: OverflowPolicy::Adaptive,
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

        // The budget bounds a sort's space too. On the paper's storage
        // the sorting families spool more run pages past the 256 KB pool
        // in 4 KB than in the 100 KB of work memory; with 64 MB and no
        // budget they write no page. Every way they answer the division.
        let workload = string_workload(1500, 18, true);
        let mut want: Vec<String> = (0..1500).map(|sid| format!("({sid})")).collect();
        want.sort();
        for algorithm in [Algorithm::Naive, Algorithm::SortAggregation { join: true }] {
            let writes = |storage: StorageConfig, mem_budget| {
                let case = format!("{algorithm:?} {mem_budget:?}");
                let config = DivisionConfig {
                    mem_budget,
                    ..Default::default()
                };
                let (q, io, left) = run_cold(&storage, Kind::Mem, &workload, algorithm, &config);
                assert_eq!(left, (0, 0), "{case}");
                let got: Vec<String> = q.unwrap().bag_counts().into_keys().collect();
                assert_eq!(got, want, "{case}");
                io.writes
            };
            let budgeted = writes(StorageConfig::paper(), SMALL_BUDGET);
            let unbudgeted = writes(StorageConfig::paper(), None);
            assert!(budgeted > unbudgeted, "{algorithm:?}: {budgeted} pages");
            assert_eq!(writes(StorageConfig::large(), None), 0, "{algorithm:?}");
        }
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
        // Every plan's first blocking operator holds the token, whether or
        // not a duplicate elimination comes first.
        for algorithm in Algorithm::table_columns() {
            for assume_unique in [false, true] {
                let config = DivisionConfig {
                    cancel: CancelToken::after(std::time::Duration::ZERO),
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
                assert!(err.is_cancelled(), "{algorithm:?}: {err}");
                let sm = storage.borrow();
                assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
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
}
