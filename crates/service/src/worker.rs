//! The worker pool: each worker thread owns a private storage manager.
//!
//! `reldiv-storage`'s `StorageRef` is single-threaded by design (the
//! paper's system ran one process per disk), so the pool gives every
//! worker its own [`StorageManager`] — for spills, sort runs and the base
//! relations that do not fit in memory.
//!
//! ## When a worker materializes
//!
//! The catalog holds a relation as shared columns, and a worker scans
//! them in place whenever the relation's records (`cardinality ×
//! record_width`) fit its buffer pool (`StorageConfig::buffer_bytes`):
//! no file is written, no page is transferred, and every worker reads
//! the same copy. The paper goes to disk *when the tables overflow*
//! (Section 3.4); so does a worker. A relation larger than the pool —
//! the paper's 256 KB configuration, the chaos soak's 24 KB one — is
//! spooled from the columns into a *worker-local* record file on the
//! first miss that reads it, so page I/O, eviction and the fault plan
//! reach exactly the base relations the configuration says live on disk.
//! This is a property of the input against the existing configuration,
//! not a setting. Such a file lives as long as the relation version it
//! was written from: before serving a source, a worker deletes the files
//! of versions that were replaced or dropped and that no query pins any
//! more, so it never holds more than one file per catalog name and none
//! for a name that is gone.
//!
//! ## Robustness
//!
//! Workers are the service's blast-radius boundary:
//!
//! * **Panic isolation** — a query that panics is caught with
//!   [`std::panic::catch_unwind`]; the client gets
//!   [`ServiceError::Internal`] and the worker rebuilds its storage state
//!   from scratch before serving the next job, so one poisoned query
//!   cannot take the pool down.
//! * **Deadlines** — an admitted job carries an optional deadline; the
//!   division runs under a cooperative
//!   [`CancelToken`](reldiv_exec::CancelToken) and a query whose deadline
//!   elapsed while queued is refused without executing at all.
//! * **Fault injection** — a [`FaultPlan`](reldiv_storage::FaultPlan) in
//!   the service config is installed (independently reseeded) on every
//!   worker's simulated disks; transient faults absorbed by the buffer
//!   manager's retries are rolled up into the `io_retries` metric.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use reldiv_core::api::Source;
use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{Algorithm, DivisionSpec};
use reldiv_exec::batch::scan::{materialize, BatchColumnsScan};
use reldiv_exec::{CancelToken, ExecError};
use reldiv_parallel::{parallel_divide, ClusterConfig, Distribution, RunReport};
use reldiv_rel::counters::OpScope;
use reldiv_storage::{FileId, StorageManager, StorageRef};

use reldiv_exec::profile::ProfileSink;
use reldiv_plan::{Bound, BoundNode, ExecOptions, PlanError, PlanOutput, SourceProvider};

use crate::catalog::RelationVersion;
use crate::error::{Result, ServiceError};
use crate::metrics::ServiceMetrics;
use crate::proto::PlanReply;
use crate::service::ServiceConfig;

/// The one algorithm the in-process parallel machine implements: every
/// node runs hash division.
pub(crate) const MACHINE_ALGORITHM: Algorithm = Algorithm::HashDivision {
    mode: HashDivisionMode::Standard,
};

/// One admitted query — a plan bound against the catalog versions it
/// pinned — travelling from the front end to a worker. `mem_budget` and
/// `distribute` are the two `Divide` request fields plan text cannot
/// spell.
pub(crate) struct Job {
    pub bound: Bound,
    pub pinned: Vec<Arc<RelationVersion>>,
    pub deadline: Option<Instant>,
    pub profile: bool,
    pub honor_hints: bool,
    pub mem_budget: Option<usize>,
    pub distribute: Option<Distribution>,
    pub reply: Sender<Result<PlanReply>>,
}

/// Worker-local state: a private storage manager plus the record files it
/// has materialized for relations larger than its pool, keyed by catalog
/// name; each lives as long as the relation version it was written from.
struct WorkerState {
    storage: StorageRef,
    files: HashMap<String, (Weak<RelationVersion>, FileId)>,
    fail_point: Option<String>,
    /// The service-wide abort flag (`Service::abort`): every execution's
    /// cancel token carries it, so a hard kill cancels in-flight queries
    /// at their next checkpoint instead of letting them keep writing
    /// spill pages.
    abort: &'static AtomicBool,
}

impl WorkerState {
    fn new(config: &ServiceConfig, index: usize, abort: &'static AtomicBool) -> WorkerState {
        let storage = StorageManager::shared(config.storage.clone());
        if let Some(plan) = &config.storage_faults {
            // Derive an independent fault stream per worker so the pool
            // does not fail in lockstep.
            let seed = plan
                .seed()
                .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            storage.borrow_mut().inject_faults(&plan.reseeded(seed));
        }
        WorkerState {
            storage,
            files: HashMap::new(),
            fail_point: config.fail_point_relation.clone(),
            abort,
        }
    }

    /// Returns a [`Source`] for `relation`: the catalog's columns when
    /// its records fit this worker's buffer pool, otherwise a local record
    /// file, materialized on first use of this version (deleting the file
    /// of any other version of the same name).
    fn source_for(&mut self, relation: &Arc<RelationVersion>) -> Result<Source> {
        self.sweep_files()?;
        let schema = relation.schema();
        let bytes = relation.cardinality().saturating_mul(schema.record_width());
        if bytes <= self.storage.borrow().config().buffer_bytes {
            return Ok(Source::Columns(relation.rows.clone()));
        }
        if let Some((held, file)) = self.files.get(&relation.name) {
            if std::ptr::eq(held.as_ptr(), Arc::as_ptr(relation)) {
                return Ok(Source::from_file(*file, schema.clone()));
            }
            // Another version, still pinned by a query elsewhere.
            self.delete_file_of(&relation.name)?;
        }
        let scan = Box::new(BatchColumnsScan::new(relation.rows.clone()));
        let file = materialize(&self.storage, scan, CancelToken::none()).map_err(|e| match e {
            ExecError::Rel(e) => ServiceError::BadRequest(format!("tuple violates schema: {e}")),
            e => ServiceError::Internal(format!("writing record file: {e}")),
        })?;
        self.files
            .insert(relation.name.clone(), (Arc::downgrade(relation), file));
        Ok(Source::from_file(file, schema.clone()))
    }

    /// Deletes the files of versions nobody holds any more: replaced or
    /// dropped from the catalog and pinned by no query. Without it a name
    /// that is never queried again — a dropped relation, a coordinator's
    /// stamped temporary — would keep its file for the worker's lifetime.
    fn sweep_files(&mut self) -> Result<()> {
        let dead: Vec<String> = self
            .files
            .iter()
            .filter(|(_, (held, _))| held.strong_count() == 0)
            .map(|(name, _)| name.clone())
            .collect();
        dead.iter().try_for_each(|name| self.delete_file_of(name))
    }

    fn delete_file_of(&mut self, name: &str) -> Result<()> {
        if let Some((_, file)) = self.files.remove(name) {
            self.storage
                .borrow_mut()
                .delete_file(file)
                .map_err(|e| ServiceError::Internal(format!("dropping stale file: {e}")))?;
        }
        Ok(())
    }

    fn execute(&mut self, job: &Job, metrics: &ServiceMetrics) -> Result<PlanReply> {
        if let Some(fp) = &self.fail_point {
            if job.pinned.iter().any(|r| r.name == *fp) {
                // Chaos-testing hook: prove panic isolation end-to-end.
                panic!("fail point hit: query reads relation {fp:?}");
            }
        }
        let cancel = match job.deadline {
            Some(deadline) => {
                if Instant::now() >= deadline {
                    // The deadline elapsed while the job sat in the
                    // submission queue: refuse without executing.
                    return Err(ServiceError::DeadlineExceeded);
                }
                CancelToken::at(deadline)
            }
            None => CancelToken::none(),
        }
        .with_abort(self.abort);
        if self.abort.load(Ordering::Relaxed) {
            // Killed while the job sat in the queue: refuse outright.
            return Err(ServiceError::ShuttingDown);
        }
        // A distributed run reports the machine's own profile instead.
        let sink = (job.profile && job.distribute.is_none()).then(ProfileSink::new);
        let opts = ExecOptions {
            storage: self.storage.clone(),
            cancel,
            profile: sink.clone(),
            honor_restricted_hint: job.honor_hints,
            mem_budget: job.mem_budget,
        };
        let retries_before = {
            let s = self.storage.borrow().buffer_stats();
            s.read_retries + s.write_retries
        };
        // Scope the abstract-operation counters to this request: pooled
        // threads run many queries back to back, and the scope guarantees
        // one request's counts never bleed into the next measurement. The
        // delta lands in the shared accumulator even on error.
        let scope = OpScope::with_sink(&metrics.ops);
        let (outcome, storage_failure) = {
            let mut provider = PinnedSources {
                state: self,
                pinned: &job.pinned,
                failure: None,
            };
            let outcome = match job.distribute {
                None => reldiv_plan::execute(&job.bound, &mut provider, &opts)
                    .map(|output| (output, None)),
                Some(dist) => execute_distributed(&job.bound, dist, &mut provider, &opts)
                    .map(|(output, report)| (output, Some(report))),
            };
            (outcome, provider.failure)
        };
        let mut ops = scope.finish();
        let retries_after = {
            let s = self.storage.borrow().buffer_stats();
            s.read_retries + s.write_retries
        };
        metrics.io_retries.fetch_add(
            retries_after.saturating_sub(retries_before),
            Ordering::Relaxed,
        );
        if let Some(e) = storage_failure {
            // The provider's stashed error is the real failure; the plan
            // error it returned in its place is just the unwinding vehicle.
            return Err(e);
        }
        let (output, machine) = outcome.map_err(plan_error)?;
        let degraded = output.choices.iter().filter(|c| c.report.degraded).count() as u64;
        if degraded > 0 {
            metrics
                .degraded_queries
                .fetch_add(degraded, Ordering::Relaxed);
            metrics.division_spill_bytes.fetch_add(
                output
                    .choices
                    .iter()
                    .map(|c| c.report.spill_bytes + c.report.respool_bytes)
                    .sum(),
                Ordering::Relaxed,
            );
        }
        let mut algorithms: Vec<Algorithm> = output.choices.iter().map(|c| c.algorithm).collect();
        let mut profile = sink.map(|s| s.finish());
        if let Some(report) = machine {
            algorithms.push(MACHINE_ALGORITHM);
            // Node work ran on the machine's own threads, outside this
            // thread's scope: fold its totals in so distributed and
            // single-operator queries aggregate identically.
            metrics.ops.add(&report.total_ops);
            ops = ops.merge(&report.total_ops);
            profile = job.profile.then_some(report.profile);
        }
        let schema = output.relation.schema().clone();
        Ok(PlanReply {
            schema,
            tuples: Arc::new(output.relation.into_tuples()),
            algorithms,
            cached: false,
            relations: job
                .pinned
                .iter()
                .map(|r| (r.name.clone(), r.version))
                .collect(),
            ops,
            // Placeholder: the front end stamps the queue-inclusive
            // end-to-end latency once — a worker clock would stop before
            // the reply-channel hop and disagree with the histogram.
            micros: 0,
            profile,
        })
    }
}

/// Serves a plan's base relations — the catalog's columns, or the
/// worker's record file for one too large for its pool — restricted to
/// the versions the front end pinned at admission.
/// A storage failure is stashed (`failure`) so the service error survives
/// the trip through the plan crate's error type.
struct PinnedSources<'a> {
    state: &'a mut WorkerState,
    pinned: &'a [Arc<RelationVersion>],
    failure: Option<ServiceError>,
}

impl SourceProvider for PinnedSources<'_> {
    fn source(&mut self, name: &str) -> reldiv_plan::Result<Source> {
        let relation = self
            .pinned
            .iter()
            .find(|r| r.name == name)
            .cloned()
            .ok_or_else(|| {
                PlanError::Validate(format!("relation {name:?} was not pinned for this plan"))
            })?;
        self.state.source_for(&relation).map_err(|e| {
            self.failure = Some(e);
            PlanError::Validate(format!("materializing relation {name:?} failed"))
        })
    }
}

fn plan_error(e: PlanError) -> ServiceError {
    match e {
        PlanError::Exec(e) => ServiceError::from(e),
        other => ServiceError::BadRequest(other.to_string()),
    }
}

/// Runs a division over the in-process parallel machine (Section 6):
/// this worker evaluates the division's two inputs, distribution and
/// collection happen on this worker thread, node work on the machine's
/// own threads.
fn execute_distributed(
    bound: &Bound,
    dist: Distribution,
    provider: &mut PinnedSources<'_>,
    opts: &ExecOptions,
) -> reldiv_plan::Result<(PlanOutput, RunReport)> {
    let BoundNode::Divide(d) = &bound.node else {
        return Err(PlanError::Validate(
            "distributed execution needs a division at the plan root".into(),
        ));
    };
    let dividend = reldiv_plan::execute(&d.dividend, provider, opts)?.relation;
    let divisor = reldiv_plan::execute(&d.divisor, provider, opts)?.relation;
    let spec = DivisionSpec::new(
        dividend.schema(),
        divisor.schema(),
        d.divisor_keys.clone(),
        d.quotient_keys.clone(),
    )?;
    let config = ClusterConfig {
        nodes: dist.nodes,
        strategy: dist.strategy,
        bit_vector_bits: dist.bit_vector_bits,
        ..ClusterConfig::default()
    };
    let (relation, report) = parallel_divide(&dividend, &divisor, &spec, &config)?;
    let output = PlanOutput {
        relation,
        choices: Vec::new(),
    };
    Ok((output, report))
}

/// The worker main loop: drains the submission queue until every sender
/// is gone (the shutdown signal), answering each admitted job. A panic
/// inside a query is contained here: the job is answered with
/// [`ServiceError::Internal`], the worker state is rebuilt, and the loop
/// keeps serving.
pub(crate) fn worker_loop(
    rx: Receiver<Job>,
    metrics: Arc<ServiceMetrics>,
    config: ServiceConfig,
    index: usize,
    abort: &'static AtomicBool,
) {
    let mut state = WorkerState::new(&config, index, abort);
    // On a panic the storage manager may be mid-operation; rebuild the
    // worker's state from scratch rather than trust it. A client that
    // gave up on the reply channel is not an error.
    let panicked = |state: &mut WorkerState| {
        metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        *state = WorkerState::new(&config, index, abort);
        ServiceError::Internal(
            "worker panicked while executing the query; the worker was replaced".into(),
        )
    };
    for job in rx.iter() {
        let outcome = catch_unwind(AssertUnwindSafe(|| state.execute(&job, &metrics)));
        let result = match outcome {
            Ok(result) => result,
            Err(_) => Err(panicked(&mut state)),
        };
        let _ = job.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::{Batch, Columns, Schema, Tuple, Value};
    use reldiv_storage::manager::StorageConfig;

    /// A worker whose pool (4 KB) is smaller than the relations below, so
    /// each is served from a record file.
    fn small_pool_worker(abort: &'static AtomicBool) -> WorkerState {
        let config = ServiceConfig {
            storage: StorageConfig {
                data_page_size: 1024,
                buffer_bytes: 4 * 1024,
                ..StorageConfig::paper()
            },
            ..ServiceConfig::default()
        };
        WorkerState::new(&config, 0, abort)
    }

    /// A version holding `tuples` as they are, unchecked.
    fn version(name: &str, version: u64, schema: Schema, tuples: &[Tuple]) -> Arc<RelationVersion> {
        let mut batch = Batch::with_capacity(schema.clone(), tuples.len());
        tuples.iter().for_each(|t| batch.push_tuple(t));
        Arc::new(RelationVersion {
            name: name.to_owned(),
            version,
            rows: Columns::from_batches(schema, vec![batch]),
        })
    }

    #[test]
    fn failed_materialization_leaves_no_file_behind() {
        // `register` refuses a relation the codec cannot encode, so only
        // a version built around it can hold one (an embedded NUL in the
        // last tuple); should one ever reach a worker, every failed load
        // must give the half-written record file back.
        static ABORT: AtomicBool = AtomicBool::new(false);
        let mut worker = small_pool_worker(&ABORT);
        let mut tuples: Vec<Tuple> = (0..2000)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::from("ok")]))
            .collect();
        tuples.push(Tuple::new(vec![Value::Int(-1), Value::from("a\0b")]));
        let schema = Schema::new(vec![Field::int("id"), Field::str("name", 8)]);
        let bad = version("r", 1, schema, &tuples);
        for _ in 0..3 {
            let err = worker.source_for(&bad).err().expect("the load must fail");
            assert!(matches!(err, ServiceError::BadRequest(_)), "{err}");
            let sm = worker.storage.borrow();
            assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
        }
    }

    #[test]
    fn files_of_released_versions_are_deleted() {
        // A worker that serves a stream of names it never sees again (a
        // coordinator's stamped temporaries, dropped relations) must not
        // keep one record file per name.
        static ABORT: AtomicBool = AtomicBool::new(false);
        let mut worker = small_pool_worker(&ABORT);
        let ids = |name: &str, v: u64| {
            let tuples: Vec<Tuple> = (0..1000).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
            version(name, v, Schema::new(vec![Field::int("id")]), &tuples)
        };
        let kept = ids("kept", 1);
        worker.source_for(&kept).unwrap();
        for v in 2..20 {
            // Each temporary is released before the next query arrives.
            worker.source_for(&ids(&format!("temp.{v}"), v)).unwrap();
            assert!(worker.storage.borrow().file_count() <= 2);
        }
        // A live version keeps its file and is not written again; another
        // version of the same name replaces it even while both are pinned.
        let file = worker.files["kept"].1;
        worker.source_for(&kept).unwrap();
        assert_eq!(worker.files["kept"].1, file);
        let newer = ids("kept", 20);
        worker.source_for(&newer).unwrap();
        assert_eq!(worker.storage.borrow().file_count(), 1);
        assert_eq!(worker.files.len(), 1);
    }

    #[test]
    fn a_relation_that_fits_the_pool_is_scanned_in_place() {
        static ABORT: AtomicBool = AtomicBool::new(false);
        let mut worker = small_pool_worker(&ABORT);
        let schema = Schema::new(vec![Field::int("id")]);
        // 512 records of 8 bytes fill the 4 KB pool exactly; one more
        // record does not fit.
        let rows =
            |n: i64| -> Vec<Tuple> { (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect() };
        let fits = version("r", 1, schema.clone(), &rows(512));
        assert!(matches!(worker.source_for(&fits), Ok(Source::Columns(_))));
        assert_eq!(worker.storage.borrow().file_count(), 0);
        let over = version("r", 2, schema, &rows(513));
        assert!(matches!(worker.source_for(&over), Ok(Source::File { .. })));
        assert_eq!(worker.storage.borrow().file_count(), 1);
        // Once the large version is released, its file goes even though
        // the next source served needs no file at all.
        drop(over);
        worker.source_for(&fits).unwrap();
        assert_eq!(worker.storage.borrow().file_count(), 0);
    }
}
