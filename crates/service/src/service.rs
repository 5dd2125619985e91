//! The query service: catalog + worker pool + admission control +
//! result cache + metrics, behind one embeddable handle.
//!
//! Life of a query — there is one path, and every query is a plan:
//! [`Service::exec_plan`] parses its text, [`Service::divide`] builds the
//! one-operator `(divide ... (scan R) (scan S))` plan its request spells,
//! and both continue identically:
//!
//! 1. refuse a request that is dead on arrival (shutting down, deadline
//!    already elapsed),
//! 2. pin the current catalog version of every relation the plan reads,
//! 3. look up the result cache — the key is the canonical plan text plus
//!    the pinned versions, so hits are exact by construction,
//! 4. on a miss, bind the plan against the pins and `try_send` the job
//!    into the **bounded** submission queue: a full queue means the
//!    request is rejected *now* with [`ServiceError::Overloaded`] instead
//!    of queueing without bound (admission control),
//! 5. block on the private reply channel; a worker thread executes the
//!    plan over its own storage manager — each division's algorithm
//!    chosen by the cost model unless the plan pins one — and replies,
//! 6. record latency and counters, install the result in the cache.
//!
//! [`Service::shutdown`] first flips the accept flag (new queries get
//! [`ServiceError::ShuttingDown`]), then closes the queue; workers drain
//! every admitted job before exiting, so shutdown is graceful by
//! construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::Mutex;
use reldiv_core::{QueryProfile, SpanKind};
use reldiv_parallel::filter::BitVectorFilter;
use reldiv_parallel::partition::scatter;
use reldiv_parallel::Distribution;
use reldiv_plan::{AlgorithmHint, ColRef, DivideHints, Plan, Tri};
use reldiv_rel::counters::OpSnapshot;
use reldiv_rel::{Batch, Columns, Relation, Schema, Tuple};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::FaultPlan;

use crate::cache::{PlanCache, PlanCacheKey};
use crate::catalog::{Catalog, RelationVersion};
use crate::error::{Result, ServiceError};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::proto::{self, DivideReply, DivideRequest, ExecPlanRequest, PlanReply};
use crate::worker::{worker_loop, Job, MACHINE_ALGORITHM};

/// Sizing knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing divisions.
    pub workers: usize,
    /// Capacity of the bounded submission queue; a query arriving while
    /// the queue holds this many is rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Storage configuration for each worker's private manager.
    pub storage: StorageConfig,
    /// Deadline applied to queries that do not carry their own; `None`
    /// means queries without an explicit deadline run unbounded.
    pub default_deadline: Option<Duration>,
    /// Fault plan installed (independently reseeded) on every worker's
    /// simulated disks. `None` runs fault-free. Used by the chaos harness
    /// and soak tests.
    pub storage_faults: Option<FaultPlan>,
    /// Chaos-testing hook: queries that read this catalog name panic
    /// inside the worker, demonstrating panic isolation. `None` (the
    /// default) disables the fail point.
    pub fail_point_relation: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
            storage: StorageConfig::large(),
            default_deadline: None,
            storage_faults: None,
            fail_point_relation: None,
        }
    }
}

/// The cluster membership view a coordinator pushes onto a node: the
/// catalog epoch the node must enforce, plus the member list and
/// replication factor behind it. Epochs are bumped on every membership
/// change (join/remove), so a node can refuse data-plane requests from a
/// coordinator whose routing table predates the current placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEpochState {
    /// Monotonically increasing catalog epoch.
    pub epoch: u64,
    /// Member addresses, in coordinator order (node index = position).
    pub members: Vec<String>,
    /// Replication factor k: each fragment lives on k nodes.
    pub replication: u16,
}

/// Shard coordinates recorded by [`Service::install_shard`]: which slice
/// of a hash-partitioned relation this node holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// This node's shard index, `< of`.
    pub shard: u16,
    /// Total shard count.
    pub of: u16,
    /// Columns the relation is hash-partitioned on.
    pub shard_keys: Vec<usize>,
}

/// The embeddable division query service.
pub struct Service {
    catalog: Catalog,
    cache: PlanCache,
    metrics: Arc<ServiceMetrics>,
    queue: Mutex<Option<Sender<Job>>>,
    accepting: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    default_deadline: Option<Duration>,
    shards: Mutex<HashMap<String, ShardInfo>>,
    cluster_epoch: Mutex<Option<ClusterEpochState>>,
    /// Trips every in-flight execution's cancel token ([`Service::abort`]).
    /// Leaked so [`CancelToken`](reldiv_exec::CancelToken) stays `Copy`;
    /// one `AtomicBool` per service lifetime.
    abort_flag: &'static AtomicBool,
    /// Whether storage fault injection is active — if so,
    /// restricted-divisor assertions ([`DivideRequest::restricted`], a
    /// plan's `(restricted no)` hint) are ignored: a fault-recovered
    /// relation may have dropped divisor tuples, which would make the
    /// no-join aggregation plans they unlock silently wrong.
    faulty: bool,
}

impl Service {
    /// Starts the worker pool and returns the service handle. Fails with
    /// [`ServiceError::Internal`] if the platform refuses to spawn the
    /// worker threads (already-spawned workers are shut down cleanly).
    pub fn start(config: ServiceConfig) -> Result<Arc<Service>> {
        let metrics = Arc::new(ServiceMetrics::new());
        let abort_flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let (tx, rx) = bounded::<Job>(config.queue_depth.max(1));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_rx = rx.clone();
            let metrics = metrics.clone();
            let worker_config = config.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("reldiv-worker-{i}"))
                .spawn(move || worker_loop(worker_rx, metrics, worker_config, i, abort_flag));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Closing the queue ends the workers spawned so far.
                    drop(tx);
                    drop(rx);
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(ServiceError::Internal(format!(
                        "spawning worker thread {i}: {e}"
                    )));
                }
            }
        }
        Ok(Arc::new(Service {
            catalog: Catalog::new(),
            cache: PlanCache::new(config.cache_capacity),
            metrics,
            queue: Mutex::new(Some(tx)),
            accepting: AtomicBool::new(true),
            workers: Mutex::new(workers),
            default_deadline: config.default_deadline,
            shards: Mutex::new(HashMap::new()),
            cluster_epoch: Mutex::new(None),
            abort_flag,
            faulty: config.storage_faults.is_some(),
        }))
    }

    /// Starts a service with the default configuration.
    pub fn start_default() -> Result<Arc<Service>> {
        Service::start(ServiceConfig::default())
    }

    /// Installs (or replaces) a relation under `name`; returns its new
    /// catalog version. Cached results reading the old version are
    /// purged. A relation the record codec cannot represent (an embedded
    /// NUL, an over-width string) is refused here with
    /// [`ServiceError::BadRequest`] and changes nothing.
    pub fn register(&self, name: &str, relation: Relation) -> Result<u64> {
        self.register_tuples(name, relation.schema(), relation.tuples())
    }

    /// [`Service::register`] from borrowed rows.
    pub fn register_tuples(&self, name: &str, schema: &Schema, tuples: &[Tuple]) -> Result<u64> {
        let rows = Columns::from_tuples(schema.clone(), tuples)
            .map_err(|e| ServiceError::BadRequest(format!("tuple violates schema: {e}")))?;
        self.register_columns(name, rows)
    }

    /// [`Service::register`] of rows already held as columns — the form
    /// the catalog keeps and the server decodes a `Register` frame into.
    pub fn register_columns(&self, name: &str, rows: Columns) -> Result<u64> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let version = self.catalog.register(name, rows);
        // A plain register replaces whatever was there — including a
        // shard, whose coordinates no longer describe the new contents.
        self.forget(name);
        Ok(version)
    }

    /// Removes `name` from the catalog and purges its cached results.
    pub fn drop_relation(&self, name: &str) -> Result<()> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        self.catalog.drop_relation(name)?;
        self.forget(name);
        Ok(())
    }

    /// Installs one shard of a hash-partitioned relation (the cluster
    /// node role): the rows become an ordinary catalog relation under
    /// `name`, and the shard coordinates are recorded for
    /// [`Service::shard_info`]. Returns the catalog version.
    pub fn install_shard(&self, name: &str, rows: Columns, info: ShardInfo) -> Result<u64> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if info.of == 0 || info.shard >= info.of {
            return Err(ServiceError::BadRequest(format!(
                "shard {} of {} is out of range",
                info.shard, info.of
            )));
        }
        let arity = rows.schema().arity();
        if let Some(&k) = info.shard_keys.iter().find(|&&k| k >= arity) {
            return Err(ServiceError::BadRequest(format!(
                "shard key {k} out of range for arity {arity}"
            )));
        }
        // Whatever a coordinator derived from the version being replaced
        // is stale by its own rule (it forgets the same names), and their
        // stamped names are never written again: drop them here, or every
        // re-registration leaves its temporaries behind on this node.
        let base = proto::fragment_base(name);
        for stale in self.catalog.drop_where(|n| proto::is_derived_from(n, base)) {
            self.forget(&stale);
        }
        let version = self.catalog.register(name, rows);
        self.shards.lock().insert(name.to_owned(), info);
        self.cache.invalidate_relation(name);
        Ok(version)
    }

    /// Purges what the service keeps about a relation that left the
    /// catalog: its shard coordinates and its cached results.
    fn forget(&self, name: &str) {
        self.shards.lock().remove(name);
        self.cache.invalidate_relation(name);
    }

    /// The shard coordinates of `name`, when it was installed via
    /// [`Service::install_shard`] (a plain register clears them).
    pub fn shard_info(&self, name: &str) -> Option<ShardInfo> {
        self.shards.lock().get(name).cloned()
    }

    /// Installs the cluster membership view this node must enforce.
    /// Epochs are monotonic: a view carrying an epoch below the installed
    /// one is refused with [`ServiceError::StaleEpoch`] — a lagging
    /// coordinator cannot roll the node back to a pre-rebalance
    /// placement. Returns the installed view.
    pub fn set_cluster_epoch(&self, state: ClusterEpochState) -> Result<ClusterEpochState> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let mut current = self.cluster_epoch.lock();
        if let Some(installed) = current.as_ref() {
            if state.epoch < installed.epoch {
                return Err(ServiceError::StaleEpoch(format!(
                    "refusing epoch {} below installed epoch {}",
                    state.epoch, installed.epoch
                )));
            }
        }
        *current = Some(state.clone());
        Ok(state)
    }

    /// The installed cluster membership view, if a coordinator has
    /// pushed one.
    pub fn cluster_epoch(&self) -> Option<ClusterEpochState> {
        self.cluster_epoch.lock().clone()
    }

    /// Enforces the catalog epoch carried by a cluster data-plane
    /// request. A request carrying `Some(epoch)` against a node holding
    /// a *different* installed epoch is refused with
    /// [`ServiceError::StaleEpoch`] in either direction: an older
    /// request epoch means the coordinator's routing table predates the
    /// current placement; a newer one means this node missed a
    /// membership push and its fragments may be stale. Requests without
    /// an epoch (older coordinators, plain clients) and nodes without an
    /// installed view are exempt — the check only binds once both sides
    /// speak epochs.
    pub fn check_epoch(&self, epoch: Option<u64>) -> Result<()> {
        let Some(requested) = epoch else {
            return Ok(());
        };
        let current = self.cluster_epoch.lock();
        match current.as_ref() {
            Some(installed) if installed.epoch != requested => {
                Err(ServiceError::StaleEpoch(format!(
                    "request epoch {requested} vs node epoch {}",
                    installed.epoch
                )))
            }
            _ => Ok(()),
        }
    }

    /// Hash-partitions the stored relation's local tuples on `keys` into
    /// `parts` buckets, optionally dropping tuples through a bit-vector
    /// filter first (tested on the same `keys`). This is the sending-site
    /// half of a Section 6 placement, executed where the data lives;
    /// returns the schema, one bucket per part, and the filtered count.
    pub fn repartition(
        &self,
        name: &str,
        keys: &[usize],
        parts: usize,
        filter: Option<&BitVectorFilter>,
    ) -> Result<(Schema, Vec<Columns>, u64)> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if parts == 0 {
            return Err(ServiceError::BadRequest("zero parts".into()));
        }
        if keys.is_empty() {
            return Err(ServiceError::BadRequest("empty key set".into()));
        }
        let relation = self.catalog.get(name)?;
        let arity = relation.schema().arity();
        if let Some(&k) = keys.iter().find(|&&k| k >= arity) {
            return Err(ServiceError::BadRequest(format!(
                "partition key {k} out of range for arity {arity}"
            )));
        }
        let mut buckets: Vec<Vec<Batch>> = vec![Vec::new(); parts];
        let mut filtered = 0u64;
        for batch in relation.rows.batches() {
            let routed = scatter(batch, keys, parts, filter, None);
            filtered += routed.dropped;
            for (bucket, rows) in buckets.iter_mut().zip(routed.rows) {
                bucket.push(batch.gather(&rows));
            }
        }
        let schema = relation.schema();
        let buckets = buckets
            .into_iter()
            .map(|b| Columns::from_batches(schema.clone(), b));
        Ok((schema.clone(), buckets.collect(), filtered))
    }

    /// Builds a bit-vector filter over the stored relation's local tuples
    /// hashed on `keys`; returns the filter and the insertion count. The
    /// coordinator ORs the per-node filters and ships the union back with
    /// its repartition requests — bits move, tuples don't.
    pub fn build_filter(
        &self,
        name: &str,
        keys: &[usize],
        bits: usize,
    ) -> Result<(BitVectorFilter, u64)> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if bits == 0 || bits > crate::proto::MAX_FILTER_BITS {
            return Err(ServiceError::BadRequest(format!(
                "filter size {bits} out of range"
            )));
        }
        if keys.is_empty() {
            return Err(ServiceError::BadRequest("empty key set".into()));
        }
        let relation = self.catalog.get(name)?;
        let arity = relation.schema().arity();
        if let Some(&k) = keys.iter().find(|&&k| k >= arity) {
            return Err(ServiceError::BadRequest(format!(
                "filter key {k} out of range for arity {arity}"
            )));
        }
        let filter = BitVectorFilter::over(bits, &relation.rows, keys);
        Ok((filter, relation.cardinality() as u64))
    }

    /// `(name, version, cardinality)` of every registered relation.
    pub fn list_relations(&self) -> Vec<(String, u64, usize)> {
        self.catalog.list()
    }

    /// Runs `dividend ÷ divisor`, blocking until the quotient is ready,
    /// the request is rejected, or the query fails. A `Divide` request
    /// *is* a one-operator plan — `division_plan` spells it — and runs exactly as [`Service::exec_plan`] runs that
    /// plan's text; only `mem_budget` and `distribute`, which plan text
    /// cannot express, travel beside it.
    pub fn divide(&self, request: &DivideRequest) -> Result<DivideReply> {
        let reply = self.run(
            request.deadline_ms,
            request.profile,
            request.mem_budget.map(|b| b as usize),
            request.distribute,
            || self.division_plan(request),
        )?;
        let version = |name: &str| {
            let pin = reply.relations.iter().find(|(n, _)| n == name);
            pin.expect("a division plan pins both its relations").1
        };
        let algorithm = reply.algorithms.first();
        Ok(DivideReply {
            algorithm: *algorithm.expect("a division plan runs one division"),
            cached: reply.cached,
            dividend_version: version(&request.dividend),
            divisor_version: version(&request.divisor),
            micros: reply.micros,
            ops: reply.ops,
            schema: reply.schema,
            tuples: reply.tuples,
            profile: reply.profile.map(division_span),
        })
    }

    /// The plan a `Divide` request spells: `(divide (on #dk…) (quotient
    /// #qk…) [(algorithm a)] [(restricted yes|no)] (unique yes|no) (scan R)
    /// (scan S))`. Built as a syntax tree, never through text — catalog
    /// names need not be plan identifiers.
    fn division_plan(&self, request: &DivideRequest) -> Result<Plan> {
        let algorithm = match request.distribute {
            None => request.algorithm,
            Some(dist) => {
                if dist.nodes == 0 || dist.nodes > proto::MAX_CLUSTER_NODES {
                    return Err(ServiceError::BadRequest(format!(
                        "distributed node count {} out of range",
                        dist.nodes
                    )));
                }
                // The parallel machine runs hash division on every node;
                // an explicit conflicting algorithm is unsatisfiable.
                match request.algorithm {
                    Some(alg) if alg != MACHINE_ALGORITHM => {
                        return Err(ServiceError::BadRequest(format!(
                            "distributed execution implements hash division only, not {alg:?}"
                        )))
                    }
                    _ => Some(MACHINE_ALGORITHM),
                }
            }
        };
        let (on, quotient) = match &request.spec {
            Some(spec) => spec.clone(),
            None => {
                // The trailing-divisor convention: the dividend's last
                // |S| columns are the divisor attributes.
                let n = self.catalog.get(&request.dividend)?.schema().arity();
                let d = self.catalog.get(&request.divisor)?.schema().arity();
                let q = n.saturating_sub(d);
                ((q..n).collect(), (0..q).collect())
            }
        };
        let columns = |keys: Vec<usize>| keys.into_iter().map(ColRef::Index).collect();
        let scan = |name: &str| {
            Box::new(Plan::Scan {
                relation: name.to_owned(),
            })
        };
        Ok(Plan::Divide {
            on: columns(on),
            quotient: Some(columns(quotient)),
            hints: DivideHints {
                algorithm: algorithm.map_or(AlgorithmHint::Auto, AlgorithmHint::from),
                restricted: match request.restricted {
                    None => Tri::Auto,
                    Some(true) => Tri::Yes,
                    Some(false) => Tri::No,
                },
                unique: if request.assume_unique {
                    Tri::Yes
                } else {
                    Tri::No
                },
            },
            dividend: scan(&request.dividend),
            divisor: scan(&request.divisor),
        })
    }

    /// Counts a failed query into the metric its error class owns.
    fn record_failure(&self, e: &ServiceError) {
        match e {
            ServiceError::Overloaded => {
                self.metrics.rejections.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::ShuttingDown => {
                self.metrics.shed_shutdown.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::DeadlineExceeded => {
                self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stamps a successful query into the latency/throughput metrics;
    /// returns the latency to stamp on the reply.
    fn record_success(&self, start: Instant, profiled: bool) -> u64 {
        let micros = start.elapsed().as_micros() as u64;
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        self.metrics.latency.record(micros);
        if profiled {
            self.metrics
                .profiled_queries
                .fetch_add(1, Ordering::Relaxed);
        }
        micros
    }

    /// Parses, validates, and executes a composed query plan (the
    /// s-expression language of `reldiv-plan`), blocking until the
    /// result is ready, the request is rejected, or the plan fails.
    pub fn exec_plan(&self, request: &ExecPlanRequest) -> Result<PlanReply> {
        self.run(request.deadline_ms, request.profile, None, None, || {
            let text = &request.plan;
            if text.len() > proto::MAX_PLAN_WIRE {
                return Err(ServiceError::BadRequest(format!(
                    "plan text of {} bytes exceeds the {} byte limit",
                    text.len(),
                    proto::MAX_PLAN_WIRE
                )));
            }
            reldiv_plan::parse(text).map_err(|e| ServiceError::BadRequest(e.to_string()))
        })
    }

    /// The one query path; `plan` yields the admitted request's plan.
    ///
    /// End-to-end latency is defined *here*, once: admission through
    /// reply, queue wait included. The same value is stamped on the reply
    /// and recorded in the histogram — workers and the cache path
    /// deliberately do not record latency, so each query contributes
    /// exactly one sample.
    fn run(
        &self,
        deadline_ms: Option<u64>,
        profile: bool,
        mem_budget: Option<usize>,
        distribute: Option<Distribution>,
        plan: impl FnOnce() -> Result<Plan>,
    ) -> Result<PlanReply> {
        let start = Instant::now();
        let outcome = self.admit(start, deadline_ms).and_then(|deadline| {
            self.run_admitted(&plan()?, deadline, profile, mem_budget, distribute)
        });
        match outcome {
            Ok(mut reply) => {
                reply.micros = self.record_success(start, reply.profile.is_some());
                Ok(reply)
            }
            Err(e) => {
                self.record_failure(&e);
                Err(e)
            }
        }
    }

    /// Refuses a request that is dead on arrival; otherwise resolves its
    /// deadline.
    fn admit(&self, start: Instant, deadline_ms: Option<u64>) -> Result<Option<Instant>> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.default_deadline)
            .map(|d| start + d);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Refused before any work — a cache hit must not resurrect a
            // query the client already considers failed.
            return Err(ServiceError::DeadlineExceeded);
        }
        Ok(deadline)
    }

    fn run_admitted(
        &self,
        plan: &Plan,
        deadline: Option<Instant>,
        profile: bool,
        mem_budget: Option<usize>,
        distribute: Option<Distribution>,
    ) -> Result<PlanReply> {
        // Pin every relation the plan reads at its current version, so a
        // plan and a concurrent update never race (`Plan::relations` is
        // sorted, so the pins — and the cache key built from them — are
        // canonical).
        let pinned = plan
            .relations()
            .iter()
            .map(|name| self.catalog.get(name))
            .collect::<Result<Vec<_>>>()?;
        let key = PlanCacheKey {
            text: plan.print(),
            pins: pinned.iter().map(|r| (r.name.clone(), r.version)).collect(),
        };
        // Looked up before binding: a hit proves this text was bound
        // against exactly these versions.
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((*hit).clone());
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let bound = reldiv_plan::bind(plan, &PinnedCatalog(&pinned))
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;

        let (reply_tx, reply_rx) = bounded(1);
        let job = Job {
            bound,
            pinned,
            deadline,
            profile,
            honor_hints: !self.faulty,
            mem_budget,
            distribute,
            reply: reply_tx,
        };
        {
            let queue = self.queue.lock();
            let Some(tx) = queue.as_ref() else {
                return Err(ServiceError::ShuttingDown);
            };
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => return Err(ServiceError::Overloaded),
                Err(TrySendError::Disconnected(_)) => return Err(ServiceError::ShuttingDown),
            }
        }
        let reply = reply_rx
            .recv()
            .map_err(|_| ServiceError::Internal("worker exited before replying".into()))??;
        // What a hit serves: the same result, nothing executed.
        self.cache.insert(
            key,
            Arc::new(PlanReply {
                cached: true,
                ops: OpSnapshot::default(),
                profile: None,
                ..reply.clone()
            }),
        );
        Ok(reply)
    }

    /// Current counters.
    pub fn stats(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of cached results.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the service still accepts work.
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Hard stop, simulating node death: trips the abort flag so every
    /// in-flight execution cancels at its next checkpoint, then shuts
    /// down. Unlike [`Service::shutdown`], admitted queries do *not* run
    /// to completion — a killed node must stop writing spill pages, not
    /// finish its quotients. Idempotent.
    pub fn abort(&self) {
        self.abort_flag.store(true, Ordering::Release);
        self.shutdown();
    }

    /// Graceful shutdown: refuses new queries, then waits for every
    /// admitted query to complete. Idempotent.
    pub fn shutdown(&self) {
        self.accepting.store(false, Ordering::Release);
        // Dropping the sender closes the queue: workers drain what was
        // admitted, then their receive loops end.
        drop(self.queue.lock().take());
        let handles = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The division's own span tree. A `Divide` reply's profile is rooted at
/// `divide [<algorithm>]`, not at the one-operator plan wrapped around
/// it; a distributed run's profile is the machine's and has no wrapper.
fn division_span(profile: QueryProfile) -> QueryProfile {
    let mut root = profile.root;
    match root
        .children
        .iter()
        .rposition(|c| c.kind == SpanKind::Query)
    {
        Some(divide) => QueryProfile {
            root: root.children.swap_remove(divide),
        },
        None => QueryProfile { root },
    }
}

/// Binds plans against the exact relation versions pinned at admission
/// (not the live catalog, which a concurrent update may have moved on).
struct PinnedCatalog<'a>(&'a [Arc<RelationVersion>]);

impl reldiv_plan::CatalogSource for PinnedCatalog<'_> {
    fn lookup(&self, name: &str) -> Option<(Schema, u64)> {
        self.0
            .iter()
            .find(|r| r.name == name)
            .map(|r| (r.schema().clone(), r.cardinality() as u64))
    }
}
