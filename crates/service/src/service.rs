//! The query service: catalog + worker pool + admission control +
//! result cache + metrics, behind one embeddable handle.
//!
//! Life of a query (`Service::divide`):
//!
//! 1. pin the current catalog versions of both relations,
//! 2. resolve the column spec and (if `auto`) the algorithm via the
//!    cost model's [`Algorithm::recommend`],
//! 3. look up the result cache — the key embeds the pinned versions, so
//!    hits are exact by construction,
//! 4. on a miss, `try_send` the job into the **bounded** submission
//!    queue: a full queue means the request is rejected *now* with
//!    [`ServiceError::Overloaded`] instead of queueing without bound
//!    (admission control),
//! 5. block on the private reply channel; a worker thread executes the
//!    division over its own storage manager and replies,
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
use reldiv_core::api::validate_algorithm_for_inputs;
use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{Algorithm, DivisionSpec, QueryProfile};
use reldiv_parallel::filter::BitVectorFilter;
use reldiv_parallel::{route, Distribution};
use reldiv_rel::counters::OpSnapshot;
use reldiv_rel::{Relation, Schema, Tuple};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::FaultPlan;

use crate::cache::{CacheKey, CachedPlan, CachedResult, PlanCache, PlanCacheKey, ResultCache};
use crate::catalog::{Catalog, RelationVersion};
use crate::error::{Result, ServiceError};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::proto::{self, algorithm_code};
use crate::worker::{worker_loop, Job, PlanJob, QueryJob};

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
    /// Chaos-testing hook: queries whose *dividend* has this catalog name
    /// panic inside the worker, demonstrating panic isolation. `None`
    /// (the default) disables the fail point.
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

/// How a query should run: the per-request options of
/// [`Service::divide`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Explicit algorithm; `None` asks the cost model to choose.
    pub algorithm: Option<Algorithm>,
    /// Declare both inputs duplicate-free (skips the duplicate
    /// elimination the aggregate algorithms otherwise plan).
    pub assume_unique: bool,
    /// Explicit `(divisor_keys, quotient_keys)`; `None` uses the
    /// trailing-divisor convention.
    pub spec: Option<(Vec<usize>, Vec<usize>)>,
    /// Per-query deadline, overriding the service's
    /// [`default_deadline`](ServiceConfig::default_deadline). The division
    /// is cancelled cooperatively once it elapses and the query fails
    /// with [`ServiceError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Profile the query (`EXPLAIN ANALYZE`): the worker attaches a
    /// per-operator span tree to [`QueryResponse::profile`]. Cache hits
    /// execute nothing and therefore carry no profile.
    pub profile: bool,
    /// Run the division over the in-process parallel machine (Section 6
    /// strategy, node count, optional bit-vector filter) instead of a
    /// single operator. Forces the algorithm to hash division — the
    /// parallel machine implements nothing else — so an explicit
    /// conflicting `algorithm` is a [`ServiceError::BadRequest`].
    pub distribute: Option<Distribution>,
    /// Client assertion about the restricted-divisor property. `None`
    /// keeps the conservative default (`true`: dividend tuples may
    /// reference values outside the divisor, so the aggregation plans
    /// must join). `Some(false)` promises referential integrity,
    /// unlocking the cheaper no-join aggregation plans — but the service
    /// honors the promise only while no storage fault injection is
    /// active: a fault-recovered relation may have dropped divisor
    /// tuples, which would make the no-join plans silently wrong.
    pub restricted_divisor: Option<bool>,
    /// Per-query memory budget in bytes for the division's working
    /// state. When set, the worker charges the query against a child
    /// pool capped at this value on top of its shared pool, so a heavy
    /// division degrades adaptively (spilling partitions to disk)
    /// instead of starving concurrent queries. The quotient is identical
    /// either way — only the execution strategy changes — which is why
    /// budgeted and unbudgeted runs share cache entries.
    pub mem_budget: Option<usize>,
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

/// A served quotient with its provenance.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Quotient schema.
    pub schema: Schema,
    /// Quotient tuples (shared with the cache).
    pub tuples: Arc<Vec<Tuple>>,
    /// The algorithm that ran (the resolved choice under `auto`).
    pub algorithm: Algorithm,
    /// Whether the quotient came from the result cache.
    pub cached: bool,
    /// Dividend version the quotient was computed from.
    pub dividend_version: u64,
    /// Divisor version the quotient was computed from.
    pub divisor_version: u64,
    /// Abstract operations this execution performed (zero when cached).
    pub ops: OpSnapshot,
    /// End-to-end latency in microseconds: admission through reply,
    /// queue wait included. Stamped exactly once by [`Service::divide`]
    /// — the same value it records into the latency histogram, so the
    /// histogram and the responses can never disagree.
    pub micros: u64,
    /// The per-operator span tree, when the query asked for one and the
    /// quotient was actually computed (cache hits execute nothing).
    pub profile: Option<QueryProfile>,
}

/// How a plan should run: the per-request options of
/// [`Service::exec_plan`].
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// Per-query deadline, overriding the service's
    /// [`default_deadline`](ServiceConfig::default_deadline).
    pub deadline: Option<Duration>,
    /// Profile the plan (`EXPLAIN ANALYZE`): the worker attaches a span
    /// tree covering every operator to [`PlanResponse::profile`]. Cache
    /// hits execute nothing and therefore carry no profile.
    pub profile: bool,
}

/// A served plan result with its provenance.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// Result schema.
    pub schema: Schema,
    /// Result tuples (shared with the plan cache).
    pub tuples: Arc<Vec<Tuple>>,
    /// The algorithm each division in the plan ran with, in execution
    /// order (empty for plans without a division).
    pub algorithms: Vec<Algorithm>,
    /// Whether the result came from the plan cache.
    pub cached: bool,
    /// The catalog relations the plan read and the versions it was
    /// pinned to, sorted by name.
    pub relations: Vec<(String, u64)>,
    /// Abstract operations this execution performed (zero when cached).
    pub ops: OpSnapshot,
    /// End-to-end latency in microseconds, queue wait included; stamped
    /// once by [`Service::exec_plan`], like [`QueryResponse::micros`].
    pub micros: u64,
    /// The whole-plan span tree, when the request asked for one and the
    /// plan was actually executed (cache hits execute nothing).
    pub profile: Option<QueryProfile>,
}

/// The embeddable division query service.
pub struct Service {
    catalog: Catalog,
    cache: ResultCache,
    plan_cache: PlanCache,
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
    /// Whether storage fault injection is active — if so, client
    /// restricted-divisor assertions are ignored (see
    /// [`QueryOptions::restricted_divisor`]).
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
            cache: ResultCache::new(config.cache_capacity),
            plan_cache: PlanCache::new(config.cache_capacity),
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
    /// purged.
    pub fn register(&self, name: &str, relation: Relation) -> Result<u64> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let version = self.catalog.register(name, relation);
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
    /// node role): the tuples become an ordinary catalog relation under
    /// `name`, and the shard coordinates are recorded for
    /// [`Service::shard_info`]. Returns the catalog version.
    pub fn install_shard(&self, name: &str, relation: Relation, info: ShardInfo) -> Result<u64> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if info.of == 0 || info.shard >= info.of {
            return Err(ServiceError::BadRequest(format!(
                "shard {} of {} is out of range",
                info.shard, info.of
            )));
        }
        let arity = relation.schema().arity();
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
        let version = self.catalog.register(name, relation);
        self.shards.lock().insert(name.to_owned(), info);
        self.cache.invalidate_relation(name);
        self.plan_cache.invalidate_relation(name);
        Ok(version)
    }

    /// Purges what the service keeps about a relation that left the
    /// catalog: its shard coordinates and its cached results.
    fn forget(&self, name: &str) {
        self.shards.lock().remove(name);
        self.cache.invalidate_relation(name);
        self.plan_cache.invalidate_relation(name);
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
    /// half of divisor partitioning, executed where the data lives;
    /// returns the schema, one bucket per part, and the filtered count.
    pub fn repartition(
        &self,
        name: &str,
        keys: &[usize],
        parts: usize,
        filter: Option<&BitVectorFilter>,
    ) -> Result<(Schema, Vec<Vec<Tuple>>, u64)> {
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
        let arity = relation.schema.arity();
        if let Some(&k) = keys.iter().find(|&&k| k >= arity) {
            return Err(ServiceError::BadRequest(format!(
                "partition key {k} out of range for arity {arity}"
            )));
        }
        let mut buckets: Vec<Vec<Tuple>> = vec![Vec::new(); parts];
        let mut filtered = 0u64;
        for tuple in relation.tuples.iter() {
            if let Some(f) = filter {
                if !f.may_match(tuple, keys) {
                    filtered += 1;
                    continue;
                }
            }
            buckets[route(tuple, keys, parts)].push(tuple.clone());
        }
        Ok((relation.schema.clone(), buckets, filtered))
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
        let arity = relation.schema.arity();
        if let Some(&k) = keys.iter().find(|&&k| k >= arity) {
            return Err(ServiceError::BadRequest(format!(
                "filter key {k} out of range for arity {arity}"
            )));
        }
        let mut filter = BitVectorFilter::new(bits);
        for tuple in relation.tuples.iter() {
            filter.insert_on(tuple, keys);
        }
        Ok((filter, relation.tuples.len() as u64))
    }

    /// `(name, version, cardinality)` of every registered relation.
    pub fn list_relations(&self) -> Vec<(String, u64, usize)> {
        self.catalog.list()
    }

    /// Runs `dividend ÷ divisor`, blocking until the quotient is ready,
    /// the request is rejected, or the query fails.
    pub fn divide(
        &self,
        dividend: &str,
        divisor: &str,
        options: &QueryOptions,
    ) -> Result<QueryResponse> {
        let start = Instant::now();
        match self.divide_inner(dividend, divisor, options, start) {
            Ok(mut response) => {
                // End-to-end latency is defined *here*, once: admission
                // through reply, queue wait included. The same value is
                // stamped on the response and recorded in the histogram —
                // workers and the cache path deliberately do not record
                // latency, so each query contributes exactly one sample.
                response.micros = self.record_success(start, response.profile.is_some());
                Ok(response)
            }
            Err(e) => {
                self.record_failure(&e);
                Err(e)
            }
        }
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

    /// Stamps a successful query into the shared latency/throughput
    /// metrics and onto the response — exactly once per query, queue wait
    /// included, shared by [`Service::divide`] and
    /// [`Service::exec_plan`].
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

    fn divide_inner(
        &self,
        dividend: &str,
        divisor: &str,
        options: &QueryOptions,
        start: Instant,
    ) -> Result<QueryResponse> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let deadline = options
            .deadline
            .or(self.default_deadline)
            .map(|d| start + d);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // A dead-on-arrival deadline is refused before any work — a
            // cache hit must not resurrect a query the client already
            // considers failed.
            return Err(ServiceError::DeadlineExceeded);
        }
        let dividend = self.catalog.get(dividend)?;
        let divisor = self.catalog.get(divisor)?;
        let spec = self.resolve_spec(&dividend, &divisor, options)?;
        let algorithm = match options.distribute {
            None => self.resolve_algorithm(&dividend, &divisor, &spec, options),
            Some(dist) => {
                // The parallel machine runs hash division on every node;
                // an explicit conflicting algorithm is unsatisfiable.
                if dist.nodes == 0 || dist.nodes > crate::proto::MAX_CLUSTER_NODES {
                    return Err(ServiceError::BadRequest(format!(
                        "distributed node count {} out of range",
                        dist.nodes
                    )));
                }
                let forced = Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                };
                match options.algorithm {
                    None => forced,
                    Some(alg) if alg == forced => forced,
                    Some(alg) => {
                        return Err(ServiceError::BadRequest(format!(
                            "distributed execution implements hash division only, not {alg:?}"
                        )))
                    }
                }
            }
        };
        validate_algorithm_for_inputs(algorithm, options.assume_unique)
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;

        let key = CacheKey {
            dividend: (dividend.name.clone(), dividend.version),
            divisor: (divisor.name.clone(), divisor.version),
            divisor_keys: spec.divisor_keys.clone(),
            quotient_keys: spec.quotient_keys.clone(),
            algorithm: algorithm_code(algorithm),
            assume_unique: options.assume_unique,
        };
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(QueryResponse {
                schema: hit.schema.clone(),
                tuples: hit.tuples.clone(),
                algorithm,
                cached: true,
                dividend_version: dividend.version,
                divisor_version: divisor.version,
                ops: OpSnapshot::default(),
                // Placeholder: `divide` stamps the end-to-end latency.
                micros: 0,
                profile: None,
            });
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

        let (reply_tx, reply_rx) = bounded(1);
        let job = QueryJob {
            dividend,
            divisor,
            spec,
            algorithm,
            assume_unique: options.assume_unique,
            deadline,
            profile: options.profile,
            distribute: options.distribute,
            mem_budget: options.mem_budget,
            reply: reply_tx,
        };
        {
            let queue = self.queue.lock();
            let Some(tx) = queue.as_ref() else {
                return Err(ServiceError::ShuttingDown);
            };
            match tx.try_send(Job::Divide(job)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => return Err(ServiceError::Overloaded),
                Err(TrySendError::Disconnected(_)) => return Err(ServiceError::ShuttingDown),
            }
        }
        let response = reply_rx
            .recv()
            .map_err(|_| ServiceError::Internal("worker exited before replying".into()))??;
        self.cache.insert(
            key,
            Arc::new(CachedResult {
                schema: response.schema.clone(),
                tuples: response.tuples.clone(),
                ops: response.ops,
            }),
        );
        Ok(response)
    }

    /// Parses, validates, and executes a composed query plan (the
    /// s-expression language of `reldiv-plan`), blocking until the
    /// result is ready, the request is rejected, or the plan fails.
    ///
    /// Every relation the plan reads is pinned at its current catalog
    /// version before binding, so a plan and a concurrent update never
    /// race; the plan cache keys on the canonical plan text plus those
    /// exact pins.
    pub fn exec_plan(&self, text: &str, options: &PlanOptions) -> Result<PlanResponse> {
        let start = Instant::now();
        match self.exec_plan_inner(text, options, start) {
            Ok(mut response) => {
                response.micros = self.record_success(start, response.profile.is_some());
                Ok(response)
            }
            Err(e) => {
                self.record_failure(&e);
                Err(e)
            }
        }
    }

    fn exec_plan_inner(
        &self,
        text: &str,
        options: &PlanOptions,
        start: Instant,
    ) -> Result<PlanResponse> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let deadline = options
            .deadline
            .or(self.default_deadline)
            .map(|d| start + d);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ServiceError::DeadlineExceeded);
        }
        if text.len() > crate::proto::MAX_PLAN_WIRE {
            return Err(ServiceError::BadRequest(format!(
                "plan text of {} bytes exceeds the {} byte limit",
                text.len(),
                crate::proto::MAX_PLAN_WIRE
            )));
        }
        let plan = reldiv_plan::parse(text).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        // Pin every relation the plan reads at its current version
        // (`Plan::relations` is sorted, so the pins — and the cache key
        // built from them — are canonical).
        let mut pinned = Vec::new();
        for name in plan.relations() {
            pinned.push(self.catalog.get(&name)?);
        }
        let bound = reldiv_plan::bind(&plan, &PinnedCatalog(&pinned))
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let key = PlanCacheKey {
            text: plan.print(),
            pins: pinned.iter().map(|r| (r.name.clone(), r.version)).collect(),
        };
        if let Some(hit) = self.plan_cache.get(&key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PlanResponse {
                schema: hit.schema.clone(),
                tuples: hit.tuples.clone(),
                algorithms: hit.algorithms.clone(),
                cached: true,
                relations: key.pins.clone(),
                ops: OpSnapshot::default(),
                // Placeholder: `exec_plan` stamps the end-to-end latency.
                micros: 0,
                profile: None,
            });
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

        let (reply_tx, reply_rx) = bounded(1);
        let job = PlanJob {
            bound,
            pinned,
            deadline,
            profile: options.profile,
            // Under fault injection a `(restricted no)` plan hint is
            // ignored, for the same reason client divide assertions are.
            honor_hints: !self.faulty,
            reply: reply_tx,
        };
        {
            let queue = self.queue.lock();
            let Some(tx) = queue.as_ref() else {
                return Err(ServiceError::ShuttingDown);
            };
            match tx.try_send(Job::Plan(job)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => return Err(ServiceError::Overloaded),
                Err(TrySendError::Disconnected(_)) => return Err(ServiceError::ShuttingDown),
            }
        }
        let response = reply_rx
            .recv()
            .map_err(|_| ServiceError::Internal("worker exited before replying".into()))??;
        self.plan_cache.insert(
            key,
            Arc::new(CachedPlan {
                schema: response.schema.clone(),
                tuples: response.tuples.clone(),
                algorithms: response.algorithms.clone(),
                ops: response.ops,
            }),
        );
        Ok(response)
    }

    fn resolve_spec(
        &self,
        dividend: &RelationVersion,
        divisor: &RelationVersion,
        options: &QueryOptions,
    ) -> Result<DivisionSpec> {
        match &options.spec {
            Some((divisor_keys, quotient_keys)) => DivisionSpec::new(
                &dividend.schema,
                &divisor.schema,
                divisor_keys.clone(),
                quotient_keys.clone(),
            ),
            None => DivisionSpec::trailing_divisor(&dividend.schema, &divisor.schema),
        }
        .map_err(|e| ServiceError::BadRequest(e.to_string()))
    }

    fn resolve_algorithm(
        &self,
        dividend: &RelationVersion,
        divisor: &RelationVersion,
        spec: &DivisionSpec,
        options: &QueryOptions,
    ) -> Algorithm {
        if let Some(alg) = options.algorithm {
            return alg;
        }
        // The paper's planner wants the quotient size; estimate it as the
        // dividend's group count upper bound |R| / max(1, |S|).
        let dividend_size = dividend.cardinality() as u64;
        let divisor_size = divisor.cardinality() as u64;
        let quotient_estimate = dividend_size / divisor_size.max(1);
        let _ = spec;
        // Default `restricted_divisor: true` — client relations carry no
        // referential-integrity guarantee, and the no-join aggregation
        // plans silently return a wrong quotient when dividend tuples
        // reference values outside the divisor. Exactness beats the
        // semi-join's cost. A client may assert integrity per query
        // (`Some(false)`), but the assertion is ignored while fault
        // injection is active: a fault-recovered relation may have lost
        // divisor tuples the dividend still references.
        let restricted = match options.restricted_divisor {
            Some(claim) if !self.faulty => claim,
            _ => true,
        };
        Algorithm::recommend(
            divisor_size,
            quotient_estimate.max(1),
            Some(dividend_size),
            restricted,
            options.assume_unique,
        )
    }

    /// Current counters.
    pub fn stats(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of cached division results.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of cached plan results.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
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

/// Binds plans against the exact relation versions pinned at admission
/// (not the live catalog, which a concurrent update may have moved on).
struct PinnedCatalog<'a>(&'a [Arc<RelationVersion>]);

impl reldiv_plan::CatalogSource for PinnedCatalog<'_> {
    fn lookup(&self, name: &str) -> Option<(Schema, u64)> {
        self.0
            .iter()
            .find(|r| r.name == name)
            .map(|r| (r.schema.clone(), r.cardinality() as u64))
    }
}
