//! The adapter: every call perf_report makes into a workspace crate
//! goes through this module, and nothing else in the benchmark names a
//! workspace type. The public surface used here is listed in
//! `README.md`; when ROADMAP item 3 consolidates those APIs, this file
//! is the one-file follow-up.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use reldiv_cluster::{ClusterQueryOptions, Coordinator, LocalCluster};
use reldiv_core::api::{divide_with_report, load_source, DivisionConfig, OverflowPolicy};
use reldiv_core::{Algorithm, DivisionSpec, HashDivisionMode};
use reldiv_exec::agg::HashCountAggregate;
use reldiv_exec::sort::{Sort, SortConfig, SortMode};
use reldiv_exec::BoxedOp;
use reldiv_parallel::{parallel_divide, ClusterConfig};
use reldiv_plan::{CatalogSource, ExecOptions, PlanError, SourceProvider};
use reldiv_rel::counters::OpScope;
use reldiv_rel::{Batch, RecordCodec, Schema, Tuple, Value};
use reldiv_service::proto::{self, Reply, Request};
use reldiv_service::{DivisionClient, InProcClient, ServerHandle, Service, ServiceConfig};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{IoCostParams, StorageManager, StorageRef};
use reldiv_workload::{zipf_workload, WorkloadSpec};

pub use reldiv_cluster::{ClusterResponse, LinkStats, Strategy};
pub use reldiv_core::api::Source;
pub use reldiv_core::{DegradationReport, ExecMode};
pub use reldiv_plan::{Bound, Plan, PlanOutput};
pub use reldiv_rel::counters::OpSnapshot;
pub use reldiv_rel::Relation;
pub use reldiv_service::{
    DivideReply, DivideRequest, ExecPlanRequest, MetricsSnapshot, PlanReply, TcpClient,
};
pub use reldiv_storage::{BufferStats, IoStats};
pub use reldiv_workload::Workload;

/// Every adapter call reports failure as text: the harness only counts
/// and prints failures, it never branches on their kind.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The four algorithm families of the paper's title.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Naive,
    SortAgg,
    HashAgg,
    HashDiv,
}

impl Family {
    pub const ALL: [Family; 4] = [
        Family::Naive,
        Family::SortAgg,
        Family::HashAgg,
        Family::HashDiv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Naive => "naive",
            Family::SortAgg => "sort_agg",
            Family::HashAgg => "hash_agg",
            Family::HashDiv => "hash_div",
        }
    }

    /// The variant that is correct on every input: the aggregation
    /// plans with their semi-join, hash-division in its standard mode.
    pub fn algorithm(self) -> Algorithm {
        match self {
            Family::Naive => Algorithm::Naive,
            Family::SortAgg => Algorithm::SortAggregation { join: true },
            Family::HashAgg => Algorithm::HashAggregation { join: true },
            Family::HashDiv => Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
        }
    }

    /// The family an algorithm belongs to.
    pub fn of(algorithm: Algorithm) -> Family {
        match algorithm {
            Algorithm::Naive => Family::Naive,
            Algorithm::SortAggregation { .. } => Family::SortAgg,
            Algorithm::HashAggregation { .. } => Family::HashAgg,
            Algorithm::HashDivision { .. } => Family::HashDiv,
        }
    }
}

// ---------------------------------------------------------------- inputs

/// `R = Q × S` plus the variations the workloads ask for.
pub fn generate(
    divisor_size: u64,
    quotient_size: u64,
    noise_per_group: u64,
    incomplete_groups: u64,
    seed: u64,
) -> Workload {
    WorkloadSpec {
        divisor_size,
        quotient_size,
        noise_per_group,
        incomplete_groups,
        ..WorkloadSpec::default()
    }
    .generate(seed)
}

/// Complete groups plus Zipf-sized incomplete ones.
pub fn generate_zipf(
    divisor_size: u64,
    complete: u64,
    skewed: u64,
    theta: f64,
    seed: u64,
) -> Workload {
    zipf_workload(divisor_size, complete, skewed, theta, seed)
}

/// The first column of every tuple as an integer: all quotients in this
/// benchmark are single-column `quotient-id` relations.
fn first_ints(tuples: &[Tuple]) -> Vec<i64> {
    tuples
        .iter()
        .map(|t| match t.value(0) {
            Value::Int(i) => *i,
            Value::Str(_) => i64::MIN,
        })
        .collect()
}

/// A reply carrying a quotient, whatever layer produced it.
pub trait Quotient {
    fn ids(&self) -> Vec<i64>;
}

impl Quotient for Relation {
    fn ids(&self) -> Vec<i64> {
        first_ints(self.tuples())
    }
}

impl Quotient for (Relation, DegradationReport) {
    fn ids(&self) -> Vec<i64> {
        self.0.ids()
    }
}

impl Quotient for PlanOutput {
    fn ids(&self) -> Vec<i64> {
        self.relation.ids()
    }
}

impl Quotient for DivideReply {
    fn ids(&self) -> Vec<i64> {
        first_ints(&self.tuples)
    }
}

impl Quotient for PlanReply {
    fn ids(&self) -> Vec<i64> {
        first_ints(&self.tuples)
    }
}

impl Quotient for ClusterResponse {
    fn ids(&self) -> Vec<i64> {
        first_ints(&self.tuples)
    }
}

// ---------------------------------------------------------------- engine

/// Which storage geometry an engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// The paper's experiment: 256 KB pool, 100 KB work memory.
    Paper,
    /// Ample memory: storage performs no transfers.
    Large,
    /// The paper's pages and 256 KB pool with ample work memory, so a
    /// per-query budget is what binds and spills reach the disk.
    SmallPool,
}

/// One storage manager and the divisions run over it.
pub struct Engine {
    storage: StorageRef,
}

/// How a division should run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DivideOpts {
    pub assume_unique: bool,
    pub mem_budget: Option<usize>,
    pub batch: bool,
}

impl Engine {
    pub fn new(kind: StorageKind) -> Engine {
        let config = match kind {
            StorageKind::Paper => StorageConfig::paper(),
            StorageKind::Large => StorageConfig::large(),
            StorageKind::SmallPool => StorageConfig {
                work_memory_bytes: StorageConfig::large().work_memory_bytes,
                ..StorageConfig::paper()
            },
        };
        Engine {
            storage: StorageManager::shared(config),
        }
    }

    /// An in-memory source over `relation`.
    pub fn mem_source(&self, relation: &Relation) -> Source {
        Source::from_relation(relation)
    }

    /// Loads `relation` into a record file (the append path).
    pub fn load(&self, relation: &Relation) -> Res<Source> {
        load_source(&self.storage, relation).map_err(text)
    }

    /// Cold start: flushes and evicts every page, zeroes the statistics.
    pub fn evict_and_reset(&self) -> Res<()> {
        let mut sm = self.storage.borrow_mut();
        sm.evict_all().map_err(text)?;
        sm.reset_stats();
        Ok(())
    }

    pub fn io_stats(&self) -> IoStats {
        self.storage.borrow().io_stats()
    }

    pub fn buffer_stats(&self) -> BufferStats {
        self.storage.borrow().buffer_stats()
    }

    /// `dividend ÷ divisor` on the trailing-divisor convention.
    pub fn divide(
        &self,
        dividend: &Source,
        divisor: &Source,
        family: Family,
        opts: DivideOpts,
    ) -> Res<(Relation, DegradationReport)> {
        let spec =
            DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).map_err(text)?;
        let config = DivisionConfig {
            assume_unique: opts.assume_unique,
            mem_budget: opts.mem_budget,
            overflow: OverflowPolicy::Auto,
            exec: if opts.batch {
                ExecMode::Batch
            } else {
                ExecMode::Tuple
            },
            ..DivisionConfig::default()
        };
        divide_with_report(
            &self.storage,
            dividend,
            divisor,
            &spec,
            family.algorithm(),
            &config,
        )
        .map_err(text)
    }

    fn drain(mut op: BoxedOp) -> Res<usize> {
        op.open().map_err(text)?;
        let mut n = 0;
        let result = loop {
            match op.next() {
                Ok(Some(t)) => {
                    std::hint::black_box(&t);
                    n += 1;
                }
                Ok(None) => break Ok(n),
                Err(e) => break Err(text(e)),
            }
        };
        op.close().map_err(text)?;
        result
    }

    /// Drains a scan of `source`; returns the tuple count.
    pub fn scan(&self, source: &Source) -> Res<usize> {
        Engine::drain(source.scan(&self.storage))
    }

    /// Sorts `source` on all its columns with the default sort memory.
    pub fn sort(&self, source: &Source) -> Res<usize> {
        let keys: Vec<usize> = (0..source.schema().arity()).collect();
        let sort = Sort::new(
            self.storage.clone(),
            source.scan(&self.storage),
            keys,
            SortMode::Plain,
            SortConfig::default(),
        )
        .map_err(text)?;
        Engine::drain(Box::new(sort))
    }

    /// Hash group-count of `source` on its first column.
    pub fn hash_group_count(&self, source: &Source) -> Res<usize> {
        let pool = self.storage.borrow().memory();
        let agg = HashCountAggregate::new(source.scan(&self.storage), vec![0], pool)
            .map_err(text)?
            .with_spill(self.storage.clone());
        Engine::drain(Box::new(agg))
    }

    /// Plan execution options over this engine's storage: batch engine,
    /// planner's own algorithm choice.
    fn exec_options(&self, mem_budget: Option<usize>) -> ExecOptions {
        ExecOptions {
            mem_budget,
            ..ExecOptions::new(self.storage.clone())
        }
    }
}

/// Modeled Table 3 I/O cost of `stats`. Reported beside the timings,
/// never added to one.
pub fn modeled_io_ms(stats: &IoStats) -> f64 {
    IoCostParams::paper().cost_ms(stats)
}

/// Runs `f` and returns its abstract-operation counts.
pub fn count_ops<T>(f: impl FnOnce() -> T) -> (T, OpSnapshot) {
    let scope = OpScope::begin();
    let out = f();
    (out, scope.finish())
}

/// The cost model's pick for a division of these sizes under the
/// conservative assumptions the service makes.
pub fn recommend(divisor_size: u64, quotient_size: u64, dividend_size: u64) -> Family {
    Family::of(Algorithm::recommend(
        divisor_size,
        quotient_size,
        Some(dividend_size),
        true,
        false,
    ))
}

// ------------------------------------------------------------------ plan

/// The plan every grid class runs: a bare division.
pub const DIVIDE_PLAN: &str = "(divide (on divisor-id) (scan r) (scan s))";

/// Division behind a selection that drops the generator's noise tuples
/// (divisor ids from 2 000 000 up, none of them in the divisor), so the
/// quotient is the unfiltered one.
pub const FILTER_DIVIDE_PLAN: &str =
    "(divide (on divisor-id) (filter (< divisor-id 2000000) (scan r)) (scan s))";

/// A bench-local catalog over sources of either kind, serving the
/// binder its statistics and the executor its scans.
#[derive(Default)]
pub struct SourceCatalog {
    entries: HashMap<String, (Source, u64)>,
}

impl SourceCatalog {
    pub fn insert(&mut self, name: &str, source: Source, rows: u64) {
        self.entries.insert(name.to_owned(), (source, rows));
    }
}

impl CatalogSource for SourceCatalog {
    fn lookup(&self, name: &str) -> Option<(Schema, u64)> {
        self.entries
            .get(name)
            .map(|(source, rows)| (source.schema().clone(), *rows))
    }
}

impl SourceProvider for SourceCatalog {
    fn source(&mut self, name: &str) -> reldiv_plan::Result<Source> {
        self.entries
            .get(name)
            .map(|(source, _)| source.clone())
            .ok_or_else(|| PlanError::Validate(format!("unknown relation {name:?}")))
    }
}

pub fn plan_parse(text_: &str) -> Res<Plan> {
    reldiv_plan::parse(text_).map_err(text)
}

pub fn plan_bind(plan: &Plan, catalog: &SourceCatalog) -> Res<Bound> {
    reldiv_plan::bind(plan, catalog).map_err(text)
}

pub fn plan_execute(
    bound: &Bound,
    catalog: &mut SourceCatalog,
    engine: &Engine,
    mem_budget: Option<usize>,
) -> Res<PlanOutput> {
    reldiv_plan::execute(bound, catalog, &engine.exec_options(mem_budget)).map_err(text)
}

// ------------------------------------------------------------ rel probes

/// Encodes every tuple, one record after the other.
pub fn codec_encode(relation: &Relation) -> Res<Vec<u8>> {
    let codec = RecordCodec::new(relation.schema().clone());
    let mut records = Vec::with_capacity(relation.cardinality() * codec.record_width());
    for t in relation.tuples() {
        codec.encode_into(t, &mut records).map_err(text)?;
    }
    Ok(records)
}

/// Decodes every record of `records`; returns the tuple count.
pub fn codec_decode(schema: &Schema, records: &[u8]) -> Res<usize> {
    let codec = RecordCodec::new(schema.clone());
    let mut n = 0;
    for record in records.chunks_exact(codec.record_width()) {
        std::hint::black_box(codec.decode(record).map_err(text)?);
        n += 1;
    }
    Ok(n)
}

/// The relation as columnar batches of the engine's batch size.
pub fn to_batches(relation: &Relation) -> Vec<Batch> {
    relation
        .tuples()
        .chunks(reldiv_exec::batch::DEFAULT_BATCH_SIZE)
        .map(|chunk| {
            let mut b = Batch::with_capacity(relation.schema().clone(), chunk.len());
            for t in chunk {
                b.push_tuple(t);
            }
            b
        })
        .collect()
}

/// Bulk-hashes every row on the first column.
pub fn hash_rows(batches: &[Batch]) -> u64 {
    batches
        .iter()
        .map(|b| b.hash_rows(&[0]).iter().fold(0u64, |a, h| a ^ h))
        .fold(0, |a, h| a ^ h)
}

/// Hashes every tuple on the first column, one call per tuple.
pub fn tuple_hash(relation: &Relation) -> u64 {
    relation
        .tuples()
        .iter()
        .fold(0u64, |a, t| a ^ t.hash_on(&[0]))
}

// --------------------------------------------------------------- service

/// A `Service` behind a `ServerHandle` on loopback.
pub struct Deployment {
    server: ServerHandle,
}

impl Deployment {
    /// Starts a service with `workers` workers; `cache` off makes every
    /// request execute.
    pub fn start(workers: usize, cache: bool) -> Res<Deployment> {
        let config = ServiceConfig {
            workers,
            cache_capacity: if cache { 256 } else { 0 },
            ..ServiceConfig::default()
        };
        let service = Service::start(config).map_err(text)?;
        let server = ServerHandle::start(service, "127.0.0.1:0").map_err(text)?;
        Ok(Deployment { server })
    }

    pub fn tcp(&self) -> Res<TcpClient> {
        TcpClient::connect(self.server.local_addr()).map_err(text)
    }

    pub fn inproc(&self) -> InProcClient {
        InProcClient::new(Arc::clone(self.server.service()))
    }

    pub fn stats(&self) -> MetricsSnapshot {
        self.server.service().stats()
    }
}

/// A division request; `family` `None` asks the service to choose.
pub fn divide_request(dividend: &str, divisor: &str, family: Option<Family>) -> DivideRequest {
    DivideRequest {
        dividend: dividend.to_owned(),
        divisor: divisor.to_owned(),
        algorithm: family.map(Family::algorithm),
        assume_unique: false,
        spec: None,
        deadline_ms: None,
        profile: false,
        distribute: None,
        restricted: None,
        mem_budget: None,
    }
}

/// A plan request with `r`/`s` replaced by catalog names.
pub fn plan_request(template: &str, dividend: &str, divisor: &str) -> ExecPlanRequest {
    ExecPlanRequest {
        plan: template
            .replace("(scan r)", &format!("(scan {dividend})"))
            .replace("(scan s)", &format!("(scan {divisor})")),
        deadline_ms: None,
        profile: false,
    }
}

/// The client operations the workloads use, over either transport.
pub fn ping(client: &mut dyn DivisionClient) -> Res<()> {
    client.ping().map_err(text)
}

pub fn register(client: &mut dyn DivisionClient, name: &str, relation: &Relation) -> Res<u64> {
    client.register(name, relation).map_err(text)
}

pub fn divide(client: &mut dyn DivisionClient, request: &DivideRequest) -> Res<DivideReply> {
    client.divide(request).map_err(text)
}

pub fn exec_plan(client: &mut dyn DivisionClient, request: &ExecPlanRequest) -> Res<PlanReply> {
    client.exec_plan(request).map_err(text)
}

/// The register frame for `relation`, encoded.
pub fn proto_encode_register(name: &str, relation: &Relation) -> Res<Vec<u8>> {
    Request::Register {
        name: name.to_owned(),
        schema: relation.schema().clone(),
        tuples: relation.tuples().to_vec(),
    }
    .encode()
    .map_err(text)
}

/// Decodes a request frame (what the server does on receipt).
pub fn proto_decode_request(frame: &[u8]) -> Res<()> {
    Request::decode(frame)
        .map(|r| drop(std::hint::black_box(r)))
        .map_err(text)
}

/// A `Divided` reply frame carrying `reply`, encoded.
pub fn proto_encode_reply(reply: &DivideReply) -> Res<Vec<u8>> {
    proto::encode_response(&Ok(Reply::Divided(reply.clone()))).map_err(text)
}

/// Decodes a response frame (what the client does on receipt).
pub fn proto_decode_reply(frame: &[u8]) -> Res<()> {
    proto::decode_response(frame)
        .map(|r| drop(std::hint::black_box(r)))
        .map_err(text)
}

// --------------------------------------------------------------- cluster

/// `LocalCluster` nodes (one worker each) and one coordinator.
pub struct Cluster {
    // Field order is drop order: the coordinator's links close before
    // the nodes stop.
    coordinator: Coordinator,
    _nodes: LocalCluster,
}

/// Bytes and messages over all links, both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub bytes: u64,
    pub messages: u64,
}

impl Cluster {
    pub fn start(nodes: usize, replication: usize, node_cache: bool) -> Res<Cluster> {
        let local = LocalCluster::start_with(nodes, |_| ServiceConfig {
            workers: 1,
            cache_capacity: if node_cache { 256 } else { 0 },
            ..ServiceConfig::default()
        })
        .map_err(text)?;
        let mut coordinator = local
            .coordinator(Some(Duration::from_secs(60)))
            .map_err(text)?;
        coordinator.set_replication(replication).map_err(text)?;
        Ok(Cluster {
            coordinator,
            _nodes: local,
        })
    }

    /// Registers `relation` sharded on `shard_key`, replicated.
    pub fn register(&mut self, name: &str, relation: &Relation, shard_key: usize) -> Res<()> {
        self.coordinator
            .register(name, relation, &[shard_key])
            .map_err(text)
    }

    pub fn divide(
        &mut self,
        dividend: &str,
        divisor: &str,
        strategy: Strategy,
        filter_bits: Option<usize>,
    ) -> Res<ClusterResponse> {
        let options = ClusterQueryOptions {
            strategy,
            bit_vector_bits: filter_bits,
            ..ClusterQueryOptions::default()
        };
        self.coordinator
            .divide(dividend, divisor, &options)
            .map_err(text)
    }

    pub fn traffic(&self) -> Traffic {
        let mut total = LinkStats::default();
        for link in self.coordinator.link_stats() {
            total.absorb(&link);
        }
        let (messages, bytes) = total.total();
        Traffic { bytes, messages }
    }

    /// `(failovers, replica_retries)` since the coordinator started.
    pub fn robustness(&self) -> (u64, u64) {
        let m = self.coordinator.robustness_metrics();
        (m.failovers, m.replica_retries)
    }
}

/// The in-process thread machine: the cluster's zero-latency double.
/// Returns the quotient with the bytes and messages it shipped.
pub fn parallel(
    dividend: &Relation,
    divisor: &Relation,
    nodes: usize,
    strategy: Strategy,
) -> Res<(Relation, Traffic)> {
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).map_err(text)?;
    let config = ClusterConfig {
        nodes,
        strategy,
        node_storage: StorageConfig::large(),
        ..ClusterConfig::default()
    };
    let (quotient, report) = parallel_divide(dividend, divisor, &spec, &config).map_err(text)?;
    Ok((
        quotient,
        Traffic {
            bytes: report.network.bytes,
            messages: report.network.messages,
        },
    ))
}
