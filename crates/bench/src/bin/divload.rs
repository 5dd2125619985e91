//! `divload` — closed-loop load generator for the division query service.
//!
//! Drives an embedded [`reldiv_service::Service`] through the in-process
//! client with a mix of repeated and distinct division queries while an
//! updater thread re-registers relations underneath them, and verifies
//! **every** response against a brute-force division of the exact input
//! versions the service reports — a response computed from (or cached
//! for) anything but the pinned versions fails the run.
//!
//! ```text
//! cargo run --release -p reldiv-bench --bin divload -- \
//!     [--queries N] [--clients N] [--workers N] [--queue N] [--cache N] \
//!     [--update-every N] [--seed N]
//! ```
//!
//! Prints throughput, latency percentiles, cache hit rate, rejection
//! count, and the verification tally; exits non-zero on any incorrect
//! quotient.
//!
//! **Cluster mode** drives a shared-nothing deployment instead of the
//! embedded service: `--cluster N` spawns N in-process TCP nodes, or
//! `--node HOST:PORT` (repeatable) connects to already-running
//! `reldiv-serve` processes. Queries go through the distributed
//! coordinator with `--strategy quotient|divisor|both` and optional
//! `--filter-bits N` bit-vector filtering; every reply is verified
//! against a brute-force oracle and per-link wire traffic is reported.
//! `--shutdown-nodes` sends each external node a clean shutdown at the
//! end (the CI smoke job's teardown).
//!
//! **Plan mode** (`--plan`) drives `ExecPlan` instead of plain
//! divisions: a mix of composed plans — filters, joins, projections,
//! divisions, HAVING COUNT — over the paper's university relations,
//! with catalog churn underneath, every reply verified against the
//! `reldiv-plan` reference interpreter at the exact relation versions
//! the service reports it pinned. Runs against the embedded service, or
//! against one already-running `reldiv-serve` with `--node HOST:PORT`
//! (the CI plan-smoke job).

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_rel::{RecordCodec, Relation, Tuple};
use reldiv_service::{
    DivideRequest, DivisionClient, InProcClient, QueryProfile, Service, ServiceConfig, ServiceError,
};
use reldiv_storage::FaultPlan;
use reldiv_workload::{brute_force_divide, WorkloadSpec};

const DIVIDENDS: [&str; 4] = ["r0", "r1", "r2", "r3"];
const DIVISORS: [&str; 2] = ["s0", "s1"];

/// Algorithms that are exactly correct for *any* input pair, including
/// the restricted-divisor case this load mix produces (dividends and
/// divisors update independently). The no-join aggregation columns are
/// excluded by the same rule the paper's planner applies.
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::SortAggregation { join: true },
    Algorithm::HashAggregation { join: true },
    Algorithm::HashDivision {
        mode: HashDivisionMode::Standard,
    },
    Algorithm::HashDivision {
        mode: HashDivisionMode::EarlyOut,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum StrategyChoice {
    Quotient,
    Divisor,
    Both,
}

struct Args {
    queries: u64,
    clients: usize,
    workers: usize,
    queue: usize,
    cache: usize,
    update_every: u64,
    seed: u64,
    fault_rate: f64,
    deadline_ms: Option<u64>,
    profile: bool,
    cluster: usize,
    nodes: Vec<String>,
    strategy: StrategyChoice,
    filter_bits: Option<usize>,
    shutdown_nodes: bool,
    plan_mode: bool,
    kill_after: Option<u64>,
    replication: Option<usize>,
    mem_budget: Option<u64>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            queries: 10_000,
            clients: 8,
            workers: 4,
            queue: 16,
            cache: 128,
            update_every: 250,
            seed: 1989,
            fault_rate: 0.0,
            deadline_ms: None,
            profile: false,
            cluster: 0,
            nodes: Vec::new(),
            strategy: StrategyChoice::Both,
            filter_bits: None,
            shutdown_nodes: false,
            plan_mode: false,
            kill_after: None,
            replication: None,
            mem_budget: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: divload [--queries N] [--clients N] [--workers N] [--queue N] \
         [--cache N] [--update-every N] [--seed N] [--fault-rate P] [--deadline-ms MS] \
         [--profile] [--mem-budget BYTES]\n\
         cluster mode: [--cluster N | --node HOST:PORT ...] [--strategy quotient|divisor|both] \
         [--filter-bits N] [--shutdown-nodes] [--replication K] [--kill-after N]\n\
         plan mode: --plan [--node HOST:PORT] [--queries N] ...\n\
         --fault-rate P injects transient disk faults with probability P per transfer\n\
         --deadline-ms MS applies a per-query deadline\n\
         --profile requests EXPLAIN ANALYZE span trees and prints one at the end\n\
         --mem-budget BYTES caps each division's working memory, forcing adaptive \
         degradation under contention (spill counters are printed at the end)\n\
         --plan drives ExecPlan with a composed-plan mix, oracle-verified per pinned version\n\
         --cluster N spawns N in-process TCP nodes and divides through the coordinator\n\
         --node HOST:PORT uses an already-running node server (repeat per node)\n\
         --filter-bits N applies bit-vector filtering before tuples are shipped\n\
         --shutdown-nodes sends every node a clean shutdown when the run ends\n\
         --replication K stores each fragment on K nodes (default 2 with --kill-after)\n\
         --kill-after N hard-kills a random node once N requests completed; every \
         in-flight and subsequent request must still verify (needs --cluster and K >= 2)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args();
    args.next();
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| -> u64 {
            let Some(value) = args.next() else { usage() };
            match value.parse() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("bad value for {flag}: {value:?}");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--queries" => parsed.queries = next("--queries"),
            "--clients" => parsed.clients = next("--clients") as usize,
            "--workers" => parsed.workers = next("--workers") as usize,
            "--queue" => parsed.queue = next("--queue") as usize,
            "--cache" => parsed.cache = next("--cache") as usize,
            "--update-every" => parsed.update_every = next("--update-every"),
            "--seed" => parsed.seed = next("--seed"),
            "--fault-rate" => {
                let Some(value) = args.next() else { usage() };
                match value.parse() {
                    Ok(v) => parsed.fault_rate = v,
                    Err(_) => {
                        eprintln!("bad value for --fault-rate: {value:?}");
                        usage();
                    }
                }
            }
            "--deadline-ms" => parsed.deadline_ms = Some(next("--deadline-ms")),
            "--profile" => parsed.profile = true,
            "--cluster" => parsed.cluster = next("--cluster") as usize,
            "--node" => {
                let Some(addr) = args.next() else { usage() };
                parsed.nodes.push(addr);
            }
            "--strategy" => {
                let Some(value) = args.next() else { usage() };
                parsed.strategy = match value.as_str() {
                    "quotient" => StrategyChoice::Quotient,
                    "divisor" => StrategyChoice::Divisor,
                    "both" => StrategyChoice::Both,
                    other => {
                        eprintln!("bad value for --strategy: {other:?}");
                        usage();
                    }
                };
            }
            "--filter-bits" => parsed.filter_bits = Some(next("--filter-bits") as usize),
            "--shutdown-nodes" => parsed.shutdown_nodes = true,
            "--plan" => parsed.plan_mode = true,
            "--kill-after" => parsed.kill_after = Some(next("--kill-after")),
            "--mem-budget" => parsed.mem_budget = Some(next("--mem-budget")),
            "--replication" => parsed.replication = Some(next("--replication") as usize),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    parsed
}

fn generate(name: &str, seed: u64) -> Relation {
    let dividend = name.starts_with('r');
    let w = WorkloadSpec {
        divisor_size: 4 + seed % 5,
        quotient_size: 20 + seed % 30,
        incomplete_groups: seed % 10,
        incomplete_fill: 0.5,
        noise_per_group: 0,
        ..WorkloadSpec::default()
    }
    .generate(seed);
    if dividend {
        w.dividend
    } else {
        w.divisor
    }
}

/// Sorted record-encoded quotient for one (dividend, divisor) version pair.
type CanonicalQuotient = Arc<Vec<Vec<u8>>>;

/// Ground truth shared by clients and the updater: every relation
/// version ever registered, plus memoized expected quotients per
/// (dividend version, divisor version) pair.
#[derive(Default)]
struct Oracle {
    versions: Mutex<HashMap<u64, Arc<Relation>>>,
    expected: Mutex<HashMap<(u64, u64), CanonicalQuotient>>,
}

impl Oracle {
    /// Registers `relation` under `name`, recording the version the
    /// catalog assigned.
    fn register(&self, client: &mut InProcClient, name: &str, relation: Relation) {
        let relation = Arc::new(relation);
        let version = client
            .register(name, &relation)
            .expect("registration only fails during shutdown");
        self.versions.lock().unwrap().insert(version, relation);
    }

    /// The relation a version number refers to. A client can observe a
    /// version a beat before the updater records it; spin briefly.
    fn relation(&self, version: u64) -> Arc<Relation> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(r) = self.versions.lock().unwrap().get(&version) {
                return r.clone();
            }
            assert!(
                Instant::now() < deadline,
                "version {version} never appeared in the oracle"
            );
            std::thread::yield_now();
        }
    }

    /// Canonical byte image of the true quotient for a version pair.
    fn expected(&self, dividend_v: u64, divisor_v: u64) -> CanonicalQuotient {
        if let Some(hit) = self.expected.lock().unwrap().get(&(dividend_v, divisor_v)) {
            return hit.clone();
        }
        let dividend = self.relation(dividend_v);
        let divisor = self.relation(divisor_v);
        let quotient = brute_force_divide(&dividend, &divisor, &[1], &[0]);
        let schema = dividend
            .schema()
            .project(&[0])
            .expect("dividend has a quotient column");
        let bytes = Arc::new(canonical_bytes(&RecordCodec::new(schema), &quotient));
        self.expected
            .lock()
            .unwrap()
            .insert((dividend_v, divisor_v), bytes.clone());
        bytes
    }
}

fn canonical_bytes(codec: &RecordCodec, tuples: &[Tuple]) -> Vec<Vec<u8>> {
    let mut records: Vec<Vec<u8>> = tuples
        .iter()
        .map(|t| codec.encode(t).expect("tuples fit their schema"))
        .collect();
    records.sort();
    records
}

/// Drives an N-node cluster through the distributed coordinator: the
/// same closed-loop verify-everything discipline as the in-process run,
/// but with relations sharded across TCP nodes, catalog updates going
/// through `register`, and wire traffic accounted per link.
fn run_cluster(args: &Args) -> ExitCode {
    use reldiv_cluster::{ClusterQueryOptions, Coordinator, LocalCluster, Strategy};

    if args.kill_after.is_some() && args.cluster == 0 {
        eprintln!("divload: --kill-after needs --cluster (it cannot kill external nodes)");
        return ExitCode::FAILURE;
    }
    // A fragment must survive its primary dying: killing needs replicas.
    let replication = args
        .replication
        .unwrap_or(if args.kill_after.is_some() { 2 } else { 1 });
    if args.kill_after.is_some() && replication < 2 {
        eprintln!("divload: --kill-after needs --replication >= 2 to keep every fragment alive");
        return ExitCode::FAILURE;
    }

    // Spawn local nodes or resolve external ones; either way the
    // coordinator only ever speaks TCP frames to them.
    let local: Option<Arc<Mutex<LocalCluster>>>;
    let mut coordinator = if args.nodes.is_empty() {
        let cluster = match LocalCluster::start_with(args.cluster, |_| ServiceConfig {
            workers: args.workers,
            queue_depth: args.queue,
            cache_capacity: args.cache,
            ..ServiceConfig::default()
        }) {
            Ok(cluster) => cluster,
            Err(e) => {
                eprintln!("divload: cannot start the cluster: {e}");
                return ExitCode::FAILURE;
            }
        };
        let coordinator = match cluster.coordinator(Some(Duration::from_secs(60))) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("divload: cannot connect the coordinator: {e}");
                return ExitCode::FAILURE;
            }
        };
        local = Some(Arc::new(Mutex::new(cluster)));
        coordinator
    } else {
        local = None;
        use std::net::ToSocketAddrs;
        let mut addrs = Vec::new();
        for node in &args.nodes {
            match node.to_socket_addrs().ok().and_then(|mut it| it.next()) {
                Some(addr) => addrs.push(addr),
                None => {
                    eprintln!("divload: cannot resolve node address {node:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        match Coordinator::connect(&addrs, Some(Duration::from_secs(60))) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("divload: cannot connect to the nodes: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(e) = coordinator.set_replication(replication) {
        eprintln!("divload: --replication {replication}: {e}");
        return ExitCode::FAILURE;
    }

    // The chaos killer: once `--kill-after` queries have completed, a
    // random node is hard-killed from another thread — possibly while a
    // query is mid-flight. Failover must keep every reply exact.
    let completed_queries = Arc::new(AtomicU64::new(0));
    let killed_node = Arc::new(AtomicU64::new(u64::MAX));
    let kill_done = Arc::new(AtomicBool::new(false));
    let killer = args.kill_after.and_then(|after| {
        let cluster = local.clone()?;
        let completed = completed_queries.clone();
        let killed = killed_node.clone();
        let done = kill_done.clone();
        let victim = StdRng::seed_from_u64(args.seed ^ 0x6B11).gen_range(0..args.cluster) as u64;
        Some(std::thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                if completed.load(Ordering::Acquire) >= after {
                    cluster.lock().unwrap().kill(victim as usize);
                    killed.store(victim, Ordering::Release);
                    return;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }))
    });

    // Current contents of every named relation, for oracle checks; the
    // expected-quotient memo is invalidated whenever a name updates.
    let mut current: HashMap<&'static str, Relation> = HashMap::new();
    let mut expected: HashMap<(String, String), Arc<Vec<String>>> = HashMap::new();
    for (i, name) in DIVIDENDS.iter().chain(DIVISORS.iter()).enumerate() {
        let relation = generate(name, args.seed + i as u64);
        if let Err(e) = coordinator.register(name, &relation, &[0]) {
            eprintln!("divload: register {name}: {e}");
            return ExitCode::FAILURE;
        }
        current.insert(name, relation);
    }
    let canon = |tuples: &[Tuple]| -> Vec<String> {
        let mut out: Vec<String> = tuples.iter().map(|t| format!("{t:?}")).collect();
        out.sort();
        out
    };

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0C10_57E2);
    let mut incorrect = 0u64;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(args.queries as usize);
    let mut bytes = 0u64;
    let mut messages = 0u64;
    let mut filtered = 0u64;
    let every = args.update_every.max(1);
    let start = Instant::now();
    for q in 0..args.queries {
        if q > 0 && q % every == 0 {
            // Catalog churn: replace one relation under the running load.
            let names: [&'static str; 6] = ["r0", "r1", "r2", "r3", "s0", "s1"];
            let name = names[rng.gen_range(0..names.len())];
            let relation = generate(name, rng.gen_range(0..1u64 << 40));
            if let Err(e) = coordinator.register(name, &relation, &[0]) {
                eprintln!("divload: re-register {name}: {e}");
                return ExitCode::FAILURE;
            }
            current.insert(name, relation);
            expected.retain(|(d, s), _| d != name && s != name);
        }
        let dividend = DIVIDENDS[rng.gen_range(0..DIVIDENDS.len())];
        let divisor = DIVISORS[rng.gen_range(0..DIVISORS.len())];
        let strategy = match args.strategy {
            StrategyChoice::Quotient => Strategy::QuotientPartitioning,
            StrategyChoice::Divisor => Strategy::DivisorPartitioning,
            StrategyChoice::Both if q % 2 == 0 => Strategy::QuotientPartitioning,
            StrategyChoice::Both => Strategy::DivisorPartitioning,
        };
        let options = ClusterQueryOptions {
            strategy,
            // Filtering is a divisor-partitioning mechanism.
            bit_vector_bits: (strategy == Strategy::DivisorPartitioning)
                .then_some(args.filter_bits)
                .flatten(),
            spec: None,
            profile: false,
        };
        let response = match coordinator.divide(dividend, divisor, &options) {
            Ok(response) => response,
            Err(e) => {
                eprintln!("divload: {dividend} ÷ {divisor} ({strategy:?}): {e}");
                return ExitCode::FAILURE;
            }
        };
        let key = (dividend.to_string(), divisor.to_string());
        let want = expected
            .entry(key)
            .or_insert_with(|| {
                Arc::new(canon(&brute_force_divide(
                    &current[dividend],
                    &current[divisor],
                    &[1],
                    &[0],
                )))
            })
            .clone();
        if canon(&response.tuples) != *want {
            incorrect += 1;
            eprintln!(
                "INCORRECT quotient: {dividend} ÷ {divisor} ({strategy:?}): got {} tuples, want {}",
                response.tuples.len(),
                want.len()
            );
        }
        latencies_us.push(response.report.elapsed.as_micros() as u64);
        bytes += response.report.bytes;
        messages += response.report.messages;
        filtered += response.report.filtered_tuples;
        completed_queries.store(q + 1, Ordering::Release);
    }
    let elapsed = start.elapsed();
    kill_done.store(true, Ordering::Release);
    if let Some(handle) = killer {
        let _ = handle.join();
    }
    let killed = match killed_node.load(Ordering::Acquire) {
        u64::MAX => None,
        node => Some(node as usize),
    };

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * p) as usize]
        }
    };
    let completed = args.queries;
    println!(
        "divload: {completed} cluster queries across {} nodes in {:.2} s ({:.0} q/s)",
        coordinator.nodes(),
        elapsed.as_secs_f64(),
        completed as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "latency: p50 {} us, p95 {} us, p99 {} us",
        pct(0.50),
        pct(0.95),
        pct(0.99)
    );
    println!(
        "wire:    {} bytes in {} messages ({} tuples filtered before shipping)",
        format_count(bytes),
        format_count(messages),
        format_count(filtered)
    );
    for (node, link) in coordinator.link_stats().iter().enumerate() {
        println!(
            "  node {node}: sent {} msgs / {} B, received {} msgs / {} B",
            link.messages_sent, link.bytes_sent, link.messages_received, link.bytes_received
        );
    }
    let robustness = coordinator.robustness_metrics();
    match killed {
        Some(node) => println!(
            "chaos:   node {node} killed after {} requests (replication {replication}); \
             {} failovers, {} replica retries",
            args.kill_after.unwrap_or(0),
            robustness.failovers,
            robustness.replica_retries
        ),
        None if replication > 1 => println!(
            "robust:  replication {replication}, {} failovers, {} replica retries",
            robustness.failovers, robustness.replica_retries
        ),
        None => {}
    }
    println!(
        "verify:  {}/{completed} completed replies correct",
        completed - incorrect
    );
    if args.shutdown_nodes {
        for (node, result) in coordinator.shutdown_nodes().into_iter().enumerate() {
            if let Err(e) = result {
                // The node the chaos killer took down cannot acknowledge.
                if killed == Some(node) {
                    continue;
                }
                eprintln!("divload: shutdown node {node}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("nodes:   all surviving nodes acknowledged shutdown");
    }
    if incorrect > 0 {
        eprintln!("divload: FAILED — {incorrect} incorrect quotients");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Composed plans over `transcript(student-id, course-no, grade)` and
/// `courses(course-no, title)` — every plan-node type appears in the
/// mix, and three of the five contain divisions the planner must choose
/// algorithms for.
const PLAN_MIX: [&str; 5] = [
    // The motivating query: students who took all database courses.
    "(divide (on course-no) \
       (project (student-id course-no) (scan transcript)) \
       (project (course-no) (filter (contains title \"database\") (scan courses))))",
    // Students who took every course.
    "(divide (on course-no) \
       (project (student-id course-no) (scan transcript)) \
       (project (course-no) (scan courses)))",
    // HAVING COUNT over a grouped aggregate.
    "(having-count >= 5 (group-count (student-id) (scan transcript)))",
    // Duplicate elimination over a projection.
    "(distinct (project (course-no) (scan transcript)))",
    // Filter + join + division + HAVING COUNT in one tree.
    "(having-count >= 2 \
       (group-count (student-id) \
         (join (on (student-id student-id)) \
           (divide (on course-no) \
             (project (student-id course-no) (scan transcript)) \
             (project (course-no) (filter (contains title \"database\") (scan courses)))) \
           (project (student-id) (scan transcript)))))",
];

/// Closed-loop `ExecPlan` driver: a plan mix over the university
/// relations with catalog churn, every reply verified against the
/// reference interpreter at the exact versions the service pinned.
fn run_plans(args: &Args) -> ExitCode {
    use reldiv_plan::{bind, canonical_bytes as plan_bytes, evaluate, parse, MemCatalog};
    use reldiv_service::{ExecPlanRequest, TcpClient};
    use reldiv_workload::university::{generate as university, UniversitysSpec};

    let relation_for = |name: &str, seed: u64| -> Relation {
        let u = university(&UniversitysSpec::default(), seed);
        if name == "transcript" {
            u.transcript
        } else {
            u.courses
        }
    };

    // Either one external `reldiv-serve` node or an embedded service.
    let embedded;
    let mut client: Box<dyn DivisionClient> = if let Some(node) = args.nodes.first() {
        match TcpClient::connect(node.as_str()) {
            Ok(c) => Box::new(c),
            Err(e) => {
                eprintln!("divload: cannot connect to {node}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let storage_faults = (args.fault_rate > 0.0).then(|| {
            FaultPlan::seeded(args.seed ^ 0xFA_017)
                .with_read_error_rate(args.fault_rate)
                .with_write_error_rate(args.fault_rate)
        });
        embedded = match Service::start(ServiceConfig {
            workers: args.workers,
            queue_depth: args.queue,
            cache_capacity: args.cache,
            storage_faults,
            default_deadline: args.deadline_ms.map(Duration::from_millis),
            ..ServiceConfig::default()
        }) {
            Ok(service) => service,
            Err(e) => {
                eprintln!("divload: cannot start the service: {e}");
                return ExitCode::FAILURE;
            }
        };
        Box::new(InProcClient::new(embedded.clone()))
    };

    // Version → relation contents (catalog versions are globally unique),
    // and memoized expected answers per (plan, exact version pins).
    type ExpectedKey = (usize, Vec<(String, u64)>);
    let mut versions: HashMap<u64, Relation> = HashMap::new();
    let mut expected: HashMap<ExpectedKey, Arc<Vec<Vec<u8>>>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9_1A7);
    for name in ["transcript", "courses"] {
        let relation = relation_for(name, args.seed);
        let version = match client.register(name, &relation) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("divload: register {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        versions.insert(version, relation);
    }

    let faulty = args.fault_rate > 0.0 || args.deadline_ms.is_some();
    let every = args.update_every.max(1);
    let mut incorrect = 0u64;
    let mut failed = 0u64;
    let mut cached = 0u64;
    let mut algorithms: HashMap<String, u64> = HashMap::new();
    let mut sample_profile: Option<QueryProfile> = None;
    let mut profiled = 0u64;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(args.queries as usize);
    let start = Instant::now();
    let mut completed = 0u64;
    let mut next_churn = every;
    while completed < args.queries {
        if completed >= next_churn {
            next_churn += every;
            // Catalog churn: replace one relation under the plan load.
            let name = if rng.gen_bool(0.5) {
                "transcript"
            } else {
                "courses"
            };
            let relation = relation_for(name, rng.gen_range(0..1u64 << 40));
            match client.register(name, &relation) {
                Ok(version) => {
                    versions.insert(version, relation);
                }
                Err(e) => {
                    eprintln!("divload: re-register {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let plan_idx = rng.gen_range(0..PLAN_MIX.len());
        let request = ExecPlanRequest {
            plan: PLAN_MIX[plan_idx].to_owned(),
            deadline_ms: None,
            profile: args.profile,
        };
        let sent = Instant::now();
        let reply = match client.exec_plan(&request) {
            Ok(reply) => reply,
            Err(ServiceError::Overloaded) => {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            Err(_) if faulty => {
                failed += 1;
                completed += 1;
                latencies_us.push(sent.elapsed().as_micros() as u64);
                continue;
            }
            Err(e) => {
                eprintln!("divload: plan {plan_idx}: {e}");
                return ExitCode::FAILURE;
            }
        };
        latencies_us.push(sent.elapsed().as_micros() as u64);
        completed += 1;
        if reply.cached {
            cached += 1;
        }
        for algorithm in &reply.algorithms {
            *algorithms.entry(algorithm.label().to_owned()).or_default() += 1;
        }
        if let Some(profile) = &reply.profile {
            profiled += 1;
            if sample_profile.is_none() {
                sample_profile = Some(profile.clone());
            }
        }

        // Oracle check at the exact versions the service says it pinned.
        let want = match expected.entry((plan_idx, reply.relations.clone())) {
            std::collections::hash_map::Entry::Occupied(hit) => hit.get().clone(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let mut catalog = MemCatalog::new();
                for (name, version) in &reply.relations {
                    let Some(relation) = versions.get(version) else {
                        eprintln!("divload: reply pinned unknown version {name}@{version}");
                        return ExitCode::FAILURE;
                    };
                    catalog.insert(name.clone(), relation.clone());
                }
                let answer = parse(PLAN_MIX[plan_idx])
                    .and_then(|plan| bind(&plan, &catalog))
                    .and_then(|bound| evaluate(&bound, &catalog));
                match answer {
                    Ok(relation) => slot.insert(Arc::new(plan_bytes(&relation))).clone(),
                    Err(e) => {
                        eprintln!("divload: reference evaluation of plan {plan_idx}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
        let got = match Relation::from_tuples(reply.schema.clone(), reply.tuples.to_vec()) {
            Ok(relation) => plan_bytes(&relation),
            Err(e) => {
                eprintln!("divload: reply tuples do not fit their schema: {e}");
                return ExitCode::FAILURE;
            }
        };
        if got != *want {
            incorrect += 1;
            eprintln!(
                "INCORRECT plan result: plan {plan_idx} at {:?} (cached {}): got {} tuples, want {}",
                reply.relations,
                reply.cached,
                got.len(),
                want.len()
            );
        }
    }
    let elapsed = start.elapsed();

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * p) as usize]
        }
    };
    println!(
        "divload: {completed} plan queries in {:.2} s ({:.0} q/s)",
        elapsed.as_secs_f64(),
        completed as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "latency: p50 {} us, p95 {} us, p99 {} us",
        pct(0.50),
        pct(0.95),
        pct(0.99)
    );
    println!(
        "cache:   {} hits / {} queries ({:.1}%)",
        cached,
        completed,
        100.0 * cached as f64 / completed.max(1) as f64
    );
    let mut chosen: Vec<(String, u64)> = algorithms.into_iter().collect();
    chosen.sort();
    println!(
        "chosen:  {}",
        chosen
            .iter()
            .map(|(label, n)| format!("{label} ×{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if faulty {
        println!("faults:  {failed} plan queries failed under injection/deadlines");
    }
    println!(
        "verify:  {}/{} completed replies correct",
        completed - failed - incorrect,
        completed - failed,
    );
    if args.profile {
        println!("profile: {profiled} uncached plans returned span trees");
        if let Some(profile) = &sample_profile {
            println!("--- sample plan profile ---\n{}", profile.render());
        }
    }
    if incorrect > 0 {
        eprintln!("divload: FAILED — {incorrect} incorrect plan results");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn format_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.cluster > 0 && !args.nodes.is_empty() {
        eprintln!("divload: --cluster and --node are mutually exclusive");
        usage();
    }
    if args.plan_mode {
        if args.cluster > 0 || args.nodes.len() > 1 {
            eprintln!("divload: plan mode drives one service (embedded or a single --node)");
            usage();
        }
        return run_plans(&args);
    }
    if args.cluster > 0 || !args.nodes.is_empty() {
        return run_cluster(&args);
    }
    let storage_faults = (args.fault_rate > 0.0).then(|| {
        FaultPlan::seeded(args.seed ^ 0xFA_017)
            .with_read_error_rate(args.fault_rate)
            .with_write_error_rate(args.fault_rate)
    });
    let service = match Service::start(ServiceConfig {
        workers: args.workers,
        queue_depth: args.queue,
        cache_capacity: args.cache,
        storage_faults,
        default_deadline: args.deadline_ms.map(Duration::from_millis),
        ..ServiceConfig::default()
    }) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("divload: cannot start the service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let oracle = Arc::new(Oracle::default());

    let mut setup = InProcClient::new(service.clone());
    for (i, name) in DIVIDENDS.iter().chain(DIVISORS.iter()).enumerate() {
        oracle.register(&mut setup, name, generate(name, args.seed + i as u64));
    }

    let completed = Arc::new(AtomicU64::new(0));
    let incorrect = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let profiled = Arc::new(AtomicU64::new(0));
    let sample_profile: Arc<Mutex<Option<QueryProfile>>> = Arc::new(Mutex::new(None));
    let done = Arc::new(AtomicBool::new(false));
    let start = Instant::now();

    // Updater: re-register a random relation every `update_every`
    // completed queries, interleaving catalog updates (and the cache
    // invalidations they trigger) with the query load at a fixed rate
    // regardless of throughput.
    let updates = {
        let service = service.clone();
        let oracle = oracle.clone();
        let done = done.clone();
        let completed = completed.clone();
        let seed = args.seed;
        let every = args.update_every.max(1);
        std::thread::spawn(move || {
            let mut client = InProcClient::new(service);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD171_DE00);
            let mut updates = 0u64;
            let mut threshold = every;
            while !done.load(Ordering::Acquire) {
                if completed.load(Ordering::Relaxed) < threshold {
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                threshold += every;
                let names: [&str; 6] = ["r0", "r1", "r2", "r3", "s0", "s1"];
                let name = names[rng.gen_range(0..names.len())];
                oracle.register(
                    &mut client,
                    name,
                    generate(name, rng.gen_range(0..1u64 << 40)),
                );
                updates += 1;
            }
            updates
        })
    };

    let clients: Vec<_> = (0..args.clients.max(1))
        .map(|client_id| {
            let service = service.clone();
            let oracle = oracle.clone();
            let completed = completed.clone();
            let incorrect = incorrect.clone();
            let failed = failed.clone();
            let profiled = profiled.clone();
            let sample_profile = sample_profile.clone();
            let faulty = args.fault_rate > 0.0 || args.deadline_ms.is_some();
            let target = args.queries;
            let seed = args.seed;
            let want_profile = args.profile;
            let mem_budget = args.mem_budget;
            std::thread::spawn(move || {
                let mut client = InProcClient::new(service);
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(client_id as u64 * 7919));
                while completed.load(Ordering::Relaxed) < target {
                    // Small key space → plenty of repeats (cache hits);
                    // updates keep injecting distinct versions.
                    let request = DivideRequest {
                        dividend: DIVIDENDS[rng.gen_range(0..DIVIDENDS.len())].into(),
                        divisor: DIVISORS[rng.gen_range(0..DIVISORS.len())].into(),
                        algorithm: Some(ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())]),
                        assume_unique: false,
                        spec: None,
                        deadline_ms: None,
                        profile: want_profile,
                        distribute: None,
                        restricted: None,
                        mem_budget,
                    };
                    match client.divide(&request) {
                        Ok(reply) => {
                            if let Some(profile) = &reply.profile {
                                profiled.fetch_add(1, Ordering::Relaxed);
                                let mut sample = sample_profile.lock().unwrap();
                                if sample.is_none() {
                                    *sample = Some(profile.clone());
                                }
                            }
                            let got = canonical_bytes(
                                &RecordCodec::new(reply.schema.clone()),
                                &reply.tuples,
                            );
                            let want =
                                oracle.expected(reply.dividend_version, reply.divisor_version);
                            if got != *want {
                                incorrect.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "INCORRECT quotient: {} ÷ {} ({:?}, cached {}, versions {}/{}): \
                                     got {} tuples, want {}",
                                    request.dividend,
                                    request.divisor,
                                    reply.algorithm,
                                    reply.cached,
                                    reply.dividend_version,
                                    reply.divisor_version,
                                    got.len(),
                                    want.len()
                                );
                            }
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::Overloaded) => {
                            // Shed: back off briefly and retry (closed loop).
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(ServiceError::ShuttingDown) => break,
                        Err(_other) if faulty => {
                            // Under injected faults or deadlines some
                            // queries legitimately fail; correctness is
                            // judged only on completed replies.
                            failed.fetch_add(1, Ordering::Relaxed);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected service error: {other}"),
                    }
                }
            })
        })
        .collect();

    for handle in clients {
        handle.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    done.store(true, Ordering::Release);
    let update_count = updates.join().expect("updater thread");
    service.shutdown();

    let stats = service.stats();
    let completed = completed.load(Ordering::Relaxed);
    let incorrect = incorrect.load(Ordering::Relaxed);
    let answered = stats.cache_hits + stats.cache_misses;
    println!(
        "divload: {completed} queries in {:.2} s ({:.0} q/s), {update_count} relation updates",
        elapsed.as_secs_f64(),
        completed as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "latency: p50 {} us, p95 {} us, p99 {} us (mean {} us)",
        stats.latency_p50_us, stats.latency_p95_us, stats.latency_p99_us, stats.latency_mean_us
    );
    println!(
        "cache:   {} hits / {} lookups ({:.1}%), {} entries resident",
        stats.cache_hits,
        answered,
        100.0 * stats.hit_rate(),
        service.cache_len(),
    );
    println!(
        "load:    {} rejections (admission control), {} errors",
        stats.rejections, stats.errors
    );
    if args.fault_rate > 0.0 || args.deadline_ms.is_some() {
        println!(
            "faults:  {} queries failed under injection, {} timeouts, {} io retries absorbed, \
             {} worker panics survived",
            failed.load(Ordering::Relaxed),
            stats.timeouts,
            stats.io_retries,
            stats.worker_panics,
        );
    }
    if args.mem_budget.is_some() {
        println!(
            "memory:  {} divisions degraded under the budget, {} bytes spooled to spill files",
            stats.degraded_queries, stats.division_spill_bytes,
        );
    }
    println!(
        "ops:     {} comparisons, {} hashes, {} moves, {} bitops",
        format_count(stats.ops.comparisons),
        format_count(stats.ops.hashes),
        format_count(stats.ops.moves),
        format_count(stats.ops.bitops)
    );
    let failed = failed.load(Ordering::Relaxed);
    println!(
        "verify:  {}/{} completed replies correct",
        completed - failed - incorrect,
        completed - failed,
    );
    if args.profile {
        println!(
            "profile: {} uncached queries returned span trees",
            profiled.load(Ordering::Relaxed)
        );
        if let Some(profile) = sample_profile.lock().unwrap().as_ref() {
            println!("--- sample query profile ---\n{}", profile.render());
        }
    }
    if incorrect > 0 {
        eprintln!("divload: FAILED — {incorrect} incorrect quotients");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
