//! The per-layer suite of the traced run. Every number is measured
//! from outside, on the workload's own ladder cell: the layers below
//! the division operator (`rel`, `storage`, `exec`) are probed one call
//! at a time, then the same division is issued at each rung of the
//! ladder — `core` → `plan` → `service` in-process → `service` over
//! TCP → `cluster` — and a rung's self time is its median minus the
//! rung below, so the self times sum to the top rung by construction.

use std::time::{Duration, Instant};

use crate::cluster::{FILTER_BITS, NODES, REPLICATION};
use crate::engine::BUDGETS;
use crate::json::Json;
use crate::stats;
use crate::sut::{
    self, Cluster, DegradationReport, Deployment, DivideOpts, Engine, Family, Quotient, Res,
    Source, SourceCatalog, StorageKind, Strategy, DIVIDE_PLAN,
};
use crate::trace::Tracer;
use crate::workload::{service_counters, LadderCell};

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;
/// Cache hits timed for `service.hit_p99_us`: p99 keeps 100 beyond it.
const HIT_SAMPLES: usize = 10_000;
/// Write/cold cycles of the service and cluster probes.
const CYCLES: usize = 3;

/// Named per-layer values in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn put_all(&mut self, values: Vec<(String, f64)>) {
        for (name, value) in values {
            self.put(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Latencies of one repeated call.
struct Timed<T> {
    median_ns: f64,
    n: usize,
    last: T,
}

/// Repeats `f` after one untimed call, at least [`MIN_REPS`] times and
/// until `budget` is spent; `before` runs untimed ahead of every call.
fn timed<T>(
    budget: Duration,
    mut before: impl FnMut() -> Res<()>,
    mut f: impl FnMut() -> Res<T>,
) -> Res<Timed<T>> {
    before()?;
    let mut last = f()?;
    let mut ns = Vec::new();
    let started = Instant::now();
    while ns.len() < MIN_REPS || (started.elapsed() < budget && ns.len() < MAX_REPS) {
        before()?;
        let t = Instant::now();
        last = f()?;
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(Timed {
        median_ns: stats::median(&ns),
        n: ns.len(),
        last,
    })
}

fn no_prep() -> Res<()> {
    Ok(())
}

/// A reply that does not carry the cell's quotient fails the probe: a
/// layer number from a wrong answer is worth nothing.
fn verified<R: Quotient>(reply: R, expected: &[i64]) -> Res<R> {
    let mut ids = reply.ids();
    ids.sort_unstable();
    if ids == expected {
        Ok(reply)
    } else {
        Err("layer probe: wrong quotient".into())
    }
}

/// The cell as sources of the workload's own kind, on a fresh engine.
fn cell_engine(
    cell: &LadderCell,
    kind: StorageKind,
    on_disk: bool,
) -> Res<(Engine, Source, Source)> {
    let engine = Engine::new(kind);
    let (r, s) = if on_disk {
        (engine.load(&cell.dividend)?, engine.load(&cell.divisor)?)
    } else {
        (
            engine.mem_source(&cell.dividend),
            engine.mem_source(&cell.divisor),
        )
    };
    Ok((engine, r, s))
}

/// One rung of the ladder.
pub struct Rung {
    pub name: &'static str,
    pub n: usize,
    pub median_ms: f64,
    /// Median minus the rung below, signed.
    pub self_ms: f64,
}

pub struct LayerReport {
    pub metrics: Metrics,
    pub ladder: Vec<Rung>,
}

impl LayerReport {
    /// The ladder as it appears in the trace file: each rung with its
    /// sample count and signed self time.
    pub fn ladder_json(&self) -> Json {
        Json::Arr(
            self.ladder
                .iter()
                .map(|rung| {
                    Json::obj([
                        ("rung", Json::str(rung.name)),
                        ("n", Json::Num(rung.n as f64)),
                        ("median_ms", Json::Num(rung.median_ms)),
                        ("self_ms", Json::Num(rung.self_ms)),
                    ])
                })
                .collect(),
        )
    }
}

/// Runs the whole suite on `cell`. `seconds` is the run's measuring
/// time; each probe gets a hundredth of it and each rung a twentieth.
pub fn run(cell: &LadderCell, seconds: f64, tracer: &mut Tracer) -> Res<LayerReport> {
    let probe = Duration::from_secs_f64((seconds / 100.0).clamp(0.001, 0.1));
    let rung = Duration::from_secs_f64((seconds / 20.0).clamp(0.001, 0.5));
    let mut m = Metrics::default();
    // The rungs leave one span per request in the trace.
    tracer.set_enabled(true);
    rel_layer(cell, probe, &mut m)?;
    storage_layer(cell, probe, &mut m)?;
    exec_layer(cell, probe, &mut m)?;
    core_layer(cell, probe, &mut m)?;
    let ladder = ladder(cell, rung, probe, tracer, &mut m)?;
    parallel_layer(cell, probe, &mut m)?;
    Ok(LayerReport { metrics: m, ladder })
}

fn rel_layer(cell: &LadderCell, budget: Duration, m: &mut Metrics) -> Res<()> {
    let tuples = cell.dividend.cardinality() as f64;
    let encode = timed(budget, no_prep, || sut::codec_encode(&cell.dividend))?;
    m.put("rel.codec_encode_ns", encode.median_ns / tuples);
    let decode = timed(budget, no_prep, || {
        sut::codec_decode(cell.dividend.schema(), &encode.last)
    })?;
    m.put("rel.codec_decode_ns", decode.median_ns / tuples);
    let batches = sut::to_batches(&cell.dividend);
    let rows = timed(budget, no_prep, || Ok(sut::hash_rows(&batches)))?;
    m.put("rel.hash_rows_ns", rows.median_ns / tuples);
    let each = timed(budget, no_prep, || Ok(sut::tuple_hash(&cell.dividend)))?;
    m.put("rel.tuple_hash_ns", each.median_ns / tuples);
    Ok(())
}

/// The cell as record files under the paper's configuration, whatever
/// the workload's own: file scan, the append path, and the exact page
/// traffic of each family (inputs declared duplicate-free, as
/// `disk_grid` and `table4` do).
fn storage_layer(cell: &LadderCell, budget: Duration, m: &mut Metrics) -> Res<()> {
    let load = timed(budget, no_prep, || {
        Engine::new(StorageKind::Paper)
            .load(&cell.dividend)
            .map(drop)
    })?;
    m.put("storage.load_ms", load.median_ns / 1e6);

    let (engine, r, s) = cell_engine(cell, StorageKind::Paper, true)?;
    let cold = timed(budget, || engine.evict_and_reset(), || engine.scan(&r))?;
    m.put("storage.scan_cold_ms", cold.median_ns / 1e6);
    let warm = timed(budget, no_prep, || engine.scan(&r))?;
    m.put("storage.scan_warm_ms", warm.median_ns / 1e6);

    let opts = DivideOpts {
        assume_unique: true,
        ..DivideOpts::default()
    };
    for family in Family::ALL {
        engine.evict_and_reset()?;
        verified(engine.divide(&r, &s, family, opts)?, &cell.expected)?;
        let io = engine.io_stats();
        let pool = engine.buffer_stats();
        let f = family.name();
        m.put(format!("storage.pages_read.{f}"), io.reads as f64);
        m.put(format!("storage.pages_written.{f}"), io.writes as f64);
        m.put(format!("storage.seeks.{f}"), io.seeks as f64);
        m.put(format!("storage.evictions.{f}"), pool.evictions as f64);
        let fixes = pool.hits + pool.misses;
        m.put(
            format!("storage.pool_hit_ratio.{f}"),
            if fixes == 0 {
                1.0
            } else {
                pool.hits as f64 / fixes as f64
            },
        );
        if family == Family::HashDiv {
            m.put("storage.modeled_io_ms", sut::modeled_io_ms(&io));
        }
    }
    Ok(())
}

fn exec_layer(cell: &LadderCell, budget: Duration, m: &mut Metrics) -> Res<()> {
    let (paper, r_file, _) = cell_engine(cell, StorageKind::Paper, true)?;
    let sort = timed(budget, || paper.evict_and_reset(), || paper.sort(&r_file))?;
    m.put("exec.sort_ms", sort.median_ns / 1e6);
    let (large, r_mem, _) = cell_engine(cell, StorageKind::Large, false)?;
    let sort_mem = timed(budget, no_prep, || large.sort(&r_mem))?;
    m.put("exec.sort_mem_ms", sort_mem.median_ns / 1e6);
    let agg = timed(budget, no_prep, || large.hash_group_count(&r_mem))?;
    m.put("exec.hash_agg_ms", agg.median_ns / 1e6);
    Ok(())
}

/// The four families on the cell as the workload itself runs them, the
/// batch/tuple ratio, the cost model's pick against the best measured
/// family, and the degradation counters of hash-division per budget.
fn core_layer(cell: &LadderCell, budget: Duration, m: &mut Metrics) -> Res<()> {
    let (engine, r, s) = cell_engine(cell, cell.storage, cell.on_disk)?;
    let cold = || {
        if cell.on_disk {
            engine.evict_and_reset()
        } else {
            Ok(())
        }
    };
    let opts = DivideOpts {
        assume_unique: cell.assume_unique,
        mem_budget: cell.mem_budget,
        batch: false,
    };
    let tuples = cell.dividend.cardinality() as f64;
    let mut family_ms = Vec::new();
    for family in Family::ALL {
        let t = timed(budget, cold, || engine.divide(&r, &s, family, opts))?;
        verified(t.last, &cell.expected)?;
        family_ms.push(t.median_ns / 1e6);
        m.put(format!("core.{}_ms", family.name()), t.median_ns / 1e6);
        cold()?;
        let (_, ops) = sut::count_ops(|| engine.divide(&r, &s, family, opts));
        let total = ops.comparisons + ops.hashes + ops.moves + ops.bitops;
        m.put(
            format!("core.ops_per_tuple.{}", family.name()),
            total as f64 / tuples,
        );
    }

    let (large, r_mem, s_mem) = cell_engine(cell, StorageKind::Large, false)?;
    let mode = |batch| {
        timed(budget, no_prep, || {
            large.divide(
                &r_mem,
                &s_mem,
                Family::HashDiv,
                DivideOpts {
                    batch,
                    ..DivideOpts::default()
                },
            )
        })
    };
    m.put(
        "core.batch_speedup",
        mode(false)?.median_ns / mode(true)?.median_ns,
    );

    let (s_size, q_size) = (
        cell.divisor.cardinality() as u64,
        cell.expected.len() as u64,
    );
    let recommend = timed(budget, no_prep, || {
        Ok(sut::recommend(
            s_size,
            q_size,
            cell.dividend.cardinality() as u64,
        ))
    })?;
    m.put("costmodel.recommend_ns", recommend.median_ns);
    let chosen = Family::ALL
        .iter()
        .position(|f| *f == recommend.last)
        .expect("a family");
    let best = family_ms.iter().copied().fold(f64::INFINITY, f64::min);
    m.put("costmodel.choice_regret", family_ms[chosen] / best);

    let (small, r_mem, s_mem) = cell_engine(cell, StorageKind::SmallPool, false)?;
    let raw_bytes = tuples * cell.dividend.schema().record_width() as f64;
    for (bytes, label) in BUDGETS {
        small.evict_and_reset()?;
        let opts = DivideOpts {
            mem_budget: Some(bytes),
            ..DivideOpts::default()
        };
        let (_, report) = verified(
            small.divide(&r_mem, &s_mem, Family::HashDiv, opts)?,
            &cell.expected,
        )?;
        m.put_all(degradation_metrics(&report, label, raw_bytes));
    }
    Ok(())
}

/// What one budgeted hash-division had to do, as `core.*.<label>`
/// metrics; `raw_bytes` is the dividend's size, the base of `write_amp`.
pub fn degradation_metrics(
    report: &DegradationReport,
    label: &str,
    raw_bytes: f64,
) -> Vec<(String, f64)> {
    let spooled = (report.spill_bytes + report.respool_bytes) as f64;
    vec![
        (
            format!("core.spill_bytes.{label}"),
            report.spill_bytes as f64,
        ),
        (
            format!("core.respool_bytes.{label}"),
            report.respool_bytes as f64,
        ),
        (format!("core.write_amp.{label}"), spooled / raw_bytes),
        (
            format!("core.partitions_spilled.{label}"),
            f64::from(report.partitions_spilled),
        ),
        (
            format!("core.partitions_revived.{label}"),
            f64::from(report.partitions_revived),
        ),
        (
            format!("core.recursion_depth.{label}"),
            f64::from(report.recursion_depth),
        ),
    ]
}

/// The five rungs, then the service and cluster probes that share the
/// rungs' deployments.
fn ladder(
    cell: &LadderCell,
    rung: Duration,
    probe: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Res<Vec<Rung>> {
    let mut rungs: Vec<Rung> = Vec::new();
    let mut push = |name: &'static str, median_ns: f64, n: usize, m: &mut Metrics| {
        let median_ms = median_ns / 1e6;
        let below = rungs.last().map(|r: &Rung| r.median_ms);
        m.put(format!("ladder.{name}_ms"), median_ms);
        if let Some(below) = below {
            m.put(format!("ladder.{name}_self_ms"), median_ms - below);
        }
        rungs.push(Rung {
            name,
            n,
            median_ms,
            self_ms: median_ms - below.unwrap_or(0.0),
        });
    };

    // core and plan: the batch engine, as the plan front end lowers to.
    let (engine, r, s) = cell_engine(cell, cell.storage, cell.on_disk)?;
    let cold = || {
        if cell.on_disk {
            engine.evict_and_reset()
        } else {
            Ok(())
        }
    };
    let opts = DivideOpts {
        assume_unique: cell.assume_unique,
        mem_budget: cell.mem_budget,
        batch: true,
    };
    let core = timed(rung, cold, || {
        tracer.span("ladder.core", |_| {
            engine.divide(&r, &s, Family::HashDiv, opts)
        })
    })?;
    verified(core.last, &cell.expected)?;
    push("core", core.median_ns, core.n, m);

    let mut catalog = SourceCatalog::default();
    catalog.insert("r", r.clone(), cell.dividend.cardinality() as u64);
    catalog.insert("s", s.clone(), cell.divisor.cardinality() as u64);
    let parse = timed(probe, no_prep, || sut::plan_parse(DIVIDE_PLAN))?;
    m.put("plan.parse_us", parse.median_ns / 1e3);
    let bind = timed(probe, no_prep, || sut::plan_bind(&parse.last, &catalog))?;
    m.put("plan.bind_us", bind.median_ns / 1e3);
    let execute = timed(probe, cold, || {
        sut::plan_execute(&bind.last, &mut catalog, &engine, cell.mem_budget)
    })?;
    m.put("plan.execute_ms", execute.median_ns / 1e6);
    let plan = timed(rung, cold, || {
        tracer.span("ladder.plan", |_| {
            let plan = sut::plan_parse(DIVIDE_PLAN)?;
            let bound = sut::plan_bind(&plan, &catalog)?;
            sut::plan_execute(&bound, &mut catalog, &engine, cell.mem_budget)
        })
    })?;
    verified(plan.last, &cell.expected)?;
    push("plan", plan.median_ns, plan.n, m);
    m.put("plan.overhead_us", (plan.median_ns - core.median_ns) / 1e3);

    // service: one worker and no cache, so every request executes and
    // only the first after a register materializes.
    let computing = Deployment::start(1, false)?;
    let mut inproc = computing.inproc();
    let mut tcp = computing.tcp()?;
    let mut request = sut::divide_request("r", "s", None);
    request.mem_budget = cell.mem_budget.map(|b| b as u64);
    let register = timed(probe, no_prep, || {
        sut::register(&mut inproc, "r", &cell.dividend)
    })?;
    m.put("service.register_inproc_ms", register.median_ns / 1e6);
    sut::register(&mut inproc, "s", &cell.divisor)?;
    let via_inproc = timed(rung, no_prep, || {
        tracer.span("ladder.inproc", |_| sut::divide(&mut inproc, &request))
    })?;
    verified(via_inproc.last, &cell.expected)?;
    push("inproc", via_inproc.median_ns, via_inproc.n, m);
    let via_tcp = timed(rung, no_prep, || {
        tracer.span("ladder.tcp", |_| sut::divide(&mut tcp, &request))
    })?;
    verified(via_tcp.last, &cell.expected)?;
    push("tcp", via_tcp.median_ns, via_tcp.n, m);

    let mut first_miss = Vec::new();
    for _ in 0..CYCLES {
        sut::register(&mut tcp, "r", &cell.dividend)?;
        let t = Instant::now();
        verified(sut::divide(&mut tcp, &request)?, &cell.expected)?;
        first_miss.push(t.elapsed().as_nanos() as f64);
    }
    let first_miss_ns = stats::median(&first_miss);
    m.put(
        "service.materialize_ms",
        (first_miss_ns - via_tcp.median_ns) / 1e6,
    );
    drop((inproc, tcp));
    let computing_stats = computing.stats();
    drop(computing);

    service_probes(cell, probe, m)?;

    // cluster: node caches off, so every query executes on the nodes
    // while the coordinator's placements stay warm.
    let mut nodes = Cluster::start(NODES, REPLICATION, false)?;
    nodes.register("r", &cell.dividend, 0)?;
    nodes.register("s", &cell.divisor, 0)?;
    let via_cluster = timed(rung, no_prep, || {
        tracer.span("ladder.cluster", |_| {
            nodes.divide("r", "s", Strategy::QuotientPartitioning, None)
        })
    })?;
    verified(via_cluster.last, &cell.expected)?;
    push("cluster", via_cluster.median_ns, via_cluster.n, m);
    drop(nodes);
    m.put(
        "ladder.samples",
        rungs.iter().map(|r| r.n).min().unwrap_or(0) as f64,
    );

    cluster_probes(cell, first_miss_ns, m)?;
    // A workload with a service of its own reports its own instead.
    m.put_all(service_counters(&computing_stats));
    Ok(rungs)
}

/// The cached path and the wire, on a deployment like the service
/// workloads' (two workers, cache on).
fn service_probes(cell: &LadderCell, budget: Duration, m: &mut Metrics) -> Res<()> {
    let caching = Deployment::start(2, true)?;
    let mut inproc = caching.inproc();
    let mut tcp = caching.tcp()?;
    sut::register(&mut tcp, "r", &cell.dividend)?;
    sut::register(&mut tcp, "s", &cell.divisor)?;
    let request = sut::divide_request("r", "s", None);
    let filled = verified(sut::divide(&mut tcp, &request)?, &cell.expected)?;

    let hit = timed(budget, no_prep, || sut::divide(&mut inproc, &request))?;
    m.put("service.inproc_hit_us", hit.median_ns / 1e3);
    let ping = timed(budget, no_prep, || sut::ping(&mut tcp))?;
    m.put("service.ping_us", ping.median_ns / 1e3);

    let mut round_trip = Vec::with_capacity(HIT_SAMPLES);
    let mut wire = Vec::with_capacity(HIT_SAMPLES);
    for _ in 0..HIT_SAMPLES {
        let t = Instant::now();
        let reply = sut::divide(&mut tcp, &request)?;
        let ns = t.elapsed().as_nanos() as f64;
        if !reply.cached {
            return Err("service probe: a repeated request missed the cache".into());
        }
        round_trip.push(ns);
        wire.push(ns - reply.micros as f64 * 1e3);
    }
    round_trip.sort_by(f64::total_cmp);
    m.put(
        "service.tcp_hit_us",
        stats::median_sorted(&round_trip) / 1e3,
    );
    m.put(
        "service.hit_p99_us",
        stats::percentile_sorted(&round_trip, 0.99) / 1e3,
    );
    m.put("service.wire_us", stats::median(&wire) / 1e3);

    let frame = sut::proto_encode_register("r", &cell.dividend)?;
    let t = timed(budget, no_prep, || {
        sut::proto_encode_register("r", &cell.dividend)
    })?;
    m.put("service.proto_encode_us.register", t.median_ns / 1e3);
    let t = timed(budget, no_prep, || sut::proto_decode_request(&frame))?;
    m.put("service.proto_decode_us.register", t.median_ns / 1e3);
    let frame = sut::proto_encode_reply(&filled)?;
    let t = timed(budget, no_prep, || sut::proto_encode_reply(&filled))?;
    m.put("service.proto_encode_us.reply", t.median_ns / 1e3);
    let t = timed(budget, no_prep, || sut::proto_decode_reply(&frame))?;
    m.put("service.proto_decode_us.reply", t.median_ns / 1e3);
    Ok(())
}

/// Replicated writes, both strategies cold and warm with their traffic,
/// and one unfiltered divisor-partitioning rung to price the filter.
fn cluster_probes(cell: &LadderCell, single_node_miss_ns: f64, m: &mut Metrics) -> Res<()> {
    let mut cluster = Cluster::start(NODES, REPLICATION, true)?;
    let raw_bytes = (cell.dividend.cardinality() * cell.dividend.schema().record_width()
        + cell.divisor.cardinality() * cell.divisor.schema().record_width())
        as f64;
    let variants = [
        ("quotient", Strategy::QuotientPartitioning, None),
        (
            "divisor_filtered",
            Strategy::DivisorPartitioning,
            Some(FILTER_BITS),
        ),
        ("divisor_unfiltered", Strategy::DivisorPartitioning, None),
    ];
    let mut register_ns = Vec::new();
    let mut register_bytes = 0;
    let mut cold_ns = [Vec::new(), Vec::new(), Vec::new()];
    let mut warm_ns = [Vec::new(), Vec::new(), Vec::new()];
    let mut cold_traffic = [(0u64, 0u64, 0u64); 3];
    for _ in 0..CYCLES {
        let before = cluster.traffic();
        let t = Instant::now();
        cluster.register("r", &cell.dividend, 0)?;
        cluster.register("s", &cell.divisor, 0)?;
        register_ns.push(t.elapsed().as_nanos() as f64);
        register_bytes = cluster.traffic().bytes - before.bytes;
        for (v, (_, strategy, bits)) in variants.iter().enumerate() {
            for i in 0..=MIN_REPS {
                let t = Instant::now();
                let reply = verified(cluster.divide("r", "s", *strategy, *bits)?, &cell.expected)?;
                let ns = t.elapsed().as_nanos() as f64;
                if i == 0 {
                    cold_ns[v].push(ns);
                    let report = &reply.report;
                    cold_traffic[v] = (report.bytes, report.messages, report.filtered_tuples);
                } else {
                    warm_ns[v].push(ns);
                }
            }
        }
    }
    m.put("cluster.register_ms", stats::median(&register_ns) / 1e6);
    m.put("cluster.register_bytes", register_bytes as f64);
    m.put("cluster.write_amp", register_bytes as f64 / raw_bytes);
    for (v, (name, _, _)) in variants.iter().enumerate().take(2) {
        m.put(
            format!("cluster.cold_ms.{name}"),
            stats::median(&cold_ns[v]) / 1e6,
        );
        m.put(
            format!("cluster.warm_us.{name}"),
            stats::median(&warm_ns[v]) / 1e3,
        );
        m.put(
            format!("cluster.bytes_per_query.{name}"),
            cold_traffic[v].0 as f64,
        );
        m.put(
            format!("cluster.messages_per_query.{name}"),
            cold_traffic[v].1 as f64,
        );
    }
    m.put("cluster.filtered_tuples", cold_traffic[1].2 as f64);
    m.put(
        "cluster.filter_bytes_saved_ratio",
        1.0 - cold_traffic[1].0 as f64 / cold_traffic[2].0 as f64,
    );
    m.put(
        "cluster.overhead_ms",
        (stats::median(&cold_ns[0]) - single_node_miss_ns) / 1e6,
    );
    let (failovers, retries) = cluster.robustness();
    m.put("cluster.failovers", failovers as f64);
    m.put("cluster.replica_retries", retries as f64);
    Ok(())
}

fn parallel_layer(cell: &LadderCell, budget: Duration, m: &mut Metrics) -> Res<()> {
    let run = |strategy| {
        timed(budget, no_prep, || {
            sut::parallel(&cell.dividend, &cell.divisor, NODES, strategy)
        })
    };
    let quotient = run(Strategy::QuotientPartitioning)?;
    verified(quotient.last.0, &cell.expected)?;
    m.put("parallel.quotient_ms", quotient.median_ns / 1e6);
    m.put("parallel.bytes", quotient.last.1.bytes as f64);
    m.put("parallel.messages", quotient.last.1.messages as f64);
    let divisor = run(Strategy::DivisorPartitioning)?;
    verified(divisor.last.0, &cell.expected)?;
    m.put("parallel.divisor_ms", divisor.median_ns / 1e6);
    Ok(())
}
