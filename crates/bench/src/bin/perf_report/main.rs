//! `perf_report` — the repo's end-to-end and per-layer benchmark.
//!
//! One process runs one workload and prints every metric by name with
//! its unit, the sample count behind every timing, and the host it ran
//! on; every reply is verified against the generator's ground-truth
//! quotient outside the timed region. See `README.md` beside this file
//! for the workloads, the metrics and what each is expected to move.
//!
//! ```text
//! perf_report --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//!             [--scale f] [--out runs.jsonl]
//! perf_report --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output is the result object of the
//! benchmark contract: `correct`, `attempted`, `failed`, `metrics`.

mod cluster;
mod compare;
mod engine;
mod harness;
mod json;
mod layers;
mod metrics;
mod stats;
mod sut;
mod svc;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use harness::{measure, Measured};
use json::Json;
use layers::LayerReport;
use metrics::Kind;
use workload::{Params, Workload};

/// Set-ups per untraced run; `setup_s` is their median. A fixed count,
/// so the memory the set-ups leave behind does not depend on the host's
/// speed.
const SETUP_REPS: usize = 21;

#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: Option<PathBuf>,
    /// Test hook: corrupt the first reply before it is verified.
    corrupt_first_reply: bool,
}

enum Command {
    Run(Opts),
    Compare(PathBuf, PathBuf),
}

fn usage() -> String {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perf_report --workload <{}> [--seed n] [--seconds s] [--trace 0|1] \
         [--scale f] [--out runs.jsonl]\n       perf_report --compare A.jsonl B.jsonl\n\
         defaults: --seed 1989 --seconds {} --trace 0 --scale 1",
        names.join("|"),
        metrics::RUN_SECONDS
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1989,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        out: None,
        corrupt_first_reply: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match arg.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = number(arg, value()?)?,
            "--seconds" => opts.seconds = number(arg, value()?)?,
            "--scale" => opts.scale = number(arg, value()?)?,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            // `--trace` alone means on; the driver passes 0 or 1.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|(n, _)| *n == opts.workload) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if !(0.0..=60.0).contains(&opts.seconds) {
        return Err("--seconds must be in 0..=60".into());
    }
    if !(opts.scale > 0.0 && opts.scale <= 4.0) {
        return Err("--scale must be in (0, 4]".into());
    }
    Ok(Command::Run(opts))
}

fn build(name: &str, params: Params) -> Box<dyn Workload> {
    match name {
        "mem_grid" => Box::new(engine::Grid::new(false, params)),
        "disk_grid" => Box::new(engine::Grid::new(true, params)),
        "spill" => Box::new(engine::Spill::new(params)),
        "svc_hot" => Box::new(svc::SvcHot::new(params)),
        "svc_churn" => Box::new(svc::SvcChurn::new(params)),
        "cluster" => Box::new(cluster::ClusterLoad::new(params)),
        other => unreachable!("parse_args admitted workload {other:?}"),
    }
}

/// Peak resident set of this process so far in MB (`VmHWM`), or 0
/// where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_json() -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::Str(rustc)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Everything one run produced.
struct Outcome {
    measured: Measured,
    /// Every set-up of the run, in seconds.
    setups_s: Vec<f64>,
    /// Waiting time of the warm-up pass per caller, in seconds.
    warm_up_s: f64,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(String, f64, &'static str)>,
    layers: Option<LayerReport>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.measured.failed == 0
    }
}

fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    let params = Params {
        seed: opts.seed,
        scale: opts.scale,
    };
    // One set-up is everything before the first query: generating the
    // relations from the seed, then loading files or starting servers
    // and registering. A traced run reports no set-up time, so it sets
    // up once.
    let mut setups = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPS } {
        if let Some(mut old) = w.take() {
            old.teardown();
        }
        let t = Instant::now();
        let mut fresh = build(&opts.workload, params);
        fresh.setup()?;
        setups.push(t.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let mut w = w.expect("at least one set-up");
    let epoch = Instant::now();
    // One untimed pass lets caches fill and lazy set-up finish; its
    // replies are verified like any other.
    let warm_up = w.run(0, false, false, epoch);
    let warm_up_s = warm_up.busy_ns[0] as f64 / 1e9 / w.callers() as f64;
    // Read after a fixed amount of work (the set-ups and one pass), not
    // at exit: the timed section runs as many passes as fit, so a peak
    // taken after it would grow whenever the program got faster.
    let peak_rss = peak_rss_mb();
    let budget_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let rec = w.run(
        (budget_s * 1e9) as u64,
        opts.trace,
        opts.corrupt_first_reply,
        epoch,
    );
    let mut measured = measure(w.class_names(), w.class_groups(), rec, w.callers());
    measured.attempted += warm_up.attempted;
    measured.failed += warm_up.failed;
    if measured.first_error.is_none() {
        measured.first_error = warm_up.first_error;
    }
    if measured.classes.is_empty() {
        return Err(measured
            .first_error
            .unwrap_or_else(|| "no class produced a verified reply".into()));
    }

    let mut metrics = Vec::new();
    let mut layer_report = None;
    if opts.trace {
        let mut report = layers::run(&w.ladder_cell(), opts.seconds, &mut measured.tracer)?;
        report.metrics.put_all(w.own_layer_metrics());
        report
            .metrics
            .put("bench.trace_overhead_ratio", measured.trace_ratio);
        for p in metrics::per_layer() {
            let value = report
                .metrics
                .get(&p.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", p.name))?;
            metrics.push((p.name, value, p.unit));
        }
        layer_report = Some(report);
    } else {
        for e in &metrics::END_TO_END {
            let value = match e.kind {
                Kind::SetupS => stats::median(&setups),
                Kind::QueriesPerS => measured.queries_per_s,
                Kind::PeakRssMb => peak_rss,
                Kind::Timing { group, per_ms } => {
                    stats::group_ms(&measured.classes, group).expect("a class answered") * per_ms
                }
            };
            metrics.push((e.name.to_owned(), value, e.unit));
        }
    }
    w.teardown();
    Ok(Outcome {
        measured,
        setups_s: setups,
        warm_up_s,
        metrics,
        layers: layer_report,
    })
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The contract's result object.
fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.measured.attempted as f64)),
        ("failed", Json::Num(outcome.measured.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
}

/// The full report of one run: one line of the `--out` file.
fn report_json(opts: &Opts, outcome: &Outcome, host: Json) -> Json {
    let classes = outcome
        .measured
        .classes
        .iter()
        .map(|c| {
            let mut pairs = vec![
                ("name", Json::str(c.name.as_str())),
                ("group", Json::str(c.group.metric())),
                ("n", Json::Num(c.n as f64)),
                ("p10_ms", Json::Num(c.p10_ns / 1e6)),
                ("p50_ms", Json::Num(c.p50_ns / 1e6)),
            ];
            if let Some((label, ns)) = c.tail {
                pairs.push(("tail", Json::str(label)));
                pairs.push(("tail_ms", Json::Num(ns / 1e6)));
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj([
        ("workload", Json::str(opts.workload.as_str())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("scale", Json::Num(opts.scale)),
        ("trace", Json::Bool(opts.trace)),
        ("host", host),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.measured.attempted as f64)),
        ("failed", Json::Num(outcome.measured.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
        (
            "setups_s",
            Json::Arr(outcome.setups_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("warm_up_s", Json::Num(outcome.warm_up_s)),
        ("classes", Json::Arr(classes)),
    ])
}

/// `trace_<workload>.json`: the ladder, self time per span name, and
/// every span and counter reading of the traced passes.
fn trace_json(opts: &Opts, outcome: &Outcome) -> Json {
    let tracer = &outcome.measured.tracer;
    let self_times = tracer
        .self_times()
        .into_iter()
        .map(|(name, ns, count)| {
            Json::obj([
                ("name", Json::str(name)),
                ("self_ms", Json::Num(ns as f64 / 1e6)),
                ("spans", Json::Num(count as f64)),
            ])
        })
        .collect();
    let mut doc = vec![
        ("workload".to_owned(), Json::str(opts.workload.as_str())),
        ("seed".to_owned(), Json::Num(opts.seed as f64)),
        (
            "ladder".to_owned(),
            outcome
                .layers
                .as_ref()
                .map_or(Json::Null, LayerReport::ladder_json),
        ),
        ("self_times".to_owned(), Json::Arr(self_times)),
    ];
    if let Json::Obj(pairs) = tracer.to_json() {
        doc.extend(pairs);
    }
    Json::Obj(doc)
}

fn print_human(opts: &Opts, outcome: &Outcome, host: &Json) {
    println!(
        "perf_report workload={} seed={} seconds={} scale={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.scale, opts.trace
    );
    println!("host {}", host.render());
    println!(
        "{:<28} {:<12} {:>8} {:>12} {:>12} {:>8} {:>12}",
        "class", "group", "n", "p10 ms", "p50 ms", "tail", "tail ms"
    );
    for c in &outcome.measured.classes {
        let (label, tail) = c.tail.map_or(("-", "-".to_owned()), |(l, ns)| {
            (l, format!("{:.4}", ns / 1e6))
        });
        println!(
            "{:<28} {:<12} {:>8} {:>12.4} {:>12.4} {:>8} {:>12}",
            c.name,
            c.group.metric(),
            c.n,
            c.p10_ns / 1e6,
            c.p50_ns / 1e6,
            label,
            tail
        );
    }
    if let Some(layers) = &outcome.layers {
        println!("ladder {}", layers.ladder_json().render());
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!(
        "set-ups {} (median of these is setup_s), warm-up pass {:.4} s",
        outcome
            .setups_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        outcome.warm_up_s
    );
    println!(
        "failed_share {:.6} ratio",
        outcome.measured.failed as f64 / outcome.measured.attempted as f64
    );
    println!(
        "verified {} of {} operations",
        outcome.measured.attempted - outcome.measured.failed,
        outcome.measured.attempted
    );
    if let Some(e) = &outcome.measured.first_error {
        println!("first failure: {e}");
    }
}

fn write_outputs(opts: &Opts, outcome: &Outcome, host: Json, out: &Path) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)?;
    writeln!(file, "{}", report_json(opts, outcome, host).render())?;
    file.flush()?;
    if opts.trace {
        let sibling = out.with_file_name(format!("trace_{}.json", opts.workload));
        std::fs::write(sibling, trace_json(opts, outcome).render())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => {
            let load = |p: &Path| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| compare::parse_runs(&t))
                    .map_err(|e| format!("{}: {e}", p.display()))
            };
            match (load(&a), load(&b)) {
                (Ok(a), Ok(b)) => {
                    let c = compare::compare(&a, &b);
                    print!("{}", c.text);
                    if c.passed() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Run(opts) => {
            let outcome = match run_workload(&opts) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perf_report: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let host = host_json();
            print_human(&opts, &outcome, &host);
            if let Some(out) = &opts.out {
                if let Err(e) = write_outputs(&opts, &outcome, host, out) {
                    eprintln!("perf_report: writing {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", result_json(&outcome).render());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool, corrupt: bool) -> Outcome {
        run_workload(&Opts {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0.0,
            trace,
            scale: 0.02,
            out: None,
            corrupt_first_reply: corrupt,
        })
        .unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn names() -> impl Iterator<Item = &'static str> {
        metrics::WORKLOADS.iter().map(|(n, _)| *n)
    }

    #[test]
    fn every_workload_verifies_and_reports_every_end_to_end_metric() {
        for w in names() {
            let o = smoke(w, false, false);
            assert!(o.correct(), "{w}: {:?}", o.measured.first_error);
            let reported: Vec<&str> = o.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let declared: Vec<&str> = metrics::END_TO_END.iter().map(|e| e.name).collect();
            assert_eq!(reported, declared, "{w}");
            assert!(
                o.metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0),
                "{w}"
            );
            // A workload's native groups are separate numbers; the
            // groups it has no class of repeat its all-class mean.
            let value = |name: &str| o.metrics.iter().find(|(n, _, _)| n == name).unwrap().1;
            let distinct: &[&str] = match w {
                "mem_grid" | "disk_grid" => &[
                    "naive_ms",
                    "sort_agg_ms",
                    "hash_agg_ms",
                    "hash_div_ms",
                    "plan_ms",
                ],
                "svc_churn" | "cluster" => &["query_ms", "hit_us", "write_ms"],
                _ => &[],
            };
            for (i, a) in distinct.iter().enumerate() {
                for b in &distinct[i + 1..] {
                    assert_ne!(value(a), value(b), "{w}: {a} and {b}");
                }
            }
            if w == "svc_hot" {
                assert_eq!(value("hit_us"), value("query_ms") * 1e3, "{w}");
            }
            // Every class of the fixed list answered.
            assert_eq!(
                o.measured.classes.len(),
                build(
                    w,
                    Params {
                        seed: 7,
                        scale: 0.02
                    }
                )
                .class_names()
                .len()
            );
        }
    }

    #[test]
    fn a_corrupted_reply_is_caught_by_verification() {
        for w in names() {
            let o = smoke(w, false, true);
            assert!(!o.correct(), "{w}: corruption went unnoticed");
            assert_eq!(o.measured.failed, 1, "{w}");
            let share = o.measured.failed as f64 / o.measured.attempted as f64;
            assert!(share > 0.0 && share < 1.0);
        }
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_the_ladder() {
        for w in ["mem_grid", "cluster"] {
            let o = smoke(w, true, false);
            assert!(o.correct(), "{w}: {:?}", o.measured.first_error);
            assert_eq!(o.metrics.len(), metrics::per_layer().len());
            assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()), "{w}");
            let layers = o.layers.as_ref().unwrap();
            let rungs: Vec<&str> = layers.ladder.iter().map(|r| r.name).collect();
            assert_eq!(rungs, ["core", "plan", "inproc", "tcp", "cluster"]);
            // Self times sum to the top rung.
            let Json::Arr(rows) = layers.ladder_json() else {
                panic!()
            };
            let sum: f64 = rows
                .iter()
                .map(|r| r.get("self_ms").unwrap().as_f64().unwrap())
                .sum();
            assert!((sum - layers.ladder.last().unwrap().median_ms).abs() < 1e-9);
            // Traced passes left spans behind, each request with a child.
            assert!(o.measured.tracer.spans.iter().any(|s| s.name == "request"));
            assert!(o.measured.tracer.spans.iter().any(|s| s.parent.is_some()));
        }
    }

    #[test]
    fn a_second_seed_changes_the_inputs_but_not_the_class_list() {
        for w in names() {
            let a = build(
                w,
                Params {
                    seed: 1,
                    scale: 0.02,
                },
            );
            let b = build(
                w,
                Params {
                    seed: 2,
                    scale: 0.02,
                },
            );
            assert_eq!(a.class_names(), b.class_names(), "{w}");
            let (ca, cb) = (a.ladder_cell(), b.ladder_cell());
            assert_ne!(ca.dividend.tuples(), cb.dividend.tuples(), "{w}");
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let Ok(Command::Run(o)) =
            parse_args(&args("--workload spill --seed 42 --seconds 8 --trace 1"))
        else {
            panic!("driver arguments must parse");
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("spill", 42, 8.0, true)
        );
        let Ok(Command::Run(o)) = parse_args(&args("--workload spill --trace 0")) else {
            panic!()
        };
        assert!(!o.trace);
        let Ok(Command::Run(o)) = parse_args(&args("--workload spill --trace --scale 0.5")) else {
            panic!()
        };
        assert!(o.trace && o.scale == 0.5);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload spill --seconds 61")).is_err());
        assert!(parse_args(&args("--bogus")).is_err());
    }
}
