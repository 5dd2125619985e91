//! The benchmark's declared names: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. A run reports exactly these, and a
//! unit test holds the root `BENCHMARK.json` to these tables.

use crate::engine::BUDGETS;
use crate::sut::Family;
use crate::workload::Group;

/// How long one run measures, as `BENCHMARK.json` declares it.
pub const RUN_SECONDS: u64 = 16;

pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "mem_grid",
        "Table 4's nine cells in memory: core, exec, rel and plan do all the work and storage transfers nothing",
    ),
    (
        "disk_grid",
        "the paper's experiment: record files 10x the 256 KB pool, cold start per query, so storage and exec::sort dominate",
    ),
    (
        "spill",
        "hash-division of 500k tuples at 64 KB to 4 MB budgets, uniform and Zipf: core::hybrid and the storage write path",
    ),
    (
        "svc_hot",
        "2 TCP clients, every request a cache hit: only wire decode, admission, cache lookup and encode are on the path",
    ),
    (
        "svc_churn",
        "2 TCP clients registering fresh versions beside misses, plans and hits: writes, invalidation, materialization",
    ),
    (
        "cluster",
        "4 nodes, k=2: sharded replicated writes and both Section 6 strategies cold then warm; links and collection dominate",
    ),
];

/// Where an end-to-end metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    SetupS,
    QueriesPerS,
    PeakRssMb,
    /// `stats::group_ms` of the group, times `per_ms` to reach the unit.
    Timing {
        group: Group,
        per_ms: f64,
    },
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub kind: Kind,
}

const fn timing(group: Group, unit: &'static str, per_ms: f64, bound: f64) -> EndToEnd {
    EndToEnd {
        name: group.metric(),
        unit,
        better: "lower",
        bound,
        kind: Kind::Timing { group, per_ms },
    }
}

/// ISSUE 11's end-to-end metrics. The benchmark contract has every run
/// report every one of them, so a timing metric whose group a workload
/// has no class of is that workload's mean over all its classes
/// (README, "Which pairings are native"). `failed_share` is the result
/// object's `failed ÷ attempted` (a metric may never read 0) and
/// `hit_p99_us` is the per-layer `service.hit_p99_us`.
///
/// Every bound is the contract's maximum, 0.25, because every timing is
/// real wall time and the reference host's is not steady: a vCPU runs in
/// one of two speed modes about 27 % apart that alternate over seconds
/// to minutes, so ten runs of one commit spread 4–25 % between their
/// quartiles (README, "Reference-host numbers"). A tighter bound would
/// reject changes for the host's behaviour. A claim is held tighter by
/// pairing runs: `--compare` prints every spread and calls a pairing
/// `unresolved` when the spread exceeds the bound.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        kind: Kind::SetupS,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        kind: Kind::QueriesPerS,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        kind: Kind::PeakRssMb,
    },
    timing(Group::Naive, "ms", 1.0, 0.25),
    timing(Group::SortAgg, "ms", 1.0, 0.25),
    timing(Group::HashAgg, "ms", 1.0, 0.25),
    timing(Group::HashDiv, "ms", 1.0, 0.25),
    timing(Group::Plan, "ms", 1.0, 0.25),
    timing(Group::Query, "ms", 1.0, 0.25),
    timing(Group::Hit, "us", 1e3, 0.25),
    timing(Group::Write, "ms", 1.0, 0.25),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; the unit test that holds the file
    /// to this table is its only reader.
    #[allow(dead_code)]
    pub better: &'static str,
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
    }
}

/// Every per-layer metric a traced run reports, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let lower = "lower";
    let higher = "higher";
    let mut v = vec![
        layer("bench.trace_overhead_ratio", "ratio", higher),
        layer("rel.codec_encode_ns", "ns", lower),
        layer("rel.codec_decode_ns", "ns", lower),
        layer("rel.hash_rows_ns", "ns", lower),
        layer("rel.tuple_hash_ns", "ns", lower),
        layer("storage.load_ms", "ms", lower),
        layer("storage.scan_cold_ms", "ms", lower),
        layer("storage.scan_warm_ms", "ms", lower),
    ];
    for family in Family::ALL {
        let f = family.name();
        v.push(layer(format!("storage.pages_read.{f}"), "count", lower));
        v.push(layer(format!("storage.pages_written.{f}"), "count", lower));
        v.push(layer(format!("storage.seeks.{f}"), "count", lower));
        v.push(layer(format!("storage.evictions.{f}"), "count", lower));
        v.push(layer(
            format!("storage.pool_hit_ratio.{f}"),
            "ratio",
            higher,
        ));
    }
    v.extend([
        layer("storage.modeled_io_ms", "ms", lower),
        layer("exec.sort_ms", "ms", lower),
        layer("exec.sort_mem_ms", "ms", lower),
        layer("exec.hash_agg_ms", "ms", lower),
    ]);
    for family in Family::ALL {
        v.push(layer(format!("core.{}_ms", family.name()), "ms", lower));
        v.push(layer(
            format!("core.ops_per_tuple.{}", family.name()),
            "count",
            lower,
        ));
    }
    v.extend([
        layer("core.batch_speedup", "ratio", higher),
        layer("costmodel.recommend_ns", "ns", lower),
        layer("costmodel.choice_regret", "ratio", lower),
    ]);
    for (_, b) in BUDGETS {
        v.push(layer(format!("core.spill_bytes.{b}"), "bytes", lower));
        v.push(layer(format!("core.respool_bytes.{b}"), "bytes", lower));
        v.push(layer(format!("core.write_amp.{b}"), "ratio", lower));
        v.push(layer(
            format!("core.partitions_spilled.{b}"),
            "count",
            lower,
        ));
        v.push(layer(
            format!("core.partitions_revived.{b}"),
            "count",
            higher,
        ));
        v.push(layer(format!("core.recursion_depth.{b}"), "count", lower));
    }
    v.extend([
        layer("ladder.core_ms", "ms", lower),
        layer("plan.parse_us", "us", lower),
        layer("plan.bind_us", "us", lower),
        layer("plan.execute_ms", "ms", lower),
        layer("ladder.plan_ms", "ms", lower),
        layer("ladder.plan_self_ms", "ms", lower),
        layer("plan.overhead_us", "us", lower),
        layer("service.register_inproc_ms", "ms", lower),
        layer("ladder.inproc_ms", "ms", lower),
        layer("ladder.inproc_self_ms", "ms", lower),
        layer("ladder.tcp_ms", "ms", lower),
        layer("ladder.tcp_self_ms", "ms", lower),
        layer("service.materialize_ms", "ms", lower),
        layer("service.inproc_hit_us", "us", lower),
        layer("service.ping_us", "us", lower),
        layer("service.tcp_hit_us", "us", lower),
        layer("service.hit_p99_us", "us", lower),
        layer("service.wire_us", "us", lower),
        layer("service.proto_encode_us.register", "us", lower),
        layer("service.proto_decode_us.register", "us", lower),
        layer("service.proto_encode_us.reply", "us", lower),
        layer("service.proto_decode_us.reply", "us", lower),
        layer("ladder.cluster_ms", "ms", lower),
        layer("ladder.cluster_self_ms", "ms", lower),
        layer("ladder.samples", "count", higher),
        layer("cluster.register_ms", "ms", lower),
        layer("cluster.register_bytes", "bytes", lower),
        layer("cluster.write_amp", "ratio", lower),
    ]);
    for variant in ["quotient", "divisor_filtered"] {
        v.push(layer(format!("cluster.cold_ms.{variant}"), "ms", lower));
        v.push(layer(format!("cluster.warm_us.{variant}"), "us", lower));
        v.push(layer(
            format!("cluster.bytes_per_query.{variant}"),
            "bytes",
            lower,
        ));
        v.push(layer(
            format!("cluster.messages_per_query.{variant}"),
            "count",
            lower,
        ));
    }
    v.extend([
        layer("cluster.filtered_tuples", "count", higher),
        layer("cluster.filter_bytes_saved_ratio", "ratio", higher),
        layer("cluster.overhead_ms", "ms", lower),
        layer("cluster.failovers", "count", lower),
        layer("cluster.replica_retries", "count", lower),
        layer("service.cache_hit_ratio", "ratio", higher),
        layer("service.rejections", "count", lower),
        layer("service.degraded_queries", "count", lower),
        layer("parallel.quotient_ms", "ms", lower),
        layer("parallel.bytes", "bytes", lower),
        layer("parallel.messages", "count", lower),
        layer("parallel.divisor_ms", "ms", lower),
    ]);
    v
}

/// Per-layer metrics that are counts made by the program and follow
/// the data alone: they must repeat bit-for-bit for a fixed seed, and
/// `--compare` reports any drift as an error.
pub fn is_exact_count(name: &str) -> bool {
    [
        "storage.pages_",
        "core.ops_per_tuple.",
        "core.spill_bytes.",
        "cluster.bytes_per_query.",
    ]
    .iter()
    .any(|prefix| name.starts_with(prefix))
        || name == "cluster.register_bytes"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The `BENCHMARK.json` of the repository this package sits in.
    fn benchmark_json() -> Json {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                assert!(text.len() < 64 * 1024);
                return Json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = benchmark_json();
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let list = doc.get(key).and_then(Json::as_arr).expect(key);
            list.iter()
                .map(|row| {
                    assert_eq!(row.as_obj().unwrap().len(), fields.len(), "{key}");
                    fields
                        .iter()
                        .map(|f| match row.get(f) {
                            Some(Json::Str(s)) => s.clone(),
                            Some(Json::Num(n)) => n.to_string(),
                            other => panic!("{key}.{f}: {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|(name, why)| vec![(*name).to_owned(), (*why).to_owned()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|e| {
                [e.name, e.unit, e.better]
                    .map(str::to_owned)
                    .into_iter()
                    .chain([e.bound.to_string()])
                    .collect()
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        let layers: Vec<Vec<String>> = per_layer()
            .into_iter()
            .map(|p| vec![p.name, p.unit.to_owned(), p.better.to_owned()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), layers);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(END_TO_END.iter().map(|e| e.name.to_owned()));
        names.extend(per_layer().into_iter().map(|p| p.name));
        for name in &names {
            assert!(well_formed(name), "{name:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
    }

    #[test]
    fn the_declaration_fits_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        for unit in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(per_layer().iter().map(|p| p.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
