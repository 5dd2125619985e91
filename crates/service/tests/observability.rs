//! Observability end to end: latency is recorded exactly once per
//! answered query (the histogram and the `queries` counter can never
//! drift), and `EXPLAIN ANALYZE` profiles travel from the worker through
//! both transports.

mod common;

use reldiv_core::Algorithm;
use reldiv_rel::Relation;
use reldiv_service::{
    DivideRequest, DivisionClient, InProcClient, ServerHandle, Service, ServiceConfig, TcpClient,
};
use reldiv_workload::WorkloadSpec;
use std::sync::Arc;

use common::request;

fn workload() -> (Relation, Relation) {
    let w = WorkloadSpec {
        divisor_size: 5,
        quotient_size: 10,
        incomplete_groups: 4,
        incomplete_fill: 0.5,
        noise_per_group: 1,
        ..WorkloadSpec::default()
    }
    .generate(8860);
    (w.dividend, w.divisor)
}

fn service_with_data() -> Arc<Service> {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let (dividend, divisor) = workload();
    service.register("r", dividend).unwrap();
    service.register("s", divisor).unwrap();
    service
}

/// The latency-recording regression test: one histogram sample per
/// answered query, no matter how the query was answered (executed or
/// cache hit), and zero samples for refused queries.
#[test]
fn latency_is_recorded_exactly_once_per_answered_query() {
    let service = service_with_data();
    // 3 distinct (dividend, divisor, algorithm) keys, each asked twice:
    // 3 executions + 3 cache hits.
    for _ in 0..2 {
        for algorithm in [
            Algorithm::Naive,
            Algorithm::SortAggregation { join: true },
            Algorithm::HashAggregation { join: true },
        ] {
            let query = DivideRequest {
                algorithm: Some(algorithm),
                ..request("r", "s")
            };
            service.divide(&query).unwrap();
        }
    }
    // A refused query must not contribute a sample.
    service.divide(&request("r", "nonexistent")).unwrap_err();

    let stats = service.stats();
    assert_eq!(stats.queries, 6);
    assert_eq!(stats.cache_hits, 3);
    assert_eq!(stats.cache_misses, 3);
    assert_eq!(stats.errors, 1);
    assert_eq!(
        stats.latency_count, stats.queries,
        "exactly one histogram sample per answered query"
    );
}

/// `DivideReply.micros` is the same quantity the histogram records:
/// queue-inclusive end-to-end latency, stamped once by the front end.
/// Every answer — executed or cached — carries a non-zero stamp bounded
/// by the exact recorded extremes of the histogram.
#[test]
fn response_micros_agree_with_the_histogram() {
    let service = service_with_data();
    let mut stamps = Vec::new();
    for _ in 0..4 {
        stamps.push(service.divide(&request("r", "s")).unwrap().micros);
    }
    assert!(
        stamps.iter().all(|&m| m > 0),
        "cached responses are stamped too: {stamps:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.latency_count, 4);
    // The histogram's exact extremes bracket every stamped response.
    let (lo, hi) = (stats.latency_p50_us, stats.latency_p99_us);
    assert!(lo <= hi);
}

/// A profiled query returns a span tree whose root covers the whole
/// division; an unprofiled query returns none; a cache hit executes
/// nothing and returns none even when asked.
#[test]
fn profiles_travel_through_the_in_process_client() {
    let service = service_with_data();
    let profiled = DivideRequest {
        algorithm: Some(Algorithm::HashDivision {
            mode: reldiv_core::HashDivisionMode::Standard,
        }),
        profile: true,
        ..request("r", "s")
    };

    let first = service.divide(&profiled).unwrap();
    assert!(!first.cached);
    let profile = first
        .profile
        .expect("uncached profiled query returns a tree");
    assert!(
        profile.root.label.starts_with("divide ["),
        "{}",
        profile.root.label
    );
    assert!(
        profile.root.node_count() >= 3,
        "scans + operator under the root"
    );
    assert!(profile.root.wall_micros <= first.micros.max(1));

    // Same key again: served from cache, no execution, no profile.
    let second = service.divide(&profiled).unwrap();
    assert!(second.cached);
    assert!(second.profile.is_none(), "cache hits execute nothing");

    // Unprofiled queries pay nothing and carry nothing.
    let plain = DivideRequest {
        algorithm: profiled.algorithm,
        ..request("r2", "s")
    };
    service.register("r2", workload().0).unwrap();
    let unprofiled = service.divide(&plain).unwrap();
    assert!(unprofiled.profile.is_none());

    let stats = service.stats();
    assert_eq!(
        stats.profiled_queries, 1,
        "only the executed profiled query counts"
    );
}

/// The profile survives the wire: a TCP client's `--profile` divide gets
/// the same span tree shape an in-process caller sees, and the versioned
/// stats frame carries the new counters.
#[test]
fn profiles_and_new_counters_travel_over_tcp() {
    let service = service_with_data();
    let server = ServerHandle::start(service.clone(), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let profiled = DivideRequest {
        algorithm: Some(Algorithm::Naive),
        profile: true,
        ..request("r", "s")
    };
    let reply = client.divide(&profiled).unwrap();
    let profile = reply
        .profile
        .expect("profiled divide returns a tree over TCP");
    assert!(profile.root.label.starts_with("divide ["));
    assert!(profile.root.node_count() >= 3);
    // The rendered tree is non-trivial (the divload --profile output).
    assert!(profile.render().contains("wall="));

    // In-process comparison: same shape from the same service.
    let mut inproc = InProcClient::new(service.clone());
    let direct = inproc.divide(&profiled).unwrap();
    // The second identical request hits the cache → no profile; compare
    // against the TCP tree only when it executed.
    if let Some(direct_profile) = direct.profile {
        assert_eq!(direct_profile.root.label, profile.root.label);
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.latency_count, stats.queries);
    assert!(stats.profiled_queries >= 1);
}

/// A per-query memory budget forces the division to degrade adaptively
/// — visible in the new stats counters — while the quotient stays exact
/// and identical to the unbudgeted run, so both populate the same cache
/// entry.
#[test]
fn mem_budget_degrades_and_is_counted_in_stats() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    // Big enough that hash-division's tables overflow a 48 KB budget.
    let w = WorkloadSpec {
        divisor_size: 4,
        quotient_size: 3000,
        ..WorkloadSpec::default()
    }
    .generate(4242);
    service.register("r", w.dividend).unwrap();
    service.register("s", w.divisor).unwrap();

    let budgeted = DivideRequest {
        algorithm: Some(Algorithm::HashDivision {
            mode: reldiv_core::HashDivisionMode::Standard,
        }),
        mem_budget: Some(48 * 1024),
        ..request("r", "s")
    };
    let reply = service.divide(&budgeted).unwrap();
    assert!(!reply.cached);
    let mut quotient: Vec<i64> = reply
        .tuples
        .iter()
        .map(|t| t.value(0).as_int().expect("quotient-id is an int column"))
        .collect();
    quotient.sort_unstable();
    assert_eq!(quotient, w.expected_quotient, "spilling keeps the answer");
    let stats = service.stats();
    assert_eq!(stats.degraded_queries, 1, "the 48 KB budget must bite");
    assert!(stats.division_spill_bytes > 0);

    // The identical query without a budget is answered from the cache —
    // the quotient is the same relation either way.
    let unbudgeted = DivideRequest {
        mem_budget: None,
        ..budgeted
    };
    let cached = service.divide(&unbudgeted).unwrap();
    assert!(cached.cached, "budgets do not fragment the result cache");
    let stats = service.stats();
    assert_eq!(stats.degraded_queries, 1, "cache hits execute nothing");
}
