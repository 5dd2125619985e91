//! Chaos harness: closed-loop verification under injected disk faults,
//! deadlines, panicking queries, and concurrent catalog churn.
//!
//! The acceptance bar (ISSUE PR 2): with a seeded fault plan firing
//! transient disk errors on every worker's storage, an updater churning
//! the relations, a fail-point query panicking inside the pool, and
//! deadline-carrying queries racing the clock, **every completed reply is
//! byte-identical to a brute-force oracle** and the process never dies.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_rel::{RecordCodec, Relation, Tuple};
use reldiv_service::{DivideRequest, Service, ServiceConfig, ServiceError};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::FaultPlan;
use reldiv_workload::{brute_force_divide, WorkloadSpec};

use common::request;

/// Algorithms exact for any input pair, including restricted divisors.
const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Naive,
    Algorithm::SortAggregation { join: true },
    Algorithm::HashAggregation { join: true },
    Algorithm::HashDivision {
        mode: HashDivisionMode::Standard,
    },
];

fn generate(seed: u64, dividend: bool) -> Relation {
    generate_scaled(seed, dividend, 10 + seed % 20)
}

/// Big enough that dividend + divisor overflow the soak's 64 KiB buffer
/// pool: every query does real page I/O through the fault plan.
fn generate_big(seed: u64, dividend: bool) -> Relation {
    generate_scaled(seed, dividend, 300 + seed % 100)
}

fn generate_scaled(seed: u64, dividend: bool, quotient_size: u64) -> Relation {
    let w = WorkloadSpec {
        divisor_size: 3 + seed % 4,
        quotient_size,
        incomplete_groups: seed % 6,
        incomplete_fill: 0.5,
        noise_per_group: 1,
        ..WorkloadSpec::default()
    }
    .generate(seed);
    if dividend {
        w.dividend
    } else {
        w.divisor
    }
}

fn canonical(schema_source: &Relation, tuples: &[Tuple], quotient_keys: &[usize]) -> Vec<Vec<u8>> {
    let schema = schema_source
        .schema()
        .project(quotient_keys)
        .expect("projectable");
    let codec = RecordCodec::new(schema);
    let mut records: Vec<Vec<u8>> = tuples
        .iter()
        .map(|t| codec.encode(t).expect("tuples fit schema"))
        .collect();
    records.sort();
    records
}

/// Silences the intentional fail-point panics so the chaos runs do not
/// spam stderr; every other panic still reaches the default hook.
fn quiet_fail_point_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("fail point") {
            default_hook(info);
        }
    }));
}

#[test]
fn panicking_query_is_isolated_and_the_worker_is_replaced() {
    quiet_fail_point_panics();
    let service = Service::start(ServiceConfig {
        workers: 1, // one worker: if the panic killed it, nothing would ever answer again
        queue_depth: 4,
        cache_capacity: 0,
        fail_point_relation: Some("bait".into()),
        ..ServiceConfig::default()
    })
    .expect("start service");
    service.register("r", generate(1, true)).unwrap();
    service.register("s", generate(1, false)).unwrap();
    service.register("bait", generate(2, true)).unwrap();

    for round in 0..3 {
        let err = service.divide(&request("bait", "s")).unwrap_err();
        assert!(
            matches!(err, ServiceError::Internal(_)),
            "round {round}: {err}"
        );
        // The pool's only worker was rebuilt and still serves.
        let ok = service.divide(&request("r", "s")).unwrap();
        assert!(!ok.tuples.is_empty());
    }
    assert_eq!(service.stats().worker_panics, 3);
    assert!(service.is_accepting());
}

#[test]
fn expired_deadlines_cancel_without_killing_the_service() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("start service");
    service.register("r", generate(3, true)).unwrap();
    service.register("s", generate(3, false)).unwrap();

    let instant = DivideRequest {
        deadline_ms: Some(0),
        ..request("r", "s")
    };
    let err = service.divide(&instant).unwrap_err();
    assert_eq!(err, ServiceError::DeadlineExceeded);
    assert_eq!(service.stats().timeouts, 1);

    // A sane deadline still completes.
    let relaxed = DivideRequest {
        deadline_ms: Some(30_000),
        ..request("r", "s")
    };
    assert!(service.divide(&relaxed).is_ok());
}

/// The soak: seeded transient disk faults on every worker, tiny buffer
/// pool (every query does real I/O through the fault plan), catalog
/// churn, interleaved fail-point panics and zero deadlines — and every
/// completed reply must equal the brute-force oracle for the exact
/// versions it reports.
#[test]
fn chaos_soak_every_completed_reply_matches_the_oracle() {
    quiet_fail_point_panics();
    const SEED: u64 = 0xC4A0_5EED;
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: u64 = 60;

    let service = Service::start(ServiceConfig {
        workers: 3,
        queue_depth: 8,
        cache_capacity: 16,
        storage: StorageConfig {
            data_page_size: 4096,
            run_page_size: 1024,
            // Smaller than one dividend: scans evict constantly, so every
            // query does real page I/O through the fault plan.
            buffer_bytes: 24 * 1024,
            work_memory_bytes: 128 * 1024,
        },
        storage_faults: Some(
            FaultPlan::seeded(SEED)
                .with_read_error_rate(0.05)
                .with_write_error_rate(0.05),
        ),
        fail_point_relation: Some("bait".into()),
        ..ServiceConfig::default()
    })
    .expect("start service");

    // Oracle: every relation version ever registered.
    let versions: Arc<Mutex<HashMap<u64, Relation>>> = Arc::default();
    let register = |name: &str, rel: Relation| {
        let v = service.register(name, rel.clone()).expect("register");
        versions.lock().unwrap().insert(v, rel);
    };
    register("r0", generate_big(SEED, true));
    register("r1", generate_big(SEED + 1, true));
    register("s0", generate_big(SEED + 2, false));
    register("s1", generate_big(SEED + 3, false));
    register("bait", generate(SEED + 4, true));

    let incorrect = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let panics_triggered = Arc::new(AtomicU64::new(0));
    let failed_under_fault = Arc::new(AtomicU64::new(0));
    let clients_done = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let service = &service;
            let versions = versions.clone();
            let incorrect = incorrect.clone();
            let completed = completed.clone();
            let panics_triggered = panics_triggered.clone();
            let failed_under_fault = failed_under_fault.clone();
            let clients_done = clients_done.clone();
            scope.spawn(move || {
                let mut rng = SEED.wrapping_add(client_id as u64 * 7919);
                let mut draw = |n: u64| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 33) % n
                };
                let mut served = 0u64;
                while served < QUERIES_PER_CLIENT {
                    let kind = draw(12);
                    // 1-in-12: poke the fail point.
                    if kind == 0 {
                        match service.divide(&request("bait", "s0")) {
                            Err(ServiceError::Internal(_)) => {
                                panics_triggered.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("fail point returned {e}"),
                            Ok(_) => panic!("fail point did not fire"),
                        }
                        continue;
                    }
                    // 1-in-12: an already-expired deadline must cancel.
                    if kind == 1 {
                        let expired = DivideRequest {
                            deadline_ms: Some(0),
                            ..request("r0", "s0")
                        };
                        match service.divide(&expired) {
                            Err(ServiceError::DeadlineExceeded) => {}
                            Err(e) => panic!("expired deadline returned {e}"),
                            Ok(_) => panic!("expired deadline completed"),
                        }
                        continue;
                    }
                    let dividend = if draw(2) == 0 { "r0" } else { "r1" };
                    let divisor = if draw(2) == 0 { "s0" } else { "s1" };
                    let query = DivideRequest {
                        algorithm: Some(ALGORITHMS[draw(ALGORITHMS.len() as u64) as usize]),
                        ..request(dividend, divisor)
                    };
                    match service.divide(&query) {
                        Ok(reply) => {
                            let (dividend_rel, divisor_rel) = {
                                let v = versions.lock().unwrap();
                                (
                                    v.get(&reply.dividend_version).cloned(),
                                    v.get(&reply.divisor_version).cloned(),
                                )
                            };
                            let (Some(dividend_rel), Some(divisor_rel)) =
                                (dividend_rel, divisor_rel)
                            else {
                                panic!(
                                    "reply pinned versions {}/{} unknown to the oracle",
                                    reply.dividend_version, reply.divisor_version
                                );
                            };
                            let want = brute_force_divide(&dividend_rel, &divisor_rel, &[1], &[0]);
                            let want = canonical(&dividend_rel, &want, &[0]);
                            let got = canonical(&dividend_rel, &reply.tuples, &[0]);
                            if got != want {
                                incorrect.fetch_add(1, Ordering::Relaxed);
                            }
                            completed.fetch_add(1, Ordering::Relaxed);
                            served += 1;
                        }
                        Err(ServiceError::Overloaded) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(ServiceError::Exec(_) | ServiceError::Internal(_)) => {
                            // A transient fault burst can out-last the
                            // retry budget; failing cleanly is allowed,
                            // serving a wrong quotient is not.
                            failed_under_fault.fetch_add(1, Ordering::Relaxed);
                            served += 1;
                        }
                        Err(e) => panic!("unexpected service error: {e}"),
                    }
                }
                clients_done.fetch_add(1, Ordering::Relaxed);
            });
        }

        // Updater: churn the catalog until every client finished.
        let versions_u = versions.clone();
        let service_ref = &service;
        let clients_done_u = clients_done.clone();
        scope.spawn(move || {
            let mut churn_seed = SEED ^ 0xD1_71DE;
            // Deadman: a panicked client never increments clients_done, so
            // bound the churn loop rather than hang the scope forever.
            let deadman = std::time::Instant::now();
            while clients_done_u.load(Ordering::Relaxed) < CLIENTS as u64
                && deadman.elapsed() < Duration::from_secs(300)
            {
                churn_seed = churn_seed.wrapping_add(0x9E37_79B9);
                let names = ["r0", "r1", "s0", "s1"];
                let name = names[(churn_seed >> 7) as usize % names.len()];
                let rel = generate_big(churn_seed, name.starts_with('r'));
                // Hold the oracle's lock across the register: a reply that
                // pins the new version must find it recorded.
                let mut versions = versions_u.lock().unwrap();
                if let Ok(v) = service_ref.register(name, rel.clone()) {
                    versions.insert(v, rel);
                }
                drop(versions);
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    });

    let stats = service.stats();
    let completed = completed.load(Ordering::Relaxed);
    let incorrect = incorrect.load(Ordering::Relaxed);
    assert_eq!(
        incorrect, 0,
        "{incorrect} of {completed} completed replies diverged from the oracle"
    );
    assert!(completed >= CLIENTS as u64 * QUERIES_PER_CLIENT / 2);
    assert!(
        panics_triggered.load(Ordering::Relaxed) > 0,
        "the fail point never fired"
    );
    assert_eq!(
        stats.worker_panics,
        panics_triggered.load(Ordering::Relaxed),
        "every triggered panic must be accounted for"
    );
    assert!(
        stats.io_retries > 0,
        "the fault plan should have forced buffer-manager retries"
    );
    assert!(stats.timeouts > 0, "expired deadlines should be counted");
    // The service survived all of it.
    assert!(service.is_accepting());
    let final_reply = service
        .divide(&request("r0", "s0"))
        .expect("service still serves after the soak");
    assert!(!final_reply.schema.fields().is_empty());
}
