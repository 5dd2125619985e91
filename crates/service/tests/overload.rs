//! Admission control and graceful shutdown under load.
//!
//! A 1-worker, 1-slot service keeps at most two queries in the system;
//! flooding it with slow queries must produce `Overloaded` rejections
//! (not unbounded queueing), every admitted query must still answer
//! correctly, and a shutdown issued under load must complete all
//! admitted queries while refusing new ones.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reldiv_core::Algorithm;
use reldiv_rel::Relation;
use reldiv_service::{DivideRequest, Service, ServiceConfig, ServiceError};
use reldiv_workload::WorkloadSpec;

/// A workload big enough that one (naive, sort-heavy) division takes a
/// visible amount of time even on a fast machine.
fn slow_workload() -> (Relation, Relation, usize) {
    let quotient_size = 300;
    let w = WorkloadSpec {
        divisor_size: 24,
        quotient_size,
        incomplete_groups: 100,
        incomplete_fill: 0.5,
        noise_per_group: 3,
        ..WorkloadSpec::default()
    }
    .generate(7);
    (w.dividend, w.divisor, quotient_size as usize)
}

fn slow_request() -> DivideRequest {
    DivideRequest {
        algorithm: Some(Algorithm::Naive),
        ..common::request("r", "s")
    }
}

#[test]
fn one_slot_queue_rejects_excess_load_with_overloaded() {
    let (dividend, divisor, quotient_size) = slow_workload();
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0, // every query must execute, none absorbed by the cache
        ..ServiceConfig::default()
    })
    .expect("start service");
    service.register("r", dividend).unwrap();
    service.register("s", divisor).unwrap();

    const CLIENTS: usize = 8;
    let completed = Arc::new(AtomicUsize::new(0));
    let rejected = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let service = service.clone();
            let completed = completed.clone();
            let rejected = rejected.clone();
            std::thread::spawn(move || match service.divide(&slow_request()) {
                Ok(response) => {
                    assert_eq!(response.tuples.len(), quotient_size);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServiceError::Overloaded) => {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(other) => panic!("unexpected error: {other}"),
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let completed = completed.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(completed + rejected, CLIENTS);
    assert!(completed >= 1, "at least the first query is admitted");
    assert!(
        rejected >= 1,
        "a 1-slot queue under {CLIENTS} concurrent slow queries must shed load"
    );
    let stats = service.stats();
    assert_eq!(stats.rejections as usize, rejected);
    assert_eq!(stats.queries as usize, completed);
    service.shutdown();
}

#[test]
fn rejected_queries_return_fast_while_a_slow_query_runs() {
    // Admission control must reject immediately, not after waiting in
    // line behind the running query.
    let (dividend, divisor, _) = slow_workload();
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("start service");
    service.register("r", dividend).unwrap();
    service.register("s", divisor).unwrap();

    // Saturate: one executing, one queued (requests race, so take the
    // first two that are admitted).
    let mut background = Vec::new();
    let mut admitted = 0u64;
    while admitted < 2 {
        let worker = service.clone();
        let handle = std::thread::spawn(move || worker.divide(&slow_request()));
        std::thread::sleep(Duration::from_millis(20));
        if service.stats().cache_misses > admitted {
            admitted = service.stats().cache_misses;
        }
        background.push(handle);
    }

    let start = Instant::now();
    let result = service.divide(&slow_request());
    let elapsed = start.elapsed();
    if matches!(result, Err(ServiceError::Overloaded)) {
        assert!(
            elapsed < Duration::from_millis(250),
            "rejection took {elapsed:?}; admission control must not queue-wait"
        );
    }
    for handle in background {
        let _ = handle.join().unwrap();
    }
    service.shutdown();
}

#[test]
fn graceful_shutdown_completes_all_admitted_queries() {
    let (dividend, divisor, quotient_size) = slow_workload();
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 8,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("start service");
    service.register("r", dividend).unwrap();
    service.register("s", divisor).unwrap();

    const CLIENTS: u64 = 4;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || service.divide(&slow_request()))
        })
        .collect();

    // Wait until all four queries are submitted (the queue holds them
    // all), then shut down while they are in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().cache_misses < CLIENTS {
        assert!(Instant::now() < deadline, "queries never got submitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    service.shutdown();

    // Every admitted query completed with a correct quotient — none were
    // dropped by the shutdown.
    for handle in handles {
        let response = handle
            .join()
            .unwrap()
            .expect("admitted query must complete");
        assert_eq!(response.tuples.len(), quotient_size);
    }

    // New work is refused after shutdown.
    assert!(!service.is_accepting());
    assert!(matches!(
        service.divide(&slow_request()),
        Err(ServiceError::ShuttingDown)
    ));
    assert!(matches!(
        service.register(
            "t",
            Relation::from_tuples(
                reldiv_workload::divisor_schema(),
                vec![reldiv_rel::tuple::ints(&[1])],
            )
            .unwrap()
        ),
        Err(ServiceError::ShuttingDown)
    ));
    let stats = service.stats();
    assert_eq!(stats.queries, CLIENTS);
    assert!(stats.shed_shutdown >= 1);
}

#[test]
fn queue_depth_bounds_in_flight_work() {
    // The submission queue is the only buffer: with D slots and W
    // workers, no more than W + D queries can be past admission at once,
    // so memory for in-flight work is bounded regardless of offered load.
    let (dividend, divisor, _) = slow_workload();
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("start service");
    service.register("r", dividend).unwrap();
    service.register("s", divisor).unwrap();

    const CLIENTS: usize = 16;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || service.divide(&slow_request()).is_ok())
        })
        .collect();
    let outcomes: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = service.stats();
    assert_eq!(
        stats.queries + stats.rejections,
        CLIENTS as u64,
        "every request either completed or was rejected: {stats:?}"
    );
    assert!(outcomes.iter().any(|&ok| ok));
    service.shutdown();
}
