//! Ablations of hash-division itself:
//!
//! * the three variants (Figure 1 bit maps, early-output counters, and
//!   counter-only) — measuring what the bit maps cost,
//! * the generic in-memory API against the engine operator — measuring
//!   what the storage/operator machinery costs,
//! * the adaptive hybrid and divisor partitioning against in-memory
//!   execution when memory is ample — measuring their overhead itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reldiv_core::api::{divide, DivisionConfig, OverflowPolicy, Source};
use reldiv_core::mem::{hash_divide, hash_divide_counting};
use reldiv_core::{Algorithm, DivisionSpec, HashDivisionMode};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::StorageManager;
use reldiv_workload::WorkloadSpec;

fn bench_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_division_modes");
    group.sample_size(20);
    let w = WorkloadSpec {
        divisor_size: 100,
        quotient_size: 200,
        ..Default::default()
    }
    .generate(3);
    let config = DivisionConfig {
        assume_unique: true,
        ..Default::default()
    };
    for mode in [
        HashDivisionMode::Standard,
        HashDivisionMode::EarlyOut,
        HashDivisionMode::CounterOnly,
    ] {
        group.bench_with_input(BenchmarkId::new("mode", format!("{mode:?}")), &w, |b, w| {
            b.iter(|| {
                reldiv_bench::run_division_experiment(
                    &w.dividend,
                    &w.divisor,
                    Algorithm::HashDivision { mode },
                    &config,
                )
            })
        });
    }
    group.finish();
}

fn bench_generic_vs_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("generic_vs_engine");
    group.sample_size(20);
    let w = WorkloadSpec {
        divisor_size: 50,
        quotient_size: 400,
        ..Default::default()
    }
    .generate(9);
    let pairs: Vec<(i64, i64)> = w
        .dividend
        .tuples()
        .iter()
        .map(|t| {
            (
                t.value(0).as_int().expect("int"),
                t.value(1).as_int().expect("int"),
            )
        })
        .collect();
    let divisor_vals: Vec<i64> = w
        .divisor
        .tuples()
        .iter()
        .map(|t| t.value(0).as_int().expect("int"))
        .collect();

    group.bench_function("mem_hash_divide", |b| {
        b.iter(|| hash_divide(pairs.iter().copied(), divisor_vals.iter().copied()))
    });
    group.bench_function("mem_hash_divide_counting", |b| {
        b.iter(|| hash_divide_counting(pairs.iter().copied(), divisor_vals.iter().copied()))
    });
    group.bench_function("engine_operator", |b| {
        let storage = StorageManager::shared(StorageConfig::large());
        let spec =
            DivisionSpec::trailing_divisor(w.dividend.schema(), w.divisor.schema()).expect("spec");
        let d = Source::from_relation(&w.dividend);
        let s = Source::from_relation(&w.divisor);
        let config = DivisionConfig {
            assume_unique: true,
            ..Default::default()
        };
        b.iter(|| {
            divide(
                &storage,
                &d,
                &s,
                &spec,
                Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                },
                &config,
            )
            .expect("divide")
        })
    });
    group.finish();
}

fn bench_partitioning_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioning_overhead");
    group.sample_size(10);
    let w = WorkloadSpec {
        divisor_size: 25,
        quotient_size: 2_000,
        ..Default::default()
    }
    .generate(31);
    let policies: Vec<(&str, OverflowPolicy)> = vec![
        ("in_memory", OverflowPolicy::Fail),
        ("adaptive", OverflowPolicy::Adaptive),
        (
            "divisor_k4",
            OverflowPolicy::DivisorPartition { partitions: 4 },
        ),
    ];
    for (name, policy) in policies {
        group.bench_function(name, |b| {
            b.iter(|| {
                let storage = StorageManager::shared(StorageConfig::large());
                let spec = DivisionSpec::trailing_divisor(w.dividend.schema(), w.divisor.schema())
                    .expect("spec");
                divide(
                    &storage,
                    &Source::from_relation(&w.dividend),
                    &Source::from_relation(&w.divisor),
                    &spec,
                    Algorithm::HashDivision {
                        mode: HashDivisionMode::Standard,
                    },
                    &DivisionConfig {
                        assume_unique: true,
                        overflow: policy,
                        ..Default::default()
                    },
                )
                .expect("divide")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_modes,
    bench_generic_vs_engine,
    bench_partitioning_overhead
);
criterion_main!(benches);
