//! Micro-benchmarks of the storage and execution substrate: the
//! bucket-chained hash table, bit maps, and the external sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reldiv_core::bitmap::Bitmap;
use reldiv_exec::batch::drain_batches;
use reldiv_exec::batch::scan::BatchMemScan;
use reldiv_exec::batch::sort::BatchSort;
use reldiv_exec::hash_table::ChainedTable;
use reldiv_exec::sort::{SortConfig, SortMode};
use reldiv_exec::CancelToken;
use reldiv_rel::tuple::ints;
use reldiv_rel::{Relation, Schema};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{MemoryPool, StorageManager};

fn bench_chained_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("chained_table");
    for n in [1_000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
            b.iter(|| {
                let pool = MemoryPool::unbounded();
                let mut t = ChainedTable::new(&pool, 16).expect("table");
                for i in 0..n {
                    t.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i)
                        .expect("insert");
                }
                t.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("probe", n), &n, |b, &n| {
            let pool = MemoryPool::unbounded();
            let mut t = ChainedTable::new(&pool, 16).expect("table");
            for i in 0..n {
                t.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i)
                    .expect("insert");
            }
            b.iter(|| {
                let mut hits = 0;
                for i in 0..n {
                    let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                    if t.find_from(t.head(h), |_, &v| v == i).is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    for bits in [64usize, 400, 4096] {
        group.bench_with_input(
            BenchmarkId::new("set_then_scan", bits),
            &bits,
            |b, &bits| {
                b.iter(|| {
                    let mut m = Bitmap::new(bits);
                    for i in 0..bits {
                        m.set(i);
                    }
                    m.all_set()
                })
            },
        );
    }
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_sort");
    group.sample_size(10);
    let schema = Schema::new(vec![
        reldiv_rel::schema::Field::int("a"),
        reldiv_rel::schema::Field::int("b"),
    ]);
    let rel = Relation::from_tuples(
        schema,
        (0..50_000i64)
            .map(|i| ints(&[(i * 7919) % 50_000, i]))
            .collect(),
    )
    .expect("relation");
    for (label, mem) in [("in_memory", 16 << 20), ("spilling", 64 * 1024)] {
        group.bench_with_input(BenchmarkId::new("sort_50k", label), &mem, |b, &mem| {
            b.iter(|| {
                let storage = StorageManager::shared(StorageConfig::large());
                let sort = BatchSort::new(
                    storage,
                    Box::new(BatchMemScan::new(rel.clone())),
                    vec![0, 1],
                    SortMode::Plain,
                    SortConfig {
                        memory_bytes: mem,
                        fan_in: 64,
                    },
                )
                .expect("sort");
                let mut n = 0u64;
                drain_batches(Box::new(sort), CancelToken::none(), |batch| {
                    n += batch.len() as u64;
                    Ok(())
                })
                .expect("drain");
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chained_table, bench_bitmap, bench_sort);
criterion_main!(benches);
