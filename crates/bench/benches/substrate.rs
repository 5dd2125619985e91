//! Micro-benchmarks of the storage and execution substrate: the
//! bucket-chained hash table, bit maps, B+-trees, and the external sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reldiv_core::bitmap::Bitmap;
use reldiv_exec::hash_table::ChainedTable;
use reldiv_exec::op::Operator;
use reldiv_exec::scan::MemScan;
use reldiv_exec::sort::{Sort, SortConfig, SortMode};
use reldiv_rel::tuple::ints;
use reldiv_rel::{Relation, Schema};
use reldiv_storage::btree::BTree;
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

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(10);
    group.bench_function("insert_10k", |b| {
        b.iter(|| {
            let mut sm = StorageManager::new(StorageConfig::large());
            let mut t = BTree::create(&mut sm, StorageManager::DATA_DISK).expect("create");
            for i in 0..10_000u64 {
                let k = (i.wrapping_mul(2654435761) % 100_000).to_be_bytes();
                t.insert(
                    &mut sm,
                    &k,
                    reldiv_storage::Rid {
                        page: reldiv_storage::PageId::new(reldiv_storage::DiskId(0), i),
                        slot: 0,
                    },
                )
                .expect("insert");
            }
        })
    });
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
                let mut s = Sort::new(
                    storage,
                    Box::new(MemScan::new(rel.clone())),
                    vec![0, 1],
                    SortMode::Plain,
                    SortConfig {
                        memory_bytes: mem,
                        fan_in: 64,
                    },
                )
                .expect("sort");
                s.open().expect("open");
                let mut n = 0u64;
                while s.next().expect("next").is_some() {
                    n += 1;
                }
                s.close().expect("close");
                n
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chained_table,
    bench_bitmap,
    bench_btree,
    bench_sort
);
criterion_main!(benches);
