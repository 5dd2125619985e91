//! The one hash grouping over its one spill: the distinct and the group
//! count, in an ample pool, in 48 KB (the groups spill and merge back)
//! and in 6 KB (a spilled partition does not fit when merged back and is
//! re-partitioned), on `Int`, `Str(8)` and two-column keys — each checked
//! against a `HashMap` of the rows, and each leaving no spill file and no
//! pinned page behind, a cancel in the middle of a spill included.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use reldiv_exec::batch::agg::{BatchDistinct, BatchHashCountAggregate};
use reldiv_exec::batch::scan::BatchMemScan;
use reldiv_exec::batch::{collect_batches, BatchOperator, BoxedBatchOp};
use reldiv_exec::groups::Aggregate;
use reldiv_exec::hybrid::{Hybrid, DEFAULT_FANOUT};
use reldiv_exec::report::DegradationReport;
use reldiv_exec::CancelToken;
use reldiv_rel::schema::Field;
use reldiv_rel::{Batch, Relation, Schema, Tuple, Value};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{MemoryPool, StorageManager, StorageRef};

const GROUPS: i64 = 3000;
const PER_GROUP: i64 = 3;

/// The pools: ample, one the groups spill from, one that re-partitions.
const POOLS: [usize; 3] = [1 << 22, 48 * 1024, 6 * 1024];

/// The key columns of `layout`, and key `g`'s values in them.
fn key(layout: &str, g: i64) -> (Vec<Field>, Vec<Value>) {
    match layout {
        "int" => (vec![Field::int("k")], vec![Value::Int(g * 7919)]),
        "str8" => (
            vec![Field::str("k", 8)],
            vec![Value::Str(format!("k{g:05}"))],
        ),
        _ => (
            vec![Field::int("k1"), Field::int("k2")],
            vec![Value::Int(g / 10), Value::Int(g % 10)],
        ),
    }
}

/// `GROUPS` keys of `PER_GROUP` rows each, interleaved, then a payload
/// column: the key columns are `0..arity - 1`.
fn rows(layout: &str) -> Relation {
    let fields = key(layout, 0).0;
    let schema = Schema::new(fields.into_iter().chain([Field::int("x")]).collect());
    let rows = (0..GROUPS * PER_GROUP).map(|i| {
        let mut row = key(layout, i % GROUPS).1;
        row.push(Value::Int(i));
        Tuple::new(row)
    });
    Relation::from_tuples(schema, rows.collect()).unwrap()
}

fn storage() -> StorageRef {
    StorageManager::shared(StorageConfig {
        buffer_bytes: 16 * 1024,
        ..StorageConfig::paper()
    })
}

/// The grouping of `rel` under test: the group count on its key columns,
/// or the distinct of its key columns alone.
fn grouping(
    rel: &Relation,
    agg: Aggregate,
    pool: &MemoryPool,
    storage: &StorageRef,
) -> BoxedBatchOp {
    let keys: Vec<usize> = (0..rel.schema().arity() - 1).collect();
    match agg {
        Aggregate::Count => {
            let scan = Box::new(BatchMemScan::new(rel.clone()));
            let op = BatchHashCountAggregate::new(scan, keys, pool.clone(), storage.clone());
            Box::new(op.unwrap())
        }
        _ => {
            let scan = Box::new(BatchMemScan::new(rel.project(&keys).unwrap()));
            Box::new(BatchDistinct::distinct(scan, pool.clone(), storage.clone()))
        }
    }
}

/// Each key of `rel`'s rows with its number of rows.
fn oracle(rel: &Relation) -> HashMap<Vec<Value>, i64> {
    let mut counts = HashMap::new();
    for t in rel.tuples() {
        let key = t.values()[..rel.schema().arity() - 1].to_vec();
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

#[test]
fn every_grouping_equals_the_oracle_in_every_pool() {
    for layout in ["int", "str8", "pair"] {
        let rel = rows(layout);
        let want = oracle(&rel);
        for agg in [Aggregate::Distinct, Aggregate::Count] {
            for pool_bytes in POOLS {
                let case = format!("{layout} {agg:?} {pool_bytes}");
                let (storage, pool) = (storage(), MemoryPool::new(pool_bytes));
                let out = grouping(&rel, agg, &pool, &storage);
                let out = collect_batches(out, CancelToken::none()).unwrap();
                let mut got = HashMap::new();
                for t in out.tuples() {
                    let (key, count) = match agg {
                        Aggregate::Count => {
                            let (key, count) = t.values().split_at(t.arity() - 1);
                            (key.to_vec(), count[0].as_int().unwrap())
                        }
                        _ => (t.values().to_vec(), 1),
                    };
                    assert!(got.insert(key, count).is_none(), "{case}: a group twice");
                }
                let want = match agg {
                    Aggregate::Count => want.clone(),
                    _ => want.keys().map(|k| (k.clone(), 1)).collect(),
                };
                assert_eq!(got, want, "{case}");
                assert!(pool.peak() <= pool_bytes, "{case}");
                let sm = storage.borrow();
                assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0), "{case}");
                let spilled = sm.buffer_stats().peak_bytes > 0;
                assert_eq!(spilled, pool_bytes < POOLS[0], "{case}");
            }
        }
    }
}

#[test]
fn the_small_pool_re_partitions_and_the_larger_one_does_not() {
    // The engine itself, fed the group count's rows: what it reports.
    let rel = rows("pair");
    let batch = {
        let mut batch = Batch::with_capacity(rel.schema().clone(), rel.cardinality());
        rel.tuples().iter().for_each(|t| batch.push_tuple(t));
        batch
    };
    let keys = [0, 1];
    let key_schema = rel.schema().project(&keys).unwrap();
    for (pool_bytes, depth) in [(48 * 1024, 0), (6 * 1024, 1)] {
        let (storage, pool) = (storage(), MemoryPool::new(pool_bytes));
        let mut report = DegradationReport::new();
        let (agg, cancel) = (Aggregate::Count, CancelToken::none());
        let fanout = DEFAULT_FANOUT;
        let mut engine = Hybrid::new(
            &storage,
            &pool,
            key_schema.clone(),
            agg,
            fanout,
            cancel,
            None,
        );
        let (rows, hashes) = ((0..batch.len()).collect::<Vec<_>>(), batch.hash_rows(&keys));
        let matched = (&rows[..], &hashes[..], &vec![Some(0); rows.len()][..]);
        engine
            .absorb_rows((&batch, &keys), matched, &mut report)
            .unwrap();
        let mut total = 0;
        engine
            .finish(true, &mut report, |groups| {
                total += (0..groups.len()).map(|g| groups.count(g)).sum::<u64>();
                Ok(())
            })
            .unwrap();
        assert_eq!(total, (GROUPS * PER_GROUP) as u64);
        assert!(report.partitions_spilled > 0, "{pool_bytes}");
        assert_eq!(report.recursion_depth, depth, "{pool_bytes}");
        assert_eq!(storage.borrow().file_count(), 0);
    }
}

/// A scan that sets `ABORT` once it has handed out `after` batches.
struct AbortAfter {
    scan: BatchMemScan,
    after: usize,
}

static ABORT: AtomicBool = AtomicBool::new(false);

impl BatchOperator for AbortAfter {
    fn schema(&self) -> &Schema {
        self.scan.schema()
    }

    fn open(&mut self) -> reldiv_exec::Result<()> {
        self.scan.open()
    }

    fn next_batch(&mut self) -> reldiv_exec::Result<Option<Batch>> {
        if self.after == 0 {
            ABORT.store(true, Ordering::Relaxed);
        }
        self.after = self.after.saturating_sub(1);
        self.scan.next_batch()
    }

    fn close(&mut self) -> reldiv_exec::Result<()> {
        self.scan.close()
    }
}

#[test]
fn a_cancel_in_the_middle_of_a_spill_leaves_no_file_and_no_pin() {
    // In 6 KB the first batch already spills; the cancel comes with the
    // fourth, while partitions sit in files.
    let rel = rows("str8");
    let (storage, pool) = (storage(), MemoryPool::new(6 * 1024));
    let scan = BatchMemScan::new(rel).with_batch_size(1024);
    let input = Box::new(AbortAfter { scan, after: 3 });
    let cancel = CancelToken::none().with_abort(&ABORT);
    let op = BatchHashCountAggregate::new(input, vec![0], pool.clone(), storage.clone()).unwrap();
    let err = collect_batches(Box::new(op.with_cancel(cancel)), CancelToken::none()).unwrap_err();
    assert!(err.is_cancelled(), "{err}");
    let sm = storage.borrow();
    assert!(sm.buffer_stats().peak_bytes > 0, "it had spilled");
    assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
    assert_eq!(pool.used(), 0);
}
