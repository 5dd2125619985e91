//! Property tests of the execution engine itself: the hash join and the
//! merge semi-join agree with a nested-loop model, external sort matches
//! the standard library's sort under every mode and memory budget (and
//! counts what the tuple-at-a-time sort counted), and the generic
//! in-memory API matches the engine.

use proptest::prelude::*;
use reldiv::exec::batch::join::BatchMergeSemiJoin;
use reldiv::exec::batch::scan::BatchMemScan;
use reldiv::exec::batch::sort::BatchSort;
use reldiv::exec::batch::{collect_batches, BatchToTuple, BoxedBatchOp};
use reldiv::exec::cancel::CancelToken;
use reldiv::exec::hash_join::BatchHashJoin;
use reldiv::exec::merge_join::JoinMode;
use reldiv::exec::op::{collect, BoxedOp, Operator};
use reldiv::exec::sort::{Sort, SortConfig, SortMode};
use reldiv::mem::hash_divide;
use reldiv::rel::counters::OpScope;
use reldiv::rel::schema::Field;
use reldiv::rel::tuple::ints;
use reldiv::rel::{Relation, Schema, Tuple};
use reldiv::storage::manager::StorageConfig;
use reldiv::storage::{IoStats, MemoryPool, StorageManager, StorageRef};
use reldiv::{divide_relations, Algorithm, HashDivisionMode};

fn rel2(name_a: &str, name_b: &str, rows: &[(i64, i64)]) -> Relation {
    let schema = Schema::new(vec![Field::int(name_a), Field::int(name_b)]);
    Relation::from_tuples(schema, rows.iter().map(|&(a, b)| ints(&[a, b])).collect())
        .expect("rows conform")
}

/// A tuple scan of `rel`.
fn scan_tuples(rel: Relation) -> BoxedOp {
    Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The hash join equals a nested-loop model on arbitrary inputs (both
    /// Inner and LeftSemi), and so does the merge semi-join where it
    /// applies.
    #[test]
    fn joins_agree_with_a_nested_loop_model(
        outer in prop::collection::vec((0i64..12, 0i64..100), 0..60),
        inner in prop::collection::vec((0i64..12, 0i64..100), 0..60),
    ) {
        let outer_rel = rel2("k", "x", &outer);
        let inner_rel = rel2("k", "y", &inner);
        let scan = |rel: &Relation| -> BoxedBatchOp { Box::new(BatchMemScan::new(rel.clone())) };
        for mode in [JoinMode::Inner, JoinMode::LeftSemi] {
            let hj = collect_batches(
                Box::new(
                    BatchHashJoin::new(
                        scan(&outer_rel),
                        scan(&inner_rel),
                        vec![0],
                        vec![0],
                        mode,
                        MemoryPool::unbounded(),
                    )
                    .expect("hash join plan"),
                ),
                CancelToken::none(),
            )
            .expect("hash join run");

            let mut model = Vec::new();
            for &(k, x) in &outer {
                let matches = inner.iter().filter(|&&(ik, _)| ik == k);
                match mode {
                    JoinMode::Inner => model.extend(matches.map(|&(_, y)| ints(&[k, x, k, y]))),
                    JoinMode::LeftSemi if matches.count() > 0 => model.push(ints(&[k, x])),
                    JoinMode::LeftSemi => {}
                }
            }
            let model = Relation::from_tuples(hj.schema().clone(), model).expect("model rows");
            prop_assert_eq!(hj.bag_counts(), model.bag_counts(), "hash vs model, {:?}", mode);
            if mode == JoinMode::LeftSemi {
                // The merge semi-join needs sorted inputs.
                let (mut sorted_outer, mut sorted_inner) = (outer_rel.clone(), inner_rel.clone());
                sorted_outer.sort_by_keys(&[0, 1]);
                sorted_inner.sort_by_keys(&[0, 1]);
                let mj = BatchMergeSemiJoin::new(
                    scan(&sorted_outer),
                    scan(&sorted_inner),
                    vec![0],
                    vec![0],
                )
                .expect("merge join plan");
                let mj = collect_batches(Box::new(mj), CancelToken::none()).expect("merge join run");
                prop_assert_eq!(mj.bag_counts(), hj.bag_counts(), "merge vs hash");
            }
        }
    }

    /// External sort equals std's stable sort, for any memory budget and
    /// fan-in (spilling included).
    #[test]
    fn external_sort_matches_std_sort(
        rows in prop::collection::vec((0i64..30, 0i64..30), 0..300),
        memory in prop::sample::select(vec![640usize, 2048, 1 << 20]),
        fan_in in 2usize..9,
    ) {
        let rel = rel2("a", "b", &rows);
        let storage = StorageManager::shared(StorageConfig::paper());
        let sorted = collect(Box::new(
            Sort::new(
                storage,
                scan_tuples(rel),
                vec![0, 1],
                SortMode::Plain,
                SortConfig { memory_bytes: memory, fan_in },
            )
            .expect("sort plan"),
        ))
        .expect("sort run");
        let mut expected = rows.clone();
        expected.sort();
        let expected: Vec<Tuple> = expected.iter().map(|&(a, b)| ints(&[a, b])).collect();
        prop_assert_eq!(sorted.tuples(), expected.as_slice());
    }

    /// Distinct sort equals a BTreeSet of the rows, under spilling.
    #[test]
    fn distinct_sort_matches_a_set_model(
        rows in prop::collection::vec((0i64..10, 0i64..10), 0..300),
        memory in prop::sample::select(vec![640usize, 1 << 20]),
    ) {
        let rel = rel2("a", "b", &rows);
        let storage = StorageManager::shared(StorageConfig::paper());
        let sorted = collect(Box::new(
            Sort::new(
                storage,
                scan_tuples(rel),
                vec![0, 1],
                SortMode::Distinct,
                SortConfig { memory_bytes: memory, fan_in: 4 },
            )
            .expect("sort plan"),
        ))
        .expect("sort run");
        let expected: Vec<Tuple> = rows
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|&(a, b)| ints(&[a, b]))
            .collect();
        prop_assert_eq!(sorted.tuples(), expected.as_slice());
    }

    /// The generic in-memory API equals the engine's hash-division on the
    /// same data.
    #[test]
    fn generic_api_matches_engine(
        rows in prop::collection::vec((0i64..8, 0i64..10), 0..100),
        divisor in prop::collection::vec(0i64..10, 0..10),
    ) {
        let mut mem_result =
            hash_divide(rows.iter().copied(), divisor.iter().copied());
        mem_result.sort_unstable();
        let dividend = rel2("q", "d", &rows);
        let divisor_rel = Relation::from_tuples(
            Schema::new(vec![Field::int("d")]),
            divisor.iter().map(|&d| ints(&[d])).collect(),
        )
        .expect("divisor conforms");
        let engine = divide_relations(
            &dividend,
            &divisor_rel,
            Algorithm::HashDivision { mode: HashDivisionMode::Standard },
        )
        .expect("engine divide");
        let mut engine_result: Vec<i64> = engine
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().expect("int"))
            .collect();
        engine_result.sort_unstable();
        prop_assert_eq!(mem_result, engine_result);
    }
}

/// The sort operator honors the open-next-close protocol when reopened.
#[test]
fn sort_can_be_reopened_after_close() {
    let rel = rel2("a", "b", &[(3, 0), (1, 0), (2, 0)]);
    let storage = StorageManager::shared(StorageConfig::paper());
    let mut s = Sort::new(
        storage,
        scan_tuples(rel),
        vec![0],
        SortMode::Plain,
        SortConfig::default(),
    )
    .expect("plan");
    s.open().expect("open");
    assert_eq!(s.next().expect("next").expect("tuple"), ints(&[1, 0]));
    s.close().expect("close");
    s.open().expect("reopen");
    assert_eq!(s.next().expect("next").expect("tuple"), ints(&[1, 0]));
    s.close().expect("close");
}

/// `n` rows of `(a, b)` over `0..domain`, from a fixed generator.
fn pairs(n: usize, domain: i64) -> Relation {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let rows: Vec<(i64, i64)> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let a = ((x >> 33) % domain as u64) as i64;
            let b = ((x >> 17) % domain as u64) as i64;
            (a, b)
        })
        .collect();
    rel2("a", "b", &rows)
}

/// What a sort of `pairs` did: its rows (FNV-1a digest of their text, one
/// line each, and count), its `[comparisons, hashes, moves, bitops]`, the
/// data and run disks' `[reads, writes, seeks, bytes]`, and the run files
/// it created.
type Recorded = (u64, usize, [u64; 4], [u64; 4], [u64; 4], u64);

fn observe(sort: impl FnOnce(&StorageRef) -> Relation) -> Recorded {
    let storage = StorageManager::shared(StorageConfig::paper());
    let scope = OpScope::begin();
    let out = sort(&storage);
    let ops = scope.finish();
    let mut sm = storage.borrow_mut();
    assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
    let io = |s: IoStats| [s.reads, s.writes, s.seeks, s.bytes];
    let text = out
        .tuples()
        .iter()
        .map(|t| format!("{t}\n"))
        .collect::<String>();
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (
        digest,
        out.cardinality(),
        [ops.comparisons, ops.hashes, ops.moves, ops.bitops],
        io(sm.disk_stats(StorageManager::DATA_DISK)),
        io(sm.disk_stats(StorageManager::RUN_DISK)),
        // Files are numbered from 0 in creation order.
        sm.create_file(StorageManager::DATA_DISK).0,
    )
}

/// The tuple-at-a-time sort on the property tests' shapes — 300 rows of
/// [`pairs`] over `0..30` sorted plainly with 640 B, 2 KB and 1 MB of sort
/// space at fan-ins 2 to 8, then over `0..10` distinct with 640 B and 1 MB
/// at fan-in 4 — recorded before the batch sort replaced it.
#[rustfmt::skip]
const SORTED_PAIRS: [Recorded; 23] = [
    (0x6ba8e30059fe5c52, 300, [2563, 0, 47, 0], [0, 0, 0, 0], [0, 0, 0, 0], 36),
    (0x6ba8e30059fe5c52, 300, [2928, 0, 31, 0], [0, 0, 0, 0], [0, 0, 0, 0], 27),
    (0x6ba8e30059fe5c52, 300, [3588, 0, 30, 0], [0, 0, 0, 0], [0, 0, 0, 0], 24),
    (0x6ba8e30059fe5c52, 300, [3424, 0, 28, 0], [0, 0, 0, 0], [0, 0, 0, 0], 23),
    (0x6ba8e30059fe5c52, 300, [3397, 0, 25, 0], [0, 0, 0, 0], [0, 0, 0, 0], 22),
    (0x6ba8e30059fe5c52, 300, [3600, 0, 25, 0], [0, 0, 0, 0], [0, 0, 0, 0], 21),
    (0x6ba8e30059fe5c52, 300, [3821, 0, 25, 0], [0, 0, 0, 0], [0, 0, 0, 0], 21),
    (0x6ba8e30059fe5c52, 300, [2559, 0, 24, 0], [0, 0, 0, 0], [0, 0, 0, 0], 10),
    (0x6ba8e30059fe5c52, 300, [2656, 0, 18, 0], [0, 0, 0, 0], [0, 0, 0, 0], 8),
    (0x6ba8e30059fe5c52, 300, [3074, 0, 16, 0], [0, 0, 0, 0], [0, 0, 0, 0], 7),
    (0x6ba8e30059fe5c52, 300, [3081, 0, 17, 0], [0, 0, 0, 0], [0, 0, 0, 0], 7),
    (0x6ba8e30059fe5c52, 300, [2926, 0, 11, 0], [0, 0, 0, 0], [0, 0, 0, 0], 6),
    (0x6ba8e30059fe5c52, 300, [2926, 0, 11, 0], [0, 0, 0, 0], [0, 0, 0, 0], 6),
    (0x6ba8e30059fe5c52, 300, [2926, 0, 11, 0], [0, 0, 0, 0], [0, 0, 0, 0], 6),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x6ba8e30059fe5c52, 300, [2586, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
    (0x7adcdb31baccdb65, 93, [3890, 0, 25, 0], [0, 0, 0, 0], [0, 0, 0, 0], 24),
    (0x7adcdb31baccdb65, 93, [2906, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
];

#[test]
fn external_sort_counts_are_the_recorded_ones() {
    let mut cases = Vec::new();
    for memory_bytes in [640usize, 2048, 1 << 20] {
        for fan_in in 2..9 {
            cases.push((
                30,
                SortMode::Plain,
                SortConfig {
                    memory_bytes,
                    fan_in,
                },
            ));
        }
    }
    for memory_bytes in [640usize, 1 << 20] {
        cases.push((
            10,
            SortMode::Distinct,
            SortConfig {
                memory_bytes,
                fan_in: 4,
            },
        ));
    }
    for ((domain, mode, config), expected) in cases.into_iter().zip(SORTED_PAIRS) {
        let case = format!("{domain} {mode:?} {config:?}");
        let batch = observe(|storage| {
            let scan = Box::new(BatchMemScan::new(pairs(300, domain)));
            let sort = BatchSort::new(storage.clone(), scan, vec![0, 1], mode, config);
            collect_batches(Box::new(sort.expect("sort plan")), CancelToken::none()).expect("sort")
        });
        assert_eq!(batch, expected, "{case}");
        let bridged = observe(|storage| {
            let sort = Sort::new(
                storage.clone(),
                scan_tuples(pairs(300, domain)),
                vec![0, 1],
                mode,
                config,
            );
            collect(Box::new(sort.expect("sort plan"))).expect("sort")
        });
        assert_eq!(bridged, expected, "{case}");
    }
}
