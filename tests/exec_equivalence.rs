//! Property tests of the execution engine itself: the three join
//! implementations agree, external sort matches the standard library's
//! sort under every mode and memory budget, and the generic in-memory API
//! matches the engine.

use proptest::prelude::*;
use reldiv::exec::batch::join::BatchMergeSemiJoin;
use reldiv::exec::batch::scan::BatchMemScan;
use reldiv::exec::batch::{collect_batches, BoxedBatchOp};
use reldiv::exec::cancel::CancelToken;
use reldiv::exec::hash_join::BatchHashJoin;
use reldiv::exec::index_join::{build_index, IndexJoin};
use reldiv::exec::merge_join::JoinMode;
use reldiv::exec::op::{collect, Operator};
use reldiv::exec::scan::{load_relation, MemScan};
use reldiv::exec::sort::{Sort, SortConfig, SortMode};
use reldiv::mem::hash_divide;
use reldiv::rel::schema::Field;
use reldiv::rel::tuple::ints;
use reldiv::rel::{Relation, Schema, Tuple};
use reldiv::storage::manager::StorageConfig;
use reldiv::storage::{MemoryPool, StorageManager};
use reldiv::{divide_relations, Algorithm, HashDivisionMode};

fn rel2(name_a: &str, name_b: &str, rows: &[(i64, i64)]) -> Relation {
    let schema = Schema::new(vec![Field::int(name_a), Field::int(name_b)]);
    Relation::from_tuples(schema, rows.iter().map(|&(a, b)| ints(&[a, b])).collect())
        .expect("rows conform")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Hash join and index join produce the same bag of results on
    /// arbitrary inputs (both Inner and LeftSemi), and so does the merge
    /// semi-join where it applies.
    #[test]
    fn three_join_implementations_agree(
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

            let storage = StorageManager::shared(StorageConfig::large());
            let file = load_relation(&storage, &inner_rel).expect("load inner");
            let indexed = build_index(&storage, file, inner_rel.schema().clone(), vec![0])
                .expect("build index");
            let ij = collect(Box::new(
                IndexJoin::new(
                    storage,
                    Box::new(MemScan::new(outer_rel.clone())),
                    indexed,
                    vec![0],
                    mode,
                )
                .expect("index join plan"),
            ))
            .expect("index join run");

            prop_assert_eq!(hj.bag_counts(), ij.bag_counts(), "hash vs index, {:?}", mode);
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
                Box::new(MemScan::new(rel)),
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
                Box::new(MemScan::new(rel)),
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
        Box::new(MemScan::new(rel)),
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
