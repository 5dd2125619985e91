//! Integration tests of the storage substrate: B+-trees against a model,
//! buffer-pool pressure during end-to-end divisions, and the experiment
//! harness's cost accounting.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reldiv::core::api::{divide, DivisionConfig};
use reldiv::rel::schema::Field;
use reldiv::rel::tuple::ints;
use reldiv::rel::{Relation, Schema};
use reldiv::storage::btree::BTree;
use reldiv::storage::file::Rid;
use reldiv::storage::manager::StorageConfig;
use reldiv::storage::{DiskId, PageId, StorageManager};
use reldiv::{Algorithm, DivisionSpec, HashDivisionMode};

/// B+-tree vs `BTreeMap` model under random interleaved operations.
#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u8),
    Delete(u16, u8),
    Search(u16),
    Range(u16, u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0u16..200, 0u8..4).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        (0u16..200, 0u8..4).prop_map(|(k, v)| TreeOp::Delete(k, v)),
        (0u16..200).prop_map(TreeOp::Search),
        (0u16..200, 0u16..200).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

fn rid(v: u8) -> Rid {
    Rid {
        page: PageId::new(DiskId(0), v as u64),
        slot: v as u16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn btree_matches_a_model(ops in prop::collection::vec(tree_op(), 1..400)) {
        let mut sm = StorageManager::new(StorageConfig {
            data_page_size: 256,
            run_page_size: 128,
            buffer_bytes: 1 << 20,
            work_memory_bytes: 1 << 20,
        });
        let mut tree = BTree::create(&mut sm, StorageManager::DATA_DISK).expect("create");
        // Model: multiset of (key, rid) pairs.
        let mut model: std::collections::BTreeSet<(u16, u8)> = Default::default();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    // The model is a set; skip duplicate (k, v) pairs so
                    // both sides stay comparable.
                    if model.insert((k, v)) {
                        tree.insert(&mut sm, &k.to_be_bytes(), rid(v)).expect("insert");
                    }
                }
                TreeOp::Delete(k, v) => {
                    let in_model = model.remove(&(k, v));
                    let deleted =
                        tree.delete(&mut sm, &k.to_be_bytes(), rid(v)).expect("delete");
                    prop_assert_eq!(deleted, in_model);
                }
                TreeOp::Search(k) => {
                    let mut got = tree.search(&mut sm, &k.to_be_bytes()).expect("search");
                    got.sort();
                    let mut want: Vec<Rid> = model
                        .iter()
                        .filter(|(mk, _)| *mk == k)
                        .map(|&(_, v)| rid(v))
                        .collect();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                TreeOp::Range(lo, hi) => {
                    let got = tree
                        .range(&mut sm, &lo.to_be_bytes(), &hi.to_be_bytes())
                        .expect("range");
                    let want: Vec<(u16, u8)> = model
                        .iter()
                        .filter(|(k, _)| (lo..hi).contains(k))
                        .copied()
                        .collect();
                    prop_assert_eq!(got.len(), want.len());
                    for ((k_bytes, _), (k, _)) in got.iter().zip(&want) {
                        let expected = k.to_be_bytes();
                        prop_assert_eq!(k_bytes.as_slice(), expected.as_slice());
                    }
                }
            }
            let count = tree.validate(&mut sm).expect("validate");
            prop_assert_eq!(count as usize, model.len());
        }
    }
}

/// End-to-end division from record files under severe buffer pressure:
/// a 16-frame pool forces constant eviction and re-reads, but the answer
/// must not change.
#[test]
fn division_survives_a_tiny_buffer_pool() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut rows = Vec::new();
    for q in 0..300i64 {
        for d in 0..10i64 {
            if q % 3 != 0 || d < 9 {
                rows.push(ints(&[q, d]));
            }
        }
    }
    // Shuffle so file order is arbitrary.
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let dividend = Relation::from_tuples(Schema::new(vec![Field::int("q"), Field::int("d")]), rows)
        .expect("dividend");
    let divisor = Relation::from_tuples(
        Schema::new(vec![Field::int("d")]),
        (0..10).map(|d| ints(&[d])).collect(),
    )
    .expect("divisor");
    // Multiples of 3 are missing course 9 and must not qualify.
    let expected: Vec<i64> = (0..300).filter(|q| q % 3 != 0).collect();

    let storage = StorageManager::shared(StorageConfig {
        data_page_size: 1024,
        run_page_size: 256,
        buffer_bytes: 16 * 1024, // 16 frames of 1 KB
        work_memory_bytes: 1 << 22,
    });
    let d_src = reldiv::core::api::load_source(&storage, &dividend).expect("load");
    let s_src = reldiv::core::api::load_source(&storage, &divisor).expect("load");
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).expect("spec");
    for algorithm in [
        Algorithm::Naive,
        Algorithm::SortAggregation { join: true },
        Algorithm::HashAggregation { join: true },
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
    ] {
        let q = divide(
            &storage,
            &d_src,
            &s_src,
            &spec,
            algorithm,
            &DivisionConfig {
                assume_unique: true,
                mem_budget: Some(8 * 1024),
                ..Default::default()
            },
        )
        .expect("divide");
        let mut got: Vec<i64> = q
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().expect("int"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected, "{algorithm:?}");
    }
    let stats = storage.borrow().buffer_stats();
    assert!(
        stats.evictions > 0,
        "the tiny pool must have evicted: {stats:?}"
    );
}

/// The harness's cost accounting is self-consistent: I/O cost equals the
/// Table 3 pricing of the collected statistics, and modeled CPU equals
/// the Table 1 pricing of the counted operations.
#[test]
fn harness_cost_accounting_is_consistent() {
    let w = reldiv::workload::WorkloadSpec {
        divisor_size: 100,
        quotient_size: 100,
        ..Default::default()
    }
    .generate(3);
    let m = reldiv_bench::run_division_experiment(
        &w.dividend,
        &w.divisor,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &DivisionConfig {
            assume_unique: true,
            ..Default::default()
        },
    );
    let params = reldiv::storage::IoCostParams::paper();
    assert!((m.io_ms - params.cost_ms(&m.io)).abs() < 1e-9);
    let units = reldiv_costmodel::CostUnits::paper();
    let cpu = reldiv_costmodel::units::price_ops(
        &units,
        m.ops.comparisons,
        m.ops.hashes,
        m.ops.moves,
        m.ops.bitops,
    );
    assert!((m.cpu_ms_modeled - cpu).abs() < 1e-9);
    assert_eq!(m.quotient_cardinality, 100);
    // Hash-division on R = Q × S: 2 hashes per dividend tuple plus one
    // per divisor tuple, and at least one bit op per dividend tuple.
    assert!(m.ops.hashes >= 2 * m.dividend_size + m.divisor_size);
    assert!(m.ops.bitops >= m.dividend_size);
}
