//! Property tests for the overflow strategies (Section 3.4) and the
//! shared-nothing adaptation (Section 6): partitioned and parallel
//! executions must equal the plain in-memory division on every input.

use proptest::prelude::*;
use reldiv::core::api::{divide, DivisionConfig, OverflowPolicy, Source};
use reldiv::parallel::{parallel_divide, ClusterConfig, Strategy};
use reldiv::rel::schema::Field;
use reldiv::rel::tuple::ints;
use reldiv::rel::{Relation, Schema};
use reldiv::storage::manager::StorageConfig;
use reldiv::storage::StorageManager;
use reldiv::workload::brute_force_divide;
use reldiv::{Algorithm, DivisionSpec, HashDivisionMode};

fn dividend_rel(rows: &[(i64, i64)]) -> Relation {
    let schema = Schema::new(vec![Field::int("q"), Field::int("d")]);
    Relation::from_tuples(schema, rows.iter().map(|&(q, d)| ints(&[q, d])).collect())
        .expect("rows conform")
}

fn divisor_rel(vals: &[i64]) -> Relation {
    let schema = Schema::new(vec![Field::int("d")]);
    Relation::from_tuples(schema, vals.iter().map(|&d| ints(&[d])).collect()).expect("rows conform")
}

fn oracle(dividend: &Relation, divisor: &Relation) -> Vec<i64> {
    let mut v: Vec<i64> = brute_force_divide(dividend, divisor, &[1], &[0])
        .iter()
        .map(|t| t.value(0).as_int().expect("int"))
        .collect();
    v.sort_unstable();
    v
}

fn sorted_quotient(rel: &Relation) -> Vec<i64> {
    let mut v: Vec<i64> = rel
        .tuples()
        .iter()
        .map(|t| t.value(0).as_int().expect("int"))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both overflow strategies — the adaptive hybrid (quotient
    /// partitioning) and divisor partitioning at any cluster count — equal
    /// the oracle, with room to spare and under a budget of a few KB.
    #[test]
    fn partitioned_divisions_match_the_oracle(
        rows in prop::collection::vec((0i64..8, 0i64..10), 0..150),
        divisor in prop::collection::vec(0i64..10, 0..12),
        partitions in 1usize..9,
        mem_budget in prop::option::of(2usize..8),
    ) {
        let dividend = dividend_rel(&rows);
        let divisor = divisor_rel(&divisor);
        let expected = oracle(&dividend, &divisor);
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema())
            .expect("spec");
        for overflow in [
            OverflowPolicy::Adaptive,
            OverflowPolicy::DivisorPartition { partitions },
        ] {
            let config = DivisionConfig {
                overflow,
                mem_budget: mem_budget.map(|kb| kb * 1024),
                ..Default::default()
            };
            let got = divide(
                &storage,
                &Source::from_relation(&dividend),
                &Source::from_relation(&divisor),
                &spec,
                Algorithm::HashDivision { mode: HashDivisionMode::Standard },
                &config,
            ).expect("partitioned division");
            prop_assert_eq!(sorted_quotient(&got), expected.clone(), "{:?}", config);
            prop_assert_eq!(storage.borrow().file_count(), 0);
        }
    }

    /// The Auto overflow policy produces the right answer under random
    /// (possibly insufficient) memory budgets — failure injection for the
    /// retry loop.
    #[test]
    fn auto_policy_survives_tight_memory(
        rows in prop::collection::vec((0i64..64, 0i64..6), 50..400),
        divisor in prop::collection::vec(0i64..6, 1..6),
        budget_kb in 2usize..64,
    ) {
        let dividend = dividend_rel(&rows);
        let divisor = divisor_rel(&divisor);
        let expected = oracle(&dividend, &divisor);
        let storage = StorageManager::shared(StorageConfig {
            work_memory_bytes: budget_kb * 1024,
            buffer_bytes: 1 << 22,
            ..StorageConfig::paper()
        });
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema())
            .expect("spec");
        let got = divide(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            Algorithm::HashDivision { mode: HashDivisionMode::Standard },
            &DivisionConfig { overflow: OverflowPolicy::Auto, ..Default::default() },
        );
        match got {
            Ok(rel) => prop_assert_eq!(sorted_quotient(&rel), expected),
            Err(e) => {
                // Only legitimate failure: even 256 clusters cannot fit
                // (essentially impossible at these sizes — treat as a bug).
                prop_assert!(false, "Auto policy failed: {}", e);
            }
        }
    }

    /// Parallel execution equals the oracle for both strategies, any node
    /// count, with and without bit-vector filtering.
    #[test]
    fn parallel_division_matches_the_oracle(
        rows in prop::collection::vec((0i64..8, 0i64..10), 0..120),
        divisor in prop::collection::vec(0i64..10, 0..10),
        nodes in 1usize..5,
        filter_bits in prop::option::of(64usize..2048),
    ) {
        let dividend = dividend_rel(&rows);
        let divisor = divisor_rel(&divisor);
        let expected = oracle(&dividend, &divisor);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema())
            .expect("spec");
        for strategy in [Strategy::QuotientPartitioning, Strategy::DivisorPartitioning] {
            let config = ClusterConfig {
                nodes,
                strategy,
                bit_vector_bits: if strategy == Strategy::DivisorPartitioning {
                    filter_bits
                } else {
                    None
                },
                ..Default::default()
            };
            let (rel, report) =
                parallel_divide(&dividend, &divisor, &spec, &config).expect("parallel run");
            prop_assert_eq!(
                sorted_quotient(&rel),
                expected.clone(),
                "{:?} nodes={} filter={:?}",
                strategy, nodes, filter_bits
            );
            prop_assert!(report.participating_nodes <= nodes);
        }
    }
}

/// A deterministic large-scale cross-check: a 60k-tuple workload under
/// the paper's tight memory forces overflow handling; the result must
/// still match the generator's ground truth.
#[test]
fn overflow_handles_a_workload_bigger_than_memory() {
    let w = reldiv::workload::WorkloadSpec {
        divisor_size: 25,
        quotient_size: 2_400,
        incomplete_groups: 600,
        noise_per_group: 0,
        ..Default::default()
    }
    .generate(4242);
    let storage = StorageManager::shared(StorageConfig {
        work_memory_bytes: 48 * 1024, // too small for ~3000 candidates
        buffer_bytes: 1 << 22,
        ..StorageConfig::paper()
    });
    let spec =
        DivisionSpec::trailing_divisor(w.dividend.schema(), w.divisor.schema()).expect("spec");
    let got = divide(
        &storage,
        &Source::from_relation(&w.dividend),
        &Source::from_relation(&w.divisor),
        &spec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &DivisionConfig {
            assume_unique: true,
            overflow: OverflowPolicy::Auto,
            ..Default::default()
        },
    )
    .expect("auto overflow");
    assert_eq!(sorted_quotient(&got), w.expected_quotient);
}
