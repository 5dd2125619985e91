//! Correctness grid for the memory-adaptive hybrid: every Table 4 cell,
//! budgets from 16 KB to 1 MB, byte-identical quotients against the naive
//! oracle — including quotient-key skew (one hot group holding ~50% of
//! the dividend, and Zipf-distributed group sizes) — for the adaptive
//! path and divisor partitioning. Plus the wrong-size-estimate
//! regressions: an under-estimate must degrade mid-run instead of
//! aborting, an over-estimate must not partition at all.

use reldiv_core::api::{divide_with_report, DivisionConfig, OverflowPolicy, Source};
use reldiv_core::{Algorithm, DivisionSpec, HashDivisionMode};
use reldiv_rel::tuple::ints;
use reldiv_rel::{RecordCodec, Relation};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{StorageManager, StorageRef};
use reldiv_workload::{zipf_workload, WorkloadSpec};

/// The acceptance budgets: 16 KB squeezes every cell, 1 MB fits most.
const BUDGETS: [usize; 4] = [16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// Table 4's nine `(|S|, |Q|)` configurations.
const GRID: [(u64, u64); 9] = [
    (25, 25),
    (25, 100),
    (25, 400),
    (100, 25),
    (100, 100),
    (100, 400),
    (400, 25),
    (400, 100),
    (400, 400),
];

fn storage() -> StorageRef {
    // A generous shared pool: the per-query budget (a child pool) is the
    // only constraint under test.
    StorageManager::shared(StorageConfig::large())
}

/// Canonical bytes of a relation: rows sorted on all columns, then
/// encoded with the record codec. Two relations with these bytes equal
/// are byte-identical quotients.
fn canonical_bytes(rel: &Relation) -> Vec<u8> {
    let mut sorted = rel.clone();
    let all: Vec<usize> = (0..rel.schema().arity()).collect();
    sorted.sort_by_keys(&all);
    let codec = RecordCodec::new(rel.schema().clone());
    let mut bytes = Vec::new();
    for t in sorted.tuples() {
        bytes.extend_from_slice(&codec.encode(t).expect("encodable tuple"));
    }
    bytes
}

/// The naive oracle, unbudgeted.
fn oracle(dividend: &Relation, divisor: &Relation) -> Vec<u8> {
    let st = storage();
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
    let (rel, _) = divide_with_report(
        &st,
        &Source::from_relation(dividend),
        &Source::from_relation(divisor),
        &spec,
        Algorithm::Naive,
        &DivisionConfig::default(),
    )
    .unwrap();
    canonical_bytes(&rel)
}

/// Runs hash-division under `policy` with a per-query `budget`.
fn budgeted_division(
    dividend: &Relation,
    divisor: &Relation,
    policy: OverflowPolicy,
    budget: usize,
) -> reldiv_core::Result<(Relation, reldiv_core::DegradationReport)> {
    let st = storage();
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
    let config = DivisionConfig {
        overflow: policy,
        mem_budget: Some(budget),
        ..DivisionConfig::default()
    };
    divide_with_report(
        &st,
        &Source::from_relation(dividend),
        &Source::from_relation(divisor),
        &spec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &config,
    )
}

/// One workload of the grid sweep: the relations plus a label for
/// assertion messages.
struct Cell {
    label: String,
    dividend: Relation,
    divisor: Relation,
}

/// Uniform Table 4 cell: `R = Q × S`, shuffled.
fn uniform_cell(s: u64, q: u64) -> Cell {
    let w = WorkloadSpec {
        divisor_size: s,
        quotient_size: q,
        ..WorkloadSpec::default()
    }
    .generate(0x9E37 ^ (s << 16) ^ q);
    Cell {
        label: format!("uniform |S|={s} |Q|={q}"),
        dividend: w.dividend,
        divisor: w.divisor,
    }
}

/// Skewed cell: group 0 is duplicated until it holds ~50% of all dividend
/// tuples. Duplicates leave the quotient unchanged (Figure 1's bit maps
/// are duplicate-insensitive) but concentrate half the stream on one
/// quotient key — the case the hot-group accumulator exists for.
fn hot_group_cell(s: u64, q: u64) -> Cell {
    let base = uniform_cell(s, q);
    let mut rows: Vec<reldiv_rel::Tuple> = base.dividend.tuples().to_vec();
    let others = rows.len() as u64 - s; // tuples not in group 0
    let mut need = others.saturating_sub(s); // extra copies for ~50%
    let mut d = 0u64;
    while need > 0 {
        rows.push(ints(&[0, 1_000_000 + (d % s) as i64]));
        d += 1;
        need -= 1;
    }
    let dividend = Relation::from_tuples(base.dividend.schema().clone(), rows).unwrap();
    Cell {
        label: format!("hot-group |S|={s} |Q|={q}"),
        dividend,
        divisor: base.divisor,
    }
}

/// Zipf cell: `q` complete groups plus `q` incomplete groups whose sizes
/// follow a Zipf(1.1) distribution over the divisor — a few near-complete
/// groups, a long tail of tiny ones.
fn zipf_cell(s: u64, q: u64) -> Cell {
    let w = zipf_workload(s, q, q, 1.1, 0xC0FFEE ^ (s << 16) ^ q);
    Cell {
        label: format!("zipf |S|={s} |Q|={q}"),
        dividend: w.dividend,
        divisor: w.divisor,
    }
}

/// Sweeps the grid under `make_cell`: the adaptive path and divisor
/// partitioning must match the oracle byte-for-byte at every budget. Every
/// divisor-partitioned phase, the collection included, runs the hybrid,
/// so no budget here may make it fail.
fn sweep(make_cell: fn(u64, u64) -> Cell) {
    for (s, q) in GRID {
        let cell = make_cell(s, q);
        let expected = oracle(&cell.dividend, &cell.divisor);
        for budget in BUDGETS {
            let (rel, report) =
                budgeted_division(&cell.dividend, &cell.divisor, OverflowPolicy::Auto, budget)
                    .unwrap_or_else(|e| panic!("{} budget={budget}: {e}", cell.label));
            assert_eq!(
                canonical_bytes(&rel),
                expected,
                "{} budget={budget}: adaptive quotient differs from oracle (report {report:?})",
                cell.label
            );

            let policy = OverflowPolicy::DivisorPartition { partitions: 16 };
            let (rel, _) = budgeted_division(&cell.dividend, &cell.divisor, policy, budget)
                .unwrap_or_else(|e| panic!("{} budget={budget} {policy:?}: {e}", cell.label));
            assert_eq!(
                canonical_bytes(&rel),
                expected,
                "{} budget={budget} {policy:?}: divisor partitioning differs from oracle",
                cell.label
            );
        }
    }
}

#[test]
fn adaptive_matches_oracle_on_uniform_grid() {
    sweep(uniform_cell);
}

#[test]
fn adaptive_matches_oracle_under_hot_group_skew() {
    sweep(hot_group_cell);
}

#[test]
fn adaptive_matches_oracle_under_zipf_skew() {
    sweep(zipf_cell);
}

/// Wrong estimate, too low: the optimizer believed the tables would fit
/// (the optimistic in-memory start) but the input is far larger. The
/// division must degrade mid-run — spill, finish, and report it — never
/// surface `MemoryExhausted`.
#[test]
fn under_estimated_memory_degrades_instead_of_aborting() {
    let cell = uniform_cell(25, 400); // ~10k tuples, tables >> 16 KB
    let expected = oracle(&cell.dividend, &cell.divisor);
    for policy in [OverflowPolicy::Auto, OverflowPolicy::Adaptive] {
        let (rel, report) = budgeted_division(&cell.dividend, &cell.divisor, policy, 16 << 10)
            .expect("an under-estimate must degrade, not abort");
        assert_eq!(canonical_bytes(&rel), expected, "{policy:?}");
        assert!(report.degraded, "{policy:?}: {report:?}");
        assert!(report.partitions_spilled > 0, "{policy:?}: {report:?}");
        assert!(report.retries >= 1, "{policy:?}: {report:?}");
        assert_eq!(
            report.phases[0], "in-memory: memory exhausted",
            "{policy:?}: the optimistic start must be on record"
        );
    }
}

/// Wrong estimate, too high: a generous budget for a small input must not
/// partition, spill, or retry anything — the report stays clean and the
/// only phase is the in-memory one.
#[test]
fn over_estimated_memory_never_partitions() {
    let cell = uniform_cell(25, 25); // 625 tuples, a few KB of tables
    let expected = oracle(&cell.dividend, &cell.divisor);
    for policy in [OverflowPolicy::Auto, OverflowPolicy::Adaptive] {
        let (rel, report) =
            budgeted_division(&cell.dividend, &cell.divisor, policy, 8 << 20).unwrap();
        assert_eq!(canonical_bytes(&rel), expected, "{policy:?}");
        assert!(!report.degraded, "{policy:?}: {report:?}");
        assert_eq!(report.spill_bytes, 0, "{policy:?}");
        assert_eq!(report.partitions_spilled, 0, "{policy:?}");
        assert_eq!(report.retries, 0, "{policy:?}");
        assert_eq!(report.phases, vec!["in-memory".to_string()], "{policy:?}");
    }
}
