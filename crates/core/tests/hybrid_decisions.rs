//! The adaptive hybrid's decisions are pinned: what it spills, revives
//! and re-partitions depends on the input and the budget alone — not on
//! the kind of source the dividend comes from, nor on how the operator
//! reads it. The reports and operation counts below were recorded on the
//! tuple-at-a-time hybrid (the parent of the batch ingest) and must not
//! move. Every division here runs the hybrid itself
//! (`OverflowPolicy::Adaptive`): under `Auto` an unbudgeted query tries
//! the in-memory operator first, whose counts are pinned beside them.

use reldiv_core::api::{divide_with_report, load_source, DivisionConfig, OverflowPolicy, Source};
use reldiv_core::hybrid::DEFAULT_FANOUT;
use reldiv_core::{Algorithm, DegradationReport, DivisionSpec, HashDivisionMode};
use reldiv_rel::counters::OpScope;
use reldiv_rel::schema::Field;
use reldiv_rel::{Columns, Relation, Schema, Tuple, Value};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{StorageManager, StorageRef};
use reldiv_workload::{zipf_workload, Workload, WorkloadSpec};

/// `perf_report --workload spill`'s storage: the paper's pages and 256 KB
/// pool with ample work memory, so the per-query budget is what binds.
fn spill_geometry() -> StorageRef {
    StorageManager::shared(StorageConfig {
        work_memory_bytes: StorageConfig::large().work_memory_bytes,
        ..StorageConfig::paper()
    })
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Mem,
    File,
    Columns,
}

fn source(storage: &StorageRef, kind: Kind, rel: &Relation) -> Source {
    match kind {
        Kind::Mem => Source::from_relation(rel),
        Kind::File => load_source(storage, rel).unwrap(),
        Kind::Columns => {
            Source::Columns(Columns::from_tuples(rel.schema().clone(), rel.tuples()).unwrap())
        }
    }
}

/// The adaptive hybrid as `Auto` runs it.
const HYBRID: OverflowPolicy = OverflowPolicy::Adaptive {
    fanout: DEFAULT_FANOUT,
};

/// Hash-division under `overflow`.
fn hash_divide(
    storage: &StorageRef,
    kind: Kind,
    inputs: (&Relation, &Relation),
    mode: HashDivisionMode,
    (overflow, mem_budget): (OverflowPolicy, Option<usize>),
) -> (Relation, DegradationReport) {
    let config = DivisionConfig {
        mem_budget,
        overflow,
        assume_unique: mode == HashDivisionMode::CounterOnly,
        ..DivisionConfig::default()
    };
    let algorithm = Algorithm::HashDivision { mode };
    divide_leaving_nothing(storage, kind, inputs, algorithm, &config)
}

/// One division; it must leave no temporary file and no pinned frame.
fn divide_leaving_nothing(
    storage: &StorageRef,
    kind: Kind,
    (dividend, divisor): (&Relation, &Relation),
    algorithm: Algorithm,
    config: &DivisionConfig,
) -> (Relation, DegradationReport) {
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
    let (r, s) = (
        source(storage, kind, dividend),
        source(storage, kind, divisor),
    );
    let files = storage.borrow().file_count();
    let out = divide_with_report(storage, &r, &s, &spec, algorithm, config).unwrap();
    let sm = storage.borrow();
    assert_eq!((sm.file_count(), sm.pinned_frames()), (files, 0));
    out
}

/// `(spill_bytes, respool_bytes, partitions_spilled, recursion_depth)`.
fn decisions(report: &DegradationReport) -> (u64, u64, u32, u32) {
    (
        report.spill_bytes,
        report.respool_bytes,
        report.partitions_spilled,
        report.recursion_depth,
    )
}

#[test]
fn reports_on_the_spill_geometry_are_the_recorded_ones() {
    let uniform = WorkloadSpec {
        divisor_size: 25,
        quotient_size: 20_000,
        ..WorkloadSpec::default()
    }
    .generate(72);
    let zipf = zipf_workload(25, 5000, 15_000, 1.1, 72);
    let recorded = [
        (&uniform, 1 << 20, (476_768, 0, 1, 0)),
        (&uniform, 256 << 10, (6_262_816, 0, 308, 0)),
        (&uniform, 64 << 10, (7_583_136, 7_583_136, 842, 1)),
        (&zipf, 1 << 20, (60_192, 0, 1, 0)),
        (&zipf, 256 << 10, (2_196_688, 74_432, 87, 1)),
        (&zipf, 64 << 10, (3_092_016, 3_092_016, 360, 1)),
    ];
    for (w, budget, want) in recorded {
        let (rel, report) = hash_divide(
            &spill_geometry(),
            Kind::Mem,
            (&w.dividend, &w.divisor),
            HashDivisionMode::Standard,
            (HYBRID, Some(budget)),
        );
        assert_eq!(decisions(&report), want, "budget {budget}: {report:?}");
        assert_eq!(rel.cardinality(), w.expected_quotient.len());
    }
}

/// A dividend with noise rows (no divisor match), duplicated rows and a
/// divisor with duplicate tuples.
fn noisy() -> Workload {
    WorkloadSpec {
        divisor_size: 25,
        quotient_size: 1500,
        incomplete_groups: 500,
        noise_per_group: 3,
        dividend_copies: 2,
        divisor_copies: 3,
        ..WorkloadSpec::default()
    }
    .generate(72)
}

#[test]
fn operation_counts_on_a_noisy_input_are_the_recorded_ones() {
    let w = noisy();
    // The 6 KB budget re-partitions: merges that run out of memory midway.
    // The last row is `Auto`'s first rung for an unbudgeted query, the
    // in-memory operator, whose tables compare only hash-equal entries.
    for (run, want, depth) in [
        ((HYBRID, None), (183_075, 285_865, 91_000), None),
        (
            (HYBRID, Some(64 << 10)),
            (218_139, 320_863, 96_338),
            Some(0),
        ),
        (
            (HYBRID, Some(6 << 10)),
            (357_900, 328_362, 105_868),
            Some(1),
        ),
        (
            (OverflowPolicy::Auto, None),
            (192_075, 172_050, 91_000),
            None,
        ),
    ] {
        let storage = spill_geometry();
        let scope = OpScope::begin();
        let (rel, report) = hash_divide(
            &storage,
            Kind::Mem,
            (&w.dividend, &w.divisor),
            HashDivisionMode::Standard,
            run,
        );
        let ops = scope.finish();
        assert_eq!(rel.cardinality(), 1500);
        let got = report.degraded.then_some(report.recursion_depth);
        assert_eq!(got, depth, "{report:?}");
        assert_eq!((ops.hashes, ops.comparisons, ops.bitops), want, "{run:?}");
    }
}

/// The quotient-key layouts of the grid.
#[derive(Debug, Clone, Copy)]
enum Key {
    Int,
    Str,
    TwoColumns,
}

/// Re-keys an `(Int quotient id, Int divisor id)` relation's first column.
fn rekey(rel: &Relation, key: Key) -> Relation {
    let head = |q: i64| match key {
        Key::Int => vec![Value::Int(q)],
        Key::Str => vec![Value::Str(format!("s{q:06}"))],
        Key::TwoColumns => vec![Value::Int(q / 7), Value::Int(q % 7)],
    };
    let fields = match key {
        Key::Int => return rel.clone(),
        Key::Str => vec![Field::str("q", 8)],
        Key::TwoColumns => vec![Field::int("q1"), Field::int("q2")],
    };
    let divisor_id = rel.schema().fields()[1].clone();
    let schema = Schema::new(fields.into_iter().chain([divisor_id]).collect());
    let rows = rel.tuples().iter().map(|t| {
        let mut values = head(t.value(0).as_int().unwrap());
        values.push(t.value(1).clone());
        Tuple::new(values)
    });
    Relation::from_tuples(schema, rows.collect()).unwrap()
}

/// Group 0 duplicated until it holds about half the dividend.
fn hot_group(w: &Workload) -> Relation {
    let mut rows = w.dividend.tuples().to_vec();
    let hot: Vec<Tuple> = rows
        .iter()
        .filter(|t| t.value(0).as_int() == Some(0))
        .cloned()
        .collect();
    let copies = rows.len() / hot.len();
    (0..copies).for_each(|_| rows.extend(hot.iter().cloned()));
    // Interleave: the hot rows arrive throughout the stream.
    let n = rows.len();
    let rows = (0..n).map(|i| rows[i * 7919 % n].clone()).collect();
    Relation::from_tuples(w.dividend.schema().clone(), rows).unwrap()
}

#[test]
fn decisions_and_quotient_order_do_not_depend_on_the_source_kind() {
    let clean = WorkloadSpec {
        divisor_size: 10,
        quotient_size: 1600,
        incomplete_groups: 400,
        ..WorkloadSpec::default()
    };
    let dirty = WorkloadSpec {
        noise_per_group: 2,
        dividend_copies: 2,
        divisor_copies: 2,
        ..clean
    };
    let zipf = zipf_workload(10, 500, 1500, 1.1, 72);
    let (mut spilled, mut recursed, mut cases) = (0, 0, 0);
    for (shape, noise) in [
        ("uniform", "clean"),
        ("uniform", "noisy"),
        ("uniform", "empty divisor"),
        ("zipf", "clean"),
        ("hot group", "clean"),
        ("hot group", "noisy"),
    ] {
        let w = match (shape, noise) {
            ("zipf", _) => zipf.clone(),
            (_, "noisy") => dirty.generate(72),
            _ => clean.generate(72),
        };
        let dividend = match shape {
            "hot group" => hot_group(&w),
            _ => w.dividend.clone(),
        };
        let divisor = match noise {
            "empty divisor" => Relation::empty(w.divisor.schema().clone()),
            _ => w.divisor.clone(),
        };
        let modes: &[HashDivisionMode] = match (shape, noise) {
            // Counters need a duplicate-free dividend.
            ("hot group", _) | (_, "noisy") => &[HashDivisionMode::Standard],
            _ => &[HashDivisionMode::Standard, HashDivisionMode::CounterOnly],
        };
        for key in [Key::Int, Key::Str, Key::TwoColumns] {
            let dividend = rekey(&dividend, key);
            // The oracle: naive division, unbudgeted.
            let oracle = divide_leaving_nothing(
                &StorageManager::shared(StorageConfig::large()),
                Kind::Mem,
                (&dividend, &divisor),
                Algorithm::Naive,
                &DivisionConfig::default(),
            )
            .0;
            let expected = match noise {
                "empty divisor" => 2000,
                _ => w.expected_quotient.len(),
            };
            assert_eq!(oracle.cardinality(), expected, "{shape} {noise} {key:?}");
            for &mode in modes {
                for budget in [Some(64 << 10), Some(256 << 10), Some(1 << 20), None] {
                    let case = format!("{shape} {noise} {key:?} {mode:?} {budget:?}");
                    let [mem, file, columns] = [Kind::Mem, Kind::File, Kind::Columns].map(|kind| {
                        let run = (HYBRID, budget);
                        hash_divide(&spill_geometry(), kind, (&dividend, &divisor), mode, run)
                    });
                    assert_eq!(mem.0, file.0, "{case}: quotient, order included");
                    assert_eq!(mem.0, columns.0, "{case}: quotient, order included");
                    assert_eq!(mem.1, file.1, "{case}");
                    assert_eq!(mem.1, columns.1, "{case}");
                    assert_eq!(mem.0.bag_counts(), oracle.bag_counts(), "{case}");
                    spilled += usize::from(mem.1.partitions_spilled > 0);
                    recursed += usize::from(mem.1.recursion_depth > 0);
                    cases += 1;
                }
            }
        }
    }
    assert!(spilled * 4 >= cases, "{spilled} of {cases} cases spilled");
    assert!(recursed > 0, "no case re-partitioned");
}
