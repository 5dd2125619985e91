//! The adaptive hybrid's decisions are pinned: what it spills, revives
//! and re-partitions depends on the input and the budget alone — not on
//! the kind of source the dividend comes from, nor on how the operator
//! reads it. The reports and operation counts below were recorded on the
//! tuple-at-a-time hybrid (the parent of the batch ingest) and must not
//! move. Every division here runs the hybrid itself
//! (`OverflowPolicy::Adaptive`): under `Auto` an unbudgeted query tries
//! the in-memory operator first, whose counts are pinned beside them.

use reldiv_core::api::{divide_with_report, load_source, DivisionConfig, OverflowPolicy, Source};
use reldiv_core::hash_division::HashDivisionStats;
use reldiv_core::{
    Algorithm, BatchHashDivision, DegradationReport, DivisionSpec, HashDivisionMode,
};
use reldiv_exec::batch::scan::BatchColumnsScan;
use reldiv_exec::batch::{BatchOperator, BoxedBatchOp};
use reldiv_rel::counters::OpScope;
use reldiv_rel::schema::Field;
use reldiv_rel::{Columns, Relation, Schema, Tuple, Value};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{MemoryPool, StorageManager, StorageRef};
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
const HYBRID: OverflowPolicy = OverflowPolicy::Adaptive;

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
    // in-memory operator, whose tables compare only hash-equal entries; it
    // hashes a matched row's quotient key only, as the hybrid does.
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
            (183_075, 172_050, 91_000),
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

/// A report of the hybrid that spilled `spilled` partitions and recursed
/// to `depth`, with `(spill_bytes, respool_bytes)`.
fn spilled_report((spill, respool): (u64, u64), spilled: u32, depth: u32) -> DegradationReport {
    DegradationReport {
        degraded: true,
        phases: vec![
            "in-memory: memory exhausted".into(),
            "adaptive-hybrid f=16".into(),
        ],
        spill_bytes: spill,
        respool_bytes: respool,
        retries: 1,
        partitions_spilled: spilled,
        partitions_revived: 0,
        recursion_depth: depth,
    }
}

#[test]
fn operation_counts_of_wide_keys_and_counters_are_the_recorded_ones() {
    // The noisy input re-keyed by an 8-byte string and by two columns, at
    // the 64 KB and 6 KB rows above; and counters on the same input
    // without duplicates, where 16 KB re-partitions. Recorded on the
    // hybrid whose groups were a tuple and a bit map each.
    let w = noisy();
    let unique = WorkloadSpec {
        divisor_size: 25,
        quotient_size: 1500,
        incomplete_groups: 500,
        noise_per_group: 3,
        ..WorkloadSpec::default()
    }
    .generate(72);
    let str_key = rekey(&w.dividend, Key::Str);
    let two_columns = rekey(&w.dividend, Key::TwoColumns);
    let standard = HashDivisionMode::Standard;
    for (dividend, divisor, mode, budget, ops, report) in [
        (
            &str_key,
            &w.divisor,
            standard,
            64 << 10,
            (222_395, 318_261, 96_148),
            spilled_report((541_968, 86_864), 6, 1),
        ),
        (
            &str_key,
            &w.divisor,
            standard,
            6 << 10,
            (358_016, 327_909, 105_805),
            spilled_report((1_378_832, 1_378_832), 16, 1),
        ),
        (
            &two_columns,
            &w.divisor,
            standard,
            64 << 10,
            (230_348, 319_013, 97_620),
            spilled_report((985_992, 139_752), 7, 1),
        ),
        (
            &two_columns,
            &w.divisor,
            standard,
            6 << 10,
            (357_417, 327_732, 104_841),
            spilled_report((2_068_464, 2_068_464), 16, 1),
        ),
        (
            &unique.dividend,
            &unique.divisor,
            HashDivisionMode::CounterOnly,
            64 << 10,
            (103_276, 154_037, 3_152),
            spilled_report((188_016, 0), 4, 0),
        ),
        (
            &unique.dividend,
            &unique.divisor,
            HashDivisionMode::CounterOnly,
            16 << 10,
            (133_956, 176_274, 4_936),
            spilled_report((575_632, 93_248), 13, 1),
        ),
    ] {
        let scope = OpScope::begin();
        let (rel, got) = hash_divide(
            &spill_geometry(),
            Kind::Mem,
            (dividend, divisor),
            mode,
            (HYBRID, Some(budget)),
        );
        let counted = scope.finish();
        let case = format!("{:?} {mode:?} {budget}", dividend.schema());
        assert_eq!(rel.cardinality(), 1500, "{case}");
        assert_eq!(got, report, "{case}");
        let counted = (counted.hashes, counted.comparisons, counted.bitops);
        assert_eq!(counted, ops, "{case}");
    }
}

#[test]
fn rung_zero_counts_of_every_key_layout_are_the_recorded_ones() {
    // `Auto`'s first rung for an unbudgeted query, the in-memory operator,
    // on the noisy input re-keyed, and counters on it without duplicates:
    // its counts through `divide`, and its statistics off the operator.
    let w = noisy();
    let unique = WorkloadSpec {
        divisor_size: 25,
        quotient_size: 1500,
        incomplete_groups: 500,
        noise_per_group: 3,
        ..WorkloadSpec::default()
    }
    .generate(72);
    let (standard, early) = (HashDivisionMode::Standard, HashDivisionMode::EarlyOut);
    let stats = |divisor_duplicates: u64, dividend_discarded: u64| HashDivisionStats {
        divisor_count: 25,
        divisor_duplicates,
        dividend_discarded,
        candidates: 2000,
        emitted: 1500,
    };
    // Recorded on the operator that hashed every row's quotient key, a
    // discarded noise row's too: each count here is that one less a `Hash`
    // per discarded row.
    let (noisy_ops, noisy_stats) = ((192_075 - 9000, 172_050, 91_000), stats(50, 9000));
    let early_ops = (192_075 - 9000, 172_050, 89_000);
    for (w, key, mode, ops, want) in [
        (&w, Key::Int, standard, noisy_ops, noisy_stats),
        (&w, Key::Int, early, early_ops, noisy_stats),
        (&w, Key::Str, standard, noisy_ops, noisy_stats),
        (&w, Key::Str, early, early_ops, noisy_stats),
        (&w, Key::TwoColumns, standard, noisy_ops, noisy_stats),
        (&w, Key::TwoColumns, early, early_ops, noisy_stats),
        (
            &unique,
            Key::Int,
            HashDivisionMode::CounterOnly,
            (96_025 - 4500, 85_000, 2000),
            stats(0, 4500),
        ),
    ] {
        let dividend = rekey(&w.dividend, key);
        let case = format!("{key:?} {mode:?}");
        let scope = OpScope::begin();
        let inputs = (&dividend, &w.divisor);
        let run = (OverflowPolicy::Auto, None);
        let (rel, report) = hash_divide(&spill_geometry(), Kind::Mem, inputs, mode, run);
        let counted = scope.finish();
        assert_eq!(rel.cardinality(), 1500, "{case}");
        assert!(!report.degraded, "{case}: {report:?}");
        let counted = (counted.hashes, counted.comparisons, counted.bitops);
        assert_eq!(counted, ops, "{case}");

        let scan = |rel: &Relation| -> BoxedBatchOp {
            let columns = Columns::from_tuples(rel.schema().clone(), rel.tuples()).unwrap();
            Box::new(BatchColumnsScan::new(columns))
        };
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), w.divisor.schema()).unwrap();
        let (r, s) = (scan(&dividend), scan(&w.divisor));
        let mut op = BatchHashDivision::new(r, s, spec, mode, MemoryPool::unbounded()).unwrap();
        op.open().unwrap();
        while op.next_batch().unwrap().is_some() {}
        assert_eq!(op.stats(), want, "{case}");
        op.close().unwrap();
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
