//! Division by hash aggregation, pinned by absolute counts: for every
//! plan shape (with and without the semi-join, with and without the hash
//! distinct) on `Int`, `Str(8)` and two-column keys, from in-memory
//! sources and from record files on the paper's storage — the abstract
//! operations counted, the page transfers and the memory pool's peak. A
//! group count that spills is pinned beside them.
//!
//! The tuple and batch group counts, the semi-join and the distinct all
//! stand on one key table, so "the batch operator does what the tuple one
//! does" cannot catch a change to it: these constants, recorded before
//! the operators moved onto that table, can.

use reldiv_core::api::{divide_with_report, load_source, DivisionConfig, OverflowPolicy, Source};
use reldiv_core::{Algorithm, DivisionSpec};
use reldiv_exec::agg::HashCountAggregate;
use reldiv_exec::batch::agg::BatchHashCountAggregate;
use reldiv_exec::batch::scan::BatchMemScan;
use reldiv_exec::batch::{collect_batches, BatchToTuple};
use reldiv_exec::op::collect;
use reldiv_exec::CancelToken;
use reldiv_rel::counters::OpScope;
use reldiv_rel::schema::Field;
use reldiv_rel::{Relation, Schema, Tuple, Value};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{MemoryPool, StorageManager};

/// A dividend whose divisor columns all come from the divisor, with one
/// duplicate row in eleven, and its divisor: `key` makes a key of each
/// layout from a number.
fn workload(
    students: i64,
    (quotient, divisor): (Vec<Field>, Vec<Field>),
    key: impl Fn(i64, usize) -> Vec<Value>,
) -> (Relation, Relation) {
    let courses = 10;
    let mut rows = Vec::new();
    for s in 0..students {
        // Every third student misses a course.
        let taken = courses - i64::from(s % 3 == 0);
        for c in 0..taken {
            let mut row = key(s, 0);
            row.extend(key(c, 1));
            rows.push(Tuple::new(row.clone()));
            if (s * courses + c) % 11 == 0 {
                rows.push(Tuple::new(row));
            }
        }
    }
    let n = rows.len();
    let rows = (0..n).map(|i| rows[i * 7919 % n].clone()).collect();
    let offered = (0..courses).map(|c| Tuple::new(key(c, 1))).collect();
    let dividend = Schema::new(quotient.into_iter().chain(divisor.clone()).collect());
    (
        Relation::from_tuples(dividend, rows).unwrap(),
        Relation::from_tuples(Schema::new(divisor), offered).unwrap(),
    )
}

/// Each key layout's workload of `students` quotient candidates.
fn workloads(students: i64) -> Vec<(&'static str, (Relation, Relation))> {
    let int = workload(
        students,
        (vec![Field::int("sid")], vec![Field::int("cno")]),
        |n, _| vec![Value::Int(n * 37 + 5)],
    );
    let text = workload(
        students,
        (vec![Field::str("sid", 8)], vec![Field::str("course", 8)]),
        |n, side| vec![Value::Str(format!("{}{n:04}", ["s", "c"][side]))],
    );
    let fields = |a: &str, b: &str| vec![Field::int(a), Field::int(b)];
    let pair = workload(
        students,
        (fields("q1", "q2"), fields("d1", "d2")),
        |n, _| vec![Value::Int(n / 4), Value::Int(n % 4)],
    );
    vec![("int", int), ("str8", text), ("pair", pair)]
}

/// One division on fresh paper storage, inputs in memory or in record
/// files (cold): its quotient's cardinality (or `exhausted`), then
/// `(hashes, comparisons)`, `IoStats` and the pool's peak.
fn run(
    files: bool,
    (dividend, divisor): &(Relation, Relation),
    join: bool,
    unique: bool,
) -> String {
    let storage = StorageManager::shared(StorageConfig::paper());
    let source = |rel: &Relation| match files {
        true => load_source(&storage, rel).unwrap(),
        false => Source::from_relation(rel),
    };
    let (r, s) = (source(dividend), source(divisor));
    storage.borrow_mut().evict_all().unwrap();
    storage.borrow_mut().reset_stats();
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
    let config = DivisionConfig {
        assume_unique: unique,
        overflow: OverflowPolicy::Fail,
        ..DivisionConfig::default()
    };
    let algorithm = Algorithm::HashAggregation { join };
    let scope = OpScope::begin();
    let outcome = divide_with_report(&storage, &r, &s, &spec, algorithm, &config);
    let ops = scope.finish();
    let quotient = match outcome {
        Ok((q, _)) => q.cardinality().to_string(),
        Err(e) if e.is_memory_exhausted() => "exhausted".into(),
        Err(e) => panic!("{e}"),
    };
    let sm = storage.borrow();
    let io = sm.io_stats();
    format!(
        "{quotient} ops {} {} io {} {} {} {} peak {}",
        ops.hashes,
        ops.comparisons,
        io.reads,
        io.writes,
        io.seeks,
        io.bytes,
        sm.memory().peak()
    )
}

/// Recorded before the hash operators shared a key table, but for the
/// six 1800-candidate lines without `unique`: their distinct, which once
/// exhausted the work memory, spills and answers.
const DIVISIONS: &str = "\
int 150 mem join=false unique=true: 50 ops 1582 1582 io 0 0 0 0 peak 5824
int 150 mem join=false unique=false: 100 ops 3032 1582 io 0 0 0 0 peak 77792
int 150 mem join=true unique=true: 50 ops 3174 3164 io 0 0 0 0 peak 5824
int 150 mem join=true unique=false: 100 ops 4492 3032 io 0 0 0 0 peak 78240
int 150 file join=false unique=true: 50 ops 1582 1582 io 5 0 2 40960 peak 5824
int 150 file join=false unique=false: 100 ops 3032 1582 io 5 0 2 40960 peak 77792
int 150 file join=true unique=true: 50 ops 3174 3164 io 5 0 2 40960 peak 5824
int 150 file join=true unique=false: 100 ops 4492 3032 io 5 0 2 40960 peak 78240
str8 150 mem join=false unique=true: 50 ops 1582 1582 io 0 0 0 0 peak 5824
str8 150 mem join=false unique=false: 100 ops 3032 1582 io 0 0 0 0 peak 77792
str8 150 mem join=true unique=true: 50 ops 3174 3164 io 0 0 0 0 peak 5824
str8 150 mem join=true unique=false: 100 ops 4492 3032 io 0 0 0 0 peak 78240
str8 150 file join=false unique=true: 50 ops 1582 1582 io 5 0 2 40960 peak 5824
str8 150 file join=false unique=false: 100 ops 3032 1582 io 5 0 2 40960 peak 77792
str8 150 file join=true unique=true: 50 ops 3174 3164 io 5 0 2 40960 peak 5824
str8 150 file join=true unique=false: 100 ops 4492 3032 io 5 0 2 40960 peak 78240
pair 150 mem join=false unique=true: 50 ops 1582 1582 io 0 0 0 0 peak 5824
pair 150 mem join=false unique=false: 100 ops 3032 1582 io 0 0 0 0 peak 100992
pair 150 mem join=true unique=true: 50 ops 3174 3164 io 0 0 0 0 peak 5824
pair 150 mem join=true unique=false: 100 ops 4492 3032 io 0 0 0 0 peak 101440
pair 150 file join=false unique=true: 50 ops 1582 1582 io 8 0 2 65536 peak 5824
pair 150 file join=false unique=false: 100 ops 3032 1582 io 8 0 2 65536 peak 100992
pair 150 file join=true unique=true: 50 ops 3174 3164 io 8 0 2 65536 peak 5824
pair 150 file join=true unique=false: 100 ops 4492 3032 io 8 0 2 65536 peak 101440
int 1800 file join=false unique=true: 600 ops 18982 18982 io 48 0 2 393216 peak 65792
int 1800 file join=false unique=false: 1200 ops 55366 66931 io 195 157 306 2883584 peak 102400
int 1800 file join=true unique=true: 600 ops 37974 37964 io 95 47 96 1163264 peak 65792
int 1800 file join=true unique=false: 1200 ops 72779 84526 io 230 194 357 3473408 peak 102400
str8 1800 file join=false unique=true: 600 ops 18982 18982 io 48 0 2 393216 peak 65792
str8 1800 file join=false unique=false: 1200 ops 55368 66365 io 186 159 303 2826240 peak 102400
str8 1800 file join=true unique=true: 600 ops 37974 37964 io 95 47 96 1163264 peak 65792
str8 1800 file join=true unique=false: 1200 ops 72774 83676 io 234 201 369 3563520 peak 102400
pair 1800 file join=false unique=true: 600 ops 18982 18982 io 85 0 2 696320 peak 65792
pair 1800 file join=false unique=false: 1200 ops 55387 66435 io 345 261 485 4964352 peak 102400
pair 1800 file join=true unique=true: 600 ops 37974 37964 io 169 84 170 2072576 peak 65792
pair 1800 file join=true unique=false: 1200 ops 72794 83662 io 402 323 535 5939200 peak 102400
";

#[test]
fn hash_aggregation_counts_are_the_recorded_ones() {
    // 150 candidates from memory and from files in the pool; 1800 from
    // files larger than it, whose distinct spills past the work memory.
    let mut got = String::new();
    for (students, kinds) in [(150, &[false, true][..]), (1800, &[true])] {
        for (name, inputs) in workloads(students) {
            for &files in kinds {
                for join in [false, true] {
                    for unique in [true, false] {
                        let at = ["mem", "file"][usize::from(files)];
                        let line = run(files, &inputs, join, unique);
                        got += &format!(
                            "{name} {students} {at} join={join} unique={unique}: {line}\n"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(got, DIVISIONS, "\n{got}");
}

/// Recorded when the group count came to spill through the partition
/// engine every grouping shares: per pool, the tuple bridge then the
/// batch operator, fed batches of the same rows (a batch's delta records
/// are written when it is done, so page transfers follow the batches).
/// The 6 KB pool re-partitions.
const SPILLS: &str = "\
49152 batch=false: 3000 ops 16072 21462 io 306 306 607 5013504 peak 49152
49152 batch=true: 3000 ops 16072 21462 io 306 306 607 5013504 peak 49152
6144 batch=false: 3000 ops 29870 21957 io 1445 1429 2870 23543808 peak 6144
6144 batch=true: 3000 ops 29870 21957 io 1445 1429 2870 23543808 peak 6144
";

#[test]
fn a_spilling_group_count_counts_what_it_did() {
    // 3000 groups of three rows over a string and an int key.
    let schema = Schema::new(vec![Field::str("g", 8), Field::int("h"), Field::int("x")]);
    let rows = (0..9000).map(|i| {
        let g = i % 3000;
        Tuple::new(vec![
            Value::Str(format!("g{}", g % 97)),
            Value::Int(g),
            Value::Int(i),
        ])
    });
    let rel = Relation::from_tuples(schema, rows.collect()).unwrap();
    let mut got = String::new();
    for pool_bytes in [48 * 1024, 6 * 1024] {
        for batch in [false, true] {
            let storage = StorageManager::shared(StorageConfig {
                buffer_bytes: 16 * 1024,
                ..StorageConfig::paper()
            });
            let pool = MemoryPool::new(pool_bytes);
            let scope = OpScope::begin();
            let outcome = match batch {
                false => collect(Box::new(
                    HashCountAggregate::new(
                        Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel.clone())))),
                        vec![1, 0],
                        pool.clone(),
                    )
                    .unwrap()
                    .with_spill(storage.clone()),
                )),
                true => collect_batches(
                    Box::new(
                        BatchHashCountAggregate::new(
                            Box::new(BatchMemScan::new(rel.clone())),
                            vec![1, 0],
                            pool.clone(),
                            storage.clone(),
                        )
                        .unwrap(),
                    ),
                    CancelToken::none(),
                ),
            };
            let ops = scope.finish();
            let groups = match outcome {
                Ok(rel) => rel.cardinality().to_string(),
                Err(e) if e.is_memory_exhausted() => "exhausted".into(),
                Err(e) => panic!("{e}"),
            };
            let io = storage.borrow().io_stats();
            got += &format!(
                "{pool_bytes} batch={batch}: {groups} ops {} {} io {} {} {} {} peak {}\n",
                ops.hashes,
                ops.comparisons,
                io.reads,
                io.writes,
                io.seeks,
                io.bytes,
                pool.peak()
            );
        }
    }
    assert_eq!(got, SPILLS, "\n{got}");
}

#[test]
fn hash_aggregation_spills_within_a_4k_budget_and_answers() {
    // Duplicates in the dividend, so the distinct runs, and every hash
    // table of the division — the divisor's scalar distinct count, the
    // dividend's distinct, the semi-join's build side and the group
    // count — draws on the one 4 KB child pool, from memory and from
    // files alike.
    for (name, (dividend, divisor)) in workloads(600) {
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let want = reldiv_workload::brute_force_divide(
            &dividend,
            &divisor,
            &spec.divisor_keys,
            &spec.quotient_keys,
        );
        let quotient_schema = spec.quotient_schema(dividend.schema()).unwrap();
        let want = Relation::from_tuples(quotient_schema, want).unwrap();
        assert_eq!(want.cardinality(), 400, "{name}");
        for files in [false, true] {
            for join in [false, true] {
                let case = format!("{name} files={files} join={join}");
                let storage = StorageManager::shared(StorageConfig::paper());
                let source = |rel: &Relation| match files {
                    true => load_source(&storage, rel).unwrap(),
                    false => Source::from_relation(rel),
                };
                let (r, s) = (source(&dividend), source(&divisor));
                let kept = storage.borrow().file_count();
                let config = DivisionConfig {
                    mem_budget: Some(4 * 1024),
                    ..DivisionConfig::default()
                };
                let algorithm = Algorithm::HashAggregation { join };
                let (quotient, _) =
                    divide_with_report(&storage, &r, &s, &spec, algorithm, &config).unwrap();
                assert_eq!(quotient.bag_counts(), want.bag_counts(), "{case}");
                let sm = storage.borrow();
                // The child pool charges the shared one, which nothing
                // else here draws on.
                assert!(
                    sm.memory().peak() <= 4 * 1024,
                    "{case}: {}",
                    sm.memory().peak()
                );
                assert!(sm.buffer_stats().peak_bytes > 0, "{case}: it spilled");
                assert_eq!((sm.file_count(), sm.pinned_frames()), (kept, 0), "{case}");
            }
        }
    }
    // A divisor whose distinct rows outgrow 4 KB on their own: the scalar
    // distinct count spills as well. (The semi-join's build side cannot
    // spill yet, so only the no-join plan runs here.)
    let offered = |c: i64| Tuple::new(vec![Value::Int(c)]);
    let divisor = Relation::from_tuples(
        Schema::new(vec![Field::int("cno")]),
        (0..400).chain(0..400).map(offered).collect(),
    )
    .unwrap();
    let rows =
        (0..20).flat_map(|s| (0..400 - s % 2).map(move |c| vec![Value::Int(s), Value::Int(c)]));
    let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
    let dividend = Relation::from_tuples(schema, rows.map(Tuple::new).collect()).unwrap();
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
    let storage = StorageManager::shared(StorageConfig::paper());
    let config = DivisionConfig {
        mem_budget: Some(4 * 1024),
        ..DivisionConfig::default()
    };
    let (r, s) = (
        Source::from_relation(&dividend),
        Source::from_relation(&divisor),
    );
    let algorithm = Algorithm::HashAggregation { join: false };
    let (quotient, _) = divide_with_report(&storage, &r, &s, &spec, algorithm, &config).unwrap();
    assert_eq!(quotient.cardinality(), 10, "the even students take all 400");
    assert!(storage.borrow().memory().peak() <= 4 * 1024);
}
