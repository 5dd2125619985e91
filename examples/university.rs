//! The paper's two motivating queries over a generated university
//! database, executed through the full storage + execution stack.
//!
//! * **Example 1**: students who have taken *all* courses offered by the
//!   university — `π(sid,cno)(Transcript) ÷ π(cno)(Courses)`.
//! * **Example 2**: students who have taken all *database* courses — the
//!   divisor is restricted by a selection on the title attribute, which
//!   is where the aggregation-based plans start needing their semi-join.
//!
//! The relations are loaded into record files on the simulated disk; the
//! divisor of example 2 is computed with a real selection + projection
//! plan; and a selection on Transcript fetches one student's rows.
//!
//! ```text
//! cargo run --example university
//! ```

use reldiv::core::api::{divide, DivisionConfig, Source};
use reldiv::exec::batch::filter::BatchFilter;
use reldiv::exec::batch::project::BatchProject;
use reldiv::exec::batch::scan::BatchFileScan;
use reldiv::exec::batch::BoxedBatchOp;
use reldiv::exec::filter::BatchPredicate;
use reldiv::exec::scan::load_relation;
use reldiv::exec::{collect_batches, CancelToken};
use reldiv::rel::Relation;
use reldiv::storage::manager::StorageConfig;
use reldiv::storage::StorageManager;
use reldiv::workload::university::{self, UniversitysSpec};
use reldiv::{Algorithm, DivisionSpec, HashDivisionMode};

fn main() {
    let spec = UniversitysSpec {
        courses: 24,
        database_fraction: 0.25,
        students: 200,
        complete_fraction: 0.05,
        partial_fill: 0.7,
    };
    let u = university::generate(&spec, 2024);
    println!(
        "university: {} courses ({} database), {} students, {} transcript rows",
        u.courses.cardinality(),
        u.database_courses.len(),
        200,
        u.transcript.cardinality()
    );

    let storage = StorageManager::shared(StorageConfig::large());
    let courses_file = load_relation(&storage, &u.courses).expect("load courses");
    let transcript_file = load_relation(&storage, &u.transcript).expect("load transcript");
    let scan_courses = || -> BoxedBatchOp {
        let schema = u.courses.schema().clone();
        Box::new(BatchFileScan::new(storage.clone(), courses_file, schema))
    };
    let scan_transcript = || -> BoxedBatchOp {
        let schema = u.transcript.schema().clone();
        Box::new(BatchFileScan::new(storage.clone(), transcript_file, schema))
    };
    let project = |input: BoxedBatchOp, columns: Vec<usize>| -> Relation {
        let plan = BatchProject::new(input, columns).expect("projection plan");
        collect_batches(Box::new(plan), CancelToken::none()).expect("projection")
    };

    // Dividend for both queries: π(student-id, course-no)(Transcript).
    let dividend = project(scan_transcript(), vec![0, 1]);

    // ---- Example 1: all courses ----------------------------------------
    let all_courses = project(scan_courses(), vec![0]);
    let dspec =
        DivisionSpec::trailing_divisor(dividend.schema(), all_courses.schema()).expect("spec");
    let q1 = divide(
        &storage,
        &Source::from_relation(&dividend),
        &Source::from_relation(&all_courses),
        &dspec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &DivisionConfig::default(),
    )
    .expect("example 1");
    let mut sids: Vec<i64> = q1
        .tuples()
        .iter()
        .map(|t| t.value(0).as_int().expect("sid"))
        .collect();
    sids.sort_unstable();
    println!(
        "\nexample 1 — students with ALL {} courses: {sids:?}",
        all_courses.cardinality()
    );
    assert_eq!(
        sids, u.students_with_all_courses,
        "matches generator ground truth"
    );

    // ---- Example 2: all *database* courses ------------------------------
    // σ(title contains "database") then π(course-no) — a real plan.
    let database = BatchPredicate::str_contains(1, "database");
    let db_courses = project(
        Box::new(BatchFilter::new(scan_courses(), database)),
        vec![0],
    );
    println!(
        "\nexample 2 — divisor after selection: {} database courses",
        db_courses.cardinality()
    );
    for algorithm in [
        Algorithm::Naive,
        Algorithm::SortAggregation { join: true },
        Algorithm::HashAggregation { join: true },
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
    ] {
        let q2 = divide(
            &storage,
            &Source::from_relation(&dividend),
            &Source::from_relation(&db_courses),
            &dspec,
            algorithm,
            &DivisionConfig::default(),
        )
        .expect("example 2");
        let mut sids: Vec<i64> = q2
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().expect("sid"))
            .collect();
        sids.sort_unstable();
        println!("  {:<30} -> {} students", algorithm.label(), sids.len());
        assert_eq!(sids, u.students_with_all_database_courses);
    }
    println!(
        "  ground truth: {} students took every database course",
        u.students_with_all_database_courses.len()
    );

    // ---- Bonus: one student's transcript -------------------------------
    // σ(student-id = probe)(Transcript): a selection over the file scan.
    let probe = u
        .students_with_all_database_courses
        .first()
        .copied()
        .unwrap_or(0);
    let student = BatchFilter::new(scan_transcript(), BatchPredicate::int_equals(0, probe));
    let rows = collect_batches(Box::new(student), CancelToken::none()).expect("selection");
    println!(
        "\nselection: student {probe} has {} transcript rows, e.g. {}",
        rows.cardinality(),
        rows.tuples()
            .first()
            .map(|t| t.to_string())
            .unwrap_or_default()
    );
    assert!(!rows.is_empty());
}
