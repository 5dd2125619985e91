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
//! plan; and a B+-tree index over Transcript demonstrates the storage
//! substrate's index service.
//!
//! ```text
//! cargo run --example university
//! ```

use reldiv::core::api::{divide, DivisionConfig, Source};
use reldiv::exec::filter::{str_contains, Filter};
use reldiv::exec::op::collect;
use reldiv::exec::project::Project;
use reldiv::exec::scan::{load_relation, FileScan};
use reldiv::rel::RecordCodec;
use reldiv::storage::btree::BTree;
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

    // Dividend for both queries: π(student-id, course-no)(Transcript).
    let dividend = collect(Box::new(
        Project::new(
            Box::new(FileScan::new(
                storage.clone(),
                transcript_file,
                u.transcript.schema().clone(),
            )),
            vec![0, 1],
        )
        .expect("projection plan"),
    ))
    .expect("project transcript");

    // ---- Example 1: all courses ----------------------------------------
    let all_courses = collect(Box::new(
        Project::new(
            Box::new(FileScan::new(
                storage.clone(),
                courses_file,
                u.courses.schema().clone(),
            )),
            vec![0],
        )
        .expect("projection plan"),
    ))
    .expect("project courses");
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
    let db_courses = collect(Box::new(
        Project::new(
            Box::new(Filter::new(
                Box::new(FileScan::new(
                    storage.clone(),
                    courses_file,
                    u.courses.schema().clone(),
                )),
                str_contains(1, "database"),
            )),
            vec![0],
        )
        .expect("projection plan"),
    ))
    .expect("select database courses");
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

    // ---- Bonus: a B+-tree index over Transcript ------------------------
    // Index student-id -> RID, then fetch one student's rows by key.
    let mut index = {
        let mut sm = storage.borrow_mut();
        BTree::create(&mut sm, StorageManager::DATA_DISK).expect("create index")
    };
    let codec = RecordCodec::new(u.transcript.schema().clone());
    {
        let mut sm = storage.borrow_mut();
        let mut cursor = reldiv::storage::file::ScanCursor::new(transcript_file);
        while let Some((rid, record)) = cursor.next(&mut sm).expect("scan") {
            let t = codec.decode(record).expect("decode");
            let key = t.value(0).as_int().expect("sid").to_be_bytes();
            index.insert(&mut sm, &key, rid).expect("index insert");
        }
    }
    let probe = u
        .students_with_all_database_courses
        .first()
        .copied()
        .unwrap_or(0);
    let rows = {
        let mut sm = storage.borrow_mut();
        let rids = index
            .search(&mut sm, &probe.to_be_bytes())
            .expect("index lookup");
        rids.into_iter()
            .map(|rid| codec.decode(&sm.get(rid).expect("fetch")).expect("decode"))
            .collect::<Vec<_>>()
    };
    println!(
        "\nB+-tree index probe: student {probe} has {} transcript rows, e.g. {}",
        rows.len(),
        rows.first().map(|t| t.to_string()).unwrap_or_default()
    );
    assert!(!rows.is_empty());
}
