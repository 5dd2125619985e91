//! Hash-division inside a demand-driven dataflow plan (Section 3.3).
//!
//! The paper's first two observations about hash-division:
//!
//! 1. it "does not require a stop-and-go operator on its input ... it can
//!    smoothly receive its inputs from a dataflow query processing
//!    system" — here its dividend arrives through a selection plan, and
//! 2. with the early-output modification "the algorithm can also be used
//!    as a producer in a dataflow query processing system" — here its
//!    quotient streams, a dividend batch at a time, into a consumer that
//!    stops after the first few results, never materializing the rest.
//!
//! ```text
//! cargo run --example dataflow
//! ```

use reldiv::core::BatchHashDivision;
use reldiv::exec::batch::filter::BatchFilter;
use reldiv::exec::batch::scan::{BatchFileScan, BatchMemScan};
use reldiv::exec::batch::BatchOperator;
use reldiv::exec::filter::BatchPredicate;
use reldiv::exec::scan::load_relation;
use reldiv::rel::schema::Field;
use reldiv::rel::tuple::ints;
use reldiv::rel::{Relation, Schema};
use reldiv::storage::manager::StorageConfig;
use reldiv::storage::{MemoryPool, StorageManager};
use reldiv::{DivisionSpec, HashDivisionMode};

fn main() {
    // Transcript (student-id, course-no, grade): students 0..999, each
    // enrolled in all 20 courses; only grade-4 rows should count toward
    // the for-all condition ("took every course with the top grade").
    let schema = Schema::new(vec![
        Field::int("student-id"),
        Field::int("course-no"),
        Field::int("grade"),
    ]);
    let mut rows = Vec::new();
    for s in 0..1000i64 {
        for c in 0..20i64 {
            // Students divisible by 7 get a grade-3 blemish in course 13.
            let grade = if s % 7 == 0 && c == 13 { 3 } else { 4 };
            rows.push(ints(&[s, c, grade]));
        }
    }
    let transcript = Relation::from_tuples(schema, rows).expect("transcript conforms");
    let courses = Relation::from_tuples(
        Schema::new(vec![Field::int("course-no")]),
        (0..20).map(|c| ints(&[c])).collect(),
    )
    .expect("courses conform");

    let storage = StorageManager::shared(StorageConfig::large());
    let transcript_file = load_relation(&storage, &transcript).expect("load");

    // Upstream dataflow: scan -> select grade = 4 -> (sid, cno, grade).
    // Hash-division consumes this stream directly; no sort, no
    // materialization.
    let graded = BatchFilter::new(
        Box::new(BatchFileScan::new(
            storage.clone(),
            transcript_file,
            transcript.schema().clone(),
        )),
        BatchPredicate::int_equals(2, 4),
    );
    let spec = DivisionSpec::new(
        transcript.schema(),
        courses.schema(),
        vec![1],    // course-no is the divisor attribute
        vec![0, 2], // (student-id, grade) form the quotient...
    );
    // ...except grade is constant 4 after the filter, so the quotient is
    // effectively per-student. (A projection before division would also
    // work; keeping the grade demonstrates multi-column quotients.)
    let spec = spec.expect("spec validates");

    let mut division = BatchHashDivision::new(
        Box::new(graded),
        Box::new(BatchMemScan::new(courses)),
        spec,
        HashDivisionMode::EarlyOut,
        MemoryPool::unbounded(),
    )
    .expect("plan");

    // Downstream consumer: pull quotient batches until 5 students are
    // out, then stop — the rest of the dividend stream is never consumed.
    division.open().expect("open");
    let mut perfect = Vec::new();
    while perfect.len() < 5 {
        let Some(batch) = division.next_batch().expect("next") else {
            break;
        };
        let sids = batch.into_tuples().into_iter();
        perfect.extend(sids.map(|t| t.value(0).as_int().expect("sid")));
    }
    let stats_at_5 = division.stats();
    println!("first 5 perfect students: {:?}", &perfect[..5]);
    println!(
        "candidates tracked when the 5th was produced: {} (of 1000 students)",
        stats_at_5.candidates
    );
    assert!(
        stats_at_5.candidates < 1000,
        "early output must not have consumed the whole dividend"
    );

    // Drain the rest to check the full answer.
    let mut total = perfect.len();
    while let Some(batch) = division.next_batch().expect("next") {
        total += batch.len();
    }
    division.close().expect("close");
    let expected = (0..1000).filter(|s| s % 7 != 0).count();
    println!("total perfect students: {total} (expected {expected})");
    assert_eq!(total, expected);
    println!("\nhash-division consumed a filtered stream and produced incrementally —");
    println!("a pipeline member on both sides, as Section 3.3 describes.");
}
