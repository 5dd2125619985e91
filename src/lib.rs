//! # reldiv — Relational Division: Four Algorithms and Their Performance
//!
//! A production-quality Rust reproduction of Goetz Graefe's paper
//! *"Relational Division: Four Algorithms and Their Performance"*
//! (Oregon Graduate Center TR CS/E 88-022, January 1988; ICDE 1989),
//! including the complete storage and query-execution substrate the
//! paper's experiments ran on.
//!
//! Relational division `R ÷ S` expresses **universal quantification**
//! ("for all" predicates): with dividend `R(q, d)` and divisor `S(d)`,
//! the quotient contains each `q` paired in `R` with *every* tuple of
//! `S` — e.g. the students who have taken *all* database courses.
//!
//! ## Quick start
//!
//! For plain Rust collections, use the generic in-memory hash-division:
//!
//! ```
//! use reldiv::mem::hash_divide;
//!
//! let transcript = [
//!     ("Ann", "Database1"),
//!     ("Barb", "Database2"),
//!     ("Ann", "Database2"),
//!     ("Barb", "Optics"),
//! ];
//! let courses = ["Database1", "Database2"];
//! assert_eq!(hash_divide(transcript, courses), vec!["Ann"]);
//! ```
//!
//! For relations, schemas, and algorithm selection, use
//! [`divide_relations`] / [`divide`]:
//!
//! ```
//! use reldiv::{divide_relations, Algorithm, HashDivisionMode};
//! use reldiv::rel::{Relation, Schema, schema::Field, tuple::ints};
//!
//! let transcript = Relation::from_tuples(
//!     Schema::new(vec![Field::int("student-id"), Field::int("course-no")]),
//!     vec![ints(&[1, 10]), ints(&[1, 20]), ints(&[2, 10])],
//! ).unwrap();
//! let courses = Relation::from_tuples(
//!     Schema::new(vec![Field::int("course-no")]),
//!     vec![ints(&[10]), ints(&[20])],
//! ).unwrap();
//!
//! let q = divide_relations(
//!     &transcript,
//!     &courses,
//!     Algorithm::HashDivision { mode: HashDivisionMode::Standard },
//! ).unwrap();
//! assert_eq!(q.cardinality(), 1); // only student 1 took both courses
//! ```
//!
//! ## Crate map
//!
//! | facade module | crate | contents |
//! |---|---|---|
//! | [`rel`] | `reldiv-rel` | values, schemas, tuples, record codec, operation counters |
//! | [`storage`] | `reldiv-storage` | simulated disk, buffer manager, record files, B+-trees, memory pool |
//! | [`exec`] | `reldiv-exec` | open-next-close operators: scans, sort, joins, aggregation |
//! | [`core`](mod@core) | `reldiv-core` | the four division algorithms, overflow handling, the in-memory API |
//! | [`parallel`] | `reldiv-parallel` | shared-nothing hash-division, bit-vector filtering |
//! | [`costmodel`] | `reldiv-costmodel` | the paper's analytical model (regenerates Table 2 exactly) |
//! | [`workload`] | `reldiv-workload` | deterministic workload generators with ground truth |
//!
//! The benchmark harness (`reldiv-bench`, not re-exported) regenerates
//! every table of the paper; see `EXPERIMENTS.md`.

#![deny(missing_docs)]

pub use reldiv_core as core;
pub use reldiv_costmodel as costmodel;
pub use reldiv_exec as exec;
pub use reldiv_parallel as parallel;
pub use reldiv_rel as rel;
pub use reldiv_storage as storage;
pub use reldiv_workload as workload;

pub use reldiv_core::api::{
    divide, divide_profiled, divide_relations, DivisionConfig, OverflowPolicy, Source,
};
pub use reldiv_core::mem;
pub use reldiv_core::Contains;
pub use reldiv_core::{Algorithm, DivisionSpec, HashDivisionMode};
pub use reldiv_core::{ProfileNode, QueryProfile};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // The doc examples cover behaviour; this pins the re-export paths.
        let _ = crate::Algorithm::Naive;
        let _ = crate::HashDivisionMode::EarlyOut;
        let _ = crate::storage::manager::StorageConfig::paper();
        let _ = crate::costmodel::CostUnits::paper();
    }
}
