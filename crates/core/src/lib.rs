//! # reldiv-core — relational division: four algorithms
//!
//! The primary contribution of Graefe's *"Relational Division: Four
//! Algorithms and Their Performance"* (OGC TR CS/E 88-022, ICDE 1989):
//! the **hash-division** algorithm, together with the three known
//! strategies it is compared against.
//!
//! Relational division `R ÷ S` expresses universal quantification: with
//! dividend `R(q, d)` and divisor `S(d)`, the quotient contains each `q`
//! that appears in `R` paired with *every* tuple of `S`. The paper's
//! running example: students (`q`) who have taken *all* courses (`d`).
//!
//! ## The four algorithms
//!
//! | module | algorithm | paper section |
//! |---|---|---|
//! | [`naive`] | naive division over sorted inputs (Smith 1975) | 2.1 |
//! | [`sort_agg`] | division by sort-based aggregation (count per group == divisor count), with or without a preceding merge semi-join | 2.2.1 |
//! | [`hash_agg`] | division by hash-based aggregation, with or without a preceding hash semi-join | 2.2.2 |
//! | [`hash_division`] | **hash-division**: a divisor table assigning divisor numbers and a quotient table of candidates with bit maps ([`batch_div`] runs them) | 3 |
//!
//! Supporting modules:
//!
//! * [`spec`] — [`DivisionSpec`], naming which dividend columns are
//!   divisor attributes and which are quotient attributes,
//! * [`hybrid`] — hash-table overflow handling by quotient partitioning,
//!   done dynamically: the memory-adaptive hybrid (Section 3.4),
//! * [`overflow`] — divisor partitioning with the collection phase, every
//!   phase run by the hybrid (Section 3.4),
//! * [`batch_div`] — the hash-division operator every plan runs, a batch
//!   at a time,
//! * [`contains`] — the "contains clause" the paper's conclusion calls
//!   for: a declarative for-all query builder with cost-based algorithm
//!   choice,
//! * [`mem`] — a self-contained generic in-memory API
//!   ([`mem::hash_divide`]) for callers who just want to divide Rust
//!   collections,
//! * [`api`] — the engine-level entry point [`api::divide`] running any
//!   algorithm over relations stored in record files.
//!
//! ## Semantics
//!
//! * Inputs are bags. Hash-division ignores duplicates in the dividend and
//!   eliminates divisor duplicates on the fly; the other algorithms
//!   require duplicate-free inputs, so their plan builders insert the
//!   necessary duplicate-elimination steps unless told the inputs are
//!   unique (`assume_unique`).
//! * An empty divisor yields the *distinct quotient-attribute projection
//!   of the dividend* (universal quantification over the empty set is
//!   vacuously true — the relational-algebra identity
//!   `R ÷ S = π_q(R) − π_q((π_q(R) × S) − R)` gives the same). Every
//!   algorithm implements this convention, and it is property-tested.

#![deny(missing_docs)]

pub mod api;
pub mod batch_div;
pub mod contains;
mod engine;
pub mod hash_agg;
pub mod hash_division;
pub mod hybrid;
pub mod mem;
pub mod naive;
pub mod overflow;
pub mod sort_agg;
pub mod spec;

pub use reldiv_exec::report;

pub use api::{
    divide, divide_profiled, divide_relations, divide_with_report, Algorithm, DivisionConfig,
};
pub use batch_div::BatchHashDivision;
pub use contains::Contains;
pub use hash_division::HashDivisionMode;
pub use reldiv_exec::batch::ExecMode;
pub use reldiv_exec::profile::{ProfileNode, ProfileSink, QueryProfile, SpanKind};
pub use report::DegradationReport;
pub use spec::DivisionSpec;

/// Result alias; core reuses the execution engine's error type.
pub type Result<T> = reldiv_exec::Result<T>;
pub use reldiv_exec::ExecError;
