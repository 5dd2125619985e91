//! # reldiv-rel — tuples, schemas, and record encoding
//!
//! Foundation crate for the `reldiv` reproduction of Goetz Graefe's
//! *"Relational Division: Four Algorithms and Their Performance"* (OGC TR
//! CS/E 88-022, ICDE 1989).
//!
//! This crate models the data layer the paper's record-oriented file system
//! provided:
//!
//! * [`Value`] — a single attribute value (64-bit integer or string),
//! * [`Schema`] / [`Field`] / [`ColumnType`] — relation schemas,
//! * [`Tuple`] — a row of values, with key-subset comparison, hashing, and
//!   projection helpers used by every operator in the system,
//! * [`codec`] — encoding of tuples into byte records (the paper used
//!   8-byte divisor/quotient records and 16-byte dividend records),
//! * [`column`](mod@column) — columnar [`Batch`]es and the packed-key hash/compare
//!   kernels behind the vectorized execution path, bit-identical to the
//!   tuple-at-a-time entry points, and [`Columns`], a whole relation as
//!   shared batches,
//! * [`Relation`] — an in-memory relation used by workload generators,
//!   tests, and the in-memory division API,
//! * [`counters`] — thread-local counters for the abstract operations the
//!   paper prices in its analytical model (comparisons, hash calculations,
//!   page moves, bit operations), enabling a deterministic "modeled CPU"
//!   reproduction of Table 4.
//!
//! All algorithm functions on records (comparison, hashing, projection) are
//! expressed over attribute index subsets, mirroring the paper's compiled
//! per-query functions passed "by means of pointers to the function entry
//! points".

#![deny(missing_docs)]

pub mod codec;
pub mod column;
pub mod counters;
pub mod error;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use codec::{RecordCodec, RecordKey};
pub use column::{Batch, ColumnVec, Columns};
pub use error::RelError;
pub use relation::Relation;
pub use schema::{ColumnType, Field, Schema};
pub use tuple::Tuple;
pub use value::Value;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, RelError>;
