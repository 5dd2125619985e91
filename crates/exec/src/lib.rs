//! # reldiv-exec — the query execution engine
//!
//! The paper's engine: "All relational algebra operators are implemented as
//! iterators, i.e., they support a simple open-next-close protocol. A
//! tree-structured query evaluation plan is used to execute queries by
//! demand-driven dataflow."
//!
//! This crate provides that engine:
//!
//! * [`op::Operator`] — the open-next-close iterator protocol,
//! * [`scan`] — file scans over record files and in-memory scans,
//! * [`filter`] / [`project`] — selection and projection,
//! * [`sort`] — external merge sort with early aggregation and duplicate
//!   elimination ("no intermediate run contains duplicate sort keys"), run
//!   files on the 1 KB-page run disk for high fan-in, and an on-demand
//!   final merge ("opening a sort operator prepares sorted runs and merges
//!   them until only one merge step is left; the final merge is performed
//!   on demand by the next function"),
//! * [`merge_join`] — merge join and merge semi-join over sorted inputs,
//! * [`hash_join`] — hash join and hash semi-join with bucket chaining,
//! * [`index_join`] — index join and index semi-join over B+-trees (the
//!   paper's third join option),
//! * [`agg`] — sort-based aggregation, hash-based aggregation, scalar
//!   aggregates, and the `HAVING count = N` filter used to express
//!   division by aggregation,
//! * [`hash_table`] — the bucket-chained hash table shared by the
//!   hash-based operators and by hash-division in `reldiv-core`,
//! * [`profile`] — per-operator `EXPLAIN ANALYZE` spans (wall time,
//!   tuples, abstract ops, physical page I/O), zero-cost when disabled,
//! * [`batch`] — the vectorized execution path: [`batch::BatchOperator`]
//!   processes fixed-size columnar [`reldiv_rel::Batch`]es through the
//!   packed-key hash and compare kernels, with per-batch cancellation and
//!   profiling checkpoints: a batch twin of every operator above that a
//!   plan uses (the record-buffer sort [`batch::sort::BatchSort`] and the
//!   spilling group count included), so no plan bridges the two paths.
//!
//! All operators draw scratch memory from the storage manager's
//! [`reldiv_storage::MemoryPool`] and count abstract operations through
//! [`reldiv_rel::counters`], so executions can be priced with the paper's
//! analytical cost units as well as measured.

#![deny(missing_docs)]

pub mod agg;
pub mod batch;
pub mod cancel;
pub mod error;
pub mod filter;
pub mod hash_join;
pub mod hash_table;
pub mod index_join;
pub mod merge_join;
pub mod op;
pub mod profile;
pub mod project;
pub mod scan;
pub mod sort;

pub use batch::{collect_batches, drain_batches, BatchOperator, BoxedBatchOp, ExecMode};
pub use cancel::CancelToken;
pub use error::ExecError;
pub use op::{collect, BoxedOp, Operator};
pub use profile::{ProfileSink, QueryProfile, SpanKind};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ExecError>;
