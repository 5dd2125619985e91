//! # reldiv-exec — the query execution engine
//!
//! The paper's engine: "All relational algebra operators are implemented as
//! iterators, i.e., they support a simple open-next-close protocol. A
//! tree-structured query evaluation plan is used to execute queries by
//! demand-driven dataflow."
//!
//! This crate provides that engine. Division plans run on its batch
//! form, [`batch::BatchOperator`]: the same protocol over fixed-size
//! columnar [`reldiv_rel::Batch`]es, through the packed-key hash and
//! compare kernels, with per-batch cancellation and profiling
//! checkpoints.
//!
//! * [`batch`] — scans of record files, in-memory relations and shared
//!   columns; selection (by the predicates of [`filter`]) and projection;
//!   the external merge sort with early aggregation and duplicate
//!   elimination ("no intermediate run contains duplicate sort keys"),
//!   run files on the 1 KB-page run disk for high fan-in, and an
//!   on-demand final merge ("opening a sort operator prepares sorted runs
//!   and merges them until only one merge step is left; the final merge
//!   is performed on demand by the next function"); the spilling hash
//!   group count, the scalar count and the
//!   `HAVING count = N` filter that express division by aggregation;
//!   hash-based duplicate elimination; the merge semi-join,
//! * [`hash_join`] — the hash join and hash semi-join with bucket
//!   chaining, on the same batch protocol,
//! * [`op::Operator`] — the tuple-at-a-time protocol, kept for the three
//!   operators the benchmark still names: [`batch::BatchToTuple`], the
//!   [`sort::Sort`] bridge over the batch sort, and
//!   [`agg::HashCountAggregate`] on the batch group count's state,
//! * [`scan`] — loading relations into record files,
//! * [`merge_join`] — the join mode and key check every join shares,
//! * [`hash_table`] — the bucket-chained hash table, and the typed key
//!   table on it under every hash-based operator here and hash-division's
//!   tables in `reldiv-core`,
//! * [`profile`] — per-operator `EXPLAIN ANALYZE` spans (wall time,
//!   tuples, abstract ops, physical page I/O), zero-cost when disabled.
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
pub mod merge_join;
pub mod op;
pub mod profile;
pub mod scan;
pub mod sort;

pub use batch::{collect_batches, drain_batches, BatchOperator, BoxedBatchOp, ExecMode};
pub use cancel::CancelToken;
pub use error::ExecError;
pub use op::{collect, BoxedOp, Operator};
pub use profile::{ProfileSink, QueryProfile, SpanKind};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ExecError>;
