//! # reldiv-storage — the record-oriented storage substrate
//!
//! Reimplementation of the storage system underneath the experiments in
//! Graefe's *"Relational Division: Four Algorithms and Their Performance"*.
//! The paper ran "on top of a record-oriented file system developed at the
//! Oregon Graduate Center using experiences from WiSS and GAMMA. It
//! simulates a disk using a UNIX file or main memory. Its main services are
//! extent-based files, records, B+-trees, scans, a fast buffer manager, and
//! a main memory manager."
//!
//! This crate provides the same services except B+-trees, which no
//! division plan of the paper uses (its joins are merge and hash joins):
//!
//! * [`disk`] — a simulated disk with per-transfer statistics (seeks,
//!   sequential transfers, bytes) and the paper's Table 3 cost model,
//! * [`page`] — slotted pages holding variable-length records,
//! * [`buffer`] — a fix/unfix buffer manager with pin counts, an LRU
//!   replacement list, dynamic growth up to a byte budget, and hit/miss
//!   statistics,
//! * [`mod@file`] — extent-based record files addressed by record identifiers
//!   (RIDs), with sequential scans,
//! * [`memory`] — a budgeted main-memory pool for hash tables, bit maps,
//!   and chain elements; exhaustion is the signal for hash-table overflow
//!   handling (Section 3.4 of the paper),
//! * [`manager`] — [`StorageManager`], the façade coordinating all of the
//!   above, plus the shared [`StorageRef`] handle used by query operators.
//!
//! The disk is backed by main memory (one of the two backings the paper
//! names); I/O *costs* are computed from the collected statistics exactly as
//! the paper computed them, so buffer-pool effects (e.g. "temporary file
//! pages remain in the buffer pool from run creation to merging") are
//! faithfully reflected in the reported costs.

#![deny(missing_docs)]

pub mod buffer;
pub mod disk;
pub mod error;
pub mod fault;
pub mod file;
pub mod manager;
pub mod memory;
pub mod page;

pub use buffer::{BufferStats, RetryPolicy, Reuse};
pub use disk::{DiskId, IoCostParams, IoStats, PageId};
pub use error::StorageError;
pub use fault::{splitmix64, FaultPlan, FaultStats};
pub use file::{FileId, Rid};
pub use manager::{StorageManager, StorageRef};
pub use memory::MemoryPool;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
