//! # reldiv-cluster — distributed division over real TCP
//!
//! Section 6 of the paper runs hash-division on a GAMMA-style
//! shared-nothing machine. `reldiv-parallel` states that adaptation once,
//! as a phase driver over a transport
//! ([`Driver`](reldiv_parallel::strategy::Driver)), and simulates the
//! machine with threads and channels; this crate *deploys* it: every node
//! is a full `reldiv-service` process (storage, execution, admission
//! control, metrics) reached over the length-prefixed TCP protocol, and
//! the coordinator is a real process on the other end of real sockets.
//!
//! * [`Coordinator`] — owns the sharded catalog (relations
//!   hash-partitioned across the nodes with the same
//!   [`route`](reldiv_parallel::route) the thread machine uses) and runs
//!   `R ÷ S` under either [`Strategy`] with the driver the thread machine
//!   runs, its node links as the transport: rows are repartitioned *where
//!   they live* and only buckets, replicas, filter bits and partial
//!   quotients cross the network.
//! * **Replication & failover** ([`catalog`], [`health`]) — each fragment
//!   lives on a primary plus `k − 1` replica nodes (round-robin
//!   placement); every write fans out to all holders, and every read and
//!   sub-query fails over between holders with bounded, jittered retries.
//!   With `k ≥ 2`, killing any single node at any point during a query
//!   still returns the exact quotient.
//! * **Elastic membership** — [`join_node`](Coordinator::join_node) /
//!   [`remove_node`](Coordinator::remove_node) re-replicate fragments
//!   under the new placement; a monotonically increasing *catalog epoch*
//!   rides on every data-plane request so a stale coordinator gets a
//!   typed `StaleEpoch` refusal, never a wrong quotient.
//! * [`NodeLink`] — a counted connection: per-link message and byte
//!   totals in both directions, so the traffic Section 6 reasons about is
//!   measurable per wire, and a read deadline so a dead node surfaces as
//!   a typed [`ClusterError::NodeFailed`] (with a classified
//!   [`FailureKind`]) instead of a hang.
//! * [`LocalCluster`] — spawns N in-process node servers on loopback for
//!   tests and benchmarks, with a [`kill`](LocalCluster::kill) switch for
//!   chaos testing.

#![deny(missing_docs)]

pub mod catalog;
pub mod coordinator;
pub mod health;
pub mod link;
pub mod local;

use std::fmt;

use reldiv_service::ServiceError;

pub use coordinator::{
    ClusterMetrics, ClusterQueryOptions, ClusterReport, ClusterResponse, Coordinator,
    ShardedRelation,
};
pub use health::{FailureKind, Health, NodeHealth, RetryPolicy};
pub use link::{LinkStats, NodeLink};
pub use local::LocalCluster;
pub use reldiv_parallel::Strategy;

/// Errors surfaced by the cluster coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node stopped answering: the connection broke, timed out, or
    /// returned bytes that do not parse. Surfaced only after failover
    /// exhausted every holder of the fragment; the coordinator's catalog
    /// still names the node so a retry after recovery is possible.
    NodeFailed {
        /// Index of the failed node.
        node: usize,
        /// How the failure presented on the wire.
        kind: FailureKind,
        /// What the link observed.
        detail: String,
    },
    /// A node answered with a typed service error (bad request, unknown
    /// relation, overload, stale epoch, …).
    Node {
        /// Index of the answering node.
        node: usize,
        /// The node's error.
        error: ServiceError,
    },
    /// The request is malformed at the coordinator (unknown relation,
    /// bad spec, zero nodes).
    BadRequest(String),
    /// The coordinator-side collection phase failed.
    Exec(String),
}

impl ClusterError {
    /// Whether this error is a node's `StaleEpoch` refusal: the
    /// coordinator's membership view is older than the cluster's and
    /// must be [`refresh`](Coordinator::refresh)ed before retrying.
    pub fn is_stale_epoch(&self) -> bool {
        matches!(
            self,
            ClusterError::Node {
                error: ServiceError::StaleEpoch(_),
                ..
            }
        )
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NodeFailed { node, kind, detail } => {
                write!(f, "node {node} failed ({kind}): {detail}")
            }
            ClusterError::Node { node, error } => {
                write!(f, "node {node} refused: {error}")
            }
            ClusterError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ClusterError::Exec(msg) => write!(f, "collection phase: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Cluster result alias.
pub type Result<T> = std::result::Result<T, ClusterError>;

impl From<reldiv_core::ExecError> for ClusterError {
    fn from(e: reldiv_core::ExecError) -> ClusterError {
        ClusterError::Exec(e.to_string())
    }
}
