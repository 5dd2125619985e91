//! # reldiv-service — a concurrent division query service
//!
//! The paper measures relational division as a standalone query; this
//! crate serves it: a catalog of named, versioned relations, a worker
//! pool executing divisions with any of the paper's algorithms (or the
//! cost model's recommendation), a version-keyed result cache, admission
//! control over a bounded submission queue, and per-query observability.
//!
//! * [`Service`] — the embeddable handle: `register` / `drop_relation` /
//!   `divide` / `exec_plan` / `stats` / `shutdown`, speaking the wire
//!   protocol's own request and reply types.
//! * [`catalog`] — named relations; every update installs a new
//!   immutable version, and queries pin the version they resolved.
//! * [`cache`] — results keyed on the canonical plan text and the exact
//!   input versions, so a stale quotient cannot be served.
//! * Admission control — a full submission queue rejects with
//!   [`ServiceError::Overloaded`] instead of queueing without bound.
//! * [`metrics`] — latency histogram (p50/p95/p99), hit/miss/rejection
//!   counters, and per-request abstract-operation aggregation via
//!   [`OpScope`](reldiv_rel::counters::OpScope).
//! * [`server`] / [`client`] — a length-prefixed TCP protocol
//!   ([`proto`], documented in `docs/PROTOCOL.md`) plus an in-process
//!   client; both transports implement [`DivisionClient`].
//! * [`Service::exec_plan`] — composed query plans (`reldiv-plan`'s
//!   s-expression language, documented in `docs/PLANS.md`): filters,
//!   joins, projections, divisions, and HAVING COUNT run as one query,
//!   with per-plan version pinning, caching, and profiling. A `divide`
//!   request is the one-operator case and takes the same path.
//!
//! The concurrency model respects the engine's single-threaded storage
//! layer (the paper's system ran one process per disk): each worker
//! thread owns a private `StorageManager` and materializes catalog
//! relations into worker-local record files on demand.

#![deny(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod error;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod service;
mod worker;

pub use client::{BackoffPolicy, DivisionClient, InProcClient, RetryingClient, TcpClient};
pub use error::{Result, ServiceError};
pub use metrics::MetricsSnapshot;
pub use proto::{
    DivideReply, DivideRequest, EpochRequest, ExecPlanRequest, PartialQuotientReply, PlanReply,
    RepartitionRequest,
};
pub use reldiv_core::{ProfileNode, QueryProfile};
pub use server::ServerHandle;
pub use service::{ClusterEpochState, Service, ServiceConfig, ShardInfo};
