//! Service-level errors, including the admission-control rejection.

use std::fmt;

/// Errors surfaced by the query service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The submission queue is full: the request was rejected instead of
    /// buffered. Retrying after a backoff is the expected response.
    Overloaded,
    /// The service is shutting down and refuses new queries (admitted
    /// queries still complete).
    ShuttingDown,
    /// A named relation is not in the catalog.
    UnknownRelation(String),
    /// The request is malformed (bad spec, schema mismatch, bad
    /// algorithm choice for the inputs).
    BadRequest(String),
    /// The division itself failed inside the engine.
    Exec(String),
    /// A wire-protocol or transport failure.
    Protocol(String),
    /// The worker executing the query died before replying.
    Internal(String),
    /// The query's deadline elapsed before the quotient was ready. The
    /// division was cancelled cooperatively; no partial result is served.
    DeadlineExceeded,
    /// The request carried a cluster-catalog epoch that does not match
    /// this node's: the coordinator holds a pre-rebalance routing table.
    /// The node refuses the request rather than answer from fragments the
    /// coordinator no longer describes correctly; the coordinator must
    /// refresh its membership view and retry.
    StaleEpoch(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded => {
                write!(f, "overloaded: submission queue full, request rejected")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownRelation(name) => {
                write!(f, "unknown relation {name:?}")
            }
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Exec(msg) => write!(f, "execution error: {msg}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded: query cancelled before completion")
            }
            ServiceError::StaleEpoch(msg) => write!(f, "stale catalog epoch: {msg}"),
        }
    }
}

impl ServiceError {
    /// The variant's own message: the text it carries, or the display
    /// text of a variant that carries none. An error frame sends this, so
    /// the error a client decodes equals the one the server raised.
    pub fn message(&self) -> String {
        match self {
            ServiceError::UnknownRelation(m)
            | ServiceError::BadRequest(m)
            | ServiceError::Exec(m)
            | ServiceError::Protocol(m)
            | ServiceError::Internal(m)
            | ServiceError::StaleEpoch(m) => m.clone(),
            _ => self.to_string(),
        }
    }

    /// Whether a client may reasonably retry the request after a backoff:
    /// the failure reflects a transient service condition (a full
    /// submission queue, a worker that died mid-query), not a property of
    /// the request itself.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServiceError::Overloaded | ServiceError::Internal(_))
    }
}

impl std::error::Error for ServiceError {}

impl From<reldiv_core::ExecError> for ServiceError {
    fn from(e: reldiv_core::ExecError) -> ServiceError {
        if e.is_cancelled() {
            ServiceError::DeadlineExceeded
        } else {
            ServiceError::Exec(e.to_string())
        }
    }
}

/// Service result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;
