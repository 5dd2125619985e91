//! Per-node health tracking and the coordinator's retry schedule.
//!
//! The coordinator classifies every request failure ([`FailureKind`])
//! and folds the observations into a per-node state machine
//! ([`NodeHealth`]): a node that fails a call or a heartbeat probe turns
//! [`Health::Suspect`]; a later successful probe restores it to
//! [`Health::Healthy`]. Each Healthy→Suspect transition counts as a
//! *flap*, and a node that flaps more than [`RetryPolicy::flap_limit`]
//! times is [`Health::Excluded`]: it stops being a failover candidate
//! until the coordinator's membership view is rebuilt
//! ([`refresh`](crate::Coordinator::refresh)), because a node that
//! oscillates between alive and dead costs a retry round-trip on every
//! query it touches.

use std::time::Duration;

use reldiv_service::BackoffPolicy;
/// The jitter stream's step, shared with the rest of the workspace.
pub use reldiv_storage::splitmix64;

/// How a request to a node failed, classified from the transport error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The TCP connection was refused — nothing is listening (node
    /// process dead, before any request byte moved).
    Refused,
    /// The reply wait exceeded the link's read deadline.
    Timeout,
    /// The connection was severed mid-stream (reset, broken pipe, or an
    /// EOF where a reply frame was due) — the node died *during* the
    /// request.
    Severed,
    /// Any other failure (encode errors, thread panics, address
    /// problems).
    Other,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Refused => write!(f, "connection refused"),
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::Severed => write!(f, "severed mid-stream"),
            FailureKind::Other => write!(f, "other"),
        }
    }
}

/// A node's standing in the coordinator's failover decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Health {
    /// Answering normally.
    #[default]
    Healthy,
    /// Failed its last call or probe; still tried as a failover
    /// candidate (after the healthy candidates), and restored by the
    /// next successful probe.
    Suspect,
    /// Flapped past [`RetryPolicy::flap_limit`]: skipped as a candidate
    /// until the membership view is rebuilt.
    Excluded,
}

/// The per-node health state machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeHealth {
    /// Current standing.
    pub health: Health,
    /// Healthy→Suspect transitions observed so far.
    pub flaps: u32,
    /// Heartbeat probes this node failed to answer.
    pub heartbeats_missed: u64,
}

impl NodeHealth {
    /// Records a failed call or probe. Returns `true` when this
    /// observation *newly* excluded the node (the caller counts it into
    /// `nodes_excluded` exactly once).
    pub fn record_failure(&mut self, flap_limit: u32) -> bool {
        match self.health {
            Health::Healthy => {
                self.flaps += 1;
                if self.flaps > flap_limit {
                    self.health = Health::Excluded;
                    true
                } else {
                    self.health = Health::Suspect;
                    false
                }
            }
            Health::Suspect | Health::Excluded => false,
        }
    }

    /// Records a successful call or probe: a Suspect node is restored.
    /// Exclusion is sticky — a flapper that answers one probe does not
    /// regain candidacy.
    pub fn record_success(&mut self) {
        if self.health == Health::Suspect {
            self.health = Health::Healthy;
        }
    }

    /// Whether the node may serve as a failover candidate.
    pub fn candidate(&self) -> bool {
        self.health != Health::Excluded
    }
}

/// The coordinator's failover schedule: how often to retry a failing
/// node, how long to back off, and when to give up on a flapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per candidate node, including the first (the extras
    /// reconnect the link before retrying — a severed stream from an
    /// earlier failure must not condemn a recovered node).
    pub node_attempts: u32,
    /// Backoff before the first retry on a node; doubles per retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Healthy→Suspect transitions after which a node is excluded.
    pub flap_limit: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            node_attempts: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed: 0xC1A5_7E12,
            flap_limit: 3,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (1-based) on a
    /// node: uniformly in `[half, full]` of the capped exponential step,
    /// drawn from the deterministic stream `rng`.
    pub fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let (base, cap) = (self.base, self.cap);
        let schedule = BackoffPolicy {
            base,
            cap,
            ..BackoffPolicy::default()
        };
        schedule.delay(attempt, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failure_makes_a_healthy_node_suspect_and_success_restores_it() {
        let mut h = NodeHealth::default();
        assert_eq!(h.health, Health::Healthy);
        assert!(!h.record_failure(3));
        assert_eq!(h.health, Health::Suspect);
        assert_eq!(h.flaps, 1);
        // Repeated failures while Suspect are one flap, not many: a node
        // that is simply *down* is not a flapper.
        assert!(!h.record_failure(3));
        assert_eq!(h.flaps, 1);
        h.record_success();
        assert_eq!(h.health, Health::Healthy);
    }

    #[test]
    fn flapping_past_the_limit_excludes_the_node_exactly_once() {
        let mut h = NodeHealth::default();
        let limit = 3;
        for flap in 1..=limit {
            assert!(!h.record_failure(limit), "flap {flap} within the limit");
            h.record_success();
        }
        // The flap that exceeds the limit excludes, and reports it once.
        assert!(h.record_failure(limit));
        assert_eq!(h.health, Health::Excluded);
        assert!(!h.candidate());
        // Sticky: neither success nor further failure changes standing
        // or double-counts the exclusion.
        h.record_success();
        assert_eq!(h.health, Health::Excluded);
        assert!(!h.record_failure(limit));
    }

    #[test]
    fn backoff_is_jittered_within_the_exponential_envelope() {
        let policy = RetryPolicy {
            base: Duration::from_millis(4),
            cap: Duration::from_millis(64),
            ..RetryPolicy::default()
        };
        let mut rng = splitmix64(policy.seed);
        for attempt in 1..=8 {
            let exp = policy
                .base
                .saturating_mul(1 << (attempt - 1))
                .min(policy.cap);
            let d = policy.delay(attempt, &mut rng);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
    }
}
