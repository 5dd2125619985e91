//! The coordinator: a replicated sharded catalog plus the two Section 6
//! strategies executed over real TCP links, with mid-query failover.
//!
//! The coordinator owns no tuple data between queries — relations live
//! hash-partitioned across the node services, placed by the same
//! [`route`] the thread machine uses (FNV-1a on the shard keys), so a
//! relation registered through the coordinator and one partitioned by
//! the in-process machine land identically.
//!
//! ## Replication and failover
//!
//! With a replication factor `k` ([`Coordinator::set_replication`]),
//! every fragment lives on `k` nodes: its primary (node index = fragment
//! index, exactly the `k = 1` placement) plus `k − 1` replicas
//! round-robin ([`catalog::placement`]). Writes fan out to every holder
//! — one `Shard` write frame to the primary, `ReplicaWrite` frames to
//! the replicas — and succeed when **every fragment** collects at
//! least one acknowledgment. Reads and per-fragment sub-queries run
//! through a failover driver: candidates are the fragment's holders
//! (primary first, [`Health::Excluded`] nodes skipped), each tried up to
//! [`RetryPolicy::node_attempts`] times with a link reconnect and a
//! jittered exponential backoff between attempts. The upgraded chaos
//! invariant follows: with `k ≥ 2`, kill any single node at any point
//! during a query and the exact quotient is still returned.
//!
//! ## Elastic membership
//!
//! [`Coordinator::join_node`] and [`Coordinator::remove_node`] change
//! the node set: the coordinator snapshots every base relation (failover
//! reads), bumps the monotonically increasing *catalog epoch*, pushes
//! the new membership view to every node, and re-registers the
//! relations under the new placement. Every data-plane request carries
//! the coordinator's epoch; a node whose installed view is newer answers
//! with a typed `StaleEpoch` refusal — a stale coordinator can never
//! read the wrong fragment, it gets told to [`Coordinator::refresh`].
//!
//! ## Quotient partitioning on the wire
//!
//! "The divisor table must be replicated in the main memory of all
//! participating processors. After replication, all local hash-division
//! operators work completely independently of each other." The
//! coordinator fetches every node's divisor fragment, concatenates them,
//! and installs the full divisor on every node under a version-stamped
//! replica name (so a re-run against unchanged inputs skips the
//! replication entirely). If the dividend is not already sharded on the
//! quotient attributes it is transparently repartitioned first — quotient
//! partitioning is only correct when no quotient value spans nodes. Each
//! node then runs one local hash division and the quotients concatenate.
//!
//! ## Divisor partitioning on the wire
//!
//! Both inputs are repartitioned on the divisor attributes *where they
//! live*: each fragment is bucketed by one of its holders
//! ([`Request::Repartition`]) and only the buckets cross the network,
//! coordinator-switched to their owner nodes. Each participating
//! fragment is divided locally by a holder and the partial quotient
//! tagged; the coordinator runs the paper's collection-phase division
//! ([`CollectionSite`]) over the tagged streams: a quotient value
//! survives only if every participating fragment reported it.
//!
//! ## Bit-vector filtering
//!
//! With a filter size configured, each divisor fragment's holder builds
//! a filter over the fragment ([`Request::BuildFilter`]), the
//! coordinator ORs them ([`BitVectorFilter::union`]), and the union
//! rides inside the dividend repartition requests: dividend tuples that
//! cannot match any divisor tuple are dropped at the node that holds
//! them. Bits cross the network; the tuples they exclude never do.
//!
//! [`Health::Excluded`]: crate::health::Health::Excluded

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{Algorithm, DivisionSpec, ProfileNode, QueryProfile, SpanKind};
use reldiv_parallel::filter::BitVectorFilter;
use reldiv_parallel::strategy::CollectionSite;
use reldiv_parallel::{route, Strategy};
use reldiv_rel::{Relation, Schema, Tuple};
use reldiv_service::proto::{
    encode_write, is_derived_from, DivideRequest, EpochRequest, PartialQuotientReply,
    RepartitionRequest, Reply, Request, WriteKind, MAX_CLUSTER_NODES,
};
use reldiv_service::{MetricsSnapshot, ShardInfo};

use crate::catalog;
use crate::health::{splitmix64, FailureKind, NodeHealth, RetryPolicy};
use crate::link::{LinkStats, NodeLink};
use crate::{ClusterError, Result};

/// How a cluster division should run.
#[derive(Debug, Clone, Default)]
pub struct ClusterQueryOptions {
    /// Which Section 6 strategy to execute.
    pub strategy: Strategy,
    /// Bit-vector filter size applied at the sending sites (divisor
    /// partitioning only). `None` ships every dividend tuple.
    pub bit_vector_bits: Option<usize>,
    /// Explicit `(divisor_keys, quotient_keys)`; `None` uses the
    /// trailing-divisor convention.
    pub spec: Option<(Vec<usize>, Vec<usize>)>,
    /// Collect per-node span trees and graft them under a cluster-level
    /// network root.
    pub profile: bool,
}

/// What the coordinator knows about a sharded relation.
#[derive(Debug, Clone)]
pub struct ShardedRelation {
    /// Relation schema (identical on every node).
    pub schema: Schema,
    /// Columns the relation is hash-partitioned on.
    pub shard_keys: Vec<usize>,
    /// Per-node catalog versions returned by the nodes (0 for nodes that
    /// hold nothing of this relation, and after a
    /// [`refresh`](Coordinator::refresh)).
    pub versions: Vec<u64>,
    /// Total tuples registered across all fragments.
    pub cardinality: usize,
    /// Per-fragment cardinalities (zeroed by a
    /// [`refresh`](Coordinator::refresh), which cannot observe them).
    pub per_node: Vec<usize>,
    /// Coordinator-side version stamp, embedded in the names of derived
    /// temporaries (replicas, repartitions) so stale derivations are
    /// never reused after an update.
    pub stamp: u64,
    /// Which nodes acknowledged each fragment's write, primary first —
    /// the failover candidates for reads and sub-queries on that
    /// fragment.
    pub holders: Vec<Vec<usize>>,
    /// Tuples dropped at the sending sites when this relation was built
    /// by a repartition (bit-vector filter plus non-participating
    /// buckets). Zero for base relations. Reported again on every cache
    /// hit so repeated queries account for the tuples the cached temp
    /// excludes.
    pub filtered_at_build: u64,
}

/// Robustness counters accumulated by the coordinator across its
/// lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Same-node retries: a fragment request re-sent to the same holder
    /// after a reconnect and a jittered backoff.
    pub replica_retries: u64,
    /// Fragment requests that moved on from an exhausted holder to the
    /// next one.
    pub failovers: u64,
    /// Nodes excluded from failover candidacy after flapping past
    /// [`RetryPolicy::flap_limit`].
    pub nodes_excluded: u64,
    /// Heartbeat probes that went unanswered.
    pub heartbeats_missed: u64,
}

/// Measurements from one cluster division.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Fragments that held divisor data and ran local divisions (all
    /// fragments under quotient partitioning or an empty divisor).
    pub participating: Vec<usize>,
    /// Dividend tuples dropped at the sending sites — by the bit-vector
    /// filter, or because their divisor cluster is empty and they cannot
    /// influence the quotient.
    pub filtered_tuples: u64,
    /// Fill ratio of the merged bit-vector filter, if one was used.
    pub filter_fill_ratio: Option<f64>,
    /// Per-link traffic for this query (frames and bytes, both ways).
    pub per_link: Vec<LinkStats>,
    /// Total frames across all links for this query.
    pub messages: u64,
    /// Total bytes across all links for this query.
    pub bytes: u64,
    /// Quotient tuples each node contributed.
    pub per_node_quotient: Vec<u64>,
    /// Same-node reconnect-retries during this query.
    pub replica_retries: u64,
    /// Fragment requests served by failing over to another holder during
    /// this query.
    pub failovers: u64,
    /// Wall-clock time of the whole distributed query.
    pub elapsed: Duration,
    /// The merged profile: a network root with one span per node, each
    /// grafting the node's own span tree. Present when requested.
    pub profile: Option<QueryProfile>,
}

/// The quotient a cluster division produced.
#[derive(Debug, Clone)]
pub struct ClusterResponse {
    /// Quotient schema.
    pub schema: Schema,
    /// Quotient tuples.
    pub tuples: Vec<Tuple>,
    /// Traffic and participation measurements.
    pub report: ClusterReport,
}

/// One per-fragment request with its failover candidates. `build` makes
/// the request for a given candidate node, rewriting relation names per
/// the primary-name rule ([`catalog::name_on`]).
struct FragmentTask {
    fragment: usize,
    holders: Vec<usize>,
    build: Box<dyn Fn(usize) -> Request + Send>,
}

/// A fragment request's answer: which holder served it.
struct FragmentReply {
    fragment: usize,
    holder: usize,
    reply: Reply,
}

/// Health and metric observations a fragment thread collected, applied
/// by the coordinator thread after the scope ends.
#[derive(Default)]
struct FragmentEvents {
    /// `(node, success)` call outcomes, in order.
    node_events: Vec<(usize, bool)>,
    replica_retries: u64,
    failovers: u64,
}

/// One write in a fan-out: `fragment`'s data to `node`, as the encoded
/// frame.
struct WriteItem {
    fragment: usize,
    node: usize,
    payload: Vec<u8>,
}

impl WriteItem {
    /// The writes that install fragment `at.shard` on `holders`: a `Shard`
    /// frame for the fragment's own node, a `ReplicaWrite` frame for every
    /// other holder, each encoded from the borrowed rows.
    fn for_fragment<T: std::borrow::Borrow<Tuple>>(
        name: &str,
        at: ShardInfo,
        holders: &[usize],
        schema: &Schema,
        epoch: u64,
        tuples: &[T],
    ) -> Result<Vec<WriteItem>> {
        let fragment = at.shard as usize;
        let item = |&node: &usize| {
            let kind = if node == fragment {
                WriteKind::Shard(at.clone())
            } else {
                WriteKind::Replica(at.clone())
            };
            let payload = encode_write(name, &kind, schema, tuples, Some(epoch));
            Ok(WriteItem {
                fragment,
                node,
                payload: payload.map_err(encoding)?,
            })
        };
        holders.iter().map(item).collect()
    }
}

fn encoding(e: reldiv_service::ServiceError) -> ClusterError {
    ClusterError::BadRequest(format!("encoding request: {e}"))
}

/// A failed write settlement: the error to surface, plus whether any
/// node acknowledged (and therefore already installed) part of the
/// write — the caller's catalog entry then describes a mixed state.
struct WriteFailure {
    error: ClusterError,
    any_acks: bool,
}

/// The cluster coordinator: replicated sharded catalog + strategy
/// execution over counted TCP links.
pub struct Coordinator {
    links: Vec<NodeLink>,
    catalog: HashMap<String, ShardedRelation>,
    /// `(node, name)` pairs of full divisor replicas (`.repl.`) already
    /// installed, so quotient-partitioning replication is skipped when
    /// the divisor has not changed.
    installed: HashSet<(usize, String)>,
    next_stamp: u64,
    epoch: u64,
    replication: usize,
    health: Vec<NodeHealth>,
    policy: RetryPolicy,
    rng: u64,
    metrics: ClusterMetrics,
}

impl Coordinator {
    fn new(links: Vec<NodeLink>) -> Coordinator {
        let n = links.len();
        let policy = RetryPolicy::default();
        Coordinator {
            links,
            catalog: HashMap::new(),
            installed: HashSet::new(),
            next_stamp: 0,
            epoch: 1,
            replication: 1,
            health: vec![NodeHealth::default(); n],
            policy,
            rng: splitmix64(policy.seed),
            metrics: ClusterMetrics::default(),
        }
    }

    /// Connects to the nodes at `addrs` (node index = position) and
    /// adopts the highest catalog epoch any node reports, so a
    /// coordinator joining an established cluster starts current.
    pub fn connect(
        addrs: &[std::net::SocketAddr],
        read_timeout: Option<Duration>,
    ) -> Result<Coordinator> {
        if addrs.is_empty() {
            return Err(ClusterError::BadRequest(
                "cluster needs at least one node".into(),
            ));
        }
        let mut links = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            links.push(NodeLink::connect(node, addr, read_timeout)?);
        }
        let mut coordinator = Coordinator::new(links);
        coordinator.adopt_epoch_best_effort();
        Ok(coordinator)
    }

    /// Wraps already-connected links (used by [`LocalCluster`]). Unlike
    /// [`Coordinator::connect`] this sends no epoch probe — a stale view
    /// is still caught by the nodes' `StaleEpoch` refusals, and the
    /// links' traffic counters start at exactly zero.
    ///
    /// [`LocalCluster`]: crate::local::LocalCluster
    pub fn from_links(links: Vec<NodeLink>) -> Result<Coordinator> {
        if links.is_empty() {
            return Err(ClusterError::BadRequest(
                "cluster needs at least one node".into(),
            ));
        }
        Ok(Coordinator::new(links))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.links.len()
    }

    /// The coordinator's catalog epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replication factor applied to subsequent registrations.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Sets the replication factor: every fragment registered from now
    /// on lives on `k` nodes. Relations already registered keep their
    /// current holders until re-registered.
    pub fn set_replication(&mut self, k: usize) -> Result<()> {
        if k == 0 || k > self.links.len() {
            return Err(ClusterError::BadRequest(format!(
                "replication factor {k} outside 1..={}",
                self.links.len()
            )));
        }
        self.replication = k;
        Ok(())
    }

    /// Replaces the failover schedule (tests and benchmarks tighten the
    /// backoff).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
        self.rng = splitmix64(policy.seed);
    }

    /// Per-node health standing.
    pub fn health(&self) -> &[NodeHealth] {
        &self.health
    }

    /// Robustness counters accumulated since connection.
    pub fn robustness_metrics(&self) -> ClusterMetrics {
        self.metrics
    }

    /// Cumulative per-link traffic since connection.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links.iter().map(|l| l.stats()).collect()
    }

    /// The coordinator's view of a registered relation.
    pub fn relation(&self, name: &str) -> Option<&ShardedRelation> {
        self.catalog.get(name)
    }

    /// Hash-partitions `relation` on `shard_keys` across the nodes and
    /// installs each fragment on its primary plus `k − 1` replicas.
    /// Succeeds when every fragment collects at least one write
    /// acknowledgment; the acknowledging nodes become the fragment's
    /// failover candidates. Replaces any previous version; stale derived
    /// temporaries are forgotten so they are rebuilt on demand.
    pub fn register(
        &mut self,
        name: &str,
        relation: &Relation,
        shard_keys: &[usize],
    ) -> Result<()> {
        let arity = relation.schema().arity();
        if shard_keys.is_empty() {
            return Err(ClusterError::BadRequest("empty shard key set".into()));
        }
        if let Some(&k) = shard_keys.iter().find(|&&k| k >= arity) {
            return Err(ClusterError::BadRequest(format!(
                "shard key {k} out of range for arity {arity}"
            )));
        }
        for reserved in [
            catalog::REPLICA_PREFIX,
            catalog::FULL_COPY_PREFIX,
            catalog::PARTITION_PREFIX,
        ] {
            if name.starts_with(reserved) {
                return Err(ClusterError::BadRequest(format!(
                    "relation name {name:?} uses the reserved prefix {reserved:?}"
                )));
            }
        }
        let n = self.links.len();
        let k = self.replication;
        let mut shards: Vec<Vec<&Tuple>> = vec![Vec::new(); n];
        for tuple in relation.tuples() {
            shards[route(tuple, shard_keys, n)].push(tuple);
        }
        let per_node: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let schema = relation.schema().clone();
        let mut items = Vec::with_capacity(n * k);
        for (fragment, tuples) in shards.iter().enumerate() {
            let at = ShardInfo {
                shard: fragment as u16,
                of: n as u16,
                shard_keys: shard_keys.to_vec(),
            };
            let holders = catalog::placement(fragment, n, k);
            items.extend(WriteItem::for_fragment(
                name, at, &holders, &schema, self.epoch, tuples,
            )?);
        }
        let (holders, versions) = match self.settle_writes(items, n, k) {
            Ok(settled) => settled,
            Err(WriteFailure { error, any_acks }) => {
                // Nodes that did ack have already replaced their copy
                // with the new version while others kept the old one;
                // the existing catalog entry then describes no
                // consistent placement. Drop it (and everything derived
                // from it) so the next query fails fast with an unknown
                // relation instead of silently mixing versions. With
                // zero acks (every node refused — e.g. a StaleEpoch
                // rejection of the whole fan-out) nothing was installed
                // and the old entry is still good.
                if any_acks {
                    self.catalog.remove(name);
                    self.forget_derivations_of(name);
                }
                return Err(error);
            }
        };
        self.next_stamp += 1;
        self.catalog.insert(
            name.to_owned(),
            ShardedRelation {
                schema,
                shard_keys: shard_keys.to_vec(),
                versions,
                cardinality: relation.tuples().len(),
                per_node,
                stamp: self.next_stamp,
                holders,
                filtered_at_build: 0,
            },
        );
        // Anything derived from the old version is stale.
        self.forget_derivations_of(name);
        Ok(())
    }

    /// Runs `dividend ÷ divisor` across the cluster.
    pub fn divide(
        &mut self,
        dividend: &str,
        divisor: &str,
        options: &ClusterQueryOptions,
    ) -> Result<ClusterResponse> {
        let start = Instant::now();
        let before: Vec<LinkStats> = self.links.iter().map(|l| l.stats()).collect();
        let metrics_before = self.metrics;
        let dividend_rel = self.lookup(dividend)?;
        let divisor_rel = self.lookup(divisor)?;
        let spec = match &options.spec {
            Some((dk, qk)) => DivisionSpec::new(
                &dividend_rel.schema,
                &divisor_rel.schema,
                dk.clone(),
                qk.clone(),
            ),
            None => DivisionSpec::trailing_divisor(&dividend_rel.schema, &divisor_rel.schema),
        }
        .map_err(|e| ClusterError::BadRequest(e.to_string()))?;
        let quotient_schema = spec
            .quotient_schema(&dividend_rel.schema)
            .map_err(|e| ClusterError::BadRequest(e.to_string()))?;

        let outcome = match options.strategy {
            Strategy::QuotientPartitioning => {
                self.divide_quotient_partitioned(dividend, divisor, &spec, options)?
            }
            Strategy::DivisorPartitioning => {
                self.divide_divisor_partitioned(dividend, divisor, &spec, options)?
            }
        };
        let StrategyOutcome {
            tuples,
            participating,
            filtered_tuples,
            filter_fill_ratio,
            partials,
        } = outcome;

        let after: Vec<LinkStats> = self.links.iter().map(|l| l.stats()).collect();
        let per_link: Vec<LinkStats> = before
            .iter()
            .zip(&after)
            .map(|(b, a)| LinkStats {
                messages_sent: a.messages_sent - b.messages_sent,
                bytes_sent: a.bytes_sent - b.bytes_sent,
                messages_received: a.messages_received - b.messages_received,
                bytes_received: a.bytes_received - b.bytes_received,
            })
            .collect();
        let (messages, bytes) = per_link.iter().fold((0, 0), |(m, b), l| {
            let (lm, lb) = l.total();
            (m + lm, b + lb)
        });
        let mut per_node_quotient = vec![0u64; self.links.len()];
        for p in &partials {
            per_node_quotient[p.holder] += p.reply.tuples.len() as u64;
        }
        let elapsed = start.elapsed();
        let profile = options.profile.then(|| {
            merge_profiles(
                options.strategy,
                self.links.len(),
                &participating,
                filtered_tuples,
                filter_fill_ratio,
                &per_link,
                bytes,
                elapsed,
                &partials,
            )
        });
        Ok(ClusterResponse {
            schema: quotient_schema,
            tuples,
            report: ClusterReport {
                strategy: options.strategy,
                nodes: self.links.len(),
                participating,
                filtered_tuples,
                filter_fill_ratio,
                per_link,
                messages,
                bytes,
                per_node_quotient,
                replica_retries: self.metrics.replica_retries - metrics_before.replica_retries,
                failovers: self.metrics.failovers - metrics_before.failovers,
                elapsed,
                profile,
            },
        })
    }

    /// Reads one node's service counters.
    pub fn node_stats(&mut self, node: usize) -> Result<MetricsSnapshot> {
        let link = self
            .links
            .get_mut(node)
            .ok_or_else(|| ClusterError::BadRequest(format!("no node {node}")))?;
        match link.call(&Request::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(node, &other)),
        }
    }

    /// Probes every node with a heartbeat and folds the answers into the
    /// health state machine: a miss turns the node Suspect (and counts
    /// toward flap exclusion), an answer restores a Suspect node. A link
    /// dirtied by an earlier failure re-dials before the probe
    /// ([`NodeLink::call`] on a dirty link reconnects first), so a node
    /// that died and came back *can* answer and be restored — the probe
    /// is never wedged on the dead socket.
    /// Returns each node's `(epoch, accepting)` or `None` for a miss.
    pub fn heartbeat(&mut self) -> Vec<Option<(u64, bool)>> {
        let limit = self.policy.flap_limit;
        let mut out = Vec::with_capacity(self.links.len());
        for node in 0..self.links.len() {
            match self.links[node].call(&Request::Heartbeat) {
                Ok(Reply::HeartbeatAck { epoch, accepting }) => {
                    self.health[node].record_success();
                    out.push(Some((epoch, accepting)));
                }
                _ => {
                    self.health[node].heartbeats_missed += 1;
                    self.metrics.heartbeats_missed += 1;
                    if self.health[node].record_failure(limit) {
                        self.metrics.nodes_excluded += 1;
                    }
                    out.push(None);
                }
            }
        }
        out
    }

    /// Re-synchronizes a (possibly stale) coordinator with the cluster:
    /// reconnects every link, adopts the highest-epoch membership view
    /// any node reports (rebuilding links if the member set changed),
    /// pushes the adopted view back out, forgets all derived temporaries
    /// and cached replicas, resets node health (excluded nodes get a
    /// fresh start under the new view), and re-derives every fragment's
    /// holders from the adopted placement.
    pub fn refresh(&mut self) -> Result<()> {
        for link in &mut self.links {
            let _ = link.reconnect();
        }
        let mut best: Option<(u64, Vec<String>, u16)> = None;
        for link in &mut self.links {
            if let Ok(Reply::Epoch {
                epoch,
                members,
                replication,
            }) = link.call(&Request::ClusterEpoch(EpochRequest::Get))
            {
                if best.as_ref().is_none_or(|(e, _, _)| epoch > *e) {
                    best = Some((epoch, members, replication));
                }
            }
        }
        if let Some((epoch, members, replication)) = best {
            let current: Vec<String> = self.links.iter().map(|l| l.addr().to_string()).collect();
            if members != current {
                let timeout = self.links[0].read_timeout();
                let links = members
                    .iter()
                    .enumerate()
                    .map(|(node, addr)| NodeLink::connect(node, addr.as_str(), timeout))
                    .collect::<Result<Vec<_>>>()?;
                self.links = links;
            }
            self.epoch = self.epoch.max(epoch);
            self.replication = (replication as usize).clamp(1, self.links.len());
        }
        self.push_epoch();
        self.forget_derived();
        let n = self.links.len();
        let k = self.replication;
        let mut stamp = self.next_stamp;
        for rel in self.catalog.values_mut() {
            stamp += 1;
            rel.stamp = stamp;
            rel.versions = vec![0; n];
            rel.per_node = vec![0; n];
            rel.holders = (0..n).map(|f| catalog::placement(f, n, k)).collect();
        }
        self.next_stamp = stamp;
        self.health = vec![NodeHealth::default(); n];
        Ok(())
    }

    /// Adds the node at `addr` to the cluster: snapshots every base
    /// relation (failover reads), bumps the catalog epoch, pushes the
    /// new membership view to every node (the joiner included), and
    /// re-registers the relations under the widened placement. Returns
    /// the new node's index.
    pub fn join_node(&mut self, addr: impl std::net::ToSocketAddrs) -> Result<usize> {
        let node = self.links.len();
        if node + 1 > MAX_CLUSTER_NODES {
            return Err(ClusterError::BadRequest(format!(
                "cluster is at the {MAX_CLUSTER_NODES}-node protocol limit"
            )));
        }
        let bases = self.snapshot_bases()?;
        let timeout = self.links[0].read_timeout();
        let link = NodeLink::connect(node, addr, timeout)?;
        self.links.push(link);
        self.health.push(NodeHealth::default());
        self.epoch += 1;
        self.push_epoch();
        self.forget_derived();
        self.reregister(bases)?;
        Ok(node)
    }

    /// Removes node `node` from the cluster (dead or alive): snapshots
    /// every base relation first (failover reads survive the node being
    /// gone when `k ≥ 2`), drops its link, renumbers the rest, bumps the
    /// catalog epoch, pushes the shrunk membership view, and
    /// re-registers the relations under the narrowed placement.
    pub fn remove_node(&mut self, node: usize) -> Result<()> {
        if node >= self.links.len() {
            return Err(ClusterError::BadRequest(format!("no node {node}")));
        }
        if self.links.len() == 1 {
            return Err(ClusterError::BadRequest(
                "cannot remove the last node".into(),
            ));
        }
        let bases = self.snapshot_bases()?;
        self.links.remove(node);
        for (index, link) in self.links.iter_mut().enumerate() {
            link.renumber(index);
        }
        self.health = vec![NodeHealth::default(); self.links.len()];
        self.replication = self.replication.min(self.links.len());
        self.epoch += 1;
        self.push_epoch();
        self.forget_derived();
        self.reregister(bases)?;
        Ok(())
    }

    /// Asks every node to shut down gracefully. Node failures are
    /// collected, not short-circuited, so one dead node does not leave
    /// the rest running.
    pub fn shutdown_nodes(&mut self) -> Vec<Result<()>> {
        self.links
            .iter_mut()
            .map(|link| match link.call(&Request::Shutdown) {
                Ok(Reply::ShuttingDown) => Ok(()),
                Ok(other) => Err(unexpected(link.node(), &other)),
                Err(e) => Err(e),
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Membership plumbing

    /// Best-effort epoch adoption at connect time: take the highest
    /// epoch (and its replication factor) any node reports.
    fn adopt_epoch_best_effort(&mut self) {
        let mut best: Option<(u64, u16)> = None;
        for link in &mut self.links {
            if let Ok(Reply::Epoch {
                epoch, replication, ..
            }) = link.call(&Request::ClusterEpoch(EpochRequest::Get))
            {
                if best.is_none_or(|(e, _)| epoch > e) {
                    best = Some((epoch, replication));
                }
            }
        }
        if let Some((epoch, replication)) = best {
            self.epoch = self.epoch.max(epoch);
            self.replication = (replication as usize).clamp(1, self.links.len());
        }
    }

    /// Pushes the coordinator's membership view to every node,
    /// best-effort: a dead node cannot take it (it learns on restart or
    /// removal), and a node holding a *newer* view refuses — which the
    /// next data-plane request surfaces as `StaleEpoch`.
    fn push_epoch(&mut self) {
        let members: Vec<String> = self.links.iter().map(|l| l.addr().to_string()).collect();
        let request = Request::ClusterEpoch(EpochRequest::Set {
            epoch: self.epoch,
            members,
            replication: self.replication as u16,
        });
        for link in &mut self.links {
            let _ = link.call(&request);
        }
    }

    /// Fetches the full contents of every base relation, in sorted name
    /// order, via failover reads.
    #[allow(clippy::type_complexity)]
    fn snapshot_bases(&mut self) -> Result<Vec<(String, Schema, Vec<usize>, Vec<Tuple>)>> {
        let mut names: Vec<String> = self
            .catalog
            .keys()
            .filter(|k| {
                !k.starts_with(catalog::PARTITION_PREFIX)
                    && !k.starts_with(catalog::FULL_COPY_PREFIX)
            })
            .cloned()
            .collect();
        names.sort();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let rel = self.lookup(&name)?.clone();
            let tuples = self.fetch_fragments(&name, &rel)?;
            out.push((name, rel.schema, rel.shard_keys, tuples));
        }
        Ok(out)
    }

    /// Re-registers snapshotted base relations under the current
    /// membership and replication factor.
    fn reregister(&mut self, bases: Vec<(String, Schema, Vec<usize>, Vec<Tuple>)>) -> Result<()> {
        for (name, schema, shard_keys, tuples) in bases {
            let relation = Relation::from_tuples(schema, tuples)
                .map_err(|e| ClusterError::Exec(format!("rebuilding {name:?}: {e}")))?;
            self.register(&name, &relation, &shard_keys)?;
        }
        Ok(())
    }

    /// Forgets every derived temporary and cached replica: after a
    /// membership or epoch change they describe a placement that no
    /// longer exists.
    fn forget_derived(&mut self) {
        self.installed.clear();
        self.catalog
            .retain(|name, _| !name.starts_with(catalog::PARTITION_PREFIX));
    }

    /// Forgets the derived temporaries and cached divisor replicas of
    /// one relation: anything built from a version that is being (or
    /// failed to be) replaced is stale. Every node that installed a
    /// fragment of the new version has dropped its copies by the same
    /// rule ([`is_derived_from`]), so no message is spent on them.
    fn forget_derivations_of(&mut self, name: &str) {
        self.installed.retain(|(_, t)| !is_derived_from(t, name));
        self.catalog.retain(|t, _| !is_derived_from(t, name));
    }

    // -----------------------------------------------------------------
    // Strategy drivers

    fn divide_quotient_partitioned(
        &mut self,
        dividend: &str,
        divisor: &str,
        spec: &DivisionSpec,
        options: &ClusterQueryOptions,
    ) -> Result<StrategyOutcome> {
        // Quotient partitioning is only correct when no quotient value
        // spans nodes: repartition the dividend on the quotient keys
        // unless it is already sharded that way.
        let dividend_rel = self.lookup(dividend)?.clone();
        let local_dividend = if dividend_rel.shard_keys == spec.quotient_keys {
            dividend.to_owned()
        } else {
            self.repartition_to_temp(dividend, &spec.quotient_keys, None, "")?
                .0
        };
        // Replicate the divisor to every node, cached by the catalog
        // stamp. A node that fails the install simply misses the replica
        // — the failover driver skips it as a candidate.
        let divisor_rel = self.lookup(divisor)?.clone();
        let repl = format!(".repl.{divisor}.{}", divisor_rel.stamp);
        let nodes = self.links.len();
        let missing: Vec<usize> = (0..nodes)
            .filter(|&n| !self.installed.contains(&(n, repl.clone())))
            .collect();
        if !missing.is_empty() {
            let fragments = self.fetch_fragments(divisor, &divisor_rel)?;
            let all_cols: Vec<usize> = (0..divisor_rel.schema.arity()).collect();
            // One frame serves every node: the whole divisor as shard 0
            // of 1.
            let whole = WriteKind::Shard(ShardInfo {
                shard: 0,
                of: 1,
                shard_keys: all_cols,
            });
            let (schema, epoch) = (&divisor_rel.schema, Some(self.epoch));
            let payload =
                encode_write(&repl, &whole, schema, &fragments, epoch).map_err(encoding)?;
            let items: Vec<WriteItem> = missing
                .iter()
                .map(|&node| WriteItem {
                    fragment: node,
                    node,
                    payload: payload.clone(),
                })
                .collect();
            for (_, node, result) in self.fan_out_writes(items) {
                match result {
                    Ok(Reply::Sharded { .. }) => {
                        self.installed.insert((node, repl.clone()));
                    }
                    Ok(other) => return Err(unexpected(node, &other)),
                    Err(e) => {
                        if e.is_stale_epoch() {
                            return Err(e);
                        }
                    }
                }
            }
        }
        // One independent local division per fragment; quotients
        // concatenate.
        let participating: Vec<usize> = (0..nodes).collect();
        let partials = self.divide_partial(
            &participating,
            &local_dividend,
            &repl,
            spec,
            options.profile,
        )?;
        let mut tuples = Vec::new();
        for p in &partials {
            tuples.extend(p.reply.tuples.iter().cloned());
        }
        Ok(StrategyOutcome {
            tuples,
            participating,
            filtered_tuples: 0,
            filter_fill_ratio: None,
            partials,
        })
    }

    fn divide_divisor_partitioned(
        &mut self,
        dividend: &str,
        divisor: &str,
        spec: &DivisionSpec,
        options: &ClusterQueryOptions,
    ) -> Result<StrategyOutcome> {
        let divisor_rel = self.lookup(divisor)?.clone();
        let empty_divisor = divisor_rel.cardinality == 0;
        let nodes = self.links.len();
        // Build and merge the per-fragment bit-vector filters. An empty
        // divisor makes the division vacuous (every quotient value
        // qualifies), so filtering would wrongly drop everything.
        let filter = match options.bit_vector_bits {
            Some(bits) if !empty_divisor => {
                Some(self.merged_filter(divisor, &divisor_rel, bits)?)
            }
            _ => None,
        };
        let filter_fill_ratio = filter.as_ref().map(|f| f.fill_ratio());
        // Repartition the divisor on all its columns; the owner of bucket
        // j is node j.
        let all_cols: Vec<usize> = (0..divisor_rel.schema.arity()).collect();
        let (divisor_parts, _) = self.repartition_to_temp(divisor, &all_cols, None, "")?;
        let divisor_per_node = self.lookup(&divisor_parts)?.per_node.clone();
        let participating: Vec<usize> = if empty_divisor {
            (0..nodes).collect()
        } else {
            (0..nodes).filter(|&n| divisor_per_node[n] > 0).collect()
        };
        // Repartition the dividend on the divisor attributes, filter
        // applied at the sending sites. Tuples routed to a node with no
        // divisor cluster cannot influence the quotient and are dropped
        // at the coordinator switch (counted, never shipped onward).
        // A filtered temp's contents depend on the divisor that built the
        // filter, so its cache identity must carry that divisor's name
        // and stamp — otherwise dividing the same dividend by a different
        // divisor would reuse tuples pruned against the wrong one.
        let filter_tag = if filter.is_some() {
            format!(".{divisor}.{}", divisor_rel.stamp)
        } else {
            String::new()
        };
        let (dividend_parts, filtered_tuples) = self.repartition_to_temp_participating(
            dividend,
            spec,
            filter,
            &filter_tag,
            &participating,
        )?;
        let partials = self.divide_partial(
            &participating,
            &dividend_parts,
            &divisor_parts,
            spec,
            options.profile,
        )?;
        // The collection-phase division, shared verbatim with the thread
        // machine: a quotient value survives only if every participating
        // fragment reported it.
        let quotient_schema = spec
            .quotient_schema(&self.lookup(dividend)?.schema)
            .map_err(|e| ClusterError::BadRequest(e.to_string()))?;
        let mut site = CollectionSite::new(&quotient_schema, &participating, empty_divisor)
            .map_err(|e| ClusterError::Exec(e.to_string()))?;
        for p in &partials {
            for t in p.reply.tuples.iter() {
                site.absorb(p.fragment, t)
                    .map_err(|e| ClusterError::Exec(e.to_string()))?;
            }
        }
        Ok(StrategyOutcome {
            tuples: site.finish(),
            participating,
            filtered_tuples,
            filter_fill_ratio,
            partials,
        })
    }

    // -----------------------------------------------------------------
    // Wire phases

    /// Runs one request per fragment through the failover driver: one
    /// scoped thread per fragment, candidates tried primary-first with
    /// reconnects and jittered backoff between same-node attempts.
    /// Health observations and retry counters are collected per fragment
    /// and folded in after the scope ends. Any fragment exhausting its
    /// candidates fails the phase — a missing fragment would silently
    /// corrupt the quotient — with `StaleEpoch` preferred over transport
    /// errors so a stale coordinator knows to refresh.
    fn call_fragments(&mut self, tasks: Vec<FragmentTask>) -> Result<Vec<FragmentReply>> {
        let policy = self.policy;
        let base_rng = self.rng;
        self.rng = splitmix64(self.rng);
        let health_view: Vec<NodeHealth> = self.health.clone();
        let outcomes: Vec<(Result<FragmentReply>, FragmentEvents)> = {
            let links: Vec<Mutex<&mut NodeLink>> = self.links.iter_mut().map(Mutex::new).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = tasks
                    .into_iter()
                    .map(|task| {
                        let links = &links;
                        let health_view = &health_view;
                        s.spawn(move || {
                            let rng = splitmix64(base_rng ^ (task.fragment as u64 + 1));
                            run_fragment(&task, links, health_view, policy, rng)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            (
                                Err(ClusterError::Exec("fragment thread panicked".into())),
                                FragmentEvents::default(),
                            )
                        })
                    })
                    .collect()
            })
        };
        let mut replies = Vec::new();
        let mut stale: Option<ClusterError> = None;
        let mut first_err: Option<ClusterError> = None;
        for (result, events) in outcomes {
            self.apply_events(events);
            match result {
                Ok(r) => replies.push(r),
                Err(e) => {
                    if e.is_stale_epoch() {
                        stale.get_or_insert(e);
                    } else {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        if let Some(e) = stale {
            return Err(e);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        replies.sort_by_key(|r| r.fragment);
        Ok(replies)
    }

    /// Folds one fragment's health observations and retry counters into
    /// the coordinator state.
    fn apply_events(&mut self, events: FragmentEvents) {
        self.metrics.replica_retries += events.replica_retries;
        self.metrics.failovers += events.failovers;
        let limit = self.policy.flap_limit;
        for (node, ok) in events.node_events {
            if ok {
                self.health[node].record_success();
            } else if self.health[node].record_failure(limit) {
                self.metrics.nodes_excluded += 1;
            }
        }
    }

    /// Runs a batch of writes: one scoped thread per node executes that
    /// node's list sequentially on its own link (no locking — each link
    /// has exactly one writer). Returns every `(fragment, node, result)`
    /// and folds transport failures into node health; acknowledgment
    /// accounting is the caller's.
    fn fan_out_writes(&mut self, items: Vec<WriteItem>) -> Vec<(usize, usize, Result<Reply>)> {
        let n = self.links.len();
        let mut per_node: Vec<Vec<(usize, Vec<u8>)>> = (0..n).map(|_| Vec::new()).collect();
        for item in items {
            per_node[item.node].push((item.fragment, item.payload));
        }
        let results: Vec<Vec<(usize, usize, Result<Reply>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .links
                .iter_mut()
                .zip(per_node)
                .enumerate()
                .filter_map(|(node, (link, list))| {
                    if list.is_empty() {
                        None
                    } else {
                        Some(s.spawn(move || {
                            list.into_iter()
                                .map(|(fragment, payload)| {
                                    (fragment, node, link.call_encoded(&payload))
                                })
                                .collect::<Vec<_>>()
                        }))
                    }
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let flat: Vec<(usize, usize, Result<Reply>)> = results.into_iter().flatten().collect();
        let limit = self.policy.flap_limit;
        for (_, node, result) in &flat {
            match result {
                Ok(_) => self.health[*node].record_success(),
                Err(ClusterError::NodeFailed { .. }) => {
                    if self.health[*node].record_failure(limit) {
                        self.metrics.nodes_excluded += 1;
                    }
                }
                Err(_) => {}
            }
        }
        flat
    }

    /// Settles a replicated write fan-out: every fragment must collect
    /// at least one acknowledgment (else the fragment is lost and the
    /// write fails, `StaleEpoch` preferred). Returns each fragment's
    /// acknowledging holders in placement order (primary first) and the
    /// per-node catalog versions; a failure reports whether any node
    /// acked, so the caller knows if the cluster is in a mixed state.
    fn settle_writes(
        &mut self,
        items: Vec<WriteItem>,
        fragments: usize,
        k: usize,
    ) -> std::result::Result<(Vec<Vec<usize>>, Vec<u64>), WriteFailure> {
        let n = self.links.len();
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); fragments];
        let mut versions = vec![0u64; n];
        let mut stale: Option<ClusterError> = None;
        let mut frag_err: Vec<Option<ClusterError>> = (0..fragments).map(|_| None).collect();
        let mut any_acks = false;
        for (fragment, node, result) in self.fan_out_writes(items) {
            match result {
                Ok(Reply::Sharded { version }) | Ok(Reply::ReplicaAck { version, .. }) => {
                    any_acks = true;
                    holders[fragment].push(node);
                    versions[node] = version;
                }
                Ok(other) => {
                    frag_err[fragment].get_or_insert(unexpected(node, &other));
                }
                Err(e) => {
                    if e.is_stale_epoch() && stale.is_none() {
                        stale = Some(e.clone());
                    }
                    frag_err[fragment].get_or_insert(e);
                }
            }
        }
        if let Some(error) = stale {
            return Err(WriteFailure { error, any_acks });
        }
        for (fragment, holder_set) in holders.iter_mut().enumerate() {
            if holder_set.is_empty() && frag_err[fragment].is_some() {
                let error = frag_err[fragment].take().expect("checked above");
                return Err(WriteFailure { error, any_acks });
            }
            let order = catalog::placement(fragment, n, k);
            holder_set
                .sort_by_key(|node| order.iter().position(|x| x == node).unwrap_or(usize::MAX));
        }
        Ok((holders, versions))
    }

    fn lookup(&self, name: &str) -> Result<&ShardedRelation> {
        self.catalog
            .get(name)
            .ok_or_else(|| ClusterError::BadRequest(format!("unknown relation {name:?}")))
    }

    /// Fetches every fragment of `name` (a one-bucket repartition per
    /// fragment, served by any holder) and concatenates them in fragment
    /// order.
    fn fetch_fragments(&mut self, name: &str, rel: &ShardedRelation) -> Result<Vec<Tuple>> {
        let epoch = self.epoch;
        let tasks: Vec<FragmentTask> = (0..rel.holders.len())
            .map(|fragment| {
                let name = name.to_owned();
                let keys = rel.shard_keys.clone();
                FragmentTask {
                    fragment,
                    holders: rel.holders[fragment].clone(),
                    build: Box::new(move |node| {
                        Request::Repartition(RepartitionRequest {
                            name: catalog::name_on(node, fragment, &name),
                            keys: keys.clone(),
                            parts: 1,
                            filter: None,
                            epoch: Some(epoch),
                        })
                    }),
                }
            })
            .collect();
        let mut out = Vec::new();
        for r in self.call_fragments(tasks)? {
            match r.reply {
                Reply::Repartitioned { mut buckets, .. } => {
                    out.append(&mut buckets.remove(0));
                }
                other => return Err(unexpected(r.holder, &other)),
            }
        }
        Ok(out)
    }

    /// Builds a filter over each fragment of `name` (served by any
    /// holder) and ORs the fragments' filters together.
    fn merged_filter(
        &mut self,
        name: &str,
        rel: &ShardedRelation,
        bits: usize,
    ) -> Result<BitVectorFilter> {
        let epoch = self.epoch;
        let keys: Vec<usize> = (0..rel.schema.arity()).collect();
        let tasks: Vec<FragmentTask> = (0..rel.holders.len())
            .map(|fragment| {
                let name = name.to_owned();
                let keys = keys.clone();
                FragmentTask {
                    fragment,
                    holders: rel.holders[fragment].clone(),
                    build: Box::new(move |node| Request::BuildFilter {
                        name: catalog::name_on(node, fragment, &name),
                        keys: keys.clone(),
                        bits: bits as u32,
                        epoch: Some(epoch),
                    }),
                }
            })
            .collect();
        let mut merged: Option<BitVectorFilter> = None;
        for r in self.call_fragments(tasks)? {
            match r.reply {
                Reply::Filter { filter, .. } => match &mut merged {
                    None => merged = Some(filter),
                    Some(m) => {
                        if !m.union(&filter) {
                            return Err(ClusterError::NodeFailed {
                                node: r.holder,
                                kind: FailureKind::Other,
                                detail: format!(
                                    "filter geometry mismatch: {} vs {} bits",
                                    m.bits(),
                                    filter.bits()
                                ),
                            });
                        }
                    }
                },
                other => return Err(unexpected(r.holder, &other)),
            }
        }
        merged.ok_or_else(|| ClusterError::BadRequest("cluster has no nodes".into()))
    }

    /// Repartitions `name` on `keys` across all nodes into a temp
    /// relation; returns `(temp name, tuples filtered at the senders)`.
    /// Cached by the source relation's stamp: if every participating
    /// fragment of the temp still has a holder, nothing crosses the
    /// network.
    fn repartition_to_temp(
        &mut self,
        name: &str,
        keys: &[usize],
        filter: Option<BitVectorFilter>,
        filter_tag: &str,
    ) -> Result<(String, u64)> {
        let participating: Vec<usize> = (0..self.links.len()).collect();
        self.repartition_keys_to(name, keys, filter, filter_tag, &participating)
    }

    /// Like [`Self::repartition_to_temp`] but on the division spec's
    /// divisor keys and shipping only to `participating` nodes; buckets
    /// owned by non-participating nodes are dropped and counted.
    fn repartition_to_temp_participating(
        &mut self,
        name: &str,
        spec: &DivisionSpec,
        filter: Option<BitVectorFilter>,
        filter_tag: &str,
        participating: &[usize],
    ) -> Result<(String, u64)> {
        self.repartition_keys_to(name, &spec.divisor_keys, filter, filter_tag, participating)
    }

    fn repartition_keys_to(
        &mut self,
        name: &str,
        keys: &[usize],
        filter: Option<BitVectorFilter>,
        filter_tag: &str,
        participating: &[usize],
    ) -> Result<(String, u64)> {
        let rel = self.lookup(name)?.clone();
        let nodes = self.links.len();
        let k = self.replication;
        let epoch = self.epoch;
        let fbits = filter.as_ref().map_or(0, |f| f.bits());
        let key_tag: String = keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join("_");
        // `filter_tag` names the divisor (and its stamp) whose filter
        // pruned the tuples; unfiltered temps carry no tag.
        let temp = format!(
            ".part.{name}.{}.{nodes}.{key_tag}.{fbits}{filter_tag}",
            rel.stamp
        );
        if let Some(existing) = self.catalog.get(&temp) {
            if participating
                .iter()
                .all(|&f| !existing.holders[f].is_empty())
            {
                // The cached temp was built by dropping tuples at the
                // senders; a query served from it excludes them just the
                // same, so report the build-time count, not zero.
                return Ok((temp, existing.filtered_at_build));
            }
        }
        // Phase 1: each fragment is bucketed by one of its holders
        // (filter applied at the sender).
        let tasks: Vec<FragmentTask> = (0..rel.holders.len())
            .map(|fragment| {
                let name = name.to_owned();
                let keys = keys.to_vec();
                let filter = filter.clone();
                FragmentTask {
                    fragment,
                    holders: rel.holders[fragment].clone(),
                    build: Box::new(move |node| {
                        Request::Repartition(RepartitionRequest {
                            name: catalog::name_on(node, fragment, &name),
                            keys: keys.clone(),
                            parts: nodes as u16,
                            filter: filter.clone(),
                            epoch: Some(epoch),
                        })
                    }),
                }
            })
            .collect();
        let mut dest: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
        let mut filtered = 0u64;
        for r in self.call_fragments(tasks)? {
            match r.reply {
                Reply::Repartitioned {
                    buckets,
                    filtered: f,
                    ..
                } => {
                    if buckets.len() != nodes {
                        return Err(ClusterError::NodeFailed {
                            node: r.holder,
                            kind: FailureKind::Other,
                            detail: format!("{} buckets for {nodes} nodes", buckets.len()),
                        });
                    }
                    filtered += f;
                    for (j, mut bucket) in buckets.into_iter().enumerate() {
                        dest[j].append(&mut bucket);
                    }
                }
                other => return Err(unexpected(r.holder, &other)),
            }
        }
        // Phase 2: switch each aggregated bucket to its owner node plus
        // that fragment's replicas. Buckets owned by non-participating
        // nodes are dropped here — their divisor cluster is empty, so
        // their tuples cannot appear in the quotient.
        let is_participating: Vec<bool> = {
            let mut v = vec![false; nodes];
            for &p in participating {
                v[p] = true;
            }
            v
        };
        let mut items = Vec::new();
        let mut per_node = vec![0usize; nodes];
        for (j, bucket) in dest.into_iter().enumerate() {
            if !is_participating[j] {
                filtered += bucket.len() as u64;
                continue;
            }
            per_node[j] = bucket.len();
            let at = ShardInfo {
                shard: j as u16,
                of: nodes as u16,
                shard_keys: keys.to_vec(),
            };
            let holders = catalog::placement(j, nodes, k);
            items.extend(WriteItem::for_fragment(
                &temp,
                at,
                &holders,
                &rel.schema,
                epoch,
                &bucket,
            )?);
        }
        // A partial failure needs no catalog cleanup here: the temp is
        // only recorded on success, and a retry rewrites every fragment
        // under the same name.
        let (mut holders, versions) = self.settle_writes(items, nodes, k).map_err(|f| f.error)?;
        // A fragment that got no write at all (non-participating) keeps
        // an empty holder list — it never serves requests.
        for (j, h) in holders.iter_mut().enumerate() {
            if !is_participating[j] {
                h.clear();
            }
        }
        // Record the temp in the coordinator catalog so later phases can
        // resolve its schema, holders, and per-node occupancy (the
        // participation decision for divisor partitioning reads it).
        self.next_stamp += 1;
        self.catalog.insert(
            temp.clone(),
            ShardedRelation {
                schema: rel.schema.clone(),
                shard_keys: keys.to_vec(),
                versions,
                cardinality: per_node.iter().sum(),
                per_node,
                stamp: self.next_stamp,
                holders,
                filtered_at_build: filtered,
            },
        );
        Ok((temp, filtered))
    }

    /// Runs `DividePartial` for each participating fragment through the
    /// failover driver, with dense tags in participation order, and
    /// verifies the echo. A fragment's candidates are the dividend
    /// holders that also hold the divisor (all install sites for a
    /// `.repl.` full copy; the divisor temp's holders otherwise).
    fn divide_partial(
        &mut self,
        participating: &[usize],
        dividend: &str,
        divisor: &str,
        spec: &DivisionSpec,
        profile: bool,
    ) -> Result<Vec<Partial>> {
        let dividend_rel = self.lookup(dividend)?.clone();
        let full_copy = divisor.starts_with(catalog::FULL_COPY_PREFIX);
        let divisor_holders = if full_copy {
            None
        } else {
            Some(self.lookup(divisor)?.holders.clone())
        };
        let epoch = self.epoch;
        let mut tag_of: HashMap<usize, u16> = HashMap::new();
        let mut tasks = Vec::with_capacity(participating.len());
        for (tag, &fragment) in participating.iter().enumerate() {
            let tag = tag as u16;
            tag_of.insert(fragment, tag);
            let mut holders: Vec<usize> = dividend_rel.holders[fragment].clone();
            if full_copy {
                holders.retain(|&c| self.installed.contains(&(c, divisor.to_owned())));
            } else if let Some(dh) = &divisor_holders {
                holders.retain(|&c| dh[fragment].contains(&c));
            }
            if holders.is_empty() {
                return Err(ClusterError::Exec(format!(
                    "fragment {fragment}: no live node holds both operands"
                )));
            }
            let dividend = dividend.to_owned();
            let divisor = divisor.to_owned();
            let dk = spec.divisor_keys.clone();
            let qk = spec.quotient_keys.clone();
            tasks.push(FragmentTask {
                fragment,
                holders,
                build: Box::new(move |node| Request::DividePartial {
                    tag,
                    query: DivideRequest {
                        dividend: catalog::name_on(node, fragment, &dividend),
                        divisor: catalog::name_on(node, fragment, &divisor),
                        algorithm: Some(Algorithm::HashDivision {
                            mode: HashDivisionMode::Standard,
                        }),
                        assume_unique: false,
                        spec: Some((dk.clone(), qk.clone())),
                        deadline_ms: None,
                        profile,
                        distribute: None,
                        restricted: None,
                        mem_budget: None,
                    },
                    epoch: Some(epoch),
                }),
            });
        }
        let mut partials = Vec::with_capacity(participating.len());
        for r in self.call_fragments(tasks)? {
            match r.reply {
                Reply::PartialQuotient(reply) => {
                    let want = tag_of[&r.fragment];
                    if reply.tag != want {
                        return Err(ClusterError::NodeFailed {
                            node: r.holder,
                            kind: FailureKind::Other,
                            detail: format!("tag mismatch: sent {want} got {}", reply.tag),
                        });
                    }
                    partials.push(Partial {
                        fragment: r.fragment,
                        holder: r.holder,
                        reply,
                    });
                }
                other => return Err(unexpected(r.holder, &other)),
            }
        }
        Ok(partials)
    }
}

/// Tries a fragment's candidates in order: per candidate, up to
/// `policy.node_attempts` calls with a reconnect and jittered backoff
/// between them. A typed node refusal moves straight to the next
/// candidate (the node is alive — retrying the same request cannot
/// help); `StaleEpoch` is remembered and preferred when everything is
/// exhausted.
fn run_fragment(
    task: &FragmentTask,
    links: &[Mutex<&mut NodeLink>],
    health: &[NodeHealth],
    policy: RetryPolicy,
    mut rng: u64,
) -> (Result<FragmentReply>, FragmentEvents) {
    let mut events = FragmentEvents::default();
    let mut candidates: Vec<usize> = task
        .holders
        .iter()
        .copied()
        .filter(|&h| health[h].candidate())
        .collect();
    if candidates.is_empty() {
        // Every holder is excluded; trying them anyway beats failing
        // without a single attempt.
        candidates = task.holders.clone();
    }
    let mut stale: Option<ClusterError> = None;
    let mut last: Option<ClusterError> = None;
    for (rank, &holder) in candidates.iter().enumerate() {
        if rank > 0 {
            events.failovers += 1;
        }
        'attempts: for attempt in 1..=policy.node_attempts.max(1) {
            if attempt > 1 {
                events.replica_retries += 1;
                std::thread::sleep(policy.delay(attempt - 1, &mut rng));
                let reconnected = lock(&links[holder]).reconnect();
                if let Err(e) = reconnected {
                    events.node_events.push((holder, false));
                    last = Some(e);
                    break 'attempts;
                }
            }
            let request = (task.build)(holder);
            let outcome = lock(&links[holder]).call(&request);
            match outcome {
                Ok(reply) => {
                    events.node_events.push((holder, true));
                    return (
                        Ok(FragmentReply {
                            fragment: task.fragment,
                            holder,
                            reply,
                        }),
                        events,
                    );
                }
                Err(e @ ClusterError::NodeFailed { .. }) => {
                    events.node_events.push((holder, false));
                    last = Some(e);
                }
                Err(e) => {
                    if e.is_stale_epoch() && stale.is_none() {
                        stale = Some(e.clone());
                    }
                    last = Some(e);
                    break 'attempts;
                }
            }
        }
    }
    let err = stale.or(last).unwrap_or_else(|| {
        ClusterError::Exec(format!("fragment {} has no holders", task.fragment))
    });
    (Err(err), events)
}

/// Locks a mutex, surviving poisoning (a panicked sibling thread must
/// not wedge the whole phase).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Partial {
    fragment: usize,
    holder: usize,
    reply: PartialQuotientReply,
}

struct StrategyOutcome {
    tuples: Vec<Tuple>,
    participating: Vec<usize>,
    filtered_tuples: u64,
    filter_fill_ratio: Option<f64>,
    partials: Vec<Partial>,
}

fn unexpected(node: usize, reply: &Reply) -> ClusterError {
    ClusterError::NodeFailed {
        node,
        kind: FailureKind::Other,
        detail: format!("unexpected reply {reply:?}"),
    }
}

/// Folds a cluster run into one `EXPLAIN ANALYZE` tree: a network root
/// carrying the query's total wire traffic, one child span per
/// participating fragment carrying its serving node's link traffic and
/// local measurements, with the node's own span tree grafted beneath it.
#[allow(clippy::too_many_arguments)]
fn merge_profiles(
    strategy: Strategy,
    nodes: usize,
    participating: &[usize],
    filtered_tuples: u64,
    filter_fill_ratio: Option<f64>,
    per_link: &[LinkStats],
    bytes: u64,
    elapsed: Duration,
    partials: &[Partial],
) -> QueryProfile {
    let children = partials
        .iter()
        .map(|p| {
            let link = per_link.get(p.holder).copied().unwrap_or_default();
            ProfileNode {
                label: format!("node {}", p.holder),
                kind: SpanKind::Node,
                wall_micros: p.reply.micros,
                tuples_in: 0,
                tuples_out: p.reply.tuples.len() as u64,
                ops: p.reply.ops,
                pages_read: 0,
                pages_written: 0,
                spill_bytes: 0,
                network_bytes: link.total().1,
                phases: Vec::new(),
                children: p
                    .reply
                    .profile
                    .clone()
                    .map(|q| q.root)
                    .into_iter()
                    .collect(),
            }
        })
        .collect();
    let mut phases = vec![
        format!("{strategy:?} over TCP"),
        format!("{} of {nodes} nodes participating", participating.len()),
    ];
    if let Some(fill) = filter_fill_ratio {
        phases.push(format!(
            "bit-vector filter dropped {filtered_tuples} tuples (fill {fill:.2})"
        ));
    } else if filtered_tuples > 0 {
        phases.push(format!("{filtered_tuples} tuples dropped at the switch"));
    }
    QueryProfile {
        root: ProfileNode {
            label: format!("cluster division ({nodes} nodes)"),
            kind: SpanKind::Network,
            wall_micros: elapsed.as_micros() as u64,
            tuples_in: 0,
            tuples_out: partials.iter().map(|p| p.reply.tuples.len() as u64).sum(),
            ops: partials
                .iter()
                .fold(reldiv_rel::counters::OpSnapshot::default(), |acc, p| {
                    acc.merge(&p.reply.ops)
                }),
            pages_read: 0,
            pages_written: 0,
            spill_bytes: 0,
            network_bytes: bytes,
            phases,
            children,
        },
    }
}
