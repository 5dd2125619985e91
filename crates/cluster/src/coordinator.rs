//! The coordinator: a replicated sharded catalog plus the two Section 6
//! strategies executed over real TCP links, with mid-query failover.
//!
//! The strategies are not written here: [`Coordinator::divide`] runs the
//! one phase driver ([`reldiv_parallel::strategy::Driver`]) that the
//! thread machine runs too, over the coordinator's node links as its
//! [`Transport`]. This module moves rows — repartitions, replicas,
//! filters, partial divisions — and every such send goes through the
//! failover driver below.
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
//! ## The driver's phases on the wire
//!
//! * **Placing rows on keys** repartitions a relation *where it lives*:
//!   each fragment is bucketed by one of its holders
//!   ([`Request::Repartition`], the filter riding inside), and only the
//!   buckets cross the network, coordinator-switched to their owner nodes
//!   (buckets owned by non-participating nodes are dropped at the switch).
//!   The result is a version-stamped temporary, so a re-run against
//!   unchanged inputs moves nothing.
//! * **Placing rows everywhere** fetches every fragment and installs the
//!   whole relation on every node under a version-stamped replica name,
//!   skipped on nodes that already hold it.
//! * **Building a filter** asks each fragment's holder for a filter over
//!   the fragment ([`Request::BuildFilter`]): bits cross the network; the
//!   tuples they exclude never do.
//! * **Dividing a fragment** is a tagged [`Request::DividePartial`] to a
//!   node holding both operands; its quotient cluster comes back as
//!   columns.
//!
//! [`Health::Excluded`]: crate::health::Health::Excluded

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{Algorithm, DivisionSpec, QueryProfile};
use reldiv_parallel::filter::BitVectorFilter;
use reldiv_parallel::strategy::{Driver, Partial, Placed, Route, Transport};
use reldiv_parallel::{route, Strategy};
use reldiv_rel::{Batch, Columns, Relation, Schema, Tuple};
use reldiv_service::proto::{
    encode_write, is_derived_from, DivideRequest, EpochRequest, RepartitionRequest, Reply, Request,
    Rows, WriteKind, MAX_CLUSTER_NODES,
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
    fn new(links: Vec<NodeLink>) -> Result<Coordinator> {
        let n = links.len();
        if n == 0 {
            return Err(ClusterError::BadRequest(
                "cluster needs at least one node".into(),
            ));
        }
        let policy = RetryPolicy::default();
        Ok(Coordinator {
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
        })
    }

    /// Connects to the nodes at `addrs` (node index = position) and
    /// adopts the highest catalog epoch any node reports, so a
    /// coordinator joining an established cluster starts current.
    pub fn connect(
        addrs: &[std::net::SocketAddr],
        read_timeout: Option<Duration>,
    ) -> Result<Coordinator> {
        let mut links = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            links.push(NodeLink::connect(node, addr, read_timeout)?);
        }
        let mut coordinator = Coordinator::new(links)?;
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
        Coordinator::new(links)
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
        let mut shards: Vec<Vec<&Tuple>> = vec![Vec::new(); n];
        for tuple in relation.tuples() {
            shards[route(tuple, shard_keys, n)].push(tuple);
        }
        let shards: Vec<_> = shards.into_iter().map(Some).collect();
        let schema = relation.schema();
        if let Err(WriteFailure { error, any_acks }) =
            self.install(name, schema, shard_keys, &shards, 0)
        {
            // Nodes that did ack have already replaced their copy with
            // the new version while others kept the old one; the existing
            // catalog entry then describes no consistent placement. Drop
            // it (and everything derived from it) so the next query fails
            // fast with an unknown relation instead of silently mixing
            // versions. With zero acks (every node refused — e.g. a
            // StaleEpoch rejection of the whole fan-out) nothing was
            // installed and the old entry is still good.
            if any_acks {
                self.catalog.remove(name);
                self.forget_derivations_of(name);
            }
            return Err(error);
        }
        // Anything derived from the old version is stale.
        self.forget_derivations_of(name);
        Ok(())
    }

    /// Writes each `Some` fragment of `name` to its primary plus `k − 1`
    /// replicas and, once every written fragment has an acknowledgment,
    /// records the relation in the catalog: the acknowledging nodes
    /// become the fragment's failover candidates. A `None` fragment gets
    /// no write and no holder. `filtered` is what the senders dropped.
    fn install<R: Rows>(
        &mut self,
        name: &str,
        schema: &Schema,
        keys: &[usize],
        fragments: &[Option<R>],
        filtered: u64,
    ) -> std::result::Result<(), WriteFailure> {
        let (n, k) = (self.links.len(), self.replication);
        let mut items = Vec::with_capacity(n * k);
        for (j, rows) in fragments.iter().enumerate() {
            let Some(rows) = rows else { continue };
            let at = ShardInfo {
                shard: j as u16,
                of: n as u16,
                shard_keys: keys.to_vec(),
            };
            // A `Shard` frame for the fragment's own node, a
            // `ReplicaWrite` frame for every other holder.
            for node in catalog::placement(j, n, k) {
                let kind = match node == j {
                    true => WriteKind::Shard(at.clone()),
                    false => WriteKind::Replica(at.clone()),
                };
                let payload = encode_write(name, &kind, schema, rows, Some(self.epoch));
                let payload = payload.map_err(|e| WriteFailure {
                    error: encoding(e),
                    any_acks: false,
                })?;
                items.push(WriteItem {
                    fragment: j,
                    node,
                    payload,
                });
            }
        }
        let (mut holders, versions) = self.settle_writes(items, n, k)?;
        for (h, rows) in holders.iter_mut().zip(fragments) {
            if rows.is_none() {
                h.clear();
            }
        }
        let per_node: Vec<usize> = (fragments.iter())
            .map(|rows| rows.as_ref().map_or(0, Rows::count))
            .collect();
        self.next_stamp += 1;
        let relation = ShardedRelation {
            schema: schema.clone(),
            shard_keys: keys.to_vec(),
            versions,
            cardinality: per_node.iter().sum(),
            per_node,
            stamp: self.next_stamp,
            holders,
            filtered_at_build: filtered,
        };
        self.catalog.insert(name.to_owned(), relation);
        Ok(())
    }

    /// Runs `dividend ÷ divisor` across the cluster: the Section 6
    /// driver over the coordinator's links.
    pub fn divide(
        &mut self,
        dividend: &str,
        divisor: &str,
        options: &ClusterQueryOptions,
    ) -> Result<ClusterResponse> {
        let start = Instant::now();
        let before = self.link_stats();
        let metrics_before = self.metrics;
        let dividend_schema = self.lookup(dividend)?.schema.clone();
        let divisor_schema = &self.lookup(divisor)?.schema;
        let bad = |e: reldiv_core::ExecError| ClusterError::BadRequest(e.to_string());
        let spec = match &options.spec {
            Some((dk, qk)) => {
                DivisionSpec::new(&dividend_schema, divisor_schema, dk.clone(), qk.clone())
            }
            None => DivisionSpec::trailing_divisor(&dividend_schema, divisor_schema),
        }
        .map_err(bad)?;
        let quotient_schema = spec.quotient_schema(&dividend_schema).map_err(bad)?;
        let driver = Driver {
            strategy: options.strategy,
            bit_vector_bits: options.bit_vector_bits,
            collection_sites: 1,
        };
        let (dividend, divisor) = (dividend.to_owned(), divisor.to_owned());
        let mut links = Links {
            coordinator: self,
            profile: options.profile,
        };
        let mut run = driver.run(&mut links, &dividend, &divisor, &spec, &quotient_schema)?;

        let after = self.link_stats().into_iter();
        let per_link: Vec<LinkStats> = after.zip(&before).map(|(a, b)| a.since(b)).collect();
        let (messages, bytes) = per_link.iter().fold((0, 0), |(m, b), l| {
            let (lm, lb) = l.total();
            (m + lm, b + lb)
        });
        let mut per_node_quotient = vec![0u64; self.links.len()];
        for p in &mut run.partials {
            per_node_quotient[p.node] += p.rows.cardinality() as u64;
            p.network_bytes = per_link[p.node].total().1;
        }
        let elapsed = start.elapsed();
        let profile = options
            .profile
            .then(|| run.profile("cluster", bytes, elapsed));
        Ok(ClusterResponse {
            schema: quotient_schema,
            tuples: run.quotient.tuples().collect(),
            report: ClusterReport {
                strategy: options.strategy,
                nodes: self.links.len(),
                participating: run.participating,
                filtered_tuples: run.filtered_tuples,
                filter_fill_ratio: run.filter_fill_ratio,
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
        let mut out = Vec::with_capacity(self.links.len());
        for node in 0..self.links.len() {
            match self.links[node].call(&Request::Heartbeat) {
                Ok(Reply::HeartbeatAck { epoch, accepting }) => {
                    self.observe(node, true);
                    out.push(Some((epoch, accepting)));
                }
                _ => {
                    self.health[node].heartbeats_missed += 1;
                    self.metrics.heartbeats_missed += 1;
                    self.observe(node, false);
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
        if let Some((epoch, members, replication)) = self.best_view() {
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
        self.reregister(bases)
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
        if let Some((epoch, _, replication)) = self.best_view() {
            self.epoch = self.epoch.max(epoch);
            self.replication = (replication as usize).clamp(1, self.links.len());
        }
    }

    /// The highest-epoch membership view any node reports:
    /// `(epoch, members, replication)`.
    fn best_view(&mut self) -> Option<(u64, Vec<String>, u16)> {
        let mut best: Option<(u64, Vec<String>, u16)> = None;
        for link in &mut self.links {
            let view = link.call(&Request::ClusterEpoch(EpochRequest::Get));
            if let Ok(Reply::Epoch {
                epoch,
                members,
                replication,
            }) = view
            {
                if best.as_ref().is_none_or(|(e, _, _)| epoch > *e) {
                    best = Some((epoch, members, replication));
                }
            }
        }
        best
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
    fn snapshot_bases(&mut self) -> Result<Vec<(String, Vec<usize>, Columns)>> {
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
            let rows = self.fetch_fragments(&name, &rel)?;
            out.push((name, rel.shard_keys, rows));
        }
        Ok(out)
    }

    /// Installs a changed membership: bumps the catalog epoch, pushes the
    /// view, forgets every derived temporary, and re-registers the
    /// snapshotted base relations under the new placement.
    fn reregister(&mut self, bases: Vec<(String, Vec<usize>, Columns)>) -> Result<()> {
        self.epoch += 1;
        self.push_epoch();
        self.forget_derived();
        for (name, shard_keys, rows) in bases {
            let relation = Relation::from_tuples(rows.schema().clone(), rows.tuples().collect())
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
        for (node, ok) in events.node_events {
            self.observe(node, ok);
        }
    }

    /// Folds one call outcome into node `node`'s health, counting the
    /// node's exclusion once when this failure excludes it.
    fn observe(&mut self, node: usize, ok: bool) {
        if ok {
            self.health[node].record_success();
        } else if self.health[node].record_failure(self.policy.flap_limit) {
            self.metrics.nodes_excluded += 1;
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
        for (_, node, result) in &flat {
            match result {
                Ok(_) => self.observe(*node, true),
                Err(ClusterError::NodeFailed { .. }) => self.observe(*node, false),
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

    /// One request per fragment of `name`, served by any holder: `request`
    /// builds it from the relation's name on the serving node.
    fn per_fragment(
        name: &str,
        rel: &ShardedRelation,
        request: impl Fn(String) -> Request + Clone + Send + 'static,
    ) -> Vec<FragmentTask> {
        let task = |fragment: usize| {
            let (name, request) = (name.to_owned(), request.clone());
            FragmentTask {
                fragment,
                holders: rel.holders[fragment].clone(),
                build: Box::new(move |node| request(catalog::name_on(node, fragment, &name))),
            }
        };
        (0..rel.holders.len()).map(task).collect()
    }

    /// Has each fragment of `name` bucketed on `keys` into `parts` by one
    /// of its holders, `filter` applied at the sender; returns each part's
    /// batches in fragment order and the rows the filter dropped.
    fn bucket(
        &mut self,
        name: &str,
        rel: &ShardedRelation,
        keys: &[usize],
        parts: usize,
        filter: Option<&BitVectorFilter>,
    ) -> Result<(Vec<Vec<Batch>>, u64)> {
        let (keys, filter, epoch) = (keys.to_vec(), filter.cloned(), Some(self.epoch));
        let tasks = Self::per_fragment(name, rel, move |name| {
            Request::Repartition(RepartitionRequest {
                name,
                keys: keys.clone(),
                parts: parts as u16,
                filter: filter.clone(),
                epoch,
            })
        });
        let mut dest: Vec<Vec<Batch>> = vec![Vec::new(); parts];
        let mut filtered = 0u64;
        for r in self.call_fragments(tasks)? {
            let Reply::Repartitioned {
                buckets,
                filtered: f,
                ..
            } = r.reply
            else {
                return Err(unexpected(r.holder, &r.reply));
            };
            if buckets.len() != parts {
                return Err(ClusterError::NodeFailed {
                    node: r.holder,
                    kind: FailureKind::Other,
                    detail: format!("{} buckets for {parts} nodes", buckets.len()),
                });
            }
            filtered += f;
            for (part, bucket) in dest.iter_mut().zip(buckets) {
                part.extend(bucket.batches().iter().cloned());
            }
        }
        Ok((dest, filtered))
    }

    /// Fetches every fragment of `name` (a one-bucket repartition per
    /// fragment, served by any holder) and concatenates them in fragment
    /// order.
    fn fetch_fragments(&mut self, name: &str, rel: &ShardedRelation) -> Result<Columns> {
        let (mut whole, _) = self.bucket(name, rel, &rel.shard_keys, 1, None)?;
        Ok(Columns::from_batches(rel.schema.clone(), whole.remove(0)))
    }

    /// Builds a filter over each fragment of `name`, hashed on `keys`
    /// (served by any holder).
    fn build_filters(
        &mut self,
        name: &str,
        keys: &[usize],
        bits: usize,
    ) -> Result<Vec<BitVectorFilter>> {
        let rel = self.lookup(name)?.clone();
        let (keys, epoch) = (keys.to_vec(), Some(self.epoch));
        let tasks = Self::per_fragment(name, &rel, move |name| Request::BuildFilter {
            name,
            keys: keys.clone(),
            bits: bits as u32,
            epoch,
        });
        let replies = self.call_fragments(tasks)?.into_iter();
        let filter = |r: FragmentReply| match r.reply {
            Reply::Filter { filter, .. } => Ok(filter),
            other => Err(unexpected(r.holder, &other)),
        };
        replies.map(filter).collect()
    }

    /// Installs the whole of `name` on every node under a replica name
    /// stamped with its version, and returns that name. Cached: a node
    /// that already holds the replica gets nothing. A node that fails the
    /// install simply misses the replica — the failover driver skips it
    /// as a candidate.
    fn replicate(&mut self, name: &str) -> Result<String> {
        let rel = self.lookup(name)?.clone();
        let repl = format!(".repl.{name}.{}", rel.stamp);
        let missing: Vec<usize> = (0..self.links.len())
            .filter(|&n| !self.installed.contains(&(n, repl.clone())))
            .collect();
        if missing.is_empty() {
            return Ok(repl);
        }
        let rows = self.fetch_fragments(name, &rel)?;
        // One frame serves every node: the whole relation as shard 0 of 1.
        let whole = WriteKind::Shard(ShardInfo {
            shard: 0,
            of: 1,
            shard_keys: (0..rel.schema.arity()).collect(),
        });
        let payload = encode_write(&repl, &whole, &rel.schema, &rows, Some(self.epoch));
        let payload = payload.map_err(encoding)?;
        let items = missing.iter().map(|&node| WriteItem {
            fragment: node,
            node,
            payload: payload.clone(),
        });
        for (_, node, result) in self.fan_out_writes(items.collect()) {
            match result {
                Ok(Reply::Sharded { .. }) => {
                    self.installed.insert((node, repl.clone()));
                }
                Ok(other) => return Err(unexpected(node, &other)),
                Err(e) if e.is_stale_epoch() => return Err(e),
                Err(_) => {}
            }
        }
        Ok(repl)
    }

    /// Repartitions `name` on `keys` across all nodes into a temp
    /// relation; returns `(temp name, tuples dropped at the senders)`.
    /// `filter` (with the relation it was built over) is applied where
    /// the rows live; buckets owned by nodes outside `participants` are
    /// dropped at the switch. Cached by the source relation's stamp: if
    /// every participating fragment of the temp still has a holder,
    /// nothing crosses the network.
    fn repartition(
        &mut self,
        name: &str,
        keys: &[usize],
        filter: Option<(&BitVectorFilter, &str)>,
        participants: Option<&[usize]>,
    ) -> Result<(String, u64)> {
        let rel = self.lookup(name)?.clone();
        let nodes = self.links.len();
        let every: Vec<usize> = (0..nodes).collect();
        let participating = participants.unwrap_or(&every);
        let fbits = filter.map_or(0, |(f, _)| f.bits());
        let key_tag: String = keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join("_");
        // A filtered temp's contents depend on the relation that built the
        // filter, so its cache identity carries that relation's name and
        // stamp — otherwise dividing the same dividend by a different
        // divisor would reuse tuples pruned against the wrong one.
        let filter_tag = match filter {
            Some((_, source)) => format!(".{source}.{}", self.lookup(source)?.stamp),
            None => String::new(),
        };
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
        let (dest, mut filtered) = self.bucket(name, &rel, keys, nodes, filter.map(|(f, _)| f))?;
        // Phase 2: switch each aggregated bucket to its owner node plus
        // that fragment's replicas. Buckets owned by non-participating
        // nodes are dropped here — their divisor cluster is empty, so
        // their tuples cannot appear in the quotient. A partial failure
        // needs no catalog cleanup: the temp is only recorded on success,
        // and a retry rewrites every fragment under the same name.
        let mut fragments = Vec::with_capacity(nodes);
        for (j, bucket) in dest.into_iter().enumerate() {
            let bucket = Columns::from_batches(rel.schema.clone(), bucket);
            if participating.contains(&j) {
                fragments.push(Some(bucket));
            } else {
                filtered += bucket.cardinality() as u64;
                fragments.push(None);
            }
        }
        (self.install(&temp, &rel.schema, keys, &fragments, filtered)).map_err(|f| f.error)?;
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
        let tag_of = |fragment| participating.iter().position(|&f| f == fragment);
        let mut tasks = Vec::with_capacity(participating.len());
        for (tag, &fragment) in participating.iter().enumerate() {
            let tag = tag as u16;
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
            let Reply::PartialQuotient(reply) = r.reply else {
                return Err(unexpected(r.holder, &r.reply));
            };
            let want = tag_of(r.fragment).map_or(u16::MAX, |t| t as u16);
            if reply.tag != want {
                return Err(ClusterError::NodeFailed {
                    node: r.holder,
                    kind: FailureKind::Other,
                    detail: format!("tag mismatch: sent {want} got {}", reply.tag),
                });
            }
            partials.push(Partial {
                fragment: r.fragment,
                node: r.holder,
                rows: reply.tuples,
                tuples_in: 0,
                ops: reply.ops,
                micros: reply.micros,
                network_bytes: 0,
                profile: reply.profile,
            });
        }
        Ok(partials)
    }
}

/// The coordinator's node links as the Section 6 driver's [`Transport`]:
/// relations are catalog names, and every phase runs through the failover
/// driver.
struct Links<'a> {
    coordinator: &'a mut Coordinator,
    /// Ask each node for its span tree.
    profile: bool,
}

impl Transport for Links<'_> {
    type Rel = String;
    type Error = ClusterError;

    fn nodes(&self) -> usize {
        self.coordinator.links.len()
    }

    fn placed_on(&self, name: &String) -> Option<Vec<usize>> {
        let rel = self.coordinator.catalog.get(name);
        rel.map(|r| r.shard_keys.clone())
    }

    fn is_empty(&self, name: &String) -> bool {
        let rel = self.coordinator.catalog.get(name);
        rel.is_some_and(|r| r.cardinality == 0)
    }

    fn place(&mut self, name: &String, route: Route<'_, String>) -> Result<Placed<String>> {
        let c = &mut *self.coordinator;
        let Some(keys) = route.keys else {
            let rel = c.replicate(name)?;
            let per_node = vec![c.lookup(name)?.cardinality as u64; c.links.len()];
            return Ok(Placed {
                rel,
                per_node,
                filtered: 0,
            });
        };
        let filter = route.filter.map(|(f, source)| (f, source.as_str()));
        let (rel, filtered) = c.repartition(name, keys, filter, route.participants)?;
        let per_node = c.lookup(&rel)?.per_node.iter().map(|&n| n as u64).collect();
        Ok(Placed {
            rel,
            per_node,
            filtered,
        })
    }

    fn build_filters(
        &mut self,
        name: &String,
        keys: &[usize],
        bits: usize,
    ) -> Result<Vec<BitVectorFilter>> {
        self.coordinator.build_filters(name, keys, bits)
    }

    fn divide(
        &mut self,
        dividend: &String,
        divisor: &String,
        spec: &DivisionSpec,
        fragments: &[usize],
    ) -> Result<Vec<Partial>> {
        let profile = self.profile;
        (self.coordinator).divide_partial(fragments, dividend, divisor, spec, profile)
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

fn unexpected(node: usize, reply: &Reply) -> ClusterError {
    ClusterError::NodeFailed {
        node,
        kind: FailureKind::Other,
        detail: format!("unexpected reply {reply:?}"),
    }
}
