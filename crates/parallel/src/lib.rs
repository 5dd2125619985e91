//! # reldiv-parallel — hash-division on a shared-nothing machine
//!
//! Section 6 of the paper adapts hash-division to a GAMMA-style
//! shared-nothing multi-processor. This crate simulates that machine:
//! every node is a thread with its own storage manager and memory pool,
//! and the interconnection network is a set of accounted channels
//! ([`network`]), so the network traffic the paper reasons about is
//! measurable.
//!
//! Both partitioning strategies are implemented:
//!
//! * [`Strategy::QuotientPartitioning`] — "the divisor table must be
//!   replicated in the main memory of all participating processors. After
//!   replication, all local hash-division operators work completely
//!   independently of each other." The quotient is the concatenation of
//!   the node results.
//! * [`Strategy::DivisorPartitioning`] — both inputs are partitioned on
//!   the divisor attributes; each node's quotient cluster is tagged with
//!   its processor address and a **collection site** "divides the set of
//!   all incoming tuples over the set of processor network addresses".
//!
//! [`filter`] adds Section 6's **bit-vector filtering**: the scan site
//! drops dividend tuples that cannot match any divisor tuple before
//!   shipping them, trading a heuristic filter (false positives pass and
//! are caught later) for a large reduction in network traffic.

#![deny(missing_docs)]

pub mod filter;
pub mod network;
pub mod partition;
pub mod strategy;

use std::sync::Arc;
use std::time::{Duration, Instant};

use reldiv_core::api::{divide, DivisionConfig, Source};
use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{Algorithm, DivisionSpec, ExecError, ProfileNode, QueryProfile, SpanKind};
use reldiv_rel::counters::{OpScope, OpSnapshot};
use reldiv_rel::{Relation, Tuple};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::StorageManager;

use network::{build_links, build_result_link, Message, NetworkCounters, NetworkStats, Port};
use strategy::{distribute, CollectionSite, Transport};

pub use partition::{route, route_hash};
pub use strategy::{Distribution, Strategy};

/// Result alias shared with the core crate.
pub type Result<T> = reldiv_core::Result<T>;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (worker threads).
    pub nodes: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Per-node storage configuration (buffer pool, work memory). Each
    /// node runs a full local engine, including overflow handling.
    pub node_storage: StorageConfig,
    /// Dividend tuples per network message.
    pub batch_size: usize,
    /// Bits of bit-vector filter applied at the scan site before shipping
    /// dividend tuples (divisor partitioning only). `None` disables.
    pub bit_vector_bits: Option<usize>,
    /// Number of collection sites for divisor partitioning (Section 6:
    /// "in the unlikely case that the central collection site becomes a
    /// bottleneck, it is possible to decentralize the collection step
    /// using quotient partitioning"). Each site runs the collection-phase
    /// division over a quotient-hash partition of the tagged tuples, in
    /// its own thread.
    pub collection_sites: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            strategy: Strategy::QuotientPartitioning,
            node_storage: StorageConfig::paper(),
            batch_size: 512,
            bit_vector_bits: None,
            collection_sites: 1,
        }
    }
}

/// Measurements from one parallel run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Network traffic (input distribution + result collection).
    pub network: NetworkStats,
    /// Nodes configured.
    pub nodes: usize,
    /// Nodes that received divisor tuples (divisor partitioning).
    pub participating_nodes: usize,
    /// Dividend tuples dropped at the scan site by the bit-vector filter.
    pub filtered_tuples: u64,
    /// Fill ratio of the bit-vector filter, if one was used.
    pub filter_fill_ratio: Option<f64>,
    /// Dividend tuples shipped to each node.
    pub per_node_dividend: Vec<u64>,
    /// Abstract operations performed by each node (scoped per node
    /// thread, so a node's count covers exactly its own division work).
    pub per_node_ops: Vec<OpSnapshot>,
    /// Sum of the per-node operation counts.
    pub total_ops: OpSnapshot,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl RunReport {
    /// Folds the run's measurements into an `EXPLAIN ANALYZE`-style span
    /// tree: a root span for the whole parallel division carrying the
    /// network totals and wall time, with one child per node carrying the
    /// dividend tuples shipped to it and the abstract operations it
    /// performed. Lets parallel runs share the renderer and JSON codec of
    /// single-site [`QueryProfile`]s.
    pub fn to_profile(&self) -> QueryProfile {
        let children = self
            .per_node_ops
            .iter()
            .enumerate()
            .map(|(i, &ops)| ProfileNode {
                label: format!("node {i}"),
                kind: SpanKind::Node,
                wall_micros: 0,
                tuples_in: self.per_node_dividend.get(i).copied().unwrap_or(0),
                tuples_out: 0,
                ops,
                pages_read: 0,
                pages_written: 0,
                spill_bytes: 0,
                network_bytes: 0,
                phases: Vec::new(),
                children: Vec::new(),
            })
            .collect();
        let mut phases = vec![format!(
            "{} of {} nodes participating",
            self.participating_nodes, self.nodes
        )];
        if let Some(fill) = self.filter_fill_ratio {
            phases.push(format!(
                "bit-vector filter dropped {} tuples (fill {:.2})",
                self.filtered_tuples, fill
            ));
        }
        QueryProfile {
            root: ProfileNode {
                label: format!("parallel division ({} nodes)", self.nodes),
                kind: SpanKind::Network,
                wall_micros: self.elapsed.as_micros() as u64,
                tuples_in: self.per_node_dividend.iter().sum(),
                tuples_out: 0,
                ops: self.total_ops,
                pages_read: 0,
                pages_written: 0,
                spill_bytes: 0,
                network_bytes: self.network.bytes,
                phases,
                children,
            },
        }
    }
}

/// One node's worker: receive divisor and dividend, divide locally with a
/// private engine (including local overflow handling), ship the quotient
/// cluster to the collection site.
fn node_main(
    node_id: usize,
    rx: crossbeam::channel::Receiver<Message>,
    result: network::ResultPort,
    spec: DivisionSpec,
    dividend_schema: reldiv_rel::Schema,
    divisor_schema: reldiv_rel::Schema,
    storage_config: StorageConfig,
) -> Result<OpSnapshot> {
    let scope = OpScope::begin();
    let mut divisor_tuples: Vec<Tuple> = Vec::new();
    let mut dividend_tuples: Vec<Tuple> = Vec::new();
    loop {
        match rx.recv() {
            Ok(Message::Divisor(v)) => divisor_tuples.extend(v),
            Ok(Message::Dividend(v)) => dividend_tuples.extend(v),
            Ok(Message::End) | Err(_) => break,
        }
    }
    let dividend =
        Relation::from_tuples(dividend_schema, dividend_tuples).map_err(ExecError::from)?;
    let divisor = Relation::from_tuples(divisor_schema, divisor_tuples).map_err(ExecError::from)?;
    let storage = StorageManager::shared(storage_config);
    let quotient = divide(
        &storage,
        &Source::from_relation(&dividend),
        &Source::from_relation(&divisor),
        &spec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &DivisionConfig::default(),
    )?;
    result.send(node_id, quotient.into_tuples());
    Ok(scope.finish())
}

/// The thread machine's [`Transport`]: accounted in-process channels.
/// Sends cannot fail — a hung-up receiver means the node died, and the
/// thread join below surfaces its error.
struct ChannelTransport<'a> {
    ports: &'a [Port],
}

impl Transport for ChannelTransport<'_> {
    type Error = std::convert::Infallible;

    fn ship_divisor(
        &mut self,
        node: usize,
        tuples: Vec<Tuple>,
    ) -> std::result::Result<(), Self::Error> {
        self.ports[node].send(Message::Divisor(tuples));
        Ok(())
    }

    fn ship_dividend(
        &mut self,
        node: usize,
        tuples: Vec<Tuple>,
    ) -> std::result::Result<(), Self::Error> {
        self.ports[node].send(Message::Dividend(tuples));
        Ok(())
    }

    fn end(&mut self, node: usize) -> std::result::Result<(), Self::Error> {
        self.ports[node].send(Message::End);
        Ok(())
    }
}

/// Runs `dividend ÷ divisor` across the simulated cluster.
pub fn parallel_divide(
    dividend: &Relation,
    divisor: &Relation,
    spec: &DivisionSpec,
    config: &ClusterConfig,
) -> Result<(Relation, RunReport)> {
    if config.nodes == 0 {
        return Err(ExecError::Plan("cluster needs at least one node".into()));
    }
    spec.validate(dividend.schema(), divisor.schema())?;
    let quotient_schema = spec.quotient_schema(dividend.schema())?;
    let start = Instant::now();

    let counters = Arc::new(NetworkCounters::default());
    let tuple_bytes = dividend.schema().record_width();
    let (ports, receivers) = build_links(config.nodes, tuple_bytes, &counters);
    let (result_port, result_rx) = build_result_link(quotient_schema.record_width(), &counters);

    // Spawn the nodes.
    let mut handles = Vec::with_capacity(config.nodes);
    for (node_id, rx) in receivers.into_iter().enumerate() {
        let result = result_port.clone();
        let spec = spec.clone();
        let dividend_schema = dividend.schema().clone();
        let divisor_schema = divisor.schema().clone();
        let storage_config = config.node_storage.clone();
        handles.push(std::thread::spawn(move || {
            node_main(
                node_id,
                rx,
                result,
                spec,
                dividend_schema,
                divisor_schema,
                storage_config,
            )
        }));
    }
    drop(result_port); // collection channel closes when all nodes finish

    let n = config.nodes;
    // The scan site: the strategy driver over the accounted channels.
    // (The TCP cluster does not run it: its coordinator routes with the
    // same `route` hash and collects with the same `CollectionSite`.)
    let mut transport = ChannelTransport { ports: &ports };
    let dist = distribute(
        &mut transport,
        Distribution {
            strategy: config.strategy,
            nodes: n,
            bit_vector_bits: config.bit_vector_bits,
        },
        spec,
        dividend.tuples(),
        divisor.tuples(),
        divisor.schema().arity(),
        config.batch_size,
    )
    .expect("channel transport is infallible");
    let participating = dist.participating.clone();

    // Collection site.
    let mut result = Relation::empty(quotient_schema.clone());
    match config.strategy {
        Strategy::QuotientPartitioning => {
            // Clusters are disjoint in the quotient attributes: concatenate.
            while let Ok((_, tuples)) = result_rx.recv() {
                for t in tuples {
                    result.push(t).map_err(ExecError::from)?;
                }
            }
        }
        Strategy::DivisorPartitioning => {
            // "The collection site divides the set of all incoming tuples
            // over the set of processor network addresses" — the shared
            // [`CollectionSite`], also used verbatim by the TCP cluster's
            // coordinator. With more than one site, the tagged tuples are
            // themselves quotient-partitioned across sites — the paper's
            // decentralized collection. (Nodes would hash-route their
            // shipments directly in a real machine, so no extra network
            // traffic is charged for the fan-out.)
            let sites = config.collection_sites.max(1);
            let qarity = quotient_schema.arity();
            if sites == 1 {
                let mut site =
                    CollectionSite::new(&quotient_schema, &participating, dist.empty_divisor)?;
                while let Ok((node, tuples)) = result_rx.recv() {
                    for t in tuples {
                        site.absorb(node, &t)?;
                    }
                }
                for t in site.finish() {
                    result.push(t).map_err(ExecError::from)?;
                }
            } else {
                // Decentralized: one collector thread per site, fed a
                // quotient-hash partition of the tagged tuples.
                let mut txs = Vec::with_capacity(sites);
                let mut collectors = Vec::with_capacity(sites);
                for _ in 0..sites {
                    let (tx, rx) = crossbeam::channel::unbounded::<(usize, Tuple)>();
                    txs.push(tx);
                    let schema = quotient_schema.clone();
                    let participating = participating.clone();
                    let empty_divisor = dist.empty_divisor;
                    collectors.push(std::thread::spawn(move || -> Result<Vec<Tuple>> {
                        let mut site = CollectionSite::new(&schema, &participating, empty_divisor)?;
                        while let Ok((node, t)) = rx.recv() {
                            site.absorb(node, &t)?;
                        }
                        Ok(site.finish())
                    }));
                }
                let qcols: Vec<usize> = (0..qarity).collect();
                while let Ok((node, tuples)) = result_rx.recv() {
                    for t in tuples {
                        let site = (t.hash_on(&qcols) as usize) % sites;
                        let _ = txs[site].send((node, t));
                    }
                }
                drop(txs);
                for handle in collectors {
                    let partial = handle
                        .join()
                        .map_err(|_| ExecError::Plan("collection site panicked".into()))??;
                    for t in partial {
                        result.push(t).map_err(ExecError::from)?;
                    }
                }
            }
        }
    }

    // Surface node failures; collect each node's operation counts.
    let mut per_node_ops = Vec::with_capacity(handles.len());
    for handle in handles {
        per_node_ops.push(
            handle
                .join()
                .map_err(|_| ExecError::Plan("node thread panicked".into()))??,
        );
    }
    let total_ops = per_node_ops
        .iter()
        .fold(OpSnapshot::default(), |acc, ops| acc.merge(ops));

    let report = RunReport {
        network: counters.stats(),
        nodes: n,
        participating_nodes: participating.len(),
        filtered_tuples: dist.filtered_tuples,
        filter_fill_ratio: dist.filter_fill_ratio,
        per_node_dividend: dist.per_node_dividend,
        per_node_ops,
        total_ops,
        elapsed: start.elapsed(),
    };
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::schema::{Field, Schema};
    use reldiv_rel::tuple::ints;

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn workload() -> (Relation, Relation, Vec<i64>) {
        let mut rows = Vec::new();
        for s in 0..60i64 {
            for c in 0..=(s % 11) {
                rows.push([s, c]);
            }
            rows.push([s, 500 + s]); // noise, matches nothing
        }
        let expected: Vec<i64> = (0..60).filter(|s| s % 11 >= 6).collect();
        (
            transcript(&rows),
            courses(&(0..7).collect::<Vec<_>>()),
            expected,
        )
    }

    fn run(config: &ClusterConfig) -> (Vec<i64>, RunReport) {
        let (dividend, divisor, _) = workload();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (rel, report) = parallel_divide(&dividend, &divisor, &spec, config).unwrap();
        let mut sids: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        sids.sort_unstable();
        (sids, report)
    }

    #[test]
    fn quotient_partitioning_matches_serial_result() {
        let (_, _, expected) = workload();
        for nodes in [1, 2, 4, 8] {
            let config = ClusterConfig {
                nodes,
                strategy: Strategy::QuotientPartitioning,
                ..Default::default()
            };
            let (got, report) = run(&config);
            assert_eq!(got, expected, "nodes={nodes}");
            assert_eq!(report.participating_nodes, nodes);
        }
    }

    #[test]
    fn run_report_folds_into_a_profile_tree() {
        let config = ClusterConfig {
            nodes: 4,
            strategy: Strategy::QuotientPartitioning,
            ..Default::default()
        };
        let (_, report) = run(&config);
        let profile = report.to_profile();
        assert_eq!(profile.root.children.len(), 4, "one span per node");
        assert_eq!(profile.root.network_bytes, report.network.bytes);
        assert_eq!(
            profile.root.tuples_in,
            report.per_node_dividend.iter().sum::<u64>()
        );
        let child_ops = profile
            .root
            .children
            .iter()
            .fold(OpSnapshot::default(), |acc, c| acc.merge(&c.ops));
        assert_eq!(child_ops, report.total_ops, "node spans carry the ops");
        assert!(
            profile.root.phases[0].contains("4 of 4 nodes"),
            "{:?}",
            profile.root.phases
        );
        // The shared renderer understands the folded tree.
        let rendered = profile.render();
        assert!(
            rendered.contains("node 0") && rendered.contains("net="),
            "{rendered}"
        );
    }

    #[test]
    fn divisor_partitioning_matches_serial_result() {
        let (_, _, expected) = workload();
        for nodes in [1, 2, 4, 8] {
            let config = ClusterConfig {
                nodes,
                strategy: Strategy::DivisorPartitioning,
                ..Default::default()
            };
            let (got, _) = run(&config);
            assert_eq!(got, expected, "nodes={nodes}");
        }
    }

    #[test]
    fn bit_vector_filter_cuts_traffic_without_changing_the_answer() {
        let (_, _, expected) = workload();
        let base = ClusterConfig {
            nodes: 4,
            strategy: Strategy::DivisorPartitioning,
            ..Default::default()
        };
        let (got_plain, report_plain) = run(&base);
        let filtered_config = ClusterConfig {
            bit_vector_bits: Some(4096),
            ..base
        };
        let (got_filtered, report_filtered) = run(&filtered_config);
        assert_eq!(got_plain, expected);
        assert_eq!(got_filtered, expected);
        assert!(
            report_filtered.filtered_tuples > 0,
            "noise tuples must be dropped"
        );
        assert!(
            report_filtered.network.tuples < report_plain.network.tuples,
            "filtering must reduce shipped tuples: {} vs {}",
            report_filtered.network.tuples,
            report_plain.network.tuples
        );
        assert!(report_filtered.filter_fill_ratio.unwrap() < 0.5);
    }

    #[test]
    fn divisor_replication_costs_scale_with_nodes() {
        let (dividend, divisor, _) = workload();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut last = 0;
        for nodes in [1, 2, 4] {
            let config = ClusterConfig {
                nodes,
                strategy: Strategy::QuotientPartitioning,
                ..Default::default()
            };
            let (_, report) = parallel_divide(&dividend, &divisor, &spec, &config).unwrap();
            assert!(
                report.network.tuples > last,
                "replication traffic grows with node count"
            );
            last = report.network.tuples;
        }
    }

    #[test]
    fn empty_divisor_is_vacuous_in_parallel() {
        let dividend = transcript(&[[1, 10], [2, 20], [1, 30]]);
        let divisor = courses(&[]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        for strategy in [
            Strategy::QuotientPartitioning,
            Strategy::DivisorPartitioning,
        ] {
            let config = ClusterConfig {
                nodes: 3,
                strategy,
                ..Default::default()
            };
            let (rel, _) = parallel_divide(&dividend, &divisor, &spec, &config).unwrap();
            let mut sids: Vec<i64> = rel
                .tuples()
                .iter()
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            sids.sort_unstable();
            assert_eq!(sids, vec![1, 2], "{strategy:?}");
        }
    }

    #[test]
    fn empty_dividend_is_empty_in_parallel() {
        let dividend = transcript(&[]);
        let divisor = courses(&[1]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        for strategy in [
            Strategy::QuotientPartitioning,
            Strategy::DivisorPartitioning,
        ] {
            let config = ClusterConfig {
                nodes: 3,
                strategy,
                ..Default::default()
            };
            let (rel, _) = parallel_divide(&dividend, &divisor, &spec, &config).unwrap();
            assert!(rel.is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn zero_nodes_is_a_plan_error() {
        let dividend = transcript(&[[1, 1]]);
        let divisor = courses(&[1]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let config = ClusterConfig {
            nodes: 0,
            ..Default::default()
        };
        assert!(parallel_divide(&dividend, &divisor, &spec, &config).is_err());
    }

    #[test]
    fn work_is_spread_across_nodes() {
        let (got, report) = run(&ClusterConfig {
            nodes: 4,
            strategy: Strategy::QuotientPartitioning,
            ..Default::default()
        });
        assert!(!got.is_empty());
        let busy = report.per_node_dividend.iter().filter(|&&n| n > 0).count();
        assert!(busy >= 3, "60 students should spread over >= 3 of 4 nodes");
    }
}

#[cfg(test)]
mod decentralized_tests {
    use super::*;
    use reldiv_rel::schema::{Field, Schema};
    use reldiv_rel::tuple::ints;

    fn workload() -> (Relation, Relation, Vec<i64>) {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        let mut rows = Vec::new();
        for s in 0..80i64 {
            for c in 0..=(s % 9) {
                rows.push(ints(&[s, c]));
            }
        }
        let dividend = Relation::from_tuples(schema, rows).unwrap();
        let divisor = Relation::from_tuples(
            Schema::new(vec![Field::int("cno")]),
            (0..6).map(|c| ints(&[c])).collect(),
        )
        .unwrap();
        let expected: Vec<i64> = (0..80).filter(|s| s % 9 >= 5).collect();
        (dividend, divisor, expected)
    }

    #[test]
    fn decentralized_collection_matches_central() {
        let (dividend, divisor, expected) = workload();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        for sites in [1usize, 2, 3, 5] {
            let config = ClusterConfig {
                nodes: 4,
                strategy: Strategy::DivisorPartitioning,
                collection_sites: sites,
                ..Default::default()
            };
            let (rel, _) = parallel_divide(&dividend, &divisor, &spec, &config).unwrap();
            let mut got: Vec<i64> = rel
                .tuples()
                .iter()
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "sites={sites}");
        }
    }

    #[test]
    fn decentralized_collection_with_empty_divisor() {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        let dividend =
            Relation::from_tuples(schema, vec![ints(&[1, 10]), ints(&[2, 20]), ints(&[1, 30])])
                .unwrap();
        let divisor = Relation::from_tuples(Schema::new(vec![Field::int("cno")]), vec![]).unwrap();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let config = ClusterConfig {
            nodes: 3,
            strategy: Strategy::DivisorPartitioning,
            collection_sites: 2,
            ..Default::default()
        };
        let (rel, _) = parallel_divide(&dividend, &divisor, &spec, &config).unwrap();
        let mut got: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }
}
