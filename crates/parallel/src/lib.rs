//! # reldiv-parallel — hash-division on a shared-nothing machine
//!
//! Section 6 of the paper adapts hash-division to a GAMMA-style
//! shared-nothing multi-processor. This crate holds that adaptation once,
//! as a phase driver ([`strategy`]), and simulates the machine it runs
//! on: every node is a thread with its own storage manager and memory
//! pool, and the interconnection network is a set of accounted channels
//! ([`network`]), so the network traffic the paper reasons about is
//! measurable. The TCP cluster (`reldiv-cluster`) runs the same driver
//! over real links; this machine is its zero-latency double.
//!
//! Both partitioning strategies of the paper run on it
//! ([`Strategy::QuotientPartitioning`], [`Strategy::DivisorPartitioning`],
//! both stated in [`strategy`]), and [`filter`] adds Section 6's
//! **bit-vector filtering**: the scan site drops dividend tuples that
//! cannot match any divisor tuple before shipping them, trading a
//! heuristic filter (false positives pass and are caught later) for a
//! large reduction in network traffic.

#![deny(missing_docs)]

pub mod filter;
pub mod network;
pub mod partition;
pub mod strategy;

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use reldiv_core::api::{divide, DivisionConfig, Source};
use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{Algorithm, DivisionSpec, ExecError, QueryProfile};
use reldiv_rel::counters::{OpScope, OpSnapshot};
use reldiv_rel::{Batch, Columns, Relation, Schema};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::StorageManager;

use filter::BitVectorFilter;
use network::{build_links, build_result_link, Message, NetworkCounters, NetworkStats, Port, Role};
use partition::scatter;
use strategy::{Driver, Partial, Placed, Route, Transport};

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
    /// The run as an `EXPLAIN ANALYZE`-style span tree: a network root
    /// carrying the traffic and wall time, one span per participating
    /// node ([`strategy::Run::profile`], shared with the TCP cluster).
    pub profile: QueryProfile,
}

/// One node's worker: receive divisor and dividend batches, divide
/// locally with a private engine (including local overflow handling),
/// ship the quotient cluster to the collection site. Returns the node's
/// operation count and division time in microseconds.
fn node_main(
    node_id: usize,
    rx: Receiver<Message>,
    result: network::ResultPort,
    spec: DivisionSpec,
    [dividend_schema, divisor_schema]: [Schema; 2],
    storage_config: StorageConfig,
) -> Result<(OpSnapshot, u64)> {
    let scope = OpScope::begin();
    let (mut dividend, mut divisor): (Vec<Batch>, Vec<Batch>) = (Vec::new(), Vec::new());
    while let Ok(Message::Rows(role, rows)) = rx.recv() {
        let input = if role == Role::Dividend {
            &mut dividend
        } else {
            &mut divisor
        };
        input.extend(rows.batches().iter().cloned());
    }
    let start = Instant::now();
    let storage = StorageManager::shared(storage_config);
    let quotient = divide(
        &storage,
        &Source::Columns(Columns::from_batches(dividend_schema, dividend)),
        &Source::Columns(Columns::from_batches(divisor_schema, divisor)),
        &spec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &DivisionConfig::default(),
    )?;
    let micros = start.elapsed().as_micros() as u64;
    result.send(node_id, Columns::from_relation(&quotient));
    Ok((scope.finish(), micros))
}

/// The thread machine's [`Transport`]: the scan site holds every input
/// whole and ships it over accounted channels to node threads, which
/// divide when told the input is complete. A divisor fragment travels as
/// one message per node (empty ones too, so every node can build its
/// table); dividend rows in messages of `batch_size` rows.
struct Machine {
    ports: Vec<Port>,
    results: Receiver<(usize, Columns)>,
    nodes: Vec<JoinHandle<Result<(OpSnapshot, u64)>>>,
    batch_size: usize,
    per_node_dividend: Vec<u64>,
    per_node_ops: Vec<OpSnapshot>,
}

/// An input as the scan site holds it: which input of the division it is,
/// and all of its rows.
type Held = (Role, Columns);

impl Machine {
    /// Spawns the nodes.
    fn start(
        config: &ClusterConfig,
        spec: &DivisionSpec,
        schemas: [&Schema; 3],
        counters: &Arc<NetworkCounters>,
    ) -> Machine {
        let [dividend, divisor, quotient] = schemas;
        let (ports, receivers) = build_links(config.nodes, dividend.record_width(), counters);
        let (result, results) = build_result_link(quotient.record_width(), counters);
        let nodes = (receivers.into_iter().enumerate())
            .map(|(node, rx)| {
                let (result, spec) = (result.clone(), spec.clone());
                let schemas = [dividend.clone(), divisor.clone()];
                let storage = config.node_storage.clone();
                std::thread::spawn(move || node_main(node, rx, result, spec, schemas, storage))
            })
            .collect();
        // The result channel closes when every node has finished.
        drop(result);
        Machine {
            ports,
            results,
            nodes,
            batch_size: config.batch_size.max(1),
            per_node_dividend: vec![0; config.nodes],
            per_node_ops: Vec::new(),
        }
    }
}

impl Transport for Machine {
    type Rel = Held;
    type Error = ExecError;

    fn nodes(&self) -> usize {
        self.ports.len()
    }

    fn placed_on(&self, _: &Held) -> Option<Vec<usize>> {
        None
    }

    fn is_empty(&self, (_, rows): &Held) -> bool {
        rows.cardinality() == 0
    }

    fn place(&mut self, held: &Held, route: Route<'_, Held>) -> Result<Placed<Held>> {
        let ((role, rows), n) = (held.clone(), self.ports.len());
        let Some(keys) = route.keys else {
            for port in &self.ports {
                port.send(Message::Rows(role, rows.clone()));
            }
            let per_node = vec![rows.cardinality() as u64; n];
            return Ok(Placed {
                rel: held.clone(),
                per_node,
                filtered: 0,
            });
        };
        let limit = if role == Role::Dividend {
            self.batch_size
        } else {
            usize::MAX
        };
        let ship = |port: &Port, batch: Batch| {
            let rows = Columns::from_batches(batch.schema().clone(), vec![batch]);
            port.send(Message::Rows(role, rows));
        };
        let accepts = route.participants.map(|p| {
            let mut accepts = vec![false; n];
            p.iter().for_each(|&node| accepts[node] = true);
            accepts
        });
        let filter = route.filter.map(|(f, _)| f);
        let fresh = || Batch::with_capacity(rows.schema().clone(), 0);
        let (mut pending, mut per_node, mut filtered) = (vec![fresh(); n], vec![0; n], 0);
        for batch in rows.batches() {
            let routed = scatter(batch, keys, n, filter, accepts.as_deref());
            filtered += routed.dropped;
            for (node, picked) in routed.rows.iter().enumerate() {
                per_node[node] += picked.len() as u64;
                for &row in picked {
                    pending[node].push_row_from(batch, row);
                    if pending[node].len() == limit {
                        ship(
                            &self.ports[node],
                            std::mem::replace(&mut pending[node], fresh()),
                        );
                    }
                }
            }
        }
        for (port, batch) in self.ports.iter().zip(pending) {
            if !batch.is_empty() || role == Role::Divisor {
                ship(port, batch);
            }
        }
        if role == Role::Dividend {
            self.per_node_dividend = per_node.clone();
        }
        Ok(Placed {
            rel: held.clone(),
            per_node,
            filtered,
        })
    }

    fn build_filters(
        &mut self,
        (_, rows): &Held,
        keys: &[usize],
        bits: usize,
    ) -> Result<Vec<BitVectorFilter>> {
        Ok(vec![BitVectorFilter::over(bits, rows, keys)])
    }

    fn divide(
        &mut self,
        _: &Held,
        _: &Held,
        _: &DivisionSpec,
        fragments: &[usize],
    ) -> Result<Vec<Partial>> {
        for port in &self.ports {
            port.send(Message::End);
        }
        let mut quotients: Vec<Option<Columns>> = vec![None; self.ports.len()];
        while let Ok((node, rows)) = self.results.recv() {
            quotients[node] = Some(rows);
        }
        let mut micros = Vec::with_capacity(self.nodes.len());
        for handle in self.nodes.drain(..) {
            let joined = handle.join();
            let (ops, us) =
                joined.map_err(|_| ExecError::Plan("node thread panicked".into()))??;
            self.per_node_ops.push(ops);
            micros.push(us);
        }
        let partial = |&node: &usize| Partial {
            fragment: node,
            node,
            rows: quotients[node]
                .take()
                .expect("a finished node shipped its quotient"),
            tuples_in: self.per_node_dividend[node],
            ops: self.per_node_ops[node],
            micros: micros[node],
            network_bytes: 0,
            profile: None,
        };
        Ok(fragments.iter().map(partial).collect())
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
    let schemas = [dividend.schema(), divisor.schema(), &quotient_schema];
    let mut machine = Machine::start(config, spec, schemas, &counters);
    let driver = Driver {
        strategy: config.strategy,
        bit_vector_bits: config.bit_vector_bits,
        collection_sites: config.collection_sites,
    };
    let dividend = (Role::Dividend, Columns::from_relation(dividend));
    let divisor = (Role::Divisor, Columns::from_relation(divisor));
    let run = driver.run(&mut machine, &dividend, &divisor, spec, &quotient_schema)?;
    let quotient = Relation::from_tuples(quotient_schema, run.quotient.tuples().collect());
    let elapsed = start.elapsed();
    let network = counters.stats();
    let report = RunReport {
        network,
        nodes: config.nodes,
        participating_nodes: run.participating.len(),
        filtered_tuples: run.filtered_tuples,
        filter_fill_ratio: run.filter_fill_ratio,
        per_node_dividend: machine.per_node_dividend,
        total_ops: (machine.per_node_ops.iter()).fold(OpSnapshot::default(), |a, o| a.merge(o)),
        per_node_ops: machine.per_node_ops,
        elapsed,
        profile: run.profile("parallel", network.bytes, elapsed),
    };
    Ok((quotient.map_err(ExecError::from)?, report))
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
        let profile = &report.profile;
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
