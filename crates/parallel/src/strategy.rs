//! Section 6's strategy logic, as the thread-simulated machine
//! ([`crate::parallel_divide`]) runs it.
//!
//! The TCP cluster (`reldiv-cluster`) has its own driver: its
//! coordinator and each node's `Service::repartition` route with the same
//! [`crate::route`] hash, and its collection site is the
//! [`CollectionSite`] below. This module holds:
//!
//! * [`plan_divisor`] — place the divisor (replicate it for
//!   [`Strategy::QuotientPartitioning`], hash-cluster it on all divisor
//!   columns for [`Strategy::DivisorPartitioning`]), build the optional
//!   bit-vector filter while scanning it, and decide which nodes
//!   participate.
//! * [`Router`] — the sending site's per-tuple decision: drop (filter or
//!   non-participating destination) or ship to a node, with accounting.
//! * [`Transport`] + [`distribute`] — the machine's scan-site driver that
//!   ships divisor fragments and batched dividend tuples over its
//!   accounted channels.
//! * [`CollectionSite`] — shared with the TCP cluster's coordinator: the
//!   collection-phase division over node
//!   addresses ("the collection site divides the set of all incoming
//!   tuples over the set of processor network addresses"), reusing the
//!   quotient-table machinery with each node's dense tag as the bit
//!   index.

use std::collections::HashMap;

use reldiv_core::hash_division::{HashDivisionMode, QuotientTable};
use reldiv_core::DivisionSpec;
use reldiv_rel::{Schema, Tuple};
use reldiv_storage::MemoryPool;

use crate::filter::BitVectorFilter;
use crate::partition::route;

/// Partitioning strategy for the parallel division.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Replicate the divisor; partition the dividend on the quotient
    /// attributes; concatenate node results. The default: it is the
    /// strategy Section 6 develops first and the cheaper one when the
    /// divisor is small.
    #[default]
    QuotientPartitioning,
    /// Partition both inputs on the divisor attributes; collect node
    /// results with a final collection-phase division over node
    /// addresses.
    DivisorPartitioning,
}

impl Strategy {
    /// Stable one-byte wire/cache encoding.
    pub fn code(self) -> u8 {
        match self {
            Strategy::QuotientPartitioning => 0,
            Strategy::DivisorPartitioning => 1,
        }
    }

    /// Decodes [`Strategy::code`]; `None` for unknown bytes.
    pub fn from_code(code: u8) -> Option<Strategy> {
        match code {
            0 => Some(Strategy::QuotientPartitioning),
            1 => Some(Strategy::DivisorPartitioning),
            _ => None,
        }
    }
}

/// A request-level description of how to distribute a division. Carried
/// by the service's `DivideRequest` (in-process parallel execution), on
/// the wire as Divide's trailing distribution extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Distribution {
    /// Which Section 6 strategy to run.
    pub strategy: Strategy,
    /// Number of nodes to spread the division over.
    pub nodes: usize,
    /// Bit-vector filter size applied at the sending site (divisor
    /// partitioning only). `None` disables filtering.
    pub bit_vector_bits: Option<usize>,
}

/// Where the divisor fragments go, computed once per query at the site
/// that owns the divisor.
#[derive(Debug, Clone)]
pub struct DivisorPlan {
    /// One fragment per node: full replicas under quotient partitioning,
    /// disjoint hash clusters under divisor partitioning. Empty fragments
    /// are still shipped so every node can build its (empty) table.
    pub clusters: Vec<Vec<Tuple>>,
    /// Bit-vector filter built while scanning the divisor (divisor
    /// partitioning with `bit_vector_bits`; never built for an empty
    /// divisor, where it would wrongly drop every vacuous candidate).
    pub filter: Option<BitVectorFilter>,
    /// Nodes holding at least one divisor tuple — the only nodes whose
    /// local division can produce quotient tuples. All nodes when the
    /// divisor is empty (vacuous truth) or replicated.
    pub participating: Vec<usize>,
    /// The divisor is empty: division is vacuously true for every
    /// quotient candidate.
    pub empty_divisor: bool,
}

/// Places the divisor for `strategy` across `nodes` sites.
pub fn plan_divisor(
    strategy: Strategy,
    nodes: usize,
    bit_vector_bits: Option<usize>,
    divisor: &[Tuple],
    divisor_arity: usize,
) -> DivisorPlan {
    let empty_divisor = divisor.is_empty();
    match strategy {
        Strategy::QuotientPartitioning => DivisorPlan {
            clusters: vec![divisor.to_vec(); nodes],
            filter: None,
            participating: (0..nodes).collect(),
            empty_divisor,
        },
        Strategy::DivisorPartitioning => {
            let divisor_all: Vec<usize> = (0..divisor_arity).collect();
            let mut clusters: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
            let mut filter = if empty_divisor {
                None
            } else {
                bit_vector_bits.map(BitVectorFilter::new)
            };
            for t in divisor {
                if let Some(f) = &mut filter {
                    f.insert(t);
                }
                clusters[route(t, &divisor_all, nodes)].push(t.clone());
            }
            let participating: Vec<usize> = if empty_divisor {
                (0..nodes).collect()
            } else {
                (0..nodes).filter(|&i| !clusters[i].is_empty()).collect()
            };
            DivisorPlan {
                clusters,
                filter,
                participating,
                empty_divisor,
            }
        }
    }
}

/// The sending site's per-tuple routing decision, with accounting.
///
/// Strategy-agnostic: it routes on a key set, optionally tests a
/// bit-vector filter, and optionally drops tuples bound for sites that
/// hold no divisor fragment. Built from a [`DivisorPlan`] via
/// [`Router::for_strategy`] at the machine's scan site, which owns the
/// divisor.
#[derive(Debug)]
pub struct Router {
    route_keys: Vec<usize>,
    nodes: usize,
    filter: Option<(BitVectorFilter, Vec<usize>)>,
    /// `None` = every destination accepts tuples.
    accepts: Option<Vec<bool>>,
    /// Tuples dropped (filter misses + non-participating destinations).
    pub filtered: u64,
    /// Tuples routed to each node.
    pub per_node: Vec<u64>,
}

impl Router {
    /// A router over `nodes` destinations, hashing on `route_keys`.
    pub fn new(route_keys: Vec<usize>, nodes: usize) -> Router {
        Router {
            route_keys,
            nodes,
            filter: None,
            accepts: None,
            filtered: 0,
            per_node: vec![0; nodes],
        }
    }

    /// Drops tuples whose `filter_keys` projection misses `filter`.
    pub fn with_filter(mut self, filter: BitVectorFilter, filter_keys: Vec<usize>) -> Router {
        self.filter = Some((filter, filter_keys));
        self
    }

    /// Drops tuples bound for nodes outside `participating`.
    pub fn with_participants(mut self, participating: &[usize]) -> Router {
        let mut accepts = vec![false; self.nodes];
        for &node in participating {
            accepts[node] = true;
        }
        self.accepts = Some(accepts);
        self
    }

    /// The router a divisor-owning scan site uses for `strategy`.
    pub fn for_strategy(
        strategy: Strategy,
        spec: &DivisionSpec,
        nodes: usize,
        plan: &DivisorPlan,
    ) -> Router {
        match strategy {
            Strategy::QuotientPartitioning => Router::new(spec.quotient_keys.clone(), nodes),
            Strategy::DivisorPartitioning => {
                let mut router = Router::new(spec.divisor_keys.clone(), nodes);
                if !plan.empty_divisor {
                    if let Some(f) = &plan.filter {
                        router = router.with_filter(f.clone(), spec.divisor_keys.clone());
                    }
                    router = router.with_participants(&plan.participating);
                }
                router
            }
        }
    }

    /// Routes one dividend tuple: `Some(node)` to ship, `None` to drop
    /// (counted in [`Router::filtered`]).
    pub fn route(&mut self, t: &Tuple) -> Option<usize> {
        if let Some((f, keys)) = &self.filter {
            if !f.may_match(t, keys) {
                self.filtered += 1;
                return None;
            }
        }
        let node = route(t, &self.route_keys, self.nodes);
        if let Some(accepts) = &self.accepts {
            if !accepts[node] {
                // No divisor tuples live there; nothing to match.
                self.filtered += 1;
                return None;
            }
        }
        self.per_node[node] += 1;
        Some(node)
    }
}

/// The sending half a strategy needs from a transport: ship a divisor
/// fragment, ship a dividend batch, signal end-of-input. Implemented by
/// the thread machine's accounted channels; the TCP cluster ships over
/// its own links and does not use it.
pub trait Transport {
    /// Transport failure (infallible for in-process channels).
    type Error;
    /// Ships node `node` its divisor fragment (possibly empty).
    fn ship_divisor(&mut self, node: usize, tuples: Vec<Tuple>) -> Result<(), Self::Error>;
    /// Ships node `node` a batch of dividend tuples.
    fn ship_dividend(&mut self, node: usize, tuples: Vec<Tuple>) -> Result<(), Self::Error>;
    /// Tells node `node` its input is complete.
    fn end(&mut self, node: usize) -> Result<(), Self::Error>;
}

/// What the scan site measured while distributing one query's inputs.
#[derive(Debug, Clone)]
pub struct DistributionReport {
    /// Nodes whose local division can contribute quotient tuples.
    pub participating: Vec<usize>,
    /// The divisor was empty (vacuous-truth semantics).
    pub empty_divisor: bool,
    /// Dividend tuples dropped at the sending site.
    pub filtered_tuples: u64,
    /// Fill ratio of the bit-vector filter, if one was built.
    pub filter_fill_ratio: Option<f64>,
    /// Dividend tuples shipped to each node.
    pub per_node_dividend: Vec<u64>,
}

/// The generic scan-site driver: places the divisor, then streams the
/// dividend through a [`Router`] in `batch_size` batches over any
/// [`Transport`]. Only the thread machine runs it; the TCP cluster's
/// coordinator routes with the same [`crate::route`] hash, so both send
/// each tuple to the same node.
pub fn distribute<T: Transport>(
    transport: &mut T,
    dist: Distribution,
    spec: &DivisionSpec,
    dividend: &[Tuple],
    divisor: &[Tuple],
    divisor_arity: usize,
    batch_size: usize,
) -> Result<DistributionReport, T::Error> {
    let nodes = dist.nodes;
    let plan = plan_divisor(
        dist.strategy,
        nodes,
        dist.bit_vector_bits,
        divisor,
        divisor_arity,
    );
    let filter_fill_ratio = plan.filter.as_ref().map(BitVectorFilter::fill_ratio);
    for (node, cluster) in plan.clusters.iter().enumerate() {
        transport.ship_divisor(node, cluster.clone())?;
    }
    let mut router = Router::for_strategy(dist.strategy, spec, nodes, &plan);
    let batch_size = batch_size.max(1);
    let mut batches: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
    for t in dividend {
        if let Some(node) = router.route(t) {
            batches[node].push(t.clone());
            if batches[node].len() >= batch_size {
                transport.ship_dividend(node, std::mem::take(&mut batches[node]))?;
            }
        }
    }
    for (node, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            transport.ship_dividend(node, batch)?;
        }
        transport.end(node)?;
    }
    Ok(DistributionReport {
        participating: plan.participating,
        empty_divisor: plan.empty_divisor,
        filtered_tuples: router.filtered,
        filter_fill_ratio,
        per_node_dividend: router.per_node,
    })
}

/// The collection-phase division over node addresses (divisor
/// partitioning). Each participating node's quotient cluster carries the
/// node's address; a quotient value is in the final result iff tuples for
/// it arrived from *every* participating node. With an empty divisor
/// every node's cluster is vacuously complete, so a single tag suffices
/// (and duplicates across nodes still collapse to one output tuple).
pub struct CollectionSite {
    // The pool must outlive the table's reservations.
    _pool: MemoryPool,
    table: QuotientTable,
    dense: HashMap<usize, u32>,
    empty_divisor: bool,
}

impl CollectionSite {
    /// A collection site expecting clusters from `participating` nodes.
    pub fn new(
        quotient_schema: &Schema,
        participating: &[usize],
        empty_divisor: bool,
    ) -> crate::Result<CollectionSite> {
        let phase_count = if empty_divisor {
            1
        } else {
            participating.len() as u32
        };
        let pool = MemoryPool::unbounded();
        let table = QuotientTable::new(
            &pool,
            HashDivisionMode::Standard,
            phase_count,
            (0..quotient_schema.arity()).collect(),
            quotient_schema,
        )?;
        let dense = participating
            .iter()
            .enumerate()
            .map(|(i, &node)| (node, i as u32))
            .collect();
        Ok(CollectionSite {
            _pool: pool,
            table,
            dense,
            empty_divisor,
        })
    }

    /// Absorbs one tuple of node `node`'s quotient cluster. Tuples from
    /// non-participating nodes (which report empty clusters) are ignored.
    pub fn absorb(&mut self, node: usize, t: &Tuple) -> crate::Result<()> {
        let tag = if self.empty_divisor {
            0
        } else {
            match self.dense.get(&node) {
                Some(&tag) => tag,
                None => return Ok(()),
            }
        };
        self.table.absorb(t, Some(tag))?;
        Ok(())
    }

    /// Drains the completed quotient tuples.
    pub fn finish(mut self) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(t) = self.table.next_complete() {
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;

    fn spec2() -> DivisionSpec {
        DivisionSpec {
            quotient_keys: vec![0],
            divisor_keys: vec![1],
        }
    }

    fn qschema() -> Schema {
        Schema::new(vec![Field::int("sid")])
    }

    /// Records every transport call, and can fail on command.
    #[derive(Default)]
    struct RecordingTransport {
        divisor: Vec<(usize, usize)>,
        dividend: Vec<(usize, usize)>,
        ends: Vec<usize>,
        fail_on_dividend: bool,
    }

    impl Transport for RecordingTransport {
        type Error = &'static str;
        fn ship_divisor(&mut self, node: usize, tuples: Vec<Tuple>) -> Result<(), Self::Error> {
            self.divisor.push((node, tuples.len()));
            Ok(())
        }
        fn ship_dividend(&mut self, node: usize, tuples: Vec<Tuple>) -> Result<(), Self::Error> {
            if self.fail_on_dividend {
                return Err("link down");
            }
            self.dividend.push((node, tuples.len()));
            Ok(())
        }
        fn end(&mut self, node: usize) -> Result<(), Self::Error> {
            self.ends.push(node);
            Ok(())
        }
    }

    #[test]
    fn quotient_partitioning_replicates_the_divisor_everywhere() {
        let divisor: Vec<Tuple> = (0..5).map(|c| ints(&[c])).collect();
        let plan = plan_divisor(Strategy::QuotientPartitioning, 3, Some(1024), &divisor, 1);
        assert_eq!(plan.clusters.len(), 3);
        assert!(plan.clusters.iter().all(|c| c.len() == 5), "full replicas");
        assert!(plan.filter.is_none(), "no filter under replication");
        assert_eq!(plan.participating, vec![0, 1, 2]);
    }

    #[test]
    fn divisor_partitioning_clusters_are_disjoint_and_complete() {
        let divisor: Vec<Tuple> = (0..40).map(|c| ints(&[c])).collect();
        let plan = plan_divisor(Strategy::DivisorPartitioning, 4, None, &divisor, 1);
        let total: usize = plan.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 40, "every divisor tuple placed exactly once");
        for (node, cluster) in plan.clusters.iter().enumerate() {
            for t in cluster {
                assert_eq!(crate::partition::route(t, &[0], 4), node);
            }
        }
    }

    #[test]
    fn empty_divisor_builds_no_filter_and_everyone_participates() {
        let plan = plan_divisor(Strategy::DivisorPartitioning, 4, Some(4096), &[], 1);
        assert!(plan.empty_divisor);
        assert!(
            plan.filter.is_none(),
            "an empty filter would drop every vacuous candidate"
        );
        assert_eq!(plan.participating, vec![0, 1, 2, 3]);
    }

    #[test]
    fn router_drops_filter_misses_and_non_participants() {
        let divisor: Vec<Tuple> = (0..4).map(|c| ints(&[c])).collect();
        let plan = plan_divisor(Strategy::DivisorPartitioning, 8, Some(1 << 16), &divisor, 1);
        let mut router = Router::for_strategy(Strategy::DivisorPartitioning, &spec2(), 8, &plan);
        // Members always route somewhere participating.
        for c in 0..4 {
            let node = router.route(&ints(&[99, c])).expect("member must pass");
            assert!(plan.participating.contains(&node));
        }
        // A large sweep of non-members: all dropped (filter or
        // participation), never shipped.
        let mut dropped = 0;
        for c in 10_000..11_000 {
            if router.route(&ints(&[99, c])).is_none() {
                dropped += 1;
            }
        }
        assert!(dropped > 900, "sparse filter must drop non-members");
        assert_eq!(router.filtered, dropped);
    }

    #[test]
    fn distribute_batches_ships_everything_and_signals_end() {
        let dividend: Vec<Tuple> = (0..100)
            .flat_map(|s| (0..3).map(move |c| ints(&[s, c])))
            .collect();
        let divisor: Vec<Tuple> = (0..3).map(|c| ints(&[c])).collect();
        let mut t = RecordingTransport::default();
        let report = distribute(
            &mut t,
            Distribution {
                strategy: Strategy::QuotientPartitioning,
                nodes: 4,
                bit_vector_bits: None,
            },
            &spec2(),
            &dividend,
            &divisor,
            1,
            7,
        )
        .unwrap();
        assert_eq!(t.divisor.len(), 4, "one divisor replica per node");
        assert!(t.divisor.iter().all(|&(_, n)| n == 3));
        let shipped: usize = t.dividend.iter().map(|&(_, n)| n).sum();
        assert_eq!(shipped as u64, report.per_node_dividend.iter().sum::<u64>());
        assert_eq!(shipped, 300, "no tuple lost or duplicated");
        assert!(
            t.dividend.iter().all(|&(_, n)| n <= 7),
            "batch cap respected"
        );
        let mut ends = t.ends.clone();
        ends.sort_unstable();
        assert_eq!(ends, vec![0, 1, 2, 3], "every node sees end-of-input once");
    }

    #[test]
    fn distribute_surfaces_transport_errors() {
        let dividend: Vec<Tuple> = (0..10).map(|s| ints(&[s, 0])).collect();
        let divisor = vec![ints(&[0])];
        let mut t = RecordingTransport {
            fail_on_dividend: true,
            ..Default::default()
        };
        let err = distribute(
            &mut t,
            Distribution {
                strategy: Strategy::DivisorPartitioning,
                nodes: 2,
                bit_vector_bits: None,
            },
            &spec2(),
            &dividend,
            &divisor,
            1,
            1,
        )
        .unwrap_err();
        assert_eq!(err, "link down");
    }

    #[test]
    fn collection_site_requires_every_participating_node() {
        // Quotient value 7 arrives from both participating nodes (2 and
        // 5); value 8 only from node 2 → only 7 is complete.
        let mut site = CollectionSite::new(&qschema(), &[2, 5], false).unwrap();
        site.absorb(2, &ints(&[7])).unwrap();
        site.absorb(5, &ints(&[7])).unwrap();
        site.absorb(2, &ints(&[8])).unwrap();
        site.absorb(9, &ints(&[8])).unwrap(); // unknown node: ignored
        let mut got: Vec<i64> = site
            .finish()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn collection_site_empty_divisor_dedups_across_nodes() {
        let mut site = CollectionSite::new(&qschema(), &[0, 1, 2], true).unwrap();
        site.absorb(0, &ints(&[1])).unwrap();
        site.absorb(1, &ints(&[1])).unwrap();
        site.absorb(2, &ints(&[2])).unwrap();
        let mut got: Vec<i64> = site
            .finish()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn strategy_codes_round_trip() {
        for s in [
            Strategy::QuotientPartitioning,
            Strategy::DivisorPartitioning,
        ] {
            assert_eq!(Strategy::from_code(s.code()), Some(s));
        }
        assert_eq!(Strategy::from_code(9), None);
    }
}
