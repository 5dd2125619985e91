//! Section 6, written once: the phase driver both backends run.
//!
//! [`Driver::run`] makes every strategy decision in one place — where the
//! divisor goes, whether a bit-vector filter is built, which nodes
//! participate, how the dividend is routed, and how the node results are
//! collected. It moves no rows itself: a [`Transport`] does, through
//! three primitives — place a relation's rows on keys (or everywhere),
//! build a filter per fragment, divide the fragments. Two transports
//! implement it: the thread machine's accounted channels
//! ([`crate::parallel_divide`]) and the TCP cluster's node links
//! (`reldiv-cluster`'s coordinator, every send through its failover
//! driver). Rows travel as column batches, routed a batch at a time by
//! [`crate::partition::scatter`].
//!
//! The collection phase of divisor partitioning is [`CollectionSite`]:
//! "the collection site divides the set of all incoming tuples over the
//! set of processor network addresses", on hash-division's own quotient
//! table with each node's dense tag as the bit index.

use std::collections::HashMap;
use std::time::Duration;

use reldiv_core::hash_division::{HashDivisionMode, QuotientTable};
use reldiv_core::{DivisionSpec, ExecError, ProfileNode, QueryProfile, SpanKind};
use reldiv_rel::counters::OpSnapshot;
use reldiv_rel::{Batch, Columns, Schema};
use reldiv_storage::MemoryPool;

use crate::filter::BitVectorFilter;
use crate::partition::scatter;

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

/// How one placement phase sends a relation's rows across the nodes.
pub struct Route<'a, R> {
    /// `None` replicates every row to every node; `Some(keys)` sends a row
    /// to the node its hash on `keys` names ([`crate::route_hash`]).
    pub keys: Option<&'a [usize]>,
    /// A filter tested at the sending site on the routing hash, with the
    /// relation it was built over: rows that miss it are dropped and
    /// counted.
    pub filter: Option<(&'a BitVectorFilter, &'a R)>,
    /// The nodes that take rows; rows bound for any other node are
    /// dropped and counted. `None`: every node.
    pub participants: Option<&'a [usize]>,
}

/// What a placement phase did.
pub struct Placed<R> {
    /// The placed relation, as the transport names it.
    pub rel: R,
    /// Rows each node received (every row, on every node, when
    /// replicated).
    pub per_node: Vec<u64>,
    /// Rows dropped at the senders: filter misses and rows bound for
    /// non-participating nodes.
    pub filtered: u64,
}

/// One fragment's local hash-division, as the node that ran it reports.
#[derive(Debug, Clone)]
pub struct Partial {
    /// The fragment (node address) the quotient cluster belongs to.
    pub fragment: usize,
    /// The node that divided it (another holder after a failover).
    pub node: usize,
    /// The fragment's quotient cluster.
    pub rows: Columns,
    /// Dividend rows the node divided, when the transport knows them.
    pub tuples_in: u64,
    /// Abstract operations of the local division.
    pub ops: OpSnapshot,
    /// Wall time of the local division, in microseconds.
    pub micros: u64,
    /// Bytes on the serving node's link during the query (0 on the
    /// thread machine, whose channels are counted as one network).
    pub network_bytes: u64,
    /// The node's own span tree, when one was asked for.
    pub profile: Option<QueryProfile>,
}

/// The phases a backend runs for the driver. Rows move as column
/// batches; each primitive is one of Section 6's phases.
pub trait Transport {
    /// How the transport names a relation: the rows themselves at the
    /// thread machine's scan site, a catalog name at the coordinator.
    type Rel: Clone;
    /// Transport failure; collection failures arrive as [`ExecError`].
    type Error: From<ExecError>;
    /// Number of nodes.
    fn nodes(&self) -> usize;
    /// The keys `rel` is already hash-placed on across the nodes, if any.
    fn placed_on(&self, rel: &Self::Rel) -> Option<Vec<usize>>;
    /// Whether `rel` has no rows.
    fn is_empty(&self, rel: &Self::Rel) -> bool;
    /// Places `rel`'s rows on the nodes as `route` says.
    fn place(
        &mut self,
        rel: &Self::Rel,
        route: Route<'_, Self::Rel>,
    ) -> Result<Placed<Self::Rel>, Self::Error>;
    /// Builds a `bits`-bit filter over each fragment of `rel`, hashed on
    /// `keys`.
    fn build_filters(
        &mut self,
        rel: &Self::Rel,
        keys: &[usize],
        bits: usize,
    ) -> Result<Vec<BitVectorFilter>, Self::Error>;
    /// Runs one local hash-division per fragment in `fragments`, over the
    /// placed dividend and divisor.
    fn divide(
        &mut self,
        dividend: &Self::Rel,
        divisor: &Self::Rel,
        spec: &DivisionSpec,
        fragments: &[usize],
    ) -> Result<Vec<Partial>, Self::Error>;
}

/// Section 6's choices for one query.
#[derive(Debug, Clone, Copy)]
pub struct Driver {
    /// The strategy to run.
    pub strategy: Strategy,
    /// Bit-vector filter size (divisor partitioning only).
    pub bit_vector_bits: Option<usize>,
    /// Collection sites for divisor partitioning: more than one
    /// quotient-partitions the tagged node results across sites, each in
    /// its own thread (Section 6's decentralized collection).
    pub collection_sites: usize,
}

/// What one run did, the same for both transports.
#[derive(Debug, Clone)]
pub struct Run {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Nodes the query ran over.
    pub nodes: usize,
    /// Fragments whose local division can contribute: every node under
    /// quotient partitioning or an empty divisor, else the nodes holding
    /// divisor rows.
    pub participating: Vec<usize>,
    /// Dividend rows dropped at the senders.
    pub filtered_tuples: u64,
    /// Fill ratio of the merged bit-vector filter, if one was built.
    pub filter_fill_ratio: Option<f64>,
    /// One entry per participating fragment.
    pub partials: Vec<Partial>,
    /// The quotient.
    pub quotient: Columns,
}

impl Driver {
    /// Runs `dividend ÷ divisor` over `transport`; `quotient` is the
    /// quotient's schema.
    pub fn run<T: Transport>(
        &self,
        transport: &mut T,
        dividend: &T::Rel,
        divisor: &T::Rel,
        spec: &DivisionSpec,
        quotient: &Schema,
    ) -> Result<Run, T::Error> {
        let nodes = transport.nodes();
        let every: Vec<usize> = (0..nodes).collect();
        let empty_divisor = transport.is_empty(divisor);
        let everywhere = || Route {
            keys: None,
            filter: None,
            participants: None,
        };
        let (dividend, divisor, participating, filter, filtered) = match self.strategy {
            Strategy::QuotientPartitioning => {
                // Correct only when no quotient value spans nodes: route
                // the dividend on the quotient keys unless it already
                // lives that way.
                let (dividend, filtered) = match transport.placed_on(dividend) {
                    Some(keys) if keys == spec.quotient_keys => (dividend.clone(), 0),
                    _ => {
                        let on = Some(&spec.quotient_keys[..]);
                        let placed = transport.place(
                            dividend,
                            Route {
                                keys: on,
                                ..everywhere()
                            },
                        )?;
                        (placed.rel, placed.filtered)
                    }
                };
                // "The divisor table must be replicated in the main memory
                // of all participating processors."
                let divisor = transport.place(divisor, everywhere())?.rel;
                (dividend, divisor, every, None, filtered)
            }
            Strategy::DivisorPartitioning => {
                // Hash-cluster the divisor on all its columns. A filter is
                // built only over a non-empty divisor: an empty one would
                // drop every vacuous candidate.
                let all: Vec<usize> = (0..spec.divisor_keys.len()).collect();
                let filter = match self.bit_vector_bits {
                    Some(bits) if !empty_divisor => {
                        let fragments = transport.build_filters(divisor, &all, bits)?;
                        Some(union(fragments)?)
                    }
                    _ => None,
                };
                let placed = transport.place(
                    divisor,
                    Route {
                        keys: Some(&all),
                        ..everywhere()
                    },
                )?;
                // Only nodes holding divisor rows can produce quotient
                // rows; with an empty divisor every node does.
                let participating = match empty_divisor {
                    true => every,
                    false => (0..nodes).filter(|&n| placed.per_node[n] > 0).collect(),
                };
                let route = Route {
                    keys: Some(&spec.divisor_keys[..]),
                    filter: filter.as_ref().map(|f| (f, divisor)),
                    participants: Some(&participating[..]),
                };
                let dividend = transport.place(dividend, route)?;
                (
                    dividend.rel,
                    placed.rel,
                    participating,
                    filter,
                    dividend.filtered,
                )
            }
        };
        let partials = transport.divide(&dividend, &divisor, spec, &participating)?;
        let quotient = self.collect(&partials, &participating, empty_divisor, quotient)?;
        Ok(Run {
            strategy: self.strategy,
            nodes,
            participating,
            filtered_tuples: filtered,
            filter_fill_ratio: filter.as_ref().map(BitVectorFilter::fill_ratio),
            partials,
            quotient,
        })
    }

    /// The collection phase: quotient clusters are disjoint under quotient
    /// partitioning, so they concatenate; under divisor partitioning a
    /// quotient value survives only if every participating fragment
    /// reported it.
    fn collect(
        &self,
        partials: &[Partial],
        participating: &[usize],
        empty_divisor: bool,
        quotient: &Schema,
    ) -> Result<Columns, ExecError> {
        let tagged = partials
            .iter()
            .flat_map(|p| p.rows.batches().iter().map(move |b| (p.fragment, b)));
        let sites = self.collection_sites.max(1);
        let site = |fed: Vec<(usize, &Batch)>| {
            let mut site = CollectionSite::new(quotient, participating, empty_divisor)?;
            for (fragment, batch) in fed {
                site.absorb(fragment, batch)?;
            }
            Ok::<_, ExecError>(site.finish())
        };
        let batches = match self.strategy {
            Strategy::QuotientPartitioning => tagged.map(|(_, b)| b.clone()).collect(),
            Strategy::DivisorPartitioning if sites == 1 => vec![site(tagged.collect())?],
            Strategy::DivisorPartitioning => {
                // Decentralized: each site divides a quotient-hash
                // partition of the tagged rows, in its own thread.
                let keys: Vec<usize> = (0..quotient.arity()).collect();
                let mut fed: Vec<Vec<(usize, Batch)>> = vec![Vec::new(); sites];
                for (fragment, batch) in tagged {
                    let rows = scatter(batch, &keys, sites, None, None).rows;
                    for (feed, rows) in fed.iter_mut().zip(rows) {
                        feed.push((fragment, batch.gather(&rows)));
                    }
                }
                let site = &site;
                std::thread::scope(|s| {
                    let handles: Vec<_> = (fed.iter())
                        .map(|feed| {
                            s.spawn(move || site(feed.iter().map(|(f, b)| (*f, b)).collect()))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .map_err(|_| ExecError::Plan("collection site panicked".into()))?
                        })
                        .collect::<Result<Vec<_>, _>>()
                })?
            }
        };
        Ok(Columns::from_batches(quotient.clone(), batches))
    }
}

/// ORs the per-fragment filters into one.
fn union(fragments: Vec<BitVectorFilter>) -> Result<BitVectorFilter, ExecError> {
    let mut fragments = fragments.into_iter();
    let mut merged = fragments
        .next()
        .ok_or_else(|| ExecError::Plan("a filter needs at least one fragment".into()))?;
    for f in fragments {
        if !merged.union(&f) {
            let (a, b) = (merged.bits(), f.bits());
            return Err(ExecError::Plan(format!(
                "filter geometry mismatch: {a} vs {b} bits"
            )));
        }
    }
    Ok(merged)
}

impl Run {
    /// The run as one `EXPLAIN ANALYZE` tree: a network root named
    /// `"{site} division (n nodes)"` carrying the query's traffic and wall
    /// time, with one span per participating fragment carrying its
    /// serving node's measurements and, beneath it, the node's own span
    /// tree when there is one.
    pub fn profile(&self, site: &str, network_bytes: u64, elapsed: Duration) -> QueryProfile {
        let label = format!("{site} division ({} nodes)", self.nodes);
        let mut root = ProfileNode::new(label, SpanKind::Network);
        for p in &self.partials {
            let mut node = ProfileNode::new(format!("node {}", p.node), SpanKind::Node);
            node.wall_micros = p.micros;
            node.tuples_in = p.tuples_in;
            node.tuples_out = p.rows.cardinality() as u64;
            node.ops = p.ops;
            node.network_bytes = p.network_bytes;
            node.children.extend(p.profile.clone().map(|q| q.root));
            root.tuples_in += node.tuples_in;
            root.tuples_out += node.tuples_out;
            root.ops = root.ops.merge(&node.ops);
            root.children.push(node);
        }
        root.wall_micros = elapsed.as_micros() as u64;
        root.network_bytes = network_bytes;
        root.phases = vec![
            format!(
                "{} of {} nodes participating",
                self.participating.len(),
                self.nodes
            ),
            format!("{:?}", self.strategy),
        ];
        let dropped = self.filtered_tuples;
        if let Some(fill) = self.filter_fill_ratio {
            let phase = format!("bit-vector filter dropped {dropped} tuples (fill {fill:.2})");
            root.phases.push(phase);
        } else if dropped > 0 {
            let phase = format!("{dropped} tuples bound for non-participating nodes dropped");
            root.phases.push(phase);
        }
        QueryProfile { root }
    }
}

/// The collection-phase division over node addresses (divisor
/// partitioning). Each participating node's quotient cluster carries the
/// node's address; a quotient value is in the final result iff rows for
/// it arrived from *every* participating node. With an empty divisor
/// every node's cluster is vacuously complete, so a single tag suffices
/// (and duplicates across nodes still collapse to one output row).
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

    /// Absorbs a batch of node `node`'s quotient cluster. Rows from
    /// non-participating nodes (which report empty clusters) are ignored.
    pub fn absorb(&mut self, node: usize, batch: &Batch) -> crate::Result<()> {
        let tag = match (self.empty_divisor, self.dense.get(&node)) {
            (true, _) => 0,
            (false, Some(&tag)) => tag,
            (false, None) => return Ok(()),
        };
        let rows: Vec<usize> = (0..batch.len()).collect();
        self.table
            .absorb_rows(batch, &rows, &vec![Some(tag); rows.len()])?;
        Ok(())
    }

    /// The completed quotient rows.
    pub fn finish(mut self) -> Batch {
        let done: Vec<usize> = std::iter::from_fn(|| self.table.next_complete_row()).collect();
        self.table.rows(&done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Relation, Tuple};

    use crate::ClusterConfig;

    fn spec2() -> DivisionSpec {
        DivisionSpec {
            quotient_keys: vec![0],
            divisor_keys: vec![1],
        }
    }

    fn qschema() -> Schema {
        Schema::new(vec![Field::int("sid")])
    }

    fn columns(arity: usize, rows: &[Vec<i64>]) -> Columns {
        let fields = (0..arity).map(|i| Field::int(format!("c{i}"))).collect();
        let tuples: Vec<Tuple> = rows.iter().map(|r| ints(r)).collect();
        Columns::from_tuples(Schema::new(fields), &tuples).unwrap()
    }

    fn batch(rows: &[i64]) -> Batch {
        let one: Vec<Vec<i64>> = rows.iter().map(|&r| vec![r]).collect();
        columns(1, &one).batches()[0].clone()
    }

    fn ids(columns: &Columns) -> Vec<i64> {
        let mut ids: Vec<i64> = (columns.tuples())
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// One recorded placement: rows placed, routing keys, rows dropped,
    /// participants.
    type Placement = (usize, Option<Vec<usize>>, u64, Option<Vec<usize>>);

    /// Holds every relation whole, records every phase, divides nothing
    /// (each fragment's quotient is every dividend id it was sent), and
    /// can fail on command.
    #[derive(Default)]
    struct RecordingTransport {
        nodes: usize,
        placed_on: Option<Vec<usize>>,
        placements: Vec<Placement>,
        filters_built: usize,
        divided: Vec<Vec<usize>>,
        fail_on_place: bool,
    }

    impl Transport for RecordingTransport {
        type Rel = Columns;
        type Error = ExecError;
        fn nodes(&self) -> usize {
            self.nodes
        }
        fn placed_on(&self, _: &Columns) -> Option<Vec<usize>> {
            self.placed_on.clone()
        }
        fn is_empty(&self, rel: &Columns) -> bool {
            rel.cardinality() == 0
        }
        fn place(
            &mut self,
            rel: &Columns,
            route: Route<'_, Columns>,
        ) -> crate::Result<Placed<Columns>> {
            if self.fail_on_place {
                return Err(ExecError::Plan("link down".into()));
            }
            let mut per_node = vec![rel.cardinality() as u64; self.nodes];
            let mut filtered = 0;
            if let Some(keys) = route.keys {
                per_node = vec![0; self.nodes];
                let accepts = route
                    .participants
                    .map(|p| (0..self.nodes).map(|n| p.contains(&n)).collect::<Vec<_>>());
                for b in rel.batches() {
                    let s = scatter(
                        b,
                        keys,
                        self.nodes,
                        route.filter.map(|f| f.0),
                        accepts.as_deref(),
                    );
                    filtered += s.dropped;
                    for (n, rows) in s.rows.iter().enumerate() {
                        per_node[n] += rows.len() as u64;
                    }
                }
            }
            let keys = route.keys.map(<[usize]>::to_vec);
            let participants = route.participants.map(<[usize]>::to_vec);
            self.placements
                .push((rel.cardinality(), keys, filtered, participants));
            Ok(Placed {
                rel: rel.clone(),
                per_node,
                filtered,
            })
        }
        fn build_filters(
            &mut self,
            rel: &Columns,
            keys: &[usize],
            bits: usize,
        ) -> crate::Result<Vec<BitVectorFilter>> {
            self.filters_built += 1;
            Ok(vec![BitVectorFilter::over(bits, rel, keys)])
        }
        fn divide(
            &mut self,
            dividend: &Columns,
            _: &Columns,
            spec: &DivisionSpec,
            fragments: &[usize],
        ) -> crate::Result<Vec<Partial>> {
            self.divided.push(fragments.to_vec());
            let quotient = |b: &Batch| b.project(&spec.quotient_keys).unwrap();
            Ok(fragments
                .iter()
                .map(|&fragment| Partial {
                    fragment,
                    node: fragment,
                    rows: Columns::from_batches(
                        qschema(),
                        dividend.batches().iter().map(quotient).collect(),
                    ),
                    tuples_in: 0,
                    ops: OpSnapshot::default(),
                    micros: 0,
                    network_bytes: 0,
                    profile: None,
                })
                .collect())
        }
    }

    fn driver(strategy: Strategy, bits: Option<usize>) -> Driver {
        Driver {
            strategy,
            bit_vector_bits: bits,
            collection_sites: 1,
        }
    }

    fn dividend() -> Columns {
        let rows: Vec<Vec<i64>> = (0..100)
            .flat_map(|s| (0..3).map(move |c| vec![s, c]))
            .collect();
        columns(2, &rows)
    }

    #[test]
    fn quotient_partitioning_replicates_the_divisor_everywhere() {
        let mut t = RecordingTransport {
            nodes: 3,
            ..Default::default()
        };
        let divisor = columns(1, &[vec![0], vec![1], vec![2]]);
        let run = driver(Strategy::QuotientPartitioning, Some(1024))
            .run(&mut t, &dividend(), &divisor, &spec2(), &qschema())
            .unwrap();
        assert_eq!(t.placements.len(), 2, "dividend routed, divisor replicated");
        assert_eq!(
            t.placements[0],
            (300, Some(vec![0]), 0, None),
            "on the quotient keys"
        );
        assert_eq!(t.placements[1], (3, None, 0, None), "full replicas");
        assert_eq!(t.filters_built, 0, "no filter under replication");
        assert_eq!(run.participating, vec![0, 1, 2]);
        assert_eq!(t.divided, vec![vec![0, 1, 2]]);
        // A dividend already placed on the quotient keys stays put.
        t.placed_on = Some(vec![0]);
        t.placements.clear();
        driver(Strategy::QuotientPartitioning, None)
            .run(&mut t, &dividend(), &divisor, &spec2(), &qschema())
            .unwrap();
        assert_eq!(t.placements, vec![(3, None, 0, None)]);
    }

    #[test]
    fn divisor_partitioning_clusters_are_disjoint_and_complete() {
        let rows: Vec<i64> = (0..40).collect();
        let b = batch(&rows);
        let placed = scatter(&b, &[0], 4, None, None);
        assert_eq!(placed.dropped, 0);
        let total: usize = placed.rows.iter().map(Vec::len).sum();
        assert_eq!(total, 40, "every divisor row placed exactly once");
        for (node, cluster) in placed.rows.iter().enumerate() {
            for &row in cluster {
                assert_eq!(crate::partition::route(&b.tuple(row), &[0], 4), node);
            }
        }
    }

    #[test]
    fn empty_divisor_builds_no_filter_and_everyone_participates() {
        let mut t = RecordingTransport {
            nodes: 4,
            ..Default::default()
        };
        let run = driver(Strategy::DivisorPartitioning, Some(4096))
            .run(&mut t, &dividend(), &columns(1, &[]), &spec2(), &qschema())
            .unwrap();
        assert_eq!(
            t.filters_built, 0,
            "an empty filter would drop every vacuous candidate"
        );
        assert!(run.filter_fill_ratio.is_none());
        assert_eq!(run.participating, vec![0, 1, 2, 3]);
        assert_eq!(run.filtered_tuples, 0);
        assert_eq!(ids(&run.quotient), (0..100).collect::<Vec<_>>(), "vacuous");
    }

    #[test]
    fn router_drops_filter_misses_and_non_participants() {
        let mut filter = BitVectorFilter::new(1 << 16);
        (0..4).for_each(|c| filter.insert_hash(ints(&[c]).hash_on(&[0])));
        // The participants are the nodes the four divisor rows land on.
        let divisor = scatter(&batch(&[0, 1, 2, 3]), &[0], 8, None, None);
        let accepts: Vec<bool> = divisor.rows.iter().map(|r| !r.is_empty()).collect();
        // Members pass the filter and always land on a participant.
        let members = columns(2, &(0..4).map(|c| vec![99, c]).collect::<Vec<_>>());
        let b = &members.batches()[0];
        let s = scatter(b, &[1], 8, Some(&filter), Some(&accepts));
        assert_eq!(s.dropped, 0, "members must pass");
        assert_eq!(s.rows.iter().map(Vec::len).sum::<usize>(), 4);
        for (node, rows) in s.rows.iter().enumerate() {
            assert!(
                rows.is_empty() || accepts[node],
                "member on a non-participant"
            );
        }
        // A large sweep of non-members: all dropped (filter or
        // participation), never shipped, and every drop counted.
        let sweep: Vec<Vec<i64>> = (10_000..11_000).map(|c| vec![99, c]).collect();
        let sweep = columns(2, &sweep);
        let (mut dropped, mut shipped) = (0, 0);
        for b in sweep.batches() {
            let s = scatter(b, &[1], 8, Some(&filter), Some(&accepts));
            dropped += s.dropped;
            for (node, rows) in s.rows.iter().enumerate() {
                assert!(
                    rows.is_empty() || accepts[node],
                    "shipped to a non-participant"
                );
                shipped += rows.len() as u64;
            }
        }
        assert!(dropped > 900, "sparse filter must drop non-members");
        assert_eq!(dropped + shipped, 1000);
    }

    #[test]
    fn divisor_partitioning_filters_the_divisor_then_routes_the_dividend() {
        let mut t = RecordingTransport {
            nodes: 4,
            ..Default::default()
        };
        let divisor = columns(1, &(0..6).map(|c| vec![c]).collect::<Vec<_>>());
        let run = driver(Strategy::DivisorPartitioning, Some(4096))
            .run(&mut t, &dividend(), &divisor, &spec2(), &qschema())
            .unwrap();
        assert_eq!(t.filters_built, 1, "one filter over the divisor");
        let (cards, keys): (Vec<usize>, Vec<_>) =
            t.placements.iter().map(|p| (p.0, p.1.clone())).unzip();
        assert_eq!(cards, vec![6, 300], "divisor first, then the dividend");
        assert_eq!(keys, vec![Some(vec![0]), Some(vec![1])]);
        let (_, _, filtered, participants) = &t.placements[1];
        assert_eq!(participants.as_ref(), Some(&run.participating));
        assert_eq!(*filtered, run.filtered_tuples);
        assert_eq!(
            t.divided,
            vec![run.participating.clone()],
            "one division round"
        );
        assert_eq!(run.partials.len(), run.participating.len());
    }

    #[test]
    fn distribute_batches_ships_everything_and_signals_end() {
        // The thread machine's channels, 7 rows to a dividend message:
        // every node gets one divisor message and one End and sends one
        // result, so the message count pins the batch cap and the End
        // signalling, and the tuple count pins that no row is lost or
        // shipped twice.
        let (nodes, batch_size) = (5, 7);
        let mut rows: Vec<Vec<i64>> = Vec::new();
        for s in 0..100 {
            rows.extend((0..=s % 5).map(|c| vec![s, c]));
            rows.push(vec![s, 500 + s]); // noise, matches nothing
        }
        let relation = |arity, rows: &[Vec<i64>]| {
            let c = columns(arity, rows);
            Relation::from_tuples(c.schema().clone(), c.tuples().collect()).unwrap()
        };
        let dividend = relation(2, &rows);
        let divisor = relation(1, &[vec![0], vec![1], vec![2]]);
        let serial: Vec<i64> = (0..100).filter(|s| s % 5 >= 2).collect();
        for (strategy, bits) in [
            (Strategy::QuotientPartitioning, None),
            (Strategy::DivisorPartitioning, None),
            (Strategy::DivisorPartitioning, Some(4096)),
        ] {
            let config = ClusterConfig {
                nodes,
                strategy,
                batch_size,
                bit_vector_bits: bits,
                ..Default::default()
            };
            let (quotient, report) =
                crate::parallel_divide(&dividend, &divisor, &spec2(), &config).unwrap();
            let case = format!("{strategy:?}, filter {bits:?}");
            let got: Vec<i64> = (quotient.tuples().iter())
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, serial, "{case}");
            assert_eq!(got.len(), serial.len(), "{case}: no duplicates");
            let shipped: u64 = report.per_node_dividend.iter().sum();
            assert_eq!(
                shipped + report.filtered_tuples,
                dividend.cardinality() as u64,
                "{case}: every dividend row shipped once or dropped"
            );
            let dividend_messages: u64 = (report.per_node_dividend.iter())
                .map(|&n| n.div_ceil(batch_size as u64))
                .sum();
            assert_eq!(
                report.network.messages,
                dividend_messages + 3 * nodes as u64,
                "{case}: batch cap, one divisor message, End and result per node"
            );
            let divisor_rows = match strategy {
                Strategy::QuotientPartitioning => 3 * nodes as u64,
                Strategy::DivisorPartitioning => 3,
            };
            assert_eq!(
                report.network.tuples,
                shipped + divisor_rows + report.profile.root.tuples_out,
                "{case}: dividend, divisor and quotient rows each shipped once"
            );
            match strategy {
                Strategy::QuotientPartitioning => {
                    assert_eq!(report.filtered_tuples, 0, "{case}");
                    assert_eq!(report.participating_nodes, nodes, "{case}");
                }
                Strategy::DivisorPartitioning => {
                    assert!(report.participating_nodes <= 3, "{case}");
                    assert!(report.filtered_tuples > 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn distribute_surfaces_transport_errors() {
        let mut t = RecordingTransport {
            nodes: 2,
            fail_on_place: true,
            ..Default::default()
        };
        let err = driver(Strategy::DivisorPartitioning, None)
            .run(
                &mut t,
                &dividend(),
                &columns(1, &[vec![0]]),
                &spec2(),
                &qschema(),
            )
            .unwrap_err();
        assert_eq!(err, ExecError::Plan("link down".into()));
        assert!(t.divided.is_empty(), "no division after a failed phase");
    }

    #[test]
    fn collection_site_requires_every_participating_node() {
        // Quotient value 7 arrives from both participating nodes (2 and
        // 5); value 8 only from node 2 → only 7 is complete.
        let mut site = CollectionSite::new(&qschema(), &[2, 5], false).unwrap();
        site.absorb(2, &batch(&[7, 8])).unwrap();
        site.absorb(5, &batch(&[7])).unwrap();
        site.absorb(9, &batch(&[8])).unwrap(); // unknown node: ignored
        let got = Columns::from_batches(qschema(), vec![site.finish()]);
        assert_eq!(ids(&got), vec![7]);
    }

    #[test]
    fn collection_site_empty_divisor_dedups_across_nodes() {
        let mut site = CollectionSite::new(&qschema(), &[0, 1, 2], true).unwrap();
        site.absorb(0, &batch(&[1])).unwrap();
        site.absorb(1, &batch(&[1])).unwrap();
        site.absorb(2, &batch(&[2])).unwrap();
        let got = Columns::from_batches(qschema(), vec![site.finish()]);
        assert_eq!(ids(&got), vec![1, 2]);
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
