//! The simulated interconnection network: crossbeam channels with
//! message/tuple/byte accounting.
//!
//! Section 6 reasons about network activity as the scarce resource of a
//! shared-nothing machine ("network activity can become a bottleneck");
//! this module makes that activity observable so the benchmarks can show,
//! e.g., how much traffic bit-vector filtering saves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use reldiv_rel::Columns;

/// Counters shared by every port of one simulated network.
#[derive(Debug, Default)]
pub struct NetworkCounters {
    messages: AtomicU64,
    tuples: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time view of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages sent (batches count once).
    pub messages: u64,
    /// Tuples shipped.
    pub tuples: u64,
    /// Payload bytes shipped (record-width accounting).
    pub bytes: u64,
}

impl NetworkCounters {
    /// Reads the counters.
    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            messages: self.messages.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Which input of the division a message's rows belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Dividend rows.
    Dividend,
    /// Divisor rows.
    Divisor,
}

/// Messages from the scan site to a node.
#[derive(Debug)]
pub enum Message {
    /// Rows of one input: a dividend batch, or a node's whole divisor
    /// fragment (possibly empty).
    Rows(Role, Columns),
    /// No more input; produce your quotient cluster.
    End,
}

/// The sending half of an accounted link: every shipment counts one
/// message of its rows, each priced at `tuple_bytes`.
#[derive(Clone)]
pub struct Link<M> {
    sender: Sender<M>,
    counters: Arc<NetworkCounters>,
    tuple_bytes: usize,
}

impl<M> Link<M> {
    fn ship(&self, msg: M, tuples: usize) {
        let c = &self.counters;
        c.messages.fetch_add(1, Ordering::Relaxed);
        c.tuples.fetch_add(tuples as u64, Ordering::Relaxed);
        (c.bytes).fetch_add((tuples * self.tuple_bytes) as u64, Ordering::Relaxed);
        // Receiver hang-up just means the node failed; joining its thread
        // surfaces the error.
        let _ = self.sender.send(msg);
    }
}

/// A link from the scan site to one node.
pub type Port = Link<Message>;

impl Port {
    /// Ships a message, recording its size.
    pub fn send(&self, msg: Message) {
        let tuples = match &msg {
            Message::Rows(_, rows) => rows.cardinality(),
            Message::End => 0,
        };
        self.ship(msg, tuples);
    }
}

/// The result link: nodes ship `(node_id, quotient cluster)` back; the
/// shipment is also network traffic and is counted.
pub type ResultPort = Link<(usize, Columns)>;

impl ResultPort {
    /// Ships a node's quotient cluster to the collection site.
    pub fn send(&self, node: usize, rows: Columns) {
        let tuples = rows.cardinality();
        self.ship((node, rows), tuples);
    }
}

fn link<M>(tuple_bytes: usize, counters: &Arc<NetworkCounters>) -> (Link<M>, Receiver<M>) {
    let (sender, rx) = unbounded();
    let counters = counters.clone();
    (
        Link {
            sender,
            counters,
            tuple_bytes,
        },
        rx,
    )
}

/// Builds `n` node links. `tuple_bytes` prices each shipped tuple (the
/// record width of the relation being shipped dominates; we charge the
/// dividend width).
pub fn build_links(
    n: usize,
    tuple_bytes: usize,
    counters: &Arc<NetworkCounters>,
) -> (Vec<Port>, Vec<Receiver<Message>>) {
    (0..n).map(|_| link(tuple_bytes, counters)).unzip()
}

/// Builds the shared result link.
pub fn build_result_link(
    tuple_bytes: usize,
    counters: &Arc<NetworkCounters>,
) -> (ResultPort, Receiver<(usize, Columns)>) {
    link(tuple_bytes, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Field, Schema, Tuple};

    fn rows(tuples: &[Tuple]) -> Columns {
        let arity = tuples.first().map_or(1, Tuple::arity);
        let schema = Schema::new((0..arity).map(|i| Field::int(format!("c{i}"))).collect());
        Columns::from_tuples(schema, tuples).unwrap()
    }

    #[test]
    fn sends_are_counted_in_messages_tuples_and_bytes() {
        let counters = Arc::new(NetworkCounters::default());
        let (ports, receivers) = build_links(2, 16, &counters);
        ports[0].send(Message::Rows(
            Role::Dividend,
            rows(&[ints(&[1, 2]), ints(&[3, 4])]),
        ));
        ports[1].send(Message::End);
        let stats = counters.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.tuples, 2);
        assert_eq!(stats.bytes, 32);
        assert!(matches!(
            receivers[0].recv().unwrap(),
            Message::Rows(Role::Dividend, v) if v.cardinality() == 2
        ));
        assert!(matches!(receivers[1].recv().unwrap(), Message::End));
    }

    #[test]
    fn result_shipments_are_counted_too() {
        let counters = Arc::new(NetworkCounters::default());
        let (port, rx) = build_result_link(8, &counters);
        port.clone().send(3, rows(&[ints(&[9])]));
        let (node, rows) = rx.recv().unwrap();
        assert_eq!(node, 3);
        assert_eq!(rows.cardinality(), 1);
        assert_eq!(counters.stats().bytes, 8);
    }
}
