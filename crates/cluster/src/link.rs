//! A counted TCP link to one node.
//!
//! The paper's Section 6 argument is about *network traffic*: how many
//! tuples each strategy ships, and how much bit-vector filtering saves.
//! Every frame a [`NodeLink`] sends or receives is therefore counted —
//! messages and bytes, per direction, per link — so a cluster run can
//! report exactly what crossed each wire.
//!
//! Reads carry a deadline. A node that dies mid-query (process killed,
//! cable pulled) surfaces as a typed [`ClusterError::NodeFailed`] when
//! the read times out or the socket breaks — never as a hang. The
//! failure is classified ([`FailureKind`]) so the coordinator's failover
//! driver can tell a refused connection (node down before the request)
//! from a mid-stream sever (node died *during* it), and a link can be
//! [`reconnect`](NodeLink::reconnect)ed in place for a retry without
//! losing its traffic counters.
//!
//! Any transport failure marks the link *dirty*: the socket may still
//! carry a late reply from the failed exchange (a slow-but-alive node
//! eventually answers a timed-out request), and reading that frame would
//! answer a *different* request with stale data. A dirty link replaces
//! its socket before the next call, so a stale frame can never be
//! mistaken for the reply to the request that follows.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use reldiv_service::proto::{self, Reply, Request};

use crate::health::FailureKind;
use crate::{ClusterError, Result};

/// Per-link traffic counters. Byte counts cover the whole frame: the
/// 4-byte length prefix plus the payload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames sent to the node.
    pub messages_sent: u64,
    /// Bytes sent to the node.
    pub bytes_sent: u64,
    /// Frames received from the node.
    pub messages_received: u64,
    /// Bytes received from the node.
    pub bytes_received: u64,
}

impl LinkStats {
    /// Totals of both directions: `(messages, bytes)`.
    pub fn total(&self) -> (u64, u64) {
        (
            self.messages_sent + self.messages_received,
            self.bytes_sent + self.bytes_received,
        )
    }

    /// The traffic since `before`, an earlier reading of the same link.
    pub fn since(&self, before: &LinkStats) -> LinkStats {
        LinkStats {
            messages_sent: self.messages_sent - before.messages_sent,
            bytes_sent: self.bytes_sent - before.bytes_sent,
            messages_received: self.messages_received - before.messages_received,
            bytes_received: self.bytes_received - before.bytes_received,
        }
    }

    /// Accumulates another link's counters into this one.
    pub fn absorb(&mut self, other: &LinkStats) {
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_received += other.messages_received;
        self.bytes_received += other.bytes_received;
    }
}

/// Classifies an I/O error for failover decisions.
fn classify_io(e: &io::Error) -> FailureKind {
    match e.kind() {
        io::ErrorKind::ConnectionRefused => FailureKind::Refused,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FailureKind::Timeout,
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => FailureKind::Severed,
        _ => FailureKind::Other,
    }
}

/// One coordinator → node connection with traffic accounting and a read
/// deadline.
pub struct NodeLink {
    node: usize,
    addr: SocketAddr,
    read_timeout: Option<Duration>,
    stream: TcpStream,
    /// A transport failure left the stream in an unknown position (a
    /// late reply may still arrive on it); the next call must reconnect
    /// before trusting anything it reads.
    dirty: bool,
    stats: LinkStats,
}

impl NodeLink {
    /// Connects to the node at `addr`. `read_timeout` bounds every reply
    /// wait; `None` waits forever (tests only — a real deployment should
    /// always bound it).
    pub fn connect(
        node: usize,
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
    ) -> Result<NodeLink> {
        let fail =
            |kind: FailureKind, detail: String| ClusterError::NodeFailed { node, kind, detail };
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| fail(FailureKind::Other, format!("bad address: {e}")))?
            .next()
            .ok_or_else(|| fail(FailureKind::Other, "address resolves to nothing".into()))?;
        let stream = open_stream(node, addr, read_timeout)?;
        Ok(NodeLink {
            node,
            addr,
            read_timeout,
            stream,
            dirty: false,
            stats: LinkStats::default(),
        })
    }

    /// The node index this link serves.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The node's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The read deadline this link was created with.
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    /// Whether a transport failure left the stream untrustworthy, so the
    /// next [`call`](NodeLink::call) will reconnect before sending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Renumbers the link after a membership change (node indices are
    /// positional; removing a node shifts everything after it).
    pub(crate) fn renumber(&mut self, node: usize) {
        self.node = node;
    }

    /// Re-dials the node, replacing the underlying stream. Used by the
    /// failover driver before a same-node retry: a severed stream from an
    /// earlier failure must not condemn a node that has since recovered.
    /// Traffic counters survive the reconnect — they describe the link,
    /// not one socket.
    pub fn reconnect(&mut self) -> Result<()> {
        // Stay dirty until the fresh socket is actually in place — a
        // failed dial must not launder a stream with a stale reply on it.
        self.dirty = true;
        self.stream = open_stream(self.node, self.addr, self.read_timeout)?;
        self.dirty = false;
        Ok(())
    }

    /// Sends one request and waits for the reply. Transport failures
    /// (broken socket, timeout, unparseable bytes) become
    /// [`ClusterError::NodeFailed`] with a classified [`FailureKind`]; a
    /// well-formed error reply becomes [`ClusterError::Node`] with the
    /// node's typed error.
    pub fn call(&mut self, request: &Request) -> Result<Reply> {
        let payload = request
            .encode()
            .map_err(|e| ClusterError::BadRequest(format!("encoding request: {e}")))?;
        self.call_encoded(&payload)
    }

    /// [`call`](NodeLink::call) for a request already encoded (a bulk
    /// write encoded once from borrowed rows).
    pub fn call_encoded(&mut self, payload: &[u8]) -> Result<Reply> {
        let node = self.node;
        let fail =
            |kind: FailureKind, detail: String| ClusterError::NodeFailed { node, kind, detail };
        // A previous transport failure may have left a late reply in
        // flight on this socket; reading it would answer *this* request
        // with a stale frame. Replace the socket first.
        if self.dirty {
            self.reconnect()?;
        }
        if let Err(e) = proto::write_frame(&mut self.stream, payload) {
            self.dirty = true;
            return Err(fail(classify_io(&e), format!("send: {e}")));
        }
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += payload.len() as u64 + 4;
        let frame = match read_reply_frame(&mut self.stream) {
            Ok(frame) => frame,
            Err(e) => {
                self.dirty = true;
                return Err(
                    if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
                    {
                        fail(FailureKind::Timeout, "reply timed out".into())
                    } else {
                        fail(classify_io(&e), format!("receive: {e}"))
                    },
                );
            }
        };
        // EOF where a reply frame was due: the node died mid-request.
        let Some(frame) = frame else {
            self.dirty = true;
            return Err(fail(
                FailureKind::Severed,
                "node closed the connection".into(),
            ));
        };
        self.stats.messages_received += 1;
        self.stats.bytes_received += frame.len() as u64 + 4;
        match proto::decode_response(&frame) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(error)) => Err(ClusterError::Node { node, error }),
            Err(e) => {
                // The stream is positioned after bytes we could not make
                // sense of; nothing that follows can be trusted either.
                self.dirty = true;
                Err(fail(FailureKind::Other, format!("unparseable reply: {e}")))
            }
        }
    }
}

/// Dials `addr` and applies the link's socket options.
fn open_stream(node: usize, addr: SocketAddr, read_timeout: Option<Duration>) -> Result<TcpStream> {
    let fail = |kind: FailureKind, detail: String| ClusterError::NodeFailed { node, kind, detail };
    let stream =
        TcpStream::connect(addr).map_err(|e| fail(classify_io(&e), format!("connect: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| fail(FailureKind::Other, format!("nodelay: {e}")))?;
    stream
        .set_read_timeout(read_timeout)
        .map_err(|e| fail(FailureKind::Other, format!("read timeout: {e}")))?;
    Ok(stream)
}

/// Reads one reply frame, distinguishing clean EOF (`None`).
fn read_reply_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    proto::read_frame(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Regression: a read timeout on a slow-but-alive node leaves its
    /// late reply in flight on the old socket. The next call on the link
    /// — possibly for a different request, from a different fragment
    /// thread — must not read that stale frame as its answer.
    #[test]
    fn a_timed_out_link_discards_the_late_reply_instead_of_serving_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // Connection 1: answer the probe late — after the client's
            // read deadline — with a distinguishable payload (epoch 1).
            let (mut c1, _) = listener.accept().expect("accept 1");
            let _ = proto::read_frame(&mut c1).expect("read 1");
            std::thread::sleep(Duration::from_millis(120));
            let late = proto::encode_response(&Ok(Reply::HeartbeatAck {
                epoch: 1,
                accepting: true,
            }))
            .expect("encode late");
            let _ = proto::write_frame(&mut c1, &late);
            // Connection 2 (the reconnect): answer promptly with epoch 2.
            let (mut c2, _) = listener.accept().expect("accept 2");
            let _ = proto::read_frame(&mut c2).expect("read 2");
            let fresh = proto::encode_response(&Ok(Reply::HeartbeatAck {
                epoch: 2,
                accepting: true,
            }))
            .expect("encode fresh");
            let _ = proto::write_frame(&mut c2, &fresh);
            // Keep c1 alive until the end so its stale frame stays
            // readable the whole time.
            drop(c1);
        });

        let mut link =
            NodeLink::connect(0, addr, Some(Duration::from_millis(30))).expect("connect");
        let err = link.call(&Request::Heartbeat).expect_err("must time out");
        assert!(
            matches!(
                err,
                ClusterError::NodeFailed {
                    kind: FailureKind::Timeout,
                    ..
                }
            ),
            "expected a timeout, got {err:?}"
        );
        assert!(link.is_dirty(), "a timeout must mark the link dirty");

        // Let the late reply land in the old socket's receive buffer.
        std::thread::sleep(Duration::from_millis(150));
        match link.call(&Request::Heartbeat).expect("fresh call succeeds") {
            Reply::HeartbeatAck { epoch, .. } => {
                assert_eq!(epoch, 2, "the stale epoch-1 frame must never be served");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(!link.is_dirty(), "a clean exchange clears the flag");
        server.join().expect("server thread");
    }
}
