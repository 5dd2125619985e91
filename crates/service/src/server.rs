//! The TCP front end: length-prefixed frames over `std::net`.
//!
//! One thread accepts connections; each connection gets a handler thread
//! that decodes [`Request`] frames, dispatches them to the shared
//! [`Service`], and writes [`Response`] frames back. A `Shutdown` request
//! is acknowledged and then surfaced to whoever is blocked in
//! [`ServerHandle::wait_for_shutdown_request`] (the `reldiv-serve`
//! binary), which stops the listener and drains the service.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use reldiv_rel::Columns;

use crate::error::ServiceError;
use crate::proto::{
    self, EpochRequest, PartialQuotientReply, Reply, Request, Response, WriteFrame, WriteKind,
};
use crate::service::{ClusterEpochState, Service};

struct Shared {
    service: Arc<Service>,
    stopping: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    // Live connection sockets, so `kill` can sever them mid-frame.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// A running TCP server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `service`.
    pub fn start(service: Arc<Service>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            stopping: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("reldiv-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }

    /// Blocks until some client sends a `Shutdown` request (or
    /// [`ServerHandle::shutdown`] is called from another thread).
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self.shared.shutdown_requested.lock();
        while !*requested {
            self.shared.shutdown_cv.wait(&mut requested);
        }
    }

    /// Stops accepting connections, then drains the service gracefully
    /// (admitted queries complete; new ones are refused). Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        *self.shared.shutdown_requested.lock() = true;
        self.shared.shutdown_cv.notify_all();
        // Nudge the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.shared.service.shutdown();
    }

    /// Simulates node death: stops accepting, severs every live
    /// connection mid-frame (so clients see a closed socket rather than
    /// a graceful `ShuttingDown` refusal), and aborts in-flight worker
    /// executions — a killed node must stop computing, not finish its
    /// quotients off-wire. Idempotent.
    pub fn kill(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        *self.shared.shutdown_requested.lock() = true;
        self.shared.shutdown_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
        for (_, stream) in self.shared.conns.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.shared.service.abort();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("reldiv-conn".into())
            .spawn(move || handle_connection(stream, conn_shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().insert(conn_id, clone);
    }
    // Deregister on every exit path so the registry stays bounded.
    struct Deregister<'a>(&'a Shared, u64);
    impl Drop for Deregister<'_> {
        fn drop(&mut self) {
            self.0.conns.lock().remove(&self.1);
        }
    }
    let _guard = Deregister(&shared, conn_id);
    loop {
        let payload = match proto::read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // A hostile or corrupt length prefix (e.g. a 4 GiB frame):
                // tell the client what happened, then drop the connection
                // rather than allocate.
                let response: Response = Err(ServiceError::Protocol(e.to_string()));
                if let Ok(bytes) = proto::encode_response(&response) {
                    let _ = proto::write_frame(&mut stream, &bytes);
                }
                return;
            }
            Err(_) => return,
        };
        // The three bulk write frames never become a `Request`: their
        // rows go from the wire into the columns the catalog keeps.
        let (response, shutdown) = match proto::decode_write(&payload) {
            Some(write) => (write.and_then(|w| install(&shared.service, w)), false),
            None => match Request::decode(&payload) {
                Ok(request) => dispatch(&shared, request),
                Err(e) => (Err(e), false),
            },
        };
        let Ok(bytes) = proto::encode_response(&response) else {
            return;
        };
        if proto::write_frame(&mut stream, &bytes).is_err() {
            return;
        }
        if shutdown {
            *shared.shutdown_requested.lock() = true;
            shared.shutdown_cv.notify_all();
            return;
        }
    }
}

/// Installs the rows of a `Register`, `Shard` or `ReplicaWrite` frame.
fn install(service: &Service, write: WriteFrame<Columns>) -> Response {
    match write.kind {
        WriteKind::Register => service
            .register_columns(&write.name, write.rows)
            .map(|version| Reply::Registered { version }),
        WriteKind::Shard(at) => service
            .check_epoch(write.epoch)
            .and_then(|()| service.install_shard(&write.name, write.rows, at))
            .map(|version| Reply::Sharded { version }),
        WriteKind::Replica(at) => {
            let fragment = at.shard;
            // Replicas live under a reserved name keyed by fragment
            // index, so one node can hold replicas of many fragments
            // of the same relation without collisions.
            let name = proto::replica_name(fragment, &write.name);
            service
                .check_epoch(write.epoch)
                .and_then(|()| service.install_shard(&name, write.rows, at))
                .map(|version| Reply::ReplicaAck { version, fragment })
        }
    }
}

/// The reply to both `ClusterEpoch` requests: the node's view after it.
fn epoch_reply(s: ClusterEpochState) -> Reply {
    Reply::Epoch {
        epoch: s.epoch,
        members: s.members,
        replication: s.replication,
    }
}

/// Runs one request against the service; the boolean asks the server to
/// begin shutting down after the response is sent.
fn dispatch(shared: &Shared, request: Request) -> (Response, bool) {
    let service = &shared.service;
    let response = match request {
        Request::Ping => Ok(Reply::Pong),
        Request::Register { .. } => Err(ServiceError::Internal(
            "a bulk write frame is decoded into columns, never dispatched".into(),
        )),
        Request::DropRelation { name } => service.drop_relation(&name).map(|()| Reply::Dropped),
        Request::Divide(q) => service.divide(&q).map(Reply::Divided),
        Request::Repartition(r) => service
            .check_epoch(r.epoch)
            .and_then(|()| {
                service.repartition(&r.name, &r.keys, r.parts as usize, r.filter.as_ref())
            })
            .map(|(schema, buckets, filtered)| Reply::Repartitioned {
                schema,
                buckets,
                filtered,
            }),
        Request::BuildFilter {
            name,
            keys,
            bits,
            epoch,
        } => service
            .check_epoch(epoch)
            .and_then(|()| service.build_filter(&name, &keys, bits as usize))
            .map(|(filter, insertions)| Reply::Filter { filter, insertions }),
        Request::DividePartial {
            tag,
            query: q,
            epoch,
        } => service
            .check_epoch(epoch)
            .and_then(|()| service.divide(&q))
            .and_then(|r| {
                let tuples = Columns::from_tuples(r.schema.clone(), &r.tuples)
                    .map_err(|e| ServiceError::Exec(e.to_string()))?;
                Ok(Reply::PartialQuotient(PartialQuotientReply {
                    tag,
                    algorithm: r.algorithm,
                    dividend_version: r.dividend_version,
                    divisor_version: r.divisor_version,
                    micros: r.micros,
                    ops: r.ops,
                    schema: r.schema,
                    tuples,
                    profile: r.profile,
                }))
            }),
        Request::ExecPlan(p) => service.exec_plan(&p).map(Reply::Plan),
        Request::Stats => Ok(Reply::Stats(service.stats())),
        // Heartbeats bypass the worker queue entirely (this dispatch runs
        // on the connection thread), so a node with a wedged pool still
        // answers its coordinator's probes.
        Request::Heartbeat => Ok(Reply::HeartbeatAck {
            epoch: service.cluster_epoch().map_or(0, |s| s.epoch),
            accepting: service.is_accepting(),
        }),
        Request::ClusterEpoch(EpochRequest::Get) => service
            .cluster_epoch()
            .ok_or_else(|| {
                ServiceError::BadRequest("no cluster membership installed on this node".into())
            })
            .map(epoch_reply),
        Request::ClusterEpoch(EpochRequest::Set {
            epoch,
            members,
            replication,
        }) => service
            .set_cluster_epoch(ClusterEpochState {
                epoch,
                members,
                replication,
            })
            .map(epoch_reply),
        Request::Shutdown => return (Ok(Reply::ShuttingDown), true),
    };
    (response, false)
}
