//! The length-prefixed binary wire protocol.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload. The first payload byte is an opcode (requests)
//! or a status byte (responses). Integers are little-endian; strings are
//! `u16` length + UTF-8 bytes; tuples travel as the fixed-width records of
//! [`RecordCodec`], so a relation's bytes on the wire are identical to its
//! bytes in a record file. The full grammar is documented in
//! `docs/PROTOCOL.md`.

use std::borrow::Borrow;
use std::io::{self, Read, Write};
use std::sync::Arc;

use reldiv_core::{Algorithm, HashDivisionMode, ProfileNode, QueryProfile, SpanKind};
use reldiv_parallel::filter::BitVectorFilter;
use reldiv_parallel::{Distribution, Strategy};
use reldiv_rel::counters::OpSnapshot;
use reldiv_rel::{ColumnType, Columns, Field, RecordCodec, Schema, Tuple};

use crate::error::ServiceError;
use crate::metrics::MetricsSnapshot;
use crate::service::ShardInfo;

/// Frames larger than this are refused (a corrupt length prefix would
/// otherwise ask for an absurd allocation).
pub const MAX_FRAME: usize = 64 << 20;

/// Largest shard/repartition fan-out accepted on the wire. A corrupt
/// `parts` field would otherwise ask for an absurd bucket allocation.
pub const MAX_CLUSTER_NODES: usize = 1024;

/// The reserved catalog-name prefix under which replica copies of a
/// sharded fragment are stored (see [`Request::ReplicaWrite`]).
pub const REPLICA_PREFIX: &str = ".replica.";

/// The catalog name a replica copy of `fragment` of `base` is stored
/// under. This is the single definition of the rule: the server's
/// `ReplicaWrite` dispatch installs under this name and a cluster
/// coordinator rewrites failover requests to it — both sides must agree
/// byte-for-byte or every failover read resolves to an unknown relation.
pub fn replica_name(fragment: impl std::fmt::Display, base: &str) -> String {
    format!("{REPLICA_PREFIX}{fragment}.{base}")
}

/// The catalog-name prefix of a repartitioned copy a cluster coordinator
/// derives from a base relation (`.part.{base}.{stamp}…`).
pub const PARTITION_PREFIX: &str = ".part.";

/// The catalog-name prefix of a full divisor copy a coordinator installs
/// on every node for quotient partitioning (`.repl.{base}.{stamp}`).
pub const FULL_COPY_PREFIX: &str = ".repl.";

/// Whether `name` is a temporary derived from the relation `base` — a
/// `.part.` or `.repl.` copy of it, or a replica of one. The single
/// definition of what re-registering `base` makes stale: the coordinator
/// forgets these names and every node that installs a fragment of the new
/// version drops them, so neither side keeps a copy of a version that no
/// query can name again.
pub fn is_derived_from(name: &str, base: &str) -> bool {
    let name = fragment_base(name);
    [PARTITION_PREFIX, FULL_COPY_PREFIX].iter().any(|prefix| {
        name.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix(base))
            .is_some_and(|rest| rest.starts_with('.'))
    })
}

/// The relation a node-level catalog name stores a fragment of: the name
/// itself, or what follows `.replica.{fragment}.` in a replica's name.
pub(crate) fn fragment_base(name: &str) -> &str {
    name.strip_prefix(REPLICA_PREFIX)
        .and_then(|rest| rest.split_once('.'))
        .map_or(name, |(_, base)| base)
}

/// Largest bit-vector filter accepted on the wire (8 MiB of words).
pub const MAX_FILTER_BITS: usize = 1 << 26;

/// Algorithm wire code for "let the service choose".
pub const ALG_AUTO: u8 = 0xFF;

/// Wire code for an absent tri-state assertion (the restricted-divisor
/// byte of a divide request).
pub const TRI_AUTO: u8 = 0xFF;

/// Largest plan text accepted on the wire, matching the parser's own
/// bound ([`reldiv_plan::parse::MAX_PLAN_TEXT`]).
pub const MAX_PLAN_WIRE: usize = 1 << 20;

/// Encodes an algorithm as its stable wire code.
pub fn algorithm_code(alg: Algorithm) -> u8 {
    match alg {
        Algorithm::Naive => 0,
        Algorithm::SortAggregation { join: false } => 1,
        Algorithm::SortAggregation { join: true } => 2,
        Algorithm::HashAggregation { join: false } => 3,
        Algorithm::HashAggregation { join: true } => 4,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        } => 5,
        Algorithm::HashDivision {
            mode: HashDivisionMode::EarlyOut,
        } => 6,
        Algorithm::HashDivision {
            mode: HashDivisionMode::CounterOnly,
        } => 7,
    }
}

/// Decodes an algorithm wire code ([`ALG_AUTO`] is not an algorithm and
/// returns `None`, as do unknown codes).
pub fn algorithm_from_code(code: u8) -> Option<Algorithm> {
    Some(match code {
        0 => Algorithm::Naive,
        1 => Algorithm::SortAggregation { join: false },
        2 => Algorithm::SortAggregation { join: true },
        3 => Algorithm::HashAggregation { join: false },
        4 => Algorithm::HashAggregation { join: true },
        5 => Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        6 => Algorithm::HashDivision {
            mode: HashDivisionMode::EarlyOut,
        },
        7 => Algorithm::HashDivision {
            mode: HashDivisionMode::CounterOnly,
        },
        _ => return None,
    })
}

/// Stable error codes for [`ServiceError`] on the wire.
pub fn error_code(err: &ServiceError) -> u8 {
    match err {
        ServiceError::Overloaded => 1,
        ServiceError::ShuttingDown => 2,
        ServiceError::UnknownRelation(_) => 3,
        ServiceError::BadRequest(_) => 4,
        ServiceError::Exec(_) => 5,
        ServiceError::Protocol(_) => 6,
        ServiceError::Internal(_) => 7,
        ServiceError::DeadlineExceeded => 8,
        ServiceError::StaleEpoch(_) => 9,
    }
}

/// Reconstructs a [`ServiceError`] from its wire code and message.
pub fn error_from_code(code: u8, message: String) -> ServiceError {
    match code {
        1 => ServiceError::Overloaded,
        2 => ServiceError::ShuttingDown,
        3 => ServiceError::UnknownRelation(message),
        4 => ServiceError::BadRequest(message),
        5 => ServiceError::Exec(message),
        6 => ServiceError::Protocol(message),
        8 => ServiceError::DeadlineExceeded,
        9 => ServiceError::StaleEpoch(message),
        _ => ServiceError::Internal(message),
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Install (or replace) a named relation.
    Register {
        /// Catalog name.
        name: String,
        /// Relation schema.
        schema: Schema,
        /// Relation tuples.
        tuples: Vec<Tuple>,
    },
    /// Remove a named relation.
    DropRelation {
        /// Catalog name.
        name: String,
    },
    /// Run a division query.
    Divide(DivideRequest),
    /// Read the service counters.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Install one shard of a hash-partitioned relation (cluster node
    /// role): the node stores the tuples as an ordinary relation plus the
    /// shard coordinates, so a coordinator can later verify placement.
    Shard(ShardRequest),
    /// Hash-partition a stored relation's tuples on a key set into
    /// `parts` buckets, optionally dropping tuples through a bit-vector
    /// filter first — the sending-site half of divisor partitioning,
    /// executed where the data lives.
    Repartition(RepartitionRequest),
    /// Build a bit-vector filter over a stored relation's tuples hashed
    /// on `keys`. The coordinator ORs the per-node filters together and
    /// ships the union back inside [`Request::Repartition`] — bits move,
    /// tuples don't.
    BuildFilter {
        /// Relation to scan.
        name: String,
        /// Columns to hash each tuple on.
        keys: Vec<usize>,
        /// Filter size in bits (bounded by [`MAX_FILTER_BITS`]).
        bits: u32,
        /// Coordinator catalog epoch (trailing extension; absence skips
        /// the staleness check).
        epoch: Option<u64>,
    },
    /// Run a local division and tag the reply — one node's share of a
    /// cluster query. The tag travels back verbatim in
    /// [`Reply::PartialQuotient`] so the collection site can map the
    /// reply to its dense node index even over reordered links.
    DividePartial {
        /// Collection-site tag assigned by the coordinator.
        tag: u16,
        /// The local division to run.
        query: DivideRequest,
        /// Coordinator catalog epoch (trailing extension; absence skips
        /// the staleness check).
        epoch: Option<u64>,
    },
    /// Parse, validate, and execute a composed query plan (filters,
    /// joins, projections, divisions, HAVING COUNT) over the catalog.
    ExecPlan(ExecPlanRequest),
    /// Liveness and health probe (cluster role): answered without going
    /// through the worker queue, so a wedged pool still answers. The
    /// reply carries the node's catalog epoch and whether it is
    /// accepting queries.
    Heartbeat,
    /// Read or install the node's cluster-catalog epoch: the membership
    /// view (epoch number, member addresses, replication factor) the
    /// coordinator last pushed during a rebalance. Data-plane requests
    /// carrying an older epoch are refused with
    /// [`ServiceError::StaleEpoch`] so a pre-rebalance routing table can
    /// never produce a wrong quotient.
    ClusterEpoch(EpochRequest),
    /// Install a replica copy of one fragment of a sharded relation. The
    /// node stores it under the reserved `.replica.{fragment}.{name}`
    /// catalog name so a coordinator can fail a fragment's sub-queries
    /// over to this node when the primary dies.
    ReplicaWrite(ReplicaWriteRequest),
}

/// The payload of a [`Request::ClusterEpoch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochRequest {
    /// Read the node's current membership view.
    Get,
    /// Install a new membership view. The node refuses a `Set` whose
    /// epoch is below its current one (a stale coordinator must not
    /// roll the cluster backwards).
    Set {
        /// Monotonic catalog epoch; bumped by every membership change.
        epoch: u64,
        /// Member addresses in node-index order.
        members: Vec<String>,
        /// Replication factor k: every fragment lives on k nodes.
        replication: u16,
    },
}

/// The replica-install payload of a [`Request::ReplicaWrite`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaWriteRequest {
    /// Base catalog name (the primary's name; the replica is stored
    /// under `.replica.{fragment}.{name}`).
    pub name: String,
    /// Which fragment this is a replica of, `< of`.
    pub fragment: u16,
    /// Total fragment count (bounded by [`MAX_CLUSTER_NODES`]).
    pub of: u16,
    /// Columns the relation is hash-partitioned on.
    pub shard_keys: Vec<usize>,
    /// Relation schema (identical across fragments).
    pub schema: Schema,
    /// The fragment's tuples.
    pub tuples: Vec<Tuple>,
    /// Coordinator catalog epoch; mismatch is a typed
    /// [`ServiceError::StaleEpoch`]. `None` skips the check (a peer
    /// that predates epochs).
    pub epoch: Option<u64>,
}

/// The plan-execution payload of a [`Request::ExecPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlanRequest {
    /// The plan text (the s-expression language of `reldiv-plan`,
    /// documented in `docs/PLANS.md`). Bounded by [`MAX_PLAN_WIRE`].
    pub plan: String,
    /// Per-query deadline in milliseconds (`None` uses the server's
    /// default).
    pub deadline_ms: Option<u64>,
    /// Ask the server to profile the whole plan and attach the
    /// per-operator span tree to the reply (`EXPLAIN ANALYZE`).
    pub profile: bool,
}

/// The shard-install payload of a [`Request::Shard`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Catalog name (shared by all shards of the relation).
    pub name: String,
    /// This shard's index, `< of`.
    pub shard: u16,
    /// Total shard count (bounded by [`MAX_CLUSTER_NODES`]).
    pub of: u16,
    /// Columns the relation is hash-partitioned on.
    pub shard_keys: Vec<usize>,
    /// Relation schema (identical across shards).
    pub schema: Schema,
    /// This shard's tuples.
    pub tuples: Vec<Tuple>,
    /// Coordinator catalog epoch (trailing extension; absence skips the
    /// staleness check, keeping pre-replication coordinators working).
    pub epoch: Option<u64>,
}

/// Which of the three bulk write frames a [`WriteFrame`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteKind {
    /// [`Request::Register`].
    Register,
    /// [`Request::Shard`], with the shard's coordinates.
    Shard(ShardInfo),
    /// [`Request::ReplicaWrite`], with the fragment's coordinates.
    Replica(ShardInfo),
}

/// A decoded `Register`, `Shard` or `ReplicaWrite` frame with its rows in
/// `R`: tuples on the way to a [`Request`], columns out of
/// [`decode_write`], which is what the server installs.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteFrame<R> {
    /// Catalog name (for a replica, the base name).
    pub name: String,
    /// Which frame, and where the rows sit in a sharded relation.
    pub kind: WriteKind,
    /// Schema of the rows.
    pub schema: Schema,
    /// The rows.
    pub rows: R,
    /// Coordinator catalog epoch (never present on a `Register`).
    pub epoch: Option<u64>,
}

/// The repartition payload of a [`Request::Repartition`].
#[derive(Debug, Clone, PartialEq)]
pub struct RepartitionRequest {
    /// Relation whose local tuples to partition.
    pub name: String,
    /// Columns to hash on — also the columns the filter (if any) tests.
    pub keys: Vec<usize>,
    /// Bucket count (bounded by [`MAX_CLUSTER_NODES`]).
    pub parts: u16,
    /// Bit-vector filter applied before bucketing: tuples whose `keys`
    /// projection misses the filter are dropped at this site and only
    /// counted, never shipped.
    pub filter: Option<BitVectorFilter>,
    /// Coordinator catalog epoch (trailing extension; absence skips the
    /// staleness check).
    pub epoch: Option<u64>,
}

/// The division query of a [`Request::Divide`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivideRequest {
    /// Dividend relation name.
    pub dividend: String,
    /// Divisor relation name.
    pub divisor: String,
    /// Explicit algorithm, or `None` for the cost-based recommendation.
    pub algorithm: Option<Algorithm>,
    /// Declare the inputs duplicate-free.
    pub assume_unique: bool,
    /// Explicit `(divisor_keys, quotient_keys)`, or `None` for the
    /// trailing-divisor convention.
    pub spec: Option<(Vec<usize>, Vec<usize>)>,
    /// Per-query deadline in milliseconds (`None` uses the server's
    /// default). An expired deadline cancels the division cooperatively
    /// and the reply is error code 8 (`DeadlineExceeded`).
    pub deadline_ms: Option<u64>,
    /// Ask the server to profile the query and attach the per-operator
    /// span tree to the reply (`EXPLAIN ANALYZE`). Encoded as a trailing
    /// byte that old clients simply omit, so absence decodes as `false`.
    pub profile: bool,
    /// Run the division over the in-process parallel machine (Section 6
    /// strategy, node count, optional bit-vector filter) instead of a
    /// single operator. Encoded as a trailing section after the profile
    /// byte; peers that predate it omit it and absence decodes as `None`.
    pub distribute: Option<Distribution>,
    /// Client assertion about the restricted-divisor property (`None`
    /// keeps the server's conservative default of `true`). `Some(false)`
    /// promises every dividend divisor-value appears in the divisor,
    /// unlocking the cheaper no-join aggregation plans; the server only
    /// honors the promise when no fault injection is active. Encoded as a
    /// trailing byte after the distribution section; peers that predate
    /// it omit it and absence decodes as `None`.
    pub restricted: Option<bool>,
    /// Per-query memory budget in bytes for the division's working
    /// state. `Some(b)` makes the server charge the query against a
    /// child pool capped at `b`, so a heavy division degrades adaptively
    /// (spilling partitions) instead of starving concurrent queries.
    /// Encoded as a trailing `u64` after the restricted byte, 0 for "no
    /// budget"; peers that predate it omit it and absence decodes as
    /// `None`.
    pub mem_budget: Option<u64>,
}

/// A successful server → client payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Register`].
    Registered {
        /// The catalog version installed.
        version: u64,
    },
    /// Answer to [`Request::DropRelation`].
    Dropped,
    /// Answer to [`Request::Divide`].
    Divided(DivideReply),
    /// Answer to [`Request::Stats`].
    Stats(MetricsSnapshot),
    /// Acknowledges [`Request::Shutdown`]; the server stops accepting
    /// connections after sending it.
    ShuttingDown,
    /// Answer to [`Request::Shard`].
    Sharded {
        /// The catalog version installed for this shard.
        version: u64,
    },
    /// Answer to [`Request::Repartition`]: the local tuples bucketed on
    /// the requested keys, plus how many the filter dropped at this site.
    Repartitioned {
        /// Relation schema (buckets share it).
        schema: Schema,
        /// One bucket per part, in part order.
        buckets: Vec<Vec<Tuple>>,
        /// Tuples dropped by the bit-vector filter before bucketing.
        filtered: u64,
    },
    /// Answer to [`Request::BuildFilter`].
    Filter {
        /// The filter over this node's local tuples.
        filter: BitVectorFilter,
        /// Tuples inserted (the local cardinality scanned).
        insertions: u64,
    },
    /// Answer to [`Request::DividePartial`].
    PartialQuotient(PartialQuotientReply),
    /// Answer to [`Request::ExecPlan`].
    Plan(PlanReply),
    /// Answer to [`Request::Heartbeat`].
    HeartbeatAck {
        /// The node's current cluster-catalog epoch.
        epoch: u64,
        /// Whether the node is accepting queries.
        accepting: bool,
    },
    /// Answer to [`Request::ClusterEpoch`] (both `Get` and `Set`): the
    /// node's membership view after the request.
    Epoch {
        /// The node's cluster-catalog epoch.
        epoch: u64,
        /// Member addresses in node-index order.
        members: Vec<String>,
        /// Replication factor k.
        replication: u16,
    },
    /// Answer to [`Request::ReplicaWrite`]: the write acknowledgment the
    /// coordinator tracks per fragment.
    ReplicaAck {
        /// The catalog version installed for the replica copy.
        version: u64,
        /// The fragment index, echoed for ack bookkeeping.
        fragment: u16,
    },
}

/// The result of a composed plan, answering [`Request::ExecPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReply {
    /// The algorithm each division in the plan ran with, in execution
    /// order (empty for plans without a division).
    pub algorithms: Vec<Algorithm>,
    /// Whether the result came from the plan cache.
    pub cached: bool,
    /// End-to-end service latency in microseconds.
    pub micros: u64,
    /// Abstract operations the execution performed (zero on cache hits).
    pub ops: OpSnapshot,
    /// The catalog relations the plan read and the versions it was
    /// pinned to, sorted by name.
    pub relations: Vec<(String, u64)>,
    /// Result schema.
    pub schema: Schema,
    /// Result tuples.
    pub tuples: Arc<Vec<Tuple>>,
    /// The whole-plan span tree, present only when the request asked for
    /// it (and the execution was not a cache hit).
    pub profile: Option<QueryProfile>,
}

/// One node's share of a cluster division, answering
/// [`Request::DividePartial`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartialQuotientReply {
    /// The coordinator-assigned tag, echoed verbatim.
    pub tag: u16,
    /// The algorithm that ran locally.
    pub algorithm: Algorithm,
    /// Local dividend version the partial quotient was computed from.
    pub dividend_version: u64,
    /// Local divisor version the partial quotient was computed from.
    pub divisor_version: u64,
    /// Node-local service latency in microseconds.
    pub micros: u64,
    /// Abstract operations the local execution performed.
    pub ops: OpSnapshot,
    /// Quotient schema.
    pub schema: Schema,
    /// This node's quotient cluster, shared with the node's result cache.
    pub tuples: Arc<Vec<Tuple>>,
    /// The node-local span tree, when the request asked for one. The
    /// coordinator grafts these under its network root to form the merged
    /// cluster profile.
    pub profile: Option<QueryProfile>,
}

/// The quotient and its provenance, answering a division query.
#[derive(Debug, Clone, PartialEq)]
pub struct DivideReply {
    /// The algorithm that ran (the resolved choice when `auto` was
    /// requested).
    pub algorithm: Algorithm,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Dividend version the quotient was computed from.
    pub dividend_version: u64,
    /// Divisor version the quotient was computed from.
    pub divisor_version: u64,
    /// End-to-end service latency in microseconds.
    pub micros: u64,
    /// Abstract operations the execution performed (zero on cache hits).
    pub ops: OpSnapshot,
    /// Quotient schema.
    pub schema: Schema,
    /// Quotient tuples.
    pub tuples: Arc<Vec<Tuple>>,
    /// The per-operator span tree, present only when the request asked
    /// for it (and the execution was not a cache hit). Encoded as a
    /// trailing section that old servers omit, so absence decodes as
    /// `None`.
    pub profile: Option<QueryProfile>,
}

/// A server → client message: a [`Reply`] or an error.
pub type Response = Result<Reply, ServiceError>;

// ---------------------------------------------------------------------
// Framing

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF before the length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Primitive encoders / decoders

type PResult<T> = Result<T, ServiceError>;

fn perr(msg: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(msg.into())
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> PResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(perr(format!(
                "truncated frame: wanted {n} bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> PResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> PResult<u16> {
        let b = self.take(2)?;
        b.try_into()
            .map(u16::from_le_bytes)
            .map_err(|_| perr("internal: u16 slice length"))
    }

    fn u32(&mut self) -> PResult<u32> {
        let b = self.take(4)?;
        b.try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| perr("internal: u32 slice length"))
    }

    fn u64(&mut self) -> PResult<u64> {
        let b = self.take(8)?;
        b.try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| perr("internal: u64 slice length"))
    }

    fn str(&mut self) -> PResult<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| perr("string is not UTF-8"))
    }

    /// Bytes not yet consumed. Used to decode optional trailing sections
    /// added by newer protocol revisions: an empty reader at that point
    /// means the peer predates the extension.
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn finish(&self) -> PResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(perr(format!("{} trailing bytes in frame", self.buf.len())))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) -> PResult<()> {
    let len = u16::try_from(s.len()).map_err(|_| {
        perr(format!(
            "string of {} bytes exceeds the u16 length",
            s.len()
        ))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) -> PResult<()> {
    let n = u16::try_from(schema.arity())
        .map_err(|_| perr(format!("schema arity {} exceeds u16", schema.arity())))?;
    out.extend_from_slice(&n.to_le_bytes());
    for field in schema.fields() {
        match field.ty {
            ColumnType::Int => out.push(0),
            ColumnType::Str(width) => {
                out.push(1);
                let width = u32::try_from(width)
                    .map_err(|_| perr(format!("string width {width} exceeds u32")))?;
                out.extend_from_slice(&width.to_le_bytes());
            }
        }
        put_str(out, &field.name)?;
    }
    Ok(())
}

fn get_schema(r: &mut Reader<'_>) -> PResult<Schema> {
    let n = r.u16()? as usize;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let ty = match r.u8()? {
            0 => ColumnType::Int,
            1 => ColumnType::Str(r.u32()? as usize),
            t => return Err(perr(format!("unknown column type tag {t}"))),
        };
        let name = r.str()?;
        fields.push(Field::new(name, ty));
    }
    Ok(Schema::new(fields))
}

fn put_tuples<T: Borrow<Tuple>>(out: &mut Vec<u8>, schema: &Schema, tuples: &[T]) -> PResult<()> {
    let codec = RecordCodec::new(schema.clone());
    let n = u32::try_from(tuples.len()).map_err(|_| perr("too many tuples for one frame"))?;
    out.extend_from_slice(&n.to_le_bytes());
    for t in tuples {
        codec
            .encode_into(t.borrow(), out)
            .map_err(|e| perr(format!("tuple does not fit the schema: {e}")))?;
    }
    Ok(())
}

/// Reads a frame's record section — a `u32` count, then that many
/// `width`-byte records — and hands the records to `land`. The only
/// reader of record sections: clients land the rows in tuples, the
/// server lands a write's rows in columns.
fn get_rows<R>(
    r: &mut Reader<'_>,
    width: usize,
    land: impl FnOnce(&[u8]) -> reldiv_rel::Result<R>,
) -> PResult<R> {
    let n = r.u32()? as usize;
    if width == 0 && n > 0 {
        return Err(perr("records of a schema without columns"));
    }
    let bytes = n.checked_mul(width).map(|len| r.take(len));
    land(bytes.ok_or_else(|| perr("tuple count overflow"))??)
        .map_err(|e| perr(format!("bad record: {e}")))
}

fn get_tuples(r: &mut Reader<'_>, schema: &Schema) -> PResult<Vec<Tuple>> {
    let codec = RecordCodec::new(schema.clone());
    let width = codec.record_width();
    get_rows(r, width, |records| {
        let mut tuples = Vec::with_capacity(records.len() / width.max(1));
        for record in records.chunks_exact(width.max(1)) {
            tuples.push(codec.decode(record)?);
        }
        Ok(tuples)
    })
}

fn put_keys(out: &mut Vec<u8>, keys: &[usize]) -> PResult<()> {
    let n = u16::try_from(keys.len())
        .map_err(|_| perr(format!("key list of {} entries exceeds u16", keys.len())))?;
    out.extend_from_slice(&n.to_le_bytes());
    for &k in keys {
        let k =
            u16::try_from(k).map_err(|_| perr(format!("column index {k} exceeds the u16 wire")))?;
        out.extend_from_slice(&k.to_le_bytes());
    }
    Ok(())
}

fn get_keys(r: &mut Reader<'_>) -> PResult<Vec<usize>> {
    let n = r.u16()? as usize;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(r.u16()? as usize);
    }
    Ok(keys)
}

fn put_ops(out: &mut Vec<u8>, ops: &OpSnapshot) {
    out.extend_from_slice(&ops.comparisons.to_le_bytes());
    out.extend_from_slice(&ops.hashes.to_le_bytes());
    out.extend_from_slice(&ops.moves.to_le_bytes());
    out.extend_from_slice(&ops.bitops.to_le_bytes());
}

fn get_ops(r: &mut Reader<'_>) -> PResult<OpSnapshot> {
    Ok(OpSnapshot {
        comparisons: r.u64()?,
        hashes: r.u64()?,
        moves: r.u64()?,
        bitops: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Query profiles
//
// A profile is a tree of spans. Each node is encoded depth-first:
// label, kind code, eight u64 metrics, a phase list, then a u16 child
// count followed by the children. Hostile input is bounded two ways:
// nesting deeper than [`MAX_PROFILE_DEPTH`] and trees larger than
// [`MAX_PROFILE_NODES`] are typed protocol errors, never unbounded
// recursion or allocation.

/// Deepest span nesting accepted on the wire.
pub const MAX_PROFILE_DEPTH: usize = 64;

/// Largest span tree accepted on the wire.
pub const MAX_PROFILE_NODES: usize = 65_536;

fn put_profile_node(out: &mut Vec<u8>, node: &ProfileNode) -> PResult<()> {
    put_str(out, &node.label)?;
    out.push(node.kind.code());
    for v in [
        node.wall_micros,
        node.tuples_in,
        node.tuples_out,
        node.pages_read,
        node.pages_written,
        node.spill_bytes,
        node.network_bytes,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    put_ops(out, &node.ops);
    let phases = u16::try_from(node.phases.len())
        .map_err(|_| perr(format!("{} phase notes exceed u16", node.phases.len())))?;
    out.extend_from_slice(&phases.to_le_bytes());
    for phase in &node.phases {
        put_str(out, phase)?;
    }
    let children = u16::try_from(node.children.len())
        .map_err(|_| perr(format!("{} child spans exceed u16", node.children.len())))?;
    out.extend_from_slice(&children.to_le_bytes());
    for child in &node.children {
        put_profile_node(out, child)?;
    }
    Ok(())
}

fn get_profile_node(r: &mut Reader<'_>, depth: usize, budget: &mut usize) -> PResult<ProfileNode> {
    if depth > MAX_PROFILE_DEPTH {
        return Err(perr(format!(
            "profile nesting exceeds the depth limit of {MAX_PROFILE_DEPTH}"
        )));
    }
    if *budget == 0 {
        return Err(perr(format!(
            "profile tree exceeds the {MAX_PROFILE_NODES}-node limit"
        )));
    }
    *budget -= 1;
    let label = r.str()?;
    let kind = SpanKind::from_code(r.u8()?);
    let wall_micros = r.u64()?;
    let tuples_in = r.u64()?;
    let tuples_out = r.u64()?;
    let pages_read = r.u64()?;
    let pages_written = r.u64()?;
    let spill_bytes = r.u64()?;
    let network_bytes = r.u64()?;
    let ops = get_ops(r)?;
    let n_phases = r.u16()? as usize;
    let mut phases = Vec::with_capacity(n_phases.min(256));
    for _ in 0..n_phases {
        phases.push(r.str()?);
    }
    let n_children = r.u16()? as usize;
    let mut children = Vec::with_capacity(n_children.min(256));
    for _ in 0..n_children {
        children.push(get_profile_node(r, depth + 1, budget)?);
    }
    Ok(ProfileNode {
        label,
        kind,
        wall_micros,
        tuples_in,
        tuples_out,
        ops,
        pages_read,
        pages_written,
        spill_bytes,
        network_bytes,
        phases,
        children,
    })
}

fn put_profile(out: &mut Vec<u8>, profile: &QueryProfile) -> PResult<()> {
    put_profile_node(out, &profile.root)
}

fn get_profile(r: &mut Reader<'_>) -> PResult<QueryProfile> {
    let mut budget = MAX_PROFILE_NODES;
    let root = get_profile_node(r, 0, &mut budget)?;
    Ok(QueryProfile { root })
}

// ---------------------------------------------------------------------
// Bit-vector filters
//
// Wire form: u32 bit count, u32 word count, then the words as u64s. The
// word count is redundant (it must equal ceil(bits/64)) and exists so a
// corrupt frame is caught by arithmetic, not by a misaligned read of
// whatever follows. Bounded by [`MAX_FILTER_BITS`].

fn put_filter(out: &mut Vec<u8>, filter: &BitVectorFilter) -> PResult<()> {
    if filter.bits() > MAX_FILTER_BITS {
        return Err(perr(format!(
            "filter of {} bits exceeds the {MAX_FILTER_BITS}-bit limit",
            filter.bits()
        )));
    }
    out.extend_from_slice(&(filter.bits() as u32).to_le_bytes());
    let words = filter.words();
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    Ok(())
}

fn get_filter(r: &mut Reader<'_>) -> PResult<BitVectorFilter> {
    let bits = r.u32()? as usize;
    if bits > MAX_FILTER_BITS {
        return Err(perr(format!(
            "filter of {bits} bits exceeds the {MAX_FILTER_BITS}-bit limit"
        )));
    }
    let n_words = r.u32()? as usize;
    if n_words != bits.div_ceil(64) {
        return Err(perr(format!(
            "filter word count {n_words} does not match {bits} bits"
        )));
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    BitVectorFilter::from_parts(bits, words)
        .ok_or_else(|| perr("filter geometry rejected".to_string()))
}

// ---------------------------------------------------------------------
// Requests

const OP_PING: u8 = 0x01;
const OP_REGISTER: u8 = 0x02;
const OP_DROP: u8 = 0x03;
const OP_DIVIDE: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_SHARD: u8 = 0x07;
const OP_REPARTITION: u8 = 0x08;
const OP_BUILD_FILTER: u8 = 0x09;
const OP_DIVIDE_PARTIAL: u8 = 0x0A;
const OP_EXEC_PLAN: u8 = 0x0B;
const OP_HEARTBEAT: u8 = 0x0C;
const OP_CLUSTER_EPOCH: u8 = 0x0D;
const OP_REPLICA_WRITE: u8 = 0x0E;

/// Encodes the optional trailing catalog-epoch extension shared by the
/// cluster data-plane requests: a presence byte, then the epoch. Peers
/// that predate replication simply stop before it.
fn put_epoch_ext(out: &mut Vec<u8>, epoch: Option<u64>) {
    match epoch {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
}

/// Decodes the trailing catalog-epoch extension; an exhausted reader
/// means the peer predates it.
fn get_epoch_ext(r: &mut Reader<'_>) -> PResult<Option<u64>> {
    if r.remaining() == 0 {
        return Ok(None);
    }
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(perr(format!("unknown epoch tag {t}"))),
    }
}

/// Encodes a `Register`, `Shard` or `ReplicaWrite` frame from borrowed
/// rows, so a client need not clone a relation into a [`Request`] first;
/// the bytes are those of the matching `Request`'s `encode`.
pub fn encode_write<T: Borrow<Tuple>>(
    name: &str,
    kind: &WriteKind,
    schema: &Schema,
    tuples: &[T],
    epoch: Option<u64>,
) -> PResult<Vec<u8>> {
    let (op, at) = match kind {
        WriteKind::Register => (OP_REGISTER, None),
        WriteKind::Shard(at) => (OP_SHARD, Some(at)),
        WriteKind::Replica(at) => (OP_REPLICA_WRITE, Some(at)),
    };
    let mut out = Vec::with_capacity(tuples.len() * schema.record_width() + 256);
    out.push(op);
    put_str(&mut out, name)?;
    if let Some(at) = at {
        check_placement(op, at.shard, at.of)?;
        out.extend_from_slice(&at.shard.to_le_bytes());
        out.extend_from_slice(&at.of.to_le_bytes());
        put_keys(&mut out, &at.shard_keys)?;
    }
    put_schema(&mut out, schema)?;
    put_tuples(&mut out, schema, tuples)?;
    if at.is_some() {
        put_epoch_ext(&mut out, epoch);
    }
    Ok(out)
}

fn check_placement(op: u8, index: u16, of: u16) -> PResult<()> {
    if of > 0 && of as usize <= MAX_CLUSTER_NODES && index < of {
        return Ok(());
    }
    Err(perr(if op == OP_SHARD {
        format!("shard {index}/{of} is not a valid placement")
    } else {
        format!("replica of fragment {index}/{of} is not a valid placement")
    }))
}

/// Parses the body of a bulk write frame whose opcode `op` was already
/// read, landing the record section wherever `rows` puts it.
fn get_write<R>(
    op: u8,
    r: &mut Reader<'_>,
    rows: impl FnOnce(&mut Reader<'_>, &Schema) -> PResult<R>,
) -> PResult<WriteFrame<R>> {
    let name = r.str()?;
    let kind = if op == OP_REGISTER {
        WriteKind::Register
    } else {
        let (shard, of) = (r.u16()?, r.u16()?);
        check_placement(op, shard, of)?;
        let shard_keys = get_keys(r)?;
        let at = ShardInfo {
            shard,
            of,
            shard_keys,
        };
        if op == OP_SHARD {
            WriteKind::Shard(at)
        } else {
            WriteKind::Replica(at)
        }
    };
    let schema = get_schema(r)?;
    let rows = rows(r, &schema)?;
    let epoch = match kind {
        WriteKind::Register => None,
        _ => get_epoch_ext(r)?,
    };
    Ok(WriteFrame {
        name,
        kind,
        schema,
        rows,
        epoch,
    })
}

/// Decodes a frame payload that is a `Register`, `Shard` or
/// `ReplicaWrite`, its record section read straight into columns (each
/// record checked for width and UTF-8, as [`Request::decode`] checks
/// it); `None` for any other opcode.
pub fn decode_write(payload: &[u8]) -> Option<PResult<WriteFrame<Columns>>> {
    let op = *payload.first()?;
    if !matches!(op, OP_REGISTER | OP_SHARD | OP_REPLICA_WRITE) {
        return None;
    }
    let mut r = Reader::new(&payload[1..]);
    let columns = |r: &mut Reader<'_>, schema: &Schema| {
        get_rows(r, schema.record_width(), |records| {
            Columns::from_records(schema.clone(), records)
        })
    };
    Some(get_write(op, &mut r, columns).and_then(|write| r.finish().map(|()| write)))
}

/// Encodes a membership view (epoch, member addresses, replication
/// factor), shared by the `ClusterEpoch` request and the `Epoch` reply.
fn put_membership(
    out: &mut Vec<u8>,
    epoch: u64,
    members: &[String],
    replication: u16,
) -> PResult<()> {
    if members.is_empty() || members.len() > MAX_CLUSTER_NODES {
        return Err(perr(format!(
            "{} members is outside 1..={MAX_CLUSTER_NODES}",
            members.len()
        )));
    }
    if replication == 0 || replication as usize > members.len() {
        return Err(perr(format!(
            "replication factor {replication} is outside 1..={}",
            members.len()
        )));
    }
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(members.len() as u16).to_le_bytes());
    for m in members {
        put_str(out, m)?;
    }
    out.extend_from_slice(&replication.to_le_bytes());
    Ok(())
}

/// Decodes a membership view, enforcing the same geometry bounds the
/// encoder does so hostile frames never allocate per a lying count.
fn get_membership(r: &mut Reader<'_>) -> PResult<(u64, Vec<String>, u16)> {
    let epoch = r.u64()?;
    let n = r.u16()? as usize;
    if n == 0 || n > MAX_CLUSTER_NODES {
        return Err(perr(format!(
            "{n} members is outside 1..={MAX_CLUSTER_NODES}"
        )));
    }
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push(r.str()?);
    }
    let replication = r.u16()?;
    if replication == 0 || replication as usize > members.len() {
        return Err(perr(format!(
            "replication factor {replication} is outside 1..={}",
            members.len()
        )));
    }
    Ok((epoch, members, replication))
}

/// Encodes the body of a divide request (everything after the opcode),
/// shared by [`Request::Divide`] and [`Request::DividePartial`].
fn put_divide_body(out: &mut Vec<u8>, q: &DivideRequest) -> PResult<()> {
    put_str(out, &q.dividend)?;
    put_str(out, &q.divisor)?;
    out.push(q.algorithm.map_or(ALG_AUTO, algorithm_code));
    out.push(u8::from(q.assume_unique));
    match &q.spec {
        None => out.push(0),
        Some((divisor_keys, quotient_keys)) => {
            out.push(1);
            put_keys(out, divisor_keys)?;
            put_keys(out, quotient_keys)?;
        }
    }
    // 0 on the wire means "no explicit deadline".
    out.extend_from_slice(&q.deadline_ms.unwrap_or(0).to_le_bytes());
    // Trailing extension (absent in the original revision): request a
    // query profile with the reply.
    out.push(u8::from(q.profile));
    // Trailing extension (absent before the cluster revision): run the
    // division over the in-process parallel machine.
    match &q.distribute {
        None => out.push(0),
        Some(d) => {
            if d.nodes == 0 || d.nodes > MAX_CLUSTER_NODES {
                return Err(perr(format!(
                    "distribution over {} nodes is outside 1..={MAX_CLUSTER_NODES}",
                    d.nodes
                )));
            }
            out.push(1);
            out.push(d.strategy.code());
            out.extend_from_slice(&(d.nodes as u16).to_le_bytes());
            let bits = d.bit_vector_bits.unwrap_or(0);
            if bits > MAX_FILTER_BITS {
                return Err(perr(format!(
                    "filter of {bits} bits exceeds the {MAX_FILTER_BITS}-bit limit"
                )));
            }
            out.extend_from_slice(&(bits as u64).to_le_bytes());
        }
    }
    // Trailing extension (absent before the plan revision): the
    // restricted-divisor assertion, 0xFF for "no assertion".
    out.push(match q.restricted {
        None => TRI_AUTO,
        Some(false) => 0,
        Some(true) => 1,
    });
    // Trailing extension (absent before the adaptive-memory revision):
    // per-query memory budget in bytes, 0 for "no budget".
    out.extend_from_slice(&q.mem_budget.unwrap_or(0).to_le_bytes());
    Ok(())
}

/// Decodes a divide-request body. Both trailing extensions (profile
/// byte, distribution section) may be absent: old peers stop early.
fn get_divide_body(r: &mut Reader<'_>) -> PResult<DivideRequest> {
    let dividend = r.str()?;
    let divisor = r.str()?;
    let alg = r.u8()?;
    let algorithm = if alg == ALG_AUTO {
        None
    } else {
        Some(
            algorithm_from_code(alg)
                .ok_or_else(|| perr(format!("unknown algorithm code {alg}")))?,
        )
    };
    let assume_unique = r.u8()? != 0;
    let spec = match r.u8()? {
        0 => None,
        1 => Some((get_keys(r)?, get_keys(r)?)),
        t => return Err(perr(format!("unknown spec tag {t}"))),
    };
    let deadline_ms = match r.u64()? {
        0 => None,
        ms => Some(ms),
    };
    // Original-revision clients stop here; absence of the trailing
    // profile byte means "no profile".
    let profile = r.remaining() > 0 && r.u8()? != 0;
    // Pre-cluster clients stop here; absence means "not distributed".
    let distribute = if r.remaining() > 0 {
        match r.u8()? {
            0 => None,
            1 => {
                let code = r.u8()?;
                let strategy = Strategy::from_code(code)
                    .ok_or_else(|| perr(format!("unknown strategy code {code}")))?;
                let nodes = r.u16()? as usize;
                if nodes == 0 || nodes > MAX_CLUSTER_NODES {
                    return Err(perr(format!(
                        "distribution over {nodes} nodes is outside 1..={MAX_CLUSTER_NODES}"
                    )));
                }
                let bits = r.u64()? as usize;
                if bits > MAX_FILTER_BITS {
                    return Err(perr(format!(
                        "filter of {bits} bits exceeds the {MAX_FILTER_BITS}-bit limit"
                    )));
                }
                Some(Distribution {
                    strategy,
                    nodes,
                    bit_vector_bits: if bits == 0 { None } else { Some(bits) },
                })
            }
            t => return Err(perr(format!("unknown distribution tag {t}"))),
        }
    } else {
        None
    };
    // Pre-plan-revision clients stop here; absence means "no assertion".
    let restricted = if r.remaining() > 0 {
        match r.u8()? {
            TRI_AUTO => None,
            0 => Some(false),
            1 => Some(true),
            t => return Err(perr(format!("unknown restricted tag {t:#04x}"))),
        }
    } else {
        None
    };
    // Pre-adaptive-memory clients stop here; absence (or an explicit 0)
    // means "no budget".
    let mem_budget = if r.remaining() > 0 {
        match r.u64()? {
            0 => None,
            b => Some(b),
        }
    } else {
        None
    };
    Ok(DivideRequest {
        dividend,
        divisor,
        algorithm,
        assume_unique,
        spec,
        deadline_ms,
        profile,
        distribute,
        restricted,
        mem_budget,
    })
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> PResult<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Register {
                name,
                schema,
                tuples,
            } => return encode_write(name, &WriteKind::Register, schema, tuples, None),
            Request::DropRelation { name } => {
                out.push(OP_DROP);
                put_str(&mut out, name)?;
            }
            Request::Divide(q) => {
                out.push(OP_DIVIDE);
                put_divide_body(&mut out, q)?;
            }
            Request::Stats => out.push(OP_STATS),
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::Shard(s) => {
                let at = ShardInfo {
                    shard: s.shard,
                    of: s.of,
                    shard_keys: s.shard_keys.clone(),
                };
                let kind = WriteKind::Shard(at);
                return encode_write(&s.name, &kind, &s.schema, &s.tuples, s.epoch);
            }
            Request::Repartition(p) => {
                out.push(OP_REPARTITION);
                if p.parts == 0 || p.parts as usize > MAX_CLUSTER_NODES {
                    return Err(perr(format!(
                        "repartition into {} parts is outside 1..={MAX_CLUSTER_NODES}",
                        p.parts
                    )));
                }
                put_str(&mut out, &p.name)?;
                put_keys(&mut out, &p.keys)?;
                out.extend_from_slice(&p.parts.to_le_bytes());
                match &p.filter {
                    None => out.push(0),
                    Some(f) => {
                        out.push(1);
                        put_filter(&mut out, f)?;
                    }
                }
                put_epoch_ext(&mut out, p.epoch);
            }
            Request::BuildFilter {
                name,
                keys,
                bits,
                epoch,
            } => {
                out.push(OP_BUILD_FILTER);
                if *bits == 0 || *bits as usize > MAX_FILTER_BITS {
                    return Err(perr(format!(
                        "filter of {bits} bits is outside 1..={MAX_FILTER_BITS}"
                    )));
                }
                put_str(&mut out, name)?;
                put_keys(&mut out, keys)?;
                out.extend_from_slice(&bits.to_le_bytes());
                put_epoch_ext(&mut out, *epoch);
            }
            Request::DividePartial { tag, query, epoch } => {
                out.push(OP_DIVIDE_PARTIAL);
                out.extend_from_slice(&tag.to_le_bytes());
                put_divide_body(&mut out, query)?;
                put_epoch_ext(&mut out, *epoch);
            }
            Request::ExecPlan(p) => {
                out.push(OP_EXEC_PLAN);
                if p.plan.len() > MAX_PLAN_WIRE {
                    return Err(perr(format!(
                        "plan text of {} bytes exceeds the {MAX_PLAN_WIRE}-byte limit",
                        p.plan.len()
                    )));
                }
                out.extend_from_slice(&(p.plan.len() as u32).to_le_bytes());
                out.extend_from_slice(p.plan.as_bytes());
                out.extend_from_slice(&p.deadline_ms.unwrap_or(0).to_le_bytes());
                out.push(u8::from(p.profile));
            }
            Request::Heartbeat => out.push(OP_HEARTBEAT),
            Request::ClusterEpoch(e) => {
                out.push(OP_CLUSTER_EPOCH);
                match e {
                    EpochRequest::Get => out.push(0),
                    EpochRequest::Set {
                        epoch,
                        members,
                        replication,
                    } => {
                        out.push(1);
                        put_membership(&mut out, *epoch, members, *replication)?;
                    }
                }
            }
            Request::ReplicaWrite(w) => {
                let at = ShardInfo {
                    shard: w.fragment,
                    of: w.of,
                    shard_keys: w.shard_keys.clone(),
                };
                let kind = WriteKind::Replica(at);
                return encode_write(&w.name, &kind, &w.schema, &w.tuples, w.epoch);
            }
        }
        Ok(out)
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> PResult<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            OP_PING => Request::Ping,
            op @ (OP_REGISTER | OP_SHARD | OP_REPLICA_WRITE) => {
                let WriteFrame {
                    name,
                    kind,
                    schema,
                    rows: tuples,
                    epoch,
                } = get_write(op, &mut r, get_tuples)?;
                match kind {
                    WriteKind::Register => Request::Register {
                        name,
                        schema,
                        tuples,
                    },
                    WriteKind::Shard(at) => Request::Shard(ShardRequest {
                        name,
                        shard: at.shard,
                        of: at.of,
                        shard_keys: at.shard_keys,
                        schema,
                        tuples,
                        epoch,
                    }),
                    WriteKind::Replica(at) => Request::ReplicaWrite(ReplicaWriteRequest {
                        name,
                        fragment: at.shard,
                        of: at.of,
                        shard_keys: at.shard_keys,
                        schema,
                        tuples,
                        epoch,
                    }),
                }
            }
            OP_DROP => Request::DropRelation { name: r.str()? },
            OP_DIVIDE => Request::Divide(get_divide_body(&mut r)?),
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_REPARTITION => {
                let name = r.str()?;
                let keys = get_keys(&mut r)?;
                let parts = r.u16()?;
                if parts == 0 || parts as usize > MAX_CLUSTER_NODES {
                    return Err(perr(format!(
                        "repartition into {parts} parts is outside 1..={MAX_CLUSTER_NODES}"
                    )));
                }
                let filter = match r.u8()? {
                    0 => None,
                    1 => Some(get_filter(&mut r)?),
                    t => return Err(perr(format!("unknown filter tag {t}"))),
                };
                let epoch = get_epoch_ext(&mut r)?;
                Request::Repartition(RepartitionRequest {
                    name,
                    keys,
                    parts,
                    filter,
                    epoch,
                })
            }
            OP_BUILD_FILTER => {
                let name = r.str()?;
                let keys = get_keys(&mut r)?;
                let bits = r.u32()?;
                if bits == 0 || bits as usize > MAX_FILTER_BITS {
                    return Err(perr(format!(
                        "filter of {bits} bits is outside 1..={MAX_FILTER_BITS}"
                    )));
                }
                let epoch = get_epoch_ext(&mut r)?;
                Request::BuildFilter {
                    name,
                    keys,
                    bits,
                    epoch,
                }
            }
            OP_DIVIDE_PARTIAL => {
                let tag = r.u16()?;
                let query = get_divide_body(&mut r)?;
                let epoch = get_epoch_ext(&mut r)?;
                Request::DividePartial { tag, query, epoch }
            }
            OP_EXEC_PLAN => {
                let n = r.u32()? as usize;
                if n > MAX_PLAN_WIRE {
                    return Err(perr(format!(
                        "plan text of {n} bytes exceeds the {MAX_PLAN_WIRE}-byte limit"
                    )));
                }
                let plan = String::from_utf8(r.take(n)?.to_vec())
                    .map_err(|_| perr("plan text is not UTF-8"))?;
                let deadline_ms = match r.u64()? {
                    0 => None,
                    ms => Some(ms),
                };
                let profile = r.u8()? != 0;
                Request::ExecPlan(ExecPlanRequest {
                    plan,
                    deadline_ms,
                    profile,
                })
            }
            OP_HEARTBEAT => Request::Heartbeat,
            OP_CLUSTER_EPOCH => match r.u8()? {
                0 => Request::ClusterEpoch(EpochRequest::Get),
                1 => {
                    let (epoch, members, replication) = get_membership(&mut r)?;
                    Request::ClusterEpoch(EpochRequest::Set {
                        epoch,
                        members,
                        replication,
                    })
                }
                t => return Err(perr(format!("unknown epoch request tag {t}"))),
            },
            op => return Err(perr(format!("unknown request opcode {op:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses

const STATUS_OK: u8 = 0x00;
const STATUS_ERR: u8 = 0x01;

const REPLY_PONG: u8 = 0x01;
const REPLY_REGISTERED: u8 = 0x02;
const REPLY_DROPPED: u8 = 0x03;
const REPLY_DIVIDED: u8 = 0x04;
// 0x05 was the unversioned stats reply (exactly 13 counters); no server
// has sent it since `REPLY_STATS_V2` and the code stays unassigned.
const REPLY_SHUTTING_DOWN: u8 = 0x06;
/// Versioned stats reply: a `u16` field count followed by that many
/// `u64` counters in the canonical order, then the ops block. Decoders
/// read the fields they know and skip unknown trailing fields, so the
/// counter list can grow without another reply code.
const REPLY_STATS_V2: u8 = 0x07;
const REPLY_SHARDED: u8 = 0x08;
const REPLY_REPARTITIONED: u8 = 0x09;
const REPLY_FILTER: u8 = 0x0A;
const REPLY_PARTIAL_QUOTIENT: u8 = 0x0B;
const REPLY_PLAN: u8 = 0x0C;
const REPLY_HEARTBEAT_ACK: u8 = 0x0D;
const REPLY_EPOCH: u8 = 0x0E;
const REPLY_REPLICA_ACK: u8 = 0x0F;

/// Largest algorithm list accepted in a plan reply (a plan has at most
/// [`MAX_PLAN_WIRE`]-bounded text, so thousands of divisions is already
/// absurd; this bound stops a lying count from allocating further).
const MAX_PLAN_ALGORITHMS: usize = 4096;

/// Largest pinned-relation list accepted in a plan reply.
const MAX_PLAN_RELATIONS: usize = 4096;

/// Counters every stats frame must carry (the original 13); a `V2`
/// frame announcing fewer is corrupt, not merely old.
const STATS_REQUIRED_FIELDS: usize = 13;

/// The canonical counter order of a stats frame. Append-only: new
/// counters go at the end so old decoders skip them.
fn stats_fields(s: &MetricsSnapshot) -> [u64; 21] {
    [
        s.queries,
        s.cache_hits,
        s.cache_misses,
        s.rejections,
        s.shed_shutdown,
        s.errors,
        s.timeouts,
        s.worker_panics,
        s.io_retries,
        s.latency_p50_us,
        s.latency_p95_us,
        s.latency_p99_us,
        s.latency_mean_us,
        s.latency_count,
        s.profiled_queries,
        s.replica_retries,
        s.failovers,
        s.nodes_excluded,
        s.heartbeats_missed,
        s.degraded_queries,
        s.division_spill_bytes,
    ]
}

/// Rebuilds a snapshot from wire counters in the canonical order.
/// Counters beyond the caller's slice default to zero (an old peer that
/// has never heard of them).
fn stats_from_fields(vals: &[u64], ops: OpSnapshot) -> MetricsSnapshot {
    let field = |i: usize| vals.get(i).copied().unwrap_or(0);
    MetricsSnapshot {
        queries: field(0),
        cache_hits: field(1),
        cache_misses: field(2),
        rejections: field(3),
        shed_shutdown: field(4),
        errors: field(5),
        timeouts: field(6),
        worker_panics: field(7),
        io_retries: field(8),
        latency_p50_us: field(9),
        latency_p95_us: field(10),
        latency_p99_us: field(11),
        latency_mean_us: field(12),
        latency_count: field(13),
        profiled_queries: field(14),
        replica_retries: field(15),
        failovers: field(16),
        nodes_excluded: field(17),
        heartbeats_missed: field(18),
        degraded_queries: field(19),
        division_spill_bytes: field(20),
        ops,
    }
}

/// Encodes a response as a frame payload.
pub fn encode_response(response: &Response) -> PResult<Vec<u8>> {
    let mut out = Vec::new();
    match response {
        Err(e) => {
            out.push(STATUS_ERR);
            out.push(error_code(e));
            put_str(&mut out, &e.to_string())?;
        }
        Ok(reply) => {
            out.push(STATUS_OK);
            match reply {
                Reply::Pong => out.push(REPLY_PONG),
                Reply::Registered { version } => {
                    out.push(REPLY_REGISTERED);
                    out.extend_from_slice(&version.to_le_bytes());
                }
                Reply::Dropped => out.push(REPLY_DROPPED),
                Reply::Divided(d) => {
                    out.push(REPLY_DIVIDED);
                    out.push(algorithm_code(d.algorithm));
                    out.push(u8::from(d.cached));
                    out.extend_from_slice(&d.dividend_version.to_le_bytes());
                    out.extend_from_slice(&d.divisor_version.to_le_bytes());
                    out.extend_from_slice(&d.micros.to_le_bytes());
                    put_ops(&mut out, &d.ops);
                    put_schema(&mut out, &d.schema)?;
                    put_tuples(&mut out, &d.schema, &d.tuples)?;
                    // Trailing extension (absent in the original
                    // revision): the query profile, when one was taken.
                    match &d.profile {
                        None => out.push(0),
                        Some(profile) => {
                            out.push(1);
                            put_profile(&mut out, profile)?;
                        }
                    }
                }
                Reply::Stats(s) => {
                    out.push(REPLY_STATS_V2);
                    let fields = stats_fields(s);
                    let n = u16::try_from(fields.len())
                        .map_err(|_| perr("stats field count exceeds u16"))?;
                    out.extend_from_slice(&n.to_le_bytes());
                    for v in fields {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    put_ops(&mut out, &s.ops);
                }
                Reply::ShuttingDown => out.push(REPLY_SHUTTING_DOWN),
                Reply::Sharded { version } => {
                    out.push(REPLY_SHARDED);
                    out.extend_from_slice(&version.to_le_bytes());
                }
                Reply::Repartitioned {
                    schema,
                    buckets,
                    filtered,
                } => {
                    out.push(REPLY_REPARTITIONED);
                    if buckets.is_empty() || buckets.len() > MAX_CLUSTER_NODES {
                        return Err(perr(format!(
                            "{} buckets is outside 1..={MAX_CLUSTER_NODES}",
                            buckets.len()
                        )));
                    }
                    put_schema(&mut out, schema)?;
                    out.extend_from_slice(&(buckets.len() as u16).to_le_bytes());
                    for bucket in buckets {
                        put_tuples(&mut out, schema, bucket)?;
                    }
                    out.extend_from_slice(&filtered.to_le_bytes());
                }
                Reply::Filter { filter, insertions } => {
                    out.push(REPLY_FILTER);
                    put_filter(&mut out, filter)?;
                    out.extend_from_slice(&insertions.to_le_bytes());
                }
                Reply::Plan(p) => {
                    out.push(REPLY_PLAN);
                    if p.algorithms.len() > MAX_PLAN_ALGORITHMS {
                        return Err(perr(format!(
                            "{} division algorithms exceed the plan-reply limit",
                            p.algorithms.len()
                        )));
                    }
                    out.extend_from_slice(&(p.algorithms.len() as u16).to_le_bytes());
                    for &alg in &p.algorithms {
                        out.push(algorithm_code(alg));
                    }
                    out.push(u8::from(p.cached));
                    out.extend_from_slice(&p.micros.to_le_bytes());
                    put_ops(&mut out, &p.ops);
                    if p.relations.len() > MAX_PLAN_RELATIONS {
                        return Err(perr(format!(
                            "{} pinned relations exceed the plan-reply limit",
                            p.relations.len()
                        )));
                    }
                    out.extend_from_slice(&(p.relations.len() as u16).to_le_bytes());
                    for (name, version) in &p.relations {
                        put_str(&mut out, name)?;
                        out.extend_from_slice(&version.to_le_bytes());
                    }
                    put_schema(&mut out, &p.schema)?;
                    put_tuples(&mut out, &p.schema, &p.tuples)?;
                    match &p.profile {
                        None => out.push(0),
                        Some(profile) => {
                            out.push(1);
                            put_profile(&mut out, profile)?;
                        }
                    }
                }
                Reply::HeartbeatAck { epoch, accepting } => {
                    out.push(REPLY_HEARTBEAT_ACK);
                    out.extend_from_slice(&epoch.to_le_bytes());
                    out.push(u8::from(*accepting));
                }
                Reply::Epoch {
                    epoch,
                    members,
                    replication,
                } => {
                    out.push(REPLY_EPOCH);
                    put_membership(&mut out, *epoch, members, *replication)?;
                }
                Reply::ReplicaAck { version, fragment } => {
                    out.push(REPLY_REPLICA_ACK);
                    out.extend_from_slice(&version.to_le_bytes());
                    out.extend_from_slice(&fragment.to_le_bytes());
                }
                Reply::PartialQuotient(p) => {
                    out.push(REPLY_PARTIAL_QUOTIENT);
                    out.extend_from_slice(&p.tag.to_le_bytes());
                    out.push(algorithm_code(p.algorithm));
                    out.extend_from_slice(&p.dividend_version.to_le_bytes());
                    out.extend_from_slice(&p.divisor_version.to_le_bytes());
                    out.extend_from_slice(&p.micros.to_le_bytes());
                    put_ops(&mut out, &p.ops);
                    put_schema(&mut out, &p.schema)?;
                    put_tuples(&mut out, &p.schema, &p.tuples)?;
                    match &p.profile {
                        None => out.push(0),
                        Some(profile) => {
                            out.push(1);
                            put_profile(&mut out, profile)?;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Decodes a response frame payload.
pub fn decode_response(payload: &[u8]) -> PResult<Response> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        STATUS_ERR => {
            let code = r.u8()?;
            let message = r.str()?;
            r.finish()?;
            Ok(Err(error_from_code(code, message)))
        }
        STATUS_OK => {
            let reply = match r.u8()? {
                REPLY_PONG => Reply::Pong,
                REPLY_REGISTERED => Reply::Registered { version: r.u64()? },
                REPLY_DROPPED => Reply::Dropped,
                REPLY_DIVIDED => {
                    let alg = r.u8()?;
                    let algorithm = algorithm_from_code(alg)
                        .ok_or_else(|| perr(format!("unknown algorithm code {alg}")))?;
                    let cached = r.u8()? != 0;
                    let dividend_version = r.u64()?;
                    let divisor_version = r.u64()?;
                    let micros = r.u64()?;
                    let ops = get_ops(&mut r)?;
                    let schema = get_schema(&mut r)?;
                    let tuples = get_tuples(&mut r, &schema)?;
                    // Original-revision servers stop here; absence of
                    // the trailing profile tag means "no profile".
                    let profile = if r.remaining() > 0 {
                        match r.u8()? {
                            0 => None,
                            1 => Some(get_profile(&mut r)?),
                            t => return Err(perr(format!("unknown profile tag {t}"))),
                        }
                    } else {
                        None
                    };
                    Reply::Divided(DivideReply {
                        algorithm,
                        cached,
                        dividend_version,
                        divisor_version,
                        micros,
                        ops,
                        schema,
                        tuples: Arc::new(tuples),
                        profile,
                    })
                }
                REPLY_STATS_V2 => {
                    let n = r.u16()? as usize;
                    if n < STATS_REQUIRED_FIELDS {
                        return Err(perr(format!(
                            "stats frame announces {n} counters; at least \
                             {STATS_REQUIRED_FIELDS} are required"
                        )));
                    }
                    let mut vals = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        vals.push(r.u64()?);
                    }
                    // Counters past the ones we know are a newer peer's
                    // extensions; they were read (so the ops block lines
                    // up) and are otherwise ignored.
                    let ops = get_ops(&mut r)?;
                    Reply::Stats(stats_from_fields(&vals, ops))
                }
                REPLY_SHUTTING_DOWN => Reply::ShuttingDown,
                REPLY_SHARDED => Reply::Sharded { version: r.u64()? },
                REPLY_REPARTITIONED => {
                    let schema = get_schema(&mut r)?;
                    let parts = r.u16()? as usize;
                    if parts == 0 || parts > MAX_CLUSTER_NODES {
                        return Err(perr(format!(
                            "{parts} buckets is outside 1..={MAX_CLUSTER_NODES}"
                        )));
                    }
                    let mut buckets = Vec::with_capacity(parts);
                    for _ in 0..parts {
                        buckets.push(get_tuples(&mut r, &schema)?);
                    }
                    let filtered = r.u64()?;
                    Reply::Repartitioned {
                        schema,
                        buckets,
                        filtered,
                    }
                }
                REPLY_FILTER => {
                    let filter = get_filter(&mut r)?;
                    let insertions = r.u64()?;
                    Reply::Filter { filter, insertions }
                }
                REPLY_PLAN => {
                    let n_algs = r.u16()? as usize;
                    if n_algs > MAX_PLAN_ALGORITHMS {
                        return Err(perr(format!(
                            "{n_algs} division algorithms exceed the plan-reply limit"
                        )));
                    }
                    let mut algorithms = Vec::with_capacity(n_algs);
                    for _ in 0..n_algs {
                        let code = r.u8()?;
                        algorithms.push(
                            algorithm_from_code(code)
                                .ok_or_else(|| perr(format!("unknown algorithm code {code}")))?,
                        );
                    }
                    let cached = r.u8()? != 0;
                    let micros = r.u64()?;
                    let ops = get_ops(&mut r)?;
                    let n_rels = r.u16()? as usize;
                    if n_rels > MAX_PLAN_RELATIONS {
                        return Err(perr(format!(
                            "{n_rels} pinned relations exceed the plan-reply limit"
                        )));
                    }
                    let mut relations = Vec::with_capacity(n_rels);
                    for _ in 0..n_rels {
                        let name = r.str()?;
                        let version = r.u64()?;
                        relations.push((name, version));
                    }
                    let schema = get_schema(&mut r)?;
                    let tuples = get_tuples(&mut r, &schema)?;
                    let profile = match r.u8()? {
                        0 => None,
                        1 => Some(get_profile(&mut r)?),
                        t => return Err(perr(format!("unknown profile tag {t}"))),
                    };
                    Reply::Plan(PlanReply {
                        algorithms,
                        cached,
                        micros,
                        ops,
                        relations,
                        schema,
                        tuples: Arc::new(tuples),
                        profile,
                    })
                }
                REPLY_PARTIAL_QUOTIENT => {
                    let tag = r.u16()?;
                    let alg = r.u8()?;
                    let algorithm = algorithm_from_code(alg)
                        .ok_or_else(|| perr(format!("unknown algorithm code {alg}")))?;
                    let dividend_version = r.u64()?;
                    let divisor_version = r.u64()?;
                    let micros = r.u64()?;
                    let ops = get_ops(&mut r)?;
                    let schema = get_schema(&mut r)?;
                    let tuples = get_tuples(&mut r, &schema)?;
                    let profile = match r.u8()? {
                        0 => None,
                        1 => Some(get_profile(&mut r)?),
                        t => return Err(perr(format!("unknown profile tag {t}"))),
                    };
                    Reply::PartialQuotient(PartialQuotientReply {
                        tag,
                        algorithm,
                        dividend_version,
                        divisor_version,
                        micros,
                        ops,
                        schema,
                        tuples: Arc::new(tuples),
                        profile,
                    })
                }
                REPLY_HEARTBEAT_ACK => {
                    let epoch = r.u64()?;
                    let accepting = r.u8()? != 0;
                    Reply::HeartbeatAck { epoch, accepting }
                }
                REPLY_EPOCH => {
                    let (epoch, members, replication) = get_membership(&mut r)?;
                    Reply::Epoch {
                        epoch,
                        members,
                        replication,
                    }
                }
                REPLY_REPLICA_ACK => {
                    let version = r.u64()?;
                    let fragment = r.u16()?;
                    Reply::ReplicaAck { version, fragment }
                }
                t => return Err(perr(format!("unknown reply tag {t:#04x}"))),
            };
            r.finish()?;
            Ok(Ok(reply))
        }
        s => Err(perr(format!("unknown status byte {s:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::tuple::ints;

    fn schema2() -> Schema {
        Schema::new(vec![Field::int("q"), Field::int("d")])
    }

    #[test]
    fn derived_names_are_the_part_and_repl_copies_of_exactly_that_base() {
        for name in [
            ".part.r.3.4.1.0",
            ".part.r.3.4.1.4096.s.7",
            ".repl.r.9",
            ".replica.2..part.r.3.4.1.0",
        ] {
            assert!(is_derived_from(name, "r"), "{name}");
        }
        // The base itself, its replicas, other relations' temporaries
        // (also ones merely filtered by `r`) and longer names are not.
        for name in [
            "r",
            ".replica.2.r",
            ".part.rr.3.4.1.0",
            ".part.s.3.4.1.4096.r.7",
            ".repl.s.9",
        ] {
            assert!(!is_derived_from(name, "r"), "{name}");
        }
        assert_eq!(fragment_base(".replica.12.r"), "r");
        assert_eq!(fragment_base(".replica.0..part.r.3"), ".part.r.3");
        assert_eq!(fragment_base("r.x"), "r.x");
    }

    /// A small but fully populated span tree: `depth` levels, two
    /// children per level, every metric non-zero somewhere.
    fn sample_profile_node(depth: usize) -> ProfileNode {
        let children = if depth == 0 {
            Vec::new()
        } else {
            vec![
                sample_profile_node(depth - 1),
                sample_profile_node(depth - 1),
            ]
        };
        ProfileNode {
            label: format!("span at depth {depth}"),
            kind: if depth == 0 {
                SpanKind::Scan
            } else {
                SpanKind::Query
            },
            wall_micros: 100 + depth as u64,
            tuples_in: 7,
            tuples_out: 5,
            ops: OpSnapshot {
                comparisons: 11,
                hashes: 13,
                moves: 17,
                bitops: 19,
            },
            pages_read: 3,
            pages_written: 2,
            spill_bytes: 4096,
            network_bytes: 0,
            phases: vec!["in-memory".into()],
            children,
        }
    }

    /// A stats reply round-trips through the versioned frame, new
    /// counters included.
    #[test]
    fn stats_reply_round_trips_with_new_counters() {
        let snapshot = MetricsSnapshot {
            queries: 9,
            cache_hits: 2,
            cache_misses: 7,
            rejections: 0,
            shed_shutdown: 0,
            errors: 1,
            timeouts: 0,
            worker_panics: 0,
            io_retries: 3,
            latency_p50_us: 50,
            latency_p95_us: 95,
            latency_p99_us: 99,
            latency_mean_us: 60,
            latency_count: 9,
            profiled_queries: 4,
            replica_retries: 6,
            failovers: 2,
            nodes_excluded: 1,
            heartbeats_missed: 5,
            degraded_queries: 3,
            division_spill_bytes: 65536,
            ops: OpSnapshot {
                comparisons: 1,
                hashes: 2,
                moves: 3,
                bitops: 4,
            },
        };
        let bytes = encode_response(&Ok(Reply::Stats(snapshot))).unwrap();
        assert_eq!(
            bytes[1], REPLY_STATS_V2,
            "encoder emits the versioned frame"
        );
        match decode_response(&bytes).unwrap().unwrap() {
            Reply::Stats(decoded) => assert_eq!(decoded, snapshot),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// The unversioned stats reply (tag 0x05, exactly 13 counters) is
    /// retired: it gets the typed unknown-reply error of any unassigned
    /// code, not a best-effort decode.
    #[test]
    fn legacy_stats_frame_is_an_unknown_reply() {
        let mut frame = vec![STATUS_OK, 0x05];
        for v in 1..=13u64 {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        put_ops(&mut frame, &OpSnapshot::default());
        match decode_response(&frame) {
            Err(ServiceError::Protocol(msg)) => {
                assert!(msg.contains("unknown reply tag 0x05"), "{msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// A versioned frame from a *newer* server that has grown counters
    /// we do not know decodes cleanly: the known prefix is read, the
    /// extras are skipped, and the ops block still lines up.
    #[test]
    fn future_stats_frame_with_extra_counters_decodes() {
        let mut frame = vec![STATUS_OK, REPLY_STATS_V2];
        frame.extend_from_slice(&24u16.to_le_bytes());
        for v in 1..=24u64 {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        let ops = OpSnapshot {
            comparisons: 40,
            hashes: 41,
            moves: 42,
            bitops: 43,
        };
        put_ops(&mut frame, &ops);
        match decode_response(&frame).unwrap().unwrap() {
            Reply::Stats(s) => {
                assert_eq!(s.queries, 1);
                assert_eq!(s.latency_count, 14);
                assert_eq!(s.profiled_queries, 15);
                assert_eq!(s.replica_retries, 16);
                assert_eq!(s.failovers, 17);
                assert_eq!(s.nodes_excluded, 18);
                assert_eq!(s.heartbeats_missed, 19);
                assert_eq!(s.ops, ops, "ops block read after skipping extras");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// A stats frame from a PR 4-era peer — versioned tag, 15 counters,
    /// predating the replication counters — still decodes; the four
    /// robustness counters it has never heard of read as zero.
    #[test]
    fn pre_replication_stats_frame_decodes_with_robustness_counters_zero() {
        let mut frame = vec![STATUS_OK, REPLY_STATS_V2];
        frame.extend_from_slice(&15u16.to_le_bytes());
        for v in 1..=15u64 {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        put_ops(&mut frame, &OpSnapshot::default());
        match decode_response(&frame).unwrap().unwrap() {
            Reply::Stats(s) => {
                assert_eq!(s.profiled_queries, 15, "last counter the peer knows");
                assert_eq!(s.replica_retries, 0);
                assert_eq!(s.failovers, 0);
                assert_eq!(s.nodes_excluded, 0);
                assert_eq!(s.heartbeats_missed, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// A versioned frame announcing fewer than the 13 required counters
    /// is a typed protocol error, not a short read or a misparse.
    #[test]
    fn short_stats_frame_is_a_typed_protocol_error() {
        let mut frame = vec![STATUS_OK, REPLY_STATS_V2];
        frame.extend_from_slice(&12u16.to_le_bytes());
        for v in 1..=12u64 {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        put_ops(&mut frame, &OpSnapshot::default());
        match decode_response(&frame) {
            Err(ServiceError::Protocol(msg)) => {
                assert!(msg.contains("12"), "names the bad count: {msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// Divide requests and replies without the trailing profile bytes —
    /// what original-revision peers send — still decode.
    #[test]
    fn profile_extension_is_optional_on_the_wire() {
        // A request frame cut exactly before the trailing profile byte.
        let req = Request::Divide(DivideRequest {
            dividend: "r".into(),
            divisor: "s".into(),
            algorithm: None,
            assume_unique: false,
            spec: None,
            deadline_ms: None,
            profile: true,
            distribute: None,
            restricted: None,
            mem_budget: None,
        });
        let bytes = req.encode().unwrap();
        // The frame tail is four trailing extensions, newest last:
        // [profile byte][distribution tag][restricted byte][mem-budget
        // u64]. Cut the mem-budget word only (a plan-era peer).
        match Request::decode(&bytes[..bytes.len() - 8]).unwrap() {
            Request::Divide(q) => {
                assert!(q.profile, "profile byte survives the shorter frame");
                assert_eq!(q.distribute, None, "absent section decodes as None");
                assert_eq!(q.restricted, None, "absent byte decodes as None");
                assert_eq!(q.mem_budget, None, "absent word decodes as None");
            }
            other => panic!("expected divide, got {other:?}"),
        }
        // Cut the restricted byte too (a distribution-era peer).
        match Request::decode(&bytes[..bytes.len() - 9]).unwrap() {
            Request::Divide(q) => {
                assert!(q.profile, "profile byte survives the shorter frame");
                assert_eq!(q.distribute, None, "absent section decodes as None");
                assert_eq!(q.restricted, None, "absent byte decodes as None");
                assert_eq!(q.mem_budget, None);
            }
            other => panic!("expected divide, got {other:?}"),
        }
        // Cut the distribution tag too (a profile-era peer).
        match Request::decode(&bytes[..bytes.len() - 10]).unwrap() {
            Request::Divide(q) => {
                assert!(q.profile, "profile byte survives the shorter frame");
                assert_eq!(q.distribute, None, "absent section decodes as None");
                assert_eq!(q.restricted, None);
                assert_eq!(q.mem_budget, None);
            }
            other => panic!("expected divide, got {other:?}"),
        }
        // Cut all four trailing extensions (an original-revision peer).
        match Request::decode(&bytes[..bytes.len() - 11]).unwrap() {
            Request::Divide(q) => {
                assert!(!q.profile, "absent byte decodes as false");
                assert_eq!(q.distribute, None);
                assert_eq!(q.restricted, None);
                assert_eq!(q.mem_budget, None);
            }
            other => panic!("expected divide, got {other:?}"),
        }
        // A reply frame cut exactly before the trailing profile tag.
        let reply = Ok(Reply::Divided(DivideReply {
            algorithm: Algorithm::Naive,
            cached: false,
            dividend_version: 1,
            divisor_version: 1,
            micros: 10,
            ops: OpSnapshot::default(),
            schema: schema2(),
            tuples: Arc::new(vec![ints(&[1, 2])]),
            profile: None,
        }));
        let bytes = encode_response(&reply).unwrap();
        match decode_response(&bytes[..bytes.len() - 1]).unwrap().unwrap() {
            Reply::Divided(d) => assert_eq!(d.profile, None),
            other => panic!("expected divided, got {other:?}"),
        }
    }

    /// Hostile profile payloads hit the typed depth and node limits
    /// instead of recursing or allocating without bound.
    #[test]
    fn profile_limits_are_enforced() {
        // Depth: a chain one deeper than the limit.
        let mut node = ProfileNode {
            children: Vec::new(),
            ..sample_profile_node(0)
        };
        for _ in 0..=MAX_PROFILE_DEPTH {
            node = ProfileNode {
                children: vec![node],
                ..sample_profile_node(0)
            };
        }
        let mut out = Vec::new();
        put_profile_node(&mut out, &node).unwrap();
        let mut r = Reader::new(&out);
        match get_profile(&mut r) {
            Err(ServiceError::Protocol(msg)) => assert!(msg.contains("depth")),
            other => panic!("expected a depth error, got {other:?}"),
        }

        // Node count: a star two levels deep that exceeds the budget.
        let leaf = ProfileNode {
            children: Vec::new(),
            ..sample_profile_node(0)
        };
        let arm = ProfileNode {
            children: vec![leaf.clone(); 600],
            ..sample_profile_node(0)
        };
        let wide = ProfileNode {
            children: vec![arm; 200],
            ..sample_profile_node(0)
        };
        assert!(wide.node_count() > MAX_PROFILE_NODES);
        let mut out = Vec::new();
        put_profile_node(&mut out, &wide).unwrap();
        let mut r = Reader::new(&out);
        match get_profile(&mut r) {
            Err(ServiceError::Protocol(msg)) => assert!(msg.contains("node")),
            other => panic!("expected a node-limit error, got {other:?}"),
        }
    }

    #[test]
    fn algorithm_codes_round_trip() {
        for alg in Algorithm::table_columns() {
            assert_eq!(algorithm_from_code(algorithm_code(alg)), Some(alg));
        }
        assert_eq!(algorithm_from_code(ALG_AUTO), None);
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Ping,
            Request::Register {
                name: "transcript".into(),
                schema: schema2(),
                tuples: vec![ints(&[1, 10]), ints(&[2, 20])],
            },
            Request::DropRelation {
                name: "transcript".into(),
            },
            Request::Divide(DivideRequest {
                dividend: "r".into(),
                divisor: "s".into(),
                algorithm: Some(Algorithm::Naive),
                assume_unique: true,
                spec: Some((vec![1], vec![0])),
                deadline_ms: Some(2_500),
                profile: true,
                distribute: None,
                restricted: None,
                mem_budget: None,
            }),
            Request::Divide(DivideRequest {
                dividend: "r".into(),
                divisor: "s".into(),
                algorithm: None,
                assume_unique: false,
                spec: None,
                deadline_ms: None,
                profile: false,
                distribute: None,
                restricted: None,
                mem_budget: None,
            }),
            Request::Divide(DivideRequest {
                dividend: "r".into(),
                divisor: "s".into(),
                algorithm: None,
                assume_unique: false,
                spec: None,
                deadline_ms: None,
                profile: false,
                distribute: Some(Distribution {
                    strategy: Strategy::DivisorPartitioning,
                    nodes: 8,
                    bit_vector_bits: Some(4096),
                }),
                restricted: Some(false),
                mem_budget: None,
            }),
            Request::Stats,
            Request::Shutdown,
            Request::Shard(ShardRequest {
                name: "transcript".into(),
                shard: 2,
                of: 4,
                shard_keys: vec![0],
                schema: schema2(),
                tuples: vec![ints(&[1, 10]), ints(&[5, 50])],
                epoch: Some(3),
            }),
            Request::Repartition(RepartitionRequest {
                name: "transcript".into(),
                keys: vec![1],
                parts: 4,
                filter: None,
                epoch: None,
            }),
            Request::Repartition(RepartitionRequest {
                name: "transcript".into(),
                keys: vec![1],
                parts: 3,
                filter: Some(sample_filter()),
                epoch: Some(9),
            }),
            Request::BuildFilter {
                name: "courses".into(),
                keys: vec![0],
                bits: 1024,
                epoch: Some(1),
            },
            Request::DividePartial {
                tag: 7,
                query: DivideRequest {
                    dividend: ".part.r.3".into(),
                    divisor: ".repl.s.9".into(),
                    algorithm: Some(Algorithm::HashDivision {
                        mode: HashDivisionMode::Standard,
                    }),
                    assume_unique: false,
                    spec: None,
                    deadline_ms: Some(5_000),
                    profile: true,
                    distribute: None,
                    restricted: Some(true),
                    mem_budget: None,
                },
                epoch: Some(12),
            },
            Request::Heartbeat,
            Request::ClusterEpoch(EpochRequest::Get),
            Request::ClusterEpoch(EpochRequest::Set {
                epoch: 5,
                members: vec!["127.0.0.1:7181".into(), "127.0.0.1:7182".into()],
                replication: 2,
            }),
            Request::ReplicaWrite(ReplicaWriteRequest {
                name: "transcript".into(),
                fragment: 1,
                of: 3,
                shard_keys: vec![0],
                schema: schema2(),
                tuples: vec![ints(&[4, 40])],
                epoch: Some(5),
            }),
            Request::ReplicaWrite(ReplicaWriteRequest {
                name: "transcript".into(),
                fragment: 0,
                of: 2,
                shard_keys: vec![],
                schema: schema2(),
                tuples: vec![],
                epoch: None,
            }),
            Request::ExecPlan(ExecPlanRequest {
                plan: "(divide (on course-no) (scan transcript) \
                       (project (course-no) (filter (contains title \"database\") \
                       (scan courses))))"
                    .into(),
                deadline_ms: Some(3_000),
                profile: true,
            }),
            Request::ExecPlan(ExecPlanRequest {
                plan: "(scan r)".into(),
                deadline_ms: None,
                profile: false,
            }),
        ];
        for req in requests {
            let bytes = req.encode().unwrap();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    /// The plan-text size cap is enforced symmetrically: encode refuses
    /// to build an oversize frame, decode refuses a hostile length claim
    /// before allocating.
    #[test]
    fn plan_frames_enforce_the_size_cap() {
        let oversize = Request::ExecPlan(ExecPlanRequest {
            plan: "x".repeat(MAX_PLAN_WIRE + 1),
            deadline_ms: None,
            profile: false,
        });
        assert!(oversize.encode().is_err());

        let mut hostile = vec![0x0B];
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(Request::decode(&hostile).is_err(), "length claim rejected");
    }

    /// The restricted-divisor trailing byte: 0xFF means "no assertion",
    /// 0/1 are the explicit claims, anything else is a protocol error.
    #[test]
    fn restricted_byte_rejects_unknown_tags() {
        let bytes = Request::Divide(DivideRequest {
            dividend: "r".into(),
            divisor: "s".into(),
            algorithm: None,
            assume_unique: false,
            spec: None,
            deadline_ms: None,
            profile: false,
            distribute: None,
            restricted: Some(false),
            mem_budget: None,
        })
        .encode()
        .unwrap();
        // The restricted byte sits just before the trailing 8-byte
        // mem-budget word.
        let pos = bytes.len() - 9;
        assert_eq!(bytes[pos], 0, "Some(false) encodes as 0");
        let mut mutated = bytes.clone();
        mutated[pos] = 2;
        assert!(Request::decode(&mutated).is_err());
        mutated[pos] = TRI_AUTO;
        match Request::decode(&mutated).unwrap() {
            Request::Divide(q) => assert_eq!(q.restricted, None),
            other => panic!("expected divide, got {other:?}"),
        }
    }

    /// The mem-budget trailing word: 0 means "no budget", a nonzero
    /// value is the per-query cap in bytes.
    #[test]
    fn mem_budget_word_round_trips() {
        let mut req = DivideRequest {
            dividend: "r".into(),
            divisor: "s".into(),
            algorithm: None,
            assume_unique: false,
            spec: None,
            deadline_ms: None,
            profile: false,
            distribute: None,
            restricted: None,
            mem_budget: Some(256 * 1024),
        };
        let bytes = Request::Divide(req.clone()).encode().unwrap();
        match Request::decode(&bytes).unwrap() {
            Request::Divide(q) => assert_eq!(q.mem_budget, Some(256 * 1024)),
            other => panic!("expected divide, got {other:?}"),
        }
        // An explicit 0 on the wire decodes as "no budget".
        req.mem_budget = None;
        let bytes = Request::Divide(req).encode().unwrap();
        assert_eq!(&bytes[bytes.len() - 8..], &[0u8; 8]);
        match Request::decode(&bytes).unwrap() {
            Request::Divide(q) => assert_eq!(q.mem_budget, None),
            other => panic!("expected divide, got {other:?}"),
        }
    }

    fn sample_filter() -> BitVectorFilter {
        let mut f = BitVectorFilter::new(512);
        for d in 0..40 {
            f.insert(&ints(&[d]));
        }
        f
    }

    #[test]
    fn responses_round_trip() {
        let responses: Vec<Response> = vec![
            Ok(Reply::Pong),
            Ok(Reply::Registered { version: 42 }),
            Ok(Reply::Dropped),
            Ok(Reply::Divided(DivideReply {
                algorithm: Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                },
                cached: true,
                dividend_version: 3,
                divisor_version: 4,
                micros: 1234,
                ops: OpSnapshot {
                    comparisons: 1,
                    hashes: 2,
                    moves: 3,
                    bitops: 4,
                },
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(vec![ints(&[7]), ints(&[9])]),
                profile: Some(QueryProfile {
                    root: sample_profile_node(2),
                }),
            })),
            Ok(Reply::Stats(MetricsSnapshot {
                queries: 10,
                cache_hits: 4,
                cache_misses: 6,
                rejections: 1,
                shed_shutdown: 0,
                errors: 2,
                timeouts: 5,
                worker_panics: 1,
                io_retries: 17,
                latency_p50_us: 100,
                latency_p95_us: 200,
                latency_p99_us: 300,
                latency_mean_us: 120,
                latency_count: 10,
                profiled_queries: 3,
                replica_retries: 8,
                failovers: 4,
                nodes_excluded: 2,
                heartbeats_missed: 6,
                degraded_queries: 1,
                division_spill_bytes: 4096,
                ops: OpSnapshot::default(),
            })),
            Ok(Reply::ShuttingDown),
            Ok(Reply::Sharded { version: 99 }),
            Ok(Reply::HeartbeatAck {
                epoch: 7,
                accepting: true,
            }),
            Ok(Reply::HeartbeatAck {
                epoch: 0,
                accepting: false,
            }),
            Ok(Reply::Epoch {
                epoch: 4,
                members: vec!["127.0.0.1:7181".into(), "127.0.0.1:7182".into()],
                replication: 2,
            }),
            Ok(Reply::ReplicaAck {
                version: 12,
                fragment: 3,
            }),
            Ok(Reply::Repartitioned {
                schema: schema2(),
                buckets: vec![
                    vec![ints(&[1, 10]), ints(&[2, 20])],
                    vec![],
                    vec![ints(&[3, 30])],
                ],
                filtered: 12,
            }),
            Ok(Reply::Filter {
                filter: sample_filter(),
                insertions: 40,
            }),
            Ok(Reply::PartialQuotient(PartialQuotientReply {
                tag: 3,
                algorithm: Algorithm::HashDivision {
                    mode: HashDivisionMode::Standard,
                },
                dividend_version: 11,
                divisor_version: 12,
                micros: 777,
                ops: OpSnapshot {
                    comparisons: 5,
                    hashes: 6,
                    moves: 7,
                    bitops: 8,
                },
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(vec![ints(&[4]), ints(&[5])]),
                profile: Some(QueryProfile {
                    root: sample_profile_node(1),
                }),
            })),
            Ok(Reply::PartialQuotient(PartialQuotientReply {
                tag: 0,
                algorithm: Algorithm::Naive,
                dividend_version: 1,
                divisor_version: 2,
                micros: 1,
                ops: OpSnapshot::default(),
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(vec![]),
                profile: None,
            })),
            Ok(Reply::Plan(PlanReply {
                algorithms: vec![
                    Algorithm::SortAggregation { join: true },
                    Algorithm::HashDivision {
                        mode: HashDivisionMode::Standard,
                    },
                ],
                cached: false,
                micros: 4321,
                ops: OpSnapshot {
                    comparisons: 9,
                    hashes: 10,
                    moves: 11,
                    bitops: 12,
                },
                relations: vec![("courses".into(), 7), ("transcript".into(), 5)],
                schema: Schema::new(vec![Field::int("student-id")]),
                tuples: Arc::new(vec![ints(&[1]), ints(&[3])]),
                profile: Some(QueryProfile {
                    root: sample_profile_node(2),
                }),
            })),
            Ok(Reply::Plan(PlanReply {
                algorithms: vec![],
                cached: true,
                micros: 2,
                ops: OpSnapshot::default(),
                relations: vec![("r".into(), 1)],
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(vec![]),
                profile: None,
            })),
            Err(ServiceError::Overloaded),
            Err(ServiceError::DeadlineExceeded),
            Err(ServiceError::UnknownRelation(
                "unknown relation \"x\"".into(),
            )),
            Err(ServiceError::StaleEpoch(
                "request epoch 2, node epoch 5".into(),
            )),
        ];
        for resp in responses {
            let bytes = encode_response(&resp).unwrap();
            let decoded = decode_response(&bytes).unwrap();
            match (&resp, &decoded) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(error_code(a), error_code(b)),
                _ => panic!("status mismatch: {resp:?} vs {decoded:?}"),
            }
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn string_relations_round_trip() {
        let schema = Schema::new(vec![Field::int("id"), Field::str("title", 16)]);
        let tuples = vec![Tuple::new(vec![
            reldiv_rel::Value::Int(1),
            reldiv_rel::Value::Str("database".into()),
        ])];
        let req = Request::Register {
            name: "courses".into(),
            schema,
            tuples,
        };
        let bytes = req.encode().unwrap();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        let bytes = Request::Stats.encode().unwrap();
        assert!(matches!(
            Request::decode(&bytes[..0]),
            Err(ServiceError::Protocol(_))
        ));
        let mut with_trailing = bytes.clone();
        with_trailing.push(0);
        assert!(matches!(
            Request::decode(&with_trailing),
            Err(ServiceError::Protocol(_))
        ));
    }

    /// Every cluster frame rejects out-of-range geometry with a typed
    /// protocol error, on the encode side (bad values never hit the wire)
    /// and the decode side (hostile frames never allocate per a lying
    /// count). Frames are hand-built so the decode checks are exercised
    /// even for values the encoder refuses to produce.
    #[test]
    fn cluster_frames_reject_bad_geometry() {
        let protocol_err = |r: PResult<Request>| {
            assert!(matches!(r, Err(ServiceError::Protocol(_))), "{r:?}");
        };
        // Shard placement: shard >= of, of = 0, of > MAX_CLUSTER_NODES.
        for (shard, of) in [(4u16, 4u16), (0, 0), (0, MAX_CLUSTER_NODES as u16 + 1)] {
            let req = Request::Shard(ShardRequest {
                name: "r".into(),
                shard,
                of,
                shard_keys: vec![0],
                schema: schema2(),
                tuples: vec![],
                epoch: None,
            });
            protocol_err(req.encode().map(|_| Request::Ping));
            let mut frame = vec![OP_SHARD];
            put_str(&mut frame, "r").unwrap();
            frame.extend_from_slice(&shard.to_le_bytes());
            frame.extend_from_slice(&of.to_le_bytes());
            protocol_err(Request::decode(&frame));
            // The replica-write frame enforces the same placement bounds.
            let req = Request::ReplicaWrite(ReplicaWriteRequest {
                name: "r".into(),
                fragment: shard,
                of,
                shard_keys: vec![0],
                schema: schema2(),
                tuples: vec![],
                epoch: Some(1),
            });
            protocol_err(req.encode().map(|_| Request::Ping));
            let mut frame = vec![OP_REPLICA_WRITE];
            put_str(&mut frame, "r").unwrap();
            frame.extend_from_slice(&shard.to_le_bytes());
            frame.extend_from_slice(&of.to_le_bytes());
            protocol_err(Request::decode(&frame));
        }
        // Repartition parts: 0 and > MAX_CLUSTER_NODES.
        for parts in [0u16, MAX_CLUSTER_NODES as u16 + 1] {
            let req = Request::Repartition(RepartitionRequest {
                name: "r".into(),
                keys: vec![0],
                parts,
                filter: None,
                epoch: None,
            });
            protocol_err(req.encode().map(|_| Request::Ping));
            let mut frame = vec![OP_REPARTITION];
            put_str(&mut frame, "r").unwrap();
            put_keys(&mut frame, &[0]).unwrap();
            frame.extend_from_slice(&parts.to_le_bytes());
            frame.push(0);
            protocol_err(Request::decode(&frame));
        }
        // Filter geometry inside a repartition: oversize bit counts and a
        // word count that does not match the bit count.
        let mut prefix = vec![OP_REPARTITION];
        put_str(&mut prefix, "r").unwrap();
        put_keys(&mut prefix, &[0]).unwrap();
        prefix.extend_from_slice(&2u16.to_le_bytes());
        prefix.push(1); // filter present
        let mut oversize = prefix.clone();
        oversize.extend_from_slice(&(MAX_FILTER_BITS as u32 + 1).to_le_bytes());
        oversize.extend_from_slice(&0u32.to_le_bytes());
        protocol_err(Request::decode(&oversize));
        let mut mismatched = prefix.clone();
        mismatched.extend_from_slice(&128u32.to_le_bytes());
        // 128 bits need 2 words; a hostile frame claiming 65_535 must be
        // refused by arithmetic before any allocation happens.
        mismatched.extend_from_slice(&65_535u32.to_le_bytes());
        protocol_err(Request::decode(&mismatched));
        let mut truncated = prefix.clone();
        truncated.extend_from_slice(&128u32.to_le_bytes());
        truncated.extend_from_slice(&2u32.to_le_bytes());
        truncated.extend_from_slice(&1u64.to_le_bytes()); // 1 of 2 words
        protocol_err(Request::decode(&truncated));
        // BuildFilter bit bounds: 0 and > MAX_FILTER_BITS.
        for bits in [0u32, MAX_FILTER_BITS as u32 + 1] {
            let req = Request::BuildFilter {
                name: "r".into(),
                keys: vec![0],
                bits,
                epoch: None,
            };
            protocol_err(req.encode().map(|_| Request::Ping));
            let mut frame = vec![OP_BUILD_FILTER];
            put_str(&mut frame, "r").unwrap();
            put_keys(&mut frame, &[0]).unwrap();
            frame.extend_from_slice(&bits.to_le_bytes());
            protocol_err(Request::decode(&frame));
        }
        // Distribution section: node count 0, node count over the limit,
        // and an unknown strategy code.
        for (strategy, nodes) in [(0u8, 0u16), (0, MAX_CLUSTER_NODES as u16 + 1), (9, 4)] {
            let mut frame = vec![OP_DIVIDE];
            put_str(&mut frame, "r").unwrap();
            put_str(&mut frame, "s").unwrap();
            frame.push(ALG_AUTO);
            frame.push(0); // assume_unique
            frame.push(0); // no spec
            frame.extend_from_slice(&0u64.to_le_bytes()); // no deadline
            frame.push(0); // no profile
            frame.push(1); // distribution present
            frame.push(strategy);
            frame.extend_from_slice(&nodes.to_le_bytes());
            frame.extend_from_slice(&0u64.to_le_bytes()); // no filter bits
            protocol_err(Request::decode(&frame));
        }
        // Repartitioned reply: bucket counts 0 and > MAX_CLUSTER_NODES.
        for parts in [0u16, MAX_CLUSTER_NODES as u16 + 1] {
            let mut frame = vec![STATUS_OK, REPLY_REPARTITIONED];
            put_schema(&mut frame, &schema2()).unwrap();
            frame.extend_from_slice(&parts.to_le_bytes());
            assert!(matches!(
                decode_response(&frame),
                Err(ServiceError::Protocol(_))
            ));
        }
        let oversized_reply = Reply::Repartitioned {
            schema: schema2(),
            buckets: vec![Vec::new(); MAX_CLUSTER_NODES + 1],
            filtered: 0,
        };
        assert!(matches!(
            encode_response(&Ok(oversized_reply)),
            Err(ServiceError::Protocol(_))
        ));
        // Membership geometry: zero members, too many members, and a
        // replication factor of 0 or above the member count — on both
        // the epoch request and the epoch reply, encode and decode.
        let bad_memberships: Vec<(Vec<String>, u16)> = vec![
            (vec![], 1),
            (vec!["a".into(); MAX_CLUSTER_NODES + 1], 1),
            (vec!["a".into(), "b".into()], 0),
            (vec!["a".into(), "b".into()], 3),
        ];
        for (members, replication) in bad_memberships {
            let req = Request::ClusterEpoch(EpochRequest::Set {
                epoch: 1,
                members: members.clone(),
                replication,
            });
            protocol_err(req.encode().map(|_| Request::Ping));
            let reply = Reply::Epoch {
                epoch: 1,
                members: members.clone(),
                replication,
            };
            assert!(matches!(
                encode_response(&Ok(reply)),
                Err(ServiceError::Protocol(_))
            ));
            // Hand-built hostile frames for the decode side. Member
            // counts above the u16 wire cannot be expressed, so only the
            // in-range hostile values are built by hand.
            if members.len() <= u16::MAX as usize {
                let mut frame = vec![OP_CLUSTER_EPOCH, 1];
                frame.extend_from_slice(&1u64.to_le_bytes());
                frame.extend_from_slice(&(members.len() as u16).to_le_bytes());
                for m in &members {
                    put_str(&mut frame, m).unwrap();
                }
                frame.extend_from_slice(&replication.to_le_bytes());
                protocol_err(Request::decode(&frame));
            }
        }
        // A hostile member count claiming more than MAX_CLUSTER_NODES is
        // refused before any per-member allocation.
        let mut frame = vec![OP_CLUSTER_EPOCH, 1];
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&(MAX_CLUSTER_NODES as u16 + 1).to_le_bytes());
        protocol_err(Request::decode(&frame));
    }

    /// The trailing epoch extension on the cluster data-plane frames is
    /// optional both ways: a frame cut before it (a pre-replication
    /// peer) decodes with `epoch: None`, and an explicit absent tag
    /// round-trips. Unknown tags are typed protocol errors.
    #[test]
    fn epoch_extension_is_optional_on_the_wire() {
        let req = Request::Shard(ShardRequest {
            name: "r".into(),
            shard: 0,
            of: 2,
            shard_keys: vec![0],
            schema: schema2(),
            tuples: vec![ints(&[1, 2])],
            epoch: Some(42),
        });
        let bytes = req.encode().unwrap();
        // The extension is 9 trailing bytes: presence tag + u64 epoch.
        match Request::decode(&bytes[..bytes.len() - 9]).unwrap() {
            Request::Shard(s) => assert_eq!(s.epoch, None, "cut frame decodes epochless"),
            other => panic!("expected shard, got {other:?}"),
        }
        match Request::decode(&bytes).unwrap() {
            Request::Shard(s) => assert_eq!(s.epoch, Some(42)),
            other => panic!("expected shard, got {other:?}"),
        }
        let mut mutated = bytes.clone();
        let tag_at = bytes.len() - 9;
        mutated[tag_at] = 7;
        mutated.truncate(tag_at + 1);
        assert!(matches!(
            Request::decode(&mutated),
            Err(ServiceError::Protocol(_))
        ));
        // Same for a divide-partial frame, whose body already ends in
        // three older trailing extensions — the epoch stacks after them.
        let req = Request::DividePartial {
            tag: 1,
            query: DivideRequest {
                dividend: "r".into(),
                divisor: "s".into(),
                algorithm: None,
                assume_unique: false,
                spec: None,
                deadline_ms: None,
                profile: false,
                distribute: None,
                restricted: None,
                mem_budget: None,
            },
            epoch: Some(3),
        };
        let bytes = req.encode().unwrap();
        match Request::decode(&bytes[..bytes.len() - 9]).unwrap() {
            Request::DividePartial { epoch, .. } => assert_eq!(epoch, None),
            other => panic!("expected divide-partial, got {other:?}"),
        }
        match Request::decode(&bytes).unwrap() {
            Request::DividePartial { epoch, query, .. } => {
                assert_eq!(epoch, Some(3));
                assert_eq!(query.restricted, None, "older extensions unharmed");
            }
            other => panic!("expected divide-partial, got {other:?}"),
        }
    }

    /// The stale-epoch error is typed on the wire in both directions:
    /// code 9 encodes from the variant and decodes back to it, so a
    /// coordinator can tell "refresh and retry" from a generic failure.
    #[test]
    fn stale_epoch_error_is_typed_on_the_wire() {
        let resp: Response = Err(ServiceError::StaleEpoch(
            "request epoch 1, node epoch 4".into(),
        ));
        let bytes = encode_response(&resp).unwrap();
        match decode_response(&bytes).unwrap() {
            Err(ServiceError::StaleEpoch(msg)) => {
                assert!(msg.contains("node epoch 4"), "{msg}");
            }
            other => panic!("expected a stale-epoch error, got {other:?}"),
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hostile-client safety net: the decoders must return errors, never
    /// panic, on arbitrary bytes — random garbage, every truncation of
    /// valid frames, and valid frames with random byte flips.
    #[test]
    fn decoders_survive_hostile_frames() {
        let mut rng = 0x5EED_u64;
        // Pure garbage of assorted lengths.
        for len in 0..=257usize {
            let payload: Vec<u8> = (0..len).map(|_| splitmix64(&mut rng) as u8).collect();
            let _ = Request::decode(&payload);
            let _ = decode_response(&payload);
        }
        // Every prefix of every valid request, and single-byte mutations.
        let valid = vec![
            Request::Ping.encode().unwrap(),
            Request::Register {
                name: "r".into(),
                schema: schema2(),
                tuples: vec![ints(&[1, 2]), ints(&[3, 4])],
            }
            .encode()
            .unwrap(),
            Request::Divide(DivideRequest {
                dividend: "r".into(),
                divisor: "s".into(),
                algorithm: None,
                assume_unique: false,
                spec: Some((vec![1], vec![0])),
                deadline_ms: Some(100),
                profile: true,
                distribute: None,
                restricted: None,
                mem_budget: None,
            })
            .encode()
            .unwrap(),
            Request::Divide(DivideRequest {
                dividend: "r".into(),
                divisor: "s".into(),
                algorithm: None,
                assume_unique: false,
                spec: None,
                deadline_ms: None,
                profile: false,
                distribute: Some(Distribution {
                    strategy: Strategy::QuotientPartitioning,
                    nodes: 4,
                    bit_vector_bits: Some(1 << 12),
                }),
                restricted: Some(true),
                mem_budget: None,
            })
            .encode()
            .unwrap(),
            Request::Shard(ShardRequest {
                name: "r".into(),
                shard: 1,
                of: 3,
                shard_keys: vec![0, 1],
                schema: schema2(),
                tuples: vec![ints(&[1, 2]), ints(&[3, 4])],
                epoch: Some(2),
            })
            .encode()
            .unwrap(),
            Request::Repartition(RepartitionRequest {
                name: "r".into(),
                keys: vec![1],
                parts: 4,
                filter: Some(sample_filter()),
                epoch: Some(1),
            })
            .encode()
            .unwrap(),
            Request::BuildFilter {
                name: "s".into(),
                keys: vec![0],
                bits: 2048,
                epoch: None,
            }
            .encode()
            .unwrap(),
            Request::DividePartial {
                tag: 2,
                query: DivideRequest {
                    dividend: "r".into(),
                    divisor: "s".into(),
                    algorithm: None,
                    assume_unique: false,
                    spec: None,
                    deadline_ms: None,
                    profile: false,
                    distribute: None,
                    restricted: None,
                    mem_budget: None,
                },
                epoch: Some(6),
            }
            .encode()
            .unwrap(),
            Request::Heartbeat.encode().unwrap(),
            Request::ClusterEpoch(EpochRequest::Get).encode().unwrap(),
            Request::ClusterEpoch(EpochRequest::Set {
                epoch: 3,
                members: vec!["127.0.0.1:7181".into(), "127.0.0.1:7182".into()],
                replication: 2,
            })
            .encode()
            .unwrap(),
            Request::ReplicaWrite(ReplicaWriteRequest {
                name: "r".into(),
                fragment: 0,
                of: 2,
                shard_keys: vec![0],
                schema: schema2(),
                tuples: vec![ints(&[1, 2])],
                epoch: Some(3),
            })
            .encode()
            .unwrap(),
            Request::ExecPlan(ExecPlanRequest {
                plan: "(divide (on s) (filter (>= q 2) (scan r)) (scan s))".into(),
                deadline_ms: Some(750),
                profile: true,
            })
            .encode()
            .unwrap(),
        ];
        for bytes in &valid {
            for cut in 0..bytes.len() {
                let _ = Request::decode(&bytes[..cut]);
            }
            for _ in 0..64 {
                let mut mutated = bytes.clone();
                let at = (splitmix64(&mut rng) as usize) % mutated.len();
                mutated[at] ^= (splitmix64(&mut rng) as u8) | 1;
                let _ = Request::decode(&mutated);
            }
        }
        // Same treatment for a valid response frame.
        let resp = encode_response(&Ok(Reply::Divided(DivideReply {
            algorithm: Algorithm::Naive,
            cached: false,
            dividend_version: 1,
            divisor_version: 2,
            micros: 3,
            ops: OpSnapshot::default(),
            schema: schema2(),
            tuples: Arc::new(vec![ints(&[5, 6])]),
            profile: Some(QueryProfile {
                root: sample_profile_node(3),
            }),
        })))
        .unwrap();
        let cluster_replies = vec![
            encode_response(&Ok(Reply::Repartitioned {
                schema: schema2(),
                buckets: vec![vec![ints(&[1, 2])], vec![], vec![ints(&[3, 4])]],
                filtered: 5,
            }))
            .unwrap(),
            encode_response(&Ok(Reply::Filter {
                filter: sample_filter(),
                insertions: 40,
            }))
            .unwrap(),
            encode_response(&Ok(Reply::PartialQuotient(PartialQuotientReply {
                tag: 1,
                algorithm: Algorithm::Naive,
                dividend_version: 1,
                divisor_version: 2,
                micros: 3,
                ops: OpSnapshot::default(),
                schema: schema2(),
                tuples: Arc::new(vec![ints(&[5, 6])]),
                profile: Some(QueryProfile {
                    root: sample_profile_node(1),
                }),
            })))
            .unwrap(),
            encode_response(&Ok(Reply::Plan(PlanReply {
                algorithms: vec![
                    Algorithm::Naive,
                    Algorithm::HashDivision {
                        mode: HashDivisionMode::Standard,
                    },
                ],
                cached: false,
                micros: 9,
                ops: OpSnapshot::default(),
                relations: vec![("r".into(), 3), ("s".into(), 4)],
                schema: schema2(),
                tuples: Arc::new(vec![ints(&[5, 6])]),
                profile: Some(QueryProfile {
                    root: sample_profile_node(2),
                }),
            })))
            .unwrap(),
            encode_response(&Ok(Reply::HeartbeatAck {
                epoch: 4,
                accepting: true,
            }))
            .unwrap(),
            encode_response(&Ok(Reply::Epoch {
                epoch: 4,
                members: vec!["127.0.0.1:7181".into(), "127.0.0.1:7182".into()],
                replication: 2,
            }))
            .unwrap(),
            encode_response(&Ok(Reply::ReplicaAck {
                version: 3,
                fragment: 1,
            }))
            .unwrap(),
        ];
        for resp in std::iter::once(&resp).chain(&cluster_replies) {
            for cut in 0..resp.len() {
                let _ = decode_response(&resp[..cut]);
            }
            for _ in 0..64 {
                let mut mutated = resp.clone();
                let at = (splitmix64(&mut rng) as usize) % mutated.len();
                mutated[at] ^= (splitmix64(&mut rng) as u8) | 1;
                let _ = decode_response(&mutated);
            }
        }
    }
    /// A seeded relation: one to four columns of either type, strings of
    /// one- and two-byte characters up to their width.
    fn random_relation(rng: &mut u64, rows: usize) -> (Schema, Vec<Tuple>) {
        use reldiv_rel::Value;
        let fields: Vec<Field> = (0..1 + splitmix64(rng) % 4)
            .map(|i| match splitmix64(rng) % 2 {
                0 => Field::int(format!("c{i}")),
                _ => Field::str(format!("c{i}"), 1 + (splitmix64(rng) % 6) as usize),
            })
            .collect();
        let mut value = |ty: ColumnType| match ty {
            ColumnType::Int => Value::Int(splitmix64(rng) as i64),
            ColumnType::Str(width) => {
                let mut s = String::new();
                for _ in 0..splitmix64(rng) % 7 {
                    let c = if splitmix64(rng) % 3 == 0 { 'é' } else { 'x' };
                    if s.len() + c.len_utf8() <= width {
                        s.push(c);
                    }
                }
                Value::Str(s)
            }
        };
        let tuples = (0..rows)
            .map(|_| Tuple::new(fields.iter().map(|f| value(f.ty)).collect()))
            .collect();
        (Schema::new(fields), tuples)
    }

    /// The three bulk write requests over one relation.
    fn write_requests(schema: &Schema, tuples: &[Tuple]) -> [Request; 3] {
        [
            Request::Register {
                name: "r".into(),
                schema: schema.clone(),
                tuples: tuples.to_vec(),
            },
            Request::Shard(ShardRequest {
                name: "r".into(),
                shard: 1,
                of: 3,
                shard_keys: vec![0],
                schema: schema.clone(),
                tuples: tuples.to_vec(),
                epoch: Some(9),
            }),
            Request::ReplicaWrite(ReplicaWriteRequest {
                name: "r".into(),
                fragment: 2,
                of: 3,
                shard_keys: vec![0],
                schema: schema.clone(),
                tuples: tuples.to_vec(),
                epoch: None,
            }),
        ]
    }

    /// What `Request::decode` makes of a bulk write frame, in
    /// `decode_write`'s terms.
    fn as_write(request: Request) -> WriteFrame<Vec<Tuple>> {
        let at = |shard, of, shard_keys| ShardInfo {
            shard,
            of,
            shard_keys,
        };
        let (name, kind, schema, rows, epoch) = match request {
            Request::Register {
                name,
                schema,
                tuples,
            } => (name, WriteKind::Register, schema, tuples, None),
            Request::Shard(s) => {
                let kind = WriteKind::Shard(at(s.shard, s.of, s.shard_keys));
                (s.name, kind, s.schema, s.tuples, s.epoch)
            }
            Request::ReplicaWrite(w) => {
                let kind = WriteKind::Replica(at(w.fragment, w.of, w.shard_keys));
                (w.name, kind, w.schema, w.tuples, w.epoch)
            }
            other => panic!("not a bulk write: {other:?}"),
        };
        WriteFrame {
            name,
            kind,
            schema,
            rows,
            epoch,
        }
    }

    /// `decode_write`'s answer with the columns read back as tuples.
    fn columnar(frame: &[u8]) -> Option<PResult<WriteFrame<Vec<Tuple>>>> {
        decode_write(frame).map(|write| {
            write.map(|w| WriteFrame {
                rows: w.rows.tuples().collect(),
                name: w.name,
                kind: w.kind,
                schema: w.schema,
                epoch: w.epoch,
            })
        })
    }

    #[test]
    fn write_frames_read_into_columns_equal_their_decoded_requests() {
        let mut rng = 0xC01_u64;
        // Cardinalities around the batch boundaries, the empty relation.
        for rows in [0, 1, 7, 1023, 1024, 1025, 2048, 2500] {
            let (schema, tuples) = random_relation(&mut rng, rows);
            for request in write_requests(&schema, &tuples) {
                let frame = request.encode().unwrap();
                let want = as_write(Request::decode(&frame).unwrap());
                assert_eq!(want.rows, tuples);
                assert_eq!(columnar(&frame).unwrap().unwrap(), want, "{rows} rows");
                // The borrowed-row encoder writes the same bytes.
                let borrowed: Vec<&Tuple> = tuples.iter().collect();
                let again = encode_write(&want.name, &want.kind, &schema, &borrowed, want.epoch);
                assert_eq!(again.unwrap(), frame);
            }
        }
        assert!(decode_write(&Request::Stats.encode().unwrap()).is_none());
        assert!(decode_write(&[]).is_none());
    }

    #[test]
    fn damaged_write_frames_fail_both_decoders_alike() {
        let mut rng = 0xBAD_u64;
        let (schema, tuples) = random_relation(&mut rng, 40);
        let protocol_error = |frame: &[u8], what: &str| {
            let theirs = Request::decode(frame).unwrap_err();
            let ours = columnar(frame).unwrap().unwrap_err();
            assert!(matches!(ours, ServiceError::Protocol(_)), "{what}: {ours}");
            assert_eq!(ours.to_string(), theirs.to_string(), "{what}");
        };
        for request in write_requests(&schema, &tuples) {
            let frame = request.encode().unwrap();
            // Every truncation — the record section's among them.
            for cut in 1..frame.len() {
                match Request::decode(&frame[..cut]) {
                    Err(_) => protocol_error(&frame[..cut], "truncated"),
                    // (A cut that only drops the optional epoch.)
                    Ok(shorter) => {
                        assert_eq!(columnar(&frame[..cut]).unwrap().unwrap(), as_write(shorter))
                    }
                }
            }
            // Random damage: the decoders agree on every frame, whether
            // it still decodes or not.
            for _ in 0..400 {
                let mut bent = frame.clone();
                let at = 1 + splitmix64(&mut rng) as usize % (bent.len() - 1);
                bent[at] ^= 1 << (splitmix64(&mut rng) % 8);
                match Request::decode(&bent) {
                    Err(_) => protocol_error(&bent, "bit flip"),
                    Ok(request) => {
                        assert_eq!(columnar(&bent).unwrap().unwrap(), as_write(request))
                    }
                }
            }
        }

        // A record count whose byte length cannot fit the frame.
        let name_and_schema = {
            let empty = Request::Register {
                name: "r".into(),
                schema: schema2(),
                tuples: vec![],
            };
            let mut frame = empty.encode().unwrap();
            frame.truncate(frame.len() - 4);
            frame
        };
        let mut huge = name_and_schema.clone();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        protocol_error(&huge, "count overflow");

        // A string field that is not UTF-8.
        let strings = Schema::new(vec![Field::str("s", 4)]);
        let row = Tuple::new(vec![reldiv_rel::Value::from("ab")]);
        let [register, ..] = write_requests(&strings, &[row]);
        let mut frame = register.encode().unwrap();
        let at = frame.len() - 4;
        frame[at] = 0xFF;
        protocol_error(&frame, "invalid UTF-8");
    }
}
