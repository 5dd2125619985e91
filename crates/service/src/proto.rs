//! The length-prefixed binary wire protocol, stated once.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload. Every payload layout is one row of the frame
//! table (the `wire!` invocations below): the bytes that open it, its
//! fields in wire order, each with its wire form (a `Form`), and its
//! append-only trailing extensions. The encoder and the decoder are
//! generated from those rows; so are `docs/PROTOCOL.md`'s frame tables
//! ([`FRAME_TABLE`], checked against the document by a test) and the
//! hostile-frame corpus the wire tests run. Integers are little-endian;
//! tuples travel as the fixed-width records of [`RecordCodec`], so a
//! relation's bytes on the wire are identical to its bytes in a record
//! file.

use std::borrow::Borrow;
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::mem::discriminant;
use std::sync::Arc;

use reldiv_core::HashDivisionMode::{CounterOnly, EarlyOut, Standard};
use reldiv_core::{Algorithm, ProfileNode, QueryProfile, SpanKind};
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
/// sharded fragment are stored (see [`WriteKind::Replica`]).
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

/// The algorithms' stable wire codes: one two-way table.
const ALGORITHM_CODES: [(u8, Algorithm); 8] = [
    (0, Algorithm::Naive),
    (1, Algorithm::SortAggregation { join: false }),
    (2, Algorithm::SortAggregation { join: true }),
    (3, Algorithm::HashAggregation { join: false }),
    (4, Algorithm::HashAggregation { join: true }),
    (5, Algorithm::HashDivision { mode: Standard }),
    (6, Algorithm::HashDivision { mode: EarlyOut }),
    (7, Algorithm::HashDivision { mode: CounterOnly }),
];

/// Encodes an algorithm as its stable wire code.
pub fn algorithm_code(alg: Algorithm) -> u8 {
    let entry = ALGORITHM_CODES.iter().find(|(_, a)| *a == alg);
    entry.expect("every algorithm has a wire code").0
}

/// Decodes an algorithm wire code ([`ALG_AUTO`] is not an algorithm and
/// returns `None`, as do unknown codes).
pub fn algorithm_from_code(code: u8) -> Option<Algorithm> {
    let entry = ALGORITHM_CODES.iter().find(|(c, _)| *c == code);
    entry.map(|&(_, alg)| alg)
}

/// Builds an error variant from its wire message.
type MakeError = fn(String) -> ServiceError;

/// The errors' stable wire codes: one two-way table, each code with the
/// variant it builds from a message.
const ERROR_CODES: [(u8, MakeError); 9] = [
    (1, |_| ServiceError::Overloaded),
    (2, |_| ServiceError::ShuttingDown),
    (3, ServiceError::UnknownRelation),
    (4, ServiceError::BadRequest),
    (5, ServiceError::Exec),
    (6, ServiceError::Protocol),
    (7, ServiceError::Internal),
    (8, |_| ServiceError::DeadlineExceeded),
    (9, ServiceError::StaleEpoch),
];

/// Stable error codes for [`ServiceError`] on the wire.
pub fn error_code(err: &ServiceError) -> u8 {
    let same = |make: &MakeError| discriminant(&make(String::new())) == discriminant(err);
    let entry = ERROR_CODES.iter().find(|(_, make)| same(make));
    entry.map_or(7, |&(code, _)| code)
}

/// Reconstructs a [`ServiceError`] from its wire code and message; an
/// unknown code is an internal error.
pub fn error_from_code(code: u8, message: String) -> ServiceError {
    match ERROR_CODES.iter().find(|(c, _)| *c == code) {
        Some((_, make)) => make(message),
        None => ServiceError::Internal(message),
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Install (or replace) a named relation. A write frame: clients
    /// send it with [`encode_write`], and the server reads it with
    /// [`decode_write`].
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

/// Which of the three bulk write frames a [`WriteFrame`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteKind {
    /// [`Request::Register`].
    Register,
    /// A `Shard` frame: one hash-partition shard of a relation, with the
    /// shard's coordinates.
    Shard(ShardInfo),
    /// A `ReplicaWrite` frame: a replica copy of one fragment, stored
    /// under [`replica_name`], with the fragment's coordinates.
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
    /// and the reply is error code 8 (`DeadlineExceeded`). `Some(0)` has
    /// expired on arrival: encoding it fails with `DeadlineExceeded`,
    /// the answer the service gives it in process.
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
    /// Answer to a `Shard` write frame.
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
        buckets: Vec<Columns>,
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
    /// Answer to a `ReplicaWrite` frame: the write acknowledgment the
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
    /// This node's quotient cluster.
    pub tuples: Columns,
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
// Encoding and decoding: every layout is a row of the frame table below.

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> PResult<Vec<u8>> {
        let mut out = Vec::new();
        Requests::put(self, &mut out)?;
        Ok(out)
    }

    /// Decodes a frame payload. A `Shard` or `ReplicaWrite` frame is
    /// refused: the server reads those with [`decode_write`].
    pub fn decode(payload: &[u8]) -> PResult<Request> {
        whole(payload, Requests::get)
    }
}

/// Encodes a response as a frame payload.
pub fn encode_response(response: &Response) -> PResult<Vec<u8>> {
    let mut out = Vec::new();
    Responses::put(response, &mut out)?;
    Ok(out)
}

/// Decodes a response frame payload.
pub fn decode_response(payload: &[u8]) -> PResult<Response> {
    whole(payload, Responses::get)
}

/// Encodes a `Register`, `Shard` or `ReplicaWrite` frame from borrowed
/// rows, so a client need not clone a relation into a [`Request`] first.
pub fn encode_write<R: Rows>(
    name: &str,
    kind: &WriteKind,
    schema: &Schema,
    tuples: R,
    epoch: Option<u64>,
) -> PResult<Vec<u8>> {
    let mut out = Vec::new();
    put_write(name, kind, schema, tuples, epoch, &mut out)?;
    Ok(out)
}

/// Decodes a frame payload that is a `Register`, `Shard` or
/// `ReplicaWrite`, its record section read straight into columns (each
/// record checked for width and UTF-8, as [`Request::decode`] checks
/// it); `None` for any other opcode.
pub fn decode_write(payload: &[u8]) -> Option<PResult<WriteFrame<Columns>>> {
    let opens = |row: &FrameDoc| payload.starts_with(row.tag);
    let write = Writes::FAMILY.frames.iter().any(opens);
    write.then(|| whole(payload, Writes::get))
}

/// Reads one value that must span the whole payload.
fn whole<V>(payload: &[u8], get: impl FnOnce(&mut Reader<'_>) -> PResult<V>) -> PResult<V> {
    let mut r = Reader {
        buf: payload,
        ..Reader::default()
    };
    let value = get(&mut r)?;
    match r.buf.len() {
        0 => Ok(value),
        n => Err(perr(format!("{n} trailing bytes in frame"))),
    }
}

/// Puts a write frame through the write rows; `Request::Register` comes
/// here too.
fn put_write<R: Rows>(
    name: &str,
    kind: &WriteKind,
    schema: &Schema,
    rows: R,
    epoch: Option<u64>,
    out: &mut Vec<u8>,
) -> PResult<()> {
    let (name, kind, schema) = (name.to_owned(), kind.clone(), schema.clone());
    let write = WriteFrame {
        name,
        kind,
        schema,
        rows,
        epoch,
    };
    Writes::put(&write, out)
}

/// Reads a request opcode no request row claims: a `Register` lands its
/// rows in tuples; a sharded write is the server's ([`decode_write`]).
fn get_register(r: &mut Reader<'_>) -> PResult<Request> {
    let write: WriteFrame<Vec<Tuple>> = Writes::get(r)?;
    match write.kind {
        WriteKind::Register => Ok(Request::Register {
            name: write.name,
            schema: write.schema,
            tuples: write.rows,
        }),
        _ => Err(perr("a shard or replica write is read with decode_write")),
    }
}

// ---------------------------------------------------------------------
// The frame table

/// One row of the frame table, as `docs/PROTOCOL.md` and the wire tests
/// read it.
pub struct FrameDoc {
    /// The bytes that open the row (none for a section inside a frame).
    pub tag: &'static [u8],
    /// The row's name.
    pub name: &'static str,
    /// `(field, wire form)` pairs in wire order.
    pub fields: &'static [(&'static str, &'static str)],
    /// The append-only trailing extensions, oldest first: a frame may end
    /// before any of them, which then takes its default.
    pub ext: &'static [(&'static str, &'static str)],
}

/// A family of rows told apart by their tags: the frames one decoder
/// reads, or a section nested inside frames.
pub struct Family {
    /// The family's name.
    pub name: &'static str,
    /// Its rows.
    pub frames: &'static [FrameDoc],
}

/// States the frame table. A family is a list of rows; a row is
///
/// ```text
/// [tag bytes] Name (pattern) { field: Form, ... } ext { field: Form, ... } absent { field };
/// ```
///
/// The pattern names the value's fields and serves both as the encoder's
/// match pattern and the decoder's constructor. Fields travel in order,
/// each in its wire form ([`Form`]); `Form[dep]` is a form that reads an
/// earlier field (a record section its schema). `ext` fields are the
/// append-only trailing extensions; `absent` fields are not on the wire
/// and decode as their default. A family nests as a form of its own.
macro_rules! wire {
    (@put $out:ident $f:ident $form:ty) => { <$form as Form>::put($f, $out)? };
    (@put $out:ident $f:ident $form:ty, $dep:ident) => { <$form>::put($f, $dep, $out)? };
    (@get $r:ident $form:ty) => { <$form as Form>::get($r)? };
    (@get $r:ident $form:ty, $dep:ident) => { <$form>::get($r, &$dep)? };
    (@else $r:ident $what:literal) => { Err($r.unknown($what)) };
    (@else $r:ident $what:literal $eget:ident) => { $eget($r) };
    (@family $fam:ident $what:literal [$($impl:tt)*] [$($put:tt)*] [$($get:tt)*]
     $value:ident $out:ident $r:ident
     [$(($($epat:tt)+) => $eput:ident($($earg:expr),*) / $eget:ident)?]
     $([$($tag:literal),*] $label:ident ($($shape:tt)+)
       { $($f:ident : $form:ty $([$dep:ident])?),* }
       $(ext { $($x:ident : $xform:ty),* })? $(absent { $($a:ident),* })?;)*) => {
        impl $fam {
            const FAMILY: Family = Family {
                name: stringify!($fam),
                frames: &[$(FrameDoc {
                    tag: &[$($tag),*],
                    name: stringify!($label),
                    fields: &[$((
                        stringify!($f),
                        concat!(stringify!($form) $(, "[", stringify!($dep), "]")?),
                    )),*],
                    ext: &[$($((stringify!($x), stringify!($xform))),*)?],
                }),*],
            };
        }
        $($impl)* {
            $($put)* {
                match $value {
                    $($($shape)+ => {
                        $out.extend_from_slice(&[$($tag),*]);
                        $(wire!(@put $out $f $form $(, $dep)?);)*
                        $($(<$xform as Form>::put($x, $out)?;)*)?
                        $($(let _ = $a;)*)?
                    })*
                    $($($epat)+ => return $eput($($earg,)* $out),)?
                }
                Ok(())
            }
            $($get)* {
                $(if $r.eat(&[$($tag),*]) {
                    $(let $f = wire!(@get $r $form $(, $dep)?);)*
                    $($(let $x = match $r.buf.is_empty() {
                        true => Default::default(),
                        false => <$xform as Form>::get($r)?,
                    };)*)?
                    $($(let $a = Default::default();)*)?
                    return Ok($($shape)+);
                })*
                wire!(@else $r $what $($eget)?)
            }
        }
    };
    (@writes $(#[$doc:meta])* $fam:ident put[$pt:ident: $pb:path]($pty:ty)
     get[$gt:ident: $gb:path]($gty:ty) $what:literal { $($rows:tt)* }) => {
        $(#[$doc])*
        struct $fam;
        wire!(@family $fam $what [impl $fam]
            [fn put<$pt: $pb>(value: &$pty, out: &mut Vec<u8>) -> PResult<()>]
            [fn get<$gt: $gb>(r: &mut Reader<'_>) -> PResult<$gty>] value out r [] $($rows)*);
    };
    ($(#[$tdoc:meta])* $table:ident = [$($first:ident),*];
     $($(#[$doc:meta])* $fam:ident($ty:ty) $what:literal
       $(else ($($epat:tt)+) => $eput:ident($($earg:expr),*) / $eget:ident)?
       { $($rows:tt)* })+) => {
        $(#[$tdoc])*
        pub const $table: &[Family] = &[$($first::FAMILY,)* $($fam::FAMILY),+];
        $(
        $(#[$doc])*
        struct $fam;
        wire!(@family $fam $what [impl Form for $fam]
            [type Value = $ty; fn put(value: &$ty, out: &mut Vec<u8>) -> PResult<()>]
            [fn get(r: &mut Reader<'_>) -> PResult<$ty>] value out r
            [$(($($epat)+) => $eput($($earg),*) / $eget)?] $($rows)*);
        )+
    };
}

wire! {
    /// Every family of the frame table: the frames, then their sections.
    FRAME_TABLE = [Writes];

    /// Requests, by opcode. `Register` is a write frame ([`Writes`]).
    Requests(Request) "request opcode"
    else (Request::Register { name, schema, tuples })
        => put_write(name, &WriteKind::Register, schema, tuples, None) / get_register {
        [0x01] Ping (Request::Ping) {};
        [0x03] Drop (Request::DropRelation { name }) { name: Str };
        [0x04] Divide (Request::Divide(query)) { query: DivideBody };
        [0x05] Stats (Request::Stats) {};
        [0x06] Shutdown (Request::Shutdown) {};
        [0x08] Repartition
            (Request::Repartition(RepartitionRequest { name, keys, parts, filter, epoch }))
            { name: Str, keys: Keys, parts: Within<U16, 1, MAX_CLUSTER_NODES>, filter: Opt<Filter> }
            ext { epoch: Opt<U64> };
        [0x09] BuildFilter (Request::BuildFilter { name, keys, bits, epoch })
            { name: Str, keys: Keys, bits: Within<U32, 1, MAX_FILTER_BITS> }
            ext { epoch: Opt<U64> };
        [0x0A] DividePartial (Request::DividePartial { tag, query, epoch })
            { tag: U16, query: DivideBody } ext { epoch: Opt<U64> };
        [0x0B] ExecPlan (Request::ExecPlan(ExecPlanRequest { plan, deadline_ms, profile }))
            { plan: Text, deadline_ms: Millis, profile: Flag };
        [0x0C] Heartbeat (Request::Heartbeat) {};
        [0x0D] ClusterEpoch (Request::ClusterEpoch(view)) { view: EpochRequests };
    }

    /// The two `ClusterEpoch` requests.
    EpochRequests(EpochRequest) "epoch request tag" {
        [0x00] Get (EpochRequest::Get) {};
        [0x01] Set (EpochRequest::Set { epoch, members, replication })
            { epoch: U64, members: List<Str, 1, MAX_CLUSTER_NODES>,
              replication: Replication[members] };
    }

    /// A status byte, then a reply or an error.
    Responses(Response) "status byte" {
        [0x00] Ok (Ok(reply)) { reply: Replies };
        [0x01] Err (Err(error)) { error: Failure };
    }

    /// Replies, by tag. Tag `0x05` (the unversioned stats reply) is retired
    /// and stays unassigned.
    Replies(Reply) "reply tag" {
        [0x01] Pong (Reply::Pong) {};
        [0x02] Registered (Reply::Registered { version }) { version: U64 };
        [0x03] Dropped (Reply::Dropped) {};
        [0x04] Divided (Reply::Divided(DivideReply {
                algorithm, cached, dividend_version, divisor_version, micros, ops, schema, tuples,
                profile
            }))
            { algorithm: Alg, cached: Flag, dividend_version: U64, divisor_version: U64,
              micros: U64, ops: Ops, schema: Heading, tuples: Records[schema] }
            ext { profile: Opt<Profile> };
        [0x06] ShuttingDown (Reply::ShuttingDown) {};
        [0x07] Stats (Reply::Stats(counters)) { counters: Counters };
        [0x08] Sharded (Reply::Sharded { version }) { version: U64 };
        [0x09] Repartitioned (Reply::Repartitioned { schema, buckets, filtered })
            { schema: Heading, buckets: Buckets[schema], filtered: U64 };
        [0x0A] Filter (Reply::Filter { filter, insertions }) { filter: Filter, insertions: U64 };
        [0x0B] PartialQuotient (Reply::PartialQuotient(PartialQuotientReply {
                tag, algorithm, dividend_version, divisor_version, micros, ops, schema, tuples,
                profile
            }))
            { tag: U16, algorithm: Alg, dividend_version: U64, divisor_version: U64, micros: U64,
              ops: Ops, schema: Heading, tuples: Records[schema], profile: Opt<Profile> };
        [0x0C] Plan (Reply::Plan(PlanReply {
                algorithms, cached, micros, ops, relations, schema, tuples, profile
            }))
            { algorithms: List<Alg, 0, MAX_PLAN_ALGORITHMS>, cached: Flag, micros: U64, ops: Ops,
              relations: List<(Str, U64), 0, MAX_PLAN_RELATIONS>, schema: Heading,
              tuples: Records[schema], profile: Opt<Profile> };
        [0x0D] HeartbeatAck (Reply::HeartbeatAck { epoch, accepting })
            { epoch: U64, accepting: Flag };
        [0x0E] Epoch (Reply::Epoch { epoch, members, replication })
            { epoch: U64, members: List<Str, 1, MAX_CLUSTER_NODES>,
              replication: Replication[members] };
        [0x0F] ReplicaAck (Reply::ReplicaAck { version, fragment }) { version: U64, fragment: U16 };
    }

    /// A division query: the body of `Divide` and of `DividePartial`,
    /// where its extensions stay optional ahead of the epoch.
    DivideBody(DivideRequest) "" {
        [] DivideBody (DivideRequest {
                dividend, divisor, algorithm, assume_unique, spec, deadline_ms,
                profile, distribute, restricted, mem_budget
            })
            { dividend: Str, divisor: Str, algorithm: AutoAlg, assume_unique: Flag,
              spec: Opt<(Keys, Keys)>, deadline_ms: Millis }
            ext { profile: Flag, distribute: Opt<DistBody>, restricted: Tri, mem_budget: Budget };
    }

    /// A division spread over the in-process parallel machine.
    DistBody(Distribution) "" {
        [] Distribution (Distribution { strategy, nodes, bit_vector_bits })
            { strategy: StrategyCode, nodes: Within<Index, 1, MAX_CLUSTER_NODES>,
              bit_vector_bits: FilterBits };
    }

    /// Where a shard or replica sits in a sharded relation.
    Placement(ShardInfo) "" {
        [] Placement (ShardInfo { shard, of, shard_keys })
            { shard: U16, of: Of[shard], shard_keys: Keys };
    }

    /// The paper's Table 1 units.
    Ops(OpSnapshot) "" {
        [] Ops (OpSnapshot { comparisons, hashes, moves, bitops })
            { comparisons: U64, hashes: U64, moves: U64, bitops: U64 };
    }

    /// One column of a schema: type first, then name.
    FieldBody(Field) "" {
        [] Field (Field { name, ty }) { ty: ColumnTypes, name: Str };
    }

    /// A column type.
    ColumnTypes(ColumnType) "column type tag" {
        [0x00] Int (ColumnType::Int) {};
        [0x01] Str (ColumnType::Str(width)) { width: Width };
    }

    /// A query profile: its root span.
    Profile(QueryProfile) "" {
        [] Profile (QueryProfile { root }) { root: Span };
    }

    /// One span of a profile tree, children depth-first.
    ProfileNodes(ProfileNode) "" {
        [] Span (ProfileNode {
                label, kind, wall_micros, tuples_in, tuples_out, pages_read, pages_written,
                spill_bytes, network_bytes, ops, phases, children
            })
            { label: Str, kind: Kind, wall_micros: U64, tuples_in: U64, tuples_out: U64,
              pages_read: U64, pages_written: U64, spill_bytes: U64, network_bytes: U64, ops: Ops,
              phases: List<Str, 0, U16_MAX>, children: List<Span, 0, U16_MAX> };
    }
}

wire! {
    @writes
    /// The three bulk write frames: their rows land in tuples
    /// ([`Request::decode`]) or in columns ([`decode_write`]).
    Writes put[T: Rows](WriteFrame<T>) get[R: Land](WriteFrame<R>) "request opcode" {
        [0x02] Register (WriteFrame { name, kind: WriteKind::Register, schema, rows, epoch })
            { name: Str, schema: Heading, rows: Records[schema] } absent { epoch };
        [0x07] Shard (WriteFrame { name, kind: WriteKind::Shard(at), schema, rows, epoch })
            { name: Str, at: Placement, schema: Heading, rows: Records[schema] }
            ext { epoch: Opt<U64> };
        [0x0E] ReplicaWrite (WriteFrame { name, kind: WriteKind::Replica(at), schema, rows, epoch })
            { name: Str, at: Placement, schema: Heading, rows: Records[schema] }
            ext { epoch: Opt<U64> };
    }
}

/// The stats reply's counters in wire order, one two-way table.
/// Append-only: new counters go at the end, so old decoders skip them.
macro_rules! counters {
    ($($field:ident),*) => {
        /// The stats reply's counter names, in wire order.
        pub const STATS_COUNTERS: &[&str] = &[$(stringify!($field)),*];

        fn counter_slots(s: &mut MetricsSnapshot) -> impl Iterator<Item = &mut u64> {
            [$(&mut s.$field),*].into_iter()
        }
    };
}

counters! {
    queries, cache_hits, cache_misses, rejections, shed_shutdown, errors, timeouts, worker_panics,
    io_retries, latency_p50_us, latency_p95_us, latency_p99_us, latency_mean_us, latency_count,
    profiled_queries, replica_retries, failovers, nodes_excluded, heartbeats_missed,
    degraded_queries, division_spill_bytes
}

/// Counters every stats frame must carry (the original 13); a frame
/// announcing fewer is corrupt, not merely old.
const STATS_REQUIRED_FIELDS: usize = 13;

/// Largest algorithm list accepted in a plan reply (a plan has at most
/// [`MAX_PLAN_WIRE`]-bounded text, so thousands of divisions is already
/// absurd; this bound stops a lying count from allocating further).
const MAX_PLAN_ALGORITHMS: usize = 4096;

/// Largest pinned-relation list accepted in a plan reply.
const MAX_PLAN_RELATIONS: usize = 4096;

/// The largest `u16` count: a list the wire bounds only by its width.
const U16_MAX: usize = u16::MAX as usize;

/// Deepest span nesting accepted on the wire.
pub const MAX_PROFILE_DEPTH: usize = 64;

/// Largest span tree accepted on the wire.
pub const MAX_PROFILE_NODES: usize = 65_536;

// ---------------------------------------------------------------------
// Wire forms

type PResult<T> = Result<T, ServiceError>;

fn perr(msg: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(msg.into())
}

/// A cursor over one frame, with the bounds a profile tree is read under.
#[derive(Default)]
struct Reader<'a> {
    buf: &'a [u8],
    /// Nesting of the span being read.
    depth: usize,
    /// Spans read so far.
    spans: usize,
}

impl<'a> Reader<'a> {
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

    /// Consumes `tag` if the frame continues with it.
    fn eat(&mut self, tag: &[u8]) -> bool {
        let rest = self.buf.strip_prefix(tag);
        self.buf = rest.unwrap_or(self.buf);
        rest.is_some()
    }

    /// The refusal of a tag no row claims.
    fn unknown(&mut self, what: &str) -> ServiceError {
        match U8::get(self) {
            Ok(tag) => perr(format!("unknown {what} {tag:#04x}")),
            Err(truncated) => truncated,
        }
    }
}

/// How one field's value travels.
trait Form {
    type Value;
    fn put(value: &Self::Value, out: &mut Vec<u8>) -> PResult<()>;
    fn get(r: &mut Reader<'_>) -> PResult<Self::Value>;
}

/// `n` as a `u64` if it lies in `min..=max`.
fn within(n: impl TryInto<u64>, min: usize, max: usize) -> PResult<u64> {
    let n = n.try_into().unwrap_or(u64::MAX);
    if (min as u64..=max as u64).contains(&n) {
        Ok(n)
    } else {
        Err(perr(format!("{n} is outside {min}..={max}")))
    }
}

fn put_count<const MIN: usize, const MAX: usize>(n: usize, out: &mut Vec<u8>) -> PResult<()> {
    U16::put(&(within(n, MIN, MAX)? as u16), out)
}

fn get_count<const MIN: usize, const MAX: usize>(r: &mut Reader<'_>) -> PResult<usize> {
    Ok(within(U16::get(r)?, MIN, MAX)? as usize)
}

macro_rules! ints {
    ($($form:ident: $t:ty),*) => {$(
        /// A little-endian integer.
        struct $form;
        impl Form for $form {
            type Value = $t;
            fn put(v: &$t, out: &mut Vec<u8>) -> PResult<()> {
                out.extend_from_slice(&v.to_le_bytes());
                Ok(())
            }
            fn get(r: &mut Reader<'_>) -> PResult<$t> {
                let bytes = r.take(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("took the width")))
            }
        }
    )*};
}

ints!(U8: u8, U16: u16, U32: u32, U64: u64);

/// Forms that map a value onto one integer: `put` yields the integer,
/// `get` the value.
macro_rules! mapped {
    ($($(#[$doc:meta])* $form:ident: $t:ty = $wire:ident,
       |$v:ident| $put:expr, |$w:ident| $get:expr;)*) => {$(
        $(#[$doc])*
        struct $form;
        impl Form for $form {
            type Value = $t;
            fn put($v: &$t, out: &mut Vec<u8>) -> PResult<()> {
                $wire::put(&$put?, out)
            }
            fn get(r: &mut Reader<'_>) -> PResult<$t> {
                let $w = $wire::get(r)?;
                $get
            }
        }
    )*};
}

mapped! {
    /// `0` is false, anything else true.
    Flag: bool = U8, |v| PResult::Ok(u8::from(*v)), |b| Ok(b != 0);
    /// An algorithm code ([`ALGORITHM_CODES`]).
    Alg: Algorithm = U8, |v| PResult::Ok(algorithm_code(*v)), |code| algorithm(code);
    /// An algorithm code, or [`ALG_AUTO`] for the service's choice.
    AutoAlg: Option<Algorithm> = U8, |v| PResult::Ok(v.map_or(ALG_AUTO, algorithm_code)),
        |code| if code == ALG_AUTO { Ok(None) } else { algorithm(code).map(Some) };
    /// `0` false, `1` true, [`TRI_AUTO`] no assertion.
    Tri: Option<bool> = U8, |v| PResult::Ok(v.map_or(TRI_AUTO, u8::from)), |b| match b {
        TRI_AUTO => Ok(None),
        0 | 1 => Ok(Some(b == 1)),
        t => Err(perr(format!("unknown restricted tag {t:#04x}"))),
    };
    /// A deadline in milliseconds, `0` for none. `Some(0)` has expired
    /// before it is sent: it is refused as the service refuses it in
    /// process, since the wire would read it as no deadline.
    Millis: Option<u64> = U64, |v| match v {
        Some(0) => Err(ServiceError::DeadlineExceeded),
        v => Ok(v.unwrap_or(0)),
    }, |ms| Ok((ms != 0).then_some(ms));
    /// A memory budget in bytes, `0` for none.
    Budget: Option<u64> = U64, |v| PResult::Ok(v.unwrap_or(0)), |b| Ok((b != 0).then_some(b));
    /// A bit-vector filter width, `0` for no filter.
    FilterBits: Option<usize> = U64, |v| within(v.unwrap_or(0), 0, MAX_FILTER_BITS),
        |bits| Ok((within(bits, 0, MAX_FILTER_BITS)? != 0).then_some(bits as usize));
    /// A Section 6 strategy code.
    StrategyCode: Strategy = U8, |v| PResult::Ok(v.code()), |code| {
        Strategy::from_code(code).ok_or_else(|| perr(format!("unknown strategy code {code}")))
    };
    /// A span kind code; an unknown code reads as `other`.
    Kind: SpanKind = U8, |v| PResult::Ok(v.code()), |code| Ok(SpanKind::from_code(code));
    /// A column index.
    Index: usize = U16,
        |v| u16::try_from(*v).map_err(|_| perr(format!("column index {v} exceeds u16"))),
        |i| Ok(usize::from(i));
    /// A string column's width.
    Width: usize = U32,
        |v| u32::try_from(*v).map_err(|_| perr(format!("string width {v} exceeds u32"))),
        |w| Ok(w as usize);
}

fn algorithm(code: u8) -> PResult<Algorithm> {
    algorithm_from_code(code).ok_or_else(|| perr(format!("unknown algorithm code {code}")))
}

/// Column indexes.
type Keys = List<Index, 0, U16_MAX>;

/// A value of `F` in `MIN..=MAX`.
struct Within<F, const MIN: usize, const MAX: usize>(PhantomData<F>);

impl<F: Form, const MIN: usize, const MAX: usize> Form for Within<F, MIN, MAX>
where
    F::Value: Copy + TryInto<u64>,
{
    type Value = F::Value;
    fn put(v: &F::Value, out: &mut Vec<u8>) -> PResult<()> {
        within(*v, MIN, MAX)?;
        F::put(v, out)
    }
    fn get(r: &mut Reader<'_>) -> PResult<F::Value> {
        let v = F::get(r)?;
        within(v, MIN, MAX).map(|_| v)
    }
}

/// A `u16` count in `MIN..=MAX`, then that many values of `F`.
struct List<F, const MIN: usize, const MAX: usize>(PhantomData<F>);

impl<F: Form, const MIN: usize, const MAX: usize> Form for List<F, MIN, MAX> {
    type Value = Vec<F::Value>;
    fn put(items: &Vec<F::Value>, out: &mut Vec<u8>) -> PResult<()> {
        put_count::<MIN, MAX>(items.len(), out)?;
        items.iter().try_for_each(|item| F::put(item, out))
    }
    fn get(r: &mut Reader<'_>) -> PResult<Vec<F::Value>> {
        let n = get_count::<MIN, MAX>(r)?;
        (0..n).map(|_| F::get(r)).collect()
    }
}

/// A `u8` tag, `0` for none or `1` followed by the value.
struct Opt<F>(PhantomData<F>);

impl<F: Form> Form for Opt<F> {
    type Value = Option<F::Value>;
    fn put(v: &Option<F::Value>, out: &mut Vec<u8>) -> PResult<()> {
        out.push(u8::from(v.is_some()));
        v.as_ref().map_or(Ok(()), |v| F::put(v, out))
    }
    fn get(r: &mut Reader<'_>) -> PResult<Option<F::Value>> {
        match U8::get(r)? {
            0 => Ok(None),
            1 => F::get(r).map(Some),
            t => Err(perr(format!("unknown option tag {t}"))),
        }
    }
}

impl<A: Form, B: Form> Form for (A, B) {
    type Value = (A::Value, B::Value);
    fn put((a, b): &(A::Value, B::Value), out: &mut Vec<u8>) -> PResult<()> {
        A::put(a, out)?;
        B::put(b, out)
    }
    fn get(r: &mut Reader<'_>) -> PResult<(A::Value, B::Value)> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A byte length (`F`, up to `MAX`), then that many bytes of UTF-8.
struct Utf8<F, const MAX: usize>(PhantomData<F>);

/// A string.
type Str = Utf8<U16, U16_MAX>;

/// Plan text.
type Text = Utf8<U32, MAX_PLAN_WIRE>;

impl<F: Form, const MAX: usize> Form for Utf8<F, MAX>
where
    F::Value: Copy + TryInto<u64> + TryFrom<u64>,
{
    type Value = String;
    fn put(s: &String, out: &mut Vec<u8>) -> PResult<()> {
        let n = F::Value::try_from(within(s.len(), 0, MAX)?);
        F::put(
            &n.map_err(|_| perr("string length exceeds its wire width"))?,
            out,
        )?;
        out.extend_from_slice(s.as_bytes());
        Ok(())
    }
    fn get(r: &mut Reader<'_>) -> PResult<String> {
        let n = within(F::get(r)?, 0, MAX)?;
        String::from_utf8(r.take(n as usize)?.to_vec()).map_err(|_| perr("string is not UTF-8"))
    }
}

/// A schema: a `u16` field count, then each field.
struct Heading;

impl Form for Heading {
    type Value = Schema;
    fn put(schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        put_count::<0, U16_MAX>(schema.arity(), out)?;
        schema
            .fields()
            .iter()
            .try_for_each(|f| FieldBody::put(f, out))
    }
    fn get(r: &mut Reader<'_>) -> PResult<Schema> {
        List::<FieldBody, 0, U16_MAX>::get(r).map(Schema::new)
    }
}

/// Where a record section's rows land: tuples for clients, columns for
/// the server's catalog.
trait Land: Sized {
    fn land(schema: &Schema, records: &[u8]) -> reldiv_rel::Result<Self>;
}

impl Land for Vec<Tuple> {
    fn land(schema: &Schema, records: &[u8]) -> reldiv_rel::Result<Self> {
        let codec = RecordCodec::new(schema.clone());
        let width = codec.record_width().max(1);
        let mut tuples = Vec::with_capacity(records.len() / width);
        for record in records.chunks_exact(width) {
            tuples.push(codec.decode(record)?);
        }
        Ok(tuples)
    }
}

impl Land for Arc<Vec<Tuple>> {
    fn land(schema: &Schema, records: &[u8]) -> reldiv_rel::Result<Self> {
        Vec::land(schema, records).map(Arc::new)
    }
}

impl Land for Columns {
    fn land(schema: &Schema, records: &[u8]) -> reldiv_rel::Result<Self> {
        Columns::from_records(schema.clone(), records)
    }
}

/// Where a record section's rows come from: borrowed tuples, or columns.
pub trait Rows {
    /// Number of rows.
    fn count(&self) -> usize;
    /// Appends every row as a record of `schema`.
    fn records(&self, schema: &Schema, out: &mut Vec<u8>) -> PResult<()>;
}

fn unfit(e: reldiv_rel::RelError) -> ServiceError {
    perr(format!("tuple does not fit the schema: {e}"))
}

impl<T: Borrow<Tuple>> Rows for [T] {
    fn count(&self) -> usize {
        self.len()
    }
    fn records(&self, schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        let codec = RecordCodec::new(schema.clone());
        (self.iter()).try_for_each(|t| codec.encode_into(t.borrow(), out).map_err(unfit))
    }
}

impl<T: Borrow<Tuple>> Rows for Vec<T> {
    fn count(&self) -> usize {
        self.len()
    }
    fn records(&self, schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        self[..].records(schema, out)
    }
}

impl Rows for Arc<Vec<Tuple>> {
    fn count(&self) -> usize {
        self.len()
    }
    fn records(&self, schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        self[..].records(schema, out)
    }
}

impl Rows for Columns {
    fn count(&self) -> usize {
        self.cardinality()
    }
    fn records(&self, schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        let types = |s: &Schema| s.fields().iter().map(|f| f.ty).collect::<Vec<_>>();
        if types(self.schema()) != types(schema) {
            return Err(perr("columns do not have the schema's types"));
        }
        (self.batches().iter()).try_for_each(|b| b.encode_records(out).map_err(unfit))
    }
}

impl<R: Rows + ?Sized> Rows for &R {
    fn count(&self) -> usize {
        (**self).count()
    }
    fn records(&self, schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        (**self).records(schema, out)
    }
}

/// A record section: a `u32` count, then that many records of the
/// schema's record codec. The only reader of record sections: rows land
/// where the caller's type says ([`Land`]).
struct Records;

impl Records {
    fn put<R: Rows + ?Sized>(rows: &R, schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        let n = u32::try_from(rows.count()).map_err(|_| perr("too many tuples for one frame"))?;
        // Room for the records and for what may follow them (an epoch, a
        // profile tag), so a frame is not copied to grow at its tail.
        out.reserve(rows.count() * schema.record_width() + 256);
        U32::put(&n, out)?;
        rows.records(schema, out)
    }

    fn get<R: Land>(r: &mut Reader<'_>, schema: &Schema) -> PResult<R> {
        let (n, width) = (U32::get(r)? as usize, schema.record_width());
        if width == 0 && n > 0 {
            return Err(perr("records of a schema without columns"));
        }
        let bytes = n.checked_mul(width).map(|len| r.take(len));
        R::land(schema, bytes.ok_or_else(|| perr("tuple count overflow"))??)
            .map_err(|e| perr(format!("bad record: {e}")))
    }
}

/// One record section per node: a `u16` count in `1..=`
/// [`MAX_CLUSTER_NODES`], then the sections.
struct Buckets;

impl Buckets {
    fn put(buckets: &[Columns], schema: &Schema, out: &mut Vec<u8>) -> PResult<()> {
        put_count::<1, MAX_CLUSTER_NODES>(buckets.len(), out)?;
        buckets
            .iter()
            .try_for_each(|b| Records::put(b, schema, out))
    }

    fn get(r: &mut Reader<'_>, schema: &Schema) -> PResult<Vec<Columns>> {
        let n = get_count::<1, MAX_CLUSTER_NODES>(r)?;
        (0..n).map(|_| Records::get(r, schema)).collect()
    }
}

/// A fragment count (`u16`): `1..=`[`MAX_CLUSTER_NODES`], above the
/// fragment index.
struct Of;

impl Of {
    fn put(of: &u16, shard: &u16, out: &mut Vec<u8>) -> PResult<()> {
        U16::put(&Of::check(*shard, *of)?, out)
    }

    fn get(r: &mut Reader<'_>, shard: &u16) -> PResult<u16> {
        Of::check(*shard, U16::get(r)?)
    }

    fn check(shard: u16, of: u16) -> PResult<u16> {
        if of > 0 && of as usize <= MAX_CLUSTER_NODES && shard < of {
            return Ok(of);
        }
        Err(perr(format!(
            "fragment {shard} of {of} is not a valid placement"
        )))
    }
}

/// A replication factor (`u16`): `1..=` the member count.
struct Replication;

impl Replication {
    fn put(k: &u16, members: &[String], out: &mut Vec<u8>) -> PResult<()> {
        within(*k, 1, members.len())?;
        U16::put(k, out)
    }

    fn get(r: &mut Reader<'_>, members: &[String]) -> PResult<u16> {
        let k = U16::get(r)?;
        within(k, 1, members.len()).map(|_| k)
    }
}

/// `u32` bits up to [`MAX_FILTER_BITS`], `u32` words (which must be
/// `ceil(bits / 64)`, so a corrupt frame fails arithmetic, not a
/// misaligned read), then the words.
struct Filter;

impl Form for Filter {
    type Value = BitVectorFilter;
    fn put(filter: &BitVectorFilter, out: &mut Vec<u8>) -> PResult<()> {
        U32::put(&(within(filter.bits(), 0, MAX_FILTER_BITS)? as u32), out)?;
        U32::put(&(filter.words().len() as u32), out)?;
        filter.words().iter().try_for_each(|w| U64::put(w, out))
    }
    fn get(r: &mut Reader<'_>) -> PResult<BitVectorFilter> {
        let bits = within(U32::get(r)?, 0, MAX_FILTER_BITS)? as usize;
        let n = U32::get(r)? as usize;
        if n != bits.div_ceil(64) {
            return Err(perr(format!(
                "filter word count {n} does not match {bits} bits"
            )));
        }
        let words = (0..n).map(|_| U64::get(r)).collect::<PResult<Vec<u64>>>()?;
        BitVectorFilter::from_parts(bits, words).ok_or_else(|| perr("filter geometry rejected"))
    }
}

/// A span and its subtree. Hostile trees are bounded: nesting deeper
/// than [`MAX_PROFILE_DEPTH`] or more than [`MAX_PROFILE_NODES`] spans is
/// a typed protocol error, never unbounded recursion or allocation.
struct Span;

impl Form for Span {
    type Value = ProfileNode;
    fn put(node: &ProfileNode, out: &mut Vec<u8>) -> PResult<()> {
        ProfileNodes::put(node, out)
    }
    fn get(r: &mut Reader<'_>) -> PResult<ProfileNode> {
        if r.depth > MAX_PROFILE_DEPTH {
            return Err(perr(format!(
                "profile nesting exceeds depth {MAX_PROFILE_DEPTH}"
            )));
        }
        if r.spans == MAX_PROFILE_NODES {
            return Err(perr(format!(
                "profile tree exceeds {MAX_PROFILE_NODES} nodes"
            )));
        }
        r.spans += 1;
        r.depth += 1;
        let node = ProfileNodes::get(r);
        r.depth -= 1;
        node
    }
}

/// The stats counters: a `u16` count (at least 13), the counters in
/// [`STATS_COUNTERS`] order, then the ops totals. Counters past the ones
/// this side knows are a newer peer's and are skipped; ones an older peer
/// never sent read as zero.
struct Counters;

impl Form for Counters {
    type Value = MetricsSnapshot;
    fn put(s: &MetricsSnapshot, out: &mut Vec<u8>) -> PResult<()> {
        let mut s = *s;
        put_count::<0, U16_MAX>(STATS_COUNTERS.len(), out)?;
        counter_slots(&mut s).try_for_each(|v| U64::put(v, out))?;
        Ops::put(&s.ops, out)
    }
    fn get(r: &mut Reader<'_>) -> PResult<MetricsSnapshot> {
        let n = get_count::<STATS_REQUIRED_FIELDS, U16_MAX>(r)?;
        let values = (0..n).map(|_| U64::get(r)).collect::<PResult<Vec<u64>>>()?;
        let mut s = MetricsSnapshot {
            ops: Ops::get(r)?,
            ..MetricsSnapshot::default()
        };
        counter_slots(&mut s)
            .zip(values)
            .for_each(|(slot, v)| *slot = v);
        Ok(s)
    }
}

/// An error: its code ([`ERROR_CODES`]), then its message as a string.
struct Failure;

impl Form for Failure {
    type Value = ServiceError;
    fn put(e: &ServiceError, out: &mut Vec<u8>) -> PResult<()> {
        U8::put(&error_code(e), out)?;
        Str::put(&e.message(), out)
    }
    fn get(r: &mut Reader<'_>) -> PResult<ServiceError> {
        let code = U8::get(r)?;
        Ok(error_from_code(code, Str::get(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Value;

    fn schema2() -> Schema {
        Schema::new(vec![Field::int("q"), Field::int("d")])
    }

    fn divide(dividend: &str, divisor: &str) -> DivideRequest {
        DivideRequest {
            dividend: dividend.into(),
            divisor: divisor.into(),
            algorithm: None,
            assume_unique: false,
            spec: None,
            deadline_ms: None,
            profile: false,
            distribute: None,
            restricted: None,
            mem_budget: None,
        }
    }

    fn at(shard: u16, of: u16, shard_keys: Vec<usize>) -> ShardInfo {
        ShardInfo {
            shard,
            of,
            shard_keys,
        }
    }

    /// Decodes a section the way a frame does.
    fn read<F: Form>(bytes: &[u8]) -> PResult<F::Value> {
        whole(bytes, F::get)
    }

    fn protocol_error<T: std::fmt::Debug>(r: PResult<T>) {
        assert!(matches!(r, Err(ServiceError::Protocol(_))), "{r:?}");
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

    /// A span tree `depth` levels deep, two children per level.
    fn sample_profile_node(depth: usize) -> ProfileNode {
        ProfileNode {
            label: format!("span at depth {depth}"),
            kind: SpanKind::Query,
            wall_micros: 100 + depth as u64,
            tuples_in: 7,
            tuples_out: 5,
            ops: OpSnapshot {
                comparisons: 11,
                ..OpSnapshot::default()
            },
            pages_read: 3,
            pages_written: 2,
            spill_bytes: 4096,
            network_bytes: 0,
            phases: vec!["in-memory".into()],
            children: (0..depth.min(1) * 2)
                .map(|_| sample_profile_node(depth - 1))
                .collect(),
        }
    }

    /// A stats frame of `n` counters `1..=n`, then `ops`.
    fn stats_frame(n: u16, ops: &OpSnapshot) -> Vec<u8> {
        let mut frame = vec![0x00, 0x07];
        frame.extend_from_slice(&n.to_le_bytes());
        (1..=u64::from(n)).for_each(|v| frame.extend_from_slice(&v.to_le_bytes()));
        Ops::put(ops, &mut frame).unwrap();
        frame
    }

    /// A stats reply round-trips through the versioned frame, new
    /// counters included.
    #[test]
    fn stats_reply_round_trips_with_new_counters() {
        let mut snapshot = MetricsSnapshot::default();
        for (i, slot) in counter_slots(&mut snapshot).enumerate() {
            *slot = i as u64 + 1;
        }
        snapshot.ops.bitops = 4;
        let bytes = encode_response(&Ok(Reply::Stats(snapshot))).unwrap();
        let n = STATS_COUNTERS.len() as u16;
        assert_eq!(bytes, stats_frame(n, &snapshot.ops), "the versioned frame");
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
        let mut frame = stats_frame(13, &OpSnapshot::default());
        frame.drain(1..4);
        frame.insert(1, 0x05);
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
        let ops = OpSnapshot {
            comparisons: 40,
            hashes: 41,
            moves: 42,
            bitops: 43,
        };
        match decode_response(&stats_frame(24, &ops)).unwrap().unwrap() {
            Reply::Stats(s) => {
                assert_eq!(s.queries, 1);
                assert_eq!(s.latency_count, 14);
                assert_eq!(s.heartbeats_missed, 19);
                assert_eq!(s.division_spill_bytes, 21);
                assert_eq!(s.ops, ops, "ops block read after skipping extras");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// A stats frame from a peer that predates the replication counters
    /// (15 of them) still decodes; the counters it has never heard of
    /// read as zero.
    #[test]
    fn pre_replication_stats_frame_decodes_with_robustness_counters_zero() {
        let frame = stats_frame(15, &OpSnapshot::default());
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
        match decode_response(&stats_frame(12, &OpSnapshot::default())) {
            Err(ServiceError::Protocol(msg)) => {
                assert!(msg.contains("12"), "names the bad count: {msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// Divide requests and replies without the trailing extensions —
    /// what older peers send — still decode, each missing extension as
    /// its default.
    #[test]
    fn profile_extension_is_optional_on_the_wire() {
        let bytes = Request::Divide(DivideRequest {
            profile: true,
            ..divide("r", "s")
        })
        .encode()
        .unwrap();
        // The frame tail is four trailing extensions, newest last:
        // [profile byte][distribution tag][restricted byte][mem-budget
        // u64]. Cut them one at a time, newest first.
        for (cut, profile) in [(8, true), (9, true), (10, true), (11, false)] {
            match Request::decode(&bytes[..bytes.len() - cut]).unwrap() {
                Request::Divide(q) => assert_eq!(
                    q,
                    DivideRequest {
                        profile,
                        ..divide("r", "s")
                    },
                    "cut {cut}"
                ),
                other => panic!("expected divide, got {other:?}"),
            }
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
        assert_eq!(decode_response(&bytes[..bytes.len() - 1]).unwrap(), reply);
    }

    /// Hostile profile payloads hit the typed depth and node limits
    /// instead of recursing or allocating without bound.
    #[test]
    fn profile_limits_are_enforced() {
        // Depth: a chain one deeper than the limit.
        let mut node = sample_profile_node(0);
        for _ in 0..=MAX_PROFILE_DEPTH {
            node = ProfileNode {
                children: vec![node],
                ..sample_profile_node(0)
            };
        }
        let mut out = Vec::new();
        Span::put(&node, &mut out).unwrap();
        match read::<Span>(&out) {
            Err(ServiceError::Protocol(msg)) => assert!(msg.contains("depth")),
            other => panic!("expected a depth error, got {other:?}"),
        }
        // One level less is within the limit.
        let mut out = Vec::new();
        Span::put(&node.children[0], &mut out).unwrap();
        assert_eq!(read::<Span>(&out).unwrap(), node.children[0]);

        // Node count: a star two levels deep that exceeds the budget.
        let arm = ProfileNode {
            children: vec![sample_profile_node(0); 600],
            ..sample_profile_node(0)
        };
        let wide = ProfileNode {
            children: vec![arm; 200],
            ..sample_profile_node(0)
        };
        assert!(wide.node_count() > MAX_PROFILE_NODES);
        let mut out = Vec::new();
        Span::put(&wide, &mut out).unwrap();
        match read::<Span>(&out) {
            Err(ServiceError::Protocol(msg)) => assert!(msg.contains("node")),
            other => panic!("expected a node-limit error, got {other:?}"),
        }
    }

    /// The algorithm and error tables are two-way: every entry decodes to
    /// itself, and an unknown code is `None` or an internal error.
    #[test]
    fn algorithm_codes_round_trip() {
        for (code, alg) in ALGORITHM_CODES {
            assert_eq!(algorithm_code(alg), code);
            assert_eq!(algorithm_from_code(code), Some(alg));
        }
        assert_eq!(algorithm_from_code(ALG_AUTO), None);
        for (code, make) in ERROR_CODES {
            let error = make("m".into());
            assert_eq!(error_code(&error), code);
            assert_eq!(error_code(&error_from_code(code, "m".into())), code);
        }
        let unknown = error_from_code(0xEE, "m".into());
        assert_eq!(unknown, ServiceError::Internal("m".into()));
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
                algorithm: Some(Algorithm::Naive),
                assume_unique: true,
                spec: Some((vec![1], vec![0])),
                deadline_ms: Some(2_500),
                profile: true,
                ..divide("r", "s")
            }),
            Request::Divide(divide("r", "s")),
            Request::Divide(DivideRequest {
                distribute: Some(Distribution {
                    strategy: Strategy::DivisorPartitioning,
                    nodes: 8,
                    bit_vector_bits: Some(4096),
                }),
                restricted: Some(false),
                mem_budget: Some(1 << 20),
                ..divide("r", "s")
            }),
            Request::Stats,
            Request::Shutdown,
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
                epoch: None,
            },
            Request::DividePartial {
                tag: 7,
                query: DivideRequest {
                    restricted: Some(true),
                    ..divide(".part.r.3", ".repl.s.9")
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
            Request::ExecPlan(ExecPlanRequest {
                plan: "(divide (on s) (scan r) (scan s))".into(),
                deadline_ms: Some(3_000),
                profile: true,
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
        protocol_error(Request::decode(&hostile));
    }

    /// The restricted-divisor trailing byte: 0xFF means "no assertion",
    /// 0/1 are the explicit claims, anything else is a protocol error.
    #[test]
    fn restricted_byte_rejects_unknown_tags() {
        let bytes = Request::Divide(DivideRequest {
            restricted: Some(false),
            ..divide("r", "s")
        })
        .encode()
        .unwrap();
        // The restricted byte sits just before the trailing 8-byte
        // mem-budget word.
        let pos = bytes.len() - 9;
        assert_eq!(bytes[pos], 0, "Some(false) encodes as 0");
        let mut mutated = bytes.clone();
        mutated[pos] = 2;
        protocol_error(Request::decode(&mutated));
        mutated[pos] = TRI_AUTO;
        assert_eq!(
            Request::decode(&mutated).unwrap(),
            Request::Divide(divide("r", "s"))
        );
    }

    /// The mem-budget trailing word: 0 means "no budget", a nonzero
    /// value is the per-query cap in bytes.
    #[test]
    fn mem_budget_word_round_trips() {
        let req = Request::Divide(DivideRequest {
            mem_budget: Some(256 * 1024),
            ..divide("r", "s")
        });
        assert_eq!(Request::decode(&req.encode().unwrap()).unwrap(), req);
        // An explicit 0 on the wire decodes as "no budget".
        let bytes = Request::Divide(divide("r", "s")).encode().unwrap();
        assert_eq!(&bytes[bytes.len() - 8..], &[0u8; 8]);
        assert_eq!(
            Request::decode(&bytes).unwrap(),
            Request::Divide(divide("r", "s"))
        );
    }

    fn sample_filter() -> BitVectorFilter {
        let mut f = BitVectorFilter::new(512);
        for d in 0..40 {
            f.insert_hash(ints(&[d]).hash_on(&[0]));
        }
        f
    }

    #[test]
    fn responses_round_trip() {
        let plan = PlanReply {
            algorithms: ALGORITHM_CODES.iter().map(|&(_, alg)| alg).collect(),
            cached: false,
            micros: 4321,
            ops: OpSnapshot::default(),
            relations: vec![("courses".into(), 7), ("transcript".into(), 5)],
            schema: Schema::new(vec![Field::int("student-id")]),
            tuples: Arc::new(vec![ints(&[1]), ints(&[3])]),
            profile: Some(QueryProfile {
                root: sample_profile_node(2),
            }),
        };
        let responses: Vec<Response> = vec![
            Ok(Reply::Pong),
            Ok(Reply::Registered { version: 42 }),
            Ok(Reply::Dropped),
            Ok(Reply::Divided(DivideReply {
                algorithm: Algorithm::HashDivision { mode: Standard },
                cached: true,
                dividend_version: 3,
                divisor_version: 4,
                micros: 1234,
                ops: OpSnapshot::default(),
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(vec![ints(&[7]), ints(&[9])]),
                profile: Some(QueryProfile {
                    root: sample_profile_node(2),
                }),
            })),
            Ok(Reply::Stats(MetricsSnapshot::default())),
            Ok(Reply::ShuttingDown),
            Ok(Reply::Sharded { version: 99 }),
            Ok(Reply::HeartbeatAck {
                epoch: 7,
                accepting: true,
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
                buckets: [vec![ints(&[1, 10])], vec![], vec![ints(&[3, 30])]]
                    .iter()
                    .map(|b| Columns::from_tuples(schema2(), b).unwrap())
                    .collect(),
                filtered: 12,
            }),
            Ok(Reply::Filter {
                filter: sample_filter(),
                insertions: 40,
            }),
            Ok(Reply::PartialQuotient(PartialQuotientReply {
                tag: 3,
                algorithm: Algorithm::Naive,
                dividend_version: 11,
                divisor_version: 12,
                micros: 777,
                ops: OpSnapshot::default(),
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Columns::from_tuples(Schema::new(vec![Field::int("q")]), &[ints(&[4])])
                    .unwrap(),
                profile: None,
            })),
            Ok(Reply::Plan(plan.clone())),
            Ok(Reply::Plan(PlanReply {
                algorithms: vec![],
                relations: vec![],
                profile: None,
                ..plan
            })),
            Err(ServiceError::Overloaded),
            Err(ServiceError::DeadlineExceeded),
            Err(ServiceError::UnknownRelation("x".into())),
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
            Value::Int(1),
            Value::Str("database".into()),
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
        protocol_error(Request::decode(&bytes[..0]));
        protocol_error(decode_response(&[]));
        let mut with_trailing = bytes.clone();
        with_trailing.push(0);
        protocol_error(Request::decode(&with_trailing));
    }

    /// Every bounded field refuses out-of-range values with a typed
    /// protocol error, on the encode side (bad values never reach the
    /// wire) and the decode side (hostile frames never allocate per a
    /// lying count). The decode side reads hand-built sections, so it
    /// is exercised even for values the encoder refuses to produce.
    #[test]
    fn cluster_frames_reject_bad_geometry() {
        // Placement: shard >= of, of = 0, of > MAX_CLUSTER_NODES, for
        // shard and replica writes alike.
        for (shard, of) in [(4u16, 4u16), (0, 0), (0, MAX_CLUSTER_NODES as u16 + 1)] {
            for kind in [
                WriteKind::Shard(at(shard, of, vec![0])),
                WriteKind::Replica(at(shard, of, vec![0])),
            ] {
                let empty: &[Tuple] = &[];
                protocol_error(encode_write("r", &kind, &schema2(), empty, None));
            }
            let mut section = shard.to_le_bytes().to_vec();
            section.extend_from_slice(&of.to_le_bytes());
            Keys::put(&vec![0], &mut section).unwrap();
            protocol_error(read::<Placement>(&section));
        }
        // Bounded counts: repartition parts, filter bits, distribution
        // nodes, bucket counts, member counts.
        let parts = |n: u16| n.to_le_bytes().to_vec();
        for n in [0u16, MAX_CLUSTER_NODES as u16 + 1] {
            protocol_error(<Within<U16, 1, MAX_CLUSTER_NODES>>::put(&n, &mut vec![]));
            protocol_error(read::<Within<U16, 1, MAX_CLUSTER_NODES>>(&parts(n)));
            let mut buckets = Vec::new();
            Heading::put(&schema2(), &mut buckets).unwrap();
            buckets.extend(parts(n));
            protocol_error(whole(&buckets, |r| {
                let schema = Heading::get(r)?;
                Buckets::get(r, &schema)
            }));
            protocol_error(read::<List<Str, 1, MAX_CLUSTER_NODES>>(&parts(n)));
            let mut dist = vec![0];
            dist.extend(parts(n));
            dist.extend_from_slice(&0u64.to_le_bytes());
            protocol_error(read::<DistBody>(&dist));
        }
        for bits in [0u32, MAX_FILTER_BITS as u32 + 1] {
            let req = Request::BuildFilter {
                name: "r".into(),
                keys: vec![0],
                bits,
                epoch: None,
            };
            protocol_error(req.encode());
            protocol_error(read::<Within<U32, 1, MAX_FILTER_BITS>>(&bits.to_le_bytes()));
        }
        let unknown_strategy = [9, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        protocol_error(read::<DistBody>(&unknown_strategy));
        let oversized_reply = Reply::Repartitioned {
            schema: schema2(),
            buckets: vec![Columns::from_batches(schema2(), vec![]); MAX_CLUSTER_NODES + 1],
            filtered: 0,
        };
        protocol_error(encode_response(&Ok(oversized_reply)));
        // Filter geometry: oversize bit counts, a word count that does
        // not match the bit count (refused by arithmetic before any
        // allocation), and too few words.
        let filter = |bits: u32, words: u32, sent: usize| {
            let mut f = bits.to_le_bytes().to_vec();
            f.extend_from_slice(&words.to_le_bytes());
            f.extend(std::iter::repeat_n(0u8, 8 * sent));
            f
        };
        protocol_error(read::<Filter>(&filter(MAX_FILTER_BITS as u32 + 1, 0, 0)));
        protocol_error(read::<Filter>(&filter(128, 65_535, 0)));
        protocol_error(read::<Filter>(&filter(128, 2, 1)));
        assert!(read::<Filter>(&filter(128, 2, 2)).is_ok());
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
            protocol_error(req.encode());
            let reply = Reply::Epoch {
                epoch: 1,
                members: members.clone(),
                replication,
            };
            protocol_error(encode_response(&Ok(reply)));
            let mut frame = vec![0x0D, 1];
            frame.extend_from_slice(&1u64.to_le_bytes());
            frame.extend_from_slice(&(members.len() as u16).to_le_bytes());
            for m in &members {
                Str::put(m, &mut frame).unwrap();
            }
            frame.extend_from_slice(&replication.to_le_bytes());
            protocol_error(Request::decode(&frame));
        }
    }

    /// The trailing epoch extension on the cluster data-plane frames is
    /// optional both ways: a frame cut before it (a pre-replication
    /// peer) decodes with `epoch: None`, and an explicit absent tag
    /// round-trips. Unknown tags are typed protocol errors.
    #[test]
    fn epoch_extension_is_optional_on_the_wire() {
        let kind = WriteKind::Shard(at(0, 2, vec![0]));
        let bytes = encode_write("r", &kind, &schema2(), &[ints(&[1, 2])][..], Some(42)).unwrap();
        let epoch = |frame: &[u8]| decode_write(frame).unwrap().map(|w| w.epoch);
        // The extension is 9 trailing bytes: presence tag + u64 epoch.
        assert_eq!(epoch(&bytes[..bytes.len() - 9]), Ok(None), "cut frame");
        assert_eq!(epoch(&bytes), Ok(Some(42)));
        let mut mutated = bytes.clone();
        let tag_at = bytes.len() - 9;
        mutated[tag_at] = 7;
        mutated.truncate(tag_at + 1);
        protocol_error(epoch(&mutated));
        // Same for a divide-partial frame, whose body already ends in
        // four older trailing extensions — the epoch stacks after them.
        let req = Request::DividePartial {
            tag: 1,
            query: divide("r", "s"),
            epoch: Some(3),
        };
        let bytes = req.encode().unwrap();
        let cut = Request::DividePartial {
            tag: 1,
            query: divide("r", "s"),
            epoch: None,
        };
        assert_eq!(Request::decode(&bytes[..bytes.len() - 9]).unwrap(), cut);
        assert_eq!(Request::decode(&bytes).unwrap(), req);
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

    /// Hostile-client safety net: the decoders return typed errors, never
    /// panic, on random garbage of every length. (Every row's truncations
    /// and overwrites are the corpus of `tests/wire_table.rs`.)
    #[test]
    fn decoders_survive_hostile_frames() {
        let mut rng = 0x5EED_u64;
        for len in 0..=257usize {
            for _ in 0..8 {
                let payload: Vec<u8> = (0..len).map(|_| splitmix64(&mut rng) as u8).collect();
                let _ = Request::decode(&payload);
                let _ = decode_response(&payload);
                let _ = decode_write(&payload);
            }
        }
    }

    /// A seeded relation: one to four columns of either type, strings of
    /// one- and two-byte characters up to their width.
    fn random_relation(rng: &mut u64, rows: usize) -> (Schema, Vec<Tuple>) {
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

    /// The three bulk write kinds.
    fn write_kinds() -> [(WriteKind, Option<u64>); 3] {
        [
            (WriteKind::Register, None),
            (WriteKind::Shard(at(1, 3, vec![0])), Some(9)),
            (WriteKind::Replica(at(2, 3, vec![0])), None),
        ]
    }

    type Landed = PResult<WriteFrame<Vec<Tuple>>>;

    /// A write frame's rows landed in tuples, and in columns read back
    /// as tuples.
    fn both_landings(frame: &[u8]) -> (Landed, Landed) {
        let tuples = whole(frame, Writes::get::<Vec<Tuple>>);
        let columns = decode_write(frame).unwrap().map(|w| WriteFrame {
            rows: w.rows.tuples().collect(),
            name: w.name,
            kind: w.kind,
            schema: w.schema,
            epoch: w.epoch,
        });
        (tuples, columns)
    }

    #[test]
    fn write_frames_read_into_columns_equal_their_decoded_requests() {
        let mut rng = 0xC01_u64;
        // Cardinalities around the batch boundaries, the empty relation.
        for rows in [0, 1, 7, 1023, 1024, 1025, 2048, 2500] {
            let (schema, tuples) = random_relation(&mut rng, rows);
            for (kind, epoch) in write_kinds() {
                let frame = encode_write("r", &kind, &schema, &tuples, epoch).unwrap();
                let (from_tuples, from_columns) = both_landings(&frame);
                let want = WriteFrame {
                    name: "r".into(),
                    kind: kind.clone(),
                    schema: schema.clone(),
                    rows: tuples.clone(),
                    epoch,
                };
                assert_eq!(from_tuples.unwrap(), want);
                assert_eq!(from_columns.unwrap(), want, "{rows} rows");
                // The borrowed-row encoder writes the same bytes.
                let borrowed: Vec<&Tuple> = tuples.iter().collect();
                let again = encode_write("r", &kind, &schema, &borrowed, epoch);
                assert_eq!(again.unwrap(), frame);
            }
            // A `Register` request is the same frame, and only it decodes
            // as a request.
            let register = Request::Register {
                name: "r".into(),
                schema: schema.clone(),
                tuples: tuples.clone(),
            };
            let frame = encode_write("r", &WriteKind::Register, &schema, &tuples, None).unwrap();
            assert_eq!(register.encode().unwrap(), frame);
            assert_eq!(Request::decode(&frame).unwrap(), register);
        }
        let shard = encode_write(
            "r",
            &write_kinds()[1].0,
            &schema2(),
            &[ints(&[1, 2])][..],
            None,
        );
        protocol_error(Request::decode(&shard.unwrap()));
        assert!(decode_write(&Request::Stats.encode().unwrap()).is_none());
        assert!(decode_write(&[]).is_none());
    }

    #[test]
    fn damaged_write_frames_fail_both_decoders_alike() {
        let mut rng = 0xBAD_u64;
        let (schema, tuples) = random_relation(&mut rng, 40);
        let alike = |frame: &[u8], what: &str| match both_landings(frame) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
            (Err(a), Err(b)) => {
                assert!(matches!(b, ServiceError::Protocol(_)), "{what}: {b}");
                assert_eq!(a.to_string(), b.to_string(), "{what}");
            }
            (a, b) => panic!("{what}: the landings disagree: {a:?} vs {b:?}"),
        };
        for (kind, epoch) in write_kinds() {
            let frame = encode_write("r", &kind, &schema, &tuples, epoch).unwrap();
            // Every truncation — the record section's among them (a cut
            // that only drops the optional epoch still decodes).
            for cut in 1..frame.len() {
                alike(&frame[..cut], "truncated");
            }
            // Random damage: the landings agree on every frame, whether
            // it still decodes or not.
            for _ in 0..400 {
                let mut bent = frame.clone();
                let at = 1 + splitmix64(&mut rng) as usize % (bent.len() - 1);
                bent[at] ^= 1 << (splitmix64(&mut rng) % 8);
                alike(&bent, "bit flip");
            }
        }

        // A record count whose byte length cannot fit the frame.
        let empty: &[Tuple] = &[];
        let mut huge = encode_write("r", &WriteKind::Register, &schema2(), empty, None).unwrap();
        huge.truncate(huge.len() - 4);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        alike(&huge, "count overflow");
        protocol_error(decode_write(&huge).unwrap());

        // A string field that is not UTF-8.
        let strings = Schema::new(vec![Field::str("s", 4)]);
        let row = [Tuple::new(vec![Value::from("ab")])];
        let mut frame = encode_write("r", &WriteKind::Register, &strings, &row[..], None).unwrap();
        let at = frame.len() - 4;
        frame[at] = 0xFF;
        alike(&frame, "invalid UTF-8");
        protocol_error(decode_write(&frame).unwrap());
    }
}
