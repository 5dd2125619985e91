//! A sample of every frame the wire protocol carries, shared by the wire
//! suites (`mod frames;`): every `Request` and `Reply` variant, the three
//! bulk write frames, every error code, and every trailing extension both
//! present and absent.

#![allow(dead_code)]

use std::ops::Range;
use std::sync::Arc;

use reldiv_core::{Algorithm, HashDivisionMode, ProfileNode, QueryProfile, SpanKind};
use reldiv_parallel::filter::BitVectorFilter;
use reldiv_parallel::{Distribution, Strategy};
use reldiv_rel::counters::OpSnapshot;
use reldiv_rel::tuple::ints;
use reldiv_rel::{Columns, Field, RecordCodec, Schema, Tuple, Value};
use reldiv_service::proto::{
    self, decode_response, encode_response, encode_write, Reply, Request, WriteFrame, WriteKind,
};
use reldiv_service::{
    DivideReply, DivideRequest, EpochRequest, ExecPlanRequest, MetricsSnapshot,
    PartialQuotientReply, PlanReply, RepartitionRequest, ServiceError, ShardInfo,
};

/// Which decoder reads a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `Request::decode`.
    Request,
    /// `proto::decode_write` (the bulk write frames).
    Write,
    /// `proto::decode_response`.
    Reply,
}

/// One encoded frame and where its record sections sit.
pub struct Sample {
    pub label: &'static str,
    pub dir: Dir,
    pub frame: Vec<u8>,
    /// Byte ranges of the records inside the frame's record sections
    /// (their counts excluded): the record codec's bytes, not the frame
    /// layout's.
    pub records: Vec<Range<usize>>,
}

/// What a decoder made of some bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Decoded; the value's `Debug` form.
    Accepted(String),
    /// Refused with a typed protocol error.
    Refused,
    /// Not a bulk write frame (`decode_write` only).
    NotWrite,
}

pub fn decode(dir: Dir, bytes: &[u8]) -> Outcome {
    let refused = |e: ServiceError| {
        assert!(
            matches!(e, ServiceError::Protocol(_)),
            "untyped refusal {e:?}"
        );
        Outcome::Refused
    };
    match dir {
        Dir::Request => Request::decode(bytes).map_or_else(refused, |r| accepted(&r)),
        Dir::Reply => decode_response(bytes).map_or_else(refused, |r| accepted(&r)),
        Dir::Write => match proto::decode_write(bytes) {
            None => Outcome::NotWrite,
            Some(write) => write.map_or_else(refused, |w| {
                accepted(&WriteFrame {
                    rows: w.rows.tuples().collect::<Vec<_>>(),
                    name: w.name,
                    kind: w.kind,
                    schema: w.schema,
                    epoch: w.epoch,
                })
            }),
        },
    }
}

fn accepted(value: &impl std::fmt::Debug) -> Outcome {
    Outcome::Accepted(format!("{value:?}"))
}

/// FNV-1a over `bytes`: a digest that depends on nothing but the bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn schema2() -> Schema {
    Schema::new(vec![Field::int("q"), Field::int("d")])
}

fn strings() -> Schema {
    Schema::new(vec![Field::int("id"), Field::str("title", 12)])
}

fn titles() -> Vec<Tuple> {
    vec![
        Tuple::new(vec![Value::Int(1), Value::Str("database".into())]),
        Tuple::new(vec![Value::Int(-2), Value::Str("é".into())]),
    ]
}

pub fn quotient() -> Schema {
    Schema::new(vec![Field::int("q")])
}

pub fn rows2() -> Vec<Tuple> {
    vec![ints(&[1, 10]), ints(&[2, 20])]
}

pub fn profile(depth: usize) -> QueryProfile {
    QueryProfile {
        root: profile_node(depth),
    }
}

/// A span tree `depth` levels deep, two children per level, every metric
/// non-zero somewhere.
pub fn profile_node(depth: usize) -> ProfileNode {
    let children = (0..if depth == 0 { 0 } else { 2 })
        .map(|_| profile_node(depth - 1))
        .collect();
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
        ops: ops(11),
        pages_read: 3,
        pages_written: 2,
        spill_bytes: 4096,
        network_bytes: 9,
        phases: vec!["in-memory".into()],
        children,
    }
}

pub fn ops(base: u64) -> OpSnapshot {
    OpSnapshot {
        comparisons: base,
        hashes: base + 1,
        moves: base + 2,
        bitops: base + 3,
    }
}

pub fn filter() -> BitVectorFilter {
    let mut f = BitVectorFilter::new(512);
    for d in 0..40 {
        f.insert_hash(ints(&[d]).hash_on(&[0]));
    }
    f
}

pub fn divide(dividend: &str, divisor: &str) -> DivideRequest {
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

/// A divide request with every field and extension set.
pub fn divide_full() -> DivideRequest {
    DivideRequest {
        algorithm: Some(Algorithm::HashDivision {
            mode: HashDivisionMode::EarlyOut,
        }),
        assume_unique: true,
        spec: Some((vec![1], vec![0])),
        deadline_ms: Some(2_500),
        profile: true,
        distribute: Some(Distribution {
            strategy: Strategy::DivisorPartitioning,
            nodes: 8,
            bit_vector_bits: Some(4096),
        }),
        restricted: Some(false),
        mem_budget: Some(256 * 1024),
        ..divide("r", "s")
    }
}

pub const ALGORITHMS: [Algorithm; 8] = [
    Algorithm::Naive,
    Algorithm::SortAggregation { join: false },
    Algorithm::SortAggregation { join: true },
    Algorithm::HashAggregation { join: false },
    Algorithm::HashAggregation { join: true },
    Algorithm::HashDivision {
        mode: HashDivisionMode::Standard,
    },
    Algorithm::HashDivision {
        mode: HashDivisionMode::EarlyOut,
    },
    Algorithm::HashDivision {
        mode: HashDivisionMode::CounterOnly,
    },
];

pub fn stats() -> MetricsSnapshot {
    MetricsSnapshot {
        queries: 1,
        cache_hits: 2,
        cache_misses: 3,
        rejections: 4,
        shed_shutdown: 5,
        errors: 6,
        timeouts: 7,
        worker_panics: 8,
        io_retries: 9,
        latency_p50_us: 10,
        latency_p95_us: 11,
        latency_p99_us: 12,
        latency_mean_us: 13,
        latency_count: 14,
        profiled_queries: 15,
        replica_retries: 16,
        failovers: 17,
        nodes_excluded: 18,
        heartbeats_missed: 19,
        degraded_queries: 20,
        division_spill_bytes: 21,
        ops: ops(30),
    }
}

fn at(shard: u16, of: u16, shard_keys: Vec<usize>) -> ShardInfo {
    ShardInfo {
        shard,
        of,
        shard_keys,
    }
}

/// Every sample frame, encoded by the codec under test.
pub fn samples() -> Vec<Sample> {
    let mut out = Vec::new();
    let mut request = |label, req: Request, sections: &[(Schema, Vec<Tuple>)]| {
        out.push(sample(label, Dir::Request, req.encode().unwrap(), sections));
    };
    request("ping", Request::Ping, &[]);
    let register = |schema: Schema, tuples: Vec<Tuple>| Request::Register {
        name: "transcript".into(),
        schema,
        tuples,
    };
    request(
        "register",
        register(schema2(), rows2()),
        &[(schema2(), rows2())],
    );
    request("register/empty", register(schema2(), vec![]), &[]);
    request(
        "register/strings",
        register(strings(), titles()),
        &[(strings(), titles())],
    );
    request("drop", Request::DropRelation { name: "r".into() }, &[]);
    request("divide/bare", Request::Divide(divide("r", "s")), &[]);
    request("divide/full", Request::Divide(divide_full()), &[]);
    let quotient_partitioned = DivideRequest {
        algorithm: Some(Algorithm::Naive),
        distribute: Some(Distribution {
            strategy: Strategy::QuotientPartitioning,
            nodes: 4,
            bit_vector_bits: None,
        }),
        restricted: Some(true),
        ..divide("dividend", "divisor")
    };
    request(
        "divide/no-filter",
        Request::Divide(quotient_partitioned),
        &[],
    );
    request("stats", Request::Stats, &[]);
    request("shutdown", Request::Shutdown, &[]);
    let repartition = |filter, epoch| {
        Request::Repartition(RepartitionRequest {
            name: "transcript".into(),
            keys: vec![1],
            parts: 3,
            filter,
            epoch,
        })
    };
    request("repartition/bare", repartition(None, None), &[]);
    request(
        "repartition/full",
        repartition(Some(filter()), Some(9)),
        &[],
    );
    let build_filter = |epoch| Request::BuildFilter {
        name: "courses".into(),
        keys: vec![0, 1],
        bits: 1024,
        epoch,
    };
    request("build-filter/bare", build_filter(None), &[]);
    request("build-filter/epoch", build_filter(Some(1)), &[]);
    request(
        "divide-partial/bare",
        Request::DividePartial {
            tag: 0,
            query: divide(".part.r.3", ".repl.s.9"),
            epoch: None,
        },
        &[],
    );
    request(
        "divide-partial/full",
        Request::DividePartial {
            tag: 7,
            query: divide_full(),
            epoch: Some(12),
        },
        &[],
    );
    request(
        "exec-plan/bare",
        Request::ExecPlan(ExecPlanRequest {
            plan: "(scan r)".into(),
            deadline_ms: None,
            profile: false,
        }),
        &[],
    );
    request(
        "exec-plan/full",
        Request::ExecPlan(ExecPlanRequest {
            plan: "(divide (on s) (filter (>= q 2) (scan r)) (scan s))".into(),
            deadline_ms: Some(750),
            profile: true,
        }),
        &[],
    );
    request("heartbeat", Request::Heartbeat, &[]);
    request(
        "cluster-epoch/get",
        Request::ClusterEpoch(EpochRequest::Get),
        &[],
    );
    request(
        "cluster-epoch/set",
        Request::ClusterEpoch(EpochRequest::Set {
            epoch: 5,
            members: vec!["127.0.0.1:7181".into(), "127.0.0.1:7182".into()],
            replication: 2,
        }),
        &[],
    );

    let mut write = |label, kind: WriteKind, epoch, (schema, tuples): (Schema, Vec<Tuple>)| {
        let frame = encode_write("transcript", &kind, &schema, &tuples, epoch).unwrap();
        out.push(sample(label, Dir::Write, frame, &[(schema, tuples)]));
    };
    write(
        "write/register",
        WriteKind::Register,
        None,
        (strings(), titles()),
    );
    let shard = || WriteKind::Shard(at(2, 4, vec![0]));
    write("write/shard", shard(), Some(3), (schema2(), rows2()));
    write("write/shard/no-epoch", shard(), None, (schema2(), rows2()));
    let replica = WriteKind::Replica(at(1, 3, vec![0, 1]));
    write("write/replica", replica, Some(5), (schema2(), rows2()));
    let replica = WriteKind::Replica(at(0, 2, vec![]));
    write("write/replica/empty", replica, None, (schema2(), vec![]));

    let mut reply = |label, reply: Reply, sections: &[(Schema, Vec<Tuple>)]| {
        let frame = encode_response(&Ok(reply)).unwrap();
        out.push(sample(label, Dir::Reply, frame, sections));
    };
    reply("pong", Reply::Pong, &[]);
    reply("registered", Reply::Registered { version: 42 }, &[]);
    reply("dropped", Reply::Dropped, &[]);
    let divided = |profile| {
        Reply::Divided(DivideReply {
            algorithm: Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            cached: true,
            dividend_version: 3,
            divisor_version: 4,
            micros: 1234,
            ops: ops(1),
            schema: quotient(),
            tuples: Arc::new(vec![ints(&[7]), ints(&[9])]),
            profile,
        })
    };
    let quotient_rows = [(quotient(), vec![ints(&[7]), ints(&[9])])];
    reply("divided/bare", divided(None), &quotient_rows);
    reply("divided/profile", divided(Some(profile(1))), &quotient_rows);
    reply("stats", Reply::Stats(stats()), &[]);
    reply("shutting-down", Reply::ShuttingDown, &[]);
    reply("sharded", Reply::Sharded { version: 99 }, &[]);
    let buckets = [rows2(), vec![], vec![ints(&[3, 30])]];
    reply(
        "repartitioned",
        Reply::Repartitioned {
            schema: schema2(),
            buckets: (buckets.iter())
                .map(|b| Columns::from_tuples(schema2(), b).unwrap())
                .collect(),
            filtered: 12,
        },
        &[
            (schema2(), buckets[0].clone()),
            (schema2(), buckets[2].clone()),
        ],
    );
    let filter_reply = Reply::Filter {
        filter: filter(),
        insertions: 40,
    };
    reply("filter", filter_reply, &[]);
    let partial = |profile| {
        Reply::PartialQuotient(PartialQuotientReply {
            tag: 3,
            algorithm: Algorithm::SortAggregation { join: true },
            dividend_version: 11,
            divisor_version: 12,
            micros: 777,
            ops: ops(5),
            schema: quotient(),
            tuples: Columns::from_tuples(quotient(), &[ints(&[4])]).unwrap(),
            profile,
        })
    };
    let partial_rows = [(quotient(), vec![ints(&[4])])];
    reply("partial-quotient/bare", partial(None), &partial_rows);
    reply(
        "partial-quotient/profile",
        partial(Some(profile(1))),
        &partial_rows,
    );
    reply(
        "plan/bare",
        Reply::Plan(PlanReply {
            algorithms: vec![],
            cached: true,
            micros: 2,
            ops: OpSnapshot::default(),
            relations: vec![],
            schema: quotient(),
            tuples: Arc::new(vec![]),
            profile: None,
        }),
        &[],
    );
    reply(
        "plan/full",
        Reply::Plan(PlanReply {
            algorithms: ALGORITHMS.to_vec(),
            cached: false,
            micros: 4321,
            ops: ops(9),
            relations: vec![("courses".into(), 7), ("transcript".into(), 5)],
            schema: strings(),
            tuples: Arc::new(titles()),
            profile: Some(profile(1)),
        }),
        &[(strings(), titles())],
    );
    let heartbeat = |epoch, accepting| Reply::HeartbeatAck { epoch, accepting };
    reply("heartbeat-ack/accepting", heartbeat(7, true), &[]);
    reply("heartbeat-ack/draining", heartbeat(0, false), &[]);
    reply(
        "epoch",
        Reply::Epoch {
            epoch: 4,
            members: vec!["a:1".into(), "b:2".into(), "c:3".into()],
            replication: 2,
        },
        &[],
    );
    reply(
        "replica-ack",
        Reply::ReplicaAck {
            version: 12,
            fragment: 3,
        },
        &[],
    );

    let errors = [
        ("error/overloaded", ServiceError::Overloaded),
        ("error/shutting-down", ServiceError::ShuttingDown),
        (
            "error/unknown-relation",
            ServiceError::UnknownRelation("x".into()),
        ),
        ("error/bad-request", ServiceError::BadRequest("spec".into())),
        ("error/exec", ServiceError::Exec("disk".into())),
        ("error/protocol", ServiceError::Protocol("frame".into())),
        ("error/internal", ServiceError::Internal("panic".into())),
        ("error/deadline", ServiceError::DeadlineExceeded),
        (
            "error/stale-epoch",
            ServiceError::StaleEpoch("1 < 4".into()),
        ),
    ];
    for (label, error) in errors {
        out.push(sample(
            label,
            Dir::Reply,
            encode_response(&Err(error)).unwrap(),
            &[],
        ));
    }
    out
}

/// Finds each section's records in `frame`, in order.
fn sample(
    label: &'static str,
    dir: Dir,
    frame: Vec<u8>,
    sections: &[(Schema, Vec<Tuple>)],
) -> Sample {
    let mut records = Vec::new();
    let mut from = 0;
    for (schema, tuples) in sections {
        let codec = RecordCodec::new(schema.clone());
        let mut bytes = Vec::new();
        for t in tuples {
            codec.encode_into(t, &mut bytes).unwrap();
        }
        if bytes.is_empty() {
            continue;
        }
        let start = from
            + frame[from..]
                .windows(bytes.len())
                .position(|w| w == bytes)
                .unwrap_or_else(|| panic!("{label}: records not in the frame"));
        records.push(start..start + bytes.len());
        from = start + bytes.len();
    }
    Sample {
        label,
        dir,
        frame,
        records,
    }
}
