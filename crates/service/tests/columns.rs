//! Both homes, one answer: a catalog relation lives as shared columns,
//! and a worker scans them in place when the relation fits its buffer
//! pool or spools them to a record file when it does not. Which of the
//! two a query met must be invisible in its reply.
//!
//! One seeded workload — duplicates, noise tuples, incomplete groups, a
//! string divisor column — is registered in a default-storage service
//! and in one whose pool is smaller than either dividend. Every reply of
//! either, in-process and over TCP, must be the `plan::reference`
//! oracle's relation, tuple for tuple the same in both services.
//!
//! Assumptions the suite relies on: plan text cannot spell a memory
//! budget, so the budget axis runs on `Divide` requests (leaf scans);
//! the no-join aggregations and `CounterOnly` are exact only on
//! duplicate-free, referentially intact inputs, so they run on the
//! workload's clean twin.

mod common;

use std::io::Write;
use std::sync::Arc;

use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_plan::{bind, canonical_bytes, evaluate, parse, AlgorithmHint, MemCatalog};
use reldiv_rel::schema::Field;
use reldiv_rel::{Relation, Schema, Tuple, Value};
use reldiv_service::proto::{self, Request};
use reldiv_service::{
    DivideRequest, DivisionClient, ExecPlanRequest, InProcClient, ServerHandle, Service,
    ServiceConfig, ServiceError, TcpClient,
};
use reldiv_storage::manager::StorageConfig;
use reldiv_workload::WorkloadSpec;

use common::request;

/// Every algorithm a request can name, with whether it needs the clean
/// inputs (and, for `CounterOnly`, the `unique` declaration).
const ALGORITHMS: [(Algorithm, bool); 8] = [
    (Algorithm::Naive, false),
    (Algorithm::SortAggregation { join: false }, true),
    (Algorithm::SortAggregation { join: true }, false),
    (Algorithm::HashAggregation { join: false }, true),
    (Algorithm::HashAggregation { join: true }, false),
    (
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        false,
    ),
    (
        Algorithm::HashDivision {
            mode: HashDivisionMode::EarlyOut,
        },
        false,
    ),
    (
        Algorithm::HashDivision {
            mode: HashDivisionMode::CounterOnly,
        },
        true,
    ),
];

/// The generator's `(quotient-id, divisor-id)` pair with the divisor
/// attribute as a string column `course`.
fn with_course(relation: &Relation, column: usize) -> Relation {
    let mut fields = relation.schema().fields().to_vec();
    fields[column] = Field::str("course", 10);
    let tuples = relation.tuples().iter().map(|t| {
        let mut values = t.values().to_vec();
        values[column] = Value::Str(format!("c{}", values[column].as_int().unwrap()));
        Tuple::new(values)
    });
    Relation::from_tuples(Schema::new(fields), tuples.collect()).unwrap()
}

/// `r ÷ s` with duplicates on both sides and noise tuples; `rc ÷ sc`
/// duplicate-free and referentially intact. Both have incomplete groups,
/// and both dividends exceed the small home's 16 KB pool.
fn relations() -> Vec<(&'static str, Relation)> {
    let dirty = WorkloadSpec {
        divisor_size: 8,
        quotient_size: 90,
        incomplete_groups: 40,
        incomplete_fill: 0.5,
        noise_per_group: 2,
        dividend_copies: 2,
        divisor_copies: 2,
    };
    let clean = WorkloadSpec {
        quotient_size: 160,
        noise_per_group: 0,
        dividend_copies: 1,
        divisor_copies: 1,
        ..dirty
    };
    let (dirty, clean) = (dirty.generate(1989), clean.generate(2026));
    vec![
        ("r", with_course(&dirty.dividend, 1)),
        ("s", with_course(&dirty.divisor, 0)),
        ("rc", with_course(&clean.dividend, 1)),
        ("sc", with_course(&clean.divisor, 0)),
    ]
}

fn catalog() -> MemCatalog {
    let mut catalog = MemCatalog::new();
    for (name, relation) in relations() {
        catalog.insert(name, relation);
    }
    catalog
}

fn oracle(text: &str) -> Vec<Vec<u8>> {
    let catalog = catalog();
    let bound = bind(&parse(text).unwrap(), &catalog).unwrap();
    canonical_bytes(&evaluate(&bound, &catalog).unwrap())
}

fn reply_bytes(schema: &Schema, tuples: &[Tuple]) -> Vec<Vec<u8>> {
    canonical_bytes(&Relation::from_tuples(schema.clone(), tuples.to_vec()).unwrap())
}

/// Storage whose 16 KB pool holds neither dividend (26 KB and more of
/// 18-byte records) but both divisors.
fn small_pool() -> StorageConfig {
    StorageConfig {
        data_page_size: 1024,
        run_page_size: 1024,
        buffer_bytes: 16 * 1024,
        work_memory_bytes: 1 << 20,
    }
}

/// One home: a single-worker service without a result cache (every
/// request executes), its TCP front end, and the relations registered.
struct Home {
    service: Arc<Service>,
    server: ServerHandle,
}

impl Home {
    fn start(storage: StorageConfig) -> Home {
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            storage,
            ..ServiceConfig::default()
        })
        .unwrap();
        let server = ServerHandle::start(service.clone(), "127.0.0.1:0").unwrap();
        let home = Home { service, server };
        // Half the relations arrive over each transport.
        let (mut inproc, mut tcp) = home.clients();
        for (i, (name, relation)) in relations().iter().enumerate() {
            let client: &mut dyn DivisionClient = if i % 2 == 0 { &mut inproc } else { &mut tcp };
            client.register(name, relation).unwrap();
        }
        home
    }

    fn clients(&self) -> (InProcClient, TcpClient) {
        let tcp = TcpClient::connect(self.server.local_addr()).unwrap();
        (InProcClient::new(self.service.clone()), tcp)
    }
}

/// Sends `send` to both homes over both transports; the four replies
/// must hold the same tuples in the same order, and the oracle's bag.
fn check_everywhere(
    homes: &[Home; 2],
    case: &str,
    oracle: &[Vec<u8>],
    send: impl Fn(&mut dyn DivisionClient) -> (Schema, Arc<Vec<Tuple>>),
) {
    let mut first: Option<Arc<Vec<Tuple>>> = None;
    for home in homes {
        let (mut inproc, mut tcp) = home.clients();
        for client in [&mut inproc as &mut dyn DivisionClient, &mut tcp] {
            let (schema, tuples) = send(client);
            assert_eq!(reply_bytes(&schema, &tuples), oracle, "{case}: oracle");
            let first = first.get_or_insert_with(|| tuples.clone());
            assert_eq!(first, &tuples, "{case}: byte-identical in both homes");
        }
    }
}

#[test]
fn every_algorithm_and_input_shape_answers_the_same_from_columns_and_from_files() {
    let homes = [
        Home::start(StorageConfig::large()),
        Home::start(small_pool()),
    ];
    let algorithms = std::iter::once((None, false)).chain(ALGORITHMS.map(|(a, c)| (Some(a), c)));
    for (algorithm, clean) in algorithms {
        let (r, s) = if clean { ("rc", "sc") } else { ("r", "s") };
        let hint = algorithm.map_or(String::new(), |a| {
            format!("(algorithm {})", AlgorithmHint::from(a).token())
        });
        let unique = if clean { "(unique yes)" } else { "" };
        let hints = format!("{hint} {unique}");

        // Leaf scans, as the `Divide` request that spells this plan —
        // without a budget and with one under which hash-division must
        // spill and every sort (97 rows of sort space) must go external.
        let text = format!("(divide (on #1) (quotient #0) {hints} (scan {r}) (scan {s}))");
        let want = oracle(&text);
        for mem_budget in [None, Some(4 * 1024)] {
            let divide = DivideRequest {
                algorithm,
                assume_unique: clean,
                mem_budget,
                ..request(r, s)
            };
            let case = format!("{algorithm:?} leaf scans, budget {mem_budget:?}");
            check_everywhere(&homes, &case, &want, |client| {
                let reply = client.divide(&divide).unwrap();
                (reply.schema, reply.tuples)
            });
        }

        // Non-leaf inputs: materialized into columns in either home.
        let shapes = [
            format!(
                "(divide (on course) {hints} (filter (>= quotient-id 20) (scan {r})) (scan {s}))"
            ),
            format!(
                "(divide (on course) {hints} (project (course quotient-id) (scan {r})) \
                   (project (course) (scan {s})))"
            ),
            format!(
                "(divide (on course) {hints} \
                   (project (quotient-id course) (join (on (quotient-id quotient-id)) \
                     (scan {r}) (divide (on course) (scan {r}) (scan {s})))) \
                   (scan {s}))"
            ),
        ];
        for text in shapes {
            let want = oracle(&text);
            let plan = ExecPlanRequest {
                plan: text.clone(),
                deadline_ms: None,
                profile: false,
            };
            check_everywhere(&homes, &format!("{algorithm:?} {text}"), &want, |client| {
                let reply = client.exec_plan(&plan).unwrap();
                (reply.schema, reply.tuples)
            });
        }
    }
    for home in &homes {
        assert!(
            home.service.stats().degraded_queries > 0,
            "the 4 KB budget must make hash-division spill"
        );
    }
}

/// The whole-plan span of a profiled `(scan r) ÷ (scan s)`.
fn profiled_miss(service: &Service) -> reldiv_core::ProfileNode {
    let plan = ExecPlanRequest {
        plan: "(divide (on course) (algorithm hash-div) (scan r) (scan s))".into(),
        deadline_ms: None,
        profile: true,
    };
    service.exec_plan(&plan).unwrap().profile.unwrap().root
}

#[test]
fn a_relation_touches_the_disk_only_in_the_home_it_does_not_fit() {
    let [fits, small] = [
        Home::start(StorageConfig::large()),
        Home::start(small_pool()),
    ];
    // Where everything fits, a miss writes no record file and reads no
    // page: the worker's storage manager transfers nothing at all.
    for _ in 0..2 {
        let root = profiled_miss(&fits.service);
        assert_eq!((root.pages_read, root.pages_written), (0, 0));
    }
    // Where the dividend exceeds the pool, the first miss spools it to
    // the worker's record file (evicting as it goes) and every miss
    // scans that file through the pool.
    let first = profiled_miss(&small.service);
    assert!(first.pages_written > 0, "{first:?}");
    let second = profiled_miss(&small.service);
    assert!(second.pages_read > 0, "{second:?}");
    assert_eq!(second.pages_written, 0, "the file is written once");
}

/// Storage short of memory as well: four 1 KB frames and 4 KB of work
/// memory — under 100 rows of sort space, and a group table of about as
/// many groups.
fn tight_memory() -> StorageConfig {
    StorageConfig {
        buffer_bytes: 4 * 1024,
        work_memory_bytes: 4 * 1024,
        ..small_pool()
    }
}

/// Pages `(read, written)` under the spans of `kind` in a profile.
fn pages_under(node: &reldiv_core::ProfileNode, kind: reldiv_core::SpanKind) -> (u64, u64) {
    if node.kind == kind {
        return (node.pages_read, node.pages_written);
    }
    node.children
        .iter()
        .map(|c| pages_under(c, kind))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

#[test]
fn sorts_and_aggregates_go_to_disk_only_where_their_memory_is_short() {
    use reldiv_core::SpanKind;
    let [fits, small, tight] = [
        Home::start(StorageConfig::large()),
        Home::start(small_pool()),
        Home::start(tight_memory()),
    ];
    let profiled = |home: &Home, request: &DivideRequest, want: &[Vec<u8>]| {
        let reply = home.service.divide(request).unwrap();
        assert_eq!(
            reply_bytes(&reply.schema, &reply.tuples),
            want,
            "{request:?}"
        );
        reply.profile.expect("a profiled miss").root
    };

    // Naive division is two sorts. Its sort space is the configuration's
    // work memory within the request's budget: where the dividend fits
    // it, no run is written and no page moves; where it does not, the
    // sorts spool runs through the pool.
    let want = oracle("(divide (on #1) (quotient #0) (algorithm naive) (scan r) (scan s))");
    let naive = |mem_budget| DivideRequest {
        algorithm: Some(Algorithm::Naive),
        profile: true,
        mem_budget,
        ..request("r", "s")
    };
    let root = profiled(&fits, &naive(None), &want);
    assert_eq!(pages_under(&root, SpanKind::Sort), (0, 0), "{root:?}");
    for (home, mem_budget) in [(&small, Some(4 * 1024)), (&tight, None)] {
        let root = profiled(home, &naive(mem_budget), &want);
        let (read, written) = pages_under(&root, SpanKind::Sort);
        assert!(read > 0 && written > 0, "run pages: {root:?}");
    }

    // Hash aggregation's group table draws on the work memory itself:
    // 200 groups do not fit 4 KB, so the count spills to cluster files
    // (which four frames cannot hold) and still counts right.
    let text = "(divide (on #1) (quotient #0) (algorithm hash-agg) (unique yes) \
                  (scan rc) (scan sc))";
    let hash_agg = DivideRequest {
        algorithm: Some(Algorithm::HashAggregation { join: false }),
        assume_unique: true,
        profile: true,
        ..request("rc", "sc")
    };
    let root = profiled(&fits, &hash_agg, &oracle(text));
    assert_eq!(pages_under(&root, SpanKind::Aggregation), (0, 0));
    let root = profiled(&tight, &hash_agg, &oracle(text));
    assert!(pages_under(&root, SpanKind::Aggregation).1 > 0, "{root:?}");
    // So does a plan's `group-count`, on the same operator.
    let text = "(having-count >= 3 (group-count (quotient-id) (scan rc)))";
    let plan = ExecPlanRequest {
        plan: text.into(),
        deadline_ms: None,
        profile: true,
    };
    for (home, spills) in [(&fits, false), (&tight, true)] {
        let reply = home.service.exec_plan(&plan).unwrap();
        assert_eq!(reply_bytes(&reply.schema, &reply.tuples), oracle(text));
        let root = reply.profile.unwrap().root;
        let written = pages_under(&root, SpanKind::Aggregation).1;
        assert_eq!(written > 0, spills, "{root:?}");
    }
}

#[test]
fn an_unrepresentable_relation_is_refused_at_register_and_changes_nothing() {
    let service = Service::start_default().unwrap();
    let server = ServerHandle::start(service.clone(), "127.0.0.1:0").unwrap();
    let mut inproc = InProcClient::new(service.clone());
    for (name, relation) in relations() {
        inproc.register(name, &relation).unwrap();
    }
    let before = inproc.divide(&request("r", "s")).unwrap();
    let listed = service.list_relations();

    // In process: a string the fixed-width codec cannot hold.
    let schema = Schema::new(vec![Field::int("quotient-id"), Field::str("course", 10)]);
    let nul = Tuple::new(vec![Value::Int(1), Value::from("a\0b")]);
    let bad = Relation::from_tuples(schema.clone(), vec![nul]).unwrap();
    let err = inproc.register("r", &bad).unwrap_err();
    assert!(matches!(err, ServiceError::BadRequest(_)), "{err}");

    // Over the wire: a record whose string field is not UTF-8.
    let good = Tuple::new(vec![Value::Int(1), Value::from("ok")]);
    let mut frame = Request::Register {
        name: "r".into(),
        schema,
        tuples: vec![good],
    }
    .encode()
    .unwrap();
    let at = frame.len() - 10;
    frame[at] = 0xFF;
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    proto::write_frame(&mut stream, &frame).unwrap();
    stream.flush().unwrap();
    let reply = proto::read_frame(&mut stream).unwrap().unwrap();
    let err = proto::decode_response(&reply).unwrap().unwrap_err();
    assert!(matches!(err, ServiceError::Protocol(_)), "{err}");

    // Same versions, same cardinalities, and the cached quotient still
    // serves: neither refusal installed or invalidated anything.
    assert_eq!(service.list_relations(), listed);
    assert_eq!(service.cache_len(), 1);
    let after = inproc.divide(&request("r", "s")).unwrap();
    assert!(after.cached);
    assert_eq!(after.tuples, before.tuples);
}

#[test]
fn a_query_pinned_before_a_re_register_answers_from_the_old_version() {
    for storage in [StorageConfig::large(), small_pool()] {
        let home = Home::start(storage);
        let service = &home.service;
        let old = oracle("(divide (on course) (scan r) (scan s))");
        let admitted = || service.stats().cache_misses;
        let wait_for = |misses: u64| {
            while admitted() < misses {
                std::thread::yield_now();
            }
        };
        let base = admitted();
        let reply = std::thread::scope(|scope| {
            // The one worker is busy with `rc ÷ sc` (or just done) …
            scope.spawn(|| service.divide(&request("rc", "sc")).unwrap());
            wait_for(base + 1);
            // … when `r ÷ s` is admitted: pinned to the versions the
            // catalog holds now, then queued.
            let pinned = scope.spawn(|| service.divide(&request("r", "s")).unwrap());
            wait_for(base + 2);
            // `r` is replaced by the clean dividend's rows: another
            // quotient under the same name.
            let (_, replacement) = relations().swap_remove(2);
            service.register("r", replacement).unwrap();
            pinned.join().unwrap()
        });
        assert_eq!(reply_bytes(&reply.schema, &reply.tuples), old);
        let now = service.divide(&request("r", "s")).unwrap();
        assert!(now.dividend_version > reply.dividend_version);
        assert_ne!(reply_bytes(&now.schema, &now.tuples), old);
    }
}
