//! One query path: a `Divide` request is the one-operator plan it
//! spells, so its `Divided` reply, the `Plan` reply for that plan's text,
//! and the brute-force oracle all agree — and share one cache. The
//! `distribute` branch, the one place a `Divide` leaves the plan engine,
//! is checked against the same oracle.

mod common;

use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_parallel::{Distribution, Strategy};
use reldiv_plan::AlgorithmHint;
use reldiv_rel::tuple::ints;
use reldiv_rel::{Field, Relation, Schema, Tuple};
use reldiv_service::proto::{self, MAX_CLUSTER_NODES};
use reldiv_service::{
    DivideRequest, DivisionClient, ExecPlanRequest, InProcClient, ServerHandle, Service,
    ServiceConfig, ServiceError, TcpClient,
};
use reldiv_workload::{brute_force_divide, WorkloadSpec};

use common::request;

/// Every algorithm a request can name.
const ALGORITHMS: [Algorithm; 8] = [
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

/// `r(quotient-id, divisor-id)` and `s(divisor-id)`: duplicate-free and
/// referentially intact, so every algorithm — the no-join aggregations
/// and `assume_unique` included — is exact on it; some groups incomplete.
fn workload() -> (Relation, Relation) {
    let w = WorkloadSpec {
        divisor_size: 6,
        quotient_size: 12,
        incomplete_groups: 9,
        incomplete_fill: 0.5,
        ..WorkloadSpec::default()
    }
    .generate(1989);
    (w.dividend, w.divisor)
}

/// `relation` with its two columns swapped.
fn swapped(relation: &Relation) -> Relation {
    let schema = relation.schema().project(&[1, 0]).unwrap();
    let tuples = relation.tuples().iter().map(|t| t.project(&[1, 0]));
    Relation::from_tuples(schema, tuples.collect()).unwrap()
}

/// Registers `r`, its column-swapped twin `r_swapped`, and `s`; returns
/// the oracle's quotient of `r ÷ s`.
fn register(client: &mut impl DivisionClient) -> Vec<Vec<u8>> {
    let (dividend, divisor) = workload();
    client.register("r", &dividend).unwrap();
    client.register("r_swapped", &swapped(&dividend)).unwrap();
    client.register("s", &divisor).unwrap();
    let quotient = brute_force_divide(&dividend, &divisor, &[1], &[0]);
    canonical_bytes(&dividend.schema().project(&[0]).unwrap(), &quotient)
}

fn canonical_bytes(schema: &Schema, tuples: &[Tuple]) -> Vec<Vec<u8>> {
    reldiv_plan::canonical_bytes(&Relation::from_tuples(schema.clone(), tuples.to_vec()).unwrap())
}

/// The three ways a request names its columns: not at all, the trailing
/// convention spelled out, and a non-trailing spec that makes `bind`
/// normalise the dividend through a projection. Each `(on, quotient)`
/// with the dividend it applies to.
const SPECS: [(&str, Option<(usize, usize)>); 3] = [
    ("r", None),
    ("r", Some((1, 0))),
    ("r_swapped", Some((0, 1))),
];

fn check_contract(client: &mut impl DivisionClient) {
    let oracle = register(client);
    // Plan texts sent so far: `spec: None` and the trailing convention
    // spelled out are one plan, hence one cache entry.
    let mut sent = std::collections::HashSet::new();
    let algorithms = std::iter::once(None).chain(ALGORITHMS.map(Some));
    for algorithm in algorithms {
        for (dividend, spec) in SPECS {
            let (on, quotient) = spec.unwrap_or((1, 0));
            for assume_unique in [false, true] {
                let counter_only = Algorithm::HashDivision {
                    mode: HashDivisionMode::CounterOnly,
                };
                if algorithm == Some(counter_only) && !assume_unique {
                    continue; // refused: see `refusals_keep_their_error_codes`
                }
                let case = format!("{algorithm:?} on {dividend} {spec:?} unique={assume_unique}");
                let divide = DivideRequest {
                    algorithm,
                    assume_unique,
                    spec: spec.map(|(on, quotient)| (vec![on], vec![quotient])),
                    ..request(dividend, "s")
                };
                // The plan the request spells, as text.
                let hint = algorithm.map_or(String::new(), |a| {
                    format!(" (algorithm {})", AlgorithmHint::from(a).token())
                });
                let unique = if assume_unique { "yes" } else { "no" };
                let text = format!(
                    "(divide (on #{on}) (quotient #{quotient}){hint} (unique {unique}) \
                       (scan {dividend}) (scan s))"
                );

                let divided = client.divide(&divide).unwrap();
                assert_eq!(divided.cached, !sent.insert(text.clone()), "{case}");
                if let Some(algorithm) = algorithm {
                    assert_eq!(divided.algorithm, algorithm, "{case}");
                }
                assert_eq!(
                    canonical_bytes(&divided.schema, &divided.tuples),
                    oracle,
                    "{case}"
                );

                // Sent as a plan, the text hits the entry the `Divide`
                // installed.
                let plan = client
                    .exec_plan(&ExecPlanRequest {
                        plan: text,
                        deadline_ms: None,
                        profile: false,
                    })
                    .unwrap();
                assert!(plan.cached, "{case}: one cache for both request kinds");
                assert_eq!(plan.algorithms, vec![divided.algorithm], "{case}");
                assert_eq!(plan.schema, divided.schema, "{case}");
                assert_eq!(plan.tuples, divided.tuples, "{case}");
                let pin = |name: &str| plan.relations.iter().find(|(n, _)| n == name).unwrap().1;
                assert_eq!(divided.dividend_version, pin(dividend), "{case}");
                assert_eq!(divided.divisor_version, pin("s"), "{case}");

                let again = client.divide(&divide).unwrap();
                assert!(again.cached, "{case}");
                assert_eq!(again.algorithm, divided.algorithm, "{case}");
                assert_eq!(again.tuples, divided.tuples, "{case}");
            }
        }
    }
}

#[test]
fn a_divide_reply_is_its_plans_reply_is_the_oracle_in_process() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    check_contract(&mut InProcClient::new(service.clone()));
    service.shutdown();
}

#[test]
fn a_divide_reply_is_its_plans_reply_is_the_oracle_over_tcp() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let mut server = ServerHandle::start(service, "127.0.0.1:0").unwrap();
    check_contract(&mut TcpClient::connect(server.local_addr()).unwrap());
    server.shutdown();
}

#[test]
fn refusals_keep_their_error_codes() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    register(&mut InProcClient::new(service.clone()));

    let counter_only = DivideRequest {
        algorithm: Some(Algorithm::HashDivision {
            mode: HashDivisionMode::CounterOnly,
        }),
        ..request("r", "s")
    };
    assert!(matches!(
        service.divide(&counter_only),
        Err(ServiceError::BadRequest(_))
    ));
    // A spec the dividend cannot satisfy is the request's fault too.
    let bad_spec = DivideRequest {
        spec: Some((vec![1], vec![7])),
        ..request("r", "s")
    };
    assert!(matches!(
        service.divide(&bad_spec),
        Err(ServiceError::BadRequest(_))
    ));
    for (dividend, divisor) in [("nope", "s"), ("r", "nope")] {
        assert_eq!(
            service.divide(&request(dividend, divisor)).unwrap_err(),
            ServiceError::UnknownRelation("nope".into())
        );
    }

    // A deadline that is dead on arrival is refused before the cache is
    // consulted, even when the answer is sitting in it.
    service.divide(&request("r", "s")).unwrap();
    let before = service.stats();
    let expired = DivideRequest {
        deadline_ms: Some(0),
        ..request("r", "s")
    };
    assert_eq!(
        service.divide(&expired).unwrap_err(),
        ServiceError::DeadlineExceeded
    );
    let after = service.stats();
    assert_eq!(after.timeouts, before.timeouts + 1);
    assert_eq!(
        (after.cache_hits, after.cache_misses),
        (before.cache_hits, before.cache_misses)
    );
    service.shutdown();
}

// ---------------------------------------------------------------------
// `distribute`: the in-process parallel machine behind a `Divide`.
// ---------------------------------------------------------------------

fn check_distributed(client: &mut impl DivisionClient) {
    let oracle = register(client);
    for strategy in [
        Strategy::QuotientPartitioning,
        Strategy::DivisorPartitioning,
    ] {
        for bit_vector_bits in [None, Some(4096)] {
            // Over the trailing convention and over a spec that needs the
            // dividend normalised first.
            for (dividend, spec) in [("r", None), ("r_swapped", Some((vec![0], vec![1])))] {
                let distributed = DivideRequest {
                    spec,
                    profile: true,
                    distribute: Some(Distribution {
                        strategy,
                        nodes: 3,
                        bit_vector_bits,
                    }),
                    ..request(dividend, "s")
                };
                let case = format!("{strategy:?} bits={bit_vector_bits:?} on {dividend}");
                let reply = client.divide(&distributed).unwrap();
                assert!(!reply.cached, "{case}");
                assert_eq!(
                    reply.algorithm,
                    Algorithm::HashDivision {
                        mode: HashDivisionMode::Standard
                    },
                    "{case}: the machine runs hash division"
                );
                assert_eq!(
                    canonical_bytes(&reply.schema, &reply.tuples),
                    oracle,
                    "{case}"
                );
                let profile = reply
                    .profile
                    .expect("a profiled run carries the machine's tree");
                assert!(
                    profile
                        .root
                        .label
                        .starts_with("parallel division (3 nodes)"),
                    "{case}: {}",
                    profile.root.label
                );
                // A new dividend version per case, so each one executes.
                let (fresh, _) = workload();
                let fresh = if dividend == "r" {
                    fresh
                } else {
                    swapped(&fresh)
                };
                client.register(dividend, &fresh).unwrap();
            }
        }
    }

    // The machine implements hash division only.
    let conflicting = DivideRequest {
        algorithm: Some(Algorithm::Naive),
        distribute: Some(Distribution {
            strategy: Strategy::QuotientPartitioning,
            nodes: 2,
            bit_vector_bits: None,
        }),
        ..request("r", "s")
    };
    assert!(matches!(
        client.divide(&conflicting),
        Err(ServiceError::BadRequest(_))
    ));
}

#[test]
fn distributed_divides_match_the_oracle_in_process() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    check_distributed(&mut InProcClient::new(service.clone()));

    // Node counts the wire codec would already refuse to encode.
    for nodes in [0, MAX_CLUSTER_NODES + 1] {
        let request = DivideRequest {
            distribute: Some(Distribution {
                strategy: Strategy::DivisorPartitioning,
                nodes,
                bit_vector_bits: None,
            }),
            ..request("r", "s")
        };
        assert!(
            matches!(service.divide(&request), Err(ServiceError::BadRequest(_))),
            "{nodes} nodes"
        );
    }
    service.shutdown();
}

#[test]
fn distributed_divides_match_the_oracle_over_tcp() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let mut server = ServerHandle::start(service, "127.0.0.1:0").unwrap();
    check_distributed(&mut TcpClient::connect(server.local_addr()).unwrap());
    server.shutdown();
}

/// A deadline of zero milliseconds has expired on arrival: the query is
/// refused the same way in process and over TCP, although the wire reads
/// a zero deadline as none (the encoder refuses to send it).
#[test]
fn an_expired_deadline_is_refused_alike_in_process_and_over_tcp() {
    let relation = |names: &[&str], rows: &[&[i64]]| {
        let schema = Schema::new(names.iter().map(|&n| Field::int(n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    };
    let dividend = relation(&["q", "d"], &[&[1, 7], &[1, 8], &[2, 7]]);
    let divisor = relation(&["d"], &[&[7], &[8]]);
    let config = ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let service = Service::start(config).unwrap();
    let mut server = ServerHandle::start(service.clone(), "127.0.0.1:0").unwrap();
    let mut tcp = TcpClient::connect(server.local_addr()).unwrap();
    let mut inproc = InProcClient::new(service);
    let expired = DivideRequest {
        deadline_ms: Some(0),
        ..request("r", "s")
    };
    let plan = ExecPlanRequest {
        plan: "(divide (on d) (scan r) (scan s))".into(),
        deadline_ms: Some(0),
        profile: false,
    };
    let clients: [&mut dyn DivisionClient; 2] = [&mut inproc, &mut tcp];
    for client in clients {
        client.register("r", &dividend).unwrap();
        client.register("s", &divisor).unwrap();
        let live = client.divide(&request("r", "s")).unwrap();
        assert_eq!(live.tuples.as_slice(), [ints(&[1])]);
        assert_eq!(
            client.divide(&expired).unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        assert_eq!(
            client.exec_plan(&plan).unwrap_err(),
            ServiceError::DeadlineExceeded
        );
    }
    server.shutdown();
}

/// A failed request fails alike in process and over TCP: an error frame
/// carries the error's own message, so the client rebuilds the very value
/// the service raised. Checked on errors a real service raises for a
/// request, then for every variant through a server that answers every
/// request with that one error.
#[test]
fn errors_are_the_same_in_process_and_over_tcp() {
    let config = ServiceConfig {
        fail_point_relation: Some("boom".into()),
        ..ServiceConfig::default()
    };
    let service = Service::start(config).unwrap();
    let mut server = ServerHandle::start(service.clone(), "127.0.0.1:0").unwrap();
    let mut tcp = TcpClient::connect(server.local_addr()).unwrap();
    let mut inproc = InProcClient::new(service.clone());
    let (r, s) = workload();
    for (name, relation) in [("r", &r), ("s", &s), ("boom", &s)] {
        inproc.register(name, relation).unwrap();
    }
    let conflicting = DivideRequest {
        algorithm: Some(Algorithm::Naive),
        distribute: Some(Distribution {
            strategy: Strategy::QuotientPartitioning,
            nodes: 2,
            bit_vector_bits: None,
        }),
        ..request("r", "s")
    };
    let raised = [request("missing", "s"), conflicting, request("r", "boom")];
    let errors: Vec<ServiceError> = raised
        .iter()
        .map(|query| {
            let here = inproc.divide(query).unwrap_err();
            assert_eq!(tcp.divide(query).unwrap_err(), here, "{query:?}");
            here
        })
        .collect();
    assert_eq!(errors[0], ServiceError::UnknownRelation("missing".into()));
    assert!(
        matches!(errors[1], ServiceError::BadRequest(_)),
        "{errors:?}"
    );
    assert!(matches!(errors[2], ServiceError::Internal(_)), "{errors:?}");
    server.shutdown();

    let every = [
        ServiceError::Overloaded,
        ServiceError::ShuttingDown,
        ServiceError::UnknownRelation("r".into()),
        ServiceError::BadRequest("spec".into()),
        ServiceError::Exec("disk".into()),
        ServiceError::Protocol("frame".into()),
        ServiceError::Internal("panic".into()),
        ServiceError::DeadlineExceeded,
        ServiceError::StaleEpoch("1 < 4".into()),
    ];
    for error in every {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = proto::encode_response(&Err(error.clone())).unwrap();
        let answer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            proto::read_frame(&mut stream).unwrap();
            proto::write_frame(&mut stream, &frame).unwrap();
        });
        let got = TcpClient::connect(addr).unwrap().divide(&request("r", "s"));
        answer.join().unwrap();
        assert_eq!(got.unwrap_err(), error);
    }
}
