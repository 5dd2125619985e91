//! Composed plans through the service: `Service::exec_plan` end to end
//! (in-process and over TCP), the plan cache, whole-plan profiling, and
//! the restricted-divisor gate — client assertions and plan hints are
//! honored only while no storage fault injection is active.
//!
//! Every result is checked against `reldiv-plan`'s brute-force reference
//! interpreter, byte for byte.

mod common;

use reldiv_core::Algorithm;
use reldiv_plan::{bind, canonical_bytes, evaluate, parse, MemCatalog};
use reldiv_rel::schema::Field;
use reldiv_rel::tuple::ints;
use reldiv_rel::{Relation, Schema, Tuple, Value};
use reldiv_service::{
    DivideRequest, DivisionClient, ExecPlanRequest, ServerHandle, Service, ServiceConfig,
    ServiceError, TcpClient,
};
use reldiv_storage::FaultPlan;

/// The paper's schema: who took what, and what the courses are called.
fn transcript() -> Relation {
    Relation::from_tuples(
        Schema::new(vec![Field::int("student-id"), Field::int("course-no")]),
        vec![
            ints(&[1, 10]),
            ints(&[1, 11]),
            ints(&[1, 12]),
            ints(&[2, 10]),
            ints(&[2, 12]),
            ints(&[3, 11]),
        ],
    )
    .unwrap()
}

fn courses() -> Relation {
    Relation::from_tuples(
        Schema::new(vec![Field::int("course-no"), Field::str("title", 24)]),
        vec![
            Tuple::new(vec![Value::Int(10), Value::Str("Database Systems".into())]),
            Tuple::new(vec![Value::Int(11), Value::Str("Compilers".into())]),
            Tuple::new(vec![Value::Int(12), Value::Str("Database Theory".into())]),
        ],
    )
    .unwrap()
}

const MOTIVATING: &str = "(divide (on course-no) \
     (scan transcript) \
     (project (course-no) \
       (filter (contains title \"database\") (scan courses))))";

/// Filter + join + division + HAVING COUNT in one plan: students who
/// took all database courses, joined back to their transcripts, kept if
/// they appear at least twice.
const COMPOSED: &str = "(having-count >= 2 \
     (group-count (student-id) \
       (join (on (student-id student-id)) \
         (divide (on course-no) \
           (scan transcript) \
           (project (course-no) \
             (filter (contains title \"database\") (scan courses)))) \
         (scan transcript))))";

/// What the reference interpreter says `text` produces over the same
/// relations the service holds.
fn oracle_bytes(text: &str) -> Vec<Vec<u8>> {
    let mut catalog = MemCatalog::new();
    catalog.insert("transcript", transcript());
    catalog.insert("courses", courses());
    let bound = bind(&parse(text).unwrap(), &catalog).unwrap();
    canonical_bytes(&evaluate(&bound, &catalog).unwrap())
}

fn plan(text: &str) -> ExecPlanRequest {
    ExecPlanRequest {
        plan: text.to_owned(),
        deadline_ms: None,
        profile: false,
    }
}

fn response_bytes(schema: &Schema, tuples: &[Tuple]) -> Vec<Vec<u8>> {
    canonical_bytes(&Relation::from_tuples(schema.clone(), tuples.to_vec()).unwrap())
}

/// A running service with the course relations, plus the catalog
/// versions `register` assigned to (transcript, courses).
fn course_service() -> (std::sync::Arc<Service>, u64, u64) {
    let service = Service::start(ServiceConfig::default()).expect("start service");
    let tv = service.register("transcript", transcript()).unwrap();
    let cv = service.register("courses", courses()).unwrap();
    (service, tv, cv)
}

#[test]
fn motivating_plan_matches_the_reference_oracle() {
    let (service, tv, cv) = course_service();
    let response = service.exec_plan(&plan(MOTIVATING)).expect("plan executes");
    assert!(!response.cached);
    assert_eq!(response.algorithms.len(), 1, "one division in the plan");
    assert_eq!(
        response.relations,
        vec![("courses".to_owned(), cv), ("transcript".to_owned(), tv)],
        "pins are sorted by name and carry catalog versions"
    );
    assert_eq!(
        response_bytes(&response.schema, &response.tuples),
        oracle_bytes(MOTIVATING)
    );
    assert!(!response.tuples.is_empty(), "students 1 and 2 qualify");
    service.shutdown();
}

#[test]
fn composed_plan_matches_the_reference_oracle() {
    let (service, _, _) = course_service();
    let response = service.exec_plan(&plan(COMPOSED)).expect("plan executes");
    assert_eq!(
        response_bytes(&response.schema, &response.tuples),
        oracle_bytes(COMPOSED)
    );
    assert!(!response.tuples.is_empty());
    service.shutdown();
}

#[test]
fn plan_cache_hits_on_canonical_text_and_invalidates_on_update() {
    let (service, tv, _) = course_service();
    let first = service.exec_plan(&plan(MOTIVATING)).unwrap();
    assert!(!first.cached);
    assert_eq!(service.cache_len(), 1);

    // A reformatted but identical plan hits: the cache keys on the
    // canonical printing, not the client's whitespace.
    let reformatted = MOTIVATING.replace(") ", ")\n   ");
    let hit = service
        .exec_plan(&ExecPlanRequest {
            profile: true,
            ..plan(&reformatted)
        })
        .unwrap();
    assert!(hit.cached);
    assert_eq!(hit.tuples, first.tuples, "cache shares the tuple vector");
    assert!(
        hit.profile.is_none(),
        "cache hits execute nothing, so there is nothing to profile"
    );
    assert_eq!(hit.ops, Default::default());

    // Updating any pinned relation purges the entry; the re-run pins the
    // new version.
    let new_cv = service.register("courses", courses()).unwrap();
    assert_eq!(service.cache_len(), 0);
    let reran = service.exec_plan(&plan(MOTIVATING)).unwrap();
    assert!(!reran.cached);
    assert_eq!(
        reran.relations,
        vec![
            ("courses".to_owned(), new_cv),
            ("transcript".to_owned(), tv)
        ]
    );
    service.shutdown();
}

#[test]
fn plan_errors_map_to_the_service_error_taxonomy() {
    let (service, _, _) = course_service();
    assert!(matches!(
        service.exec_plan(&plan("(scan")),
        Err(ServiceError::BadRequest(_))
    ));
    assert!(matches!(
        service.exec_plan(&plan("(scan nosuch)")),
        Err(ServiceError::UnknownRelation(_))
    ));
    assert!(matches!(
        service.exec_plan(&plan("(filter (= nosuch-col 1) (scan transcript))")),
        Err(ServiceError::BadRequest(_))
    ));
    let oversized = format!(
        "(scan transcript){}",
        " ".repeat(reldiv_service::proto::MAX_PLAN_WIRE)
    );
    assert!(matches!(
        service.exec_plan(&plan(&oversized)),
        Err(ServiceError::BadRequest(_))
    ));
    assert!(matches!(
        service.exec_plan(&ExecPlanRequest {
            deadline_ms: Some(0),
            ..plan(MOTIVATING)
        }),
        Err(ServiceError::DeadlineExceeded)
    ));
    let stats = service.stats();
    assert_eq!(stats.queries, 0, "failed plans never count as queries");
    assert_eq!(stats.timeouts, 1);
    assert!(stats.errors >= 4);
    service.shutdown();
}

#[test]
fn composed_plan_runs_over_tcp_with_a_span_per_operator() {
    let (service, _, _) = course_service();
    let mut server = ServerHandle::start(service, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let reply = client
        .exec_plan(&ExecPlanRequest {
            plan: COMPOSED.to_owned(),
            deadline_ms: Some(60_000),
            profile: true,
        })
        .expect("plan executes over TCP");
    assert!(!reply.cached);
    assert_eq!(reply.algorithms.len(), 1);
    assert_eq!(
        response_bytes(&reply.schema, &reply.tuples),
        oracle_bytes(COMPOSED),
        "TCP answer is byte-identical to the reference oracle"
    );

    // EXPLAIN ANALYZE travelled with the reply: every plan node shows up
    // as a span under the whole-plan root.
    let profile = reply.profile.expect("profiled plan carries a span tree");
    let mut labels = Vec::new();
    fn walk(n: &reldiv_service::ProfileNode, out: &mut Vec<String>) {
        out.push(n.label.clone());
        for c in &n.children {
            walk(c, out);
        }
    }
    walk(&profile.root, &mut labels);
    // A bare-scan dividend streams into the division directly (no
    // materialize span); the computed divisor side shows its pipeline.
    for want in [
        "plan",
        "having count >= 2",
        "group-count",
        "hash-join",
        "scan transcript",
        "scan courses",
        "filter",
        "project",
        "divide",
        "materialize divisor",
    ] {
        assert!(
            labels.iter().any(|l| l.starts_with(want)),
            "missing {want:?} span in {labels:?}"
        );
    }

    server.shutdown();
}

// ---------------------------------------------------------------------
// The restricted-divisor gate (client assertions and plan hints).
// ---------------------------------------------------------------------

/// 100 complete groups over a 100-row divisor, duplicate-free: exactly
/// the regime where the cost model's recommendation differs between a
/// restricted and an unrestricted divisor.
fn hint_relations() -> (Relation, Relation) {
    let dividend = Relation::from_tuples(
        Schema::new(vec![Field::int("q"), Field::int("s")]),
        (0..100)
            .flat_map(|q| (0..100).map(move |s| ints(&[q, s])))
            .collect(),
    )
    .unwrap();
    let divisor = Relation::from_tuples(
        Schema::new(vec![Field::int("s")]),
        (0..100).map(|s| ints(&[s])).collect(),
    )
    .unwrap();
    (dividend, divisor)
}

fn hint_service(config: ServiceConfig) -> std::sync::Arc<Service> {
    let (dividend, divisor) = hint_relations();
    let service = Service::start(config).expect("start service");
    service.register("enroll", dividend).unwrap();
    service.register("req", divisor).unwrap();
    service
}

fn unique_request(restricted: Option<bool>) -> DivideRequest {
    DivideRequest {
        assume_unique: true,
        restricted,
        ..common::request("enroll", "req")
    }
}

#[test]
fn restricted_assertion_unlocks_no_join_plans_on_a_healthy_service() {
    let service = hint_service(ServiceConfig::default());

    // Conservative default: the planner must assume dividend values may
    // fall outside the divisor, which rules out the no-join aggregations.
    let default = service.divide(&unique_request(None)).unwrap();
    assert!(
        matches!(default.algorithm, Algorithm::HashDivision { .. }),
        "conservative choice was {:?}",
        default.algorithm
    );

    // The client vouches for referential integrity: the cheaper no-join
    // aggregation becomes legal and the cost model picks it here.
    let asserted = service.divide(&unique_request(Some(false))).unwrap();
    assert_eq!(
        asserted.algorithm,
        Algorithm::HashAggregation { join: false },
        "the assertion must reach the cost model"
    );

    // The hint changes the plan, never the answer.
    assert_eq!(default.tuples.len(), 100);
    assert_eq!(
        response_bytes(&default.schema, &default.tuples),
        response_bytes(&asserted.schema, &asserted.tuples)
    );
    service.shutdown();
}

#[test]
fn restricted_assertion_is_ignored_while_fault_injection_is_active() {
    // The fault plan injects nothing (all rates zero) — its mere
    // presence must be enough to void integrity assertions, since a
    // fault-recovered relation may have dropped divisor tuples.
    let service = hint_service(ServiceConfig {
        storage_faults: Some(FaultPlan::seeded(7)),
        ..ServiceConfig::default()
    });
    let default = service.divide(&unique_request(None)).unwrap();
    let asserted = service.divide(&unique_request(Some(false))).unwrap();
    assert_eq!(
        asserted.algorithm, default.algorithm,
        "under fault injection the assertion must not change the plan"
    );
    assert!(matches!(asserted.algorithm, Algorithm::HashDivision { .. }));
    service.shutdown();
}

const HINTED_PLAN: &str = "(divide (on s) (unique yes) (restricted no) \
     (scan enroll) (scan req))";

#[test]
fn plan_restricted_hints_obey_the_same_fault_gate() {
    let healthy = hint_service(ServiceConfig::default());
    let honored = healthy.exec_plan(&plan(HINTED_PLAN)).unwrap();
    assert_eq!(
        honored.algorithms,
        vec![Algorithm::HashAggregation { join: false }],
        "a healthy service honors the (restricted no) hint"
    );
    healthy.shutdown();

    let faulty = hint_service(ServiceConfig {
        storage_faults: Some(FaultPlan::seeded(7)),
        ..ServiceConfig::default()
    });
    let ignored = faulty.exec_plan(&plan(HINTED_PLAN)).unwrap();
    assert_eq!(ignored.algorithms.len(), 1);
    assert!(
        matches!(ignored.algorithms[0], Algorithm::HashDivision { .. }),
        "under fault injection the hint is ignored, got {:?}",
        ignored.algorithms[0]
    );
    // Same answer either way — the gate only constrains plan choice.
    assert_eq!(
        response_bytes(&honored.schema, &honored.tuples),
        response_bytes(&ignored.schema, &ignored.tuples)
    );
    faulty.shutdown();
}
