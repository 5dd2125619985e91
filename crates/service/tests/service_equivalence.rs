//! The service must answer exactly what the engine answers: for every
//! algorithm column of the paper's tables, a served quotient is
//! byte-identical (as a canonically ordered record set) to a direct
//! `reldiv_core::api::divide_relations` call — over both transports.

use reldiv_core::api::divide_relations;
use reldiv_core::Algorithm;
use reldiv_rel::{RecordCodec, Relation, Schema, Tuple};
use reldiv_service::{
    DivideRequest, DivisionClient, InProcClient, ServerHandle, Service, ServiceConfig, TcpClient,
};
use reldiv_workload::WorkloadSpec;

/// Canonical byte image of a relation: each tuple encoded with the
/// fixed-width record codec, records sorted. Two relations are the same
/// bag iff these are equal (duplicates preserved).
fn canonical_bytes(schema: &Schema, tuples: &[Tuple]) -> Vec<Vec<u8>> {
    let codec = RecordCodec::new(schema.clone());
    let mut records: Vec<Vec<u8>> = tuples
        .iter()
        .map(|t| codec.encode(t).expect("tuples fit their schema"))
        .collect();
    records.sort();
    records
}

fn workload() -> (Relation, Relation) {
    let w = WorkloadSpec {
        divisor_size: 6,
        quotient_size: 12,
        incomplete_groups: 9,
        incomplete_fill: 0.5,
        noise_per_group: 2,
        ..WorkloadSpec::default()
    }
    .generate(20260806);
    (w.dividend, w.divisor)
}

fn check_all_columns(client: &mut impl DivisionClient) {
    let (dividend, divisor) = workload();
    client.register("transcript", &dividend).unwrap();
    client.register("courses", &divisor).unwrap();

    for algorithm in Algorithm::table_columns() {
        let request = DivideRequest {
            dividend: "transcript".into(),
            divisor: "courses".into(),
            algorithm: Some(algorithm),
            assume_unique: false,
            spec: None,
            deadline_ms: None,
            profile: false,
            distribute: None,
            restricted: None,
            mem_budget: None,
        };
        let served = client.divide(&request).unwrap();
        let direct = divide_relations(&dividend, &divisor, algorithm).unwrap();

        assert_eq!(served.algorithm, algorithm);
        assert_eq!(served.schema, *direct.schema(), "{algorithm:?}");
        assert_eq!(
            canonical_bytes(&served.schema, &served.tuples),
            canonical_bytes(direct.schema(), direct.tuples()),
            "served and direct quotients differ for {algorithm:?}"
        );

        // A repeat of the same query is a cache hit serving the same bytes.
        let repeat = client.divide(&request).unwrap();
        assert!(repeat.cached, "{algorithm:?} repeat should hit the cache");
        assert!(!served.cached, "{algorithm:?} first run cannot be cached");
        assert_eq!(
            canonical_bytes(&repeat.schema, &repeat.tuples),
            canonical_bytes(&served.schema, &served.tuples),
        );
        assert_eq!(repeat.dividend_version, served.dividend_version);
        assert_eq!(repeat.divisor_version, served.divisor_version);
    }
}

#[test]
fn all_six_columns_match_direct_execution_in_process() {
    let service = Service::start(ServiceConfig::default()).expect("start service");
    let mut client = InProcClient::new(service.clone());
    check_all_columns(&mut client);
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 6);
    assert_eq!(stats.cache_misses, 6);
    service.shutdown();
}

#[test]
fn all_six_columns_match_direct_execution_over_tcp() {
    let service = Service::start(ServiceConfig::default()).expect("start service");
    let mut server = ServerHandle::start(service, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    check_all_columns(&mut client);
    server.shutdown();
}

#[test]
fn auto_algorithm_resolves_and_caches_beside_the_explicit_choice() {
    let service = Service::start(ServiceConfig::default()).expect("start service");
    let mut client = InProcClient::new(service.clone());
    let (dividend, divisor) = workload();
    client.register("r", &dividend).unwrap();
    client.register("s", &divisor).unwrap();

    let auto = DivideRequest {
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
    };
    let first = client.divide(&auto).unwrap();
    assert!(!first.cached);
    let again = client.divide(&auto).unwrap();
    assert!(again.cached);
    assert_eq!(again.algorithm, first.algorithm, "a hit reports the pick");
    // The cost model runs in the worker, behind the cache, and the cache
    // keys on the plan text a request spells: pinning the resolved
    // algorithm spells a different plan, so it is computed once itself —
    // to the same quotient.
    let explicit = DivideRequest {
        algorithm: Some(first.algorithm),
        ..auto.clone()
    };
    let pinned = client.divide(&explicit).unwrap();
    assert!(!pinned.cached);
    assert_eq!(pinned.algorithm, first.algorithm);
    assert_eq!(
        canonical_bytes(&pinned.schema, &pinned.tuples),
        canonical_bytes(&first.schema, &first.tuples)
    );
    assert!(client.divide(&explicit).unwrap().cached);
    service.shutdown();
}

#[test]
fn errors_travel_over_tcp() {
    let service = Service::start(ServiceConfig::default()).expect("start service");
    let mut server = ServerHandle::start(service, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.local_addr()).unwrap();

    let request = DivideRequest {
        dividend: "nope".into(),
        divisor: "nada".into(),
        algorithm: None,
        assume_unique: false,
        spec: None,
        deadline_ms: None,
        profile: false,
        distribute: None,
        restricted: None,
        mem_budget: None,
    };
    assert!(matches!(
        client.divide(&request),
        Err(reldiv_service::ServiceError::UnknownRelation(_))
    ));
    assert!(matches!(
        client.drop_relation("nope"),
        Err(reldiv_service::ServiceError::UnknownRelation(_))
    ));
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 1);
    server.shutdown();
}

#[test]
fn shutdown_request_stops_the_server() {
    let service = Service::start(ServiceConfig::default()).expect("start service");
    let mut server = ServerHandle::start(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = TcpClient::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    server.wait_for_shutdown_request();
    server.shutdown();
    assert!(!server.service().is_accepting());
}
