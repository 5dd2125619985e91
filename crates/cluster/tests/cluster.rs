//! End-to-end cluster tests: a real 4-node TCP deployment must produce
//! exactly the quotient the single-node engine produces, under both
//! Section 6 strategies, with and without bit-vector filtering, across
//! the paper's Table 4-style workload grid — plus the traffic and
//! caching behaviour the strategies exist to deliver.

use std::time::Duration;

use reldiv_cluster::{ClusterQueryOptions, LocalCluster, Strategy};
use reldiv_core::hash_division::HashDivisionMode;
use reldiv_core::{divide_relations, Algorithm, DivisionSpec};
use reldiv_parallel::{parallel_divide, ClusterConfig};
use reldiv_rel::tuple::ints;
use reldiv_rel::{Relation, Tuple};
use reldiv_service::ServiceConfig;
use reldiv_storage::manager::StorageConfig;
use reldiv_workload::WorkloadSpec;

const TIMEOUT: Option<Duration> = Some(Duration::from_secs(60));

/// Nodes with ample work memory: these tests verify distribution, not
/// the overflow ladder (which the single-node suites already cover, and
/// which is painfully slow in debug builds at |R| ≈ 170k).
fn start_nodes(n: usize) -> LocalCluster {
    LocalCluster::start_with(n, |_| ServiceConfig {
        storage: StorageConfig::large(),
        ..ServiceConfig::default()
    })
    .expect("start nodes")
}

/// Canonical order-independent form of a quotient, for byte-exact
/// comparison between cluster and single-node results.
fn canon(tuples: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = tuples.iter().map(|t| format!("{t:?}")).collect();
    out.sort();
    out
}

/// The single-node oracle: the same hash division the nodes run.
fn oracle(dividend: &Relation, divisor: &Relation) -> Vec<String> {
    let quotient = divide_relations(
        dividend,
        divisor,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
    )
    .expect("single-node division");
    canon(quotient.tuples())
}

fn options(strategy: Strategy, bits: Option<usize>) -> ClusterQueryOptions {
    ClusterQueryOptions {
        strategy,
        bit_vector_bits: bits,
        spec: None,
        profile: false,
    }
}

#[test]
fn grid_matches_single_node_oracle_under_both_strategies() {
    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    for &divisor_size in &[25u64, 100, 400] {
        for &quotient_size in &[25u64, 100, 400] {
            let w = WorkloadSpec {
                divisor_size,
                quotient_size,
                incomplete_groups: quotient_size.min(40),
                incomplete_fill: 0.6,
                noise_per_group: 2,
                ..WorkloadSpec::default()
            }
            .generate(divisor_size * 1000 + quotient_size);
            let expected = oracle(&w.dividend, &w.divisor);
            assert_eq!(expected.len(), quotient_size as usize);
            coord.register("r", &w.dividend, &[0]).expect("register r");
            coord.register("s", &w.divisor, &[0]).expect("register s");
            for (strategy, bits) in [
                (Strategy::QuotientPartitioning, None),
                (Strategy::DivisorPartitioning, None),
                (Strategy::DivisorPartitioning, Some(16 * 1024)),
            ] {
                let response = coord
                    .divide("r", "s", &options(strategy, bits))
                    .unwrap_or_else(|e| {
                        panic!("|S|={divisor_size} |Q|={quotient_size} {strategy:?}: {e}")
                    });
                assert_eq!(
                    canon(&response.tuples),
                    expected,
                    "|S|={divisor_size} |Q|={quotient_size} {strategy:?} bits={bits:?}"
                );
                assert_eq!(response.report.nodes, 4);
                assert!(response.report.messages > 0, "work crossed the network");
                // Request/reply protocol: every frame sent got a frame back.
                for link in &response.report.per_link {
                    assert_eq!(link.messages_sent, link.messages_received);
                }
            }
        }
    }
}

/// Both backends run the one Section 6 driver: over the Table 4 grid the
/// thread machine and the TCP cluster return the same quotient, let the
/// same nodes participate and drop the same dividend tuples, under both
/// strategies with and without a bit-vector filter.
#[test]
fn both_backends_make_the_same_section6_decisions() {
    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    for &divisor_size in &[25u64, 100, 400] {
        for &quotient_size in &[25u64, 100, 400] {
            let w = WorkloadSpec {
                divisor_size,
                quotient_size,
                incomplete_groups: quotient_size.min(40),
                incomplete_fill: 0.6,
                noise_per_group: 2,
                ..WorkloadSpec::default()
            }
            .generate(divisor_size * 1000 + quotient_size);
            coord.register("r", &w.dividend, &[0]).expect("register r");
            coord.register("s", &w.divisor, &[0]).expect("register s");
            let spec = DivisionSpec::trailing_divisor(w.dividend.schema(), w.divisor.schema())
                .expect("spec");
            for strategy in [
                Strategy::QuotientPartitioning,
                Strategy::DivisorPartitioning,
            ] {
                for bits in [None, Some(16 * 1024)] {
                    let case =
                        format!("|S|={divisor_size} |Q|={quotient_size} {strategy:?} {bits:?}");
                    let config = ClusterConfig {
                        nodes: 4,
                        strategy,
                        bit_vector_bits: bits,
                        node_storage: StorageConfig::large(),
                        ..ClusterConfig::default()
                    };
                    let (quotient, machine) =
                        parallel_divide(&w.dividend, &w.divisor, &spec, &config).expect(&case);
                    let tcp = coord
                        .divide("r", "s", &options(strategy, bits))
                        .expect(&case);
                    assert_eq!(canon(quotient.tuples()), canon(&tcp.tuples), "{case}");
                    let machine_nodes: Vec<String> = (machine.profile.root.children.iter())
                        .map(|span| span.label.clone())
                        .collect();
                    let tcp_nodes: Vec<String> = (tcp.report.participating.iter())
                        .map(|node| format!("node {node}"))
                        .collect();
                    assert_eq!(machine_nodes, tcp_nodes, "{case}: participating nodes");
                    assert_eq!(machine.participating_nodes, tcp_nodes.len(), "{case}");
                    assert_eq!(
                        machine.filtered_tuples, tcp.report.filtered_tuples,
                        "{case}: filtered tuples"
                    );
                    assert_eq!(
                        machine.filter_fill_ratio, tcp.report.filter_fill_ratio,
                        "{case}: filter fill"
                    );
                }
            }
        }
    }
}

#[test]
fn bit_vector_filtering_cuts_bytes_shipped() {
    // Heavy noise: most dividend tuples reference divisor values that do
    // not exist, exactly the case Section 6's bit-vector filtering wins.
    let w = WorkloadSpec {
        divisor_size: 20,
        quotient_size: 50,
        noise_per_group: 60,
        ..WorkloadSpec::default()
    }
    .generate(11);
    let expected = oracle(&w.dividend, &w.divisor);

    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &w.divisor, &[0]).unwrap();

    let plain = coord
        .divide("r", "s", &options(Strategy::DivisorPartitioning, None))
        .expect("unfiltered run");
    assert_eq!(canon(&plain.tuples), expected);

    // A fresh coordinator so temp caching cannot mask the comparison.
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &w.divisor, &[0]).unwrap();
    let filtered = coord
        .divide(
            "r",
            "s",
            &options(Strategy::DivisorPartitioning, Some(64 * 1024)),
        )
        .expect("filtered run");
    assert_eq!(canon(&filtered.tuples), expected);
    assert!(
        filtered.report.filtered_tuples > 0,
        "noise tuples must be dropped at the sending sites"
    );
    let fill = filtered.report.filter_fill_ratio.expect("filter ran");
    assert!(fill > 0.0 && fill < 0.5, "20 values in 64Ki bits: {fill}");
    assert!(
        filtered.report.bytes < plain.report.bytes,
        "filtering must cut wire bytes: {} !< {}",
        filtered.report.bytes,
        plain.report.bytes
    );
}

#[test]
fn quotient_partitioning_repartitions_a_badly_sharded_dividend() {
    // The dividend is sharded on the *divisor* column, so quotient
    // values span nodes; the coordinator must repartition transparently
    // or local quotients would be wrong.
    let w = WorkloadSpec {
        divisor_size: 25,
        quotient_size: 40,
        incomplete_groups: 10,
        incomplete_fill: 0.5,
        ..WorkloadSpec::default()
    }
    .generate(23);
    let expected = oracle(&w.dividend, &w.divisor);

    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[1]).unwrap(); // wrong keys on purpose
    coord.register("s", &w.divisor, &[0]).unwrap();
    let response = coord
        .divide("r", "s", &options(Strategy::QuotientPartitioning, None))
        .expect("divide");
    assert_eq!(canon(&response.tuples), expected);
}

#[test]
fn empty_divisor_is_vacuous_under_both_strategies() {
    // R ÷ {} = distinct quotient projection of R; filtering must not
    // engage (an all-zero filter would wrongly drop every tuple).
    let w = WorkloadSpec {
        divisor_size: 8,
        quotient_size: 12,
        noise_per_group: 1,
        ..WorkloadSpec::default()
    }
    .generate(3);
    let empty = Relation::from_tuples(w.divisor.schema().clone(), Vec::new()).unwrap();
    let expected = oracle(&w.dividend, &empty);

    let cluster = start_nodes(3);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &empty, &[0]).unwrap();
    for strategy in [
        Strategy::QuotientPartitioning,
        Strategy::DivisorPartitioning,
    ] {
        let response = coord
            .divide("r", "s", &options(strategy, Some(4096)))
            .expect("divide");
        assert_eq!(canon(&response.tuples), expected, "{strategy:?}");
        assert_eq!(response.report.filtered_tuples, 0, "{strategy:?}");
    }
}

#[test]
fn explicit_spec_divides_a_non_trailing_layout() {
    // Dividend laid out (divisor-id, quotient-id): the trailing-divisor
    // convention would be wrong, the explicit spec must reach the nodes.
    let dividend = Relation::from_tuples(
        reldiv_workload::dividend_schema(),
        vec![
            ints(&[101, 1]),
            ints(&[102, 1]),
            ints(&[101, 2]),
            ints(&[101, 3]),
            ints(&[102, 3]),
        ],
    )
    .unwrap();
    let divisor = Relation::from_tuples(
        reldiv_workload::divisor_schema(),
        vec![ints(&[101]), ints(&[102])],
    )
    .unwrap();

    let cluster = start_nodes(2);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &dividend, &[1]).unwrap();
    coord.register("s", &divisor, &[0]).unwrap();
    for strategy in [
        Strategy::QuotientPartitioning,
        Strategy::DivisorPartitioning,
    ] {
        let response = coord
            .divide(
                "r",
                "s",
                &ClusterQueryOptions {
                    strategy,
                    bit_vector_bits: None,
                    spec: Some((vec![0], vec![1])),
                    profile: false,
                },
            )
            .expect("divide");
        // Groups 1 and 3 hold both divisor values; group 2 only 101.
        assert_eq!(
            canon(&response.tuples),
            canon(&[ints(&[1]), ints(&[3])]),
            "{strategy:?}"
        );
    }
}

#[test]
fn divisor_partitioning_excludes_nodes_without_divisor_data() {
    // Two distinct divisor values spread over four nodes occupy at most
    // two of them; the other nodes must not participate in the collection
    // phase (a phase count of four would empty the quotient).
    let w = WorkloadSpec {
        divisor_size: 2,
        quotient_size: 10,
        noise_per_group: 4,
        ..WorkloadSpec::default()
    }
    .generate(17);
    let expected = oracle(&w.dividend, &w.divisor);

    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &w.divisor, &[0]).unwrap();
    let response = coord
        .divide("r", "s", &options(Strategy::DivisorPartitioning, None))
        .expect("divide");
    assert_eq!(canon(&response.tuples), expected);
    let p = response.report.participating.len();
    assert!(
        (1..=2).contains(&p),
        "2 divisor values occupy at most 2 nodes, got {p}"
    );
    // Noise tuples routed to non-participating nodes are dropped at the
    // coordinator switch and accounted for.
    assert!(response.report.filtered_tuples > 0);
}

#[test]
fn replication_and_repartition_caches_cut_repeat_traffic() {
    let w = WorkloadSpec {
        divisor_size: 50,
        quotient_size: 80,
        incomplete_groups: 20,
        incomplete_fill: 0.5,
        ..WorkloadSpec::default()
    }
    .generate(29);
    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &w.divisor, &[0]).unwrap();

    for strategy in [
        Strategy::QuotientPartitioning,
        Strategy::DivisorPartitioning,
    ] {
        let first = coord.divide("r", "s", &options(strategy, None)).unwrap();
        let second = coord.divide("r", "s", &options(strategy, None)).unwrap();
        assert_eq!(canon(&first.tuples), canon(&second.tuples));
        assert!(
            second.report.bytes < first.report.bytes,
            "{strategy:?}: cached divisor replica / temp shards must not \
             re-ship: {} !< {}",
            second.report.bytes,
            first.report.bytes
        );
    }

    // Re-registering bumps the stamp: caches must invalidate, and the
    // new divisor must actually take effect.
    let smaller = Relation::from_tuples(
        w.divisor.schema().clone(),
        w.divisor.tuples()[..10].to_vec(),
    )
    .unwrap();
    coord.register("s", &smaller, &[0]).unwrap();
    let expected = oracle(&w.dividend, &smaller);
    for strategy in [
        Strategy::QuotientPartitioning,
        Strategy::DivisorPartitioning,
    ] {
        let refreshed = coord.divide("r", "s", &options(strategy, None)).unwrap();
        assert_eq!(canon(&refreshed.tuples), expected, "{strategy:?}");
    }
}

#[test]
fn profile_merges_node_trees_under_a_network_root() {
    let w = WorkloadSpec {
        divisor_size: 10,
        quotient_size: 20,
        ..WorkloadSpec::default()
    }
    .generate(5);
    let cluster = start_nodes(3);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &w.divisor, &[0]).unwrap();
    let response = coord
        .divide(
            "r",
            "s",
            &ClusterQueryOptions {
                strategy: Strategy::DivisorPartitioning,
                bit_vector_bits: Some(4096),
                spec: None,
                profile: true,
            },
        )
        .expect("divide");
    let profile = response.report.profile.expect("profile requested");
    let root = &profile.root;
    assert_eq!(root.network_bytes, response.report.bytes);
    assert_eq!(
        root.children.len(),
        response.report.participating.len(),
        "one span per participating node"
    );
    for child in &root.children {
        assert!(child.label.starts_with("node "));
        // The node's own EXPLAIN ANALYZE tree is grafted beneath.
        assert!(
            !child.children.is_empty(),
            "node span carries the node-local profile"
        );
    }
    // The rendered tree mentions the strategy and the filter.
    let rendered = profile.render();
    assert!(rendered.contains("DivisorPartitioning"), "{rendered}");
    assert!(rendered.contains("bit-vector filter"), "{rendered}");
}

#[test]
fn unknown_relations_and_bad_specs_are_coordinator_errors() {
    let cluster = start_nodes(2);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    let err = coord
        .divide("nope", "s", &options(Strategy::QuotientPartitioning, None))
        .unwrap_err();
    assert!(matches!(err, reldiv_cluster::ClusterError::BadRequest(_)));

    let w = WorkloadSpec::default().generate(1);
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s", &w.divisor, &[0]).unwrap();
    let err = coord
        .divide(
            "r",
            "s",
            &ClusterQueryOptions {
                strategy: Strategy::DivisorPartitioning,
                bit_vector_bits: None,
                spec: Some((vec![0, 1], vec![0])), // overlapping, wrong arity
                profile: false,
            },
        )
        .unwrap_err();
    assert!(matches!(err, reldiv_cluster::ClusterError::BadRequest(_)));

    let err = coord.register("r", &w.dividend, &[7]).unwrap_err();
    assert!(matches!(err, reldiv_cluster::ClusterError::BadRequest(_)));
}

#[test]
fn filtered_repartition_cache_is_keyed_by_divisor_identity() {
    // Regression: a filtered dividend repartition prunes tuples against
    // one divisor's filter. Dividing the *same* dividend by a different
    // divisor (or a re-registered one) with the same filter geometry
    // must not reuse that temp — the pruned tuples differ.
    let w = WorkloadSpec {
        divisor_size: 8,
        quotient_size: 30,
        noise_per_group: 4,
        ..WorkloadSpec::default()
    }
    .generate(71);
    let w2 = WorkloadSpec {
        divisor_size: 5,
        quotient_size: 30,
        noise_per_group: 4,
        ..WorkloadSpec::default()
    }
    .generate(72);
    let cluster = start_nodes(3);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.register("r", &w.dividend, &[0]).unwrap();
    coord.register("s0", &w.divisor, &[0]).unwrap();
    coord.register("s1", &w2.divisor, &[0]).unwrap();

    let opts = options(Strategy::DivisorPartitioning, Some(4096));
    let first = coord.divide("r", "s0", &opts).expect("r ÷ s0");
    assert_eq!(canon(&first.tuples), oracle(&w.dividend, &w.divisor));

    // Same dividend, same filter bits, different divisor.
    let second = coord.divide("r", "s1", &opts).expect("r ÷ s1");
    assert_eq!(canon(&second.tuples), oracle(&w.dividend, &w2.divisor));

    // Same divisor name, new contents: the stamp in the filter tag must
    // invalidate the old temp.
    coord.register("s0", &w2.divisor, &[0]).unwrap();
    let third = coord.divide("r", "s0", &opts).expect("r ÷ s0 v2");
    assert_eq!(canon(&third.tuples), oracle(&w.dividend, &w2.divisor));

    // And repeating an identical query still hits the cache.
    let again = coord.divide("r", "s0", &opts).expect("repeat");
    assert_eq!(canon(&again.tuples), oracle(&w.dividend, &w2.divisor));
    assert!(again.report.bytes < third.report.bytes);
    // A cache hit serves a temp whose tuples were pruned when it was
    // built: the report must carry that build-time count, not zero.
    assert!(third.report.filtered_tuples > 0, "noise must be pruned");
    assert_eq!(
        again.report.filtered_tuples, third.report.filtered_tuples,
        "a cached temp reports the tuples dropped when it was built"
    );
}

#[test]
fn re_registration_leaves_no_stale_temporaries_on_the_nodes() {
    // Every registration stamps fresh names on the temporaries derived
    // from it (`.part.`, `.repl.`), so the old ones can never be asked
    // for again: a node that kept them would grow by a dividend per
    // update. Node catalogs must hold the same names after the tenth
    // update-and-query round as after the first.
    let cluster = start_nodes(4);
    let mut coord = cluster.coordinator(TIMEOUT).expect("connect");
    coord.set_replication(2).expect("k = 2");
    let names = |cluster: &LocalCluster| -> Vec<usize> {
        (0..4)
            .map(|n| cluster.service(n).expect("node").list_relations().len())
            .collect()
    };
    let mut after_first = Vec::new();
    for round in 0..10u64 {
        let w = WorkloadSpec {
            divisor_size: 8,
            quotient_size: 40 - round,
            noise_per_group: 3,
            ..WorkloadSpec::default()
        }
        .generate(500 + round);
        coord.register("r", &w.dividend, &[0]).expect("register r");
        coord.register("s", &w.divisor, &[0]).expect("register s");
        for (strategy, bits) in [
            (Strategy::QuotientPartitioning, None),
            (Strategy::DivisorPartitioning, None),
            (Strategy::DivisorPartitioning, Some(4096)),
        ] {
            let response = coord
                .divide("r", "s", &options(strategy, bits))
                .unwrap_or_else(|e| panic!("round {round} {strategy:?}: {e}"));
            assert_eq!(
                canon(&response.tuples),
                oracle(&w.dividend, &w.divisor),
                "round {round} {strategy:?} bits={bits:?}"
            );
        }
        if round == 0 {
            after_first = names(&cluster);
        }
        assert_eq!(names(&cluster), after_first, "after round {round}");
    }
}
