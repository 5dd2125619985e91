//! Replica placement and naming for the replicated sharded catalog.
//!
//! Every fragment of a sharded relation lives on k nodes: the *primary*
//! (node index = fragment index, exactly the PR 4 placement) plus k−1
//! *replicas* on the next nodes round-robin. The primary stores the
//! fragment under the relation's own name; a replica stores it under the
//! reserved `.replica.{fragment}.{name}` catalog name, so one node can
//! hold replicas of many fragments of the same relation without
//! collisions. When the coordinator fails a fragment's sub-query over to
//! a replica holder, it rewrites the relation names in the request
//! accordingly — with one exemption: `.repl.`-prefixed divisor replicas
//! (quotient partitioning) are installed on *every* node under the same
//! name and never need rewriting.

/// The catalog-name prefix under which replica copies are stored.
/// Re-exported from `reldiv-service`, which owns the rule (its
/// `ReplicaWrite` dispatch installs under the same name this module
/// rewrites failover requests to).
pub use reldiv_service::proto::REPLICA_PREFIX;

/// The catalog-name prefix of full divisor replicas (quotient
/// partitioning); these live on every node under the same name and are
/// exempt from replica-name rewriting. Re-exported with
/// [`PARTITION_PREFIX`] from `reldiv-service`, whose nodes drop the
/// temporaries of a relation when a new version of it is installed.
pub use reldiv_service::proto::{FULL_COPY_PREFIX, PARTITION_PREFIX};

/// The nodes holding `fragment` under round-robin placement: the primary
/// (node index = fragment index) first, then the next `k − 1` nodes,
/// wrapping. `k` is clamped to the node count; `nodes == 0` yields an
/// empty placement.
pub fn placement(fragment: usize, nodes: usize, k: usize) -> Vec<usize> {
    if nodes == 0 {
        return Vec::new();
    }
    (0..k.min(nodes)).map(|i| (fragment + i) % nodes).collect()
}

/// The catalog name a *replica* copy of `base`'s `fragment` is stored
/// under.
pub fn replica_name(fragment: usize, base: &str) -> String {
    reldiv_service::proto::replica_name(fragment, base)
}

/// The catalog name node `node` stores `fragment` of `base` under: the
/// base name on the fragment's primary (node index = fragment index) or
/// on any node for a `.repl.` full copy; the replica name elsewhere.
pub fn name_on(node: usize, fragment: usize, base: &str) -> String {
    if node == fragment || base.starts_with(FULL_COPY_PREFIX) {
        base.to_owned()
    } else {
        replica_name(fragment, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_round_robin_primary_first() {
        assert_eq!(placement(0, 4, 2), vec![0, 1]);
        assert_eq!(placement(3, 4, 2), vec![3, 0]);
        assert_eq!(placement(2, 4, 3), vec![2, 3, 0]);
        assert_eq!(placement(1, 4, 1), vec![1]);
    }

    #[test]
    fn placement_clamps_k_to_the_node_count() {
        assert_eq!(placement(0, 2, 5), vec![0, 1]);
        assert_eq!(placement(1, 1, 3), vec![0]);
        assert_eq!(placement(0, 0, 2), Vec::<usize>::new());
    }

    #[test]
    fn replica_names_embed_the_fragment_index() {
        assert_eq!(replica_name(2, "r"), ".replica.2.r");
        // Distinct fragments of the same relation must not collide on a
        // shared holder.
        assert_ne!(replica_name(0, "r"), replica_name(1, "r"));
    }

    #[test]
    fn name_on_rewrites_only_off_primary_and_never_full_copies() {
        assert_eq!(name_on(2, 2, "r"), "r");
        assert_eq!(name_on(3, 2, "r"), ".replica.2.r");
        // Full divisor replicas live everywhere under one name.
        assert_eq!(name_on(3, 2, ".repl.s.7"), ".repl.s.7");
        // Derived temps are rewritten like base relations.
        assert_eq!(
            name_on(1, 0, ".part.r.3.4.0.0"),
            ".replica.0..part.r.3.4.0.0"
        );
    }
}
