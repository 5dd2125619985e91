//! Division by hash-based aggregation (Section 2.2.2).
//!
//! "Hash-based aggregate functions keep the tuples of the output relation
//! in a main memory hash-table. ... If the aggregate function is preceded
//! by a join as in the second example, the join can also be implemented
//! using hashing. The hash table used for the join is a different one than
//! the one used for aggregation."
//!
//! The same two plan shapes as [`crate::sort_agg`]:
//! * **Without join** — valid only when the dividend's divisor attributes
//!   are all drawn from the divisor,
//! * **With join** — a hash semi-join (build on the divisor, probe with
//!   the dividend) restricts the dividend first.
//!
//! The aggregation table spills to group-hash cluster files when it
//! outgrows the memory pool (GAMMA-style partitioned aggregation), so
//! this plan degrades gracefully like hash-division does.
//!
//! Duplicate handling is the weak point the paper highlights: hash
//! aggregation counts duplicates and "cannot include duplicate
//! elimination, since only one tuple is kept in the hash table for each
//! group". When the inputs are not declared unique, the plan inserts a
//! hash-based duplicate elimination
//! ([`reldiv_exec::batch::distinct::BatchDistinct`]) that must hold the
//! whole dividend in memory — exactly the cost hash-division avoids.

use reldiv_exec::profile::SpanKind;
use reldiv_rel::Relation;

use crate::api::Source;
use crate::engine::{Engine, SCAN_DIVIDEND, SCAN_DIVISOR};
use crate::spec::DivisionSpec;
use crate::Result;

/// Counts the distinct divisor tuples (hash-flavored scalar aggregate).
pub(crate) fn divisor_count_hashed(engine: &Engine, divisor: &Source) -> Result<i64> {
    engine.count(
        engine.scan_as(divisor, SCAN_DIVISOR),
        !engine.config.assume_unique,
        "scalar count (divisor, hashed distinct)",
    )
}

/// The vacuous empty-divisor case, hash-flavored: group the dividend on
/// the quotient attributes and keep one tuple per group.
fn distinct_quotient_projection_hashed(
    engine: &Engine,
    dividend: &Source,
    spec: &DivisionSpec,
) -> Result<Relation> {
    let agg = engine.hash_count(engine.scan(dividend), spec.quotient_keys.clone())?;
    // Keep the groups, drop the counts: HAVING count = anything is wrong
    // here; instead project the count column away on collection.
    let qcols: Vec<usize> = (0..spec.quotient_keys.len()).collect();
    Ok(engine.collect(agg)?.project(&qcols)?)
}

/// Runs division by hash-based aggregation.
pub(crate) fn hash_agg_division(
    engine: &Engine,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    with_join: bool,
) -> Result<Relation> {
    // Step 1: scalar aggregate — count the (distinct) divisor.
    let target = divisor_count_hashed(engine, divisor)?;
    if target == 0 {
        return distinct_quotient_projection_hashed(engine, dividend, spec);
    }

    // Optional duplicate elimination on the dividend (expensive: holds the
    // entire input in the memory pool — the paper's argument for
    // hash-division's built-in duplicate insensitivity).
    let mut agg_input = engine.scan_as(dividend, SCAN_DIVIDEND);
    if !engine.config.assume_unique {
        let distinct = engine.hash_distinct(agg_input);
        agg_input = engine.span(distinct, "hash distinct (dividend)", SpanKind::Aggregation);
    }

    // Step 2: count per group, optionally after a hash semi-join. The
    // semi-join builds its own hash table on the divisor — "a different
    // one than the one used for aggregation" — and its output is
    // materialized before aggregation: the paper's cost model charges the
    // dividend scan in both the semi-join and the aggregation terms.
    let mut intermediate = None;
    if with_join {
        let join = engine.semi_join(
            true,
            (agg_input, spec.divisor_keys.clone()),
            (engine.scan(divisor), spec.divisor_all_columns()),
        )?;
        let (file, scan) = engine.materialize(join, "materialize semi-join output")?;
        intermediate = Some(file);
        agg_input = engine.span(scan, "scan materialized intermediate", SpanKind::Scan);
    }

    // Step 3: select the groups whose count equals the divisor count.
    let result = (engine.hash_count(agg_input, spec.quotient_keys.clone())).and_then(|agg| {
        let agg = engine.span(agg, "hash count aggregate", SpanKind::Aggregation);
        engine.having(agg, target)
    });
    if let Some(file) = intermediate {
        engine.storage.borrow_mut().delete_file(file)?;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DivisionConfig;
    use reldiv_rel::schema::{Field, Schema};
    use reldiv_rel::tuple::ints;
    use reldiv_storage::manager::{StorageConfig, StorageManager};

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn run(
        dividend: Relation,
        divisor: Relation,
        with_join: bool,
        assume_unique: bool,
    ) -> Vec<i64> {
        let storage = StorageManager::shared(StorageConfig::large());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let config = DivisionConfig {
            assume_unique,
            ..DivisionConfig::default()
        };
        let engine = Engine {
            storage: &storage,
            config: &config,
        };
        let rel = hash_agg_division(
            &engine,
            &Source::from_relation(&dividend),
            &Source::from_relation(&divisor),
            &spec,
            with_join,
        )
        .unwrap();
        let mut out: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn no_join_works_when_dividend_is_restricted() {
        let rows = [[1, 10], [1, 20], [2, 10], [3, 10], [3, 20]];
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), false, true),
            vec![1, 3]
        );
    }

    #[test]
    fn with_join_handles_restricted_divisors() {
        let rows = [[1, 10], [1, 20], [2, 10], [2, 99]];
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), true, true),
            vec![1]
        );
    }

    #[test]
    fn duplicates_require_explicit_elimination() {
        let rows = [[1, 10], [1, 10], [1, 20], [2, 10], [2, 10]];
        // With preprocessing (assume_unique = false) the answer is right.
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), true, false),
            vec![1]
        );
        // Blindly trusting uniqueness, counts are corrupted: student 1
        // overcounts to 3 ≠ 2 (excluded!), while student 2's duplicate
        // rows count as two distinct courses (wrongly included).
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), true, true),
            vec![2],
            "hash aggregation is fooled by duplicates without dup-elim"
        );
    }

    #[test]
    fn empty_divisor_yields_distinct_projection() {
        let rows = [[7, 10], [8, 20], [7, 30]];
        for with_join in [false, true] {
            assert_eq!(
                run(transcript(&rows), courses(&[]), with_join, false),
                vec![7, 8]
            );
        }
    }

    #[test]
    fn empty_dividend_yields_empty() {
        for with_join in [false, true] {
            assert_eq!(
                run(transcript(&[]), courses(&[10]), with_join, true),
                Vec::<i64>::new()
            );
        }
    }

    #[test]
    fn divisor_count_hashed_distinct_counts() {
        let storage = StorageManager::shared(StorageConfig::large());
        let divisor = courses(&[1, 1, 2]);
        let config = DivisionConfig::default();
        let engine = Engine {
            storage: &storage,
            config: &config,
        };
        let c = divisor_count_hashed(&engine, &Source::from_relation(&divisor)).unwrap();
        assert_eq!(c, 2);
    }
}
