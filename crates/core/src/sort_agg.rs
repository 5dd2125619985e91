//! Division by sort-based aggregation (Section 2.2.1).
//!
//! "First, the courses offered by the university are counted using a
//! scalar aggregate operator. Second, for each student, the courses taken
//! are counted using an aggregate function operator. Third, only those
//! students whose number of courses taken is equal to the number of
//! courses offered are selected to be included in the quotient."
//!
//! Two plan shapes:
//!
//! * **Without join** — valid only when every dividend tuple's divisor
//!   attributes appear in the divisor (the paper's first example, where
//!   the divisor is *all* courses). Counting then equals matching.
//! * **With join** — the general shape (the paper's second example, where
//!   the divisor is restricted by a selection): a merge semi-join
//!   restricts the dividend to valid divisor values before counting,
//!   which costs an additional sort of the dividend on *different*
//!   attributes ("it must be sorted first on course-no's for the join and
//!   then on student-id's for aggregation").

use reldiv_exec::batch::BoxedBatchOp;
use reldiv_exec::sort::SortMode;
use reldiv_rel::Relation;

use crate::api::Source;
use crate::engine::{Engine, SCAN_DIVIDEND, SCAN_DIVISOR};
use crate::spec::DivisionSpec;
use crate::Result;

/// The divisor sorted on all its columns, duplicates eliminated.
fn sorted_divisor(engine: &Engine, divisor: BoxedBatchOp) -> Result<BoxedBatchOp> {
    let all = (0..divisor.schema().arity()).collect();
    engine.sort(divisor, all, SortMode::Distinct, "sort divisor (distinct)")
}

/// Counts the distinct divisor tuples with a scalar aggregate.
///
/// Under `assume_unique` this is a plain counting scan; otherwise a
/// distinct sort feeds it (the paper's footnote: "a duplicate elimination
/// step is explicitly requested and inserted into the query evaluation
/// plan").
pub(crate) fn divisor_count_sorted(engine: &Engine, divisor: &Source) -> Result<i64> {
    let mut input = engine.scan_as(divisor, SCAN_DIVISOR);
    if !engine.config.assume_unique {
        input = sorted_divisor(engine, input)?;
    }
    engine.count(input, false, "scalar count (divisor)")
}

/// The vacuous case shared by the aggregate plans: an empty divisor means
/// the quotient is the distinct quotient-attribute projection of the
/// dividend. Aggregation alone cannot express this (no group ever counts
/// to zero), so it is a separate plan.
fn distinct_quotient_projection_sorted(
    engine: &Engine,
    dividend: &Source,
    spec: &DivisionSpec,
) -> Result<Relation> {
    let projected = engine.project(engine.scan(dividend), spec.quotient_keys.clone())?;
    engine.collect(engine.sort(
        projected,
        (0..spec.quotient_keys.len()).collect(),
        SortMode::Distinct,
        "sort distinct quotient projection",
    )?)
}

/// Runs division by sort-based aggregation.
pub(crate) fn sort_agg_division(
    engine: &Engine,
    dividend: &Source,
    divisor: &Source,
    spec: &DivisionSpec,
    with_join: bool,
) -> Result<Relation> {
    // Step 1: scalar aggregate — count the (distinct) divisor.
    let target = divisor_count_sorted(engine, divisor)?;
    if target == 0 {
        return distinct_quotient_projection_sorted(engine, dividend, spec);
    }

    // Step 2: count per group, optionally after a merge semi-join.
    let assume_unique = engine.config.assume_unique;
    let agg_input = if with_join {
        // Sort the dividend on the divisor attributes for the join (minor
        // keys: the quotient attributes, so Distinct mode deduplicates
        // whole tuples), and the divisor on all its attributes.
        let mut join_sort_keys = spec.divisor_keys.clone();
        join_sort_keys.extend_from_slice(&spec.quotient_keys);
        let mode = match assume_unique {
            true => SortMode::Plain,
            false => SortMode::Distinct,
        };
        let label = "sort dividend (divisor+quotient keys)";
        let sorted_dividend = engine.sort(engine.scan(dividend), join_sort_keys, mode, label)?;
        let sorted_divisor = sorted_divisor(engine, engine.scan(divisor))?;
        engine.semi_join(
            false,
            (sorted_dividend, spec.divisor_keys.clone()),
            (sorted_divisor, spec.divisor_all_columns()),
        )?
    } else {
        engine.scan_as(dividend, SCAN_DIVIDEND)
    };

    // The aggregate function: count (distinct) dividend tuples per group.
    // After a semi-join over a deduplicated dividend the input is unique;
    // without the join, uniqueness must be requested explicitly.
    let need_distinct = !assume_unique && !with_join;
    let agg = engine.sort_count(agg_input, spec.quotient_keys.clone(), need_distinct)?;

    // Step 3: select the groups whose count equals the divisor count.
    engine.having(agg, target)
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
        let rel = sort_agg_division(
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
    fn no_join_works_when_dividend_is_restricted_to_divisor() {
        // Example 1: the divisor is all courses appearing anywhere.
        let rows = [[1, 10], [1, 20], [2, 10], [3, 10], [3, 20]];
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), false, true),
            vec![1, 3]
        );
    }

    #[test]
    fn with_join_handles_restricted_divisors() {
        // Example 2: course 99 (physics) is not in the divisor. Without
        // the join, student 2's physics tuple would inflate the count.
        let rows = [[1, 10], [1, 20], [2, 10], [2, 99]];
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), true, true),
            vec![1]
        );
    }

    #[test]
    fn no_join_overcounts_without_the_restriction() {
        // The documented failure mode of the no-join shape on unrestricted
        // dividends: student 2 counts the physics course toward the total.
        let rows = [[1, 10], [1, 20], [2, 10], [2, 99]];
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20]), false, true),
            vec![1, 2],
            "this is precisely why the paper's second example needs a join"
        );
    }

    #[test]
    fn duplicates_are_neutralized_when_not_assumed_unique() {
        let rows = [[1, 10], [1, 10], [1, 20], [2, 10], [2, 10]];
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20, 20]), true, false),
            vec![1]
        );
        assert_eq!(
            run(transcript(&rows), courses(&[10, 20, 20]), false, false),
            vec![1]
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
                run(transcript(&[]), courses(&[10]), with_join, false),
                Vec::<i64>::new()
            );
        }
    }

    #[test]
    fn divisor_count_sorted_counts_distinct() {
        let storage = StorageManager::shared(StorageConfig::large());
        let divisor = courses(&[10, 20, 10, 30, 20]);
        let count = |assume_unique| {
            let config = DivisionConfig {
                assume_unique,
                ..DivisionConfig::default()
            };
            let engine = Engine {
                storage: &storage,
                config: &config,
            };
            divisor_count_sorted(&engine, &Source::from_relation(&divisor)).unwrap()
        };
        assert_eq!(count(false), 3);
        assert_eq!(
            count(true),
            5,
            "assume_unique takes the input at face value"
        );
    }
}
