//! What every join shares: its [`JoinMode`] and the check of its key
//! lists that yields its output schema. The joins themselves are the
//! hash join ([`crate::hash_join`]) and the merge semi-join
//! ([`crate::batch::join`]).
//!
//! "Merge join consists of a merging scan of both inputs, in which tuples
//! from the inner relation with equal key values are kept in a linked list
//! of tuples pinned in the buffer pool. For semi-joins in which the outer
//! relation produces the result, no linked lists are used." (Section 5.1.)
//! The division plans need only the semi-join:
//! [`crate::batch::join::BatchMergeSemiJoin`].

use reldiv_rel::Schema;

use crate::{ExecError, Result};

/// Join variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// Emit `outer ++ inner` for every matching pair.
    Inner,
    /// Emit each outer tuple once if it has at least one match
    /// (semi-join) — what the aggregate division plans need to restrict
    /// the dividend to valid divisor values.
    LeftSemi,
}

/// Checks a join's key lists against its inputs and returns its output
/// schema: `outer ++ inner` columns, or the outer's under `LeftSemi`.
pub(crate) fn join_schema(
    kind: &str,
    (outer, outer_keys): (&Schema, &[usize]),
    (inner, inner_keys): (&Schema, &[usize]),
    mode: JoinMode,
) -> Result<Schema> {
    if outer_keys.len() != inner_keys.len() {
        return Err(ExecError::Plan(format!(
            "{kind} join: key lists differ in length"
        )));
    }
    if outer_keys.iter().any(|&k| k >= outer.arity())
        || inner_keys.iter().any(|&k| k >= inner.arity())
    {
        return Err(ExecError::Plan(format!("{kind} join: key out of range")));
    }
    Ok(match mode {
        JoinMode::Inner => {
            let mut fields = outer.fields().to_vec();
            fields.extend(inner.fields().iter().cloned());
            Schema::new(fields)
        }
        JoinMode::LeftSemi => outer.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::batch::join::BatchMergeSemiJoin;
    use crate::batch::scan::BatchMemScan;
    use crate::hash_join::BatchHashJoin;
    use crate::CancelToken;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_storage::MemoryPool;

    fn rel(names: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(names.iter().map(|n| Field::int(*n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn semi_join(outer: Relation, inner: Relation, ok: Vec<usize>, ik: Vec<usize>) -> Relation {
        let j = BatchMergeSemiJoin::new(
            Box::new(BatchMemScan::new(outer)),
            Box::new(BatchMemScan::new(inner)),
            ok,
            ik,
        )
        .unwrap();
        collect_batches(Box::new(j), CancelToken::none()).unwrap()
    }

    /// An `Inner` join, run on the hash join: the join that has the mode.
    fn inner_join(outer: Relation, inner: Relation, ok: Vec<usize>, ik: Vec<usize>) -> Relation {
        let j = BatchHashJoin::new(
            Box::new(BatchMemScan::new(outer)),
            Box::new(BatchMemScan::new(inner)),
            ok,
            ik,
            JoinMode::Inner,
            MemoryPool::unbounded(),
        )
        .unwrap();
        collect_batches(Box::new(j), CancelToken::none()).unwrap()
    }

    #[test]
    fn inner_join_matches_pairs() {
        // Transcript (sid, cno) sorted by cno; Courses (cno) sorted.
        let t = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let c = rel(&["cno"], &[&[10], &[20], &[40]]);
        let mut tt = t.clone();
        tt.sort_by_keys(&[1, 0]);
        let out = inner_join(tt, c, vec![1], vec![0]);
        let got: Vec<String> = out.tuples().iter().map(|t| t.to_string()).collect();
        assert_eq!(got, vec!["(1, 10, 10)", "(2, 10, 10)", "(1, 20, 20)"]);
    }

    #[test]
    fn inner_join_produces_cross_product_per_key() {
        let l = rel(&["k", "x"], &[&[1, 100], &[1, 101]]);
        let r = rel(&["k", "y"], &[&[1, 7], &[1, 8], &[1, 9]]);
        let out = inner_join(l, r, vec![0], vec![0]);
        assert_eq!(out.cardinality(), 6);
    }

    #[test]
    fn semi_join_emits_each_outer_once() {
        let t = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let c = rel(&["cno"], &[&[10], &[20]]);
        let mut tt = t.clone();
        tt.sort_by_keys(&[1, 0]);
        let out = semi_join(tt, c, vec![1], vec![0]);
        assert_eq!(out.cardinality(), 3, "the optics/30 tuple is dropped");
        assert!(out
            .tuples()
            .iter()
            .all(|t| t.value(1).as_int().unwrap() != 30));
        assert_eq!(out.schema().arity(), 2, "semi-join keeps the outer schema");
    }

    #[test]
    fn semi_join_keeps_outer_duplicates() {
        // Duplicates in the outer survive a semi-join (it is not distinct).
        let l = rel(&["k"], &[&[5], &[5], &[6]]);
        let r = rel(&["k"], &[&[5]]);
        let out = semi_join(l, r, vec![0], vec![0]);
        assert_eq!(out.cardinality(), 2);
    }

    #[test]
    fn disjoint_inputs_join_to_empty() {
        let l = rel(&["k"], &[&[1], &[2]]);
        let r = rel(&["k"], &[&[3], &[4]]);
        assert!(semi_join(l.clone(), r.clone(), vec![0], vec![0]).is_empty());
        assert!(semi_join(r, l, vec![0], vec![0]).is_empty());
    }

    #[test]
    fn empty_inputs_are_handled() {
        let l = rel(&["k"], &[&[1]]);
        let e = rel(&["k"], &[]);
        assert!(semi_join(l.clone(), e.clone(), vec![0], vec![0]).is_empty());
        assert!(semi_join(e, l, vec![0], vec![0]).is_empty());
    }

    #[test]
    fn mismatched_key_lists_are_a_plan_error() {
        let (l, r) = (rel(&["k"], &[&[1]]), rel(&["k"], &[&[1]]));
        for mode in [JoinMode::Inner, JoinMode::LeftSemi] {
            let keys = (l.schema(), &[0, 1][..]);
            assert!(matches!(
                join_schema("merge", keys, (r.schema(), &[0]), mode),
                Err(ExecError::Plan(_))
            ));
        }
        assert!(matches!(
            BatchMergeSemiJoin::new(
                Box::new(BatchMemScan::new(l)),
                Box::new(BatchMemScan::new(r)),
                vec![0, 1],
                vec![0],
            ),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn multi_column_keys_join_correctly() {
        let l = rel(&["a", "b", "x"], &[&[1, 1, 10], &[1, 2, 20], &[2, 1, 30]]);
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 1]]);
        let out = semi_join(l, r, vec![0, 1], vec![0, 1]);
        let got: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.value(2).as_int().unwrap())
            .collect();
        assert_eq!(got, vec![20, 30]);
    }
}
