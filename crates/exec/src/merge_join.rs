//! Merge join and merge semi-join over sorted inputs.
//!
//! "Merge join consists of a merging scan of both inputs, in which tuples
//! from the inner relation with equal key values are kept in a linked list
//! of tuples pinned in the buffer pool. For semi-joins in which the outer
//! relation produces the result, no linked lists are used." (Section 5.1.)
//!
//! The outer (left) input drives the join; the inner (right) input's
//! equal-key groups are buffered so that every outer tuple of a key meets
//! every inner tuple of that key.

use reldiv_rel::{Schema, Tuple};

use crate::op::{BoxedOp, OpState, Operator};
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

/// Merge (semi-)join of two inputs sorted on their join keys.
pub struct MergeJoin {
    outer: BoxedOp,
    inner: BoxedOp,
    outer_keys: Vec<usize>,
    inner_keys: Vec<usize>,
    mode: JoinMode,
    schema: Schema,
    state: OpState,
    outer_current: Option<Tuple>,
    inner_lookahead: Option<Tuple>,
    /// Buffered inner group with keys equal to `group_key` (Inner mode).
    group: Vec<Tuple>,
    group_pos: usize,
}

impl MergeJoin {
    /// Creates a merge join. Both inputs must arrive sorted on their key
    /// lists (ascending); this is asserted during execution in debug
    /// builds.
    pub fn new(
        outer: BoxedOp,
        inner: BoxedOp,
        outer_keys: Vec<usize>,
        inner_keys: Vec<usize>,
        mode: JoinMode,
    ) -> Result<Self> {
        let (o, i) = (outer.schema(), inner.schema());
        let schema = join_schema("merge", (o, &outer_keys), (i, &inner_keys), mode)?;
        Ok(MergeJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            mode,
            schema,
            state: OpState::Created,
            outer_current: None,
            inner_lookahead: None,
            group: Vec::new(),
            group_pos: 0,
        })
    }

    fn advance_outer(&mut self) -> Result<()> {
        self.outer_current = self.outer.next()?;
        self.group_pos = 0;
        Ok(())
    }

    fn advance_inner(&mut self) -> Result<()> {
        self.inner_lookahead = self.inner.next()?;
        Ok(())
    }
}

impl Operator for MergeJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.outer.open()?;
        self.inner.open()?;
        self.outer_current = self.outer.next()?;
        self.inner_lookahead = self.inner.next()?;
        self.group.clear();
        self.group_pos = 0;
        self.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.state.require_open()?;
        loop {
            let Some(outer) = self.outer_current.clone() else {
                return Ok(None);
            };

            // Serve remaining pairs from the buffered inner group.
            if self.group_pos < self.group.len() {
                let matches_group = self.group_pos > 0
                    || outer.cmp_on(&self.outer_keys, &self.group[0], &self.inner_keys)
                        == std::cmp::Ordering::Equal;
                if matches_group {
                    match self.mode {
                        JoinMode::Inner => {
                            let inner = &self.group[self.group_pos];
                            self.group_pos += 1;
                            let mut vals = outer.clone().into_values();
                            vals.extend(inner.clone().into_values());
                            if self.group_pos == self.group.len() {
                                // Exhausted the group for this outer tuple;
                                // the next outer may reuse the same group.
                                self.advance_outer()?;
                                self.group_pos = 0;
                                // Keep group: cleared when keys move past it.
                            }
                            return Ok(Some(Tuple::new(vals)));
                        }
                        JoinMode::LeftSemi => unreachable!("semi-join never buffers groups"),
                    }
                } else {
                    self.group.clear();
                    self.group_pos = 0;
                    continue;
                }
            } else if !self.group.is_empty() {
                // group_pos == len: check whether the (new) outer tuple
                // still matches the buffered group.
                if outer.cmp_on(&self.outer_keys, &self.group[0], &self.inner_keys)
                    == std::cmp::Ordering::Equal
                {
                    self.group_pos = 0;
                    continue;
                }
                self.group.clear();
                continue;
            }

            // No active group: advance the merging scan.
            let Some(inner) = self.inner_lookahead.clone() else {
                // Inner exhausted: remaining outer tuples have no match.
                return Ok(None);
            };
            match outer.cmp_on(&self.outer_keys, &inner, &self.inner_keys) {
                std::cmp::Ordering::Less => {
                    self.advance_outer()?;
                }
                std::cmp::Ordering::Greater => {
                    self.advance_inner()?;
                }
                std::cmp::Ordering::Equal => match self.mode {
                    JoinMode::LeftSemi => {
                        // Emit the outer tuple; do not consume the inner,
                        // which may match further outer tuples.
                        self.advance_outer()?;
                        return Ok(Some(outer));
                    }
                    JoinMode::Inner => {
                        // Buffer the inner group with this key ("a linked
                        // list of tuples pinned in the buffer pool").
                        self.group.clear();
                        self.group_pos = 0;
                        self.group.push(inner.clone());
                        self.advance_inner()?;
                        while let Some(peek) = self.inner_lookahead.clone() {
                            if peek.cmp_on(&self.inner_keys, &inner, &self.inner_keys)
                                == std::cmp::Ordering::Equal
                            {
                                self.group.push(peek);
                                self.advance_inner()?;
                            } else {
                                break;
                            }
                        }
                    }
                },
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.outer.close()?;
        self.inner.close()?;
        self.group.clear();
        self.state = OpState::Closed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use crate::scan::MemScan;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn rel(names: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(names.iter().map(|n| Field::int(*n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn join(
        outer: Relation,
        inner: Relation,
        ok: Vec<usize>,
        ik: Vec<usize>,
        mode: JoinMode,
    ) -> Relation {
        let j = MergeJoin::new(
            Box::new(MemScan::new(outer)),
            Box::new(MemScan::new(inner)),
            ok,
            ik,
            mode,
        )
        .unwrap();
        collect(Box::new(j)).unwrap()
    }

    #[test]
    fn inner_join_matches_pairs() {
        // Transcript (sid, cno) sorted by cno; Courses (cno) sorted.
        let t = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let c = rel(&["cno"], &[&[10], &[20], &[40]]);
        let mut tt = t.clone();
        tt.sort_by_keys(&[1, 0]);
        let out = join(tt, c, vec![1], vec![0], JoinMode::Inner);
        let got: Vec<String> = out.tuples().iter().map(|t| t.to_string()).collect();
        assert_eq!(got, vec!["(1, 10, 10)", "(2, 10, 10)", "(1, 20, 20)"]);
    }

    #[test]
    fn inner_join_produces_cross_product_per_key() {
        let l = rel(&["k", "x"], &[&[1, 100], &[1, 101]]);
        let r = rel(&["k", "y"], &[&[1, 7], &[1, 8], &[1, 9]]);
        let out = join(l, r, vec![0], vec![0], JoinMode::Inner);
        assert_eq!(out.cardinality(), 6);
    }

    #[test]
    fn semi_join_emits_each_outer_once() {
        let t = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let c = rel(&["cno"], &[&[10], &[20]]);
        let mut tt = t.clone();
        tt.sort_by_keys(&[1, 0]);
        let out = join(tt, c, vec![1], vec![0], JoinMode::LeftSemi);
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
        let out = join(l, r, vec![0], vec![0], JoinMode::LeftSemi);
        assert_eq!(out.cardinality(), 2);
    }

    #[test]
    fn disjoint_inputs_join_to_empty() {
        let l = rel(&["k"], &[&[1], &[2]]);
        let r = rel(&["k"], &[&[3], &[4]]);
        assert!(join(l.clone(), r.clone(), vec![0], vec![0], JoinMode::Inner).is_empty());
        assert!(join(l, r, vec![0], vec![0], JoinMode::LeftSemi).is_empty());
    }

    #[test]
    fn empty_inputs_are_handled() {
        let l = rel(&["k"], &[&[1]]);
        let e = rel(&["k"], &[]);
        assert!(join(l.clone(), e.clone(), vec![0], vec![0], JoinMode::Inner).is_empty());
        assert!(join(e, l, vec![0], vec![0], JoinMode::Inner).is_empty());
    }

    #[test]
    fn mismatched_key_lists_are_a_plan_error() {
        let l = MemScan::new(rel(&["k"], &[&[1]]));
        let r = MemScan::new(rel(&["k"], &[&[1]]));
        assert!(matches!(
            MergeJoin::new(
                Box::new(l),
                Box::new(r),
                vec![0, 1],
                vec![0],
                JoinMode::Inner
            ),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn multi_column_keys_join_correctly() {
        let l = rel(&["a", "b", "x"], &[&[1, 1, 10], &[1, 2, 20], &[2, 1, 30]]);
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 1]]);
        let out = join(l, r, vec![0, 1], vec![0, 1], JoinMode::LeftSemi);
        let got: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.value(2).as_int().unwrap())
            .collect();
        assert_eq!(got, vec![20, 30]);
    }
}
