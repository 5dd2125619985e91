//! Hash join and hash semi-join with bucket chaining.
//!
//! The build side (inner) is loaded into a bucket-chained hash table drawn
//! from the main-memory pool; the probe side (outer) streams through. The
//! second example query of the paper uses exactly this operator as the
//! semi-join before hash-based aggregation: "The hash table in the
//! semi-join is built by hashing on course-no's."
//!
//! If the build side exceeds the memory pool the operator reports
//! `MemoryExhausted`; the division algorithms translate that into their
//! partitioned overflow strategies.

use reldiv_rel::{Schema, Tuple};

use crate::cancel::CancelToken;
use crate::hash_table::ChainedTable;
use crate::merge_join::{join_schema, JoinMode};
use crate::op::{BoxedOp, OpState, Operator};
use crate::Result;

/// Hash (semi-)join: builds on the inner input, probes with the outer.
pub struct HashJoin {
    outer: BoxedOp,
    inner: BoxedOp,
    outer_keys: Vec<usize>,
    inner_keys: Vec<usize>,
    mode: JoinMode,
    schema: Schema,
    state: OpState,
    table: Option<ChainedTable<Tuple>>,
    /// Matches pending output for the current probe tuple (Inner mode).
    pending: Vec<Tuple>,
    cancel: CancelToken,
    budget: u32,
}

impl HashJoin {
    /// Creates a hash join. `inner` is the build side and should be the
    /// smaller input (the divisor, in division plans).
    pub fn new(
        outer: BoxedOp,
        inner: BoxedOp,
        outer_keys: Vec<usize>,
        inner_keys: Vec<usize>,
        mode: JoinMode,
    ) -> Result<Self> {
        let (o, i) = (outer.schema(), inner.schema());
        let schema = join_schema("hash", (o, &outer_keys), (i, &inner_keys), mode)?;
        Ok(HashJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            mode,
            schema,
            state: OpState::Created,
            table: None,
            pending: Vec::new(),
            cancel: CancelToken::none(),
            budget: 0,
        })
    }

    /// Polls `cancel` every checkpoint stride during the build loop and
    /// across unmatched probe tuples — without it a long build side or a
    /// selective probe drains arbitrarily long between the caller's polls.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl HashJoin {
    /// The memory pool backing the build table comes from thread state set
    /// by the plan builder; operators receive it explicitly instead.
    fn build(&mut self, pool: &reldiv_storage::MemoryPool) -> Result<()> {
        self.inner.open()?;
        let mut table = ChainedTable::new(pool, 16)?;
        while let Some(t) = self.inner.next()? {
            self.cancel.checkpoint(&mut self.budget)?;
            let h = t.hash_on(&self.inner_keys);
            table.insert(h, t)?;
        }
        self.inner.close()?;
        self.table = Some(table);
        Ok(())
    }

    /// Sets the memory pool before `open`. Required.
    pub fn with_pool(self, pool: reldiv_storage::MemoryPool) -> PooledHashJoin {
        PooledHashJoin { join: self, pool }
    }
}

/// A [`HashJoin`] bound to the memory pool that funds its build table.
pub struct PooledHashJoin {
    join: HashJoin,
    pool: reldiv_storage::MemoryPool,
}

impl Operator for PooledHashJoin {
    fn schema(&self) -> &Schema {
        &self.join.schema
    }

    fn open(&mut self) -> Result<()> {
        self.join.build(&self.pool)?;
        self.join.outer.open()?;
        self.join.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.join.state.require_open()?;
        let table = self.join.table.as_ref().expect("open builds table");
        loop {
            if let Some(inner) = self.join.pending.pop() {
                return Ok(Some(inner));
            }
            let Some(outer) = self.join.outer.next()? else {
                return Ok(None);
            };
            self.join.cancel.checkpoint(&mut self.join.budget)?;
            let h = outer.hash_on(&self.join.outer_keys);
            match self.join.mode {
                JoinMode::LeftSemi => {
                    let hit = table
                        .find(h, |cand| {
                            outer.eq_on(&self.join.outer_keys, cand, &self.join.inner_keys)
                        })
                        .is_some();
                    if hit {
                        return Ok(Some(outer));
                    }
                }
                JoinMode::Inner => {
                    // Collect every matching build tuple (walking the whole
                    // chain; comparisons counted inside eq_on).
                    let mut matches = Vec::new();
                    table.find(h, |cand| {
                        if outer.eq_on(&self.join.outer_keys, cand, &self.join.inner_keys) {
                            matches.push(cand.clone());
                        }
                        false // keep walking the chain
                    });
                    for inner in matches.into_iter().rev() {
                        let mut vals = outer.clone().into_values();
                        vals.extend(inner.into_values());
                        self.join.pending.push(Tuple::new(vals));
                    }
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.join.outer.close()?;
        self.join.table = None;
        self.join.state = OpState::Closed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use crate::scan::MemScan;
    use crate::ExecError;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_storage::MemoryPool;

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
        let j = HashJoin::new(
            Box::new(MemScan::new(outer)),
            Box::new(MemScan::new(inner)),
            ok,
            ik,
            mode,
        )
        .unwrap()
        .with_pool(MemoryPool::unbounded());
        collect(Box::new(j)).unwrap()
    }

    #[test]
    fn semi_join_restricts_dividend_to_divisor_values() {
        let t = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let c = rel(&["cno"], &[&[10], &[20]]);
        let out = join(t, c, vec![1], vec![0], JoinMode::LeftSemi);
        assert_eq!(out.cardinality(), 3);
        assert!(out
            .tuples()
            .iter()
            .all(|t| t.value(1).as_int().unwrap() != 30));
    }

    #[test]
    fn inner_join_pairs_all_matches() {
        let l = rel(&["k", "x"], &[&[1, 100], &[1, 101], &[2, 200]]);
        let r = rel(&["k", "y"], &[&[1, 7], &[1, 8]]);
        let out = join(l, r, vec![0], vec![0], JoinMode::Inner);
        assert_eq!(out.cardinality(), 4);
        assert_eq!(out.schema().arity(), 4);
    }

    #[test]
    fn unmatched_probe_tuples_are_dropped() {
        let l = rel(&["k"], &[&[1], &[2], &[3]]);
        let r = rel(&["k"], &[&[2]]);
        let out = join(l, r, vec![0], vec![0], JoinMode::LeftSemi);
        assert_eq!(out.cardinality(), 1);
        assert_eq!(out.tuples()[0], ints(&[2]));
    }

    #[test]
    fn empty_build_side_matches_nothing() {
        let l = rel(&["k"], &[&[1]]);
        let e = rel(&["k"], &[]);
        assert!(join(l, e, vec![0], vec![0], JoinMode::LeftSemi).is_empty());
    }

    #[test]
    fn build_side_memory_exhaustion_surfaces() {
        let rows: Vec<Vec<i64>> = (0..10_000i64).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let big = rel(&["k"], &refs);
        let small_pool = MemoryPool::new(1024);
        let mut j = HashJoin::new(
            Box::new(MemScan::new(rel(&["k"], &[&[1]]))),
            Box::new(MemScan::new(big)),
            vec![0],
            vec![0],
            JoinMode::LeftSemi,
        )
        .unwrap()
        .with_pool(small_pool);
        let err = j.open().unwrap_err();
        assert!(err.is_memory_exhausted());
    }

    #[test]
    fn mismatched_keys_are_a_plan_error() {
        let l = MemScan::new(rel(&["k"], &[&[1]]));
        let r = MemScan::new(rel(&["k"], &[&[1]]));
        assert!(matches!(
            HashJoin::new(
                Box::new(l),
                Box::new(r),
                vec![0],
                vec![0, 0],
                JoinMode::Inner
            ),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn hash_join_counts_hash_operations() {
        reldiv_rel::counters::reset();
        let l = rel(&["k"], &[&[1], &[2]]);
        let r = rel(&["k"], &[&[1], &[3], &[4]]);
        let _ = join(l, r, vec![0], vec![0], JoinMode::LeftSemi);
        let snap = reldiv_rel::counters::snapshot();
        // 3 build hashes + 2 probe hashes.
        assert_eq!(snap.hashes, 5);
    }
}
