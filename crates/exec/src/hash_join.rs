//! Hash join and hash semi-join with bucket chaining.
//!
//! The build side (inner) is loaded into a bucket-chained hash table drawn
//! from the main-memory pool; the probe side (outer) streams through. The
//! second example query of the paper uses exactly this operator as the
//! semi-join before hash-based aggregation: "The hash table in the
//! semi-join is built by hashing on course-no's."
//!
//! Build and probe both run through the packed-key kernels: one
//! [`Batch::hash_rows`] call per batch replaces a `hash_on` per tuple, and
//! chain candidates are compared column-against-tuple without
//! materializing the probe row. Matches leave each probe row in
//! chain-walk order (the build rows of a key, last inserted first); a
//! semi-join keeps the matching probe rows in order.
//!
//! If the build side exceeds the memory pool the operator reports
//! `MemoryExhausted`; the division algorithms translate that into their
//! partitioned overflow strategies.

use reldiv_rel::{Batch, Schema, Tuple};
use reldiv_storage::MemoryPool;

use crate::batch::{select, BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use crate::cancel::CancelToken;
use crate::hash_table::ChainedTable;
use crate::merge_join::{join_schema, JoinMode};
use crate::op::OpState;
use crate::Result;

/// Batch hash (semi-)join: builds on `inner`, probes with `outer` batches.
pub struct BatchHashJoin {
    outer: BoxedBatchOp,
    inner: BoxedBatchOp,
    outer_keys: Vec<usize>,
    inner_keys: Vec<usize>,
    mode: JoinMode,
    pool: MemoryPool,
    schema: Schema,
    state: OpState,
    table: Option<ChainedTable<Tuple>>,
    /// The probe batch in hand, its hashes and its next row to probe.
    probe: Option<(Batch, Vec<u64>, usize)>,
    selection: Vec<usize>,
    cancel: CancelToken,
}

impl BatchHashJoin {
    /// Creates a hash join. `inner` is the build side and should be the
    /// smaller input.
    pub fn new(
        outer: BoxedBatchOp,
        inner: BoxedBatchOp,
        outer_keys: Vec<usize>,
        inner_keys: Vec<usize>,
        mode: JoinMode,
        pool: MemoryPool,
    ) -> Result<Self> {
        let (o, i) = (outer.schema(), inner.schema());
        let schema = join_schema("hash", (o, &outer_keys), (i, &inner_keys), mode)?;
        Ok(BatchHashJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            mode,
            pool,
            schema,
            state: OpState::Created,
            table: None,
            probe: None,
            selection: Vec::new(),
            cancel: CancelToken::none(),
        })
    }

    /// Polls `cancel` once per build-side batch while `open` builds.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

impl BatchOperator for BatchHashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.inner.open()?;
        let mut table = ChainedTable::new(&self.pool, 16)?;
        while let Some(batch) = self.inner.next_batch()? {
            self.cancel.check()?;
            let hashes = batch.hash_rows(&self.inner_keys);
            for (row, &h) in hashes.iter().enumerate() {
                table.insert(h, batch.tuple(row))?;
            }
        }
        self.inner.close()?;
        self.table = Some(table);
        self.outer.open()?;
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        let table = self.table.as_ref().expect("open builds table");
        if self.probe.is_none() {
            let Some(batch) = self.outer.next_batch()? else {
                return Ok(None);
            };
            let hashes = batch.hash_rows(&self.outer_keys);
            self.probe = Some((batch, hashes, 0));
        }
        let (batch, hashes, next_row) = self.probe.as_mut().expect("a probe batch");
        let matches = |row: usize, cand: &Tuple| {
            batch.row_eq_tuple(&self.outer_keys, row, cand, &self.inner_keys)
        };
        if self.mode == JoinMode::LeftSemi {
            self.selection.clear();
            for (row, &h) in hashes.iter().enumerate() {
                if table.find_hashed(h, |cand| matches(row, cand)).is_some() {
                    self.selection.push(row);
                }
            }
            let (batch, ..) = self.probe.take().expect("a probe batch");
            return Ok(Some(select(batch, &self.selection)));
        }
        // An output batch ends with the probe row that fills it: however
        // a join multiplies, it does a batch of work between two polls.
        let mut out = Batch::with_capacity(self.schema.clone(), batch.len());
        let mut found: Vec<Tuple> = Vec::new();
        while *next_row < batch.len() && out.len() < DEFAULT_BATCH_SIZE {
            let row = *next_row;
            *next_row += 1;
            found.clear();
            table.find(hashes[row], |cand| {
                if matches(row, cand) {
                    found.push(cand.clone());
                }
                false // keep walking the chain
            });
            for inner in &found {
                let mut vals = batch.tuple(row).into_values();
                vals.extend(inner.values().iter().cloned());
                out.push_tuple(&Tuple::new(vals));
            }
        }
        if *next_row == batch.len() {
            self.probe = None;
        }
        Ok(Some(out))
    }

    fn close(&mut self) -> Result<()> {
        (self.table, self.probe) = (None, None);
        self.state = OpState::Closed;
        let closed = self.outer.close();
        self.inner.close().and(closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::ExecError;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn rel(names: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(names.iter().map(|n| Field::int(*n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn join(outer: Relation, inner: Relation, mode: JoinMode) -> Relation {
        let j = BatchHashJoin::new(
            Box::new(BatchMemScan::new(outer)),
            Box::new(BatchMemScan::new(inner)),
            vec![0],
            vec![0],
            mode,
            MemoryPool::unbounded(),
        )
        .unwrap();
        collect_batches(Box::new(j), CancelToken::none()).unwrap()
    }

    #[test]
    fn semi_join_restricts_dividend_to_divisor_values() {
        let t = rel(&["sid", "cno"], &[&[1, 10], &[2, 10], &[1, 20], &[3, 30]]);
        let c = rel(&["cno"], &[&[10], &[20]]);
        let j = BatchHashJoin::new(
            Box::new(BatchMemScan::new(t)),
            Box::new(BatchMemScan::new(c)),
            vec![1],
            vec![0],
            JoinMode::LeftSemi,
            MemoryPool::unbounded(),
        )
        .unwrap();
        let out = collect_batches(Box::new(j), CancelToken::none()).unwrap();
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
        let out = join(l, r, JoinMode::Inner);
        assert_eq!(out.cardinality(), 4);
        assert_eq!(out.schema().arity(), 4);
    }

    #[test]
    fn unmatched_probe_tuples_are_dropped() {
        let l = rel(&["k"], &[&[1], &[2], &[3]]);
        let r = rel(&["k"], &[&[2]]);
        let out = join(l, r, JoinMode::LeftSemi);
        assert_eq!(out.tuples(), &[ints(&[2])]);
    }

    #[test]
    fn empty_build_side_matches_nothing() {
        let (l, e) = (rel(&["k"], &[&[1]]), rel(&["k"], &[]));
        for mode in [JoinMode::Inner, JoinMode::LeftSemi] {
            assert!(join(l.clone(), e.clone(), mode).is_empty());
        }
    }

    #[test]
    fn build_side_memory_exhaustion_surfaces() {
        let rows: Vec<Vec<i64>> = (0..10_000i64).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut j = BatchHashJoin::new(
            Box::new(BatchMemScan::new(rel(&["k"], &[&[1]]))),
            Box::new(BatchMemScan::new(rel(&["k"], &refs))),
            vec![0],
            vec![0],
            JoinMode::LeftSemi,
            MemoryPool::new(1024),
        )
        .unwrap();
        assert!(j.open().unwrap_err().is_memory_exhausted());
    }

    #[test]
    fn mismatched_keys_are_a_plan_error() {
        for mode in [JoinMode::Inner, JoinMode::LeftSemi] {
            for inner_keys in [vec![0, 0], vec![1]] {
                let l = BatchMemScan::new(rel(&["k"], &[&[1]]));
                let r = BatchMemScan::new(rel(&["k"], &[&[1]]));
                let pool = MemoryPool::unbounded();
                assert!(matches!(
                    BatchHashJoin::new(Box::new(l), Box::new(r), vec![0], inner_keys, mode, pool),
                    Err(ExecError::Plan(_))
                ));
            }
        }
    }

    #[test]
    fn hash_join_counts_hash_operations() {
        reldiv_rel::counters::reset();
        let l = rel(&["k"], &[&[1], &[2]]);
        let r = rel(&["k"], &[&[1], &[3], &[4]]);
        let _ = join(l, r, JoinMode::LeftSemi);
        let snap = reldiv_rel::counters::snapshot();
        // 3 build hashes + 2 probe hashes.
        assert_eq!(snap.hashes, 5);
    }
}
