//! The merge semi-join of two sorted inputs. The hash join and hash
//! semi-join are [`crate::hash_join::BatchHashJoin`]; the tests here hold
//! both joins to tuple-at-a-time references.

use std::cmp::Ordering;

use reldiv_rel::{Batch, Schema};

use super::{hold_all, select, BatchOperator, BoxedBatchOp};
use crate::merge_join::{join_schema, JoinMode};
use crate::op::OpState;
use crate::Result;

/// Merge semi-join of two inputs sorted on their join keys: emits each
/// outer row that has a match — one comparison per step of the merging
/// scan, no outer row pulled once the inner rows are used up. The inner
/// input (a division's divisor) is held whole.
pub struct BatchMergeSemiJoin {
    outer: BoxedBatchOp,
    inner: BoxedBatchOp,
    outer_keys: Vec<usize>,
    inner_keys: Vec<usize>,
    state: OpState,
    inner_rows: Option<Batch>,
    /// The inner row the scan stands at.
    inner_at: usize,
    selection: Vec<usize>,
}

impl BatchMergeSemiJoin {
    /// Creates the semi-join of inputs sorted (ascending) on their keys.
    pub fn new(
        outer: BoxedBatchOp,
        inner: BoxedBatchOp,
        outer_keys: Vec<usize>,
        inner_keys: Vec<usize>,
    ) -> Result<Self> {
        let (o, i, mode) = (outer.schema(), inner.schema(), JoinMode::LeftSemi);
        join_schema("merge", (o, &outer_keys), (i, &inner_keys), mode)?;
        Ok(BatchMergeSemiJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            state: OpState::Created,
            inner_rows: None,
            inner_at: 0,
            selection: Vec::new(),
        })
    }
}

impl BatchOperator for BatchMergeSemiJoin {
    fn schema(&self) -> &Schema {
        self.outer.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.outer.open()?;
        (self.inner_rows, self.inner_at) = (Some(hold_all(&mut self.inner)?), 0);
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        let inner = self.inner_rows.as_ref().expect("open holds the inner rows");
        if self.inner_at == inner.len() {
            // Inner exhausted: remaining outer rows have no match.
            return Ok(None);
        }
        let Some(batch) = self.outer.next_batch()? else {
            return Ok(None);
        };
        self.selection.clear();
        let mut row = 0;
        while row < batch.len() && self.inner_at < inner.len() {
            let (ok, ik) = (&self.outer_keys, &self.inner_keys);
            match batch.cmp_rows(ok, row, inner, ik, self.inner_at) {
                Ordering::Less => row += 1,
                Ordering::Equal => {
                    // The inner row stays: it may match further outer rows.
                    self.selection.push(row);
                    row += 1;
                }
                Ordering::Greater => self.inner_at += 1,
            }
        }
        Ok(Some(select(batch, &self.selection)))
    }

    fn close(&mut self) -> Result<()> {
        self.inner_rows = None;
        self.state = OpState::Closed;
        let closed = self.outer.close();
        self.inner.close().and(closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::scan::BatchMemScan;
    use crate::batch::{collect_batches, DEFAULT_BATCH_SIZE};
    use crate::hash_join::BatchHashJoin;
    use crate::CancelToken;
    use crate::ExecError;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Relation, Tuple};
    use reldiv_storage::MemoryPool;

    fn rel(names: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(names.iter().map(|n| Field::int(*n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn hash_join(outer: &Relation, inner: &Relation, batch: usize, mode: JoinMode) -> Relation {
        let j = BatchHashJoin::new(
            Box::new(BatchMemScan::new(outer.clone()).with_batch_size(batch)),
            Box::new(BatchMemScan::new(inner.clone()).with_batch_size(batch)),
            vec![0],
            vec![0],
            mode,
            MemoryPool::unbounded(),
        )
        .unwrap();
        collect_batches(Box::new(j), CancelToken::none()).unwrap()
    }

    /// The tuple-at-a-time join on column 0, in the order the hash join
    /// emits: per outer tuple, its matches last-inserted first (`Inner`),
    /// or the outer tuple once if it has any (`LeftSemi`).
    fn tuple_join(outer: &Relation, inner: &Relation, mode: JoinMode) -> Vec<Tuple> {
        let mut out = Vec::new();
        for o in outer.tuples() {
            let matches = inner
                .tuples()
                .iter()
                .rev()
                .filter(|i| i.value(0) == o.value(0));
            match mode {
                JoinMode::Inner => {
                    out.extend(matches.map(|i| {
                        Tuple::new(o.values().iter().chain(i.values()).cloned().collect())
                    }))
                }
                JoinMode::LeftSemi => out.extend(matches.take(1).map(|_| o.clone())),
            }
        }
        out
    }

    #[test]
    fn inner_join_matches_tuple_path_byte_for_byte() {
        let l = rel(
            &["k", "x"],
            &[&[1, 100], &[1, 101], &[2, 200], &[3, 300], &[1, 102]],
        );
        let r = rel(&["k", "y"], &[&[1, 7], &[2, 9], &[1, 8]]);
        let batch_out = hash_join(&l, &r, 2, JoinMode::Inner);
        assert_eq!(batch_out.tuples(), tuple_join(&l, &r, JoinMode::Inner));
        assert_eq!(batch_out.cardinality(), 7);
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
            JoinMode::Inner,
            MemoryPool::new(1024),
        )
        .unwrap();
        assert!(j.open().unwrap_err().is_memory_exhausted());
    }

    #[test]
    fn mismatched_keys_are_a_plan_error() {
        let l = BatchMemScan::new(rel(&["k"], &[&[1]]));
        let r = BatchMemScan::new(rel(&["k"], &[&[1]]));
        assert!(matches!(
            BatchHashJoin::new(
                Box::new(l),
                Box::new(r),
                vec![0],
                vec![0, 0],
                JoinMode::Inner,
                MemoryPool::unbounded()
            ),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn semi_joins_match_the_tuple_joins_byte_for_byte() {
        // Sorted inputs; outer keys 8 and 9 lie past the last inner key.
        let outer: Vec<Vec<i64>> = (0..5000).map(|i| vec![i / 500, i]).collect();
        let outer: Vec<&[i64]> = outer.iter().map(|r| r.as_slice()).collect();
        let outer = rel(&["k", "x"], &outer);
        let all: Vec<[i64; 1]> = (0..10).map(|k| [k]).collect();
        let all = rel(&["k"], &all.iter().map(|r| &r[..]).collect::<Vec<_>>());
        for inner in [
            rel(&["k"], &[&[1], &[3], &[3], &[7]]),
            all,
            rel(&["k"], &[]),
        ] {
            let want = tuple_join(&outer, &inner, JoinMode::LeftSemi);
            let scans = || -> (BoxedBatchOp, BoxedBatchOp) {
                (
                    Box::new(BatchMemScan::new(outer.clone())),
                    Box::new(BatchMemScan::new(inner.clone()).with_batch_size(2)),
                )
            };
            let (o, i) = scans();
            let (k, mode, pool) = (vec![0], JoinMode::LeftSemi, MemoryPool::unbounded());
            let batch_hash = BatchHashJoin::new(o, i, k.clone(), k.clone(), mode, pool).unwrap();
            let batch_hash = collect_batches(Box::new(batch_hash), CancelToken::none()).unwrap();
            let (o, i) = scans();
            let batch_merge = BatchMergeSemiJoin::new(o, i, k.clone(), k).unwrap();
            let batch_merge = collect_batches(Box::new(batch_merge), CancelToken::none()).unwrap();
            assert_eq!(batch_hash.tuples(), want);
            assert_eq!(batch_merge.tuples(), want);
        }
    }

    #[test]
    fn a_many_to_many_join_keeps_its_batches_bounded() {
        let side = |n: i64| -> BoxedBatchOp {
            let rows: Vec<[i64; 2]> = (0..n).map(|i| [0, i]).collect();
            let rows: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
            Box::new(BatchMemScan::new(rel(&["k", "x"], &rows)))
        };
        let (k, mode, pool) = (vec![0], JoinMode::Inner, MemoryPool::unbounded());
        let mut join = BatchHashJoin::new(side(1500), side(300), k.clone(), k, mode, pool).unwrap();
        join.open().unwrap();
        let (mut rows, mut last) = (0, -1);
        while let Some(batch) = join.next_batch().unwrap() {
            assert!(batch.len() < DEFAULT_BATCH_SIZE + 300, "{}", batch.len());
            rows += batch.len();
            // Probe order survives the chunking.
            for t in batch.into_tuples() {
                let x = t.value(1).as_int().unwrap();
                assert!(x == last || x == last + 1);
                last = x;
            }
        }
        join.close().unwrap();
        assert_eq!(rows, 1500 * 300);
    }
}
