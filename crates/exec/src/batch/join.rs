//! Vectorized joins: the hash join (inner and left-semi) and the merge
//! semi-join.
//!
//! Build and probe of the hash join both run through the packed-key
//! kernels: one [`Batch::hash_rows`] call per batch replaces a `hash_on`
//! per tuple, and chain candidates are compared column-against-tuple
//! without materializing the probe row. The build table and emission
//! order are those of [`crate::hash_join::HashJoin`] (matches leave each
//! probe row in chain-walk order; a semi-join keeps the matching probe
//! rows in order), so a batch join is byte-identical to the tuple join.

use std::cmp::Ordering;

use reldiv_rel::{Batch, Schema, Tuple};
use reldiv_storage::MemoryPool;

use super::{hold_all, BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use crate::cancel::CancelToken;
use crate::hash_table::ChainedTable;
use crate::merge_join::{join_schema, JoinMode};
use crate::op::OpState;
use crate::Result;

/// The rows of `batch` at `selection`: the batch itself if that is all.
fn select(batch: Batch, selection: &[usize]) -> Batch {
    if selection.len() == batch.len() {
        batch
    } else {
        batch.gather(selection)
    }
}

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

/// Merge semi-join of two inputs sorted on their join keys: emits each
/// outer row that has a match, as [`crate::merge_join::MergeJoin`] in
/// `LeftSemi` mode does — one comparison per step of the merging scan,
/// no outer row pulled once the inner rows are used up. The inner input
/// (a division's divisor) is held whole.
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
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::hash_join::HashJoin;
    use crate::op::collect;
    use crate::scan::MemScan;
    use crate::CancelToken;
    use crate::ExecError;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn rel(names: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(names.iter().map(|n| Field::int(*n)).collect());
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    #[test]
    fn inner_join_matches_tuple_path_byte_for_byte() {
        let l = rel(
            &["k", "x"],
            &[&[1, 100], &[1, 101], &[2, 200], &[3, 300], &[1, 102]],
        );
        let r = rel(&["k", "y"], &[&[1, 7], &[2, 9], &[1, 8]]);
        let tuple_out = collect(Box::new(
            HashJoin::new(
                Box::new(MemScan::new(l.clone())),
                Box::new(MemScan::new(r.clone())),
                vec![0],
                vec![0],
                JoinMode::Inner,
            )
            .unwrap()
            .with_pool(MemoryPool::unbounded()),
        ))
        .unwrap();
        let batch_out = collect_batches(
            Box::new(
                BatchHashJoin::new(
                    Box::new(BatchMemScan::new(l).with_batch_size(2)),
                    Box::new(BatchMemScan::new(r).with_batch_size(2)),
                    vec![0],
                    vec![0],
                    JoinMode::Inner,
                    MemoryPool::unbounded(),
                )
                .unwrap(),
            ),
            CancelToken::none(),
        )
        .unwrap();
        assert_eq!(tuple_out.tuples(), batch_out.tuples());
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
        use crate::merge_join::MergeJoin;
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
            let tuple_hash = collect(Box::new(
                HashJoin::new(
                    Box::new(MemScan::new(outer.clone())),
                    Box::new(MemScan::new(inner.clone())),
                    vec![0],
                    vec![0],
                    JoinMode::LeftSemi,
                )
                .unwrap()
                .with_pool(MemoryPool::unbounded()),
            ))
            .unwrap();
            let tuple_merge = collect(Box::new(
                MergeJoin::new(
                    Box::new(MemScan::new(outer.clone())),
                    Box::new(MemScan::new(inner.clone())),
                    vec![0],
                    vec![0],
                    JoinMode::LeftSemi,
                )
                .unwrap(),
            ))
            .unwrap();
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
            assert_eq!(tuple_hash, batch_hash);
            assert_eq!(tuple_merge, batch_merge);
            assert_eq!(batch_hash, batch_merge);
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
