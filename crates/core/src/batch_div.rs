//! Vectorized hash-division: [`BatchHashDivision`], the batch-at-a-time
//! form of [`HashDivision`](crate::hash_division::HashDivision), and the
//! operator of every in-memory hash-division plan.
//!
//! The operator runs the same three steps over columnar
//! [`Batch`]es instead of single tuples:
//!
//! 1. **Build the divisor table** with
//!    [`DivisorTable::build_batch`]: one bulk hash per divisor batch, one
//!    cancellation poll per batch.
//! 2. **Build the quotient table**: per dividend batch, one divisor probe
//!    ([`DivisorTable::probe`]: a bulk hash of the divisor attributes and
//!    the batch's key columns typed once), then a bulk hash of the matched
//!    rows' quotient attributes only — a discarded row costs no quotient
//!    `Hash` — and one typed quotient probe
//!    ([`QuotientTable::absorb_rows`]), which copies a new candidate's key
//!    into the table's columns; the candidates `EarlyOut` completes leave
//!    with one `gather`.
//! 3. **Scan the quotient table**, gathering a batch of complete
//!    candidates at a time.
//!
//! Because the bulk hash kernel is bit-identical to
//! [`Tuple::hash_on`](reldiv_rel::Tuple::hash_on) and the batch probes
//! share the tuple path's tables, chain layouts, divisor numbers,
//! and memory accounting are *exactly* those of the tuple path: the
//! quotient comes out byte-identical, and memory exhaustion fires at the
//! same tuple. The tuple operator stays as the reference this operator's
//! tests compare against.
//!
//! What changes is the constant factor: per batch the operator pays two
//! virtual calls and one cancellation poll instead of one-plus-one per
//! tuple, the hashes are computed in a tight columnar loop, the compares
//! read typed slices and count into locals, and no candidate is a tuple
//! until it leaves.

use reldiv_exec::batch::{BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::op::OpState;
use reldiv_rel::{Batch, Schema};
use reldiv_storage::MemoryPool;

use crate::hash_division::{DivisorTable, HashDivisionMode, HashDivisionStats, QuotientTable};
use crate::spec::DivisionSpec;
use crate::Result;

/// The vectorized hash-division operator.
pub struct BatchHashDivision {
    dividend: BoxedBatchOp,
    divisor: BoxedBatchOp,
    spec: DivisionSpec,
    mode: HashDivisionMode,
    pool: MemoryPool,
    schema: Schema,
    state: OpState,
    divisor_table: Option<DivisorTable>,
    quotient_table: Option<QuotientTable>,
    streaming: bool,
    batch_size: usize,
    stats: HashDivisionStats,
    cancel: CancelToken,
}

impl BatchHashDivision {
    /// Creates a vectorized hash-division of `dividend ÷ divisor`
    /// described by `spec`.
    pub fn new(
        dividend: BoxedBatchOp,
        divisor: BoxedBatchOp,
        spec: DivisionSpec,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> Result<Self> {
        spec.validate(dividend.schema(), divisor.schema())?;
        let schema = spec.quotient_schema(dividend.schema())?;
        Ok(BatchHashDivision {
            dividend,
            divisor,
            spec,
            mode,
            pool,
            schema,
            state: OpState::Created,
            divisor_table: None,
            quotient_table: None,
            streaming: false,
            batch_size: DEFAULT_BATCH_SIZE,
            stats: HashDivisionStats::default(),
            cancel: CancelToken::none(),
        })
    }

    /// Installs a cancellation token, polled once per batch in the build
    /// and stream loops.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Overrides the output chunk size of the final table scan (tests).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Run statistics (meaningful once the operator has been drained).
    pub fn stats(&self) -> HashDivisionStats {
        let mut s = self.stats;
        if let Some(q) = &self.quotient_table {
            s.candidates = q.candidates();
        }
        s
    }

    /// Steps 1+2 for one dividend batch; returns the quotient rows the
    /// `EarlyOut` mode completed while absorbing it (empty otherwise).
    fn absorb_batch(&mut self, batch: &Batch) -> Result<Batch> {
        let dt = self.divisor_table.as_ref().expect("open builds tables");
        let qt = self.quotient_table.as_mut().expect("open builds tables");
        // Step 1: a row without a matching divisor tuple is discarded
        // before its quotient key is hashed.
        let (rows, dnos) = dt.probe(batch, &self.spec.divisor_keys);
        self.stats.dividend_discarded += (batch.len() - rows.len()) as u64;
        let done = qt.absorb_rows(batch, &rows, &dnos)?;
        self.stats.emitted += done.len() as u64;
        Ok(match done.is_empty() {
            true => Batch::with_capacity(self.schema.clone(), 0),
            false => qt.rows(&done),
        })
    }
}

impl BatchOperator for BatchHashDivision {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.stats = HashDivisionStats::default();
        let dt = DivisorTable::build_batch(&mut self.divisor, &self.pool, self.cancel)?;
        self.stats.divisor_count = dt.count() as u64;
        self.stats.divisor_duplicates = dt.duplicates();
        let qt = QuotientTable::new(
            &self.pool,
            self.mode,
            dt.count(),
            self.spec.quotient_keys.clone(),
            &self.schema,
        )?;
        self.divisor_table = Some(dt);
        self.quotient_table = Some(qt);
        self.dividend.open()?;
        match self.mode {
            HashDivisionMode::Standard | HashDivisionMode::CounterOnly => {
                // Stop-and-go: consume the whole dividend now, polling
                // the token once per batch.
                while let Some(batch) = self.dividend.next_batch()? {
                    self.cancel.check()?;
                    self.absorb_batch(&batch)?;
                }
                self.dividend.close()?;
                self.streaming = false;
            }
            HashDivisionMode::EarlyOut => {
                self.streaming = true;
            }
        }
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        // EarlyOut: absorb one dividend batch per call, emitting whatever
        // candidates it completed — possibly an empty batch, which tells
        // the caller "still working" and keeps the poll cadence bounded.
        if self.streaming {
            return match self.dividend.next_batch()? {
                Some(batch) => {
                    self.cancel.check()?;
                    Ok(Some(self.absorb_batch(&batch)?))
                }
                None => {
                    self.dividend.close()?;
                    self.streaming = false;
                    // All complete candidates were already emitted.
                    Ok(None)
                }
            };
        }
        // Step 3: chunk the final quotient-table scan into batches, a
        // batch's complete candidates gathered at once.
        let qt = self.quotient_table.as_mut().expect("open builds tables");
        let mut done = Vec::with_capacity(self.batch_size);
        while done.len() < self.batch_size {
            match qt.next_complete_row() {
                Some(g) => done.push(g),
                None => break,
            }
        }
        self.stats.emitted += done.len() as u64;
        Ok((!done.is_empty()).then(|| qt.rows(&done)))
    }

    fn close(&mut self) -> Result<()> {
        // Children's `close` is idempotent, so closing here is safe even
        // when `open`/`next_batch` already closed them — and necessary
        // when a mid-build error left them open.
        let dividend = self.dividend.close();
        let divisor = self.divisor.close();
        // "free divisor table ... free quotient table".
        self.divisor_table = None;
        self.quotient_table = None;
        self.state = OpState::Closed;
        dividend?;
        divisor?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_division::HashDivision;
    use reldiv_exec::batch::collect_batches;
    use reldiv_exec::batch::scan::BatchMemScan;
    use reldiv_exec::op::{collect, BoxedOp, Operator};
    use reldiv_exec::scan::MemScan;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("student-id"), Field::int("course-no")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("course-no")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    const MODES: [HashDivisionMode; 3] = [
        HashDivisionMode::Standard,
        HashDivisionMode::EarlyOut,
        HashDivisionMode::CounterOnly,
    ];

    fn both_paths(
        dividend: &Relation,
        divisor: &Relation,
        mode: HashDivisionMode,
    ) -> (Relation, Relation) {
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let tuple_op: BoxedOp = Box::new(
            HashDivision::new(
                Box::new(MemScan::new(dividend.clone())),
                Box::new(MemScan::new(divisor.clone())),
                spec.clone(),
                mode,
                MemoryPool::unbounded(),
            )
            .unwrap(),
        );
        let batch_op = BatchHashDivision::new(
            Box::new(BatchMemScan::new(dividend.clone())),
            Box::new(BatchMemScan::new(divisor.clone())),
            spec,
            mode,
            MemoryPool::unbounded(),
        )
        .unwrap();
        (
            collect(tuple_op).unwrap(),
            collect_batches(Box::new(batch_op), CancelToken::none()).unwrap(),
        )
    }

    /// A workload with duplicates, noise rows (no divisor match), and
    /// both complete and incomplete candidates.
    fn noisy_inputs() -> (Relation, Relation) {
        let mut rows = Vec::new();
        for sid in 0..50 {
            for cno in 0..(sid % 7) + 1 {
                rows.push([sid, cno]);
            }
            rows.push([sid, 1000 + sid]); // noise: no divisor match
            rows.push([sid, 0]); // duplicate dividend tuple
        }
        (transcript(&rows), courses(&[0, 1, 2, 3]))
    }

    #[test]
    fn all_modes_match_the_tuple_path_byte_for_byte() {
        let (dividend, divisor) = noisy_inputs();
        for mode in MODES {
            if mode == HashDivisionMode::CounterOnly {
                // CounterOnly requires a duplicate-free dividend.
                continue;
            }
            let (tuple, batch) = both_paths(&dividend, &divisor, mode);
            assert_eq!(tuple, batch, "mode {mode:?}");
            assert!(!tuple.is_empty(), "workload must produce a quotient");
        }
    }

    #[test]
    fn counter_only_matches_on_duplicate_free_input() {
        let mut rows = Vec::new();
        for sid in 0..40 {
            for cno in 0..(sid % 5) + 1 {
                rows.push([sid, cno]);
            }
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[0, 1, 2]);
        let (tuple, batch) = both_paths(&dividend, &divisor, HashDivisionMode::CounterOnly);
        assert_eq!(tuple, batch);
    }

    #[test]
    fn empty_divisor_yields_distinct_projection_on_both_paths() {
        let dividend = transcript(&[[1, 10], [1, 11], [2, 10], [1, 10]]);
        let divisor = courses(&[]);
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            let (tuple, batch) = both_paths(&dividend, &divisor, mode);
            assert_eq!(tuple, batch, "mode {mode:?}");
            assert_eq!(batch.cardinality(), 2);
        }
    }

    #[test]
    fn stats_match_the_tuple_path() {
        let (dividend, divisor) = noisy_inputs();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut tuple_op = HashDivision::new(
            Box::new(MemScan::new(dividend.clone())),
            Box::new(MemScan::new(divisor.clone())),
            spec.clone(),
            HashDivisionMode::Standard,
            MemoryPool::unbounded(),
        )
        .unwrap();
        tuple_op.open().unwrap();
        while tuple_op.next().unwrap().is_some() {}
        let tuple_stats = tuple_op.stats();
        tuple_op.close().unwrap();

        let mut batch_op = BatchHashDivision::new(
            Box::new(BatchMemScan::new(dividend)),
            Box::new(BatchMemScan::new(divisor)),
            spec,
            HashDivisionMode::Standard,
            MemoryPool::unbounded(),
        )
        .unwrap();
        batch_op.open().unwrap();
        while batch_op.next_batch().unwrap().is_some() {}
        let batch_stats = batch_op.stats();
        batch_op.close().unwrap();
        assert_eq!(tuple_stats, batch_stats);
    }

    #[test]
    fn memory_exhaustion_fires_identically() {
        let (dividend, divisor) = noisy_inputs();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        // Find the smallest budget where the tuple path succeeds by
        // bisection is overkill: just compare outcomes over a ramp.
        for budget in [64usize, 256, 1024, 4096, 1 << 20] {
            let tuple_op: BoxedOp = Box::new(
                HashDivision::new(
                    Box::new(MemScan::new(dividend.clone())),
                    Box::new(MemScan::new(divisor.clone())),
                    spec.clone(),
                    HashDivisionMode::Standard,
                    MemoryPool::new(budget),
                )
                .unwrap(),
            );
            let batch_op = BatchHashDivision::new(
                Box::new(BatchMemScan::new(dividend.clone())),
                Box::new(BatchMemScan::new(divisor.clone())),
                spec.clone(),
                HashDivisionMode::Standard,
                MemoryPool::new(budget),
            )
            .unwrap();
            let tuple = collect(tuple_op);
            let batch = collect_batches(Box::new(batch_op), CancelToken::none());
            match (tuple, batch) {
                (Ok(t), Ok(b)) => assert_eq!(t, b, "budget {budget}"),
                (Err(te), Err(be)) => {
                    assert!(te.is_memory_exhausted(), "budget {budget}: {te:?}");
                    assert!(be.is_memory_exhausted(), "budget {budget}: {be:?}");
                }
                (t, b) => panic!("paths diverged at budget {budget}: {t:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_cancels_per_batch() {
        let (dividend, divisor) = noisy_inputs();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let expired =
            CancelToken::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut op = BatchHashDivision::new(
            Box::new(BatchMemScan::new(dividend)),
            Box::new(BatchMemScan::new(divisor)),
            spec,
            HashDivisionMode::Standard,
            MemoryPool::unbounded(),
        )
        .unwrap();
        op.set_cancel(expired);
        let err = collect_batches(Box::new(op), expired).unwrap_err();
        assert!(err.is_cancelled(), "expected Cancelled, got {err:?}");
    }
}
