//! Vectorized hash-division: [`BatchHashDivision`], the operator of every
//! in-memory hash-division plan.
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
//! [`Tuple::hash_on`](reldiv_rel::Tuple::hash_on), chain layouts, divisor
//! numbers and memory accounting are *exactly* those of the
//! tuple-at-a-time operator this one replaced: the quotient comes out
//! byte-identical, and memory exhaustion fires at the same tuple (the
//! tests below hold it to that operator's recorded results).
//!
//! Per batch the operator pays two virtual calls and one cancellation poll
//! instead of one-plus-one per tuple, the hashes are computed in a tight
//! columnar loop, the compares read typed slices and count into locals,
//! and no candidate is a tuple until it leaves.

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
    use reldiv_exec::batch::collect_batches;
    use reldiv_exec::batch::scan::BatchMemScan;
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

    fn operator(
        dividend: &Relation,
        divisor: &Relation,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> BatchHashDivision {
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        BatchHashDivision::new(
            Box::new(BatchMemScan::new(dividend.clone())),
            Box::new(BatchMemScan::new(divisor.clone())),
            spec,
            mode,
            pool,
        )
        .unwrap()
    }

    /// The quotient's first column, in output order, and the run's
    /// statistics; `None` where the pool is exhausted.
    fn run(
        dividend: &Relation,
        divisor: &Relation,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> Option<(Vec<i64>, HashDivisionStats)> {
        let mut op = operator(dividend, divisor, mode, pool);
        if let Err(e) = op.open() {
            assert!(e.is_memory_exhausted(), "{e:?}");
            return None;
        }
        let mut out = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            out.extend(
                batch
                    .into_tuples()
                    .iter()
                    .map(|t| t.value(0).as_int().unwrap()),
            );
        }
        let stats = op.stats();
        op.close().unwrap();
        Some((out, stats))
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

    /// What the tuple-at-a-time operator produced on [`noisy_inputs`],
    /// recorded before this one replaced it: the students with at least
    /// four courses, in table order, under `Standard` and `EarlyOut` alike.
    const NOISY_QUOTIENT: [i64; 28] = [
        3, 4, 5, 6, 10, 11, 12, 13, 17, 18, 19, 20, 24, 25, 26, 27, 31, 32, 33, 34, 38, 39, 40, 41,
        45, 46, 47, 48,
    ];

    /// ... and its statistics there.
    const NOISY_STATS: HashDivisionStats = HashDivisionStats {
        divisor_count: 4,
        divisor_duplicates: 0,
        dividend_discarded: 92,
        candidates: 50,
        emitted: 28,
    };

    #[test]
    fn all_modes_match_the_tuple_path_byte_for_byte() {
        let (dividend, divisor) = noisy_inputs();
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            // CounterOnly requires a duplicate-free dividend.
            let (out, _) = run(&dividend, &divisor, mode, MemoryPool::unbounded()).unwrap();
            assert_eq!(out, NOISY_QUOTIENT, "mode {mode:?}");
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
        let (dividend, divisor) = (transcript(&rows), courses(&[0, 1, 2]));
        let mode = HashDivisionMode::CounterOnly;
        let (out, stats) = run(&dividend, &divisor, mode, MemoryPool::unbounded()).unwrap();
        // The tuple path's quotient and statistics, recorded.
        let expected: Vec<i64> = (0..40).filter(|sid| sid % 5 >= 2).collect();
        assert_eq!(out, expected);
        let recorded = HashDivisionStats {
            divisor_count: 3,
            divisor_duplicates: 0,
            dividend_discarded: 24,
            candidates: 40,
            emitted: 24,
        };
        assert_eq!(stats, recorded);
    }

    #[test]
    fn empty_divisor_yields_distinct_projection_on_both_paths() {
        let dividend = transcript(&[[1, 10], [1, 11], [2, 10], [1, 10]]);
        let divisor = courses(&[]);
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            let (out, stats) = run(&dividend, &divisor, mode, MemoryPool::unbounded()).unwrap();
            // The tuple path's, recorded: both students, in arrival order.
            assert_eq!(out, [1, 2], "mode {mode:?}");
            assert_eq!((stats.candidates, stats.emitted), (2, 2), "mode {mode:?}");
        }
    }

    #[test]
    fn stats_match_the_tuple_path() {
        let (dividend, divisor) = noisy_inputs();
        let mode = HashDivisionMode::Standard;
        let (_, stats) = run(&dividend, &divisor, mode, MemoryPool::unbounded()).unwrap();
        assert_eq!(stats, NOISY_STATS);
    }

    #[test]
    fn memory_exhaustion_fires_identically() {
        let (dividend, divisor) = noisy_inputs();
        // Where the tuple path ran out of memory, recorded: every budget
        // up to 1 KB fails, 4 KB holds both tables.
        for (budget, fits) in [
            (64, false),
            (256, false),
            (1024, false),
            (4096, true),
            (1 << 20, true),
        ] {
            let mode = HashDivisionMode::Standard;
            let got = run(&dividend, &divisor, mode, MemoryPool::new(budget));
            let expected = fits.then_some((NOISY_QUOTIENT.to_vec(), NOISY_STATS));
            assert_eq!(got, expected, "budget {budget}");
        }
    }

    #[test]
    fn expired_deadline_cancels_per_batch() {
        let (dividend, divisor) = noisy_inputs();
        let expired =
            CancelToken::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut op = operator(
            &dividend,
            &divisor,
            HashDivisionMode::Standard,
            MemoryPool::unbounded(),
        );
        op.set_cancel(expired);
        let err = collect_batches(Box::new(op), expired).unwrap_err();
        assert!(err.is_cancelled(), "expected Cancelled, got {err:?}");
    }
}
