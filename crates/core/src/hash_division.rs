//! Hash-division (Section 3, Figure 1) and its variants.
//!
//! The algorithm proceeds in three steps:
//!
//! 1. **Build the divisor table** ([`DivisorTable`]). Every divisor tuple
//!    is inserted into a bucket-chained hash table and assigned a unique
//!    *divisor number*; duplicates are eliminated on the fly.
//! 2. **Build the quotient table** ([`QuotientTable`]). For each dividend
//!    tuple: hash/match it on the divisor attributes against the divisor
//!    table (no match ⇒ discard — e.g. a Transcript tuple for a physics
//!    course); then hash/match its quotient attributes against the
//!    quotient table, creating a new *quotient candidate* with a zeroed
//!    bit map on a miss; finally set the bit indexed by the divisor
//!    number. Duplicate dividend tuples are ignored automatically — "they
//!    map to the same bit in the same bit map".
//! 3. **Scan the quotient table**, emitting candidates whose bit map has
//!    no remaining zero.
//!
//! [`crate::batch_div::BatchHashDivision`] packages the three steps as an
//! open-next-close operator; the tables are public so that the adaptive
//! hybrid ([`crate::hybrid`]) and the shared-nothing adaptation
//! (`reldiv-parallel`) can compose them differently — e.g. one divisor
//! table shared by many phases, or a collection phase that indexes bits by
//! phase number instead of divisor number.
//!
//! [`HashDivisionMode`] selects among the paper's variants:
//! * [`Standard`](HashDivisionMode::Standard) — the Figure 1 algorithm (a
//!   stop-and-go operator),
//! * [`EarlyOut`](HashDivisionMode::EarlyOut) — Section 3.3's incremental
//!   modification: a counter per candidate lets the operator emit a
//!   quotient tuple the moment its bit map completes, making it a usable
//!   producer in a dataflow system,
//! * [`CounterOnly`](HashDivisionMode::CounterOnly) — Section 3.3's sixth
//!   observation: when the dividend is known duplicate-free, counters
//!   replace divisor numbers and bit maps entirely.
//!
//! Both tables are flat — a `KeyTable` of divisor tuples, a `GroupTable`
//! of candidates' keys and bit-map words. Their buckets, chain elements,
//! keys and bit maps are accounted against the storage manager's memory
//! pool; exhaustion surfaces as `MemoryExhausted`, the trigger for the
//! overflow strategies.

use reldiv_exec::batch::BoxedBatchOp;
use reldiv_exec::cancel::CancelToken;
use reldiv_rel::{Batch, Schema, Tuple};
use reldiv_storage::MemoryPool;

use reldiv_exec::hash_table::KeyTable;

use crate::groups::{GroupTable, Probe, Tally};
use crate::Result;

/// Variant selection for hash-division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashDivisionMode {
    /// Figure 1: bit maps, quotient produced by a final table scan.
    #[default]
    Standard,
    /// Bit maps plus per-candidate counters; quotient tuples are produced
    /// incrementally while the dividend streams (Section 3.3).
    EarlyOut,
    /// Counters instead of bit maps; requires a duplicate-free dividend
    /// (Section 3.3, sixth observation).
    CounterOnly,
}

/// Statistics observable after a run, for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashDivisionStats {
    /// Distinct divisor tuples (duplicates eliminated on the fly).
    pub divisor_count: u64,
    /// Divisor duplicates dropped during step 1.
    pub divisor_duplicates: u64,
    /// Dividend tuples discarded for lack of a divisor match.
    pub dividend_discarded: u64,
    /// Quotient candidates created.
    pub candidates: u64,
    /// Quotient tuples emitted.
    pub emitted: u64,
}

/// What draining an input came to, once the input is closed — which it
/// is on every exit. The drain's error wins over the close's.
fn close_after<T>(drained: Result<T>, closed: Result<()>) -> Result<T> {
    let out = drained?;
    closed?;
    Ok(out)
}

/// Step 1's product: the divisor hash table with divisor numbers.
pub struct DivisorTable {
    /// The distinct divisor tuples, numbered in arrival order: entry `d`
    /// is divisor number `d`, charged its record width.
    table: KeyTable,
    /// Whether a probe compares only the chain elements of equal hash or,
    /// as the cost model does, all of them.
    prefilter: bool,
    duplicates: u64,
}

impl DivisorTable {
    fn empty(divisor: &Schema, pool: &MemoryPool, prefilter: bool) -> Result<Self> {
        Ok(DivisorTable {
            table: KeyTable::new(pool, divisor, divisor.record_width())?,
            prefilter,
            duplicates: 0,
        })
    }

    /// Builds the table by draining `divisor` (opened here, and closed on
    /// every exit) one batch at a time, eliminating duplicates on the fly
    /// and numbering distinct tuples in arrival order; hashes each batch
    /// with the bulk kernel and polls `cancel` once per batch. Each row is
    /// compared only with the chain elements of equal hash.
    pub fn build_batch(
        divisor: &mut BoxedBatchOp,
        pool: &MemoryPool,
        cancel: CancelToken,
    ) -> Result<Self> {
        Self::build_rows(divisor, pool, cancel, true)
    }

    /// [`DivisorTable::build_batch`] for the adaptive hybrid, whose
    /// operation counts are the cost model's: the build, and every
    /// [`DivisorTable::probe`] of the table, compares a row with all
    /// elements of its chain.
    pub(crate) fn build_batch_comparing_all(
        divisor: &mut BoxedBatchOp,
        pool: &MemoryPool,
        cancel: CancelToken,
    ) -> Result<Self> {
        Self::build_rows(divisor, pool, cancel, false)
    }

    fn build_rows(
        divisor: &mut BoxedBatchOp,
        pool: &MemoryPool,
        cancel: CancelToken,
        prefilter: bool,
    ) -> Result<Self> {
        let mut drain = || -> Result<Self> {
            divisor.open()?;
            let all: Vec<usize> = (0..divisor.schema().arity()).collect();
            let mut dt = Self::empty(divisor.schema(), pool, prefilter)?;
            while let Some(batch) = divisor.next_batch()? {
                cancel.check()?;
                let (probe, mut tally) = (Probe::new(&batch, &all), Tally::default());
                for (row, h) in batch.hash_rows(&all).into_iter().enumerate() {
                    match dt
                        .table
                        .find((h, None), (&probe, row), prefilter, &mut tally)
                    {
                        Some(_) => dt.duplicates += 1,
                        None => _ = dt.table.insert(h, (&probe, row))?,
                    }
                }
            }
            Ok(dt)
        };
        let built = drain();
        close_after(built, divisor.close())
    }

    /// Number of distinct divisor tuples (the width of every bit map).
    pub fn count(&self) -> u32 {
        self.table.len() as u32
    }

    /// Divisor duplicates dropped during the build.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Looks up a batch's rows in the table: the rows whose columns
    /// `divisor_keys` are a divisor tuple, with its number — every row, of
    /// none, when the divisor is empty (vacuously). One bulk hash pass, one
    /// typed probe; the compares are counted once.
    pub fn probe(&self, batch: &Batch, divisor_keys: &[usize]) -> (Vec<usize>, Vec<Option<u32>>) {
        if self.count() == 0 {
            return ((0..batch.len()).collect(), vec![None; batch.len()]);
        }
        let (probe, mut tally) = (Probe::new(batch, divisor_keys), Tally::default());
        let chains = self.table.chains(&batch.hash_rows(divisor_keys));
        let found = chains.into_iter().enumerate().filter_map(|(row, chain)| {
            let d = (self.table).find(chain, (&probe, row), self.prefilter, &mut tally)?;
            Some((row, Some(d as u32)))
        });
        found.unzip()
    }
}

/// Step 2/3's state: quotient candidates with bit maps.
pub struct QuotientTable {
    table: GroupTable,
    mode: HashDivisionMode,
    divisor_count: u32,
    quotient_keys: Vec<usize>,
    scan_pos: usize,
}

impl QuotientTable {
    /// Creates an empty quotient table for candidates projected onto
    /// `quotient_keys` of the dividend — rows of `quotient` — with
    /// `divisor_count`-bit maps.
    pub fn new(
        pool: &MemoryPool,
        mode: HashDivisionMode,
        divisor_count: u32,
        quotient_keys: Vec<usize>,
        quotient: &Schema,
    ) -> Result<Self> {
        Ok(QuotientTable {
            table: GroupTable::new(pool, quotient, mode, divisor_count)?,
            mode,
            divisor_count,
            quotient_keys,
            scan_pos: 0,
        })
    }

    /// Number of candidates.
    pub fn candidates(&self) -> u64 {
        self.table.len() as u64
    }

    /// Absorbs one dividend tuple already matched to `divisor_no`
    /// (`None` means the divisor is empty and the candidate is vacuously
    /// complete). Returns a quotient tuple when the `EarlyOut` mode
    /// completes a candidate.
    pub fn absorb(&mut self, t: &Tuple, divisor_no: Option<u32>) -> Result<Option<Tuple>> {
        let key = (t, &self.quotient_keys[..]);
        let h = t.hash_on(&self.quotient_keys);
        let mut tally = Tally::default();
        let absorbed = match self.table.find((h, None), key, false, &mut tally) {
            None => (self.table.insert(h, key, divisor_no)?, true),
            Some(g) => (
                g,
                divisor_no.is_some_and(|d| self.table.absorb(g, d, &mut tally)),
            ),
        };
        Ok(self.completed(absorbed).map(|g| self.table.keys().tuple(g)))
    }

    /// [`QuotientTable::absorb`] for the rows `rows` of a batch, matched to
    /// `divisor_nos`: one bulk hash pass over their quotient columns, one
    /// typed probe, each compared only with the candidates of equal hash; a
    /// new candidate's key is copied in. Returns the candidates `EarlyOut`
    /// completes.
    pub fn absorb_rows(
        &mut self,
        batch: &Batch,
        rows: &[usize],
        divisor_nos: &[Option<u32>],
    ) -> Result<Vec<usize>> {
        let keys = self.quotient_keys.clone();
        let chains = self.table.chains(&batch.hash_rows_at(&keys, rows));
        let (probe, mut tally) = (Probe::new(batch, &keys), Tally::default());
        // The chain heads hold until the batch inserts a candidate.
        let (mut inserted, mut done) = (false, Vec::new());
        for ((&row, &dno), (h, head)) in rows.iter().zip(divisor_nos).zip(chains) {
            let head = (h, head.filter(|_| !inserted));
            let absorbed = match self.table.find(head, (&probe, row), true, &mut tally) {
                None => {
                    inserted = true;
                    (self.table.insert(h, (&probe, row), dno)?, true)
                }
                Some(g) => (g, dno.is_some_and(|d| self.table.absorb(g, d, &mut tally))),
            };
            done.extend(self.completed(absorbed));
        }
        Ok(done)
    }

    /// The candidate `EarlyOut` completes with a tuple new to group `g`.
    fn completed(&self, (g, new): (usize, bool)) -> Option<usize> {
        let early = self.mode == HashDivisionMode::EarlyOut;
        (early && new && self.table.count(g) == u64::from(self.divisor_count)).then_some(g)
    }

    /// The candidates numbered `groups`, as quotient rows.
    pub fn rows(&self, groups: &[usize]) -> Batch {
        self.table.keys().gather(groups)
    }

    /// Step 3: the next complete candidate's number (none under `EarlyOut`,
    /// whose complete candidates left during the stream).
    pub fn next_complete_row(&mut self) -> Option<usize> {
        while self.scan_pos < self.table.len() {
            let g = self.scan_pos;
            self.scan_pos += 1;
            if self.mode != HashDivisionMode::EarlyOut && self.table.complete(g, self.divisor_count)
            {
                return Some(g);
            }
        }
        None
    }

    /// Step 3: pulls the next complete candidate from the final table
    /// scan, as a tuple.
    pub fn next_complete(&mut self) -> Option<Tuple> {
        let g = self.next_complete_row()?;
        Some(self.table.keys().tuple(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_div::BatchHashDivision;
    use crate::spec::DivisionSpec;
    use reldiv_exec::batch::scan::BatchMemScan;
    use reldiv_exec::batch::BatchOperator;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Relation, Value};

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("student-id"), Field::int("course-no")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("course-no")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn operator(
        dividend: Relation,
        divisor: Relation,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> BatchHashDivision {
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (dividend, divisor) = (BatchMemScan::new(dividend), BatchMemScan::new(divisor));
        BatchHashDivision::new(Box::new(dividend), Box::new(divisor), spec, mode, pool).unwrap()
    }

    /// Every quotient row of a drained operator, and its statistics.
    fn drain(mut op: BatchHashDivision) -> (Vec<Tuple>, HashDivisionStats) {
        op.open().unwrap();
        let mut out = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            out.extend(batch.into_tuples());
        }
        let stats = op.stats();
        op.close().unwrap();
        (out, stats)
    }

    fn divide(
        dividend: Relation,
        divisor: Relation,
        mode: HashDivisionMode,
    ) -> (Vec<i64>, HashDivisionStats) {
        let op = operator(dividend, divisor, mode, MemoryPool::unbounded());
        let (out, stats) = drain(op);
        let mut out: Vec<i64> = out.iter().map(|t| t.value(0).as_int().unwrap()).collect();
        out.sort_unstable();
        (out, stats)
    }

    const MODES: [HashDivisionMode; 3] = [
        HashDivisionMode::Standard,
        HashDivisionMode::EarlyOut,
        HashDivisionMode::CounterOnly,
    ];

    /// The paper's Figure 2 worked example: Ann and Barb's transcripts
    /// divided by the two database courses yields exactly Ann.
    #[test]
    fn figure2_example() {
        let schema_t = Schema::new(vec![Field::str("student", 8), Field::str("course", 12)]);
        let schema_c = Schema::new(vec![Field::str("course", 12)]);
        let t = Relation::from_tuples(
            schema_t,
            [
                ("Ann", "Database1"),
                ("Barb", "Database2"),
                ("Ann", "Database2"),
                ("Barb", "Optics"),
            ]
            .iter()
            .map(|&(s, c)| Tuple::new(vec![Value::from(s), Value::from(c)]))
            .collect(),
        )
        .unwrap();
        let c = Relation::from_tuples(
            schema_c,
            vec![
                Tuple::new(vec![Value::from("Database1")]),
                Tuple::new(vec![Value::from("Database2")]),
            ],
        )
        .unwrap();
        let op = operator(t, c, HashDivisionMode::Standard, MemoryPool::unbounded());
        let (out, stats) = drain(op);
        let names: Vec<&str> = out.iter().map(|q| q.value(0).as_str().unwrap()).collect();
        assert_eq!(names, vec!["Ann"], "only Ann took both database courses");
        assert_eq!(stats.divisor_count, 2);
        assert_eq!(stats.dividend_discarded, 1, "(Barb, Optics) is discarded");
        assert_eq!(stats.candidates, 2, "Ann and Barb are candidates");
    }

    #[test]
    fn exact_product_all_modes() {
        // R = Q x S: every student took every course.
        let mut rows = Vec::new();
        for q in 0..4 {
            for s in 0..3 {
                rows.push([q, 100 + s]);
            }
        }
        for mode in MODES {
            let (out, stats) = divide(transcript(&rows), courses(&[100, 101, 102]), mode);
            assert_eq!(out, vec![0, 1, 2, 3], "{mode:?}");
            assert_eq!(stats.emitted, 4);
        }
    }

    #[test]
    fn partial_groups_are_excluded() {
        let rows = [[1, 10], [1, 20], [2, 10], [3, 20], [3, 10]];
        for mode in MODES {
            let (out, _) = divide(transcript(&rows), courses(&[10, 20]), mode);
            assert_eq!(out, vec![1, 3], "{mode:?}");
        }
    }

    #[test]
    fn non_matching_dividend_tuples_are_discarded_early() {
        let rows = [[1, 10], [1, 99], [2, 10], [2, 99]];
        for mode in MODES {
            let (out, stats) = divide(transcript(&rows), courses(&[10]), mode);
            assert_eq!(out, vec![1, 2], "{mode:?}");
            assert_eq!(stats.dividend_discarded, 2, "{mode:?}");
        }
    }

    #[test]
    fn divisor_duplicates_are_eliminated_on_the_fly() {
        let rows = [[1, 10], [1, 20], [2, 10]];
        for mode in MODES {
            let (out, stats) = divide(transcript(&rows), courses(&[10, 20, 10, 20, 20]), mode);
            assert_eq!(out, vec![1], "{mode:?}");
            assert_eq!(stats.divisor_count, 2, "{mode:?}");
            assert_eq!(stats.divisor_duplicates, 3, "{mode:?}");
        }
    }

    #[test]
    fn dividend_duplicates_are_ignored_by_bitmap_modes() {
        // Student 2 has duplicate (2,10) rows but never took course 20:
        // counting would wrongly qualify them; bit maps do not.
        let rows = [[1, 10], [1, 20], [2, 10], [2, 10]];
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            let (out, _) = divide(transcript(&rows), courses(&[10, 20]), mode);
            assert_eq!(out, vec![1], "{mode:?}");
        }
        // CounterOnly documents the opposite: duplicates corrupt counts.
        let (out, _) = divide(
            transcript(&rows),
            courses(&[10, 20]),
            HashDivisionMode::CounterOnly,
        );
        assert_eq!(out, vec![1, 2], "counter mode is fooled by duplicates");
    }

    #[test]
    fn empty_divisor_yields_distinct_quotient_projection() {
        let rows = [[1, 10], [2, 20], [1, 30]];
        for mode in MODES {
            let (out, _) = divide(transcript(&rows), courses(&[]), mode);
            assert_eq!(out, vec![1, 2], "{mode:?}");
        }
    }

    #[test]
    fn empty_dividend_yields_empty_quotient() {
        for mode in MODES {
            let (out, _) = divide(transcript(&[]), courses(&[10]), mode);
            assert!(out.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn early_out_emits_before_dividend_is_exhausted() {
        // Student 1 completes after the first two tuples; a long tail
        // follows. The operator must emit 1 before consuming the tail.
        let mut rows = vec![[1, 10], [1, 20]];
        for i in 0..100 {
            rows.push([2 + i, 10]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[10, 20]);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let mut op = BatchHashDivision::new(
            Box::new(BatchMemScan::new(dividend).with_batch_size(2)),
            Box::new(BatchMemScan::new(divisor)),
            spec,
            HashDivisionMode::EarlyOut,
            MemoryPool::unbounded(),
        )
        .unwrap();
        op.open().unwrap();
        let first = op.next_batch().unwrap().unwrap();
        assert_eq!(first.into_tuples(), vec![ints(&[1])]);
        // At this point only the first batch of 2 of 102 dividend tuples
        // was needed; the candidate count proves the tail was not consumed.
        assert!(op.stats().candidates <= 2);
        while let Some(batch) = op.next_batch().unwrap() {
            assert!(batch.is_empty(), "no other candidate completes");
        }
        op.close().unwrap();
    }

    #[test]
    fn memory_exhaustion_surfaces_for_overflow_handling() {
        let mut rows = Vec::new();
        for q in 0..10_000 {
            rows.push([q, 1]);
        }
        let mode = HashDivisionMode::Standard;
        let mut op = operator(
            transcript(&rows),
            courses(&[1]),
            mode,
            MemoryPool::new(4096),
        );
        let err = op.open().unwrap_err();
        assert!(err.is_memory_exhausted());
    }

    #[test]
    fn multi_column_divisor_and_quotient() {
        // Dividend (q1, q2, d1, d2) / divisor (d1, d2).
        let dividend_schema = Schema::new(vec![
            Field::int("q1"),
            Field::int("q2"),
            Field::int("d1"),
            Field::int("d2"),
        ]);
        let divisor_schema = Schema::new(vec![Field::int("d1"), Field::int("d2")]);
        let dividend = Relation::from_tuples(
            dividend_schema,
            vec![
                ints(&[1, 1, 5, 50]),
                ints(&[1, 1, 6, 60]),
                ints(&[2, 2, 5, 50]),
                // (2,2) missing (6,60); (2,2,6,61) must not count.
                ints(&[2, 2, 6, 61]),
            ],
        )
        .unwrap();
        let divisor =
            Relation::from_tuples(divisor_schema, vec![ints(&[5, 50]), ints(&[6, 60])]).unwrap();
        let mode = HashDivisionMode::Standard;
        let (out, _) = drain(operator(dividend, divisor, mode, MemoryPool::unbounded()));
        assert_eq!(out, vec![ints(&[1, 1])]);
    }

    #[test]
    fn bit_operations_are_counted() {
        reldiv_rel::counters::reset();
        let rows = [[1, 10], [1, 20]];
        let (_, _) = divide(
            transcript(&rows),
            courses(&[10, 20]),
            HashDivisionMode::Standard,
        );
        let snap = reldiv_rel::counters::snapshot();
        assert!(
            snap.bitops >= 2,
            "at least one Bit per dividend tuple: {snap:?}"
        );
        assert!(snap.hashes >= 2 + 2 * 2, "divisor + 2 per dividend tuple");
    }

    #[test]
    fn divisor_table_is_reusable_across_phases() {
        // The overflow strategies keep one divisor table across phases.
        let mut divisor: BoxedBatchOp = Box::new(BatchMemScan::new(courses(&[10, 20, 30])));
        let none = CancelToken::none();
        let dt = DivisorTable::build_batch(&mut divisor, &MemoryPool::unbounded(), none).unwrap();
        assert_eq!(dt.count(), 3);
        let rows = transcript(&[[7, 20], [7, 99], [8, 30]]);
        let columns = reldiv_rel::Columns::from_relation(&rows);
        for _phase in 0..2 {
            assert_eq!(
                dt.probe(&columns.batches()[0], &[1]),
                (vec![0, 2], vec![Some(1), Some(2)])
            );
        }
    }
}
