//! Memory-adaptive hybrid hash-division.
//!
//! The paper's Section 3.4 overflow story is a *static* ladder: a
//! partitioning mode and cluster count are chosen up front (from size
//! estimates) and the whole division restarts on every rung. This module
//! is quotient partitioning done *dynamically* — the one quotient-side
//! overflow mechanism; [`crate::overflow`]'s divisor partitioning runs it
//! for every phase.
//!
//! It keeps the Section 3 parts: the divisor table, resident for every
//! phase, the probe that gives each dividend row its divisor number, and
//! the completeness test. The quotient candidates are groups with a
//! bit-map aggregate (a count, in counter mode) in the partition engine
//! every hash grouping spills through, [`reldiv_exec::hybrid`], which
//! spills, revives and re-partitions them; a division that fits never
//! touches disk and reports the clean `"in-memory"` phase. Spills, revives
//! and recursion are recorded in the [`DegradationReport`] and as profile
//! spans.

use reldiv_exec::batch::{drain_batches, BoxedBatchOp};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::groups::GroupTable;
use reldiv_exec::hybrid::Hybrid;
pub use reldiv_exec::hybrid::{DEFAULT_FANOUT, MAX_RECURSION_DEPTH};
use reldiv_exec::profile::{ProfileSink, SpanKind, SpanScope};
use reldiv_rel::Relation;
use reldiv_storage::{MemoryPool, StorageRef};

use crate::hash_division::{DivisorTable, HashDivisionMode};
use crate::report::DegradationReport;
use crate::spec::DivisionSpec;
use crate::{ExecError, Result};

/// Emits the complete candidates of `groups` into `out`, gathered at once.
fn emit_complete(groups: &GroupTable, divisor_count: u32, out: &mut Relation) -> Result<()> {
    let complete: Vec<usize> = (0..groups.len())
        .filter(|&g| groups.complete(g, divisor_count))
        .collect();
    for t in groups.keys().gather(&complete).into_tuples() {
        out.push(t).map_err(ExecError::from)?;
    }
    Ok(())
}

/// Memory-adaptive hybrid hash-division with spill accounting into
/// `report` and optional profiling.
///
/// The divisor table must fit in the pool ("the divisor table must be
/// kept in main memory during all phases" of quotient partitioning);
/// `MemoryExhausted` from its build is the caller's cue to partition the
/// divisor instead.
#[allow(clippy::too_many_arguments)] // the full division context
pub fn adaptive_hybrid_report(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: BoxedBatchOp,
    mut divisor: BoxedBatchOp,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    fanout: usize,
    cancel: CancelToken,
    profile: Option<&ProfileSink>,
    report: &mut DegradationReport,
) -> Result<Relation> {
    if fanout < 2 {
        return Err(ExecError::Plan("adaptive hybrid needs fanout >= 2".into()));
    }
    spec.validate(dividend.schema(), divisor.schema())?;
    let quotient_schema = spec.quotient_schema(dividend.schema())?;
    report.note_phase("in-memory");
    let span = profile.map(|sink| {
        SpanScope::enter(
            sink,
            "hash-division (adaptive)",
            SpanKind::HashDivision,
            Some(storage.clone()),
        )
    });

    // Step 1 once: the divisor table stays resident for every phase. Its
    // chains are walked the way the cost model counts.
    let dt = DivisorTable::build_batch_comparing_all(&mut divisor, pool, cancel)?;

    // EarlyOut's incremental emission cannot survive a spill (a completed
    // candidate would be re-emitted by the merge pass), so the adaptive
    // path runs it as Standard; the quotient set is identical.
    let agg = match mode {
        HashDivisionMode::EarlyOut => HashDivisionMode::Standard,
        mode => mode,
    };
    let agg = agg.aggregate(dt.count());
    let mut hybrid = Hybrid::new(
        storage,
        pool,
        quotient_schema.clone(),
        agg,
        fanout,
        cancel,
        profile,
    );
    let keys = &spec.quotient_keys[..];
    // Steps 1 and 2 a batch of the dividend at a time: the rows with a
    // divisor tuple, and its number, then their quotient keys hashed in
    // one pass, so a noise row costs no hash. Draining closes the
    // dividend on every exit.
    let absorbed = drain_batches(dividend, cancel, |batch| {
        let (rows, dnos) = dt.probe(&batch, &spec.divisor_keys);
        let hashes = batch.hash_rows_at(keys, &rows);
        hybrid.absorb_rows((&batch, keys), (&rows, &hashes, &dnos), report)
    });
    // Step 3, partition by partition. The engine deletes its files before
    // the span closes, on every exit.
    let mut quotient = Relation::empty(quotient_schema);
    let divisor_count = dt.count();
    let result = match absorbed {
        Ok(()) => hybrid.finish(false, report, |groups| {
            emit_complete(groups, divisor_count, &mut quotient)
        }),
        Err(e) => {
            drop(hybrid);
            Err(e)
        }
    };
    drop(span);
    result.map(|()| quotient)
}

/// [`adaptive_hybrid_report`] without cancellation, profiling, or an
/// existing report — the plain entry point for tests and tools.
pub fn adaptive_hybrid(
    storage: &StorageRef,
    pool: &MemoryPool,
    dividend: BoxedBatchOp,
    divisor: BoxedBatchOp,
    spec: &DivisionSpec,
    mode: HashDivisionMode,
    fanout: usize,
) -> Result<(Relation, DegradationReport)> {
    let mut report = DegradationReport::new();
    let rel = adaptive_hybrid_report(
        storage,
        pool,
        dividend,
        divisor,
        spec,
        mode,
        fanout,
        CancelToken::none(),
        None,
        &mut report,
    )?;
    Ok((rel, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_exec::batch::scan::BatchMemScan;
    use reldiv_exec::batch::BatchOperator;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::{Batch, Schema};
    use reldiv_storage::buffer::RetryPolicy;
    use reldiv_storage::manager::StorageConfig;
    use reldiv_storage::StorageManager;
    use reldiv_storage::{FaultPlan, StorageError};
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn transcript(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("sid"), Field::int("cno")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn courses(nos: &[i64]) -> Relation {
        let schema = Schema::new(vec![Field::int("cno")]);
        Relation::from_tuples(schema, nos.iter().map(|&n| ints(&[n])).collect()).unwrap()
    }

    fn storage() -> StorageRef {
        StorageManager::shared(StorageConfig::large())
    }

    fn sids(rel: &Relation) -> Vec<i64> {
        let mut v: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        v.sort_unstable();
        v
    }

    fn run_with_pool(
        dividend: &Relation,
        divisor: &Relation,
        mode: HashDivisionMode,
        pool: MemoryPool,
    ) -> (Vec<i64>, DegradationReport) {
        let st = storage();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (rel, report) = adaptive_hybrid(
            &st,
            &pool,
            Box::new(BatchMemScan::new(dividend.clone())),
            Box::new(BatchMemScan::new(divisor.clone())),
            &spec,
            mode,
            DEFAULT_FANOUT,
        )
        .unwrap();
        (sids(&rel), report)
    }

    fn workload() -> (Relation, Relation, Vec<i64>) {
        let mut rows = Vec::new();
        for s in 0..60i64 {
            for c in 0..=(s % 13) {
                rows.push([s, c]);
            }
        }
        let expected: Vec<i64> = (0..60).filter(|s| s % 13 >= 7).collect();
        (
            transcript(&rows),
            courses(&(0..8).collect::<Vec<_>>()),
            expected,
        )
    }

    #[test]
    fn clean_run_spills_nothing() {
        let (dividend, divisor, expected) = workload();
        for mode in [HashDivisionMode::Standard, HashDivisionMode::EarlyOut] {
            let (out, report) = run_with_pool(&dividend, &divisor, mode, MemoryPool::unbounded());
            assert_eq!(out, expected, "{mode:?}");
            assert!(!report.degraded, "{mode:?}");
            assert_eq!(report.final_phase(), Some("in-memory"));
            assert_eq!(report.spill_bytes, 0);
            assert_eq!(report.partitions_spilled, 0);
        }
    }

    /// Peak memory of a fully in-memory run, for picking budgets that
    /// genuinely under- or over-provision the workload.
    fn in_memory_peak(dividend: &Relation, divisor: &Relation, mode: HashDivisionMode) -> usize {
        let pool = MemoryPool::unbounded();
        run_with_pool(dividend, divisor, mode, pool.clone());
        pool.peak()
    }

    #[test]
    fn tight_budget_spills_and_still_matches() {
        let mut rows = Vec::new();
        for q in 0..3000i64 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let peak = in_memory_peak(&dividend, &divisor, HashDivisionMode::Standard);
        for frac in [8, 4, 2] {
            let budget = peak / frac;
            let (out, report) = run_with_pool(
                &dividend,
                &divisor,
                HashDivisionMode::Standard,
                MemoryPool::new(budget),
            );
            assert_eq!(out.len(), 3000, "budget={budget}");
            assert_eq!(out, (0..3000).collect::<Vec<_>>());
            assert!(report.degraded, "budget={budget}");
            assert!(report.partitions_spilled > 0, "budget={budget}");
            assert!(report.spill_bytes > 0);
            assert_eq!(report.phases[0], "in-memory: memory exhausted");
            assert!(report.final_phase().unwrap().starts_with("adaptive-hybrid"));
        }
    }

    #[test]
    fn only_some_partitions_spill_under_mild_pressure() {
        // A budget that holds most of the quotient table: the adaptive
        // path must not evict all 16 partitions.
        let mut rows = Vec::new();
        for q in 0..2000i64 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let peak = in_memory_peak(&dividend, &divisor, HashDivisionMode::Standard);
        let (out, report) = run_with_pool(
            &dividend,
            &divisor,
            HashDivisionMode::Standard,
            MemoryPool::new(peak * 7 / 8),
        );
        assert_eq!(out.len(), 2000);
        assert!(report.partitions_spilled >= 1);
        assert!(
            report.partitions_spilled < DEFAULT_FANOUT as u32,
            "incremental spill must keep some partitions resident: {}",
            report.partitions_spilled
        );
    }

    #[test]
    fn counter_mode_matches_under_pressure() {
        let mut rows = Vec::new();
        for q in 0..2500i64 {
            rows.push([q, 1]);
            if q % 3 == 0 {
                rows.push([q, 2]);
            }
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let expected: Vec<i64> = (0..2500).filter(|q| q % 3 == 0).collect();
        let (out, report) = run_with_pool(
            &dividend,
            &divisor,
            HashDivisionMode::CounterOnly,
            MemoryPool::new(32 * 1024),
        );
        assert_eq!(out, expected);
        assert!(report.degraded);
    }

    #[test]
    fn empty_divisor_is_vacuous() {
        let dividend = transcript(&[[1, 10], [2, 20], [1, 30]]);
        let divisor = courses(&[]);
        let (out, _) = run_with_pool(
            &dividend,
            &divisor,
            HashDivisionMode::Standard,
            MemoryPool::unbounded(),
        );
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_divisor_is_vacuous_under_pressure() {
        let rows: Vec<[i64; 2]> = (0..4000i64).map(|q| [q, q % 7]).collect();
        let dividend = transcript(&rows);
        let divisor = courses(&[]);
        let (out, report) = run_with_pool(
            &dividend,
            &divisor,
            HashDivisionMode::Standard,
            MemoryPool::new(24 * 1024),
        );
        assert_eq!(out, (0..4000).collect::<Vec<_>>());
        assert!(report.degraded);
    }

    #[test]
    fn empty_dividend_is_empty() {
        let (out, report) = run_with_pool(
            &transcript(&[]),
            &courses(&[1]),
            HashDivisionMode::Standard,
            MemoryPool::new(16 * 1024),
        );
        assert!(out.is_empty());
        assert!(!report.degraded);
    }

    #[test]
    fn duplicate_dividend_tuples_stay_harmless_across_spills() {
        // Student 2 has duplicates of (2,1) but never took course 2; a
        // count-based merge would wrongly qualify them.
        let mut rows = vec![[1, 1], [1, 2]];
        for _ in 0..50 {
            rows.push([2, 1]);
        }
        for q in 3..2000i64 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let (out, report) = run_with_pool(
            &dividend,
            &divisor,
            HashDivisionMode::Standard,
            MemoryPool::new(24 * 1024),
        );
        let expected: Vec<i64> = std::iter::once(1).chain(3..2000).collect();
        assert_eq!(out, expected);
        assert!(report.degraded, "the workload must actually spill");
    }

    #[test]
    fn skewed_hot_group_accumulates_instead_of_spilling_per_tuple() {
        // One student holds ~50% of the dividend; the hot-group
        // accumulator must keep the spill volume near the non-skewed
        // tuples' share rather than one delta record per hot tuple.
        let mut rows = Vec::new();
        for c in 0..2000i64 {
            rows.push([7, c % 4]); // hot group: 2000 tuples, 4 courses
        }
        for q in 0..500i64 {
            rows.push([1000 + q, 0]);
            rows.push([1000 + q, 1]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[0, 1, 2, 3]);
        let (out, report) = run_with_pool(
            &dividend,
            &divisor,
            HashDivisionMode::Standard,
            MemoryPool::new(16 * 1024),
        );
        assert_eq!(out, vec![7], "only the hot student took all 4 courses");
        assert!(report.degraded);
        // 2000 hot tuples at ~24 bytes each would be ~48 KB of deltas if
        // the hot group spilled per-tuple; the accumulator keeps the
        // total well under that.
        assert!(
            report.spill_bytes < 40_000,
            "hot group must not spill per-tuple: {} bytes",
            report.spill_bytes
        );
    }

    #[test]
    fn freed_memory_revives_spilled_partitions() {
        let mut rows = Vec::new();
        for q in 0..4000i64 {
            rows.push([q, 1]);
            rows.push([q, 2]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1, 2]);
        let st = storage();
        let pool = MemoryPool::new(256 * 1024);
        // A neighbour hogs 90% of the pool for the first quarter of the
        // stream (four batches of 500), then finishes.
        let mut held = Some(pool.reserve(230 * 1024).unwrap());
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (scan, _) = watched(&dividend, move |batch| {
            if batch == Some(4) {
                drop(held.take());
            }
        });
        let mut report = DegradationReport::new();
        let rel = adaptive_hybrid_report(
            &st,
            &pool,
            scan,
            Box::new(BatchMemScan::new(divisor)),
            &spec,
            HashDivisionMode::Standard,
            DEFAULT_FANOUT,
            CancelToken::none(),
            None,
            &mut report,
        )
        .unwrap();
        assert_eq!(sids(&rel), (0..4000).collect::<Vec<_>>());
        assert!(report.partitions_spilled > 0, "must spill while squeezed");
        assert!(
            report.partitions_revived > 0,
            "freed memory must revive spilled partitions: {report:?}"
        );
    }

    #[test]
    fn impossible_budget_hits_the_recursion_limit() {
        // A divisor so wide that a single bit map exceeds the pool: no
        // amount of quotient re-partitioning can make a group fit, so the
        // typed recursion error must surface (the Auto ladder's cue to
        // partition the divisor instead).
        let mut rows = Vec::new();
        for d in 0..3000i64 {
            rows.push([1, d]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&(0..3000).collect::<Vec<_>>());
        let st = storage();
        // Big enough for the divisor table, too small for any quotient
        // entry's 3000-bit map plus table overhead... the divisor table
        // for 3000 ints needs ~130 KB; give a pool that fits it with only
        // a sliver to spare.
        let dt_pool = MemoryPool::unbounded();
        let mut probe: BoxedBatchOp = Box::new(BatchMemScan::new(divisor.clone()));
        let dt = DivisorTable::build_batch(&mut probe, &dt_pool, CancelToken::none()).unwrap();
        assert_eq!(dt.count(), 3000);
        let needed = dt_pool.peak();
        // Headroom fits an empty partition table but never a 3000-bit
        // quotient entry (~384 bytes of bit map alone), at any depth.
        let pool = MemoryPool::new(needed + 300);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let err = adaptive_hybrid(
            &st,
            &pool,
            Box::new(BatchMemScan::new(dividend)),
            Box::new(BatchMemScan::new(divisor)),
            &spec,
            HashDivisionMode::Standard,
            4,
        )
        .unwrap_err();
        assert!(err.is_recursion_limit(), "want RecursionLimit, got {err:?}");
    }

    #[test]
    fn respool_bytes_stay_separate_from_spill_bytes() {
        // Force recursion: a modest budget with a huge candidate count
        // makes first-pass merges overflow and re-partition.
        let rows: Vec<[i64; 2]> = (0..12_000i64).map(|q| [q, 1]).collect();
        let dividend = transcript(&rows);
        let divisor = courses(&[1]);
        let st = storage();
        let pool = MemoryPool::new(12 * 1024);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (rel, report) = adaptive_hybrid(
            &st,
            &pool,
            Box::new(BatchMemScan::new(dividend)),
            Box::new(BatchMemScan::new(divisor)),
            &spec,
            HashDivisionMode::Standard,
            4,
        )
        .unwrap();
        assert_eq!(rel.cardinality(), 12_000);
        assert!(report.recursion_depth >= 1, "{report:?}");
        assert!(report.respool_bytes > 0, "{report:?}");
        // Re-spooled bytes must not inflate the first-time spill count:
        // every dividend tuple is spilled at most once (plus table-state
        // flushes), so spill_bytes stays well under the total rewritten.
        assert!(report.spill_bytes < report.spill_bytes + report.respool_bytes);
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let mut rows = Vec::new();
        for q in 0..3000i64 {
            rows.push([q, 1]);
        }
        let dividend = transcript(&rows);
        let divisor = courses(&[1]);
        let st = storage();
        let files_before = st.borrow().file_count();
        let pool = MemoryPool::new(20 * 1024);
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        let (rel, report) = adaptive_hybrid(
            &st,
            &pool,
            Box::new(BatchMemScan::new(dividend)),
            Box::new(BatchMemScan::new(divisor)),
            &spec,
            HashDivisionMode::Standard,
            DEFAULT_FANOUT,
        )
        .unwrap();
        assert_eq!(rel.cardinality(), 3000);
        assert!(report.degraded);
        assert_eq!(
            st.borrow().file_count(),
            files_before,
            "all spill files must be deleted"
        );
    }

    /// A scan that counts its opens and closes and calls `hook` before it
    /// hands out a batch (with the number handed out so far) and when it
    /// is closed (with `None`).
    struct Watched {
        inner: BatchMemScan,
        calls: Rc<Cell<(u32, u32)>>,
        batches: usize,
        hook: Box<dyn FnMut(Option<usize>)>,
    }

    impl BatchOperator for Watched {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn open(&mut self) -> Result<()> {
            self.calls.set((self.calls.get().0 + 1, self.calls.get().1));
            self.inner.open()
        }
        fn next_batch(&mut self) -> Result<Option<Batch>> {
            (self.hook)(Some(self.batches));
            self.batches += 1;
            self.inner.next_batch()
        }
        fn close(&mut self) -> Result<()> {
            (self.hook)(None);
            self.calls.set((self.calls.get().0, self.calls.get().1 + 1));
            self.inner.close()
        }
    }

    /// `rel` under watch: the scan, and its `(opens, closes)`.
    fn watched(
        rel: &Relation,
        hook: impl FnMut(Option<usize>) + 'static,
    ) -> (BoxedBatchOp, Rc<Cell<(u32, u32)>>) {
        let calls = Rc::new(Cell::new((0, 0)));
        let scan = Watched {
            inner: BatchMemScan::new(rel.clone()).with_batch_size(500),
            calls: calls.clone(),
            batches: 0,
            hook: Box::new(hook),
        };
        (Box::new(scan), calls)
    }

    /// What `divisor`'s table takes of a pool.
    fn divisor_table_bytes(divisor: &Relation) -> usize {
        let pool = MemoryPool::unbounded();
        let mut scan: BoxedBatchOp = Box::new(BatchMemScan::new(divisor.clone()));
        DivisorTable::build_batch(&mut scan, &pool, CancelToken::none()).unwrap();
        pool.peak()
    }

    /// 3000 complete groups over two courses.
    fn pairs() -> (Relation, Relation) {
        let rows: Vec<[i64; 2]> = (0..3000).flat_map(|q| [[q, 1], [q, 2]]).collect();
        (transcript(&rows), courses(&[1, 2]))
    }

    #[test]
    fn inputs_are_closed_on_every_error_exit() {
        static TRIPPED: AtomicBool = AtomicBool::new(false);
        // One failing run: the error, and the `(opens, closes)` of the
        // dividend and the divisor scan. It leaves no file and no pin.
        let fails = |(dividend, divisor): &(Relation, Relation), pool, cancel| {
            let st = storage();
            let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
            let (r, r_calls) = watched(dividend, |batch| {
                TRIPPED.fetch_or(batch == Some(2), Ordering::Relaxed);
            });
            let (s, s_calls) = watched(divisor, |_| {});
            let err = adaptive_hybrid_report(
                &st,
                &MemoryPool::new(pool),
                r,
                s,
                &spec,
                HashDivisionMode::Standard,
                4,
                cancel,
                None,
                &mut DegradationReport::new(),
            )
            .unwrap_err();
            let sm = st.borrow();
            assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0), "{err}");
            (err, r_calls.get(), s_calls.get())
        };

        // The token trips as the third batch is pulled, spills under way.
        let token = CancelToken::none().with_abort(&TRIPPED);
        let (err, dividend, divisor) = fails(&pairs(), 24 * 1024, token);
        assert!(err.is_cancelled(), "{err}");
        assert_eq!((dividend, divisor), ((1, 1), (1, 1)));

        // One group over 3000 courses. With half the divisor table's bytes
        // the build runs out, and the dividend is never opened.
        let one_group: Vec<[i64; 2]> = (0..3000).map(|d| [1, d]).collect();
        let wide = (
            transcript(&one_group),
            courses(&(0..3000).collect::<Vec<_>>()),
        );
        let table = divisor_table_bytes(&wide.1);
        let (err, dividend, divisor) = fails(&wide, table / 2, CancelToken::none());
        assert!(err.is_memory_exhausted(), "{err}");
        assert_eq!((dividend, divisor), ((0, 0), (1, 1)));

        // With 300 bytes beside it no 3000-bit group ever fits, at any depth.
        let (err, dividend, divisor) = fails(&wide, table + 300, CancelToken::none());
        assert!(err.is_recursion_limit(), "{err}");
        assert_eq!((dividend, divisor), ((1, 1), (1, 1)));
    }

    /// Two 512-byte frames: every third page a query touches costs a
    /// transfer, so spill I/O reaches the disk at once.
    fn two_frames() -> StorageRef {
        let storage = StorageManager::shared(StorageConfig {
            data_page_size: 512,
            buffer_bytes: 1024,
            ..StorageConfig::large()
        });
        storage.borrow_mut().set_retry_policy(RetryPolicy::none());
        storage
    }

    #[test]
    fn a_storage_fault_in_the_spill_path_comes_back_as_it_is_and_leaves_nothing() {
        let (dividend, divisor) = pairs();
        let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema()).unwrap();
        // One run on `pool` bytes, `kept` of them out of the query's reach
        // until its input ends, under `at_start`'s faults from the start
        // and `at_end`'s once the input ends. It fails with the storage
        // error, leaving no file and no pin: the report of how far it got.
        let faulted = |pool, kept, at_start: Option<FaultPlan>, at_end: Option<FaultPlan>| {
            let st = two_frames();
            let pool = MemoryPool::new(pool);
            let mut kept = Some(pool.reserve(kept).unwrap());
            if let Some(plan) = at_start {
                st.borrow_mut().inject_faults(&plan);
            }
            let hooked = st.clone();
            let (r, _) = watched(&dividend, move |batch| {
                if batch.is_none() {
                    drop(kept.take());
                    if let Some(plan) = &at_end {
                        hooked.borrow_mut().inject_faults(plan);
                    }
                }
            });
            let mut report = DegradationReport::new();
            let err = adaptive_hybrid_report(
                &st,
                &pool,
                r,
                Box::new(BatchMemScan::new(divisor.clone())),
                &spec,
                HashDivisionMode::Standard,
                DEFAULT_FANOUT,
                CancelToken::none(),
                None,
                &mut report,
            )
            .unwrap_err();
            assert!(
                matches!(err, ExecError::Storage(StorageError::Transient { .. })),
                "{err}"
            );
            let sm = st.borrow();
            assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
            report
        };
        let every_write = || Some(FaultPlan::seeded(21).with_write_error_rate(1.0));
        let every_read = || Some(FaultPlan::seeded(21).with_read_error_rate(1.0));

        // A victim's state write: the first victim's table is the first
        // thing to outgrow two frames.
        let report = faulted(64 * 1024, 0, every_write(), None);
        assert!(report.degraded, "{report:?}");
        assert_eq!((report.partitions_spilled, report.spill_bytes), (0, 0));

        // A pool of `table` bytes holds the divisor table and nothing
        // else — no partition table, no hot group — so every row becomes a
        // delta record and no merge fits. A delta flush: no victim was
        // written, only deltas were.
        let table = divisor_table_bytes(&divisor);
        let report = faulted(table, 0, every_write(), None);
        assert_eq!(report.partitions_spilled, 0, "{report:?}");
        assert!(report.spill_bytes > 0, "{report:?}");

        // A merge read: given room when the input ends, the first merge
        // reads partition 0's deltas back.
        let report = faulted(1 << 20, (1 << 20) - table, None, every_read());
        assert_eq!(report.spill_bytes, 6000 * 16, "{report:?}");
        assert_eq!((report.recursion_depth, report.respool_bytes), (0, 0));

        // A re-partition write: no merge fits, so the first write after
        // the input ends is a sub-partition's.
        let report = faulted(table, 0, None, every_write());
        assert_eq!(report.recursion_depth, 1, "{report:?}");

        // `Auto` hands the fault up as it is: only the first write fails,
        // so a ladder that took it for exhaustion would go on and succeed.
        let st = two_frames();
        let first_write = FaultPlan::seeded(21).with_write_failure_at(0);
        st.borrow_mut().inject_faults(&first_write);
        let config = crate::api::DivisionConfig {
            mem_budget: Some(24 * 1024),
            ..Default::default()
        };
        let err = crate::api::divide(
            &st,
            &crate::api::Source::from_relation(&dividend),
            &crate::api::Source::from_relation(&divisor),
            &spec,
            crate::Algorithm::HashDivision {
                mode: HashDivisionMode::Standard,
            },
            &config,
        )
        .unwrap_err();
        assert!(
            matches!(err, ExecError::Storage(StorageError::Transient { .. })),
            "{err}"
        );
        let sm = st.borrow();
        assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
    }
}
