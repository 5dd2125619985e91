//! What every external merge sort shares — its [`SortMode`]s, its
//! [`SortConfig`], the key check and the run-disk rule — and [`Sort`], the
//! tuple-at-a-time face of the one sort there is,
//! [`crate::batch::sort::BatchSort`].
//!
//! The sort follows the paper's implementation notes closely:
//!
//! * "Opening a sort operator prepares sorted runs and merges them until
//!   only one merge step is left. The final merge is performed on demand by
//!   the next function."
//! * "Our implementation of sort performs aggregation and duplicate
//!   elimination as early as possible, i.e., no intermediate run contains
//!   duplicate sort keys."
//! * Runs are spooled to the run disk, whose transfer size is 1 KB "to
//!   allow high fan-in".
//!
//! If the entire input fits into the sort buffer, no runs are spooled and
//! the sort costs no I/O — the buffer-pool effect the paper cites when its
//! experimental numbers beat the analytical model.

use reldiv_rel::{Batch, Schema, Tuple};
use reldiv_storage::{StorageManager, StorageRef};

use crate::batch::sort::BatchSort;
use crate::batch::{BatchOperator, BatchToTuple, DEFAULT_BATCH_SIZE};
use crate::cancel::CancelToken;
use crate::op::{BoxedOp, Operator};
use crate::{ExecError, Result};

/// What the sort does with tuples whose sort keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMode {
    /// Keep all tuples (stable).
    Plain,
    /// Keep the first tuple of each equal-key group — duplicate
    /// elimination during sorting, as the naive division and sort-based
    /// aggregation plans require.
    Distinct,
    /// Tuples are `(keys..., count)`; equal-key tuples are merged by
    /// summing the trailing count column. This realizes sort-based
    /// aggregation *inside* the sort, the paper's "obvious optimization".
    CountAggregate,
}

/// Sort resource configuration.
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Bytes of main memory for run generation (the paper: 100 KB of the
    /// 256 KB buffer "can be used as sort buffer").
    pub memory_bytes: usize,
    /// Maximum number of runs merged in one pass.
    pub fan_in: usize,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            memory_bytes: 100 * 1024,
            fan_in: 100,
        }
    }
}

/// Checks a sort's key list against its input schema and mode.
pub(crate) fn check_keys(schema: &Schema, keys: &[usize], mode: SortMode) -> Result<()> {
    if let Some(k) = keys.iter().find(|&&k| k >= schema.arity()) {
        return Err(ExecError::Plan(format!(
            "sort key {k} out of range for arity {}",
            schema.arity()
        )));
    }
    if mode == SortMode::CountAggregate && keys.contains(&(schema.arity() - 1)) {
        return Err(ExecError::Plan(
            "CountAggregate: the trailing count column cannot be a sort key".into(),
        ));
    }
    Ok(())
}

/// The rows of `width`-byte records a run holds: its sort space over the
/// bytes a buffered row is charged, its record and 24 bytes.
pub(crate) fn run_rows(config: &SortConfig, width: usize) -> usize {
    (config.memory_bytes / (width + 24)).max(16)
}

/// The disk run files of `width`-byte records go to: the 1 KB run disk
/// for high fan-in, unless the records are too wide for its pages, in
/// which case runs use the data disk's larger pages.
pub(crate) fn run_disk(sm: &StorageManager, width: usize) -> reldiv_storage::DiskId {
    let run_page = sm.page_size(StorageManager::RUN_DISK);
    if width <= reldiv_storage::page::SlottedPage::max_record(run_page) {
        StorageManager::RUN_DISK
    } else {
        StorageManager::DATA_DISK
    }
}

/// The external merge sort over a tuple input, a tuple at a time: a
/// [`BatchSort`] fed the input a batch at a time, its output bridged back
/// into tuples. Rows, counts, pages and run files are the batch sort's.
pub struct Sort(BatchToTuple<BatchSort>);

impl Sort {
    /// Creates a sort of `input` on `keys` (major to minor).
    pub fn new(
        storage: StorageRef,
        input: BoxedOp,
        keys: Vec<usize>,
        mode: SortMode,
        config: SortConfig,
    ) -> Result<Self> {
        let run_rows = run_rows(&config, input.schema().record_width());
        let input = Box::new(TupleBatches::new(input, run_rows));
        let sort = BatchSort::new(storage, input, keys, mode, config)?;
        Ok(Sort(BatchToTuple::new(Box::new(sort))))
    }

    /// Polls `cancel` during run generation and intermediate merge passes
    /// — both happen inside `open`, before the caller sees a single tuple.
    pub fn with_cancel(self, cancel: CancelToken) -> Self {
        Sort(BatchToTuple::new(Box::new(
            self.0.input.with_cancel(cancel),
        )))
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.0.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.0.next()
    }

    fn close(&mut self) -> Result<()> {
        self.0.close()
    }
}

/// A tuple input handed on [`DEFAULT_BATCH_SIZE`] rows at a time, a batch
/// ending where a run does: the sort writes a run before it pulls the row
/// after it, so an input that reads pages reads the next one after the
/// run's pages are written, as a tuple-at-a-time sort had it.
pub(crate) struct TupleBatches {
    input: BoxedOp,
    run_rows: usize,
    pulled: usize,
}

impl TupleBatches {
    /// `input` in batches that end every `run_rows` rows (`usize::MAX`:
    /// only where a batch is full).
    pub(crate) fn new(input: BoxedOp, run_rows: usize) -> TupleBatches {
        TupleBatches {
            input,
            run_rows,
            pulled: 0,
        }
    }
}

impl BatchOperator for TupleBatches {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.pulled = 0;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let rows = (self.run_rows - self.pulled % self.run_rows).min(DEFAULT_BATCH_SIZE);
        let mut batch = Batch::with_capacity(self.input.schema().clone(), rows);
        while batch.len() < rows {
            let Some(t) = self.input.next()? else { break };
            batch.push_tuple(&t);
        }
        self.pulled += batch.len();
        Ok((!batch.is_empty()).then_some(batch))
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::scan::BatchMemScan;
    use crate::op::collect;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Relation;
    use reldiv_storage::manager::StorageConfig;

    fn storage() -> StorageRef {
        StorageManager::shared(StorageConfig::paper())
    }

    fn rel2(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    /// A tuple scan of `rel`.
    fn scan(rel: Relation) -> BoxedOp {
        Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(rel))))
    }

    fn sort_of(rel: Relation, keys: Vec<usize>, mode: SortMode, config: SortConfig) -> Relation {
        let s = Sort::new(storage(), scan(rel), keys, mode, config).unwrap();
        collect(Box::new(s)).unwrap()
    }

    #[test]
    fn in_memory_sort_orders_major_minor() {
        let out = sort_of(
            rel2(&[[2, 1], [1, 2], [1, 1], [2, 0]]),
            vec![0, 1],
            SortMode::Plain,
            SortConfig::default(),
        );
        let got: Vec<String> = out.tuples().iter().map(|t| t.to_string()).collect();
        assert_eq!(got, vec!["(1, 1)", "(1, 2)", "(2, 0)", "(2, 1)"]);
    }

    #[test]
    fn in_memory_sort_costs_no_io() {
        let st = storage();
        let rel = rel2(&(0..100).map(|i| [100 - i, i]).collect::<Vec<_>>());
        let s = Sort::new(
            st.clone(),
            scan(rel),
            vec![0],
            SortMode::Plain,
            SortConfig::default(),
        )
        .unwrap();
        let out = collect(Box::new(s)).unwrap();
        assert_eq!(out.cardinality(), 100);
        assert_eq!(st.borrow().io_stats().transfers(), 0);
    }

    #[test]
    fn external_sort_with_tiny_memory_is_correct() {
        // Force many runs: memory for ~16 tuples, 10,000 input tuples.
        let mut rows: Vec<[i64; 2]> = (0..10_000).map(|i| [(i * 7919) % 10_000, i]).collect();
        let config = SortConfig {
            memory_bytes: 16 * 40,
            fan_in: 8,
        };
        let out = sort_of(rel2(&rows), vec![0, 1], SortMode::Plain, config);
        rows.sort();
        let expected: Vec<Tuple> = rows.iter().map(|r| ints(r)).collect();
        assert_eq!(out.tuples(), expected.as_slice());
    }

    #[test]
    fn external_sort_merges_multiple_passes() {
        // fan_in 2 with many runs forces several merge passes.
        let rows: Vec<[i64; 2]> = (0..2000).map(|i| [1999 - i, i]).collect();
        let config = SortConfig {
            memory_bytes: 16 * 40,
            fan_in: 2,
        };
        let out = sort_of(rel2(&rows), vec![0], SortMode::Plain, config);
        assert_eq!(out.cardinality(), 2000);
        for (i, t) in out.tuples().iter().enumerate() {
            assert_eq!(t.value(0).as_int().unwrap(), i as i64);
        }
    }

    #[test]
    fn distinct_mode_eliminates_duplicates_across_runs() {
        let rows: Vec<[i64; 2]> = (0..3000).map(|i| [i % 10, 0]).collect();
        let config = SortConfig {
            memory_bytes: 16 * 40,
            fan_in: 4,
        };
        let out = sort_of(rel2(&rows), vec![0, 1], SortMode::Distinct, config);
        assert_eq!(out.cardinality(), 10);
    }

    #[test]
    fn distinct_keeps_first_tuple_per_key() {
        // Key column 0; payload column 1 differs. First-in wins (stable).
        let out = sort_of(
            rel2(&[[5, 100], [5, 200], [3, 7]]),
            vec![0],
            SortMode::Distinct,
            SortConfig::default(),
        );
        assert_eq!(out.tuples(), &[ints(&[3, 7]), ints(&[5, 100])]);
    }

    #[test]
    fn count_aggregate_sums_trailing_counts() {
        // (group, count=1) tuples; groups of different sizes.
        let mut rows = Vec::new();
        for g in 0..5i64 {
            for _ in 0..=g {
                rows.push([g, 1]);
            }
        }
        let out = sort_of(
            rel2(&rows),
            vec![0],
            SortMode::CountAggregate,
            SortConfig::default(),
        );
        assert_eq!(out.cardinality(), 5);
        for (g, t) in out.tuples().iter().enumerate() {
            assert_eq!(t.value(1).as_int().unwrap(), g as i64 + 1, "group {g}");
        }
    }

    #[test]
    fn count_aggregate_spilling_runs_still_sums() {
        let rows: Vec<[i64; 2]> = (0..5000).map(|i| [i % 25, 1]).collect();
        let config = SortConfig {
            memory_bytes: 16 * 40,
            fan_in: 4,
        };
        let out = sort_of(rel2(&rows), vec![0], SortMode::CountAggregate, config);
        assert_eq!(out.cardinality(), 25);
        assert!(out
            .tuples()
            .iter()
            .all(|t| t.value(1).as_int().unwrap() == 200));
    }

    #[test]
    fn external_sort_performs_io_and_releases_runs() {
        let st = storage();
        let rows: Vec<[i64; 2]> = (0..20_000).map(|i| [(i * 31) % 20_000, i]).collect();
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        let rel = Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap();
        let mut s = Sort::new(
            st.clone(),
            scan(rel),
            vec![0],
            SortMode::Plain,
            SortConfig {
                memory_bytes: 8 * 1024,
                fan_in: 4,
            },
        )
        .unwrap();
        s.open().unwrap();
        let mut n = 0;
        while s.next().unwrap().is_some() {
            n += 1;
        }
        s.close().unwrap();
        assert_eq!(n, 20_000);
        // 20k tuples * 16 B = 320 KB exceed the 256 KB pool: real I/O.
        assert!(st.borrow().io_stats().transfers() > 0);
        // Close must have deleted every run file.
        let sm = st.borrow();
        assert_eq!(sm.disk_stats(StorageManager::RUN_DISK).bytes % 1024, 0);
    }

    #[test]
    fn sort_counts_comparisons() {
        reldiv_rel::counters::reset();
        let _ = sort_of(
            rel2(&(0..64).map(|i| [63 - i, 0]).collect::<Vec<_>>()),
            vec![0],
            SortMode::Plain,
            SortConfig::default(),
        );
        let comps = reldiv_rel::counters::snapshot().comparisons;
        // ~ n log n comparisons; must be at least n-1 and far less than n^2.
        assert!(comps >= 63, "comps = {comps}");
        assert!(comps <= 64 * 64, "comps = {comps}");
    }

    #[test]
    fn invalid_sort_key_is_a_plan_error() {
        let s = Sort::new(
            storage(),
            scan(rel2(&[[1, 2]])),
            vec![5],
            SortMode::Plain,
            SortConfig::default(),
        );
        assert!(matches!(s, Err(ExecError::Plan(_))));
    }

    #[test]
    fn count_aggregate_rejects_count_column_as_key() {
        let s = Sort::new(
            storage(),
            scan(rel2(&[[1, 2]])),
            vec![0, 1],
            SortMode::CountAggregate,
            SortConfig::default(),
        );
        assert!(matches!(s, Err(ExecError::Plan(_))));
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let out = sort_of(rel2(&[]), vec![0], SortMode::Plain, SortConfig::default());
        assert!(out.is_empty());
    }
}
