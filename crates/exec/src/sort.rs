//! External merge sort with early aggregation and duplicate elimination.
//!
//! Follows the paper's implementation notes closely:
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

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use reldiv_rel::counters;
use reldiv_rel::{RecordCodec, Schema, Tuple, Value};
use reldiv_storage::file::ScanCursor;
use reldiv_storage::{FileId, StorageManager, StorageRef};

use crate::cancel::CancelToken;
use crate::op::{BoxedOp, OpState, Operator};
use crate::scan::spool;
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

/// The external merge sort operator.
pub struct Sort {
    input: BoxedOp,
    keys: Rc<Vec<usize>>,
    mode: SortMode,
    config: SortConfig,
    storage: StorageRef,
    codec: RecordCodec,
    state: OpState,
    source: Source,
    /// Runs awaiting deletion at close.
    live_runs: Vec<FileId>,
    cancel: CancelToken,
}

enum Source {
    NotOpen,
    Memory(std::vec::IntoIter<Tuple>),
    Merge(MergeState),
}

impl Sort {
    /// Creates a sort of `input` on `keys` (major to minor).
    pub fn new(
        storage: StorageRef,
        input: BoxedOp,
        keys: Vec<usize>,
        mode: SortMode,
        config: SortConfig,
    ) -> Result<Self> {
        let schema = input.schema().clone();
        check_keys(&schema, &keys, mode)?;
        Ok(Sort {
            codec: RecordCodec::new(schema),
            input,
            keys: Rc::new(keys),
            mode,
            config,
            storage,
            state: OpState::Created,
            source: Source::NotOpen,
            live_runs: Vec::new(),
            cancel: CancelToken::none(),
        })
    }

    /// Polls `cancel` every checkpoint stride during run generation and
    /// intermediate merge passes — both happen inside `open`, before the
    /// caller sees a single tuple.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Estimated in-memory bytes per buffered tuple.
    fn tuple_bytes(&self) -> usize {
        self.codec.record_width() + 24
    }

    /// Applies the mode's collapse to a sorted slice, in place.
    fn collapse(&self, tuples: &mut Vec<Tuple>) {
        match self.mode {
            SortMode::Plain => {}
            SortMode::Distinct => {
                tuples.dedup_by(|b, a| a.eq_on(&self.keys, b, &self.keys));
            }
            SortMode::CountAggregate => {
                let count_col = self.codec.schema().arity() - 1;
                let mut out: Vec<Tuple> = Vec::with_capacity(tuples.len());
                for t in tuples.drain(..) {
                    match out.last_mut() {
                        Some(last) if last.eq_on(&self.keys, &t, &self.keys) => {
                            let sum = last.value(count_col).as_int().unwrap_or(0)
                                + t.value(count_col).as_int().unwrap_or(0);
                            let mut vals = last.clone().into_values();
                            vals[count_col] = Value::Int(sum);
                            *last = Tuple::new(vals);
                        }
                        _ => out.push(t),
                    }
                }
                *tuples = out;
            }
        }
    }

    /// Spools sorted, collapsed tuples to a new run file on the run disk
    /// and registers it for deletion at close.
    fn write_run<T: std::borrow::Borrow<Tuple>>(
        &mut self,
        next: impl FnMut() -> Result<Option<T>>,
    ) -> Result<FileId> {
        let disk = run_disk(&self.storage.borrow(), self.codec.record_width());
        let run = spool(&self.storage, disk, &self.codec, next)?;
        self.live_runs.push(run);
        // One page-sized memory move per run page (assembling transfer
        // units), as priced by the analytical model's merge cost.
        counters::count_moves(self.storage.borrow().page_count(run)?);
        Ok(run)
    }

    /// Sorts and collapses the run-generation buffer and spools it as a
    /// run, leaving the buffer empty.
    fn flush_run(&mut self, buffer: &mut Vec<Tuple>) -> Result<FileId> {
        let keys = self.keys.clone();
        buffer.sort_by(|a, b| a.cmp_keys(b, &keys));
        self.collapse(buffer);
        let mut tuples = buffer.iter();
        let run = self.write_run(|| Ok(tuples.next()))?;
        buffer.clear();
        Ok(run)
    }

    fn delete_runs(&mut self, runs: &[FileId]) -> Result<()> {
        let mut sm = self.storage.borrow_mut();
        for &r in runs {
            sm.delete_file(r)?;
        }
        self.live_runs.retain(|r| !runs.contains(r));
        Ok(())
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let capacity = (self.config.memory_bytes / self.tuple_bytes()).max(16);
        let mut buffer: Vec<Tuple> = Vec::with_capacity(capacity.min(1 << 20));
        let mut runs: Vec<FileId> = Vec::new();

        // Phase 1: run generation with quicksort (std's sort counts its
        // comparisons through Tuple::cmp_keys).
        let mut budget = 0u32;
        while let Some(t) = self.input.next()? {
            self.cancel.checkpoint(&mut budget)?;
            buffer.push(t);
            if buffer.len() >= capacity {
                runs.push(self.flush_run(&mut buffer)?);
            }
        }
        self.input.close()?;

        if runs.is_empty() {
            // Entire input fits in the sort buffer: stream from memory.
            let keys = self.keys.clone();
            buffer.sort_by(|a, b| a.cmp_keys(b, &keys));
            self.collapse(&mut buffer);
            self.source = Source::Memory(buffer.into_iter());
            self.state = OpState::Open;
            return Ok(());
        }
        if !buffer.is_empty() {
            runs.push(self.flush_run(&mut buffer)?);
        }

        // Phase 2: merge passes until one final merge remains. Each pass
        // streams its output run tuple by tuple, never materializing it.
        while runs.len() > self.config.fan_in {
            let batch: Vec<FileId> = runs.drain(..self.config.fan_in).collect();
            let mut merge = MergeState::new(
                self.storage.clone(),
                &batch,
                self.codec.clone(),
                self.keys.clone(),
                self.mode,
            )?;
            let (storage, cancel) = (self.storage.clone(), self.cancel);
            runs.push(self.write_run(|| {
                cancel.checkpoint(&mut budget)?;
                merge.next(&storage)
            })?);
            self.delete_runs(&batch)?;
        }

        // Phase 3: final merge on demand by `next`.
        let merge = MergeState::new(
            self.storage.clone(),
            &runs,
            self.codec.clone(),
            self.keys.clone(),
            self.mode,
        )?;
        self.source = Source::Merge(merge);
        self.state = OpState::Open;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.state.require_open()?;
        match &mut self.source {
            Source::NotOpen => Err(ExecError::Protocol("sort source missing")),
            Source::Memory(iter) => Ok(iter.next()),
            Source::Merge(merge) => merge.next(&self.storage),
        }
    }

    fn close(&mut self) -> Result<()> {
        let runs = self.live_runs.clone();
        self.delete_runs(&runs)?;
        self.source = Source::NotOpen;
        self.state = OpState::Closed;
        Ok(())
    }
}

/// One run being merged.
struct RunCursor {
    cursor: ScanCursor,
}

/// Heap entry ordering tuples ascending by sort key (ties by run index for
/// stability), inverted for Rust's max-heap.
struct HeapEntry {
    tuple: Tuple,
    run: usize,
    keys: Rc<Vec<usize>>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the minimum first.
        self.tuple
            .cmp_keys(&other.tuple, &self.keys)
            .then(self.run.cmp(&other.run))
            .reverse()
    }
}

/// A multiway merge over sorted runs with mode-aware collapse.
struct MergeState {
    runs: Vec<RunCursor>,
    heap: BinaryHeap<HeapEntry>,
    keys: Rc<Vec<usize>>,
    mode: SortMode,
    codec: RecordCodec,
    /// Pending group for CountAggregate; last emitted key for Distinct.
    pending: Option<Tuple>,
}

impl MergeState {
    fn new(
        storage: StorageRef,
        runs: &[FileId],
        codec: RecordCodec,
        keys: Rc<Vec<usize>>,
        mode: SortMode,
    ) -> Result<Self> {
        let mut state = MergeState {
            runs: runs
                .iter()
                .map(|&f| RunCursor {
                    cursor: ScanCursor::new(f),
                })
                .collect(),
            heap: BinaryHeap::new(),
            keys,
            mode,
            codec,
            pending: None,
        };
        for i in 0..state.runs.len() {
            state.advance(&storage, i)?;
        }
        Ok(state)
    }

    /// Pulls the next tuple from run `i` into the heap.
    fn advance(&mut self, storage: &StorageRef, i: usize) -> Result<()> {
        let mut sm = storage.borrow_mut();
        if let Some((_, record)) = self.runs[i].cursor.next(&mut sm)? {
            let tuple = self.codec.decode(record)?;
            self.heap.push(HeapEntry {
                tuple,
                run: i,
                keys: self.keys.clone(),
            });
        }
        Ok(())
    }

    fn pop(&mut self, storage: &StorageRef) -> Result<Option<Tuple>> {
        match self.heap.pop() {
            Some(HeapEntry { tuple, run, .. }) => {
                self.advance(storage, run)?;
                Ok(Some(tuple))
            }
            None => Ok(None),
        }
    }

    fn next(&mut self, storage: &StorageRef) -> Result<Option<Tuple>> {
        match self.mode {
            SortMode::Plain => self.pop(storage),
            SortMode::Distinct => loop {
                let Some(t) = self.pop(storage)? else {
                    return Ok(None);
                };
                let dup = self
                    .pending
                    .as_ref()
                    .is_some_and(|p| p.eq_on(&self.keys, &t, &self.keys));
                if !dup {
                    self.pending = Some(t.clone());
                    return Ok(Some(t));
                }
            },
            SortMode::CountAggregate => {
                let count_col = self.codec.schema().arity() - 1;
                loop {
                    let Some(t) = self.pop(storage)? else {
                        return Ok(self.pending.take());
                    };
                    match self.pending.take() {
                        None => self.pending = Some(t),
                        Some(p) if p.eq_on(&self.keys, &t, &self.keys) => {
                            let sum = p.value(count_col).as_int().unwrap_or(0)
                                + t.value(count_col).as_int().unwrap_or(0);
                            let mut vals = p.into_values();
                            vals[count_col] = Value::Int(sum);
                            self.pending = Some(Tuple::new(vals));
                        }
                        Some(p) => {
                            self.pending = Some(t);
                            return Ok(Some(p));
                        }
                    }
                }
            }
        }
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
    use reldiv_storage::manager::StorageConfig;

    fn storage() -> StorageRef {
        StorageManager::shared(StorageConfig::paper())
    }

    fn rel2(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        Relation::from_tuples(schema, rows.iter().map(|r| ints(r)).collect()).unwrap()
    }

    fn sort_of(rel: Relation, keys: Vec<usize>, mode: SortMode, config: SortConfig) -> Relation {
        let s = Sort::new(storage(), Box::new(MemScan::new(rel)), keys, mode, config).unwrap();
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
            Box::new(MemScan::new(rel)),
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
            Box::new(MemScan::new(rel)),
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
            Box::new(MemScan::new(rel2(&[[1, 2]]))),
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
            Box::new(MemScan::new(rel2(&[[1, 2]]))),
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
