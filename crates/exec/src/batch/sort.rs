//! The external merge sort of the batch engine.
//!
//! Everything observable is [`crate::sort::Sort`]'s — the [`SortMode`]s,
//! run boundaries (`memory_bytes / (record_width + 24)` rows a run), the
//! run-disk rule, `fan_in`, the on-demand final merge, "no run contains
//! duplicate keys", one counted move per run page — so on one input and
//! one [`SortConfig`] the two sorts emit the same rows in the same order
//! and read and write the same pages. What differs is the work per row:
//! the buffer holds validated fixed-width records
//! ([`Batch::encode_records`]) and sorts their normalized keys
//! ([`RecordKey`]: one integer compare for keys up to 16 bytes), and runs
//! go out and come back a page at a time into a merge that allocates
//! nothing per record. Comparator calls are counted in bulk.

use reldiv_rel::schema::Field;
use reldiv_rel::{counters, Batch, ColumnType, ColumnVec, RecordKey, Schema};
use reldiv_storage::file::{Appender, ScanCursor};
use reldiv_storage::{FileId, StorageRef};

use super::{BatchOperator, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use crate::cancel::CancelToken;
use crate::op::OpState;
use crate::sort::{check_keys, run_disk, SortConfig, SortMode};
use crate::Result;

/// A row's packed key (at most 16 bytes) and its number, in 20 bytes where
/// a `(u128, u32)` pads to 32. Like `Sort`'s tuples it is over 16 bytes,
/// the size past which the standard library's stable sort takes the same
/// steps, so the two sorts make the same comparisons.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct PackedEntry {
    key: u128,
    row: u32,
}

/// Sorts `entries` — a normalized key and a row number for every row of
/// `records`, read by `key` and `row` — and collapses equal keys as `mode`
/// says: the first arrival survives, taking the others' counts under
/// `CountAggregate`. Returns the rows left, in order; the comparator calls
/// are counted in one go.
fn sort_collapse<E, K: Ord>(
    mut entries: Vec<E>,
    (key, row): (impl Fn(&E) -> K, impl Fn(&E) -> u32),
    mode: SortMode,
    records: &mut [u8],
    width: usize,
) -> Vec<u32> {
    let mut comps = 0u64;
    // A stable sort on the key alone: equal keys keep their row order, and
    // the comparisons are those `Sort`'s stable sort of the same keys makes.
    entries.sort_by(|a, b| {
        comps += 1;
        key(a).cmp(&key(b))
    });
    if mode != SortMode::Plain {
        entries.dedup_by(|dup, kept| {
            comps += 1;
            let same = key(dup) == key(kept);
            if same && mode == SortMode::CountAggregate {
                let count = read_count(&records[row(dup) as usize * width..][..width]);
                add_count(&mut records[row(kept) as usize * width..][..width], count);
            }
            same
        });
    }
    counters::count_comparisons(comps);
    entries.iter().map(row).collect()
}

/// The trailing `Int` count column of a `CountAggregate` record.
fn read_count(record: &[u8]) -> i64 {
    let at = record.len() - 8;
    i64::from_le_bytes(record[at..].try_into().expect("8 bytes"))
}

fn add_count(record: &mut [u8], count: i64) {
    let (at, sum) = (record.len() - 8, read_count(record) + count);
    record[at..].copy_from_slice(&sum.to_le_bytes());
}

/// The external merge sort operator, batch-at-a-time.
pub struct BatchSort {
    input: BoxedBatchOp,
    /// Whether every input row gets a `count = 1` column appended.
    append_one: bool,
    schema: Schema,
    width: usize,
    key: RecordKey,
    mode: SortMode,
    config: SortConfig,
    storage: StorageRef,
    state: OpState,
    source: Option<Source>,
    /// The run files that exist, oldest first; deleted at close.
    runs: Vec<FileId>,
    cancel: CancelToken,
}

enum Source {
    /// The input fit the sort space: its records and the rows to emit.
    Memory {
        records: Vec<u8>,
        order: std::vec::IntoIter<u32>,
    },
    Merge(Box<Merge>),
}

impl BatchSort {
    /// Creates a sort of `input` on `keys` (major to minor); arguments
    /// and errors are [`crate::sort::Sort::new`]'s.
    pub fn new(
        storage: StorageRef,
        input: BoxedBatchOp,
        keys: Vec<usize>,
        mode: SortMode,
        config: SortConfig,
    ) -> Result<Self> {
        let schema = input.schema().clone();
        check_keys(&schema, &keys, mode)?;
        Ok(BatchSort {
            input,
            append_one: false,
            width: super::record_width(&schema)?,
            key: RecordKey::new(&schema, &keys),
            schema,
            mode,
            config,
            storage,
            state: OpState::Created,
            source: None,
            runs: Vec::new(),
            cancel: CancelToken::none(),
        })
    }

    /// The sort-based `COUNT(*) GROUP BY`: every input row is widened
    /// with `count = 1` and equal `group_keys` sum their counts in every
    /// run and merge step. Output rows are the input's columns and the
    /// count: a [`crate::sort::Sort`] in `CountAggregate` mode over the
    /// input widened with the count.
    pub fn counting(
        storage: StorageRef,
        input: BoxedBatchOp,
        group_keys: Vec<usize>,
        config: SortConfig,
    ) -> Result<Self> {
        let mut sort = Self::new(storage, input, group_keys, SortMode::Plain, config)?;
        let mut fields = sort.schema.fields().to_vec();
        fields.push(Field::new("count", ColumnType::Int));
        // The count goes last: the keys' offsets stay as they are.
        (sort.schema, sort.width) = (Schema::new(fields), sort.width + 8);
        (sort.append_one, sort.mode) = (true, SortMode::CountAggregate);
        Ok(sort)
    }

    /// Polls `cancel` once per input batch of run generation and once per
    /// output chunk of an intermediate merge pass (both inside `open`).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sorts and collapses `records`; returns the surviving rows in order.
    fn sort(&self, records: &mut [u8]) -> Vec<u32> {
        let (width, key) = (self.width, &self.key);
        let rows = 0..(records.len() / width) as u32;
        if key.width() <= 16 {
            let packed = |row| key.packed(&records[row as usize * width..][..width]);
            let entry = |row| PackedEntry {
                key: packed(row),
                row,
            };
            let entries: Vec<PackedEntry> = rows.map(entry).collect();
            let fields = (|e: &PackedEntry| e.key, |e: &PackedEntry| e.row);
            return sort_collapse(entries, fields, self.mode, records, width);
        }
        let mut keys = vec![0u8; rows.len() * key.width()];
        for (slot, record) in keys
            .chunks_exact_mut(key.width())
            .zip(records.chunks(width))
        {
            key.write(record, slot);
        }
        let entries: Vec<(&[u8], u32)> = keys.chunks_exact(key.width()).zip(rows).collect();
        sort_collapse(entries, (|e| e.0, |e| e.1), self.mode, records, width)
    }

    /// Creates the next run file and lets `fill` write it (a run that
    /// fails to fill is deleted); counts one page-sized memory move per
    /// run page, as the analytical model's merge cost prices them.
    fn new_run(&mut self, fill: impl FnOnce(&StorageRef, Appender) -> Result<()>) -> Result<()> {
        let disk = run_disk(&self.storage.borrow(), self.width);
        let run = self.storage.borrow_mut().create_file(disk);
        if let Err(e) = fill(&self.storage, Appender::new(run)) {
            // The write's error is the one worth reporting.
            let _ = self.storage.borrow_mut().delete_file(run);
            return Err(e);
        }
        self.runs.push(run);
        counters::count_moves(self.storage.borrow().page_count(run)?);
        Ok(())
    }

    /// Sorts and collapses `records` and spools them as a run.
    fn flush_run(&mut self, records: &mut [u8]) -> Result<()> {
        let (order, width) = (self.sort(records), self.width);
        let mut sorted = Vec::with_capacity(order.len() * width);
        for row in order {
            sorted.extend_from_slice(&records[row as usize * width..][..width]);
        }
        self.new_run(|storage, mut out| {
            Ok(out.append_records(&mut storage.borrow_mut(), &sorted, width)?)
        })
    }

    /// A merge of the `fan_in` oldest runs (at most), not yet started.
    fn merge(&self) -> Merge {
        let runs = &self.runs[..self.runs.len().min(self.config.fan_in)];
        Merge {
            runs: runs.iter().map(|&file| ScanCursor::new(file)).collect(),
            records: vec![0; runs.len() * self.width],
            slots: vec![0; runs.len() * self.key.width()],
            heap: Vec::with_capacity(runs.len()),
            key: self.key.clone(),
            mode: self.mode,
            width: self.width,
            current: vec![0; self.width],
            pending: Vec::with_capacity(self.width),
            emitted: Vec::new(),
            out: None,
            comps: 0,
        }
    }

    /// One intermediate pass: merges the `fan_in` oldest runs into a new
    /// run, a chunk of output at a time, and deletes them.
    fn merge_pass(&mut self) -> Result<()> {
        let (mut merge, cancel) = (self.merge(), self.cancel);
        self.new_run(|storage, out| {
            merge.out = Some(out);
            merge.start(storage)?;
            while merge.fill(storage, DEFAULT_BATCH_SIZE)? {
                cancel.check()?;
                merge.write_out(storage)?;
            }
            merge.write_out(storage)
        })?;
        let mut sm = self.storage.borrow_mut();
        for run in self.runs.drain(..self.config.fan_in) {
            sm.delete_file(run)?;
        }
        Ok(())
    }

    fn open_inner(&mut self) -> Result<()> {
        self.input.open()?;
        let capacity = (self.config.memory_bytes / (self.width + 24)).max(16) * self.width;
        let mut records: Vec<u8> = Vec::new();

        // Phase 1: run generation. A run is cut every `capacity` bytes of
        // records, wherever in a batch that falls.
        while let Some(mut batch) = self.input.next_batch()? {
            self.cancel.check()?;
            if self.append_one {
                let ones = ColumnVec::Int(vec![1; batch.len()]);
                batch = batch.widen(self.schema.clone(), ones);
            }
            batch.encode_records(&mut records)?;
            while records.len() >= capacity {
                self.flush_run(&mut records[..capacity])?;
                records.drain(..capacity);
            }
        }
        self.input.close()?;

        if self.runs.is_empty() {
            // Entire input fits in the sort buffer: stream from memory.
            let order = self.sort(&mut records).into_iter();
            self.source = Some(Source::Memory { records, order });
            return Ok(());
        }
        if !records.is_empty() {
            self.flush_run(&mut records)?;
        }
        drop(records);

        // Phase 2: merge passes until one final merge remains.
        while self.runs.len() > self.config.fan_in {
            self.merge_pass()?;
        }

        // Phase 3: final merge on demand by `next_batch`.
        let mut merge = self.merge();
        merge.start(&self.storage)?;
        self.source = Some(Source::Merge(Box::new(merge)));
        Ok(())
    }
}

impl BatchOperator for BatchSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        if let Err(e) = self.open_inner() {
            // No error exit leaves a run behind, closed or not.
            let _ = self.close();
            return Err(e);
        }
        self.state = OpState::Open;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.state.require_open()?;
        let mut batch = Batch::with_capacity(self.schema.clone(), DEFAULT_BATCH_SIZE);
        match self.source.as_mut().expect("open sets the source") {
            Source::Memory { records, order } => {
                for row in order.by_ref().take(DEFAULT_BATCH_SIZE) {
                    batch.push_record(&records[row as usize * self.width..][..self.width])?;
                }
            }
            Source::Merge(merge) => {
                // A page boundary may end a fill before it emits a row.
                while merge.fill(&self.storage, DEFAULT_BATCH_SIZE)? && merge.emitted.is_empty() {}
                for record in merge.emitted.chunks_exact(self.width) {
                    batch.push_record(record)?;
                }
                merge.emitted.clear();
                counters::count_comparisons(std::mem::take(&mut merge.comps));
            }
        }
        Ok((!batch.is_empty()).then_some(batch))
    }

    fn close(&mut self) -> Result<()> {
        let runs = std::mem::take(&mut self.runs);
        self.source = None;
        self.state = OpState::Closed;
        // The input is still open if run generation failed.
        let closed = self.input.close();
        let mut sm = self.storage.borrow_mut();
        runs.into_iter()
            .try_for_each(|r| Ok(sm.delete_file(r)?))
            .and(closed)
    }
}

/// A multiway merge over sorted runs with mode-aware collapse: a binary
/// heap of run numbers ordered by each run's current normalized key, ties
/// by run number. The heap moves as the standard library's `BinaryHeap`
/// of [`crate::sort::Sort`] moves — pop, advance the run, push — so the
/// two merges make the same comparisons.
struct Merge {
    runs: Vec<ScanCursor>,
    /// Every run's current record (`width` bytes) and its key.
    records: Vec<u8>,
    slots: Vec<u8>,
    /// Runs that still have records, as a min-heap.
    heap: Vec<u32>,
    key: RecordKey,
    mode: SortMode,
    width: usize,
    /// The record popped last.
    current: Vec<u8>,
    /// The group being summed (`CountAggregate`) or the record emitted
    /// last (`Distinct`); empty before the first.
    pending: Vec<u8>,
    /// Output records not yet handed on, and where an intermediate pass
    /// writes them.
    emitted: Vec<u8>,
    out: Option<Appender>,
    comps: u64,
}

impl Merge {
    /// Whether run `a` comes before run `b`.
    fn before(&mut self, a: u32, b: u32) -> bool {
        self.comps += 1;
        let slot = |run: u32| &self.slots[run as usize * self.key.width()..][..self.key.width()];
        (slot(a), a) < (slot(b), b)
    }

    /// Moves the run at `at` up towards `top` while it comes before its
    /// parent; returns where it stops.
    fn sift_up(&mut self, top: usize, mut at: usize) -> usize {
        let run = self.heap[at];
        while at > top {
            let parent = (at - 1) / 2;
            if !self.before(run, self.heap[parent]) {
                break;
            }
            self.heap[at] = self.heap[parent];
            at = parent;
        }
        self.heap[at] = run;
        at
    }

    fn push(&mut self, run: u32) {
        self.heap.push(run);
        self.sift_up(0, self.heap.len() - 1);
    }

    /// Removes the least run: the last run takes the root's place, sinks
    /// to the bottom along the lesser children, then rises.
    fn pop_least(&mut self) {
        let last = self.heap.pop().expect("a run to pop");
        if self.heap.is_empty() {
            return;
        }
        self.heap[0] = last;
        let (end, mut at) = (self.heap.len(), 0);
        let mut child = 1;
        while child + 1 < end {
            child += usize::from(!self.before(self.heap[child], self.heap[child + 1]));
            self.heap[at] = self.heap[child];
            at = child;
            child = 2 * at + 1;
        }
        if child == end - 1 {
            self.heap[at] = self.heap[child];
            at = child;
        }
        self.heap[at] = last;
        self.sift_up(0, at);
    }

    /// Advances `run` to its next record and key; `false` at its end.
    /// Before its cursor reads another page, what an intermediate pass has
    /// emitted is written out: page installs and page reads stay in the
    /// order a tuple-at-a-time merge issues them.
    fn advance(&mut self, storage: &StorageRef, run: u32) -> Result<bool> {
        let (at, w, kw) = (run as usize, self.width, self.key.width());
        if self.runs[at].page_done() {
            self.write_out(storage)?;
        }
        let mut sm = storage.borrow_mut();
        let Some((_, record)) = self.runs[at].next(&mut sm)? else {
            return Ok(false);
        };
        self.records[at * w..][..w].copy_from_slice(record);
        self.key.write(record, &mut self.slots[at * kw..][..kw]);
        Ok(true)
    }

    /// Reads the first page of every run, in run order.
    fn start(&mut self, storage: &StorageRef) -> Result<()> {
        for run in 0..self.runs.len() as u32 {
            if self.advance(storage, run)? {
                self.push(run);
            }
        }
        Ok(())
    }

    /// Moves the least record into `current` and advances its run.
    fn pop(&mut self, storage: &StorageRef) -> Result<bool> {
        let Some(&run) = self.heap.first() else {
            return Ok(false);
        };
        self.current
            .copy_from_slice(&self.records[run as usize * self.width..][..self.width]);
        self.pop_least();
        if self.advance(storage, run)? {
            self.push(run);
        }
        Ok(true)
    }

    /// Whether the next pop reads a run page.
    fn next_pop_reads(&self) -> bool {
        (self.heap.first()).is_some_and(|&run| self.runs[run as usize].page_done())
    }

    /// Emits up to `rows` more output records; `false` at the end. After
    /// its first pop it stops short before a pop that would read a run
    /// page, so that page is read when the next row is asked for — where
    /// a tuple-at-a-time merge reads it.
    fn fill(&mut self, storage: &StorageRef, rows: usize) -> Result<bool> {
        let target = self.emitted.len() + rows * self.width;
        let mut popped = false;
        while self.emitted.len() < target {
            if popped && self.next_pop_reads() {
                return Ok(true);
            }
            popped = true;
            if !self.pop(storage)? {
                // The last group is still pending.
                if self.mode == SortMode::CountAggregate {
                    self.emitted.append(&mut self.pending);
                }
                return Ok(false);
            }
            let same = !self.pending.is_empty() && {
                self.comps += 1;
                self.key.same(&self.pending, &self.current)
            };
            match self.mode {
                SortMode::Plain => self.emitted.extend_from_slice(&self.current),
                SortMode::Distinct if same => {}
                SortMode::Distinct => {
                    self.emitted.extend_from_slice(&self.current);
                    self.pending.clone_from(&self.current);
                }
                SortMode::CountAggregate if same => {
                    add_count(&mut self.pending, read_count(&self.current));
                }
                SortMode::CountAggregate => {
                    self.emitted.extend_from_slice(&self.pending);
                    self.pending.clone_from(&self.current);
                }
            }
        }
        Ok(true)
    }

    /// Appends what an intermediate pass has emitted to its output run.
    fn write_out(&mut self, storage: &StorageRef) -> Result<()> {
        if let Some(out) = &mut self.out {
            let mut sm = storage.borrow_mut();
            out.append_records(&mut sm, &self.emitted, self.width)?;
            self.emitted.clear();
            counters::count_comparisons(std::mem::take(&mut self.comps));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::collect_batches;
    use crate::batch::scan::BatchMemScan;
    use crate::op::{collect, BoxedOp, Operator};
    use crate::scan::MemScan;
    use crate::sort::Sort;
    use reldiv_rel::{Relation, Tuple, Value};
    use reldiv_storage::manager::StorageConfig;
    use reldiv_storage::StorageManager;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A pool of eight 1 KB pages: every external sort here does real I/O.
    fn small_storage() -> StorageRef {
        StorageManager::shared(StorageConfig {
            data_page_size: 1024,
            run_page_size: 256,
            buffer_bytes: 8 * 1024,
            work_memory_bytes: 1 << 20,
        })
    }

    /// `(s, i, count)` rows over small domains: negative ints, the
    /// extremes, a string that is a prefix of another, the empty string.
    fn rows(n: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::str("s", 12),
            Field::int("i"),
            Field::int("count"),
        ]);
        let strings = ["", "a", "ab", "abc", "b", "é", "zzzzzzzzzzzz"];
        let ints = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        let tuples = (0..n).map(|k| {
            let x = k.wrapping_mul(2_654_435_761) >> 7;
            Tuple::new(vec![
                Value::from(strings[x % strings.len()]),
                Value::Int(ints[(x / 7) % ints.len()]),
                Value::Int(1 + (k % 3) as i64),
            ])
        });
        Relation::from_tuples(schema, tuples.collect()).unwrap()
    }

    fn external(fan_in: usize) -> SortConfig {
        SortConfig {
            memory_bytes: 64 * (28 + 24),
            fan_in,
        }
    }

    #[test]
    fn batch_sort_equals_the_tuple_sort_row_for_row_and_page_for_page() {
        let in_memory = SortConfig {
            memory_bytes: 1 << 20,
            fan_in: 100,
        };
        let configs = [
            in_memory,
            SortConfig::default(),
            external(100),
            external(2),
            external(3),
            external(4),
        ];
        for n in [0, 3000] {
            for config in configs {
                // An 8-byte, a 12-byte and a 20-byte (unpacked) key.
                for keys in [vec![1], vec![0], vec![0, 1], vec![1, 0]] {
                    for mode in [
                        SortMode::Plain,
                        SortMode::Distinct,
                        SortMode::CountAggregate,
                    ] {
                        let case = format!("{n} rows, {config:?}, keys {keys:?}, {mode:?}");
                        let (tuple_storage, batch_storage) = (small_storage(), small_storage());
                        let scope = reldiv_rel::counters::OpScope::begin();
                        let tuple = collect(Box::new(
                            Sort::new(
                                tuple_storage.clone(),
                                Box::new(MemScan::new(rows(n))),
                                keys.clone(),
                                mode,
                                config,
                            )
                            .unwrap(),
                        ))
                        .unwrap();
                        let tuple_ops = scope.finish();
                        let scope = reldiv_rel::counters::OpScope::begin();
                        let batch = collect_batches(
                            Box::new(
                                BatchSort::new(
                                    batch_storage.clone(),
                                    Box::new(BatchMemScan::new(rows(n)).with_batch_size(700)),
                                    keys.clone(),
                                    mode,
                                    config,
                                )
                                .unwrap(),
                            ),
                            CancelToken::none(),
                        )
                        .unwrap();
                        let batch_ops = scope.finish();
                        assert_eq!(tuple, batch, "{case}");
                        assert_eq!(tuple_ops, batch_ops, "{case}");
                        let (t, b) = (tuple_storage.borrow(), batch_storage.borrow());
                        assert_eq!(t.io_stats(), b.io_stats(), "{case}");
                        assert_eq!((b.file_count(), b.pinned_frames()), (0, 0), "{case}");
                        // An input that fits the sort space costs no I/O; one
                        // that does not (uncollapsed) outgrows the pool.
                        let spilled = n > config.memory_bytes / (28 + 24);
                        let transfers = b.io_stats().transfers();
                        assert!(spilled || transfers == 0, "{case}");
                        assert!(
                            !spilled || mode != SortMode::Plain || transfers > 0,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn counting_sort_equals_the_sort_count_aggregate() {
        use crate::batch::project::BatchProject;
        // The sort count aggregate: the tuple sort in `CountAggregate`
        // mode over the input widened with `count = 1`.
        let input = rows(3000);
        let mut fields = input.schema().fields().to_vec();
        fields.push(Field::int("count"));
        let widened = input.tuples().iter().map(|t| {
            let mut values = t.values().to_vec();
            values.push(Value::Int(1));
            Tuple::new(values)
        });
        let widened = Relation::from_tuples(Schema::new(fields), widened.collect()).unwrap();
        for config in [SortConfig::default(), external(3)] {
            let mode = SortMode::CountAggregate;
            let scan = Box::new(MemScan::new(widened.clone()));
            let sort = Sort::new(small_storage(), scan, vec![1], mode, config).unwrap();
            let tuple = collect(Box::new(sort)).unwrap().project(&[1, 3]).unwrap();
            let counted = BatchSort::counting(
                small_storage(),
                Box::new(BatchMemScan::new(input.clone())),
                vec![1],
                config,
            )
            .unwrap();
            let batch = collect_batches(
                Box::new(BatchProject::new(Box::new(counted), vec![1, 3]).unwrap()),
                CancelToken::none(),
            )
            .unwrap();
            assert_eq!(tuple, batch);
            assert_eq!(batch.cardinality(), 7);
        }
    }

    #[test]
    fn a_storage_fault_mid_merge_leaves_no_run_file() {
        use reldiv_storage::buffer::RetryPolicy;
        use reldiv_storage::FaultPlan;
        // With a fan-in of 4 the 4th run-disk read falls in an intermediate
        // pass (inside `open`); with one wide merge of the 47 runs, the
        // 61st falls in the on-demand final merge.
        for (fan_in, failing_read, in_open) in [(4, 3, true), (100, 60, false)] {
            let storage = small_storage();
            storage.borrow_mut().set_retry_policy(RetryPolicy::none());
            let plan = FaultPlan::seeded(1).with_read_failure_at(failing_read);
            storage.borrow_mut().inject_faults(&plan);
            let mut sort = BatchSort::new(
                storage.clone(),
                Box::new(BatchMemScan::new(rows(3000))),
                vec![0, 1],
                SortMode::Plain,
                external(fan_in),
            )
            .unwrap();
            let opened = sort.open();
            assert_eq!(opened.is_err(), in_open);
            if opened.is_ok() {
                let failed = loop {
                    match sort.next_batch() {
                        Ok(Some(_)) => {}
                        Ok(None) => break false,
                        Err(_) => break true,
                    }
                };
                assert!(failed, "the final merge reads the bad transfer");
                assert!(storage.borrow().file_count() > 0, "runs live until close");
                sort.close().unwrap();
            }
            let sm = storage.borrow();
            assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
        }
    }

    /// Hands out `rows(n)` a row (or a batch) at a time, counting, and
    /// trips `abort` once `trip_at` rows are out.
    struct CountingScan {
        tuples: MemScan,
        batches: BatchMemScan,
        pulled: std::rc::Rc<std::cell::Cell<usize>>,
        trip_at: usize,
        abort: &'static AtomicBool,
    }

    impl CountingScan {
        fn count(&self, rows: usize) {
            self.pulled.set(self.pulled.get() + rows);
            if self.pulled.get() >= self.trip_at {
                self.abort.store(true, Ordering::Relaxed);
            }
        }
    }

    impl Operator for CountingScan {
        fn schema(&self) -> &Schema {
            Operator::schema(&self.tuples)
        }
        fn open(&mut self) -> Result<()> {
            Operator::open(&mut self.tuples)
        }
        fn next(&mut self) -> Result<Option<Tuple>> {
            let t = self.tuples.next()?;
            self.count(usize::from(t.is_some()));
            Ok(t)
        }
        fn close(&mut self) -> Result<()> {
            Operator::close(&mut self.tuples)
        }
    }

    impl BatchOperator for CountingScan {
        fn schema(&self) -> &Schema {
            BatchOperator::schema(&self.batches)
        }
        fn open(&mut self) -> Result<()> {
            BatchOperator::open(&mut self.batches)
        }
        fn next_batch(&mut self) -> Result<Option<Batch>> {
            let batch = self.batches.next_batch()?;
            self.count(batch.as_ref().map_or(0, Batch::len));
            Ok(batch)
        }
        fn close(&mut self) -> Result<()> {
            BatchOperator::close(&mut self.batches)
        }
    }

    #[test]
    fn a_token_expiring_mid_run_generation_stops_both_sorts_early() {
        const ROWS: usize = 20_000;
        for batch_engine in [false, true] {
            let abort: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
            let cancel = CancelToken::none().with_abort(abort);
            let pulled = std::rc::Rc::new(std::cell::Cell::new(0));
            let scan = CountingScan {
                tuples: MemScan::new(rows(ROWS)),
                batches: BatchMemScan::new(rows(ROWS)),
                pulled: pulled.clone(),
                trip_at: 5_000,
                abort,
            };
            let storage = small_storage();
            let (keys, mode, config) = (vec![0, 1], SortMode::Plain, external(4));
            let err = if batch_engine {
                let sort = BatchSort::new(storage.clone(), Box::new(scan), keys, mode, config);
                collect_batches(Box::new(sort.unwrap().with_cancel(cancel)), cancel).unwrap_err()
            } else {
                let sort = Sort::new(storage.clone(), Box::new(scan), keys, mode, config);
                let sort: BoxedOp = Box::new(sort.unwrap().with_cancel(cancel));
                collect(sort).unwrap_err()
            };
            assert!(err.is_cancelled(), "{err}");
            // Runs were being written when the token tripped, and the sort
            // stopped within one poll stride of it.
            assert!(storage.borrow().io_stats().writes > 0);
            assert!(pulled.get() < 5_000 + 2 * 1024, "pulled {}", pulled.get());
            let sm = storage.borrow();
            assert_eq!((sm.file_count(), sm.pinned_frames()), (0, 0));
        }
    }
}
