//! The external merge sort of the batch engine.
//!
//! Everything observable is pinned in this module's tests, as the
//! tuple-at-a-time sort it replaced recorded it: the [`SortMode`]s, run
//! boundaries (`memory_bytes / (record_width + 24)` rows a run), the
//! run-disk rule, `fan_in`, the on-demand final merge, "no run contains
//! duplicate keys", one counted move per run page — the rows in their
//! order, the comparisons, and the pages read and written on each disk.
//! The buffer holds validated fixed-width records
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
use crate::sort::{check_keys, run_disk, run_rows, SortConfig, SortMode};
use crate::Result;

/// A row's packed key (at most 16 bytes) and its number, in 20 bytes where
/// a `(u128, u32)` pads to 32. Like the tuples of the tuple-at-a-time sort
/// this one replaced it is over 16 bytes, the size past which the standard
/// library's stable sort takes the same steps, so the comparisons are the
/// ones recorded from that sort.
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
    // the comparisons are those a stable sort of the same tuples makes.
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
    /// Creates a sort of `input` on `keys` (major to minor). A key out of
    /// range, a `CountAggregate` key on the trailing count column and
    /// zero-width records are plan errors.
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
    /// count: a sort in `CountAggregate` mode over the input widened with
    /// the count.
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
        let capacity = run_rows(&self.config, self.width) * self.width;
        let mut records: Vec<u8> = Vec::new();

        // Phase 1: run generation. A run is cut every `capacity` bytes of
        // records, wherever in a batch that falls.
        while let Some(mut batch) = self.input.next_batch()? {
            self.cancel.check()?;
            if self.append_one {
                let ones = ColumnVec::Int(vec![1; batch.len()]);
                batch = batch.widen(self.schema.clone(), [ones]);
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
/// by run number. The heap moves as a standard library `BinaryHeap` of the
/// runs' current records moves — pop, advance the run, push — so the merge
/// makes the comparisons recorded from the tuple-at-a-time merge.
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
    use crate::batch::BatchToTuple;
    use crate::op::collect;
    use crate::sort::Sort;
    use reldiv_rel::counters::OpScope;
    use reldiv_rel::{Relation, Tuple, Value};
    use reldiv_storage::manager::StorageConfig;
    use reldiv_storage::{IoStats, StorageManager};
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

    /// What a sort did: its rows (FNV-1a digest of their text, one line
    /// each, and count), its `[comparisons, hashes, moves, bitops]`, the
    /// data and run disks' `[reads, writes, seeks, bytes]`, and the run
    /// files it created.
    type Recorded = (u64, usize, [u64; 4], [u64; 4], [u64; 4], u64);

    /// Runs `sort` on `storage` and observes it; every run file must be
    /// gone afterwards and no frame fixed.
    fn observe(storage: StorageRef, sort: impl FnOnce(&StorageRef) -> Relation) -> Recorded {
        let files = storage.borrow().file_count();
        let scope = OpScope::begin();
        let out = sort(&storage);
        let ops = scope.finish();
        let mut sm = storage.borrow_mut();
        assert_eq!((sm.file_count(), sm.pinned_frames()), (files, 0));
        let io = |s: IoStats| [s.reads, s.writes, s.seeks, s.bytes];
        let text = out
            .tuples()
            .iter()
            .map(|t| format!("{t}\n"))
            .collect::<String>();
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (
            digest,
            out.cardinality(),
            [ops.comparisons, ops.hashes, ops.moves, ops.bitops],
            io(sm.disk_stats(StorageManager::DATA_DISK)),
            io(sm.disk_stats(StorageManager::RUN_DISK)),
            // Files are numbered from 0 in creation order.
            sm.create_file(StorageManager::DATA_DISK).0,
        )
    }

    fn batch_sort(input: Relation, keys: &[usize], mode: SortMode, config: SortConfig) -> Recorded {
        observe(small_storage(), |storage| {
            let scan = Box::new(BatchMemScan::new(input).with_batch_size(700));
            let sort = BatchSort::new(storage.clone(), scan, keys.to_vec(), mode, config);
            collect_batches(Box::new(sort.unwrap()), CancelToken::none()).unwrap()
        })
    }

    /// The [`Sort`] bridge over a tuple input.
    fn tuple_sort(input: Relation, keys: &[usize], mode: SortMode, config: SortConfig) -> Recorded {
        observe(small_storage(), |storage| {
            let scan = Box::new(BatchToTuple::new(Box::new(BatchMemScan::new(input))));
            let sort = Sort::new(storage.clone(), scan, keys.to_vec(), mode, config);
            collect(Box::new(sort.unwrap())).unwrap()
        })
    }

    /// The tuple-at-a-time sort's rows, operations, transfers and run files
    /// on 3000 rows of [`rows`] — the loops below, innermost last — recorded
    /// before the batch sort replaced it. On no rows it did nothing.
    #[rustfmt::skip]
    const GRID: [Recorded; 72] = [
        (0x494cf66e95a27e4d, 3000, [13050, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0xf7186e2889a00c80, 7, [16049, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x2f1ecd5c2af3ac5d, 7, [16049, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x68003666a84c4291, 3000, [12845, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x1b06a37128dc290c, 7, [15844, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x59bd9c9f73b486e4, 7, [15844, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0xa578034ad98c74f7, 3000, [21545, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0xca53174619d6d395, 49, [24544, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x02f4329ee17e0769, 49, [24544, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x13af8aec337bfedb, 3000, [21982, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x0bbe7b9ece0f9d63, 49, [24981, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x2fdb8b352cf6463b, 49, [24981, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], 0),
        (0x494cf66e95a27e4d, 3000, [16112, 0, 430, 0], [0, 0, 0, 0], [430, 430, 80, 220160], 2),
        (0xf7186e2889a00c80, 7, [16284, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x2f1ecd5c2af3ac5d, 7, [16284, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x68003666a84c4291, 3000, [15721, 0, 430, 0], [0, 0, 0, 0], [430, 430, 80, 220160], 2),
        (0x1b06a37128dc290c, 7, [15893, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x59bd9c9f73b486e4, 7, [15893, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0xa578034ad98c74f7, 3000, [26132, 0, 430, 0], [0, 0, 0, 0], [430, 430, 158, 220160], 2),
        (0xca53174619d6d395, 49, [26345, 0, 14, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x02f4329ee17e0769, 49, [26345, 0, 14, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x13af8aec337bfedb, 3000, [25645, 0, 430, 0], [0, 0, 0, 0], [430, 430, 158, 220160], 2),
        (0x0bbe7b9ece0f9d63, 49, [25858, 0, 14, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x2fdb8b352cf6463b, 49, [25858, 0, 14, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x494cf66e95a27e4d, 3000, [48741, 0, 468, 0], [0, 0, 0, 0], [468, 468, 404, 239616], 47),
        (0xf7186e2889a00c80, 7, [23566, 0, 47, 0], [0, 0, 0, 0], [47, 47, 94, 24064], 47),
        (0x2f1ecd5c2af3ac5d, 7, [23566, 0, 47, 0], [0, 0, 0, 0], [47, 47, 94, 24064], 47),
        (0x68003666a84c4291, 3000, [49701, 0, 468, 0], [0, 0, 0, 0], [468, 468, 452, 239616], 47),
        (0x1b06a37128dc290c, 7, [24743, 0, 47, 0], [0, 0, 0, 0], [47, 47, 94, 24064], 47),
        (0x59bd9c9f73b486e4, 7, [24743, 0, 47, 0], [0, 0, 0, 0], [47, 47, 94, 24064], 47),
        (0xa578034ad98c74f7, 3000, [45338, 0, 468, 0], [0, 0, 0, 0], [468, 468, 544, 239616], 47),
        (0xca53174619d6d395, 49, [37895, 0, 281, 0], [0, 0, 0, 0], [281, 281, 355, 143872], 47),
        (0x02f4329ee17e0769, 49, [37895, 0, 281, 0], [0, 0, 0, 0], [281, 281, 355, 143872], 47),
        (0x13af8aec337bfedb, 3000, [50612, 0, 468, 0], [0, 0, 0, 0], [468, 468, 544, 239616], 47),
        (0x0bbe7b9ece0f9d63, 49, [43181, 0, 281, 0], [0, 0, 0, 0], [281, 281, 355, 143872], 47),
        (0x2fdb8b352cf6463b, 49, [43181, 0, 281, 0], [0, 0, 0, 0], [281, 281, 355, 143872], 47),
        (0x3fba3e889aa84f5d, 3000, [33892, 0, 2485, 0], [0, 0, 0, 0], [2485, 2485, 3572, 1272320], 92),
        (0x2d5a6cf5d7d3fb62, 7, [22425, 0, 92, 0], [0, 0, 0, 0], [33, 33, 65, 16896], 92),
        (0x84d200ab5c274665, 7, [22425, 0, 92, 0], [0, 0, 0, 0], [33, 33, 65, 16896], 92),
        (0xa507c8da53db0229, 3000, [34974, 0, 2485, 0], [0, 0, 0, 0], [2485, 2485, 3616, 1272320], 92),
        (0xd4e0f20a41d548a7, 7, [23499, 0, 92, 0], [0, 0, 0, 0], [33, 33, 65, 16896], 92),
        (0xcf0669dd851b4305, 7, [23499, 0, 92, 0], [0, 0, 0, 0], [33, 33, 65, 16896], 92),
        (0x88b0689683aefc9d, 3000, [37314, 0, 2485, 0], [0, 0, 0, 0], [2485, 2485, 3486, 1272320], 92),
        (0x7cc77a42650809c1, 49, [31613, 0, 596, 0], [0, 0, 0, 0], [564, 567, 815, 289536], 92),
        (0x02f4329ee17e0769, 49, [31613, 0, 596, 0], [0, 0, 0, 0], [564, 567, 827, 289536], 92),
        (0x7d400318d153a171, 3000, [42637, 0, 2485, 0], [0, 0, 0, 0], [2485, 2485, 3470, 1272320], 92),
        (0x9f7d44867e1f6733, 49, [36953, 0, 596, 0], [0, 0, 0, 0], [564, 567, 796, 289536], 92),
        (0x2fdb8b352cf6463b, 49, [36953, 0, 596, 0], [0, 0, 0, 0], [564, 567, 798, 289536], 92),
        (0x3fba3e889aa84f5d, 3000, [38310, 0, 1612, 0], [0, 0, 0, 0], [1612, 1612, 2166, 825344], 69),
        (0x2d5a6cf5d7d3fb62, 7, [22564, 0, 69, 0], [0, 0, 0, 0], [26, 26, 52, 13312], 69),
        (0x84d200ab5c274665, 7, [22564, 0, 69, 0], [0, 0, 0, 0], [26, 26, 52, 13312], 69),
        (0xa507c8da53db0229, 3000, [39432, 0, 1612, 0], [0, 0, 0, 0], [1612, 1612, 2192, 825344], 69),
        (0xd4e0f20a41d548a7, 7, [23660, 0, 69, 0], [0, 0, 0, 0], [26, 26, 52, 13312], 69),
        (0xcf0669dd851b4305, 7, [23660, 0, 69, 0], [0, 0, 0, 0], [26, 26, 52, 13312], 69),
        (0x88b0689683aefc9d, 3000, [42149, 0, 1612, 0], [0, 0, 0, 0], [1612, 1612, 2288, 825344], 69),
        (0x7cc77a42650809c1, 49, [32307, 0, 435, 0], [0, 0, 0, 0], [424, 424, 587, 217088], 69),
        (0x02f4329ee17e0769, 49, [32307, 0, 435, 0], [0, 0, 0, 0], [424, 424, 588, 217088], 69),
        (0x7d400318d153a171, 3000, [47438, 0, 1612, 0], [0, 0, 0, 0], [1612, 1612, 2266, 825344], 69),
        (0x9f7d44867e1f6733, 49, [37626, 0, 435, 0], [0, 0, 0, 0], [424, 424, 587, 217088], 69),
        (0x2fdb8b352cf6463b, 49, [37626, 0, 435, 0], [0, 0, 0, 0], [424, 424, 583, 217088], 69),
        (0x5e6a7e7d4a47cd35, 3000, [47024, 0, 1515, 0], [0, 0, 0, 0], [1515, 1515, 2037, 775680], 62),
        (0xa6ffe4cca40106ac, 7, [22799, 0, 62, 0], [0, 0, 0, 0], [25, 25, 49, 12800], 62),
        (0xb4be7f8e25463ba8, 7, [22799, 0, 62, 0], [0, 0, 0, 0], [25, 25, 49, 12800], 62),
        (0x2bc9bad28cf18485, 3000, [48195, 0, 1515, 0], [0, 0, 0, 0], [1515, 1515, 2060, 775680], 62),
        (0xf4d04df496635d01, 7, [23904, 0, 62, 0], [0, 0, 0, 0], [25, 25, 49, 12800], 62),
        (0x76e6366981b0a424, 7, [23904, 0, 62, 0], [0, 0, 0, 0], [25, 25, 49, 12800], 62),
        (0x96f6fe592d081743, 3000, [50058, 0, 1515, 0], [0, 0, 0, 0], [1515, 1515, 2025, 775680], 62),
        (0xa25891344617b978, 49, [33984, 0, 386, 0], [0, 0, 0, 0], [379, 379, 525, 194048], 62),
        (0x02f4329ee17e0769, 49, [33984, 0, 386, 0], [0, 0, 0, 0], [379, 379, 524, 194048], 62),
        (0x07b49557639f7a4f, 3000, [54992, 0, 1515, 0], [0, 0, 0, 0], [1515, 1515, 2046, 775680], 62),
        (0x44b38d3055385f7a, 49, [39014, 0, 386, 0], [0, 0, 0, 0], [379, 379, 524, 194048], 62),
        (0x2fdb8b352cf6463b, 49, [39014, 0, 386, 0], [0, 0, 0, 0], [379, 379, 525, 194048], 62),
    ];

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
        let mut recorded = GRID.iter();
        for config in configs {
            // An 8-byte, a 12-byte and a 20-byte (unpacked) key.
            for keys in [vec![1], vec![0], vec![0, 1], vec![1, 0]] {
                for mode in [
                    SortMode::Plain,
                    SortMode::Distinct,
                    SortMode::CountAggregate,
                ] {
                    let case = format!("{config:?}, keys {keys:?}, {mode:?}");
                    let nothing = (0xcbf2_9ce4_8422_2325, 0, [0; 4], [0; 4], [0; 4], 0);
                    assert_eq!(batch_sort(rows(0), &keys, mode, config), nothing, "{case}");
                    assert_eq!(tuple_sort(rows(0), &keys, mode, config), nothing, "{case}");
                    let expected = *recorded.next().unwrap();
                    assert_eq!(
                        batch_sort(rows(3000), &keys, mode, config),
                        expected,
                        "{case}"
                    );
                    assert_eq!(
                        tuple_sort(rows(3000), &keys, mode, config),
                        expected,
                        "{case}"
                    );
                }
            }
        }
    }

    /// The tuple sort in `CountAggregate` mode over 3000 rows of [`rows`]
    /// widened with `count = 1`, keyed on `i`, with the default and with
    /// [`external`]`(3)` sort space: recorded as above.
    #[rustfmt::skip]
    const COUNTED: [Recorded; 2] = [
        (0xf4ef8f1a04a9180c, 7, [18012, 0, 4, 0], [0, 0, 0, 0], [0, 0, 0, 0], 2),
        (0x27f7bf2e925a5944, 7, [20234, 0, 107, 0], [0, 0, 0, 0], [69, 69, 137, 35328], 81),
    ];

    #[test]
    fn counting_sort_equals_the_sort_count_aggregate() {
        let input = rows(3000);
        let mut fields = input.schema().fields().to_vec();
        fields.push(Field::int("count"));
        let widened = input.tuples().iter().map(|t| {
            let mut values = t.values().to_vec();
            values.push(Value::Int(1));
            Tuple::new(values)
        });
        let widened = Relation::from_tuples(Schema::new(fields), widened.collect()).unwrap();
        for (config, expected) in [SortConfig::default(), external(3)]
            .into_iter()
            .zip(COUNTED)
        {
            let counted = observe(small_storage(), |storage| {
                let scan = Box::new(BatchMemScan::new(input.clone()));
                let sort = BatchSort::counting(storage.clone(), scan, vec![1], config);
                collect_batches(Box::new(sort.unwrap()), CancelToken::none()).unwrap()
            });
            assert_eq!(counted, expected, "{config:?}");
            let mode = SortMode::CountAggregate;
            let bridged = tuple_sort(widened.clone(), &[1], mode, config);
            assert_eq!(bridged, expected, "{config:?}");
            assert_eq!(expected.1, 7);
        }
    }

    /// The tuple sort of a 30 000-row `(a, b)` record file scanned cold on
    /// the paper's configuration, on both columns — `Plain` then `Distinct`,
    /// each with the default sort space and with 40 KB at fan-in 4 —
    /// recorded as above. The input file is file 0.
    #[rustfmt::skip]
    const FROM_FILE: [Recorded; 4] = [
        (0xf8dc8ee1cac7f013, 30000, [497455, 0, 609, 0], [74, 0, 1, 606208], [574, 609, 722, 1211392], 13),
        (0xf8dc8ee1cac7f013, 30000, [571053, 0, 1709, 0], [74, 0, 1, 606208], [1709, 1709, 2324, 3500032], 40),
        (0xf8dc8ee1cac7f013, 30000, [557442, 0, 609, 0], [74, 0, 1, 606208], [574, 609, 722, 1211392], 13),
        (0xf8dc8ee1cac7f013, 30000, [685589, 0, 1709, 0], [74, 0, 1, 606208], [1709, 1709, 2324, 3500032], 40),
    ];

    #[test]
    fn a_file_input_reads_and_writes_the_recorded_pages_through_both_sorts() {
        use crate::batch::scan::BatchFileScan;
        use crate::scan::load_relation;
        let schema = Schema::new(vec![Field::int("a"), Field::int("b")]);
        let rows = (0..30_000i64)
            .map(|i| Tuple::new(vec![Value::Int((i * 7919) % 30_000), Value::Int(i)]));
        let input = Relation::from_tuples(schema.clone(), rows.collect()).unwrap();
        let small = SortConfig {
            memory_bytes: 40 * 1024,
            fan_in: 4,
        };
        let cases = [SortMode::Plain, SortMode::Distinct]
            .into_iter()
            .flat_map(|mode| [(mode, SortConfig::default()), (mode, small)]);
        for ((mode, config), expected) in cases.zip(FROM_FILE) {
            for bridged in [false, true] {
                let storage = StorageManager::shared(StorageConfig::paper());
                let file = load_relation(&storage, &input).unwrap();
                let mut sm = storage.borrow_mut();
                sm.evict_all().unwrap();
                sm.reset_stats();
                drop(sm);
                let got = observe(storage, |storage| {
                    let scan = Box::new(BatchFileScan::new(storage.clone(), file, schema.clone()));
                    let keys = vec![0, 1];
                    if bridged {
                        let scan = Box::new(BatchToTuple::new(scan));
                        let sort = Sort::new(storage.clone(), scan, keys, mode, config);
                        collect(Box::new(sort.unwrap())).unwrap()
                    } else {
                        let sort = BatchSort::new(storage.clone(), scan, keys, mode, config);
                        collect_batches(Box::new(sort.unwrap()), CancelToken::none()).unwrap()
                    }
                });
                assert_eq!(got, expected, "{mode:?} {config:?}, bridged {bridged}");
            }
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

    /// Hands out `rows(n)` a batch at a time, counting, and trips `abort`
    /// once `trip_at` rows are out.
    struct CountingScan {
        batches: BatchMemScan,
        pulled: std::rc::Rc<std::cell::Cell<usize>>,
        trip_at: usize,
        abort: &'static AtomicBool,
    }

    impl BatchOperator for CountingScan {
        fn schema(&self) -> &Schema {
            self.batches.schema()
        }
        fn open(&mut self) -> Result<()> {
            self.batches.open()
        }
        fn next_batch(&mut self) -> Result<Option<Batch>> {
            let batch = self.batches.next_batch()?;
            self.pulled
                .set(self.pulled.get() + batch.as_ref().map_or(0, Batch::len));
            if self.pulled.get() >= self.trip_at {
                self.abort.store(true, Ordering::Relaxed);
            }
            Ok(batch)
        }
        fn close(&mut self) -> Result<()> {
            self.batches.close()
        }
    }

    #[test]
    fn a_token_expiring_mid_run_generation_stops_both_sorts_early() {
        const ROWS: usize = 20_000;
        for bridged in [false, true] {
            let abort: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
            let cancel = CancelToken::none().with_abort(abort);
            let pulled = std::rc::Rc::new(std::cell::Cell::new(0));
            let scan = Box::new(CountingScan {
                batches: BatchMemScan::new(rows(ROWS)),
                pulled: pulled.clone(),
                trip_at: 5_000,
                abort,
            });
            let storage = small_storage();
            let (keys, mode, config) = (vec![0, 1], SortMode::Plain, external(4));
            let err = if bridged {
                let scan = Box::new(BatchToTuple::new(scan));
                let sort = Sort::new(storage.clone(), scan, keys, mode, config);
                collect(Box::new(sort.unwrap().with_cancel(cancel))).unwrap_err()
            } else {
                let sort = BatchSort::new(storage.clone(), scan, keys, mode, config);
                collect_batches(Box::new(sort.unwrap().with_cancel(cancel)), cancel).unwrap_err()
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
