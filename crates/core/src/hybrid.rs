//! Memory-adaptive hybrid hash-division.
//!
//! The paper's Section 3.4 overflow story is a *static* ladder: a
//! partitioning mode and cluster count are chosen up front (from size
//! estimates) and the whole division restarts on every rung. This module
//! is quotient partitioning done *dynamically*, in the style of robust
//! dynamic hybrid hash-join — the one quotient-side overflow mechanism;
//! [`crate::overflow`]'s divisor partitioning runs it for every phase:
//!
//! * **Optimistic start.** The dividend is routed into `fanout` quotient
//!   partitions, all memory-resident. A division that fits never touches
//!   disk and reports the clean `"in-memory"` phase.
//! * **Incremental spill.** When the pool is exhausted, the *largest*
//!   resident partition is evicted: its table is serialized to a partition
//!   file and its memory freed. Only as many partitions spill as the
//!   actual input requires.
//! * **Skew handling.** A spilled partition keeps a one-entry *hot group*
//!   accumulator: the first quotient key seen after the spill is adopted
//!   and absorbs its tuples in memory, so one huge group (the classic
//!   skew case) does not force a delta record per tuple. A miss streak
//!   re-adopts the currently hot key.
//! * **Revive.** Between tuples the driver watches the pool; when memory
//!   frees up (another query finished), a spilled partition is re-admitted
//!   with a fresh resident table.
//! * **Bounded recursion.** After the input is consumed, each spilled
//!   partition is merged back in memory; a partition that still does not
//!   fit is re-partitioned by the next hash level and retried, down to
//!   [`MAX_RECURSION_DEPTH`] levels, past which the typed
//!   [`ExecError::RecursionLimit`] is returned.
//!
//! Every table — a hot group's too — is a flat `GroupTable` (a chain of
//! group numbers over quotient columns and bit-map words). Spill files
//! come in two fixed-width record layouts per partition: a *state* file of
//! whole groups (quotient columns + bit-map words, or an accumulated count
//! in counter mode) and a *delta* file of single matched tuples (quotient
//! columns + divisor number). Merging ORs state bit maps and sets delta
//! bits, so duplicate dividend tuples stay harmless in the bit-map modes
//! exactly as in Figure 1.
//!
//! Both ends work on columns (`docs/MEMORY.md`, "Batches in, pages back"):
//! batches in, keys hashed a batch or a page at a time, rows compared in
//! place through the batch's or the page's typed key columns, state
//! records encoded from a table's columns, complete groups gathered. The
//! decisions — routing, victims, revives, what a reservation is taken for
//! and when — are still made row by row, so they are those
//! of a tuple-at-a-time run, and each spill file holds the records, in the
//! order, it always did. Outside the pool the operator holds one input
//! batch with its queued row numbers, one spill page and at most a batch's
//! worth of encoded records.
//!
//! Every decision is recorded: spills/revives/recursion in the
//! [`DegradationReport`] and as [`SpanKind::Spill`]/[`SpanKind::Revive`]
//! profile spans.

use reldiv_exec::batch::scan::read_page;
use reldiv_exec::batch::{drain_batches, BoxedBatchOp, DEFAULT_BATCH_SIZE};
use reldiv_exec::cancel::CancelToken;
use reldiv_exec::profile::{ProfileSink, SpanKind, SpanScope};
use reldiv_rel::column::ColumnVec;
use reldiv_rel::schema::Field;
use reldiv_rel::{counters, Batch, Relation, Schema};
use reldiv_storage::file::Appender;
use reldiv_storage::memory::Reservation;
use reldiv_storage::{splitmix64, FileId, MemoryPool, StorageManager, StorageRef};

use crate::bitmap::Bitmap;
use crate::groups::{GroupTable, Key, Probe, Tally};
use crate::hash_division::{DivisorTable, HashDivisionMode};
use crate::report::DegradationReport;
use crate::spec::DivisionSpec;
use crate::{ExecError, Result};

/// Default number of quotient-hash partitions for the adaptive path.
pub const DEFAULT_FANOUT: usize = 16;

/// Re-partitioning recursion bound: a partition that still exceeds the
/// budget after this many hash levels yields [`ExecError::RecursionLimit`]
/// (the signal that the *divisor* side must be partitioned instead).
pub const MAX_RECURSION_DEPTH: u32 = 6;

/// Tuples between revive checks of the memory pool.
const REVIVE_STRIDE: u64 = 256;

/// Consecutive hot-group misses before the accumulator re-adopts.
const HOT_MISS_LIMIT: u32 = 16;

/// Routes a quotient-key hash to a partition at recursion `level`. Each
/// level remixes with a different seed so sub-partitions of one partition
/// spread evenly.
fn route(h: u64, level: u32, fanout: usize) -> usize {
    (splitmix64(h ^ u64::from(level).wrapping_mul(0xA076_1D64_78BD_642F)) as usize) % fanout
}

/// Appends every row of `batch` to the file of its cluster, `cluster(h)`
/// of its hash `h` on `keys` (`< clusters`): one `hash_rows` for the
/// batch, then per cluster that got rows one `gather`, `encode_records`
/// and `append_records` into `file(cluster)`, in cluster order. `records`
/// is scratch, empty between calls. Returns the bytes written.
pub(crate) fn scatter(
    storage: &StorageRef,
    batch: &Batch,
    keys: &[usize],
    clusters: usize,
    cluster: impl Fn(u64) -> usize,
    mut file: impl FnMut(&mut StorageManager, usize) -> FileId,
    records: &mut Vec<u8>,
) -> Result<u64> {
    let mut routed = vec![Vec::new(); clusters];
    for (row, h) in batch.hash_rows(keys).into_iter().enumerate() {
        routed[cluster(h)].push(row);
    }
    let (width, mut bytes) = (batch.schema().record_width(), 0);
    let mut sm = storage.borrow_mut();
    for (c, rows) in routed
        .iter()
        .enumerate()
        .filter(|(_, rows)| !rows.is_empty())
    {
        batch.gather(rows).encode_records(records)?;
        let file = file(&mut sm, c);
        Appender::new(file).append_records(&mut sm, records, width)?;
        bytes += records.len() as u64;
        records.clear();
    }
    Ok(bytes)
}

/// The file in `slot`, created — and noted in `created` — on first use.
fn spill_file(
    sm: &mut StorageManager,
    slot: &mut Option<FileId>,
    created: &mut Vec<FileId>,
) -> FileId {
    *slot.get_or_insert_with(|| {
        let file = sm.create_file(StorageManager::DATA_DISK);
        created.push(file);
        file
    })
}

/// The hot-group accumulator of a spilled partition: one group, in a
/// table of its own.
struct HotGroup {
    group: GroupTable,
    /// Accounts the group's bytes so skew handling respects the budget.
    _mem: Reservation,
}

/// A partition's spill files, by record layout: at [`STATE`] serialized
/// groups (quotient + bit-map words / count), at [`DELTA`] single
/// matched tuples (quotient + divisor number). Each is created by its
/// first record.
type SpillFiles = [Option<FileId>; 2];
const STATE: usize = 0;
const DELTA: usize = 1;

/// One quotient partition of the adaptive hybrid.
#[derive(Default)]
struct Partition {
    /// The resident table; `None` when untouched or spilled.
    resident: Option<GroupTable>,
    /// Whether the partition has been evicted (distinguishes "spilled"
    /// from "never touched").
    spilled: bool,
    files: SpillFiles,
    hot: Option<HotGroup>,
    hot_misses: u32,
    /// The current input batch's delta rows, written when the batch is
    /// done: their row numbers, and their divisor numbers (-1 for none).
    delta_rows: Vec<usize>,
    delta_dnos: Vec<i64>,
}

/// One dividend row that found its divisor tuple (or an empty divisor):
/// its row of the batch probed on the quotient columns, its hash on them.
struct Matched {
    row: usize,
    h: u64,
    dno: Option<u32>,
}

/// The adaptive-hybrid driver state.
struct Hybrid<'a> {
    storage: &'a StorageRef,
    pool: MemoryPool,
    /// `Standard` (a bit map per group) or `CounterOnly` (a count).
    mode: HashDivisionMode,
    /// The bytes a group is accounted at.
    group_bytes: usize,
    divisor_count: u32,
    /// The quotient's schema: the head of either spill record.
    quotient: Schema,
    /// `0..quotient arity`: the quotient columns of either spill record.
    qcols: Vec<usize>,
    /// The spill-record layouts, at [`STATE`] and [`DELTA`].
    layouts: [Schema; 2],
    fanout: usize,
    cancel: CancelToken,
    budget: u32,
    profile: Option<&'a ProfileSink>,
    /// Pool headroom that triggers a revive.
    revive_threshold: usize,
    /// Every spill file ever created, deleted in one sweep at the end so
    /// an abandoned run (fallback to divisor partitioning) cannot leak
    /// temporary files.
    created: Vec<FileId>,
    /// Records on their way to a spill file; empty between writes.
    records: Vec<u8>,
    /// Whether anything has spilled, and the dividend tuples matched so
    /// far (the revive cadence).
    spilled_yet: bool,
    matched: u64,
    /// The probes' `Comp`s and `Bit`s, flushed before whatever can fail
    /// or open a span.
    tally: Tally,
}

impl<'a> Hybrid<'a> {
    /// An empty table of groups, in `pool`.
    fn new_table(&self, pool: &MemoryPool) -> Result<GroupTable> {
        GroupTable::new(pool, &self.quotient, self.mode, self.divisor_count)
    }

    fn span(&self, label: String, kind: SpanKind) -> Option<SpanScope> {
        self.profile
            .map(|sink| SpanScope::enter(sink, label, kind, Some(self.storage.clone())))
    }

    /// Appends `self.records` — back-to-back records of layout `kind` —
    /// to `files[kind]`, fixing each page once; returns their bytes.
    fn write(&mut self, files: &mut SpillFiles, kind: usize) -> Result<u64> {
        if self.records.is_empty() {
            return Ok(0);
        }
        let mut sm = self.storage.borrow_mut();
        let file = spill_file(&mut sm, &mut files[kind], &mut self.created);
        let width = self.layouts[kind].record_width();
        Appender::new(file).append_records(&mut sm, &self.records, width)?;
        let bytes = self.records.len() as u64;
        self.records.clear();
        Ok(bytes)
    }

    /// Writes `groups` to the state file, a batch of them gathered and
    /// encoded at a time; returns the bytes (the caller's spill or respool).
    fn write_groups(&mut self, files: &mut SpillFiles, groups: &GroupTable) -> Result<u64> {
        let mut bytes = 0;
        for start in (0..groups.len()).step_by(DEFAULT_BATCH_SIZE) {
            self.cancel.check()?;
            let end = groups.len().min(start + DEFAULT_BATCH_SIZE);
            let rows = groups.rows(start..end, self.layouts[STATE].clone());
            rows.encode_records(&mut self.records)?;
            bytes += self.write(files, STATE)?;
        }
        Ok(bytes)
    }

    /// Evicts the largest resident partition. Returns `false` when no
    /// partition is resident (nothing left to evict).
    fn spill_victim(
        &mut self,
        parts: &mut [Partition],
        report: &mut DegradationReport,
    ) -> Result<bool> {
        let victim = parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.resident.as_ref().map(|t| (i, t.footprint())))
            .max_by_key(|&(_, f)| f);
        let Some((vi, _)) = victim else {
            return Ok(false);
        };
        let table = parts[vi].resident.take().expect("victim is resident");
        parts[vi].spilled = true;
        parts[vi].hot_misses = 0;
        let _span = self.span(
            format!("spill p{vi} ({} groups)", table.len()),
            SpanKind::Spill,
        );
        let bytes = self.write_groups(&mut parts[vi].files, &table)?;
        drop(table); // releases the partition's reservations
        report.note_spill(bytes);
        Ok(true)
    }

    /// Queues a delta record for `m`; its bytes count as spilled now.
    fn queue_delta(&self, part: &mut Partition, m: &Matched, report: &mut DegradationReport) {
        part.delta_rows.push(m.row);
        part.delta_dnos.push(m.dno.map_or(-1, i64::from));
        report.spill_bytes += self.layouts[DELTA].record_width() as u64;
    }

    /// Adopts `m`'s group as the hot group of a spilled partition (charged
    /// its group's bytes alone); a delta record when even that does not fit.
    fn adopt_hot(
        &self,
        part: &mut Partition,
        (probe, m): (&Probe, &Matched),
        report: &mut DegradationReport,
    ) -> Result<()> {
        match self.pool.reserve(self.group_bytes) {
            Ok(mem) => {
                let mut group = self.new_table(&MemoryPool::unbounded())?;
                group.insert(m.h, (probe, m.row), m.dno)?;
                part.hot = Some(HotGroup { group, _mem: mem });
            }
            Err(_) => self.queue_delta(part, m, report),
        }
        Ok(())
    }

    /// Absorbs a matched tuple into a spilled partition: the hot-group
    /// accumulator when the key matches, a delta record otherwise.
    fn absorb_spilled(
        &mut self,
        part: &mut Partition,
        (probe, m): (&Probe, &Matched),
        report: &mut DegradationReport,
    ) -> Result<()> {
        if let Some(hot) = &mut part.hot {
            if (probe, m.row).is(&hot.group, 0, &mut self.tally) {
                if let Some(d) = m.dno {
                    hot.group.absorb(0, d, &mut self.tally);
                }
                part.hot_misses = 0;
                return Ok(());
            }
            part.hot_misses += 1;
            if part.hot_misses < HOT_MISS_LIMIT {
                self.queue_delta(part, m, report);
                return Ok(());
            }
        }
        // No hot group yet, or the adopted one went cold: flush that and
        // re-adopt. The cold group gives its reservation back only after
        // the new one has taken its own, as it always has — a spill
        // decision hangs on it.
        self.tally.flush();
        let cold = part.hot.take();
        if let Some(cold) = &cold {
            report.spill_bytes += self.write_groups(&mut part.files, &cold.group)?;
            part.hot_misses = 0;
        }
        self.adopt_hot(part, (probe, m), report)
    }

    /// Routes one matched tuple, spilling victims until it lands.
    fn absorb(
        &mut self,
        parts: &mut [Partition],
        (probe, m): (&Probe, &Matched),
        report: &mut DegradationReport,
    ) -> Result<()> {
        let p = route(m.h, 0, self.fanout);
        loop {
            if parts[p].spilled {
                return self.absorb_spilled(&mut parts[p], (probe, m), report);
            }
            let landed = if let Some(table) = &mut parts[p].resident {
                let key = (probe, m.row);
                table.find_or_insert(m.h, key, &mut self.tally).map(|g| {
                    if let Some(d) = m.dno {
                        table.absorb(g, d, &mut self.tally);
                    }
                    true
                })
            } else {
                self.tally.flush();
                self.new_table(&self.pool).map(|table| {
                    parts[p].resident = Some(table);
                    false
                })
            };
            match landed {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) if e.is_memory_exhausted() => {
                    self.note_first_spill(report);
                    // The victim may be `p` itself (largest wins); the
                    // next iteration lands on the spilled path then. With
                    // nothing to evict, even an empty table does not fit:
                    // run this partition spilled.
                    if !self.spill_victim(parts, report)? {
                        parts[p].spilled = true;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn note_first_spill(&mut self, report: &mut DegradationReport) {
        if self.spilled_yet {
            return;
        }
        self.spilled_yet = true;
        if let Some(last) = report.phases.last_mut() {
            last.push_str(": memory exhausted");
        }
        report.note_retry();
        report.note_phase(format!("adaptive-hybrid f={}", self.fanout));
    }

    /// Re-admits one spilled partition when the pool has headroom again.
    fn maybe_revive(
        &mut self,
        parts: &mut [Partition],
        report: &mut DegradationReport,
    ) -> Result<()> {
        if self.pool.available() < self.revive_threshold {
            return Ok(());
        }
        self.tally.flush();
        let Some(vi) = parts.iter().position(|p| p.spilled) else {
            return Ok(());
        };
        let mut table = match self.new_table(&self.pool) {
            Ok(t) => t,
            // The headroom estimate was optimistic; stay spilled.
            Err(e) if e.is_memory_exhausted() => return Ok(()),
            Err(e) => return Err(e),
        };
        let _span = self.span(format!("revive p{vi}"), SpanKind::Revive);
        if let Some(hot) = parts[vi].hot.take() {
            // The table adopts the hot group, whole.
            let group = &hot.group;
            let h = group.keys().hash_rows(&self.qcols)[0];
            let (probe, mut tally) = (Probe::new(group.keys(), &self.qcols), Tally::default());
            let adopted = table.find_or_insert(h, (&probe, 0), &mut tally);
            match adopted {
                Ok(g) => table.merge(g, group.words(0).iter().copied(), &mut tally),
                Err(e) if e.is_memory_exhausted() => {
                    // Keep the hot group where it was and abort the revive.
                    parts[vi].hot = Some(hot);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        parts[vi].resident = Some(table);
        parts[vi].spilled = false;
        parts[vi].hot_misses = 0;
        report.note_revive();
        Ok(())
    }

    /// The `i`-th page of a spill file of layout `kind`, as columns.
    fn read_page(&self, file: Option<FileId>, kind: usize, i: u64) -> Result<Option<Batch>> {
        let mut sm = self.storage.borrow_mut();
        let page = file.map(|file| read_page(&mut sm, file, i, &self.layouts[kind]));
        Ok(page.transpose()?.flatten())
    }

    /// Streams the partition's spill files into a fresh table, a page at a
    /// time. On memory exhaustion the partial table is discarded (the
    /// files still hold every record) and the caller re-partitions.
    fn try_merge(&mut self, files: &SpillFiles) -> Result<GroupTable> {
        let mut table = self.new_table(&self.pool)?;
        let (qcols, mut tally) = (&self.qcols, Tally::default());
        for (kind, &file) in files.iter().enumerate() {
            for i in 0.. {
                let Some(page) = self.read_page(file, kind, i)? else {
                    break;
                };
                // What follows the quotient: words or a count, or a
                // divisor number.
                let tail: Vec<&[i64]> = (page.columns()[qcols.len()..].iter())
                    .map(|column| match column {
                        ColumnVec::Int(values) => &values[..],
                        ColumnVec::Str(_) => unreachable!("a spill record ends in Int columns"),
                    })
                    .collect();
                // One hash pass and one typed probe per page, the hashes
                // counted row by row: a merge that runs out of memory midway
                // counts what it used.
                let probe = Probe::new(&page, qcols);
                for (row, h) in page.hash_rows_uncounted(qcols).into_iter().enumerate() {
                    self.cancel.checkpoint(&mut self.budget)?;
                    counters::count_hashes(1);
                    let g = table.find_or_insert(h, (&probe, row), &mut tally)?;
                    match kind {
                        STATE => table.merge(g, tail.iter().map(|w| w[row] as u64), &mut tally),
                        // A negative number is none (vacuous divisor).
                        _ => {
                            if let Ok(d) = u32::try_from(tail[0][row]) {
                                table.absorb(g, d, &mut tally);
                            }
                        }
                    }
                }
            }
        }
        Ok(table)
    }

    /// Splits a partition's spill files into `fanout` sub-partitions with
    /// the next hash level, a page at a time. The bytes are *re-spooled*
    /// (already spilled once), so they land in `respool_bytes`, never
    /// `spill_bytes`.
    fn repartition(
        &mut self,
        files: SpillFiles,
        level: u32,
        report: &mut DegradationReport,
    ) -> Result<Vec<SpillFiles>> {
        let _span = self.span(format!("repartition level={level}"), SpanKind::Spill);
        let mut subs = vec![SpillFiles::default(); self.fanout];
        let fanout = self.fanout;
        for (kind, file) in files.into_iter().enumerate() {
            for i in 0.. {
                let Some(page) = self.read_page(file, kind, i)? else {
                    break;
                };
                self.cancel.check()?;
                let created = &mut self.created;
                report.respool_bytes += scatter(
                    self.storage,
                    &page,
                    &self.qcols,
                    fanout,
                    |h| route(h, level, fanout),
                    |sm, sub| spill_file(sm, &mut subs[sub][kind], created),
                    &mut self.records,
                )?;
            }
        }
        Ok(subs)
    }

    /// Emits the complete groups of `groups` into `out`, gathered at once.
    fn emit_complete(&self, groups: &GroupTable, out: &mut Relation) -> Result<()> {
        let complete: Vec<usize> = (0..groups.len())
            .filter(|&g| groups.complete(g, self.divisor_count))
            .collect();
        for t in groups.keys().gather(&complete).into_tuples() {
            out.push(t).map_err(ExecError::from)?;
        }
        Ok(())
    }

    /// Merges one partition's files, recursing on exhaustion. `depth` is
    /// the current recursion level (0 for the first pass).
    fn merge_files(
        &mut self,
        label: usize,
        files: SpillFiles,
        depth: u32,
        result: &mut Relation,
        report: &mut DegradationReport,
    ) -> Result<()> {
        if files == SpillFiles::default() {
            return Ok(());
        }
        let span = self.span(format!("merge p{label} depth={depth}"), SpanKind::Partition);
        match self.try_merge(&files) {
            Ok(table) => {
                self.emit_complete(&table, result)?;
                drop(span);
                Ok(())
            }
            Err(e) if e.is_memory_exhausted() => {
                drop(span);
                if depth >= MAX_RECURSION_DEPTH {
                    return Err(ExecError::RecursionLimit { depth });
                }
                report.note_recursion(depth + 1);
                let subs = self.repartition(files, depth + 1, report)?;
                for (i, sub) in subs.into_iter().enumerate() {
                    self.merge_files(i, sub, depth + 1, result, report)?;
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Finishes partition `p` after the input is consumed.
    fn finish_partition(
        &mut self,
        p: usize,
        part: &mut Partition,
        result: &mut Relation,
        report: &mut DegradationReport,
    ) -> Result<()> {
        let (resident, hot) = (part.resident.take(), part.hot.take());
        let mut groups = resident.iter().chain(hot.as_ref().map(|hot| &hot.group));
        let mut files = part.files;
        if files == SpillFiles::default() {
            // Fully in-memory: emit straight from the table (and the hot
            // group of a partition that spilled before writing anything).
            return groups.try_for_each(|groups| self.emit_complete(groups, result));
        }
        // Flush the in-memory remains so the files hold every record, then
        // merge from disk (first-time spills: these bytes never hit a file
        // before) with their memory given back.
        for groups in groups {
            report.spill_bytes += self.write_groups(&mut files, groups)?;
        }
        drop((resident, hot));
        self.merge_files(p, files, 0, result, report)
    }

    /// Writes the delta rows `batch` queued, a partition's in one append.
    fn flush_deltas(
        &mut self,
        parts: &mut [Partition],
        batch: &Batch,
        quotient_keys: &[usize],
    ) -> Result<()> {
        for part in parts.iter_mut().filter(|part| !part.delta_rows.is_empty()) {
            let dnos = ColumnVec::Int(part.delta_dnos.drain(..).collect());
            let mut deltas = Batch::with_capacity(self.quotient.clone(), dnos.len());
            for row in part.delta_rows.drain(..) {
                deltas.push_projected(batch, quotient_keys, row);
            }
            (deltas.widen(self.layouts[DELTA].clone(), [dnos]))
                .encode_records(&mut self.records)?;
            self.write(&mut part.files, DELTA)?;
        }
        Ok(())
    }

    /// Steps 1 and 2 for one batch of the dividend.
    fn ingest(
        &mut self,
        batch: &Batch,
        parts: &mut [Partition],
        dt: &DivisorTable,
        spec: &DivisionSpec,
        report: &mut DegradationReport,
    ) -> Result<()> {
        let keys = &spec.quotient_keys[..];
        // Step 1: the rows with a divisor tuple, and its number.
        let (rows, dnos) = dt.probe(batch, &spec.divisor_keys);
        // Step 2, a matched row at a time; their quotient keys are hashed
        // in one pass, so a noise row costs no hash.
        let hashes = batch.hash_rows_at(keys, &rows);
        let probe = Probe::new(batch, keys);
        for ((row, dno), h) in rows.into_iter().zip(dnos).zip(hashes) {
            self.cancel.checkpoint(&mut self.budget)?;
            self.absorb(parts, (&probe, &Matched { row, h, dno }), report)?;
            self.matched += 1;
            if self.spilled_yet && self.matched % REVIVE_STRIDE == 0 {
                self.maybe_revive(parts, report)?;
            }
        }
        self.tally.flush();
        self.flush_deltas(parts, batch, keys)
    }

    fn run(
        &mut self,
        dividend: BoxedBatchOp,
        dt: &DivisorTable,
        spec: &DivisionSpec,
        report: &mut DegradationReport,
    ) -> Result<Relation> {
        let mut parts: Vec<Partition> = (0..self.fanout).map(|_| Partition::default()).collect();
        // Closes the dividend on every exit.
        drain_batches(dividend, self.cancel, |batch| {
            self.ingest(&batch, &mut parts, dt, spec, report)
        })?;
        let mut result = Relation::empty(self.quotient.clone());
        for (p, part) in parts.iter_mut().enumerate() {
            self.finish_partition(p, part, &mut result, report)?;
        }
        Ok(result)
    }

    /// Deletes every spill file created during the run, success or not.
    fn cleanup(&mut self) {
        self.tally.flush();
        let mut sm = self.storage.borrow_mut();
        for f in self.created.drain(..) {
            let _ = sm.delete_file(f);
        }
    }
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
    let counter = mode == HashDivisionMode::CounterOnly;
    let bits = if counter { 0 } else { dt.count() as usize };
    let layout = |tail: Vec<Field>| {
        let quotient = quotient_schema.fields().iter().cloned();
        Schema::new(quotient.chain(tail).collect())
    };
    let words = match counter {
        true => vec![Field::int("count")],
        false => (0..bits.div_ceil(64))
            .map(|w| Field::int(format!("w{w}")))
            .collect(),
    };
    let mut hybrid = Hybrid {
        storage,
        pool: pool.clone(),
        mode: if counter {
            mode
        } else {
            HashDivisionMode::Standard
        },
        divisor_count: dt.count(),
        group_bytes: quotient_schema.record_width() + Bitmap::heap_bytes(bits),
        qcols: (0..spec.quotient_keys.len()).collect(),
        layouts: [layout(words), layout(vec![Field::int("dno")])],
        quotient: quotient_schema,
        fanout,
        cancel,
        budget: 0,
        profile,
        // Two average partitions' worth of headroom: one spill frees about
        // capacity/fanout, so a single-partition threshold would let every
        // spill immediately trigger a revive (spill-revive churn). Real
        // headroom (a neighbour query finishing) clears the bar.
        revive_threshold: (2 * (pool.capacity() / fanout)).max(8 * 1024),
        created: Vec::new(),
        records: Vec::new(),
        spilled_yet: false,
        matched: 0,
        tally: Tally::default(),
    };
    let result = hybrid.run(dividend, &dt, spec, report);
    hybrid.cleanup();
    drop(span);
    result
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
    use reldiv_rel::tuple::ints;
    use reldiv_storage::buffer::RetryPolicy;
    use reldiv_storage::manager::StorageConfig;
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
