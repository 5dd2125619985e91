//! The one spill of every hash grouping: a [`GroupTable`] per partition,
//! partitioned dynamically in the style of robust dynamic hybrid
//! hash-join. Hash-division's adaptive hybrid (Section 3.4's quotient
//! partitioning, `reldiv-core`), the group count and the distinct all
//! overflow through it; only what a group keeps differs (its
//! [`Aggregate`]), and with it how two records of a group merge.
//!
//! * **Optimistic start.** Rows are routed into `fanout` partitions, all
//!   memory-resident. A grouping whose one resident table ran out hands
//!   it over whole ([`Hybrid::adopt`]): its groups go to their partitions'
//!   state files, and the partitions start again resident.
//! * **Incremental spill.** When the pool is exhausted, the *largest*
//!   resident partition is evicted: its table is serialized to a partition
//!   file and its memory freed. Only as many partitions spill as the
//!   actual input requires.
//! * **Skew handling.** A spilled partition keeps a one-entry *hot group*
//!   accumulator: the first key seen after the spill is adopted and
//!   absorbs its rows in memory, so one huge group (the classic skew case)
//!   does not force a delta record per row. A miss streak re-adopts the
//!   currently hot key.
//! * **Revive.** Between rows the engine watches the pool; when memory
//!   frees up (another query finished), a spilled partition is re-admitted
//!   with a fresh resident table.
//! * **Bounded recursion.** After the input is consumed, each spilled
//!   partition is merged back in memory; a partition that still does not
//!   fit is re-partitioned by the next hash level and retried, down to
//!   [`MAX_RECURSION_DEPTH`] levels, past which the typed
//!   [`ExecError::RecursionLimit`] is returned.
//!
//! Spill files come in two fixed-width record layouts per partition: a
//! *state* file of whole groups (key columns + the group's words) and a
//! *delta* file of single rows (key columns, + the divisor number under a
//! bit map). Merging adds counts, ORs bit maps and sets delta bits, and
//! keeps one row of a distinct key, so duplicate rows stay harmless in the
//! bit-map modes exactly as in Figure 1.
//!
//! Both ends work on columns (`docs/MEMORY.md`, "Batches in, pages back"):
//! batches in, keys hashed a batch or a page at a time, rows compared in
//! place through the batch's or the page's typed key columns, state
//! records encoded from a table's columns. The decisions — routing,
//! victims, revives, what a reservation is taken for and when — are made
//! row by row, so they are those of a tuple-at-a-time run, and each spill
//! file holds the records, in the order, it always did. Outside the pool
//! the engine holds one input batch's queued row numbers, one spill page
//! and at most a batch's worth of encoded records.
//!
//! Every decision is recorded: spills/revives/recursion in the
//! [`DegradationReport`] and, given a sink, as [`SpanKind::Spill`],
//! [`SpanKind::Revive`] and [`SpanKind::Partition`] profile spans. Every
//! file the engine creates is deleted when it is dropped, on every exit.

use reldiv_rel::column::ColumnVec;
use reldiv_rel::schema::Field;
use reldiv_rel::{counters, Batch, Schema};
use reldiv_storage::file::Appender;
use reldiv_storage::memory::Reservation;
use reldiv_storage::{splitmix64, FileId, MemoryPool, StorageManager, StorageRef};

use crate::batch::scan::read_page;
use crate::batch::DEFAULT_BATCH_SIZE;
use crate::cancel::CancelToken;
use crate::groups::{Aggregate, GroupTable};
use crate::hash_table::{Key, Probe, Tally};
use crate::profile::{ProfileSink, SpanKind, SpanScope};
use crate::report::DegradationReport;
use crate::{ExecError, Result};

/// Default number of hash partitions.
pub const DEFAULT_FANOUT: usize = 16;

/// Re-partitioning recursion bound: a partition that still exceeds the
/// budget after this many hash levels yields [`ExecError::RecursionLimit`]
/// (for hash-division, the signal that the *divisor* side must be
/// partitioned instead).
pub const MAX_RECURSION_DEPTH: u32 = 6;

/// Rows between revive checks of the memory pool.
const REVIVE_STRIDE: u64 = 256;

/// Consecutive hot-group misses before the accumulator re-adopts.
const HOT_MISS_LIMIT: u32 = 16;

/// Routes a key hash to a partition at recursion `level`. Each level
/// remixes with a different seed so sub-partitions of one partition
/// spread evenly.
fn route(h: u64, level: u32, fanout: usize) -> usize {
    (splitmix64(h ^ u64::from(level).wrapping_mul(0xA076_1D64_78BD_642F)) as usize) % fanout
}

/// Appends every row of `batch` to the file of its cluster, `cluster(h)`
/// of its hash `h` on `keys` (`< clusters`): one `hash_rows` for the
/// batch, then per cluster that got rows one `gather`, `encode_records`
/// and `append_records` into `file(cluster)`, in cluster order. `records`
/// is scratch, empty between calls. Returns the bytes written.
pub fn scatter(
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
/// groups (key + words), at [`DELTA`] single rows (key, + divisor number
/// under a bit map). Each is created by its first record.
type SpillFiles = [Option<FileId>; 2];
const STATE: usize = 0;
const DELTA: usize = 1;

/// One partition.
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

/// One row to absorb: its row of the batch probed on the key columns, its
/// hash on them, and the number [`GroupTable::absorb`] takes (a bit map's
/// divisor number; any for a count or a distinct), `None` for a row that
/// only makes its group exist (a vacuous divisor's).
struct Matched {
    row: usize,
    h: u64,
    dno: Option<u32>,
}

/// The partition engine: `fanout` partitions of groups, what they have
/// spilled, and the files it created.
pub struct Hybrid<'a> {
    storage: &'a StorageRef,
    pool: MemoryPool,
    agg: Aggregate,
    /// The bytes a group is accounted at.
    group_bytes: usize,
    /// The key columns' schema: the head of either spill record.
    keys: Schema,
    /// `0..key arity`: the key columns of either spill record.
    qcols: Vec<usize>,
    /// The spill-record layouts, at [`STATE`] and [`DELTA`].
    layouts: [Schema; 2],
    fanout: usize,
    cancel: CancelToken,
    budget: u32,
    profile: Option<&'a ProfileSink>,
    /// Pool headroom that triggers a revive.
    revive_threshold: usize,
    /// Every spill file ever created, deleted in one sweep when the engine
    /// is dropped so an abandoned run (fallback to divisor partitioning, a
    /// cancel) cannot leak temporary files.
    created: Vec<FileId>,
    /// Records on their way to a spill file; empty between writes.
    records: Vec<u8>,
    /// Whether anything has spilled, and the rows absorbed so far (the
    /// revive cadence).
    spilled_yet: bool,
    matched: u64,
    /// The probes' `Comp`s and `Bit`s, flushed before whatever can fail
    /// or open a span.
    tally: Tally,
    parts: Vec<Partition>,
}

impl<'a> Hybrid<'a> {
    /// An engine of `fanout` partitions of `agg` groups keyed by rows of
    /// `keys`, in `pool`, spilling to `storage`'s data disk, polling
    /// `cancel` and opening its spans in `profile`.
    pub fn new(
        storage: &'a StorageRef,
        pool: &MemoryPool,
        keys: Schema,
        agg: Aggregate,
        fanout: usize,
        cancel: CancelToken,
        profile: Option<&'a ProfileSink>,
    ) -> Hybrid<'a> {
        let layout = |tail: Vec<Field>| {
            let head = keys.fields().iter().cloned();
            Schema::new(head.chain(tail).collect())
        };
        let dno = match agg {
            Aggregate::BitMap { .. } => vec![Field::int("dno")],
            _ => Vec::new(),
        };
        Hybrid {
            storage,
            pool: pool.clone(),
            agg,
            group_bytes: agg.group_bytes(&keys),
            qcols: (0..keys.arity()).collect(),
            layouts: [layout(agg.word_fields()), layout(dno)],
            keys,
            fanout,
            cancel,
            budget: 0,
            profile,
            // Two average partitions' worth of headroom: one spill frees
            // about capacity/fanout, so a single-partition threshold would
            // let every spill immediately trigger a revive (spill-revive
            // churn). Real headroom (a neighbour query finishing) clears
            // the bar.
            revive_threshold: (2 * (pool.capacity() / fanout)).max(8 * 1024),
            created: Vec::new(),
            records: Vec::new(),
            spilled_yet: false,
            matched: 0,
            tally: Tally::default(),
            parts: (0..fanout).map(|_| Partition::default()).collect(),
        }
    }

    /// Takes over `table`, the one resident table of a grouping that ran
    /// out of memory: each group goes to its partition's state file, the
    /// table's memory is released, and every partition starts resident.
    pub fn adopt(&mut self, table: GroupTable, report: &mut DegradationReport) -> Result<()> {
        self.note_first_spill(report);
        let mut routed = vec![Vec::new(); self.fanout];
        for g in 0..table.len() {
            routed[route(table.hash(g), 0, self.fanout)].push(g);
        }
        let mut parts = std::mem::take(&mut self.parts);
        let written: Result<Vec<u64>> = (parts.iter_mut().zip(&routed))
            .map(|(part, groups)| self.write_groups(&mut part.files, &table, groups))
            .collect();
        self.parts = parts;
        report.spill_bytes += written?.into_iter().sum::<u64>();
        Ok(())
    }

    /// Absorbs `rows` of `batch`, grouped on its columns `keys` — row
    /// `rows[i]` under hash `hashes[i]` with divisor number `dnos[i]` —
    /// spilling victims until each lands; then writes the delta records
    /// the batch queued.
    pub fn absorb_rows(
        &mut self,
        (batch, keys): (&Batch, &[usize]),
        (rows, hashes, dnos): (&[usize], &[u64], &[Option<u32>]),
        report: &mut DegradationReport,
    ) -> Result<()> {
        let (mut parts, probe) = (std::mem::take(&mut self.parts), Probe::new(batch, keys));
        let mut absorbed = || {
            for ((&row, &h), &dno) in rows.iter().zip(hashes).zip(dnos) {
                self.cancel.checkpoint(&mut self.budget)?;
                self.absorb(&mut parts, (&probe, &Matched { row, h, dno }), report)?;
                self.matched += 1;
                if self.spilled_yet && self.matched % REVIVE_STRIDE == 0 {
                    self.maybe_revive(&mut parts, report)?;
                }
            }
            self.tally.flush();
            self.flush_deltas(&mut parts, batch, keys)
        };
        let absorbed = absorbed();
        self.parts = parts;
        absorbed
    }

    /// Hands every group to `emit`, a table at a time, once the input is
    /// consumed: a partition that never spilled straight from memory,
    /// one that did merged back from its files (re-partitioned while it
    /// does not fit). Under `settle_first` every partition's in-memory
    /// groups leave the pool — emitted, or written to its files — before
    /// the first merge, so each merge has the whole pool; otherwise (as
    /// hash-division's recorded decisions have it) a partition settles
    /// only when its turn comes, the later ones still resident.
    pub fn finish(
        mut self,
        settle_first: bool,
        report: &mut DegradationReport,
        mut emit: impl FnMut(&GroupTable) -> Result<()>,
    ) -> Result<()> {
        let mut parts = std::mem::take(&mut self.parts);
        let mut settled = Vec::new();
        for (p, part) in parts.iter_mut().enumerate() {
            if let Some(files) = self.settle(part, &mut emit, report)? {
                match settle_first {
                    true => settled.push((p, files)),
                    false => self.merge_files(p, files, 0, &mut emit, report)?,
                }
            }
        }
        for (p, files) in settled {
            self.merge_files(p, files, 0, &mut emit, report)?;
        }
        Ok(())
    }

    /// An empty table of groups, in `pool`.
    fn new_table(&self, pool: &MemoryPool) -> Result<GroupTable> {
        GroupTable::new(pool, &self.keys, self.agg)
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

    /// Writes `groups` of `table` to the state file, a batch of them
    /// gathered and encoded at a time; returns the bytes (the caller's
    /// spill or respool).
    fn write_groups(
        &mut self,
        files: &mut SpillFiles,
        table: &GroupTable,
        groups: &[usize],
    ) -> Result<u64> {
        let mut bytes = 0;
        for chunk in groups.chunks(DEFAULT_BATCH_SIZE) {
            self.cancel.check()?;
            let rows = table.rows(chunk, self.layouts[STATE].clone());
            rows.encode_records(&mut self.records)?;
            bytes += self.write(files, STATE)?;
        }
        Ok(bytes)
    }

    /// Writes every group of `table` to the state file; returns the bytes.
    fn write_table(&mut self, files: &mut SpillFiles, table: &GroupTable) -> Result<u64> {
        let all: Vec<usize> = (0..table.len()).collect();
        self.write_groups(files, table, &all)
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
        let bytes = self.write_table(&mut parts[vi].files, &table)?;
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

    /// Absorbs a row into a spilled partition: the hot-group accumulator
    /// when the key matches, a delta record otherwise.
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
            report.spill_bytes += self.write_table(&mut part.files, &cold.group)?;
            part.hot_misses = 0;
        }
        self.adopt_hot(part, (probe, m), report)
    }

    /// Routes one row, spilling victims until it lands.
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
                // What follows the key: words, or a divisor number.
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
                        // A negative number is none (vacuous divisor); a
                        // delta of a count or a distinct carries none.
                        _ => {
                            let dno = tail.first().map_or(Ok(0), |dnos| u32::try_from(dnos[row]));
                            if let Ok(d) = dno {
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

    /// Merges one partition's files, recursing on exhaustion. `depth` is
    /// the current recursion level (0 for the first pass).
    fn merge_files(
        &mut self,
        label: usize,
        files: SpillFiles,
        depth: u32,
        emit: &mut impl FnMut(&GroupTable) -> Result<()>,
        report: &mut DegradationReport,
    ) -> Result<()> {
        if files == SpillFiles::default() {
            return Ok(());
        }
        let span = self.span(format!("merge p{label} depth={depth}"), SpanKind::Partition);
        match self.try_merge(&files) {
            Ok(table) => {
                emit(&table)?;
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
                    self.merge_files(i, sub, depth + 1, emit, report)?;
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Takes partition `part`'s groups out of the pool once the input is
    /// consumed: emits them if it never spilled; else writes them to its
    /// files and returns those, to merge.
    fn settle(
        &mut self,
        part: &mut Partition,
        emit: &mut impl FnMut(&GroupTable) -> Result<()>,
        report: &mut DegradationReport,
    ) -> Result<Option<SpillFiles>> {
        let (resident, hot) = (part.resident.take(), part.hot.take());
        let mut groups = resident.iter().chain(hot.as_ref().map(|hot| &hot.group));
        let mut files = part.files;
        if files == SpillFiles::default() {
            // Fully in-memory: emit straight from the table (and the hot
            // group of a partition that spilled before writing anything).
            groups.try_for_each(emit)?;
            return Ok(None);
        }
        // Flush the in-memory remains so the files hold every record, then
        // merge from disk (first-time spills: these bytes never hit a file
        // before) with their memory given back.
        for groups in groups {
            report.spill_bytes += self.write_table(&mut files, groups)?;
        }
        Ok(Some(files))
    }

    /// Writes the delta rows `batch` queued, a partition's in one append.
    fn flush_deltas(
        &mut self,
        parts: &mut [Partition],
        batch: &Batch,
        keys: &[usize],
    ) -> Result<()> {
        let dno = self.layouts[DELTA].arity() > keys.len();
        for part in parts.iter_mut().filter(|part| !part.delta_rows.is_empty()) {
            let dnos = ColumnVec::Int(part.delta_dnos.drain(..).collect());
            let mut deltas = Batch::with_capacity(self.keys.clone(), dnos.len());
            for row in part.delta_rows.drain(..) {
                deltas.push_projected(batch, keys, row);
            }
            let tail = dno.then_some(dnos);
            (deltas.widen(self.layouts[DELTA].clone(), tail)).encode_records(&mut self.records)?;
            self.write(&mut part.files, DELTA)?;
        }
        Ok(())
    }
}

impl Drop for Hybrid<'_> {
    /// Deletes every spill file created, success or not.
    fn drop(&mut self) {
        self.tally.flush();
        if let Ok(mut sm) = self.storage.try_borrow_mut() {
            for f in self.created.drain(..) {
                let _ = sm.delete_file(f);
            }
        }
    }
}
