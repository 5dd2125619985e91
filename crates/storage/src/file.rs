//! Extent-based record files.
//!
//! Files allocate disk space in extents (runs of physically contiguous
//! pages), so a sequential scan of a file is a sequence of mostly
//! sequential transfers — the property that lets hash-based algorithms
//! "not require random I/O and thus allow efficient read-ahead of
//! physically clustered or contiguous files" (Section 3.3).
//!
//! Records are addressed by [`Rid`]s (page id + slot number), which remain
//! stable across page compaction.

use crate::buffer::{FrameId, Reuse};
use crate::disk::{DiskId, PageId};
use crate::error::StorageError;
use crate::manager::StorageManager;
use crate::page::{Records, SlottedPage};
use crate::Result;

/// Number of pages allocated per extent.
pub const EXTENT_PAGES: u64 = 8;

/// Identifies a record file within a [`StorageManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// A record identifier: the page holding the record and its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// Catalog entry for one file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    pub(crate) disk: DiskId,
    /// `(first_page, n_pages)` extents, in allocation order.
    pub(crate) extents: Vec<(u64, u64)>,
    /// Pages initialized for records so far.
    pub(crate) pages_used: u64,
    /// Disk page number of the last of them, where appends go. Always in
    /// the last extent, so an append never walks the extent list.
    tail: Option<u64>,
    /// Live records.
    pub(crate) record_count: u64,
}

impl FileMeta {
    /// Page number (on the file's disk) of the `i`-th page of the file.
    fn nth_page(&self, i: u64) -> u64 {
        let mut remaining = i;
        for &(first, len) in &self.extents {
            if remaining < len {
                return first + remaining;
            }
            remaining -= len;
        }
        unreachable!("page index {i} beyond allocated extents");
    }

    /// The page after the tail, if the last extent still has one.
    fn next_in_extent(&self) -> Option<u64> {
        let &(first, len) = self.extents.last()?;
        let next = self.tail.map_or(first, |tail| tail + 1);
        (next < first + len).then_some(next)
    }
}

impl StorageManager {
    /// Creates an empty record file on `disk`.
    pub fn create_file(&mut self, disk: DiskId) -> FileId {
        let id = self.next_file;
        self.next_file += 1;
        self.files.insert(
            id,
            FileMeta {
                disk,
                extents: Vec::new(),
                pages_used: 0,
                tail: None,
                record_count: 0,
            },
        );
        FileId(id)
    }

    fn meta(&self, file: FileId) -> Result<&FileMeta> {
        self.files
            .get(&file.0)
            .ok_or(StorageError::NoSuchFile(file.0))
    }

    /// Number of live records in `file`.
    pub fn record_count(&self, file: FileId) -> Result<u64> {
        Ok(self.meta(file)?.record_count)
    }

    /// Number of pages the file has put records on (its page cardinality,
    /// the paper's `r`/`s`/`q`).
    pub fn page_count(&self, file: FileId) -> Result<u64> {
        Ok(self.meta(file)?.pages_used)
    }

    /// The disk a file lives on.
    pub fn file_disk(&self, file: FileId) -> Result<DiskId> {
        Ok(self.meta(file)?.disk)
    }

    /// Number of files currently in the catalog. Overflow handling creates
    /// and deletes temporary cluster/spill files; this lets callers (and
    /// tests) verify none leak.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Appends a record to the file, returning its RID.
    ///
    /// Appends go to the file's last page while it has room, then move to
    /// the next page of the extent (allocating a new extent when
    /// exhausted) — the bulk-load pattern of the workload loader and of
    /// every operator that spools an intermediate result. Writers that
    /// fill one file at a time use an [`Appender`].
    pub fn append(&mut self, file: FileId, record: &[u8]) -> Result<Rid> {
        self.append_at(file, &mut None, record)
    }

    /// [`StorageManager::append`], given the frame the file's tail page
    /// was last seen in (`last`, updated on return) to re-fix it by.
    fn append_at(
        &mut self,
        file: FileId,
        last: &mut Option<(PageId, FrameId)>,
        record: &[u8],
    ) -> Result<Rid> {
        let meta = self
            .files
            .get_mut(&file.0)
            .ok_or(StorageError::NoSuchFile(file.0))?;
        let disk = meta.disk;
        let max = SlottedPage::max_record(self.disks[disk.0].page_size());
        if record.len() > max {
            return Err(StorageError::RecordTooLarge {
                record: record.len(),
                max,
            });
        }
        // Try the current last page first.
        if let Some(page_no) = meta.tail {
            let pid = PageId::new(disk, page_no);
            let fid = match *last {
                Some((seen, fid)) if seen == pid && self.buffer.refix(fid) => fid,
                _ => self.buffer.fix(&mut self.disks, pid)?,
            };
            *last = Some((pid, fid));
            if SlottedPage::fits(self.buffer.page(fid)?, record.len()) {
                let slot = SlottedPage::insert(self.buffer.page_mut(fid)?, record)?;
                self.buffer.unfix(fid, Reuse::Lru)?;
                meta.record_count += 1;
                return Ok(Rid { page: pid, slot });
            }
            self.buffer.unfix(fid, Reuse::Lru)?;
        }
        // Move to a fresh page, extending the file by an extent if needed.
        let page_no = meta.next_in_extent().unwrap_or_else(|| {
            let first = self.disks[disk.0].allocate_extent(EXTENT_PAGES);
            meta.extents.push((first, EXTENT_PAGES));
            first
        });
        let pid = PageId::new(disk, page_no);
        // An allocated-but-never-written page is all zeroes on disk; a
        // zeroed frame is equivalent and costs no read transfer.
        let fid = self.buffer.install_zeroed(&mut self.disks, pid)?;
        *last = Some((pid, fid));
        meta.tail = Some(page_no);
        meta.pages_used += 1;
        meta.record_count += 1;
        let page = self.buffer.page_mut(fid)?;
        SlottedPage::init(page);
        let slot = SlottedPage::insert(page, record)?;
        self.buffer.unfix(fid, Reuse::Lru)?;
        Ok(Rid { page: pid, slot })
    }

    /// Reads the record at `rid`.
    pub fn get(&mut self, rid: Rid) -> Result<Vec<u8>> {
        let fid = self.fix(rid.page)?;
        let out = SlottedPage::get(self.page(fid)?, rid.slot).map(<[u8]>::to_vec);
        self.unfix(fid, Reuse::Lru)?;
        out.ok_or(StorageError::NoSuchRecord {
            page: rid.page.page,
            slot: rid.slot,
        })
    }

    /// Deletes the record at `rid` from `file`.
    pub fn delete_record(&mut self, file: FileId, rid: Rid) -> Result<()> {
        self.meta(file)?;
        let fid = self.fix(rid.page)?;
        let deleted = SlottedPage::delete(self.page_mut(fid)?, rid.slot);
        self.unfix(fid, Reuse::Lru)?;
        if !deleted {
            return Err(StorageError::NoSuchRecord {
                page: rid.page.page,
                slot: rid.slot,
            });
        }
        self.files
            .get_mut(&file.0)
            .expect("meta checked")
            .record_count -= 1;
        Ok(())
    }

    /// Deletes a file: discards its buffered pages without write-back and
    /// returns its extents to the disk's free list.
    ///
    /// Temporary files that never grew past the buffer pool therefore cost
    /// no I/O at all — the buffer-pool effect the paper highlights when
    /// explaining why small intermediate results are free.
    pub fn delete_file(&mut self, file: FileId) -> Result<()> {
        let meta = self
            .files
            .remove(&file.0)
            .ok_or(StorageError::NoSuchFile(file.0))?;
        for &(first, len) in &meta.extents {
            for p in first..first + len {
                self.buffer.discard(PageId::new(meta.disk, p));
                self.disks[meta.disk.0].release(p);
            }
        }
        Ok(())
    }

    /// Visits the `i`-th page of the file: fixes it once, hands `each` the
    /// page's id and all its live records at once — in slot order, as
    /// slices borrowed from the buffer pool — and unfixes it
    /// (`Reuse::Lru`) on every exit, so a scan touches each page exactly
    /// once and nothing stays fixed between visits. Returns `false`,
    /// visiting nothing, when the file has no `i`-th page; an error from
    /// `each` is returned.
    ///
    /// This is the paper's "scans give memory addresses to records fixed
    /// in the buffer pool": consumers decode in place instead of copying
    /// records out.
    pub fn visit_page<E: From<StorageError>>(
        &mut self,
        file: FileId,
        i: u64,
        each: impl FnOnce(PageId, Records<'_>) -> std::result::Result<(), E>,
    ) -> std::result::Result<bool, E> {
        let meta = self.meta(file)?;
        if i >= meta.pages_used {
            return Ok(false);
        }
        let pid = PageId::new(meta.disk, meta.nth_page(i));
        let fid = self.fix(pid)?;
        let visited = match self.page(fid) {
            Ok(page) => each(pid, SlottedPage::records(page)),
            Err(e) => Err(e.into()),
        };
        self.unfix(fid, Reuse::Lru)?;
        visited.map(|()| true)
    }
}

/// Appends a run of records to one file: the bulk form of
/// [`StorageManager::append`] for writers that fill one file at a time
/// (loaders, sort runs, materialized intermediates).
///
/// It remembers the buffer frame of the file's tail page and re-fixes it
/// by that handle, so a run of appends pays no page-table lookup per
/// record. The handle is not a pin: nothing stays fixed between calls (a
/// producer that reads other files in between, or an abandoned appender,
/// holds no frame), and page fill, extents, RIDs and every buffer and I/O
/// statistic are those of the same records through `append`.
pub struct Appender {
    file: FileId,
    last: Option<(PageId, FrameId)>,
}

impl Appender {
    /// Starts appending to `file`.
    pub fn new(file: FileId) -> Self {
        Appender { file, last: None }
    }

    /// Appends one record, returning its RID.
    pub fn append(&mut self, sm: &mut StorageManager, record: &[u8]) -> Result<Rid> {
        sm.append_at(self.file, &mut self.last, record)
    }

    /// Appends `records` — back-to-back records of `width` (> 0) bytes —
    /// fixing each tail page once: the write-side twin of
    /// [`StorageManager::visit_page`]. A page's first record goes through
    /// [`Appender::append`] (which turns the page), the rest of its run
    /// through [`SlottedPage::insert_run`] under one fix: all but the
    /// buffer's hit count is as if appended singly, and every page's bytes
    /// are.
    pub fn append_records(
        &mut self,
        sm: &mut StorageManager,
        records: &[u8],
        width: usize,
    ) -> Result<()> {
        let mut rest = &records[..records.len() / width * width];
        while let Some((record, tail)) = rest.split_at_checked(width) {
            self.append(sm, record)?;
            rest = tail;
            let (_, fid) = self.last.expect("append leaves the tail's frame");
            if rest.is_empty() || !sm.buffer.refix(fid) {
                continue;
            }
            let filled = SlottedPage::insert_run(sm.buffer.page_mut(fid)?, rest, width);
            rest = &rest[filled * width..];
            sm.buffer.unfix(fid, Reuse::Lru)?;
            sm.files
                .get_mut(&self.file.0)
                .expect("appended to")
                .record_count += filled as u64;
        }
        Ok(())
    }
}

/// A pull cursor over all records of a file, page at a time, for callers
/// that need records (with their RIDs) one by one.
///
/// The cursor copies one page's records into its own buffer during a
/// single [`StorageManager::visit_page`], so a scan touches each page
/// exactly once, leaves the buffer pool free to recycle frames behind it,
/// and allocates nothing per record.
pub struct ScanCursor {
    file: FileId,
    next_page: u64,
    /// The current page's records, back to back.
    bytes: Vec<u8>,
    /// `(rid, end offset in bytes)` of each of them.
    index: Vec<(Rid, usize)>,
    pos: usize,
}

impl ScanCursor {
    /// Opens a scan over `file`.
    pub fn new(file: FileId) -> Self {
        ScanCursor {
            file,
            next_page: 0,
            bytes: Vec::new(),
            index: Vec::new(),
            pos: 0,
        }
    }

    /// Whether the next call to [`ScanCursor::next`] visits a page.
    pub fn page_done(&self) -> bool {
        self.pos == self.index.len()
    }

    /// Returns the next `(rid, record)`, or `None` at end of file. The
    /// record is borrowed from the cursor until the next call.
    pub fn next(&mut self, sm: &mut StorageManager) -> Result<Option<(Rid, &[u8])>> {
        while self.pos == self.index.len() {
            let (bytes, index) = (&mut self.bytes, &mut self.index);
            bytes.clear();
            index.clear();
            self.pos = 0;
            let more = sm.visit_page(self.file, self.next_page, |page, records| {
                for (slot, record) in records {
                    bytes.extend_from_slice(record);
                    index.push((Rid { page, slot }, bytes.len()));
                }
                Ok::<(), StorageError>(())
            })?;
            if !more {
                return Ok(None);
            }
            self.next_page += 1;
        }
        let start = self.pos.checked_sub(1).map_or(0, |prev| self.index[prev].1);
        let (rid, end) = self.index[self.pos];
        self.pos += 1;
        Ok(Some((rid, &self.bytes[start..end])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferStats;
    use crate::manager::StorageConfig;

    fn sm() -> StorageManager {
        StorageManager::new(StorageConfig {
            data_page_size: 256,
            run_page_size: 128,
            buffer_bytes: 8 * 256,
            work_memory_bytes: 1 << 20,
        })
    }

    #[test]
    fn append_get_roundtrip() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        let r1 = s.append(f, b"alpha").unwrap();
        let r2 = s.append(f, b"beta").unwrap();
        assert_eq!(s.get(r1).unwrap(), b"alpha");
        assert_eq!(s.get(r2).unwrap(), b"beta");
        assert_eq!(s.record_count(f).unwrap(), 2);
    }

    #[test]
    fn appends_spill_across_pages_and_extents() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        // 256-byte pages hold ~17 records of 10 bytes; write enough to need
        // more pages than one extent (8 pages).
        let n = 400u32;
        let rids: Vec<Rid> = (0..n)
            .map(|i| s.append(f, format!("rec{i:06}").as_bytes()).unwrap())
            .collect();
        assert!(s.page_count(f).unwrap() > EXTENT_PAGES);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(s.get(*rid).unwrap(), format!("rec{i:06}").as_bytes());
        }
    }

    #[test]
    fn scan_returns_all_records_in_order() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        for i in 0..100u32 {
            s.append(f, &i.to_le_bytes()).unwrap();
        }
        let mut cursor = ScanCursor::new(f);
        let mut seen = Vec::new();
        while let Some((_, rec)) = cursor.next(&mut s).unwrap() {
            seen.push(u32::from_le_bytes(rec.try_into().unwrap()));
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn scan_of_empty_file_is_empty() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        let mut cursor = ScanCursor::new(f);
        assert!(cursor.next(&mut s).unwrap().is_none());
    }

    #[test]
    fn delete_record_then_get_fails() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        let rid = s.append(f, b"x").unwrap();
        s.delete_record(f, rid).unwrap();
        assert!(matches!(s.get(rid), Err(StorageError::NoSuchRecord { .. })));
        assert_eq!(s.record_count(f).unwrap(), 0);
        assert!(matches!(
            s.delete_record(f, rid),
            Err(StorageError::NoSuchRecord { .. })
        ));
    }

    #[test]
    fn scan_skips_deleted_records() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        let rids: Vec<Rid> = (0..10u8).map(|i| s.append(f, &[i]).unwrap()).collect();
        for rid in rids.iter().step_by(2) {
            s.delete_record(f, *rid).unwrap();
        }
        let mut cursor = ScanCursor::new(f);
        let mut seen = Vec::new();
        while let Some((_, rec)) = cursor.next(&mut s).unwrap() {
            seen.push(rec[0]);
        }
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn deleted_file_is_gone_and_pages_reused() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        for i in 0..50u32 {
            s.append(f, &i.to_le_bytes()).unwrap();
        }
        s.delete_file(f).unwrap();
        assert!(matches!(
            s.record_count(f),
            Err(StorageError::NoSuchFile(_))
        ));
        // A new file reuses the released pages (the disk does not grow).
        let before = s.disks[0].allocated_pages();
        let g = s.create_file(StorageManager::DATA_DISK);
        for i in 0..50u32 {
            s.append(g, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(s.disks[0].allocated_pages(), before);
    }

    #[test]
    fn temp_file_within_buffer_costs_no_io() {
        // The paper: temporary pages "remain in the buffer pool from run
        // creation to merging and deletion" — no transfers at all.
        let mut s = StorageManager::new(StorageConfig::large());
        let f = s.create_file(StorageManager::DATA_DISK);
        for i in 0..100u32 {
            s.append(f, &i.to_le_bytes()).unwrap();
        }
        let mut cursor = ScanCursor::new(f);
        while cursor.next(&mut s).unwrap().is_some() {}
        s.delete_file(f).unwrap();
        assert_eq!(s.io_stats().transfers(), 0);
    }

    #[test]
    fn sequential_scan_after_eviction_reads_sequentially() {
        // Tiny buffer (4 frames): a 100-record file cannot stay cached, so
        // the scan must reread pages — sequentially, with few seeks.
        let mut s = StorageManager::new(StorageConfig {
            data_page_size: 256,
            run_page_size: 128,
            buffer_bytes: 4 * 256,
            work_memory_bytes: 1 << 20,
        });
        let f = s.create_file(StorageManager::DATA_DISK);
        for i in 0..300u32 {
            s.append(f, &i.to_le_bytes()).unwrap();
        }
        s.flush_all().unwrap();
        s.reset_stats();
        let mut cursor = ScanCursor::new(f);
        let mut n = 0;
        while cursor.next(&mut s).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 300);
        let stats = s.io_stats();
        assert!(stats.reads > 0, "file larger than pool must read");
        assert!(
            stats.seeks * 4 <= stats.reads,
            "extent-based scan should be mostly sequential: {stats:?}"
        );
    }

    /// First-fit-on-tail, computed without the storage manager: a record
    /// goes on the file's last page if it fits beside the 6-byte header
    /// and the 4-byte slot entries, else on a fresh page. Returns each
    /// record's `(page index in the file, slot)`.
    fn reference_layout(page_size: usize, sizes: &[usize]) -> Vec<(u64, u16)> {
        let mut placed = Vec::new();
        let (mut pages, mut used, mut slots) = (0u64, 0usize, 0u16);
        for &len in sizes {
            if pages == 0 || 6 + used + len + 4 * (usize::from(slots) + 1) > page_size {
                pages += 1;
                (used, slots) = (0, 0);
            }
            placed.push((pages - 1, slots));
            used += len;
            slots += 1;
        }
        placed
    }

    #[test]
    fn append_and_appender_lay_records_out_first_fit_on_tail() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for (seed, page_size) in [(1u64, 128usize), (2, 256), (3, 1024), (4, 8192)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let max = SlottedPage::max_record(page_size).min(300);
            let sizes: Vec<usize> = (0..2000).map(|_| rng.gen_range(0..=max)).collect();
            let placed = reference_layout(page_size, &sizes);
            let pages = placed.last().expect("records were placed").0 + 1;
            // A fresh extent of the (otherwise unused) disk every eighth
            // page, so a file page's index is its disk page number.
            let extents: Vec<(u64, u64)> = (0..pages.div_ceil(EXTENT_PAGES))
                .map(|e| (e * EXTENT_PAGES, EXTENT_PAGES))
                .collect();

            let fresh = || {
                StorageManager::new(StorageConfig {
                    data_page_size: page_size,
                    run_page_size: 128,
                    buffer_bytes: 4 * page_size,
                    work_memory_bytes: 1 << 20,
                })
            };
            let record = |i: usize| vec![i as u8; sizes[i]];
            let mut single = fresh();
            let f = single.create_file(StorageManager::DATA_DISK);
            let by_append: Vec<Rid> = (0..sizes.len())
                .map(|i| single.append(f, &record(i)).unwrap())
                .collect();
            let mut bulk = fresh();
            let g = bulk.create_file(StorageManager::DATA_DISK);
            let mut out = Appender::new(g);
            let by_appender: Vec<Rid> = (0..sizes.len())
                .map(|i| out.append(&mut bulk, &record(i)).unwrap())
                .collect();

            let expected: Vec<Rid> = placed
                .iter()
                .map(|&(page, slot)| Rid {
                    page: PageId::new(StorageManager::DATA_DISK, page),
                    slot,
                })
                .collect();
            assert_eq!(by_append, expected, "append, {page_size} B pages");
            assert_eq!(by_appender, expected, "appender, {page_size} B pages");
            for (sm, file) in [(&mut single, f), (&mut bulk, g)] {
                assert_eq!(sm.files[&file.0].extents, extents);
                assert_eq!(sm.page_count(file).unwrap(), pages);
                assert_eq!(sm.record_count(file).unwrap(), sizes.len() as u64);
                assert_eq!(sm.pinned_frames(), 0);
                let mut cursor = ScanCursor::new(file);
                for (i, rid) in expected.iter().enumerate() {
                    let (got, bytes) = cursor.next(sm).unwrap().unwrap();
                    assert_eq!((got, bytes), (*rid, &record(i)[..]));
                }
                assert!(cursor.next(sm).unwrap().is_none());
            }
            // Same transfers and the same buffer-pool activity either way.
            assert_eq!(single.io_stats(), bulk.io_stats());
            assert_eq!(single.buffer_stats(), bulk.buffer_stats());
        }
    }

    #[test]
    fn append_records_lays_a_run_out_as_append_does_with_fewer_pool_hits() {
        // 21 + 4 bytes fill a 256-byte page's 250 exactly, as 18 + 4 do a
        // 512-byte page's 506.
        let cases = [
            (128usize, 16usize),
            (256, 7),
            (1024, 16),
            (1024, 300),
            (256, 21),
            (512, 18),
        ];
        for (page_size, width) in cases {
            let fresh = || {
                StorageManager::new(StorageConfig {
                    data_page_size: page_size,
                    run_page_size: 128,
                    buffer_bytes: 4 * page_size,
                    work_memory_bytes: 1 << 20,
                })
            };
            let records: Vec<u8> = (0..1000 * width).map(|i| (i / width) as u8).collect();
            let mut single = fresh();
            let f = single.create_file(StorageManager::DATA_DISK);
            for record in records.chunks(width) {
                single.append(f, record).unwrap();
            }
            // In uneven chunks, the empty one included.
            let mut bulk = fresh();
            let g = bulk.create_file(StorageManager::DATA_DISK);
            let mut out = Appender::new(g);
            let mut rest = &records[..];
            for n in [0, 1, 2, 400, 3, 594] {
                let (chunk, tail) = rest.split_at(n * width);
                out.append_records(&mut bulk, chunk, width).unwrap();
                rest = tail;
            }
            assert!(rest.is_empty());

            assert_eq!(single.files[&f.0].extents, bulk.files[&g.0].extents);
            assert_eq!(single.page_count(f).unwrap(), bulk.page_count(g).unwrap());
            assert_eq!(bulk.record_count(g).unwrap(), 1000);
            assert_eq!(bulk.pinned_frames(), 0);
            let (mut a, mut b) = (ScanCursor::new(f), ScanCursor::new(g));
            while let Some((rid, record)) = a.next(&mut single).unwrap() {
                assert_eq!(b.next(&mut bulk).unwrap(), Some((rid, record)));
            }
            assert!(b.next(&mut bulk).unwrap().is_none());
            // Same transfers, seeks and bytes; the pool saw each tail page
            // a few times, not once per record.
            assert_eq!(single.io_stats(), bulk.io_stats());
            let (one, run) = (single.buffer_stats(), bulk.buffer_stats());
            assert!(run.hits < one.hits, "{run:?} vs {one:?}");
            assert_eq!(
                BufferStats { hits: 0, ..one },
                BufferStats { hits: 0, ..run }
            );
            // And every page is the same bytes, so the same checksum.
            assert_eq!(pages_of(&mut single, f), pages_of(&mut bulk, g));
        }
    }

    /// Every page of `file`: its bytes and their checksum.
    fn pages_of(sm: &mut StorageManager, file: FileId) -> Vec<(Vec<u8>, u64)> {
        let meta = sm.files[&file.0].clone();
        let page = |sm: &mut StorageManager, i| {
            let fid = sm.fix(PageId::new(meta.disk, meta.nth_page(i))).unwrap();
            let bytes = sm.page(fid).unwrap().to_vec();
            sm.unfix(fid, Reuse::Lru).unwrap();
            let checksum = crate::disk::page_checksum(&bytes);
            (bytes, checksum)
        };
        (0..meta.pages_used).map(|i| page(sm, i)).collect()
    }

    #[test]
    fn append_records_reuses_a_deleted_slot_as_append_does() {
        // A tail page with deleted slots takes the fallback: the run first
        // refills the freed slots, then appends, page for page as single
        // appends do.
        let fresh = || {
            let mut s = sm();
            let f = s.create_file(StorageManager::DATA_DISK);
            let rids: Vec<Rid> = (0..20u8).map(|i| s.append(f, &[i; 12]).unwrap()).collect();
            let tail = rids.last().unwrap().page;
            let on_tail: Vec<Rid> = rids.into_iter().filter(|r| r.page == tail).collect();
            for rid in [on_tail[1], on_tail[3]] {
                s.delete_record(f, rid).unwrap();
            }
            (s, f)
        };
        let records: Vec<u8> = (0..60 * 12).map(|i| (100 + i / 12) as u8).collect();
        let (mut single, f) = fresh();
        for record in records.chunks(12) {
            single.append(f, record).unwrap();
        }
        let (mut bulk, g) = fresh();
        Appender::new(g)
            .append_records(&mut bulk, &records, 12)
            .unwrap();
        assert_eq!(single.record_count(f).unwrap(), 78);
        assert_eq!(bulk.record_count(g).unwrap(), 78);
        assert_eq!(single.io_stats(), bulk.io_stats());
        assert_eq!(pages_of(&mut single, f), pages_of(&mut bulk, g));
    }

    #[test]
    fn appender_survives_eviction_and_interleaved_appends() {
        // Two frames: reading another file between two appends evicts the
        // tail page, and a plain append moves the tail under the
        // appender; its stale frame handle must not be trusted either way.
        let mut s = StorageManager::new(StorageConfig {
            data_page_size: 128,
            run_page_size: 128,
            buffer_bytes: 2 * 128,
            work_memory_bytes: 1 << 20,
        });
        let other = s.create_file(StorageManager::DATA_DISK);
        for i in 0..40u8 {
            s.append(other, &[i; 10]).unwrap();
        }
        let f = s.create_file(StorageManager::DATA_DISK);
        let mut out = Appender::new(f);
        let mut written = Vec::new();
        for i in 0..60u8 {
            if i % 3 == 0 {
                let mut cursor = ScanCursor::new(other);
                while cursor.next(&mut s).unwrap().is_some() {}
            }
            if i % 5 == 0 {
                s.append(f, &[i, 0xEE]).unwrap();
                written.push(vec![i, 0xEE]);
            }
            out.append(&mut s, &[i; 10]).unwrap();
            written.push(vec![i; 10]);
        }
        let mut cursor = ScanCursor::new(f);
        for want in &written {
            assert_eq!(cursor.next(&mut s).unwrap().unwrap().1, &want[..]);
        }
        assert!(cursor.next(&mut s).unwrap().is_none());
        assert_eq!(s.pinned_frames(), 0);
    }

    #[test]
    fn visit_page_unfixes_when_the_visitor_fails() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        for i in 0..30u8 {
            s.append(f, &[i; 10]).unwrap();
        }
        let mut seen = 0;
        let stopped: Result<bool> = s.visit_page(f, 0, |_, records| {
            seen = records.len();
            Err(StorageError::InvalidFrame)
        });
        assert_eq!(stopped, Err(StorageError::InvalidFrame));
        assert!(seen > 0, "the page's records were handed over");
        assert_eq!(s.pinned_frames(), 0);
        let pages = s.page_count(f).unwrap();
        assert_eq!(
            s.visit_page(f, pages, |_, _| Ok::<(), StorageError>(())),
            Ok(false)
        );
    }

    #[test]
    fn oversized_record_rejected() {
        let mut s = sm();
        let f = s.create_file(StorageManager::DATA_DISK);
        assert!(matches!(
            s.append(f, &vec![0u8; 300]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }
}
