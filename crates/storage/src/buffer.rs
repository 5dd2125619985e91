//! The buffer manager.
//!
//! Modeled on the paper's description: "a fast buffer manager ... Copying
//! is avoided as scans give memory addresses to records fixed in the buffer
//! pool. When all buffer slots are fixed and a new request cannot be
//! satisfied, the buffer pool grows dynamically until the main memory pool
//! is exhausted ... An unfix call indicates whether the page can be replaced
//! immediately or should be inserted into an LRU list."
//!
//! Frames are addressed by generation-checked [`FrameId`]s; a stale id
//! (used after its frame was evicted) is detected rather than silently
//! serving another page's bytes.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use crate::disk::{DiskId, PageId, SimDisk};
use crate::error::StorageError;
use crate::Result;

/// How the buffer manager retries transient disk faults.
///
/// Transient faults ([`StorageError::Transient`]) are retried up to
/// `max_retries` times with exponential backoff (`backoff_base · 2^k`,
/// capped at `backoff_cap`) before the error escalates to the caller.
/// Permanent faults and checksum mismatches are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient fault escalates
    /// immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// Sleeps for the backoff of retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32) {
        let exp = attempt.saturating_sub(1).min(20);
        let sleep = self
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap);
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
}

/// Sentinel disk id for virtual pages: buffered but never written to any
/// disk. The paper: "the buffer manager also supports virtual devices,
/// i.e., records can have a record identifier and can be fixed in the
/// buffer pool but disappear when unfixed."
pub const VIRTUAL_DISK: DiskId = DiskId(usize::MAX);

/// Replacement hint given at unfix time.
///
/// The paper: "An unfix call indicates whether the page can be replaced
/// immediately or should be inserted into an LRU list."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// Keep the page cached; insert at the most-recently-used end.
    Lru,
    /// The caller will not touch this page again; make it the preferred
    /// eviction victim.
    Immediate,
}

/// Handle to a fixed frame. Valid from `fix` until the matching `unfix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId {
    index: usize,
    gen: u64,
}

/// Buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Fix requests satisfied from the pool.
    pub hits: u64,
    /// Fix requests that had to read the page from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to disk on eviction or flush.
    pub writebacks: u64,
    /// High-water mark of pool size in bytes.
    pub peak_bytes: usize,
    /// Read transfers re-issued after a transient fault.
    pub read_retries: u64,
    /// Write transfers re-issued after a transient fault.
    pub write_retries: u64,
}

impl BufferStats {
    /// Component-wise difference `self - earlier`, saturating at zero.
    ///
    /// Attributes buffer activity to a region of execution: capture
    /// `stats()` before and after, then `after.since(&before)`. The
    /// `peak_bytes` high-water mark is not a counter and is carried over
    /// from `self` unchanged.
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            peak_bytes: self.peak_bytes,
            read_retries: self.read_retries.saturating_sub(earlier.read_retries),
            write_retries: self.write_retries.saturating_sub(earlier.write_retries),
        }
    }
}

struct Frame {
    pid: PageId,
    data: Box<[u8]>,
    pin_count: u32,
    dirty: bool,
    gen: u64,
    /// Whether a `(slot, gen)` entry for this frame sits in the
    /// replacement queue. Queue entries are invalidated lazily — checked
    /// when popped, never searched for — so re-fixing a cached page is
    /// O(1) instead of O(queue).
    queued: bool,
}

/// A fix/unfix buffer pool with LRU replacement and a byte budget.
pub struct BufferManager {
    slots: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    /// Replacement candidates in LRU order (front = victim), as
    /// `(slot, frame generation)` pairs. Entries can go stale (frame
    /// re-pinned, discarded, or evicted via a duplicate entry); they are
    /// validated against the live frame when popped.
    replace_queue: VecDeque<(usize, u64)>,
    free_slots: Vec<usize>,
    budget_bytes: usize,
    used_bytes: usize,
    next_gen: u64,
    next_virtual_page: u64,
    stats: BufferStats,
    retry: RetryPolicy,
}

impl BufferManager {
    /// Creates a pool that may grow up to `budget_bytes` of page frames.
    ///
    /// The paper's experiments used an initial buffer of 256 KB; we treat
    /// the budget as the pool's exhaustion point, growing on demand from
    /// empty exactly as the paper's pool grows until the memory pool is
    /// exhausted.
    pub fn new(budget_bytes: usize) -> Self {
        BufferManager {
            slots: Vec::new(),
            map: HashMap::new(),
            replace_queue: VecDeque::new(),
            free_slots: Vec::new(),
            budget_bytes,
            used_bytes: 0,
            next_gen: 0,
            next_virtual_page: 0,
            stats: BufferStats::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the transient-fault retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The current transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Reads `page` with bounded retry on transient faults, counting each
    /// re-issued transfer in `stats.read_retries`.
    fn read_with_retry(
        disk: &mut SimDisk,
        page: u64,
        buf: &mut [u8],
        stats: &mut BufferStats,
        policy: RetryPolicy,
    ) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match disk.read(page, buf) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    attempt += 1;
                    stats.read_retries += 1;
                    policy.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes `page` with bounded retry on transient faults, counting each
    /// re-issued transfer in `stats.write_retries`.
    fn write_with_retry(
        disk: &mut SimDisk,
        page: u64,
        buf: &[u8],
        stats: &mut BufferStats,
        policy: RetryPolicy,
    ) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match disk.write(page, buf) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    attempt += 1;
                    stats.write_retries += 1;
                    policy.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The pool's byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Current pool size in bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Number of frames currently fixed (pin count > 0). A quiescent pool
    /// — no scan or operator mid-flight — must report zero; tests use this
    /// to prove error paths unfix everything they fixed.
    pub fn pinned_frames(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|f| f.pin_count > 0)
            .count()
    }

    /// Resets statistics (not pool contents).
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
        self.stats.peak_bytes = self.used_bytes;
    }

    /// Fixes `pid` in the pool, reading it from disk on a miss.
    pub fn fix(&mut self, disks: &mut [SimDisk], pid: PageId) -> Result<FrameId> {
        if let Some(&idx) = self.map.get(&pid) {
            self.stats.hits += 1;
            let frame = self.slots[idx].as_mut().expect("mapped frame exists");
            // A queue entry for this frame (if any) is now stale; it is
            // skipped when popped rather than searched out here.
            frame.pin_count += 1;
            return Ok(FrameId {
                index: idx,
                gen: frame.gen,
            });
        }
        self.stats.misses += 1;
        let disk = disks
            .get_mut(pid.disk.0)
            .ok_or(StorageError::NoSuchDisk(pid.disk.0))?;
        let page_size = disk.page_size();
        let mut data = vec![0u8; page_size].into_boxed_slice();
        // A failed read leaves the pool untouched: no frame was installed,
        // so no pin can leak.
        Self::read_with_retry(disk, pid.page, &mut data, &mut self.stats, self.retry)?;
        self.install(disks, pid, data, false)
    }

    /// Fixes again, by its handle, the page a frame held when `fid` was
    /// issued: the pool hit of [`BufferManager::fix`] without the
    /// page-table lookup. Returns `false`, counting nothing, when the
    /// frame has since been evicted, discarded or recycled (the
    /// generation check); the caller then falls back to `fix`.
    pub(crate) fn refix(&mut self, fid: FrameId) -> bool {
        let Ok(frame) = self.frame_mut(fid) else {
            return false;
        };
        frame.pin_count += 1;
        self.stats.hits += 1;
        true
    }

    /// Allocates a fresh zeroed page on `disk` and fixes it without a read
    /// transfer (its first contact with the disk is the eventual
    /// write-back, if any).
    pub fn new_page(
        &mut self,
        disks: &mut [SimDisk],
        disk_id: crate::disk::DiskId,
    ) -> Result<(PageId, FrameId)> {
        let disk = disks
            .get_mut(disk_id.0)
            .ok_or(StorageError::NoSuchDisk(disk_id.0))?;
        let page = disk.allocate();
        let page_size = disk.page_size();
        let pid = PageId::new(disk_id, page);
        let data = vec![0u8; page_size].into_boxed_slice();
        let fid = self.install(disks, pid, data, true)?;
        Ok((pid, fid))
    }

    /// Installs a zeroed, dirty frame for a page known to be freshly
    /// allocated (and therefore all zeroes on disk), skipping the read
    /// transfer. Used by record files extending into a new extent page.
    pub(crate) fn install_zeroed(&mut self, disks: &mut [SimDisk], pid: PageId) -> Result<FrameId> {
        debug_assert!(!self.map.contains_key(&pid), "page already buffered");
        let disk = disks
            .get(pid.disk.0)
            .ok_or(StorageError::NoSuchDisk(pid.disk.0))?;
        let data = vec![0u8; disk.page_size()].into_boxed_slice();
        self.install(disks, pid, data, true)
    }

    /// Allocates and fixes a *virtual* page of `page_size` bytes: it lives
    /// only in the buffer pool and disappears when unfixed (or when the
    /// pool evicts it while unpinned). Used for transient intermediate
    /// records that must never touch a disk.
    pub fn new_virtual_page(
        &mut self,
        disks: &mut [SimDisk],
        page_size: usize,
    ) -> Result<(PageId, FrameId)> {
        let page = self.next_virtual_page;
        self.next_virtual_page += 1;
        let pid = PageId::new(VIRTUAL_DISK, page);
        let data = vec![0u8; page_size].into_boxed_slice();
        let fid = self.install(disks, pid, data, false)?;
        Ok((pid, fid))
    }

    fn install(
        &mut self,
        disks: &mut [SimDisk],
        pid: PageId,
        data: Box<[u8]>,
        dirty: bool,
    ) -> Result<FrameId> {
        let page_size = data.len();
        self.make_room(disks, page_size)?;
        self.next_gen += 1;
        let frame = Frame {
            pid,
            data,
            pin_count: 1,
            dirty,
            gen: self.next_gen,
            queued: false,
        };
        let idx = match self.free_slots.pop() {
            Some(i) => {
                self.slots[i] = Some(frame);
                i
            }
            None => {
                self.slots.push(Some(frame));
                self.slots.len() - 1
            }
        };
        self.used_bytes += page_size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.used_bytes);
        self.map.insert(pid, idx);
        Ok(FrameId {
            index: idx,
            gen: self.next_gen,
        })
    }

    /// Evicts LRU victims until `needed` more bytes fit within the budget.
    fn make_room(&mut self, disks: &mut [SimDisk], needed: usize) -> Result<()> {
        while self.used_bytes + needed > self.budget_bytes {
            let entry = self
                .replace_queue
                .pop_front()
                .ok_or(StorageError::BufferFull {
                    frames: self.slots.iter().filter(|s| s.is_some()).count(),
                })?;
            let (idx, gen) = entry;
            match self.slots.get_mut(idx).and_then(Option::as_mut) {
                // Live unpinned frame: a real victim.
                Some(f) if f.gen == gen && f.pin_count == 0 => {}
                // Re-pinned since it was queued: drop the stale entry and
                // let the next unfix re-queue the frame.
                Some(f) if f.gen == gen => {
                    f.queued = false;
                    continue;
                }
                // The slot was recycled or emptied (eviction through a
                // duplicate entry, discard, delete): nothing to do.
                _ => continue,
            }
            if let Err(e) = self.evict(disks, idx) {
                // The victim could not be written back: put it back at the
                // front of the queue so it stays tracked (and remains the
                // preferred victim for the next attempt) instead of
                // leaking out of both the queue and the map.
                self.replace_queue.push_front(entry);
                return Err(e);
            }
        }
        Ok(())
    }

    fn evict(&mut self, disks: &mut [SimDisk], idx: usize) -> Result<()> {
        // Write back *before* detaching the frame: if the write exhausts
        // its retries, the dirty page must stay in the pool rather than be
        // lost with the taken frame.
        {
            let frame = self.slots[idx].as_mut().ok_or(StorageError::InvalidFrame)?;
            debug_assert_eq!(frame.pin_count, 0, "only unpinned frames are in the queue");
            if frame.dirty && frame.pid.disk != VIRTUAL_DISK {
                let disk = disks
                    .get_mut(frame.pid.disk.0)
                    .ok_or(StorageError::NoSuchDisk(frame.pid.disk.0))?;
                Self::write_with_retry(
                    disk,
                    frame.pid.page,
                    &frame.data,
                    &mut self.stats,
                    self.retry,
                )?;
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        let frame = self.slots[idx].take().ok_or(StorageError::InvalidFrame)?;
        self.stats.evictions += 1;
        self.used_bytes -= frame.data.len();
        self.map.remove(&frame.pid);
        self.free_slots.push(idx);
        Ok(())
    }

    fn frame(&self, fid: FrameId) -> Result<&Frame> {
        self.slots
            .get(fid.index)
            .and_then(|s| s.as_ref())
            .filter(|f| f.gen == fid.gen)
            .ok_or(StorageError::InvalidFrame)
    }

    fn frame_mut(&mut self, fid: FrameId) -> Result<&mut Frame> {
        self.slots
            .get_mut(fid.index)
            .and_then(|s| s.as_mut())
            .filter(|f| f.gen == fid.gen)
            .ok_or(StorageError::InvalidFrame)
    }

    /// Read access to a fixed page's bytes.
    pub fn page(&self, fid: FrameId) -> Result<&[u8]> {
        Ok(&self.frame(fid)?.data)
    }

    /// Write access to a fixed page's bytes; marks the page dirty.
    pub fn page_mut(&mut self, fid: FrameId) -> Result<&mut [u8]> {
        let frame = self.frame_mut(fid)?;
        frame.dirty = true;
        Ok(&mut frame.data)
    }

    /// The page id a frame holds.
    pub fn page_id(&self, fid: FrameId) -> Result<PageId> {
        Ok(self.frame(fid)?.pid)
    }

    /// Unfixes a frame with a replacement hint. Virtual pages disappear
    /// the moment their last fix is released.
    pub fn unfix(&mut self, fid: FrameId, reuse: Reuse) -> Result<()> {
        let frame = self.frame_mut(fid)?;
        debug_assert!(frame.pin_count > 0, "unfix of unpinned frame");
        frame.pin_count -= 1;
        if frame.pin_count == 0 {
            if frame.pid.disk == VIRTUAL_DISK {
                let pid = frame.pid;
                self.discard(pid);
                return Ok(());
            }
            match reuse {
                // Already queued (stale position from an earlier unfix):
                // keep that entry rather than scan it out. The LRU order
                // is approximate for re-fixed pages, which the paper's
                // hint-based interface tolerates.
                Reuse::Lru => {
                    if !frame.queued {
                        frame.queued = true;
                        self.replace_queue.push_back((fid.index, fid.gen));
                    }
                }
                // Preferred victim: always push to the front so the hint
                // takes effect even if an older entry exists further back
                // (the duplicate goes stale once the frame is evicted).
                Reuse::Immediate => {
                    frame.queued = true;
                    self.replace_queue.push_front((fid.index, fid.gen));
                }
            }
        }
        Ok(())
    }

    /// Drops a page from the pool without write-back, if present and
    /// unpinned. Used when temporary files are deleted: their pages need
    /// never touch the disk, which is how the paper's small intermediate
    /// results avoid I/O entirely.
    pub fn discard(&mut self, pid: PageId) {
        if let Some(&idx) = self.map.get(&pid) {
            let frame = self.slots[idx].as_ref().expect("mapped frame exists");
            if frame.pin_count > 0 {
                return; // still in use; caller error, but not corrupting
            }
            let frame = self.slots[idx].take().expect("mapped frame exists");
            self.used_bytes -= frame.data.len();
            self.map.remove(&pid);
            // Any queue entry for this frame fails its generation check
            // when popped; no need to search it out.
            self.free_slots.push(idx);
        }
    }

    /// Flushes and then drops every unpinned frame — a cold-start helper
    /// for experiments that must measure input reads from disk.
    pub fn evict_all(&mut self, disks: &mut [SimDisk]) -> Result<()> {
        self.flush_all(disks)?;
        for idx in 0..self.slots.len() {
            let unpinned = self.slots[idx].as_ref().is_some_and(|f| f.pin_count == 0);
            if unpinned {
                let frame = self.slots[idx].take().expect("checked above");
                self.used_bytes -= frame.data.len();
                self.map.remove(&frame.pid);
                self.free_slots.push(idx);
            } else if let Some(f) = self.slots[idx].as_mut() {
                // The queue is about to be cleared wholesale: surviving
                // (pinned) frames must be re-queueable on their next
                // unfix or they would become unevictable.
                f.queued = false;
            }
        }
        self.replace_queue.clear();
        Ok(())
    }

    /// Writes all dirty pages back to their disks (leaving them cached).
    ///
    /// A page's dirty bit is cleared only after its write succeeds, so a
    /// flush that fails part-way leaves the remaining dirty pages intact
    /// for a later retry.
    pub fn flush_all(&mut self, disks: &mut [SimDisk]) -> Result<()> {
        let retry = self.retry;
        for frame in self.slots.iter_mut().flatten() {
            if frame.dirty && frame.pid.disk != VIRTUAL_DISK {
                let disk = disks
                    .get_mut(frame.pid.disk.0)
                    .ok_or(StorageError::NoSuchDisk(frame.pid.disk.0))?;
                Self::write_with_retry(disk, frame.pid.page, &frame.data, &mut self.stats, retry)?;
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskId;

    const PS: usize = 128;

    fn setup(pages: u64, budget_frames: usize) -> (Vec<SimDisk>, BufferManager) {
        let mut d = SimDisk::new(PS);
        d.allocate_extent(pages);
        (vec![d], BufferManager::new(budget_frames * PS))
    }

    fn pid(p: u64) -> PageId {
        PageId::new(DiskId(0), p)
    }

    #[test]
    fn fix_reads_once_then_hits() {
        let (mut disks, mut bm) = setup(4, 4);
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        bm.unfix(f, Reuse::Lru).unwrap();
        let f2 = bm.fix(&mut disks, pid(0)).unwrap();
        bm.unfix(f2, Reuse::Lru).unwrap();
        assert_eq!(bm.stats().misses, 1);
        assert_eq!(bm.stats().hits, 1);
        assert_eq!(disks[0].stats().reads, 1);
    }

    #[test]
    fn dirty_page_written_back_on_eviction() {
        let (mut disks, mut bm) = setup(3, 2);
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        bm.page_mut(f).unwrap()[0] = 0xCC;
        bm.unfix(f, Reuse::Lru).unwrap();
        // Fill pool beyond budget to force eviction of page 0.
        for p in 1..3 {
            let f = bm.fix(&mut disks, pid(p)).unwrap();
            bm.unfix(f, Reuse::Lru).unwrap();
        }
        assert_eq!(bm.stats().evictions, 1);
        assert_eq!(bm.stats().writebacks, 1);
        let mut buf = vec![0u8; PS];
        disks[0].read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xCC);
    }

    #[test]
    fn clean_page_evicted_without_writeback() {
        let (mut disks, mut bm) = setup(3, 2);
        for p in 0..3 {
            let f = bm.fix(&mut disks, pid(p)).unwrap();
            bm.unfix(f, Reuse::Lru).unwrap();
        }
        assert_eq!(bm.stats().evictions, 1);
        assert_eq!(bm.stats().writebacks, 0);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (mut disks, mut bm) = setup(3, 2);
        let f0 = bm.fix(&mut disks, pid(0)).unwrap();
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        // Pool is full of pinned pages: a third fix must fail.
        assert!(matches!(
            bm.fix(&mut disks, pid(2)),
            Err(StorageError::BufferFull { frames: 2 })
        ));
        bm.unfix(f0, Reuse::Lru).unwrap();
        bm.unfix(f1, Reuse::Lru).unwrap();
        assert!(bm.fix(&mut disks, pid(2)).is_ok());
    }

    #[test]
    fn immediate_reuse_is_preferred_victim() {
        let (mut disks, mut bm) = setup(4, 3);
        let f0 = bm.fix(&mut disks, pid(0)).unwrap();
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        let f2 = bm.fix(&mut disks, pid(2)).unwrap();
        bm.unfix(f0, Reuse::Lru).unwrap();
        bm.unfix(f1, Reuse::Lru).unwrap();
        bm.unfix(f2, Reuse::Immediate).unwrap(); // becomes front of queue
        let f3 = bm.fix(&mut disks, pid(3)).unwrap();
        bm.unfix(f3, Reuse::Lru).unwrap();
        // Page 2 was evicted; pages 0 and 1 still hit.
        bm.fix(&mut disks, pid(0))
            .map(|f| bm.unfix(f, Reuse::Lru))
            .unwrap()
            .unwrap();
        bm.fix(&mut disks, pid(1))
            .map(|f| bm.unfix(f, Reuse::Lru))
            .unwrap()
            .unwrap();
        assert_eq!(bm.stats().misses, 4, "pages 0..=3 each missed once");
        assert_eq!(bm.stats().hits, 2);
    }

    #[test]
    fn stale_frame_id_is_rejected() {
        let (mut disks, mut bm) = setup(3, 1);
        let f0 = bm.fix(&mut disks, pid(0)).unwrap();
        bm.unfix(f0, Reuse::Lru).unwrap();
        // Evict page 0 by fixing page 1 (budget is a single frame).
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        assert!(matches!(bm.page(f0), Err(StorageError::InvalidFrame)));
        bm.unfix(f1, Reuse::Lru).unwrap();
    }

    #[test]
    fn refix_removes_from_replacement_queue() {
        let (mut disks, mut bm) = setup(3, 2);
        let f0 = bm.fix(&mut disks, pid(0)).unwrap();
        bm.unfix(f0, Reuse::Lru).unwrap();
        // Refix page 0: it must no longer be an eviction candidate.
        let f0b = bm.fix(&mut disks, pid(0)).unwrap();
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        assert!(matches!(
            bm.fix(&mut disks, pid(2)),
            Err(StorageError::BufferFull { .. })
        ));
        bm.unfix(f0b, Reuse::Lru).unwrap();
        bm.unfix(f1, Reuse::Lru).unwrap();
    }

    #[test]
    fn new_page_performs_no_read_transfer() {
        let (mut disks, mut bm) = setup(0, 2);
        let (pid, fid) = bm.new_page(&mut disks, DiskId(0)).unwrap();
        assert_eq!(pid.page, 0);
        bm.page_mut(fid).unwrap()[5] = 9;
        bm.unfix(fid, Reuse::Lru).unwrap();
        assert_eq!(disks[0].stats().reads, 0);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let (mut disks, mut bm) = setup(0, 2);
        let (p, f) = bm.new_page(&mut disks, DiskId(0)).unwrap();
        bm.page_mut(f).unwrap()[0] = 1;
        bm.unfix(f, Reuse::Lru).unwrap();
        bm.discard(p);
        assert_eq!(bm.used_bytes(), 0);
        assert_eq!(disks[0].stats().writes, 0);
    }

    #[test]
    fn flush_all_writes_dirty_pages_once() {
        let (mut disks, mut bm) = setup(2, 2);
        for p in 0..2 {
            let f = bm.fix(&mut disks, pid(p)).unwrap();
            bm.page_mut(f).unwrap()[0] = p as u8 + 1;
            bm.unfix(f, Reuse::Lru).unwrap();
        }
        bm.flush_all(&mut disks).unwrap();
        bm.flush_all(&mut disks).unwrap(); // second flush: nothing dirty
        assert_eq!(bm.stats().writebacks, 2);
        assert_eq!(disks[0].stats().writes, 2);
    }

    #[test]
    fn peak_bytes_tracks_high_water_mark() {
        let (mut disks, mut bm) = setup(4, 4);
        for p in 0..3 {
            let f = bm.fix(&mut disks, pid(p)).unwrap();
            bm.unfix(f, Reuse::Lru).unwrap();
        }
        assert_eq!(bm.stats().peak_bytes, 3 * PS);
    }

    #[test]
    fn pool_grows_dynamically_within_budget() {
        let (mut disks, mut bm) = setup(4, 4);
        assert_eq!(bm.used_bytes(), 0);
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        assert_eq!(bm.used_bytes(), PS);
        bm.unfix(f, Reuse::Lru).unwrap();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::disk::DiskId;
    use crate::fault::FaultPlan;

    const PS: usize = 128;

    fn setup(pages: u64, budget_frames: usize) -> (Vec<SimDisk>, BufferManager) {
        let mut d = SimDisk::new(PS);
        d.allocate_extent(pages);
        (vec![d], BufferManager::new(budget_frames * PS))
    }

    fn pid(p: u64) -> PageId {
        PageId::new(DiskId(0), p)
    }

    /// A fast policy for tests: retries without sleeping.
    fn instant_retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    #[test]
    fn transient_read_fault_is_retried_and_counted() {
        let (mut disks, mut bm) = setup(2, 2);
        bm.set_retry_policy(instant_retry(3));
        disks[0].set_fault_plan(FaultPlan::seeded(1).with_read_failure_at(0));
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        bm.unfix(f, Reuse::Lru).unwrap();
        assert_eq!(bm.stats().read_retries, 1);
        assert_eq!(bm.stats().misses, 1);
    }

    #[test]
    fn exhausted_read_retries_leak_no_pins() {
        let (mut disks, mut bm) = setup(2, 2);
        bm.set_retry_policy(instant_retry(2));
        // Attempts 0, 1, 2 all fail: retries exhausted.
        disks[0].set_fault_plan(
            FaultPlan::seeded(1)
                .with_read_failure_at(0)
                .with_read_failure_at(1)
                .with_read_failure_at(2),
        );
        assert!(matches!(
            bm.fix(&mut disks, pid(0)),
            Err(StorageError::Transient { op: "read", .. })
        ));
        assert_eq!(bm.stats().read_retries, 2);
        assert_eq!(bm.used_bytes(), 0, "no frame installed for a failed fix");
        // The pool is fully usable afterwards: both frames can be pinned.
        disks[0].clear_fault_plan();
        let f0 = bm.fix(&mut disks, pid(0)).unwrap();
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        bm.unfix(f0, Reuse::Lru).unwrap();
        bm.unfix(f1, Reuse::Lru).unwrap();
    }

    #[test]
    fn permanent_fault_is_not_retried() {
        let (mut disks, mut bm) = setup(2, 2);
        bm.set_retry_policy(instant_retry(5));
        disks[0].set_fault_plan(FaultPlan::seeded(1).with_bad_page(0));
        assert!(matches!(
            bm.fix(&mut disks, pid(0)),
            Err(StorageError::Permanent { op: "read", .. })
        ));
        assert_eq!(bm.stats().read_retries, 0);
    }

    #[test]
    fn dirty_page_survives_failed_writeback_and_flushes_later() {
        let (mut disks, mut bm) = setup(3, 2);
        bm.set_retry_policy(RetryPolicy::none());
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        bm.page_mut(f).unwrap()[0] = 0xAB;
        bm.unfix(f, Reuse::Lru).unwrap();
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        // Force an eviction of dirty page 0 whose write-back fails.
        disks[0].set_fault_plan(FaultPlan::seeded(1).with_write_failure_at(0));
        assert!(matches!(
            bm.fix(&mut disks, pid(2)),
            Err(StorageError::Transient { op: "write", .. })
        ));
        bm.unfix(f1, Reuse::Lru).unwrap();
        // The dirty page was NOT lost: once the disk heals, its bytes make
        // it back out.
        disks[0].clear_fault_plan();
        bm.flush_all(&mut disks).unwrap();
        let mut buf = vec![0u8; PS];
        disks[0].read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAB);
    }

    #[test]
    fn failed_eviction_keeps_victim_in_replacement_queue() {
        let (mut disks, mut bm) = setup(3, 2);
        bm.set_retry_policy(RetryPolicy::none());
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        bm.page_mut(f).unwrap()[0] = 0x77;
        bm.unfix(f, Reuse::Lru).unwrap();
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        disks[0].set_fault_plan(FaultPlan::seeded(1).with_write_failure_at(0));
        assert!(bm.fix(&mut disks, pid(2)).is_err());
        // After the disk heals, the same fix succeeds: the victim was still
        // queued, so making room works without manual intervention.
        disks[0].clear_fault_plan();
        let f2 = bm.fix(&mut disks, pid(2)).unwrap();
        bm.unfix(f1, Reuse::Lru).unwrap();
        bm.unfix(f2, Reuse::Lru).unwrap();
        let mut buf = vec![0u8; PS];
        disks[0].read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x77, "dirty page written back by retried eviction");
    }

    #[test]
    fn write_retries_rescue_transient_writeback_faults() {
        let (mut disks, mut bm) = setup(3, 2);
        bm.set_retry_policy(instant_retry(3));
        let f = bm.fix(&mut disks, pid(0)).unwrap();
        bm.page_mut(f).unwrap()[0] = 0x42;
        bm.unfix(f, Reuse::Lru).unwrap();
        disks[0].set_fault_plan(FaultPlan::seeded(1).with_write_failure_at(0));
        // Eviction of page 0 hits one transient write fault, retries, and
        // succeeds — fully transparent to the caller.
        let f1 = bm.fix(&mut disks, pid(1)).unwrap();
        let f2 = bm.fix(&mut disks, pid(2)).unwrap();
        bm.unfix(f1, Reuse::Lru).unwrap();
        bm.unfix(f2, Reuse::Lru).unwrap();
        assert_eq!(bm.stats().write_retries, 1);
        assert_eq!(bm.stats().writebacks, 1);
        let mut buf = vec![0u8; PS];
        disks[0].read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x42);
    }

    #[test]
    fn checksum_mismatch_escalates_without_retry() {
        let (mut disks, mut bm) = setup(2, 2);
        bm.set_retry_policy(instant_retry(5));
        disks[0].corrupt_page(0).unwrap();
        assert!(matches!(
            bm.fix(&mut disks, pid(0)),
            Err(StorageError::ChecksumMismatch { page: 0, .. })
        ));
        assert_eq!(bm.stats().read_retries, 0, "corruption is not retryable");
    }
}

#[cfg(test)]
mod virtual_tests {
    use super::*;

    #[test]
    fn virtual_page_lives_while_fixed_and_disappears_on_unfix() {
        let mut disks = vec![SimDisk::new(128)];
        let mut bm = BufferManager::new(4 * 128);
        let (pid, fid) = bm.new_virtual_page(&mut disks, 128).unwrap();
        assert_eq!(pid.disk, VIRTUAL_DISK);
        bm.page_mut(fid).unwrap()[0] = 0xEE;
        assert_eq!(bm.page(fid).unwrap()[0], 0xEE);
        bm.unfix(fid, Reuse::Lru).unwrap();
        // Gone: re-fixing the id would need a disk read, which must fail
        // (there is no disk usize::MAX), and the frame id is stale.
        assert!(matches!(bm.page(fid), Err(StorageError::InvalidFrame)));
        assert!(bm.fix(&mut disks, pid).is_err());
        assert_eq!(bm.used_bytes(), 0);
    }

    #[test]
    fn virtual_pages_never_touch_a_disk() {
        let mut disks = vec![SimDisk::new(128)];
        let mut bm = BufferManager::new(8 * 128);
        for _ in 0..5 {
            let (_, fid) = bm.new_virtual_page(&mut disks, 128).unwrap();
            bm.page_mut(fid).unwrap()[1] = 7;
            bm.unfix(fid, Reuse::Immediate).unwrap();
        }
        bm.flush_all(&mut disks).unwrap();
        assert_eq!(disks[0].stats().transfers(), 0);
        assert_eq!(bm.stats().writebacks, 0);
    }

    #[test]
    fn virtual_pages_count_against_the_budget_while_fixed() {
        let mut disks = vec![SimDisk::new(128)];
        let mut bm = BufferManager::new(2 * 128);
        let (_, f1) = bm.new_virtual_page(&mut disks, 128).unwrap();
        let (_, f2) = bm.new_virtual_page(&mut disks, 128).unwrap();
        // Pool full of pinned virtual pages: no room for a third.
        assert!(matches!(
            bm.new_virtual_page(&mut disks, 128),
            Err(StorageError::BufferFull { .. })
        ));
        bm.unfix(f1, Reuse::Lru).unwrap();
        bm.unfix(f2, Reuse::Lru).unwrap();
        assert!(bm.new_virtual_page(&mut disks, 128).is_ok());
    }

    #[test]
    fn each_virtual_page_gets_a_distinct_id() {
        let mut disks = vec![SimDisk::new(128)];
        let mut bm = BufferManager::new(4 * 128);
        let (p1, f1) = bm.new_virtual_page(&mut disks, 128).unwrap();
        let (p2, f2) = bm.new_virtual_page(&mut disks, 128).unwrap();
        assert_ne!(p1, p2);
        bm.unfix(f1, Reuse::Lru).unwrap();
        bm.unfix(f2, Reuse::Lru).unwrap();
    }
}
