//! The simulated disk and the paper's experimental I/O cost model.
//!
//! The paper's file system "simulates a disk using a UNIX file or main
//! memory"; this implementation uses main memory. What matters for the
//! reproduction is not where the bytes live but the *statistics*: the paper
//! computed I/O cost from file-system statistics using the Table 3
//! parameters (20 ms per physical seek, 8 ms rotational latency per
//! transfer, 0.5 ms per KB transferred, 2 ms CPU per transfer). The disk
//! therefore records every transfer, distinguishing sequential transfers
//! (next page in the direction of travel) from transfers requiring a seek.

use crate::error::StorageError;
use crate::fault::{FaultPlan, FaultStats, ReadFault, WriteFault};
use crate::Result;

/// The per-page checksum: FNV-1a's xor-then-multiply step applied to
/// little-endian 64-bit words, with the byte-wise step for a tail shorter
/// than a word.
///
/// Not cryptographic: the goal is detecting torn writes and bit rot in
/// the simulation. Every step is a bijection of the running state (xor
/// with the input, multiply by an odd constant), so two pages that differ
/// within a single word — any single-bit flip in particular — never share
/// a checksum. One multiply per eight bytes keeps the fault-free overhead
/// of recording it on every write and verifying it on every read small.
pub(crate) fn page_checksum(buf: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut words = buf.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Identifies one simulated disk within a [`crate::StorageManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskId(pub usize);

/// Identifies one page: a disk and a page number on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// The disk holding the page.
    pub disk: DiskId,
    /// Zero-based page number on that disk.
    pub page: u64,
}

impl PageId {
    /// Creates a page id.
    pub fn new(disk: DiskId, page: u64) -> Self {
        PageId { disk, page }
    }
}

/// Statistics collected by a simulated disk.
///
/// These are the raw counts the paper's Table 3 prices: the run-time
/// reported for an experiment is measured CPU time plus the I/O cost
/// computed from these statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
    /// Transfers that required a physical seek (non-sequential access).
    pub seeks: u64,
    /// Total bytes transferred in either direction.
    pub bytes: u64,
}

impl IoStats {
    /// Total transfers (reads + writes).
    pub fn transfers(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise sum.
    pub fn merge(&self, other: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            seeks: self.seeks + other.seeks,
            bytes: self.bytes + other.bytes,
        }
    }

    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// The experimental I/O cost parameters of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCostParams {
    /// Milliseconds per physical seek on the device (Table 3: 20 ms).
    pub seek_ms: f64,
    /// Rotational latency per transfer in milliseconds (Table 3: 8 ms).
    pub latency_ms: f64,
    /// Transfer time per kilobyte in milliseconds (Table 3: 0.5 ms).
    pub per_kb_ms: f64,
    /// CPU cost per transfer in milliseconds (Table 3: 2 ms).
    pub cpu_per_transfer_ms: f64,
}

impl IoCostParams {
    /// The exact parameter values of the paper's Table 3.
    pub fn paper() -> Self {
        IoCostParams {
            seek_ms: 20.0,
            latency_ms: 8.0,
            per_kb_ms: 0.5,
            cpu_per_transfer_ms: 2.0,
        }
    }

    /// I/O cost in milliseconds for the given statistics, computed exactly
    /// as the paper computed experimental I/O cost from file-system
    /// statistics.
    pub fn cost_ms(&self, stats: &IoStats) -> f64 {
        stats.seeks as f64 * self.seek_ms
            + stats.transfers() as f64 * (self.latency_ms + self.cpu_per_transfer_ms)
            + (stats.bytes as f64 / 1024.0) * self.per_kb_ms
    }
}

impl Default for IoCostParams {
    fn default() -> Self {
        IoCostParams::paper()
    }
}

/// A memory-backed simulated disk with fixed-size pages.
///
/// The page size is the transfer unit: the paper used 8 KB transfers,
/// "except for sort runs where it was 1 KB to allow high fan-in" — hence a
/// `StorageManager` typically holds one 8 KB-page disk for base and
/// temporary data and one 1 KB-page disk for sort runs.
#[derive(Debug)]
pub struct SimDisk {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
    free: Vec<u64>,
    stats: IoStats,
    /// Page number of the last transfer, used to detect sequential access.
    last_page: Option<u64>,
    /// Checksum of each page as recorded at write time (out of band, like
    /// a controller's DIF bytes; the page payload itself is unchanged).
    checksums: Vec<u64>,
    /// Checksum of an all-zero page, precomputed once per disk.
    zero_checksum: u64,
    /// Whether reads verify the stored checksum.
    verify_checksums: bool,
    /// Installed fault plan, if any.
    faults: Option<FaultPlan>,
}

impl SimDisk {
    /// Creates an empty disk with the given page (transfer) size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        SimDisk {
            page_size,
            pages: Vec::new(),
            free: Vec::new(),
            stats: IoStats::default(),
            last_page: None,
            checksums: Vec::new(),
            zero_checksum: page_checksum(&vec![0u8; page_size]),
            verify_checksums: true,
            faults: None,
        }
    }

    /// Installs a fault plan; subsequent transfers consult it. Replaces
    /// any previous plan (and its statistics).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes the fault plan; the disk becomes reliable again.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Statistics of the installed fault plan (zeroes when none).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultPlan::stats)
            .unwrap_or_default()
    }

    /// Enables or disables checksum verification on reads. Writes always
    /// record checksums; only the verify step is toggled (the knob the
    /// robustness benchmark uses to measure checksum overhead).
    pub fn set_checksums_enabled(&mut self, enabled: bool) {
        self.verify_checksums = enabled;
    }

    /// Corrupts the stored bytes of `page` without updating its checksum,
    /// simulating silent bit rot for tests.
    pub fn corrupt_page(&mut self, page: u64) -> Result<()> {
        self.check(page)?;
        self.pages[page as usize][0] ^= 0xFF;
        Ok(())
    }

    /// The disk's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages (including freed-and-reusable ones).
    pub fn allocated_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Allocates a new zeroed page and returns its page number.
    ///
    /// Allocation itself is free (no transfer); the page is charged when it
    /// is first written back from the buffer pool.
    pub fn allocate(&mut self) -> u64 {
        if let Some(p) = self.free.pop() {
            self.pages[p as usize].fill(0);
            self.checksums[p as usize] = self.zero_checksum;
            return p;
        }
        let p = self.pages.len() as u64;
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        self.checksums.push(self.zero_checksum);
        p
    }

    /// Allocates `n` physically contiguous pages and returns the first page
    /// number. Extent-based files use this so sequential scans do not seek.
    ///
    /// Prefers a contiguous run from the free list (so dropped temporary
    /// files are recycled instead of growing the disk), falling back to
    /// extending the disk.
    pub fn allocate_extent(&mut self, n: u64) -> u64 {
        if n > 0 && self.free.len() as u64 >= n {
            self.free.sort_unstable();
            let mut run_start = 0usize;
            for i in 1..=self.free.len() {
                let contiguous = i < self.free.len() && self.free[i] == self.free[i - 1] + 1;
                if !contiguous {
                    if (i - run_start) as u64 >= n {
                        let first = self.free[run_start];
                        let taken: Vec<u64> =
                            self.free.drain(run_start..run_start + n as usize).collect();
                        for p in taken {
                            self.pages[p as usize].fill(0);
                            self.checksums[p as usize] = self.zero_checksum;
                        }
                        return first;
                    }
                    run_start = i;
                }
            }
        }
        let first = self.pages.len() as u64;
        for _ in 0..n {
            self.pages
                .push(vec![0u8; self.page_size].into_boxed_slice());
            self.checksums.push(self.zero_checksum);
        }
        first
    }

    /// Returns a page to the free list. Temporary files release their pages
    /// when deleted.
    pub fn release(&mut self, page: u64) {
        debug_assert!((page as usize) < self.pages.len());
        self.free.push(page);
    }

    fn check(&self, page: u64) -> Result<()> {
        if (page as usize) < self.pages.len() {
            Ok(())
        } else {
            Err(StorageError::PageOutOfRange {
                page,
                allocated: self.pages.len() as u64,
            })
        }
    }

    fn account(&mut self, page: u64) {
        // A transfer of the page after the previous one is sequential and
        // needs no seek; everything else pays a physical seek.
        let sequential =
            self.last_page == Some(page.wrapping_sub(1)) || self.last_page == Some(page);
        if !sequential {
            self.stats.seeks += 1;
        }
        self.stats.bytes += self.page_size as u64;
        self.last_page = Some(page);
    }

    /// Reads a page into `buf` (which must be `page_size` long), recording
    /// one transfer.
    ///
    /// Consults the fault plan first — a failed transfer is not charged to
    /// the I/O statistics — and verifies the page checksum after the copy,
    /// so torn writes and bit rot surface as
    /// [`StorageError::ChecksumMismatch`] instead of silently wrong data.
    pub fn read(&mut self, page: u64, buf: &mut [u8]) -> Result<()> {
        self.check(page)?;
        debug_assert_eq!(buf.len(), self.page_size);
        if let Some(plan) = &mut self.faults {
            match plan.on_read(page) {
                ReadFault::None => {}
                ReadFault::Transient => return Err(StorageError::Transient { op: "read", page }),
                ReadFault::Permanent => return Err(StorageError::Permanent { op: "read", page }),
            }
        }
        self.account(page);
        self.stats.reads += 1;
        buf.copy_from_slice(&self.pages[page as usize]);
        if self.verify_checksums {
            let expected = self.checksums[page as usize];
            let actual = page_checksum(buf);
            if actual != expected {
                if let Some(plan) = &mut self.faults {
                    plan.note_checksum_failure();
                }
                return Err(StorageError::ChecksumMismatch {
                    page,
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Writes `buf` to a page, recording one transfer and the page's new
    /// checksum.
    ///
    /// A transiently failed write leaves the page untouched and uncharged.
    /// A *torn* write reports success but persists only the first half of
    /// the payload while recording the checksum of the full payload — the
    /// damage is silent here and detected on the next [`SimDisk::read`].
    pub fn write(&mut self, page: u64, buf: &[u8]) -> Result<()> {
        self.check(page)?;
        debug_assert_eq!(buf.len(), self.page_size);
        let mut torn = false;
        if let Some(plan) = &mut self.faults {
            match plan.on_write(page) {
                WriteFault::None => {}
                WriteFault::Transient => return Err(StorageError::Transient { op: "write", page }),
                WriteFault::Permanent => return Err(StorageError::Permanent { op: "write", page }),
                WriteFault::Torn => torn = true,
            }
        }
        self.account(page);
        self.stats.writes += 1;
        if torn {
            let half = self.page_size / 2;
            self.pages[page as usize][..half].copy_from_slice(&buf[..half]);
        } else {
            self.pages[page as usize].copy_from_slice(buf);
        }
        self.checksums[page as usize] = page_checksum(buf);
        Ok(())
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the statistics (not the data).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
        self.last_page = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        let data = vec![7u8; 128];
        d.write(p, &data).unwrap();
        let mut out = vec![0u8; 128];
        d.read(p, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_page_is_an_error() {
        let mut d = SimDisk::new(128);
        let mut buf = vec![0u8; 128];
        assert!(matches!(
            d.read(0, &mut buf),
            Err(StorageError::PageOutOfRange {
                page: 0,
                allocated: 0
            })
        ));
    }

    #[test]
    fn sequential_transfers_do_not_seek() {
        let mut d = SimDisk::new(128);
        let first = d.allocate_extent(4);
        let buf = vec![0u8; 128];
        for i in 0..4 {
            d.write(first + i, &buf).unwrap();
        }
        let s = d.stats();
        assert_eq!(s.writes, 4);
        // First transfer seeks; the remaining three are sequential.
        assert_eq!(s.seeks, 1);
        assert_eq!(s.bytes, 4 * 128);
    }

    #[test]
    fn random_transfers_seek_every_time() {
        let mut d = SimDisk::new(128);
        d.allocate_extent(10);
        let buf = vec![0u8; 128];
        for p in [0u64, 5, 2, 9] {
            d.write(p, &buf).unwrap();
        }
        assert_eq!(d.stats().seeks, 4);
    }

    #[test]
    fn rereading_same_page_does_not_seek() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        let mut buf = vec![0u8; 128];
        d.read(p, &mut buf).unwrap();
        d.read(p, &mut buf).unwrap();
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn released_pages_are_reused_zeroed() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.write(p, &[9u8; 128]).unwrap();
        d.release(p);
        let q = d.allocate();
        assert_eq!(p, q);
        let mut buf = vec![1u8; 128];
        d.read(q, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn paper_cost_model_prices_a_transfer() {
        // One 8 KB random read: 20 (seek) + 8 (latency) + 2 (cpu) + 4 (8 KB
        // at 0.5 ms/KB) = 34 ms.
        let params = IoCostParams::paper();
        let stats = IoStats {
            reads: 1,
            writes: 0,
            seeks: 1,
            bytes: 8192,
        };
        assert!((params.cost_ms(&stats) - 34.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_8kb_transfer_costs_14ms() {
        // Without the seek: 8 + 2 + 4 = 14 ms, close to the analytical
        // model's 15 ms SIO unit for an 8 KB page.
        let params = IoCostParams::paper();
        let stats = IoStats {
            reads: 1,
            writes: 0,
            seeks: 0,
            bytes: 8192,
        };
        assert!((params.cost_ms(&stats) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn stats_merge_and_since() {
        let a = IoStats {
            reads: 1,
            writes: 2,
            seeks: 3,
            bytes: 4,
        };
        let b = IoStats {
            reads: 10,
            writes: 20,
            seeks: 30,
            bytes: 40,
        };
        assert_eq!(
            b.since(&a),
            IoStats {
                reads: 9,
                writes: 18,
                seeks: 27,
                bytes: 36
            }
        );
        assert_eq!(a.merge(&b).transfers(), 33);
    }

    #[test]
    fn transient_read_fault_is_uncharged_and_retry_succeeds() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.write(p, &[5u8; 128]).unwrap();
        d.set_fault_plan(FaultPlan::seeded(1).with_read_failure_at(0));
        let mut buf = vec![0u8; 128];
        assert_eq!(
            d.read(p, &mut buf),
            Err(StorageError::Transient {
                op: "read",
                page: p
            })
        );
        assert_eq!(d.stats().reads, 0, "failed transfer not charged");
        d.read(p, &mut buf).unwrap();
        assert_eq!(buf, vec![5u8; 128]);
        assert_eq!(d.fault_stats().transient_reads, 1);
    }

    #[test]
    fn transient_write_fault_leaves_page_untouched() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.write(p, &[1u8; 128]).unwrap();
        d.set_fault_plan(FaultPlan::seeded(1).with_write_failure_at(0));
        assert_eq!(
            d.write(p, &[2u8; 128]),
            Err(StorageError::Transient {
                op: "write",
                page: p
            })
        );
        d.clear_fault_plan();
        let mut buf = vec![0u8; 128];
        d.read(p, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 128], "failed write must not tear the page");
    }

    #[test]
    fn bad_page_fails_permanently_in_both_directions() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.set_fault_plan(FaultPlan::seeded(0).with_bad_page(p));
        let mut buf = vec![0u8; 128];
        assert_eq!(
            d.read(p, &mut buf),
            Err(StorageError::Permanent {
                op: "read",
                page: p
            })
        );
        assert_eq!(
            d.write(p, &buf),
            Err(StorageError::Permanent {
                op: "write",
                page: p
            })
        );
        assert_eq!(d.fault_stats().permanent_denials, 2);
    }

    #[test]
    fn torn_write_is_silent_until_read_detects_it() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.set_fault_plan(FaultPlan::seeded(3).with_torn_write_rate(1.0));
        // The torn write itself reports success.
        d.write(p, &[9u8; 128]).unwrap();
        let mut buf = vec![0u8; 128];
        match d.read(p, &mut buf) {
            Err(StorageError::ChecksumMismatch {
                page,
                expected,
                actual,
            }) => {
                assert_eq!(page, p);
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        let fs = d.fault_stats();
        assert_eq!(fs.torn_writes, 1);
        assert_eq!(fs.checksum_failures, 1);
    }

    #[test]
    fn silent_corruption_is_detected_only_with_checksums_on() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.write(p, &[4u8; 128]).unwrap();
        d.corrupt_page(p).unwrap();
        let mut buf = vec![0u8; 128];
        assert!(matches!(
            d.read(p, &mut buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        d.set_checksums_enabled(false);
        d.read(p, &mut buf).unwrap();
        assert_eq!(buf[0], 4u8 ^ 0xFF, "without checksums the rot is served");
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Exhaustive at 128 B; every 61st bit (all bit positions of a
        // word, words spread over the page) at 1 KB and 8 KB; 131 B puts
        // three bytes in the byte-wise tail.
        for (size, stride) in [(128usize, 1usize), (131, 1), (1024, 61), (8192, 61)] {
            let mut page: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
            let clean = page_checksum(&page);
            for bit in (0..size * 8).step_by(stride) {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&page), clean, "{size} B page, bit {bit}");
                page[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(page_checksum(&page), clean);
        }
    }

    #[test]
    fn checksum_covers_the_tail_of_an_odd_length_buffer() {
        let words = [0xA5u8; 16];
        let mut odd = [0xA5u8; 19];
        assert_ne!(page_checksum(&words), page_checksum(&odd));
        odd[18] = 0;
        assert_ne!(page_checksum(&[0xA5u8; 19]), page_checksum(&odd));
        // Trailing zero bytes still count: lengths are told apart.
        assert_ne!(page_checksum(&[0u8; 16]), page_checksum(&[0u8; 17]));
    }

    #[test]
    fn reused_pages_get_fresh_checksums() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        d.write(p, &[8u8; 128]).unwrap();
        d.release(p);
        let q = d.allocate();
        assert_eq!(p, q);
        let mut buf = vec![1u8; 128];
        d.read(q, &mut buf).unwrap(); // zeroed page verifies cleanly
        let first = d.allocate_extent(2);
        let mut buf2 = vec![2u8; 128];
        d.read(first, &mut buf2).unwrap();
        d.read(first + 1, &mut buf2).unwrap();
    }

    #[test]
    fn reset_stats_clears_counts_and_position() {
        let mut d = SimDisk::new(128);
        let p = d.allocate();
        let mut buf = vec![0u8; 128];
        d.read(p, &mut buf).unwrap();
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
        // After reset the next access pays a seek again.
        d.read(p, &mut buf).unwrap();
        assert_eq!(d.stats().seeks, 1);
    }
}
