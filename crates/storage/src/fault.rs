//! Deterministic fault injection for the simulated disk.
//!
//! A [`FaultPlan`] decides, per transfer, whether the simulated disk
//! should fail it and how. Faults come in three flavours, matching the
//! escalation ladder in `StorageError`:
//!
//! - **Transient** — the transfer fails but a retry may succeed. Injected
//!   either probabilistically (seeded, so runs are reproducible) or at
//!   scheduled transfer indices (so tests can fail exactly the Nth read).
//! - **Permanent** — a page is marked bad; every transfer touching it
//!   fails, and retrying is pointless.
//! - **Torn write** — the write *appears* to succeed but only a prefix of
//!   the payload reaches the platter. The damage is silent at write time
//!   and is detected by the per-page checksum on the next read.
//!
//! The plan is plain data with an embedded splitmix64 PRNG, so it is
//! `Clone + Send` and two plans built from the same seed inject the same
//! fault sequence. [`FaultPlan::reseeded`] derives an independent stream
//! for per-worker use.

use std::collections::BTreeSet;

/// What the disk should do with one read transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadFault {
    /// Perform the read normally.
    None,
    /// Fail with `StorageError::Transient`.
    Transient,
    /// Fail with `StorageError::Permanent`.
    Permanent,
}

/// What the disk should do with one write transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// Perform the write normally.
    None,
    /// Fail with `StorageError::Transient`, leaving the page untouched.
    Transient,
    /// Fail with `StorageError::Permanent`.
    Permanent,
    /// Silently persist only a prefix of the payload (detected later by
    /// checksum).
    Torn,
}

/// Running totals of injected faults, readable via
/// `SimDisk::fault_stats` / `StorageManager::fault_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read faults injected.
    pub transient_reads: u64,
    /// Transient write faults injected.
    pub transient_writes: u64,
    /// Torn writes silently injected.
    pub torn_writes: u64,
    /// Transfers refused because they touched a permanently bad page.
    pub permanent_denials: u64,
    /// Reads that failed checksum verification (detected corruption).
    pub checksum_failures: u64,
}

/// A deterministic, seedable plan of disk faults.
///
/// Build one with the fluent constructors, then install it with
/// `SimDisk::set_fault_plan` (or `StorageManager::inject_faults`):
///
/// ```
/// use reldiv_storage::FaultPlan;
///
/// let plan = FaultPlan::seeded(42)
///     .with_read_error_rate(0.05)
///     .with_torn_write_rate(0.01)
///     .with_read_failure_at(3); // the 4th read on the disk fails
/// assert!(plan.is_active());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    read_error_rate: f64,
    write_error_rate: f64,
    torn_write_rate: f64,
    bad_pages: BTreeSet<u64>,
    fail_reads_at: BTreeSet<u64>,
    fail_writes_at: BTreeSet<u64>,
    rng: u64,
    reads_seen: u64,
    writes_seen: u64,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan that injects nothing until configured further.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_error_rate: 0.0,
            write_error_rate: 0.0,
            torn_write_rate: 0.0,
            bad_pages: BTreeSet::new(),
            fail_reads_at: BTreeSet::new(),
            fail_writes_at: BTreeSet::new(),
            rng: splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
            reads_seen: 0,
            writes_seen: 0,
            stats: FaultStats::default(),
        }
    }

    /// Probability in `0.0..=1.0` that any given read fails transiently.
    pub fn with_read_error_rate(mut self, rate: f64) -> FaultPlan {
        self.read_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability in `0.0..=1.0` that any given write fails transiently.
    pub fn with_write_error_rate(mut self, rate: f64) -> FaultPlan {
        self.write_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability in `0.0..=1.0` that any given write is torn: it reports
    /// success but persists only half the payload.
    pub fn with_torn_write_rate(mut self, rate: f64) -> FaultPlan {
        self.torn_write_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Marks `page` permanently bad: every read or write of it fails with
    /// `StorageError::Permanent`.
    pub fn with_bad_page(mut self, page: u64) -> FaultPlan {
        self.bad_pages.insert(page);
        self
    }

    /// Schedules the `index`-th read on the disk (0-based, counted across
    /// all pages) to fail transiently — precise injection for tests.
    pub fn with_read_failure_at(mut self, index: u64) -> FaultPlan {
        self.fail_reads_at.insert(index);
        self
    }

    /// Schedules the `index`-th write on the disk (0-based) to fail
    /// transiently.
    pub fn with_write_failure_at(mut self, index: u64) -> FaultPlan {
        self.fail_writes_at.insert(index);
        self
    }

    /// A copy of this plan's *configuration* with a different seed and
    /// fresh counters. Use to derive independent per-worker fault streams
    /// from one template.
    pub fn reseeded(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rng: splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
            reads_seen: 0,
            writes_seen: 0,
            stats: FaultStats::default(),
            read_error_rate: self.read_error_rate,
            write_error_rate: self.write_error_rate,
            torn_write_rate: self.torn_write_rate,
            bad_pages: self.bad_pages.clone(),
            fail_reads_at: self.fail_reads_at.clone(),
            fail_writes_at: self.fail_writes_at.clone(),
        }
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.read_error_rate > 0.0
            || self.write_error_rate > 0.0
            || self.torn_write_rate > 0.0
            || !self.bad_pages.is_empty()
            || !self.fail_reads_at.is_empty()
            || !self.fail_writes_at.is_empty()
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Called by the disk once per read attempt.
    pub(crate) fn on_read(&mut self, page: u64) -> ReadFault {
        if self.bad_pages.contains(&page) {
            self.stats.permanent_denials += 1;
            return ReadFault::Permanent;
        }
        let index = self.reads_seen;
        self.reads_seen += 1;
        if self.fail_reads_at.contains(&index) || self.draw() < self.read_error_rate {
            self.stats.transient_reads += 1;
            return ReadFault::Transient;
        }
        ReadFault::None
    }

    /// Called by the disk once per write attempt.
    pub(crate) fn on_write(&mut self, page: u64) -> WriteFault {
        if self.bad_pages.contains(&page) {
            self.stats.permanent_denials += 1;
            return WriteFault::Permanent;
        }
        let index = self.writes_seen;
        self.writes_seen += 1;
        if self.fail_writes_at.contains(&index) || self.draw() < self.write_error_rate {
            self.stats.transient_writes += 1;
            return WriteFault::Transient;
        }
        if self.draw() < self.torn_write_rate {
            self.stats.torn_writes += 1;
            return WriteFault::Torn;
        }
        WriteFault::None
    }

    /// The disk reports detected corruption back so all fault accounting
    /// lives in one place.
    pub(crate) fn note_checksum_failure(&mut self) {
        self.stats.checksum_failures += 1;
    }

    /// Uniform draw in `[0.0, 1.0)`.
    fn draw(&mut self) -> f64 {
        self.rng = splitmix64(self.rng);
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One step of the splitmix64 sequence — small, fast, and good enough
/// where reproducibility matters, not cryptography: fault scheduling, the
/// adaptive hybrid's partition routing, retry jitter.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive_and_injects_nothing() {
        let mut plan = FaultPlan::seeded(1);
        assert!(!plan.is_active());
        for page in 0..100 {
            assert_eq!(plan.on_read(page), ReadFault::None);
            assert_eq!(plan.on_write(page), WriteFault::None);
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let build = || {
            FaultPlan::seeded(7)
                .with_read_error_rate(0.3)
                .with_write_error_rate(0.2)
                .with_torn_write_rate(0.1)
        };
        let (mut a, mut b) = (build(), build());
        for page in 0..200 {
            assert_eq!(a.on_read(page), b.on_read(page));
            assert_eq!(a.on_write(page), b.on_write(page));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().transient_reads > 0, "rate 0.3 over 200 draws");
    }

    #[test]
    fn scheduled_injection_points_fire_exactly_once() {
        let mut plan = FaultPlan::seeded(0)
            .with_read_failure_at(2)
            .with_write_failure_at(0);
        assert_eq!(plan.on_write(9), WriteFault::Transient);
        assert_eq!(plan.on_write(9), WriteFault::None);
        assert_eq!(plan.on_read(1), ReadFault::None);
        assert_eq!(plan.on_read(1), ReadFault::None);
        assert_eq!(plan.on_read(1), ReadFault::Transient);
        assert_eq!(plan.on_read(1), ReadFault::None);
        assert_eq!(plan.stats().transient_reads, 1);
        assert_eq!(plan.stats().transient_writes, 1);
    }

    #[test]
    fn bad_pages_are_permanent_in_both_directions() {
        let mut plan = FaultPlan::seeded(0).with_bad_page(4);
        assert_eq!(plan.on_read(4), ReadFault::Permanent);
        assert_eq!(plan.on_write(4), WriteFault::Permanent);
        assert_eq!(plan.on_read(3), ReadFault::None);
        assert_eq!(plan.stats().permanent_denials, 2);
    }

    #[test]
    fn reseeded_copies_config_but_not_state() {
        let mut a = FaultPlan::seeded(1)
            .with_read_error_rate(1.0)
            .with_bad_page(2);
        let _ = a.on_read(0);
        let b = a.reseeded(99);
        assert_eq!(b.seed(), 99);
        assert_eq!(b.stats(), FaultStats::default());
        assert!(b.is_active());
        let mut b = b;
        assert_eq!(b.on_write(2), WriteFault::Permanent);
    }
}
