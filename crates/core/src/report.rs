//! Degradation reporting: what a division had to do to survive.
//!
//! When hash-division hits memory pressure mid-build, the `Auto` overflow
//! policy walks the Section 3.4 ladder — in-memory, the adaptive hybrid,
//! divisor-partitioned with ever more clusters — until a rung fits. The
//! [`DegradationReport`] returned alongside the quotient records that
//! walk: which phases ran, how many rungs were abandoned, how many bytes
//! were spooled to temporary files, and what the hybrid spilled, revived
//! and re-partitioned. A report with `degraded == false` is the fast
//! path.

/// How a division degraded (or didn't) to produce its result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Whether any fallback beyond the first attempt was needed.
    pub degraded: bool,
    /// Human-readable phases attempted, in order (e.g. `"in-memory:
    /// memory exhausted"`, `"divisor-partitioned k=4"`). The last entry
    /// is the phase that produced the result.
    pub phases: Vec<String>,
    /// Bytes spooled to temporary cluster/collection files by the
    /// partitioned phases, counting each byte the first time it leaves
    /// memory. Bytes re-clustered from a file that was already a spill
    /// (a divisor-partitioned phase's hybrid, hybrid recursion) are in
    /// [`respool_bytes`](Self::respool_bytes) instead.
    pub spill_bytes: u64,
    /// Bytes re-spooled from one temporary cluster file into another —
    /// already-spilled data partitioned again. Kept apart from
    /// `spill_bytes` so nested phases never double-count first-time
    /// spills.
    pub respool_bytes: u64,
    /// Fallback retries: attempts abandoned before the one that
    /// succeeded (or before giving up).
    pub retries: u32,
    /// Adaptive hybrid: partitions evicted from memory mid-build.
    pub partitions_spilled: u32,
    /// Adaptive hybrid: spilled partitions re-admitted to memory after
    /// the pool freed up.
    pub partitions_revived: u32,
    /// Adaptive hybrid: deepest re-partitioning recursion level needed
    /// (0 when every partition fit after the first pass).
    pub recursion_depth: u32,
}

impl DegradationReport {
    /// A fresh, non-degraded report.
    pub fn new() -> DegradationReport {
        DegradationReport::default()
    }

    /// Records a phase that ran (or was attempted).
    pub fn note_phase(&mut self, phase: impl Into<String>) {
        self.phases.push(phase.into());
    }

    /// Records that the previous phase was abandoned and another will be
    /// attempted.
    pub fn note_retry(&mut self) {
        self.retries += 1;
        self.degraded = true;
    }

    /// The phase that produced the result, if any phase was recorded.
    pub fn final_phase(&self) -> Option<&str> {
        self.phases.last().map(String::as_str)
    }

    /// Records an adaptive-hybrid partition spill.
    pub fn note_spill(&mut self, bytes: u64) {
        self.partitions_spilled += 1;
        self.spill_bytes += bytes;
        self.degraded = true;
    }

    /// Records an adaptive-hybrid partition revive.
    pub fn note_revive(&mut self) {
        self.partitions_revived += 1;
    }

    /// Records that re-partitioning recursion reached `depth`.
    pub fn note_recursion(&mut self, depth: u32) {
        self.recursion_depth = self.recursion_depth.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_report_is_clean() {
        let r = DegradationReport::new();
        assert!(!r.degraded);
        assert!(r.phases.is_empty());
        assert_eq!(r.spill_bytes, 0);
        assert_eq!(r.respool_bytes, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.partitions_spilled, 0);
        assert_eq!(r.partitions_revived, 0);
        assert_eq!(r.recursion_depth, 0);
        assert_eq!(r.final_phase(), None);
    }

    #[test]
    fn hybrid_counters_accumulate() {
        let mut r = DegradationReport::new();
        r.note_spill(100);
        r.note_spill(50);
        r.note_revive();
        r.note_recursion(2);
        r.note_recursion(1);
        assert!(r.degraded);
        assert_eq!(r.partitions_spilled, 2);
        assert_eq!(r.spill_bytes, 150);
        assert_eq!(r.partitions_revived, 1);
        assert_eq!(r.recursion_depth, 2);
    }

    #[test]
    fn retries_mark_degradation() {
        let mut r = DegradationReport::new();
        r.note_phase("in-memory: memory exhausted");
        r.note_retry();
        r.note_phase("divisor-partitioned k=2");
        assert!(r.degraded);
        assert_eq!(r.retries, 1);
        assert_eq!(r.final_phase(), Some("divisor-partitioned k=2"));
    }
}
