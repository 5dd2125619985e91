//! The aggregation rule every timing metric uses.
//!
//! A workload is a fixed list of query classes. Each class reports its
//! sample count, its median, and the highest percentile that still has
//! at least ten samples beyond it. A named timing metric is the
//! geometric mean over its classes of the class **median**, so small
//! cells (per-query overhead) and large cells (per-tuple cost) weigh
//! equally and a bimodal mix never puts the median on a mode boundary.

use crate::workload::Group;

/// Percentiles a class may report, lowest first, each with the share
/// of samples beyond it as "one in k".
const TAILS: [(f64, &str, usize); 5] = [
    (0.75, "p75", 4),
    (0.90, "p90", 10),
    (0.99, "p99", 100),
    (0.999, "p99.9", 1_000),
    (0.9999, "p99.99", 10_000),
];

/// Samples that must lie beyond a percentile for it to be reported.
const BEYOND: usize = 10;

/// Median of a sorted slice (mean of the middle pair for even lengths).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Nearest-rank percentile `p` in `[0, 1]` of a sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of no samples");
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest percentile of `n` samples with at least ten samples
/// beyond it, or `None` when even p75 has fewer.
pub fn highest_tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, _, one_in)| n / one_in >= BEYOND)
        .map(|&(p, label, _)| (p, label))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// One query class's latency summary, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    pub name: String,
    pub group: Group,
    pub n: usize,
    /// The fast decile, printed beside the median to show how far the
    /// host's interference reaches into the class.
    pub p10_ns: f64,
    /// What the timing metrics aggregate.
    pub p50_ns: f64,
    /// `(label, value)` of the highest supported percentile.
    pub tail: Option<(&'static str, f64)>,
}

/// Summarizes one class's samples; `None` when it has none.
pub fn summarize(name: &str, group: Group, samples_ns: &[u64]) -> Option<ClassSummary> {
    if samples_ns.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples_ns.iter().map(|&s| s as f64).collect();
    v.sort_by(f64::total_cmp);
    Some(ClassSummary {
        name: name.to_owned(),
        group,
        n: v.len(),
        p10_ns: percentile_sorted(&v, 0.10),
        p50_ns: median_sorted(&v),
        tail: highest_tail(v.len()).map(|(p, label)| (label, percentile_sorted(&v, p))),
    })
}

/// The timing metric of `group` in ms: the geometric mean of the
/// medians of its classes. A workload with no class in the group
/// reports the mean over all its classes, so that every run can report
/// every metric (`None` only when no class answered at all).
pub fn group_ms(classes: &[ClassSummary], group: Group) -> Option<f64> {
    let medians = |keep: &dyn Fn(&ClassSummary) -> bool| -> Vec<f64> {
        classes
            .iter()
            .filter(|c| keep(c))
            .map(|c| c.p50_ns / 1e6)
            .collect()
    };
    let mut of_group = medians(&|c| c.group == group);
    if of_group.is_empty() {
        of_group = medians(&|_| true);
    }
    (!of_group.is_empty()).then(|| geomean(&of_group))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_tail(39), None);
        assert_eq!(highest_tail(40).map(|t| t.1), Some("p75"));
        assert_eq!(highest_tail(99).map(|t| t.1), Some("p75"));
        assert_eq!(highest_tail(100).map(|t| t.1), Some("p90"));
        assert_eq!(highest_tail(999).map(|t| t.1), Some("p90"));
        assert_eq!(highest_tail(1_000).map(|t| t.1), Some("p99"));
        assert_eq!(highest_tail(10_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(highest_tail(100_000).map(|t| t.1), Some("p99.99"));
        assert_eq!(highest_tail(10_000_000).map(|t| t.1), Some("p99.99"));
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let samples: Vec<u64> = (1..=1000).collect();
        let s = summarize("c", Group::Query, &samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p10_ns, 100.0);
        assert_eq!(s.p50_ns, 500.5);
        assert_eq!(s.tail, Some(("p99", 990.0)));
        let few = summarize("c", Group::Query, &[7, 9, 8]).unwrap();
        assert_eq!((few.p50_ns, few.tail), (8.0, None));
        assert_eq!(summarize("c", Group::Query, &[]), None);
    }

    #[test]
    fn geomean_weighs_small_and_large_classes_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Doubling the small class moves the mean as much as doubling
        // the large one.
        let base = geomean(&[1.0, 100.0]);
        assert!((geomean(&[2.0, 100.0]) / base - geomean(&[1.0, 200.0]) / base).abs() < 1e-9);
    }

    #[test]
    fn a_group_metric_is_the_geomean_of_its_class_medians() {
        let class = |group, ms: u64| summarize("c", group, &[ms * 1_000_000]).unwrap();
        let classes = [
            class(Group::Write, 1),
            class(Group::Query, 4),
            class(Group::Query, 16),
        ];
        let close = |a: Option<f64>, b: f64| (a.unwrap() - b).abs() < 1e-9;
        assert!(close(group_ms(&classes, Group::Query), 8.0));
        assert!(close(group_ms(&classes, Group::Write), 1.0));
        // No class of the group: the mean over all classes.
        assert!(close(group_ms(&classes, Group::Hit), 4.0));
        assert_eq!(group_ms(&[], Group::Hit), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
