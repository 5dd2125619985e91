//! # reldiv-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper:
//!
//! | artifact | binary | what it does |
//! |---|---|---|
//! | Table 1 & Table 2 | `table2` | prints the cost units and the analytical table, cross-checked against the paper's printed values |
//! | Table 3 & Table 4 | `table4` | runs all six algorithm columns over the nine size configurations on the simulated storage stack and prints measured-CPU + modeled-I/O and fully deterministic modeled-CPU variants |
//! | §4.6 speculation | `selectivity_sweep` | non-matching tuples and incomplete groups: where hash-division wins outright |
//! | §3.4 | `overflow_sweep` | memory-budget sweep across in-memory, adaptive-hybrid, and divisor-partitioned hash-division; wall time and modeled I/O apart |
//! | §6 | `parallel_sweep` | shared-nothing scale-out and bit-vector-filter traffic reduction |
//!
//! Criterion micro-benchmarks live in `benches/`.
//!
//! This library holds the shared experiment runner: workload loading,
//! statistics capture, and cost computation following the paper's
//! methodology (Section 5.1: CPU measured, I/O priced from file-system
//! statistics with Table 3's parameters).

use std::time::Instant;

use reldiv_core::api::{divide, DivisionConfig};
use reldiv_core::{Algorithm, DivisionSpec};
use reldiv_costmodel::units::{price_ops, CostUnits};
use reldiv_rel::counters::{self, OpSnapshot};
use reldiv_rel::Relation;
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{IoCostParams, IoStats, StorageManager};
use reldiv_workload::WorkloadSpec;

/// One experimental measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// `|S|`.
    pub divisor_size: u64,
    /// `|Q|`.
    pub quotient_size: u64,
    /// `|R|` as generated.
    pub dividend_size: u64,
    /// Quotient cardinality produced.
    pub quotient_cardinality: u64,
    /// Wall-clock milliseconds of the division (the harness is
    /// single-threaded and never blocks, so this approximates the paper's
    /// getrusage CPU time); over repeated runs, their median.
    pub cpu_ms_measured: f64,
    /// Range (max − min) of `cpu_ms_measured` over repeated runs of the
    /// cell; zero for a single run.
    pub cpu_ms_spread: f64,
    /// Deterministic CPU milliseconds: the abstract-operation counters
    /// priced with Table 1 units.
    pub cpu_ms_modeled: f64,
    /// I/O milliseconds: simulated-disk statistics priced with Table 3
    /// parameters, exactly the paper's methodology.
    pub io_ms: f64,
    /// Raw I/O statistics.
    pub io: IoStats,
    /// Raw operation counters.
    pub ops: OpSnapshot,
}

impl Measurement {
    /// The paper's headline number: measured CPU plus modeled I/O.
    pub fn total_ms(&self) -> f64 {
        self.cpu_ms_measured + self.io_ms
    }

    /// Fully deterministic total: modeled CPU plus modeled I/O. Stable
    /// across machines and runs, suitable for CI comparisons.
    pub fn total_modeled_ms(&self) -> f64 {
        self.cpu_ms_modeled + self.io_ms
    }
}

/// Runs one algorithm over one workload on a fresh paper-configured
/// storage stack, capturing the paper's cost measures.
///
/// Loading the inputs into record files, flushing, and statistics resets
/// happen *before* timing starts, so the measurement covers exactly the
/// division (as the paper's did).
pub fn run_division_experiment(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: Algorithm,
    config: &DivisionConfig,
) -> Measurement {
    try_run_division_experiment(dividend, divisor, algorithm, config)
        .expect("division succeeds on this workload")
}

/// Fallible variant of [`run_division_experiment`]: algorithms without
/// overflow handling (the aggregation plans hold their tables without a
/// partitioning fallback) can legitimately exhaust the paper's 100 KB
/// work memory on large candidate populations.
pub fn try_run_division_experiment(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: Algorithm,
    config: &DivisionConfig,
) -> reldiv_core::Result<Measurement> {
    try_run_division_experiment_checked(dividend, divisor, algorithm, config, true)
}

/// [`try_run_division_experiment`] with the disks' checksum verification
/// toggled — the knob the robustness benchmark uses to price the
/// fault-free overhead of per-page checksums.
pub fn try_run_division_experiment_checked(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: Algorithm,
    config: &DivisionConfig,
    verify_checksums: bool,
) -> reldiv_core::Result<Measurement> {
    let storage = StorageManager::shared(StorageConfig::paper());
    storage.borrow_mut().set_checksums_enabled(verify_checksums);
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema())
        .expect("workload schemas always divide");
    let d_src = reldiv_core::api::load_source(&storage, dividend).expect("load dividend");
    let s_src = reldiv_core::api::load_source(&storage, divisor).expect("load divisor");
    {
        // Cold start: the measured run must pay for reading its inputs
        // from disk, as the paper's runs did.
        let mut sm = storage.borrow_mut();
        sm.evict_all().expect("flush and evict loaded inputs");
        sm.reset_stats();
    }
    let scope = counters::OpScope::begin();
    let start = Instant::now();
    let quotient = divide(&storage, &d_src, &s_src, &spec, algorithm, config)?;
    let cpu_ms_measured = start.elapsed().as_secs_f64() * 1000.0;
    let ops = scope.finish();
    let io = storage.borrow().io_stats();
    let units = CostUnits::paper();
    Ok(Measurement {
        algorithm,
        divisor_size: divisor.cardinality() as u64,
        quotient_size: 0, // caller-facing field set by table drivers
        dividend_size: dividend.cardinality() as u64,
        quotient_cardinality: quotient.cardinality() as u64,
        cpu_ms_measured,
        cpu_ms_spread: 0.0,
        cpu_ms_modeled: price_ops(&units, ops.comparisons, ops.hashes, ops.moves, ops.bitops),
        io_ms: IoCostParams::paper().cost_ms(&io),
        io,
        ops,
    })
}

/// Runs the full Table 4 grid: the nine `(|S|, |Q|)` configurations of
/// Section 4.6 across the six algorithm columns, on `R = Q × S`
/// workloads with `assume_unique` set (the paper restricts "our analysis
/// to duplicate free inputs"). The grid runs `reps` times over, so that a
/// cell's repeated runs lie apart in time: its measured CPU is their
/// median, its spread their range (every other figure is the same on
/// every run).
pub fn run_table4(sizes: &[(u64, u64)], seed: u64, reps: usize) -> Vec<Measurement> {
    let config = DivisionConfig {
        assume_unique: true,
        ..Default::default()
    };
    let workloads: Vec<_> = sizes
        .iter()
        .map(|&(s, q)| {
            let spec = WorkloadSpec {
                divisor_size: s,
                quotient_size: q,
                ..Default::default()
            };
            (s, q, spec.generate(seed ^ (s << 32) ^ q))
        })
        .collect();
    let mut out: Vec<Measurement> = Vec::new();
    let mut cpu: Vec<Vec<f64>> = Vec::new();
    for rep in 0..reps.max(1) {
        let cells = workloads
            .iter()
            .flat_map(|w| Algorithm::table_columns().map(|a| (w, a)));
        for (i, ((s, q, w), algorithm)) in cells.enumerate() {
            let mut m = run_division_experiment(&w.dividend, &w.divisor, algorithm, &config);
            m.quotient_size = *q;
            assert_eq!(
                m.quotient_cardinality, *q,
                "{algorithm:?} |S|={s} |Q|={q}: wrong quotient"
            );
            if rep == 0 {
                cpu.push(Vec::new());
                out.push(m.clone());
            }
            cpu[i].push(m.cpu_ms_measured);
        }
    }
    for (m, mut cpu) in out.iter_mut().zip(cpu) {
        cpu.sort_by(f64::total_cmp);
        m.cpu_ms_measured = cpu[cpu.len() / 2];
        m.cpu_ms_spread = cpu[cpu.len() - 1] - cpu[0];
    }
    out
}

/// The paper's nine size configurations.
pub fn paper_sizes() -> Vec<(u64, u64)> {
    reldiv_costmodel::table2_configs()
}

/// Renders a Table-2/Table-4 style grid: rows are `(|S|, |Q|)`, columns
/// the six algorithms, `cell` extracts the printed value.
pub fn render_grid(
    title: &str,
    measurements: &[Measurement],
    cell: impl Fn(&Measurement) -> f64,
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "{title}").unwrap();
    writeln!(
        s,
        "{:>5} {:>5} | {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "|S|", "|Q|", "Naive", "SortAgg", "SortAgg+J", "HashAgg", "HashAgg+J", "HashDiv"
    )
    .unwrap();
    writeln!(s, "{}", "-".repeat(96)).unwrap();
    let mut by_size: Vec<(u64, u64)> = measurements
        .iter()
        .map(|m| (m.divisor_size, m.quotient_size))
        .collect();
    by_size.dedup();
    for (sv, qv) in by_size {
        let row: Vec<f64> = Algorithm::table_columns()
            .iter()
            .map(|a| {
                measurements
                    .iter()
                    .find(|m| m.divisor_size == sv && m.quotient_size == qv && m.algorithm == *a)
                    .map(&cell)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        writeln!(
            s,
            "{:>5} {:>5} | {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            sv, qv, row[0], row[1], row[2], row[3], row[4], row[5]
        )
        .unwrap();
    }
    s
}

/// What [`check_table4_shape`] found, one human-readable line per claim.
#[derive(Debug, Default)]
pub struct ShapeCheck {
    /// Claims the run contradicts (empty = all claims hold).
    pub violations: Vec<String>,
    /// Comparisons the run cannot decide: the two columns do the same
    /// modeled I/O, and their totals differ by less than the cell's
    /// spread — the widest range of measured CPU over repeated runs among
    /// its six columns.
    pub ties: Vec<String>,
}

/// Checks the qualitative claims of Section 5.2 against a Table 4 run.
pub fn check_table4_shape(
    measurements: &[Measurement],
    total: impl Fn(&Measurement) -> f64,
) -> ShapeCheck {
    let mut check = ShapeCheck::default();
    let cell = |s: u64, q: u64, a: Algorithm| -> &Measurement {
        measurements
            .iter()
            .find(|m| m.divisor_size == s && m.quotient_size == q && m.algorithm == a)
            .expect("grid is complete")
    };
    let [naive_a, sort_agg_a, sort_agg_j_a, hash_agg_a, hash_agg_j_a, hash_div_a] =
        Algorithm::table_columns();
    let mut sizes: Vec<(u64, u64)> = measurements
        .iter()
        .map(|m| (m.divisor_size, m.quotient_size))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    for (s, q) in sizes {
        let get = |a: Algorithm| total(cell(s, q, a));
        let naive = get(naive_a);
        let sort_agg = get(sort_agg_a);
        let sort_agg_j = get(sort_agg_j_a);
        let hash_agg = get(hash_agg_a);
        let hash_agg_j = get(hash_agg_j_a);
        let hash_div = get(hash_div_a);
        // Whether I/O dominates for this configuration: |R| of 16-byte
        // tuples against the 256 KB buffer pool. Below that, everything is
        // memory-resident and the CPU-only ratios of the analytical model
        // apply; above it, the I/O terms dominate as in Table 2.
        let io_bound = (s * q) * 16 > 256 * 1024;
        let spread = Algorithm::table_columns()
            .map(|a| cell(s, q, a).cpu_ms_spread)
            .into_iter()
            .fold(0.0, f64::max);
        // Whether column `a` costs less than column `b`, counting a tie
        // (recorded as one) as no contradiction.
        let mut below = |a: Algorithm, b: Algorithm| {
            let (ma, mb) = (cell(s, q, a), cell(s, q, b));
            let (ta, tb) = (total(ma), total(mb));
            let tie = ta >= tb && ma.io == mb.io && ta - tb < spread;
            if tie {
                let (a, b) = (a.label(), b.label());
                let line = format!("|S|={s} |Q|={q}: {a} ties {b} ({ta:.2} vs {tb:.2} ms)");
                check.ties.push(line);
            }
            ta < tb || tie
        };
        let mut claim = |ok: bool, msg: String| {
            if !ok {
                check.violations.push(format!("|S|={s} |Q|={q}: {msg}"));
            }
        };
        claim(
            below(hash_agg_a, sort_agg_a) && below(hash_agg_a, naive_a),
            format!(
                "hash-based should beat sort-based ({hash_agg:.0} vs {sort_agg:.0}/{naive:.0})"
            ),
        );
        claim(
            below(hash_div_a, naive_a)
                && below(hash_div_a, sort_agg_a)
                && below(hash_div_a, sort_agg_j_a),
            "hash-division should beat every sort-based column".into(),
        );
        claim(
            below(sort_agg_a, sort_agg_j_a),
            format!("the preceding join must cost extra ({sort_agg_j:.0} vs {sort_agg:.0})"),
        );
        claim(
            below(hash_agg_a, hash_agg_j_a),
            format!("the preceding semi-join must cost extra ({hash_agg_j:.0} vs {hash_agg:.0})"),
        );
        // Direct division vs join+aggregation: hash-division never needs
        // the second dividend pass, so once I/O matters it wins outright;
        // in purely memory-resident configs the two do the same two
        // probes per tuple and may tie (within 20 %).
        if io_bound {
            claim(
                hash_div < hash_agg_j,
                format!(
                    "hash-division should beat hash-agg-with-join when I/O matters \
                     ({hash_div:.0} vs {hash_agg_j:.0})"
                ),
            );
            claim(
                hash_div / hash_agg < 1.35,
                format!(
                    "hash-division should be within tens of percent of plain hash \
                     aggregation (ratio {:.2})",
                    hash_div / hash_agg
                ),
            );
        } else {
            claim(
                hash_div <= hash_agg_j * 1.2,
                format!(
                    "hash-division should at worst tie hash-agg-with-join \
                     ({hash_div:.0} vs {hash_agg_j:.0})"
                ),
            );
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_runner_measures_io_for_large_dividends() {
        let spec = WorkloadSpec {
            divisor_size: 100,
            quotient_size: 400,
            ..Default::default()
        };
        let w = spec.generate(1);
        let config = DivisionConfig {
            assume_unique: true,
            ..Default::default()
        };
        let m = run_division_experiment(&w.dividend, &w.divisor, Algorithm::Naive, &config);
        // 40,000 x 16 B = 640 KB dividend exceeds the 256 KB pool:
        // the sort must do real I/O.
        assert!(m.io.transfers() > 0, "{:?}", m.io);
        assert!(m.io_ms > 0.0);
        assert!(m.cpu_ms_modeled > 0.0);
        assert_eq!(m.quotient_cardinality, 400);
    }

    #[test]
    fn small_grid_preserves_the_papers_ranking() {
        // A reduced grid keeps the test quick while checking the shape
        // machinery end to end.
        let sizes = [(25, 25), (25, 100)];
        let ms = run_table4(&sizes, 99, 1);
        assert_eq!(ms.len(), 12);
        let violations = check_table4_shape(&ms, Measurement::total_modeled_ms).violations;
        // Only claims about configs present in the grid apply; filter.
        let relevant: Vec<&String> = violations
            .iter()
            .filter(|v| v.starts_with("|S|=25 |Q|=25") || v.starts_with("|S|=25 |Q|=100"))
            .collect();
        assert!(relevant.is_empty(), "{relevant:?}");
    }

    #[test]
    fn a_tie_needs_equal_io_and_a_gap_inside_the_spread() {
        // One memory-resident cell where every column does the same I/O
        // and hash-division's CPU is 0.1 ms behind sort aggregation's.
        let io = IoStats {
            reads: 2,
            seeks: 2,
            bytes: 16_384,
            ..IoStats::default()
        };
        let cpu = [3.0, 0.9, 2.0, 0.8, 1.5, 1.0];
        let grid = |hash_div_cpu: f64, sort_agg_io: IoStats| -> Vec<Measurement> {
            let cells = Algorithm::table_columns().into_iter().zip(cpu);
            cells
                .map(|(algorithm, cpu_ms)| {
                    let hash_div = matches!(algorithm, Algorithm::HashDivision { .. });
                    let sort_agg = algorithm == Algorithm::SortAggregation { join: false };
                    let io = if sort_agg { sort_agg_io } else { io };
                    Measurement {
                        algorithm,
                        divisor_size: 25,
                        quotient_size: 25,
                        dividend_size: 625,
                        quotient_cardinality: 25,
                        cpu_ms_measured: if hash_div { hash_div_cpu } else { cpu_ms },
                        cpu_ms_spread: 0.2,
                        cpu_ms_modeled: 0.0,
                        io_ms: IoCostParams::paper().cost_ms(&io),
                        io,
                        ops: OpSnapshot::default(),
                    }
                })
                .collect()
        };
        let beat_sorts = "|S|=25 |Q|=25: hash-division should beat every sort-based column";
        let check = |ms: &[Measurement]| check_table4_shape(ms, Measurement::total_ms);

        let tied = check(&grid(1.0, io));
        assert!(tied.violations.is_empty(), "{tied:?}");
        assert_eq!(tied.ties.len(), 1, "{tied:?}");
        // Hash-division's CPU doubled: a loss far outside the spread.
        let doubled = check(&grid(2.0, io));
        assert!(
            doubled.violations.iter().any(|v| v == beat_sorts),
            "{doubled:?}"
        );
        // The same 0.1 ms behind a column that reads one page less.
        let fewer_reads = IoStats {
            reads: 1,
            bytes: 8_192,
            ..io
        };
        let lost = check(&grid(1.0, fewer_reads));
        assert!(lost.violations.iter().any(|v| v == beat_sorts), "{lost:?}");
        assert!(lost.ties.is_empty(), "{lost:?}");
    }

    #[test]
    fn render_grid_mentions_all_columns() {
        let sizes = [(25, 25)];
        let ms = run_table4(&sizes, 5, 1);
        let grid = render_grid("t", &ms, Measurement::total_modeled_ms);
        for header in ["Naive", "SortAgg+J", "HashDiv"] {
            assert!(grid.contains(header));
        }
    }
}
