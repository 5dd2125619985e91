//! `model-check` — Section 5 of the paper: validate the Table 2 cost
//! formulas against measured executions, *per cost unit*.
//!
//! For every Table 4 cell (nine `(|S|, |Q|)` sizes × six algorithm
//! columns) the model's Section 4 formulas are decomposed into predicted
//! counts of the six Table 1 units (`RIO`, `SIO`, `Comp`, `Hash`, `Move`,
//! `Bit`) via [`UnitCounts::predict`], and the same division is executed
//! on the paper-configured storage stack while the abstract-operation
//! counters and simulated-disk statistics record the *measured* counts:
//!
//! * `comp`/`hash`/`move`/`bit` — the thread-local operation counters;
//! * `rio` — disk transfers that required a physical seek;
//! * `sio` — the remaining (sequential) transfers.
//!
//! Each pair is reported with its signed relative error, plus a
//! `total_ms` row pricing both vectors with the Table 1 units — the
//! paper's headline predicted-vs-measured comparison. Every quantity is
//! deterministic (counters and a simulated disk, no wall clocks), so the
//! JSON report is stable across machines and suitable for CI.
//!
//! By default the model is *calibrated*: its formulas are fed the
//! measured stack's geometry (real tuples-per-page densities and the
//! memory budget in 8 KB pages) so the comparison validates the formulas
//! rather than the paper's 1988 hardware constants. `--paper-geometry`
//! switches to Table 2's assumed densities instead.
//!
//! ```text
//! model-check [--seed N] [--out PATH] [--smoke] [--paper-geometry]
//! ```
//!
//! `--smoke` runs only the smallest cell (`|S| = |Q| = 25`) — the CI
//! configuration.

use reldiv_bench::{paper_sizes, try_run_division_experiment_checked, Measurement};
use reldiv_core::api::{divide_with_report, DivisionConfig, OverflowPolicy, Source};
use reldiv_core::{Algorithm, DegradationReport, DivisionSpec, HashDivisionMode};
use reldiv_costmodel::{
    compare, CostModel, CostUnits, HybridSizes, PlannedAlgorithm, SizeConfig, UnitComparison,
    UnitCounts,
};
use reldiv_exec::scan::load_relation;
use reldiv_rel::schema::{Field, Schema};
use reldiv_rel::tuple::ints;
use reldiv_rel::{RecordCodec, Relation};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::StorageManager;
use reldiv_workload::WorkloadSpec;

/// The model column an executable algorithm validates against. The three
/// hash-division modes share Section 4.5's formula.
fn planned(algorithm: Algorithm) -> PlannedAlgorithm {
    match algorithm {
        Algorithm::Naive => PlannedAlgorithm::Naive,
        Algorithm::SortAggregation { join } => PlannedAlgorithm::SortAggregation { join },
        Algorithm::HashAggregation { join } => PlannedAlgorithm::HashAggregation { join },
        Algorithm::HashDivision { .. } => PlannedAlgorithm::HashDivision,
    }
}

/// A [`SizeConfig`] with the paper's cardinalities but the *measured*
/// stack's geometry: tuple densities read back from the pages the loaded
/// record files actually occupy, and the memory budget in real 8 KB data
/// pages. Table 2's assumed densities (5 dividend and 10 divisor tuples
/// per page) describe the paper's hardware; the formulas themselves are
/// geometry-generic, so validating against the simulated stack means
/// feeding them the simulated geometry.
fn calibrated_sizes(dividend: &Relation, divisor: &Relation, s: u64, q: u64) -> SizeConfig {
    let storage = StorageManager::shared(StorageConfig::paper());
    let d_file = load_relation(&storage, dividend).expect("load dividend");
    let s_file = load_relation(&storage, divisor).expect("load divisor");
    let sm = storage.borrow();
    let r_pages = sm.page_count(d_file).expect("dividend pages").max(1) as f64;
    let s_pages = sm.page_count(s_file).expect("divisor pages").max(1) as f64;
    let config = sm.config();
    SizeConfig {
        divisor: s,
        quotient: q,
        sq_per_page: divisor.cardinality() as f64 / s_pages,
        r_per_page: dividend.cardinality() as f64 / r_pages,
        memory_pages: config.work_memory_bytes as f64 / config.data_page_size as f64,
        hbs: 2.0,
        dividend_override: Some(dividend.cardinality() as u64),
    }
}

/// Measured unit counts from one execution's counters and disk stats.
fn measured_counts(m: &Measurement) -> UnitCounts {
    let seeks = m.io.seeks as f64;
    let transfers = m.io.transfers() as f64;
    UnitCounts {
        rio: seeks,
        sio: (transfers - seeks).max(0.0),
        comp: m.ops.comparisons as f64,
        hash: m.ops.hashes as f64,
        mv: m.ops.moves as f64,
        bit: m.ops.bitops as f64,
    }
}

/// Runs hash-division on `dividend ÷ divisor` with an optional per-query
/// budget, returning the pool's peak and the degradation report.
fn run_hybrid(
    dividend: &Relation,
    divisor: &Relation,
    budget: Option<usize>,
) -> (usize, DegradationReport, usize) {
    let storage = StorageManager::shared(StorageConfig::large());
    let pool = storage.borrow().memory();
    let spec = DivisionSpec::trailing_divisor(dividend.schema(), divisor.schema())
        .expect("workload schemas divide");
    // The unbudgeted probes calibrate the hybrid itself, which `Auto`
    // enters at once only under a budget.
    let overflow = match budget {
        None => OverflowPolicy::Adaptive,
        Some(_) => OverflowPolicy::Auto,
    };
    let config = DivisionConfig {
        mem_budget: budget,
        overflow,
        ..DivisionConfig::default()
    };
    let (rel, report) = divide_with_report(
        &storage,
        &Source::from_relation(dividend),
        &Source::from_relation(divisor),
        &spec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &config,
    )
    .expect("budgeted hybrid division completes");
    (pool.peak(), report, rel.cardinality())
}

/// One predicted-vs-measured point of the hybrid budget sweep.
struct HybridCell {
    label: &'static str,
    budget: usize,
    predicted_degrades: bool,
    predicted_spill: f64,
    predicted_partitions: u32,
    measured: DegradationReport,
}

impl HybridCell {
    fn spill_error(&self) -> f64 {
        if self.predicted_spill > 0.0 {
            (self.measured.spill_bytes as f64 - self.predicted_spill) / self.predicted_spill
        } else if self.measured.spill_bytes == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

/// Validates the hybrid spill formula (`reldiv_costmodel::hybrid`)
/// against measured `DegradationReport`s across a budget sweep.
///
/// Calibration comes from two unbudgeted probe runs of the real stack: an
/// empty-dividend run isolates the divisor-table bytes `D`, and a full
/// run's pool peak gives `D + G·bytes-per-group`. The formula then
/// predicts the sweep; the measured runs must agree on the degradation
/// boundary at every budget, and — whenever the adaptive hybrid is the
/// rung that actually produced the answer — on spill volume within a
/// factor of 2. At starvation budgets the `Auto` ladder may abandon the
/// hybrid for divisor partitioning, whose cluster files dominate the
/// measured bytes; only the boundary is checked there.
fn validate_hybrid(seed: u64, smoke: bool) -> Vec<HybridCell> {
    let (s, q) = if smoke {
        (25u64, 200u64)
    } else {
        (25u64, 400u64)
    };
    let w = WorkloadSpec {
        divisor_size: s,
        quotient_size: q,
        ..Default::default()
    }
    .generate(seed ^ 0x4879_6272);

    // Probe 1: divisor table alone (empty dividend).
    let empty = Relation::empty(w.dividend.schema().clone());
    let (divisor_table_bytes, _, _) = run_hybrid(&empty, &w.divisor, None);
    // Probe 2: everything resident.
    let (peak, clean, _) = run_hybrid(&w.dividend, &w.divisor, None);
    assert!(!clean.degraded, "unbudgeted probe must not spill");
    let need = peak.saturating_sub(divisor_table_bytes);
    let bytes_per_group = need as f64 / q as f64;

    // Spill-record widths, mirroring the hybrid's two layouts: state =
    // quotient + one Int per 64 divisor bits, delta = quotient + dno.
    let int_record = |cols: usize| {
        let fields = (0..cols).map(|i| Field::int(format!("c{i}"))).collect();
        RecordCodec::new(Schema::new(fields)).record_width() as u64
    };
    let words = (s as usize).div_ceil(64);
    let state_record_bytes = int_record(1 + words);
    let delta_record_bytes = int_record(2);

    let sizes = |budget: usize, matched: u64, hot: f64| HybridSizes {
        budget_bytes: budget as u64,
        divisor_table_bytes: divisor_table_bytes as u64,
        table_bytes_per_group: bytes_per_group,
        groups: q,
        tuples_per_group: s as f64,
        matched_tuples: matched,
        state_record_bytes,
        delta_record_bytes,
        fanout: 16,
        hot_fraction: hot,
    };

    let mut cells = Vec::new();
    for frac in [1.25, 0.75, 0.5, 0.25, 0.125] {
        let budget = divisor_table_bytes + (frac * need as f64) as usize;
        let p = sizes(budget, s * q, 0.0).predict();
        let (_, report, card) = run_hybrid(&w.dividend, &w.divisor, Some(budget));
        assert_eq!(card as u64, q, "budget={budget}: wrong quotient");
        cells.push(HybridCell {
            label: "uniform",
            budget,
            predicted_degrades: p.degrades,
            predicted_spill: p.spill_bytes,
            predicted_partitions: p.partitions_spilled,
            measured: report,
        });
    }

    // Skew point: group 0 duplicated to ~50% of the matched tuples. The
    // table (same groups) and the boundary stay put; the hot-group
    // accumulator must keep the measured deltas near the cold prediction.
    let mut rows: Vec<_> = w.dividend.tuples().to_vec();
    let base = rows.len() as u64;
    for i in 0..base.saturating_sub(s) {
        rows.push(ints(&[0, 1_000_000 + (i % s) as i64]));
    }
    let hot_dividend = Relation::from_tuples(w.dividend.schema().clone(), rows).unwrap();
    let matched = hot_dividend.cardinality() as u64;
    let budget = divisor_table_bytes + need / 2;
    let p = sizes(budget, matched, 0.5).predict();
    let (_, report, card) = run_hybrid(&hot_dividend, &w.divisor, Some(budget));
    assert_eq!(card as u64, q, "hot sweep: wrong quotient");
    cells.push(HybridCell {
        label: "hot-group",
        budget,
        predicted_degrades: p.degrades,
        predicted_spill: p.spill_bytes,
        predicted_partitions: p.partitions_spilled,
        measured: report,
    });
    cells
}

struct CellReport {
    divisor_size: u64,
    quotient_size: u64,
    algorithm: Algorithm,
    rows: Vec<UnitComparison>,
}

impl CellReport {
    /// The `total_ms` row's signed relative error.
    fn total_error(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.unit == "total_ms")
            .map(UnitComparison::relative_error)
            .unwrap_or(f64::INFINITY)
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn usage() -> ! {
    eprintln!("usage: model-check [--seed N] [--out PATH] [--smoke] [--paper-geometry]");
    std::process::exit(2);
}

fn main() {
    let mut seed = 42u64;
    let mut out = String::from("BENCH_model_check.json");
    let mut smoke = false;
    let mut paper_geometry = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--smoke" => smoke = true,
            // Predict with Table 2's assumed densities instead of the
            // measured stack's geometry — reproduces Table 2 verbatim but
            // makes the I/O comparison a statement about the paper's
            // hardware, not this stack.
            "--paper-geometry" => paper_geometry = true,
            _ => usage(),
        }
    }

    let sizes = if smoke {
        vec![(25u64, 25u64)]
    } else {
        paper_sizes()
    };
    let config = DivisionConfig {
        // The paper restricts "our analysis to duplicate free inputs".
        assume_unique: true,
        ..DivisionConfig::default()
    };

    let mut cells: Vec<CellReport> = Vec::new();
    for &(s, q) in &sizes {
        let w = WorkloadSpec {
            divisor_size: s,
            quotient_size: q,
            ..Default::default()
        }
        .generate(seed ^ (s << 32) ^ q);
        let model = if paper_geometry {
            CostModel::paper(s, q)
        } else {
            CostModel {
                units: CostUnits::paper(),
                sizes: calibrated_sizes(&w.dividend, &w.divisor, s, q),
            }
        };
        for algorithm in Algorithm::table_columns() {
            let m = match try_run_division_experiment_checked(
                &w.dividend,
                &w.divisor,
                algorithm,
                &config,
                false,
            ) {
                Ok(m) => m,
                Err(e) => {
                    // Aggregation plans without overflow handling can
                    // exhaust the paper's 100 KB work memory; the model
                    // has no formula for the partitioned rerun either.
                    eprintln!("skip |S|={s} |Q|={q} {}: {e}", algorithm.label());
                    continue;
                }
            };
            assert_eq!(
                m.quotient_cardinality, q,
                "{algorithm:?} |S|={s} |Q|={q}: wrong quotient"
            );
            let predicted = UnitCounts::predict(&model, planned(algorithm));
            let rows = compare(&predicted, &measured_counts(&m), &model.units);
            let cell = CellReport {
                divisor_size: s,
                quotient_size: q,
                algorithm,
                rows,
            };
            println!(
                "|S|={s:>4} |Q|={q:>4} {:<22} total predicted/measured error {:>+7.1} %",
                algorithm.label(),
                cell.total_error() * 100.0
            );
            for row in &cell.rows {
                if row.predicted == 0.0 && row.measured == 0.0 {
                    continue;
                }
                println!(
                    "    {:<8} predicted {:>14.1}  measured {:>14.1}  error {:>+8.1} %",
                    row.unit,
                    row.predicted,
                    row.measured,
                    row.relative_error() * 100.0
                );
            }
            cells.push(cell);
        }
    }
    if cells.is_empty() {
        eprintln!("no cells ran");
        std::process::exit(1);
    }

    // Aggregate: mean |relative error| of the priced totals, the
    // paper-style summary of how well Table 2 tracks the measurements.
    let finite: Vec<f64> = cells
        .iter()
        .map(CellReport::total_error)
        .filter(|e| e.is_finite())
        .collect();
    let mean_abs_total = finite.iter().map(|e| e.abs()).sum::<f64>() / finite.len().max(1) as f64;
    println!(
        "\n{} cells: mean |total_ms relative error| {:.1} %",
        cells.len(),
        mean_abs_total * 100.0
    );

    // The hybrid budget sweep: the spill formula against measured
    // degradation reports. Boundary mismatches fail the check everywhere;
    // spill volumes off by more than 2x fail it on runs the adaptive
    // hybrid actually won (when divisor partitioning wins instead, its
    // cluster files dominate the bytes and only the boundary holds).
    println!("\nhybrid spill-formula validation:");
    let hybrid_cells = validate_hybrid(seed, smoke);
    let mut hybrid_ok = true;
    for c in &hybrid_cells {
        let adaptive_won = c
            .measured
            .phases
            .last()
            .is_some_and(|p| p.starts_with("adaptive-hybrid"));
        println!(
            "  {:<9} budget {:>8}  degrade predicted/measured {}/{}  spill predicted {:>9.0}  measured {:>9}  error {:>+7.1} %{}",
            c.label,
            c.budget,
            c.predicted_degrades,
            c.measured.degraded,
            c.predicted_spill,
            c.measured.spill_bytes,
            c.spill_error() * 100.0,
            if c.measured.degraded && !adaptive_won {
                "  (divisor partitioning won; volume not compared)"
            } else {
                ""
            }
        );
        if c.predicted_degrades != c.measured.degraded {
            eprintln!(
                "  FAIL: degradation boundary mismatch at budget {}",
                c.budget
            );
            hybrid_ok = false;
        }
        if c.predicted_degrades && c.measured.degraded && adaptive_won {
            let ratio = c.measured.spill_bytes as f64 / c.predicted_spill.max(1.0);
            if !(0.5..=2.0).contains(&ratio) {
                eprintln!(
                    "  FAIL: spill volume off by {ratio:.2}x at budget {}",
                    c.budget
                );
                hybrid_ok = false;
            }
        }
    }
    if !hybrid_ok {
        eprintln!("hybrid spill-formula validation failed");
        std::process::exit(1);
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"paper_geometry\": {paper_geometry},\n"
    ));
    json.push_str(&format!(
        "  \"mean_abs_total_error\": {},\n  \"cells\": [\n",
        json_number(mean_abs_total)
    ));
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"divisor_size\": {}, \"quotient_size\": {}, \"algorithm\": \"{}\", \"units\": [\n",
            c.divisor_size,
            c.quotient_size,
            c.algorithm.label()
        ));
        for (j, row) in c.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"unit\": \"{}\", \"predicted\": {}, \"measured\": {}, \"relative_error\": {}}}{}\n",
                row.unit,
                json_number(row.predicted),
                json_number(row.measured),
                json_number(row.relative_error()),
                if j + 1 == c.rows.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"hybrid\": [\n");
    for (i, c) in hybrid_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"budget\": {}, \"predicted_degrades\": {}, \"measured_degraded\": {}, \"predicted_spill_bytes\": {}, \"measured_spill_bytes\": {}, \"predicted_partitions\": {}, \"measured_partitions\": {}, \"relative_error\": {}}}{}\n",
            c.label,
            c.budget,
            c.predicted_degrades,
            c.measured.degraded,
            json_number(c.predicted_spill),
            c.measured.spill_bytes,
            c.predicted_partitions,
            c.measured.partitions_spilled,
            json_number(c.spill_error()),
            if i + 1 == hybrid_cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
