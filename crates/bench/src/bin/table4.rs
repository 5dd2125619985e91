//! Regenerates the paper's Table 3 (experimental I/O cost parameters) and
//! Table 4 (experimental cost of division).
//!
//! The full stack runs here: `R = Q × S` workloads are loaded into record
//! files on the simulated disk, the buffer pool is cold-started, and each
//! of the six algorithm columns executes over the paper's configuration
//! (8 KB transfers, 1 KB sort runs, 256 KB buffer, 100 KB work memory).
//! Following the paper's methodology, the reported run-time is measured
//! CPU time plus I/O cost computed from the collected disk statistics
//! priced with Table 3. A second, fully deterministic grid prices the
//! abstract-operation counters with Table 1 units instead of measuring
//! CPU.
//!
//! ```text
//! cargo run --release -p reldiv-bench --bin table4
//! ```

use reldiv_bench::{check_table4_shape, paper_sizes, render_grid, run_table4, Measurement};
use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_storage::IoCostParams;

/// Runs of the grid: 4a prints each column's median measured CPU, and the
/// shape check calls two columns with the same I/O a tie when their CPU
/// differs by less than the widest range of any column of their
/// configuration over these runs.
const REPS: usize = 9;

fn main() {
    let p = IoCostParams::paper();
    println!("Table 3. Experimental I/O cost parameters.");
    let rows = [
        (p.seek_ms, "Physical seek on device"),
        (p.latency_ms, "Rotational latency per transfer"),
        (p.per_kb_ms, "Transfer time per KByte"),
        (p.cpu_per_transfer_ms, "CPU cost per transfer"),
    ];
    println!("{:>6}  Cost", "ms");
    for (ms, description) in rows {
        println!("{ms:>6}  {description}");
    }
    println!();

    eprintln!("running 9 configurations x 6 algorithms, {REPS} times each ...");
    let measurements = run_table4(&paper_sizes(), 0xD117DE, REPS);

    println!(
        "{}",
        render_grid(
            "Table 4a. Experimental cost of division (median measured CPU + modeled I/O, ms).",
            &measurements,
            Measurement::total_ms,
        )
    );
    println!(
        "{}",
        render_grid(
            "Table 4b. Deterministic variant (Table-1-priced CPU + modeled I/O, ms).",
            &measurements,
            Measurement::total_modeled_ms,
        )
    );
    println!(
        "{}",
        render_grid("I/O cost alone (ms).", &measurements, |m| m.io_ms)
    );

    // Section 5.2's headline observations, derived from this run.
    let get = |s: u64, q: u64, a: Algorithm| {
        measurements
            .iter()
            .find(|m| m.divisor_size == s && m.quotient_size == q && m.algorithm == a)
            .expect("grid is complete")
    };
    let hd = Algorithm::HashDivision {
        mode: HashDivisionMode::Standard,
    };
    println!("Section 5.2 observations on this run:");
    {
        let fastest = Algorithm::table_columns()
            .iter()
            .map(|&a| get(25, 25, a).total_ms())
            .fold(f64::INFINITY, f64::min);
        let slowest = Algorithm::table_columns()
            .iter()
            .map(|&a| get(25, 25, a).total_ms())
            .fold(0.0, f64::max);
        println!(
            "  smallest config (|R|=625): slowest/fastest = {:.1}x (paper: ~3x, 1288 vs 428 ms)",
            slowest / fastest
        );
        // On modern hardware the measured CPU of 625 tuples is ~0 and the
        // 4a spread collapses; the deterministic 4b variant (Table-1 CPU
        // prices, calibrated to 1988 hardware) recovers the paper's gap.
        let fastest_b = Algorithm::table_columns()
            .iter()
            .map(|&a| get(25, 25, a).total_modeled_ms())
            .fold(f64::INFINITY, f64::min);
        let slowest_b = Algorithm::table_columns()
            .iter()
            .map(|&a| get(25, 25, a).total_modeled_ms())
            .fold(0.0, f64::max);
        println!(
            "  smallest config, deterministic variant: slowest/fastest = {:.1}x",
            slowest_b / fastest_b
        );
    }
    {
        let hd_t = get(400, 400, hd).total_ms();
        let ha = get(400, 400, Algorithm::HashAggregation { join: false }).total_ms();
        let haj = get(400, 400, Algorithm::HashAggregation { join: true }).total_ms();
        let saj = get(400, 400, Algorithm::SortAggregation { join: true }).total_ms();
        let sa = get(400, 400, Algorithm::SortAggregation { join: false }).total_ms();
        println!(
            "  largest config: hash-div / hash-agg = {:.2} (paper: ~1.1); \
             hash-div / hash-agg-with-join = {:.2} (<1)",
            hd_t / ha,
            hd_t / haj
        );
        println!(
            "  sort-agg with join / without = {:.2} (paper: 490765/190745 = 2.57)",
            saj / sa
        );
    }

    let check = check_table4_shape(&measurements, Measurement::total_ms);
    if !check.ties.is_empty() {
        println!(
            "\nTies: the same I/O, CPU within the cells' spread ({}):",
            check.ties.len()
        );
        for t in &check.ties {
            println!("  {t}");
        }
    }
    if check.violations.is_empty() {
        println!("\nAll Section 5.2 shape claims hold for this run.");
    } else {
        println!("\nShape violations ({}):", check.violations.len());
        for v in &check.violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }
}
