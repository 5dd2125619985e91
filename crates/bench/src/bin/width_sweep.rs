//! Record-width ablation — the dimension the paper could not afford.
//!
//! Section 5.1: "Unfortunately, we could not use very much disk space, so
//! we had to restrict our record sizes to 8 bytes for the divisor and the
//! quotient, and to 16 bytes for the dividend." This sweep lifts that
//! restriction: the quotient key grows from 16 bytes to 1 KB while the
//! tuple counts stay fixed, so per-tuple CPU is constant and the I/O term
//! scales with the record width — separating the algorithms' CPU
//! behaviour from their I/O behaviour.
//!
//! ```text
//! cargo run --release -p reldiv-bench --bin width_sweep
//! ```

use reldiv_bench::try_run_division_experiment;
use reldiv_core::api::DivisionConfig;
use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_workload::wide_exact_product;

fn main() {
    let algorithms = [
        Algorithm::Naive,
        Algorithm::SortAggregation { join: true },
        Algorithm::HashAggregation { join: true },
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
    ];
    let (s, q) = (50u64, 200u64); // |R| = 10,000 tuples at every width
    println!(
        "(|S|={s}, |Q|={q}, |R|={}; total ms = measured CPU + modeled I/O)",
        s * q
    );
    println!(
        "{:>10} {:>12} | {:>10} {:>10} {:>10} {:>10} {:>10}",
        "width B", "dividend KB", "Naive", "SortAgg+J", "HashAgg+J", "HashDiv", "io(HashDiv)"
    );
    println!("{}", "-".repeat(92));
    let config = DivisionConfig {
        assume_unique: true,
        ..Default::default()
    };
    for width in [16usize, 64, 256, 1024] {
        let (dividend, divisor) = wide_exact_product(s, q, width, 5);
        let dividend_kb = dividend.cardinality() * dividend.schema().record_width() / 1024;
        print!("{width:>10} {dividend_kb:>12} |");
        let mut hd_io = 0.0;
        for algorithm in algorithms {
            match try_run_division_experiment(&dividend, &divisor, algorithm, &config) {
                Ok(m) => {
                    assert_eq!(
                        m.quotient_cardinality, q,
                        "{algorithm:?} wrong at width {width}"
                    );
                    if matches!(algorithm, Algorithm::HashDivision { .. }) {
                        hd_io = m.io_ms;
                    }
                    print!(" {:>10.0}", m.total_ms());
                }
                Err(e) if e.is_memory_exhausted() => print!(" {:>10}", "overflow"),
                Err(e) => panic!("{algorithm:?}: {e}"),
            }
        }
        println!(" {hd_io:>10.0}");
    }
    println!(
        "\nTuple counts are constant, so the hash algorithms' probe work is flat and \
         their totals grow with the I/O term. The sort-based plans re-write the \
         widened records in every run and merge pass, so they grow several times \
         faster. At width 1024 even 200 quotient keys outgrow the 100 KB pool: \
         hash-division's Auto policy falls to the adaptive hybrid (spill + \
         re-read, visible in its I/O column) — and still finishes first."
    );
}
