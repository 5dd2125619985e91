//! Group-size skew ablation: hash-division vs its competitors when most
//! quotient candidates take only a Zipf-skewed fraction of the divisor.
//!
//! Real for-all workloads are skewed — a handful of "power" groups are
//! complete while a long tail of groups touches only a few divisor
//! values. The candidates still occupy the quotient table (hash-division)
//! or the aggregation table, but never qualify. This sweep varies the
//! skew exponent θ and the tail size.
//!
//! ```text
//! cargo run --release -p reldiv-bench --bin skew_sweep
//! ```

use reldiv_bench::try_run_division_experiment;
use reldiv_core::api::DivisionConfig;
use reldiv_core::{Algorithm, HashDivisionMode};
use reldiv_workload::zipf_workload;

fn main() {
    let algorithms = [
        Algorithm::SortAggregation { join: true },
        Algorithm::HashAggregation { join: true },
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
    ];
    println!(
        "{:>8} {:>12} {:>9} | {:>10} {:>10} {:>10}   (total ms, measured CPU + modeled I/O)",
        "theta", "tail groups", "|R|", "SortAgg+J", "HashAgg+J", "HashDiv"
    );
    println!("{}", "-".repeat(92));
    let config = DivisionConfig {
        assume_unique: true,
        ..Default::default()
    };
    for &theta in &[0.2f64, 0.8, 1.2] {
        for &tail in &[500u64, 2_000, 8_000] {
            let w = zipf_workload(64, 100, tail, theta, 77);
            print!("{theta:>8} {tail:>12} {:>9} |", w.dividend.cardinality());
            for algorithm in algorithms {
                match try_run_division_experiment(&w.dividend, &w.divisor, algorithm, &config) {
                    Ok(m) => {
                        assert_eq!(
                            m.quotient_cardinality as usize,
                            w.expected_quotient.len(),
                            "{algorithm:?} wrong quotient under skew"
                        );
                        print!(" {:>10.0}", m.total_ms());
                    }
                    Err(e) if e.is_memory_exhausted() => {
                        // Both hash-based plans have partitioned overflow
                        // handling now; only a defeated fallback lands here.
                        print!(" {:>10}", "overflow");
                    }
                    Err(e) => panic!("{algorithm:?}: {e}"),
                }
            }
            println!();
        }
    }
    println!(
        "\n100 complete groups of 64 divisor values; the tail's group sizes follow \
         Zipf(theta). Larger theta = smaller tail tuples but the same number of \
         quotient candidates, so hash-division's advantage is in skipping the \
         second dividend pass, not in table size. At 8000 tail groups both \
         hash-based plans outgrow the paper's 100 KB work memory and recover \
         via their overflow paths (the adaptive hybrid for hash-division, \
         the same partition engine for the aggregation's group count)."
    );
}
