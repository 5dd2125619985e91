//! Hash-table overflow behaviour (Section 3.4): hash-division as the
//! work-memory budget shrinks below the quotient-table size — in memory,
//! through the adaptive hybrid (quotient partitioning done dynamically),
//! and through divisor partitioning into 4 and 16 clusters, whose phases
//! run the hybrid. Every cell that answers is checked against the
//! workload's quotient; the process panics on a wrong one.
//!
//! ```text
//! cargo run --release -p reldiv-bench --bin overflow_sweep
//! ```
//!
//! Each cell prints two numbers: real wall time in ms, and the simulated
//! disk's modeled I/O time in ms (Table 1's weights), kept apart.

use std::time::Instant;

use reldiv_core::api::{divide, DivisionConfig, OverflowPolicy};
use reldiv_core::{Algorithm, DivisionSpec, HashDivisionMode};
use reldiv_storage::manager::StorageConfig;
use reldiv_storage::{IoCostParams, StorageManager};
use reldiv_workload::WorkloadSpec;

/// One division from cold record files: `(wall ms, modeled I/O ms)`, or
/// `None` when the policy's resident tables do not fit.
fn run(
    w: &reldiv_workload::Workload,
    work_memory: usize,
    policy: OverflowPolicy,
) -> Option<(f64, f64)> {
    let storage = StorageManager::shared(StorageConfig {
        work_memory_bytes: work_memory,
        ..StorageConfig::paper()
    });
    let spec =
        DivisionSpec::trailing_divisor(w.dividend.schema(), w.divisor.schema()).expect("spec");
    let d = reldiv_core::api::load_source(&storage, &w.dividend).expect("load");
    let s = reldiv_core::api::load_source(&storage, &w.divisor).expect("load");
    storage.borrow_mut().evict_all().expect("cold start");
    storage.borrow_mut().reset_stats();
    let start = Instant::now();
    let result = divide(
        &storage,
        &d,
        &s,
        &spec,
        Algorithm::HashDivision {
            mode: HashDivisionMode::Standard,
        },
        &DivisionConfig {
            assume_unique: true,
            overflow: policy,
            ..Default::default()
        },
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    match result {
        Ok(rel) => {
            let mut got: Vec<i64> = rel
                .tuples()
                .iter()
                .map(|t| t.value(0).as_int().expect("int quotient"))
                .collect();
            got.sort_unstable();
            assert_eq!(got, w.expected_quotient, "{policy:?}: wrong quotient");
            Some((wall_ms, storage.borrow().io_cost_ms(&IoCostParams::paper())))
        }
        Err(e) if e.is_memory_exhausted() => None,
        Err(e) => panic!("{policy:?}: unexpected error: {e}"),
    }
}

fn main() {
    // 20,000 quotient candidates x 25 divisor tuples: the quotient table
    // wants ~ 20k * (chain + tuple + 8B bitmap + bucket) ≈ 1.5 MB.
    let spec = WorkloadSpec {
        divisor_size: 25,
        quotient_size: 20_000,
        ..Default::default()
    };
    let w = spec.generate(123);
    println!(
        "workload: |S|=25, |Q|=20000, |R|={} (quotient table needs ~1.5 MB)",
        w.dividend.cardinality()
    );
    let columns: [(&str, OverflowPolicy); 4] = [
        ("in-memory", OverflowPolicy::Fail),
        ("adaptive", OverflowPolicy::Adaptive),
        (
            "divisor k=4",
            OverflowPolicy::DivisorPartition { partitions: 4 },
        ),
        (
            "divisor k=16",
            OverflowPolicy::DivisorPartition { partitions: 16 },
        ),
    ];
    print!("{:>10} |", "memory KB");
    for (name, _) in &columns {
        print!(" {name:>21}");
    }
    print!("\n{:>10} |", "");
    for _ in &columns {
        print!(" {:>10} {:>10}", "wall ms", "io ms");
    }
    println!("\n{}", "-".repeat(12 + 22 * columns.len()));
    for kb in [4096usize, 1024, 512, 256, 128, 64] {
        print!("{kb:>10} |");
        for &(_, policy) in &columns {
            match run(&w, kb * 1024, policy) {
                Some((wall, io)) => print!(" {wall:>10.1} {io:>10.0}"),
                None => print!(" {:>21}", "overflow"),
            }
        }
        println!();
    }
    println!(
        "\n'overflow' = the in-memory operator's tables do not fit the budget. \
         wall ms is real time on this host; io ms is the simulated disk's \
         modeled time for the same run's page transfers."
    );
}
