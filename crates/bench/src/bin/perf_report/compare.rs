//! `perf_report --compare A B`: two sets of runs (the JSON-lines files
//! `--out` appends to), compared per workload and end-to-end metric.
//!
//! Each pairing prints both medians, the ratio with its base, the bound,
//! and a verdict: `unresolved` when either set's own spread (the
//! distance between its quartiles, as a share of its median) is wider
//! than the bound, else `regressed` when B's median is worse than A's by
//! more than the bound, else `ok`. `failed_share` (failed, refused or
//! wrong operations ÷ attempted, over all runs of the set) has no bound:
//! any increase is `regressed`, because failed operations leave no
//! latency sample and so make a set look faster. Counts that must repeat exactly are
//! checked across every traced run of one workload and seed, and the
//! class list must be the same for every run of a workload whatever its
//! seed; a violation of either is an error.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{is_exact_count, END_TO_END};
use crate::stats;

#[derive(Debug, PartialEq)]
pub struct Comparison {
    pub text: String,
    pub regressed: usize,
    pub unresolved: usize,
    /// Exact counts that differed, or class lists that changed.
    pub errors: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.regressed == 0 && self.errors.is_empty()
    }
}

/// Parses a JSON-lines file of run reports.
pub fn parse_runs(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(Json::parse)
        .collect()
}

fn field_str<'a>(run: &'a Json, key: &str) -> &'a str {
    run.get(key).and_then(Json::as_str).unwrap_or("")
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Failed ÷ attempted operations over every run of `workload` in `set`,
/// or `None` when the set has no run of it.
fn failed_share(set: &[Json], workload: &str) -> Option<f64> {
    let sum = |key: &str| -> f64 {
        set.iter()
            .filter(|r| field_str(r, "workload") == workload)
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    let attempted = sum("attempted");
    (attempted > 0.0).then(|| sum("failed") / attempted)
}

fn is_traced(run: &Json) -> bool {
    run.get("trace") == Some(&Json::Bool(true))
}

/// Spread of a set's values: interquartile distance over the median.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / stats::median(values)
}

pub fn compare(a: &[Json], b: &[Json]) -> Comparison {
    let mut out = Comparison {
        text: String::new(),
        regressed: 0,
        unresolved: 0,
        errors: Vec::new(),
    };
    let mut workloads: Vec<&str> = Vec::new();
    for run in a.iter().chain(b) {
        let w = field_str(run, "workload");
        if !workloads.contains(&w) {
            workloads.push(w);
        }
    }
    writeln!(
        out.text,
        "{:<10} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    )
    .expect("write to string");
    for w in &workloads {
        for e in &END_TO_END {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter()
                    .filter(|r| field_str(r, "workload") == *w && !is_traced(r))
                    .filter_map(|r| metric(r, e.name))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse_by = if e.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if spread(&va).max(spread(&vb)) > e.bound {
                out.unresolved += 1;
                "unresolved"
            } else if worse_by > e.bound {
                out.regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            writeln!(
                out.text,
                "{:<10} {:<14} {:>14.6} {:>14.6} {:>9.4} {:>6.2}  {} (n={}/{}, spread {:.3}/{:.3}, base A)",
                w,
                e.name,
                ma,
                mb,
                mb / ma,
                e.bound,
                verdict,
                va.len(),
                vb.len(),
                spread(&va),
                spread(&vb),
            )
            .expect("write to string");
        }
        if let (Some(fa), Some(fb)) = (failed_share(a, w), failed_share(b, w)) {
            let verdict = if fb > fa {
                out.regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            writeln!(
                out.text,
                "{:<10} {:<14} {:>14.6} {:>14.6} {:>9} {:>6}  {} (any increase regresses)",
                w, "failed_share", fa, fb, "-", "-", verdict
            )
            .expect("write to string");
        }
    }

    // Exact counts: one value per (workload, seed, scale, metric).
    let mut seen: BTreeMap<(String, String, String), f64> = BTreeMap::new();
    let mut classes: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for run in a.iter().chain(b) {
        let w = field_str(run, "workload");
        let list: Vec<&str> = run
            .get("classes")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|c| field_str(c, "name"))
            .collect();
        match classes.get(w) {
            Some(first) if *first != list => {
                out.errors
                    .push(format!("{w}: the class list differs between runs"));
            }
            Some(_) => {}
            None => {
                classes.insert(w, list);
            }
        }
        if !is_traced(run) {
            continue;
        }
        let inputs = format!(
            "seed {} scale {}",
            run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
            run.get("scale").and_then(Json::as_f64).unwrap_or(-1.0)
        );
        for (name, value) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let Some(value) = value.get("value").and_then(Json::as_f64) else {
                continue;
            };
            if !is_exact_count(name) {
                continue;
            }
            let key = (w.to_owned(), inputs.clone(), name.clone());
            match seen.get(&key) {
                Some(first) if *first != value => out.errors.push(format!(
                    "{w} ({inputs}): exact count {name} drifted: {first} then {value}"
                )),
                Some(_) => {}
                None => {
                    seen.insert(key, value);
                }
            }
        }
    }
    out.errors.dedup();
    for e in &out.errors {
        writeln!(out.text, "error: {e}").expect("write to string");
    }
    writeln!(
        out.text,
        "{} regressed, {} unresolved, {} errors, {} exact counts checked",
        out.regressed,
        out.unresolved,
        out.errors.len(),
        seen.len()
    )
    .expect("write to string");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        workload: &str,
        seed: u64,
        trace: bool,
        metrics: &[(&str, f64)],
        classes: &[&str],
    ) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("scale", Json::Num(1.0)),
            ("trace", Json::Bool(trace)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(n, v)| {
                    (
                        *n,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str("x"))]),
                    )
                })),
            ),
            (
                "classes",
                Json::Arr(
                    classes
                        .iter()
                        .map(|c| Json::obj([("name", Json::str(*c))]))
                        .collect(),
                ),
            ),
        ])
    }

    fn set(query_ms: &[f64]) -> Vec<Json> {
        query_ms
            .iter()
            .map(|v| {
                run(
                    "mem_grid",
                    1,
                    false,
                    &[("query_ms", *v), ("queries_per_s", 1000.0 / v)],
                    &["c"],
                )
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = set(&[10.0, 10.1, 9.9, 10.0]);
        let same = compare(&base, &set(&[10.2, 10.3, 10.1, 10.2]));
        assert!(same.passed() && same.unresolved == 0, "{}", same.text);

        // 50 % slower on a 25 % bound: both the latency and the rate.
        let slow = compare(&base, &set(&[15.0, 15.1, 14.9, 15.0]));
        assert_eq!(slow.regressed, 2, "{}", slow.text);
        assert!(!slow.passed());

        // Faster is never a regression.
        assert!(compare(&base, &set(&[5.0, 5.0, 5.1, 4.9])).passed());

        // A set whose own quartiles are wider apart than the bound
        // resolves nothing.
        let noisy = compare(&base, &set(&[6.0, 12.0, 18.0, 10.0]));
        assert_eq!(
            (noisy.regressed, noisy.unresolved),
            (0, 2),
            "{}",
            noisy.text
        );
    }

    #[test]
    fn any_increase_of_the_failed_share_regresses() {
        let base = set(&[10.0, 10.1, 9.9, 10.0]);
        let mut failing = set(&[10.0, 10.1, 9.9, 10.0]);
        let Json::Obj(fields) = &mut failing[2] else {
            panic!()
        };
        fields.retain(|(k, _)| k != "failed");
        fields.push(("failed".to_owned(), Json::Num(1.0)));
        let c = compare(&base, &failing);
        assert_eq!(c.regressed, 1, "{}", c.text);
        assert!(c.text.contains("failed_share"));
        // Fewer failures than the base is no regression.
        assert!(compare(&failing, &base).passed());
    }

    #[test]
    fn exact_count_drift_and_class_list_changes_are_errors() {
        let a = vec![run(
            "disk_grid",
            1,
            true,
            &[("storage.pages_read.naive", 400.0)],
            &["c1", "c2"],
        )];
        let same = vec![run(
            "disk_grid",
            1,
            true,
            &[("storage.pages_read.naive", 400.0)],
            &["c1", "c2"],
        )];
        assert!(compare(&a, &same).passed());
        let drifted = vec![run(
            "disk_grid",
            1,
            true,
            &[("storage.pages_read.naive", 401.0)],
            &["c1", "c2"],
        )];
        let c = compare(&a, &drifted);
        assert!(!c.passed() && c.errors[0].contains("drifted"), "{}", c.text);
        // Another seed may count differently but must keep the classes.
        let other_seed = vec![run(
            "disk_grid",
            2,
            true,
            &[("storage.pages_read.naive", 7.0)],
            &["c1", "c2"],
        )];
        assert!(compare(&a, &other_seed).passed());
        let renamed = vec![run("disk_grid", 2, true, &[], &["c1"])];
        assert!(compare(&a, &renamed).errors[0].contains("class list"));
    }

    #[test]
    fn runs_round_trip_through_json_lines() {
        let runs = set(&[1.5, 2.5]);
        let text: String = runs.iter().map(|r| r.render() + "\n").collect();
        assert_eq!(parse_runs(&text).unwrap(), runs);
        assert!(parse_runs("{\"a\":1}\nnot json\n").is_err());
    }
}
