#!/bin/sh
# Checks that a change keeps every exact count of the benchmark and of the
# cost-model report: the check a performance change makes before it
# claims a speed-up.
#
#   scripts/exact_counts.sh <parent-dir> <change-dir>
#
# Builds perf_report through its own manifest in each checkout (each into
# its checkout's target/), runs every workload once per side at --seed 42
# --seconds 2 --trace 1 and prints `perf_report --compare` per workload:
# over traced runs of one seed, `--compare` reports as an error any exact
# count (storage.pages_*, core.ops_per_tuple.*, core.spill_bytes.*,
# cluster.bytes_per_query.*, cluster.register_bytes) that differs between
# the two sides. Then it writes `model_check --out` in each checkout and
# diffs the two reports. Two-second runs decide nothing about speed, so
# `regressed` and `unresolved` verdicts are printed, not judged.
#
# Exits non-zero on any --compare error, any failed run, or any difference
# between the model_check reports.
#
# Environment: EXACT_OUT (default: a new temporary directory) receives the
# runs (<workload>.parent.jsonl, <workload>.change.jsonl) and the reports
# (model_check.parent.json, model_check.change.json).
set -eu
[ $# -eq 2 ] || {
    echo "usage: $0 <parent-dir> <change-dir>" >&2
    exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=${EXACT_OUT:-$(mktemp -d)}
mkdir -p "$out"
manifest=crates/bench/src/bin/perf_report/Cargo.toml

build() {
    cargo build --release --quiet --manifest-path "$1/$manifest" --target-dir "$1/target" >&2
    echo "$1/target/release/perf_report"
}
parent_bin=$(build "$parent")
change_bin=$(build "$change")

failed=0
for workload in mem_grid disk_grid spill svc_hot svc_churn cluster; do
    for side in parent change; do
        if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
        echo "== $workload: $side" >&2
        rm -f "$out/$workload.$side.jsonl"
        if ! "$bin" --workload "$workload" --seed 42 --seconds 2 --trace 1 \
            --out "$out/$workload.$side.jsonl" >/dev/null; then
            echo "exact_counts: $workload failed on the $side side" >&2
            failed=1
        fi
    done
    report=$("$change_bin" --compare "$out/$workload.parent.jsonl" "$out/$workload.change.jsonl") || true
    echo "$report"
    errors=$(echo "$report" | sed -n 's/.* \([0-9][0-9]*\) errors, .*/\1/p' | tail -n 1)
    if [ "${errors:-missing}" != 0 ]; then
        echo "exact_counts: $workload: ${errors:-no summary} errors" >&2
        failed=1
    fi
done

for side in parent change; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    echo "== model_check: $side" >&2
    (cd "$dir" && cargo run --release --quiet -p reldiv-bench --bin model_check -- \
        --out "$out/model_check.$side.json" >/dev/null)
done
if diff "$out/model_check.parent.json" "$out/model_check.change.json" >/dev/null; then
    echo "model_check: identical"
else
    echo "model_check: the reports differ ($out/model_check.*.json)"
    failed=1
fi

echo "runs and reports: $out" >&2
exit "$failed"
