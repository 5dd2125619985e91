#!/bin/sh
# Alternating paired runs of the benchmark on two checkouts, for a
# before/after claim on one workload.
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload> <pairs> <first-seed>
#
# Builds perf_report through its own manifest in each checkout (each into
# its checkout's target/), then runs <pairs> pairs at --seconds 16, pair i
# on seed <first-seed> + i for both sides. The side that runs first swaps
# every pair, so a drift of the host does not favour one side. The runs
# are appended to <out>/parent.jsonl and <out>/change.jsonl, and the
# script ends with `perf_report --compare parent.jsonl change.jsonl`.
#
# Environment: BENCH_OUT (default: a new temporary directory),
# BENCH_SECONDS (default 16; a smaller value is for a smoke run only).
set -eu
[ $# -eq 5 ] || {
    echo "usage: $0 <parent-dir> <change-dir> <workload> <pairs> <first-seed>" >&2
    exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed=$5
seconds=${BENCH_SECONDS:-16}
out=${BENCH_OUT:-$(mktemp -d)}
mkdir -p "$out"
manifest=crates/bench/src/bin/perf_report/Cargo.toml

build() {
    cargo build --release --quiet --manifest-path "$1/$manifest" --target-dir "$1/target" >&2
    echo "$1/target/release/perf_report"
}
parent_bin=$(build "$parent")
change_bin=$(build "$change")

run() { # <side> <binary> <seed>
    echo "== $workload seed $3: $1" >&2
    "$2" --workload "$workload" --seed "$3" --seconds "$seconds" \
        --out "$out/$1.jsonl" >/dev/null
}

i=0
while [ "$i" -lt "$pairs" ]; do
    s=$((seed + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent_bin" "$s"
        run change "$change_bin" "$s"
    else
        run change "$change_bin" "$s"
        run parent "$parent_bin" "$s"
    fi
    i=$((i + 1))
done

echo "runs: $out/parent.jsonl $out/change.jsonl" >&2
"$change_bin" --compare "$out/parent.jsonl" "$out/change.jsonl"
