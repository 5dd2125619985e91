#!/bin/sh
# Non-test lines per crate: for every file under crates/<crate>/src, the
# lines before its first `#[cfg(test)]` (the whole file if it has none).
# ROADMAP tracks these numbers; CHANGES.md quotes them per PR.
#
#   scripts/loc.sh [crate ...]     default: every crate ROADMAP tracks
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- rel storage exec core costmodel plan parallel service cluster workload
total=0
for crate in "$@"; do
    lines=$(find "crates/$crate/src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
