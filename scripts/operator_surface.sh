#!/bin/sh
# The tuple-at-a-time operators outside tests: every `impl ... Operator for
# <Type>` in a file under crates/*/src, before the file's first
# `#[cfg(test)]` (the rule scripts/loc.sh counts lines by). Only the three
# tuple operators the benchmark still names may implement the protocol;
# any other type makes the script exit non-zero.
#
#   scripts/operator_surface.sh
set -eu
cd "$(dirname "$0")/.."
found=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting && /^impl.*[^a-zA-Z_]Operator for / {
        ty = $0
        sub(/.*[^a-zA-Z_]Operator for /, "", ty)
        sub(/[^a-zA-Z0-9_].*/, "", ty)
        print FILENAME ": " ty
    }' {} + | sort)
printf '%s\n' "$found"
others=$(printf '%s\n' "$found" | grep -Ev ': (Sort|HashCountAggregate|BatchToTuple)$' || true)
if [ -n "$others" ]; then
    printf 'only Sort, HashCountAggregate and BatchToTuple may implement Operator:\n%s\n' "$others"
    exit 1
fi
