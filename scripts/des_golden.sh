#!/usr/bin/env bash
# Golden check for the simulated (DES) tables and figures.
#
# The DES back-end is deterministic, so the PTDG_QUICK=1 output of every
# table/figure bin is pinned byte for byte under results/quick/.
#
#   scripts/des_golden.sh           # rerun each bin, diff against the goldens
#   scripts/des_golden.sh --update  # rewrite the goldens from the current code
#
# A change that moves the simulator's output must update the goldens in
# the same commit.
set -euo pipefail

BINS="fig1 fig2 fig6 fig7 fig8 fig9 table1 table2 table3 metg throttle cholesky_bench"
GOLDEN=results/quick

cd "$(dirname "$0")/.."
cargo build --release -q -p ptdg-bench
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for b in $BINS; do
    PTDG_QUICK=1 "./target/release/$b" > "$out/$b.txt"
    if [ "${1:-}" = "--update" ]; then
        mkdir -p "$GOLDEN"
        cp "$out/$b.txt" "$GOLDEN/$b.txt"
    elif ! diff -u "$GOLDEN/$b.txt" "$out/$b.txt"; then
        echo "des-golden: $b drifted from $GOLDEN/$b.txt" >&2
        status=1
    fi
done
exit $status
