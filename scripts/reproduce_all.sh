#!/usr/bin/env bash
# Regenerate the paper's entire evaluation and record it.
#
#   scripts/reproduce_all.sh [smoke|default|full]
#
# Writes tables/series to results/ and prints the summary comparison.
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE="${1:-default}"
mkdir -p results

echo "== building (release) =="
cargo build --release --offline -p archgraph-bench

run() {
    local name="$1"
    shift
    echo "== $name =="
    "./target/release/$name" "$@" | tee "results/$name.txt"
}

run calibrate "$SCALE"
run fig1 "$SCALE" --csv
run fig2 "$SCALE" --csv
run table1 "$SCALE"
run all "$SCALE"
run speedup "$SCALE"

echo
echo "results recorded under results/; see EXPERIMENTS.md for the"
echo "paper-vs-measured interpretation."
