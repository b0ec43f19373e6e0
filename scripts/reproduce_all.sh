#!/usr/bin/env bash
# Regenerate the paper's entire evaluation and record it.
#
#   scripts/reproduce_all.sh [smoke|default|full]
#
# Writes tables/series to results/ and prints the summary comparison.
#
# `all` sweeps the cells `fig1`, `fig2` and `table1` have just run, so every
# binary checkpoints into one run-scoped directory, removed on exit, and `all`
# resumes those cells instead of simulating them again. A caller that sets
# ARCHGRAPH_CHECKPOINT_DIR itself keeps it, and it is not removed (set it to
# resume an interrupted `full` run).
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE="${1:-default}"
mkdir -p results
if [ -z "${ARCHGRAPH_CHECKPOINT_DIR+set}" ]; then
    ARCHGRAPH_CHECKPOINT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/archgraph-reproduce.XXXXXX")"
    trap 'rm -rf "$ARCHGRAPH_CHECKPOINT_DIR"' EXIT
    export ARCHGRAPH_CHECKPOINT_DIR
fi

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
