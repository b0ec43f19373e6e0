#!/usr/bin/env bash
# Chaos soak: run the bench suite under ambient structural fault plans and
# hold the simulators' fault semantics to a recorded truth.
#
# Each grid plan is exported as the ambient ARCHGRAPH_FAULTS, the full
# bench suite runs under it, and every cell's name and "sim" fingerprint
# is diffed against that plan's block in tests/golden/chaos_soak.txt. The
# blocks were recorded on commit 9c672cf. The thirteen MTA cells without a
# plan of their own move with the ambient one (cycles, and for the racy
# kernels the work); the four degradation cells' own plans outrank it and
# the SMP cells pin only instructions, accesses, rounds and levels, so
# those lines must come out the same under every plan. Plans mix the
# structural axis (stall=, link-latency=, brownout=) with the address-keyed
# one (mem-latency=, wake-delay=); stuck-full and stuck-empty are
# deliberately absent — wedged tags can deadlock sync kernels, which is a
# different contract (exercised by the guardrails suite), not a
# fingerprint sweep.
#
# After an intended change to fault semantics, replace a plan's block with
# the lines the failure names (OUT_DIR/planN.sims).
#
# --full widens the grid. Kill/resume under faults is daemon_nightly.sh's:
# the daemon clears an ambient ARCHGRAPH_FAULTS for every spec without a
# plan of its own (its cache is keyed by the spec), so that check needs
# the degradation cells, whose plans are in their specs.
#
# Usage:  scripts/chaos_soak.sh [--full] [OUT_DIR]   (default: chaos-soak)

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
    shift
fi
OUT_DIR="${1:-chaos-soak}"
mkdir -p "$OUT_DIR"

PLANS=(
    "stall=30,stall-period=300:7"
    "link-latency=60,rate=1:7"
    "stall=40,stall-period=240,link-latency=60,brownout=2,brownout-at=2000,rate=1:11"
)
if [[ "$FULL" == 1 ]]; then
    PLANS+=(
        "brownout=6,brownout-at=1000,brownout-for=50000:3"
        "mem-latency=30,wake-delay=9,stall=20,stall-period=500,link-latency=40,brownout=2,rate=2:13"
    )
fi

BENCH=target/release/bench
if [[ ! -x "$BENCH" ]]; then
    cargo build --release --offline -p archgraph-bench
fi

GOLDEN=tests/golden/chaos_soak.txt

echo "== chaos soak: ${#PLANS[@]} fault plans against $GOLDEN =="
pi=0
for plan in "${PLANS[@]}"; do
    pi=$((pi + 1))
    out="$OUT_DIR/plan${pi}.json"
    ARCHGRAPH_FAULTS="$plan" "$BENCH" --out "$out" --reps 1
    # One line a cell: `"name": "fig2/mta/p8", "sim": { ... }`.
    grep -E '^ *"(name|sim)":' "$out" | sed 's/^ *//' | paste -d' ' - - > "$OUT_DIR/plan${pi}.sims"
    if ! diff <(awk -v want="# plan $plan" '$0 == want { on = 1; next } /^# plan / { on = 0 } on' "$GOLDEN") \
        "$OUT_DIR/plan${pi}.sims"; then
        echo "chaos_soak: FAIL — plan \"$plan\": fingerprints moved off $GOLDEN" >&2
        echo "            (< recorded, > this run: $OUT_DIR/plan${pi}.sims)" >&2
        exit 1
    fi
    echo "-- plan \"$plan\": 23 cells as recorded"
done

echo "chaos_soak: ${#PLANS[@]}-plan grid passed (results in $OUT_DIR/)"
