#!/usr/bin/env bash
# Chaos soak: sweep structural fault grids across the two MTA engines,
# asserting the determinism contract under duress — the same fault plan
# must produce byte-identical simulator fingerprints whichever engine is
# the session default.
#
# Each grid plan is exported as the ambient ARCHGRAPH_FAULTS, then the
# full bench suite runs under each ARCHGRAPH_MTA_ENGINE pin and the "sim"
# lines are diffed against the trace-engine reference. (The suite's MTA
# cells carry their own Trace pin, which outranks the variable, so on
# those cells the diff checks run-to-run determinism under the plan; the
# SingleStep-vs-Trace half of the contract under these plans is held by
# the guardrails suite and bench::cells' degradation test.) Plans mix the structural
# axis (stall=, link-latency=, brownout=) with the address-keyed one
# (mem-latency=, wake-delay=); stuck-full/stuck-empty are deliberately
# absent — wedged tags can deadlock sync kernels, which is a different
# contract (exercised by the guardrails suite), not an invariance sweep.
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
ENGINES=(trace single-step)
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

echo "== chaos soak: ${#PLANS[@]} fault plans x ${#ENGINES[@]} engine pins =="
pi=0
for plan in "${PLANS[@]}"; do
    pi=$((pi + 1))
    ref=""
    for engine in "${ENGINES[@]}"; do
        out="$OUT_DIR/plan${pi}-${engine}.json"
        ARCHGRAPH_FAULTS="$plan" \
        ARCHGRAPH_MTA_ENGINE="$engine" \
            "$BENCH" --out "$out" --reps 1
        if [[ -z "$ref" ]]; then
            ref="$out"
            continue
        fi
        if ! diff <(grep '"sim"' "$ref") <(grep '"sim"' "$out") > /dev/null; then
            echo "chaos_soak: FAIL — plan \"$plan\": $engine fingerprints" >&2
            echo "            diverge from ${ref##*/}" >&2
            diff <(grep '"sim"' "$ref") <(grep '"sim"' "$out") | head -20 >&2
            exit 1
        fi
    done
    echo "-- plan \"$plan\": all pins byte-identical"
done

echo "chaos_soak: ${#PLANS[@]}-plan grid passed (results in $OUT_DIR/)"
