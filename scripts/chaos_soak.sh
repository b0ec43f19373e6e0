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
# --full additionally (a) widens the grid and (b) runs a kill/resume
# soak: an archgraphd with an ambient fault plan is
# SIGTERMed mid-sweep, restarted on the same cache, and the resumed
# job's fingerprints must be byte-identical to an uninterrupted
# reference run under the same plan. One fresh cache dir per plan:
# ambient faults are not part of the cell spec, so results computed
# under different ambient plans must never share a cache.
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
DAEMON=target/release/archgraphd
CLIENT=target/release/archgraph-client
if [[ ! -x "$BENCH" || ! -x "$DAEMON" || ! -x "$CLIENT" ]]; then
    cargo build --release --offline -p archgraph-bench -p archgraphd
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

if [[ "$FULL" != 1 ]]; then
    echo "chaos_soak: small grid passed (results in $OUT_DIR/)"
    exit 0
fi

echo "== kill/resume soak under an ambient fault plan =="
SOAK_PLAN="stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:11"
CELLS=(
    color/mta/p8
    bfs/mta/p8
    fig2/mta/p8
    table1/mta/cc/p8
    euler/mta/p8
    sync/mta/p8
    fig1/mta/random/p8
)

WORK="$(mktemp -d /tmp/archgraph-chaos.XXXXXX)"
DPID=""
cleanup() {
    if [[ -n "$DPID" ]] && kill -0 "$DPID" 2>/dev/null; then
        kill "$DPID" 2>/dev/null || true
        wait "$DPID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

source scripts/daemon_lib.sh

start_daemon() { # $1 = socket, $2 = cache dir — ambient plan exported
    ARCHGRAPH_FAULTS="$SOAK_PLAN" \
        launch_daemon "$1" --jobs 1 --max-queue 128 --cache-dir "$2" && return 0
    echo "chaos_soak: FAIL — daemon did not come up on $1" >&2
    exit 1
}

echo "-- reference leg: uninterrupted sweep under \"$SOAK_PLAN\""
SOCK_A="$WORK/a.sock"
start_daemon "$SOCK_A" "$WORK/cache-a"
"$CLIENT" --socket "$SOCK_A" submit "${CELLS[@]}" > "$OUT_DIR/soak-reference.jsonl"
"$CLIENT" --socket "$SOCK_A" shutdown > /dev/null
wait "$DPID"
DPID=""

echo "-- interrupt leg: SIGTERM mid-sweep"
SOCK_B="$WORK/b.sock"
start_daemon "$SOCK_B" "$WORK/cache-b"
"$CLIENT" --socket "$SOCK_B" --retries 3 submit "${CELLS[@]}" \
    > "$OUT_DIR/soak-interrupted.jsonl" &
CPID=$!
# Kill as soon as the first cell streams: release-build cells finish in
# fractions of a second, so waiting for more risks the sweep completing
# before the SIGTERM lands.
for _ in $(seq 1 2400); do
    done_cells=$(grep -c '"type":"cell"' "$OUT_DIR/soak-interrupted.jsonl" 2>/dev/null || true)
    [[ "${done_cells:-0}" -ge 1 ]] && break
    sleep 0.05
done
kill -TERM "$DPID"
if ! wait "$DPID"; then
    echo "chaos_soak: FAIL — SIGTERM drain exited nonzero under faults" >&2
    exit 1
fi
DPID=""
wait "$CPID" || true # truncated client stream is the point

echo "-- resume leg: restart on the same cache, same ambient plan"
start_daemon "$SOCK_B" "$WORK/cache-b"
"$CLIENT" --socket "$SOCK_B" --retries 3 submit "${CELLS[@]}" \
    > "$OUT_DIR/soak-resumed.jsonl"
"$CLIENT" --socket "$SOCK_B" shutdown > /dev/null
wait "$DPID"
DPID=""

python3 - "$OUT_DIR" <<'EOF'
import json, os, sys

out_dir = sys.argv[1]

def cells_of(path):
    cells, done = {}, None
    for line in open(path):
        ev = json.loads(line)
        if ev.get("type") == "cell" and "sim" in ev:
            cells[ev["name"]] = ev
        elif ev.get("type") == "done":
            done = ev
    return cells, done

ref, ref_done = cells_of(os.path.join(out_dir, "soak-reference.jsonl"))
pre_kill, _ = cells_of(os.path.join(out_dir, "soak-interrupted.jsonl"))
res, res_done = cells_of(os.path.join(out_dir, "soak-resumed.jsonl"))

fails = []
if ref_done is None or ref_done["failed"] or ref_done["cancelled"]:
    fails.append(f"reference leg did not complete cleanly: {ref_done}")
if res_done is None or res_done["failed"] or res_done["cancelled"]:
    fails.append(f"resumed leg did not complete cleanly: {res_done}")
if set(ref) != set(res):
    fails.append(f"cell sets differ: {sorted(set(ref) ^ set(res))}")
for name, ev in sorted(res.items()):
    if name in ref and ev["sim"] != ref[name]["sim"]:
        fails.append(f"{name}: resumed fingerprint != reference under faults")
for name, ev in sorted(pre_kill.items()):
    if name not in res:
        continue
    if not res[name]["cached"]:
        fails.append(f"{name}: completed pre-kill but re-ran on resume")
    if res[name]["sim"] != ev["sim"]:
        fails.append(f"{name}: pre-kill fingerprint changed on resume")
if not pre_kill:
    fails.append("no cells completed before the kill — the kill landed too early")

for f in fails:
    print(f"  FAIL {f}", file=sys.stderr)
if fails:
    sys.exit(1)
print(
    f"chaos_soak: {len(res)} cells resumed byte-identically under the ambient "
    f"plan ({len(pre_kill)} pre-kill cells cache-served)"
)
EOF

echo "chaos_soak: full grid + kill/resume soak passed (results in $OUT_DIR/)"
