#!/usr/bin/env bash
# Daemon smoke leg: prove archgraphd serves the exact same experiment the
# bench driver runs, end to end over the wire, through the fair
# (round-robin) scheduler. One daemon, --jobs 1, fresh cache:
#   1. `list` cold: every bench-suite cell is reported, none cached;
#   2. submit the FULL suite as job A in the background; once A starts
#      streaming cells, submit a 1-cell job B (a raw spec, not in the
#      suite) and assert B completes while A is still mid-sweep — the
#      round-robin scheduler must not make B wait behind A's backlog;
#   3. wait for A and assert every streamed "sim" fingerprint is
#      BYTE-identical to the same cell in a --bin bench output ($1);
#   4. resubmit the suite: all cells served with "cached":true and the
#      identical fingerprints; `list` now reports every cell cached;
#   5. shut the daemon down through the client (exit 0, socket removed).
#
# The bounded cache (--cache-max-bytes: evictions in `status`, an uncached
# yet identical re-run) is pinned by crates/archgraphd/tests/daemon.rs,
# a_bounded_cache_evicts_and_rerun_is_identical.
#
# Usage:  scripts/daemon_smoke.sh BENCH_JSON
#   BENCH_JSON is any bench driver output containing the full suite
#   (ci.sh passes its bench reference run).

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

BENCH_JSON="${1:?usage: scripts/daemon_smoke.sh BENCH_JSON}"

DAEMON=target/release/archgraphd
CLIENT=target/release/archgraph-client
# Always build: a stale pair here once let the smoke pass against an
# old, smaller suite (a no-op build costs well under a second when
# nothing changed).
cargo build --release --offline -p archgraphd

WORK="$(mktemp -d /tmp/archgraphd-smoke.XXXXXX)"
DPID=""
cleanup() {
    if [[ -n "$DPID" ]] && kill -0 "$DPID" 2>/dev/null; then
        kill "$DPID" 2>/dev/null || true
        wait "$DPID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "daemon_smoke: FAIL — $1" >&2
    exit 1
}

source scripts/daemon_lib.sh

start_daemon() { # SOCKET ARGS...
    launch_daemon "$@" || fail "daemon did not come up on $1"
}

stop_daemon() { # SOCKET
    "$CLIENT" --socket "$1" shutdown > /dev/null
    wait "$DPID" || fail "daemon exited nonzero on clean shutdown"
    DPID=""
    [[ -e "$1" ]] && fail "socket file survived shutdown"
    return 0
}

# Shared checker: every "cell" event in a job stream must match the bench
# output byte-for-byte, with the expected cache disposition. The cache
# key excludes the engine pin (determinism contract), so two cells that
# differ only in their pin would share an entry — a "fresh" stream
# therefore allows cached:true only for a cell whose cache key already
# completed earlier in the same stream.
cat > "$WORK/check.py" <<'EOF'
import json, sys

bench_path, stream_path, expect, min_cells, list_path = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5],
)
bench_cells = {c["name"]: c for c in json.load(open(bench_path))["cells"]}
key_of = {c["name"]: c["key"] for c in json.load(open(list_path))["cells"]}

# Raw "sim" renderings from the bench JSON, for the byte-level check.
bench_raw = {}
current = None
for line in open(bench_path):
    s = line.strip()
    if s.startswith('"name":'):
        current = json.loads("{" + s.rstrip(",") + "}")["name"]
    elif s.startswith('"sim":') and current is not None:
        bench_raw[current] = s.split('"sim": ', 1)[1]

seen = {}
seen_keys = set()
for line in open(stream_path):
    ev = json.loads(line)
    t = ev.get("type")
    if t == "error":
        sys.exit(f"daemon_smoke: FAIL — daemon error: {ev}")
    if t == "done" and (ev["failed"] != 0 or ev["cancelled"] != 0):
        sys.exit(f"daemon_smoke: FAIL — job not fully ok: {ev}")
    if t != "cell":
        continue
    name = ev["name"]
    if "error" in ev:
        sys.exit(f"daemon_smoke: FAIL — cell {name} failed: {ev['error']}")
    if expect == "cached":
        if not ev["cached"]:
            sys.exit(f"daemon_smoke: FAIL — {name}: uncached on a warm replay")
    elif ev["cached"] and key_of.get(name) not in seen_keys:
        sys.exit(
            f"daemon_smoke: FAIL — {name}: cache-served, but its experiment "
            f"never ran in this stream"
        )
    seen_keys.add(key_of.get(name))
    if name not in bench_cells:
        sys.exit(f"daemon_smoke: FAIL — {name} not in the bench output")
    if ev["sim"] != bench_cells[name]["sim"]:
        sys.exit(
            f"daemon_smoke: FAIL — {name} fingerprint drift: "
            f"daemon {ev['sim']} vs bench {bench_cells[name]['sim']}"
        )
    # Byte identity of the rendered sim object: the daemon line ends
    # "...,\"sim\":{ ... }}" — strip the event's closing brace.
    daemon_sim = line.split('"sim":', 1)[1].strip()
    assert daemon_sim.endswith("}}"), daemon_sim
    if daemon_sim[:-1] != bench_raw[name]:
        sys.exit(
            f"daemon_smoke: FAIL — {name} sim rendering differs byte-wise: "
            f"daemon {daemon_sim[:-1]!r} vs bench {bench_raw[name]!r}"
        )
    seen[name] = ev["sim"]
if len(seen) < min_cells:
    sys.exit(
        f"daemon_smoke: FAIL — only {len(seen)} cells streamed, "
        f"expected at least {min_cells}"
    )
print(f"daemon_smoke: {len(seen)} cells byte-identical to bench ({expect})")
EOF

SOCK="$WORK/archgraphd.sock"
start_daemon "$SOCK" --jobs 1 --cache-dir "$WORK/cache"

echo "-- list (cold cache)"
"$CLIENT" --socket "$SOCK" list > "$WORK/list_cold.json"
python3 - "$WORK/list_cold.json" "$WORK/names" "$BENCH_JSON" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
# The daemon's suite must be EXACTLY the bench binary's suite: a
# name-set drift in either direction means one of the two binaries is
# stale, and the byte-identity diff below would silently shrink.
bench_names = set()
for line in open(sys.argv[3]):
    s = line.strip()
    if s.startswith('"name":'):
        bench_names.add(json.loads("{" + s.rstrip(",") + "}")["name"])
daemon_names = {c["name"] for c in cells}
missing = sorted(bench_names - daemon_names)
extra = sorted(daemon_names - bench_names)
assert not missing and not extra, (
    f"daemon suite drifted from the bench output "
    f"(missing {missing}, extra {extra}) — stale archgraphd build?"
)
assert len(cells) >= 23, f"suite lists only {len(cells)} cells"
bad = [c["name"] for c in cells if c["cached"]]
assert not bad, f"cold cache but cells report cached: {bad}"
assert all(c["key"] for c in cells), "list entries must carry cache keys"
with open(sys.argv[2], "w") as f:
    f.write("\n".join(c["name"] for c in cells) + "\n")
print(f"daemon_smoke: list reports {len(cells)} suite cells, none cached")
EOF
mapfile -t SUITE < "$WORK/names"

echo "-- submit full suite (job A, background) + 1-cell job B"
"$CLIENT" --socket "$SOCK" submit "${SUITE[@]}" > "$WORK/first.jsonl" &
APID=$!
for _ in $(seq 1 600); do
    grep -q '"type":"cell"' "$WORK/first.jsonl" 2>/dev/null && break
    kill -0 "$APID" 2>/dev/null || break
    sleep 0.1
done
grep -q '"type":"cell"' "$WORK/first.jsonl" || fail "suite job never streamed a cell"

# Job B is a raw 1-cell spec (not a suite cell, so never cache-served).
# Under round-robin it must land within a couple of cell-times even
# though job A still has a deep backlog on the single worker.
"$CLIENT" --socket "$SOCK" submit-json \
    '{"kernel":"color","machine":"mta","p":2,"n":96,"m":288}' \
    > "$WORK/b.jsonl" || fail "interleaved 1-cell job failed"
cp "$WORK/first.jsonl" "$WORK/first_at_b.jsonl"
if grep -q '"type":"done"' "$WORK/first_at_b.jsonl"; then
    fail "suite job finished before the interleaved job — scheduler is not fair"
fi
python3 - "$WORK/b.jsonl" <<'EOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]
done = [e for e in events if e.get("type") == "done"]
assert done and done[-1]["ok"] == 1 and done[-1]["failed"] == 0, events
EOF
echo "daemon_smoke: 1-cell job completed mid-sweep (fair interleaving)"

if ! wait "$APID"; then
    fail "suite job exited nonzero"
fi
python3 "$WORK/check.py" "$BENCH_JSON" "$WORK/first.jsonl" fresh "${#SUITE[@]}" "$WORK/list_cold.json"

echo "-- submit full suite (replay)"
"$CLIENT" --socket "$SOCK" submit "${SUITE[@]}" > "$WORK/second.jsonl"
python3 "$WORK/check.py" "$BENCH_JSON" "$WORK/second.jsonl" cached "${#SUITE[@]}" "$WORK/list_cold.json"

echo "-- list (warm cache)"
"$CLIENT" --socket "$SOCK" list > "$WORK/list_warm.json"
python3 - "$WORK/list_warm.json" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
bad = [c["name"] for c in cells if not c["cached"]]
assert not bad, f"suite was just run, but cells report uncached: {bad}"
print(f"daemon_smoke: list reports all {len(cells)} suite cells cached")
EOF

echo "-- shutdown"
stop_daemon "$SOCK"

echo "daemon_smoke: fair scheduling and suite identity verified"
