#!/usr/bin/env bash
# Diff a fresh bench run against the committed baseline.
#
# Runs the `bench` driver into a temp file and compares it with
# BENCH_archgraph.json at the repo root: the cell *names* must be the same
# set, and every `sim` fingerprint (cycles, issued, util_ppm,
# instructions, accesses) must be bit-identical — drift means the
# simulators changed behaviour. That is the whole check, on every host.
# `host_seconds` stays in the file as the record of one run and is not
# compared: host time is measured by `benchmarks/run.sh` (archperf), in
# interleaved pairs, not against a band around a single snapshot.
#
# Environment:
#   GITHUB_STEP_SUMMARY  When set (GitHub Actions), a per-cell markdown
#                     table is appended to the job summary.
#
# Usage:  scripts/bench_check.sh [fresh.json]
#   With an argument, compares that file instead of running the driver —
#   useful for inspecting a run you already have.
#
# Exit codes:
#   0  fingerprints identical
#   1  fingerprint drift
#   2  STALE BASELINE — the committed baseline's cell *names* no longer
#      match what the bench binary emits (cells were added, removed, or
#      renamed without refreshing BENCH_archgraph.json). Distinct from 1
#      so CI and developers can tell "the simulators changed behaviour"
#      apart from "someone forgot to re-record the baseline".
#
# Refresh the baseline (after an intentional behaviour change):
#   cargo run --release --offline -p archgraph-bench --bin bench
#   git add BENCH_archgraph.json

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

BASELINE=BENCH_archgraph.json

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_check: missing baseline $BASELINE (run the bench driver and commit it)" >&2
    exit 1
fi

if [[ $# -ge 1 ]]; then
    FRESH="$1"
else
    FRESH="$(mktemp /tmp/bench_fresh.XXXXXX.json)"
    trap 'rm -f "$FRESH"' EXIT
    cargo run --release --offline -p archgraph-bench --bin bench -- --out "$FRESH"
fi

python3 - "$BASELINE" "$FRESH" <<'EOF'
import json, os, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
base = json.load(open(base_path))
fresh = json.load(open(fresh_path))

failures = []
stale = []  # baseline cell-name drift: exit 2, not 1
rows = []  # (name, fresh s, baseline s, fingerprint status)

if base.get("schema") != fresh.get("schema"):
    failures.append(f"schema mismatch: baseline {base.get('schema')} vs fresh {fresh.get('schema')}")

bcells = {c["name"]: c for c in base.get("cells", [])}
fcells = {c["name"]: c for c in fresh.get("cells", [])}

for name in sorted(set(bcells) | set(fcells)):
    if name not in fcells:
        stale.append(f"{name}: committed in the baseline but the bench binary no longer emits it")
        rows.append((name, None, bcells[name].get("host_seconds"), "stale"))
        continue
    if name not in bcells:
        stale.append(f"{name}: emitted by the bench binary but missing from the committed baseline")
        rows.append((name, fcells[name].get("host_seconds"), None, "new"))
        continue
    b, f = bcells[name], fcells[name]
    fp_ok = b["sim"] == f["sim"]
    rows.append((name, f["host_seconds"], b["host_seconds"], "ok" if fp_ok else "DRIFT"))
    if fp_ok:
        print(f"  ok {name}: sim fingerprint identical")
    else:
        failures.append(f"{name}: sim fingerprint drifted: baseline {b['sim']} vs fresh {f['sim']}")

summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a") as fh:
        fh.write("### bench_check\n\n")
        fh.write("| cell | fresh (s) | baseline (s) | fingerprint |\n")
        fh.write("|---|---:|---:|---|\n")
        for name, ft, bt, fp in rows:
            fts = f"{ft:.4f}" if ft is not None else "-"
            bts = f"{bt:.4f}" if bt is not None else "-"
            fh.write(f"| {name} | {fts} | {bts} | {fp} |\n")
        fh.write("\n")

for msg in failures:
    print(f"  FAIL {msg}", file=sys.stderr)
for msg in stale:
    print(f"  STALE {msg}", file=sys.stderr)
if stale:
    print("bench_check: stale baseline — refresh BENCH_archgraph.json and commit it", file=sys.stderr)
    sys.exit(2)
if failures:
    sys.exit(1)
print("bench_check: all fingerprints identical")
EOF
