#!/usr/bin/env bash
# archperf front end: build release, run each workload in its own process,
# verify its outputs, print every metric by name with its unit.
#
#   benchmarks/run.sh [--workload NAME] [--seed N] [--seconds S]
#                     [--trace [0|1]] [--out FILE]
#
# Without --workload it runs all six. The last line of each workload's
# output is the result object the driver reads; --out FILE also appends it,
# tagged with workload, seed and trace, for compare.sh. The exit code is
# non-zero when the build fails or any output fails verification.
set -euo pipefail

here="$(dirname "$0")"

# One malloc arena: with glibc's default, which of the daemon's short-lived
# threads get an arena of their own is a race, and peak_rss_mb of the 9 MB
# daemon-serve process moved by 20 % with it. One thread computes at a time,
# so the arena is never contended.
export MALLOC_ARENA_MAX=1

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/archperf"

workload=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "# commit=$commit $(rustc --version) nproc=$(nproc)"

if [ -n "$workload" ]; then
    exec "$bin" run --dir "$here" --workload "$workload" "${args[@]}"
fi
# Each traced process writes results/trace.jsonl afresh; keep them all.
status=0
all="$here/results/trace.all.jsonl"
rm -f "$all"
for w in $("$bin" list); do
    rm -f "$here/results/trace.jsonl"
    "$bin" run --dir "$here" --workload "$w" "${args[@]}" || status=1
    if [ -f "$here/results/trace.jsonl" ]; then
        cat "$here/results/trace.jsonl" >> "$all"
    fi
done
if [ -f "$all" ]; then
    mv "$all" "$here/results/trace.jsonl"
fi
exit $status
