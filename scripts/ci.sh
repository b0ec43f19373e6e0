#!/usr/bin/env bash
# Tier-1 gate: format, lint, build, test, then bench regression check.
# Everything runs --offline — the workspace vendors its external deps as
# local shims (see shims/) and must never reach for the network.
#
# Usage:  scripts/ci.sh
#
# This is the same entry point .github/workflows/ci.yml runs.

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

echo "== toolchain =="
cargo --version
rustc --version

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== guardrails: deadlock + fault injection under an ambient plan =="
# A global fault plan perturbs the memory system under every guardrails
# test that does not install a plan of its own: schedules shift, the
# outcomes those tests assert must not.
ARCHGRAPH_FAULTS="mem-latency=30,rate=1:9" \
    cargo test -q --offline -p archgraph-mta-sim --test guardrails

echo "== sweep isolation: a panicking cell must not kill the driver =="
# Inject a deliberate panic into one fig1 cell; the binary must finish
# the rest of the grid, report the failure, and exit nonzero.
if ARCHGRAPH_BENCH_PANIC_CELL="fig1/smp/Random/p1/n4096" \
    cargo run --release --offline -p archgraph-bench --bin fig1 -- smoke --arch smp \
    > /dev/null 2>&1; then
    echo "ci: FAIL — fig1 exited zero despite an injected cell panic" >&2
    exit 1
fi
echo "-- injected panic isolated and reported (nonzero exit), as required"

echo "== bench reference run =="
# One pass over the suite (1 rep): the daemon smoke leg diffs what it serves
# against this file, the regression check diffs it against the baseline.
ref="$(mktemp)"
trap 'rm -f "$ref"' EXIT
cargo run --release --offline -p archgraph-bench --bin bench -- --out "$ref" --reps 1

echo "== archgraphd daemon smoke =="
# Serve the FULL bench suite through the daemon and diff every streamed
# fingerprint byte-for-byte against the bench output from the previous
# leg. The leg also pins the serving hardening end to end: a
# 1-cell job must complete mid-sweep under --jobs 1 (round-robin
# fairness), `list` must track per-cell cache status, and shutdown must
# be clean (exit 0, socket removed). See scripts/daemon_smoke.sh; the
# bounded cache is pinned by the e2e suite (tests/daemon.rs).
scripts/daemon_smoke.sh "$ref"

echo "== chaos soak: structural-fault invariance (small grid) =="
# Sweep the small structural-fault grid (stalls, degraded links, and a
# combined plan), diffing the suite's fingerprints under each ambient plan
# against tests/golden/chaos_soak.txt. The nightly workflow runs the same
# script with --full: a wider grid.
chaos_dir="$(mktemp -d)"
trap 'rm -f "$ref"; rm -rf "$chaos_dir"' EXIT
scripts/chaos_soak.sh "$chaos_dir"

echo "== bench regression check =="
scripts/bench_check.sh "$ref"

echo "== archperf: the frozen benchmark still builds against the crates =="
# benchmarks/ is a workspace of its own, so nothing above compiles it: a
# crate change that breaks the API it is written against shows only here.
cargo build --release --offline --manifest-path benchmarks/Cargo.toml
(cd benchmarks && cargo test --offline -q)
# daemon-serve is the only in-process user of server::bind + serve stopped
# through the external `stop` flag; a short verified run (non-zero exit on
# any failed or wrong reply) keeps that path under the gate.
benchmarks/run.sh --workload daemon-serve --seconds 2
# smp-cache is the only place the SMP kernels run at the sizes the paper's
# claims are about (lists of 2^20, past the E4500's TLB reach and its L2),
# each pass verified against its oracle and the first against
# expected.json; a short run keeps smp-sim's fast paths under the gate.
benchmarks/run.sh --workload smp-cache --seconds 2
# native-kernels is the only place native Helman–JáJá ranks lists of 2^21
# (Random and Ordered, one thread, so it runs the sublist decomposition);
# every pass is checked against its oracle and a wrong rank exits non-zero.
benchmarks/run.sh --workload native-kernels --seconds 2

echo "ci: all gates passed"
