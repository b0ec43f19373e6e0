#!/usr/bin/env bash
# The gate: format, lint (every target: libs, bins, tests and examples),
# release build, tier-1 tests, then the frozen benchmark package. Every
# pinned result (the bench suite's fingerprints, clean and under the chaos
# fault plans, the daemon serving them byte for byte, the loop and figure
# goldens) is a `cargo test` test, so this script adds no check of its own
# beyond fmt, clippy and archperf.
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

echo "== cargo clippy, all targets (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test =="
cargo test -q --offline --workspace

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
