#!/usr/bin/env bash
# The gate: format, lint (every target: libs, bins and tests), rustdoc,
# release build, tier-1 tests, then the frozen benchmark package. Every
# pinned result (the bench suite's fingerprints, clean and under the chaos
# fault plans, the daemon serving them byte for byte, the loop and figure
# goldens) is a `cargo test` test, so this script adds no check of its own
# beyond fmt, clippy, the compiler-driven census, rustdoc and archperf.
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

echo "== census_rustc.sh: every public item says what reaches it =="
# rustc's dead_code lint over a copy with every unmarked `pub fn` /
# `pub const` made crate-private: an item only tests or the frozen
# benchmarks/ reach fails unless it says `Reached by:`. A second pass
# makes those roots crate-private too, compiles the tests and the frozen
# benchmarks/ against them, and fails on a root nothing reaches (≈ 28 s
# cold, ≈ 21 s warm on two vCPUs).
scripts/census_rustc.sh

echo "== cargo doc (deny warnings) =="
# A doc link to a renamed or deleted item, or a public doc linking a
# private one, fails here rather than rotting quietly.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== reproduce_all.sh smoke: every evaluation binary runs =="
# Nothing else runs this script, so a binary it names could be deleted or
# renamed unnoticed. At smoke scale its six binaries take about a second.
scripts/reproduce_all.sh smoke

echo "== archperf: the frozen benchmark still builds against the crates =="
# benchmarks/ is a workspace of its own, so nothing above compiles it: a
# crate change that breaks the API it is written against shows only here.
cargo build --release --offline --manifest-path benchmarks/Cargo.toml
(cd benchmarks && cargo test --offline -q)
# daemon-serve is the only in-process user of server::bind + serve stopped
# through the external `stop` flag; a short verified run (non-zero exit on
# any failed or wrong reply) keeps that path under the gate. Its two seconds
# also run the warm reply path and the client's Json::parse on every reply
# line, each checked against the cold sweep's fingerprints: every warm cell
# is a cache hit answered at admission (Scheduler::submit looks it up before
# the lock; no worker wakes), and the warm reply, `accepted` through `done`,
# goes out as one write.
benchmarks/run.sh --workload daemon-serve --seconds 2
# smp-cache is the only place the SMP kernels run at the sizes the paper's
# claims are about (lists of 2^20, past the E4500's TLB reach and its L2),
# each pass verified against its oracle and the first against
# expected.json; a short run keeps smp-sim's fast paths under the gate.
benchmarks/run.sh --workload smp-cache --seconds 2
# sync-faults-mta is the only at-scale run of readfe/writeef full/empty
# tags (the sync cell's retries) and of all four structural fault plans
# (stall, links, brownout, and the three combined) on the MTA. The tags
# live in mta-sim's memory bitset, which only small tests cover; every
# pass is checked against the host fold and the first also against
# expected.json, so a wrong tag or a fault path that changes a result
# exits non-zero.
benchmarks/run.sh --workload sync-faults-mta --seconds 2
# native-kernels is the only place native Helman–JáJá ranks lists of 2^21
# (Random and Ordered, one thread, so it runs the sublist decomposition),
# and the only place MSF (G(2^18, 5·2^18), light and heavy phases both
# carrying arcs) and biconnectivity (2^16 vertices) run at scale against
# Kruskal and Hopcroft–Tarjan. It is also the only at-scale run of native
# BFS's direction switch (G(2^18, 5·2^18): top-down, bottom-up on the wide
# middle levels, top-down again), of native colouring's chunked, stamped
# speculation, of native SV's settled-arc filter (G(2^18, 5·2^18): a live
# list of 1 310 720 → 1 024 148 → 25 → 0 arcs) and of biconnectivity's CSR
# rooting. Every pass is checked against its oracle (BFS levels against
# the queue oracle, colourings for properness and Δ + 1, SV against
# union-find) and a wrong result exits non-zero.
benchmarks/run.sh --workload native-kernels --seconds 2

echo "ci: all gates passed"
