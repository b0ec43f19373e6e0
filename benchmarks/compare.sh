#!/usr/bin/env bash
# Compare sets of runs written by `run.sh --out FILE`: per workload and
# end-to-end metric, each side's median and quartiles and a verdict against
# the metric's bound (regressed, unresolved, unchanged); exact counts
# compare with ==. Exits non-zero unless everything is unchanged.
#
#   benchmarks/compare.sh A.json B.json [...]
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/archperf" compare "$@"
