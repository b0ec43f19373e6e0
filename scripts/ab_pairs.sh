#!/usr/bin/env bash
# Interleaved A/B pairs of one archperf workload: a git revision (side A)
# against this working tree (side B), judged by the ten-pair rule.
#
#   scripts/ab_pairs.sh REV WORKLOAD [PAIRS] [-- RUN_ARGS...]
#
#   scripts/ab_pairs.sh HEAD~1 smp-cache                 # ten pairs, seed 2005, 12 s
#   scripts/ab_pairs.sh HEAD~1 smp-cache 3 -- --seed 7   # three at another seed
#   scripts/ab_pairs.sh HEAD~1 smp-cache 1 -- --trace    # one traced run a side
#   scripts/ab_pairs.sh HEAD~1 all 2                      # all six workloads, twice
#
# REV is unpacked (`git archive`) into ab-pairs/<rev>/ and built there, so
# each side has its own sources, its own benchmarks/ and its own target
# directory; nothing is shared but the host. Every pair runs
# `benchmarks/run.sh --workload WORKLOAD --out FILE RUN_ARGS...` once on each
# side (`all`: run.sh without --workload), and which side goes first
# alternates from pair to pair. Records are appended to
# ab-pairs/<rev>-vs-<tree>.<workload>[.<run-args>].a.json (side A) and .b.json
# (side B), and what each run printed, per-cell medians included, to the .log
# beside each. <tree> names the working tree: HEAD's short hash and a hash of
# `git diff HEAD` plus the untracked files. So invoking the script again on
# the same tree with the same arguments adds pairs to the earlier ones, and a
# changed tree starts files of its own. It refuses to start (exit 2) when the
# two files already hold different record counts, which an interrupted pair
# leaves behind; delete both to start over. When the pairs are done the
# script prints, per workload and end-to-end metric, every pair and the
# rule's verdict (B wins at least nine tenths of the pairs, ties counting
# for neither, and the medians differ by more than A's interquartile
# distance), then hands both files to benchmarks/compare.sh for the
# regression table and the exact counts of traced runs. The exit code is
# compare.sh's: non-zero unless every row is `unchanged` and every count
# identical — or when a run on either side fails its own verification.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

if [ $# -lt 2 ]; then
    sed -n '2,9p' "$0" >&2
    exit 2
fi
rev="$1"
workload="$2"
shift 2
pairs=10
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
    pairs="$1"
    shift
fi
if [ $# -gt 0 ]; then
    [ "$1" = "--" ] || { echo "ab_pairs: expected -- before run.sh arguments, got $1" >&2; exit 2; }
    shift
fi
run_args=("$@")
case "$pairs" in
    '' | *[!0-9]* | 0) echo "ab_pairs: PAIRS must be a positive integer, got $pairs" >&2; exit 2 ;;
esac

short="$(git rev-parse --short "$rev^{commit}")"
work="ab-pairs"
tree="$work/$short"
# "--seed 7 --trace" -> ".seed-7-trace"
tag="$(printf '%s' "${run_args[*]}" | tr -s ' -' '-' | sed 's/^-//')"
# The working tree's identity: what it would build, not when it was built.
changes="$({ git diff HEAD; git ls-files -z --others --exclude-standard | xargs -0 -r sha1sum; } |
    sha1sum | cut -c1-8)"
stem="$PWD/$work/$short-vs-$(git rev-parse --short HEAD)-$changes.$workload${tag:+.$tag}"
a_out="$stem.a.json"
b_out="$stem.b.json"
select=(--workload "$workload")
[ "$workload" = all ] && select=()
mkdir -p "$work"
records() { # records FILE: its line count, 0 when it does not exist
    if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi
}
if [ "$(records "$a_out")" -ne "$(records "$b_out")" ]; then
    echo "ab_pairs: $a_out holds $(records "$a_out") records and $b_out $(records "$b_out");" \
        "an interrupted pair left them unequal, so they cannot be paired. Delete both to start over." >&2
    exit 2
fi
if [ ! -d "$tree" ]; then
    mkdir "$tree.partial"
    git archive "$short" | tar -x -C "$tree.partial"
    mv "$tree.partial" "$tree"
fi

echo "== ab_pairs: A = $short ($tree), B = working tree, $workload, $pairs pairs, run.sh ${run_args[*]:-(defaults)}"
# CARGO_TARGET_DIR would send both sides to one target directory.
unset CARGO_TARGET_DIR
# Build both sides before the first pair, so no pair pays for a compile.
for side in "$tree" .; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmarks/Cargo.toml"
done

run_side() { # run_side TREE OUT: the record goes to OUT, what run.sh prints to OUT's .log
    "$1/benchmarks/run.sh" "${select[@]}" --out "$2" "${run_args[@]}" >> "${2%.json}.log"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        echo "-- pair $i of $pairs: A then B"
        run_side "$tree" "$a_out"
        run_side . "$b_out"
    else
        echo "-- pair $i of $pairs: B then A"
        run_side . "$b_out"
        run_side "$tree" "$a_out"
    fi
done

python3 - BENCHMARK.json "$a_out" "$b_out" <<'EOF'
import json, statistics, sys

manifest, a_path, b_path = sys.argv[1:4]
load = lambda p: [r for r in map(json.loads, open(p)) if not r["trace"]]
a_all, b_all = load(a_path), load(b_path)
end_to_end = json.load(open(manifest))["end_to_end"]
for w in sorted({r["workload"] for r in a_all}):
    a = [r for r in a_all if r["workload"] == w]
    b = [r for r in b_all if r["workload"] == w]
    n = min(len(a), len(b))
    print(f"\n== {w}: {n} untraced records a side, paired in the order they ran")
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        av = [r["metrics"][name]["value"] for r in a[:n]]
        bv = [r["metrics"][name]["value"] for r in b[:n]]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(av, bv))
        losses = sum((y < x) if higher else (y > x) for x, y in zip(av, bv))
        am, bm = statistics.median(av), statistics.median(bv)
        q = statistics.quantiles(av, n=4) if n >= 2 else [am, am, am]
        better = (bm > am) if higher else (bm < am)
        gain = wins >= 0.9 * n and better and abs(bm - am) > q[2] - q[0]
        print(f"{name} [{m['unit']}, {m['better']} is better]")
        print("  A: " + " ".join(f"{x:.4g}" for x in av))
        print("  B: " + " ".join(f"{x:.4g}" for x in bv))
        print(f"  median A {am:.4g} (quartiles {q[0]:.4g}..{q[2]:.4g}), B {bm:.4g}, "
              f"B vs A {100 * (bm - am) / am:+.1f} %; B wins {wins}, loses {losses} of {n}: "
              + ("GAIN by the ten-pair rule" if gain and n >= 10 else
                 "passes both of the rule's tests, on fewer than ten pairs" if gain else
                 "no gain shown"))
EOF

echo
echo "== benchmarks/compare.sh $a_out $b_out"
benchmarks/compare.sh "$a_out" "$b_out"
