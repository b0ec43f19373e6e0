#!/usr/bin/env bash
# Line counts, so that a CHANGES.md entry quotes a command and not a
# hand-typed `find | wc -l`. One row per crate (crates/*, shims/*, the
# root package's src, tests, benches and examples, benchmarks) and one for
# scripts/, counting *.rs, *.sh and *.py:
#   non-test  source files up to the first `#[cfg(test)]` line that is
#             followed by a `mod` item (`tests/census.rs` splits there too;
#             an item-level `#[cfg(test)]` does not end the non-test part)
#   test      the rest of those files, plus everything under tests/ and
#             benches/
# Comments and blank lines count: it is `wc -l`, split in two.
#
# Usage:  scripts/loc.sh [REV] [PATH...]
#   REV     also count that revision (`git archive` into a temp dir) and
#           print the difference, working tree minus REV
#   PATH    extra rows: a file or directory, e.g.
#           crates/archgraphd/src/queue.rs

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

REV=""
if [[ $# -gt 0 ]] && git rev-parse --verify --quiet "$1^{commit}" > /dev/null; then
    REV="$1"
    shift
fi
EXTRA=("$@")

# "PATH non-test test" for every row that exists under ROOT.
table() { # ROOT
    local root="$1" row
    (
        cd "$root"
        for row in crates/*/ shims/*/ src tests benches examples benchmarks scripts "${EXTRA[@]}"; do
            row="${row%/}"
            [[ -e "$row" ]] || continue
            find "$row" -type f \( -name '*.rs' -o -name '*.sh' -o -name '*.py' \) \
                -not -path '*/target/*' -exec awk '
                    # A `#[cfg(test)]` line is held until the next line says
                    # whether it heads a `mod` (the rest is test code) or an item.
                    FNR == 1 { n += held; held = 0; test = FILENAME ~ /(^|\/)(tests|benches)\// }
                    held {
                        held = 0
                        if ($0 ~ /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]/) { test = 1; t++ } else n++
                    }
                    !test && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
                    { if (test) t++; else n++ }
                    END { print n + held, t + 0 }' {} + |
                awk -v row="$row" '{ n += $1; t += $2 } END { print row, n + 0, t + 0 }'
        done
    )
}

# Render "PATH non-test test" lines; PATH rows given as arguments are
# detail rows and stay out of the total.
render() { # TITLE
    awk -v title="$1" -v extra=" ${EXTRA[*]%/} " '
        BEGIN { printf "%-34s %9s %9s %9s\n", title, "non-test", "test", "total" }
        {
            printf "%-34s %9d %9d %9d\n", $1, $2, $3, $2 + $3
            if (index(extra, " " $1 " ") == 0) { n += $2; t += $3 }
        }
        END { printf "%-34s %9d %9d %9d\n", "total", n, t, n + t }'
}

here="$(table .)"
if [[ -z "$REV" ]]; then
    render "working tree" <<< "$here"
    exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$REV" | tar -x -C "$tmp"
there="$(table "$tmp")"
render "$REV" <<< "$there"
echo
render "working tree" <<< "$here"
echo
# Rows present on one side only count as 0 on the other.
awk 'NR == FNR { n[$1] = $2; t[$1] = $3; seen[$1] = 1; next }
     { print $1, $2 - n[$1], $3 - t[$1]; delete seen[$1] }
     END { for (row in seen) print row, -n[row], -t[row] }' \
    <(echo "$there") <(echo "$here") | render "working tree - $REV"
