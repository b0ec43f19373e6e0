#!/usr/bin/env bash
# The census's item rule, asked of the compiler: every `pub fn`,
# `pub const fn` and `pub const` in a `crates/*` library's source (not
# `main.rs`, not `bin/`) is reached by non-test code of the workspace, or
# its `///` doc block has a `Reached by:` line naming the test, claim or
# frozen probe that needs it. The pass follows paths, not names, so an
# orphan that shares its name with a used item fails too.
#
# It works on a copy under target/census-rustc/ and never edits the
# working tree:
#   1. copy the files git tracks or would track (benchmarks/ aside), from
#      the working tree or from REV;
#   2. rewrite each such item to `pub(crate)`, unless its `///` / attribute
#      block says `Reached by:` or `#[cfg(test)]`: those stay `pub` and are
#      roots, so what they call is live. A crate's own `pub use` of such an
#      item becomes a `pub(crate) use` of its own, so a re-export nothing
#      outside the crate needs does not make its item live;
#   3. `cargo check --workspace --lib --bins --keep-going`, and put back to
#      `pub` every item a privacy error points at; an error that points at
#      a re-export puts back the re-export and the item it names. Repeat
#      until no error is left;
#   4. the error-free check's `dead_code` warnings are items nothing
#      outside tests reaches: each is printed with its file and line, and
#      the script exits 1.
# Tests, benches and the frozen benchmarks/ are not compiled, so an item
# only they reach fails unless it says `Reached by:`. The module rule
# (`//! Reached by:` on every `pub mod`) stays in tests/census.rs.
#
# The copy is rewritten on every run, so each file carries the time it was
# written and cargo rebuilds what changed; the target directory is kept
# for the dependencies' builds.
#
# Usage:  scripts/census_rustc.sh [REV]
#   REV   check that revision (`git archive`) instead of the working tree
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

rev="${1:-}"
if [ -n "$rev" ]; then
    git rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
        { echo "census_rustc: not a revision: $rev" >&2; exit 2; }
fi
export CARGO_TARGET_DIR="$PWD/target/census-rustc/target"
# Flags from the caller would change what the lint pass reports.
unset RUSTFLAGS

python3 - "$PWD/target/census-rustc/tree" "$rev" <<'EOF'
import io, json, re, shutil, subprocess, sys, tarfile, time
from pathlib import Path

tree, rev = Path(sys.argv[1]), sys.argv[2]
started = time.monotonic()

# 1. The source, as {path: bytes}, written afresh into `tree`.
if rev:
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        files = {m.name: tar.extractfile(m).read() for m in tar if m.isfile()}
else:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            check=True, capture_output=True).stdout.decode().split("\0")
    files = {p: Path(p).read_bytes() for p in listed if p and Path(p).is_file()}
files = {p: b for p, b in files.items() if not p.startswith("benchmarks/")}
shutil.rmtree(tree, ignore_errors=True)
for path, data in files.items():
    (tree / path).parent.mkdir(parents=True, exist_ok=True)
    (tree / path).write_bytes(data)

# 2. Every unmarked `pub` item of a library goes `pub(crate)`.
LIB = re.compile(r"crates/([^/]+)/src/(?!main\.rs$|bin/).*\.rs$")
ITEM = re.compile(r"^(\s*)pub (?=(?:const |unsafe )?fn |const )")
NAME = re.compile(r"^\s*pub(?:\(crate\))? (?:const )?(?:unsafe )?(?:fn )?(\w+)")
text = {}   # library path -> its lines, as rewritten
items = {}  # (path, 1-based line) -> name, for every rewritten item
for path in sorted(files):
    if not LIB.fullmatch(path):
        continue
    lines = files[path].decode().split("\n")
    for i, line in enumerate(lines):
        if not ITEM.match(line):
            continue
        block = []
        for above in reversed(lines[:i]):
            above = above.strip()
            if not above.startswith(("///", "#[")):
                break
            block.append(above)
        if any("Reached by:" in l or l == "#[cfg(test)]" for l in block):
            continue
        lines[i] = ITEM.sub(r"\1pub(crate) ", line, count=1)
        items[(path, i + 1)] = NAME.match(line)[1]
    text[path] = lines

def module_file(path, segments):
    """The library file of the module `segments` names from `path`'s module."""
    here = Path(path).parent if Path(path).name in ("lib.rs", "mod.rs") else Path(path).with_suffix("")
    here = here.joinpath(*segments)
    return next((f.as_posix() for f in (here.with_suffix(".rs"), here / "mod.rs")
                 if f.as_posix() in text), None)

def top_level(file, name):
    """The rewritten module-level item `name` of `file`, if there is one."""
    return next((k for k, n in items.items()
                 if k[0] == file and n == name and text[file][k[1] - 1].startswith("pub(crate) ")), None)

# A one-line `pub use a::b::{x, y as z, T};` of a child module: each name
# that is a rewritten item moves into a `pub(crate) use` of its own on the
# same line, so line numbers stay put and rustc's spans find it. A
# re-export of any other shape stays `pub`; if it names a rewritten item,
# its E0364 points at nothing the pass can put back, and the script fails.
USE = re.compile(r"pub use ((?:\w+::)+)(?:\{([\w\s,]*)\}|(\w+(?: as \w+)?));\s*")
imports = {}  # (path, line, column of `pub(crate)`) -> the item it names
for path, lines in text.items():
    for i, line in enumerate(lines):
        use = USE.fullmatch(line)
        if not use:
            continue
        prefix = use[1]
        file = module_file(path, prefix.split("::")[:-1])
        names = [n.strip() for n in (use[2] or use[3]).split(",") if n.strip()]
        split = {n: top_level(file, n.split(" as ")[0]) for n in names} if file else {}
        split = {n: k for n, k in split.items() if k}
        if not split:
            continue
        keep = [n for n in names if n not in split]
        line = f"pub use {prefix}{{{', '.join(keep)}}};" if keep else ""
        for n, target in split.items():
            line += " " if line else ""
            imports[(path, i + 1, len(line) + 1)] = target
            line += f"pub(crate) use {prefix}{n};"
        lines[i] = line

for path in {p for p, _ in items} | {p for p, _, _ in imports}:
    (tree / path).write_text("\n".join(text[path]), encoding="utf-8")

def restore(key):
    """Put the item or import at `key` back to `pub`; return the files changed."""
    if key in imports:
        path, line, col = key
        row = text[path][line - 1]  # `pub` padded to keep the columns of what follows
        text[path][line - 1] = row[:col - 1] + "pub       " + row[col + 9:]
        target = imports.pop(key)
        return {path} | (restore(target) if target in items else set())
    path, line = key
    text[path][line - 1] = text[path][line - 1].replace("pub(crate) ", "pub ", 1)
    del items[key]
    return {path}

def spans(msg):
    """The spans of `msg` that can name a definition: all but the use site."""
    yield from (s for s in msg["spans"] if not s["is_primary"])
    for child in msg["children"]:
        yield from child["spans"]

def rel(name):
    p = Path(name)
    return p.relative_to(tree).as_posix() if p.is_absolute() else name

def pointed_at(span):
    """The rewritten item or import a span falls on, if any."""
    path = rel(span["file_name"])
    for line in range(span["line_start"], span["line_end"] + 1):
        if (path, line) in items:
            return (path, line)
    on_line = [k for k in imports if k[:2] == (path, span["line_start"])
               and k[2] <= span["column_start"]]
    return max(on_line, default=None)

# 3. Check, and put back what another crate or a bin needs, until clean.
PRIVACY = {"E0603", "E0624", "E0364", "E0365"}
made, rounds = len(items), 0
while True:
    rounds += 1
    run = subprocess.run(["cargo", "check", "--workspace", "--lib", "--bins", "--keep-going",
                          "--offline", "--quiet", "--message-format=json"],
                         cwd=tree, capture_output=True, encoding="utf-8")
    msgs = [json.loads(l) for l in run.stdout.splitlines() if l.startswith("{")]
    msgs = [m["message"] for m in msgs if m.get("reason") == "compiler-message"]
    errors = [m for m in msgs if m["level"] == "error"]
    if not errors:
        if run.returncode != 0:
            sys.exit(f"census_rustc: cargo check failed:\n{run.stderr}")
        break
    touched = set()
    for e in errors:
        if (e.get("code") or {}).get("code") not in PRIVACY:
            continue
        for key in {pointed_at(s) for s in spans(e)} - {None}:
            if key in items or key in imports:
                touched |= restore(key)
    if not touched:
        sys.exit("census_rustc: cargo check fails for a reason the pass cannot mend:\n"
                 + "".join(e["rendered"] for e in errors))
    for path in touched:
        (tree / path).write_text("\n".join(text[path]), encoding="utf-8")

# 4. What is still unreached fails.
dead = {}
for m in msgs:
    if (m.get("code") or {}).get("code") != "dead_code":
        continue
    for s in m["spans"]:
        if s["is_primary"]:
            t = s["text"][0]
            name = t["text"][t["highlight_start"] - 1:t["highlight_end"] - 1]
            dead[(rel(s["file_name"]), s["line_start"])] = (name, m["message"])
print(f"census_rustc: {made} items made pub(crate), {made - len(items)} put back "
      f"in {rounds} rounds of cargo check, {len(dead)} unreached "
      f"({time.monotonic() - started:.1f} s)")
for (path, line), (name, why) in sorted(dead.items()):
    print(f"{path}:{line}: `{name}`: nothing outside tests reaches it and no `/// Reached by:` "
          f"line says what does (rustc: {why})")
sys.exit(1 if dead else 0)
EOF
