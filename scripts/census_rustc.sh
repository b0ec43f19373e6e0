#!/usr/bin/env bash
# The census's item rule, asked of the compiler in two passes over one
# copy of the source.
#
# Pass 1, items: every `pub fn`, `pub const fn` and `pub const` in a
# `crates/*` library's source (not `main.rs`, not `bin/`) is reached by
# non-test code of the workspace, or its `///` doc block has a `Reached
# by:` line naming the test, claim or frozen probe that needs it. An item
# with such a line is a root. The pass follows paths, not names, so an
# orphan that shares its name with a used item fails too.
#
# Pass 2, roots: a root is reached by what its line can name: a test, a
# bin, another crate or the frozen benchmarks/ package. A root that
# nothing reaches fails. So does a root that only its own crate's unit
# tests reach, unless its `Reached by:` block names the `ROADMAP item N`
# that decides it or the `clippy::` lint that keeps it.
#
# It works on a copy under target/census-rustc/ and never edits the
# working tree:
#   1. copy the files git tracks or would track, from the working tree or
#      from REV. benchmarks/ is copied too, only to be compiled;
#   2. rewrite each such item to `pub(crate)` unless its `///` / attribute
#      block says `#[cfg(test)]`, or, in pass 1, `Reached by:`. Pass 2
#      leaves `pub` what pass 1 put back. A crate's own `pub use` of a
#      rewritten item becomes a `pub(crate) use` of its own, so a
#      re-export nothing outside the crate needs does not make its item
#      live;
#   3. check, and put back to `pub` every item a privacy error points at;
#      an error that points at a re-export puts back the re-export and the
#      item it names. Repeat until no error is left. Pass 1 checks the
#      libraries and bins (`cargo check --workspace --lib --bins`); pass 2
#      also checks the workspace's test targets (`--tests`) and the frozen
#      package (`--all-targets`);
#   4. read `dead_code` in the error-free build of the libraries without
#      `cfg(test)`. Pass 1 prints every such item, pass 2 every such root
#      that fails the rule above, each with its file and line, and the
#      script exits 1. A root's callees that die with it are not printed.
# Doctests are not compiled, so an item only a doctest reaches counts as
# unreached. The module rule (`//! Reached by:` on every `pub mod`) stays
# in tests/census.rs.
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
import io, json, os, re, shutil, subprocess, sys, tarfile, time
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
shutil.rmtree(tree, ignore_errors=True)
for path, data in files.items():
    (tree / path).parent.mkdir(parents=True, exist_ok=True)
    (tree / path).write_bytes(data)

LIB = re.compile(r"crates/([^/]+)/src/(?!main\.rs$|bin/).*\.rs$")
ITEM = re.compile(r"^(\s*)pub (?=(?:const |unsafe )?fn |const )")
NAME = re.compile(r"^\s*pub(?:\(crate\))? (?:const )?(?:unsafe )?(?:fn )?(\w+)")
# A `Reached by:` block that says why only its crate's unit tests reach it.
EXCUSED = re.compile(r"ROADMAP item \d+|clippy::")
source = {p: files[p].decode().split("\n") for p in files if LIB.fullmatch(p)}
on_disk = {p: "\n".join(lines) for p, lines in source.items()}
text = {}   # library path -> its lines, as rewritten
items = {}  # (path, 1-based line) -> name, for every rewritten item
roots = {}  # (path, line) -> its `Reached by:` block, for every rewritten root

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

def write(path):
    data = "\n".join(text[path])
    if on_disk[path] != data:
        (tree / path).write_text(data, encoding="utf-8")
        on_disk[path] = data

def make_private(with_roots, kept):
    """2. Rewrite, from the source, every library item to `pub(crate)` but
    those marked `#[cfg(test)]`, those in `kept`, and unless `with_roots`
    the roots. Returns the number rewritten."""
    text.clear(), items.clear(), roots.clear(), imports.clear()
    for path, original in sorted(source.items()):
        lines = text[path] = list(original)
        for i, line in enumerate(lines):
            if not ITEM.match(line) or (path, i + 1) in kept:
                continue
            block = []
            for above in reversed(lines[:i]):
                above = above.strip()
                if not above.startswith(("///", "#[")):
                    break
                block.insert(0, above)
            if "#[cfg(test)]" in block:
                continue
            doc = " ".join(l.removeprefix("///").strip() for l in block)
            if "Reached by:" in doc:
                if not with_roots:
                    continue
                roots[(path, i + 1)] = doc[doc.index("Reached by:"):]
            lines[i] = ITEM.sub(r"\1pub(crate) ", line, count=1)
            items[(path, i + 1)] = NAME.match(line)[1]
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
    for path in text:
        write(path)
    return len(items)

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

def rel(name, base):
    """`name`, which rustc gave relative to `base`, relative to the copy."""
    return Path(os.path.relpath(base / name, tree)).as_posix()

def pointed_at(span, base):
    """The rewritten item or import a span falls on, if any."""
    path = rel(span["file_name"], base)
    for line in range(span["line_start"], span["line_end"] + 1):
        if (path, line) in items:
            return (path, line)
    on_line = [k for k in imports if k[:2] == (path, span["line_start"])
               and k[2] <= span["column_start"]]
    return max(on_line, default=None)

# 3. The checks: cargo's arguments, and the directory rustc's paths start in.
LIBS = (["--workspace", "--lib", "--bins"], tree)
TESTS = (["--workspace", "--tests"], tree)
FROZEN = (["--manifest-path", "benchmarks/Cargo.toml", "--all-targets"], tree / "benchmarks")
PRIVACY = {"E0603", "E0624", "E0364", "E0365"}

def settle(checks):
    """Run each check, putting back what its privacy errors point at, until
    a round finds no error. Returns the rounds and each check's records."""
    rounds = 0
    while True:
        rounds += 1
        touched, records = set(), []
        for args, base in checks:
            run = subprocess.run(["cargo", "check", *args, "--keep-going", "--offline", "--quiet",
                                  "--message-format=json"],
                                 cwd=tree, capture_output=True, encoding="utf-8")
            out = [json.loads(l) for l in run.stdout.splitlines() if l.startswith("{")]
            errors = [r["message"] for r in out if r.get("reason") == "compiler-message"
                      and r["message"]["level"] == "error"]
            if not errors and run.returncode != 0:
                sys.exit(f"census_rustc: cargo check {' '.join(args)} failed:\n{run.stderr}")
            mended = set()
            for e in errors:
                if (e.get("code") or {}).get("code") not in PRIVACY:
                    continue
                for key in {pointed_at(s, base) for s in spans(e)} - {None}:
                    if key in items or key in imports:
                        mended |= restore(key)
            if errors and not mended:
                sys.exit(f"census_rustc: cargo check {' '.join(args)} fails for a reason the pass "
                         "cannot mend:\n" + "".join(e["rendered"] for e in errors))
            for path in mended:
                write(path)
            touched |= mended
            records.append(out)
        if not touched:
            return rounds, records

def dead_code(records, base):
    """(path, line) -> [name, rustc's message, package, how many units warn]
    for each `dead_code` warning in `records`."""
    dead = {}
    for r in records:
        m = r.get("message") or {}
        if r.get("reason") != "compiler-message" or (m.get("code") or {}).get("code") != "dead_code":
            continue
        for s in m["spans"]:
            if s["is_primary"]:
                t = s["text"][0]
                name = t["text"][t["highlight_start"] - 1:t["highlight_end"] - 1]
                key = (rel(s["file_name"], base), s["line_start"])
                dead.setdefault(key, [name, m["message"], r["package_id"], 0])[3] += 1
    return dead

# Pass 1: what is still unreached from the libraries and bins fails.
made = make_private(False, set())
rewritten = set(items)
rounds, (libs,) = settle([LIBS])
dead = dead_code(libs, tree)
print(f"census_rustc: {made} items made pub(crate), {made - len(items)} put back "
      f"in {rounds} rounds of cargo check, {len(dead)} unreached "
      f"({time.monotonic() - started:.1f} s)")
for (path, line), (name, why, _, _) in sorted(dead.items()):
    print(f"{path}:{line}: `{name}`: nothing outside tests reaches it and no `/// Reached by:` "
          f"line says what does (rustc: {why})")

# Pass 2: a root the libraries' build finds dead is reached by nothing if
# its crate's unit-test build finds it dead too. That build's warnings come
# with those of the crate's non-test build, which the tests' check also
# runs if a test target needs it: `--tests` warns once more than the
# crate's non-test lib units it builds.
started = time.monotonic()
made = make_private(True, rewritten - set(items))
rounds, (libs, tests, _) = settle([LIBS, TESTS, FROZEN])
units = {}
for r in tests:
    if r.get("reason") == "compiler-artifact" and "lib" in r["target"]["kind"] \
            and not r["profile"]["test"]:
        units[r["package_id"]] = units.get(r["package_id"], 0) + 1
in_tests = dead_code(tests, tree)
unreached, unit_tested, failed = 0, 0, []
for key, (name, why, package, _) in sorted(dead_code(libs, tree).items()):
    if key not in roots:
        continue
    if key in in_tests and in_tests[key][3] > units.get(package, 0):
        unreached += 1
        failed.append(f"{key[0]}:{key[1]}: `{name}`: nothing reaches this root, whatever its "
                      f"`Reached by:` line says (rustc: {why})")
    else:
        unit_tested += 1
        if not EXCUSED.search(roots[key]):
            failed.append(f"{key[0]}:{key[1]}: `{name}`: only its crate's unit tests reach this "
                          "root, and its `Reached by:` line names no `ROADMAP item N` or "
                          "`clippy::` lint")
print(f"census_rustc: roots: {len(roots)} roots and {made - len(roots)} other items made "
      f"pub(crate), {made - len(items)} put back in {rounds} rounds of cargo check (libraries "
      f"and bins, tests, frozen benchmarks/), {unit_tested} roots only their crate's unit "
      f"tests reach, {unreached} reached by nothing, {len(failed)} failing "
      f"({time.monotonic() - started:.1f} s)")
for line in failed:
    print(line)
sys.exit(1 if dead or failed else 0)
EOF
