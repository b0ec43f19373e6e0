//! The reachability census, kept. Two rules over the workspace's source,
//! each a name a reader can follow to what needs the item:
//!
//! - every `pub mod` of a `crates/*` library, in `lib.rs` or inline as
//!   `pub mod name {`, says in its module doc which claim test, suite
//!   cell, `--bin`, `archperf` workload or `archgraphd` op reaches it (a
//!   `//! Reached by:` line);
//! - every `pub fn`, `pub const fn` and `pub const` in a library's
//!   non-test, non-bin source is named in non-test code of the workspace
//!   outside its own definition (bins count), or its `///` doc block has
//!   a `Reached by:` line naming the test, claim or frozen probe that
//!   needs it. An item marked `#[cfg(test)]` itself is exempt.
//!
//! Test code is a file under `tests/` or `benches/`, or the rest of a file
//! from `#[cfg(test)] mod` on (the split `scripts/loc.sh` uses), so a
//! public item below that line fails as well. Comments, doc text,
//! doctests, string literals and `use` lists are not callers, and neither
//! is the frozen `benchmarks/src`, which is scanned only to say why a name
//! failed.
//!
//! The scan matches names, not paths: a method that shares its name with
//! one in use passes unseen, so what it flags is a lower bound. An item
//! that nothing reaches is deleted, not documented.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Where a file's text counts as a caller.
#[derive(Clone, Copy)]
enum Role {
    Code,
    Test,
    Frozen,
}

/// What the census found broken, one line per item.
#[derive(Default)]
struct Broken {
    /// `pub mod`s with no `//! Reached by:` line.
    modules: Vec<String>,
    /// `pub fn` / `pub const` items with neither a caller nor a `///
    /// Reached by:` line.
    items: Vec<String>,
}

/// Both census rules over `files`: `(path from the workspace root, text)`
/// pairs, `/`-separated.
fn census(files: &[(String, String)]) -> Broken {
    let mut uses: HashMap<&str, [u32; 3]> = HashMap::new();
    for (path, text) in files {
        let split = test_split(path, text);
        let frozen = path.starts_with("benchmarks/src/");
        for (at, name) in callers(text) {
            let role = match () {
                _ if frozen => Role::Frozen,
                _ if at >= split => Role::Test,
                _ => Role::Code,
            };
            uses.entry(name).or_default()[role as usize] += 1;
        }
    }

    let mut broken = Broken::default();
    for (path, text) in files {
        let Some(krate) = library(path) else { continue };
        let tests_from = text[..test_split(path, text)].lines().count();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let item = line.trim_start();
            if i >= tests_from {
                if let Some(name) = pub_item(item) {
                    broken.items.push(format!(
                        "{path}:{}: `{name}` follows `#[cfg(test)] mod`, where every name counts as test code; move it above",
                        i + 1
                    ));
                }
                continue;
            }
            if let Some(name) = item
                .strip_prefix("pub mod ")
                .and_then(|m| m.strip_suffix(" {"))
            {
                if !module_doc_reached(lines[i + 1..].iter().copied()) {
                    broken.modules.push(format!(
                        "{path}:{}: inline `pub mod {name}` has no `//! Reached by:` line",
                        i + 1
                    ));
                }
                continue;
            }
            if path.ends_with("/lib.rs") {
                if let Some(name) = item
                    .strip_prefix("pub mod ")
                    .and_then(|m| m.strip_suffix(';'))
                {
                    let dir = format!("crates/{krate}/src");
                    let file = files.iter().find(|(p, _)| {
                        *p == format!("{dir}/{name}.rs") || *p == format!("{dir}/{name}/mod.rs")
                    });
                    match file {
                        Some((p, t)) if !module_doc_reached(t.lines()) => broken.modules.push(
                            format!("{p}: `pub mod {name}` has no `//! Reached by:` line"),
                        ),
                        Some(_) => {}
                        None => broken
                            .modules
                            .push(format!("{path}: `pub mod {name}` has no file")),
                    }
                    continue;
                }
            }
            let Some(name) = pub_item(item) else { continue };
            let (reached, exempt) = doc_block(&lines[..i]);
            if reached || exempt {
                continue;
            }
            let [code, test, frozen] = uses.get(name).copied().unwrap_or_default();
            if code > 0 {
                continue;
            }
            let why = match () {
                _ if frozen > 0 => "named only in the frozen benchmarks/src",
                _ if test > 0 => "named only in test code",
                _ => "named nowhere",
            };
            broken.items.push(format!(
                "{path}:{}: `{name}` is {why} and has no `/// Reached by:` line",
                i + 1
            ));
        }
    }
    broken
}

/// The crate name when `path` is a library's source (not a bin or a test).
fn library(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, file) = rest.split_once("/src/")?;
    let bin = file == "main.rs" || file.starts_with("bin/");
    (!bin && !krate.contains('/')).then_some(krate)
}

/// The byte offset where `text`'s test code starts: 0 for a file under
/// `tests/` or `benches/`, the line of the first `#[cfg(test)]` that heads
/// a `mod`, else the end.
fn test_split(path: &str, text: &str) -> usize {
    if path.split('/').any(|c| c == "tests" || c == "benches") {
        return 0;
    }
    let mut at = 0;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]" {
            let next = lines.peek().map_or("", |l| l.trim_start());
            if next.starts_with("mod ") || next.starts_with("pub mod ") {
                return at;
            }
        }
        at += line.len();
    }
    text.len()
}

/// The name a line declares when it starts a `pub fn`, `pub const fn` or
/// `pub const` item.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let rest = match rest.strip_prefix("fn ") {
        Some(r) => r,
        None if line.starts_with("pub const ") => rest,
        None => return None,
    };
    let end = rest
        .find(|c: char| !is_ident(c as u8))
        .unwrap_or(rest.len());
    (end > 0).then_some(&rest[..end])
}

/// Whether the `///` lines and attributes just above an item say
/// `Reached by:`, and whether one of the attributes is `#[cfg(test)]`.
fn doc_block(above: &[&str]) -> (bool, bool) {
    let (mut reached, mut exempt) = (false, false);
    for line in above.iter().rev().map(|l| l.trim()) {
        if line.starts_with("///") {
            reached |= line.contains("Reached by:");
        } else if line.starts_with("#[") {
            exempt |= line == "#[cfg(test)]";
        } else {
            break;
        }
    }
    (reached, exempt)
}

/// Whether a module's leading `//!` lines say `Reached by:`.
fn module_doc_reached<'a>(lines: impl Iterator<Item = &'a str>) -> bool {
    lines
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//!"))
        .any(|l| l.contains("Reached by:"))
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier in `text` that can name an item in use, with its byte
/// offset: comments, string and char literals, `use` lists, and the name
/// after `fn`, `const` or `static` (a definition) are skipped.
fn callers(text: &str) -> Vec<(usize, &str)> {
    let b = text.as_bytes();
    let (mut out, mut i) = (Vec::new(), 0);
    let (mut defining, mut in_use) = (false, false);
    while i < b.len() {
        let start = i;
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = text[i..].find('\n').map_or(b.len(), |n| i + n);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => i = string_end(b, i + 1, 0, false),
            b'\'' => {
                // A char literal, or a lifetime (skipped with its name).
                let c = text[i + 1..].chars().next().map_or(1, char::len_utf8);
                i += 1;
                if b.get(i) == Some(&b'\\') {
                    i += 2;
                    i = text[i..].find('\'').map_or(b.len(), |n| i + n + 1);
                } else if b.get(i + c) == Some(&b'\'') {
                    i += c + 1;
                } else {
                    while i < b.len() && is_ident(b[i]) {
                        i += 1;
                    }
                }
            }
            b';' => {
                in_use = false;
                i += 1;
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && is_ident(b[i]) {
                    i += 1;
                }
            }
            c if is_ident(c) => {
                while i < b.len() && is_ident(b[i]) {
                    i += 1;
                }
                let word = &text[start..i];
                // r"..", r#".."# and br".." literals; `b` before `"` or `'`
                // is a harmless word and the literal is skipped next.
                let hashes = b[i..].iter().take_while(|&&h| h == b'#').count();
                if matches!(word, "r" | "br") && b.get(i + hashes) == Some(&b'"') {
                    i = string_end(b, i + hashes + 1, hashes, true);
                    continue;
                }
                match word {
                    "use" => in_use = true,
                    "fn" | "const" | "static" => defining = true,
                    "mut" | "unsafe" if defining => {}
                    _ if defining || in_use => defining = false,
                    _ => out.push((start, word)),
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// The offset just past a string literal whose body starts at `i`; a raw
/// one has no escapes and ends at `"` and `hashes` `#`s.
fn string_end(b: &[u8], mut i: usize, hashes: usize, raw: bool) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' if !raw => i += 2,
            b'"' if b[i + 1..].iter().take(hashes).all(|&h| h == b'#') && b.len() > i + hashes => {
                return i + 1 + hashes;
            }
            _ => i += 1,
        }
    }
    b.len()
}

/// Every `*.rs` file under `dir`, as `(path from root, text)`.
fn read_tree(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        let path = format!("{dir}/{name}");
        if entry.file_type().unwrap().is_dir() {
            if name != "target" {
                read_tree(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            out.push((path.clone(), fs::read_to_string(entry.path()).unwrap()));
        }
    }
}

/// The census of the workspace's own source, taken once per run and
/// shared by the two tests below; prints how long it took.
fn workspace_census() -> &'static Broken {
    static CENSUS: OnceLock<Broken> = OnceLock::new();
    CENSUS.get_or_init(|| {
        let started = Instant::now();
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in ["crates", "src", "tests", "benchmarks/src"] {
            read_tree(root, dir, &mut files);
        }
        let libs = files.iter().filter(|(p, _)| library(p).is_some()).count();
        assert!(libs > 0, "no library source under {}", root.display());
        let broken = census(&files);
        let bytes: usize = files.iter().map(|(_, t)| t.len()).sum();
        println!(
            "census: {} files ({bytes} bytes, {libs} library files) in {:?}",
            files.len(),
            started.elapsed()
        );
        broken
    })
}

#[test]
fn every_pub_mod_says_what_reaches_it() {
    let broken = &workspace_census().modules;
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn every_pub_fn_and_const_says_what_reaches_it() {
    let broken = &workspace_census().items;
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// Each rule on a fixture small enough to read.
#[test]
fn census_rules_hold_on_fixtures() {
    let file = |p: &str, t: &str| (p.to_string(), t.to_string());
    let files = [
        file(
            "crates/k/src/lib.rs",
            concat!(
                "//! Crate.\npub mod a;\npub mod quiet;\n",
                "pub mod inline {\n    //! Reached by: `--bin b`.\n    pub fn in_inline() {}\n}\n",
                "pub mod bare {\n    pub const BARE: u8 = 1;\n}\n",
            ),
        ),
        file(
            "crates/k/src/a.rs",
            concat!(
                "//! Reached by: the fixture.\n",
                "pub fn called() {}\n",
                "pub fn only_tested() {}\n",
                "/// See [`commented`]:\n/// ```\n/// k::a::commented();\n/// ```\n",
                "pub fn commented() {}\n",
                "pub fn frozen_only() {}\n",
                "pub fn in_string() {}\n",
                "/// An oracle.\n///\n/// Reached by: `tests/claims.rs`.\n#[inline]\n",
                "pub fn documented() {}\n",
                "pub const fn after_item_cfg() -> u8 { 1 }\n",
                "#[cfg(test)]\npub(crate) fn helper() {}\n",
                "#[cfg(test)]\npub fn probe() {}\n",
                "pub const LIMIT: usize = 3;\n",
                "fn user() { let _ = (after_item_cfg(), \"in_string()\", r#\"\"in_string\"\"#); }\n",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::only_tested(); helper(); probe(); }\n}\n",
                "pub fn after_tests() {}\n",
            ),
        ),
        file("crates/k/src/quiet.rs", "//! No line here.\n"),
        file(
            "crates/k/src/bin/b.rs",
            "use k::a::{called, frozen_only};\n// commented();\nfn main() { called(); in_inline(); [0; k::a::LIMIT]; after_tests(); }\n",
        ),
        file("crates/k/tests/t.rs", "#[test]\nfn t() { k::a::documented(); }\n"),
        file("benchmarks/src/probe.rs", "fn p() { k::a::frozen_only(); }\n"),
    ];
    let Broken { modules, items } = census(&files);
    let names = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|l| l.split('`').nth(1).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names(&modules),
        ["pub mod quiet", "pub mod bare"],
        "{modules:#?}"
    );
    assert_eq!(
        names(&items),
        [
            "BARE",
            "only_tested",
            "commented",
            "frozen_only",
            "in_string",
            "after_tests"
        ],
        "{items:#?}"
    );
    assert!(items[0].contains("named nowhere"), "{}", items[0]);
    assert!(items[1].contains("only in test code"), "{}", items[1]);
    assert!(items[3].contains("only in the frozen"), "{}", items[3]);
    assert!(
        items[5].contains("follows `#[cfg(test)] mod`"),
        "{}",
        items[5]
    );
}
