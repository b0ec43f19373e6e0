//! The reachability census's module rule: every `pub mod` of a `crates/*`
//! library, in `lib.rs` or inline as `pub mod name {`, says in its module
//! doc which claim test, suite cell, `--bin`, `archperf` workload or
//! `archgraphd` op reaches it (a `//! Reached by:` line).
//!
//! The item rule is the compiler's: `scripts/census_rustc.sh` makes every
//! `pub fn`, `pub const fn` and `pub const` of a library crate-private in a
//! copy of the workspace, puts back what another crate or a bin needs, and
//! fails on rustc's `dead_code` warnings, so it follows paths, not names.
//! Its second pass holds the `Reached by:` items to their lines, with the
//! tests and the frozen `benchmarks/` package compiled.
//! A module doc is prose no lint reads, so this rule stays a scan.

use std::fs;
use std::path::Path;

/// Every `pub mod` of a library in `files` (`(path from the workspace
/// root, text)` pairs, `/`-separated) that has no `//! Reached by:` line,
/// one message each.
fn unreached_modules(files: &[(String, String)]) -> Vec<String> {
    let mut broken = Vec::new();
    for (path, text) in files {
        let Some(krate) = library(path) else { continue };
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(decl) = line.trim_start().strip_prefix("pub mod ") else {
                continue;
            };
            if let Some(name) = decl.strip_suffix(" {") {
                if !module_doc_reached(lines[i + 1..].iter().copied()) {
                    broken.push(format!(
                        "{path}:{}: inline `pub mod {name}` has no `//! Reached by:` line",
                        i + 1
                    ));
                }
            } else if let Some(name) = decl.strip_suffix(';').filter(|_| path.ends_with("/lib.rs"))
            {
                let dir = format!("crates/{krate}/src");
                let file = files.iter().find(|(p, _)| {
                    *p == format!("{dir}/{name}.rs") || *p == format!("{dir}/{name}/mod.rs")
                });
                match file {
                    Some((p, t)) if !module_doc_reached(t.lines()) => broken.push(format!(
                        "{p}: `pub mod {name}` has no `//! Reached by:` line"
                    )),
                    Some(_) => {}
                    None => broken.push(format!("{path}: `pub mod {name}` has no file")),
                }
            }
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

/// Whether a module's leading `//!` lines say `Reached by:`.
fn module_doc_reached<'a>(lines: impl Iterator<Item = &'a str>) -> bool {
    lines
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//!"))
        .any(|l| l.contains("Reached by:"))
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

#[test]
fn every_pub_mod_says_what_reaches_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    read_tree(root, "crates", &mut files);
    let libs = files.iter().filter(|(p, _)| library(p).is_some()).count();
    assert!(libs > 0, "no library source under {}", root.display());
    let broken = unreached_modules(&files);
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// The rule on a fixture small enough to read.
#[test]
fn census_rules_hold_on_fixtures() {
    let file = |p: &str, t: &str| (p.to_string(), t.to_string());
    let files = [
        file(
            "crates/k/src/lib.rs",
            concat!(
                "//! Crate.\npub mod a;\npub mod quiet;\npub mod gone;\n",
                "pub mod inline {\n    //! Reached by: `--bin b`.\n    pub fn in_inline() {}\n}\n",
                "pub mod bare {\n    pub const BARE: u8 = 1;\n}\n",
            ),
        ),
        file(
            "crates/k/src/a.rs",
            "//! Reached by: the fixture.\npub mod nested;\n",
        ),
        file("crates/k/src/quiet.rs", "//! No line here.\n"),
        file(
            "crates/k/src/bin/b.rs",
            "pub mod in_bin {\n}\nfn main() {}\n",
        ),
    ];
    let broken = unreached_modules(&files);
    let names: Vec<&str> = broken
        .iter()
        .map(|l| l.split('`').nth(1).unwrap())
        .collect();
    assert_eq!(
        names,
        ["pub mod quiet", "pub mod gone", "pub mod bare"],
        "{broken:#?}"
    );
    assert!(broken[1].ends_with("has no file"), "{}", broken[1]);
}
