//! The reachability census, kept: every `pub mod` of a workspace crate
//! says in its module doc which claim test, suite cell, `--bin`,
//! `archperf` workload or `archgraphd` op reaches it (a `Reached by:`
//! line). A module that nothing reaches is deleted, not documented.

use std::fs;
use std::path::Path;

#[test]
fn every_pub_mod_says_what_reaches_it() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let (mut checked, mut unreached) = (0, Vec::new());
    for krate in fs::read_dir(&crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        let lib = fs::read_to_string(src.join("lib.rs")).unwrap_or_default();
        let mods = lib
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'));
        for name in mods {
            let file = src.join(format!("{name}.rs"));
            let text = fs::read_to_string(&file)
                .or_else(|_| fs::read_to_string(src.join(name).join("mod.rs")))
                .unwrap_or_else(|e| panic!("`pub mod {name}` in {}: {e}", src.display()));
            let mut header = text.lines().take_while(|l| l.starts_with("//!"));
            if !header.any(|l| l.contains("Reached by:")) {
                unreached.push(file);
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no `pub mod` found under {}", crates.display());
    assert!(
        unreached.is_empty(),
        "no `//! Reached by:` line in {unreached:#?}"
    );
}
