//! [`asap_sim::KNOWN_ASAP_ENV`] must list exactly the `ASAP_`-prefixed
//! environment variables the workspace reads. An unlisted read would make
//! the unknown-variable warning fire on a knob the code actually honors
//! (or leave a new knob untypo-checked); a listed name nothing reads would
//! let a deleted knob linger in the registry and in the warning text.
//!
//! A "read" is an `"ASAP_*"` literal on a Rust line that calls
//! `env::var`, or a `${ASAP_*` expansion in `ci.sh`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The `ASAP_*` names `ci.sh` expands (`${ASAP_OPS:-}` and the like).
fn ci_expansions(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("${ASAP_") {
        let lit = &rest[i + 2..];
        let end = lit
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(lit.len());
        out.push(lit[..end].to_string());
        rest = &lit[end..];
    }
    out
}

#[test]
fn env_registry_matches_env_reads() {
    // CARGO_MANIFEST_DIR of this crate is crates/bench.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rs_files(&root, &mut files);
    assert!(files.len() > 20, "workspace walk found source files");

    // `(variable, file)` for every `"ASAP_*"` literal on a line that
    // reads the environment.
    let mut reads: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &files {
        let Ok(text) = std::fs::read_to_string(f) else {
            continue;
        };
        for line in text.lines() {
            if !line.contains("env::var") {
                continue;
            }
            let mut rest = line;
            while let Some(i) = rest.find("\"ASAP_") {
                let lit = &rest[i + 1..];
                let end = lit.find('"').unwrap_or(lit.len());
                reads.insert((lit[..end].to_string(), f.display().to_string()));
                rest = &lit[end..];
            }
        }
    }

    let ci = root.join("ci.sh");
    let ci_text = std::fs::read_to_string(&ci).expect("ci.sh at the workspace root");
    for var in ci_expansions(&ci_text) {
        reads.insert((var, ci.display().to_string()));
    }

    let mut seen = BTreeSet::new();
    for (var, file) in &reads {
        assert!(
            asap_sim::KNOWN_ASAP_ENV.contains(&var.as_str()),
            "{file} reads {var}, which is missing from KNOWN_ASAP_ENV"
        );
        seen.insert(var.as_str());
    }
    // The scan itself must be finding the real reads, old and new — an
    // empty or partial scan would pass the containment check vacuously.
    for known in [
        "ASAP_OPS",
        "ASAP_RUNCACHE",
        "ASAP_EVENTS",
        "ASAP_LOG",
        "ASAP_JOBS",
    ] {
        assert!(seen.contains(known), "scan should find a read of {known}");
    }
    for known in asap_sim::KNOWN_ASAP_ENV {
        assert!(
            seen.contains(known),
            "KNOWN_ASAP_ENV lists {known}, but nothing in the workspace reads it"
        );
    }
}
