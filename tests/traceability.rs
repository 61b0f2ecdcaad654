//! TRACEABILITY.md names only tests that exist.
//!
//! Every test a "Pinned by" cell names must be an `fn` somewhere in the
//! workspace's sources, so a renamed or folded test cannot leave a row
//! pointing at nothing. A name is either the last segment of a backticked
//! path (`file.rs::name`, `module::tests::name`; a path ending in `tests`
//! names a whole test module) or a backticked snake_case identifier that is
//! not the stem of a source file (those name binaries, examples and test
//! crates).

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Where tests live: every source tree of the workspace and the benchmark.
const ROOTS: [&str; 5] = ["crates", "tests", "examples", "benchmark", "vendor"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Every `fn <name>` in `source`.
fn fn_names(source: &str, out: &mut HashSet<String>) {
    let mut rest = source;
    while let Some(at) = rest.find("fn ") {
        let boundary = rest[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        rest = &rest[at + 3..];
        if boundary {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            out.insert(name);
        }
    }
}

/// The test names in the "Pinned by" cells of every table in `doc`.
fn pinned_names(doc: &str, file_stems: &HashSet<String>) -> Vec<String> {
    let mut names = Vec::new();
    let mut column = None;
    for line in doc.lines() {
        let Some(row) = line.trim().strip_prefix('|') else {
            column = None;
            continue;
        };
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        if let Some(at) = cells.iter().position(|c| *c == "Pinned by") {
            column = Some(at);
            continue;
        }
        let Some(cell) = column.and_then(|at| cells.get(at)) else {
            continue;
        };
        for span in cell.split('`').skip(1).step_by(2) {
            let name = match span.rsplit_once("::") {
                Some((_, last)) if last != "tests" => last,
                Some(_) => continue,
                None if !file_stems.contains(span) => span,
                None => continue,
            };
            if is_ident(name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

#[test]
fn every_test_traceability_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    let mut fns = HashSet::new();
    let mut file_stems = HashSet::new();
    for file in &files {
        fn_names(&std::fs::read_to_string(file).unwrap(), &mut fns);
        if let Some(stem) = file.file_stem() {
            file_stems.insert(stem.to_string_lossy().into_owned());
        }
    }
    let doc = std::fs::read_to_string(root.join("TRACEABILITY.md")).unwrap();
    let names = pinned_names(&doc, &file_stems);
    assert!(names.len() >= 10, "too few names parsed: {names:?}");
    let missing: Vec<&String> = names.iter().filter(|n| !fns.contains(*n)).collect();
    assert!(
        missing.is_empty(),
        "TRACEABILITY.md cites tests that do not exist: {missing:?}"
    );
}
