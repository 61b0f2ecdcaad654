//! TRACEABILITY.md names only tests and files that exist.
//!
//! Every test a "Pinned by" cell names must be an `fn` somewhere in the
//! workspace's sources, so a renamed or folded test cannot leave a row
//! pointing at nothing. A name is either the last segment of a backticked
//! path (`file.rs::name`, `module::tests::name`; a path ending in `tests`
//! names a whole test module) or a backticked snake_case identifier that is
//! neither the stem of a source file (those name binaries, examples and test
//! crates) nor a metric of the benchmark (`BENCHMARK.json`).
//!
//! Every backticked repo-relative path anywhere in the document must exist
//! too, so a deleted or moved file cannot leave a row pointing at nothing: a
//! path is a span starting with one of [`ROOTS`], `{a,b}` lists expand to
//! one path each, and a segment with a `*` must match at least one entry.

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

/// Every `"name": "..."` value in the benchmark's declaration: its
/// workloads and metrics.
fn benchmark_names(declaration: &str) -> HashSet<String> {
    declaration
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split_once('"').map(|(name, _)| name.to_string()))
        .collect()
}

/// The test names in the "Pinned by" cells of every table in `doc`.
fn pinned_names(doc: &str, known: &HashSet<String>) -> Vec<String> {
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
                None if !known.contains(span) => span,
                None => continue,
            };
            if is_ident(name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// `path` with its first `{a,b,...}` list expanded, recursively.
fn expand_braces(path: &str) -> Vec<String> {
    let Some((head, rest)) = path.split_once('{') else {
        return vec![path.to_string()];
    };
    let Some((list, tail)) = rest.split_once('}') else {
        return vec![path.to_string()];
    };
    list.split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{}{tail}", alt.trim())))
        .collect()
}

/// Whether `name` matches `pattern`, whose one `*` matches any run of
/// characters.
fn wildcard(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((prefix, suffix)) => {
            name.len() >= prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        }
    }
}

/// Whether the repo-relative `path` names at least one existing entry.
fn resolves(root: &Path, path: &str) -> bool {
    let mut found = vec![root.to_path_buf()];
    for segment in path.split('/').filter(|s| !s.is_empty()) {
        found = found
            .iter()
            .flat_map(|dir| -> Vec<PathBuf> {
                if !segment.contains('*') {
                    return vec![dir.join(segment)];
                }
                let Ok(entries) = std::fs::read_dir(dir) else {
                    return Vec::new();
                };
                entries
                    .flatten()
                    .filter(|e| wildcard(segment, &e.file_name().to_string_lossy()))
                    .map(|e| e.path())
                    .collect()
            })
            .filter(|p| p.exists())
            .collect();
    }
    !found.is_empty()
}

/// Every backticked span of `doc` that starts with one of [`ROOTS`], with
/// any `::item` suffix cut off and brace lists expanded.
fn cited_paths(doc: &str) -> Vec<String> {
    doc.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            ROOTS
                .iter()
                .any(|r| span.strip_prefix(r).is_some_and(|s| s.starts_with('/')))
        })
        .flat_map(|span| expand_braces(span.split("::").next().unwrap_or(span)))
        .collect()
}

#[test]
fn every_path_traceability_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("TRACEABILITY.md")).unwrap();
    let paths = cited_paths(&doc);
    assert!(paths.len() >= 10, "too few paths parsed: {paths:?}");
    let missing: Vec<&String> = paths.iter().filter(|p| !resolves(root, p)).collect();
    assert!(
        missing.is_empty(),
        "TRACEABILITY.md cites paths that do not exist: {missing:?}"
    );
}

#[test]
fn every_test_traceability_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    let mut fns = HashSet::new();
    let declaration = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let mut known = benchmark_names(&declaration);
    for file in &files {
        fn_names(&std::fs::read_to_string(file).unwrap(), &mut fns);
        if let Some(stem) = file.file_stem() {
            known.insert(stem.to_string_lossy().into_owned());
        }
    }
    let doc = std::fs::read_to_string(root.join("TRACEABILITY.md")).unwrap();
    let names = pinned_names(&doc, &known);
    assert!(names.len() >= 10, "too few names parsed: {names:?}");
    let missing: Vec<&String> = names.iter().filter(|n| !fns.contains(*n)).collect();
    assert!(
        missing.is_empty(),
        "TRACEABILITY.md cites tests that do not exist: {missing:?}"
    );
}
