//! Fixture-driven tests: each lint must fire on its bad fixture at the
//! expected `file:line` spans.
//!
//! The fixture sources live in `tests/fixtures/` (excluded from workspace
//! scans) and are loaded under a plausible workspace-relative path so the
//! per-path policies (clock allowlist, panic-free list) apply.

use std::path::{Path, PathBuf};

use nimbus_lint::scanner::ScannedFile;
use nimbus_lint::{apply_waivers, clock, panic_free};
use nimbus_lint::{Diagnostic, Rule};

/// Loads a fixture file, re-anchored under `rel` so path-keyed policies
/// (allowlists, panic-free modules) treat it as product code.
fn fixture(name: &str, rel: &str) -> (ScannedFile, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    (ScannedFile::new(PathBuf::from(rel), raw), rel.to_string())
}

/// Spans sorted by line: individual rules emit per-needle, and the
/// orchestrator (not the rule) does the final ordering.
fn spans(diags: &[Diagnostic]) -> Vec<(String, usize)> {
    let mut spans: Vec<(String, usize)> = diags.iter().map(|d| (d.file.clone(), d.line)).collect();
    spans.sort();
    spans
}

#[test]
fn clock_fixture_fires_at_every_wall_clock_read() {
    let rel = "crates/worker/src/executor.rs";
    let (f, r) = fixture("bad_clock.rs", rel);
    let mut diags = Vec::new();
    clock::check(&f, &r, &mut diags);
    assert!(diags.iter().all(|d| d.rule == Rule::Clock));
    assert_eq!(
        spans(&diags),
        vec![
            (rel.to_string(), 6),  // Instant::now
            (rel.to_string(), 7),  // thread::sleep
            (rel.to_string(), 12), // SystemTime::now
        ],
        "{diags:?}"
    );
}

#[test]
fn clock_fixture_is_silent_under_an_allowlisted_path() {
    let (f, r) = fixture("bad_clock.rs", "crates/core/src/clock.rs");
    let mut diags = Vec::new();
    clock::check(&f, &r, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_fixture_fires_on_indexing_unwrap_and_expect() {
    let rel = "crates/net/src/codec.rs"; // indexing denied here
    let (f, r) = fixture("bad_panic.rs", rel);
    let mut diags = Vec::new();
    panic_free::check(&f, &r, &mut diags);
    assert!(diags.iter().all(|d| d.rule == Rule::Panic));
    assert_eq!(
        spans(&diags),
        vec![
            (rel.to_string(), 4),  // bytes[0]
            (rel.to_string(), 8),  // unwrap
            (rel.to_string(), 12), // expect
        ],
        "{diags:?}"
    );
}

#[test]
fn panic_fixture_is_silent_outside_panic_free_modules() {
    let (f, r) = fixture("bad_panic.rs", "crates/apps/src/lib.rs");
    let mut diags = Vec::new();
    panic_free::check(&f, &r, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn waiver_fixture_reports_empty_reason_and_unused_waiver() {
    let rel = "crates/worker/src/worker.rs";
    let (f, r) = fixture("bad_waiver.rs", rel);
    let mut diags = Vec::new();
    apply_waivers(&[f], &[r], &mut diags);
    assert!(diags.iter().all(|d| d.rule == Rule::Waiver));
    assert_eq!(
        spans(&diags),
        vec![(rel.to_string(), 3), (rel.to_string(), 5)],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("no reason"));
    assert!(diags[1].message.contains("unused waiver"));
}
