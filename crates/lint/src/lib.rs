//! `nimbus-lint`: workspace static analysis for the runtime's own
//! invariants.
//!
//! Two domain lints run over every workspace source file on each
//! invocation (`cargo run -p nimbus-lint`, the `workspace_clean` tier-1
//! test, and the CI `lint` job):
//!
//! | rule    | invariant                                               |
//! |---------|---------------------------------------------------------|
//! | `clock` | no wall-clock reads outside `Clock` + allowlist         |
//! | `panic` | no `unwrap`/`expect`/indexing in designated hot modules |
//!
//! Three earlier rules are gone because something stronger now holds what
//! they checked: `wire` (message enums, tag table and golden vectors in
//! lockstep) became `nimbus_net::Tag`, declared once, with exhaustive
//! `tag()` matches and the vector census test in `nimbus-net`; `job-scope`
//! (command-stream variants carry a job) became the wildcard-free `job()`
//! on `ControllerToWorker` and `WorkerToController`; `lock-order` (no
//! cycles in the "acquired while held" graph) became a flat discipline —
//! no thread holds two locks at once — that the vendored `parking_lot`
//! checks on every acquisition in debug builds.
//!
//! A finding can be waived in place with a comment on the same or the
//! preceding line — `nimbus-lint: allow(<rule>) — <reason>` (`--` works
//! as the separator too) — but the reason must be non-empty and the
//! waiver must match a real finding; empty-reason and unused waivers are
//! themselves diagnostics (`waiver` rule), so stale suppressions cannot
//! accumulate. Results are printed as a table and written to
//! `LINT_REPORT.json` at the workspace root.

use std::path::Path;

pub mod clock;
pub mod config;
pub mod panic_free;
pub mod report;
pub mod scanner;

pub use report::{Diagnostic, LintReport, Rule};
use scanner::ScannedFile;

/// Runs every lint over the workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<LintReport> {
    let mut scanned: Vec<ScannedFile> = Vec::new();
    let mut rels: Vec<String> = Vec::new();
    for (rel, abs) in config::workspace_files(root)? {
        let raw = std::fs::read_to_string(&abs)?;
        scanned.push(ScannedFile::new(abs, raw));
        rels.push(rel);
    }

    let mut diags: Vec<Diagnostic> = Vec::new();

    // Per-file rules.
    for (file, rel) in scanned.iter().zip(&rels) {
        clock::check(file, rel, &mut diags);
        panic_free::check(file, rel, &mut diags);
    }

    // Waivers.
    apply_waivers(&scanned, &rels, &mut diags);

    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let mut report = LintReport {
        diagnostics: diags,
        files_scanned: scanned.len(),
    };
    report.diagnostics.shrink_to_fit();
    Ok(report)
}

/// Applies `nimbus-lint: allow(<rule>) — <reason>` comments: a waiver on
/// the same line as a finding, or on the line directly above it, marks the
/// finding waived. Empty reasons and waivers that match nothing are
/// reported under the `waiver` rule.
pub fn apply_waivers(scanned: &[ScannedFile], rels: &[String], diags: &mut Vec<Diagnostic>) {
    let slugs: Vec<&str> = Rule::all().iter().map(|r| r.slug()).collect();
    let mut extra: Vec<Diagnostic> = Vec::new();
    for (file, rel) in scanned.iter().zip(rels) {
        for waiver in file.waivers() {
            // Unknown rule names are not waivers (doc text uses `<rule>`
            // placeholders); known ones must be well-formed and used.
            if !slugs.contains(&waiver.rule.as_str()) {
                continue;
            }
            if waiver.reason.is_empty() {
                extra.push(Diagnostic::new(
                    Rule::Waiver,
                    rel,
                    waiver.line,
                    format!(
                        "waiver for `{}` has no reason: write `nimbus-lint: allow({}) — <why \
                         this is sound>`",
                        waiver.rule, waiver.rule
                    ),
                ));
                continue;
            }
            let mut used = false;
            for d in diags.iter_mut() {
                if d.rule.slug() == waiver.rule
                    && d.file == *rel
                    && (d.line == waiver.line || d.line == waiver.line + 1)
                {
                    d.waived = Some(waiver.reason.clone());
                    used = true;
                }
            }
            if !used {
                extra.push(Diagnostic::new(
                    Rule::Waiver,
                    rel,
                    waiver.line,
                    format!(
                        "unused waiver for `{}`: no matching finding on this or the next \
                         line — delete it",
                        waiver.rule
                    ),
                ));
            }
        }
    }
    diags.extend(extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> (ScannedFile, String) {
        (
            ScannedFile::new(PathBuf::from(rel), src.to_string()),
            rel.to_string(),
        )
    }

    #[test]
    fn waiver_on_same_line_suppresses() {
        let rel = "crates/worker/src/executor.rs";
        let src = "fn f() { let t = Instant::now(); } // nimbus-lint: allow(clock) — measured spin-wait\n";
        let (f, r) = file(rel, src);
        let mut diags = Vec::new();
        clock::check(&f, &r, &mut diags);
        assert_eq!(diags.len(), 1);
        apply_waivers(&[f], &[r], &mut diags);
        assert!(diags.iter().all(|d| d.waived.is_some()), "{diags:?}");
    }

    #[test]
    fn waiver_on_preceding_line_suppresses() {
        let rel = "crates/worker/src/executor.rs";
        let src = "// nimbus-lint: allow(clock) -- measured spin-wait\nfn f() { let t = Instant::now(); }\n";
        let (f, r) = file(rel, src);
        let mut diags = Vec::new();
        clock::check(&f, &r, &mut diags);
        apply_waivers(&[f], &[r], &mut diags);
        assert!(diags.iter().all(|d| d.waived.is_some()), "{diags:?}");
    }

    #[test]
    fn empty_reason_and_unused_waivers_are_findings() {
        let rel = "crates/worker/src/executor.rs";
        let src = "// nimbus-lint: allow(clock) —\nfn ok() {}\n// nimbus-lint: allow(panic) — but nothing here\nfn also_ok() {}\n";
        let (f, r) = file(rel, src);
        let mut diags = Vec::new();
        clock::check(&f, &r, &mut diags);
        apply_waivers(&[f], &[r], &mut diags);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::Waiver));
        assert!(diags.iter().any(|d| d.message.contains("no reason")));
        assert!(diags.iter().any(|d| d.message.contains("unused waiver")));
    }

    #[test]
    fn placeholder_rule_names_in_docs_are_ignored() {
        let rel = "crates/worker/src/worker.rs";
        let src = "//! Waive with `nimbus-lint: allow(<rule>) — <reason>`.\nfn ok() {}\n";
        let (f, r) = file(rel, src);
        let mut diags = Vec::new();
        apply_waivers(&[f], &[r], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
