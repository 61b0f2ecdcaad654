//! Diagnostics, the human-readable table, and the machine-readable
//! `LINT_REPORT.json`.
//!
//! JSON is emitted with a tiny hand-rolled writer (the lint crate is
//! deliberately std-only); the format is flat and stable so CI tooling can
//! diff reports across runs.

use std::fmt::Write as _;
use std::path::Path;

/// One lint rule. The slug doubles as the waiver key:
/// `// nimbus-lint: allow(<slug>) — <reason>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Wall-clock reads outside the `Clock` abstraction.
    Clock,
    /// `unwrap`/`expect`/indexing in designated hot modules.
    Panic,
    /// Malformed or unused waiver comments.
    Waiver,
}

impl Rule {
    /// The rule's stable slug (used in waivers, the table, and JSON).
    pub fn slug(self) -> &'static str {
        match self {
            Rule::Clock => "clock",
            Rule::Panic => "panic",
            Rule::Waiver => "waiver",
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 3] {
        [Rule::Clock, Rule::Panic, Rule::Waiver]
    }
}

/// A single finding, anchored to a `file:line` span.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation of what is wrong and what to do about it.
    pub message: String,
    /// `Some(reason)` when a waiver comment covers this finding.
    pub waived: Option<String>,
}

impl Diagnostic {
    /// A new unwaived diagnostic.
    pub fn new(
        rule: Rule,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            file: file.into(),
            line,
            message: message.into(),
            waived: None,
        }
    }

    /// `file:line`.
    pub fn span(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// The full result of a lint run.
#[derive(Default)]
pub struct LintReport {
    /// Every finding, waived or not.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings that no waiver covers — these fail the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.waived.is_none())
    }

    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// The human-readable table: one row per finding, grouped by rule,
    /// followed by a summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let span_w = self
            .diagnostics
            .iter()
            .map(|d| d.span().len())
            .max()
            .unwrap_or(4)
            .max("span".len());
        let rule_w = Rule::all()
            .iter()
            .map(|r| r.slug().len())
            .max()
            .unwrap_or(4);
        if !self.diagnostics.is_empty() {
            let _ = writeln!(out, "{:rule_w$}  {:span_w$}  finding", "rule", "span");
            let _ = writeln!(out, "{:-<rule_w$}  {:-<span_w$}  {:-<7}", "", "", "");
            for rule in Rule::all() {
                for d in self.diagnostics.iter().filter(|d| d.rule == rule) {
                    let mark = match &d.waived {
                        Some(reason) => format!("{} [waived: {}]", d.message, reason),
                        None => d.message.clone(),
                    };
                    let _ = writeln!(out, "{:rule_w$}  {:span_w$}  {mark}", rule.slug(), d.span());
                }
            }
            let _ = writeln!(out);
        }
        let waived = self.diagnostics.len() - self.unwaived().count();
        // `waiver` polices the waivers themselves; the rest are the rules.
        let rules: Vec<&str> = Rule::all()
            .into_iter()
            .filter(|r| *r != Rule::Waiver)
            .map(Rule::slug)
            .collect();
        let _ = writeln!(
            out,
            "nimbus-lint: {} rule(s) ({}), {} file(s), {} finding(s) ({} waived, {} failing)",
            rules.len(),
            rules.join(", "),
            self.files_scanned,
            self.diagnostics.len(),
            waived,
            self.unwaived().count(),
        );
        out
    }

    /// Serializes the report as stable, flat JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"failing\": {},", self.unwaived().count());
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 == self.diagnostics.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}}}{comma}",
                json_str(d.rule.slug()),
                json_str(&d.file),
                d.line,
                json_str(&d.message),
                match &d.waived {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `LINT_REPORT.json` under `root`.
    pub fn write_json(&self, root: &Path) -> std::io::Result<()> {
        std::fs::write(root.join("LINT_REPORT.json"), self.to_json())
    }
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_findings_do_not_fail() {
        let mut r = LintReport::default();
        r.diagnostics
            .push(Diagnostic::new(Rule::Clock, "a.rs", 3, "Instant::now"));
        assert!(!r.is_clean());
        r.diagnostics[0].waived = Some("bench".to_string());
        assert!(r.is_clean());
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut r = LintReport {
            files_scanned: 2,
            ..LintReport::default()
        };
        r.diagnostics.push(Diagnostic::new(
            Rule::Panic,
            "net/src/codec.rs",
            4,
            "index \"x\\y\" unchecked",
        ));
        let j = r.to_json();
        assert!(j.contains("\"rule\": \"panic\""));
        assert!(j.contains("\\\"x\\\\y\\\""));
        assert!(j.contains("\"failing\": 1"));
        assert!(j.contains("\"waived\": null"));
    }

    #[test]
    fn table_mentions_summary() {
        let r = LintReport {
            files_scanned: 7,
            ..Default::default()
        };
        let t = r.render_table();
        assert!(t.contains("2 rule(s) (clock, panic)"), "{t}");
        assert!(t.contains("7 file(s)"));
        assert!(t.contains("0 failing"));
    }
}
