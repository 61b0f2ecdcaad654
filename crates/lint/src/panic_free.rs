//! Panic freedom in designated hot modules.
//!
//! A panic on the controller dispatch path kills every job the controller
//! is serving; a panic in codec decode lets one malformed frame take down
//! a node. The modules listed in [`crate::config::PANIC_FREE`] therefore
//! deny `.unwrap()` and `.expect(` in product code — and, for modules that
//! parse untrusted wire bytes, direct slice indexing too (`x[i]`), which
//! panics on a short frame where `.get(i)` returns `None`.
//!
//! Test modules are exempt: a test *should* unwrap, so a failure points at
//! the assertion.

use crate::config;
use crate::report::{Diagnostic, Rule};
use crate::scanner::{is_ident_byte, ScannedFile};

/// Runs the panic rule over one file.
pub fn check(file: &ScannedFile, rel: &str, out: &mut Vec<Diagnostic>) {
    let Some(deny_indexing) = config::panic_policy(rel) else {
        return;
    };
    let src = &file.stripped;
    let b = src.as_bytes();
    let tests = file.test_ranges();
    let in_test = |pos: usize| tests.iter().any(|r| r.contains(&pos));

    for needle in [".unwrap()", ".expect("] {
        let mut i = 0;
        while let Some(pos) = src[i..].find(needle).map(|p| p + i) {
            i = pos + needle.len();
            if in_test(pos) {
                continue;
            }
            let what = needle.trim_start_matches('.').trim_end_matches(['(', ')']);
            out.push(Diagnostic::new(
                Rule::Panic,
                rel,
                file.line_of(pos),
                format!(
                    "`{what}` in a panic-free module: return an error (or waive with a \
                     reason stating the invariant that makes the panic unreachable)"
                ),
            ));
        }
    }

    if !deny_indexing {
        return;
    }
    // Direct indexing: a `[` immediately after an expression tail (an
    // identifier byte, `)`, or `]`). Attributes (`#[...]`), macro brackets
    // (`vec![...]`), slice patterns, and type syntax all have a
    // non-expression byte before the `[` and do not match.
    for (pos, _) in src.match_indices('[') {
        if pos == 0 || in_test(pos) {
            continue;
        }
        let prev = b[pos - 1];
        if !(is_ident_byte(prev) || prev == b')' || prev == b']') {
            continue;
        }
        out.push(Diagnostic::new(
            Rule::Panic,
            rel,
            file.line_of(pos),
            "direct indexing in a decode path: use `.get()`/`.get_mut()` so short \
             or corrupt input returns an error instead of panicking"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = ScannedFile::new(PathBuf::from(rel), src.to_string());
        let mut out = Vec::new();
        check(&f, rel, &mut out);
        out
    }

    const CODEC: &str = "crates/net/src/codec.rs";
    const CONTROLLER: &str = "crates/controller/src/controller.rs";

    #[test]
    fn unwrap_and_expect_fire_in_hot_modules_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); }";
        assert_eq!(run(CODEC, src).len(), 2);
        assert_eq!(run(CONTROLLER, src).len(), 2);
        assert_eq!(run("crates/worker/src/worker.rs", src).len(), 2);
        assert!(run("crates/worker/src/executor.rs", src).is_empty());
    }

    #[test]
    fn indexing_policy_differs_by_module() {
        let src = "fn f(v: &[u8], i: usize) -> u8 { v[i] }";
        assert_eq!(run(CODEC, src).len(), 1, "codec denies indexing");
        assert!(
            run(CONTROLLER, src).is_empty(),
            "controller allows internal-invariant indexing"
        );
    }

    #[test]
    fn non_indexing_brackets_do_not_fire() {
        let src =
            "#[derive(Debug)]\nfn f() { let v = vec![1]; let [a, b] = pair; let t: [u8; 4] = x; }";
        assert!(run(CODEC, src).is_empty());
    }

    #[test]
    fn call_result_indexing_fires() {
        let src = "fn f() { g()[0]; h[1][2]; }";
        assert_eq!(run(CODEC, src).len(), 3);
    }

    #[test]
    fn tests_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); v[0]; } }";
        assert!(run(CODEC, src).is_empty());
    }
}
