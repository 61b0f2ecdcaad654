//! A small hand-rolled Rust token scanner.
//!
//! The lints in this crate do not need a full parser — they need reliable
//! answers to three questions about a source file:
//!
//! 1. *Is this byte inside a comment or a string literal?* ([`strip`]
//!    blanks both out, preserving byte offsets and line structure, so a
//!    token search over the stripped text cannot be fooled by
//!    `// Instant::now()` in a comment or `".unwrap()"` in a string.)
//! 2. *Is this byte test code?* ([`ScannedFile::test_ranges`] finds the
//!    brace-matched spans of `#[cfg(test)]` and `#[test]` items, so a rule
//!    that governs only product code can skip them.)
//! 3. *Has a human waived this finding?* ([`ScannedFile::waivers`] parses
//!    `// nimbus-lint: allow(<rule>) — <reason>` comments; an empty reason
//!    is itself a diagnostic.)
//!
//! Everything operates on byte offsets into the original text, so every
//! finding carries an exact `file:line` span.

use std::path::PathBuf;

/// Whether [`strip`] blanks comments as well as string contents (string
/// contents always go; delimiters are always kept so token boundaries
/// survive).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Blank comments too: the token-search view.
    Tokens,
    /// Keep comments: the waiver-parsing view (a waiver is a comment;
    /// waiver-shaped text inside a string literal — e.g. in this crate's
    /// own tests — must not count).
    Comments,
}

/// Replaces string contents and, in [`Mode::Tokens`], comments (line and
/// nested block) with spaces, byte for byte: the result has exactly the same
/// length and newline positions as the input, so offsets and line numbers
/// computed on one apply to the other.
///
/// Handles line comments, nested block comments, string literals with
/// escapes, raw strings (`r"…"`, `r#"…"#`, any number of `#`s), byte and
/// byte-raw strings, and char literals — while leaving lifetimes (`'a`)
/// alone.
pub fn strip(source: &str, mode: Mode) -> String {
    let b = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;

    // Blank `n` bytes starting at `i`, preserving newlines.
    fn blank(out: &mut Vec<u8>, b: &[u8], from: usize, to: usize) {
        for &byte in &b[from..to] {
            out.push(if byte == b'\n' { b'\n' } else { b' ' });
        }
    }

    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = memchr(b, i, b'\n').unwrap_or(b.len());
            if mode == Mode::Comments {
                out.extend_from_slice(&b[i..end]);
            } else {
                blank(&mut out, b, i, end);
            }
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            if mode == Mode::Comments {
                out.extend_from_slice(&b[i..j]);
            } else {
                blank(&mut out, b, i, j);
            }
            i = j;
            continue;
        }
        // Raw (and byte-raw) string: r"…", r#"…"#, br"…", br##"…"##.
        if (c == b'r' || c == b'b') && !prev_is_ident(b, i) {
            let mut j = i;
            if b[j] == b'b' && j + 1 < b.len() && b[j + 1] == b'r' {
                j += 1;
            }
            if b[j] == b'r' && j + 1 < b.len() && (b[j + 1] == b'#' || b[j + 1] == b'"') {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while k < b.len() && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < b.len() && b[k] == b'"' {
                    // Find closing `"####`.
                    let content_start = k + 1;
                    let mut m = content_start;
                    let close = loop {
                        match memchr(b, m, b'"') {
                            None => break b.len(),
                            Some(q) => {
                                if b[q + 1..].len() >= hashes
                                    && b[q + 1..q + 1 + hashes].iter().all(|&h| h == b'#')
                                {
                                    break q;
                                }
                                m = q + 1;
                            }
                        }
                    };
                    out.extend_from_slice(&b[i..content_start]);
                    blank(&mut out, b, content_start, close);
                    let end = (close + 1 + hashes).min(b.len());
                    out.extend_from_slice(&b[close.min(b.len())..end]);
                    i = end;
                    continue;
                }
            }
        }
        // Ordinary (and byte) string.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"' && !prev_is_ident(b, i)) {
            let open = if c == b'"' { i } else { i + 1 };
            let mut j = open + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => break,
                    _ => j += 1,
                }
            }
            let close = j.min(b.len());
            out.extend_from_slice(&b[i..open + 1]);
            blank(&mut out, b, open + 1, close);
            if close < b.len() {
                out.push(b'"');
            }
            i = close + 1;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let rest = &b[i + 1..];
            let is_char = match rest.first() {
                Some(b'\\') => true,
                Some(_) => rest.get(1) == Some(&b'\''),
                None => false,
            };
            if is_char {
                let mut j = i + 1;
                if b[j] == b'\\' {
                    j += 2;
                } else {
                    j += 1;
                }
                // Closing quote (multi-byte escapes like \u{..} walk on).
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                let end = (j + 1).min(b.len());
                out.push(b'\'');
                blank(&mut out, b, i + 1, end.saturating_sub(1).max(i + 1));
                if end > i + 1 {
                    out.push(b'\'');
                }
                i = end;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8(out).expect("stripping preserves UTF-8: only ASCII is blanked")
}

fn memchr(b: &[u8], from: usize, needle: u8) -> Option<usize> {
    b[from..]
        .iter()
        .position(|&c| c == needle)
        .map(|p| p + from)
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

pub(crate) fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// A waiver comment: `// nimbus-lint: allow(<rule>) — <reason>`.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The waived rule name.
    pub rule: String,
    /// The human justification (must be non-empty to be honoured).
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
}

/// A source file with its stripped views and line table.
pub struct ScannedFile {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// The original text.
    pub raw: String,
    /// Comments and string contents blanked (token-search view).
    pub stripped: String,
    line_starts: Vec<usize>,
}

impl ScannedFile {
    /// Scans a file's contents.
    pub fn new(path: PathBuf, raw: String) -> Self {
        let stripped = strip(&raw, Mode::Tokens);
        let mut line_starts = vec![0usize];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        Self {
            path,
            raw,
            stripped,
            line_starts,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Parses every waiver comment in the file. Only *comments* count: the
    /// scan runs over the comments-kept/strings-blanked view, so waiver
    /// syntax quoted in a string literal is invisible.
    pub fn waivers(&self) -> Vec<Waiver> {
        let comments = strip(&self.raw, Mode::Comments);
        let mut out = Vec::new();
        for (idx, line) in comments.lines().enumerate() {
            let Some(pos) = line.find("nimbus-lint:") else {
                continue;
            };
            let rest = line[pos + "nimbus-lint:".len()..].trim_start();
            let Some(rest) = rest.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            // Accept an em dash, double hyphen, or single hyphen separator.
            let reason = ["—", "--", "-"]
                .iter()
                .find_map(|sep| after.strip_prefix(sep))
                .unwrap_or("")
                .trim()
                .to_string();
            out.push(Waiver {
                rule,
                reason,
                line: idx + 1,
            });
        }
        out
    }

    /// Byte ranges covered by `#[cfg(test)]`-gated items (whole modules or
    /// single functions) plus `#[test]` functions' bodies.
    pub fn test_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let b = self.stripped.as_bytes();
        let mut ranges = Vec::new();
        let mut i = 0;
        while let Some(pos) = memchr(b, i, b'#') {
            i = pos + 1;
            let rest = &self.stripped[pos..];
            let is_test_attr = rest.starts_with("#[cfg(test)]")
                || rest.starts_with("#[test]")
                || rest.starts_with("#[cfg(all(test");
            if !is_test_attr {
                continue;
            }
            // The attribute gates the next item: find its opening brace and
            // cover the whole braced body.
            if let Some(open) = memchr(b, pos, b'{') {
                if let Some(close) = match_brace(b, open) {
                    ranges.push(pos..close + 1);
                    i = pos + 1; // keep scanning inside for nested attrs
                }
            }
        }
        ranges
    }
}

/// Given the offset of an opening `{`, returns the offset of its matching
/// `}` (operating on stripped source, so braces in strings don't count).
fn match_brace(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::new(PathBuf::from("test.rs"), src.to_string())
    }

    #[test]
    fn strip_preserves_length_and_newlines() {
        let src = "let a = 1; // Instant::now()\nlet b = \"thread::sleep\"; /* x\n y */ let c = 2;";
        let s = strip(src, Mode::Tokens);
        assert_eq!(s.len(), src.len());
        assert_eq!(
            s.match_indices('\n').count(),
            src.match_indices('\n').count()
        );
        assert!(!s.contains("Instant::now"));
        assert!(!s.contains("thread::sleep"));
        assert!(s.contains("let b ="));
        assert!(s.contains("let c = 2;"));
    }

    #[test]
    fn strip_handles_nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let s = strip(src, Mode::Tokens);
        assert!(s.starts_with('a'));
        assert!(s.ends_with('b'));
        assert!(!s.contains("inner"));
        assert!(!s.contains("still"));
    }

    #[test]
    fn strip_handles_raw_strings() {
        let src = r####"let x = r#"lock() "quoted" inside"# + r"plain" + "esc\"aped";"####;
        let s = strip(src, Mode::Tokens);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("lock()"));
        assert!(!s.contains("quoted"));
        assert!(!s.contains("plain"));
        assert!(!s.contains("aped"));
        assert!(s.ends_with(';'));
    }

    #[test]
    fn strip_distinguishes_chars_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; }";
        let s = strip(src, Mode::Tokens);
        assert_eq!(s.len(), src.len());
        assert!(s.contains("<'a>"), "lifetime untouched: {s}");
        assert!(s.contains("&'a str"));
        assert!(!s.contains("'x'"));
    }

    #[test]
    fn test_modules_are_detected() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn case() {}\n}";
        let f = scan(src);
        let ranges = f.test_ranges();
        let in_test = |needle: &str| {
            let pos = src.find(needle).expect("needle in source");
            ranges.iter().any(|r| r.contains(&pos))
        };
        assert!(!in_test("prod"));
        assert!(in_test("helper"));
        assert!(in_test("case"));
    }

    #[test]
    fn waivers_parse_rule_and_reason() {
        let src = "x(); // nimbus-lint: allow(clock) — real-time test\ny(); // nimbus-lint: allow(panic) —\n";
        let f = scan(src);
        let ws = f.waivers();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].rule, "clock");
        assert_eq!(ws[0].reason, "real-time test");
        assert_eq!(ws[0].line, 1);
        assert_eq!(ws[1].rule, "panic");
        assert_eq!(ws[1].reason, "");
    }

    #[test]
    fn line_of_maps_offsets() {
        let f = scan("a\nbb\nccc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(3), 2);
        assert_eq!(f.line_of(5), 3);
    }
}
