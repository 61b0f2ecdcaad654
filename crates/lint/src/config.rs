//! Workspace layout and per-rule policy: what gets scanned, where
//! wall-clock time is legitimate, and which modules are panic-free zones.
//!
//! Policy lives here — in one reviewed file — rather than scattered across
//! rule implementations, so loosening it is a visible diff.

use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs` files.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Path prefixes (workspace-relative, `/`-separated) that are never
/// scanned: third-party shims, build output, and the lint crate's own
/// deliberately-bad fixture snippets.
pub const EXCLUDED: &[&str] = &["vendor/", "target/", "crates/lint/tests/fixtures/"];

/// Files and directories where wall-clock primitives (`Instant::now`,
/// `SystemTime::now`, `std::thread::sleep`) are legitimate. Everything
/// else must go through `nimbus_core::clock::Clock` (or carry a waiver).
pub const CLOCK_ALLOWED: &[(&str, &str)] = &[
    (
        "crates/core/src/clock.rs",
        "the Clock abstraction itself: the one sanctioned home of Instant::now",
    ),
    (
        "crates/bench/",
        "benchmarks measure real elapsed time by definition",
    ),
    (
        "crates/net/src/tcp.rs",
        "real OS sockets: dial backoff and accept pacing follow kernel time",
    ),
    (
        "crates/net/src/diagnostics.rs",
        "polls real OS processes; only meaningful in wall-clock time",
    ),
    (
        "crates/runtime/src/bin/",
        "OS-process entry points run under the real clock",
    ),
    (
        "crates/runtime/tests/",
        "multi-process tests coordinate real child processes",
    ),
];

/// Hot modules where panics are denied. The bool is `true` when direct
/// slice/array indexing is also denied (modules that parse untrusted wire
/// input), `false` when only `unwrap`/`expect` are denied (modules whose
/// indices are internal invariants).
pub const PANIC_FREE: &[(&str, bool)] = &[
    // Controller dispatch path — the shell and the per-job machine it
    // drives: a panic here takes down every job on the controller.
    // Internal-invariant indexing is allowed; unwrap/expect are not.
    ("crates/controller/src/controller.rs", false),
    ("crates/controller/src/job.rs", false),
    // Worker hot path — the event loop and the command queue it drives:
    // run-table offsets come from controller-issued ids and go through
    // `get`/`get_mut`; a panic here loses every job's state on the worker.
    ("crates/worker/src/queue.rs", false),
    ("crates/worker/src/worker.rs", false),
    // Codec decode operates on untrusted bytes off the wire: indexing is
    // denied too, so a short frame can never panic the process.
    ("crates/net/src/codec.rs", true),
    ("crates/net/src/framing.rs", true),
];

/// True when the workspace-relative path is excluded from scanning.
pub fn is_excluded(rel: &str) -> bool {
    EXCLUDED.iter().any(|p| rel.starts_with(p))
}

/// Returns the allowlist justification when wall-clock use is legitimate
/// at this path, `None` when the clock rule applies.
pub fn clock_allowance(rel: &str) -> Option<&'static str> {
    CLOCK_ALLOWED
        .iter()
        .find(|(p, _)| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
        .map(|(_, why)| *why)
}

/// Returns `Some(deny_indexing)` when the path is a panic-free zone.
pub fn panic_policy(rel: &str) -> Option<bool> {
    PANIC_FREE
        .iter()
        .find(|(p, _)| rel == *p)
        .map(|(_, idx)| *idx)
}

/// Walks the workspace and returns every scannable `.rs` file as
/// `(workspace-relative path, absolute path)`, sorted for determinism.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        } else if dir.extension().is_some_and(|e| e == "rs") && dir.is_file() {
            push_file(root, &dir, &mut out);
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let rel = rel_of(root, &path);
            if !is_excluded(&format!("{rel}/")) {
                walk(root, &path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            push_file(root, &path, out);
        }
    }
    Ok(())
}

fn push_file(root: &Path, path: &Path, out: &mut Vec<(String, PathBuf)>) {
    let rel = rel_of(root, path);
    if !is_excluded(&rel) {
        out.push((rel, path.to_path_buf()));
    }
}

/// Workspace-relative, `/`-separated path string.
pub fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: walks up from the current directory until a
/// directory containing `crates/lint` appears (so the bin works from any
/// subdirectory and under `cargo run -p nimbus-lint`).
pub fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates/lint").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusions_cover_vendor_and_fixtures() {
        assert!(is_excluded("vendor/serde/src/lib.rs"));
        assert!(is_excluded("crates/lint/tests/fixtures/bad_clock.rs"));
        assert!(!is_excluded("crates/lint/tests/fixtures.rs"));
        assert!(!is_excluded("crates/net/src/codec.rs"));
    }

    #[test]
    fn clock_allowlist_matches_files_and_dirs() {
        assert!(clock_allowance("crates/core/src/clock.rs").is_some());
        assert!(clock_allowance("crates/bench/src/bin/fig7_iteration_time.rs").is_some());
        assert!(clock_allowance("crates/runtime/tests/multiprocess.rs").is_some());
        assert!(clock_allowance("crates/worker/src/executor.rs").is_none());
        assert!(clock_allowance("crates/net/src/transport.rs").is_none());
    }

    #[test]
    fn panic_zones_distinguish_indexing() {
        assert_eq!(panic_policy("crates/net/src/codec.rs"), Some(true));
        assert_eq!(
            panic_policy("crates/controller/src/controller.rs"),
            Some(false)
        );
        assert_eq!(panic_policy("crates/controller/src/job.rs"), Some(false));
        assert_eq!(panic_policy("crates/worker/src/queue.rs"), Some(false));
        assert_eq!(panic_policy("crates/worker/src/worker.rs"), Some(false));
        assert_eq!(panic_policy("crates/worker/src/executor.rs"), None);
    }
}
