//! Process-level diagnostics used by the transport's thread-leak tests.

#![expect(
    clippy::disallowed_methods,
    reason = "polls real OS processes; only meaningful in wall-clock time"
)]

/// Names of this process's live threads (Linux reads `/proc/self/task`;
/// other platforms return an empty list). Kernel thread names are truncated
/// to 15 bytes, so match on prefixes.
pub fn live_thread_names() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
                names.push(comm.trim().to_string());
            }
        }
    }
    names
}

/// Polls until no live thread name starts with `prefix`, up to `timeout`.
/// Returns the surviving names on timeout, or `None` once clear. A thread a
/// transport spawns (the in-process network's delayer; a TCP endpoint
/// spawns none) winds down asynchronously after its owner is dropped, so
/// leak assertions need a bounded wait rather than a single snapshot.
pub fn wait_for_no_thread_with_prefix(
    prefix: &str,
    timeout: std::time::Duration,
) -> Option<Vec<String>> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let leaked: Vec<String> = live_thread_names()
            .into_iter()
            .filter(|n| n.starts_with(prefix))
            .collect();
        if leaked.is_empty() {
            return None;
        }
        if std::time::Instant::now() >= deadline {
            return Some(leaked);
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}
