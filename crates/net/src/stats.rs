//! Network traffic statistics.
//!
//! The transports record one entry per delivered message on the hottest path
//! of the whole system, so the shared recorder ([`SharedNetworkStats`]) is
//! built from plain atomics: recording a message is a handful of relaxed
//! `fetch_add`s, never a lock, and never a clone. Per-tag counts are an
//! array with one atomic slot per [`Tag`], indexed by the tag itself.
//! Snapshots ([`NetworkStats`]) are the plain owned struct the reports and
//! tests consume.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::message::Tag;

/// Lock-free traffic counters shared between a fabric and its endpoints.
///
/// All loads and stores are `Relaxed`: the counters are statistics, not
/// synchronization, and a snapshot taken while traffic flows is allowed to
/// be mid-flight by a message.
#[derive(Debug)]
pub struct SharedNetworkStats {
    messages: AtomicU64,
    control_bytes: AtomicU64,
    data_bytes: AtomicU64,
    frames_coalesced: AtomicU64,
    batched_commands: AtomicU64,
    tcp_writes: AtomicU64,
    by_tag: [AtomicU64; Tag::COUNT],
}

impl Default for SharedNetworkStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedNetworkStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self {
            messages: AtomicU64::new(0),
            control_bytes: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
            frames_coalesced: AtomicU64::new(0),
            batched_commands: AtomicU64::new(0),
            tcp_writes: AtomicU64::new(0),
            by_tag: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one delivered message.
    pub fn record(&self, tag: Tag, bytes: usize, is_data: bool) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        if is_data {
            self.data_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            self.control_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
        self.by_tag[tag as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records that `n` messages were delivered through one batched send
    /// (`n >= 2`): the batch saved `n - 1` frames over `n` single sends.
    pub fn record_batch(&self, n: u64) {
        self.batched_commands.fetch_add(n, Ordering::Relaxed);
        self.frames_coalesced
            .fetch_add(n.saturating_sub(1), Ordering::Relaxed);
    }

    /// Records one `write(2)` issued by a TCP writer (one per flushed frame
    /// or batch — the counter the syscall-per-flush tests pin).
    pub fn record_tcp_write(&self) {
        self.tcp_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes an owned snapshot of every counter.
    pub fn snapshot(&self) -> NetworkStats {
        let mut by_tag = HashMap::new();
        for (tag, slot) in Tag::ALL.iter().zip(&self.by_tag) {
            let count = slot.load(Ordering::Relaxed);
            if count > 0 {
                by_tag.insert(tag.as_str().to_string(), count);
            }
        }
        NetworkStats {
            messages: self.messages.load(Ordering::Relaxed),
            control_bytes: self.control_bytes.load(Ordering::Relaxed),
            data_bytes: self.data_bytes.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            batched_commands: self.batched_commands.load(Ordering::Relaxed),
            tcp_writes: self.tcp_writes.load(Ordering::Relaxed),
            by_tag,
        }
    }
}

/// An owned snapshot of the transport's counters, split into control plane
/// and data plane.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Total messages delivered.
    pub messages: u64,
    /// Control-plane bytes delivered.
    pub control_bytes: u64,
    /// Data-plane bytes delivered.
    pub data_bytes: u64,
    /// Frames saved by batched sends: each batch of `n` messages crosses the
    /// wire as one frame instead of `n`, saving `n - 1`.
    pub frames_coalesced: u64,
    /// Messages that were delivered through a batched send.
    pub batched_commands: u64,
    /// `write(2)` calls issued by TCP writers (one per flushed frame or
    /// batch).
    pub tcp_writes: u64,
    /// Message counts by tag.
    pub by_tag: HashMap<String, u64>,
}

impl NetworkStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes delivered over both planes.
    pub fn total_bytes(&self) -> u64 {
        self.control_bytes + self.data_bytes
    }

    /// Count of messages with a given tag.
    pub fn count(&self, tag: &str) -> u64 {
        self.by_tag.get(tag).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_stats_snapshot_matches_recorded_traffic() {
        let shared = SharedNetworkStats::new();
        shared.record(Tag::SubmitTask, 100, false);
        shared.record(Tag::DataTransfer, 1000, true);
        shared.record(Tag::SubmitTask, 50, false);
        shared.record_batch(4);
        shared.record_tcp_write();
        let s = shared.snapshot();
        assert_eq!(s.messages, 3);
        assert_eq!(s.control_bytes, 150);
        assert_eq!(s.data_bytes, 1000);
        assert_eq!(s.total_bytes(), 1150);
        assert_eq!(s.count("submit_task"), 2);
        assert_eq!(s.count("data_transfer"), 1);
        assert_eq!(s.count("missing"), 0);
        assert_eq!(s.batched_commands, 4);
        assert_eq!(s.frames_coalesced, 3);
        assert_eq!(s.tcp_writes, 1);
    }

    #[test]
    fn snapshot_keys_are_the_names_of_the_tags_recorded() {
        let shared = SharedNetworkStats::new();
        for (i, tag) in Tag::ALL.iter().enumerate() {
            for _ in 0..=i {
                shared.record(*tag, 1, false);
            }
        }
        let s = shared.snapshot();
        assert_eq!(s.by_tag.len(), Tag::COUNT);
        for (i, tag) in Tag::ALL.iter().enumerate() {
            assert_eq!(s.count(tag.as_str()), i as u64 + 1, "{tag:?}");
        }
    }
}
