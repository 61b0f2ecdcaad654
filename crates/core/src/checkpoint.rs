//! Checkpoint structures for fault recovery (Section 4.4).
//!
//! Nimbus automatically inserts checkpoints into the task stream. When a
//! checkpoint triggers, the controller waits for worker queues to drain,
//! snapshots the execution state (version map, instance map, iteration
//! counters), and asks every worker to persist its live objects. On worker
//! failure the controller reverts to the snapshot and reloads the data.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::ids::{CheckpointId, LogicalPartition, Version, WorkerId};
use crate::versioning::{InstanceMap, VersionMap};

/// A manifest entry: one logical partition persisted by one worker.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The partition persisted.
    pub partition: LogicalPartition,
    /// The version persisted.
    pub version: Version,
    /// The worker that wrote it.
    pub worker: WorkerId,
    /// The storage key the data was written under.
    pub key: String,
}

/// A complete checkpoint descriptor kept by the controller.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CheckpointDescriptor {
    /// Identifier of the checkpoint.
    pub id: CheckpointId,
    /// Version map at the time of the snapshot.
    pub versions: VersionMap,
    /// Instance map at the time of the snapshot.
    pub instances: InstanceMap,
    /// Data persisted to durable storage.
    pub manifest: Vec<CheckpointEntry>,
    /// Opaque application progress marker (for example the iteration index)
    /// the driver supplied when the checkpoint was taken.
    pub progress_marker: u64,
}

impl CheckpointDescriptor {
    /// Returns the storage key for a partition, if it was persisted.
    pub fn key_for(&self, partition: LogicalPartition) -> Option<&str> {
        self.manifest
            .iter()
            .find(|e| e.partition == partition)
            .map(|e| e.key.as_str())
    }

    /// Returns the cutoff versions covered by this checkpoint (used to
    /// truncate the lineage log).
    pub fn cutoff(&self) -> HashMap<LogicalPartition, Version> {
        self.manifest
            .iter()
            .map(|e| (e.partition, e.version))
            .collect()
    }
}

/// Controller-side collection of checkpoints, most recent last.
#[derive(Clone, Debug, Default)]
pub struct CheckpointLog {
    checkpoints: Vec<CheckpointDescriptor>,
}

impl CheckpointLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a committed checkpoint.
    pub fn commit(&mut self, descriptor: CheckpointDescriptor) {
        self.checkpoints.push(descriptor);
    }

    /// Returns the most recent checkpoint.
    pub fn latest(&self) -> Option<&CheckpointDescriptor> {
        self.checkpoints.last()
    }

    /// Returns a checkpoint by id.
    pub fn get(&self, id: CheckpointId) -> Option<&CheckpointDescriptor> {
        self.checkpoints.iter().find(|c| c.id == id)
    }

    /// Number of committed checkpoints.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Returns true if no checkpoint has been committed.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Drops all but the most recent `keep` checkpoints and returns the
    /// storage keys that can be deleted.
    pub fn prune(&mut self, keep: usize) -> Vec<String> {
        if self.checkpoints.len() <= keep {
            return Vec::new();
        }
        let cut = self.checkpoints.len() - keep;
        let removed: Vec<CheckpointDescriptor> = self.checkpoints.drain(0..cut).collect();
        removed
            .into_iter()
            .flat_map(|c| c.manifest.into_iter().map(|e| e.key))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LogicalObjectId, PartitionIndex};

    fn lp(o: u64, p: u32) -> LogicalPartition {
        LogicalPartition::new(LogicalObjectId(o), PartitionIndex(p))
    }

    fn descriptor(id: u64, marker: u64) -> CheckpointDescriptor {
        CheckpointDescriptor {
            id: CheckpointId(id),
            versions: VersionMap::new(),
            instances: InstanceMap::new(),
            manifest: vec![CheckpointEntry {
                partition: lp(1, 0),
                version: Version(3),
                worker: WorkerId(0),
                key: format!("ckpt/{id}/1/0"),
            }],
            progress_marker: marker,
        }
    }

    #[test]
    fn descriptor_lookup_helpers() {
        let d = descriptor(1, 7);
        assert_eq!(d.key_for(lp(1, 0)), Some("ckpt/1/1/0"));
        assert_eq!(d.key_for(lp(2, 0)), None);
        assert_eq!(d.cutoff()[&lp(1, 0)], Version(3));
    }

    #[test]
    fn log_latest_and_prune() {
        let mut log = CheckpointLog::new();
        assert!(log.is_empty());
        log.commit(descriptor(1, 10));
        log.commit(descriptor(2, 20));
        log.commit(descriptor(3, 30));
        assert_eq!(log.len(), 3);
        assert_eq!(log.latest().unwrap().id, CheckpointId(3));
        assert!(log.get(CheckpointId(2)).is_some());
        let removed_keys = log.prune(1);
        assert_eq!(removed_keys.len(), 2);
        assert_eq!(log.len(), 1);
        assert_eq!(log.latest().unwrap().progress_marker, 30);
        assert!(log.prune(5).is_empty());
    }
}
