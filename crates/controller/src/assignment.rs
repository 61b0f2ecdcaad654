//! Partition-to-worker assignment.
//!
//! The paper deliberately does not study scheduling *policy* (Section 6);
//! this simple policy decides where a partition lives when it is first
//! touched or when the worker allocation changes.

use nimbus_core::ids::{LogicalPartition, WorkerId};

/// How the controller assigns partitions to workers.
#[derive(Debug, Clone, Default)]
pub enum AssignmentPolicy {
    /// Partition index modulo the number of workers: deterministic and
    /// balanced when datasets have the same partition count (the common case
    /// for the paper's workloads).
    #[default]
    Hash,
}

impl AssignmentPolicy {
    /// Creates the default (hash) policy.
    pub fn hash() -> Self {
        AssignmentPolicy::Hash
    }

    /// Picks a worker for a partition from the active worker list.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty; callers check allocation first.
    pub fn assign(&self, lp: LogicalPartition, workers: &[WorkerId]) -> WorkerId {
        assert!(
            !workers.is_empty(),
            "assignment requires at least one worker"
        );
        match self {
            AssignmentPolicy::Hash => {
                let idx = (lp.partition.raw() as usize) % workers.len();
                workers[idx]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::ids::{LogicalObjectId, PartitionIndex};

    fn lp(p: u32) -> LogicalPartition {
        LogicalPartition::new(LogicalObjectId(1), PartitionIndex(p))
    }

    fn workers(n: u32) -> Vec<WorkerId> {
        (0..n).map(WorkerId).collect()
    }

    #[test]
    fn hash_policy_is_deterministic_and_balanced() {
        let p = AssignmentPolicy::hash();
        let ws = workers(4);
        assert_eq!(p.assign(lp(0), &ws), WorkerId(0));
        assert_eq!(p.assign(lp(5), &ws), WorkerId(1));
        assert_eq!(p.assign(lp(5), &ws), WorkerId(1));
        let mut counts = [0usize; 4];
        for i in 0..100 {
            counts[p.assign(lp(i), &ws).raw() as usize] += 1;
        }
        assert!(counts.iter().all(|c| *c == 25));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_worker_list_panics() {
        AssignmentPolicy::hash().assign(lp(0), &[]);
    }
}
