//! Stage builders: how a driver program describes parallel operations.
//!
//! A stage is a computation over datasets that expands into one task per
//! partition (Section 3.3). Reads and writes either follow the stage's
//! partitioning (task `p` touches partition `p`) or pin a fixed partition
//! (broadcast reads of a shared model, reductions into a single output).

use nimbus_core::ids::{FunctionId, PartitionIndex};
use nimbus_core::TaskParams;

use crate::context::DatasetHandle;
use crate::dataset::AsDataset;

/// How a stage's tasks map onto a dataset's partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMapping {
    /// Task `p` accesses partition `p` of the dataset.
    Same,
    /// Every task accesses the given fixed partition (broadcast/reduce).
    Fixed(PartitionIndex),
}

/// One dataset access of a stage.
#[derive(Clone, Debug)]
pub struct StageAccess {
    /// The dataset accessed.
    pub dataset: DatasetHandle,
    /// The partition mapping.
    pub mapping: PartitionMapping,
}

/// How per-task parameters are produced.
pub enum StageParams {
    /// Every task receives the same parameter block.
    Shared(TaskParams),
    /// Parameters are computed per partition index.
    PerPartition(Box<dyn Fn(u32) -> TaskParams>),
}

impl StageParams {
    /// Resolves the parameters for partition `p`.
    pub fn for_partition(&self, p: u32) -> TaskParams {
        match self {
            StageParams::Shared(params) => params.clone(),
            StageParams::PerPartition(f) => f(p),
        }
    }
}

/// A declarative description of one stage, built by the driver and expanded
/// into tasks by [`crate::context::Session::submit_stage`].
pub struct StageSpec {
    /// Human-readable stage name (stable across iterations of a block).
    pub name: String,
    /// The application function every task of the stage runs.
    pub function: FunctionId,
    /// Datasets read by each task, in the order the function expects.
    pub reads: Vec<StageAccess>,
    /// Datasets written by each task, in the order the function expects.
    pub writes: Vec<StageAccess>,
    /// Parameter source.
    pub params: StageParams,
    /// Number of tasks; defaults to the partition count of the first
    /// `Same`-mapped access.
    pub partitions: Option<u32>,
}

impl StageSpec {
    /// Starts describing a stage.
    pub fn new(name: impl Into<String>, function: FunctionId) -> Self {
        Self {
            name: name.into(),
            function,
            reads: Vec::new(),
            writes: Vec::new(),
            params: StageParams::Shared(TaskParams::empty()),
            partitions: None,
        }
    }

    /// Adds a partition-aligned read.
    pub fn read<D: AsDataset + ?Sized>(mut self, dataset: &D) -> Self {
        self.reads.push(StageAccess {
            dataset: dataset.dataset_handle().clone(),
            mapping: PartitionMapping::Same,
        });
        self
    }

    /// Adds a broadcast read of one fixed partition (defaults to 0).
    pub fn read_broadcast<D: AsDataset + ?Sized>(mut self, dataset: &D) -> Self {
        self.reads.push(StageAccess {
            dataset: dataset.dataset_handle().clone(),
            mapping: PartitionMapping::Fixed(PartitionIndex(0)),
        });
        self
    }

    /// Adds a read of a specific fixed partition.
    pub fn read_partition<D: AsDataset + ?Sized>(mut self, dataset: &D, partition: u32) -> Self {
        self.reads.push(StageAccess {
            dataset: dataset.dataset_handle().clone(),
            mapping: PartitionMapping::Fixed(PartitionIndex(partition)),
        });
        self
    }

    /// Adds a partition-aligned write.
    pub fn write<D: AsDataset + ?Sized>(mut self, dataset: &D) -> Self {
        self.writes.push(StageAccess {
            dataset: dataset.dataset_handle().clone(),
            mapping: PartitionMapping::Same,
        });
        self
    }

    /// Adds a write to a specific fixed partition (reduction output).
    pub fn write_partition<D: AsDataset + ?Sized>(mut self, dataset: &D, partition: u32) -> Self {
        self.writes.push(StageAccess {
            dataset: dataset.dataset_handle().clone(),
            mapping: PartitionMapping::Fixed(PartitionIndex(partition)),
        });
        self
    }

    /// Sets a shared parameter block for every task of the stage.
    pub fn params(mut self, params: TaskParams) -> Self {
        self.params = StageParams::Shared(params);
        self
    }

    /// Sets a per-partition parameter function.
    pub fn params_per_partition(mut self, f: impl Fn(u32) -> TaskParams + 'static) -> Self {
        self.params = StageParams::PerPartition(Box::new(f));
        self
    }

    /// Overrides the number of tasks.
    pub fn partitions(mut self, n: u32) -> Self {
        self.partitions = Some(n);
        self
    }

    /// The number of tasks this stage expands into.
    pub fn task_count(&self) -> u32 {
        if let Some(n) = self.partitions {
            return n;
        }
        self.reads
            .iter()
            .chain(self.writes.iter())
            .find(|a| a.mapping == PartitionMapping::Same)
            .map(|a| a.dataset.partitions)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::ids::LogicalObjectId;

    fn handle(id: u64, parts: u32) -> DatasetHandle {
        DatasetHandle {
            id: LogicalObjectId(id),
            name: format!("d{id}"),
            partitions: parts,
        }
    }

    #[test]
    fn task_count_follows_same_mapped_access() {
        let d = handle(1, 8);
        let g = handle(2, 1);
        let s = StageSpec::new("gradient", FunctionId(1))
            .read(&d)
            .read_broadcast(&g)
            .write(&d);
        assert_eq!(s.task_count(), 8);
        let reduce = StageSpec::new("reduce", FunctionId(2))
            .read_partition(&d, 3)
            .write_partition(&g, 0);
        assert_eq!(reduce.task_count(), 1);
        let forced = StageSpec::new("forced", FunctionId(3)).partitions(5);
        assert_eq!(forced.task_count(), 5);
    }

    #[test]
    fn params_resolution() {
        let shared = StageSpec::new("a", FunctionId(1)).params(TaskParams::from_scalar(2.0));
        assert_eq!(shared.params.for_partition(7).as_scalar().unwrap(), 2.0);
        let per = StageSpec::new("b", FunctionId(1))
            .params_per_partition(|p| TaskParams::from_scalar(p as f64));
        assert_eq!(per.params.for_partition(3).as_scalar().unwrap(), 3.0);
    }

    #[test]
    fn task_count_without_same_mapped_access_defaults_to_one() {
        // All accesses pin fixed partitions: nothing implies a width, so the
        // stage is a single task regardless of the datasets' partition counts.
        let d = handle(1, 8);
        let e = handle(2, 16);
        let s = StageSpec::new("pinned", FunctionId(1))
            .read_partition(&d, 7)
            .read_broadcast(&e)
            .write_partition(&e, 3);
        assert_eq!(s.task_count(), 1);
        // No accesses at all behaves the same.
        assert_eq!(StageSpec::new("empty", FunctionId(1)).task_count(), 1);
    }

    #[test]
    fn partitions_override_beats_same_and_fixed_mappings() {
        let d = handle(1, 8);
        let g = handle(2, 1);
        // Same-mapped access says 8, the override says 3: the override wins,
        // whether set before or after the accesses.
        let after = StageSpec::new("a", FunctionId(1)).read(&d).partitions(3);
        assert_eq!(after.task_count(), 3);
        let before = StageSpec::new("b", FunctionId(1)).partitions(3).read(&d);
        assert_eq!(before.task_count(), 3);
        // Override combined with only fixed mappings: still the override.
        let fixed = StageSpec::new("c", FunctionId(1))
            .read_partition(&d, 2)
            .write_partition(&g, 0)
            .partitions(5);
        assert_eq!(fixed.task_count(), 5);
        // The first Same-mapped access decides when several disagree.
        let mixed = StageSpec::new("d", FunctionId(1))
            .read_partition(&g, 0)
            .read(&d)
            .write(&handle(3, 2));
        assert_eq!(mixed.task_count(), 8);
    }

    #[test]
    fn for_partition_per_partition_closure_sees_every_index() {
        let per = StageParams::PerPartition(Box::new(|p| TaskParams::from_u64s(&[p as u64 * 2])));
        for p in [0u32, 1, 31] {
            assert_eq!(
                per.for_partition(p).as_u64s().unwrap(),
                vec![p as u64 * 2],
                "partition {p}"
            );
        }
        // Shared params are cloned identically for any index, including ones
        // past the stage's width.
        let shared = StageParams::Shared(TaskParams::from_scalar(4.0));
        assert_eq!(shared.for_partition(0).as_scalar().unwrap(), 4.0);
        assert_eq!(shared.for_partition(1_000_000).as_scalar().unwrap(), 4.0);
        // An empty shared block stays empty per task.
        let empty = StageParams::Shared(TaskParams::empty());
        assert!(empty.for_partition(9).is_empty());
    }
}
