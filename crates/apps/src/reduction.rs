//! Application-level two-level reduction trees.
//!
//! Like the paper's Nimbus and Naiad implementations of logistic regression
//! and k-means, the built-in workloads reduce per-partition partial results
//! through a two-level tree: partitions are grouped, each group reduces into
//! an intermediate partition, and a final task reduces the intermediates into
//! the global value. Reductions run as ordinary tasks on workers, so they
//! never bottleneck on the controller.

use nimbus_core::ids::FunctionId;
use nimbus_core::TaskParams;
use nimbus_driver::{AsDataset, DriverResult, Session, StageSpec};

/// Returns the group size used for `partitions` inputs (√P rounded up).
pub fn group_size(partitions: u32) -> u32 {
    (partitions as f64).sqrt().ceil() as u32
}

/// Number of intermediate partitions needed for `partitions` inputs.
pub fn intermediate_partitions(partitions: u32) -> u32 {
    let g = group_size(partitions);
    partitions.div_ceil(g)
}

/// Submits a two-level reduction of `partials` into partition 0 of `output`,
/// using `intermediate` for the first level. `reduce_fn` must read any number
/// of inputs of the partial type and write their combination to its single
/// write object.
pub fn submit_two_level_reduce(
    ctx: &mut Session,
    name: &str,
    reduce_fn: FunctionId,
    partials: &impl AsDataset,
    intermediate: &impl AsDataset,
    output: &impl AsDataset,
    params: TaskParams,
) -> DriverResult<()> {
    let p = partials.dataset_handle().partitions;
    let g = group_size(p);
    let groups = intermediate_partitions(p);
    assert!(
        intermediate.dataset_handle().partitions >= groups,
        "intermediate dataset '{}' needs at least {groups} partitions",
        intermediate.dataset_handle().name
    );
    // Level 1: one task per group.
    for group in 0..groups {
        let mut stage = StageSpec::new(format!("{name}_l1_{group}"), reduce_fn)
            .partitions(1)
            .params(params.clone());
        for member in (group * g)..((group + 1) * g).min(p) {
            stage = stage.read_partition(partials, member);
        }
        stage = stage.write_partition(intermediate, group);
        ctx.submit_stage(stage)?;
    }
    // Level 2: one task reducing the intermediates into the output.
    let mut stage = StageSpec::new(format!("{name}_l2"), reduce_fn)
        .partitions(1)
        .params(params);
    for group in 0..groups {
        stage = stage.read_partition(intermediate, group);
    }
    stage = stage.write_partition(output, 0);
    ctx.submit_stage(stage)
}

/// Number of tasks a two-level reduction of `partitions` inputs submits.
pub fn reduction_task_count(partitions: u32) -> u32 {
    intermediate_partitions(partitions) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sizing() {
        assert_eq!(group_size(1), 1);
        assert_eq!(group_size(16), 4);
        assert_eq!(group_size(100), 10);
        assert_eq!(group_size(101), 11);
        assert_eq!(intermediate_partitions(16), 4);
        assert_eq!(intermediate_partitions(100), 10);
        assert_eq!(intermediate_partitions(10), 3);
        assert_eq!(reduction_task_count(16), 5);
    }
}
