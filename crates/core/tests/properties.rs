//! Randomized tests for the core control-plane invariants.
//!
//! These were originally proptest properties; the vendored build has no
//! crates.io access, so each property now runs over a fixed number of cases
//! drawn from the workspace's seeded deterministic generator. Failures are
//! reproducible: every case prints its seed on panic via the assert context.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nimbus_core::ids::{FunctionId, PhysicalObjectId, StageId, TaskId, TemplateId, WorkerId};
use nimbus_core::template::{
    ControllerTaskEntry, ControllerTemplate, InstantiationParams, SkeletonEntry, SkeletonKind,
    TemplateEdit, WorkerInstantiation, WorkerTemplate,
};
use nimbus_core::versioning::VersionMap;
use nimbus_core::{LogicalPartition, TaskParams};

const CASES: u64 = 64;

fn random_params(rng: &mut StdRng, max_len: usize) -> TaskParams {
    let len = rng.gen_range(0..max_len + 1);
    let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect();
    TaskParams::from_f64s(&values)
}

/// Parameter blocks decode to exactly the values they encoded.
#[test]
fn params_round_trip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..64);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e9..1e9)).collect();
        let p = TaskParams::from_f64s(&values);
        assert_eq!(p.as_f64s().unwrap(), values, "seed {seed}");
    }
}

/// Version maps only move forward, no matter the interleaving of writes.
#[test]
fn version_map_is_monotonic() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let writes = rng.gen_range(1usize..200);
        let mut versions = VersionMap::new();
        let mut last = std::collections::HashMap::new();
        for _ in 0..writes {
            let p = rng.gen_range(0u32..8);
            let lp = LogicalPartition::new(
                nimbus_core::LogicalObjectId(1),
                nimbus_core::PartitionIndex(p),
            );
            let v = versions.bump(lp);
            let prev = last.insert(lp, v);
            if let Some(prev) = prev {
                assert!(v > prev, "seed {seed}");
            }
        }
    }
}

/// Instantiating a controller template preserves structure and applies
/// exactly the supplied task identifiers, independent of parameters.
#[test]
fn controller_template_instantiation_preserves_structure() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let task_count = rng.gen_range(1usize..40);
        let base = rng.gen_range(1u64..1_000_000);
        let params: Vec<TaskParams> = (0..task_count)
            .map(|_| random_params(&mut rng, 8))
            .collect();
        let entries: Vec<ControllerTaskEntry> = (0..task_count)
            .map(|i| ControllerTaskEntry {
                index: i,
                stage: StageId(1 + (i % 3) as u64),
                function: FunctionId(7),
                reads: vec![LogicalPartition::new(
                    nimbus_core::LogicalObjectId(1),
                    nimbus_core::PartitionIndex(i as u32),
                )],
                writes: vec![LogicalPartition::new(
                    nimbus_core::LogicalObjectId(2),
                    nimbus_core::PartitionIndex(i as u32),
                )],
                before: if i == 0 { vec![] } else { vec![i - 1] },
                assigned_worker: WorkerId((i % 4) as u32),
                default_params: TaskParams::empty(),
            })
            .collect();
        let template = ControllerTemplate::new(TemplateId(1), "block", entries).unwrap();
        let ids: Vec<TaskId> = (0..task_count as u64).map(|i| TaskId(base + i)).collect();
        let per_task = InstantiationParams::PerTask(params.clone());
        let specs = template.instantiate(&ids, &per_task).unwrap();
        assert_eq!(specs.len(), task_count, "seed {seed}");
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id, ids[i], "seed {seed}");
            assert_eq!(spec.function, FunctionId(7), "seed {seed}");
            assert_eq!(&spec.params, &params[i], "seed {seed}");
            assert_eq!(
                spec.preferred_worker,
                Some(WorkerId((i % 4) as u32)),
                "seed {seed}"
            );
        }
    }
}

/// Removing entries via edits never changes the command identifiers of the
/// surviving entries (index stability, Section 4.3) and never makes
/// instantiation fail.
#[test]
fn edits_keep_surviving_indices_stable() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let entry_count = rng.gen_range(2usize..30);
        let remove_count = rng.gen_range(1usize..8);
        let entries: Vec<SkeletonEntry> = (0..entry_count)
            .map(|i| {
                SkeletonEntry::new(SkeletonKind::RunTask {
                    function: FunctionId(1),
                    task_slot: i,
                })
                .with_writes(vec![PhysicalObjectId(i as u64 + 1)])
                .with_before(if i == 0 { vec![] } else { vec![i - 1] })
                .with_param_slot(i)
            })
            .collect();
        let mut template =
            WorkerTemplate::new(TemplateId(1), TemplateId(1), WorkerId(0), entries).unwrap();
        let instantiation = WorkerInstantiation {
            template: TemplateId(1),
            base_command_id: 100,
            base_transfer_id: 0,
            task_ids: (0..entry_count as u64).map(TaskId).collect(),
            params: vec![TaskParams::empty(); entry_count],
            edits: vec![],
        };
        let before_edit = template.instantiate(&instantiation).unwrap();
        let removed: std::collections::HashSet<usize> = (0..remove_count)
            .map(|_| rng.gen_range(0usize..entry_count))
            .collect();
        let edits: Vec<TemplateEdit> = removed
            .iter()
            .map(|i| TemplateEdit::RemoveEntry { index: *i })
            .collect();
        template.apply_edits(&edits).unwrap();
        let after_edit = template.instantiate(&instantiation).unwrap();
        assert_eq!(after_edit.len(), entry_count - removed.len(), "seed {seed}");
        // Every surviving command keeps the exact identifier it had before.
        let before_ids: std::collections::HashMap<_, _> = before_edit
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.id))
            .collect();
        for command in &after_edit {
            let original_index = (command.id.raw() - 100) as usize;
            assert!(!removed.contains(&original_index), "seed {seed}");
            assert_eq!(command.id, before_ids[&original_index], "seed {seed}");
        }
    }
}
