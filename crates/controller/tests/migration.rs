//! The move planner (`TemplateManager::plan_migrations` /
//! `plan_migrations_to`) on the fabric-free fixture of `common`: structural
//! bounds that must not depend on how many migrations a block has seen, and a
//! seeded property test over random planning sequences. Every instantiation
//! in here is also *executed* symbolically, so each test additionally checks
//! that every task saw the right versions and its own parameter.

mod common;

use common::{Fixture, Shape};
use nimbus_core::ids::{JobId, WorkerId};
use nimbus_core::template::WorkerInstantiation;
use nimbus_net::{ControllerToWorker, Message};

/// ISSUE 13's structural bound: 2 workers, 64 independent tasks, 200
/// two-task migrations. Nothing may grow with the number of migrations, and
/// an independent block needs no copies at all once the moved data is there.
#[test]
fn two_hundred_migrations_leave_an_independent_block_its_original_size() {
    let mut f = Fixture::new(Shape::Independent, 2, 64);
    f.instantiate();
    for round in 0..200 {
        assert_eq!(f.migrate(2), 2, "round {round}");
        let edited = f.instantiate();
        assert!(!edited.auto_validated, "an edited instantiation validates");
        assert!(edited.edits > 0);
        // The moved tasks' data follows once, through the patch: per task an
        // allocation, a send, and a receive.
        assert_eq!(edited.patch_commands, 6, "round {round}");
        let steady = f.instantiate();
        assert!(
            steady.auto_validated,
            "round {round}: auto-validation resumes"
        );
        assert_eq!((steady.edits, steady.patch_commands), (0, 0));
        assert_eq!(steady.commands, 64, "round {round}: one command per task");
        assert!(steady.task_ids_sent <= 128);
        f.check_structure();
        assert_eq!(f.live_entries(), 64);
        assert_eq!((f.send_entries(), f.receive_entries()), (0, 0));
        assert!(f.group().total_entries() <= 64 + 2 * 2, "round {round}");
        assert!(f.dm.instance_count() <= 128);
        assert_eq!(f.group().preconditions.len(), 64);
        assert_eq!(f.group().transfer_slots, 0);
    }
    // The schedule the benchmark uses drains worker 0 and then passes two
    // tasks back and forth.
    assert_eq!(f.tasks_on(WorkerId(0)) + f.tasks_on(WorkerId(1)), 64);
}

/// On a reduce-style block a moved task keeps exactly one send/receive pair
/// while it is away from the reducer's worker and none while it is on it, no
/// matter how many times it moved.
#[test]
fn a_reduce_block_keeps_one_pair_per_remote_task_however_often_tasks_move() {
    let mut f = Fixture::new(Shape::Reduce, 2, 16);
    f.instantiate();
    let reducer = f
        .group()
        .per_worker
        .iter()
        .find(|(_, t)| t.task_count() > 0 && t.entries.iter().any(|e| e.reads.len() == 16))
        .map(|(w, _)| *w)
        .expect("the reducer runs somewhere");
    let baseline_entries = f.group().total_entries();
    for round in 0..120 {
        assert_eq!(f.migrate(2), 2, "round {round}");
        assert!(!f.instantiate().auto_validated);
        assert!(f.instantiate().auto_validated, "round {round}");
        f.check_structure();
        let remote = 17 - f.tasks_on(reducer);
        assert_eq!(
            f.send_entries(),
            remote,
            "round {round}: one send per remote task"
        );
        assert_eq!(f.receive_entries(), remote, "round {round}");
        assert_eq!(f.live_entries(), 17 + 2 * remote);
        assert!(f.group().total_entries() <= baseline_entries + 16 + 4);
        assert!(f.group().transfer_slots <= 16);
        assert!(f.dm.instance_count() <= 2 * 17);
    }
}

/// Several planning rounds between two instantiations compose: each round
/// sees the tasks where the previous one put them.
#[test]
fn planning_rounds_before_one_instantiation_compose() {
    let mut f = Fixture::new(Shape::Reduce, 3, 9);
    f.instantiate();
    for _ in 0..4 {
        f.migrate(2);
        f.migrate_to(WorkerId(2), 3);
        f.migrate(1);
        f.instantiate();
        f.check_structure();
        assert!(f.instantiate().auto_validated);
    }
}

/// Table 3's claim in bytes: after a migration, the edits that the next
/// instantiation messages carry cost fewer wire bytes than reinstalling the
/// template of every worker they edit.
#[test]
fn edits_cost_fewer_wire_bytes_than_reinstalling_the_edited_templates() {
    let job = JobId(1);
    let size = |m: ControllerToWorker| Message::ToWorker(m).wire_size();
    let instantiate =
        |inst: WorkerInstantiation| size(ControllerToWorker::InstantiateTemplate { job, inst });
    for (shape, tasks) in [
        (Shape::Independent, 64),
        (Shape::Reduce, 16),
        (Shape::Broadcast, 16),
    ] {
        for k in [1, 3] {
            let mut f = Fixture::new(shape, 2, tasks);
            f.instantiate();
            assert_eq!(f.migrate(k), k, "{shape:?}, k = {k}");
            let edited = f.instantiate();
            let (mut edit_bytes, mut reinstall_bytes) = (0, 0);
            for (worker, inst) in edited.sent.into_iter().filter(|(_, i)| !i.edits.is_empty()) {
                let bare = WorkerInstantiation {
                    edits: Vec::new(),
                    ..inst.clone()
                };
                edit_bytes += instantiate(inst) - instantiate(bare);
                let template = f.group().per_worker[&worker].clone();
                reinstall_bytes += size(ControllerToWorker::InstallTemplate { job, template });
            }
            assert!(edit_bytes > 0, "{shape:?}, k = {k}: no edits shipped");
            assert!(
                edit_bytes < reinstall_bytes,
                "{shape:?}, k = {k}: {edit_bytes} B of edits, {reinstall_bytes} B to reinstall"
            );
        }
    }
}

/// Tasks with inputs: the never-written data partition follows once; the
/// weights the block rewrites are read from an object the destination keeps
/// refreshed, so the group still validates itself.
#[test]
fn tasks_with_block_written_inputs_keep_the_group_self_validating() {
    for workers in 2..=4 {
        let mut f = Fixture::new(Shape::Broadcast, workers, 8);
        f.instantiate();
        let sends = f.send_entries();
        for round in 0..40 {
            f.migrate(2);
            f.instantiate();
            f.check_structure();
            assert!(
                f.instantiate().auto_validated,
                "{workers} workers, round {round}"
            );
            // Gradients are sent to the updater at most once each, weights
            // to every worker at most twice (shared, plus one spare object).
            assert!(f.send_entries() <= sends + 8 + 2 * workers as usize);
        }
    }
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random sequences of `plan_migrations`, `plan_migrations_to` and
/// `plan_instantiation` on 2–4 workers and all three block shapes. After
/// every step the structural invariants hold; sizes stay under bounds that
/// know nothing about the number of migrations; and the second instantiation
/// after any edit is auto-validated again.
#[test]
fn random_planning_sequences_keep_every_invariant() {
    for seed in 0..48u64 {
        let mut rng = SplitMix(seed);
        let shape = [Shape::Independent, Shape::Reduce, Shape::Broadcast][(seed % 3) as usize];
        let workers = 2 + rng.below(3) as u32;
        let tasks = 4 + rng.below(9) as u32;
        let mut f = Fixture::new(shape, workers, tasks);
        f.instantiate();
        let entries = f.entries();
        // Tombstones included, a worker's skeleton is as long as the most it
        // ever held at once: at worst every task with a send of its output,
        // plus a few refresh copies of a shared input.
        let entry_bound = (2 * entries + 4) * workers as usize;
        let slot_bound = entries * workers as usize;
        let instance_bound = 2 * (2 * tasks as usize + 2) * workers as usize;
        let mut edited = false;
        for step in 0..150 {
            match rng.below(4) {
                0 => edited |= f.migrate(1 + rng.below(4) as usize) > 0,
                1 => {
                    let dest = WorkerId(rng.below(u64::from(workers)) as u32);
                    edited |= f.migrate_to(dest, 1 + rng.below(3) as usize) > 0;
                }
                _ => {
                    let run = f.instantiate();
                    let context = format!("seed {seed} step {step} {shape:?} x{workers}");
                    if edited {
                        assert!(!run.auto_validated, "{context}");
                        assert!(f.instantiate().auto_validated, "{context}");
                    } else {
                        assert!(run.auto_validated, "{context}");
                    }
                    edited = false;
                    assert!(run.task_ids_sent <= slot_bound, "{context}");
                    assert!(f.group().total_entries() <= entry_bound, "{context}");
                    assert!(f.dm.instance_count() <= instance_bound, "{context}");
                    assert!(f.group().transfer_slots <= entry_bound, "{context}");
                }
            }
            if !edited {
                f.check_structure();
            }
        }
    }
}
