//! The committed regression bank: one schedule per bug the simulator has
//! caught (or per recovery race fixed in earlier PRs), each small enough to
//! read. Every schedule is replayed twice — the run must validate *and* the
//! two traces must be bit-identical — so a reintroduced bug fails loudly and
//! a determinism regression fails just as loudly.
//!
//! Decision indices in these plans were picked from rendered calm traces
//! (see `SimTrace::render`); the surrounding wire traffic each index targets
//! is named in the comments so the plans stay auditable when schedules
//! drift.

use std::collections::BTreeSet;

use nimbus_core::ids::WorkerId;
use nimbus_dst::{run_plan, shrink, FaultKind, Scenario, SchedulePlan, SimReport, TraceEvent};
use nimbus_net::NodeId;

/// Runs `plan` twice: the run must validate against the scenario and both
/// runs must produce bit-identical traces. Returns the first run's report
/// for schedule-specific assertions.
fn replay(scenario: &Scenario, plan: &SchedulePlan) -> SimReport {
    let first = run_plan(scenario, plan);
    if let Err(why) = scenario.validate(plan, &first) {
        panic!(
            "regression schedule failed validation: {why}\n\n{}",
            first.trace.render()
        );
    }
    let second = run_plan(scenario, plan);
    assert_eq!(
        first.trace.fingerprint(),
        second.trace.fingerprint(),
        "replay diverged for {}",
        plan.describe()
    );
    first
}

/// Number of faults from the plan that were actually injected (not skipped).
fn faults_applied(report: &SimReport) -> usize {
    report
        .trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Fault(_)))
        .count()
}

/// Recovery-during-recovery lost partition state (found by this harness,
/// seed 102 on `churn`, then shrunk to the plan below).
///
/// Two overlapping recoveries — worker-2 delayed and killed mid-run, then
/// worker-0 killed and rejoined while the first recovery's re-homing was
/// still the live layout — used to replay `add` on factory zeros: the
/// checkpoint restore recreated rejoined-worker instances with checkpointed
/// *versions* but factory *contents*, and in-place task writes carried no
/// preconditions, so validation never patched them. Fixed by giving RunTask
/// writes block-entry preconditions (template_manager) and marking recreated
/// instances stale (controller::complete_recovery). Totals were
/// `[64, 128, 192, 256, 312]` under the bug; the closed form demands 320.
#[test]
fn recovery_during_recovery_preserves_partition_state() {
    let scenario = Scenario::by_name("churn").unwrap();
    let plan = SchedulePlan {
        seed: 102,
        faults: vec![],
        chaos_at: Some(
            [
                0u64, 5, 6, 35, 36, 39, 135, 144, 146, 147, 150, 152, 153, 154, 155,
            ]
            .into_iter()
            .collect::<BTreeSet<u64>>(),
        ),
    }
    .with_fault(
        76,
        FaultKind::DelayLink {
            from: NodeId::Worker(WorkerId(2)),
            to: NodeId::Controller,
            decisions: 14,
        },
    )
    .with_fault(152, FaultKind::Kill(WorkerId(2)))
    .with_fault(209, FaultKind::Kill(WorkerId(0)))
    .with_fault(250, FaultKind::Rejoin(WorkerId(0)));
    replay(&scenario, &plan);
}

/// Orphaned template references after a second restore of the same
/// checkpoint (found by this harness, seed 214 on `churn`, shrunk to the
/// plan below; seed 314 hit the same bug).
///
/// Kill worker-1, let it rejoin, then kill and rejoin it *again* before the
/// next checkpoint commits. The second restore rewinds the instance map to
/// the same checkpoint, but the template mirror keeps recovery #1's
/// migration edits — whose preconditions name instances created *after*
/// that checkpoint. Those orphans used to make `emit_patch_commands` skip
/// the destination `CreateData` (unknown object), so the repair copy landed
/// on a worker that never allocated it, the receive failed silently, and
/// the final total came up short (272 for 320). Fixed by re-registering
/// missing precondition instances, stale, from the precondition's own
/// metadata (template_manager::plan_instantiation).
#[test]
fn double_kill_and_rejoin_of_the_same_worker() {
    let scenario = Scenario::by_name("churn").unwrap();
    let plan = SchedulePlan {
        seed: 214,
        faults: vec![],
        chaos_at: Some(
            [80u64, 85, 92, 102, 109, 113, 204, 209, 219, 226]
                .into_iter()
                .collect::<BTreeSet<u64>>(),
        ),
    }
    .with_fault(137, FaultKind::Kill(WorkerId(1)))
    .with_fault(205, FaultKind::Rejoin(WorkerId(1)))
    .with_fault(238, FaultKind::Kill(WorkerId(1)))
    .with_fault(279, FaultKind::Rejoin(WorkerId(1)));
    replay(&scenario, &plan);
}

/// Phantom checkpoint commit (PR-5 recovery race, protocol-level schedule).
///
/// The original race was a worker dying between *receiving* the
/// checkpoint-save commands and *acking* them: the controller must not treat
/// the checkpoint as committed, or recovery restores from state that never
/// fully persisted. In the calm churn trace the save window is the
/// `execute_commands` fan-out to all three workers right after the second
/// instantiation (decisions 90..=95); killing worker-2 at 93 lands after its
/// save commands are delivered and before its `commands_completed` ack.
#[test]
fn kill_inside_the_checkpoint_save_window() {
    let scenario = Scenario::by_name("churn").unwrap();
    let plan = SchedulePlan::calm(0, vec![])
        .with_fault(93, FaultKind::Kill(WorkerId(2)))
        .with_fault(130, FaultKind::Rejoin(WorkerId(2)));
    let report = replay(&scenario, &plan);
    assert_eq!(faults_applied(&report), 2, "kill or rejoin was skipped");
}

/// Stale reconnect state on back-to-back disconnects (PR-5 redial-backoff
/// race, protocol-level schedule).
///
/// The TCP-internal bug was a redial backoff that survived a successful
/// reconnect, stalling the *next* reconnect. The simulator runs above the
/// transport, so this schedule pins the protocol shape the fix must keep
/// working: the same worker identity going silent (link delay long enough to
/// look like a failure), coming back, then disconnecting for real and
/// rejoining — two failure/return cycles of one identity in close
/// succession. Under the decision-38 delay the first checkpoint's save
/// fan-out lands at decisions 91..=94, so the kill at 95 strikes right after
/// worker-1's own checkpoint ack and recovery has state to restore from.
#[test]
fn back_to_back_disconnects_of_one_worker_identity() {
    let scenario = Scenario::by_name("quickstart").unwrap();
    let plan = SchedulePlan::calm(0, vec![])
        .with_fault(
            38,
            FaultKind::DelayLink {
                from: NodeId::Worker(WorkerId(1)),
                to: NodeId::Controller,
                decisions: 25,
            },
        )
        .with_fault(95, FaultKind::Kill(WorkerId(1)))
        .with_fault(125, FaultKind::Rejoin(WorkerId(1)));
    let report = replay(&scenario, &plan);
    assert_eq!(faults_applied(&report), 3, "a fault was skipped");
}

/// Stale cached writer after re-homing (PR-5 recovery race, protocol-level
/// schedule).
///
/// The controller caches each partition's latest writer; PR 5's race left
/// that cache pointing at an evicted worker after recovery re-homed its
/// partitions. Worker-0 is the churn reduction home (every `data_transfer`
/// lands there and it holds the fetched total), so killing it right after it
/// acks the third instantiation (decision 111) forces recovery to re-home
/// the hottest partitions; the rejoin then makes the old incarnation's
/// cached locations maximally tempting to reuse.
#[test]
fn kill_the_reduction_home_after_it_acks_an_instantiation() {
    let scenario = Scenario::by_name("churn").unwrap();
    let plan = SchedulePlan::calm(0, vec![])
        .with_fault(112, FaultKind::Kill(WorkerId(0)))
        .with_fault(150, FaultKind::Rejoin(WorkerId(0)));
    let report = replay(&scenario, &plan);
    assert_eq!(faults_applied(&report), 2, "kill or rejoin was skipped");
}

/// A 100-worker quickstart runs like the two-worker one: under the calm
/// plan and generated fault plans every run validates to the exact closed
/// form and replays bit-for-bit. With the controller and workers turned on
/// the harness thread a decision wakes one node, not a herd of parked
/// threads, so this costs about what the small cluster does.
#[test]
fn a_hundred_worker_quickstart_completes() {
    let scenario = Scenario {
        workers: 100,
        ..Scenario::quickstart()
    };
    replay(&scenario, &SchedulePlan::calm(0, vec![]));
    for seed in 0..3 {
        replay(&scenario, &scenario.generate_plan(seed));
    }
}

/// A plan that does not fail has nothing to shrink.
#[test]
fn shrink_declines_a_passing_plan() {
    let scenario = Scenario::by_name("quickstart").unwrap();
    assert!(shrink(&scenario, &SchedulePlan::calm(1, vec![]), 10).is_none());
}
