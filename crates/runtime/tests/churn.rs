//! Membership-churn tests over TCP loopback threads: a worker killed mid-job
//! rejoins and the job completes with output *byte-identical* to an
//! undisturbed run, with zero template re-recordings (edits and patches
//! only) — the paper's core claim that cluster changes are template edits,
//! not job restarts.
//!
//! Every test runs under an explicit watchdog: a wedged rejoin must fail in
//! seconds, not hang the suite.

#![expect(
    clippy::disallowed_methods,
    reason = "runtime tests drive real nodes (threads or child processes) in wall-clock time"
)]

use std::time::Duration;

use nimbus_core::ids::WorkerId;
use nimbus_runtime::quickstart::{quickstart_setup, PARTITIONS, PARTITION_LEN};
use nimbus_runtime::{Cluster, ClusterConfig, ClusterReport};

mod common;
use common::with_timeout;

/// The closed-form totals of `iterations` quickstart iterations — what an
/// undisturbed run produces (asserted by the quickstart's own tests), so a
/// churned run matching this is byte-identical to the undisturbed baseline.
fn closed_form(iterations: u32) -> Vec<f64> {
    (1..=iterations)
        .map(|i| (i as usize * PARTITIONS as usize * PARTITION_LEN) as f64)
        .collect()
}

/// When, within the churn iteration, the membership change happens.
enum ChurnPoint {
    /// After the iteration's fetch returned: the cluster is quiescent.
    AfterFetch(u32),
    /// Between the block's (fire-and-forget) instantiation message and the
    /// synchronous fetch: the iteration's commands are still in flight when
    /// the worker dies, exercising the interrupted-sync resume path.
    BeforeFetch(u32),
}

impl ChurnPoint {
    fn iteration(&self) -> u32 {
        match self {
            ChurnPoint::AfterFetch(i) | ChurnPoint::BeforeFetch(i) => *i,
        }
    }
}

/// Runs `iterations` quickstart iterations, invoking `churn` with the
/// cluster at the configured churn point.
fn run_churned(
    config: ClusterConfig,
    iterations: u32,
    point: ChurnPoint,
    churn: impl FnOnce(&mut Cluster) + Send + 'static,
) -> ClusterReport<Vec<f64>> {
    let cluster = Cluster::start(config, quickstart_setup());
    let mut churn = Some(churn);
    cluster
        .run_driver_with_cluster(move |ctx, cluster| {
            use nimbus_core::appdata::{Scalar, VecF64};
            use nimbus_core::TaskParams;
            use nimbus_driver::{Dataset, StageSpec};
            use nimbus_runtime::quickstart::{ADD, SUM};

            let data: Dataset<VecF64> = ctx.define_dataset("data", PARTITIONS)?;
            let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
            let mut totals = Vec::with_capacity(iterations as usize);
            for i in 0..iterations {
                ctx.block("inner", |ctx| {
                    ctx.submit_stage(
                        StageSpec::new("add", ADD)
                            .write(&data)
                            .params(TaskParams::from_scalar(1.0)),
                    )?;
                    let mut sum = StageSpec::new("sum", SUM).partitions(1);
                    for p in 0..data.partitions {
                        sum = sum.read_partition(&data, p);
                    }
                    ctx.submit_stage(sum.write_partition(&total, 0))?;
                    Ok(())
                })?;
                if matches!(point, ChurnPoint::BeforeFetch(_)) && i == point.iteration() {
                    if let Some(churn) = churn.take() {
                        churn(cluster);
                    }
                }
                totals.push(ctx.fetch(&total, 0)?);
                if i == point.iteration() {
                    if let Some(churn) = churn.take() {
                        churn(cluster);
                    }
                }
            }
            Ok(totals)
        })
        .expect("churned job completes")
}

/// Kills a worker, waits for the controller to observe the death and open
/// its rejoin grace window, then brings the worker back under the same
/// identity.
fn kill_then_rejoin(worker: WorkerId) -> impl FnOnce(&mut Cluster) + Send + 'static {
    move |cluster: &mut Cluster| {
        cluster.kill_worker(worker);
        std::thread::sleep(Duration::from_millis(500));
        cluster.rejoin_worker(worker);
    }
}

/// Acceptance: a worker killed mid-job rejoins over TCP loopback and the
/// job's output is byte-identical to an undisturbed run, with zero template
/// re-recordings — the block was recorded exactly once, before the failure,
/// and every post-rejoin adjustment happened through installed-template
/// reinstalls, edits, and patches.
#[test]
fn killed_worker_rejoins_and_output_is_byte_identical() {
    let report = with_timeout("kill-rejoin", Duration::from_secs(120), || {
        run_churned(
            ClusterConfig::new(2)
                .with_tcp_transport()
                .with_checkpoint_every(3)
                .with_rejoin_grace(Duration::from_secs(30)),
            20,
            ChurnPoint::AfterFetch(10),
            kill_then_rejoin(WorkerId(0)),
        )
    });
    assert_eq!(
        report.output,
        closed_form(20),
        "churned output diverges from the undisturbed run"
    );
    // Zero re-recordings: the one pre-failure recording served the whole
    // job; the rejoin was handled with template edits/reinstalls only.
    assert_eq!(
        report.controller.controller_templates_installed, 1,
        "rejoin must not re-record templates"
    );
    assert_eq!(report.controller.failures_handled, 1);
    assert_eq!(report.controller.rejoins_handled, 1);
    // With checkpoints every 3 instantiations, the failure after iteration
    // 10 rolled back to an earlier checkpoint; the controller replayed the
    // gap itself — no driver involvement.
    assert!(
        report.controller.instantiations_replayed >= 1,
        "expected the controller to replay the post-checkpoint gap, got {}",
        report.controller.instantiations_replayed
    );
    assert!(report.controller.checkpoints_committed >= 3);
}

/// The same churn with the iteration's commands still in flight (the driver
/// blocked in the fetch right after): the interrupted fetch must resume
/// against recovered-and-replayed state and produce the exact value.
#[test]
fn kill_with_commands_in_flight_is_still_byte_identical() {
    let report = with_timeout("kill-mid-flight", Duration::from_secs(120), || {
        run_churned(
            ClusterConfig::new(2)
                .with_tcp_transport()
                .with_checkpoint_every(1)
                .with_spin_wait(Duration::from_millis(2))
                .with_rejoin_grace(Duration::from_secs(30)),
            14,
            ChurnPoint::BeforeFetch(6),
            kill_then_rejoin(WorkerId(1)),
        )
    });
    assert_eq!(report.output, closed_form(14));
    assert_eq!(report.controller.controller_templates_installed, 1);
    assert_eq!(report.controller.failures_handled, 1);
    assert_eq!(report.controller.rejoins_handled, 1);
}

/// Losing the *last* worker with a rejoin grace configured, and having the
/// grace expire without a return, must surface a clean driver error — not
/// panic the controller on a workerless recovery or hang the job.
#[test]
fn last_worker_lost_and_never_rejoining_errors_cleanly() {
    let result = with_timeout("last-worker-lost", Duration::from_secs(60), || {
        let cluster = Cluster::start(
            ClusterConfig::new(1)
                .with_tcp_transport()
                .with_checkpoint_every(1)
                .with_rejoin_grace(Duration::from_millis(500)),
            quickstart_setup(),
        );
        cluster.run_driver_with_cluster(|ctx, cluster| {
            use nimbus_runtime::quickstart::quickstart_driver;
            ctx.set_reply_timeout(Duration::from_secs(20));
            quickstart_driver(ctx, 3)?;
            cluster.kill_worker(WorkerId(0));
            // The grace window expires with nobody left to recover onto.
            quickstart_driver(ctx, 3)
        })
    });
    let message = match result {
        Ok(_) => panic!("a workerless job must fail"),
        Err(err) => err.to_string(),
    };
    assert!(
        message.contains("disconnected") || message.contains("no workers"),
        "expected a clean no-workers error, got: {message}"
    );
}

/// Elastic growth: a brand-new worker joins a running job and is served
/// through template edits — it executes its migrated share of tasks, the
/// outputs stay byte-identical, and nothing is re-recorded.
#[test]
fn added_worker_joins_via_edits_and_executes_tasks() {
    let report = with_timeout("elastic-add", Duration::from_secs(120), || {
        run_churned(
            ClusterConfig::new(2).with_tcp_transport(),
            16,
            ChurnPoint::AfterFetch(5),
            |cluster: &mut Cluster| {
                // The joiner's hello races the remaining iterations; what is
                // asserted below is what happens once it has been admitted
                // (the initial workers' hellos were acknowledged long ago).
                let admitted = |c: &Cluster| c.network_stats().count("rejoin_accepted");
                let before = admitted(cluster);
                cluster.add_worker();
                while admitted(cluster) == before {
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
        )
    });
    assert_eq!(report.output, closed_form(16));
    assert_eq!(
        report.controller.controller_templates_installed, 1,
        "elastic join must not re-record templates"
    );
    assert_eq!(report.controller.rejoins_handled, 1);
    assert!(
        report.controller.edits_applied > 0,
        "the joining worker's share must arrive as template edits"
    );
    // All three workers (the two originals and the late joiner) did real
    // work.
    assert_eq!(report.workers.len(), 3);
    for (i, w) in report.workers.iter().enumerate() {
        assert!(w.tasks_executed > 0, "worker #{i} executed no tasks");
    }
}

/// Satellite of the multi-tenant PR (ROADMAP open item): TWO workers dying
/// inside one grace window are both readmitted in place. `awaiting_rejoin`
/// is a set now, not a single slot — the first death opens the recovery,
/// the second folds into it, and completion waits for both returns. Output
/// stays byte-identical with zero template re-recordings.
#[test]
fn two_workers_killed_in_one_window_both_rejoin() {
    let report = with_timeout("double-kill", Duration::from_secs(120), || {
        run_churned(
            ClusterConfig::new(3)
                .with_tcp_transport()
                .with_checkpoint_every(3)
                .with_rejoin_grace(Duration::from_secs(30)),
            20,
            ChurnPoint::AfterFetch(10),
            |cluster: &mut Cluster| {
                cluster.kill_worker(WorkerId(0));
                cluster.kill_worker(WorkerId(1));
                std::thread::sleep(Duration::from_millis(500));
                cluster.rejoin_worker(WorkerId(0));
                cluster.rejoin_worker(WorkerId(1));
            },
        )
    });
    assert_eq!(
        report.output,
        closed_form(20),
        "double-churned output diverges from the undisturbed run"
    );
    assert_eq!(
        report.controller.controller_templates_installed, 1,
        "simultaneous rejoins must not re-record templates"
    );
    // One recovery absorbed both deaths; each return was a readmission.
    assert_eq!(report.controller.failures_handled, 1);
    assert_eq!(report.controller.rejoins_handled, 2);
    assert!(report.controller.instantiations_replayed >= 1);
}

/// Satellite of the multi-tenant PR (ROADMAP open item): the kill/rejoin
/// churn suite now runs on the in-process transport too. The fabric's
/// injectable `Network::disconnect` delivers the same `PeerDisconnected`
/// notice a dropped TCP socket would, so the whole rejoin handshake —
/// grace window, template reinstalls, checkpoint reload, replay — is
/// transport-independent.
#[test]
fn killed_worker_rejoins_in_process_and_output_is_byte_identical() {
    let report = with_timeout("kill-rejoin-inproc", Duration::from_secs(120), || {
        run_churned(
            ClusterConfig::new(2)
                .with_checkpoint_every(3)
                .with_rejoin_grace(Duration::from_secs(30)),
            20,
            ChurnPoint::AfterFetch(10),
            kill_then_rejoin(WorkerId(0)),
        )
    });
    assert_eq!(report.output, closed_form(20));
    assert_eq!(report.controller.controller_templates_installed, 1);
    assert_eq!(report.controller.failures_handled, 1);
    assert_eq!(report.controller.rejoins_handled, 1);
    assert!(report.controller.instantiations_replayed >= 1);
}

/// Satellite of the multi-tenant PR: the controller's replay log now covers
/// raw `SubmitTask` traffic, not only `InstantiateTemplate`. A job running
/// with templates disabled (pure per-task scheduling) loses a worker after
/// its last checkpoint; the controller restores the checkpoint and replays
/// the logged submit stream itself, so the un-templated recovery is
/// byte-exact — previously this window fell back to lossy recovery
/// (`replay_valid = false`) and the post-checkpoint iterations were
/// silently lost.
#[test]
fn raw_submit_stream_recovers_byte_exact() {
    use nimbus_core::appdata::{Scalar, VecF64};
    use nimbus_core::TaskParams;
    use nimbus_driver::{Dataset, StageSpec};
    use nimbus_runtime::quickstart::{ADD, SUM};

    let report = with_timeout("raw-submit-replay", Duration::from_secs(120), || {
        let cluster = Cluster::start(
            ClusterConfig::new(2)
                .without_templates()
                .with_tcp_transport()
                .with_rejoin_grace(Duration::from_secs(30)),
            quickstart_setup(),
        );
        cluster
            .run_driver_with_cluster(|ctx, cluster| {
                let data: Dataset<VecF64> = ctx.define_dataset("data", PARTITIONS)?;
                let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
                let mut totals = Vec::new();
                for i in 0..14u32 {
                    // No blocks: every stage goes out as raw SubmitTask
                    // messages (the un-templated stream).
                    ctx.submit_stage(
                        StageSpec::new("add", ADD)
                            .write(&data)
                            .params(TaskParams::from_scalar(1.0)),
                    )?;
                    let mut sum = StageSpec::new("sum", SUM).partitions(1);
                    for p in 0..data.partitions {
                        sum = sum.read_partition(&data, p);
                    }
                    ctx.submit_stage(sum.write_partition(&total, 0))?;
                    totals.push(ctx.fetch(&total, 0)?);
                    if i == 5 {
                        // The only checkpoint: iterations 6.. exist solely
                        // in the replay log.
                        ctx.checkpoint(u64::from(i))?;
                    }
                    if i == 8 {
                        cluster.kill_worker(WorkerId(0));
                        std::thread::sleep(Duration::from_millis(500));
                        cluster.rejoin_worker(WorkerId(0));
                    }
                }
                Ok(totals)
            })
            .expect("un-templated churned job completes")
    });
    assert_eq!(
        report.output,
        closed_form(14),
        "raw-submit recovery lost post-checkpoint iterations"
    );
    // Purely per-task: nothing was ever recorded, and the recovery replayed
    // the logged submit stream controller-side.
    assert_eq!(report.controller.controller_templates_installed, 0);
    assert_eq!(report.controller.failures_handled, 1);
    assert!(
        report.controller.instantiations_replayed >= 1,
        "expected the submit window to replay, got {}",
        report.controller.instantiations_replayed
    );
}
