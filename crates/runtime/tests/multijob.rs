//! Multi-tenant control-plane tests: many concurrent driver sessions on one
//! controller + worker pool, with per-job isolation.
//!
//! The acceptance property: two `Session`s running concurrently produce
//! output **byte-identical** to running each job alone — on both
//! transports, and even when a worker is killed and rejoins mid-flight.
//! Each job's workload is parameterized differently (a different `delta`
//! per iteration), so any cross-job leakage of physical objects, command
//! ids, or transfers would corrupt at least one job's closed-form totals.

#![expect(
    clippy::disallowed_methods,
    reason = "runtime tests drive real nodes (threads or child processes) in wall-clock time"
)]

use std::sync::{Arc, Barrier};
use std::time::Duration;

use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::ids::WorkerId;
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::quickstart::{quickstart_setup, ADD, PARTITIONS, PARTITION_LEN, SUM};
use nimbus_runtime::{Cluster, ClusterConfig};

mod common;
use common::with_timeout;

/// The quickstart job parameterized by `delta`: iteration `i` totals
/// `(i + 1) * delta * PARTITIONS * PARTITION_LEN`. `pause_at` optionally
/// names an iteration at which the driver parks on `gate` twice — after the
/// block's fire-and-forget instantiation but *before* the synchronous fetch
/// — leaving that iteration's commands in flight while the test churns the
/// cluster membership.
fn job_body(
    session: &mut Session,
    iterations: u32,
    delta: f64,
    pause_at: Option<(u32, Arc<Barrier>)>,
) -> DriverResult<Vec<f64>> {
    let data: Dataset<VecF64> = session.define_dataset("data", PARTITIONS)?;
    let total: Dataset<Scalar> = session.define_dataset("total", 1)?;
    let mut totals = Vec::with_capacity(iterations as usize);
    for i in 0..iterations {
        session.block("inner", |ctx| {
            ctx.submit_stage(
                StageSpec::new("add", ADD)
                    .write(&data)
                    .params(TaskParams::from_scalar(delta)),
            )?;
            let mut sum = StageSpec::new("sum", SUM).partitions(1);
            for p in 0..data.partitions {
                sum = sum.read_partition(&data, p);
            }
            ctx.submit_stage(sum.write_partition(&total, 0))?;
            Ok(())
        })?;
        if let Some((at, gate)) = &pause_at {
            if i == *at {
                gate.wait(); // Reached the churn point, commands in flight.
                gate.wait(); // Churn done; resume with the fetch.
            }
        }
        totals.push(session.fetch(&total, 0)?);
    }
    Ok(totals)
}

/// What `job_body` produces undisturbed (pinned by the solo runs below):
/// the byte-identical baseline for every concurrent/churned variant.
fn closed_form(iterations: u32, delta: f64) -> Vec<f64> {
    (1..=iterations)
        .map(|i| (i as f64) * delta * (PARTITIONS as usize * PARTITION_LEN) as f64)
        .collect()
}

/// Runs one job alone on a fresh cluster and returns its totals.
fn solo_run(config: ClusterConfig, iterations: u32, delta: f64) -> Vec<f64> {
    let mut cluster = Cluster::start(config, quickstart_setup());
    let mut session = cluster.connect_driver().expect("open session");
    let totals = job_body(&mut session, iterations, delta, None).expect("solo job runs");
    session.close().expect("close session");
    cluster.shutdown_and_join().expect("shutdown");
    totals
}

/// A membership change to apply while every driver is parked mid-iteration:
/// the pause point and the churn body.
type ChurnPlan = (u32, Box<dyn FnOnce(&mut Cluster) + Send>);

/// Runs `deltas.len()` jobs concurrently on one cluster and returns each
/// job's totals (in session order) plus the controller stats.
fn concurrent_run(
    config: ClusterConfig,
    iterations: u32,
    deltas: &[f64],
    churn: Option<ChurnPlan>,
) -> (Vec<Vec<f64>>, nimbus_core::ControlPlaneStats) {
    let mut cluster = Cluster::start(config, quickstart_setup());
    let churn_gate = churn
        .as_ref()
        .map(|_| Arc::new(Barrier::new(deltas.len() + 1)));
    let mut handles = Vec::new();
    for &delta in deltas {
        let mut session = cluster.connect_driver().expect("open session");
        let pause = churn
            .as_ref()
            .map(|(at, _)| (*at, Arc::clone(churn_gate.as_ref().expect("gate"))));
        handles.push(std::thread::spawn(move || {
            let totals =
                job_body(&mut session, iterations, delta, pause).expect("concurrent job runs");
            session.close().expect("close session");
            totals
        }));
    }
    if let Some((_, churn_fn)) = churn {
        let gate = churn_gate.expect("gate");
        gate.wait(); // Every driver parked with commands in flight.
        churn_fn(&mut cluster);
        gate.wait(); // Release the drivers.
    }
    let outputs: Vec<Vec<f64>> = handles
        .into_iter()
        .map(|h| h.join().expect("driver thread panicked"))
        .collect();
    let report = cluster.shutdown_and_join().expect("shutdown");
    if std::env::var("NIMBUS_DEBUG_RECOVERY").is_ok() {
        for (i, w) in report.workers.iter().enumerate() {
            eprintln!(
                "[worker {i}] failures={:?} dup_ignored={} loads={} creates={}",
                w.failures, w.duplicate_commands_ignored, w.loads, w.creates
            );
        }
    }
    (outputs, report.controller)
}

/// Acceptance: two sessions on one controller run concurrently with
/// byte-identical per-job output vs. running each job alone — in-process
/// transport.
#[test]
fn concurrent_jobs_match_solo_runs_in_process() {
    with_timeout("concurrent-inproc", Duration::from_secs(120), || {
        let solo_a = solo_run(ClusterConfig::new(2), 6, 1.0);
        let solo_b = solo_run(ClusterConfig::new(2), 6, 2.5);
        assert_eq!(solo_a, closed_form(6, 1.0));
        assert_eq!(solo_b, closed_form(6, 2.5));
        let (outputs, stats) = concurrent_run(ClusterConfig::new(2), 6, &[1.0, 2.5], None);
        assert_eq!(outputs[0], solo_a, "job A diverged from its solo run");
        assert_eq!(outputs[1], solo_b, "job B diverged from its solo run");
        // Each job recorded its own template exactly once.
        assert_eq!(stats.controller_templates_installed, 2);
    });
}

/// The same acceptance property over loopback TCP sockets.
#[test]
fn concurrent_jobs_match_solo_runs_tcp() {
    with_timeout("concurrent-tcp", Duration::from_secs(120), || {
        let solo_a = solo_run(ClusterConfig::new(2).with_tcp_transport(), 6, 1.0);
        let solo_b = solo_run(ClusterConfig::new(2).with_tcp_transport(), 6, 2.5);
        assert_eq!(solo_a, closed_form(6, 1.0));
        assert_eq!(solo_b, closed_form(6, 2.5));
        let (outputs, stats) = concurrent_run(
            ClusterConfig::new(2).with_tcp_transport(),
            6,
            &[1.0, 2.5],
            None,
        );
        assert_eq!(outputs[0], solo_a);
        assert_eq!(outputs[1], solo_b);
        assert_eq!(stats.controller_templates_installed, 2);
    });
}

/// Fairness: a chatty session flooding pipelined instantiations does not
/// change the other session's results (round-robin servicing interleaves
/// them at the controller).
#[test]
fn a_flooding_job_does_not_disturb_a_small_one() {
    with_timeout("flood-fairness", Duration::from_secs(120), || {
        let (outputs, _) = concurrent_run(ClusterConfig::new(2), 24, &[1.0, 3.0], None);
        assert_eq!(outputs[0], closed_form(24, 1.0));
        assert_eq!(outputs[1], closed_form(24, 3.0));
    });
}

/// Job isolation under churn, per the issue's satellite: two concurrent
/// jobs, kill + rejoin a worker mid-flight (each job has an instantiation
/// in the air when the worker dies), and both jobs' outputs stay
/// byte-identical to their solo runs; neither observes the other's
/// recovery beyond sharing the readmitted worker. Runs over TCP.
#[test]
fn two_jobs_survive_worker_churn_isolated_tcp() {
    churned_isolation(
        ClusterConfig::new(2)
            .with_tcp_transport()
            .with_checkpoint_every(2)
            .with_rejoin_grace(Duration::from_secs(30)),
        "churn-tcp",
    );
}

/// The same churn isolation on the in-process transport: the fabric's
/// injectable disconnect makes kill/rejoin fault injection transport-
/// independent.
#[test]
fn two_jobs_survive_worker_churn_isolated_in_process() {
    churned_isolation(
        ClusterConfig::new(2)
            .with_checkpoint_every(2)
            .with_rejoin_grace(Duration::from_secs(30)),
        "churn-inproc",
    );
}

fn churned_isolation(config: ClusterConfig, name: &str) {
    let (outputs, stats) = with_timeout(name, Duration::from_secs(120), move || {
        concurrent_run(
            config,
            12,
            &[1.0, 2.5],
            Some((
                6,
                Box::new(|cluster: &mut Cluster| {
                    cluster.kill_worker(WorkerId(0));
                    std::thread::sleep(Duration::from_millis(500));
                    cluster.rejoin_worker(WorkerId(0));
                }),
            )),
        )
    });
    assert_eq!(
        outputs[0],
        closed_form(12, 1.0),
        "job A diverged after churn"
    );
    assert_eq!(
        outputs[1],
        closed_form(12, 2.5),
        "job B diverged after churn"
    );
    // Zero template re-recordings for either job: each job's one
    // pre-failure recording served its whole run; the rejoin was handled
    // with per-job template reinstalls, edits, and patches only.
    assert_eq!(
        stats.controller_templates_installed, 2,
        "a job re-recorded its template during the shared recovery"
    );
    // The one worker death triggered one *per-job* recovery each (both
    // jobs had state on the dead worker), and one shared readmission.
    assert_eq!(stats.failures_handled, 2);
    assert_eq!(stats.rejoins_handled, 1);
    // Both jobs auto-checkpointed along the way. (How many entries each
    // replayed depends on where the kill lands relative to a job's latest
    // auto-checkpoint commit — a window can legitimately be empty — so
    // replay counts are not asserted here; `raw_submit_stream_recovers_
    // byte_exact` in the churn suite pins replay exactness with a
    // deterministic checkpoint placement, and the byte-identical outputs
    // above are the acceptance property.)
    assert!(stats.checkpoints_committed >= 2);
}
