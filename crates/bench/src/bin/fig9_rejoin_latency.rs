//! Figure 9 companion: iterations-to-recover after a worker failure, with
//! the rejoin path (the failed worker returns and is readmitted through
//! template reinstalls + edits, zero re-recordings) versus the
//! checkpoint-restart baseline (recovery proceeds onto the survivors and the
//! next instantiation re-records templates for the shrunken allocation).
//!
//! The paper's claim is that membership changes are template *edits*, not
//! job restarts: the rejoin path must recover in ~the outage time plus a
//! handful of iterations, without ever re-recording, while the baseline pays
//! a re-recording on top of the data movement.

#![expect(
    clippy::disallowed_methods,
    reason = "benchmarks measure real elapsed time by definition"
)]

use std::time::{Duration, Instant};

use nimbus_bench::{print_table, BenchJson, TableRow};
use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::ids::WorkerId;
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, StageSpec};
use nimbus_runtime::quickstart::{quickstart_setup, ADD, PARTITIONS, PARTITION_LEN, SUM};
use nimbus_runtime::{Cluster, ClusterConfig, ClusterReport};

const ITERATIONS: u32 = 40;
const KILL_AFTER: u32 = 20;
/// How long the worker stays dead before rejoining (rejoin scenario only).
const OUTAGE: Duration = Duration::from_millis(300);

struct Outcome {
    report: ClusterReport<Vec<f64>>,
    /// Wall-clock duration of every iteration (block + fetch).
    iteration_times: Vec<Duration>,
}

/// Runs the quickstart loop, killing worker 0 after iteration `KILL_AFTER`'s
/// fetch; with `rejoin` the worker comes back after `OUTAGE`.
fn run(rejoin: bool) -> Outcome {
    // Real task durations (the paper equalizes them the same way): without
    // this, release-mode iterations take microseconds and the fixed outage
    // time would swamp the per-iteration recovery accounting.
    let mut config = ClusterConfig::new(2)
        .with_tcp_transport()
        .with_spin_wait(Duration::from_millis(3))
        .with_checkpoint_every(3);
    if rejoin {
        config = config.with_rejoin_grace(Duration::from_secs(30));
    }
    let cluster = Cluster::start(config, quickstart_setup());
    let mut iteration_times = Vec::with_capacity(ITERATIONS as usize);
    let report = cluster
        .run_driver_with_cluster(|ctx, cluster| {
            let data: Dataset<VecF64> = ctx.define_dataset("data", PARTITIONS)?;
            let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
            let mut totals = Vec::with_capacity(ITERATIONS as usize);
            for i in 0..ITERATIONS {
                let start = Instant::now();
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
                totals.push(ctx.fetch(&total, 0)?);
                iteration_times.push(start.elapsed());
                if i == KILL_AFTER {
                    cluster.kill_worker(WorkerId(0));
                    if rejoin {
                        std::thread::sleep(OUTAGE);
                        cluster.rejoin_worker(WorkerId(0));
                    }
                }
            }
            Ok(totals)
        })
        .expect("churned job completes");
    Outcome {
        report,
        iteration_times,
    }
}

/// Recovery cost in *iterations*: total disturbed-phase wall time beyond the
/// undisturbed per-iteration median, divided by that median.
fn iterations_to_recover(outcome: &Outcome) -> f64 {
    let mut sorted: Vec<Duration> = outcome.iteration_times[..KILL_AFTER as usize].to_vec();
    sorted.sort_unstable();
    let per_iter = sorted[sorted.len() / 2].as_secs_f64().max(1e-9);
    let disturbed: f64 = outcome.iteration_times[KILL_AFTER as usize..]
        .iter()
        .map(|d| d.as_secs_f64())
        .sum();
    let remaining = (ITERATIONS - KILL_AFTER) as f64;
    (disturbed / per_iter - remaining).max(0.0)
}

fn main() {
    let rejoin = run(true);
    let restart = run(false);

    // Both scenarios must still produce the exact undisturbed totals: the
    // rejoin path via replay onto the readmitted worker, the baseline via
    // replay onto the survivor (the shared in-process vault keeps every
    // checkpoint entry reachable).
    let expected: Vec<f64> = (1..=ITERATIONS)
        .map(|i| (i as usize * PARTITIONS as usize * PARTITION_LEN) as f64)
        .collect();
    assert_eq!(rejoin.report.output, expected, "rejoin output diverged");
    assert_eq!(restart.report.output, expected, "restart output diverged");
    // The headline property: rejoin never re-records; the baseline does.
    assert_eq!(
        rejoin.report.controller.controller_templates_installed, 1,
        "rejoin path re-recorded a template"
    );
    assert!(
        restart.report.controller.controller_templates_installed >= 2,
        "checkpoint-restart baseline should re-record for the survivors"
    );

    print_table(
        &format!(
            "Figure 9 companion: worker killed after iteration {KILL_AFTER} of {ITERATIONS} \
             ({}ms outage)",
            OUTAGE.as_millis()
        ),
        &[
            TableRow::new(
                "iterations to recover",
                "rejoin",
                format!("{:.1}", iterations_to_recover(&rejoin)),
            ),
            TableRow::new(
                "iterations to recover",
                "checkpoint-restart",
                format!("{:.1}", iterations_to_recover(&restart)),
            ),
            TableRow::new(
                "template recordings",
                "rejoin / restart",
                format!(
                    "{} / {}",
                    rejoin.report.controller.controller_templates_installed,
                    restart.report.controller.controller_templates_installed
                ),
            ),
            TableRow::new(
                "instantiations replayed",
                "rejoin / restart",
                format!(
                    "{} / {}",
                    rejoin.report.controller.instantiations_replayed,
                    restart.report.controller.instantiations_replayed
                ),
            ),
            TableRow::new(
                "template edits applied",
                "rejoin / restart",
                format!(
                    "{} / {}",
                    rejoin.report.controller.edits_applied, restart.report.controller.edits_applied
                ),
            ),
            TableRow::new(
                "rejoins handled",
                "rejoin / restart",
                format!(
                    "{} / {}",
                    rejoin.report.controller.rejoins_handled,
                    restart.report.controller.rejoins_handled
                ),
            ),
        ],
    );
    BenchJson::new("fig9_rejoin")
        .metric(
            "iterations_to_recover_rejoin",
            iterations_to_recover(&rejoin),
        )
        .metric(
            "iterations_to_recover_restart",
            iterations_to_recover(&restart),
        )
        .metric(
            "template_recordings_rejoin",
            rejoin.report.controller.controller_templates_installed,
        )
        .metric(
            "template_recordings_restart",
            restart.report.controller.controller_templates_installed,
        )
        .metric(
            "instantiations_replayed_rejoin",
            rejoin.report.controller.instantiations_replayed,
        )
        .metric("outage_ms", OUTAGE.as_millis() as u64)
        .write_or_die();
}
