//! Migration edits on a running cluster: moved tasks keep their own
//! parameters however often they move, and the copies that remain (the
//! Figure 6 send-backs of a reduce-style block) leave each worker as one
//! batched write per peer.

use std::time::Duration;

use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::quickstart::{quickstart_setup, ADD, PARTITION_LEN, SUM};
use nimbus_runtime::{Cluster, ClusterConfig};

mod common;
use common::with_timeout;

/// The whole number task `partition` adds in `iteration`: 1 to 8.
fn delta(iteration: u32, partition: u32) -> f64 {
    let mut z =
        (u64::from(iteration) << 32 | u64::from(partition)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 8 + 1) as f64
}

/// ISSUE 13 satellite: with one delta per *task*, every partition must end
/// up with the sum of its own deltas. Before the move planner allocated task
/// slots from one place, slot and slot map diverged once a worker had shed
/// all its tasks (from the 17th `migrate_tasks(block, 2)` on) and partitions
/// received other tasks' parameters.
#[test]
fn per_task_parameters_follow_their_tasks_through_120_migrations() {
    const PARTITIONS: u32 = 64;
    const MIGRATIONS: u32 = 120;
    let report = with_timeout("per-task-params", Duration::from_secs(120), || {
        Cluster::start(ClusterConfig::new(2), quickstart_setup())
            .run_driver(|ctx| {
                let data: Dataset<VecF64> = ctx.define_dataset("data", PARTITIONS)?;
                let mut expected = vec![0.0; PARTITIONS as usize];
                let mut iteration = 0u32;
                let mut run = |ctx: &mut Session| -> DriverResult<()> {
                    let i = iteration;
                    iteration += 1;
                    for (p, sum) in expected.iter_mut().enumerate() {
                        *sum += delta(i, p as u32);
                    }
                    ctx.block("block", |ctx| {
                        ctx.submit_stage(
                            StageSpec::new("add", ADD)
                                .write(&data)
                                .params_per_partition(move |p| {
                                    TaskParams::from_scalar(delta(i, p))
                                }),
                        )
                    })
                };
                run(ctx)?;
                for _ in 0..MIGRATIONS {
                    ctx.migrate_tasks("block", 2)?;
                    run(ctx)?;
                    run(ctx)?;
                }
                let mut fetched = Vec::with_capacity(PARTITIONS as usize);
                for p in 0..PARTITIONS {
                    fetched.push(ctx.fetch(&data, p)?);
                }
                Ok((fetched, expected))
            })
            .expect("job completes")
    });
    let (fetched, expected) = report.output;
    assert_eq!(
        fetched, expected,
        "a partition received another task's deltas"
    );
    assert_eq!(report.controller.controller_templates_installed, 1);
    assert!(report.controller.edits_applied > 0);
    // Every migration costs one validated instantiation — the one that ships
    // its edits — and the one after it skips validation again.
    assert_eq!(report.controller.full_validations, u64::from(MIGRATIONS));
    assert_eq!(report.controller.auto_validations, u64::from(MIGRATIONS));
    for worker in &report.workers {
        assert!(worker.failures.is_empty(), "{:?}", worker.failures);
    }
}

/// ISSUE 13 satellite: 16 tasks moved away from the worker that reduces
/// their outputs each keep a Figure 6 send-back, so together with the 16
/// tasks that were remote to begin with, 32 data messages cross between the
/// two workers per instantiation. They leave in one burst, so the worker's
/// data plane writes them as one batch: a `write(2)` or two per
/// instantiation, not one per message.
#[test]
fn figure_6_copies_leave_in_one_tcp_write_per_burst() {
    const PARTITIONS: u32 = 32;
    const WARMUP: u32 = 4;
    const MEASURED: u32 = 40;
    // The same job twice, the second with `MEASURED` more iterations: the
    // difference is what steady-state iterations cost.
    let run = |iterations: u32| {
        with_timeout("fig6-batching", Duration::from_secs(120), move || {
            Cluster::start(
                ClusterConfig::new(2).with_tcp_transport(),
                quickstart_setup(),
            )
            .run_driver(move |ctx| {
                let data: Dataset<VecF64> = ctx.define_dataset("data", PARTITIONS)?;
                let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
                let mut totals = Vec::new();
                for i in 0..iterations {
                    if i == 2 {
                        // Everything the reducer's worker can shed.
                        ctx.migrate_tasks("inner", 16)?;
                    }
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
                        ctx.submit_stage(sum.write_partition(&total, 0))
                    })?;
                    totals.push(ctx.fetch(&total, 0)?);
                }
                Ok(totals)
            })
            .expect("job completes")
        })
    };
    let short = run(WARMUP);
    let long = run(WARMUP + MEASURED);
    let closed_form = |n: u32| -> Vec<f64> {
        (1..=n)
            .map(|i| f64::from(i * PARTITIONS) * PARTITION_LEN as f64)
            .collect()
    };
    assert_eq!(short.output, closed_form(WARMUP));
    assert_eq!(
        long.output,
        closed_form(WARMUP + MEASURED),
        "results unchanged"
    );
    assert_eq!(long.controller.controller_templates_installed, 1);

    let per_iteration = |f: fn(&nimbus_net::NetworkStats) -> u64| {
        (f(&long.network) - f(&short.network)) as f64 / f64::from(MEASURED)
    };
    let data_messages = per_iteration(|n| n.by_tag.get("data_transfer").copied().unwrap_or(0));
    let writes = per_iteration(|n| n.tcp_writes);
    let messages = per_iteration(|n| n.messages);
    assert_eq!(data_messages, 32.0, "16 original + 16 Figure 6 send-backs");
    // Everything that is not a data message is written on its own here (a
    // closed loop gives the controller nothing to cork), so what is left of
    // the writes is the data plane's.
    let data_writes = writes - (messages - data_messages);
    assert!(
        data_writes <= 2.0,
        "{data_writes} write(2)s per instantiation for {data_messages} data messages \\
         ({writes} writes, {messages} messages)"
    );
}
