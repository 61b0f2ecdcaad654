//! Cross-crate integration tests: end-to-end jobs on the in-process cluster
//! exercising execution templates, dynamic scheduling, and fault recovery —
//! written against the `nimbus::prelude` facade.

use nimbus::prelude::*;

const BUMP: FunctionId = FunctionId(1);
const SUM: FunctionId = FunctionId(2);

/// The typed datasets every test job uses.
struct Job {
    data: Dataset<VecF64>,
    total: Dataset<Scalar>,
}

fn setup(partition_len: usize) -> AppSetup {
    AppSetup::new()
        .function(BUMP, "bump", |ctx| {
            let delta = ctx.params().as_scalar().map_err(|e| e.to_string())?;
            for x in ctx.write::<VecF64>(0)?.values.iter_mut() {
                *x += delta;
            }
            Ok(())
        })
        .function(SUM, "sum", |ctx| {
            let mut total = 0.0;
            for i in 0..ctx.read_count() {
                total += ctx.read::<VecF64>(i)?.values.iter().sum::<f64>();
            }
            ctx.write::<Scalar>(0)?.value = total;
            Ok(())
        })
        .object(LogicalObjectId(1), move |_| VecF64::zeros(partition_len))
        .object(LogicalObjectId(2), |_| Scalar::new(0.0))
}

fn define_job(ctx: &mut Session, partitions: u32) -> DriverResult<Job> {
    Ok(Job {
        data: ctx.define_dataset("data", partitions)?,
        total: ctx.define_dataset("total", 1)?,
    })
}

fn bump_and_sum(ctx: &mut Session, job: &Job, delta: f64) -> DriverResult<()> {
    ctx.block("step", |ctx| {
        ctx.submit_stage(
            StageSpec::new("bump", BUMP)
                .write(&job.data)
                .params(TaskParams::from_scalar(delta)),
        )?;
        let mut sum = StageSpec::new("sum", SUM).partitions(1);
        for p in 0..job.data.partitions {
            sum = sum.read_partition(&job.data, p);
        }
        ctx.submit_stage(sum.write_partition(&job.total, 0))?;
        Ok(())
    })
}

#[test]
fn templates_survive_allocation_changes_and_keep_results_correct() {
    let cluster = Cluster::start(ClusterConfig::new(4), setup(2));
    let report = cluster
        .run_driver(|ctx| {
            let job = define_job(ctx, 8)?;
            let mut expected = 0.0;
            for i in 0..12u32 {
                // Shrink the allocation mid-run and later restore it, like the
                // cluster-manager events of Figure 9.
                if i == 4 {
                    ctx.set_worker_allocation(vec![WorkerId(0), WorkerId(1)])?;
                }
                if i == 8 {
                    ctx.set_worker_allocation((0..4).map(WorkerId).collect::<Vec<_>>())?;
                }
                bump_and_sum(ctx, &job, 1.0)?;
                expected += 8.0 * 2.0;
                let got = ctx.fetch(&job.total, 0)?;
                assert_eq!(got, expected, "iteration {i}");
            }
            Ok(())
        })
        .expect("job completes");
    // The block is re-recorded when the allocation changes, then re-used.
    assert!(report.controller.controller_templates_installed >= 1);
    assert!(report.controller.worker_template_groups_generated >= 2);
    assert!(report.controller.tasks_from_templates > 0);
    assert!(report.controller.auto_validations >= 6);
}

#[test]
fn checkpoint_recovery_restores_exact_state() {
    let cluster = Cluster::start(ClusterConfig::new(3), setup(4));
    let report = cluster
        .run_driver(|ctx| {
            let job = define_job(ctx, 6)?;
            for _ in 0..4 {
                bump_and_sum(ctx, &job, 1.0)?;
            }
            ctx.checkpoint(4)?;
            for _ in 0..3 {
                bump_and_sum(ctx, &job, 1.0)?;
            }
            assert_eq!(ctx.fetch(&job.total, 0)?, 7.0 * 24.0);
            let marker = ctx.fail_worker(WorkerId(2))?;
            assert_eq!(marker, 4);
            // State is back at the checkpoint; re-run the lost iterations.
            for _ in marker..7 {
                bump_and_sum(ctx, &job, 1.0)?;
            }
            ctx.fetch(&job.total, 0)
        })
        .expect("job completes");
    assert_eq!(report.output, 7.0 * 24.0);
    assert_eq!(report.controller.checkpoints_committed, 1);
    assert_eq!(report.controller.failures_handled, 1);
}

#[test]
fn migrations_via_edits_keep_results_correct() {
    let cluster = Cluster::start(ClusterConfig::new(3), setup(2));
    let report = cluster
        .run_driver(|ctx| {
            let job = define_job(ctx, 6)?;
            let mut expected = 0.0;
            for i in 0..8u32 {
                if i == 3 {
                    ctx.migrate_tasks("step", 2)?;
                }
                bump_and_sum(ctx, &job, 2.0)?;
                expected += 6.0 * 2.0 * 2.0;
                assert_eq!(ctx.fetch(&job.total, 0)?, expected, "iteration {i}");
            }
            Ok(())
        })
        .expect("job completes");
    assert!(report.controller.edits_applied > 0);
    assert!(report.controller.patches_applied > 0);
}

#[test]
fn failed_recording_aborts_and_the_block_can_be_rerecorded() {
    let cluster = Cluster::start(ClusterConfig::new(2), setup(2));
    let report = cluster
        .run_driver(|ctx| {
            let job = define_job(ctx, 4)?;
            // The block body fails during its first (recording) execution.
            let err = ctx
                .block("step", |ctx| {
                    ctx.submit_stage(
                        StageSpec::new("bump", BUMP)
                            .write(&job.data)
                            .params(TaskParams::from_scalar(1.0)),
                    )?;
                    Err(DriverError::Misuse("body failed".to_string()))
                })
                .expect_err("body error must surface");
            assert!(err.to_string().contains("body failed"));
            // The controller's recording state was aborted: the same block
            // name records cleanly and replays afterwards.
            for _ in 0..2 {
                bump_and_sum(ctx, &job, 1.0)?;
            }
            ctx.fetch(&job.total, 0)
        })
        .expect("job completes");
    // One bump ran inside the failed body (its task was submitted before the
    // error), then two full iterations: 3 bumps of +1 over 8 elements.
    assert_eq!(report.output, 3.0 * 8.0);
    assert_eq!(report.controller.controller_templates_installed, 1);
    assert_eq!(report.controller.controller_template_instantiations, 1);
}

#[test]
fn replayed_block_with_mismatched_shape_is_rejected() {
    let cluster = Cluster::start(ClusterConfig::new(2), setup(2));
    let report = cluster
        .run_driver(|ctx| {
            let job = define_job(ctx, 4)?;
            bump_and_sum(ctx, &job, 1.0)?;
            // Replay the same block name with one stage fewer: the driver
            // must reject the mismatch instead of sending a misaligned
            // instantiation.
            let err = ctx
                .block("step", |ctx| {
                    ctx.submit_stage(
                        StageSpec::new("bump", BUMP)
                            .write(&job.data)
                            .params(TaskParams::from_scalar(1.0)),
                    )
                })
                .expect_err("shape mismatch must be rejected");
            assert!(matches!(err, DriverError::Misuse(_)), "got {err:?}");
            // The cluster stays usable: a correctly-shaped replay still runs.
            bump_and_sum(ctx, &job, 1.0)?;
            ctx.fetch(&job.total, 0)
        })
        .expect("job completes");
    assert_eq!(report.output, 2.0 * 8.0);
}
