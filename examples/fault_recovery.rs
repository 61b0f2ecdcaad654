//! Checkpoint-based fault recovery (Section 4.4): the driver checkpoints the
//! job, a worker fails abruptly, and the controller halts the survivors,
//! reloads the checkpoint, and resumes.
//!
//! Run with: `cargo run --example fault_recovery`

use nimbus::prelude::*;

const BUMP: FunctionId = FunctionId(1);

fn main() {
    let setup = AppSetup::new()
        .function(BUMP, "bump", |ctx| {
            for x in ctx.write::<VecF64>(0)?.values.iter_mut() {
                *x += 1.0;
            }
            Ok(())
        })
        .object(LogicalObjectId(1), |_| VecF64::zeros(4));

    let cluster = Cluster::start(ClusterConfig::new(3), setup);
    let report = cluster
        .run_driver(|ctx| {
            let data = ctx.define_dataset::<VecF64>("data", 6)?;
            let step = |ctx: &mut Session| {
                ctx.block("step", |ctx| {
                    ctx.submit_stage(
                        StageSpec::new("bump", BUMP)
                            .write(&data)
                            .params(TaskParams::empty()),
                    )
                })
            };
            // Run five iterations, checkpoint, then run three more.
            for _ in 0..5 {
                step(ctx)?;
            }
            ctx.checkpoint(5)?;
            println!("checkpoint committed at iteration 5");
            for _ in 0..3 {
                step(ctx)?;
            }
            println!("value before failure: {}", ctx.fetch(&data, 0)?);

            // Worker 2 fails abruptly; the controller restores the checkpoint.
            let marker = ctx.fail_worker(WorkerId(2))?;
            println!("recovered from checkpoint taken at iteration {marker}");
            let restored = ctx.fetch(&data, 0)?;
            println!("value after recovery: {restored}");

            // The driver resumes from the checkpoint marker.
            for _ in marker..8 {
                step(ctx)?;
            }
            ctx.fetch(&data, 0)
        })
        .expect("job completes");
    println!("final value (8 effective iterations): {}", report.output);
    println!(
        "checkpoints committed: {}, failures handled: {}",
        report.controller.checkpoints_committed, report.controller.failures_handled
    );
}
