//! Dynamic scheduling with template edits: the controller migrates tasks of a
//! cached block between workers without re-installing the template, and the
//! job keeps producing the same results (Figure 10's mechanism).
//!
//! Run with: `cargo run --example dynamic_migration`

use nimbus::apps::logistic_regression as lr;
use nimbus::prelude::*;

fn main() {
    let config = lr::LogisticRegressionConfig {
        partitions: 8,
        points_per_partition: 128,
        dim: 8,
        max_inner_iterations: 12,
        gradient_threshold: 0.0, // run all iterations
        max_outer_iterations: 1,
        ..Default::default()
    };
    let run = |migrate: bool| {
        let mut setup = AppSetup::new();
        lr::register(&mut setup, &config);
        let cluster = Cluster::start(ClusterConfig::new(4), setup);
        cluster
            .run_driver(|ctx| {
                let data = lr::define_datasets(ctx, &config)?;
                let mut norms = Vec::new();
                for iteration in 0..config.max_inner_iterations {
                    // Every 4th iteration, ask the controller to migrate two
                    // of the block's tasks to different workers before the
                    // next instantiation. The change is expressed as
                    // template edits.
                    if migrate && iteration > 0 && iteration % 4 == 0 {
                        ctx.migrate_tasks("lr_inner", 2)?;
                        eprintln!("iteration {iteration}: requested migration of 2 tasks");
                    }
                    lr::submit_inner_block(ctx, &data, &config)?;
                    let norm = ctx.fetch(&data.gradient_norm, 0)?;
                    eprintln!("iteration {iteration}: gradient norm {norm:.4}");
                    norms.push(norm);
                }
                Ok(norms)
            })
            .expect("job completes")
    };
    let undisturbed = run(false);
    let report = run(true);
    println!("gradient norms: {:?}", report.output);
    println!(
        "edits applied: {}, template instantiations: {}, full validations: {}, \
         auto-validations: {}, patches: {}",
        report.controller.edits_applied,
        report.controller.worker_template_instantiations,
        report.controller.full_validations,
        report.controller.auto_validations,
        report.controller.patches_applied
    );
    assert_eq!(
        report.output, undisturbed.output,
        "migrations change where tasks run, not what they compute"
    );
    assert!(
        report.output.last().unwrap() < report.output.first().unwrap(),
        "optimization keeps making progress despite migrations"
    );
    assert!(
        report.controller.edits_applied > 0,
        "migrations were expressed as edits"
    );
    // A migration costs one validated (and patched) instantiation; after it
    // the block validates itself again. Eleven instantiations follow the
    // recording: the first one and the two edited ones validate.
    assert_eq!(
        (
            report.controller.full_validations,
            report.controller.auto_validations
        ),
        (3, 8),
        "auto-validation resumes after each edit"
    );
}
