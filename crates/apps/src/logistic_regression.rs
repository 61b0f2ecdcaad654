//! Logistic regression: the paper's primary benchmark workload.
//!
//! The driver program follows Figure 3 of the paper: an outer loop estimates
//! the model's loss and decides whether to keep optimizing, while an inner
//! loop runs gradient steps until the gradient norm falls below a threshold.
//! Each inner iteration is one basic block ("lr_inner") containing a parallel
//! gradient stage, a two-level reduction tree, and a model update; each outer
//! iteration runs a second basic block ("lr_outer") that evaluates the loss.

use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::ids::FunctionId;
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::AppSetup;

use crate::data::{generate_classification_partition, PointsPartition};
use crate::reduction::{intermediate_partitions, submit_two_level_reduce};

/// Computes the per-point gradient contribution of a partition.
pub const LR_GRADIENT: FunctionId = FunctionId(10);
/// Element-wise sum of `f64` vectors (used by both reduction levels).
pub const LR_REDUCE_VECS: FunctionId = FunctionId(11);
/// Applies the reduced gradient to the weights and records its norm.
pub const LR_UPDATE: FunctionId = FunctionId(12);
/// Computes the partial logistic loss of a partition.
pub const LR_LOSS: FunctionId = FunctionId(13);

/// Configuration of a logistic-regression job.
#[derive(Clone, Debug)]
pub struct LogisticRegressionConfig {
    /// Number of data partitions (one gradient task per partition).
    pub partitions: u32,
    /// Points per partition.
    pub points_per_partition: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Inner loop: stop when the gradient norm falls below this threshold.
    pub gradient_threshold: f64,
    /// Inner loop: hard iteration cap.
    pub max_inner_iterations: usize,
    /// Outer loop: stop when the loss improves by less than this fraction.
    pub loss_tolerance: f64,
    /// Outer loop: hard iteration cap.
    pub max_outer_iterations: usize,
    /// Seed for the synthetic dataset.
    pub seed: u64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            partitions: 8,
            points_per_partition: 256,
            dim: 8,
            learning_rate: 0.5,
            gradient_threshold: 0.05,
            max_inner_iterations: 10,
            loss_tolerance: 1e-3,
            max_outer_iterations: 5,
            seed: 42,
        }
    }
}

/// Typed dataset handles used by the job.
pub struct LrDatasets {
    /// Training data.
    pub tdata: Dataset<PointsPartition>,
    /// Per-partition gradient partials.
    pub gradient: Dataset<VecF64>,
    /// First-level reduced gradients.
    pub gradient_l1: Dataset<VecF64>,
    /// Globally reduced gradient.
    pub gradient_global: Dataset<VecF64>,
    /// Model weights (single partition, broadcast-read).
    pub weights: Dataset<VecF64>,
    /// Norm of the last reduced gradient.
    pub gradient_norm: Dataset<Scalar>,
    /// Per-partition loss partials.
    pub loss_partial: Dataset<VecF64>,
    /// First-level reduced losses.
    pub loss_l1: Dataset<VecF64>,
    /// Global loss.
    pub loss: Dataset<VecF64>,
}

/// Result of a logistic-regression run.
#[derive(Clone, Debug, PartialEq)]
pub struct LrResult {
    /// Final training loss.
    pub final_loss: f64,
    /// Loss after each outer iteration.
    pub loss_history: Vec<f64>,
    /// Total inner (gradient) iterations executed.
    pub inner_iterations: usize,
    /// Outer iterations executed.
    pub outer_iterations: usize,
}

/// Registers the job's task functions and dataset factories.
pub fn register(setup: &mut AppSetup, config: &LogisticRegressionConfig) {
    let dim = config.dim;
    let seed = config.seed;
    let points = config.points_per_partition;

    // Dataset ids are assigned by the driver in definition order; factories
    // are registered against those ids by `define_datasets` below through
    // names. To keep registration independent of id assignment, factories are
    // keyed by the dataset's position in `define_datasets`: tdata is the
    // first dataset defined by this job, and so on. The runtime's driver
    // assigns ids 1..=9 in that order for a fresh context.
    setup.register_object(nimbus_core::LogicalObjectId(1), move |lp| {
        generate_classification_partition(seed, lp.partition.raw(), points, dim)
    });
    for id in 2..=4 {
        setup.register_object(nimbus_core::LogicalObjectId(id), move |_| {
            VecF64::zeros(dim)
        });
    }
    setup.register_object(nimbus_core::LogicalObjectId(5), move |_| VecF64::zeros(dim));
    setup.register_object(nimbus_core::LogicalObjectId(6), |_| Scalar::new(f64::MAX));
    for id in 7..=9 {
        setup.register_object(nimbus_core::LogicalObjectId(id), |_| VecF64::zeros(1));
    }

    setup.register_function(LR_GRADIENT, "lr_gradient", |ctx| {
        let data = ctx.read::<PointsPartition>(0)?;
        let weights = ctx.read::<VecF64>(1)?.values.clone();
        let grad = ctx.write::<VecF64>(0)?;
        if grad.values.len() != weights.len() {
            grad.values = vec![0.0; weights.len()];
        } else {
            grad.values.iter_mut().for_each(|g| *g = 0.0);
        }
        for i in 0..data.len() {
            let row = data.row(i);
            let y = data.ys[i];
            let margin: f64 = row.iter().zip(&weights).map(|(a, b)| a * b).sum();
            let coeff = -y / (1.0 + (y * margin).exp());
            for (g, x) in grad.values.iter_mut().zip(row) {
                *g += coeff * x;
            }
        }
        Ok(())
    });

    setup.register_function(LR_REDUCE_VECS, "lr_reduce_vecs", |ctx| {
        let mut acc: Vec<f64> = Vec::new();
        for i in 0..ctx.read_count() {
            let v = ctx.read::<VecF64>(i)?;
            if acc.is_empty() {
                acc = vec![0.0; v.values.len()];
            }
            for (a, b) in acc.iter_mut().zip(&v.values) {
                *a += b;
            }
        }
        ctx.write::<VecF64>(0)?.values = acc;
        Ok(())
    });

    setup.register_function(LR_UPDATE, "lr_update", |ctx| {
        let params = ctx.params().as_f64s().map_err(|e| e.to_string())?;
        let (lr, total_points) = (params[0], params[1]);
        let grad = ctx.read::<VecF64>(0)?.values.clone();
        let norm = (grad.iter().map(|g| g * g).sum::<f64>()).sqrt() / total_points;
        {
            let weights = ctx.write::<VecF64>(0)?;
            if weights.values.len() != grad.len() {
                weights.values = vec![0.0; grad.len()];
            }
            for (w, g) in weights.values.iter_mut().zip(&grad) {
                *w -= lr * g / total_points;
            }
        }
        ctx.write::<Scalar>(1)?.value = norm;
        Ok(())
    });

    setup.register_function(LR_LOSS, "lr_loss", |ctx| {
        let data = ctx.read::<PointsPartition>(0)?;
        let weights = &ctx.read::<VecF64>(1)?.values.clone();
        let mut loss = 0.0;
        for i in 0..data.len() {
            let row = data.row(i);
            let y = data.ys[i];
            let margin: f64 = row.iter().zip(weights).map(|(a, b)| a * b).sum();
            loss += (1.0 + (-y * margin).exp()).ln();
        }
        let out = ctx.write::<VecF64>(0)?;
        out.values = vec![loss];
        Ok(())
    });
}

/// Defines the job's datasets. Must be called on a fresh driver context (the
/// factory registration in [`register`] assumes these are the first datasets
/// defined).
pub fn define_datasets(
    ctx: &mut Session,
    config: &LogisticRegressionConfig,
) -> DriverResult<LrDatasets> {
    let groups = intermediate_partitions(config.partitions);
    Ok(LrDatasets {
        tdata: ctx.define_dataset("tdata", config.partitions)?,
        gradient: ctx.define_dataset("gradient", config.partitions)?,
        gradient_l1: ctx.define_dataset("gradient_l1", groups)?,
        gradient_global: ctx.define_dataset("gradient_global", 1)?,
        weights: ctx.define_dataset("weights", 1)?,
        gradient_norm: ctx.define_dataset("gradient_norm", 1)?,
        loss_partial: ctx.define_dataset("loss_partial", config.partitions)?,
        loss_l1: ctx.define_dataset("loss_l1", groups)?,
        loss: ctx.define_dataset("loss", 1)?,
    })
}

/// Submits one inner (gradient) iteration as the "lr_inner" basic block.
pub fn submit_inner_block(
    ctx: &mut Session,
    data: &LrDatasets,
    config: &LogisticRegressionConfig,
) -> DriverResult<()> {
    let total_points = (config.partitions as usize * config.points_per_partition) as f64;
    let lr = config.learning_rate;
    ctx.block("lr_inner", |ctx| {
        ctx.submit_stage(
            StageSpec::new("gradient", LR_GRADIENT)
                .read(&data.tdata)
                .read_broadcast(&data.weights)
                .write(&data.gradient),
        )?;
        submit_two_level_reduce(
            ctx,
            "gradient_reduce",
            LR_REDUCE_VECS,
            &data.gradient,
            &data.gradient_l1,
            &data.gradient_global,
            TaskParams::empty(),
        )?;
        ctx.submit_stage(
            StageSpec::new("update", LR_UPDATE)
                .read_broadcast(&data.gradient_global)
                .write_partition(&data.weights, 0)
                .write_partition(&data.gradient_norm, 0)
                .partitions(1)
                .params(TaskParams::from_f64s(&[lr, total_points])),
        )?;
        Ok(())
    })
}

/// Submits one outer (loss estimation) iteration as the "lr_outer" block.
pub fn submit_outer_block(
    ctx: &mut Session,
    data: &LrDatasets,
    _config: &LogisticRegressionConfig,
) -> DriverResult<()> {
    ctx.block("lr_outer", |ctx| {
        ctx.submit_stage(
            StageSpec::new("loss", LR_LOSS)
                .read(&data.tdata)
                .read_broadcast(&data.weights)
                .write(&data.loss_partial),
        )?;
        submit_two_level_reduce(
            ctx,
            "loss_reduce",
            LR_REDUCE_VECS,
            &data.loss_partial,
            &data.loss_l1,
            &data.loss,
            TaskParams::empty(),
        )?;
        Ok(())
    })
}

/// Runs the full nested-loop training job (Figure 3 of the paper).
pub fn run(ctx: &mut Session, config: &LogisticRegressionConfig) -> DriverResult<LrResult> {
    let data = define_datasets(ctx, config)?;
    let mut loss_history = Vec::new();
    let mut previous_loss = f64::MAX;
    let mut inner_iterations = 0usize;
    let mut outer_iterations = 0usize;

    for _outer in 0..config.max_outer_iterations {
        outer_iterations += 1;
        // Inner optimization loop: gradient steps until the gradient norm is
        // small (data-dependent branch on a fetched scalar).
        for _inner in 0..config.max_inner_iterations {
            submit_inner_block(ctx, &data, config)?;
            inner_iterations += 1;
            let norm = ctx.fetch(&data.gradient_norm, 0)?;
            if norm < config.gradient_threshold {
                break;
            }
        }
        // Outer estimation: compute the loss and decide whether to continue.
        submit_outer_block(ctx, &data, config)?;
        let total_points = (config.partitions as usize * config.points_per_partition) as f64;
        let loss = ctx.fetch(&data.loss, 0)? / total_points;
        loss_history.push(loss);
        let improvement = (previous_loss - loss).abs() / previous_loss.max(1e-12);
        previous_loss = loss;
        if improvement < config.loss_tolerance {
            break;
        }
    }

    Ok(LrResult {
        final_loss: previous_loss,
        loss_history,
        inner_iterations,
        outer_iterations,
    })
}

/// Total tasks submitted per inner iteration (gradient stage + reduction tree
/// + update). Used by the benchmark harness to compute task throughput.
pub fn tasks_per_inner_iteration(partitions: u32) -> u64 {
    partitions as u64 + crate::reduction::reduction_task_count(partitions) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_runtime::{Cluster, ClusterConfig};

    #[test]
    fn logistic_regression_converges_and_templates_are_reused() {
        let config = LogisticRegressionConfig {
            partitions: 4,
            points_per_partition: 64,
            dim: 4,
            max_inner_iterations: 4,
            max_outer_iterations: 3,
            ..Default::default()
        };
        let mut setup = AppSetup::new();
        register(&mut setup, &config);
        let cluster = Cluster::start(ClusterConfig::new(2), setup);
        let report = cluster
            .run_driver(|ctx| run(ctx, &config))
            .expect("job completes");
        let result = report.output;
        assert!(result.inner_iterations >= 2);
        assert!(result.final_loss.is_finite());
        // Training reduces the loss below the untrained ln(2) baseline.
        assert!(
            result.final_loss < 0.693,
            "final loss {} did not improve over the untrained model",
            result.final_loss
        );
        // The inner block was recorded once and instantiated afterwards.
        assert_eq!(report.controller.controller_templates_installed, 2);
        assert!(report.controller.tasks_from_templates > 0);
    }

    #[test]
    fn templates_do_not_change_results() {
        let config = LogisticRegressionConfig {
            partitions: 4,
            points_per_partition: 32,
            dim: 3,
            max_inner_iterations: 3,
            max_outer_iterations: 2,
            ..Default::default()
        };
        let run_once = |templates: bool| {
            let mut setup = AppSetup::new();
            register(&mut setup, &config);
            let cluster_config = if templates {
                ClusterConfig::new(2)
            } else {
                ClusterConfig::new(2).without_templates()
            };
            let cluster = Cluster::start(cluster_config, setup);
            cluster
                .run_driver(|ctx| {
                    if !templates {
                        ctx.enable_templates(false)?;
                    }
                    run(ctx, &config)
                })
                .expect("job completes")
                .output
        };
        let with = run_once(true);
        let without = run_once(false);
        assert_eq!(with.loss_history.len(), without.loss_history.len());
        for (a, b) in with.loss_history.iter().zip(&without.loss_history) {
            assert!(
                (a - b).abs() < 1e-9,
                "templates changed results: {a} vs {b}"
            );
        }
    }

    #[test]
    fn task_count_helper_matches_structure() {
        // 8 partitions: 8 gradient tasks + 3+1 reduction tasks + 1 update.
        assert_eq!(tasks_per_inner_iteration(8), 13);
    }
}
