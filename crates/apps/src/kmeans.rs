//! K-means clustering: the paper's second machine-learning benchmark.
//!
//! Each iteration assigns points to the nearest centroid (one task per
//! partition), reduces the per-cluster sums and counts through a two-level
//! tree, and recomputes the centroids. The loop terminates when the
//! clustering objective stops improving — a data-dependent branch exercised
//! through a fetched scalar, just like logistic regression.

use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::ids::FunctionId;
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::AppSetup;

use crate::data::{generate_clustered_partition, ClusterAccumulator, PointsPartition};
use crate::reduction::{intermediate_partitions, submit_two_level_reduce};

/// Assigns a partition's points to their nearest centroid.
pub const KM_ASSIGN: FunctionId = FunctionId(20);
/// Merges cluster accumulators (both reduction levels).
pub const KM_MERGE: FunctionId = FunctionId(21);
/// Recomputes the centroids from the reduced accumulator.
pub const KM_UPDATE: FunctionId = FunctionId(22);

/// Configuration of a k-means job.
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of data partitions.
    pub partitions: u32,
    /// Points per partition.
    pub points_per_partition: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of clusters.
    pub k: usize,
    /// Stop when the objective improves by less than this fraction.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Seed for the synthetic dataset.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            partitions: 8,
            points_per_partition: 256,
            dim: 4,
            k: 4,
            tolerance: 1e-4,
            max_iterations: 10,
            seed: 7,
        }
    }
}

/// Typed dataset handles used by the job.
pub struct KMeansDatasets {
    /// Input points.
    pub points: Dataset<PointsPartition>,
    /// Per-partition accumulators.
    pub partials: Dataset<ClusterAccumulator>,
    /// First-level reduced accumulators.
    pub partials_l1: Dataset<ClusterAccumulator>,
    /// Globally reduced accumulator.
    pub partials_global: Dataset<ClusterAccumulator>,
    /// Current centroids (flattened `k × dim`).
    pub centroids: Dataset<VecF64>,
    /// Clustering objective after the last update.
    pub objective: Dataset<Scalar>,
}

/// Result of a k-means run.
#[derive(Clone, Debug, PartialEq)]
pub struct KMeansResult {
    /// Final objective (sum of squared distances).
    pub final_objective: f64,
    /// Objective after every iteration.
    pub objective_history: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Registers the job's task functions and dataset factories.
pub fn register(setup: &mut AppSetup, config: &KMeansConfig) {
    let dim = config.dim;
    let k = config.k;
    let seed = config.seed;
    let points = config.points_per_partition;

    // Dataset ids follow the definition order in `define_datasets`.
    setup.register_object(nimbus_core::LogicalObjectId(1), move |lp| {
        generate_clustered_partition(seed, lp.partition.raw(), points, dim, k)
    });
    for id in 2..=4 {
        setup.register_object(nimbus_core::LogicalObjectId(id), move |_| {
            ClusterAccumulator::zeros(k, dim)
        });
    }
    setup.register_object(nimbus_core::LogicalObjectId(5), move |_| {
        // Initial centroids: spread deterministically so they are distinct.
        let mut values = vec![0.0; k * dim];
        for c in 0..k {
            for d in 0..dim {
                values[c * dim + d] = (c as f64 + 1.0) * if d % 2 == 0 { 2.0 } else { -2.0 };
            }
        }
        VecF64::new(values)
    });
    setup.register_object(nimbus_core::LogicalObjectId(6), |_| Scalar::new(f64::MAX));

    setup.register_function(KM_ASSIGN, "km_assign", |ctx| {
        let params = ctx.params().as_u64s().map_err(|e| e.to_string())?;
        let (k, dim) = (params[0] as usize, params[1] as usize);
        let data = ctx.read::<PointsPartition>(0)?;
        let centroids = ctx.read::<VecF64>(1)?.values.clone();
        let out = ctx.write::<ClusterAccumulator>(0)?;
        *out = ClusterAccumulator::zeros(k, dim);
        for i in 0..data.len() {
            let row = data.row(i);
            let mut best = 0usize;
            let mut best_d2 = f64::INFINITY;
            for c in 0..k {
                let d2: f64 = row
                    .iter()
                    .zip(&centroids[c * dim..(c + 1) * dim])
                    .map(|(a, b)| (a - b).powi(2))
                    .sum();
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = c;
                }
            }
            for (d, x) in row.iter().enumerate().take(dim) {
                out.sums[best * dim + d] += x;
            }
            out.counts[best] += 1.0;
            out.objective += best_d2;
        }
        Ok(())
    });

    setup.register_function(KM_MERGE, "km_merge", |ctx| {
        let mut merged = ClusterAccumulator::default();
        for i in 0..ctx.read_count() {
            merged.merge(ctx.read::<ClusterAccumulator>(i)?);
        }
        *ctx.write::<ClusterAccumulator>(0)? = merged;
        Ok(())
    });

    setup.register_function(KM_UPDATE, "km_update", |ctx| {
        let acc = ctx.read::<ClusterAccumulator>(0)?.clone();
        {
            let centroids = ctx.write::<VecF64>(0)?;
            if centroids.values.len() != acc.sums.len() {
                centroids.values = vec![0.0; acc.sums.len()];
            }
            for c in 0..acc.k {
                if acc.counts[c] > 0.0 {
                    for d in 0..acc.dim {
                        centroids.values[c * acc.dim + d] =
                            acc.sums[c * acc.dim + d] / acc.counts[c];
                    }
                }
            }
        }
        ctx.write::<Scalar>(1)?.value = acc.objective;
        Ok(())
    });
}

/// Defines the job's datasets (must be the first datasets of the context).
pub fn define_datasets(ctx: &mut Session, config: &KMeansConfig) -> DriverResult<KMeansDatasets> {
    let groups = intermediate_partitions(config.partitions);
    Ok(KMeansDatasets {
        points: ctx.define_dataset("points", config.partitions)?,
        partials: ctx.define_dataset("partials", config.partitions)?,
        partials_l1: ctx.define_dataset("partials_l1", groups)?,
        partials_global: ctx.define_dataset("partials_global", 1)?,
        centroids: ctx.define_dataset("centroids", 1)?,
        objective: ctx.define_dataset("objective", 1)?,
    })
}

/// Submits one clustering iteration as the "kmeans_iter" basic block.
pub fn submit_iteration(
    ctx: &mut Session,
    data: &KMeansDatasets,
    config: &KMeansConfig,
) -> DriverResult<()> {
    let shape = TaskParams::from_u64s(&[config.k as u64, config.dim as u64]);
    ctx.block("kmeans_iter", |ctx| {
        ctx.submit_stage(
            StageSpec::new("assign", KM_ASSIGN)
                .read(&data.points)
                .read_broadcast(&data.centroids)
                .write(&data.partials)
                .params(shape.clone()),
        )?;
        submit_two_level_reduce(
            ctx,
            "accumulate",
            KM_MERGE,
            &data.partials,
            &data.partials_l1,
            &data.partials_global,
            TaskParams::empty(),
        )?;
        ctx.submit_stage(
            StageSpec::new("update", KM_UPDATE)
                .read_broadcast(&data.partials_global)
                .write_partition(&data.centroids, 0)
                .write_partition(&data.objective, 0)
                .partitions(1),
        )?;
        Ok(())
    })
}

/// Runs the clustering loop until the objective stops improving.
pub fn run(ctx: &mut Session, config: &KMeansConfig) -> DriverResult<KMeansResult> {
    let data = define_datasets(ctx, config)?;
    let mut history = Vec::new();
    let mut previous = f64::MAX;
    let mut iterations = 0usize;
    for _ in 0..config.max_iterations {
        submit_iteration(ctx, &data, config)?;
        iterations += 1;
        let objective = ctx.fetch(&data.objective, 0)?;
        history.push(objective);
        let improvement = (previous - objective) / previous.max(1e-12);
        previous = objective;
        if improvement.abs() < config.tolerance {
            break;
        }
    }
    Ok(KMeansResult {
        final_objective: previous,
        objective_history: history,
        iterations,
    })
}

/// Tasks submitted per iteration (assignment + reduction tree + update).
pub fn tasks_per_iteration(partitions: u32) -> u64 {
    partitions as u64 + crate::reduction::reduction_task_count(partitions) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_runtime::{Cluster, ClusterConfig};

    #[test]
    fn kmeans_objective_decreases_and_converges() {
        let config = KMeansConfig {
            partitions: 4,
            points_per_partition: 128,
            dim: 2,
            k: 3,
            max_iterations: 8,
            ..Default::default()
        };
        let mut setup = AppSetup::new();
        register(&mut setup, &config);
        let cluster = Cluster::start(ClusterConfig::new(2), setup);
        let report = cluster
            .run_driver(|ctx| run(ctx, &config))
            .expect("job completes");
        let result = report.output;
        assert!(result.iterations >= 2);
        assert!(result.final_objective.is_finite());
        // Objective is non-increasing across iterations.
        for w in result.objective_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "objective increased: {w:?}");
        }
        // Templates were recorded and re-used across iterations.
        assert_eq!(report.controller.controller_templates_installed, 1);
        assert!(report.controller.controller_template_instantiations >= 1);
    }

    #[test]
    fn task_count_helper() {
        assert_eq!(tasks_per_iteration(4), 4 + 3 + 1);
    }
}
