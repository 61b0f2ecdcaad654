//! Cluster and workload models for the scale-out simulations.

/// A modeled cluster: worker count and data-plane characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterModel {
    /// Number of workers allocated to the job.
    pub workers: u32,
    /// One-way network latency between any two nodes, in microseconds.
    pub latency_us: f64,
}

impl ClusterModel {
    /// A cluster of `workers` nodes with datacenter-like latency.
    pub fn new(workers: u32) -> Self {
        Self {
            workers,
            latency_us: 250.0,
        }
    }
}

/// An iterative workload: how many tasks one iteration produces and how much
/// computation it contains.
///
/// The paper's benchmarks keep the per-worker task count fixed (80 tasks per
/// worker per iteration), so adding workers increases the task count and
/// shrinks each task — the property that stresses the control plane
/// (Section 5.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadModel {
    /// Tasks per worker per iteration (80 for the paper's ML benchmarks).
    pub tasks_per_worker: u32,
    /// Total parallelizable computation per iteration, in microseconds
    /// (spread evenly over all tasks).
    pub parallel_compute_us: f64,
    /// Non-parallelizable tail per iteration (reduction tree levels and final
    /// aggregation), in microseconds.
    pub serial_tail_us: f64,
}

impl WorkloadModel {
    /// Logistic regression over the paper's 100 GB dataset: ~0.21 s of
    /// computation at 20 workers shrinking to ~0.06 s at 100 workers.
    pub fn logistic_regression() -> Self {
        Self {
            tasks_per_worker: 80,
            parallel_compute_us: 3_700_000.0,
            serial_tail_us: 25_000.0,
        }
    }

    /// K-means clustering over 100 GB: ~0.31 s at 20 workers, ~0.10 s at 100.
    pub fn kmeans() -> Self {
        Self {
            tasks_per_worker: 80,
            parallel_compute_us: 5_500_000.0,
            serial_tail_us: 41_000.0,
        }
    }

    /// Spark MLlib logistic regression as in Figure 1 (JVM task bodies are
    /// roughly 8× slower than the C++ ones, so the computation is larger).
    pub fn mllib_logistic_regression() -> Self {
        Self {
            tasks_per_worker: 80,
            parallel_compute_us: 31_000_000.0,
            serial_tail_us: 60_000.0,
        }
    }

    /// One outer-loop iteration (one frame) of the particle-levelset water
    /// simulation on 64 workers: ~31.7 s of computation spread over roughly
    /// 1.2 million short tasks (median 13 ms, some as short as 100 µs).
    pub fn water_simulation_frame() -> Self {
        Self {
            tasks_per_worker: 19_000,
            parallel_compute_us: 31_000_000.0 * 64.0,
            serial_tail_us: 700_000.0,
        }
    }

    /// Total tasks one iteration produces on a cluster of `workers`.
    pub fn tasks(&self, workers: u32) -> u64 {
        self.tasks_per_worker as u64 * workers as u64
    }

    /// Duration of one task on a cluster of `workers`, in microseconds.
    pub fn task_duration_us(&self, workers: u32) -> f64 {
        self.parallel_compute_us / self.tasks(workers) as f64
    }

    /// Ideal computation time of one iteration on `workers` workers.
    pub fn compute_us(&self, workers: u32) -> f64 {
        self.parallel_compute_us / workers as f64 + self.serial_tail_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_compute_matches_paper_scale() {
        let w = WorkloadModel::logistic_regression();
        let at20 = w.compute_us(20) / 1e6;
        let at100 = w.compute_us(100) / 1e6;
        assert!((0.19..0.24).contains(&at20), "{at20}");
        assert!((0.05..0.08).contains(&at100), "{at100}");
        assert_eq!(w.tasks(100), 8_000);
        assert!(w.task_duration_us(100) < w.task_duration_us(20));
    }

    #[test]
    fn kmeans_is_heavier_than_lr() {
        let lr = WorkloadModel::logistic_regression();
        let km = WorkloadModel::kmeans();
        assert!(km.compute_us(50) > lr.compute_us(50));
    }
}
