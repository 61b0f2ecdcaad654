//! Control-plane models and the per-iteration dispatch simulation.
//!
//! One iteration is simulated by replaying the controller's dispatch behaviour
//! against per-worker queues: a centralized per-task scheduler feeds tasks one
//! at a time (bounded by its dispatch cost and maximum throughput), a
//! template-driven controller sends one instantiation message per worker, and
//! a static dataflow plane sends nothing at all once installed. Workers drain
//! their queues in parallel; the non-parallelizable reduction tail runs after
//! the slowest worker finishes.

use crate::costs::CostProfile;
use crate::model::{ClusterModel, WorkloadModel};

/// The control-plane discipline driving an iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum ControlPlane {
    /// A Spark-like centralized scheduler that dispatches every task
    /// individually from the controller.
    CentralizedPerTask {
        /// Cost of scheduling one task at the controller, in microseconds.
        per_task_us: f64,
        /// Saturation throughput in tasks per second.
        max_throughput: f64,
    },
    /// A Nimbus controller using execution templates.
    ExecutionTemplates {
        /// Per-task instantiation cost at the controller and worker.
        per_task_us: f64,
        /// One-off cost added this iteration (template installation, edits,
        /// patches), in microseconds.
        one_off_us: f64,
    },
    /// A Naiad/TensorFlow-like static dataflow installed on the workers.
    StaticDataflow {
        /// One-off cost added this iteration (full plan re-installation).
        one_off_us: f64,
        /// Fixed per-iteration coordination overhead, in microseconds.
        per_iteration_us: f64,
    },
    /// Application-level MPI messaging: no control plane during execution.
    ApplicationMpi,
}

impl ControlPlane {
    /// Spark-opt: the paper's Spark 2.0 baseline with C++-equivalent tasks.
    pub fn spark_like(profile: &CostProfile) -> Self {
        ControlPlane::CentralizedPerTask {
            per_task_us: profile.spark_schedule_task,
            max_throughput: profile.centralized_max_throughput,
        }
    }

    /// Nimbus without templates: the same centralized scheduler Nimbus falls
    /// back to when templates are disabled.
    pub fn nimbus_without_templates(profile: &CostProfile) -> Self {
        ControlPlane::CentralizedPerTask {
            per_task_us: profile.nimbus_schedule_task,
            max_throughput: 1_000_000.0 / profile.nimbus_schedule_task,
        }
    }

    /// Nimbus with templates in the auto-validated steady state.
    pub fn templates_steady(profile: &CostProfile) -> Self {
        ControlPlane::ExecutionTemplates {
            per_task_us: profile.instantiate_controller_per_task
                + profile.instantiate_worker_auto_per_task,
            one_off_us: 0.0,
        }
    }

    /// Nimbus with templates when the instantiation needs full validation.
    pub fn templates_validated(profile: &CostProfile) -> Self {
        ControlPlane::ExecutionTemplates {
            per_task_us: profile.instantiate_controller_per_task
                + profile.instantiate_worker_validated_per_task,
            one_off_us: 0.0,
        }
    }

    /// Naiad-opt in the steady state (plan already installed).
    pub fn naiad_steady(per_worker_callback_us: f64, workers: u32) -> Self {
        ControlPlane::StaticDataflow {
            one_off_us: 0.0,
            per_iteration_us: per_worker_callback_us * workers as f64,
        }
    }
}

/// The simulated outcome of one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationBreakdown {
    /// Wall-clock iteration time, in microseconds.
    pub total_us: f64,
    /// Ideal computation time (what the black bars in the paper's figures
    /// show), in microseconds.
    pub compute_us: f64,
    /// Control-plane overhead (total minus computation), in microseconds.
    pub control_us: f64,
    /// Task throughput achieved this iteration, in tasks per second.
    pub tasks_per_second: f64,
}

/// Simulates one iteration of `workload` on `cluster` under `plane`.
pub fn simulate_iteration(
    plane: &ControlPlane,
    cluster: &ClusterModel,
    workload: &WorkloadModel,
) -> IterationBreakdown {
    let workers = cluster.workers.max(1);
    let tasks = workload.tasks(workers);
    let task_duration = workload.task_duration_us(workers);
    let compute_us = workload.compute_us(workers);

    let finish = match plane {
        ControlPlane::CentralizedPerTask {
            per_task_us,
            max_throughput,
        } => {
            // The controller emits tasks one at a time; each dispatch costs
            // `per_task_us` and the overall rate saturates at
            // `max_throughput`. Workers drain their queues as tasks arrive.
            let dispatch_gap = per_task_us.max(1_000_000.0 / max_throughput);
            let mut worker_free = vec![0.0f64; workers as usize];
            let mut finish = 0.0f64;
            for i in 0..tasks {
                let dispatched = (i + 1) as f64 * dispatch_gap;
                let arrival = dispatched + cluster.latency_us;
                let w = (i % workers as u64) as usize;
                let start = arrival.max(worker_free[w]);
                worker_free[w] = start + task_duration;
                finish = finish.max(worker_free[w]);
            }
            finish + workload.serial_tail_us
        }
        ControlPlane::ExecutionTemplates {
            per_task_us,
            one_off_us,
        } => {
            // One instantiation message per worker; the controller's serial
            // work is the per-task instantiation cost over all tasks, spread
            // across the per-worker messages in worker order.
            let serial = tasks as f64 * per_task_us + one_off_us;
            let per_worker_tasks = (tasks as f64 / workers as f64).ceil();
            let mut finish = 0.0f64;
            for w in 0..workers as u64 {
                let msg_sent = serial * (w + 1) as f64 / workers as f64;
                let start = msg_sent + cluster.latency_us;
                finish = finish.max(start + per_worker_tasks * task_duration);
            }
            finish + workload.serial_tail_us
        }
        ControlPlane::StaticDataflow {
            one_off_us,
            per_iteration_us,
        } => {
            let per_worker_tasks = (tasks as f64 / workers as f64).ceil();
            one_off_us
                + per_iteration_us
                + cluster.latency_us
                + per_worker_tasks * task_duration
                + workload.serial_tail_us
        }
        ControlPlane::ApplicationMpi => {
            let per_worker_tasks = (tasks as f64 / workers as f64).ceil();
            per_worker_tasks * task_duration + workload.serial_tail_us
        }
    };

    IterationBreakdown {
        total_us: finish,
        compute_us,
        control_us: (finish - compute_us).max(0.0),
        tasks_per_second: tasks as f64 / (finish / 1_000_000.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lr() -> WorkloadModel {
        WorkloadModel::logistic_regression()
    }

    #[test]
    fn templates_match_distributed_dataflow_and_beat_centralized() {
        let profile = CostProfile::paper();
        let cluster = ClusterModel::new(100);
        let spark = simulate_iteration(&ControlPlane::spark_like(&profile), &cluster, &lr());
        let nimbus = simulate_iteration(&ControlPlane::templates_steady(&profile), &cluster, &lr());
        let naiad = simulate_iteration(&ControlPlane::naiad_steady(200.0, 100), &cluster, &lr());
        // Figure 7a at 100 workers: Spark ~1.43 s, Naiad ~0.08 s, Nimbus ~0.06 s.
        assert!(spark.total_us > 10.0 * nimbus.total_us);
        assert!((nimbus.total_us / naiad.total_us - 1.0).abs() < 0.5);
        assert!(nimbus.total_us < 120_000.0, "{}", nimbus.total_us);
    }

    #[test]
    fn centralized_scheduler_gets_worse_with_more_workers() {
        let profile = CostProfile::paper();
        let w = WorkloadModel::mllib_logistic_regression();
        let at30 = simulate_iteration(
            &ControlPlane::spark_like(&profile),
            &ClusterModel::new(30),
            &w,
        );
        let at100 = simulate_iteration(
            &ControlPlane::spark_like(&profile),
            &ClusterModel::new(100),
            &w,
        );
        // Figure 1: computation shrinks but completion time grows.
        assert!(at100.compute_us < at30.compute_us);
        assert!(at100.total_us > at30.total_us);
    }

    #[test]
    fn template_throughput_scales_with_workers() {
        let profile = CostProfile::paper();
        let nimbus20 = simulate_iteration(
            &ControlPlane::templates_steady(&profile),
            &ClusterModel::new(20),
            &lr(),
        );
        let nimbus100 = simulate_iteration(
            &ControlPlane::templates_steady(&profile),
            &ClusterModel::new(100),
            &lr(),
        );
        assert!(nimbus100.tasks_per_second > 3.0 * nimbus20.tasks_per_second);
        // Figure 8: ~128k tasks/s at 100 workers.
        assert!(nimbus100.tasks_per_second > 80_000.0);
        let spark100 = simulate_iteration(
            &ControlPlane::spark_like(&profile),
            &ClusterModel::new(100),
            &lr(),
        );
        assert!(spark100.tasks_per_second < 7_000.0);
    }

    #[test]
    fn mpi_has_no_control_overhead() {
        let b = simulate_iteration(&ControlPlane::ApplicationMpi, &ClusterModel::new(64), &lr());
        assert!(b.control_us < 1.0);
    }
}
