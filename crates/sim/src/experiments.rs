//! Experiment drivers: one function per figure of the paper's evaluation.
//!
//! Each driver returns plain data rows so the benchmark harness (and tests)
//! can print, compare, or plot them. The paper's published values are
//! embedded alongside the simulated ones so EXPERIMENTS.md can report
//! paper-vs-measured for every figure.

use crate::control::{simulate_iteration, ControlPlane, IterationBreakdown};
use crate::costs::CostProfile;
use crate::model::{ClusterModel, WorkloadModel};

/// One data point of a figure: an x value plus named series values.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The x coordinate (worker count, iteration index, or seconds).
    pub x: f64,
    /// `(series name, value)` pairs.
    pub values: Vec<(&'static str, f64)>,
}

impl Row {
    /// Returns the value of a named series.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == series)
            .map(|(_, v)| *v)
    }
}

fn seconds(breakdown: &IterationBreakdown) -> (f64, f64, f64) {
    (
        breakdown.total_us / 1e6,
        breakdown.compute_us / 1e6,
        breakdown.control_us / 1e6,
    )
}

/// Figure 1: Spark 2.0 MLlib logistic regression, 30–100 workers. Completion
/// time grows with parallelism because the control plane outstrips the
/// computation gains.
pub fn fig1_spark_bottleneck(profile: &CostProfile) -> Vec<Row> {
    let workload = WorkloadModel::mllib_logistic_regression();
    (30..=100)
        .step_by(10)
        .map(|workers| {
            let b = simulate_iteration(
                &ControlPlane::spark_like(profile),
                &ClusterModel::new(workers),
                &workload,
            );
            let (total, compute, control) = seconds(&b);
            Row {
                x: workers as f64,
                values: vec![
                    ("iteration_s", total),
                    ("computation_s", compute),
                    ("control_s", control),
                ],
            }
        })
        .collect()
}

/// Figure 7: iteration time of logistic regression (`kmeans = false`) or
/// k-means (`kmeans = true`) for Spark-opt, Naiad-opt, and Nimbus at 20, 50,
/// and 100 workers, with the control/computation split.
pub fn fig7_iteration_time(profile: &CostProfile, kmeans: bool) -> Vec<Row> {
    let workload = if kmeans {
        WorkloadModel::kmeans()
    } else {
        WorkloadModel::logistic_regression()
    };
    [20u32, 50, 100]
        .into_iter()
        .map(|workers| {
            let cluster = ClusterModel::new(workers);
            let spark = simulate_iteration(&ControlPlane::spark_like(profile), &cluster, &workload);
            let naiad = simulate_iteration(
                &ControlPlane::naiad_steady(200.0, workers),
                &cluster,
                &workload,
            );
            let nimbus = simulate_iteration(
                &ControlPlane::templates_steady(profile),
                &cluster,
                &workload,
            );
            Row {
                x: workers as f64,
                values: vec![
                    ("spark_opt_s", spark.total_us / 1e6),
                    ("naiad_opt_s", naiad.total_us / 1e6),
                    ("nimbus_s", nimbus.total_us / 1e6),
                    ("computation_s", nimbus.compute_us / 1e6),
                    ("spark_control_s", spark.control_us / 1e6),
                    ("nimbus_control_s", nimbus.control_us / 1e6),
                ],
            }
        })
        .collect()
}

/// Figure 9: a 35-iteration timeline of logistic regression on 100 workers
/// while templates are enabled mid-run, 50 workers are revoked, and later
/// returned. Returns one row per iteration with the annotation encoded as a
/// phase index:
/// 0 = templates disabled, 1 = installing, 2 = steady state,
/// 3 = allocation change (regeneration), 4 = validation-only.
pub fn fig9_dynamic_scheduling(profile: &CostProfile) -> Vec<Row> {
    let workload = WorkloadModel::logistic_regression();
    let full = ClusterModel::new(100);
    let half = ClusterModel::new(50);
    let tasks_full = workload.tasks(100) as f64;

    let mut rows = Vec::new();
    for iteration in 1..=35u32 {
        let (cluster, plane, phase) = match iteration {
            1..=9 => (&full, ControlPlane::nimbus_without_templates(profile), 0.0),
            // Iteration 10: still scheduled per task, plus the one-time cost
            // of installing the controller template.
            10 => (
                &full,
                ControlPlane::CentralizedPerTask {
                    per_task_us: profile.nimbus_schedule_task
                        + profile.install_controller_template_per_task,
                    max_throughput: 1e6
                        / (profile.nimbus_schedule_task
                            + profile.install_controller_template_per_task),
                },
                1.0,
            ),
            // Iteration 11: generating the controller half of the worker
            // templates while still dispatching tasks individually.
            11 => (
                &full,
                ControlPlane::CentralizedPerTask {
                    per_task_us: profile.nimbus_schedule_task
                        + profile.install_worker_template_controller_per_task,
                    max_throughput: 1e6
                        / (profile.nimbus_schedule_task
                            + profile.install_worker_template_controller_per_task),
                },
                1.0,
            ),
            // Iteration 12: installing the worker halves on the workers.
            12 => (
                &full,
                ControlPlane::ExecutionTemplates {
                    per_task_us: profile.instantiate_controller_per_task
                        + profile.instantiate_worker_validated_per_task,
                    one_off_us: tasks_full * profile.install_worker_template_worker_per_task,
                },
                1.0,
            ),
            13..=19 => (&full, ControlPlane::templates_steady(profile), 2.0),
            // Iteration 20: 50 workers revoked; the controller regenerates
            // worker templates for the remaining 50, dispatching per task.
            20 => (&half, ControlPlane::nimbus_without_templates(profile), 3.0),
            21 => (
                &half,
                ControlPlane::ExecutionTemplates {
                    per_task_us: profile.instantiate_controller_per_task
                        + profile.instantiate_worker_validated_per_task,
                    one_off_us: workload.tasks(50) as f64
                        * profile.install_worker_template_worker_per_task,
                },
                3.0,
            ),
            22..=29 => (&half, ControlPlane::templates_steady(profile), 2.0),
            // Iteration 30: workers return; cached templates only need an
            // explicit validation pass.
            30 => (&full, ControlPlane::templates_validated(profile), 4.0),
            _ => (&full, ControlPlane::templates_steady(profile), 2.0),
        };
        let b = simulate_iteration(&plane, cluster, &workload);
        let (total, compute, control) = seconds(&b);
        rows.push(Row {
            x: iteration as f64,
            values: vec![
                ("iteration_s", total),
                ("computation_s", compute),
                ("control_s", control),
                ("phase", phase),
                ("workers", cluster.workers as f64),
            ],
        });
    }
    rows
}

/// Figure 10: logistic regression over 100 workers with 5% of tasks migrated
/// every 5 iterations. Returns cumulative completion time (seconds) against
/// iteration number for Nimbus (edits) and Naiad (full re-installation).
pub fn fig10_migration(profile: &CostProfile) -> Vec<Row> {
    let workload = WorkloadModel::logistic_regression();
    let cluster = ClusterModel::new(100);
    let steady_nimbus = simulate_iteration(
        &ControlPlane::templates_steady(profile),
        &cluster,
        &workload,
    );
    let steady_naiad =
        simulate_iteration(&ControlPlane::naiad_steady(200.0, 100), &cluster, &workload);
    let migrated_tasks = (workload.tasks(100) as f64 * 0.05).round();

    let mut nimbus_t = 0.0;
    let mut naiad_t = 0.0;
    let mut rows = Vec::new();
    for iteration in 1..=20u32 {
        let migrate = iteration % 5 == 0;
        nimbus_t += steady_nimbus.total_us / 1e6;
        naiad_t += steady_naiad.total_us / 1e6;
        if migrate {
            // Nimbus applies one edit per migrated task; Naiad reinstalls the
            // whole dataflow (Table 3).
            nimbus_t += migrated_tasks * profile.single_edit / 1e6;
            naiad_t += profile.dataflow_change / 1e6;
        }
        rows.push(Row {
            x: iteration as f64,
            values: vec![("nimbus_elapsed_s", nimbus_t), ("naiad_elapsed_s", naiad_t)],
        });
    }
    rows
}

/// Figure 11: outer-loop iteration time of the particle-levelset water
/// simulation on 64 workers, for hand-tuned MPI, Nimbus with templates, and
/// Nimbus without templates.
pub fn fig11_water_simulation(profile: &CostProfile) -> Vec<Row> {
    let workload = WorkloadModel::water_simulation_frame();
    let cluster = ClusterModel::new(64);
    let mpi = simulate_iteration(&ControlPlane::ApplicationMpi, &cluster, &workload);
    // With templates, the simulation's dynamic control flow means a mix of
    // auto-validated and fully-validated instantiations plus load-balancing
    // copies; model it as the validated path.
    let nimbus = simulate_iteration(
        &ControlPlane::templates_validated(profile),
        &cluster,
        &workload,
    );
    let without = simulate_iteration(
        &ControlPlane::nimbus_without_templates(profile),
        &cluster,
        &workload,
    );
    vec![
        Row {
            x: 0.0,
            values: vec![
                ("mpi_s", mpi.total_us / 1e6),
                ("nimbus_s", nimbus.total_us / 1e6),
                ("nimbus_without_templates_s", without.total_us / 1e6),
            ],
        },
        Row {
            x: 1.0,
            values: vec![
                ("paper_mpi_s", 31.7),
                ("paper_nimbus_s", 36.5),
                ("paper_nimbus_without_templates_s", 196.8),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_completion_grows_while_compute_shrinks() {
        let rows = fig1_spark_bottleneck(&CostProfile::paper());
        assert_eq!(rows.len(), 8);
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        assert!(last.get("computation_s").unwrap() < first.get("computation_s").unwrap());
        assert!(last.get("iteration_s").unwrap() > first.get("iteration_s").unwrap());
        assert!((1.0..2.2).contains(&last.get("iteration_s").unwrap()));
    }

    #[test]
    fn fig7_nimbus_and_naiad_scale_while_spark_inverts() {
        for kmeans in [false, true] {
            let rows = fig7_iteration_time(&CostProfile::paper(), kmeans);
            let at20 = &rows[0];
            let at100 = &rows[2];
            assert!(at100.get("nimbus_s").unwrap() < at20.get("nimbus_s").unwrap());
            assert!(at100.get("spark_opt_s").unwrap() > at20.get("spark_opt_s").unwrap());
            // Paper: Spark is 15–23x slower than Nimbus at 100 workers.
            let ratio = at100.get("spark_opt_s").unwrap() / at100.get("nimbus_s").unwrap();
            assert!(ratio > 10.0, "ratio {ratio}");
        }
    }

    #[test]
    fn fig9_timeline_shape() {
        let rows = fig9_dynamic_scheduling(&CostProfile::paper());
        assert_eq!(rows.len(), 35);
        let before_templates = rows[5].get("iteration_s").unwrap();
        let install = rows[9].get("iteration_s").unwrap();
        let steady = rows[15].get("iteration_s").unwrap();
        let evicted_steady = rows[25].get("iteration_s").unwrap();
        let restored = rows[32].get("iteration_s").unwrap();
        assert!(before_templates > 10.0 * steady);
        assert!(install > before_templates);
        assert!((1.25..3.0).contains(&(evicted_steady / steady)));
        assert!((restored - steady).abs() / steady < 0.2);
    }

    #[test]
    fn fig10_nimbus_finishes_much_faster_than_naiad() {
        let rows = fig10_migration(&CostProfile::paper());
        let last = rows.last().unwrap();
        let nimbus = last.get("nimbus_elapsed_s").unwrap();
        let naiad = last.get("naiad_elapsed_s").unwrap();
        assert!(naiad / nimbus > 1.5, "naiad {naiad} nimbus {nimbus}");
    }

    #[test]
    fn fig11_orderings_match_paper() {
        let rows = fig11_water_simulation(&CostProfile::paper());
        let sim = &rows[0];
        let mpi = sim.get("mpi_s").unwrap();
        let nimbus = sim.get("nimbus_s").unwrap();
        let without = sim.get("nimbus_without_templates_s").unwrap();
        assert!(nimbus > mpi);
        assert!(
            nimbus < mpi * 1.3,
            "templates stay within ~15-30% of MPI: {nimbus} vs {mpi}"
        );
        assert!(
            without > 3.0 * mpi,
            "without templates is several times slower"
        );
    }
}
