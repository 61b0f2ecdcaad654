//! Control-plane cost profiles.
//!
//! The scaling figures compose per-task control-plane costs with a cluster
//! model. The costs are the paper's published constants (Tables 1–3), so the
//! figures reproduce the authors' testbed; this implementation's own per-task
//! costs are measured by the repository benchmark's per-layer metrics.

/// Per-task and per-event control-plane costs, in microseconds unless noted.
#[derive(Clone, Debug, PartialEq)]
pub struct CostProfile {
    /// Installing one task into a controller template (Table 1).
    pub install_controller_template_per_task: f64,
    /// Installing one task into a worker template, controller side (Table 1).
    pub install_worker_template_controller_per_task: f64,
    /// Installing one task into a worker template, worker side (Table 1).
    pub install_worker_template_worker_per_task: f64,
    /// Centrally scheduling one task in Nimbus without templates (Table 1).
    pub nimbus_schedule_task: f64,
    /// Centrally scheduling one task in Spark (Table 1).
    pub spark_schedule_task: f64,
    /// Instantiating one task slot of a controller template (Table 2).
    pub instantiate_controller_per_task: f64,
    /// Instantiating one task slot of a worker template when validation is
    /// skipped (Table 2).
    pub instantiate_worker_auto_per_task: f64,
    /// Instantiating one task slot of a worker template with full validation
    /// (Table 2).
    pub instantiate_worker_validated_per_task: f64,
    /// Applying a single edit (Table 3).
    pub single_edit: f64,
    /// Installing a complete data-flow change in a Naiad-like system, in
    /// microseconds (Table 3: 230 ms for any change).
    pub dataflow_change: f64,
    /// One-way control-plane message latency between any two nodes.
    pub message_latency: f64,
    /// Maximum task dispatch throughput of a Spark-like centralized
    /// scheduler, in tasks per second (Figure 8 saturates near 6 000/s).
    pub centralized_max_throughput: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        Self::paper()
    }
}

impl CostProfile {
    /// The constants reported by the paper (Tables 1–3, Figure 8).
    pub fn paper() -> Self {
        Self {
            install_controller_template_per_task: 25.0,
            install_worker_template_controller_per_task: 15.0,
            install_worker_template_worker_per_task: 9.0,
            nimbus_schedule_task: 134.0,
            spark_schedule_task: 166.0,
            instantiate_controller_per_task: 0.2,
            instantiate_worker_auto_per_task: 1.7,
            instantiate_worker_validated_per_task: 7.3,
            single_edit: 41.0,
            dataflow_change: 230_000.0,
            message_latency: 250.0,
            centralized_max_throughput: 6_000.0,
        }
    }

    /// Tasks per second when every instantiation requires full validation
    /// (paper: ~130 000 tasks/s).
    pub fn template_validated_throughput(&self) -> f64 {
        1_000_000.0
            / (self.instantiate_controller_per_task + self.instantiate_worker_validated_per_task)
    }

    /// Per-task cost of installing all template levels (Table 1 totals).
    pub fn install_total_per_task(&self) -> f64 {
        self.install_controller_template_per_task
            + self.install_worker_template_controller_per_task
            + self.install_worker_template_worker_per_task
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_throughputs_match_reported_numbers() {
        let p = CostProfile::paper();
        // Table 2 narrative: ~130k tasks/s validated.
        let validated = p.template_validated_throughput();
        assert!((120_000.0..150_000.0).contains(&validated));
        assert_eq!(p.install_total_per_task(), 49.0);
    }
}
