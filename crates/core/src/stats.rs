//! Control-plane statistics.
//!
//! Every layer of the control plane (driver, controller, workers) keeps a
//! [`ControlPlaneStats`] counter block. The evaluation harness reads these to
//! attribute time and traffic to the control plane versus computation, which
//! is exactly the breakdown the paper's figures report.

use std::collections::HashMap;
use std::time::Duration;

/// Counters describing control-plane activity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlPlaneStats {
    /// Tasks scheduled individually (the non-template path).
    pub tasks_scheduled_directly: u64,
    /// Tasks scheduled through template instantiation.
    pub tasks_from_templates: u64,
    /// Controller templates installed.
    pub controller_templates_installed: u64,
    /// Worker-template groups generated on the controller.
    pub worker_template_groups_generated: u64,
    /// Worker templates installed on workers.
    pub worker_templates_installed: u64,
    /// Controller-template instantiation requests received from the driver.
    pub controller_template_instantiations: u64,
    /// Worker-template instantiation messages sent.
    pub worker_template_instantiations: u64,
    /// Instantiations that validated automatically (no precondition check).
    pub auto_validations: u64,
    /// Instantiations that required a full validation pass.
    pub full_validations: u64,
    /// Patches applied (cache hits + computed).
    pub patches_applied: u64,
    /// Patch cache hits.
    pub patch_cache_hits: u64,
    /// Patch cache misses (patch had to be computed).
    pub patch_cache_misses: u64,
    /// Template edits applied.
    pub edits_applied: u64,
    /// Control-plane messages sent, by message tag.
    pub messages_by_tag: HashMap<String, u64>,
    /// Control-plane bytes sent.
    pub control_bytes_sent: u64,
    /// Data-plane bytes moved between workers.
    pub data_bytes_sent: u64,
    /// Commands dispatched to workers (individual, non-template path).
    pub commands_dispatched: u64,
    /// Copy commands inserted by the controller.
    pub copies_inserted: u64,
    /// Checkpoints committed.
    pub checkpoints_committed: u64,
    /// Worker failures handled.
    pub failures_handled: u64,
    /// Workers admitted (back) into the allocation through the rejoin
    /// handshake — returning after a failure or joining a running job.
    pub rejoins_handled: u64,
    /// Template instantiations the controller re-ran on its own after a
    /// recovery to bring data back to the pre-failure state (no driver
    /// involvement, no re-recording).
    pub instantiations_replayed: u64,
    /// Wall-clock time attributed to control-plane work.
    pub control_plane_time: Duration,
    /// Wall-clock time attributed to application computation.
    pub computation_time: Duration,
}

impl ControlPlaneStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a message of the given tag and size. Only the first message
    /// of a tag allocates its key.
    pub fn record_message(&mut self, tag: &str, bytes: usize) {
        match self.messages_by_tag.get_mut(tag) {
            Some(count) => *count += 1,
            None => {
                self.messages_by_tag.insert(tag.to_string(), 1);
            }
        }
        self.control_bytes_sent += bytes as u64;
    }

    /// Total number of control-plane messages.
    pub fn total_messages(&self) -> u64 {
        self.messages_by_tag.values().sum()
    }

    /// Total tasks scheduled through any path.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_scheduled_directly + self.tasks_from_templates
    }

    /// Patch cache hit rate in `[0, 1]`, or `None` if no lookups happened.
    pub fn patch_cache_hit_rate(&self) -> Option<f64> {
        let total = self.patch_cache_hits + self.patch_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.patch_cache_hits as f64 / total as f64)
        }
    }

    /// Merges another counter block into this one (summing counters).
    pub fn merge(&mut self, other: &ControlPlaneStats) {
        self.tasks_scheduled_directly += other.tasks_scheduled_directly;
        self.tasks_from_templates += other.tasks_from_templates;
        self.controller_templates_installed += other.controller_templates_installed;
        self.worker_template_groups_generated += other.worker_template_groups_generated;
        self.worker_templates_installed += other.worker_templates_installed;
        self.controller_template_instantiations += other.controller_template_instantiations;
        self.worker_template_instantiations += other.worker_template_instantiations;
        self.auto_validations += other.auto_validations;
        self.full_validations += other.full_validations;
        self.patches_applied += other.patches_applied;
        self.patch_cache_hits += other.patch_cache_hits;
        self.patch_cache_misses += other.patch_cache_misses;
        self.edits_applied += other.edits_applied;
        for (tag, count) in &other.messages_by_tag {
            *self.messages_by_tag.entry(tag.clone()).or_insert(0) += count;
        }
        self.control_bytes_sent += other.control_bytes_sent;
        self.data_bytes_sent += other.data_bytes_sent;
        self.commands_dispatched += other.commands_dispatched;
        self.copies_inserted += other.copies_inserted;
        self.checkpoints_committed += other.checkpoints_committed;
        self.failures_handled += other.failures_handled;
        self.rejoins_handled += other.rejoins_handled;
        self.instantiations_replayed += other.instantiations_replayed;
        self.control_plane_time += other.control_plane_time;
        self.computation_time += other.computation_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_accounting() {
        let mut s = ControlPlaneStats::new();
        s.record_message("task", 100);
        s.record_message("task", 50);
        s.record_message("instantiate", 64);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.messages_by_tag["task"], 2);
        assert_eq!(s.control_bytes_sent, 214);
    }

    #[test]
    fn hit_rate() {
        let mut s = ControlPlaneStats::new();
        assert!(s.patch_cache_hit_rate().is_none());
        s.patch_cache_hits = 9;
        s.patch_cache_misses = 1;
        assert!((s.patch_cache_hit_rate().unwrap() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ControlPlaneStats::new();
        a.tasks_from_templates = 10;
        a.record_message("task", 10);
        a.control_plane_time = Duration::from_millis(5);
        let mut b = ControlPlaneStats::new();
        b.tasks_from_templates = 5;
        b.tasks_scheduled_directly = 2;
        b.record_message("task", 20);
        b.record_message("edit", 30);
        b.control_plane_time = Duration::from_millis(7);
        a.merge(&b);
        assert_eq!(a.total_tasks(), 17);
        assert_eq!(a.messages_by_tag["task"], 2);
        assert_eq!(a.messages_by_tag["edit"], 1);
        assert_eq!(a.control_bytes_sent, 60);
        assert_eq!(a.control_plane_time, Duration::from_millis(12));
    }
}
