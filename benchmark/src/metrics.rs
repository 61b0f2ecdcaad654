//! The benchmark's metrics by name. `BENCHMARK.json` at the root of the
//! repository lists the same names, units, directions and bounds; a test
//! keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics with the share of the baseline median by which each
/// may worsen. The bounds come from the A/A runs recorded in the README:
/// each is at least three times the widest spread seen. `tasks_per_s` and
/// `iter_us_p50` are wider than the 10 % first intended because the closed
/// loop flips between two scheduling regimes on this machine.
pub const END_TO_END: [(Metric, f64); 4] = [
    (up("tasks_per_s", "1/s"), 0.12),
    (down("iter_us_p50", "us"), 0.25),
    (down("iter_us_p99", "us"), 0.25),
    (down("setup_s", "s"), 0.25),
];

/// Per-layer metrics, measured by the `--trace 1` run. A metric a workload
/// does not exercise reads 0 there (every `net.*` on an in-process workload,
/// `driver.migrate_ack_us` where nothing migrates, the model lines that
/// belong to the other loop shape).
pub const PER_LAYER: [Metric; 51] = [
    down("driver.block_call_ns", "ns"),
    down("driver.fetch_wait_us", "us"),
    down("driver.barrier_wait_us", "us"),
    down("driver.migrate_ack_us", "us"),
    down("net.encode_ns_per_msg", "ns"),
    down("net.decode_ns_per_msg", "ns"),
    down("net.bytes_per_inst", "B"),
    up("net.tcp_msgs_per_s_batch1", "1/s"),
    up("net.tcp_msgs_per_s_batch64", "1/s"),
    down("net.tcp_rtt_us", "us"),
    down("net.tcp_writes_per_inst", "count"),
    up("net.frames_coalesced_per_inst", "count"),
    up("net.batched_msgs_per_inst", "count"),
    down("controller.plan_ns_auto", "ns"),
    down("controller.plan_ns_per_task_auto", "ns"),
    down("controller.plan_ns_full", "ns"),
    down("controller.plan_ns_edit_k0", "ns"),
    down("controller.plan_ns_edit_k8", "ns"),
    down("controller.plan_ns_edit_k80", "ns"),
    down("controller.plan_ns_steady_k8", "ns"),
    down("controller.plan_ns_steady_k80", "ns"),
    down("controller.expand_task_ns", "ns"),
    up("controller.auto_validations_per_inst", "count"),
    down("controller.full_validations_per_inst", "count"),
    up("controller.patch_cache_hits_per_inst", "count"),
    down("controller.patch_cache_misses_per_inst", "count"),
    down("controller.edits_applied", "count"),
    down("controller.copies_inserted", "count"),
    down("controller.msgs_per_inst", "count"),
    down("controller.templates_per_cluster", "count"),
    down("worker.queue_ns_per_cmd", "ns"),
    down("worker.exec_ns_per_task", "ns"),
    down("worker.step_ns_per_task", "ns"),
    down("worker.commands_per_inst", "count"),
    down("worker.tasks_per_inst", "count"),
    down("worker.completion_msgs_per_inst", "count"),
    down("worker.duplicate_commands_ignored", "count"),
    down("core.validate_ns_per_precondition", "ns"),
    down("core.patch_compute_ns", "ns"),
    down("core.apply_edits_ns_per_edit", "ns"),
    down("core.instantiate_ns_per_entry", "ns"),
    down("runtime.cluster_start_ms_inproc", "ms"),
    down("runtime.cluster_start_ms_tcp", "ms"),
    up("traced.tasks_per_s", "1/s"),
    up("untraced.tasks_per_s", "1/s"),
    down("trace_overhead_share", "share"),
    down("model.cpu_ns_per_task", "ns"),
    up("model.predicted_tasks_per_s", "1/s"),
    down("model.unattributed_share", "share"),
    down("model.predicted_iter_us", "us"),
    down("untraced.iter_us_p50", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are what
    /// the program prints; they must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (text(entry, "name"), text(entry, "why")),
                (w.name.into(), w.why.into())
            );
            assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let end_to_end = doc.get("end_to_end").unwrap().items();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (m, bound)) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.name());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(*bound));
            assert!(*bound > 0.0 && *bound <= 0.25 && valid_name(m.name));
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let per_layer = doc.get("per_layer").unwrap().items();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.name());
            assert!(valid_name(m.name) && m.unit.len() <= 16);
        }
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
    }
}
