//! Runs the benchmark's smoke mode — every workload for about a second with
//! the same checks as a full run — and checks the result file it writes
//! against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
use json::Json;

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .unwrap_or_else(|| panic!("{section} missing"))
        .items()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_meets_the_contract() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = dir.join("out").join("smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_nimbus-benchmark"))
        .args(["--smoke", "--seed", "11", "--out"])
        .arg(&out)
        .status()
        .expect("benchmark binary starts");
    assert!(status.success(), "smoke run failed: {status}");
    let result = load(&out);
    assert_eq!(
        result.get("provenance").and_then(Json::as_str),
        Some("measured")
    );
    assert_eq!(
        result.get("seeds").map(Json::compact).as_deref(),
        Some("[11]")
    );

    let contract = load(&dir.join("../BENCHMARK.json"));
    let workloads = names(&contract, "workloads");
    let end_to_end = names(&contract, "end_to_end");
    let per_layer = names(&contract, "per_layer");
    assert_eq!(workloads, names(&result, "workloads"));

    // `section.metric` of a workload: the run-set median, or the traced value.
    let metric = |workload: &str, section: &str, metric: &str| -> f64 {
        let entry = result
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
            .and_then(|w| w.get(section)?.get(metric))
            .unwrap_or_else(|| panic!("{metric} missing for {workload}"));
        entry
            .get("median")
            .or_else(|| entry.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{metric} of {workload} has no value"))
    };
    let layer = |workload: &str, name: &str| metric(workload, "per_layer", name);

    for (w, entry) in workloads
        .iter()
        .zip(result.get("workloads").unwrap().items())
    {
        for m in &end_to_end {
            assert!(
                metric(w, "end_to_end", m) > 0.0,
                "{m} of {w} must never be 0"
            );
        }
        for m in &per_layer {
            assert!(layer(w, m).is_finite(), "{m} of {w}");
        }
        assert_eq!(
            entry.get("failed_ops_share").and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        let blocks = if w == "loop.branch" { 2.0 } else { 1.0 };
        assert_eq!(
            layer(w, "controller.templates_per_cluster"),
            blocks,
            "one recording per block name on {w}"
        );
        assert!(
            dir.join("out").join(format!("trace.{w}.json")).exists(),
            "trace of {w}"
        );
    }
    // What the workloads were chosen to show.
    for m in per_layer.iter().filter(|m| m.starts_with("net.")) {
        assert_eq!(layer("flood.wide", m), 0.0, "{m} is bypassed in-process");
        assert!(layer("flood.small", m) > 0.0, "{m} is exercised over TCP");
    }
    for flood in ["flood.small", "flood.wide"] {
        assert!(layer(flood, "controller.full_validations_per_inst") < 0.01);
    }
    let switching = layer("loop.branch", "controller.full_validations_per_inst");
    assert!(
        (0.2..0.6).contains(&switching),
        "loop.branch validates {switching} of its blocks"
    );
    assert!(layer("edits.migrate", "controller.edits_applied") > 0.0);
    assert!(layer("edits.migrate", "driver.migrate_ack_us") > 0.0);
    assert_eq!(layer("flood.small", "driver.migrate_ack_us"), 0.0);
}
