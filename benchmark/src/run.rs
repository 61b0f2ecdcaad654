//! One run of one workload: what `--workload` executes, in its own process
//! so that no workload warms or fragments another.

use std::path::PathBuf;

use crate::json::{obj, Json};
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{median, quantile, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, E2e, Workload};
use crate::{layers, Args};

/// Fresh cluster starts behind each `setup_s` value. A start takes a few
/// milliseconds, so its median needs many samples to hold still.
const SETUPS: usize = 25;

/// What a run reports: the contract's last line plus the detail the
/// full-set report keeps.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
    pub detail: Json,
    pub problems: Vec<String>,
}

/// Where trace and result files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

pub fn summary_json(samples: &[f64]) -> Json {
    match Summary::of(samples) {
        None => Json::Null,
        Some(s) => obj([
            ("median", s.median.into()),
            ("q1", s.q1.into()),
            ("q3", s.q3.into()),
            ("min", s.min.into()),
            ("max", s.max.into()),
            ("count", s.count.into()),
        ]),
    }
}

/// The end-to-end values of a finished run, in `END_TO_END` order.
pub fn end_to_end_values(e2e: &E2e) -> [f64; 4] {
    [
        e2e.tasks_per_s(),
        median(&e2e.iter_us),
        quantile(&e2e.iter_us, 0.99),
        median(&e2e.setup_s),
    ]
}

fn untraced(w: &Workload, args: &Args) -> Outcome {
    let e2e = workloads::run(w, args.seed, args.seconds, SETUPS, &mut Tracer::new(false));
    let values = end_to_end_values(&e2e);
    let mut problems = e2e.problems.clone();
    let mut failed = e2e.failed;
    if failed == 0 && values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        problems.push("a metric has no samples".to_string());
        failed += 1;
    }
    let detail = obj([
        ("sample_sizes", w.sample_sizes().into()),
        (
            "samples",
            obj([
                ("tasks_per_s", summary_json(&e2e.tasks_per_s)),
                ("iter_us", summary_json(&e2e.iter_us)),
                ("setup_s", summary_json(&e2e.setup_s)),
            ]),
        ),
        (
            "informational",
            obj([
                ("iter_us_p99.9", quantile(&e2e.iter_us, 0.999).into()),
                ("peak_rss_mib", workloads::peak_rss_mib().into()),
                ("send_ahead_share", median(&e2e.send_ahead_share).into()),
                ("instantiations", e2e.instantiations.into()),
                ("clusters_started", e2e.clusters.into()),
                (
                    "failed_ops_share",
                    (failed as f64 / e2e.attempted.max(1) as f64).into(),
                ),
            ]),
        ),
    ]);
    Outcome {
        attempted: e2e.attempted.max(1),
        failed,
        metrics: END_TO_END.iter().map(|(m, _)| *m).zip(values).collect(),
        detail,
        problems,
    }
}

/// Runs workload `name` and prints the result; the last line of standard
/// output is the one JSON object the contract asks for.
pub fn one(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    println!(
        "{} seed {} seconds {} trace {} ({}, {} workers, {} tasks per block)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.transport.name(),
        crate::app::WORKERS,
        w.tasks
    );
    let outcome = if args.trace {
        layers::traced(w, args)?
    } else {
        untraced(w, args)
    };
    for (metric, value) in &outcome.metrics {
        println!("  {:<42} {:>16.3} {}", metric.name, value, metric.unit);
    }
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    println!("detail {}", outcome.detail.compact());
    let correct = outcome.failed == 0;
    let metrics = outcome
        .metrics
        .iter()
        .map(|(metric, value)| {
            (
                metric.name.to_string(),
                obj([("value", (*value).into()), ("unit", metric.unit.into())]),
            )
        })
        .collect();
    let line = obj([
        ("correct", correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}
