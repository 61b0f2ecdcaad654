//! A set of runs as one result file, and the comparison of two such files.
//!
//! The result schema (`nimbus-benchmark/1`):
//!
//! ```text
//! { schema, provenance: "measured", commit, seeds, seconds, runs, nproc,
//!   cpu_model, rustc, workers,
//!   workloads: [ { name, why, transport, sample_sizes, attempted, failed,
//!                  failed_ops_share,
//!                  end_to_end: { <metric>: { unit, better, bound, median, q1,
//!                                            q3, min, max, count, runs } },
//!                  within_run: { samples, informational },
//!                  per_layer: { <metric>: { value, unit, better } },
//!                  trace: { ... } } ] }
//! ```
//!
//! `median`…`count` of an end-to-end metric are taken over the values of the
//! set's runs (one value per run, each run its own process and seed);
//! `within_run` keeps the last run's own sample statistics and sizes.

use std::process::{Command, Stdio};

use crate::json::{obj, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::{out_dir, summary_json};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;
use crate::Args;

/// What one child process printed.
struct Child {
    ok: bool,
    line: Json,
    detail: Json,
}

/// Runs one workload in a child process and parses its last two lines. The
/// child's own report goes to standard error so the parent's stays readable.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines = text.lines().rev();
    let line = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("the {workload} run printed no result:\n{text}"))?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    for problem in text.lines().filter(|l| l.contains("PROBLEM")) {
        eprintln!("{workload}: {}", problem.trim());
    }
    Ok(Child {
        ok: output.status.success() && line.get("correct").and_then(Json::as_bool) == Some(true),
        line,
        detail,
    })
}

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload `args.runs` times untraced and once traced, writes
/// the result file and prints both tables. Returns the document and whether
/// every run was correct.
pub fn full_set(args: &Args) -> Result<(Json, bool), String> {
    let path = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => out_dir().join("result.json"),
    };
    full_set_into(args, &path)
}

fn full_set_into(args: &Args, path: &std::path::Path) -> Result<(Json, bool), String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let seeds: Vec<u64> = (0..args.runs as u64).map(|r| args.seed + r).collect();
    for w in &WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut last_detail = Json::Null;
        for seed in &seeds {
            eprintln!("running {} seed {seed} for {} s", w.name, args.seconds);
            let run = child(w.name, *seed, args.seconds, false)?;
            all_ok &= run.ok;
            attempted += run
                .line
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += run.line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for ((metric, _), samples) in END_TO_END.iter().zip(&mut values) {
                samples.extend(metric_value(&run.line, metric.name));
            }
            last_detail = run.detail;
        }
        let end_to_end = END_TO_END
            .iter()
            .zip(&values)
            .map(|((metric, bound), samples)| {
                let mut entry = vec![
                    ("unit".to_string(), metric.unit.into()),
                    ("better".to_string(), metric.better.name().into()),
                    ("bound".to_string(), (*bound).into()),
                ];
                entry.extend(summary_json(samples).members().iter().cloned());
                entry.push((
                    "runs".to_string(),
                    Json::Arr(samples.iter().map(|v| (*v).into()).collect()),
                ));
                (metric.name.to_string(), Json::Obj(entry))
            })
            .collect();

        eprintln!(
            "tracing {} seed {} for {} s",
            w.name, args.seed, args.seconds
        );
        let traced = child(w.name, args.seed, args.seconds, true)?;
        all_ok &= traced.ok;
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|metric| {
                let value = metric_value(&traced.line, metric.name)?;
                Some((
                    metric.name.to_string(),
                    obj([
                        ("value", value.into()),
                        ("unit", metric.unit.into()),
                        ("better", metric.better.name().into()),
                    ]),
                ))
            })
            .collect();

        workloads.push(obj([
            ("name", w.name.into()),
            ("why", w.why.into()),
            ("transport", w.transport.name().into()),
            ("tasks_per_block", u64::from(w.tasks).into()),
            ("sample_sizes", w.sample_sizes().into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("failed_ops_share", (failed / attempted.max(1.0)).into()),
            ("end_to_end", Json::Obj(end_to_end)),
            ("within_run", last_detail),
            ("per_layer", Json::Obj(per_layer)),
            ("trace", traced.detail),
        ]));
    }
    let doc = obj([
        ("schema", "nimbus-benchmark/1".into()),
        ("provenance", "measured".into()),
        ("commit", capture("git", &["rev-parse", "HEAD"]).into()),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| (*s).into()).collect()),
        ),
        ("seconds", args.seconds.into()),
        ("runs", args.runs.into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("cpu_model", cpu_model().into()),
        ("rustc", capture("rustc", &["--version"]).into()),
        ("workers", crate::app::WORKERS.into()),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    print_set(&doc);
    println!("result written to {}", path.display());
    Ok((doc, all_ok))
}

/// Prints the end-to-end table and the per-layer table of a result file.
fn print_set(doc: &Json) {
    println!(
        "\nend to end (median of {} runs of {} s; q1..q3; seeds {})",
        doc.get("runs").and_then(Json::as_f64).unwrap_or(0.0),
        doc.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
        doc.get("seeds").map_or(String::new(), Json::compact),
    );
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>14} {:>6} {:>6}  unit",
        "workload", "metric", "median", "q1", "q3", "runs", "bound"
    );
    let workloads = doc.get("workloads").map_or(&[][..], Json::items);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for (metric, entry) in w.get("end_to_end").map_or(&[][..], Json::members) {
            let num = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>14.4} {:>6} {:>6}  {} ({} is better)",
                name,
                metric,
                num("median"),
                num("q1"),
                num("q3"),
                num("count"),
                num("bound"),
                entry.get("unit").and_then(Json::as_str).unwrap_or(""),
                entry.get("better").and_then(Json::as_str).unwrap_or(""),
            );
        }
        println!(
            "{:<14} {:<12} {:>14}",
            name,
            "failed_ops_share",
            w.get("failed_ops_share")
                .map_or(String::new(), Json::compact)
        );
    }
    println!("\nper layer (one traced run per workload; 0 = not exercised by that workload)");
    print!("{:<40}", "metric");
    for w in workloads {
        print!(
            " {:>14}",
            w.get("name").and_then(Json::as_str).unwrap_or("?")
        );
    }
    println!("  unit");
    for metric in &PER_LAYER {
        print!("{:<40}", metric.name);
        for w in workloads {
            let value = w
                .get("per_layer")
                .and_then(|p| p.get(metric.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            match value {
                Some(v) => print!(" {v:>14.3}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!("  {}", metric.unit);
    }
    for w in workloads {
        if let Some(notes) = w.get("trace").and_then(|t| t.get("notes")) {
            for note in notes.items() {
                println!(
                    "{}: {}",
                    w.get("name").and_then(Json::as_str).unwrap_or("?"),
                    note.as_str().unwrap_or("")
                );
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The baseline's own inter-quartile spread exceeds the bound, so the
    /// two medians cannot be told apart at that bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison: metric of a workload in baseline `a` and in `b`.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative when better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges `b` against baseline `a`.
pub fn judge(a: &Summary, b: f64, better: Better, bound: f64) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Higher => (a.median - b) / a.median,
        Better::Lower => (b - a.median) / a.median,
    };
    let spread = a.spread();
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (worse_by, verdict)
}

fn summary_of(entry: &Json) -> Option<Summary> {
    let num = |key: &str| entry.get(key).and_then(Json::as_f64);
    Some(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        min: num("min")?,
        max: num("max")?,
        count: num("count")? as usize,
    })
}

/// One row per (metric, workload) present in both result documents.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in a.get("workloads").map_or(&[][..], Json::items) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(wb) = b
            .get("workloads")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for (metric, bound) in &END_TO_END {
            let entry = |w: &Json| w.get("end_to_end")?.get(metric.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (entry(wa), entry(wb)) else {
                continue;
            };
            let (worse_by, verdict) = judge(&sa, sb.median, metric.better, *bound);
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.name.to_string(),
                a: sa.median,
                b: sb.median,
                worse_by,
                spread_a: sa.spread(),
                bound: *bound,
                verdict,
            });
        }
    }
    rows
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>10} {:>10} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "worse by", "A spread", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>10.4} {:>9.2}% {:>8.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.worse_by * 100.0,
            r.spread_a * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    println!("ratios and shares have A's median as their base");
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: succeeds when no row is worse.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let rows = compare(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) pair".to_string());
    }
    print_rows(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

/// The A/A test: the same build measured twice must agree within every
/// bound, in both directions, and every baseline spread must resolve it.
pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut ok = true;
    for side in ["A", "B"] {
        let out = out_dir().join(format!("selfcheck.{side}.json"));
        let (doc, correct) = full_set_into(args, &out)?;
        ok &= correct;
        docs.push(doc);
    }
    let rows = compare(&docs[0], &docs[1]);
    println!("\nselfcheck: B against A, same build");
    print_rows(&rows);
    let agree = rows
        .iter()
        .all(|r| r.verdict != Verdict::Unresolved && r.worse_by.abs() <= r.bound);
    println!(
        "selfcheck {}",
        if agree && ok { "passed" } else { "FAILED" }
    );
    Ok(agree && ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tasks_per_s: [f64; 5], iter_p50: [f64; 5]) -> Json {
        let entry = |samples: &[f64]| {
            let mut members = summary_json(samples).members().to_vec();
            members.push(("unit".to_string(), "x".into()));
            Json::Obj(members)
        };
        obj([(
            "workloads",
            Json::Arr(vec![obj([
                ("name", "flood.small".into()),
                (
                    "end_to_end",
                    obj([
                        ("tasks_per_s", entry(&tasks_per_s)),
                        ("iter_us_p50", entry(&iter_p50)),
                    ]),
                ),
            ])]),
        )])
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<(String, Verdict)> {
        compare(a, b)
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn compare_judges_each_direction() {
        let steady = [100.0, 101.0, 100.5, 99.5, 99.0];
        let a = doc(steady, steady);
        // Same numbers: within bound on both metrics.
        assert_eq!(
            verdicts(&a, &a),
            vec![
                ("tasks_per_s".to_string(), Verdict::WithinBound),
                ("iter_us_p50".to_string(), Verdict::WithinBound)
            ]
        );
        // 20 % lower: worse for throughput, better for latency.
        let low = steady.map(|v| v * 0.8);
        assert_eq!(
            verdicts(&a, &doc(low, low)),
            vec![
                ("tasks_per_s".to_string(), Verdict::Worse),
                ("iter_us_p50".to_string(), Verdict::Better)
            ]
        );
        // 5 % higher: better for throughput, within the 10 % bound for latency.
        let high = steady.map(|v| v * 1.05);
        assert_eq!(
            verdicts(&a, &doc(high, high)),
            vec![
                ("tasks_per_s".to_string(), Verdict::Better),
                ("iter_us_p50".to_string(), Verdict::WithinBound)
            ]
        );
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_not_unchanged() {
        let noisy = [40.0, 70.0, 100.0, 130.0, 160.0];
        let a = doc(noisy, noisy);
        let rows = compare(&a, &doc(noisy.map(|v| v * 0.5), noisy));
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Unresolved),
            "{rows:?}"
        );
        assert!((rows[0].spread_a - 0.6).abs() < 1e-12);
        assert!((rows[0].worse_by - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rows_carry_ratio_inputs_and_skip_missing_pairs() {
        let a = doc([10.0; 5], [2.0; 5]);
        let b = doc([12.0; 5], [2.0; 5]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2, "iter_us_p99 and setup_s are in neither file");
        assert_eq!((rows[0].a, rows[0].b), (10.0, 12.0));
        assert!((rows[0].worse_by + 0.2).abs() < 1e-12);
        assert!(compare(&a, &obj([("workloads", Json::Arr(vec![]))])).is_empty());
    }
}
