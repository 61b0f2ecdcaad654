//! The repository's benchmark. See `README.md` beside this package.
//!
//! ```text
//! nimbus-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line last
//! nimbus-benchmark [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]   every workload, one result file
//! nimbus-benchmark compare A.json B.json
//! nimbus-benchmark selfcheck [--seed N] [--seconds S] [--runs R]
//! ```

mod app;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Options of a run; the full-set defaults make all four workloads take
/// about two minutes untraced.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
    pub out: Option<String>,
}

fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 3,
        out: None,
    };
    while let Some(word) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{word} needs {what}"));
        match word.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--smoke" => {
                args.seconds = 1.0;
                args.runs = 1;
            }
            "--out" => args.out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1).peekable();
    let result = match words.peek().map(String::as_str) {
        Some("compare") => {
            let files: Vec<String> = words.skip(1).collect();
            match files.as_slice() {
                [a, b] => report::compare_files(a, b),
                _ => Err("compare takes two result files".to_string()),
            }
        }
        Some("selfcheck") => parse(words.skip(1)).and_then(|args| report::selfcheck(&args)),
        _ => parse(words).and_then(|args| match &args.workload {
            Some(name) => run::one(name, &args),
            None => report::full_set(&args).map(|(_, ok)| ok),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("nimbus-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
