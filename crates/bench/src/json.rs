//! Machine-readable benchmark output.
//!
//! Every `fig*` binary writes a `BENCH_<name>.json` next to its printed
//! table, so the repository accumulates a perf trajectory that later PRs
//! (and CI) can compare against numerically instead of scraping stdout.
//! The writer is deliberately dependency-free: a flat `name` + `metrics`
//! object covers every figure, and values are numbers or strings only.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A metric value: a number (serialized with enough precision to roundtrip)
/// or a string (paper citations like `">500,000"`).
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// A numeric measurement.
    Num(f64),
    /// A free-form annotation.
    Text(String),
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::Num(v)
    }
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::Num(v as f64)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Text(v.to_string())
    }
}

impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Text(v)
    }
}

/// Accumulates a benchmark's metrics and writes them as
/// `BENCH_<name>.json` in the current directory.
#[derive(Debug)]
pub struct BenchJson {
    name: String,
    metrics: Vec<(String, MetricValue)>,
}

impl BenchJson {
    /// Starts a report for the benchmark `name` (e.g. `"fig8_multijob"`).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// Adds one metric (chainable).
    pub fn metric(mut self, key: impl Into<String>, value: impl Into<MetricValue>) -> Self {
        self.push(key, value);
        self
    }

    /// Adds one metric in place.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<MetricValue>) {
        self.metrics.push((key.into(), value.into()));
    }

    /// Serializes the report as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": {},\n", escape(&self.name)));
        out.push_str("  \"metrics\": {\n");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            let rendered = match value {
                MetricValue::Num(n) if n.is_finite() => trim_float(*n),
                // JSON has no NaN/Inf; encode them as strings.
                MetricValue::Num(n) => escape(&n.to_string()),
                MetricValue::Text(t) => escape(t),
            };
            out.push_str(&format!("    {}: {rendered}{sep}\n", escape(key)));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` in the current directory and returns its
    /// path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(Path::new("."))
    }

    /// Writes `BENCH_<name>.json` under `dir` and returns its path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// [`BenchJson::write`], panicking with a clear message on failure —
    /// the fig binaries treat an unwritable report as a hard error so CI
    /// can't silently lose the perf trajectory.
    pub fn write_or_die(&self) -> PathBuf {
        match self.write() {
            Ok(path) => {
                println!("\nwrote {}", path.display());
                path
            }
            Err(e) => panic!("failed to write BENCH_{}.json: {e}", self.name),
        }
    }
}

/// Serializes a float without trailing noise (integers stay integral).
fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json() {
        let j = BenchJson::new("fig_test")
            .metric("tasks_per_sec", 12345.5)
            .metric("iterations", 100u64)
            .metric("paper", ">500,000");
        let s = j.to_json();
        assert!(s.contains("\"name\": \"fig_test\""));
        assert!(s.contains("\"tasks_per_sec\": 12345.5"));
        assert!(s.contains("\"iterations\": 100"));
        assert!(s.contains("\"paper\": \">500,000\""));
        // Exactly one trailing comma-less entry: valid JSON shape.
        assert!(!s.contains(",\n  }"));
    }

    #[test]
    fn escapes_and_non_finite_values() {
        let j = BenchJson::new("x\"y").metric("nan", f64::NAN);
        let s = j.to_json();
        assert!(s.contains("\"x\\\"y\""));
        assert!(s.contains("\"NaN\""));
    }

    #[test]
    fn writes_file_to_disk() {
        let dir = std::env::temp_dir().join("nimbus_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = BenchJson::new("unit")
            .metric("v", 1.0)
            .write_to(&dir)
            .unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"v\": 1"));
    }
}
