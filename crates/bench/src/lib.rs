//! # nimbus-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation:
//!
//! * Criterion benches (`benches/table{1,2,3}_*.rs`) measure the per-task
//!   costs of template installation, instantiation, and edits on this
//!   machine — the counterparts of Tables 1–3.
//! * Figure binaries (`src/bin/fig*.rs`) run the cluster simulator to
//!   reproduce the shape of Figures 1, 7 and 9–11 at paper scale, printing
//!   paper-vs-reproduced values side by side; `fig8_multijob` and
//!   `fig9_rejoin_latency` run the real in-process runtime once.
//!
//! Throughput and latency of the real runtime (Figure 8's subject) are
//! measured by the repository benchmark in `benchmark/`, not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fixtures;
pub mod json;
pub mod report;

pub use fixtures::{record_block, BenchCluster, BlockShape};
pub use json::{BenchJson, MetricValue};
pub use report::{print_rows, print_table, TableRow};
