//! # nimbus-bench
//!
//! The harness that regenerates the figures of the paper's evaluation:
//! figure binaries (`src/bin/fig*.rs`) run the cluster simulator on the
//! paper's published costs (`CostProfile::paper()`) to reproduce the shape
//! of Figures 1, 7 and 9–11 at paper scale, printing paper-vs-reproduced
//! values side by side; `fig8_multijob` and `fig9_rejoin_latency` run the
//! real in-process runtime once.
//!
//! The per-task costs of Tables 1–3, and the throughput and latency of the
//! real runtime (Figure 8's subject), are measured by the repository
//! benchmark in `benchmark/`, not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod report;

pub use json::{BenchJson, MetricValue};
pub use report::{print_rows, print_table, TableRow};
