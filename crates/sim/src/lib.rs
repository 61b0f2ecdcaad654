//! # nimbus-sim
//!
//! A cluster simulator for the execution-templates evaluation. Per-task
//! control-plane costs (the paper's published Tables 1–3) are composed with
//! a cluster and workload model to regenerate the paper's scale-out figures
//! (Figures 1 and 7–11) — experiments that would otherwise need a 100-node
//! EC2 cluster.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod control;
pub mod costs;
pub mod experiments;
pub mod model;

pub use control::{simulate_iteration, ControlPlane, IterationBreakdown};
pub use costs::CostProfile;
pub use experiments::Row;
pub use model::{ClusterModel, WorkloadModel};
