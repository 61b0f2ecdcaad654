//! # nimbus-driver
//!
//! The driver program API: job-scoped [`Session`]s, dataset definitions,
//! stage builders, and named basic blocks that transparently record and
//! re-instantiate execution templates. Data-dependent control flow
//! (convergence loops, error thresholds) is expressed with ordinary Rust
//! `while`/`if` around [`Session::fetch_scalar`] — exactly the structure of
//! Figure 3 in the paper. Many sessions can run concurrently against one
//! controller; each is its own isolated job.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod dataset;
pub mod error;
pub mod stage;

pub use context::{DatasetHandle, Session};
pub use dataset::{AsDataset, Dataset, ScalarReadable};
pub use error::{DriverError, DriverResult};
pub use stage::{PartitionMapping, StageAccess, StageParams, StageSpec};
