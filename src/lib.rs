//! # nimbus
//!
//! A from-scratch Rust reproduction of **Nimbus** and its *execution
//! templates* (Mashayekhi et al., "Execution Templates: Caching Control Plane
//! Decisions for Strong Scaling of Data Analytics", USENIX ATC 2017).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`core`](nimbus_core) — commands, task graphs, versioned data objects,
//!   and the execution-template structures (controller templates, worker
//!   templates, edits, patches);
//! * [`net`](nimbus_net) — message types and the in-process transport;
//! * [`worker`](nimbus_worker) / [`controller`](nimbus_controller) — the two
//!   halves of the control plane;
//! * [`driver`](nimbus_driver) — the driver-program API (typed datasets,
//!   stages, basic blocks);
//! * [`runtime`](nimbus_runtime) — the in-process cluster;
//! * [`apps`](nimbus_apps) — logistic regression, k-means, and the
//!   water-simulation proxy;
//! * [`baselines`](nimbus_baselines) — Spark-like, Naiad-like, and MPI-like
//!   comparison points;
//! * [`sim`](nimbus_sim) — the cluster simulator that regenerates the paper's
//!   scale-out figures.
//!
//! Application code should import through [`prelude`]:
//!
//! ```ignore
//! use nimbus::prelude::*;
//!
//! let setup = AppSetup::new()
//!     .function(ADD, "add", |ctx| { /* ... */ Ok(()) })
//!     .object(LogicalObjectId(1), |_| VecF64::zeros(8));
//! let cluster = Cluster::start(ClusterConfig::new(4), setup);
//! let report = cluster.run_driver(|ctx| {
//!     let data: Dataset<VecF64> = ctx.define_dataset("data", 8)?;
//!     /* blocks, stages, fetches */
//!     Ok(())
//! })?;
//! ```
//!
//! See `examples/quickstart.rs` for the full minimal end-to-end job.

#![warn(missing_docs)]

pub use nimbus_apps as apps;
pub use nimbus_baselines as baselines;
pub use nimbus_controller as controller;
pub use nimbus_core as core;
pub use nimbus_driver as driver;
pub use nimbus_net as net;
pub use nimbus_runtime as runtime;
pub use nimbus_sim as sim;
pub use nimbus_worker as worker;

pub use nimbus_driver::{
    AsDataset, Dataset, DatasetHandle, DriverError, DriverResult, ScalarReadable, Session,
    StageSpec,
};
pub use nimbus_runtime::{AppSetup, Cluster, ClusterConfig, ClusterReport};

/// The driver vocabulary in one import: everything a driver program needs to
/// register an application, start a cluster, define typed datasets, submit
/// staged basic blocks, and read back convergence scalars.
pub mod prelude {
    pub use nimbus_core::appdata::{downcast_mut, downcast_ref, AppData, Scalar, VecF64};
    pub use nimbus_core::ids::JobId;
    pub use nimbus_core::ids::{
        FunctionId, LogicalObjectId, LogicalPartition, PartitionIndex, StageId, TaskId, WorkerId,
    };
    pub use nimbus_core::TaskParams;
    pub use nimbus_driver::{
        AsDataset, Dataset, DatasetHandle, DriverError, DriverResult, PartitionMapping,
        ScalarReadable, Session, StageParams, StageSpec,
    };
    pub use nimbus_runtime::{AppSetup, Cluster, ClusterConfig, ClusterReport};
}
