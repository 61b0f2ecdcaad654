//! # nimbus-core
//!
//! Core control-plane abstractions for a Rust reproduction of **Nimbus** and
//! its *execution templates* (Mashayekhi et al., "Execution Templates:
//! Caching Control Plane Decisions for Strong Scaling of Data Analytics",
//! USENIX ATC 2017).
//!
//! Execution templates let a centralized controller schedule at per-task
//! granularity while sustaining the task throughput of distributed dataflow
//! systems. They cache the fixed structure of a basic block of the driver
//! program — tasks, dependencies, data accesses, worker assignment — so that
//! repeating the block costs a single small message per node instead of one
//! message per task. Small scheduling changes are expressed as [`template::edit`]s
//! applied in place; dynamic control flow is handled by [`template::patch`]es
//! that move data to satisfy a template's preconditions.
//!
//! This crate holds the pure data structures and algorithms:
//!
//! * [`ids`] — strongly typed identifiers and id generators;
//! * [`params`] — opaque task parameter blocks;
//! * [`command`] — the four control-plane command families;
//! * [`task`] — logical tasks as submitted by the driver;
//! * [`data`] / [`versioning`] — mutable, versioned data objects;
//! * [`graph`] — commands tagged with their assigned worker;
//! * [`template`] — controller templates, worker templates, edits, patches;
//! * [`lineage`] / [`checkpoint`] — fault-tolerance bookkeeping;
//! * [`stats`] — control-plane statistics used by the evaluation harness.
//!
//! The controller and worker runtimes that *use* these structures live in the
//! `nimbus-controller` and `nimbus-worker` crates; the in-process cluster in
//! `nimbus-runtime`; the evaluation harness in `nimbus-bench`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod appdata;
pub mod checkpoint;
pub mod clock;
pub mod command;
pub mod data;
pub mod error;
pub mod graph;
pub mod ids;
pub mod lineage;
pub mod params;
pub mod stats;
pub mod task;
pub mod template;
pub mod versioning;

pub use appdata::{downcast_mut, downcast_ref, AppData, Scalar, ScalarReadable, VecF64};
pub use clock::{Clock, VirtualClock};
pub use command::{Command, CommandKind};
pub use data::{DatasetDef, DatasetRegistry, PhysicalInstance};
pub use error::{CoreError, CoreResult};
pub use graph::AssignedCommand;
pub use ids::{
    CheckpointId, CommandId, FunctionId, IdGenerator, JobId, LogicalObjectId, LogicalPartition,
    PartitionIndex, PhysicalObjectId, StageId, TaskId, TemplateId, TransferId, Version, WorkerId,
};
pub use params::TaskParams;
pub use stats::ControlPlaneStats;
pub use task::{TaskSignature, TaskSpec};
pub use template::{
    compute_patch, validate_preconditions, ControllerTaskEntry, ControllerTemplate,
    InstantiationParams, Patch, PatchCache, PatchDirective, Precondition, SkeletonEntry,
    SkeletonKind, TemplateEdit, TemplateRegistry, WorkerInstantiation, WorkerTemplate,
    WorkerTemplateGroup,
};
pub use versioning::{InstanceMap, VersionMap};

/// Cached `NIMBUS_DEBUG_RECOVERY` check (one atomic load per call), shared
/// by the controller's and the workers' opt-in recovery tracing so the two
/// halves of the system can never diverge on how the flag is read — and so
/// the tracing perturbs timing as little as possible when disabled.
#[doc(hidden)]
pub fn debug_recovery() -> bool {
    use std::sync::OnceLock;
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("NIMBUS_DEBUG_RECOVERY").is_ok())
}
