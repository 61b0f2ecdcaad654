//! # nimbus-controller
//!
//! The centralized Nimbus controller: partition assignment, data versioning,
//! task-graph construction with automatic copy insertion, per-task dispatch,
//! and — on top of that — execution-template recording, generation,
//! validation, patching, edits, checkpointing, and failure recovery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assignment;
pub mod controller;
pub mod data_manager;
pub mod error;
pub mod expansion;
mod job;
pub mod template_manager;
#[cfg(test)]
mod tests;

pub use assignment::AssignmentPolicy;
pub use controller::{Controller, ControllerConfig};
pub use data_manager::DataManager;
pub use error::{ControllerError, ControllerResult};
pub use expansion::{expand_task, refresh_instance, Bookkeeping, ExpandedTask, IdGens};
pub use template_manager::{build_group, InstantiationPlan, RecordingState, TemplateManager};
