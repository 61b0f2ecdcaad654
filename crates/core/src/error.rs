//! Error types shared across the Nimbus control plane.

use std::fmt;

use crate::ids::{LogicalPartition, PhysicalObjectId, TaskId, TemplateId, WorkerId};

/// Errors produced by the core control-plane data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A task referenced a logical partition that was never defined.
    UnknownLogicalPartition(LogicalPartition),
    /// A physical object was referenced that does not exist on the worker.
    UnknownPhysicalObject(PhysicalObjectId),
    /// A template was referenced that has not been installed.
    UnknownTemplate(TemplateId),
    /// A template instantiation supplied the wrong number of task identifiers.
    TaskIdArityMismatch {
        /// Number of task identifiers the template expects.
        expected: usize,
        /// Number of task identifiers supplied.
        actual: usize,
    },
    /// A template instantiation supplied the wrong number of parameter blocks.
    ParamArityMismatch {
        /// Number of parameter blocks the template expects.
        expected: usize,
        /// Number of parameter blocks supplied.
        actual: usize,
    },
    /// An edit referenced an entry index that is out of bounds.
    EditIndexOutOfBounds {
        /// The out-of-range index.
        index: usize,
        /// The number of entries in the template.
        len: usize,
    },
    /// An edit would produce an invalid template (for example a dangling
    /// dependency on a removed entry).
    InvalidEdit(String),
    /// A template's preconditions cannot be satisfied because no worker holds
    /// the latest version of a required partition.
    UnsatisfiablePrecondition(LogicalPartition),
    /// A worker referenced in an operation is not part of the cluster.
    UnknownWorker(WorkerId),
    /// A task id was reused or otherwise conflicts with an existing task.
    DuplicateTask(TaskId),
    /// A recorded basic block was empty; templates must contain at least one task.
    EmptyTemplate,
    /// Raw bytes could not be decoded into the expected parameter layout.
    MalformedParams(String),
    /// A checkpoint could not be found or decoded.
    CheckpointUnavailable(String),
    /// Generic invariant violation with a human-readable description.
    Invariant(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownLogicalPartition(lp) => {
                write!(f, "unknown logical partition {lp}")
            }
            CoreError::UnknownPhysicalObject(id) => write!(f, "unknown physical object {id}"),
            CoreError::UnknownTemplate(id) => write!(f, "unknown template {id}"),
            CoreError::TaskIdArityMismatch { expected, actual } => write!(
                f,
                "template instantiation expected {expected} task ids, got {actual}"
            ),
            CoreError::ParamArityMismatch { expected, actual } => write!(
                f,
                "template instantiation expected {expected} parameter blocks, got {actual}"
            ),
            CoreError::EditIndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "edit index {index} out of bounds for template of {len} entries"
                )
            }
            CoreError::InvalidEdit(msg) => write!(f, "invalid edit: {msg}"),
            CoreError::UnsatisfiablePrecondition(lp) => {
                write!(f, "no worker holds the latest version of {lp}")
            }
            CoreError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            CoreError::DuplicateTask(t) => write!(f, "duplicate task {t}"),
            CoreError::EmptyTemplate => write!(f, "basic block recorded no tasks"),
            CoreError::MalformedParams(msg) => write!(f, "malformed parameters: {msg}"),
            CoreError::CheckpointUnavailable(msg) => write!(f, "checkpoint unavailable: {msg}"),
            CoreError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias used across the core crate.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = CoreError::TaskIdArityMismatch {
            expected: 80,
            actual: 79,
        };
        assert!(e.to_string().contains("expected 80"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&CoreError::EmptyTemplate);
    }
}
