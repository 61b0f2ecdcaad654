//! Controller-side error types.

use std::fmt;

use nimbus_core::ids::{LogicalPartition, WorkerId};
use nimbus_core::CoreError;

/// Errors produced by the controller.
#[derive(Debug)]
pub enum ControllerError {
    /// A request referenced a basic block that was never recorded.
    UnknownBlock(String),
    /// A partition referenced by a task has no defined dataset.
    UnknownPartition(LogicalPartition),
    /// There are no workers in the current allocation.
    NoWorkers,
    /// A worker referenced by a request is not part of the allocation.
    UnknownWorker(WorkerId),
    /// The driver asked to finish a block while none was being recorded, or
    /// to start one while another was still open.
    RecordingStateMismatch(String),
    /// Recovery was requested but no checkpoint has been committed.
    NoCheckpoint,
    /// An error bubbled up from the core data structures.
    Core(CoreError),
    /// The transport failed.
    Net(String),
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::UnknownBlock(name) => write!(f, "unknown basic block '{name}'"),
            ControllerError::UnknownPartition(lp) => write!(f, "unknown partition {lp}"),
            ControllerError::NoWorkers => write!(f, "no workers in the current allocation"),
            ControllerError::UnknownWorker(w) => write!(f, "worker {w} is not allocated"),
            ControllerError::RecordingStateMismatch(msg) => {
                write!(f, "template recording state mismatch: {msg}")
            }
            ControllerError::NoCheckpoint => write!(f, "no checkpoint available for recovery"),
            ControllerError::Core(e) => write!(f, "core error: {e}"),
            ControllerError::Net(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<CoreError> for ControllerError {
    fn from(e: CoreError) -> Self {
        ControllerError::Core(e)
    }
}

/// Result alias for controller operations.
pub type ControllerResult<T> = Result<T, ControllerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: ControllerError = CoreError::EmptyTemplate.into();
        assert!(e.to_string().contains("core error"));
        assert!(ControllerError::UnknownBlock("inner".into())
            .to_string()
            .contains("inner"));
    }
}
