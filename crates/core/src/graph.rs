//! A command tagged with the worker it is assigned to: the unit the
//! controller's expansion, planning and dispatch paths exchange.

use serde::{Deserialize, Serialize};

use crate::command::Command;
use crate::ids::WorkerId;

/// A command together with the worker it is assigned to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AssignedCommand {
    /// The command itself.
    pub command: Command,
    /// The worker that will execute it.
    pub worker: WorkerId,
}
