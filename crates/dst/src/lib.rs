//! Deterministic simulation testing (DST) for the Nimbus control plane.
//!
//! Runs a full cluster — controller, workers, driver sessions — with every
//! source of nondeterminism owned by the harness: message delivery order,
//! timeout firing, virtual time, and fault injection (worker kills, rejoins,
//! dropped jobs, delayed links). The controller and the workers are step
//! functions the harness turns on its own thread; only the driver sessions,
//! which are imperative user code, run on threads of their own, and each
//! parks whenever it waits for a reply. The same [`SchedulePlan`] always
//! produces the same event trace and the same job outputs, so a failing
//! seed is a *committable regression test*, not a flake report.
//!
//! The pieces:
//!
//! * [`SchedulePlan`] — seed + fault list + chaos set; the whole input.
//! * the simulated fabric (`scheduler`) — per-link FIFOs holding every
//!   message in flight, and the endpoint each node sends through.
//! * [`SimCluster`] / [`run_plan`] — builds the cluster, takes one decision
//!   at a time to completion, validates outputs against the scenario's
//!   closed form.
//! * [`Scenario`] — quickstart / multijob / churn topologies with exact
//!   expected outputs.
//! * [`shrink`] — delta-debugs a failing plan down to a minimal fault list
//!   and chaos set.
//! * [`SimTrace`] — the replayable record; rendered traces are the CI
//!   failure artifact.

#![warn(missing_docs)]

pub mod harness;
pub mod plan;
pub mod scenario;
mod scheduler;
pub mod shrink;
pub mod trace;

pub use harness::{run_plan, DriverOutput, SimCluster, SimReport};
pub use plan::{FaultEvent, FaultKind, SchedulePlan};
pub use scenario::Scenario;
pub use shrink::{shrink, ShrinkResult};
pub use trace::{SimOutcome, SimTrace, TraceEvent};
