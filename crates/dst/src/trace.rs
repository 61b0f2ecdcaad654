//! Event traces: the observable history of one simulated execution.
//!
//! Every scheduler decision appends one [`TraceEvent`]. Two runs of the same
//! scenario under the same [`SchedulePlan`](crate::SchedulePlan) must produce
//! identical traces — [`SimTrace::fingerprint`] is the cheap equality the
//! determinism tests assert — and a failing trace rendered with
//! [`SimTrace::render`] is the artifact CI uploads.

use nimbus_net::NodeId;

use crate::plan::FaultEvent;

/// One observable step of the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was delivered to its destination inbox.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message's wire tag.
        tag: &'static str,
    },
    /// A blocked receive's timeout fired; virtual time advanced to it.
    TimerFired {
        /// The node whose receive timed out.
        node: NodeId,
        /// Virtual time after the advance, in nanoseconds since sim start.
        virtual_nanos: u64,
    },
    /// A fault from the plan was injected.
    Fault(FaultEvent),
    /// A fault from the plan was skipped (target already dead/alive/gone).
    FaultSkipped(FaultEvent),
    /// A message from a severed node was dropped at send time.
    DroppedFromSevered {
        /// Sender (severed).
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// The message's wire tag.
        tag: &'static str,
    },
    /// A queued message was dropped because its destination had exited.
    DroppedDeadDestination {
        /// Sender.
        from: NodeId,
        /// Exited receiver.
        to: NodeId,
        /// The message's wire tag.
        tag: &'static str,
    },
    /// A node stopped (clean shutdown, kill, or teardown).
    NodeExited {
        /// The node that exited.
        node: NodeId,
    },
    /// The harness forced a node out: a disconnect ending its wait on
    /// deadlock/stall teardown (its presence means the run did not complete
    /// normally), or a worker stopped because the controller is gone.
    Unstick {
        /// The node that was forced awake.
        node: NodeId,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Deliver { from, to, tag } => write!(f, "deliver {from} -> {to} [{tag}]"),
            TraceEvent::TimerFired {
                node,
                virtual_nanos,
            } => write!(f, "timer {node} (t={}us)", virtual_nanos / 1_000),
            TraceEvent::Fault(e) => write!(f, "fault {e}"),
            TraceEvent::FaultSkipped(e) => write!(f, "fault-skipped {e}"),
            TraceEvent::DroppedFromSevered { from, to, tag } => {
                write!(f, "dropped(severed) {from} -> {to} [{tag}]")
            }
            TraceEvent::DroppedDeadDestination { from, to, tag } => {
                write!(f, "dropped(dead-dest) {from} -> {to} [{tag}]")
            }
            TraceEvent::NodeExited { node } => write!(f, "exited {node}"),
            TraceEvent::Unstick { node } => write!(f, "unstick {node}"),
        }
    }
}

/// How a simulated execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every node exited on its own.
    Completed,
    /// Live nodes remained but nothing was deliverable, no timer was armed,
    /// and no fault was pending: a genuine distributed deadlock.
    Deadlock,
    /// The decision or virtual-time budget was exhausted (livelock guard).
    Stalled,
}

impl std::fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimOutcome::Completed => write!(f, "completed"),
            SimOutcome::Deadlock => write!(f, "deadlock"),
            SimOutcome::Stalled => write!(f, "stalled"),
        }
    }
}

/// The replayable record of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimTrace {
    /// Scenario name the plan ran against.
    pub scenario: String,
    /// The plan (seed + faults + chaos set) that reproduces this trace.
    pub plan_description: String,
    /// How the run ended.
    pub outcome: SimOutcome,
    /// Every observable step, in decision order.
    pub events: Vec<TraceEvent>,
    /// Total scheduler decisions taken.
    pub decisions: u64,
    /// Virtual nanoseconds elapsed over the whole run.
    pub virtual_nanos: u64,
}

impl SimTrace {
    /// An order-sensitive FNV-1a hash of the whole trace: cheap bit-level
    /// equality for the determinism sweeps.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for e in &self.events {
            eat(e.to_string().as_bytes());
            eat(&[0xff]);
        }
        eat(&self.decisions.to_le_bytes());
        eat(&self.virtual_nanos.to_le_bytes());
        h
    }

    /// Renders the trace as the text artifact CI uploads on failure: plan
    /// header, outcome, then one line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario: {}", self.scenario);
        let _ = writeln!(out, "plan: {}", self.plan_description);
        let _ = writeln!(
            out,
            "outcome: {} ({} decisions, {}us virtual)",
            self.outcome,
            self.decisions,
            self.virtual_nanos / 1_000
        );
        for (i, e) in self.events.iter().enumerate() {
            let _ = writeln!(out, "{i:6}  {e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(events: Vec<TraceEvent>) -> SimTrace {
        SimTrace {
            scenario: "t".into(),
            plan_description: "seed=0".into(),
            outcome: SimOutcome::Completed,
            events,
            decisions: 1,
            virtual_nanos: 5_000,
        }
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = TraceEvent::Deliver {
            from: NodeId::Driver,
            to: NodeId::Controller,
            tag: "open_job",
        };
        let b = TraceEvent::TimerFired {
            node: NodeId::Controller,
            virtual_nanos: 1,
        };
        let t1 = trace(vec![a.clone(), b.clone()]);
        let t2 = trace(vec![b, a]);
        assert_ne!(t1.fingerprint(), t2.fingerprint());
        assert_eq!(t1.fingerprint(), t1.clone().fingerprint());
    }

    #[test]
    fn render_contains_every_event() {
        let t = trace(vec![TraceEvent::NodeExited {
            node: NodeId::Driver,
        }]);
        let text = t.render();
        assert!(text.contains("exited driver"));
        assert!(text.contains("outcome: completed"));
    }
}
