//! Schedule plans: the complete, replayable description of one simulated
//! execution — a seed for the scheduler's choices plus a list of fault
//! injections pinned to decision points.
//!
//! A [`SchedulePlan`] is all the nondeterminism there is. Replaying the same
//! plan against the same scenario reproduces the same event trace and the
//! same outputs, bit for bit; that is what makes a failing plan a committable
//! regression artifact rather than a description of something that happened
//! once.

use std::collections::BTreeSet;

use nimbus_core::ids::WorkerId;
use nimbus_net::NodeId;

/// One fault injection, applied when the scheduler reaches decision
/// [`FaultEvent::at`]. Decision indices past the end of the run are skipped
/// (recorded as such in the trace), so plans survive shrinking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The decision index at which to inject (0 = before the first delivery).
    pub at: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// The fault vocabulary of the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill a worker abruptly: drop it without a goodbye or a final report,
    /// and sever it from the fabric (every peer gets the
    /// same `PeerDisconnected` notice a dead TCP peer produces, scheduled
    /// like any other message).
    Kill(WorkerId),
    /// Restart a previously killed worker under the same identity, driving
    /// the rejoin handshake (template reinstalls, checkpoint reload).
    Rejoin(WorkerId),
    /// Sever a driver client's session mid-job: its sends vanish, its
    /// blocked receive errors, and the controller observes the driver's
    /// disconnect (the "job dropped" path).
    DropJob(u32),
    /// Hold every message on one directed link for the next `decisions`
    /// scheduler decisions (a transient one-way delay / partial partition).
    DelayLink {
        /// Sending side of the held link.
        from: NodeId,
        /// Receiving side of the held link.
        to: NodeId,
        /// How many decisions the hold lasts.
        decisions: u32,
    },
}

impl FaultEvent {
    /// The issue-level `Disconnect(node)` vocabulary, mapped onto the
    /// concrete fault for the node's role: workers die ([`FaultKind::Kill`]),
    /// driver clients drop their job ([`FaultKind::DropJob`]).
    ///
    /// # Panics
    ///
    /// Panics for the controller or the classic driver node, which the
    /// harness does not disconnect (the cluster cannot outlive either).
    pub fn disconnect(at: u64, node: NodeId) -> Self {
        let kind = match node {
            NodeId::Worker(w) => FaultKind::Kill(w),
            NodeId::Client(c) => FaultKind::DropJob(c),
            other => panic!("cannot disconnect {other}"),
        };
        Self { at, kind }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FaultKind::Kill(w) => write!(f, "@{} kill worker-{w}", self.at),
            FaultKind::Rejoin(w) => write!(f, "@{} rejoin worker-{w}", self.at),
            FaultKind::DropJob(c) => write!(f, "@{} drop job of client-{c}", self.at),
            FaultKind::DelayLink {
                from,
                to,
                decisions,
            } => {
                write!(f, "@{} delay link {from}->{to} for {decisions}", self.at)
            }
        }
    }
}

/// A complete, replayable schedule: seed, fault injections, and how much of
/// the seeded reordering chaos is applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedulePlan {
    /// Seed of the scheduler's decision stream. The stream is drawn
    /// identically whether or not a decision is chaotic (see
    /// [`SchedulePlan::chaos_at`]), so restricting chaos never shifts later
    /// draws — the prefix of an execution is stable under shrinking.
    pub seed: u64,
    /// Fault injections, sorted by [`FaultEvent::at`] (ties apply in order).
    pub faults: Vec<FaultEvent>,
    /// Which decisions take the seeded random choice instead of the calm
    /// default (first eligible link, no early timer). `None` means every
    /// decision is chaotic — the exploration default. `Some(set)` is what
    /// the shrinker produces: only the listed decisions stay random.
    pub chaos_at: Option<BTreeSet<u64>>,
}

impl SchedulePlan {
    /// A fully random plan with no injected faults.
    pub fn random(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            chaos_at: None,
        }
    }

    /// A fully calm plan (FIFO delivery in link order, timers only when
    /// nothing is deliverable) with the given faults.
    pub fn calm(seed: u64, faults: Vec<FaultEvent>) -> Self {
        Self {
            seed,
            faults,
            chaos_at: Some(BTreeSet::new()),
        }
    }

    /// Adds a fault, keeping the list sorted by decision index.
    pub fn with_fault(mut self, at: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultEvent { at, kind });
        self.faults.sort_by_key(|f| f.at);
        self
    }

    /// Whether the scheduler applies its random draw at `decision`.
    pub fn is_chaotic(&self, decision: u64) -> bool {
        match &self.chaos_at {
            None => true,
            Some(set) => set.contains(&decision),
        }
    }

    /// One-line human description (for failure reports and artifacts).
    /// Small chaos sets are listed in full so a shrunk plan's header alone
    /// is enough to reconstruct it.
    pub fn describe(&self) -> String {
        let chaos = match &self.chaos_at {
            None => "full".to_string(),
            Some(s) if s.is_empty() => "calm".to_string(),
            Some(s) if s.len() <= 32 => {
                let decisions: Vec<String> = s.iter().map(u64::to_string).collect();
                format!("@[{}]", decisions.join(","))
            }
            Some(s) => format!("{} decisions", s.len()),
        };
        let faults: Vec<String> = self.faults.iter().map(|f| f.to_string()).collect();
        format!(
            "seed={} chaos={} faults=[{}]",
            self.seed,
            chaos,
            faults.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disconnect_maps_roles() {
        let kill = FaultEvent::disconnect(3, NodeId::Worker(WorkerId(1)));
        assert_eq!(kill.kind, FaultKind::Kill(WorkerId(1)));
        let drop = FaultEvent::disconnect(9, NodeId::Client(2));
        assert_eq!(drop.kind, FaultKind::DropJob(2));
    }

    #[test]
    fn with_fault_keeps_order() {
        let plan = SchedulePlan::random(7)
            .with_fault(50, FaultKind::Kill(WorkerId(0)))
            .with_fault(
                10,
                FaultKind::DelayLink {
                    from: NodeId::Controller,
                    to: NodeId::Worker(WorkerId(0)),
                    decisions: 4,
                },
            );
        assert_eq!(plan.faults[0].at, 10);
        assert_eq!(plan.faults[1].at, 50);
    }

    #[test]
    fn chaos_membership() {
        let full = SchedulePlan::random(1);
        assert!(full.is_chaotic(0) && full.is_chaotic(999));
        let calm = SchedulePlan::calm(1, vec![]);
        assert!(!calm.is_chaotic(0));
        let mut set = BTreeSet::new();
        set.insert(4u64);
        let partial = SchedulePlan {
            chaos_at: Some(set),
            ..SchedulePlan::random(1)
        };
        assert!(partial.is_chaotic(4) && !partial.is_chaotic(5));
    }
}
