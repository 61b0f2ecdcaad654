//! The simulated fabric: owner of every message in flight, and the
//! [`SimEndpoint`] each simulated node sends through.
//!
//! Nothing is delivered behind the harness's back:
//!
//! * every send parks its envelope in a per-link FIFO; the harness later
//!   picks a link and hands the head envelope to its destination's turn;
//! * a receive never finds anything: `try_recv` is always empty, the
//!   controller and workers never call a blocking receive (a turn never
//!   blocks), and a driver's blocking receive reports its wait to the
//!   harness and sleeps until the harness wakes it;
//! * timeouts are virtual — the harness fires one by advancing the shared
//!   [`VirtualClock`](nimbus_core::clock::VirtualClock), never by letting
//!   wall time pass.
//!
//! The fabric keeps the in-process network's registration semantics, which
//! the traces depend on: a send to an unregistered node fails with
//! [`NetError::UnknownNode`] (untraced), an exited node stays registered
//! until it is disconnected, and a disconnect queues one `PeerDisconnected`
//! notice per registered peer.
//!
//! Per-link FIFO is preserved (both real fabrics guarantee it); everything
//! across links is up to the harness, which is exactly the reordering
//! freedom a real network has.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use nimbus_net::{
    Envelope, Message, NetError, NetResult, Next, NodeId, TransportEndpoint, TransportEvent,
};
use parking_lot::Mutex;

use crate::trace::TraceEvent;

/// Rounds a timeout to the nearest whole millisecond. Some callers derive
/// their timeout by subtracting clock readings, and sub-millisecond jitter
/// in that arithmetic must not leak into virtual deadlines (it would make
/// timer order run-dependent). Every intentional timeout in the workspace
/// is a whole number of milliseconds.
pub(crate) fn quantize_ms(t: Duration) -> Duration {
    let nanos = u64::try_from(t.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_millis((nanos + 500_000) / 1_000_000)
}

/// A directed link between two nodes.
pub(crate) type LinkKey = (NodeId, NodeId);

/// One node as the harness sees it between decisions: parked in a wait, or
/// gone.
#[derive(Default)]
struct NodeSlot {
    /// The node stopped (clean exit, kill, or teardown).
    exited: bool,
    /// Virtual deadline of the wait the node is parked in, if it named one.
    deadline: Option<Instant>,
    /// Severed from the fabric: its non-transport sends are dropped, nothing
    /// is delivered to it, and its wait is ended with a disconnect.
    severed: bool,
}

/// The fabric state shared by the harness and every [`SimEndpoint`].
#[derive(Default)]
pub(crate) struct Fabric {
    nodes: BTreeMap<NodeId, NodeSlot>,
    registered: BTreeSet<NodeId>,
    /// Per-link FIFO queues of undelivered messages.
    links: BTreeMap<LinkKey, VecDeque<Envelope>>,
    /// Held links: messages stay queued for this many more decisions.
    masks: BTreeMap<LinkKey, u64>,
    events: Vec<TraceEvent>,
    decisions: u64,
}

/// The fabric as the harness decides from it between decisions.
pub(crate) struct View {
    /// Links with at least one deliverable (unmasked) message, sorted.
    pub eligible: Vec<LinkKey>,
    /// The earliest armed virtual timeout, if any: `(deadline, node)`.
    pub earliest_timer: Option<(Instant, NodeId)>,
    /// Whether any node is still alive.
    pub any_live: bool,
}

impl Fabric {
    /// Adds a fresh node (parked, unsevered) and registers it, replacing
    /// what a previous incarnation left behind.
    pub(crate) fn add_node(&mut self, node: NodeId) {
        self.nodes.insert(node, NodeSlot::default());
        self.registered.insert(node);
    }

    /// Sends `message` from `from` to `to`: the in-process network's rules,
    /// with the link FIFO standing in for the destination inbox.
    fn send(&mut self, from: NodeId, to: NodeId, message: Message) -> NetResult<()> {
        if !self.registered.contains(&to) {
            return Err(NetError::UnknownNode(to.to_string()));
        }
        // Transport events are fabric-synthesized (disconnect notices), never
        // sent by the severed node itself — they must get through or no peer
        // would ever observe the death.
        let severed = self.nodes.get(&from).is_some_and(|s| s.severed);
        if severed && !matches!(message, Message::Transport(_)) {
            self.events.push(TraceEvent::DroppedFromSevered {
                from,
                to,
                tag: message.tag().as_str(),
            });
            return Ok(());
        }
        self.links
            .entry((from, to))
            .or_default()
            .push_back(Envelope { from, to, message });
        Ok(())
    }

    /// Severs `node` from the fabric the way a killed process severs a TCP
    /// peer: it is unregistered, and every registered node gets a
    /// `PeerDisconnected` notice queued behind the node's in-flight sends —
    /// exactly like a FIN behind buffered TCP data.
    pub(crate) fn disconnect(&mut self, node: NodeId) {
        self.registered.remove(&node);
        let peers: Vec<NodeId> = self.registered.iter().copied().collect();
        for peer in peers {
            let notice = Message::Transport(TransportEvent::PeerDisconnected(node));
            let _ = self.send(node, peer, notice);
        }
    }

    pub(crate) fn sever(&mut self, node: NodeId) {
        if let Some(slot) = self.nodes.get_mut(&node) {
            slot.severed = true;
        }
    }

    /// Records that `node` parked, until `deadline` if its wait named one.
    pub(crate) fn park(&mut self, node: NodeId, deadline: Option<Instant>) {
        if let Some(slot) = self.nodes.get_mut(&node) {
            slot.deadline = deadline;
        }
    }

    /// Records that `node` stopped.
    pub(crate) fn exit(&mut self, node: NodeId) {
        if let Some(slot) = self.nodes.get_mut(&node) {
            slot.exited = true;
            slot.deadline = None;
        }
        self.events.push(TraceEvent::NodeExited { node });
    }

    pub(crate) fn decisions(&self) -> u64 {
        self.decisions
    }

    pub(crate) fn bump_decisions(&mut self) {
        self.decisions += 1;
        // Held links thaw as decisions pass.
        self.masks.retain(|_, left| {
            *left = left.saturating_sub(1);
            *left > 0
        });
    }

    pub(crate) fn push_event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    pub(crate) fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    pub(crate) fn mask_link(&mut self, link: LinkKey, decisions: u64) {
        self.masks.insert(link, decisions);
    }

    /// True if any held link still has traffic queued behind its mask —
    /// deliveries that will become eligible once enough decisions pass.
    pub(crate) fn masked_traffic_pending(&self) -> bool {
        self.masks
            .keys()
            .any(|k| self.links.get(k).is_some_and(|q| !q.is_empty()))
    }

    pub(crate) fn is_registered(&self, node: NodeId) -> bool {
        self.registered.contains(&node)
    }

    /// True once `node` was added and has stopped.
    pub(crate) fn exited(&self, node: NodeId) -> bool {
        self.nodes.get(&node).is_some_and(|s| s.exited)
    }

    /// True while `node` was added and has not stopped.
    pub(crate) fn live(&self, node: NodeId) -> bool {
        self.nodes.get(&node).is_some_and(|s| !s.exited)
    }

    pub(crate) fn all_exited(&self) -> bool {
        self.nodes.values().all(|s| s.exited)
    }

    /// Live nodes, optionally only the severed ones (whose wait can never be
    /// satisfied and must be ended with a disconnect).
    pub(crate) fn parked(&self, severed_only: bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, s)| !s.exited && (s.severed || !severed_only))
            .map(|(n, _)| *n)
            .collect()
    }

    /// Drops every queued message addressed to an exited node (packets in
    /// flight to a dead process), tracing each drop.
    pub(crate) fn purge_dead_destinations(&mut self) {
        let dead: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, s)| s.exited)
            .map(|(n, _)| *n)
            .collect();
        self.purge(|to| dead.contains(&to));
    }

    /// Drops every queued message addressed to `node` (used when a killed
    /// node rejoins: anything still queued for the dead incarnation belongs
    /// to a socket that no longer exists).
    pub(crate) fn purge_links_to(&mut self, node: NodeId) {
        self.purge(|to| to == node);
    }

    fn purge(&mut self, dead: impl Fn(NodeId) -> bool) {
        for ((_, to), queue) in &mut self.links {
            if dead(*to) {
                for env in queue.drain(..) {
                    self.events.push(TraceEvent::DroppedDeadDestination {
                        from: env.from,
                        to: env.to,
                        tag: env.message.tag().as_str(),
                    });
                }
            }
        }
    }

    /// Pops the head of a link queue.
    pub(crate) fn pop_link(&mut self, link: LinkKey) -> Option<Envelope> {
        self.links.get_mut(&link).and_then(VecDeque::pop_front)
    }

    /// The view the harness decides from.
    pub(crate) fn view(&self) -> View {
        let reachable = |node: &NodeId| {
            self.nodes
                .get(node)
                .is_some_and(|s| !s.exited && !s.severed)
        };
        // Exited destinations are purged before this view is built, and
        // severed ones drain via their disconnect instead.
        let eligible: Vec<LinkKey> = self
            .links
            .iter()
            .filter(|(key, q)| !q.is_empty() && !self.masks.contains_key(*key) && reachable(&key.1))
            .map(|(k, _)| *k)
            .collect();
        let earliest_timer = self
            .nodes
            .iter()
            .filter(|(n, _)| reachable(n))
            .filter_map(|(n, s)| s.deadline.map(|d| (d, *n)))
            .min();
        View {
            eligible,
            earliest_timer,
            any_live: self.nodes.values().any(|s| !s.exited),
        }
    }
}

/// How a driver thread parks: it reports its wait (or, on drop, its exit)
/// to the harness and sleeps on its own channel until the harness wakes it.
pub(crate) struct DriverPark {
    pub report: mpsc::Sender<(NodeId, Next)>,
    pub wake: mpsc::Receiver<NetResult<Envelope>>,
}

/// One simulated node's connection to the [`Fabric`].
pub(crate) struct SimEndpoint {
    node: NodeId,
    fabric: Arc<Mutex<Fabric>>,
    /// Drivers only: controller and worker turns never block.
    park: Option<DriverPark>,
}

impl SimEndpoint {
    pub(crate) fn new(node: NodeId, fabric: Arc<Mutex<Fabric>>, park: Option<DriverPark>) -> Self {
        Self { node, fabric, park }
    }

    /// A driver's blocking receive: report the wait, then sleep until the
    /// harness delivers, times the wait out, or disconnects the driver.
    fn wait(&self, timeout: Option<Duration>) -> NetResult<Envelope> {
        let Some(park) = &self.park else {
            panic!(
                "{} called a blocking receive: a turn never blocks",
                self.node
            );
        };
        let gone = || NetError::Disconnected(self.node.to_string());
        park.report
            .send((self.node, Next::Wait(timeout)))
            .map_err(|_| gone())?;
        park.wake.recv().unwrap_or_else(|_| Err(gone()))
    }
}

impl TransportEndpoint for SimEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&self, to: NodeId, message: Message) -> NetResult<()> {
        self.fabric.lock().send(self.node, to, message)
    }

    fn recv(&self) -> NetResult<Envelope> {
        self.wait(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        self.wait(Some(timeout))
    }

    fn try_recv(&self) -> NetResult<Envelope> {
        Err(NetError::Empty)
    }
}

impl Drop for SimEndpoint {
    fn drop(&mut self) {
        // A driver's endpoint dropping is how the harness learns its thread
        // is done (clean exit, error, or disconnect).
        if let Some(park) = &self.park {
            let _ = park.report.send((self.node, Next::Exit));
        }
    }
}
