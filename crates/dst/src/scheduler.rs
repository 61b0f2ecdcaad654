//! The seeded simulation scheduler: owner of every delivery, timeout, and
//! clock advance in a simulated cluster.
//!
//! Nodes stay ordinary threads running unmodified controller / worker /
//! driver code, but the [`DeliveryHook`] installed on the in-process
//! [`Network`] funnels all their nondeterminism here:
//!
//! * every send parks its envelope in a per-link FIFO instead of the
//!   destination inbox;
//! * every blocking receive that finds an empty inbox parks its *thread* in
//!   [`SimScheduler::on_empty_recv`] until the scheduler grants an outcome;
//! * timeouts are virtual — the scheduler fires one by advancing the shared
//!   [`VirtualClock`] and granting `TimedOut`, never by letting wall time
//!   pass.
//!
//! The harness only takes decisions at **quiescence** — when every live node
//! is parked — so exactly one node runs between decisions and the execution
//! is logically single-threaded: same plan in, same event trace out.
//!
//! Per-link FIFO is preserved (both real fabrics guarantee it); everything
//! across links is up to the scheduler, which is exactly the reordering
//! freedom a real network has.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nimbus_core::clock::VirtualClock;
use nimbus_net::{DeliveryHook, Envelope, HookWake, Message, NetResult, NodeId};
use parking_lot::{Condvar, Mutex};

use crate::trace::TraceEvent;

/// How long a simulated node may run between decisions before the harness
/// declares the simulation wedged (wall-clock watchdog; a correct node under
/// test always blocks again quickly since task work is synthetic).
const WEDGE_TIMEOUT: Duration = Duration::from_secs(60);

/// Rounds a timeout to the nearest whole millisecond (see the deadline
/// comment in `on_empty_recv`).
fn quantize_ms(t: Duration) -> Duration {
    let nanos = u64::try_from(t.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_millis((nanos + 500_000) / 1_000_000)
}

/// Where a node's thread currently stands, as the scheduler sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// The thread is executing (or has been granted a wake and will be).
    Running,
    /// The thread is parked in [`SimScheduler::on_empty_recv`].
    Blocked,
    /// The thread dropped its endpoint (exited).
    Exited,
}

struct NodeSlot {
    state: NodeState,
    /// Virtual deadline of the receive the node is blocked in, if it gave one.
    deadline: Option<Instant>,
    /// Wake grant slot, filled by the scheduler, consumed by the node.
    wake: Option<HookWake>,
    /// Severed from the fabric: its non-transport sends are dropped and its
    /// blocked receives get `Disconnected` grants.
    severed: bool,
}

impl NodeSlot {
    fn fresh() -> Self {
        Self {
            state: NodeState::Running,
            deadline: None,
            wake: None,
            severed: false,
        }
    }
}

/// A directed link between two nodes.
pub type LinkKey = (NodeId, NodeId);

pub(crate) struct SchedState {
    nodes: BTreeMap<NodeId, NodeSlot>,
    /// Per-link FIFO queues of undelivered messages.
    links: BTreeMap<LinkKey, VecDeque<Envelope>>,
    /// Held links: messages stay queued for this many more decisions.
    masks: BTreeMap<LinkKey, u64>,
    events: Vec<TraceEvent>,
    decisions: u64,
}

/// What the harness sees when it inspects a quiescent cluster.
pub(crate) struct Quiescent {
    /// Links with at least one deliverable (unmasked) message, sorted.
    pub eligible: Vec<LinkKey>,
    /// The earliest armed virtual timeout, if any: `(deadline, node)`.
    pub earliest_timer: Option<(Instant, NodeId)>,
    /// Whether any node is still alive (blocked).
    pub any_live: bool,
}

/// The seeded scheduler shared between the harness and every hooked endpoint.
pub struct SimScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    /// The virtual clock all simulated timeouts are measured on (shared with
    /// the controller via its `ControllerConfig::clock`).
    pub clock: Arc<VirtualClock>,
}

impl SimScheduler {
    /// Creates a scheduler with a fresh virtual clock.
    pub fn new(clock: Arc<VirtualClock>) -> Self {
        Self {
            state: Mutex::new(SchedState {
                nodes: BTreeMap::new(),
                links: BTreeMap::new(),
                masks: BTreeMap::new(),
                events: Vec::new(),
                decisions: 0,
            }),
            cv: Condvar::new(),
            clock,
        }
    }

    /// Registers a node with the scheduler (state `Running`). Must happen
    /// before the node's endpoint is registered on the network, so its very
    /// first send is accounted.
    pub fn add_node(&self, node: NodeId) {
        let mut st = self.state.lock();
        st.nodes.insert(node, NodeSlot::fresh());
    }

    /// Resets a node slot for a rejoin: alive again, unsevered.
    pub(crate) fn reset_node(&self, node: NodeId) {
        let mut st = self.state.lock();
        st.nodes.insert(node, NodeSlot::fresh());
    }

    /// Current state of a node (`None` if never added).
    pub fn node_state(&self, node: NodeId) -> Option<NodeState> {
        self.state.lock().nodes.get(&node).map(|s| s.state)
    }

    /// Blocks until no node is `Running` (every live node parked in a
    /// receive, every other node exited).
    ///
    /// # Panics
    ///
    /// Panics if a node runs for more than the wedge timeout without
    /// blocking — a real livelock in the code under test.
    pub fn wait_quiescence(&self) {
        let mut st = self.state.lock();
        loop {
            if st.nodes.values().all(|s| s.state != NodeState::Running) {
                return;
            }
            if self.cv.wait_for(&mut st, WEDGE_TIMEOUT).timed_out() {
                let running: Vec<NodeId> = st
                    .nodes
                    .iter()
                    .filter(|(_, s)| s.state == NodeState::Running)
                    .map(|(n, _)| *n)
                    .collect();
                panic!("simulation wedged: {running:?} ran {WEDGE_TIMEOUT:?} without blocking");
            }
        }
    }

    /// Blocks until `node` has exited (used by the kill fault, which must
    /// observe the death before synthesizing disconnect notices).
    pub(crate) fn wait_exited(&self, node: NodeId) {
        let mut st = self.state.lock();
        loop {
            match st.nodes.get(&node) {
                None => return,
                Some(s) if s.state == NodeState::Exited => return,
                Some(_) => {}
            }
            if self.cv.wait_for(&mut st, WEDGE_TIMEOUT).timed_out() {
                panic!("killed node {node} failed to exit within {WEDGE_TIMEOUT:?}");
            }
        }
    }

    /// Runs `f` with the locked scheduler state. Internal harness plumbing.
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut SchedState) -> R) -> R {
        let mut st = self.state.lock();
        f(&mut st)
    }

    /// Grants `wake` to a parked node and marks it running. Caller must hold
    /// the state via [`SimScheduler::with_state`].
    pub(crate) fn grant_locked(&self, st: &mut SchedState, node: NodeId, wake: HookWake) {
        let slot = st.nodes.get_mut(&node).expect("grant to unknown node");
        debug_assert_eq!(slot.state, NodeState::Blocked, "grant to unparked {node}");
        slot.wake = Some(wake);
        slot.state = NodeState::Running;
        slot.deadline = None;
        self.cv.notify_all();
    }

    /// Marks a node severed. Caller holds the state.
    pub(crate) fn sever_locked(&self, st: &mut SchedState, node: NodeId) {
        if let Some(slot) = st.nodes.get_mut(&node) {
            slot.severed = true;
        }
    }
}

impl SchedState {
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

    pub(crate) fn node_state(&self, node: NodeId) -> Option<NodeState> {
        self.nodes.get(&node).map(|s| s.state)
    }

    pub(crate) fn is_blocked(&self, node: NodeId) -> bool {
        self.node_state(node) == Some(NodeState::Blocked)
    }

    pub(crate) fn all_exited(&self) -> bool {
        self.nodes.values().all(|s| s.state == NodeState::Exited)
    }

    /// Blocked-and-severed nodes that need a `Disconnected` grant to get
    /// unstuck (their next receive can never be satisfied).
    pub(crate) fn severed_blocked(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, s)| s.state == NodeState::Blocked && s.severed)
            .map(|(n, _)| *n)
            .collect()
    }

    /// All blocked nodes (the teardown path unsticks every one).
    pub(crate) fn blocked_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, s)| s.state == NodeState::Blocked)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Drops every queued message addressed to an exited node (packets in
    /// flight to a dead process), tracing each drop.
    pub(crate) fn purge_dead_destinations(&mut self) {
        let dead: Vec<LinkKey> = self
            .links
            .iter()
            .filter(|((_, to), q)| {
                !q.is_empty() && self.nodes.get(to).map(|s| s.state) == Some(NodeState::Exited)
            })
            .map(|(k, _)| *k)
            .collect();
        for key in dead {
            if let Some(q) = self.links.get_mut(&key) {
                for env in q.drain(..) {
                    self.events.push(TraceEvent::DroppedDeadDestination {
                        from: env.from,
                        to: env.to,
                        tag: env.message.tag().as_str(),
                    });
                }
            }
        }
    }

    /// Drops every queued message on links from or to `node` (used when a
    /// node is severed: nothing queued for it can arrive, and — for
    /// in-flight messages *to* it — nothing can be delivered to a dead
    /// process).
    pub(crate) fn purge_links_to(&mut self, node: NodeId) {
        let keys: Vec<LinkKey> = self
            .links
            .iter()
            .filter(|((_, to), q)| *to == node && !q.is_empty())
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            if let Some(q) = self.links.get_mut(&key) {
                for env in q.drain(..) {
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

    /// The quiescent view the harness decides from.
    pub(crate) fn quiescent_view(&self) -> Quiescent {
        let eligible: Vec<LinkKey> = self
            .links
            .iter()
            .filter(|(key, q)| {
                if q.is_empty() || self.masks.contains_key(*key) {
                    return false;
                }
                // Destination must be parked, alive, and reachable; exited
                // destinations are purged before this view is built, and
                // severed ones drain via their disconnect grant instead.
                self.nodes
                    .get(&key.1)
                    .is_some_and(|s| s.state == NodeState::Blocked && !s.severed)
            })
            .map(|(k, _)| *k)
            .collect();
        let earliest_timer = self
            .nodes
            .iter()
            .filter_map(|(n, s)| match (s.state, s.deadline) {
                (NodeState::Blocked, Some(d)) if !s.severed => Some((d, *n)),
                _ => None,
            })
            .min();
        let any_live = self.nodes.values().any(|s| s.state != NodeState::Exited);
        Quiescent {
            eligible,
            earliest_timer,
            any_live,
        }
    }
}

impl DeliveryHook for SimScheduler {
    fn on_send(&self, envelope: Envelope) -> NetResult<()> {
        let mut st = self.state.lock();
        let severed = st
            .nodes
            .get(&envelope.from)
            .map(|s| s.severed)
            .unwrap_or(false);
        // Transport events are fabric-synthesized (disconnect notices), never
        // sent by the severed node's own thread — they must get through or
        // no peer would ever observe the death.
        if severed && !matches!(envelope.message, Message::Transport(_)) {
            st.events.push(TraceEvent::DroppedFromSevered {
                from: envelope.from,
                to: envelope.to,
                tag: envelope.message.tag().as_str(),
            });
            return Ok(());
        }
        st.links
            .entry((envelope.from, envelope.to))
            .or_default()
            .push_back(envelope);
        Ok(())
    }

    fn on_empty_recv(&self, node: NodeId, timeout: Option<Duration>) -> HookWake {
        let mut st = self.state.lock();
        {
            let slot = st
                .nodes
                .get_mut(&node)
                .unwrap_or_else(|| panic!("unknown sim node {node} blocked"));
            slot.state = NodeState::Blocked;
            // Quantize to whole milliseconds: some callers derive their
            // timeout by subtracting real `Instant::now()` readings, and the
            // sub-millisecond wall jitter in that arithmetic must not leak
            // into virtual deadlines (it would make timer order run-
            // dependent). Every intentional timeout in the workspace is a
            // whole number of milliseconds.
            slot.deadline = timeout.map(|t| self.clock.now() + quantize_ms(t));
        }
        self.cv.notify_all();
        loop {
            if let Some(wake) = st.nodes.get_mut(&node).and_then(|s| s.wake.take()) {
                // The scheduler already marked the node Running and cleared
                // its deadline when granting.
                return wake;
            }
            self.cv.wait(&mut st);
        }
    }

    fn on_node_exit(&self, node: NodeId) {
        let mut st = self.state.lock();
        if let Some(slot) = st.nodes.get_mut(&node) {
            slot.state = NodeState::Exited;
            slot.deadline = None;
        }
        st.events.push(TraceEvent::NodeExited { node });
        self.cv.notify_all();
    }
}
