//! In-process transport: the cluster's default message fabric.
//!
//! A [`Network`] is a registry of node endpoints connected by unbounded
//! channels. It satisfies the two control-plane requirements from Section 3.1
//! that involve communication: workers exchange data directly (any endpoint
//! can send to any other endpoint without relaying through the controller)
//! and the controller is just another endpoint, not a router.
//!
//! An optional [`LatencyModel`] delays deliveries to emulate a datacenter
//! network; with latency disabled, channels deliver immediately, which is the
//! configuration used by unit tests and the benchmark.
//!
//! The [`TransportEndpoint`] trait abstracts one node's connection to *some*
//! fabric; [`Endpoint`] (this module) and [`crate::tcp::TcpEndpoint`] are the
//! two implementations. Every node (controller, worker, driver) takes any
//! implementation behind a box, so the same control-plane code runs
//! in-process and across machines.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::message::{Envelope, Message, NodeId};
use crate::stats::{NetworkStats, SharedNetworkStats};

/// One node's connection to a message fabric.
///
/// Implementations must be cheap to move into the node's thread and safe to
/// share with it; sending is `&self` so a node can send while borrowed.
pub trait TransportEndpoint: Send + 'static {
    /// The node this endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Sends a message to another node.
    fn send(&self, to: NodeId, message: Message) -> NetResult<()>;

    /// Sends several messages to the same node as one batch, preserving
    /// their order relative to each other and to surrounding [`send`]s.
    ///
    /// Fabrics that can exploit it deliver the whole batch with one flush —
    /// the TCP transport encodes a single batch frame and issues one
    /// `write(2)` for the lot, which also makes delivery all-or-nothing.
    /// The default just sends each message in turn, which is always
    /// semantically equivalent: batching is a transport optimization, never
    /// a message-visible construct. Note the sequential paths (the default
    /// impl, and the TCP fallback for batches too large for one frame) can
    /// fail after delivering a prefix; callers that must account delivered
    /// messages exactly should keep batches within one frame.
    ///
    /// [`send`]: TransportEndpoint::send
    fn send_many(&self, to: NodeId, messages: Vec<Message>) -> NetResult<()> {
        for message in messages {
            self.send(to, message)?;
        }
        Ok(())
    }

    /// Blocking receive.
    fn recv(&self) -> NetResult<Envelope>;

    /// Blocking receive with a timeout.
    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope>;

    /// Non-blocking receive.
    fn try_recv(&self) -> NetResult<Envelope>;

    /// Drops every established outbound *data-plane* connection — streams to
    /// worker peers — plus any redial backoff for them, so the next transfer
    /// dials afresh. Workers call this on `Halt`: recovery can be
    /// readmitting a restarted peer whose old connection is a silent
    /// half-open socket. Control-plane streams (to the controller or the
    /// driver) are untouched — dropping them would read as this node dying.
    /// Fabrics without connections (the in-process network) need nothing.
    fn reset_worker_peers(&self) {}
}

/// What a node asks of its run loop after one turn.
///
/// The controller and the worker are step functions: a turn takes the wake
/// (`Some` envelope, timeout or disconnect from a blocking receive, or
/// `None` when the node still had work queued), does a bounded burst of
/// work, and never blocks. The run loop — or the deterministic simulation
/// harness — does the one blocking receive the turn asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Work is queued: turn again with no wake.
    Run,
    /// Block for the next envelope, up to the timeout if one is given.
    Wait(Option<Duration>),
    /// The node has stopped.
    Exit,
}

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node is not registered on the network.
    UnknownNode(String),
    /// The destination endpoint has been dropped.
    Disconnected(String),
    /// A blocking receive timed out.
    Timeout,
    /// The inbox is empty (non-blocking receive).
    Empty,
    /// A socket operation failed (TCP transport).
    Io(String),
    /// A message could not be encoded or decoded (TCP transport).
    Codec(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::Disconnected(n) => write!(f, "node {n} disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Empty => write!(f, "inbox empty"),
            NetError::Io(e) => write!(f, "transport io error: {e}"),
            NetError::Codec(e) => write!(f, "wire codec error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result alias for transport operations.
pub type NetResult<T> = Result<T, NetError>;

/// Delivery latency model applied to every message.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LatencyModel {
    /// Deliver immediately (default; used by tests and the benchmark).
    #[default]
    None,
    /// Add a fixed one-way delay to every message.
    Fixed(Duration),
}

impl LatencyModel {
    fn delay(&self) -> Option<Duration> {
        match self {
            LatencyModel::None => None,
            LatencyModel::Fixed(d) if d.is_zero() => None,
            LatencyModel::Fixed(d) => Some(*d),
        }
    }
}

struct Delayed {
    due: Instant,
    seq: u64,
    envelope: Envelope,
    to: Sender<Envelope>,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so the binary heap pops the earliest deadline first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct DelayState {
    heap: BinaryHeap<Delayed>,
    /// Send order, the tie-break between equal due dates.
    seq: u64,
    // Shutdown lives under the same mutex the condvar waits on: checking it
    // in a separate lock would allow the wake-up notification to slip in
    // between the check and the wait, leaving drop blocked until the next
    // delivery deadline (up to the full configured latency).
    shutdown: bool,
}

#[derive(Default)]
struct DelayQueue {
    state: Mutex<DelayState>,
    cv: Condvar,
}

struct NetworkInner {
    senders: RwLock<HashMap<NodeId, Sender<Envelope>>>,
    stats: SharedNetworkStats,
    latency: LatencyModel,
    delay_queue: Arc<DelayQueue>,
    /// The thread draining `delay_queue` under a latency model; joined on
    /// drop.
    delayer: Option<std::thread::JoinHandle<()>>,
}

/// The in-process message fabric connecting driver, controller, and workers.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new(LatencyModel::None)
    }
}

impl Network {
    /// Creates a network with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        let delay_queue = Arc::new(DelayQueue::default());
        let delayer = latency
            .delay()
            .is_some()
            .then(|| start_delayer(Arc::clone(&delay_queue)));
        let inner = Arc::new(NetworkInner {
            senders: RwLock::new(HashMap::new()),
            stats: SharedNetworkStats::new(),
            latency,
            delay_queue,
            delayer,
        });
        Self { inner }
    }

    /// Registers a node and returns its endpoint. Re-registering a node
    /// replaces its inbox (pending messages to the old inbox are dropped).
    pub fn register(&self, node: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        self.inner.senders.write().insert(node, tx);
        Endpoint {
            node,
            receiver: rx,
            network: self.clone(),
        }
    }

    /// Removes a node from the network; subsequent sends to it fail.
    pub fn unregister(&self, node: NodeId) {
        self.inner.senders.write().remove(&node);
    }

    /// Injectable failure: severs `node` from the fabric the way a killed
    /// process severs a TCP peer. The node is unregistered (later sends to
    /// it fail, like dials to a dead address) and every *other* registered
    /// node receives a [`TransportEvent::PeerDisconnected`] notice in its
    /// inbox — which is exactly what the TCP transport injects when a peer's
    /// last inbound stream dies. This is what lets the kill/rejoin churn
    /// suite run on the in-process transport too; a subsequent
    /// [`Network::register`] of the same node plays the role of the
    /// restarted process.
    pub fn disconnect(&self, node: NodeId) {
        let peers: Vec<(NodeId, Sender<Envelope>)> = {
            let mut senders = self.inner.senders.write();
            senders.remove(&node);
            senders.iter().map(|(n, s)| (*n, s.clone())).collect()
        };
        for (peer, sender) in peers {
            let envelope = Envelope {
                from: node,
                to: peer,
                message: Message::Transport(crate::message::TransportEvent::PeerDisconnected(node)),
            };
            let _ = sender.send(envelope);
        }
    }

    /// Returns true if the node is currently registered.
    pub fn is_registered(&self, node: NodeId) -> bool {
        self.inner.senders.read().contains_key(&node)
    }

    /// Sends a message from `from` to `to`.
    pub fn send(&self, from: NodeId, to: NodeId, message: Message) -> NetResult<()> {
        let sender = {
            let senders = self.inner.senders.read();
            senders
                .get(&to)
                .cloned()
                .ok_or_else(|| NetError::UnknownNode(to.to_string()))?
        };
        self.inner
            .stats
            .record(message.tag(), message.wire_size(), message.is_data());
        let envelope = Envelope { from, to, message };
        match self.inner.latency.delay() {
            None => sender
                .send(envelope)
                .map_err(|_| NetError::Disconnected(to.to_string())),
            Some(delay) => {
                let mut state = self.inner.delay_queue.state.lock();
                state.seq += 1;
                let seq = state.seq;
                #[expect(clippy::disallowed_methods, reason = "real-time delivery due date")]
                let due = Instant::now() + delay;
                state.heap.push(Delayed {
                    due,
                    seq,
                    envelope,
                    to: sender,
                });
                self.inner.delay_queue.cv.notify_one();
                Ok(())
            }
        }
    }

    /// Sends several messages from `from` to `to` as one batch. Delivery is
    /// still one envelope per message, in order (in-process channels have no
    /// framing to coalesce), but the batch is recorded in the batching
    /// counters so cross-transport comparisons line up.
    pub fn send_many(&self, from: NodeId, to: NodeId, messages: Vec<Message>) -> NetResult<()> {
        if messages.len() > 1 {
            self.inner.stats.record_batch(messages.len() as u64);
        }
        for message in messages {
            self.send(from, to, message)?;
        }
        Ok(())
    }

    /// Returns a snapshot of the traffic counters.
    pub fn stats(&self) -> NetworkStats {
        self.inner.stats.snapshot()
    }

    /// Returns the registered node count.
    pub fn node_count(&self) -> usize {
        self.inner.senders.read().len()
    }
}

/// Spawns the thread that hands delayed envelopes to their inboxes once
/// they fall due.
fn start_delayer(queue: Arc<DelayQueue>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("nimbus-net-delayer".to_string())
        .spawn(move || loop {
            let mut state = queue.state.lock();
            if state.shutdown {
                return;
            }
            #[expect(clippy::disallowed_methods, reason = "the delayer runs on real time")]
            let now = Instant::now();
            match state.heap.peek() {
                Some(d) if d.due <= now => {
                    let d = state.heap.pop().expect("peeked entry exists");
                    drop(state);
                    // A dropped receiver just means the node left; ignore.
                    let _ = d.to.send(d.envelope);
                }
                Some(d) => {
                    let wait = d.due - now;
                    queue.cv.wait_for(&mut state, wait);
                }
                None => {
                    queue.cv.wait(&mut state);
                }
            }
        })
        .expect("spawn delayer thread")
}

impl Drop for NetworkInner {
    fn drop(&mut self) {
        self.delay_queue.state.lock().shutdown = true;
        self.delay_queue.cv.notify_all();
        if let Some(handle) = self.delayer.take() {
            let _ = handle.join();
        }
    }
}

/// One node's connection to the network.
pub struct Endpoint {
    node: NodeId,
    receiver: Receiver<Envelope>,
    network: Network,
}

impl Endpoint {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends a message to another node.
    pub fn send(&self, to: NodeId, message: Message) -> NetResult<()> {
        self.network.send(self.node, to, message)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> NetResult<Envelope> {
        self.receiver.try_recv().map_err(|_| NetError::Empty)
    }

    /// Blocking receive.
    pub fn recv(&self) -> NetResult<Envelope> {
        self.receiver
            .recv()
            .map_err(|_| NetError::Disconnected(self.node.to_string()))
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        self.receiver
            .recv_timeout(timeout)
            .map_err(|_| NetError::Timeout)
    }

    /// The network this endpoint is attached to.
    pub fn network(&self) -> &Network {
        &self.network
    }
}

impl TransportEndpoint for Endpoint {
    fn node(&self) -> NodeId {
        Endpoint::node(self)
    }

    fn send(&self, to: NodeId, message: Message) -> NetResult<()> {
        Endpoint::send(self, to, message)
    }

    fn send_many(&self, to: NodeId, messages: Vec<Message>) -> NetResult<()> {
        self.network.send_many(self.node, to, messages)
    }

    fn recv(&self) -> NetResult<Envelope> {
        Endpoint::recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> NetResult<Envelope> {
        Endpoint::try_recv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DriverMessage, Message};
    use nimbus_core::WorkerId;

    #[test]
    fn register_send_receive() {
        let net = Network::new(LatencyModel::None);
        let controller = net.register(NodeId::Controller);
        let driver = net.register(NodeId::Driver);
        assert_eq!(net.node_count(), 2);

        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        let env = controller.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, NodeId::Driver);
        assert!(matches!(
            env.message,
            Message::Driver {
                msg: DriverMessage::Barrier,
                ..
            }
        ));
        assert!(matches!(controller.try_recv(), Err(NetError::Empty)));
    }

    #[test]
    fn unknown_destination_errors() {
        let net = Network::new(LatencyModel::None);
        let driver = net.register(NodeId::Driver);
        let err = driver
            .send(
                NodeId::Worker(WorkerId(9)),
                Message::driver0(DriverMessage::Barrier),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownNode(_)));
    }

    #[test]
    fn unregister_then_send_fails() {
        let net = Network::new(LatencyModel::None);
        let _w = net.register(NodeId::Worker(WorkerId(0)));
        let driver = net.register(NodeId::Driver);
        net.unregister(NodeId::Worker(WorkerId(0)));
        assert!(!net.is_registered(NodeId::Worker(WorkerId(0))));
        assert!(driver
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::driver0(DriverMessage::Barrier)
            )
            .is_err());
    }

    #[test]
    fn stats_count_messages() {
        let net = Network::new(LatencyModel::None);
        let controller = net.register(NodeId::Controller);
        let driver = net.register(NodeId::Driver);
        for _ in 0..3 {
            driver
                .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
                .unwrap();
        }
        let stats = net.stats();
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.count("barrier"), 3);
        assert!(stats.control_bytes > 0);
        drop(controller);
    }

    #[test]
    fn fixed_latency_delays_delivery() {
        let net = Network::new(LatencyModel::Fixed(Duration::from_millis(20)));
        let controller = net.register(NodeId::Controller);
        let driver = net.register(NodeId::Driver);
        #[expect(
            clippy::disallowed_methods,
            reason = "this test verifies real wall-clock delay"
        )]
        let start = Instant::now();
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        // Should not be there immediately.
        assert!(controller.try_recv().is_err());
        let env = controller.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert!(matches!(
            env.message,
            Message::Driver {
                msg: DriverMessage::Barrier,
                ..
            }
        ));
    }

    #[test]
    fn latency_preserves_ordering_per_sender() {
        let net = Network::new(LatencyModel::Fixed(Duration::from_millis(5)));
        let controller = net.register(NodeId::Controller);
        let driver = net.register(NodeId::Driver);
        for i in 0..10u64 {
            driver
                .send(
                    NodeId::Controller,
                    Message::driver0(DriverMessage::Checkpoint { marker: i }),
                )
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            let env = controller.recv_timeout(Duration::from_secs(1)).unwrap();
            if let Message::Driver {
                msg: DriverMessage::Checkpoint { marker },
                ..
            } = env.message
            {
                got.push(marker);
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_delayer_even_with_pending_far_future_deliveries() {
        let net = Network::new(LatencyModel::Fixed(Duration::from_secs(30)));
        let controller = net.register(NodeId::Controller);
        let driver = net.register(NodeId::Driver);
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "asserts shutdown beats the 30 s delay"
        )]
        let start = Instant::now();
        drop(driver);
        drop(controller);
        drop(net);
        // Without the shared-mutex shutdown flag the delayer would sleep out
        // the 30s delivery deadline before noticing shutdown.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop blocked for {:?}",
            start.elapsed()
        );
        if cfg!(target_os = "linux") {
            let leaked = crate::diagnostics::wait_for_no_thread_with_prefix(
                "nimbus-net-dela",
                Duration::from_secs(5),
            );
            assert!(leaked.is_none(), "delayer thread leaked: {leaked:?}");
        }
    }

    #[test]
    fn timeout_on_empty_inbox() {
        let net = Network::new(LatencyModel::None);
        let controller = net.register(NodeId::Controller);
        assert!(matches!(
            controller.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
        assert!(matches!(controller.try_recv(), Err(NetError::Empty)));
    }
}
