//! TCP transport: length-prefix-framed envelopes over loopback or LAN
//! sockets.
//!
//! Every node owns one listening socket (its address in the fabric's
//! [`TcpFabric`] map) and dials peers lazily on first send, so any node can
//! send to any other directly — the same full-mesh property the in-process
//! [`crate::Network`] provides, which workers rely on for direct data
//! exchange (paper Section 3.1). Connections are unidirectional: an accepted
//! stream is only read, a dialed stream is only written.
//!
//! Framing is a 4-byte little-endian payload length followed by one
//! [`Envelope`] in the compact binary codec ([`crate::codec`]); a header
//! with the high bit set marks a *batch frame* carrying several envelopes
//! back to back (see [`crate::framing`]). Frames larger than [`MAX_FRAME`]
//! and frames that fail to decode are treated as a malformed peer: the
//! connection is dropped without panicking and the rest of the fabric keeps
//! working.
//!
//! Writers are *corked*: each peer owns one reusable encode buffer, a
//! message is encoded straight into it (zero steady-state allocations), and
//! a batched send ([`TransportEndpoint::send_many`]) coalesces every queued
//! message into one buffer flushed with a single `write(2)` — instead of
//! one encode allocation, one lock round-trip, and one syscall per message.
//! The per-`write(2)` counter in the shared stats pins this behavior in
//! tests.
//!
//! Streams are *supervised*: a dead established stream marks the peer as
//! down with a bounded exponential redial backoff instead of killing it
//! forever, and a dial that exhausts its startup retry window becomes
//! retriable the same way. The receive side reports connectivity through
//! [`TransportEvent::PeerDisconnected`] when a peer's last inbound stream
//! dies and [`TransportEvent::PeerReconnected`] when a previously lost peer
//! delivers traffic again — which is what lets the controller drive the
//! rejoin handshake for restarted workers without replanning the job.
//!
//! Everything the endpoint knows about one peer is one record in one table
//! — its outbound link, its live inbound streams, whether it was lost — and
//! each change to a record, with the notice it implies, is one critical
//! section, so the inbox sees notices in the order the record changed.
//!
//! The accept loop blocks in `accept(2)` (woken by a self-connect at
//! shutdown) and readers block in `read(2)` (unblocked by `shutdown(2)` on
//! their streams at drop), so an idle cluster burns no CPU polling and a
//! message is delivered as soon as the kernel has it, not on the next tick
//! of a poll interval.

#![expect(
    clippy::disallowed_methods,
    reason = "real OS sockets: dial backoff and accept pacing follow kernel time"
)]

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::codec;
use crate::framing::{self, BATCH_FLAG};
use crate::message::{Envelope, Message, NodeId, Tag, TransportEvent};
use crate::stats::{NetworkStats, SharedNetworkStats};
use crate::transport::{NetError, NetResult, TransportEndpoint};

pub use crate::framing::MAX_FRAME;

/// Pause between attempts while a *first* dial waits out the startup window.
const DIAL_PAUSE: Duration = Duration::from_millis(20);

/// Back-off applied by the accept loop after a transient `accept` error.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(20);

/// Timing knobs of the supervised dialing policy.
///
/// A peer that has never been reached gets a patient initial window (so the
/// processes of a cluster can start in any order); a peer whose stream died
/// gets quick redials under exponential backoff, bounded so sends to a peer
/// that is genuinely gone keep failing fast instead of blocking the caller.
#[derive(Clone, Copy, Debug)]
pub struct DialPolicy {
    /// How long a first dial to a never-reached peer retries before the peer
    /// is marked down.
    pub retry_window: Duration,
    /// Backoff before the first redial of a down peer.
    pub initial_backoff: Duration,
    /// Upper bound of the exponential redial backoff.
    pub max_backoff: Duration,
    /// Per-attempt connect timeout for redials.
    pub connect_timeout: Duration,
}

impl Default for DialPolicy {
    fn default() -> Self {
        Self {
            retry_window: Duration::from_secs(10),
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(250),
        }
    }
}

/// Redial state of a peer whose stream died or whose dial gave up.
struct PeerBackoff {
    next_attempt: Instant,
    delay: Duration,
}

/// Every node's address, plus the listeners bound for nodes whose endpoints
/// have not been created yet.
struct AddrBook {
    addrs: HashMap<NodeId, SocketAddr>,
    prebound: HashMap<NodeId, TcpListener>,
}

/// The address book of a TCP cluster plus any pre-bound listeners.
///
/// Two construction modes:
/// * [`TcpFabric::bind_loopback`] — single-process clusters: binds an
///   OS-assigned loopback port per node up front, so the full address map is
///   known before any endpoint starts.
/// * [`TcpFabric::from_addrs`] — multi-process clusters: every process is
///   given the same externally chosen address map and binds only its own
///   node's listener.
///
/// The address map is shared with every endpoint created from the fabric, so
/// nodes added later through [`TcpFabric::add_loopback_node`] (elastic worker
/// membership) become dialable by already-running endpoints.
pub struct TcpFabric {
    book: Arc<RwLock<AddrBook>>,
    stats: Arc<SharedNetworkStats>,
    dial_policy: DialPolicy,
}

impl TcpFabric {
    /// Binds one loopback listener per node and records the assigned ports.
    pub fn bind_loopback(nodes: &[NodeId]) -> NetResult<Self> {
        let fabric = Self::from_addrs(HashMap::new());
        for node in nodes {
            fabric.add_loopback_node(*node)?;
        }
        Ok(fabric)
    }

    /// Builds a fabric from an externally chosen address map.
    pub fn from_addrs(addrs: HashMap<NodeId, SocketAddr>) -> Self {
        Self {
            book: Arc::new(RwLock::new(AddrBook {
                addrs,
                prebound: HashMap::new(),
            })),
            stats: Arc::new(SharedNetworkStats::new()),
            dial_policy: DialPolicy::default(),
        }
    }

    /// Overrides the dialing policy used by endpoints created *after* this
    /// call (tests shorten the windows; deployments tune backoff).
    pub fn with_dial_policy(mut self, policy: DialPolicy) -> Self {
        self.dial_policy = policy;
        self
    }

    /// The address of a node, if it is part of the fabric.
    pub fn addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.book.read().addrs.get(&node).copied()
    }

    /// Adds a node to a running fabric, binding a fresh loopback listener
    /// for it. Existing endpoints share the address map and can dial the new
    /// node immediately; returns its address.
    pub fn add_loopback_node(&self, node: NodeId) -> NetResult<SocketAddr> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let mut book = self.book.write();
        book.addrs.insert(node, addr);
        book.prebound.insert(node, listener);
        Ok(addr)
    }

    /// Creates the endpoint for `node`, binding its listener (or taking the
    /// pre-bound one from [`TcpFabric::bind_loopback`]). Re-creating the
    /// endpoint of a node whose previous endpoint was dropped re-binds the
    /// same address — this is how a rejoining worker reclaims its identity.
    pub fn endpoint(&self, node: NodeId) -> NetResult<TcpEndpoint> {
        let prebound = self.book.write().prebound.remove(&node);
        let listener = match prebound {
            Some(l) => l,
            None => {
                let addr = self
                    .addr(node)
                    .ok_or_else(|| NetError::UnknownNode(node.to_string()))?;
                TcpListener::bind(addr).map_err(io_err)?
            }
        };
        TcpEndpoint::start(
            node,
            Arc::clone(&self.book),
            listener,
            Arc::clone(&self.stats),
            self.dial_policy,
        )
    }

    /// Snapshot of the traffic recorded by every endpoint created from this
    /// fabric (meaningful for single-process clusters; each process of a
    /// multi-process cluster sees only its own endpoints' sends).
    pub fn stats(&self) -> NetworkStats {
        self.stats.snapshot()
    }
}

fn io_err(e: std::io::Error) -> NetError {
    NetError::Io(e.to_string())
}

/// Everything an endpoint knows about one peer. Each change to it is one
/// critical section of the peer table, and the notice the change implies
/// is queued inside that section.
#[derive(Default)]
struct Peer {
    link: Link,
    /// Live inbound streams that identified as this peer.
    inbound: usize,
    /// The peer delivered traffic and then lost every inbound stream; the
    /// next stream that identifies as it announces `PeerReconnected`.
    lost: bool,
}

/// The outbound half of a peer link: one value, so a cached writer and a
/// pending backoff cannot coexist.
#[derive(Default)]
enum Link {
    /// Nothing dialed: the next send dials with the startup retry window.
    #[default]
    Idle,
    /// An established stream with its corked encode buffer (cleared and
    /// reused per flush, so steady-state sends allocate nothing).
    Up(Arc<Mutex<PeerWriter>>),
    /// The stream died or a dial gave up: sends fail fast until the backoff
    /// allows a redial.
    Down(PeerBackoff),
}

/// The reader threads, plus a clone of every live reader's stream keyed by
/// reader id, so drop can `shutdown(2)` them to unblock the blocking reads.
#[derive(Default)]
struct Readers {
    threads: Vec<JoinHandle<()>>,
    streams: HashMap<u64, TcpStream>,
}

struct Shared {
    node: NodeId,
    book: Arc<RwLock<AddrBook>>,
    dial_policy: DialPolicy,
    peers: Mutex<HashMap<NodeId, Peer>>,
    inbox_tx: Sender<Envelope>,
    stats: Arc<SharedNetworkStats>,
    shutdown: AtomicBool,
    readers: Mutex<Readers>,
    next_reader_id: AtomicU64,
}

impl Shared {
    /// Queues a connectivity notice about `peer`; `false` if the endpoint
    /// is gone.
    fn notify(&self, peer: NodeId, event: TransportEvent) -> bool {
        self.inbox_tx
            .send(Envelope {
                from: peer,
                to: self.node,
                message: Message::Transport(event),
            })
            .is_ok()
    }

    /// A backoff that allows a redial at once (the peer may already be back).
    fn immediate_redial(&self) -> Link {
        Link::Down(PeerBackoff {
            next_attempt: Instant::now(),
            delay: self.dial_policy.initial_backoff,
        })
    }

    /// A stream's first envelope identified it as `from`'s: count it, and
    /// announce the peer's return if it was lost. Returns `false` if the
    /// endpoint is gone.
    fn stream_opened(&self, from: NodeId) -> bool {
        let mut peers = self.peers.lock();
        let peer = peers.entry(from).or_default();
        peer.inbound += 1;
        // A fresh inbound stream is live proof the peer is up: clear any
        // redial backoff immediately. Without this, dial failures during
        // the peer's dead window keep doubling the backoff, and a send
        // right after the peer returns (e.g. the rejoin handshake's
        // template reinstalls) would still fail fast inside the stale
        // window — silently, since handshake sends are best-effort.
        if matches!(peer.link, Link::Down(_)) {
            peer.link = Link::Idle;
        }
        if std::mem::take(&mut peer.lost) {
            return self.notify(from, TransportEvent::PeerReconnected(from));
        }
        true
    }

    /// A stream identified as `from`'s ended. If it was the peer's last,
    /// the peer is lost.
    fn stream_closed(&self, from: NodeId) {
        let mut peers = self.peers.lock();
        let peer = peers.entry(from).or_default();
        peer.inbound = peer.inbound.saturating_sub(1);
        if peer.inbound > 0 {
            return;
        }
        peer.lost = true;
        // Connections come in pairs (one per direction): losing the peer's
        // inbound stream means our outbound stream to it is a stale
        // half-open socket whose next writes would be silently buffered and
        // lost. Tear it down now so the next send redials the peer's
        // (possibly restarted) process instead.
        peer.link = self.immediate_redial();
        self.notify(from, TransportEvent::PeerDisconnected(from));
    }
}

/// One node's connection to a TCP fabric. See the module docs for the
/// threading model: one accept thread plus one reader thread per inbound
/// peer connection, all joined on drop.
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    inbox: Receiver<Envelope>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl TcpEndpoint {
    fn start(
        node: NodeId,
        book: Arc<RwLock<AddrBook>>,
        listener: TcpListener,
        stats: Arc<SharedNetworkStats>,
        dial_policy: DialPolicy,
    ) -> NetResult<Self> {
        let local_addr = listener.local_addr().map_err(io_err)?;
        let (inbox_tx, inbox) = unbounded();
        let shared = Arc::new(Shared {
            node,
            book,
            dial_policy,
            peers: Mutex::default(),
            inbox_tx,
            stats,
            shutdown: AtomicBool::new(false),
            readers: Mutex::default(),
            next_reader_id: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("nimbus-tcp-accept-{node}"))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(io_err)?;
        Ok(Self {
            shared,
            inbox,
            accept_thread: Some(accept_thread),
            local_addr,
        })
    }

    /// The address this endpoint's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the traffic counters shared with the fabric.
    pub fn stats(&self) -> NetworkStats {
        self.shared.stats.snapshot()
    }

    fn writer_for(&self, to: NodeId) -> NetResult<Arc<Mutex<PeerWriter>>> {
        let redial_at = {
            let peers = self.shared.peers.lock();
            match peers.get(&to).map(|p| &p.link) {
                Some(Link::Up(writer)) => return Ok(Arc::clone(writer)),
                Some(Link::Down(backoff)) => Some(backoff.next_attempt),
                Some(Link::Idle) | None => None,
            }
        };
        let addr = self
            .shared
            .book
            .read()
            .addrs
            .get(&to)
            .copied()
            .ok_or_else(|| NetError::UnknownNode(to.to_string()))?;
        let policy = self.shared.dial_policy;
        // A peer that failed before redials under backoff: within the backoff
        // window sends fail fast (halts and shutdown broadcasts to a dead
        // peer must not block the caller); past it, one quick attempt.
        let dialed = match redial_at {
            Some(at) if Instant::now() < at => {
                return Err(NetError::Disconnected(to.to_string()));
            }
            Some(_) => TcpStream::connect_timeout(&addr, policy.connect_timeout),
            None => {
                // First dial: wait out the startup window so the cluster's
                // processes can come up in any order.
                let deadline = Instant::now() + policy.retry_window;
                loop {
                    match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                        Err(e)
                            if self.shared.shutdown.load(Ordering::Relaxed)
                                || Instant::now() >= deadline =>
                        {
                            break Err(e)
                        }
                        Err(_) => std::thread::sleep(DIAL_PAUSE),
                        done => break done,
                    }
                }
            }
        };
        let stream = match dialed {
            Ok(stream) => stream,
            Err(e) => {
                self.dial_failed(to, redial_at.is_some());
                return Err(io_err(e));
            }
        };
        stream.set_nodelay(true).ok();
        let mut peers = self.shared.peers.lock();
        let peer = peers.entry(to).or_default();
        // A concurrent send may have dialed the same peer; keep the first.
        if let Link::Up(writer) = &peer.link {
            return Ok(Arc::clone(writer));
        }
        let writer = Arc::new(Mutex::new(PeerWriter {
            stream,
            buf: Vec::new(),
        }));
        peer.link = Link::Up(Arc::clone(&writer));
        Ok(writer)
    }

    /// One buffer, one write: `encode` appends a frame (header and payload)
    /// straight into the peer's reusable buffer — no per-message allocation
    /// — and it is flushed with a single `write(2)`; with TCP_NODELAY a
    /// separate header write would flush as its own segment, doubling the
    /// per-message cost.
    ///
    /// A failed write marks the stream dead (supervision) — and, when we are
    /// actively *receiving* from the peer, retries exactly once over a fresh
    /// dial: a restarting peer can leave a stale cached writer (a dial that
    /// landed in its dying endpoint's accept window) whose first write fails
    /// just as the peer is provably back up, and a fire-and-forget caller
    /// (the rejoin handshake's template reinstalls) would otherwise lose the
    /// message silently.
    fn flush_frame(
        &self,
        to: NodeId,
        encode: impl Fn(&mut Vec<u8>) -> NetResult<()>,
    ) -> NetResult<()> {
        for attempt in 0..2 {
            let writer = self.writer_for(to)?;
            let written = {
                let mut guard = writer.lock();
                let w = &mut *guard;
                w.buf.clear();
                encode(&mut w.buf)?;
                let r = w.stream.write_all(&w.buf);
                w.shrink();
                r
            };
            if written.is_ok() {
                self.shared.stats.record_tcp_write();
                return Ok(());
            }
            let observably_up = self.note_write_failure(to);
            if attempt > 0 || !observably_up {
                break;
            }
        }
        Err(NetError::Disconnected(to.to_string()))
    }

    /// A dial to `to` failed: mark the peer down (retriable, not dead
    /// forever) so later sends fail fast until the backoff allows another
    /// attempt — a failed redial doubles the backoff, a failed first dial
    /// starts it. A stream a concurrent send established meanwhile stays.
    fn dial_failed(&self, to: NodeId, redial: bool) {
        let policy = self.shared.dial_policy;
        let mut peers = self.shared.peers.lock();
        let peer = peers.entry(to).or_default();
        let delay = match &peer.link {
            Link::Up(_) => return,
            Link::Down(backoff) if redial => (backoff.delay * 2).min(policy.max_backoff),
            Link::Idle if redial => (policy.initial_backoff * 2).min(policy.max_backoff),
            _ => policy.initial_backoff,
        };
        peer.link = Link::Down(PeerBackoff {
            next_attempt: Instant::now() + delay,
            delay,
        });
    }

    /// Marks the established stream to `to` dead and arms an immediate
    /// redial (the peer may already be back). Returns whether we hold a
    /// live inbound stream from `to` — proof the peer's process is up
    /// whatever the dead writer says.
    fn note_write_failure(&self, to: NodeId) -> bool {
        let link = self.shared.immediate_redial();
        let mut peers = self.shared.peers.lock();
        let peer = peers.entry(to).or_default();
        peer.link = link;
        peer.inbound > 0
    }
}

/// One dialed stream plus its corked encode buffer. The buffer lives with
/// the stream so encoding happens under the same short lock as the write:
/// one lock round-trip and one `write(2)` per flush, zero allocations once
/// the buffer reaches its working size.
struct PeerWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Encode-buffer capacity retained across flushes. Control messages are a
/// few hundred bytes; without this cap a single near-`MAX_FRAME` data
/// transfer would pin its high-water capacity on that peer's writer for the
/// life of the connection.
const WRITER_BUF_RETAIN: usize = 256 << 10;

impl PeerWriter {
    /// Releases an outlier-sized buffer after a flush.
    fn shrink(&mut self) {
        if self.buf.capacity() > WRITER_BUF_RETAIN {
            self.buf = Vec::new();
        }
    }
}

impl TransportEndpoint for TcpEndpoint {
    fn node(&self) -> NodeId {
        self.shared.node
    }

    fn send(&self, to: NodeId, message: Message) -> NetResult<()> {
        // Traffic accounting mirrors the in-process fabric: the inner
        // message's counted size, recorded only once the send succeeded —
        // retries against a dead peer must not inflate the counters the
        // cross-transport comparisons rely on.
        let (tag, wire_size, is_data) = (message.tag(), message.wire_size(), message.is_data());
        let envelope = Envelope {
            from: self.shared.node,
            to,
            message,
        };
        if to == self.shared.node {
            self.shared
                .inbox_tx
                .send(envelope)
                .map_err(|_| NetError::Disconnected(to.to_string()))?;
        } else {
            self.flush_frame(to, |buf| framing::append_frame(buf, &envelope).map(drop))?;
        }
        self.shared.stats.record(tag, wire_size, is_data);
        Ok(())
    }

    /// The corked write path: every message is encoded into the peer's
    /// reuse buffer as one batch frame and the whole batch is flushed with
    /// exactly one `write(2)` — all-or-nothing, order preserved.
    fn send_many(&self, to: NodeId, messages: Vec<Message>) -> NetResult<()> {
        if messages.len() <= 1 {
            return match messages.into_iter().next() {
                Some(message) => self.send(to, message),
                None => Ok(()),
            };
        }
        let metas: Vec<(Tag, usize, bool)> = messages
            .iter()
            .map(|m| (m.tag(), m.wire_size(), m.is_data()))
            .collect();
        // A batch that cannot fit one frame falls back to per-message sends
        // rather than failing: correctness first, coalescing second.
        let total: usize = metas
            .iter()
            .map(|(_, size, _)| size.saturating_add(64))
            .sum();
        if total > MAX_FRAME {
            for message in messages {
                self.send(to, message)?;
            }
            return Ok(());
        }
        let n = messages.len() as u64;
        let envelopes: Vec<Envelope> = messages
            .into_iter()
            .map(|message| Envelope {
                from: self.shared.node,
                to,
                message,
            })
            .collect();
        if to == self.shared.node {
            for envelope in envelopes {
                self.shared
                    .inbox_tx
                    .send(envelope)
                    .map_err(|_| NetError::Disconnected(to.to_string()))?;
            }
        } else {
            // All-or-nothing, so a retried write re-sends nothing that was
            // delivered.
            self.flush_frame(to, |buf| framing::append_batch_frame(buf, &envelopes))?;
        }
        for (tag, size, is_data) in metas {
            self.shared.stats.record(tag, size, is_data);
        }
        self.shared.stats.record_batch(n);
        Ok(())
    }

    fn recv(&self) -> NetResult<Envelope> {
        self.inbox
            .recv()
            .map_err(|_| NetError::Disconnected(self.shared.node.to_string()))
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        self.inbox
            .recv_timeout(timeout)
            .map_err(|_| NetError::Timeout)
    }

    fn try_recv(&self) -> NetResult<Envelope> {
        self.inbox.try_recv().map_err(|_| NetError::Empty)
    }

    fn pending(&self) -> usize {
        self.inbox.len()
    }

    fn reset_worker_peers(&self) {
        for (node, peer) in self.shared.peers.lock().iter_mut() {
            if matches!(node, NodeId::Worker(_)) {
                peer.link = Link::Idle;
            }
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Closing write halves lets peers' readers observe EOF promptly.
        for peer in self.shared.peers.lock().values_mut() {
            peer.link = Link::Idle;
        }
        // Unblock our own readers: shut their streams down so the blocking
        // reads return immediately.
        for stream in self.shared.readers.lock().streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the blocking accept with a throwaway self-connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let readers = std::mem::take(&mut self.shared.readers.lock().threads);
        for handle in readers {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return; // The wake-up self-connection from drop.
                }
                stream.set_nodelay(true).ok();
                let reader_id = shared.next_reader_id.fetch_add(1, Ordering::Relaxed);
                match stream.try_clone() {
                    Ok(clone) => {
                        shared.readers.lock().streams.insert(reader_id, clone);
                    }
                    Err(_) => {
                        // Without a clone drop cannot unblock this reader;
                        // fall back to a read timeout so the shutdown flag
                        // is still honored within a bounded delay.
                        stream
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .ok();
                    }
                }
                let reader_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("nimbus-tcp-read-{}", shared.node))
                    .spawn(move || reader_loop(stream, reader_id, reader_shared));
                if let Ok(handle) = spawned {
                    let mut readers = shared.readers.lock();
                    // Reap finished readers so short-lived connections (a
                    // malformed peer, a port probe) don't accumulate
                    // join handles for the life of the endpoint.
                    readers.threads.retain(|t| !t.is_finished());
                    readers.threads.push(handle);
                }
            }
            // Transient failures (ECONNABORTED: peer reset before accept;
            // EMFILE: momentary fd exhaustion) must not kill the accept
            // thread — that would silently make the node unreachable for
            // every future dial. Back off and keep accepting; shutdown is
            // the only exit.
            Err(_) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
            }
        }
    }
}

/// Delivers one decoded envelope into the local inbox, identifying the peer
/// on its first envelope (and injecting the reconnect notice when a
/// previously lost peer returns). Returns `false` when the connection must
/// be dropped: a forged transport event, or the endpoint going away.
fn deliver_envelope(envelope: Envelope, peer: &mut Option<NodeId>, shared: &Shared) -> bool {
    // Transport events are generated locally, never sent: a peer that puts
    // one on the wire is forging connectivity notices (e.g. a fake
    // PeerDisconnected(Controller) would shut a worker down). Treat it as a
    // malformed peer.
    if matches!(envelope.message, Message::Transport(_)) {
        return false;
    }
    if peer.is_none() {
        *peer = Some(envelope.from);
        if !shared.stream_opened(envelope.from) {
            return false; // Endpoint dropped.
        }
    }
    shared.inbox_tx.send(envelope).is_ok()
}

/// Reads frames off one inbound connection until EOF, error, or shutdown.
/// Batch frames are expanded into their envelopes in order, so nodes only
/// ever observe plain envelopes — batching is invisible above the wire.
/// The first envelope identifies the peer; losing the peer's *last* inbound
/// stream injects [`TransportEvent::PeerDisconnected`], and a new stream
/// from a previously lost peer injects [`TransportEvent::PeerReconnected`]
/// ahead of its first envelope.
fn reader_loop(mut stream: TcpStream, reader_id: u64, shared: Arc<Shared>) {
    let mut peer: Option<NodeId> = None;
    'conn: loop {
        match read_frame(&mut stream, &shared) {
            Ok(Some(Frame::Single(payload))) => match codec::decode::<Envelope>(&payload) {
                Ok(envelope) => {
                    if !deliver_envelope(envelope, &mut peer, &shared) {
                        break; // Malformed peer or endpoint dropped.
                    }
                }
                Err(_) => break, // Malformed peer: drop the connection.
            },
            Ok(Some(Frame::Batch(payload))) => match framing::parse_batch(&payload) {
                Ok(envelopes) => {
                    for envelope in envelopes {
                        if !deliver_envelope(envelope, &mut peer, &shared) {
                            break 'conn;
                        }
                    }
                }
                Err(_) => break, // Malformed peer: drop the connection.
            },
            Ok(None) => break, // Shutdown requested.
            Err(_) => break,   // EOF or transport error.
        }
    }
    shared.readers.lock().streams.remove(&reader_id);
    if shared.shutdown.load(Ordering::Relaxed) {
        return;
    }
    if let Some(peer) = peer {
        shared.stream_closed(peer);
    }
}

/// One frame off the wire: a single envelope's payload, or a batch frame's
/// payload (several concatenated sub-frames; see [`crate::framing`]).
enum Frame {
    Single(Vec<u8>),
    Batch(Vec<u8>),
}

/// Reads one length-prefixed frame. Returns `Ok(None)` when shutdown was
/// requested mid-read, `Err` on EOF, oversized frames, or IO errors. The
/// header's high bit distinguishes batch frames from single frames.
fn read_frame(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<Option<Frame>> {
    let mut header = [0u8; 4];
    if read_full(stream, &mut header, shared)?.is_none() {
        return Ok(None);
    }
    let header = u32::from_le_bytes(header);
    let is_batch = header & BATCH_FLAG != 0;
    let len = (header & !BATCH_FLAG) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    if read_full(stream, &mut payload, shared)?.is_none() {
        return Ok(None);
    }
    Ok(Some(if is_batch {
        Frame::Batch(payload)
    } else {
        Frame::Single(payload)
    }))
}

/// `read_exact` that keeps checking the shutdown flag. Reads block in the
/// kernel; drop unblocks them by shutting the stream down (or, for streams
/// that could not be cloned, through their fallback read timeout). Returns
/// `Ok(None)` when shutdown was requested.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
) -> std::io::Result<Option<()>> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.shutdown.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ControllerToDriver, DriverMessage};
    use nimbus_core::WorkerId;

    fn loopback_pair() -> (TcpFabric, TcpEndpoint, TcpEndpoint) {
        let fabric = TcpFabric::bind_loopback(&[NodeId::Driver, NodeId::Controller]).unwrap();
        let driver = fabric.endpoint(NodeId::Driver).unwrap();
        let controller = fabric.endpoint(NodeId::Controller).unwrap();
        (fabric, driver, controller)
    }

    #[test]
    fn send_and_receive_over_loopback() {
        let (_fabric, driver, controller) = loopback_pair();
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, NodeId::Driver);
        assert_eq!(env.to, NodeId::Controller);
        assert_eq!(env.message, Message::driver0(DriverMessage::Barrier));

        controller
            .send(
                NodeId::Driver,
                Message::ToDriver(ControllerToDriver::BarrierReached),
            )
            .unwrap();
        let env = driver.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            env.message,
            Message::ToDriver(ControllerToDriver::BarrierReached)
        );
    }

    #[test]
    fn messages_from_one_sender_arrive_in_order() {
        let (_fabric, driver, controller) = loopback_pair();
        for i in 0..100u64 {
            driver
                .send(
                    NodeId::Controller,
                    Message::driver0(DriverMessage::Checkpoint { marker: i }),
                )
                .unwrap();
        }
        for i in 0..100u64 {
            let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                env.message,
                Message::driver0(DriverMessage::Checkpoint { marker: i })
            );
        }
    }

    #[test]
    fn unknown_peer_is_rejected() {
        let (_fabric, driver, _controller) = loopback_pair();
        let err = driver
            .send(
                NodeId::Worker(WorkerId(7)),
                Message::driver0(DriverMessage::Barrier),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownNode(_)), "{err}");
    }

    #[test]
    fn peer_drop_is_reported_and_sends_fail_fast() {
        let (_fabric, driver, controller) = loopback_pair();
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        controller.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(driver);
        // The controller's reader observes EOF and reports the driver gone.
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            env.message,
            Message::Transport(TransportEvent::PeerDisconnected(NodeId::Driver))
        );
    }

    /// The heart of the rejoin story at the transport layer: a peer whose
    /// endpoint died and was re-created is reported as reconnected, its
    /// traffic flows again, and outbound sends to it recover through the
    /// redial backoff instead of staying dead forever.
    #[test]
    fn peer_rejoin_is_reported_and_traffic_resumes_both_ways() {
        let (fabric, driver, controller) = loopback_pair();
        // Establish traffic in both directions.
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        controller.recv_timeout(Duration::from_secs(5)).unwrap();
        controller
            .send(NodeId::Driver, Message::ToDriver(ControllerToDriver::Ack))
            .unwrap();
        driver.recv_timeout(Duration::from_secs(5)).unwrap();

        drop(driver);
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            env.message,
            Message::Transport(TransportEvent::PeerDisconnected(NodeId::Driver))
        );

        // The peer returns on the same fabric address.
        let driver2 = fabric.endpoint(NodeId::Driver).unwrap();
        driver2
            .send(
                NodeId::Controller,
                Message::driver0(DriverMessage::Checkpoint { marker: 42 }),
            )
            .unwrap();
        // Reconnect notice arrives strictly before the new traffic.
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            env.message,
            Message::Transport(TransportEvent::PeerReconnected(NodeId::Driver))
        );
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            env.message,
            Message::driver0(DriverMessage::Checkpoint { marker: 42 })
        );

        // Outbound recovers too: the controller's old writer is dead, but
        // supervised redial re-establishes it within the backoff budget.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match controller.send(NodeId::Driver, Message::ToDriver(ControllerToDriver::Ack)) {
                Ok(()) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("send to rejoined peer never recovered: {e}"),
            }
        }
        let env = driver2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.message, Message::ToDriver(ControllerToDriver::Ack));
    }

    /// A dial that exhausts its startup window no longer kills the peer
    /// forever: once the peer actually binds, sends recover.
    #[test]
    fn dial_give_up_is_retriable_once_the_peer_appears() {
        let w0 = NodeId::Worker(WorkerId(0));
        let w1 = NodeId::Worker(WorkerId(1));
        // w1's address is reserved but nothing listens on it yet.
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        let w1_addr = placeholder.local_addr().unwrap();
        drop(placeholder);
        let a_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut addrs = HashMap::new();
        addrs.insert(w0, a_listener.local_addr().unwrap());
        addrs.insert(w1, w1_addr);
        drop(a_listener);
        let fabric = TcpFabric::from_addrs(addrs).with_dial_policy(DialPolicy {
            retry_window: Duration::from_millis(100),
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(100),
        });
        let a = fabric.endpoint(w0).unwrap();

        // First send exhausts the startup window and fails...
        assert!(a
            .send(w1, Message::driver0(DriverMessage::Barrier))
            .is_err());
        // ...and within the backoff window further sends fail fast.
        let t = Instant::now();
        assert!(a
            .send(w1, Message::driver0(DriverMessage::Barrier))
            .is_err());
        assert!(
            t.elapsed() < Duration::from_millis(90),
            "backoff gate did not fail fast: {:?}",
            t.elapsed()
        );

        // The peer finally binds: sends recover after the backoff.
        let b = fabric.endpoint(w1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match a.send(w1, Message::driver0(DriverMessage::Barrier)) {
                Ok(()) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("send never recovered after peer appeared: {e}"),
            }
        }
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.message, Message::driver0(DriverMessage::Barrier));
    }

    /// A peer's fresh inbound stream clears its redial backoff immediately:
    /// sends issued right after the peer announces itself (the rejoin
    /// handshake's template reinstalls) must not fail fast inside a stale
    /// backoff window grown by dial failures during the dead window.
    #[test]
    fn inbound_stream_clears_redial_backoff_immediately() {
        let w0 = NodeId::Worker(WorkerId(0));
        let w1 = NodeId::Worker(WorkerId(1));
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        let w1_addr = placeholder.local_addr().unwrap();
        drop(placeholder);
        let a_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut addrs = HashMap::new();
        addrs.insert(w0, a_listener.local_addr().unwrap());
        addrs.insert(w1, w1_addr);
        drop(a_listener);
        // A LONG max backoff: repeated dial failures push next_attempt far
        // into the future, so only the inbound-stream clearing (not the
        // passage of time) can explain a recovered send below.
        let fabric = TcpFabric::from_addrs(addrs).with_dial_policy(DialPolicy {
            retry_window: Duration::from_millis(50),
            initial_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(60),
            connect_timeout: Duration::from_millis(100),
        });
        let a = fabric.endpoint(w0).unwrap();
        // Grow the backoff with a few failed dial rounds.
        for _ in 0..4 {
            let _ = a.send(w1, Message::driver0(DriverMessage::Barrier));
            std::thread::sleep(Duration::from_millis(60));
        }
        // The peer comes up and announces itself with an inbound stream.
        let b = fabric.endpoint(w1).unwrap();
        b.send(w0, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        let env = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            env.message,
            Message::Driver {
                msg: DriverMessage::Barrier,
                ..
            }
        ));
        // An immediate outbound send succeeds — no waiting out the stale
        // backoff window.
        a.send(w1, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            env.message,
            Message::Driver {
                msg: DriverMessage::Barrier,
                ..
            }
        ));
    }

    #[test]
    fn garbage_frames_do_not_panic_or_wedge_the_endpoint() {
        let (_fabric, driver, controller) = loopback_pair();
        // A raw connection spraying garbage: bogus oversized header.
        let mut raw = TcpStream::connect(controller.local_addr()).unwrap();
        raw.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        raw.write_all(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        // A second raw connection with a well-sized frame of undecodable bytes.
        let mut raw2 = TcpStream::connect(controller.local_addr()).unwrap();
        raw2.write_all(&4u32.to_le_bytes()).unwrap();
        raw2.write_all(&[0xff, 0xff, 0xff, 0xff]).unwrap();
        raw2.flush().unwrap();
        // A third connection that dies before completing its 4-byte header:
        // the short-frame case the length guard must reject without any
        // underflow.
        let mut raw3 = TcpStream::connect(controller.local_addr()).unwrap();
        raw3.write_all(&[0x01, 0x02]).unwrap();
        drop(raw3);
        // Legitimate traffic still flows.
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.message, Message::driver0(DriverMessage::Barrier));
        // And the garbage never surfaced as an envelope.
        assert!(controller.try_recv().is_err());
    }

    #[test]
    fn data_payloads_cross_as_bytes() {
        use crate::message::DataTransfer;
        use crate::payload::DataPayload;
        use nimbus_core::appdata::VecF64;
        use nimbus_core::TransferId;

        let w0 = NodeId::Worker(WorkerId(0));
        let w1 = NodeId::Worker(WorkerId(1));
        let fabric = TcpFabric::bind_loopback(&[w0, w1]).unwrap();
        let a = fabric.endpoint(w0).unwrap();
        let b = fabric.endpoint(w1).unwrap();
        a.send(
            w1,
            Message::Data(DataTransfer {
                job: nimbus_core::JobId(1),
                transfer: TransferId(3),
                from_worker: WorkerId(0),
                payload: DataPayload::Object(Box::new(VecF64::new(vec![1.0, -2.5]))),
            }),
        )
        .unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let Message::Data(transfer) = env.message else {
            panic!("expected data transfer, got {:?}", env.message);
        };
        assert_eq!(transfer.transfer, TransferId(3));
        let DataPayload::Bytes(bytes) = transfer.payload else {
            panic!("expected bytes payload");
        };
        let mut decoded = VecF64::default();
        nimbus_core::appdata::AppData::decode_wire(&mut decoded, bytes.as_slice()).unwrap();
        assert_eq!(decoded.values, vec![1.0, -2.5]);
    }

    #[test]
    fn nodes_added_to_a_running_fabric_are_dialable() {
        let (fabric, driver, _controller) = loopback_pair();
        let w9 = NodeId::Worker(WorkerId(9));
        fabric.add_loopback_node(w9).unwrap();
        let late = fabric.endpoint(w9).unwrap();
        driver
            .send(w9, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        let env = late.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.message, Message::driver0(DriverMessage::Barrier));
    }

    /// The corked writer contract: a batched send crosses the wire as one
    /// frame flushed by exactly one `write(2)`, envelopes arrive in order,
    /// and ordering against surrounding single sends is preserved.
    #[test]
    fn batched_send_is_one_write_syscall_and_preserves_order() {
        let (_fabric, driver, controller) = loopback_pair();
        // Warm the connection so the dial is out of the way.
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        controller.recv_timeout(Duration::from_secs(5)).unwrap();
        let before = driver.stats();
        let batch: Vec<Message> = (0..10u64)
            .map(|i| Message::driver0(DriverMessage::Checkpoint { marker: i }))
            .collect();
        driver.send_many(NodeId::Controller, batch).unwrap();
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        for i in 0..10u64 {
            let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                env.message,
                Message::driver0(DriverMessage::Checkpoint { marker: i })
            );
        }
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.message, Message::driver0(DriverMessage::Barrier));
        let after = driver.stats();
        assert_eq!(
            after.tcp_writes - before.tcp_writes,
            2,
            "10-message batch + 1 single send must be exactly 2 write(2)s"
        );
        assert_eq!(after.frames_coalesced - before.frames_coalesced, 9);
        assert_eq!(after.batched_commands - before.batched_commands, 10);
        assert_eq!(after.messages - before.messages, 11);
    }

    /// Byte accounting must not depend on batching: the same messages sent
    /// batched and unbatched record identical message counts and bytes.
    #[test]
    fn batched_and_unbatched_sends_account_identically() {
        let messages = |n: u64| -> Vec<Message> {
            (0..n)
                .map(|i| Message::driver0(DriverMessage::Checkpoint { marker: i }))
                .collect()
        };
        let (_fabric, driver, controller) = loopback_pair();
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        controller.recv_timeout(Duration::from_secs(5)).unwrap();

        let base = driver.stats();
        for m in messages(8) {
            driver.send(NodeId::Controller, m).unwrap();
        }
        let unbatched = driver.stats();
        driver.send_many(NodeId::Controller, messages(8)).unwrap();
        let batched = driver.stats();
        for _ in 0..16 {
            controller.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(
            unbatched.messages - base.messages,
            batched.messages - unbatched.messages
        );
        assert_eq!(
            unbatched.control_bytes - base.control_bytes,
            batched.control_bytes - unbatched.control_bytes
        );
        assert_eq!(
            unbatched.count("checkpoint") + 8,
            batched.count("checkpoint")
        );
    }

    #[test]
    fn empty_and_single_batches_degenerate_to_plain_sends() {
        let (_fabric, driver, controller) = loopback_pair();
        driver.send_many(NodeId::Controller, Vec::new()).unwrap();
        driver
            .send_many(
                NodeId::Controller,
                vec![Message::driver0(DriverMessage::Barrier)],
            )
            .unwrap();
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.message, Message::driver0(DriverMessage::Barrier));
        let stats = driver.stats();
        assert_eq!(stats.batched_commands, 0, "singletons are not batches");
        assert_eq!(stats.frames_coalesced, 0);
    }

    /// The overlapping-restart race: a restarted peer's first stream and the
    /// end of its old incarnation's last stream are each one transition of
    /// the peer record. In either order — in turn, or racing on two threads
    /// — the inbox gets both notices in order, or neither (the streams
    /// overlapped, so the peer was never lost), and the link ends as one
    /// value: never a cached writer beside a backoff.
    #[test]
    fn restart_transitions_yield_both_notices_in_order_or_neither() {
        let (_fabric, _driver, controller) = loopback_pair();
        let shared = &controller.shared;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        for round in 0..200 {
            let w = NodeId::Worker(WorkerId(round));
            // The old incarnation: one live inbound stream (and, in the
            // two ordered rounds, a cached writer).
            assert!(shared.stream_opened(w));
            if round < 2 {
                let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let writer = Arc::new(Mutex::new(PeerWriter {
                    stream,
                    buf: Vec::new(),
                }));
                shared.peers.lock().get_mut(&w).unwrap().link = Link::Up(writer);
            }
            match round {
                0 => {
                    shared.stream_closed(w);
                    assert!(shared.stream_opened(w));
                }
                1 => {
                    assert!(shared.stream_opened(w));
                    shared.stream_closed(w);
                }
                _ => {
                    let barrier = std::sync::Barrier::new(2);
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            barrier.wait();
                            shared.stream_closed(w);
                        });
                        barrier.wait();
                        assert!(shared.stream_opened(w));
                    });
                }
            }
            let got: Vec<Message> = std::iter::from_fn(|| controller.try_recv().ok())
                .map(|env| env.message)
                .collect();
            let peers = shared.peers.lock();
            let peer = &peers[&w];
            assert_eq!((peer.inbound, peer.lost), (1, false), "round {round}");
            if got.is_empty() {
                assert!(round != 0, "the last stream was lost first");
                assert!(!matches!(peer.link, Link::Down(_)));
            } else {
                assert!(round != 1, "the streams overlapped");
                let both = [
                    TransportEvent::PeerDisconnected(w),
                    TransportEvent::PeerReconnected(w),
                ];
                assert_eq!(got, both.map(Message::Transport), "round {round}");
                assert!(
                    matches!(peer.link, Link::Idle),
                    "stale writer and backoff gone"
                );
            }
        }
    }

    #[test]
    fn drop_joins_all_transport_threads() {
        let (_fabric, driver, controller) = loopback_pair();
        driver
            .send(NodeId::Controller, Message::driver0(DriverMessage::Barrier))
            .unwrap();
        controller.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(driver);
        drop(controller);
        if cfg!(target_os = "linux") {
            let leaked = crate::diagnostics::wait_for_no_thread_with_prefix(
                "nimbus-tcp",
                Duration::from_secs(5),
            );
            assert!(leaked.is_none(), "transport threads leaked: {leaked:?}");
        }
    }
}
