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
//! A node is one thread, its owner; nothing reads in the background.
//! `recv`, `recv_timeout`, `try_recv` and `pending` run one `poll(2)` over
//! the non-blocking listener and inbound streams, give each readable stream
//! one `read(2)` into its own buffer and queue every whole frame in it, so
//! a frame costs one wake-up of the owner. The owner also receives while
//! the kernel will not take one of its writes and during a first dial's
//! retry pause, so two nodes writing to each other cannot deadlock.

#![expect(
    clippy::disallowed_methods,
    reason = "real OS sockets: dial backoff and receive deadlines follow kernel time"
)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::codec;
use crate::framing::{self, BATCH_FLAG};
use crate::message::{Envelope, Message, NodeId, Tag, TransportEvent};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::stats::{NetworkStats, SharedNetworkStats};
use crate::transport::{NetError, NetResult, TransportEndpoint};

pub use crate::framing::MAX_FRAME;

/// Pause between attempts while a *first* dial waits out the startup window.
const DIAL_PAUSE: Duration = Duration::from_millis(20);

/// How long the listener is left out of the poll set after a transient
/// `accept` error (e.g. `EMFILE`), which would otherwise report it ready
/// on every poll.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(20);

/// After a `try_recv` poll finds nothing, further `try_recv`s within this
/// window return `Empty` without polling. Blocking receives always poll, so
/// this only bounds how stale a busy owner's view of its sockets can get,
/// and it spares a drain-then-work loop an empty `poll(2)` per unit of work.
const REPOLL_AFTER: Duration = Duration::from_micros(20);

/// Bytes one `read(2)` asks for (more only to complete a larger frame).
const READ_CHUNK: usize = 64 << 10;

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

struct Shared {
    node: NodeId,
    book: Arc<RwLock<AddrBook>>,
    dial_policy: DialPolicy,
    peers: Mutex<HashMap<NodeId, Peer>>,
    /// Connectivity notices, sent inside the peer table's critical section
    /// and moved into the inbox queue right after each transition.
    notices: mpsc::Sender<Envelope>,
    stats: Arc<SharedNetworkStats>,
}

impl Shared {
    /// Queues a connectivity notice about `peer`; `false` if the endpoint
    /// is gone.
    fn notify(&self, peer: NodeId, event: TransportEvent) -> bool {
        self.notices
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

/// One node's connection to a TCP fabric. It runs no thread: it receives
/// only when its owner calls it, and it is `Send` but not `Sync`, so it has
/// exactly one owner (see the module docs). Dropping it closes its sockets.
pub struct TcpEndpoint {
    shared: Shared,
    inbox: RefCell<Inbox>,
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
        listener.set_nonblocking(true).map_err(io_err)?;
        let (notices, notices_rx) = mpsc::channel();
        Ok(Self {
            shared: Shared {
                node,
                book,
                dial_policy,
                peers: Mutex::default(),
                notices,
                stats,
            },
            inbox: RefCell::new(Inbox {
                listener,
                accept_after: None,
                streams: Vec::new(),
                queue: VecDeque::new(),
                notices: notices_rx,
                fds: Vec::new(),
                polled_empty: None,
            }),
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

    /// One poll over the inbound side (see [`Inbox::pump`]).
    fn pump(&self, timeout: Option<Duration>, out: Option<RawFd>) -> std::io::Result<()> {
        self.inbox.borrow_mut().pump(&self.shared, timeout, out)
    }

    /// The next queued envelope, polling the sockets until `deadline`
    /// (`None` waits indefinitely; a past deadline polls once).
    fn next(&self, deadline: Option<Instant>) -> NetResult<Envelope> {
        let mut polled = false;
        loop {
            if let Some(envelope) = self.inbox.borrow_mut().settled().pop_front() {
                return Ok(envelope);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if polled && left.is_some_and(|left| left.is_zero()) {
                return Err(NetError::Timeout);
            }
            self.pump(left, None).map_err(io_err)?;
            polled = true;
        }
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
                // processes can come up in any order, receiving meanwhile.
                let deadline = Instant::now() + policy.retry_window;
                loop {
                    match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                        Err(e) if Instant::now() >= deadline => break Err(e),
                        Err(_) => {
                            let _ = self.pump(Some(DIAL_PAUSE), None);
                        }
                        done => break done,
                    }
                }
            }
        };
        let stream = match dialed.and_then(|s| s.set_nonblocking(true).map(|()| s)) {
            Ok(stream) => stream,
            Err(e) => {
                self.dial_failed(to, redial_at.is_some());
                return Err(io_err(e));
            }
        };
        stream.set_nodelay(true).ok();
        let writer = Arc::new(Mutex::new(PeerWriter {
            stream,
            buf: Vec::new(),
        }));
        let mut peers = self.shared.peers.lock();
        peers.entry(to).or_default().link = Link::Up(Arc::clone(&writer));
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
            if self.write_corked(&writer, &encode)? {
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

    /// Encodes into `writer`'s buffer and writes all of it; `Ok(false)` if
    /// the stream failed. While the kernel will not take the rest, this
    /// waits for the stream to drain *and* receives: the peer may itself be
    /// blocked writing to us, and only our owner reads our inbound streams.
    fn write_corked(
        &self,
        writer: &Mutex<PeerWriter>,
        encode: impl Fn(&mut Vec<u8>) -> NetResult<()>,
    ) -> NetResult<bool> {
        let mut guard = writer.lock();
        guard.buf.clear();
        encode(&mut guard.buf)?;
        let mut written = 0;
        let ok = loop {
            let w = &mut *guard;
            match w.stream.write(&w.buf[written..]) {
                Ok(0) => break false,
                Ok(n) if written + n == w.buf.len() => break true,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let fd = w.stream.as_raw_fd();
                    // One lock at a time: receiving may update the peer
                    // table.
                    drop(guard);
                    if self.pump(None, Some(fd)).is_err() {
                        return Ok(false);
                    }
                    guard = writer.lock();
                }
                Err(_) => break false,
            }
        };
        guard.shrink();
        Ok(ok)
    }

    /// A dial to `to` failed: mark the peer down (retriable, not dead
    /// forever) so later sends fail fast until the backoff allows another
    /// attempt — a failed redial doubles the backoff, a failed first dial
    /// starts it. A stream established meanwhile stays.
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

/// Encode- and read-buffer capacity retained once a buffer is done with.
/// Control messages are a few hundred bytes; without this cap a single
/// near-`MAX_FRAME` data transfer would pin its high-water capacity on that
/// peer's stream for the life of the connection.
const BUF_RETAIN: usize = 256 << 10;

impl PeerWriter {
    /// Releases an outlier-sized buffer after a flush.
    fn shrink(&mut self) {
        if self.buf.capacity() > BUF_RETAIN {
            self.buf = Vec::new();
        }
    }
}

/// The receive side, touched only by the endpoint's owner.
struct Inbox {
    listener: TcpListener,
    /// The listener sits out the poll set until this instant after a
    /// transient `accept` error.
    accept_after: Option<Instant>,
    streams: Vec<Inbound>,
    /// Decoded envelopes and notices, in delivery order.
    queue: VecDeque<Envelope>,
    notices: mpsc::Receiver<Envelope>,
    /// The poll set, rebuilt per poll in a reused allocation.
    fds: Vec<PollFd>,
    /// When a `try_recv` last polled and found nothing.
    polled_empty: Option<Instant>,
}

impl Inbox {
    /// The queue, with any notice sent from outside a receive appended.
    fn settled(&mut self) -> &mut VecDeque<Envelope> {
        self.queue.extend(self.notices.try_iter());
        &mut self.queue
    }

    /// One `poll(2)` over the listener, every inbound stream and, if given,
    /// `out` (a dialed stream waiting to become writable), for at most
    /// `timeout`. Accepts every pending connection, gives each readable
    /// stream one `read(2)`, and queues every whole frame.
    fn pump(
        &mut self,
        shared: &Shared,
        timeout: Option<Duration>,
        out: Option<RawFd>,
    ) -> std::io::Result<()> {
        let pause = self
            .accept_after
            .and_then(|at| at.checked_duration_since(Instant::now()))
            .filter(|pause| !pause.is_zero());
        let (listener, timeout) = match pause {
            Some(pause) => (-1, Some(timeout.map_or(pause, |t| t.min(pause)))),
            None => {
                self.accept_after = None;
                (self.listener.as_raw_fd(), timeout)
            }
        };
        self.fds.clear();
        self.fds.push(PollFd::new(listener, POLLIN));
        self.fds.extend(
            self.streams
                .iter()
                .map(|s| PollFd::new(s.stream.as_raw_fd(), POLLIN)),
        );
        if let Some(fd) = out {
            self.fds.push(PollFd::new(fd, POLLOUT));
        }
        if poll::wait(&mut self.fds, timeout)? == 0 {
            return Ok(());
        }
        // Backwards, so `swap_remove` only moves streams already served.
        for i in (0..self.streams.len()).rev() {
            if self.fds[i + 1].revents == 0 {
                continue;
            }
            if !self.streams[i].receive(shared, &mut self.queue, &self.notices) {
                let closed = self.streams.swap_remove(i);
                if let Some(peer) = closed.peer {
                    shared.stream_closed(peer);
                    self.queue.extend(self.notices.try_iter());
                }
            }
        }
        if self.fds[0].revents != 0 {
            self.accept();
        }
        Ok(())
    }

    /// Accepts every connection the listener holds.
    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        stream.set_nodelay(true).ok();
                        self.streams.push(Inbound {
                            stream,
                            buf: Vec::new(),
                            len: 0,
                            peer: None,
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient failures (ECONNABORTED: peer reset before
                // accept; EMFILE: momentary fd exhaustion) must not make
                // the node unreachable; they pause accepting instead of
                // spinning on a listener that stays ready.
                Err(_) => {
                    self.accept_after = Some(Instant::now() + ACCEPT_ERROR_PAUSE);
                    return;
                }
            }
        }
    }
}

/// One accepted stream and the bytes read from it that do not yet make a
/// whole frame (`buf[..len]`).
struct Inbound {
    stream: TcpStream,
    buf: Vec<u8>,
    len: usize,
    /// The peer its first envelope identified.
    peer: Option<NodeId>,
}

impl Inbound {
    /// One `read(2)` — of at least [`READ_CHUNK`], or of the rest of a frame
    /// whose header is in — then every whole frame in the buffer decoded in
    /// place and queued. Batch frames are expanded into their envelopes in
    /// order, so nodes only ever observe plain envelopes — batching is
    /// invisible above the wire. Returns `false` when the connection must be
    /// dropped: EOF, an IO error, an oversized or undecodable frame, or a
    /// forged transport event.
    fn receive(
        &mut self,
        shared: &Shared,
        queue: &mut VecDeque<Envelope>,
        notices: &mpsc::Receiver<Envelope>,
    ) -> bool {
        let frame = header(&self.buf[..self.len]).map_or(0, |(_, len)| 4 + len);
        let room = READ_CHUNK.max(frame.saturating_sub(self.len));
        if self.buf.len() < self.len + room {
            self.buf.resize(self.len + room, 0);
        }
        match self.stream.read(&mut self.buf[self.len..]) {
            Ok(0) => return false,
            Ok(n) => self.len += n,
            Err(e) => return matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        }
        // The first envelope identifies the stream's peer (after the notice
        // of a lost peer's return).
        let peer = &mut self.peer;
        let mut deliver = |envelope: Envelope| {
            // Transport events are generated locally, never sent: a peer that
            // puts one on the wire is forging connectivity notices (e.g. a
            // fake PeerDisconnected(Controller) would shut a worker down).
            // Treat it as a malformed peer.
            if matches!(envelope.message, Message::Transport(_)) {
                return false;
            }
            if peer.is_none() {
                *peer = Some(envelope.from);
                shared.stream_opened(envelope.from);
                queue.extend(notices.try_iter());
            }
            queue.push_back(envelope);
            true
        };
        let mut at = 0;
        // The size is checked before the next read makes room for it.
        while let Some((is_batch, len)) = header(&self.buf[at..self.len]) {
            if len > MAX_FRAME {
                return false;
            }
            let Some(payload) = self.buf[at..self.len].get(4..4 + len) else {
                break; // The rest of the frame is still in flight.
            };
            let delivered = if is_batch {
                framing::parse_batch(payload).is_ok_and(|batch| batch.into_iter().all(&mut deliver))
            } else {
                codec::decode::<Envelope>(payload).is_ok_and(&mut deliver)
            };
            if !delivered {
                return false;
            }
            at += 4 + len;
        }
        if at > 0 {
            self.buf.copy_within(at..self.len, 0);
            self.len -= at;
        }
        if self.len == 0 && self.buf.len() > BUF_RETAIN {
            self.buf = Vec::new();
        }
        true
    }
}

/// The batch flag and payload length of the frame `bytes` starts with, once
/// its four header bytes are in.
fn header(bytes: &[u8]) -> Option<(bool, usize)> {
    let header = u32::from_le_bytes(*bytes.first_chunk::<4>()?);
    Some((header & BATCH_FLAG != 0, (header & !BATCH_FLAG) as usize))
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
            self.inbox.borrow_mut().queue.push_back(envelope);
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
            self.inbox.borrow_mut().queue.extend(envelopes);
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
        self.next(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> NetResult<Envelope> {
        self.next(Instant::now().checked_add(timeout))
    }

    /// Polls the sockets when nothing is queued — unless a poll found
    /// nothing within [`REPOLL_AFTER`]: an owner draining between units of
    /// work would otherwise pay an empty `poll(2)` per unit.
    fn try_recv(&self) -> NetResult<Envelope> {
        let mut inbox = self.inbox.borrow_mut();
        if inbox.settled().is_empty() {
            let now = Instant::now();
            if inbox.polled_empty.is_none_or(|at| now - at >= REPOLL_AFTER) {
                inbox
                    .pump(&self.shared, Some(Duration::ZERO), None)
                    .map_err(io_err)?;
                inbox.polled_empty = inbox.settled().is_empty().then_some(now);
            }
        }
        inbox.settled().pop_front().ok_or(NetError::Empty)
    }

    fn pending(&self) -> usize {
        let _ = self.pump(Some(Duration::ZERO), None);
        self.inbox.borrow_mut().settled().len()
    }

    fn reset_worker_peers(&self) {
        for (node, peer) in self.shared.peers.lock().iter_mut() {
            if matches!(node, NodeId::Worker(_)) {
                peer.link = Link::Idle;
            }
        }
    }
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

    /// Two nodes that each write far more than the kernel buffers before
    /// reading anything both complete: a write the kernel will not take
    /// keeps draining the writer's own inbound streams.
    #[test]
    fn mutual_floods_larger_than_socket_buffers_both_complete() {
        use crate::message::DataTransfer;
        use crate::payload::DataPayload;
        use nimbus_core::TransferId;

        const FRAME: usize = 60 << 10;
        const FRAMES: u64 = (16 << 20) / FRAME as u64 + 1;
        let nodes = [NodeId::Worker(WorkerId(0)), NodeId::Worker(WorkerId(1))];
        let fabric = TcpFabric::bind_loopback(&nodes).unwrap();
        let frame = |i: u64| {
            Message::Data(DataTransfer {
                job: nimbus_core::JobId(1),
                transfer: TransferId(i),
                from_worker: WorkerId(0),
                payload: DataPayload::Bytes(bytes::Bytes::from_vec(vec![i as u8; FRAME])),
            })
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let floods = [(nodes[0], nodes[1]), (nodes[1], nodes[0])].map(|(me, peer)| {
            let endpoint = fabric.endpoint(me).unwrap();
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..FRAMES {
                    endpoint.send(peer, frame(i)).unwrap();
                }
                for i in 0..FRAMES {
                    let env = endpoint.recv_timeout(Duration::from_secs(30)).unwrap();
                    assert!(env.message == frame(i), "frame {i} lost, corrupted or late");
                }
                done.send(()).unwrap();
            })
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        for _ in floods.iter() {
            let left = deadline.saturating_duration_since(Instant::now());
            let done = done_rx.recv_timeout(left);
            assert!(done.is_ok(), "a flood stalled: the two writers deadlocked");
        }
        for flood in floods {
            flood.join().unwrap();
        }
    }

    /// A node is one thread, its owner: traffic both ways and a peer's drop
    /// and return start no transport thread.
    #[test]
    fn a_tcp_node_runs_no_transport_threads() {
        let no_transport_threads = |step: &str| {
            let names = crate::diagnostics::live_thread_names();
            let found = names.iter().any(|n| n.starts_with("nimbus-tcp"));
            assert!(!found, "{step}: {names:?}");
        };
        let exchange = |driver: &TcpEndpoint, controller: &TcpEndpoint| {
            let barrier = Message::driver0(DriverMessage::Barrier);
            driver.send(NodeId::Controller, barrier.clone()).unwrap();
            let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
            let env = match env.message {
                Message::Transport(TransportEvent::PeerReconnected(_)) => {
                    controller.recv_timeout(Duration::from_secs(5)).unwrap()
                }
                _ => env,
            };
            assert_eq!(env.message, barrier);
            // The first send after the driver's return redials it.
            let ack = || Message::ToDriver(ControllerToDriver::Ack);
            let deadline = Instant::now() + Duration::from_secs(5);
            while controller.send(NodeId::Driver, ack()).is_err() {
                assert!(
                    Instant::now() < deadline,
                    "the returned driver is unreachable"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            driver.recv_timeout(Duration::from_secs(5)).unwrap();
        };
        let (fabric, driver, controller) = loopback_pair();
        no_transport_threads("endpoints created");
        exchange(&driver, &controller);
        no_transport_threads("traffic both ways");
        drop(driver);
        let env = controller.recv_timeout(Duration::from_secs(5)).unwrap();
        let lost = TransportEvent::PeerDisconnected(NodeId::Driver);
        assert_eq!(env.message, Message::Transport(lost));
        no_transport_threads("peer dropped");
        let driver = fabric.endpoint(NodeId::Driver).unwrap();
        exchange(&driver, &controller);
        no_transport_threads("peer re-created, traffic both ways");
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
