//! The centralized Nimbus controller: a multi-tenant control plane.
//!
//! The controller receives the task streams of **many concurrent driver
//! sessions**, transforms each into an execution plan (assigning partitions
//! to workers and inserting copy commands), and dispatches commands to a
//! shared worker pool. Every piece of job state — datasets, versions,
//! templates, replay log, checkpoints, outstanding-sync tracking — lives in
//! a per-job namespace behind the [`JobTable`]: jobs cannot observe each
//! other's data, identifiers, or recoveries. Execution templates sit on top
//! of the per-task path exactly as in the single-job design: basic blocks
//! are recorded as they are scheduled and replayed through one small
//! instantiation message per worker on later executions.
//!
//! Fairness: queued driver messages are serviced **round-robin across
//! jobs**, one message per turn, so one chatty driver flooding pipelined
//! instantiations cannot starve another session's requests.
//!
//! Recovery is per job: a worker death triggers recovery for every job with
//! state on that worker, independently — each such job halts, restores its
//! own checkpoint, and replays its own post-checkpoint window, while jobs
//! without state on the dead worker keep running undisturbed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use nimbus_core::checkpoint::{CheckpointDescriptor, CheckpointEntry, CheckpointLog};
use nimbus_core::graph::AssignedCommand;
use nimbus_core::ids::{CheckpointId, JobId, LogicalPartition, TaskId, WorkerId};
use nimbus_core::lineage::LineageLog;
use nimbus_core::task::TaskSpec;
use nimbus_core::template::InstantiationParams;
use nimbus_core::{Clock, Command, CommandKind, ControlPlaneStats};
use nimbus_net::{
    ControllerToDriver, ControllerToWorker, DriverMessage, Endpoint, Envelope, JobVersions,
    Message, NetError, NodeId, PartitionVersion, TransportEndpoint, TransportEvent,
    WorkerToController,
};

use crate::assignment::AssignmentPolicy;

/// Upper bound on how many already-queued envelopes (or queued driver
/// messages) one loop turn handles before flushing the cork (see
/// [`Controller::run`]).
const CORK_BURST: usize = 128;

/// Byte budget of one worker's corked buffer. Kept far below the
/// transport's maximum frame so a flush always fits a single batch frame —
/// which on TCP is written all-or-nothing, making the failed-flush
/// uncounting in [`Controller::flush_outbox`] exact (a partial delivery
/// would otherwise double-count completions against `outstanding`).
const CORK_MAX_BYTES: usize = 8 << 20;

/// Upper bound on a job's replay log. A job that never checkpoints (the
/// un-templated Spark-like baseline) would otherwise accumulate one entry
/// per raw task forever; past the cap the window is marked unfaithful and
/// the log is dropped — exactly the lossy-recovery behavior such a job had
/// before the log covered raw submits. A committed checkpoint clears the
/// log and starts a fresh, faithful window.
const MAX_REPLAY_LOG: usize = 65_536;
use crate::data_manager::DataManager;
use crate::error::{ControllerError, ControllerResult};
use crate::expansion::{expand_task, refresh_instance, Bookkeeping, IdGens};
use crate::template_manager::TemplateManager;

/// Static controller configuration.
pub struct ControllerConfig {
    /// The initial worker allocation (shared by every job).
    pub workers: Vec<WorkerId>,
    /// Partition assignment policy (each job gets its own instance).
    pub policy: AssignmentPolicy,
    /// Whether execution templates are enabled for new jobs (disabled = pure
    /// centralized per-task scheduling, the Spark-like baseline).
    pub enable_templates: bool,
    /// Automatically checkpoint a job after this many of its template
    /// instantiations.
    pub checkpoint_every: Option<u64>,
    /// How long a transport-detected worker failure waits for the worker to
    /// rejoin before recovery proceeds without it. Within the window a
    /// returning worker is readmitted in place: its templates are
    /// reinstalled per job (with every edit applied so far) and each job's
    /// checkpoint reload targets it directly, so jobs resume with zero
    /// template re-recordings. `None` (the default) recovers immediately
    /// onto the survivors.
    pub rejoin_grace: Option<Duration>,
    /// Where the controller reads "now" for its timeout logic (rejoin-grace
    /// deadlines). [`Clock::Real`] in production; the deterministic
    /// simulation harness substitutes a scheduler-driven virtual clock so
    /// grace expiry races are explored at decision points, not wall time.
    pub clock: Clock,
}

impl ControllerConfig {
    /// Creates a configuration with templates enabled and no auto checkpoints.
    pub fn new(workers: Vec<WorkerId>) -> Self {
        Self {
            workers,
            policy: AssignmentPolicy::hash(),
            enable_templates: true,
            checkpoint_every: None,
            rejoin_grace: None,
            clock: Clock::Real,
        }
    }
}

#[allow(clippy::large_enum_variant)] // CheckpointSave is rare; boxing would obscure it
enum PendingSync {
    None,
    Barrier,
    FetchDrain(LogicalPartition),
    FetchValue(LogicalPartition),
    CheckpointDrain {
        marker: u64,
        notify: bool,
    },
    CheckpointSave {
        marker: u64,
        notify: bool,
        descriptor: CheckpointDescriptor,
    },
    /// The job is draining its outstanding commands before its session ends.
    Closing,
    Recovering {
        marker: u64,
        /// Workers whose `Halted` acknowledgement is still outstanding. A
        /// worker leaves this set when it halts — or when its connection
        /// drops, since a dead worker will never acknowledge.
        pending_halts: Vec<WorkerId>,
        /// Whether to send the driver a `RecoveryComplete` reply (true for
        /// driver-initiated `FailWorker`, false for transport-detected
        /// failures, where the driver is not waiting for one).
        notify: bool,
        /// The failed workers this recovery is still willing to readmit:
        /// recovery completes only once every one of them registers again or
        /// has its rejoin grace deadline pass. A second worker dying inside
        /// the grace window joins this set, so simultaneous losses can both
        /// be readmitted in place.
        awaiting_rejoin: Vec<WorkerId>,
        /// Workers readmitted during this recovery. They came back as fresh
        /// processes with empty stores, so completion must recreate every
        /// physical instance the restored bookkeeping places on them.
        rejoined: Vec<WorkerId>,
    },
}

/// One entry of a job's replay log: the driver traffic since the last
/// committed checkpoint, replayed controller-side after a transport-detected
/// recovery so the data state catches back up to the pre-failure point.
/// Covers both templated (`Instantiate`) and raw (`Submit`) streams, so
/// recoveries spanning un-templated phases stay byte-exact too.
enum ReplayEntry {
    /// A successful `InstantiateTemplate`.
    Instantiate {
        name: String,
        params: InstantiationParams,
    },
    /// A successful raw `SubmitTask` (outside any recording).
    Submit(TaskSpec),
    /// An `EnableTemplates` toggle, replayed in order so surrounding entries
    /// execute under the scheduling mode they originally ran under.
    SetTemplates(bool),
}

/// Everything the controller tracks for one job: the per-job namespace that
/// makes the control plane multi-tenant. Identifier generators, data
/// placement, templates, checkpoints, and synchronization state are all
/// private to the job; only the worker allocation is shared.
struct JobState {
    id: JobId,
    /// Where this job's replies go (the session's driver node).
    driver: NodeId,
    dm: DataManager,
    bk: Bookkeeping,
    ids: IdGens,
    tm: TemplateManager,
    lineage: LineageLog,
    checkpoints: CheckpointLog,
    outstanding: u64,
    enable_templates: bool,
    checkpoint_every: Option<u64>,
    instantiations_since_checkpoint: u64,
    sync: PendingSync,
    /// The driver operation a transport-detected failure interrupted; it is
    /// re-armed once recovery completes so the driver's pending request is
    /// answered (with post-recovery state) instead of abandoned.
    resume_after_recovery: PendingSync,
    /// A driver synchronization that arrived while another one (typically an
    /// auto-checkpoint) was still in flight. The driver is synchronous, so
    /// one slot suffices.
    queued_sync: Option<PendingSync>,
    /// Driver traffic since the last committed checkpoint, in order.
    replay_log: Vec<ReplayEntry>,
    /// False once the log stopped being a faithful reconstruction (e.g. a
    /// failure interrupted an active recording); replay is skipped then.
    replay_valid: bool,
    /// True while the controller replays logged entries (suppresses
    /// re-logging and auto-checkpoint scheduling).
    replaying: bool,
    /// Queued driver messages awaiting their round-robin service turn.
    inbox: VecDeque<DriverMessage>,
    /// True once the job ended (closed or its driver vanished). The entry
    /// is inert — skipped by every lookup and service path — until the main
    /// loop's sweep removes it; deferring the removal keeps job indices
    /// stable for callers iterating the table when a close completes inside
    /// a nested call (e.g. a recovery resuming an interrupted CloseJob).
    done: bool,
}

impl JobState {
    fn new(
        id: JobId,
        driver: NodeId,
        policy: AssignmentPolicy,
        enable_templates: bool,
        checkpoint_every: Option<u64>,
    ) -> Self {
        Self {
            id,
            driver,
            dm: DataManager::new(policy),
            bk: Bookkeeping::new(),
            ids: IdGens::new(),
            tm: TemplateManager::new(),
            lineage: LineageLog::new(),
            checkpoints: CheckpointLog::new(),
            outstanding: 0,
            enable_templates,
            checkpoint_every,
            instantiations_since_checkpoint: 0,
            sync: PendingSync::None,
            resume_after_recovery: PendingSync::None,
            queued_sync: None,
            replay_log: Vec::new(),
            replay_valid: true,
            replaying: false,
            inbox: VecDeque::new(),
            done: false,
        }
    }

    fn recovering(&self) -> bool {
        matches!(self.sync, PendingSync::Recovering { .. })
    }

    /// Appends to the replay log, honoring validity, the replay guard, and
    /// the size cap (past which the window turns lossy, see
    /// [`MAX_REPLAY_LOG`]).
    fn log_replay(&mut self, entry: ReplayEntry) {
        if self.replaying || !self.replay_valid {
            return;
        }
        if self.replay_log.len() >= MAX_REPLAY_LOG {
            self.replay_valid = false;
            self.replay_log.clear();
            return;
        }
        self.replay_log.push(entry);
    }
}

/// Messages corked for one worker between flushes, plus how many commands
/// of each job's `outstanding` they account for (so a failed flush can
/// uncount them per job).
struct WorkerOutbox {
    worker: WorkerId,
    messages: Vec<Message>,
    commands: Vec<(JobId, u64)>,
    /// Estimated wire bytes corked, to keep a flush within one frame.
    bytes: usize,
}

/// The centralized controller node, generic over the transport connecting
/// it to the cluster (in-process [`Endpoint`] by default, or TCP).
pub struct Controller<E: TransportEndpoint = Endpoint> {
    endpoint: E,
    workers: Vec<WorkerId>,
    /// `workers`, kept sorted and deduplicated: the steady-state template
    /// lookup key, maintained on every allocation change so instantiation
    /// never materializes (or sorts) a worker list per block.
    workers_sorted: Vec<WorkerId>,
    all_workers: Vec<WorkerId>,
    /// The job table: one [`JobState`] per open session, in open order.
    /// Sessions are few, so a linear scan beats a hash map on the hot path.
    jobs: Vec<JobState>,
    job_ids: nimbus_core::ids::IdGenerator,
    /// Defaults inherited by every new job.
    policy: AssignmentPolicy,
    default_enable_templates: bool,
    default_checkpoint_every: Option<u64>,
    /// Round-robin cursor over `jobs` for fair servicing of queued driver
    /// messages.
    rr: usize,
    deferred: VecDeque<Envelope>,
    /// Worker registrations that arrived while a recovery was in flight and
    /// no job was awaiting that worker. Dispatched after the recovery
    /// completes; admitting a worker elastically mid-recovery would race
    /// half-restored state.
    held: VecDeque<Envelope>,
    /// How long transport-detected failures wait for a worker to rejoin.
    rejoin_grace: Option<Duration>,
    /// Source of "now" for rejoin deadlines (virtual under simulation).
    clock: Clock,
    /// One rejoin deadline per worker currently inside its grace window;
    /// the earliest bounds the blocking receive in the controller loop.
    rejoin_deadlines: Vec<(WorkerId, Instant)>,
    /// True once any session ever opened: a driver disconnect that empties
    /// the job table then shuts the cluster down (the orphaned-cluster
    /// policy inherited from the single-job design).
    had_session: bool,
    stats: ControlPlaneStats,
    running: bool,
    /// The cork: per-worker message buffers filled by the dispatch helpers
    /// and flushed as one batched send per worker — at most one `write(2)`
    /// each on TCP — before the controller blocks for more traffic.
    outbox: Vec<WorkerOutbox>,
}

impl<E: TransportEndpoint> Controller<E> {
    /// Creates a controller bound to a transport endpoint.
    pub fn new(config: ControllerConfig, endpoint: E) -> Self {
        let mut workers_sorted = config.workers.clone();
        workers_sorted.sort_unstable();
        workers_sorted.dedup();
        Self {
            endpoint,
            all_workers: config.workers.clone(),
            workers_sorted,
            workers: config.workers,
            jobs: Vec::new(),
            job_ids: nimbus_core::ids::IdGenerator::new(),
            policy: config.policy,
            default_enable_templates: config.enable_templates,
            default_checkpoint_every: config.checkpoint_every,
            rr: 0,
            deferred: VecDeque::new(),
            held: VecDeque::new(),
            rejoin_grace: config.rejoin_grace,
            clock: config.clock,
            rejoin_deadlines: Vec::new(),
            had_session: false,
            stats: ControlPlaneStats::new(),
            running: true,
            outbox: Vec::new(),
        }
    }

    /// Re-derives the sorted allocation after `workers` changed. Allocation
    /// changes are rare (eviction, rejoin, elastic join), so recomputing the
    /// cache there keeps the per-instantiation path allocation-free.
    fn note_workers_changed(&mut self) {
        self.workers_sorted.clear();
        self.workers_sorted.extend(self.workers.iter().copied());
        self.workers_sorted.sort_unstable();
        self.workers_sorted.dedup();
    }

    /// Read-only access to the accumulated control-plane statistics.
    pub fn stats(&self) -> &ControlPlaneStats {
        &self.stats
    }

    fn job_index_by_id(&self, id: JobId) -> Option<usize> {
        self.jobs.iter().position(|j| j.id == id && !j.done)
    }

    fn job_index_by_driver(&self, node: NodeId) -> Option<usize> {
        self.jobs.iter().position(|j| j.driver == node && !j.done)
    }

    /// Removes job entries marked done. Called only from the top of the
    /// main loop, where no job index is live across the call.
    fn sweep_done_jobs(&mut self) {
        if self.jobs.iter().any(|j| j.done) {
            self.jobs.retain(|j| !j.done);
            self.rr = 0;
        }
    }

    /// Runs the controller until the cluster shuts down; returns the
    /// accumulated control-plane statistics.
    pub fn run(mut self) -> ControlPlaneStats {
        while self.running {
            // Block only when there is neither transport traffic nor a
            // serviceable queued driver message.
            if !self.has_serviceable() {
                let envelope = match self.next_envelope() {
                    Some(e) => e,
                    None => break,
                };
                self.handle(envelope);
            }
            // Opportunistic burst drain: handle whatever is already queued
            // before flushing, so the sends of many pipelined driver
            // requests (the paper's steady-state instantiation stream)
            // coalesce into one batched send per worker. Transport traffic
            // drains first (it carries completions and failure notices);
            // queued driver messages are then serviced one per job per
            // turn, round-robin, so no session can starve another. Bounded
            // so a flooding driver cannot starve the flush, and always
            // followed by a flush before the next blocking receive —
            // corked messages never outlive the burst that produced them.
            let mut burst = 1usize;
            while self.running && burst < CORK_BURST {
                let next = match self.deferred.pop_front() {
                    Some(e) => Some(e),
                    None => self.endpoint.try_recv().ok(),
                };
                if let Some(envelope) = next {
                    self.handle(envelope);
                    burst += 1;
                    continue;
                }
                if self.service_one() {
                    burst += 1;
                    continue;
                }
                break;
            }
            self.flush_outbox();
            self.sweep_done_jobs();
        }
        self.flush_outbox();
        self.stats
    }

    /// True when some job has a queued driver message that may be serviced
    /// now (its recovery, if any, has completed).
    fn has_serviceable(&self) -> bool {
        self.jobs
            .iter()
            .any(|j| !j.done && !j.inbox.is_empty() && !j.recovering())
    }

    /// Services one queued driver message, rotating round-robin across jobs
    /// so every session makes progress. Returns false when nothing was
    /// serviceable.
    fn service_one(&mut self) -> bool {
        let n = self.jobs.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if self.jobs[i].done || self.jobs[i].inbox.is_empty() || self.jobs[i].recovering() {
                continue;
            }
            let Some(msg) = self.jobs[i].inbox.pop_front() else {
                continue;
            };
            self.rr = (i + 1) % n;
            let start = self.clock.now();
            self.handle_driver(i, msg);
            self.stats.control_plane_time += self.clock.now().saturating_duration_since(start);
            return true;
        }
        false
    }

    fn next_envelope(&mut self) -> Option<Envelope> {
        if let Some(e) = self.deferred.pop_front() {
            return Some(e);
        }
        loop {
            let deadline = self.rejoin_deadlines.iter().map(|(_, d)| *d).min();
            let Some(deadline) = deadline else {
                return self.endpoint.recv().ok();
            };
            let now = self.clock.now();
            if now >= deadline {
                self.expire_due_deadlines(now);
                continue;
            }
            match self.endpoint.recv_timeout(deadline - now) {
                Ok(e) => return Some(e),
                Err(NetError::Timeout) => {
                    let now = self.clock.now();
                    self.expire_due_deadlines(now);
                }
                Err(_) => return None,
            }
        }
    }

    /// Gives up on every worker whose rejoin grace deadline has passed: each
    /// recovering job stops awaiting it and proceeds once its remaining
    /// conditions resolve (the checkpoint-restart baseline the rejoin path
    /// is measured against).
    fn expire_due_deadlines(&mut self, now: Instant) {
        let due: Vec<WorkerId> = self
            .rejoin_deadlines
            .iter()
            .filter(|(_, d)| *d <= now)
            .map(|(w, _)| *w)
            .collect();
        if due.is_empty() {
            return;
        }
        self.rejoin_deadlines.retain(|(_, d)| *d > now);
        for j in 0..self.jobs.len() {
            if let PendingSync::Recovering {
                awaiting_rejoin, ..
            } = &mut self.jobs[j].sync
            {
                awaiting_rejoin.retain(|w| !due.contains(w));
            }
            self.maybe_finish_recovery(j);
        }
    }

    /// True for worker registrations that must not be processed against
    /// mid-recovery state: elastic admission while any job is recovering
    /// would race half-restored data. Registrations a recovering job is
    /// awaiting are processed immediately (they complete that recovery).
    fn should_hold(&self, envelope: &Envelope) -> bool {
        let Message::FromWorker(WorkerToController::Register { worker }) = &envelope.message else {
            return false;
        };
        if !self.jobs.iter().any(JobState::recovering) {
            return false;
        }
        !self.jobs.iter().any(|j| {
            matches!(&j.sync, PendingSync::Recovering { awaiting_rejoin, .. }
                if awaiting_rejoin.contains(worker))
        })
    }

    fn handle(&mut self, envelope: Envelope) {
        if self.should_hold(&envelope) {
            self.held.push_back(envelope);
            return;
        }
        match envelope.message {
            Message::Driver { job, msg } => {
                self.accept_driver_message(envelope.from, job, msg);
            }
            Message::FromWorker(msg) => self.handle_worker(msg),
            Message::Transport(TransportEvent::PeerDisconnected(peer)) => {
                self.handle_disconnect(peer);
            }
            // The rejoin handshake is driven by the worker's `Register`
            // message, which carries identity; the raw transport notice is
            // informational.
            Message::Transport(TransportEvent::PeerReconnected(p))
                if nimbus_core::debug_recovery() =>
            {
                eprintln!("[reconnected] {p}");
            }
            Message::Transport(TransportEvent::PeerReconnected(_)) => {}
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Session table
    // ------------------------------------------------------------------

    /// Resolves the sending node to its session (opening one on first
    /// contact), validates the message's job id against it, and either
    /// answers the handshake or queues the request for round-robin service.
    fn accept_driver_message(&mut self, from: NodeId, job: JobId, msg: DriverMessage) {
        if !from.is_driver() {
            return; // Workers cannot forge driver traffic.
        }
        let j = match self.job_index_by_driver(from) {
            Some(j) => j,
            None => {
                // First contact from this driver node: open its session.
                // An explicit `OpenJob` is the handshake; any other first
                // message is the implicit open (`Session::new`), which
                // works because `JobId(0)` resolves through this table.
                let id = JobId(self.job_ids.next_raw());
                self.jobs.push(JobState::new(
                    id,
                    from,
                    self.policy.clone(),
                    self.default_enable_templates,
                    self.default_checkpoint_every,
                ));
                self.had_session = true;
                self.jobs.len() - 1
            }
        };
        let expected = self.jobs[j].id;
        if job != JobId(0) && job != expected {
            self.reply(
                j,
                ControllerToDriver::Error {
                    message: format!(
                        "job {job} does not belong to this session (expected {expected})"
                    ),
                },
            );
            return;
        }
        if matches!(msg, DriverMessage::OpenJob) {
            // Handshake: answered inline (it is always the session's first
            // message, so ordering with queued traffic is trivial).
            self.reply(j, ControllerToDriver::JobAccepted { job: expected });
            return;
        }
        self.jobs[j].inbox.push_back(msg);
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// True when the job has physical state on the worker (the expansion
    /// path registers every instance in the job's data manager before any
    /// command is dispatched, so this covers in-flight creates too).
    fn job_uses_worker(&self, j: usize, worker: WorkerId) -> bool {
        !self.jobs[j].dm.instances.on_worker(worker).is_empty()
    }

    /// Reacts to a transport-reported peer loss.
    fn handle_disconnect(&mut self, peer: NodeId) {
        match peer {
            // A lost worker is an abrupt failure. Recovery is per job:
            // every job with state on the worker recovers independently;
            // jobs without any keep running untouched.
            NodeId::Worker(w) => {
                if nimbus_core::debug_recovery() {
                    eprintln!(
                        "[disconnect] worker={w} allocated={}",
                        self.workers.contains(&w)
                    );
                }
                if !self.workers.contains(&w) {
                    return; // Already evicted.
                }
                self.workers.retain(|x| *x != w);
                self.note_workers_changed();
                let grace = self.rejoin_grace;
                if let Some(g) = grace {
                    self.rejoin_deadlines.push((w, self.clock.now() + g));
                }
                for j in 0..self.jobs.len() {
                    if self.jobs[j].done {
                        continue;
                    }
                    self.worker_lost_for_job(j, w, grace.is_some());
                }
            }
            // A lost driver orphans its job: release the job's state. Once
            // the last LIVE job is gone the cluster shuts down rather than
            // running headless forever. Deliberate asymmetry: a driver that
            // already closed its job cleanly has detached — its later
            // disconnect is the normal end of a session, not a crash, and
            // must not take a multi-tenant cluster (which other drivers may
            // still connect to) down with it; such a cluster lives until an
            // explicit `Shutdown` (see the ROADMAP's lifetime-policy knob).
            node if node.is_driver() => {
                if let Some(j) = self.job_index_by_driver(node) {
                    self.release_job(j);
                    if self.jobs.iter().all(|j| j.done) && self.had_session {
                        self.shutdown_workers();
                    }
                }
            }
            _ => {}
        }
    }

    /// One job's reaction to losing worker `w` (already evicted from the
    /// shared allocation by the caller).
    fn worker_lost_for_job(&mut self, j: usize, w: WorkerId, may_rejoin: bool) {
        if self.jobs[j].recovering() {
            // A second failure while already recovering: the worker will
            // never acknowledge its Halt, so count it out — and, if a grace
            // window is configured AND this job actually has state on it,
            // await its return too, so two workers dying in one window can
            // both be readmitted in place. A worker the job never touched
            // is not awaited: stalling this recovery a full grace window
            // for a return that gives the job nothing would leak another
            // job's failure across the isolation boundary.
            let workers_empty = self.workers.is_empty();
            let uses = self.job_uses_worker(j, w);
            let mut dead_end = false;
            if let PendingSync::Recovering {
                pending_halts,
                awaiting_rejoin,
                ..
            } = &mut self.jobs[j].sync
            {
                pending_halts.retain(|x| *x != w);
                if may_rejoin && uses && !awaiting_rejoin.contains(&w) {
                    awaiting_rejoin.push(w);
                }
                dead_end = workers_empty && awaiting_rejoin.is_empty();
            }
            if dead_end {
                self.jobs[j].sync = PendingSync::None;
                self.jobs[j].resume_after_recovery = PendingSync::None;
                self.reply(
                    j,
                    ControllerToDriver::Error {
                        message: "every worker disconnected during recovery".to_string(),
                    },
                );
                self.drain_held();
                return;
            }
            self.maybe_finish_recovery(j);
            return;
        }
        if !self.job_uses_worker(j, w) {
            return; // This job never touched the dead worker: isolation.
        }
        // Recovery replaces whatever the driver was synchronizing on; stash
        // it so the pending request is answered (against recovered state)
        // once recovery completes. Stashed *before* `begin_recovery`, which
        // may complete the recovery synchronously when no halt
        // acknowledgement is expected.
        let interrupted = std::mem::replace(&mut self.jobs[j].sync, PendingSync::None);
        self.jobs[j].resume_after_recovery = Self::resumable(interrupted);
        let awaiting = if may_rejoin { vec![w] } else { Vec::new() };
        if let Err(e) = self.begin_recovery(j, false, awaiting) {
            // Unrecoverable (no checkpoint / no workers): answer the
            // driver's pending request — or its next one — with a clean
            // error rather than hanging.
            self.jobs[j].resume_after_recovery = PendingSync::None;
            self.reply(
                j,
                ControllerToDriver::Error {
                    message: format!("worker {w} disconnected: {e}"),
                },
            );
        }
    }

    /// Releases one job's state everywhere: the workers drop its runtimes
    /// (stores, queues, templates) and the controller forgets it. The table
    /// entry is only marked done here — every lookup skips it from now on —
    /// and physically removed by the main loop's sweep, so job indices held
    /// by in-flight iterations stay valid.
    fn release_job(&mut self, j: usize) {
        let job_id = self.jobs[j].id;
        for i in 0..self.workers.len() {
            let w = self.workers[i];
            self.queue_worker(j, w, ControllerToWorker::DropJob { job: job_id }, 0);
        }
        let job = &mut self.jobs[j];
        let was_recovering = job.recovering();
        job.done = true;
        job.inbox.clear();
        job.sync = PendingSync::None;
        job.queued_sync = None;
        job.resume_after_recovery = PendingSync::None;
        if was_recovering {
            // This job's recovery will never complete; registrations it was
            // holding back must not be stranded with it.
            self.drain_held();
        }
    }

    /// Re-queues the worker registrations parked while a recovery was in
    /// flight. Called at every point a recovery ends — completion, dead
    /// end, or its job being released — so a parked `Register` can never be
    /// stranded; if another job is still recovering, `should_hold` simply
    /// parks it again.
    fn drain_held(&mut self) {
        let held = std::mem::take(&mut self.held);
        self.deferred.extend(held);
    }

    /// Broadcasts `Shutdown` to every worker ever allocated (failed ones
    /// included — their in-process thread may still be alive; a dead TCP
    /// peer just fails the send) and stops the controller loop.
    fn shutdown_workers(&mut self) {
        // Corked commands first: a Shutdown that overtook them would stop a
        // worker with work still in flight.
        self.flush_outbox();
        for w in &self.all_workers {
            let _ = self.endpoint.send(
                NodeId::Worker(*w),
                Message::ToWorker(ControllerToWorker::Shutdown),
            );
        }
        self.running = false;
    }

    // ------------------------------------------------------------------
    // Driver interface (per job)
    // ------------------------------------------------------------------

    fn handle_driver(&mut self, j: usize, msg: DriverMessage) {
        match msg {
            DriverMessage::OpenJob => {
                // Normally answered inline by `accept_driver_message`; kept
                // total for robustness.
                let job = self.jobs[j].id;
                self.reply(j, ControllerToDriver::JobAccepted { job });
            }
            DriverMessage::CloseJob => {
                // Drain the job's outstanding work, then release it and
                // confirm. Queued behind any in-flight synchronization.
                self.set_or_queue_sync(j, PendingSync::Closing);
            }
            DriverMessage::DefineDataset(def) => {
                self.jobs[j].dm.define_dataset(def);
                self.reply(j, ControllerToDriver::Ack);
            }
            DriverMessage::SubmitTask(spec) => {
                // Raw tasks are replayable as long as they are not part of
                // an active recording (recording traffic cannot be
                // faithfully reconstructed controller-side). The spec is
                // only cloned when it will actually be logged — the
                // recording path and the already-lossy window stay
                // clone-free, keeping the per-task hot path unchanged.
                let in_recording = self.jobs[j].tm.is_recording();
                let will_log = {
                    let job = &self.jobs[j];
                    job.replay_valid && !job.replaying && !in_recording
                };
                let logged = will_log.then(|| spec.clone());
                match self.submit_task(j, spec) {
                    Ok(()) => {
                        let job = &mut self.jobs[j];
                        if in_recording && !job.replaying {
                            job.replay_valid = false;
                        } else if let Some(spec) = logged {
                            job.log_replay(ReplayEntry::Submit(spec));
                        }
                    }
                    Err(e) => {
                        self.jobs[j].replay_valid = false;
                        self.reply(
                            j,
                            ControllerToDriver::Error {
                                message: e.to_string(),
                            },
                        );
                    }
                }
            }
            DriverMessage::StartTemplate { name } => {
                let job = &mut self.jobs[j];
                job.replay_valid = false;
                let result = if job.enable_templates {
                    job.tm.start_recording(&name)
                } else {
                    Ok(())
                };
                match result {
                    Ok(()) => self.reply(j, ControllerToDriver::Ack),
                    Err(e) => self.reply(
                        j,
                        ControllerToDriver::Error {
                            message: e.to_string(),
                        },
                    ),
                }
            }
            DriverMessage::AbortTemplate { name } => {
                let job = &mut self.jobs[j];
                let result = if job.enable_templates {
                    job.tm.abort_recording(&name)
                } else {
                    Ok(())
                };
                match result {
                    Ok(()) => self.reply(j, ControllerToDriver::Ack),
                    Err(e) => self.reply(
                        j,
                        ControllerToDriver::Error {
                            message: e.to_string(),
                        },
                    ),
                }
            }
            DriverMessage::FinishTemplate { name } => {
                if !self.jobs[j].enable_templates {
                    self.reply(j, ControllerToDriver::TemplateInstalled { name });
                    return;
                }
                match self.finish_template(j, &name) {
                    Ok(()) => self.reply(j, ControllerToDriver::TemplateInstalled { name }),
                    Err(e) => self.reply(
                        j,
                        ControllerToDriver::Error {
                            message: e.to_string(),
                        },
                    ),
                }
            }
            DriverMessage::InstantiateTemplate { name, params } => {
                match self.instantiate_block(j, &name, &params) {
                    // Only successful instantiations enter the replay log: a
                    // failed one (which may have mutated state partially)
                    // makes the window unfaithful, and logging it would
                    // poison any later replay.
                    Ok(()) => {
                        self.jobs[j].log_replay(ReplayEntry::Instantiate { name, params });
                    }
                    Err(e) => {
                        self.jobs[j].replay_valid = false;
                        self.reply(
                            j,
                            ControllerToDriver::Error {
                                message: e.to_string(),
                            },
                        );
                    }
                }
            }
            DriverMessage::FetchValue { partition } => {
                self.set_or_queue_sync(j, PendingSync::FetchDrain(partition));
            }
            DriverMessage::Barrier => {
                self.set_or_queue_sync(j, PendingSync::Barrier);
            }
            DriverMessage::EnableTemplates(enabled) => {
                self.jobs[j].enable_templates = enabled;
                // Logged (not invalidating): the toggle replays in order so
                // surrounding raw/templated entries re-execute under their
                // original scheduling mode.
                self.jobs[j].log_replay(ReplayEntry::SetTemplates(enabled));
                self.reply(j, ControllerToDriver::Ack);
            }
            DriverMessage::Checkpoint { marker } => {
                self.set_or_queue_sync(
                    j,
                    PendingSync::CheckpointDrain {
                        marker,
                        notify: true,
                    },
                );
            }
            DriverMessage::MigrateTasks { name, count } => {
                // Not logged and not invalidating: a migration changes where
                // tasks run, never what the block computes, and its edits
                // live in the template mirror, which a restore does not
                // rewind — replaying the window's instantiations on whatever
                // placement is current reproduces the same data.
                let job = &mut self.jobs[j];
                match job
                    .tm
                    .plan_migrations(&name, count, &self.workers, &mut job.dm)
                {
                    Ok(planned) => {
                        self.stats.edits_applied += planned as u64;
                        self.reply(j, ControllerToDriver::Ack);
                    }
                    Err(e) => self.reply(
                        j,
                        ControllerToDriver::Error {
                            message: e.to_string(),
                        },
                    ),
                }
            }
            DriverMessage::SetWorkerAllocation { workers } => {
                // The allocation is shared: every job observes the change
                // (and drains its data off evicted workers); every job's
                // replay window becomes unfaithful.
                for job in &mut self.jobs {
                    job.replay_valid = false;
                }
                match self.change_allocation(workers) {
                    Ok(()) => self.reply(j, ControllerToDriver::Ack),
                    Err(e) => self.reply(
                        j,
                        ControllerToDriver::Error {
                            message: e.to_string(),
                        },
                    ),
                }
            }
            DriverMessage::FailWorker { worker } => {
                // Driver-simulated failures are the paper's fault-recovery
                // experiments: they recover immediately, without waiting for
                // a rejoin that will never come — every job with state on
                // the worker, independently.
                self.fail_worker(j, worker);
            }
            DriverMessage::Shutdown => {
                // The whole cluster goes down: every session is terminated.
                for i in 0..self.jobs.len() {
                    if !self.jobs[i].done {
                        self.reply(i, ControllerToDriver::JobTerminated);
                    }
                }
                self.shutdown_workers();
            }
        }
    }

    /// Evicts `worker` and recovers every affected job. The requesting job
    /// always recovers (with a driver notification); other jobs recover
    /// transport-style — silently, with a controller-side replay.
    fn fail_worker(&mut self, requesting: usize, worker: WorkerId) {
        self.workers.retain(|w| *w != worker);
        self.note_workers_changed();
        for j in 0..self.jobs.len() {
            let is_requesting = j == requesting;
            if self.jobs[j].done || self.jobs[j].recovering() {
                continue;
            }
            if !is_requesting && !self.job_uses_worker(j, worker) {
                continue;
            }
            if !is_requesting {
                let interrupted = std::mem::replace(&mut self.jobs[j].sync, PendingSync::None);
                self.jobs[j].resume_after_recovery = Self::resumable(interrupted);
            }
            if let Err(e) = self.begin_recovery(j, is_requesting, Vec::new()) {
                self.jobs[j].resume_after_recovery = PendingSync::None;
                self.reply(
                    j,
                    ControllerToDriver::Error {
                        message: e.to_string(),
                    },
                );
            }
        }
    }

    fn submit_task(&mut self, j: usize, spec: TaskSpec) -> ControllerResult<()> {
        let job = &mut self.jobs[j];
        let expanded = expand_task(
            &spec,
            &self.workers,
            &mut job.dm,
            &mut job.bk,
            &job.ids,
            &mut job.lineage,
        )?;
        job.tm.record_task(&spec, &expanded);
        self.stats.tasks_scheduled_directly += 1;
        self.stats.copies_inserted += expanded
            .commands
            .iter()
            .filter(|c| c.command.kind.is_network_copy())
            .count() as u64
            / 2;
        self.dispatch(j, expanded.commands)
    }

    fn finish_template(&mut self, j: usize, name: &str) -> ControllerResult<()> {
        let job = &mut self.jobs[j];
        let job_id = job.id;
        let (_ct, _group, installs) = job.tm.finish_recording(name, &job.dm, &job.ids)?;
        self.stats.controller_templates_installed += 1;
        self.stats.worker_template_groups_generated += 1;
        self.stats.worker_templates_installed += installs.len() as u64;
        for (worker, template) in installs {
            self.send_worker(
                worker,
                ControllerToWorker::InstallTemplate {
                    job: job_id,
                    template,
                },
            )?;
        }
        Ok(())
    }

    fn instantiate_block(
        &mut self,
        j: usize,
        name: &str,
        params: &InstantiationParams,
    ) -> ControllerResult<()> {
        let job = &mut self.jobs[j];
        let job_id = job.id;
        let ct = job
            .tm
            .registry
            .controller_template_by_name(name)
            .ok_or_else(|| ControllerError::UnknownBlock(name.to_string()))?;
        let ct_id = ct.id;
        let task_count = ct.task_count();
        self.stats.controller_template_instantiations += 1;
        job.instantiations_since_checkpoint += 1;

        let group = job
            .tm
            .registry
            .find_group_for_sorted_workers(ct_id, &self.workers_sorted)
            .map(|g| g.id);

        match group {
            Some(group_id) if job.enable_templates => {
                let plan = job.tm.plan_instantiation(
                    group_id,
                    params,
                    &mut job.dm,
                    &mut job.bk,
                    &job.ids,
                )?;
                if plan.auto_validated {
                    self.stats.auto_validations += 1;
                } else {
                    self.stats.full_validations += 1;
                }
                if plan.patched {
                    self.stats.patches_applied += 1;
                    if plan.patch_cache_hit {
                        self.stats.patch_cache_hits += 1;
                    } else {
                        self.stats.patch_cache_misses += 1;
                    }
                }
                let edit_count: usize = plan.per_worker.iter().map(|(_, i)| i.edits.len()).sum();
                self.stats.edits_applied += edit_count as u64;
                self.stats.worker_template_instantiations += plan.per_worker.len() as u64;
                self.stats.tasks_from_templates += plan.task_count;
                let expected = plan.expected_commands;
                let patches = plan.patch_commands;
                let per_worker = plan.per_worker;
                if !patches.is_empty() {
                    self.dispatch(j, patches)?;
                }
                // Counted unconditionally (not per send): a send to a worker
                // that just died must not fail the instantiation — the
                // transport's disconnect notice follows and recovery resets
                // `outstanding` and the data state wholesale.
                self.jobs[j].outstanding += expected;
                for (worker, instantiation) in per_worker {
                    // Queued behind any patch commands corked for the same
                    // worker, so the whole instantiation leaves as one
                    // batched send per worker.
                    self.queue_worker(
                        j,
                        worker,
                        ControllerToWorker::InstantiateTemplate {
                            job: job_id,
                            inst: instantiation,
                        },
                        0,
                    );
                }
            }
            _ => {
                // No worker templates match the current allocation (or
                // templates are disabled): schedule the block task by task,
                // recording a fresh group if templates are enabled.
                let task_base = job.ids.tasks.next_block(task_count as u64);
                let task_ids: Vec<TaskId> = (0..task_count as u64)
                    .map(|i| TaskId(task_base + i))
                    .collect();
                let ct = job
                    .tm
                    .registry
                    .controller_template_by_name(name)
                    .ok_or_else(|| ControllerError::UnknownBlock(name.to_string()))?;
                let specs = ct.instantiate(&task_ids, params)?;
                let record = job.enable_templates && !job.tm.is_recording();
                if record {
                    job.tm.start_recording(name)?;
                }
                for spec in &specs {
                    // Placement hints from the old assignment may point at
                    // evicted workers; expansion falls back to the current
                    // allocation automatically.
                    let job = &mut self.jobs[j];
                    let expanded = expand_task(
                        spec,
                        &self.workers,
                        &mut job.dm,
                        &mut job.bk,
                        &job.ids,
                        &mut job.lineage,
                    )?;
                    job.tm.record_task(spec, &expanded);
                    self.stats.tasks_scheduled_directly += 1;
                    self.dispatch(j, expanded.commands)?;
                }
                if record {
                    self.finish_template(j, name)?;
                }
            }
        }

        let job = &mut self.jobs[j];
        if let Some(every) = job.checkpoint_every {
            if !job.replaying
                && job.instantiations_since_checkpoint >= every
                && matches!(job.sync, PendingSync::None)
            {
                let marker = job.instantiations_since_checkpoint;
                job.instantiations_since_checkpoint = 0;
                // Drains the just-dispatched instantiation first, then saves.
                self.set_or_queue_sync(
                    j,
                    PendingSync::CheckpointDrain {
                        marker,
                        notify: false,
                    },
                );
            }
        }
        Ok(())
    }

    fn change_allocation(&mut self, new_workers: Vec<WorkerId>) -> ControllerResult<()> {
        if new_workers.is_empty() {
            return Err(ControllerError::NoWorkers);
        }
        let evicted: Vec<WorkerId> = self
            .workers
            .iter()
            .copied()
            .filter(|w| !new_workers.contains(w))
            .collect();
        for w in &new_workers {
            if !self.all_workers.contains(w) {
                self.all_workers.push(*w);
            }
        }
        // Drain evicted workers, per job: move the latest copy of every
        // partition a job exclusively holds there onto a surviving worker,
        // then forget the job's instances on it. A job that is mid-recovery
        // is left alone: its data manager and outstanding count are about
        // to be wholesale-restored by `complete_recovery`, which itself
        // drops instances on workers no longer in the allocation and
        // re-homes their checkpointed partitions — draining it here would
        // corrupt exactly the state the restore is built on.
        for w in &evicted {
            for j in 0..self.jobs.len() {
                if self.jobs[j].done || self.jobs[j].recovering() {
                    continue;
                }
                let job = &mut self.jobs[j];
                let partitions: Vec<LogicalPartition> = job
                    .dm
                    .instances
                    .on_worker(*w)
                    .iter()
                    .map(|i| i.logical)
                    .collect();
                let mut commands = Vec::new();
                for lp in partitions {
                    let holders = job.dm.instances.latest_holders(lp, &job.dm.versions);
                    let only_here = holders.iter().all(|h| h.worker == *w) && !holders.is_empty();
                    if only_here {
                        // Re-home deterministically among the new allocation.
                        let idx = (lp.partition.raw() as usize) % new_workers.len();
                        let target = new_workers[idx];
                        job.dm.set_home(lp, target);
                        refresh_instance(
                            lp,
                            target,
                            &mut job.dm,
                            &mut job.bk,
                            &job.ids,
                            &mut commands,
                        )?;
                    }
                }
                self.dispatch(j, commands)?;
                self.jobs[j].dm.drop_worker(*w);
            }
        }
        self.workers = new_workers;
        self.note_workers_changed();
        Ok(())
    }

    /// Maps an interrupted driver synchronization to the state that restarts
    /// it after recovery: in-flight fetches re-drain (their target worker may
    /// have changed), half-done checkpoints restart from the drain step.
    fn resumable(interrupted: PendingSync) -> PendingSync {
        match interrupted {
            PendingSync::FetchValue(p) | PendingSync::FetchDrain(p) => PendingSync::FetchDrain(p),
            PendingSync::CheckpointSave { marker, notify, .. } => {
                PendingSync::CheckpointDrain { marker, notify }
            }
            other => other,
        }
    }

    /// Records that `worker` will produce no (further) `Halted` reply for
    /// job `j` — because it halted, or because it disconnected — and
    /// completes the recovery once every expected acknowledgement is
    /// accounted for.
    fn note_halted(&mut self, j: usize, worker: WorkerId) {
        if let PendingSync::Recovering { pending_halts, .. } = &mut self.jobs[j].sync {
            pending_halts.retain(|w| *w != worker);
            self.maybe_finish_recovery(j);
        }
    }

    /// Completes job `j`'s recovery once every halt is acknowledged *and*
    /// every awaited worker has resolved — registered again or had its
    /// grace deadline pass.
    fn maybe_finish_recovery(&mut self, j: usize) {
        if nimbus_core::debug_recovery() {
            if let PendingSync::Recovering {
                pending_halts,
                awaiting_rejoin,
                ..
            } = &self.jobs[j].sync
            {
                eprintln!(
                    "[maybe_finish] job={} halts={:?} awaiting={:?}",
                    self.jobs[j].id, pending_halts, awaiting_rejoin
                );
            }
        }
        if let PendingSync::Recovering {
            marker,
            pending_halts,
            notify,
            awaiting_rejoin,
            rejoined,
        } = &self.jobs[j].sync
        {
            if pending_halts.is_empty() && awaiting_rejoin.is_empty() {
                let (marker, notify, rejoined) = (*marker, *notify, rejoined.clone());
                self.jobs[j].sync = PendingSync::None;
                self.complete_recovery(j, marker, notify, &rejoined);
            }
        }
    }

    /// Starts recovery for job `j`. The failed worker(s) have already been
    /// evicted from the shared allocation by the caller; `awaiting_rejoin`
    /// lists those this recovery should hold open for.
    fn begin_recovery(
        &mut self,
        j: usize,
        notify: bool,
        awaiting_rejoin: Vec<WorkerId>,
    ) -> ControllerResult<()> {
        self.stats.failures_handled += 1;
        let job = &mut self.jobs[j];
        let marker = job
            .checkpoints
            .latest()
            .map(|c| c.progress_marker)
            .ok_or(ControllerError::NoCheckpoint)?;
        // A failure that lands while a basic block is being recorded leaves
        // the log without the surrounding recording traffic; replaying it
        // later would desynchronize the driver's view. Skip replay then.
        if job.tm.is_recording() {
            job.replay_valid = false;
        }
        let job_id = job.id;
        // Without a rejoin wait the job cannot continue workerless; with one
        // it may ride out the window even if the failed worker was the last.
        if self.workers.is_empty() && awaiting_rejoin.is_empty() {
            return Err(ControllerError::NoWorkers);
        }
        // Halt every surviving worker — for this job only: they terminate
        // its ongoing commands and flush its queue (Section 4.4) while other
        // jobs' runtimes keep executing. A survivor whose Halt cannot be
        // sent is dying too — its own disconnect notice will evict it; it
        // must not be waited on for an acknowledgement that cannot come.
        let mut pending_halts = Vec::new();
        for i in 0..self.workers.len() {
            let w = self.workers[i];
            if self
                .send_worker(w, ControllerToWorker::Halt { job: job_id })
                .is_ok()
            {
                pending_halts.push(w);
            }
        }
        if nimbus_core::debug_recovery() {
            eprintln!(
                "[begin] job={} marker={} halts={:?} awaiting={:?}",
                job_id, marker, pending_halts, awaiting_rejoin
            );
        }
        self.jobs[j].sync = PendingSync::Recovering {
            marker,
            pending_halts,
            notify,
            awaiting_rejoin,
            rejoined: Vec::new(),
        };
        // With no halts outstanding and no rejoin to wait for (every
        // survivor's Halt send failed), nothing else will drive completion.
        self.maybe_finish_recovery(j);
        Ok(())
    }

    fn complete_recovery(&mut self, j: usize, marker: u64, notify: bool, rejoined: &[WorkerId]) {
        // A rejoin-grace recovery can ride out the window with zero workers
        // (the failed worker was the last one); if the grace expired without
        // a return there is nothing to recover onto — surface a clean error
        // instead of dividing the reload re-homing by zero.
        if self.workers.is_empty() {
            self.jobs[j].resume_after_recovery = PendingSync::None;
            self.jobs[j].replay_valid = false;
            self.reply(
                j,
                ControllerToDriver::Error {
                    message: "every worker disconnected during recovery".to_string(),
                },
            );
            // Held registrations are answered against the workerless state.
            self.drain_held();
            return;
        }
        // Recovery is only begun with a checkpoint on file, but the state
        // machine can't prove that here — propagate instead of panicking so
        // a bookkeeping bug degrades to one failed job, not a dead cluster.
        let Some(descriptor) = self.jobs[j].checkpoints.latest().cloned() else {
            self.jobs[j].resume_after_recovery = PendingSync::None;
            self.jobs[j].replay_valid = false;
            self.reply(
                j,
                ControllerToDriver::Error {
                    message: ControllerError::NoCheckpoint.to_string(),
                },
            );
            self.drain_held();
            return;
        };
        let job = &mut self.jobs[j];
        // Reset execution state to the snapshot.
        job.outstanding = 0;
        job.bk.clear();
        job.dm.versions = descriptor.versions.clone();
        job.dm.instances = descriptor.instances.clone();
        // Forget instances that lived on workers no longer in the allocation.
        let snapshot_workers: Vec<WorkerId> = job
            .dm
            .instances
            .iter()
            .map(|i| i.worker)
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        for w in snapshot_workers {
            if !self.workers.contains(&w) {
                job.dm.drop_worker(w);
            }
        }
        // The snapshot records which version every instance held when the
        // checkpoint was taken, but only one instance per partition is about
        // to be reloaded with that version's contents. All the others hold
        // whatever their worker last put there — later writes on a survivor,
        // factory defaults on a rejoined worker's fresh process — so none of
        // them may be trusted: each is marked stale (version 0, the factory
        // state). The manifest reload below refreshes the ones it reloads,
        // and validation patches the rest before any template reads them or
        // updates them in place. Trusting the checkpointed versions here
        // would make validation skip exactly those patches, and a replayed
        // task would update an object that already contains its write (a
        // second up-to-date copy of a partition, as migrations leave behind)
        // or one that contains factory zeros.
        let snapshot: Vec<nimbus_core::ids::PhysicalObjectId> =
            job.dm.instances.iter().map(|i| i.id).collect();
        for id in snapshot {
            let _ = job.dm.instances.set_version(id, nimbus_core::Version(0));
        }
        // A rejoined worker's store is empty while the restored bookkeeping
        // says its physical instances exist. Recreate every instance resident
        // on it (idempotent on workers that still hold the object) so the
        // reloads, copies, and template entries that follow have real objects
        // to land in.
        let mut commands: Vec<AssignedCommand> = Vec::new();
        for rw in rejoined {
            let resident: Vec<nimbus_core::PhysicalInstance> = job
                .dm
                .instances
                .on_worker(*rw)
                .into_iter()
                .copied()
                .collect();
            for instance in resident {
                let id = job.ids.command();
                let create = Command::new(
                    id,
                    CommandKind::CreateData {
                        object: instance.id,
                        logical: instance.logical,
                    },
                );
                job.bk.note_write(instance.id, id);
                commands.push(AssignedCommand {
                    command: create,
                    worker: *rw,
                });
            }
        }
        // Reload every checkpointed partition into memory, re-homing the ones
        // whose instance disappeared with the failed worker.
        for entry in descriptor.manifest.clone() {
            let target = if self.workers.contains(&entry.worker) {
                entry.worker
            } else {
                let idx = (entry.partition.partition.raw() as usize) % self.workers.len();
                self.workers[idx]
            };
            let instance = crate::expansion::ensure_instance_commands(
                entry.partition,
                target,
                &mut job.dm,
                &mut job.bk,
                &job.ids,
                &mut commands,
            );
            let id = job.ids.command();
            let load = Command::new(
                id,
                CommandKind::LoadData {
                    object: instance.id,
                    key: entry.key.clone(),
                },
            )
            .with_before(job.bk.write_deps(instance.id));
            job.bk.note_write(instance.id, id);
            commands.push(AssignedCommand {
                command: load,
                worker: target,
            });
            job.dm.record_refresh(entry.partition, instance.id);
        }
        // Templates built for the old allocation will be regenerated lazily
        // (or reused as-is when the failed worker rejoined in place); cached
        // patches may reference lost objects.
        job.tm.last_executed = None;
        job.tm.patch_cache = nimbus_core::PatchCache::new();
        let _ = self.dispatch(j, commands);
        // For transport-detected failures (`notify == false`: the driver is
        // oblivious and keeps the values it already fetched), replay the
        // entries logged since the restored checkpoint so the data state
        // catches back up to the exact pre-failure point — losing them would
        // silently fork history. Replay is controller-local: no driver
        // involvement, and with a rejoined worker no template re-recording
        // either. Driver-initiated `FailWorker` recoveries skip this: the
        // paper's experiment pattern has the driver re-run the lost
        // iterations itself. The log is kept: a second failure before the
        // next checkpoint commit replays the same window.
        if !notify && self.jobs[j].replay_valid && !self.jobs[j].replay_log.is_empty() {
            let log = std::mem::take(&mut self.jobs[j].replay_log);
            self.jobs[j].replaying = true;
            for entry in &log {
                let ok = match entry {
                    ReplayEntry::Instantiate { name, params } => {
                        self.instantiate_block(j, name, params).is_ok()
                    }
                    ReplayEntry::Submit(spec) => self.submit_task(j, spec.clone()).is_ok(),
                    ReplayEntry::SetTemplates(enabled) => {
                        self.jobs[j].enable_templates = *enabled;
                        true
                    }
                };
                if !ok {
                    // The window can no longer be reconstructed faithfully;
                    // stop (the data state stays at a consistent prefix) and
                    // never trust this log again.
                    self.jobs[j].replay_valid = false;
                    break;
                }
                self.stats.instantiations_replayed += 1;
            }
            self.jobs[j].replaying = false;
            self.jobs[j].replay_log = log;
        } else if notify {
            // Driver-initiated recovery: the driver re-runs the lost
            // iterations itself, so the faithful replay window restarts at
            // the restored checkpoint.
            self.jobs[j].replay_log.clear();
            self.jobs[j].replay_valid = true;
        }
        if notify {
            self.reply(j, ControllerToDriver::RecoveryComplete { marker });
        }
        // Re-arm the driver operation the failure interrupted: it proceeds
        // against the recovered state once the reload and replay commands
        // drain.
        match std::mem::replace(&mut self.jobs[j].resume_after_recovery, PendingSync::None) {
            PendingSync::None => {}
            resume => {
                self.jobs[j].sync = resume;
                if self.jobs[j].outstanding == 0 {
                    self.advance_sync(j);
                }
            }
        }
        if nimbus_core::debug_recovery() {
            eprintln!(
                "[recovered] job={} outstanding={}",
                self.jobs[j].id, self.jobs[j].outstanding
            );
        }
        // Release the registrations recovery held back; they observe the
        // fully recovered (and replayed) state, in arrival order. (Held
        // driver traffic needs no release: it sits in the job's own inbox,
        // which becomes serviceable again the moment recovery ends.)
        self.drain_held();
    }

    // ------------------------------------------------------------------
    // Worker interface
    // ------------------------------------------------------------------

    fn handle_worker(&mut self, msg: WorkerToController) {
        // The one job-table lookup: `None` for a job-agnostic message, and
        // for a job that closed while the message was in flight.
        let j = msg.job().and_then(|job| self.job_index_by_id(job));
        match (msg, j) {
            (
                WorkerToController::CommandsCompleted {
                    commands,
                    compute_micros,
                    ..
                },
                Some(j),
            ) => {
                let n = commands.len() as u64;
                self.jobs[j].outstanding = self.jobs[j].outstanding.saturating_sub(n);
                self.stats.computation_time += std::time::Duration::from_micros(compute_micros);
                if self.jobs[j].outstanding == 0 {
                    self.advance_sync(j);
                }
            }
            (WorkerToController::ValueFetched { value, .. }, Some(j)) => {
                if let PendingSync::FetchValue(partition) = self.jobs[j].sync {
                    self.jobs[j].sync = PendingSync::None;
                    self.reply(j, ControllerToDriver::ValueFetched { partition, value });
                }
            }
            (WorkerToController::Halted { job, worker }, Some(j)) => {
                if nimbus_core::debug_recovery() {
                    eprintln!("[halted] job={job} worker={worker}");
                }
                self.note_halted(j, worker);
            }
            (WorkerToController::Register { worker }, _) => self.handle_register(worker),
            (
                WorkerToController::CommandsCompleted { .. }
                | WorkerToController::ValueFetched { .. }
                | WorkerToController::Halted { .. },
                None,
            )
            | (
                WorkerToController::TemplateInstalled { .. } | WorkerToController::Heartbeat { .. },
                _,
            ) => {}
        }
    }

    // ------------------------------------------------------------------
    // Rejoin handshake (cluster-level; template work fans out per job)
    // ------------------------------------------------------------------

    /// A worker announced itself. Three cases:
    ///
    /// 1. One or more recovering jobs are awaiting it: readmit it in place —
    ///    reinstall each such job's (patched) templates, answer with the
    ///    per-job version maps, and let each recovery reload its checkpoint
    ///    directly onto it. Zero template re-recordings.
    /// 2. It is already allocated: the idempotent startup hello.
    /// 3. It is new to the running cluster (brand-new id, or returning after
    ///    a permanent eviction): admit it elastically — per job, install an
    ///    (empty) member template per group and queue migration edits that
    ///    move its share of tasks over; data follows through the patch copy
    ///    path.
    fn handle_register(&mut self, worker: WorkerId) {
        if nimbus_core::debug_recovery() {
            eprintln!("[register] worker={worker}");
        }
        let awaiting_jobs: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| {
                !job.done
                    && matches!(&job.sync, PendingSync::Recovering { awaiting_rejoin, .. }
                        if awaiting_rejoin.contains(&worker))
            })
            .map(|(i, _)| i)
            .collect();
        if !awaiting_jobs.is_empty() {
            self.rejoin_deadlines.retain(|(w, _)| *w != worker);
            if !self.workers.contains(&worker) {
                self.workers.push(worker);
                self.note_workers_changed();
            }
            if !self.all_workers.contains(&worker) {
                self.all_workers.push(worker);
            }
            self.stats.rejoins_handled += 1;
            for &j in &awaiting_jobs {
                if let PendingSync::Recovering {
                    awaiting_rejoin,
                    rejoined,
                    ..
                } = &mut self.jobs[j].sync
                {
                    awaiting_rejoin.retain(|w| *w != worker);
                    rejoined.push(worker);
                }
                self.reinstall_templates(j, worker);
            }
            self.send_rejoin_ack(worker);
            for &j in &awaiting_jobs {
                self.maybe_finish_recovery(j);
            }
            return;
        }
        if self.workers.contains(&worker) {
            // Startup hello from a worker of the initial allocation (or a
            // duplicate register): acknowledge and move on.
            self.send_rejoin_ack(worker);
            return;
        }
        // Elastic join of a running cluster.
        self.rejoin_deadlines.retain(|(w, _)| *w != worker);
        self.stats.rejoins_handled += 1;
        if !self.all_workers.contains(&worker) {
            self.all_workers.push(worker);
        }
        self.workers.push(worker);
        self.note_workers_changed();
        for j in 0..self.jobs.len() {
            if self.jobs[j].done {
                continue;
            }
            let job_id = self.jobs[j].id;
            let result = {
                let job = &mut self.jobs[j];
                job.tm.admit_worker(worker, &self.workers, &mut job.dm)
            };
            match result {
                Ok((installs, planned)) => {
                    self.stats.edits_applied += planned as u64;
                    for template in installs {
                        self.stats.worker_templates_installed += 1;
                        let _ = self.send_worker(
                            worker,
                            ControllerToWorker::InstallTemplate {
                                job: job_id,
                                template,
                            },
                        );
                    }
                }
                Err(_) => {
                    // Admission failed mid-way: `admit_worker` may already
                    // have grown some groups with an (uninstalled) member
                    // and queued migration edits toward it. Retire every
                    // group containing the half-admitted member so nothing
                    // can instantiate against it — this job re-records for
                    // the grown allocation on its next instantiation
                    // instead. No reply goes to its driver — it never asked
                    // for this join, and an unsolicited Error would
                    // desynchronize its request/reply protocol.
                    self.jobs[j].tm.registry.remove_groups_with_worker(worker);
                }
            }
        }
        self.send_rejoin_ack(worker);
    }

    /// Reinstalls, on a worker returning within the rejoin grace window,
    /// every worker template job `j`'s controller-side mirror holds for it —
    /// including all edits applied over the job's lifetime, which is what
    /// makes the reinstall a "patched template" rather than a re-recording.
    fn reinstall_templates(&mut self, j: usize, worker: WorkerId) {
        let job_id = self.jobs[j].id;
        let templates = self.jobs[j].tm.templates_for_worker(worker);
        if nimbus_core::debug_recovery() {
            eprintln!(
                "[reinstall] job={} worker={} templates={:?}",
                job_id,
                worker,
                templates.iter().map(|t| t.id).collect::<Vec<_>>()
            );
        }
        for template in templates {
            self.stats.worker_templates_installed += 1;
            let tid = template.id;
            let sent = self.send_worker(
                worker,
                ControllerToWorker::InstallTemplate {
                    job: job_id,
                    template,
                },
            );
            if nimbus_core::debug_recovery() {
                eprintln!("[reinstall] job={job_id} template={tid} sent={sent:?}");
            }
        }
    }

    /// Completes the handshake: the worker receives every job's current
    /// version map (sorted by job then partition for determinism).
    fn send_rejoin_ack(&mut self, worker: WorkerId) {
        let mut jobs: Vec<JobVersions> = self
            .jobs
            .iter()
            .filter(|job| !job.done)
            .map(|job| {
                let mut versions: Vec<PartitionVersion> = job
                    .dm
                    .versions
                    .iter()
                    .map(|(partition, version)| PartitionVersion {
                        partition,
                        version: version.raw(),
                    })
                    .collect();
                versions.sort_unstable_by_key(|pv| pv.partition);
                JobVersions {
                    job: job.id,
                    versions,
                }
            })
            .collect();
        jobs.sort_unstable_by_key(|jv| jv.job);
        let _ = self.send_worker(worker, ControllerToWorker::RejoinAccepted { jobs });
    }

    // ------------------------------------------------------------------
    // Per-job synchronization
    // ------------------------------------------------------------------

    /// Installs a driver synchronization for job `j`, running it immediately
    /// when the job is idle, or queueing it behind whatever synchronization
    /// is already in flight (at most one can be: the driver is synchronous,
    /// and the only controller-originated one is the auto-checkpoint).
    fn set_or_queue_sync(&mut self, j: usize, new_sync: PendingSync) {
        if matches!(self.jobs[j].sync, PendingSync::None) {
            self.jobs[j].sync = new_sync;
            if self.jobs[j].outstanding == 0 {
                self.advance_sync(j);
            }
        } else {
            self.jobs[j].queued_sync = Some(new_sync);
        }
    }

    /// Advances job `j`'s pending synchronization after its outstanding
    /// commands drained. Returns false when the job was removed (a close
    /// completed); the caller must not touch index `j` afterwards.
    fn advance_sync(&mut self, j: usize) -> bool {
        match std::mem::replace(&mut self.jobs[j].sync, PendingSync::None) {
            PendingSync::None => {}
            PendingSync::Barrier => self.reply(j, ControllerToDriver::BarrierReached),
            PendingSync::FetchDrain(partition) => self.start_fetch(j, partition),
            PendingSync::FetchValue(partition) => {
                // Still waiting for the worker's reply.
                self.jobs[j].sync = PendingSync::FetchValue(partition);
            }
            PendingSync::CheckpointDrain { marker, notify } => {
                self.start_checkpoint(j, marker, notify);
            }
            PendingSync::CheckpointSave {
                marker,
                notify,
                descriptor,
            } => {
                let job = &mut self.jobs[j];
                job.checkpoints.commit(descriptor);
                self.stats.checkpoints_committed += 1;
                // The committed checkpoint is the new replay baseline:
                // entries before it are durable, and the log starts a
                // fresh, faithful window.
                job.replay_log.clear();
                job.replay_valid = true;
                if notify {
                    self.reply(j, ControllerToDriver::CheckpointCommitted { marker });
                }
            }
            PendingSync::Closing => {
                // The job's work has drained: confirm and release it.
                self.reply(j, ControllerToDriver::JobTerminated);
                self.release_job(j);
                return false;
            }
            recovering @ PendingSync::Recovering { .. } => {
                // Still waiting for halt acknowledgements or a rejoin.
                self.jobs[j].sync = recovering;
            }
        }
        // The current synchronization resolved: start the queued one, if any
        // (e.g. the fetch that arrived while an auto-checkpoint was saving).
        if matches!(self.jobs[j].sync, PendingSync::None) {
            if let Some(queued) = self.jobs[j].queued_sync.take() {
                self.jobs[j].sync = queued;
                if self.jobs[j].outstanding == 0 {
                    return self.advance_sync(j);
                }
            }
        }
        true
    }

    fn start_fetch(&mut self, j: usize, partition: LogicalPartition) {
        let job_id = self.jobs[j].id;
        let holder = self.jobs[j].dm.latest_holder(partition, None);
        match holder {
            Some(instance) => {
                if self
                    .send_worker(
                        instance.worker,
                        ControllerToWorker::FetchValue {
                            job: job_id,
                            object: instance.id,
                        },
                    )
                    .is_ok()
                {
                    self.jobs[j].sync = PendingSync::FetchValue(partition);
                } else {
                    self.reply(
                        j,
                        ControllerToDriver::Error {
                            message: format!("worker {} unreachable", instance.worker),
                        },
                    );
                }
            }
            None => self.reply(
                j,
                ControllerToDriver::Error {
                    message: format!("no instance of {partition} exists"),
                },
            ),
        }
    }

    fn start_checkpoint(&mut self, j: usize, marker: u64, notify: bool) {
        let job = &mut self.jobs[j];
        let job_id = job.id;
        let ckpt_id = CheckpointId(job.ids.checkpoints.next_raw());
        let mut manifest = Vec::new();
        let mut commands: Vec<AssignedCommand> = Vec::new();
        for lp in job.dm.known_partitions() {
            let Some(holder) = job.dm.latest_holder(lp, None) else {
                continue;
            };
            let (holder_id, holder_worker) = (holder.id, holder.worker);
            // Vault keys are namespaced by job: two jobs' checkpoints can
            // never collide in the shared vault even though their
            // checkpoint ids and partition names do.
            let key = format!(
                "job{}/ckpt/{}/{}/{}",
                job_id, ckpt_id, lp.object, lp.partition
            );
            let id = job.ids.command();
            let save = Command::new(
                id,
                CommandKind::SaveData {
                    object: holder_id,
                    key: key.clone(),
                },
            )
            .with_before(job.bk.read_deps(holder_id));
            job.bk.note_read(holder_id, id);
            commands.push(AssignedCommand {
                command: save,
                worker: holder_worker,
            });
            manifest.push(CheckpointEntry {
                partition: lp,
                version: job.dm.versions.current(lp),
                worker: holder_worker,
                key,
            });
        }
        let descriptor = CheckpointDescriptor {
            id: ckpt_id,
            versions: job.dm.versions.clone(),
            instances: job.dm.instances.clone(),
            manifest,
            progress_marker: marker,
        };
        let has_commands = !commands.is_empty();
        // Armed BEFORE the dispatch: a save whose send fails outright (its
        // worker just died) must find the pending `CheckpointSave` in place
        // so it can poison it back to the drain step — otherwise the drain
        // would complete without those saves and commit a manifest whose
        // keys were never written.
        self.jobs[j].sync = PendingSync::CheckpointSave {
            marker,
            notify,
            descriptor,
        };
        let _ = self.dispatch(j, commands);
        if !has_commands {
            self.advance_sync(j);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch helpers
    // ------------------------------------------------------------------

    fn dispatch(&mut self, j: usize, commands: Vec<AssignedCommand>) -> ControllerResult<()> {
        if commands.is_empty() {
            return Ok(());
        }
        let job_id = self.jobs[j].id;
        // Group into one message per worker while preserving program order.
        let mut order: Vec<WorkerId> = Vec::new();
        let mut per_worker: std::collections::HashMap<WorkerId, Vec<Command>> =
            std::collections::HashMap::new();
        for ac in commands {
            if !per_worker.contains_key(&ac.worker) {
                order.push(ac.worker);
            }
            per_worker.entry(ac.worker).or_default().push(ac.command);
        }
        for worker in order {
            let batch = per_worker.remove(&worker).unwrap_or_default();
            let count = batch.len() as u64;
            self.queue_worker(
                j,
                worker,
                ControllerToWorker::ExecuteCommands {
                    job: job_id,
                    commands: batch,
                },
                count,
            );
        }
        Ok(())
    }

    /// Queues a hot-path message for `worker` on the cork, optimistically
    /// accounting its `commands` into the owning job's `outstanding`. A
    /// failed flush uncounts them: it means the worker just died, its
    /// transport disconnect notice is (or shortly will be) in the inbox, and
    /// recovery rebuilds this state wholesale; erroring the driver here
    /// would race that notice, and not counting the commands keeps drains
    /// from wedging if recovery is impossible.
    fn queue_worker(&mut self, j: usize, worker: WorkerId, msg: ControllerToWorker, commands: u64) {
        let job = self.jobs[j].id;
        debug_assert_eq!(msg.job(), Some(job), "corked messages are job-scoped");
        let message = Message::ToWorker(msg);
        let size = message.wire_size();
        self.stats.record_message(message.tag().as_str(), size);
        if commands > 0 {
            self.jobs[j].outstanding += commands;
            self.stats.commands_dispatched += commands;
        }
        // An entry about to outgrow one wire frame is flushed first: the
        // batch stays all-or-nothing on the wire, so failure accounting
        // never has to guess how much of a batch was delivered.
        if let Some(entry) = self.outbox.iter().find(|o| o.worker == worker) {
            if entry.bytes + size > CORK_MAX_BYTES {
                self.flush_worker_outbox(worker);
            }
        }
        match self.outbox.iter_mut().find(|o| o.worker == worker) {
            Some(entry) => {
                entry.messages.push(message);
                if commands > 0 {
                    match entry.commands.iter_mut().find(|(id, _)| *id == job) {
                        Some(slot) => slot.1 += commands,
                        None => entry.commands.push((job, commands)),
                    }
                }
                entry.bytes += size;
            }
            None => self.outbox.push(WorkerOutbox {
                worker,
                messages: vec![message],
                commands: if commands > 0 {
                    vec![(job, commands)]
                } else {
                    Vec::new()
                },
                bytes: size,
            }),
        }
    }

    /// Uncounts the per-job commands of a failed flush, so undeliverable
    /// commands never inflate `outstanding` — and poisons any checkpoint
    /// those commands may have been saving.
    fn uncount(&mut self, commands: &[(JobId, u64)]) {
        for (job, n) in commands {
            if let Some(j) = self.jobs.iter().position(|x| x.id == *job) {
                self.jobs[j].outstanding = self.jobs[j].outstanding.saturating_sub(*n);
                self.poison_pending_checkpoint(j);
            }
            self.stats.commands_dispatched = self.stats.commands_dispatched.saturating_sub(*n);
        }
    }

    /// Demotes a pending `CheckpointSave` back to its drain step. Called
    /// whenever some of the job's dispatched commands are known to be
    /// undeliverable (a send or flush to a dying worker failed): those
    /// commands may have been this checkpoint's `SaveData`s, and committing
    /// would record manifest keys that were never written — a recovery
    /// restoring that checkpoint would then load half a snapshot and fork
    /// the data state. The re-drain runs once the cluster settles; if the
    /// failed sends were to a dead worker, its disconnect notice interrupts
    /// the drain and recovery restarts it against the recovered allocation
    /// (`resumable` maps the drain through unchanged).
    fn poison_pending_checkpoint(&mut self, j: usize) {
        if let PendingSync::CheckpointSave { marker, notify, .. } = &self.jobs[j].sync {
            let (marker, notify) = (*marker, *notify);
            self.jobs[j].sync = PendingSync::CheckpointDrain { marker, notify };
        }
    }

    /// Flushes every corked per-worker buffer: one batched send — at most
    /// one `write(2)` on TCP — per worker. A failed flush means the worker
    /// died mid-batch; its optimistically counted commands are uncounted
    /// per job, and the transport's disconnect notice drives recovery as
    /// usual.
    fn flush_outbox(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let outbox = std::mem::take(&mut self.outbox);
        for entry in outbox {
            if self
                .endpoint
                .send_many(NodeId::Worker(entry.worker), entry.messages)
                .is_err()
            {
                self.uncount(&entry.commands);
            }
        }
    }

    /// Flushes the corked buffer of one worker (if any). Every direct send
    /// goes through this first, so a directly sent message can never
    /// overtake commands corked for the same worker.
    fn flush_worker_outbox(&mut self, worker: WorkerId) {
        let Some(index) = self.outbox.iter().position(|o| o.worker == worker) else {
            return;
        };
        let entry = self.outbox.remove(index);
        if self
            .endpoint
            .send_many(NodeId::Worker(entry.worker), entry.messages)
            .is_err()
        {
            self.uncount(&entry.commands);
        }
    }

    fn send_worker(&mut self, worker: WorkerId, msg: ControllerToWorker) -> ControllerResult<()> {
        self.flush_worker_outbox(worker);
        let message = Message::ToWorker(msg);
        self.stats
            .record_message(message.tag().as_str(), message.wire_size());
        self.endpoint
            .send(NodeId::Worker(worker), message)
            .map_err(|e| ControllerError::Net(e.to_string()))
    }

    fn reply(&mut self, j: usize, msg: ControllerToDriver) {
        let driver = self.jobs[j].driver;
        let message = Message::ToDriver(msg);
        self.stats
            .record_message(message.tag().as_str(), message.wire_size());
        let _ = self.endpoint.send(driver, message);
    }
}
