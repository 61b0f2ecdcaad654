//! The centralized Nimbus controller: a multi-tenant control plane.
//!
//! The controller receives the task streams of **many concurrent driver
//! sessions**, transforms each into an execution plan (assigning partitions
//! to workers and inserting copy commands), and dispatches commands to a
//! shared worker pool. It is split in two:
//!
//! * the **shell** (this module, [`Controller`]) owns what is cluster-wide —
//!   the transport loop and its burst drain, the session table and its
//!   round-robin fairness, worker membership (disconnects, `Register`,
//!   rejoin-grace deadlines, allocation changes), and the cork;
//! * one **`Job`** per session (the `job` module) owns every piece of job
//!   state — datasets, versions, templates, replay window, checkpoints, what
//!   the driver is waiting on — and every transition over it. A job sees the
//!   cluster only through the `Shared` context the shell lends it, so jobs
//!   cannot observe each other's data, identifiers, or recoveries.
//!
//! Execution templates sit on top of the per-task path exactly as in the
//! single-job design: basic blocks are recorded as they are scheduled and
//! replayed through one small instantiation message per worker on later
//! executions.
//!
//! Fairness: queued driver messages are serviced **round-robin across
//! jobs**, one message per turn, so one chatty driver flooding pipelined
//! instantiations cannot starve another session's requests.
//!
//! Recovery is per job: a worker death triggers recovery for every job with
//! state on that worker, independently — each such job halts, restores its
//! own checkpoint, and replays its own post-checkpoint window, while jobs
//! without state on the dead worker keep running undisturbed.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use nimbus_core::ids::{JobId, WorkerId};
use nimbus_core::{Clock, ControlPlaneStats};
use nimbus_net::{
    ControllerToDriver, ControllerToWorker, DriverMessage, Envelope, JobVersions, Message,
    NetError, NodeId, TransportEndpoint, TransportEvent, WorkerToController,
};

use crate::assignment::AssignmentPolicy;
use crate::error::{ControllerError, ControllerResult};
use crate::job::{Job, Loss};

/// Upper bound on how many already-queued envelopes (or queued driver
/// messages) one loop turn handles before flushing the cork (see
/// [`Controller::turn`]).
const CORK_BURST: usize = 128;

/// Byte budget of one worker's corked buffer. Kept far below the
/// transport's maximum frame so a flush always fits a single batch frame —
/// which on TCP is written all-or-nothing, making the failed-flush
/// uncounting in [`Shared::deliver`] exact (a partial delivery would
/// otherwise double-count completions against a job's outstanding count).
const CORK_MAX_BYTES: usize = 8 << 20;

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

/// Messages corked for one worker between flushes, plus how many commands
/// of each job's outstanding count they account for (so a failed flush can
/// uncount them per job).
struct WorkerOutbox {
    worker: WorkerId,
    messages: Vec<Message>,
    commands: Vec<(JobId, u64)>,
    /// Estimated wire bytes corked, to keep a flush within one frame.
    bytes: usize,
}

/// What the jobs share, lent to every [`Job`] transition: the current worker
/// allocation, the statistics, and the cork. The endpoint is private to this
/// module, so nothing a job does can reach the fabric except through
/// [`queue`](Shared::queue), [`send`](Shared::send) and
/// [`reply`](Shared::reply).
pub(crate) struct Shared {
    endpoint: Box<dyn TransportEndpoint>,
    workers: Vec<WorkerId>,
    /// `workers`, kept sorted and deduplicated: the steady-state template
    /// lookup key, maintained on every allocation change so instantiation
    /// never materializes (or sorts) a worker list per block.
    workers_sorted: Vec<WorkerId>,
    pub(crate) stats: ControlPlaneStats,
    /// The cork: per-worker message buffers filled by [`Shared::queue`] and
    /// flushed as one batched send per worker — at most one `write(2)` each
    /// on TCP — before the controller blocks for more traffic.
    outbox: Vec<WorkerOutbox>,
    /// Commands a failed flush could not deliver, until their job uncounts
    /// them ([`Job::settle`]).
    undelivered: Vec<(JobId, u64)>,
}

impl Shared {
    pub(crate) fn workers(&self) -> &[WorkerId] {
        &self.workers
    }

    pub(crate) fn workers_sorted(&self) -> &[WorkerId] {
        &self.workers_sorted
    }

    /// Changes the allocation and re-derives its sorted form. Allocation
    /// changes are rare (eviction, rejoin, elastic join), so recomputing the
    /// cache here keeps the per-instantiation path allocation-free.
    fn edit_workers(&mut self, edit: impl FnOnce(&mut Vec<WorkerId>)) {
        edit(&mut self.workers);
        self.workers_sorted.clear();
        self.workers_sorted.extend(self.workers.iter().copied());
        self.workers_sorted.sort_unstable();
        self.workers_sorted.dedup();
    }

    /// Corks a hot-path message of `job` for `worker`; `commands` is how
    /// many of the job's outstanding commands it carries.
    pub(crate) fn queue(
        &mut self,
        job: JobId,
        worker: WorkerId,
        msg: ControllerToWorker,
        commands: u64,
    ) {
        debug_assert_eq!(msg.job(), Some(job), "corked messages are job-scoped");
        let message = Message::ToWorker(msg);
        let size = message.wire_size();
        self.stats.record_message(message.tag().as_str(), size);
        self.stats.commands_dispatched += commands;
        // An entry about to outgrow one wire frame is flushed first: the
        // batch stays all-or-nothing on the wire, so failure accounting
        // never has to guess how much of a batch was delivered.
        let mut index = self.outbox.iter().position(|o| o.worker == worker);
        if let Some(full) = index.filter(|i| self.outbox[*i].bytes + size > CORK_MAX_BYTES) {
            let entry = self.outbox.remove(full);
            self.deliver(entry);
            index = None;
        }
        let index = match index {
            Some(index) => index,
            None => {
                self.outbox.push(WorkerOutbox {
                    worker,
                    messages: Vec::new(),
                    commands: Vec::new(),
                    bytes: 0,
                });
                self.outbox.len() - 1
            }
        };
        let entry = &mut self.outbox[index];
        entry.messages.push(message);
        entry.bytes += size;
        if commands > 0 {
            match entry.commands.iter_mut().find(|(id, _)| *id == job) {
                Some(slot) => slot.1 += commands,
                None => entry.commands.push((job, commands)),
            }
        }
    }

    /// Sends `msg` to `worker` now. The worker's corked buffer is flushed
    /// first, so a directly sent message can never overtake commands corked
    /// for the same worker.
    pub(crate) fn send(
        &mut self,
        worker: WorkerId,
        msg: ControllerToWorker,
    ) -> ControllerResult<()> {
        self.flush_worker(worker);
        let message = Message::ToWorker(msg);
        self.stats
            .record_message(message.tag().as_str(), message.wire_size());
        self.endpoint
            .send(NodeId::Worker(worker), message)
            .map_err(|e| ControllerError::Net(e.to_string()))
    }

    pub(crate) fn reply(&mut self, driver: NodeId, msg: ControllerToDriver) {
        let message = Message::ToDriver(msg);
        self.stats
            .record_message(message.tag().as_str(), message.wire_size());
        let _ = self.endpoint.send(driver, message);
    }

    /// Removes and sums `job`'s share of the commands failed flushes could
    /// not deliver.
    pub(crate) fn take_undelivered(&mut self, job: JobId) -> u64 {
        let mut total = 0;
        self.undelivered.retain(|(id, n)| {
            if *id == job {
                total += n;
            }
            *id != job
        });
        total
    }

    /// One batched send — at most one `write(2)` on TCP — of everything
    /// corked for a worker. A failed flush means the worker died mid-batch:
    /// the commands it carried are handed back for their jobs to uncount,
    /// and the transport's disconnect notice drives recovery as usual.
    fn deliver(&mut self, entry: WorkerOutbox) {
        let to = NodeId::Worker(entry.worker);
        if self.endpoint.send_many(to, entry.messages).is_err() {
            for (job, n) in entry.commands {
                self.stats.commands_dispatched = self.stats.commands_dispatched.saturating_sub(n);
                self.undelivered.push((job, n));
            }
        }
    }

    fn flush_worker(&mut self, worker: WorkerId) {
        if let Some(index) = self.outbox.iter().position(|o| o.worker == worker) {
            let entry = self.outbox.remove(index);
            self.deliver(entry);
        }
    }

    fn flush_all(&mut self) {
        for entry in std::mem::take(&mut self.outbox) {
            self.deliver(entry);
        }
    }
}

/// The centralized controller node. It runs on any [`TransportEndpoint`]
/// (in-process or TCP), held behind a box so the job machines compile once
/// rather than per transport.
pub struct Controller {
    shared: Shared,
    all_workers: Vec<WorkerId>,
    /// The job table: one [`Job`] per open session, in open order.
    /// Sessions are few, so a linear scan beats a hash map on the hot path.
    jobs: Vec<Job>,
    job_ids: nimbus_core::ids::IdGenerator,
    /// The static configuration: the defaults every new job inherits, the
    /// rejoin grace, and the clock rejoin deadlines are read from (virtual
    /// under simulation). Its `workers` stays the initial allocation.
    config: ControllerConfig,
    /// Round-robin cursor over `jobs` for fair servicing of queued driver
    /// messages.
    rr: usize,
    /// Worker registrations that arrived while a recovery was in flight and
    /// no job was awaiting that worker; admitting a worker elastically
    /// mid-recovery would race half-restored state. Re-offered, in arrival
    /// order, as soon as no job is recovering.
    held: VecDeque<Envelope>,
    /// One rejoin deadline per worker currently inside its grace window;
    /// the earliest bounds the blocking receive in the controller loop.
    rejoin_deadlines: Vec<(WorkerId, Instant)>,
    /// True once any session ever opened: a driver disconnect that empties
    /// the job table then shuts the cluster down (the orphaned-cluster
    /// policy inherited from the single-job design).
    had_session: bool,
    running: bool,
}

impl Controller {
    /// Creates a controller bound to a transport endpoint.
    pub fn new(config: ControllerConfig, endpoint: impl TransportEndpoint) -> Self {
        let mut shared = Shared {
            endpoint: Box::new(endpoint),
            workers: Vec::new(),
            workers_sorted: Vec::new(),
            stats: ControlPlaneStats::new(),
            outbox: Vec::new(),
            undelivered: Vec::new(),
        };
        shared.edit_workers(|workers| workers.clone_from(&config.workers));
        let all_workers = config.workers.clone();
        Self {
            shared,
            all_workers,
            jobs: Vec::new(),
            job_ids: nimbus_core::ids::IdGenerator::new(),
            config,
            rr: 0,
            held: VecDeque::new(),
            rejoin_deadlines: Vec::new(),
            had_session: false,
            running: true,
        }
    }

    /// Read-only access to the accumulated control-plane statistics.
    pub fn stats(&self) -> &ControlPlaneStats {
        &self.shared.stats
    }

    /// Runs the controller until the cluster shuts down; returns the
    /// accumulated control-plane statistics.
    pub fn run(mut self) -> ControlPlaneStats {
        while self.turn() {}
        self.flush();
        self.shared.stats
    }

    /// One turn of the controller loop: wait for something to do, do a
    /// burst of it, flush the cork. Returns false once the cluster shut down
    /// or the transport closed.
    pub(crate) fn turn(&mut self) -> bool {
        // Block only when there is neither a parked registration to re-offer
        // nor a serviceable queued driver message.
        if !self.jobs.iter().any(Job::serviceable) {
            let wake = match self.next_held() {
                Some(envelope) => Ok(envelope),
                None => self.block(),
            };
            match wake {
                Ok(envelope) => self.handle(envelope),
                Err(NetError::Timeout) => self.expire_due_deadlines(),
                Err(_) => return false,
            }
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
        // corked messages never outlive the turn that produced them.
        let mut burst = 1usize;
        while self.running && burst < CORK_BURST {
            let next = self.next_held();
            if let Some(envelope) = next.or_else(|| self.shared.endpoint.try_recv().ok()) {
                self.handle(envelope);
            } else if !self.service_one() {
                break;
            }
            burst += 1;
        }
        self.flush();
        self.sweep_done_jobs();
        self.running
    }

    /// Blocks for the next envelope — or, with a worker inside its rejoin
    /// grace window, until the earliest deadline (`Err(Timeout)`).
    fn block(&mut self) -> Result<Envelope, NetError> {
        let Some(deadline) = self.rejoin_deadlines.iter().map(|(_, d)| *d).min() else {
            return self.shared.endpoint.recv();
        };
        let now = self.config.clock.now();
        if now >= deadline {
            return Err(NetError::Timeout);
        }
        self.shared.endpoint.recv_timeout(deadline - now)
    }

    /// Flushes the cork, then has every job uncount what could not be
    /// delivered.
    fn flush(&mut self) {
        self.shared.flush_all();
        if !self.shared.undelivered.is_empty() {
            for job in &mut self.jobs {
                job.settle(&mut self.shared);
            }
            self.shared.undelivered.clear(); // Leftovers belong to swept jobs.
        }
    }

    /// The one door from the shell into a job: the job first uncounts
    /// commands a flush made on another's behalf failed to deliver, and a
    /// job that already ended is inert — `None`, like one that never
    /// existed — until the sweep removes it.
    fn enter(&mut self, j: usize) -> Option<(&mut Job, &mut Shared)> {
        let job = self.jobs.get_mut(j)?;
        job.settle(&mut self.shared);
        if job.done {
            return None;
        }
        Some((job, &mut self.shared))
    }

    /// Enters every live job, in table order.
    fn each_job(&mut self, mut visit: impl FnMut(&mut Job, &mut Shared)) {
        for j in 0..self.jobs.len() {
            if let Some((job, cx)) = self.enter(j) {
                visit(job, cx);
            }
        }
    }

    fn job_index_by_id(&self, id: JobId) -> Option<usize> {
        self.jobs.iter().position(|j| j.id == id && !j.done)
    }

    fn job_index_by_driver(&self, node: NodeId) -> Option<usize> {
        self.jobs.iter().position(|j| j.driver == node && !j.done)
    }

    /// Removes job entries marked done. Called only at the end of a turn,
    /// where no job index is live across the call.
    fn sweep_done_jobs(&mut self) {
        if self.jobs.iter().any(|j| j.done) {
            self.jobs.retain(|j| !j.done);
            self.rr = 0;
        }
    }

    /// Services one queued driver message, rotating round-robin across jobs
    /// so every session makes progress. Returns false when nothing was
    /// serviceable.
    fn service_one(&mut self) -> bool {
        let n = self.jobs.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            let Some(msg) = self.jobs[i].next_request() else {
                continue;
            };
            self.rr = (i + 1) % n;
            let start = self.config.clock.now();
            self.serve(i, msg);
            self.shared.stats.control_plane_time +=
                self.config.clock.now().saturating_duration_since(start);
            return true;
        }
        false
    }

    /// Serves job `j`'s driver request: the three cluster-wide requests
    /// here, everything else in the job.
    fn serve(&mut self, j: usize, msg: DriverMessage) {
        match msg {
            DriverMessage::SetWorkerAllocation { workers } => {
                let result = self.change_allocation(workers);
                if let Some((job, cx)) = self.enter(j) {
                    job.reply_result(cx, result.map(|()| ControllerToDriver::Ack));
                }
            }
            DriverMessage::FailWorker { worker } => {
                let asked_by = self.jobs[j].id;
                self.lose_worker(worker, Loss::Driver { asked_by });
            }
            DriverMessage::Shutdown => {
                // The whole cluster goes down: every session is terminated.
                self.each_job(|job, cx| job.reply(cx, ControllerToDriver::JobTerminated));
                self.shutdown_workers();
            }
            msg => {
                if let Some((job, cx)) = self.enter(j) {
                    job.handle_driver(cx, msg);
                }
            }
        }
    }

    /// Gives up on every worker whose rejoin grace deadline has passed: each
    /// recovering job stops awaiting it.
    fn expire_due_deadlines(&mut self) {
        let now = self.config.clock.now();
        let due: Vec<WorkerId> = self
            .rejoin_deadlines
            .iter()
            .filter(|(_, d)| *d <= now)
            .map(|(w, _)| *w)
            .collect();
        self.rejoin_deadlines.retain(|(_, d)| *d > now);
        self.each_job(|job, cx| job.stop_awaiting(cx, &due));
    }

    /// True for worker registrations that must not be processed against
    /// mid-recovery state: elastic admission while any job is recovering
    /// would race half-restored data. Registrations a recovering job is
    /// awaiting are processed immediately (they complete that recovery).
    fn should_hold(&self, envelope: &Envelope) -> bool {
        let Message::FromWorker(WorkerToController::Register { worker }) = &envelope.message else {
            return false;
        };
        self.jobs.iter().any(Job::recovering) && !self.jobs.iter().any(|j| j.awaits(*worker))
    }

    /// The next parked registration, once no job is recovering — the moment
    /// [`should_hold`](Self::should_hold) stops holding any of them.
    fn next_held(&mut self) -> Option<Envelope> {
        if self.held.is_empty() || self.jobs.iter().any(Job::recovering) {
            return None;
        }
        self.held.pop_front()
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
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Session table
    // ------------------------------------------------------------------

    /// Resolves the sending node to its session (opening one on first
    /// contact), validates the message's job id against it, and either
    /// answers the handshake or queues the request for round-robin service.
    fn accept_driver_message(&mut self, from: NodeId, claimed: JobId, msg: DriverMessage) {
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
                self.jobs.push(Job::new(id, from, &self.config));
                self.had_session = true;
                self.jobs.len() - 1
            }
        };
        let Some((job, cx)) = self.enter(j) else {
            return;
        };
        let expected = job.id;
        if claimed != JobId(0) && claimed != expected {
            job.reply_error(
                cx,
                format!("job {claimed} does not belong to this session (expected {expected})"),
            );
        } else if matches!(msg, DriverMessage::OpenJob) {
            // Handshake: answered inline (it is always the session's first
            // message, so ordering with queued traffic is trivial).
            job.reply(cx, ControllerToDriver::JobAccepted { job: expected });
        } else {
            job.enqueue(msg);
        }
    }

    // ------------------------------------------------------------------
    // Membership: losing workers, and (re)admitting them
    // ------------------------------------------------------------------

    /// Reacts to a transport-reported peer loss.
    fn handle_disconnect(&mut self, peer: NodeId) {
        match peer {
            // A lost worker is an abrupt failure.
            NodeId::Worker(w) => {
                let may_rejoin = self.config.rejoin_grace.is_some();
                self.lose_worker(w, Loss::Transport { may_rejoin });
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
                let Some((job, cx)) = self.job_index_by_driver(node).and_then(|j| self.enter(j))
                else {
                    return;
                };
                job.release(cx);
                if self.jobs.iter().all(|j| j.done) && self.had_session {
                    self.shutdown_workers();
                }
            }
            _ => {}
        }
    }

    /// The one way to lose a worker: evict it from the shared allocation and
    /// let every job react. Recovery is per job — every job with state on
    /// the worker recovers independently; jobs without any keep running
    /// untouched. `loss` says who asked, which is all that differs.
    fn lose_worker(&mut self, w: WorkerId, loss: Loss) {
        if let Loss::Transport { .. } = loss {
            if nimbus_core::debug_recovery() {
                eprintln!(
                    "[disconnect] worker={w} allocated={}",
                    self.shared.workers.contains(&w)
                );
            }
            if !self.shared.workers.contains(&w) {
                return; // Already evicted.
            }
            if let Some(grace) = self.config.rejoin_grace {
                self.rejoin_deadlines
                    .push((w, self.config.clock.now() + grace));
            }
        }
        self.shared
            .edit_workers(|workers| workers.retain(|x| *x != w));
        self.each_job(|job, cx| job.lose_worker(cx, w, loss));
    }

    fn change_allocation(&mut self, new_workers: Vec<WorkerId>) -> ControllerResult<()> {
        if new_workers.is_empty() {
            return Err(ControllerError::NoWorkers);
        }
        // The request is valid and about to be applied. The allocation is
        // shared: every job observes the change (and drains its data off
        // evicted workers), so every job's replay window turns lossy — but
        // a rejected request, above, leaves them all exact.
        for job in &mut self.jobs {
            job.allocation_changed();
        }
        let evicted: Vec<WorkerId> = self
            .shared
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
        for w in &evicted {
            for j in 0..self.jobs.len() {
                if let Some((job, cx)) = self.enter(j) {
                    job.drain_worker(cx, *w, &new_workers)?;
                }
            }
        }
        self.shared.edit_workers(|workers| *workers = new_workers);
        Ok(())
    }

    /// Broadcasts `Shutdown` to every worker ever allocated (failed ones
    /// included — their in-process thread may still be alive; a dead TCP
    /// peer just fails the send) and stops the controller loop.
    fn shutdown_workers(&mut self) {
        // Corked commands first: a Shutdown that overtook them would stop a
        // worker with work still in flight.
        self.flush();
        for w in &self.all_workers {
            let _ = self.shared.endpoint.send(
                NodeId::Worker(*w),
                Message::ToWorker(ControllerToWorker::Shutdown),
            );
        }
        self.running = false;
    }

    // ------------------------------------------------------------------
    // Worker interface
    // ------------------------------------------------------------------

    fn handle_worker(&mut self, msg: WorkerToController) {
        if let WorkerToController::Register { worker } = msg {
            return self.handle_register(worker);
        }
        // The one job-table lookup: `None` for a job-agnostic message, and
        // for a job that closed while the message was in flight.
        let Some((job, cx)) = msg
            .job()
            .and_then(|id| self.job_index_by_id(id))
            .and_then(|j| self.enter(j))
        else {
            return;
        };
        match msg {
            WorkerToController::CommandsCompleted {
                commands,
                compute_micros,
                ..
            } => {
                cx.stats.computation_time += Duration::from_micros(compute_micros);
                job.commands_completed(cx, commands.len() as u64);
            }
            WorkerToController::ValueFetched { value, .. } => job.value_fetched(cx, value),
            WorkerToController::Halted { job: id, worker } => {
                if nimbus_core::debug_recovery() {
                    eprintln!("[halted] job={id} worker={worker}");
                }
                job.halted(cx, worker);
            }
            WorkerToController::Register { .. }
            | WorkerToController::TemplateInstalled { .. }
            | WorkerToController::Heartbeat { .. } => {}
        }
    }

    /// A worker announced itself. Three cases:
    ///
    /// 1. One or more recovering jobs are awaiting it: readmit it in place —
    ///    reinstall each such job's (patched) templates, answer with the
    ///    per-job version maps, and let each recovery reload its checkpoint
    ///    directly onto it. Zero template re-recordings.
    /// 2. It is already allocated: the idempotent startup hello.
    /// 3. It is new to the running cluster (brand-new id, or returning after
    ///    a permanent eviction): admit it elastically, per job.
    fn handle_register(&mut self, worker: WorkerId) {
        if nimbus_core::debug_recovery() {
            eprintln!("[register] worker={worker}");
        }
        let awaited = self.jobs.iter().any(|job| job.awaits(worker));
        if !awaited && self.shared.workers.contains(&worker) {
            // Startup hello from a worker of the initial allocation (or a
            // duplicate register): acknowledge and move on.
            return self.send_rejoin_ack(worker);
        }
        self.rejoin_deadlines.retain(|(w, _)| *w != worker);
        self.shared.stats.rejoins_handled += 1;
        if !self.all_workers.contains(&worker) {
            self.all_workers.push(worker);
        }
        if !self.shared.workers.contains(&worker) {
            self.shared.edit_workers(|workers| workers.push(worker));
        }
        self.each_job(|job, cx| match awaited {
            true => job.readmit(cx, worker),
            false => job.admit_worker(cx, worker),
        });
        self.send_rejoin_ack(worker);
        // Every condition a recovery waits on is re-checked where it
        // changes; jobs that were not awaiting this worker see no change.
        self.each_job(|job, cx| job.maybe_finish_recovery(cx));
    }

    /// Completes the handshake: the worker receives every job's current
    /// version map (sorted by job then partition for determinism).
    fn send_rejoin_ack(&mut self, worker: WorkerId) {
        let mut jobs: Vec<JobVersions> = self
            .jobs
            .iter()
            .filter(|job| !job.done)
            .map(Job::versions)
            .collect();
        jobs.sort_unstable_by_key(|jv| jv.job);
        let _ = self
            .shared
            .send(worker, ControllerToWorker::RejoinAccepted { jobs });
    }
}
