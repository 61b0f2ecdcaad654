//! The worker event loop.
//!
//! A worker serves many concurrent jobs: it keeps one isolated runtime —
//! command queue, data store, template cache — **per job**, so two jobs'
//! physical object identifiers, command identifiers, and transfer
//! identifiers can never collide even though each controller-side job issues
//! them from its own counters. Control messages and data transfers arrive
//! tagged with their [`JobId`] and are routed to the owning runtime; ready
//! commands are executed round-robin across jobs so one busy job cannot
//! starve another on a shared worker.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nimbus_core::appdata::AppData;
use nimbus_core::clock::Clock;
use nimbus_core::ids::{CommandId, JobId, WorkerId};
use nimbus_core::template::cache::WorkerTemplateCache;
use nimbus_core::{Command, CommandKind};
use nimbus_net::{
    ControllerToWorker, DataPayload, DataTransfer, Envelope, Message, NodeId, TransportEndpoint,
    TransportEvent, WorkerToController,
};

use crate::data_store::{DataFactoryRegistry, DataStore};
use crate::error::{WorkerError, WorkerResult};
use crate::executor::{Executor, FunctionRegistry};
use crate::queue::CommandQueue;
use crate::stats::WorkerStats;
use crate::vault::ObjectVault;

/// Static configuration of a worker.
pub struct WorkerConfig {
    /// This worker's identifier.
    pub id: WorkerId,
    /// Registered application functions.
    pub functions: Arc<FunctionRegistry>,
    /// Registered dataset factories (initial partition contents).
    pub factories: Arc<DataFactoryRegistry>,
    /// Shared durable-storage emulation for file commands and checkpoints.
    pub vault: Arc<ObjectVault>,
    /// Optional artificial per-task duration (spin wait), matching how the
    /// paper equalizes task durations across frameworks.
    pub spin_wait: Option<Duration>,
    /// Abrupt-death switch for fault-injection tests: when it flips to true
    /// the worker stops immediately — no final completion flush, no goodbye
    /// to the controller — emulating a killed process in thread-based
    /// clusters (the dropped endpoint is what the controller observes).
    pub kill_switch: Option<Arc<AtomicBool>>,
    /// Where the worker reads "now" from when timing tasks. Real by
    /// default; the simulation harness shares its virtual clock here.
    pub clock: Clock,
}

impl WorkerConfig {
    /// Creates a configuration with default batching and no spin wait.
    pub fn new(
        id: WorkerId,
        functions: Arc<FunctionRegistry>,
        factories: Arc<DataFactoryRegistry>,
        vault: Arc<ObjectVault>,
    ) -> Self {
        Self {
            id,
            functions,
            factories,
            vault,
            spin_wait: None,
            kill_switch: None,
            clock: Clock::Real,
        }
    }
}

/// Upper bound on retained drop tombstones (see `Worker::dropped_jobs`).
const MAX_TOMBSTONES: usize = 65_536;

/// How many completions a job accumulates before the worker reports them to
/// the controller in one `CommandsCompleted` (an idle worker flushes sooner).
const COMPLETION_BATCH: usize = 64;

/// One job's isolated execution state on a worker. Everything a command can
/// touch lives here, so jobs sharing the worker cannot observe each other.
struct JobRuntime {
    job: JobId,
    store: DataStore,
    queue: CommandQueue,
    templates: WorkerTemplateCache,
    completed: Vec<CommandId>,
    compute_micros: u64,
}

impl JobRuntime {
    fn new(job: JobId) -> Self {
        Self {
            job,
            store: DataStore::new(),
            queue: CommandQueue::new(),
            templates: WorkerTemplateCache::new(),
            completed: Vec::new(),
            compute_micros: 0,
        }
    }
}

/// A Nimbus worker node, connected to the cluster by any transport (an
/// in-process [`nimbus_net::Endpoint`] or a TCP endpoint).
pub struct Worker {
    id: WorkerId,
    endpoint: Box<dyn TransportEndpoint>,
    /// Per-job runtimes, in admission order. Jobs are few per worker, so a
    /// linear scan beats a hash map on the hot path.
    jobs: Vec<JobRuntime>,
    /// Jobs whose `DropJob` already arrived. Tombstones keep a straggler —
    /// an in-flight data transfer or a stale redelivered batch racing the
    /// drop — from silently resurrecting an empty runtime that nothing
    /// would ever release again. Bounded: past [`MAX_TOMBSTONES`] the
    /// oldest (lowest, since the controller issues job ids monotonically)
    /// are evicted — stragglers arrive within moments of the drop, so an
    /// ancient tombstone protects nothing.
    dropped_jobs: std::collections::BTreeSet<JobId>,
    /// Round-robin cursor over `jobs` for ready-command execution.
    rr: usize,
    executor: Executor,
    factories: Arc<DataFactoryRegistry>,
    vault: Arc<ObjectVault>,
    stats: WorkerStats,
    /// Data transfers the current burst of commands produced, per peer in
    /// send order. They leave together — one `send_many`, on TCP one
    /// `write(2)`, per peer — before a task starts, before completions are
    /// reported, and at the end of the burst, whichever comes first.
    outbound: Vec<(NodeId, Vec<Message>)>,
    running: bool,
    kill_switch: Option<Arc<AtomicBool>>,
    killed: bool,
}

impl Worker {
    /// Creates a worker bound to a transport endpoint.
    pub fn new(config: WorkerConfig, endpoint: impl TransportEndpoint) -> Self {
        let mut executor = Executor::new(config.id, Arc::clone(&config.functions));
        executor.spin_wait = config.spin_wait;
        executor.clock = config.clock;
        Self {
            id: config.id,
            endpoint: Box::new(endpoint),
            jobs: Vec::new(),
            dropped_jobs: std::collections::BTreeSet::new(),
            rr: 0,
            executor,
            factories: config.factories,
            vault: config.vault,
            stats: WorkerStats::new(),
            outbound: Vec::new(),
            running: true,
            kill_switch: config.kill_switch,
            killed: false,
        }
    }

    /// This worker's identifier.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Read-only access to the execution statistics.
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }

    /// Number of jobs with live runtimes on this worker.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The runtime of `job`, created on first contact. Returns `None` for a
    /// job whose `DropJob` already arrived: its messages are stragglers and
    /// must not re-create state.
    fn runtime(&mut self, job: JobId) -> Option<&mut JobRuntime> {
        if self.dropped_jobs.contains(&job) {
            return None;
        }
        let index = self.runtime_index(job).unwrap_or_else(|| {
            self.jobs.push(JobRuntime::new(job));
            self.jobs.len() - 1
        });
        self.jobs.get_mut(index)
    }

    fn runtime_index(&self, job: JobId) -> Option<usize> {
        self.jobs.iter().position(|j| j.job == job)
    }

    /// Runs until a `Shutdown` message arrives. Returns the final statistics.
    ///
    /// The first act of a running worker is to `Register` with the
    /// controller: for workers of the initial allocation this is an
    /// idempotent hello, while a restarted or late-added worker uses it to
    /// open the rejoin handshake (the controller answers with
    /// `RejoinAccepted`, reinstalls the worker's patched templates per job,
    /// and migrates partitions to it through template edits).
    pub fn run(mut self) -> WorkerStats {
        // Not routed through `send_to_controller`: on the in-process fabric
        // a worker thread may start before the controller registers its
        // endpoint, and that benign startup race must not count as a
        // failure. The hello is advisory — the initial allocation works
        // without it.
        let _ = self.endpoint.send(
            NodeId::Controller,
            Message::FromWorker(WorkerToController::Register { worker: self.id }),
        );
        while self.running {
            self.step(Duration::from_millis(5));
        }
        if self.killed {
            // Abrupt death: vanish without a final report, like a killed
            // process would.
            return self.stats;
        }
        // Final flush so the controller sees everything.
        self.flush_all_completions(true);
        self.stats
    }

    /// Processes at most one blocking receive (bounded by `idle_wait`), then
    /// drains any further queued messages and executes runnable commands.
    /// Exposed for deterministic single-threaded tests.
    pub fn step(&mut self, idle_wait: Duration) {
        if let Some(kill) = &self.kill_switch {
            if kill.load(Ordering::Relaxed) {
                self.running = false;
                self.killed = true;
                return;
            }
        }
        if !self.jobs.iter().any(|j| j.queue.ready_len() > 0) {
            match self.endpoint.recv_timeout(idle_wait) {
                Ok(envelope) => self.handle(envelope),
                Err(nimbus_net::NetError::Timeout) => {}
                Err(_) => {
                    self.running = false;
                    return;
                }
            }
        }
        // Drain whatever else arrived without blocking.
        while let Ok(envelope) = self.endpoint.try_recv() {
            self.handle(envelope);
        }
        // Execute a bounded burst of ready commands — rotating across jobs so
        // a shared worker advances every job — then yield back to message
        // processing so data transfers keep flowing.
        let mut executed = 0usize;
        while executed < 64 {
            let Some((job_index, command)) = self.next_ready() else {
                break;
            };
            if command.kind.is_task() {
                // A task may run long; peers must not wait it out for data
                // that is already theirs.
                self.flush_data();
            }
            self.execute(job_index, command);
            executed += 1;
        }
        self.flush_data();
        let idle = self.jobs.iter().all(|j| j.queue.is_idle());
        self.flush_all_completions(idle);
    }

    /// Pops the next runnable command and the job it belongs to, continuing
    /// round-robin over the jobs from where the previous pick left off.
    fn next_ready(&mut self) -> Option<(usize, Command)> {
        let n = self.jobs.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if let Some(command) = self.jobs[i].queue.pop_ready() {
                self.rr = (i + 1) % n;
                return Some((i, command));
            }
        }
        None
    }

    fn handle(&mut self, envelope: Envelope) {
        match envelope.message {
            Message::ToWorker(msg) => self.handle_control(msg),
            Message::Data(transfer) => self.handle_data(transfer),
            Message::Transport(TransportEvent::PeerDisconnected(NodeId::Controller)) => {
                // An orphaned worker cannot make progress; exit instead of
                // lingering as a zombie process.
                self.running = false;
            }
            Message::Transport(TransportEvent::PeerDisconnected(_)) => {
                // A peer worker (or one driver of many) vanished: the
                // controller notices through its own connection and drives
                // recovery; nothing to do locally.
            }
            Message::Transport(TransportEvent::PeerReconnected(_)) => {
                // A peer (or the controller) came back; data transfers to it
                // recover through the supervised transport automatically.
            }
            other => {
                self.stats.record_failure(format!(
                    "unexpected message {:?} at worker {}",
                    other.tag().as_str(),
                    self.id
                ));
            }
        }
    }

    fn handle_control(&mut self, msg: ControllerToWorker) {
        match msg {
            ControllerToWorker::ExecuteCommands { job, commands } => {
                let Some(rt) = self.runtime(job) else { return };
                let ignored = rt.queue.add_commands(commands);
                self.stats.duplicate_commands_ignored += ignored;
            }
            ControllerToWorker::InstallTemplate { job, template } => {
                let id = template.id;
                let Some(rt) = self.runtime(job) else { return };
                rt.templates.install(template);
                self.stats.templates_installed += 1;
                self.send_to_controller(WorkerToController::TemplateInstalled {
                    job,
                    worker: self.id,
                    template: id,
                });
            }
            ControllerToWorker::InstantiateTemplate { job, inst } => {
                let Some(rt) = self.runtime(job) else { return };
                let result: WorkerResult<Vec<Command>> = (|| {
                    let template = rt.templates.get_mut(inst.template)?;
                    if !inst.edits.is_empty() {
                        template.apply_edits(&inst.edits)?;
                    }
                    Ok(template.instantiate(&inst)?)
                })();
                match result {
                    Ok(commands) => {
                        let ignored = rt.queue.add_commands(commands);
                        self.stats.template_instantiations += 1;
                        self.stats.edits_applied += inst.edits.len() as u64;
                        self.stats.duplicate_commands_ignored += ignored;
                    }
                    Err(e) => self.stats.record_failure(format!(
                        "instantiation of template {} failed: {e}",
                        inst.template
                    )),
                }
            }
            ControllerToWorker::FetchValue { job, object } => {
                let Some(rt) = self.runtime(job) else { return };
                let value = rt
                    .store
                    .get(object)
                    .ok()
                    .and_then(extract_scalar)
                    .unwrap_or(f64::NAN);
                self.send_to_controller(WorkerToController::ValueFetched {
                    job,
                    worker: self.id,
                    object,
                    value,
                });
            }
            ControllerToWorker::Halt { job } => {
                // Recovery of ONE job: flush that job's queue and pending
                // completions; every other job on this worker keeps running
                // untouched. A worker that never hosted the job still
                // acknowledges (the controller halts every survivor of the
                // shared allocation and awaits each acknowledgement) but
                // does not create a runtime for it.
                if let Some(i) = self.runtime_index(job) {
                    let rt = &mut self.jobs[i];
                    rt.queue.flush();
                    rt.completed.clear();
                    rt.compute_micros = 0;
                }
                // Recovery may be readmitting a restarted peer: an old
                // outbound connection to its previous incarnation would
                // swallow post-recovery data transfers into a half-open
                // socket. Re-dial worker peers lazily instead.
                self.endpoint.reset_worker_peers();
                self.send_to_controller(WorkerToController::Halted {
                    job,
                    worker: self.id,
                });
            }
            ControllerToWorker::DropJob { job } => {
                // The job ended: release its runtime wholesale (objects,
                // queue, templates) and tombstone the id so in-flight
                // stragglers cannot resurrect it. Unreported completions
                // die with it — the controller has already forgotten the
                // job.
                if let Some(i) = self.runtime_index(job) {
                    self.jobs.remove(i);
                    if self.rr > i {
                        self.rr -= 1;
                    }
                }
                self.dropped_jobs.insert(job);
                while self.dropped_jobs.len() > MAX_TOMBSTONES {
                    self.dropped_jobs.pop_first();
                }
            }
            ControllerToWorker::RejoinAccepted { jobs } => {
                // The handshake reply: the controller admitted this worker
                // and shared its current per-job version maps. The worker
                // keeps no version bookkeeping of its own (the controller
                // owns data placement), so this is acknowledgement plus
                // observability.
                self.stats.rejoin_acks += 1;
                let _ = jobs;
            }
            ControllerToWorker::Shutdown => {
                self.running = false;
            }
        }
    }

    fn handle_data(&mut self, transfer: DataTransfer) {
        self.stats.bytes_received += transfer.payload.size() as u64;
        // A transfer may legitimately precede its job's first control
        // message (the fabric's channels are independent), so an unknown
        // job gets a runtime to buffer into — but a *dropped* job's
        // straggler is discarded.
        if let Some(rt) = self.runtime(transfer.job) {
            rt.queue.data_arrived(transfer.transfer, transfer.payload);
        }
    }

    fn execute(&mut self, job_index: usize, command: Command) {
        let id = command.id;
        if let Err(e) = self.execute_inner(job_index, &command) {
            self.stats.record_failure(format!(
                "worker {}: command {id} ({}) failed: {e}",
                self.id,
                command.kind.tag()
            ));
        }
        self.stats.commands_executed += 1;
        let rt = &mut self.jobs[job_index];
        rt.queue.complete(id);
        rt.completed.push(id);
        if rt.completed.len() >= COMPLETION_BATCH {
            self.flush_completions(job_index, false);
        }
    }

    fn execute_inner(&mut self, job_index: usize, command: &Command) -> WorkerResult<()> {
        let rt = &mut self.jobs[job_index];
        match &command.kind {
            CommandKind::CreateData { object, logical } => {
                if !rt.store.contains(*object) {
                    let data = self.factories.create(*logical)?;
                    rt.store.create(*object, *logical, data);
                }
                self.stats.creates += 1;
                Ok(())
            }
            CommandKind::DestroyData { object } => {
                rt.store.destroy(*object)?;
                Ok(())
            }
            CommandKind::LocalCopy { from, to } => {
                let data = rt.store.clone_data(*from)?;
                if rt.store.contains(*to) {
                    rt.store.replace(*to, data)?;
                } else {
                    let logical = rt.store.logical_of(*from)?;
                    rt.store.create(*to, logical, data);
                }
                self.stats.local_copies += 1;
                Ok(())
            }
            CommandKind::SendCopy {
                from,
                to_worker,
                transfer,
            } => {
                let data = rt.store.clone_data(*from)?;
                let payload = DataPayload::Object(data);
                self.stats.bytes_sent += payload.size() as u64;
                self.stats.sends += 1;
                let message = Message::Data(DataTransfer {
                    job: rt.job,
                    transfer: *transfer,
                    from_worker: self.id,
                    payload,
                });
                let peer = NodeId::Worker(*to_worker);
                match self.outbound.iter_mut().find(|(p, _)| *p == peer) {
                    Some((_, messages)) => messages.push(message),
                    None => self.outbound.push((peer, vec![message])),
                }
                Ok(())
            }
            CommandKind::ReceiveCopy { to, transfer, .. } => {
                let payload = rt
                    .queue
                    .take_payload(*transfer)
                    .ok_or(WorkerError::MissingTransfer(*transfer))?;
                if !rt.store.contains(*to) {
                    // The controller creates objects before copying into them.
                    return Err(WorkerError::UnknownObject(*to));
                }
                match payload {
                    // In-process transfer: the object itself was handed over.
                    DataPayload::Object(data) => rt.store.replace(*to, data)?,
                    // Cross-process transfer: decode the serialized contents
                    // into the already-created destination object, whose
                    // concrete type knows its own wire format.
                    DataPayload::Bytes(bytes) => {
                        rt.store
                            .get_mut(*to)?
                            .decode_wire(bytes.as_slice())
                            .map_err(WorkerError::Net)?;
                    }
                }
                self.stats.receives += 1;
                Ok(())
            }
            CommandKind::LoadData { object, key } => {
                if let Some(data) = self.vault.get(key) {
                    rt.store.replace(*object, data)?;
                } else if let Some(bytes) = self.vault.get_bytes(key) {
                    // Saved by another (possibly dead) process into the
                    // shared file-backed vault: decode the wire bytes into
                    // the already-created destination object, whose concrete
                    // type knows its own format — the same path rejoining
                    // workers use for migrated partitions.
                    rt.store
                        .get_mut(*object)?
                        .decode_wire(&bytes)
                        .map_err(WorkerError::Net)?;
                } else {
                    return Err(WorkerError::Net(format!("missing vault key {key}")));
                }
                self.stats.loads += 1;
                Ok(())
            }
            CommandKind::SaveData { object, key } => {
                let data = rt.store.clone_data(*object)?;
                self.vault.put(key, data);
                self.stats.saves += 1;
                Ok(())
            }
            CommandKind::RunTask { .. } => {
                let elapsed = self.executor.run_task(command, &mut rt.store)?;
                self.stats.tasks_executed += 1;
                self.stats.compute_time += elapsed;
                rt.compute_micros += elapsed.as_micros() as u64;
                Ok(())
            }
        }
    }

    /// Sends the buffered data transfers, one batch per peer.
    fn flush_data(&mut self) {
        for (peer, messages) in std::mem::take(&mut self.outbound) {
            if let Err(e) = self.endpoint.send_many(peer, messages) {
                self.stats
                    .record_failure(format!("worker {}: data to {peer} failed: {e}", self.id));
            }
        }
    }

    fn flush_all_completions(&mut self, force: bool) {
        for i in 0..self.jobs.len() {
            self.flush_completions(i, force);
        }
    }

    fn flush_completions(&mut self, job_index: usize, force: bool) {
        let rt = &mut self.jobs[job_index];
        if rt.completed.is_empty() {
            return;
        }
        if !force && rt.completed.len() < COMPLETION_BATCH {
            return;
        }
        let job = rt.job;
        let commands = std::mem::take(&mut rt.completed);
        let compute_micros = std::mem::take(&mut rt.compute_micros);
        // A send is reported complete only once its data is on the way.
        self.flush_data();
        self.send_to_controller(WorkerToController::CommandsCompleted {
            job,
            worker: self.id,
            commands,
            compute_micros,
        });
    }

    fn send_to_controller(&mut self, msg: WorkerToController) {
        if let Err(e) = self
            .endpoint
            .send(NodeId::Controller, Message::FromWorker(msg))
        {
            self.stats
                .record_failure(format!("send to controller failed: {e}"));
        }
    }
}

/// Extracts a scalar value from a data object for `FetchValue` requests.
/// Delegates to [`AppData::scalar_value`], so any type overriding it (and
/// marked `ScalarReadable` for the driver-side gate) is fetchable.
pub fn extract_scalar(data: &dyn AppData) -> Option<f64> {
    data.scalar_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::appdata::{downcast_ref, Scalar, VecF64};
    use nimbus_core::ids::{
        FunctionId, LogicalObjectId, LogicalPartition, PartitionIndex, PhysicalObjectId, TaskId,
        TemplateId, TransferId,
    };
    use nimbus_core::template::{SkeletonEntry, SkeletonKind, WorkerInstantiation, WorkerTemplate};
    use nimbus_core::TaskParams;
    use nimbus_net::{Endpoint, LatencyModel, Network};

    const JOB: JobId = JobId(1);
    const OTHER_JOB: JobId = JobId(2);

    fn lp(o: u64, p: u32) -> LogicalPartition {
        LogicalPartition::new(LogicalObjectId(o), PartitionIndex(p))
    }

    fn setup() -> (Network, Endpoint, Worker) {
        let net = Network::new(LatencyModel::None);
        let controller = net.register(NodeId::Controller);
        let endpoint = net.register(NodeId::Worker(WorkerId(0)));
        let mut functions = FunctionRegistry::new();
        functions.register(FunctionId(1), "add_one", |ctx| {
            let v = ctx.write::<VecF64>(0)?;
            for x in v.values.iter_mut() {
                *x += 1.0;
            }
            Ok(())
        });
        let mut factories = DataFactoryRegistry::new();
        factories.register(LogicalObjectId(1), Box::new(|_| Box::new(VecF64::zeros(3))));
        factories.register(LogicalObjectId(2), Box::new(|_| Box::new(Scalar::new(0.0))));
        let config = WorkerConfig::new(
            WorkerId(0),
            Arc::new(functions),
            Arc::new(factories),
            Arc::new(ObjectVault::new()),
        );
        let worker = Worker::new(config, endpoint);
        (net, controller, worker)
    }

    fn create_cmd(id: u64, object: u64, dataset: u64, part: u32) -> Command {
        Command::new(
            CommandId(id),
            CommandKind::CreateData {
                object: PhysicalObjectId(object),
                logical: lp(dataset, part),
            },
        )
    }

    fn task_cmd(id: u64, object: u64, before: Vec<u64>) -> Command {
        Command::new(
            CommandId(id),
            CommandKind::RunTask {
                function: FunctionId(1),
                task: TaskId(id),
            },
        )
        .with_writes(vec![PhysicalObjectId(object)])
        .with_before(before.into_iter().map(CommandId).collect())
    }

    fn exec(job: JobId, commands: Vec<Command>) -> Message {
        Message::ToWorker(ControllerToWorker::ExecuteCommands { job, commands })
    }

    fn drive(worker: &mut Worker, steps: usize) {
        for _ in 0..steps {
            worker.step(Duration::from_millis(1));
        }
    }

    fn store_value(worker: &Worker, job: JobId, object: u64) -> Vec<f64> {
        let rt = worker
            .jobs
            .iter()
            .find(|j| j.job == job)
            .expect("job runtime exists");
        downcast_ref::<VecF64>(rt.store.get(PhysicalObjectId(object)).unwrap())
            .unwrap()
            .values
            .clone()
    }

    #[test]
    fn executes_commands_and_reports_completions() {
        let (_net, controller, mut worker) = setup();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![create_cmd(1, 10, 1, 0), task_cmd(2, 10, vec![1])]),
            )
            .unwrap();
        drive(&mut worker, 4);
        assert_eq!(worker.stats().tasks_executed, 1);
        assert_eq!(worker.stats().creates, 1);
        // The controller got a completion report covering both commands,
        // tagged with the owning job.
        let mut completed = Vec::new();
        while let Ok(env) = controller.try_recv() {
            if let Message::FromWorker(WorkerToController::CommandsCompleted {
                job,
                commands,
                ..
            }) = env.message
            {
                assert_eq!(job, JOB);
                completed.extend(commands);
            }
        }
        assert!(completed.contains(&CommandId(1)));
        assert!(completed.contains(&CommandId(2)));
    }

    /// Two jobs using the SAME physical object and command identifiers on
    /// one worker never collide: each job's commands run against its own
    /// store, and each job's completions are reported under its own id.
    #[test]
    fn jobs_are_isolated_on_one_worker() {
        let (_net, controller, mut worker) = setup();
        // Both jobs use object id 10 and command ids 1/2 — deliberately
        // identical — but job B runs the add twice.
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![create_cmd(1, 10, 1, 0), task_cmd(2, 10, vec![1])]),
            )
            .unwrap();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(
                    OTHER_JOB,
                    vec![
                        create_cmd(1, 10, 1, 0),
                        task_cmd(2, 10, vec![1]),
                        task_cmd(3, 10, vec![2]),
                    ],
                ),
            )
            .unwrap();
        drive(&mut worker, 6);
        assert_eq!(worker.job_count(), 2);
        assert_eq!(store_value(&worker, JOB, 10), vec![1.0, 1.0, 1.0]);
        assert_eq!(store_value(&worker, OTHER_JOB, 10), vec![2.0, 2.0, 2.0]);
        // Completions arrive per job; job A's command 2 and job B's command 2
        // are different commands.
        let mut per_job = std::collections::HashMap::new();
        while let Ok(env) = controller.try_recv() {
            if let Message::FromWorker(WorkerToController::CommandsCompleted {
                job,
                commands,
                ..
            }) = env.message
            {
                per_job.entry(job).or_insert_with(Vec::new).extend(commands);
            }
        }
        assert_eq!(per_job.get(&JOB).map(Vec::len), Some(2));
        assert_eq!(per_job.get(&OTHER_JOB).map(Vec::len), Some(3));
    }

    /// Halting one job flushes only that job's queue; the other job's
    /// blocked work survives and completes.
    #[test]
    fn halt_is_scoped_to_one_job() {
        let (_net, controller, mut worker) = setup();
        // Job A: blocked forever on a missing dependency.
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![task_cmd(5, 99, vec![4])]),
            )
            .unwrap();
        // Job B: object created, its add blocked on a command (id 2) that
        // will only arrive after the halt.
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(
                    OTHER_JOB,
                    vec![create_cmd(1, 10, 1, 0), task_cmd(3, 10, vec![1, 2])],
                ),
            )
            .unwrap();
        drive(&mut worker, 2);
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::ToWorker(ControllerToWorker::Halt { job: JOB }),
            )
            .unwrap();
        drive(&mut worker, 2);
        let mut halted_job = None;
        while let Ok(env) = controller.try_recv() {
            if let Message::FromWorker(WorkerToController::Halted { job, .. }) = env.message {
                halted_job = Some(job);
            }
        }
        assert_eq!(halted_job, Some(JOB));
        // Job B's pending command is still there and completes once its
        // remaining dependency (a command on an unrelated object) lands.
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(OTHER_JOB, vec![create_cmd(2, 20, 2, 0)]),
            )
            .unwrap();
        drive(&mut worker, 4);
        assert_eq!(store_value(&worker, OTHER_JOB, 10), vec![1.0, 1.0, 1.0]);
    }

    /// Dropping a job releases its runtime (store, queue, templates) without
    /// touching other jobs.
    #[test]
    fn drop_job_releases_runtime() {
        let (_net, controller, mut worker) = setup();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![create_cmd(1, 10, 1, 0)]),
            )
            .unwrap();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(OTHER_JOB, vec![create_cmd(1, 10, 1, 0)]),
            )
            .unwrap();
        drive(&mut worker, 4);
        assert_eq!(worker.job_count(), 2);
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::ToWorker(ControllerToWorker::DropJob { job: JOB }),
            )
            .unwrap();
        drive(&mut worker, 2);
        assert_eq!(worker.job_count(), 1);
        assert_eq!(store_value(&worker, OTHER_JOB, 10), vec![0.0, 0.0, 0.0]);
    }

    /// A dropped job is tombstoned: stragglers racing the `DropJob` — a
    /// late data transfer, a stale redelivered batch — are discarded
    /// instead of resurrecting an empty runtime nothing would ever release.
    #[test]
    fn dropped_job_stragglers_do_not_resurrect_the_runtime() {
        let (net, controller, mut worker) = setup();
        let peer = net.register(NodeId::Worker(WorkerId(1)));
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![create_cmd(1, 10, 1, 0)]),
            )
            .unwrap();
        drive(&mut worker, 3);
        assert_eq!(worker.job_count(), 1);
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::ToWorker(ControllerToWorker::DropJob { job: JOB }),
            )
            .unwrap();
        drive(&mut worker, 2);
        assert_eq!(worker.job_count(), 0);
        // Stragglers: a data transfer and a redelivered batch for the
        // dropped job.
        peer.send(
            NodeId::Worker(WorkerId(0)),
            Message::Data(DataTransfer {
                job: JOB,
                transfer: TransferId(9),
                from_worker: WorkerId(1),
                payload: DataPayload::Object(Box::new(VecF64::new(vec![1.0]))),
            }),
        )
        .unwrap();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![create_cmd(2, 11, 1, 1)]),
            )
            .unwrap();
        drive(&mut worker, 3);
        assert_eq!(worker.job_count(), 0, "straggler resurrected the job");
        // A different job still works normally.
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(OTHER_JOB, vec![create_cmd(1, 10, 1, 0)]),
            )
            .unwrap();
        drive(&mut worker, 3);
        assert_eq!(worker.job_count(), 1);
    }

    #[test]
    fn install_and_instantiate_template() {
        let (_net, controller, mut worker) = setup();
        let entries = vec![
            SkeletonEntry::new(SkeletonKind::CreateData {
                object: PhysicalObjectId(10),
                logical: lp(1, 0),
            }),
            SkeletonEntry::new(SkeletonKind::RunTask {
                function: FunctionId(1),
                task_slot: 0,
            })
            .with_writes(vec![PhysicalObjectId(10)])
            .with_before(vec![0])
            .with_param_slot(0),
        ];
        let template =
            WorkerTemplate::new(TemplateId(5), TemplateId(1), WorkerId(0), entries).unwrap();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::ToWorker(ControllerToWorker::InstallTemplate { job: JOB, template }),
            )
            .unwrap();
        drive(&mut worker, 2);
        assert_eq!(worker.stats().templates_installed, 1);

        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::ToWorker(ControllerToWorker::InstantiateTemplate {
                    job: JOB,
                    inst: WorkerInstantiation {
                        template: TemplateId(5),
                        base_command_id: 100,
                        base_transfer_id: 0,
                        task_ids: vec![TaskId(1)],
                        params: vec![TaskParams::empty()],
                        edits: vec![],
                    },
                }),
            )
            .unwrap();
        drive(&mut worker, 4);
        assert_eq!(worker.stats().template_instantiations, 1);
        assert_eq!(worker.stats().tasks_executed, 1);
    }

    /// The sends of one burst leave as one batch per peer, in order, and
    /// ahead of the completion report that covers them.
    #[test]
    fn sends_of_one_burst_leave_as_one_batch_before_completions() {
        let (net, controller, mut worker) = setup();
        let peer = net.register(NodeId::Worker(WorkerId(1)));
        let send = |id: u64, transfer: u64| {
            Command::new(
                CommandId(id),
                CommandKind::SendCopy {
                    from: PhysicalObjectId(10),
                    to_worker: WorkerId(1),
                    transfer: TransferId(transfer),
                },
            )
            .with_before(vec![CommandId(1)])
        };
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(
                    JOB,
                    vec![
                        create_cmd(1, 10, 1, 0),
                        send(2, 70),
                        send(3, 71),
                        send(4, 72),
                    ],
                ),
            )
            .unwrap();
        worker.step(Duration::from_millis(1));
        let transfers: Vec<TransferId> = std::iter::from_fn(|| peer.try_recv().ok())
            .map(|env| match env.message {
                Message::Data(t) => t.transfer,
                other => panic!("unexpected {:?}", other.tag().as_str()),
            })
            .collect();
        assert_eq!(
            transfers,
            vec![TransferId(70), TransferId(71), TransferId(72)]
        );
        assert_eq!(worker.stats().sends, 3);
        // One batched send of three messages (the in-process fabric mirrors
        // the TCP batching counters), then the completion report.
        assert_eq!(net.stats().batched_commands, 3);
        assert_eq!(net.stats().frames_coalesced, 2);
        assert!(controller.try_recv().is_ok(), "completions follow the data");
    }

    #[test]
    fn data_transfer_feeds_receive_command() {
        let (net, controller, mut worker) = setup();
        let peer = net.register(NodeId::Worker(WorkerId(1)));
        // Create the destination object, then receive into it.
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(
                    JOB,
                    vec![
                        create_cmd(1, 10, 1, 0),
                        Command::new(
                            CommandId(2),
                            CommandKind::ReceiveCopy {
                                to: PhysicalObjectId(10),
                                from_worker: WorkerId(1),
                                transfer: TransferId(7),
                            },
                        )
                        .with_before(vec![CommandId(1)]),
                    ],
                ),
            )
            .unwrap();
        drive(&mut worker, 3);
        assert_eq!(worker.stats().receives, 0, "blocked on data");
        // A transfer with the same id but a DIFFERENT job must not satisfy
        // job A's receive.
        peer.send(
            NodeId::Worker(WorkerId(0)),
            Message::Data(DataTransfer {
                job: OTHER_JOB,
                transfer: TransferId(7),
                from_worker: WorkerId(1),
                payload: DataPayload::Object(Box::new(VecF64::new(vec![5.0, 5.0, 5.0]))),
            }),
        )
        .unwrap();
        drive(&mut worker, 3);
        assert_eq!(worker.stats().receives, 0, "foreign job's transfer held");
        peer.send(
            NodeId::Worker(WorkerId(0)),
            Message::Data(DataTransfer {
                job: JOB,
                transfer: TransferId(7),
                from_worker: WorkerId(1),
                payload: DataPayload::Object(Box::new(VecF64::new(vec![9.0, 9.0, 9.0]))),
            }),
        )
        .unwrap();
        drive(&mut worker, 3);
        assert_eq!(worker.stats().receives, 1);
        assert_eq!(store_value(&worker, JOB, 10), vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn fetch_value_returns_scalar() {
        let (_net, controller, mut worker) = setup();
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                exec(JOB, vec![create_cmd(1, 20, 2, 0)]),
            )
            .unwrap();
        drive(&mut worker, 3);
        controller
            .send(
                NodeId::Worker(WorkerId(0)),
                Message::ToWorker(ControllerToWorker::FetchValue {
                    job: JOB,
                    object: PhysicalObjectId(20),
                }),
            )
            .unwrap();
        drive(&mut worker, 2);
        let mut fetched = None;
        while let Ok(env) = controller.try_recv() {
            if let Message::FromWorker(WorkerToController::ValueFetched { job, value, .. }) =
                env.message
            {
                assert_eq!(job, JOB);
                fetched = Some(value);
            }
        }
        assert_eq!(fetched, Some(0.0));
    }

    #[test]
    fn save_and_load_round_trip_through_vault() {
        let (_net, controller, mut worker) = setup();
        let commands = vec![
            create_cmd(1, 10, 1, 0),
            task_cmd(2, 10, vec![1]),
            Command::new(
                CommandId(3),
                CommandKind::SaveData {
                    object: PhysicalObjectId(10),
                    key: "job1/ckpt/10".to_string(),
                },
            )
            .with_before(vec![CommandId(2)]),
            task_cmd(4, 10, vec![3]),
            Command::new(
                CommandId(5),
                CommandKind::LoadData {
                    object: PhysicalObjectId(10),
                    key: "job1/ckpt/10".to_string(),
                },
            )
            .with_before(vec![CommandId(4)]),
        ];
        controller
            .send(NodeId::Worker(WorkerId(0)), exec(JOB, commands))
            .unwrap();
        drive(&mut worker, 6);
        assert_eq!(worker.stats().saves, 1);
        assert_eq!(worker.stats().loads, 1);
        // After load, the value reverts to the checkpointed state (one add_one applied).
        assert_eq!(store_value(&worker, JOB, 10), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn extract_scalar_variants() {
        assert_eq!(extract_scalar(&Scalar::new(2.5)), Some(2.5));
        assert_eq!(extract_scalar(&VecF64::new(vec![7.0, 8.0])), Some(7.0));
        assert_eq!(extract_scalar(&VecF64::new(vec![])), None);
    }
}
