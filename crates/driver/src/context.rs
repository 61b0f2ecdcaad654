//! The driver session: a synchronous, job-scoped handle to the controller.
//!
//! A driver program opens a [`Session`] (the controller assigns it a
//! [`JobId`] through the `OpenJob`/`JobAccepted` handshake), defines
//! datasets, submits stages, and wraps its loop bodies in named basic
//! blocks. The first execution of a block records an execution template;
//! later executions of the same block run the body again locally (to
//! collect fresh parameters and honour data-dependent control flow) but
//! send the controller a single template-instantiation message instead of
//! one message per task.
//!
//! Many sessions can be open against one controller at once — each is its
//! own job, fully namespaced controller- and worker-side.

use std::collections::HashMap;
use std::time::Duration;

use nimbus_core::appdata::AppData;
use nimbus_core::clock::Clock;
use nimbus_core::data::DatasetDef;
use nimbus_core::ids::{
    IdGenerator, JobId, LogicalObjectId, LogicalPartition, PartitionIndex, StageId, TaskId,
    WorkerId,
};
use nimbus_core::task::TaskSpec;
use nimbus_core::template::InstantiationParams;
use nimbus_core::TaskParams;
use nimbus_net::{
    ControllerToDriver, DriverMessage, Message, NodeId, TransportEndpoint, TransportEvent,
};

use crate::dataset::{AsDataset, Dataset, ScalarReadable};
use crate::error::{DriverError, DriverResult};
use crate::stage::{PartitionMapping, StageSpec};

/// A handle to a defined dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetHandle {
    /// The logical object identifier.
    pub id: LogicalObjectId,
    /// The dataset's name.
    pub name: String,
    /// The number of partitions.
    pub partitions: u32,
}

impl DatasetHandle {
    /// The logical partition at `index`.
    pub fn partition(&self, index: u32) -> LogicalPartition {
        LogicalPartition::new(self.id, PartitionIndex(index))
    }
}

/// The stage structure a basic block submitted while it was recorded: the
/// task width of every stage, in submission order. Replays are validated
/// against this before any instantiation message goes out — comparing
/// per-stage widths (not just totals) catches bodies that resubmit the same
/// number of tasks distributed differently, which would silently misalign
/// the per-task parameter binding.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct BlockShape {
    stage_tasks: Vec<u32>,
}

impl BlockShape {
    fn stages(&self) -> usize {
        self.stage_tasks.len()
    }

    fn tasks(&self) -> u64 {
        self.stage_tasks.iter().map(|t| u64::from(*t)).sum()
    }

    /// Describes the first divergence from `other`, for error messages.
    fn divergence(&self, other: &BlockShape) -> String {
        for (i, (a, b)) in self.stage_tasks.iter().zip(&other.stage_tasks).enumerate() {
            if a != b {
                return format!("stage {i} had {a} tasks when recorded, {b} on replay");
            }
        }
        format!(
            "recorded {} stages / {} tasks, replay submitted {} stages / {} tasks",
            self.stages(),
            self.tasks(),
            other.stages(),
            other.tasks()
        )
    }
}

enum BlockMode {
    /// Outside any block: stages are submitted task by task.
    Direct,
    /// Inside the first execution of a block: stages are submitted task by
    /// task while the controller records the template.
    Recording { shape: BlockShape },
    /// Inside a repeat execution: stage submissions only collect parameters;
    /// one instantiation message is sent at block end.
    Replay {
        params: Vec<TaskParams>,
        shape: BlockShape,
    },
}

/// A driver program's session with the controller: one job.
///
/// Open one with [`Session::connect`] (the explicit handshake, which learns
/// the controller-assigned [`JobId`]) or [`Session::new`] (the legacy
/// implicit open, where the controller creates the job on first contact and
/// the session tags its traffic with the `JobId(0)` wildcard). Either way,
/// every dataset, stage, template, checkpoint, and fetch of this session is
/// namespaced by its job — concurrent sessions against one controller are
/// fully isolated from each other.
///
/// The endpoint is type-erased rather than generic so driver programs — the
/// user-facing API surface — keep the same `&mut Session` signature whether
/// the cluster runs in-process or over TCP.
pub struct Session {
    endpoint: Box<dyn TransportEndpoint>,
    /// The controller-assigned job, or `JobId(0)` for an implicit session
    /// (resolved controller-side through the session table).
    job: JobId,
    dataset_ids: IdGenerator,
    task_ids: IdGenerator,
    stage_ids: IdGenerator,
    recorded_blocks: HashMap<String, BlockShape>,
    templates_enabled: bool,
    mode: BlockMode,
    reply_timeout: Duration,
    /// Where reply deadlines are read from. Real for production drivers;
    /// the simulation harness installs its virtual clock so the reply
    /// timeout becomes a scheduler-visible virtual deadline.
    clock: Clock,
    /// Number of controller round trips performed (for tests and metrics).
    pub control_round_trips: u64,
    /// Number of task-submission messages sent (for tests and metrics).
    pub tasks_submitted: u64,
    /// Number of template instantiation messages sent.
    pub instantiations_sent: u64,
}

impl Session {
    /// Creates an implicitly opened session over a registered driver
    /// endpoint (any transport). No handshake is performed: the controller
    /// opens the job on this session's first message, and traffic is tagged
    /// with the `JobId(0)` wildcard. Prefer [`Session::connect`], which
    /// learns the real job id.
    pub fn new(endpoint: impl TransportEndpoint) -> Self {
        Self {
            endpoint: Box::new(endpoint),
            job: JobId(0),
            dataset_ids: IdGenerator::new(),
            task_ids: IdGenerator::new(),
            stage_ids: IdGenerator::new(),
            recorded_blocks: HashMap::new(),
            templates_enabled: true,
            mode: BlockMode::Direct,
            reply_timeout: Duration::from_secs(60),
            clock: Clock::Real,
            control_round_trips: 0,
            tasks_submitted: 0,
            instantiations_sent: 0,
        }
    }

    /// Opens a session: sends `OpenJob` and waits for the controller's
    /// `JobAccepted`, so [`Session::job`] returns the controller-assigned
    /// job id and every subsequent message carries it explicitly.
    pub fn connect(endpoint: impl TransportEndpoint) -> DriverResult<Self> {
        Self::connect_with_clock(endpoint, Clock::Real)
    }

    /// [`Session::connect`] with an explicit clock for reply deadlines.
    /// The simulation harness uses this to put driver timeouts on virtual
    /// time; production code should keep [`Session::connect`].
    pub fn connect_with_clock(
        endpoint: impl TransportEndpoint,
        clock: Clock,
    ) -> DriverResult<Self> {
        let mut session = Self::new(endpoint);
        session.clock = clock;
        session.send(DriverMessage::OpenJob)?;
        match session.wait_reply("open_job")? {
            ControllerToDriver::JobAccepted { job } => {
                session.job = job;
                Ok(session)
            }
            other => Err(DriverError::Controller(format!(
                "unexpected reply to open_job: {}",
                other.tag().as_str()
            ))),
        }
    }

    /// This session's job. `JobId(0)` for an implicit (non-handshake)
    /// session — the controller resolves the wildcard through its session
    /// table.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Ends this session's job: the controller releases the job's state on
    /// itself and on every worker, and confirms. The cluster (and any other
    /// session) keeps running.
    pub fn close(&mut self) -> DriverResult<()> {
        self.send(DriverMessage::CloseJob)?;
        match self.wait_reply("close_job")? {
            ControllerToDriver::JobTerminated => Ok(()),
            other => Err(DriverError::Controller(format!(
                "unexpected reply to close_job: {}",
                other.tag().as_str()
            ))),
        }
    }

    /// Sets the timeout used while waiting for controller replies.
    pub fn set_reply_timeout(&mut self, timeout: Duration) {
        self.reply_timeout = timeout;
    }

    /// Replaces the clock reply deadlines are read from (see
    /// [`Session::connect_with_clock`]).
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Returns whether templates are currently enabled on this session.
    pub fn templates_enabled(&self) -> bool {
        self.templates_enabled
    }

    fn send(&mut self, msg: DriverMessage) -> DriverResult<()> {
        self.endpoint
            .send(NodeId::Controller, Message::Driver { job: self.job, msg })
            .map_err(|e| DriverError::Net(e.to_string()))
    }

    fn wait_reply(&mut self, what: &str) -> DriverResult<ControllerToDriver> {
        self.control_round_trips += 1;
        let deadline = self.clock.now() + self.reply_timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(self.clock.now())
                .ok_or_else(|| DriverError::Timeout(what.to_string()))?;
            let envelope = self
                .endpoint
                .recv_timeout(remaining)
                .map_err(|_| DriverError::Timeout(what.to_string()))?;
            match envelope.message {
                Message::ToDriver(ControllerToDriver::Error { message }) => {
                    return Err(DriverError::Controller(message));
                }
                Message::ToDriver(reply) => return Ok(reply),
                // A dead controller cannot answer: fail fast instead of
                // sitting out the full reply timeout (TCP transport only).
                Message::Transport(TransportEvent::PeerDisconnected(NodeId::Controller)) => {
                    return Err(DriverError::Net(format!(
                        "controller disconnected while waiting for {what}"
                    )));
                }
                _ => continue,
            }
        }
    }

    fn expect_ack(&mut self, what: &str) -> DriverResult<()> {
        match self.wait_reply(what)? {
            ControllerToDriver::Ack
            | ControllerToDriver::TemplateInstalled { .. }
            | ControllerToDriver::BarrierReached
            | ControllerToDriver::CheckpointCommitted { .. }
            | ControllerToDriver::RecoveryComplete { .. } => Ok(()),
            other => Err(DriverError::Controller(format!(
                "unexpected reply to {what}: {}",
                other.tag().as_str()
            ))),
        }
    }

    /// Defines a dataset with `partitions` partitions whose partitions hold
    /// `T`.
    ///
    /// This is the primary definition API: the returned [`Dataset<T>`]
    /// carries the partition type, so scalar fetches of this dataset (and
    /// any typed code built over it) are checked at compile time.
    ///
    /// Note the link to the worker-side factory registered with
    /// `AppSetup::object::<T>` is positional, not checked: dataset ids are
    /// assigned in definition order and must line up with the
    /// `LogicalObjectId`s the factories were registered under. A `T` that
    /// disagrees with the factory's concrete type surfaces at runtime as a
    /// downcast error inside task functions, not here. (Dataset ids are
    /// per-session: two sessions' "dataset 1" are different datasets.)
    pub fn define_dataset<T: AppData>(
        &mut self,
        name: &str,
        partitions: u32,
    ) -> DriverResult<Dataset<T>> {
        let id = LogicalObjectId(self.dataset_ids.next_raw());
        self.send(DriverMessage::DefineDataset(DatasetDef::new(
            id, name, partitions,
        )))?;
        self.expect_ack("define_dataset")?;
        Ok(Dataset::from_handle(DatasetHandle {
            id,
            name: name.to_string(),
            partitions,
        }))
    }

    /// Submits one stage: expands it into one task per partition.
    pub fn submit_stage(&mut self, stage: StageSpec) -> DriverResult<()> {
        let tasks = stage.task_count();
        match &mut self.mode {
            BlockMode::Replay { params, shape } => {
                // Replay: only collect this execution's parameters, in the
                // same task order as the recorded template.
                shape.stage_tasks.push(tasks);
                for p in 0..tasks {
                    params.push(stage.params.for_partition(p));
                }
                Ok(())
            }
            mode => {
                if let BlockMode::Recording { shape } = mode {
                    shape.stage_tasks.push(tasks);
                }
                let stage_id = StageId(self.stage_ids.next_raw());
                for p in 0..tasks {
                    let reads = stage
                        .reads
                        .iter()
                        .map(|a| match a.mapping {
                            PartitionMapping::Same => a.dataset.partition(p),
                            PartitionMapping::Fixed(fp) => LogicalPartition::new(a.dataset.id, fp),
                        })
                        .collect();
                    let writes = stage
                        .writes
                        .iter()
                        .map(|a| match a.mapping {
                            PartitionMapping::Same => a.dataset.partition(p),
                            PartitionMapping::Fixed(fp) => LogicalPartition::new(a.dataset.id, fp),
                        })
                        .collect();
                    let spec = TaskSpec {
                        id: TaskId(self.task_ids.next_raw()),
                        stage: stage_id,
                        function: stage.function,
                        reads,
                        writes,
                        params: stage.params.for_partition(p),
                        preferred_worker: None,
                    };
                    self.tasks_submitted += 1;
                    self.send(DriverMessage::SubmitTask(spec))?;
                }
                Ok(())
            }
        }
    }

    /// Executes a named basic block.
    ///
    /// The first time a block runs (with templates enabled) the body's stages
    /// are submitted normally while the controller records a template; the
    /// block ends by installing the template. Subsequent executions run the
    /// body locally to collect parameters and send a single instantiation
    /// message. With templates disabled the body is submitted normally every
    /// time.
    pub fn block(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Session) -> DriverResult<()>,
    ) -> DriverResult<()> {
        if !matches!(self.mode, BlockMode::Direct) {
            return Err(DriverError::Misuse(format!(
                "block '{name}' started while another block is active"
            )));
        }
        if !self.templates_enabled {
            return body(self);
        }
        if let Some(recorded) = self.recorded_blocks.get(name).cloned() {
            self.mode = BlockMode::Replay {
                params: Vec::new(),
                shape: BlockShape::default(),
            };
            let result = body(self);
            let (params, replayed) = match std::mem::replace(&mut self.mode, BlockMode::Direct) {
                BlockMode::Replay { params, shape } => (params, shape),
                _ => (Vec::new(), BlockShape::default()),
            };
            result?;
            // Replay validation: the body must resubmit exactly the recorded
            // per-stage structure, otherwise the per-task parameter binding
            // sent to the controller would be silently misaligned.
            if replayed != recorded {
                return Err(DriverError::Misuse(format!(
                    "block '{name}' replayed a different shape than it recorded ({}); \
                     a block body must be structurally identical on every execution \
                     (move data-dependent structure outside the block or rename it)",
                    recorded.divergence(&replayed)
                )));
            }
            self.instantiations_sent += 1;
            self.send(DriverMessage::InstantiateTemplate {
                name: name.to_string(),
                params: InstantiationParams::PerTask(params),
            })
        } else {
            self.send(DriverMessage::StartTemplate {
                name: name.to_string(),
            })?;
            self.expect_ack("start_template")?;
            self.mode = BlockMode::Recording {
                shape: BlockShape::default(),
            };
            let result = body(self);
            let shape = match std::mem::replace(&mut self.mode, BlockMode::Direct) {
                BlockMode::Recording { shape } => shape,
                _ => BlockShape::default(),
            };
            if let Err(body_error) = result {
                // The body failed mid-recording: tell the controller to
                // discard the partial template so the name (and future
                // blocks) stay usable. Best effort — the body's error is
                // what the caller needs to see either way.
                let aborted = self
                    .send(DriverMessage::AbortTemplate {
                        name: name.to_string(),
                    })
                    .and_then(|()| self.expect_ack("abort_template"));
                drop(aborted);
                return Err(body_error);
            }
            self.send(DriverMessage::FinishTemplate {
                name: name.to_string(),
            })?;
            self.expect_ack("finish_template")?;
            self.recorded_blocks.insert(name.to_string(), shape);
            Ok(())
        }
    }

    /// Fetches the current scalar value of one partition of a dataset whose
    /// type is known to have a scalar projection. This is the typed
    /// counterpart of [`Session::fetch_scalar`]: fetching a dataset of a
    /// non-[`ScalarReadable`] partition type is a compile error.
    pub fn fetch<T: ScalarReadable>(
        &mut self,
        dataset: &Dataset<T>,
        partition: u32,
    ) -> DriverResult<f64> {
        self.fetch_scalar(dataset, partition)
    }

    /// Fetches the current scalar value of one partition (synchronizes with
    /// all outstanding work first). This is how data-dependent loops read
    /// their convergence criteria.
    pub fn fetch_scalar<D: AsDataset + ?Sized>(
        &mut self,
        dataset: &D,
        partition: u32,
    ) -> DriverResult<f64> {
        let lp = dataset.dataset_partition(partition);
        self.send(DriverMessage::FetchValue { partition: lp })?;
        match self.wait_reply("fetch_value")? {
            ControllerToDriver::ValueFetched { value, .. } => Ok(value),
            other => Err(DriverError::Controller(format!(
                "unexpected reply to fetch: {}",
                other.tag().as_str()
            ))),
        }
    }

    /// Waits until every outstanding command of this job has completed.
    pub fn barrier(&mut self) -> DriverResult<()> {
        self.send(DriverMessage::Barrier)?;
        self.expect_ack("barrier")
    }

    /// Requests a checkpoint tagged with an application progress marker.
    pub fn checkpoint(&mut self, marker: u64) -> DriverResult<()> {
        self.send(DriverMessage::Checkpoint { marker })?;
        self.expect_ack("checkpoint")
    }

    /// Enables or disables execution templates at runtime (Figure 9 starts
    /// with templates disabled and turns them on at iteration 10).
    pub fn enable_templates(&mut self, enabled: bool) -> DriverResult<()> {
        self.templates_enabled = enabled;
        if !enabled {
            self.recorded_blocks.clear();
        }
        self.send(DriverMessage::EnableTemplates(enabled))?;
        self.expect_ack("enable_templates")
    }

    /// Asks the controller to migrate `count` tasks of a block before its
    /// next execution (exercises template edits).
    pub fn migrate_tasks(&mut self, block: &str, count: usize) -> DriverResult<()> {
        self.send(DriverMessage::MigrateTasks {
            name: block.to_string(),
            count,
        })?;
        self.expect_ack("migrate_tasks")
    }

    /// Informs the controller of a new worker allocation (cluster-manager
    /// events in Figure 9). The allocation is shared by every job on the
    /// controller.
    pub fn set_worker_allocation(&mut self, workers: Vec<WorkerId>) -> DriverResult<()> {
        self.send(DriverMessage::SetWorkerAllocation { workers })?;
        self.expect_ack("set_worker_allocation")
    }

    /// Injects an abrupt worker failure and waits for recovery to finish.
    /// Returns the progress marker of the checkpoint execution resumed from.
    pub fn fail_worker(&mut self, worker: WorkerId) -> DriverResult<u64> {
        self.send(DriverMessage::FailWorker { worker })?;
        match self.wait_reply("fail_worker")? {
            ControllerToDriver::RecoveryComplete { marker } => Ok(marker),
            other => Err(DriverError::Controller(format!(
                "unexpected reply to fail_worker: {}",
                other.tag().as_str()
            ))),
        }
    }

    /// Shuts the whole cluster down (every job, every worker) and waits for
    /// the controller to confirm. To end only this session's job, use
    /// [`Session::close`].
    pub fn shutdown(&mut self) -> DriverResult<()> {
        self.send(DriverMessage::Shutdown)?;
        match self.wait_reply("shutdown")? {
            ControllerToDriver::JobTerminated => Ok(()),
            other => Err(DriverError::Controller(format!(
                "unexpected reply to shutdown: {}",
                other.tag().as_str()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::appdata::VecF64;
    use nimbus_core::ids::FunctionId;
    use nimbus_net::{LatencyModel, Network};

    /// Spawns a thread acknowledging every driver request like a controller
    /// would — including the `OpenJob` handshake — so `Session` can be
    /// unit-tested without a cluster.
    fn ack_controller(network: &Network) -> std::thread::JoinHandle<u64> {
        let endpoint = network.register(NodeId::Controller);
        std::thread::spawn(move || {
            let mut replies = 0u64;
            loop {
                let envelope = match endpoint.recv() {
                    Ok(e) => e,
                    Err(_) => return replies,
                };
                let from = envelope.from;
                let reply = match envelope.message {
                    Message::Driver {
                        msg: DriverMessage::Shutdown,
                        ..
                    } => {
                        let _ = endpoint
                            .send(from, Message::ToDriver(ControllerToDriver::JobTerminated));
                        return replies + 1;
                    }
                    Message::Driver {
                        msg: DriverMessage::OpenJob,
                        ..
                    } => Some(ControllerToDriver::JobAccepted { job: JobId(7) }),
                    Message::Driver {
                        msg: DriverMessage::CloseJob,
                        ..
                    } => Some(ControllerToDriver::JobTerminated),
                    Message::Driver {
                        msg: DriverMessage::SubmitTask(_),
                        ..
                    }
                    | Message::Driver {
                        msg: DriverMessage::InstantiateTemplate { .. },
                        ..
                    } => None,
                    Message::Driver { .. } => Some(ControllerToDriver::Ack),
                    _ => None,
                };
                if let Some(reply) = reply {
                    replies += 1;
                    let _ = endpoint.send(from, Message::ToDriver(reply));
                }
            }
        })
    }

    fn two_stage_body(ctx: &mut Session, data: &Dataset<VecF64>, stages: u32) -> DriverResult<()> {
        for s in 0..stages {
            ctx.submit_stage(
                StageSpec::new(format!("s{s}"), FunctionId(1))
                    .write(data)
                    .params(TaskParams::from_scalar(1.0)),
            )?;
        }
        Ok(())
    }

    /// The `OpenJob` handshake assigns the session its job, and subsequent
    /// traffic carries it.
    #[test]
    fn connect_learns_the_assigned_job() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut session = Session::connect(network.register(NodeId::Driver)).unwrap();
        assert_eq!(session.job(), JobId(7));
        session.close().unwrap();
        session.shutdown().unwrap();
        controller.join().unwrap();
    }

    /// The legacy constructor stays an implicit session: job zero, no
    /// handshake round trip.
    #[test]
    fn legacy_context_is_an_implicit_session() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut ctx = Session::new(network.register(NodeId::Driver));
        assert_eq!(ctx.job(), JobId(0));
        ctx.barrier().unwrap();
        ctx.shutdown().unwrap();
        controller.join().unwrap();
    }

    #[test]
    fn replay_with_fewer_stages_is_misuse() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut ctx = Session::connect(network.register(NodeId::Driver)).unwrap();

        let data = ctx.define_dataset::<VecF64>("data", 4).unwrap();
        // Record with two stages (8 tasks).
        ctx.block("b", |ctx| two_stage_body(ctx, &data, 2)).unwrap();
        assert_eq!(ctx.tasks_submitted, 8);
        // Replay with one stage: rejected before any instantiation is sent.
        let err = ctx
            .block("b", |ctx| two_stage_body(ctx, &data, 1))
            .unwrap_err();
        assert!(matches!(err, DriverError::Misuse(_)), "got {err:?}");
        assert_eq!(ctx.instantiations_sent, 0);
        // A correctly-shaped replay still instantiates.
        ctx.block("b", |ctx| two_stage_body(ctx, &data, 2)).unwrap();
        assert_eq!(ctx.instantiations_sent, 1);

        ctx.shutdown().unwrap();
        controller.join().unwrap();
    }

    #[test]
    fn replay_with_different_task_count_is_misuse() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut ctx = Session::new(network.register(NodeId::Driver));

        let data = ctx.define_dataset::<VecF64>("data", 4).unwrap();
        ctx.block("b", |ctx| {
            ctx.submit_stage(StageSpec::new("s", FunctionId(1)).write(&data))
        })
        .unwrap();
        // Same stage count, but a different expansion width (1 task vs 4).
        let err = ctx
            .block("b", |ctx| {
                ctx.submit_stage(
                    StageSpec::new("s", FunctionId(1))
                        .write_partition(&data, 0)
                        .partitions(1),
                )
            })
            .unwrap_err();
        assert!(matches!(err, DriverError::Misuse(_)), "got {err:?}");
        assert_eq!(ctx.instantiations_sent, 0);

        ctx.shutdown().unwrap();
        controller.join().unwrap();
    }

    #[test]
    fn replay_with_same_totals_but_reordered_stages_is_misuse() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut ctx = Session::new(network.register(NodeId::Driver));

        let data = ctx.define_dataset::<VecF64>("data", 4).unwrap();
        // Record: wide stage (4 tasks) then narrow stage (1 task).
        ctx.block("b", |ctx| {
            ctx.submit_stage(StageSpec::new("wide", FunctionId(1)).write(&data))?;
            ctx.submit_stage(
                StageSpec::new("narrow", FunctionId(1))
                    .write_partition(&data, 0)
                    .partitions(1),
            )
        })
        .unwrap();
        // Replay with the stages swapped: same stage count (2) and same task
        // total (5), but the per-stage widths differ — the parameter binding
        // would be misaligned, so this must be rejected.
        let err = ctx
            .block("b", |ctx| {
                ctx.submit_stage(
                    StageSpec::new("narrow", FunctionId(1))
                        .write_partition(&data, 0)
                        .partitions(1),
                )?;
                ctx.submit_stage(StageSpec::new("wide", FunctionId(1)).write(&data))
            })
            .unwrap_err();
        assert!(matches!(err, DriverError::Misuse(_)), "got {err:?}");
        assert!(
            err.to_string().contains("stage 0"),
            "names the stage: {err}"
        );
        assert_eq!(ctx.instantiations_sent, 0);

        ctx.shutdown().unwrap();
        controller.join().unwrap();
    }

    #[test]
    fn failed_recording_sends_abort() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut ctx = Session::new(network.register(NodeId::Driver));

        let data = ctx.define_dataset::<VecF64>("data", 4).unwrap();
        let err = ctx
            .block("b", |ctx| {
                ctx.submit_stage(StageSpec::new("s", FunctionId(1)).write(&data))?;
                Err(DriverError::Misuse("application gave up".to_string()))
            })
            .unwrap_err();
        // The body's own error surfaces, and the block is NOT marked
        // recorded: the next execution records again instead of replaying.
        assert!(err.to_string().contains("application gave up"));
        ctx.block("b", |ctx| {
            ctx.submit_stage(StageSpec::new("s", FunctionId(1)).write(&data))
        })
        .unwrap();
        assert_eq!(ctx.instantiations_sent, 0, "second run re-records");

        ctx.shutdown().unwrap();
        controller.join().unwrap();
    }

    #[test]
    fn nested_blocks_are_misuse() {
        let network = Network::new(LatencyModel::None);
        let controller = ack_controller(&network);
        let mut ctx = Session::new(network.register(NodeId::Driver));

        let err = ctx
            .block("outer", |ctx| ctx.block("inner", |_| Ok(())))
            .unwrap_err();
        assert!(matches!(err, DriverError::Misuse(_)), "got {err:?}");

        ctx.shutdown().unwrap();
        controller.join().unwrap();
    }
}
