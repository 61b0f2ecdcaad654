//! Control-plane and data-plane message types.
//!
//! Messages mirror the three interfaces in Figure 2 of the paper: the driver
//! talks to the controller, the controller talks to workers, and workers talk
//! to each other (data plane) and back to the controller (completion and
//! status reports).
//!
//! Every stream is **job-scoped**: a driver opens a session with
//! [`DriverMessage::OpenJob`], the controller assigns a [`JobId`], and from
//! then on every driver request, every command dispatched to a worker, every
//! completion report, and every data transfer carries that job — one
//! controller and one worker pool serve many mutually isolated jobs at once.

use serde::{Deserialize, Serialize};

use nimbus_core::data::DatasetDef;
use nimbus_core::ids::{
    CommandId, JobId, LogicalPartition, PhysicalObjectId, TemplateId, TransferId, WorkerId,
};
use nimbus_core::task::TaskSpec;
use nimbus_core::template::{InstantiationParams, WorkerInstantiation, WorkerTemplate};
use nimbus_core::Command;

use crate::payload::DataPayload;

/// Identifies a node in the cluster for message addressing.
///
/// The `Ord` impl (variant order, then payload) gives simulation harnesses a
/// stable total order for link keys; nothing semantic depends on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// The primary driver program (the classic single-driver address).
    Driver,
    /// The centralized controller.
    Controller,
    /// A worker node.
    Worker(WorkerId),
    /// An additional driver client: one of many concurrent driver programs
    /// multiplexed onto the same controller, each running its own job.
    Client(u32),
}

impl NodeId {
    /// True for nodes that speak the driver side of the control plane (the
    /// classic [`NodeId::Driver`] or any [`NodeId::Client`] session).
    pub fn is_driver(&self) -> bool {
        matches!(self, NodeId::Driver | NodeId::Client(_))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Driver => write!(f, "driver"),
            NodeId::Controller => write!(f, "controller"),
            NodeId::Worker(w) => write!(f, "worker-{w}"),
            NodeId::Client(c) => write!(f, "client-{c}"),
        }
    }
}

/// Declares the message tags — the protocol's names — exactly once. Every
/// `tag()` below returns a [`Tag`], so a message variant without a tag is a
/// non-exhaustive match (a compile error), and the per-tag counters are an
/// array indexed by `tag as usize` with no table to keep in step.
macro_rules! tags {
    ($($variant:ident => $name:literal,)*) => {
        /// The short name of a message kind, used for statistics, traces
        /// and error text. Requests and replies that share a name across
        /// directions (`fetch_value`, `instantiate_template`, `shutdown`)
        /// share a tag.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Tag {
            $(#[doc = $name] $variant,)*
        }

        impl Tag {
            /// Number of tags.
            pub const COUNT: usize = [$($name,)*].len();

            /// Every tag in declaration order: `ALL[i] as usize == i`.
            pub const ALL: [Tag; Tag::COUNT] = [$(Tag::$variant,)*];

            /// The tag's name, as it appears in statistics and traces.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(Tag::$variant => $name,)*
                }
            }
        }
    };
}

tags! {
    OpenJob => "open_job",
    CloseJob => "close_job",
    DefineDataset => "define_dataset",
    SubmitTask => "submit_task",
    StartTemplate => "start_template",
    FinishTemplate => "finish_template",
    AbortTemplate => "abort_template",
    InstantiateTemplate => "instantiate_template",
    FetchValue => "fetch_value",
    Barrier => "barrier",
    EnableTemplates => "enable_templates",
    Checkpoint => "checkpoint",
    MigrateTasks => "migrate_tasks",
    SetWorkers => "set_workers",
    FailWorker => "fail_worker",
    Shutdown => "shutdown",
    JobAccepted => "job_accepted",
    ValueFetched => "value_fetched",
    BarrierReached => "barrier_reached",
    TemplateInstalled => "template_installed",
    CheckpointCommitted => "checkpoint_committed",
    RecoveryComplete => "recovery_complete",
    Ack => "ack",
    Error => "error",
    JobTerminated => "job_terminated",
    ExecuteCommands => "execute_commands",
    InstallTemplate => "install_template",
    Halt => "halt",
    DropJob => "drop_job",
    RejoinAccepted => "rejoin_accepted",
    CommandsCompleted => "commands_completed",
    WorkerTemplateInstalled => "worker_template_installed",
    WorkerValueFetched => "worker_value_fetched",
    Halted => "halted",
    Heartbeat => "heartbeat",
    Register => "register",
    DataTransfer => "data_transfer",
    TransportEvent => "transport_event",
}

/// Messages from a driver program to the controller.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DriverMessage {
    /// Open a session: the controller assigns a fresh [`JobId`] and answers
    /// with [`ControllerToDriver::JobAccepted`]. Every later message of this
    /// session carries the assigned job.
    OpenJob,
    /// End this session's job: the controller releases the job's state on
    /// itself and on the workers and answers `JobTerminated`. The cluster
    /// keeps serving other sessions.
    CloseJob,
    /// Declare a logical dataset and its partitioning.
    DefineDataset(DatasetDef),
    /// Submit one logical task (the non-template path).
    SubmitTask(TaskSpec),
    /// Mark the start of a basic block; the controller starts recording a
    /// controller template under this name.
    StartTemplate {
        /// Basic-block name.
        name: String,
    },
    /// Mark the end of the basic block; the controller finishes and installs
    /// the controller template.
    FinishTemplate {
        /// Basic-block name.
        name: String,
    },
    /// Abandon a recording whose body failed: the controller discards the
    /// partially recorded template (tasks already submitted still run).
    AbortTemplate {
        /// Basic-block name.
        name: String,
    },
    /// Execute a previously installed basic block again.
    InstantiateTemplate {
        /// Basic-block name.
        name: String,
        /// Parameter binding for this execution.
        params: InstantiationParams,
    },
    /// Ask for the current value of a (single-partition) logical object.
    /// Used by data-dependent loops (error thresholds, convergence tests).
    FetchValue {
        /// The partition whose value the driver needs.
        partition: LogicalPartition,
    },
    /// Wait until every outstanding task of this job has completed.
    Barrier,
    /// Enable or disable template usage (used by the evaluation to compare
    /// against the centrally-scheduled baseline).
    EnableTemplates(bool),
    /// Request a checkpoint with an application-level progress marker.
    Checkpoint {
        /// Opaque progress marker (for example the iteration index).
        marker: u64,
    },
    /// Ask the controller to migrate `count` tasks of the named basic block
    /// to different workers on its next instantiation (exercises edits).
    MigrateTasks {
        /// Basic-block name.
        name: String,
        /// Number of tasks to migrate.
        count: usize,
    },
    /// Inform the controller that the cluster manager changed the shared
    /// worker allocation.
    SetWorkerAllocation {
        /// The workers now available to the cluster.
        workers: Vec<WorkerId>,
    },
    /// Simulate an abrupt worker failure (fault-recovery experiments). The
    /// controller recovers every job with state on the failed worker.
    FailWorker {
        /// The worker that failed.
        worker: WorkerId,
    },
    /// Terminate the whole cluster (every job, every worker).
    Shutdown,
}

impl DriverMessage {
    /// Short tag for statistics.
    pub fn tag(&self) -> Tag {
        match self {
            DriverMessage::OpenJob => Tag::OpenJob,
            DriverMessage::CloseJob => Tag::CloseJob,
            DriverMessage::DefineDataset(_) => Tag::DefineDataset,
            DriverMessage::SubmitTask(_) => Tag::SubmitTask,
            DriverMessage::StartTemplate { .. } => Tag::StartTemplate,
            DriverMessage::FinishTemplate { .. } => Tag::FinishTemplate,
            DriverMessage::AbortTemplate { .. } => Tag::AbortTemplate,
            DriverMessage::InstantiateTemplate { .. } => Tag::InstantiateTemplate,
            DriverMessage::FetchValue { .. } => Tag::FetchValue,
            DriverMessage::Barrier => Tag::Barrier,
            DriverMessage::EnableTemplates(_) => Tag::EnableTemplates,
            DriverMessage::Checkpoint { .. } => Tag::Checkpoint,
            DriverMessage::MigrateTasks { .. } => Tag::MigrateTasks,
            DriverMessage::SetWorkerAllocation { .. } => Tag::SetWorkers,
            DriverMessage::FailWorker { .. } => Tag::FailWorker,
            DriverMessage::Shutdown => Tag::Shutdown,
        }
    }
}

/// Messages from the controller back to a driver program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ControllerToDriver {
    /// The controller accepted an [`DriverMessage::OpenJob`] and assigned
    /// this session its job.
    JobAccepted {
        /// The controller-assigned job identifier.
        job: JobId,
    },
    /// The requested value (scalars only; larger objects stay on workers).
    ValueFetched {
        /// The partition that was read.
        partition: LogicalPartition,
        /// Its current value.
        value: f64,
    },
    /// All outstanding tasks have completed.
    BarrierReached,
    /// A basic block finished recording and its templates are installed.
    TemplateInstalled {
        /// Basic-block name.
        name: String,
    },
    /// A checkpoint committed.
    CheckpointCommitted {
        /// The driver-supplied progress marker.
        marker: u64,
    },
    /// Recovery from a worker failure finished; execution state matches the
    /// checkpoint with this progress marker.
    RecoveryComplete {
        /// The progress marker of the restored checkpoint.
        marker: u64,
    },
    /// The controller accepted a request that needs no data in response.
    Ack,
    /// The controller could not process a request.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// This session's job has terminated.
    JobTerminated,
}

impl ControllerToDriver {
    /// Short tag for statistics.
    pub fn tag(&self) -> Tag {
        match self {
            ControllerToDriver::JobAccepted { .. } => Tag::JobAccepted,
            ControllerToDriver::ValueFetched { .. } => Tag::ValueFetched,
            ControllerToDriver::BarrierReached => Tag::BarrierReached,
            ControllerToDriver::TemplateInstalled { .. } => Tag::TemplateInstalled,
            ControllerToDriver::CheckpointCommitted { .. } => Tag::CheckpointCommitted,
            ControllerToDriver::RecoveryComplete { .. } => Tag::RecoveryComplete,
            ControllerToDriver::Ack => Tag::Ack,
            ControllerToDriver::Error { .. } => Tag::Error,
            ControllerToDriver::JobTerminated => Tag::JobTerminated,
        }
    }
}

/// Messages from the controller to a worker. Commands, templates, fetches,
/// and halts are all scoped to one job: a worker keeps an isolated runtime
/// (store, queue, template cache) per job, so two jobs' physical objects and
/// command identifiers can never collide.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ControllerToWorker {
    /// Execute a batch of concrete commands (the per-task dispatch path,
    /// also used for patches and checkpoint load/save commands).
    ExecuteCommands {
        /// The job these commands belong to.
        job: JobId,
        /// The commands to enqueue.
        commands: Vec<Command>,
    },
    /// Install a worker template in the job's template cache.
    InstallTemplate {
        /// The job the template belongs to.
        job: JobId,
        /// The template to install.
        template: WorkerTemplate,
    },
    /// Instantiate a previously installed worker template.
    InstantiateTemplate {
        /// The job the template belongs to.
        job: JobId,
        /// The instantiation (template id, fresh ids, params, edits).
        inst: WorkerInstantiation,
    },
    /// Read a scalar value out of a physical object and report it back.
    FetchValue {
        /// The job the object belongs to.
        job: JobId,
        /// The object to read.
        object: PhysicalObjectId,
    },
    /// Stop executing this job's commands and flush its queue (fault
    /// recovery). Other jobs on the same worker are untouched.
    Halt {
        /// The job being recovered.
        job: JobId,
    },
    /// Release every resource of a finished job (store, queue, templates).
    DropJob {
        /// The job that ended.
        job: JobId,
    },
    /// The controller accepted this worker's [`WorkerToController::Register`]
    /// and admitted it to the allocation. Carries, per job, the controller's
    /// current version map so the rejoining worker sees the data state it is
    /// joining (Section 4.3: membership changes are template edits, not job
    /// restarts). Migrated partition contents follow separately through the
    /// ordinary send/receive copy path.
    RejoinAccepted {
        /// Per-job version maps, sorted by job then partition for
        /// deterministic encoding.
        jobs: Vec<JobVersions>,
    },
    /// Shut the worker down at the end of the cluster's life.
    Shutdown,
}

/// The version map of one job, as carried by
/// [`ControllerToWorker::RejoinAccepted`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobVersions {
    /// The job these versions belong to.
    pub job: JobId,
    /// Current version of every known logical partition of the job, sorted
    /// by partition.
    pub versions: Vec<PartitionVersion>,
}

/// One `(partition, version)` entry of a job's version map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionVersion {
    /// The logical partition.
    pub partition: LogicalPartition,
    /// Its latest version in program order.
    pub version: u64,
}

impl ControllerToWorker {
    /// Short tag for statistics.
    pub fn tag(&self) -> Tag {
        match self {
            ControllerToWorker::ExecuteCommands { .. } => Tag::ExecuteCommands,
            ControllerToWorker::InstallTemplate { .. } => Tag::InstallTemplate,
            ControllerToWorker::InstantiateTemplate { .. } => Tag::InstantiateTemplate,
            ControllerToWorker::FetchValue { .. } => Tag::FetchValue,
            ControllerToWorker::Halt { .. } => Tag::Halt,
            ControllerToWorker::DropJob { .. } => Tag::DropJob,
            ControllerToWorker::RejoinAccepted { .. } => Tag::RejoinAccepted,
            ControllerToWorker::Shutdown => Tag::Shutdown,
        }
    }

    /// The job this message is scoped to. The match has no wildcard, so a
    /// new variant cannot compile without stating its scope; a `None` arm
    /// says why the message belongs to no single job.
    pub fn job(&self) -> Option<JobId> {
        match self {
            ControllerToWorker::ExecuteCommands { job, .. }
            | ControllerToWorker::InstallTemplate { job, .. }
            | ControllerToWorker::InstantiateTemplate { job, .. }
            | ControllerToWorker::FetchValue { job, .. }
            | ControllerToWorker::Halt { job }
            | ControllerToWorker::DropJob { job } => Some(*job),
            // Carries per-job version state for every job in its `jobs`.
            ControllerToWorker::RejoinAccepted { .. } => None,
            // Terminates the worker process itself, across all jobs.
            ControllerToWorker::Shutdown => None,
        }
    }
}

/// Messages from a worker to the controller.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkerToController {
    /// A batch of commands of one job completed on the worker.
    CommandsCompleted {
        /// The job the commands belong to.
        job: JobId,
        /// The reporting worker.
        worker: WorkerId,
        /// The completed command identifiers.
        commands: Vec<CommandId>,
        /// Microseconds of application compute time in this batch.
        compute_micros: u64,
    },
    /// A worker template finished installing.
    TemplateInstalled {
        /// The job the template belongs to.
        job: JobId,
        /// The reporting worker.
        worker: WorkerId,
        /// The installed template.
        template: TemplateId,
    },
    /// The value requested by `FetchValue`.
    ValueFetched {
        /// The job the object belongs to.
        job: JobId,
        /// The reporting worker.
        worker: WorkerId,
        /// The object that was read.
        object: PhysicalObjectId,
        /// Its current scalar value.
        value: f64,
    },
    /// The worker halted one job in response to a `Halt` command.
    Halted {
        /// The job that was halted.
        job: JobId,
        /// The reporting worker.
        worker: WorkerId,
    },
    /// Periodic liveness and load report (job-agnostic).
    Heartbeat {
        /// The reporting worker.
        worker: WorkerId,
        /// Number of commands queued but not yet runnable.
        queued: usize,
        /// Number of commands ready or running.
        ready: usize,
    },
    /// A worker announcing itself to the controller: sent once at startup by
    /// every worker. For workers of the initial allocation this is an
    /// idempotent hello; for a restarted or brand-new worker it opens the
    /// rejoin handshake (the controller answers with
    /// [`ControllerToWorker::RejoinAccepted`] and, mid-job, reinstalls the
    /// worker's patched templates and plans migration edits — per job).
    Register {
        /// The registering worker.
        worker: WorkerId,
    },
}

impl WorkerToController {
    /// Short tag for statistics.
    pub fn tag(&self) -> Tag {
        match self {
            WorkerToController::CommandsCompleted { .. } => Tag::CommandsCompleted,
            WorkerToController::TemplateInstalled { .. } => Tag::WorkerTemplateInstalled,
            WorkerToController::ValueFetched { .. } => Tag::WorkerValueFetched,
            WorkerToController::Halted { .. } => Tag::Halted,
            WorkerToController::Heartbeat { .. } => Tag::Heartbeat,
            WorkerToController::Register { .. } => Tag::Register,
        }
    }

    /// The job this message is scoped to (wildcard-free, like
    /// [`ControllerToWorker::job`]).
    pub fn job(&self) -> Option<JobId> {
        match self {
            WorkerToController::CommandsCompleted { job, .. }
            | WorkerToController::TemplateInstalled { job, .. }
            | WorkerToController::ValueFetched { job, .. }
            | WorkerToController::Halted { job, .. } => Some(*job),
            // Liveness is a property of the worker, not of a job.
            WorkerToController::Heartbeat { .. } => None,
            // A worker joins the cluster before it belongs to any job.
            WorkerToController::Register { .. } => None,
        }
    }
}

/// A worker-to-worker data transfer (the data plane). Transfer identifiers
/// are issued per job, so the job field is part of the routing key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataTransfer {
    /// The job this transfer belongs to.
    pub job: JobId,
    /// The transfer this payload belongs to (matches a `ReceiveCopy`).
    pub transfer: TransferId,
    /// The sending worker.
    pub from_worker: WorkerId,
    /// The data being moved.
    pub payload: DataPayload,
}

/// Notices generated by the transport itself rather than sent by a node.
/// They never appear on the wire; a transport implementation injects them
/// into the local inbox when it observes a connectivity change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportEvent {
    /// The connection carrying traffic from this peer closed or failed.
    PeerDisconnected(NodeId),
    /// A peer that had previously disconnected delivered traffic again over
    /// a fresh connection. Injected before the first envelope of the new
    /// connection, so a node observes `PeerReconnected` strictly before any
    /// post-rejoin message from that peer.
    PeerReconnected(NodeId),
}

/// Any message carried by the transport.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Driver → controller, scoped to the sending session's job. `JobId(0)`
    /// means "my session's job" and is resolved by the controller's session
    /// table; an explicit id must match the session that sends it.
    Driver {
        /// The sending session's job (zero before/without a handshake).
        job: JobId,
        /// The request.
        msg: DriverMessage,
    },
    /// Controller → driver.
    ToDriver(ControllerToDriver),
    /// Controller → worker.
    ToWorker(ControllerToWorker),
    /// Worker → controller.
    FromWorker(WorkerToController),
    /// Worker → worker data transfer.
    Data(DataTransfer),
    /// Locally generated transport notice (never sent by a node).
    Transport(TransportEvent),
}

impl Message {
    /// Convenience constructor for a job-scoped driver message.
    pub fn driver(job: JobId, msg: DriverMessage) -> Message {
        Message::Driver { job, msg }
    }

    /// A driver message of the implicit session job (`JobId(0)`, resolved by
    /// the controller's session table). What a [`DriverMessage`] sender uses
    /// before — or without — the `OpenJob` handshake.
    pub fn driver0(msg: DriverMessage) -> Message {
        Message::Driver { job: JobId(0), msg }
    }

    /// Short tag for statistics.
    pub fn tag(&self) -> Tag {
        match self {
            Message::Driver { msg, .. } => msg.tag(),
            Message::ToDriver(m) => m.tag(),
            Message::ToWorker(m) => m.tag(),
            Message::FromWorker(m) => m.tag(),
            Message::Data(_) => Tag::DataTransfer,
            Message::Transport(_) => Tag::TransportEvent,
        }
    }

    /// Returns true if this is a data-plane message.
    pub fn is_data(&self) -> bool {
        matches!(self, Message::Data(_))
    }

    /// Approximate wire size in bytes. Control messages use the counting
    /// codec; data transfers use their payload size plus a small header.
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Driver { .. } => crate::codec::serialized_size(self),
            Message::ToDriver(m) => crate::codec::serialized_size(m),
            Message::ToWorker(m) => crate::codec::serialized_size(m),
            Message::FromWorker(m) => crate::codec::serialized_size(m),
            Message::Data(d) => 32 + d.payload.size(),
            Message::Transport(_) => 0,
        }
    }
}

/// A routed message: sender, recipient, and payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// The sending node.
    pub from: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// The message.
    pub message: Message,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn node_display() {
        assert_eq!(NodeId::Driver.to_string(), "driver");
        assert_eq!(NodeId::Worker(WorkerId(3)).to_string(), "worker-3");
        assert_eq!(NodeId::Client(2).to_string(), "client-2");
        assert!(NodeId::Driver.is_driver());
        assert!(NodeId::Client(0).is_driver());
        assert!(!NodeId::Controller.is_driver());
        assert!(!NodeId::Worker(WorkerId(0)).is_driver());
    }

    #[test]
    fn tags_index_their_own_slot_and_names_are_unique() {
        assert_eq!(Tag::ALL.len(), Tag::COUNT);
        for (i, tag) in Tag::ALL.iter().enumerate() {
            assert_eq!(*tag as usize, i, "{tag:?}");
        }
        let names: std::collections::HashSet<_> = Tag::ALL.iter().map(|t| t.as_str()).collect();
        assert_eq!(names.len(), Tag::COUNT, "two tags share a name");
    }

    #[test]
    fn message_tag_forwards_to_the_inner_enum() {
        assert_eq!(
            Message::driver(JobId(1), DriverMessage::Barrier).tag(),
            Tag::Barrier
        );
        assert_eq!(
            Message::FromWorker(WorkerToController::Halted {
                job: JobId(1),
                worker: WorkerId(1)
            })
            .tag()
            .as_str(),
            "halted"
        );
        let data = Message::Data(DataTransfer {
            job: JobId(1),
            transfer: TransferId(1),
            from_worker: WorkerId(0),
            payload: DataPayload::Bytes(Bytes::from_static(&[0; 8])),
        });
        assert!(data.is_data());
        assert_eq!(data.tag(), Tag::DataTransfer);
        assert_eq!(data.wire_size(), 40);
    }

    #[test]
    fn job_is_none_exactly_for_the_worker_lifecycle_messages() {
        let worker = WorkerId(2);
        assert_eq!(
            ControllerToWorker::RejoinAccepted { jobs: Vec::new() }.job(),
            None
        );
        assert_eq!(ControllerToWorker::Shutdown.job(), None);
        assert_eq!(WorkerToController::Register { worker }.job(), None);
        let heartbeat = WorkerToController::Heartbeat {
            worker,
            queued: 0,
            ready: 0,
        };
        assert_eq!(heartbeat.job(), None);
        assert_eq!(
            ControllerToWorker::Halt { job: JobId(7) }.job(),
            Some(JobId(7))
        );
        assert_eq!(
            WorkerToController::Halted {
                job: JobId(7),
                worker
            }
            .job(),
            Some(JobId(7))
        );
    }

    #[test]
    fn control_message_wire_size_is_positive_and_scales() {
        let small = Message::Driver {
            job: JobId(1),
            msg: DriverMessage::Barrier,
        };
        let task = nimbus_core::TaskSpec::new(
            nimbus_core::TaskId(1),
            nimbus_core::StageId(1),
            nimbus_core::FunctionId(1),
        );
        let big = Message::Driver {
            job: JobId(1),
            msg: DriverMessage::SubmitTask(task.with_reads(vec![LogicalPartition::default(); 16])),
        };
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size());
    }
}
