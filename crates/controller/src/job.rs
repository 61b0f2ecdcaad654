//! One job's control-plane state machine.
//!
//! A [`Job`] is everything the controller tracks for one driver session —
//! the per-job namespace that makes the control plane multi-tenant:
//! identifier generators, data placement, templates, checkpoints, the replay
//! window, and what the driver is waiting on are all private to the job.
//! Every transition is a method on `&mut self` that borrows the [`Shared`]
//! context (the current worker allocation, the statistics, the cork); a job
//! can neither reach another job nor the transport, so its whole effect on
//! the cluster is the [`Message`](nimbus_net::Message)s it hands the cork.
//!
//! Each per-job concept has one representation:
//!
//! * **what the driver waits on** is one FIFO of [`PendingSync`] whose head
//!   is the active wait;
//! * **recovery** is its own [`Recovery`] beside that FIFO, so a wait a
//!   failure interrupts is rewound in place and resumes by itself;
//! * **the replay window** is a [`ReplayWindow`]: exact, lossy, or out
//!   being replayed.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::fmt::Display;

use nimbus_core::checkpoint::{CheckpointDescriptor, CheckpointEntry, CheckpointLog};
use nimbus_core::graph::AssignedCommand;
use nimbus_core::ids::{CheckpointId, JobId, LogicalPartition, TaskId, WorkerId};
use nimbus_core::lineage::LineageLog;
use nimbus_core::task::TaskSpec;
use nimbus_core::template::{InstantiationParams, WorkerTemplate};
use nimbus_core::{Command, CommandKind};
use nimbus_net::{
    ControllerToDriver, ControllerToWorker, DriverMessage, JobVersions, NodeId, PartitionVersion,
};

use crate::assignment::AssignmentPolicy;
use crate::controller::{ControllerConfig, Shared};
use crate::data_manager::DataManager;
use crate::error::{ControllerError, ControllerResult};
use crate::expansion::{expand_task, refresh_instance, Bookkeeping, IdGens};
use crate::template_manager::TemplateManager;

/// Upper bound on a job's replay log. A job that never checkpoints (the
/// un-templated Spark-like baseline) would otherwise accumulate one entry
/// per raw task forever; past the cap the window turns lossy and the log is
/// dropped — exactly the lossy-recovery behavior such a job had before the
/// log covered raw submits. A committed checkpoint starts a fresh, exact
/// window.
const MAX_REPLAY_LOG: usize = 65_536;

/// Something the job does once its outstanding commands have drained. Waits
/// queue in arrival order ([`Job::syncs`]); the head is the active one.
#[expect(
    clippy::large_enum_variant,
    reason = "CheckpointSave is rare; boxing would obscure it"
)]
enum PendingSync {
    Barrier,
    FetchDrain(LogicalPartition),
    /// The fetch was forwarded; the worker's reply is outstanding.
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
}

impl PendingSync {
    /// True when the driver is blocked on this wait (everything except the
    /// controller's own auto-checkpoints).
    fn answers_driver(&self) -> bool {
        match self {
            PendingSync::CheckpointDrain { notify, .. }
            | PendingSync::CheckpointSave { notify, .. } => *notify,
            _ => true,
        }
    }

    /// Maps a wait a failure interrupted to the state that restarts it after
    /// recovery: in-flight fetches re-drain (their target worker may have
    /// changed), half-done checkpoints restart from the drain step.
    fn resumable(self) -> Self {
        match self {
            PendingSync::FetchValue(p) => PendingSync::FetchDrain(p),
            PendingSync::CheckpointSave { marker, notify, .. } => {
                PendingSync::CheckpointDrain { marker, notify }
            }
            other => other,
        }
    }
}

/// A recovery in flight: the job has halted and is waiting to restore its
/// checkpoint. Driver traffic stays parked in [`Job::inbox`] meanwhile.
struct Recovery {
    /// Progress marker of the checkpoint being restored.
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
}

/// Who reported a worker lost; the one parameter of [`Job::lose_worker`].
#[derive(Clone, Copy)]
pub(crate) enum Loss {
    /// A driver's `FailWorker` — the paper's fault-recovery experiments.
    /// The asking job always recovers and is told `RecoveryComplete`; the
    /// others recover only if they have state on the worker, silently.
    /// Nobody waits for a rejoin that will never come, and the worker —
    /// still alive — acknowledges any `Halt` it was already sent.
    Driver {
        /// The job whose driver asked.
        asked_by: JobId,
    },
    /// The transport reported the peer gone. Recovery is silent (the driver
    /// is oblivious and keeps the values it already fetched), replays the
    /// window, and may hold open for the worker to come back.
    Transport {
        /// Whether a rejoin grace window is configured.
        may_rejoin: bool,
    },
}

/// One entry of a job's replay log.
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

/// The driver traffic since the job's last committed checkpoint, which a
/// transport-detected recovery re-executes controller-side so the data
/// state catches back up to the pre-failure point.
enum ReplayWindow {
    /// Every request since the checkpoint, in order: replaying it is exact.
    Exact(Vec<ReplayEntry>),
    /// Something happened the log cannot reproduce; a recovery restores the
    /// checkpoint and replays nothing. Only a committed checkpoint (or a
    /// driver-initiated recovery) opens a new exact window.
    Lossy,
    /// The log is out being re-executed: nothing is re-logged and no
    /// auto-checkpoint is scheduled.
    Replaying,
}

impl ReplayWindow {
    fn log(&mut self, entry: ReplayEntry) {
        if let ReplayWindow::Exact(log) = self {
            if log.len() >= MAX_REPLAY_LOG {
                self.lose("the log reached MAX_REPLAY_LOG");
            } else {
                log.push(entry);
            }
        }
    }

    /// Turns the window lossy (dropping the log) because of `why`.
    fn lose(&mut self, why: &str) {
        if nimbus_core::debug_recovery() && !matches!(self, ReplayWindow::Lossy) {
            eprintln!("[replay-lossy] {why}");
        }
        *self = ReplayWindow::Lossy;
    }

    /// Opens a fresh exact window at a new baseline.
    fn restart(&mut self) {
        match self {
            ReplayWindow::Exact(log) => log.clear(),
            _ => *self = ReplayWindow::Exact(Vec::new()),
        }
    }
}

/// Everything the controller tracks for one job. Only the worker allocation
/// is shared with other jobs (through [`Shared`]).
pub(crate) struct Job {
    pub(crate) id: JobId,
    /// Where this job's replies go (the session's driver node).
    pub(crate) driver: NodeId,
    dm: DataManager,
    bk: Bookkeeping,
    ids: IdGens,
    tm: TemplateManager,
    lineage: LineageLog,
    checkpoints: CheckpointLog,
    /// Commands dispatched and not yet reported complete.
    outstanding: u64,
    enable_templates: bool,
    checkpoint_every: Option<u64>,
    instantiations_since_checkpoint: u64,
    /// What the job does as its outstanding commands drain, oldest first.
    /// The driver is synchronous, so beyond its one request only the
    /// controller's own auto-checkpoint normally queues here — but nothing
    /// relies on that: every wait is answered, in order.
    syncs: VecDeque<PendingSync>,
    /// `Some` while the job is halted for recovery. `syncs` is not advanced
    /// meanwhile; its head was rewound to a resumable step, so the driver's
    /// pending request is answered (against recovered state) afterwards.
    recovery: Option<Recovery>,
    replay: ReplayWindow,
    /// Queued driver messages awaiting their round-robin service turn.
    inbox: VecDeque<DriverMessage>,
    /// True once the job ended (closed or its driver vanished). The entry
    /// is inert until the main loop's sweep removes it; deferring the
    /// removal keeps job indices stable while the shell iterates the table.
    pub(crate) done: bool,
}

impl Job {
    /// A new job with the controller's defaults.
    pub(crate) fn new(id: JobId, driver: NodeId, config: &ControllerConfig) -> Self {
        Self {
            id,
            driver,
            dm: DataManager::new(AssignmentPolicy::hash()),
            bk: Bookkeeping::new(),
            ids: IdGens::new(),
            tm: TemplateManager::new(),
            lineage: LineageLog::new(),
            checkpoints: CheckpointLog::new(),
            outstanding: 0,
            enable_templates: config.enable_templates,
            checkpoint_every: config.checkpoint_every,
            instantiations_since_checkpoint: 0,
            syncs: VecDeque::new(),
            recovery: None,
            replay: ReplayWindow::Exact(Vec::new()),
            inbox: VecDeque::new(),
            done: false,
        }
    }

    pub(crate) fn recovering(&self) -> bool {
        self.recovery.is_some()
    }

    /// True while this job's recovery is holding open for `worker`.
    pub(crate) fn awaits(&self, worker: WorkerId) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| r.awaiting_rejoin.contains(&worker))
    }

    /// Queues a driver request for its round-robin service turn.
    pub(crate) fn enqueue(&mut self, msg: DriverMessage) {
        self.inbox.push_back(msg);
    }

    /// True when a queued driver request may be serviced now (the job's
    /// recovery, if any, has completed).
    pub(crate) fn serviceable(&self) -> bool {
        !self.done && !self.inbox.is_empty() && !self.recovering()
    }

    /// The next driver request to service, if any may be.
    pub(crate) fn next_request(&mut self) -> Option<DriverMessage> {
        if self.serviceable() {
            self.inbox.pop_front()
        } else {
            None
        }
    }

    /// True when the job has physical state on the worker (the expansion
    /// path registers every instance in the job's data manager before any
    /// command is dispatched, so this covers in-flight creates too).
    fn uses_worker(&self, worker: WorkerId) -> bool {
        !self.dm.instances.on_worker(worker).is_empty()
    }

    /// The job's current version map, sorted by partition for determinism.
    pub(crate) fn versions(&self) -> JobVersions {
        let mut versions: Vec<PartitionVersion> = self
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
            job: self.id,
            versions,
        }
    }

    /// The shared allocation changed under the job: replay re-executes on
    /// whatever allocation is current, so the window is no longer exact.
    pub(crate) fn allocation_changed(&mut self) {
        self.replay.lose("the worker allocation changed");
    }

    // ------------------------------------------------------------------
    // Driver interface
    // ------------------------------------------------------------------

    pub(crate) fn handle_driver(&mut self, cx: &mut Shared, msg: DriverMessage) {
        match msg {
            DriverMessage::OpenJob => {
                // Normally answered inline by the shell on first contact;
                // kept total for robustness.
                self.reply(cx, ControllerToDriver::JobAccepted { job: self.id });
            }
            DriverMessage::CloseJob => {
                // Drain the job's outstanding work, then release it and
                // confirm. Queued behind any in-flight synchronization.
                self.wait(cx, PendingSync::Closing);
            }
            DriverMessage::DefineDataset(def) => {
                self.dm.define_dataset(def);
                self.reply(cx, ControllerToDriver::Ack);
            }
            DriverMessage::SubmitTask(spec) => {
                // Raw tasks are replayable as long as they are not part of
                // an active recording (recording traffic cannot be
                // faithfully reconstructed controller-side).
                let in_recording = self.tm.is_recording();
                match self.submit_task(cx, &spec) {
                    Ok(()) if in_recording => self.replay.lose("a raw task joined a recording"),
                    Ok(()) => self.replay.log(ReplayEntry::Submit(spec)),
                    Err(e) => {
                        self.replay.lose("a raw task failed");
                        self.reply_error(cx, e);
                    }
                }
            }
            DriverMessage::StartTemplate { name } => {
                self.replay.lose("a recording started");
                let result = if self.enable_templates {
                    self.tm.start_recording(&name)
                } else {
                    Ok(())
                };
                self.reply_result(cx, result.map(|()| ControllerToDriver::Ack));
            }
            DriverMessage::AbortTemplate { name } => {
                let result = if self.enable_templates {
                    self.tm.abort_recording(&name)
                } else {
                    Ok(())
                };
                self.reply_result(cx, result.map(|()| ControllerToDriver::Ack));
            }
            DriverMessage::FinishTemplate { name } => {
                let result = if self.enable_templates {
                    self.finish_template(cx, &name)
                } else {
                    Ok(())
                };
                self.reply_result(
                    cx,
                    result.map(|()| ControllerToDriver::TemplateInstalled { name }),
                );
            }
            DriverMessage::InstantiateTemplate { name, params } => {
                match self.instantiate_block(cx, &name, &params) {
                    // Only successful instantiations enter the replay log: a
                    // failed one (which may have mutated state partially)
                    // makes the window unfaithful, and logging it would
                    // poison any later replay.
                    Ok(()) => self.replay.log(ReplayEntry::Instantiate { name, params }),
                    Err(e) => {
                        self.replay.lose("an instantiation failed");
                        self.reply_error(cx, e);
                    }
                }
            }
            DriverMessage::FetchValue { partition } => {
                self.wait(cx, PendingSync::FetchDrain(partition));
            }
            DriverMessage::Barrier => self.wait(cx, PendingSync::Barrier),
            DriverMessage::EnableTemplates(enabled) => {
                self.enable_templates = enabled;
                // Logged (not invalidating): the toggle replays in order so
                // surrounding raw/templated entries re-execute under their
                // original scheduling mode.
                self.replay.log(ReplayEntry::SetTemplates(enabled));
                self.reply(cx, ControllerToDriver::Ack);
            }
            DriverMessage::Checkpoint { marker } => {
                self.wait(
                    cx,
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
                let planned = self
                    .tm
                    .plan_migrations(&name, count, cx.workers(), &mut self.dm);
                let result = planned.map(|planned| {
                    cx.stats.edits_applied += planned as u64;
                    ControllerToDriver::Ack
                });
                self.reply_result(cx, result);
            }
            // Cluster-wide requests touch every job; the shell serves them
            // and they never reach a job.
            DriverMessage::SetWorkerAllocation { .. }
            | DriverMessage::FailWorker { .. }
            | DriverMessage::Shutdown => {}
        }
    }

    /// Schedules one task directly: expands it against the current
    /// allocation, records it into any open recording, and dispatches it.
    /// Returns how many network copies the expansion inserted.
    fn schedule_task(&mut self, cx: &mut Shared, spec: &TaskSpec) -> ControllerResult<u64> {
        let expanded = expand_task(
            spec,
            cx.workers(),
            &mut self.dm,
            &mut self.bk,
            &self.ids,
            &mut self.lineage,
        )?;
        self.tm.record_task(spec, &expanded);
        cx.stats.tasks_scheduled_directly += 1;
        let copies = expanded
            .commands
            .iter()
            .filter(|c| c.command.kind.is_network_copy())
            .count() as u64
            / 2;
        self.dispatch(cx, expanded.commands);
        Ok(copies)
    }

    /// A raw driver task (or its replay).
    fn submit_task(&mut self, cx: &mut Shared, spec: &TaskSpec) -> ControllerResult<()> {
        cx.stats.copies_inserted += self.schedule_task(cx, spec)?;
        Ok(())
    }

    fn finish_template(&mut self, cx: &mut Shared, name: &str) -> ControllerResult<()> {
        let (_ct, _group, installs) = self.tm.finish_recording(name, &self.dm, &self.ids)?;
        cx.stats.controller_templates_installed += 1;
        cx.stats.worker_template_groups_generated += 1;
        for (worker, template) in installs {
            self.install(cx, worker, template)?;
        }
        Ok(())
    }

    fn install(
        &mut self,
        cx: &mut Shared,
        worker: WorkerId,
        template: WorkerTemplate,
    ) -> ControllerResult<()> {
        cx.stats.worker_templates_installed += 1;
        let job = self.id;
        self.send(
            cx,
            worker,
            ControllerToWorker::InstallTemplate { job, template },
        )
    }

    fn instantiate_block(
        &mut self,
        cx: &mut Shared,
        name: &str,
        params: &InstantiationParams,
    ) -> ControllerResult<()> {
        let ct = self
            .tm
            .registry
            .controller_template_by_name(name)
            .ok_or_else(|| ControllerError::UnknownBlock(name.to_string()))?;
        let ct_id = ct.id;
        let task_count = ct.task_count();
        cx.stats.controller_template_instantiations += 1;
        self.instantiations_since_checkpoint += 1;

        let group = self
            .tm
            .registry
            .find_group_for_sorted_workers(ct_id, cx.workers_sorted())
            .map(|g| g.id);

        match group {
            Some(group_id) if self.enable_templates => {
                let plan = self.tm.plan_instantiation(
                    group_id,
                    params,
                    &mut self.dm,
                    &mut self.bk,
                    &self.ids,
                )?;
                if plan.auto_validated {
                    cx.stats.auto_validations += 1;
                } else {
                    cx.stats.full_validations += 1;
                }
                if plan.patched {
                    cx.stats.patches_applied += 1;
                    if plan.patch_cache_hit {
                        cx.stats.patch_cache_hits += 1;
                    } else {
                        cx.stats.patch_cache_misses += 1;
                    }
                }
                let edit_count: usize = plan.per_worker.iter().map(|(_, i)| i.edits.len()).sum();
                cx.stats.edits_applied += edit_count as u64;
                cx.stats.worker_template_instantiations += plan.per_worker.len() as u64;
                cx.stats.tasks_from_templates += plan.task_count;
                self.dispatch(cx, plan.patch_commands);
                // Counted unconditionally (not per send): a send to a worker
                // that just died must not fail the instantiation — the
                // transport's disconnect notice follows and recovery resets
                // `outstanding` and the data state wholesale.
                self.outstanding += plan.expected_commands;
                for (worker, inst) in plan.per_worker {
                    // Queued behind any patch commands corked for the same
                    // worker, so the whole instantiation leaves as one
                    // batched send per worker.
                    let instantiate =
                        ControllerToWorker::InstantiateTemplate { job: self.id, inst };
                    self.queue(cx, worker, instantiate, 0);
                }
            }
            _ => {
                // No worker templates match the current allocation (or
                // templates are disabled): schedule the block task by task,
                // recording a fresh group if templates are enabled.
                let task_base = self.ids.tasks.next_block(task_count as u64);
                let task_ids: Vec<TaskId> = (0..task_count as u64)
                    .map(|i| TaskId(task_base + i))
                    .collect();
                let specs = ct.instantiate(&task_ids, params)?;
                let record = self.enable_templates && !self.tm.is_recording();
                if record {
                    self.tm.start_recording(name)?;
                }
                for spec in &specs {
                    // Placement hints from the old assignment may point at
                    // evicted workers; expansion falls back to the current
                    // allocation automatically.
                    self.schedule_task(cx, spec)?;
                }
                if record {
                    self.finish_template(cx, name)?;
                }
            }
        }

        if let Some(every) = self.checkpoint_every {
            if !matches!(self.replay, ReplayWindow::Replaying)
                && self.instantiations_since_checkpoint >= every
                && self.syncs.is_empty()
            {
                let marker = self.instantiations_since_checkpoint;
                self.instantiations_since_checkpoint = 0;
                // Drains the just-dispatched instantiation first, then saves.
                self.wait(
                    cx,
                    PendingSync::CheckpointDrain {
                        marker,
                        notify: false,
                    },
                );
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Queues a wait behind whatever is already in flight and runs it at
    /// once when the job is idle.
    fn wait(&mut self, cx: &mut Shared, sync: PendingSync) {
        self.syncs.push_back(sync);
        self.advance(cx);
    }

    /// Runs the active wait, and every wait behind it that can run at once,
    /// while the job has no outstanding commands (and is not recovering).
    fn advance(&mut self, cx: &mut Shared) {
        while self.recovery.is_none() && self.outstanding == 0 {
            let Some(sync) = self.syncs.pop_front() else {
                return;
            };
            match sync {
                PendingSync::Barrier => self.reply(cx, ControllerToDriver::BarrierReached),
                PendingSync::FetchDrain(partition) => self.start_fetch(cx, partition),
                PendingSync::FetchValue(partition) => {
                    // Still waiting for the worker's reply.
                    self.syncs.push_front(PendingSync::FetchValue(partition));
                    return;
                }
                PendingSync::CheckpointDrain { marker, notify } => {
                    self.start_checkpoint(cx, marker, notify);
                }
                PendingSync::CheckpointSave {
                    marker,
                    notify,
                    descriptor,
                } => {
                    self.checkpoints.commit(descriptor);
                    cx.stats.checkpoints_committed += 1;
                    // The committed checkpoint is the new replay baseline:
                    // entries before it are durable.
                    self.replay.restart();
                    if notify {
                        self.reply(cx, ControllerToDriver::CheckpointCommitted { marker });
                    }
                }
                PendingSync::Closing => {
                    // The job's work has drained: confirm and release it.
                    self.reply(cx, ControllerToDriver::JobTerminated);
                    self.release(cx);
                    return;
                }
            }
        }
    }

    /// Rewinds the active wait, in place, to the step that restarts it.
    fn rewind_head(&mut self) {
        if let Some(head) = self.syncs.pop_front() {
            self.syncs.push_front(head.resumable());
        }
    }

    /// A worker reported `n` of this job's commands complete.
    pub(crate) fn commands_completed(&mut self, cx: &mut Shared, n: u64) {
        self.outstanding = self.outstanding.saturating_sub(n);
        self.advance(cx);
    }

    /// A worker answered the fetch the job forwarded.
    pub(crate) fn value_fetched(&mut self, cx: &mut Shared, value: f64) {
        // Anything else at the head means the reply is stale: the fetch it
        // answers was interrupted by a recovery and rewound to its drain.
        if let Some(&PendingSync::FetchValue(partition)) = self.syncs.front() {
            self.syncs.pop_front();
            self.reply(cx, ControllerToDriver::ValueFetched { partition, value });
            self.advance(cx);
        }
    }

    fn start_fetch(&mut self, cx: &mut Shared, partition: LogicalPartition) {
        let Some(instance) = self.dm.latest_holder(partition, None) else {
            return self.reply_error(cx, format!("no instance of {partition} exists"));
        };
        let fetch = ControllerToWorker::FetchValue {
            job: self.id,
            object: instance.id,
        };
        if self.send(cx, instance.worker, fetch).is_ok() {
            self.syncs.push_front(PendingSync::FetchValue(partition));
        } else {
            self.reply_error(cx, format!("worker {} unreachable", instance.worker));
        }
    }

    fn start_checkpoint(&mut self, cx: &mut Shared, marker: u64, notify: bool) {
        let ckpt_id = CheckpointId(self.ids.checkpoints.next_raw());
        let mut manifest = Vec::new();
        let mut commands: Vec<AssignedCommand> = Vec::new();
        for lp in self.dm.known_partitions() {
            let Some(holder) = self.dm.latest_holder(lp, None) else {
                continue;
            };
            // Vault keys are namespaced by job: two jobs' checkpoints can
            // never collide in the shared vault even though their
            // checkpoint ids and partition names do.
            let key = format!(
                "job{}/ckpt/{}/{}/{}",
                self.id, ckpt_id, lp.object, lp.partition
            );
            let id = self.ids.command();
            let save = Command::new(
                id,
                CommandKind::SaveData {
                    object: holder.id,
                    key: key.clone(),
                },
            )
            .with_before(self.bk.read_deps(holder.id));
            self.bk.note_read(holder.id, id);
            commands.push(AssignedCommand {
                command: save,
                worker: holder.worker,
            });
            manifest.push(CheckpointEntry {
                partition: lp,
                version: self.dm.versions.current(lp),
                worker: holder.worker,
                key,
            });
        }
        let descriptor = CheckpointDescriptor {
            id: ckpt_id,
            versions: self.dm.versions.clone(),
            instances: self.dm.instances.clone(),
            manifest,
            progress_marker: marker,
        };
        // Armed BEFORE the dispatch: a save whose flush fails outright (its
        // worker just died) must find the pending `CheckpointSave` in place
        // so `settle` can poison it back to the drain step — otherwise the
        // drain would complete without those saves and commit a manifest
        // whose keys were never written. With nothing to save, `advance`
        // commits on its next step.
        self.syncs.push_front(PendingSync::CheckpointSave {
            marker,
            notify,
            descriptor,
        });
        self.dispatch(cx, commands);
    }

    // ------------------------------------------------------------------
    // Losing a worker, and recovering
    // ------------------------------------------------------------------

    /// The job's reaction to losing worker `w` (already evicted from the
    /// shared allocation by the shell).
    pub(crate) fn lose_worker(&mut self, cx: &mut Shared, w: WorkerId, loss: Loss) {
        let (notify, may_rejoin) = match loss {
            Loss::Driver { asked_by } => (asked_by == self.id, false),
            Loss::Transport { may_rejoin } => (false, may_rejoin),
        };
        let uses = self.uses_worker(w);
        if let Some(recovery) = &mut self.recovery {
            if matches!(loss, Loss::Driver { .. }) {
                return; // The worker is alive and will still acknowledge.
            }
            // A second failure while already recovering: the worker will
            // never acknowledge its Halt, so count it out — and, if a grace
            // window is configured AND this job actually has state on it,
            // await its return too, so two workers dying in one window can
            // both be readmitted in place. A worker the job never touched
            // is not awaited: stalling this recovery a full grace window
            // for a return that gives the job nothing would leak another
            // job's failure across the isolation boundary.
            recovery.pending_halts.retain(|x| *x != w);
            if may_rejoin && uses && !recovery.awaiting_rejoin.contains(&w) {
                recovery.awaiting_rejoin.push(w);
            }
            if cx.workers().is_empty() && recovery.awaiting_rejoin.is_empty() {
                self.recovery = None;
                self.fail_wait(cx, "every worker disconnected during recovery");
            } else {
                self.maybe_finish_recovery(cx);
            }
            return;
        }
        if !notify && !uses {
            return; // This job never touched the dead worker: isolation.
        }
        let awaiting = if may_rejoin { vec![w] } else { Vec::new() };
        if let Err(e) = self.begin_recovery(cx, notify, awaiting) {
            // Unrecoverable (no checkpoint / no workers): answer the
            // driver's pending request — or its next one — with a clean
            // error rather than hanging.
            match loss {
                Loss::Driver { .. } => self.fail_wait(cx, e),
                Loss::Transport { .. } => {
                    self.fail_wait(cx, format!("worker {w} disconnected: {e}"))
                }
            }
        }
    }

    /// Starts recovery. The failed worker(s) have already been evicted from
    /// the shared allocation; `awaiting_rejoin` lists those this recovery
    /// should hold open for.
    fn begin_recovery(
        &mut self,
        cx: &mut Shared,
        notify: bool,
        awaiting_rejoin: Vec<WorkerId>,
    ) -> ControllerResult<()> {
        cx.stats.failures_handled += 1;
        let marker = self
            .checkpoints
            .latest()
            .map(|c| c.progress_marker)
            .ok_or(ControllerError::NoCheckpoint)?;
        // A failure that lands while a basic block is being recorded leaves
        // the log without the surrounding recording traffic; replaying it
        // later would desynchronize the driver's view. Skip replay then.
        if self.tm.is_recording() {
            self.replay.lose("a failure interrupted a recording");
        }
        // Without a rejoin wait the job cannot continue workerless; with one
        // it may ride out the window even if the failed worker was the last.
        if cx.workers().is_empty() && awaiting_rejoin.is_empty() {
            return Err(ControllerError::NoWorkers);
        }
        // Halt every surviving worker — for this job only: they terminate
        // its ongoing commands and flush its queue (Section 4.4) while other
        // jobs' runtimes keep executing. A survivor whose Halt cannot be
        // sent is dying too — its own disconnect notice will evict it; it
        // must not be waited on for an acknowledgement that cannot come.
        let job = self.id;
        let mut pending_halts = cx.workers().to_vec();
        pending_halts.retain(|w| self.send(cx, *w, ControllerToWorker::Halt { job }).is_ok());
        if nimbus_core::debug_recovery() {
            eprintln!(
                "[begin] job={} marker={} halts={:?} awaiting={:?}",
                self.id, marker, pending_halts, awaiting_rejoin
            );
        }
        // Whatever the driver was synchronizing on restarts from a step
        // that is still valid once the job's state has been restored.
        self.rewind_head();
        self.recovery = Some(Recovery {
            marker,
            pending_halts,
            notify,
            awaiting_rejoin,
            rejoined: Vec::new(),
        });
        // With no halts outstanding and no rejoin to wait for (every
        // survivor's Halt send failed), nothing else will drive completion.
        self.maybe_finish_recovery(cx);
        Ok(())
    }

    /// `worker` will produce no (further) `Halted` reply — it halted.
    pub(crate) fn halted(&mut self, cx: &mut Shared, worker: WorkerId) {
        if let Some(recovery) = &mut self.recovery {
            recovery.pending_halts.retain(|w| *w != worker);
            self.maybe_finish_recovery(cx);
        }
    }

    /// The rejoin grace of every worker in `due` passed: stop awaiting them
    /// and proceed once the remaining conditions resolve (the
    /// checkpoint-restart baseline the rejoin path is measured against).
    pub(crate) fn stop_awaiting(&mut self, cx: &mut Shared, due: &[WorkerId]) {
        if let Some(recovery) = &mut self.recovery {
            recovery.awaiting_rejoin.retain(|w| !due.contains(w));
            self.maybe_finish_recovery(cx);
        }
    }

    /// A worker this recovery was awaiting registered again (the shell has
    /// already put it back in the allocation): reinstall, on its fresh
    /// process, every worker template the controller-side mirror holds for
    /// it — including all edits applied over the job's lifetime, which is
    /// what makes the reinstall a "patched template" rather than a
    /// re-recording. The shell calls [`Job::maybe_finish_recovery`] once the
    /// worker has been sent its `RejoinAccepted`.
    pub(crate) fn readmit(&mut self, cx: &mut Shared, worker: WorkerId) {
        let Some(recovery) = &mut self.recovery else {
            return;
        };
        if !recovery.awaiting_rejoin.contains(&worker) {
            return;
        }
        recovery.awaiting_rejoin.retain(|w| *w != worker);
        recovery.rejoined.push(worker);
        let templates = self.tm.templates_for_worker(worker);
        if nimbus_core::debug_recovery() {
            eprintln!(
                "[reinstall] job={} worker={} templates={:?}",
                self.id,
                worker,
                templates.iter().map(|t| t.id).collect::<Vec<_>>()
            );
        }
        for template in templates {
            let _ = self.install(cx, worker, template);
        }
    }

    /// Completes the recovery once every halt is acknowledged *and* every
    /// awaited worker has resolved — registered again or had its grace
    /// deadline pass.
    pub(crate) fn maybe_finish_recovery(&mut self, cx: &mut Shared) {
        let ready = |r: &mut Recovery| r.pending_halts.is_empty() && r.awaiting_rejoin.is_empty();
        if nimbus_core::debug_recovery() {
            if let Some(r) = &self.recovery {
                eprintln!(
                    "[maybe_finish] job={} halts={:?} awaiting={:?}",
                    self.id, r.pending_halts, r.awaiting_rejoin
                );
            }
        }
        if let Some(recovery) = self.recovery.take_if(ready) {
            self.complete_recovery(cx, recovery);
        }
    }

    fn complete_recovery(&mut self, cx: &mut Shared, recovery: Recovery) {
        let Recovery {
            marker,
            notify,
            rejoined,
            ..
        } = recovery;
        // A rejoin-grace recovery can ride out the window with zero workers
        // (the failed worker was the last one); if the grace expired without
        // a return there is nothing to recover onto — surface a clean error
        // instead of dividing the reload re-homing by zero.
        if cx.workers().is_empty() {
            self.replay.lose("recovery found no worker to restore onto");
            return self.fail_wait(cx, "every worker disconnected during recovery");
        }
        // Recovery is only begun with a checkpoint on file, but the state
        // machine can't prove that here — propagate instead of panicking so
        // a bookkeeping bug degrades to one failed job, not a dead cluster.
        let Some(descriptor) = self.checkpoints.latest().cloned() else {
            self.replay.lose("recovery found no checkpoint");
            return self.fail_wait(cx, ControllerError::NoCheckpoint);
        };
        // Reset execution state to the snapshot.
        self.outstanding = 0;
        self.bk.clear();
        self.dm.versions = descriptor.versions;
        self.dm.instances = descriptor.instances;
        // Forget instances that lived on workers no longer in the allocation.
        let gone: Vec<WorkerId> = self.dm.instances.iter().map(|i| i.worker).collect();
        for w in gone.into_iter().filter(|w| !cx.workers().contains(w)) {
            self.dm.drop_worker(w);
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
            self.dm.instances.iter().map(|i| i.id).collect();
        for id in snapshot {
            let _ = self.dm.instances.set_version(id, nimbus_core::Version(0));
        }
        // A rejoined worker's store is empty while the restored bookkeeping
        // says its physical instances exist. Recreate every instance resident
        // on it (idempotent on workers that still hold the object) so the
        // reloads, copies, and template entries that follow have real objects
        // to land in.
        let mut commands: Vec<AssignedCommand> = Vec::new();
        for rw in &rejoined {
            let resident: Vec<nimbus_core::PhysicalInstance> = self
                .dm
                .instances
                .on_worker(*rw)
                .into_iter()
                .copied()
                .collect();
            for instance in resident {
                let id = self.ids.command();
                let create = Command::new(
                    id,
                    CommandKind::CreateData {
                        object: instance.id,
                        logical: instance.logical,
                    },
                );
                self.bk.note_write(instance.id, id);
                commands.push(AssignedCommand {
                    command: create,
                    worker: *rw,
                });
            }
        }
        // Reload every checkpointed partition into memory, re-homing the ones
        // whose instance disappeared with the failed worker.
        for entry in descriptor.manifest {
            let target = if cx.workers().contains(&entry.worker) {
                entry.worker
            } else {
                let idx = (entry.partition.partition.raw() as usize) % cx.workers().len();
                cx.workers()[idx]
            };
            let instance = crate::expansion::ensure_instance_commands(
                entry.partition,
                target,
                &mut self.dm,
                &mut self.bk,
                &self.ids,
                &mut commands,
            );
            let id = self.ids.command();
            let load = Command::new(
                id,
                CommandKind::LoadData {
                    object: instance.id,
                    key: entry.key,
                },
            )
            .with_before(self.bk.write_deps(instance.id));
            self.bk.note_write(instance.id, id);
            commands.push(AssignedCommand {
                command: load,
                worker: target,
            });
            self.dm.record_refresh(entry.partition, instance.id);
        }
        // Templates built for the old allocation will be regenerated lazily
        // (or reused as-is when the failed worker rejoined in place); cached
        // patches may reference lost objects.
        self.tm.last_executed = None;
        self.tm.patch_cache = nimbus_core::PatchCache::new();
        self.dispatch(cx, commands);
        if notify {
            // Driver-initiated recovery: the driver re-runs the lost
            // iterations itself (the paper's experiment pattern), so the
            // exact window restarts at the restored checkpoint.
            self.replay.restart();
            self.reply(cx, ControllerToDriver::RecoveryComplete { marker });
        } else {
            self.replay_window(cx);
        }
        if nimbus_core::debug_recovery() {
            eprintln!(
                "[recovered] job={} outstanding={}",
                self.id, self.outstanding
            );
        }
        // The wait the failure interrupted proceeds against the recovered
        // state once the reload and replay commands drain. (Parked driver
        // traffic needs no release either: the inbox is serviceable again
        // now that `recovery` is `None`.)
        self.advance(cx);
    }

    /// After a transport-detected failure — the driver is oblivious and
    /// keeps the values it already fetched — re-executes the entries logged
    /// since the restored checkpoint, so the data state catches back up to
    /// the exact pre-failure point; losing them would silently fork history.
    /// Replay is controller-local: no driver involvement, and with a
    /// rejoined worker no template re-recording either. The log is kept: a
    /// second failure before the next checkpoint commit replays the same
    /// window.
    fn replay_window(&mut self, cx: &mut Shared) {
        let ReplayWindow::Exact(log) = &mut self.replay else {
            return;
        };
        let log = std::mem::take(log);
        self.replay = ReplayWindow::Replaying;
        for entry in &log {
            let ok = match entry {
                ReplayEntry::Instantiate { name, params } => {
                    self.instantiate_block(cx, name, params).is_ok()
                }
                ReplayEntry::Submit(spec) => self.submit_task(cx, spec).is_ok(),
                ReplayEntry::SetTemplates(enabled) => {
                    self.enable_templates = *enabled;
                    true
                }
            };
            if !ok {
                // The window can no longer be reconstructed faithfully;
                // stop (the data state stays at a consistent prefix) and
                // never trust this log again.
                self.replay.lose("a replayed entry failed");
                return;
            }
            cx.stats.instantiations_replayed += 1;
        }
        self.replay = ReplayWindow::Exact(log);
    }

    // ------------------------------------------------------------------
    // Membership changes that are not failures
    // ------------------------------------------------------------------

    /// Elastic join: `worker` is new to the running cluster (already added
    /// to the allocation). Install an (empty) member template per group and
    /// queue migration edits that move its share of tasks over; data follows
    /// through the patch copy path.
    pub(crate) fn admit_worker(&mut self, cx: &mut Shared, worker: WorkerId) {
        match self.tm.admit_worker(worker, cx.workers(), &mut self.dm) {
            Ok((installs, planned)) => {
                cx.stats.edits_applied += planned as u64;
                for template in installs {
                    let _ = self.install(cx, worker, template);
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
                self.tm.registry.remove_groups_with_worker(worker);
            }
        }
    }

    /// Drains evicted worker `w` ahead of an allocation change: move the
    /// latest copy of every partition the job exclusively holds there onto
    /// a worker of the new allocation, then forget the job's instances on
    /// it. A job that is mid-recovery is left alone: its data manager and
    /// outstanding count are about to be wholesale-restored by
    /// `complete_recovery`, which itself drops instances on workers no
    /// longer in the allocation and re-homes their checkpointed partitions —
    /// draining it here would corrupt exactly the state the restore is
    /// built on.
    pub(crate) fn drain_worker(
        &mut self,
        cx: &mut Shared,
        w: WorkerId,
        new_workers: &[WorkerId],
    ) -> ControllerResult<()> {
        if self.recovering() {
            return Ok(());
        }
        let partitions: Vec<LogicalPartition> = self
            .dm
            .instances
            .on_worker(w)
            .iter()
            .map(|i| i.logical)
            .collect();
        let mut commands = Vec::new();
        for lp in partitions {
            let holders = self.dm.instances.latest_holders(lp, &self.dm.versions);
            let only_here = holders.iter().all(|h| h.worker == w) && !holders.is_empty();
            if only_here {
                // Re-home deterministically among the new allocation.
                let idx = (lp.partition.raw() as usize) % new_workers.len();
                let target = new_workers[idx];
                self.dm.set_home(lp, target);
                refresh_instance(
                    lp,
                    target,
                    &mut self.dm,
                    &mut self.bk,
                    &self.ids,
                    &mut commands,
                )?;
            }
        }
        self.dispatch(cx, commands);
        self.dm.drop_worker(w);
        Ok(())
    }

    /// Releases the job's state everywhere: the workers drop its runtimes
    /// (stores, queues, templates) and the controller forgets it. The table
    /// entry is only marked done here; the shell's sweep removes it.
    pub(crate) fn release(&mut self, cx: &mut Shared) {
        for w in cx.workers().to_vec() {
            self.queue(cx, w, ControllerToWorker::DropJob { job: self.id }, 0);
        }
        self.done = true;
        self.inbox.clear();
        self.syncs.clear();
        self.recovery = None;
    }

    // ------------------------------------------------------------------
    // Talking to the cluster: everything leaves through the cork
    // ------------------------------------------------------------------

    fn dispatch(&mut self, cx: &mut Shared, commands: Vec<AssignedCommand>) {
        // Group into one message per worker while preserving program order.
        let mut per_worker: Vec<(WorkerId, Vec<Command>)> = Vec::new();
        for ac in commands {
            match per_worker.iter_mut().find(|(w, _)| *w == ac.worker) {
                Some((_, batch)) => batch.push(ac.command),
                None => per_worker.push((ac.worker, vec![ac.command])),
            }
        }
        for (worker, commands) in per_worker {
            let count = commands.len() as u64;
            let execute = ControllerToWorker::ExecuteCommands {
                job: self.id,
                commands,
            };
            self.queue(cx, worker, execute, count);
        }
    }

    /// Corks a hot-path message for `worker`, optimistically counting its
    /// `commands` as outstanding (see [`Job::settle`] for the other half).
    fn queue(&mut self, cx: &mut Shared, worker: WorkerId, msg: ControllerToWorker, commands: u64) {
        self.outstanding += commands;
        cx.queue(self.id, worker, msg, commands);
        self.settle(cx);
    }

    /// Sends `msg` to `worker` now, behind anything corked for it.
    fn send(
        &mut self,
        cx: &mut Shared,
        worker: WorkerId,
        msg: ControllerToWorker,
    ) -> ControllerResult<()> {
        let sent = cx.send(worker, msg);
        self.settle(cx);
        sent
    }

    /// Uncounts the commands a failed flush could not deliver, so they never
    /// inflate `outstanding`: the failure means the worker just died, its
    /// disconnect notice is (or shortly will be) in the inbox, and recovery
    /// rebuilds this state wholesale; erroring the driver here would race
    /// that notice, and keeping the count would wedge drains if recovery is
    /// impossible. The job's own sends settle at once; the shell settles a
    /// job before entering it for flushes made on another's behalf.
    ///
    /// The undeliverable commands may have been a pending checkpoint's
    /// `SaveData`s, and committing would record manifest keys that were
    /// never written — a recovery restoring that checkpoint would then load
    /// half a snapshot and fork the data state. So a pending
    /// `CheckpointSave` is demoted back to its drain step; if the failed
    /// sends were to a dead worker, its disconnect notice interrupts the
    /// drain and recovery restarts it against the recovered allocation.
    pub(crate) fn settle(&mut self, cx: &mut Shared) {
        let undelivered = cx.take_undelivered(self.id);
        if undelivered == 0 {
            return;
        }
        self.outstanding = self.outstanding.saturating_sub(undelivered);
        if matches!(self.syncs.front(), Some(PendingSync::CheckpointSave { .. })) {
            self.rewind_head();
        }
    }

    pub(crate) fn reply(&mut self, cx: &mut Shared, msg: ControllerToDriver) {
        cx.reply(self.driver, msg);
    }

    /// The one place an error reply is built.
    pub(crate) fn reply_error(&mut self, cx: &mut Shared, why: impl Display) {
        let message = why.to_string();
        self.reply(cx, ControllerToDriver::Error { message });
    }

    pub(crate) fn reply_result(
        &mut self,
        cx: &mut Shared,
        result: ControllerResult<ControllerToDriver>,
    ) {
        match result {
            Ok(msg) => self.reply(cx, msg),
            Err(e) => self.reply_error(cx, e),
        }
    }

    /// Answers the driver with an error *instead of* what it was waiting
    /// for: its oldest pending wait is the request this error answers, so
    /// that wait — and any silent auto-checkpoint queued ahead of it — is
    /// abandoned rather than answered a second time later.
    fn fail_wait(&mut self, cx: &mut Shared, why: impl Display) {
        while let Some(sync) = self.syncs.pop_front() {
            if sync.answers_driver() {
                break;
            }
        }
        self.reply_error(cx, why);
    }
}
