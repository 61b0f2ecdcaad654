//! Template management on the controller: recording basic blocks, generating
//! controller and worker templates, planning instantiations (with validation
//! and patching), and planning migration edits.
//!
//! This module implements Section 4 of the paper. Recording happens while the
//! block's tasks are being scheduled normally; at the end of the block the
//! recorded task stream is post-processed into table-based templates. On
//! later executions of the block the controller validates preconditions
//! (skipping validation entirely for back-to-back runs of a self-validating
//! template), patches data placement if needed, and sends one small
//! instantiation message per worker.
//!
//! Migrations (Section 4.3) are planned in exactly one place,
//! `plan_entry_move`, which both `migrate_tasks` and the rejoin handshake
//! reach through [`TemplateManager::plan_migrations`] /
//! [`TemplateManager::plan_migrations_to`]. A move transfers ownership of the
//! partition the task writes, so a moved task is an ordinary task of its new
//! worker and a block's size — entries, slots, instances, copies per
//! iteration — is bounded by the block, not by how often its tasks moved.

use std::collections::{BTreeMap, HashMap, HashSet};

use nimbus_core::graph::AssignedCommand;
use nimbus_core::ids::{
    CommandId, LogicalPartition, PhysicalObjectId, TaskId, TemplateId, TransferId, WorkerId,
};
use nimbus_core::task::TaskSpec;
use nimbus_core::template::{
    compute_patch, validate_preconditions, ControllerTaskEntry, ControllerTemplate,
    InstantiationParams, Patch, PatchCache, PatchDirective, Precondition, SkeletonEntry,
    SkeletonKind, TemplateEdit, TemplateRegistry, WorkerInstantiation, WorkerTemplate,
    WorkerTemplateGroup,
};
use nimbus_core::{Command, CommandKind, TaskParams};

use crate::data_manager::DataManager;
use crate::error::{ControllerError, ControllerResult};
use crate::expansion::{Bookkeeping, ExpandedTask, IdGens};

/// Result of finishing a recording: the controller template, its worker
/// template group, and the per-worker templates to install.
pub type InstalledTemplates = (TemplateId, TemplateId, Vec<(WorkerId, WorkerTemplate)>);

/// State accumulated while a basic block is being recorded.
pub struct RecordingState {
    /// The block name the driver supplied.
    pub name: String,
    entries: Vec<ControllerTaskEntry>,
    commands: Vec<AssignedCommand>,
    entry_of_command: HashMap<CommandId, usize>,
    lp_last_writer: HashMap<LogicalPartition, usize>,
    lp_readers: HashMap<LogicalPartition, Vec<usize>>,
}

impl RecordingState {
    /// Starts recording a block.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            entries: Vec::new(),
            commands: Vec::new(),
            entry_of_command: HashMap::new(),
            lp_last_writer: HashMap::new(),
            lp_readers: HashMap::new(),
        }
    }

    /// Records one task (already expanded and dispatched) into the block.
    pub fn record_task(&mut self, spec: &TaskSpec, expanded: &ExpandedTask) {
        let index = self.entries.len();
        let mut before = Vec::new();
        for lp in &spec.reads {
            if let Some(w) = self.lp_last_writer.get(lp) {
                before.push(*w);
            }
        }
        for lp in &spec.writes {
            if let Some(w) = self.lp_last_writer.get(lp) {
                before.push(*w);
            }
            if let Some(rs) = self.lp_readers.get(lp) {
                before.extend(rs.iter().copied());
            }
        }
        before.retain(|b| *b < index);
        before.sort_unstable();
        before.dedup();

        self.entries.push(ControllerTaskEntry {
            index,
            stage: spec.stage,
            function: spec.function,
            reads: spec.reads.clone(),
            writes: spec.writes.clone(),
            before,
            assigned_worker: expanded.worker,
            default_params: spec.params.clone(),
        });
        for lp in &spec.reads {
            self.lp_readers.entry(*lp).or_default().push(index);
        }
        for lp in &spec.writes {
            self.lp_last_writer.insert(*lp, index);
            self.lp_readers.insert(*lp, Vec::new());
        }
        self.commands.extend(expanded.commands.iter().cloned());
        self.entry_of_command.insert(expanded.task_command, index);
    }

    /// Number of tasks recorded so far.
    pub fn task_count(&self) -> usize {
        self.entries.len()
    }
}

/// Everything the controller must send to execute a planned instantiation.
pub struct InstantiationPlan {
    /// The worker-template group being instantiated.
    pub group: TemplateId,
    /// Commands to dispatch before the instantiation messages: the patch,
    /// and allocations for objects that edits introduced.
    pub patch_commands: Vec<AssignedCommand>,
    /// True if preconditions were violated and a patch was emitted.
    pub patched: bool,
    /// One instantiation message per worker.
    pub per_worker: Vec<(WorkerId, WorkerInstantiation)>,
    /// True if validation was skipped (back-to-back self-validating run).
    pub auto_validated: bool,
    /// True if a cached patch was reused.
    pub patch_cache_hit: bool,
    /// Number of worker commands this instantiation will produce.
    pub expected_commands: u64,
    /// Number of tasks this instantiation schedules.
    pub task_count: u64,
}

/// Controller-side template bookkeeping.
pub struct TemplateManager {
    /// Installed controller templates and worker-template groups.
    pub registry: TemplateRegistry,
    /// Cached patches.
    pub patch_cache: PatchCache,
    /// The group that executed most recently (for auto-validation and patch
    /// cache keys).
    pub last_executed: Option<TemplateId>,
    /// Instrumentation: basic-block recordings finished since creation. The
    /// membership-churn tests pin this against [`Self::edits_planned`] to
    /// prove that rejoin is served by edits, never by re-recording.
    pub recordings_finished: u64,
    /// Instrumentation: template edits queued since creation.
    pub edits_planned: u64,
    recording: Option<RecordingState>,
    /// Edits planned but not yet shipped, per group and worker.
    pending_edits: HashMap<TemplateId, HashMap<WorkerId, Vec<TemplateEdit>>>,
    /// Reusable sorted-worker scratch for [`Self::plan_instantiation`], so
    /// steady-state planning does not materialize a fresh worker list per
    /// block.
    worker_scratch: Vec<WorkerId>,
}

impl Default for TemplateManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateManager {
    /// Creates an empty template manager.
    pub fn new() -> Self {
        Self {
            registry: TemplateRegistry::new(),
            patch_cache: PatchCache::new(),
            last_executed: None,
            recordings_finished: 0,
            edits_planned: 0,
            recording: None,
            pending_edits: HashMap::new(),
            worker_scratch: Vec::new(),
        }
    }

    /// Returns true if a block is currently being recorded.
    pub fn is_recording(&self) -> bool {
        self.recording.is_some()
    }

    /// Starts recording a basic block.
    pub fn start_recording(&mut self, name: &str) -> ControllerResult<()> {
        if let Some(r) = &self.recording {
            return Err(ControllerError::RecordingStateMismatch(format!(
                "cannot start '{name}' while '{}' is still recording",
                r.name
            )));
        }
        self.recording = Some(RecordingState::new(name));
        Ok(())
    }

    /// Records an expanded task into the open block, if one is recording.
    pub fn record_task(&mut self, spec: &TaskSpec, expanded: &ExpandedTask) {
        if let Some(r) = &mut self.recording {
            r.record_task(spec, expanded);
        }
    }

    /// Finishes recording: builds and installs the controller template and
    /// the worker-template group, and returns the worker templates that must
    /// be installed on workers.
    pub fn finish_recording(
        &mut self,
        name: &str,
        dm: &DataManager,
        ids: &IdGens,
    ) -> ControllerResult<InstalledTemplates> {
        let recording = self.recording.take().ok_or_else(|| {
            ControllerError::RecordingStateMismatch(format!(
                "finish of '{name}' without a matching start"
            ))
        })?;
        if recording.name != name {
            return Err(ControllerError::RecordingStateMismatch(format!(
                "finish of '{name}' while recording '{}'",
                recording.name
            )));
        }
        let ct_id = TemplateId(ids.templates.next_raw());
        let controller_template =
            ControllerTemplate::new(ct_id, recording.name.clone(), recording.entries.clone())?;
        let group_id = TemplateId(ids.templates.next_raw());
        let group = build_group(
            group_id,
            &controller_template,
            &recording.commands,
            &recording.entry_of_command,
            dm,
        )?;
        let installs: Vec<(WorkerId, WorkerTemplate)> = group
            .per_worker
            .iter()
            .map(|(w, t)| (*w, t.clone()))
            .collect();
        self.registry
            .install_controller_template(controller_template);
        self.registry.install_group(group);
        self.recordings_finished += 1;
        Ok((ct_id, group_id, installs))
    }

    /// Abandons an in-progress recording without installing anything: the
    /// driver's block body failed, so the partial template is discarded.
    /// Aborting when nothing is recording is a no-op (templates may be
    /// disabled, or the start itself may have failed).
    pub fn abort_recording(&mut self, name: &str) -> ControllerResult<()> {
        match &self.recording {
            Some(r) if r.name != name => Err(ControllerError::RecordingStateMismatch(format!(
                "abort of '{name}' while recording '{}'",
                r.name
            ))),
            _ => {
                self.recording = None;
                Ok(())
            }
        }
    }

    /// Queues migration edits for the group currently serving `block`,
    /// migrating up to `count` tasks to other workers of the allocation
    /// (each worker sheds tasks to its successor in the sorted worker list).
    /// Returns how many tasks were actually planned for migration.
    pub fn plan_migrations(
        &mut self,
        block: &str,
        count: usize,
        workers: &[WorkerId],
        dm: &mut DataManager,
    ) -> ControllerResult<usize> {
        if workers.len() < 2 || count == 0 {
            return Ok(0);
        }
        let ct = self
            .registry
            .controller_template_by_name(block)
            .ok_or_else(|| ControllerError::UnknownBlock(block.to_string()))?;
        let ct_id = ct.id;
        let group_id = self
            .registry
            .find_group_for_workers(ct_id, workers)
            .map(|g| g.id)
            .ok_or_else(|| ControllerError::UnknownBlock(block.to_string()))?;
        self.plan_group_migrations(group_id, count, None, dm)
    }

    /// Queues migration edits moving up to `count` tasks of `group_id` onto
    /// `dest` (from every other member, round-robin). This is the
    /// partition-migration half of the rejoin handshake: a worker admitted
    /// into a running job receives its share of the block through template
    /// edits, never through re-recording.
    pub fn plan_migrations_to(
        &mut self,
        group_id: TemplateId,
        dest: WorkerId,
        count: usize,
        dm: &mut DataManager,
    ) -> ControllerResult<usize> {
        self.plan_group_migrations(group_id, count, Some(dest), dm)
    }

    /// Shared planner: migrates up to `count` tasks of the group. With
    /// `dest_override` every move targets that worker; otherwise each source
    /// sheds to its successor in the sorted member list.
    fn plan_group_migrations(
        &mut self,
        group_id: TemplateId,
        count: usize,
        dest_override: Option<WorkerId>,
        dm: &mut DataManager,
    ) -> ControllerResult<usize> {
        if count == 0 {
            return Ok(0);
        }
        let group = self.registry.group_mut(group_id)?;
        // Plan against the skeletons as they will be once every edit queued
        // by earlier rounds has shipped, so rounds compose.
        let mut view = PlannedView::new(group, self.pending_edits.get(&group_id))?;
        let worker_list: Vec<WorkerId> = group.workers();

        let mut planned = 0usize;
        // Where this round put the tasks it moved: a later source does not
        // pass them on again.
        let mut arrived: HashSet<(WorkerId, usize)> = HashSet::new();
        'outer: for (wi, source) in worker_list.iter().enumerate() {
            let dest = dest_override.unwrap_or(worker_list[(wi + 1) % worker_list.len()]);
            if dest == *source {
                continue;
            }
            // Indices are stable under edits, so a snapshot of the source's
            // task entries stays valid while they are moved one by one. Last
            // entries go first: what they leave behind is the skeleton's
            // tail, which the workers drop instead of keeping tombstones.
            let candidates: Vec<usize> = view
                .template(*source)?
                .entries
                .iter()
                .enumerate()
                .rev()
                .filter(|(i, e)| e.kind.is_task() && !arrived.contains(&(*source, *i)))
                .map(|(i, _)| i)
                .collect();
            for entry_index in candidates {
                if planned >= count {
                    break 'outer;
                }
                if let Some(at) = plan_entry_move(group, &mut view, dm, *source, dest, entry_index)?
                {
                    arrived.insert((dest, at));
                    planned += 1;
                }
            }
        }

        if planned > 0 {
            group.refresh_postconditions();
            self.patch_cache.invalidate_target(group_id);
            let pending = self.pending_edits.entry(group_id).or_default();
            for (w, edits) in view.new_edits {
                self.edits_planned += edits.len() as u64;
                pending.entry(w).or_default().extend(edits);
            }
        }
        Ok(planned)
    }

    /// Admits `joining` into every installed group as part of the rejoin
    /// handshake for a worker the controller has no live templates for:
    ///
    /// 1. Groups referencing a *previous incarnation* of the worker are
    ///    retired — their skeletons point at physical instances that died
    ///    with it and could never validate again.
    /// 2. Each surviving group gains an (initially empty) member template
    ///    for the worker, returned so the controller can install it.
    /// 3. A fair share of each group's tasks is queued to migrate onto the
    ///    worker through template edits; the data those tasks need follows
    ///    through the ordinary precondition/patch copy path.
    ///
    /// Returns the templates to install and the number of task migrations
    /// planned.
    pub fn admit_worker(
        &mut self,
        joining: WorkerId,
        workers_after: &[WorkerId],
        dm: &mut DataManager,
    ) -> ControllerResult<(Vec<WorkerTemplate>, usize)> {
        self.registry.remove_groups_with_worker(joining);
        let mut installs = Vec::new();
        let mut planned_total = 0usize;
        for group_id in self.registry.group_ids() {
            let share = {
                let group = self.registry.group(group_id)?;
                let total_tasks: usize = group.per_worker.values().map(|t| t.task_count()).sum();
                total_tasks / workers_after.len().max(1)
            };
            let template = {
                let group = self.registry.group_mut(group_id)?;
                match group.per_worker.get(&joining) {
                    Some(t) => t.clone(),
                    None => {
                        let t = WorkerTemplate::new(
                            group_id,
                            group.controller_template,
                            joining,
                            vec![],
                        )?;
                        group.per_worker.insert(joining, t.clone());
                        t
                    }
                }
            };
            installs.push(template);
            planned_total += self.plan_migrations_to(group_id, joining, share, dm)?;
        }
        Ok((installs, planned_total))
    }

    /// The installed (controller-side, hence patched and edited) worker
    /// templates of every group `worker` belongs to — what a worker
    /// returning within the rejoin grace window must reinstall, since its
    /// fresh process has an empty template cache.
    pub fn templates_for_worker(&self, worker: WorkerId) -> Vec<WorkerTemplate> {
        self.registry
            .group_ids()
            .into_iter()
            .filter_map(|id| self.registry.group(id).ok())
            .filter_map(|g| g.per_worker.get(&worker).cloned())
            .collect()
    }

    /// Plans the execution of an installed group: validation, patching,
    /// per-worker instantiation messages, and data-state updates.
    pub fn plan_instantiation(
        &mut self,
        group_id: TemplateId,
        params: &InstantiationParams,
        dm: &mut DataManager,
        bk: &mut Bookkeeping,
        ids: &IdGens,
    ) -> ControllerResult<InstantiationPlan> {
        let edits = self.pending_edits.remove(&group_id).unwrap_or_default();
        let has_edits = !edits.is_empty();

        // Apply pending edits to the controller's mirror of the skeletons so
        // both sides stay identical.
        {
            let group = self.registry.group_mut(group_id)?;
            for (worker, worker_edits) in &edits {
                if let Some(t) = group.per_worker.get_mut(worker) {
                    t.apply_edits(worker_edits)?;
                }
            }
        }
        // Borrowed, not cloned: the group holds every worker's skeleton, so
        // cloning it per instantiation was an O(tasks) allocation on the
        // single hottest path of the controller.
        let group = self.registry.group(group_id)?;
        let controller_template = self
            .registry
            .controller_template(group.controller_template)?;

        // Validation and patching (Section 4.2).
        let mut auto_validated = false;
        let mut patch_cache_hit = false;
        let mut patched = false;
        let mut patch_commands: Vec<AssignedCommand> = Vec::new();
        // Objects a shipped task entry uses may not exist on its new worker
        // yet. The patch below allocates the stale ones before filling them;
        // one that already validates — a new instance of a partition nothing
        // ever wrote is up to date at the factory version — is allocated
        // here (idempotent where the object exists).
        for (worker, worker_edits) in &edits {
            for edit in worker_edits {
                let (TemplateEdit::AddEntry { entry } | TemplateEdit::ReplaceEntry { entry, .. }) =
                    edit
                else {
                    continue;
                };
                if !entry.kind.is_task() {
                    continue;
                }
                for object in entry.reads.iter().chain(&entry.writes) {
                    let Some(inst) = dm.instances.get(*object) else {
                        continue;
                    };
                    if dm.is_up_to_date(*object) {
                        patch_commands.push(create_command(inst, *worker, bk, ids));
                    }
                }
            }
        }
        if self.last_executed == Some(group_id) && group.is_self_validating() && !has_edits {
            auto_validated = true;
        } else {
            let violated =
                validate_preconditions(&group.preconditions, &dm.instances, &dm.versions);
            if !violated.is_empty() {
                // A checkpoint restore rewinds the instance map, but the
                // template mirror keeps every edit applied since — so a
                // precondition may name an instance the restored map has
                // never heard of (created by a migration after the
                // checkpoint). Re-register it from the precondition's own
                // metadata, at the factory version: the patch below then
                // creates and fills it before any entry reads or writes it.
                // Without this the patch path has no destination to create
                // (`emit_patch_commands` skips unknown objects) and the copy
                // lands on a worker that was never told to allocate it.
                for pre in &violated {
                    if dm.instances.get(pre.physical).is_none() {
                        dm.instances.insert(nimbus_core::PhysicalInstance::new(
                            pre.physical,
                            pre.logical,
                            pre.worker,
                        ));
                    }
                }
                let cached = self.patch_cache.lookup(self.last_executed, group_id);
                let patch = match cached {
                    Some(p) if patch_covers(&p, &violated, dm) => {
                        patch_cache_hit = true;
                        p
                    }
                    _ => {
                        let p = compute_patch(group_id, &violated, &dm.instances, &dm.versions)?;
                        self.patch_cache
                            .store(self.last_executed, group_id, p.clone());
                        p
                    }
                };
                patched = !patch.is_empty();
                patch_commands.extend(emit_patch_commands(&patch, dm, bk, ids));
            }
        }

        // Parameters and fresh task identifiers.
        let per_entry_params = controller_template.resolve_params(params)?;
        let task_count = controller_template.task_count();
        let task_base = ids.tasks.next_block(task_count as u64);
        let base_transfer = ids.transfers.next_block(group.transfer_slots.max(1) as u64);

        // Patch commands are dispatched (and counted) separately by the
        // controller; expected_commands covers only the template's entries.
        let mut per_worker = Vec::with_capacity(group.per_worker.len());
        let mut expected_commands = 0u64;
        self.worker_scratch.clear();
        self.worker_scratch.extend(group.per_worker.keys().copied());
        self.worker_scratch.sort_unstable();
        for &worker in &self.worker_scratch {
            let template = &group.per_worker[&worker];
            let live_entries = template.entries.iter().filter(|e| !e.kind.is_nop()).count() as u64;
            expected_commands += live_entries;
            let base_command = ids.commands.next_block(template.len().max(1) as u64);
            let slot_map: &[usize] = group
                .task_slot_map
                .get(&worker)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let task_ids: Vec<TaskId> = slot_map
                .iter()
                .map(|entry| TaskId(task_base + *entry as u64))
                .collect();
            let params_vec: Vec<TaskParams> = slot_map
                .iter()
                .map(|entry| {
                    per_entry_params
                        .get(*entry)
                        .cloned()
                        .unwrap_or_else(TaskParams::empty)
                })
                .collect();
            per_worker.push((
                worker,
                WorkerInstantiation {
                    template: group_id,
                    base_command_id: base_command,
                    base_transfer_id: base_transfer,
                    task_ids,
                    params: params_vec,
                    edits: edits.get(&worker).cloned().unwrap_or_default(),
                },
            ));
        }

        // Advance the version map and instance versions according to the
        // cached per-block write totals and exit offsets.
        let mut entry_versions: HashMap<LogicalPartition, u64> = HashMap::new();
        for lp in group.write_totals.keys() {
            entry_versions.insert(*lp, dm.versions.current(*lp).raw());
        }
        for po in group.exit_offsets.keys() {
            if let Some(inst) = dm.instances.get(*po) {
                entry_versions
                    .entry(inst.logical)
                    .or_insert_with(|| dm.versions.current(inst.logical).raw());
            }
        }
        for (lp, total) in &group.write_totals {
            dm.versions.bump_by(*lp, *total);
        }
        for (po, offset) in &group.exit_offsets {
            if let Some(inst) = dm.instances.get(*po) {
                let lp = inst.logical;
                let base = entry_versions.get(&lp).copied().unwrap_or(0);
                let _ = dm
                    .instances
                    .set_version(*po, nimbus_core::Version(base + *offset));
            }
        }

        self.last_executed = Some(group_id);
        Ok(InstantiationPlan {
            group: group_id,
            patch_commands,
            patched,
            per_worker,
            auto_validated,
            patch_cache_hit,
            expected_commands,
            task_count: task_count as u64,
        })
    }
}

/// A group's skeletons as they will be once every queued edit has shipped:
/// the controller's mirror with the pending edits replayed on a copy. The
/// move planner reads this view and extends it, so it hands out the indices
/// and slots the workers will see however many planning rounds run between
/// two instantiations. (The mirror itself changes only when edits ship, so it
/// always equals what is installed on the workers.)
struct PlannedView {
    templates: BTreeMap<WorkerId, WorkerTemplate>,
    /// Edits planned through this view, per worker, in application order.
    new_edits: HashMap<WorkerId, Vec<TemplateEdit>>,
}

impl PlannedView {
    fn new(
        group: &WorkerTemplateGroup,
        pending: Option<&HashMap<WorkerId, Vec<TemplateEdit>>>,
    ) -> ControllerResult<Self> {
        let mut templates = group.per_worker.clone();
        for (worker, edits) in pending.into_iter().flatten() {
            if let Some(template) = templates.get_mut(worker) {
                for edit in edits {
                    template.apply_edit(edit)?;
                }
            }
        }
        Ok(Self {
            templates,
            new_edits: HashMap::new(),
        })
    }

    fn template(&self, worker: WorkerId) -> ControllerResult<&WorkerTemplate> {
        self.templates
            .get(&worker)
            .ok_or(ControllerError::UnknownWorker(worker))
    }

    fn apply(&mut self, worker: WorkerId, edit: TemplateEdit) -> ControllerResult<()> {
        self.templates
            .get_mut(&worker)
            .ok_or(ControllerError::UnknownWorker(worker))?
            .apply_edit(&edit)?;
        self.new_edits.entry(worker).or_default().push(edit);
        Ok(())
    }

    /// Puts `entry` at the lowest free index at or above `min` — a slot an
    /// earlier move tombstoned, else the end — and returns that index.
    /// Workers order the commands of one instantiation that touch the same
    /// object by entry index, so `min` is how a caller keeps a new entry
    /// behind the ones it must follow.
    fn place(
        &mut self,
        worker: WorkerId,
        min: usize,
        entry: SkeletonEntry,
    ) -> ControllerResult<usize> {
        let template = self.template(worker)?;
        let index = template.first_free_index(min);
        let edit = if index < template.len() {
            TemplateEdit::ReplaceEntry { index, entry }
        } else {
            TemplateEdit::AddEntry { entry }
        };
        self.apply(worker, edit)?;
        Ok(index)
    }

    /// The lowest block-scoped transfer slot no live send or receive uses.
    fn free_transfer_slot(&self) -> usize {
        let used: HashSet<usize> = self
            .templates
            .values()
            .flat_map(|t| &t.entries)
            .filter_map(|e| match &e.kind {
                SkeletonKind::SendCopy { transfer_slot, .. }
                | SkeletonKind::ReceiveCopy { transfer_slot, .. } => Some(*transfer_slot),
                _ => None,
            })
            .collect();
        (0..used.len())
            .find(|slot| !used.contains(slot))
            .unwrap_or(used.len())
    }

    /// Index of the live receive on `worker` that takes `transfer_slot`.
    fn receive_of(&self, worker: WorkerId, transfer_slot: usize) -> Option<usize> {
        self.templates.get(&worker)?.entries.iter().position(|e| {
            matches!(&e.kind, SkeletonKind::ReceiveCopy { transfer_slot: s, .. } if *s == transfer_slot)
        })
    }

    /// Index of the last live entry on `worker` that writes `object`.
    fn last_writer_of(&self, worker: WorkerId, object: PhysicalObjectId) -> Option<usize> {
        self.templates
            .get(&worker)?
            .entries
            .iter()
            .rposition(|e| e.writes_object(object))
    }

    /// True if a live entry on `worker` reads or writes `object`.
    fn touches(&self, worker: WorkerId, object: PhysicalObjectId) -> bool {
        self.templates.get(&worker).is_some_and(|t| {
            t.entries
                .iter()
                .any(|e| e.reads_object(object) || e.writes_object(object))
        })
    }
}

/// An instance of `lp` on `worker` that nothing uses — no live entry touches
/// it and the group holds no precondition on it, typically what an earlier
/// move left behind — or, failing that, a newly registered one. Reuse keeps
/// the number of instances bounded by partitions × workers rather than by
/// the number of migrations.
fn spare_instance(
    group: &WorkerTemplateGroup,
    view: &PlannedView,
    dm: &mut DataManager,
    lp: LogicalPartition,
    worker: WorkerId,
) -> PhysicalObjectId {
    let spare = dm
        .instances
        .instances_of(lp)
        .into_iter()
        .filter(|inst| inst.worker == worker)
        .map(|inst| inst.id)
        .filter(|id| {
            !view.touches(worker, *id) && !group.preconditions.iter().any(|p| p.physical == *id)
        })
        .min();
    spare.unwrap_or_else(|| dm.create_dedicated_instance(lp, worker).id)
}

/// Adds the precondition "`object` on `worker` holds the latest `lp` at block
/// entry" unless the group already has it.
fn require(
    group: &mut WorkerTemplateGroup,
    worker: WorkerId,
    object: PhysicalObjectId,
    lp: LogicalPartition,
) {
    if !group.preconditions.iter().any(|p| p.physical == object) {
        group
            .preconditions
            .push(Precondition::new(worker, object, lp));
    }
}

/// Moves one task entry from `source` to `dest` by transferring ownership of
/// the partition it writes: the destination's instance becomes the block's
/// up-to-date holder (its precondition and exit offset move with the task,
/// the source's are dropped) and is filled once, by validation and patching
/// on the first edited instantiation. Afterwards the task is an ordinary task
/// of its new worker — moving it again, or home, is this same operation, so
/// hops never chain:
///
/// * sends of the output to other workers move with the task (the receiving
///   side is re-pointed); a send to `dest` itself disappears, the task taking
///   the place of the matching receive and writing its object directly;
/// * only if a live entry left on the source still reads the output does the
///   Figure 6 pair appear — the destination sends the result back and the
///   source's task slot becomes the matching receive; otherwise the slot is
///   tombstoned and nothing is copied per iteration.
///
/// New entries go to tombstoned indices, freed task and transfer slots, and
/// unused instances before anything is appended or allocated. Returns the
/// index the task took on `dest`, or `None` (nothing changed) when the entry
/// cannot move: it waits for in-block work on the source, or another entry
/// there also writes its output.
fn plan_entry_move(
    group: &mut WorkerTemplateGroup,
    view: &mut PlannedView,
    dm: &mut DataManager,
    source: WorkerId,
    dest: WorkerId,
    index: usize,
) -> ControllerResult<Option<usize>> {
    let st = view.template(source)?;
    let Some(entry) = st.entries.get(index) else {
        return Ok(None);
    };
    let SkeletonKind::RunTask {
        function,
        task_slot,
    } = entry.kind
    else {
        return Ok(None);
    };
    let &[output] = entry.writes.as_slice() else {
        return Ok(None);
    };
    // A task that waits for other entries of the block consumes data made
    // during the block; only tasks that start from block-entry state move.
    if st.has_live_before(index) {
        return Ok(None);
    }
    let Some(output_lp) = dm.instances.get(output).map(|i| i.logical) else {
        return Ok(None);
    };
    let Some(controller_entry) = group
        .task_slot_map
        .get(&source)
        .and_then(|m| m.get(task_slot))
        .copied()
    else {
        return Ok(None);
    };
    // The partitions behind the task's inputs (its output aside), in read
    // order.
    let mut input_lps = Vec::with_capacity(entry.reads.len());
    for read in entry.reads.iter().filter(|r| **r != output) {
        let Some(inst) = dm.instances.get(*read) else {
            return Ok(None);
        };
        input_lps.push((*read, inst.logical));
    }

    // Who else on the source uses the output: sends travel with the task,
    // any other reader keeps a copy coming back, another writer pins it.
    let mut forwards: Vec<(usize, WorkerId, usize)> = Vec::new();
    let mut read_on_source = false;
    for (j, other) in st.entries.iter().enumerate() {
        if j == index {
            continue;
        }
        if other.writes_object(output) {
            return Ok(None);
        }
        if !other.reads_object(output) {
            continue;
        }
        match &other.kind {
            SkeletonKind::SendCopy {
                to_worker,
                transfer_slot,
                ..
            } => forwards.push((j, *to_worker, *transfer_slot)),
            _ => read_on_source = true,
        }
    }
    // A copy `dest` already receives: the task takes the receive's place.
    let mut home: Option<(usize, PhysicalObjectId)> = None;
    for (_, to_worker, slot) in &forwards {
        if *to_worker != dest {
            continue;
        }
        let dt = view.template(dest)?;
        // In place means updating the received object, so it must reach
        // the task in its block-entry state: nothing ordered before the
        // receive, and no other writer.
        let receive = view.receive_of(dest, *slot).and_then(|k| {
            let SkeletonKind::ReceiveCopy { to, .. } = dt.entries[k].kind else {
                return None;
            };
            let sole_writer = dt
                .entries
                .iter()
                .enumerate()
                .all(|(j, e)| j == k || !e.writes_object(to));
            (sole_writer && !dt.has_live_before(k)).then_some((k, to))
        });
        if home.is_some() || receive.is_none() {
            return Ok(None);
        }
        home = receive;
    }
    let entry = entry.clone();

    // The task, on the destination.
    let (dest_output, at) = match home {
        Some((k, object)) => (object, k),
        None => (
            spare_instance(group, view, dm, output_lp, dest),
            view.template(dest)?.first_free_index(0),
        ),
    };
    let slot = view.template(dest)?.first_free_task_slot();
    let mut inputs = Vec::with_capacity(input_lps.len());
    for (_, lp) in &input_lps {
        inputs.push((*lp, choose_input(group, view, dm, dest, *lp, at)?));
    }
    let mut chosen = inputs.iter().map(|(_, input)| input.object());
    let dest_reads: Vec<PhysicalObjectId> = entry
        .reads
        .iter()
        .filter_map(|read| {
            if *read == output {
                Some(dest_output)
            } else {
                chosen.next()
            }
        })
        .collect();
    let mut task = SkeletonEntry::new(SkeletonKind::RunTask {
        function,
        task_slot: slot,
    })
    .with_reads(dest_reads)
    .with_writes(vec![dest_output])
    .with_default_params(entry.default_params.clone());
    task.param_slot = entry.param_slot.map(|_| slot);
    if home.is_some() {
        view.apply(
            dest,
            TemplateEdit::ReplaceEntry {
                index: at,
                entry: task,
            },
        )?;
    } else {
        view.place(dest, at, task)?;
    }
    for (lp, input) in inputs {
        maintain_input(group, view, dm, dest, lp, input, at)?;
    }

    // Sends of the output now leave from the destination.
    for (j, to_worker, transfer_slot) in forwards {
        view.apply(source, TemplateEdit::RemoveEntry { index: j })?;
        if to_worker == dest {
            continue;
        }
        view.place(
            dest,
            at + 1,
            SkeletonEntry::new(SkeletonKind::SendCopy {
                from: dest_output,
                to_worker,
                transfer_slot,
            })
            .with_reads(vec![dest_output])
            .with_before(vec![at]),
        )?;
        if let Some(k) = view.receive_of(to_worker, transfer_slot) {
            let mut receive = view.template(to_worker)?.entries[k].clone();
            if let SkeletonKind::ReceiveCopy { from_worker, .. } = &mut receive.kind {
                *from_worker = dest;
            }
            view.apply(
                to_worker,
                TemplateEdit::ReplaceEntry {
                    index: k,
                    entry: receive,
                },
            )?;
        }
    }

    // The task's old slot on the source.
    if read_on_source {
        let transfer_slot = view.free_transfer_slot();
        group.transfer_slots = group.transfer_slots.max(transfer_slot + 1);
        view.place(
            dest,
            at + 1,
            SkeletonEntry::new(SkeletonKind::SendCopy {
                from: dest_output,
                to_worker: source,
                transfer_slot,
            })
            .with_reads(vec![dest_output])
            .with_before(vec![at]),
        )?;
        view.apply(
            source,
            TemplateEdit::ReplaceEntry {
                index,
                entry: SkeletonEntry::new(SkeletonKind::ReceiveCopy {
                    to: output,
                    from_worker: dest,
                    transfer_slot,
                })
                .with_writes(vec![output]),
            },
        )?;
    } else {
        view.apply(source, TemplateEdit::RemoveEntry { index })?;
    }

    // Ownership of the written partition: the destination's object must hold
    // the block-entry version (tasks update in place) and ends the block with
    // the task's write; the source's object is either refreshed by the copy
    // coming back — overwritten before anything reads it, so no longer a
    // precondition — or out of the block altogether.
    if let Some(offset) = group.exit_offsets.get(&output).copied() {
        group.exit_offsets.insert(dest_output, offset);
    }
    if !read_on_source {
        group.exit_offsets.remove(&output);
    }
    group.preconditions.retain(|p| p.physical != output);
    require(group, dest, dest_output, output_lp);
    // Inputs only this task read on the source need no upkeep there.
    for (read, _) in &input_lps {
        if !view.touches(source, *read) {
            group.preconditions.retain(|p| p.physical != *read);
        }
    }

    // One place hands out task slots: slot `s` of a worker is filled from
    // controller entry `task_slot_map[worker][s]` for as long as a live entry
    // uses `s`; unused trailing slots are not sent.
    let dest_slots = group.task_slot_map.entry(dest).or_default();
    if slot >= dest_slots.len() {
        dest_slots.resize(slot + 1, controller_entry);
    }
    dest_slots[slot] = controller_entry;
    if let Some(source_slots) = group.task_slot_map.get_mut(&source) {
        let in_use = view
            .template(source)?
            .entries
            .iter()
            .filter_map(|e| match &e.kind {
                SkeletonKind::RunTask { task_slot, .. } => Some(task_slot + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        source_slots.truncate(in_use);
    }
    Ok(Some(at))
}

/// How a moved task gets one of its inputs on the destination.
enum InputPlan {
    /// An object the destination already keeps up to date. Its in-block
    /// writers listed here sit below the task's index and are re-placed
    /// behind it, so the task still reads the block-entry contents.
    Shared {
        object: PhysicalObjectId,
        writers_to_move: Vec<usize>,
    },
    /// A spare or new object, which the move starts keeping up to date.
    Fresh { object: PhysicalObjectId },
}

impl InputPlan {
    fn object(&self) -> PhysicalObjectId {
        match self {
            InputPlan::Shared { object, .. } | InputPlan::Fresh { object } => *object,
        }
    }
}

/// Picks the destination object a task about to sit at index `at` reads
/// `lp` from. Changes nothing in the view (it may register an instance).
fn choose_input(
    group: &WorkerTemplateGroup,
    view: &PlannedView,
    dm: &mut DataManager,
    dest: WorkerId,
    lp: LogicalPartition,
    at: usize,
) -> ControllerResult<InputPlan> {
    let template = view.template(dest)?;
    let mut maintained: Vec<PhysicalObjectId> = group
        .preconditions
        .iter()
        .filter(|p| p.worker == dest && p.logical == lp)
        .map(|p| p.physical)
        .collect();
    maintained.sort_unstable();
    'objects: for object in maintained {
        // The task must come before every in-block writer of the object. A
        // writer below it can step behind it if it is a plain refresh copy
        // nothing waits for; a task writing in place cannot.
        let mut writers_to_move = Vec::new();
        for (j, e) in template.entries.iter().enumerate().take(at) {
            if !e.writes_object(object) {
                continue;
            }
            let refresh = matches!(
                e.kind,
                SkeletonKind::ReceiveCopy { .. } | SkeletonKind::LocalCopy { .. }
            );
            let awaited = template.entries.iter().any(|o| o.before.contains(&j));
            if !refresh || awaited {
                continue 'objects;
            }
            writers_to_move.push(j);
        }
        return Ok(InputPlan::Shared {
            object,
            writers_to_move,
        });
    }
    Ok(InputPlan::Fresh {
        object: spare_instance(group, view, dm, lp, dest),
    })
}

/// Carries out an [`InputPlan`] once the task sits at index `at` on `dest`.
fn maintain_input(
    group: &mut WorkerTemplateGroup,
    view: &mut PlannedView,
    dm: &DataManager,
    dest: WorkerId,
    lp: LogicalPartition,
    input: InputPlan,
    at: usize,
) -> ControllerResult<()> {
    let object = match input {
        InputPlan::Shared {
            writers_to_move, ..
        } => {
            for j in writers_to_move {
                let template = view.template(dest)?;
                let mut writer = template.entries[j].clone();
                writer.before.retain(|dep| template.is_live(*dep));
                writer.before.push(at);
                view.apply(dest, TemplateEdit::RemoveEntry { index: j })?;
                view.place(dest, at + 1, writer)?;
            }
            return Ok(());
        }
        InputPlan::Fresh { object } => object,
    };
    require(group, dest, object, lp);
    let total = group.write_totals.get(&lp).copied().unwrap_or(0);
    if total == 0 {
        return Ok(());
    }
    // The block writes this partition: add the end-of-block refresh template
    // generation gives every precondition, from the object that ends the
    // block with the last write. Later arrivals share the refreshed object.
    // Preferably a local one, else the one a task wrote rather than a copy
    // of it, so that refreshes fan out from the origin and never chain.
    let holder = group
        .exit_offsets
        .iter()
        .filter(|(_, offset)| **offset == total)
        .filter_map(|(po, _)| dm.instances.get(*po))
        .filter(|inst| inst.logical == lp)
        .map(|inst| {
            let copied = view
                .last_writer_of(inst.worker, inst.id)
                .and_then(|w| view.templates.get(&inst.worker)?.entries.get(w))
                .is_some_and(|e| !e.kind.is_task());
            (inst.worker != dest, copied, inst.id, inst.worker)
        })
        .min();
    let Some((_, _, holder, holder_worker)) = holder else {
        // Nothing to copy from: validation patches the object every time.
        return Ok(());
    };
    let last_write = view.last_writer_of(holder_worker, holder);
    let after_write = last_write.map_or(0, |w| w + 1);
    if holder_worker == dest {
        view.place(
            dest,
            after_write.max(at + 1),
            SkeletonEntry::new(SkeletonKind::LocalCopy {
                from: holder,
                to: object,
            })
            .with_before(last_write.into_iter().chain([at]).collect()),
        )?;
    } else {
        let transfer_slot = view.free_transfer_slot();
        group.transfer_slots = group.transfer_slots.max(transfer_slot + 1);
        view.place(
            holder_worker,
            after_write,
            SkeletonEntry::new(SkeletonKind::SendCopy {
                from: holder,
                to_worker: dest,
                transfer_slot,
            })
            .with_reads(vec![holder])
            .with_before(last_write.into_iter().collect()),
        )?;
        view.place(
            dest,
            at + 1,
            SkeletonEntry::new(SkeletonKind::ReceiveCopy {
                to: object,
                from_worker: holder_worker,
                transfer_slot,
            })
            .with_writes(vec![object])
            .with_before(vec![at]),
        )?;
    }
    group.exit_offsets.insert(object, total);
    Ok(())
}

/// The (idempotent) command that allocates `instance` on `worker`.
fn create_command(
    instance: &nimbus_core::PhysicalInstance,
    worker: WorkerId,
    bk: &mut Bookkeeping,
    ids: &IdGens,
) -> AssignedCommand {
    let id = ids.command();
    let command = Command::new(
        id,
        CommandKind::CreateData {
            object: instance.id,
            logical: instance.logical,
        },
    );
    bk.note_write(instance.id, id);
    AssignedCommand { command, worker }
}

/// Returns true if a cached patch still repairs all violated preconditions
/// with up-to-date sources.
fn patch_covers(patch: &Patch, violated: &[Precondition], dm: &DataManager) -> bool {
    violated.iter().all(|pre| {
        patch.directives.iter().any(|d| match d {
            PatchDirective::LocalCopy { to, from, .. } => {
                *to == pre.physical && dm.is_up_to_date(*from)
            }
            PatchDirective::Transfer { to, from, .. } => {
                *to == pre.physical && dm.is_up_to_date(*from)
            }
        })
    })
}

/// Converts patch directives into dispatchable commands, updating the data
/// manager and dependency bookkeeping.
pub fn emit_patch_commands(
    patch: &Patch,
    dm: &mut DataManager,
    bk: &mut Bookkeeping,
    ids: &IdGens,
) -> Vec<AssignedCommand> {
    let mut out = Vec::with_capacity(patch.directives.len() * 2);
    // Destinations introduced by edits (or re-registered after a restore) may
    // not exist on the worker yet; prepend an idempotent create so the copy
    // always has somewhere to land.
    let ensure_exists = |to: &PhysicalObjectId,
                         worker: WorkerId,
                         out: &mut Vec<AssignedCommand>,
                         dm: &DataManager,
                         bk: &mut Bookkeeping,
                         ids: &IdGens| {
        if let Some(inst) = dm.instances.get(*to) {
            out.push(create_command(inst, worker, bk, ids));
        }
    };
    for d in &patch.directives {
        match d {
            PatchDirective::LocalCopy { worker, from, to } => {
                ensure_exists(to, *worker, &mut out, dm, bk, ids);
                let id = ids.command();
                let mut before = bk.read_deps(*from);
                before.extend(bk.write_deps(*to));
                before.sort_unstable();
                before.dedup();
                let command = Command::new(
                    id,
                    CommandKind::LocalCopy {
                        from: *from,
                        to: *to,
                    },
                )
                .with_before(before);
                bk.note_read(*from, id);
                bk.note_write(*to, id);
                out.push(AssignedCommand {
                    command,
                    worker: *worker,
                });
                if let Some(inst) = dm.instances.get(*to) {
                    dm.record_refresh(inst.logical, *to);
                }
            }
            PatchDirective::Transfer {
                from_worker,
                from,
                to_worker,
                to,
            } => {
                ensure_exists(to, *to_worker, &mut out, dm, bk, ids);
                let transfer = ids.transfer();
                let send_id = ids.command();
                let send = Command::new(
                    send_id,
                    CommandKind::SendCopy {
                        from: *from,
                        to_worker: *to_worker,
                        transfer,
                    },
                )
                .with_before(bk.read_deps(*from));
                bk.note_read(*from, send_id);
                out.push(AssignedCommand {
                    command: send,
                    worker: *from_worker,
                });
                let recv_id = ids.command();
                let recv = Command::new(
                    recv_id,
                    CommandKind::ReceiveCopy {
                        to: *to,
                        from_worker: *from_worker,
                        transfer,
                    },
                )
                .with_before(bk.write_deps(*to));
                bk.note_write(*to, recv_id);
                out.push(AssignedCommand {
                    command: recv,
                    worker: *to_worker,
                });
                if let Some(inst) = dm.instances.get(*to) {
                    dm.record_refresh(inst.logical, *to);
                }
            }
        }
    }
    out
}

/// Returns the objects a command implicitly reads and writes (copy sources
/// and destinations included).
fn accesses(command: &Command) -> (Vec<PhysicalObjectId>, Vec<PhysicalObjectId>) {
    let mut reads = command.read_set.clone();
    let mut writes = command.write_set.clone();
    match &command.kind {
        CommandKind::LocalCopy { from, to } => {
            reads.push(*from);
            writes.push(*to);
        }
        CommandKind::SendCopy { from, .. } => reads.push(*from),
        CommandKind::ReceiveCopy { to, .. } => writes.push(*to),
        CommandKind::LoadData { object, .. } => writes.push(*object),
        CommandKind::SaveData { object, .. } => reads.push(*object),
        CommandKind::CreateData { object, .. } => writes.push(*object),
        CommandKind::DestroyData { object } => writes.push(*object),
        CommandKind::RunTask { .. } => {}
    }
    reads.sort_unstable();
    reads.dedup();
    writes.sort_unstable();
    writes.dedup();
    reads.retain(|r| !writes.contains(r));
    (reads, writes)
}

struct PerWorkerBuild {
    entries: Vec<SkeletonEntry>,
    task_slots: usize,
    obj_last_writer: HashMap<PhysicalObjectId, usize>,
    obj_readers: HashMap<PhysicalObjectId, Vec<usize>>,
    written: HashSet<PhysicalObjectId>,
}

impl PerWorkerBuild {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            task_slots: 0,
            obj_last_writer: HashMap::new(),
            obj_readers: HashMap::new(),
            written: HashSet::new(),
        }
    }
}

/// Builds a worker-template group from the commands recorded for one basic
/// block (Section 4.1).
pub fn build_group(
    group_id: TemplateId,
    controller_template: &ControllerTemplate,
    commands: &[AssignedCommand],
    entry_of_command: &HashMap<CommandId, usize>,
    dm: &DataManager,
) -> ControllerResult<WorkerTemplateGroup> {
    let mut builds: HashMap<WorkerId, PerWorkerBuild> = HashMap::new();
    let mut local_index: HashMap<CommandId, (WorkerId, usize)> = HashMap::new();
    let mut transfer_slots: HashMap<TransferId, usize> = HashMap::new();
    let mut task_slot_map: HashMap<WorkerId, Vec<usize>> = HashMap::new();
    let mut preconditions: Vec<Precondition> = Vec::new();
    let mut precondition_objs: HashSet<PhysicalObjectId> = HashSet::new();

    // Exit-offset simulation state (program order).
    let mut lp_writes: HashMap<LogicalPartition, u64> = HashMap::new();
    let mut obj_offset: HashMap<PhysicalObjectId, u64> = HashMap::new();
    let mut transfer_offset: HashMap<TransferId, u64> = HashMap::new();

    for ac in commands {
        // Data creation is one-time setup, not part of the repetitive block:
        // replaying a create neither allocates anything new (workers treat it
        // as idempotent) nor refreshes the object's contents, so it must not
        // count as an in-block write for precondition analysis. Drop it from
        // the template; dependencies on it resolve through the worker's local
        // completion history.
        if matches!(ac.command.kind, CommandKind::CreateData { .. }) {
            continue;
        }
        let worker = ac.worker;
        let build = builds.entry(worker).or_insert_with(PerWorkerBuild::new);
        let index = build.entries.len();
        local_index.insert(ac.command.id, (worker, index));

        let (reads, writes) = accesses(&ac.command);
        // Preconditions: objects read before any in-block write.
        for obj in &reads {
            if !build.written.contains(obj) && !precondition_objs.contains(obj) {
                if let Some(inst) = dm.instances.get(*obj) {
                    preconditions.push(Precondition::new(worker, *obj, inst.logical));
                    precondition_objs.insert(*obj);
                }
            }
        }
        // Nimbus data objects are mutable: a task write updates the object's
        // current contents in place, so an object a task writes before any
        // in-block refresh depends on the block-entry version exactly like a
        // read does. Copy, load, and receive destinations are full overwrites
        // and carry no such dependency.
        if matches!(ac.command.kind, CommandKind::RunTask { .. }) {
            for obj in &writes {
                if !build.written.contains(obj) && !precondition_objs.contains(obj) {
                    if let Some(inst) = dm.instances.get(*obj) {
                        preconditions.push(Precondition::new(worker, *obj, inst.logical));
                        precondition_objs.insert(*obj);
                    }
                }
            }
        }

        let next_slot = transfer_slots.len();
        let kind = match &ac.command.kind {
            CommandKind::CreateData { object, logical } => {
                obj_offset.insert(*object, 0);
                SkeletonKind::CreateData {
                    object: *object,
                    logical: *logical,
                }
            }
            CommandKind::DestroyData { object } => SkeletonKind::DestroyData { object: *object },
            CommandKind::LocalCopy { from, to } => {
                let off = obj_offset.get(from).copied().unwrap_or(0);
                obj_offset.insert(*to, off);
                SkeletonKind::LocalCopy {
                    from: *from,
                    to: *to,
                }
            }
            CommandKind::SendCopy {
                from,
                to_worker,
                transfer,
            } => {
                let slot = *transfer_slots.entry(*transfer).or_insert(next_slot);
                transfer_offset.insert(*transfer, obj_offset.get(from).copied().unwrap_or(0));
                SkeletonKind::SendCopy {
                    from: *from,
                    to_worker: *to_worker,
                    transfer_slot: slot,
                }
            }
            CommandKind::ReceiveCopy {
                to,
                from_worker,
                transfer,
            } => {
                let slot = *transfer_slots.entry(*transfer).or_insert(next_slot);
                let off = transfer_offset.get(transfer).copied().unwrap_or(0);
                obj_offset.insert(*to, off);
                SkeletonKind::ReceiveCopy {
                    to: *to,
                    from_worker: *from_worker,
                    transfer_slot: slot,
                }
            }
            CommandKind::LoadData { object, key } => {
                obj_offset.insert(*object, 0);
                SkeletonKind::LoadData {
                    object: *object,
                    key: key.clone(),
                }
            }
            CommandKind::SaveData { object, key } => SkeletonKind::SaveData {
                object: *object,
                key: key.clone(),
            },
            CommandKind::RunTask { function, .. } => {
                let slot = build.task_slots;
                build.task_slots += 1;
                let entry_index = entry_of_command.get(&ac.command.id).copied().unwrap_or(0);
                task_slot_map.entry(worker).or_default().push(entry_index);
                for obj in &ac.command.write_set {
                    if let Some(inst) = dm.instances.get(*obj) {
                        let count = lp_writes.entry(inst.logical).or_insert(0);
                        *count += 1;
                        obj_offset.insert(*obj, *count);
                    }
                }
                SkeletonKind::RunTask {
                    function: *function,
                    task_slot: slot,
                }
            }
        };

        let before: Vec<usize> = ac
            .command
            .before
            .iter()
            .filter_map(|dep| match local_index.get(dep) {
                Some((w, idx)) if *w == worker => Some(*idx),
                _ => None,
            })
            .collect();
        let param_slot = match &kind {
            SkeletonKind::RunTask { task_slot, .. } => Some(*task_slot),
            _ => None,
        };
        let entry = SkeletonEntry {
            kind,
            reads: ac.command.read_set.clone(),
            writes: ac.command.write_set.clone(),
            before,
            param_slot,
            default_params: ac.command.params.clone(),
        };
        for obj in &reads {
            build.obj_readers.entry(*obj).or_default().push(index);
        }
        for obj in &writes {
            build.obj_last_writer.insert(*obj, index);
            build.obj_readers.insert(*obj, Vec::new());
            build.written.insert(*obj);
        }
        build.entries.push(entry);
    }

    // Append end-of-block refresh copies so the template meets its own
    // preconditions at exit (auto-validation of tight loops, Section 4.2).
    let mut next_transfer_slot = transfer_slots.len();
    let mut refreshed: HashSet<PhysicalObjectId> = HashSet::new();
    for pre in &preconditions {
        let total = lp_writes.get(&pre.logical).copied().unwrap_or(0);
        let current = obj_offset.get(&pre.physical).copied().unwrap_or(0);
        if current == total {
            continue;
        }
        // Find a source object holding the block-exit version of the same
        // partition: one on the same worker if there is one, else one the
        // recorded block itself left current rather than a copy appended
        // here, so refreshes fan out from the origin instead of chaining.
        let source = obj_offset
            .iter()
            .filter(|(_, off)| **off == total)
            .filter_map(|(po, _)| dm.instances.get(*po))
            .filter(|inst| inst.logical == pre.logical)
            .map(|inst| {
                (
                    inst.worker != pre.worker,
                    refreshed.contains(&inst.id),
                    inst.id,
                )
            })
            .min()
            .map(|(_, _, id)| id);
        let Some(source) = source else {
            continue;
        };
        let source_worker = dm
            .instances
            .get(source)
            .map(|i| i.worker)
            .unwrap_or(pre.worker);
        if source_worker == pre.worker {
            let build = builds.entry(pre.worker).or_insert_with(PerWorkerBuild::new);
            let index = build.entries.len();
            let mut before: Vec<usize> = build
                .obj_last_writer
                .get(&source)
                .copied()
                .into_iter()
                .collect();
            before.extend(build.obj_last_writer.get(&pre.physical).copied());
            before.extend(
                build
                    .obj_readers
                    .get(&pre.physical)
                    .cloned()
                    .unwrap_or_default(),
            );
            before.sort_unstable();
            before.dedup();
            build.entries.push(
                SkeletonEntry::new(SkeletonKind::LocalCopy {
                    from: source,
                    to: pre.physical,
                })
                .with_before(before),
            );
            build.obj_last_writer.insert(pre.physical, index);
            build.obj_readers.entry(source).or_default().push(index);
        } else {
            let slot = next_transfer_slot;
            next_transfer_slot += 1;
            {
                let src_build = builds
                    .entry(source_worker)
                    .or_insert_with(PerWorkerBuild::new);
                let src_index = src_build.entries.len();
                let before: Vec<usize> = src_build
                    .obj_last_writer
                    .get(&source)
                    .copied()
                    .into_iter()
                    .collect();
                src_build.entries.push(
                    SkeletonEntry::new(SkeletonKind::SendCopy {
                        from: source,
                        to_worker: pre.worker,
                        transfer_slot: slot,
                    })
                    .with_reads(vec![source])
                    .with_before(before),
                );
                src_build
                    .obj_readers
                    .entry(source)
                    .or_default()
                    .push(src_index);
            }
            {
                let dst_build = builds.entry(pre.worker).or_insert_with(PerWorkerBuild::new);
                let dst_index = dst_build.entries.len();
                let mut before: Vec<usize> = dst_build
                    .obj_last_writer
                    .get(&pre.physical)
                    .copied()
                    .into_iter()
                    .collect();
                before.extend(
                    dst_build
                        .obj_readers
                        .get(&pre.physical)
                        .cloned()
                        .unwrap_or_default(),
                );
                before.sort_unstable();
                before.dedup();
                dst_build.entries.push(
                    SkeletonEntry::new(SkeletonKind::ReceiveCopy {
                        to: pre.physical,
                        from_worker: source_worker,
                        transfer_slot: slot,
                    })
                    .with_writes(vec![pre.physical])
                    .with_before(before),
                );
                dst_build.obj_last_writer.insert(pre.physical, dst_index);
            }
        }
        obj_offset.insert(pre.physical, total);
        refreshed.insert(pre.physical);
    }

    let mut per_worker = std::collections::BTreeMap::new();
    for (worker, build) in builds {
        let template =
            WorkerTemplate::new(group_id, controller_template.id, worker, build.entries)?;
        per_worker.insert(worker, template);
    }

    let mut group = WorkerTemplateGroup::new(group_id, controller_template.id, per_worker);
    group.preconditions = preconditions;
    group.transfer_slots = next_transfer_slot;
    group.write_totals = lp_writes;
    group.exit_offsets = obj_offset;
    group.task_slot_map = task_slot_map;
    group.refresh_postconditions();
    Ok(group)
}
