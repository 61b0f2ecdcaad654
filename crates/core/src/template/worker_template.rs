//! Worker templates: the controller→worker half of execution templates.
//!
//! A worker template caches the portion of a basic block that runs on one
//! worker as a *command skeleton*: the command kinds, physical read/write
//! sets, and index-based before-sets are fixed; command identifiers, task
//! identifiers, transfer identifiers, and parameters are filled in per
//! instantiation from a single message (Section 4.1).
//!
//! The controller keeps the cluster-wide view of a block in a
//! [`WorkerTemplateGroup`]: the per-worker skeletons plus the preconditions,
//! exit state, and slot bookkeeping needed for validation, patching, and
//! version-map updates.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::command::{Command, CommandKind};
use crate::error::{CoreError, CoreResult};
use crate::ids::{
    CommandId, FunctionId, LogicalPartition, PhysicalObjectId, TaskId, TemplateId, TransferId,
    WorkerId,
};
use crate::params::TaskParams;
use crate::template::edit::TemplateEdit;
use crate::template::precondition::Precondition;

/// The cached kind of one skeleton entry. Mirrors [`CommandKind`] but uses
/// template-scoped *slots* for the values that change per instantiation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkeletonKind {
    /// Allocate a physical object for a logical partition.
    CreateData {
        /// The physical object to allocate.
        object: PhysicalObjectId,
        /// The logical partition it will hold.
        logical: LogicalPartition,
    },
    /// Free a physical object.
    DestroyData {
        /// The physical object to free.
        object: PhysicalObjectId,
    },
    /// Copy between two local physical objects.
    LocalCopy {
        /// Source object.
        from: PhysicalObjectId,
        /// Destination object.
        to: PhysicalObjectId,
    },
    /// Send a physical object to another worker. The concrete
    /// [`TransferId`] is `base_transfer_id + transfer_slot`.
    SendCopy {
        /// Source object.
        from: PhysicalObjectId,
        /// Destination worker.
        to_worker: WorkerId,
        /// Block-scoped transfer slot (shared with the matching receive).
        transfer_slot: usize,
    },
    /// Receive data from another worker into a local physical object.
    ReceiveCopy {
        /// Destination object.
        to: PhysicalObjectId,
        /// Source worker.
        from_worker: WorkerId,
        /// Block-scoped transfer slot (shared with the matching send).
        transfer_slot: usize,
    },
    /// Load a physical object from durable storage.
    LoadData {
        /// Destination object.
        object: PhysicalObjectId,
        /// Storage key.
        key: String,
    },
    /// Save a physical object to durable storage.
    SaveData {
        /// Source object.
        object: PhysicalObjectId,
        /// Storage key.
        key: String,
    },
    /// Run an application task. The concrete [`TaskId`] comes from the
    /// instantiation's task-id array at `task_slot`.
    RunTask {
        /// The application function to execute.
        function: FunctionId,
        /// Index into the instantiation's task-id array.
        task_slot: usize,
    },
    /// A removed entry. Kept so edits can delete a task without renumbering
    /// the surviving entries (Section 4.3); instantiates to no command.
    Nop,
}

impl SkeletonKind {
    /// Returns true if this entry runs an application task.
    pub fn is_task(&self) -> bool {
        matches!(self, SkeletonKind::RunTask { .. })
    }

    /// Returns true if this entry is a removed placeholder.
    pub fn is_nop(&self) -> bool {
        matches!(self, SkeletonKind::Nop)
    }
}

/// One cached entry of a worker template.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SkeletonEntry {
    /// The cached command kind.
    pub kind: SkeletonKind,
    /// Physical objects read.
    pub reads: Vec<PhysicalObjectId>,
    /// Physical objects written.
    pub writes: Vec<PhysicalObjectId>,
    /// Indices of entries in the same template that must complete first.
    pub before: Vec<usize>,
    /// Index into the instantiation's parameter array, if the entry takes
    /// fresh parameters every iteration; `None` reuses `default_params`.
    pub param_slot: Option<usize>,
    /// Parameters recorded at template creation.
    pub default_params: TaskParams,
}

impl SkeletonEntry {
    /// Creates an entry with empty sets and default parameters.
    pub fn new(kind: SkeletonKind) -> Self {
        Self {
            kind,
            reads: Vec::new(),
            writes: Vec::new(),
            before: Vec::new(),
            param_slot: None,
            default_params: TaskParams::empty(),
        }
    }

    /// Builder-style setter for the read set.
    pub fn with_reads(mut self, reads: Vec<PhysicalObjectId>) -> Self {
        self.reads = reads;
        self
    }

    /// Builder-style setter for the write set.
    pub fn with_writes(mut self, writes: Vec<PhysicalObjectId>) -> Self {
        self.writes = writes;
        self
    }

    /// Builder-style setter for the before set (entry indices).
    pub fn with_before(mut self, before: Vec<usize>) -> Self {
        self.before = before;
        self
    }

    /// Builder-style setter for the parameter slot.
    pub fn with_param_slot(mut self, slot: usize) -> Self {
        self.param_slot = Some(slot);
        self
    }

    /// Builder-style setter for the default parameters.
    pub fn with_default_params(mut self, params: TaskParams) -> Self {
        self.default_params = params;
        self
    }

    /// Returns true if the entry reads `object`, counting the implicit
    /// source of a copy, send, or save.
    pub fn reads_object(&self, object: PhysicalObjectId) -> bool {
        self.reads.contains(&object)
            || match &self.kind {
                SkeletonKind::LocalCopy { from, .. } | SkeletonKind::SendCopy { from, .. } => {
                    *from == object
                }
                SkeletonKind::SaveData { object: o, .. } => *o == object,
                _ => false,
            }
    }

    /// Returns true if the entry writes `object`, counting the implicit
    /// destination of a copy, receive, load, create, or destroy.
    pub fn writes_object(&self, object: PhysicalObjectId) -> bool {
        self.writes.contains(&object)
            || match &self.kind {
                SkeletonKind::LocalCopy { to, .. } | SkeletonKind::ReceiveCopy { to, .. } => {
                    *to == object
                }
                SkeletonKind::LoadData { object: o, .. }
                | SkeletonKind::CreateData { object: o, .. }
                | SkeletonKind::DestroyData { object: o } => *o == object,
                _ => false,
            }
    }
}

/// The instantiation message for one worker template: everything the worker
/// needs to expand the cached skeleton into concrete, runnable commands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerInstantiation {
    /// The template to instantiate.
    pub template: TemplateId,
    /// Commands are numbered `base_command_id + entry_index`.
    pub base_command_id: u64,
    /// Transfers are numbered `base_transfer_id + transfer_slot`; the
    /// controller uses the same base for every worker in the block so send
    /// and receive halves match.
    pub base_transfer_id: u64,
    /// Fresh task identifiers, indexed by each entry's `task_slot`.
    pub task_ids: Vec<TaskId>,
    /// Fresh parameters, indexed by each entry's `param_slot`.
    pub params: Vec<TaskParams>,
    /// Edits to apply to the installed template before expanding it.
    pub edits: Vec<TemplateEdit>,
}

impl WorkerInstantiation {
    /// Estimated wire size of the instantiation message in bytes; this is
    /// what makes templates cheap — one small message instead of one message
    /// per task.
    pub fn wire_size(&self) -> usize {
        24 + self.task_ids.len() * 8
            + self.params.iter().map(|p| p.len() + 4).sum::<usize>()
            + self.edits.len() * 64
    }
}

/// The per-worker half of a worker template: the command skeleton installed
/// in a worker's template cache.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerTemplate {
    /// Identifier of this worker template (unique per worker and block).
    pub id: TemplateId,
    /// The controller template (basic block) this worker template belongs to.
    pub controller_template: TemplateId,
    /// The worker the template is installed on.
    pub worker: WorkerId,
    /// Cached entries; entry index is the command slot.
    pub entries: Vec<SkeletonEntry>,
    /// Number of task slots referenced by the entries.
    pub task_slots: usize,
    /// Number of parameter slots referenced by the entries.
    pub param_slots: usize,
}

impl WorkerTemplate {
    /// Creates a worker template from entries, computing slot counts and
    /// validating index-based dependencies.
    pub fn new(
        id: TemplateId,
        controller_template: TemplateId,
        worker: WorkerId,
        entries: Vec<SkeletonEntry>,
    ) -> CoreResult<Self> {
        let mut task_slots = 0usize;
        let mut param_slots = 0usize;
        for (i, e) in entries.iter().enumerate() {
            for dep in &e.before {
                if *dep >= entries.len() {
                    return Err(CoreError::Invariant(format!(
                        "entry {i} depends on out-of-range entry {dep}"
                    )));
                }
                if *dep == i {
                    return Err(CoreError::Invariant(format!("entry {i} depends on itself")));
                }
            }
            if let SkeletonKind::RunTask { task_slot, .. } = &e.kind {
                task_slots = task_slots.max(task_slot + 1);
            }
            if let Some(slot) = e.param_slot {
                param_slots = param_slots.max(slot + 1);
            }
        }
        Ok(Self {
            id,
            controller_template,
            worker,
            entries,
            task_slots,
            param_slots,
        })
    }

    /// Number of entries (including nops).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the template has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of application task entries.
    pub fn task_count(&self) -> usize {
        self.entries.iter().filter(|e| e.kind.is_task()).count()
    }

    /// Recomputes `task_slots` and `param_slots` after edits.
    pub fn recompute_slots(&mut self) {
        let mut task_slots = 0usize;
        let mut param_slots = 0usize;
        for e in &self.entries {
            if let SkeletonKind::RunTask { task_slot, .. } = &e.kind {
                task_slots = task_slots.max(task_slot + 1);
            }
            if let Some(slot) = e.param_slot {
                param_slots = param_slots.max(slot + 1);
            }
        }
        self.task_slots = task_slots;
        self.param_slots = param_slots;
    }

    /// Returns true if `index` names an entry that still emits a command
    /// (tombstoned and trimmed indices do not).
    pub fn is_live(&self, index: usize) -> bool {
        self.entries.get(index).is_some_and(|e| !e.kind.is_nop())
    }

    /// Returns true if the entry at `index` waits for another live entry.
    pub fn has_live_before(&self, index: usize) -> bool {
        self.entries
            .get(index)
            .is_some_and(|e| e.before.iter().any(|dep| self.is_live(*dep)))
    }

    /// The lowest tombstoned index at or above `min`, or `len()` (append) if
    /// there is none: where a new entry goes so that templates do not grow
    /// with the number of edits applied to them.
    pub fn first_free_index(&self, min: usize) -> usize {
        (min..self.entries.len())
            .find(|i| self.entries[*i].kind.is_nop())
            .unwrap_or(self.entries.len())
    }

    /// The lowest task slot (and parameter slot) no live entry uses.
    pub fn first_free_task_slot(&self) -> usize {
        let mut used = vec![false; self.entries.len() + 1];
        for e in &self.entries {
            if let SkeletonKind::RunTask { task_slot, .. } = &e.kind {
                if let Some(u) = used.get_mut(*task_slot) {
                    *u = true;
                }
            }
        }
        used.iter().position(|u| !u).unwrap_or(used.len())
    }

    /// Applies one edit and nothing else: no slot recount, no trimming.
    /// Planning replays queued edits through this so that the indices it
    /// hands out are the ones the shipped batch will see; everything else
    /// uses [`WorkerTemplate::apply_edits`].
    pub fn apply_edit(&mut self, edit: &TemplateEdit) -> CoreResult<()> {
        match edit {
            TemplateEdit::RemoveEntry { index } => {
                let len = self.entries.len();
                let e = self
                    .entries
                    .get_mut(*index)
                    .ok_or(CoreError::EditIndexOutOfBounds { index: *index, len })?;
                e.kind = SkeletonKind::Nop;
                e.reads.clear();
                e.writes.clear();
                e.before.clear();
                e.param_slot = None;
                e.default_params = TaskParams::empty();
            }
            TemplateEdit::ReplaceEntry { index, entry } => {
                let len = self.entries.len();
                for dep in &entry.before {
                    if *dep >= len {
                        return Err(CoreError::InvalidEdit(format!(
                            "replacement at {index} depends on out-of-range entry {dep}"
                        )));
                    }
                }
                let slot = self
                    .entries
                    .get_mut(*index)
                    .ok_or(CoreError::EditIndexOutOfBounds { index: *index, len })?;
                *slot = entry.clone();
            }
            TemplateEdit::AddEntry { entry } => {
                for dep in &entry.before {
                    if *dep > self.entries.len() {
                        return Err(CoreError::InvalidEdit(format!(
                            "added entry depends on out-of-range entry {dep}"
                        )));
                    }
                }
                self.entries.push(entry.clone());
            }
        }
        Ok(())
    }

    /// Applies the edits shipped with one instantiation (Section 4.3). Edits
    /// keep entry indices stable: removal replaces an entry with a nop,
    /// replacement swaps the entry at the same index, and additions append.
    /// Once the batch is in, trailing tombstones are dropped — no surviving
    /// index moves, and a worker that has shed its tasks is left with an
    /// empty skeleton instead of a list of nops. The controller mirror and
    /// the worker both come through here once per shipped batch, so they trim
    /// at the same point.
    pub fn apply_edits(&mut self, edits: &[TemplateEdit]) -> CoreResult<()> {
        for edit in edits {
            self.apply_edit(edit)?;
        }
        while self.entries.last().is_some_and(|e| e.kind.is_nop()) {
            self.entries.pop();
        }
        self.recompute_slots();
        Ok(())
    }

    /// Expands the skeleton into concrete commands using the instantiation's
    /// identifier bases, task ids, and parameters. Nop entries produce no
    /// command but still consume their command-id slot so indices stay
    /// aligned across edits.
    pub fn instantiate(&self, inst: &WorkerInstantiation) -> CoreResult<Vec<Command>> {
        if inst.task_ids.len() < self.task_slots {
            return Err(CoreError::TaskIdArityMismatch {
                expected: self.task_slots,
                actual: inst.task_ids.len(),
            });
        }
        if inst.params.len() < self.param_slots {
            return Err(CoreError::ParamArityMismatch {
                expected: self.param_slots,
                actual: inst.params.len(),
            });
        }
        let command_id = |index: usize| CommandId(inst.base_command_id + index as u64);
        let mut out = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            let kind = match &e.kind {
                SkeletonKind::Nop => continue,
                SkeletonKind::CreateData { object, logical } => CommandKind::CreateData {
                    object: *object,
                    logical: *logical,
                },
                SkeletonKind::DestroyData { object } => {
                    CommandKind::DestroyData { object: *object }
                }
                SkeletonKind::LocalCopy { from, to } => CommandKind::LocalCopy {
                    from: *from,
                    to: *to,
                },
                SkeletonKind::SendCopy {
                    from,
                    to_worker,
                    transfer_slot,
                } => CommandKind::SendCopy {
                    from: *from,
                    to_worker: *to_worker,
                    transfer: TransferId(inst.base_transfer_id + *transfer_slot as u64),
                },
                SkeletonKind::ReceiveCopy {
                    to,
                    from_worker,
                    transfer_slot,
                } => CommandKind::ReceiveCopy {
                    to: *to,
                    from_worker: *from_worker,
                    transfer: TransferId(inst.base_transfer_id + *transfer_slot as u64),
                },
                SkeletonKind::LoadData { object, key } => CommandKind::LoadData {
                    object: *object,
                    key: key.clone(),
                },
                SkeletonKind::SaveData { object, key } => CommandKind::SaveData {
                    object: *object,
                    key: key.clone(),
                },
                SkeletonKind::RunTask {
                    function,
                    task_slot,
                } => CommandKind::RunTask {
                    function: *function,
                    task: inst.task_ids[*task_slot],
                },
            };
            let params = match e.param_slot {
                Some(slot) => inst.params[slot].clone(),
                None => e.default_params.clone(),
            };
            // Drop dependencies on nop (or trimmed) entries: the command they
            // named no longer exists in this instantiation.
            let before = e
                .before
                .iter()
                .filter(|dep| self.is_live(**dep))
                .map(|dep| command_id(*dep))
                .collect();
            out.push(Command {
                id: command_id(i),
                kind,
                read_set: e.reads.clone(),
                write_set: e.writes.clone(),
                before,
                params,
            });
        }
        Ok(out)
    }
}

/// The controller-side view of a basic block's worker templates: one skeleton
/// per worker plus the metadata needed for validation, patching, and data
/// state updates.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerTemplateGroup {
    /// Identifier of the group (shared by its per-worker templates).
    pub id: TemplateId,
    /// The controller template (basic block) this group realizes.
    pub controller_template: TemplateId,
    /// Per-worker command skeletons. Ordered so that every iteration —
    /// notably the install fan-out when a recording finishes — emits
    /// messages in the same worker order on every run.
    pub per_worker: BTreeMap<WorkerId, WorkerTemplate>,
    /// Objects that must be up to date when the group is instantiated.
    pub preconditions: Vec<Precondition>,
    /// The preconditions the block itself leaves up to date when it finishes
    /// (derived: see [`WorkerTemplateGroup::refresh_postconditions`]).
    /// Template generation appends end-of-block copies so that they cover
    /// every precondition, which makes back-to-back instantiations of the
    /// same group validate automatically (Section 4.2).
    pub postconditions: Vec<Precondition>,
    /// Number of block-scoped transfer slots used by send/receive pairs.
    pub transfer_slots: usize,
    /// How many times each logical partition is written by one execution.
    pub write_totals: HashMap<LogicalPartition, u64>,
    /// Version offset (relative to block entry) each physical instance holds
    /// at block exit; used to update the instance map after instantiation.
    pub exit_offsets: HashMap<PhysicalObjectId, u64>,
    /// For each worker, the controller-template entry index that fills each
    /// of that worker's task slots. Slot `s` of worker `w` takes the task id
    /// generated for entry `task_slot_map[w][s]` of the controller template.
    pub task_slot_map: HashMap<WorkerId, Vec<usize>>,
    /// Whether `postconditions` cover `preconditions`; kept by
    /// [`WorkerTemplateGroup::refresh_postconditions`].
    self_validating: bool,
}

impl WorkerTemplateGroup {
    /// Creates a group over the given skeletons with no data bookkeeping yet;
    /// the caller fills the public fields and then calls
    /// [`WorkerTemplateGroup::refresh_postconditions`].
    pub fn new(
        id: TemplateId,
        controller_template: TemplateId,
        per_worker: BTreeMap<WorkerId, WorkerTemplate>,
    ) -> Self {
        Self {
            id,
            controller_template,
            per_worker,
            ..Default::default()
        }
    }

    /// Total number of task slots across all workers.
    pub fn total_task_slots(&self) -> usize {
        self.per_worker.values().map(|t| t.task_slots).sum()
    }

    /// Total number of entries across all workers.
    pub fn total_entries(&self) -> usize {
        self.per_worker.values().map(|t| t.len()).sum()
    }

    /// The workers this group spans.
    pub fn workers(&self) -> Vec<WorkerId> {
        let mut ws: Vec<WorkerId> = self.per_worker.keys().copied().collect();
        ws.sort_unstable();
        ws
    }

    /// Returns true if instantiating this group right after itself requires
    /// no validation: every precondition object is refreshed by the block
    /// itself (its postconditions cover its preconditions). Planning asks
    /// this once per instantiation, so it is a stored answer, not a scan.
    pub fn is_self_validating(&self) -> bool {
        self.self_validating
    }

    /// Recomputes `postconditions` and the self-validation answer from
    /// `preconditions`, `exit_offsets`, and `write_totals`: a precondition is
    /// met again at block exit when its object ends the block holding the
    /// partition's last in-block write (or the partition is not written at
    /// all). Whoever changes one of the three — template generation, an
    /// edit — calls this before the group is planned again.
    pub fn refresh_postconditions(&mut self) {
        let (exit_offsets, write_totals) = (&self.exit_offsets, &self.write_totals);
        self.postconditions.clear();
        self.postconditions
            .extend(self.preconditions.iter().copied().filter(|p| {
                exit_offsets.get(&p.physical).copied().unwrap_or(0)
                    == write_totals.get(&p.logical).copied().unwrap_or(0)
            }));
        self.self_validating = self.postconditions.len() == self.preconditions.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LogicalObjectId, PartitionIndex};

    fn lp(o: u64, p: u32) -> LogicalPartition {
        LogicalPartition::new(LogicalObjectId(o), PartitionIndex(p))
    }

    fn po(i: u64) -> PhysicalObjectId {
        PhysicalObjectId(i)
    }

    fn simple_template() -> WorkerTemplate {
        // Entry 0: receive param into object 1.
        // Entry 1: task reading objects 1,2 writing 3 (depends on 0).
        // Entry 2: send object 3 to worker 1 (depends on 1).
        let entries = vec![
            SkeletonEntry::new(SkeletonKind::ReceiveCopy {
                to: po(1),
                from_worker: WorkerId(1),
                transfer_slot: 0,
            })
            .with_writes(vec![po(1)]),
            SkeletonEntry::new(SkeletonKind::RunTask {
                function: FunctionId(7),
                task_slot: 0,
            })
            .with_reads(vec![po(1), po(2)])
            .with_writes(vec![po(3)])
            .with_before(vec![0])
            .with_param_slot(0),
            SkeletonEntry::new(SkeletonKind::SendCopy {
                from: po(3),
                to_worker: WorkerId(1),
                transfer_slot: 1,
            })
            .with_reads(vec![po(3)])
            .with_before(vec![1]),
        ];
        WorkerTemplate::new(TemplateId(5), TemplateId(1), WorkerId(0), entries).unwrap()
    }

    fn instantiation() -> WorkerInstantiation {
        WorkerInstantiation {
            template: TemplateId(5),
            base_command_id: 1000,
            base_transfer_id: 500,
            task_ids: vec![TaskId(42)],
            params: vec![TaskParams::from_scalar(3.0)],
            edits: vec![],
        }
    }

    #[test]
    fn slot_counting() {
        let t = simple_template();
        assert_eq!(t.task_slots, 1);
        assert_eq!(t.param_slots, 1);
        assert_eq!(t.task_count(), 1);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn instantiation_produces_concrete_commands() {
        let t = simple_template();
        let cmds = t.instantiate(&instantiation()).unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[0].id, CommandId(1000));
        assert_eq!(cmds[1].id, CommandId(1001));
        assert_eq!(cmds[1].before, vec![CommandId(1000)]);
        assert_eq!(cmds[1].task_id(), Some(TaskId(42)));
        assert_eq!(cmds[1].params.as_scalar().unwrap(), 3.0);
        match &cmds[2].kind {
            CommandKind::SendCopy { transfer, .. } => assert_eq!(*transfer, TransferId(501)),
            other => panic!("unexpected kind {other:?}"),
        }
        match &cmds[0].kind {
            CommandKind::ReceiveCopy { transfer, .. } => assert_eq!(*transfer, TransferId(500)),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn instantiation_arity_checks() {
        let t = simple_template();
        let mut inst = instantiation();
        inst.task_ids.clear();
        assert!(matches!(
            t.instantiate(&inst),
            Err(CoreError::TaskIdArityMismatch { .. })
        ));
        let mut inst = instantiation();
        inst.params.clear();
        assert!(matches!(
            t.instantiate(&inst),
            Err(CoreError::ParamArityMismatch { .. })
        ));
    }

    #[test]
    fn remove_edit_leaves_indices_stable() {
        let mut t = simple_template();
        t.apply_edits(&[TemplateEdit::RemoveEntry { index: 1 }])
            .unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.entries[1].kind.is_nop());
        let cmds = t.instantiate(&instantiation()).unwrap();
        // The nop produces no command; the send no longer depends on it.
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[1].id, CommandId(1002));
        assert!(cmds[1].before.is_empty());
    }

    #[test]
    fn replace_edit_swaps_in_place() {
        let mut t = simple_template();
        let replacement = SkeletonEntry::new(SkeletonKind::ReceiveCopy {
            to: po(3),
            from_worker: WorkerId(2),
            transfer_slot: 2,
        })
        .with_writes(vec![po(3)])
        .with_before(vec![0]);
        t.apply_edits(&[TemplateEdit::ReplaceEntry {
            index: 1,
            entry: replacement,
        }])
        .unwrap();
        assert_eq!(t.task_count(), 0);
        assert_eq!(t.task_slots, 0);
        let mut inst = instantiation();
        inst.task_ids.clear();
        inst.params.clear();
        let cmds = t.instantiate(&inst).unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[1].id, CommandId(1001));
    }

    #[test]
    fn add_edit_appends() {
        let mut t = simple_template();
        let added = SkeletonEntry::new(SkeletonKind::RunTask {
            function: FunctionId(9),
            task_slot: 1,
        })
        .with_before(vec![1]);
        t.apply_edits(&[TemplateEdit::AddEntry { entry: added }])
            .unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.task_slots, 2);
        let mut inst = instantiation();
        inst.task_ids.push(TaskId(43));
        let cmds = t.instantiate(&inst).unwrap();
        assert_eq!(cmds.len(), 4);
        assert_eq!(cmds[3].task_id(), Some(TaskId(43)));
    }

    #[test]
    fn edit_errors_are_reported() {
        let mut t = simple_template();
        assert!(matches!(
            t.apply_edits(&[TemplateEdit::RemoveEntry { index: 10 }]),
            Err(CoreError::EditIndexOutOfBounds { .. })
        ));
        let bad = SkeletonEntry::new(SkeletonKind::Nop).with_before(vec![99]);
        assert!(t
            .apply_edits(&[TemplateEdit::ReplaceEntry {
                index: 0,
                entry: bad
            }])
            .is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let entries = vec![SkeletonEntry::new(SkeletonKind::Nop).with_before(vec![0])];
        assert!(WorkerTemplate::new(TemplateId(1), TemplateId(1), WorkerId(0), entries).is_err());
    }

    #[test]
    fn group_self_validation_detection() {
        let mut group = WorkerTemplateGroup::new(TemplateId(1), TemplateId(1), BTreeMap::new());
        // The block writes the partition once, through another object: the
        // precondition object ends the block stale.
        let pre = Precondition::new(WorkerId(0), po(1), lp(1, 0));
        group.preconditions.push(pre);
        group.write_totals.insert(lp(1, 0), 1);
        group.exit_offsets.insert(po(2), 1);
        group.refresh_postconditions();
        assert!(!group.is_self_validating());
        assert!(group.postconditions.is_empty());
        // An end-of-block copy into it makes the block meet its own
        // precondition.
        group.exit_offsets.insert(po(1), 1);
        group.refresh_postconditions();
        assert!(group.is_self_validating());
        assert_eq!(group.postconditions, vec![pre]);
        // A partition the block never writes needs no refresh.
        group
            .preconditions
            .push(Precondition::new(WorkerId(0), po(3), lp(2, 0)));
        group.refresh_postconditions();
        assert!(group.is_self_validating());
    }

    #[test]
    fn edit_batches_trim_trailing_tombstones_and_reuse_freed_indices() {
        let mut t = simple_template();
        assert_eq!(t.first_free_index(0), 3);
        assert_eq!(t.first_free_task_slot(), 1);
        // Removing the tail shrinks the skeleton; the survivor's index stays.
        t.apply_edits(&[
            TemplateEdit::RemoveEntry { index: 2 },
            TemplateEdit::RemoveEntry { index: 1 },
        ])
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.task_slots, 0);
        assert_eq!(t.first_free_task_slot(), 0);
        // A tombstone below a live entry stays and is the next free index.
        let mut t = simple_template();
        t.apply_edits(&[TemplateEdit::RemoveEntry { index: 1 }])
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.first_free_index(0), 1);
        assert_eq!(t.first_free_index(2), 3);
        assert!(!t.has_live_before(2), "the send waited only for the nop");
        // Single edits do not trim: planning relies on that.
        t.apply_edit(&TemplateEdit::RemoveEntry { index: 2 })
            .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn entry_accesses_include_the_kind_objects() {
        let t = simple_template();
        assert!(t.entries[0].writes_object(po(1)));
        assert!(!t.entries[0].reads_object(po(1)));
        assert!(t.entries[1].reads_object(po(2)));
        assert!(t.entries[1].writes_object(po(3)));
        let send = SkeletonEntry::new(SkeletonKind::SendCopy {
            from: po(9),
            to_worker: WorkerId(1),
            transfer_slot: 0,
        });
        assert!(send.reads_object(po(9)), "without an explicit read set");
    }

    #[test]
    fn instantiation_wire_size_is_compact() {
        // A 80-task instantiation message should be a few KB, not the tens of
        // KB a full per-task command stream costs.
        let inst = WorkerInstantiation {
            template: TemplateId(1),
            base_command_id: 0,
            base_transfer_id: 0,
            task_ids: (0..80).map(TaskId).collect(),
            params: vec![TaskParams::from_scalar(1.0); 80],
            edits: vec![],
        };
        assert!(inst.wire_size() < 4096);
    }
}
