//! The worker's command queue with local dependency resolution.
//!
//! Requirement 1 of Section 3.1: workers maintain a queue of tasks and
//! locally determine when tasks are runnable, without consulting the
//! controller. A command becomes runnable when every command in its before
//! set has completed on this worker and — for receive-copy commands — its
//! data transfer has arrived.
//!
//! What a before set may name: any earlier command of this worker, in this
//! dispatch or any dispatch before it (directly scheduled commands — the
//! recording run, patches — do name ids of earlier dispatches), or a
//! *forward* index inside one instantiation (an edit reuses a tombstoned
//! entry index for a command others must wait for). A before id that is
//! never dispatched here holds its waiters until `Halt` flushes the queue.
//!
//! What the queue remembers is a [`RunTable`]: command ids are positions in
//! ranges the controller constructs, so "already seen", "already done" and
//! "safe to forget" are read off the range rather than looked up per id.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};

use nimbus_core::ids::{CommandId, PhysicalObjectId, TransferId};
use nimbus_core::{Command, CommandKind};
use nimbus_net::DataPayload;

/// Who last wrote one object, and who has read it since.
#[derive(Default)]
struct ObjectAccess {
    last_writer: Option<CommandId>,
    readers: Vec<CommandId>,
}

/// Local data-dependency tracker.
///
/// Before sets order the commands the controller knew to be related when it
/// planned them. The tracker adds, to each enqueued command, dependencies on
/// earlier commands that touch the same physical objects, so successive
/// instantiations of a template (and patches injected between them) are
/// ordered correctly without any controller involvement.
#[derive(Default)]
struct ObjectDeps {
    objects: HashMap<PhysicalObjectId, ObjectAccess>,
}

impl ObjectDeps {
    /// Appends the earlier commands `command` must follow to `deps` and
    /// records its own accesses. An object both read and written counts as
    /// a write for ordering.
    fn augment(&mut self, command: &Command, table: &RunTable, deps: &mut Vec<CommandId>) {
        let id = command.id;
        let (read, write) = implicit_accesses(&command.kind);
        for obj in command.read_set.iter().copied().chain(read) {
            if command.write_set.contains(&obj) || write == Some(obj) {
                continue;
            }
            let access = self.objects.entry(obj).or_default();
            deps.extend(access.last_writer);
            let readers = &mut access.readers;
            if readers.last() == Some(&id) {
                continue;
            }
            // An object that is read and never rewritten would otherwise
            // gain a reader per task forever. A full list sheds the readers
            // that are done, then leaves room for as many pushes as the
            // scan cost.
            if readers.len() == readers.capacity() {
                readers.retain(|r| table.state(r.raw()) != Some(State::Done));
                readers.reserve(readers.len().max(4));
            }
            readers.push(id);
        }
        for obj in command.write_set.iter().copied().chain(write) {
            let access = self.objects.entry(obj).or_default();
            deps.extend(access.last_writer);
            deps.append(&mut access.readers);
            access.last_writer = Some(id);
        }
    }

    /// Drops the record of an object whose `DestroyData` (`destroy`) has
    /// completed, unless a later command has touched the object since.
    fn forget(&mut self, object: PhysicalObjectId, destroy: CommandId) {
        let untouched = self
            .objects
            .get(&object)
            .is_some_and(|a| a.last_writer == Some(destroy) && a.readers.is_empty());
        if untouched {
            self.objects.remove(&object);
        }
    }
}

/// The object a command reads and the object it writes beyond its read and
/// write sets: the source and destination of copy, load, and save commands.
fn implicit_accesses(kind: &CommandKind) -> (Option<PhysicalObjectId>, Option<PhysicalObjectId>) {
    match kind {
        CommandKind::LocalCopy { from, to } => (Some(*from), Some(*to)),
        CommandKind::SendCopy { from, .. } => (Some(*from), None),
        CommandKind::SaveData { object, .. } => (Some(*object), None),
        CommandKind::ReceiveCopy { to, .. } => (None, Some(*to)),
        CommandKind::LoadData { object, .. }
        | CommandKind::CreateData { object, .. }
        | CommandKind::DestroyData { object } => (None, Some(*object)),
        CommandKind::RunTask { .. } => (None, None),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Named as a dependency but not dispatched here (yet).
    Unseen,
    /// Parked until its dependencies complete and its data arrives.
    Pending,
    /// In the ready queue or executing.
    Running,
    Done,
}

/// The commands waiting on one command. Nearly always none or one — the
/// next instantiation's writer of the same object — so the first is held
/// inline and only a second one allocates.
#[derive(Default)]
struct Waiters {
    first: Option<CommandId>,
    rest: Vec<CommandId>,
}

impl Waiters {
    fn push(&mut self, id: CommandId) {
        if self.first.is_none() {
            self.first = Some(id);
        } else {
            self.rest.push(id);
        }
    }

    /// Empties the list, yielding the waiters in the order they arrived.
    fn take(&mut self) -> impl Iterator<Item = CommandId> {
        self.first
            .take()
            .into_iter()
            .chain(std::mem::take(&mut self.rest))
    }
}

/// What the queue knows about one command id. Kept small — the command
/// itself is parked out of line — because every command gets one.
struct Record {
    state: State,
    /// A receive whose transfer has not arrived.
    needs_data: bool,
    /// Dependencies not yet completed.
    unmet: u32,
    /// Where the command is parked while `Pending`.
    slot: usize,
    /// Commands whose `unmet` counts this one.
    waiters: Waiters,
}

impl Record {
    fn unseen() -> Self {
        Record {
            state: State::Unseen,
            needs_data: false,
            unmet: 0,
            slot: 0,
            waiters: Waiters::default(),
        }
    }
}

/// Commands parked until they become runnable, in reusable slots.
#[derive(Default)]
struct Parked {
    slots: Vec<Option<Command>>,
    free: Vec<usize>,
}

impl Parked {
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn put(&mut self, command: Command) -> usize {
        if let Some(slot) = self.free.pop() {
            if let Some(place) = self.slots.get_mut(slot) {
                *place = Some(command);
                return slot;
            }
        }
        self.slots.push(Some(command));
        self.slots.len() - 1
    }

    fn take(&mut self, slot: usize) -> Option<Command> {
        let command = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(command)
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Consecutive command ids: `records[i]` belongs to id `first + i`. The
/// first `retired` records are done and below the watermark; they leave
/// with the run.
struct Run {
    first: u64,
    records: Vec<Record>,
    retired: usize,
}

impl Run {
    fn end(&self) -> u64 {
        self.first + self.records.len() as u64
    }

    /// The offset of `id` in `records`, if the run holds it.
    fn offset_of(&self, id: u64) -> Option<usize> {
        let offset = usize::try_from(id.checked_sub(self.first)?).ok()?;
        (offset < self.records.len()).then_some(offset)
    }
}

/// Where an id stands in the table.
enum Slot {
    /// Below the watermark.
    Retired,
    /// `runs[run].records[offset]`.
    At { run: usize, offset: usize },
    /// Not in the table; a run holding it would sit at index `before`.
    Absent { before: usize },
}

/// Every command id the queue still has to know about, as runs of
/// consecutive ids in ascending order.
///
/// Command ids are issued from one counter per job that recovery never
/// rewinds, in dispatch order, and each controller-to-worker stream is FIFO.
/// So a template instantiation arrives as one dense range
/// (`base_command_id + entry_index`) above everything seen before and is
/// appended in O(1); ids that arrive out of order, and ids a before set
/// names ahead of their dispatch, are placed by binary search over the runs.
/// Records whose command is done retire from the front, and `watermark`
/// follows them: **an id below the watermark is completed** — a dispatch of
/// it is stale, a dependency on it is satisfied. What the table retains is
/// therefore bounded by the span of in-flight work, not by how long the job
/// has run.
#[derive(Default)]
struct RunTable {
    runs: VecDeque<Run>,
    watermark: u64,
}

impl RunTable {
    /// One past the highest id the table has ever held.
    fn frontier(&self) -> u64 {
        self.runs.back().map_or(self.watermark, Run::end)
    }

    /// Records held for ids at or above the watermark.
    fn len(&self) -> usize {
        self.runs.iter().map(|r| r.records.len() - r.retired).sum()
    }

    fn locate(&self, id: u64) -> Slot {
        if id < self.watermark {
            return Slot::Retired;
        }
        // The two ends without a search: an instantiation's ids arrive past
        // the frontier, and work completes oldest first.
        if id >= self.frontier() {
            return Slot::Absent {
                before: self.runs.len(),
            };
        }
        if let Some(offset) = self.runs.front().and_then(|r| r.offset_of(id)) {
            return Slot::At { run: 0, offset };
        }
        let before = self.runs.partition_point(|r| r.first <= id);
        let run = before.wrapping_sub(1);
        match self.runs.get(run).and_then(|r| r.offset_of(id)) {
            Some(offset) => Slot::At { run, offset },
            None => Slot::Absent { before },
        }
    }

    /// What is known of `id`: `Done` below the watermark, `None` where the
    /// table has no record.
    fn state(&self, id: u64) -> Option<State> {
        match self.locate(id) {
            Slot::Retired => Some(State::Done),
            Slot::At { run, offset } => Some(self.runs.get(run)?.records.get(offset)?.state),
            Slot::Absent { .. } => None,
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Record> {
        match self.locate(id) {
            Slot::At { run, offset } => self.runs.get_mut(run)?.records.get_mut(offset),
            _ => None,
        }
    }

    /// The record for `id`, added as `Unseen` if the table has none; `None`
    /// below the watermark. An id that directly follows a run extends it,
    /// any other starts a run of its own.
    fn get_or_insert(&mut self, id: u64) -> Option<&mut Record> {
        let (run, offset) = match self.locate(id) {
            Slot::Retired => return None,
            Slot::At { run, offset } => (run, offset),
            Slot::Absent { before } => {
                let prev = before.wrapping_sub(1);
                match self.runs.get_mut(prev).filter(|r| r.end() == id) {
                    Some(follows) => {
                        follows.records.push(Record::unseen());
                        (prev, follows.records.len() - 1)
                    }
                    None => {
                        let run = Run {
                            first: id,
                            records: vec![Record::unseen()],
                            retired: 0,
                        };
                        self.runs.insert(before, run);
                        (before, 0)
                    }
                }
            }
        };
        self.runs.get_mut(run)?.records.get_mut(offset)
    }

    /// Opens a run with room for a batch of `len` ids starting at `first`,
    /// if the batch is new to the table, so a dense batch fills one
    /// allocation instead of growing it record by record.
    fn open_run(&mut self, first: u64, len: usize) {
        if first >= self.frontier() {
            self.runs.push_back(Run {
                first,
                records: Vec::with_capacity(len),
                retired: 0,
            });
        }
    }

    /// Retires done records from the front and moves the watermark past
    /// them; a run leaves once all of it has retired.
    fn retire(&mut self) {
        while let Some(run) = self.runs.front_mut() {
            let done = |r: &Record| r.state == State::Done;
            while run.records.get(run.retired).is_some_and(done) {
                run.retired += 1;
                self.watermark = run.first + run.retired as u64;
            }
            if run.retired < run.records.len() {
                return;
            }
            self.runs.pop_front();
        }
    }

    /// Forgets every record and puts the watermark above all of them: what
    /// was dispatched before is, from here on, completed.
    fn retire_all(&mut self) {
        self.watermark = self.frontier();
        self.runs.clear();
    }
}

/// Moves a parked command to the ready queue once nothing holds it back. A
/// record that is not parked (released through another path, or never
/// dispatched) is left alone rather than treated as an invariant violation.
fn release_if_runnable(record: &mut Record, parked: &mut Parked, ready: &mut VecDeque<Command>) {
    if record.state == State::Pending && record.unmet == 0 && !record.needs_data {
        record.state = State::Running;
        ready.extend(parked.take(record.slot));
    }
}

/// Tracks pending, ready, and completed commands on one worker.
#[derive(Default)]
pub struct CommandQueue {
    /// One record per command id still in play; see [`RunTable`].
    table: RunTable,
    /// Commands ready to execute, in the order they became runnable.
    ready: VecDeque<Command>,
    /// Commands blocked on dependencies or data.
    parked: Parked,
    /// Data that arrived before its receive command was enqueued (or whose
    /// receive is still blocked on local dependencies).
    arrived: HashMap<TransferId, DataPayload>,
    /// Receive commands waiting for their transfer to arrive.
    waiting_for_data: HashMap<TransferId, CommandId>,
    /// Local data-dependency augmentation across dispatch batches.
    object_deps: ObjectDeps,
    /// `DestroyData` commands in flight and the object each frees: its
    /// dependency record goes with it.
    destroys: Vec<(CommandId, PhysicalObjectId)>,
    /// Scratch for one command's dependency list, kept for its allocation.
    deps: Vec<CommandId>,
}

impl CommandQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a batch of commands — the shape every dispatch arrives in,
    /// whether as one `ExecuteCommands` or expanded from a template
    /// instantiation. Room is reserved once per batch (not grown command by
    /// command), and the duplicate/stale-id guard applies to each command
    /// exactly as in the singleton path. Returns the number of duplicate or
    /// stale dispatches that were ignored.
    pub fn add_commands(&mut self, commands: Vec<Command>) -> u64 {
        self.ready.reserve(commands.len());
        if let Some(first) = commands.first() {
            self.table.open_run(first.id.raw(), commands.len());
        }
        let mut ignored = 0;
        for command in commands {
            if !self.add_command(command) {
                ignored += 1;
            }
        }
        ignored
    }

    /// Enqueues a single command, augmenting its before set with locally
    /// tracked data dependencies on earlier commands touching the same
    /// objects.
    ///
    /// A command whose id is already queued, executing, or completed — or
    /// below the watermark, which means completed — is a duplicate or stale
    /// dispatch (recovery replay and rejoin can produce these); it is
    /// ignored and `false` is returned — it must never panic the worker or
    /// corrupt the dependency bookkeeping by double-counting.
    pub fn add_command(&mut self, command: Command) -> bool {
        let id = command.id;
        let dispatched = |s: State| s != State::Unseen;
        if self.table.state(id.raw()).is_some_and(dispatched) {
            return false;
        }
        let mut deps = std::mem::take(&mut self.deps);
        deps.clear();
        deps.extend_from_slice(&command.before);
        self.object_deps.augment(&command, &self.table, &mut deps);
        deps.sort_unstable();
        deps.dedup();
        let mut unmet = 0;
        for dep in deps.iter().filter(|dep| **dep != id) {
            // A dependency below the watermark has completed.
            if let Some(record) = self.table.get_or_insert(dep.raw()) {
                if record.state != State::Done {
                    record.waiters.push(id);
                    unmet += 1;
                }
            }
        }
        self.deps = deps;
        let needs_data = match &command.kind {
            CommandKind::ReceiveCopy { transfer, .. } if !self.arrived.contains_key(transfer) => {
                self.waiting_for_data.insert(*transfer, id);
                true
            }
            _ => false,
        };
        let Some(record) = self.table.get_or_insert(id.raw()) else {
            return false;
        };
        record.unmet = unmet;
        record.needs_data = needs_data;
        if let CommandKind::DestroyData { object } = &command.kind {
            self.destroys.push((id, *object));
        }
        if unmet == 0 && !needs_data {
            record.state = State::Running;
            self.ready.push_back(command);
        } else {
            record.state = State::Pending;
            record.slot = self.parked.put(command);
        }
        true
    }

    /// Records the arrival of a data transfer. The payload is retained until
    /// the matching receive command executes and claims it.
    pub fn data_arrived(&mut self, transfer: TransferId, payload: DataPayload) {
        self.arrived.insert(transfer, payload);
        let waiting = self.waiting_for_data.remove(&transfer);
        if let Some(record) = waiting.and_then(|id| self.table.get_mut(id.raw())) {
            record.needs_data = false;
            release_if_runnable(record, &mut self.parked, &mut self.ready);
        }
    }

    /// Claims the payload for a transfer (called when the receive executes).
    pub fn take_payload(&mut self, transfer: TransferId) -> Option<DataPayload> {
        self.arrived.remove(&transfer)
    }

    /// Marks a command as completed, releasing its dependents. Its record
    /// retires as soon as every lower id has completed too.
    pub fn complete(&mut self, id: CommandId) {
        let known = self.table.get_mut(id.raw());
        let Some(record) = known.filter(|r| r.state != State::Done) else {
            return;
        };
        record.state = State::Done;
        for waiter in record.waiters.take() {
            if let Some(record) = self.table.get_mut(waiter.raw()) {
                record.unmet = record.unmet.saturating_sub(1);
                release_if_runnable(record, &mut self.parked, &mut self.ready);
            }
        }
        if let Some(at) = self.destroys.iter().position(|(d, _)| *d == id) {
            let (_, object) = self.destroys.swap_remove(at);
            self.object_deps.forget(object, id);
        }
        self.table.retire();
    }

    /// Pops the next runnable command, if any.
    pub fn pop_ready(&mut self) -> Option<Command> {
        self.ready.pop_front()
    }

    /// Number of commands ready to run.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Number of commands blocked on dependencies or data.
    pub fn pending_len(&self) -> usize {
        self.parked.len()
    }

    /// Number of command ids the queue holds a record for: everything from
    /// the oldest command still in play to the newest. Zero once all
    /// dispatched work has completed.
    pub fn retained_len(&self) -> usize {
        self.table.len()
    }

    /// Returns true if no work is queued (pending or ready).
    pub fn is_idle(&self) -> bool {
        self.parked.len() == 0 && self.ready.is_empty()
    }

    /// Discards all queued work (used by the `Halt` fault-recovery command)
    /// and returns how many commands were dropped. Every id dispatched or
    /// named so far is below the watermark from here on: recovery re-plans
    /// under fresh ids, so a dispatch of an old one can only be stale.
    pub fn flush(&mut self) -> usize {
        let dropped = self.parked.len() + self.ready.len();
        self.table.retire_all();
        self.ready.clear();
        self.parked.clear();
        self.destroys.clear();
        self.waiting_for_data.clear();
        self.arrived.clear();
        self.object_deps.objects.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nimbus_core::ids::{
        FunctionId, LogicalObjectId, LogicalPartition, PartitionIndex, PhysicalObjectId, TaskId,
        WorkerId,
    };

    fn task(id: u64, before: Vec<u64>) -> Command {
        Command::new(
            CommandId(id),
            CommandKind::RunTask {
                function: FunctionId(1),
                task: TaskId(id),
            },
        )
        .with_before(before.into_iter().map(CommandId).collect())
    }

    fn receive(id: u64, transfer: u64, before: Vec<u64>) -> Command {
        Command::new(
            CommandId(id),
            CommandKind::ReceiveCopy {
                to: PhysicalObjectId(1),
                from_worker: WorkerId(1),
                transfer: TransferId(transfer),
            },
        )
        .with_before(before.into_iter().map(CommandId).collect())
    }

    fn payload() -> DataPayload {
        DataPayload::Bytes(Bytes::from_static(&[1, 2, 3]))
    }

    #[test]
    fn independent_commands_are_immediately_ready() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![task(1, vec![]), task(2, vec![])]);
        assert_eq!(q.ready_len(), 2);
        assert_eq!(q.pending_len(), 0);
        assert!(q.pop_ready().is_some());
        assert!(q.pop_ready().is_some());
        assert!(q.pop_ready().is_none());
    }

    #[test]
    fn dependencies_gate_readiness() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![task(1, vec![]), task(2, vec![1]), task(3, vec![1, 2])]);
        assert_eq!(q.ready_len(), 1);
        let first = q.pop_ready().unwrap();
        assert_eq!(first.id, CommandId(1));
        q.complete(CommandId(1));
        assert_eq!(q.ready_len(), 1);
        let second = q.pop_ready().unwrap();
        assert_eq!(second.id, CommandId(2));
        q.complete(CommandId(2));
        assert_eq!(q.pop_ready().unwrap().id, CommandId(3));
        q.complete(CommandId(3));
        assert!(q.is_idle());
        assert_eq!(q.retained_len(), 0);
    }

    #[test]
    fn dependency_on_already_completed_command_is_satisfied() {
        let mut q = CommandQueue::new();
        q.add_command(task(1, vec![]));
        q.pop_ready().unwrap();
        q.complete(CommandId(1));
        q.add_command(task(2, vec![1]));
        assert_eq!(q.ready_len(), 1);
    }

    #[test]
    fn receive_waits_for_both_deps_and_data() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![task(1, vec![]), receive(2, 7, vec![1])]);
        q.pop_ready().unwrap();
        q.complete(CommandId(1));
        // Dependency met but no data yet.
        assert_eq!(q.ready_len(), 0);
        q.data_arrived(TransferId(7), payload());
        assert_eq!(q.ready_len(), 1);
        assert!(q.take_payload(TransferId(7)).is_some());
        assert!(q.take_payload(TransferId(7)).is_none());
    }

    #[test]
    fn data_arriving_before_receive_is_buffered() {
        let mut q = CommandQueue::new();
        q.data_arrived(TransferId(7), payload());
        q.add_command(receive(2, 7, vec![]));
        assert_eq!(q.ready_len(), 1);
    }

    #[test]
    fn data_arriving_before_deps_met_does_not_unblock_early() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![task(1, vec![]), receive(2, 7, vec![1])]);
        q.data_arrived(TransferId(7), payload());
        assert_eq!(q.ready_len(), 1, "only the task is ready");
        q.pop_ready().unwrap();
        q.complete(CommandId(1));
        assert_eq!(
            q.ready_len(),
            1,
            "receive unblocks after dependency completes"
        );
    }

    #[test]
    fn flush_discards_everything() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![
            task(1, vec![]),
            task(2, vec![1]),
            receive(3, 9, vec![]),
        ]);
        let dropped = q.flush();
        assert_eq!(dropped, 3);
        assert!(q.is_idle());
    }

    /// Regression: a duplicate dispatch of a command id — while it is
    /// pending, ready, or already completed — must be ignored, not panic the
    /// worker thread or double-release dependents.
    #[test]
    fn double_dispatched_command_id_is_ignored_everywhere() {
        let mut q = CommandQueue::new();
        // Duplicate while pending (blocked on a dependency).
        assert_eq!(
            q.add_commands(vec![task(1, vec![]), task(2, vec![1])]),
            0,
            "fresh ids must not count as duplicates"
        );
        assert!(!q.add_command(task(2, vec![1])), "pending duplicate");
        // Duplicate while ready.
        assert!(!q.add_command(task(1, vec![])), "ready duplicate");
        assert_eq!(q.ready_len(), 1);
        // Duplicate while popped but not yet completed.
        let first = q.pop_ready().unwrap();
        assert_eq!(first.id, CommandId(1));
        assert!(!q.add_command(task(1, vec![])), "executing duplicate");
        q.complete(CommandId(1));
        // The dependent becomes ready exactly once.
        assert_eq!(q.ready_len(), 1);
        q.pop_ready().unwrap();
        q.complete(CommandId(2));
        // Duplicate after completion (a stale re-dispatch).
        assert!(!q.add_command(task(2, vec![1])), "stale duplicate");
        assert!(q.is_idle());
        assert_eq!(q.retained_len(), 0);
    }

    /// Regression: a duplicate receive for a transfer whose payload already
    /// arrived must not panic or consume the payload twice.
    #[test]
    fn double_dispatched_receive_is_ignored() {
        let mut q = CommandQueue::new();
        q.data_arrived(TransferId(7), payload());
        assert!(q.add_command(receive(2, 7, vec![])));
        assert!(!q.add_command(receive(2, 7, vec![])));
        assert_eq!(q.ready_len(), 1);
        q.pop_ready().unwrap();
        assert!(q.take_payload(TransferId(7)).is_some());
        q.complete(CommandId(2));
        assert!(q.is_idle());
    }

    /// Batched dispatch semantics: several batches drained back to back
    /// behave exactly like their singleton expansion — per-batch order is
    /// kept, cross-batch object dependencies are augmented, and duplicate
    /// ids arriving in a *later* batch (a redelivered batch frame) are
    /// ignored without double-releasing dependents.
    #[test]
    fn batched_dispatches_preserve_order_and_duplicate_guards() {
        let mut q = CommandQueue::new();
        let write = |id: u64, object: u64, before: Vec<u64>| {
            Command::new(
                CommandId(id),
                CommandKind::RunTask {
                    function: FunctionId(1),
                    task: TaskId(id),
                },
            )
            .with_writes(vec![PhysicalObjectId(object)])
            .with_before(before.into_iter().map(CommandId).collect())
        };
        // Batch 1: two writers of object 9, ordered by their before set.
        assert_eq!(
            q.add_commands(vec![write(1, 9, vec![]), write(2, 9, vec![1])]),
            0
        );
        // Batch 2: redelivers batch 1 (duplicates) plus a fresh dependent.
        assert_eq!(
            q.add_commands(vec![
                write(1, 9, vec![]),
                write(2, 9, vec![1]),
                write(3, 9, vec![])
            ]),
            2,
            "redelivered commands are ignored, fresh ones accepted"
        );
        let mut order = Vec::new();
        while let Some(c) = q.pop_ready() {
            order.push(c.id.raw());
            q.complete(c.id);
        }
        assert_eq!(order, vec![1, 2, 3], "object deps serialize across batches");
        assert!(q.is_idle());
    }

    /// Directly scheduled commands (the recording run, patches) name ids of
    /// earlier dispatches in their before sets; whether such an id is still
    /// queued, executing or long done, it orders the later command.
    #[test]
    fn before_sets_reach_across_dispatches() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![task(1, vec![]), task(2, vec![])]);
        q.add_commands(vec![task(10, vec![1]), task(11, vec![2, 10])]);
        assert_eq!(q.pending_len(), 2);
        let first = q.pop_ready().unwrap();
        q.complete(first.id);
        assert_eq!(q.ready_len(), 2, "2, and 10 behind 1");
        while let Some(c) = q.pop_ready() {
            q.complete(c.id);
        }
        assert_eq!(q.retained_len(), 0);
        // Every earlier dispatch has retired; naming them is still fine.
        q.add_commands(vec![task(20, vec![1, 11])]);
        assert_eq!(q.ready_len(), 1);
    }

    /// A before index may point forward inside one instantiation (an edit
    /// reuses a tombstoned entry index): the earlier entry waits for the
    /// later one. An id that is never dispatched holds its waiter until the
    /// queue is flushed.
    #[test]
    fn a_forward_before_index_waits() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![
            task(100, vec![102]),
            task(101, vec![]),
            task(102, vec![]),
        ]);
        assert_eq!(q.pending_len(), 1);
        let order: Vec<u64> = std::iter::from_fn(|| {
            let c = q.pop_ready()?;
            q.complete(c.id);
            Some(c.id.raw())
        })
        .collect();
        assert_eq!(order, vec![101, 102, 100]);
        assert_eq!(q.retained_len(), 0);

        q.add_command(task(200, vec![150]));
        assert_eq!((q.ready_len(), q.pending_len()), (0, 1));
        assert_eq!(q.flush(), 1, "only a Halt lets go of it");
        assert!(q.is_idle());
    }

    /// The at-bound rule: an id below the watermark is completed. A stale
    /// dispatch of it is ignored — and counted, which is what the worker
    /// adds to `duplicate_commands_ignored` — and a dependency on it is
    /// satisfied. A flush puts everything dispatched so far below it.
    #[test]
    fn ids_below_the_watermark_are_completed() {
        let mut q = CommandQueue::new();
        q.add_commands(vec![task(10, vec![]), task(11, vec![10])]);
        while let Some(c) = q.pop_ready() {
            q.complete(c.id);
        }
        assert_eq!(q.retained_len(), 0, "both retired");
        assert_eq!(
            q.add_commands(vec![task(10, vec![]), task(11, vec![10]), task(4, vec![])]),
            3,
            "stale dispatches are refused and counted"
        );
        assert!(q.is_idle());
        assert!(q.add_command(task(20, vec![4, 10, 11])));
        assert_eq!(q.ready_len(), 1, "retired dependencies are satisfied");
        q.add_command(task(21, vec![20]));
        assert_eq!(q.flush(), 2);
        assert_eq!(q.retained_len(), 0);
        assert!(!q.add_command(task(21, vec![])), "flushed ids are stale");
        assert!(q.add_command(task(22, vec![20, 21])));
        assert_eq!(q.ready_len(), 1);
    }

    /// A partition that is read every iteration and never rewritten (k-means
    /// points, training data) must not gain a reader per task forever: its
    /// reader list follows the readers in flight, and a write that finally
    /// comes still waits for the live ones.
    #[test]
    fn readers_of_a_never_rewritten_object_do_not_accumulate() {
        const IN_FLIGHT: usize = 8;
        let object = PhysicalObjectId(5);
        let read = |id: u64| task(id, vec![]).with_reads(vec![object]);
        let mut q = CommandQueue::new();
        let mut executing = VecDeque::new();
        for id in 1..=100_000 {
            q.add_command(read(id));
            executing.push_back(q.pop_ready().unwrap().id);
            if executing.len() > IN_FLIGHT {
                q.complete(executing.pop_front().unwrap());
            }
            let readers = &q.object_deps.objects[&object].readers;
            assert!(
                readers.len() <= 2 * IN_FLIGHT + 4,
                "{} readers",
                readers.len()
            );
        }
        q.add_command(task(100_001, vec![]).with_writes(vec![object]));
        assert_eq!(q.pending_len(), 1, "the write waits for the live readers");
        while let Some(reader) = executing.pop_front() {
            assert_eq!(q.ready_len(), 0);
            q.complete(reader);
        }
        assert_eq!(q.pop_ready().unwrap().id, CommandId(100_001));
    }

    /// A dependency record dies with its object: create, write, destroy and
    /// re-create of the same physical id run in that order, and once they
    /// have, the tracker holds the one record of the live object — not one
    /// per object ever touched.
    #[test]
    fn dependency_record_dies_with_its_object() {
        let object = PhysicalObjectId(7);
        let lifecycle = |id: u64, kind: CommandKind| Command::new(CommandId(id), kind);
        let create = |id: u64| {
            let logical = LogicalPartition::new(LogicalObjectId(1), PartitionIndex(0));
            lifecycle(id, CommandKind::CreateData { object, logical })
        };
        let mut q = CommandQueue::new();
        q.add_commands(vec![
            create(1),
            task(2, vec![]).with_writes(vec![object]),
            lifecycle(3, CommandKind::DestroyData { object }),
            create(4),
        ]);
        let mut order = Vec::new();
        while let Some(c) = q.pop_ready() {
            assert_eq!(q.ready_len(), 0, "one at a time: each waits for the last");
            order.push(c.id.raw());
            q.complete(c.id);
        }
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(q.object_deps.objects.len(), 1, "the re-created object");

        // Destroyed and not re-created: nothing is left.
        q.add_command(lifecycle(5, CommandKind::DestroyData { object }));
        let destroy = q.pop_ready().unwrap();
        q.complete(destroy.id);
        assert!(q.object_deps.objects.is_empty());
        assert!(q.destroys.is_empty());
    }
}
