//! The worker's command queue against what it replaced, and against its
//! bound.
//!
//! `differential_*`: the queue keeps its records in id runs behind a
//! watermark; its predecessor kept a hash set of every id it had ever
//! completed. [`Model`] is that predecessor, reduced to ids. Seeded random
//! dispatch streams drive both and every decision must agree: which
//! dispatches are accepted and which ignored, which command becomes ready
//! and in what order, how many are pending. The streams stay inside what the
//! protocol delivers — ids from one counter over a FIFO stream, recovery
//! under fresh ids — because outside it the two differ by design: an id
//! below the watermark is completed, whether or not it was ever dispatched.
//!
//! `retained_records_are_bounded_by_work_in_flight`: what the queue retains
//! follows the work in flight, not the length of the run.

use std::collections::{HashMap, HashSet, VecDeque};

use nimbus_core::ids::{
    CommandId, FunctionId, LogicalObjectId, LogicalPartition, PartitionIndex, PhysicalObjectId,
    TaskId, TransferId, WorkerId,
};
use nimbus_core::{Command, CommandKind};
use nimbus_net::DataPayload;
use nimbus_worker::CommandQueue;

/// The parent's `CommandQueue`, on ids alone: `completed` and `enqueued`
/// sets consulted per id, `completed` never pruned.
#[derive(Default)]
struct Model {
    /// Dependencies and transfers each blocked command still waits for.
    pending: HashMap<u64, usize>,
    dependents: HashMap<u64, Vec<u64>>,
    ready: VecDeque<u64>,
    completed: HashSet<u64>,
    enqueued: HashSet<u64>,
    arrived: HashSet<u64>,
    waiting_for_data: HashMap<u64, u64>,
    last_writer: HashMap<u64, u64>,
    readers_since_write: HashMap<u64, Vec<u64>>,
}

impl Model {
    fn add(&mut self, c: &Command) -> bool {
        let id = c.id.raw();
        if self.enqueued.contains(&id) || self.completed.contains(&id) {
            return false;
        }
        self.enqueued.insert(id);
        // The parent's `command_accesses`: the implicit objects included, an
        // object both read and written counting as written.
        let mut reads: Vec<u64> = c.read_set.iter().map(|o| o.raw()).collect();
        let mut writes: Vec<u64> = c.write_set.iter().map(|o| o.raw()).collect();
        let (from, to, transfer) = match &c.kind {
            CommandKind::LocalCopy { from, to } => (Some(from), Some(to), None),
            CommandKind::ReceiveCopy { to, transfer, .. } => (None, Some(to), Some(transfer.raw())),
            CommandKind::CreateData { object, .. } | CommandKind::DestroyData { object } => {
                (None, Some(object), None)
            }
            _ => (None, None, None),
        };
        reads.extend(from.map(|o| o.raw()));
        writes.extend(to.map(|o| o.raw()));
        reads.retain(|r| !writes.contains(r));
        let mut deps: HashSet<u64> = c.before.iter().map(|b| b.raw()).collect();
        for obj in reads.iter().chain(&writes) {
            deps.extend(self.last_writer.get(obj));
        }
        for obj in &writes {
            deps.extend(self.readers_since_write.get(obj).into_iter().flatten());
        }
        for obj in reads {
            self.readers_since_write.entry(obj).or_default().push(id);
        }
        for obj in writes {
            self.last_writer.insert(obj, id);
            self.readers_since_write.insert(obj, Vec::new());
        }
        deps.retain(|d| *d != id && !self.completed.contains(d));
        let awaited = transfer.filter(|t| !self.arrived.contains(t));
        if deps.is_empty() && awaited.is_none() {
            self.ready.push_back(id);
            return true;
        }
        for dep in &deps {
            self.dependents.entry(*dep).or_default().push(id);
        }
        self.waiting_for_data.extend(awaited.map(|t| (t, id)));
        self.pending.insert(id, deps.len() + awaited.iter().count());
        true
    }

    /// One thing `id` waited for has happened.
    fn release(&mut self, id: u64) {
        if let Some(unmet) = self.pending.get_mut(&id) {
            *unmet -= 1;
            if *unmet == 0 {
                self.pending.remove(&id);
                self.ready.push_back(id);
            }
        }
    }

    fn data_arrived(&mut self, transfer: u64) {
        self.arrived.insert(transfer);
        if let Some(id) = self.waiting_for_data.remove(&transfer) {
            self.release(id);
        }
    }

    fn complete(&mut self, id: u64) {
        self.completed.insert(id);
        self.enqueued.remove(&id);
        for waiter in self.dependents.remove(&id).unwrap_or_default() {
            self.release(waiter);
        }
    }

    fn flush(&mut self) -> usize {
        let dropped = self.pending.len() + self.ready.len();
        let completed = std::mem::take(&mut self.completed);
        *self = Model::default();
        self.completed = completed;
        dropped
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A position in a list of `len`.
    fn index(&mut self, len: usize) -> Option<usize> {
        (len > 0).then(|| self.below(len as u64) as usize)
    }
}

#[derive(Clone, Copy)]
enum Shape {
    /// Template instantiations: batches of consecutive ids, the blocks of
    /// other workers between them, every entry writing its own object.
    Dense,
    /// `ExecuteCommands` traffic: a few commands at a time with gaps between
    /// their ids, explicit before sets, copies and receives.
    Sparse,
    Mixed,
}

/// Both queues and what the generator must remember to stay inside the
/// protocol.
struct Harness {
    rng: Rng,
    queue: CommandQueue,
    model: Model,
    next_id: u64,
    next_transfer: u64,
    /// Ids dispatched since the last flush, and the commands they carried.
    dispatched: Vec<Command>,
    /// Popped and not yet completed.
    executing: Vec<Command>,
    completed: Vec<Command>,
    /// Issued an id but not delivered yet (they arrive out of order). While
    /// any is held nothing above the lowest completes, as on a FIFO stream
    /// nothing above an undelivered command has been delivered at all.
    held: Vec<Command>,
    /// Transfers whose receive is (or will be) dispatched and whose data has
    /// not arrived.
    undelivered: Vec<u64>,
    accepted: u64,
    ignored: u64,
}

impl Harness {
    fn new(seed: u64) -> Self {
        Harness {
            rng: Rng(seed),
            queue: CommandQueue::new(),
            model: Model::default(),
            next_id: 1,
            next_transfer: 1,
            dispatched: Vec::new(),
            executing: Vec::new(),
            completed: Vec::new(),
            held: Vec::new(),
            undelivered: Vec::new(),
            accepted: 0,
            ignored: 0,
        }
    }

    fn check(&self, after: &str) {
        assert_eq!(self.queue.ready_len(), self.model.ready.len(), "{after}");
        assert_eq!(
            self.queue.pending_len(),
            self.model.pending.len(),
            "{after}"
        );
    }

    /// A new command under the next id. Its before set may name earlier
    /// dispatches in any state, and ids not dispatched yet: held back, or
    /// ahead of its own.
    fn command(&mut self, kind: CommandKind, reads: Vec<u64>, writes: Vec<u64>) -> Command {
        let id = self.next_id;
        self.next_id += 1;
        let mut before = Vec::new();
        for _ in 0..self.rng.below(3) {
            let known = if self.rng.chance(15) {
                &self.held
            } else {
                &self.dispatched
            };
            if self.rng.chance(15) {
                before.push(id + 1 + self.rng.below(4));
            } else if let Some(at) = self.rng.index(known.len()) {
                before.push(known[at].id.raw());
            }
        }
        Command::new(CommandId(id), kind)
            .with_reads(reads.into_iter().map(PhysicalObjectId).collect())
            .with_writes(writes.into_iter().map(PhysicalObjectId).collect())
            .with_before(before.into_iter().map(CommandId).collect())
    }

    fn task(&mut self, reads: Vec<u64>, writes: Vec<u64>) -> Command {
        let kind = CommandKind::RunTask {
            function: FunctionId(1),
            task: TaskId(self.next_id),
        };
        self.command(kind, reads, writes)
    }

    fn dense_batch(&mut self) -> Vec<Command> {
        // The other worker's block of this instantiation.
        self.next_id += self.rng.below(40);
        (0..1 + self.rng.below(24))
            .map(|entry| {
                let shared = 1_000 + self.rng.below(3);
                self.task(vec![shared], vec![entry])
            })
            .collect()
    }

    fn sparse_batch(&mut self) -> Vec<Command> {
        (0..1 + self.rng.below(3))
            .map(|_| {
                self.next_id += self.rng.below(5);
                let object = self.rng.below(12);
                match self.rng.below(6) {
                    0 => {
                        let transfer = self.next_transfer;
                        self.next_transfer += 1;
                        if self.rng.chance(40) {
                            self.data_arrived(transfer);
                        } else {
                            self.undelivered.push(transfer);
                        }
                        let kind = CommandKind::ReceiveCopy {
                            to: PhysicalObjectId(object),
                            from_worker: WorkerId(1),
                            transfer: TransferId(transfer),
                        };
                        self.command(kind, vec![], vec![])
                    }
                    1 => {
                        let kind = CommandKind::LocalCopy {
                            from: PhysicalObjectId(object),
                            to: PhysicalObjectId(self.rng.below(12)),
                        };
                        self.command(kind, vec![], vec![])
                    }
                    2 => {
                        let kind = CommandKind::DestroyData {
                            object: PhysicalObjectId(object),
                        };
                        self.command(kind, vec![], vec![])
                    }
                    3 => {
                        let kind = CommandKind::CreateData {
                            object: PhysicalObjectId(object),
                            logical: LogicalPartition::new(LogicalObjectId(1), PartitionIndex(0)),
                        };
                        self.command(kind, vec![], vec![])
                    }
                    _ => {
                        let other = self.rng.below(12);
                        self.task(vec![other, 1_000], vec![object])
                    }
                }
            })
            .collect()
    }

    /// Delivers a batch to both queues; the decisions must agree command by
    /// command.
    fn dispatch(&mut self, batch: Vec<Command>) {
        let before = self.dispatched.len();
        for command in &batch {
            if self.model.add(command) {
                self.dispatched.push(command.clone());
            }
        }
        let accepted = (self.dispatched.len() - before) as u64;
        let ignored = batch.len() as u64 - accepted;
        let ids: Vec<u64> = batch.iter().map(|c| c.id.raw()).collect();
        assert_eq!(
            self.queue.add_commands(batch),
            ignored,
            "dispatch of {ids:?}"
        );
        self.accepted += accepted;
        self.ignored += ignored;
        self.check("dispatch");
    }

    fn data_arrived(&mut self, transfer: u64) {
        self.model.data_arrived(transfer);
        let payload = DataPayload::Bytes(vec![1u8].into());
        self.queue.data_arrived(TransferId(transfer), payload);
        self.check("data arrival");
    }

    fn pop(&mut self) {
        let command = self.queue.pop_ready();
        assert_eq!(
            command.as_ref().map(|c| c.id.raw()),
            self.model.ready.pop_front(),
            "ready order"
        );
        if let Some(command) = command {
            if let CommandKind::ReceiveCopy { transfer, .. } = &command.kind {
                assert!(self.queue.take_payload(*transfer).is_some());
                self.model.arrived.remove(&transfer.raw());
            }
            self.executing.push(command);
        }
    }

    fn complete_one(&mut self) {
        let barrier = self.held.iter().map(|c| c.id.raw()).min();
        let allowed: Vec<usize> = (0..self.executing.len())
            .filter(|i| barrier.is_none_or(|b| self.executing[*i].id.raw() < b))
            .collect();
        if let Some(at) = self.rng.index(allowed.len()) {
            let command = self.executing.swap_remove(allowed[at]);
            self.model.complete(command.id.raw());
            self.queue.complete(command.id);
            self.completed.push(command);
            self.check("completion");
        }
    }

    fn flush(&mut self) {
        assert_eq!(self.queue.flush(), self.model.flush());
        // Recovery re-plans under fresh ids: nothing issued or named before
        // the flush is dispatched or depended on again, except that a stale
        // copy of a *completed* command may still turn up.
        self.next_id += 8;
        self.dispatched.clear();
        self.executing.clear();
        self.held.clear();
        self.undelivered.clear();
        self.check("flush");
    }

    fn step(&mut self, shape: Shape) {
        match self.rng.below(100) {
            0..=24 => {
                let dense = match shape {
                    Shape::Dense => true,
                    Shape::Sparse => false,
                    Shape::Mixed => self.rng.chance(50),
                };
                let mut batch = if dense {
                    self.dense_batch()
                } else {
                    self.sparse_batch()
                };
                // Out of order inside one frame, and across frames.
                if self.rng.chance(20) {
                    let at = self.rng.below(batch.len() as u64) as usize;
                    batch.swap(0, at);
                }
                if self.rng.chance(10) {
                    let at = self.rng.below(batch.len() as u64) as usize;
                    self.held.push(batch.remove(at));
                }
                self.dispatch(batch);
            }
            25..=29 => {
                if let Some(at) = self.rng.index(self.held.len()) {
                    let late = self.held.swap_remove(at);
                    self.dispatch(vec![late]);
                }
            }
            // A redelivered frame: commands pending, ready, executing or
            // completed (long retired ones included), beside a fresh one.
            30..=37 => {
                let mut batch = Vec::new();
                for _ in 0..1 + self.rng.below(3) {
                    let from = match self.rng.below(3) {
                        0 => &self.completed,
                        1 => &self.executing,
                        _ => &self.dispatched,
                    };
                    batch.extend(self.rng.index(from.len()).map(|at| from[at].clone()));
                }
                if self.rng.chance(30) {
                    batch.push(self.task(vec![], vec![2_000]));
                }
                self.dispatch(batch);
            }
            38..=44 => {
                if let Some(at) = self.rng.index(self.undelivered.len()) {
                    let transfer = self.undelivered.swap_remove(at);
                    self.data_arrived(transfer);
                }
            }
            45..=69 => self.pop(),
            70..=98 => self.complete_one(),
            _ => self.flush(),
        }
    }

    /// Delivers what was held, then runs both queues dry.
    fn drain(&mut self) {
        let held = std::mem::take(&mut self.held);
        self.dispatch(held);
        for transfer in std::mem::take(&mut self.undelivered) {
            self.data_arrived(transfer);
        }
        while self.queue.ready_len() > 0 || !self.executing.is_empty() {
            self.pop();
            self.complete_one();
        }
        self.check("drain");
    }
}

fn run_differential(shape: Shape, seeds: std::ops::Range<u64>) {
    let (mut accepted, mut ignored) = (0, 0);
    for seed in seeds {
        let mut h = Harness::new(seed);
        for _ in 0..600 {
            h.step(shape);
        }
        h.drain();
        accepted += h.accepted;
        ignored += h.ignored;
    }
    assert!(accepted > 10_000, "accepted only {accepted}");
    assert!(ignored > 500, "ignored only {ignored}");
}

#[test]
fn differential_dense_instantiation_ranges() {
    run_differential(Shape::Dense, 0..60);
}

#[test]
fn differential_sparse_execute_commands() {
    run_differential(Shape::Sparse, 100..160);
}

#[test]
fn differential_mixed() {
    run_differential(Shape::Mixed, 200..260);
}

/// 100,000 instantiations of a 256-entry template whose tasks each overwrite
/// their own object, pipelined 16 deep: the queue never retains more than a
/// small multiple of the commands in flight, and a re-dispatch of any
/// retired id is ignored and counted.
#[test]
fn retained_records_are_bounded_by_work_in_flight() {
    const ENTRIES: u64 = 256;
    const DEPTH: u64 = 16;
    const INSTANTIATIONS: u64 = 100_000;
    let commands_of = |n: u64| -> Vec<Command> {
        // Every other block of ids is the other worker's.
        let base = 1 + n * 2 * ENTRIES;
        (0..ENTRIES)
            .map(|entry| {
                let kind = CommandKind::RunTask {
                    function: FunctionId(1),
                    task: TaskId(base + entry),
                };
                Command::new(CommandId(base + entry), kind)
                    .with_writes(vec![PhysicalObjectId(entry)])
            })
            .collect()
    };
    let mut queue = CommandQueue::new();
    let mut peak = 0;
    let mut stale_ignored = 0;
    for n in 0..INSTANTIATIONS {
        assert_eq!(queue.add_commands(commands_of(n)), 0);
        peak = peak.max(queue.retained_len());
        if n + 1 < DEPTH {
            continue;
        }
        // The oldest instantiation in flight is the one that can run.
        for _ in 0..ENTRIES {
            let command = queue
                .pop_ready()
                .expect("the oldest instantiation is ready");
            queue.complete(command.id);
        }
        if n % 1_000 == 0 {
            // Anything from the first to the latest retired instantiation.
            let retired = (n * 7_919) % (n + 2 - DEPTH);
            stale_ignored += queue.add_commands(commands_of(retired));
            assert_eq!(queue.pending_len() as u64, (DEPTH - 2) * ENTRIES);
        }
    }
    assert_eq!(stale_ignored, (INSTANTIATIONS / 1_000 - 1) * ENTRIES);
    assert!(
        peak as u64 <= 2 * DEPTH * ENTRIES,
        "retained {peak} records with {} commands in flight",
        DEPTH * ENTRIES
    );
    while let Some(command) = queue.pop_ready() {
        queue.complete(command.id);
    }
    assert!(queue.is_idle());
    assert_eq!(queue.retained_len(), 0);
}
