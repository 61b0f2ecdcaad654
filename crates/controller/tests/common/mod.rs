//! A fabric-free cluster for the move-planner tests: the controller's real
//! planning state (`TemplateManager`, `DataManager`, expansion) on one side,
//! and on the other a worker side that is real where ordering is decided —
//! each worker's installed `WorkerTemplate` copy and `CommandQueue` — and
//! symbolic where data lives: an object holds `(partition, version)`.
//!
//! Every planned instantiation is executed command by command, and every task
//! checks what it sees against a sequential model of the block: the versions
//! it reads, the version it updates in place, and the parameter it was bound
//! to. A wrong slot, a stale copy, a missing allocation, or commands that wait
//! for each other all fail here without a thread or a socket.

use std::collections::{BTreeMap, HashMap, HashSet};

use nimbus_controller::{
    expand_task, AssignmentPolicy, Bookkeeping, DataManager, IdGens, InstantiationPlan,
    TemplateManager,
};
use nimbus_core::appdata::Scalar;
use nimbus_core::data::DatasetDef;
use nimbus_core::ids::{
    FunctionId, LogicalObjectId, LogicalPartition, PartitionIndex, PhysicalObjectId, StageId,
    TaskId, TemplateId, TransferId, WorkerId,
};
use nimbus_core::lineage::LineageLog;
use nimbus_core::task::TaskSpec;
use nimbus_core::template::{
    InstantiationParams, SkeletonKind, WorkerTemplate, WorkerTemplateGroup,
};
use nimbus_core::{AssignedCommand, Command, CommandKind, TaskParams};
use nimbus_net::DataPayload;
use nimbus_worker::CommandQueue;

pub const DATA: LogicalObjectId = LogicalObjectId(1);
pub const TOTAL: LogicalObjectId = LogicalObjectId(2);
pub const WEIGHTS: LogicalObjectId = LogicalObjectId(3);
pub const GRADIENT: LogicalObjectId = LogicalObjectId(4);
pub const BLOCK: &str = "block";

const WORK: FunctionId = FunctionId(1);
const REDUCE: FunctionId = FunctionId(2);

/// The three block shapes the planner has to handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `tasks` tasks, each updating its own partition in place.
    Independent,
    /// The same, then one task reading every partition into a total.
    Reduce,
    /// Logistic-regression-like: each task reads its (never written) data
    /// partition and the shared weights and writes its gradient; a last task
    /// reads every gradient and updates the weights.
    Broadcast,
}

pub fn lp(object: LogicalObjectId, partition: u32) -> LogicalPartition {
    LogicalPartition::new(object, PartitionIndex(partition))
}

/// A version of a partition, as held by an object or carried by a transfer.
type Value = (LogicalPartition, u64);

/// What the sequential model says one task of one execution must observe.
struct Expectation {
    function: FunctionId,
    reads: Vec<Value>,
    write: Value,
    param: f64,
}

/// The worker side.
struct Workers {
    stores: BTreeMap<WorkerId, HashMap<PhysicalObjectId, Value>>,
    queues: BTreeMap<WorkerId, CommandQueue>,
    templates: BTreeMap<WorkerId, WorkerTemplate>,
    in_flight: HashMap<TransferId, Value>,
    pub commands_executed: u64,
}

impl Workers {
    fn new(workers: &[WorkerId]) -> Self {
        Self {
            stores: workers.iter().map(|w| (*w, HashMap::new())).collect(),
            queues: workers.iter().map(|w| (*w, CommandQueue::new())).collect(),
            templates: BTreeMap::new(),
            in_flight: HashMap::new(),
            commands_executed: 0,
        }
    }

    fn enqueue(&mut self, worker: WorkerId, commands: Vec<Command>) {
        let ignored = self
            .queues
            .get_mut(&worker)
            .expect("known worker")
            .add_commands(commands);
        assert_eq!(ignored, 0, "duplicate command ids on {worker}");
    }

    /// Runs every queued command, any runnable one first; returns the tasks
    /// that ran. Panics if commands remain that can never run.
    fn drain(&mut self, expect: &HashMap<TaskId, Expectation>) -> Vec<TaskId> {
        let workers: Vec<WorkerId> = self.queues.keys().copied().collect();
        let mut ran = Vec::new();
        loop {
            let mut progressed = false;
            for w in &workers {
                while let Some(command) = self.queues.get_mut(w).expect("queue").pop_ready() {
                    self.execute(*w, &command, expect, &mut ran);
                    self.queues.get_mut(w).expect("queue").complete(command.id);
                    self.commands_executed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (w, q) in &self.queues {
            assert!(
                q.is_idle(),
                "{} commands on {w} wait for something that never happens",
                q.pending_len()
            );
        }
        ran
    }

    fn execute(
        &mut self,
        worker: WorkerId,
        command: &Command,
        expect: &HashMap<TaskId, Expectation>,
        ran: &mut Vec<TaskId>,
    ) {
        let store = self.stores.get_mut(&worker).expect("store");
        let held = |store: &HashMap<PhysicalObjectId, Value>, object: &PhysicalObjectId| {
            *store
                .get(object)
                .unwrap_or_else(|| panic!("{worker} has no object {object} ({:?})", command.kind))
        };
        match &command.kind {
            CommandKind::CreateData { object, logical } => {
                store.entry(*object).or_insert((*logical, 0));
            }
            CommandKind::LocalCopy { from, to } => {
                let value = held(store, from);
                store.insert(*to, value);
            }
            CommandKind::SendCopy {
                from,
                to_worker,
                transfer,
            } => {
                let value = held(store, from);
                self.in_flight.insert(*transfer, value);
                self.queues
                    .get_mut(to_worker)
                    .expect("receiving worker")
                    .data_arrived(*transfer, DataPayload::Object(Box::new(Scalar::new(0.0))));
            }
            CommandKind::ReceiveCopy { to, transfer, .. } => {
                let value = self.in_flight.remove(transfer).expect("transfer was sent");
                assert_eq!(
                    held(store, to).0,
                    value.0,
                    "copy into another partition's object"
                );
                store.insert(*to, value);
            }
            CommandKind::RunTask { function, task } => {
                let e = expect
                    .get(task)
                    .unwrap_or_else(|| panic!("task {task} is not part of this execution"));
                assert_eq!(*function, e.function, "task {task} runs the wrong function");
                assert_eq!(
                    command.params.as_scalar().expect("scalar parameter"),
                    e.param,
                    "task {task} on {worker} was bound to another task's parameter"
                );
                let reads: Vec<Value> = command.read_set.iter().map(|o| held(store, o)).collect();
                assert_eq!(
                    reads, e.reads,
                    "task {task} on {worker} reads the wrong versions"
                );
                let [target] = command.write_set[..] else {
                    panic!("task {task} writes {} objects", command.write_set.len());
                };
                assert_eq!(
                    held(store, &target),
                    (e.write.0, e.write.1 - 1),
                    "task {task} on {worker} updates an object that is not at the previous version"
                );
                store.insert(target, e.write);
                ran.push(*task);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }
}

/// What one planned-and-executed instantiation looked like.
pub struct Executed {
    pub auto_validated: bool,
    pub edits: usize,
    pub patch_commands: usize,
    pub task_ids_sent: usize,
    pub commands: u64,
}

/// Controller planning state plus the symbolic workers.
pub struct Fixture {
    pub shape: Shape,
    pub tasks: u32,
    pub workers: Vec<WorkerId>,
    pub dm: DataManager,
    pub bk: Bookkeeping,
    pub ids: IdGens,
    pub tm: TemplateManager,
    pub group: TemplateId,
    lineage: LineageLog,
    sim: Workers,
    /// Latest version of every partition according to the sequential model.
    model: HashMap<LogicalPartition, u64>,
    execution: u64,
}

impl Fixture {
    /// Records and installs the block (its first execution runs task by
    /// task, as on a real controller).
    pub fn new(shape: Shape, workers: u32, tasks: u32) -> Self {
        let workers: Vec<WorkerId> = (0..workers).map(WorkerId).collect();
        let mut dm = DataManager::new(AssignmentPolicy::hash());
        dm.define_dataset(DatasetDef::new(DATA, "data", tasks));
        dm.define_dataset(DatasetDef::new(TOTAL, "total", 1));
        dm.define_dataset(DatasetDef::new(WEIGHTS, "weights", 1));
        dm.define_dataset(DatasetDef::new(GRADIENT, "gradient", tasks));
        let mut f = Fixture {
            shape,
            tasks,
            sim: Workers::new(&workers),
            workers,
            dm,
            bk: Bookkeeping::new(),
            ids: IdGens::new(),
            tm: TemplateManager::new(),
            group: TemplateId(0),
            lineage: LineageLog::new(),
            model: HashMap::new(),
            execution: 0,
        };
        f.tm.start_recording(BLOCK).expect("nothing recording");
        let specs = f.specs();
        let expect = f.expectations(specs.iter().map(|s| s.id).collect());
        for spec in &specs {
            let expanded = expand_task(
                spec,
                &f.workers,
                &mut f.dm,
                &mut f.bk,
                &f.ids,
                &mut f.lineage,
            )
            .expect("expansion succeeds");
            f.tm.record_task(spec, &expanded);
            f.dispatch(expanded.commands);
        }
        let ran = f.sim.drain(&expect);
        assert_eq!(ran.len(), specs.len());
        let (_, group, installs) =
            f.tm.finish_recording(BLOCK, &f.dm, &f.ids)
                .expect("recording finishes");
        f.group = group;
        f.sim.templates = installs.into_iter().collect();
        f
    }

    fn param(&self, entry: usize) -> f64 {
        (self.execution * 1_000 + entry as u64) as f64
    }

    /// The block's tasks in program order, with fresh task ids.
    fn specs(&self) -> Vec<TaskSpec> {
        self.specs_shape()
            .into_iter()
            .enumerate()
            .map(|(entry, (function, reads, write))| {
                TaskSpec::new(TaskId(self.ids.tasks.next_raw()), StageId(1), function)
                    .with_reads(reads)
                    .with_writes(vec![write])
                    .with_params(TaskParams::from_scalar(self.param(entry)))
            })
            .collect()
    }

    /// Runs the sequential model over one execution of the block whose tasks
    /// carry `task_ids` (in entry order) and returns what each must observe.
    fn expectations(&mut self, task_ids: Vec<TaskId>) -> HashMap<TaskId, Expectation> {
        let entries: Vec<(FunctionId, Vec<LogicalPartition>, LogicalPartition)> =
            self.specs_shape().into_iter().collect();
        assert_eq!(entries.len(), task_ids.len());
        let mut out = HashMap::new();
        for (entry, ((function, reads, write), task)) in
            entries.into_iter().zip(task_ids).enumerate()
        {
            let reads = reads
                .iter()
                .map(|lp| (*lp, self.model.get(lp).copied().unwrap_or(0)))
                .collect();
            let version = self.model.entry(write).or_insert(0);
            *version += 1;
            out.insert(
                task,
                Expectation {
                    function,
                    reads,
                    write: (write, *version),
                    param: self.param(entry),
                },
            );
        }
        out
    }

    /// `(function, reads, write)` of every controller entry, in order.
    fn specs_shape(&self) -> Vec<(FunctionId, Vec<LogicalPartition>, LogicalPartition)> {
        let n = self.tasks;
        match self.shape {
            Shape::Independent | Shape::Reduce => {
                let mut v: Vec<_> = (0..n).map(|p| (WORK, vec![], lp(DATA, p))).collect();
                if self.shape == Shape::Reduce {
                    v.push((REDUCE, (0..n).map(|p| lp(DATA, p)).collect(), lp(TOTAL, 0)));
                }
                v
            }
            Shape::Broadcast => {
                let mut v: Vec<_> = (0..n)
                    .map(|p| (WORK, vec![lp(DATA, p), lp(WEIGHTS, 0)], lp(GRADIENT, p)))
                    .collect();
                v.push((
                    REDUCE,
                    (0..n).map(|p| lp(GRADIENT, p)).collect(),
                    lp(WEIGHTS, 0),
                ));
                v
            }
        }
    }

    /// Number of controller entries (tasks) in the block.
    pub fn entries(&self) -> usize {
        self.specs_shape().len()
    }

    fn dispatch(&mut self, commands: Vec<AssignedCommand>) {
        // One `ExecuteCommands` per worker per run of consecutive commands,
        // in order — enough to keep each worker's arrival order.
        for ac in commands {
            self.sim.enqueue(ac.worker, vec![ac.command]);
        }
    }

    pub fn group(&self) -> &WorkerTemplateGroup {
        self.tm.registry.group(self.group).expect("group installed")
    }

    pub fn migrate(&mut self, count: usize) -> usize {
        self.tm
            .plan_migrations(BLOCK, count, &self.workers, &mut self.dm)
            .expect("migration planning succeeds")
    }

    pub fn migrate_to(&mut self, dest: WorkerId, count: usize) -> usize {
        self.tm
            .plan_migrations_to(self.group, dest, count, &mut self.dm)
            .expect("migration planning succeeds")
    }

    /// Plans the next execution and runs it on the symbolic workers the way
    /// the controller and the workers would: patch commands first, then each
    /// worker applies the shipped edits to its own template copy and expands
    /// it. Every check of the module header happens in here.
    pub fn instantiate(&mut self) -> Executed {
        self.execution += 1;
        let n = self.entries();
        let params = InstantiationParams::PerTask(
            (0..n)
                .map(|e| TaskParams::from_scalar(self.param(e)))
                .collect(),
        );
        let task_base = self.ids.tasks.next_block(0);
        let expect = self.expectations((0..n as u64).map(|e| TaskId(task_base + e)).collect());
        let plan: InstantiationPlan = self
            .tm
            .plan_instantiation(self.group, &params, &mut self.dm, &mut self.bk, &self.ids)
            .expect("planning succeeds");
        let before = self.sim.commands_executed;
        let patch_commands = plan.patch_commands.len();
        self.dispatch(plan.patch_commands);
        let mut edits = 0;
        let mut task_ids_sent = 0;
        let mut expanded = 0u64;
        for (worker, inst) in plan.per_worker {
            edits += inst.edits.len();
            task_ids_sent += inst.task_ids.len();
            assert_eq!(inst.task_ids.len(), inst.params.len());
            let template = self.sim.templates.get_mut(&worker).expect("installed");
            template
                .apply_edits(&inst.edits)
                .expect("edits apply on the worker");
            let commands = template.instantiate(&inst).expect("instantiation succeeds");
            expanded += commands.len() as u64;
            self.sim.enqueue(worker, commands);
        }
        assert_eq!(expanded, plan.expected_commands);
        let mut ran = self.sim.drain(&expect);
        ran.sort_unstable();
        let all: Vec<TaskId> = (0..n as u64).map(|e| TaskId(task_base + e)).collect();
        assert_eq!(ran, all, "every task of the block runs exactly once");
        self.check_mirror();
        self.check_data_state();
        Executed {
            auto_validated: plan.auto_validated,
            edits,
            patch_commands,
            task_ids_sent,
            commands: self.sim.commands_executed - before,
        }
    }

    /// The controller's mirror equals what the workers hold.
    fn check_mirror(&self) {
        let group = self.group();
        for (worker, template) in &group.per_worker {
            assert_eq!(
                Some(template),
                self.sim.templates.get(worker),
                "mirror and installed template of {worker} differ"
            );
        }
    }

    /// Where the controller believes the latest version of a partition is,
    /// it is; and every written partition still has such a place.
    fn check_data_state(&self) {
        for (partition, version) in &self.model {
            assert_eq!(self.dm.versions.current(*partition).raw(), *version);
            let holders = self
                .dm
                .instances
                .latest_holders(*partition, &self.dm.versions);
            assert!(!holders.is_empty(), "{partition} lost its latest version");
            for holder in holders {
                let held = self.sim.stores[&holder.worker].get(&holder.id);
                assert_eq!(
                    held,
                    Some(&(*partition, *version)),
                    "controller believes {} on {} is up to date",
                    holder.id,
                    holder.worker
                );
            }
        }
    }

    /// Structural invariants of the group: see each assertion.
    pub fn check_structure(&self) {
        let group = self.group();
        let ct = self
            .tm
            .registry
            .controller_template(group.controller_template)
            .expect("controller template");
        let mut runs: HashMap<usize, usize> = HashMap::new();
        let mut receives: HashMap<usize, (WorkerId, WorkerId)> = HashMap::new();
        let mut sends: HashMap<usize, (WorkerId, WorkerId)> = HashMap::new();
        for (worker, template) in &group.per_worker {
            let slots = group
                .task_slot_map
                .get(worker)
                .map_or(&[][..], Vec::as_slice);
            assert!(slots.len() >= template.task_slots);
            let received: HashSet<PhysicalObjectId> = template
                .entries
                .iter()
                .filter_map(|e| match &e.kind {
                    SkeletonKind::ReceiveCopy { to, .. } => Some(*to),
                    _ => None,
                })
                .collect();
            for (i, e) in template.entries.iter().enumerate() {
                for dep in &e.before {
                    assert!(*dep < template.len() || !template.is_live(*dep));
                    assert_ne!(*dep, i);
                }
                match &e.kind {
                    SkeletonKind::RunTask { task_slot, .. } => {
                        // The slot invariant: slot s of worker w is filled
                        // from the controller entry the task entry stands for.
                        let entry = slots[*task_slot];
                        let written = self.dm.instances.get(e.writes[0]).expect("instance");
                        assert_eq!(written.worker, *worker);
                        assert_eq!(ct.entries[entry].writes, vec![written.logical]);
                        assert_eq!(e.param_slot, Some(*task_slot));
                        *runs.entry(entry).or_default() += 1;
                    }
                    SkeletonKind::SendCopy {
                        from,
                        to_worker,
                        transfer_slot,
                    } => {
                        assert!(
                            !received.contains(from),
                            "{worker} forwards what it received: a chain of hops"
                        );
                        assert!(*transfer_slot < group.transfer_slots);
                        let clash = sends.insert(*transfer_slot, (*worker, *to_worker));
                        assert!(clash.is_none(), "transfer slot {transfer_slot} sent twice");
                    }
                    SkeletonKind::ReceiveCopy {
                        from_worker,
                        transfer_slot,
                        ..
                    } => {
                        let clash = receives.insert(*transfer_slot, (*from_worker, *worker));
                        assert!(
                            clash.is_none(),
                            "transfer slot {transfer_slot} received twice"
                        );
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(
            sends, receives,
            "every send has its receive, and from the right worker"
        );
        for entry in 0..ct.entries.len() {
            assert_eq!(
                runs.get(&entry),
                Some(&1),
                "entry {entry} runs on exactly one worker"
            );
        }
        for pre in &group.preconditions {
            let inst = self
                .dm
                .instances
                .get(pre.physical)
                .expect("precondition instance");
            assert_eq!((inst.worker, inst.logical), (pre.worker, pre.logical));
        }
    }

    /// Live send entries across the group.
    pub fn send_entries(&self) -> usize {
        self.count_entries(|k| matches!(k, SkeletonKind::SendCopy { .. }))
    }

    /// Live receive entries across the group.
    pub fn receive_entries(&self) -> usize {
        self.count_entries(|k| matches!(k, SkeletonKind::ReceiveCopy { .. }))
    }

    /// Live entries of every kind across the group.
    pub fn live_entries(&self) -> usize {
        self.count_entries(|k| !k.is_nop())
    }

    fn count_entries(&self, f: impl Fn(&SkeletonKind) -> bool) -> usize {
        self.group()
            .per_worker
            .values()
            .flat_map(|t| &t.entries)
            .filter(|e| f(&e.kind))
            .count()
    }

    /// Tasks currently placed on `worker`.
    pub fn tasks_on(&self, worker: WorkerId) -> usize {
        self.group().per_worker[&worker].task_count()
    }
}
