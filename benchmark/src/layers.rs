//! The `--trace 1` run: per-layer numbers measured from outside.
//!
//! Three parts share the run's `--seconds`: short untraced end-to-end runs
//! and the same runs with a span around every driver call (their ratio is
//! the tracing overhead), then one probe per layer that calls the layer's
//! public functions directly at this workload's block shape, each call
//! inside a span. Nothing inside the program under test is instrumented.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nimbus_controller::{
    expand_task, AssignmentPolicy, Bookkeeping, DataManager, IdGens, InstantiationPlan,
    TemplateManager,
};
use nimbus_core::appdata::VecF64;
use nimbus_core::ids::{
    JobId, LogicalPartition, PartitionIndex, StageId, TaskId, TemplateId, WorkerId,
};
use nimbus_core::lineage::LineageLog;
use nimbus_core::template::{
    compute_patch, validate_preconditions, InstantiationParams, WorkerInstantiation, WorkerTemplate,
};
use nimbus_core::{AssignedCommand, Command, CommandKind, DatasetDef, TaskParams, TaskSpec};
use nimbus_net::{
    decode, encode_into, ControllerToDriver, ControllerToWorker, DriverMessage, Envelope,
    LatencyModel, Message, Network, NodeId, TcpFabric, TransportEndpoint, WorkerToController,
};
use nimbus_runtime::Cluster;
use nimbus_worker::{CommandQueue, DataStore, Executor, ObjectVault, Worker, WorkerConfig};

use crate::app::{self, Deltas};
use crate::json::{obj, Json};
use crate::metrics::PER_LAYER;
use crate::run::{end_to_end_values, out_dir, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Kind, Transport, Workload};
use crate::Args;

const JOB: JobId = JobId(1);
const W0: WorkerId = WorkerId(0);
/// Earlier migrations after which the controller probes read planning cost,
/// with the metric of the plan that carries the next migration's edits and
/// the metric of the plans that follow it.
const K_POINTS: [(usize, &str, Option<&str>); 3] = [
    (0, "controller.plan_ns_edit_k0", None),
    (
        8,
        "controller.plan_ns_edit_k8",
        Some("controller.plan_ns_steady_k8"),
    ),
    (
        80,
        "controller.plan_ns_edit_k80",
        Some("controller.plan_ns_steady_k80"),
    ),
];
/// `compute_patch` is timed on the state after this many migrations.
const PATCH_AT: usize = 8;
/// Steady plans timed after each of those migrations.
const STEADY_PLANS: usize = 5;

/// Runs `timed` (after an untimed `prep`) until `budget` is spent, at least
/// three times, each call inside a span; returns nanoseconds per call. A
/// quarter of the budget first goes to untimed calls, so that caches and
/// allocations reach their working state.
fn try_probe<P, R>(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    mut prep: impl FnMut() -> P,
    mut timed: impl FnMut(P) -> Result<R, String>,
) -> Result<Vec<f64>, String> {
    let begin = Instant::now();
    black_box(timed(prep())?);
    while begin.elapsed() < budget / 4 {
        black_box(timed(prep())?);
    }
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || begin.elapsed() < budget {
        let input = prep();
        let open = tracer.open(name, samples.len() as u64);
        let start = Instant::now();
        let output = timed(input);
        let took = start.elapsed();
        tracer.close(open);
        black_box(output?);
        samples.push(took.as_nanos() as f64);
    }
    Ok(samples)
}

/// [`try_probe`] for calls that cannot fail.
fn probe<P, R>(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    prep: impl FnMut() -> P,
    mut timed: impl FnMut(P) -> R,
) -> Vec<f64> {
    try_probe(tracer, name, budget, prep, |input| Ok(timed(input)))
        .expect("the timed call returns no error")
}

/// The controller's planning state for one workload's blocks, built the way
/// the controller builds it: per-task expansion while recording, then
/// `finish_recording`. No threads, no transport.
struct Fixture {
    dm: DataManager,
    bk: Bookkeeping,
    ids: IdGens,
    tm: TemplateManager,
    lineage: LineageLog,
    workers: Vec<WorkerId>,
    group: TemplateId,
    /// The `CreateData` commands recording produced, which templates omit.
    creates: Vec<AssignedCommand>,
    expand_ns: Vec<f64>,
}

impl Fixture {
    fn new(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let workers: Vec<WorkerId> = (0..app::WORKERS as u32).map(WorkerId).collect();
        let mut dm = DataManager::new(AssignmentPolicy::hash());
        dm.define_dataset(DatasetDef::new(app::DATA, "data", w.tasks));
        let mut f = Fixture {
            dm,
            bk: Bookkeeping::new(),
            ids: IdGens::new(),
            tm: TemplateManager::new(),
            lineage: LineageLog::new(),
            workers,
            group: TemplateId(0),
            creates: Vec::new(),
            expand_ns: Vec::new(),
        };
        f.tm.start_recording("block").map_err(|e| e.to_string())?;
        for p in 0..w.tasks {
            let spec = TaskSpec::new(TaskId(f.ids.tasks.next_raw()), StageId(1), app::ADD)
                .with_writes(vec![LogicalPartition::new(app::DATA, PartitionIndex(p))])
                .with_params(TaskParams::from_scalar(w.deltas().of(seed, 0, p)));
            let open = tracer.open("controller.expand_task", u64::from(p));
            let start = Instant::now();
            let expanded = expand_task(
                &spec,
                &f.workers,
                &mut f.dm,
                &mut f.bk,
                &f.ids,
                &mut f.lineage,
            )
            .map_err(|e| e.to_string())?;
            f.tm.record_task(&spec, &expanded);
            f.expand_ns.push(start.elapsed().as_nanos() as f64);
            tracer.close(open);
            f.creates.extend(
                expanded
                    .commands
                    .into_iter()
                    .filter(|c| matches!(c.command.kind, CommandKind::CreateData { .. })),
            );
        }
        let (_, group, _) =
            f.tm.finish_recording("block", &f.dm, &f.ids)
                .map_err(|e| e.to_string())?;
        f.group = group;
        Ok(f)
    }

    fn plan(&mut self, params: &InstantiationParams) -> InstantiationPlan {
        self.tm
            .plan_instantiation(self.group, params, &mut self.dm, &mut self.bk, &self.ids)
            .expect("planning the fixture's own block succeeds")
    }

    fn migrate(&mut self, count: usize) {
        self.tm
            .plan_migrations("block", count, &self.workers, &mut self.dm)
            .expect("migration planning succeeds");
    }

    fn template_of(&self, worker: WorkerId) -> WorkerTemplate {
        self.tm
            .registry
            .group(self.group)
            .expect("group installed")
            .per_worker[&worker]
            .clone()
    }

    /// Worker 0's share of the next instantiation, as concrete commands.
    fn next_commands(
        &mut self,
        template: &WorkerTemplate,
        params: &InstantiationParams,
    ) -> (WorkerInstantiation, Vec<Command>) {
        let plan = self.plan(params);
        let inst = plan
            .per_worker
            .into_iter()
            .find(|(worker, _)| *worker == W0)
            .map(|(_, inst)| inst)
            .expect("worker 0 holds part of every block");
        let commands = template.instantiate(&inst).expect("instantiation succeeds");
        (inst, commands)
    }
}

/// The parameters the driver would send, execution after execution.
struct Params {
    tasks: u32,
    deltas: Deltas,
    seed: u64,
    iteration: u64,
}

impl Params {
    fn new(w: &Workload, seed: u64) -> Self {
        Params {
            tasks: w.tasks,
            deltas: w.deltas(),
            seed,
            // Execution 0 was the recording.
            iteration: 1,
        }
    }

    fn next(&mut self) -> InstantiationParams {
        let iteration = self.iteration;
        self.iteration += 1;
        InstantiationParams::PerTask(
            (0..self.tasks)
                .map(|p| TaskParams::from_scalar(self.deltas.of(self.seed, iteration, p)))
                .collect(),
        )
    }
}

type Values = HashMap<&'static str, f64>;

fn controller_and_core(
    w: &Workload,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let mut f = Fixture::new(w, seed, tracer)?;
    let mut params = Params::new(w, seed);
    values.insert("controller.expand_task_ns", median(&f.expand_ns));

    f.plan(&params.next());
    let auto = probe(
        tracer,
        "controller.plan_instantiation",
        budget,
        || params.next(),
        |params| f.plan(&params).auto_validated,
    );
    values.insert("controller.plan_ns_auto", median(&auto));
    values.insert(
        "controller.plan_ns_per_task_auto",
        median(&auto) / f64::from(w.tasks),
    );
    let full = probe(
        tracer,
        "controller.plan_instantiation",
        budget,
        || params.next(),
        |params| {
            // What switching blocks does: the group is no longer the one
            // that ran last, so its preconditions are checked.
            f.tm.last_executed = None;
            f.plan(&params).auto_validated
        },
    );
    values.insert("controller.plan_ns_full", median(&full));

    // Core calls on the same state.
    let preconditions =
        f.tm.registry
            .group(f.group)
            .map_err(|e| e.to_string())?
            .preconditions
            .clone();
    let validate = probe(
        tracer,
        "core.validate_preconditions",
        budget / 2,
        || {},
        |()| validate_preconditions(&preconditions, &f.dm.instances, &f.dm.versions).len(),
    );
    values.insert(
        "core.validate_ns_per_precondition",
        median(&validate) / preconditions.len().max(1) as f64,
    );
    let template = f.template_of(W0);
    let (inst, _) = f.next_commands(&template, &params.next());
    let instantiate = probe(
        tracer,
        "core.worker_template_instantiate",
        budget / 2,
        || {},
        |()| template.instantiate(&inst).map(|c| c.len()),
    );
    values.insert(
        "core.instantiate_ns_per_entry",
        median(&instantiate) / template.entries.len().max(1) as f64,
    );

    // Planning with edits: repeat a fresh fixture's first 81 migrations.
    let last = K_POINTS[K_POINTS.len() - 1].0;
    let mut edit_ns: Vec<Vec<f64>> = vec![Vec::new(); K_POINTS.len()];
    let mut steady_ns: Vec<Vec<f64>> = vec![Vec::new(); K_POINTS.len()];
    let mut apply_ns_per_edit = Vec::new();
    let mut patch_ns = Vec::new();
    let begin = Instant::now();
    let mut repetition = 0u64;
    while repetition < 2 || begin.elapsed() < budget * 3 {
        let mut f = Fixture::new(w, seed, &mut Tracer::new(false))?;
        let mut params = Params::new(w, seed);
        f.plan(&params.next());
        for k in 0..=last {
            f.migrate(2);
            let point = K_POINTS.iter().position(|(at, ..)| *at == k);
            let before = point.map(|_| (f.template_of(W0), f.template_of(WorkerId(1))));
            let next = params.next();
            let open = tracer.open("controller.plan_instantiation", repetition);
            let start = Instant::now();
            let plan = f.plan(&next);
            let took = start.elapsed().as_nanos() as f64;
            tracer.close(open);
            let Some(point) = point else { continue };
            edit_ns[point].push(took);
            // The same edits, applied the way a worker applies them.
            let (t0, t1) = before.expect("cloned at a k point");
            for (worker, inst) in &plan.per_worker {
                if inst.edits.is_empty() {
                    continue;
                }
                let mut template = if *worker == W0 {
                    t0.clone()
                } else {
                    t1.clone()
                };
                let open = tracer.open("core.apply_edits", repetition);
                let start = Instant::now();
                template
                    .apply_edits(&inst.edits)
                    .map_err(|e| e.to_string())?;
                apply_ns_per_edit.push(start.elapsed().as_nanos() as f64 / inst.edits.len() as f64);
                tracer.close(open);
            }
            for _ in 0..STEADY_PLANS {
                let next = params.next();
                let open = tracer.open("controller.plan_instantiation", repetition);
                let start = Instant::now();
                black_box(f.plan(&next).patch_cache_hit);
                steady_ns[point].push(start.elapsed().as_nanos() as f64);
                tracer.close(open);
            }
            if k == PATCH_AT {
                let group = f.tm.registry.group(f.group).map_err(|e| e.to_string())?;
                let open = tracer.open("core.compute_patch", repetition);
                let start = Instant::now();
                let patch = compute_patch(
                    f.group,
                    &group.preconditions,
                    &f.dm.instances,
                    &f.dm.versions,
                )
                .map_err(|e| e.to_string())?;
                patch_ns.push(start.elapsed().as_nanos() as f64);
                tracer.close(open);
                black_box(patch);
            }
        }
        repetition += 1;
    }
    for (i, (_, edit, steady)) in K_POINTS.iter().enumerate() {
        values.insert(edit, median(&edit_ns[i]));
        if let Some(steady) = steady {
            values.insert(steady, median(&steady_ns[i]));
        }
    }
    values.insert("core.apply_edits_ns_per_edit", median(&apply_ns_per_edit));
    values.insert("core.patch_compute_ns", median(&patch_ns));
    Ok(())
}

fn worker_layer(
    w: &Workload,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let mut f = Fixture::new(w, seed, &mut Tracer::new(false))?;
    let mut params = Params::new(w, seed);
    f.plan(&params.next());
    let template = f.template_of(W0);
    let tasks = template.task_count().max(1) as f64;
    let (functions, factories) = app::setup().into_shared();

    let mut queue = CommandQueue::new();
    let queued = probe(
        tracer,
        "worker.command_queue",
        budget,
        || f.next_commands(&template, &params.next()).1,
        |commands| {
            let ignored = queue.add_commands(commands);
            let mut done = 0u64;
            while let Some(command) = queue.pop_ready() {
                queue.complete(command.id);
                done += 1;
            }
            (ignored, done)
        },
    );
    values.insert("worker.queue_ns_per_cmd", median(&queued) / tasks);

    let executor = Executor::new(W0, Arc::clone(&functions));
    let mut store = DataStore::new();
    let (_, commands) = f.next_commands(&template, &params.next());
    for command in &commands {
        for object in &command.write_set {
            let logical =
                f.dm.instances
                    .get(*object)
                    .ok_or("template writes an unknown object")?
                    .logical;
            store.create(*object, logical, Box::new(VecF64::zeros(4)));
        }
    }
    let executed = probe(
        tracer,
        "worker.executor_run_tasks",
        budget,
        || {},
        |()| {
            for command in &commands {
                executor
                    .run_task(command, &mut store)
                    .expect("add runs on the benchmark's own objects");
            }
        },
    );
    values.insert("worker.exec_ns_per_task", median(&executed) / tasks);

    // A real worker on an in-process endpoint, the benchmark standing in
    // for the controller.
    let network = Network::new(LatencyModel::None);
    let controller = network.register(NodeId::Controller);
    let config = WorkerConfig::new(W0, functions, factories, Arc::new(ObjectVault::new()));
    let mut worker = Worker::new(config, network.register(NodeId::Worker(W0)));
    let to_worker = |msg: ControllerToWorker| {
        controller
            .send(NodeId::Worker(W0), Message::ToWorker(msg))
            .map_err(|e| e.to_string())
    };
    // Steps until `wanted` completions came back; a worker that stops
    // reporting is an error, not a hang.
    let drain = |worker: &mut Worker, wanted: usize| -> Result<(), String> {
        let mut seen = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen < wanted {
            worker.step(Duration::ZERO);
            while let Ok(envelope) = controller.try_recv() {
                if let Message::FromWorker(WorkerToController::CommandsCompleted {
                    commands, ..
                }) = envelope.message
                {
                    seen += commands.len();
                }
            }
            if Instant::now() > deadline {
                return Err(format!("worker reported {seen} of {wanted} completions"));
            }
        }
        Ok(())
    };
    let creates: Vec<Command> = f
        .creates
        .iter()
        .filter(|c| c.worker == W0)
        .map(|c| c.command.clone())
        .collect();
    let wanted = creates.len();
    to_worker(ControllerToWorker::ExecuteCommands {
        job: JOB,
        commands: creates,
    })?;
    to_worker(ControllerToWorker::InstallTemplate {
        job: JOB,
        template: template.clone(),
    })?;
    drain(&mut worker, wanted)?;
    let stepped = try_probe(
        tracer,
        "worker.step",
        budget,
        || f.next_commands(&template, &params.next()).0,
        |inst| {
            to_worker(ControllerToWorker::InstantiateTemplate { job: JOB, inst })?;
            drain(&mut worker, tasks as usize)
        },
    )?;
    if let Some(failure) = worker.stats().failures.first() {
        return Err(format!("probe worker failed: {failure}"));
    }
    values.insert("worker.step_ns_per_task", median(&stepped) / tasks);
    Ok(())
}

fn net_layer(
    w: &Workload,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    // The messages one instantiation of this workload puts on the wire.
    let mut f = Fixture::new(w, seed, &mut Tracer::new(false))?;
    let params = Params::new(w, seed).next();
    let plan = f.plan(&params);
    let to_controller = Message::Driver {
        job: JOB,
        msg: DriverMessage::InstantiateTemplate {
            name: "block".to_string(),
            params,
        },
    };
    let mut envelopes = vec![Envelope {
        from: NodeId::Driver,
        to: NodeId::Controller,
        message: to_controller.clone(),
    }];
    for (worker, inst) in plan.per_worker {
        envelopes.push(Envelope {
            from: NodeId::Controller,
            to: NodeId::Worker(worker),
            message: Message::ToWorker(ControllerToWorker::InstantiateTemplate { job: JOB, inst }),
        });
    }
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    for envelope in &envelopes {
        let mut buf = Vec::new();
        encode_into(envelope, &mut buf).map_err(|e| e.to_string())?;
        encoded.push(buf);
    }
    values.insert(
        "net.bytes_per_inst",
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
    );
    const REPEAT: usize = 64;
    let per_round = (REPEAT * envelopes.len()) as f64;
    let mut buf = Vec::new();
    let encode = probe(
        tracer,
        "net.encode",
        budget,
        || {},
        |()| {
            for _ in 0..REPEAT {
                for envelope in &envelopes {
                    buf.clear();
                    encode_into(envelope, &mut buf).expect("encodes");
                    black_box(&buf);
                }
            }
        },
    );
    values.insert("net.encode_ns_per_msg", median(&encode) / per_round);
    let decoded = probe(
        tracer,
        "net.decode",
        budget,
        || {},
        |()| {
            for _ in 0..REPEAT {
                for bytes in &encoded {
                    black_box(decode::<Envelope>(bytes).expect("decodes"));
                }
            }
        },
    );
    values.insert("net.decode_ns_per_msg", median(&decoded) / per_round);

    // The TCP fabric alone: one connection, this workload's driver message.
    let fabric = TcpFabric::bind_loopback(&[NodeId::Driver, NodeId::Controller])
        .map_err(|e| e.to_string())?;
    let tx = fabric.endpoint(NodeId::Driver).map_err(|e| e.to_string())?;
    let rx = fabric
        .endpoint(NodeId::Controller)
        .map_err(|e| e.to_string())?;
    const ROUND: usize = 2_048;
    for (name, batch) in [
        ("net.tcp_msgs_per_s_batch1", 1),
        ("net.tcp_msgs_per_s_batch64", 64),
    ] {
        let rounds = try_probe(
            tracer,
            "net.tcp_send_many",
            budget,
            || -> Vec<Vec<Message>> {
                (0..ROUND / batch)
                    .map(|_| vec![to_controller.clone(); batch])
                    .collect()
            },
            |batches| {
                // Delivery included: a round ends when the receiver has
                // drained it, so filling kernel buffers does not count.
                for messages in batches {
                    tx.send_many(NodeId::Controller, messages)
                        .map_err(|e| format!("tcp probe: {e}"))?;
                }
                for _ in 0..ROUND {
                    rx.recv_timeout(Duration::from_secs(10))
                        .map_err(|e| format!("tcp probe: {e}"))?;
                }
                Ok(())
            },
        )?;
        values.insert(name, ROUND as f64 * 1e9 / median(&rounds));
    }

    // Ping-pong: the controller endpoint echoes from its own thread.
    let echo = std::thread::spawn(move || loop {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(envelope) => match envelope.message {
                Message::Driver {
                    msg: DriverMessage::Shutdown,
                    ..
                } => return Ok(()),
                Message::Driver { .. } => {
                    let reply = Message::ToDriver(ControllerToDriver::Ack);
                    if let Err(e) = rx.send(NodeId::Driver, reply) {
                        return Err(e.to_string());
                    }
                }
                _ => {}
            },
            Err(e) => return Err(e.to_string()),
        }
    });
    const PINGS: usize = 64;
    let pings = try_probe(
        tracer,
        "net.tcp_ping_pong",
        budget,
        || {},
        |()| {
            for _ in 0..PINGS {
                tx.send(
                    NodeId::Controller,
                    Message::driver(JOB, DriverMessage::Barrier),
                )
                .map_err(|e| format!("tcp ping: {e}"))?;
                loop {
                    let envelope = tx
                        .recv_timeout(Duration::from_secs(10))
                        .map_err(|e| format!("tcp pong: {e}"))?;
                    if matches!(envelope.message, Message::ToDriver(_)) {
                        break;
                    }
                }
            }
            Ok(())
        },
    );
    // Stop the echo thread whether or not the probe succeeded.
    let stop = tx.send(
        NodeId::Controller,
        Message::driver(JOB, DriverMessage::Shutdown),
    );
    let echoed = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    let pings = pings?;
    stop.map_err(|e| e.to_string())?;
    echoed?;
    values.insert("net.tcp_rtt_us", median(&pings) / PINGS as f64 / 1e3);
    Ok(())
}

fn runtime_layer(tracer: &mut Tracer, values: &mut Values) -> Result<(), String> {
    for (name, transport) in [
        ("runtime.cluster_start_ms_inproc", Transport::InProcess),
        ("runtime.cluster_start_ms_tcp", Transport::Tcp),
    ] {
        let mut starts = Vec::new();
        for i in 0..5 {
            let open = tracer.open("runtime.cluster_start", i);
            let begin = Instant::now();
            let cluster = Cluster::start(transport.config(), app::setup());
            cluster
                .run_driver(|ctx| {
                    ctx.barrier()?;
                    starts.push(begin.elapsed().as_secs_f64() * 1e3);
                    Ok(())
                })
                .map_err(|e| e.to_string())?;
            tracer.close(open);
        }
        values.insert(name, median(&starts));
    }
    Ok(())
}

/// The `--trace 1` run of workload `w`.
pub fn traced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut values: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut notes: Vec<String> = Vec::new();
    // Untraced, traced, traced, untraced: whatever the process gains or
    // loses as it ages falls on both sides alike.
    let slice = args.seconds * 0.1;
    let mut tracer = Tracer::new(true);
    let mut untraced = workloads::run(w, args.seed, slice, 1, &mut Tracer::new(false));
    let mut traced = workloads::run(w, args.seed, slice, 1, &mut tracer);
    traced.pool(workloads::run(w, args.seed, slice, 1, &mut tracer));
    untraced.pool(workloads::run(
        w,
        args.seed,
        slice,
        1,
        &mut Tracer::new(false),
    ));

    let [untraced_tps, untraced_p50, ..] = end_to_end_values(&untraced);
    let [traced_tps, ..] = end_to_end_values(&traced);
    values.insert("untraced.tasks_per_s", untraced_tps);
    values.insert("traced.tasks_per_s", traced_tps);
    values.insert("untraced.iter_us_p50", untraced_p50);
    if untraced_tps > 0.0 {
        values.insert("trace_overhead_share", 1.0 - traced_tps / untraced_tps);
    }
    let span_median = |name: &str, scale: f64| median(&tracer.durations_ns(name)) / scale;
    values.insert(
        "driver.block_call_ns",
        span_median("driver.block_call", 1.0),
    );
    values.insert(
        "driver.fetch_wait_us",
        span_median("driver.fetch_wait", 1e3),
    );
    values.insert(
        "driver.barrier_wait_us",
        span_median("driver.barrier_wait", 1e3),
    );
    values.insert(
        "driver.migrate_ack_us",
        span_median("driver.migrate_ack", 1e3),
    );

    // Counts, from the traced run's own counters.
    let c = &traced.controller;
    let inst = c.controller_template_instantiations.max(1) as f64;
    let tcp = w.transport == Transport::Tcp;
    if tcp {
        // The in-process fabric mirrors the batching counters for
        // comparability but has no frames or writes; only TCP's count here.
        values.insert(
            "net.tcp_writes_per_inst",
            traced.network.tcp_writes as f64 / inst,
        );
        values.insert(
            "net.frames_coalesced_per_inst",
            traced.network.frames_coalesced as f64 / inst,
        );
        values.insert(
            "net.batched_msgs_per_inst",
            traced.network.batched_commands as f64 / inst,
        );
    }
    values.insert(
        "controller.auto_validations_per_inst",
        c.auto_validations as f64 / inst,
    );
    values.insert(
        "controller.full_validations_per_inst",
        c.full_validations as f64 / inst,
    );
    values.insert(
        "controller.patch_cache_hits_per_inst",
        c.patch_cache_hits as f64 / inst,
    );
    values.insert(
        "controller.patch_cache_misses_per_inst",
        c.patch_cache_misses as f64 / inst,
    );
    values.insert("controller.edits_applied", c.edits_applied as f64);
    values.insert("controller.copies_inserted", c.copies_inserted as f64);
    values.insert("controller.msgs_per_inst", c.total_messages() as f64 / inst);
    values.insert(
        "controller.templates_per_cluster",
        c.controller_templates_installed as f64 / traced.clusters.max(1) as f64,
    );
    values.insert(
        "worker.commands_per_inst",
        traced.workers.commands_executed as f64 / inst,
    );
    values.insert(
        "worker.tasks_per_inst",
        traced.workers.tasks_executed as f64 / inst,
    );
    values.insert(
        "worker.completion_msgs_per_inst",
        traced.network.count("commands_completed") as f64 / inst,
    );
    values.insert(
        "worker.duplicate_commands_ignored",
        traced.workers.duplicate_commands_ignored as f64,
    );

    // Probes: half the run split over the sixteen budgets a TCP workload
    // spends (an in-process one skips the net probes and ends sooner).
    let budget = Duration::from_secs_f64(args.seconds * 0.5 / 16.0);
    controller_and_core(w, args.seed, budget, &mut tracer, &mut values)?;
    worker_layer(w, args.seed, budget, &mut tracer, &mut values)?;
    if tcp {
        net_layer(w, args.seed, budget, &mut tracer, &mut values)?;
    }
    runtime_layer(&mut tracer, &mut values)?;

    // How the layers add up, beside what was measured.
    let tasks = f64::from(w.tasks);
    let net_ns = (values["net.encode_ns_per_msg"] + values["net.decode_ns_per_msg"])
        * (1 + app::WORKERS) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    match w.kind {
        Kind::Flood { .. } => {
            let per_task = (values["driver.block_call_ns"] + net_ns + values["controller.plan_ns_auto"])
                / tasks
                + values["worker.step_ns_per_task"];
            let predicted = cores * 1e9 / per_task;
            values.insert("model.cpu_ns_per_task", per_task);
            values.insert("model.predicted_tasks_per_s", predicted);
            values.insert("model.unattributed_share", 1.0 - untraced_tps / predicted);
            notes.push(format!(
                "pipelined, more runnable threads than cores, so throughput follows total CPU per task: \
                 {cores} cores / {per_task:.0} ns per task (driver.block_call + net codec x {} msgs + controller.plan_auto, all / {tasks} tasks, + worker.step) \
                 predicts {predicted:.0} tasks/s; measured {untraced_tps:.0} tasks/s untraced; unattributed_share {:.3}",
                1 + app::WORKERS,
                1.0 - untraced_tps / predicted
            ));
        }
        Kind::Loop { .. } => {
            let full_share = values["controller.full_validations_per_inst"];
            let plan = full_share * values["controller.plan_ns_full"]
                + (1.0 - full_share) * values["controller.plan_ns_auto"];
            // Block to controller to worker, completion back, then the
            // fetch's worker round trip and reply: six one-way hops.
            let predicted = (values["driver.block_call_ns"]
                + plan
                + values["worker.step_ns_per_task"] * tasks / app::WORKERS as f64)
                / 1e3
                + 3.0 * values["net.tcp_rtt_us"];
            values.insert("model.predicted_iter_us", predicted);
            notes.push(format!(
                "closed loop, so latency is the sum of the blocking path: driver.block_call + controller.plan ({:.0}% full validation) \
                 + worker.step x {} tasks + 3 x net.tcp_rtt predicts {predicted:.1} us per iteration; measured iter_us_p50 {untraced_p50:.1} us untraced",
                full_share * 100.0,
                tasks / app::WORKERS as f64
            ));
        }
        Kind::Edits { .. } => notes.push(format!(
            "planning cost grows with migrations applied: plan_ns_steady k8 {:.0} ns, k80 {:.0} ns (auto-validated {:.0} ns)",
            values["controller.plan_ns_steady_k8"],
            values["controller.plan_ns_steady_k80"],
            values["controller.plan_ns_auto"]
        )),
    }
    notes.push(format!(
        "trace_overhead_share {:.3} (traced {traced_tps:.0} vs untraced {untraced_tps:.0} tasks/s)",
        values["trace_overhead_share"]
    ));

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace.{}.json", w.name));
    std::fs::write(&path, tracer.to_json(w.name, args.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for note in &notes {
        println!("  {note}");
    }

    let mut by_tag: Vec<(String, Json)> = c
        .messages_by_tag
        .iter()
        .map(|(tag, count)| (tag.clone(), Json::from(*count as f64 / inst)))
        .collect();
    by_tag.sort_by(|a, b| a.0.cmp(&b.0));
    let self_time = tracer
        .self_time_ns()
        .into_iter()
        .map(|(name, ns)| (name.to_string(), Json::from(ns)))
        .collect();
    let detail = obj([
        ("trace_file", path.to_string_lossy().into_owned().into()),
        ("spans_dropped", tracer.dropped.into()),
        ("self_time_ns", Json::Obj(self_time)),
        ("controller_msgs_per_inst_by_tag", Json::Obj(by_tag)),
        ("instantiations", inst.into()),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::from).collect()),
        ),
    ]);
    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    Ok(Outcome {
        attempted: (untraced.attempted + traced.attempted).max(1),
        failed: untraced.failed + traced.failed,
        metrics: PER_LAYER.iter().map(|m| (*m, values[m.name])).collect(),
        detail,
        problems,
    })
}
