//! The four workloads and the end-to-end measurement of one of them.
//!
//! Every workload drives a real `Cluster` (controller thread, two worker
//! threads) from one driver thread through the public `Session` API, checks
//! the closed-form result, and reports samples: one `setup_s` per fresh
//! cluster start, the tasks and seconds of every timed window (or
//! repetition), one `iter_us` per timed iteration.

use std::time::{Duration, Instant};

use nimbus_core::appdata::VecF64;
use nimbus_core::ControlPlaneStats;
use nimbus_driver::{Dataset, DriverError, DriverResult, Session};
use nimbus_net::NetworkStats;
use nimbus_runtime::{Cluster, ClusterConfig, ClusterReport};
use nimbus_worker::WorkerStats;

use crate::app::{self, Deltas, Expected};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    InProcess,
    Tcp,
}

impl Transport {
    pub fn name(self) -> &'static str {
        match self {
            Transport::InProcess => "in-process",
            Transport::Tcp => "tcp-loopback",
        }
    }

    pub fn config(self) -> ClusterConfig {
        let config = ClusterConfig::new(app::WORKERS);
        match self {
            Transport::InProcess => config,
            Transport::Tcp => config.with_tcp_transport(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Pipelined: `window` instantiations are sent without waiting and the
    /// window closes on a barrier. A timed iteration is one window's time
    /// divided by its instantiations.
    Flood { window: u64 },
    /// Closed loop: fetch, branch on a hash of the value, run block `a` or
    /// `b`. Every iteration is timed; `window` iterations make one
    /// throughput sample.
    Loop { window: u64 },
    /// Pipelined with `migrate_tasks(block, moved)` before every
    /// `segment`-th instantiation. Throughput decays as edits accumulate, so
    /// a repetition is a fresh cluster running all `schedule` instantiations
    /// and a timed iteration is one segment's time divided by `segment`.
    Edits {
        schedule: u64,
        segment: u64,
        moved: usize,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    /// Tasks per block: the dataset's partition count.
    pub tasks: u32,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flood.small",
        why: "4-task blocks pipelined over TCP: per-instantiation cost (driver encode, codec, TCP, planning, one message per worker) is nearly all there is",
        transport: Transport::Tcp,
        tasks: 4,
        kind: Kind::Flood { window: 2_000 },
    },
    Workload {
        name: "flood.wide",
        why: "512-task blocks pipelined in-process: per-task worker cost dominates and codec and TCP are bypassed, so a net or planning change predicts no movement",
        transport: Transport::InProcess,
        tasks: 512,
        kind: Kind::Flood { window: 16 },
    },
    Workload {
        name: "loop.branch",
        why: "closed loop over TCP, fetch then one of two 16-task blocks: nothing pipelines, so blocking latency adds up, and switching blocks defeats auto-validation",
        transport: Transport::Tcp,
        tasks: 16,
        kind: Kind::Loop { window: 500 },
    },
    Workload {
        name: "edits.migrate",
        why: "64-task block over TCP with a migration before every 50th instantiation: templates used for writes (edits, patches, copies) beside reads",
        transport: Transport::Tcp,
        tasks: 64,
        kind: Kind::Edits {
            schedule: 4_000,
            segment: 50,
            moved: 2,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The block names this workload records, in recording order.
    pub fn blocks(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::Loop { .. } => &["a", "b"],
            _ => &["block"],
        }
    }

    pub fn deltas(&self) -> Deltas {
        match self.kind {
            Kind::Edits { .. } => Deltas::PerExecution,
            _ => Deltas::PerTask,
        }
    }

    /// What one throughput sample and one iteration sample cover.
    pub fn sample_sizes(&self) -> String {
        match self.kind {
            Kind::Flood { window } => format!(
                "window = {window} instantiations x {} tasks closed by a barrier; iteration = window time / {window}",
                self.tasks
            ),
            Kind::Loop { window } => format!(
                "window = {window} iterations x {} tasks; iteration = one fetch + one block call",
                self.tasks
            ),
            Kind::Edits {
                schedule,
                segment,
                moved,
            } => format!(
                "repetition = fresh cluster, {schedule} instantiations x {} tasks, migrate_tasks({moved}) before every {segment}th; iteration = segment time / {segment}",
                self.tasks
            ),
        }
    }
}

/// Samples and counters of one end-to-end run.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// One rate per window or repetition, kept for the spread within a run.
    pub tasks_per_s: Vec<f64>,
    /// Tasks completed in, and seconds spent in, all timed windows.
    pub timed_tasks: u64,
    pub timed_secs: f64,
    pub iter_us: Vec<f64>,
    /// Share of each flood window the driver spent waiting in the closing
    /// barrier: how far ahead of completion it had sent.
    pub send_ahead_share: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub instantiations: u64,
    /// Clusters whose counters are summed below.
    pub clusters: u64,
    pub controller: ControlPlaneStats,
    pub workers: WorkerStats,
    pub network: NetworkStats,
}

impl E2e {
    /// Accounts for one timed window or repetition.
    fn timed(&mut self, tasks: u64, secs: f64) {
        self.tasks_per_s.push(tasks as f64 / secs);
        self.timed_tasks += tasks;
        self.timed_secs += secs;
    }

    /// Tasks per second over every timed window together. Thread placement
    /// on this two-core machine flips the closed loop between a faster and a
    /// slower regime every few seconds, so a median over windows jumps
    /// between the two while this moves with their shares.
    pub fn tasks_per_s(&self) -> f64 {
        if self.timed_secs > 0.0 {
            self.timed_tasks as f64 / self.timed_secs
        } else {
            0.0
        }
    }

    /// Pools another run of the same workload into this one.
    pub fn pool(&mut self, other: E2e) {
        self.setup_s.extend(other.setup_s);
        self.tasks_per_s.extend(other.tasks_per_s);
        self.timed_tasks += other.timed_tasks;
        self.timed_secs += other.timed_secs;
        self.iter_us.extend(other.iter_us);
        self.send_ahead_share.extend(other.send_ahead_share);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.instantiations += other.instantiations;
        self.clusters += other.clusters;
        self.controller.merge(&other.controller);
        self.workers.merge(&other.workers);
        add_network(&mut self.network, &other.network);
    }

    fn problem(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Checks that hold over a whole run rather than one cluster.
    fn check_counters(&mut self, w: &Workload) {
        let blocks = w.blocks().len() as u64 * self.clusters;
        if self.controller.controller_templates_installed != blocks {
            self.problem(format!(
                "{} controller templates installed by {} clusters of {} block names",
                self.controller.controller_templates_installed,
                self.clusters,
                w.blocks().len()
            ));
        }
        let failures = std::mem::take(&mut self.workers.failures);
        for failure in &failures {
            self.problem(format!("worker failure: {failure}"));
        }
        self.workers.failures = failures;
        if matches!(w.kind, Kind::Edits { .. }) && self.controller.edits_applied == 0 {
            self.problem("no edits applied on the migration workload".to_string());
        }
    }

    fn absorb<T>(&mut self, report: &ClusterReport<T>) {
        self.clusters += 1;
        self.controller.merge(&report.controller);
        for worker in &report.workers {
            self.workers.merge(worker);
        }
        add_network(&mut self.network, &report.network);
    }
}

fn add_network(total: &mut NetworkStats, n: &NetworkStats) {
    total.messages += n.messages;
    total.control_bytes += n.control_bytes;
    total.data_bytes += n.data_bytes;
    total.frames_coalesced += n.frames_coalesced;
    total.batched_commands += n.batched_commands;
    total.tcp_writes += n.tcp_writes;
    for (tag, count) in &n.by_tag {
        *total.by_tag.entry(tag.clone()).or_insert(0) += count;
    }
}

/// The driver side of one cluster: the session plus everything the
/// benchmark tracks about what it asked for.
struct Harness<'a> {
    ctx: &'a mut Session,
    data: Dataset<VecF64>,
    expected: Expected,
    next_iteration: u64,
    out: &'a mut E2e,
    tracer: &'a mut Tracer,
}

impl Harness<'_> {
    fn op<T>(&mut self, result: DriverResult<T>) -> DriverResult<T> {
        self.out.attempted += 1;
        if result.is_err() {
            self.out.failed += 1;
        }
        result
    }

    /// Executes block `name` once with this iteration's deltas.
    fn block(&mut self, name: &str, sample: u64) -> DriverResult<()> {
        let iteration = self.next_iteration;
        self.next_iteration += 1;
        let open = self.tracer.open("driver.block_call", sample);
        let result = app::run_block(
            self.ctx,
            name,
            &self.data,
            self.expected.deltas,
            self.expected.seed,
            iteration,
        );
        self.tracer.close(open);
        self.expected.apply(iteration);
        self.op(result)
    }

    fn barrier(&mut self, sample: u64) -> DriverResult<()> {
        let open = self.tracer.open("driver.barrier_wait", sample);
        let result = self.ctx.barrier();
        self.tracer.close(open);
        self.op(result)
    }

    fn fetch(&mut self, partition: u32, sample: u64) -> DriverResult<f64> {
        let open = self.tracer.open("driver.fetch_wait", sample);
        let result = self.ctx.fetch(&self.data, partition);
        self.tracer.close(open);
        self.op(result)
    }

    fn migrate(&mut self, name: &str, count: usize, sample: u64) -> DriverResult<()> {
        let open = self.tracer.open("driver.migrate_ack", sample);
        let result = self.ctx.migrate_tasks(name, count);
        self.tracer.close(open);
        self.op(result)
    }

    /// Fetches every partition and compares it with the closed form.
    fn check_final_values(&mut self) -> DriverResult<()> {
        for p in 0..self.expected.partitions() {
            let got = self.fetch(p, u64::MAX)?;
            let want = self.expected.partition(p);
            if got != want {
                self.out.problem(format!(
                    "partition {p} holds {got}, closed form says {want}"
                ));
            }
        }
        Ok(())
    }
}

/// Starts a cluster, defines the dataset, records the workload's blocks and
/// waits for the first barrier — the span `setup_s` measures — then runs
/// `body`, checks the final values and shuts down.
fn with_cluster(
    w: &Workload,
    seed: u64,
    out: &mut E2e,
    tracer: &mut Tracer,
    body: impl FnOnce(&mut Harness<'_>) -> DriverResult<()>,
) -> DriverResult<()> {
    let started = Instant::now();
    let cluster = Cluster::start(w.transport.config(), app::setup());
    let report = cluster.run_driver(|ctx| {
        let data = ctx.define_dataset::<VecF64>("data", w.tasks)?;
        let mut h = Harness {
            ctx,
            data,
            expected: Expected::new(seed, w.deltas(), w.tasks),
            next_iteration: 0,
            out: &mut *out,
            tracer: &mut *tracer,
        };
        for name in w.blocks() {
            h.block(name, u64::MAX)?;
        }
        h.barrier(u64::MAX)?;
        h.out.setup_s.push(started.elapsed().as_secs_f64());
        body(&mut h)?;
        h.check_final_values()
    })?;
    out.absorb(&report);
    Ok(())
}

/// One window of a flood: returns its wall time and the barrier's share.
fn flood_window(h: &mut Harness<'_>, window: u64, sample: u64) -> DriverResult<(Duration, f64)> {
    let open = h.tracer.open("window", sample);
    let start = Instant::now();
    for _ in 0..window {
        h.block("block", sample)?;
    }
    let sent = start.elapsed();
    h.barrier(sample)?;
    let total = start.elapsed();
    h.tracer.close(open);
    h.out.instantiations += window;
    let waiting = (total - sent).as_secs_f64() / total.as_secs_f64();
    Ok((total, waiting))
}

fn flood(h: &mut Harness<'_>, w: &Workload, window: u64, seconds: f64) -> DriverResult<()> {
    // Warm-up: queues, buffers and the allocator reach their working size.
    flood_window(h, window, u64::MAX)?;
    let begin = Instant::now();
    let mut sample = 0;
    loop {
        let (took, waiting) = flood_window(h, window, sample)?;
        let secs = took.as_secs_f64();
        h.out.timed(window * u64::from(w.tasks), secs);
        h.out.iter_us.push(secs * 1e6 / window as f64);
        h.out.send_ahead_share.push(waiting);
        sample += 1;
        if begin.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

fn closed_loop(h: &mut Harness<'_>, w: &Workload, window: u64, seconds: f64) -> DriverResult<()> {
    let begin = Instant::now();
    let mut iteration = 0u64;
    let mut timed = false;
    loop {
        let window_start = Instant::now();
        for _ in 0..window {
            let open = h.tracer.open("iteration", iteration);
            let start = Instant::now();
            let value = h.fetch(0, iteration)?;
            let want = h.expected.partition(0);
            if value != want {
                h.out.problem(format!(
                    "iteration {iteration} fetched {value}, closed form says {want}"
                ));
            }
            let name = if app::takes_branch_b(h.expected.seed, value) {
                "b"
            } else {
                "a"
            };
            h.block(name, iteration)?;
            let took = start.elapsed();
            h.tracer.close(open);
            if timed {
                h.out.iter_us.push(took.as_secs_f64() * 1e6);
            }
            iteration += 1;
        }
        h.out.instantiations += window;
        // The first window is the warm-up.
        if timed {
            let secs = window_start.elapsed().as_secs_f64();
            h.out.timed(window * u64::from(w.tasks), secs);
            if begin.elapsed().as_secs_f64() >= seconds {
                return Ok(());
            }
        }
        timed = true;
    }
}

/// The whole migration schedule on the harness's fresh cluster.
fn edit_schedule(
    h: &mut Harness<'_>,
    w: &Workload,
    (schedule, segment, moved): (u64, u64, usize),
    repetition: u64,
    timed: bool,
) -> DriverResult<()> {
    let start = Instant::now();
    for first in (0..schedule).step_by(segment as usize) {
        let open = h.tracer.open("segment", repetition);
        let segment_start = Instant::now();
        h.migrate("block", moved, repetition)?;
        let count = segment.min(schedule - first);
        for _ in 0..count {
            h.block("block", repetition)?;
        }
        h.barrier(repetition)?;
        h.tracer.close(open);
        if timed {
            h.out
                .iter_us
                .push(segment_start.elapsed().as_secs_f64() * 1e6 / count as f64);
        }
    }
    h.out.instantiations += schedule;
    if timed {
        h.out
            .timed(schedule * u64::from(w.tasks), start.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Runs `w` end to end for about `seconds` of timed work after `setups`
/// fresh cluster starts. A `DriverError` ends the run; it is already counted
/// as a failed operation.
pub fn run(w: &Workload, seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> E2e {
    let mut out = E2e::default();
    let result = (|| -> Result<(), DriverError> {
        // Extra starts exist only for `setup_s`: torn down after the barrier.
        for _ in 1..setups {
            with_cluster(w, seed, &mut out, tracer, |_| Ok(()))?;
        }
        match w.kind {
            Kind::Flood { window } => {
                with_cluster(w, seed, &mut out, tracer, |h| flood(h, w, window, seconds))
            }
            Kind::Loop { window } => with_cluster(w, seed, &mut out, tracer, |h| {
                closed_loop(h, w, window, seconds)
            }),
            Kind::Edits {
                schedule,
                segment,
                moved,
            } => {
                let warm_up = (schedule / 8).max(segment);
                with_cluster(w, seed, &mut out, tracer, |h| {
                    edit_schedule(h, w, (warm_up, segment, moved), u64::MAX, false)
                })?;
                let begin = Instant::now();
                let mut repetition = 0;
                loop {
                    let before = begin.elapsed().as_secs_f64();
                    with_cluster(w, seed, &mut out, tracer, |h| {
                        edit_schedule(h, w, (schedule, segment, moved), repetition, true)
                    })?;
                    repetition += 1;
                    // A repetition takes seconds: stop where one more would
                    // overshoot `seconds` by more than stopping undershoots.
                    let now = begin.elapsed().as_secs_f64();
                    if now + (now - before) / 2.0 >= seconds {
                        return Ok(());
                    }
                }
            }
        }
    })();
    out.check_counters(w);
    if let Err(error) = result {
        if out.problems.len() < 20 {
            out.problems.push(format!("driver error: {error}"));
        }
        // An error before the first counted operation must still fail the run.
        if out.failed == 0 {
            out.attempted += 1;
            out.failed += 1;
        }
    }
    out
}

/// Peak resident set of this process in MiB (0 where /proc is missing).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
