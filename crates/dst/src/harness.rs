//! The simulated cluster: the real controller and workers as step
//! functions turned on the harness thread, the real driver sessions on
//! threads of their own, and every delivery, timeout, and fault driven from
//! a [`SchedulePlan`].
//!
//! Between decisions every node is parked: the controller and each worker
//! returned a wait from its last turn, and each driver thread reported the
//! wait of its blocking receive and sleeps until woken. A decision wakes
//! exactly one node — the harness turns a controller or worker until it
//! names its next wait, or wakes a driver and waits for its next report —
//! so the whole execution is a deterministic function of the plan: the
//! event trace, the job outputs, and the controller's statistics all replay
//! bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use nimbus_controller::{Controller, ControllerConfig};
use nimbus_core::clock::{Clock, VirtualClock};
use nimbus_core::ids::WorkerId;
use nimbus_core::ControlPlaneStats;
use nimbus_driver::Session;
use nimbus_net::{Envelope, NetError, NetResult, Next, NodeId};
use nimbus_runtime::quickstart::quickstart_setup;
use nimbus_worker::{
    DataFactoryRegistry, FunctionRegistry, ObjectVault, Worker, WorkerConfig, WorkerStats,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{FaultEvent, FaultKind, SchedulePlan};
use crate::scenario::Scenario;
use crate::scheduler::{quantize_ms, DriverPark, Fabric, SimEndpoint, View};
use crate::trace::{SimOutcome, SimTrace, TraceEvent};

/// Decision budget: a livelock guard far above any legitimate run (the
/// largest scenario completes in a few thousand decisions).
const MAX_DECISIONS: u64 = 200_000;

/// Virtual-time budget. The longest legitimate waits are the driver's 60 s
/// reply timeouts; anything still alive at five virtual minutes is stuck.
const MAX_VIRTUAL_NANOS: u64 = 300 * 1_000_000_000;

/// Probability that a chaotic decision fires the earliest timer even though
/// messages are deliverable — the race between timeouts and traffic.
const TIMER_RACE_NUM: u64 = 1; // numerator of 1/10

/// How long a woken driver thread may run before its next report, after
/// which the harness declares the simulation wedged (wall-clock watchdog; a
/// correct driver blocks again quickly since task work is synthetic).
const WEDGE_TIMEOUT: Duration = Duration::from_secs(60);

/// One job's fetched totals, or the driver error string that ended it (a
/// dropped job, or a job the controller failed over a worker death without
/// a usable checkpoint).
pub type DriverOutput = Result<Vec<f64>, String>;

/// Everything a simulated run reports.
pub struct SimReport {
    /// Per-job driver outputs, indexed by client id - 1.
    pub outputs: Vec<DriverOutput>,
    /// Controller statistics (`None` only if the controller never stopped).
    pub controller: Option<ControlPlaneStats>,
    /// Per-worker statistics, killed workers included.
    pub workers: Vec<WorkerStats>,
    /// The replayable record of the execution.
    pub trace: SimTrace,
    /// Decisions where the plan's random draw actually changed the schedule
    /// (the shrinker minimizes over this set).
    pub chaotic_effective: BTreeSet<u64>,
}

/// Runs one plan against a scenario to completion and reports everything.
pub fn run_plan(scenario: &Scenario, plan: &SchedulePlan) -> SimReport {
    SimCluster::launch(scenario, plan).run()
}

/// A running simulated cluster (see the module docs).
pub struct SimCluster {
    scenario: Scenario,
    plan: SchedulePlan,
    fabric: Arc<Mutex<Fabric>>,
    /// The shared virtual clock, handed to every node (controller, workers,
    /// drivers) so no simulated component ever reads wall time.
    clock: Clock,
    vclock: Arc<VirtualClock>,
    controller: Option<Controller>,
    controller_stats: Option<ControlPlaneStats>,
    /// Live workers.
    workers: BTreeMap<WorkerId, Worker>,
    /// Final statistics of workers that stopped without being killed.
    finished: BTreeMap<WorkerId, WorkerStats>,
    /// Statistics of killed incarnations, in kill order.
    reaped: Vec<WorkerStats>,
    drivers: Vec<Option<JoinHandle<DriverOutput>>>,
    outputs: Vec<Option<DriverOutput>>,
    terminator: Option<JoinHandle<()>>,
    /// Each driver thread's wake channel.
    wakes: BTreeMap<NodeId, mpsc::Sender<NetResult<Envelope>>>,
    /// Where driver threads report a wait or their exit.
    reports: mpsc::Receiver<(NodeId, Next)>,
    report_to: mpsc::Sender<(NodeId, Next)>,
    functions: Arc<FunctionRegistry>,
    factories: Arc<DataFactoryRegistry>,
    vault: Arc<ObjectVault>,
    rng: StdRng,
    fault_cursor: usize,
    chaotic_effective: BTreeSet<u64>,
}

impl SimCluster {
    /// Builds the cluster and starts every node: each runs until it parks in
    /// its first wait; no decision is taken yet.
    pub fn launch(scenario: &Scenario, plan: &SchedulePlan) -> Self {
        let (clock, vclock) = Clock::virtual_clock();
        let (functions, factories) = quickstart_setup().into_shared();
        let (report_to, reports) = mpsc::channel();
        let mut cluster = Self {
            scenario: scenario.clone(),
            plan: plan.clone(),
            fabric: Arc::default(),
            clock: clock.clone(),
            vclock,
            controller: None,
            controller_stats: None,
            workers: BTreeMap::new(),
            finished: BTreeMap::new(),
            reaped: Vec::new(),
            drivers: Vec::new(),
            outputs: (0..scenario.jobs).map(|_| None).collect(),
            terminator: None,
            wakes: BTreeMap::new(),
            reports,
            report_to,
            functions,
            factories,
            vault: Arc::new(ObjectVault::new()),
            rng: StdRng::seed_from_u64(plan.seed),
            fault_cursor: 0,
            chaotic_effective: BTreeSet::new(),
        };

        // Register EVERY node before starting ANY: on the real in-process
        // fabric a worker's hello may race the controller's registration and
        // get dropped as `UnknownNode` — a benign race in production, but a
        // nondeterministic one. With all destinations registered up front,
        // every startup send lands in a link queue and the whole startup is
        // replayable.
        let worker_ids: Vec<WorkerId> = (0..scenario.workers).map(WorkerId).collect();
        {
            let mut fabric = cluster.fabric.lock();
            for id in &worker_ids {
                fabric.add_node(NodeId::Worker(*id));
            }
            fabric.add_node(NodeId::Controller);
            for client in 1..=scenario.jobs {
                fabric.add_node(NodeId::Client(client));
            }
        }

        for id in &worker_ids {
            cluster.start_worker(*id);
        }

        let mut config = ControllerConfig::new(worker_ids);
        config.checkpoint_every = scenario.checkpoint_every;
        config.rejoin_grace = scenario.rejoin_grace;
        config.clock = clock;
        let endpoint = cluster.endpoint(NodeId::Controller, None);
        cluster.controller = Some(Controller::new(config, endpoint));
        cluster.turn(NodeId::Controller, None);

        for client in 1..=scenario.jobs {
            let scenario = scenario.clone();
            let clock = cluster.clock.clone();
            let handle = cluster.spawn_driver(NodeId::Client(client), move |endpoint| {
                let mut session =
                    Session::connect_with_clock(endpoint, clock).map_err(|e| e.to_string())?;
                let totals = scenario.drive(&mut session).map_err(|e| e.to_string())?;
                session.close().map_err(|e| e.to_string())?;
                Ok(totals)
            });
            cluster.drivers.push(Some(handle));
        }
        cluster
    }

    fn endpoint(&self, node: NodeId, park: Option<DriverPark>) -> SimEndpoint {
        SimEndpoint::new(node, Arc::clone(&self.fabric), park)
    }

    /// Starts a worker (fresh, or a rejoining incarnation of a killed one):
    /// its hello, then the turn that names its first wait.
    fn start_worker(&mut self, id: WorkerId) {
        let mut config = WorkerConfig::new(
            id,
            Arc::clone(&self.functions),
            Arc::clone(&self.factories),
            Arc::clone(&self.vault),
        );
        config.clock = self.clock.clone();
        let worker = Worker::new(config, self.endpoint(NodeId::Worker(id), None));
        worker.register();
        self.workers.insert(id, worker);
        self.turn(NodeId::Worker(id), None);
    }

    /// Spawns a driver session's thread and waits for it to park.
    fn spawn_driver<R: Send + 'static>(
        &mut self,
        node: NodeId,
        body: impl FnOnce(SimEndpoint) -> R + Send + 'static,
    ) -> JoinHandle<R> {
        let (wake_to, wake) = mpsc::channel();
        self.wakes.insert(node, wake_to);
        let park = DriverPark {
            report: self.report_to.clone(),
            wake,
        };
        let endpoint = self.endpoint(node, Some(park));
        let handle = std::thread::Builder::new()
            .name(format!("sim-{node}"))
            .spawn(move || body(endpoint))
            .expect("spawn driver");
        self.await_driver(node);
        handle
    }

    /// Wakes a parked node: a controller or worker is turned until it waits
    /// again, a driver thread is woken and awaited.
    fn wake(&mut self, node: NodeId, wake: NetResult<Envelope>) {
        match self.wakes.get(&node) {
            Some(wake_to) => {
                let _ = wake_to.send(wake);
                self.await_driver(node);
            }
            None => self.turn(node, Some(wake)),
        }
    }

    /// Turns the controller or a worker until it names a wait or stops.
    fn turn(&mut self, node: NodeId, mut wake: Option<NetResult<Envelope>>) {
        let next = loop {
            let next = match node {
                NodeId::Controller => self.controller.as_mut().map(|c| c.turn(wake.take())),
                NodeId::Worker(w) => self.workers.get_mut(&w).map(|w| w.turn(wake.take())),
                _ => None,
            };
            match next.expect("only a live controller or worker is turned") {
                Next::Run => continue,
                next => break next,
            }
        };
        if next == Next::Exit {
            match node {
                NodeId::Controller => {
                    self.controller_stats = self.controller.take().map(Controller::finish);
                }
                NodeId::Worker(w) => {
                    if let Some(worker) = self.workers.remove(&w) {
                        self.finished.insert(w, worker.finish());
                    }
                }
                _ => {}
            }
        }
        self.settle(node, next);
    }

    /// Waits for the one running driver thread to report a wait or its exit.
    fn await_driver(&mut self, node: NodeId) {
        let (from, next) = self
            .reports
            .recv_timeout(WEDGE_TIMEOUT)
            .unwrap_or_else(|_| {
                panic!("simulation wedged: {node} ran {WEDGE_TIMEOUT:?} without blocking")
            });
        debug_assert_eq!(from, node, "only the woken driver runs");
        self.settle(node, next);
    }

    /// Records where a node stopped running: parked (until a virtual
    /// deadline, if its wait named one) or exited.
    fn settle(&mut self, node: NodeId, next: Next) {
        match next {
            Next::Wait(timeout) => {
                let deadline = timeout.map(|t| self.vclock.now() + quantize_ms(t));
                self.fabric.lock().park(node, deadline);
            }
            Next::Exit | Next::Run => self.fabric.lock().exit(node),
        }
    }

    /// Abrupt death: the worker vanishes without a final report, like a
    /// killed process. Returns its statistics.
    fn kill(&mut self, w: WorkerId) -> Option<WorkerStats> {
        let stats = self.workers.remove(&w)?.stats().clone();
        self.fabric.lock().exit(NodeId::Worker(w));
        Some(stats)
    }

    /// Steps the simulation to its end and assembles the report.
    pub fn run(mut self) -> SimReport {
        let outcome = self.step_to_completion();
        if outcome != SimOutcome::Completed {
            self.force_teardown();
        }
        self.harvest_drivers();
        let (events, decisions) = {
            let mut fabric = self.fabric.lock();
            (fabric.take_events(), fabric.decisions())
        };
        let trace = SimTrace {
            scenario: self.scenario.name.to_string(),
            plan_description: self.plan.describe(),
            outcome,
            events,
            decisions,
            virtual_nanos: self.vclock.elapsed_nanos(),
        };
        let mut workers = std::mem::take(&mut self.reaped);
        workers.extend(std::mem::take(&mut self.finished).into_values());
        if let Some(t) = self.terminator.take() {
            let _ = t.join();
        }
        SimReport {
            outputs: self
                .outputs
                .iter_mut()
                .map(|o| {
                    o.take()
                        .unwrap_or_else(|| Err("driver never joined".into()))
                })
                .collect(),
            controller: self.controller_stats.take(),
            workers,
            trace,
            chaotic_effective: std::mem::take(&mut self.chaotic_effective),
        }
    }

    fn step_to_completion(&mut self) -> SimOutcome {
        loop {
            // Drop undeliverable traffic and end severed nodes' waits; both
            // are bookkeeping, not decisions.
            let stuck = {
                let mut fabric = self.fabric.lock();
                if fabric.all_exited() {
                    return SimOutcome::Completed;
                }
                fabric.purge_dead_destinations();
                fabric.parked(true)
            };
            if !stuck.is_empty() {
                for node in stuck {
                    self.wake(node, Err(NetError::Disconnected(node.to_string())));
                }
                continue;
            }

            // Once every scenario driver is done, harvest their outputs and
            // send the cluster-wide shutdown through one last session.
            if self.terminator.is_none() && self.scenario_drivers_exited() {
                self.harvest_drivers();
                self.spawn_terminator();
                continue;
            }

            // Faults scheduled at or before the current decision index.
            if let Some(fault) = self.next_due_fault() {
                self.apply_fault(fault);
                continue;
            }

            let view = self.fabric.lock().view();

            // A worker still alive after the controller exited can never
            // hear another message once nothing is in flight (its register
            // and every reply path need a controller). Without this, its
            // idle timer grinds virtual time all the way to the cap.
            // Masked links may still hold deliverable traffic whose mask
            // expires as timer decisions pass, so those runs keep stepping.
            if view.eligible.is_empty()
                && self.controller.is_none()
                && !self.workers.is_empty()
                && !self.fabric.lock().masked_traffic_pending()
            {
                let live: Vec<WorkerId> = self.workers.keys().copied().collect();
                {
                    let mut fabric = self.fabric.lock();
                    for w in &live {
                        fabric.push_event(TraceEvent::Unstick {
                            node: NodeId::Worker(*w),
                        });
                    }
                }
                for w in live {
                    if let Some(stats) = self.kill(w) {
                        self.finished.insert(w, stats);
                    }
                }
                continue;
            }

            if view.eligible.is_empty() && view.earliest_timer.is_none() {
                // Nothing can happen on its own. Pull the next fault forward
                // if one remains (its decision index was past the natural
                // end); otherwise the cluster is genuinely deadlocked.
                if self.fault_cursor < self.plan.faults.len() {
                    let fault = self.plan.faults[self.fault_cursor].clone();
                    self.fault_cursor += 1;
                    self.apply_fault(fault);
                    continue;
                }
                return if view.any_live {
                    SimOutcome::Deadlock
                } else {
                    SimOutcome::Completed
                };
            }

            let decisions = self.decide(&view);
            if decisions >= MAX_DECISIONS || self.vclock.elapsed_nanos() >= MAX_VIRTUAL_NANOS {
                return SimOutcome::Stalled;
            }
        }
    }

    /// Takes one scheduler decision (the only place virtual time advances
    /// and messages get delivered). Returns the new decision count.
    fn decide(&mut self, view: &View) -> u64 {
        let decision = self.fabric.lock().decisions();
        let chaotic = self.plan.is_chaotic(decision);
        // Two raw draws per decision, unconditionally, so the stream stays
        // aligned no matter which decisions the shrinker calms.
        let coin_draw = self.rng.next_u64();
        let index_draw = self.rng.next_u64();
        let n = view.eligible.len();
        let timer_coin = coin_draw % 10 < TIMER_RACE_NUM;
        let index = if n > 0 {
            (index_draw % n as u64) as usize
        } else {
            0
        };

        let pick_timer = match (view.earliest_timer, n) {
            (Some(_), 0) => true,
            (None, _) => false,
            (Some(_), _) => chaotic && timer_coin,
        };
        // Did the chaotic draw change anything vs. the calm default
        // (deliver from the first eligible link)?
        if chaotic && ((pick_timer && n > 0) || (!pick_timer && index != 0)) {
            self.chaotic_effective.insert(decision);
        }

        let (node, wake) = if pick_timer {
            let (deadline, node) = view.earliest_timer.expect("checked above");
            self.vclock.advance_to(deadline);
            let virtual_nanos = self.vclock.elapsed_nanos();
            let mut fabric = self.fabric.lock();
            fabric.push_event(TraceEvent::TimerFired {
                node,
                virtual_nanos,
            });
            fabric.bump_decisions();
            (node, Some(Err(NetError::Timeout)))
        } else {
            let link = view.eligible[if chaotic { index } else { 0 }];
            let mut fabric = self.fabric.lock();
            let envelope = fabric.pop_link(link).expect("eligible link was empty");
            let (from, to) = (envelope.from, envelope.to);
            let tag = envelope.message.tag().as_str();
            let delivered = fabric.is_registered(to);
            fabric.push_event(if delivered {
                TraceEvent::Deliver { from, to, tag }
            } else {
                TraceEvent::DroppedDeadDestination { from, to, tag }
            });
            fabric.bump_decisions();
            (to, delivered.then_some(Ok(envelope)))
        };
        if let Some(wake) = wake {
            self.wake(node, wake);
        }
        self.fabric.lock().decisions()
    }

    fn next_due_fault(&mut self) -> Option<FaultEvent> {
        let decisions = self.fabric.lock().decisions();
        let fault = self
            .plan
            .faults
            .get(self.fault_cursor)
            .filter(|f| f.at <= decisions)
            .cloned()?;
        self.fault_cursor += 1;
        Some(fault)
    }

    fn apply_fault(&mut self, fault: FaultEvent) {
        match fault.kind {
            FaultKind::Kill(w) => {
                let node = NodeId::Worker(w);
                if !self.workers.contains_key(&w) {
                    return self.skip_fault(fault);
                }
                // Severed first, so the death is externally instantaneous.
                {
                    let mut fabric = self.fabric.lock();
                    fabric.push_event(TraceEvent::Fault(fault.clone()));
                    fabric.sever(node);
                }
                if let Some(stats) = self.kill(w) {
                    self.reaped.push(stats);
                }
                // The peers' disconnect notices queue on the dead worker's
                // links — after its in-flight sends, exactly like a FIN
                // behind buffered TCP data.
                self.fabric.lock().disconnect(node);
            }
            FaultKind::Rejoin(w) => {
                let node = NodeId::Worker(w);
                // Only a killed worker rejoins. A rejoin into a cluster whose
                // controller has already shut down would orphan the new
                // worker: nothing can ever message it again, and its idle
                // timer would grind virtual time to the cap. Treat it like
                // any other impossible fault.
                let killed = w.raw() < self.scenario.workers
                    && !self.workers.contains_key(&w)
                    && !self.finished.contains_key(&w);
                if !killed || self.controller.is_none() {
                    return self.skip_fault(fault);
                }
                {
                    let mut fabric = self.fabric.lock();
                    // Anything still queued for the dead incarnation belongs
                    // to a socket that no longer exists.
                    fabric.purge_links_to(node);
                    fabric.push_event(TraceEvent::Fault(fault.clone()));
                    fabric.add_node(node);
                }
                self.start_worker(w);
            }
            FaultKind::DropJob(c) => {
                let node = NodeId::Client(c);
                if !self.fabric.lock().live(node) {
                    return self.skip_fault(fault);
                }
                {
                    let mut fabric = self.fabric.lock();
                    fabric.push_event(TraceEvent::Fault(fault.clone()));
                    fabric.sever(node);
                    fabric.disconnect(node);
                }
                self.wake(node, Err(NetError::Disconnected(node.to_string())));
            }
            FaultKind::DelayLink {
                from,
                to,
                decisions,
            } => {
                let mut fabric = self.fabric.lock();
                fabric.push_event(TraceEvent::Fault(fault.clone()));
                fabric.mask_link((from, to), u64::from(decisions));
            }
        }
    }

    fn skip_fault(&self, fault: FaultEvent) {
        self.fabric
            .lock()
            .push_event(TraceEvent::FaultSkipped(fault));
    }

    fn scenario_drivers_exited(&self) -> bool {
        let fabric = self.fabric.lock();
        (1..=self.scenario.jobs).all(|c| fabric.exited(NodeId::Client(c)))
    }

    fn harvest_drivers(&mut self) {
        for (i, slot) in self.drivers.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                let result = handle
                    .join()
                    .unwrap_or_else(|_| Err("driver thread panicked".into()));
                self.outputs[i] = Some(result);
            }
        }
    }

    /// Opens one last session whose only job is to broadcast the
    /// cluster-wide shutdown (the simulated counterpart of
    /// `Cluster::shutdown_and_join`).
    fn spawn_terminator(&mut self) {
        let node = NodeId::Client(self.scenario.jobs + 1);
        self.fabric.lock().add_node(node);
        let clock = self.clock.clone();
        let handle = self.spawn_driver(node, move |endpoint| {
            // Implicit session (no open_job handshake): one less reply to
            // race against the reply timeout. Retry a few times — an
            // adversarial schedule can fire the timeout before the
            // controller's confirmation arrives, and a terminator that gives
            // up strands the whole cluster.
            let mut session = Session::new(endpoint);
            session.set_clock(clock);
            session.set_reply_timeout(Duration::from_secs(10));
            for _ in 0..4 {
                if session.shutdown().is_ok() {
                    break;
                }
            }
        });
        self.terminator = Some(handle);
    }

    /// After a deadlock or stall verdict: end every surviving node's wait
    /// with a disconnect so everything stops and threads can be joined. The
    /// `Unstick` events mark the trace as abnormal.
    fn force_teardown(&mut self) {
        for _ in 0..10_000 {
            let parked = {
                let mut fabric = self.fabric.lock();
                fabric.purge_dead_destinations();
                if fabric.all_exited() {
                    return;
                }
                let parked = fabric.parked(false);
                for node in &parked {
                    fabric.push_event(TraceEvent::Unstick { node: *node });
                }
                parked
            };
            for node in parked {
                self.wake(node, Err(NetError::Disconnected(node.to_string())));
            }
        }
        panic!("simulation teardown failed to converge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_quickstart_completes_with_exact_totals() {
        let scenario = Scenario::quickstart();
        let plan = SchedulePlan::calm(0, Vec::new());
        let report = run_plan(&scenario, &plan);
        assert_eq!(
            report.trace.outcome,
            SimOutcome::Completed,
            "{}",
            report.trace.render()
        );
        scenario
            .validate(&plan, &report)
            .unwrap_or_else(|e| panic!("{e}\n{}", report.trace.render()));
        assert!(
            report.chaotic_effective.is_empty(),
            "calm run took chaotic choices"
        );
    }

    #[test]
    fn same_seed_replays_to_the_same_fingerprint() {
        let scenario = Scenario::quickstart();
        let plan = SchedulePlan::random(42);
        let a = run_plan(&scenario, &plan);
        let b = run_plan(&scenario, &plan);
        assert_eq!(
            a.trace.fingerprint(),
            b.trace.fingerprint(),
            "same plan must replay identically"
        );
        assert_eq!(a.outputs, b.outputs);
    }
}
