//! The simulated cluster: real controller / worker / driver threads on the
//! in-process fabric, with every delivery, timeout, and fault driven from a
//! [`SchedulePlan`] by the harness thread.
//!
//! The harness acts only at **quiescence** — when every live node thread is
//! parked inside the scheduler's delivery hook — so each step wakes exactly
//! one node, which runs until it parks again. That makes the whole execution
//! a deterministic function of the plan: the event trace, the job outputs,
//! and the controller's statistics all replay bit-for-bit.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nimbus_controller::{Controller, ControllerConfig};
use nimbus_core::clock::Clock;
use nimbus_core::ids::WorkerId;
use nimbus_core::ControlPlaneStats;
use nimbus_driver::Session;
use nimbus_net::{DeliveryHook, HookWake, LatencyModel, Network, NodeId};
use nimbus_runtime::quickstart::quickstart_setup;
use nimbus_worker::{
    DataFactoryRegistry, FunctionRegistry, ObjectVault, Worker, WorkerConfig, WorkerStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{FaultEvent, FaultKind, SchedulePlan};
use crate::scenario::Scenario;
use crate::scheduler::{NodeState, SimScheduler};
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

/// One job's fetched totals, or the driver error string that ended it (a
/// dropped job, or a job the controller failed over a worker death without
/// a usable checkpoint).
pub type DriverOutput = Result<Vec<f64>, String>;

/// Everything a simulated run reports.
pub struct SimReport {
    /// Per-job driver outputs, indexed by client id - 1.
    pub outputs: Vec<DriverOutput>,
    /// Controller statistics (`None` if the controller thread panicked).
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

struct SimWorkerSlot {
    id: WorkerId,
    kill: Arc<AtomicBool>,
    handle: Option<JoinHandle<WorkerStats>>,
}

/// A running simulated cluster (see the module docs).
pub struct SimCluster {
    scenario: Scenario,
    plan: SchedulePlan,
    scheduler: Arc<SimScheduler>,
    /// The shared virtual clock, handed to every node (controller, workers,
    /// drivers) so no simulated component ever reads wall time.
    clock: Clock,
    network: Network,
    controller: Option<JoinHandle<ControlPlaneStats>>,
    workers: Vec<SimWorkerSlot>,
    reaped: Vec<WorkerStats>,
    drivers: Vec<Option<JoinHandle<DriverOutput>>>,
    outputs: Vec<Option<DriverOutput>>,
    terminator: Option<JoinHandle<()>>,
    functions: Arc<FunctionRegistry>,
    factories: Arc<DataFactoryRegistry>,
    vault: Arc<ObjectVault>,
    rng: StdRng,
    fault_cursor: usize,
    chaotic_effective: BTreeSet<u64>,
}

impl SimCluster {
    /// Builds the cluster and spawns every node thread. Nodes immediately
    /// run until they park in the scheduler; no decision is taken yet.
    pub fn launch(scenario: &Scenario, plan: &SchedulePlan) -> Self {
        let (clock, vclock) = Clock::virtual_clock();
        let scheduler = Arc::new(SimScheduler::new(vclock));
        let network = Network::new(LatencyModel::None);
        network.install_delivery_hook(Arc::clone(&scheduler) as Arc<dyn DeliveryHook>);

        let (functions, factories) = quickstart_setup().into_shared();
        let vault = Arc::new(ObjectVault::new());

        let mut cluster = Self {
            scenario: scenario.clone(),
            plan: plan.clone(),
            scheduler,
            clock: clock.clone(),
            network,
            controller: None,
            workers: Vec::new(),
            reaped: Vec::new(),
            drivers: Vec::new(),
            outputs: (0..scenario.jobs).map(|_| None).collect(),
            terminator: None,
            functions,
            factories,
            vault,
            rng: StdRng::seed_from_u64(plan.seed),
            fault_cursor: 0,
            chaotic_effective: BTreeSet::new(),
        };

        // Register EVERY endpoint before spawning ANY thread. On the real
        // in-process fabric a worker's hello may race the controller's
        // registration and get dropped as `UnknownNode` — a benign race in
        // production, but a nondeterministic one. With all destinations
        // registered up front, every startup send lands in the scheduler's
        // link queues and the whole startup is replayable.
        let worker_ids: Vec<WorkerId> = (0..scenario.workers).map(WorkerId).collect();
        let worker_endpoints: Vec<_> = worker_ids
            .iter()
            .map(|id| {
                cluster.scheduler.add_node(NodeId::Worker(*id));
                cluster.network.register(NodeId::Worker(*id))
            })
            .collect();
        cluster.scheduler.add_node(NodeId::Controller);
        let controller_endpoint = cluster.network.register(NodeId::Controller);
        let client_endpoints: Vec<_> = (1..=scenario.jobs)
            .map(|client| {
                cluster.scheduler.add_node(NodeId::Client(client));
                cluster.network.register(NodeId::Client(client))
            })
            .collect();

        for (id, endpoint) in worker_ids.iter().zip(worker_endpoints) {
            let slot = cluster.spawn_worker(*id, endpoint);
            cluster.workers.push(slot);
        }

        let mut config = ControllerConfig::new(worker_ids);
        config.checkpoint_every = scenario.checkpoint_every;
        config.rejoin_grace = scenario.rejoin_grace;
        config.clock = clock;
        let controller = Controller::new(config, controller_endpoint);
        cluster.controller = Some(
            std::thread::Builder::new()
                .name("sim-controller".into())
                .spawn(move || controller.run())
                .expect("spawn controller"),
        );

        for (client, endpoint) in (1..=scenario.jobs).zip(client_endpoints) {
            let scenario = scenario.clone();
            let clock = cluster.clock.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sim-driver-{client}"))
                .spawn(move || -> Result<Vec<f64>, String> {
                    let mut session =
                        Session::connect_with_clock(endpoint, clock).map_err(|e| e.to_string())?;
                    let totals = scenario.drive(&mut session).map_err(|e| e.to_string())?;
                    session.close().map_err(|e| e.to_string())?;
                    Ok(totals)
                })
                .expect("spawn driver");
            cluster.drivers.push(Some(handle));
        }
        cluster
    }

    fn spawn_worker(&self, id: WorkerId, endpoint: nimbus_net::Endpoint) -> SimWorkerSlot {
        let kill = Arc::new(AtomicBool::new(false));
        let mut config = WorkerConfig::new(
            id,
            Arc::clone(&self.functions),
            Arc::clone(&self.factories),
            Arc::clone(&self.vault),
        );
        config.kill_switch = Some(Arc::clone(&kill));
        config.clock = self.clock.clone();
        let worker = Worker::new(config, endpoint);
        let handle = std::thread::Builder::new()
            .name(format!("sim-worker-{id}"))
            .spawn(move || worker.run())
            .expect("spawn worker");
        SimWorkerSlot {
            id,
            kill,
            handle: Some(handle),
        }
    }

    /// Steps the simulation to its end and assembles the report.
    pub fn run(mut self) -> SimReport {
        let outcome = self.step_to_completion();
        if outcome != SimOutcome::Completed {
            self.force_teardown();
        }
        self.harvest_drivers();
        let (events, decisions) = self
            .scheduler
            .with_state(|st| (st.take_events(), st.decisions()));
        let trace = SimTrace {
            scenario: self.scenario.name.to_string(),
            plan_description: self.plan.describe(),
            outcome,
            events,
            decisions,
            virtual_nanos: self.scheduler.clock.elapsed_nanos(),
        };
        let controller = self.controller.take().and_then(|h| h.join().ok());
        let mut workers = std::mem::take(&mut self.reaped);
        for slot in &mut self.workers {
            if let Some(handle) = slot.handle.take() {
                if let Ok(stats) = handle.join() {
                    workers.push(stats);
                }
            }
        }
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
            controller,
            workers,
            trace,
            chaotic_effective: std::mem::take(&mut self.chaotic_effective),
        }
    }

    fn step_to_completion(&mut self) -> SimOutcome {
        loop {
            self.scheduler.wait_quiescence();

            if self.scheduler.with_state(|st| st.all_exited()) {
                return SimOutcome::Completed;
            }

            // Drop undeliverable traffic and unstick severed sleepers; both
            // are bookkeeping, not decisions.
            let scheduler = Arc::clone(&self.scheduler);
            let resumed = self.scheduler.with_state(|st| {
                st.purge_dead_destinations();
                let stuck = st.severed_blocked();
                for node in &stuck {
                    scheduler.grant_locked(st, *node, HookWake::Disconnected);
                }
                !stuck.is_empty()
            });
            if resumed {
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

            let view = self.scheduler.with_state(|st| st.quiescent_view());

            // A worker still alive after the controller exited can never
            // hear another message once nothing is in flight (its register
            // and every reply path need a controller). Without this, its
            // idle step timer grinds virtual time all the way to the cap.
            // Masked links may still hold deliverable traffic whose mask
            // expires as timer decisions pass, so those runs keep stepping.
            if view.eligible.is_empty()
                && self.scheduler.node_state(NodeId::Controller) == Some(NodeState::Exited)
                && !self.scheduler.with_state(|st| st.masked_traffic_pending())
            {
                let mut drained = false;
                for slot in &self.workers {
                    let node = NodeId::Worker(slot.id);
                    if slot.handle.is_some()
                        && self.scheduler.node_state(node) != Some(NodeState::Exited)
                    {
                        slot.kill.store(true, Ordering::Relaxed);
                        self.scheduler.with_state(|st| {
                            st.push_event(TraceEvent::Unstick { node });
                            if st.is_blocked(node) {
                                scheduler.grant_locked(st, node, HookWake::TimedOut);
                            }
                        });
                        drained = true;
                    }
                }
                if drained {
                    continue;
                }
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
            if decisions >= MAX_DECISIONS
                || self.scheduler.clock.elapsed_nanos() >= MAX_VIRTUAL_NANOS
            {
                return SimOutcome::Stalled;
            }
        }
    }

    /// Takes one scheduler decision (the only place virtual time advances
    /// and messages get delivered). Returns the new decision count.
    fn decide(&mut self, view: &crate::scheduler::Quiescent) -> u64 {
        let decision = self.scheduler.with_state(|st| st.decisions());
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

        let scheduler = Arc::clone(&self.scheduler);
        if pick_timer {
            let (deadline, node) = view.earliest_timer.expect("checked above");
            self.scheduler.clock.advance_to(deadline);
            let virtual_nanos = self.scheduler.clock.elapsed_nanos();
            self.scheduler.with_state(|st| {
                st.push_event(TraceEvent::TimerFired {
                    node,
                    virtual_nanos,
                });
                scheduler.grant_locked(st, node, HookWake::TimedOut);
                st.bump_decisions();
                st.decisions()
            })
        } else {
            let link = view.eligible[if chaotic { index } else { 0 }];
            let envelope = self
                .scheduler
                .with_state(|st| st.pop_link(link))
                .expect("eligible link was empty");
            let (from, to) = (envelope.from, envelope.to);
            let tag = envelope.message.tag().as_str();
            let delivered = self.network.deliver_now(envelope);
            self.scheduler.with_state(|st| {
                if delivered {
                    st.push_event(TraceEvent::Deliver { from, to, tag });
                    scheduler.grant_locked(st, to, HookWake::Delivered);
                } else {
                    st.push_event(TraceEvent::DroppedDeadDestination { from, to, tag });
                }
                st.bump_decisions();
                st.decisions()
            })
        }
    }

    fn next_due_fault(&mut self) -> Option<FaultEvent> {
        let due = self
            .plan
            .faults
            .get(self.fault_cursor)
            .is_some_and(|f| f.at <= self.scheduler.with_state(|st| st.decisions()));
        if due {
            let fault = self.plan.faults[self.fault_cursor].clone();
            self.fault_cursor += 1;
            Some(fault)
        } else {
            None
        }
    }

    fn apply_fault(&mut self, fault: FaultEvent) {
        let scheduler = Arc::clone(&self.scheduler);
        match fault.kind {
            FaultKind::Kill(w) => {
                let node = NodeId::Worker(w);
                let Some(i) = self.workers.iter().position(|s| s.id == w) else {
                    self.skip_fault(fault);
                    return;
                };
                let alive = self.workers[i].handle.is_some()
                    && self.scheduler.node_state(node) != Some(NodeState::Exited);
                if !alive {
                    self.skip_fault(fault);
                    return;
                }
                // Switch first, then wake: the worker's next step observes
                // the flipped switch and dies without a goodbye. Severing
                // drops anything it manages to send in between, so the death
                // is externally instantaneous.
                self.workers[i].kill.store(true, Ordering::Relaxed);
                self.scheduler.with_state(|st| {
                    st.push_event(TraceEvent::Fault(fault.clone()));
                    scheduler.sever_locked(st, node);
                    if st.is_blocked(node) {
                        scheduler.grant_locked(st, node, HookWake::TimedOut);
                    }
                });
                self.scheduler.wait_exited(node);
                let handle = self.workers[i].handle.take().expect("checked alive");
                let stats = handle.join().expect("killed worker panicked");
                self.reaped.push(stats);
                // Outside the scheduler lock: disconnect synthesizes the
                // PeerDisconnected notices through the hook, which queues
                // them on the dead worker's links — after its in-flight
                // sends, exactly like a FIN behind buffered TCP data.
                self.network.disconnect(node);
            }
            FaultKind::Rejoin(w) => {
                let node = NodeId::Worker(w);
                let Some(i) = self.workers.iter().position(|s| s.id == w) else {
                    self.skip_fault(fault);
                    return;
                };
                // A rejoin into a cluster whose controller has already shut
                // down would orphan the new worker: nothing can ever message
                // it again, and its idle step timer would grind virtual time
                // to the cap. Treat it like any other impossible fault.
                let cluster_down =
                    self.scheduler.node_state(NodeId::Controller) == Some(NodeState::Exited);
                if self.workers[i].handle.is_some() || cluster_down {
                    self.skip_fault(fault);
                    return;
                }
                self.scheduler.with_state(|st| {
                    // Anything still queued for the dead incarnation belongs
                    // to a socket that no longer exists.
                    st.purge_links_to(node);
                    st.push_event(TraceEvent::Fault(fault.clone()));
                });
                self.scheduler.reset_node(node);
                let slot = self.spawn_worker_rejoin(w);
                self.workers[i] = slot;
            }
            FaultKind::DropJob(c) => {
                let node = NodeId::Client(c);
                let alive = matches!(
                    self.scheduler.node_state(node),
                    Some(NodeState::Running | NodeState::Blocked)
                );
                if !alive {
                    self.skip_fault(fault);
                    return;
                }
                self.scheduler.with_state(|st| {
                    st.push_event(TraceEvent::Fault(fault.clone()));
                    scheduler.sever_locked(st, node);
                    if st.is_blocked(node) {
                        scheduler.grant_locked(st, node, HookWake::Disconnected);
                    }
                });
                self.network.disconnect(node);
            }
            FaultKind::DelayLink {
                from,
                to,
                decisions,
            } => {
                self.scheduler.with_state(|st| {
                    st.push_event(TraceEvent::Fault(fault.clone()));
                    st.mask_link((from, to), u64::from(decisions));
                });
            }
        }
    }

    /// Respawns a previously killed worker under its old identity, like
    /// [`SimCluster::spawn_worker`] but without re-adding the scheduler slot
    /// (it was reset in place).
    fn spawn_worker_rejoin(&self, id: WorkerId) -> SimWorkerSlot {
        let kill = Arc::new(AtomicBool::new(false));
        let mut config = WorkerConfig::new(
            id,
            Arc::clone(&self.functions),
            Arc::clone(&self.factories),
            Arc::clone(&self.vault),
        );
        config.kill_switch = Some(Arc::clone(&kill));
        config.clock = self.clock.clone();
        let endpoint = self.network.register(NodeId::Worker(id));
        let worker = Worker::new(config, endpoint);
        let handle = std::thread::Builder::new()
            .name(format!("sim-worker-{id}-rejoin"))
            .spawn(move || worker.run())
            .expect("spawn rejoined worker");
        SimWorkerSlot {
            id,
            kill,
            handle: Some(handle),
        }
    }

    fn skip_fault(&self, fault: FaultEvent) {
        self.scheduler
            .with_state(|st| st.push_event(TraceEvent::FaultSkipped(fault)));
    }

    fn scenario_drivers_exited(&self) -> bool {
        (1..=self.scenario.jobs)
            .all(|c| self.scheduler.node_state(NodeId::Client(c)) == Some(NodeState::Exited))
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
        self.scheduler.add_node(node);
        let endpoint = self.network.register(node);
        let clock = self.clock.clone();
        self.terminator = Some(
            std::thread::Builder::new()
                .name("sim-terminator".into())
                .spawn(move || {
                    // Implicit session (no open_job handshake): one less
                    // reply to race against the reply timeout. Retry a few
                    // times — an adversarial schedule can fire the timeout
                    // before the controller's confirmation arrives, and a
                    // terminator that gives up strands the whole cluster.
                    let mut session = Session::new(endpoint);
                    session.set_clock(clock);
                    session.set_reply_timeout(Duration::from_secs(10));
                    for _ in 0..4 {
                        if session.shutdown().is_ok() {
                            break;
                        }
                    }
                })
                .expect("spawn terminator"),
        );
    }

    /// After a deadlock or stall verdict: force every surviving node out
    /// with disconnect grants so threads can be joined. The `Unstick` events
    /// mark the trace as abnormal.
    fn force_teardown(&mut self) {
        let scheduler = Arc::clone(&self.scheduler);
        for _ in 0..10_000 {
            self.scheduler.wait_quiescence();
            let done = self.scheduler.with_state(|st| {
                st.purge_dead_destinations();
                if st.all_exited() {
                    return true;
                }
                for node in st.blocked_nodes() {
                    st.push_event(TraceEvent::Unstick { node });
                    scheduler.grant_locked(st, node, HookWake::Disconnected);
                }
                false
            });
            if done {
                return;
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
