//! The single-process Nimbus cluster: controller and worker threads wired
//! over a selectable transport (in-process channels or loopback TCP), plus
//! synchronous driver handles.
//!
//! The cluster is **multi-tenant**: [`Cluster::connect_driver`] opens any
//! number of independent [`Session`]s against the one controller — each its
//! own job, isolated from the others — while [`Cluster::run_driver`] keeps
//! the classic single-driver shape.
//!
//! Worker membership is *elastic*: [`Cluster::add_worker`] grows a running
//! cluster, and [`Cluster::kill_worker`] / [`Cluster::rejoin_worker`]
//! emulate the death and restart of a worker process on **either**
//! transport — over TCP the dropped sockets carry the disconnect notice;
//! in-process the fabric injects the same notice through
//! [`Network::disconnect`] — the pair the membership-churn tests and the
//! fig9 rejoin bench are built on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nimbus_controller::{Controller, ControllerConfig};
use nimbus_core::ids::WorkerId;
use nimbus_core::ControlPlaneStats;
use nimbus_driver::{DriverError, DriverResult, Session};
use nimbus_net::{Network, NetworkStats, NodeId, TcpFabric};
use nimbus_worker::{
    DataFactoryRegistry, FunctionRegistry, ObjectVault, Worker, WorkerConfig, WorkerStats,
};

use crate::config::{AppSetup, ClusterConfig, TransportKind};

/// The message fabric a running cluster was started on.
enum Fabric {
    InProcess(Network),
    Tcp(TcpFabric),
}

impl Fabric {
    fn stats(&self) -> NetworkStats {
        match self {
            Fabric::InProcess(network) => network.stats(),
            Fabric::Tcp(fabric) => fabric.stats(),
        }
    }
}

/// Everything the cluster reports after a job finishes.
pub struct ClusterReport<T> {
    /// The value returned by the driver program.
    pub output: T,
    /// Control-plane statistics accumulated by the controller.
    pub controller: ControlPlaneStats,
    /// Per-worker execution statistics (including workers killed mid-job).
    pub workers: Vec<WorkerStats>,
    /// Transport traffic statistics.
    pub network: NetworkStats,
}

/// One worker thread of the cluster: its join handle (absent once killed or
/// joined) and the stop switch — flipped by fault injection for an abrupt
/// death, and by `join` for whoever still runs once the controller is gone.
struct WorkerSlot {
    id: WorkerId,
    handle: Option<JoinHandle<WorkerStats>>,
    kill: Arc<AtomicBool>,
}

/// A running single-process cluster (threads over either transport).
pub struct Cluster {
    fabric: Fabric,
    controller: Option<JoinHandle<ControlPlaneStats>>,
    workers: Vec<WorkerSlot>,
    /// Stats of workers killed (and joined) before the job ended.
    reaped: Vec<WorkerStats>,
    vault: Arc<ObjectVault>,
    functions: Arc<FunctionRegistry>,
    factories: Arc<DataFactoryRegistry>,
    spin_wait: Option<Duration>,
    worker_ids: Vec<WorkerId>,
    /// Number of additional driver clients handed out by
    /// [`Cluster::connect_driver`] (each gets its own `NodeId::Client`).
    clients: u32,
}

impl Cluster {
    /// Starts a cluster: spawns the controller and `config.workers` worker
    /// threads, all connected over the configured transport (fresh
    /// in-process network, or one loopback TCP socket per node).
    pub fn start(config: ClusterConfig, setup: AppSetup) -> Self {
        assert!(config.workers > 0, "a cluster needs at least one worker");
        let vault = Arc::new(ObjectVault::new());
        let (functions, factories) = setup.into_shared();

        let worker_ids: Vec<WorkerId> = (0..config.workers as u32).map(WorkerId).collect();

        let fabric = match config.transport {
            TransportKind::InProcess => Fabric::InProcess(Network::new(config.latency)),
            TransportKind::TcpLoopback => {
                let mut nodes = vec![NodeId::Controller, NodeId::Driver];
                nodes.extend(worker_ids.iter().map(|id| NodeId::Worker(*id)));
                Fabric::Tcp(TcpFabric::bind_loopback(&nodes).expect("bind loopback fabric"))
            }
        };

        let mut cluster = Self {
            fabric,
            controller: None,
            workers: Vec::with_capacity(config.workers),
            reaped: Vec::new(),
            vault,
            functions,
            factories,
            spin_wait: config.spin_wait,
            worker_ids: worker_ids.clone(),
            clients: 0,
        };

        // Workers first so the controller can address them immediately.
        for id in &worker_ids {
            let slot = cluster.spawn_worker_slot(*id);
            cluster.workers.push(slot);
        }

        let mut controller_config = ControllerConfig::new(worker_ids);
        controller_config.enable_templates = config.enable_templates;
        controller_config.checkpoint_every = config.checkpoint_every;
        controller_config.rejoin_grace = config.rejoin_grace;
        let controller_handle = match &cluster.fabric {
            Fabric::InProcess(network) => spawn_controller(Controller::new(
                controller_config,
                network.register(NodeId::Controller),
            )),
            Fabric::Tcp(tcp) => {
                let endpoint = tcp
                    .endpoint(NodeId::Controller)
                    .expect("bind controller endpoint");
                spawn_controller(Controller::new(controller_config, endpoint))
            }
        };
        cluster.controller = Some(controller_handle);
        cluster
    }

    fn spawn_worker_slot(&self, id: WorkerId) -> WorkerSlot {
        let kill = Arc::new(AtomicBool::new(false));
        let mut worker_config = WorkerConfig::new(
            id,
            Arc::clone(&self.functions),
            Arc::clone(&self.factories),
            Arc::clone(&self.vault),
        );
        worker_config.spin_wait = self.spin_wait;
        worker_config.kill_switch = Some(Arc::clone(&kill));
        let handle = match &self.fabric {
            Fabric::InProcess(network) => {
                let worker = Worker::new(worker_config, network.register(NodeId::Worker(id)));
                spawn_worker(id, worker)
            }
            Fabric::Tcp(tcp) => {
                let endpoint = tcp
                    .endpoint(NodeId::Worker(id))
                    .expect("bind worker endpoint");
                spawn_worker(id, Worker::new(worker_config, endpoint))
            }
        };
        WorkerSlot {
            id,
            handle: Some(handle),
            kill,
        }
    }

    /// Adds a brand-new worker to the running cluster. The worker registers
    /// with the controller on startup and is admitted elastically: templates
    /// grow a member for it through edits, and its share of partitions
    /// migrates over through the patch copy path. Returns the new worker's
    /// id.
    pub fn add_worker(&mut self) -> WorkerId {
        let id = WorkerId(
            self.worker_ids
                .iter()
                .map(|w| w.raw() + 1)
                .max()
                .unwrap_or(0),
        );
        if let Fabric::Tcp(tcp) = &self.fabric {
            tcp.add_loopback_node(NodeId::Worker(id))
                .expect("bind listener for added worker");
        }
        let slot = self.spawn_worker_slot(id);
        self.workers.push(slot);
        self.worker_ids.push(id);
        id
    }

    /// Kills a worker abruptly: the worker thread stops without any
    /// goodbye, its endpoint drops, and the controller observes the death
    /// exactly as it would a killed OS process — over TCP through the
    /// transport's own disconnect notice; in-process through the fabric's
    /// injectable [`Network::disconnect`] failure, which unregisters the
    /// node and delivers the same `PeerDisconnected` notice to every peer.
    ///
    /// # Panics
    ///
    /// Panics if the worker is unknown or already dead.
    pub fn kill_worker(&mut self, id: WorkerId) {
        let slot = self
            .workers
            .iter_mut()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("unknown worker {id}"));
        let handle = slot.handle.take().expect("worker already dead");
        slot.kill.store(true, Ordering::Relaxed);
        let stats = handle.join().expect("killed worker thread panicked");
        self.reaped.push(stats);
        if let Fabric::InProcess(network) = &self.fabric {
            // The in-process fabric has no sockets to sever; inject the
            // failure so the controller observes the death the same way.
            network.disconnect(NodeId::Worker(id));
        }
    }

    /// Restarts a previously killed worker under the same identity: a fresh
    /// worker thread re-binds the worker's fabric address (like a restarted
    /// process would) and registers with the controller, driving the rejoin
    /// handshake — reinstalled templates, reloaded partitions, zero
    /// re-recordings.
    ///
    /// # Panics
    ///
    /// Panics if the worker is unknown or still alive.
    pub fn rejoin_worker(&mut self, id: WorkerId) {
        let slot_exists = self
            .workers
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("unknown worker {id}"));
        assert!(
            slot_exists.handle.is_none(),
            "worker {id} is still alive; kill it first"
        );
        let fresh = self.spawn_worker_slot(id);
        let slot = self
            .workers
            .iter_mut()
            .find(|s| s.id == id)
            .expect("checked above");
        *slot = fresh;
    }

    /// The identifiers of the cluster's workers (killed ones included).
    pub fn worker_ids(&self) -> &[WorkerId] {
        &self.worker_ids
    }

    /// The shared durable-storage vault (useful for inspecting checkpoints).
    pub fn vault(&self) -> Arc<ObjectVault> {
        Arc::clone(&self.vault)
    }

    /// Snapshot of the transport traffic counters.
    pub fn network_stats(&self) -> NetworkStats {
        self.fabric.stats()
    }

    /// Creates the classic (implicit-session) driver context connected to
    /// this cluster, addressed as the primary `NodeId::Driver`.
    ///
    /// On the in-process transport this can be called repeatedly (each call
    /// re-registers the driver node). On a TCP cluster the driver's listener
    /// exists once, so a second call while the first context is alive
    /// panics with an address-in-use error. For concurrent drivers use
    /// [`Cluster::connect_driver`], which hands out independent sessions.
    pub fn driver(&self) -> Session {
        match &self.fabric {
            Fabric::InProcess(network) => Session::new(network.register(NodeId::Driver)),
            Fabric::Tcp(tcp) => {
                Session::new(tcp.endpoint(NodeId::Driver).expect(
                    "bind driver endpoint (only one TCP driver context can exist at a time)",
                ))
            }
        }
    }

    /// Opens an independent driver [`Session`] against the running
    /// controller: each call gets its own client address and its own
    /// controller-assigned job, fully isolated from every other session.
    /// Sessions are `Send`, so drivers can run concurrently from separate
    /// threads. End a session with [`Session::close`]; once every session
    /// is done, stop the cluster with [`Cluster::shutdown_and_join`] (or a
    /// final session's [`Session::shutdown`]).
    pub fn connect_driver(&mut self) -> DriverResult<Session> {
        self.clients += 1;
        let node = NodeId::Client(self.clients);
        match &self.fabric {
            Fabric::InProcess(network) => Session::connect(network.register(node)),
            Fabric::Tcp(tcp) => {
                tcp.add_loopback_node(node)
                    .map_err(|e| DriverError::Net(e.to_string()))?;
                let endpoint = tcp
                    .endpoint(node)
                    .map_err(|e| DriverError::Net(e.to_string()))?;
                Session::connect(endpoint)
            }
        }
    }

    /// Shuts the whole cluster down (a multi-driver run's counterpart to the
    /// shutdown `run_driver` performs): opens one last control session,
    /// broadcasts the cluster-wide shutdown through it, and joins every
    /// thread. Returns the statistics blocks.
    pub fn shutdown_and_join(mut self) -> DriverResult<ClusterReport<()>> {
        let mut control = self.connect_driver()?;
        control.shutdown()?;
        self.join(())
    }

    /// Runs a driver program to completion, shuts the cluster down, and
    /// returns the driver's output together with every statistics block.
    /// The body also receives `&mut Cluster` so it can churn membership
    /// (kill, rejoin, add workers) mid-job.
    pub fn run_driver_with_cluster<T>(
        mut self,
        body: impl FnOnce(&mut Session, &mut Cluster) -> DriverResult<T>,
    ) -> DriverResult<ClusterReport<T>> {
        let mut driver = self.driver();
        let result = body(&mut driver, &mut self);
        // Always attempt an orderly shutdown so threads exit even on error.
        let shutdown = driver.shutdown();
        let output = result?;
        shutdown?;
        self.join(output)
    }

    /// Runs a driver program to completion, shuts the cluster down, and
    /// returns the driver's output together with every statistics block.
    pub fn run_driver<T>(
        self,
        body: impl FnOnce(&mut Session) -> DriverResult<T>,
    ) -> DriverResult<ClusterReport<T>> {
        self.run_driver_with_cluster(|ctx, _cluster| body(ctx))
    }

    /// Joins all threads after the driver has shut the job down.
    fn join<T>(mut self, output: T) -> DriverResult<ClusterReport<T>> {
        let controller = self
            .controller
            .take()
            .expect("controller handle present")
            .join()
            .map_err(|_| DriverError::Net("controller thread panicked".to_string()))?;
        let mut workers = std::mem::take(&mut self.reaped);
        for slot in self.workers.drain(..) {
            if let Some(handle) = slot.handle {
                // The controller is gone, so a worker still running has
                // nobody left to report to — and one the controller never
                // met (its hello lost the race with the end of the job) was
                // never sent `Shutdown` and would wait for it forever.
                slot.kill.store(true, Ordering::Relaxed);
                workers.push(
                    handle
                        .join()
                        .map_err(|_| DriverError::Net("worker thread panicked".to_string()))?,
                );
            }
        }
        Ok(ClusterReport {
            output,
            controller,
            workers,
            network: self.fabric.stats(),
        })
    }
}

fn spawn_worker(id: WorkerId, worker: Worker) -> JoinHandle<WorkerStats> {
    std::thread::Builder::new()
        .name(format!("nimbus-worker-{id}"))
        .spawn(move || worker.run())
        .expect("spawn worker thread")
}

fn spawn_controller(controller: Controller) -> JoinHandle<ControlPlaneStats> {
    std::thread::Builder::new()
        .name("nimbus-controller".to_string())
        .spawn(move || controller.run())
        .expect("spawn controller thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::appdata::{Scalar, VecF64};
    use nimbus_core::ids::FunctionId;
    use nimbus_core::TaskParams;
    use nimbus_driver::{Dataset, StageSpec};

    const ADD: FunctionId = FunctionId(1);
    const SUM_INTO: FunctionId = FunctionId(2);

    fn setup() -> AppSetup {
        AppSetup::new()
            .function(ADD, "add", |ctx| {
                let delta = ctx.params().as_scalar().map_err(|e| e.to_string())?;
                let v = ctx.write::<VecF64>(0)?;
                for x in v.values.iter_mut() {
                    *x += delta;
                }
                Ok(())
            })
            .function(SUM_INTO, "sum_into", |ctx| {
                let mut total = 0.0;
                for i in 0..ctx.read_count() {
                    total += ctx.read::<VecF64>(i)?.values.iter().sum::<f64>();
                }
                ctx.write::<Scalar>(0)?.value = total;
                Ok(())
            })
    }

    fn register_factories(setup: AppSetup, data_id: u64, scalar_id: u64, len: usize) -> AppSetup {
        setup
            .object(nimbus_core::LogicalObjectId(data_id), move |_| {
                VecF64::zeros(len)
            })
            .object(nimbus_core::LogicalObjectId(scalar_id), |_| {
                Scalar::new(0.0)
            })
    }

    #[test]
    fn end_to_end_iterative_job_with_templates() {
        let setup = register_factories(setup(), 1, 2, 4);
        let cluster = Cluster::start(ClusterConfig::new(2), setup);
        let report = cluster
            .run_driver(|ctx| {
                let data: Dataset<VecF64> = ctx.define_dataset("data", 4)?;
                let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
                for i in 0..5u64 {
                    ctx.block("inner", |ctx| {
                        ctx.submit_stage(
                            StageSpec::new("add", ADD)
                                .write(&data)
                                .params(TaskParams::from_scalar(1.0)),
                        )?;
                        ctx.submit_stage(
                            StageSpec::new("sum", SUM_INTO)
                                .read_partition(&data, 0)
                                .read_partition(&data, 1)
                                .read_partition(&data, 2)
                                .read_partition(&data, 3)
                                .write_partition(&total, 0)
                                .partitions(1),
                        )?;
                        Ok(())
                    })?;
                    let value = ctx.fetch(&total, 0)?;
                    // After iteration i every element is i+1; 4 partitions x 4 elements.
                    assert_eq!(value, ((i + 1) * 16) as f64, "iteration {i}");
                }
                Ok(ctx.instantiations_sent)
            })
            .unwrap();
        // 5 iterations: the first records, the remaining 4 instantiate.
        assert_eq!(report.output, 4);
        assert_eq!(report.controller.controller_templates_installed, 1);
        assert_eq!(report.controller.controller_template_instantiations, 4);
        assert!(report.controller.tasks_from_templates >= 4 * 5);
        assert!(report.controller.auto_validations >= 3);
        let total_tasks: u64 = report.workers.iter().map(|w| w.tasks_executed).sum();
        assert_eq!(total_tasks, 5 * 5);
    }

    #[test]
    fn same_results_with_templates_disabled() {
        let setup = register_factories(setup(), 1, 2, 4);
        let cluster = Cluster::start(ClusterConfig::new(2).without_templates(), setup);
        let report = cluster
            .run_driver(|ctx| {
                ctx.enable_templates(false)?;
                let data: Dataset<VecF64> = ctx.define_dataset("data", 4)?;
                let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
                for _ in 0..3 {
                    ctx.block("inner", |ctx| {
                        ctx.submit_stage(
                            StageSpec::new("add", ADD)
                                .write(&data)
                                .params(TaskParams::from_scalar(2.0)),
                        )?;
                        ctx.submit_stage(
                            StageSpec::new("sum", SUM_INTO)
                                .read_partition(&data, 0)
                                .read_partition(&data, 1)
                                .read_partition(&data, 2)
                                .read_partition(&data, 3)
                                .write_partition(&total, 0)
                                .partitions(1),
                        )?;
                        Ok(())
                    })?;
                }
                ctx.fetch(&total, 0)
            })
            .unwrap();
        assert_eq!(report.output, 3.0 * 2.0 * 16.0);
        assert_eq!(report.controller.controller_templates_installed, 0);
        assert_eq!(report.controller.tasks_from_templates, 0);
        assert_eq!(report.controller.tasks_scheduled_directly, 15);
    }
}
