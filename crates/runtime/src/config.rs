//! Cluster configuration and application setup.

use std::sync::Arc;
use std::time::Duration;

use nimbus_controller::AssignmentPolicy;
use nimbus_core::appdata::AppData;
use nimbus_core::ids::{FunctionId, LogicalObjectId, LogicalPartition};
use nimbus_net::LatencyModel;
use nimbus_worker::{DataFactoryRegistry, FunctionRegistry, TaskContext};

/// Which message fabric the cluster's nodes communicate over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channels: fast and deterministic, the configuration used
    /// by unit tests and microbenchmarks.
    #[default]
    InProcess,
    /// Length-prefix-framed TCP over loopback sockets: every node still runs
    /// as a thread of this process, but every message crosses a real socket
    /// through the wire codec. Multi-process deployments use the
    /// `nimbus-controller` / `nimbus-worker` binaries instead.
    TcpLoopback,
}

/// Static configuration of a cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// The message fabric connecting driver, controller, and workers.
    pub transport: TransportKind,
    /// Network latency model applied to every message (in-process transport
    /// only; TCP latency is whatever the sockets deliver).
    pub latency: LatencyModel,
    /// Whether execution templates are enabled at start.
    pub enable_templates: bool,
    /// Optional artificial task duration (spin-wait), matching the paper's
    /// equal-duration methodology for cross-framework comparisons.
    pub spin_wait: Option<Duration>,
    /// Automatically checkpoint after this many template instantiations.
    pub checkpoint_every: Option<u64>,
    /// Partition assignment policy.
    pub policy: AssignmentPolicy,
    /// How long the controller waits for a failed worker to rejoin before
    /// recovering onto the survivors (TCP transports; `None` recovers
    /// immediately, the pre-rejoin behavior).
    pub rejoin_grace: Option<Duration>,
}

impl ClusterConfig {
    /// A cluster with `workers` workers, templates enabled, no latency,
    /// in-process transport.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            transport: TransportKind::InProcess,
            latency: LatencyModel::None,
            enable_templates: true,
            spin_wait: None,
            checkpoint_every: None,
            policy: AssignmentPolicy::hash(),
            rejoin_grace: None,
        }
    }

    /// Disables execution templates (the centrally-scheduled baseline).
    pub fn without_templates(mut self) -> Self {
        self.enable_templates = false;
        self
    }

    /// Runs every node over loopback TCP sockets instead of in-process
    /// channels (all nodes remain threads of this process).
    pub fn with_tcp_transport(mut self) -> Self {
        self.transport = TransportKind::TcpLoopback;
        self
    }

    /// Sets a fixed one-way message latency.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = LatencyModel::Fixed(latency);
        self
    }

    /// Sets the artificial per-task spin-wait duration.
    pub fn with_spin_wait(mut self, duration: Duration) -> Self {
        self.spin_wait = Some(duration);
        self
    }

    /// Enables automatic checkpoints every `n` template instantiations.
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Makes the controller wait up to `grace` for a failed worker to rejoin
    /// before recovering without it.
    pub fn with_rejoin_grace(mut self, grace: Duration) -> Self {
        self.rejoin_grace = Some(grace);
        self
    }
}

/// The application side of cluster setup: registered task functions and
/// dataset factories, shared by every worker.
///
/// Built either as a consuming chain:
///
/// ```ignore
/// let setup = AppSetup::new()
///     .function(ADD, "add", |ctx| { /* ... */ Ok(()) })
///     .object(LogicalObjectId(1), |_| VecF64::zeros(8));
/// ```
///
/// or incrementally through [`AppSetup::register_function`] /
/// [`AppSetup::register_object`] when registration is split across helpers.
#[derive(Default)]
pub struct AppSetup {
    functions: FunctionRegistry,
    factories: DataFactoryRegistry,
}

impl AppSetup {
    /// Creates an empty setup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task function under `id` (consuming-builder form).
    pub fn function(
        mut self,
        id: FunctionId,
        name: impl Into<String>,
        f: impl Fn(&mut TaskContext<'_>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.register_function(id, name, f);
        self
    }

    /// Registers the initial-contents factory of the dataset `object`
    /// (consuming-builder form). The factory's concrete return type `T` is
    /// what `Dataset<T>` asserts at definition time and what task functions
    /// downcast to with `read::<T>` / `write::<T>`.
    pub fn object<T: AppData>(
        mut self,
        object: LogicalObjectId,
        init: impl Fn(LogicalPartition) -> T + Send + Sync + 'static,
    ) -> Self {
        self.register_object(object, init);
        self
    }

    /// Registers a task function under `id`.
    pub fn register_function(
        &mut self,
        id: FunctionId,
        name: impl Into<String>,
        f: impl Fn(&mut TaskContext<'_>) -> Result<(), String> + Send + Sync + 'static,
    ) -> &mut Self {
        self.functions.register(id, name, f);
        self
    }

    /// Registers the initial-contents factory of the dataset `object`.
    pub fn register_object<T: AppData>(
        &mut self,
        object: LogicalObjectId,
        init: impl Fn(LogicalPartition) -> T + Send + Sync + 'static,
    ) -> &mut Self {
        self.factories
            .register(object, Box::new(move |lp| Box::new(init(lp))));
        self
    }

    /// Read access to the registered functions.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }

    /// Read access to the registered dataset factories.
    pub fn factories(&self) -> &DataFactoryRegistry {
        &self.factories
    }

    /// Finalizes the setup into shared registries.
    pub fn into_shared(self) -> (Arc<FunctionRegistry>, Arc<DataFactoryRegistry>) {
        (Arc::new(self.functions), Arc::new(self.factories))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let c = ClusterConfig::new(4)
            .without_templates()
            .with_latency(Duration::from_micros(50))
            .with_spin_wait(Duration::from_micros(100))
            .with_checkpoint_every(5);
        assert_eq!(c.workers, 4);
        assert!(!c.enable_templates);
        assert_eq!(c.latency, LatencyModel::Fixed(Duration::from_micros(50)));
        assert_eq!(c.spin_wait, Some(Duration::from_micros(100)));
        assert_eq!(c.checkpoint_every, Some(5));
    }
}
