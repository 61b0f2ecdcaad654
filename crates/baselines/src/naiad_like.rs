//! Naiad-like static distributed dataflow.
//!
//! Naiad and TensorFlow install a data-flow graph on every worker when the
//! job starts; workers then generate and exchange work without the
//! controller. The equivalent here is a driver wrapper that records each
//! basic block exactly once (the "installation") and afterwards only
//! re-instantiates it verbatim: no edits, no migrations, no allocation
//! changes. Any change to the schedule requires tearing the plan down and
//! re-installing it, which is what Table 3 and Figure 10 charge the
//! distributed-dataflow design for.

use nimbus_driver::{DriverError, DriverResult, Session};

/// A driver wrapper that enforces static-dataflow semantics.
pub struct StaticDataflowDriver<'a> {
    ctx: &'a mut Session,
    installed: Vec<String>,
    frozen: bool,
    /// Number of complete re-installations performed (each models the
    /// ~230 ms data-flow installation cost of Table 3).
    pub reinstallations: u64,
}

impl<'a> StaticDataflowDriver<'a> {
    /// Wraps a driver context.
    pub fn new(ctx: &'a mut Session) -> Self {
        Self {
            ctx,
            installed: Vec::new(),
            frozen: false,
            reinstallations: 0,
        }
    }

    /// Access to the underlying context for dataset definition and fetches.
    pub fn ctx(&mut self) -> &mut Session {
        self.ctx
    }

    /// Executes a block. The first execution installs the plan; later
    /// executions replay it unchanged.
    pub fn run_block(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Session) -> DriverResult<()>,
    ) -> DriverResult<()> {
        if self.frozen && !self.installed.iter().any(|b| b == name) {
            return Err(DriverError::Misuse(format!(
                "static dataflow is frozen; block '{name}' was not part of the installed plan"
            )));
        }
        if !self.installed.iter().any(|b| b == name) {
            self.installed.push(name.to_string());
        }
        self.ctx.block(name, body)
    }

    /// Freezes the plan: from now on only installed blocks may run and any
    /// scheduling change requires [`StaticDataflowDriver::reinstall`].
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Scheduling changes (migration, allocation change) are rejected; the
    /// caller must pay for a full re-installation instead.
    pub fn migrate_tasks(&mut self, _block: &str, _count: usize) -> DriverResult<()> {
        Err(DriverError::Misuse(
            "a static dataflow cannot migrate tasks in place; reinstall the plan".to_string(),
        ))
    }

    /// Tears the plan down and counts a full re-installation. The next
    /// execution of each block records it again from scratch.
    pub fn reinstall(&mut self) {
        self.reinstallations += 1;
        self.installed.clear();
        self.frozen = false;
    }

    /// Blocks currently part of the installed plan.
    pub fn installed_blocks(&self) -> &[String] {
        &self.installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::appdata::VecF64;
    use nimbus_core::ids::FunctionId;
    use nimbus_core::TaskParams;
    use nimbus_driver::{Dataset, StageSpec};
    use nimbus_runtime::{AppSetup, Cluster, ClusterConfig};

    #[test]
    fn static_dataflow_installs_once_and_rejects_changes() {
        let setup = AppSetup::new()
            .function(FunctionId(1), "bump", |ctx| {
                let v = ctx.write::<VecF64>(0)?;
                for x in v.values.iter_mut() {
                    *x += 1.0;
                }
                Ok(())
            })
            .object(nimbus_core::LogicalObjectId(1), |_| VecF64::zeros(2));
        let cluster = Cluster::start(ClusterConfig::new(2), setup);
        let report = cluster
            .run_driver(|ctx| {
                let data: Dataset<VecF64> = ctx.define_dataset("data", 2)?;
                let mut dataflow = StaticDataflowDriver::new(ctx);
                for _ in 0..3 {
                    dataflow.run_block("step", |ctx| {
                        ctx.submit_stage(
                            StageSpec::new("bump", FunctionId(1))
                                .write(&data)
                                .params(TaskParams::empty()),
                        )
                    })?;
                }
                dataflow.freeze();
                assert!(dataflow.migrate_tasks("step", 1).is_err());
                assert!(dataflow.run_block("other", |_ctx| Ok(())).is_err());
                assert_eq!(dataflow.installed_blocks(), ["step".to_string()]);
                dataflow.reinstall();
                assert_eq!(dataflow.reinstallations, 1);
                dataflow.ctx().fetch(&data, 0)
            })
            .unwrap();
        assert_eq!(report.output, 3.0);
        assert_eq!(report.controller.controller_templates_installed, 1);
    }
}
