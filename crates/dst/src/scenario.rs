//! Simulation scenarios: cluster topologies with exactly known outputs.
//!
//! Every scenario runs the quickstart workload (whose totals follow the
//! closed form `(i + 1) * PARTITIONS * PARTITION_LEN`), so a simulated run
//! is validated against *exact* expected bytes, not a tolerance. The
//! `migrate-churn` scenario runs it with an independent block in front and
//! `migrate_tasks` on both blocks every iteration — twice the adds, same
//! closed form times two. Any fault
//! plan a scenario generates must leave those outputs untouched — worker
//! kills, rejoins, and link delays are all events the control plane claims
//! to absorb — with the single exception of a dropped driver, whose own job
//! (and only its own job) may end in an error.

use std::collections::BTreeSet;
use std::time::Duration;

use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::ids::WorkerId;
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_net::NodeId;
use nimbus_runtime::quickstart::{quickstart_driver, ADD, PARTITIONS, PARTITION_LEN, SUM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::SimReport;
use crate::plan::{FaultKind, SchedulePlan};
use crate::trace::SimOutcome;

/// Decouples the plan-generation stream from the scheduler's decision
/// stream, which uses the seed directly.
const PLAN_STREAM_SALT: u64 = 0x5eed_5eed_5eed_5eed;

/// A cluster topology plus workload with exactly known outputs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (appears in traces and failure reports).
    pub name: &'static str,
    /// Number of workers.
    pub workers: u32,
    /// Number of concurrent driver jobs.
    pub jobs: u32,
    /// Quickstart iterations per job.
    pub iterations: u32,
    /// Auto-checkpoint period (template instantiations per checkpoint).
    pub checkpoint_every: Option<u64>,
    /// Rejoin grace window for transport-detected worker failures.
    pub rejoin_grace: Option<Duration>,
    /// Whether generated plans may kill (and rejoin) workers.
    pub allow_kills: bool,
    /// Whether generated plans may drop driver jobs.
    pub allow_drops: bool,
    /// Whether the driver moves tasks around while it runs (see
    /// [`Scenario::drive`]).
    pub migrations: bool,
}

impl Scenario {
    /// The baseline: one job, two workers, kills and rejoins allowed.
    pub fn quickstart() -> Self {
        Self {
            name: "quickstart",
            workers: 2,
            jobs: 1,
            iterations: 4,
            checkpoint_every: Some(2),
            rejoin_grace: Some(Duration::from_millis(50)),
            allow_kills: true,
            allow_drops: false,
            migrations: false,
        }
    }

    /// Three concurrent jobs on two workers; jobs may be dropped mid-run
    /// (isolation: surviving jobs must be untouched).
    pub fn multijob() -> Self {
        Self {
            name: "multijob",
            workers: 2,
            jobs: 3,
            iterations: 3,
            checkpoint_every: Some(2),
            rejoin_grace: Some(Duration::from_millis(50)),
            allow_kills: false,
            allow_drops: true,
            migrations: false,
        }
    }

    /// Three workers under membership churn: kills, rejoins, link delays.
    pub fn churn() -> Self {
        Self {
            name: "churn",
            workers: 3,
            jobs: 1,
            iterations: 5,
            checkpoint_every: Some(2),
            rejoin_grace: Some(Duration::from_millis(100)),
            allow_kills: true,
            allow_drops: false,
            migrations: false,
        }
    }

    /// Three workers, tasks of an independent block and of the reduce block
    /// migrated back and forth every iteration, and every plan kills one
    /// worker and brings it back: in place within the grace window (its
    /// edited templates are reinstalled) or, when it is late, as a new
    /// member that `admit_worker` fills through the same move planner.
    pub fn migrate_churn() -> Self {
        Self {
            name: "migrate-churn",
            workers: 3,
            jobs: 1,
            iterations: 6,
            checkpoint_every: Some(2),
            rejoin_grace: Some(Duration::from_millis(100)),
            allow_kills: true,
            allow_drops: false,
            migrations: true,
        }
    }

    /// Every scenario, in sweep order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::quickstart(),
            Self::multijob(),
            Self::churn(),
            Self::migrate_churn(),
        ]
    }

    /// Looks a scenario up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|s| s.name == name)
    }

    /// The exact totals every surviving job must fetch: iteration `i` totals
    /// `(i + 1) * PARTITIONS * PARTITION_LEN`, times two where the driver
    /// runs two adding blocks per iteration.
    pub fn expected_totals(&self) -> Vec<f64> {
        let adds = if self.migrations { 2.0 } else { 1.0 };
        (1..=self.iterations)
            .map(|i| adds * f64::from(i) * f64::from(PARTITIONS) * PARTITION_LEN as f64)
            .collect()
    }

    /// The driver program of one job: the quickstart, or with `migrations`
    /// the quickstart preceded each iteration by an independent block
    /// (`spread`: add 1.0 everywhere) and by `migrate_tasks(_, 2)` on both
    /// blocks, so tasks — moved ones included — keep moving around the ring
    /// of workers and back.
    pub fn drive(&self, session: &mut Session) -> DriverResult<Vec<f64>> {
        if !self.migrations {
            return quickstart_driver(session, self.iterations);
        }
        let data: Dataset<VecF64> = session.define_dataset("data", PARTITIONS)?;
        let total: Dataset<Scalar> = session.define_dataset("total", 1)?;
        let add = |ctx: &mut Session| {
            ctx.submit_stage(
                StageSpec::new("add", ADD)
                    .write(&data)
                    .params(TaskParams::from_scalar(1.0)),
            )
        };
        let mut totals = Vec::with_capacity(self.iterations as usize);
        for i in 0..self.iterations {
            if i > 0 {
                session.migrate_tasks("spread", 2)?;
                session.migrate_tasks("inner", 2)?;
            }
            session.block("spread", add)?;
            session.block("inner", |ctx| {
                add(ctx)?;
                let mut sum = StageSpec::new("sum", SUM).partitions(1);
                for p in 0..data.partitions {
                    sum = sum.read_partition(&data, p);
                }
                ctx.submit_stage(sum.write_partition(&total, 0))
            })?;
            totals.push(session.fetch(&total, 0)?);
        }
        Ok(totals)
    }

    /// Generates a seeded fault plan consistent with this scenario's rules:
    /// at least one worker stays alive at every point, only real clients are
    /// dropped, and fault times land inside the plausible decision range.
    pub fn generate_plan(&self, seed: u64) -> SchedulePlan {
        let mut rng = StdRng::seed_from_u64(seed ^ PLAN_STREAM_SALT);
        let mut plan = SchedulePlan::random(seed);
        let mut alive: Vec<WorkerId> = (0..self.workers).map(WorkerId).collect();
        let mut dead: Vec<WorkerId> = Vec::new();
        let mut undropped: Vec<u32> = (1..=self.jobs).collect();
        let fault_count = rng.gen_range(0u32..6);
        let mut at: u64 = 0;
        if self.migrations {
            // Always one kill that comes back, early or late, on top of
            // whatever else the plan draws.
            at += rng.gen_range(40u64..200);
            let victim = alive[rng.gen_range(0..alive.len())];
            plan = plan.with_fault(at, FaultKind::Kill(victim));
            at += rng.gen_range(5u64..200);
            plan = plan.with_fault(at, FaultKind::Rejoin(victim));
        }
        for _ in 0..fault_count {
            at += rng.gen_range(5u64..90);
            // Build the menu of currently legal fault kinds; always draw the
            // selector even when the menu shrinks, so plans with different
            // histories stay on comparable streams.
            let draw = rng.gen_range(0u32..100);
            let can_kill = self.allow_kills && alive.len() >= 2;
            let can_rejoin = !dead.is_empty();
            let can_drop = self.allow_drops && !undropped.is_empty();
            if can_kill && draw < 35 {
                let victim = alive.remove(rng.gen_range(0..alive.len()));
                plan = plan.with_fault(at, FaultKind::Kill(victim));
                // Most kills come back (the rejoin handshake is the richer
                // code path); the rest recover onto the survivors.
                if rng.gen_bool(0.7) {
                    at += rng.gen_range(5u64..80);
                    plan = plan.with_fault(at, FaultKind::Rejoin(victim));
                    alive.push(victim);
                } else {
                    dead.push(victim);
                }
            } else if can_rejoin && draw < 50 {
                let back = dead.remove(rng.gen_range(0..dead.len()));
                plan = plan.with_fault(at, FaultKind::Rejoin(back));
                alive.push(back);
            } else if can_drop && draw < 65 {
                let gone = undropped.remove(rng.gen_range(0..undropped.len()));
                plan = plan.with_fault(at, FaultKind::DropJob(gone));
            } else {
                // Delay one direction of a controller<->worker link.
                let w = NodeId::Worker(WorkerId(rng.gen_range(0..self.workers)));
                let (from, to) = if rng.gen_bool(0.5) {
                    (NodeId::Controller, w)
                } else {
                    (w, NodeId::Controller)
                };
                let decisions = rng.gen_range(1u32..40);
                plan = plan.with_fault(
                    at,
                    FaultKind::DelayLink {
                        from,
                        to,
                        decisions,
                    },
                );
            }
        }
        plan
    }

    /// The client ids a plan drops.
    pub fn dropped_clients(plan: &SchedulePlan) -> BTreeSet<u32> {
        plan.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::DropJob(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// Validates a simulated run: completion, exact totals for every
    /// surviving job, and controller bookkeeping consistent with the plan.
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, plan: &SchedulePlan, report: &SimReport) -> Result<(), String> {
        if report.trace.outcome != SimOutcome::Completed {
            return Err(format!("run ended in {}", report.trace.outcome));
        }
        let dropped = Self::dropped_clients(plan);
        let expected = self.expected_totals();
        if report.outputs.len() != self.jobs as usize {
            return Err(format!(
                "expected {} job outputs, got {}",
                self.jobs,
                report.outputs.len()
            ));
        }
        for (idx, output) in report.outputs.iter().enumerate() {
            let client = idx as u32 + 1;
            match output {
                Ok(totals) => {
                    // A dropped job may still have finished before the drop
                    // landed — but if it reports success, its totals must be
                    // the exact closed form like everyone else's.
                    if totals != &expected {
                        return Err(format!(
                            "job {client} totals diverged: got {totals:?}, want {expected:?}"
                        ));
                    }
                }
                Err(e) => {
                    // A clean error is legitimate in two cases: the job's own
                    // driver was dropped, or a worker died before the job had
                    // any checkpoint to recover from (the controller reports
                    // the loss rather than fabricating state). Anything else
                    // is a real failure.
                    let killed = plan
                        .faults
                        .iter()
                        .any(|f| matches!(f.kind, FaultKind::Kill(_)));
                    if !dropped.contains(&client) && !killed {
                        return Err(format!("job {client} failed without being dropped: {e}"));
                    }
                }
            }
        }
        let controller = report
            .controller
            .as_ref()
            .ok_or_else(|| "controller stats missing (thread panicked?)".to_string())?;
        // Every job that ran to success recorded its template exactly once;
        // rejoin reinstalls can only add to the counter, never subtract.
        // (Jobs that ended in a tolerated error may have died before their
        // recording finished, so only successes set the floor.)
        let succeeded = report.outputs.iter().filter(|o| o.is_ok()).count() as u64;
        if self.iterations >= 2 && controller.controller_templates_installed < succeeded {
            return Err(format!(
                "{} templates installed for {succeeded} successful jobs",
                controller.controller_templates_installed
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_totals_follow_the_closed_form() {
        let s = Scenario::quickstart();
        assert_eq!(s.expected_totals(), vec![64.0, 128.0, 192.0, 256.0]);
    }

    #[test]
    fn generated_plans_are_deterministic_and_legal() {
        for scenario in Scenario::all() {
            for seed in 0..200 {
                let a = scenario.generate_plan(seed);
                let b = scenario.generate_plan(seed);
                assert_eq!(a, b, "plan generation must be deterministic");
                // Replay the alive-set bookkeeping: at least one worker must
                // be alive at every point of the plan.
                let mut alive: BTreeSet<u32> = (0..scenario.workers).collect();
                for fault in &a.faults {
                    match fault.kind {
                        FaultKind::Kill(w) => {
                            assert!(alive.remove(&w.raw()), "kill of dead worker");
                            assert!(!alive.is_empty(), "plan killed the last worker");
                        }
                        FaultKind::Rejoin(w) => {
                            assert!(alive.insert(w.raw()), "rejoin of live worker");
                        }
                        FaultKind::DropJob(c) => {
                            assert!(c >= 1 && c <= scenario.jobs, "dropped unknown client");
                        }
                        FaultKind::DelayLink { decisions, .. } => {
                            assert!(decisions >= 1);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kills_only_where_allowed() {
        for seed in 0..100 {
            let plan = Scenario::multijob().generate_plan(seed);
            assert!(
                !plan
                    .faults
                    .iter()
                    .any(|f| matches!(f.kind, FaultKind::Kill(_))),
                "multijob must not kill workers"
            );
        }
    }
}
