//! The one synthetic application every workload runs, and the inputs the
//! benchmark generates for it from `--seed`.
//!
//! `add` adds the task's scalar parameter to a 4-element `VecF64`, so a task
//! costs almost nothing and control-plane cost dominates, as in the paper's
//! strong-scaling regime. Every delta is a small whole number, so the sum a
//! partition must hold is exact in `f64` and each workload has a closed-form
//! answer.

use nimbus_core::appdata::VecF64;
use nimbus_core::ids::{FunctionId, LogicalObjectId};
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::AppSetup;

pub const ADD: FunctionId = FunctionId(1);
/// The first dataset a session defines gets id 1; the factory is keyed by it.
pub const DATA: LogicalObjectId = LogicalObjectId(1);
pub const WORKERS: usize = 2;
const ELEMENTS: usize = 4;

pub fn setup() -> AppSetup {
    AppSetup::new()
        .function(ADD, "add", |ctx| {
            let delta = ctx.params().as_scalar().map_err(|e| e.to_string())?;
            for x in ctx.write::<VecF64>(0)?.values.iter_mut() {
                *x += delta;
            }
            Ok(())
        })
        .object(DATA, |_| VecF64::zeros(ELEMENTS))
}

/// SplitMix64: the benchmark's only source of randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scalar task `partition` of execution `iteration` adds: 1 to 8.
pub fn delta(seed: u64, iteration: u64, partition: u32) -> f64 {
    let h = mix(seed ^ mix(iteration.wrapping_mul(0x1_0000_0001) ^ u64::from(partition)));
    (1 + h % 8) as f64
}

/// The data-dependent branch of `loop.branch`: a hash of the seed and the
/// value the driver just fetched.
pub fn takes_branch_b(seed: u64, value: f64) -> bool {
    mix(seed ^ value.to_bits()).is_multiple_of(4)
}

/// How an execution's deltas vary: per task, or one value for the whole
/// execution. `edits.migrate` uses the second because the program under test
/// binds per-task parameters to the wrong tasks once `migrate_tasks` has
/// moved one (see the README), and a workload must not fail by design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deltas {
    PerTask,
    PerExecution,
}

impl Deltas {
    pub fn of(self, seed: u64, iteration: u64, partition: u32) -> f64 {
        match self {
            Deltas::PerTask => delta(seed, iteration, partition),
            Deltas::PerExecution => delta(seed, iteration, 0),
        }
    }
}

/// Executes block `name`: one `add` stage over every partition of `data`,
/// task `p` adding its delta. The first execution of a name records its
/// template; later ones replay it.
pub fn run_block(
    ctx: &mut Session,
    name: &str,
    data: &Dataset<VecF64>,
    deltas: Deltas,
    seed: u64,
    iteration: u64,
) -> DriverResult<()> {
    ctx.block(name, |ctx| {
        ctx.submit_stage(
            StageSpec::new("add", ADD)
                .write(data)
                .params_per_partition(move |p| {
                    TaskParams::from_scalar(deltas.of(seed, iteration, p))
                }),
        )
    })
}

/// What each partition must hold after the benchmark applied its deltas.
pub struct Expected {
    pub seed: u64,
    pub deltas: Deltas,
    sums: Vec<f64>,
}

impl Expected {
    pub fn new(seed: u64, deltas: Deltas, partitions: u32) -> Self {
        Self {
            seed,
            deltas,
            sums: vec![0.0; partitions as usize],
        }
    }

    /// Accounts for one execution of a block over every partition.
    pub fn apply(&mut self, iteration: u64) {
        for (p, sum) in self.sums.iter_mut().enumerate() {
            *sum += self.deltas.of(self.seed, iteration, p as u32);
        }
    }

    pub fn partition(&self, p: u32) -> f64 {
        self.sums[p as usize]
    }

    pub fn partitions(&self) -> u32 {
        self.sums.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a: Vec<f64> = (0..64).map(|i| delta(7, i, 3)).collect();
        let b: Vec<f64> = (0..64).map(|i| delta(7, i, 3)).collect();
        let c: Vec<f64> = (0..64).map(|i| delta(8, i, 3)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|d| (1.0..=8.0).contains(d) && d.fract() == 0.0));
        let taken = (0..4000).filter(|i| takes_branch_b(7, *i as f64)).count();
        assert!((800..1200).contains(&taken), "{taken}");
    }
}
