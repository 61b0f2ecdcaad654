//! Water-simulation proxy: a particle-levelset fluid step with the control
//! structure of the paper's PhysBAM benchmark.
//!
//! The paper's most demanding application is a PhysBAM particle-levelset
//! water simulation: a triply nested loop (frames → adaptive CFL-bounded
//! sub-steps → iterative pressure projection) with 21 computational stages,
//! more than 40 simulation variables, and tasks as short as 100 µs. PhysBAM
//! itself is half a million lines of C++; this module substitutes a compact
//! 2-D staggered-grid solver that preserves exactly the properties the
//! control-plane evaluation depends on:
//!
//! * the same **triply nested, data-dependent** loop structure — the sub-step
//!   size comes from a reduced CFL bound and the pressure loop terminates on
//!   a reduced residual, so no static dataflow can express it;
//! * **21 named stages** per sub-step spread over four basic blocks;
//! * a large number of per-partition simulation variables (velocity
//!   components, pressure, divergence, level set, particles, ghost rows, …)
//!   plus global reduced values;
//! * short tasks whose cost is dominated by control-plane handling.
//!
//! The physics is intentionally simple (semi-Lagrangian advection, Jacobi
//! pressure projection, level-set reinitialization, particle correction); the
//! point is faithful control flow, not film-quality water.

use nimbus_core::appdata::VecF64;
use nimbus_core::{impl_app_data, TaskParams};
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::AppSetup;

/// One horizontal slab of the simulation grid plus its particle set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GridSlab {
    /// Grid cells per row.
    pub nx: usize,
    /// Rows in this slab.
    pub ny: usize,
    /// Horizontal velocity.
    pub u: Vec<f64>,
    /// Vertical velocity.
    pub v: Vec<f64>,
    /// Pressure.
    pub pressure: Vec<f64>,
    /// Pressure scratch buffer for Jacobi sweeps.
    pub pressure_next: Vec<f64>,
    /// Velocity divergence.
    pub divergence: Vec<f64>,
    /// Signed-distance level set (negative inside the water).
    pub levelset: Vec<f64>,
    /// Level-set scratch buffer.
    pub levelset_next: Vec<f64>,
    /// Marker particle x positions.
    pub particles_x: Vec<f64>,
    /// Marker particle y positions.
    pub particles_y: Vec<f64>,
    /// Marker particle signs (+1 outside, -1 inside).
    pub particles_sign: Vec<f64>,
    /// Ghost row received from the slab below.
    pub ghost_below: Vec<f64>,
    /// Ghost row received from the slab above.
    pub ghost_above: Vec<f64>,
    /// Global y offset of this slab's first row.
    pub y_offset: usize,
}

impl GridSlab {
    /// Creates a slab initialized with a column of water on the left side.
    pub fn new(nx: usize, ny: usize, y_offset: usize) -> Self {
        let cells = nx * ny;
        let mut levelset = vec![1.0; cells];
        for row in 0..ny {
            for col in 0..nx {
                // Water occupies the left third of the domain.
                let inside = col < nx / 3;
                levelset[row * nx + col] = if inside { -1.0 } else { 1.0 };
            }
        }
        let mut particles_x = Vec::new();
        let mut particles_y = Vec::new();
        let mut particles_sign = Vec::new();
        for row in 0..ny {
            for col in 0..nx {
                particles_x.push(col as f64 + 0.5);
                particles_y.push((y_offset + row) as f64 + 0.5);
                particles_sign.push(if col < nx / 3 { -1.0 } else { 1.0 });
            }
        }
        Self {
            nx,
            ny,
            u: vec![0.0; cells],
            v: vec![0.0; cells],
            pressure: vec![0.0; cells],
            pressure_next: vec![0.0; cells],
            divergence: vec![0.0; cells],
            levelset,
            levelset_next: vec![0.0; cells],
            particles_x,
            particles_y,
            particles_sign,
            ghost_below: vec![0.0; nx],
            ghost_above: vec![0.0; nx],
            y_offset,
        }
    }

    /// Row-major index of a cell.
    pub fn idx(&self, row: usize, col: usize) -> usize {
        row * self.nx + col
    }

    /// Maximum velocity magnitude in the slab (for the CFL bound).
    pub fn max_speed(&self) -> f64 {
        self.u
            .iter()
            .zip(&self.v)
            .map(|(a, b)| (a * a + b * b).sqrt())
            .fold(0.0, f64::max)
    }

    /// Fraction of cells currently inside the water.
    pub fn water_fraction(&self) -> f64 {
        let inside = self.levelset.iter().filter(|p| **p < 0.0).count();
        inside as f64 / self.levelset.len().max(1) as f64
    }
}

impl_app_data!(GridSlab, |g: &GridSlab| {
    (g.u.len() * 7 + g.particles_x.len() * 3 + g.nx * 2) * std::mem::size_of::<f64>()
        + std::mem::size_of::<GridSlab>()
});

/// Function identifiers for the 21 computational stages of one sub-step.
pub mod stages {
    use nimbus_core::ids::FunctionId;

    /// 1. Per-slab CFL bound.
    pub const COMPUTE_CFL: FunctionId = FunctionId(40);
    /// 2–3. Reduce CFL bounds (two levels, min).
    pub const REDUCE_MIN: FunctionId = FunctionId(41);
    /// 4. Apply gravity and other body forces.
    pub const ADD_FORCES: FunctionId = FunctionId(42);
    /// 5. Semi-Lagrangian advection of velocity.
    pub const ADVECT_VELOCITY: FunctionId = FunctionId(43);
    /// 6. Simple viscosity smoothing.
    pub const APPLY_VISCOSITY: FunctionId = FunctionId(44);
    /// 7. Publish boundary rows to neighbours.
    pub const PUBLISH_HALO: FunctionId = FunctionId(45);
    /// 8. Absorb neighbour boundary rows.
    pub const APPLY_HALO: FunctionId = FunctionId(46);
    /// 9. Velocity divergence.
    pub const COMPUTE_DIVERGENCE: FunctionId = FunctionId(47);
    /// 10. One Jacobi sweep of the pressure solve.
    pub const PRESSURE_SWEEP: FunctionId = FunctionId(48);
    /// 11. Per-slab pressure residual.
    pub const COMPUTE_RESIDUAL: FunctionId = FunctionId(49);
    /// 12. Reduce residuals (max).
    pub const REDUCE_MAX: FunctionId = FunctionId(50);
    /// 13. Apply the pressure gradient to the velocity.
    pub const APPLY_PRESSURE: FunctionId = FunctionId(51);
    /// 14. Enforce domain boundary conditions.
    pub const ENFORCE_BOUNDARIES: FunctionId = FunctionId(52);
    /// 15. Advect the level set.
    pub const ADVECT_LEVELSET: FunctionId = FunctionId(53);
    /// 16. Reinitialize the level set toward signed distance.
    pub const REINITIALIZE_LEVELSET: FunctionId = FunctionId(54);
    /// 17. Advect marker particles.
    pub const ADVECT_PARTICLES: FunctionId = FunctionId(55);
    /// 18. Correct the level set with escaped particles.
    pub const CORRECT_LEVELSET: FunctionId = FunctionId(56);
    /// 19. Reseed particles in a band around the interface.
    pub const RESEED_PARTICLES: FunctionId = FunctionId(57);
    /// 20. Extrapolate velocity into the air region.
    pub const EXTRAPOLATE_VELOCITY: FunctionId = FunctionId(58);
    /// 21. Per-slab water volume (frame diagnostic).
    pub const MEASURE_VOLUME: FunctionId = FunctionId(59);
    /// Reduce volumes (sum).
    pub const REDUCE_SUM: FunctionId = FunctionId(60);
}

/// Configuration of a water-simulation run.
#[derive(Clone, Debug)]
pub struct WaterConfig {
    /// Grid cells per row.
    pub nx: usize,
    /// Grid rows per slab.
    pub rows_per_slab: usize,
    /// Number of slabs (partitions).
    pub slabs: u32,
    /// Number of output frames (outer loop).
    pub frames: usize,
    /// Simulated time per frame.
    pub frame_dt: f64,
    /// CFL safety factor.
    pub cfl: f64,
    /// Pressure-solve convergence threshold.
    pub pressure_tolerance: f64,
    /// Maximum pressure iterations per sub-step.
    pub max_pressure_iterations: usize,
    /// Maximum sub-steps per frame (safety cap).
    pub max_substeps_per_frame: usize,
}

impl Default for WaterConfig {
    fn default() -> Self {
        Self {
            nx: 16,
            rows_per_slab: 8,
            slabs: 4,
            frames: 2,
            frame_dt: 0.1,
            cfl: 0.5,
            pressure_tolerance: 1e-3,
            max_pressure_iterations: 8,
            max_substeps_per_frame: 4,
        }
    }
}

/// Dataset handles used by the simulation.
pub struct WaterDatasets {
    /// Grid slabs (one per partition).
    pub grid: Dataset<GridSlab>,
    /// Per-slab CFL bounds.
    pub cfl_local: Dataset<VecF64>,
    /// Intermediate CFL reductions.
    pub cfl_l1: Dataset<VecF64>,
    /// Global time-step bound.
    pub dt_global: Dataset<VecF64>,
    /// Per-slab pressure residuals.
    pub residual_local: Dataset<VecF64>,
    /// Intermediate residual reductions.
    pub residual_l1: Dataset<VecF64>,
    /// Global pressure residual.
    pub residual_global: Dataset<VecF64>,
    /// Halo rows published upward.
    pub halo_up: Dataset<VecF64>,
    /// Halo rows published downward.
    pub halo_down: Dataset<VecF64>,
    /// Per-slab water volume.
    pub volume_local: Dataset<VecF64>,
    /// Intermediate volume reductions.
    pub volume_l1: Dataset<VecF64>,
    /// Global water volume.
    pub volume_global: Dataset<VecF64>,
}

/// Result of a water-simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct WaterResult {
    /// Water volume (cell fraction) after each frame.
    pub volume_per_frame: Vec<f64>,
    /// Total sub-steps executed (middle loop iterations).
    pub substeps: usize,
    /// Total pressure iterations executed (inner loop iterations).
    pub pressure_iterations: usize,
    /// Frames simulated.
    pub frames: usize,
}

fn vec_min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Registers the simulation's functions and dataset factories.
pub fn register(setup: &mut AppSetup, config: &WaterConfig) {
    let nx = config.nx;
    let rows = config.rows_per_slab;

    setup.register_object(nimbus_core::LogicalObjectId(1), move |lp| {
        GridSlab::new(nx, rows, lp.partition.raw() as usize * rows)
    });
    // Scalar-per-partition datasets (CFL, residual, volume and their trees).
    for id in 2..=7 {
        setup.register_object(nimbus_core::LogicalObjectId(id), |_| VecF64::new(vec![0.0]));
    }
    // Halo rows.
    for id in 8..=9 {
        setup.register_object(nimbus_core::LogicalObjectId(id), move |_| VecF64::zeros(nx));
    }
    for id in 10..=12 {
        setup.register_object(nimbus_core::LogicalObjectId(id), |_| VecF64::new(vec![0.0]));
    }

    use stages::*;

    setup.register_function(COMPUTE_CFL, "compute_cfl", |ctx| {
        let cfl = ctx.params().as_scalar().map_err(|e| e.to_string())?;
        let grid = ctx.read::<GridSlab>(0)?;
        let speed = grid.max_speed().max(1e-3);
        ctx.write::<VecF64>(0)?.values = vec![cfl / speed];
        Ok(())
    });

    setup.register_function(REDUCE_MIN, "reduce_min", |ctx| {
        let mut m = f64::INFINITY;
        for i in 0..ctx.read_count() {
            m = m.min(vec_min(&ctx.read::<VecF64>(i)?.values));
        }
        ctx.write::<VecF64>(0)?.values = vec![m];
        Ok(())
    });

    setup.register_function(REDUCE_MAX, "reduce_max", |ctx| {
        let mut m = f64::NEG_INFINITY;
        for i in 0..ctx.read_count() {
            m = m.max(
                ctx.read::<VecF64>(i)?
                    .values
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max),
            );
        }
        ctx.write::<VecF64>(0)?.values = vec![m];
        Ok(())
    });

    setup.register_function(REDUCE_SUM, "reduce_sum", |ctx| {
        let mut total = 0.0;
        for i in 0..ctx.read_count() {
            total += ctx.read::<VecF64>(i)?.values.iter().sum::<f64>();
        }
        ctx.write::<VecF64>(0)?.values = vec![total];
        Ok(())
    });

    setup.register_function(ADD_FORCES, "add_forces", |ctx| {
        let dt = ctx.params().as_scalar().map_err(|e| e.to_string())?;
        let grid = ctx.write::<GridSlab>(0)?;
        for i in 0..grid.v.len() {
            if grid.levelset[i] < 0.0 {
                grid.v[i] -= 9.8 * dt;
            }
        }
        Ok(())
    });

    setup.register_function(ADVECT_VELOCITY, "advect_velocity", |ctx| {
        let dt = ctx.params().as_scalar().map_err(|e| e.to_string())?;
        let grid = ctx.write::<GridSlab>(0)?;
        let (nx, ny) = (grid.nx, grid.ny);
        let u0 = grid.u.clone();
        let v0 = grid.v.clone();
        for row in 0..ny {
            for col in 0..nx {
                let i = row * nx + col;
                let src_col = ((col as f64 - u0[i] * dt)
                    .round()
                    .clamp(0.0, nx as f64 - 1.0)) as usize;
                let src_row = ((row as f64 - v0[i] * dt)
                    .round()
                    .clamp(0.0, ny as f64 - 1.0)) as usize;
                let s = src_row * nx + src_col;
                grid.u[i] = u0[s];
                grid.v[i] = v0[s];
            }
        }
        Ok(())
    });

    setup.register_function(APPLY_VISCOSITY, "apply_viscosity", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        let u0 = grid.u.clone();
        let v0 = grid.v.clone();
        for i in 0..u0.len() {
            let left = if i % nx > 0 { u0[i - 1] } else { u0[i] };
            let right = if i % nx < nx - 1 { u0[i + 1] } else { u0[i] };
            grid.u[i] = 0.9 * u0[i] + 0.05 * (left + right);
            let left = if i % nx > 0 { v0[i - 1] } else { v0[i] };
            let right = if i % nx < nx - 1 { v0[i + 1] } else { v0[i] };
            grid.v[i] = 0.9 * v0[i] + 0.05 * (left + right);
        }
        Ok(())
    });

    setup.register_function(PUBLISH_HALO, "publish_halo", |ctx| {
        let grid = ctx.read::<GridSlab>(0)?;
        let nx = grid.nx;
        let top_row: Vec<f64> = grid.levelset[(grid.ny - 1) * nx..].to_vec();
        let bottom_row: Vec<f64> = grid.levelset[..nx].to_vec();
        ctx.write::<VecF64>(0)?.values = top_row;
        ctx.write::<VecF64>(1)?.values = bottom_row;
        Ok(())
    });

    setup.register_function(APPLY_HALO, "apply_halo", |ctx| {
        // Reads: [grid is in the write set]; read 0/1 are the neighbours'
        // published rows (or this slab's own rows at the domain boundary).
        let below = ctx.read::<VecF64>(0)?.values.clone();
        let above = ctx.read::<VecF64>(1)?.values.clone();
        let grid = ctx.write::<GridSlab>(0)?;
        grid.ghost_below = below;
        grid.ghost_above = above;
        Ok(())
    });

    setup.register_function(COMPUTE_DIVERGENCE, "compute_divergence", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        for row in 0..grid.ny {
            for col in 0..nx {
                let i = row * nx + col;
                let right = if col < nx - 1 { grid.u[i + 1] } else { 0.0 };
                let up = if row < grid.ny - 1 {
                    grid.v[i + nx]
                } else {
                    0.0
                };
                grid.divergence[i] = (right - grid.u[i]) + (up - grid.v[i]);
            }
        }
        Ok(())
    });

    setup.register_function(PRESSURE_SWEEP, "pressure_sweep", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        let ny = grid.ny;
        for row in 0..ny {
            for col in 0..nx {
                let i = row * nx + col;
                let left = if col > 0 { grid.pressure[i - 1] } else { 0.0 };
                let right = if col < nx - 1 {
                    grid.pressure[i + 1]
                } else {
                    0.0
                };
                let down = if row > 0 {
                    grid.pressure[i - nx]
                } else {
                    grid.ghost_below.get(col).copied().unwrap_or(0.0)
                };
                let up = if row < ny - 1 {
                    grid.pressure[i + nx]
                } else {
                    grid.ghost_above.get(col).copied().unwrap_or(0.0)
                };
                grid.pressure_next[i] = (left + right + down + up - grid.divergence[i]) / 4.0;
            }
        }
        std::mem::swap(&mut grid.pressure, &mut grid.pressure_next);
        Ok(())
    });

    setup.register_function(COMPUTE_RESIDUAL, "compute_residual", |ctx| {
        let grid = ctx.read::<GridSlab>(0)?;
        let mut residual: f64 = 0.0;
        for i in 0..grid.pressure.len() {
            residual = residual.max((grid.pressure[i] - grid.pressure_next[i]).abs());
        }
        ctx.write::<VecF64>(0)?.values = vec![residual];
        Ok(())
    });

    setup.register_function(APPLY_PRESSURE, "apply_pressure", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        for row in 0..grid.ny {
            for col in 0..nx {
                let i = row * nx + col;
                let left = if col > 0 { grid.pressure[i - 1] } else { 0.0 };
                let down = if row > 0 { grid.pressure[i - nx] } else { 0.0 };
                grid.u[i] -= grid.pressure[i] - left;
                grid.v[i] -= grid.pressure[i] - down;
            }
        }
        Ok(())
    });

    setup.register_function(ENFORCE_BOUNDARIES, "enforce_boundaries", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        for row in 0..grid.ny {
            grid.u[row * nx] = 0.0;
            grid.u[row * nx + nx - 1] = 0.0;
        }
        for col in 0..nx {
            grid.v[col] = grid.v[col].max(0.0);
        }
        Ok(())
    });

    setup.register_function(ADVECT_LEVELSET, "advect_levelset", |ctx| {
        let dt = ctx.params().as_scalar().map_err(|e| e.to_string())?;
        let grid = ctx.write::<GridSlab>(0)?;
        let (nx, ny) = (grid.nx, grid.ny);
        let phi0 = grid.levelset.clone();
        for row in 0..ny {
            for col in 0..nx {
                let i = row * nx + col;
                let src_col = ((col as f64 - grid.u[i] * dt)
                    .round()
                    .clamp(0.0, nx as f64 - 1.0)) as usize;
                let src_row = ((row as f64 - grid.v[i] * dt)
                    .round()
                    .clamp(0.0, ny as f64 - 1.0)) as usize;
                grid.levelset_next[i] = phi0[src_row * nx + src_col];
            }
        }
        std::mem::swap(&mut grid.levelset, &mut grid.levelset_next);
        Ok(())
    });

    setup.register_function(REINITIALIZE_LEVELSET, "reinitialize_levelset", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        for phi in grid.levelset.iter_mut() {
            *phi = phi.clamp(-3.0, 3.0) * 0.99;
        }
        Ok(())
    });

    setup.register_function(ADVECT_PARTICLES, "advect_particles", |ctx| {
        let dt = ctx.params().as_scalar().map_err(|e| e.to_string())?;
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        let ny = grid.ny;
        for p in 0..grid.particles_x.len() {
            let col = (grid.particles_x[p].floor().clamp(0.0, nx as f64 - 1.0)) as usize;
            let row = ((grid.particles_y[p] - grid.y_offset as f64)
                .floor()
                .clamp(0.0, ny as f64 - 1.0)) as usize;
            let i = row * nx + col;
            grid.particles_x[p] =
                (grid.particles_x[p] + grid.u[i] * dt).clamp(0.0, nx as f64 - 1e-3);
            grid.particles_y[p] += grid.v[i] * dt;
        }
        Ok(())
    });

    setup.register_function(CORRECT_LEVELSET, "correct_levelset", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        let ny = grid.ny;
        for p in 0..grid.particles_x.len() {
            let col = (grid.particles_x[p].floor().clamp(0.0, nx as f64 - 1.0)) as usize;
            let row = ((grid.particles_y[p] - grid.y_offset as f64)
                .floor()
                .clamp(0.0, ny as f64 - 1.0)) as usize;
            let i = row * nx + col;
            // An inside particle sitting in an "outside" cell (or vice
            // versa) pulls the level set toward its sign.
            if grid.particles_sign[p] * grid.levelset[i] > 0.25 {
                grid.levelset[i] -= 0.1 * grid.particles_sign[p];
            }
        }
        Ok(())
    });

    setup.register_function(RESEED_PARTICLES, "reseed_particles", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        let nx = grid.nx;
        let ny = grid.ny;
        let y_offset = grid.y_offset;
        let mut idx = 0usize;
        for row in 0..ny {
            for col in 0..nx {
                let i = row * nx + col;
                if grid.levelset[i].abs() < 1.5 && idx < grid.particles_x.len() {
                    grid.particles_x[idx] = col as f64 + 0.5;
                    grid.particles_y[idx] = (y_offset + row) as f64 + 0.5;
                    grid.particles_sign[idx] = grid.levelset[i].signum();
                    idx += 1;
                }
            }
        }
        Ok(())
    });

    setup.register_function(EXTRAPOLATE_VELOCITY, "extrapolate_velocity", |ctx| {
        let grid = ctx.write::<GridSlab>(0)?;
        for i in 0..grid.u.len() {
            if grid.levelset[i] >= 0.0 {
                grid.u[i] *= 0.5;
                grid.v[i] *= 0.5;
            }
        }
        Ok(())
    });

    setup.register_function(MEASURE_VOLUME, "measure_volume", |ctx| {
        let grid = ctx.read::<GridSlab>(0)?;
        ctx.write::<VecF64>(0)?.values = vec![grid.water_fraction()];
        Ok(())
    });
}

/// Defines the simulation's datasets (must be the first datasets defined on
/// the context).
pub fn define_datasets(ctx: &mut Session, config: &WaterConfig) -> DriverResult<WaterDatasets> {
    let slabs = config.slabs;
    let groups = crate::reduction::intermediate_partitions(slabs);
    Ok(WaterDatasets {
        grid: ctx.define_dataset("grid", slabs)?,
        cfl_local: ctx.define_dataset("cfl_local", slabs)?,
        cfl_l1: ctx.define_dataset("cfl_l1", groups)?,
        dt_global: ctx.define_dataset("dt_global", 1)?,
        residual_local: ctx.define_dataset("residual_local", slabs)?,
        residual_l1: ctx.define_dataset("residual_l1", groups)?,
        residual_global: ctx.define_dataset("residual_global", 1)?,
        halo_up: ctx.define_dataset("halo_up", slabs)?,
        halo_down: ctx.define_dataset("halo_down", slabs)?,
        volume_local: ctx.define_dataset("volume_local", slabs)?,
        volume_l1: ctx.define_dataset("volume_l1", groups)?,
        volume_global: ctx.define_dataset("volume_global", 1)?,
    })
}

/// Runs the triply nested simulation loop.
pub fn run(ctx: &mut Session, config: &WaterConfig) -> DriverResult<WaterResult> {
    use stages::*;
    let data = define_datasets(ctx, config)?;
    let slabs = config.slabs;
    let mut volume_per_frame = Vec::new();
    let mut substeps = 0usize;
    let mut pressure_iterations = 0usize;

    for _frame in 0..config.frames {
        let mut time_left = config.frame_dt;
        let mut frame_substeps = 0usize;
        // Middle loop: adaptive sub-steps until the frame time is consumed.
        while time_left > 1e-9 && frame_substeps < config.max_substeps_per_frame {
            frame_substeps += 1;
            substeps += 1;

            // Block 1: CFL bound (stages 1-3).
            let cfl = config.cfl;
            ctx.block("water_cfl", |ctx| {
                ctx.submit_stage(
                    StageSpec::new("compute_cfl", COMPUTE_CFL)
                        .read(&data.grid)
                        .write(&data.cfl_local)
                        .params(TaskParams::from_scalar(cfl)),
                )?;
                crate::reduction::submit_two_level_reduce(
                    ctx,
                    "cfl_reduce",
                    REDUCE_MIN,
                    &data.cfl_local,
                    &data.cfl_l1,
                    &data.dt_global,
                    TaskParams::empty(),
                )?;
                Ok(())
            })?;
            let dt_bound = ctx.fetch(&data.dt_global, 0)?;
            let dt = dt_bound.min(time_left).max(1e-4);

            // Block 2: forces, advection, halo exchange, divergence
            // (stages 4-9).
            ctx.block("water_advance", |ctx| {
                ctx.submit_stage(
                    StageSpec::new("add_forces", ADD_FORCES)
                        .write(&data.grid)
                        .params(TaskParams::from_scalar(dt)),
                )?;
                ctx.submit_stage(
                    StageSpec::new("advect_velocity", ADVECT_VELOCITY)
                        .write(&data.grid)
                        .params(TaskParams::from_scalar(dt)),
                )?;
                ctx.submit_stage(
                    StageSpec::new("apply_viscosity", APPLY_VISCOSITY).write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("publish_halo", PUBLISH_HALO)
                        .read(&data.grid)
                        .write(&data.halo_up)
                        .write(&data.halo_down),
                )?;
                // Each slab absorbs its neighbours' published rows; domain
                // boundary slabs reuse their own rows.
                for slab in 0..slabs {
                    let below = if slab == 0 { slab } else { slab - 1 };
                    let above = if slab + 1 == slabs { slab } else { slab + 1 };
                    ctx.submit_stage(
                        StageSpec::new(format!("apply_halo_{slab}"), APPLY_HALO)
                            .read_partition(&data.halo_up, below)
                            .read_partition(&data.halo_down, above)
                            .write_partition(&data.grid, slab)
                            .partitions(1),
                    )?;
                }
                ctx.submit_stage(
                    StageSpec::new("compute_divergence", COMPUTE_DIVERGENCE).write(&data.grid),
                )?;
                Ok(())
            })?;

            // Inner loop: Jacobi pressure projection until the residual
            // converges (stages 10-12).
            for _ in 0..config.max_pressure_iterations {
                pressure_iterations += 1;
                ctx.block("water_pressure", |ctx| {
                    ctx.submit_stage(
                        StageSpec::new("pressure_sweep", PRESSURE_SWEEP).write(&data.grid),
                    )?;
                    ctx.submit_stage(
                        StageSpec::new("compute_residual", COMPUTE_RESIDUAL)
                            .read(&data.grid)
                            .write(&data.residual_local),
                    )?;
                    crate::reduction::submit_two_level_reduce(
                        ctx,
                        "residual_reduce",
                        REDUCE_MAX,
                        &data.residual_local,
                        &data.residual_l1,
                        &data.residual_global,
                        TaskParams::empty(),
                    )?;
                    Ok(())
                })?;
                let residual = ctx.fetch(&data.residual_global, 0)?;
                if residual < config.pressure_tolerance {
                    break;
                }
            }

            // Block 4: pressure application, level set, particles, volume
            // (stages 13-21).
            ctx.block("water_finish", |ctx| {
                ctx.submit_stage(
                    StageSpec::new("apply_pressure", APPLY_PRESSURE).write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("enforce_boundaries", ENFORCE_BOUNDARIES).write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("advect_levelset", ADVECT_LEVELSET)
                        .write(&data.grid)
                        .params(TaskParams::from_scalar(dt)),
                )?;
                ctx.submit_stage(
                    StageSpec::new("reinitialize_levelset", REINITIALIZE_LEVELSET)
                        .write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("advect_particles", ADVECT_PARTICLES)
                        .write(&data.grid)
                        .params(TaskParams::from_scalar(dt)),
                )?;
                ctx.submit_stage(
                    StageSpec::new("correct_levelset", CORRECT_LEVELSET).write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("reseed_particles", RESEED_PARTICLES).write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("extrapolate_velocity", EXTRAPOLATE_VELOCITY).write(&data.grid),
                )?;
                ctx.submit_stage(
                    StageSpec::new("measure_volume", MEASURE_VOLUME)
                        .read(&data.grid)
                        .write(&data.volume_local),
                )?;
                crate::reduction::submit_two_level_reduce(
                    ctx,
                    "volume_reduce",
                    REDUCE_SUM,
                    &data.volume_local,
                    &data.volume_l1,
                    &data.volume_global,
                    TaskParams::empty(),
                )?;
                Ok(())
            })?;

            time_left -= dt;
        }
        let volume = ctx.fetch(&data.volume_global, 0)? / slabs as f64;
        volume_per_frame.push(volume);
    }

    Ok(WaterResult {
        volume_per_frame,
        substeps,
        pressure_iterations,
        frames: config.frames,
    })
}

/// Tasks submitted per full sub-step, assuming `p` pressure iterations.
pub fn tasks_per_substep(config: &WaterConfig, pressure_iterations: usize) -> u64 {
    let slabs = config.slabs as u64;
    let reduce = crate::reduction::reduction_task_count(config.slabs) as u64;
    let cfl = slabs + reduce;
    let advance = 4 * slabs + slabs; // forces, advect, viscosity, publish + per-slab halo
    let divergence = slabs;
    let pressure = pressure_iterations as u64 * (2 * slabs + reduce);
    let finish = 9 * slabs + reduce;
    cfl + advance + divergence + pressure + finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_runtime::{Cluster, ClusterConfig};

    #[test]
    fn slab_initialization_and_helpers() {
        let slab = GridSlab::new(9, 4, 8);
        assert_eq!(slab.u.len(), 36);
        assert!(slab.water_fraction() > 0.2 && slab.water_fraction() < 0.5);
        assert_eq!(slab.max_speed(), 0.0);
        assert_eq!(slab.idx(1, 2), 11);
    }

    #[test]
    fn water_simulation_runs_with_nested_data_dependent_loops() {
        let config = WaterConfig {
            nx: 8,
            rows_per_slab: 4,
            slabs: 2,
            frames: 2,
            max_pressure_iterations: 4,
            max_substeps_per_frame: 3,
            ..Default::default()
        };
        let mut setup = AppSetup::new();
        register(&mut setup, &config);
        let cluster = Cluster::start(ClusterConfig::new(2), setup);
        let report = cluster
            .run_driver(|ctx| run(ctx, &config))
            .expect("simulation completes");
        let result = report.output;
        assert_eq!(result.frames, 2);
        assert!(result.substeps >= 2, "at least one sub-step per frame");
        assert!(result.pressure_iterations >= result.substeps);
        for volume in &result.volume_per_frame {
            assert!(
                *volume > 0.05 && *volume < 0.95,
                "water volume {volume} should stay inside the domain"
            );
        }
        // All four blocks were recorded as templates and re-used.
        assert_eq!(report.controller.controller_templates_installed, 4);
        assert!(report.controller.controller_template_instantiations >= 1);
    }
}
