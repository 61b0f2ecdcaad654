//! The seeded exploration sweep: for every scenario, generate fault plans
//! from a range of seeds, run each under full schedule chaos, and hold the
//! cluster to its contract — exact closed-form totals for every surviving
//! job, and bit-identical traces on replay.
//!
//! `NIMBUS_DST_SWEEP` sets the seeds-per-scenario budget (default 60, so a
//! plain `cargo test` stays quick; CI sets it to at least 334 for a
//! 1,000+ seed sweep). A failing seed is shrunk before reporting, and both
//! the original and minimized traces are written under
//! `target/dst-failures/` — the artifact CI uploads. Each scenario prints
//! one line — simulated runs (replays included), their total decisions, and
//! wall time per seed — so the sweep's cost is on record in every log run
//! with `--nocapture`.

use std::fs;
use std::path::PathBuf;

use nimbus_core::Clock;
use nimbus_dst::{run_plan, shrink, Scenario};

/// Seeds per scenario: `NIMBUS_DST_SWEEP` or the local default.
fn seeds_per_scenario() -> u64 {
    std::env::var("NIMBUS_DST_SWEEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Replays of passing seeds pinning trace determinism (every Nth seed).
const REPLAY_EVERY: u64 = 5;

/// Budget of simulated runs the shrinker may spend on one failing seed.
const SHRINK_BUDGET: usize = 300;

fn failure_dir() -> PathBuf {
    // target/ relative to the workspace root, regardless of test cwd.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/dst-failures");
    let _ = fs::create_dir_all(&dir);
    dir
}

#[test]
fn seeded_sweep_holds_the_output_contract() {
    let per_scenario = seeds_per_scenario();
    let mut failures: Vec<String> = Vec::new();
    for scenario in Scenario::all() {
        let start = Clock::Real.now();
        let (mut runs, mut decisions) = (0u64, 0u64);
        for seed in 0..per_scenario {
            let plan = scenario.generate_plan(seed);
            let report = run_plan(&scenario, &plan);
            runs += 1;
            decisions += report.trace.decisions;
            if let Err(why) = scenario.validate(&plan, &report) {
                let dir = failure_dir();
                let _ = fs::write(
                    dir.join(format!("{}-seed{seed}.trace", scenario.name)),
                    report.trace.render(),
                );
                let mut note = format!(
                    "{} seed {seed}: {why}\n  plan: {}",
                    scenario.name,
                    plan.describe()
                );
                if let Some(min) = shrink(&scenario, &plan, SHRINK_BUDGET) {
                    let _ = fs::write(
                        dir.join(format!("{}-seed{seed}-min.trace", scenario.name)),
                        min.trace.render(),
                    );
                    note.push_str(&format!(
                        "\n  shrunk ({} runs): {} -> {}",
                        min.runs,
                        min.plan.describe(),
                        min.failure
                    ));
                }
                failures.push(note);
                continue;
            }
            if seed % REPLAY_EVERY == 0 {
                let again = run_plan(&scenario, &plan);
                runs += 1;
                decisions += again.trace.decisions;
                if report.trace.fingerprint() != again.trace.fingerprint() {
                    failures.push(format!(
                        "{} seed {seed}: replay diverged\n  plan: {}",
                        scenario.name,
                        plan.describe()
                    ));
                }
            }
        }
        let per_seed =
            Clock::Real.now().saturating_duration_since(start) / per_scenario.max(1) as u32;
        println!(
            "dst sweep {}: {runs} runs, {decisions} decisions, {per_seed:?} per seed",
            scenario.name
        );
    }
    assert!(
        failures.is_empty(),
        "{} sweep failure(s); traces under target/dst-failures/:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
