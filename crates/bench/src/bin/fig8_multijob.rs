//! Figure 8, multi-tenant: aggregate instantiation throughput of ONE
//! controller serving N concurrent driver sessions.
//!
//! This is the regime the paper's control-plane caching is for: each driver
//! runs a synchronous convergence loop (instantiate a recorded block, fetch
//! the result), so a single session is bound by its own round-trip stalls —
//! the controller sits idle between its requests. With N sessions the
//! controller fills every stall with another job's (fully isolated)
//! instantiation stream, and aggregate tasks/s scales with job count until
//! the pool is worker- or CPU-bound.
//!
//! The cluster runs in-process with a fixed per-message latency emulating a
//! datacenter network hop, for 1 and [`JOBS`] concurrent sessions. Results
//! go to `BENCH_fig8_multijob.json`; the run asserts the acceptance floor —
//! aggregate throughput for 4 jobs at least 2x a single job.
//!
//! `--smoke` runs a small iteration count (the CI mode, so the binary
//! cannot rot).

#![expect(
    clippy::disallowed_methods,
    reason = "benchmarks measure real elapsed time by definition"
)]

use std::time::Instant;

use nimbus_bench::{print_table, BenchJson, TableRow};
use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::quickstart::{quickstart_setup, ADD, PARTITIONS, SUM};
use nimbus_runtime::{Cluster, ClusterConfig};

const WORKERS: usize = 2;
const JOBS: usize = 4;
/// Emulated one-way network latency: what makes a synchronous driver's
/// round-trip stalls real (and overlappable) on the in-process fabric.
const LATENCY_MICROS: u64 = 200;
const SMOKE_ITERATIONS: u32 = 40;
const FULL_ITERATIONS: u32 = 400;

/// One driver session's loop: record the block once, then `iterations`
/// iterations of instantiate + synchronous fetch (the paper's
/// data-dependent steady state). Returns its completed instantiations.
fn driver_loop(session: &mut Session, iterations: u32) -> DriverResult<u64> {
    let data: Dataset<VecF64> = session.define_dataset("data", PARTITIONS)?;
    let total: Dataset<Scalar> = session.define_dataset("total", 1)?;
    let body = |ctx: &mut Session| {
        ctx.block("steady", |ctx| {
            ctx.submit_stage(
                StageSpec::new("add", ADD)
                    .write(&data)
                    .params(TaskParams::from_scalar(1.0)),
            )?;
            let mut sum = StageSpec::new("sum", SUM).partitions(1);
            for p in 0..data.partitions {
                sum = sum.read_partition(&data, p);
            }
            ctx.submit_stage(sum.write_partition(&total, 0))?;
            Ok(())
        })
    };
    body(session)?; // Recording pass.
    session.barrier()?;
    for _ in 0..iterations {
        body(session)?;
        session.fetch(&total, 0)?;
    }
    Ok(session.instantiations_sent)
}

struct Run {
    label: String,
    jobs: usize,
    instantiations_per_sec: f64,
    tasks_per_sec: f64,
    seconds: f64,
}

/// Runs `jobs` concurrent sessions against one cluster and measures the
/// aggregate completed-instantiation rate.
fn run(label: &str, jobs: usize, iterations: u32) -> Run {
    let config =
        ClusterConfig::new(WORKERS).with_latency(std::time::Duration::from_micros(LATENCY_MICROS));
    let mut cluster = Cluster::start(config, quickstart_setup());
    let mut sessions = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        sessions.push(cluster.connect_driver().expect("open session"));
    }
    let start = Instant::now();
    let handles: Vec<_> = sessions
        .into_iter()
        .map(|mut session| {
            std::thread::spawn(move || {
                let sent = driver_loop(&mut session, iterations).expect("driver loop");
                session.close().expect("close session");
                sent
            })
        })
        .collect();
    let total_instantiations: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("driver thread"))
        .sum();
    let seconds = start.elapsed().as_secs_f64();
    cluster.shutdown_and_join().expect("shutdown");
    let instantiations_per_sec = total_instantiations as f64 / seconds;
    Run {
        label: label.to_string(),
        jobs,
        instantiations_per_sec,
        // Each instantiation expands to PARTITIONS add tasks + 1 reduction.
        tasks_per_sec: instantiations_per_sec * (PARTITIONS + 1) as f64,
        seconds,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iterations = if smoke {
        SMOKE_ITERATIONS
    } else {
        FULL_ITERATIONS
    };

    let runs = [
        run("1 job", 1, iterations),
        run(&format!("{JOBS} jobs"), JOBS, iterations),
    ];
    let [single, multi] = &runs;
    let scaling = multi.instantiations_per_sec / single.instantiations_per_sec;

    let mut rows: Vec<TableRow> = runs
        .iter()
        .map(|r| {
            TableRow::new(
                format!("{} inst/s (tasks/s)", r.label),
                "-",
                format!("{:.0} ({:.0})", r.instantiations_per_sec, r.tasks_per_sec),
            )
        })
        .collect();
    rows.push(TableRow::new(
        format!("{JOBS}-job/1-job scaling"),
        ">=2x",
        format!("{scaling:.2}x"),
    ));
    print_table(
        &format!(
            "Figure 8 (multi-tenant): {iterations} instantiations/driver on {WORKERS} workers, \
             {LATENCY_MICROS}us one-way latency"
        ),
        &rows,
    );

    let mut json = BenchJson::new("fig8_multijob")
        .metric("iterations_per_driver", iterations as u64)
        .metric("jobs", JOBS as u64)
        .metric("workers", WORKERS as u64)
        .metric("latency_micros", LATENCY_MICROS)
        .metric("smoke", if smoke { 1.0 } else { 0.0 });
    for r in &runs {
        let key = r.label.replace(' ', "_");
        json.push(format!("{key}_jobs"), r.jobs as u64);
        json.push(
            format!("{key}_instantiations_per_sec"),
            r.instantiations_per_sec,
        );
        json.push(format!("{key}_tasks_per_sec"), r.tasks_per_sec);
        json.push(format!("{key}_seconds"), r.seconds);
    }
    json.push("multi_over_single", scaling);
    let path = json.write_or_die();
    assert!(path.exists(), "JSON report missing after write");

    // Sanity floor on every configuration.
    for r in &runs {
        assert!(
            r.instantiations_per_sec > 50.0,
            "{} collapsed to {:.0} inst/s",
            r.label,
            r.instantiations_per_sec
        );
    }
    // The acceptance criterion: one controller serves 4 jobs at >= 2x the
    // aggregate rate of a single round-trip-bound job. The multi-tenant
    // control plane fills one session's stalls with the others' work.
    assert!(
        scaling >= 2.0,
        "{JOBS} jobs only scaled aggregate throughput {scaling:.2}x over one job"
    );
}
