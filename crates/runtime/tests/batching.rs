//! The corked control plane is invisible above the wire.
//!
//! Corked/batched sends are a transport optimization: the same job must
//! produce its closed-form output and the same per-worker command stream
//! (observable through identical dispatch/execution counts) on the
//! in-process fabric and on TCP loopback. These tests pin that, plus the
//! batching counters that prove coalescing actually happens. Per-message
//! framing itself is pinned at the endpoint level (`send` vs `send_many` in
//! `nimbus-net`'s TCP tests).

use nimbus_core::appdata::VecF64;
use nimbus_core::ids::FunctionId;
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::quickstart::{quickstart_driver, quickstart_setup, PARTITIONS, PARTITION_LEN};
use nimbus_runtime::{AppSetup, Cluster, ClusterConfig, ClusterReport};

const ADD: FunctionId = FunctionId(1);
const FLOOD_PARTITIONS: u32 = 8;

/// Runs the quickstart job and returns its report.
fn run_quickstart(config: ClusterConfig, iterations: u32) -> ClusterReport<Vec<f64>> {
    let cluster = Cluster::start(config, quickstart_setup());
    cluster
        .run_driver(|ctx| quickstart_driver(ctx, iterations))
        .expect("job completes")
}

/// A setup with a single add stage — the steady-state instantiation flood
/// shape: the driver pipelines instantiations without synchronizing, which
/// is what gives the controller's cork consecutive messages to coalesce.
fn flood_setup() -> AppSetup {
    AppSetup::new()
        .function(ADD, "add", |ctx| {
            let delta = ctx.params().as_scalar().map_err(|e| e.to_string())?;
            for x in ctx.write::<VecF64>(0)?.values.iter_mut() {
                *x += delta;
            }
            Ok(())
        })
        .object(nimbus_core::LogicalObjectId(1), |_| VecF64::zeros(4))
}

fn flood_driver(ctx: &mut Session, iterations: u32) -> DriverResult<f64> {
    let data: Dataset<VecF64> = ctx.define_dataset("data", FLOOD_PARTITIONS)?;
    for _ in 0..iterations {
        ctx.block("flood", |ctx| {
            ctx.submit_stage(
                StageSpec::new("add", ADD)
                    .write(&data)
                    .params(TaskParams::from_scalar(1.0)),
            )?;
            Ok(())
        })?;
    }
    ctx.barrier()?;
    // Every partition was incremented once per iteration; the scalar
    // projection of a VecF64 is its first element.
    ctx.fetch_scalar(&data, 0)
}

fn run_flood(config: ClusterConfig, iterations: u32) -> ClusterReport<f64> {
    let cluster = Cluster::start(config, flood_setup());
    cluster
        .run_driver(|ctx| flood_driver(ctx, iterations))
        .expect("flood job completes")
}

/// The core property, swept over a few job sizes: the job produces its
/// closed-form result on both transports, with identical dispatch and
/// execution counts — batching must not reorder, drop, or duplicate anything
/// in a worker's command stream.
#[test]
fn batched_dispatch_is_identical_on_both_transports() {
    for iterations in [3u32, 6] {
        let expected: Vec<f64> = (1..=iterations as usize)
            .map(|i| (i * PARTITIONS as usize * PARTITION_LEN) as f64)
            .collect();
        let reference = run_quickstart(ClusterConfig::new(2), iterations);
        assert_eq!(reference.output, expected, "closed form (in-process)");
        let reference_tasks: u64 = reference.workers.iter().map(|w| w.tasks_executed).sum();
        let tcp = run_quickstart(ClusterConfig::new(2).with_tcp_transport(), iterations);
        assert_eq!(tcp.output, expected, "closed form (TCP)");
        assert_eq!(
            tcp.controller.commands_dispatched, reference.controller.commands_dispatched,
            "TCP dispatched a different command stream"
        );
        let tasks: u64 = tcp.workers.iter().map(|w| w.tasks_executed).sum();
        assert_eq!(tasks, reference_tasks, "TCP executed differently");
    }
}

/// A pipelined instantiation flood on TCP actually coalesces — a nonzero
/// coalesced-frame count and fewer `write(2)`s than messages — without
/// changing the result.
#[test]
fn tcp_flood_coalesces_frames_without_changing_results() {
    const ITERATIONS: u32 = 40;
    let report = run_flood(ClusterConfig::new(2).with_tcp_transport(), ITERATIONS);
    // Every partition was incremented once per block call.
    assert_eq!(report.output, ITERATIONS as f64);
    // The run corked at least some of the flood, and every coalesced frame
    // is a write(2) saved.
    assert!(
        report.network.frames_coalesced > 0,
        "flood produced no coalesced frames: {:?}",
        report.network
    );
    assert!(
        report.network.tcp_writes < report.network.messages,
        "as many writes as messages ({} vs {})",
        report.network.tcp_writes,
        report.network.messages
    );
}

/// Writes never exceed messages, on a run too short to guarantee
/// coalescing. Sanity for the counter the syscall-per-flush guarantee is
/// asserted with at the endpoint level.
#[test]
fn tcp_write_counter_is_bounded_by_messages() {
    let report = run_flood(ClusterConfig::new(2).with_tcp_transport(), 10);
    assert!(report.network.tcp_writes > 0);
    assert!(
        report.network.tcp_writes <= report.network.messages,
        "writes {} exceed messages {}",
        report.network.tcp_writes,
        report.network.messages
    );
}
