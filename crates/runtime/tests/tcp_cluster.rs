//! Transport integration tests: the same job must behave identically on the
//! in-process fabric and on TCP loopback sockets, recovery must work across
//! the wire, and cluster teardown must not leak threads.

use std::time::Duration;

use nimbus_core::appdata::{Scalar, VecF64};
use nimbus_core::TaskParams;
use nimbus_driver::{Dataset, DriverResult, Session, StageSpec};
use nimbus_runtime::quickstart::{
    quickstart_driver, quickstart_setup, ADD, PARTITIONS, PARTITION_LEN, SUM,
};
use nimbus_runtime::{Cluster, ClusterConfig};

/// Acceptance: the quickstart example produces identical output on the
/// in-process transport and on TCP.
#[test]
fn quickstart_output_is_identical_on_both_transports() {
    let run = |config: ClusterConfig| {
        Cluster::start(config, quickstart_setup())
            .run_driver(|ctx| quickstart_driver(ctx, 6))
            .expect("job completes")
    };
    let in_process = run(ClusterConfig::new(3));
    let tcp = run(ClusterConfig::new(3).with_tcp_transport());

    assert_eq!(
        in_process.output, tcp.output,
        "totals diverge across transports"
    );
    let expected: Vec<f64> = (1..=6)
        .map(|i| (i * PARTITIONS as usize * PARTITION_LEN) as f64)
        .collect();
    assert_eq!(tcp.output, expected);

    // Templates work identically across the wire.
    assert_eq!(
        in_process.controller.controller_templates_installed,
        tcp.controller.controller_templates_installed
    );
    assert_eq!(
        in_process.controller.controller_template_instantiations,
        tcp.controller.controller_template_instantiations
    );
    // Both fabrics account traffic; the TCP fabric must have seen at least
    // every control message the in-process one did (it adds nothing extra
    // besides transport events, which are local and unsent).
    assert!(tcp.network.messages > 0);
    assert!(tcp.network.control_bytes > 0);
}

/// Recovery via the checkpoint path works when every message crosses a real
/// socket: fail a worker mid-job and verify the job still finishes with the
/// right answer.
#[test]
fn tcp_cluster_recovers_a_failed_worker_from_checkpoint() {
    let cluster = Cluster::start(
        ClusterConfig::new(3).with_tcp_transport(),
        quickstart_setup(),
    );
    let report = cluster
        .run_driver(|ctx| {
            let data: Dataset<VecF64> = ctx.define_dataset("data", PARTITIONS)?;
            let add = |ctx: &mut Session| -> DriverResult<()> {
                ctx.submit_stage(
                    StageSpec::new("add", ADD)
                        .write(&data)
                        .params(TaskParams::from_scalar(1.0)),
                )
            };
            add(ctx)?;
            ctx.checkpoint(1)?;
            add(ctx)?;
            ctx.barrier()?;
            // Abrupt failure: the controller halts survivors and restores
            // the checkpoint (progress marker 1, one add applied).
            let marker = ctx.fail_worker(nimbus_core::ids::WorkerId(0))?;
            assert_eq!(marker, 1);
            add(ctx)?;
            ctx.barrier()?;
            // After recovery + one more add every element is 2.0.
            let total: Dataset<Scalar> = ctx.define_dataset("total", 1)?;
            let mut sum = StageSpec::new("sum", SUM).partitions(1);
            for p in 0..data.partitions {
                sum = sum.read_partition(&data, p);
            }
            ctx.submit_stage(sum.write_partition(&total, 0))?;
            ctx.fetch(&total, 0)
        })
        .expect("job completes after recovery");
    assert_eq!(
        report.output,
        2.0 * (PARTITIONS as usize * PARTITION_LEN) as f64
    );
    assert_eq!(report.controller.failures_handled, 1);
    assert_eq!(report.controller.checkpoints_committed, 1);
}

/// Satellite: a cluster with latency enabled shuts down cleanly and promptly
/// — the delayer thread is joined, not leaked.
#[test]
fn latency_cluster_shuts_down_cleanly() {
    let cluster = Cluster::start(
        ClusterConfig::new(2).with_latency(Duration::from_millis(2)),
        quickstart_setup(),
    );
    let report = cluster
        .run_driver(|ctx| quickstart_driver(ctx, 2))
        .expect("job completes");
    assert_eq!(report.output.len(), 2);

    // `run_driver` consumed and dropped the cluster (and its network); the
    // delayer must already be gone.
    if cfg!(target_os = "linux") {
        let leaked = nimbus_net::diagnostics::wait_for_no_thread_with_prefix(
            "nimbus-net-dela",
            Duration::from_secs(5),
        );
        assert!(
            leaked.is_none(),
            "delayer thread leaked after cluster shutdown: {leaked:?}"
        );
    }
}

/// TCP clusters also tear down without leaking transport threads.
#[test]
fn tcp_cluster_shuts_down_without_leaking_threads() {
    let cluster = Cluster::start(
        ClusterConfig::new(2).with_tcp_transport(),
        quickstart_setup(),
    );
    let report = cluster
        .run_driver(|ctx| quickstart_driver(ctx, 2))
        .expect("job completes");
    assert_eq!(report.output.len(), 2);
    if cfg!(target_os = "linux") {
        // A TCP node's only thread is its owner, so no transport thread
        // may outlive the cluster.
        let leaked = nimbus_net::diagnostics::wait_for_no_thread_with_prefix(
            "nimbus-tcp",
            Duration::from_secs(10),
        );
        assert!(
            leaked.is_none(),
            "transport threads leaked after cluster shutdown: {leaked:?}"
        );
    }
}
