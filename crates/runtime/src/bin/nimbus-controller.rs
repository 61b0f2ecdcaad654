//! The multi-process controller binary: runs the Nimbus controller *and*
//! the quickstart driver program of this cluster, connected to worker
//! processes over TCP.
//!
//! ```text
//! nimbus-controller --controller ADDR --driver ADDR --worker ID=ADDR... \
//!     [--iterations N] [--checkpoint-every N] [--iter-sleep-ms N] \
//!     [--reply-timeout-secs N] [--rejoin-grace-secs N]
//! ```
//!
//! Start the `nimbus-worker` processes with the same address map (order does
//! not matter; dials retry briefly). The driver prints one
//! `iteration {i}: total = {v}` line per iteration — identical to what the
//! in-process quickstart job produces — then `job complete` on success. A
//! worker failure without a checkpoint surfaces as `driver error: ...` and
//! exit code 1 instead of a hang.

#![expect(
    clippy::disallowed_methods,
    reason = "OS-process entry points run under the real clock"
)]

use std::time::Duration;

use nimbus_controller::{Controller, ControllerConfig};
use nimbus_driver::Session;
use nimbus_net::{NodeId, TcpFabric};
use nimbus_runtime::multiproc::parse_command_line;
use nimbus_runtime::quickstart::quickstart_driver_with;

fn main() {
    let cl = match parse_command_line(std::env::args().skip(1)) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("nimbus-controller: {e}");
            std::process::exit(2);
        }
    };
    let mut iterations: u32 = 10;
    let mut checkpoint_every: Option<u64> = None;
    let mut iter_sleep = Duration::ZERO;
    let mut reply_timeout = Duration::from_secs(30);
    let mut rejoin_grace: Option<Duration> = None;
    for (flag, value) in &cl.rest {
        let ok = match flag.as_str() {
            "iterations" => value.parse::<u32>().map(|n| iterations = n).is_ok(),
            "checkpoint-every" => value.parse().map(|n| checkpoint_every = Some(n)).is_ok(),
            "iter-sleep-ms" => value
                .parse()
                .map(|n| iter_sleep = Duration::from_millis(n))
                .is_ok(),
            "reply-timeout-secs" => value
                .parse()
                .map(|n| reply_timeout = Duration::from_secs(n))
                .is_ok(),
            "rejoin-grace-secs" => value
                .parse()
                .map(|n| rejoin_grace = Some(Duration::from_secs(n)))
                .is_ok(),
            _ => false,
        };
        if !ok {
            eprintln!("nimbus-controller: invalid flag --{flag} {value}");
            std::process::exit(2);
        }
    }
    if !cl.addrs.contains_key(&NodeId::Driver) {
        eprintln!("nimbus-controller: missing --driver ADDR (the driver runs in this process)");
        std::process::exit(2);
    }

    let fabric = TcpFabric::from_addrs(cl.addrs);
    let controller_endpoint = match fabric.endpoint(NodeId::Controller) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("nimbus-controller: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let mut config = ControllerConfig::new(cl.worker_ids.clone());
    config.checkpoint_every = checkpoint_every;
    config.rejoin_grace = rejoin_grace;
    let controller = Controller::new(config, controller_endpoint);
    let controller_thread = std::thread::Builder::new()
        .name("nimbus-controller".to_string())
        .spawn(move || controller.run())
        .expect("spawn controller thread");

    let driver_endpoint = match fabric.endpoint(NodeId::Driver) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("nimbus-controller: driver bind failed: {e}");
            std::process::exit(1);
        }
    };
    let mut ctx = Session::new(driver_endpoint);
    ctx.set_reply_timeout(reply_timeout);

    let result = quickstart_driver_with(&mut ctx, iterations, |i, total| {
        println!("iteration {i}: total = {total}");
        if !iter_sleep.is_zero() {
            std::thread::sleep(iter_sleep);
        }
    });
    // Orderly shutdown either way, so worker processes exit too.
    let shutdown = ctx.shutdown();
    let stats = controller_thread.join();

    match (result, shutdown) {
        (Ok(_), Ok(())) => match stats {
            Ok(stats) => println!(
                "job complete: templates installed = {}, instantiations = {}",
                stats.controller_templates_installed, stats.controller_template_instantiations
            ),
            Err(_) => println!("job complete"),
        },
        (Err(e), _) => {
            eprintln!("driver error: {e}");
            std::process::exit(1);
        }
        (_, Err(e)) => {
            eprintln!("driver error during shutdown: {e}");
            std::process::exit(1);
        }
    }
}
