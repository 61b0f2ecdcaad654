//! Multi-process integration tests: the quickstart job across real OS
//! process boundaries (1 `nimbus-controller` + 2 `nimbus-worker` processes
//! over TCP loopback), plus fault injection by killing a worker process
//! mid-job.

#![expect(
    clippy::disallowed_methods,
    reason = "runtime tests drive real nodes (threads or child processes) in wall-clock time"
)]

use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nimbus_runtime::quickstart::{quickstart_driver, quickstart_setup, PARTITIONS, PARTITION_LEN};
use nimbus_runtime::{Cluster, ClusterConfig};

/// Reserves a free loopback address. The listener is dropped before the
/// process binds it, which is racy in principle but reliable on a loopback
/// interface with OS-assigned ports.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// The shared cluster layout: every process gets the same address map, and
/// every worker the same extra flags (e.g. a shared `--vault-dir`).
struct ClusterMap {
    controller_addr: String,
    driver_addr: String,
    worker_addrs: [String; 2],
    worker_flags: Vec<String>,
}

impl ClusterMap {
    fn new(worker_flags: &[&str]) -> Self {
        Self {
            controller_addr: free_addr(),
            driver_addr: free_addr(),
            worker_addrs: [free_addr(), free_addr()],
            worker_flags: worker_flags.iter().map(|f| f.to_string()).collect(),
        }
    }

    fn map_flags(&self, args: &mut Command) {
        args.arg("--controller")
            .arg(&self.controller_addr)
            .arg("--driver")
            .arg(&self.driver_addr)
            .arg("--worker")
            .arg(format!("0={}", self.worker_addrs[0]))
            .arg("--worker")
            .arg(format!("1={}", self.worker_addrs[1]));
    }

    fn spawn_worker(&self, id: usize, rejoin: bool) -> Child {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nimbus-worker"));
        self.map_flags(&mut cmd);
        cmd.arg("--id").arg(id.to_string());
        for flag in &self.worker_flags {
            cmd.arg(flag);
        }
        if rejoin {
            cmd.arg("--rejoin");
        }
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        cmd.spawn().expect("spawn worker")
    }
}

struct ClusterProcs {
    controller: Child,
    workers: Vec<Child>,
    map: ClusterMap,
}

impl ClusterProcs {
    /// Spawns 2 workers and 1 controller with a shared address map.
    fn spawn(extra_controller_flags: &[&str]) -> Self {
        Self::spawn_with_worker_flags(extra_controller_flags, &[])
    }

    /// Spawns 2 workers (each given `worker_flags`) and 1 controller with a
    /// shared address map.
    fn spawn_with_worker_flags(extra_controller_flags: &[&str], worker_flags: &[&str]) -> Self {
        let map = ClusterMap::new(worker_flags);
        let workers = (0..2).map(|id| map.spawn_worker(id, false)).collect();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nimbus-controller"));
        map.map_flags(&mut cmd);
        for flag in extra_controller_flags {
            cmd.arg(flag);
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let controller = cmd.spawn().expect("spawn controller");
        Self {
            controller,
            workers,
            map,
        }
    }

    /// Restarts worker `id` as a fresh process on its original address, with
    /// `--rejoin`.
    fn respawn_worker(&mut self, id: usize) {
        let child = self.map.spawn_worker(id, true);
        self.workers[id] = child;
    }

    /// Waits for the controller to exit, killing everything on timeout.
    fn wait_controller(&mut self, timeout: Duration) -> (i32, String, String) {
        let deadline = Instant::now() + timeout;
        let status = loop {
            match self.controller.try_wait().expect("poll controller") {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    self.kill_all();
                    panic!("controller did not exit within {timeout:?} (job hung)");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let mut stdout = String::new();
        let mut stderr = String::new();
        if let Some(out) = self.controller.stdout.as_mut() {
            out.read_to_string(&mut stdout).ok();
        }
        if let Some(err) = self.controller.stderr.as_mut() {
            err.read_to_string(&mut stderr).ok();
        }
        (status.code().unwrap_or(-1), stdout, stderr)
    }

    /// Waits for every worker process to exit (they must not linger).
    fn wait_workers(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        for (i, worker) in self.workers.iter_mut().enumerate() {
            loop {
                match worker.try_wait().expect("poll worker") {
                    Some(_) => break,
                    None if Instant::now() >= deadline => {
                        worker.kill().ok();
                        panic!("worker {i} did not exit after the job ended");
                    }
                    None => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
    }

    fn kill_all(&mut self) {
        self.controller.kill().ok();
        for w in &mut self.workers {
            w.kill().ok();
        }
    }
}

impl Drop for ClusterProcs {
    fn drop(&mut self) {
        self.kill_all();
    }
}

fn iteration_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with("iteration "))
        .map(|l| l.to_string())
        .collect()
}

/// Acceptance: the quickstart job produces identical per-iteration output
/// in-process and across separate OS processes.
#[test]
fn quickstart_across_processes_matches_in_process_run() {
    // Reference run: the same driver program on an in-process cluster.
    let report = Cluster::start(ClusterConfig::new(2), quickstart_setup())
        .run_driver(|ctx| quickstart_driver(ctx, 10))
        .expect("in-process run completes");
    let reference: Vec<String> = report
        .output
        .iter()
        .enumerate()
        .map(|(i, total)| format!("iteration {i}: total = {total}"))
        .collect();
    let expected: Vec<f64> = (1..=10)
        .map(|i| (i * PARTITIONS as usize * PARTITION_LEN) as f64)
        .collect();
    assert_eq!(report.output, expected);

    // Multi-process run: 1 controller process + 2 worker processes.
    let mut procs = ClusterProcs::spawn(&["--iterations", "10"]);
    let (code, stdout, stderr) = procs.wait_controller(Duration::from_secs(120));
    assert_eq!(
        code, 0,
        "controller failed.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert_eq!(
        iteration_lines(&stdout),
        reference,
        "multi-process output diverges from in-process output"
    );
    assert!(
        stdout.contains("job complete"),
        "missing completion marker:\n{stdout}"
    );
    procs.wait_workers(Duration::from_secs(30));
}

/// Fault injection with checkpoints: killing a worker process mid-job — with
/// the driver almost certainly blocked inside a fetch — must run the
/// checkpoint recovery path, answer the interrupted fetch against recovered
/// state, and let the job run to completion.
#[test]
fn killed_worker_process_recovers_from_checkpoint_and_completes() {
    let mut procs = ClusterProcs::spawn(&[
        "--iterations",
        "120",
        "--iter-sleep-ms",
        "30",
        "--checkpoint-every",
        "3",
        "--reply-timeout-secs",
        "30",
    ]);
    std::thread::sleep(Duration::from_secs(1));
    procs.workers[0].kill().expect("kill worker 0");

    let (code, stdout, stderr) = procs.wait_controller(Duration::from_secs(120));
    assert_eq!(
        code, 0,
        "job should recover and complete.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // Every iteration completed: the one interrupted by the failure was
    // resumed after recovery, not dropped. (Values after the failure may
    // diverge — the dead worker's vault died with its process — but the
    // control plane must drive the job to the end.)
    assert_eq!(iteration_lines(&stdout).len(), 120, "stdout:\n{stdout}");
    assert!(stdout.contains("job complete"), "stdout:\n{stdout}");
    procs.wait_workers(Duration::from_secs(30));
}

/// Acceptance, real OS processes: a worker process killed mid-job is
/// restarted with `--rejoin` and the job completes with output
/// *byte-identical* to an undisturbed run, with zero template re-recordings.
/// Requires a shared file-backed vault (`--vault-dir`) so the checkpoint
/// entries the dead worker saved survive it, and a controller rejoin grace
/// window so recovery waits for the restart instead of evicting the worker.
#[test]
fn killed_worker_process_rejoins_and_output_is_byte_identical() {
    let iterations = 60u32;
    let vault_dir = std::env::temp_dir().join(format!(
        "nimbus-churn-vault-{}-{}",
        std::process::id(),
        free_addr().replace(':', "-")
    ));
    let vault_flag = vault_dir.to_string_lossy().to_string();
    let mut procs = ClusterProcs::spawn_with_worker_flags(
        &[
            "--iterations",
            "60",
            "--iter-sleep-ms",
            "30",
            "--checkpoint-every",
            "3",
            "--reply-timeout-secs",
            "60",
            "--rejoin-grace-secs",
            "30",
        ],
        &["--vault-dir", &vault_flag],
    );
    // Kill worker 0 mid-job — the driver is likely blocked inside a fetch —
    // then restart it under the same identity after a short outage.
    std::thread::sleep(Duration::from_secs(1));
    procs.workers[0].kill().expect("kill worker 0");
    procs.workers[0].wait().expect("reap worker 0");
    std::thread::sleep(Duration::from_millis(500));
    procs.respawn_worker(0);

    let (code, stdout, stderr) = procs.wait_controller(Duration::from_secs(120));
    assert_eq!(
        code, 0,
        "job should rejoin and complete.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // Byte-identical output: every iteration's total matches the closed form
    // of an undisturbed run.
    let expected: Vec<String> = (0..iterations)
        .map(|i| {
            let total = ((i + 1) as usize * PARTITIONS as usize * PARTITION_LEN) as f64;
            format!("iteration {i}: total = {total}")
        })
        .collect();
    assert_eq!(
        iteration_lines(&stdout),
        expected,
        "rejoined run diverges from the undisturbed run:\n{stdout}"
    );
    // Zero template re-recordings: the single pre-failure recording served
    // the whole job (the completion line reports installed template count).
    assert!(
        stdout.contains("templates installed = 1,"),
        "expected exactly one template recording:\n{stdout}"
    );
    procs.wait_workers(Duration::from_secs(30));
    std::fs::remove_dir_all(&vault_dir).ok();
}

/// Fault injection, total loss: killing *every* worker process — the second
/// one mid-recovery — must still surface a clean driver error, not wedge the
/// recovery waiting for a halt acknowledgement that can never arrive.
#[test]
fn killing_every_worker_process_surfaces_clean_error_not_a_wedge() {
    let mut procs = ClusterProcs::spawn(&[
        "--iterations",
        "10000",
        "--iter-sleep-ms",
        "10",
        "--checkpoint-every",
        "3",
        "--reply-timeout-secs",
        "20",
    ]);
    std::thread::sleep(Duration::from_secs(2));
    procs.workers[0].kill().expect("kill worker 0");
    procs.workers[1].kill().expect("kill worker 1");

    let (code, stdout, stderr) = procs.wait_controller(Duration::from_secs(120));
    assert_ne!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stderr.contains("driver error"),
        "expected a clean driver error:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

/// Fault injection: killing a worker process mid-job must surface a clean
/// `driver error` (no checkpoint was taken) — never a hang — and the
/// surviving worker must exit afterwards.
#[test]
fn killed_worker_process_surfaces_clean_driver_error() {
    let mut procs = ClusterProcs::spawn(&[
        "--iterations",
        "10000",
        "--iter-sleep-ms",
        "10",
        "--reply-timeout-secs",
        "20",
    ]);
    // Let the job get going, then kill worker 0 abruptly mid-job.
    std::thread::sleep(Duration::from_secs(2));
    procs.workers[0].kill().expect("kill worker 0");

    let (code, stdout, stderr) = procs.wait_controller(Duration::from_secs(120));
    assert_ne!(
        code, 0,
        "without a checkpoint the driver must fail.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("driver error"),
        "expected a clean driver error, got:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The job made progress before the failure...
    assert!(
        !iteration_lines(&stdout).is_empty(),
        "worker was killed before the job started:\n{stdout}"
    );
    // ...and no process lingers: the controller shut the survivor down (or
    // the survivor noticed the controller leaving).
    procs.wait_workers(Duration::from_secs(30));
}
