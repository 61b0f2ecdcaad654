//! Thread-free tests of the controller itself: the real [`Controller`] and
//! its `Job`s, driven one envelope at a time over a scripted endpoint, with
//! assertions on the messages they put on the fabric. Each test covers one
//! slot of the job machine — the wait FIFO, the recovery beside it, the
//! parked registrations, the replay window, the two ways to ask for a lost
//! worker — and fails if that slot is dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nimbus_core::data::DatasetDef;
use nimbus_core::ids::{
    CommandId, FunctionId, JobId, LogicalObjectId, LogicalPartition, PartitionIndex,
    PhysicalObjectId, StageId, TaskId, WorkerId,
};
use nimbus_core::task::TaskSpec;
use nimbus_core::template::InstantiationParams;
use nimbus_core::{Clock, CommandKind, VirtualClock};
use nimbus_net::{
    ControllerToDriver, ControllerToWorker, DriverMessage, Envelope, Message, NetError, NetResult,
    NodeId, TransportEndpoint, TransportEvent, WorkerToController,
};

use crate::{Controller, ControllerConfig};

const DATA: LogicalObjectId = LogicalObjectId(1);
const PARTITIONS: u32 = 6;
const BLOCK: &str = "block";

type Sent = Vec<(NodeId, Message)>;

/// The scripted endpoint: a record of every message the controller sent.
/// Each test hands its envelopes straight to [`Controller::turn`], so a
/// blocking receive is a broken contract: a turn never blocks. (A channel
/// rather than a `Vec` only because an endpoint must be `Send`; no thread is
/// ever spawned.)
struct Script {
    sent: mpsc::Sender<(NodeId, Message)>,
    /// Bit `w` set: sends to worker `w` fail, as a dropped connection's would.
    dead: Arc<AtomicU64>,
}

impl TransportEndpoint for Script {
    fn node(&self) -> NodeId {
        NodeId::Controller
    }

    fn send(&self, to: NodeId, message: Message) -> NetResult<()> {
        let dead = self.dead.load(Ordering::Relaxed);
        match to {
            NodeId::Worker(w) if dead & (1 << w.raw()) != 0 => {
                Err(NetError::Disconnected(to.to_string()))
            }
            _ => self
                .sent
                .send((to, message))
                .map_err(|_| NetError::Disconnected("test ended".into())),
        }
    }

    fn recv(&self) -> NetResult<Envelope> {
        panic!("a turn never blocks")
    }

    fn recv_timeout(&self, _: Duration) -> NetResult<Envelope> {
        panic!("a turn never blocks")
    }

    fn try_recv(&self) -> NetResult<Envelope> {
        Err(NetError::Empty)
    }
}

fn lp(partition: u32) -> LogicalPartition {
    LogicalPartition::new(DATA, PartitionIndex(partition))
}

fn replies(sent: &Sent) -> Vec<ControllerToDriver> {
    sent.iter()
        .filter_map(|(_, m)| match m {
            Message::ToDriver(reply) => Some(reply.clone()),
            _ => None,
        })
        .collect()
}

fn to_worker(sent: &Sent, worker: u32) -> Vec<ControllerToWorker> {
    sent.iter()
        .filter_map(|(to, m)| match m {
            Message::ToWorker(msg) if *to == NodeId::Worker(WorkerId(worker)) => Some(msg.clone()),
            _ => None,
        })
        .collect()
}

/// Workers that were sent a command of the given kind, in send order.
fn commanded(sent: &Sent, kind: fn(&CommandKind) -> bool) -> Vec<NodeId> {
    sent.iter()
        .filter_map(|(to, m)| match m {
            Message::ToWorker(ControllerToWorker::ExecuteCommands { commands, .. })
                if commands.iter().any(|c| kind(&c.kind)) =>
            {
                Some(*to)
            }
            _ => None,
        })
        .collect()
}

fn is_save(kind: &CommandKind) -> bool {
    matches!(kind, CommandKind::SaveData { .. })
}

fn is_load(kind: &CommandKind) -> bool {
    matches!(kind, CommandKind::LoadData { .. })
}

/// A controller with one open session (`NodeId::Driver`).
struct Rig {
    controller: Controller,
    sent: mpsc::Receiver<(NodeId, Message)>,
    dead: Arc<AtomicU64>,
    clock: Arc<VirtualClock>,
    job: JobId,
}

impl Rig {
    fn new(workers: u32, configure: impl FnOnce(&mut ControllerConfig)) -> Self {
        let (clock, handle) = Clock::virtual_clock();
        let mut config = ControllerConfig::new((0..workers).map(WorkerId).collect());
        config.clock = clock;
        configure(&mut config);
        let (script_sent, sent) = mpsc::channel();
        let dead = Arc::new(AtomicU64::new(0));
        let script = Script {
            sent: script_sent,
            dead: Arc::clone(&dead),
        };
        let mut rig = Self {
            controller: Controller::new(config, script),
            sent,
            dead,
            clock: handle,
            job: JobId(0),
        };
        match replies(&rig.driver(DriverMessage::OpenJob))[..] {
            [ControllerToDriver::JobAccepted { job }] => rig.job = job,
            ref other => panic!("unexpected handshake: {other:?}"),
        }
        rig
    }

    /// Runs one controller turn on `wake` and returns what it sent.
    fn turn_on(&mut self, wake: Option<NetResult<Envelope>>) -> Sent {
        self.controller.turn(wake);
        self.sent.try_iter().collect()
    }

    /// Runs one controller turn with nothing delivered.
    fn turn(&mut self) -> Sent {
        self.turn_on(None)
    }

    /// Runs the turn that handles one delivered envelope.
    fn deliver(&mut self, from: NodeId, message: Message) -> Sent {
        let envelope = Envelope {
            from,
            to: NodeId::Controller,
            message,
        };
        self.turn_on(Some(Ok(envelope)))
    }

    fn driver(&mut self, msg: DriverMessage) -> Sent {
        let job = self.job;
        self.deliver(NodeId::Driver, Message::Driver { job, msg })
    }

    fn worker(&mut self, worker: u32, msg: WorkerToController) -> Sent {
        self.deliver(NodeId::Worker(WorkerId(worker)), Message::FromWorker(msg))
    }

    /// Reports every outstanding command of the job complete (the count
    /// saturates at zero, so one generous batch drains the job).
    fn drain(&mut self) -> Sent {
        let done = WorkerToController::CommandsCompleted {
            job: self.job,
            worker: WorkerId(0),
            commands: vec![CommandId(0); 10_000],
            compute_micros: 0,
        };
        self.worker(0, done)
    }

    fn halted(&mut self, worker: u32) -> Sent {
        let job = self.job;
        self.worker(
            worker,
            WorkerToController::Halted {
                job,
                worker: WorkerId(worker),
            },
        )
    }

    fn value_fetched(&mut self, worker: u32, value: f64) -> Sent {
        let fetched = WorkerToController::ValueFetched {
            job: self.job,
            worker: WorkerId(worker),
            object: PhysicalObjectId(0),
            value,
        };
        self.worker(worker, fetched)
    }

    /// `worker`'s connection drops: sends to it fail from now on.
    fn sever(&mut self, worker: u32) {
        self.dead.fetch_or(1 << worker, Ordering::Relaxed);
    }

    /// The transport notices `worker` is gone and tells the controller.
    fn disconnect(&mut self, worker: u32) -> Sent {
        self.sever(worker);
        let peer = NodeId::Worker(WorkerId(worker));
        let gone = Message::Transport(TransportEvent::PeerDisconnected(peer));
        self.deliver(peer, gone)
    }

    /// Defines the dataset and records `BLOCK`: one task per partition,
    /// each updating its partition in place. Leaves the job drained.
    fn record_block(&mut self) {
        let def = DatasetDef::new(DATA, "data", PARTITIONS);
        self.driver(DriverMessage::DefineDataset(def));
        self.driver(DriverMessage::StartTemplate { name: BLOCK.into() });
        for p in 0..PARTITIONS {
            let spec = TaskSpec::new(TaskId(u64::from(p)), StageId(1), FunctionId(1))
                .with_writes(vec![lp(p)]);
            self.driver(DriverMessage::SubmitTask(spec));
        }
        let sent = self.driver(DriverMessage::FinishTemplate { name: BLOCK.into() });
        assert!(matches!(
            replies(&sent)[..],
            [ControllerToDriver::TemplateInstalled { .. }]
        ));
        self.drain();
    }

    /// A driver checkpoint, run to its commit.
    fn checkpoint(&mut self, marker: u64) {
        let sent = self.driver(DriverMessage::Checkpoint { marker });
        assert!(!commanded(&sent, is_save).is_empty(), "nothing was saved");
        let sent = self.drain();
        assert_eq!(
            replies(&sent),
            [ControllerToDriver::CheckpointCommitted { marker }]
        );
    }

    /// One instantiation of `BLOCK`, run to completion.
    fn instantiate(&mut self) -> Sent {
        let mut sent = self.driver(DriverMessage::InstantiateTemplate {
            name: BLOCK.into(),
            params: InstantiationParams::Defaults,
        });
        sent.extend(self.drain());
        sent
    }

    fn replayed(&self) -> u64 {
        self.controller.stats().instantiations_replayed
    }
}

/// One sync FIFO: a `FetchValue` arriving while an auto-checkpoint is saving
/// is answered after the commit, and a third wait queued behind both is not
/// lost.
#[test]
fn waits_queued_behind_an_auto_checkpoint_are_all_answered_in_order() {
    let mut rig = Rig::new(2, |c| c.checkpoint_every = Some(1));
    rig.record_block();
    let instantiate = DriverMessage::InstantiateTemplate {
        name: BLOCK.into(),
        params: InstantiationParams::Defaults,
    };
    rig.driver(instantiate);
    // The auto-checkpoint is now draining the instantiation; two driver
    // waits arrive behind it.
    assert!(rig
        .driver(DriverMessage::FetchValue { partition: lp(0) })
        .is_empty());
    assert!(rig.driver(DriverMessage::Barrier).is_empty());
    // Drained: the checkpoint saves — and nothing else moves yet.
    let sent = rig.drain();
    assert!(!commanded(&sent, is_save).is_empty());
    assert!(replies(&sent).is_empty());
    assert_eq!(rig.controller.stats().checkpoints_committed, 0);
    // Saved: the commit, then the fetch is forwarded to a worker.
    let sent = rig.drain();
    assert_eq!(rig.controller.stats().checkpoints_committed, 1);
    let holder = sent
        .iter()
        .find_map(|(to, m)| match (to, m) {
            (NodeId::Worker(w), Message::ToWorker(ControllerToWorker::FetchValue { .. })) => {
                Some(w.raw())
            }
            _ => None,
        })
        .expect("the fetch is forwarded once the checkpoint committed");
    assert!(replies(&sent).is_empty());
    // Answered: the value, then the barrier queued behind it.
    let sent = rig.value_fetched(holder, 42.0);
    assert_eq!(
        replies(&sent),
        [
            ControllerToDriver::ValueFetched {
                partition: lp(0),
                value: 42.0
            },
            ControllerToDriver::BarrierReached
        ]
    );
}

/// Recovery beside the FIFO: a worker loss while a fetch is outstanding
/// rewinds the fetch in place; it re-drains and is answered once, against
/// recovered state — the pre-failure reply is stale.
#[test]
fn loss_during_fetch_value_redrains_and_answers_against_recovered_state() {
    let mut rig = Rig::new(2, |_| {});
    rig.record_block();
    rig.checkpoint(7);
    rig.instantiate();
    let sent = rig.driver(DriverMessage::FetchValue { partition: lp(0) });
    assert!(matches!(
        to_worker(&sent, 0)[..],
        [ControllerToWorker::FetchValue { .. }]
    ));
    // Worker 1 dies before worker 0 answers.
    let sent = rig.disconnect(1);
    assert!(matches!(
        to_worker(&sent, 0)[..],
        [ControllerToWorker::Halt { .. }]
    ));
    // The answer to the interrupted fetch must not reach the driver.
    assert!(rig.value_fetched(0, 1.0).is_empty());
    // Halted: restore the checkpoint onto the survivor and replay.
    let sent = rig.halted(0);
    assert!(!commanded(&sent, is_load).is_empty());
    assert_eq!(rig.replayed(), 1);
    assert!(replies(&sent).is_empty());
    // Recovered state drained: the fetch is issued again, and answered.
    let sent = rig.drain();
    assert!(matches!(
        to_worker(&sent, 0)[..],
        [ControllerToWorker::FetchValue { .. }]
    ));
    let sent = rig.value_fetched(0, 2.0);
    assert_eq!(
        replies(&sent),
        [ControllerToDriver::ValueFetched {
            partition: lp(0),
            value: 2.0
        }]
    );
}

/// A loss during `CheckpointSave`: the saves corked for the dying worker
/// are uncounted, so the survivor's completions drain the job — and must
/// not commit a manifest whose keys were never written. The checkpoint
/// restarts from its drain step, and again after the recovery.
#[test]
fn loss_during_checkpoint_save_never_commits_uncounted_saves() {
    let mut rig = Rig::new(2, |_| {});
    rig.record_block();
    rig.checkpoint(1);
    rig.instantiate();
    // Worker 1's connection drops; the controller has not been told yet.
    rig.sever(1);
    let sent = rig.driver(DriverMessage::Checkpoint { marker: 2 });
    assert_eq!(commanded(&sent, is_save), [NodeId::Worker(WorkerId(0))]);
    // Worker 0's saves complete. Committing now would record worker 1's
    // keys as written; instead the checkpoint saves again.
    let sent = rig.drain();
    assert!(replies(&sent).is_empty());
    assert_eq!(rig.controller.stats().checkpoints_committed, 1);
    assert_eq!(commanded(&sent, is_save), [NodeId::Worker(WorkerId(0))]);
    // The disconnect notice arrives: recover onto worker 0.
    rig.disconnect(1);
    let sent = rig.halted(0);
    assert!(!commanded(&sent, is_load).is_empty());
    assert_eq!(rig.controller.stats().checkpoints_committed, 1);
    // The checkpoint resumes from its drain against recovered state, and
    // commits a manifest every key of which was saved on a live worker.
    let sent = rig.drain();
    assert_eq!(commanded(&sent, is_save), [NodeId::Worker(WorkerId(0))]);
    let sent = rig.drain();
    assert_eq!(
        replies(&sent),
        [ControllerToDriver::CheckpointCommitted { marker: 2 }]
    );
    assert_eq!(rig.controller.stats().checkpoints_committed, 2);
}

/// One parked queue: registrations from workers no recovery is awaiting are
/// parked while a job recovers and admitted once it has, in arrival order.
#[test]
fn registers_during_a_recovery_are_parked_and_admitted_after_it_in_order() {
    let mut rig = Rig::new(2, |_| {});
    rig.record_block();
    rig.checkpoint(1);
    rig.disconnect(1);
    let register = |worker| WorkerToController::Register {
        worker: WorkerId(worker),
    };
    assert!(rig.worker(8, register(8)).is_empty());
    assert!(rig.worker(5, register(5)).is_empty());
    assert_eq!(rig.controller.stats().rejoins_handled, 0);
    // The recovery completes; both registrations are then served, against
    // recovered state, oldest first.
    let sent = rig.halted(0);
    let accepted: Vec<NodeId> = sent
        .iter()
        .filter(|(_, m)| {
            matches!(
                m,
                Message::ToWorker(ControllerToWorker::RejoinAccepted { .. })
            )
        })
        .map(|(to, _)| *to)
        .collect();
    assert_eq!(
        accepted,
        [NodeId::Worker(WorkerId(8)), NodeId::Worker(WorkerId(5))]
    );
    assert_eq!(rig.controller.stats().rejoins_handled, 2);
    assert!(!commanded(&sent, is_load).is_empty());
}

/// One replay window: a transport-detected loss replays exactly what was
/// logged since the checkpoint, and the window is still exact afterwards —
/// a second loss replays the same entries again.
#[test]
fn transport_loss_replays_the_window_and_leaves_it_exact() {
    let mut rig = Rig::new(3, |_| {});
    rig.record_block();
    rig.checkpoint(1);
    for _ in 0..3 {
        rig.instantiate();
    }
    rig.disconnect(2);
    rig.halted(0);
    let sent = rig.halted(1);
    assert_eq!(rig.replayed(), 3);
    assert!(replies(&sent).is_empty(), "the driver is oblivious");
    rig.drain();
    rig.disconnect(1);
    rig.halted(0);
    assert_eq!(rig.replayed(), 6);
}

/// One way to lose a worker, asked by the driver: the asking job is told
/// `RecoveryComplete`, nothing is replayed (the driver re-runs the lost
/// iterations itself), and the window restarts at the restored checkpoint.
#[test]
fn driver_fail_worker_replies_recovery_complete_and_starts_a_fresh_window() {
    let mut rig = Rig::new(3, |_| {});
    rig.record_block();
    rig.checkpoint(9);
    rig.instantiate();
    rig.instantiate();
    let sent = rig.driver(DriverMessage::FailWorker {
        worker: WorkerId(2),
    });
    assert!(matches!(
        to_worker(&sent, 0)[..],
        [ControllerToWorker::Halt { .. }]
    ));
    assert!(
        to_worker(&sent, 2).is_empty(),
        "the failed worker is evicted"
    );
    rig.halted(0);
    let sent = rig.halted(1);
    assert_eq!(
        replies(&sent),
        [ControllerToDriver::RecoveryComplete { marker: 9 }]
    );
    assert_eq!(rig.replayed(), 0);
    rig.drain();
    // The driver re-runs one iteration; a later transport loss replays
    // that one — not the two from before the driver-initiated recovery.
    rig.instantiate();
    rig.disconnect(1);
    rig.halted(0);
    assert_eq!(rig.replayed(), 1);
}

/// `SetWorkerAllocation` turns every window lossy only once the change is
/// applied: a rejected request (an empty allocation) leaves the next
/// recovery exact.
#[test]
fn rejected_allocation_keeps_the_window_exact_and_an_accepted_one_does_not() {
    for (workers, accepted) in [(vec![], false), (vec![WorkerId(0), WorkerId(1)], true)] {
        let mut rig = Rig::new(2, |_| {});
        rig.record_block();
        rig.checkpoint(1);
        rig.instantiate();
        rig.instantiate();
        let sent = rig.driver(DriverMessage::SetWorkerAllocation { workers });
        match replies(&sent)[..] {
            [ControllerToDriver::Ack] => assert!(accepted),
            [ControllerToDriver::Error { .. }] => assert!(!accepted),
            ref other => panic!("unexpected reply: {other:?}"),
        }
        rig.disconnect(1);
        rig.halted(0);
        assert_eq!(rig.replayed(), if accepted { 0 } else { 2 });
    }
}

/// A rejoin grace that expires with nobody back completes the recovery onto
/// the survivors in the same turn: the reload is on the fabric before the
/// controller blocks again, not corked until some unrelated envelope arrives.
#[test]
fn grace_expiry_recovers_onto_the_survivors_without_waiting_for_traffic() {
    let grace = Duration::from_millis(50);
    let mut rig = Rig::new(2, |c| c.rejoin_grace = Some(grace));
    rig.record_block();
    rig.checkpoint(1);
    rig.disconnect(1);
    assert!(rig.halted(0).is_empty(), "still awaiting worker 1");
    rig.clock.advance(grace);
    // Nothing but the end-of-turn flush puts the corked reload on the wire.
    let sent = rig.turn();
    assert_eq!(commanded(&sent, is_load), [NodeId::Worker(WorkerId(0))]);
}
