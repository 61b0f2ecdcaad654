//! Golden wire-format vectors: one committed encoding per `Message` variant
//! (every nested enum variant counted individually, same 43-variant census
//! as `roundtrip.rs`), plus framed `Envelope` vectors for each node-id form.
//!
//! `roundtrip.rs` proves the codec agrees with *itself*; these vectors pin
//! the codec to *bytes on disk*, so any change to the wire format — field
//! order, integer widths, enum discriminants, framing — fails loudly even
//! if it roundtrips perfectly. That is the conformance contract a rejoining
//! worker from an older build relies on.
//!
//! Inputs are hand-written literals (no RNG), so the vectors depend on
//! nothing but this file and the codec. To regenerate after an intentional
//! format change:
//!
//! ```text
//! NIMBUS_REGEN_VECTORS=1 cargo test -p nimbus-net --test vectors
//! ```
//!
//! and commit the rewritten `tests/vectors/*.bin` together with the change.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::PathBuf;

use nimbus_core::data::DatasetDef;
use nimbus_core::ids::{
    CommandId, FunctionId, JobId, LogicalObjectId, LogicalPartition, PartitionIndex,
    PhysicalObjectId, StageId, TaskId, TemplateId, TransferId, WorkerId,
};
use nimbus_core::task::TaskSpec;
use nimbus_core::template::{
    InstantiationParams, SkeletonEntry, SkeletonKind, TemplateEdit, WorkerInstantiation,
    WorkerTemplate,
};
use nimbus_core::{Command, CommandKind, TaskParams};
use nimbus_net::{
    decode, encode, serialized_size, ControllerToDriver, ControllerToWorker, DataPayload,
    DataTransfer, DriverMessage, Envelope, JobVersions, Message, NodeId, PartitionVersion, Tag,
    TransportEvent, WorkerToController,
};

/// Mirrors `roundtrip.rs`: total `Message` variants, nested enums included.
const MESSAGE_VARIANTS: u32 = 43;

fn lp(object: u64, partition: u32) -> LogicalPartition {
    LogicalPartition::new(LogicalObjectId(object), PartitionIndex(partition))
}

fn task_spec() -> TaskSpec {
    TaskSpec::new(TaskId(9001), StageId(7), FunctionId(3))
        .with_reads(vec![lp(1, 0), lp(1, 1)])
        .with_writes(vec![lp(2, 0)])
        .with_params(TaskParams::from_f64s(&[1.5, -2.25]))
        .with_preferred_worker(WorkerId(1))
}

fn commands() -> Vec<Command> {
    vec![
        Command::new(
            CommandId(100),
            CommandKind::CreateData {
                object: PhysicalObjectId(11),
                logical: lp(1, 0),
            },
        ),
        Command::new(
            CommandId(101),
            CommandKind::DestroyData {
                object: PhysicalObjectId(11),
            },
        ),
        Command::new(
            CommandId(102),
            CommandKind::LocalCopy {
                from: PhysicalObjectId(11),
                to: PhysicalObjectId(12),
            },
        )
        .with_before(vec![CommandId(100), CommandId(101)]),
        Command::new(
            CommandId(103),
            CommandKind::SendCopy {
                from: PhysicalObjectId(12),
                to_worker: WorkerId(2),
                transfer: TransferId(55),
            },
        ),
        Command::new(
            CommandId(104),
            CommandKind::ReceiveCopy {
                to: PhysicalObjectId(13),
                from_worker: WorkerId(0),
                transfer: TransferId(55),
            },
        ),
        Command::new(
            CommandId(105),
            CommandKind::LoadData {
                object: PhysicalObjectId(13),
                key: "ckpt/3/p0".to_string(),
            },
        ),
        Command::new(
            CommandId(106),
            CommandKind::SaveData {
                object: PhysicalObjectId(13),
                key: "ckpt/4/p0".to_string(),
            },
        ),
        Command::new(
            CommandId(107),
            CommandKind::RunTask {
                function: FunctionId(3),
                task: TaskId(9001),
            },
        )
        .with_before(vec![CommandId(104)]),
    ]
}

/// One entry per `SkeletonKind`, each exercising the optional entry fields.
fn worker_template() -> WorkerTemplate {
    let entries = vec![
        SkeletonEntry::new(SkeletonKind::CreateData {
            object: PhysicalObjectId(21),
            logical: lp(1, 0),
        }),
        SkeletonEntry::new(SkeletonKind::LocalCopy {
            from: PhysicalObjectId(21),
            to: PhysicalObjectId(22),
        })
        .with_reads(vec![PhysicalObjectId(21)])
        .with_writes(vec![PhysicalObjectId(22)])
        .with_before(vec![0]),
        SkeletonEntry::new(SkeletonKind::SendCopy {
            from: PhysicalObjectId(22),
            to_worker: WorkerId(1),
            transfer_slot: 0,
        })
        .with_reads(vec![PhysicalObjectId(22)])
        .with_before(vec![1]),
        SkeletonEntry::new(SkeletonKind::ReceiveCopy {
            to: PhysicalObjectId(23),
            from_worker: WorkerId(1),
            transfer_slot: 1,
        })
        .with_writes(vec![PhysicalObjectId(23)]),
        SkeletonEntry::new(SkeletonKind::LoadData {
            object: PhysicalObjectId(23),
            key: "ckpt/2/p1".to_string(),
        })
        .with_before(vec![3]),
        SkeletonEntry::new(SkeletonKind::SaveData {
            object: PhysicalObjectId(23),
            key: "ckpt/3/p1".to_string(),
        })
        .with_before(vec![4]),
        SkeletonEntry::new(SkeletonKind::RunTask {
            function: FunctionId(3),
            task_slot: 0,
        })
        .with_reads(vec![PhysicalObjectId(21)])
        .with_writes(vec![PhysicalObjectId(23)])
        .with_default_params(TaskParams::from_f64s(&[0.5]))
        .with_param_slot(0)
        .with_before(vec![5]),
        SkeletonEntry::new(SkeletonKind::DestroyData {
            object: PhysicalObjectId(22),
        })
        .with_before(vec![6]),
        SkeletonEntry::new(SkeletonKind::Nop),
    ];
    WorkerTemplate::new(TemplateId(4), TemplateId(3), WorkerId(0), entries)
        .expect("entries only reference earlier indices")
}

fn worker_instantiation() -> WorkerInstantiation {
    WorkerInstantiation {
        template: TemplateId(4),
        base_command_id: 2000,
        base_transfer_id: 300,
        task_ids: vec![TaskId(9002), TaskId(9003)],
        params: vec![TaskParams::from_f64s(&[2.0]), TaskParams::empty()],
        edits: vec![
            TemplateEdit::RemoveEntry { index: 8 },
            TemplateEdit::AddEntry {
                entry: SkeletonEntry::new(SkeletonKind::Nop),
            },
            TemplateEdit::ReplaceEntry {
                index: 2,
                entry: SkeletonEntry::new(SkeletonKind::ReceiveCopy {
                    to: PhysicalObjectId(22),
                    from_worker: WorkerId(2),
                    transfer_slot: 2,
                })
                .with_writes(vec![PhysicalObjectId(22)]),
            },
        ],
    }
}

/// Every `DriverMessage` variant, by the same index as `roundtrip.rs`.
fn driver_message(which: u32) -> DriverMessage {
    match which {
        0 => {
            DriverMessage::DefineDataset(DatasetDef::new(LogicalObjectId(1), "data".to_string(), 8))
        }
        1 => DriverMessage::SubmitTask(task_spec()),
        2 => DriverMessage::StartTemplate {
            name: "inner".to_string(),
        },
        3 => DriverMessage::FinishTemplate {
            name: "inner".to_string(),
        },
        4 => DriverMessage::AbortTemplate {
            name: "inner".to_string(),
        },
        5 => DriverMessage::InstantiateTemplate {
            name: "inner".to_string(),
            params: InstantiationParams::PerStage(
                [(StageId(7), TaskParams::from_f64s(&[1.0]))]
                    .into_iter()
                    .collect(),
            ),
        },
        6 => DriverMessage::FetchValue {
            partition: lp(2, 0),
        },
        7 => DriverMessage::Barrier,
        8 => DriverMessage::EnableTemplates(true),
        9 => DriverMessage::Checkpoint { marker: 6 },
        10 => DriverMessage::MigrateTasks {
            name: "inner".to_string(),
            count: 2,
        },
        11 => DriverMessage::SetWorkerAllocation {
            workers: vec![WorkerId(0), WorkerId(2)],
        },
        12 => DriverMessage::FailWorker {
            worker: WorkerId(1),
        },
        13 => DriverMessage::Shutdown,
        14 => DriverMessage::OpenJob,
        _ => DriverMessage::CloseJob,
    }
}

/// Every `ControllerToDriver` variant, by index.
fn controller_to_driver(which: u32) -> ControllerToDriver {
    match which {
        0 => ControllerToDriver::ValueFetched {
            partition: lp(2, 0),
            value: 320.0,
        },
        1 => ControllerToDriver::BarrierReached,
        2 => ControllerToDriver::TemplateInstalled {
            name: "inner".to_string(),
        },
        3 => ControllerToDriver::CheckpointCommitted { marker: 6 },
        4 => ControllerToDriver::RecoveryComplete { marker: 4 },
        5 => ControllerToDriver::Ack,
        6 => ControllerToDriver::Error {
            message: "no checkpoint available for recovery".to_string(),
        },
        7 => ControllerToDriver::JobTerminated,
        _ => ControllerToDriver::JobAccepted { job: JobId(1) },
    }
}

/// Every `ControllerToWorker` variant, by index.
fn controller_to_worker(which: u32) -> ControllerToWorker {
    match which {
        0 => ControllerToWorker::ExecuteCommands {
            job: JobId(1),
            commands: commands(),
        },
        1 => ControllerToWorker::InstallTemplate {
            job: JobId(1),
            template: worker_template(),
        },
        2 => ControllerToWorker::InstantiateTemplate {
            job: JobId(1),
            inst: worker_instantiation(),
        },
        3 => ControllerToWorker::FetchValue {
            job: JobId(1),
            object: PhysicalObjectId(23),
        },
        4 => ControllerToWorker::Halt { job: JobId(1) },
        5 => ControllerToWorker::RejoinAccepted {
            jobs: vec![JobVersions {
                job: JobId(1),
                versions: vec![
                    PartitionVersion {
                        partition: lp(1, 0),
                        version: 5,
                    },
                    PartitionVersion {
                        partition: lp(2, 0),
                        version: 5,
                    },
                ],
            }],
        },
        6 => ControllerToWorker::Shutdown,
        7 => ControllerToWorker::DropJob { job: JobId(1) },
        _ => ControllerToWorker::Shutdown,
    }
}

/// Every `WorkerToController` variant, by index.
fn worker_to_controller(which: u32) -> WorkerToController {
    match which {
        0 => WorkerToController::CommandsCompleted {
            job: JobId(1),
            worker: WorkerId(0),
            commands: vec![CommandId(100), CommandId(102), CommandId(107)],
            compute_micros: 1500,
        },
        1 => WorkerToController::TemplateInstalled {
            job: JobId(1),
            worker: WorkerId(0),
            template: TemplateId(4),
        },
        2 => WorkerToController::ValueFetched {
            job: JobId(1),
            worker: WorkerId(0),
            object: PhysicalObjectId(23),
            value: 320.0,
        },
        3 => WorkerToController::Halted {
            job: JobId(1),
            worker: WorkerId(2),
        },
        4 => WorkerToController::Heartbeat {
            worker: WorkerId(0),
            queued: 3,
            ready: 1,
        },
        _ => WorkerToController::Register {
            worker: WorkerId(1),
        },
    }
}

/// Every `Message` variant with hand-pinned contents, same census and index
/// layout as `roundtrip.rs::message`.
fn vector_message(which: u32) -> Message {
    match which {
        w @ 0..=15 => Message::Driver {
            job: JobId(1),
            msg: driver_message(w),
        },
        w @ 16..=24 => Message::ToDriver(controller_to_driver(w - 16)),
        w @ 25..=33 => Message::ToWorker(controller_to_worker(w - 25)),
        w @ 34..=39 => Message::FromWorker(worker_to_controller(w - 34)),
        40 => Message::Data(DataTransfer {
            job: JobId(1),
            transfer: TransferId(55),
            from_worker: WorkerId(0),
            payload: DataPayload::Bytes(bytes::Bytes::from(
                (0u8..32).map(|b| b.wrapping_mul(7)).collect::<Vec<u8>>(),
            )),
        }),
        41 => Message::Transport(TransportEvent::PeerDisconnected(NodeId::Worker(WorkerId(
            1,
        )))),
        _ => Message::Transport(TransportEvent::PeerReconnected(NodeId::Client(2))),
    }
}

/// The envelope vectors: one per node-id form on each side.
fn vector_envelopes() -> Vec<(&'static str, Envelope)> {
    vec![
        (
            "driver-controller",
            Envelope {
                from: NodeId::Driver,
                to: NodeId::Controller,
                message: vector_message(7),
            },
        ),
        (
            "controller-worker",
            Envelope {
                from: NodeId::Controller,
                to: NodeId::Worker(WorkerId(1)),
                message: vector_message(29),
            },
        ),
        (
            "client-controller",
            Envelope {
                from: NodeId::Client(3),
                to: NodeId::Controller,
                message: vector_message(14),
            },
        ),
    ]
}

fn vectors_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/vectors")
}

fn regen() -> bool {
    std::env::var("NIMBUS_REGEN_VECTORS").is_ok()
}

fn message_vector_name(which: u32, m: &Message) -> String {
    format!("msg-{which:02}-{}.bin", m.tag().as_str())
}

fn check_vector(name: &str, encoded: &[u8]) -> Option<String> {
    let path = vectors_dir().join(name);
    if regen() {
        fs::create_dir_all(vectors_dir()).expect("create vectors dir");
        fs::write(&path, encoded).expect("write vector");
        eprintln!("regenerated {}", path.display());
        return None;
    }
    let golden = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            return Some(format!(
                "{name}: cannot read golden vector ({e}); \
                 run NIMBUS_REGEN_VECTORS=1 cargo test -p nimbus-net --test vectors"
            ))
        }
    };
    if golden != encoded {
        return Some(format!(
            "{name}: encoding drifted from the committed vector \
             ({} golden bytes vs {} encoded); if the wire-format change is \
             intentional, regenerate with NIMBUS_REGEN_VECTORS=1",
            golden.len(),
            encoded.len()
        ));
    }
    None
}

/// Every message variant's encoding matches its committed vector byte for
/// byte, decodes back to the identical message, and sizes correctly.
#[test]
fn message_vectors_are_byte_stable() {
    let mut drift: Vec<String> = Vec::new();
    for which in 0..MESSAGE_VARIANTS {
        let m = vector_message(which);
        let encoded = encode(&m).expect("encode");
        assert_eq!(
            encoded.len(),
            serialized_size(&m),
            "variant {which} ({}): length diverges from the counting codec",
            m.tag().as_str()
        );
        assert_eq!(
            decode::<Message>(&encoded).expect("decode"),
            m,
            "variant {which} ({})",
            m.tag().as_str()
        );
        drift.extend(check_vector(&message_vector_name(which, &m), &encoded));
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

/// Envelope framing (the actual on-wire unit) is byte-stable for every
/// node-id form.
#[test]
fn envelope_vectors_are_byte_stable() {
    let mut drift: Vec<String> = Vec::new();
    for (label, envelope) in vector_envelopes() {
        let encoded = encode(&envelope).expect("encode");
        assert_eq!(encoded.len(), serialized_size(&envelope), "{label}");
        assert_eq!(
            decode::<Envelope>(&encoded).expect("decode"),
            envelope,
            "{label}"
        );
        drift.extend(check_vector(&format!("env-{label}.bin"), &encoded));
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

/// The census here must stay in lockstep with `roundtrip.rs`: every variant
/// index must construct a *distinct* message (tags repeat across nested
/// enums — e.g. `fetch_value` exists driver→controller and
/// controller→worker — but the messages themselves may not), so a newly
/// added variant cannot silently alias an existing vector slot. Index 31
/// is the one deliberate duplicate: `ControllerToWorker` has 8 real
/// variants against 9 index slots, so both 31 and 33 pin `Shutdown`.
#[test]
fn vector_census_covers_distinct_variants() {
    let messages: Vec<Message> = (0..MESSAGE_VARIANTS).map(vector_message).collect();
    let mut duplicates = Vec::new();
    for (i, a) in messages.iter().enumerate() {
        for (j, b) in messages.iter().enumerate().skip(i + 1) {
            if a == b {
                duplicates.push((i, j));
            }
        }
    }
    assert_eq!(
        duplicates,
        vec![(31, 33)],
        "unexpected aliasing between vector slots"
    );
    // Every tag has at least one pinned encoding: a tag added to `Tag`
    // without a vector slot fails here.
    let covered: HashSet<Tag> = messages.iter().map(Message::tag).collect();
    let missing: Vec<Tag> = Tag::ALL
        .into_iter()
        .filter(|t| !covered.contains(t))
        .collect();
    assert!(
        missing.is_empty(),
        "tags with no golden vector: {missing:?}"
    );
}

/// The files on disk are exactly the census: a vector left behind by a
/// removed or renamed variant, or one never generated, fails.
#[test]
fn vector_files_are_exactly_the_census() {
    if regen() {
        return; // the byte-stability tests are rewriting the directory
    }
    let expected: BTreeSet<String> = (0..MESSAGE_VARIANTS)
        .map(|which| message_vector_name(which, &vector_message(which)))
        .chain(
            vector_envelopes()
                .iter()
                .map(|(label, _)| format!("env-{label}.bin")),
        )
        .collect();
    let on_disk: BTreeSet<String> = fs::read_dir(vectors_dir())
        .expect("read vectors dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(on_disk, expected);
}
