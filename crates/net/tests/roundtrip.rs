//! Wire-codec property tests: for every `Message`/`Envelope` variant,
//! `decode(encode(m)) == m` and `encode(m).len() == serialized_size(&m)`.
//!
//! The second property is what pins the byte accounting used by all paper
//! figures to the real wire format: `serialized_size` is the counting
//! serializer the evaluation has always used, and the encoder must never
//! drift from it.
//!
//! Like `core/tests/properties.rs`, these are proptest-style properties run
//! over a fixed number of cases from the workspace's seeded deterministic
//! generator; failures print their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    DataTransfer, DriverMessage, Envelope, JobVersions, Message, NodeId, PartitionVersion,
    TransportEvent, WorkerToController,
};

const CASES: u64 = 32;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u32..26) as u8))
        .collect()
}

fn params(rng: &mut StdRng) -> TaskParams {
    match rng.gen_range(0u32..3) {
        0 => TaskParams::empty(),
        1 => {
            let values: Vec<f64> = (0..rng.gen_range(0usize..6))
                .map(|_| rng.gen_range(-1e6..1e6))
                .collect();
            TaskParams::from_f64s(&values)
        }
        _ => {
            let values: Vec<u64> = (0..rng.gen_range(0usize..6))
                .map(|_| rng.gen_range(0usize..1 << 40) as u64)
                .collect();
            TaskParams::from_u64s(&values)
        }
    }
}

fn lp(rng: &mut StdRng) -> LogicalPartition {
    LogicalPartition::new(
        LogicalObjectId(rng.gen_range(0usize..1 << 20) as u64),
        PartitionIndex(rng.gen_range(0usize..1 << 10) as u32),
    )
}

fn worker(rng: &mut StdRng) -> WorkerId {
    WorkerId(rng.gen_range(0usize..64) as u32)
}

fn jid(rng: &mut StdRng) -> JobId {
    JobId(rng.gen_range(0usize..8) as u64)
}

fn oid(rng: &mut StdRng) -> PhysicalObjectId {
    PhysicalObjectId(rng.gen_range(0usize..1 << 30) as u64)
}

fn task_spec(rng: &mut StdRng) -> TaskSpec {
    let mut spec = TaskSpec::new(
        TaskId(rng.gen_range(0usize..1 << 30) as u64),
        StageId(rng.gen_range(0usize..1 << 20) as u64),
        FunctionId(rng.gen_range(0usize..64) as u32),
    )
    .with_reads((0..rng.gen_range(0usize..4)).map(|_| lp(rng)).collect())
    .with_writes((0..rng.gen_range(0usize..4)).map(|_| lp(rng)).collect())
    .with_params(params(rng));
    if rng.gen_range(0u32..2) == 0 {
        spec = spec.with_preferred_worker(worker(rng));
    }
    spec
}

/// One of each `CommandKind`, cycling through `which`.
fn command_kind(rng: &mut StdRng, which: u32) -> CommandKind {
    match which % 8 {
        0 => CommandKind::CreateData {
            object: oid(rng),
            logical: lp(rng),
        },
        1 => CommandKind::DestroyData { object: oid(rng) },
        2 => CommandKind::LocalCopy {
            from: oid(rng),
            to: oid(rng),
        },
        3 => CommandKind::SendCopy {
            from: oid(rng),
            to_worker: worker(rng),
            transfer: TransferId(rng.gen_range(0usize..1 << 20) as u64),
        },
        4 => CommandKind::ReceiveCopy {
            to: oid(rng),
            from_worker: worker(rng),
            transfer: TransferId(rng.gen_range(0usize..1 << 20) as u64),
        },
        5 => CommandKind::LoadData {
            object: oid(rng),
            key: string(rng),
        },
        6 => CommandKind::SaveData {
            object: oid(rng),
            key: string(rng),
        },
        _ => CommandKind::RunTask {
            function: FunctionId(rng.gen_range(0usize..64) as u32),
            task: TaskId(rng.gen_range(0usize..1 << 30) as u64),
        },
    }
}

fn command(rng: &mut StdRng, which: u32) -> Command {
    Command::new(
        CommandId(rng.gen_range(0usize..1 << 30) as u64),
        command_kind(rng, which),
    )
    .with_before(
        (0..rng.gen_range(0usize..3))
            .map(|_| CommandId(rng.gen_range(0usize..1 << 20) as u64))
            .collect(),
    )
}

/// One of each `SkeletonKind`, cycling through `which`.
fn skeleton_kind(rng: &mut StdRng, which: u32) -> SkeletonKind {
    match which % 9 {
        0 => SkeletonKind::CreateData {
            object: oid(rng),
            logical: lp(rng),
        },
        1 => SkeletonKind::DestroyData { object: oid(rng) },
        2 => SkeletonKind::LocalCopy {
            from: oid(rng),
            to: oid(rng),
        },
        3 => SkeletonKind::SendCopy {
            from: oid(rng),
            to_worker: worker(rng),
            transfer_slot: rng.gen_range(0usize..8),
        },
        4 => SkeletonKind::ReceiveCopy {
            to: oid(rng),
            from_worker: worker(rng),
            transfer_slot: rng.gen_range(0usize..8),
        },
        5 => SkeletonKind::LoadData {
            object: oid(rng),
            key: string(rng),
        },
        6 => SkeletonKind::SaveData {
            object: oid(rng),
            key: string(rng),
        },
        7 => SkeletonKind::RunTask {
            function: FunctionId(rng.gen_range(0usize..64) as u32),
            task_slot: rng.gen_range(0usize..8),
        },
        _ => SkeletonKind::Nop,
    }
}

fn skeleton_entry(rng: &mut StdRng, index: usize, which: u32) -> SkeletonEntry {
    let mut entry = SkeletonEntry::new(skeleton_kind(rng, which))
        .with_reads((0..rng.gen_range(0usize..3)).map(|_| oid(rng)).collect())
        .with_writes((0..rng.gen_range(0usize..3)).map(|_| oid(rng)).collect())
        .with_default_params(params(rng));
    if index > 0 {
        entry = entry.with_before(vec![rng.gen_range(0usize..index)]);
    }
    if rng.gen_range(0u32..2) == 0 {
        entry = entry.with_param_slot(rng.gen_range(0usize..4));
    }
    entry
}

fn worker_template(rng: &mut StdRng) -> WorkerTemplate {
    let entries: Vec<SkeletonEntry> = (0..rng.gen_range(1usize..6))
        .map(|i| {
            let which = rng.gen_range(0u32..9);
            skeleton_entry(rng, i, which)
        })
        .collect();
    WorkerTemplate::new(
        TemplateId(rng.gen_range(0usize..1 << 20) as u64),
        TemplateId(rng.gen_range(0usize..1 << 20) as u64),
        worker(rng),
        entries,
    )
    .expect("generated entries only reference earlier indices")
}

fn template_edit(rng: &mut StdRng, which: u32) -> TemplateEdit {
    match which % 3 {
        0 => TemplateEdit::RemoveEntry {
            index: rng.gen_range(0usize..8),
        },
        1 => TemplateEdit::ReplaceEntry {
            index: rng.gen_range(0usize..8),
            entry: {
                let which = rng.gen_range(0u32..9);
                skeleton_entry(rng, 0, which)
            },
        },
        _ => TemplateEdit::AddEntry {
            entry: {
                let which = rng.gen_range(0u32..9);
                skeleton_entry(rng, 0, which)
            },
        },
    }
}

fn worker_instantiation(rng: &mut StdRng) -> WorkerInstantiation {
    WorkerInstantiation {
        template: TemplateId(rng.gen_range(0usize..1 << 20) as u64),
        base_command_id: rng.gen_range(0usize..1 << 30) as u64,
        base_transfer_id: rng.gen_range(0usize..1 << 30) as u64,
        task_ids: (0..rng.gen_range(0usize..4))
            .map(|_| TaskId(rng.gen_range(0usize..1 << 30) as u64))
            .collect(),
        params: (0..rng.gen_range(0usize..4)).map(|_| params(rng)).collect(),
        edits: (0..rng.gen_range(0usize..3))
            .map(|i| template_edit(rng, i as u32))
            .collect(),
    }
}

fn instantiation_params(rng: &mut StdRng, which: u32) -> InstantiationParams {
    match which % 3 {
        0 => InstantiationParams::Defaults,
        1 => InstantiationParams::PerTask(
            (0..rng.gen_range(0usize..4)).map(|_| params(rng)).collect(),
        ),
        _ => {
            let mut map = std::collections::HashMap::new();
            for _ in 0..rng.gen_range(0usize..3) {
                map.insert(StageId(rng.gen_range(0usize..64) as u64), params(rng));
            }
            InstantiationParams::PerStage(map)
        }
    }
}

fn node(rng: &mut StdRng) -> NodeId {
    match rng.gen_range(0u32..4) {
        0 => NodeId::Driver,
        1 => NodeId::Controller,
        2 => NodeId::Client(rng.gen_range(0usize..16) as u32),
        _ => NodeId::Worker(worker(rng)),
    }
}

/// Every `DriverMessage` variant, by index.
fn driver_message(rng: &mut StdRng, which: u32) -> DriverMessage {
    match which % 16 {
        14 => DriverMessage::OpenJob,
        15 => DriverMessage::CloseJob,
        0 => DriverMessage::DefineDataset(DatasetDef::new(
            LogicalObjectId(rng.gen_range(0usize..1 << 20) as u64),
            string(rng),
            rng.gen_range(0usize..64) as u32 + 1,
        )),
        1 => DriverMessage::SubmitTask(task_spec(rng)),
        2 => DriverMessage::StartTemplate { name: string(rng) },
        3 => DriverMessage::FinishTemplate { name: string(rng) },
        4 => DriverMessage::AbortTemplate { name: string(rng) },
        5 => DriverMessage::InstantiateTemplate {
            name: string(rng),
            params: {
                let which = rng.gen_range(0u32..3);
                instantiation_params(rng, which)
            },
        },
        6 => DriverMessage::FetchValue { partition: lp(rng) },
        7 => DriverMessage::Barrier,
        8 => DriverMessage::EnableTemplates(rng.gen_range(0u32..2) == 0),
        9 => DriverMessage::Checkpoint {
            marker: rng.gen_range(0usize..1 << 30) as u64,
        },
        10 => DriverMessage::MigrateTasks {
            name: string(rng),
            count: rng.gen_range(0usize..8),
        },
        11 => DriverMessage::SetWorkerAllocation {
            workers: (0..rng.gen_range(1usize..5)).map(|_| worker(rng)).collect(),
        },
        12 => DriverMessage::FailWorker {
            worker: worker(rng),
        },
        _ => DriverMessage::Shutdown,
    }
}

/// Every `ControllerToDriver` variant, by index.
fn controller_to_driver(rng: &mut StdRng, which: u32) -> ControllerToDriver {
    match which % 9 {
        8 => ControllerToDriver::JobAccepted { job: jid(rng) },
        0 => ControllerToDriver::ValueFetched {
            partition: lp(rng),
            value: rng.gen_range(-1e9..1e9),
        },
        1 => ControllerToDriver::BarrierReached,
        2 => ControllerToDriver::TemplateInstalled { name: string(rng) },
        3 => ControllerToDriver::CheckpointCommitted {
            marker: rng.gen_range(0usize..1 << 30) as u64,
        },
        4 => ControllerToDriver::RecoveryComplete {
            marker: rng.gen_range(0usize..1 << 30) as u64,
        },
        5 => ControllerToDriver::Ack,
        6 => ControllerToDriver::Error {
            message: string(rng),
        },
        _ => ControllerToDriver::JobTerminated,
    }
}

/// Every `ControllerToWorker` variant, by index.
fn controller_to_worker(rng: &mut StdRng, which: u32) -> ControllerToWorker {
    match which % 9 {
        0 => ControllerToWorker::ExecuteCommands {
            job: jid(rng),
            commands: (0..rng.gen_range(1usize..4))
                .map(|i| command(rng, which + i as u32))
                .collect(),
        },
        1 => ControllerToWorker::InstallTemplate {
            job: jid(rng),
            template: worker_template(rng),
        },
        2 => ControllerToWorker::InstantiateTemplate {
            job: jid(rng),
            inst: worker_instantiation(rng),
        },
        3 => ControllerToWorker::FetchValue {
            job: jid(rng),
            object: oid(rng),
        },
        4 => ControllerToWorker::Halt { job: jid(rng) },
        5 => ControllerToWorker::RejoinAccepted {
            jobs: (0..rng.gen_range(0usize..3))
                .map(|_| JobVersions {
                    job: jid(rng),
                    versions: (0..rng.gen_range(0usize..6))
                        .map(|_| PartitionVersion {
                            partition: lp(rng),
                            version: rng.gen_range(0usize..1 << 30) as u64,
                        })
                        .collect(),
                })
                .collect(),
        },
        7 => ControllerToWorker::DropJob { job: jid(rng) },
        _ => ControllerToWorker::Shutdown,
    }
}

/// Every `WorkerToController` variant, by index.
fn worker_to_controller(rng: &mut StdRng, which: u32) -> WorkerToController {
    match which % 6 {
        0 => WorkerToController::CommandsCompleted {
            job: jid(rng),
            worker: worker(rng),
            commands: (0..rng.gen_range(0usize..5))
                .map(|_| CommandId(rng.gen_range(0usize..1 << 30) as u64))
                .collect(),
            compute_micros: rng.gen_range(0usize..1 << 30) as u64,
        },
        1 => WorkerToController::TemplateInstalled {
            job: jid(rng),
            worker: worker(rng),
            template: TemplateId(rng.gen_range(0usize..1 << 20) as u64),
        },
        2 => WorkerToController::ValueFetched {
            job: jid(rng),
            worker: worker(rng),
            object: oid(rng),
            value: rng.gen_range(-1e9..1e9),
        },
        3 => WorkerToController::Halted {
            job: jid(rng),
            worker: worker(rng),
        },
        4 => WorkerToController::Heartbeat {
            worker: worker(rng),
            queued: rng.gen_range(0usize..1024),
            ready: rng.gen_range(0usize..1024),
        },
        _ => WorkerToController::Register {
            worker: worker(rng),
        },
    }
}

fn data_message(rng: &mut StdRng) -> Message {
    let len = rng.gen_range(0usize..64);
    let contents: Vec<u8> = (0..len).map(|_| rng.gen_range(0usize..256) as u8).collect();
    Message::Data(DataTransfer {
        job: jid(rng),
        transfer: TransferId(rng.gen_range(0usize..1 << 20) as u64),
        from_worker: worker(rng),
        payload: DataPayload::Bytes(bytes::Bytes::copy_from_slice(&contents)),
    })
}

/// Total number of `Message` variants `message` cycles through (all nested
/// enum variants counted individually).
const MESSAGE_VARIANTS: u32 = 43;

/// Every `Message` variant, cycling through all nested variants.
fn message(rng: &mut StdRng, which: u32) -> Message {
    match which % MESSAGE_VARIANTS {
        w @ 0..=15 => Message::Driver {
            job: jid(rng),
            msg: driver_message(rng, w),
        },
        w @ 16..=24 => Message::ToDriver(controller_to_driver(rng, w - 16)),
        w @ 25..=33 => Message::ToWorker(controller_to_worker(rng, w - 25)),
        w @ 34..=39 => Message::FromWorker(worker_to_controller(rng, w - 34)),
        40 => data_message(rng),
        41 => Message::Transport(TransportEvent::PeerDisconnected(node(rng))),
        _ => Message::Transport(TransportEvent::PeerReconnected(node(rng))),
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

fn assert_roundtrip(m: &Message, seed: u64, which: u32) {
    let bytes = encode(m).unwrap_or_else(|e| panic!("seed {seed} variant {which}: encode: {e}"));
    assert_eq!(
        bytes.len(),
        serialized_size(m),
        "seed {seed} variant {which} ({}): encoded length diverges from the counting codec",
        m.tag().as_str()
    );
    let back: Message = decode(&bytes).unwrap_or_else(|e| {
        panic!(
            "seed {seed} variant {which} ({}): decode: {e}",
            m.tag().as_str()
        )
    });
    assert_eq!(
        &back,
        m,
        "seed {seed} variant {which} ({})",
        m.tag().as_str()
    );
}

/// `decode(encode(m)) == m` and `encode(m).len() == serialized_size(&m)` for
/// every message variant (all nested enum variants covered by construction).
#[test]
fn every_message_variant_roundtrips_at_its_counted_size() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        for which in 0..MESSAGE_VARIANTS {
            let m = message(&mut rng, which);
            assert_roundtrip(&m, seed, which);
        }
    }
}

/// Envelopes (the actual framed unit on the TCP wire) roundtrip too.
#[test]
fn envelopes_roundtrip_at_their_counted_size() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        for which in 0..MESSAGE_VARIANTS {
            let envelope = Envelope {
                from: node(&mut rng),
                to: node(&mut rng),
                message: message(&mut rng, which),
            };
            let bytes = encode(&envelope).unwrap();
            assert_eq!(bytes.len(), serialized_size(&envelope), "seed {seed}");
            assert_eq!(decode::<Envelope>(&bytes).unwrap(), envelope, "seed {seed}");
        }
    }
}

/// In-process object payloads encode to the same bytes their `to_wire`
/// produces, and decode as the `Bytes` variant (the canonical wire form).
#[test]
fn object_payloads_canonicalize_to_bytes() {
    use nimbus_core::appdata::VecF64;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..rng.gen_range(0usize..16))
            .map(|_| rng.gen_range(-1e6..1e6))
            .collect();
        let object_form = Message::Data(DataTransfer {
            job: JobId(3),
            transfer: TransferId(7),
            from_worker: WorkerId(1),
            payload: DataPayload::Object(Box::new(VecF64::new(values.clone()))),
        });
        let bytes_form = Message::Data(DataTransfer {
            job: JobId(3),
            transfer: TransferId(7),
            from_worker: WorkerId(1),
            payload: DataPayload::Bytes(bytes::Bytes::from_vec(
                values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            )),
        });
        let encoded = encode(&object_form).unwrap();
        assert_eq!(encoded, encode(&bytes_form).unwrap(), "seed {seed}");
        assert_eq!(
            decode::<Message>(&encoded).unwrap(),
            bytes_form,
            "seed {seed}"
        );
        // PartialEq follows the wire representation, so both forms agree.
        assert_eq!(object_form, bytes_form, "seed {seed}");
    }
}

/// No prefix of a valid encoding decodes (frames are all-or-nothing), and
/// none of them panics the decoder.
#[test]
fn truncated_encodings_error_cleanly() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let which = rng.gen_range(0usize..MESSAGE_VARIANTS as usize) as u32;
        let m = message(&mut rng, which);
        let bytes = encode(&m).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode::<Message>(&bytes[..cut]).is_err(),
                "seed {seed}: {cut}-byte prefix of a {}-byte encoding decoded",
                bytes.len()
            );
        }
    }
}

/// Random byte soup never panics the decoder.
#[test]
fn random_garbage_never_panics() {
    for seed in 0..CASES * 8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..128);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0usize..256) as u8).collect();
        let _ = decode::<Message>(&garbage);
        let _ = decode::<Envelope>(&garbage);
    }
}

/// The buffer-reuse encoder is byte-identical to the allocating one, for
/// every message variant, including when appending to a dirty buffer.
#[test]
fn encode_into_matches_encode_for_every_variant() {
    let mut buf = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        for which in 0..MESSAGE_VARIANTS {
            let m = message(&mut rng, which);
            let fresh = encode(&m).unwrap();
            buf.clear();
            nimbus_net::encode_into(&m, &mut buf).unwrap();
            assert_eq!(
                buf,
                fresh,
                "seed {seed} variant {which} ({})",
                m.tag().as_str()
            );
            // Appending after existing contents leaves them untouched.
            let prefix_len = buf.len();
            nimbus_net::encode_into(&m, &mut buf).unwrap();
            assert_eq!(&buf[..prefix_len], fresh.as_slice(), "seed {seed}");
            assert_eq!(&buf[prefix_len..], fresh.as_slice(), "seed {seed}");
        }
    }
}

/// Batch frames roundtrip every message variant in order, and every
/// truncation of the batch payload is rejected rather than silently parsed
/// as a shorter batch.
#[test]
fn batch_frames_roundtrip_and_reject_truncation() {
    use nimbus_net::framing::{append_batch_frame, parse_batch, BATCH_FLAG};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(2usize..8);
        let mut envelopes = Vec::with_capacity(count);
        for _ in 0..count {
            let which = rng.gen_range(0u32..MESSAGE_VARIANTS);
            envelopes.push(Envelope {
                from: node(&mut rng),
                to: node(&mut rng),
                message: message(&mut rng, which),
            });
        }
        let mut buf = Vec::new();
        append_batch_frame(&mut buf, &envelopes).unwrap();
        let header = u32::from_le_bytes(buf[..4].try_into().unwrap());
        assert_ne!(header & BATCH_FLAG, 0, "seed {seed}: flag missing");
        assert_eq!(
            (header & !BATCH_FLAG) as usize,
            buf.len() - 4,
            "seed {seed}"
        );
        let payload = &buf[4..];
        assert_eq!(parse_batch(payload).unwrap(), envelopes, "seed {seed}");
        for cut in 1..payload.len() {
            assert!(
                parse_batch(&payload[..payload.len() - cut]).is_err(),
                "seed {seed}: batch cut by {cut} bytes parsed"
            );
        }
    }
}

/// Garbage batch payloads never panic the parser.
#[test]
fn garbage_batch_payloads_never_panic() {
    use nimbus_net::framing::parse_batch;
    for seed in 0..CASES * 8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let _ = parse_batch(&bytes); // must not panic
    }
}
