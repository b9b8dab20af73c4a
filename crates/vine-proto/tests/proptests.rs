//! Property-based tests for the wire protocol: every message type of the
//! manager and routing planes round-trips exactly through the framed
//! codec, and both decoders (`read_frame` and the incremental
//! `FrameDecoder`) reject alike — never panic on, never misread —
//! truncated, oversized, and corrupt frames.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fmt::Debug;
use std::io::Cursor;
use vine_core::context::{CodeArtifact, FileRef, FileSource, SetupSpec};
use vine_core::ids::{
    ContentHash, FileId, InvocationId, LibraryInstanceId, ShardId, TaskId, WorkerId,
};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, TaskSpec, UnitId, WorkProfile, WorkUnit};
use vine_proto::{
    codec, encode_frame, read_frame, write_frame, CompiledBlob, Frame, FrameDecoder, FrameError,
    LibraryImage, ManagerToWorker, RouterToShard, ShardStats, ShardToRouter, Wire, WorkerToManager,
    MAX_FRAME,
};

// ---- strategies over the core vocabulary ----

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_\\-\\.]{0,16}"
}

fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..64)
}

fn arb_exec_mode() -> impl Strategy<Value = ExecMode> {
    prop_oneof![Just(ExecMode::Direct), Just(ExecMode::Fork)]
}

fn arb_resources() -> impl Strategy<Value = Resources> {
    (any::<u32>(), any::<u64>(), any::<u64>(), 0u32..8)
        .prop_map(|(c, m, d, g)| Resources::new(c, m, d).with_gpus(g))
}

fn arb_profile() -> impl Strategy<Value = WorkProfile> {
    (
        prop::num::f64::NORMAL,
        prop::num::f64::NORMAL,
        any::<u64>(),
        any::<u64>(),
        prop::num::f64::NORMAL,
        any::<u64>(),
    )
        .prop_map(|(eg, cg, crb, ob, ops, srb)| WorkProfile {
            exec_gflop: eg,
            context_gflop: cg,
            context_read_bytes: crb,
            output_bytes: ob,
            sharedfs_ops: ops,
            sharedfs_read_bytes: srb,
            l1_exec_slowdown: 1.0,
        })
}

fn arb_file_ref() -> impl Strategy<Value = FileRef> {
    (
        any::<u64>(),
        any::<u128>(),
        arb_name(),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(FileSource::Manager), Just(FileSource::SharedFs)],
        any::<u64>(),
    )
        .prop_map(|(id, hash, name, size, cache, peer, source, unpacked)| {
            let mut f = FileRef::new(FileId(id), name, ContentHash(hash), size);
            f.cache = cache;
            f.peer_transfer = peer;
            f.source = source;
            f.unpacked_bytes = unpacked;
            f
        })
}

fn arb_code_artifact() -> impl Strategy<Value = CodeArtifact> {
    prop_oneof![
        (arb_name(), "[ -~]{0,48}").prop_map(|(name, text)| CodeArtifact::Source { name, text }),
        (arb_name(), arb_blob()).prop_map(|(name, blob)| CodeArtifact::Serialized { name, blob }),
    ]
}

fn arb_task_spec() -> impl Strategy<Value = TaskSpec> {
    (
        any::<u64>(),
        arb_name(),
        prop::collection::vec(arb_code_artifact(), 0..3),
        prop::option::of(arb_name()),
        arb_blob(),
        prop::collection::vec(arb_file_ref(), 0..3),
        arb_resources(),
        arb_profile(),
    )
        .prop_map(
            |(id, name, code, function, args, inputs, resources, profile)| {
                let mut t = TaskSpec::new(TaskId(id), name);
                t.code = code;
                t.function = function;
                t.args_blob = args;
                t.inputs = inputs;
                t.resources = resources;
                t.profile = profile;
                t
            },
        )
}

fn arb_call() -> impl Strategy<Value = FunctionCall> {
    (
        any::<u64>(),
        arb_name(),
        arb_name(),
        arb_blob(),
        arb_resources(),
        prop::option::of(arb_exec_mode()),
        arb_profile(),
    )
        .prop_map(|(id, library, function, args, resources, mode, profile)| {
            let mut c = FunctionCall::new(InvocationId(id), library, function, args);
            c.resources = resources;
            c.exec_mode = mode;
            c.profile = profile;
            c
        })
}

fn arb_unit_id() -> impl Strategy<Value = UnitId> {
    prop_oneof![
        any::<u64>().prop_map(|n| UnitId::Task(TaskId(n))),
        any::<u64>().prop_map(|n| UnitId::Call(InvocationId(n))),
    ]
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    (arb_unit_id(), arb_blob(), prop::option::of("[ -~]{0,32}")).prop_map(|(unit, blob, error)| {
        match error {
            None => Outcome::ok(unit, blob),
            Some(e) => Outcome::failed(unit, e),
        }
    })
}

fn arb_compiled_blob() -> impl Strategy<Value = CompiledBlob> {
    (any::<u128>(), arb_blob()).prop_map(|(digest, bytes)| CompiledBlob {
        source_digest: ContentHash(digest),
        bytes,
    })
}

fn arb_library_image() -> impl Strategy<Value = LibraryImage> {
    (
        any::<u64>(),
        "[ -~]{0,64}",
        prop::collection::vec(arb_blob(), 0..3),
        prop::option::of((arb_name(), arb_blob())),
        arb_exec_mode(),
        prop::option::of(arb_compiled_blob()),
    )
        .prop_map(|(id, source, blobs, setup, mode, compiled)| LibraryImage {
            instance: LibraryInstanceId(id),
            source,
            serialized_functions: blobs,
            setup: setup.map(|(function, args_blob)| SetupSpec {
                function,
                args_blob,
            }),
            default_mode: mode,
            compiled,
        })
}

// ---- strategies over the message planes ----

fn arb_manager_to_worker() -> impl Strategy<Value = ManagerToWorker> {
    prop_oneof![
        any::<u32>().prop_map(|w| ManagerToWorker::Welcome {
            worker: WorkerId(w)
        }),
        (
            arb_library_image(),
            prop::collection::vec(arb_file_ref(), 0..3)
        )
            .prop_map(|(image, stage)| ManagerToWorker::InstallLibrary { image, stage }),
        any::<u64>().prop_map(|n| ManagerToWorker::RemoveLibrary {
            instance: LibraryInstanceId(n)
        }),
        (any::<u64>(), arb_call()).prop_map(|(n, call)| ManagerToWorker::Invoke {
            instance: LibraryInstanceId(n),
            call
        }),
        (arb_task_spec(), prop::collection::vec(arb_file_ref(), 0..3))
            .prop_map(|(task, stage)| ManagerToWorker::RunTask { task, stage }),
        Just(ManagerToWorker::Shutdown),
    ]
}

fn arb_worker_to_manager() -> impl Strategy<Value = WorkerToManager> {
    prop_oneof![
        arb_resources().prop_map(|resources| WorkerToManager::Join { resources }),
        any::<u64>().prop_map(|n| WorkerToManager::LibraryReady {
            instance: LibraryInstanceId(n)
        }),
        (any::<u64>(), "[ -~]{0,32}").prop_map(|(n, error)| WorkerToManager::LibraryFailed {
            instance: LibraryInstanceId(n),
            error
        }),
        arb_outcome().prop_map(|outcome| WorkerToManager::UnitDone { outcome }),
        arb_unit_id().prop_map(|unit| WorkerToManager::Requeue { unit }),
    ]
}

fn arb_router_to_shard() -> impl Strategy<Value = RouterToShard> {
    prop_oneof![
        arb_task_spec().prop_map(|task| RouterToShard::Route {
            unit: Box::new(WorkUnit::Task(task))
        }),
        arb_call().prop_map(|call| RouterToShard::Route {
            unit: Box::new(WorkUnit::Call(call))
        }),
        Just(RouterToShard::StatsRequest),
        Just(RouterToShard::Shutdown),
    ]
}

/// Eleven fields: nested tuples, because strategy tuples stop at eight.
fn arb_shard_stats() -> impl Strategy<Value = ShardStats> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (shard, workers, routed, finished),
                (requeued, queued, running),
                (frames_in, frames_out, bytes_in, bytes_out),
            )| ShardStats {
                shard: ShardId(shard),
                workers,
                routed,
                finished,
                requeued,
                queued,
                running,
                frames_in,
                frames_out,
                bytes_in,
                bytes_out,
            },
        )
}

fn arb_shard_to_router() -> impl Strategy<Value = ShardToRouter> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(arb_name(), 0..4)
        )
            .prop_map(|(shard, workers, libraries)| ShardToRouter::ShardJoin {
                shard: ShardId(shard),
                workers,
                libraries,
            }),
        arb_outcome().prop_map(|outcome| ShardToRouter::UnitDone { outcome }),
        arb_shard_stats().prop_map(|stats| ShardToRouter::ShardStats { stats }),
    ]
}

// ---- the round-trip property ----

fn roundtrip<T>(msg: &T) -> T
where
    T: Wire + std::fmt::Debug,
{
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("encode");
    let mut cursor = Cursor::new(buf);
    let back: T = read_frame(&mut cursor).expect("decode");
    // the frame must be consumed exactly: nothing left in the stream
    match read_frame::<T>(&mut cursor) {
        Err(FrameError::Closed) => {}
        other => panic!("expected clean EOF after one frame, got {other:?}"),
    }
    back
}

// ---- both decoders, over any framed type ----

type Verdict = Result<(), TestCaseError>;

/// What `FrameDecoder` makes of `wire` and then the end of the stream, in
/// `read_frame`'s terms.
fn decode_incrementally<T: Wire>(wire: &[u8]) -> Result<T, FrameError> {
    let mut dec = FrameDecoder::new();
    dec.extend(wire);
    match dec.decode()? {
        Some(msg) => Ok(msg),
        None => dec.finish().and(Err(FrameError::Closed)),
    }
}

/// `read_frame` and `FrameDecoder` reach one verdict on `wire` (a
/// truncation by the length it expected).
fn decoders_agree<T: Wire + PartialEq + Debug>(wire: &[u8]) -> Verdict {
    let incremental = decode_incrementally::<T>(wire);
    let blocking = read_frame::<T>(&mut Cursor::new(wire));
    match (&incremental, &blocking) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(FrameError::Malformed(a)), Err(FrameError::Malformed(b))) => prop_assert_eq!(a, b),
        (
            Err(FrameError::Truncated { expected: a, .. }),
            Err(FrameError::Truncated { expected: b, .. }),
        ) => prop_assert_eq!(a, b),
        (Err(FrameError::Oversized { .. }), Err(FrameError::Oversized { .. }))
        | (Err(FrameError::Closed), Err(FrameError::Closed)) => {}
        _ => prop_assert!(
            false,
            "decoders disagree: {:?} vs {:?}",
            incremental,
            blocking
        ),
    }
    Ok(())
}

/// Cut strictly inside `msg`'s frame: both decoders report a truncation.
fn truncated<T: Wire + PartialEq + Debug>(msg: &T, keep: u16) -> Verdict {
    let mut wire = encode_frame(msg).unwrap();
    wire.truncate(1 + keep as usize % (wire.len() - 1));
    let blocking = read_frame::<T>(&mut Cursor::new(&wire));
    prop_assert!(
        matches!(blocking, Err(FrameError::Truncated { .. })),
        "expected Truncated, got {:?}",
        blocking
    );
    decoders_agree::<T>(&wire)
}

/// Flip one payload bit (never the length header). The frame may still
/// decode; either way both decoders agree, and neither panics.
fn corrupted<T: Wire + PartialEq + Debug>(msg: &T, flip: u16, bit: u8) -> Verdict {
    let mut wire = encode_frame(msg).unwrap();
    let idx = 4 + flip as usize % (wire.len() - 4);
    wire[idx] ^= 1 << bit;
    decoders_agree::<T>(&wire)
}

/// Byte soup, bare and behind a valid header and the magic, where it
/// reaches the message decoder itself.
fn garbage<T: Wire + PartialEq + Debug>(junk: &[u8]) -> Verdict {
    decoders_agree::<T>(junk)?;
    let payload = [&codec::MAGIC[..], junk].concat();
    let wire = [&(payload.len() as u32).to_le_bytes()[..], &payload].concat();
    decoders_agree::<T>(&wire)
}

/// Frames fed one byte at a time decode to `msgs`, as `read_frame` reads
/// the same bytes.
fn split<T: Wire + PartialEq + Debug>(msgs: &[T]) -> Verdict {
    let wire: Vec<u8> = msgs.iter().flat_map(|m| encode_frame(m).unwrap()).collect();
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for b in &wire {
        dec.extend(std::slice::from_ref(b));
        while let Some(m) = dec.decode::<T>().unwrap() {
            out.push(m);
        }
    }
    prop_assert_eq!(out.as_slice(), msgs);
    prop_assert!(dec.finish().is_ok(), "clean close on a frame boundary");
    let mut cursor = Cursor::new(wire);
    for m in msgs {
        prop_assert_eq!(&read_frame::<T>(&mut cursor).unwrap(), m);
    }
    Ok(())
}

proptest! {
    #[test]
    fn manager_to_worker_roundtrips(msg in arb_manager_to_worker()) {
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn worker_to_manager_roundtrips(msg in arb_worker_to_manager()) {
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn router_to_shard_roundtrips(msg in arb_router_to_shard()) {
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn shard_to_router_roundtrips(msg in arb_shard_to_router()) {
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn back_to_back_frames_decode_in_order(
        a in arb_manager_to_worker(),
        b in arb_manager_to_worker(),
        c in arb_manager_to_worker(),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        write_frame(&mut buf, &c).unwrap();
        let mut cursor = Cursor::new(buf);
        prop_assert_eq!(read_frame::<ManagerToWorker>(&mut cursor).unwrap(), a);
        prop_assert_eq!(read_frame::<ManagerToWorker>(&mut cursor).unwrap(), b);
        prop_assert_eq!(read_frame::<ManagerToWorker>(&mut cursor).unwrap(), c);
    }

    // ---- rejection properties: bad bytes error, never panic ----

    #[test]
    fn truncated_frames_are_rejected(msg in arb_worker_to_manager(), keep in any::<u16>()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        // cut somewhere strictly inside the frame
        let cut = 1 + (keep as usize) % (buf.len() - 1);
        buf.truncate(cut);
        let mut cursor = Cursor::new(buf);
        match read_frame::<WorkerToManager>(&mut cursor) {
            Err(FrameError::Truncated { .. }) => {}
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn oversized_headers_are_rejected(extra in 1u32..1024) {
        // a header that promises more than MAX_FRAME must be refused
        // before any payload allocation happens
        let len = MAX_FRAME as u32 + extra;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut cursor = Cursor::new(buf);
        match read_frame::<ManagerToWorker>(&mut cursor) {
            Err(FrameError::Oversized { .. }) => {}
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }

    #[test]
    fn corrupt_payloads_never_panic(msg in arb_manager_to_worker(), flip in any::<u16>(), bit in 0u8..8) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        // flip one payload bit (never the length header)
        if buf.len() > 4 {
            let idx = 4 + (flip as usize) % (buf.len() - 4);
            buf[idx] ^= 1 << bit;
            let mut cursor = Cursor::new(buf);
            // a flipped bit may still decode (e.g. inside an integer); what
            // it must never do is panic or misread the frame boundary
            let _ = read_frame::<ManagerToWorker>(&mut cursor);
        }
    }

    #[test]
    fn garbage_bytes_never_panic(junk in prop::collection::vec(any::<u8>(), 0..64)) {
        garbage::<WorkerToManager>(&junk)?;
        garbage::<ManagerToWorker>(&junk)?;
    }

    // ---- pre-encoded shared frames (`Frame::encode_once`) ----

    #[test]
    fn encode_once_is_byte_identical_to_write_frame(msg in arb_manager_to_worker()) {
        let mut reference = Vec::new();
        write_frame(&mut reference, &msg).unwrap();
        let frame = Frame::encode_once(msg.clone()).unwrap();
        prop_assert_eq!(&frame.bytes()[..], &reference[..]);
        prop_assert_eq!(frame.bytes().len(), reference.len());
        // the typed copy riding along is the message itself
        prop_assert_eq!(frame.to_message(), msg);
    }

    // ---- incremental decode (the reactor's `FrameDecoder`) ----

    #[test]
    fn decoder_split_at_every_byte_boundary_matches_read_frame(
        msgs in prop::collection::vec(arb_manager_to_worker(), 1..4),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        // feeding one byte at a time exercises every split point in one
        // pass: every header and payload boundary sees a short read
        let mut dec = FrameDecoder::new();
        let mut out: Vec<ManagerToWorker> = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            while let Some(m) = dec.decode::<ManagerToWorker>().unwrap() {
                out.push(m);
            }
            // mid-stream the decoder never errors on a short prefix
            if i + 1 < wire.len() && out.len() < msgs.len() {
                prop_assert!(dec.decode::<ManagerToWorker>().unwrap().is_none());
            }
        }
        prop_assert_eq!(&out, &msgs);
        dec.finish().expect("clean close on a frame boundary");

        // the same bytes through the blocking reader give the same stream
        let mut cursor = Cursor::new(wire);
        for m in &msgs {
            prop_assert_eq!(&read_frame::<ManagerToWorker>(&mut cursor).unwrap(), m);
        }
    }

    #[test]
    fn decoder_handles_arbitrary_chunkings_and_coalesced_frames(
        msgs in prop::collection::vec(arb_manager_to_worker(), 1..5),
        chunks in prop::collection::vec(1usize..512, 1..32),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        // partial writes of arbitrary sizes, including chunks spanning
        // several back-to-back frames at once
        let mut dec = FrameDecoder::new();
        let mut out: Vec<ManagerToWorker> = Vec::new();
        let mut off = 0;
        let mut ci = 0;
        while off < wire.len() {
            let take = chunks[ci % chunks.len()].min(wire.len() - off);
            ci += 1;
            dec.extend(&wire[off..off + take]);
            off += take;
            while let Some(m) = dec.decode::<ManagerToWorker>().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(&out, &msgs);
        prop_assert_eq!(dec.buffered(), 0);
        dec.finish().expect("clean close");
    }

    #[test]
    fn decoder_truncation_matches_read_frame(msg in arb_manager_to_worker(), keep in any::<u16>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        let cut = 1 + (keep as usize) % (wire.len() - 1);
        wire.truncate(cut);

        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        // a truncated frame is "need more bytes" until EOF classifies it
        prop_assert!(dec.decode::<ManagerToWorker>().unwrap().is_none());
        match dec.finish() {
            Err(FrameError::Truncated { .. }) => {}
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }

        let mut cursor = Cursor::new(wire);
        match read_frame::<ManagerToWorker>(&mut cursor) {
            Err(FrameError::Truncated { .. }) => {}
            other => prop_assert!(false, "read_frame disagrees: {:?}", other),
        }
    }

    #[test]
    fn decoder_rejects_oversized_headers_before_buffering_payload(extra in 1u32..1024) {
        let len = MAX_FRAME as u32 + extra;
        let mut dec = FrameDecoder::new();
        dec.extend(&len.to_le_bytes());
        dec.extend(b"xx");
        match dec.decode::<ManagerToWorker>() {
            Err(FrameError::Oversized { .. }) => {}
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }

    #[test]
    fn decoder_corruption_verdict_matches_read_frame(
        msg in arb_manager_to_worker(),
        flip in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        if wire.len() > 4 {
            // flip one payload bit (never the length header) and require
            // the incremental and blocking decoders to agree on the verdict
            let idx = 4 + (flip as usize) % (wire.len() - 4);
            wire[idx] ^= 1 << bit;
            let mut dec = FrameDecoder::new();
            dec.extend(&wire);
            let incremental = dec.decode::<ManagerToWorker>();
            let mut cursor = Cursor::new(wire);
            let blocking = read_frame::<ManagerToWorker>(&mut cursor);
            match (incremental, blocking) {
                (Ok(Some(a)), Ok(b)) => prop_assert_eq!(a, b),
                (Err(FrameError::Malformed(a)), Err(FrameError::Malformed(b))) => {
                    prop_assert_eq!(a, b)
                }
                (a, b) => prop_assert!(false, "decoders disagree: {:?} vs {:?}", a, b),
            }
        }
    }

    // ---- the routing plane: every property, over both directions ----

    #[test]
    fn routing_frames_cut_anywhere_are_truncated(
        a in arb_router_to_shard(),
        b in arb_shard_to_router(),
        keep in any::<u16>(),
    ) {
        truncated(&a, keep)?;
        truncated(&b, keep)?;
    }

    #[test]
    fn routing_frames_with_a_flipped_bit_get_one_verdict(
        a in arb_router_to_shard(),
        b in arb_shard_to_router(),
        flip in any::<u16>(),
        bit in 0u8..8,
    ) {
        corrupted(&a, flip, bit)?;
        corrupted(&b, flip, bit)?;
    }

    #[test]
    fn routing_garbage_bytes_never_panic(junk in prop::collection::vec(any::<u8>(), 0..128)) {
        garbage::<RouterToShard>(&junk)?;
        garbage::<ShardToRouter>(&junk)?;
    }

    #[test]
    fn routing_decoder_split_at_every_byte_boundary_matches_read_frame(
        a in prop::collection::vec(arb_router_to_shard(), 1..4),
        b in prop::collection::vec(arb_shard_to_router(), 1..4),
    ) {
        split(&a)?;
        split(&b)?;
    }
}
