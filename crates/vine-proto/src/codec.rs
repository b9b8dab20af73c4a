//! The frame payload codec: every framed message writes itself through
//! [`vine_core::wire`]'s [`Writer`] and reads itself back through its
//! bounded [`Reader`], with nothing built in between.
//!
//! A payload is the magic `VFR2` followed by one message. The [`Wire`]
//! impls below, for the four framed roots and every type they reach, are
//! the one place the layout is decided:
//!
//! * a struct is its fields in declaration order;
//! * an enum is a tag byte (its variant's position) followed by the
//!   variant's fields;
//! * `u32` and `u64` values, and string, byte and sequence lengths, are
//!   LEB128 varints;
//! * a `u128` (a content hash) is 16 bytes and an `f64` is 8, both
//!   little-endian;
//! * a bool or an `Option` marker is one byte, 0 or 1.
//!
//! No field or variant is named on the wire, so a frame is its byte fields
//! plus a few bytes per scalar. Decoding is driven by the expected type,
//! so no frame nests deeper than its type does. Lengths and counts are
//! checked against the bytes left before anything is reserved, through the
//! reader `VPK2` pickles and `VBC2` images share, and an unknown tag, a
//! marker byte other than 0 or 1, bad UTF-8, a `u32` out of range and
//! trailing bytes are errors.

use crate::messages::{CompiledBlob, LibraryImage, ManagerToWorker, WorkerToManager};
use crate::routing::{RouterToShard, ShardStats, ShardToRouter};
use vine_core::context::{CodeArtifact, FileRef, FileSource, SetupSpec};
use vine_core::ids::{
    ContentHash, FileId, InvocationId, LibraryInstanceId, ShardId, TaskId, WorkerId,
};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, TaskSpec, UnitId, WorkProfile, WorkUnit};
use vine_core::wire::{Reader, Writer};
use vine_core::Result;

/// The payload magic. A peer speaking an older frame format (`VFR1`, or
/// JSON text) fails on it instead of being misread.
pub const MAGIC: &[u8; 4] = b"VFR2";

/// A type a frame can carry: it writes itself and reads itself back.
pub trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader) -> Result<Self>;
}

impl Wire for u32 {
    fn put(&self, w: &mut Writer) {
        w.varint(u64::from(*self));
    }

    fn get(r: &mut Reader) -> Result<Self> {
        let n = r.varint()?;
        u32::try_from(n).map_err(|_| r.err(format!("{n} is out of range for a u32")))
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.varint(*self);
    }

    fn get(r: &mut Reader) -> Result<Self> {
        r.varint()
    }
}

impl Wire for u128 {
    fn put(&self, w: &mut Writer) {
        w.u128(*self);
    }

    fn get(r: &mut Reader) -> Result<Self> {
        r.u128()
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Writer) {
        w.f64(*self);
    }

    fn get(r: &mut Reader) -> Result<Self> {
        r.f64()
    }
}

/// A bool or an `Option` marker: 0 or 1, nothing else.
fn marker(r: &mut Reader) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(r.err(format!("marker byte {b} is neither 0 nor 1"))),
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }

    fn get(r: &mut Reader) -> Result<Self> {
        marker(r)
    }
}

fn put_bytes(w: &mut Writer, b: &[u8]) {
    w.varint(b.len() as u64);
    w.raw(b);
}

fn get_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8]> {
    let n = r.varint_len()?;
    r.take(n)
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        put_bytes(w, self.as_bytes());
    }

    fn get(r: &mut Reader) -> Result<Self> {
        let b = get_bytes(r)?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| r.err("invalid utf-8 in string"))
    }
}

impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        put_bytes(w, self);
    }

    fn get(r: &mut Reader) -> Result<Self> {
        Ok(get_bytes(r)?.to_vec())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }

    fn get(r: &mut Reader) -> Result<Self> {
        let n = r.varint_len()?;
        r.items(n, T::get)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(x) => {
                w.u8(1);
                x.put(w);
            }
        }
    }

    fn get(r: &mut Reader) -> Result<Self> {
        Ok(if marker(r)? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }

    fn get(r: &mut Reader) -> Result<Self> {
        T::get(r).map(Box::new)
    }
}

/// [`Wire`] for structs: the listed fields, in the order listed (a tuple
/// struct lists `0`). A struct literal names every field, so a field left
/// off the list fails to compile.
macro_rules! wire_struct {
    ($($ty:ident { $($field:tt),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }

            fn get(r: &mut Reader) -> Result<Self> {
                Ok($ty { $($field: Wire::get(r)?),* })
            }
        }
    )*};
}

/// [`Wire`] for enums: each variant's tag, then its fields in the order
/// listed. A variant is a unit, has named fields, or holds one value.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal $variant:ident $({ $($field:ident),* })? $(($inner:ident))?),* $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(($inner))? => {
                        w.u8($tag);
                        $($($field.put(w);)*)?
                        $($inner.put(w);)?
                    })*
                }
            }

            fn get(r: &mut Reader) -> Result<Self> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant
                        $({ $($field: Wire::get(r)?),* })?
                        $(({ let $inner = Wire::get(r)?; $inner }))?,)*
                    tag => {
                        return Err(r.err(format!(
                            "unknown {} tag {tag}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    )*};
}

wire_struct! {
    ContentHash { 0 }
    WorkerId { 0 }
    TaskId { 0 }
    InvocationId { 0 }
    LibraryInstanceId { 0 }
    FileId { 0 }
    ShardId { 0 }
    Resources { cores, memory_mb, disk_mb, gpus }
    FileRef { id, hash, name, size_bytes, cache, peer_transfer, source, unpacked_bytes }
    SetupSpec { function, args_blob }
    WorkProfile {
        exec_gflop, context_gflop, context_read_bytes, output_bytes, sharedfs_ops,
        sharedfs_read_bytes, l1_exec_slowdown
    }
    TaskSpec { id, name, code, function, args_blob, inputs, resources, profile }
    FunctionCall { id, library, function, args_blob, resources, exec_mode, profile }
    Outcome { unit, result_blob, success, error }
    CompiledBlob { source_digest, bytes }
    LibraryImage { instance, source, serialized_functions, setup, default_mode, compiled }
    ShardStats {
        shard, workers, routed, finished, requeued, queued, running, frames_in, frames_out,
        bytes_in, bytes_out
    }
}

wire_enum! {
    ExecMode { 0 Direct, 1 Fork }
    FileSource { 0 Manager, 1 SharedFs }
    CodeArtifact { 0 Source { name, text }, 1 Serialized { name, blob } }
    WorkUnit { 0 Task(task), 1 Call(call) }
    UnitId { 0 Task(id), 1 Call(id) }
    ManagerToWorker {
        0 Welcome { worker },
        1 InstallLibrary { image, stage },
        2 RemoveLibrary { instance },
        3 Invoke { instance, call },
        4 RunTask { task, stage },
        5 Shutdown,
    }
    WorkerToManager {
        0 Join { resources },
        1 LibraryReady { instance },
        2 LibraryFailed { instance, error },
        3 UnitDone { outcome },
        4 Requeue { unit },
    }
    RouterToShard { 0 Route { unit }, 1 StatsRequest, 2 Shutdown }
    ShardToRouter {
        0 ShardJoin { shard, workers, libraries },
        1 UnitDone { outcome },
        2 ShardStats { stats },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{decode_frame, encode_frame, FrameError};
    use std::fmt::Debug;

    /// Every message encodes, decodes, and encodes to the same bytes.
    /// Debug text compares the decoded message, NaN and -0.0 included.
    fn round_trip<T: Wire + Debug>(msgs: &[T]) {
        for m in msgs {
            let frame = encode_frame(m).unwrap();
            let back: T = decode_frame(&frame).unwrap();
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
            assert_eq!(encode_frame(&back).unwrap(), frame, "{m:?}");
        }
    }

    fn extreme_profile() -> WorkProfile {
        WorkProfile {
            exec_gflop: f64::NAN,
            context_gflop: -0.0,
            context_read_bytes: u64::MAX,
            output_bytes: 0,
            sharedfs_ops: f64::INFINITY,
            sharedfs_read_bytes: u64::MAX,
            l1_exec_slowdown: f64::MIN_POSITIVE,
        }
    }

    fn extreme_resources() -> Resources {
        Resources {
            cores: u32::MAX,
            memory_mb: u64::MAX,
            disk_mb: 0,
            gpus: u32::MAX,
        }
    }

    fn extreme_file() -> FileRef {
        let mut f = FileRef::new(FileId(u64::MAX), "", ContentHash(u128::MAX), u64::MAX);
        f.cache = false;
        f.source = FileSource::SharedFs;
        f.packed(u64::MAX)
    }

    fn extreme_call() -> FunctionCall {
        FunctionCall {
            id: InvocationId(u64::MAX),
            library: String::new(),
            function: "ƒ→λ".into(),
            args_blob: vec![0, 255],
            resources: extreme_resources(),
            exec_mode: Some(ExecMode::Fork),
            profile: extreme_profile(),
        }
    }

    fn extreme_task() -> TaskSpec {
        TaskSpec {
            id: TaskId(u64::MAX),
            name: "日本".into(),
            code: vec![
                CodeArtifact::Source {
                    name: String::new(),
                    text: "é".into(),
                },
                CodeArtifact::Serialized {
                    name: "f".into(),
                    blob: vec![],
                },
            ],
            function: None,
            args_blob: vec![],
            inputs: vec![
                extreme_file(),
                FileRef::new(FileId(0), "a", ContentHash(0), 0),
            ],
            resources: extreme_resources(),
            profile: extreme_profile(),
        }
    }

    #[test]
    fn every_message_variant_round_trips_with_extreme_fields() {
        let image = LibraryImage {
            instance: LibraryInstanceId(u64::MAX),
            source: "δ".into(),
            serialized_functions: vec![vec![], vec![1]],
            setup: Some(SetupSpec {
                function: String::new(),
                args_blob: vec![7],
            }),
            default_mode: ExecMode::Fork,
            compiled: Some(CompiledBlob {
                source_digest: ContentHash(u128::MAX),
                bytes: vec![0; 3],
            }),
        };
        round_trip(&[
            ManagerToWorker::Welcome {
                worker: WorkerId(u32::MAX),
            },
            ManagerToWorker::InstallLibrary {
                image: image.clone(),
                stage: vec![extreme_file()],
            },
            ManagerToWorker::InstallLibrary {
                image: LibraryImage {
                    setup: None,
                    compiled: None,
                    ..image
                },
                stage: vec![],
            },
            ManagerToWorker::RemoveLibrary {
                instance: LibraryInstanceId(u64::MAX),
            },
            ManagerToWorker::Invoke {
                instance: LibraryInstanceId(u64::MAX),
                call: extreme_call(),
            },
            ManagerToWorker::RunTask {
                task: extreme_task(),
                stage: vec![extreme_file()],
            },
            ManagerToWorker::Shutdown,
        ]);
        round_trip(&[
            WorkerToManager::Join {
                resources: extreme_resources(),
            },
            WorkerToManager::LibraryReady {
                instance: LibraryInstanceId(u64::MAX),
            },
            WorkerToManager::LibraryFailed {
                instance: LibraryInstanceId(0),
                error: "ü".into(),
            },
            WorkerToManager::UnitDone {
                outcome: Outcome::failed(UnitId::Task(TaskId(u64::MAX)), ""),
            },
            WorkerToManager::Requeue {
                unit: UnitId::Call(InvocationId(u64::MAX)),
            },
        ]);
        round_trip(&[
            RouterToShard::Route {
                unit: Box::new(WorkUnit::Task(extreme_task())),
            },
            RouterToShard::Route {
                unit: Box::new(WorkUnit::Call(extreme_call())),
            },
            RouterToShard::StatsRequest,
            RouterToShard::Shutdown,
        ]);
        round_trip(&[
            ShardToRouter::ShardJoin {
                shard: ShardId(u32::MAX),
                workers: u32::MAX,
                libraries: vec![String::new(), "λ".into()],
            },
            ShardToRouter::UnitDone {
                outcome: Outcome::ok(UnitId::Call(InvocationId(u64::MAX)), vec![255]),
            },
            ShardToRouter::ShardStats {
                stats: ShardStats {
                    shard: ShardId(u32::MAX),
                    workers: u32::MAX,
                    routed: u64::MAX,
                    finished: u64::MAX,
                    requeued: u64::MAX,
                    queued: u64::MAX,
                    running: u64::MAX,
                    frames_in: u64::MAX,
                    frames_out: u64::MAX,
                    bytes_in: u64::MAX,
                    bytes_out: u64::MAX,
                },
            },
        ]);
    }

    /// The frame whose payload is the magic, then `parts`.
    fn frame(parts: &[&[u8]]) -> Vec<u8> {
        let body = parts.concat();
        let len = (MAGIC.len() + body.len()) as u32;
        [&len.to_le_bytes()[..], MAGIC, &body].concat()
    }

    #[test]
    fn golden_frames_pin_the_layout() {
        // every field distinct, so that a reordered field list shows
        let invoke = ManagerToWorker::Invoke {
            instance: LibraryInstanceId(3),
            call: FunctionCall {
                id: InvocationId(7),
                library: "lnni".into(),
                function: "infer".into(),
                args_blob: vec![1, 2, 3],
                resources: Resources::new(1, 1024, 2).with_gpus(3),
                exec_mode: Some(ExecMode::Fork),
                profile: WorkProfile {
                    exec_gflop: 0.5,
                    context_gflop: 2.0,
                    context_read_bytes: 4,
                    output_bytes: 5,
                    sharedfs_ops: 0.25,
                    sharedfs_read_bytes: 6,
                    l1_exec_slowdown: 1.0,
                },
            },
        };
        let golden = frame(&[
            &[3, 3, 7], // Invoke, instance, call id
            &[4],       // library: its length, then its bytes
            b"lnni",
            &[5], // function
            b"infer",
            &[3, 1, 2, 3],       // args_blob
            &[1, 0x80, 8, 2, 3], // cores, memory_mb 1024, disk_mb, gpus
            &[1, 1],             // exec_mode: Some(Fork)
            // the profile's fields, in order
            &0.5f64.to_le_bytes(),
            &2.0f64.to_le_bytes(),
            &[4, 5],
            &0.25f64.to_le_bytes(),
            &[6],
            &1.0f64.to_le_bytes(),
        ]);
        assert_eq!(encode_frame(&invoke).unwrap(), golden);

        let done = WorkerToManager::UnitDone {
            outcome: Outcome::ok(UnitId::Call(InvocationId(7)), vec![9, 8]),
        };
        // UnitDone, Call 7, result_blob, success, error: None
        let golden = frame(&[&[3, 1, 7, 2, 9, 8, 1, 0]]);
        assert_eq!(encode_frame(&done).unwrap(), golden);

        let join = ShardToRouter::ShardJoin {
            shard: ShardId(2),
            workers: 300,
            libraries: vec!["lnni-0".into(), "é".into()],
        };
        // ShardJoin, shard 2, workers 300, two names
        let golden = frame(&[&[0, 2, 0xac, 2, 2, 6], b"lnni-0", &[2], "é".as_bytes()]);
        assert_eq!(encode_frame(&join).unwrap(), golden);
    }

    #[test]
    fn bad_bytes_are_malformed() {
        let cases: [(&str, std::result::Result<(), FrameError>, &str); 6] = [
            (
                "unknown tag",
                decode_frame::<ManagerToWorker>(&frame(&[&[6]])).map(drop),
                "unknown ManagerToWorker tag 6",
            ),
            (
                "bool byte 2",
                decode_frame::<WorkerToManager>(&frame(&[&[3, 1, 7, 0, 2, 0]])).map(drop),
                "marker byte 2",
            ),
            (
                "option byte 2",
                decode_frame::<WorkerToManager>(&frame(&[&[3, 1, 7, 0, 1, 2]])).map(drop),
                "marker byte 2",
            ),
            (
                "bad utf-8",
                decode_frame::<WorkerToManager>(&frame(&[&[2, 1, 1, 0xff]])).map(drop),
                "invalid utf-8",
            ),
            (
                "u32 out of range",
                // Welcome { worker: 2^32 }
                decode_frame::<ManagerToWorker>(&frame(&[&[0, 0x80, 0x80, 0x80, 0x80, 0x10]]))
                    .map(drop),
                "4294967296 is out of range for a u32",
            ),
            (
                "trailing bytes",
                decode_frame::<RouterToShard>(&frame(&[&[2, 0]])).map(drop),
                "trailing bytes",
            ),
        ];
        for (name, got, want) in cases {
            match got {
                Err(FrameError::Malformed(m)) => assert!(m.contains(want), "{name}: {m}"),
                other => panic!("{name}: expected Malformed, got {other:?}"),
            }
        }
    }
}
