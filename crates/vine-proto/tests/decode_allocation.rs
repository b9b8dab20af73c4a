//! Decoding a frame allocates in proportion to its payload: a count or
//! length read from the bytes cannot reserve memory the bytes cannot fill.
//! A test binary of its own, because it counts every request through the
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vine_proto::{codec, decode_frame, FrameError, ManagerToWorker, ShardToRouter, MAX_FRAME};

struct Counting;

thread_local! {
    /// Bytes this thread has requested: the tests run side by side, and
    /// each counts only its own decodes.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn requested_so_far() -> usize {
    REQUESTED.with(Cell::get)
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The default `realloc` allocates anew through
// `alloc`, so growth counts too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// LEB128 of `u32::MAX`.
const CLAIM: [u8; 5] = [0xff, 0xff, 0xff, 0xff, 0x0f];

/// A frame whose payload is the magic, `fields`, the false claim, and a
/// few real bytes.
fn frame(fields: &[u8]) -> Vec<u8> {
    let payload = [&codec::MAGIC[..], fields, &CLAIM, b"short"].concat();
    [&(payload.len() as u32).to_le_bytes()[..], &payload].concat()
}

type Decode = fn(&[u8]) -> Result<(), FrameError>;

fn manager_to_worker(frame: &[u8]) -> Result<(), FrameError> {
    decode_frame::<ManagerToWorker>(frame).map(drop)
}

fn shard_to_router(frame: &[u8]) -> Result<(), FrameError> {
    decode_frame::<ShardToRouter>(frame).map(drop)
}

#[test]
fn false_counts_and_lengths_cannot_reserve_memory() {
    let length = "truncated input";
    let count = "count 4294967295 exceeds the input";
    // each claim lands on a real field: before it come a tag, then zeros
    // (ids and empty strings)
    let cases: [(&str, Decode, Vec<u8>, &str); 5] = [
        // InstallLibrary: instance, then `source`
        ("install source", manager_to_worker, frame(&[1, 0]), length),
        // InstallLibrary: instance, source, then `serialized_functions`
        (
            "install functions",
            manager_to_worker,
            frame(&[1, 0, 0]),
            count,
        ),
        // Invoke: instance, call id, library, function, then `args_blob`
        (
            "invoke args",
            manager_to_worker,
            frame(&[3, 0, 0, 0, 0]),
            length,
        ),
        // RunTask: task id, name, then `code`
        ("task code", manager_to_worker, frame(&[4, 0, 0]), count),
        // ShardJoin: shard, workers, then `libraries`
        ("shard libraries", shard_to_router, frame(&[0, 0, 0]), count),
    ];
    for (name, decode, frame, want) in cases {
        let before = requested_so_far();
        let decoded = decode(&frame);
        let requested = requested_so_far() - before;
        match decoded {
            Err(FrameError::Malformed(m)) => assert!(m.contains(want), "{name}: {m}"),
            other => panic!("{name}: expected Malformed, got {other:?}"),
        }
        assert!(
            requested < 1 << 20,
            "{name}: decoding requested {requested} bytes"
        );
    }
}

#[test]
fn a_frame_header_cannot_reserve_its_claimed_payload() {
    // the largest payload a header may announce, over a 10-byte body
    let mut frame = (MAX_FRAME as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(b"VFR2short.");
    let before = requested_so_far();
    let decoded = decode_frame::<ManagerToWorker>(&frame);
    let requested = requested_so_far() - before;
    assert!(
        matches!(
            decoded,
            Err(FrameError::Truncated {
                expected: MAX_FRAME,
                got: 10
            })
        ),
        "{decoded:?}"
    );
    assert!(
        requested < 1 << 20,
        "reading the frame requested {requested} bytes"
    );
}
