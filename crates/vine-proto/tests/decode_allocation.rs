//! Decoding a frame allocates in proportion to its payload: a count or
//! length read from the bytes cannot reserve memory the bytes cannot fill.
//! A test binary of its own, because it counts every request through the
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vine_proto::{decode_frame, FrameError, ManagerToWorker, MAX_FRAME};

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

fn frame(body: &[u8]) -> Vec<u8> {
    let mut payload = b"VFR1".to_vec();
    payload.extend_from_slice(body);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn false_counts_and_lengths_cannot_reserve_memory() {
    let claim = |tag: u8| {
        let mut body = vec![tag];
        body.extend_from_slice(&CLAIM);
        body.extend_from_slice(b"short");
        body
    };
    // 250 nested sequences (tag 9) and maps (tag 10), each claiming
    // u32::MAX elements
    let nested = |tag: u8| (0..250).flat_map(|_| claim(tag)).collect::<Vec<u8>>();
    let cases = [
        ("string", claim(7)),
        ("bytes", claim(8)),
        ("sequence", claim(9)),
        ("map", claim(10)),
        ("nested sequences", nested(9)),
        ("nested maps", nested(10)),
    ];
    for (name, body) in cases {
        let frame = frame(&body);
        let before = requested_so_far();
        let decoded = decode_frame::<ManagerToWorker>(&frame);
        let requested = requested_so_far() - before;
        assert!(
            matches!(decoded, Err(FrameError::Malformed(_))),
            "{name}: {decoded:?}"
        );
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
    frame.extend_from_slice(b"VFR1short.");
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
