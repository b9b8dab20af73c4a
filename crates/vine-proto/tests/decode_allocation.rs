//! Decoding a frame allocates in proportion to its payload: a count or
//! length read from the bytes cannot reserve memory the bytes cannot fill.
//! A test binary of its own, because it counts every request through the
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vine_proto::{decode_frame, FrameError, ManagerToWorker};

struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The default `realloc` allocates anew through
// `alloc`, so growth counts too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
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
        let before = REQUESTED.load(Ordering::Relaxed);
        let decoded = decode_frame::<ManagerToWorker>(&frame);
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
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
