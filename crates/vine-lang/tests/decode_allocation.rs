//! Decoding allocates in proportion to its input: a count read from the
//! bytes cannot reserve memory the bytes cannot fill. A test binary of its
//! own, because it counts every request through the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn false_counts_cannot_reserve_memory() {
    // 250 nested VPK2 LIST headers (tag 6), each claiming 2^32 items in
    // a five-byte varint count
    let mut blob = b"VPK2".to_vec();
    for _ in 0..250 {
        blob.push(6);
        blob.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
    }
    assert_eq!(blob.len(), 1504);
    let globals = Rc::new(RefCell::new(BTreeMap::new()));

    let before = REQUESTED.load(Ordering::Relaxed);
    let decoded = vine_lang::pickle::deserialize_value(&blob, &globals);
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    assert!(decoded.is_err());
    assert!(requested < 1 << 20, "decoding requested {requested} bytes");
}
