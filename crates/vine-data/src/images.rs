//! Content-addressed store for compiled library images.
//!
//! A compiled vine-lang module is context in the paper's sense (§2.2.3):
//! computed once, immutable, and named by the digest of the source it came
//! from. The manager interns the image it compiles at `install_library`
//! time, so installing the same library source into many workers (or
//! re-installing after a worker loss) compiles exactly once.
//!
//! The store holds opaque bytes rather than decoded code on purpose: bytes
//! are `Send`/`Sync` and identical on every host, while decoded bytecode
//! is an `Rc`-linked structure each library daemon thread decodes privately.

use std::collections::BTreeMap;
use std::sync::Arc;
use vine_core::ids::ContentHash;

/// Interning table: source digest → compiled image bytes, with hit/miss
/// accounting so benchmarks and tests can see the dedup working.
#[derive(Debug, Default)]
pub struct CompiledImageStore {
    by_digest: BTreeMap<ContentHash, Arc<Vec<u8>>>,
    stats: ImageStoreStats,
}

/// Observability counters for the store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ImageStoreStats {
    /// Lookups answered from the table (no compile needed).
    pub hits: u64,
    /// Images produced and inserted (the compile events).
    pub misses: u64,
}

impl CompiledImageStore {
    pub fn new() -> CompiledImageStore {
        CompiledImageStore::default()
    }

    /// The image for `digest`, producing (and interning) it on first
    /// request. `produce` compiles the source.
    pub fn intern_with(
        &mut self,
        digest: ContentHash,
        produce: impl FnOnce() -> Vec<u8>,
    ) -> Arc<Vec<u8>> {
        if let Some(bytes) = self.by_digest.get(&digest) {
            self.stats.hits += 1;
            return Arc::clone(bytes);
        }
        self.stats.misses += 1;
        let bytes = Arc::new(produce());
        self.by_digest.insert(digest, Arc::clone(&bytes));
        bytes
    }

    pub fn stats(&self) -> ImageStoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_digests_compile_once() {
        let mut store = CompiledImageStore::new();
        let d = ContentHash::of_str("def f(x) { return x }");
        let mut compiles = 0;
        for _ in 0..5 {
            let bytes = store.intern_with(d, || {
                compiles += 1;
                vec![1, 2, 3]
            });
            assert_eq!(*bytes, vec![1, 2, 3]);
        }
        assert_eq!(compiles, 1);
        assert_eq!(store.stats(), ImageStoreStats { hits: 4, misses: 1 });
    }

    #[test]
    fn distinct_digests_are_distinct_entries() {
        let mut store = CompiledImageStore::new();
        let a = ContentHash::of_str("a");
        let b = ContentHash::of_str("b");
        store.intern_with(a, || vec![1]);
        store.intern_with(b, || vec![2]);
        assert_eq!(*store.intern_with(a, || unreachable!()), vec![1]);
        assert_eq!(*store.intern_with(b, || unreachable!()), vec![2]);
        assert_eq!(store.stats(), ImageStoreStats { hits: 2, misses: 2 });
    }

    #[test]
    fn interned_images_share_one_allocation() {
        let mut store = CompiledImageStore::new();
        let d = ContentHash::of_str("src");
        let first = store.intern_with(d, || vec![9; 1024]);
        let second = store.intern_with(d, || unreachable!("must not re-produce"));
        assert!(Arc::ptr_eq(&first, &second));
    }
}
