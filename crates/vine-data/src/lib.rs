//! # vine-data
//!
//! The data plane: [`cache::WorkerCache`], a worker's local store, keyed
//! by content hash, with LRU eviction, pinning for in-use files, and
//! strict capacity accounting. This is where the **retain** mechanism
//! keeps context on disk between invocations (reuse level L2).

pub mod cache;

pub use cache::WorkerCache;
