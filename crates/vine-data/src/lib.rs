//! # vine-data
//!
//! The data plane. Four pieces:
//!
//! * [`images::CompiledImageStore`] — content-addressed interning of
//!   compiled library images by source digest: the manager compiles each
//!   distinct library source once.
//! * [`store::ContentStore`] — the manager's table of declared files.
//!   Every transferable is immutable and content-addressed (paper §2.2.2:
//!   unique, read-only naming is what makes worker-to-worker transfers safe
//!   from silent corruption). Declaring identical content twice yields the
//!   *same* file.
//! * [`cache::WorkerCache`] — a worker's local store, keyed by content
//!   hash, with LRU eviction, pinning for in-use files, and strict capacity
//!   accounting. This is where the **retain** mechanism keeps context on
//!   disk between invocations (reuse level L2).
//! * [`sharedfs::SharedFsModel`] — the Panasas-style shared filesystem the
//!   paper's L1 baseline hammers: finite aggregate bandwidth and IOPS,
//!   fair-shared among concurrent readers.

pub mod cache;
pub mod images;
pub mod sharedfs;
pub mod store;

pub use cache::WorkerCache;
pub use images::CompiledImageStore;
pub use sharedfs::SharedFsModel;
pub use store::ContentStore;
