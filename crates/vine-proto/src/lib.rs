//! # vine-proto
//!
//! The wire protocol between the three live processes of the paper's
//! architecture (§3.4, §3.5): the **manager**, its **workers**, and the
//! **library daemons** each worker hosts. Two message planes:
//!
//! * [`messages`] — manager ↔ worker: join/leave with capacity, library
//!   install/ready/startup-failed, invocation dispatch/result/requeue,
//!   stateless tasks, and file-staging directives;
//! * [`library`] — worker ↔ library: the §3.4 step 1–4 daemon protocol.
//!
//! Federated deployments add a third plane, [`routing`] — router ↔ shard:
//! shard join, submission forwarding, results, and load reports.
//!
//! Every plane is plain Rust types with no substrate baked in. The
//! in-process runtime moves them over channels untouched; the TCP runtime
//! moves the manager and routing planes through [`framing`] —
//! length-prefixed frames with explicit maximum-frame, truncation, and
//! garbage-frame error paths — so a worker can live in a different OS
//! process (or machine) from its manager. A frame's payload is binary
//! ([`codec`]): each message writes its fields in order through the
//! [`Wire`] trait, byte fields such as arguments, results and compiled
//! images ride raw, and decoding checks lengths and counts through the
//! same bounded reader as the language's pickles and compiled images. The
//! library plane moves only over channels, so it has no wire form.

pub mod codec;
pub mod framing;
pub mod library;
pub mod messages;
pub mod routing;

pub use codec::Wire;
pub use framing::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, FrameDecoder, FrameError, MAX_FRAME,
};
pub use library::{LibraryToWorker, WorkerToLibrary};
pub use messages::{CompiledBlob, LibraryImage, ManagerToWorker, WorkerToManager};
pub use routing::{render_shard_stats, RouterToShard, ShardStats, ShardToRouter};
