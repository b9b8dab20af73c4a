//! # vine-core
//!
//! Foundational types for `vine-rs`, a Rust reproduction of the HPDC '24
//! paper *"Accelerating Function-Centric Applications by Discovering,
//! Distributing, and Retaining Reusable Context in Workflow Systems"*
//! (Phung, Thomas, Ward, Chard, Thain).
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`ids`] — typed identifiers and content-addressed hashes. All
//!   transferable data in the system is immutable and named by the hash of
//!   its content, which is what makes peer-to-peer distribution safe
//!   (paper §2.2.2: "any transferable data in the system has to be uniquely
//!   identified and read-only, otherwise data corruption can silently
//!   happen").
//! * [`resources`] — core/memory/disk/gpu allocations and their arithmetic.
//! * [`time`] — simulated time as integer microseconds.
//! * [`task`] — the two execution abstractions the paper contrasts
//!   (Table 1): a stateless *task* that ships code + data + args, and a
//!   stateful *invocation* that ships only args to a worker holding the
//!   function's context.
//! * [`context`] — the four discoverable elements of a function context
//!   (paper §2.2.1): function code, software dependencies, input data, and
//!   arbitrary environment setup.
//! * [`config`] — the calibrated cost model used by the discrete-event
//!   simulator, with every constant cross-referenced to a paper table.
//! * [`trace`] — execution telemetry: per-invocation phase breakdowns,
//!   summary statistics and histograms matching the paper's evaluation
//!   artifacts (Tables 4 & 5, Figures 7, 10, 11).
//! * [`error`] — the shared error type.
//! * [`wire`] — the bounded byte reader and writer under every binary
//!   codec: pickles, compiled images and wire frames.

pub mod config;
pub mod context;
pub mod error;
pub mod ids;
pub mod resources;
pub mod task;
pub mod time;
pub mod trace;
pub mod wire;

pub use config::{CostModel, ReuseLevel};
pub use context::{ContextSpec, FileRef, LibrarySpec, SetupSpec};
pub use error::{Result, VineError};
pub use ids::{ContentHash, FileId, InvocationId, LibraryInstanceId, ShardId, TaskId, WorkerId};
pub use resources::Resources;
pub use task::{ExecMode, FunctionCall, TaskSpec, WorkUnit};
pub use time::{SimDuration, SimTime};
