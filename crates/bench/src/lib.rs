//! # bench
//!
//! The experiment harness. [`experiments`] has one function per table and
//! figure of the paper's evaluation; [`table::Table`] is the common output
//! shape (printable and JSON-serializable). [`live`] drives the live
//! runtime over both transports (`repro serve` / `repro join` and the
//! `--transport` flag). The `repro` binary dispatches by experiment id
//! and runs the self-benchmarks (`repro perf`, `repro shard`) that write
//! `BENCH_*.json`.

pub mod experiments;
pub mod live;
pub mod net;
pub mod shard;
pub mod table;

pub use table::Table;
