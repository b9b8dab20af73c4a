//! Offline stand-in for the `crossbeam` crate, covering the subset this
//! workspace uses: `channel::unbounded` with blocking, timed and
//! non-blocking receives. Those are exactly `std::sync::mpsc`'s, so the
//! channel is std's, re-exported under crossbeam's names.

pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// An unbounded multi-producer, single-consumer channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
