//! The worker ↔ library protocol (paper §3.4).
//!
//! 1. The worker forks/execs the library.
//! 2. The library boots, runs all context-setup functions, sends
//!    [`LibraryToWorker::Ready`], and waits.
//! 3. The worker receives an invocation from the manager, creates a
//!    sandbox, and sends [`WorkerToLibrary::Invoke`].
//! 4. The library executes (directly or in a fork), serializes the result
//!    into the sandbox, and sends [`LibraryToWorker::ResultReady`]. The
//!    worker returns the result file to the manager and destroys the
//!    sandbox.

use vine_core::ids::InvocationId;
use vine_core::task::ExecMode;

/// Messages a worker sends to a library daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerToLibrary {
    /// Execute an invocation (§3.4 step 3): metadata, arguments, and the
    /// sandbox path.
    Invoke {
        id: InvocationId,
        function: String,
        args_blob: Vec<u8>,
        sandbox: String,
        mode: ExecMode,
    },
    /// Terminate the daemon (library eviction, worker shutdown).
    Shutdown,
}

/// Messages a library daemon sends to its worker.
#[derive(Clone, Debug, PartialEq)]
pub enum LibraryToWorker {
    /// Context setup complete; ready to execute invocations (§3.4 step 2).
    Ready,
    /// Context setup failed; the library is unusable.
    StartupFailed { error: String },
    /// An invocation finished; its result file is in the sandbox
    /// (§3.4 step 4).
    ResultReady {
        id: InvocationId,
        /// Serialized result on success, error text on failure. An
        /// invocation failure does not kill the library.
        result: Result<Vec<u8>, String>,
    },
}
