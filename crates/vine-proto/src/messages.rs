//! The manager ↔ worker protocol plane (paper §3.4 steps 1–4, §3.5).
//!
//! The manager is the only coordinator; workers are peers that join with a
//! capacity announcement, receive library installs and work dispatches,
//! and report readiness and results. Every message is substrate-neutral:
//! the in-process backend moves them over channels, the TCP backend
//! through [`crate::framing`].

use vine_core::context::{FileRef, SetupSpec};
use vine_core::ids::{ContentHash, LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, TaskSpec, UnitId};

/// A compiled library module, content-addressed by the digest of the
/// source it was compiled from. The manager compiles once per distinct
/// source at install time, and daemons boot by executing it: no worker
/// parses library source.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledBlob {
    pub source_digest: ContentHash,
    pub bytes: Vec<u8>,
}

/// Everything a worker needs to boot a library daemon (what the manager
/// ships: code + setup + environment identity). A daemon runs `compiled`,
/// binds `serialized_functions`, then calls `setup` once.
#[derive(Clone, Debug, PartialEq)]
pub struct LibraryImage {
    pub instance: LibraryInstanceId,
    /// vine-lang source of the library's module (functions + setup), the
    /// text `compiled` was compiled from. Daemons never parse it.
    pub source: String,
    /// Serialized functions with no source form, reconstructed on boot.
    pub serialized_functions: Vec<Vec<u8>>,
    /// Context setup to run once on boot (§2.2.1 element 4, Fig 5's
    /// `create_library_from_functions`), if the library declares one.
    pub setup: Option<SetupSpec>,
    pub default_mode: ExecMode,
    /// The module compiled from `source` at install time. `None` means
    /// the library has no module code; a daemon refuses an image that
    /// has source but no compiled module.
    pub compiled: Option<CompiledBlob>,
}

/// Messages the manager sends a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ManagerToWorker {
    /// Handshake reply: the manager admits the worker under this id.
    Welcome { worker: WorkerId },
    /// Stage the listed context files, then boot a library instance and
    /// run its context setup (§3.4 steps 1–2). The worker answers with
    /// [`WorkerToManager::LibraryReady`] or
    /// [`WorkerToManager::LibraryFailed`].
    InstallLibrary {
        image: LibraryImage,
        /// Files the worker's cache is missing (file-transfer directive).
        stage: Vec<FileRef>,
    },
    /// Remove an empty library instance to reclaim resources (§3.5.2).
    RemoveLibrary { instance: LibraryInstanceId },
    /// Dispatch an invocation to a ready library instance (§3.4 step 3).
    Invoke {
        instance: LibraryInstanceId,
        call: FunctionCall,
    },
    /// Stage the listed inputs, then run a stateless task (the L1/L2
    /// whole-worker path).
    RunTask { task: TaskSpec, stage: Vec<FileRef> },
    /// Drain in-flight work and disconnect.
    Shutdown,
}

/// Messages a worker sends the manager.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerToManager {
    /// Handshake: announce capacity and ask to join the cluster (§3.5).
    /// Answered with [`ManagerToWorker::Welcome`].
    Join { resources: Resources },
    /// A library instance finished context setup and serves invocations.
    LibraryReady { instance: LibraryInstanceId },
    /// A library instance failed to boot; it holds no resources.
    LibraryFailed {
        instance: LibraryInstanceId,
        error: String,
    },
    /// A dispatched unit finished (success or execution failure).
    UnitDone { outcome: Outcome },
    /// The worker cannot execute a dispatched unit through no fault of
    /// the unit itself (e.g. the target instance vanished in an eviction
    /// race); the manager requeues its own copy of the unit.
    Requeue { unit: UnitId },
}
