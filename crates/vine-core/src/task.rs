//! The two execution abstractions the paper contrasts (Table 1):
//!
//! | | State | Worker requirement | Execution requirement |
//! |---|---|---|---|
//! | Task | Stateless | None | Code + Data + Args |
//! | Invocation | Stateful | Code + Data | Args |
//!
//! A [`TaskSpec`] is self-contained: it carries (references to) everything it
//! needs and can run on any worker. A [`FunctionCall`] is an invocation: it
//! names a (library, function) pair and ships only its arguments; it can run
//! only on a worker that hosts the library's context.

use crate::context::{CodeArtifact, FileRef};
use crate::ids::{InvocationId, TaskId};
use crate::resources::Resources;

/// How a library executes an invocation (§3.4 step 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The library runs the invocation synchronously inside its own process,
    /// sharing its memory space directly.
    Direct,
    /// The library forks; the child inherits the context copy-on-write,
    /// executes, writes its result, and exits. Lets many invocations run
    /// concurrently against one shared context.
    Fork,
}

/// The computational shape of a unit of work, used by the simulator to turn
/// work into time on a concrete machine. The live runtime ignores this and
/// runs real code.
///
/// The split between `exec_gflop` and `context_gflop` is the paper's central
/// observation (§2.1.2): a function's code divides into "one [part] that sets
/// up a reusable context and one that invokes computations with the given
/// arguments". Under L1/L2 every execution pays both; under L3 the context
/// part is paid once per library.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkProfile {
    /// Compute in the invocation-distinct part (GFLOP).
    pub exec_gflop: f64,
    /// Compute in the reusable context-setup part — deserializing inputs,
    /// building models, preparing state (GFLOP).
    pub context_gflop: f64,
    /// Bytes the context setup reads from materialized input files (e.g.
    /// loading model parameters from disk into memory).
    pub context_read_bytes: u64,
    /// Bytes of result produced.
    pub output_bytes: u64,
    /// Metadata operations issued against the shared filesystem per
    /// execution when inputs are shared-FS-sourced (L1): the interpreter's
    /// import storm. Ignored at L2/L3.
    pub sharedfs_ops: f64,
    /// Bytes read from the shared filesystem per execution at L1, beyond
    /// `context_read_bytes` (package files, shared objects).
    pub sharedfs_read_bytes: u64,
    /// Multiplier on execution time at L1 for workloads whose *running*
    /// computation also does I/O against the shared filesystem (e.g. PM7
    /// scratch files); 1.0 = no effect.
    pub l1_exec_slowdown: f64,
}

impl WorkProfile {
    pub const fn zero() -> Self {
        WorkProfile {
            exec_gflop: 0.0,
            context_gflop: 0.0,
            context_read_bytes: 0,
            output_bytes: 0,
            sharedfs_ops: 0.0,
            sharedfs_read_bytes: 0,
            l1_exec_slowdown: 1.0,
        }
    }
}

impl Default for WorkProfile {
    fn default() -> Self {
        Self::zero()
    }
}

/// A stateless task (paper Table 1). For function-centric workloads run at
/// reuse levels L1/L2, each invocation is *wrapped* as one of these: a
/// generic runner plus the serialized function and arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    pub id: TaskId,
    pub name: String,
    /// Code the wrapper must reconstruct before executing (empty for
    /// non-function tasks).
    pub code: Vec<CodeArtifact>,
    /// Function to call after reconstruction, if this task wraps an
    /// invocation.
    pub function: Option<String>,
    /// Serialized arguments.
    pub args_blob: Vec<u8>,
    /// Input files the task needs materialized in its sandbox.
    pub inputs: Vec<FileRef>,
    pub resources: Resources,
    pub profile: WorkProfile,
}

impl TaskSpec {
    pub fn new(id: TaskId, name: impl Into<String>) -> Self {
        TaskSpec {
            id,
            name: name.into(),
            code: Vec::new(),
            function: None,
            args_blob: Vec::new(),
            inputs: Vec::new(),
            resources: Resources::new(1, 1024, 1024),
            profile: WorkProfile::zero(),
        }
    }
}

/// A function invocation (paper Table 1, and `vine.FunctionCall` in Fig 5):
/// addressed to a named library and function, carrying only arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionCall {
    pub id: InvocationId,
    pub library: String,
    pub function: String,
    /// Serialized arguments — the only payload an invocation ships (§2.1.4).
    pub args_blob: Vec<u8>,
    pub resources: Resources,
    /// Overrides the library's default execution mode if set.
    pub exec_mode: Option<ExecMode>,
    pub profile: WorkProfile,
}

impl FunctionCall {
    pub fn new(
        id: InvocationId,
        library: impl Into<String>,
        function: impl Into<String>,
        args_blob: Vec<u8>,
    ) -> Self {
        FunctionCall {
            id,
            library: library.into(),
            function: function.into(),
            args_blob,
            resources: Resources::new(1, 1024, 1024),
            exec_mode: None,
            profile: WorkProfile::zero(),
        }
    }

    /// The mode this call runs in: its own `exec_mode` when set, otherwise
    /// its library's default (§3.4 step 4). The live worker and both
    /// simulator drivers ask this one rule.
    pub fn mode(&self, library_default: ExecMode) -> ExecMode {
        self.exec_mode.unwrap_or(library_default)
    }
}

/// Anything the manager can schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkUnit {
    Task(TaskSpec),
    Call(FunctionCall),
}

impl WorkUnit {
    pub fn resources(&self) -> Resources {
        match self {
            WorkUnit::Task(t) => t.resources,
            WorkUnit::Call(c) => c.resources,
        }
    }

    pub fn display_id(&self) -> String {
        match self {
            WorkUnit::Task(t) => t.id.to_string(),
            WorkUnit::Call(c) => c.id.to_string(),
        }
    }

    /// The identifier this unit's [`Outcome`] will carry.
    pub fn id(&self) -> UnitId {
        match self {
            WorkUnit::Task(t) => UnitId::Task(t.id),
            WorkUnit::Call(c) => UnitId::Call(c.id),
        }
    }
}

/// The identifier of a completed unit, carried on results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitId {
    Task(TaskId),
    Call(InvocationId),
}

/// A finished unit's result as reported to the application.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub unit: UnitId,
    /// Serialized return value (empty on failure).
    pub result_blob: Vec<u8>,
    pub success: bool,
    /// Human-readable failure reason, if any.
    pub error: Option<String>,
}

impl Outcome {
    pub fn ok(unit: UnitId, result_blob: Vec<u8>) -> Self {
        Outcome {
            unit,
            result_blob,
            success: true,
            error: None,
        }
    }

    pub fn failed(unit: UnitId, error: impl Into<String>) -> Self {
        Outcome {
            unit,
            result_blob: Vec::new(),
            success: false,
            error: Some(error.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_and_call_defaults() {
        let t = TaskSpec::new(TaskId(1), "wrap");
        assert!(t.code.is_empty());
        assert!(t.function.is_none());
        let c = FunctionCall::new(InvocationId(1), "lib", "f", vec![1, 2]);
        assert_eq!(c.library, "lib");
        assert_eq!(c.args_blob, vec![1, 2]);
        assert!(c.exec_mode.is_none());
    }

    #[test]
    fn work_unit_accessors() {
        let mut t = TaskSpec::new(TaskId(3), "x");
        t.resources = Resources::new(2, 64, 64);
        let u = WorkUnit::Task(t);
        assert_eq!(u.resources(), Resources::new(2, 64, 64));
        assert_eq!(u.display_id(), "t3");

        let c = FunctionCall::new(InvocationId(9), "lib", "f", vec![]);
        let u = WorkUnit::Call(c);
        assert_eq!(u.display_id(), "i9");
    }

    #[test]
    fn outcome_constructors() {
        let ok = Outcome::ok(UnitId::Task(TaskId(1)), vec![7]);
        assert!(ok.success);
        assert!(ok.error.is_none());
        let bad = Outcome::failed(UnitId::Call(InvocationId(2)), "worker died");
        assert!(!bad.success);
        assert_eq!(bad.error.as_deref(), Some("worker died"));
        assert!(bad.result_blob.is_empty());
    }
}
