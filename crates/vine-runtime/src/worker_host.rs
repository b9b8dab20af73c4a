//! The worker engine: relays manager protocol messages to library daemons
//! and runs stateless tasks, mirroring the paper's worker process.
//!
//! The engine speaks [`vine_proto`] on both sides and is substrate-blind:
//! the in-process transport feeds it from channels, the TCP worker agent
//! feeds it from a framed socket — same loop, same semantics. Every
//! hand-off between its threads is a blocking channel receive.

use crate::library_host::{spawn_library, LibraryHost};
use crossbeam::channel::{Receiver, Sender};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::{Outcome, TaskSpec, UnitId, WorkUnit};
use vine_data::CompiledImageStore;
use vine_lang::pickle;
use vine_lang::{Interp, ModuleRegistry};
use vine_proto::{
    CompiledBlob, LibraryToWorker, ManagerToWorker, WorkerToLibrary, WorkerToManager,
};

/// Handle to a spawned in-process worker engine.
pub struct WorkerHandle {
    pub id: WorkerId,
    pub tx: Sender<ManagerToWorker>,
    pub thread: Option<JoinHandle<()>>,
}

/// Spawn a worker engine on its own thread (the in-process backend).
/// Everything the worker tells the manager arrives on `events`, tagged
/// with the worker's id.
pub fn spawn_worker(
    id: WorkerId,
    registry: ModuleRegistry,
    events: Sender<(WorkerId, WorkerToManager)>,
) -> WorkerHandle {
    let (tx, rx) = crossbeam::channel::unbounded::<ManagerToWorker>();
    let thread = std::thread::Builder::new()
        .name(format!("worker-{id}"))
        .spawn(move || worker_engine(id, registry, rx, events))
        .expect("spawn worker thread");
    WorkerHandle {
        id,
        tx,
        thread: Some(thread),
    }
}

/// The worker's command loop: serve [`ManagerToWorker`] messages until
/// `Shutdown` (or the command stream closes), reporting back through
/// `events`. Identical for both transports.
///
/// The loop blocks on `rx` alone. Library daemons reply on their own
/// channel, which a reply-relay thread drains onto `events`, so neither
/// direction waits on the other.
pub fn worker_engine(
    id: WorkerId,
    registry: ModuleRegistry,
    rx: Receiver<ManagerToWorker>,
    events: Sender<(WorkerId, WorkerToManager)>,
) {
    let (lib_tx, lib_rx) =
        crossbeam::channel::unbounded::<(WorkerId, LibraryInstanceId, LibraryToWorker)>();
    let relay = spawn_reply_relay(id, lib_rx, events.clone());
    let mut libraries: BTreeMap<LibraryInstanceId, LibraryHost> = BTreeMap::new();
    let mut task_threads: Vec<JoinHandle<()>> = Vec::new();
    let mut images = CompiledImageStore::new();

    while let Ok(cmd) = rx.recv() {
        match cmd {
            ManagerToWorker::Welcome { .. } => {
                // handshake concern; the transport consumed it already, a
                // stray copy is harmless
            }
            ManagerToWorker::InstallLibrary {
                mut image,
                stage: _,
            } => {
                // the in-process substrate shares one filesystem, so staged
                // context files are already local; the directive matters to
                // remote data planes
                if let Some(CompiledBlob {
                    source_digest,
                    bytes,
                }) = image.compiled.take()
                {
                    // intern shipped bytecode by source digest so N
                    // instances of one library hold one copy and a
                    // re-install after eviction is a map hit
                    let interned = images.intern_with(source_digest, || bytes);
                    image.compiled = Some(CompiledBlob {
                        source_digest,
                        bytes: (*interned).clone(),
                    });
                }
                let host = spawn_library(id, image, registry.clone(), lib_tx.clone());
                libraries.insert(host.instance, host);
            }
            ManagerToWorker::RemoveLibrary { instance } => {
                if let Some(mut host) = libraries.remove(&instance) {
                    let _ = host.tx.send(WorkerToLibrary::Shutdown);
                    if let Some(t) = host.thread.take() {
                        let _ = t.join();
                    }
                }
            }
            ManagerToWorker::Invoke { instance, call } => {
                match libraries.get(&instance) {
                    Some(host) => {
                        // the invocation's option wins; otherwise the
                        // library's default (§3.4 step 4)
                        let mode = call.exec_mode.unwrap_or(host.default_mode);
                        let _ = host.tx.send(WorkerToLibrary::Invoke {
                            id: call.id,
                            sandbox: format!("sandbox/{}", call.id),
                            function: call.function,
                            args_blob: call.args_blob,
                            mode,
                        });
                    }
                    None => {
                        // eviction race: the instance vanished between
                        // dispatch and arrival — not the invocation's
                        // fault, hand it back
                        let _ = events.send((
                            id,
                            WorkerToManager::Requeue {
                                unit: WorkUnit::Call(call),
                            },
                        ));
                    }
                }
            }
            ManagerToWorker::RunTask { task, stage: _ } => {
                // a finished task's handle only pins its stack: let it go
                task_threads.retain(|t| !t.is_finished());
                // each task gets its own thread — stateless tasks on one
                // worker run concurrently, like separate processes
                let events = events.clone();
                let registry = registry.clone();
                let t = std::thread::Builder::new()
                    .name(format!("task-{}", task.id))
                    .spawn(move || {
                        let outcome = execute_task(&task, registry);
                        let _ = events.send((id, WorkerToManager::UnitDone { outcome }));
                    })
                    .expect("spawn task thread");
                task_threads.push(t);
            }
            ManagerToWorker::Shutdown => break,
        }
    }

    // drain: stop libraries, join task threads, then close the reply
    // channel so the relay forwards every reply a daemon sent and exits
    for (_, mut host) in libraries {
        let _ = host.tx.send(WorkerToLibrary::Shutdown);
        if let Some(t) = host.thread.take() {
            let _ = t.join();
        }
    }
    for t in task_threads {
        let _ = t.join();
    }
    drop(lib_tx);
    let _ = relay.join();
}

/// The reply relay: forward what library daemons report, as the manager
/// protocol's messages, until every daemon and the engine have dropped
/// their reply senders.
fn spawn_reply_relay(
    id: WorkerId,
    lib_rx: Receiver<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
    events: Sender<(WorkerId, WorkerToManager)>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("worker-{id}-relay"))
        .spawn(move || {
            while let Ok((_, instance, msg)) = lib_rx.recv() {
                let reply = match msg {
                    LibraryToWorker::Ready => WorkerToManager::LibraryReady { instance },
                    LibraryToWorker::StartupFailed { error } => {
                        WorkerToManager::LibraryFailed { instance, error }
                    }
                    LibraryToWorker::ResultReady {
                        id: call_id,
                        result,
                    } => WorkerToManager::UnitDone {
                        outcome: match result {
                            Ok(blob) => Outcome::ok(UnitId::Call(call_id), blob),
                            Err(e) => Outcome::failed(UnitId::Call(call_id), e),
                        },
                    },
                };
                let _ = events.send((id, reply));
            }
        })
        .expect("spawn reply relay thread")
}

/// Run a stateless task: fresh interpreter, reconstruct shipped code,
/// execute, serialize the result — the full context reload the paper's
/// L1/L2 levels pay per execution.
pub fn execute_task(task: &TaskSpec, registry: ModuleRegistry) -> Outcome {
    execute_task_in(task, Interp::with_registry(registry))
}

/// [`execute_task`] on a given interpreter, which is released afterwards:
/// only the result bytes leave a task, so its namespace is freed.
fn execute_task_in(task: &TaskSpec, mut interp: Interp) -> Outcome {
    let unit = UnitId::Task(task.id);
    let outcome = (|| {
        for artifact in &task.code {
            let result = match artifact {
                CodeArtifact::Source { text, .. } => interp.exec_source(text),
                CodeArtifact::Serialized { blob, .. } => {
                    pickle::deserialize_funcdef(blob).map(|def| interp.bind_function(def))
                }
            };
            if let Err(e) = result {
                return Outcome::failed(unit, format!("reconstructing {}: {e}", artifact.name()));
            }
        }
        let Some(function) = &task.function else {
            // a pure side-effect task: success is having executed the code
            return Outcome::ok(unit, Vec::new());
        };
        let args = match pickle::deserialize_args(&task.args_blob, &interp.globals) {
            Ok(a) => a,
            Err(e) => return Outcome::failed(unit, format!("arguments: {e}")),
        };
        match interp.call_global(function, &args) {
            Ok(value) => match pickle::serialize_value(&value) {
                Ok(blob) => Outcome::ok(unit, blob),
                Err(e) => Outcome::failed(unit, format!("result serialization: {e}")),
            },
            Err(e) => Outcome::failed(unit, e.to_string()),
        }
    })();
    interp.release();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_core::ids::TaskId;
    use vine_lang::Value;

    #[test]
    fn execute_task_reconstructs_and_runs() {
        let mut task = TaskSpec::new(TaskId(1), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "def f(a, b) { return a * b }".into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[Value::Int(6), Value::Int(7)]).unwrap();
        let outcome = execute_task(&task, ModuleRegistry::new());
        assert!(outcome.success, "{:?}", outcome.error);
        let g = std::rc::Rc::new(std::cell::RefCell::new(Default::default()));
        assert_eq!(
            pickle::deserialize_value(&outcome.result_blob, &g).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn execute_task_reports_failures() {
        // bad source
        let mut task = TaskSpec::new(TaskId(1), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "def f( {".into(),
        }];
        assert!(!execute_task(&task, ModuleRegistry::new()).success);

        // missing function
        let mut task = TaskSpec::new(TaskId(2), "t");
        task.function = Some("ghost".into());
        task.args_blob = pickle::serialize_args(&[]).unwrap();
        let o = execute_task(&task, ModuleRegistry::new());
        assert!(!o.success);
        assert!(o.error.unwrap().contains("undefined"));

        // runtime error inside the function
        let mut task = TaskSpec::new(TaskId(3), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "def f() { return 1 / 0 }".into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[]).unwrap();
        let o = execute_task(&task, ModuleRegistry::new());
        assert!(!o.success);
        assert!(o.error.unwrap().contains("division by zero"));
    }

    #[test]
    fn pure_code_task_succeeds_without_function() {
        let mut task = TaskSpec::new(TaskId(4), "t");
        task.code = vec![CodeArtifact::Source {
            name: "m".into(),
            text: "x = 1 + 1".into(),
        }];
        assert!(execute_task(&task, ModuleRegistry::new()).success);
    }

    #[test]
    fn invoke_for_missing_instance_requeues() {
        let (etx, erx) = crossbeam::channel::unbounded();
        let h = spawn_worker(WorkerId(3), ModuleRegistry::new(), etx);
        let call = vine_core::task::FunctionCall::new(
            vine_core::ids::InvocationId(9),
            "ghostlib",
            "f",
            vec![],
        );
        h.tx.send(ManagerToWorker::Invoke {
            instance: LibraryInstanceId(404),
            call: call.clone(),
        })
        .unwrap();
        let (worker, msg) = erx.recv().unwrap();
        assert_eq!(worker, WorkerId(3));
        assert_eq!(
            msg,
            WorkerToManager::Requeue {
                unit: WorkUnit::Call(call)
            }
        );
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
    }

    #[test]
    fn execute_task_frees_its_globals() {
        // a function bound in globals points back at globals; the task's
        // namespace must still be freed once its result is serialized
        let mut task = TaskSpec::new(TaskId(5), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: "table = [1, 2, 3]\ndef f() { return len(table) }".into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[]).unwrap();
        let interp = Interp::with_registry(ModuleRegistry::new());
        let globals = std::rc::Rc::downgrade(&interp.globals);
        let outcome = execute_task_in(&task, interp);
        assert!(outcome.success, "{:?}", outcome.error);
        assert!(globals.upgrade().is_none(), "the task's globals leaked");
    }

    #[test]
    fn shutdown_forwards_every_library_reply() {
        // invocations queued right before Shutdown: every result the
        // daemon produces must reach `events` before it closes
        const CALLS: u64 = 50;
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut h = spawn_worker(WorkerId(4), ModuleRegistry::new(), etx);
        let image = vine_proto::LibraryImage {
            instance: LibraryInstanceId(1),
            source: "def double(x) { return 2 * x }".into(),
            serialized_functions: vec![],
            setup: None,
            default_mode: vine_core::task::ExecMode::Direct,
            compiled: None,
        };
        h.tx.send(ManagerToWorker::InstallLibrary {
            image,
            stage: vec![],
        })
        .unwrap();
        for i in 0..CALLS {
            let args = pickle::serialize_args(&[Value::Int(i as i64)]).unwrap();
            let call = vine_core::task::FunctionCall::new(
                vine_core::ids::InvocationId(i),
                "lib",
                "double",
                args,
            );
            h.tx.send(ManagerToWorker::Invoke {
                instance: LibraryInstanceId(1),
                call,
            })
            .unwrap();
        }
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
        h.thread.take().unwrap().join().unwrap();

        let mut ready = 0;
        let mut done = 0;
        while let Ok((_, msg)) = erx.recv() {
            match msg {
                WorkerToManager::LibraryReady { .. } => ready += 1,
                WorkerToManager::UnitDone { outcome } => {
                    assert!(outcome.success, "{:?}", outcome.error);
                    done += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((ready, done), (1, CALLS));
    }

    #[test]
    fn finished_task_threads_are_reaped() {
        // a retained handle of a finished thread keeps its stack mapped;
        // thousands of tasks must not grow the address space map with them
        fn mappings() -> usize {
            std::fs::read_to_string("/proc/self/maps")
                .map(|m| m.lines().count())
                .unwrap_or(0)
        }
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut h = spawn_worker(WorkerId(6), ModuleRegistry::new(), etx);
        let mut next = 0u64;
        let mut run = |n: u64| {
            for _ in 0..n {
                next += 1;
                let mut task = TaskSpec::new(TaskId(next), "t");
                task.code = vec![CodeArtifact::Source {
                    name: "m".into(),
                    text: "x = 1".into(),
                }];
                h.tx.send(ManagerToWorker::RunTask {
                    task,
                    stage: vec![],
                })
                .unwrap();
                match erx.recv().unwrap() {
                    (_, WorkerToManager::UnitDone { outcome }) => assert!(outcome.success),
                    (_, other) => panic!("unexpected {other:?}"),
                }
            }
        };
        // warm up allocator arenas and the thread-stack cache first
        run(200);
        let before = mappings();
        run(3_000);
        let grown = mappings().saturating_sub(before);
        assert!(grown < 1_000, "{grown} new mappings after 3000 tasks");
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
        h.thread.take().unwrap().join().unwrap();
    }
}
