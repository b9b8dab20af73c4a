//! The worker engine: hands manager protocol messages to library daemons
//! and runs stateless tasks, mirroring the paper's worker process.
//!
//! The engine speaks [`vine_proto`] on both sides and is substrate-blind.
//! `Worker::handle` serves one command on whichever thread reads them:
//! the TCP worker's socket reader itself, or the in-process backend's
//! worker thread ([`worker_engine`]). Nothing relays replies: library
//! daemons and task threads map what they report to [`WorkerToManager`]
//! on their own threads and send it through the worker's `Uplink`,
//! straight onto the transport's event channel in process, or as a frame
//! each writes to the socket over TCP.

use crate::library_host::{catch_panic, spawn_daemon, LibraryHost};
use crossbeam::channel::{Receiver, Sender};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::{Outcome, TaskSpec, UnitId};
use vine_lang::interp::USER_STACK_BYTES;
use vine_lang::pickle;
use vine_lang::{Interp, ModuleRegistry};
use vine_proto::{
    encode_frame, LibraryToWorker, ManagerToWorker, WorkerToLibrary, WorkerToManager,
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

/// The worker's command loop over a channel: serve [`ManagerToWorker`]
/// messages until `Shutdown` (or the command stream closes). Daemons and
/// task threads send what they report onto `events` themselves.
pub fn worker_engine(
    id: WorkerId,
    registry: ModuleRegistry,
    rx: Receiver<ManagerToWorker>,
    events: Sender<(WorkerId, WorkerToManager)>,
) {
    let mut worker = Worker::new(id, registry, Uplink::Channel { worker: id, events });
    while let Ok(cmd) = rx.recv() {
        if !worker.handle(cmd) {
            break;
        }
    }
    worker.shutdown();
}

/// Where a worker's messages to the manager go. Every library daemon and
/// task thread holds a clone and sends its own replies.
#[derive(Clone)]
pub(crate) enum Uplink {
    /// In process: onto the transport's event channel, tagged with the
    /// worker.
    Channel {
        worker: WorkerId,
        events: Sender<(WorkerId, WorkerToManager)>,
    },
    /// Over TCP: the socket to the manager, which every writer shares.
    Socket(Arc<Mutex<TcpStream>>),
}

impl Uplink {
    /// Send one message. A failure means the manager is gone, which the
    /// command reader sees too and answers by shutting the worker down.
    pub(crate) fn send(&self, msg: WorkerToManager) {
        match self {
            Uplink::Channel { worker, events } => {
                let _ = events.send((*worker, msg));
            }
            Uplink::Socket(stream) => {
                // encode outside the lock, then one write under it, so
                // frames from concurrent writers never interleave
                if let Ok(frame) = encode_frame(&msg) {
                    let mut stream = stream
                        .lock()
                        .expect("no writer panics while holding the socket");
                    let _ = stream.write_all(&frame);
                }
            }
        }
    }
}

/// One worker's library daemons and task threads, driven one command at a
/// time by the thread that reads the commands.
pub(crate) struct Worker {
    registry: ModuleRegistry,
    uplink: Uplink,
    libraries: BTreeMap<LibraryInstanceId, LibraryHost>,
    tasks: TaskThreads,
}

impl Worker {
    pub(crate) fn new(id: WorkerId, registry: ModuleRegistry, uplink: Uplink) -> Worker {
        Worker {
            tasks: TaskThreads::new(id, registry.clone(), uplink.clone()),
            registry,
            uplink,
            libraries: BTreeMap::new(),
        }
    }

    /// Serve one command. Returns false on `Shutdown`.
    pub(crate) fn handle(&mut self, cmd: ManagerToWorker) -> bool {
        match cmd {
            ManagerToWorker::Welcome { .. } => {
                // handshake concern; the transport consumed it already, a
                // stray copy is harmless
            }
            ManagerToWorker::InstallLibrary { image, stage: _ } => {
                reap_exited(&mut self.libraries);
                // the in-process substrate shares one filesystem, so staged
                // context files are already local; the directive matters to
                // remote data planes
                let instance = image.instance;
                let uplink = self.uplink.clone();
                let host = spawn_daemon(image, self.registry.clone(), move |msg| {
                    uplink.send(library_reply(instance, msg))
                });
                // a daemon whose thread was refused has already reported
                // its failed startup
                if host.thread.is_some() {
                    self.libraries.insert(instance, host);
                }
            }
            ManagerToWorker::RemoveLibrary { instance } => {
                if let Some(mut host) = self.libraries.remove(&instance) {
                    let _ = host.tx.send(WorkerToLibrary::Shutdown);
                    if let Some(t) = host.thread.take() {
                        let _ = t.join();
                    }
                }
            }
            ManagerToWorker::Invoke { instance, call } => {
                match self.libraries.get(&instance) {
                    Some(host) => {
                        let mode = call.mode(host.default_mode);
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
                        self.uplink.send(WorkerToManager::Requeue {
                            unit: UnitId::Call(call.id),
                        });
                    }
                }
            }
            ManagerToWorker::RunTask { task, stage: _ } => self.tasks.run(task),
            ManagerToWorker::Shutdown => return false,
        }
        true
    }

    /// Stop the libraries and join the task threads, so every reply they
    /// owe has been sent before this returns.
    pub(crate) fn shutdown(self) {
        for (_, mut host) in self.libraries {
            let _ = host.tx.send(WorkerToLibrary::Shutdown);
            if let Some(t) = host.thread.take() {
                let _ = t.join();
            }
        }
        self.tasks.join();
    }
}

/// What a library daemon reports, as the manager protocol's message. Runs
/// on the daemon's thread.
fn library_reply(instance: LibraryInstanceId, msg: LibraryToWorker) -> WorkerToManager {
    match msg {
        LibraryToWorker::Ready => WorkerToManager::LibraryReady { instance },
        LibraryToWorker::StartupFailed { error } => {
            WorkerToManager::LibraryFailed { instance, error }
        }
        LibraryToWorker::ResultReady { id, result } => WorkerToManager::UnitDone {
            outcome: match result {
                Ok(blob) => Outcome::ok(UnitId::Call(id), blob),
                Err(e) => Outcome::failed(UnitId::Call(id), e),
            },
        },
    }
}

/// The worker's task threads. Each runs one task at a time, on a fresh
/// interpreter, so tasks stay stateless and run concurrently like separate
/// processes; a thread that finishes its task waits for the next one
/// instead of exiting. A task therefore pays no thread spawn, which on
/// `USER_STACK_BYTES` stacks costs more than the interpreter work of a
/// small task.
struct TaskThreads {
    worker: WorkerId,
    registry: ModuleRegistry,
    uplink: Uplink,
    /// Each thread's task channel, by thread index.
    senders: Vec<Sender<TaskSpec>>,
    threads: Vec<JoinHandle<()>>,
    /// Indices of threads waiting for a task.
    idle_tx: Sender<usize>,
    idle_rx: Receiver<usize>,
}

impl TaskThreads {
    fn new(worker: WorkerId, registry: ModuleRegistry, uplink: Uplink) -> TaskThreads {
        let (idle_tx, idle_rx) = crossbeam::channel::unbounded();
        TaskThreads {
            worker,
            registry,
            uplink,
            senders: Vec::new(),
            threads: Vec::new(),
            idle_tx,
            idle_rx,
        }
    }

    /// Hand `task` to an idle thread, or to a new one when all are busy.
    fn run(&mut self, task: TaskSpec) {
        match self.idle_rx.try_recv() {
            Ok(i) => {
                let _ = self.senders[i].send(task);
            }
            Err(_) => self.spawn(task),
        }
    }

    /// Start a thread on its first task, which it takes at spawn rather
    /// than from its channel, so it need not be woken for it. A thread the
    /// OS refuses fails the task instead of the worker.
    fn spawn(&mut self, first: TaskSpec) {
        let i = self.senders.len();
        let unit = UnitId::Task(first.id);
        let (tx, rx) = crossbeam::channel::unbounded::<TaskSpec>();
        let registry = self.registry.clone();
        let uplink = self.uplink.clone();
        let idle = self.idle_tx.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("worker-{}-task-{i}", self.worker))
            .stack_size(USER_STACK_BYTES)
            .spawn(move || {
                let mut next = Some(first);
                while let Some(task) = next {
                    let outcome = catch_panic(|| execute_task(&task, registry.clone()))
                        .unwrap_or_else(|panic| Outcome::failed(UnitId::Task(task.id), panic));
                    // idle before the reply: the manager's next task for
                    // this worker then always finds this thread free
                    let _ = idle.send(i);
                    uplink.send(WorkerToManager::UnitDone { outcome });
                    next = rx.recv().ok();
                }
            });
        match spawned {
            Ok(thread) => {
                self.senders.push(tx);
                self.threads.push(thread);
            }
            Err(e) => self.uplink.send(WorkerToManager::UnitDone {
                outcome: Outcome::failed(unit, format!("spawning task thread: {e}")),
            }),
        }
    }

    /// Close every task channel and join the threads once their tasks
    /// are done, so every `UnitDone` has been sent before this returns.
    fn join(self) {
        drop(self.senders);
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Join and forget the daemons that exited on their own, which is what a
/// daemon does when its startup fails: the manager has already dropped
/// their instances, and a kept handle pins the thread's stack. A daemon
/// that panicked stays listed without its thread, so an `Invoke` for it is
/// not answered with a `Requeue` that the manager would send straight back.
fn reap_exited(libraries: &mut BTreeMap<LibraryInstanceId, LibraryHost>) {
    libraries.retain(|_, host| {
        if !host.thread.as_ref().is_some_and(JoinHandle::is_finished) {
            return true;
        }
        let thread = host.thread.take().expect("checked above");
        thread.join().is_err()
    });
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
    use crate::library_host::compile_image;
    use vine_core::ids::TaskId;
    use vine_core::task::ExecMode;
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
                unit: UnitId::Call(call.id)
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
        let image = compile_image(
            LibraryInstanceId(1),
            "def double(x) { return 2 * x }",
            None,
            ExecMode::Direct,
        )
        .unwrap();
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
    fn a_panicking_task_fails_and_the_next_task_succeeds() {
        let mut registry = ModuleRegistry::new();
        registry.register_native("boom", || {
            vec![vine_lang::modules::native("explode", |_| panic!("kaboom"))]
        });
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut h = spawn_worker(WorkerId(8), registry, etx);
        for (id, text, expect) in [
            (
                1,
                "import boom\ndef f() { return boom.explode() }",
                Err("panicked: kaboom"),
            ),
            (2, "def f() { return 6 * 7 }", Ok(Value::Int(42))),
        ] {
            let mut task = TaskSpec::new(TaskId(id), "t");
            task.code = vec![CodeArtifact::Source {
                name: "f".into(),
                text: text.into(),
            }];
            task.function = Some("f".into());
            task.args_blob = pickle::serialize_args(&[]).unwrap();
            h.tx.send(ManagerToWorker::RunTask {
                task,
                stage: vec![],
            })
            .unwrap();
            let outcome = match erx.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok((_, WorkerToManager::UnitDone { outcome })) => outcome,
                other => panic!("expected UnitDone, got {other:?}"),
            };
            assert_eq!(outcome.unit, UnitId::Task(TaskId(id)));
            let got = match &outcome.error {
                Some(e) => Err(e.as_str()),
                None => Ok(crate::decode_result(&outcome).unwrap()),
            };
            assert_eq!(got, expect);
        }
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
        h.thread.take().unwrap().join().unwrap();
    }

    fn mappings() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .map(|m| m.lines().count())
            .unwrap_or(0)
    }

    #[test]
    fn finished_task_threads_are_reaped() {
        // task threads must not pile up: thousands of tasks must not grow
        // the address space map with their stacks
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

    #[test]
    fn failed_library_daemons_are_reaped() {
        // a daemon whose startup failed has exited; thousands of failed
        // installs must not keep their stacks mapped
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut h = spawn_worker(WorkerId(7), ModuleRegistry::new(), etx);
        let failing =
            compile_image(LibraryInstanceId(0), "x = 1 / 0", None, ExecMode::Direct).unwrap();
        let mut next = 0u64;
        let mut install = |n: u64| {
            for _ in 0..n {
                next += 1;
                let mut image = failing.clone();
                image.instance = LibraryInstanceId(next);
                h.tx.send(ManagerToWorker::InstallLibrary {
                    image,
                    stage: vec![],
                })
                .unwrap();
                match erx.recv().unwrap() {
                    (_, WorkerToManager::LibraryFailed { error, .. }) => {
                        assert!(error.contains("division by zero"), "{error}")
                    }
                    (_, other) => panic!("unexpected {other:?}"),
                }
            }
        };
        install(200);
        let before = mappings();
        install(3_000);
        let grown = mappings().saturating_sub(before);
        assert!(
            grown < 1_000,
            "{grown} new mappings after 3000 failed installs"
        );
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
        h.thread.take().unwrap().join().unwrap();
    }

    #[test]
    fn reaping_keeps_panicked_daemons_listed() {
        let (tx, _rx) = crossbeam::channel::unbounded();
        let mut libraries = BTreeMap::new();
        for (i, panics) in [(1, false), (2, true)] {
            let thread = std::thread::spawn(move || assert!(!panics, "daemon bug"));
            while !thread.is_finished() {
                std::thread::yield_now();
            }
            let instance = LibraryInstanceId(i);
            let host = LibraryHost {
                instance,
                default_mode: ExecMode::Direct,
                tx: tx.clone(),
                thread: Some(thread),
            };
            libraries.insert(instance, host);
        }
        reap_exited(&mut libraries);
        let left: Vec<_> = libraries.keys().copied().collect();
        assert_eq!(left, [LibraryInstanceId(2)]);
        assert!(libraries[&LibraryInstanceId(2)].thread.is_none());
    }
}
