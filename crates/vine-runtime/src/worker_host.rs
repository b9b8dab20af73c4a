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
//!
//! A stateless task rebuilds its context on every run: a fresh
//! interpreter runs the task's module code, imports and setup each time.
//! Its code is compiled once per task thread: each thread keeps the
//! compiled module of every source text it has run (`CodeCache`), as
//! CPython keeps the bytecode of what it imported.

use crate::library_host::{catch_panic, spawn_daemon, LibraryHost};
use crossbeam::channel::{Receiver, Sender};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::{Outcome, TaskSpec, UnitId};
use vine_lang::interp::USER_STACK_BYTES;
use vine_lang::pickle;
use vine_lang::{CompiledModule, Interp, ModuleRegistry};
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
                let frame = match (encode_frame(&msg), msg) {
                    (Ok(frame), _) => frame,
                    // a result too big for a frame would never arrive, and
                    // the manager would wait for it: its unit fails instead
                    (Err(e), WorkerToManager::UnitDone { outcome })
                        if !outcome.result_blob.is_empty() =>
                    {
                        let error = format!("result of {} bytes: {e}", outcome.result_blob.len());
                        let outcome = Outcome::failed(outcome.unit, error);
                        return self.send(WorkerToManager::UnitDone { outcome });
                    }
                    (Err(_), _) => return,
                };
                let mut stream = stream
                    .lock()
                    .expect("no writer panics while holding the socket");
                let _ = stream.write_all(&frame);
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
/// small task. Each thread keeps its own [`CodeCache`], so a source text
/// is parsed and compiled only the first time that thread runs it; its
/// context is still rebuilt by every task.
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
                let mut code = CodeCache::default();
                let mut next = Some(first);
                while let Some(task) = next {
                    let interp = Interp::with_registry(registry.clone());
                    let outcome = catch_panic(|| execute_task_in(&task, interp, &mut code))
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

/// Source bytes of the compiled code one task thread keeps. A task whose
/// sources exceed it still runs; its thread compiles them again next
/// time. Compiled code takes ~24 times its source (each function embeds
/// its AST), so a full cache is ~1.5 MiB, the code of ~170 distinct
/// LNNI tasks, and emptying it takes ~0.5 ms. A 1 MiB budget would hold
/// ~25 MiB per thread and take ~20 ms to empty.
const CODE_CACHE_BYTES: usize = 64 << 10;

/// The compiled module of each source text a task thread has run, keyed by
/// the full text, so two texts share an entry only when they are equal.
/// It holds code, never values: every task runs the module on a fresh
/// interpreter. Compiled code holds `Rc`s, so each thread keeps its own.
/// The keys stay within [`CODE_CACHE_BYTES`]: a text that would pass it
/// empties the cache first, and a larger one is never kept.
#[derive(Default)]
struct CodeCache {
    modules: BTreeMap<String, Rc<CompiledModule>>,
    /// Bytes of the keys.
    bytes: usize,
}

impl CodeCache {
    /// `text`'s compiled module, parsed and compiled only if this cache
    /// does not hold it. A text that fails to parse is not kept, so it
    /// fails again, with the same error, every time it is run.
    fn module(&mut self, text: &str) -> vine_core::Result<Rc<CompiledModule>> {
        if let Some(module) = self.modules.get(text) {
            return Ok(Rc::clone(module));
        }
        let module = Rc::new(vine_lang::compile_module(&vine_lang::parse(text)?, text));
        if text.len() <= CODE_CACHE_BYTES {
            if self.bytes + text.len() > CODE_CACHE_BYTES {
                self.modules.clear();
                self.bytes = 0;
            }
            self.bytes += text.len();
            self.modules.insert(text.to_string(), Rc::clone(&module));
        }
        Ok(module)
    }
}

/// Run a stateless task: fresh interpreter, reconstruct shipped code,
/// execute, serialize the result — the full context reload the paper's
/// L1/L2 levels pay per execution. Its sources are parsed and compiled
/// here; a task thread runs the same steps but compiles each source text
/// only once (`CodeCache`).
pub fn execute_task(task: &TaskSpec, registry: ModuleRegistry) -> Outcome {
    execute_task_in(
        task,
        Interp::with_registry(registry),
        &mut CodeCache::default(),
    )
}

/// [`execute_task`] on a given interpreter, which is released afterwards:
/// only the result bytes leave a task, so its namespace is freed. Source
/// artifacts compile through `code`.
fn execute_task_in(task: &TaskSpec, mut interp: Interp, code: &mut CodeCache) -> Outcome {
    let unit = UnitId::Task(task.id);
    let outcome = (|| {
        for artifact in &task.code {
            let result = match artifact {
                CodeArtifact::Source { text, .. } => code
                    .module(text)
                    .and_then(|module| interp.exec_compiled(&module)),
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

    /// A task running `text`'s function `f`, with no arguments.
    fn task_of(id: u64, text: &str) -> TaskSpec {
        let mut task = TaskSpec::new(TaskId(id), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: text.into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[]).unwrap();
        task
    }

    fn run_cached(task: &TaskSpec, code: &mut CodeCache) -> Outcome {
        execute_task_in(task, Interp::with_registry(ModuleRegistry::new()), code)
    }

    #[test]
    fn tasks_of_one_compiled_source_start_from_fresh_globals() {
        let text = "seen = []\npush(seen, 1)\ndef f() { return len(seen) }";
        let mut code = CodeCache::default();
        for id in 1..=2 {
            let outcome = run_cached(&task_of(id, text), &mut code);
            assert!(outcome.success, "{:?}", outcome.error);
            assert_eq!(crate::decode_result(&outcome).unwrap(), Value::Int(1));
        }
        assert_eq!((code.modules.len(), code.bytes), (1, text.len()));
    }

    #[test]
    fn a_source_that_fails_to_parse_fails_alike_every_time() {
        let mut code = CodeCache::default();
        let errors: Vec<_> = (1..=2)
            .map(|id| run_cached(&task_of(id, "def f( {"), &mut code).error)
            .collect();
        let error = errors[0].as_deref().expect("the task fails");
        assert!(error.starts_with("reconstructing f: "), "{error}");
        assert_eq!(errors[0], errors[1]);
        assert!(code.modules.is_empty());
    }

    #[test]
    fn sources_past_the_code_budget_all_run_within_it() {
        // distinct 16 KiB sources adding up to twice the budget, then one
        // larger than the whole budget
        let pad = format!("# {}\n", "-".repeat(16 << 10));
        let mut code = CodeCache::default();
        for i in 0..=(2 * CODE_CACHE_BYTES / pad.len()) as i64 {
            let outcome = run_cached(
                &task_of(1, &format!("{pad}def f() {{ return {i} }}")),
                &mut code,
            );
            assert!(outcome.success, "{:?}", outcome.error);
            assert_eq!(crate::decode_result(&outcome).unwrap(), Value::Int(i));
            let kept: usize = code.modules.keys().map(String::len).sum();
            assert_eq!(kept, code.bytes);
            assert!(code.bytes <= CODE_CACHE_BYTES, "{} bytes kept", code.bytes);
        }
        let huge = format!(
            "{}def f() {{ return -1 }}",
            pad.repeat(CODE_CACHE_BYTES / pad.len() + 1)
        );
        let outcome = run_cached(&task_of(2, &huge), &mut code);
        assert_eq!(crate::decode_result(&outcome).unwrap(), Value::Int(-1));
        assert!(!code.modules.contains_key(&huge));
    }

    #[test]
    fn a_result_too_big_for_a_frame_fails_its_unit() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        let uplink = Uplink::Socket(Arc::new(Mutex::new(writer)));
        let unit = UnitId::Task(TaskId(9));
        let size = 65 << 20;
        uplink.send(WorkerToManager::UnitDone {
            outcome: Outcome::ok(unit, vec![7; size]),
        });
        drop(uplink);

        let outcome = match vine_proto::read_frame(&mut reader) {
            Ok(WorkerToManager::UnitDone { outcome }) => outcome,
            other => panic!("expected UnitDone, got {other:?}"),
        };
        assert_eq!((outcome.unit, outcome.success), (unit, false));
        let error = outcome.error.unwrap();
        let cap = vine_proto::MAX_FRAME.to_string();
        assert!(
            error.contains(&size.to_string()) && error.contains(&cap),
            "{error}"
        );
        assert!(matches!(
            vine_proto::read_frame::<WorkerToManager>(&mut reader),
            Err(vine_proto::FrameError::Closed)
        ));
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
        let outcome = execute_task_in(&task, interp, &mut CodeCache::default());
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
