//! The worker: a pool of threads that serves the manager's commands, runs
//! stateless tasks and hosts library daemons, mirroring the paper's worker
//! process.
//!
//! Every pool thread waits for the worker's next command. Over TCP they
//! wait on one epoll instance that holds the socket one-shot, so a frame
//! that arrives wakes exactly one idle thread (`serve_socket`); in
//! process they take turns receiving from the command channel
//! ([`worker_engine`]). The woken thread reads, decodes and serves the
//! commands in arrival order under the worker's lock: it installs and
//! removes library daemons and forwards invocations to them, and it runs
//! a `RunTask` itself once another pool thread is idle to keep reading,
//! so a stateless task costs the worker one wake. Frames read behind that
//! task go to an idle thread, which a waker in the same epoll instance
//! wakes. The thread that started the worker runs no user code: it waits
//! for the pool to end, then stops the daemons.
//!
//! Nothing relays replies: library daemons and pool threads map what they
//! report to [`WorkerToManager`] on their own threads and send it through
//! the worker's `Uplink`, straight onto the transport's event channel in
//! process, or as a frame each writes to the socket over TCP.
//!
//! A stateless task rebuilds its context on every run: a fresh
//! interpreter runs the task's module code, imports and setup each time.
//! Its code is compiled once per pool thread: each thread keeps the
//! compiled module of every source text it has run (`CodeCache`), as
//! CPython keeps the bytecode of what it imported.

use crate::library_host::{catch_panic, spawn_daemon, spawn_user_thread, LibraryHost};
use crossbeam::channel::{Receiver, Sender};
use epoll::{Epoll, Event, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::{Outcome, TaskSpec, UnitId};
use vine_lang::pickle;
use vine_lang::{CompiledModule, Interp, ModuleRegistry};
use vine_proto::{
    encode_frame, FrameDecoder, FrameError, LibraryToWorker, ManagerToWorker, WorkerToLibrary,
    WorkerToManager,
};

/// Handle to a spawned in-process worker.
pub struct WorkerHandle {
    pub id: WorkerId,
    pub tx: Sender<ManagerToWorker>,
    pub thread: Option<JoinHandle<()>>,
}

/// Spawn an in-process worker on its own thread, which runs
/// [`worker_engine`]. Everything the worker tells the manager arrives on
/// `events`, tagged with the worker's id.
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

/// The in-process worker: a pool of threads that take turns receiving the
/// [`ManagerToWorker`] messages on `rx` and serve them until `Shutdown`
/// (or the channel closes). Daemons and pool threads send what they report
/// onto `events` themselves. Returns once every reply owed has been sent;
/// a worker whose first pool thread the OS refuses returns at once, and
/// the manager sees it gone.
pub fn worker_engine(
    id: WorkerId,
    registry: ModuleRegistry,
    rx: Receiver<ManagerToWorker>,
    events: Sender<(WorkerId, WorkerToManager)>,
) {
    let uplink = Uplink::Channel { worker: id, events };
    let commands = Commands::Channel(Mutex::new(Some(rx)));
    let _ = Pool::new(id, registry, uplink, commands).run();
}

/// Serve a TCP worker's commands from `stream`, its connection to the
/// manager after the handshake, until `Shutdown` or the connection ends.
/// Returns once every reply owed has been written.
pub(crate) fn serve_socket(
    id: WorkerId,
    registry: ModuleRegistry,
    stream: TcpStream,
) -> std::io::Result<()> {
    let uplink = Uplink::Socket(Arc::new(Mutex::new(stream.try_clone()?)));
    let ep = Epoll::new()?;
    let (waker, wakee) = UnixStream::pair()?;
    wakee.set_nonblocking(true)?;
    ep.add(stream.as_raw_fd(), SOCKET_INTEREST, SOCKET)?;
    ep.add(wakee.as_raw_fd(), WAKER_INTEREST, WAKER)?;
    let socket = Socket {
        ep,
        stream,
        waker,
        wakee,
    };
    Pool::new(id, registry, uplink, Commands::Socket(socket)).run()
}

/// Where a worker's messages to the manager go. Every library daemon and
/// pool thread holds a clone and sends its own replies.
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
    /// pool sees too on its commands and answers by closing the worker.
    pub(crate) fn send(&self, msg: WorkerToManager) {
        match self {
            Uplink::Channel { worker, events } => {
                let _ = events.send((*worker, msg));
            }
            Uplink::Socket(stream) => {
                // encode outside the lock, then one write under it, so
                // frames from concurrent writers never interleave
                let frame = match encode_frame(&msg) {
                    Ok(frame) => frame,
                    // a reply too big for a frame would never arrive, and
                    // the manager would wait for it: send one that fits
                    Err(e) => {
                        if let Some(msg) = fitted(msg, e) {
                            self.send(msg);
                        }
                        return;
                    }
                };
                let mut stream = stream
                    .lock()
                    .expect("no writer panics while holding the socket");
                let _ = stream.write_all(&frame);
            }
        }
    }
}

/// Bytes of an error text that a reply keeps when the whole text would
/// not fit in a frame.
const ERROR_CUT_BYTES: usize = 64 << 10;

/// `msg`, which `why` kept from a frame, made to fit: a result gives way
/// to an error that names its size, and an error text is cut. `None` for
/// a message that holds neither.
fn fitted(msg: WorkerToManager, why: FrameError) -> Option<WorkerToManager> {
    match msg {
        WorkerToManager::UnitDone { outcome } if !outcome.result_blob.is_empty() => {
            let error = format!("result of {} bytes: {why}", outcome.result_blob.len());
            let outcome = Outcome::failed(outcome.unit, error);
            Some(WorkerToManager::UnitDone { outcome })
        }
        WorkerToManager::UnitDone { mut outcome } => {
            let error = outcome
                .error
                .as_deref()
                .filter(|e| e.len() > ERROR_CUT_BYTES)?;
            outcome.error = Some(cut(error));
            Some(WorkerToManager::UnitDone { outcome })
        }
        WorkerToManager::LibraryFailed { instance, error } if error.len() > ERROR_CUT_BYTES => {
            let error = cut(&error);
            Some(WorkerToManager::LibraryFailed { instance, error })
        }
        _ => None,
    }
}

/// The first [`ERROR_CUT_BYTES`] of `error`, cut on a character boundary,
/// naming the length it had.
fn cut(error: &str) -> String {
    let mut end = ERROR_CUT_BYTES;
    while !error.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… [cut from {} bytes]", &error[..end], error.len())
}

/// Where a worker's commands come from.
enum Commands {
    /// In process: the manager's channel. Idle pool threads take turns
    /// receiving from it; `None` once the worker has closed.
    Channel(Mutex<Option<Receiver<ManagerToWorker>>>),
    /// Over TCP: the connection to the manager.
    Socket(Socket),
}

/// A TCP worker's connection to the manager and the epoll instance its
/// idle pool threads wait on. Both fds in it are one-shot: the thread an
/// event wakes re-arms the fd once it has read it.
struct Socket {
    ep: Epoll,
    /// Blocking: a thread reads it once per wake, when epoll has reported
    /// it readable.
    stream: TcpStream,
    /// Written to wake an idle thread for frames already read.
    waker: UnixStream,
    /// The waker's other end, which `ep` watches; nonblocking.
    wakee: UnixStream,
}

/// Epoll tokens of a [`Socket`]'s two fds.
const SOCKET: u64 = 0;
const WAKER: u64 = 1;
const SOCKET_INTEREST: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
const WAKER_INTEREST: u32 = EPOLLIN | EPOLLONESHOT;

/// Bytes one socket read takes at most, as a std `BufReader` does: a
/// larger buffer is zeroed memory every pool thread keeps resident.
const READ_CHUNK: usize = 8 << 10;

/// What the socket's reads have brought in and the pool has not served.
#[derive(Default)]
struct Inbox {
    frames: FrameDecoder,
    /// The socket has ended: once `frames` is served, the worker closes.
    ended: bool,
    /// A byte sits in the waker: an idle thread will wake to serve
    /// `frames`.
    woken: bool,
}

impl Socket {
    /// Read what the socket holds and re-arm it. One read: epoll reported
    /// the socket readable, so it does not block, and whatever it leaves
    /// fires again once re-armed.
    fn read(&self, inbox: &mut Inbox) {
        let mut chunk = [0; READ_CHUNK];
        let read = loop {
            match (&self.stream).read(&mut chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => break read,
            }
        };
        match read {
            Ok(n) if n > 0 => {
                inbox.frames.extend(&chunk[..n]);
                self.re_arm(inbox, &self.stream, SOCKET_INTEREST, SOCKET);
            }
            // the manager closed the connection, or it broke
            _ => inbox.ended = true,
        }
    }

    /// Take the waker's byte and re-arm it.
    fn drain(&self, inbox: &mut Inbox) {
        let _ = (&self.wakee).read(&mut [0]);
        inbox.woken = false;
        self.re_arm(inbox, &self.wakee, WAKER_INTEREST, WAKER);
    }

    /// An fd that cannot be re-armed would never wake a thread again: the
    /// worker ends as if the connection had.
    fn re_arm(&self, inbox: &mut Inbox, fd: &impl AsRawFd, interest: u32, token: u64) {
        if self.ep.modify(fd.as_raw_fd(), interest, token).is_err() {
            inbox.ended = true;
        }
    }

    /// Wake one idle thread, unless one is already being woken.
    fn wake(&self, inbox: &mut Inbox) {
        if !std::mem::replace(&mut inbox.woken, true) {
            let _ = (&self.waker).write(&[1]);
        }
    }

    /// Wake every thread that waits now or will: the waker stays readable
    /// and turns level-triggered.
    fn wake_all(&self, inbox: &mut Inbox) {
        self.wake(inbox);
        let _ = self.ep.modify(self.wakee.as_raw_fd(), EPOLLIN, WAKER);
    }
}

/// One worker's pool threads and what they share. See the module docs.
struct Pool {
    id: WorkerId,
    registry: ModuleRegistry,
    uplink: Uplink,
    commands: Commands,
    /// Pool threads running a task. A thread deciding whether to take a
    /// task reads it under `state`'s lock; a thread that finishes one
    /// lowers it without the lock, before its reply.
    busy: AtomicUsize,
    state: Mutex<State>,
}

/// What the pool's threads change, under its lock.
#[derive(Default)]
struct State {
    libraries: BTreeMap<LibraryInstanceId, LibraryHost>,
    /// Pool threads started so far.
    threads: usize,
    /// Pool threads not joined yet.
    handles: Vec<JoinHandle<()>>,
    /// No command is served any more: `Shutdown` came, or the commands
    /// ended.
    closed: bool,
    /// Over TCP: what has been read and not yet served.
    inbox: Inbox,
}

impl Pool {
    fn new(id: WorkerId, registry: ModuleRegistry, uplink: Uplink, commands: Commands) -> Pool {
        Pool {
            id,
            registry,
            uplink,
            commands,
            busy: AtomicUsize::new(0),
            state: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no pool thread panics while serving a command")
    }

    /// The starting thread's part: start the first pool thread, wait for
    /// the pool to end, then stop the daemons, so every reply the worker
    /// owes has been sent when this returns. A thread joined here has
    /// pushed the handles of the threads it started before it ended, so
    /// an empty list means all have ended. A pool thread's panic, which
    /// only a bug in this module causes, is raised here once all have.
    fn run(self) -> std::io::Result<()> {
        let pool = Arc::new(self);
        pool.spawn(&mut pool.lock())?;
        let mut panicked = None;
        loop {
            let handles = std::mem::take(&mut pool.lock().handles);
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    panicked.get_or_insert(panic);
                }
            }
        }
        if let Some(panic) = panicked {
            std::panic::resume_unwind(panic);
        }
        for (_, host) in std::mem::take(&mut pool.lock().libraries) {
            stop(host);
        }
        Ok(())
    }

    /// Start one more pool thread.
    fn spawn(self: &Arc<Self>, state: &mut State) -> std::io::Result<()> {
        let pool = Arc::clone(self);
        let name = format!("worker-{}-{}", self.id, state.threads);
        let handle = spawn_user_thread(name, move || pool.serve())?;
        state.threads += 1;
        state.handles.push(handle);
        Ok(())
    }

    /// A pool thread: serve commands until the worker closes, and run each
    /// task taken on a fresh interpreter, with this thread's compiled code.
    fn serve(self: Arc<Self>) {
        let mut code = CodeCache::default();
        let mut events = Vec::with_capacity(2);
        while let Some(task) = self.next_task(&mut events) {
            let interp = Interp::with_registry(self.registry.clone());
            let outcome = catch_panic(|| execute_task_in(&task, interp, &mut code))
                .unwrap_or_else(|panic| Outcome::failed(UnitId::Task(task.id), panic));
            // free before the reply: the manager's next task for this
            // worker then finds this thread idle, and no thread is started
            self.busy.fetch_sub(1, Ordering::SeqCst);
            self.uplink.send(WorkerToManager::UnitDone { outcome });
        }
    }

    /// Wait for commands and serve them until this thread takes a task;
    /// `None` once the worker has closed.
    fn next_task(self: &Arc<Self>, events: &mut Vec<Event>) -> Option<TaskSpec> {
        loop {
            let state = match &self.commands {
                Commands::Channel(turn) => {
                    // the thread that receives takes the worker's lock
                    // before it passes the turn on, so commands are served
                    // in the order they were sent
                    let mut rx = turn.lock().expect("no thread panics while receiving");
                    let cmd = rx.as_ref().and_then(|rx| rx.recv().ok());
                    let cmd = cmd.unwrap_or(ManagerToWorker::Shutdown);
                    if matches!(cmd, ManagerToWorker::Shutdown) {
                        *rx = None;
                    }
                    let mut state = self.lock();
                    drop(rx);
                    if let Some(task) = self.serve_command(&mut state, cmd) {
                        return Some(task);
                    }
                    state
                }
                Commands::Socket(socket) => {
                    let woke = socket.ep.wait(events, None);
                    let mut state = self.lock();
                    if state.closed {
                        return None;
                    }
                    match woke {
                        Ok(_) => {
                            for ev in events.iter() {
                                match ev.token() {
                                    SOCKET => socket.read(&mut state.inbox),
                                    _ => socket.drain(&mut state.inbox),
                                }
                            }
                        }
                        Err(_) => state.inbox.ended = true,
                    }
                    if let Some(task) = self.serve_inbox(socket, &mut state) {
                        return Some(task);
                    }
                    state
                }
            };
            if state.closed {
                return None;
            }
        }
    }

    /// Serve the frames read so far, in order, until this thread takes a
    /// task. The frames behind that task are left to an idle thread, which
    /// the waker wakes.
    fn serve_inbox(self: &Arc<Self>, socket: &Socket, state: &mut State) -> Option<TaskSpec> {
        while !state.closed {
            let cmd = match state.inbox.frames.decode::<ManagerToWorker>() {
                Ok(Some(cmd)) => cmd,
                Ok(None) if !state.inbox.ended => return None,
                // the connection ended, or sent bytes that decode to no
                // frame, after which nothing on it can be read
                Ok(None) | Err(_) => ManagerToWorker::Shutdown,
            };
            if let Some(task) = self.serve_command(state, cmd) {
                if state.inbox.ended || state.inbox.frames.buffered() > 0 {
                    socket.wake(&mut state.inbox);
                }
                return Some(task);
            }
        }
        None
    }

    /// Serve one command under the lock. Returns the task of a `RunTask`
    /// that this thread takes.
    fn serve_command(
        self: &Arc<Self>,
        state: &mut State,
        cmd: ManagerToWorker,
    ) -> Option<TaskSpec> {
        match cmd {
            ManagerToWorker::Welcome { .. } => {
                // handshake concern; the transport consumed it already, a
                // stray copy is harmless
            }
            ManagerToWorker::InstallLibrary { image, stage: _ } => {
                reap_exited(&mut state.libraries);
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
                    state.libraries.insert(instance, host);
                }
            }
            ManagerToWorker::RemoveLibrary { instance } => {
                if let Some(host) = state.libraries.remove(&instance) {
                    stop(host);
                }
            }
            ManagerToWorker::Invoke { instance, call } => {
                match state.libraries.get(&instance) {
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
            ManagerToWorker::RunTask { task, stage: _ } => return self.take(state, task),
            ManagerToWorker::Shutdown => {
                state.closed = true;
                if let Commands::Socket(socket) = &self.commands {
                    socket.wake_all(&mut state.inbox);
                }
            }
        }
        None
    }

    /// Take `task` to run on this thread, once another pool thread is free
    /// to read on: start one if every other thread is running a task. A
    /// thread the OS refuses fails the task instead of the worker.
    fn take(self: &Arc<Self>, state: &mut State, task: TaskSpec) -> Option<TaskSpec> {
        if self.busy.fetch_add(1, Ordering::SeqCst) + 1 < state.threads {
            return Some(task);
        }
        match self.spawn(state) {
            Ok(()) => Some(task),
            Err(e) => {
                self.busy.fetch_sub(1, Ordering::SeqCst);
                let error = format!("spawning worker thread: {e}");
                self.uplink.send(WorkerToManager::UnitDone {
                    outcome: Outcome::failed(UnitId::Task(task.id), error),
                });
                None
            }
        }
    }
}

/// Stop a daemon: it serves what it was sent first, then exits.
fn stop(mut host: LibraryHost) {
    let _ = host.tx.send(WorkerToLibrary::Shutdown);
    if let Some(thread) = host.thread.take() {
        let _ = thread.join();
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

/// Source bytes of the compiled code one pool thread keeps. A task whose
/// sources exceed it still runs; its thread compiles them again next
/// time. Compiled code takes ~24 times its source (each function embeds
/// its AST), so a full cache is ~1.5 MiB, the code of ~170 distinct
/// LNNI tasks, and emptying it takes ~0.5 ms. A 1 MiB budget would hold
/// ~25 MiB per thread and take ~20 ms to empty.
const CODE_CACHE_BYTES: usize = 64 << 10;

/// The compiled module of each source text a pool thread has run, keyed by
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
/// here; a pool thread runs the same steps but compiles each source text
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
    fn errors_too_long_for_a_frame_arrive_cut() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        let uplink = Uplink::Socket(Arc::new(Mutex::new(writer)));
        let size = 65 << 20;
        let unit = UnitId::Task(TaskId(9));
        uplink.send(WorkerToManager::UnitDone {
            outcome: Outcome::failed(unit, "x".repeat(size)),
        });
        // three-byte characters: the cut falls inside one
        let instance = LibraryInstanceId(4);
        uplink.send(WorkerToManager::LibraryFailed {
            instance,
            error: "€".repeat(size / 3),
        });
        drop(uplink);

        let cut_to = |error: &str, from: usize| {
            assert!(error.len() <= ERROR_CUT_BYTES + 64, "{} bytes", error.len());
            assert!(
                error.contains(&from.to_string()),
                "{}",
                &error[error.len() - 64..]
            );
        };
        match vine_proto::read_frame(&mut reader) {
            Ok(WorkerToManager::UnitDone { outcome }) => {
                assert_eq!((outcome.unit, outcome.success), (unit, false));
                cut_to(outcome.error.as_deref().unwrap(), size);
            }
            other => panic!("expected UnitDone, got {other:?}"),
        }
        match vine_proto::read_frame(&mut reader) {
            Ok(WorkerToManager::LibraryFailed {
                instance: got,
                error,
            }) => {
                assert_eq!(got, instance);
                assert!(error.starts_with('€'));
                cut_to(&error, size / 3 * 3);
            }
            other => panic!("expected LibraryFailed, got {other:?}"),
        }
        assert!(matches!(
            vine_proto::read_frame::<WorkerToManager>(&mut reader),
            Err(vine_proto::FrameError::Closed)
        ));
    }

    /// A latch that a test opens: `gate.pass()` in vinescript reports its
    /// caller on `entered`, then blocks until the test calls
    /// [`Gate::open`].
    struct Gate {
        open: Mutex<bool>,
        opened: std::sync::Condvar,
        entered: Sender<()>,
    }

    impl Gate {
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    /// A registry with the `gate` module, and the channel its callers are
    /// reported on.
    fn gated() -> (Arc<Gate>, ModuleRegistry, Receiver<()>) {
        let (entered, callers) = crossbeam::channel::unbounded();
        let gate = Arc::new(Gate {
            open: Mutex::new(false),
            opened: std::sync::Condvar::new(),
            entered,
        });
        let mut registry = ModuleRegistry::new();
        let shared = Arc::clone(&gate);
        registry.register_native("gate", move || {
            let gate = Arc::clone(&shared);
            vec![vine_lang::modules::native("pass", move |_| {
                let _ = gate.entered.send(());
                let open = gate.open.lock().unwrap();
                drop(gate.opened.wait_while(open, |open| !*open).unwrap());
                Ok(Value::Int(0))
            })]
        });
        (gate, registry, callers)
    }

    const GATED: &str = "import gate\ndef f() { return gate.pass() }";

    /// The manager's end of a TCP worker that `run_tcp_worker` runs on
    /// its own thread, admitted as worker `id`, and that thread.
    fn tcp_worker(
        id: u32,
        registry: ModuleRegistry,
    ) -> (TcpStream, JoinHandle<vine_core::Result<()>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let resources = vine_core::resources::Resources::new(4, 4096, 4096);
        let worker = std::thread::spawn(move || crate::run_tcp_worker(addr, resources, registry));
        let (mut conn, _) = listener.accept().unwrap();
        match vine_proto::read_frame(&mut conn) {
            Ok(WorkerToManager::Join { .. }) => {}
            other => panic!("expected Join, got {other:?}"),
        }
        let welcome = ManagerToWorker::Welcome {
            worker: WorkerId(id),
        };
        vine_proto::write_frame(&mut conn, &welcome).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        (conn, worker)
    }

    /// The frames of `msgs`, back to back, for one `write_all`.
    fn frames(msgs: &[ManagerToWorker]) -> Vec<u8> {
        msgs.iter()
            .flat_map(|msg| encode_frame(msg).unwrap())
            .collect()
    }

    fn run_task(id: u64, text: &str) -> ManagerToWorker {
        ManagerToWorker::RunTask {
            task: task_of(id, text),
            stage: vec![],
        }
    }

    fn install_double(instance: u64) -> ManagerToWorker {
        let source = "def double(x) { return 2 * x }";
        let image = compile_image(LibraryInstanceId(instance), source, None, ExecMode::Direct);
        ManagerToWorker::InstallLibrary {
            image: image.unwrap(),
            stage: vec![],
        }
    }

    fn invoke_double(instance: u64, id: u64, x: i64) -> ManagerToWorker {
        let args = pickle::serialize_args(&[Value::Int(x)]).unwrap();
        let call = vine_core::task::FunctionCall::new(
            vine_core::ids::InvocationId(id),
            "lib",
            "double",
            args,
        );
        ManagerToWorker::Invoke {
            instance: LibraryInstanceId(instance),
            call,
        }
    }

    /// The next frame from the worker, which must be a `UnitDone`: its
    /// unit and its result.
    fn unit_done(conn: &mut TcpStream) -> (UnitId, Value) {
        match vine_proto::read_frame(conn) {
            Ok(WorkerToManager::UnitDone { outcome }) => {
                assert!(outcome.success, "{:?}", outcome.error);
                (outcome.unit, crate::decode_result(&outcome).unwrap())
            }
            other => panic!("expected UnitDone, got {other:?}"),
        }
    }

    #[test]
    fn a_task_at_a_gate_holds_up_no_frame_behind_it() {
        let (gate, registry, callers) = gated();
        let (mut conn, worker) = tcp_worker(9001, registry);
        conn.write_all(&frames(&[install_double(1)])).unwrap();
        assert!(matches!(
            vine_proto::read_frame(&mut conn),
            Ok(WorkerToManager::LibraryReady { .. })
        ));
        conn.write_all(&frames(&[run_task(1, GATED)])).unwrap();
        callers.recv().unwrap();

        // the thread that reads these two takes the task, so the call
        // behind it is read and served by a third
        let behind = [
            run_task(2, "def f() { return 6 * 7 }"),
            invoke_double(1, 3, 21),
        ];
        conn.write_all(&frames(&behind)).unwrap();
        let mut done = [unit_done(&mut conn), unit_done(&mut conn)];
        done.sort_by_key(|(unit, _)| *unit);
        let expected = [
            (UnitId::Task(TaskId(2)), Value::Int(42)),
            (
                UnitId::Call(vine_core::ids::InvocationId(3)),
                Value::Int(42),
            ),
        ];
        assert_eq!(done, expected);

        gate.open();
        assert_eq!(
            unit_done(&mut conn),
            (UnitId::Task(TaskId(1)), Value::Int(0))
        );
        conn.write_all(&frames(&[ManagerToWorker::Shutdown]))
            .unwrap();
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn frames_in_one_write_are_all_served() {
        let (mut conn, worker) = tcp_worker(9002, ModuleRegistry::new());
        let batch = [
            install_double(1),
            invoke_double(1, 1, 1),
            run_task(2, "def f() { return 6 * 7 }"),
            invoke_double(1, 3, 3),
        ];
        conn.write_all(&frames(&batch)).unwrap();
        let mut done = Vec::new();
        for _ in 0..4 {
            match vine_proto::read_frame(&mut conn) {
                Ok(WorkerToManager::LibraryReady { instance }) => {
                    assert_eq!(instance, LibraryInstanceId(1))
                }
                Ok(WorkerToManager::UnitDone { outcome }) => {
                    assert!(outcome.success, "{:?}", outcome.error);
                    done.push((outcome.unit, crate::decode_result(&outcome).unwrap()));
                }
                other => panic!("expected LibraryReady or UnitDone, got {other:?}"),
            }
        }
        done.sort_by_key(|(unit, _)| *unit);
        let call = |id| UnitId::Call(vine_core::ids::InvocationId(id));
        let expected = [
            (UnitId::Task(TaskId(2)), Value::Int(42)),
            (call(1), Value::Int(2)),
            (call(3), Value::Int(6)),
        ];
        assert_eq!(done, expected);
        conn.write_all(&frames(&[ManagerToWorker::Shutdown]))
            .unwrap();
        worker.join().unwrap().unwrap();
    }

    /// Threads of this process whose name starts with `prefix`.
    fn threads_named(prefix: &str) -> usize {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|name| name.starts_with(prefix))
            })
            .count()
    }

    #[test]
    fn a_shutdown_during_a_task_still_delivers_its_reply() {
        let (gate, registry, callers) = gated();
        let (mut conn, worker) = tcp_worker(9003, registry);
        conn.write_all(&frames(&[run_task(1, GATED)])).unwrap();
        callers.recv().unwrap();
        // the pool thread at the gate, and the one it started to read on
        let pool = format!("worker-{}-", WorkerId(9003));
        assert_eq!(threads_named(&pool), 2);
        conn.write_all(&frames(&[ManagerToWorker::Shutdown]))
            .unwrap();

        // the idle pool thread read the Shutdown and ended; the one at the
        // gate is left, and the worker has not returned
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while threads_named(&pool) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "the pool never closed"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(!worker.is_finished());

        gate.open();
        assert_eq!(
            unit_done(&mut conn),
            (UnitId::Task(TaskId(1)), Value::Int(0))
        );
        worker.join().unwrap().unwrap();
        assert!(matches!(
            vine_proto::read_frame::<WorkerToManager>(&mut conn),
            Err(vine_proto::FrameError::Closed)
        ));
    }

    #[test]
    fn a_refused_spare_thread_fails_its_task_and_the_worker_reads_on() {
        // the worker's first pool thread is its thread 0; a task needs a
        // second to be left reading, and the OS refuses it once
        let id = WorkerId(9004);
        crate::library_host::tests::refuse_spawn(&format!("worker-{id}-1"));
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut h = spawn_worker(id, ModuleRegistry::new(), etx);
        for id in 1..=2 {
            h.tx.send(run_task(id, "def f() { return 6 * 7 }")).unwrap();
        }
        let outcomes: Vec<Outcome> = (0..2)
            .map(
                |_| match erx.recv_timeout(std::time::Duration::from_secs(30)) {
                    Ok((_, WorkerToManager::UnitDone { outcome })) => outcome,
                    other => panic!("expected UnitDone, got {other:?}"),
                },
            )
            .collect();
        assert_eq!(outcomes[0].unit, UnitId::Task(TaskId(1)));
        let error = outcomes[0].error.as_deref().expect("the first task fails");
        assert!(error.starts_with("spawning worker thread: "), "{error}");
        assert_eq!(outcomes[1].unit, UnitId::Task(TaskId(2)));
        assert_eq!(crate::decode_result(&outcomes[1]).unwrap(), Value::Int(42));
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
        h.thread.take().unwrap().join().unwrap();
    }

    #[test]
    fn a_refused_daemon_reports_library_failed() {
        let instance = LibraryInstanceId(9005);
        crate::library_host::tests::refuse_spawn(&format!("library-{instance}"));
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut h = spawn_worker(WorkerId(9005), ModuleRegistry::new(), etx);
        h.tx.send(install_double(9005)).unwrap();
        match erx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok((
                _,
                WorkerToManager::LibraryFailed {
                    instance: got,
                    error,
                },
            )) => {
                assert_eq!(got, instance);
                assert!(error.starts_with("spawning library thread: "), "{error}");
            }
            other => panic!("expected LibraryFailed, got {other:?}"),
        }
        // the worker holds no instance for it: a call is handed back
        h.tx.send(invoke_double(9005, 1, 1)).unwrap();
        assert!(matches!(
            erx.recv_timeout(std::time::Duration::from_secs(30)),
            Ok((_, WorkerToManager::Requeue { .. }))
        ));
        h.tx.send(ManagerToWorker::Shutdown).unwrap();
        h.thread.take().unwrap().join().unwrap();
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
