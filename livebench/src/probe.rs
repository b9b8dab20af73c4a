//! Tracing from outside the program: a timing [`Transport`] wrapped around
//! the reactor, and a TCP worker that runs the public `worker_engine`
//! behind timestamped channels. Both stamp with one process-wide monotonic
//! clock, so a unit's hops line up end to end.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::UnitId;
use vine_lang::ModuleRegistry;
use vine_proto::{read_frame, write_frame, Frame, ManagerToWorker, WorkerToManager};
use vine_runtime::transport::{RecvError, Transport, TransportEvent, TransportStats};
use vine_runtime::worker_host::worker_engine;

/// Messages of each kind kept for the codec, library and language replays.
const CAPTURE: usize = 32;

/// Message kinds the reactor layer is reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Invoke,
    RunTask,
    InstallLibrary,
    Other,
}

impl Kind {
    fn of(msg: &ManagerToWorker) -> Kind {
        match msg {
            ManagerToWorker::Invoke { .. } => Kind::Invoke,
            ManagerToWorker::RunTask { .. } => Kind::RunTask,
            ManagerToWorker::InstallLibrary { .. } => Kind::InstallLibrary,
            _ => Kind::Other,
        }
    }
}

/// What the timing transport saw. Counters and timings accumulate only
/// while `recording`; message captures fill at any time.
#[derive(Default)]
pub struct ProbeLog {
    pub recording: bool,
    /// Per unit: start and end of the send that carried it.
    pub sends: HashMap<UnitId, (Instant, Instant)>,
    /// Per unit: when the manager side received its `UnitDone`.
    pub recvs: HashMap<UnitId, Instant>,
    /// Send durations (µs) per message kind.
    pub send_us: HashMap<Kind, Vec<f64>>,
    /// Time inside any transport call, and inside blocking receives.
    pub transport_time: Duration,
    pub recv_wait: Duration,
    pub installs: u64,
    pub evictions: u64,
    /// When each library instance's install was sent (instance ids restart
    /// with every cluster, so this holds the current cluster's).
    pub install_sent: HashMap<LibraryInstanceId, Instant>,
    /// Per dispatched call: when the instance it went to was installed.
    pub call_installed_at: HashMap<UnitId, Instant>,
    pub captured_out: HashMap<Kind, Vec<ManagerToWorker>>,
    pub captured_done: Vec<WorkerToManager>,
}

impl ProbeLog {
    fn sent(&mut self, msg: &ManagerToWorker, start: Instant, end: Instant) {
        let kind = Kind::of(msg);
        let kept = self.captured_out.entry(kind).or_default();
        if kept.len() < CAPTURE && kind != Kind::Other {
            kept.push(msg.clone());
        }
        if let ManagerToWorker::InstallLibrary { image, .. } = msg {
            self.install_sent.insert(image.instance, start);
        }
        if !self.recording {
            return;
        }
        self.transport_time += end - start;
        let unit = match msg {
            ManagerToWorker::Invoke { instance, call } => {
                let unit = UnitId::Call(call.id);
                if let Some(&at) = self.install_sent.get(instance) {
                    self.call_installed_at.insert(unit, at);
                }
                Some(unit)
            }
            ManagerToWorker::RunTask { task, .. } => Some(UnitId::Task(task.id)),
            ManagerToWorker::InstallLibrary { .. } => {
                self.installs += 1;
                None
            }
            ManagerToWorker::RemoveLibrary { .. } => {
                self.evictions += 1;
                None
            }
            _ => None,
        };
        if let Some(unit) = unit {
            self.sends.insert(unit, (start, end));
        }
        self.send_us
            .entry(kind)
            .or_default()
            .push((end - start).as_secs_f64() * 1e6);
    }

    fn received(&mut self, ev: &TransportEvent, at: Instant) {
        if let TransportEvent::Message {
            msg: msg @ WorkerToManager::UnitDone { outcome },
            ..
        } = ev
        {
            if self.captured_done.len() < CAPTURE {
                self.captured_done.push(msg.clone());
            }
            if self.recording {
                self.recvs.insert(outcome.unit, at);
            }
        }
    }
}

pub fn lock(log: &Mutex<ProbeLog>) -> MutexGuard<'_, ProbeLog> {
    log.lock()
        .expect("probe log poisoned by a panicking thread")
}

/// The reactor behind a stopwatch.
pub struct ProbeTransport {
    inner: Box<dyn Transport>,
    log: Arc<Mutex<ProbeLog>>,
}

impl ProbeTransport {
    pub fn new(inner: Box<dyn Transport>, log: Arc<Mutex<ProbeLog>>) -> ProbeTransport {
        ProbeTransport { inner, log }
    }
}

impl Transport for ProbeTransport {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> vine_core::Result<()> {
        // keep a copy for the log: the inner send consumes the message
        let copy = msg.clone();
        let start = Instant::now();
        let r = self.inner.send(worker, msg);
        let end = Instant::now();
        lock(&self.log).sent(&copy, start, end);
        r
    }

    fn send_frame(&mut self, worker: WorkerId, frame: &Frame) -> vine_core::Result<()> {
        let start = Instant::now();
        let r = self.inner.send_frame(worker, frame);
        let end = Instant::now();
        lock(&self.log).sent(frame.message(), start, end);
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<TransportEvent, RecvError> {
        let start = Instant::now();
        let r = self.inner.recv_timeout(timeout);
        let end = Instant::now();
        let mut log = lock(&self.log);
        if log.recording {
            log.recv_wait += end - start;
            log.transport_time += end - start;
        }
        if let Ok(ev) = &r {
            log.received(ev, end);
        }
        r
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        let start = Instant::now();
        let r = self.inner.try_recv();
        let end = Instant::now();
        let mut log = lock(&self.log);
        if log.recording {
            log.transport_time += end - start;
        }
        if let Some(ev) = &r {
            log.received(ev, end);
        }
        r
    }

    fn disconnect(&mut self, worker: WorkerId) {
        self.inner.disconnect(worker)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Worker-side stamps: when a unit's dispatch was decoded off the socket,
/// and when its `UnitDone` was handed to the socket.
#[derive(Default)]
pub struct WorkerLog {
    pub arrived: Mutex<Vec<(UnitId, Instant)>>,
    pub finished: Mutex<Vec<(UnitId, Instant)>>,
}

fn stamp(list: &Mutex<Vec<(UnitId, Instant)>>, unit: UnitId) {
    let at = Instant::now();
    list.lock()
        .expect("worker log poisoned by a panicking thread")
        .push((unit, at));
}

/// A TCP worker like `run_tcp_worker` — dial, `Join`, `Welcome`, then the
/// shared `worker_engine` — with the socket side of its channels stamped.
pub fn run_traced_worker(
    addr: SocketAddr,
    resources: Resources,
    registry: ModuleRegistry,
    log: Arc<WorkerLog>,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("dialing manager: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning socket: {e}"))?;
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, &WorkerToManager::Join { resources })
        .map_err(|e| format!("join: {e}"))?;
    let id = match read_frame::<ManagerToWorker>(&mut reader) {
        Ok(ManagerToWorker::Welcome { worker }) => worker,
        other => return Err(format!("expected Welcome, got {other:?}")),
    };

    let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<ManagerToWorker>();
    let (ev_tx, ev_rx) = crossbeam::channel::unbounded::<(WorkerId, WorkerToManager)>();
    let engine = std::thread::Builder::new()
        .name(format!("traced-worker-{id}"))
        .spawn(move || worker_engine(id, registry, cmd_rx, ev_tx))
        .map_err(|e| format!("spawning engine: {e}"))?;
    let uplink_log = Arc::clone(&log);
    let uplink = std::thread::Builder::new()
        .name(format!("traced-worker-{id}-uplink"))
        .spawn(move || {
            while let Ok((_, msg)) = ev_rx.recv() {
                if let WorkerToManager::UnitDone { outcome } = &msg {
                    stamp(&uplink_log.finished, outcome.unit);
                }
                if write_frame(&mut writer, &msg).is_err() {
                    break;
                }
            }
        })
        .map_err(|e| format!("spawning uplink: {e}"))?;

    loop {
        let msg = match read_frame::<ManagerToWorker>(&mut reader) {
            Ok(msg) => msg,
            // the manager hung up: stop like a shutdown
            Err(_) => ManagerToWorker::Shutdown,
        };
        match &msg {
            ManagerToWorker::Invoke { call, .. } => stamp(&log.arrived, UnitId::Call(call.id)),
            ManagerToWorker::RunTask { task, .. } => stamp(&log.arrived, UnitId::Task(task.id)),
            _ => {}
        }
        let stop = matches!(msg, ManagerToWorker::Shutdown);
        if cmd_tx.send(msg).is_err() || stop {
            break;
        }
    }
    drop(cmd_tx);
    let engine_ok = engine.join().is_ok();
    let uplink_ok = uplink.join().is_ok();
    if engine_ok && uplink_ok {
        Ok(())
    } else {
        Err("a traced worker thread panicked".into())
    }
}
