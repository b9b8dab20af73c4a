//! The transport seam between the manager and its workers.
//!
//! Everything the runtime says crosses this boundary as a typed
//! [`vine_proto`] message; nothing above it knows whether a worker is a
//! thread in this process or a process on another machine. Two backends:
//!
//! * [`InProcTransport`] — workers are threads, messages move over
//!   crossbeam channels untouched (today's semantics, zero serialization);
//! * [`TcpTransport`](crate::reactor::TcpTransport) — the manager binds a
//!   listener, workers dial in and speak [`vine_proto::framing`] frames
//!   over `std::net` sockets, and one epoll loop, run by the manager's
//!   thread inside its transport calls, serves the whole fleet (see
//!   [`crate::reactor`]). A connection dropping (worker crash, `kill -9`,
//!   network partition) surfaces as [`TransportEvent::Left`], which the
//!   runtime feeds into the same requeue path as an explicit worker kill.
//!
//! The worker side of the TCP backend is [`run_tcp_worker`]: dial, `Join`
//! with a capacity announcement, receive `Welcome`, then serve the
//! commands with a pool of threads that wait on the socket through one
//! epoll instance, the same pool the in-process backend's
//! [`worker_engine`](crate::worker_host::worker_engine) runs over its
//! channel — one engine, two substrates. The thread a frame wakes serves
//! it, and runs a task it carries itself. Library daemons and pool threads
//! encode their own replies and write them to the socket, so a unit
//! crosses no worker thread that only moves it along. In process, they
//! send them straight onto the transport's event channel.

use crate::worker_host::{serve_socket, spawn_worker, WorkerHandle};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::{BTreeMap, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use vine_core::ids::WorkerId;
use vine_core::resources::Resources;
use vine_core::{Result, VineError};
use vine_lang::ModuleRegistry;
use vine_proto::{read_frame, write_frame, Frame, ManagerToWorker, WorkerToManager};

/// What a transport can tell the runtime.
#[derive(Debug)]
pub enum TransportEvent {
    /// A worker connected and announced its capacity (§3.5 join).
    Joined {
        worker: WorkerId,
        resources: Resources,
    },
    /// A connected worker sent a protocol message.
    Message {
        worker: WorkerId,
        msg: WorkerToManager,
    },
    /// A worker's connection is gone — graceful leave or crash alike. The
    /// runtime routes this into [`vine_manager::Manager::worker_left`].
    Left { worker: WorkerId },
}

/// Why a blocking receive returned without an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No event within the deadline.
    Timeout,
    /// The transport can never produce another event.
    Closed,
}

/// Manager-side view of a worker fleet. Object-safe so the runtime can
/// hold any backend behind one pointer.
pub trait Transport: Send {
    /// Deliver a message to one worker. `Err(WorkerLost)` means the worker
    /// is unreachable — the caller decides whether that is fatal.
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()>;

    /// Deliver a pre-encoded [`Frame`] to one worker: a broadcast encodes
    /// once and calls this per recipient. Byte-moving backends ship the
    /// shared bytes without re-serializing, channel backends deliver the
    /// typed message without a decode. The default just unwraps the typed
    /// message.
    fn send_frame(&mut self, worker: WorkerId, frame: &Frame) -> Result<()> {
        self.send(worker, frame.to_message())
    }

    /// Block for the next event, up to `timeout`.
    fn recv_timeout(&mut self, timeout: Duration)
        -> std::result::Result<TransportEvent, RecvError>;

    /// Drain one already-queued event without blocking.
    fn try_recv(&mut self) -> Option<TransportEvent>;

    /// Forcibly sever one worker (fault injection, eviction of a sick
    /// peer). In-process this stops and joins the thread; over TCP it
    /// closes the socket. No [`TransportEvent::Left`] ordering guarantee —
    /// callers do their own bookkeeping.
    fn disconnect(&mut self, worker: WorkerId);

    /// Gracefully stop every worker and release transport resources.
    /// Idempotent.
    fn shutdown(&mut self);

    /// A snapshot of per-worker traffic counters. Every backend meters
    /// frames; byte counters stay zero on backends without a wire
    /// (in-process channels move typed messages, not encoded bytes).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

// ------------------------------------------------------------------ stats

/// Lifetime traffic counters for one worker connection, as metered by the
/// transport. Counters survive the worker's death so a post-run snapshot
/// covers the whole fleet.
#[derive(Debug, Clone, Default)]
pub struct WorkerTransportStats {
    pub worker: WorkerId,
    /// Complete frames decoded from this worker.
    pub frames_in: u64,
    /// Complete frames flushed to this worker.
    pub frames_out: u64,
    /// Raw bytes read off the socket (including partial frames).
    pub bytes_in: u64,
    /// Raw bytes written to the socket.
    pub bytes_out: u64,
    /// High-water mark of the outbound queue, in bytes — how far this
    /// worker fell behind at its worst.
    pub queue_hwm_bytes: u64,
    /// Whether the connection was still up when the snapshot was taken.
    pub alive: bool,
}

/// A fleet-wide snapshot from [`Transport::stats`].
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    pub workers: Vec<WorkerTransportStats>,
    /// Connections closed without completing the `Join` handshake
    /// (deadline expired or the first message was not `Join`).
    pub handshake_rejects: u64,
}

impl TransportStats {
    /// Render a compact human-readable table (one line per worker plus a
    /// totals line), for end-of-run diagnostics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("transport stats:\n");
        out.push_str("  worker  frames_in  frames_out    bytes_in   bytes_out  queue_hwm  alive\n");
        let (mut fi, mut fo, mut bi, mut bo) = (0u64, 0u64, 0u64, 0u64);
        for w in &self.workers {
            fi += w.frames_in;
            fo += w.frames_out;
            bi += w.bytes_in;
            bo += w.bytes_out;
            out.push_str(&format!(
                "  {:>6} {:>10} {:>11} {:>11} {:>11} {:>10} {:>6}\n",
                w.worker.0,
                w.frames_in,
                w.frames_out,
                w.bytes_in,
                w.bytes_out,
                w.queue_hwm_bytes,
                if w.alive { "yes" } else { "no" },
            ));
        }
        out.push_str(&format!(
            "  totals: {} workers, {fi} frames in / {fo} out, {bi} bytes in / {bo} out, {} handshake rejects\n",
            self.workers.len(),
            self.handshake_rejects,
        ));
        out
    }
}

// ---------------------------------------------------------------- in-proc

/// Workers as threads in this process, channels as wires — today's live
/// runtime semantics, preserved exactly.
pub struct InProcTransport {
    workers: BTreeMap<WorkerId, WorkerHandle>,
    events: Receiver<(WorkerId, WorkerToManager)>,
    /// Kept so the event channel outlives transient worker sets and so
    /// late-added workers can be wired to the same stream.
    events_tx: Sender<(WorkerId, WorkerToManager)>,
    registry: ModuleRegistry,
    /// Join announcements queued at construction (and by [`add_worker`]).
    pending: VecDeque<TransportEvent>,
    next_id: u32,
    /// Per-worker `(frames_in, frames_out)` message counters — the
    /// in-proc analogue of the reactor's wire metering. Entries survive
    /// worker death so a post-run snapshot covers the whole fleet.
    counters: BTreeMap<WorkerId, (u64, u64)>,
}

impl InProcTransport {
    /// Spawn `workers` worker threads, each announcing `resources`.
    pub fn new(workers: usize, resources: Resources, registry: ModuleRegistry) -> InProcTransport {
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut t = InProcTransport {
            workers: BTreeMap::new(),
            events: erx,
            events_tx: etx,
            registry,
            pending: VecDeque::new(),
            next_id: 0,
            counters: BTreeMap::new(),
        };
        for _ in 0..workers {
            t.add_worker(resources);
        }
        t
    }

    /// Spawn one more worker thread; its join event is queued like a
    /// freshly dialed TCP worker's would be.
    pub fn add_worker(&mut self, resources: Resources) -> WorkerId {
        let id = WorkerId(self.next_id);
        self.next_id += 1;
        self.workers.insert(
            id,
            spawn_worker(id, self.registry.clone(), self.events_tx.clone()),
        );
        self.counters.insert(id, (0, 0));
        self.pending.push_back(TransportEvent::Joined {
            worker: id,
            resources,
        });
        id
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()> {
        self.workers
            .get(&worker)
            .ok_or(VineError::WorkerLost(worker))?
            .tx
            .send(msg)
            .map_err(|_| VineError::WorkerLost(worker))?;
        self.counters.entry(worker).or_default().1 += 1;
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<TransportEvent, RecvError> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(ev);
        }
        match self.events.recv_timeout(timeout) {
            Ok((worker, msg)) => {
                self.counters.entry(worker).or_default().0 += 1;
                Ok(TransportEvent::Message { worker, msg })
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        if let Some(ev) = self.pending.pop_front() {
            return Some(ev);
        }
        let (worker, msg) = self.events.try_recv().ok()?;
        self.counters.entry(worker).or_default().0 += 1;
        Some(TransportEvent::Message { worker, msg })
    }

    fn disconnect(&mut self, worker: WorkerId) {
        if let Some(mut h) = self.workers.remove(&worker) {
            let _ = h.tx.send(ManagerToWorker::Shutdown);
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            workers: self
                .counters
                .iter()
                .map(|(&worker, &(fi, fo))| WorkerTransportStats {
                    worker,
                    frames_in: fi,
                    frames_out: fo,
                    // channels carry typed messages: no wire, no bytes
                    bytes_in: 0,
                    bytes_out: 0,
                    queue_hwm_bytes: 0,
                    alive: self.workers.contains_key(&worker),
                })
                .collect(),
            handshake_rejects: 0,
        }
    }

    fn shutdown(&mut self) {
        for (id, h) in self.workers.iter_mut() {
            if h.tx.send(ManagerToWorker::Shutdown).is_ok() {
                self.counters.entry(*id).or_default().1 += 1;
            }
        }
        for (_, mut h) in std::mem::take(&mut self.workers) {
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for InProcTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ----------------------------------------------------------- worker side

/// Dial a manager and serve as a worker until it says `Shutdown` (or the
/// connection dies). This is the whole worker process: handshake, then a
/// pool of threads that wait on the socket together; the one a frame wakes
/// serves it, and runs a task it carries itself. Library daemons and pool
/// threads write their own replies to the socket. The calling thread runs
/// no user code: it returns once the pool has ended and the daemons have
/// stopped, with every reply they owed written.
pub fn run_tcp_worker(
    addr: impl ToSocketAddrs,
    resources: Resources,
    registry: ModuleRegistry,
) -> Result<()> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| VineError::Protocol(format!("dialing manager: {e}")))?;
    stream.set_nodelay(true).ok();

    write_frame(&mut &stream, &WorkerToManager::Join { resources })
        .map_err(|e| VineError::Protocol(format!("join: {e}")))?;
    // unbuffered: the read takes the Welcome frame and nothing after it,
    // which the pool reads
    let id = match read_frame::<ManagerToWorker>(&mut &stream) {
        Ok(ManagerToWorker::Welcome { worker }) => worker,
        Ok(other) => {
            return Err(VineError::Protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
        Err(e) => return Err(VineError::Protocol(format!("welcome: {e}"))),
    };
    serve_socket(id, registry, stream)
        .map_err(|e| VineError::Protocol(format!("starting worker {id}: {e}")))
}
