//! The TCP manager backend: one epoll reactor thread serving the whole
//! worker fleet.
//!
//! The first TCP backend was thread-per-connection: a sleep-polled accept
//! loop, one OS thread + `BufReader` per worker, and a global stream map
//! mutex held across blocking writes — one slow worker stalled sends to
//! everyone, and a thousand workers meant a thousand reader threads. This
//! module replaces all of it with a readiness-driven design, funcX-style:
//! a single `vine-reactor` thread owns every socket and multiplexes them
//! through an [`epoll`] instance (the shim under `shims/epoll` — raw
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` against the C library std
//! already links).
//!
//! Shape of the machine:
//!
//! * **Accept** — the listener is nonblocking and registered for
//!   readability; a burst of dialing workers is drained in one wake with
//!   no accept thread and no sleep loop.
//! * **Read** — each connection owns a [`FrameDecoder`]; whatever byte
//!   chunk the socket yields (half a header, three coalesced frames) is
//!   buffered and decoded incrementally. Complete messages flow into the
//!   same [`TransportEvent`] channel the runtime already drains.
//! * **Write** — [`Transport::send`] never touches a socket. It encodes
//!   the message once into a shared [`Frame`] (`Arc<[u8]>`), charges the
//!   worker's outbound gauge, and hands the bytes to the reactor, which
//!   flushes each connection's queue with vectored writes — many queued
//!   frames coalesce into one `writev`-style syscall. A broadcast (one
//!   frame to N workers) enqueues N `Arc` clones of the same bytes:
//!   serialized once, not N times.
//! * **Backpressure** — each worker's outbound queue is bounded
//!   ([`TcpConfig::max_queued_bytes`]). A slow worker fills *its* queue;
//!   senders targeting it block on its gauge until the reactor drains it
//!   or [`TcpConfig::send_timeout`] expires, at which point the worker is
//!   declared lost and its connection closed — the rest of the fleet
//!   never waits behind it.
//! * **Handshake deadline** — a connection that dials in but never sends
//!   `Join` used to pin a reader thread forever; now it is closed and
//!   counted ([`TransportStats::handshake_rejects`]) once
//!   [`TcpConfig::handshake_timeout`] passes.
//!
//! Crash semantics are unchanged from the threaded backend: a connection
//! dying — graceful leave, `kill -9`, mid-frame truncation — surfaces as
//! [`TransportEvent::Left`] and feeds the same requeue path. The worker
//! side ([`crate::transport::run_tcp_worker`]) is the threaded backend's.
//! Frames carry binary payloads ([`vine_proto::codec`]) with no version
//! negotiation: a worker that still sends JSON frames fails the handshake
//! on its first frame and is counted in `handshake_rejects`.

use crate::transport::{
    RecvError, Transport, TransportEvent, TransportStats, WorkerTransportStats,
};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use epoll::{Epoll, Event, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vine_core::ids::WorkerId;
use vine_core::{Result, VineError};
use vine_proto::{encode_frame, Frame, FrameDecoder, ManagerToWorker, WorkerToManager};

/// Tuning knobs of the reactor backend. The defaults serve a real fleet;
/// tests shrink them to provoke the edge paths quickly.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// How long a freshly accepted connection may sit without sending
    /// `Join` before it is closed and counted as rejected.
    pub handshake_timeout: Duration,
    /// Outbound queue bound per worker, in bytes. Sends beyond it block
    /// the caller (that worker only) until the reactor drains the queue.
    pub max_queued_bytes: usize,
    /// How long a send may wait on a full queue before the worker is
    /// declared lost.
    pub send_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            handshake_timeout: Duration::from_secs(10),
            max_queued_bytes: 64 * 1024 * 1024,
            send_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-worker accounting shared between the sending side (backpressure,
/// stats) and the reactor (drain notifications). All counters are
/// monotonic over the connection's life and survive its death, so stats
/// cover departed workers too.
struct Gauge {
    queued_bytes: AtomicUsize,
    queue_hwm_bytes: AtomicUsize,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    alive: AtomicBool,
    /// Senders park here when the queue is full; the reactor notifies
    /// after draining or on connection death.
    drain_lock: Mutex<()>,
    drained: Condvar,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            queued_bytes: AtomicUsize::new(0),
            queue_hwm_bytes: AtomicUsize::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            drain_lock: Mutex::new(()),
            drained: Condvar::new(),
        }
    }

    /// Charge `len` queued bytes and track the high-water mark.
    fn charge(&self, len: usize) {
        let now = self.queued_bytes.fetch_add(len, Ordering::Relaxed) + len;
        self.queue_hwm_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Release `len` queued bytes and wake parked senders.
    fn release(&self, len: usize) {
        self.queued_bytes.fetch_sub(len, Ordering::Relaxed);
        let _g = self.drain_lock.lock().unwrap();
        self.drained.notify_all();
    }

    /// Mark the worker gone and wake parked senders so they fail fast.
    fn kill(&self) {
        self.alive.store(false, Ordering::Relaxed);
        let _g = self.drain_lock.lock().unwrap();
        self.drained.notify_all();
    }
}

/// What the manager thread asks the reactor to do.
enum Command {
    /// Append pre-encoded bytes to one worker's outbound queue.
    Send { worker: WorkerId, bytes: Arc<[u8]> },
    /// Sever one worker's connection.
    Disconnect(WorkerId),
    /// Broadcast `Shutdown`, drain, close everything, exit.
    Shutdown,
}

/// State shared between the [`TcpTransport`] handle and its reactor.
struct SharedState {
    gauges: Mutex<BTreeMap<WorkerId, Arc<Gauge>>>,
    commands: Mutex<VecDeque<Command>>,
    wake: WakeFd,
    handshake_rejects: AtomicU64,
}

impl SharedState {
    fn push(&self, cmd: Command) {
        self.commands.lock().unwrap().push_back(cmd);
        self.wake.wake();
    }
}

/// The manager side of the TCP backend: bind once, let workers dial in,
/// serve thousands of them from one reactor thread.
pub struct TcpTransport {
    shared: Arc<SharedState>,
    events: Receiver<TransportEvent>,
    /// Held so the event channel outlives transient disconnect storms.
    _events_tx: Sender<TransportEvent>,
    local_addr: SocketAddr,
    cfg: TcpConfig,
    reactor: Option<JoinHandle<()>>,
}

impl TcpTransport {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// admitting workers with default tuning.
    pub fn listen(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        TcpTransport::listen_with(addr, TcpConfig::default())
    }

    /// Bind with explicit reactor tuning.
    pub fn listen_with(addr: impl ToSocketAddrs, cfg: TcpConfig) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(SharedState {
            gauges: Mutex::new(BTreeMap::new()),
            commands: Mutex::new(VecDeque::new()),
            wake: WakeFd::new()?,
            handshake_rejects: AtomicU64::new(0),
        });
        let (etx, erx) = crossbeam::channel::unbounded();

        let reactor = {
            let mut r = Reactor::new(listener, Arc::clone(&shared), etx.clone(), cfg.clone())?;
            std::thread::Builder::new()
                .name("vine-reactor".into())
                .spawn(move || r.run())?
        };

        Ok(TcpTransport {
            shared,
            events: erx,
            _events_tx: etx,
            local_addr,
            cfg,
            reactor: Some(reactor),
        })
    }

    /// The address workers should dial (resolves `:0` bindings).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Queue pre-encoded bytes to one worker, blocking on its (and only
    /// its) backpressure gauge.
    fn send_bytes(&self, worker: WorkerId, bytes: Arc<[u8]>) -> Result<()> {
        let gauge = self
            .shared
            .gauges
            .lock()
            .unwrap()
            .get(&worker)
            .cloned()
            .ok_or(VineError::WorkerLost(worker))?;
        if !gauge.alive.load(Ordering::Relaxed) {
            return Err(VineError::WorkerLost(worker));
        }

        let len = bytes.len();
        let deadline = Instant::now() + self.cfg.send_timeout;
        let mut guard = gauge.drain_lock.lock().unwrap();
        loop {
            if !gauge.alive.load(Ordering::Relaxed) {
                return Err(VineError::WorkerLost(worker));
            }
            let queued = gauge.queued_bytes.load(Ordering::Relaxed);
            // an empty queue always admits one frame, even an oversized
            // one — otherwise a frame bigger than the bound could never
            // be sent at all
            if queued == 0 || queued + len <= self.cfg.max_queued_bytes {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                // the worker has not drained its queue within the send
                // budget: declare it lost so its in-flight work requeues
                // elsewhere, and let the reactor reap the connection
                drop(guard);
                self.shared.push(Command::Disconnect(worker));
                return Err(VineError::WorkerLost(worker));
            }
            let (g, _) = gauge.drained.wait_timeout(guard, deadline - now).unwrap();
            guard = g;
        }
        drop(guard);

        gauge.charge(len);
        self.shared.push(Command::Send { worker, bytes });
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()> {
        let bytes =
            encode_frame(&msg).map_err(|e| VineError::Protocol(format!("encoding frame: {e}")))?;
        self.send_bytes(worker, Arc::from(bytes.into_boxed_slice()))
    }

    fn send_frame(&mut self, worker: WorkerId, frame: &Frame) -> Result<()> {
        // the serialize-once path: the frame was encoded by the caller,
        // possibly for many recipients; this enqueues a shared reference
        self.send_bytes(worker, Arc::clone(frame.bytes()))
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<TransportEvent, RecvError> {
        match self.events.recv_timeout(timeout) {
            Ok(ev) => Ok(ev),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        self.events.try_recv().ok()
    }

    fn disconnect(&mut self, worker: WorkerId) {
        if let Some(g) = self.shared.gauges.lock().unwrap().get(&worker) {
            g.kill();
        }
        self.shared.push(Command::Disconnect(worker));
    }

    fn shutdown(&mut self) {
        if let Some(t) = self.reactor.take() {
            self.shared.push(Command::Shutdown);
            let _ = t.join();
            for g in self.shared.gauges.lock().unwrap().values() {
                g.kill();
            }
        }
    }

    fn stats(&self) -> TransportStats {
        let workers = self
            .shared
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(w, g)| WorkerTransportStats {
                worker: *w,
                frames_in: g.frames_in.load(Ordering::Relaxed),
                frames_out: g.frames_out.load(Ordering::Relaxed),
                bytes_in: g.bytes_in.load(Ordering::Relaxed),
                bytes_out: g.bytes_out.load(Ordering::Relaxed),
                queue_hwm_bytes: g.queue_hwm_bytes.load(Ordering::Relaxed) as u64,
                alive: g.alive.load(Ordering::Relaxed),
            })
            .collect();
        TransportStats {
            workers,
            handshake_rejects: self.shared.handshake_rejects.load(Ordering::Relaxed),
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------- reactor

/// Slab tokens 0 and 1 are the listener and the wake fd; connections
/// start at 2.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_CONNS: u64 = 2;

/// Cap on socket reads consumed per readiness event, so one firehose
/// connection cannot starve the rest of a wake cycle (level-triggered
/// epoll re-reports whatever is left).
const MAX_READS_PER_EVENT: usize = 16;

/// Frames coalesced into one vectored write.
const MAX_IOVECS: usize = 64;

/// How long shutdown waits for outbound queues (the `Shutdown` broadcast
/// included) to drain before closing sockets anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// `None` until the `Join` handshake lands.
    worker: Option<WorkerId>,
    gauge: Option<Arc<Gauge>>,
    decoder: FrameDecoder,
    /// Outbound frames; the front one may be partially written.
    outq: VecDeque<Arc<[u8]>>,
    /// Bytes of `outq[0]` already on the wire.
    out_off: usize,
    /// Whether EPOLLOUT is currently part of the interest set.
    want_write: bool,
    /// Join-or-die deadline for handshaking connections.
    handshake_deadline: Option<Instant>,
}

/// Why a connection is being closed — controls which events surface.
enum Close {
    /// A joined worker is gone: emit [`TransportEvent::Left`].
    Lost,
    /// Handshake never completed (timeout or a non-`Join` first message):
    /// count the rejection, emit nothing.
    Rejected,
    /// Deliberate teardown (shutdown drain): emit nothing.
    Quiet,
}

struct Reactor {
    ep: Epoll,
    listener: TcpListener,
    shared: Arc<SharedState>,
    events: Sender<TransportEvent>,
    cfg: TcpConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    by_worker: BTreeMap<WorkerId, usize>,
    /// Connections still waiting for `Join` (guards the deadline scan).
    handshaking: usize,
    next_worker: u32,
    /// Set once `Shutdown` arrives: drain until this deadline, then exit.
    drain_until: Option<Instant>,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        shared: Arc<SharedState>,
        events: Sender<TransportEvent>,
        cfg: TcpConfig,
    ) -> std::io::Result<Reactor> {
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        ep.add(shared.wake.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        Ok(Reactor {
            ep,
            listener,
            shared,
            events,
            cfg,
            conns: Vec::new(),
            free: Vec::new(),
            by_worker: BTreeMap::new(),
            handshaking: 0,
            next_worker: 0,
            drain_until: None,
        })
    }

    fn run(&mut self) {
        let mut ready: Vec<Event> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            if self.ep.wait(&mut ready, 256, timeout).is_err() {
                break;
            }
            let batch = std::mem::take(&mut ready);
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => {
                        self.shared.wake.drain();
                        self.drain_commands();
                    }
                    t => self.conn_event((t - TOKEN_CONNS) as usize, ev.readiness),
                }
            }
            ready = batch;
            // commands may have queued while sockets were being served
            self.drain_commands();
            self.reap_handshake_timeouts();
            if self.drain_finished() {
                break;
            }
        }
        // teardown: close every socket; parked senders fail fast
        for slot in 0..self.conns.len() {
            self.close(slot, Close::Quiet);
        }
    }

    /// Milliseconds until the nearest deadline (handshakes, drain), or
    /// `None` to block until a socket or the wake fd stirs.
    fn next_timeout(&self) -> Option<u32> {
        let mut next: Option<Instant> = self.drain_until;
        if self.handshaking > 0 {
            for conn in self.conns.iter().flatten() {
                if let Some(d) = conn.handshake_deadline {
                    next = Some(next.map_or(d, |n| n.min(d)));
                }
            }
        }
        next.map(|d| {
            d.saturating_duration_since(Instant::now())
                .as_millis()
                .min(u32::MAX as u128) as u32
        })
    }

    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // frames are small and latency-bound: never sit on one
                    // waiting for Nagle + delayed ACK to agree
                    stream.set_nodelay(true).ok();
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = TOKEN_CONNS + slot as u64;
                    if self
                        .ep
                        .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(Conn {
                        stream,
                        worker: None,
                        gauge: None,
                        decoder: FrameDecoder::new(),
                        outq: VecDeque::new(),
                        out_off: 0,
                        want_write: false,
                        handshake_deadline: Some(Instant::now() + self.cfg.handshake_timeout),
                    });
                    self.handshaking += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn drain_commands(&mut self) {
        loop {
            let cmd = self.shared.commands.lock().unwrap().pop_front();
            let Some(cmd) = cmd else { break };
            match cmd {
                Command::Send { worker, bytes } => match self.by_worker.get(&worker).copied() {
                    Some(slot) => {
                        if let Some(conn) = self.conns[slot].as_mut() {
                            conn.outq.push_back(bytes);
                        }
                        // opportunistic flush: the socket is almost always
                        // writable, so most frames never arm EPOLLOUT
                        self.flush(slot);
                    }
                    None => {
                        // the connection died between enqueue and here:
                        // un-charge the gauge so parked senders move on
                        if let Some(g) = self.shared.gauges.lock().unwrap().get(&worker) {
                            g.release(bytes.len());
                        }
                    }
                },
                Command::Disconnect(worker) => {
                    if let Some(slot) = self.by_worker.get(&worker).copied() {
                        self.close(slot, Close::Lost);
                    }
                }
                Command::Shutdown => self.begin_drain(),
            }
        }
    }

    /// `Shutdown` broadcast: encode the frame **once**, queue the same
    /// bytes to every joined worker, then drain until queues empty or the
    /// deadline passes. Handshaking connections are closed immediately.
    fn begin_drain(&mut self) {
        if self.drain_until.is_some() {
            return;
        }
        self.drain_until = Some(Instant::now() + DRAIN_TIMEOUT);
        let frame = Frame::encode_once(ManagerToWorker::Shutdown).expect("shutdown encodes");
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.worker.is_none() {
                // never completed the handshake and the fleet is going
                // away: not a protocol violation, just a quiet close
                self.close(slot, Close::Quiet);
                continue;
            }
            if let Some(g) = &conn.gauge {
                g.charge(frame.len());
            }
            conn.outq.push_back(Arc::clone(frame.bytes()));
            self.flush(slot);
        }
    }

    /// During drain: true once every queue flushed (or the deadline hit),
    /// which ends the reactor.
    fn drain_finished(&self) -> bool {
        let Some(deadline) = self.drain_until else {
            return false;
        };
        let expired = Instant::now() >= deadline;
        let pending = self.conns.iter().flatten().any(|c| !c.outq.is_empty());
        expired || !pending
    }

    fn reap_handshake_timeouts(&mut self) {
        if self.handshaking == 0 {
            return;
        }
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let overdue = matches!(
                self.conns[slot].as_ref().and_then(|c| c.handshake_deadline),
                Some(d) if now >= d
            );
            if overdue {
                self.close(slot, Close::Rejected);
            }
        }
    }

    fn conn_event(&mut self, slot: usize, readiness: u32) {
        if !matches!(self.conns.get(slot), Some(Some(_))) {
            return; // stale event for a slot already reaped this wake
        }
        if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            self.readable(slot);
        }
        if readiness & EPOLLOUT != 0 {
            self.flush(slot);
        }
    }

    fn readable(&mut self, slot: usize) {
        let mut scratch = [0u8; 64 * 1024];
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // peer closed; whether it is a crash or a graceful
                    // leave, the worker is gone
                    self.close(slot, Close::Lost);
                    return;
                }
                Ok(n) => {
                    if let Some(g) = &conn.gauge {
                        g.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    conn.decoder.extend(&scratch[..n]);
                    if !self.pump_decoder(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, Close::Lost);
                    return;
                }
            }
        }
    }

    /// Decode every complete frame buffered on `slot`. Returns false if
    /// the connection was closed (handshake violation or garbage bytes).
    fn pump_decoder(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            match conn.decoder.decode::<WorkerToManager>() {
                Ok(None) => return true,
                Ok(Some(msg)) => match conn.worker {
                    None => {
                        // §3.5 step 1: the first frame must be Join
                        let WorkerToManager::Join { resources } = msg else {
                            self.close(slot, Close::Rejected);
                            return false;
                        };
                        self.admit(slot, resources);
                    }
                    Some(worker) => {
                        if let Some(g) = &conn.gauge {
                            g.frames_in.fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = self.events.send(TransportEvent::Message { worker, msg });
                    }
                },
                Err(_) => {
                    // unframeable garbage or an oversized header: the
                    // stream cannot be resynchronized
                    let rejected = conn.worker.is_none();
                    self.close(
                        slot,
                        if rejected {
                            Close::Rejected
                        } else {
                            Close::Lost
                        },
                    );
                    return false;
                }
            }
        }
    }

    /// Admit a handshaking connection: assign a [`WorkerId`], publish its
    /// gauge, queue `Welcome`, announce the join.
    fn admit(&mut self, slot: usize, resources: vine_core::resources::Resources) {
        let worker = WorkerId(self.next_worker);
        self.next_worker += 1;
        let gauge = Arc::new(Gauge::new());
        // the gauge must be visible before Joined is observable, so the
        // first send the runtime issues finds it
        self.shared
            .gauges
            .lock()
            .unwrap()
            .insert(worker, Arc::clone(&gauge));

        let welcome = encode_frame(&ManagerToWorker::Welcome { worker }).expect("welcome encodes");
        let welcome: Arc<[u8]> = Arc::from(welcome.into_boxed_slice());
        gauge.charge(welcome.len());

        let conn = self.conns[slot].as_mut().expect("admitting a live conn");
        conn.worker = Some(worker);
        conn.gauge = Some(gauge);
        conn.handshake_deadline = None;
        self.handshaking -= 1;
        conn.outq.push_back(welcome);
        self.by_worker.insert(worker, slot);

        let _ = self
            .events
            .send(TransportEvent::Joined { worker, resources });
        self.flush(slot);
    }

    /// Write as much of `slot`'s outbound queue as the socket accepts,
    /// coalescing queued frames into vectored writes. Arms or disarms
    /// EPOLLOUT to match what remains.
    fn flush(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.outq.is_empty() {
                break;
            }
            let wrote = {
                let mut iov: Vec<IoSlice> = Vec::with_capacity(conn.outq.len().min(MAX_IOVECS));
                for (i, frame) in conn.outq.iter().take(MAX_IOVECS).enumerate() {
                    let bytes = if i == 0 {
                        &frame[conn.out_off..]
                    } else {
                        &frame[..]
                    };
                    iov.push(IoSlice::new(bytes));
                }
                conn.stream.write_vectored(&iov)
            };
            match wrote {
                Ok(0) => {
                    self.close(slot, Close::Lost);
                    return;
                }
                Ok(mut n) => {
                    if let Some(g) = &conn.gauge {
                        g.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    while n > 0 {
                        let front_len = conn.outq[0].len();
                        let remaining = front_len - conn.out_off;
                        if n >= remaining {
                            n -= remaining;
                            conn.outq.pop_front();
                            conn.out_off = 0;
                            if let Some(g) = &conn.gauge {
                                g.frames_out.fetch_add(1, Ordering::Relaxed);
                                g.release(front_len);
                            }
                        } else {
                            conn.out_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_write_interest(slot, true);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, Close::Lost);
                    return;
                }
            }
        }
        self.set_write_interest(slot, false);
    }

    fn set_write_interest(&mut self, slot: usize, want: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.want_write == want {
            return;
        }
        conn.want_write = want;
        let interest = if want {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        let _ = self
            .ep
            .modify(conn.stream.as_raw_fd(), interest, TOKEN_CONNS + slot as u64);
    }

    fn close(&mut self, slot: usize, why: Close) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.ep.delete(conn.stream.as_raw_fd());
        if conn.handshake_deadline.is_some() {
            self.handshaking -= 1;
        }
        if let Some(worker) = conn.worker {
            self.by_worker.remove(&worker);
            if let Some(g) = &conn.gauge {
                // un-charge whatever never made it to the wire, then mark
                // the worker dead so parked senders fail fast
                let undelivered: usize =
                    conn.outq.iter().map(|f| f.len()).sum::<usize>() - conn.out_off;
                if undelivered > 0 {
                    g.release(undelivered);
                }
                g.kill();
            }
            if matches!(why, Close::Lost) {
                let _ = self.events.send(TransportEvent::Left { worker });
            }
        } else if matches!(why, Close::Rejected) {
            self.shared
                .handshake_rejects
                .fetch_add(1, Ordering::Relaxed);
        }
        // dropping `conn` closes the socket
        self.free.push(slot);
    }
}
