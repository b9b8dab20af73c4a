//! The TCP manager backend: one epoll reactor thread serving the whole
//! worker fleet.
//!
//! The first TCP backend was thread-per-connection: a sleep-polled accept
//! loop, one OS thread + `BufReader` per worker, and a global stream map
//! mutex held across blocking writes — one slow worker stalled sends to
//! everyone, and a thousand workers meant a thousand reader threads. This
//! module replaces all of it with a readiness-driven design, funcX-style:
//! a single `vine-reactor` thread accepts, reads and closes every socket
//! and multiplexes them through an [`epoll`] instance (the shim under
//! `shims/epoll` — raw `epoll_create1`/`epoll_ctl`/`epoll_wait` against
//! the C library std already links).
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
//! * **Write** — [`Transport::send`] encodes the message and, when that
//!   worker's outbound queue is empty, writes the frame to the nonblocking
//!   socket from the caller's thread: a frame the socket takes whole
//!   costs no hand-off and no wake. Only a tail the socket does not take
//!   now, and frames queued behind it, go to the reactor, which flushes
//!   the queue with vectored writes on `EPOLLOUT` — many queued frames
//!   coalesce into one `writev`-style syscall. Direct writes and flushes
//!   take the same per-worker lock, so frames never reorder or
//!   interleave. A broadcast (one [`Frame`] to N workers) writes or
//!   queues the same shared bytes (`Arc<[u8]>`): serialized once, not N
//!   times.
//! * **Backpressure** — each worker's outbound queue is bounded
//!   ([`TcpConfig::max_queued_bytes`]). A slow worker fills *its* queue;
//!   senders targeting it block until the reactor drains it or
//!   [`TcpConfig::send_timeout`] expires, at which point the worker is
//!   declared lost and its connection closed — the rest of the fleet
//!   never waits behind it. A send that fails on the socket leaves its
//!   frame queued, and the reactor's flush meets the error, so one place
//!   reports [`TransportEvent::Left`].
//! * **Handshake deadline** — a connection that dials in but never sends
//!   `Join` used to pin a reader thread forever; now it is closed and
//!   counted ([`TransportStats::handshake_rejects`]) once
//!   [`TcpConfig::handshake_timeout`] passes.
//!
//! Crash semantics are unchanged from the threaded backend: a connection
//! dying — graceful leave, `kill -9`, mid-frame truncation — surfaces as
//! [`TransportEvent::Left`] and feeds the same requeue path. The worker
//! side is [`crate::transport::run_tcp_worker`].
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// One worker's connection as senders and the reactor share it: the
/// outbound side under one lock, plus traffic accounting. All counters are
/// monotonic over the connection's life and survive its death, so stats
/// cover departed workers too.
struct Peer {
    /// Whoever writes to the socket holds this lock: a sender writing a
    /// frame directly, or the reactor flushing the queue. Frames therefore
    /// reach the wire whole and in send order.
    out: Mutex<Outbound>,
    queued_bytes: AtomicUsize,
    queue_hwm_bytes: AtomicUsize,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    alive: AtomicBool,
    /// Senders park here when the queue is full; the reactor notifies
    /// after draining or on connection death. Never take `out` while
    /// holding this lock.
    drain_lock: Mutex<()>,
    drained: Condvar,
}

/// The outbound side of one connection.
struct Outbound {
    /// The socket, shared with the reactor's connection; `None` once the
    /// reactor has closed it, so a dead connection is not held open.
    stream: Option<Arc<TcpStream>>,
    /// Frames the socket has not taken yet; the front one may be partially
    /// written. Charged whole to `queued_bytes`.
    queue: VecDeque<Arc<[u8]>>,
    /// Bytes of `queue[0]` already on the wire.
    off: usize,
}

impl Peer {
    fn new(stream: Arc<TcpStream>) -> Peer {
        Peer {
            out: Mutex::new(Outbound {
                stream: Some(stream),
                queue: VecDeque::new(),
                off: 0,
            }),
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

    fn outbound(&self) -> MutexGuard<'_, Outbound> {
        self.out
            .lock()
            .expect("no writer panics while holding a worker's outbound side")
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

    /// Write a frame from the calling thread when nothing is queued ahead
    /// of it; otherwise, and for whatever part the socket does not take
    /// now, queue it for the reactor. A frame written whole is never
    /// charged. Returns whether the reactor must be asked to flush (a tail
    /// was left on a queue that was empty), or `None` if the connection is
    /// closed. A write error also leaves the frame queued: the reactor's
    /// flush meets the error and reports the worker lost.
    fn write_or_queue<B: AsRef<[u8]> + Into<Arc<[u8]>>>(&self, frame: B) -> Option<bool> {
        let mut out = self.outbound();
        let Outbound { stream, queue, off } = &mut *out;
        let stream = stream.as_ref()?;
        let len = frame.as_ref().len();
        if !queue.is_empty() {
            self.charge(len);
            queue.push_back(frame.into());
            return Some(false);
        }
        let wrote = loop {
            match (&**stream).write(frame.as_ref()) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Ok(n) => break n,
                Err(_) => break 0,
            }
        };
        self.bytes_out.fetch_add(wrote as u64, Ordering::Relaxed);
        if wrote == len {
            self.frames_out.fetch_add(1, Ordering::Relaxed);
            return Some(false);
        }
        self.charge(len);
        queue.push_back(frame.into());
        *off = wrote;
        Some(true)
    }

    /// Write as much of the queue as the socket accepts, coalescing queued
    /// frames into vectored writes. `Ok(true)` once the queue is empty,
    /// `Ok(false)` if the socket would block first.
    fn flush(&self) -> std::io::Result<bool> {
        let mut out = self.outbound();
        let Outbound { stream, queue, off } = &mut *out;
        let Some(stream) = stream.as_ref() else {
            return Ok(true);
        };
        while !queue.is_empty() {
            let wrote = {
                let iov: Vec<IoSlice> = queue
                    .iter()
                    .take(MAX_IOVECS)
                    .enumerate()
                    .map(|(i, frame)| {
                        IoSlice::new(if i == 0 { &frame[*off..] } else { &frame[..] })
                    })
                    .collect();
                (&**stream).write_vectored(&iov)
            };
            let mut n = match wrote {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
            let mut released = 0;
            while n > 0 {
                let front = queue[0].len();
                if n < front - *off {
                    *off += n;
                    break;
                }
                n -= front - *off;
                queue.pop_front();
                *off = 0;
                released += front;
                self.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            if released > 0 {
                self.release(released);
            }
        }
        Ok(true)
    }

    /// Whether frames are still waiting for the socket.
    fn has_queued(&self) -> bool {
        !self.outbound().queue.is_empty()
    }

    /// Drop the shared socket handle and the unwritten frames, un-charge
    /// them, and mark the worker dead so parked senders fail fast.
    fn close(&self) {
        let undelivered: usize = {
            let mut out = self.outbound();
            out.stream = None;
            out.off = 0;
            out.queue.drain(..).map(|f| f.len()).sum()
        };
        if undelivered > 0 {
            self.release(undelivered);
        }
        self.kill();
    }
}

/// What the manager thread asks the reactor to do.
enum Command {
    /// Flush the tail a direct write left on one worker's queue.
    Flush(WorkerId),
    /// Sever one worker's connection.
    Disconnect(WorkerId),
    /// Broadcast `Shutdown`, drain, close everything, exit.
    Shutdown,
}

/// State shared between the [`TcpTransport`] handle and its reactor.
struct SharedState {
    peers: Mutex<BTreeMap<WorkerId, Arc<Peer>>>,
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
            peers: Mutex::new(BTreeMap::new()),
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

    /// Send one encoded frame to a worker. It is written from this thread
    /// when the worker's queue is empty; a tail the socket does not take
    /// now, and frames queued behind it, go to the reactor. Blocks on that
    /// worker's (and only that worker's) backpressure when its queue is
    /// full.
    fn send_bytes<B: AsRef<[u8]> + Into<Arc<[u8]>>>(
        &self,
        worker: WorkerId,
        frame: B,
    ) -> Result<()> {
        let peer = self
            .shared
            .peers
            .lock()
            .unwrap()
            .get(&worker)
            .cloned()
            .ok_or(VineError::WorkerLost(worker))?;
        if !peer.alive.load(Ordering::Relaxed) {
            return Err(VineError::WorkerLost(worker));
        }
        if !self.has_room(&peer, frame.as_ref().len()) {
            self.wait_for_room(worker, &peer, frame.as_ref().len())?;
        }
        let tail = peer
            .write_or_queue(frame)
            .ok_or(VineError::WorkerLost(worker))?;
        if tail {
            self.shared.push(Command::Flush(worker));
        }
        Ok(())
    }

    /// Whether `peer`'s queue admits `len` more bytes. An empty queue
    /// always admits one frame, even an oversized one — otherwise a frame
    /// bigger than the bound could never be sent at all.
    fn has_room(&self, peer: &Peer, len: usize) -> bool {
        let queued = peer.queued_bytes.load(Ordering::Relaxed);
        queued == 0 || queued + len <= self.cfg.max_queued_bytes
    }

    /// Park until the reactor drains `peer`'s queue enough for `len` more
    /// bytes, or declare the worker lost at the send deadline.
    fn wait_for_room(&self, worker: WorkerId, peer: &Peer, len: usize) -> Result<()> {
        let deadline = Instant::now() + self.cfg.send_timeout;
        let mut guard = peer.drain_lock.lock().unwrap();
        loop {
            if !peer.alive.load(Ordering::Relaxed) {
                return Err(VineError::WorkerLost(worker));
            }
            if self.has_room(peer, len) {
                return Ok(());
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
            let (g, _) = peer.drained.wait_timeout(guard, deadline - now).unwrap();
            guard = g;
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()> {
        let frame =
            encode_frame(&msg).map_err(|e| VineError::Protocol(format!("encoding frame: {e}")))?;
        self.send_bytes(worker, frame)
    }

    fn send_frame(&mut self, worker: WorkerId, frame: &Frame) -> Result<()> {
        // the serialize-once path: the frame was encoded by the caller,
        // possibly for many recipients; a queued copy is a shared reference
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
        if let Some(p) = self.shared.peers.lock().unwrap().get(&worker) {
            p.kill();
        }
        self.shared.push(Command::Disconnect(worker));
    }

    fn shutdown(&mut self) {
        if let Some(t) = self.reactor.take() {
            self.shared.push(Command::Shutdown);
            let _ = t.join();
            for p in self.shared.peers.lock().unwrap().values() {
                p.kill();
            }
        }
    }

    fn stats(&self) -> TransportStats {
        let workers = self
            .shared
            .peers
            .lock()
            .unwrap()
            .iter()
            .map(|(w, p)| WorkerTransportStats {
                worker: *w,
                frames_in: p.frames_in.load(Ordering::Relaxed),
                frames_out: p.frames_out.load(Ordering::Relaxed),
                bytes_in: p.bytes_in.load(Ordering::Relaxed),
                bytes_out: p.bytes_out.load(Ordering::Relaxed),
                queue_hwm_bytes: p.queue_hwm_bytes.load(Ordering::Relaxed) as u64,
                alive: p.alive.load(Ordering::Relaxed),
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
    /// Shared with the worker's [`Peer`], through which every write goes.
    stream: Arc<TcpStream>,
    /// `None` until the `Join` handshake lands.
    worker: Option<WorkerId>,
    peer: Option<Arc<Peer>>,
    decoder: FrameDecoder,
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
                        stream: Arc::new(stream),
                        worker: None,
                        peer: None,
                        decoder: FrameDecoder::new(),
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
                Command::Flush(worker) => {
                    // a connection that died since has released its queue
                    if let Some(slot) = self.by_worker.get(&worker).copied() {
                        self.flush(slot);
                    }
                }
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
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let Some(peer) = &conn.peer else {
                // never completed the handshake and the fleet is going
                // away: not a protocol violation, just a quiet close
                self.close(slot, Close::Quiet);
                continue;
            };
            if peer.write_or_queue(Arc::clone(frame.bytes())) == Some(true) {
                self.flush(slot);
            }
        }
    }

    /// During drain: true once every queue flushed (or the deadline hit),
    /// which ends the reactor.
    fn drain_finished(&self) -> bool {
        let Some(deadline) = self.drain_until else {
            return false;
        };
        let expired = Instant::now() >= deadline;
        let pending = self
            .conns
            .iter()
            .flatten()
            .any(|c| c.peer.as_ref().is_some_and(|p| p.has_queued()));
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
            match (&*conn.stream).read(&mut scratch) {
                Ok(0) => {
                    // peer closed; whether it is a crash or a graceful
                    // leave, the worker is gone
                    self.close(slot, Close::Lost);
                    return;
                }
                Ok(n) => {
                    if let Some(p) = &conn.peer {
                        p.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
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
                        if let Some(p) = &conn.peer {
                            p.frames_in.fetch_add(1, Ordering::Relaxed);
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
    /// [`Peer`], send `Welcome`, announce the join.
    fn admit(&mut self, slot: usize, resources: vine_core::resources::Resources) {
        let worker = WorkerId(self.next_worker);
        self.next_worker += 1;
        let conn = self.conns[slot].as_mut().expect("admitting a live conn");
        let peer = Arc::new(Peer::new(Arc::clone(&conn.stream)));
        conn.worker = Some(worker);
        conn.peer = Some(Arc::clone(&peer));
        conn.handshake_deadline = None;
        self.handshaking -= 1;
        self.by_worker.insert(worker, slot);
        // the peer must be visible before Joined is observable, so the
        // first send the runtime issues finds it; Welcome goes out first
        self.shared
            .peers
            .lock()
            .unwrap()
            .insert(worker, Arc::clone(&peer));
        let welcome = encode_frame(&ManagerToWorker::Welcome { worker }).expect("welcome encodes");
        if peer.write_or_queue(welcome) == Some(true) {
            self.flush(slot);
        }
        let _ = self
            .events
            .send(TransportEvent::Joined { worker, resources });
    }

    /// Flush `slot`'s outbound queue and arm or disarm EPOLLOUT to match
    /// what remains. The socket is almost always writable, so a tail left
    /// by a direct write rarely waits for EPOLLOUT.
    fn flush(&mut self, slot: usize) {
        let flushed = match self.conns[slot].as_ref().and_then(|c| c.peer.as_ref()) {
            Some(peer) => peer.flush(),
            None => return,
        };
        match flushed {
            Ok(empty) => self.set_write_interest(slot, !empty),
            Err(_) => self.close(slot, Close::Lost),
        }
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
            if let Some(p) = &conn.peer {
                p.close();
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
