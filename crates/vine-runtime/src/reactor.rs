//! The owner-driven connection set: one epoll loop, run by the thread that
//! owns it, serving every peer of one protocol plane. [`TcpTransport`] is
//! its manager ↔ worker instance; the federation's
//! [`Router`](crate::federation::Router) is its router ↔ shard instance.
//!
//! [`ConnSet`] multiplexes the listener and every connection through an
//! [`epoll`] instance (the shim under `shims/epoll` — raw
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` against the C library std
//! already links): no thread per connection, no reactor thread, and so no
//! lock. funcX serves fleets of thousands of endpoints from one service;
//! this is one thread.
//!
//! Shape of the machine:
//!
//! * **Owner-driven** — sending, receiving, `disconnect` and `shutdown`
//!   accept, admit, read, flush and close on the caller's thread. The set
//!   makes progress only while its owner is inside one of those calls; in
//!   between, the kernel buffers whatever peers send and holds dialers in
//!   the accept queue (its backlog widened from std's 128 to 4096, so a
//!   burst of joins waits there instead of retransmitting SYNs).
//! * **Admission** — a connection's first frame decides whether it becomes
//!   a peer: the plane's admission rule names the peer (and may answer),
//!   and a name a live peer holds is refused. A refused connection, or one
//!   still unadmitted at [`TcpConfig::handshake_timeout`], is closed and
//!   counted ([`TransportStats::handshake_rejects`]); a waiting owner never
//!   sleeps past the nearest deadline.
//! * **Read** — each connection owns a [`FrameDecoder`]; whatever byte
//!   chunk the socket yields (half a header, three coalesced frames) is
//!   buffered and decoded incrementally, and complete messages queue as
//!   events for the owner to take.
//! * **Write** — a frame for a peer whose outbound queue is empty is
//!   written to the nonblocking socket at once. Only a tail the socket
//!   does not take now, and frames sent behind it, are queued; `EPOLLOUT`
//!   is armed while a tail waits, and the queue is flushed with vectored
//!   writes when it fires — many queued frames coalesce into one
//!   `writev`-style syscall. A broadcast (one [`Frame`] to N workers)
//!   writes or queues the same shared bytes (`Arc<[u8]>`): serialized
//!   once, not N times.
//! * **Backpressure** — each peer's outbound queue is bounded
//!   ([`TcpConfig::max_queued_bytes`]). A send to a full queue keeps the
//!   loop turning — reading every peer's frames into the pending events
//!   and flushing every writable queue, so no peer deadlocks on an owner
//!   that stopped reading — until that queue has room or
//!   [`TcpConfig::send_timeout`] passes; then that peer, and only that
//!   peer, is closed as lost.
//!
//! A connection dying — graceful leave, `kill -9`, mid-frame truncation, a
//! write error, the send deadline — surfaces as one `Left` event, after
//! every message already read from it; for the manager it feeds the
//! runtime's requeue path. The worker side is
//! [`crate::transport::run_tcp_worker`]. Frames carry `VFR2` payloads
//! ([`vine_proto::codec`]) with no version negotiation: a peer that still
//! sends `VFR1` or JSON frames fails the handshake on its first frame's
//! magic and is counted as a reject.

use crate::transport::{
    RecvError, Transport, TransportEvent, TransportStats, WorkerTransportStats,
};
use epoll::{Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vine_core::ids::WorkerId;
use vine_core::{Result, VineError};
use vine_proto::{encode_frame, Frame, FrameDecoder, ManagerToWorker, Wire, WorkerToManager};

/// Tuning knobs of a connection set. The defaults serve a real fleet;
/// tests shrink them to provoke the edge paths quickly.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// How long a freshly accepted connection may sit without being
    /// admitted before it is closed and counted as rejected.
    pub handshake_timeout: Duration,
    /// Outbound queue bound per peer, in bytes. A send beyond it waits,
    /// turning the loop, until that peer's queue drains.
    pub max_queued_bytes: usize,
    /// How long a send may wait on a full queue before the peer is
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

/// The manager side of the TCP backend: bind once, let workers dial in,
/// serve thousands of them from the owner's thread.
pub type TcpTransport = ConnSet<WorkerToManager, WorkerId>;

/// A plane's admission rule: name the peer a first frame admits, given the
/// count admitted before it, and the frame that answers it — or `None`.
pub(crate) type Admit<M, K> = fn(&M, u32) -> Option<(K, Option<Vec<u8>>)>;

/// The listener's accept queue: room for a whole burst of dialers while
/// the owner is busy elsewhere (Linux caps it at `net.core.somaxconn`).
const LISTEN_BACKLOG: i32 = 4096;

/// Slab token 0 is the listener; connections start at 1.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_CONNS: u64 = 1;

/// Cap on socket reads consumed per readiness event, so one firehose
/// connection cannot starve the rest of a turn (level-triggered epoll
/// re-reports whatever is left).
const MAX_READS_PER_EVENT: usize = 16;

/// Bytes one socket read takes at most.
const READ_CHUNK: usize = 64 * 1024;

/// Frames coalesced into one vectored write.
const MAX_IOVECS: usize = 64;

/// Readiness events one turn takes at most; level-triggered epoll reports
/// the rest on the next turn.
const MAX_EVENTS: usize = 256;

/// How long shutdown waits for outbound queues (the farewell broadcast
/// included) to drain before closing sockets anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What a connection set tells its owner.
pub(crate) enum PeerEvent<M, K> {
    /// A connection's first frame, `first`, admitted it as `peer`.
    Joined { peer: K, first: M },
    /// An admitted peer sent a message.
    Message { peer: K, msg: M },
    /// An admitted peer's connection is closed, after its last message.
    Left { peer: K },
}

/// One live connection.
struct Conn<K> {
    stream: TcpStream,
    /// The peer's name and meter index; `None` until it is admitted.
    peer: Option<(K, usize)>,
    /// Admit-or-die deadline, read only while `peer` is `None`.
    deadline: Instant,
    decoder: FrameDecoder,
    /// Frames the socket has not taken yet; the front one may be partially
    /// written. `EPOLLOUT` is armed exactly while it is non-empty.
    queue: VecDeque<Arc<[u8]>>,
    /// Bytes of `queue[0]` already on the wire.
    off: usize,
    /// Bytes in `queue`, each frame charged whole.
    queued: usize,
}

impl<K> Conn<K> {
    /// Write as much of the queue as the socket accepts, coalescing queued
    /// frames into vectored writes. `Ok(true)` once the queue is empty,
    /// `Ok(false)` if the socket would block first.
    fn flush(&mut self, meter: &mut WorkerTransportStats) -> std::io::Result<bool> {
        while !self.queue.is_empty() {
            let wrote = {
                let iov: Vec<IoSlice> = self
                    .queue
                    .iter()
                    .take(MAX_IOVECS)
                    .enumerate()
                    .map(|(i, frame)| IoSlice::new(if i == 0 { &frame[self.off..] } else { frame }))
                    .collect();
                (&self.stream).write_vectored(&iov)
            };
            let mut n = match wrote {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            meter.bytes_out += n as u64;
            while n > 0 {
                let front = self.queue[0].len();
                if n < front - self.off {
                    self.off += n;
                    break;
                }
                n -= front - self.off;
                self.queue.pop_front();
                self.off = 0;
                self.queued -= front;
                meter.frames_out += 1;
            }
        }
        Ok(true)
    }
}

/// Why a connection is closed — controls which events surface.
enum Close {
    /// An admitted peer is gone: emit [`PeerEvent::Left`].
    Lost,
    /// Never admitted (timeout or a first frame the rule refused): count
    /// the rejection, emit nothing.
    Rejected,
    /// Deliberate teardown (shutdown): emit nothing.
    Quiet,
}

/// Every connection of one protocol plane, served from its owner's
/// thread: peers send `M`s and are named by `K`s.
pub struct ConnSet<M: Wire, K: Copy + Ord> {
    cfg: TcpConfig,
    local_addr: SocketAddr,
    ep: Epoll,
    /// The buffer every turn's wait fills.
    ready: Vec<Event>,
    /// `None` once shut down: nobody is admitted any more.
    listener: Option<TcpListener>,
    /// Connections by slot (token − [`TOKEN_CONNS`]), with a free list.
    conns: Vec<Option<Conn<K>>>,
    free: Vec<usize>,
    by_peer: BTreeMap<K, usize>,
    /// `(deadline, slot)` of each connection accepted and not admitted
    /// yet, in accept order, which is deadline order. An entry whose slot
    /// has been admitted, closed or reused is stale and skipped.
    handshakes: VecDeque<(Instant, usize)>,
    /// Events read and not yet taken by the owner.
    events: VecDeque<PeerEvent<M, K>>,
    /// Each admitted peer's lifetime traffic meter, which outlives its
    /// connection, in admission order (a worker's id indexes its own).
    meters: Vec<WorkerTransportStats>,
    handshake_rejects: u64,
    /// What each socket read lands in before the decoder buffers it.
    scratch: Box<[u8]>,
    admit: Admit<M, K>,
    /// The frame shutdown sends every admitted peer.
    farewell: Arc<[u8]>,
}

impl TcpTransport {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// admitting workers with default tuning.
    pub fn listen(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        TcpTransport::listen_with(addr, TcpConfig::default())
    }

    /// Bind with explicit tuning.
    pub fn listen_with(addr: impl ToSocketAddrs, cfg: TcpConfig) -> std::io::Result<TcpTransport> {
        let farewell = encode_frame(&ManagerToWorker::Shutdown).expect("shutdown encodes");
        ConnSet::bind(addr, cfg, admit_worker, farewell)
    }
}

/// §3.5 step 1: a worker's first frame must be `Join`. It is named by its
/// admission order and welcomed by that name.
fn admit_worker(first: &WorkerToManager, index: u32) -> Option<(WorkerId, Option<Vec<u8>>)> {
    matches!(first, WorkerToManager::Join { .. }).then(|| {
        let worker = WorkerId(index);
        let welcome = encode_frame(&ManagerToWorker::Welcome { worker }).expect("welcome encodes");
        (worker, Some(welcome))
    })
}

impl<M: Wire, K: Copy + Ord> ConnSet<M, K> {
    /// Bind `addr` and admit connections by `admit`; `farewell` is the
    /// frame [`ConnSet::shutdown`] sends every peer.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        cfg: TcpConfig,
        admit: Admit<M, K>,
        farewell: Vec<u8>,
    ) -> std::io::Result<ConnSet<M, K>> {
        let listener = TcpListener::bind(addr)?;
        epoll::set_listen_backlog(&listener, LISTEN_BACKLOG)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        Ok(ConnSet {
            cfg,
            local_addr,
            ep,
            ready: Vec::with_capacity(MAX_EVENTS),
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            by_peer: BTreeMap::new(),
            handshakes: VecDeque::new(),
            events: VecDeque::new(),
            meters: Vec::new(),
            handshake_rejects: 0,
            scratch: vec![0; READ_CHUNK].into_boxed_slice(),
            admit,
            farewell: farewell.into(),
        })
    }

    /// The address peers should dial (resolves `:0` bindings).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Send one encoded frame to a peer once its queue admits it; `false`
    /// if the peer is gone. An empty queue always admits one frame, even
    /// an oversized one — otherwise a frame bigger than the bound could
    /// never be sent. A full queue turns the loop until it has room, or
    /// closes the peer as lost at the send deadline.
    pub(crate) fn send_bytes<B: AsRef<[u8]> + Into<Arc<[u8]>>>(
        &mut self,
        peer: K,
        frame: B,
    ) -> bool {
        let len = frame.as_ref().len();
        let mut deadline = None;
        loop {
            let Some(&slot) = self.by_peer.get(&peer) else {
                return false;
            };
            let queued = self.conns[slot].as_ref().map_or(0, |c| c.queued);
            if queued == 0 || queued + len <= self.cfg.max_queued_bytes {
                self.write_or_queue(slot, frame);
                return true;
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.cfg.send_timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // the peer has not drained its queue within the send
                // budget: declare it lost so its in-flight work goes
                // elsewhere
                self.close(slot, Close::Lost);
                return false;
            }
            self.turn(left);
        }
    }

    /// Write a frame to an admitted peer's socket when nothing is queued
    /// ahead of it; otherwise, and for whatever part the socket does not
    /// take now, queue it and arm `EPOLLOUT`. A frame written whole is
    /// never charged. A write error also leaves the frame queued: the
    /// flush meets the error and closes the connection.
    fn write_or_queue<B: AsRef<[u8]> + Into<Arc<[u8]>>>(&mut self, slot: usize, frame: B) {
        let conn = self.conns[slot]
            .as_mut()
            .expect("writing to a live connection");
        let (_, meter) = conn.peer.expect("only admitted peers are written to");
        let meter = &mut self.meters[meter];
        let len = frame.as_ref().len();
        if conn.queue.is_empty() {
            let wrote = loop {
                match (&conn.stream).write(frame.as_ref()) {
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Ok(n) => break n,
                    Err(_) => break 0,
                }
            };
            meter.bytes_out += wrote as u64;
            if wrote == len {
                meter.frames_out += 1;
                return;
            }
            conn.off = wrote;
            let _ = self.ep.modify(
                conn.stream.as_raw_fd(),
                EPOLLIN | EPOLLRDHUP | EPOLLOUT,
                TOKEN_CONNS + slot as u64,
            );
        }
        conn.queued += len;
        meter.queue_hwm_bytes = meter.queue_hwm_bytes.max(conn.queued as u64);
        conn.queue.push_back(frame.into());
    }

    /// Wait up to `timeout` for the next event. `Closed` once shut down
    /// and every event read before is taken.
    pub(crate) fn next_event(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<PeerEvent<M, K>, RecvError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(ev) = self.events.pop_front() {
                return Ok(ev);
            }
            if self.listener.is_none() {
                return Err(RecvError::Closed);
            }
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            self.turn(left);
            if left.is_zero() && self.events.is_empty() {
                return Err(RecvError::Timeout);
            }
        }
    }

    /// One turn of the loop: wait up to `timeout`, cut short by the
    /// nearest handshake deadline, for readiness; accept, read, flush and
    /// close whatever it reports; then close overdue handshakes.
    fn turn(&mut self, timeout: Duration) {
        let timeout = match self.handshakes.front() {
            Some(&(deadline, _)) => timeout.min(deadline.saturating_duration_since(Instant::now())),
            None => timeout,
        };
        // round up: a sub-millisecond wait must not become a busy poll
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(u32::MAX as u128) as u32;
        let mut ready = std::mem::take(&mut self.ready);
        if self.ep.wait(&mut ready, Some(ms)).is_ok() {
            for ev in &ready {
                match ev.token() {
                    TOKEN_LISTENER => self.accept_burst(),
                    t => self.conn_event((t - TOKEN_CONNS) as usize, ev.readiness()),
                }
            }
        }
        self.ready = ready;
        self.reap_handshakes();
    }

    fn accept_burst(&mut self) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // frames are small and latency-bound: never sit on one waiting
            // for Nagle + delayed ACK to agree
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
            let deadline = Instant::now() + self.cfg.handshake_timeout;
            self.conns[slot] = Some(Conn {
                stream,
                peer: None,
                deadline,
                decoder: FrameDecoder::new(),
                queue: VecDeque::new(),
                off: 0,
                queued: 0,
            });
            self.handshakes.push_back((deadline, slot));
        }
    }

    /// Drop stale entries off the front of the handshake queue and close
    /// every connection whose deadline has passed unadmitted.
    fn reap_handshakes(&mut self) {
        let now = Instant::now();
        while let Some(&(deadline, slot)) = self.handshakes.front() {
            let waiting = matches!(
                &self.conns[slot],
                Some(c) if c.peer.is_none() && c.deadline == deadline
            );
            if waiting && deadline > now {
                break;
            }
            self.handshakes.pop_front();
            if waiting {
                self.close(slot, Close::Rejected);
            }
        }
    }

    fn conn_event(&mut self, slot: usize, readiness: u32) {
        if !matches!(self.conns.get(slot), Some(Some(_))) {
            return; // stale event for a slot already reaped this turn
        }
        if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            self.readable(slot);
        }
        if readiness & EPOLLOUT != 0 {
            self.flush(slot);
        }
    }

    fn readable(&mut self, slot: usize) {
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let n = match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    // peer closed; whether it is a crash or a graceful
                    // leave, the peer is gone
                    self.close(slot, Close::Lost);
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, Close::Lost);
                    return;
                }
            };
            if let Some((_, meter)) = conn.peer {
                self.meters[meter].bytes_in += n as u64;
            }
            conn.decoder.extend(&self.scratch[..n]);
            // a short read drained the socket: level-triggered epoll
            // reports whatever arrives next
            if !self.decode(slot) || n < READ_CHUNK {
                return;
            }
        }
    }

    /// Decode every complete frame buffered on `slot`. Returns false if
    /// the connection was closed (refused first frame or garbage bytes).
    fn decode(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            match (conn.decoder.decode::<M>(), conn.peer) {
                (Ok(None), _) => return true,
                (Ok(Some(msg)), Some((peer, meter))) => {
                    self.meters[meter].frames_in += 1;
                    self.events.push_back(PeerEvent::Message { peer, msg });
                }
                (Ok(Some(first)), None) => match (self.admit)(&first, self.meters.len() as u32) {
                    Some((peer, welcome)) if !self.by_peer.contains_key(&peer) => {
                        self.admitted(slot, peer, welcome, first)
                    }
                    _ => {
                        self.close(slot, Close::Rejected);
                        return false;
                    }
                },
                // unframeable garbage or an oversized header: the stream
                // cannot be resynchronized
                (Err(_), peer) => {
                    let why = if peer.is_some() {
                        Close::Lost
                    } else {
                        Close::Rejected
                    };
                    self.close(slot, why);
                    return false;
                }
            }
        }
    }

    /// Make a handshaking connection the peer `peer`: start its meter,
    /// answer it, announce the join.
    fn admitted(&mut self, slot: usize, peer: K, welcome: Option<Vec<u8>>, first: M) {
        let meter = self.meters.len();
        self.meters.push(WorkerTransportStats {
            worker: WorkerId(meter as u32),
            alive: true,
            ..Default::default()
        });
        self.by_peer.insert(peer, slot);
        self.conns[slot]
            .as_mut()
            .expect("admitting a live connection")
            .peer = Some((peer, meter));
        if let Some(welcome) = welcome {
            self.write_or_queue(slot, welcome);
        }
        self.events.push_back(PeerEvent::Joined { peer, first });
    }

    /// Flush `slot`'s outbound queue, and disarm `EPOLLOUT` once it is
    /// empty.
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let Some((_, meter)) = conn.peer else {
            return; // nothing is written before admission
        };
        match conn.flush(&mut self.meters[meter]) {
            Ok(true) => {
                let _ = self.ep.modify(
                    conn.stream.as_raw_fd(),
                    EPOLLIN | EPOLLRDHUP,
                    TOKEN_CONNS + slot as u64,
                );
            }
            Ok(false) => {}
            Err(_) => self.close(slot, Close::Lost),
        }
    }

    fn close(&mut self, slot: usize, why: Close) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.ep.delete(conn.stream.as_raw_fd());
        self.free.push(slot);
        match conn.peer {
            Some((peer, meter)) => {
                self.by_peer.remove(&peer);
                self.meters[meter].alive = false;
                if matches!(why, Close::Lost) {
                    self.events.push_back(PeerEvent::Left { peer });
                }
            }
            None if matches!(why, Close::Rejected) => self.handshake_rejects += 1,
            None => {}
        }
        // dropping `conn` closes the socket and its unwritten frames
    }

    /// Close a peer's connection as lost: its `Left` event follows.
    pub fn disconnect(&mut self, peer: K) {
        if let Some(&slot) = self.by_peer.get(&peer) {
            self.close(slot, Close::Lost);
        }
    }

    /// Send the farewell frame to every admitted peer, drain until the
    /// queues are empty or [`DRAIN_TIMEOUT`] passes, then close every
    /// socket and the listener. Idempotent.
    pub fn shutdown(&mut self) {
        if self.listener.take().is_none() {
            return;
        }
        for slot in 0..self.conns.len() {
            match self.conns[slot].as_ref().map(|c| c.peer.is_some()) {
                Some(true) => self.write_or_queue(slot, Arc::clone(&self.farewell)),
                // never admitted and the set is going away: not a
                // protocol violation, just a quiet close
                Some(false) => self.close(slot, Close::Quiet),
                None => {}
            }
        }
        self.handshakes.clear();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.conns.iter().flatten().any(|c| !c.queue.is_empty()) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.turn(left);
        }
        for slot in 0..self.conns.len() {
            self.close(slot, Close::Quiet);
        }
    }

    /// Every admitted peer's traffic meter, in admission order, and the
    /// connections rejected unadmitted.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            workers: self.meters.clone(),
            handshake_rejects: self.handshake_rejects,
        }
    }
}

/// A worker-plane event as the runtime sees it.
fn worker_event(ev: PeerEvent<WorkerToManager, WorkerId>) -> TransportEvent {
    match ev {
        PeerEvent::Joined {
            peer: worker,
            first: WorkerToManager::Join { resources },
        } => TransportEvent::Joined { worker, resources },
        PeerEvent::Joined { .. } => unreachable!("only Join admits a worker"),
        PeerEvent::Message { peer: worker, msg } => TransportEvent::Message { worker, msg },
        PeerEvent::Left { peer: worker } => TransportEvent::Left { worker },
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()> {
        let frame =
            encode_frame(&msg).map_err(|e| VineError::Protocol(format!("encoding frame: {e}")))?;
        self.send_bytes(worker, frame)
            .then_some(())
            .ok_or(VineError::WorkerLost(worker))
    }

    fn send_frame(&mut self, worker: WorkerId, frame: &Frame) -> Result<()> {
        // the serialize-once path: the frame was encoded by the caller,
        // possibly for many recipients; a queued copy is a shared reference
        self.send_bytes(worker, Arc::clone(frame.bytes()))
            .then_some(())
            .ok_or(VineError::WorkerLost(worker))
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<TransportEvent, RecvError> {
        self.next_event(timeout).map(worker_event)
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        if self.events.is_empty() && self.listener.is_some() {
            self.turn(Duration::ZERO);
        }
        self.events.pop_front().map(worker_event)
    }

    fn disconnect(&mut self, worker: WorkerId) {
        ConnSet::disconnect(self, worker)
    }

    fn shutdown(&mut self) {
        ConnSet::shutdown(self)
    }

    fn stats(&self) -> TransportStats {
        ConnSet::stats(self)
    }
}

impl<M: Wire, K: Copy + Ord> Drop for ConnSet<M, K> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
