//! `repro perf --net`: transport-scaling self-benchmark (not a paper
//! figure).
//!
//! Proves the reactor transport's claim to fame: **one** manager thread,
//! which runs the transport's epoll loop itself, serving a fleet of live
//! worker connections — 2, 64, 256, 1000 — with flat per-message cost,
//! plus the serialize-once broadcast win
//! ([`vine_proto::Frame`]): a library-image install fanned out to N
//! workers encoded once instead of N times. One more row sizes the frame
//! codec on its largest message: a compiled-image install's frame over
//! its blob, and the blob's decode rate.
//!
//! The load generator is its own single-threaded epoll loop
//! ([`EchoFleet`]): every client dials in, performs the `Join` handshake,
//! and echoes each `RemoveLibrary`/`InstallLibrary` it receives as
//! `LibraryReady` — the cheapest worker that still exercises the full
//! wire path (framing, incremental decode, readiness-driven writes) in
//! both directions. A thousand blocking client threads would distort the
//! numbers on small machines; one reactor benchmarking another does not.
//!
//! Results are written to `BENCH_net.json`. Wall-clock, varies run to
//! run: excluded from `repro all` so the paper reproduction stays
//! deterministic.

use crate::table::Table;
use epoll::{Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use vine_core::ids::{ContentHash, LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::ExecMode;
use vine_proto::{
    decode_frame, encode_frame, CompiledBlob, Frame, FrameDecoder, LibraryImage, ManagerToWorker,
    WorkerToManager,
};
use vine_runtime::{TcpTransport, Transport, TransportEvent, TransportStats};

/// Fleet sizes the scaling rows sweep (the paper's deployments run
/// hundreds of workers; 1000 is the headroom claim).
pub const FLEET_SIZES: [usize; 4] = [2, 64, 256, 1000];

// ------------------------------------------------------------ echo fleet

/// One loopback client inside the fleet reactor.
struct EchoClient {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Pending outbound bytes (replies that hit a full socket).
    out: VecDeque<u8>,
    want_write: bool,
    open: bool,
}

impl EchoClient {
    /// Queue `bytes` and flush as much as the socket accepts.
    fn enqueue(&mut self, ep: &Epoll, token: u64, bytes: &[u8]) {
        self.out.extend(bytes);
        self.flush(ep, token);
    }

    fn flush(&mut self, ep: &Epoll, token: u64) {
        while !self.out.is_empty() {
            let (front, _) = self.out.as_slices();
            match self.stream.write(front) {
                Ok(0) => {
                    self.open = false;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.open = false;
                    return;
                }
            }
        }
        let want = !self.out.is_empty();
        if want != self.want_write {
            self.want_write = want;
            let interest = if want {
                EPOLLIN | EPOLLRDHUP | EPOLLOUT
            } else {
                EPOLLIN | EPOLLRDHUP
            };
            let _ = ep.modify(self.stream.as_raw_fd(), interest, token);
        }
    }
}

/// A fleet of echo clients sustained by one epoll thread: join, answer
/// every library message with `LibraryReady`, leave on `Shutdown`.
pub struct EchoFleet {
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl EchoFleet {
    /// Dial `n` clients into `addr` and start serving them.
    pub fn launch(addr: SocketAddr, n: usize) -> std::io::Result<EchoFleet> {
        let thread = std::thread::Builder::new()
            .name("echo-fleet".into())
            .spawn(move || EchoFleet::run(addr, n))?;
        Ok(EchoFleet {
            thread: Some(thread),
        })
    }

    /// Wait for every client to see `Shutdown` and disconnect.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.thread
            .take()
            .expect("fleet joined once")
            .join()
            .expect("fleet thread panicked")
    }

    fn run(addr: SocketAddr, n: usize) -> std::io::Result<()> {
        let ep = Epoll::new()?;
        let join_frame = encode_frame(&WorkerToManager::Join {
            resources: Resources::new(4, 1024, 1024),
        })
        .expect("join encodes");

        let mut clients = Vec::with_capacity(n);
        for token in 0..n as u64 {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)?;
            let mut client = EchoClient {
                stream,
                dec: FrameDecoder::new(),
                out: VecDeque::new(),
                want_write: false,
                open: true,
            };
            client.enqueue(&ep, token, &join_frame);
            clients.push(client);
        }

        let mut live = clients.iter().filter(|c| c.open).count();
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; 64 * 1024];
        while live > 0 {
            ep.wait(&mut events, Some(10_000))?;
            if events.is_empty() {
                // nothing moved for 10 s: the manager died without saying
                // Shutdown; bail rather than hang the benchmark
                break;
            }
            for ev in &events {
                let token = ev.token();
                let client = &mut clients[token as usize];
                if !client.open {
                    continue;
                }
                if ev.readiness() & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                    'read: loop {
                        match client.stream.read(&mut scratch) {
                            Ok(0) => {
                                client.open = false;
                                break 'read;
                            }
                            Ok(got) => {
                                client.dec.extend(&scratch[..got]);
                                loop {
                                    match client.dec.decode::<ManagerToWorker>() {
                                        Ok(Some(msg)) => {
                                            let reply = match msg {
                                                ManagerToWorker::RemoveLibrary { instance } => {
                                                    Some(instance)
                                                }
                                                ManagerToWorker::InstallLibrary {
                                                    image, ..
                                                } => Some(image.instance),
                                                ManagerToWorker::Shutdown => {
                                                    client.open = false;
                                                    break 'read;
                                                }
                                                _ => None,
                                            };
                                            if let Some(instance) = reply {
                                                let bytes =
                                                    encode_frame(&WorkerToManager::LibraryReady {
                                                        instance,
                                                    })
                                                    .expect("reply encodes");
                                                client.enqueue(&ep, token, &bytes);
                                            }
                                        }
                                        Ok(None) => break,
                                        Err(_) => {
                                            client.open = false;
                                            break 'read;
                                        }
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'read,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                client.open = false;
                                break 'read;
                            }
                        }
                    }
                }
                if client.open && ev.readiness() & EPOLLOUT != 0 {
                    client.flush(&ep, token);
                }
                if !client.open {
                    let _ = ep.delete(client.stream.as_raw_fd());
                    live -= 1;
                }
            }
        }
        Ok(())
    }
}

impl Drop for EchoFleet {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

// --------------------------------------------------------- manager side

/// The manager half of the benchmark: one reactor transport with `n`
/// fleet clients joined and ready to echo.
pub struct FleetBench {
    transport: TcpTransport,
    workers: Vec<WorkerId>,
    fleet: Option<EchoFleet>,
    /// Wall time from first dial to the n-th `Joined` event.
    pub join_wave_s: f64,
    next_tag: u64,
}

impl FleetBench {
    /// Bind, launch an [`EchoFleet`] of `n`, and wait for every join.
    pub fn start(n: usize) -> FleetBench {
        let mut transport = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
        let addr = transport.local_addr();
        let started = Instant::now();
        let fleet = EchoFleet::launch(addr, n).expect("fleet launches");
        let mut workers = Vec::with_capacity(n);
        while workers.len() < n {
            match transport.recv_timeout(Duration::from_secs(30)) {
                Ok(TransportEvent::Joined { worker, .. }) => workers.push(worker),
                Ok(_) => {}
                Err(e) => panic!("waiting for {n} joins, got {} then {e:?}", workers.len()),
            }
        }
        let join_wave_s = started.elapsed().as_secs_f64();
        FleetBench {
            transport,
            workers,
            fleet: Some(fleet),
            join_wave_s,
            next_tag: 0,
        }
    }

    pub fn connections(&self) -> usize {
        self.workers.len()
    }

    /// Collect `expected` echo messages, panicking on a lost worker.
    fn drain_echoes(&mut self, expected: usize) {
        let mut got = 0;
        while got < expected {
            match self.transport.recv_timeout(Duration::from_secs(30)) {
                Ok(TransportEvent::Message { .. }) => got += 1,
                Ok(TransportEvent::Left { worker }) => {
                    panic!("worker {worker} died mid-benchmark")
                }
                Ok(_) => {}
                Err(e) => panic!("waiting for {expected} echoes, got {got} then {e:?}"),
            }
        }
    }

    /// One synchronous wave: a small ping to every worker, then wait for
    /// every echo. Returns the wall time of the wave.
    pub fn ping_wave(&mut self) -> f64 {
        let started = Instant::now();
        let mut tag = self.next_tag;
        for &worker in &self.workers {
            tag += 1;
            let instance = LibraryInstanceId(tag);
            self.transport
                .send(worker, ManagerToWorker::RemoveLibrary { instance })
                .expect("ping delivered");
        }
        self.next_tag = tag;
        self.drain_echoes(self.workers.len());
        started.elapsed().as_secs_f64()
    }

    /// Broadcast one library-image install (`payload` bytes of source) to
    /// the whole fleet and wait for every ack. With `shared`, the frame is
    /// encoded **once** and fanned out as shared bytes
    /// ([`Transport::send_frame`]); otherwise every worker pays a fresh
    /// serialization ([`Transport::send`]). Returns the wall time.
    pub fn broadcast_install(&mut self, payload: usize, shared: bool) -> f64 {
        self.next_tag += 1;
        let msg = ManagerToWorker::InstallLibrary {
            image: LibraryImage {
                instance: LibraryInstanceId(self.next_tag),
                source: "x".repeat(payload),
                serialized_functions: vec![],
                setup: None,
                default_mode: ExecMode::Direct,
                compiled: None,
            },
            stage: vec![],
        };
        let started = Instant::now();
        if shared {
            let frame = Frame::encode_once(msg).expect("image encodes");
            for &worker in &self.workers {
                self.transport
                    .send_frame(worker, &frame)
                    .expect("install delivered");
            }
        } else {
            for &worker in &self.workers {
                self.transport
                    .send(worker, msg.clone())
                    .expect("install delivered");
            }
        }
        self.drain_echoes(self.workers.len());
        started.elapsed().as_secs_f64()
    }

    /// Shut the fleet down and return the transport's traffic counters.
    pub fn finish(mut self) -> TransportStats {
        self.transport.shutdown();
        let stats = self.transport.stats();
        if let Some(fleet) = self.fleet.take() {
            fleet.finish().expect("fleet exits cleanly");
        }
        stats
    }
}

// ----------------------------------------------------------- experiment

/// Source bytes of the broadcast image: big enough that serialization
/// dominates the fan-out, small enough to stay far from MAX_FRAME.
const BROADCAST_PAYLOAD: usize = 128 * 1024;

/// Decodes timed by [`install_codec`].
const INSTALL_DECODES: usize = 200;

/// Encode an install carrying a [`BROADCAST_PAYLOAD`]-byte compiled image
/// and time [`INSTALL_DECODES`] decodes of it. Returns the frame's bytes
/// and the blob bytes decoded per second.
fn install_codec() -> (usize, f64) {
    let msg = ManagerToWorker::InstallLibrary {
        image: LibraryImage {
            instance: LibraryInstanceId(1),
            source: String::new(),
            serialized_functions: vec![],
            setup: None,
            default_mode: ExecMode::Direct,
            compiled: Some(CompiledBlob {
                source_digest: ContentHash(u128::MAX / 3),
                bytes: (0..BROADCAST_PAYLOAD).map(|i| (i * 31) as u8).collect(),
            }),
        },
        stage: vec![],
    };
    let frame = encode_frame(&msg).expect("install encodes");
    let started = Instant::now();
    for _ in 0..INSTALL_DECODES {
        std::hint::black_box(decode_frame::<ManagerToWorker>(&frame).expect("install decodes"));
    }
    let rate = (BROADCAST_PAYLOAD * INSTALL_DECODES) as f64 / started.elapsed().as_secs_f64();
    (frame.len(), rate)
}

/// `perf --net`: the scaling table. `max_conns` caps the largest fleet
/// (CI smoke runs at 256); `scale` shrinks the per-size message budget.
pub fn perf_net(scale: f64, max_conns: usize) -> Table {
    let budget = ((4_000f64 * scale).round() as u64).max(200);
    let sizes: Vec<usize> = FLEET_SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max_conns)
        .collect();
    assert!(!sizes.is_empty(), "--conns below the smallest fleet size");
    let largest = *sizes.last().expect("non-empty sizes");

    let mut t = Table::new(
        "perf_net",
        "Reactor transport scaling: one manager thread vs fleet size",
        &["wall_s", "messages", "msgs_per_sec"],
    );

    let mut rows_json = Vec::new();
    let mut broadcast_json = String::new();
    for &n in &sizes {
        let mut bench = FleetBench::start(n);
        let waves = (budget / n as u64).max(2);
        // one untimed wave warms every connection's buffers and path
        bench.ping_wave();
        let started = Instant::now();
        for _ in 0..waves {
            bench.ping_wave();
        }
        let wall = started.elapsed().as_secs_f64();
        let msgs = waves * n as u64;
        // a message = one manager→worker ping + its worker→manager echo
        let rtt_us = wall / msgs as f64 * 1e6;
        t.row(
            format!("round-trips, {n} conns"),
            vec![wall, msgs as f64, msgs as f64 / wall],
        );
        rows_json.push(format!(
            "    {{ \"connections\": {n}, \"join_wave_s\": {:.6}, \"waves\": {waves}, \
             \"messages\": {msgs}, \"wall_s\": {wall:.6}, \"msgs_per_sec\": {:.1}, \
             \"round_trip_us\": {rtt_us:.1} }}",
            bench.join_wave_s,
            msgs as f64 / wall,
        ));

        if n == largest {
            // the serialize-once win, measured on the largest fleet: the
            // same 128 KiB image install, N encodes vs one
            let per_worker = bench.broadcast_install(BROADCAST_PAYLOAD, false);
            let once = bench.broadcast_install(BROADCAST_PAYLOAD, true);
            let win = per_worker / once;
            t.row(
                format!("broadcast install ({n} encodes)"),
                vec![per_worker, n as f64, n as f64 / per_worker],
            );
            t.row(
                "broadcast install (encode once)",
                vec![once, n as f64, n as f64 / once],
            );
            t.row("serialize-once speedup", vec![win, 0.0, 0.0]);
            broadcast_json = format!(
                "  \"broadcast\": {{ \"connections\": {n}, \"payload_bytes\": {BROADCAST_PAYLOAD}, \
                 \"per_worker_encode_s\": {per_worker:.6}, \"encode_once_s\": {once:.6}, \
                 \"speedup\": {win:.2} }},\n"
            );
        }
        let stats = bench.finish();
        assert_eq!(stats.workers.len(), n, "every connection metered");
        assert_eq!(stats.handshake_rejects, 0, "no rejected handshakes");
    }

    let (frame_bytes, decode_rate) = install_codec();
    let inflation = frame_bytes as f64 / BROADCAST_PAYLOAD as f64;
    let decode_mb_s = decode_rate / 1e6;
    t.row(
        "install frame: bytes/payload, payload MB/s decoded",
        vec![inflation, 0.0, decode_mb_s],
    );

    t.note(format!(
        "echo fleet on one epoll client thread; a wave = 1 ping to every \
         conn + all echoes; ~{budget} messages per fleet size; broadcast \
         payload {BROADCAST_PAYLOAD} B at the largest size; install frame \
         carries a {BROADCAST_PAYLOAD} B compiled image, {INSTALL_DECODES} decodes"
    ));
    t.note("wall-clock, varies run to run; writes BENCH_net.json");

    let json = format!(
        "{{\n  \"benchmark\": \"net_reactor_scaling\",\n  \"sizes\": [\n{}\n  ],\n{}  \
         \"install_frame\": {{ \"payload_bytes\": {BROADCAST_PAYLOAD}, \"frame_bytes\": {frame_bytes}, \
         \"inflation\": {inflation:.4}, \"decodes\": {INSTALL_DECODES}, \
         \"decode_mb_per_s\": {decode_mb_s:.1} }},\n  \
         \"budget_messages\": {budget}\n}}\n",
        rows_json.join(",\n"),
        broadcast_json,
    );
    if let Err(e) = std::fs::write("BENCH_net.json", json) {
        eprintln!("warning: could not write BENCH_net.json: {e}");
    }
    t
}
