//! The federation's live processes (DESIGN.md §6.11): a [`Router`] that
//! sends each submission to the shard its function-context digest hashes
//! to, and [`serve_shard`], which runs what a router routes on one
//! [`Runtime`]. The router is the router ↔ shard instance of the
//! manager's connection set ([`crate::reactor`]), so it never blocks in a
//! write. Whatever closes a shard — its connection dropping, a frame that
//! breaks the protocol, its queue full past `send_timeout` — reaches the
//! router as one `Left` after the shard's last frame, and the router
//! re-routes that shard's ledger onto the survivors. Every live shard
//! serves every registered library: a shard that lacks one fails the
//! registration or the join that would route a call to it.

use crate::reactor::{ConnSet, PeerEvent, TcpConfig};
use crate::runtime::Runtime;
use crate::transport::TransportStats;
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vine_core::context::LibrarySpec;
use vine_core::ids::ShardId;
use vine_core::task::{Outcome, WorkUnit};
use vine_core::{Result, VineError};
use vine_manager::ShardRouter;
use vine_proto::{encode_frame, read_frame, write_frame, RouterToShard, ShardStats, ShardToRouter};

/// How long the router waits for any event before it gives up.
const NO_PROGRESS: Duration = Duration::from_secs(60);

/// A shard is admitted by its `ShardJoin`, under the id it announces.
fn admit_shard(first: &ShardToRouter, _: u32) -> Option<(ShardId, Option<Vec<u8>>)> {
    match first {
        ShardToRouter::ShardJoin { shard, .. } => Some((*shard, None)),
        _ => None,
    }
}

/// The routing front-end of a federation: its shards' connections, the
/// shard ring, and the ledger of what each shard owes. Dropping it tells
/// every shard to stop.
pub struct Router {
    set: ConnSet<ShardToRouter, ShardId>,
    ring: ShardRouter,
    /// The libraries each live shard announced in its `ShardJoin`.
    serves: BTreeMap<ShardId, Vec<String>>,
    /// Units waiting for a live shard.
    queue: VecDeque<WorkUnit>,
    outcomes: Vec<Outcome>,
    /// Units submitted and not yet answered.
    owed: usize,
    reports: Vec<ShardStats>,
}

impl Router {
    /// Bind `addr` and start admitting shards.
    pub fn listen(addr: impl ToSocketAddrs, cfg: TcpConfig) -> std::io::Result<Router> {
        let farewell = encode_frame(&RouterToShard::Shutdown).expect("shutdown encodes");
        Ok(Router {
            set: ConnSet::bind(addr, cfg, admit_shard, farewell)?,
            ring: ShardRouter::new(),
            serves: BTreeMap::new(),
            queue: VecDeque::new(),
            outcomes: Vec::new(),
            owed: 0,
            reports: Vec::new(),
        })
    }

    /// The address shards should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.set.local_addr()
    }

    /// Record a library: its routing digest decides the shard that serves
    /// its calls. Fails, naming both, if a live shard lacks the library.
    pub fn register_library(&mut self, spec: &LibrarySpec) -> Result<()> {
        if let Some((&shard, _)) = self.serves.iter().find(|(_, l)| !l.contains(&spec.name)) {
            return Err(lacks(shard, &spec.name));
        }
        self.ring.register_library(spec);
        Ok(())
    }

    /// The ring and its ledger: live shards, routing, re-route counts.
    pub fn ring(&self) -> &ShardRouter {
        &self.ring
    }

    /// Per-connection traffic meters and the connections rejected.
    pub fn stats(&self) -> TransportStats {
        self.set.stats()
    }

    /// Admit shards until `n` are live.
    pub fn wait_for_shards(&mut self, n: usize) -> Result<()> {
        while self.ring.shard_count() < n {
            self.step(|r| format!("{} of {n} shard(s) joined", r.ring.shard_count()))?;
        }
        Ok(())
    }

    /// Route a unit to its shard now. The frame is written or queued,
    /// never waited on past `send_timeout`.
    pub fn submit(&mut self, unit: WorkUnit) -> Result<()> {
        self.owed += 1;
        self.queue.push_back(unit);
        self.dispatch()
    }

    /// Collect an outcome for every submitted unit, re-routing the ledger
    /// of each shard that is lost meanwhile.
    pub fn run_until_idle(&mut self) -> Result<Vec<Outcome>> {
        while self.owed > 0 {
            self.step(|r| format!("{} unit(s) outstanding", r.owed))?;
        }
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// Ask every live shard for its load report and collect the answers,
    /// by shard, for up to 5 s.
    pub fn shard_stats(&mut self) -> Result<Vec<ShardStats>> {
        let ask = encode_frame(&RouterToShard::StatsRequest).expect("stats request encodes");
        let shards: Vec<ShardId> = self.ring.shards().collect();
        for &shard in &shards {
            self.set.send_bytes(shard, ask.clone());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.reports.len() < shards.len() {
            match self
                .set
                .next_event(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(ev) => self.handle(ev)?,
                Err(_) => break,
            }
        }
        let mut reports = std::mem::take(&mut self.reports);
        reports.sort_by_key(|s| s.shard);
        Ok(reports)
    }

    /// Handle the next event, then route whatever waits for a shard. If
    /// none comes for [`NO_PROGRESS`], fail with what `waiting` says.
    fn step(&mut self, waiting: impl FnOnce(&Router) -> String) -> Result<()> {
        let ev = match self.set.next_event(NO_PROGRESS) {
            Ok(ev) => ev,
            Err(_) => return Err(VineError::Timeout(format!("router: {}", waiting(self)))),
        };
        self.handle(ev)?;
        self.dispatch()
    }

    /// Send every waiting unit to its shard. A unit routed to a shard the
    /// set has already closed joins that shard's ledger, which is
    /// re-routed when its `Left` is handled.
    fn dispatch(&mut self) -> Result<()> {
        while self.ring.shard_count() > 0 {
            let Some(unit) = self.queue.pop_front() else {
                break;
            };
            let frame = encode_frame(&RouterToShard::Route {
                unit: Box::new(unit.clone()),
            })
            .map_err(|e| VineError::Protocol(format!("routing {:?}: {e}", unit.id())))?;
            let shard = self.ring.route(unit).expect("a shard is live");
            self.set.send_bytes(shard, frame);
        }
        Ok(())
    }

    fn handle(&mut self, ev: PeerEvent<ShardToRouter, ShardId>) -> Result<()> {
        match ev {
            PeerEvent::Joined { peer, first } => {
                let ShardToRouter::ShardJoin {
                    workers, libraries, ..
                } = first
                else {
                    unreachable!("a shard is admitted by its ShardJoin")
                };
                if let Some(missing) = self
                    .ring
                    .libraries()
                    .find(|l| !libraries.iter().any(|s| s == l))
                {
                    let err = lacks(peer, missing);
                    self.set.disconnect(peer);
                    return Err(err);
                }
                eprintln!("# shard {peer} connected ({workers} worker(s))");
                self.serves.insert(peer, libraries);
                self.ring.shard_joined(peer);
            }
            PeerEvent::Message { peer, msg } => match msg {
                // a result counts only from the shard its unit is routed to
                ShardToRouter::UnitDone { outcome } => {
                    if self.ring.unit_done(peer, outcome.unit).is_some() {
                        self.owed -= 1;
                        self.outcomes.push(outcome);
                    }
                }
                ShardToRouter::ShardStats { stats } => self.reports.push(stats),
                // a shard announces itself once
                ShardToRouter::ShardJoin { .. } => self.set.disconnect(peer),
            },
            PeerEvent::Left { peer } => {
                self.serves.remove(&peer);
                let orphans = self.ring.shard_left(peer);
                eprintln!("# shard {peer} left, re-routing {} unit(s)", orphans.len());
                self.queue.extend(orphans);
                if self.ring.shard_count() == 0 && self.owed > 0 {
                    return Err(VineError::Internal(
                        "every shard left before the run completed".to_string(),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The error of a live shard that lacks a registered library.
fn lacks(shard: ShardId, library: &str) -> VineError {
    VineError::UnknownLibrary(format!("{library} on shard {shard}"))
}

/// A shard's load report: the routed count from its serve loop, the rest
/// from its runtime.
fn load_report(shard: ShardId, rt: &Runtime, workers: u32, routed: u64) -> ShardStats {
    let mut stats = ShardStats {
        shard,
        workers,
        routed,
        queued: rt.queued() as u64,
        running: rt.running() as u64,
        requeued: rt.requeues(),
        ..Default::default()
    };
    stats.finished = routed - stats.queued - stats.running;
    for w in &rt.transport_stats().workers {
        stats.frames_in += w.frames_in;
        stats.frames_out += w.frames_out;
        stats.bytes_in += w.bytes_in;
        stats.bytes_out += w.bytes_out;
    }
    stats
}

/// Serve as shard `shard` of the router at `router`: run every routed
/// unit on `rt` and send back its outcome, until the router says
/// `Shutdown` or its connection drops. One thread reads the router, so
/// its writes are taken however long a unit runs.
pub fn serve_shard(router: &str, shard: ShardId, mut rt: Runtime) -> Result<()> {
    let stream = TcpStream::connect(router)
        .map_err(|e| VineError::Protocol(format!("dialing router {router}: {e}")))?;
    stream.set_nodelay(true).ok();
    let reader = stream
        .try_clone()
        .map_err(|e| VineError::Protocol(format!("cloning router socket: {e}")))?;
    let workers = rt.worker_capacities().len() as u32;
    let join = ShardToRouter::ShardJoin {
        shard,
        workers,
        libraries: rt.library_arities().into_keys().collect(),
    };
    write_frame(&mut &stream, &join)
        .map_err(|e| VineError::Protocol(format!("shard join: {e}")))?;
    eprintln!("# shard {shard} joined router at {router} ({workers} worker(s))");

    let (tx, rx) = mpsc::channel::<RouterToShard>();
    let downlink = std::thread::Builder::new()
        .name(format!("shard-{shard}-downlink"))
        .spawn(move || {
            let mut reader = BufReader::new(reader);
            while let Ok(msg) = read_frame::<RouterToShard>(&mut reader) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        })
        .expect("spawn downlink thread");

    let (mut routed, mut finished) = (0u64, 0u64);
    loop {
        // take queued router commands first; wait for one only with
        // nothing in flight (submissions batch up while units run)
        let next = if routed == finished {
            rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
        } else {
            rx.try_recv()
        };
        let reply = match next {
            Ok(RouterToShard::Route { unit }) => {
                rt.submit(*unit);
                routed += 1;
                continue;
            }
            Ok(RouterToShard::StatsRequest) => ShardToRouter::ShardStats {
                stats: load_report(shard, &rt, workers, routed),
            },
            // commands drained and work outstanding: drive the next completion
            Err(mpsc::TryRecvError::Empty) => {
                let outcome = rt.run_next()?.ok_or_else(|| {
                    VineError::Internal(format!(
                        "shard {shard}: {} routed unit(s) vanished without an outcome",
                        routed - finished
                    ))
                })?;
                finished += 1;
                ShardToRouter::UnitDone { outcome }
            }
            Ok(RouterToShard::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => break,
        };
        if write_frame(&mut &stream, &reply).is_err() {
            break; // router gone mid-run
        }
    }
    eprintln!("# shard {shard} done: {routed} routed, {finished} finished");
    rt.shutdown();
    // unblock the downlink reader if the router is still connected
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = downlink.join();
    Ok(())
}
