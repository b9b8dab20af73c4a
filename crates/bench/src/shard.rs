//! `repro shard` — the federated-sharding experiments.
//!
//! Sim substrate: [`shard_sweep`] runs a manager-bound submission storm
//! through 1→8 scheduling shards (`vine_sim::simulate_sharded`) and
//! reports aggregate submission throughput per shard count, writing
//! `BENCH_shard.json` (labelled `"clock": "modeled"`: the times are the
//! simulator's, not wall-clock). The single-manager scheduling path
//! serializes every dispatch behind one service queue (Table 2's
//! per-invocation overhead plus pending-table scans), so sharding the
//! manager is near-linear until routing imbalance bites; per-shard
//! pending tables also shrink, which is why the scan term makes the
//! speedup slightly superlinear at full scale.
//!
//! Live substrate: [`serve_shard`] and [`route`] are the process drivers
//! behind `repro serve --shard` / `repro route` (see DESIGN.md §6.11).

use crate::table::Table;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;
use vine_core::config::ReuseLevel;
use vine_core::context::LibrarySpec;
use vine_core::ids::{InvocationId, ShardId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, Outcome, WorkProfile, WorkUnit};
use vine_core::VineError;
use vine_manager::ShardRouter;
use vine_proto::{
    read_frame, render_shard_stats, write_frame, RouterToShard, ShardStats, ShardToRouter,
};
use vine_runtime::{Runtime, RuntimeConfig, TcpTransport, Transport};
use vine_sim::{simulate_sharded, SimConfig, Workload};

/// Shard counts swept by `repro shard`.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A manager-bound submission storm: `n` cheap invocations spread
/// round-robin over `libs` distinct libraries. Executions are tiny, so
/// every run is limited by its managers' dispatch service rate — the
/// single-manager ownership cost this experiment isolates. Distinct
/// libraries give the router distinct function-context digests to spread
/// across the shard ring.
struct RouteStorm {
    libs: u32,
    n: u64,
}

impl RouteStorm {
    fn lib_name(l: u32) -> String {
        format!("storm-lib-{l}")
    }
}

impl Workload for RouteStorm {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        (0..self.libs)
            .map(|l| {
                let mut spec = LibrarySpec::new(Self::lib_name(l));
                spec.functions = vec!["f".into()];
                spec.resources = Some(Resources::lnni_invocation());
                spec.slots = Some(1);
                // no context files: installs are cheap, so the storm
                // isolates dispatch cost rather than transfer bandwidth
                (spec, WorkProfile::zero())
            })
            .collect()
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        (0..self.n)
            .map(|i| {
                let mut c = FunctionCall::new(
                    InvocationId(i),
                    Self::lib_name(i as u32 % self.libs),
                    "f",
                    vec![0u8; 16],
                );
                c.resources = Resources::lnni_invocation();
                c.profile = WorkProfile {
                    exec_gflop: 0.4, // ~40 ms on a paper worker core pair
                    output_bytes: 128,
                    ..WorkProfile::zero()
                };
                WorkUnit::Call(c)
            })
            .collect()
    }
}

/// `repro shard`: sweep the federation from 1 to 8 shards over the same
/// submission storm and fleet, and measure aggregate submission
/// throughput (completed units per second of federation makespan — the
/// slowest shard closes the run).
pub fn shard_sweep(scale: f64) -> Table {
    let n = ((1_000_000f64 * scale).round() as u64).max(400);
    // enough distinct contexts that 8 shards draw even loads, capped so
    // tiny --scale smokes still exercise multi-library routing
    let libs = ((n / 64).clamp(16, 512)) as u32;
    let workers = 64;
    let cfg = SimConfig::paper(ReuseLevel::L3, workers);

    let mut t = Table::new(
        "shard",
        "Federated sharding: aggregate submission throughput, 1→8 shards",
        &[
            "shards",
            "throughput_per_sec",
            "speedup",
            "makespan_s",
            "max_shard_units",
        ],
    );

    let mut entries = String::new();
    let mut base_tput = 0.0f64;
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        let mut w = RouteStorm { libs, n };
        let fed = simulate_sharded(&cfg, shards, &mut w).expect("the storm is static");
        assert_eq!(fed.completed, n, "every routed submission must complete");
        assert_eq!(fed.failed, 0);
        if shards == 1 {
            base_tput = fed.throughput;
        }
        let speedup = fed.throughput / base_tput;
        let max_units = fed.routed.iter().copied().max().unwrap_or(0);
        t.row(
            format!("{shards} shard(s)"),
            vec![
                shards as f64,
                fed.throughput,
                speedup,
                fed.makespan_s,
                max_units as f64,
            ],
        );
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{ \"shards\": {shards}, \"throughput_per_sec\": {:.3}, \
             \"speedup\": {speedup:.3}, \"makespan_s\": {:.3}, \
             \"events\": {} }}",
            fed.throughput, fed.makespan_s, fed.events
        ));
    }
    t.note(format!(
        "{n} submissions over {libs} libraries, {workers} workers partitioned \
         across shards; simulated time; routing by function-context digest"
    ));

    let json = format!(
        "{{\n  \"benchmark\": \"shard_throughput\",\n  \"clock\": \"modeled\",\n  \
         \"units\": {n},\n  \"libraries\": {libs},\n  \"workers\": {workers},\n  \
         \"sweep\": [\n{entries}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write("BENCH_shard.json", json) {
        eprintln!("warning: could not write BENCH_shard.json: {e}");
    }
    t
}

// --------------------------------------------------------- live substrate

/// The library names a federated LNNI run installs and routes over.
/// `libs == 1` is the exact single-manager workload (library `lnni`);
/// `libs > 1` installs the same function context under `lnni-0..` so the
/// router has distinct digests to spread across the shard ring. Results —
/// and therefore the stdout digest — are identical either way, because
/// every copy computes the same function of the same arguments.
pub fn lnni_library_names(libs: u32) -> Vec<String> {
    if libs <= 1 {
        vec!["lnni".to_string()]
    } else {
        (0..libs).map(|l| format!("lnni-{l}")).collect()
    }
}

fn live_shard_stats(shard: ShardId, rt: &Runtime, workers: usize, routed: u64) -> ShardStats {
    let ts = rt.transport_stats();
    let (mut fi, mut fo, mut bi, mut bo) = (0u64, 0u64, 0u64, 0u64);
    for w in &ts.workers {
        fi += w.frames_in;
        fo += w.frames_out;
        bi += w.bytes_in;
        bo += w.bytes_out;
    }
    let queued = rt.queued() as u64;
    let running = rt.running() as u64;
    ShardStats {
        shard,
        workers: workers as u32,
        routed,
        finished: routed - queued - running,
        requeued: rt.requeues(),
        queued,
        running,
        frames_in: fi,
        frames_out: fo,
        bytes_in: bi,
        bytes_out: bo,
    }
}

/// `repro serve --shard ID --router ADDR`: one scheduling shard of a
/// federation. Boots its own worker fleet (in-process threads by default;
/// with `--listen` it is the same epoll-reactor TCP manager `repro serve
/// --listen` runs, and `repro join` workers dial in), installs the LNNI
/// workload's libraries, announces itself to the router, then serves
/// [`RouterToShard::Route`] submissions until `Shutdown` or the router
/// connection drops.
pub fn serve_shard(
    router_addr: &str,
    shard: ShardId,
    workers: usize,
    libs: u32,
    listen: Option<&str>,
) -> Result<(), VineError> {
    let cfg = RuntimeConfig {
        workers,
        worker_resources: crate::live::default_worker_resources(),
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    };
    let mut rt = match listen {
        Some(addr) => {
            let transport = TcpTransport::listen(addr)
                .map_err(|e| VineError::Protocol(format!("binding {addr}: {e}")))?;
            eprintln!(
                "# shard {shard} listening on {}, waiting for {workers} worker(s)",
                transport.local_addr()
            );
            Runtime::with_transport(cfg, Box::new(transport) as Box<dyn Transport>)?
        }
        None => Runtime::new(cfg),
    };
    for name in lnni_library_names(libs) {
        crate::live::install_lnni(&mut rt, &name)?;
    }

    let stream = TcpStream::connect(router_addr)
        .map_err(|e| VineError::Protocol(format!("dialing router {router_addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| VineError::Protocol(format!("cloning router socket: {e}")))?;
    let mut reader = BufReader::new(stream);
    write_frame(
        &mut writer,
        &ShardToRouter::ShardJoin {
            shard,
            workers: workers as u32,
        },
    )
    .map_err(|e| VineError::Protocol(format!("shard join: {e}")))?;
    eprintln!("# shard {shard} joined router at {router_addr} ({workers} worker(s))");

    let (tx, rx) = mpsc::channel::<RouterToShard>();
    let downlink = std::thread::Builder::new()
        .name(format!("shard-{shard}-downlink"))
        .spawn(move || {
            while let Ok(msg) = read_frame::<RouterToShard>(&mut reader) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        })
        .expect("spawn downlink thread");

    let (mut routed, mut finished) = (0u64, 0u64);
    'serve: loop {
        // drain queued router commands first — block only when the shard
        // has nothing in flight (submissions batch up while units run)
        loop {
            let cmd = if routed == finished {
                match rx.recv() {
                    Ok(c) => c,
                    Err(_) => break 'serve, // router gone, nothing owed
                }
            } else {
                match rx.try_recv() {
                    Ok(c) => c,
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => break 'serve,
                }
            };
            match cmd {
                RouterToShard::Route { unit } => {
                    rt.submit(*unit);
                    routed += 1;
                }
                RouterToShard::StatsRequest => {
                    let stats = live_shard_stats(shard, &rt, workers, routed);
                    if write_frame(&mut writer, &ShardToRouter::ShardStats { stats }).is_err() {
                        break 'serve;
                    }
                }
                RouterToShard::Shutdown => break 'serve,
            }
        }
        // commands drained and work outstanding: drive the next completion
        match rt.run_next()? {
            Some(outcome) => {
                finished += 1;
                if write_frame(&mut writer, &ShardToRouter::UnitDone { outcome }).is_err() {
                    break 'serve; // router gone mid-run
                }
            }
            None => {
                return Err(VineError::Internal(format!(
                    "shard {shard}: {} routed unit(s) vanished without an outcome",
                    routed - finished
                )));
            }
        }
    }
    eprintln!("# shard {shard} done: {routed} routed, {finished} finished");
    rt.shutdown();
    // unblock the downlink reader if the router is still connected
    let _ = writer.shutdown(std::net::Shutdown::Both);
    drop(rx);
    let _ = downlink.join();
    Ok(())
}

/// Route `queue` onto live shards, re-routing through surviving shards
/// whenever a write reveals a dead one (its whole in-flight ledger —
/// including the unit that just failed to send — rejoins the queue).
fn dispatch_units(
    sr: &mut ShardRouter,
    writers: &mut BTreeMap<ShardId, TcpStream>,
    dead: &mut BTreeSet<ShardId>,
    mut queue: VecDeque<WorkUnit>,
) -> Result<(), VineError> {
    while let Some(unit) = queue.pop_front() {
        let Some(sid) = sr.route(unit.clone()) else {
            return Err(VineError::Internal(
                "no shards left to route to".to_string(),
            ));
        };
        let sent = writers
            .get_mut(&sid)
            .is_some_and(|w| write_frame(w, &RouterToShard::Route { unit: unit.into() }).is_ok());
        if !sent && dead.insert(sid) {
            writers.remove(&sid);
            let orphans = sr.shard_left(sid);
            eprintln!(
                "# shard {sid} unreachable, re-routing {} unit(s)",
                orphans.len()
            );
            queue.extend(orphans);
        }
    }
    Ok(())
}

/// `repro route --listen ADDR --shards N`: the routing front-end of a
/// federated deployment. Waits for N `repro serve --shard` processes to
/// dial in, hashes each LNNI submission's function-context digest onto
/// the shard ring, collects results (re-routing the in-flight ledger of
/// any shard whose connection dies — the `kill -9` path), prints the
/// per-shard stats table on stderr and the deterministic digest on
/// stdout. The digest byte-matches `repro serve --local` for the same
/// `--n`, whatever the shard count, spread, or fault schedule.
pub fn route(listen: &str, shards: usize, n: u64, libs: u32) -> Result<String, VineError> {
    let listener = TcpListener::bind(listen)
        .map_err(|e| VineError::Protocol(format!("binding {listen}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| VineError::Protocol(format!("local addr: {e}")))?;
    eprintln!("# router listening on {addr}, waiting for {shards} shard(s)");

    let (tx, rx) = mpsc::channel::<(ShardId, Option<ShardToRouter>)>();
    let mut writers: BTreeMap<ShardId, TcpStream> = BTreeMap::new();
    while writers.len() < shards {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| VineError::Protocol(format!("accept: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| VineError::Protocol(format!("cloning shard socket: {e}")))?,
        );
        let join = read_frame::<ShardToRouter>(&mut reader)
            .map_err(|e| VineError::Protocol(format!("shard handshake from {peer}: {e}")))?;
        let (sid, w) = match join {
            ShardToRouter::ShardJoin { shard, workers } => (shard, workers),
            other => {
                return Err(VineError::Protocol(format!(
                    "expected ShardJoin, got {other:?}"
                )))
            }
        };
        if writers.contains_key(&sid) {
            return Err(VineError::Protocol(format!(
                "duplicate shard id {sid} announced"
            )));
        }
        eprintln!("# shard {sid} connected from {peer} ({w} worker(s))");
        writers.insert(sid, stream);
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(format!("router-read-{sid}"))
            .spawn(move || {
                loop {
                    match read_frame::<ShardToRouter>(&mut reader) {
                        Ok(msg) => {
                            if tx.send((sid, Some(msg))).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            // connection gone — crash and graceful close alike
                            let _ = tx.send((sid, None));
                            return;
                        }
                    }
                }
            })
            .expect("spawn router reader");
    }
    drop(tx);

    let mut sr = ShardRouter::new();
    for &sid in writers.keys() {
        sr.shard_joined(sid);
    }
    let names = lnni_library_names(libs);
    for name in &names {
        sr.register_library(&crate::live::lnni_spec_named(name));
        // stderr breadcrumb: which shard owns each library's context — the
        // fault smoke reads this to pick its kill victim
        let probe = WorkUnit::Call(crate::live::lnni_call(u64::MAX, name)?);
        if let Some(owner) = sr.shard_for_unit(&probe) {
            eprintln!("# route: {name} -> {owner}");
        }
    }

    let mut dead: BTreeSet<ShardId> = BTreeSet::new();
    let queue: VecDeque<WorkUnit> = (0..n)
        .map(|i| {
            crate::live::lnni_call(i, &names[(i % names.len() as u64) as usize]).map(WorkUnit::Call)
        })
        .collect::<Result<_, _>>()?;
    eprintln!(
        "# routing {n} submission(s) over {} librar(ies)",
        names.len()
    );
    dispatch_units(&mut sr, &mut writers, &mut dead, queue)?;

    let mut outcomes: Vec<Outcome> = Vec::new();
    while (outcomes.len() as u64) < n {
        let (sid, msg) = rx.recv_timeout(Duration::from_secs(60)).map_err(|_| {
            VineError::Timeout(format!(
                "router: no progress with {} of {n} outcome(s) collected",
                outcomes.len()
            ))
        })?;
        match msg {
            Some(ShardToRouter::UnitDone { outcome }) => {
                // the ledger guards against double-counting a unit that
                // completed on a shard we had already given up on
                if sr.unit_done(sid, outcome.unit).is_some() {
                    outcomes.push(outcome);
                }
            }
            Some(ShardToRouter::ShardStats { .. }) => {} // late report
            Some(ShardToRouter::ShardJoin { .. }) => {
                return Err(VineError::Protocol(format!(
                    "unexpected ShardJoin from admitted shard {sid}"
                )));
            }
            Some(ShardToRouter::ShardLeave { .. }) | None => {
                if dead.insert(sid) {
                    writers.remove(&sid);
                    let orphans = sr.shard_left(sid);
                    eprintln!("# shard {sid} left, re-routing {} unit(s)", orphans.len());
                    if sr.shard_count() == 0 && (outcomes.len() as u64) < n {
                        return Err(VineError::Internal(
                            "every shard left before the run completed".to_string(),
                        ));
                    }
                    dispatch_units(&mut sr, &mut writers, &mut dead, orphans.into())?;
                }
            }
        }
    }

    // per-shard aggregates from the survivors, then shut the fleet down
    for w in writers.values_mut() {
        let _ = write_frame(w, &RouterToShard::StatsRequest);
    }
    let mut reports: Vec<ShardStats> = Vec::new();
    while reports.len() < writers.len() {
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok((_, Some(ShardToRouter::ShardStats { stats }))) => reports.push(stats),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    reports.sort_by_key(|s| s.shard);
    if !reports.is_empty() {
        eprint!("{}", render_shard_stats(&reports));
    }
    eprintln!(
        "# router: {} routed ({} re-routed), {} of {shards} shard(s) survived",
        sr.routed(),
        sr.rerouted(),
        writers.len()
    );
    for w in writers.values_mut() {
        let _ = write_frame(w, &RouterToShard::Shutdown);
    }
    Ok(crate::live::digest(&outcomes))
}
