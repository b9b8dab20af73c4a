//! The federation as library calls: a router with two in-process shards
//! gives the digest of one `Runtime` on the same units, and a peer fault —
//! a dialer that never joins or joins wrongly, a shard that stops reading,
//! drops its connection or announces itself twice — ends that one
//! connection, not the run. A shard that lacks a registered library fails
//! the registration or its join, by name.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;
use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{InvocationId, ShardId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, Outcome, UnitId, WorkUnit};
use vine_lang::{pickle, Value};
use vine_proto::{read_frame, write_frame, RouterToShard, ShardStats, ShardToRouter};
use vine_runtime::{decode_result, serve_shard, Router, Runtime, RuntimeConfig, TcpConfig};

const SOURCE: &str = r#"
def context_setup(base) {
    global model
    model = base * 1000
}
def f(x, pad) {
    return model + x + len(pad)
}
"#;

/// One context installed under several names, so the ring spreads the
/// calls over both shards.
const LIBS: [&str; 8] = [
    "lib-0", "lib-1", "lib-2", "lib-3", "lib-4", "lib-5", "lib-6", "lib-7",
];

fn spec(name: &str) -> LibrarySpec {
    let mut spec = LibrarySpec::new(name);
    spec.functions = vec!["f".into()];
    spec.resources = Some(Resources::new(2, 2048, 2048));
    spec.slots = Some(2);
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: "context_setup".into(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    spec
}

/// The i-th call, on library `LIBS[i % 8]`, carrying `pad` bytes.
fn call(i: u64, pad: usize) -> WorkUnit {
    let args = [Value::Int(i as i64), Value::from("x".repeat(pad))];
    let mut c = FunctionCall::new(
        InvocationId(i),
        LIBS[i as usize % LIBS.len()],
        "f",
        pickle::serialize_args(&args).unwrap(),
    );
    c.resources = Resources::new(1, 512, 512);
    WorkUnit::Call(c)
}

/// A runtime of in-process workers with the first `libs` libraries
/// installed.
fn runtime_with(libs: usize) -> Runtime {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    for name in &LIBS[..libs] {
        rt.install_library(spec(name), SOURCE, vec![], &[Value::Int(3)])
            .unwrap();
    }
    rt
}

/// A runtime of in-process workers with every library installed.
fn runtime() -> Runtime {
    runtime_with(LIBS.len())
}

/// Each unit's value, by unit: equal digests mean every unit got exactly
/// one outcome, with the same value.
fn digest(outcomes: &[Outcome]) -> Vec<(UnitId, Value)> {
    let mut d: Vec<_> = outcomes
        .iter()
        .map(|o| (o.unit, decode_result(o).unwrap()))
        .collect();
    d.sort_by_key(|(unit, _)| *unit);
    d
}

/// The digest of one `Runtime` running `units`.
fn single(units: &[WorkUnit]) -> Vec<(UnitId, Value)> {
    let mut rt = runtime();
    for u in units {
        rt.submit(u.clone());
    }
    let d = digest(&rt.run_until_idle().unwrap());
    rt.shutdown();
    d
}

fn router(cfg: TcpConfig) -> Router {
    let mut router = Router::listen("127.0.0.1:0", cfg).unwrap();
    for name in LIBS {
        router.register_library(&spec(name)).unwrap();
    }
    router
}

/// A shard on its own thread, serving the router at `addr` on `rt`.
fn shard_on(addr: SocketAddr, id: u32, rt: Runtime) -> JoinHandle<()> {
    std::thread::spawn(move || serve_shard(&addr.to_string(), ShardId(id), rt).unwrap())
}

/// A shard with every library, on its own thread.
fn shard(addr: SocketAddr, id: u32) -> JoinHandle<()> {
    shard_on(addr, id, runtime())
}

/// The `ShardJoin` of shard `id`, serving every library.
fn join(id: u32) -> ShardToRouter {
    ShardToRouter::ShardJoin {
        shard: ShardId(id),
        workers: 1,
        libraries: LIBS.map(String::from).to_vec(),
    }
}

/// A connection that joins as shard `id` and then does what its caller
/// does with it.
fn fake_shard(addr: SocketAddr, id: u32) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &join(id)).unwrap();
    s
}

/// Read until the router routes a unit here.
fn first_route(r: &mut impl std::io::BufRead) {
    while let Ok(msg) = read_frame::<RouterToShard>(r) {
        if matches!(msg, RouterToShard::Route { .. }) {
            return;
        }
    }
    panic!("the router closed the shard before routing it a unit");
}

/// Block until the router closes `s`, reading and dropping what it sent.
fn wait_closed(s: TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut buf = [0u8; 4096];
    while (&s).read(&mut buf).is_ok_and(|n| n > 0) {}
}

/// Route `units` and check the run against one `Runtime`'s digest.
fn run(router: &mut Router, units: &[WorkUnit]) {
    for u in units {
        router.submit(u.clone()).unwrap();
    }
    let outcomes = router.run_until_idle().unwrap();
    assert_eq!(digest(&outcomes), single(units));
}

#[test]
fn a_router_with_two_shards_gives_the_single_runtime_digest() {
    let mut router = router(TcpConfig::default());
    let shards = [shard(router.local_addr(), 0), shard(router.local_addr(), 1)];
    router.wait_for_shards(2).unwrap();
    let units: Vec<WorkUnit> = (0..64).map(|i| call(i, 16)).collect();
    run(&mut router, &units);

    let reports = router.shard_stats().unwrap();
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|r| r.routed > 0), "both shards served");
    assert_eq!(reports.iter().map(|r| r.finished).sum::<u64>(), 64);
    assert_eq!(router.ring().rerouted(), 0);
    drop(router);
    for s in shards {
        s.join().unwrap();
    }
}

#[test]
fn a_shard_that_stops_reading_is_closed_and_its_ledger_rerouted() {
    let mut router = router(TcpConfig {
        max_queued_bytes: 64 * 1024,
        send_timeout: Duration::from_secs(1),
        ..TcpConfig::default()
    });
    let addr = router.local_addr();
    let real = shard(addr, 0);
    // joins, then never reads: its socket and queue fill, and the send
    // deadline closes it
    let stalled = fake_shard(addr, 1);
    router.wait_for_shards(2).unwrap();

    // the stalled shard's calls are big enough to fill its socket
    let owner = |i| router.ring().shard_for_unit(&call(i, 0));
    let units: Vec<WorkUnit> = (0..128)
        .map(|i| match owner(i) {
            Some(ShardId(1)) => call(i, 512 * 1024),
            _ => call(i, 16),
        })
        .collect();
    let stalled_units = (0..128).filter(|&i| owner(i) == Some(ShardId(1))).count();
    assert!(
        stalled_units >= 32,
        "{stalled_units} unit(s) on the stalled shard"
    );
    run(&mut router, &units);

    assert!(router.ring().rerouted() > 0, "its ledger was re-routed");
    assert_eq!(router.ring().shard_count(), 1);
    let meters = router.stats().workers;
    assert_eq!(meters.iter().filter(|m| !m.alive).count(), 1);
    drop(router);
    real.join().unwrap();
    drop(stalled);
}

#[test]
fn a_shard_whose_connection_drops_mid_run_has_its_ledger_rerouted() {
    let mut router = router(TcpConfig::default());
    let addr = router.local_addr();
    let real = shard(addr, 0);
    // takes one routed unit, then drops the connection
    let dropped = std::thread::spawn(move || {
        let mut r = BufReader::new(fake_shard(addr, 1));
        first_route(&mut r);
    });
    router.wait_for_shards(2).unwrap();
    let units: Vec<WorkUnit> = (0..64).map(|i| call(i, 16)).collect();
    run(&mut router, &units);

    dropped.join().unwrap();
    assert!(router.ring().rerouted() > 0, "its ledger was re-routed");
    assert_eq!(router.ring().shard_count(), 1);
    drop(router);
    real.join().unwrap();
}

#[test]
fn a_second_shard_join_closes_that_shard_and_reroutes_its_ledger() {
    let mut router = router(TcpConfig::default());
    let addr = router.local_addr();
    let real = shard(addr, 0);
    // takes one routed unit, announces itself again, and waits to be
    // closed
    let rejoined = std::thread::spawn(move || {
        let s = fake_shard(addr, 1);
        first_route(&mut BufReader::new(s.try_clone().unwrap()));
        write_frame(&mut &s, &join(1)).unwrap();
        wait_closed(s);
    });
    router.wait_for_shards(2).unwrap();
    let units: Vec<WorkUnit> = (0..64).map(|i| call(i, 16)).collect();
    run(&mut router, &units);

    rejoined.join().unwrap();
    assert!(router.ring().rerouted() > 0, "its ledger was re-routed");
    assert_eq!(router.ring().shard_count(), 1);
    drop(router);
    real.join().unwrap();
}

/// Shard 0 joins; then a dialer that sends `first` (or nothing) must be
/// closed and counted before shard 1 starts, and the run must complete.
fn a_refused_dialer_costs_only_its_connection(first: Option<ShardToRouter>) {
    let mut router = router(TcpConfig {
        handshake_timeout: Duration::from_millis(200),
        ..TcpConfig::default()
    });
    let addr = router.local_addr();
    let s0 = shard(addr, 0);
    router.wait_for_shards(1).unwrap();
    let dialer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        if let Some(first) = first {
            write_frame(&mut s, &first).unwrap();
        }
        wait_closed(s);
        shard(addr, 1)
    });
    router.wait_for_shards(2).unwrap();
    let s1 = dialer.join().unwrap();
    assert_eq!(router.stats().handshake_rejects, 1);

    let units: Vec<WorkUnit> = (0..64).map(|i| call(i, 16)).collect();
    run(&mut router, &units);
    assert_eq!(router.ring().rerouted(), 0);
    drop(router);
    s0.join().unwrap();
    s1.join().unwrap();
}

#[test]
fn a_dialer_that_never_joins_is_closed_at_the_handshake_deadline() {
    a_refused_dialer_costs_only_its_connection(None);
}

#[test]
fn a_shard_join_with_a_live_shards_id_is_rejected() {
    a_refused_dialer_costs_only_its_connection(Some(join(0)));
}

#[test]
fn a_first_frame_other_than_shard_join_is_rejected() {
    a_refused_dialer_costs_only_its_connection(Some(ShardToRouter::ShardStats {
        stats: ShardStats::default(),
    }));
}

/// In both orders shard 0 lacks `lib-7`, which the two-shard ring routes
/// to it.
#[test]
fn a_shard_that_lacks_a_registered_library_fails_its_join_by_name() {
    // registered first, as the `router()` helper does
    let mut router = router(TcpConfig::default());
    let addr = router.local_addr();
    let full = shard(addr, 1);
    router.wait_for_shards(1).unwrap();
    let lacking = shard_on(addr, 0, runtime_with(7));
    let err = router.wait_for_shards(2).unwrap_err();
    assert_eq!(err.to_string(), "unknown library: lib-7 on shard s0");
    assert_eq!(router.ring().shards().collect::<Vec<_>>(), [ShardId(1)]);
    drop(router);
    full.join().unwrap();
    lacking.join().unwrap();
}

#[test]
fn registering_a_library_a_live_shard_lacks_fails_by_name() {
    // shards first, as `repro route` does
    let mut router = Router::listen("127.0.0.1:0", TcpConfig::default()).unwrap();
    let addr = router.local_addr();
    let lacking = shard_on(addr, 0, runtime_with(7));
    let full = shard(addr, 1);
    router.wait_for_shards(2).unwrap();
    for name in &LIBS[..7] {
        router.register_library(&spec(name)).unwrap();
    }
    let err = router.register_library(&spec("lib-7")).unwrap_err();
    assert_eq!(err.to_string(), "unknown library: lib-7 on shard s0");
    drop(router);
    full.join().unwrap();
    lacking.join().unwrap();
}
