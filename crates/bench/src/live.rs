//! Live-cluster drivers behind `repro serve` / `repro join` and the
//! `--transport` flag: the same LNNI workload the in-process tests run,
//! executable as one process (in-proc transport) or as a manager plus
//! worker OS processes dialing in over TCP.
//!
//! Every driver ends by printing a **digest**: one line per invocation
//! (sorted by id, with its decoded result) and a trailing summary line.
//! The digest is a pure function of the workload, so an in-process run and
//! a TCP run — or two TCP runs with different worker fates — byte-match,
//! which is exactly what the loopback smoke test compares.

use crate::table::Table;
use std::time::Instant;
use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::InvocationId;
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, UnitId, WorkUnit};
use vine_core::VineError;
use vine_lang::{pickle, Value};
use vine_runtime::{decode_result, run_tcp_worker, Runtime, RuntimeConfig, TcpTransport};

/// Capacity a dialing worker announces (`repro join`): a developer-laptop
/// slice, not the paper's 32-core node.
pub fn default_worker_resources() -> Resources {
    Resources::new(8, 16 * 1024, 16 * 1024)
}

/// The LNNI library spec under an arbitrary name. The name is the routing
/// tenant identity: a federated run can install the same function context
/// under several names (`lnni-0`, `lnni-1`, …) to give the shard router
/// distinct digests to spread, without changing any invocation's result.
pub(crate) fn lnni_spec_named(name: &str) -> LibrarySpec {
    let mut spec = LibrarySpec::new(name);
    spec.functions = vec!["infer".into()];
    spec.resources = Some(Resources::new(2, 2048, 2048));
    spec.slots = Some(2);
    spec.exec_mode = ExecMode::Direct;
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: "context_setup".into(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    spec
}

/// Install the LNNI library into a live runtime under `name`.
pub(crate) fn install_lnni(rt: &mut Runtime, name: &str) -> Result<(), VineError> {
    rt.install_library(
        lnni_spec_named(name),
        vine_apps::lnni::LNNI_SOURCE,
        vec![],
        &[Value::Int(3), Value::Int(32)], // 3 layers, dim 32
    )
}

/// The i-th LNNI inference call, against `library`. The arguments (and so
/// the result, and so the digest line) depend only on `i`, never on which
/// library name or shard served it.
pub(crate) fn lnni_call(i: u64, library: &str) -> Result<FunctionCall, VineError> {
    let mut c = FunctionCall::new(
        InvocationId(i),
        library,
        "infer",
        pickle::serialize_args(&[Value::Int(i as i64 * 16), Value::Int(16)])?,
    );
    c.resources = Resources::new(1, 512, 512);
    Ok(c)
}

/// Install the LNNI library, submit `n` inference invocations, run to
/// completion, and render the deterministic digest.
pub fn run_lnni_live(mut rt: Runtime, n: u64) -> Result<String, VineError> {
    install_lnni(&mut rt, "lnni")?;
    for i in 0..n {
        rt.submit(WorkUnit::Call(lnni_call(i, "lnni")?));
    }
    let outcomes = rt.run_until_idle()?;
    // per-worker traffic counters on stderr (stdout is the byte-compared
    // digest); the in-proc transport meters frames but has no wire bytes
    let stats = rt.transport_stats();
    if !stats.workers.is_empty() || stats.handshake_rejects > 0 {
        eprint!("{}", stats.render());
    }
    rt.shutdown();
    Ok(digest(&outcomes))
}

/// The deterministic run summary: per-invocation results sorted by id,
/// then the trace statistics the smoke test compares.
pub fn digest(outcomes: &[Outcome]) -> String {
    let mut lines: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let id = match o.unit {
                UnitId::Call(i) => format!("i{}", i.0),
                UnitId::Task(t) => format!("t{}", t.0),
            };
            if o.success {
                match decode_result(o) {
                    Ok(v) => format!("{id} ok {v:?}"),
                    Err(e) => format!("{id} undecodable {e}"),
                }
            } else {
                format!("{id} err {}", o.error.clone().unwrap_or_default())
            }
        })
        .collect();
    lines.sort();
    let failures = outcomes.iter().filter(|o| !o.success).count();
    lines.push(format!("outcomes={} failures={}", outcomes.len(), failures));
    lines.join("\n")
}

/// Boot a live fleet for the LNNI workload: `workers` in-process threads,
/// or, with `listen`, the epoll TCP manager that `workers` `repro join`
/// processes dial; `who` names it in the stderr breadcrumb.
pub(crate) fn boot(workers: usize, listen: Option<&str>, who: &str) -> Result<Runtime, VineError> {
    let cfg = RuntimeConfig {
        workers,
        worker_resources: default_worker_resources(),
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    };
    let Some(addr) = listen else {
        return Ok(Runtime::new(cfg));
    };
    let transport = TcpTransport::listen(addr)
        .map_err(|e| VineError::Protocol(format!("binding {addr}: {e}")))?;
    let at = transport.local_addr();
    eprintln!("# {who} listening on {at}, waiting for {workers} worker(s)");
    Runtime::with_transport(cfg, Box::new(transport))
}

/// `repro serve --local`: the whole workload in this process over the
/// in-proc transport — the reference digest for loopback comparison.
pub fn serve_local(workers: usize, n: u64) -> Result<String, VineError> {
    run_lnni_live(boot(workers, None, "manager")?, n)
}

/// `repro serve --listen ADDR`: bind, wait for `workers` processes to
/// dial in (`repro join ADDR`), run the workload, print the digest.
pub fn serve_tcp(listen: &str, workers: usize, n: u64) -> Result<String, VineError> {
    let rt = boot(workers, Some(listen), "manager")?;
    eprintln!("# {workers} worker(s) joined, running {n} invocations");
    run_lnni_live(rt, n)
}

/// `repro join ADDR`: be a worker process until the manager shuts us down
/// (or the connection dies).
pub fn join(addr: &str) -> Result<(), VineError> {
    run_tcp_worker(
        addr,
        default_worker_resources(),
        vine_apps::modules::full_registry(),
    )
}

// ------------------------------------------------- live Table 2 analogue

const TRIVIAL_SOURCE: &str = "def trivial(a, b) { return a + b }\n";

fn trivial_spec() -> LibrarySpec {
    let mut spec = LibrarySpec::new("trivial");
    spec.functions = vec!["trivial".into()];
    spec.resources = Some(Resources::new(1, 512, 512));
    spec.slots = Some(2);
    spec.exec_mode = ExecMode::Direct;
    spec
}

fn run_trivial(mut rt: Runtime, n: u64) -> f64 {
    rt.install_library(trivial_spec(), TRIVIAL_SOURCE, vec![], &[])
        .unwrap();
    for i in 0..n {
        let mut c = FunctionCall::new(
            InvocationId(i),
            "trivial",
            "trivial",
            pickle::serialize_args(&[Value::Int(i as i64), Value::Int(1)]).unwrap(),
        );
        c.resources = Resources::new(1, 256, 256);
        rt.submit(WorkUnit::Call(c));
    }
    let started = Instant::now();
    let outcomes = rt.run_until_idle().unwrap();
    let total = started.elapsed().as_secs_f64();
    assert_eq!(outcomes.len() as u64, n);
    assert!(outcomes.iter().all(|o| o.success));
    rt.shutdown();
    total
}

/// The live Table 2 analogue: per-invocation overhead of a trivial
/// function through the *real* runtime, per transport. `tcp` adds the
/// framed-loopback row alongside in-process, so the serialization +
/// socket cost is read directly off the table.
pub fn table2_live(scale: f64, tcp: bool) -> Table {
    let n = ((1_000f64 * scale).round() as u64).max(50);
    let mut t = Table::new(
        "table2_live",
        "Live Per-Invocation Overhead by Transport (Table 2 analogue)",
        &["total_s", "overhead_per_invocation_s"],
    );

    let total = run_trivial(
        Runtime::new(RuntimeConfig {
            workers: 1,
            worker_resources: default_worker_resources(),
            ..Default::default()
        }),
        n,
    );
    t.row("Invocation (inproc)", vec![total, total / n as f64]);

    if tcp {
        let transport = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
        let addr = transport.local_addr();
        let worker = std::thread::spawn(move || {
            run_tcp_worker(
                addr,
                default_worker_resources(),
                vine_lang::ModuleRegistry::new(),
            )
            .unwrap();
        });
        let rt = Runtime::with_transport(
            RuntimeConfig {
                workers: 1,
                worker_resources: default_worker_resources(),
                ..Default::default()
            },
            Box::new(transport),
        )
        .expect("tcp worker joins");
        let total = run_trivial(rt, n);
        worker.join().unwrap();
        t.row("Invocation (tcp loopback)", vec![total, total / n as f64]);
    }

    t.note(format!("n = {n} trivial invocations, 1 worker, wall-clock"));
    t.note("timing rows vary run to run; absent from the committed reference output");
    t
}
