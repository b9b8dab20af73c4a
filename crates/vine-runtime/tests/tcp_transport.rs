//! Differential and fault-injection tests for the TCP transport: the same
//! workload over in-process channels and over framed loopback sockets must
//! produce identical results, and a worker whose connection dies mid-run
//! must have its in-flight work requeued onto survivors.

use std::net::TcpStream;
use std::time::Duration;
use vine_core::context::CodeArtifact;
use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::TaskId;
use vine_core::ids::{InvocationId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, TaskSpec, UnitId, WorkUnit};
use vine_lang::pickle;
use vine_lang::{ModuleRegistry, Value};
use vine_proto::{read_frame, write_frame, ManagerToWorker, WorkerToManager};
use vine_runtime::{decode_result, run_tcp_worker, Runtime, RuntimeConfig, TcpTransport};

const LIB_SOURCE: &str = r#"
def context_setup(base) {
    global model
    model = base * 1000
}
def f(x) {
    return model + x
}
"#;

fn lib_spec() -> LibrarySpec {
    let mut spec = LibrarySpec::new("testlib");
    spec.functions = vec!["f".into()];
    spec.resources = Some(Resources::new(4, 4096, 4096));
    spec.slots = Some(4);
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

fn call(i: u64, x: i64) -> WorkUnit {
    let mut c = FunctionCall::new(
        InvocationId(i),
        "testlib",
        "f",
        pickle::serialize_args(&[Value::Int(x)]).unwrap(),
    );
    c.resources = Resources::new(1, 512, 512);
    WorkUnit::Call(c)
}

/// Canonical view of a run for differential comparison: sorted
/// (unit, success, decoded value) triples.
fn digest(outcomes: &[Outcome]) -> Vec<(UnitId, bool, Option<Value>)> {
    let mut d: Vec<_> = outcomes
        .iter()
        .map(|o| (o.unit, o.success, decode_result(o).ok()))
        .collect();
    d.sort_by_key(|(u, _, _)| *u);
    d
}

fn run_workload(mut rt: Runtime, n: u64) -> Vec<Outcome> {
    rt.install_library(lib_spec(), LIB_SOURCE, vec![], &[Value::Int(7)])
        .unwrap();
    for i in 0..n {
        rt.submit(call(i, i as i64));
    }
    let outcomes = rt.run_until_idle().unwrap();
    // the retained-context accounting must add up on any transport
    let served: u64 = rt.library_share_values().iter().map(|(_, s)| s).sum();
    assert_eq!(served, n);
    rt.shutdown();
    outcomes
}

/// Boot a TCP runtime with `workers` in-process worker *threads* dialing
/// the loopback listener — same wire protocol as separate processes.
fn tcp_runtime(workers: usize) -> (Runtime, Vec<std::thread::JoinHandle<()>>) {
    let transport = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = transport.local_addr();
    let handles = (0..workers)
        .map(|_| {
            std::thread::spawn(move || {
                run_tcp_worker(
                    addr,
                    Resources::new(8, 16 * 1024, 16 * 1024),
                    ModuleRegistry::new(),
                )
                .unwrap();
            })
        })
        .collect();
    let cfg = RuntimeConfig {
        workers,
        idle_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
    (rt, handles)
}

#[test]
fn tcp_and_inproc_runs_are_identical() {
    let inproc = run_workload(
        Runtime::new(RuntimeConfig {
            workers: 2,
            ..Default::default()
        }),
        20,
    );

    let (rt, handles) = tcp_runtime(2);
    let tcp = run_workload(rt, 20);
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(digest(&inproc), digest(&tcp));
    // and both match ground truth: context_setup(7) ⇒ f(x) = 7000 + x
    for (unit, success, value) in digest(&tcp) {
        assert!(success);
        let UnitId::Call(id) = unit else { panic!() };
        assert_eq!(value, Some(Value::Int(7000 + id.0 as i64)));
    }
}

#[test]
fn killing_a_tcp_worker_mid_run_requeues_onto_survivor() {
    let (mut rt, handles) = tcp_runtime(2);
    rt.install_library(lib_spec(), LIB_SOURCE, vec![], &[Value::Int(3)])
        .unwrap();
    for i in 0..8 {
        rt.submit(call(i, 0));
    }
    // manager-side kill: the socket is severed under the worker
    rt.kill_worker(WorkerId(0));
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 8, "all units complete on the survivor");
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        assert_eq!(decode_result(o).unwrap(), Value::Int(3000));
    }
    rt.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn tcp_worker_crash_is_observed_and_in_flight_work_requeued() {
    // one real worker and one impostor that joins, installs the library,
    // then drops dead the moment work arrives — a worker crash as the
    // manager actually sees it: the connection closes with units in flight
    let transport = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = transport.local_addr();

    let real = std::thread::spawn(move || {
        run_tcp_worker(
            addr,
            Resources::new(8, 16 * 1024, 16 * 1024),
            ModuleRegistry::new(),
        )
        .unwrap();
    });
    let impostor = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        write_frame(
            &mut writer,
            &WorkerToManager::Join {
                resources: Resources::new(8, 16 * 1024, 16 * 1024),
            },
        )
        .unwrap();
        loop {
            match read_frame::<ManagerToWorker>(&mut reader) {
                Ok(ManagerToWorker::Welcome { .. }) => {}
                Ok(ManagerToWorker::InstallLibrary { image, .. }) => {
                    // play along so the manager starts dispatching here
                    write_frame(
                        &mut writer,
                        &WorkerToManager::LibraryReady {
                            instance: image.instance,
                        },
                    )
                    .unwrap();
                }
                Ok(ManagerToWorker::Invoke { .. }) => {
                    // crash with the invocation in flight
                    return;
                }
                Ok(ManagerToWorker::Shutdown) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });

    let mut rt = Runtime::with_transport(
        RuntimeConfig {
            workers: 2,
            idle_timeout: Duration::from_secs(30),
            ..Default::default()
        },
        Box::new(transport),
    )
    .unwrap();
    rt.install_library(lib_spec(), LIB_SOURCE, vec![], &[Value::Int(5)])
        .unwrap();
    for i in 0..8 {
        rt.submit(call(i, 0));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 8, "every unit completes despite the crash");
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        assert_eq!(decode_result(o).unwrap(), Value::Int(5000));
    }
    rt.shutdown();
    impostor.join().unwrap();
    real.join().unwrap();
}

#[test]
fn concurrent_daemon_and_task_replies_reach_the_manager_whole() {
    // one worker: its four library slots and its task threads all write
    // replies to the same socket at once
    const EACH: u64 = 1000;
    let transport = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = transport.local_addr();
    // 16 cores: the library's 4 and up to 12 concurrent tasks
    let worker = std::thread::spawn(move || {
        run_tcp_worker(
            addr,
            Resources::new(16, 32 * 1024, 32 * 1024),
            ModuleRegistry::new(),
        )
        .unwrap();
    });
    let cfg = RuntimeConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
    rt.install_library(lib_spec(), LIB_SOURCE, vec![], &[Value::Int(7)])
        .unwrap();
    for i in 0..EACH {
        rt.submit(call(i, i as i64));
        let mut task = TaskSpec::new(TaskId(i), "t");
        task.code = vec![CodeArtifact::Source {
            name: "g".into(),
            text: "def g(x) { return x * 3 + 1 }".into(),
        }];
        task.function = Some("g".into());
        task.args_blob = pickle::serialize_args(&[Value::Int(i as i64)]).unwrap();
        rt.submit(WorkUnit::Task(task));
    }
    let mut outcomes = Vec::new();
    let mut most_outstanding = 0;
    while let Some(o) = rt.run_next().unwrap() {
        most_outstanding = most_outstanding.max(rt.running());
        outcomes.push(o);
    }
    assert!(
        most_outstanding >= 8,
        "at most {most_outstanding} units outstanding"
    );

    // exactly one correct outcome per unit
    let d = digest(&outcomes);
    assert_eq!(d.len() as u64, 2 * EACH);
    for (k, (unit, success, value)) in d.into_iter().enumerate() {
        let i = k as u64 % EACH;
        let (want_unit, want) = if (k as u64) < EACH {
            (UnitId::Task(TaskId(i)), 3 * i as i64 + 1)
        } else {
            (UnitId::Call(InvocationId(i)), 7000 + i as i64)
        };
        assert_eq!(
            (unit, success, value),
            (want_unit, true, Some(Value::Int(want)))
        );
    }
    rt.shutdown();
    worker.join().unwrap();
}

#[test]
fn tasks_that_repeat_their_sources_each_get_one_correct_outcome() {
    // task threads compile each source once; every task must still run
    // on fresh globals, and a source that fails to parse must fail every
    // task that ships it
    const TASKS: u64 = 1000;
    const SOURCES: [&str; 3] = [
        "calls = []\ndef f(x) {\n    push(calls, x)\n    return 3 * x + len(calls)\n}",
        "def f(x) { return x * x }",
        "def f(x) { return x",
    ];
    let transport = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = transport.local_addr();
    let worker = std::thread::spawn(move || {
        run_tcp_worker(
            addr,
            Resources::new(8, 16 * 1024, 16 * 1024),
            ModuleRegistry::new(),
        )
        .unwrap();
    });
    let cfg = RuntimeConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
    for i in 0..TASKS {
        let mut task = TaskSpec::new(TaskId(i), "t");
        task.code = vec![CodeArtifact::Source {
            name: "f".into(),
            text: SOURCES[i as usize % 3].into(),
        }];
        task.function = Some("f".into());
        task.args_blob = pickle::serialize_args(&[Value::Int(i as i64)]).unwrap();
        rt.submit(WorkUnit::Task(task));
    }
    let mut outcomes = rt.run_until_idle().unwrap();
    outcomes.sort_by_key(|o| o.unit);
    assert_eq!(outcomes.len() as u64, TASKS);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.unit, UnitId::Task(TaskId(i as u64)));
        let x = i as i64;
        match i % 3 {
            2 => {
                let error = o.error.as_deref().unwrap_or_default();
                assert!(error.starts_with("reconstructing f: "), "{error}");
            }
            k => {
                let want = if k == 0 { 3 * x + 1 } else { x * x };
                assert_eq!(
                    decode_result(o).ok(),
                    Some(Value::Int(want)),
                    "{:?}",
                    o.error
                );
            }
        }
    }
    rt.shutdown();
    worker.join().unwrap();
}
