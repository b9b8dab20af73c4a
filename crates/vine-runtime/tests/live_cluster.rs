//! End-to-end tests of the live threaded cluster.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{ContentHash, InvocationId, LibraryInstanceId, TaskId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, TaskSpec, UnitId, WorkUnit};
use vine_core::VineError;
use vine_lang::pickle;
use vine_lang::Value;
use vine_proto::{Frame, LibraryImage, ManagerToWorker, WorkerToManager};
use vine_runtime::{
    decode_result, InProcTransport, RecvError, Runtime, RuntimeConfig, Transport, TransportEvent,
};

const LIB_SOURCE: &str = r#"
def context_setup(base) {
    global model
    model = base * 1000
}
def f(x) {
    return model + x
}
def accumulate(x) {
    global model
    model = model + x
    return model
}
"#;

fn lnni_like_spec(slots: u32, mode: ExecMode) -> LibrarySpec {
    let mut spec = LibrarySpec::new("testlib");
    spec.functions = vec!["f".into(), "accumulate".into()];
    spec.resources = Some(Resources::new(4, 4096, 4096));
    spec.slots = Some(slots);
    spec.exec_mode = mode;
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: "context_setup".into(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    spec
}

fn call(i: u64, function: &str, x: i64) -> WorkUnit {
    call_into("testlib", i, function, x)
}

fn call_into(library: &str, i: u64, function: &str, x: i64) -> WorkUnit {
    let mut c = FunctionCall::new(
        InvocationId(i),
        library,
        function,
        pickle::serialize_args(&[Value::Int(x)]).unwrap(),
    );
    c.resources = Resources::new(1, 512, 512);
    WorkUnit::Call(c)
}

#[test]
fn invocations_reuse_context_across_workers() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    rt.install_library(
        lnni_like_spec(4, ExecMode::Direct),
        LIB_SOURCE,
        vec![],
        &[Value::Int(7)],
    )
    .unwrap();
    for i in 0..20 {
        rt.submit(call(i, "f", i as i64));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 20);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        let UnitId::Call(id) = o.unit else { panic!() };
        // context_setup(7) ⇒ model = 7000; f(x) = 7000 + x
        assert_eq!(decode_result(o).unwrap(), Value::Int(7000 + id.0 as i64));
    }
    // context was set up once per deployed library, not per invocation
    let shares = rt.library_share_values();
    let total: u64 = shares.iter().map(|(_, s)| s).sum();
    assert_eq!(total, 20);
    assert!(shares.len() <= 4, "at most a few instances: {shares:?}");
    rt.shutdown();
}

#[test]
fn direct_mode_shares_mutations_fork_mode_isolates() {
    // Direct: accumulate() mutates the retained context; sequential
    // invocations observe each other. The worker is sized so exactly ONE
    // library instance fits (otherwise the manager rightly deploys more
    // instances, each with its own context).
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        worker_resources: Resources::new(4, 4096, 4096),
        ..Default::default()
    });
    rt.install_library(
        lnni_like_spec(1, ExecMode::Direct),
        LIB_SOURCE,
        vec![],
        &[Value::Int(0)],
    )
    .unwrap();
    for i in 0..3 {
        rt.submit(call(i, "accumulate", 10));
    }
    let outcomes = rt.run_until_idle().unwrap();
    let mut results: Vec<i64> = outcomes
        .iter()
        .map(|o| decode_result(o).unwrap().as_int().unwrap())
        .collect();
    results.sort_unstable();
    assert_eq!(results, vec![10, 20, 30], "mutations accumulate in Direct");
    rt.shutdown();

    // Fork: every invocation sees the pristine context
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        worker_resources: Resources::new(4, 4096, 4096),
        ..Default::default()
    });
    rt.install_library(
        lnni_like_spec(1, ExecMode::Fork),
        LIB_SOURCE,
        vec![],
        &[Value::Int(0)],
    )
    .unwrap();
    for i in 0..3 {
        rt.submit(call(i, "accumulate", 10));
    }
    let outcomes = rt.run_until_idle().unwrap();
    for o in &outcomes {
        assert_eq!(
            decode_result(o).unwrap(),
            Value::Int(10),
            "forked invocations never see each other's writes"
        );
    }
    rt.shutdown();
}

#[test]
fn tasks_reload_context_every_time() {
    // the L1/L2 path: each task reconstructs code and re-runs setup
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    for i in 0..6 {
        let mut t = TaskSpec::new(TaskId(i), "wrapped");
        t.code = vec![vine_core::context::CodeArtifact::Source {
            name: "module".into(),
            // setup is re-executed inside every task — the reload the
            // paper's L3 level eliminates
            text: format!("{LIB_SOURCE}\ncontext_setup(1)"),
        }];
        t.function = Some("accumulate".into());
        t.args_blob = pickle::serialize_args(&[Value::Int(5)]).unwrap();
        t.resources = Resources::new(1, 512, 512);
        rt.submit(WorkUnit::Task(t));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 6);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        // every task starts from model = 1000: no sharing between tasks
        assert_eq!(decode_result(o).unwrap(), Value::Int(1005));
    }
    rt.shutdown();
}

#[test]
fn unknown_library_fails_cleanly() {
    let mut rt = Runtime::new(RuntimeConfig::default());
    rt.submit(call(1, "f", 0)); // "testlib" never installed
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].success);
    assert!(outcomes[0].error.as_ref().unwrap().contains("testlib"));
    rt.shutdown();
}

#[test]
fn failed_invocation_reports_error_and_cluster_continues() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    rt.install_library(
        lnni_like_spec(2, ExecMode::Direct),
        LIB_SOURCE,
        vec![],
        &[Value::Int(1)],
    )
    .unwrap();
    // f("oops") fails inside the function (string + int)
    let mut bad = FunctionCall::new(
        InvocationId(1),
        "testlib",
        "f",
        pickle::serialize_args(&[Value::str("oops")]).unwrap(),
    );
    bad.resources = Resources::new(1, 512, 512);
    rt.submit(WorkUnit::Call(bad));
    rt.submit(call(2, "f", 1));
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 2);
    let failed = outcomes.iter().find(|o| !o.success).unwrap();
    assert_eq!(failed.unit, UnitId::Call(InvocationId(1)));
    let ok = outcomes.iter().find(|o| o.success).unwrap();
    assert_eq!(decode_result(ok).unwrap(), Value::Int(1001));
    rt.shutdown();
}

#[test]
fn worker_death_reschedules_in_flight_work() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    rt.install_library(
        lnni_like_spec(2, ExecMode::Direct),
        LIB_SOURCE,
        vec![],
        &[Value::Int(3)],
    )
    .unwrap();
    for i in 0..8 {
        rt.submit(call(i, "f", 0));
    }
    // kill one worker immediately — anything dispatched there is requeued
    rt.kill_worker(WorkerId(0));
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 8, "all units complete on the survivor");
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        assert_eq!(decode_result(o).unwrap(), Value::Int(3000));
    }
    rt.shutdown();
}

#[test]
fn lnni_application_runs_live() {
    // the real LNNI functions + nn module, small scale
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    });
    let mut spec = LibrarySpec::new("lnni");
    spec.functions = vec!["infer".into()];
    spec.resources = Some(Resources::new(2, 2048, 2048));
    spec.slots = Some(2);
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: "context_setup".into(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    rt.install_library(
        spec,
        vine_apps::lnni::LNNI_SOURCE,
        vec![],
        &[Value::Int(3), Value::Int(32)], // 3 layers, dim 32
    )
    .unwrap();
    for i in 0..10u64 {
        let mut c = FunctionCall::new(
            InvocationId(i),
            "lnni",
            "infer",
            pickle::serialize_args(&[Value::Int(i as i64 * 16), Value::Int(16)]).unwrap(),
        );
        c.resources = Resources::new(1, 512, 512);
        rt.submit(WorkUnit::Call(c));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 10);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        let Value::List(classes) = decode_result(o).unwrap() else {
            panic!("expected class list")
        };
        assert_eq!(classes.borrow().len(), 16, "16 inferences per invocation");
    }
    rt.shutdown();
}

#[test]
fn library_whose_setup_always_fails_fails_its_calls() {
    // every install of this library fails its context setup; after a few
    // failures in a row its queued calls must fail with the daemon's error
    // instead of the library being reinstalled forever. The run is on its
    // own thread, left detached, so that a hang fails the test instead of
    // blocking the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut rt = Runtime::new(RuntimeConfig {
            workers: 1,
            idle_timeout: std::time::Duration::from_secs(2),
            ..Default::default()
        });
        let source = "def context_setup(base) {\n    global model\n    model = base / 0\n}\n\
                      def f(x) { return model + x }\n\
                      def accumulate(x) { return x }\n";
        rt.install_library(
            lnni_like_spec(2, ExecMode::Direct),
            source,
            vec![],
            &[Value::Int(1)],
        )
        .unwrap();
        for i in 0..5 {
            rt.submit(call(i, "f", 1));
        }
        let _ = tx.send(rt.run_until_idle().map_err(|e| e.to_string()));
    });
    let outcomes = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("watchdog: the run neither finished nor timed out")
        .unwrap();
    assert_eq!(outcomes.len(), 5);
    for o in &outcomes {
        assert!(!o.success);
        let error = o.error.as_deref().unwrap_or_default();
        assert!(
            error.contains("library testlib failed to start") && error.contains("division by zero"),
            "{error}"
        );
    }
}

/// In-process workers behind a transport that keeps every library image
/// the runtime sends.
struct Recording {
    inner: InProcTransport,
    images: Arc<Mutex<Vec<LibraryImage>>>,
}

impl Transport for Recording {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> vine_core::Result<()> {
        if let ManagerToWorker::InstallLibrary { image, .. } = &msg {
            self.images.lock().unwrap().push(image.clone());
        }
        self.inner.send(worker, msg)
    }

    fn send_frame(&mut self, _: WorkerId, _: &Frame) -> vine_core::Result<()> {
        panic!("the runtime sends each message through `send`")
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<TransportEvent, RecvError> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        self.inner.try_recv()
    }

    fn disconnect(&mut self, worker: WorkerId) {
        self.inner.disconnect(worker)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

#[test]
fn every_installed_library_ships_a_compiled_image() {
    let cfg = RuntimeConfig {
        workers: 1,
        ..Default::default()
    };
    let images = Arc::new(Mutex::new(Vec::new()));
    let transport = Recording {
        inner: InProcTransport::new(1, cfg.worker_resources, cfg.registry.clone()),
        images: Arc::clone(&images),
    };
    let mut rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
    let spec = |name: &str, function: &str| {
        let mut s = LibrarySpec::new(name);
        s.functions = vec![function.into()];
        s.resources = Some(Resources::new(2, 2048, 2048));
        s.slots = Some(1);
        s
    };

    // from source, from serialized functions alone, and auto-discovered
    rt.install_library(
        lnni_like_spec(1, ExecMode::Direct),
        LIB_SOURCE,
        vec![],
        &[Value::Int(1)],
    )
    .unwrap();
    let mut origin = vine_lang::Interp::new();
    origin.exec_source("def dyn(x) { return x + 1 }").unwrap();
    let Value::Func(f) = origin.get_global("dyn").unwrap() else {
        panic!("expected function value")
    };
    let blob = pickle::serialize_funcdef(&f.def);
    rt.install_library(spec("serialized", "dyn"), "", vec![blob], &[])
        .unwrap();
    rt.install_library_auto(
        spec("auto", "work"),
        "base = 2\ndef work(x) { return base * x }",
        &["work"],
    )
    .unwrap();

    rt.submit(call(1, "f", 5));
    rt.submit(call_into("serialized", 2, "dyn", 5));
    rt.submit(call_into("auto", 3, "work", 5));
    let mut results: Vec<_> = rt
        .run_until_idle()
        .unwrap()
        .iter()
        .map(|o| (o.unit, decode_result(o).unwrap()))
        .collect();
    results.sort_by_key(|(unit, _)| *unit);
    let values: Vec<Value> = results.into_iter().map(|(_, v)| v).collect();
    assert_eq!(values, [Value::Int(1005), Value::Int(6), Value::Int(10)]);

    let images = images.lock().unwrap();
    assert_eq!(images.len(), 3);
    for image in images.iter() {
        let compiled = image.compiled.as_ref().expect("a compiled module");
        assert_eq!(compiled.source_digest, ContentHash::of_str(&image.source));
        assert!(vine_lang::bytecode::from_bytes(&compiled.bytes).is_ok());
    }
    rt.shutdown();
}

/// What [`Tamper`] does when the runtime sends its chosen call.
#[derive(Clone, Copy)]
enum Tampering {
    /// Sever whichever worker the call is sent to.
    DropWorker,
    /// The worker hands the call back unrun the first time it gets it.
    HandBackOnce,
    /// Another worker reports a forged result for the call.
    ForgeResult,
    /// The worker the call is first sent to sends `Join` again.
    RepeatJoin,
    /// The worker the call is first sent to reports an instance it is not
    /// starting ready.
    StrayReady,
    /// The worker the call is first sent to reports an instance it is not
    /// starting failed.
    StrayFailed,
}

/// In-process workers behind a transport that tampers with the traffic of
/// one chosen call.
struct Tamper {
    inner: InProcTransport,
    call: InvocationId,
    mode: Tampering,
    /// Times the chosen call was sent.
    sent: Arc<Mutex<u32>>,
    injected: VecDeque<TransportEvent>,
}

impl Tamper {
    fn cluster(workers: usize, call: u64, mode: Tampering) -> (Runtime, Arc<Mutex<u32>>) {
        let cfg = RuntimeConfig {
            workers,
            ..Default::default()
        };
        let sent = Arc::new(Mutex::new(0));
        let transport = Tamper {
            inner: InProcTransport::new(workers, cfg.worker_resources, cfg.registry.clone()),
            call: InvocationId(call),
            mode,
            sent: Arc::clone(&sent),
            injected: VecDeque::new(),
        };
        let mut rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
        rt.install_library(
            lnni_like_spec(2, ExecMode::Direct),
            LIB_SOURCE,
            vec![],
            &[Value::Int(3)],
        )
        .unwrap();
        (rt, sent)
    }
}

impl Transport for Tamper {
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> vine_core::Result<()> {
        if !matches!(&msg, ManagerToWorker::Invoke { call, .. } if call.id == self.call) {
            return self.inner.send(worker, msg);
        }
        let sent = {
            let mut sent = self.sent.lock().unwrap();
            *sent += 1;
            *sent
        };
        let unit = UnitId::Call(self.call);
        match self.mode {
            Tampering::DropWorker => {
                self.inner.disconnect(worker);
                return Err(VineError::WorkerLost(worker));
            }
            Tampering::HandBackOnce if sent == 1 => {
                let msg = WorkerToManager::Requeue { unit };
                self.injected
                    .push_back(TransportEvent::Message { worker, msg });
                return Ok(());
            }
            Tampering::HandBackOnce => {}
            Tampering::RepeatJoin | Tampering::StrayReady | Tampering::StrayFailed if sent == 1 => {
                let stray = LibraryInstanceId(u64::MAX);
                let frame = match self.mode {
                    Tampering::RepeatJoin => WorkerToManager::Join {
                        resources: Resources::new(8, 1024, 1024),
                    },
                    Tampering::StrayReady => WorkerToManager::LibraryReady { instance: stray },
                    _ => WorkerToManager::LibraryFailed {
                        instance: stray,
                        error: "forged".into(),
                    },
                };
                self.injected
                    .push_back(TransportEvent::Message { worker, msg: frame });
            }
            Tampering::RepeatJoin | Tampering::StrayReady | Tampering::StrayFailed => {}
            Tampering::ForgeResult => {
                let forged = pickle::serialize_value(&Value::Int(-1)).unwrap();
                let msg = WorkerToManager::UnitDone {
                    outcome: Outcome::ok(unit, forged),
                };
                self.injected.push_back(TransportEvent::Message {
                    worker: WorkerId(1 - worker.0),
                    msg,
                });
            }
        }
        self.inner.send(worker, msg)
    }

    fn send_frame(&mut self, _: WorkerId, _: &Frame) -> vine_core::Result<()> {
        panic!("the runtime sends each message through `send`")
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<TransportEvent, RecvError> {
        match self.injected.pop_front() {
            Some(ev) => Ok(ev),
            None => self.inner.recv_timeout(timeout),
        }
    }

    fn try_recv(&mut self) -> Option<TransportEvent> {
        self.injected.pop_front().or_else(|| self.inner.try_recv())
    }

    fn disconnect(&mut self, worker: WorkerId) {
        self.inner.disconnect(worker)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

#[test]
fn a_call_that_loses_its_worker_three_times_fails() {
    let (mut rt, sent) = Tamper::cluster(4, 5, Tampering::DropWorker);
    for i in 0..12 {
        rt.submit(call(i, "f", i as i64));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 12);
    assert_eq!(
        *sent.lock().unwrap(),
        3,
        "each send cost the call its worker"
    );
    for o in &outcomes {
        if o.unit == UnitId::Call(InvocationId(5)) {
            assert!(!o.success);
            let error = o.error.as_deref().unwrap_or_default();
            assert!(error.contains("losing its worker 3 times"), "{error}");
        } else {
            let UnitId::Call(InvocationId(i)) = o.unit else {
                panic!("{:?}", o.unit)
            };
            assert!(o.success, "{:?}", o.error);
            assert_eq!(decode_result(o).unwrap(), Value::Int(3000 + i as i64));
        }
    }
    assert_eq!(rt.worker_capacities().len(), 1, "one survivor");
    rt.shutdown();
}

#[test]
fn a_handed_back_call_runs_again_and_is_served_once() {
    let (mut rt, sent) = Tamper::cluster(2, 3, Tampering::HandBackOnce);
    for i in 0..8 {
        rt.submit(call(i, "f", i as i64));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 8);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
    }
    assert_eq!(*sent.lock().unwrap(), 2, "handed back, then sent again");
    assert_eq!(rt.requeues(), 1);
    let served: u64 = rt.library_share_values().iter().map(|(_, s)| s).sum();
    assert_eq!(served, 8, "share values count calls served, not hand-backs");
    rt.shutdown();
}

#[test]
fn a_result_from_a_worker_the_call_is_not_placed_on_is_dropped() {
    let (mut rt, sent) = Tamper::cluster(2, 1, Tampering::ForgeResult);
    for i in 0..4 {
        rt.submit(call(i, "f", i as i64));
    }
    let mut outcomes = rt.run_until_idle().unwrap();
    outcomes.sort_by_key(|o| o.unit);
    let values: Vec<Value> = outcomes.iter().map(|o| decode_result(o).unwrap()).collect();
    assert_eq!(
        values,
        [3000, 3001, 3002, 3003].map(Value::Int),
        "the forged result was returned"
    );
    assert_eq!(*sent.lock().unwrap(), 1);
    rt.shutdown();
}

#[test]
fn a_worker_frame_the_manager_refuses_costs_that_worker_not_the_run() {
    for mode in [
        Tampering::RepeatJoin,
        Tampering::StrayReady,
        Tampering::StrayFailed,
    ] {
        let (mut rt, sent) = Tamper::cluster(2, 2, mode);
        for i in 0..8 {
            rt.submit(call(i, "f", i as i64));
        }
        let mut outcomes = rt.run_until_idle().unwrap();
        outcomes.sort_by_key(|o| o.unit);
        let values: Vec<Value> = outcomes.iter().map(|o| decode_result(o).unwrap()).collect();
        let expected: Vec<Value> = (0..8).map(|i| Value::Int(3000 + i)).collect();
        assert_eq!(values, expected, "every call's value, exactly once");
        assert_eq!(
            *sent.lock().unwrap(),
            2,
            "sent, then sent again to the survivor"
        );
        assert_eq!(rt.worker_capacities().len(), 1, "the sender was closed");
        rt.shutdown();
    }
}
