//! The TCP worker's thread budget. Its own test binary, so that no other
//! test's threads share the process while it counts `/proc/self/task`.

use std::time::{Duration, Instant};
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, TaskSpec};
use vine_lang::{ModuleRegistry, Value};
use vine_proto::{ManagerToWorker, WorkerToManager};
use vine_runtime::library_host::compile_image;
use vine_runtime::{run_tcp_worker, TcpTransport, Transport, TransportEvent};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The next event that `pick` accepts, failing after 30 s.
fn next<T>(t: &mut TcpTransport, mut pick: impl FnMut(TransportEvent) -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .expect("event within 30 s");
        if let Some(v) = pick(t.recv_timeout(left).expect("event within 30 s")) {
            return v;
        }
    }
}

#[test]
fn a_tcp_worker_runs_on_its_reader_a_daemon_and_a_task_thread() {
    let mut t = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = t.local_addr();
    let before = threads();

    let reader = std::thread::spawn(move || {
        run_tcp_worker(addr, Resources::new(4, 4096, 4096), ModuleRegistry::new()).unwrap();
    });
    let worker = next(&mut t, |e| match e {
        TransportEvent::Joined { worker, .. } => Some(worker),
        _ => None,
    });

    let image = compile_image(
        LibraryInstanceId(1),
        "def f(x) { return x + 1 }",
        None,
        ExecMode::Direct,
    )
    .unwrap();
    t.send(
        worker,
        ManagerToWorker::InstallLibrary {
            image,
            stage: vec![],
        },
    )
    .unwrap();
    next(&mut t, |e| match e {
        TransportEvent::Message {
            msg: WorkerToManager::LibraryReady { .. },
            ..
        } => Some(()),
        _ => None,
    });

    let mut task = TaskSpec::new(TaskId(1), "t");
    task.code = vec![CodeArtifact::Source {
        name: "g".into(),
        text: "def g(x) { return x * 2 }".into(),
    }];
    task.function = Some("g".into());
    task.args_blob = vine_lang::pickle::serialize_args(&[Value::Int(21)]).unwrap();
    t.send(
        worker,
        ManagerToWorker::RunTask {
            task,
            stage: vec![],
        },
    )
    .unwrap();
    let outcome = next(&mut t, |e| match e {
        TransportEvent::Message {
            msg: WorkerToManager::UnitDone { outcome },
            ..
        } => Some(outcome),
        _ => None,
    });
    assert!(outcome.success, "{:?}", outcome.error);

    // the reader (the thread that called run_tcp_worker), the library
    // daemon and one task thread: nothing relays between them
    assert_eq!(threads() - before, 3);

    t.shutdown();
    reader.join().unwrap();
}
