//! The thread budgets of both TCP ends: the manager's transport and the
//! worker. Their own test binary, so that no other test's threads share
//! the process while they count `/proc/self/task`.

use std::net::TcpStream;
use std::time::{Duration, Instant};
use vine_core::context::CodeArtifact;
use vine_core::ids::{LibraryInstanceId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, TaskSpec};
use vine_lang::{ModuleRegistry, Value};
use vine_proto::{read_frame, write_frame, ManagerToWorker, WorkerToManager};
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

/// Wait until the main thread and this one are the process's only
/// threads. libtest starts both tests of this binary at once, and the
/// other one counts threads too; this one sorts first, so it starts first
/// and stays, asleep, until the other has finished.
fn wait_until_alone() {
    std::thread::sleep(Duration::from_millis(100));
    let deadline = Instant::now() + Duration::from_secs(60);
    while threads() > 2 {
        assert!(Instant::now() < deadline, "other threads never ended");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_listening_manager_runs_no_thread_of_its_own() {
    wait_until_alone();
    let before = threads();
    let mut t = TcpTransport::listen("127.0.0.1:0").unwrap();

    // a worker joins from this same thread: its Join waits in the kernel
    // until the transport's next call accepts and reads it
    let mut client = TcpStream::connect(t.local_addr()).unwrap();
    write_frame(
        &mut client,
        &WorkerToManager::Join {
            resources: Resources::new(4, 1024, 1024),
        },
    )
    .unwrap();
    let worker = next(&mut t, |e| match e {
        TransportEvent::Joined { worker, .. } => Some(worker),
        _ => None,
    });
    assert_eq!(
        read_frame::<ManagerToWorker>(&mut client).unwrap(),
        ManagerToWorker::Welcome { worker }
    );

    // listening, accepting, the handshake and the Welcome all ran here
    assert_eq!(threads(), before);
    t.shutdown();
    assert_eq!(
        read_frame::<ManagerToWorker>(&mut client).unwrap(),
        ManagerToWorker::Shutdown
    );
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

    // a closed loop of tasks, one at a time, as one client drives them
    let mut run_task = |id: u64| {
        let mut task = TaskSpec::new(TaskId(id), "t");
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
    };
    run_task(1);

    // the caller of run_tcp_worker, which runs no user code; the library
    // daemon; the pool thread that ran the task, and the one it started
    // so that a thread was left to read: nothing relays between them
    assert_eq!(threads() - before, 4);
    // a task that finishes frees its thread before it replies, so the
    // next task always finds one to read it and one to run it
    for id in 2..=201 {
        run_task(id);
    }
    assert_eq!(threads() - before, 4);

    t.shutdown();
    reader.join().unwrap();
}
