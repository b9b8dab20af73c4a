//! Reactor-transport behavior the threaded backend never had: handshake
//! deadlines that reap half-open connections, per-worker backpressure that
//! isolates a slow worker from the fleet, serialize-once broadcasts, a
//! join burst held in the accept queue, and per-connection traffic
//! metering — all on the thread that owns the transport.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_proto::{read_frame, write_frame, Frame, ManagerToWorker, WorkerToManager};
use vine_runtime::{TcpConfig, TcpTransport, Transport, TransportEvent};

/// Dial the manager and complete the Join handshake; returns the write
/// half, a buffered read half, and the assigned worker id.
fn join(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>, WorkerId) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_frame(
        &mut writer,
        &WorkerToManager::Join {
            resources: Resources::new(4, 1024, 1024),
        },
    )
    .unwrap();
    let ManagerToWorker::Welcome { worker } = read_frame::<ManagerToWorker>(&mut reader).unwrap()
    else {
        panic!("expected Welcome");
    };
    (writer, reader, worker)
}

/// Drain transport events until one matches, failing after `timeout`.
fn wait_for(
    t: &mut TcpTransport,
    timeout: Duration,
    mut pred: impl FnMut(&TransportEvent) -> bool,
) -> TransportEvent {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .expect("event within deadline");
        let ev = t.recv_timeout(left).expect("event within deadline");
        if pred(&ev) {
            return ev;
        }
    }
}

/// Keep the transport turning — it accepts, reads, reaps and flushes only
/// inside its own calls — until `client`, blocked on its own socket,
/// finishes. No event may surface meanwhile.
fn drive_until<T>(t: &mut TcpTransport, client: JoinHandle<T>) -> T {
    while !client.is_finished() {
        if let Ok(ev) = t.recv_timeout(Duration::from_millis(10)) {
            panic!("unexpected event while a client waits: {ev:?}");
        }
    }
    client.join().unwrap()
}

#[test]
fn unjoined_connections_are_reaped_and_counted() {
    let mut t = TcpTransport::listen_with(
        "127.0.0.1:0",
        TcpConfig {
            handshake_timeout: Duration::from_millis(100),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let addr = t.local_addr();

    // a connection that never says anything: reaped at the deadline
    let mut mute = TcpStream::connect(addr).unwrap();
    // a connection whose first message is not Join: rejected on arrival
    let mut rude = TcpStream::connect(addr).unwrap();
    let ready = WorkerToManager::LibraryReady {
        instance: LibraryInstanceId(0),
    };
    write_frame(&mut rude, &ready).unwrap();

    // both sockets must observe a close (read returns 0), well before a
    // reader thread would have blocked forever in the old backend; they
    // read on a helper thread while this one drives the transport
    let closes = std::thread::spawn(move || {
        for (name, sock) in [("mute", &mut mute), ("rude", &mut rude)] {
            sock.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut buf = [0u8; 16];
            assert_eq!(sock.read(&mut buf).unwrap(), 0, "{name} socket closed");
        }
    });
    drive_until(&mut t, closes);

    // neither ever became a worker, and both closures were counted
    assert!(t.try_recv().is_none(), "no Joined/Left events for rejects");
    assert_eq!(t.stats().handshake_rejects, 2);

    // the deadline machinery must not break real admissions (the client
    // waits for its Welcome on a helper thread)
    let client = std::thread::spawn(move || join(addr));
    let ev = wait_for(&mut t, Duration::from_secs(10), |e| {
        matches!(e, TransportEvent::Joined { .. })
    });
    let (_w, _r, worker) = client.join().unwrap();
    let TransportEvent::Joined { worker: joined, .. } = ev else {
        unreachable!()
    };
    assert_eq!(joined, worker);
    t.shutdown();
}

#[test]
fn json_era_workers_fail_the_handshake() {
    let mut t = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = t.local_addr();

    // the Join payload a worker sent when frame payloads were JSON text,
    // and the one it sent in VFR1 frames (one value tree that names every
    // field), both for `Resources::new(4, 1024, 1024)`
    let json = br#"{"Join":{"resources":{"cores":4,"memory_mb":1024,"disk_mb":1024,"gpus":0}}}"#;
    let vfr1 = b"VFR1\x0a\x01\x07\x04Join\x0a\x01\x07\x09resources\x0a\x04\
        \x07\x05cores\x04\x04\x07\x09memory_mb\x04\x80\x08\x07\x07disk_mb\x04\x80\x08\
        \x07\x04gpus\x04\x00";
    for payload in [&json[..], &vfr1[..]] {
        let mut old = TcpStream::connect(addr).unwrap();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload);
        old.write_all(&frame).unwrap();

        // closed on arrival, and never admitted
        let closed = std::thread::spawn(move || {
            old.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = [0u8; 16];
            assert_eq!(old.read(&mut buf).unwrap(), 0, "old worker's socket closed");
        });
        drive_until(&mut t, closed);
        assert!(t.try_recv().is_none(), "no Joined event for an old worker");
    }
    // each counted
    assert_eq!(t.stats().handshake_rejects, 2);
    t.shutdown();
}

#[test]
fn slow_worker_backpressure_does_not_stall_the_fleet() {
    let mut t = TcpTransport::listen_with(
        "127.0.0.1:0",
        TcpConfig {
            max_queued_bytes: 64 * 1024,
            send_timeout: Duration::from_millis(300),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let addr = t.local_addr();

    // the slow worker joins and then never reads again; the healthy
    // worker echoes everything it is sent (both wait for their Welcome on
    // helper threads)
    let slow_client = std::thread::spawn(move || join(addr));
    let fast_client = std::thread::spawn(move || join(addr));
    for _ in 0..2 {
        wait_for(&mut t, Duration::from_secs(10), |e| {
            matches!(e, TransportEvent::Joined { .. })
        });
    }
    let (_slow_w, slow_r, slow) = slow_client.join().unwrap();
    let (mut fast_w, mut fast_r, fast) = fast_client.join().unwrap();

    // a frame big enough that a handful exhausts socket buffer + queue
    let big = ManagerToWorker::InstallLibrary {
        image: vine_proto::LibraryImage {
            instance: LibraryInstanceId(1),
            source: "x".repeat(256 * 1024),
            serialized_functions: vec![],
            setup: None,
            default_mode: vine_core::task::ExecMode::Direct,
            compiled: None,
        },
        stage: vec![],
    };

    // hammer the slow worker until its bounded queue declares it lost;
    // the kernel socket buffer absorbs the first few frames, the reactor
    // queue the next one, and then the sender must hit the send deadline
    let mut lost = false;
    for _ in 0..64 {
        if t.send(slow, big.clone()).is_err() {
            lost = true;
            break;
        }
    }
    assert!(lost, "a worker that never drains must be declared lost");

    // the slow worker's demise surfaces like any other crash
    wait_for(
        &mut t,
        Duration::from_secs(10),
        |e| matches!(e, TransportEvent::Left { worker } if *worker == slow),
    );

    // and the fleet never stalled: the sender paid at most one send
    // deadline for the loss, and the healthy worker is still fully usable
    let ping = ManagerToWorker::RemoveLibrary {
        instance: LibraryInstanceId(7),
    };
    t.send(fast, ping.clone()).unwrap();
    assert_eq!(read_frame::<ManagerToWorker>(&mut fast_r).unwrap(), ping);
    write_frame(
        &mut fast_w,
        &WorkerToManager::LibraryReady {
            instance: LibraryInstanceId(7),
        },
    )
    .unwrap();
    wait_for(&mut t, Duration::from_secs(10), |e| {
        matches!(
            e,
            TransportEvent::Message {
                msg: WorkerToManager::LibraryReady { .. },
                ..
            }
        )
    });

    let stats = t.stats();
    let s = stats.workers.iter().find(|w| w.worker == slow).unwrap();
    assert!(!s.alive, "slow worker marked dead in stats");
    assert!(
        s.queue_hwm_bytes as usize >= 256 * 1024,
        "its queue visibly backed up (hwm {})",
        s.queue_hwm_bytes
    );
    drop(slow_r);
    t.shutdown();
}

#[test]
fn a_64_connection_fleet_roundtrips_through_one_reactor() {
    const FLEET: usize = 64;
    let mut t = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = t.local_addr();

    // every client: join, echo each RemoveLibrary as LibraryReady, exit
    // on Shutdown
    let clients: Vec<_> = (0..FLEET)
        .map(|_| {
            std::thread::spawn(move || {
                let (mut w, mut r, _) = join(addr);
                loop {
                    match read_frame::<ManagerToWorker>(&mut r) {
                        Ok(ManagerToWorker::RemoveLibrary { instance }) => {
                            write_frame(&mut w, &WorkerToManager::LibraryReady { instance })
                                .unwrap();
                        }
                        Ok(ManagerToWorker::Shutdown) | Err(_) => return,
                        Ok(other) => panic!("unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();

    let mut workers = Vec::new();
    while workers.len() < FLEET {
        if let TransportEvent::Joined { worker, .. } =
            wait_for(&mut t, Duration::from_secs(30), |e| {
                matches!(e, TransportEvent::Joined { .. })
            })
        {
            workers.push(worker);
        }
    }

    // per-worker sends, then a broadcast encoded exactly once
    for &w in &workers {
        t.send(
            w,
            ManagerToWorker::RemoveLibrary {
                instance: LibraryInstanceId(w.0 as u64),
            },
        )
        .unwrap();
    }
    let broadcast = Frame::encode_once(ManagerToWorker::RemoveLibrary {
        instance: LibraryInstanceId(9999),
    })
    .unwrap();
    for &w in &workers {
        t.send_frame(w, &broadcast).unwrap();
    }

    // every client answers both frames
    let mut echoes = 0;
    while echoes < FLEET * 2 {
        if let TransportEvent::Message {
            msg: WorkerToManager::LibraryReady { .. },
            ..
        } = wait_for(&mut t, Duration::from_secs(30), |e| {
            matches!(e, TransportEvent::Message { .. })
        }) {
            echoes += 1;
        }
    }

    t.shutdown();
    for c in clients {
        c.join().unwrap();
    }

    // metering: Welcome + per-worker send + broadcast + Shutdown out,
    // the two echoes in (Join is handshake, not a metered message)
    let stats = t.stats();
    assert_eq!(stats.workers.len(), FLEET);
    assert_eq!(stats.handshake_rejects, 0);
    for w in &stats.workers {
        assert_eq!(w.frames_in, 2, "worker {} echoes", w.worker);
        assert_eq!(w.frames_out, 4, "worker {} deliveries", w.worker);
        assert!(w.bytes_in > 0 && w.bytes_out > 0);
    }
}

#[test]
fn a_stalled_reader_gets_every_frame_once_in_order() {
    let mut t = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = t.local_addr();
    let client = std::thread::spawn(move || join(addr));
    wait_for(&mut t, Duration::from_secs(10), |e| {
        matches!(e, TransportEvent::Joined { .. })
    });
    let (_w, mut r, worker) = client.join().unwrap();

    // the client reads nothing while small frames and frames larger than
    // a loopback socket's buffers are sent: some go straight to the
    // socket, some are cut short, and the rest queue behind them
    let big = |instance: u64| ManagerToWorker::InstallLibrary {
        image: vine_proto::LibraryImage {
            instance: LibraryInstanceId(instance),
            source: String::new(),
            serialized_functions: vec![],
            setup: None,
            default_mode: vine_core::task::ExecMode::Direct,
            compiled: Some(vine_proto::CompiledBlob {
                source_digest: vine_core::ids::ContentHash::of_str(""),
                bytes: vec![instance as u8; 8 << 20],
            }),
        },
        stage: vec![],
    };
    let sent: Vec<ManagerToWorker> = (0..40u64)
        .map(|i| match i % 13 {
            5 => big(i),
            _ => ManagerToWorker::RemoveLibrary {
                instance: LibraryInstanceId(i),
            },
        })
        .collect();
    for msg in &sent {
        t.send(worker, msg.clone()).unwrap();
    }

    // then it resumes: every frame arrives once, whole and in send order,
    // read on a helper thread while this one drives the transport
    let resumed = std::thread::spawn(move || {
        for (i, msg) in sent.iter().enumerate() {
            assert_eq!(
                &read_frame::<ManagerToWorker>(&mut r).unwrap(),
                msg,
                "frame {i}"
            );
        }
        (r, sent)
    });
    let (mut r, sent) = drive_until(&mut t, resumed);
    t.shutdown();
    assert_eq!(
        read_frame::<ManagerToWorker>(&mut r).unwrap(),
        ManagerToWorker::Shutdown
    );

    // the meter counts each frame once: Welcome, the sent frames, Shutdown
    let framed = |msg: &ManagerToWorker| vine_proto::encode_frame(msg).unwrap().len() as u64;
    let expected_bytes = framed(&ManagerToWorker::Welcome { worker })
        + sent.iter().map(framed).sum::<u64>()
        + framed(&ManagerToWorker::Shutdown);
    let stats = t.stats();
    let s = &stats.workers[0];
    assert_eq!(s.frames_out, sent.len() as u64 + 2);
    assert_eq!(s.bytes_out, expected_bytes);
    assert!(
        s.queue_hwm_bytes >= 8 << 20,
        "a big frame queued (hwm {})",
        s.queue_hwm_bytes
    );
}

#[test]
fn a_join_burst_waits_in_the_accept_queue_until_the_transport_turns() {
    // as many dialers as the kernel lets any listen backlog hold, at most
    // 300: more than std's backlog of 128
    let burst = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(128)
        .min(300);
    let mut t = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = t.local_addr();

    // every dialer connects and sends Join before the transport is first
    // polled, so nothing accepts meanwhile; a dialer the accept queue
    // cannot hold waits ~1 s for its SYN to be retransmitted
    let started = Instant::now();
    let dialers: Vec<TcpStream> = (0..burst)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut s,
                &WorkerToManager::Join {
                    resources: Resources::new(4, 1024, 1024),
                },
            )
            .unwrap();
            s
        })
        .collect();
    let dialed = started.elapsed();
    assert!(
        dialed < Duration::from_secs(1),
        "{burst} dialers took {dialed:?} to connect"
    );

    // the first poll admits them all
    for _ in 0..burst {
        wait_for(&mut t, Duration::from_secs(10), |e| {
            matches!(e, TransportEvent::Joined { .. })
        });
    }
    let stats = t.stats();
    assert_eq!(stats.workers.len(), burst);
    assert_eq!(stats.handshake_rejects, 0);
    t.shutdown();
    drop(dialers);
}
