//! Replays of what a traced run captured, through each layer's public
//! functions: the frame codec, the library daemon, and the language.

use crate::probe::{Kind, ProbeLog};
use crate::stats::{percentile, Metric};
use std::time::Instant;
use vine_core::ids::{InvocationId, WorkerId};
use vine_core::task::{ExecMode, TaskSpec};
use vine_lang::{pickle, Engine, Interp, ModuleRegistry};
use vine_proto::{
    decode_frame, encode_frame, Frame, LibraryImage, LibraryToWorker, ManagerToWorker,
    WorkerToLibrary, WorkerToManager,
};
use vine_runtime::library_host::spawn_library;

/// Replays per small message, and per library image (installs are heavy).
const SMALL_REPS: usize = 200;
const IMAGE_REPS: usize = 24;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Encode and decode timings and frame sizes for one message kind.
/// `encode(i)` times its own encode of message `i % count` and returns the
/// frame; `decode` checks a frame decodes.
fn codec_metrics(
    kind: &str,
    count: usize,
    reps: usize,
    mut encode: impl FnMut(usize) -> (f64, Vec<u8>),
    mut decode: impl FnMut(&[u8]) -> bool,
) -> Vec<Metric> {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    if count > 0 {
        for i in 0..reps {
            let (us, frame) = encode(i % count);
            enc.push(us);
            let t = Instant::now();
            assert!(decode(&frame), "a captured {kind} frame failed to decode");
            dec.push(us_since(t));
            if i < count {
                bytes.push(frame.len() as f64);
            }
        }
    }
    vec![
        Metric::pct(
            format!("proto.encode_us.{kind}"),
            percentile(&enc, 0.5),
            "us",
        ),
        Metric::pct(
            format!("proto.decode_us.{kind}"),
            percentile(&dec, 0.5),
            "us",
        ),
        Metric::new(
            format!("proto.frame_bytes.{kind}"),
            crate::stats::mean(&bytes),
            "bytes",
        )
        .note(format!("mean of n={}", bytes.len())),
    ]
}

fn captured(log: &ProbeLog, kind: Kind) -> &[ManagerToWorker] {
    log.captured_out.get(&kind).map_or(&[], Vec::as_slice)
}

fn images(log: &ProbeLog) -> Vec<&LibraryImage> {
    captured(log, Kind::InstallLibrary)
        .iter()
        .filter_map(|m| match m {
            ManagerToWorker::InstallLibrary { image, .. } => Some(image),
            _ => None,
        })
        .collect()
}

/// `(function, args_blob)` of every captured invocation.
fn calls(log: &ProbeLog) -> Vec<(&str, &[u8])> {
    captured(log, Kind::Invoke)
        .iter()
        .filter_map(|m| match m {
            ManagerToWorker::Invoke { call, .. } => {
                Some((call.function.as_str(), call.args_blob.as_slice()))
            }
            _ => None,
        })
        .collect()
}

fn tasks(log: &ProbeLog) -> Vec<&TaskSpec> {
    captured(log, Kind::RunTask)
        .iter()
        .filter_map(|m| match m {
            ManagerToWorker::RunTask { task, .. } => Some(task),
            _ => None,
        })
        .collect()
}

/// `proto.*`: replay `encode_frame`/`decode_frame` (and, for installs,
/// `Frame::encode_once` as the runtime uses it) on captured messages.
pub fn proto(log: &ProbeLog) -> Vec<Metric> {
    let mut out = Vec::new();
    for (kind, name) in [(Kind::Invoke, "invoke"), (Kind::RunTask, "run_task")] {
        let msgs = captured(log, kind);
        out.extend(codec_metrics(
            name,
            msgs.len(),
            SMALL_REPS,
            |i| {
                let t = Instant::now();
                let f = encode_frame(&msgs[i]).expect("captured message encodes");
                (us_since(t), f)
            },
            |f| decode_frame::<ManagerToWorker>(f).is_ok(),
        ));
    }
    let dones = &log.captured_done;
    out.extend(codec_metrics(
        "unit_done",
        dones.len(),
        SMALL_REPS,
        |i| {
            let t = Instant::now();
            let f = encode_frame(&dones[i]).expect("captured message encodes");
            (us_since(t), f)
        },
        |f| decode_frame::<WorkerToManager>(f).is_ok(),
    ));
    let installs = captured(log, Kind::InstallLibrary);
    out.extend(codec_metrics(
        "install_library",
        installs.len(),
        IMAGE_REPS,
        |i| {
            let msg = installs[i].clone();
            let t = Instant::now();
            let frame = Frame::encode_once(msg).expect("captured install encodes");
            let us = us_since(t);
            (us, frame.bytes().to_vec())
        },
        |f| decode_frame::<ManagerToWorker>(f).is_ok(),
    ));
    // wire bytes per byte of the image's raw byte fields
    let ratios: Vec<f64> = images(log)
        .iter()
        .zip(installs)
        .map(|(image, msg)| {
            let raw = image.compiled.as_ref().map_or(0, |c| c.bytes.len())
                + image.setup.as_ref().map_or(0, |s| s.args_blob.len())
                + image
                    .serialized_functions
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>();
            let frame = encode_frame(msg).expect("captured install encodes").len();
            frame as f64 / raw.max(1) as f64
        })
        .collect();
    out.push(
        Metric::new(
            "proto.inflation.install_library",
            crate::stats::mean(&ratios),
            "ratio",
        )
        .note(format!("frame/raw byte fields, mean of n={}", ratios.len())),
    );
    out
}

/// Boot a daemon from `image` and wait for it to report.
fn boot(
    image: &LibraryImage,
    registry: &ModuleRegistry,
) -> (
    vine_runtime::library_host::LibraryHost,
    crossbeam::channel::Receiver<(WorkerId, vine_core::ids::LibraryInstanceId, LibraryToWorker)>,
    f64,
) {
    let (tx, rx) = crossbeam::channel::unbounded();
    let t = Instant::now();
    let host = spawn_library(WorkerId(0), image.clone(), registry.clone(), tx);
    match rx.recv() {
        Ok((_, _, LibraryToWorker::Ready)) => {}
        other => panic!("captured library image failed to boot: {other:?}"),
    }
    let us = us_since(t);
    (host, rx, us)
}

fn stop(mut host: vine_runtime::library_host::LibraryHost) {
    let _ = host.tx.send(WorkerToLibrary::Shutdown);
    if let Some(t) = host.thread.take() {
        t.join().expect("library daemon thread panicked");
    }
}

/// `library_host.*`: replay `spawn_library` on captured images, then
/// captured invocations against one booted daemon. Returns the metrics and
/// the exec p50 (µs) the worker relay time is derived from.
pub fn library_host(log: &ProbeLog, registry: &ModuleRegistry) -> (Vec<Metric>, f64) {
    let images = images(log);
    let calls = calls(log);
    let (mut boots, mut execs) = (Vec::new(), Vec::new());
    if !images.is_empty() {
        for i in 0..IMAGE_REPS {
            let (host, _, us) = boot(images[i % images.len()], registry);
            boots.push(us);
            stop(host);
        }
    }
    if let (Some(image), false) = (images.first(), calls.is_empty()) {
        let (host, rx, _) = boot(image, registry);
        for i in 0..SMALL_REPS {
            let (function, args) = calls[i % calls.len()];
            let t = Instant::now();
            host.tx
                .send(WorkerToLibrary::Invoke {
                    id: InvocationId(i as u64),
                    function: function.into(),
                    args_blob: args.to_vec(),
                    sandbox: format!("sandbox/{i}"),
                    mode: ExecMode::Direct,
                })
                .expect("library daemon is serving");
            match rx.recv() {
                Ok((_, _, LibraryToWorker::ResultReady { result: Ok(_), .. })) => {}
                other => panic!("captured invocation failed on replay: {other:?}"),
            }
            execs.push(us_since(t));
        }
        stop(host);
    }
    let exec_p50 = percentile(&execs, 0.5);
    let metrics = vec![
        Metric::pct("library_host.boot_us.p50", percentile(&boots, 0.5), "us"),
        Metric::pct("library_host.exec_us.p50", exec_p50, "us"),
        Metric::pct("library_host.exec_us.p99", percentile(&execs, 0.99), "us"),
    ];
    (metrics, exec_p50.value)
}

/// `lang.*`: a warm VM `call_global` and the per-call pickling on captured
/// invocations; `execute_task` and `parse` on captured tasks.
pub fn lang(log: &ProbeLog, registry: &ModuleRegistry) -> Vec<Metric> {
    let images = images(log);
    let calls = calls(log);
    let (mut call_us, mut pickle_us) = (Vec::new(), Vec::new());
    if let (Some(image), false) = (images.first(), calls.is_empty()) {
        let mut interp = Interp::with_registry(registry.clone());
        interp.engine = Engine::Vm;
        let prog = vine_lang::parse(&image.source).expect("captured library source parses");
        interp
            .exec_compiled(&vine_lang::compile_module(&prog, &image.source))
            .expect("captured library source runs");
        if let Some(setup) = &image.setup {
            let args = pickle::deserialize_args(&setup.args_blob, &interp.globals)
                .expect("captured setup arguments decode");
            interp
                .call_global(&setup.function, &args)
                .expect("captured context setup runs");
        }
        for i in 0..SMALL_REPS {
            let (function, blob) = calls[i % calls.len()];
            let t0 = Instant::now();
            let args =
                pickle::deserialize_args(blob, &interp.globals).expect("captured arguments decode");
            let t1 = Instant::now();
            let value = interp
                .call_global(function, &args)
                .expect("captured call runs");
            let t2 = Instant::now();
            let result = pickle::serialize_value(&value).expect("result serializes");
            std::hint::black_box(result);
            call_us.push((t2 - t1).as_secs_f64() * 1e6);
            pickle_us.push(((t1 - t0) + t2.elapsed()).as_secs_f64() * 1e6);
        }
    }
    let tasks = tasks(log);
    let (mut task_us, mut parse_us) = (Vec::new(), Vec::new());
    if !tasks.is_empty() {
        for i in 0..SMALL_REPS {
            let task = tasks[i % tasks.len()];
            let t = Instant::now();
            let outcome = vine_runtime::worker_host::execute_task(task, registry.clone());
            task_us.push(us_since(t));
            assert!(outcome.success, "captured task failed: {:?}", outcome.error);
            let t = Instant::now();
            for artifact in &task.code {
                if let vine_core::context::CodeArtifact::Source { text, .. } = artifact {
                    std::hint::black_box(vine_lang::parse(text).expect("task source parses"));
                }
            }
            parse_us.push(us_since(t));
        }
    }
    vec![
        Metric::pct("lang.call_us.p50", percentile(&call_us, 0.5), "us"),
        Metric::pct("lang.pickle_us.p50", percentile(&pickle_us, 0.5), "us"),
        Metric::pct("lang.task_exec_us.p50", percentile(&task_us, 0.5), "us"),
        Metric::pct("lang.parse_us.p50", percentile(&parse_us, 0.5), "us"),
    ]
}
