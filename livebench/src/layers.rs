//! Per-layer metrics of a traced window: each unit's hops stitched from
//! the main thread's, the timing transport's and the traced workers' stamps,
//! plus the counters each layer exposes.

use crate::drive::{Phase, Tracing};
use crate::probe::{lock, Kind};
use crate::stats::{percentile, Metric};
use std::collections::HashMap;
use std::time::Instant;
use vine_core::task::UnitId;
use vine_runtime::TransportStats;

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

fn stamps(lists: &[&std::sync::Mutex<Vec<(UnitId, Instant)>>]) -> HashMap<UnitId, Instant> {
    lists
        .iter()
        .flat_map(|l| {
            l.lock()
                .expect("worker log poisoned by a panicking thread")
                .clone()
        })
        .collect()
}

/// Counters the runtime exposes, summed over the timed windows.
#[derive(Default)]
pub struct Counters {
    /// Wire bytes and frames, both directions, across the fleet.
    pub bytes: u64,
    pub frames: u64,
    /// Worst outbound queue of any worker.
    pub queue_hwm: u64,
    /// Compiled-image store lookups, summed over `clusters` runtimes.
    pub image_hits: u64,
    pub image_misses: u64,
    pub clusters: u64,
}

impl Counters {
    /// Add one cluster's traffic between two snapshots.
    pub fn add_traffic(&mut self, before: &TransportStats, after: &TransportStats) {
        let total = |s: &TransportStats| {
            s.workers.iter().fold((0, 0), |(b, f), w| {
                (b + w.bytes_in + w.bytes_out, f + w.frames_in + w.frames_out)
            })
        };
        let ((b0, f0), (b1, f1)) = (total(before), total(after));
        self.bytes += b1.saturating_sub(b0);
        self.frames += f1.saturating_sub(f0);
        let hwm = after.workers.iter().map(|w| w.queue_hwm_bytes).max();
        self.queue_hwm = self.queue_hwm.max(hwm.unwrap_or(0));
    }
}

/// Every per-layer metric the traced window yields directly (the replays
/// add the rest). Also returns the p50 sum of the hops a unit crosses,
/// and the worker roundtrip p50.
pub fn collect(phase: &Phase, tracing: &Tracing, counters: &Counters) -> (Vec<Metric>, f64, f64) {
    let log = lock(&tracing.log);
    let arrived = stamps(
        &tracing
            .workers
            .iter()
            .map(|w| &w.arrived)
            .collect::<Vec<_>>(),
    );
    let finished = stamps(
        &tracing
            .workers
            .iter()
            .map(|w| &w.finished)
            .collect::<Vec<_>>(),
    );

    let (mut wait, mut wire_out, mut call_rt, mut task_rt, mut wire_back, mut tail) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut calls, mut waited) = (0usize, 0usize);
    let mut units = 0usize;
    for d in phase.in_window() {
        units += 1;
        let u = d.outcome.unit;
        let (Some(&(s0, s1)), Some(&w_in), Some(&w_out), Some(&recv)) = (
            log.sends.get(&u),
            arrived.get(&u),
            finished.get(&u),
            log.recvs.get(&u),
        ) else {
            continue;
        };
        wait.push(us(d.submitted, s0));
        wire_out.push(us(s1, w_in));
        match u {
            UnitId::Call(_) => call_rt.push(us(w_in, w_out)),
            UnitId::Task(_) => task_rt.push(us(w_in, w_out)),
        }
        wire_back.push(us(w_out, recv));
        tail.push(us(recv, d.finished));
        if let Some(&installed) = log.call_installed_at.get(&u) {
            calls += 1;
            if installed > d.submitted {
                waited += 1;
            }
        }
    }
    let n = units.max(1) as f64;
    let send = |k: Kind| log.send_us.get(&k).map_or(&[][..], Vec::as_slice);
    let p50 = |v: &[f64]| percentile(v, 0.5);
    let dispatched = if call_rt.is_empty() {
        &task_rt
    } else {
        &call_rt
    };
    let send_kind = if call_rt.is_empty() {
        Kind::RunTask
    } else {
        Kind::Invoke
    };
    let hop_sum = [
        p50(&wait),
        p50(send(send_kind)),
        p50(&wire_out),
        p50(dispatched),
        p50(&wire_back),
        p50(&tail),
    ]
    .iter()
    .map(|p| p.value)
    .sum();
    let transport_s = log.transport_time.as_secs_f64();
    let run_next_s = phase.run_next_time.as_secs_f64();
    let installs = log.installs as f64;
    let roundtrip_p50 = p50(&call_rt);
    let clusters = counters.clusters.max(1) as f64;

    let metrics = vec![
        Metric::pct("runtime.dispatch_wait_us.p50", p50(&wait), "us"),
        Metric::new(
            "runtime.self_us_per_unit",
            (run_next_s - transport_s).max(0.0) * 1e6 / n,
            "us",
        )
        .note(format!("run_next minus transport calls, over n={units}")),
        Metric::pct(
            "runtime.submit_lag_us.p99",
            percentile(&phase.submit_lag_us, 0.99),
            "us",
        ),
        Metric::pct("runtime.result_tail_us.p50", p50(&tail), "us"),
        Metric::new(
            "manager.installs_per_kunit",
            installs * 1000.0 / n,
            "count/kunit",
        ),
        Metric::new(
            "manager.evictions_per_kunit",
            log.evictions as f64 * 1000.0 / n,
            "count/kunit",
        ),
        Metric::new(
            "manager.invocations_per_install",
            if log.installs == 0 { 0.0 } else { n / installs },
            "units/install",
        )
        .note(format!(
            "{units} units / {} installs; 0 = no installs",
            log.installs
        )),
        Metric::new(
            "manager.waited_for_install_frac",
            if calls == 0 {
                0.0
            } else {
                waited as f64 / calls as f64
            },
            "ratio",
        )
        .note(format!(
            "{waited} of n={calls} calls ran on an instance installed after their submit"
        )),
        Metric::pct("reactor.send_us.invoke.p50", p50(send(Kind::Invoke)), "us"),
        Metric::pct(
            "reactor.send_us.run_task.p50",
            p50(send(Kind::RunTask)),
            "us",
        ),
        Metric::pct(
            "reactor.send_us.install_library.p50",
            p50(send(Kind::InstallLibrary)),
            "us",
        ),
        Metric::pct("reactor.wire_out_us.p50", p50(&wire_out), "us"),
        Metric::pct("reactor.wire_back_us.p50", p50(&wire_back), "us"),
        Metric::new(
            "reactor.recv_wait_frac",
            if run_next_s > 0.0 {
                log.recv_wait.as_secs_f64() / run_next_s
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "reactor.bytes_per_unit",
            counters.bytes as f64 / n,
            "bytes/unit",
        ),
        Metric::new(
            "reactor.frames_per_unit",
            counters.frames as f64 / n,
            "frames/unit",
        ),
        Metric::new(
            "reactor.queue_hwm_bytes",
            counters.queue_hwm as f64,
            "bytes",
        ),
        Metric::pct("worker_host.roundtrip_us.p50", roundtrip_p50, "us"),
        Metric::pct(
            "worker_host.roundtrip_us.p99",
            percentile(&call_rt, 0.99),
            "us",
        ),
        Metric::pct("worker_host.task_us.p50", p50(&task_rt), "us"),
        Metric::new(
            "images.hits",
            counters.image_hits as f64 / clusters,
            "count/cluster",
        )
        .note(format!("over {clusters} runtimes")),
        Metric::new(
            "images.misses",
            counters.image_misses as f64 / clusters,
            "count/cluster",
        )
        .note(format!("over {clusters} runtimes")),
    ];
    (metrics, hop_sum, roundtrip_p50.value)
}
