//! Execution telemetry.
//!
//! Both execution substrates (the discrete-event simulator and the live
//! threaded runtime) emit the same trace records, from which every
//! evaluation artifact of the paper is computed: Table 4's run-time
//! statistics, Figure 7's histograms, Figure 10's deployed-library series,
//! Figure 11's library share values, and Table 5's phase breakdown.

use crate::config::ReuseLevel;
use crate::ids::{InvocationId, LibraryInstanceId, WorkerId};
use crate::time::{SimDuration, SimTime};

/// Per-invocation phase breakdown, mirroring Table 5's columns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// "Invoc. & Data Transfer": moving the invocation description, its
    /// arguments and any not-yet-cached data to the worker.
    pub transfer: SimDuration,
    /// "Worker Overhead": worker-side setup — unpacking environments,
    /// creating sandboxes, linking files.
    pub worker_overhead: SimDuration,
    /// "Library/Invoc. Overhead": reconstructing state inside the executing
    /// process — deserializing objects or arguments.
    pub library_overhead: SimDuration,
    /// "Exec. Time": running the invocation-distinct computation.
    pub exec: SimDuration,
}

impl PhaseBreakdown {
    pub fn total(&self) -> SimDuration {
        self.transfer + self.worker_overhead + self.library_overhead + self.exec
    }
}

/// One completed invocation (or wrapped task at L1/L2).
#[derive(Clone, Debug, PartialEq)]
pub struct InvocationRecord {
    pub id: InvocationId,
    pub worker: WorkerId,
    /// The library instance that served it (L3 only).
    pub library: Option<LibraryInstanceId>,
    pub level: ReuseLevel,
    /// When the application submitted it.
    pub submitted: SimTime,
    /// When the manager dispatched it to a worker.
    pub dispatched: SimTime,
    /// When it finished and its result reached the manager.
    pub finished: SimTime,
    pub phases: PhaseBreakdown,
    pub success: bool,
}

impl InvocationRecord {
    /// The paper's "invocation run time" (Fig 7 / Table 4): time spent on
    /// the worker, from dispatch arrival to completion — transfer, setup,
    /// state reconstruction and execution, excluding manager queueing.
    pub fn runtime(&self) -> SimDuration {
        self.phases.total()
    }

    /// End-to-end latency including time queued at the manager.
    pub fn latency(&self) -> SimDuration {
        self.finished.since(self.submitted)
    }
}

/// One deployed library instance's lifecycle (Fig 10 / Fig 11).
#[derive(Clone, Debug, PartialEq)]
pub struct LibraryRecord {
    pub id: LibraryInstanceId,
    pub worker: WorkerId,
    pub library_name: String,
    pub deployed: SimTime,
    /// `None` if still deployed at the end of the run.
    pub removed: Option<SimTime>,
    /// Number of invocations this instance served — its "share value"
    /// (§4.6: "the number of invocations a library serves").
    pub served: u64,
    /// Cost breakdown of deploying this instance (Table 5's L3-Library
    /// row: transfer, unpack, boot + context setup).
    pub phases: PhaseBreakdown,
}

/// A complete run's telemetry.
///
/// `PartialEq` exists for differential testing: the simulator's dense-layout
/// driver is held bit-identical to the retained reference driver
/// (`vine_sim::reference`) by comparing whole traces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub invocations: Vec<InvocationRecord>,
    pub libraries: Vec<LibraryRecord>,
    /// Total application execution time.
    pub makespan: SimDuration,
}

/// Summary statistics in seconds (Table 4's columns).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stats {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    pub fn from_secs(values: impl IntoIterator<Item = f64>) -> Stats {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            count += 1;
            sum += v;
            sum_sq += v * v;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 {
            return Stats::default();
        }
        let mean = sum / count as f64;
        // population variance, clamped against tiny negative fp residue
        let var = (sum_sq / count as f64 - mean * mean).max(0.0);
        Stats {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// A fixed-width histogram (Fig 7). Values ≥ `hi` land in `overflow`
/// (the paper clips Fig 7 at 40 s "for better visualization").
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub bin_width: f64,
    pub counts: Vec<u64>,
    pub overflow: u64,
    pub underflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo && bins > 0, "degenerate histogram bounds");
        Histogram {
            lo,
            hi,
            bin_width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
        }
    }

    pub fn add(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((v - self.lo) / self.bin_width) as usize;
            let idx = idx.min(self.counts.len() - 1); // fp edge guard
            self.counts[idx] += 1;
        }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow + self.underflow
    }

    /// The center of the fullest bin — the histogram's mode, used to check
    /// Fig 7's cluster locations (L1 ≈ 12–20 s, L2 ≈ 10–16 s, L3 ≈ 3–7 s).
    pub fn mode_center(&self) -> f64 {
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap_or((0, &0));
        self.lo + (idx as f64 + 0.5) * self.bin_width
    }
}

/// A point series for Figs 10 & 11: x = invocations completed, y = metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    pub points: Vec<(u64, f64)>,
}

impl Trace {
    /// Table 4 statistics over invocation run times.
    pub fn runtime_stats(&self) -> Stats {
        Stats::from_secs(
            self.invocations
                .iter()
                .filter(|r| r.success)
                .map(|r| r.runtime().as_secs_f64()),
        )
    }

    /// Fig 7 histogram of invocation run times.
    pub fn runtime_histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for r in self.invocations.iter().filter(|r| r.success) {
            h.add(r.runtime().as_secs_f64());
        }
        h
    }

    /// Fig 10: number of libraries deployed (and not yet removed) as a
    /// function of invocations completed, sampled every `step` completions.
    pub fn active_libraries_series(&self, step: u64) -> Series {
        let finish_times = self.sorted_finish_times();
        let mut points = Vec::new();
        let mut n = step;
        while n <= finish_times.len() as u64 {
            let t = finish_times[(n - 1) as usize];
            let active = self
                .libraries
                .iter()
                .filter(|l| l.deployed <= t && l.removed.is_none_or(|r| r > t))
                .count();
            points.push((n, active as f64));
            n += step;
        }
        Series { points }
    }

    /// Fig 11: average share value (invocations served per deployed library)
    /// as a function of invocations completed.
    pub fn avg_share_series(&self, step: u64) -> Series {
        let finish_times = self.sorted_finish_times();
        let mut points = Vec::new();
        let mut n = step;
        while n <= finish_times.len() as u64 {
            let t = finish_times[(n - 1) as usize];
            let deployed = self
                .libraries
                .iter()
                .filter(|l| l.deployed <= t)
                .count()
                .max(1);
            // completions up to t, averaged over libraries ever deployed by t
            points.push((n, n as f64 / deployed as f64));
            n += step;
        }
        Series { points }
    }

    fn sorted_finish_times(&self) -> Vec<SimTime> {
        let mut v: Vec<SimTime> = self
            .invocations
            .iter()
            .filter(|r| r.success)
            .map(|r| r.finished)
            .collect();
        v.sort_unstable();
        v
    }

    /// Mean phase breakdown across successful invocations (Table 5 rows).
    pub fn mean_phases(&self) -> PhaseBreakdown {
        let n = self.invocations.iter().filter(|r| r.success).count().max(1) as u64;
        let mut acc = PhaseBreakdown::default();
        for r in self.invocations.iter().filter(|r| r.success) {
            acc.transfer += r.phases.transfer;
            acc.worker_overhead += r.phases.worker_overhead;
            acc.library_overhead += r.phases.library_overhead;
            acc.exec += r.phases.exec;
        }
        acc.transfer = acc.transfer / n;
        acc.worker_overhead = acc.worker_overhead / n;
        acc.library_overhead = acc.library_overhead / n;
        acc.exec = acc.exec / n;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, start_s: f64, phases: PhaseBreakdown) -> InvocationRecord {
        let dispatched = SimTime::from_secs_f64(start_s);
        InvocationRecord {
            id: InvocationId(id),
            worker: WorkerId(0),
            library: None,
            level: ReuseLevel::L3,
            submitted: SimTime::ZERO,
            dispatched,
            finished: dispatched + phases.total(),
            phases,
            success: true,
        }
    }

    fn phases(exec_s: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            exec: SimDuration::from_secs_f64(exec_s),
            ..Default::default()
        }
    }

    #[test]
    fn stats_basic() {
        let s = Stats::from_secs([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn stats_empty_is_zeroed() {
        let s = Stats::from_secs(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn histogram_binning_and_overflow() {
        let mut h = Histogram::new(0.0, 40.0, 40);
        h.add(0.5); // bin 0
        h.add(39.99); // bin 39
        h.add(40.0); // overflow
        h.add(-0.1); // underflow
        h.add(12.3); // bin 12
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[39], 1);
        assert_eq!(h.counts[12], 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_mode_center() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..5 {
            h.add(3.2);
        }
        h.add(7.0);
        assert!((h.mode_center() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn runtime_excludes_queueing() {
        let mut r = record(1, 100.0, phases(2.0));
        r.submitted = SimTime::ZERO; // queued 100 s before dispatch
        assert!((r.runtime().as_secs_f64() - 2.0).abs() < 1e-9);
        assert!((r.latency().as_secs_f64() - 102.0).abs() < 1e-9);
    }

    #[test]
    fn trace_stats_skip_failures() {
        let mut t = Trace::default();
        t.invocations.push(record(1, 0.0, phases(1.0)));
        let mut failed = record(2, 0.0, phases(100.0));
        failed.success = false;
        t.invocations.push(failed);
        let s = t.runtime_stats();
        assert_eq!(s.count, 1);
        assert!((s.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn library_series_counts_active_only() {
        let mut t = Trace::default();
        for i in 0..4u64 {
            t.invocations.push(record(i, i as f64, phases(0.5)));
        }
        t.libraries.push(LibraryRecord {
            id: LibraryInstanceId(1),
            worker: WorkerId(0),
            library_name: "lib".into(),
            deployed: SimTime::ZERO,
            removed: None,
            served: 4,
            phases: PhaseBreakdown::default(),
        });
        t.libraries.push(LibraryRecord {
            id: LibraryInstanceId(2),
            worker: WorkerId(1),
            library_name: "lib".into(),
            deployed: SimTime::ZERO,
            removed: Some(SimTime::from_secs_f64(1.0)), // gone after 1 s
            served: 0,
            phases: PhaseBreakdown::default(),
        });
        let series = t.active_libraries_series(1);
        assert_eq!(series.points.len(), 4);
        // first completion at 0.5 s: both active; later ones: only lib 1
        assert_eq!(series.points[0].1, 2.0);
        assert_eq!(series.points[3].1, 1.0);
    }

    #[test]
    fn share_series_grows_linearly_with_fixed_libraries() {
        let mut t = Trace::default();
        for i in 0..10u64 {
            t.invocations.push(record(i, i as f64, phases(0.5)));
        }
        t.libraries.push(LibraryRecord {
            id: LibraryInstanceId(1),
            worker: WorkerId(0),
            library_name: "lib".into(),
            deployed: SimTime::ZERO,
            removed: None,
            served: 10,
            phases: PhaseBreakdown::default(),
        });
        let series = t.avg_share_series(2);
        // with one library, avg share value == completions: 2, 4, 6, 8, 10
        let ys: Vec<f64> = series.points.iter().map(|p| p.1).collect();
        assert_eq!(ys, vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn mean_phases_averages() {
        let mut t = Trace::default();
        t.invocations.push(record(1, 0.0, phases(2.0)));
        t.invocations.push(record(2, 0.0, phases(4.0)));
        let m = t.mean_phases();
        assert!((m.exec.as_secs_f64() - 3.0).abs() < 1e-9);
    }
}
