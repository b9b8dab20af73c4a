//! The calibrated cost model.
//!
//! Every constant here is cross-referenced to a number in the paper
//! (Tables 2–5, §4.2). The discrete-event simulator composes these
//! *component-level* costs; the paper's *end-to-end* numbers (e.g. Figure
//! 6a's 7,485 s → 414 s) are emergent, not hard-coded. The calibration
//! reasoning:
//!
//! * **Manager throughput is the binding constraint for short invocations.**
//!   Fig 6a L1 = 7,485 s for 100k tasks → 74.9 ms of manager time per task;
//!   L2 = ~3,362 s → 33.6 ms; L3 = 414 s ≈ 100k × 2.52 ms (Table 2's
//!   per-invocation overhead) + worker/library startup + drain tail.
//!   Cross-check via Little's law: at L1, dispatch rate 13.4 tasks/s ×
//!   mean runtime 21.59 s (Table 4) ⇒ ~288 concurrent tasks, i.e. only 12%
//!   of the 2,400 available slots are ever busy — exactly why the paper
//!   finds extra workers don't help (Fig 9) and why the L3 library count
//!   plateaus near ~2,000 ≈ utilization × slots (Fig 10).
//! * **Per-task manager cost grows with the number of tasks in the system**
//!   (the manager's internal bookkeeping iterates per-task structures), so
//!   dispatch cost is `base + per_10k_pending × pending/10k`. This
//!   reconciles 74.9 ms/task at 100k-task scale with the much cheaper
//!   dispatch implied by Fig 8's 10k-task runs.
//! * **Worker-side per-invocation time** comes from Table 5's breakdown:
//!   ~0.33 s argument/input deserialization (L2), ~15.4 s to unpack the
//!   3.1 GB environment (≈ 200 MB/s), ~2.7 s of library context setup, and
//!   3.08 s of execution for 16 inferences on the reference machine.
//! * **Contention** (shared-FS aggregate bandwidth and IOPS, local SSD
//!   bandwidth, per-machine GFLOPS from Table 3) produces Table 4's means
//!   and spreads.

use crate::time::SimDuration;

/// The paper's three levels of context reuse (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseLevel {
    /// No context reuse: invocations run as stateless tasks pulling
    /// everything from the shared filesystem each time.
    L1,
    /// Context reuse on disk: data and dependencies are cached on each
    /// worker's local disk after first use (data-to-invocation binding).
    L2,
    /// Context reuse on disk and memory: a library process additionally
    /// retains loaded state in memory between invocations
    /// (context-to-invocation binding).
    L3,
}

impl ReuseLevel {
    pub const ALL: [ReuseLevel; 3] = [ReuseLevel::L1, ReuseLevel::L2, ReuseLevel::L3];

    pub fn name(self) -> &'static str {
        match self {
            ReuseLevel::L1 => "L1",
            ReuseLevel::L2 => "L2",
            ReuseLevel::L3 => "L3",
        }
    }
}

impl std::fmt::Display for ReuseLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Component-level timing constants. See module docs for calibration.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    // ---- network ----
    /// Per-machine NIC bandwidth: 10 Gb/s Ethernet (§4.2).
    pub nic_bytes_per_sec: f64,
    /// Loopback bandwidth for manager/worker co-located runs (Table 5 setup:
    /// "both the manager and worker on the same machine"). Calibrated so the
    /// 572 MB environment + ~200 MB model transfer in ≈ 1.0 s (Table 5,
    /// L2-Cold "Invoc. & Data Transfer" = 1.004 s).
    pub loopback_bytes_per_sec: f64,
    /// One-way LAN message latency.
    pub net_latency: SimDuration,

    // ---- shared filesystem (Panasas ActiveStor 16, §4.2) ----
    /// Aggregate read bandwidth: "up to 84 Gb/s read bandwidth".
    pub sharedfs_bytes_per_sec: f64,
    /// Aggregate read IOPS: "94,000 read IOPS".
    pub sharedfs_iops: f64,
    /// Per-client shared-FS streaming rate for import-storm access
    /// patterns: many small scattered reads are latency-bound, not
    /// bandwidth-bound, so one client sustains far less than its NIC.
    /// 362 MB of shared reads at 36 MB/s ≈ 10 s of Table 4's 21.59 s L1
    /// mean; the aggregate saturates at ~291 such clients — right where
    /// the L1 run's ~285 concurrent tasks sit, which is what makes L1's
    /// tail explode (max 289.72 s).
    pub sharedfs_client_bytes_per_sec: f64,
    /// Per-client metadata-op rate (serial round trips ≈ 3 ms each).
    pub sharedfs_client_iops: f64,
    // ---- local disk (SATA 6 Gb/s SSD, §4.2) ----
    /// Effective aggregate read rate under the concurrent access pattern
    /// of 16 invocations streaming model parameters — SATA SSDs degrade
    /// well below their ~550 MB/s sequential rating when interleaved.
    pub disk_bytes_per_sec: f64,

    // ---- manager costs ----
    /// Manager-side cost to dispatch one stateless task whose inputs are not
    /// yet known to worker caches (L1): task description, file bookkeeping,
    /// result processing.
    pub mgr_task_dispatch_l1: SimDuration,
    /// Same, when inputs are already cached on the target worker (L2):
    /// smaller descriptions, no stage-in directives.
    pub mgr_task_dispatch_l2: SimDuration,
    /// Additional manager cost per uncached-task dispatch per 10,000 units
    /// pending in the manager's tables (bookkeeping scans grow with
    /// workload size): L1's 33 ms base reaches Fig 6a's effective
    /// 74.9 ms/task at the 100k run's ~50k average pending.
    pub mgr_dispatch_per_10k_pending: SimDuration,
    /// Same scan term for cached-input tasks (smaller per-task structures):
    /// L2's 15 ms base reaches the effective 33.6 ms/task at 100k scale.
    pub mgr_task_l2_per_10k_pending: SimDuration,
    /// Manager-side cost to dispatch one function invocation to an installed
    /// library and process its result: Table 2's 2.52 ms per-invocation
    /// overhead.
    pub mgr_call_dispatch: SimDuration,
    /// Scan term for invocation dispatch — invocations keep almost no
    /// per-unit manager state, so the coefficient is ~40× smaller than
    /// L1's; it is what separates Fig 6a's 414 s from a flat 2.52 ms × 100k
    /// = 252 s.
    pub mgr_call_per_10k_pending: SimDuration,
    /// Manager-side cost to process a library installation.
    pub mgr_library_install: SimDuration,

    // ---- worker costs ----
    /// Time for a fresh worker process to start and report ready: Table 2's
    /// ~20 s per-worker overhead (both task and invocation modes pay it).
    pub worker_startup: SimDuration,
    /// Unpack rate for packed environments: 3.1 GB unpacks in ≈ 15.4 s
    /// (Table 5, worker overhead of L2-Cold / L3-Library) ⇒ ≈ 200 MB/s.
    pub env_unpack_bytes_per_sec: f64,
    /// Per-task wrapper overhead at L1/L2: fork/exec of the generic Python
    /// runner plus interpreter boot. With Table 2's trivial function this
    /// plus manager dispatch gives the observed 0.19 s per-task overhead.
    /// Counted in the "Library/Invoc. Overhead" column: together with
    /// `invocation_deserialize` it reproduces Table 5's 0.327 s.
    pub task_wrapper_overhead: SimDuration,
    /// Creating a task sandbox and linking its input files (§3.4 step 3);
    /// Table 5's L2-Hot worker overhead (1.18e-3 s).
    pub sandbox_setup: SimDuration,
    /// Creating the lighter invocation sandbox at L3 (arguments only);
    /// with `invocation_handoff` this is Table 5's L3-Invoc worker
    /// overhead (2.75e-4 s).
    pub call_sandbox_setup: SimDuration,
    /// Worker-side handoff of an invocation to a library and result
    /// notification (§3.4 steps 3–4); the non-manager share of Table 2's
    /// 2.52 ms.
    pub invocation_handoff: SimDuration,
    /// `fork(2)` of the library for ExecMode::Fork.
    pub fork_overhead: SimDuration,

    // ---- invocation / library process costs ----
    /// Deserializing per-invocation objects from input files at L1/L2.
    /// `task_wrapper_overhead + invocation_deserialize` reproduces Table
    /// 5's 0.327 s "Library/Invoc. Overhead" (the wrapper's interpreter
    /// boot happens inside the invocation process).
    pub invocation_deserialize: SimDuration,
    /// Deserializing bare arguments at L3: Table 5's 5.14e-4 s.
    pub call_args_deserialize: SimDuration,
    /// Library interpreter boot before running context setup (part of
    /// Table 5's L3-Library 2.729 s overhead, the rest is the modeled
    /// context setup work itself).
    pub library_boot: SimDuration,

    // ---- machine model ----
    /// Reference per-core GFLOPS against which `WorkProfile` compute is
    /// expressed (group 2's EPYC 7543 rating from Table 3).
    pub reference_gflops: f64,
    /// Multiplicative slowdown when all of a worker's invocation slots are
    /// busy (cache/memory-bandwidth interference at full occupancy);
    /// interpolated linearly with occupancy.
    pub full_occupancy_slowdown: f64,
}

impl CostModel {
    /// Constants calibrated against the paper's cluster (§4.2, Tables 2–5).
    pub fn paper() -> Self {
        CostModel {
            nic_bytes_per_sec: 1.25e9,     // 10 Gb/s
            loopback_bytes_per_sec: 8.0e8, // see field docs
            net_latency: SimDuration::from_micros(200),

            sharedfs_bytes_per_sec: 10.5e9, // 84 Gb/s
            sharedfs_iops: 94_000.0,
            sharedfs_client_bytes_per_sec: 36.0e6,
            sharedfs_client_iops: 330.0,

            disk_bytes_per_sec: 3.5e8,

            mgr_task_dispatch_l1: SimDuration::from_micros(33_000),
            mgr_task_dispatch_l2: SimDuration::from_micros(15_000),
            mgr_dispatch_per_10k_pending: SimDuration::from_micros(8_400),
            mgr_task_l2_per_10k_pending: SimDuration::from_micros(3_700),
            mgr_call_dispatch: SimDuration::from_micros(2_300),
            mgr_call_per_10k_pending: SimDuration::from_micros(230),
            mgr_library_install: SimDuration::from_micros(5_000),

            worker_startup: SimDuration::from_secs_f64(19.9),
            env_unpack_bytes_per_sec: 2.0e8,
            task_wrapper_overhead: SimDuration::from_micros(147_000),
            sandbox_setup: SimDuration::from_micros(1_100),
            call_sandbox_setup: SimDuration::from_micros(60),
            invocation_handoff: SimDuration::from_micros(215),
            fork_overhead: SimDuration::from_micros(5_000),

            invocation_deserialize: SimDuration::from_micros(180_000),
            call_args_deserialize: SimDuration::from_micros(514),
            library_boot: SimDuration::from_secs_f64(0.45),

            reference_gflops: 5.4,
            full_occupancy_slowdown: 1.35,
        }
    }

    /// Manager dispatch cost for a stateless task, given whether its inputs
    /// are warm in worker caches and the number of units pending in the
    /// manager's tables.
    pub fn task_dispatch_cost(&self, inputs_cached: bool, pending: usize) -> SimDuration {
        let (base, per_10k) = if inputs_cached {
            (self.mgr_task_dispatch_l2, self.mgr_task_l2_per_10k_pending)
        } else {
            (self.mgr_task_dispatch_l1, self.mgr_dispatch_per_10k_pending)
        };
        base + SimDuration((per_10k.0 as u128 * pending as u128 / 10_000) as u64)
    }

    /// Manager dispatch cost for a function invocation.
    pub fn call_dispatch_cost(&self, pending: usize) -> SimDuration {
        self.mgr_call_dispatch
            + SimDuration(
                (self.mgr_call_per_10k_pending.0 as u128 * pending as u128 / 10_000) as u64,
            )
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_level_display() {
        assert_eq!(ReuseLevel::L1.to_string(), "L1");
        assert_eq!(ReuseLevel::ALL.len(), 3);
        assert!(ReuseLevel::L1 < ReuseLevel::L3);
    }

    #[test]
    fn env_unpack_matches_table5_worker_overhead() {
        // 3.1 GB at the calibrated unpack rate ≈ 15.4 s (Table 5: 15.435 s)
        let cm = CostModel::paper();
        let secs = 3.1e9 / cm.env_unpack_bytes_per_sec;
        assert!((secs - 15.4).abs() < 0.2, "unpack {secs}");
    }

    #[test]
    fn call_overhead_matches_table2() {
        // manager dispatch + worker handoff ≈ 2.52 ms (Table 2, Remote
        // Invocation per-invocation overhead)
        let cm = CostModel::paper();
        let total = cm.mgr_call_dispatch + cm.invocation_handoff;
        let ms = total.as_secs_f64() * 1e3;
        assert!((ms - 2.52).abs() < 0.1, "per-call overhead {ms} ms");
    }

    #[test]
    fn task_dispatch_scales_with_pending() {
        let cm = CostModel::paper();
        let cold_small = cm.task_dispatch_cost(false, 0);
        let cold_big = cm.task_dispatch_cost(false, 50_000);
        assert_eq!(cold_small, cm.mgr_task_dispatch_l1);
        // at 50k pending the scan term adds 5 × 8.4 ms = 42 ms
        assert_eq!(
            cold_big,
            cm.mgr_task_dispatch_l1 + SimDuration::from_micros(42_000)
        );
        // warm-cache dispatch is strictly cheaper
        assert!(cm.task_dispatch_cost(true, 10_000) < cm.task_dispatch_cost(false, 10_000));
    }

    #[test]
    fn fig6a_l1_order_of_magnitude() {
        // At steady state with ~50k average pending, L1 dispatch ≈ 75 ms,
        // so 100k tasks take ≈ 7,500 s of manager time — Fig 6a's 7,485 s.
        let cm = CostModel::paper();
        let per_task = cm.task_dispatch_cost(false, 50_000).as_secs_f64();
        let total = per_task * 100_000.0;
        assert!((7_000.0..8_000.0).contains(&total), "L1 total {total}");
    }

    #[test]
    fn fig6a_l3_order_of_magnitude() {
        // 100k × 2.52 ms ≈ 252 s of manager time; with ~20 s worker startup,
        // ~18 s library setup and the drain tail the end-to-end run lands
        // near the paper's 414 s (validated end-to-end in vine-sim tests).
        let cm = CostModel::paper();
        let mgr = (cm.mgr_call_dispatch + cm.invocation_handoff).as_secs_f64() * 100_000.0;
        assert!((230.0..280.0).contains(&mgr), "L3 manager time {mgr}");
    }
}
