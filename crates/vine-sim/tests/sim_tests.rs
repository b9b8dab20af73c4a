//! End-to-end simulator tests on a small synthetic workload.

use vine_core::config::ReuseLevel;
use vine_core::context::{ContextSpec, FileRef, LibrarySpec};
use vine_core::ids::{ContentHash, FileId, InvocationId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, TaskSpec, UnitId, WorkProfile, WorkUnit};
use vine_sim::{simulate, simulate_reference, SimConfig, Workload};

/// A synthetic function-centric workload runnable at any reuse level.
struct Synthetic {
    level: ReuseLevel,
    count: u64,
    exec_gflop: f64,
    /// Follow-up units to submit per completion (tests dynamic workloads).
    chain: u64,
    chained: u64,
    next_id: u64,
    /// The L3 library's default execution mode; calls set none.
    lib_mode: ExecMode,
}

impl Synthetic {
    fn new(level: ReuseLevel, count: u64) -> Synthetic {
        Synthetic {
            level,
            count,
            exec_gflop: 30.0, // ~ 2.8 s on a 5.4 GFLOPS core pair
            chain: 0,
            chained: 0,
            next_id: 0,
            lib_mode: ExecMode::Direct,
        }
    }

    fn env_file() -> FileRef {
        FileRef::new(
            FileId(1),
            "env.tar.zst",
            ContentHash::of_str("synthetic-env"),
            572_000_000,
        )
        .packed(3_100_000_000)
    }

    fn params_file(level: ReuseLevel) -> FileRef {
        let f = FileRef::new(
            FileId(2),
            "model-params.bin",
            ContentHash::of_str("synthetic-params"),
            230_000_000,
        );
        if level == ReuseLevel::L1 {
            f.from_shared_fs().uncached()
        } else {
            f
        }
    }

    fn profile(&self) -> WorkProfile {
        WorkProfile {
            exec_gflop: self.exec_gflop,
            context_gflop: 22.0, // model build ≈ 2 s on the reference pair
            context_read_bytes: 230_000_000,
            output_bytes: 1_000,
            sharedfs_ops: 1_500.0,
            sharedfs_read_bytes: 110_000_000,
            l1_exec_slowdown: 1.0,
        }
    }

    fn make_unit(&self, i: u64) -> WorkUnit {
        match self.level {
            ReuseLevel::L3 => {
                let mut call = FunctionCall::new(InvocationId(i), "synlib", "work", vec![0u8; 64]);
                call.resources = Resources::lnni_invocation();
                call.profile = WorkProfile {
                    // the context part is paid by the library, not the call
                    context_gflop: 0.0,
                    context_read_bytes: 0,
                    ..self.profile()
                };
                WorkUnit::Call(call)
            }
            level => {
                let mut task = TaskSpec::new(TaskId(i), "wrapped-work");
                task.resources = Resources::lnni_invocation();
                task.profile = self.profile();
                task.inputs = vec![Self::params_file(level)];
                if level == ReuseLevel::L2 {
                    task.inputs.push(Self::env_file());
                }
                WorkUnit::Task(task)
            }
        }
    }
}

impl Workload for Synthetic {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        if self.level != ReuseLevel::L3 {
            return Vec::new();
        }
        let mut spec = LibrarySpec::new("synlib");
        spec.functions = vec!["work".into()];
        spec.exec_mode = self.lib_mode;
        spec.context = ContextSpec {
            environment: Some(Self::env_file()),
            data: vec![Self::params_file(ReuseLevel::L3)],
            ..Default::default()
        };
        let setup = WorkProfile {
            exec_gflop: 0.0,
            context_gflop: 22.0,
            context_read_bytes: 230_000_000,
            ..WorkProfile::zero()
        };
        vec![(spec, setup)]
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        self.next_id = self.count;
        (0..self.count).map(|i| self.make_unit(i)).collect()
    }

    fn on_complete(&mut self, _unit: UnitId, _success: bool) -> Vec<WorkUnit> {
        if self.chained < self.chain {
            self.chained += 1;
            let id = self.next_id;
            self.next_id += 1;
            vec![self.make_unit(id)]
        } else {
            Vec::new()
        }
    }
}

fn quick_config(level: ReuseLevel, workers: usize) -> SimConfig {
    SimConfig::paper(level, workers)
}

#[test]
fn l3_completes_all_units() {
    let mut w = Synthetic::new(ReuseLevel::L3, 200);
    let r = simulate(quick_config(ReuseLevel::L3, 4), &mut w);
    assert_eq!(r.trace.invocations.len(), 200);
    assert_eq!(r.failed_units, 0);
    assert!(!r.trace.libraries.is_empty());
    assert!(r.makespan.as_secs_f64() > 0.0);
}

#[test]
fn l1_and_l2_complete_all_units() {
    for level in [ReuseLevel::L1, ReuseLevel::L2] {
        let mut w = Synthetic::new(level, 100);
        let r = simulate(quick_config(level, 4), &mut w);
        assert_eq!(r.trace.invocations.len(), 100, "{level}");
        assert_eq!(r.failed_units, 0);
    }
}

#[test]
fn reuse_levels_order_as_in_paper() {
    // the headline result: L1 > L2 > L3 execution time (Fig 6a). The gap
    // comes from contention, so the load must be deep enough per worker
    // for shared-FS sharing and repeated context reloads to bite.
    let mut times = Vec::new();
    for level in ReuseLevel::ALL {
        let mut w = Synthetic::new(level, 1500);
        let r = simulate(quick_config(level, 8), &mut w);
        times.push((level, r.makespan.as_secs_f64()));
    }
    assert!(
        times[0].1 > times[1].1 && times[1].1 > times[2].1,
        "expected L1 > L2 > L3, got {times:?}"
    );
    // and the L1→L3 gap is large (paper: 94.5% at full scale)
    assert!(
        times[2].1 < times[0].1 * 0.5,
        "L3 should be far faster: {times:?}"
    );
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let mut w = Synthetic::new(ReuseLevel::L3, 120);
        simulate(quick_config(ReuseLevel::L3, 4), &mut w)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.trace.invocations.len(), b.trace.invocations.len());
    for (x, y) in a.trace.invocations.iter().zip(&b.trace.invocations) {
        assert_eq!(x.finished, y.finished);
        assert_eq!(x.worker, y.worker);
    }
}

#[test]
fn different_seed_different_jitter() {
    let mut w1 = Synthetic::new(ReuseLevel::L3, 120);
    let a = simulate(quick_config(ReuseLevel::L3, 4), &mut w1);
    let mut cfg = quick_config(ReuseLevel::L3, 4);
    cfg.seed ^= 0xdead;
    let mut w2 = Synthetic::new(ReuseLevel::L3, 120);
    let b = simulate(cfg, &mut w2);
    assert_ne!(a.makespan, b.makespan);
}

#[test]
fn library_share_values_accumulate() {
    let mut w = Synthetic::new(ReuseLevel::L3, 200);
    let r = simulate(quick_config(ReuseLevel::L3, 2), &mut w);
    let served: u64 = r.trace.libraries.iter().map(|l| l.served).sum();
    assert_eq!(served, 200, "every completion credited to a library");
    // far fewer libraries than invocations: that is the whole point
    assert!(r.trace.libraries.len() <= 4);
}

#[test]
fn phases_populated_per_level() {
    // L3 calls: tiny overheads, real exec; L2 tasks: real library overhead
    let mut w = Synthetic::new(ReuseLevel::L3, 50);
    let r = simulate(quick_config(ReuseLevel::L3, 2), &mut w);
    let m = r.trace.mean_phases();
    assert!(m.exec.as_secs_f64() > 1.0, "exec {:?}", m.exec);
    assert!(
        m.library_overhead.as_secs_f64() < 0.01,
        "L3 per-call library overhead must be sub-10ms: {:?}",
        m.library_overhead
    );

    let mut w = Synthetic::new(ReuseLevel::L2, 50);
    let r = simulate(quick_config(ReuseLevel::L2, 2), &mut w);
    let m = r.trace.mean_phases();
    assert!(
        m.library_overhead.as_secs_f64() > 0.3,
        "L2 pays deserialization + context build per task: {:?}",
        m.library_overhead
    );
}

#[test]
fn dynamic_workload_chains_submissions() {
    let mut w = Synthetic::new(ReuseLevel::L3, 20);
    w.chain = 30;
    let r = simulate(quick_config(ReuseLevel::L3, 2), &mut w);
    assert_eq!(r.trace.invocations.len(), 50, "20 initial + 30 chained");
}

#[test]
fn worker_failure_recovers_work() {
    let mut cfg = quick_config(ReuseLevel::L3, 3);
    // kill worker 0 mid-run (after startup ≈ 20 s, during execution)
    cfg.fail_workers = vec![(60.0, 0)];
    let mut w = Synthetic::new(ReuseLevel::L3, 150);
    let r = simulate(cfg, &mut w);
    assert_eq!(
        r.trace.invocations.len(),
        150,
        "all units must eventually complete despite the failure"
    );
    // no completion is attributed to the dead worker after its death
    let death = vine_core::SimTime::from_secs_f64(60.0);
    for rec in &r.trace.invocations {
        if rec.worker == vine_core::ids::WorkerId(0) {
            assert!(rec.finished <= death);
        }
    }
    // its library record is closed out
    for lib in &r.trace.libraries {
        if lib.worker == vine_core::ids::WorkerId(0) {
            assert_eq!(lib.removed, Some(death));
        }
    }
}

#[test]
fn more_workers_speed_up_worker_bound_load() {
    // long invocations (worker-bound): 3 workers beat 1
    let make = || {
        let mut w = Synthetic::new(ReuseLevel::L3, 60);
        w.exec_gflop = 300.0;
        w
    };
    let r1 = simulate(quick_config(ReuseLevel::L3, 1), &mut make());
    let r3 = simulate(quick_config(ReuseLevel::L3, 3), &mut make());
    assert!(
        r3.makespan.as_secs_f64() < r1.makespan.as_secs_f64() * 0.6,
        "1w {} vs 3w {}",
        r1.makespan,
        r3.makespan
    );
}

#[test]
fn app_start_waits_for_95_percent() {
    let mut w = Synthetic::new(ReuseLevel::L3, 10);
    let r = simulate(quick_config(ReuseLevel::L3, 20), &mut w);
    // workers connect around 19-21 s
    let s = r.app_start.as_secs_f64();
    assert!((18.0..22.0).contains(&s), "app start {s}");
}

/// Run the same workload through the dense-layout driver and the retained
/// pre-overhaul reference driver and demand *identical* results: every
/// record of the trace, the makespan, the failure count, and even the
/// popped-event count. This is what licenses the slab/dense-pool layout —
/// it is a layout change, not a behavior change.
fn assert_drivers_agree(cfg: SimConfig, make: impl Fn() -> Synthetic, what: &str) {
    let a = simulate(cfg.clone(), &mut make());
    let b = simulate_reference(cfg, &mut make());
    assert_eq!(a.trace, b.trace, "{what}: trace diverged");
    assert_eq!(a.makespan, b.makespan, "{what}: makespan diverged");
    assert_eq!(a.app_start, b.app_start, "{what}: app_start diverged");
    assert_eq!(a.end, b.end, "{what}: end diverged");
    assert_eq!(
        a.failed_units, b.failed_units,
        "{what}: failed_units diverged"
    );
    assert_eq!(a.events, b.events, "{what}: event count diverged");
}

#[test]
fn dense_driver_matches_reference_per_level() {
    for level in ReuseLevel::ALL {
        assert_drivers_agree(
            quick_config(level, 6),
            || Synthetic::new(level, 400),
            &format!("{level}"),
        );
    }
}

#[test]
fn dense_driver_matches_reference_with_chaining() {
    // dynamic submission exercises submit_times bookkeeping under reuse
    assert_drivers_agree(
        quick_config(ReuseLevel::L3, 3),
        || {
            let mut w = Synthetic::new(ReuseLevel::L3, 40);
            w.chain = 120;
            w
        },
        "chained",
    );
}

#[test]
fn dense_driver_matches_reference_under_failures() {
    // worker deaths exercise the per-worker job index (cancel + requeue
    // order) and slab slot reuse; stagger two deaths so requeued units
    // land on survivors and one death hits an already-shrunk cluster
    for level in [ReuseLevel::L2, ReuseLevel::L3] {
        let mut cfg = quick_config(level, 4);
        cfg.fail_workers = vec![(55.0, 0), (140.0, 2)];
        assert_drivers_agree(cfg, || Synthetic::new(level, 300), &format!("fail-{level}"));
    }
}

#[test]
fn dense_driver_matches_reference_colocated() {
    assert_drivers_agree(
        SimConfig::colocated(ReuseLevel::L3),
        || Synthetic::new(ReuseLevel::L3, 150),
        "colocated",
    );
}

#[test]
fn calls_without_a_mode_run_in_their_librarys_default() {
    // the library's spec says Fork and no call sets a mode: every call
    // pays the fork on the worker, in both drivers alike
    let make = || {
        let mut w = Synthetic::new(ReuseLevel::L3, 40);
        w.lib_mode = ExecMode::Fork;
        w
    };
    let cfg = quick_config(ReuseLevel::L3, 3);
    let c = &cfg.cost;
    let forked = c.call_sandbox_setup + c.invocation_handoff + c.fork_overhead;
    let r = simulate(cfg.clone(), &mut make());
    assert_eq!(r.trace.invocations.len(), 40);
    for rec in &r.trace.invocations {
        assert_eq!(rec.phases.worker_overhead, forked, "{:?}", rec.id);
    }
    assert_drivers_agree(cfg, make, "fork by default");
}

#[test]
fn shared_fs_contention_hurts_l1_at_scale() {
    // per-invocation L1 runtimes degrade once concurrent readers push the
    // shared filesystem past its aggregate saturation point (~291 clients
    // at the latency-bound 36 MB/s per-client rate); below that point the
    // per-client cap is binding and runtimes are flat
    let mut w_small = Synthetic::new(ReuseLevel::L1, 96);
    let r_small = simulate(quick_config(ReuseLevel::L1, 2), &mut w_small); // 32 slots
    let mut w_big = Synthetic::new(ReuseLevel::L1, 3_000);
    let r_big = simulate(quick_config(ReuseLevel::L1, 50), &mut w_big); // 800 slots
    let mean_small = r_small.trace.runtime_stats().mean;
    let mean_big = r_big.trace.runtime_stats().mean;
    // degradation is mild until the cluster is deeply oversubscribed (the
    // manager's dispatch rate itself limits reader concurrency — the same
    // self-limiting the paper's Fig 9 discussion observes), so assert a
    // consistent direction rather than a large factor
    assert!(
        mean_big > mean_small + 0.5,
        "L1 runtime should degrade past FS saturation: {mean_small} vs {mean_big}"
    );
}
