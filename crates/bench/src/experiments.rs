//! One function per table/figure of the paper's evaluation (§4).
//!
//! Every experiment accepts a `scale` in (0, 1]: 1.0 reproduces the paper's
//! full workload sizes (100k/10k invocations, 150 workers); smaller values
//! shrink the invocation count for quick runs (worker counts and all cost
//! constants stay faithful). Scaling below 1.0 changes absolute totals —
//! the *relative* shape is what survives.
//!
//! Experiments whose cells are independent simulations (different reuse
//! levels, worker counts, invocation lengths) fan the cells out with
//! `into_par_iter().map(..)`: each simulation is a pure function of its
//! config and seed, and results come back in input order, so the rendered
//! tables are byte-identical at any `--jobs` setting — `--jobs 1` runs the
//! very same closures inline on one thread.

use crate::table::Table;
use rayon::prelude::*;
use vine_apps::{ExaMolConfig, ExaMolWorkload, LnniConfig, LnniWorkload};
use vine_core::config::ReuseLevel;
use vine_core::time::SimDuration;
use vine_lang::Value;
use vine_sim::{simulate, SimConfig, SimResult};
use vine_transfer::{plan_broadcast, Topology};

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(50)
}

/// Run LNNI in the simulator.
pub fn run_lnni(level: ReuseLevel, invocations: u64, inferences: u64, workers: usize) -> SimResult {
    let mut w = LnniWorkload::new(LnniConfig {
        invocations,
        inferences_per_invocation: inferences,
        level,
        seed: 0x6c6e6e69,
        library_strategy: vine_apps::lnni::LibraryStrategy::PerSlot,
    });
    simulate(SimConfig::paper(level, workers), &mut w)
}

/// Run ExaMol in the simulator.
pub fn run_examol(level: ReuseLevel, tasks: u64, workers: usize) -> SimResult {
    let mut cfg = ExaMolConfig::paper(level);
    cfg.total_tasks = tasks;
    cfg.initial_batch = cfg.initial_batch.min(tasks);
    let mut w = ExaMolWorkload::new(cfg);
    simulate(SimConfig::paper(level, workers), &mut w)
}

/// Table 2: overhead of executing 1,000 trivial functions on one worker in
/// three modes — Local Invocation (measured live), Remote Task, Remote
/// Invocation.
pub fn table2(scale: f64) -> Table {
    let n = scaled(1_000, scale);
    let mut t = Table::new(
        "table2",
        "Overhead of Executing 1,000 Trivial Functions (paper Table 2)",
        &[
            "total_s",
            "overhead_per_worker_s",
            "overhead_per_invocation_s",
        ],
    );

    // Local Invocation: really run the trivial function in-process
    let mut interp = vine_lang::Interp::new();
    interp
        .exec_source("def trivial(a, b) { return a + b }")
        .unwrap();
    let started = std::time::Instant::now();
    for i in 0..n {
        let _ = interp
            .call_global("trivial", &[Value::Int(i as i64), Value::Int(1)])
            .unwrap();
    }
    let local_total = started.elapsed().as_secs_f64();
    t.row(
        "Local Invocation",
        vec![local_total / n as f64, 0.0, local_total / n as f64],
    );

    // Remote Task: each execution is a whole-worker stateless task that
    // reloads the wrapper (the paper's harness runs Table 2's tasks
    // exclusively: total 211.06 s = 20.65 s worker startup + 1,000 × 0.19 s)
    struct Trivial {
        n: u64,
        as_calls: bool,
    }
    impl vine_sim::Workload for Trivial {
        fn libraries(
            &self,
        ) -> Vec<(
            vine_core::context::LibrarySpec,
            vine_core::task::WorkProfile,
        )> {
            if !self.as_calls {
                return Vec::new();
            }
            let mut spec = vine_core::context::LibrarySpec::new("trivial");
            spec.functions = vec!["trivial".into()];
            // two slots: the worker executes one invocation while the
            // manager prepares the next (the pipelining behind Table 2's
            // 2.52 ms steady-state rate)
            spec.slots = Some(2);
            vec![(spec, vine_core::task::WorkProfile::zero())]
        }
        fn initial_units(&mut self) -> Vec<vine_core::task::WorkUnit> {
            (0..self.n)
                .map(|i| {
                    let profile = vine_core::task::WorkProfile {
                        exec_gflop: 0.05, // trivial addition
                        ..vine_core::task::WorkProfile::zero()
                    };
                    if self.as_calls {
                        let mut c = vine_core::task::FunctionCall::new(
                            vine_core::ids::InvocationId(i),
                            "trivial",
                            "trivial",
                            vec![0u8; 16],
                        );
                        c.resources = vine_core::resources::Resources::paper_worker();
                        c.profile = profile;
                        vine_core::task::WorkUnit::Call(c)
                    } else {
                        let mut task =
                            vine_core::task::TaskSpec::new(vine_core::ids::TaskId(i), "trivial");
                        task.function = Some("trivial".into());
                        task.resources = vine_core::resources::Resources::paper_worker();
                        task.profile = profile;
                        vine_core::task::WorkUnit::Task(task)
                    }
                })
                .collect()
        }
    }
    let startup = SimConfig::colocated(ReuseLevel::L1)
        .cost
        .worker_startup
        .as_secs_f64();
    let totals: Vec<f64> = vec![false, true]
        .into_par_iter()
        .map(|as_calls| {
            let level = if as_calls {
                ReuseLevel::L3
            } else {
                ReuseLevel::L1
            };
            simulate(SimConfig::colocated(level), &mut Trivial { n, as_calls })
                .end
                .as_secs_f64()
        })
        .collect();
    for (label, total) in [("Remote Task", totals[0]), ("Remote Invocation", totals[1])] {
        t.row(label, vec![total, startup, (total - startup) / n as f64]);
    }
    t.note(format!(
        "n = {n} trivial functions, 1 worker, manager co-located"
    ));
    t.note(
        "paper: Local 8.89e-5 | Task 211.06 / 20.65 / 0.19 | Invocation 22.46 / 19.94 / 2.52e-3",
    );
    t
}

/// Fig 6a: LNNI 100k invocations, 150 workers, execution time per level.
pub fn fig6a(scale: f64) -> Table {
    let n = scaled(100_000, scale);
    let mut t = Table::new(
        "fig6a",
        "LNNI Execution Time by Reuse Level (paper Fig 6a)",
        &["execution_time_s"],
    );
    let times: Vec<f64> = ReuseLevel::ALL
        .to_vec()
        .into_par_iter()
        .map(|level| run_lnni(level, n, 16, 150).makespan.as_secs_f64())
        .collect();
    for (level, secs) in ReuseLevel::ALL.iter().zip(&times) {
        t.row(level.name(), vec![*secs]);
    }
    t.note(format!(
        "L1→L3 reduction: {:.1}% (paper: 94.5%, 7,485 s → 414 s)",
        (1.0 - times[2] / times[0]) * 100.0
    ));
    t.note(format!("n = {n} invocations × 16 inferences, 150 workers"));
    t
}

/// Fig 6b: ExaMol 10k tasks, 150 workers. L3 was unsupported in the paper
/// ("it's unclear whether arbitrary functions can fit..."); we add it as an
/// extension row.
pub fn fig6b(scale: f64) -> Table {
    let n = scaled(10_000, scale);
    let mut t = Table::new(
        "fig6b",
        "ExaMol Execution Time by Reuse Level (paper Fig 6b)",
        &["execution_time_s"],
    );
    let times: Vec<f64> = ReuseLevel::ALL
        .to_vec()
        .into_par_iter()
        .map(|level| run_examol(level, n, 150).makespan.as_secs_f64())
        .collect();
    t.row("L1", vec![times[0]]);
    t.row("L2", vec![times[1]]);
    t.row("L3 (extension)", vec![times[2]]);
    t.note(format!(
        "L1→L2 reduction: {:.1}% (paper: 26.9%, 4,600 s → 3,364 s); L3 row is our extension beyond the paper",
        (1.0 - times[1] / times[0]) * 100.0
    ));
    t.note(format!("n = {n} tasks, 150 workers"));
    t
}

/// Fig 7: histogram of LNNI invocation run times per level (clipped at
/// 40 s like the paper).
pub fn fig7(scale: f64) -> Table {
    let n = scaled(100_000, scale);
    let bins = 20;
    let mut t = Table::new(
        "fig7",
        "Histogram of LNNI Invocation Run Times (paper Fig 7)",
        &["L1", "L2", "L3"],
    );
    let histograms: Vec<_> = ReuseLevel::ALL
        .to_vec()
        .into_par_iter()
        .map(|level| {
            run_lnni(level, n, 16, 150)
                .trace
                .runtime_histogram(0.0, 40.0, bins)
        })
        .collect();
    for b in 0..bins {
        let lo = b as f64 * 2.0;
        t.row(
            format!("{:>4.1}–{:>4.1}s", lo, lo + 2.0),
            histograms.iter().map(|h| h.counts[b] as f64).collect(),
        );
    }
    t.row(
        ">40s",
        histograms.iter().map(|h| h.overflow as f64).collect(),
    );
    t.note(format!(
        "modes: L1 ≈ {:.1}s, L2 ≈ {:.1}s, L3 ≈ {:.1}s (paper: L1 12–20s, L2 10–16s, L3 3–7s)",
        histograms[0].mode_center(),
        histograms[1].mode_center(),
        histograms[2].mode_center()
    ));
    t
}

/// Table 4: invocation run-time statistics per level.
pub fn table4(scale: f64) -> Table {
    let n = scaled(100_000, scale);
    let mut t = Table::new(
        "table4",
        "LNNI Invocation Run Time Statistics (paper Table 4)",
        &["mean_s", "std_dev_s", "min_s", "max_s"],
    );
    let stats: Vec<_> = ReuseLevel::ALL
        .to_vec()
        .into_par_iter()
        .map(|level| run_lnni(level, n, 16, 150).trace.runtime_stats())
        .collect();
    for (level, s) in ReuseLevel::ALL.iter().zip(&stats) {
        t.row(level.name(), vec![s.mean, s.std_dev, s.min, s.max]);
    }
    t.note(
        "paper: L1 21.59/34.78/6.71/289.72 | L2 13.48/3.68/6.09/45.33 | L3 4.77/3.43/2.67/39.51",
    );
    t
}

/// Fig 8: effect of invocation length (16/160/1600 inferences) on
/// execution time; 10k invocations, 100 workers.
pub fn fig8(scale: f64) -> Table {
    let n = scaled(10_000, scale);
    let mut t = Table::new(
        "fig8",
        "Effect of Invocation Run Time on Execution Time (paper Fig 8)",
        &["L1_s", "L2_s", "L3_s", "L3_vs_L1_reduction_pct"],
    );
    const LENGTHS: [u64; 3] = [16, 160, 1_600];
    let cells: Vec<(u64, ReuseLevel)> = LENGTHS
        .iter()
        .flat_map(|&i| ReuseLevel::ALL.iter().map(move |&l| (i, l)))
        .collect();
    let times: Vec<f64> = cells
        .into_par_iter()
        .map(|(inferences, level)| run_lnni(level, n, inferences, 100).makespan.as_secs_f64())
        .collect();
    for (i, inferences) in LENGTHS.iter().enumerate() {
        let row = &times[i * 3..i * 3 + 3];
        let reduction = (1.0 - row[2] / row[0]) * 100.0;
        t.row(
            format!("{inferences} inferences"),
            vec![row[0], row[1], row[2], reduction],
        );
    }
    t.note("paper reductions (L3 vs L1): 81% @16, 41.3% @160, 15.6% @1600 — shrinking as invocations lengthen");
    t
}

/// Fig 9: effect of worker count on execution time; 10k invocations.
pub fn fig9(scale: f64) -> Table {
    let n = scaled(10_000, scale);
    let mut t = Table::new(
        "fig9",
        "Effect of Worker Count on Execution Time (paper Fig 9)",
        &["L1_s", "L2_s", "L3_s"],
    );
    const COUNTS: [usize; 3] = [50, 100, 150];
    // the paper's text: L3 at 10 and 25 workers degrades to 455 s / 145 s
    const SMALL: [usize; 2] = [10, 25];
    let mut cells: Vec<(usize, ReuseLevel)> = COUNTS
        .iter()
        .flat_map(|&w| ReuseLevel::ALL.iter().map(move |&l| (w, l)))
        .collect();
    cells.extend(SMALL.iter().map(|&w| (w, ReuseLevel::L3)));
    let times: Vec<f64> = cells
        .into_par_iter()
        .map(|(workers, level)| run_lnni(level, n, 16, workers).makespan.as_secs_f64())
        .collect();
    for (i, workers) in COUNTS.iter().enumerate() {
        t.row(
            format!("{workers} workers"),
            times[i * 3..i * 3 + 3].to_vec(),
        );
    }
    for (i, workers) in SMALL.iter().enumerate() {
        t.row(
            format!("{workers} workers (L3 only)"),
            vec![f64::NAN, f64::NAN, times[COUNTS.len() * 3 + i]],
        );
    }
    t.note("paper: L3 flat across 50–150 workers; L1/L2 improve slightly; L3 degrades to 455 s @10 and 145 s @25 workers");
    t
}

/// Fig 10: deployed libraries vs invocations completed (LNNI L3).
pub fn fig10(scale: f64) -> Table {
    let n = scaled(100_000, scale);
    let r = run_lnni(ReuseLevel::L3, n, 16, 150);
    let series = r.trace.active_libraries_series((n / 20).max(1));
    let mut t = Table::new(
        "fig10",
        "Deployed Libraries vs Invocations Completed (paper Fig 10)",
        &["active_libraries"],
    );
    for (x, y) in &series.points {
        t.row(format!("{x} done"), vec![*y]);
    }
    t.note("paper: quick ramp, then ~2,000 active libraries on 150 workers");
    t
}

/// Fig 11: average library share value vs invocations completed.
pub fn fig11(scale: f64) -> Table {
    let n = scaled(100_000, scale);
    let r = run_lnni(ReuseLevel::L3, n, 16, 150);
    let series = r.trace.avg_share_series((n / 20).max(1));
    let mut t = Table::new(
        "fig11",
        "Average Library Share Value vs Invocations Completed (paper Fig 11)",
        &["avg_invocations_per_library"],
    );
    for (x, y) in &series.points {
        t.row(format!("{x} done"), vec![*y]);
    }
    t.note("paper: share value grows linearly with completions");
    t
}

/// Table 5: overhead breakdown, manager and worker co-located.
pub fn table5() -> Table {
    let mut t = Table::new(
        "table5",
        "Overhead Breakdown of LNNI Invocations (paper Table 5)",
        &[
            "transfer_s",
            "worker_overhead_s",
            "library_invoc_overhead_s",
            "exec_s",
        ],
    );

    // two independent cells: L2 (two whole-worker sequential invocations —
    // first cold, second hot) and L3 (one library install + one invocation)
    let traces: Vec<vine_core::trace::Trace> = vec![ReuseLevel::L2, ReuseLevel::L3]
        .into_par_iter()
        .map(|level| {
            let mut w = LnniWorkload::new(LnniConfig {
                invocations: if level == ReuseLevel::L2 { 2 } else { 1 },
                inferences_per_invocation: 16,
                level,
                seed: 7,
                library_strategy: vine_apps::lnni::LibraryStrategy::PerSlot,
            });
            let mut cfg = SimConfig::colocated(level);
            if level == ReuseLevel::L2 {
                cfg.worker_resources = vine_core::resources::Resources::paper_worker();
            }
            simulate(cfg, &mut w).trace
        })
        .collect();
    let mut records = traces[0].invocations.clone();
    records.sort_by_key(|x| x.dispatched);
    for (label, rec) in [("L2 (Cold)", &records[0]), ("L2 (Hot)", &records[1])] {
        let p = rec.phases;
        t.row(
            label,
            vec![
                p.transfer.as_secs_f64(),
                p.worker_overhead.as_secs_f64(),
                p.library_overhead.as_secs_f64(),
                p.exec.as_secs_f64(),
            ],
        );
    }

    let lib = &traces[1].libraries[0];
    t.row(
        "L3 (Library)",
        vec![
            lib.phases.transfer.as_secs_f64(),
            lib.phases.worker_overhead.as_secs_f64(),
            lib.phases.library_overhead.as_secs_f64(),
            f64::NAN, // the library does no work itself (§3.4)
        ],
    );
    let inv = &traces[1].invocations[0];
    t.row(
        "L3 (Invoc.)",
        vec![
            inv.phases.transfer.as_secs_f64(),
            inv.phases.worker_overhead.as_secs_f64(),
            inv.phases.library_overhead.as_secs_f64(),
            inv.phases.exec.as_secs_f64(),
        ],
    );
    t.note("paper: L2-Cold 1.004/15.435/0.403/5.469 | L2-Hot 5.22e-4/1.18e-3/0.327/5.046 | L3-Lib 0.989/15.251/2.729/– | L3-Invoc 2.34e-4/2.75e-4/5.14e-4/3.079");
    t
}

/// Fig 3 (mechanism): modeled completion time of broadcasting the 572 MB
/// LNNI environment to 150 workers under the three distribution strategies.
pub fn fig3() -> Table {
    let workers: Vec<vine_core::ids::WorkerId> = (0..150).map(vine_core::ids::WorkerId).collect();
    let cost = vine_core::CostModel::paper();
    let per_hop =
        SimDuration::for_transfer(vine_env::catalog::LNNI_PACKED_BYTES, cost.nic_bytes_per_sec)
            .as_secs_f64();

    let mut t = Table::new(
        "fig3",
        "Broadcast Strategies: 572 MB Environment to 150 Workers (paper Fig 3)",
        &["serialized_rounds", "modeled_completion_s", "manager_sends"],
    );
    let clusters = vec![workers[..75].to_vec(), workers[75..].to_vec()];
    for (label, topo) in [
        ("(a) no worker-to-worker", Topology::Star),
        (
            "(b) spanning tree, cap 3",
            Topology::FullPeer { fanout_cap: 3 },
        ),
        (
            "(c) two clusters, cap 3",
            Topology::Clustered {
                clusters,
                fanout_cap: 3,
            },
        ),
    ] {
        let plan = plan_broadcast(&topo, &workers).unwrap();
        t.row(
            label,
            vec![
                plan.depth() as f64,
                plan.depth() as f64 * per_hop,
                plan.manager_sends() as f64,
            ],
        );
    }
    t.note(format!(
        "one 572 MB transfer over a 10 Gb/s link = {per_hop:.2} s"
    ));
    t
}

/// Ablations of DESIGN.md's design decisions at system level: library
/// sizing strategy (§3.5.2) and peer transfer (Fig 3a vs 3b), measured on
/// the LNNI workload.
pub fn ablations(scale: f64) -> Table {
    // capped at 5k invocations: ablation contrasts are visible well below
    // full scale and the row count is 4 cluster runs
    let n = scaled(20_000, scale.min(0.25));
    let mut t = Table::new(
        "ablations",
        "Design Ablations on LNNI (DESIGN.md §5)",
        &["execution_time_s"],
    );
    let run = |level: ReuseLevel, strategy: vine_apps::lnni::LibraryStrategy, peer: bool| {
        let mut w = LnniWorkload::new(LnniConfig {
            invocations: n,
            inferences_per_invocation: 16,
            level,
            seed: 0x6c6e6e69,
            library_strategy: strategy,
        });
        let mut cfg = SimConfig::paper(level, 150);
        cfg.peer_transfer = peer;
        simulate(cfg, &mut w).makespan.as_secs_f64()
    };
    use vine_apps::lnni::LibraryStrategy::*;
    let cells = vec![
        (
            "L3 per-slot libraries + peer transfer (baseline)",
            ReuseLevel::L3,
            PerSlot,
            true,
        ),
        (
            "L3 whole-worker libraries (16 slots)",
            ReuseLevel::L3,
            WholeWorker,
            true,
        ),
        (
            "L3 sequential broadcast (no peer transfer)",
            ReuseLevel::L3,
            PerSlot,
            false,
        ),
        (
            "L2 sequential broadcast (no peer transfer)",
            ReuseLevel::L2,
            PerSlot,
            false,
        ),
    ];
    let rows: Vec<(&str, f64)> = cells
        .into_par_iter()
        .map(|(label, level, strategy, peer)| (label, run(level, strategy, peer)))
        .collect();
    for (label, secs) in rows {
        t.row(label, vec![secs]);
    }
    t.note(format!("n = {n} invocations × 16 inferences, 150 workers"));
    t.note("whole-worker libraries pay one setup per 16 slots instead of 16; no-peer staging serializes the 802 MB context on the manager uplink");
    t
}

/// `perf`: scheduler hot-path self-benchmark (not a paper figure).
///
/// Drives the indexed [`vine_manager::Manager`] and the retained
/// scan-based [`vine_manager::reference::NaiveManager`] through an
/// identical scheduler-bound workload — hundreds of libraries so the
/// per-decision library scans dominate, a near-full worker ring so
/// first-fit walks are long, and install/evict churn once the ring
/// saturates — and reports wall-clock plus decisions/second for each.
/// Both must emit the same number of decisions (the differential
/// property test guarantees the sequences themselves match); results are
/// also written to `BENCH_sched.json` in the working directory.
pub fn perf(scale: f64) -> Table {
    use std::collections::VecDeque;
    use vine_core::context::{FileRef, LibrarySpec};
    use vine_core::ids::{ContentHash, FileId, InvocationId, LibraryInstanceId, TaskId, WorkerId};
    use vine_core::resources::Resources;
    use vine_core::task::{FunctionCall, TaskSpec, UnitId, WorkUnit};
    use vine_manager::manager::{Decision, Manager};
    use vine_manager::reference::NaiveManager;

    const WORKERS: u32 = 1000;
    const LIBS: usize = 512;
    let calls = scaled(40_000, scale);
    let tasks = scaled(8_000, scale);

    /// The subset of the manager API the drive loop needs, so the same
    /// loop times both implementations.
    trait Sched {
        fn register(&mut self, spec: LibrarySpec);
        fn join(&mut self, id: WorkerId, r: Resources);
        fn push(&mut self, unit: WorkUnit);
        fn next(&mut self) -> Option<Decision>;
        fn ready(&mut self, w: WorkerId, i: LibraryInstanceId);
        fn done(&mut self, w: WorkerId, u: UnitId);
    }
    macro_rules! impl_sched {
        ($t:ty) => {
            impl Sched for $t {
                fn register(&mut self, spec: LibrarySpec) {
                    self.register_library(spec);
                }
                fn join(&mut self, id: WorkerId, r: Resources) {
                    self.worker_joined(id, r);
                }
                fn push(&mut self, unit: WorkUnit) {
                    self.submit(unit);
                }
                fn next(&mut self) -> Option<Decision> {
                    self.next_decision()
                }
                fn ready(&mut self, w: WorkerId, i: LibraryInstanceId) {
                    self.library_ready(w, i).expect("install ack");
                }
                fn done(&mut self, w: WorkerId, u: UnitId) {
                    self.unit_finished(w, u).expect("finish");
                }
            }
        };
    }
    impl_sched!(Manager);
    impl_sched!(NaiveManager);

    fn lib(i: usize) -> LibrarySpec {
        let mut spec = LibrarySpec::new(format!("lib{i:03}"));
        spec.functions = vec!["f".into()];
        spec.resources = Some(Resources::new(4, 2048, 4));
        spec.context.environment = Some(FileRef::new(
            FileId(i as u64),
            format!("env{i}.tar"),
            ContentHash::of_str(&format!("env{i}")),
            64 * 1024,
        ));
        spec
    }

    fn setup<S: Sched>(s: &mut S) {
        for i in 0..LIBS {
            s.register(lib(i));
        }
        for w in 0..WORKERS {
            s.join(WorkerId(w), Resources::new(8, 16 * 1024, 64));
        }
    }

    fn drive<S: Sched>(s: &mut S, calls: u64, tasks: u64) -> u64 {
        for i in 0..calls {
            let mut c = FunctionCall::new(
                InvocationId(i),
                format!("lib{:03}", i as usize % LIBS),
                "f",
                vec![],
            );
            c.resources = Resources::new(1, 512, 1);
            s.push(WorkUnit::Call(c));
        }
        for i in 0..tasks {
            let mut t = TaskSpec::new(TaskId(i), format!("t{}", i % 17));
            t.resources = Resources::new(2, 1024, 1);
            t.inputs.push(FileRef::new(
                FileId(10_000 + i % 64),
                format!("in{}", i % 64),
                ContentHash::of_str(&format!("in{}", i % 64)),
                64 * 1024,
            ));
            s.push(WorkUnit::Task(t));
        }
        let mut running: VecDeque<(WorkerId, UnitId)> = VecDeque::new();
        let mut decisions = 0u64;
        loop {
            while let Some(d) = s.next() {
                decisions += 1;
                match d {
                    Decision::InstallLibrary {
                        worker, instance, ..
                    } => s.ready(worker, instance),
                    Decision::DispatchCall { worker, call, .. } => {
                        running.push_back((worker, UnitId::Call(call.id)));
                    }
                    Decision::DispatchTask { worker, task, .. } => {
                        running.push_back((worker, UnitId::Task(task.id)));
                    }
                    Decision::EvictLibrary { .. } | Decision::Fail { .. } => {}
                }
            }
            if running.is_empty() {
                break;
            }
            // complete the older half to free slots for the next wave
            for _ in 0..(running.len() / 2).max(1) {
                let (w, u) = running.pop_front().expect("non-empty");
                s.done(w, u);
            }
        }
        decisions
    }

    let mut naive = NaiveManager::new();
    setup(&mut naive);
    let started = std::time::Instant::now();
    let naive_decisions = drive(&mut naive, calls, tasks);
    let naive_s = started.elapsed().as_secs_f64();

    let mut indexed = Manager::new();
    setup(&mut indexed);
    let started = std::time::Instant::now();
    let indexed_decisions = drive(&mut indexed, calls, tasks);
    let indexed_s = started.elapsed().as_secs_f64();

    assert_eq!(
        naive_decisions, indexed_decisions,
        "decision streams diverged"
    );

    let speedup = naive_s / indexed_s;
    let mut t = Table::new(
        "perf",
        "Scheduler hot-path throughput: indexed vs naive manager",
        &["wall_s", "decisions", "decisions_per_sec"],
    );
    t.row(
        "naive (linear scans)",
        vec![
            naive_s,
            naive_decisions as f64,
            naive_decisions as f64 / naive_s,
        ],
    );
    t.row(
        "indexed",
        vec![
            indexed_s,
            indexed_decisions as f64,
            indexed_decisions as f64 / indexed_s,
        ],
    );
    t.row("speedup", vec![speedup, 0.0, 0.0]);
    t.note(format!(
        "{WORKERS} workers, {LIBS} libraries, {calls} calls + {tasks} tasks; \
         wall-clock, varies run to run"
    ));

    let json = format!(
        "{{\n  \"benchmark\": \"sched_hot_path\",\n  \"workers\": {WORKERS},\n  \
         \"libraries\": {LIBS},\n  \"calls\": {calls},\n  \"tasks\": {tasks},\n  \
         \"naive\": {{ \"wall_s\": {naive_s:.6}, \"decisions\": {naive_decisions}, \
         \"decisions_per_sec\": {:.1} }},\n  \
         \"indexed\": {{ \"wall_s\": {indexed_s:.6}, \"decisions\": {indexed_decisions}, \
         \"decisions_per_sec\": {:.1} }},\n  \"speedup\": {speedup:.2}\n}}\n",
        naive_decisions as f64 / naive_s,
        indexed_decisions as f64 / indexed_s,
    );
    if let Err(e) = std::fs::write("BENCH_sched.json", json) {
        eprintln!("warning: could not write BENCH_sched.json: {e}");
    }
    t
}

/// `perf --sim`: simulator event-core self-benchmark (not a paper figure).
///
/// Drives the dense-layout driver ([`vine_sim::simulate`]: slab jobs,
/// `Vec`-indexed pools, per-worker job index) and the retained
/// BTreeMap-shaped pre-overhaul driver ([`vine_sim::simulate_reference`])
/// through one identical event-heavy workload — a wide cluster running
/// short invocations (thousands of live jobs, so per-event job lookups
/// dominate), staged tasks churning the fluid pools, dynamic resubmission,
/// and a few worker failures (the old driver's full-scan path) — and
/// reports events/second for each. Both traces and popped-event counts
/// must match exactly (the vine-sim differential tests pin the same
/// invariant); results are also written to `BENCH_sim.json`.
pub fn perf_sim(scale: f64) -> Table {
    use vine_core::context::{ContextSpec, FileRef, LibrarySpec};
    use vine_core::ids::{ContentHash, FileId, InvocationId, TaskId};
    use vine_core::resources::Resources;
    use vine_core::task::{FunctionCall, TaskSpec, UnitId, WorkProfile, WorkUnit};
    use vine_sim::{simulate_reference, Workload};

    const WORKERS: usize = 500;
    let total = scaled(200_000, scale);
    /// Units submitted up front, sized to the cluster's slot capacity:
    /// the opening wave carries thousands of shared-FS readers, so the
    /// contended pool is already thousands of flows wide while the call
    /// stream is at full rate — the regime where per-event container
    /// shape matters most.
    const BATCH: u64 = 16_000;
    /// Completions are replenished in chunks: submitting one unit per
    /// completion would make the manager run one-decision service cycles
    /// (index rebuilds every wake), drowning the layout signal in shared
    /// scheduler cost for both drivers alike.
    const CHUNK: u64 = 64;

    struct EventStorm {
        total: u64,
        /// Next unit index to submit (`initial_units` hands out the first
        /// BATCH, completions chain the rest in CHUNK-sized refills).
        next: u64,
        done: u64,
    }

    impl EventStorm {
        /// Deterministic unit mix by index:
        ///
        /// * 4/8 cheap-dispatch calls with ~10 s executions — thousands of
        ///   live jobs (deep job container) and a fast completion stream,
        ///   so chained refills keep arriving while the shared pool below
        ///   is at its widest;
        /// * 1/8 input-less tasks whose context reads churn the per-worker
        ///   disk pools (add/complete/reschedule against pool + active-flow
        ///   containers);
        /// * 3/8 shared-FS tasks reading 2.4 GB each: arrivals outrun the
        ///   pool's aggregate drain rate, so their flows pile up into one
        ///   globally contended pool thousands of flows wide, making every
        ///   pool event an O(width) pass over the container whose layout
        ///   changed (BTreeMap walk vs contiguous scan).
        fn unit(i: u64) -> WorkUnit {
            match i % 8 {
                0..=3 => {
                    let mut c = FunctionCall::new(InvocationId(i), "storm", "f", vec![0u8; 16]);
                    c.resources = Resources::new(1, 512, 1);
                    c.profile = WorkProfile {
                        exec_gflop: 60.0,
                        output_bytes: 1_000,
                        ..WorkProfile::zero()
                    };
                    WorkUnit::Call(c)
                }
                4 => {
                    let mut t = TaskSpec::new(TaskId(i), "read");
                    t.resources = Resources::new(1, 512, 1);
                    if (i / 8).is_multiple_of(8) {
                        // rotate through 64 cacheable blobs: early tasks
                        // stage them, later ones hit peer caches via the
                        // old driver's allocating pick_source path
                        t.inputs = vec![FileRef::new(
                            FileId(100 + i % 64),
                            format!("blob{}", i % 64),
                            ContentHash::of_str(&format!("blob{}", i % 64)),
                            40_000_000,
                        )];
                    }
                    t.profile = WorkProfile {
                        exec_gflop: 80.0,
                        context_read_bytes: 150_000_000,
                        output_bytes: 1_000,
                        ..WorkProfile::zero()
                    };
                    WorkUnit::Task(t)
                }
                _ => {
                    let mut t = TaskSpec::new(TaskId(i), "volread");
                    t.resources = Resources::new(1, 512, 1);
                    t.inputs = vec![FileRef::new(
                        FileId(50 + i % 16),
                        format!("vol{}", i % 16),
                        ContentHash::of_str(&format!("vol{}", i % 16)),
                        2_400_000_000,
                    )
                    .from_shared_fs()
                    .uncached()];
                    t.profile = WorkProfile {
                        exec_gflop: 30.0,
                        sharedfs_read_bytes: 2_400_000_000,
                        output_bytes: 1_000,
                        ..WorkProfile::zero()
                    };
                    WorkUnit::Task(t)
                }
            }
        }
    }

    impl Workload for EventStorm {
        fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
            let mut spec = LibrarySpec::new("storm");
            spec.functions = vec!["f".into()];
            spec.resources = Some(Resources::new(1, 512, 1));
            spec.context = ContextSpec {
                environment: Some(
                    FileRef::new(
                        FileId(1),
                        "storm-env.tar",
                        ContentHash::of_str("storm-env"),
                        64_000_000,
                    )
                    .packed(256_000_000),
                ),
                ..Default::default()
            };
            vec![(spec, WorkProfile::zero())]
        }

        fn initial_units(&mut self) -> Vec<WorkUnit> {
            self.next = BATCH.min(self.total);
            (0..self.next).map(EventStorm::unit).collect()
        }

        fn on_complete(&mut self, _u: UnitId, _ok: bool) -> Vec<WorkUnit> {
            self.done += 1;
            if self.done.is_multiple_of(CHUNK) && self.next < self.total {
                let refill = CHUNK.min(self.total - self.next);
                let start = self.next;
                self.next += refill;
                (start..start + refill).map(EventStorm::unit).collect()
            } else {
                Vec::new()
            }
        }
    }

    let make = || EventStorm {
        total,
        next: 0,
        done: 0,
    };
    let mut cfg = SimConfig::paper(ReuseLevel::L3, WORKERS);
    cfg.fail_workers = vec![(120.0, 7), (180.0, 33), (240.0, 120), (300.0, 201)];
    // fat nodes: double the slot count per worker so the contended
    // shared-FS pool can grow wider before dispatch stalls on slots
    cfg.worker_resources = Resources::new(64, 128 * 1024, 64 * 1024);

    // Two timed passes per driver, interleaved, keeping the minimum wall
    // time of each: the min is the least-interference estimate of a
    // deterministic run's cost, so the ratio is robust to background noise.
    let mut ref_s = f64::INFINITY;
    let mut dense_s = f64::INFINITY;
    let mut ref_r = None;
    let mut dense_r = None;
    for _ in 0..2 {
        let started = std::time::Instant::now();
        let r = simulate_reference(cfg.clone(), &mut make());
        ref_s = ref_s.min(started.elapsed().as_secs_f64());
        ref_r = Some(r);

        let started = std::time::Instant::now();
        let d = simulate(cfg.clone(), &mut make());
        dense_s = dense_s.min(started.elapsed().as_secs_f64());
        dense_r = Some(d);
    }
    let (ref_r, dense_r) = (ref_r.unwrap(), dense_r.unwrap());

    assert_eq!(
        ref_r.trace, dense_r.trace,
        "dense and reference drivers diverged"
    );
    assert_eq!(ref_r.events, dense_r.events, "event counts diverged");

    let events = dense_r.events;
    let speedup = ref_s / dense_s;
    let mut t = Table::new(
        "perf_sim",
        "Simulator event-core throughput: dense layout vs BTreeMap reference",
        &["wall_s", "events", "events_per_sec"],
    );
    t.row(
        "reference (BTreeMap-shaped)",
        vec![ref_s, events as f64, events as f64 / ref_s],
    );
    t.row(
        "dense (slab + Vec pools)",
        vec![dense_s, events as f64, events as f64 / dense_s],
    );
    t.row("speedup", vec![speedup, 0.0, 0.0]);
    t.note(format!(
        "{WORKERS} workers, {total} units ({BATCH} up front, rest chained); \
         identical traces asserted; min wall time of 2 passes per driver"
    ));

    let json = format!(
        "{{\n  \"benchmark\": \"sim_event_core\",\n  \"workers\": {WORKERS},\n  \
         \"units\": {total},\n  \"events\": {events},\n  \
         \"reference\": {{ \"wall_s\": {ref_s:.6}, \"events_per_sec\": {:.1} }},\n  \
         \"dense\": {{ \"wall_s\": {dense_s:.6}, \"events_per_sec\": {:.1} }},\n  \
         \"speedup\": {speedup:.2}\n}}\n",
        events as f64 / ref_s,
        events as f64 / dense_s,
    );
    if let Err(e) = std::fs::write("BENCH_sim.json", json) {
        eprintln!("warning: could not write BENCH_sim.json: {e}");
    }
    t
}

/// `perf --lang`: vine-lang invocation-path self-benchmark (not a paper
/// figure).
///
/// Boots a microbenchmark library — `context_setup` builds a 512-entry
/// table of squares, `lookup` indexes it — into two retained
/// interpreters, one on the tree-walking evaluator and one on the
/// bytecode VM, then drives the same invocation stream through both via
/// `call_global`: exactly the path a warm library daemon serves
/// (§3.4 step 3). Both engines must produce identical results (the
/// 256-case differential proptest in vine-lang pins full bit-equality);
/// results are also written to `BENCH_lang.json`.
pub fn perf_lang(scale: f64) -> Table {
    use vine_lang::{compile_module, parse, Engine, Interp, Value};

    const TABLE_N: i64 = 512;
    // A representative library module: retained-context setup + lookup
    // plus a handful of pure kernels of the kind a funcX-style stateless
    // task ships — enough code that re-materializing it per invocation is
    // the dominant cost of the stateless path.
    const MODULE_SRC: &str = "\
def context_setup(n) {
    global table
    table = []
    for i in range(n) { push(table, i * i) }
}
def lookup(i) {
    return table[i]
}
def clamp(x, lo, hi) {
    if x < lo { return lo }
    if x > hi { return hi }
    return x
}
def weigh(x) {
    acc = 0
    for w in [3, 1, 4, 1, 5, 9, 2, 6] {
        acc = acc + w * x
        x = x + 1
    }
    return acc
}
def decay(x, steps) {
    while steps > 0 {
        x = x - x / 4
        steps = steps - 1
    }
    return x
}
def score(x) {
    s = weigh(clamp(x, 0, 255))
    return decay(s, 4)
}
def bucket(x, size) {
    if size <= 0 { return 0 }
    return x - x % size
}
def smooth(x) {
    acc = x
    for k in [2, 4, 8] {
        acc = acc + bucket(x, k)
    }
    return acc / 4
}
def fma(a, b, c) {
    return a * b + c
}
def horner(x) {
    acc = 0
    for c in [5, 0, 3, 2, 7] {
        acc = fma(acc, x, c)
    }
    return acc
}
def tri(n) {
    if n <= 1 { return 1 }
    return n + tri(n - 1)
}
def rescale(x, num, den) {
    if den == 0 { return 0 }
    return x * num / den
}
";

    fn boot(engine: Engine) -> Interp {
        let mut interp = Interp::new();
        interp.engine = engine;
        interp.exec_source(MODULE_SRC).expect("module boots");
        interp
            .exec_source(&format!("context_setup({TABLE_N})"))
            .expect("setup runs");
        interp
    }

    fn drive(interp: &mut Interp, calls: u64) -> i64 {
        let mut acc = 0i64;
        let mut arg = 0i64;
        for _ in 0..calls {
            arg = (arg + 1) % TABLE_N;
            match interp.call_global("lookup", &[Value::Int(arg)]) {
                Ok(Value::Int(v)) => acc = acc.wrapping_add(v),
                other => panic!("lookup returned {other:?}"),
            }
        }
        acc
    }

    // The host may throttle or steal CPU mid-run, so both engines are
    // timed in small interleaved batches and each engine keeps its best
    // batch: a slow window penalizes both sides equally instead of
    // whichever engine happened to run during it.
    fn time_warm(calls: u64) -> (f64, f64) {
        const BATCHES: u64 = 16;
        let batch = (calls / BATCHES).max(1);
        let mut tree = boot(Engine::Tree);
        let mut vm = boot(Engine::Vm);
        let mut tree_best = f64::INFINITY;
        let mut vm_best = f64::INFINITY;
        let mut tree_acc = 0i64;
        let mut vm_acc = 0i64;
        for _ in 0..BATCHES {
            let started = std::time::Instant::now();
            tree_acc = tree_acc.wrapping_add(drive(&mut tree, batch));
            tree_best = tree_best.min(started.elapsed().as_secs_f64());
            let started = std::time::Instant::now();
            vm_acc = vm_acc.wrapping_add(drive(&mut vm, batch));
            vm_best = vm_best.min(started.elapsed().as_secs_f64());
        }
        assert_eq!(tree_acc, vm_acc, "engines diverged on the result stream");
        // best-batch per-invocation time, scaled back to the full stream
        (
            tree_best * (calls as f64 / batch as f64),
            vm_best * (calls as f64 / batch as f64),
        )
    }

    // Stateless-task path: every invocation re-materializes the library in
    // a fresh interpreter, then calls one pure kernel. The tree walker must
    // re-parse and re-walk the source each time; the VM boots from the
    // compiled module retained at install (content-addressed by source
    // digest, decoded once per distinct digest).
    fn time_stateless(calls: u64) -> (f64, f64) {
        const BATCHES: u64 = 16;
        let batch = (calls / BATCHES).max(1);
        let prog = parse(MODULE_SRC).expect("module parses");
        let module = std::rc::Rc::new(compile_module(&prog, MODULE_SRC));
        let mut tree_best = f64::INFINITY;
        let mut vm_best = f64::INFINITY;
        let mut tree_acc = 0i64;
        let mut vm_acc = 0i64;
        for _ in 0..BATCHES {
            let started = std::time::Instant::now();
            for i in 0..batch {
                let mut interp = Interp::new();
                interp.engine = Engine::Tree;
                interp.exec_source(MODULE_SRC).expect("module boots");
                match interp.call_global("score", &[Value::Int((i % 256) as i64)]) {
                    Ok(Value::Int(v)) => tree_acc = tree_acc.wrapping_add(v),
                    other => panic!("score returned {other:?}"),
                }
            }
            tree_best = tree_best.min(started.elapsed().as_secs_f64());
            let started = std::time::Instant::now();
            for i in 0..batch {
                let mut interp = Interp::new();
                interp
                    .exec_compiled(&module)
                    .expect("compiled module boots");
                match interp.call_global("score", &[Value::Int((i % 256) as i64)]) {
                    Ok(Value::Int(v)) => vm_acc = vm_acc.wrapping_add(v),
                    other => panic!("score returned {other:?}"),
                }
            }
            vm_best = vm_best.min(started.elapsed().as_secs_f64());
        }
        assert_eq!(tree_acc, vm_acc, "engines diverged on the stateless stream");
        (
            tree_best * (calls as f64 / batch as f64),
            vm_best * (calls as f64 / batch as f64),
        )
    }

    let calls = scaled(300_000, scale);
    let (tree_s, vm_s) = time_warm(calls);

    let boots = scaled(8_000, scale);
    let (st_tree_s, st_vm_s) = time_stateless(boots);

    let warm_speedup = tree_s / vm_s;
    let speedup = st_tree_s / st_vm_s;
    let mut t = Table::new(
        "perf_lang",
        "Invocation-path throughput: bytecode VM vs tree-walking evaluator",
        &["wall_s", "invocations", "invocations_per_sec"],
    );
    t.row(
        "warm: tree walker (retained ctx)",
        vec![tree_s, calls as f64, calls as f64 / tree_s],
    );
    t.row(
        "warm: bytecode VM (retained ctx)",
        vec![vm_s, calls as f64, calls as f64 / vm_s],
    );
    t.row("warm speedup", vec![warm_speedup, 0.0, 0.0]);
    t.row(
        "stateless: tree re-walks source",
        vec![st_tree_s, boots as f64, boots as f64 / st_tree_s],
    );
    t.row(
        "stateless: VM retained image",
        vec![st_vm_s, boots as f64, boots as f64 / st_vm_s],
    );
    t.row("stateless speedup", vec![speedup, 0.0, 0.0]);
    t.note(format!(
        "warm: {calls} invocations of lookup over a {TABLE_N}-entry retained \
         table. stateless: {boots} invocations that each re-materialize the \
         library (tree: re-parse + re-walk source; VM: boot from the compiled \
         image retained at install) and call one pure kernel. identical \
         results asserted on both streams"
    ));

    let json = format!(
        "{{\n  \"benchmark\": \"lang_vm_invocation\",\n  \
         \"warm\": {{\n    \"calls\": {calls},\n    \"table_entries\": {TABLE_N},\n    \
         \"tree\": {{ \"wall_s\": {tree_s:.6}, \"invocations_per_sec\": {:.1} }},\n    \
         \"vm\": {{ \"wall_s\": {vm_s:.6}, \"invocations_per_sec\": {:.1} }},\n    \
         \"speedup\": {warm_speedup:.2}\n  }},\n  \
         \"stateless\": {{\n    \"calls\": {boots},\n    \
         \"tree\": {{ \"wall_s\": {st_tree_s:.6}, \"invocations_per_sec\": {:.1} }},\n    \
         \"vm\": {{ \"wall_s\": {st_vm_s:.6}, \"invocations_per_sec\": {:.1} }},\n    \
         \"speedup\": {speedup:.2}\n  }},\n  \
         \"speedup\": {speedup:.2}\n}}\n",
        calls as f64 / tree_s,
        calls as f64 / vm_s,
        boots as f64 / st_tree_s,
        boots as f64 / st_vm_s,
    );
    if let Err(e) = std::fs::write("BENCH_lang.json", json) {
        eprintln!("warning: could not write BENCH_lang.json: {e}");
    }
    t
}

/// All experiments in paper order.
pub fn all(scale: f64) -> Vec<Table> {
    vec![
        table2(scale),
        fig3(),
        fig6a(scale),
        fig6b(scale),
        fig7(scale),
        table4(scale),
        ablations(scale),
        fig8(scale),
        fig9(scale),
        fig10(scale),
        fig11(scale),
        table5(),
    ]
}

/// Experiment ids accepted by the `repro` binary.
pub const IDS: &[&str] = &[
    "table2",
    "fig3",
    "fig6a",
    "fig6b",
    "fig7",
    "table4",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table5",
    "ablations",
];

/// Run one experiment by id.
pub fn by_id(id: &str, scale: f64) -> Option<Table> {
    Some(match id {
        "table2" => table2(scale),
        "fig3" => fig3(),
        "fig6a" => fig6a(scale),
        "fig6b" => fig6b(scale),
        "fig7" => fig7(scale),
        "table4" => table4(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "table5" => table5(),
        "ablations" => ablations(scale),
        // self-benchmarks, not paper figures; excluded from `all` so the
        // paper reproduction stays deterministic
        "perf" => perf(scale),
        "perf_sim" => perf_sim(scale),
        "perf_lang" => perf_lang(scale),
        "shard" => crate::shard::shard_sweep(scale),
        _ => return None,
    })
}
