//! The retained *old-shape* simulation driver: every piece of driver state
//! keyed through `BTreeMap`s, exactly as the event core looked before the
//! dense-layout overhaul in [`crate::run`].
//!
//! This module is the simulator analogue of `vine_manager::reference`: a
//! frozen baseline that
//!
//! * anchors **differential tests** — [`simulate_reference`] must produce a
//!   bit-identical [`SimResult`] (trace, timings, event count) to
//!   [`crate::simulate`] on any workload, which pins the overhaul to "data
//!   layout only, no arithmetic or ordering changes";
//! * gives `repro perf --sim` its **baseline leg**, so the events/sec
//!   speedup in `BENCH_sim.json` is measured against the genuine
//!   pre-overhaul shape rather than a strawman.
//!
//! Deliberately preserved inefficiencies (they *are* the baseline):
//! `jobs`/`pools`/`active_flows` map lookups on every event, a full-map
//! scan in `fail_worker`, an unboundedly growing `submit_times`, a
//! per-call `Vec<ContentHash>` allocation in `pick_source`, and a fluid
//! pool that stores flows in a `BTreeMap` with a collect-then-remove
//! completion sweep.

use crate::cluster::assign_gflops;
use crate::engine::EventQueue;
use crate::run::{SimConfig, SimResult, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use vine_core::context::FileSource;
use vine_core::ids::{ContentHash, InvocationId, LibraryInstanceId, WorkerId};
use vine_core::task::{ExecMode, UnitId, WorkProfile, WorkUnit};
use vine_core::time::{SimDuration, SimTime};
use vine_core::trace::{InvocationRecord, LibraryRecord, PhaseBreakdown, Trace};
use vine_manager::{Decision, Manager};

/// Identifier of a flow within a pool.
type FlowId = u64;

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
    /// Original transfer size (scales the completion tolerance).
    amount: f64,
}

/// The pre-overhaul fluid pool: flows in a `BTreeMap`, completion as a
/// collect-then-remove double pass, next-completion as a full-map fold.
/// Same arithmetic as [`crate::engine::FluidPool`], different layout.
#[derive(Debug)]
struct NaiveFluidPool {
    capacity: f64,
    per_flow_cap: f64,
    flows: BTreeMap<FlowId, Flow>,
    last_advance: SimTime,
    epoch: u64,
}

const EPS_ABS: f64 = 1e-6;
const EPS_REL: f64 = 1e-9;

impl NaiveFluidPool {
    fn new(capacity: f64, per_flow_cap: f64) -> NaiveFluidPool {
        NaiveFluidPool {
            capacity: capacity.max(1e-9),
            per_flow_cap: per_flow_cap.max(1e-9),
            flows: BTreeMap::new(),
            last_advance: SimTime::ZERO,
            epoch: 0,
        }
    }

    fn rate(&self) -> f64 {
        if self.flows.is_empty() {
            return self.per_flow_cap;
        }
        (self.capacity / self.flows.len() as f64).min(self.per_flow_cap)
    }

    fn active(&self) -> usize {
        self.flows.len()
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            let done = self.rate() * dt;
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - done).max(0.0);
            }
        }
        self.last_advance = now;
    }

    fn eps(amount: f64) -> f64 {
        EPS_ABS + EPS_REL * amount
    }

    fn add(&mut self, now: SimTime, id: FlowId, amount: f64) {
        self.advance(now);
        self.epoch += 1;
        self.flows.insert(
            id,
            Flow {
                remaining: amount.max(0.0),
                amount: amount.max(0.0),
            },
        );
    }

    fn take_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= Self::eps(f.amount))
            .map(|(id, _)| *id)
            .collect();
        if !done.is_empty() {
            self.epoch += 1;
            for id in &done {
                self.flows.remove(id);
            }
        }
        done
    }

    fn cancel(&mut self, now: SimTime, id: FlowId) -> bool {
        self.advance(now);
        let existed = self.flows.remove(&id).is_some();
        if existed {
            self.epoch += 1;
        }
        existed
    }

    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let min_remaining = self
            .flows
            .values()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        if min_remaining.is_infinite() {
            return None;
        }
        let secs = min_remaining / self.rate();
        Some(now + SimDuration::from_secs_f64(secs.max(0.0)) + SimDuration::from_micros(1))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PoolKey {
    SharedBw,
    SharedIops,
    Disk(WorkerId),
    /// Outbound link; 0 = manager, w+1 = worker w.
    Uplink(u32),
}

fn uplink_of_worker(w: WorkerId) -> PoolKey {
    PoolKey::Uplink(w.0 + 1)
}
const MANAGER_UPLINK: PoolKey = PoolKey::Uplink(0);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Transfer,
    Worker,
    Library,
    Exec,
}

#[derive(Clone, Debug)]
enum StepKind {
    Fixed(SimDuration),
    Flow { pool: PoolKey, amount: f64 },
}

#[derive(Clone, Debug)]
struct Step {
    kind: StepKind,
    phase: Phase,
}

#[derive(Debug)]
enum JobKind {
    Call {
        id: InvocationId,
        library: LibraryInstanceId,
        submitted: SimTime,
    },
    Task {
        id: vine_core::ids::TaskId,
        submitted: SimTime,
    },
    Install {
        instance: LibraryInstanceId,
        library_name: String,
    },
}

#[derive(Debug)]
struct Job {
    kind: JobKind,
    worker: WorkerId,
    steps: VecDeque<Step>,
    current: Option<Step>,
    step_started: SimTime,
    dispatched: SimTime,
    phases: PhaseBreakdown,
}

enum Ev {
    WorkerConnect(WorkerId),
    WorkerFail(WorkerId),
    MgrWake,
    PoolCheck { key: PoolKey, epoch: u64 },
    JobStep { job: u64 },
}

struct Driver<'w> {
    cfg: SimConfig,
    q: EventQueue<Ev>,
    pools: BTreeMap<PoolKey, NaiveFluidPool>,
    mgr: Manager,
    jobs: BTreeMap<u64, Job>,
    next_job: u64,
    gflops: Vec<f64>,
    rng: ChaCha8Rng,
    trace: Trace,
    lib_records: BTreeMap<LibraryInstanceId, usize>,
    setup_profiles: BTreeMap<String, WorkProfile>,
    /// Each library's default execution mode, for calls that set none.
    default_modes: BTreeMap<String, ExecMode>,
    submit_times: BTreeMap<UnitId, SimTime>,
    mgr_free_at: SimTime,
    mgr_wake_at: Option<SimTime>,
    app_start: Option<SimTime>,
    connected: usize,
    end: SimTime,
    failed_units: u64,
    events: u64,
    workload: &'w mut dyn Workload,
    /// (job, pool) of each job's active flow, for cancellation.
    active_flows: BTreeMap<u64, PoolKey>,
}

/// Run a workload to completion on the retained pre-overhaul driver.
pub fn simulate_reference(cfg: SimConfig, workload: &mut dyn Workload) -> SimResult {
    let mut mgr = Manager::new();
    let mut setup_profiles = BTreeMap::new();
    let mut default_modes = BTreeMap::new();
    for (spec, profile) in workload.libraries() {
        setup_profiles.insert(spec.name.clone(), profile);
        default_modes.insert(spec.name.clone(), spec.exec_mode);
        mgr.register_library(spec);
    }

    let gflops = assign_gflops(&cfg.groups, cfg.workers, cfg.seed);

    let mut pools = BTreeMap::new();
    let c = &cfg.cost;
    pools.insert(
        PoolKey::SharedBw,
        NaiveFluidPool::new(c.sharedfs_bytes_per_sec, c.sharedfs_client_bytes_per_sec),
    );
    pools.insert(
        PoolKey::SharedIops,
        NaiveFluidPool::new(c.sharedfs_iops, c.sharedfs_client_iops),
    );
    let mgr_link = if cfg.colocated {
        c.loopback_bytes_per_sec
    } else {
        c.nic_bytes_per_sec
    };
    pools.insert(MANAGER_UPLINK, NaiveFluidPool::new(mgr_link, mgr_link));
    for w in 0..cfg.workers {
        let wid = WorkerId(w as u32);
        pools.insert(
            PoolKey::Disk(wid),
            NaiveFluidPool::new(c.disk_bytes_per_sec, c.disk_bytes_per_sec),
        );
        pools.insert(
            uplink_of_worker(wid),
            NaiveFluidPool::new(c.nic_bytes_per_sec, c.nic_bytes_per_sec),
        );
    }

    let mut driver = Driver {
        q: EventQueue::new(),
        pools,
        mgr,
        jobs: BTreeMap::new(),
        next_job: 0,
        gflops,
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        trace: Trace::default(),
        lib_records: BTreeMap::new(),
        setup_profiles,
        default_modes,
        submit_times: BTreeMap::new(),
        mgr_free_at: SimTime::ZERO,
        mgr_wake_at: None,
        app_start: None,
        connected: 0,
        end: SimTime::ZERO,
        failed_units: 0,
        events: 0,
        workload,
        active_flows: BTreeMap::new(),
        cfg,
    };
    driver.run()
}

impl<'w> Driver<'w> {
    fn run(&mut self) -> SimResult {
        // workers begin connecting at t=0; startup ≈ 20 s each (Table 2)
        for w in 0..self.cfg.workers {
            let jitter = 1.0 + self.rng.gen_range(-0.05..0.05);
            let at = SimTime::ZERO + self.cfg.cost.worker_startup * jitter;
            self.q.schedule(at, Ev::WorkerConnect(WorkerId(w as u32)));
        }
        for (secs, idx) in self.cfg.fail_workers.clone() {
            self.q.schedule(
                SimTime::from_secs_f64(secs),
                Ev::WorkerFail(WorkerId(idx as u32)),
            );
        }
        // units are known at submit time (before workers connect)
        for unit in self.workload.initial_units() {
            self.submit_unit(unit, SimTime::ZERO);
        }

        while let Some((t, ev)) = self.q.pop() {
            self.events += 1;
            match ev {
                Ev::WorkerConnect(w) => {
                    self.mgr.worker_joined(w, self.cfg.worker_resources);
                    self.connected += 1;
                    let threshold = (self.cfg.workers as f64 * 0.95).ceil() as usize;
                    if self.connected >= threshold && self.app_start.is_none() {
                        self.app_start = Some(t);
                    }
                    self.wake_mgr(t);
                }
                Ev::WorkerFail(w) => self.fail_worker(t, w),
                Ev::MgrWake => {
                    self.mgr_wake_at = None;
                    self.mgr_step(t);
                }
                Ev::PoolCheck { key, epoch } => {
                    let pool = self.pools.get_mut(&key).expect("pool exists");
                    if pool.epoch != epoch {
                        continue; // stale
                    }
                    let done = pool.take_completed(t);
                    for job in done {
                        self.active_flows.remove(&job);
                        self.job_step_done(t, job);
                    }
                    self.touch_pool(key, t);
                }
                Ev::JobStep { job } => self.job_step_done(t, job),
            }
        }

        let app_start = self.app_start.unwrap_or(SimTime::ZERO);
        let makespan = self.end.since(app_start);
        self.trace.makespan = makespan;
        SimResult {
            trace: std::mem::take(&mut self.trace),
            app_start,
            end: self.end,
            failed_units: self.failed_units,
            makespan,
            events: self.events,
        }
    }

    fn submit_unit(&mut self, unit: WorkUnit, t: SimTime) {
        let id = match &unit {
            WorkUnit::Task(task) => UnitId::Task(task.id),
            WorkUnit::Call(c) => UnitId::Call(c.id),
        };
        self.submit_times.insert(id, t);
        self.mgr.submit(unit);
    }

    fn wake_mgr(&mut self, t: SimTime) {
        let at = t.max(self.mgr_free_at);
        match self.mgr_wake_at {
            Some(existing) if existing <= at => {}
            _ => {
                self.mgr_wake_at = Some(at);
                self.q.schedule(at, Ev::MgrWake);
            }
        }
    }

    /// One manager service cycle; see `crate::run::Driver::mgr_step` for the
    /// batching argument (identical here).
    fn mgr_step(&mut self, t: SimTime) {
        if t < self.mgr_free_at {
            self.wake_mgr(self.mgr_free_at);
            return;
        }
        loop {
            let Some(d) = self.mgr.next_decision() else {
                return; // idle until the next state-changing event
            };
            let cost = self.decision_cost(&d);
            self.mgr_free_at = self.mgr_free_at.max(t) + cost;
            self.realize(d, self.mgr_free_at);
            if self
                .q
                .peek_time()
                .is_some_and(|next| next <= self.mgr_free_at)
            {
                self.wake_mgr(self.mgr_free_at);
                return;
            }
        }
    }

    fn decision_cost(&self, d: &Decision) -> SimDuration {
        let c = &self.cfg.cost;
        match d {
            Decision::DispatchTask { task, missing, .. } => {
                let l1_style = task.inputs.iter().any(|f| f.source == FileSource::SharedFs);
                c.task_dispatch_cost(!l1_style && missing.is_empty(), self.mgr.pending())
            }
            Decision::DispatchCall { .. } => c.call_dispatch_cost(self.mgr.pending()),
            Decision::InstallLibrary { .. } | Decision::EvictLibrary { .. } => {
                c.mgr_library_install
            }
            Decision::Fail { .. } => SimDuration::from_millis(1),
        }
    }

    fn realize(&mut self, d: Decision, start: SimTime) {
        let c = self.cfg.cost.clone();
        match d {
            Decision::Fail { unit, error: _ } => {
                self.failed_units += 1;
                let more = self.workload.on_complete(unit, false);
                for u in more {
                    self.submit_unit(u, start);
                }
            }
            Decision::EvictLibrary { instance, .. } => {
                if let Some(idx) = self.lib_records.get(&instance) {
                    self.trace.libraries[*idx].removed = Some(start);
                }
            }
            Decision::DispatchCall {
                worker,
                library,
                call,
            } => {
                let mut steps = VecDeque::new();
                steps.push_back(Step {
                    kind: StepKind::Fixed(c.net_latency),
                    phase: Phase::Transfer,
                });
                let mut worker_overhead = c.call_sandbox_setup + c.invocation_handoff;
                if call.mode(self.default_modes[&call.library]) == ExecMode::Fork {
                    worker_overhead += c.fork_overhead;
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(worker_overhead),
                    phase: Phase::Worker,
                });
                steps.push_back(Step {
                    kind: StepKind::Fixed(c.call_args_deserialize),
                    phase: Phase::Library,
                });
                steps.push_back(Step {
                    kind: StepKind::Fixed(self.compute_time(
                        worker,
                        call.profile.exec_gflop,
                        call.resources.cores,
                    )),
                    phase: Phase::Exec,
                });
                let submitted = self.submit_times[&UnitId::Call(call.id)];
                self.start_job(
                    start,
                    Job {
                        kind: JobKind::Call {
                            id: call.id,
                            library,
                            submitted,
                        },
                        worker,
                        steps,
                        current: None,
                        step_started: start,
                        dispatched: start,
                        phases: PhaseBreakdown::default(),
                    },
                );
            }
            Decision::DispatchTask {
                worker,
                task,
                missing,
            } => {
                let mut steps = VecDeque::new();
                // stage cacheable inputs from the manager or a peer
                let staged: u64 = missing.iter().map(|f| f.size_bytes).sum();
                if staged > 0 {
                    let src = self.pick_source(worker, &missing);
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: src,
                            amount: staged as f64,
                        },
                        phase: Phase::Transfer,
                    });
                } else {
                    steps.push_back(Step {
                        kind: StepKind::Fixed(c.net_latency),
                        phase: Phase::Transfer,
                    });
                }
                // unpack freshly staged archives
                let unpack: u64 = missing
                    .iter()
                    .filter(|f| f.unpacked_bytes > 0)
                    .map(|f| f.unpacked_bytes)
                    .sum();
                let mut worker_fixed = c.sandbox_setup;
                if unpack > 0 {
                    worker_fixed += SimDuration::for_transfer(unpack, c.env_unpack_bytes_per_sec);
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(worker_fixed),
                    phase: Phase::Worker,
                });
                let l1_style = task.inputs.iter().any(|f| f.source == FileSource::SharedFs);
                if l1_style {
                    // the import storm and context read both hit the
                    // shared filesystem (volumes are workload-specific)
                    if task.profile.sharedfs_ops > 0.0 {
                        steps.push_back(Step {
                            kind: StepKind::Flow {
                                pool: PoolKey::SharedIops,
                                amount: task.profile.sharedfs_ops,
                            },
                            phase: Phase::Worker,
                        });
                    }
                    let bytes = task.profile.sharedfs_read_bytes + task.profile.context_read_bytes;
                    if bytes > 0 {
                        steps.push_back(Step {
                            kind: StepKind::Flow {
                                pool: PoolKey::SharedBw,
                                amount: bytes as f64,
                            },
                            phase: Phase::Worker,
                        });
                    }
                }
                // see crate::run for the phase-attribution rationale
                let mut lib_fixed = c.task_wrapper_overhead;
                if !task.inputs.is_empty() || task.profile.context_read_bytes > 0 {
                    lib_fixed += c.invocation_deserialize;
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(lib_fixed),
                    phase: Phase::Library,
                });
                if !l1_style && task.profile.context_read_bytes > 0 {
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: PoolKey::Disk(worker),
                            amount: task.profile.context_read_bytes as f64,
                        },
                        phase: Phase::Exec,
                    });
                }
                if task.profile.context_gflop > 0.0 {
                    steps.push_back(Step {
                        kind: StepKind::Fixed(self.compute_time(
                            worker,
                            task.profile.context_gflop,
                            task.resources.cores,
                        )),
                        phase: Phase::Exec,
                    });
                }
                let mut exec =
                    self.compute_time(worker, task.profile.exec_gflop, task.resources.cores);
                if l1_style {
                    exec = exec * task.profile.l1_exec_slowdown.max(1.0);
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(exec),
                    phase: Phase::Exec,
                });
                let submitted = self.submit_times[&UnitId::Task(task.id)];
                self.start_job(
                    start,
                    Job {
                        kind: JobKind::Task {
                            id: task.id,
                            submitted,
                        },
                        worker,
                        steps,
                        current: None,
                        step_started: start,
                        dispatched: start,
                        phases: PhaseBreakdown::default(),
                    },
                );
            }
            Decision::InstallLibrary {
                worker,
                instance,
                spec,
                missing,
            } => {
                let mut steps = VecDeque::new();
                let staged: u64 = missing.iter().map(|f| f.size_bytes).sum();
                if staged > 0 {
                    let src = self.pick_source(worker, &missing);
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: src,
                            amount: staged as f64,
                        },
                        phase: Phase::Transfer,
                    });
                }
                let unpack: u64 = missing
                    .iter()
                    .filter(|f| f.unpacked_bytes > 0)
                    .map(|f| f.unpacked_bytes)
                    .sum();
                if unpack > 0 {
                    steps.push_back(Step {
                        kind: StepKind::Fixed(SimDuration::for_transfer(
                            unpack,
                            c.env_unpack_bytes_per_sec,
                        )),
                        phase: Phase::Worker,
                    });
                }
                steps.push_back(Step {
                    kind: StepKind::Fixed(c.library_boot),
                    phase: Phase::Library,
                });
                let profile = self
                    .setup_profiles
                    .get(&spec.name)
                    .copied()
                    .unwrap_or_default();
                if profile.context_read_bytes > 0 {
                    steps.push_back(Step {
                        kind: StepKind::Flow {
                            pool: PoolKey::Disk(worker),
                            amount: profile.context_read_bytes as f64,
                        },
                        phase: Phase::Library,
                    });
                }
                if profile.context_gflop > 0.0 {
                    let cores = spec
                        .resources
                        .map(|r| r.cores)
                        .unwrap_or(self.cfg.worker_resources.cores)
                        .max(1);
                    steps.push_back(Step {
                        kind: StepKind::Fixed(self.compute_time(
                            worker,
                            profile.context_gflop,
                            cores.min(4),
                        )),
                        phase: Phase::Library,
                    });
                }
                self.start_job(
                    start,
                    Job {
                        kind: JobKind::Install {
                            instance,
                            library_name: spec.name.clone(),
                        },
                        worker,
                        steps,
                        current: None,
                        step_started: start,
                        dispatched: start,
                        phases: PhaseBreakdown::default(),
                    },
                );
            }
        }
    }

    /// Pick the uplink pool to stage `missing` from (pre-overhaul version:
    /// allocates a scratch `Vec<ContentHash>` on every call).
    fn pick_source(&self, dest: WorkerId, missing: &[vine_core::context::FileRef]) -> PoolKey {
        if !self.cfg.peer_transfer {
            return MANAGER_UPLINK;
        }
        let hashes: Vec<ContentHash> = missing.iter().map(|f| f.hash).collect();
        let Some((first, rest)) = hashes.split_first() else {
            return MANAGER_UPLINK;
        };
        let mut best: Option<(usize, PoolKey)> = None;
        for wid in self.mgr.holders_of(*first) {
            if wid == dest {
                continue;
            }
            let ws = &self.mgr.workers[&wid];
            if rest.iter().all(|h| ws.cache.contains(*h)) {
                let key = uplink_of_worker(wid);
                let load = self.pools[&key].active();
                if best.is_none_or(|(l, _)| load < l) {
                    best = Some((load, key));
                }
            }
        }
        match best {
            // only offload to a peer that isn't already saturated worse
            // than the manager
            Some((load, key)) if load <= self.pools[&MANAGER_UPLINK].active() + 2 => key,
            _ => MANAGER_UPLINK,
        }
    }

    /// Modeled compute duration; identical to `crate::run`.
    fn compute_time(&mut self, worker: WorkerId, gflop: f64, cores: u32) -> SimDuration {
        if gflop <= 0.0 {
            return SimDuration::ZERO;
        }
        let rating = self
            .gflops
            .get(worker.0 as usize)
            .copied()
            .unwrap_or(self.cfg.cost.reference_gflops);
        let base = gflop / (rating * f64::from(cores.max(1)));
        let occupancy = self
            .mgr
            .workers
            .get(&worker)
            .map(|w| w.occupancy())
            .unwrap_or(0.0);
        let contention = 1.0 + occupancy * (self.cfg.cost.full_occupancy_slowdown - 1.0);
        let jitter = (self.rng.gen_range(-0.08f64..0.08)).exp();
        let p_stall = (0.001 * base).min(0.5);
        let stall = if p_stall > 0.0 && self.rng.gen_bool(p_stall) {
            self.rng.gen_range(5.0..35.0)
        } else {
            0.0
        };
        SimDuration::from_secs_f64(base * contention * jitter + stall)
    }

    fn start_job(&mut self, t: SimTime, job: Job) {
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(id, job);
        self.begin_next_step(t, id);
    }

    fn begin_next_step(&mut self, t: SimTime, job_id: u64) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        job.step_started = t;
        match job.steps.pop_front() {
            None => {
                job.current = None;
                self.finish_job(t, job_id);
            }
            Some(step) => {
                let kind = step.kind.clone();
                job.current = Some(step);
                match kind {
                    StepKind::Fixed(d) => self.q.schedule(t + d, Ev::JobStep { job: job_id }),
                    StepKind::Flow { pool, amount } => {
                        self.active_flows.insert(job_id, pool);
                        let p = self.pools.get_mut(&pool).expect("pool exists");
                        p.add(t, job_id, amount);
                        self.touch_pool(pool, t);
                    }
                }
            }
        }
    }

    fn job_step_done(&mut self, t: SimTime, job_id: u64) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return; // job cancelled (worker died)
        };
        let Some(step) = job.current.take() else {
            return;
        };
        let elapsed = t.since(job.step_started);
        match step.phase {
            Phase::Transfer => job.phases.transfer += elapsed,
            Phase::Worker => job.phases.worker_overhead += elapsed,
            Phase::Library => job.phases.library_overhead += elapsed,
            Phase::Exec => job.phases.exec += elapsed,
        }
        self.begin_next_step(t, job_id);
    }

    fn finish_job(&mut self, t: SimTime, job_id: u64) {
        let job = self.jobs.remove(&job_id).expect("finishing a live job");
        match job.kind {
            JobKind::Call {
                id,
                library,
                submitted,
            } => {
                self.trace.invocations.push(InvocationRecord {
                    id,
                    worker: job.worker,
                    library: Some(library),
                    level: self.cfg.level,
                    submitted,
                    dispatched: job.dispatched,
                    finished: t,
                    phases: job.phases,
                    success: true,
                });
                if let Some(idx) = self.lib_records.get(&library) {
                    self.trace.libraries[*idx].served += 1;
                }
                let _ = self.mgr.unit_finished(job.worker, UnitId::Call(id));
                self.end = self.end.max(t);
                let more = self.workload.on_complete(UnitId::Call(id), true);
                for u in more {
                    self.submit_unit(u, t);
                }
                self.wake_mgr(t);
            }
            JobKind::Task { id, submitted } => {
                self.trace.invocations.push(InvocationRecord {
                    // wrapped invocations are traced under the task's number
                    id: InvocationId(id.0),
                    worker: job.worker,
                    library: None,
                    level: self.cfg.level,
                    submitted,
                    dispatched: job.dispatched,
                    finished: t,
                    phases: job.phases,
                    success: true,
                });
                let _ = self.mgr.unit_finished(job.worker, UnitId::Task(id));
                self.end = self.end.max(t);
                let more = self.workload.on_complete(UnitId::Task(id), true);
                for u in more {
                    self.submit_unit(u, t);
                }
                self.wake_mgr(t);
            }
            JobKind::Install {
                instance,
                library_name,
            } => {
                if self.mgr.library_ready(job.worker, instance).is_ok() {
                    self.lib_records
                        .insert(instance, self.trace.libraries.len());
                    self.trace.libraries.push(LibraryRecord {
                        id: instance,
                        worker: job.worker,
                        library_name,
                        deployed: t,
                        removed: None,
                        served: 0,
                        phases: job.phases,
                    });
                }
                self.wake_mgr(t);
            }
        }
    }

    fn fail_worker(&mut self, t: SimTime, w: WorkerId) {
        // the manager requeues the worker's units; cancel its in-flight
        // jobs — pre-overhaul shape: a scan over *all* live jobs
        self.mgr.worker_left(w);
        let doomed: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.worker == w)
            .map(|(id, _)| *id)
            .collect();
        for job_id in doomed {
            if let Some(pool) = self.active_flows.remove(&job_id) {
                self.pools.get_mut(&pool).unwrap().cancel(t, job_id);
                self.touch_pool(pool, t);
            }
            self.jobs.remove(&job_id);
        }
        // close out the worker's library records
        for (lib, idx) in &self.lib_records {
            let rec = &mut self.trace.libraries[*idx];
            if rec.worker == w && rec.removed.is_none() {
                let _ = lib;
                rec.removed = Some(t);
            }
        }
        self.wake_mgr(t);
    }

    fn touch_pool(&mut self, key: PoolKey, t: SimTime) {
        let pool = self.pools.get_mut(&key).expect("pool exists");
        if let Some(at) = pool.next_completion(t) {
            let epoch = pool.epoch;
            self.q.schedule(at, Ev::PoolCheck { key, epoch });
        }
    }
}
