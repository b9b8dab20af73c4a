//! The main thread's side: it boots the cluster (listener, two TCP workers as
//! threads, libraries) and then acts as both load generator and manager,
//! calling only `submit` and `run_next` on the live `Runtime`.

use crate::apps::{Library, Oracle, Workload};
use crate::gen::{poisson_schedule, ArgStream, Arrival};
use crate::probe::{ProbeLog, ProbeTransport, WorkerLog};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vine_core::resources::Resources;
use vine_core::task::{Outcome, UnitId};
use vine_runtime::{run_tcp_worker, Runtime, RuntimeConfig, TcpTransport, Transport};

pub const WORKERS: usize = 2;
/// A run that sees no progress for this long ends, and counts what is
/// outstanding as failed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// The capacity each worker announces: `repro join`'s 8 cores.
fn worker_resources() -> Resources {
    Resources::new(8, 16 * 1024, 16 * 1024)
}

/// What the traced run attaches to its clusters.
#[derive(Clone)]
pub struct Tracing {
    pub log: Arc<Mutex<ProbeLog>>,
    pub workers: Vec<Arc<WorkerLog>>,
}

impl Tracing {
    pub fn new() -> Tracing {
        Tracing {
            log: Arc::new(Mutex::new(ProbeLog::default())),
            workers: (0..WORKERS)
                .map(|_| Arc::new(WorkerLog::default()))
                .collect(),
        }
    }

    pub fn record(&self, on: bool) {
        crate::probe::lock(&self.log).recording = on;
    }
}

/// A booted cluster: runtime on this thread, workers on their own.
pub struct Cluster {
    pub rt: Runtime,
    workers: Vec<JoinHandle<()>>,
    /// The next runtime unit id; ids stay unique across the clusters of
    /// one measurement so traced stamps never collide.
    pub next_id: u64,
}

impl Cluster {
    /// Boot a cluster and wait until every library (or, for stateless
    /// tasks, one task) has returned one correct result. This is the
    /// interval `setup_s` measures.
    pub fn boot(
        workload: Workload,
        libs: &[Library],
        oracle: &Oracle,
        tracing: Option<&Tracing>,
        first_id: u64,
    ) -> Result<Cluster, String> {
        let transport =
            TcpTransport::listen("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
        let addr = transport.local_addr();
        let mut workers = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
            let registry = vine_apps::modules::full_registry();
            let wlog = tracing.map(|t| Arc::clone(&t.workers[i]));
            let h = std::thread::Builder::new()
                .name(format!("bench-worker-{i}"))
                .spawn(move || {
                    let r = match wlog {
                        Some(log) => {
                            crate::probe::run_traced_worker(addr, worker_resources(), registry, log)
                        }
                        None => run_tcp_worker(addr, worker_resources(), registry)
                            .map_err(|e| e.to_string()),
                    };
                    if let Err(e) = r {
                        eprintln!("worker {i}: {e}");
                    }
                })
                .map_err(|e| format!("spawning worker: {e}"))?;
            workers.push(h);
        }
        let transport: Box<dyn Transport> = match tracing {
            Some(t) => Box::new(ProbeTransport::new(Box::new(transport), Arc::clone(&t.log))),
            None => Box::new(transport),
        };
        let cfg = RuntimeConfig {
            workers: WORKERS,
            worker_resources: worker_resources(),
            registry: vine_apps::modules::full_registry(),
            idle_timeout: IDLE_TIMEOUT,
        };
        let rt = Runtime::with_transport(cfg, transport).map_err(|e| e.to_string())?;
        let mut cluster = Cluster {
            rt,
            workers,
            next_id: first_id,
        };
        for lib in libs {
            cluster
                .rt
                .install_library(lib.spec(), &lib.source, vec![], &lib.setup_args)
                .map_err(|e| format!("installing {}: {e}", lib.name))?;
        }
        // one unit per library; a stateless workload sends one task
        let mut pending = HashMap::new();
        for tenant in 0..libs.len().max(1) {
            let a = Arrival {
                due_s: 0.0,
                tenant,
                arg: tenant,
            };
            pending.insert(cluster.submit(workload, &a, libs), a);
        }
        while !pending.is_empty() {
            let o = cluster
                .rt
                .run_next()
                .map_err(|e| format!("first results: {e}"))?
                .ok_or("runtime went idle before the first results")?;
            let a = pending
                .remove(&o.unit)
                .ok_or("result for an unknown unit")?;
            if !oracle.check(&a, &o) {
                return Err(format!(
                    "wrong first result for {:?}: {:?}",
                    o.unit, o.error
                ));
            }
        }
        Ok(cluster)
    }

    fn submit(&mut self, workload: Workload, a: &Arrival, libs: &[Library]) -> UnitId {
        let unit = workload.unit(self.next_id, a, libs);
        self.next_id += 1;
        let id = unit.id();
        self.rt.submit(unit);
        id
    }

    /// Stop the workers and wait for every thread to end.
    pub fn shutdown(self) {
        self.rt.shutdown();
        for h in self.workers {
            if h.join().is_err() {
                eprintln!("a worker thread panicked");
            }
        }
    }
}

/// How load arrives.
pub enum Load {
    /// `Workload::clients` callers, each sending its next unit when its
    /// reply lands.
    Closed(ArgStream),
    /// A precomputed Poisson schedule, sent regardless of replies.
    Open(std::iter::Peekable<std::vec::IntoIter<Arrival>>),
}

impl Load {
    pub fn new(workload: Workload, seed: u64, window_s: f64) -> Load {
        if workload.open_loop() {
            let schedule = poisson_schedule(
                seed,
                crate::apps::CHURN_RATE,
                window_s,
                crate::apps::TENANTS,
                crate::apps::ZIPF_S,
                crate::apps::ARG_DOMAIN,
            );
            Load::Open(schedule.into_iter().peekable())
        } else {
            Load::Closed(ArgStream::new(seed, crate::apps::ARG_DOMAIN))
        }
    }
}

/// A unit's identity in the generated stream: its round and position.
/// The same key names the same generated unit in every run of one seed.
pub type Key = (usize, u64);

/// A unit in flight.
struct Flight {
    key: Key,
    arrival: Arrival,
    /// When the latency clock starts: the submit (closed loop) or the due
    /// time (open loop).
    start: Instant,
    submitted: Instant,
}

/// A finished unit.
pub struct Done {
    pub key: Key,
    pub arrival: Arrival,
    pub outcome: Outcome,
    pub submitted: Instant,
    pub finished: Instant,
    pub latency_us: f64,
    /// Finished before its window closed: counts toward throughput and
    /// latency. Units drained after the window are still checked.
    pub in_window: bool,
}

/// One sub-window of a timed window: its length, the latencies of the
/// units that finished in it, and the process CPU it spent.
pub struct Sub {
    pub len_s: f64,
    pub latencies: Vec<f64>,
    pub cpu_us: f64,
}

/// Everything the timed windows of one measurement produced.
#[derive(Default)]
pub struct Phase {
    pub window: Duration,
    pub done: Vec<Done>,
    pub subs: Vec<Sub>,
    /// Units submitted (including ones that finish after their window).
    pub attempted: u64,
    /// Units still outstanding when a run ended on an error.
    pub lost: u64,
    pub error: Option<String>,
    /// Open loop: how late each unit was submitted after it was due (µs).
    pub submit_lag_us: Vec<f64>,
    /// Wall time spent inside `run_next`.
    pub run_next_time: Duration,
}

impl Phase {
    pub fn in_window(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| d.in_window)
    }
}

/// Units in flight, keyed by the id the runtime reports them under.
struct InFlight<'a> {
    workload: Workload,
    libs: &'a [Library],
    round: usize,
    /// Units of this round submitted so far.
    position: u64,
    flights: HashMap<UnitId, Flight>,
}

impl InFlight<'_> {
    /// Submit one generated unit; returns when it was submitted.
    fn send(
        &mut self,
        cluster: &mut Cluster,
        phase: &mut Phase,
        a: Arrival,
        due: Option<Instant>,
    ) -> Instant {
        let now = Instant::now();
        let id = cluster.submit(self.workload, &a, self.libs);
        self.flights.insert(
            id,
            Flight {
                key: (self.round, self.position),
                arrival: a,
                start: due.unwrap_or(now),
                submitted: now,
            },
        );
        self.position += 1;
        phase.attempted += 1;
        now
    }
}

/// Closes sub-windows as time passes, charging each the CPU it spent.
struct SubClock {
    start: Instant,
    len: Duration,
    end: Instant,
    first: usize,
    closed: usize,
    cpu_mark: f64,
}

impl SubClock {
    fn new(phase: &mut Phase, start: Instant, window: Duration, len: Duration) -> SubClock {
        let first = phase.subs.len();
        let count = window.as_nanos().div_ceil(len.as_nanos()).max(1) as usize;
        for i in 0..count {
            let from = len * i as u32;
            phase.subs.push(Sub {
                len_s: (window.saturating_sub(from)).min(len).as_secs_f64(),
                latencies: Vec::new(),
                cpu_us: 0.0,
            });
        }
        SubClock {
            start,
            len,
            end: start + window,
            first,
            closed: first,
            cpu_mark: crate::stats::process_usage().0,
        }
    }

    /// The sub-window an instant inside the window falls in.
    fn index(&self, at: Instant, phase: &Phase) -> usize {
        let k = (at.saturating_duration_since(self.start).as_secs_f64() / self.len.as_secs_f64())
            as usize;
        (self.first + k).min(phase.subs.len() - 1)
    }

    /// Close every sub-window that ended before `now`.
    fn advance(&mut self, now: Instant, phase: &mut Phase) {
        while self.closed < phase.subs.len() {
            let i = self.closed - self.first;
            let sub_end = (self.start + self.len * (i as u32 + 1)).min(self.end);
            if now < sub_end {
                return;
            }
            let cpu = crate::stats::process_usage().0;
            phase.subs[self.closed].cpu_us = cpu - self.cpu_mark;
            self.cpu_mark = cpu;
            self.closed += 1;
        }
    }
}

/// Drive `load` on `cluster` for `window`, then drain what is outstanding,
/// appending to `phase`: units are keyed `(round, position)`, and the
/// window is cut into sub-windows of `sub` (the last may be shorter). An
/// error from `run_next` ends the window; what is still in flight counts
/// as lost.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    cluster: &mut Cluster,
    workload: Workload,
    libs: &[Library],
    load: &mut Load,
    round: usize,
    window: Duration,
    sub: Duration,
    phase: &mut Phase,
) {
    let mut inflight = InFlight {
        workload,
        libs,
        round,
        position: 0,
        flights: HashMap::new(),
    };
    let start = Instant::now();
    let end = start + window;
    let mut clock = SubClock::new(phase, start, window, sub.min(window));
    if let Load::Closed(s) = load {
        for _ in 0..workload.clients() {
            inflight.send(cluster, phase, s.next_arrival(), None);
        }
    }
    loop {
        if let Load::Open(schedule) = load {
            // submit everything that has come due
            let now = Instant::now();
            while let Some(a) =
                schedule.next_if(|a| start + Duration::from_secs_f64(a.due_s) <= now)
            {
                let due = start + Duration::from_secs_f64(a.due_s);
                let at = inflight.send(cluster, phase, a, Some(due));
                phase.submit_lag_us.push((at - due).as_secs_f64() * 1e6);
            }
            if inflight.flights.is_empty() {
                match schedule.peek() {
                    Some(a) => {
                        let due = start + Duration::from_secs_f64(a.due_s);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        continue;
                    }
                    None => break,
                }
            }
        } else if inflight.flights.is_empty() {
            break;
        }
        let t0 = Instant::now();
        let r = cluster.rt.run_next();
        let finished = Instant::now();
        phase.run_next_time += finished - t0;
        clock.advance(finished, phase);
        let outcome = match r {
            Ok(Some(o)) => o,
            Ok(None) => break,
            Err(e) => {
                phase.error = Some(e.to_string());
                break;
            }
        };
        let Some(f) = inflight.flights.remove(&outcome.unit) else {
            phase.error = Some(format!("result for an unknown unit {:?}", outcome.unit));
            break;
        };
        let latency_us = (finished - f.start).as_secs_f64() * 1e6;
        let in_window = finished <= end;
        if in_window {
            let i = clock.index(finished, phase);
            phase.subs[i].latencies.push(latency_us);
        }
        phase.done.push(Done {
            key: f.key,
            arrival: f.arrival,
            outcome,
            submitted: f.submitted,
            finished,
            latency_us,
            in_window,
        });
        if let Load::Closed(s) = load {
            if finished < end {
                inflight.send(cluster, phase, s.next_arrival(), None);
            }
        }
    }
    // an early end closes the remaining sub-windows now
    clock.advance(Instant::now().max(end), phase);
    phase.window += end.min(Instant::now()) - start;
    phase.lost += inflight.flights.len() as u64;
}

/// Check every result against the oracle. Returns the number of wrong or
/// failed results and the results by key, for the digest.
pub fn verify(phase: &Phase, oracle: &Oracle) -> (u64, BTreeMap<Key, Vec<u8>>) {
    let mut wrong = 0;
    let mut results = BTreeMap::new();
    for d in &phase.done {
        if oracle.check(&d.arrival, &d.outcome) {
            results.insert(d.key, d.outcome.result_blob.clone());
        } else {
            wrong += 1;
        }
    }
    (wrong, results)
}
