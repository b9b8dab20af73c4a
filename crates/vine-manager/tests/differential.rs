//! Differential property test: the indexed [`Manager`] must emit the exact
//! same decision sequence as the retained scan-based [`NaiveManager`]
//! reference on arbitrary workloads.
//!
//! Each case generates a random op script — call/task submissions across
//! several libraries (including one that is never registered), install
//! acks and startup failures, completion waves, hand-backs, worker joins
//! and losses (each manager requeues a lost worker's units itself, and
//! gives up on a unit lost or handed back three times), and explicit
//! evictions — and interprets it against both managers in lockstep,
//! asserting every decision, lost-unit list, and placement is identical. This is what licenses the index rewrite: the
//! indexes are pure accelerations, not policy changes.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;
use vine_core::context::{ContextSpec, FileRef, LibrarySpec};
use vine_core::ids::{ContentHash, FileId, InvocationId, LibraryInstanceId, TaskId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, TaskSpec, UnitId, WorkUnit};
use vine_manager::manager::{Decision, Manager};
use vine_manager::reference::NaiveManager;

#[derive(Clone, Debug)]
enum Op {
    /// Queue `count` calls to library `lib` (lib == GHOST is unregistered).
    SubmitCalls { lib: usize, count: usize },
    /// Queue a task whose name, resources, and input files derive from
    /// `seed` (some inputs are larger than small workers' caches).
    SubmitTask { seed: u64 },
    /// Take up to `limit` decisions from both managers, comparing each.
    Drain { limit: usize },
    /// Acknowledge all Starting instances; those matching `fail_mask`
    /// report startup failure instead.
    Ack { fail_mask: u64 },
    /// Finish the `count` oldest running units.
    Finish { count: usize },
    /// Hand the `count` oldest running units back unrun.
    HandBack { count: usize },
    /// Connect a new worker with seed-derived resources (some have tiny
    /// disks so staging fails and the uncacheable path triggers).
    Join { seed: u64 },
    /// Disconnect an existing worker (the managers requeue its units).
    Leave { pick: usize },
    /// Explicitly evict a ready instance.
    Evict { pick: usize },
}

const LIBS: usize = 4;
const GHOST: usize = LIBS; // submitted but never registered → Fail path

fn file(i: usize) -> FileRef {
    // pool of shared inputs; sizes straddle the small-disk cache capacity
    // (1 MB disk = 1 MiB cache) so some stagings fail on some workers
    let size = match i % 4 {
        0 => 64 * 1024,
        1 => 512 * 1024,
        2 => 3 * 1024 * 1024,
        _ => 9 * 1024 * 1024,
    };
    let mut f = FileRef::new(
        FileId(i as u64 + 100),
        format!("file{i}"),
        ContentHash::of_str(&format!("file{i}")),
        size,
    );
    if i % 5 == 4 {
        f = f.uncached();
    }
    f
}

fn library(i: usize) -> LibrarySpec {
    let mut spec = LibrarySpec::new(format!("lib{i}"));
    spec.functions = vec!["f".into()];
    match i % 4 {
        // whole-worker library with an environment to stage
        0 => {
            spec.context.environment = Some(file(2));
        }
        // fixed-size library with data files
        1 => {
            spec.resources = Some(Resources::new(4, 2048, 8));
            spec.context = ContextSpec {
                environment: Some(file(1)),
                data: vec![file(0)],
                ..Default::default()
            };
        }
        // contextless, explicit slot count
        2 => {
            spec.resources = Some(Resources::new(2, 1024, 4));
            spec.slots = Some(3);
        }
        // big environment: install staging fails on small-disk workers
        _ => {
            spec.resources = Some(Resources::new(2, 1024, 4));
            spec.context.environment = Some(file(3));
        }
    }
    spec
}

fn worker_resources(seed: u64) -> Resources {
    let cores = 2 + (seed % 7) as u32 * 2;
    let mem = 4096 + (seed % 5) * 2048;
    // every third worker gets a disk smaller than the large pool files
    let disk = if seed.is_multiple_of(3) {
        1 + seed % 4
    } else {
        64
    };
    Resources::new(cores, mem, disk)
}

fn task(id: u64, seed: u64) -> TaskSpec {
    let mut t = TaskSpec::new(TaskId(id), format!("t{}", seed % 7));
    t.resources = Resources::new(1 + (seed % 4) as u32, 256 + (seed % 3) * 512, 1);
    for i in 0..6 {
        if seed >> i & 1 == 1 {
            t.inputs.push(file(i));
        }
    }
    t
}

fn call(id: u64, lib: usize) -> FunctionCall {
    let mut c = FunctionCall::new(InvocationId(id), format!("lib{lib}"), "f", vec![]);
    c.resources = Resources::new(1, 512, 1);
    c
}

/// Both managers driven in lockstep plus the bookkeeping the substrate
/// would normally hold (running units for completions, instances for acks).
struct Harness {
    idx: Manager,
    naive: NaiveManager,
    running: VecDeque<(WorkerId, UnitId)>,
    starting: Vec<(WorkerId, LibraryInstanceId)>,
    ready: Vec<(WorkerId, LibraryInstanceId)>,
    workers: Vec<WorkerId>,
    next_worker: u32,
    next_unit: u64,
}

impl Harness {
    fn new() -> Harness {
        let mut h = Harness {
            idx: Manager::new(),
            naive: NaiveManager::new(),
            running: VecDeque::new(),
            starting: Vec::new(),
            ready: Vec::new(),
            workers: Vec::new(),
            next_worker: 0,
            next_unit: 0,
        };
        for i in 0..LIBS {
            h.idx.register_library(library(i));
            h.naive.register_library(library(i));
        }
        h.join(41);
        h.join(7);
        h
    }

    fn join(&mut self, seed: u64) {
        let id = WorkerId(self.next_worker);
        self.next_worker += 1;
        let r = worker_resources(seed);
        self.idx.worker_joined(id, r);
        self.naive.worker_joined(id, r);
        self.workers.push(id);
    }

    fn submit(&mut self, unit: WorkUnit) {
        self.idx.submit(unit.clone());
        self.naive.submit(unit);
    }

    fn track(&mut self, d: &Decision) {
        match d {
            Decision::InstallLibrary {
                worker, instance, ..
            } => self.starting.push((*worker, *instance)),
            Decision::EvictLibrary {
                worker, instance, ..
            } => {
                self.ready.retain(|e| e != &(*worker, *instance));
                self.starting.retain(|e| e != &(*worker, *instance));
            }
            Decision::DispatchCall { worker, call, .. } => {
                self.running.push_back((*worker, UnitId::Call(call.id)));
            }
            Decision::DispatchTask { worker, task, .. } => {
                self.running.push_back((*worker, UnitId::Task(task.id)));
            }
            Decision::Fail { .. } => {}
        }
    }
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut h = Harness::new();
    for op in ops {
        match op {
            Op::SubmitCalls { lib, count } => {
                for _ in 0..*count {
                    h.next_unit += 1;
                    let c = call(h.next_unit, *lib);
                    h.submit(WorkUnit::Call(c));
                }
            }
            Op::SubmitTask { seed } => {
                h.next_unit += 1;
                let t = task(h.next_unit, *seed);
                h.submit(WorkUnit::Task(t));
            }
            Op::Drain { limit } => {
                for _ in 0..*limit {
                    let a = h.idx.next_decision();
                    let b = h.naive.next_decision();
                    prop_assert_eq!(&a, &b);
                    let Some(d) = a else { break };
                    h.track(&d);
                }
            }
            Op::Ack { fail_mask } => {
                for (w, inst) in std::mem::take(&mut h.starting) {
                    if fail_mask >> (inst.0 % 61) & 1 == 1 {
                        let ra = h.idx.library_startup_failed(w, inst, "boom");
                        let rb = h.naive.library_startup_failed(w, inst, "boom");
                        prop_assert_eq!(ra.is_ok(), rb.is_ok());
                    } else {
                        let ra = h.idx.library_ready(w, inst);
                        let rb = h.naive.library_ready(w, inst);
                        prop_assert_eq!(ra.is_ok(), rb.is_ok());
                        h.ready.push((w, inst));
                    }
                }
            }
            Op::Finish { count } => {
                for _ in 0..*count {
                    let Some((w, u)) = h.running.pop_front() else {
                        break;
                    };
                    let pa = h.idx.unit_finished(w, u);
                    let pb = h.naive.unit_finished(w, u);
                    prop_assert_eq!(pa.as_ref().ok(), pb.as_ref().ok());
                    prop_assert_eq!(pa.is_ok(), pb.is_ok());
                }
            }
            Op::HandBack { count } => {
                for _ in 0..*count {
                    let Some((w, u)) = h.running.pop_front() else {
                        break;
                    };
                    let pa = h.idx.unit_handed_back(w, u);
                    let pb = h.naive.unit_handed_back(w, u);
                    prop_assert_eq!(pa.as_ref().ok(), pb.as_ref().ok());
                    prop_assert_eq!(pa.is_ok(), pb.is_ok());
                }
            }
            Op::Join { seed } => h.join(*seed),
            Op::Leave { pick } => {
                if h.workers.len() <= 1 {
                    continue; // keep at least one worker connected
                }
                let w = h.workers.remove(pick % h.workers.len());
                let la = h.idx.worker_left(w);
                let lb = h.naive.worker_left(w);
                prop_assert_eq!(&la, &lb);
                h.starting.retain(|(ww, _)| *ww != w);
                h.ready.retain(|(ww, _)| *ww != w);
                for lost in la {
                    h.running.retain(|(_, u)| *u != lost);
                }
            }
            Op::Evict { pick } => {
                if h.ready.is_empty() {
                    continue;
                }
                let (w, inst) = h.ready[pick % h.ready.len()];
                let ra = h.idx.evict_instance(w, inst);
                let rb = h.naive.evict_instance(w, inst);
                prop_assert_eq!(ra.is_ok(), rb.is_ok());
                if ra.is_ok() {
                    h.ready.retain(|e| e != &(w, inst));
                }
            }
        }
    }
    // final exhaustive drain: everything still schedulable must match
    loop {
        let a = h.idx.next_decision();
        let b = h.naive.next_decision();
        prop_assert_eq!(&a, &b);
        let Some(d) = a else { break };
        h.track(&d);
    }
    prop_assert_eq!(h.idx.pending(), h.naive.pending());
    prop_assert_eq!(h.idx.queued(), h.naive.queued());
    prop_assert_eq!(h.idx.running_count(), h.naive.running_count());
    Ok(())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..=GHOST, 1usize..12).prop_map(|(lib, count)| Op::SubmitCalls { lib, count }),
        any::<u64>().prop_map(|seed| Op::SubmitTask { seed }),
        (1usize..24).prop_map(|limit| Op::Drain { limit }),
        any::<u64>().prop_map(|fail_mask| Op::Ack { fail_mask }),
        (1usize..8).prop_map(|count| Op::Finish { count }),
        (1usize..4).prop_map(|count| Op::HandBack { count }),
        any::<u64>().prop_map(|seed| Op::Join { seed }),
        (0usize..64).prop_map(|pick| Op::Leave { pick }),
        (0usize..64).prop_map(|pick| Op::Evict { pick }),
    ]
}

/// The generated scripts must actually exercise the decision paths —
/// guard against the property passing vacuously on empty drains.
#[test]
fn scripts_reach_every_decision_kind() {
    let ops = vec![
        Op::SubmitCalls { lib: 0, count: 8 },
        Op::SubmitCalls { lib: 1, count: 6 },
        Op::SubmitCalls {
            lib: GHOST,
            count: 2,
        },
        Op::SubmitTask { seed: 0b101011 },
        Op::SubmitTask { seed: 0b011100 },
        Op::Drain { limit: 20 },
        Op::Ack { fail_mask: 0 },
        Op::Drain { limit: 20 },
        Op::Finish { count: 4 },
        Op::Join { seed: 3 },
        Op::Leave { pick: 0 },
        Op::Drain { limit: 20 },
    ];
    // the interpreter itself must accept the script...
    run_script(&ops).unwrap();
    // ...and replaying it must hit install/dispatch/fail decision kinds
    let mut h = Harness::new();
    let mut kinds = [0usize; 5];
    for op in &ops {
        if let Op::Drain { limit } = op {
            for _ in 0..*limit {
                let Some(d) = h.idx.next_decision() else {
                    break;
                };
                assert_eq!(Some(&d), h.naive.next_decision().as_ref());
                kinds[match &d {
                    Decision::InstallLibrary { .. } => 0,
                    Decision::DispatchCall { .. } => 1,
                    Decision::DispatchTask { .. } => 2,
                    Decision::Fail { .. } => 3,
                    Decision::EvictLibrary { .. } => 4,
                }] += 1;
                h.track(&d);
            }
        } else {
            apply_non_drain(&mut h, op);
        }
    }
    assert!(kinds[0] > 0, "no installs: {kinds:?}");
    assert!(kinds[1] > 0, "no call dispatches: {kinds:?}");
    assert!(kinds[2] > 0, "no task dispatches: {kinds:?}");
    assert!(kinds[3] > 0, "no failures: {kinds:?}");
}

/// Apply a non-Drain op to the harness (smoke-test helper mirroring
/// `run_script`'s interpreter, minus the assertions).
fn apply_non_drain(h: &mut Harness, op: &Op) {
    match op {
        Op::SubmitCalls { lib, count } => {
            for _ in 0..*count {
                h.next_unit += 1;
                let c = call(h.next_unit, *lib);
                h.submit(WorkUnit::Call(c));
            }
        }
        Op::SubmitTask { seed } => {
            h.next_unit += 1;
            let t = task(h.next_unit, *seed);
            h.submit(WorkUnit::Task(t));
        }
        Op::Ack { fail_mask } => {
            for (w, inst) in std::mem::take(&mut h.starting) {
                if fail_mask >> (inst.0 % 61) & 1 == 1 {
                    let _ = h.idx.library_startup_failed(w, inst, "boom");
                    let _ = h.naive.library_startup_failed(w, inst, "boom");
                } else {
                    let _ = h.idx.library_ready(w, inst);
                    let _ = h.naive.library_ready(w, inst);
                    h.ready.push((w, inst));
                }
            }
        }
        Op::Finish { count } => {
            for _ in 0..*count {
                let Some((w, u)) = h.running.pop_front() else {
                    break;
                };
                let _ = h.idx.unit_finished(w, u);
                let _ = h.naive.unit_finished(w, u);
            }
        }
        Op::HandBack { count } => {
            for _ in 0..*count {
                let Some((w, u)) = h.running.pop_front() else {
                    break;
                };
                let _ = h.idx.unit_handed_back(w, u);
                let _ = h.naive.unit_handed_back(w, u);
            }
        }
        Op::Join { seed } => h.join(*seed),
        Op::Leave { pick } => {
            if h.workers.len() > 1 {
                let w = h.workers.remove(pick % h.workers.len());
                let la = h.idx.worker_left(w);
                let _ = h.naive.worker_left(w);
                h.starting.retain(|(ww, _)| *ww != w);
                h.ready.retain(|(ww, _)| *ww != w);
                for lost in la {
                    h.running.retain(|(_, u)| *u != lost);
                }
            }
        }
        Op::Evict { pick } => {
            if !h.ready.is_empty() {
                let (w, inst) = h.ready[pick % h.ready.len()];
                let ra = h.idx.evict_instance(w, inst);
                let _ = h.naive.evict_instance(w, inst);
                if ra.is_ok() {
                    h.ready.retain(|e| e != &(w, inst));
                }
            }
        }
        Op::Drain { .. } => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_manager_matches_naive_reference(
        ops in prop::collection::vec(arb_op(), 0..48),
    ) {
        run_script(&ops)?;
    }
}
