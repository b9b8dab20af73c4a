//! The manager's ledger: what it dispatched and has not yet heard back
//! about, and what it has given up on.
//!
//! A substrate keeps no copy of a running unit. When a worker is lost the
//! manager requeues that worker's units from here itself, in dispatch
//! order, and it requeues a unit a worker hands back unrun; when a unit
//! has been lost or handed back [`MAX_FAILURES`] times in all, or a
//! library's daemon fails to start that many times in a row, the manager
//! fails the units instead and reports them through [`Decision::Fail`].
//!
//! The ledger holds ground truth and no scheduling index, so
//! [`crate::Manager`] and its oracle [`crate::reference::NaiveManager`]
//! share it as they share [`crate::WorkerState`].

use crate::manager::{Decision, Placement};
use std::collections::{BTreeMap, VecDeque};
use vine_core::ids::WorkerId;
use vine_core::task::{FunctionCall, UnitId, WorkUnit};

/// Failures after which the manager gives up: a unit that loses its
/// worker or is handed back this many times in all fails, and so do a
/// library's queued calls once its daemon has failed to start this many
/// times in a row (TaskVine's `max_retries`).
pub const MAX_FAILURES: u32 = 3;

/// A dispatched unit the manager has not yet heard back about.
#[derive(Debug)]
pub(crate) struct RunningUnit {
    pub(crate) placement: Placement,
    /// The unit as dispatched: what a worker loss or hand-back requeues.
    pub(crate) unit: WorkUnit,
    /// Dispatch order, which a worker loss requeues in.
    seq: u64,
}

/// How often a unit not yet done lost its worker or was handed back.
#[derive(Debug, Default)]
struct Retries {
    lost: u32,
    handed_back: u32,
}

/// Running units and give-up counters (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    running: BTreeMap<UnitId, RunningUnit>,
    next_seq: u64,
    /// Worker losses and hand-backs of each unit that has had one and is
    /// not yet done.
    retries: BTreeMap<UnitId, Retries>,
    /// Startup failures in a row per library, reset by a ready instance.
    startup_failures: BTreeMap<String, u32>,
    /// Units given up on, reported by the next decisions.
    failed: VecDeque<(UnitId, String)>,
    /// Units requeued after a worker loss or a hand-back.
    pub(crate) requeues: u64,
    /// Units whose worker reported them done.
    pub(crate) completed: u64,
}

impl Ledger {
    pub(crate) fn dispatched(&mut self, placement: Placement, unit: WorkUnit) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.running.insert(
            unit.id(),
            RunningUnit {
                placement,
                unit,
                seq,
            },
        );
    }

    pub(crate) fn placement(&self, unit: UnitId) -> Option<Placement> {
        self.running.get(&unit).map(|r| r.placement)
    }

    pub(crate) fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Take `unit` off the ledger if it runs on `worker`. A report about
    /// it from any other worker is stale: `None`, and nothing changes.
    pub(crate) fn take(&mut self, worker: WorkerId, unit: UnitId) -> Option<RunningUnit> {
        if self.running.get(&unit)?.placement.worker != worker {
            return None;
        }
        self.running.remove(&unit)
    }

    /// A unit taken off with [`Ledger::take`] is done.
    pub(crate) fn finished(&mut self, unit: UnitId) {
        self.retries.remove(&unit);
        self.completed += 1;
    }

    /// A unit taken off with [`Ledger::take`] was handed back unrun: count
    /// the hand-back against it. Returns the unit for the caller to
    /// requeue, or `None` when this was its [`MAX_FAILURES`]th retry and
    /// it fails.
    pub(crate) fn handed_back(&mut self, unit: WorkUnit) -> Option<WorkUnit> {
        self.retry(unit.id(), |n| n.handed_back += 1)
            .then_some(unit)
    }

    /// Take every unit running on `worker` and count a loss against each.
    /// Returns their ids in dispatch order, and in the same order the
    /// units for the caller to requeue: all but those at their
    /// [`MAX_FAILURES`]th retry, which fail.
    pub(crate) fn worker_lost(&mut self, worker: WorkerId) -> (Vec<UnitId>, Vec<WorkUnit>) {
        let mut lost: Vec<RunningUnit> = self
            .running
            .extract_if(.., |_, r| r.placement.worker == worker)
            .map(|(_, r)| r)
            .collect();
        lost.sort_unstable_by_key(|r| r.seq);
        let ids = lost.iter().map(|r| r.unit.id()).collect();
        let mut requeue = Vec::with_capacity(lost.len());
        for r in lost {
            if self.retry(r.unit.id(), |n| n.lost += 1) {
                requeue.push(r.unit);
            }
        }
        (ids, requeue)
    }

    /// Count one retry of `unit` with `count`. True if the unit runs
    /// again; false if that was its [`MAX_FAILURES`]th and it failed.
    fn retry(&mut self, unit: UnitId, count: impl FnOnce(&mut Retries)) -> bool {
        let r = self.retries.entry(unit).or_default();
        count(r);
        if r.lost + r.handed_back < MAX_FAILURES {
            self.requeues += 1;
            return true;
        }
        let error = match r.handed_back {
            0 => format!("gave up after losing its worker {} times", r.lost),
            back => format!(
                "gave up after {back} hand-backs and {} worker losses",
                r.lost
            ),
        };
        self.fail(unit, error);
        false
    }

    /// An instance of `library` booted: its earlier startup failures no
    /// longer count.
    pub(crate) fn library_ready(&mut self, library: &str) {
        self.startup_failures.remove(library);
    }

    /// Count a startup failure of `library` with the daemon's `error`. On
    /// the [`MAX_FAILURES`]th in a row, take the library's queued calls
    /// off `queues` and fail them with that error; returns how many.
    pub(crate) fn startup_failed(
        &mut self,
        library: &str,
        error: &str,
        queues: &mut BTreeMap<String, VecDeque<FunctionCall>>,
    ) -> usize {
        let failures = self
            .startup_failures
            .entry(library.to_string())
            .or_insert(0);
        *failures += 1;
        if *failures < MAX_FAILURES {
            return 0;
        }
        self.startup_failures.remove(library);
        let calls = queues.remove(library).unwrap_or_default();
        for c in &calls {
            let error = format!("library {library} failed to start: {error}");
            self.fail(UnitId::Call(c.id), error);
        }
        calls.len()
    }

    fn fail(&mut self, unit: UnitId, error: String) {
        self.retries.remove(&unit);
        self.failed.push_back((unit, error));
    }

    /// Units given up on and not yet reported.
    pub(crate) fn failures_pending(&self) -> usize {
        self.failed.len()
    }

    /// Report the next unit given up on.
    pub(crate) fn next_failure(&mut self) -> Option<Decision> {
        let (unit, error) = self.failed.pop_front()?;
        Some(Decision::Fail { unit, error })
    }
}
