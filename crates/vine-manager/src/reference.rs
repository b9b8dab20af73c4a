//! Retained scan-based scheduler, kept as the correctness oracle.
//!
//! [`NaiveManager`] is the pre-index implementation of the manager's
//! scheduling policy: every query in `next_decision` is a linear scan over
//! the ground-truth maps (queues, slot table, ring walk over all workers).
//! It is deliberately *not* optimized — its value is that the policy is
//! spelled out directly, with no derived state that could drift.
//!
//! Two things depend on it:
//!
//! * `tests/differential.rs` drives it and [`crate::Manager`] through
//!   identical randomized operation sequences and asserts the two emit
//!   identical decision sequences;
//! * the `repro perf` self-benchmark measures the indexed manager's
//!   speedup against it.
//!
//! Behavior matches [`crate::Manager`] exactly, including the
//! staging-failure rule (a file the worker's cache rejects is flagged
//! `cache: false` in the emitted decision). It keeps running units and
//! give-up counters in the same ledger type, which holds no index.

use crate::ledger::{Ledger, RunningUnit};
use crate::library::LibraryInstance;
use crate::manager::{Decision, Placement};
use crate::ring::HashRing;
use crate::state::WorkerState;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vine_core::context::{FileRef, LibrarySpec};
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, TaskSpec, UnitId, WorkUnit};
use vine_core::{Result, VineError};

/// Per-library index of instances with free slots.
type SlotIndex = BTreeMap<String, BTreeMap<(WorkerId, LibraryInstanceId), u32>>;

/// The scan-based reference manager. Same policy as [`crate::Manager`],
/// O(libraries + workers) per decision.
pub struct NaiveManager {
    specs: BTreeMap<String, Arc<LibrarySpec>>,
    pub workers: BTreeMap<WorkerId, WorkerState>,
    ring: HashRing,
    queue_tasks: VecDeque<TaskSpec>,
    queue_calls: BTreeMap<String, VecDeque<FunctionCall>>,
    ledger: Ledger,
    ready_slots: SlotIndex,
    pending_supply: BTreeMap<String, i64>,
    instance_owner: BTreeMap<LibraryInstanceId, WorkerId>,
    next_instance: u64,
}

impl Default for NaiveManager {
    fn default() -> Self {
        Self::new()
    }
}

impl NaiveManager {
    pub fn new() -> NaiveManager {
        NaiveManager {
            specs: BTreeMap::new(),
            workers: BTreeMap::new(),
            ring: HashRing::new(),
            queue_tasks: VecDeque::new(),
            queue_calls: BTreeMap::new(),
            ledger: Ledger::default(),
            ready_slots: BTreeMap::new(),
            pending_supply: BTreeMap::new(),
            instance_owner: BTreeMap::new(),
            next_instance: 0,
        }
    }

    pub fn register_library(&mut self, spec: LibrarySpec) {
        self.specs.insert(spec.name.clone(), Arc::new(spec));
    }

    pub fn worker_joined(&mut self, id: WorkerId, resources: Resources) {
        self.workers.insert(id, WorkerState::new(id, resources));
        self.ring.add(id);
    }

    pub fn worker_left(&mut self, id: WorkerId) -> Vec<UnitId> {
        self.ring.remove(id);
        let Some(state) = self.workers.remove(&id) else {
            return Vec::new();
        };
        for (iid, inst) in &state.libraries {
            self.instance_owner.remove(iid);
            if let Some(m) = self.ready_slots.get_mut(&inst.spec.name) {
                m.remove(&(id, *iid));
            }
            let supply = self
                .pending_supply
                .entry(inst.spec.name.clone())
                .or_insert(0);
            *supply -= i64::from(inst.free_slots());
        }
        let (lost, requeue) = self.ledger.worker_lost(id);
        for unit in requeue {
            self.push_front(unit);
        }
        lost
    }

    pub fn submit(&mut self, unit: WorkUnit) {
        match unit {
            WorkUnit::Task(t) => self.queue_tasks.push_back(t),
            WorkUnit::Call(c) => self
                .queue_calls
                .entry(c.library.clone())
                .or_default()
                .push_back(c),
        }
    }

    fn push_front(&mut self, unit: WorkUnit) {
        match unit {
            WorkUnit::Task(t) => self.queue_tasks.push_front(t),
            WorkUnit::Call(c) => self
                .queue_calls
                .entry(c.library.clone())
                .or_default()
                .push_front(c),
        }
    }

    pub fn pending(&self) -> usize {
        self.queued() + self.ledger.running_count()
    }

    pub fn queued(&self) -> usize {
        self.queue_tasks.len()
            + self.queue_calls.values().map(|q| q.len()).sum::<usize>()
            + self.ledger.failures_pending()
    }

    pub fn running_count(&self) -> usize {
        self.ledger.running_count()
    }

    pub fn is_idle(&self) -> bool {
        self.queued() == 0 && self.ledger.running_count() == 0
    }

    pub fn next_decision(&mut self) -> Option<Decision> {
        if let Some(d) = self.ledger.next_failure() {
            return Some(d);
        }
        if let Some(d) = self.fail_unknown_library() {
            return Some(d);
        }
        if let Some(d) = self.dispatch_call() {
            return Some(d);
        }
        if let Some(d) = self.dispatch_task() {
            return Some(d);
        }
        if let Some(d) = self.install_library() {
            return Some(d);
        }
        self.evict_for_demand()
    }

    fn fail_unknown_library(&mut self) -> Option<Decision> {
        let lib = self
            .queue_calls
            .iter()
            .find(|(lib, q)| !q.is_empty() && !self.specs.contains_key(*lib))
            .map(|(lib, _)| lib.clone())?;
        let call = self.queue_calls.get_mut(&lib).unwrap().pop_front().unwrap();
        Some(Decision::Fail {
            unit: UnitId::Call(call.id),
            error: format!("unknown library: {lib}"),
        })
    }

    fn dispatch_call(&mut self) -> Option<Decision> {
        let (lib_name, key) = self.ready_slots.iter().find_map(|(name, slots)| {
            let has_queue = self.queue_calls.get(name).is_some_and(|q| !q.is_empty());
            if has_queue {
                slots.keys().next().map(|k| (name.clone(), *k))
            } else {
                None
            }
        })?;
        let (worker, instance) = key;
        let call = self
            .queue_calls
            .get_mut(&lib_name)
            .unwrap()
            .pop_front()
            .unwrap();

        let w = self
            .workers
            .get_mut(&worker)
            .expect("indexed worker exists");
        w.begin_call(instance, &call)
            .expect("slot index promised a free slot");
        self.consume_slot(&lib_name, worker, instance);
        *self.pending_supply.entry(lib_name).or_insert(0) -= 1;
        self.ledger.dispatched(
            Placement {
                worker,
                library: Some(instance),
            },
            WorkUnit::Call(call.clone()),
        );
        Some(Decision::DispatchCall {
            worker,
            library: instance,
            call,
        })
    }

    fn dispatch_task(&mut self) -> Option<Decision> {
        let task = self.queue_tasks.front()?;
        let worker = self
            .ring
            .walk(&task.name)
            .find(|w| self.workers[w].available.can_fit(&task.resources))?;
        let task = self.queue_tasks.pop_front().unwrap();
        let w = self.workers.get_mut(&worker).unwrap();
        let mut missing: Vec<FileRef> = task
            .inputs
            .iter()
            .filter(|f| f.cache && !w.cache.contains(f.hash))
            .cloned()
            .collect();
        for f in &mut missing {
            if w.file_arrived(f.hash, f.materialized_bytes()).is_err() {
                // cache thrashing: the worker cannot hold this file — mark
                // it uncacheable in the decision (same rule as Manager)
                f.cache = false;
            }
        }
        w.begin_task(&task).expect("resources were checked");
        self.ledger.dispatched(
            Placement {
                worker,
                library: None,
            },
            WorkUnit::Task(task.clone()),
        );
        Some(Decision::DispatchTask {
            worker,
            task,
            missing,
        })
    }

    fn demand_exceeding_supply(&self) -> Option<String> {
        self.queue_calls.iter().find_map(|(name, q)| {
            let supply = self.pending_supply.get(name).copied().unwrap_or(0);
            if !q.is_empty() && (q.len() as i64) > supply && self.specs.contains_key(name) {
                Some(name.clone())
            } else {
                None
            }
        })
    }

    fn install_library(&mut self) -> Option<Decision> {
        let lib_name = self.demand_exceeding_supply()?;
        let spec = Arc::clone(&self.specs[&lib_name]);
        let per_invocation = self.queue_calls[&lib_name]
            .front()
            .map(|c| c.resources)
            .unwrap_or_default();

        let worker = self.ring.walk(&lib_name).find(|w| {
            let ws = &self.workers[w];
            let want = spec.resources.unwrap_or(ws.total);
            ws.available.can_fit(&want)
        })?;

        let instance = LibraryInstanceId(self.next_instance);
        self.next_instance += 1;

        let w = self.workers.get_mut(&worker).unwrap();
        let missing: Vec<FileRef> = spec
            .context
            .files()
            .filter(|f| !w.cache.contains(f.hash))
            .cloned()
            .collect();
        for f in spec.context.files() {
            w.file_arrived(f.hash, f.materialized_bytes()).ok()?;
        }
        let inst = w
            .install_library(instance, Arc::clone(&spec), &per_invocation)
            .ok()?;
        let slots = inst.slots;
        self.instance_owner.insert(instance, worker);
        *self.pending_supply.entry(lib_name).or_insert(0) += i64::from(slots);
        Some(Decision::InstallLibrary {
            worker,
            instance,
            spec,
            missing,
        })
    }

    fn evict_for_demand(&mut self) -> Option<Decision> {
        if self.specs.len() < 2 {
            return None;
        }
        let needy = self.demand_exceeding_supply()?;
        let victim = self.workers.values().find_map(|w| {
            w.empty_libraries().into_iter().find_map(|iid| {
                let inst = &w.libraries[&iid];
                if inst.spec.name != needy {
                    Some((w.id, iid, inst.spec.name.clone()))
                } else {
                    None
                }
            })
        })?;
        let (worker, instance, library_name) = victim;
        self.remove_instance(worker, instance)
            .expect("victim instance exists and is empty");
        Some(Decision::EvictLibrary {
            worker,
            instance,
            library_name,
        })
    }

    fn consume_slot(&mut self, lib: &str, worker: WorkerId, instance: LibraryInstanceId) {
        if let Some(slots) = self.ready_slots.get_mut(lib) {
            if let Some(free) = slots.get_mut(&(worker, instance)) {
                *free -= 1;
                if *free == 0 {
                    slots.remove(&(worker, instance));
                }
            }
        }
    }

    fn return_slot(&mut self, lib: &str, worker: WorkerId, instance: LibraryInstanceId) {
        *self
            .ready_slots
            .entry(lib.to_string())
            .or_default()
            .entry((worker, instance))
            .or_insert(0) += 1;
    }

    fn remove_instance(
        &mut self,
        worker: WorkerId,
        instance: LibraryInstanceId,
    ) -> Result<LibraryInstance> {
        let w = self
            .workers
            .get_mut(&worker)
            .ok_or_else(|| VineError::Protocol(format!("no worker {worker}")))?;
        let inst = w.remove_library(instance)?;
        self.instance_owner.remove(&instance);
        if let Some(m) = self.ready_slots.get_mut(&inst.spec.name) {
            m.remove(&(worker, instance));
        }
        *self
            .pending_supply
            .entry(inst.spec.name.clone())
            .or_insert(0) -= i64::from(inst.free_slots());
        Ok(inst)
    }

    pub fn library_ready(&mut self, worker: WorkerId, instance: LibraryInstanceId) -> Result<()> {
        let w = self
            .workers
            .get_mut(&worker)
            .ok_or_else(|| VineError::Protocol(format!("no worker {worker}")))?;
        w.library_ready(instance)?;
        let inst = &w.libraries[&instance];
        let name = inst.spec.name.clone();
        let slots = inst.slots;
        self.ledger.library_ready(&name);
        self.ready_slots
            .entry(name)
            .or_default()
            .insert((worker, instance), slots);
        Ok(())
    }

    pub fn library_startup_failed(
        &mut self,
        worker: WorkerId,
        instance: LibraryInstanceId,
        error: &str,
    ) -> Result<()> {
        let w = self
            .workers
            .get_mut(&worker)
            .ok_or_else(|| VineError::Protocol(format!("no worker {worker}")))?;
        w.library_failed(instance)?;
        let name = self.remove_instance(worker, instance)?.spec.name.clone();
        self.ledger
            .startup_failed(&name, error, &mut self.queue_calls);
        Ok(())
    }

    pub fn unit_finished(&mut self, worker: WorkerId, unit: UnitId) -> Result<Option<Placement>> {
        let Some(done) = self.release(worker, unit, true)? else {
            return Ok(None);
        };
        self.ledger.finished(unit);
        Ok(Some(done.placement))
    }

    pub fn unit_handed_back(
        &mut self,
        worker: WorkerId,
        unit: UnitId,
    ) -> Result<Option<Placement>> {
        let Some(back) = self.release(worker, unit, false)? else {
            return Ok(None);
        };
        if let Some(unit) = self.ledger.handed_back(back.unit) {
            self.push_front(unit);
        }
        Ok(Some(back.placement))
    }

    fn release(
        &mut self,
        worker: WorkerId,
        unit: UnitId,
        served: bool,
    ) -> Result<Option<RunningUnit>> {
        let Some(running) = self.ledger.take(worker, unit) else {
            return Ok(None);
        };
        let w = self
            .workers
            .get_mut(&worker)
            .ok_or_else(|| VineError::Protocol(format!("no worker {worker}")))?;
        match (unit, running.placement.library) {
            (UnitId::Call(id), Some(lib)) => {
                w.finish_call(lib, id, served)?;
                let name = w.libraries[&lib].spec.name.clone();
                self.return_slot(&name, worker, lib);
                *self.pending_supply.entry(name).or_insert(0) += 1;
            }
            (UnitId::Task(id), _) => {
                w.finish_task(id)?;
            }
            (UnitId::Call(id), None) => {
                return Err(VineError::Internal(format!(
                    "call {id} ran without a library"
                )))
            }
        }
        Ok(Some(running))
    }

    pub fn evict_instance(&mut self, worker: WorkerId, instance: LibraryInstanceId) -> Result<()> {
        self.remove_instance(worker, instance).map(|_| ())
    }

    pub fn placement_of(&self, unit: UnitId) -> Option<Placement> {
        self.ledger.placement(unit)
    }
}
