//! The manager state machine.
//!
//! Scheduling is driven by [`Manager::next_decision`], which at paper scale
//! is called hundreds of thousands of times per run — once per decision
//! *and* once per wake that finds nothing to do. Every query it makes is
//! therefore backed by an incrementally-maintained index instead of a scan:
//!
//! * `unknown_pending` — libraries with queued calls but no registered
//!   spec (step 1, fail-fast);
//! * `dispatchable` — libraries with queued calls *and* a ready instance
//!   with a free slot (step 2);
//! * `demand_over` — libraries whose queue length exceeds their promised
//!   slot supply (steps 4 and 5);
//! * [`crate::index::FitIndex`] — first-fit worker lookup in ring order
//!   (steps 3 and 4), replacing the O(workers) ring walk;
//! * `file_holders` — reverse content-hash → workers index, so the
//!   substrate's peer-source selection does not scan every worker cache.
//!
//! All indexes are derived state: `reindex_lib` recomputes a library's
//! membership from the ground-truth maps whenever one of its inputs
//! changes, so decision *order* is bit-identical to the retained
//! scan-based reference in [`crate::reference`] (property-tested in
//! `tests/differential.rs`).

use crate::index::FitIndex;
use crate::ledger::{Ledger, RunningUnit};
use crate::library::LibraryInstance;
use crate::ring::HashRing;
use crate::state::WorkerState;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use vine_core::context::{FileRef, LibrarySpec};
use vine_core::ids::{ContentHash, LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, TaskSpec, UnitId, WorkUnit};
use vine_core::{Result, VineError};

/// Where a running unit lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub worker: WorkerId,
    pub library: Option<LibraryInstanceId>,
}

/// A scheduling decision. Bookkeeping is applied by the manager the moment
/// the decision is emitted; the substrate realizes it with time and I/O.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Stage `missing` files to `worker`, then boot a library instance and
    /// run its context setup. The instance is `Starting` until the
    /// substrate reports [`Manager::library_ready`]. The spec is shared
    /// (specs carry the whole context file list; installs must not deep-
    /// clone it).
    InstallLibrary {
        worker: WorkerId,
        instance: LibraryInstanceId,
        spec: Arc<LibrarySpec>,
        missing: Vec<FileRef>,
    },
    /// Remove an empty library to reclaim resources for another library's
    /// work (§3.5.2).
    EvictLibrary {
        worker: WorkerId,
        instance: LibraryInstanceId,
        library_name: String,
    },
    /// Send an invocation to a ready library instance (§3.4 step 3).
    DispatchCall {
        worker: WorkerId,
        library: LibraryInstanceId,
        call: FunctionCall,
    },
    /// Send a stateless task to a worker, staging `missing` cacheable
    /// inputs first. Entries whose staging failed worker-side (cache full)
    /// are flagged `cache: false` — the file still moves, but into the
    /// sandbox only.
    DispatchTask {
        worker: WorkerId,
        task: TaskSpec,
        missing: Vec<FileRef>,
    },
    /// A unit is unschedulable forever (unknown library) or given up on
    /// (see [`crate::MAX_FAILURES`]).
    Fail { unit: UnitId, error: String },
}

/// Per-library index of instances with free slots.
type SlotIndex = BTreeMap<String, BTreeMap<(WorkerId, LibraryInstanceId), u32>>;

/// The manager.
pub struct Manager {
    specs: BTreeMap<String, Arc<LibrarySpec>>,
    pub workers: BTreeMap<WorkerId, WorkerState>,
    ring: HashRing,
    /// First-fit worker lookup mirroring `ring` (kept in sync with every
    /// change to a worker's `available`).
    fit: FitIndex,
    queue_tasks: VecDeque<TaskSpec>,
    queue_calls: BTreeMap<String, VecDeque<FunctionCall>>,
    /// Total calls across `queue_calls` (so `pending` is O(1)).
    queued_calls: usize,
    ledger: Ledger,
    /// Ready instances with free slots, per library.
    ready_slots: SlotIndex,
    /// Slots promised per library: all slots of Starting instances plus
    /// free slots of Ready ones. Controls when another instance is worth
    /// installing.
    pending_supply: BTreeMap<String, i64>,
    instance_owner: BTreeMap<LibraryInstanceId, WorkerId>,
    next_instance: u64,
    /// Libraries with queued calls and no registered spec.
    unknown_pending: BTreeSet<String>,
    /// Libraries with queued calls and a ready free slot.
    dispatchable: BTreeSet<String>,
    /// Libraries with queued calls exceeding promised supply.
    demand_over: BTreeSet<String>,
    /// Workers that ever staged each file. Superset of current holders
    /// (caches evict internally); [`Manager::holders_of`] verifies against
    /// the actual cache.
    file_holders: BTreeMap<ContentHash, BTreeSet<WorkerId>>,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    pub fn new() -> Manager {
        Manager {
            specs: BTreeMap::new(),
            workers: BTreeMap::new(),
            ring: HashRing::new(),
            fit: FitIndex::new(),
            queue_tasks: VecDeque::new(),
            queue_calls: BTreeMap::new(),
            queued_calls: 0,
            ledger: Ledger::default(),
            ready_slots: BTreeMap::new(),
            pending_supply: BTreeMap::new(),
            instance_owner: BTreeMap::new(),
            next_instance: 0,
            unknown_pending: BTreeSet::new(),
            dispatchable: BTreeSet::new(),
            demand_over: BTreeSet::new(),
            file_holders: BTreeMap::new(),
        }
    }

    /// Register a library template (`manager.install_library` in Fig 5).
    pub fn register_library(&mut self, spec: LibrarySpec) {
        let name = spec.name.clone();
        self.specs.insert(name.clone(), Arc::new(spec));
        self.reindex_lib(&name);
    }

    // ---- index maintenance ----

    /// Recompute `name`'s membership in the scheduling indexes from the
    /// ground-truth maps. Called whenever its queue, spec, slots, or
    /// supply change.
    fn reindex_lib(&mut self, name: &str) {
        let qlen = self.queue_calls.get(name).map_or(0, |q| q.len());
        let known = self.specs.contains_key(name);
        let has_slot = self.ready_slots.get(name).is_some_and(|m| !m.is_empty());
        let supply = self.pending_supply.get(name).copied().unwrap_or(0);
        Self::set_membership(&mut self.unknown_pending, name, qlen > 0 && !known);
        Self::set_membership(&mut self.dispatchable, name, qlen > 0 && has_slot);
        Self::set_membership(
            &mut self.demand_over,
            name,
            qlen > 0 && known && (qlen as i64) > supply,
        );
    }

    fn set_membership(set: &mut BTreeSet<String>, name: &str, member: bool) {
        if member {
            if !set.contains(name) {
                set.insert(name.to_string());
            }
        } else {
            set.remove(name);
        }
    }

    /// A worker's availability changed; refresh the first-fit index.
    fn refresh_fit(&mut self, worker: WorkerId) {
        if let Some(ws) = self.workers.get(&worker) {
            self.fit.update(worker, ws.available, ws.total);
        }
    }

    /// Ring membership changed; rebuild the first-fit index.
    fn rebuild_fit(&mut self) {
        let workers = &self.workers;
        self.fit.rebuild(self.ring.points(), |w| {
            let ws = &workers[&w];
            (ws.available, ws.total)
        });
    }

    // ---- membership ----

    pub fn worker_joined(&mut self, id: WorkerId, resources: Resources) {
        self.workers.insert(id, WorkerState::new(id, resources));
        self.ring.add(id);
        self.rebuild_fit();
    }

    /// A worker died or disconnected. Its instances are dropped and the
    /// units that were running there are requeued, one by one in dispatch
    /// order, each at the front of its queue (they have waited longest);
    /// a unit lost or handed back [`crate::MAX_FAILURES`] times in all
    /// fails instead. Returns their ids in dispatch order: the substrate
    /// cancels whatever they still had in flight.
    pub fn worker_left(&mut self, id: WorkerId) -> Vec<UnitId> {
        self.ring.remove(id);
        let Some(state) = self.workers.remove(&id) else {
            self.rebuild_fit();
            return Vec::new();
        };
        // drop instance bookkeeping
        let mut touched: Vec<String> = Vec::new();
        for (iid, inst) in &state.libraries {
            self.instance_owner.remove(iid);
            if let Some(m) = self.ready_slots.get_mut(&inst.spec.name) {
                m.remove(&(id, *iid));
            }
            // Starting instances count all their slots as free, so this
            // reclaims exactly what the install promised
            let supply = self
                .pending_supply
                .entry(inst.spec.name.clone())
                .or_insert(0);
            *supply -= i64::from(inst.free_slots());
            touched.push(inst.spec.name.clone());
        }
        for name in touched {
            self.reindex_lib(&name);
        }
        // the holders index never resurrects a dead worker (holders_of
        // verifies liveness anyway, but keep the sets tight)
        self.file_holders.retain(|_, ws| {
            ws.remove(&id);
            !ws.is_empty()
        });
        self.rebuild_fit();
        let (lost, requeue) = self.ledger.worker_lost(id);
        for unit in requeue {
            self.push_front(unit);
        }
        lost
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently holding `hash` in cache, ascending by id — backed
    /// by the reverse file index, verified against the live cache (workers
    /// evict internally, so the index alone is a superset).
    pub fn holders_of(&self, hash: ContentHash) -> impl Iterator<Item = WorkerId> + '_ {
        self.file_holders
            .get(&hash)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |w| {
                self.workers
                    .get(w)
                    .is_some_and(|ws| ws.cache.contains(hash))
            })
    }

    // ---- submission ----

    pub fn submit(&mut self, unit: WorkUnit) {
        match unit {
            WorkUnit::Task(t) => self.queue_tasks.push_back(t),
            WorkUnit::Call(c) => {
                let lib = c.library.clone();
                self.queue_calls
                    .entry(lib.clone())
                    .or_default()
                    .push_back(c);
                self.queued_calls += 1;
                self.reindex_lib(&lib);
            }
        }
    }

    /// Requeue a unit at the front (fault recovery).
    fn push_front(&mut self, unit: WorkUnit) {
        match unit {
            WorkUnit::Task(t) => self.queue_tasks.push_front(t),
            WorkUnit::Call(c) => {
                let lib = c.library.clone();
                self.queue_calls
                    .entry(lib.clone())
                    .or_default()
                    .push_front(c);
                self.queued_calls += 1;
                self.reindex_lib(&lib);
            }
        }
    }

    /// Units waiting + running (drives the paper's scale-dependent manager
    /// bookkeeping cost).
    pub fn pending(&self) -> usize {
        self.queued() + self.ledger.running_count()
    }

    /// Units waiting for a decision, including those given up on and not
    /// yet reported.
    pub fn queued(&self) -> usize {
        self.queue_tasks.len() + self.queued_calls + self.ledger.failures_pending()
    }

    pub fn running_count(&self) -> usize {
        self.ledger.running_count()
    }

    pub fn is_idle(&self) -> bool {
        self.queued() == 0 && self.ledger.running_count() == 0
    }

    /// Units completed since boot.
    pub fn completed(&self) -> u64 {
        self.ledger.completed
    }

    /// Units requeued since boot, after a worker loss or a hand-back.
    pub fn requeues(&self) -> u64 {
        self.ledger.requeues
    }

    // ---- scheduling ----

    /// Produce the next scheduling decision, applying its bookkeeping.
    /// Returns `None` when nothing can progress until an event arrives.
    pub fn next_decision(&mut self) -> Option<Decision> {
        // 0. report units given up on
        if let Some(d) = self.ledger.next_failure() {
            return Some(d);
        }
        // 1. unknown-library calls fail fast
        if let Some(d) = self.fail_unknown_library() {
            return Some(d);
        }
        // 2. dispatch a call into an existing free slot
        if let Some(d) = self.dispatch_call() {
            return Some(d);
        }
        // 3. dispatch a stateless task
        if let Some(d) = self.dispatch_task() {
            return Some(d);
        }
        // 4. install more library instances where demand exceeds supply
        if let Some(d) = self.install_library() {
            return Some(d);
        }
        // 5. evict an empty library blocking another library's demand
        self.evict_for_demand()
    }

    fn fail_unknown_library(&mut self) -> Option<Decision> {
        let lib = self.unknown_pending.first()?.clone();
        let call = self.queue_calls.get_mut(&lib).unwrap().pop_front().unwrap();
        self.queued_calls -= 1;
        self.reindex_lib(&lib);
        Some(Decision::Fail {
            unit: UnitId::Call(call.id),
            error: format!("unknown library: {lib}"),
        })
    }

    fn dispatch_call(&mut self) -> Option<Decision> {
        // the first library (BTreeSet order: deterministic, same as the
        // name-ordered scan it replaces) with both queued calls and a free
        // slot
        let lib_name = self.dispatchable.first()?.clone();
        let key = *self.ready_slots[&lib_name]
            .keys()
            .next()
            .expect("dispatchable index promised a free slot");
        let (worker, instance) = key;
        let call = self
            .queue_calls
            .get_mut(&lib_name)
            .unwrap()
            .pop_front()
            .unwrap();
        self.queued_calls -= 1;

        let w = self
            .workers
            .get_mut(&worker)
            .expect("indexed worker exists");
        w.begin_call(instance, &call)
            .expect("slot index promised a free slot");
        self.consume_slot(&lib_name, worker, instance);
        *self.pending_supply.entry(lib_name.clone()).or_insert(0) -= 1;
        self.reindex_lib(&lib_name);
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
            .fit
            .first_fit(self.ring.start_index(&task.name), &task.resources)?;
        let task = self.queue_tasks.pop_front().unwrap();
        let w = self.workers.get_mut(&worker).unwrap();
        // stage cacheable inputs into the view-cache optimistically: the
        // decision's `missing` list is what the substrate must move
        let mut missing: Vec<FileRef> = task
            .inputs
            .iter()
            .filter(|f| f.cache && !w.cache.contains(f.hash))
            .cloned()
            .collect();
        let mut arrived: Vec<ContentHash> = Vec::new();
        for f in &mut missing {
            if w.file_arrived(f.hash, f.materialized_bytes()).is_err() {
                // cache thrashing: the worker cannot hold this file, so the
                // staged copy goes straight into the sandbox — mark it
                // uncacheable in the decision so the substrate (and any
                // retry) does not keep treating it as a future cache hit
                f.cache = false;
            } else {
                arrived.push(f.hash);
            }
        }
        w.begin_task(&task).expect("resources were checked");
        for h in arrived {
            self.file_holders.entry(h).or_default().insert(worker);
        }
        self.refresh_fit(worker);
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
        self.demand_over.first().cloned()
    }

    fn install_library(&mut self) -> Option<Decision> {
        let lib_name = self.demand_exceeding_supply()?;
        let spec = Arc::clone(&self.specs[&lib_name]);
        let per_invocation = self.queue_calls[&lib_name]
            .front()
            .map(|c| c.resources)
            .unwrap_or_default();

        // whole-worker libraries (spec.resources == None) need a fully
        // free worker; sized libraries need their allocation to fit
        let start = self.ring.start_index(&lib_name);
        let worker = match spec.resources {
            Some(r) => self.fit.first_fit(start, &r),
            None => self.fit.first_free(start),
        }?;

        let instance = LibraryInstanceId(self.next_instance);
        self.next_instance += 1;

        let w = self.workers.get_mut(&worker).unwrap();
        let missing: Vec<FileRef> = spec
            .context
            .files()
            .filter(|f| !w.cache.contains(f.hash))
            .cloned()
            .collect();
        let mut arrived: Vec<ContentHash> = Vec::new();
        let mut staged_ok = true;
        for f in spec.context.files() {
            if w.file_arrived(f.hash, f.materialized_bytes()).is_err() {
                staged_ok = false;
                break;
            }
            arrived.push(f.hash);
        }
        for h in arrived {
            self.file_holders.entry(h).or_default().insert(worker);
        }
        if !staged_ok {
            return None;
        }
        let w = self.workers.get_mut(&worker).unwrap();
        let inst = w
            .install_library(instance, Arc::clone(&spec), &per_invocation)
            .ok()?;
        let slots = inst.slots;
        self.refresh_fit(worker);
        self.instance_owner.insert(instance, worker);
        *self.pending_supply.entry(lib_name.clone()).or_insert(0) += i64::from(slots);
        self.reindex_lib(&lib_name);
        Some(Decision::InstallLibrary {
            worker,
            instance,
            spec,
            missing,
        })
    }

    fn evict_for_demand(&mut self) -> Option<Decision> {
        // eviction only ever helps when a *different* library's instance
        // could be holding resources — with a single registered library
        // the scan below can never find a victim, so skip it (hot path:
        // this runs on every manager wake while demand is queued)
        if self.specs.len() < 2 {
            return None;
        }
        let needy = self.demand_exceeding_supply()?;
        // find an empty instance of a *different* library
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
        let name = inst.spec.name.clone();
        self.refresh_fit(worker);
        self.instance_owner.remove(&instance);
        if let Some(m) = self.ready_slots.get_mut(&name) {
            m.remove(&(worker, instance));
        }
        *self.pending_supply.entry(name.clone()).or_insert(0) -= i64::from(inst.free_slots());
        self.reindex_lib(&name);
        Ok(inst)
    }

    // ---- substrate events ----

    /// The substrate finished booting a library and its context setup
    /// succeeded (§3.4 step 2).
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
            .entry(name.clone())
            .or_default()
            .insert((worker, instance), slots);
        self.reindex_lib(&name);
        Ok(())
    }

    /// Context setup failed with the daemon's `error`; the instance is
    /// removed and its resources reclaimed. After
    /// [`crate::MAX_FAILURES`] such failures of one library in a row, its
    /// queued calls fail with that error.
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
        self.queued_calls -= self
            .ledger
            .startup_failed(&name, error, &mut self.queue_calls);
        self.reindex_lib(&name);
        Ok(())
    }

    /// `worker` reports `unit` done (successfully or not); its slot or
    /// resources are freed. `Ok(None)` when the unit is not running on
    /// `worker`: the report is stale (the unit was requeued and runs
    /// again) and changes nothing.
    pub fn unit_finished(&mut self, worker: WorkerId, unit: UnitId) -> Result<Option<Placement>> {
        let Some(done) = self.release(worker, unit, true)? else {
            return Ok(None);
        };
        self.ledger.finished(unit);
        Ok(Some(done.placement))
    }

    /// `worker` hands `unit` back unrun, through no fault of the unit (its
    /// instance vanished). Its slot or resources are freed without
    /// counting it served or completed, and the manager requeues its own
    /// copy at the front. A hand-back counts toward
    /// [`crate::MAX_FAILURES`] like a worker loss, so a unit handed back
    /// or lost that many times in all fails instead. `Ok(None)` when the
    /// unit is not running on `worker`.
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

    /// Take `unit` off `worker` and free its slot or resources; a call
    /// counts toward its instance's share value only when `served`.
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
                *self.pending_supply.entry(name.clone()).or_insert(0) += 1;
                self.reindex_lib(&name);
            }
            (UnitId::Task(id), _) => {
                w.finish_task(id)?;
                self.refresh_fit(worker);
            }
            (UnitId::Call(id), None) => {
                return Err(VineError::Internal(format!(
                    "call {id} ran without a library"
                )))
            }
        }
        Ok(Some(running))
    }

    /// Explicitly remove an idle library (application-driven uninstall).
    pub fn evict_instance(&mut self, worker: WorkerId, instance: LibraryInstanceId) -> Result<()> {
        self.remove_instance(worker, instance).map(|_| ())
    }

    /// All deployed instances (telemetry for Figs 10 & 11).
    pub fn instances(&self) -> impl Iterator<Item = (WorkerId, &LibraryInstance)> {
        self.workers
            .values()
            .flat_map(|w| w.libraries.values().map(move |l| (w.id, l)))
    }

    pub fn placement_of(&self, unit: UnitId) -> Option<Placement> {
        self.ledger.placement(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_FAILURES;
    use vine_core::context::ContextSpec;
    use vine_core::ids::{ContentHash, FileId, InvocationId, TaskId};

    fn lnni_spec() -> LibrarySpec {
        let mut spec = LibrarySpec::new("lnni");
        spec.functions = vec!["infer".into()];
        spec.context = ContextSpec {
            environment: Some(FileRef::new(
                FileId(1),
                "env.tar",
                ContentHash::of_str("env"),
                572,
            )),
            ..Default::default()
        };
        spec
    }

    fn call(i: u64) -> WorkUnit {
        let mut c = FunctionCall::new(InvocationId(i), "lnni", "infer", vec![]);
        c.resources = Resources::lnni_invocation();
        WorkUnit::Call(c)
    }

    fn manager_with_workers(n: u32) -> Manager {
        let mut m = Manager::new();
        m.register_library(lnni_spec());
        for i in 0..n {
            m.worker_joined(WorkerId(i), Resources::paper_worker());
        }
        m
    }

    /// Report `unit` done from the worker it runs on.
    fn finish(m: &mut Manager, unit: UnitId) {
        let worker = m.placement_of(unit).expect("running").worker;
        m.unit_finished(worker, unit)
            .unwrap()
            .expect("placed there");
    }

    /// Drive decisions, immediately acking installs as ready.
    fn drain(m: &mut Manager) -> Vec<Decision> {
        let mut out = Vec::new();
        while let Some(d) = m.next_decision() {
            if let Decision::InstallLibrary {
                worker, instance, ..
            } = &d
            {
                m.library_ready(*worker, *instance).unwrap();
            }
            out.push(d);
            if out.len() > 10_000 {
                panic!("runaway decision loop");
            }
        }
        out
    }

    #[test]
    fn install_then_dispatch_flow() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        // first decision: install (no instance exists)
        let d = m.next_decision().unwrap();
        let (worker, instance) = match &d {
            Decision::InstallLibrary {
                worker,
                instance,
                missing,
                ..
            } => {
                assert_eq!(missing.len(), 1, "env must be staged");
                (*worker, *instance)
            }
            other => panic!("expected install, got {other:?}"),
        };
        // the call cannot dispatch while the library is Starting
        assert!(m.next_decision().is_none());
        m.library_ready(worker, instance).unwrap();
        match m.next_decision().unwrap() {
            Decision::DispatchCall { library, call, .. } => {
                assert_eq!(library, instance);
                assert_eq!(call.id, InvocationId(1));
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(m.running_count(), 1);
        finish(&mut m, UnitId::Call(InvocationId(1)));
        assert_eq!(m.completed(), 1);
        assert!(m.is_idle());
    }

    #[test]
    fn second_install_reuses_cached_files() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        let decisions = drain(&mut m);
        finish(&mut m, UnitId::Call(InvocationId(1)));
        let Decision::InstallLibrary {
            worker, instance, ..
        } = &decisions[0]
        else {
            panic!()
        };
        // evict, then demand again: the env file is already cached
        m.evict_instance(*worker, *instance).unwrap();
        m.submit(call(2));
        match m.next_decision().unwrap() {
            Decision::InstallLibrary { missing, .. } => {
                assert!(missing.is_empty(), "env already on worker");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slots_fill_one_worker_before_installing_more() {
        let mut m = manager_with_workers(4);
        for i in 0..16 {
            m.submit(call(i));
        }
        let decisions = drain(&mut m);
        let installs = decisions
            .iter()
            .filter(|d| matches!(d, Decision::InstallLibrary { .. }))
            .count();
        let dispatches = decisions
            .iter()
            .filter(|d| matches!(d, Decision::DispatchCall { .. }))
            .count();
        // 16 calls fit in one whole-worker library with 16 slots
        assert_eq!(installs, 1);
        assert_eq!(dispatches, 16);
    }

    #[test]
    fn demand_spreads_across_workers() {
        let mut m = manager_with_workers(4);
        for i in 0..64 {
            m.submit(call(i));
        }
        let decisions = drain(&mut m);
        let installs: Vec<WorkerId> = decisions
            .iter()
            .filter_map(|d| match d {
                Decision::InstallLibrary { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        assert_eq!(installs.len(), 4, "64 calls need 4 × 16 slots");
        let mut unique = installs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "one instance per worker");
        assert_eq!(m.running_count(), 64);
    }

    #[test]
    fn completion_frees_slot_for_next_call() {
        let mut m = manager_with_workers(1);
        for i in 0..17 {
            m.submit(call(i));
        }
        drain(&mut m);
        assert_eq!(m.running_count(), 16);
        assert_eq!(m.queued(), 1);
        finish(&mut m, UnitId::Call(InvocationId(0)));
        match m.next_decision().unwrap() {
            Decision::DispatchCall { call, .. } => assert_eq!(call.id, InvocationId(16)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_library_fails_fast() {
        let mut m = manager_with_workers(1);
        m.submit(WorkUnit::Call(FunctionCall::new(
            InvocationId(9),
            "ghost",
            "f",
            vec![],
        )));
        match m.next_decision().unwrap() {
            Decision::Fail { unit, error } => {
                assert_eq!(unit, UnitId::Call(InvocationId(9)));
                assert!(error.contains("ghost"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_library_evicted_for_other_demand() {
        let mut m = manager_with_workers(1);
        // fill the worker with an idle lnni library
        m.submit(call(1));
        drain(&mut m);
        finish(&mut m, UnitId::Call(InvocationId(1)));

        // now demand for a different whole-worker library arrives
        let mut other = LibrarySpec::new("examol");
        other.functions = vec!["simulate".into()];
        m.register_library(other);
        m.submit(WorkUnit::Call(FunctionCall::new(
            InvocationId(2),
            "examol",
            "simulate",
            vec![],
        )));

        let decisions = drain(&mut m);
        assert!(
            matches!(&decisions[0], Decision::EvictLibrary { library_name, .. } if library_name == "lnni"),
            "{decisions:?}"
        );
        assert!(
            matches!(&decisions[1], Decision::InstallLibrary { spec, .. } if spec.name == "examol")
        );
        assert!(matches!(&decisions[2], Decision::DispatchCall { .. }));
    }

    #[test]
    fn busy_library_not_evicted() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        drain(&mut m); // lnni running invocation 1

        let mut other = LibrarySpec::new("examol");
        other.functions = vec!["simulate".into()];
        m.register_library(other);
        m.submit(WorkUnit::Call(FunctionCall::new(
            InvocationId(2),
            "examol",
            "simulate",
            vec![],
        )));
        // lnni is busy: nothing can progress
        assert!(m.next_decision().is_none());
        // once idle, eviction unblocks examol
        finish(&mut m, UnitId::Call(InvocationId(1)));
        let decisions = drain(&mut m);
        assert!(decisions
            .iter()
            .any(|d| matches!(d, Decision::EvictLibrary { .. })));
    }

    #[test]
    fn task_dispatch_and_finish() {
        let mut m = manager_with_workers(2);
        let mut t = TaskSpec::new(TaskId(1), "wrapped-f");
        t.resources = Resources::lnni_invocation();
        t.inputs = vec![FileRef::new(
            FileId(5),
            "data",
            ContentHash::of_str("data"),
            100,
        )];
        m.submit(WorkUnit::Task(t.clone()));
        match m.next_decision().unwrap() {
            Decision::DispatchTask { missing, .. } => assert_eq!(missing.len(), 1),
            other => panic!("{other:?}"),
        }
        finish(&mut m, UnitId::Task(TaskId(1)));

        // second task with the same input: now cached on that worker (the
        // ring walk for the same task name lands on the same worker)
        let mut t2 = t.clone();
        t2.id = TaskId(2);
        m.submit(WorkUnit::Task(t2));
        match m.next_decision().unwrap() {
            Decision::DispatchTask { missing, .. } => {
                assert!(missing.is_empty(), "input cached from task 1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn worker_loss_requeues_running_units() {
        let mut m = manager_with_workers(1);
        for i in 0..4 {
            m.submit(call(i));
        }
        drain(&mut m);
        assert_eq!(m.running_count(), 4);
        let lost = m.worker_left(WorkerId(0));
        assert_eq!(lost.len(), 4);
        assert_eq!(m.worker_count(), 0);
        assert_eq!(m.running_count(), 0);
        assert_eq!(m.queued(), 4, "the manager requeued them itself");
        assert_eq!(m.requeues(), 4);
        // with no workers nothing schedules
        assert!(m.next_decision().is_none());
        // a replacement worker picks the work back up
        m.worker_joined(WorkerId(1), Resources::paper_worker());
        let decisions = drain(&mut m);
        assert_eq!(
            decisions
                .iter()
                .filter(|d| matches!(d, Decision::DispatchCall { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn library_startup_failure_reclaims_resources() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        let d = m.next_decision().unwrap();
        let Decision::InstallLibrary {
            worker, instance, ..
        } = d
        else {
            panic!()
        };
        m.library_startup_failed(worker, instance, "boom").unwrap();
        assert_eq!(m.workers[&worker].available, Resources::paper_worker());
        // demand still queued: the manager tries again
        match m.next_decision().unwrap() {
            Decision::InstallLibrary { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    /// Fail every install of `lnni` that `next_decision` makes, until it
    /// makes something else; returns that.
    fn fail_installs(m: &mut Manager, failures: usize) -> Option<Decision> {
        for _ in 0..failures {
            let Some(Decision::InstallLibrary {
                worker, instance, ..
            }) = m.next_decision()
            else {
                panic!("expected an install")
            };
            m.library_startup_failed(worker, instance, "division by zero")
                .unwrap();
        }
        m.next_decision()
    }

    #[test]
    fn failing_queued_calls_drops_the_librarys_demand() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        m.submit(call(2));
        let mut failed = Vec::new();
        let mut next = fail_installs(&mut m, MAX_FAILURES as usize);
        while let Some(Decision::Fail { unit, error }) = next {
            assert_eq!(error, "library lnni failed to start: division by zero");
            failed.push(unit);
            next = m.next_decision();
        }
        assert_eq!(
            failed,
            [UnitId::Call(InvocationId(1)), UnitId::Call(InvocationId(2))]
        );
        assert!(next.is_none(), "nothing left to install for");
        assert!(m.is_idle());
    }

    #[test]
    fn a_ready_instance_resets_the_startup_failure_count() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        assert!(matches!(
            fail_installs(&mut m, MAX_FAILURES as usize - 1),
            Some(Decision::InstallLibrary { .. })
        ));
        let Some((worker, instance)) = m.instances().map(|(w, l)| (w, l.id)).next() else {
            panic!("the install is starting")
        };
        m.library_ready(worker, instance).unwrap();
        assert!(matches!(
            m.next_decision(),
            Some(Decision::DispatchCall { .. })
        ));
        finish(&mut m, UnitId::Call(InvocationId(1)));
        m.evict_instance(worker, instance).unwrap();
        // two more failures in a row stay under the limit
        m.submit(call(2));
        assert!(matches!(
            fail_installs(&mut m, MAX_FAILURES as usize - 1),
            Some(Decision::InstallLibrary { .. })
        ));
    }

    #[test]
    fn a_lost_workers_units_come_back_in_dispatch_order() {
        let mut m = Manager::new();
        let mut spec = lnni_spec();
        spec.resources = Some(Resources::new(16, 32 * 1024, 32 * 1024));
        m.register_library(spec);
        m.worker_joined(WorkerId(0), Resources::paper_worker());
        // dispatch order differs from id order, and mixes tasks and calls
        for i in [5, 3, 9] {
            m.submit(call(i));
        }
        let mut t = TaskSpec::new(TaskId(1), "t");
        t.resources = Resources::lnni_invocation();
        m.submit(WorkUnit::Task(t));
        let order: Vec<UnitId> = drain(&mut m)
            .iter()
            .filter_map(|d| match d {
                Decision::DispatchCall { call, .. } => Some(UnitId::Call(call.id)),
                Decision::DispatchTask { task, .. } => Some(UnitId::Task(task.id)),
                _ => None,
            })
            .collect();
        assert_eq!(order.len(), 4);
        assert_ne!(order, {
            let mut sorted = order.clone();
            sorted.sort();
            sorted
        });
        assert_eq!(m.worker_left(WorkerId(0)), order);
        // each went to the front of its queue in turn, so the last one
        // dispatched is the first one out
        m.worker_joined(WorkerId(1), Resources::paper_worker());
        let again: Vec<UnitId> = drain(&mut m)
            .iter()
            .filter_map(|d| match d {
                Decision::DispatchCall { call, .. } => Some(UnitId::Call(call.id)),
                _ => None,
            })
            .collect();
        let calls: Vec<UnitId> = order
            .iter()
            .rev()
            .filter(|u| matches!(u, UnitId::Call(_)))
            .copied()
            .collect();
        assert_eq!(again, calls);
    }

    #[test]
    fn a_unit_whose_worker_is_lost_a_third_time_fails() {
        let mut m = manager_with_workers(0);
        m.submit(call(1));
        for w in 0..MAX_FAILURES {
            m.worker_joined(WorkerId(w), Resources::paper_worker());
            drain(&mut m);
            assert!(m.placement_of(UnitId::Call(InvocationId(1))).is_some());
            assert_eq!(m.worker_left(WorkerId(w)), [UnitId::Call(InvocationId(1))]);
        }
        assert_eq!(m.requeues(), u64::from(MAX_FAILURES) - 1);
        match m.next_decision() {
            Some(Decision::Fail { unit, error }) => {
                assert_eq!(unit, UnitId::Call(InvocationId(1)));
                assert!(error.contains("losing its worker 3 times"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        assert!(m.is_idle());
    }

    /// Hand `unit` back from the worker it runs on, then drive decisions.
    fn hand_back(m: &mut Manager, unit: UnitId) -> Vec<Decision> {
        let worker = m.placement_of(unit).expect("running").worker;
        m.unit_handed_back(worker, unit)
            .unwrap()
            .expect("placed there");
        drain(m)
    }

    #[test]
    fn a_call_handed_back_a_third_time_fails() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        drain(&mut m);
        let unit = UnitId::Call(InvocationId(1));
        for _ in 1..MAX_FAILURES {
            let again = hand_back(&mut m, unit);
            assert!(
                matches!(&again[..], [Decision::DispatchCall { call, .. }] if call.id == InvocationId(1)),
                "{again:?}"
            );
        }
        match &hand_back(&mut m, unit)[..] {
            [Decision::Fail {
                unit: failed,
                error,
            }] => {
                assert_eq!(*failed, unit);
                assert!(error.contains("3 hand-backs"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        assert!(m.is_idle());
        assert_eq!((m.requeues(), m.completed()), (2, 0));

        // hand-backs and worker losses count against one cap
        m.submit(call(2));
        drain(&mut m);
        let unit = UnitId::Call(InvocationId(2));
        let mut last = hand_back(&mut m, unit);
        for w in 1..MAX_FAILURES {
            m.worker_joined(WorkerId(w), Resources::paper_worker());
            let lost = m.placement_of(unit).unwrap().worker;
            assert_eq!(m.worker_left(lost), [unit]);
            last = drain(&mut m);
        }
        match &last[..] {
            [Decision::Fail { error, .. }] => {
                assert!(
                    error.contains("1 hand-backs and 2 worker losses"),
                    "{error}"
                )
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_call_handed_back_twice_and_then_finished_succeeds() {
        let mut m = manager_with_workers(1);
        m.submit(call(1));
        drain(&mut m);
        let unit = UnitId::Call(InvocationId(1));
        for _ in 1..MAX_FAILURES {
            hand_back(&mut m, unit);
        }
        finish(&mut m, unit);
        assert_eq!(drain(&mut m), []);
        assert!(m.is_idle());
        assert_eq!((m.requeues(), m.completed()), (2, 1));
    }

    #[test]
    fn only_the_placed_worker_finishes_or_hands_back_a_unit() {
        let mut m = manager_with_workers(2);
        m.submit(call(1));
        drain(&mut m);
        let unit = UnitId::Call(InvocationId(1));
        let placed = m.placement_of(unit).unwrap().worker;
        let other = WorkerId(1 - placed.0);
        assert_eq!(m.unit_finished(other, unit).unwrap(), None);
        assert_eq!(m.unit_handed_back(other, unit).unwrap(), None);
        assert_eq!(m.running_count(), 1, "stale reports change nothing");
        assert!(m.unit_handed_back(placed, unit).unwrap().is_some());
        assert_eq!(m.requeues(), 1);
        // the hand-back is neither served nor completed
        assert_eq!(m.completed(), 0);
        assert_eq!(m.instances().map(|(_, l)| l.served).sum::<u64>(), 0);
        drain(&mut m);
        finish(&mut m, unit);
        assert_eq!(m.completed(), 1);
        assert_eq!(m.instances().map(|(_, l)| l.served).sum::<u64>(), 1);
    }

    #[test]
    fn pending_counts() {
        let mut m = manager_with_workers(1);
        assert_eq!(m.pending(), 0);
        m.submit(call(1));
        m.submit(call(2));
        assert_eq!(m.pending(), 2);
        drain(&mut m);
        assert_eq!(m.queued(), 0);
        assert_eq!(m.pending(), 2, "running units still pending");
    }

    #[test]
    fn telemetry_instances_and_share() {
        let mut m = manager_with_workers(2);
        for i in 0..20 {
            m.submit(call(i));
        }
        drain(&mut m);
        for i in 0..20 {
            // finish only those actually dispatched
            if m.placement_of(UnitId::Call(InvocationId(i))).is_some() {
                finish(&mut m, UnitId::Call(InvocationId(i)));
            }
        }
        let served: u64 = m.instances().map(|(_, l)| l.served).sum();
        assert_eq!(served, m.completed());
        assert!(m.instances().count() >= 1);
    }

    #[test]
    fn staging_failure_marks_file_uncacheable() {
        // worker whose disk (= cache capacity) is 1 MB: a 2 MB input can
        // never be cached, but the task itself fits
        let mut m = Manager::new();
        m.worker_joined(WorkerId(0), Resources::new(32, 64 * 1024, 1));
        let mut t = TaskSpec::new(TaskId(1), "big-input");
        t.resources = Resources::new(1, 1024, 0);
        t.inputs = vec![FileRef::new(
            FileId(9),
            "blob",
            ContentHash::of_str("blob"),
            2 * 1024 * 1024,
        )];
        assert!(t.inputs[0].cache, "input starts cacheable");
        m.submit(WorkUnit::Task(t));
        match m.next_decision().unwrap() {
            Decision::DispatchTask {
                worker, missing, ..
            } => {
                assert_eq!(missing.len(), 1, "the blob must still be staged");
                assert!(
                    !missing[0].cache,
                    "staging failure must mark the file uncacheable"
                );
                assert!(
                    !m.workers[&worker].cache.contains(missing[0].hash),
                    "the cache rejected it"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn holders_index_tracks_staged_files() {
        let mut m = manager_with_workers(2);
        let mut t = TaskSpec::new(TaskId(1), "wrapped-f");
        t.resources = Resources::lnni_invocation();
        let hash = ContentHash::of_str("data");
        t.inputs = vec![FileRef::new(FileId(5), "data", hash, 100)];
        m.submit(WorkUnit::Task(t));
        let Some(Decision::DispatchTask { worker, .. }) = m.next_decision() else {
            panic!()
        };
        assert_eq!(m.holders_of(hash).collect::<Vec<_>>(), vec![worker]);
        // removing the worker removes it from the index
        m.worker_left(worker);
        assert_eq!(m.holders_of(hash).count(), 0);
    }
}
