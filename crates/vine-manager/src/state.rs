//! The manager's model of one worker (paper §2.2.3, §3.4): its
//! content-addressed cache (context on disk, L2), its deployed
//! [`LibraryInstance`]s (context in memory, L3), and strict resource
//! accounting (§2.1.3: "a worker must be able to account for such resource
//! occupation ... and report such consumption back to the manager").
//!
//! [`WorkerState`] is a pure state machine: it validates and applies
//! transitions but attaches no timing and performs no I/O. The
//! [`crate::Manager`] owns one per admitted worker and updates it as it
//! emits decisions; the substrates (simulator or live runtime) execute the
//! work and report completions back through the manager.

use crate::library::{LibState, LibraryInstance};
use std::collections::BTreeMap;
use std::sync::Arc;
use vine_core::context::LibrarySpec;
use vine_core::ids::{ContentHash, InvocationId, LibraryInstanceId, TaskId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, TaskSpec};
use vine_core::{Result, VineError};
use vine_data::WorkerCache;

/// The manager's view of one worker.
#[derive(Debug)]
pub struct WorkerState {
    pub id: WorkerId,
    /// Total capacity.
    pub total: Resources,
    /// Currently unallocated capacity.
    pub available: Resources,
    /// On-disk content cache.
    pub cache: WorkerCache,
    pub libraries: BTreeMap<LibraryInstanceId, LibraryInstance>,
    /// Plain (non-library) tasks: the resources each holds and the cached
    /// inputs it pinned.
    tasks: BTreeMap<TaskId, (Resources, Vec<ContentHash>)>,
}

impl WorkerState {
    pub fn new(id: WorkerId, total: Resources) -> WorkerState {
        WorkerState {
            id,
            total,
            available: total,
            cache: WorkerCache::new(total.disk_mb * 1024 * 1024),
            libraries: BTreeMap::new(),
            tasks: BTreeMap::new(),
        }
    }

    /// The paper's evaluation worker (§4.2): 32 cores, 64 GB mem, 64 GB
    /// disk.
    pub fn paper(id: WorkerId) -> WorkerState {
        WorkerState::new(id, Resources::paper_worker())
    }

    fn allocate(&mut self, want: &Resources) -> Result<()> {
        match self.available.checked_sub(want) {
            Some(rest) => {
                self.available = rest;
                Ok(())
            }
            None => Err(VineError::ResourceExhausted(format!(
                "worker {}: want {:?}, available {:?}",
                self.id, want, self.available
            ))),
        }
    }

    fn release(&mut self, held: &Resources) {
        self.available += *held;
        debug_assert!(
            self.total.can_fit(&self.available),
            "released more than allocated on {}",
            self.id
        );
    }

    // ---- files ----

    /// A file arrived (from manager, peer, or unpacking); cache it.
    pub fn file_arrived(&mut self, hash: ContentHash, materialized_bytes: u64) -> Result<()> {
        self.cache.insert(hash, materialized_bytes)
    }

    // ---- libraries ----

    /// Stage 1 of library deployment: reserve resources and create the
    /// Starting instance (files must already be cached; the substrate then
    /// boots the daemon and runs context setup).
    pub fn install_library(
        &mut self,
        id: LibraryInstanceId,
        spec: Arc<LibrarySpec>,
        per_invocation: &Resources,
    ) -> Result<&LibraryInstance> {
        let resources = spec.resources.unwrap_or(self.total);
        let slots = spec.resolve_slots(&self.total, per_invocation);
        self.allocate(&resources)?;
        // pin the context's files for the library's lifetime
        for f in spec.context.files() {
            if let Err(e) = self.cache.pin(f.hash) {
                self.release(&resources);
                return Err(e);
            }
        }
        let inst = LibraryInstance::new(id, spec, resources, slots);
        self.libraries.insert(id, inst);
        Ok(&self.libraries[&id])
    }

    /// Stage 2: the daemon reported Ready (§3.4 step 2).
    pub fn library_ready(&mut self, id: LibraryInstanceId) -> Result<()> {
        let lib = self.library_mut(id)?;
        if lib.state != LibState::Starting {
            return Err(VineError::Protocol(format!(
                "library {id} ready from state {:?}",
                lib.state
            )));
        }
        lib.state = LibState::Ready;
        Ok(())
    }

    /// The daemon failed during startup.
    pub fn library_failed(&mut self, id: LibraryInstanceId) -> Result<()> {
        self.library_mut(id)?.state = LibState::Failed;
        Ok(())
    }

    /// Remove a library and reclaim its resources. Only valid when no
    /// invocation is running in it (the manager evicts *empty* libraries,
    /// §3.5.2).
    pub fn remove_library(&mut self, id: LibraryInstanceId) -> Result<LibraryInstance> {
        let lib = self.library_mut(id)?;
        if !lib.is_empty() {
            return Err(VineError::Protocol(format!(
                "cannot remove busy library {id} ({} running)",
                lib.running.len()
            )));
        }
        let lib = self.libraries.remove(&id).unwrap();
        for f in lib.spec.context.files() {
            // pins were taken at install; ignore a missing file only if the
            // cache itself was never populated (failed install path)
            let _ = self.cache.unpin(f.hash);
        }
        self.release(&lib.resources);
        Ok(lib)
    }

    fn library_mut(&mut self, id: LibraryInstanceId) -> Result<&mut LibraryInstance> {
        self.libraries
            .get_mut(&id)
            .ok_or_else(|| VineError::Protocol(format!("no library instance {id}")))
    }

    /// Instances that are Ready and idle (eviction candidates).
    pub fn empty_libraries(&self) -> Vec<LibraryInstanceId> {
        self.libraries
            .values()
            .filter(|l| l.is_empty() && l.state != LibState::Starting)
            .map(|l| l.id)
            .collect()
    }

    // ---- invocations ----

    /// Begin an invocation on a library: occupy a slot (§3.4 step 3).
    pub fn begin_call(&mut self, lib: LibraryInstanceId, call: &FunctionCall) -> Result<()> {
        let l = self.library_mut(lib)?;
        if !l.spec.hosts_function(&call.function) {
            return Err(VineError::UnknownFunction {
                library: l.spec.name.clone(),
                function: call.function.clone(),
            });
        }
        l.begin(call.id)
    }

    /// Finish an invocation: free the slot and, if it ran (`served`), bump
    /// the share value (§3.4 step 4).
    pub fn finish_call(
        &mut self,
        lib: LibraryInstanceId,
        id: InvocationId,
        served: bool,
    ) -> Result<()> {
        self.library_mut(lib)?.finish(id, served)
    }

    // ---- plain tasks ----

    /// Begin a stateless task: allocate resources and pin its cached
    /// inputs for the task's lifetime.
    pub fn begin_task(&mut self, task: &TaskSpec) -> Result<()> {
        if self.tasks.contains_key(&task.id) {
            return Err(VineError::Protocol(format!(
                "task {} already running",
                task.id
            )));
        }
        self.allocate(&task.resources)?;
        let mut pinned = Vec::new();
        for f in &task.inputs {
            if self.cache.contains(f.hash) {
                self.cache.pin(f.hash)?;
                pinned.push(f.hash);
            }
        }
        self.tasks.insert(task.id, (task.resources, pinned));
        Ok(())
    }

    /// Finish a stateless task: release resources and unpin inputs.
    pub fn finish_task(&mut self, id: TaskId) -> Result<()> {
        let (held, pinned) = self
            .tasks
            .remove(&id)
            .ok_or_else(|| VineError::Protocol(format!("task {id} not running")))?;
        self.release(&held);
        for h in pinned {
            self.cache.unpin(h)?;
        }
        Ok(())
    }

    /// Fraction of total cores currently allocated to *executing* work
    /// (libraries count their busy slots, not their whole reservation) —
    /// drives the contention model.
    pub fn occupancy(&self) -> f64 {
        if self.total.cores == 0 {
            return 0.0;
        }
        let task_cores: u32 = self.tasks.values().map(|(r, _)| r.cores).sum();
        let lib_cores: u32 = self
            .libraries
            .values()
            .map(|l| {
                let per_slot = l.resources.cores / l.slots.max(1);
                per_slot * l.running.len() as u32
            })
            .sum();
        f64::from(task_cores + lib_cores) / f64::from(self.total.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_core::context::{ContextSpec, FileRef};
    use vine_core::ids::FileId;

    fn file(i: u64, size: u64) -> FileRef {
        FileRef::new(
            FileId(i),
            format!("f{i}"),
            ContentHash::of_str(&format!("content-{i}")),
            size,
        )
    }

    fn lnni_spec(with_files: bool) -> LibrarySpec {
        let mut spec = LibrarySpec::new("lnni");
        spec.functions = vec!["infer".into()];
        if with_files {
            spec.context = ContextSpec {
                data: vec![file(1, 1000)],
                environment: Some(file(2, 500)),
                ..Default::default()
            };
        }
        spec
    }

    fn call(i: u64) -> FunctionCall {
        let mut c = FunctionCall::new(InvocationId(i), "lnni", "infer", vec![]);
        c.resources = Resources::lnni_invocation();
        c
    }

    fn ready_worker() -> (WorkerState, LibraryInstanceId) {
        let mut w = WorkerState::paper(WorkerId(0));
        w.file_arrived(file(1, 1000).hash, 1000).unwrap();
        w.file_arrived(file(2, 500).hash, 500).unwrap();
        let id = LibraryInstanceId(1);
        w.install_library(id, Arc::new(lnni_spec(true)), &Resources::lnni_invocation())
            .unwrap();
        w.library_ready(id).unwrap();
        (w, id)
    }

    #[test]
    fn whole_worker_library_gets_sixteen_slots() {
        let (w, id) = ready_worker();
        assert_eq!(w.libraries[&id].slots, 16, "paper §4.2: 16 LNNI slots");
        assert_eq!(w.available, Resources::ZERO, "library owns the worker");
    }

    #[test]
    fn library_lifecycle_and_accounting() {
        let (mut w, id) = ready_worker();
        w.begin_call(id, &call(1)).unwrap();
        w.begin_call(id, &call(2)).unwrap();
        assert_eq!(w.libraries[&id].running.len(), 2);

        // busy library cannot be removed
        assert!(w.remove_library(id).is_err());

        w.finish_call(id, InvocationId(1), true).unwrap();
        w.finish_call(id, InvocationId(2), true).unwrap();
        assert_eq!(w.libraries[&id].served, 2);
        assert!(w.libraries[&id].is_empty());

        // now removable; resources return
        w.remove_library(id).unwrap();
        assert_eq!(w.available, w.total);
        assert!(w.libraries.is_empty());
    }

    #[test]
    fn install_requires_resources() {
        let mut w = WorkerState::paper(WorkerId(0));
        let mut spec = lnni_spec(false);
        spec.resources = Some(Resources::new(20, 1024, 1024));
        let spec = Arc::new(spec);
        w.install_library(
            LibraryInstanceId(1),
            Arc::clone(&spec),
            &Resources::new(1, 1, 1),
        )
        .unwrap();
        // second 20-core library does not fit in the remaining 12 cores
        let e = w
            .install_library(LibraryInstanceId(2), spec, &Resources::new(1, 1, 1))
            .unwrap_err();
        assert!(matches!(e, VineError::ResourceExhausted(_)));
        // but a small one does
        let mut small = lnni_spec(false);
        small.resources = Some(Resources::new(4, 1024, 1024));
        w.install_library(
            LibraryInstanceId(3),
            Arc::new(small),
            &Resources::new(1, 1, 1),
        )
        .unwrap();
    }

    #[test]
    fn install_pins_context_files() {
        let (mut w, id) = ready_worker();
        // context files are pinned: the cache refuses to evict them even
        // under pressure (insert something that cannot fit without them)
        let cap = w.cache.capacity();
        let e = w
            .file_arrived(ContentHash::of_str("huge"), cap)
            .unwrap_err();
        assert!(matches!(e, VineError::ResourceExhausted(_)));
        // after removal, pins are gone and eviction can proceed
        w.remove_library(id).unwrap();
        w.file_arrived(ContentHash::of_str("huge"), cap).unwrap();
    }

    #[test]
    fn install_missing_file_rolls_back_allocation() {
        let mut w = WorkerState::paper(WorkerId(0));
        // context references files never staged to the cache
        let e = w
            .install_library(
                LibraryInstanceId(1),
                Arc::new(lnni_spec(true)),
                &Resources::lnni_invocation(),
            )
            .unwrap_err();
        assert!(matches!(e, VineError::Data(_)), "{e}");
        assert_eq!(w.available, w.total, "allocation rolled back");
        assert!(w.libraries.is_empty());
    }

    #[test]
    fn dispatch_to_unready_library_fails() {
        let mut w = WorkerState::paper(WorkerId(0));
        let id = LibraryInstanceId(1);
        w.install_library(
            id,
            Arc::new(lnni_spec(false)),
            &Resources::lnni_invocation(),
        )
        .unwrap();
        assert!(w.begin_call(id, &call(1)).is_err(), "still Starting");
        w.library_ready(id).unwrap();
        w.begin_call(id, &call(1)).unwrap();
    }

    #[test]
    fn wrong_function_rejected() {
        let (mut w, id) = ready_worker();
        let mut c = call(1);
        c.function = "train".into();
        let e = w.begin_call(id, &c).unwrap_err();
        assert!(matches!(e, VineError::UnknownFunction { .. }));
    }

    #[test]
    fn slots_exhaust_at_sixteen() {
        let (mut w, id) = ready_worker();
        for i in 0..16 {
            w.begin_call(id, &call(i)).unwrap();
        }
        assert!(w.begin_call(id, &call(16)).is_err());
        assert_eq!(w.libraries[&id].free_slots(), 0);
        assert!((w.occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn plain_task_lifecycle() {
        let mut w = WorkerState::paper(WorkerId(0));
        let mut t = TaskSpec::new(TaskId(1), "wrapped");
        t.resources = Resources::new(2, 4096, 4096);
        t.inputs = vec![file(1, 100)];
        w.file_arrived(t.inputs[0].hash, 100).unwrap();

        w.begin_task(&t).unwrap();
        assert_eq!(w.tasks.len(), 1);
        assert!(w.begin_task(&t).is_err(), "duplicate task");
        // the input is pinned while the task runs
        assert!(w.cache.remove(t.inputs[0].hash).is_err());

        w.finish_task(TaskId(1)).unwrap();
        assert_eq!(w.available, w.total);
        assert!(w.tasks.is_empty());
        w.cache.remove(t.inputs[0].hash).unwrap();
        assert!(w.finish_task(TaskId(1)).is_err(), "double finish");
    }

    #[test]
    fn empty_library_listing_skips_starting_and_busy() {
        let mut w = WorkerState::paper(WorkerId(0));
        let mut spec = lnni_spec(false);
        spec.resources = Some(Resources::new(4, 4096, 4096));
        spec.slots = Some(2);
        let a = LibraryInstanceId(1);
        let b = LibraryInstanceId(2);
        let spec = Arc::new(spec);
        w.install_library(a, Arc::clone(&spec), &Resources::new(2, 2048, 2048))
            .unwrap();
        w.install_library(b, spec, &Resources::new(2, 2048, 2048))
            .unwrap();
        // a still Starting → not an eviction candidate
        assert!(w.empty_libraries().is_empty());
        w.library_ready(a).unwrap();
        w.library_ready(b).unwrap();
        assert_eq!(w.empty_libraries(), vec![a, b]);
        w.begin_call(a, &call(1)).unwrap();
        assert_eq!(w.empty_libraries(), vec![b]);
    }

    #[test]
    fn occupancy_counts_busy_slots_not_reservations() {
        let (mut w, id) = ready_worker();
        assert_eq!(w.occupancy(), 0.0, "idle library: zero occupancy");
        w.begin_call(id, &call(1)).unwrap();
        // one busy slot of 16 on a 32-core worker = 2 cores
        assert!((w.occupancy() - 2.0 / 32.0).abs() < 1e-9);
    }
}
