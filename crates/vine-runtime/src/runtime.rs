//! The live runtime: the same [`vine_manager::Manager`] brain driving real
//! workers through a pluggable [`Transport`] — threads-and-channels in
//! process, or framed TCP to workers in other OS processes. The runtime
//! turns transport events into manager calls and decisions into messages;
//! what runs where, and what a lost or failed unit becomes, is the
//! manager's.

use crate::transport::{InProcTransport, RecvError, Transport, TransportEvent, TransportStats};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use vine_core::context::{LibrarySpec, SetupSpec};
use vine_core::ids::{ContentHash, LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{Outcome, WorkUnit};
use vine_core::{Result, VineError};
use vine_lang::ast::StmtKind;
use vine_lang::pickle;
use vine_lang::{ModuleRegistry, Value};
use vine_manager::{Decision, Manager};
use vine_proto::{CompiledBlob, LibraryImage, ManagerToWorker, WorkerToManager};

/// Live cluster configuration.
#[derive(Clone)]
pub struct RuntimeConfig {
    pub workers: usize,
    pub worker_resources: Resources,
    /// Modules available on workers (the activated environment).
    pub registry: ModuleRegistry,
    /// Give up if the cluster makes no progress for this long.
    pub idle_timeout: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            worker_resources: Resources::new(8, 16 * 1024, 16 * 1024),
            registry: ModuleRegistry::new(),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// How the manager's installs got their compiled modules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Installs that reused the module of an installed library with the
    /// same source digest.
    pub hits: u64,
    /// Installs that compiled their module.
    pub misses: u64,
}

/// A live cluster: manager in this struct, workers wherever the transport
/// put them.
pub struct Runtime {
    mgr: Manager,
    transport: Box<dyn Transport>,
    /// What a worker boots for each installed library: one image, sent
    /// with the instance id of each install. Its compiled module is the
    /// only copy the manager keeps.
    images: BTreeMap<String, LibraryImage>,
    /// Parameter count per exported function of each installed library,
    /// for submit-time validation.
    arities: BTreeMap<String, BTreeMap<String, usize>>,
    outcomes: Vec<Outcome>,
    idle_timeout: Duration,
    /// Module names the workers' activated environment provides, retained
    /// for install-time pre-flight analysis.
    module_names: BTreeSet<String>,
    image_stats: ImageStats,
}

impl Runtime {
    /// Boot a cluster of in-process worker threads (the historical — and
    /// still default — substrate).
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        let transport =
            InProcTransport::new(cfg.workers, cfg.worker_resources, cfg.registry.clone());
        Runtime::with_transport(cfg, Box::new(transport))
            .expect("in-process workers join instantly")
    }

    /// Boot a cluster over any transport. Blocks until `cfg.workers`
    /// workers have joined (for TCP: until that many dialed in), failing
    /// with [`VineError::Timeout`] after `cfg.idle_timeout`.
    pub fn with_transport(cfg: RuntimeConfig, transport: Box<dyn Transport>) -> Result<Runtime> {
        let module_names: BTreeSet<String> = cfg.registry.names().map(|n| n.to_string()).collect();
        let mut rt = Runtime {
            mgr: Manager::new(),
            transport,
            images: BTreeMap::new(),
            arities: BTreeMap::new(),
            outcomes: Vec::new(),
            idle_timeout: cfg.idle_timeout,
            module_names,
            image_stats: ImageStats::default(),
        };
        while rt.mgr.worker_count() < cfg.workers {
            let joined = rt.mgr.worker_count();
            let ev = rt.transport.recv_timeout(rt.idle_timeout).map_err(|_| {
                VineError::Timeout(format!(
                    "waiting for {} worker(s) to join, {} joined",
                    cfg.workers, joined
                ))
            })?;
            rt.handle(ev)?;
        }
        Ok(rt)
    }

    /// Register a library: the spec (for the scheduler) plus what workers
    /// need to boot it — module source, serialized code objects, and
    /// context-setup arguments (Fig 5's `create_library_from_functions` +
    /// `install_library`). The setup arguments ride in the spec's
    /// `context.setup`, and the module is compiled here, once, from the
    /// program the pre-flight parsed: workers boot compiled code only.
    ///
    /// Runs the `vine-lint` pre-flight first: a library that would only
    /// fail after its context shipped to workers is rejected here instead
    /// (hard errors return [`VineError::Lint`]; warnings are logged to
    /// stderr and installation proceeds).
    pub fn install_library(
        &mut self,
        mut spec: LibrarySpec,
        source: &str,
        serialized_functions: Vec<Vec<u8>>,
        setup_args: &[Value],
    ) -> Result<()> {
        // recover names and arities from serialized code objects, so the
        // linter and submit-time validation see them like source defs
        let mut arities: BTreeMap<String, usize> = BTreeMap::new();
        let mut serialized_names = Vec::with_capacity(serialized_functions.len());
        for blob in &serialized_functions {
            let def = pickle::deserialize_funcdef(blob)?;
            serialized_names.push(def.name.clone());
            arities.insert(def.name.clone(), def.params.len());
        }
        let pre = vine_lint::LibraryPreflight {
            available_modules: self.module_names.clone(),
            declared_deps: None,
            workers: self.worker_capacities(),
            serialized_functions: serialized_names,
            setup_argc: spec.context.setup.as_ref().map(|_| setup_args.len()),
        };
        let (report, prog) = vine_lint::lint_library(&spec, source, &pre);
        if report.has_errors() {
            return Err(VineError::Lint(report.render()));
        }
        if !report.is_clean() {
            eprintln!("{}", report.render());
        }
        // source that does not parse failed the pre-flight (V001); empty
        // source is the empty program
        let prog = prog.unwrap_or_default();
        for s in &prog {
            if let StmtKind::FuncDef(f) = &s.kind {
                arities.insert(f.name.clone(), f.params.len());
            }
        }
        arities.retain(|name, _| spec.hosts_function(name));
        // compile-on-install: the module is context computed once on the
        // manager, and an installed library with the same source digest
        // already holds it
        let digest = ContentHash::of_str(source);
        let installed = self.images.values().find_map(|image| {
            let compiled = image.compiled.as_ref()?;
            (compiled.source_digest == digest).then(|| compiled.bytes.clone())
        });
        let bytes = match installed {
            Some(bytes) => {
                self.image_stats.hits += 1;
                bytes
            }
            None => {
                self.image_stats.misses += 1;
                vine_lang::compile_module(&prog, source).to_bytes()
            }
        };
        if let Some(setup) = &mut spec.context.setup {
            setup.args_blob = pickle::serialize_args(setup_args)?;
        }
        let image = LibraryImage {
            instance: LibraryInstanceId(0),
            source: source.to_string(),
            serialized_functions,
            setup: spec.context.setup.clone(),
            default_mode: spec.exec_mode,
            compiled: Some(CompiledBlob {
                source_digest: digest,
                bytes,
            }),
        };
        self.images.insert(spec.name.clone(), image);
        self.arities.insert(spec.name.clone(), arities);
        self.mgr.register_library(spec);
        Ok(())
    }

    /// Install a library by *discovering* its context from a plain module:
    /// the flow analysis ([`vine_flow::discover`]) classifies module-level
    /// statements as invocation-invariant context or per-instance residue
    /// and assembles the library program, which this method installs
    /// unchanged with the program's named setup as the spec's setup.
    ///
    /// The user writes the module exactly as they would for local
    /// execution; the paper's §6 "seamless discovery" is this call. The
    /// differential proptest in `vine-flow` boots the same program the
    /// same way and holds it to bit-identical execution.
    pub fn install_library_auto(
        &mut self,
        mut spec: LibrarySpec,
        module_src: &str,
        work_functions: &[&str],
    ) -> Result<vine_flow::FlowDiscovery> {
        let flow = vine_flow::discover(module_src, work_functions)?;
        if spec.functions.is_empty() {
            spec.functions = work_functions.iter().map(|s| s.to_string()).collect();
        }
        spec.context.setup = Some(SetupSpec {
            function: flow.context.setup.clone(),
            args_blob: Vec::new(),
        });
        self.install_library(spec, &flow.context.source, vec![], &[])?;
        Ok(flow)
    }

    /// Parameter count of an installed library's exported function, when
    /// known. `None` means the library or function is not installed.
    pub fn function_arity(&self, library: &str, function: &str) -> Option<usize> {
        self.arities.get(library)?.get(function).copied()
    }

    /// Arity map of every installed library, in the shape
    /// [`vine_lint::lint_dag`] consumes: library → function → params.
    pub fn library_arities(&self) -> BTreeMap<String, BTreeMap<String, usize>> {
        self.arities.clone()
    }

    /// Capacity of each admitted worker, ascending by id (placement
    /// pre-flight input).
    pub fn worker_capacities(&self) -> Vec<Resources> {
        self.mgr.workers.values().map(|w| w.total).collect()
    }

    pub fn submit(&mut self, unit: WorkUnit) {
        self.mgr.submit(unit);
    }

    /// Kill a worker (fault injection): its thread or connection is torn
    /// down; the manager requeues its running units onto the survivors.
    /// A leave observed twice (this kill, then the transport's own report)
    /// changes nothing the second time.
    pub fn kill_worker(&mut self, id: WorkerId) {
        self.transport.disconnect(id);
        self.mgr.worker_left(id);
    }

    /// Drive the cluster until the *next* unit completes, returning its
    /// outcome — `Ok(None)` once everything is done. This is the primitive
    /// a dataflow layer needs: it can submit newly unblocked work between
    /// completions (the paper's Parsl integration receives "an arbitrary
    /// stream of function invocations", §3.6).
    pub fn run_next(&mut self) -> Result<Option<Outcome>> {
        loop {
            self.pump()?;
            if let Some(o) = self.outcomes.pop() {
                return Ok(Some(o));
            }
            if self.mgr.is_idle() {
                return Ok(None);
            }
            self.wait_for_event()?;
        }
    }

    /// Drive scheduling and execution until every submitted unit has a
    /// result. Returns the outcomes accumulated since the last call.
    pub fn run_until_idle(&mut self) -> Result<Vec<Outcome>> {
        loop {
            self.pump()?;
            if self.mgr.is_idle() {
                break;
            }
            self.wait_for_event()?;
        }
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// Block for the next transport event, then drain whatever else is
    /// already queued.
    fn wait_for_event(&mut self) -> Result<()> {
        let ev = self
            .transport
            .recv_timeout(self.idle_timeout)
            .map_err(|e| match e {
                RecvError::Timeout => VineError::Timeout(format!(
                    "no progress for {:?} with {} unit(s) outstanding",
                    self.idle_timeout,
                    self.mgr.pending()
                )),
                RecvError::Closed => {
                    VineError::Internal("transport event stream closed".to_string())
                }
            })?;
        self.handle(ev)?;
        while let Some(ev) = self.transport.try_recv() {
            self.handle(ev)?;
        }
        Ok(())
    }

    /// Emit and realize scheduling decisions until the manager rests.
    fn pump(&mut self) -> Result<()> {
        while let Some(d) = self.mgr.next_decision() {
            match d {
                Decision::InstallLibrary {
                    worker,
                    instance,
                    spec,
                    missing,
                } => {
                    let mut image = self.images.get(&spec.name).cloned().ok_or_else(|| {
                        VineError::Internal(format!("no image for library {}", spec.name))
                    })?;
                    image.instance = instance;
                    self.send(
                        worker,
                        ManagerToWorker::InstallLibrary {
                            image,
                            stage: missing,
                        },
                    )?;
                }
                Decision::EvictLibrary {
                    worker, instance, ..
                } => {
                    self.send(worker, ManagerToWorker::RemoveLibrary { instance })?;
                }
                Decision::DispatchCall {
                    worker,
                    library,
                    call,
                } => {
                    self.send(
                        worker,
                        ManagerToWorker::Invoke {
                            instance: library,
                            call,
                        },
                    )?;
                }
                Decision::DispatchTask {
                    worker,
                    task,
                    missing,
                } => {
                    self.send(
                        worker,
                        ManagerToWorker::RunTask {
                            task,
                            stage: missing,
                        },
                    )?;
                }
                Decision::Fail { unit, error } => {
                    self.outcomes.push(Outcome::failed(unit, error));
                }
            }
        }
        Ok(())
    }

    /// Deliver one message; a worker found dead mid-send is a worker loss
    /// like an observed disconnect, and the decision that targeted it is
    /// re-made on the survivors.
    fn send(&mut self, worker: WorkerId, msg: ManagerToWorker) -> Result<()> {
        match self.transport.send(worker, msg) {
            Err(VineError::WorkerLost(w)) => {
                self.mgr.worker_left(w);
                Ok(())
            }
            sent => sent,
        }
    }

    fn handle(&mut self, ev: TransportEvent) -> Result<()> {
        match ev {
            TransportEvent::Joined { worker, resources } => {
                if !self.mgr.workers.contains_key(&worker) {
                    self.mgr.worker_joined(worker, resources);
                }
            }
            TransportEvent::Left { worker } => {
                self.mgr.worker_left(worker);
            }
            // stragglers from a worker we already gave up on
            TransportEvent::Message { worker, .. } if !self.mgr.workers.contains_key(&worker) => {}
            TransportEvent::Message { worker, msg } => match self.message(worker, msg) {
                // a frame the manager refuses costs its sender, not the run
                Err(VineError::Protocol(_) | VineError::WorkerLost(_)) => self.kill_worker(worker),
                handled => return handled,
            },
        }
        Ok(())
    }

    fn message(&mut self, worker: WorkerId, msg: WorkerToManager) -> Result<()> {
        match msg {
            WorkerToManager::LibraryReady { instance } => self.mgr.library_ready(worker, instance),
            WorkerToManager::LibraryFailed { instance, error } => {
                self.mgr.library_startup_failed(worker, instance, &error)
            }
            WorkerToManager::UnitDone { outcome } => {
                // a result counts only from the worker the unit is placed
                // on; anything else is stale and dropped
                if self.mgr.unit_finished(worker, outcome.unit)?.is_some() {
                    self.outcomes.push(outcome);
                }
                Ok(())
            }
            WorkerToManager::Requeue { unit } => self.mgr.unit_handed_back(worker, unit).map(drop),
            // a worker that joins again is gone: joins are transport-level
            // handshakes, and a worker leaves by closing its connection
            WorkerToManager::Join { .. } => Err(VineError::WorkerLost(worker)),
        }
    }

    /// Compiled-module counters of the installs so far: misses are
    /// actual compiles, hits are installs that reused an installed image.
    pub fn compiled_image_stats(&self) -> ImageStats {
        self.image_stats
    }

    /// Deployed library instances and their share values (live Fig 11).
    pub fn library_share_values(&self) -> Vec<(WorkerId, u64)> {
        self.mgr.instances().map(|(w, l)| (w, l.served)).collect()
    }

    /// A snapshot of the transport's per-worker traffic counters (byte
    /// counters are zero for backends without a wire).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Units admitted but not yet dispatched (a load-report input).
    pub fn queued(&self) -> usize {
        self.mgr.queued()
    }

    /// Units currently dispatched to workers (a load-report input).
    pub fn running(&self) -> usize {
        self.mgr.running_count()
    }

    /// Units requeued since boot, after a worker loss or a worker-side
    /// hand-back (a load-report counter).
    pub fn requeues(&self) -> u64 {
        self.mgr.requeues()
    }

    /// Shut the cluster down, stopping every worker.
    pub fn shutdown(mut self) {
        self.transport.shutdown();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

/// Decode an outcome's result blob into a value (application-side helper).
pub fn decode_result(outcome: &Outcome) -> Result<Value> {
    if !outcome.success {
        return Err(VineError::ExecutionFailed(
            outcome.error.clone().unwrap_or_default(),
        ));
    }
    let globals = std::rc::Rc::new(std::cell::RefCell::new(BTreeMap::new()));
    pickle::deserialize_value(&outcome.result_blob, &globals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> LibrarySpec {
        let mut spec = LibrarySpec::new(name);
        spec.functions = vec!["f".into()];
        spec
    }

    fn compiled_bytes(rt: &Runtime, library: &str) -> Vec<u8> {
        rt.images[library].compiled.clone().unwrap().bytes
    }

    #[test]
    fn one_source_installed_under_two_names_compiles_once() {
        let mut rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let source = "def f(x) { return x + 1 }";
        rt.install_library(spec("a"), source, vec![], &[]).unwrap();
        rt.install_library(spec("b"), source, vec![], &[]).unwrap();
        assert_eq!(rt.compiled_image_stats(), ImageStats { hits: 1, misses: 1 });
        assert_eq!(compiled_bytes(&rt, "a"), compiled_bytes(&rt, "b"));

        rt.install_library(spec("c"), "def f(x) { return x + 2 }", vec![], &[])
            .unwrap();
        assert_eq!(rt.compiled_image_stats(), ImageStats { hits: 1, misses: 2 });
        assert_ne!(compiled_bytes(&rt, "a"), compiled_bytes(&rt, "c"));
        rt.shutdown();
    }
}
