//! ExaMol — active-learning molecular design (paper §4.1.2).
//!
//! "ExaMol implements workflows to explore materials design through a
//! combination of quantum chemistry and machine learning tasks ... a
//! single-objective optimization of ionization potential through an active
//! learning approach ... PM7 calculations with OpenMOPAC to gather new
//! data concurrently with training or inference tasks implemented with
//! Scikit-Learn and RDKit ... The total number of tasks is around 10k."
//!
//! ## Calibration (Fig 6b)
//!
//! ExaMol is *worker-bound*, not manager-bound: 10k tasks at 150 workers ×
//! 8 slots (4-core tasks, §4.2) finish in 4,600 s (L1) / 3,364 s (L2),
//! implying a mean occupied-slot time of ≈ 552 s (L1) / 404 s (L2). The
//! L1→L2 difference is per-task context reload over the shared filesystem.
//! With simulations ≈ 430 s, training ≈ 300 s and inference ≈ 60 s of pure
//! execution on the reference machine, the mix below lands in those bands.
//! The 26.9% improvement then *emerges* from removing shared-FS traffic.
//!
//! The environment (Scikit-Learn + RDKit + OpenMOPAC + Colmena) has no
//! published size; DESIGN.md records the assumption: 121 packages, 460 MB
//! packed, 2.6 GB unpacked.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vine_core::config::ReuseLevel;
use vine_core::context::{ContextSpec, FileRef, LibrarySpec, SetupSpec};
use vine_core::ids::{FileId, InvocationId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, TaskSpec, UnitId, WorkProfile, WorkUnit};
use vine_env::catalog;
use vine_sim::Workload;

/// The three ExaMol task types and their execution cost on the reference
/// machine (4 cores × 5.4 GFLOPS = 21.6 GFLOPS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskType {
    /// PM7 quantum-chemistry calculation (~430 s cluster-mean).
    Simulate,
    /// Model retraining on accumulated results (~300 s cluster-mean).
    Train,
    /// Batch inference steering the next simulations (~60 s cluster-mean).
    Infer,
}

impl TaskType {
    /// Execution cost in GFLOP. Reference-machine seconds × 21.6 GFLOPS
    /// (4 cores × 5.4); the *cluster-mean* slot time is ≈ 1.76× the
    /// reference (machine mix E[5.4/rating] = 1.30 × full-occupancy
    /// interference 1.35), so 245 s-ref simulations average ≈ 430 s of
    /// occupied slot across the cluster — the Fig 6b calibration point.
    pub fn exec_gflop(self) -> f64 {
        match self {
            TaskType::Simulate => 245.0 * 21.6,
            TaskType::Train => 170.0 * 21.6,
            TaskType::Infer => 34.0 * 21.6,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TaskType::Simulate => "simulate",
            TaskType::Train => "train",
            TaskType::Infer => "infer",
        }
    }
}

/// Per-task context costs: deserializing task objects, loading the search
/// dataset, warming the chem stack (paid per task at L1/L2, once per
/// library at the L3 extension level).
pub const EXAMOL_CONTEXT_GFLOP: f64 = 170.0; // ≈ 7.9 s on 4 ref cores
pub const EXAMOL_DATASET_BYTES: u64 = 120_000_000;
/// L1 shared-FS traffic: the chem stack's import storm is heavier than
/// LNNI's (RDKit/Scikit-Learn pull thousands of files).
pub const EXAMOL_L1_OPS: f64 = 4_000.0;
pub const EXAMOL_L1_READ_BYTES: u64 = 350_000_000;
/// PM7 writes scratch files continuously; at L1 that I/O lands on the
/// shared filesystem and slows the whole computation (the paper's L2
/// "removes the shared file system as a possible I/O bottleneck").
pub const EXAMOL_L1_EXEC_SLOWDOWN: f64 = 1.35;

/// The ExaMol task functions as vine-lang source (live runtime form).
pub const EXAMOL_SOURCE: &str = r#"
import chem

def context_setup(seed_molecules) {
    global known_xs, known_ys
    known_xs = []
    known_ys = []
    for m in range(seed_molecules) {
        push(known_xs, float(m))
        push(known_ys, chem.simulate(m, 200))
    }
}

def simulate(molecule, steps) {
    return chem.simulate(molecule, steps)
}

def train() {
    return chem.train(known_xs, known_ys)
}

def infer(model, candidates) {
    best = 0
    best_score = -1000000.0
    for m in candidates {
        score = chem.predict(model, float(m))
        if score > best_score {
            best_score = score
            best = m
        }
    }
    return best
}
"#;

/// ExaMol experiment parameters.
#[derive(Clone, Debug)]
pub struct ExaMolConfig {
    pub total_tasks: u64,
    pub level: ReuseLevel,
    pub seed: u64,
    /// Tasks submitted before any result returns (the steering system
    /// keeps roughly this many in flight).
    pub initial_batch: u64,
}

impl ExaMolConfig {
    /// Fig 6b: ~10k tasks.
    pub fn paper(level: ReuseLevel) -> ExaMolConfig {
        ExaMolConfig {
            total_tasks: 10_000,
            level,
            seed: 0x6578616d,
            initial_batch: 1_500,
        }
    }
}

/// Colmena-style steering: an initial burst of simulations, then one new
/// task per completion (type drawn from the calibrated mix) until the
/// budget is spent — a feedback loop, not a static DAG (§2.1.1).
pub struct ExaMolWorkload {
    pub cfg: ExaMolConfig,
    env: FileRef,
    dataset: FileRef,
    submitted: u64,
    rng: ChaCha8Rng,
}

impl ExaMolWorkload {
    pub fn new(cfg: ExaMolConfig) -> ExaMolWorkload {
        let reg = catalog::standard_registry();
        let res =
            vine_env::resolve(&reg, &catalog::examol_requirements()).expect("catalog resolves");
        let archive = vine_env::pack("examol-env", &res);
        let env = FileRef::new(
            FileId(10),
            "examol-env.tar.zst",
            archive.hash,
            archive.packed_bytes,
        )
        .packed(archive.unpacked_bytes);
        let dataset = FileRef::new(
            FileId(11),
            "molecule-search-space.bin",
            vine_core::ids::ContentHash::of_str("examol-dataset-v1"),
            EXAMOL_DATASET_BYTES,
        );
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        ExaMolWorkload {
            cfg,
            env,
            dataset,
            submitted: 0,
            rng,
        }
    }

    fn draw_type(&mut self) -> TaskType {
        // the steering mix: mostly simulations, periodic retraining,
        // steering inference in between
        let x: f64 = self.rng.gen();
        if x < 0.82 {
            TaskType::Simulate
        } else if x < 0.90 {
            TaskType::Train
        } else {
            TaskType::Infer
        }
    }

    fn profile(&self, ty: TaskType) -> WorkProfile {
        let (context_gflop, context_read) = if self.cfg.level == ReuseLevel::L3 {
            (0.0, 0)
        } else {
            (EXAMOL_CONTEXT_GFLOP, EXAMOL_DATASET_BYTES)
        };
        WorkProfile {
            exec_gflop: ty.exec_gflop(),
            context_gflop,
            context_read_bytes: context_read,
            output_bytes: 50_000,
            sharedfs_ops: EXAMOL_L1_OPS,
            sharedfs_read_bytes: EXAMOL_L1_READ_BYTES,
            l1_exec_slowdown: EXAMOL_L1_EXEC_SLOWDOWN,
        }
    }

    fn next_unit(&mut self, ty: TaskType) -> WorkUnit {
        let i = self.submitted;
        self.submitted += 1;
        match self.cfg.level {
            // L3 is our extension beyond the paper ("L3 is not supported
            // yet for ExaMol", §4.2) — see the ablation bench
            ReuseLevel::L3 => {
                let mut call =
                    FunctionCall::new(InvocationId(i), "examol", ty.name(), vec![0u8; 48]);
                call.resources = Resources::examol_invocation();
                call.profile = self.profile(ty);
                WorkUnit::Call(call)
            }
            level => {
                let mut task = TaskSpec::new(TaskId(i), format!("examol-{}", ty.name()));
                task.function = Some(ty.name().into());
                task.resources = Resources::examol_invocation();
                task.profile = self.profile(ty);
                task.inputs = match level {
                    ReuseLevel::L1 => vec![
                        self.env.clone().from_shared_fs().uncached(),
                        self.dataset.clone().from_shared_fs().uncached(),
                    ],
                    _ => vec![self.env.clone(), self.dataset.clone()],
                };
                WorkUnit::Task(task)
            }
        }
    }
}

impl Workload for ExaMolWorkload {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        if self.cfg.level != ReuseLevel::L3 {
            return Vec::new();
        }
        let mut spec = LibrarySpec::new("examol");
        spec.functions = vec!["simulate".into(), "train".into(), "infer".into()];
        spec.resources = Some(Resources::examol_invocation());
        spec.slots = Some(1);
        spec.context = ContextSpec {
            environment: Some(self.env.clone()),
            data: vec![self.dataset.clone()],
            setup: Some(SetupSpec {
                function: "context_setup".into(),
                args_blob: vec![0u8; 8],
            }),
        };
        let setup = WorkProfile {
            exec_gflop: 0.0,
            context_gflop: EXAMOL_CONTEXT_GFLOP,
            context_read_bytes: EXAMOL_DATASET_BYTES,
            ..WorkProfile::zero()
        };
        vec![(spec, setup)]
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        let n = self.cfg.initial_batch.min(self.cfg.total_tasks);
        (0..n).map(|_| self.next_unit(TaskType::Simulate)).collect()
    }

    fn on_complete(&mut self, _unit: UnitId, _success: bool) -> Vec<WorkUnit> {
        if self.submitted < self.cfg.total_tasks {
            let ty = self.draw_type();
            vec![self.next_unit(ty)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_calibrated() {
        let mut w = ExaMolWorkload::new(ExaMolConfig {
            total_tasks: 10_000,
            level: ReuseLevel::L2,
            seed: 7,
            initial_batch: 0,
        });
        let mut sim = 0;
        let mut train = 0;
        let mut infer = 0;
        for _ in 0..10_000 {
            match w.draw_type() {
                TaskType::Simulate => sim += 1,
                TaskType::Train => train += 1,
                TaskType::Infer => infer += 1,
            }
        }
        assert!((7_900..8_500).contains(&sim), "sim {sim}");
        assert!((600..1_000).contains(&train), "train {train}");
        assert!((800..1_200).contains(&infer), "infer {infer}");
        // cluster-mean occupied-slot time lands in the Fig 6b band
        // (~400 s at L2): reference seconds × 1.76 cluster factor
        let mean_exec: f64 =
            (sim as f64 * 245.0 + train as f64 * 170.0 + infer as f64 * 34.0) / 10_000.0 * 1.76;
        assert!((370.0..420.0).contains(&mean_exec), "mean exec {mean_exec}");
    }

    #[test]
    fn feedback_loop_respects_budget() {
        let mut w = ExaMolWorkload::new(ExaMolConfig {
            total_tasks: 20,
            level: ReuseLevel::L2,
            seed: 7,
            initial_batch: 8,
        });
        let initial = w.initial_units();
        assert_eq!(initial.len(), 8);
        let mut total = initial.len();
        // every completion triggers at most one new submission, stopping
        // at the budget
        for i in 0..40 {
            let more = w.on_complete(UnitId::Task(TaskId(i)), true);
            total += more.len();
        }
        assert_eq!(total, 20);
    }

    #[test]
    fn initial_batch_is_simulations() {
        let mut w = ExaMolWorkload::new(ExaMolConfig {
            total_tasks: 10,
            level: ReuseLevel::L1,
            seed: 7,
            initial_batch: 5,
        });
        for u in w.initial_units() {
            let WorkUnit::Task(t) = u else { panic!() };
            assert_eq!(t.function.as_deref(), Some("simulate"));
            assert!(t
                .inputs
                .iter()
                .all(|f| f.source == vine_core::context::FileSource::SharedFs));
        }
    }

    #[test]
    fn l3_extension_produces_calls() {
        let mut w = ExaMolWorkload::new(ExaMolConfig {
            total_tasks: 3,
            level: ReuseLevel::L3,
            seed: 7,
            initial_batch: 3,
        });
        assert_eq!(w.libraries().len(), 1);
        let libs = w.libraries();
        assert_eq!(libs[0].0.functions.len(), 3, "one library, three functions");
        for u in w.initial_units() {
            assert!(matches!(u, WorkUnit::Call(_)));
        }
    }

    #[test]
    fn examol_source_parses_and_runs() {
        let prog = vine_lang::parse(EXAMOL_SOURCE).unwrap();
        assert_eq!(
            vine_lang::inspect::scan_imports(&prog),
            vec!["chem".to_string()]
        );
        let mut interp = vine_lang::Interp::with_registry(crate::modules::full_registry());
        interp.exec_source(EXAMOL_SOURCE).unwrap();
        interp
            .exec_source(
                r#"
                context_setup(6)
                m = train()
                best = infer(m, [10, 11, 12])
                e = simulate(best, 100)
                "#,
            )
            .unwrap();
        let best = interp.get_global("best").unwrap().as_int().unwrap();
        assert!((10..=12).contains(&best));
        assert!(matches!(
            interp.get_global("e").unwrap(),
            vine_lang::Value::Float(_)
        ));
    }

    #[test]
    fn env_assumption_sizes() {
        let w = ExaMolWorkload::new(ExaMolConfig::paper(ReuseLevel::L2));
        assert_eq!(w.env.size_bytes, catalog::EXAMOL_PACKED_BYTES);
        assert_eq!(w.env.materialized_bytes(), catalog::EXAMOL_UNPACKED_BYTES);
    }
}
