//! LNNI — Large-Scale Neural Network Inference (paper §4.1.1).
//!
//! "The LNNI application runs 10k to 100k inference invocations, each of
//! which runs 16 to 1,600 inferences, on a pretrained ResNet50 model."
//!
//! ## Calibration (Tables 2, 4, 5)
//!
//! On the reference machine (EPYC 7543, 5.4 GFLOPS/core, invocations on
//! 2 cores = 10.8 GFLOPS):
//!
//! * 16 inferences execute in 3.079 s (Table 5, L3-Invoc exec) ⇒
//!   [`EXEC_GFLOP_PER_16_INFERENCES`] = 3.079 × 10.8 ≈ 33.3;
//! * rebuilding the model object per invocation costs ≈ 2.0 s at L1/L2
//!   (Table 5: L2 exec 5.05 s − L3 exec 3.08 s): ≈ 0.42 s re-reading
//!   [`MODEL_PARAMS_BYTES`] from an uncontended disk plus
//!   [`CONTEXT_GFLOP`] ≈ 14.2 of model building (1.3 s on 2 ref cores);
//! * the library's one-time setup is 2.729 s (Table 5, L3-Library
//!   overhead) = 0.45 s interpreter boot + 0.66 s parameter read +
//!   [`SETUP_GFLOP`] ≈ 17.5 of model building on the library's 2 cores
//!   (1.62 s).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vine_core::config::ReuseLevel;
use vine_core::context::{ContextSpec, FileRef, LibrarySpec, SetupSpec};
use vine_core::ids::{FileId, InvocationId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, TaskSpec, WorkProfile, WorkUnit};
use vine_env::catalog;
use vine_sim::Workload;

/// GFLOP of the invocation-distinct part per 16 inferences.
pub const EXEC_GFLOP_PER_16_INFERENCES: f64 = 33.3;
/// GFLOP of per-invocation context rebuild at L1/L2 (model build).
pub const CONTEXT_GFLOP: f64 = 14.2;
/// GFLOP of the library's one-time context setup at L3 (model build plus
/// first-use warming).
pub const SETUP_GFLOP: f64 = 17.5;
/// Serialized model parameters staged to each worker.
pub const MODEL_PARAMS_BYTES: u64 = 230_000_000;
/// Metadata ops per L1 task start: the Python import storm over NFS.
pub const L1_IMPORT_OPS: f64 = 1_500.0;
/// Shared-FS bytes per L1 task beyond the parameter read (package files,
/// shared objects). Calibrated so L1's mean runtime reproduces Table 4's
/// 21.59 s: ~110 MB + 230 MB of parameters at the latency-bound ~36 MB/s
/// per-client rate ≈ 9.5 s, plus 1,500 ops ≈ 4.5 s, plus compute.
pub const L1_SHAREDFS_READ_BYTES: u64 = 110_000_000;

/// The LNNI functions as vine-lang source — what the live runtime ships.
/// `context_setup` follows the paper's Fig 4 pattern: load parameters,
/// build the model, publish it to the global namespace.
pub const LNNI_SOURCE: &str = r#"
import nn

def context_setup(layers, dim) {
    global model
    model = nn.load_model(layers, dim)
}

def infer(first_image, count) {
    classes = []
    for img in range(first_image, first_image + count) {
        push(classes, nn.forward(model, img))
    }
    return classes
}
"#;

/// The same application as a user would *naively* write it (the paper's §6
/// future-work premise): expensive setup inline at module level, no
/// hand-written `context_setup`, mutable serving state mixed in. This is
/// the input to context discovery: `vine_flow::discover` splits it, and
/// `repro analyze` reports what it hoists.
pub const LNNI_USER_SOURCE: &str = r#"
import nn

model_layers = 3
model_dim = 24
model = nn.load_model(model_layers, model_dim)
labels = []
for c in range(model_layers) {
    push(labels, "class_" + str(c))
}
served = 0
capacity = served + 4096

def classify(img) {
    global served
    served = served + 1
    return labels[nn.forward(model, img) % len(labels)]
}

def remaining() {
    return capacity - served
}
"#;

/// How L3 libraries are sized (the §3.5.2 strategy choice; an ablation
/// target in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LibraryStrategy {
    /// One library per invocation slot: 2 cores, 1 slot, 16 instances per
    /// worker. Matches the paper's LNNI deployment (Fig 10's ~2,000
    /// deployed libraries on 150 workers).
    PerSlot,
    /// One whole-worker library with 16 invocation slots — the §3.5.2
    /// default ("a library by default takes all resources of a worker").
    WholeWorker,
}

/// LNNI experiment parameters.
#[derive(Clone, Debug)]
pub struct LnniConfig {
    pub invocations: u64,
    /// 16, 160, or 1,600 in the paper (Fig 8).
    pub inferences_per_invocation: u64,
    pub level: ReuseLevel,
    pub seed: u64,
    pub library_strategy: LibraryStrategy,
}

impl LnniConfig {
    /// Fig 8 / Fig 9: 10k invocations.
    pub fn paper_10k(level: ReuseLevel, inferences: u64) -> LnniConfig {
        LnniConfig {
            invocations: 10_000,
            inferences_per_invocation: inferences,
            level,
            seed: 0x6c6e6e69,
            library_strategy: LibraryStrategy::PerSlot,
        }
    }
}

/// The LNNI workload for the simulator.
pub struct LnniWorkload {
    pub cfg: LnniConfig,
    env: FileRef,
    params: FileRef,
}

impl LnniWorkload {
    pub fn new(cfg: LnniConfig) -> LnniWorkload {
        // the real environment from the package substrate: 144 packages,
        // 572 MB packed, 3.1 GB unpacked (vine-env calibration tests pin
        // these to the paper's numbers)
        let reg = catalog::standard_registry();
        let res = vine_env::resolve(&reg, &catalog::lnni_requirements()).expect("catalog resolves");
        let archive = vine_env::pack("lnni-env", &res);
        let env = FileRef::new(
            FileId(1),
            "lnni-env.tar.zst",
            archive.hash,
            archive.packed_bytes,
        )
        .packed(archive.unpacked_bytes);

        let params = FileRef::new(
            FileId(2),
            "resnet50-params.bin",
            vine_core::ids::ContentHash::of_str("resnet50-pretrained-v1"),
            MODEL_PARAMS_BYTES,
        );
        LnniWorkload { cfg, env, params }
    }

    fn scale(&self) -> f64 {
        self.cfg.inferences_per_invocation as f64 / 16.0
    }

    /// The per-invocation work profile at this configuration.
    pub fn profile(&self, for_level: ReuseLevel) -> WorkProfile {
        let exec_gflop = EXEC_GFLOP_PER_16_INFERENCES * self.scale();
        match for_level {
            // context cost paid by the library, not the invocation
            ReuseLevel::L3 => WorkProfile {
                exec_gflop,
                context_gflop: 0.0,
                context_read_bytes: 0,
                output_bytes: 16 * self.cfg.inferences_per_invocation,
                ..WorkProfile::zero()
            },
            _ => WorkProfile {
                exec_gflop,
                context_gflop: CONTEXT_GFLOP,
                context_read_bytes: MODEL_PARAMS_BYTES,
                output_bytes: 16 * self.cfg.inferences_per_invocation,
                sharedfs_ops: L1_IMPORT_OPS,
                sharedfs_read_bytes: L1_SHAREDFS_READ_BYTES,
                ..WorkProfile::zero()
            },
        }
    }

    fn unit(&self, i: u64) -> WorkUnit {
        match self.cfg.level {
            ReuseLevel::L3 => {
                let mut call = FunctionCall::new(
                    InvocationId(i),
                    "lnni",
                    "infer",
                    // args: (first_image, count) — 16 bytes either way; the
                    // blob length is all the simulator needs
                    vec![0u8; 32],
                );
                call.resources = Resources::lnni_invocation();
                call.profile = self.profile(ReuseLevel::L3);
                WorkUnit::Call(call)
            }
            level => {
                let mut task = TaskSpec::new(TaskId(i), "lnni-infer");
                task.function = Some("infer".into());
                task.resources = Resources::lnni_invocation();
                task.profile = self.profile(level);
                match level {
                    ReuseLevel::L1 => {
                        // everything pulled from the shared filesystem,
                        // nothing cached (§4.2 L1)
                        task.inputs = vec![
                            self.env.clone().from_shared_fs().uncached(),
                            self.params.clone().from_shared_fs().uncached(),
                        ];
                    }
                    _ => {
                        // staged once, cached on local disk (§4.2 L2)
                        task.inputs = vec![self.env.clone(), self.params.clone()];
                    }
                }
                WorkUnit::Task(task)
            }
        }
    }
}

impl Workload for LnniWorkload {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        if self.cfg.level != ReuseLevel::L3 {
            return Vec::new();
        }
        // per-slot libraries: each owns one invocation's worth of
        // resources and serves one invocation at a time. This mirrors the
        // paper's LNNI deployment, where the deployed-library count ramps
        // to ~2,000 on 150 workers (Fig 10) — one library per active slot,
        // not one per worker.
        let mut spec = LibrarySpec::new("lnni");
        spec.functions = vec!["infer".into()];
        match self.cfg.library_strategy {
            LibraryStrategy::PerSlot => {
                spec.resources = Some(Resources::lnni_invocation());
                spec.slots = Some(1);
            }
            LibraryStrategy::WholeWorker => {
                spec.resources = None; // whole worker
                spec.slots = None; // derived: 16 for LNNI invocations
            }
        }
        spec.context = ContextSpec {
            environment: Some(self.env.clone()),
            data: vec![self.params.clone()],
            setup: Some(SetupSpec {
                function: "context_setup".into(),
                args_blob: vec![0u8; 16],
            }),
        };
        let setup_profile = WorkProfile {
            exec_gflop: 0.0,
            context_gflop: SETUP_GFLOP,
            context_read_bytes: MODEL_PARAMS_BYTES,
            ..WorkProfile::zero()
        };
        vec![(spec, setup_profile)]
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        // deterministic shuffle-free burst: LNNI submits everything up
        // front (a "full non-overlapping sweep", §2.1.1)
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let _ = rng.gen::<u64>();
        (0..self.cfg.invocations).map(|i| self.unit(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_core::context::FileSource;

    #[test]
    fn env_matches_paper_numbers() {
        let w = LnniWorkload::new(LnniConfig::paper_10k(ReuseLevel::L3, 16));
        assert_eq!(w.env.size_bytes, catalog::LNNI_PACKED_BYTES);
        assert_eq!(w.env.materialized_bytes(), catalog::LNNI_UNPACKED_BYTES);
    }

    #[test]
    fn exec_time_matches_table5_on_reference_machine() {
        // 33.3 GFLOP / (2 cores × 5.4 GFLOPS) = 3.08 s (Table 5: 3.079 s)
        let secs = EXEC_GFLOP_PER_16_INFERENCES / (2.0 * 5.4);
        assert!((secs - 3.079).abs() < 0.05, "{secs}");
        // context rebuild ≈ 2.0 s (Table 5: L2 exec − L3 exec):
        // uncontended param read + model build
        let ctx = CONTEXT_GFLOP / (2.0 * 5.4) + MODEL_PARAMS_BYTES as f64 / 3.5e8;
        assert!((ctx - 2.0).abs() < 0.05, "{ctx}");
    }

    #[test]
    fn l1_units_pull_from_shared_fs() {
        let mut w = LnniWorkload::new(LnniConfig {
            invocations: 3,
            inferences_per_invocation: 16,
            level: ReuseLevel::L1,
            seed: 1,
            library_strategy: LibraryStrategy::PerSlot,
        });
        let units = w.initial_units();
        assert_eq!(units.len(), 3);
        for u in &units {
            let WorkUnit::Task(t) = u else {
                panic!("L1 wraps invocations as tasks")
            };
            assert!(t
                .inputs
                .iter()
                .all(|f| f.source == FileSource::SharedFs && !f.cache));
            assert!(t.profile.context_gflop > 0.0);
        }
        assert!(w.libraries().is_empty(), "no libraries below L3");
    }

    #[test]
    fn l2_units_cache_inputs() {
        let mut w = LnniWorkload::new(LnniConfig {
            invocations: 2,
            inferences_per_invocation: 16,
            level: ReuseLevel::L2,
            seed: 1,
            library_strategy: LibraryStrategy::PerSlot,
        });
        for u in w.initial_units() {
            let WorkUnit::Task(t) = u else { panic!() };
            assert!(t.inputs.iter().all(|f| f.cache && f.peer_transfer));
        }
    }

    #[test]
    fn l3_units_are_calls_with_library() {
        let mut w = LnniWorkload::new(LnniConfig {
            invocations: 2,
            inferences_per_invocation: 16,
            level: ReuseLevel::L3,
            seed: 1,
            library_strategy: LibraryStrategy::PerSlot,
        });
        let libs = w.libraries();
        assert_eq!(libs.len(), 1);
        let (spec, setup) = &libs[0];
        assert_eq!(spec.slots, Some(1), "per-slot libraries (Fig 10)");
        assert!(spec.context.setup.is_some());
        assert_eq!(setup.context_read_bytes, MODEL_PARAMS_BYTES);
        for u in w.initial_units() {
            let WorkUnit::Call(c) = u else {
                panic!("L3 submits invocations")
            };
            assert_eq!(c.library, "lnni");
            assert_eq!(c.profile.context_gflop, 0.0, "context paid by library");
            assert!(c.args_blob.len() < 100, "invocations ship args only");
        }
    }

    #[test]
    fn inference_scaling_multiplies_exec_only() {
        let w16 = LnniWorkload::new(LnniConfig::paper_10k(ReuseLevel::L2, 16));
        let w1600 = LnniWorkload::new(LnniConfig::paper_10k(ReuseLevel::L2, 1600));
        let p16 = w16.profile(ReuseLevel::L2);
        let p1600 = w1600.profile(ReuseLevel::L2);
        assert!((p1600.exec_gflop / p16.exec_gflop - 100.0).abs() < 1e-9);
        assert_eq!(p16.context_gflop, p1600.context_gflop);
        assert_eq!(p16.context_read_bytes, p1600.context_read_bytes);
    }

    #[test]
    fn lnni_source_parses_and_discovers() {
        let prog = vine_lang::parse(LNNI_SOURCE).unwrap();
        let imports = vine_lang::inspect::scan_imports(&prog);
        assert_eq!(imports, vec!["nn".to_string()]);
        let src = vine_lang::inspect::extract_source(LNNI_SOURCE, "infer").unwrap();
        assert!(src.contains("nn.forward"));
        assert!(vine_lang::inspect::extract_source(LNNI_SOURCE, "context_setup").is_some());
    }

    #[test]
    fn lnni_source_runs_end_to_end() {
        let mut interp = vine_lang::Interp::with_registry(crate::modules::full_registry());
        interp.exec_source(LNNI_SOURCE).unwrap();
        interp
            .exec_source("context_setup(2, 8)\nresult = infer(0, 4)")
            .unwrap();
        let vine_lang::Value::List(items) = interp.get_global("result").unwrap() else {
            panic!("expected class list");
        };
        assert_eq!(items.borrow().len(), 4);
    }
}
