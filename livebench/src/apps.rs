//! The benchmark's workloads and the functions they run: the in-repo LNNI
//! module (3 layers, dim 32, 16 inferences per call, as `repro serve`
//! installs it), its stateless task wrapping, and 16 tenant variants.

use crate::gen::{param_blob, Arrival};
use std::collections::BTreeMap;
use vine_core::context::{CodeArtifact, ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{InvocationId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, TaskSpec, WorkUnit};
use vine_lang::{pickle, Interp, Value};

pub const LAYERS: i64 = 3;
pub const DIM: i64 = 32;
pub const INFERENCES: i64 = 16;
/// Distinct call arguments (`first_image = 16·k`, `k < ARG_DOMAIN`).
pub const ARG_DOMAIN: usize = 128;
pub const TENANTS: usize = 16;
/// Size of each tenant's context-parameter blob.
pub const PARAM_BYTES: usize = 64 * 1024;
pub const ZIPF_S: f64 = 1.0;
/// Offered load of `tenant-churn`, units/s. Calibrated on a 2-core x86-64
/// container by sweeping this value: throughput kept up with the offered
/// rate and p99 stayed near 0.1 s up to about 500 units/s (above it the
/// backlog grew, p99 reaching 1 s at 800), and the open loop offers half.
pub const CHURN_RATE: f64 = 250.0;

const TASK_WRAPPER: &str = "
def run(first_image, count) {
    context_setup(3, 32)
    return infer(first_image, count)
}
";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// L3: one retained library, closed loop.
    Invoke,
    /// L1: the same calls as stateless tasks, closed loop.
    Task,
    /// L3 multi-tenant: 16 libraries, Zipf popularity, Poisson open loop.
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Invoke, Workload::Task, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Invoke => "lnni-invoke",
            Workload::Task => "lnni-task",
            Workload::Churn => "tenant-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn open_loop(self) -> bool {
        self == Workload::Churn
    }

    /// Outstanding units of a closed-loop workload. Stateless tasks run
    /// one at a time: with more, a task's `UnitDone` can be dropped (see
    /// the README's known issues), which would fail the run.
    pub fn clients(self) -> usize {
        match self {
            Workload::Task => 1,
            _ => 4,
        }
    }

    /// Length of the sub-windows whose medians the end-to-end metrics
    /// report: long enough that each holds hundreds of units.
    pub fn sub_window(self) -> std::time::Duration {
        match self {
            Workload::Churn => std::time::Duration::from_secs(2),
            _ => std::time::Duration::from_millis(250),
        }
    }

    /// The libraries this workload registers (none for stateless tasks).
    pub fn libraries(self, seed: u64) -> Vec<Library> {
        match self {
            Workload::Invoke => vec![Library::lnni()],
            Workload::Task => vec![],
            Workload::Churn => (0..TENANTS).map(|k| Library::tenant(seed, k)).collect(),
        }
    }

    /// The unit a generated arrival becomes, under runtime id `id`.
    pub fn unit(self, id: u64, a: &Arrival, libs: &[Library]) -> WorkUnit {
        let args = call_args(a.arg);
        match self {
            Workload::Task => {
                let mut t = TaskSpec::new(TaskId(id), "lnni-task");
                t.code = vec![
                    CodeArtifact::Source {
                        name: "lnni".into(),
                        text: vine_apps::lnni::LNNI_SOURCE.into(),
                    },
                    CodeArtifact::Source {
                        name: "run".into(),
                        text: TASK_WRAPPER.into(),
                    },
                ];
                t.function = Some("run".into());
                t.args_blob = args;
                WorkUnit::Task(t)
            }
            Workload::Invoke | Workload::Churn => {
                let mut c =
                    FunctionCall::new(InvocationId(id), &libs[a.tenant].name, "infer", args);
                c.resources = Resources::new(1, 512, 512);
                WorkUnit::Call(c)
            }
        }
    }
}

fn call_args(arg: usize) -> Vec<u8> {
    pickle::serialize_args(&[Value::Int(arg as i64 * INFERENCES), Value::Int(INFERENCES)])
        .expect("integer arguments serialize")
}

/// A library as registered: name, module source, context-setup
/// arguments, and invocation slots per instance.
pub struct Library {
    pub name: String,
    pub source: String,
    pub setup_args: Vec<Value>,
    slots: u32,
}

impl Library {
    /// The LNNI library with one slot per client, so a single instance
    /// serves the closed loop and it is installed once, at boot, while no
    /// other daemon runs (see the README's known issues).
    fn lnni() -> Library {
        Library {
            name: "lnni".into(),
            source: vine_apps::lnni::LNNI_SOURCE.into(),
            setup_args: vec![Value::Int(LAYERS), Value::Int(DIM)],
            slots: Workload::Invoke.clients() as u32,
        }
    }

    /// Tenant `k`: the LNNI module under its own name, with a per-tenant
    /// salt in its source (so its compiled image has its own digest and
    /// its results are its own) and a 64 KiB parameter blob retained as
    /// context.
    fn tenant(seed: u64, k: usize) -> Library {
        let source = format!(
            "
import nn

def context_setup(layers, dim, params) {{
    global model, params_blob, salt
    model = nn.load_model(layers, dim)
    params_blob = params
    salt = {salt}
}}

def infer(first_image, count) {{
    classes = []
    for img in range(first_image, first_image + count) {{
        push(classes, nn.forward(model, img) + salt)
    }}
    return classes
}}
",
            salt = 1000 * (k + 1)
        );
        Library {
            name: format!("tenant-{k:02}"),
            source,
            setup_args: vec![
                Value::Int(LAYERS),
                Value::Int(DIM),
                Value::Bytes(std::rc::Rc::new(param_blob(seed, k, PARAM_BYTES))),
            ],
            slots: 2,
        }
    }

    /// Direct-mode instances with one core per slot, as `repro serve`
    /// sizes LNNI (2 cores, 2 slots): an 8-core worker holds 4 such
    /// tenant instances.
    pub fn spec(&self) -> LibrarySpec {
        let mut spec = LibrarySpec::new(&self.name);
        spec.functions = vec!["infer".into()];
        let per = u64::from(self.slots);
        spec.resources = Some(Resources::new(self.slots, 1024 * per, 1024 * per));
        spec.slots = Some(self.slots);
        spec.exec_mode = ExecMode::Direct;
        spec.context = ContextSpec {
            setup: Some(SetupSpec {
                function: "context_setup".into(),
                args_blob: vec![],
            }),
            ..Default::default()
        };
        spec
    }
}

/// Expected results, computed on a local interpreter before anything is
/// timed: `[tenant][arg]` → the value the function returns.
pub struct Oracle {
    expected: Vec<Vec<Value>>,
}

impl Oracle {
    pub fn new(libs: &[Library]) -> vine_core::Result<Oracle> {
        let fallback;
        let libs = if libs.is_empty() {
            // stateless tasks run the plain LNNI module
            fallback = [Library::lnni()];
            &fallback[..]
        } else {
            libs
        };
        let mut expected = Vec::with_capacity(libs.len());
        for lib in libs {
            let mut interp = Interp::with_registry(vine_apps::modules::full_registry());
            interp.exec_source(&lib.source)?;
            interp.call_global("context_setup", &lib.setup_args)?;
            let mut row = Vec::with_capacity(ARG_DOMAIN);
            for arg in 0..ARG_DOMAIN {
                row.push(interp.call_global(
                    "infer",
                    &[Value::Int(arg as i64 * INFERENCES), Value::Int(INFERENCES)],
                )?);
            }
            expected.push(row);
        }
        Ok(Oracle { expected })
    }

    /// Whether `outcome` succeeded and decodes to the expected value.
    pub fn check(&self, a: &Arrival, outcome: &Outcome) -> bool {
        match vine_runtime::decode_result(outcome) {
            Ok(v) => v == self.expected[a.tenant][a.arg],
            Err(_) => false,
        }
    }
}

/// Digest (FNV-1a) of the results whose keys `other` also holds: two runs
/// of one seed agree exactly when their digests over each other match.
pub fn result_digest(
    results: &BTreeMap<crate::drive::Key, Vec<u8>>,
    other: &BTreeMap<crate::drive::Key, Vec<u8>>,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ((round, position), blob) in results {
        if other.contains_key(&(*round, *position)) {
            eat(&round.to_le_bytes());
            eat(&position.to_le_bytes());
            eat(blob);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_differ_in_digest_and_result() {
        let libs = Workload::Churn.libraries(1);
        assert_eq!(libs.len(), TENANTS);
        let digests: std::collections::BTreeSet<_> = libs
            .iter()
            .map(|l| vine_core::ids::ContentHash::of_str(&l.source))
            .collect();
        assert_eq!(digests.len(), TENANTS, "one compiled-image digest each");
        let oracle = Oracle::new(&libs).unwrap();
        assert_ne!(oracle.expected[0][5], oracle.expected[1][5]);
    }

    #[test]
    fn task_and_invoke_expect_the_same_values() {
        let invoke = Oracle::new(&Workload::Invoke.libraries(1)).unwrap();
        let task = Oracle::new(&[]).unwrap();
        assert_eq!(invoke.expected, task.expected);
        let task_unit = Workload::Task.unit(
            1,
            &Arrival {
                due_s: 0.0,
                tenant: 0,
                arg: 9,
            },
            &[],
        );
        let WorkUnit::Task(t) = task_unit else {
            panic!("lnni-task submits tasks")
        };
        let out = vine_runtime::worker_host::execute_task(&t, vine_apps::modules::full_registry());
        let a = Arrival {
            due_s: 0.0,
            tenant: 0,
            arg: 9,
        };
        assert!(task.check(&a, &out), "{:?}", out.error);
    }
}
