//! Flow-based context discovery end to end: `Runtime::install_library_auto`
//! takes the naive user module, runs the vine-flow dataflow analysis, and
//! boots the synthesized library on a live cluster — hoisted setup once,
//! residue per instance, invocations observing exactly the state the
//! original module would have built.

use vine_core::context::LibrarySpec;
use vine_core::ids::InvocationId;
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, WorkUnit};
use vine_lang::{pickle, Value};
use vine_runtime::{decode_result, Runtime, RuntimeConfig};

/// The naive module: model build and label table are invocation-invariant,
/// `served` is mutable per-invocation state, and `capacity` reads the
/// mutated counter but constant-folds.
const USER_MODULE: &str = r#"
import nn

model_dim = 24
model = nn.load_model(3, model_dim)
labels = ["cat", "dog", "ship"]
served = 0
capacity = served + 4096
print("library online")

def classify(img) {
    global served
    served = served + 1
    cls = nn.forward(model, img)
    return labels[cls % len(labels)]
}

def remaining() {
    return capacity - served
}
"#;

#[test]
fn flow_install_auto_runs_on_live_cluster() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    });
    let mut spec = LibrarySpec::new("auto");
    spec.resources = Some(Resources::new(2, 1024, 1024));
    spec.slots = Some(1);
    let flow = rt
        .install_library_auto(spec, USER_MODULE, &["classify", "remaining"])
        .unwrap();

    // the flow pass hoisted the model, the labels, and the folded capacity;
    // the counter and the print stayed residue
    assert!(flow.context.provides.contains(&"model".to_string()));
    assert!(flow.context.provides.contains(&"capacity".to_string()));
    assert!(!flow.context.provides.contains(&"served".to_string()));
    assert_eq!(flow.folded, 1);
    assert!(
        flow.context.residue.iter().any(|r| r.contains("print")),
        "{:?}",
        flow.context.residue
    );

    for i in 0..5u64 {
        rt.submit(WorkUnit::Call(FunctionCall::new(
            InvocationId(i),
            "auto",
            "classify",
            pickle::serialize_args(&[Value::Int(i as i64)]).unwrap(),
        )));
    }
    rt.submit(WorkUnit::Call(FunctionCall::new(
        InvocationId(100),
        "auto",
        "remaining",
        pickle::serialize_args(&[]).unwrap(),
    )));
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 6);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
    }
    // `remaining` ran after some number of classifies on the same instance:
    // capacity folded to 4096, served in [0, 5]
    let rem = outcomes
        .iter()
        .find(|o| o.unit == vine_core::task::UnitId::Call(InvocationId(100)))
        .map(|o| decode_result(o).unwrap())
        .unwrap();
    let Value::Int(rem) = rem else {
        panic!("remaining() returned {rem:?}")
    };
    assert!((4091..=4096).contains(&rem), "{rem}");
    rt.shutdown();
}

#[test]
fn flow_auto_boot_matches_direct_execution() {
    // the shipped program, booted as a daemon boots it (run it, then call
    // its setup), must agree with running the module directly: same
    // results, same counter
    let registry = vine_apps::modules::full_registry();
    let mut direct = vine_lang::Interp::with_registry(registry.clone());
    direct.exec_source(USER_MODULE).unwrap();

    let flow = vine_flow::discover(USER_MODULE, &["classify", "remaining"]).unwrap();
    let mut auto = vine_lang::Interp::with_registry(registry);
    auto.exec_source(&flow.context.source).unwrap();
    auto.call_global(&flow.context.setup, &[]).unwrap();

    for img in 0..10i64 {
        let a = direct.call_global("classify", &[Value::Int(img)]).unwrap();
        let b = auto.call_global("classify", &[Value::Int(img)]).unwrap();
        assert_eq!(a, b, "img {img}");
    }
    assert_eq!(
        direct.call_global("remaining", &[]).unwrap(),
        auto.call_global("remaining", &[]).unwrap()
    );
    assert_eq!(
        direct.get_global("served").unwrap(),
        auto.get_global("served").unwrap()
    );
}

/// A module with its own `context_setup`, which the shipped program's
/// setup must not replace or be replaced by.
const OWN_SETUP_MODULE: &str = r#"
import nn
model = nn.load_model(2, 4)
served = 0
def context_setup() {
    global tag
    tag = "t"
}
def work(x) {
    global served
    served = served + 1
    return nn.forward(model, x)
}
"#;

/// The input `work` classifies as class 3.
const ARG: i64 = 1;

#[test]
fn a_module_context_setup_keeps_the_hoisted_context() {
    let registry = vine_apps::modules::full_registry();
    let mut direct = vine_lang::Interp::with_registry(registry.clone());
    direct.exec_source(OWN_SETUP_MODULE).unwrap();
    let expected = direct.call_global("work", &[Value::Int(ARG)]).unwrap();
    assert_eq!(expected, Value::Int(3));

    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        registry,
        ..Default::default()
    });
    let mut spec = LibrarySpec::new("own-setup");
    spec.slots = Some(1);
    let flow = rt
        .install_library_auto(spec, OWN_SETUP_MODULE, &["work"])
        .unwrap();
    assert_eq!(flow.context.setup, "__auto_boot");
    rt.submit(WorkUnit::Call(FunctionCall::new(
        InvocationId(1),
        "own-setup",
        "work",
        pickle::serialize_args(&[Value::Int(ARG)]).unwrap(),
    )));
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(decode_result(&outcomes[0]).unwrap(), expected);
    rt.shutdown();
}
