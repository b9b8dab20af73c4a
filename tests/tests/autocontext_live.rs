//! The paper's future-work extension end to end: automatically discover a
//! function's context from plain module source with `vine_flow::discover`
//! — no user-written `context_setup`, no manual dependency list — and run
//! it on the live cluster.

use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::InvocationId;
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, WorkUnit};
use vine_lang::{pickle, Value};
use vine_runtime::{decode_result, Runtime, RuntimeConfig};

/// A user writes ordinary module-level code: expensive setup inline, no
/// separation into context_setup/work (the "naive" module the paper says
/// users actually write).
const USER_MODULE: &str = r#"
import nn

model = nn.load_model(3, 24)
labels = ["cat", "dog", "ship"]
served = 0

def classify(img) {
    global served
    served = served + 1
    cls = nn.forward(model, img)
    return labels[cls % 3]
}
"#;

#[test]
fn auto_discovered_context_runs_on_live_cluster() {
    // discover: the model build and labels hoist; the served counter stays
    // per-invocation state
    let ctx = vine_flow::discover(USER_MODULE, &["classify"])
        .unwrap()
        .context;
    assert!(ctx.provides.contains(&"model".to_string()));
    assert!(ctx.provides.contains(&"labels".to_string()));
    assert!(!ctx.provides.contains(&"served".to_string()));
    assert_eq!(ctx.imports, vec!["nn".to_string()]);

    // resolve the discovered imports against the package catalog, exactly
    // as the manual pipeline would
    let registry = vine_env::catalog::standard_registry();
    let reqs: Vec<vine_env::Requirement> = ctx
        .imports
        .iter()
        .map(|m| vine_env::Requirement::any(m.clone()))
        .collect();
    let resolution = vine_env::resolve(&registry, &reqs).unwrap();
    assert!(vine_env::pack("auto-env", &resolution).provides("nn"));

    // assemble a library purely from discovery output
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 1,
        registry: vine_apps::modules::full_registry(),
        ..Default::default()
    });
    let mut spec = LibrarySpec::new("auto");
    spec.functions = vec!["classify".into()];
    spec.resources = Some(Resources::new(2, 1024, 1024));
    spec.slots = Some(1);
    // the program's setup hoists the context, then replays the residue
    // (the mutable counter) once per library boot
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: ctx.setup.clone(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    rt.install_library(spec, &ctx.source, vec![], &[]).unwrap();

    for i in 0..6u64 {
        rt.submit(WorkUnit::Call(FunctionCall::new(
            InvocationId(i),
            "auto",
            "classify",
            pickle::serialize_args(&[Value::Int(i as i64)]).unwrap(),
        )));
    }
    let outcomes = rt.run_until_idle().unwrap();
    assert_eq!(outcomes.len(), 6);
    for o in &outcomes {
        assert!(o.success, "{:?}", o.error);
        let label = decode_result(o).unwrap();
        let label = label.as_str().unwrap().to_string();
        assert!(["cat", "dog", "ship"].contains(&label.as_str()), "{label}");
    }
    rt.shutdown();
}

#[test]
fn auto_and_manual_context_agree() {
    // the auto-discovered split must compute the same results as running
    // the original module directly
    let mut direct = vine_lang::Interp::with_registry(vine_apps::modules::full_registry());
    direct.exec_source(USER_MODULE).unwrap();

    let ctx = vine_flow::discover(USER_MODULE, &["classify"])
        .unwrap()
        .context;
    // booted as a daemon boots it: run the program, then call its setup
    let mut auto = vine_lang::Interp::with_registry(vine_apps::modules::full_registry());
    auto.exec_source(&ctx.source).unwrap();
    auto.call_global(&ctx.setup, &[]).unwrap();

    for img in 0..10i64 {
        let a = direct.call_global("classify", &[Value::Int(img)]).unwrap();
        let b = auto.call_global("classify", &[Value::Int(img)]).unwrap();
        assert_eq!(a, b, "img {img}");
    }
    // both tracked their own invocation counters identically
    assert_eq!(
        direct.get_global("served").unwrap(),
        auto.get_global("served").unwrap()
    );
}
