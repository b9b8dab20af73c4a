//! Install-time pre-flight: `install_library` runs `vine-lint` and rejects
//! libraries that could only fail after their context shipped.

use vine_core::context::{LibrarySpec, SetupSpec};
use vine_core::ids::WorkerId;
use vine_core::resources::Resources;
use vine_core::VineError;
use vine_lang::pickle;
use vine_lang::Value;
use vine_runtime::{Runtime, RuntimeConfig};

fn small_cluster() -> Runtime {
    Runtime::new(RuntimeConfig {
        workers: 1,
        worker_resources: Resources::new(4, 8 * 1024, 8 * 1024),
        ..RuntimeConfig::default()
    })
}

fn spec(functions: &[&str]) -> LibrarySpec {
    let mut s = LibrarySpec::new("lib");
    s.functions = functions.iter().map(|f| f.to_string()).collect();
    s.slots = Some(1);
    s
}

#[test]
fn install_rejects_exported_function_nothing_defines() {
    let mut rt = small_cluster();
    let err = rt
        .install_library(
            spec(&["ghost"]),
            "def real(x) { return x }",
            Vec::new(),
            &[],
        )
        .unwrap_err();
    match err {
        VineError::Lint(report) => {
            assert!(report.contains("V022"), "{report}");
            assert!(report.contains("ghost"), "{report}");
        }
        other => panic!("expected Lint error, got {other:?}"),
    }
}

#[test]
fn install_rejects_undefined_name_before_any_worker_sees_it() {
    let mut rt = small_cluster();
    let err = rt
        .install_library(
            spec(&["f"]),
            "def f(x) { return x + not_defined_anywhere }",
            Vec::new(),
            &[],
        )
        .unwrap_err();
    assert!(err.to_string().contains("V010"), "{err}");
}

#[test]
fn install_rejects_unprovided_import() {
    // the default RuntimeConfig registry is empty: no module can satisfy it
    let mut rt = small_cluster();
    let err = rt
        .install_library(
            spec(&["f"]),
            "import tensorlib\ndef f(x) { return tensorlib.go(x) }",
            Vec::new(),
            &[],
        )
        .unwrap_err();
    assert!(err.to_string().contains("V020"), "{err}");
}

#[test]
fn install_rejects_unschedulable_resource_request() {
    let mut rt = small_cluster(); // workers are 4-core
    let mut s = spec(&["f"]);
    s.resources = Some(Resources::new(64, 8 * 1024, 8 * 1024));
    let err = rt
        .install_library(s, "def f(x) { return x }", Vec::new(), &[])
        .unwrap_err();
    assert!(err.to_string().contains("V030"), "{err}");
}

#[test]
fn install_rejects_setup_arity_mismatch() {
    let mut rt = small_cluster();
    let mut s = spec(&["f"]);
    s.context.setup = Some(SetupSpec {
        function: "prepare".into(),
        args_blob: Vec::new(),
    });
    let src = "def prepare(a, b) {\n    global t\n    t = a + b\n}\ndef f(x) { return x + t }";
    let err = rt
        .install_library(s, src, Vec::new(), &[Value::Int(1)])
        .unwrap_err();
    assert!(err.to_string().contains("V024"), "{err}");
}

#[test]
fn warnings_do_not_block_install_and_arities_are_recorded() {
    let mut rt = small_cluster();
    // `scratch` is assigned but never read: V011, a warning
    let src = "def f(a, b) {\n    scratch = a\n    return a + b\n}";
    rt.install_library(spec(&["f"]), src, Vec::new(), &[])
        .expect("warnings alone must not reject");
    assert_eq!(rt.function_arity("lib", "f"), Some(2));
    assert_eq!(rt.function_arity("lib", "nope"), None);
    assert_eq!(rt.function_arity("nolib", "f"), None);
    let arities = rt.library_arities();
    assert_eq!(arities["lib"]["f"], 2);
    assert_eq!(rt.worker_capacities().len(), 1);
}

#[test]
fn serialized_functions_satisfy_preflight_and_report_arity() {
    let mut rt = small_cluster();
    let mut origin = vine_lang::Interp::new();
    origin
        .exec_source("def dyn(a, b, c) { return a + b + c }")
        .unwrap();
    let Value::Func(f) = origin.get_global("dyn").unwrap() else {
        panic!("expected function value")
    };
    let blob = pickle::serialize_funcdef(&f.def);
    rt.install_library(spec(&["dyn"]), "", vec![blob], &[])
        .expect("serialized definition satisfies the function check");
    assert_eq!(rt.function_arity("lib", "dyn"), Some(3));
}

#[test]
fn killed_worker_leaves_the_placement_preflight() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 2,
        worker_resources: Resources::new(4, 8 * 1024, 8 * 1024),
        ..RuntimeConfig::default()
    });
    assert_eq!(rt.worker_capacities().len(), 2);
    rt.kill_worker(WorkerId(0));
    assert_eq!(
        rt.worker_capacities().len(),
        1,
        "pre-flight must not count a dead worker's capacity"
    );
}
