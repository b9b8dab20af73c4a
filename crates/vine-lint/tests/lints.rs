//! One trigger test and one clean-variant test per lint code.

use std::collections::{BTreeMap, BTreeSet};
use vine_core::{ContentHash, FileId, FileRef, LibrarySpec, Resources, SetupSpec};
use vine_lint::{
    lint_dag, lint_library, lint_source, lint_source_with_env, DagNode, LibraryPreflight, Report,
    Severity,
};

fn codes(report: &Report) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

fn modules(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

// --- V001: syntax-error ---

#[test]
fn v001_triggers_on_malformed_source_with_position() {
    let report = lint_source("bad.vine", "def f( {\n");
    assert!(report.has("V001"), "{}", report.render());
    assert!(report.has_errors());
    let d = &report.diagnostics[0];
    assert!(d.span.is_some(), "V001 should carry a reconstructed span");
    assert!(report.render().contains("bad.vine:"), "{}", report.render());
}

#[test]
fn v001_clean_on_wellformed_source() {
    let report = lint_source("ok.vine", "def f(x) { return x + 1 }\n");
    assert!(!report.has("V001"), "{}", report.render());
}

// --- V010: undefined-name ---

#[test]
fn v010_triggers_on_undefined_name() {
    let report = lint_source("t.vine", "def f() { return missing }\n");
    assert!(report.has("V010"), "{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn v010_clean_when_name_is_param_local_global_or_published() {
    // parameter, local, module def, builtin, and a name published by a
    // setup function via `global` (the paper's Fig 4 pattern)
    let src = "\
def context_setup() {\n    global model\n    model = 7\n}\n\
def infer(x) {\n    y = x + 1\n    return len([model, y, infer])\n}\n";
    let report = lint_source("t.vine", src);
    assert!(!report.has("V010"), "{}", report.render());
}

#[test]
fn v010_downgrades_to_warning_under_eval() {
    let src = "def f() {\n    eval(\"maybe = 1\")\n    return maybe\n}\n";
    let report = lint_source("t.vine", src);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "V010")
        .expect("V010 still reported");
    assert_eq!(d.severity, Severity::Warning, "{}", report.render());
    assert!(!report.has_errors());
}

// --- V011: unused-binding ---

#[test]
fn v011_triggers_on_write_only_local() {
    let report = lint_source("t.vine", "def f() {\n    scratch = 1\n    return 2\n}\n");
    assert!(report.has("V011"), "{}", report.render());
    assert!(!report.has_errors(), "V011 is a warning");
}

#[test]
fn v011_clean_when_local_is_read_global_or_underscored() {
    let src = "\
def f() {\n    used = 1\n    _ignored = 2\n    global pub\n    pub = 3\n    return used\n}\n";
    let report = lint_source("t.vine", src);
    assert!(!report.has("V011"), "{}", report.render());
}

// --- V012: shadowed-global ---

#[test]
fn v012_triggers_on_param_and_local_shadowing_module_binding() {
    let src = "table = [1, 2]\ndef f(table) { return table }\ndef g() {\n    table = 9\n    return table\n}\n";
    let report = lint_source("t.vine", src);
    let n = codes(&report).iter().filter(|c| **c == "V012").count();
    assert_eq!(n, 2, "param shadow and assign shadow: {}", report.render());
}

#[test]
fn v012_clean_with_global_declaration_or_distinct_names() {
    let src = "table = [1, 2]\ndef f(row) { return row }\ndef g() {\n    global table\n    table = 9\n    return table\n}\n";
    let report = lint_source("t.vine", src);
    assert!(!report.has("V012"), "{}", report.render());
}

// --- V013: dynamic code at module scope ---

#[test]
fn v013_triggers_on_module_level_eval() {
    let report = lint_source("t.vine", "eval(\"x = 1\")\n");
    assert!(report.has("V013"), "{}", report.render());
}

#[test]
fn v013_clean_when_eval_is_inside_a_function() {
    let report = lint_source("t.vine", "def f(s) { return eval(s) }\n");
    assert!(!report.has("V013"), "{}", report.render());
}

// --- V014: hoist-defeated ---

#[test]
fn v014_triggers_when_function_mutates_module_binding() {
    let src =
        "served = 0\ndef f() {\n    global served\n    served = served + 1\n    return served\n}\n";
    let report = lint_source("t.vine", src);
    assert!(report.has("V014"), "{}", report.render());
    assert!(!report.has_errors(), "V014 is a warning");
}

#[test]
fn v014_clean_when_globals_are_only_read() {
    let src = "table = [1, 2]\ndef f(i) { return table[i] }\n";
    let report = lint_source("t.vine", src);
    assert!(!report.has("V014"), "{}", report.render());
}

// --- V016: duplicate-definition ---

#[test]
fn v016_triggers_on_redefined_function() {
    let src = "def f(x) { return x }\ndef f(x) { return x + 1 }\n";
    let report = lint_source("t.vine", src);
    assert!(report.has("V016"), "{}", report.render());
}

#[test]
fn v016_clean_on_distinct_names() {
    let src = "def f(x) { return x }\ndef g(x) { return x + 1 }\n";
    let report = lint_source("t.vine", src);
    assert!(!report.has("V016"), "{}", report.render());
}

// --- V020: missing-import ---

#[test]
fn v020_triggers_on_unprovided_module() {
    let report = lint_source_with_env(
        "t.vine",
        "import tensorlib\n",
        &modules(&["nn", "chem"]),
        None,
    );
    assert!(report.has("V020"), "{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn v020_clean_when_registry_provides_the_module() {
    let report = lint_source_with_env("t.vine", "import nn\n", &modules(&["nn", "chem"]), None);
    assert!(!report.has("V020"), "{}", report.render());
}

// --- V021: unused-dependency ---

#[test]
fn v021_triggers_on_declared_but_unimported_dep() {
    let declared = modules(&["nn", "chem"]);
    let report = lint_source_with_env(
        "t.vine",
        "import nn\ndef f(x) { return nn.forward(x, x) }\n",
        &modules(&["nn", "chem"]),
        Some(&declared),
    );
    assert!(report.has("V021"), "{}", report.render());
    assert!(!report.has_errors(), "V021 is a warning");
}

#[test]
fn v021_clean_when_every_declared_dep_is_imported() {
    let declared = modules(&["nn"]);
    let report = lint_source_with_env(
        "t.vine",
        "import nn\ndef f(x) { return nn.forward(x, x) }\n",
        &modules(&["nn"]),
        Some(&declared),
    );
    assert!(!report.has("V021"), "{}", report.render());
}

// --- V022: missing-function ---

#[test]
fn v022_triggers_when_exported_function_is_not_shipped() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["ghost".into()];
    let (report, _) = lint_library(
        &spec,
        "def real(x) { return x }\n",
        &LibraryPreflight::default(),
    );
    assert!(report.has("V022"), "{}", report.render());
}

#[test]
fn v022_clean_for_source_and_serialized_definitions() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["real".into(), "dynamic_fn".into()];
    let pre = LibraryPreflight {
        serialized_functions: vec!["dynamic_fn".into()],
        ..LibraryPreflight::default()
    };
    let (report, _) = lint_library(&spec, "def real(x) { return x }\n", &pre);
    assert!(!report.has("V022"), "{}", report.render());
}

// --- V023: missing-setup ---

#[test]
fn v023_triggers_when_setup_function_is_not_shipped() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.context.setup = Some(SetupSpec {
        function: "prepare".into(),
        args_blob: Vec::new(),
    });
    let (report, _) = lint_library(
        &spec,
        "def f(x) { return x }\n",
        &LibraryPreflight::default(),
    );
    assert!(report.has("V023"), "{}", report.render());
}

#[test]
fn v023_clean_when_setup_ships_with_the_code() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.context.setup = Some(SetupSpec {
        function: "prepare".into(),
        args_blob: Vec::new(),
    });
    let src = "def prepare() {\n    global t\n    t = 1\n}\ndef f(x) { return x + t }\n";
    let (report, _) = lint_library(&spec, src, &LibraryPreflight::default());
    assert!(!report.has("V023"), "{}", report.render());
}

// --- V024: setup-arity ---

#[test]
fn v024_triggers_on_setup_argument_count_mismatch() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.context.setup = Some(SetupSpec {
        function: "prepare".into(),
        args_blob: Vec::new(),
    });
    let src = "def prepare(a, b) {\n    global t\n    t = a + b\n}\ndef f(x) { return x + t }\n";
    let pre = LibraryPreflight {
        setup_argc: Some(1),
        ..LibraryPreflight::default()
    };
    let (report, _) = lint_library(&spec, src, &pre);
    assert!(report.has("V024"), "{}", report.render());
}

#[test]
fn v024_clean_when_arity_matches_or_is_unknown() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.context.setup = Some(SetupSpec {
        function: "prepare".into(),
        args_blob: Vec::new(),
    });
    let src = "def prepare(a, b) {\n    global t\n    t = a + b\n}\ndef f(x) { return x + t }\n";
    let pre = LibraryPreflight {
        setup_argc: Some(2),
        ..LibraryPreflight::default()
    };
    assert!(!lint_library(&spec, src, &pre).0.has("V024"));
    // argc unknown (CLI case): no finding
    assert!(!lint_library(&spec, src, &LibraryPreflight::default())
        .0
        .has("V024"));
}

// --- V030: unschedulable-resources ---

#[test]
fn v030_triggers_when_no_worker_fits_the_request() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.resources = Some(Resources::new(64, 128 * 1024, 64 * 1024));
    let pre = LibraryPreflight {
        workers: vec![Resources::paper_worker(); 4],
        ..LibraryPreflight::default()
    };
    let (report, _) = lint_library(&spec, "def f(x) { return x }\n", &pre);
    assert!(report.has("V030"), "{}", report.render());
}

#[test]
fn v030_clean_when_some_worker_fits() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.resources = Some(Resources::lnni_invocation());
    let pre = LibraryPreflight {
        workers: vec![Resources::paper_worker()],
        ..LibraryPreflight::default()
    };
    let (report, _) = lint_library(&spec, "def f(x) { return x }\n", &pre);
    assert!(!report.has("V030"), "{}", report.render());
}

// --- V031: zero-slots ---

#[test]
fn v031_triggers_on_explicit_zero_slots() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.slots = Some(0);
    let (report, _) = lint_library(
        &spec,
        "def f(x) { return x }\n",
        &LibraryPreflight::default(),
    );
    assert!(report.has("V031"), "{}", report.render());
}

#[test]
fn v031_clean_on_positive_or_derived_slots() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.slots = Some(4);
    assert!(!lint_library(
        &spec,
        "def f(x) { return x }\n",
        &LibraryPreflight::default()
    )
    .0
    .has("V031"));
    spec.slots = None;
    assert!(!lint_library(
        &spec,
        "def f(x) { return x }\n",
        &LibraryPreflight::default()
    )
    .0
    .has("V031"));
}

// --- V032: context-exceeds-cache ---

fn big_file(gb: u64) -> FileRef {
    FileRef::new(
        FileId(1),
        "dataset.bin",
        ContentHash::of_str("dataset"),
        gb * 1024 * 1024 * 1024,
    )
}

#[test]
fn v032_triggers_when_context_outgrows_every_disk() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.context.data = vec![big_file(100)]; // 100 GB vs 64 GB disks
    let pre = LibraryPreflight {
        workers: vec![Resources::paper_worker(); 2],
        ..LibraryPreflight::default()
    };
    let (report, _) = lint_library(&spec, "def f(x) { return x }\n", &pre);
    assert!(report.has("V032"), "{}", report.render());
}

#[test]
fn v032_clean_when_context_fits_on_some_disk() {
    let mut spec = LibrarySpec::new("lib");
    spec.functions = vec!["f".into()];
    spec.context.data = vec![big_file(10)]; // 10 GB fits a 64 GB disk
    let pre = LibraryPreflight {
        workers: vec![Resources::paper_worker()],
        ..LibraryPreflight::default()
    };
    let (report, _) = lint_library(&spec, "def f(x) { return x }\n", &pre);
    assert!(!report.has("V032"), "{}", report.render());
}

// --- DAG lints ---

fn one_lib_arities() -> BTreeMap<String, BTreeMap<String, usize>> {
    let mut fns = BTreeMap::new();
    fns.insert("f".to_string(), 2usize);
    let mut libs = BTreeMap::new();
    libs.insert("lib".to_string(), fns);
    libs
}

fn node(id: u64, argc: usize, deps: &[u64]) -> DagNode {
    DagNode {
        id,
        library: "lib".into(),
        function: "f".into(),
        argc,
        deps: deps.to_vec(),
        args: Vec::new(),
    }
}

// --- V033: dag-cycle ---

#[test]
fn v033_triggers_on_dependency_cycle() {
    let nodes = vec![node(1, 2, &[2]), node(2, 2, &[1])];
    let diags = lint_dag(&nodes, &one_lib_arities());
    assert!(diags.iter().any(|d| d.code == "V033"), "{diags:?}");
}

#[test]
fn v033_clean_on_acyclic_graph() {
    let nodes = vec![node(1, 2, &[]), node(2, 2, &[1]), node(3, 2, &[1, 2])];
    let diags = lint_dag(&nodes, &one_lib_arities());
    assert!(!diags.iter().any(|d| d.code == "V033"), "{diags:?}");
    assert!(diags.is_empty(), "{diags:?}");
}

// --- V034: arity-mismatch ---

#[test]
fn v034_triggers_on_wrong_argument_count() {
    let nodes = vec![node(1, 3, &[])];
    let diags = lint_dag(&nodes, &one_lib_arities());
    assert!(diags.iter().any(|d| d.code == "V034"), "{diags:?}");
}

#[test]
fn v034_clean_on_matching_argument_count() {
    let nodes = vec![node(1, 2, &[])];
    let diags = lint_dag(&nodes, &one_lib_arities());
    assert!(!diags.iter().any(|d| d.code == "V034"), "{diags:?}");
}

// --- V035: unknown-target ---

#[test]
fn v035_triggers_on_unknown_library_function_and_dep() {
    let mut ghost_lib = node(1, 2, &[]);
    ghost_lib.library = "nolib".into();
    let mut ghost_fn = node(2, 2, &[]);
    ghost_fn.function = "nofn".into();
    let ghost_dep = node(3, 2, &[99]);
    let diags = lint_dag(&[ghost_lib, ghost_fn, ghost_dep], &one_lib_arities());
    let n = diags.iter().filter(|d| d.code == "V035").count();
    assert_eq!(n, 3, "{diags:?}");
}

#[test]
fn v035_clean_when_every_target_resolves() {
    let nodes = vec![node(1, 2, &[]), node(2, 2, &[1])];
    let diags = lint_dag(&nodes, &one_lib_arities());
    assert!(!diags.iter().any(|d| d.code == "V035"), "{diags:?}");
}

// --- V036: invariant-argument ---

#[test]
fn v036_triggers_on_identical_literal_across_many_invocations() {
    // 8 invocations, argument 1 always the same int literal; argument 0 varies
    let nodes: Vec<DagNode> = (0..8)
        .map(|i| {
            let mut n = node(i, 2, &[]);
            n.args = vec![Some(format!("int:{i}")), Some("str:config".into())];
            n
        })
        .collect();
    let diags = lint_dag(&nodes, &one_lib_arities());
    let v036: Vec<_> = diags.iter().filter(|d| d.code == "V036").collect();
    assert_eq!(v036.len(), 1, "{diags:?}");
    assert!(v036[0].message.contains("argument 1"), "{diags:?}");
}

#[test]
fn v036_silent_below_threshold_or_with_varying_args() {
    // 7 identical invocations: below threshold
    let few: Vec<DagNode> = (0..7)
        .map(|i| {
            let mut n = node(i, 2, &[]);
            n.args = vec![Some("int:1".into()), Some("str:config".into())];
            n
        })
        .collect();
    assert!(!lint_dag(&few, &one_lib_arities())
        .iter()
        .any(|d| d.code == "V036"));

    // 8 invocations but one position is a result-reference somewhere
    let mixed: Vec<DagNode> = (0..8)
        .map(|i| {
            let mut n = node(i + 1, 2, &[]);
            n.args = vec![Some("int:1".into()), None];
            if i == 0 {
                n.args[0] = None;
            }
            n
        })
        .collect();
    assert!(!lint_dag(&mixed, &one_lib_arities())
        .iter()
        .any(|d| d.code == "V036"));
}

// --- real application sources stay clean ---

#[test]
fn shipped_application_sources_lint_clean_of_errors() {
    for (name, src) in [
        ("lnni", vine_apps::lnni::LNNI_SOURCE),
        ("examol", vine_apps::examol::EXAMOL_SOURCE),
    ] {
        let available: BTreeSet<String> = vine_apps::modules::full_registry()
            .names()
            .map(|s| s.to_string())
            .collect();
        let report = lint_source_with_env(name, src, &available, None);
        assert!(
            !report.has_errors(),
            "{name} should have no lint errors:\n{}",
            report.render()
        );
    }
}
