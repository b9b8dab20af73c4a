//! Adversarial edge cases for flow-based discovery: each module hides an
//! invocation-time mutation behind syntax the naive reading misses —
//! augmented assignment (desugared at parse), container writes through a
//! local alias, dynamic code inside an innocuous-looking candidate. In
//! every case the touched binding must stay un-hoisted, and the hoisted
//! form must still execute identically to the original.

use std::collections::BTreeMap;
use vine_lang::{Interp, Value};

/// Execute the original module vs the shipped program booted as a daemon
/// boots it (run it, then call its setup); compare work results, printed
/// output, and the final global namespace.
fn assert_execution_identical(src: &str, work: &str, calls: &[Vec<Value>]) {
    let flow = vine_flow::discover(src, &[work]).unwrap();
    let trans = &flow.context.source;
    let run = |text: &str, setup: Option<&str>| {
        let mut interp = Interp::new();
        interp.exec_source(text).unwrap();
        if let Some(setup) = setup {
            interp.call_global(setup, &[]).unwrap();
        }
        let mut results = Vec::new();
        for args in calls {
            results.push(format!("{}", interp.call_global(work, args).unwrap()));
        }
        let globals: BTreeMap<String, String> = interp
            .global_names()
            .into_iter()
            .filter_map(|n| {
                let v = interp.get_global(&n)?;
                if matches!(v, Value::Func(_) | Value::Native(_) | Value::Module(_)) {
                    None
                } else {
                    Some((n, format!("{v}")))
                }
            })
            .collect();
        (results, interp.output.clone(), globals)
    };
    assert_eq!(
        run(src, None),
        run(trans, Some(&flow.context.setup)),
        "divergence\n--- transformed ---\n{trans}"
    );
}

#[test]
fn augmented_assignment_mutation_blocks_hoisting() {
    // `served += 1` desugars to an Assign at parse time; the effect
    // analysis must still see the write and pin `served = 0` as residue
    let src = r#"
        served = 0
        def work(t) {
            global served
            served += 1
            return served + t
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"served".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context.residue.iter().any(|r| r.contains("served")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(
        src,
        "work",
        &[
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ],
    );
}

#[test]
fn alias_write_blocks_hoisting() {
    // the work function never names `table` in a write position: it takes
    // a local alias and pushes through that. The alias analysis must
    // propagate the write back to `table`.
    let src = r#"
        table = [10, 20]
        def work(t) {
            global table
            handle = table
            push(handle, t)
            return len(table)
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"table".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context.residue.iter().any(|r| r.contains("table")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(src, "work", &[vec![Value::Int(7)], vec![Value::Int(8)]]);
}

#[test]
fn eval_inside_candidate_blocks_hoisting() {
    // the statement looks like pure setup, but eval() can read or write
    // anything: it must stay residue (⊤ treatment), not become context
    let src = r#"
        base = 5
        cfg = eval("base * 2")
        def work(t) {
            return cfg + t
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert!(
        !flow.context.provides.contains(&"cfg".to_string()),
        "{:?}",
        flow.context
    );
    assert!(
        flow.context.residue.iter().any(|r| r.contains("eval")),
        "{:?}",
        flow.context.residue
    );
    assert_execution_identical(src, "work", &[vec![Value::Int(1)], vec![Value::Int(2)]]);
}

#[test]
fn function_local_import_binds_a_local() {
    // `infer` re-imports `nn` into its own frame: the import binds a
    // local there, exactly as both engines run it, so it writes no module
    // name and both module statements stay hoistable context
    let src = r#"
        import nn
        model = nn.load_model(2, 4)
        def infer(x) {
            import nn
            return nn.forward(model, x)
        }
    "#;
    let flow = vine_flow::discover(src, &["infer"]).unwrap();
    assert_eq!(flow.hoisted.len(), 2, "{:?}", flow.hoisted);
    assert!(
        flow.context.residue.is_empty(),
        "{:?}",
        flow.context.residue
    );
    let infer = &flow.effects["infer"];
    assert!(infer.writes.is_empty(), "{}", infer.describe());
}

#[test]
fn the_shipped_setup_and_boot_take_names_the_module_leaves_free() {
    // the module binds both names the shipped program would otherwise
    // give its setup and boot wrapper: those take fresh names, and the
    // module's own functions keep theirs
    let src = r#"
        base = 40
        served = 0
        def context_setup() {
            global tag
            tag = "t"
        }
        def __auto_boot(x) { return x + 1 }
        def work(t) {
            global served
            served = served + 1
            return __auto_boot(base) + t
        }
    "#;
    let flow = vine_flow::discover(src, &["work"]).unwrap();
    assert_eq!(flow.context.setup, "__auto_boot_2");
    assert!(
        flow.context.source.contains("def context_setup_2()"),
        "{}",
        flow.context.source
    );
    assert_execution_identical(src, "work", &[vec![Value::Int(1)], vec![Value::Int(2)]]);
}
