//! Differential property test: executing a generated module as written
//! must be indistinguishable from booting the library program discovery
//! ships the way a daemon boots it: run the program, then call its named
//! setup (the synthesized setup, then the residue in original order).
//! Observables compared bit-for-bit: every work-function result over
//! several invocations, everything printed, and the final global
//! namespace. This is what licenses `hoist::discover` to reorder a
//! user's module.
//!
//! The generator is adversarial on purpose: helpers that read, write, or
//! print; container mutation through `push` and index-assignment;
//! `for`/`if` statements at module level; statements that read
//! invocation-mutated counters (the constant-folding path); the
//! occasional `eval` to force the ⊤ treatment; and scope edges — helpers
//! and the work function that re-import a module locally (a local
//! binding, not a write of the module's name) or define a nested `def`,
//! sometimes one that writes a global; and helpers that take the names the
//! shipped setup and boot wrapper would otherwise use.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vine_lang::{Interp, ModuleRegistry, Value};

/// The source module generated code imports, at module level and inside
/// functions.
const AUX_MODULE: &str = "def twice(v) {\n    return v * 2\n}\nbase = 5\n";

/// xorshift64* — deterministic per-case source of structure.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// Names defined so far, by kind, so generated code never reads an
/// unbound name or mixes types in a comparison.
#[derive(Default)]
struct Defined {
    ints: Vec<String>,
    strs: Vec<String>,
    lists: Vec<String>,
    helpers: Vec<String>,
}

fn int_expr(rng: &mut Rng, env: &Defined, depth: usize) -> String {
    if depth == 0 || env.ints.is_empty() && rng.chance(50) {
        return format!("{}", rng.below(20));
    }
    match rng.below(6) {
        0 => format!("{}", rng.below(20)),
        1 if !env.ints.is_empty() => env.ints[rng.below(env.ints.len())].clone(),
        2 if !env.lists.is_empty() => format!("len({})", env.lists[rng.below(env.lists.len())]),
        3 => format!(
            "({} + {})",
            int_expr(rng, env, depth - 1),
            int_expr(rng, env, depth - 1)
        ),
        4 => format!("({} * {})", int_expr(rng, env, depth - 1), rng.below(5)),
        _ => format!(
            "({} - {})",
            int_expr(rng, env, depth - 1),
            int_expr(rng, env, depth - 1)
        ),
    }
}

fn str_expr(rng: &mut Rng, env: &Defined, depth: usize) -> String {
    if depth == 0 || env.strs.is_empty() {
        return format!("\"s{}\"", rng.below(8));
    }
    match rng.below(3) {
        0 => format!("\"s{}\"", rng.below(8)),
        1 => env.strs[rng.below(env.strs.len())].clone(),
        _ => format!(
            "({} + {})",
            str_expr(rng, env, depth - 1),
            str_expr(rng, env, depth - 1)
        ),
    }
}

fn cond_expr(rng: &mut Rng, env: &Defined) -> String {
    match rng.below(3) {
        0 => format!("{} < {}", int_expr(rng, env, 1), int_expr(rng, env, 1)),
        1 => format!("{} == {}", int_expr(rng, env, 1), int_expr(rng, env, 1)),
        _ => if rng.chance(50) { "true" } else { "false" }.to_string(),
    }
}

/// Statements that open a function body, at one level of indentation,
/// and the expression wrapping `value` that uses them: sometimes a local
/// `import aux`, sometimes a nested `def inner` (which may write a
/// global), sometimes neither.
fn scope_edges(rng: &mut Rng, env: &Defined, mut value: String) -> (String, String) {
    let mut head = String::new();
    if rng.chance(30) {
        head.push_str("    import aux\n");
        value = format!("aux.twice({value})");
    }
    if rng.chance(30) {
        head.push_str("    def inner(v) {\n");
        if !env.ints.is_empty() && rng.chance(50) {
            let g = &env.ints[rng.below(env.ints.len())];
            head.push_str(&format!("        global {g}\n        {g} = {g} + v\n"));
        }
        head.push_str(&format!(
            "        return v + {}\n    }}\n",
            int_expr(rng, env, 1)
        ));
        value = format!("inner({value})");
    }
    (head, value)
}

/// One generated module: source text plus the work function name.
fn gen_module(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut env = Defined::default();
    let mut out = String::new();
    let mut helper_id = 0usize;
    let module_imports_aux = rng.chance(40);
    if module_imports_aux {
        out.push_str("import aux\n");
    }

    let n_stmts = 5 + rng.below(8);
    for i in 0..n_stmts {
        match rng.below(10) {
            // scalar int global, sometimes computed through the module
            0 | 1 => {
                let name = format!("g{i}");
                let mut value = int_expr(&mut rng, &env, 2);
                if module_imports_aux && rng.chance(40) {
                    value = format!("aux.twice({value}) + aux.base");
                }
                out.push_str(&format!("{name} = {value}\n"));
                env.ints.push(name);
            }
            // string global
            2 => {
                let name = format!("s{i}");
                out.push_str(&format!("{name} = {}\n", str_expr(&mut rng, &env, 1)));
                env.strs.push(name);
            }
            // list init
            3 => {
                let name = format!("l{i}");
                out.push_str(&format!(
                    "{name} = [{}, {}]\n",
                    int_expr(&mut rng, &env, 1),
                    int_expr(&mut rng, &env, 1)
                ));
                env.lists.push(name);
            }
            // push into an existing list
            4 if !env.lists.is_empty() => {
                let l = env.lists[rng.below(env.lists.len())].clone();
                out.push_str(&format!("push({l}, {})\n", int_expr(&mut rng, &env, 1)));
            }
            // index-assign into an existing list (index 0/1 always valid)
            5 if !env.lists.is_empty() => {
                let l = env.lists[rng.below(env.lists.len())].clone();
                out.push_str(&format!(
                    "{l}[{}] = {}\n",
                    rng.below(2),
                    int_expr(&mut rng, &env, 1)
                ));
            }
            // module-level loop building a table
            6 => {
                let name = format!("t{i}");
                out.push_str(&format!(
                    "{name} = []\nfor i{i} in range({}) {{\n    push({name}, i{i} * {})\n}}\n",
                    2 + rng.below(4),
                    1 + rng.below(3)
                ));
                env.lists.push(name);
            }
            // branch at module level; sometimes it reassigns an existing
            // int (the compound-statement havoc case for constant folding)
            7 => {
                let name = if !env.ints.is_empty() && rng.chance(40) {
                    env.ints[rng.below(env.ints.len())].clone()
                } else {
                    let fresh = format!("b{i}");
                    env.ints.push(fresh.clone());
                    fresh
                };
                out.push_str(&format!(
                    "if {} {{\n    {name} = {}\n}} else {{\n    {name} = {}\n}}\n",
                    cond_expr(&mut rng, &env),
                    int_expr(&mut rng, &env, 1),
                    int_expr(&mut rng, &env, 1)
                ));
            }
            // observable output
            8 => {
                out.push_str(&format!("print({})\n", int_expr(&mut rng, &env, 1)));
            }
            // helper definition (pure / reading / writing / printing / eval),
            // sometimes under a name the shipped program would synthesize
            _ => {
                let clash = ["context_setup", "__auto_boot"][rng.below(2)];
                let name = if rng.chance(15) && !env.helpers.iter().any(|h| h == clash) {
                    clash.to_string()
                } else {
                    helper_id += 1;
                    format!("h{}", helper_id - 1)
                };
                let body = match rng.below(5) {
                    0 => format!("    return a + {}\n", int_expr(&mut rng, &env, 1)),
                    1 if !env.ints.is_empty() => {
                        let g = &env.ints[rng.below(env.ints.len())];
                        format!("    return a * {g}\n")
                    }
                    2 if !env.ints.is_empty() => {
                        let g = env.ints[rng.below(env.ints.len())].clone();
                        format!("    global {g}\n    {g} = {g} + a\n    return {g}\n")
                    }
                    3 => "    print(a)\n    return a\n".to_string(),
                    _ => "    return eval(\"3 + 4\") + a\n".to_string(),
                };
                let (mut head, arg) = scope_edges(&mut rng, &env, "a".to_string());
                if !head.is_empty() {
                    head.push_str(&format!("    a = {arg}\n"));
                }
                out.push_str(&format!("def {name}(a) {{\n{head}{body}}}\n"));
                env.helpers.push(name);
            }
        }
    }
    // a derived statement reading earlier state: the fold candidate
    if !env.ints.is_empty() {
        let g = env.ints[rng.below(env.ints.len())].clone();
        out.push_str(&format!("derived = {g} + {}\n", 100 + rng.below(100)));
        env.ints.push("derived".into());
    }

    // the work function: reads state, sometimes mutates it, sometimes
    // calls helpers, sometimes appends to a list
    let mut body = String::new();
    if !env.ints.is_empty() && rng.chance(60) {
        let g = env.ints[rng.below(env.ints.len())].clone();
        body.push_str(&format!("    global {g}\n    {g} = {g} + t\n"));
    }
    if !env.lists.is_empty() && rng.chance(40) {
        let l = env.lists[rng.below(env.lists.len())].clone();
        body.push_str(&format!("    push({l}, t)\n"));
    }
    let mut ret = int_expr(&mut rng, &env, 2);
    if !env.helpers.is_empty() && rng.chance(60) {
        let h = env.helpers[rng.below(env.helpers.len())].clone();
        ret = format!("{h}({ret})");
    }
    let (head, ret) = scope_edges(&mut rng, &env, ret);
    body.push_str(&format!("    return {ret} + t\n"));
    out.push_str(&format!("def work(t) {{\n{head}{body}}}\n"));
    out
}

/// Results, printed output, and final globals of one module execution.
type Observed = (Vec<String>, Vec<String>, BTreeMap<String, String>);

/// Run a module, then its `setup` when it has one, plus three work
/// invocations; capture every observable.
fn run(src: &str, setup: Option<&str>) -> std::result::Result<Observed, String> {
    let mut registry = ModuleRegistry::new();
    registry.register_source("aux", AUX_MODULE);
    let mut interp = Interp::with_registry(registry);
    interp.exec_source(src).map_err(|e| e.to_string())?;
    if let Some(setup) = setup {
        interp.call_global(setup, &[]).map_err(|e| e.to_string())?;
    }
    let mut results = Vec::new();
    for t in 0..3i64 {
        let v = interp
            .call_global("work", &[Value::Int(t)])
            .map_err(|e| e.to_string())?;
        results.push(format!("{v}"));
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
    Ok((results, interp.output.clone(), globals))
}

fn check_case(seed: u64) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let src = gen_module(seed);
    let flow = vine_flow::discover(&src, &["work"])
        .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("discover: {e}\n{src}")))?;

    let trans = &flow.context.source;
    match (run(&src, None), run(trans, Some(&flow.context.setup))) {
        (Ok(orig), Ok(hoisted)) => {
            if orig != hoisted {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "observable divergence\n--- original ---\n{src}\n--- transformed ---\n{trans}\n\
                     --- original observables ---\n{orig:?}\n--- transformed observables ---\n{hoisted:?}"
                )));
            }
        }
        (Err(e1), Err(_e2)) => {
            // both error (a generated program can still divide-by-zero its
            // way into the weeds); that they *both* refuse is agreement
            let _ = e1;
        }
        (Ok(_), Err(e)) => {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "original runs but transformed errors: {e}\n--- original ---\n{src}\n--- transformed ---\n{trans}"
            )));
        }
        (Err(e), Ok(_)) => {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "transformed runs but original errors: {e}\n--- original ---\n{src}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flow_hoisted_execution_is_bit_identical(seed in any::<u64>()) {
        check_case(seed)?;
    }
}
