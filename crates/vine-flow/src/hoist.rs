//! Context discovery by dataflow: the paper's §6 future-work item,
//! automatic context detection.
//!
//! Given the work functions a user wants to invoke remotely, classify each
//! module-level statement as hoistable context or per-invocation residue,
//! and assemble the library program that ships: a synthesized setup, the
//! module's functions, and a boot wrapper that replays the residue. The classification is driven by
//! interprocedural [`EffectSummary`]s rather than surface reads, which
//! makes it *sound* (a statement calling a helper that writes invocation
//! state does not hoist even though the mutated name is not lexically
//! visible; container mutation without a `global` declaration is still a
//! write) and *precise* (pure builtin calls don't block hoisting, and a
//! statement whose right-hand side constant-folds to a scalar hoists as
//! the folded constant even when it *reads* invocation-mutated state —
//! the read happens at fold time, before any invocation ran).
//!
//! Soundness argument for the transformed order (setup first, residue at
//! boot, invocations after): a hoisted statement (1) has no I/O, dynamic
//! code, or unresolved calls, (2) touches no name the work set mutates,
//! (3) reads only module names that hoisted before it, (4) writes no
//! name an earlier residue statement read or wrote, and (5) reads no
//! name an earlier residue statement wrote. (3)+(4)+(5) mean the
//! hoisted subsequence and the residue subsequence are independent, so
//! interleaving them back yields the original execution; (1)+(2) mean no
//! invocation can observe or disturb the difference afterwards. Folded
//! statements substitute the value the statement would have produced *in
//! original order* (the constant environment tracks every earlier
//! statement, residue included), so the post-boot state is unchanged.
//! A differential proptest in `tests/differential.rs` holds this to
//! bit-identical executions.

use crate::analyses::{const_transfer_stmt, eval_const, scalar, CVal, ConstEnv};
use crate::effects::{EffectEnv, EffectSummary};
use std::collections::{BTreeMap, BTreeSet};
use vine_core::{Result, VineError};
use vine_lang::ast::{walk_stmts, Expr, FuncDef, Program, Stmt, StmtKind, Target};
use vine_lang::inspect::{format_funcdef, format_program};
use vine_lang::Value;

/// A discovered context, in the shape a `LibrarySpec` consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredContext {
    /// The library program a discovery ships: the synthesized setup (the
    /// hoistable module-level statements in a function that publishes
    /// their bindings via `global`), every module function, and, when
    /// residue remains, a boot wrapper that calls the setup and then
    /// replays the residue in module order.
    pub source: String,
    /// The function a daemon calls once after running `source`: the boot
    /// wrapper when there is residue, the setup otherwise. The setup and
    /// the wrapper get names the module does not bind.
    pub setup: String,
    /// Names the setup publishes into the namespace.
    pub provides: Vec<String>,
    /// Module-level statements that could NOT be hoisted (they write
    /// state the work functions also write, or depend on such state).
    pub residue: Vec<String>,
    /// Modules the context needs installed (import scan over the hoisted
    /// statements and the work functions).
    pub imports: Vec<String>,
}

/// One hoisted statement, with provenance when it was rewritten.
#[derive(Debug, Clone, PartialEq)]
pub struct HoistedStmt {
    /// Formatted source of the statement as it appears in the setup.
    pub source: String,
    /// When constant folding rewrote the statement, the original text.
    pub folded_from: Option<String>,
}

/// The outcome of flow-based discovery: the [`DiscoveredContext`] plus
/// the analysis detail behind it.
#[derive(Debug, Clone)]
pub struct FlowDiscovery {
    /// What to install: plugs into `LibrarySpec` unchanged.
    pub context: DiscoveredContext,
    /// Hoisted statements in module order, with fold provenance.
    pub hoisted: Vec<HoistedStmt>,
    /// Effect summaries of the work functions and their transitive
    /// helpers.
    pub effects: BTreeMap<String, EffectSummary>,
    /// How many hoisted statements were constant-folded rewrites.
    pub folded: usize,
}

/// Re-materialize a scalar constant as a literal expression.
fn lit_expr(v: &Value) -> Option<Expr> {
    Some(match v {
        Value::None => Expr::None,
        Value::Bool(b) => Expr::Bool(*b),
        Value::Int(i) => Expr::Int(*i),
        Value::Float(f) => Expr::Float(*f),
        Value::Str(s) => Expr::Str(s.to_string()),
        _ => return None,
    })
}

fn fmt_stmt(stmt: &Stmt) -> String {
    format_program(&vec![stmt.clone()]).trim_end().to_string()
}

/// Discover the reusable context of `work_functions` within `module_src`
/// by dataflow analysis. See the module docs for the hoisting rules.
pub fn discover(module_src: &str, work_functions: &[&str]) -> Result<FlowDiscovery> {
    let prog: Program = vine_lang::parse(module_src)?;
    let effects = EffectEnv::compute(&prog);

    let top_defs: Vec<&std::rc::Rc<FuncDef>> = prog
        .iter()
        .filter_map(|s| match &s.kind {
            StmtKind::FuncDef(f) => Some(f),
            _ => None,
        })
        .collect();
    let def_names: BTreeSet<&str> = top_defs.iter().map(|f| f.name.as_str()).collect();
    for w in work_functions {
        if !def_names.contains(w) {
            return Err(VineError::Lang(format!("no function '{w}' in module")));
        }
    }

    // transitive closure over the call graph plus value-reads of function
    // names (passing a function around keeps it needed)
    let mut needed: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<String> = work_functions.iter().map(|s| s.to_string()).collect();
    while let Some(f) = queue.pop() {
        if !needed.insert(f.clone()) {
            continue;
        }
        let mut next: BTreeSet<String> = BTreeSet::new();
        if let Some(called) = effects.calls.get(&f) {
            next.extend(called.iter().cloned());
        }
        if let Some(summary) = effects.functions.get(&f) {
            next.extend(summary.reads.iter().cloned());
        }
        for n in next {
            if def_names.contains(n.as_str()) || effects.functions.contains_key(&n) {
                queue.push(n);
            }
        }
    }

    // names the work set may mutate. An unresolvable call or dynamic code
    // inside the work set could write anything: every module name becomes
    // off-limits.
    let mut mutated: BTreeSet<String> = BTreeSet::new();
    let mut work_is_opaque = false;
    for f in &needed {
        if let Some(s) = effects.functions.get(f) {
            mutated.extend(s.writes.iter().cloned());
            work_is_opaque |= s.dynamic || s.calls_unknown;
        }
    }
    if work_is_opaque {
        mutated.extend(effects.module_defs.iter().cloned());
    }

    // classify module-level statements in order
    let mut hoistable_names: BTreeSet<String> = BTreeSet::new();
    let mut hoisted_stmts: Vec<Stmt> = Vec::new();
    let mut hoisted: Vec<HoistedStmt> = Vec::new();
    let mut residue: Vec<Stmt> = Vec::new();
    let mut residue_touched: BTreeSet<String> = BTreeSet::new();
    let mut residue_written: BTreeSet<String> = BTreeSet::new();
    let mut imports: BTreeSet<String> = BTreeSet::new();
    let mut folded = 0usize;
    // constant environment tracking *original* module execution order
    let mut cenv = ConstEnv::new();
    let no_locals = BTreeSet::new();

    for stmt in &prog {
        if let StmtKind::FuncDef(f) = &stmt.kind {
            // function definitions travel as code, not as context setup
            hoistable_names.insert(f.name.clone());
            const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
            continue;
        }
        let eff = effects.stmt_effect(stmt);
        let clean = !eff.io && !eff.dynamic && !eff.calls_unknown;
        let reads_mutated = eff.reads.iter().any(|n| mutated.contains(n));
        let writes_mutated = eff.writes.iter().any(|n| mutated.contains(n));
        // a read of a module name that has not hoisted blocks hoisting —
        // except a name the statement itself binds (a `for` variable, a
        // self-referential rebind): if such a name was touched by residue
        // instead, the writes_residue_touched check below still blocks
        let unhoisted_dep = eff.reads.iter().any(|n| {
            effects.module_defs.contains(n)
                && !hoistable_names.contains(n)
                && !eff.writes.contains(n)
        });
        let writes_residue_touched = eff.writes.iter().any(|n| residue_touched.contains(n));
        // reading a name the residue already *wrote* would observe the
        // pre-residue value once hoisted; names the residue merely read
        // are fine to read again
        let reads_residue_written = eff.reads.iter().any(|n| residue_written.contains(n));

        if clean
            && !reads_mutated
            && !writes_mutated
            && !unhoisted_dep
            && !writes_residue_touched
            && !reads_residue_written
        {
            if let StmtKind::Import(m) = &stmt.kind {
                imports.insert(m.clone());
            }
            hoistable_names.extend(eff.writes.iter().cloned());
            hoisted.push(HoistedStmt {
                source: fmt_stmt(stmt),
                folded_from: None,
            });
            hoisted_stmts.push(stmt.clone());
            const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
            continue;
        }

        // fold path: an assignment whose value is a known scalar under the
        // original-order constant environment hoists as that constant,
        // even when its right-hand side reads invocation-mutated or
        // residue state — the value is captured, not the dependency
        if let StmtKind::Assign(Target::Var(x), e) = &stmt.kind {
            let foldable = !mutated.contains(x) && !residue_touched.contains(x);
            // (a fold may READ residue-written names: the constant
            // environment already accounts for those writes)
            if foldable {
                if let CVal::Const(v) = eval_const(e, &cenv) {
                    if scalar(&v) {
                        if let Some(le) = lit_expr(&v) {
                            let rewritten =
                                Stmt::dummy(StmtKind::Assign(Target::Var(x.clone()), le));
                            hoistable_names.insert(x.clone());
                            hoisted.push(HoistedStmt {
                                source: fmt_stmt(&rewritten),
                                folded_from: Some(fmt_stmt(stmt)),
                            });
                            hoisted_stmts.push(rewritten);
                            folded += 1;
                            const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
                            continue;
                        }
                    }
                }
            }
        }

        residue.push(stmt.clone());
        residue_touched.extend(eff.reads.iter().cloned());
        residue_touched.extend(eff.writes.iter().cloned());
        residue_written.extend(eff.writes.iter().cloned());
        const_transfer_stmt(stmt, &mut cenv, &effects, &no_locals);
    }

    // imports inside the needed functions are context too
    for f in &top_defs {
        if needed.contains(&f.name) {
            imports.extend(vine_lang::inspect::scan_function_imports(f));
        }
    }

    // synthesize the setup: a `global` declaration of everything the
    // hoisted statements bind (imported modules included, which the work
    // functions must see in the global namespace), then the statements
    let mut published: Vec<String> = hoisted_stmts
        .iter()
        .flat_map(|s| effects.stmt_effect(s).writes)
        .collect();
    published.sort();
    published.dedup();
    let provides: Vec<String> = published
        .iter()
        .filter(|n| !imports.contains(*n))
        .cloned()
        .collect();

    // the shipped program: setup, every module function (residue may call
    // helpers the work functions never touch), then the boot wrapper
    let taken = bound_names(&prog, &effects);
    let setup_name = fresh_name("context_setup", &taken);
    let mut source = format_funcdef(&publishing_fn(&setup_name, published, hoisted_stmts));
    for f in &top_defs {
        source.push_str(&format_funcdef(f));
    }
    let setup = if residue.is_empty() {
        setup_name
    } else {
        // the residue re-runs per library instance, after the setup, inside
        // a wrapper that publishes whatever the residue writes
        let boot_name = fresh_name("__auto_boot", &taken);
        let call = Expr::Call(Box::new(Expr::Var(setup_name)), vec![]);
        let mut body = vec![Stmt::dummy(StmtKind::Expr(call))];
        body.extend(residue.iter().cloned());
        let boot = publishing_fn(&boot_name, residue_written.into_iter().collect(), body);
        source.push_str(&format_funcdef(&boot));
        boot_name
    };

    let context = DiscoveredContext {
        source,
        setup,
        provides,
        residue: residue.iter().map(fmt_stmt).collect(),
        imports: imports.into_iter().collect(),
    };
    let summaries = needed
        .iter()
        .filter_map(|n| effects.functions.get(n).map(|s| (n.clone(), s.clone())))
        .collect();

    Ok(FlowDiscovery {
        context,
        hoisted,
        effects: summaries,
        folded,
    })
}

/// A function `name()` that declares `globals` (when there are any) and
/// then runs `body`.
fn publishing_fn(name: &str, globals: Vec<String>, body: Vec<Stmt>) -> FuncDef {
    let mut stmts = Vec::with_capacity(body.len() + 1);
    if !globals.is_empty() {
        stmts.push(Stmt::dummy(StmtKind::Global(globals)));
    }
    stmts.extend(body);
    FuncDef::new(name, vec![], stmts)
}

/// Every global name `prog` can bind: module-level bindings, and names a
/// function declares `global`.
fn bound_names(prog: &Program, effects: &EffectEnv) -> BTreeSet<String> {
    let mut taken = effects.module_defs.clone();
    walk_stmts(prog, &mut |s| {
        if let StmtKind::Global(names) = &s.kind {
            taken.extend(names.iter().cloned());
        }
    });
    taken
}

/// `base`, or else the first of `base_2`, `base_3`, … not in `taken`.
fn fresh_name(base: &str, taken: &BTreeSet<String>) -> String {
    (1..)
        .map(|i| match i {
            1 => base.to_string(),
            i => format!("{base}_{i}"),
        })
        .find(|n| !taken.contains(n))
        .expect("a free name")
}
