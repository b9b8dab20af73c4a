//! Language-layer lints over a parsed vinescript [`Program`].
//!
//! These are the checks the paper's discover mechanism (§3.2) implies but
//! never enforces: a work function that reads a name nothing defines will
//! only fail on a worker, after the context shipped; a module-level
//! statement that calls `eval` silently disables context hoisting; a
//! function that mutates a module-level global quietly demotes that
//! binding to per-instance residue. Each of those becomes a diagnostic
//! here, before anything is packaged.
//!
//! Scope model: vinescript resolves free names in a function against the
//! module's global namespace at *call* time, so a name is "defined" if it
//! is a builtin, a parameter or local of the enclosing scope, a
//! module-level binding, or — crucially for the paper's Fig 4 pattern — a
//! name *published* by any function through a `global` declaration
//! (`context_setup` publishing `model` is how LNNI's `infer` finds it).
//! Which statements form a scope and which names it binds or declares
//! `global` is the engines' rule, read from `vine_lang::ast`
//! ([`walk_scope`], [`ScopeNames`]).

use crate::diag::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use vine_lang::ast::{
    binding, expr_reads, stmt_exprs, walk_exprs_in, walk_scope, walk_scope_exprs, walk_stmts, Expr,
    FuncDef, Program, ScopeNames, Span, Stmt, StmtKind, Target,
};
use vine_lang::builtins::is_builtin;

/// What the module-level pass learned about a program; shared by several
/// lints and by the environment layer.
pub(crate) struct ModuleModel {
    /// Names the top-level statements bind ([`binding`]), each with its
    /// first binding's span.
    pub module_defs: BTreeMap<String, Span>,
    /// Names any function declares `global` — published into the namespace
    /// for later invocations (or read from it).
    pub published: BTreeSet<String>,
    /// `eval`/`exec` appears somewhere: name resolution is undecidable, so
    /// undefined-name findings downgrade to warnings.
    pub uses_dynamic: bool,
    /// Named top-level functions, in order.
    pub functions: Vec<Rc<FuncDef>>,
}

pub(crate) fn build_model(prog: &Program) -> ModuleModel {
    let mut module_defs = BTreeMap::new();
    let mut published = BTreeSet::new();
    let mut functions = Vec::new();
    for s in prog {
        let span = match &s.kind {
            StmtKind::FuncDef(f) => {
                functions.push(Rc::clone(f));
                f.span
            }
            _ => s.span,
        };
        if let Some(n) = binding(s) {
            module_defs.entry(n.to_string()).or_insert(span);
        }
    }
    let mut uses_dynamic = false;
    walk_stmts(prog, &mut |s| {
        stmt_exprs(s, &mut |e| uses_dynamic |= calls_dynamic(e));
        if let StmtKind::Global(names) = &s.kind {
            published.extend(names.iter().cloned());
        }
    });
    ModuleModel {
        module_defs,
        published,
        uses_dynamic,
        functions,
    }
}

/// Does `e` call `eval` or `exec` (outside lambda bodies)?
fn calls_dynamic(e: &Expr) -> bool {
    let mut hit = false;
    walk_exprs_in(e, &mut |x| {
        if let Expr::Call(f, _) = x {
            hit |= matches!(&**f, Expr::Var(n) if n == "eval" || n == "exec");
        }
    });
    hit
}

/// First assignment span per plain-variable target among `def`'s own
/// statements: the bindings V011 and V012 consider.
fn first_assigns(def: &FuncDef) -> BTreeMap<&str, Span> {
    let mut out = BTreeMap::new();
    walk_scope(&def.body, &mut |s| {
        if let StmtKind::Assign(Target::Var(n), _) = &s.kind {
            out.entry(n.as_str()).or_insert(s.span);
        }
    });
    out
}

/// Names `def` writes into the module namespace through `global` — by
/// assignment, or by index-assignment into the named container — counting
/// every function nested in it as `def`'s own, as vine-flow's summaries
/// do. Each body is judged by its own scope's declarations.
fn writes_via_global(def: &FuncDef, out: &mut BTreeSet<String>) {
    let names = ScopeNames::function(def);
    walk_scope(&def.body, &mut |s| match &s.kind {
        StmtKind::Assign(Target::Var(n), _)
        | StmtKind::Assign(Target::Index(Expr::Var(n), _), _)
            if names.declared_global().contains(n.as_str()) =>
        {
            out.insert(n.clone());
        }
        StmtKind::FuncDef(f) => writes_via_global(f, out),
        _ => {}
    });
    walk_scope_exprs(&def.body, &mut |e| {
        if let Expr::Lambda(f) = e {
            writes_via_global(f, out);
        }
    });
}

/// All language-layer lints for one parsed program.
pub fn lint_language(prog: &Program) -> Vec<Diagnostic> {
    let model = build_model(prog);
    let mut diags = Vec::new();
    undefined_names(prog, &model, &mut diags); // V010
    unused_bindings(&model, &mut diags); // V011
    shadowed_globals(&model, &mut diags); // V012
    dynamic_module_scope(prog, &mut diags); // V013
    hoist_defeated(prog, &model, &mut diags); // V014
    duplicate_definitions(prog, &mut diags); // V016
    diags
}

// --- V010: undefined-name ---

fn undefined_names(prog: &Program, model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    // module scope first: every top-level binding is visible regardless of
    // order (functions run after the whole module loads)
    check_scope(
        prog,
        ScopeNames::module(prog),
        &BTreeSet::new(),
        model,
        diags,
    );
}

/// Check the reads of one scope's own statements, each attributed to the
/// innermost statement's span, then every function defined directly in
/// the scope (nested `def`s and lambdas), which also sees its names.
fn check_scope<'a>(
    body: &'a [Stmt],
    names: ScopeNames<'a>,
    enclosing: &BTreeSet<&'a str>,
    model: &ModuleModel,
    diags: &mut Vec<Diagnostic>,
) {
    let mut bound = enclosing.clone();
    bound.extend(names.bound());
    bound.extend(names.declared_global());
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    let mut nested: Vec<&Rc<FuncDef>> = Vec::new();
    walk_scope(body, &mut |s| {
        if let StmtKind::FuncDef(f) = &s.kind {
            nested.push(f);
        }
        stmt_exprs(s, &mut |e| {
            walk_exprs_in(e, &mut |x| match x {
                Expr::Var(n) => {
                    if bound.contains(n.as_str())
                        || is_builtin(n)
                        || model.module_defs.contains_key(n)
                        || model.published.contains(n)
                        || !reported.insert(n)
                    {
                        return;
                    }
                    let d = if model.uses_dynamic {
                        Diagnostic::warning(
                            "V010",
                            "undefined-name",
                            format!("name `{n}` is not defined"),
                        )
                        .with_help(
                            "this program uses eval/exec, which may define names dynamically; \
                             downgraded from an error",
                        )
                    } else {
                        Diagnostic::error(
                            "V010",
                            "undefined-name",
                            format!("name `{n}` is not defined"),
                        )
                        .with_help(
                            "define it, pass it as a parameter, or publish it from a \
                             context setup function via `global`",
                        )
                    };
                    diags.push(d.with_span(s.span));
                }
                Expr::Lambda(f) => nested.push(f),
                _ => {}
            })
        });
    });
    for fd in nested {
        check_scope(&fd.body, ScopeNames::function(fd), &bound, model, diags);
    }
}

// --- V011: unused-binding ---

fn unused_bindings(model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    for f in &model.functions {
        let names = ScopeNames::function(f);
        // a nested function may observe an outer binding through the
        // global namespace at run time: reads anywhere under `f` count
        let mut read = BTreeSet::new();
        walk_stmts(&f.body, &mut |s| {
            stmt_exprs(s, &mut |e| expr_reads(e, &mut read));
        });
        for (n, span) in first_assigns(f) {
            if read.contains(n) || names.declared_global().contains(n) || n.starts_with('_') {
                continue;
            }
            diags.push(
                Diagnostic::warning(
                    "V011",
                    "unused-binding",
                    format!(
                        "local `{n}` in function `{}` is assigned but never read",
                        f.name
                    ),
                )
                .with_span(span)
                .with_help("remove the assignment, or prefix the name with `_` if intentional"),
            );
        }
    }
}

// --- V012: shadowed-global ---

fn shadowed_globals(model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    for f in &model.functions {
        let globally_visible = |n: &str| {
            (model.module_defs.contains_key(n) && n != f.name) || model.published.contains(n)
        };
        for p in f.params.iter().filter(|p| globally_visible(p)) {
            diags.push(
                Diagnostic::warning(
                    "V012",
                    "shadowed-global",
                    format!(
                        "parameter `{p}` of function `{}` shadows a module-level binding",
                        f.name
                    ),
                )
                .with_span(f.span)
                .with_help("rename the parameter; inside this function the global is unreachable"),
            );
        }
        let names = ScopeNames::function(f);
        for (n, span) in first_assigns(f) {
            if globally_visible(n)
                && !names.declared_global().contains(n)
                && !f.params.iter().any(|p| p == n)
            {
                diags.push(
                    Diagnostic::warning(
                        "V012",
                        "shadowed-global",
                        format!(
                            "assignment to `{n}` in function `{}` creates a local that \
                             shadows the module-level binding",
                            f.name
                        ),
                    )
                    .with_span(span)
                    .with_help("declare `global` first if you meant to write the module binding"),
                );
            }
        }
    }
}

// --- V013: dynamic code at module scope ---

fn dynamic_module_scope(prog: &Program, diags: &mut Vec<Diagnostic>) {
    for s in prog {
        let mut hit = false;
        stmt_exprs(s, &mut |e| hit |= calls_dynamic(e));
        if hit {
            diags.push(
                Diagnostic::warning(
                    "V013",
                    "dynamic-module-scope",
                    "eval/exec at module scope cannot be statically analyzed",
                )
                .with_span(s.span)
                .with_help(
                    "context discovery cannot classify this statement as hoistable \
                     context; functions it defines must ship serialized, not as source",
                ),
            );
        }
    }
}

// --- V014: hoist-defeated ---

fn hoist_defeated(prog: &Program, model: &ModuleModel, diags: &mut Vec<Diagnostic>) {
    let mut writers: BTreeMap<String, String> = BTreeMap::new();
    for f in &model.functions {
        let mut written = BTreeSet::new();
        writes_via_global(f, &mut written);
        for n in written {
            writers.entry(n).or_insert_with(|| f.name.clone());
        }
    }
    for s in prog {
        if let StmtKind::Assign(Target::Var(n), _) = &s.kind {
            if let Some(writer) = writers.get(n) {
                diags.push(
                    Diagnostic::warning(
                        "V014",
                        "hoist-defeated",
                        format!(
                            "module-level binding `{n}` is mutated by function `{writer}` \
                             via `global`; its definition cannot be hoisted into reusable \
                             context"
                        ),
                    )
                    .with_span(s.span)
                    .with_help(
                        "this statement re-runs per library instance as residue; keep \
                         mutable per-invocation state out of context setup",
                    ),
                );
            }
        }
    }
}

// --- V016: duplicate-definition ---

fn duplicate_definitions(prog: &Program, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new(); // name -> kind
    for s in prog {
        let (name, kind, span) = match &s.kind {
            StmtKind::FuncDef(f) => (f.name.as_str(), "function", f.span),
            StmtKind::Import(n) => (n.as_str(), "import", s.span),
            _ => continue,
        };
        if let Some(prev) = seen.insert(name, kind) {
            diags.push(
                Diagnostic::warning(
                    "V016",
                    "duplicate-definition",
                    format!(
                        "`{name}` is defined more than once at module level \
                         (earlier {prev} is silently replaced)"
                    ),
                )
                .with_span(span)
                .with_help("rename one of the definitions; only the last one survives"),
            );
        }
    }
}
