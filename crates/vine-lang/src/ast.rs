//! Abstract syntax tree for vinescript.
//!
//! The AST is the unit the paper's discover mechanism operates on: source
//! extraction produces it via the parser, import scanning walks it
//! ([`crate::inspect::scan_imports`]), and the serializer
//! ([`crate::pickle`]) encodes it byte-for-byte so functions without a
//! source form can still be shipped to workers.
//!
//! Statements and function definitions carry byte-offset [`Span`]s into
//! their source text so static analysis ([`vine-lint`]) and error messages
//! can point at real locations. Spans are *metadata*: they never
//! participate in AST equality or in the pickle encoding, so a reformatted
//! program compares equal to the original and serialized code objects stay
//! bit-identical to the pre-span format.

use std::collections::BTreeSet;
use std::rc::Rc;

/// A half-open byte range `[start, end)` into the source text a node was
/// parsed from.
///
/// Equality is intentionally vacuous: two spans always compare equal (and
/// hash identically), so `#[derive(PartialEq)]` on AST nodes compares
/// *structure only*. A program that is parsed, pretty-printed, and parsed
/// again compares equal to the original even though every span moved.
#[derive(Clone, Copy, Debug, Eq)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    /// The span of synthesized nodes (deserialized code objects, generated
    /// `context_setup` functions): no source position.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end.max(start) as u32,
        }
    }

    /// True for spans of synthesized nodes that have no source location.
    pub fn is_dummy(&self) -> bool {
        self.start == 0 && self.end == 0
    }

    /// 1-based (line, column) of the span start within `src`. Columns count
    /// bytes from the line start, which is exact for the ASCII-only lexical
    /// grammar.
    pub fn line_col(&self, src: &str) -> (u32, u32) {
        let upto = &src.as_bytes()[..(self.start as usize).min(src.len())];
        let line = 1 + upto.iter().filter(|b| **b == b'\n').count() as u32;
        let col = 1 + upto.iter().rev().take_while(|b| **b != b'\n').count() as u32;
        (line, col)
    }

    /// The source text this span covers.
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        let start = (self.start as usize).min(src.len());
        let end = (self.end as usize).min(src.len()).max(start);
        &src[start..end]
    }
}

impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true
    }
}

impl std::hash::Hash for Span {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl Default for Span {
    fn default() -> Span {
        Span::DUMMY
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    List(Vec<Expr>),
    /// Dict literal; keys are expressions evaluating to strings.
    Dict(Vec<(Expr, Expr)>),
    Var(String),
    /// `object.attr` — module member access.
    Attr(Box<Expr>, String),
    Index(Box<Expr>, Box<Expr>),
    Call(Box<Expr>, Vec<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Anonymous function: `fn (x, y) { ... }`. Has no extractable source
    /// inside a larger expression, so it must travel serialized — exactly
    /// the case the paper's cloudpickle path exists for.
    Lambda(Rc<FuncDef>),
}

/// Assignment target.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    Var(String),
    Index(Expr, Expr),
}

/// A statement: what it does ([`StmtKind`]) plus where it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

impl Stmt {
    pub fn new(kind: StmtKind, span: Span) -> Stmt {
        Stmt { kind, span }
    }

    /// A synthesized statement with no source location.
    pub fn dummy(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::DUMMY,
        }
    }
}

impl From<StmtKind> for Stmt {
    fn from(kind: StmtKind) -> Stmt {
        Stmt::dummy(kind)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    Import(String),
    FuncDef(Rc<FuncDef>),
    Assign(Target, Expr),
    /// `x += e` / `x -= e` desugared at parse time into Assign.
    Global(Vec<String>),
    If(Vec<(Expr, Vec<Stmt>)>, Option<Vec<Stmt>>),
    While(Expr, Vec<Stmt>),
    For(String, Expr, Vec<Stmt>),
    Return(Option<Expr>),
    Break,
    Continue,
    Expr(Expr),
}

/// A function definition: the code object of vinescript.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncDef {
    /// Empty string for lambdas.
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    /// Source span of the whole definition ([`Span::DUMMY`] when
    /// synthesized or deserialized).
    pub span: Span,
}

pub type Program = Vec<Stmt>;

impl FuncDef {
    pub fn new(name: impl Into<String>, params: Vec<String>, body: Vec<Stmt>) -> FuncDef {
        FuncDef {
            name: name.into(),
            params,
            body,
            span: Span::DUMMY,
        }
    }

    pub fn is_lambda(&self) -> bool {
        self.name.is_empty()
    }
}

/// Walk every statement in a program (pre-order), including nested blocks
/// and function bodies. The traversal backbone for import scanning and
/// other static analyses.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Stmt)) {
    walk_scope(stmts, &mut |s| {
        visit(s);
        match &s.kind {
            StmtKind::FuncDef(f) => walk_stmts(&f.body, visit),
            StmtKind::Assign(_, e) | StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
                walk_exprs_in(e, &mut |expr| {
                    if let Expr::Lambda(f) = expr {
                        walk_stmts(&f.body, visit);
                    }
                });
            }
            _ => {}
        }
    });
}

// ---------- the scoping rule ----------
//
// Which names a scope binds, as both engines implement it: the compiler
// gives each a slot and flips declared ones with `Instr::Global`; the
// tree-walker's `assign_var` binds them in the frame unless the frame
// declared them global. Every static pass (the compiler's slot layout,
// vine-flow's effect summaries, vine-lint's scope lints) reads it here.

/// Walk one scope's *own* statements pre-order: `stmts` and the bodies of
/// nested `if`/`while`/`for` blocks, but not nested function or lambda
/// bodies, which are scopes of their own.
pub fn walk_scope<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        visit(s);
        match &s.kind {
            StmtKind::If(arms, els) => {
                for (_, body) in arms {
                    walk_scope(body, visit);
                }
                if let Some(body) = els {
                    walk_scope(body, visit);
                }
            }
            StmtKind::While(_, body) | StmtKind::For(_, _, body) => walk_scope(body, visit),
            _ => {}
        }
    }
}

/// Visit the expressions that belong to `stmt` itself: an index target's
/// object and index, then the assigned value; `if`/`while` conditions; a
/// `for` iterable; a returned or evaluated expression. Those of nested
/// statements are theirs.
pub fn stmt_exprs<'a>(stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Assign(target, e) => {
            if let Target::Index(obj, idx) = target {
                visit(obj);
                visit(idx);
            }
            visit(e);
        }
        StmtKind::If(arms, _) => {
            for (c, _) in arms {
                visit(c);
            }
        }
        StmtKind::While(c, _) => visit(c),
        StmtKind::For(_, iter, _) => visit(iter),
        StmtKind::Return(Some(e)) | StmtKind::Expr(e) => visit(e),
        _ => {}
    }
}

/// Walk the expression trees of one scope's own statements pre-order.
/// Lambda nodes are visited; their bodies are not.
pub fn walk_scope_exprs<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Expr)) {
    walk_scope(stmts, &mut |s| {
        stmt_exprs(s, &mut |e| walk_exprs_in(e, visit))
    });
}

/// The name `stmt` binds in its scope: a plain assignment's target, a
/// `for` variable, an `import`ed module or a `def`'s name.
pub fn binding(stmt: &Stmt) -> Option<&str> {
    match &stmt.kind {
        StmtKind::Assign(Target::Var(n), _) | StmtKind::For(n, _, _) | StmtKind::Import(n) => {
            Some(n)
        }
        StmtKind::FuncDef(f) => Some(&f.name),
        _ => None,
    }
}

/// The names one scope binds and the names it declares `global`. A name
/// is frame-local when the function scope binds it and no own statement
/// declares it `global`; at module level every name is global. The
/// engines execute `global` when they reach it; this static reading is
/// flow-insensitive, so a `global` anywhere among the own statements
/// counts for the whole scope.
#[derive(Debug)]
pub struct ScopeNames<'a> {
    bound: Vec<&'a str>,
    declared_global: BTreeSet<&'a str>,
    /// `bound` as a set.
    seen: BTreeSet<&'a str>,
    module: bool,
}

impl<'a> ScopeNames<'a> {
    /// Module scope: the names `prog` binds, none of them frame-local.
    pub fn module(prog: &'a [Stmt]) -> ScopeNames<'a> {
        ScopeNames::collect(&[], prog, true)
    }

    /// The scope of one function or lambda body.
    pub fn function(def: &'a FuncDef) -> ScopeNames<'a> {
        ScopeNames::collect(&def.params, &def.body, false)
    }

    fn collect(params: &'a [String], body: &'a [Stmt], module: bool) -> ScopeNames<'a> {
        let mut bound: Vec<&str> = params.iter().map(String::as_str).collect();
        let mut seen: BTreeSet<&str> = bound.iter().copied().collect();
        let mut declared_global = BTreeSet::new();
        walk_scope(body, &mut |s| match &s.kind {
            StmtKind::Global(names) => declared_global.extend(names.iter().map(String::as_str)),
            _ => {
                if let Some(n) = binding(s) {
                    if seen.insert(n) {
                        bound.push(n);
                    }
                }
            }
        });
        ScopeNames {
            bound,
            declared_global,
            seen,
            module,
        }
    }

    /// Every bound name in the compiler's slot order: a function's
    /// parameters one per position (a repeated parameter keeps each), then
    /// every other bound name once, in first-binding order.
    pub fn bound(&self) -> &[&'a str] {
        &self.bound
    }

    /// Names an own statement declares `global`.
    pub fn declared_global(&self) -> &BTreeSet<&'a str> {
        &self.declared_global
    }

    /// Does `name` resolve to the function's frame?
    pub fn is_local(&self, name: &str) -> bool {
        !self.module && self.seen.contains(name) && !self.declared_global.contains(name)
    }

    /// The frame-local names, in slot order.
    pub fn locals(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.bound.iter().copied().filter(|n| self.is_local(n))
    }
}

/// Walk an expression tree pre-order.
pub fn walk_exprs_in<'a>(e: &'a Expr, visit: &mut dyn FnMut(&'a Expr)) {
    visit(e);
    match e {
        Expr::List(items) => {
            for it in items {
                walk_exprs_in(it, visit);
            }
        }
        Expr::Dict(pairs) => {
            for (k, v) in pairs {
                walk_exprs_in(k, visit);
                walk_exprs_in(v, visit);
            }
        }
        Expr::Attr(obj, _) => walk_exprs_in(obj, visit),
        Expr::Index(obj, idx) => {
            walk_exprs_in(obj, visit);
            walk_exprs_in(idx, visit);
        }
        Expr::Call(f, args) => {
            walk_exprs_in(f, visit);
            for a in args {
                walk_exprs_in(a, visit);
            }
        }
        Expr::Unary(_, x) => walk_exprs_in(x, visit),
        Expr::Binary(_, a, b) => {
            walk_exprs_in(a, visit);
            walk_exprs_in(b, visit);
        }
        _ => {}
    }
}

/// Free variable names an expression reads.
pub fn expr_reads(e: &Expr, out: &mut BTreeSet<String>) {
    walk_exprs_in(e, &mut |x| {
        if let Expr::Var(name) = x {
            out.insert(name.clone());
        }
    });
}

/// Names a statement reads, through nested blocks and nested `def` bodies
/// (less that function's parameters) but not lambda bodies. A `for`
/// statement removes its variable from `out`.
pub fn stmt_reads(stmt: &Stmt, out: &mut BTreeSet<String>) {
    match &stmt.kind {
        StmtKind::Import(_) | StmtKind::Break | StmtKind::Continue | StmtKind::Global(_) => {}
        StmtKind::FuncDef(f) => {
            // a function definition "reads" its free variables at call time;
            // conservatively collect everything its body mentions
            for s in &f.body {
                stmt_reads(s, out);
            }
            for p in &f.params {
                out.remove(p);
            }
        }
        StmtKind::Assign(target, e) => {
            if let Target::Index(obj, idx) = target {
                expr_reads(obj, out);
                expr_reads(idx, out);
            }
            expr_reads(e, out);
        }
        StmtKind::If(arms, els) => {
            for (c, body) in arms {
                expr_reads(c, out);
                for s in body {
                    stmt_reads(s, out);
                }
            }
            if let Some(body) = els {
                for s in body {
                    stmt_reads(s, out);
                }
            }
        }
        StmtKind::While(c, body) => {
            expr_reads(c, out);
            for s in body {
                stmt_reads(s, out);
            }
        }
        StmtKind::For(var, iter, body) => {
            expr_reads(iter, out);
            for s in body {
                stmt_reads(s, out);
            }
            out.remove(var);
        }
        StmtKind::Return(Some(e)) | StmtKind::Expr(e) => expr_reads(e, out),
        StmtKind::Return(None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_nested_function_bodies() {
        let inner = Stmt::dummy(StmtKind::Import("nn".into()));
        let f = FuncDef::new("f", vec![], vec![inner]);
        let prog = vec![Stmt::dummy(StmtKind::FuncDef(Rc::new(f)))];
        let mut imports = Vec::new();
        walk_stmts(&prog, &mut |s| {
            if let StmtKind::Import(m) = &s.kind {
                imports.push(m.clone());
            }
        });
        assert_eq!(imports, vec!["nn".to_string()]);
    }

    #[test]
    fn walk_visits_lambda_bodies_in_expressions() {
        let lambda = Expr::Lambda(Rc::new(FuncDef::new(
            "",
            vec!["x".into()],
            vec![Stmt::dummy(StmtKind::Import("mathx".into()))],
        )));
        let prog = vec![Stmt::dummy(StmtKind::Assign(
            Target::Var("g".into()),
            lambda,
        ))];
        let mut imports = Vec::new();
        walk_stmts(&prog, &mut |s| {
            if let StmtKind::Import(m) = &s.kind {
                imports.push(m.clone());
            }
        });
        assert_eq!(imports, vec!["mathx".to_string()]);
    }

    #[test]
    fn scope_names_follow_the_engines_binding_rule() {
        let prog = crate::parse(
            "def f(a, b) {\n global g\n import nn\n for i in [1] { x = i }\n g = a\n \
             def inner() { global x\n y = 2 }\n h = fn () { z = 3 }\n}\nm = 1",
        )
        .unwrap();
        let StmtKind::FuncDef(f) = &prog[0].kind else {
            panic!("expected a def")
        };
        let names = ScopeNames::function(f);
        assert_eq!(names.bound(), ["a", "b", "nn", "i", "x", "g", "inner", "h"]);
        // a nested body's `global x` and bindings are its own
        assert!(names.is_local("nn") && names.is_local("x") && names.is_local("inner"));
        assert!(!names.is_local("g") && !names.is_local("y") && !names.is_local("z"));
        let module = ScopeNames::module(&prog);
        assert_eq!(module.bound(), ["f", "m"]);
        assert!(!module.is_local("m"));
    }

    #[test]
    fn lambda_detection() {
        let f = FuncDef::new("", vec![], vec![]);
        assert!(f.is_lambda());
    }

    #[test]
    fn spans_do_not_affect_equality() {
        let a = Stmt::new(StmtKind::Break, Span::new(10, 15));
        let b = Stmt::dummy(StmtKind::Break);
        assert_eq!(a, b);
        assert_ne!(a.span.start, b.span.start);
    }

    #[test]
    fn span_line_col() {
        let src = "x = 1\ny = 2\n  z = 3";
        let span = Span::new(src.find('z').unwrap(), src.len());
        assert_eq!(span.line_col(src), (3, 3));
        assert_eq!(span.slice(src), "z = 3");
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
    }
}
