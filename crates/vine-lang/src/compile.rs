//! Single-pass AST → bytecode compiler.
//!
//! Compilation is total: any parseable program compiles, and every dynamic
//! behavior of the tree-walker is preserved by lowering it to an
//! instruction rather than resolving it statically —
//!
//! * locals are *slots* assigned at compile time (the names the function's
//!   scope binds, [`ScopeNames`]: its parameters, assigned names, `for`
//!   variables, `import`s and nested `def`s), but a slot read before any
//!   assignment still falls back to a global lookup at runtime, exactly
//!   like the tree-walker's locals-then-globals `lookup`;
//! * `global` is a *statement* executed dynamically (it may sit inside an
//!   `if`), so it compiles to [`Instr::Global`] flipping slots to
//!   global-backed for the remainder of the activation;
//! * misplaced `return`/`break`/`continue` are runtime errors raised only
//!   when reached, so they compile to [`Instr::Raise`] — after evaluating
//!   the returned expression, as the tree-walker does;
//! * evaluation order is bit-compatible: call arguments before the callee,
//!   assigned values before index targets, dict keys type-checked before
//!   their values evaluate, `and`/`or` yield the deciding operand itself.

use crate::ast::{BinOp, Expr, FuncDef, Program, ScopeNames, Stmt, StmtKind, Target};
use crate::bytecode::{CompiledFn, CompiledModule, Instr, RaiseKind, NO_SLOT};
use crate::value::Value;
use std::collections::BTreeMap;
use std::rc::Rc;
use vine_core::ContentHash;

/// Compile a parsed module plus its source text into a content-addressed
/// [`CompiledModule`].
pub fn compile_module(prog: &Program, src: &str) -> CompiledModule {
    CompiledModule {
        top: Rc::new(compile_program(prog)),
        source_digest: ContentHash::of_str(src),
    }
}

/// Compile module-level code. The top level has no local slots: every
/// variable is a global, as in the tree-walker's frameless execution.
pub fn compile_program(prog: &Program) -> CompiledFn {
    let mut c = Compiler::new(None);
    for stmt in prog {
        c.stmt(stmt);
    }
    c.finish(None, Rc::from("<module>"), 0, Vec::new())
}

/// Compile one expression evaluated in the global scope, leaving its value
/// as the result: the unit of code of the `eval` builtin.
pub(crate) fn compile_expr(expr: &Expr) -> CompiledFn {
    let mut c = Compiler::new(None);
    c.expr(expr);
    c.emit(Instr::Return);
    c.finish(None, Rc::from("<eval>"), 0, Vec::new())
}

/// Compile one function definition (body in its own slot scope).
pub fn compile_function(def: &Rc<FuncDef>) -> CompiledFn {
    // slot layout: the scope's bound names in slot order; a repeated
    // parameter's name maps to its last position, matching the
    // tree-walker's left-to-right binding
    let names = ScopeNames::function(def);
    let slot_list = names.bound();
    let mut slots: BTreeMap<String, u16> = BTreeMap::new();
    for (i, n) in slot_list.iter().enumerate() {
        slots.insert(n.to_string(), i as u16);
    }

    let mut c = Compiler::new(Some(slots));
    for stmt in &def.body {
        c.stmt(stmt);
    }
    // fall-off-the-end epilogue: return none
    let none = c.const_idx(Value::None);
    c.emit(Instr::Const(none));
    c.emit(Instr::Return);

    let name: Rc<str> = if def.name.is_empty() {
        Rc::from("<lambda>")
    } else {
        Rc::from(def.name.as_str())
    };
    let slot_names = slot_list.iter().map(|s| Rc::from(*s)).collect();
    c.finish(
        Some(Rc::clone(def)),
        name,
        def.params.len() as u16,
        slot_names,
    )
}

/// Peephole fusion: collapse adjacent instructions into the fused
/// superinstructions of [`Instr`] wherever the interior of the window is
/// not a jump target. Dispatch (one indirect branch per instruction) is
/// the dominant cost of simple operations, so fewer, fatter instructions
/// is the single biggest VM throughput lever. Every fusion preserves
/// evaluation order and error behavior exactly; jump targets are remapped
/// through an old→new index table afterwards.
fn fuse(code: Vec<Instr>) -> Vec<Instr> {
    use Instr::*;
    // a window may *start* at a jump target (loop heads do), but fusing
    // across one would let a jump land mid-superinstruction
    let mut is_target = vec![false; code.len() + 1];
    for ins in &code {
        match ins {
            Jump(t) | JumpIfFalse(t) | JumpIfFalseKeep(t) | JumpIfTrueKeep(t) | IterNext(t) => {
                is_target[*t as usize] = true;
            }
            _ => {}
        }
    }
    const GONE: u32 = u32::MAX;
    let mut map = vec![GONE; code.len() + 1];
    let mut out: Vec<Instr> = Vec::with_capacity(code.len());
    let mut i = 0usize;
    while i < code.len() {
        map[i] = out.len() as u32;
        let free = |k: usize| k < code.len() && !is_target[k];
        let mut fused = if free(i + 1) && free(i + 2) {
            match (&code[i], &code[i + 1], &code[i + 2]) {
                (LoadLocal(a), LoadLocal(b), Binary(op)) => Some((
                    BinaryLL {
                        op: *op,
                        a: *a,
                        b: *b,
                    },
                    3,
                )),
                (LoadLocal(a), Const(c), Binary(op)) => Some((
                    BinaryLC {
                        op: *op,
                        a: *a,
                        c: *c,
                    },
                    3,
                )),
                _ => None,
            }
        } else {
            None
        };
        if fused.is_none() && free(i + 1) {
            fused = match (&code[i], &code[i + 1]) {
                (LoadLocal(s), Binary(op)) => Some((BinarySL { op: *op, s: *s }, 2)),
                (Const(c), Binary(op)) => Some((BinarySC { op: *op, c: *c }, 2)),
                (LoadLocal(s), Return) => Some((ReturnLocal(*s), 2)),
                (Const(c), Return) => Some((ReturnConst(*c), 2)),
                (IterNext(t), StoreLocal(s)) => Some((
                    ForIter {
                        target: *t,
                        slot: *s,
                    },
                    2,
                )),
                _ => None,
            };
        }
        match fused {
            Some((ins, width)) => {
                out.push(ins);
                i += width;
            }
            None => {
                out.push(code[i].clone());
                i += 1;
            }
        }
    }
    map[code.len()] = out.len() as u32;
    for ins in &mut out {
        match ins {
            Jump(t)
            | JumpIfFalse(t)
            | JumpIfFalseKeep(t)
            | JumpIfTrueKeep(t)
            | IterNext(t)
            | ForIter { target: t, .. } => {
                debug_assert_ne!(map[*t as usize], GONE, "jump into a fused window");
                *t = map[*t as usize];
            }
            _ => {}
        }
    }
    out
}

struct LoopCtx {
    continue_target: u32,
    break_jumps: Vec<usize>,
    is_for: bool,
}

struct Compiler {
    /// Name → slot for the enclosing function; `None` at module level.
    slots: Option<BTreeMap<String, u16>>,
    names: Vec<Rc<str>>,
    name_idx: BTreeMap<String, u32>,
    consts: Vec<Value>,
    funcs: Vec<Rc<CompiledFn>>,
    code: Vec<Instr>,
    loops: Vec<LoopCtx>,
}

impl Compiler {
    fn new(slots: Option<BTreeMap<String, u16>>) -> Compiler {
        Compiler {
            slots,
            names: Vec::new(),
            name_idx: BTreeMap::new(),
            consts: Vec::new(),
            funcs: Vec::new(),
            code: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn finish(
        self,
        def: Option<Rc<FuncDef>>,
        name: Rc<str>,
        n_params: u16,
        slot_names: Vec<Rc<str>>,
    ) -> CompiledFn {
        CompiledFn {
            def,
            name,
            n_params,
            n_slots: slot_names.len() as u16,
            slot_names,
            names: self.names,
            consts: self.consts,
            funcs: self.funcs,
            code: fuse(self.code),
        }
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t)
            | Instr::JumpIfFalseKeep(t)
            | Instr::JumpIfTrueKeep(t)
            | Instr::IterNext(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.name_idx.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(Rc::from(name));
        self.name_idx.insert(name.to_string(), i);
        i
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        // strict-variant equality: Value's PartialEq calls Int(2) and
        // Float(2.0) equal, which must NOT collapse into one pool entry
        fn same(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::None, Value::None) => true,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => false,
            }
        }
        if let Some(i) = self.consts.iter().position(|c| same(c, &v)) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn slot_of(&self, name: &str) -> Option<u16> {
        self.slots.as_ref().and_then(|m| m.get(name).copied())
    }

    fn load_var(&mut self, name: &str) {
        match self.slot_of(name) {
            Some(s) => self.emit(Instr::LoadLocal(s)),
            None => {
                let n = self.name_idx(name);
                self.emit(Instr::LoadGlobal(n))
            }
        };
    }

    fn store_var(&mut self, name: &str) {
        match self.slot_of(name) {
            Some(s) => self.emit(Instr::StoreLocal(s)),
            None => {
                let n = self.name_idx(name);
                self.emit(Instr::StoreGlobal(n))
            }
        };
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Import(name) => {
                let n = self.name_idx(name);
                self.emit(Instr::Import(n));
                self.store_var(name);
            }
            StmtKind::FuncDef(def) => {
                let f = Rc::new(compile_function(def));
                self.funcs.push(f);
                let i = (self.funcs.len() - 1) as u32;
                self.emit(Instr::MakeFunc(i));
                self.store_var(&def.name);
            }
            StmtKind::Global(names) => {
                // dynamic declaration: only slots flip; names without a
                // slot already resolve globally, and at module level the
                // statement is a no-op
                let slots: Vec<u16> = names.iter().filter_map(|n| self.slot_of(n)).collect();
                if !slots.is_empty() {
                    self.emit(Instr::Global(slots.into_boxed_slice()));
                }
            }
            StmtKind::Assign(target, expr) => {
                // value first, then the index target's object and index
                self.expr(expr);
                match target {
                    Target::Var(name) => self.store_var(name),
                    Target::Index(obj, idx) => {
                        self.expr(obj);
                        self.expr(idx);
                        self.emit(Instr::StoreIndex);
                    }
                }
            }
            StmtKind::If(arms, els) => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    self.expr(cond);
                    let jf = self.emit(Instr::JumpIfFalse(0));
                    for s in body {
                        self.stmt(s);
                    }
                    end_jumps.push(self.emit(Instr::Jump(0)));
                    let next = self.here();
                    self.patch(jf, next);
                }
                if let Some(body) = els {
                    for s in body {
                        self.stmt(s);
                    }
                }
                let end = self.here();
                for j in end_jumps {
                    self.patch(j, end);
                }
            }
            StmtKind::While(cond, body) => {
                let start = self.here();
                self.expr(cond);
                let jf = self.emit(Instr::JumpIfFalse(0));
                self.loops.push(LoopCtx {
                    continue_target: start,
                    break_jumps: Vec::new(),
                    is_for: false,
                });
                for s in body {
                    self.stmt(s);
                }
                self.emit(Instr::Jump(start));
                let end = self.here();
                self.patch(jf, end);
                let ctx = self.loops.pop().expect("loop context");
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
            }
            StmtKind::For(var, iter, body) => {
                self.expr(iter);
                self.emit(Instr::MakeIter);
                let next = self.here();
                self.emit(Instr::IterNext(0));
                self.store_var(var);
                self.loops.push(LoopCtx {
                    continue_target: next,
                    break_jumps: Vec::new(),
                    is_for: true,
                });
                for s in body {
                    self.stmt(s);
                }
                self.emit(Instr::Jump(next));
                let end = self.here();
                self.patch(next as usize, end);
                let ctx = self.loops.pop().expect("loop context");
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    self.expr(e);
                } else if self.slots.is_some() {
                    let none = self.const_idx(Value::None);
                    self.emit(Instr::Const(none));
                }
                if self.slots.is_some() {
                    self.emit(Instr::Return);
                } else {
                    // module level: the tree-walker evaluates the value,
                    // then errors when the Return flow surfaces
                    self.emit(Instr::Raise(RaiseKind::ReturnOutsideFunction));
                }
            }
            StmtKind::Break => match self.loops.last() {
                Some(ctx) => {
                    if ctx.is_for {
                        self.emit(Instr::PopIter);
                    }
                    let j = self.emit(Instr::Jump(0));
                    self.loops
                        .last_mut()
                        .expect("loop context")
                        .break_jumps
                        .push(j);
                }
                None => {
                    self.emit(Instr::Raise(RaiseKind::BreakContinueOutsideLoop));
                }
            },
            StmtKind::Continue => match self.loops.last() {
                Some(ctx) => {
                    let t = ctx.continue_target;
                    self.emit(Instr::Jump(t));
                }
                None => {
                    self.emit(Instr::Raise(RaiseKind::BreakContinueOutsideLoop));
                }
            },
            StmtKind::Expr(e) => {
                self.expr(e);
                self.emit(Instr::Pop);
            }
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::None => {
                let i = self.const_idx(Value::None);
                self.emit(Instr::Const(i));
            }
            Expr::Bool(b) => {
                let i = self.const_idx(Value::Bool(*b));
                self.emit(Instr::Const(i));
            }
            Expr::Int(v) => {
                let i = self.const_idx(Value::Int(*v));
                self.emit(Instr::Const(i));
            }
            Expr::Float(v) => {
                let i = self.const_idx(Value::Float(*v));
                self.emit(Instr::Const(i));
            }
            Expr::Str(s) => {
                let i = self.const_idx(Value::str(s.clone()));
                self.emit(Instr::Const(i));
            }
            Expr::List(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeList(items.len() as u32));
            }
            Expr::Dict(pairs) => {
                for (k, v) in pairs {
                    // the key's str-ness is checked before the value
                    // expression runs, as in the tree-walker
                    self.expr(k);
                    self.emit(Instr::CheckStrKey);
                    self.expr(v);
                }
                self.emit(Instr::MakeDict(pairs.len() as u32));
            }
            Expr::Var(name) => self.load_var(name),
            Expr::Attr(obj, attr) => {
                self.expr(obj);
                let n = self.name_idx(attr);
                self.emit(Instr::LoadAttr(n));
            }
            Expr::Index(obj, idx) => {
                self.expr(obj);
                self.expr(idx);
                self.emit(Instr::Index);
            }
            Expr::Call(callee, args) => {
                // arguments evaluate before the callee resolves
                for a in args {
                    self.expr(a);
                }
                if let Expr::Var(name) = callee.as_ref() {
                    let slot = self.slot_of(name).unwrap_or(NO_SLOT);
                    let n = self.name_idx(name);
                    self.emit(Instr::CallNamed {
                        name: n,
                        slot,
                        argc: args.len() as u32,
                    });
                } else {
                    self.expr(callee);
                    self.emit(Instr::CallValue(args.len() as u32));
                }
            }
            Expr::Unary(op, inner) => {
                self.expr(inner);
                self.emit(Instr::Unary(*op));
            }
            Expr::Binary(BinOp::And, lhs, rhs) => {
                self.expr(lhs);
                let j = self.emit(Instr::JumpIfFalseKeep(0));
                self.emit(Instr::Pop);
                self.expr(rhs);
                let end = self.here();
                self.patch(j, end);
            }
            Expr::Binary(BinOp::Or, lhs, rhs) => {
                self.expr(lhs);
                let j = self.emit(Instr::JumpIfTrueKeep(0));
                self.emit(Instr::Pop);
                self.expr(rhs);
                let end = self.here();
                self.patch(j, end);
            }
            Expr::Binary(op, lhs, rhs) => {
                self.expr(lhs);
                self.expr(rhs);
                self.emit(Instr::Binary(*op));
            }
            Expr::Lambda(def) => {
                let f = Rc::new(compile_function(def));
                self.funcs.push(f);
                let i = (self.funcs.len() - 1) as u32;
                self.emit(Instr::MakeFunc(i));
            }
        }
    }
}
