//! The tree-walking reference interpreter: the VM's differential oracle.
//!
//! Production code runs the bytecode VM ([`crate::vm`]). This walker stays
//! as the reference semantics the VM is held to, like `NaiveManager` in
//! `vine_manager::reference` and the pre-overhaul simulator in
//! `vine_sim::reference`. `Engine::Tree` selects it; the differential
//! tests (`tests/vm_differential.rs`) and `repro perf --lang` run it beside
//! the VM. It shares all other interpreter state (globals, modules,
//! output, step budget, call depth) with the VM, so the two engines are
//! comparable bit for bit.

use crate::ast::{BinOp, Expr, Program, Stmt, StmtKind, Target};
use crate::builtins;
use crate::interp::{binary_op, unary_op, Interp};
use crate::value::{Function, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use vine_core::{Result, VineError};

/// Local variable scope for one function activation. Keys are `Rc<str>`
/// so re-assignment and parameter binding never re-clone the name text.
struct Frame {
    locals: BTreeMap<Rc<str>, Value>,
    global_decls: BTreeSet<String>,
}

enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The `Tree` arm of [`Interp::exec_program`].
pub(crate) fn exec_program(interp: &mut Interp, prog: &Program) -> Result<()> {
    for stmt in prog {
        match interp.exec_stmt(stmt, None)? {
            Flow::Normal => {}
            Flow::Return(_) => return Err(VineError::Lang("return outside function".into())),
            Flow::Break | Flow::Continue => {
                return Err(VineError::Lang("break/continue outside loop".into()))
            }
        }
    }
    Ok(())
}

/// The `Tree` arm of `Interp::call_function`: the caller has checked arity
/// and call depth and swapped in the function's defining globals.
pub(crate) fn call_function(interp: &mut Interp, f: &Function, args: &[Value]) -> Result<Value> {
    let mut frame = Frame {
        locals: f
            .param_names
            .iter()
            .cloned()
            .zip(args.iter().cloned())
            .collect(),
        global_decls: BTreeSet::new(),
    };
    for stmt in &f.def.body {
        match interp.exec_stmt(stmt, Some(&mut frame))? {
            Flow::Normal => {}
            Flow::Return(v) => return Ok(v),
            Flow::Break | Flow::Continue => {
                return Err(VineError::Lang("break/continue outside loop".into()))
            }
        }
    }
    Ok(Value::None)
}

/// The `Tree` arm of [`Interp::eval_source`]: one expression in the global
/// scope.
pub(crate) fn eval_expr(interp: &mut Interp, e: &Expr) -> Result<Value> {
    interp.eval(e, None)
}

impl Interp {
    fn exec_block(&mut self, stmts: &[Stmt], frame: Option<&mut Frame>) -> Result<Flow> {
        // reborrow pattern: we need to pass the frame to each statement
        let mut frame = frame;
        for stmt in stmts {
            let flow = self.exec_stmt(stmt, frame.as_deref_mut())?;
            if !matches!(flow, Flow::Normal) {
                return Ok(flow);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, mut frame: Option<&mut Frame>) -> Result<Flow> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::Import(name) => {
                let module = self.import_module(name)?;
                self.assign_var(name, module, frame);
                Ok(Flow::Normal)
            }
            StmtKind::FuncDef(def) => {
                let func = Value::Func(Rc::new(Function::new(
                    Rc::clone(def),
                    Rc::clone(&self.globals),
                )));
                self.assign_var(&def.name, func, frame);
                Ok(Flow::Normal)
            }
            StmtKind::Global(names) => {
                if let Some(fr) = frame.as_deref_mut() {
                    for n in names {
                        fr.global_decls.insert(n.clone());
                    }
                }
                // at module level `global` is a no-op
                Ok(Flow::Normal)
            }
            StmtKind::Assign(target, expr) => {
                let value = self.eval(expr, frame.as_deref_mut())?;
                match target {
                    Target::Var(name) => self.assign_var(name, value, frame),
                    Target::Index(obj, idx) => {
                        let obj_v = self.eval(obj, frame.as_deref_mut())?;
                        let idx_v = self.eval(idx, frame.as_deref_mut())?;
                        self.index_assign(&obj_v, &idx_v, value)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If(arms, els) => {
                for (cond, body) in arms {
                    if self.eval(cond, frame.as_deref_mut())?.truthy() {
                        return self.exec_block(body, frame);
                    }
                }
                if let Some(body) = els {
                    return self.exec_block(body, frame);
                }
                Ok(Flow::Normal)
            }
            StmtKind::While(cond, body) => {
                while self.eval(cond, frame.as_deref_mut())?.truthy() {
                    self.tick()?;
                    match self.exec_block(body, frame.as_deref_mut())? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(var, iter, body) => {
                let items = self.iterable_items(iter, frame.as_deref_mut())?;
                for item in items {
                    self.tick()?;
                    self.assign_var(var, item, frame.as_deref_mut());
                    match self.exec_block(body, frame.as_deref_mut())? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn iterable_items(&mut self, iter: &Expr, frame: Option<&mut Frame>) -> Result<Vec<Value>> {
        let v = self.eval(iter, frame)?;
        match v {
            Value::List(items) => Ok(items.borrow().clone()),
            Value::Dict(d) => Ok(d.borrow().keys().map(|k| Value::str(k.clone())).collect()),
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            other => Err(VineError::Lang(format!(
                "{} is not iterable",
                other.type_name()
            ))),
        }
    }

    fn assign_var(&mut self, name: &str, value: Value, frame: Option<&mut Frame>) {
        match frame {
            Some(fr) if !fr.global_decls.contains(name) => {
                // re-assignment overwrites in place; the name text is only
                // cloned the first time a local is created
                match fr.locals.get_mut(name) {
                    Some(slot) => *slot = value,
                    None => {
                        fr.locals.insert(Rc::from(name), value);
                    }
                }
            }
            _ => self.set_global_fast(name, value),
        }
    }

    fn eval(&mut self, expr: &Expr, mut frame: Option<&mut Frame>) -> Result<Value> {
        self.tick()?;
        match expr {
            Expr::None => Ok(Value::None),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, frame.as_deref_mut())?);
                }
                Ok(Value::list(out))
            }
            Expr::Dict(pairs) => {
                let mut out = BTreeMap::new();
                for (k, v) in pairs {
                    let key = self.eval(k, frame.as_deref_mut())?.as_str()?.to_string();
                    let val = self.eval(v, frame.as_deref_mut())?;
                    out.insert(key, val);
                }
                Ok(Value::Dict(Rc::new(RefCell::new(out))))
            }
            Expr::Var(name) => self.lookup(name, frame.as_deref()),
            Expr::Attr(obj, attr) => {
                let obj = self.eval(obj, frame)?;
                match obj {
                    Value::Module(m) => m.members.borrow().get(attr).cloned().ok_or_else(|| {
                        VineError::Lang(format!("module {} has no member {attr}", m.name))
                    }),
                    other => Err(VineError::Lang(format!(
                        "{} has no attributes",
                        other.type_name()
                    ))),
                }
            }
            Expr::Index(obj, idx) => {
                let obj = self.eval(obj, frame.as_deref_mut())?;
                let idx = self.eval(idx, frame)?;
                self.index_get(&obj, &idx)
            }
            Expr::Call(callee, args) => {
                // builtins may need interpreter services (print capture,
                // eval), so builtin dispatch happens here
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a, frame.as_deref_mut())?);
                }
                if let Expr::Var(name) = callee.as_ref() {
                    let shadowed = self.name_resolves(name, frame.as_deref());
                    if !shadowed {
                        if let Some(result) = builtins::call_builtin(self, name, &arg_vals)? {
                            return Ok(result);
                        }
                    }
                }
                let callee = self.eval(callee, frame)?;
                self.call_value(&callee, &arg_vals)
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, frame)?;
                unary_op(*op, &v)
            }
            Expr::Binary(op, lhs, rhs) => {
                // short-circuit logical operators
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs, frame.as_deref_mut())?;
                        if !l.truthy() {
                            return Ok(l);
                        }
                        return self.eval(rhs, frame);
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs, frame.as_deref_mut())?;
                        if l.truthy() {
                            return Ok(l);
                        }
                        return self.eval(rhs, frame);
                    }
                    _ => {}
                }
                let l = self.eval(lhs, frame.as_deref_mut())?;
                let r = self.eval(rhs, frame)?;
                binary_op(*op, &l, &r)
            }
            Expr::Lambda(def) => Ok(Value::Func(Rc::new(Function::new(
                Rc::clone(def),
                Rc::clone(&self.globals),
            )))),
        }
    }

    fn name_resolves(&self, name: &str, frame: Option<&Frame>) -> bool {
        if let Some(fr) = frame {
            if fr.locals.contains_key(name) && !fr.global_decls.contains(name) {
                return true;
            }
        }
        self.globals.borrow().contains_key(name)
    }

    fn lookup(&self, name: &str, frame: Option<&Frame>) -> Result<Value> {
        if let Some(fr) = frame {
            if !fr.global_decls.contains(name) {
                if let Some(v) = fr.locals.get(name) {
                    return Ok(v.clone());
                }
            }
        }
        self.globals
            .borrow()
            .get(name)
            .cloned()
            .ok_or_else(|| VineError::Lang(format!("undefined variable: {name}")))
    }
}
