//! The stack VM: a dispatch loop over [`Instr`] that runs *against* an
//! [`Interp`] — it borrows the interpreter's globals, module registry,
//! output capture, step budget, and builtin dispatch. It is the one
//! production engine: module code, function bodies, `eval` expressions and
//! source-module imports all run here. The tree-walker in
//! [`crate::reference`] runs over the same state, so the two can be
//! compared bit-for-bit (the differential proptest in
//! `tests/vm_differential.rs` holds them to identical results, prints,
//! globals, and error strings).
//!
//! Calls re-enter through [`Interp::call_value`], which counts call depth
//! and dispatches by the interpreter's engine. So VM code calling a
//! function defined by `exec`, or `eval`/`exec` re-entering the
//! interpreter, stays on the interpreter's engine without special cases.

use crate::builtins;
use crate::bytecode::{CompiledFn, Instr, NO_SLOT};
use crate::interp::{binary_op, unary_op, Interp};
use crate::value::{Function, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use vine_core::{Result, VineError};

/// Execute module-level compiled code. All its names are globals, so no
/// slot frame is needed. Module code runs off its end and yields none; a
/// compiled `eval` expression returns its value.
pub(crate) fn run_toplevel(interp: &mut Interp, top: &CompiledFn) -> Result<Value> {
    let mut slots: Vec<Option<Value>> = Vec::new();
    execute(interp, top, &mut slots)
}

/// Execute a compiled function body. The caller has already swapped the
/// interpreter's globals to the function's defining namespace and checked
/// arity.
pub(crate) fn run_function(
    interp: &mut Interp,
    code: &CompiledFn,
    args: &[Value],
) -> Result<Value> {
    debug_assert_eq!(args.len(), code.n_params as usize);
    let mut slots = interp.take_slot_buf();
    slots.resize(code.n_slots as usize, None);
    for (slot, arg) in slots.iter_mut().zip(args.iter()) {
        *slot = Some(arg.clone());
    }
    let result = execute(interp, code, &mut slots);
    interp.put_slot_buf(slots);
    result
}

fn execute(interp: &mut Interp, f: &CompiledFn, slots: &mut [Option<Value>]) -> Result<Value> {
    let mut stack = interp.take_stack_buf();
    let result = dispatch(interp, f, slots, &mut stack);
    interp.put_stack_buf(stack);
    result
}

fn undefined(name: &str) -> VineError {
    VineError::Lang(format!("undefined variable: {name}"))
}

/// Non-faulting int×int operations, inlined into the dispatch loop.
/// Returns `None` for anything that can fail or needs the shared
/// implementation's exact behavior (overflow, division, modulo).
#[inline(always)]
fn int_fast_op(op: crate::ast::BinOp, a: i64, b: i64) -> Option<Value> {
    use crate::ast::BinOp::*;
    match op {
        Add => a.checked_add(b).map(Value::Int),
        Sub => a.checked_sub(b).map(Value::Int),
        Mul => a.checked_mul(b).map(Value::Int),
        Eq => Some(Value::Bool(a == b)),
        Ne => Some(Value::Bool(a != b)),
        Lt => Some(Value::Bool(a < b)),
        Le => Some(Value::Bool(a <= b)),
        Gt => Some(Value::Bool(a > b)),
        Ge => Some(Value::Bool(a >= b)),
        _ => None,
    }
}

/// Apply a binary op to two owned operands. Destructuring the int×int
/// case by value lets the compiler drop the drop-glue entirely on the
/// hot path; everything else goes through the shared tree-walker-exact
/// [`binary_op`].
#[inline(always)]
fn binary_owned(op: crate::ast::BinOp, l: Value, r: Value) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match int_fast_op(op, a, b) {
            Some(v) => Ok(v),
            None => binary_op(op, &Value::Int(a), &Value::Int(b)),
        },
        (l, r) => binary_op(op, &l, &r),
    }
}

/// Clone a constant-pool value. The compiler only ever puts leaf values
/// (none/bool/int/float/str) in the pool, so this is a copy or one `Rc`
/// bump — spelled out so it inlines as a small switch instead of the
/// generic `Value::clone` glue.
#[inline(always)]
fn clone_const(v: &Value) -> Value {
    match v {
        Value::None => Value::None,
        Value::Bool(b) => Value::Bool(*b),
        Value::Int(i) => Value::Int(*i),
        Value::Float(x) => Value::Float(*x),
        Value::Str(s) => Value::Str(Rc::clone(s)),
        other => other.clone(),
    }
}

/// Read a slot exactly like the `LoadLocal` arm: bound local wins, a
/// `global`-redeclared or unbound slot falls back to the globals map,
/// and a miss there is the tree-walker's `undefined variable` error.
#[inline(always)]
fn load_slot(
    interp: &Interp,
    f: &CompiledFn,
    slots: &[Option<Value>],
    global_decls: &[u16],
    s: u16,
) -> Result<Value> {
    if global_decls.is_empty() || !global_decls.contains(&s) {
        if let Some(v) = &slots[s as usize] {
            return Ok(v.clone());
        }
    }
    load_slot_global(interp, f, s)
}

#[cold]
fn load_slot_global(interp: &Interp, f: &CompiledFn, s: u16) -> Result<Value> {
    let name = &f.slot_names[s as usize];
    interp
        .globals
        .borrow()
        .get(&**name)
        .cloned()
        .ok_or_else(|| undefined(name))
}

/// Write a slot exactly like the `StoreLocal` arm.
#[inline(always)]
fn store_slot(
    interp: &Interp,
    f: &CompiledFn,
    slots: &mut [Option<Value>],
    global_decls: &[u16],
    s: u16,
    v: Value,
) {
    if global_decls.contains(&s) {
        interp.set_global_fast(&f.slot_names[s as usize], v);
    } else {
        slots[s as usize] = Some(v);
    }
}

fn dispatch(
    interp: &mut Interp,
    f: &CompiledFn,
    slots: &mut [Option<Value>],
    stack: &mut Vec<Value>,
) -> Result<Value> {
    // slots flipped to global backing by an executed `global` statement;
    // almost always empty, so a linear scan beats any set
    let mut global_decls: Vec<u16> = Vec::new();
    // materialized `for` iterators (not values, so not on the data stack)
    let mut iters: Vec<(Vec<Value>, usize)> = Vec::new();
    let code = &f.code[..];
    let mut ip = 0usize;
    loop {
        let Some(instr) = code.get(ip) else {
            // module-level code runs off the end; functions end in Return
            return Ok(Value::None);
        };
        match instr {
            Instr::Const(i) => stack.push(clone_const(&f.consts[*i as usize])),
            Instr::MakeList(n) => {
                let items = stack.split_off(stack.len() - *n as usize);
                stack.push(Value::list(items));
            }
            Instr::MakeDict(n) => {
                let kv = stack.split_off(stack.len() - 2 * *n as usize);
                let mut map = BTreeMap::new();
                let mut it = kv.into_iter();
                while let Some(k) = it.next() {
                    let v = it.next().expect("compiler pushes key/value pairs");
                    map.insert(k.as_str()?.to_string(), v);
                }
                stack.push(Value::Dict(Rc::new(RefCell::new(map))));
            }
            Instr::CheckStrKey => {
                let v = stack.last().expect("dict key on stack");
                if !matches!(v, Value::Str(_)) {
                    return Err(VineError::Lang(format!(
                        "expected str, got {}",
                        v.type_name()
                    )));
                }
            }
            Instr::LoadLocal(s) => {
                let v = load_slot(interp, f, slots, &global_decls, *s)?;
                stack.push(v);
            }
            Instr::StoreLocal(s) => {
                let v = stack.pop().expect("value to store");
                store_slot(interp, f, slots, &global_decls, *s, v);
            }
            Instr::LoadGlobal(n) => {
                let name = &f.names[*n as usize];
                let v = interp
                    .globals
                    .borrow()
                    .get(&**name)
                    .cloned()
                    .ok_or_else(|| undefined(name))?;
                stack.push(v);
            }
            Instr::StoreGlobal(n) => {
                let v = stack.pop().expect("value to store");
                interp.set_global_fast(&f.names[*n as usize], v);
            }
            Instr::LoadAttr(n) => {
                let obj = stack.pop().expect("attr object");
                let attr = &f.names[*n as usize];
                match obj {
                    Value::Module(m) => {
                        let v = m.members.borrow().get(&**attr).cloned().ok_or_else(|| {
                            VineError::Lang(format!("module {} has no member {attr}", m.name))
                        })?;
                        stack.push(v);
                    }
                    other => {
                        return Err(VineError::Lang(format!(
                            "{} has no attributes",
                            other.type_name()
                        )))
                    }
                }
            }
            Instr::Index => {
                let idx = stack.pop().expect("index");
                let obj = stack.pop().expect("container");
                stack.push(interp.index_get(&obj, &idx)?);
            }
            Instr::StoreIndex => {
                let idx = stack.pop().expect("index");
                let obj = stack.pop().expect("container");
                let value = stack.pop().expect("value to store");
                interp.index_assign(&obj, &idx, value)?;
            }
            Instr::CallNamed { name, slot, argc } => {
                interp.tick()?;
                let base = stack.len() - *argc as usize;
                let nm = &f.names[*name as usize];
                let local = if *slot != NO_SLOT && !global_decls.contains(slot) {
                    slots[*slot as usize].clone()
                } else {
                    None
                };
                // the tree-walker's shadowing rule: a builtin fires only
                // when the name resolves to neither a local nor a global
                let shadowed = local.is_some() || interp.globals.borrow().contains_key(&**nm);
                let r = if !shadowed {
                    builtins::call_builtin(interp, nm, &stack[base..])?
                } else {
                    None
                };
                let r = match r {
                    Some(r) => r,
                    None => {
                        let callee = match local {
                            Some(v) => v,
                            None => interp
                                .globals
                                .borrow()
                                .get(&**nm)
                                .cloned()
                                .ok_or_else(|| undefined(nm))?,
                        };
                        interp.call_value(&callee, &stack[base..])?
                    }
                };
                stack.truncate(base);
                stack.push(r);
            }
            Instr::CallValue(argc) => {
                interp.tick()?;
                let callee = stack.pop().expect("callee");
                let base = stack.len() - *argc as usize;
                let r = interp.call_value(&callee, &stack[base..])?;
                stack.truncate(base);
                stack.push(r);
            }
            Instr::Unary(op) => {
                let v = stack.pop().expect("unary operand");
                stack.push(unary_op(*op, &v)?);
            }
            Instr::Binary(op) => {
                let r = stack.pop().expect("rhs");
                let l = stack.pop().expect("lhs");
                stack.push(binary_owned(*op, l, r)?);
            }
            Instr::BinaryLL { op, a, b } => {
                let l = load_slot(interp, f, slots, &global_decls, *a)?;
                let r = load_slot(interp, f, slots, &global_decls, *b)?;
                stack.push(binary_owned(*op, l, r)?);
            }
            Instr::BinaryLC { op, a, c } => {
                let l = load_slot(interp, f, slots, &global_decls, *a)?;
                let r = clone_const(&f.consts[*c as usize]);
                stack.push(binary_owned(*op, l, r)?);
            }
            Instr::BinarySL { op, s } => {
                let l = stack.pop().expect("lhs");
                let r = load_slot(interp, f, slots, &global_decls, *s)?;
                stack.push(binary_owned(*op, l, r)?);
            }
            Instr::BinarySC { op, c } => {
                let l = stack.pop().expect("lhs");
                let r = clone_const(&f.consts[*c as usize]);
                stack.push(binary_owned(*op, l, r)?);
            }
            Instr::JumpIfFalse(t) => {
                if !stack.pop().expect("condition").truthy() {
                    ip = *t as usize;
                    continue;
                }
            }
            Instr::JumpIfFalseKeep(t) => {
                if !stack.last().expect("operand").truthy() {
                    ip = *t as usize;
                    continue;
                }
            }
            Instr::JumpIfTrueKeep(t) => {
                if stack.last().expect("operand").truthy() {
                    ip = *t as usize;
                    continue;
                }
            }
            Instr::Jump(t) => {
                if (*t as usize) <= ip {
                    interp.tick()?;
                }
                ip = *t as usize;
                continue;
            }
            Instr::Pop => {
                stack.pop();
            }
            Instr::Return => {
                return Ok(stack.pop().expect("return value"));
            }
            Instr::ReturnLocal(s) => {
                return load_slot(interp, f, slots, &global_decls, *s);
            }
            Instr::ReturnConst(c) => {
                return Ok(clone_const(&f.consts[*c as usize]));
            }
            Instr::MakeFunc(i) => {
                let cf = &f.funcs[*i as usize];
                let def = Rc::clone(cf.def.as_ref().expect("function literal carries its def"));
                let func = Function::new(def, Rc::clone(&interp.globals));
                *func.compiled.borrow_mut() = Some(Rc::clone(cf));
                stack.push(Value::Func(Rc::new(func)));
            }
            Instr::Import(n) => {
                let name = f.names[*n as usize].to_string();
                stack.push(interp.import_module(&name)?);
            }
            Instr::Global(list) => {
                for s in list.iter() {
                    if !global_decls.contains(s) {
                        global_decls.push(*s);
                    }
                }
            }
            Instr::MakeIter => {
                let v = stack.pop().expect("iterable");
                let items: Vec<Value> = match v {
                    Value::List(items) => items.borrow().clone(),
                    Value::Dict(d) => d.borrow().keys().map(|k| Value::str(k.clone())).collect(),
                    Value::Str(s) => s.chars().map(|c| Value::str(c.to_string())).collect(),
                    other => {
                        return Err(VineError::Lang(format!(
                            "{} is not iterable",
                            other.type_name()
                        )))
                    }
                };
                iters.push((items, 0));
            }
            Instr::IterNext(t) => {
                interp.tick()?;
                let (items, pos) = iters.last_mut().expect("active iterator");
                if *pos < items.len() {
                    let v = std::mem::replace(&mut items[*pos], Value::None);
                    *pos += 1;
                    stack.push(v);
                } else {
                    iters.pop();
                    ip = *t as usize;
                    continue;
                }
            }
            Instr::ForIter { target, slot } => {
                interp.tick()?;
                let (items, pos) = iters.last_mut().expect("active iterator");
                if *pos < items.len() {
                    let v = std::mem::replace(&mut items[*pos], Value::None);
                    *pos += 1;
                    store_slot(interp, f, slots, &global_decls, *slot, v);
                } else {
                    iters.pop();
                    ip = *target as usize;
                    continue;
                }
            }
            Instr::PopIter => {
                iters.pop();
            }
            Instr::Raise(k) => {
                return Err(VineError::Lang(k.message().to_string()));
            }
        }
        ip += 1;
    }
}
