//! The compiled form of a vine-lang module: a compact instruction set plus
//! the pools it indexes into.
//!
//! A [`CompiledFn`] is the unit of compiled code — one per function body,
//! plus one for the module's top level. It owns a constant pool (literal
//! [`Value`]s built once at compile time, so a string literal in a hot loop
//! is an `Rc` bump instead of a fresh allocation), an interned name table
//! for everything still resolved dynamically (globals, attributes,
//! imports), a slot table mapping the function's local variables to dense
//! indices resolved at compile time, and the nested `CompiledFn`s of every
//! function literal in its body.
//!
//! In the paper's terms the compiled module is *context* (§2.2.3): it is
//! computed once — at library install on the manager — shipped inside the
//! library image as bytes, content-addressed by the digest of the source
//! it was compiled from, and retained by the library daemon across
//! invocations. [`to_bytes`]/[`from_bytes`] are the wire form, built on
//! the bounded [`vine_core::wire`] core shared with pickles; the manager
//! reuses an installed image whose source digest matches.

use crate::ast::{BinOp, FuncDef, UnOp};
use crate::value::Value;
use crate::wire::{read_binop, write_binop};
use std::fmt::Write as _;
use std::rc::Rc;
use vine_core::wire::{Reader, Writer};
use vine_core::{ContentHash, Result};

/// Sentinel slot index: the called name has no local slot in this scope
/// (resolution is globals-or-builtin only).
pub const NO_SLOT: u16 = u16::MAX;

/// Fixed runtime errors the compiler lowers misplaced control flow into.
/// The tree-walker raises these *dynamically* — `return` at module level is
/// an error only when execution actually reaches it — so the compiler must
/// preserve that by emitting an instruction, not rejecting the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaiseKind {
    /// `break`/`continue` outside any enclosing loop.
    BreakContinueOutsideLoop,
    /// `return` at module level.
    ReturnOutsideFunction,
}

impl RaiseKind {
    pub fn message(self) -> &'static str {
        match self {
            RaiseKind::BreakContinueOutsideLoop => "break/continue outside loop",
            RaiseKind::ReturnOutsideFunction => "return outside function",
        }
    }
}

/// One VM instruction. Operand indices point into the owning
/// [`CompiledFn`]'s pools; jump targets are absolute instruction indices.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// Push `consts[i]`.
    Const(u32),
    /// Pop n values, push them as a new list (in evaluation order).
    MakeList(u32),
    /// Pop 2n values (key/value alternating, evaluation order), push dict.
    MakeDict(u32),
    /// Error unless the top of stack is a str (dict-key check, raised
    /// before the corresponding value expression evaluates).
    CheckStrKey,
    /// Push local slot s; unset or `global`-declared slots fall back to a
    /// global lookup of the slot's name.
    LoadLocal(u16),
    /// Pop into slot s, or into globals if the slot was declared `global`.
    StoreLocal(u16),
    /// Push `globals[names[n]]`; error "undefined variable" when absent.
    LoadGlobal(u32),
    /// Pop into `globals[names[n]]`.
    StoreGlobal(u32),
    /// Pop a module object, push its member `names[n]`.
    LoadAttr(u32),
    /// Pop index then container, push the element.
    Index,
    /// Pop index, container, value (pushed in value/container/index
    /// order); assign the element.
    StoreIndex,
    /// Pop argc arguments; dispatch by name with the tree-walker's exact
    /// shadowing rule: builtins fire only when `names[n]` resolves to
    /// neither a set local (slot, unless NO_SLOT) nor a global.
    CallNamed {
        name: u32,
        slot: u16,
        argc: u32,
    },
    /// Pop the callee (top of stack), then argc arguments; push result.
    CallValue(u32),
    /// Pop a value, apply a unary operator.
    Unary(UnOp),
    /// Pop rhs then lhs, apply a (non-short-circuit) binary operator.
    Binary(BinOp),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Jump when falsy, keeping the value (the `and` short-circuit).
    JumpIfFalseKeep(u32),
    /// Jump when truthy, keeping the value (the `or` short-circuit).
    JumpIfTrueKeep(u32),
    Jump(u32),
    Pop,
    /// Return the top of stack from this function.
    Return,
    /// Push `funcs[i]` closed over the current globals, seeding its
    /// compiled-code cache so later calls skip compilation.
    MakeFunc(u32),
    /// Import module `names[n]`, push the module value.
    Import(u32),
    /// Declare the listed slots `global` for the rest of this activation.
    Global(Box<[u16]>),
    /// Pop an iterable, push a materialized iterator (list snapshot, dict
    /// keys, or string characters — the tree-walker's `iterable_items`).
    MakeIter,
    /// Push the iterator's next item, or pop the iterator and jump.
    IterNext(u32),
    /// Pop the top iterator (compiled `break` inside a `for`).
    PopIter,
    /// Raise a fixed control-flow error.
    Raise(RaiseKind),

    // ---- fused superinstructions ----
    //
    // Emitted by the compiler's peephole pass over adjacent instructions
    // whose interior is not a jump target. Each is semantically identical
    // to the sequence it replaces (same evaluation order, same errors);
    // they exist because dispatch itself — one indirect branch per
    // instruction — dominates the cost of simple operations.
    /// `LoadLocal a; LoadLocal b; Binary op` — push `binary(slots[a], slots[b])`.
    BinaryLL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// `LoadLocal a; Const c; Binary op` — push `binary(slots[a], consts[c])`.
    BinaryLC {
        op: BinOp,
        a: u16,
        c: u32,
    },
    /// `LoadLocal s; Binary op` — pop lhs, push `binary(lhs, slots[s])`.
    BinarySL {
        op: BinOp,
        s: u16,
    },
    /// `Const c; Binary op` — pop lhs, push `binary(lhs, consts[c])`.
    BinarySC {
        op: BinOp,
        c: u32,
    },
    /// `IterNext t; StoreLocal slot` — the `for`-loop head in one step.
    ForIter {
        target: u32,
        slot: u16,
    },
    /// `LoadLocal s; Return`.
    ReturnLocal(u16),
    /// `Const c; Return`.
    ReturnConst(u32),
}

/// One compiled function body (or the module top level, when `def` is
/// `None`). Self-contained: all pools an instruction indexes are here.
#[derive(Debug)]
pub struct CompiledFn {
    /// The source definition, kept so the VM can build `Value::Func`
    /// objects (pickle interop, arity recovery) — `None` only for the
    /// module top level, which never becomes a value.
    pub def: Option<Rc<FuncDef>>,
    pub name: Rc<str>,
    pub n_params: u16,
    /// Total local slots (parameters occupy the first `n_params`).
    pub n_slots: u16,
    /// Slot index → source name, for global fallback and error messages.
    pub slot_names: Vec<Rc<str>>,
    /// Interned names still resolved dynamically at runtime.
    pub names: Vec<Rc<str>>,
    /// Literal pool. Only leaf values (none/bool/int/float/str) ever
    /// appear here, so cloning a constant is at most an `Rc` bump.
    pub consts: Vec<Value>,
    /// Nested function literals (`def`s and lambdas) in body order.
    pub funcs: Vec<Rc<CompiledFn>>,
    pub code: Vec<Instr>,
}

/// A compiled module: the top-level code (whose `funcs` table carries every
/// function defined in it) plus the digest of the source it came from —
/// the content address under which `vine-data` stores and workers dedup
/// the image.
#[derive(Debug)]
pub struct CompiledModule {
    pub top: Rc<CompiledFn>,
    pub source_digest: ContentHash,
}

impl CompiledModule {
    /// Serialize for shipping/content-addressing. The digest is *not*
    /// encoded — it names the bytes, it does not travel inside them.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(&self.top)
    }
}

// ---------- disassembly ----------

/// Render a compiled function (and, recursively, everything it defines) as
/// stable text. Golden tests pin this output so encoding changes are
/// reviewed, not accidental.
pub fn disassemble(f: &CompiledFn) -> String {
    let mut out = String::new();
    disasm_one(f, &mut out);
    out
}

fn disasm_one(f: &CompiledFn, out: &mut String) {
    let _ = writeln!(
        out,
        "fn {}(params={}, slots={}{})",
        f.name,
        f.n_params,
        f.n_slots,
        if f.slot_names.is_empty() {
            String::new()
        } else {
            format!(
                " [{}]",
                f.slot_names
                    .iter()
                    .map(|s| s.as_ref())
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        }
    );
    for (i, instr) in f.code.iter().enumerate() {
        let _ = writeln!(out, "  {i:4} {}", render_instr(f, instr));
    }
    for nested in &f.funcs {
        disasm_one(nested, out);
    }
}

fn render_instr(f: &CompiledFn, instr: &Instr) -> String {
    let name = |n: u32| -> &str { &f.names[n as usize] };
    let slot = |s: u16| -> String {
        if s == NO_SLOT {
            "-".into()
        } else {
            format!("{s}:{}", f.slot_names[s as usize])
        }
    };
    match instr {
        Instr::Const(i) => format!(
            "const      {} ; {}",
            i,
            render_const(&f.consts[*i as usize])
        ),
        Instr::MakeList(n) => format!("make_list  {n}"),
        Instr::MakeDict(n) => format!("make_dict  {n}"),
        Instr::CheckStrKey => "check_key".into(),
        Instr::LoadLocal(s) => format!("load_loc   {}", slot(*s)),
        Instr::StoreLocal(s) => format!("store_loc  {}", slot(*s)),
        Instr::LoadGlobal(n) => format!("load_glb   {}", name(*n)),
        Instr::StoreGlobal(n) => format!("store_glb  {}", name(*n)),
        Instr::LoadAttr(n) => format!("load_attr  {}", name(*n)),
        Instr::Index => "index".into(),
        Instr::StoreIndex => "store_idx".into(),
        Instr::CallNamed {
            name: n,
            slot: s,
            argc,
        } => {
            format!("call_named {} argc={} slot={}", name(*n), argc, slot(*s))
        }
        Instr::CallValue(argc) => format!("call_value argc={argc}"),
        Instr::Unary(op) => format!("unary      {op:?}"),
        Instr::Binary(op) => format!("binary     {op:?}"),
        Instr::JumpIfFalse(t) => format!("jf         -> {t}"),
        Instr::JumpIfFalseKeep(t) => format!("jf_keep    -> {t}"),
        Instr::JumpIfTrueKeep(t) => format!("jt_keep    -> {t}"),
        Instr::Jump(t) => format!("jump       -> {t}"),
        Instr::Pop => "pop".into(),
        Instr::Return => "return".into(),
        Instr::MakeFunc(i) => format!("make_fn    {} ; {}", i, f.funcs[*i as usize].name),
        Instr::Import(n) => format!("import     {}", name(*n)),
        Instr::Global(slots) => format!(
            "global     [{}]",
            slots.iter().map(|s| slot(*s)).collect::<Vec<_>>().join(" ")
        ),
        Instr::MakeIter => "make_iter".into(),
        Instr::IterNext(t) => format!("iter_next  -> {t}"),
        Instr::PopIter => "pop_iter".into(),
        Instr::Raise(k) => format!("raise      {}", k.message()),
        Instr::BinaryLL { op, a, b } => {
            format!("binary_ll  {op:?} {} {}", slot(*a), slot(*b))
        }
        Instr::BinaryLC { op, a, c } => format!(
            "binary_lc  {op:?} {} {} ; {}",
            slot(*a),
            c,
            render_const(&f.consts[*c as usize])
        ),
        Instr::BinarySL { op, s } => format!("binary_sl  {op:?} {}", slot(*s)),
        Instr::BinarySC { op, c } => format!(
            "binary_sc  {op:?} {} ; {}",
            c,
            render_const(&f.consts[*c as usize])
        ),
        Instr::ForIter { target, slot: s } => format!("for_iter   {} -> {target}", slot(*s)),
        Instr::ReturnLocal(s) => format!("ret_loc    {}", slot(*s)),
        Instr::ReturnConst(c) => {
            format!(
                "ret_const  {} ; {}",
                c,
                render_const(&f.consts[*c as usize])
            )
        }
    }
}

fn render_const(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        other => other.to_string(),
    }
}

// ---------- byte serialization ----------

const MAGIC: &[u8; 4] = b"VBC2";

mod op {
    pub const CONST: u8 = 0;
    pub const MAKE_LIST: u8 = 1;
    pub const MAKE_DICT: u8 = 2;
    pub const CHECK_STR_KEY: u8 = 3;
    pub const LOAD_LOCAL: u8 = 4;
    pub const STORE_LOCAL: u8 = 5;
    pub const LOAD_GLOBAL: u8 = 6;
    pub const STORE_GLOBAL: u8 = 7;
    pub const LOAD_ATTR: u8 = 8;
    pub const INDEX: u8 = 9;
    pub const STORE_INDEX: u8 = 10;
    pub const CALL_NAMED: u8 = 11;
    pub const CALL_VALUE: u8 = 12;
    pub const UNARY: u8 = 13;
    pub const BINARY: u8 = 14;
    pub const JUMP_IF_FALSE: u8 = 15;
    pub const JUMP_IF_FALSE_KEEP: u8 = 16;
    pub const JUMP_IF_TRUE_KEEP: u8 = 17;
    pub const JUMP: u8 = 18;
    pub const POP: u8 = 19;
    pub const RETURN: u8 = 20;
    pub const MAKE_FUNC: u8 = 21;
    pub const IMPORT: u8 = 22;
    pub const GLOBAL: u8 = 23;
    pub const MAKE_ITER: u8 = 24;
    pub const ITER_NEXT: u8 = 25;
    pub const POP_ITER: u8 = 26;
    pub const RAISE: u8 = 27;
    pub const BINARY_LL: u8 = 28;
    pub const BINARY_LC: u8 = 29;
    pub const BINARY_SL: u8 = 30;
    pub const BINARY_SC: u8 = 31;
    pub const FOR_ITER: u8 = 32;
    pub const RETURN_LOCAL: u8 = 33;
    pub const RETURN_CONST: u8 = 34;
}

mod const_tag {
    pub const NONE: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const INT: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const STR: u8 = 4;
}

/// Encode a compiled function tree as bytes (the wire/cache form of a
/// compiled image).
pub fn to_bytes(f: &CompiledFn) -> Vec<u8> {
    let mut w = Writer::new(MAGIC);
    write_fn(&mut w, f);
    w.buf
}

fn write_fn(w: &mut Writer, f: &CompiledFn) {
    match &f.def {
        Some(def) => {
            w.u8(1);
            w.bytes(&crate::pickle::serialize_funcdef(def));
        }
        None => w.u8(0),
    }
    w.str(&f.name);
    w.u16(f.n_params);
    w.u16(f.n_slots);
    w.u32(f.slot_names.len() as u32);
    for s in &f.slot_names {
        w.str(s);
    }
    w.u32(f.names.len() as u32);
    for s in &f.names {
        w.str(s);
    }
    w.u32(f.consts.len() as u32);
    for c in &f.consts {
        match c {
            Value::None => w.u8(const_tag::NONE),
            Value::Bool(b) => {
                w.u8(const_tag::BOOL);
                w.u8(*b as u8);
            }
            Value::Int(v) => {
                w.u8(const_tag::INT);
                w.i64(*v);
            }
            Value::Float(v) => {
                w.u8(const_tag::FLOAT);
                w.f64(*v);
            }
            Value::Str(s) => {
                w.u8(const_tag::STR);
                w.str(s);
            }
            other => unreachable!("non-leaf constant {other:?} in pool"),
        }
    }
    w.u32(f.funcs.len() as u32);
    for nested in &f.funcs {
        write_fn(w, nested);
    }
    w.u32(f.code.len() as u32);
    for instr in &f.code {
        write_instr(w, instr);
    }
}

fn write_instr(w: &mut Writer, instr: &Instr) {
    match instr {
        Instr::Const(i) => {
            w.u8(op::CONST);
            w.u32(*i);
        }
        Instr::MakeList(n) => {
            w.u8(op::MAKE_LIST);
            w.u32(*n);
        }
        Instr::MakeDict(n) => {
            w.u8(op::MAKE_DICT);
            w.u32(*n);
        }
        Instr::CheckStrKey => w.u8(op::CHECK_STR_KEY),
        Instr::LoadLocal(s) => {
            w.u8(op::LOAD_LOCAL);
            w.u16(*s);
        }
        Instr::StoreLocal(s) => {
            w.u8(op::STORE_LOCAL);
            w.u16(*s);
        }
        Instr::LoadGlobal(n) => {
            w.u8(op::LOAD_GLOBAL);
            w.u32(*n);
        }
        Instr::StoreGlobal(n) => {
            w.u8(op::STORE_GLOBAL);
            w.u32(*n);
        }
        Instr::LoadAttr(n) => {
            w.u8(op::LOAD_ATTR);
            w.u32(*n);
        }
        Instr::Index => w.u8(op::INDEX),
        Instr::StoreIndex => w.u8(op::STORE_INDEX),
        Instr::CallNamed { name, slot, argc } => {
            w.u8(op::CALL_NAMED);
            w.u32(*name);
            w.u16(*slot);
            w.u32(*argc);
        }
        Instr::CallValue(argc) => {
            w.u8(op::CALL_VALUE);
            w.u32(*argc);
        }
        Instr::Unary(op_) => {
            w.u8(op::UNARY);
            w.u8(match op_ {
                UnOp::Neg => 0,
                UnOp::Not => 1,
            });
        }
        Instr::Binary(op_) => {
            w.u8(op::BINARY);
            write_binop(w, *op_);
        }
        Instr::JumpIfFalse(t) => {
            w.u8(op::JUMP_IF_FALSE);
            w.u32(*t);
        }
        Instr::JumpIfFalseKeep(t) => {
            w.u8(op::JUMP_IF_FALSE_KEEP);
            w.u32(*t);
        }
        Instr::JumpIfTrueKeep(t) => {
            w.u8(op::JUMP_IF_TRUE_KEEP);
            w.u32(*t);
        }
        Instr::Jump(t) => {
            w.u8(op::JUMP);
            w.u32(*t);
        }
        Instr::Pop => w.u8(op::POP),
        Instr::Return => w.u8(op::RETURN),
        Instr::MakeFunc(i) => {
            w.u8(op::MAKE_FUNC);
            w.u32(*i);
        }
        Instr::Import(n) => {
            w.u8(op::IMPORT);
            w.u32(*n);
        }
        Instr::Global(slots) => {
            w.u8(op::GLOBAL);
            w.u16(slots.len() as u16);
            for s in slots.iter() {
                w.u16(*s);
            }
        }
        Instr::MakeIter => w.u8(op::MAKE_ITER),
        Instr::IterNext(t) => {
            w.u8(op::ITER_NEXT);
            w.u32(*t);
        }
        Instr::PopIter => w.u8(op::POP_ITER),
        Instr::Raise(k) => {
            w.u8(op::RAISE);
            w.u8(match k {
                RaiseKind::BreakContinueOutsideLoop => 0,
                RaiseKind::ReturnOutsideFunction => 1,
            });
        }
        Instr::BinaryLL { op: op_, a, b } => {
            w.u8(op::BINARY_LL);
            write_binop(w, *op_);
            w.u16(*a);
            w.u16(*b);
        }
        Instr::BinaryLC { op: op_, a, c } => {
            w.u8(op::BINARY_LC);
            write_binop(w, *op_);
            w.u16(*a);
            w.u32(*c);
        }
        Instr::BinarySL { op: op_, s } => {
            w.u8(op::BINARY_SL);
            write_binop(w, *op_);
            w.u16(*s);
        }
        Instr::BinarySC { op: op_, c } => {
            w.u8(op::BINARY_SC);
            write_binop(w, *op_);
            w.u32(*c);
        }
        Instr::ForIter { target, slot } => {
            w.u8(op::FOR_ITER);
            w.u32(*target);
            w.u16(*slot);
        }
        Instr::ReturnLocal(s) => {
            w.u8(op::RETURN_LOCAL);
            w.u16(*s);
        }
        Instr::ReturnConst(c) => {
            w.u8(op::RETURN_CONST);
            w.u32(*c);
        }
    }
}

/// Decode a compiled image produced by [`to_bytes`]. Validates structure
/// and every pool index and slot number an instruction carries, so the VM
/// never indexes past a decoded table (operand-stack depth is not
/// verified).
pub fn from_bytes(data: &[u8]) -> Result<Rc<CompiledFn>> {
    let mut r = Reader::new(data, MAGIC)?;
    let f = read_fn(&mut r)?;
    r.finish()?;
    // the VM runs module-level code without a slot frame
    if f.n_slots != 0 {
        return Err(r.err("module top level declares local slots"));
    }
    Ok(f)
}

fn read_fn(r: &mut Reader) -> Result<Rc<CompiledFn>> {
    let def = match r.u8()? {
        0 => None,
        1 => Some(crate::pickle::deserialize_funcdef(r.bytes()?)?),
        other => return Err(r.err(format!("def tag {other}"))),
    };
    let name: Rc<str> = r.str()?.into();
    let n_params = r.u16()?;
    let n_slots = r.u16()?;
    let slot_names: Vec<Rc<str>> = r.seq(|r| Ok(r.str()?.into()))?;
    if slot_names.len() != n_slots as usize {
        return Err(r.err("slot table size mismatch"));
    }
    let names = r.seq(|r| Ok(r.str()?.into()))?;
    let consts = r.seq(|r| {
        Ok(match r.u8()? {
            const_tag::NONE => Value::None,
            const_tag::BOOL => Value::Bool(r.u8()? != 0),
            const_tag::INT => Value::Int(r.i64()?),
            const_tag::FLOAT => Value::Float(r.f64()?),
            const_tag::STR => Value::str(r.str()?),
            other => return Err(r.err(format!("const tag {other}"))),
        })
    })?;
    // nested function tables share the decoder's nesting budget
    let funcs = r.seq(|r| {
        r.descend()?;
        let f = read_fn(r)?;
        r.ascend();
        Ok(f)
    })?;
    let code = r.seq(read_instr)?;
    let f = CompiledFn {
        def,
        name,
        n_params,
        n_slots,
        slot_names,
        names,
        consts,
        funcs,
        code,
    };
    match f.code.iter().find(|i| !operands_in_range(&f, i)) {
        Some(bad) => Err(r.err(format!("operand out of range: {bad:?}"))),
        None => Ok(Rc::new(f)),
    }
}

/// Whether every pool index and slot number `instr` carries names an
/// entry of `f`'s decoded tables (a `MakeFunc` target must also carry the
/// definition its arity is checked against).
fn operands_in_range(f: &CompiledFn, instr: &Instr) -> bool {
    let slot = |s: &u16| *s < f.n_slots;
    let name = |n: &u32| (*n as usize) < f.names.len();
    let cnst = |c: &u32| (*c as usize) < f.consts.len();
    match instr {
        Instr::Const(c) | Instr::ReturnConst(c) | Instr::BinarySC { c, .. } => cnst(c),
        Instr::LoadLocal(s)
        | Instr::StoreLocal(s)
        | Instr::ReturnLocal(s)
        | Instr::BinarySL { s, .. }
        | Instr::ForIter { slot: s, .. } => slot(s),
        Instr::LoadGlobal(n) | Instr::StoreGlobal(n) | Instr::LoadAttr(n) | Instr::Import(n) => {
            name(n)
        }
        Instr::CallNamed {
            name: n, slot: s, ..
        } => name(n) && (*s == NO_SLOT || slot(s)),
        Instr::BinaryLL { a, b, .. } => slot(a) && slot(b),
        Instr::BinaryLC { a, c, .. } => slot(a) && cnst(c),
        Instr::Global(slots) => slots.iter().all(slot),
        Instr::MakeFunc(i) => f.funcs.get(*i as usize).is_some_and(|g| {
            g.def
                .as_ref()
                .is_some_and(|d| d.params.len() == g.n_params as usize)
        }),
        _ => true,
    }
}

fn read_instr(r: &mut Reader) -> Result<Instr> {
    Ok(match r.u8()? {
        op::CONST => Instr::Const(r.u32()?),
        op::MAKE_LIST => Instr::MakeList(r.u32()?),
        op::MAKE_DICT => Instr::MakeDict(r.u32()?),
        op::CHECK_STR_KEY => Instr::CheckStrKey,
        op::LOAD_LOCAL => Instr::LoadLocal(r.u16()?),
        op::STORE_LOCAL => Instr::StoreLocal(r.u16()?),
        op::LOAD_GLOBAL => Instr::LoadGlobal(r.u32()?),
        op::STORE_GLOBAL => Instr::StoreGlobal(r.u32()?),
        op::LOAD_ATTR => Instr::LoadAttr(r.u32()?),
        op::INDEX => Instr::Index,
        op::STORE_INDEX => Instr::StoreIndex,
        op::CALL_NAMED => Instr::CallNamed {
            name: r.u32()?,
            slot: r.u16()?,
            argc: r.u32()?,
        },
        op::CALL_VALUE => Instr::CallValue(r.u32()?),
        op::UNARY => Instr::Unary(match r.u8()? {
            0 => UnOp::Neg,
            1 => UnOp::Not,
            other => return Err(r.err(format!("unary opcode {other}"))),
        }),
        op::BINARY => Instr::Binary(read_binop(r)?),
        op::JUMP_IF_FALSE => Instr::JumpIfFalse(r.u32()?),
        op::JUMP_IF_FALSE_KEEP => Instr::JumpIfFalseKeep(r.u32()?),
        op::JUMP_IF_TRUE_KEEP => Instr::JumpIfTrueKeep(r.u32()?),
        op::JUMP => Instr::Jump(r.u32()?),
        op::POP => Instr::Pop,
        op::RETURN => Instr::Return,
        op::MAKE_FUNC => Instr::MakeFunc(r.u32()?),
        op::IMPORT => Instr::Import(r.u32()?),
        op::GLOBAL => {
            let n = r.u16()? as usize;
            Instr::Global(r.items(n, Reader::u16)?.into_boxed_slice())
        }
        op::MAKE_ITER => Instr::MakeIter,
        op::ITER_NEXT => Instr::IterNext(r.u32()?),
        op::POP_ITER => Instr::PopIter,
        op::BINARY_LL => Instr::BinaryLL {
            op: read_binop(r)?,
            a: r.u16()?,
            b: r.u16()?,
        },
        op::BINARY_LC => Instr::BinaryLC {
            op: read_binop(r)?,
            a: r.u16()?,
            c: r.u32()?,
        },
        op::BINARY_SL => Instr::BinarySL {
            op: read_binop(r)?,
            s: r.u16()?,
        },
        op::BINARY_SC => Instr::BinarySC {
            op: read_binop(r)?,
            c: r.u32()?,
        },
        op::FOR_ITER => Instr::ForIter {
            target: r.u32()?,
            slot: r.u16()?,
        },
        op::RETURN_LOCAL => Instr::ReturnLocal(r.u16()?),
        op::RETURN_CONST => Instr::ReturnConst(r.u32()?),
        op::RAISE => Instr::Raise(match r.u8()? {
            0 => RaiseKind::BreakContinueOutsideLoop,
            1 => RaiseKind::ReturnOutsideFunction,
            other => return Err(r.err(format!("raise kind {other}"))),
        }),
        other => return Err(r.err(format!("opcode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> CompiledModule {
        let prog = crate::parse(src).unwrap();
        crate::compile::compile_module(&prog, src)
    }

    #[test]
    fn roundtrip_preserves_code() {
        let m = compile_src(
            r#"
            def f(x) {
                s = 0
                for i in range(x) {
                    if i % 2 == 0 { continue }
                    s = s + i
                }
                return s
            }
            table = {"a": 1.5, "b": f(10)}
            "#,
        );
        let bytes = m.to_bytes();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(disassemble(&m.top), disassemble(&back));
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let m = compile_src("x = 1\n");
        let bytes = m.to_bytes();
        assert!(from_bytes(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        assert!(from_bytes(&garbled).is_err(), "bad magic");
        assert!(from_bytes(&[]).is_err(), "empty");

        // an operand one past the end of the table it indexes, and a slot
        // at the top level, which runs without a slot frame
        let top = compile_src("def f(a) { return a }\nx = f(7)\n").top;
        let (c, n, f) = (top.consts.len(), top.names.len(), top.funcs.len());
        let image = |n_slots: u16, instr: Instr| {
            to_bytes(&CompiledFn {
                def: None,
                name: Rc::clone(&top.name),
                n_params: 0,
                n_slots,
                slot_names: vec![Rc::from("a"); n_slots as usize],
                names: top.names.clone(),
                consts: top.consts.clone(),
                funcs: top.funcs.clone(),
                code: vec![instr],
            })
        };
        assert!(from_bytes(&image(0, Instr::MakeFunc(f as u32 - 1))).is_ok());
        for (n_slots, bad) in [
            (0, Instr::Const(c as u32)),
            (0, Instr::LoadGlobal(n as u32)),
            (0, Instr::LoadLocal(0)),
            (0, Instr::MakeFunc(f as u32)),
            (1, Instr::LoadLocal(0)),
        ] {
            assert!(from_bytes(&image(n_slots, bad.clone())).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deeply_nested_function_tables_are_rejected_not_overflowing() {
        const LEVELS: usize = 100_000;
        let mut image = MAGIC.to_vec();
        for level in 0..LEVELS {
            image.push(0); // no def
            image.extend_from_slice(&[0; 4 + 2 + 2]); // name "", no params, no slots
            image.extend_from_slice(&[0; 3 * 4]); // no slot names, names, consts
            let nested = u32::from(level + 1 < LEVELS); // the next level
            image.extend_from_slice(&nested.to_le_bytes());
        }
        image.extend_from_slice(&[0; 4 * LEVELS]); // every level's empty code
        let err = crate::wire::on_small_stack(move || from_bytes(&image).unwrap_err().to_string());
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn digest_is_source_content_address() {
        let a = compile_src("x = 1\n");
        let b = compile_src("x = 1\n");
        let c = compile_src("x = 2\n");
        assert_eq!(a.source_digest, b.source_digest);
        assert_ne!(a.source_digest, c.source_digest);
    }
}
