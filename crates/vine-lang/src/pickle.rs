//! "vinepickle": binary serialization of values and function code objects.
//!
//! The cloudpickle analogue (paper §3.2): when a function has no
//! recoverable source form — lambdas, `exec`-generated functions, functions
//! received through layers of software — the discover mechanism serializes
//! its *code object* (the AST) to bytes, ships the bytes, and the worker
//! reconstructs the function there. Arguments and results travel the same
//! way (§3.4: the library "serializes the result into a result file in the
//! invocation's sandbox").
//!
//! The format is a tagged byte stream with a 4-byte magic header `VPK2`,
//! built on the bounded [`vine_core::wire`] core it shares with compiled
//! images. A value is a tag byte and a body: integers are zigzag varints
//! and list and dict counts are varints, so a small result stays small;
//! floats and tensor data are 8 bytes little-endian, and strings and
//! bytes carry a u32 length. Function code objects (the AST encoding)
//! use u32 counts and 8-byte integers.

use crate::ast::{Expr, FuncDef, Stmt, StmtKind, Target, UnOp};
use crate::value::{Function, Tensor, Value};
use crate::wire::{read_binop, write_binop};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use vine_core::wire::{Reader, Writer};
use vine_core::{Result, VineError};

const MAGIC: &[u8; 4] = b"VPK2";

// ---------- value encoding ----------

mod tag {
    pub const NONE: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const INT: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const STR: u8 = 4;
    pub const BYTES: u8 = 5;
    pub const LIST: u8 = 6;
    pub const DICT: u8 = 7;
    pub const TENSOR: u8 = 8;
    pub const FUNC: u8 = 9;
}

fn write_value(w: &mut Writer, v: &Value) -> Result<()> {
    match v {
        Value::None => w.u8(tag::NONE),
        Value::Bool(b) => {
            w.u8(tag::BOOL);
            w.u8(*b as u8);
        }
        Value::Int(x) => {
            w.u8(tag::INT);
            w.zigzag(*x);
        }
        Value::Float(x) => {
            w.u8(tag::FLOAT);
            w.f64(*x);
        }
        Value::Str(s) => {
            w.u8(tag::STR);
            w.str(s);
        }
        Value::Bytes(b) => {
            w.u8(tag::BYTES);
            w.bytes(b);
        }
        Value::List(items) => {
            w.u8(tag::LIST);
            let items = items.borrow();
            w.varint(items.len() as u64);
            for item in items.iter() {
                write_value(w, item)?;
            }
        }
        Value::Dict(d) => {
            w.u8(tag::DICT);
            let d = d.borrow();
            w.varint(d.len() as u64);
            for (k, val) in d.iter() {
                w.str(k);
                write_value(w, val)?;
            }
        }
        Value::Tensor(t) => {
            w.u8(tag::TENSOR);
            w.u32(t.shape.len() as u32);
            for d in &t.shape {
                w.u32(*d as u32);
            }
            for x in t.data.iter() {
                w.f64(*x);
            }
        }
        Value::Func(f) => {
            w.u8(tag::FUNC);
            write_funcdef(w, &f.def);
        }
        Value::Native(n) => {
            return Err(VineError::Serialization(format!(
                "cannot serialize native function '{}' (ship the module instead)",
                n.name
            )))
        }
        Value::Module(m) => {
            return Err(VineError::Serialization(format!(
                "cannot serialize module '{}' (declare it as a dependency instead)",
                m.name
            )))
        }
    }
    Ok(())
}

fn read_value(r: &mut Reader, globals: &Rc<RefCell<BTreeMap<String, Value>>>) -> Result<Value> {
    r.descend()?;
    let t = r.u8()?;
    let v = match t {
        tag::NONE => Value::None,
        tag::BOOL => Value::Bool(r.u8()? != 0),
        tag::INT => Value::Int(r.zigzag()?),
        tag::FLOAT => Value::Float(r.f64()?),
        tag::STR => Value::str(r.str()?),
        tag::BYTES => Value::Bytes(Rc::new(r.bytes()?.to_vec())),
        tag::LIST => {
            let n = r.varint_len()?;
            Value::list(r.items(n, |r| read_value(r, globals))?)
        }
        tag::DICT => {
            let n = r.varint_len()?;
            let d = r.items(n, |r| Ok((r.str()?, read_value(r, globals)?)))?;
            Value::Dict(Rc::new(RefCell::new(d.into_iter().collect())))
        }
        tag::TENSOR => {
            let ndim = r.u32()? as usize;
            if ndim > 64 {
                return Err(r.err("tensor rank too large"));
            }
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(r.u32()? as usize);
            }
            // guard against bogus lengths before allocating
            let n = shape
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .filter(|n| n.checked_mul(8).is_some_and(|b| b <= r.remaining()))
                .ok_or_else(|| r.err("truncated tensor data"))?;
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(r.f64()?);
            }
            Value::Tensor(Rc::new(Tensor {
                shape,
                data: Rc::new(data),
            }))
        }
        tag::FUNC => {
            let def = read_funcdef(r)?;
            Value::Func(Rc::new(Function::new(Rc::new(def), Rc::clone(globals))))
        }
        other => return Err(r.err(format!("unknown value tag {other}"))),
    };
    r.ascend();
    Ok(v)
}

// ---------- AST encoding ----------

mod etag {
    pub const NONE: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const INT: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const STR: u8 = 4;
    pub const LIST: u8 = 5;
    pub const DICT: u8 = 6;
    pub const VAR: u8 = 7;
    pub const ATTR: u8 = 8;
    pub const INDEX: u8 = 9;
    pub const CALL: u8 = 10;
    pub const UNARY: u8 = 11;
    pub const BINARY: u8 = 12;
    pub const LAMBDA: u8 = 13;
}

mod stag {
    pub const IMPORT: u8 = 0;
    pub const FUNCDEF: u8 = 1;
    pub const ASSIGN_VAR: u8 = 2;
    pub const ASSIGN_INDEX: u8 = 3;
    pub const GLOBAL: u8 = 4;
    pub const IF: u8 = 5;
    pub const WHILE: u8 = 6;
    pub const FOR: u8 = 7;
    pub const RETURN: u8 = 8;
    pub const RETURN_NONE: u8 = 9;
    pub const BREAK: u8 = 10;
    pub const CONTINUE: u8 = 11;
    pub const EXPR: u8 = 12;
}

fn write_expr(w: &mut Writer, e: &Expr) {
    match e {
        Expr::None => w.u8(etag::NONE),
        Expr::Bool(b) => {
            w.u8(etag::BOOL);
            w.u8(*b as u8);
        }
        Expr::Int(v) => {
            w.u8(etag::INT);
            w.i64(*v);
        }
        Expr::Float(v) => {
            w.u8(etag::FLOAT);
            w.f64(*v);
        }
        Expr::Str(s) => {
            w.u8(etag::STR);
            w.str(s);
        }
        Expr::List(items) => {
            w.u8(etag::LIST);
            w.u32(items.len() as u32);
            for i in items {
                write_expr(w, i);
            }
        }
        Expr::Dict(pairs) => {
            w.u8(etag::DICT);
            w.u32(pairs.len() as u32);
            for (k, v) in pairs {
                write_expr(w, k);
                write_expr(w, v);
            }
        }
        Expr::Var(name) => {
            w.u8(etag::VAR);
            w.str(name);
        }
        Expr::Attr(obj, attr) => {
            w.u8(etag::ATTR);
            write_expr(w, obj);
            w.str(attr);
        }
        Expr::Index(obj, idx) => {
            w.u8(etag::INDEX);
            write_expr(w, obj);
            write_expr(w, idx);
        }
        Expr::Call(f, args) => {
            w.u8(etag::CALL);
            write_expr(w, f);
            w.u32(args.len() as u32);
            for a in args {
                write_expr(w, a);
            }
        }
        Expr::Unary(op, inner) => {
            w.u8(etag::UNARY);
            w.u8(matches!(op, UnOp::Not) as u8);
            write_expr(w, inner);
        }
        Expr::Binary(op, l, r) => {
            w.u8(etag::BINARY);
            write_binop(w, *op);
            write_expr(w, l);
            write_expr(w, r);
        }
        Expr::Lambda(def) => {
            w.u8(etag::LAMBDA);
            write_funcdef(w, def);
        }
    }
}

// Expressions nest through `read_expr`, so it keeps its frame small (see
// `read_stmt`): forms with several parts decode in `read_compound_expr`.
fn read_expr(r: &mut Reader) -> Result<Expr> {
    r.descend()?;
    let e = match r.u8()? {
        etag::NONE => Ok(Expr::None),
        etag::BOOL => r.u8().map(|b| Expr::Bool(b != 0)),
        etag::INT => r.i64().map(Expr::Int),
        etag::FLOAT => r.f64().map(Expr::Float),
        etag::STR => r.str().map(Expr::Str),
        etag::LIST => r.seq(read_expr).map(Expr::List),
        etag::VAR => r.str().map(Expr::Var),
        etag::LAMBDA => read_funcdef(r).map(|def| Expr::Lambda(Rc::new(def))),
        t => read_compound_expr(r, t),
    }?;
    r.ascend();
    Ok(e)
}

fn read_compound_expr(r: &mut Reader, t: u8) -> Result<Expr> {
    Ok(match t {
        etag::DICT => Expr::Dict(r.seq(|r| Ok((read_expr(r)?, read_expr(r)?)))?),
        etag::ATTR => Expr::Attr(Box::new(read_expr(r)?), r.str()?),
        etag::INDEX => Expr::Index(Box::new(read_expr(r)?), Box::new(read_expr(r)?)),
        etag::CALL => Expr::Call(Box::new(read_expr(r)?), r.seq(read_expr)?),
        etag::UNARY => {
            let op = if r.u8()? != 0 { UnOp::Not } else { UnOp::Neg };
            Expr::Unary(op, Box::new(read_expr(r)?))
        }
        etag::BINARY => Expr::Binary(
            read_binop(r)?,
            Box::new(read_expr(r)?),
            Box::new(read_expr(r)?),
        ),
        other => return Err(r.err(format!("unknown expr tag {other}"))),
    })
}

fn write_stmts(w: &mut Writer, stmts: &[Stmt]) {
    w.u32(stmts.len() as u32);
    for s in stmts {
        write_stmt(w, s);
    }
}

fn read_stmts(r: &mut Reader) -> Result<Vec<Stmt>> {
    r.seq(read_stmt)
}

// NOTE: spans are deliberately NOT serialized. The wire format (and thus
// content digests of serialized code objects) is identical to the
// pre-span encoding; deserialized statements come back with Span::DUMMY.
fn write_stmt(w: &mut Writer, s: &Stmt) {
    match &s.kind {
        StmtKind::Import(name) => {
            w.u8(stag::IMPORT);
            w.str(name);
        }
        StmtKind::FuncDef(def) => {
            w.u8(stag::FUNCDEF);
            write_funcdef(w, def);
        }
        StmtKind::Assign(Target::Var(name), e) => {
            w.u8(stag::ASSIGN_VAR);
            w.str(name);
            write_expr(w, e);
        }
        StmtKind::Assign(Target::Index(obj, idx), e) => {
            w.u8(stag::ASSIGN_INDEX);
            write_expr(w, obj);
            write_expr(w, idx);
            write_expr(w, e);
        }
        StmtKind::Global(names) => {
            w.u8(stag::GLOBAL);
            w.u32(names.len() as u32);
            for n in names {
                w.str(n);
            }
        }
        StmtKind::If(arms, els) => {
            w.u8(stag::IF);
            w.u32(arms.len() as u32);
            for (cond, body) in arms {
                write_expr(w, cond);
                write_stmts(w, body);
            }
            match els {
                Some(body) => {
                    w.u8(1);
                    write_stmts(w, body);
                }
                None => w.u8(0),
            }
        }
        StmtKind::While(cond, body) => {
            w.u8(stag::WHILE);
            write_expr(w, cond);
            write_stmts(w, body);
        }
        StmtKind::For(var, iter, body) => {
            w.u8(stag::FOR);
            w.str(var);
            write_expr(w, iter);
            write_stmts(w, body);
        }
        StmtKind::Return(Some(e)) => {
            w.u8(stag::RETURN);
            write_expr(w, e);
        }
        StmtKind::Return(None) => w.u8(stag::RETURN_NONE),
        StmtKind::Break => w.u8(stag::BREAK),
        StmtKind::Continue => w.u8(stag::CONTINUE),
        StmtKind::Expr(e) => {
            w.u8(stag::EXPR);
            write_expr(w, e);
        }
    }
}

// Statements nest through `read_stmt`, so it only dispatches: each
// compound form decodes in a function of its own, keeping the frame that
// recurs small.
fn read_stmt(r: &mut Reader) -> Result<Stmt> {
    r.descend()?;
    let kind = match r.u8()? {
        stag::IMPORT => r.str().map(StmtKind::Import),
        stag::FUNCDEF => read_funcdef(r).map(|def| StmtKind::FuncDef(Rc::new(def))),
        stag::ASSIGN_VAR => read_assign(r, false),
        stag::ASSIGN_INDEX => read_assign(r, true),
        stag::GLOBAL => r.seq(Reader::str).map(StmtKind::Global),
        stag::IF => read_if(r),
        stag::WHILE => read_loop(r, false),
        stag::FOR => read_loop(r, true),
        stag::RETURN => read_expr(r).map(|e| StmtKind::Return(Some(e))),
        stag::RETURN_NONE => Ok(StmtKind::Return(None)),
        stag::BREAK => Ok(StmtKind::Break),
        stag::CONTINUE => Ok(StmtKind::Continue),
        stag::EXPR => read_expr(r).map(StmtKind::Expr),
        other => Err(r.err(format!("unknown stmt tag {other}"))),
    }?;
    r.ascend();
    Ok(Stmt::dummy(kind))
}

fn read_assign(r: &mut Reader, index: bool) -> Result<StmtKind> {
    let target = if index {
        Target::Index(read_expr(r)?, read_expr(r)?)
    } else {
        Target::Var(r.str()?)
    };
    Ok(StmtKind::Assign(target, read_expr(r)?))
}

fn read_if(r: &mut Reader) -> Result<StmtKind> {
    let arms = r.seq(|r| Ok((read_expr(r)?, read_stmts(r)?)))?;
    let els = if r.u8()? != 0 {
        Some(read_stmts(r)?)
    } else {
        None
    };
    Ok(StmtKind::If(arms, els))
}

fn read_loop(r: &mut Reader, is_for: bool) -> Result<StmtKind> {
    let var = if is_for { Some(r.str()?) } else { None };
    let head = read_expr(r)?;
    let body = read_stmts(r)?;
    Ok(match var {
        Some(var) => StmtKind::For(var, head, body),
        None => StmtKind::While(head, body),
    })
}

fn write_funcdef(w: &mut Writer, def: &FuncDef) {
    w.str(&def.name);
    w.u32(def.params.len() as u32);
    for p in &def.params {
        w.str(p);
    }
    write_stmts(w, &def.body);
}

fn read_funcdef(r: &mut Reader) -> Result<FuncDef> {
    let name = r.str()?;
    let params = r.seq(Reader::str)?;
    let body = read_stmts(r)?;
    Ok(FuncDef::new(name, params, body))
}

// ---------- public API ----------

/// Serialize a value (arguments, results, or whole function objects).
pub fn serialize_value(v: &Value) -> Result<Vec<u8>> {
    let mut w = Writer::new(MAGIC);
    write_value(&mut w, v)?;
    Ok(w.buf)
}

/// Deserialize a value, binding any contained functions to `globals` (the
/// namespace of the interpreter reconstructing them).
pub fn deserialize_value(
    data: &[u8],
    globals: &Rc<RefCell<BTreeMap<String, Value>>>,
) -> Result<Value> {
    let mut r = Reader::new(data, MAGIC)?;
    let v = read_value(&mut r, globals)?;
    r.finish()?;
    Ok(v)
}

/// Serialize a bare function code object.
pub fn serialize_funcdef(def: &FuncDef) -> Vec<u8> {
    let mut w = Writer::new(MAGIC);
    write_funcdef(&mut w, def);
    w.buf
}

/// Deserialize a bare function code object.
pub fn deserialize_funcdef(data: &[u8]) -> Result<Rc<FuncDef>> {
    let mut r = Reader::new(data, MAGIC)?;
    let def = read_funcdef(&mut r)?;
    r.finish()?;
    Ok(Rc::new(def))
}

/// Serialize an argument vector as one blob (what a `FunctionCall` ships).
pub fn serialize_args(args: &[Value]) -> Result<Vec<u8>> {
    serialize_value(&Value::list(args.to_vec()))
}

/// Deserialize an argument blob back into a vector.
pub fn deserialize_args(
    data: &[u8],
    globals: &Rc<RefCell<BTreeMap<String, Value>>>,
) -> Result<Vec<Value>> {
    match deserialize_value(data, globals)? {
        Value::List(items) => Ok(items.borrow().clone()),
        other => Err(VineError::Serialization(format!(
            "VPK2: argument blob is {}, expected list",
            other.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::wire::on_small_stack;
    use vine_core::wire::MAX_DEPTH;

    fn fresh_globals() -> Rc<RefCell<BTreeMap<String, Value>>> {
        Rc::new(RefCell::new(BTreeMap::new()))
    }

    fn roundtrip(v: &Value) -> Value {
        let blob = serialize_value(v).unwrap();
        deserialize_value(&blob, &fresh_globals()).unwrap()
    }

    #[test]
    fn roundtrip_primitives() {
        for v in [
            Value::None,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.15),
            Value::Float(f64::NEG_INFINITY),
            Value::str("hello \u{1F600} world"),
            Value::Bytes(Rc::new(vec![0, 255, 128])),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn small_integers_and_counts_take_one_byte() {
        // sixteen class labels, as an LNNI inference returns them:
        // magic, list tag, count, then a tag and one byte per label
        let labels = Value::list((0..16).map(|i| Value::Int(i % 10)).collect());
        assert_eq!(serialize_value(&labels).unwrap().len(), 4 + 2 + 16 * 2);
        // multi-byte counts and integers of every width round-trip
        let wide: Vec<Value> = (0..300)
            .map(|i| Value::Int(i64::MIN >> (i % 64)))
            .chain([Value::Int(i64::MAX), Value::Int(-1), Value::Int(64)])
            .collect();
        let dict = Value::dict((0..200).map(|i| (format!("k{i}"), Value::Int(-i))));
        for v in [Value::list(wide), dict] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn roundtrip_nested_containers() {
        let v = Value::list(vec![
            Value::Int(1),
            Value::dict([
                ("a".to_string(), Value::list(vec![Value::Float(2.5)])),
                ("b".to_string(), Value::None),
            ]),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn roundtrip_tensor() {
        let t = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = Value::tensor(t);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn roundtrip_function_and_execute() {
        // define, serialize, reconstruct in a *different* interpreter, call
        let mut a = Interp::new();
        a.exec_source("def f(x) { return x * x + 1 }").unwrap();
        let f = a.get_global("f").unwrap();
        let blob = serialize_value(&f).unwrap();

        let mut b = Interp::new();
        let g = deserialize_value(&blob, &b.globals).unwrap();
        assert_eq!(b.call_value(&g, &[Value::Int(6)]).unwrap(), Value::Int(37));
    }

    #[test]
    fn reconstructed_function_uses_new_globals() {
        // a shipped function must read the *worker's* globals (where context
        // setup ran), not its origin's
        let mut origin = Interp::new();
        origin
            .exec_source("model = 1\ndef infer(x) { return model + x }")
            .unwrap();
        let blob = serialize_value(&origin.get_global("infer").unwrap()).unwrap();

        let mut worker = Interp::new();
        worker.set_global("model", Value::Int(1000));
        let f = deserialize_value(&blob, &worker.globals).unwrap();
        assert_eq!(
            worker.call_value(&f, &[Value::Int(1)]).unwrap(),
            Value::Int(1001)
        );
    }

    #[test]
    fn roundtrip_lambda() {
        let mut a = Interp::new();
        a.exec_source("g = fn (x, y) { return x - y }").unwrap();
        let blob = serialize_value(&a.get_global("g").unwrap()).unwrap();
        let mut b = Interp::new();
        let g = deserialize_value(&blob, &b.globals).unwrap();
        assert_eq!(
            b.call_value(&g, &[Value::Int(10), Value::Int(4)]).unwrap(),
            Value::Int(6)
        );
    }

    #[test]
    fn roundtrip_function_with_all_statement_forms() {
        let src = r#"
            def kitchen_sink(n) {
                import mathx
                global acc
                acc = 0
                xs = [1, 2, 3]
                xs[0] = {"k": none}
                if n > 0 { acc += n } elif n < 0 { acc -= n } else { acc = 0 }
                for i in range(n) {
                    if i == 2 { continue }
                    if i > 5 { break }
                    acc += i
                }
                while false { }
                h = fn (z) { return z }
                return not (acc == 0) and acc >= -1 or acc <= 100
            }
        "#;
        let prog = crate::parse(src).unwrap();
        let def = match &prog[0].kind {
            StmtKind::FuncDef(d) => Rc::clone(d),
            other => panic!("unexpected {other:?}"),
        };
        let blob = serialize_funcdef(&def);
        let back = deserialize_funcdef(&blob).unwrap();
        assert_eq!(*back, *def);
    }

    #[test]
    fn modules_and_natives_refuse_serialization() {
        let mut reg = crate::modules::ModuleRegistry::new();
        reg.register_native("m", || {
            vec![crate::modules::native("f", |_| Ok(Value::None))]
        });
        let mut interp = Interp::with_registry(reg);
        interp.exec_source("import m\ng = m.f").unwrap();
        let module = interp.get_global("m").unwrap();
        let native = interp.get_global("g").unwrap();
        assert!(serialize_value(&module).is_err());
        assert!(serialize_value(&native).is_err());
    }

    #[test]
    fn args_blob_roundtrip() {
        let args = vec![Value::Int(1), Value::str("x"), Value::list(vec![])];
        let blob = serialize_args(&args).unwrap();
        let back = deserialize_args(&blob, &fresh_globals()).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        // bad magic
        assert!(deserialize_value(b"XXXX", &fresh_globals()).is_err());
        // empty
        assert!(deserialize_value(b"", &fresh_globals()).is_err());
        // truncations of a valid blob must all fail gracefully
        let blob = serialize_value(&Value::list(vec![
            Value::Int(5),
            Value::str("hello"),
            Value::tensor(Tensor::zeros(vec![4])),
        ]))
        .unwrap();
        for cut in 0..blob.len() {
            let _ = deserialize_value(&blob[..cut], &fresh_globals());
        }
        // flipping the value tag byte to garbage must error
        let mut bad = blob.clone();
        bad[4] = 200;
        assert!(deserialize_value(&bad, &fresh_globals()).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut blob = serialize_value(&Value::Int(1)).unwrap();
        blob.push(0);
        assert!(deserialize_value(&blob, &fresh_globals()).is_err());
    }

    #[test]
    fn bogus_tensor_length_does_not_overallocate() {
        // craft: magic + TENSOR tag + ndim + dims, no data; the second
        // shape's element count fits a usize but its byte size does not
        for shape in [&[u32::MAX][..], &[1 << 31, 1 << 30]] {
            let mut blob = MAGIC.to_vec();
            blob.push(tag::TENSOR);
            blob.extend_from_slice(&(shape.len() as u32).to_le_bytes());
            for d in shape {
                blob.extend_from_slice(&d.to_le_bytes());
            }
            assert!(deserialize_value(&blob, &fresh_globals()).is_err());
        }
    }

    #[test]
    fn deeply_nested_blob_is_rejected_not_overflowing() {
        let mut blob = MAGIC.to_vec();
        for _ in 0..100_000 {
            blob.push(tag::LIST);
            blob.push(1);
        }
        blob.push(tag::NONE);
        let err = on_small_stack(move || {
            deserialize_value(&blob, &fresh_globals())
                .unwrap_err()
                .to_string()
        });
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn nesting_up_to_the_limit_round_trips_on_a_small_stack() {
        on_small_stack(|| {
            // `levels` nested values: lists around a leaf
            let values = |levels: usize| (1..levels).fold(Value::None, |v, _| Value::list(vec![v]));
            assert_eq!(roundtrip(&values(MAX_DEPTH)), values(MAX_DEPTH));
            let blob = serialize_value(&values(MAX_DEPTH + 1)).unwrap();
            assert!(deserialize_value(&blob, &fresh_globals()).is_err());

            // a statement holding `levels - 1` nested expressions
            let exprs = |levels: usize| {
                let e = (2..levels).fold(Expr::Int(1), |e, _| Expr::Unary(UnOp::Neg, Box::new(e)));
                FuncDef::new("f", vec![], vec![Stmt::dummy(StmtKind::Return(Some(e)))])
            };
            // `levels - 1` nested loops, the innermost condition the last level
            let stmts = |levels: usize| {
                let body = (1..levels).fold(Vec::new(), |body, _| {
                    vec![Stmt::dummy(StmtKind::While(Expr::Bool(true), body))]
                });
                FuncDef::new("g", vec![], body)
            };
            for def in [exprs(MAX_DEPTH), stmts(MAX_DEPTH)] {
                let back = deserialize_funcdef(&serialize_funcdef(&def)).unwrap();
                assert_eq!(*back, def);
            }
            for def in [exprs(MAX_DEPTH + 1), stmts(MAX_DEPTH + 1)] {
                assert!(deserialize_funcdef(&serialize_funcdef(&def)).is_err());
            }
        });
    }
}
