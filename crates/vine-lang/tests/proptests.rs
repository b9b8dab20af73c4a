//! Property-based tests for vine-lang invariants:
//!
//! * vinepickle round-trips arbitrary values and arbitrary ASTs exactly;
//! * the pretty-printer's output re-parses to the identical AST;
//! * corrupt pickle bytes never panic (they error or — if still decodable —
//!   decode), and neither do corrupt VBC2 bytecode images: byte soup,
//!   compiled images with a byte flipped, truncated images;
//! * a compiled image disassembles the same after a bytes round trip;
//! * interpreter arithmetic matches Rust semantics on safe ranges.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use vine_lang::ast::{walk_stmts, BinOp, Expr, FuncDef, Stmt, StmtKind, Target, UnOp};
use vine_lang::inspect::{format_funcdef, format_program};
use vine_lang::value::{Tensor, Value};
use vine_lang::Interp;
use vine_lang::{bytecode, pickle};

fn fresh_globals() -> Rc<RefCell<BTreeMap<String, Value>>> {
    Rc::new(RefCell::new(BTreeMap::new()))
}

// ---- arbitrary values ----

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::None),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // avoid NaN: Value equality is not reflexive for NaN (like Python)
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-\\.\u{e9}\u{4e16}]{0,24}".prop_map(Value::str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|b| Value::Bytes(Rc::new(b))),
        prop::collection::vec(prop::num::f64::NORMAL, 0..16).prop_map(|d| {
            let n = d.len();
            Value::tensor(Tensor::new(vec![n], d).unwrap())
        }),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::list),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| Value::Dict(Rc::new(RefCell::new(m)))),
        ]
    })
}

// ---- arbitrary ASTs ----

fn arb_name() -> impl Strategy<Value = String> {
    const KEYWORDS: &[&str] = &[
        "def", "fn", "return", "if", "elif", "else", "while", "for", "in", "break", "continue",
        "global", "import", "and", "or", "not", "true", "false", "none",
    ];
    "[a-z_][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| !KEYWORDS.contains(&s.as_str()))
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    // literals are non-negative: the grammar has no negative literals
    // (the parser produces Unary(Neg, lit) instead), so only
    // parser-producible ASTs are fair game for the print/reparse property
    let leaf = prop_oneof![
        Just(Expr::None),
        any::<bool>().prop_map(Expr::Bool),
        (0..i64::MAX).prop_map(Expr::Int),
        prop::num::f64::POSITIVE
            .prop_filter("finite", |v| v.is_finite())
            .prop_map(Expr::Float),
        "[a-zA-Z0-9 _]{0,12}".prop_map(Expr::Str),
        arb_name().prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        let op = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Mod),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::List),
            (inner.clone(), arb_name()).prop_map(|(o, a)| Expr::Attr(Box::new(o), a)),
            (inner.clone(), inner.clone()).prop_map(|(o, i)| Expr::Index(Box::new(o), Box::new(i))),
            (inner.clone(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| Expr::Call(Box::new(f), args)),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone())
                .prop_map(|(op, x)| Expr::Unary(op, Box::new(x))),
            (op, inner.clone(), inner).prop_map(|(op, a, b)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    // synthesized statements carry dummy spans; Stmt equality ignores spans,
    // so round-trip properties compare structure only
    let leaf = prop_oneof![
        arb_name().prop_map(|n| Stmt::dummy(StmtKind::Import(n))),
        (arb_name(), arb_expr())
            .prop_map(|(n, e)| Stmt::dummy(StmtKind::Assign(Target::Var(n), e))),
        (arb_expr(), arb_expr(), arb_expr())
            .prop_map(|(o, i, e)| Stmt::dummy(StmtKind::Assign(Target::Index(o, i), e))),
        prop::collection::vec(arb_name(), 1..3).prop_map(|ns| Stmt::dummy(StmtKind::Global(ns))),
        arb_expr().prop_map(|e| Stmt::dummy(StmtKind::Return(Some(e)))),
        Just(Stmt::dummy(StmtKind::Return(None))),
        Just(Stmt::dummy(StmtKind::Break)),
        Just(Stmt::dummy(StmtKind::Continue)),
        arb_expr().prop_map(|e| Stmt::dummy(StmtKind::Expr(e))),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        prop_oneof![
            (
                prop::collection::vec(
                    (arb_expr(), prop::collection::vec(inner.clone(), 0..3)),
                    1..3
                ),
                prop::option::of(prop::collection::vec(inner.clone(), 0..3))
            )
                .prop_map(|(arms, els)| Stmt::dummy(StmtKind::If(arms, els))),
            (arb_expr(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(c, b)| Stmt::dummy(StmtKind::While(c, b))),
            (arb_name(), arb_expr(), prop::collection::vec(inner, 0..3))
                .prop_map(|(v, it, b)| Stmt::dummy(StmtKind::For(v, it, b))),
        ]
    })
}

fn arb_funcdef() -> impl Strategy<Value = FuncDef> {
    (
        arb_name(),
        prop::collection::vec(arb_name(), 0..4),
        prop::collection::vec(arb_stmt(), 0..6),
    )
        .prop_map(|(name, params, body)| FuncDef::new(name, params, body))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pickle_value_roundtrip(v in arb_value()) {
        let blob = pickle::serialize_value(&v).unwrap();
        let back = pickle::deserialize_value(&blob, &fresh_globals()).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn pickle_funcdef_roundtrip(def in arb_funcdef()) {
        let blob = pickle::serialize_funcdef(&def);
        let back = pickle::deserialize_funcdef(&blob).unwrap();
        prop_assert_eq!(&*back, &def);
    }

    #[test]
    fn printer_output_reparses_identically(def in arb_funcdef()) {
        let printed = format_funcdef(&def);
        let prog = vine_lang::parse(&printed)
            .unwrap_or_else(|e| panic!("printed source failed to parse: {e}\n{printed}"));
        prop_assert_eq!(prog.len(), 1);
        match &prog[0].kind {
            StmtKind::FuncDef(parsed) => prop_assert_eq!(&**parsed, &def),
            other => prop_assert!(false, "expected FuncDef, got {:?}", other),
        }
        // and the printer is idempotent
        prop_assert_eq!(format_program(&prog), printed);
    }

    #[test]
    fn parse_format_parse_is_fixpoint_with_live_spans(def in arb_funcdef()) {
        // parse(format(parse(format(def)))) == parse(format(def)), and every
        // statement parsed from real text carries an in-bounds, non-empty
        // span whose slice re-parses to that same statement
        let printed = format_funcdef(&def);
        let prog = vine_lang::parse(&printed).unwrap();
        let reformatted = format_program(&prog);
        // format is a fixpoint after one parse
        prop_assert_eq!(&reformatted, &printed);
        let reparsed = vine_lang::parse(&reformatted).unwrap();
        prop_assert_eq!(&reparsed, &prog);

        let mut bad: Vec<String> = Vec::new();
        walk_stmts(&prog, &mut |s| {
            let (start, end) = (s.span.start as usize, s.span.end as usize);
            if start >= end || end > printed.len() {
                bad.push(format!("out-of-bounds span {start}..{end}: {:?}", s.kind));
                return;
            }
            let text = s.span.slice(&printed);
            match vine_lang::parse(text) {
                Ok(sub) if sub.len() == 1 && sub[0] == *s => {}
                Ok(sub) => bad.push(format!("slice {text:?} parsed to {sub:?}")),
                Err(e) => bad.push(format!("slice {text:?} failed to parse: {e}")),
            }
        });
        prop_assert!(bad.is_empty(), "span violations: {:#?}", bad);
    }

    #[test]
    fn corrupt_pickle_never_panics(mut blob in prop::collection::vec(any::<u8>(), 0..256)) {
        // any byte soup: must return (Ok or Err), never panic
        let _ = pickle::deserialize_value(&blob, &fresh_globals());
        // and with a valid header prefix:
        if blob.len() >= 4 {
            blob[..4].copy_from_slice(b"VPK2");
            let _ = pickle::deserialize_value(&blob, &fresh_globals());
            let _ = pickle::deserialize_funcdef(&blob);
        }
    }

    #[test]
    fn corrupt_bytecode_never_panics(mut blob in prop::collection::vec(any::<u8>(), 0..256)) {
        // byte soup: Ok or Err, never a panic
        let _ = bytecode::from_bytes(&blob);
        // and behind the image magic
        if blob.len() >= 4 {
            blob[..4].copy_from_slice(b"VBC2");
            let _ = bytecode::from_bytes(&blob);
        }
    }

    #[test]
    fn mutated_bytecode_images_never_panic(
        def in arb_funcdef(),
        at in any::<usize>(),
        mask in 1u8..=255,
        cut in any::<usize>(),
    ) {
        let prog = vec![Stmt::dummy(StmtKind::FuncDef(Rc::new(def)))];
        let module = vine_lang::compile_module(&prog, "");
        let image = module.to_bytes();
        // the unmutated image survives the round trip
        let back = bytecode::from_bytes(&image).unwrap();
        prop_assert_eq!(bytecode::disassemble(&back), bytecode::disassemble(&module.top));
        // decoded, never run: a mutated image may still decode
        let mut flipped = image.clone();
        flipped[at % image.len()] ^= mask;
        let _ = bytecode::from_bytes(&flipped);
        let _ = bytecode::from_bytes(&image[..cut % image.len()]);
    }

    #[test]
    fn interpreter_integer_arithmetic_matches_rust(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let mut interp = Interp::new();
        interp.exec_source(&format!("x = {a} + {b}\ny = {a} * {b}\nz = {a} - {b}")).unwrap();
        prop_assert_eq!(interp.get_global("x").unwrap(), Value::Int(a + b));
        prop_assert_eq!(interp.get_global("y").unwrap(), Value::Int(a * b));
        prop_assert_eq!(interp.get_global("z").unwrap(), Value::Int(a - b));
    }

    #[test]
    fn interpreter_comparison_total_order(a in any::<i64>(), b in any::<i64>()) {
        let mut interp = Interp::new();
        interp.exec_source(&format!("lt = {a} < {b}\nge = {a} >= {b}")).unwrap();
        prop_assert_eq!(interp.get_global("lt").unwrap(), Value::Bool(a < b));
        prop_assert_eq!(interp.get_global("ge").unwrap(), Value::Bool(a >= b));
    }

    #[test]
    fn shipped_function_computes_same_result(x in -10_000i64..10_000) {
        // define f locally, ship it, run it remotely: results must agree
        let mut origin = Interp::new();
        origin.exec_source("def f(v) { return v * 3 - 1 }").unwrap();
        let local = origin.call_global("f", &[Value::Int(x)]).unwrap();

        let blob = pickle::serialize_value(&origin.get_global("f").unwrap()).unwrap();
        let mut worker = Interp::new();
        let f = pickle::deserialize_value(&blob, &worker.globals).unwrap();
        let remote = worker.call_value(&f, &[Value::Int(x)]).unwrap();
        prop_assert_eq!(local, remote);
    }
}
