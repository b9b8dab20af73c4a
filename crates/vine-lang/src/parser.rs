//! Recursive-descent parser for vinescript.
//!
//! The parser bounds how deep a program nests, counting as it goes: every
//! statement and expression node sits one level below its parent, and a
//! bracket, unary operator or call argument opens a level. A left-deep
//! chain (`a + b + c`, `f(x)(y)`, `a[i][j]`) is built parent-after-child,
//! so each operator pushes everything parsed so far in the chain one
//! level down. Past [`MAX_DEPTH`] levels the parse fails, which keeps the
//! parser and every recursive pass over its output (compiler, both
//! engines, pickling) within a small thread stack, and every function it
//! accepts within what a `VPK2` pickle may nest.

use crate::ast::{BinOp, Expr, FuncDef, Program, Span, Stmt, StmtKind, Target, UnOp};
use crate::lexer::{Tok, Token};
use std::rc::Rc;
use vine_core::wire::MAX_DEPTH;
use vine_core::{Result, VineError};

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Level of the innermost open node (a top-level statement is level 1).
    depth: usize,
    /// Deepest level reached so far in the innermost open chain, counting
    /// the levels its operators have since pushed those nodes down.
    peak: usize,
}

fn perr(line: u32, col: u32, msg: impl std::fmt::Display) -> VineError {
    VineError::Lang(format!("parse error at line {line}, column {col}: {msg}"))
}

impl<'a> Parser<'a> {
    /// Record a node at `level`; past `MAX_DEPTH` the parse fails.
    fn reach(&mut self, level: usize) -> Result<()> {
        self.peak = self.peak.max(level);
        if self.peak > MAX_DEPTH {
            let msg = format!("nesting deeper than {MAX_DEPTH} levels");
            return Err(perr(self.line(), self.col(), msg));
        }
        Ok(())
    }

    /// Open one level below the current node.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        self.reach(self.depth)
    }

    // Levels opened on a path that errors are never closed: a parse error
    // abandons the parser.
    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Start a chain: its peak counts only the nodes parsed from here.
    fn open_chain(&mut self) -> usize {
        std::mem::replace(&mut self.peak, self.depth)
    }

    fn close_chain(&mut self, outer_peak: usize) {
        self.peak = self.peak.max(outer_peak);
    }

    /// A chain operator wraps everything parsed so far in the chain: all
    /// of it moves one level down.
    fn push_down(&mut self) -> Result<()> {
        self.reach(self.peak + 1)
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn col(&self) -> u32 {
        self.toks[self.pos].col
    }

    /// Byte offset where the current token starts.
    fn start(&self) -> u32 {
        self.toks[self.pos].span.start
    }

    /// Byte offset just past the most recently consumed token.
    fn prev_end(&self) -> u32 {
        if self.pos == 0 {
            0
        } else {
            self.toks[self.pos - 1].span.end
        }
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<()> {
        if self.peek() == want {
            self.advance();
            Ok(())
        } else {
            Err(perr(
                self.line(),
                self.col(),
                format!("expected {:?}, found {:?}", want, self.peek()),
            ))
        }
    }

    fn eat_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(perr(
                self.line(),
                self.col(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    // ---- statements ----
    //
    // Statements and expressions nest through mutual recursion, so the
    // functions on those paths stay small and hand each construct's work
    // to a function of its own: a thread's stack bounds how deep a program
    // can nest within `MAX_DEPTH`, even in unoptimized builds.

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(perr(
                    self.line(),
                    self.col(),
                    "unexpected end of input in block",
                ));
            }
            stmts.push(self.statement()?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt> {
        // optional statement separators
        while self.peek() == &Tok::Semi {
            self.advance();
        }
        self.enter()?;
        let start = self.start();
        let kind = match self.peek() {
            Tok::Def => self.def_stmt(start),
            Tok::If => self.if_stmt(),
            Tok::While | Tok::For => self.loop_stmt(),
            _ => self.simple_stmt(),
        }?;
        self.leave();
        let stmt = Stmt::new(
            kind,
            Span {
                start,
                end: self.prev_end(),
            },
        );
        while self.peek() == &Tok::Semi {
            self.advance();
        }
        Ok(stmt)
    }

    fn def_stmt(&mut self, start: u32) -> Result<StmtKind> {
        self.advance();
        let name = self.eat_ident()?;
        let params = self.param_list()?;
        let body = self.block()?;
        let span = Span {
            start,
            end: self.prev_end(),
        };
        Ok(StmtKind::FuncDef(Rc::new(FuncDef {
            name,
            params,
            body,
            span,
        })))
    }

    fn if_stmt(&mut self) -> Result<StmtKind> {
        self.advance();
        let mut arms = Vec::new();
        let mut els = None;
        loop {
            let cond = self.expr()?;
            arms.push((cond, self.block()?));
            match self.peek() {
                Tok::Elif => self.advance(),
                Tok::Else => {
                    self.advance();
                    els = Some(self.block()?);
                    break;
                }
                _ => break,
            };
        }
        Ok(StmtKind::If(arms, els))
    }

    fn loop_stmt(&mut self) -> Result<StmtKind> {
        if self.advance() == Tok::While {
            let cond = self.expr()?;
            return Ok(StmtKind::While(cond, self.block()?));
        }
        let var = self.eat_ident()?;
        self.eat(&Tok::In)?;
        let iter = self.expr()?;
        Ok(StmtKind::For(var, iter, self.block()?))
    }

    /// Every statement that holds no block.
    fn simple_stmt(&mut self) -> Result<StmtKind> {
        let line = self.line();
        let col = self.col();
        Ok(match self.peek() {
            Tok::Import => {
                self.advance();
                StmtKind::Import(self.eat_ident()?)
            }
            Tok::Global => {
                self.advance();
                let mut names = vec![self.eat_ident()?];
                while self.peek() == &Tok::Comma {
                    self.advance();
                    names.push(self.eat_ident()?);
                }
                StmtKind::Global(names)
            }
            Tok::Return => {
                self.advance();
                // `return` with nothing before a block/statement boundary
                let value = if matches!(
                    self.peek(),
                    Tok::RBrace | Tok::Eof | Tok::Semi | Tok::Def | Tok::If | Tok::While | Tok::For
                ) {
                    None
                } else {
                    Some(self.expr()?)
                };
                StmtKind::Return(value)
            }
            Tok::Break => {
                self.advance();
                StmtKind::Break
            }
            Tok::Continue => {
                self.advance();
                StmtKind::Continue
            }
            _ => {
                // expression, assignment, or augmented assignment
                let outer_peak = self.open_chain();
                let e = self.expr()?;
                let kind = match self.peek() {
                    Tok::Assign => {
                        self.advance();
                        let rhs = self.expr()?;
                        StmtKind::Assign(Self::to_target(e, line, col)?, rhs)
                    }
                    Tok::PlusEq | Tok::MinusEq => {
                        let op = if self.peek() == &Tok::PlusEq {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        self.advance();
                        // `e op= rhs` desugars to `e = e op rhs`
                        self.push_down()?;
                        self.enter()?;
                        let rhs = self.expr()?;
                        self.leave();
                        let target = Self::to_target(e.clone(), line, col)?;
                        StmtKind::Assign(target, Expr::Binary(op, Box::new(e), Box::new(rhs)))
                    }
                    _ => StmtKind::Expr(e),
                };
                self.close_chain(outer_peak);
                kind
            }
        })
    }

    fn to_target(e: Expr, line: u32, col: u32) -> Result<Target> {
        match e {
            Expr::Var(name) => Ok(Target::Var(name)),
            Expr::Index(obj, idx) => Ok(Target::Index(*obj, *idx)),
            other => Err(perr(
                line,
                col,
                format!("invalid assignment target: {other:?}"),
            )),
        }
    }

    fn param_list(&mut self) -> Result<Vec<String>> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            params.push(self.eat_ident()?);
            while self.peek() == &Tok::Comma {
                self.advance();
                params.push(self.eat_ident()?);
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(params)
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr> {
        self.binary(OR)
    }

    /// An expression whose binary operators bind at least as tightly as
    /// `min`. Operators chain left to right; a comparison takes no
    /// comparison operand (`a < b < c` does not parse), and `not` binds
    /// looser than a comparison but tighter than `and`.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let outer_peak = self.open_chain();
        // the tightest binding an operator extending the chain may have:
        // after `x op y` it is `op`'s own, except that a comparison takes
        // no second comparison; after `not x` it is looser than comparisons
        let mut max = u8::MAX;
        let mut lhs = match self.peek() {
            Tok::Not if min <= NOT => {
                max = NOT;
                self.not_expr()?
            }
            Tok::Minus => self.unary()?,
            _ => self.postfix()?,
        };
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min || prec > max {
                break;
            }
            self.advance();
            self.push_down()?;
            self.enter()?;
            let rhs = self.binary(prec + 1)?;
            self.leave();
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            max = if prec == CMP { NOT } else { prec };
        }
        self.close_chain(outer_peak);
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        self.advance();
        self.enter()?;
        let inner = self.binary(NOT)?;
        self.leave();
        Ok(Expr::Unary(UnOp::Not, Box::new(inner)))
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.peek() != &Tok::Minus {
            return self.postfix();
        }
        self.advance();
        self.enter()?;
        let inner = self.unary()?;
        self.leave();
        Ok(Expr::Unary(UnOp::Neg, Box::new(inner)))
    }

    /// A primary followed by calls, indexing and attribute reads. Each one
    /// wraps what came before, within the enclosing operator chain.
    fn postfix(&mut self) -> Result<Expr> {
        self.enter()?;
        let mut e = self.primary()?;
        while matches!(self.peek(), Tok::LParen | Tok::LBracket | Tok::Dot) {
            e = self.postfix_op(e)?;
        }
        self.leave();
        Ok(e)
    }

    fn postfix_op(&mut self, e: Expr) -> Result<Expr> {
        let wrap = self.advance();
        self.push_down()?;
        let e = Box::new(e);
        Ok(match wrap {
            Tok::LParen => Expr::Call(e, self.call_args()?),
            Tok::LBracket => Expr::Index(e, Box::new(self.index()?)),
            _ => Expr::Attr(e, self.eat_ident()?),
        })
    }

    fn call_args(&mut self) -> Result<Vec<Expr>> {
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            args.push(self.expr()?);
            while self.peek() == &Tok::Comma {
                self.advance();
                args.push(self.expr()?);
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(args)
    }

    fn index(&mut self) -> Result<Expr> {
        let idx = self.expr()?;
        self.eat(&Tok::RBracket)?;
        Ok(idx)
    }

    /// A literal, name, bracketed expression or lambda.
    fn primary(&mut self) -> Result<Expr> {
        match self.peek() {
            Tok::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.eat(&Tok::RParen).map(|()| inner)
            }
            Tok::LBracket => self.list(),
            Tok::LBrace => self.dict(),
            Tok::Fn => self.lambda(),
            _ => self.leaf(),
        }
    }

    fn leaf(&mut self) -> Result<Expr> {
        let line = self.line();
        let col = self.col();
        Ok(match self.advance() {
            Tok::Int(v) => Expr::Int(v),
            Tok::Float(v) => Expr::Float(v),
            Tok::Str(s) => Expr::Str(s),
            Tok::True => Expr::Bool(true),
            Tok::False => Expr::Bool(false),
            Tok::None => Expr::None,
            Tok::Ident(name) => Expr::Var(name),
            other => return Err(perr(line, col, format!("unexpected token {other:?}"))),
        })
    }

    fn list(&mut self) -> Result<Expr> {
        self.advance();
        let mut items = Vec::new();
        if self.peek() != &Tok::RBracket {
            items.push(self.expr()?);
            while self.peek() == &Tok::Comma {
                self.advance();
                if self.peek() == &Tok::RBracket {
                    break; // trailing comma
                }
                items.push(self.expr()?);
            }
        }
        self.eat(&Tok::RBracket)?;
        Ok(Expr::List(items))
    }

    fn dict(&mut self) -> Result<Expr> {
        self.advance();
        let mut pairs = Vec::new();
        if self.peek() != &Tok::RBrace {
            loop {
                let k = self.expr()?;
                self.eat(&Tok::Colon)?;
                let v = self.expr()?;
                pairs.push((k, v));
                if self.peek() == &Tok::Comma {
                    self.advance();
                    if self.peek() == &Tok::RBrace {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RBrace)?;
        Ok(Expr::Dict(pairs))
    }

    fn lambda(&mut self) -> Result<Expr> {
        let start = self.start();
        self.advance();
        let params = self.param_list()?;
        let body = self.block()?;
        let span = Span {
            start,
            end: self.prev_end(),
        };
        Ok(Expr::Lambda(Rc::new(FuncDef {
            name: String::new(),
            params,
            body,
            span,
        })))
    }
}

/// Binding strength of the binary operators, loosest first. `not` sits
/// between `and` and the comparisons; unary minus binds tightest of all.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;

fn binary_op(t: &Tok) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::Or => (BinOp::Or, OR),
        Tok::And => (BinOp::And, AND),
        Tok::Eq => (BinOp::Eq, CMP),
        Tok::Ne => (BinOp::Ne, CMP),
        Tok::Lt => (BinOp::Lt, CMP),
        Tok::Le => (BinOp::Le, CMP),
        Tok::Gt => (BinOp::Gt, CMP),
        Tok::Ge => (BinOp::Ge, CMP),
        Tok::Plus => (BinOp::Add, ADD),
        Tok::Minus => (BinOp::Sub, ADD),
        Tok::Star => (BinOp::Mul, MUL),
        Tok::Slash => (BinOp::Div, MUL),
        Tok::Percent => (BinOp::Mod, MUL),
        _ => return None,
    })
}

/// Parse a token stream into a program.
pub fn parse_program(toks: &[Token]) -> Result<Program> {
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    let mut stmts = Vec::new();
    while p.peek() != &Tok::Eof {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use vine_core::wire::MAX_DEPTH;

    fn parse(src: &str) -> Program {
        parse_program(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parse_function_def() {
        let prog = parse("def add(a, b) { return a + b }");
        assert_eq!(prog.len(), 1);
        match &prog[0].kind {
            StmtKind::FuncDef(f) => {
                assert_eq!(f.name, "add");
                assert_eq!(f.params, vec!["a", "b"]);
                assert_eq!(f.body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let prog = parse("x = 1 + 2 * 3");
        match &prog[0].kind {
            StmtKind::Assign(Target::Var(x), Expr::Binary(BinOp::Add, lhs, rhs)) => {
                assert_eq!(x, "x");
                assert_eq!(**lhs, Expr::Int(1));
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_logical_precedence() {
        // a or b and not c == (a or (b and (not c)))
        let prog = parse("x = a or b and not c");
        match &prog[0].kind {
            StmtKind::Assign(_, Expr::Binary(BinOp::Or, _, rhs)) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::And, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_if_elif_else() {
        let prog = parse("if a { x = 1 } elif b { x = 2 } else { x = 3 }");
        match &prog[0].kind {
            StmtKind::If(arms, els) => {
                assert_eq!(arms.len(), 2);
                assert!(els.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_for_and_while() {
        let prog = parse("for i in range(10) { s += i }\nwhile s > 0 { s -= 1 }");
        assert!(matches!(prog[0].kind, StmtKind::For(_, _, _)));
        assert!(matches!(prog[1].kind, StmtKind::While(_, _)));
    }

    #[test]
    fn parse_augmented_assign_desugars() {
        let prog = parse("x += 2");
        match &prog[0].kind {
            StmtKind::Assign(Target::Var(x), Expr::Binary(BinOp::Add, _, _)) => assert_eq!(x, "x"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_index_assignment() {
        let prog = parse("xs[0] = 5");
        assert!(matches!(
            &prog[0].kind,
            StmtKind::Assign(Target::Index(_, _), _)
        ));
    }

    #[test]
    fn parse_attr_call_chain() {
        let prog = parse("y = nn.infer(model, img)[0]");
        match &prog[0].kind {
            StmtKind::Assign(_, Expr::Index(call, _)) => {
                assert!(matches!(**call, Expr::Call(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_lambda() {
        let prog = parse("f = fn (x) { return x * 2 }");
        match &prog[0].kind {
            StmtKind::Assign(_, Expr::Lambda(f)) => {
                assert!(f.is_lambda());
                assert_eq!(f.params, vec!["x"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_dict_and_list_literals() {
        let prog = parse(r#"d = {"a": 1, "b": [1, 2, 3,],}"#);
        match &prog[0].kind {
            StmtKind::Assign(_, Expr::Dict(pairs)) => {
                assert_eq!(pairs.len(), 2);
                assert!(matches!(pairs[1].1, Expr::List(ref xs) if xs.len() == 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_global_decl() {
        let prog = parse("def setup() { global model, cache\n model = 1 }");
        match &prog[0].kind {
            StmtKind::FuncDef(f) => {
                assert_eq!(
                    f.body[0].kind,
                    StmtKind::Global(vec!["model".into(), "cache".into()])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_return_without_value() {
        let prog = parse("def f() { return }");
        match &prog[0].kind {
            StmtKind::FuncDef(f) => assert_eq!(f.body[0].kind, StmtKind::Return(None)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        let bad = [
            "def f( {",
            "x = ",
            "if { }",
            "1 = 2",
            "def f() { return x",
            "fn x",
        ];
        for src in bad {
            let toks = lex(src);
            if let Ok(toks) = toks {
                assert!(parse_program(&toks).is_err(), "should fail: {src}");
            }
        }
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let toks = lex("x = 1\ny = )").unwrap();
        let e = parse_program(&toks).unwrap_err().to_string();
        assert!(e.contains("line 2, column 5"), "got: {e}");
    }

    #[test]
    fn statements_carry_source_spans() {
        let src = "x = 1\ndef f(a) {\n  return a\n}\ny = f(x)";
        let prog = parse(src);
        assert_eq!(prog[0].span.slice(src), "x = 1");
        assert_eq!(prog[1].span.slice(src), "def f(a) {\n  return a\n}");
        assert_eq!(prog[2].span.slice(src), "y = f(x)");
        match &prog[1].kind {
            StmtKind::FuncDef(f) => {
                assert_eq!(f.span.slice(src), "def f(a) {\n  return a\n}");
                assert_eq!(f.body[0].span.slice(src), "return a");
                assert_eq!(f.body[0].span.line_col(src), (3, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_unary_minus_binds_tighter_than_mul() {
        // -x * y == (-x) * y
        let prog = parse("z = -x * y");
        match &prog[0].kind {
            StmtKind::Assign(_, Expr::Binary(BinOp::Mul, lhs, _)) => {
                assert!(matches!(**lhs, Expr::Unary(UnOp::Neg, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A function whose deepest node sits `levels` levels down when the
    /// shape's construct repeats around a literal: `def` is level 1, the
    /// `return` level 2, its expression level 3.
    fn nested(shape: &str, levels: usize) -> String {
        let k = levels - 3;
        let body = match shape {
            "parens" => format!("return {}1{}", "(".repeat(k), ")".repeat(k)),
            "chain" => format!("return 1{}", " + 1".repeat(k)),
            "unary" => format!("return {}1", "- ".repeat(k)),
            "lists" => format!("return {}1{}", "[".repeat(k), "]".repeat(k)),
            "calls" => format!("return {}1{}", "id(".repeat(k), ")".repeat(k)),
            "blocks" => format!("{}return 1{}", "if true { ".repeat(k), " }".repeat(k)),
            "defs" => format!("{}return 1{}", "def g() { ".repeat(k), " }".repeat(k)),
            other => unreachable!("{other}"),
        };
        format!("def id(x) {{ return x }}\ndef f() {{ {body} }}\n")
    }

    const SHAPES: [&str; 7] = [
        "parens", "chain", "unary", "lists", "calls", "blocks", "defs",
    ];

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        crate::wire::on_small_stack(|| {
            let parens = format!("x = {}1{}", "(".repeat(10_000), ")".repeat(10_000));
            let chain = format!("x = 1{}", "+1".repeat(100_000));
            for src in [parens, chain] {
                let err = crate::parse(&src).unwrap_err().to_string();
                assert!(err.contains("nesting deeper than"), "{err}");
            }
            for shape in SHAPES {
                assert!(
                    crate::parse(&nested(shape, MAX_DEPTH + 1)).is_err(),
                    "{shape}"
                );
            }
        });
    }

    #[test]
    fn nesting_at_the_limit_parses_runs_and_pickles() {
        crate::wire::on_small_stack(|| {
            for shape in SHAPES {
                let src = nested(shape, MAX_DEPTH);
                let image = crate::compile_module(&crate::parse(&src).unwrap(), &src).to_bytes();
                assert!(crate::bytecode::from_bytes(&image).is_ok(), "{shape}");
                let mut results = Vec::new();
                for engine in [crate::Engine::Tree, crate::Engine::Vm] {
                    let mut interp = crate::Interp::new();
                    interp.engine = engine;
                    interp.exec_source(&src).unwrap();
                    let f = interp.get_global("f").unwrap();
                    let blob = crate::pickle::serialize_value(&f).unwrap();
                    let back = crate::pickle::deserialize_value(&blob, &interp.globals).unwrap();
                    for g in [f, back] {
                        results.push(interp.call_value(&g, &[]).unwrap());
                    }
                }
                assert!(
                    results.iter().all(|r| *r == results[0]),
                    "{shape}: {results:?}"
                );
            }
        });
    }

    #[test]
    fn parse_import() {
        let prog = parse("import nn\nimport mathx");
        assert_eq!(prog[0].kind, StmtKind::Import("nn".into()));
        assert_eq!(prog[1].kind, StmtKind::Import("mathx".into()));
    }
}
