//! Two classic dataflow analyses over the vinescript CFG.
//!
//! * **Liveness** (backward): which names may still be read later. Exact
//!   for function locals: lambdas resolve free names against *globals*,
//!   never enclosing locals, so no hidden capture keeps a local alive.
//! * **Constant propagation** (forward): which names hold a known scalar.
//!   Folding reuses the interpreter's own operator implementations
//!   ([`vine_lang::interp::binary_op`]) so a folded value can never
//!   diverge from what execution would produce.

use crate::cfg::{BlockId, Cfg, Terminator};
use crate::effects::EffectEnv;
use crate::fixpoint::{solve, Analysis, Direction, Lattice, Solution};
use std::collections::{BTreeMap, BTreeSet};
use vine_lang::ast::{binding, expr_reads, Expr, Stmt, StmtKind, Target};
use vine_lang::{interp, BinOp, Value};

// ---------------------------------------------------------------- liveness

#[derive(Clone, Default, Debug)]
pub struct NameSet(pub BTreeSet<String>);

impl Lattice for NameSet {
    fn join_from(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().cloned());
        self.0.len() != before
    }
}

/// Names a leaf statement reads (directly; nested lambda bodies read
/// globals at call time, not enclosing locals, so they are excluded here
/// and accounted for by the effect analysis instead).
pub fn leaf_uses(stmt: &Stmt) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    match &stmt.kind {
        StmtKind::Assign(target, e) => {
            if let Target::Index(obj, idx) = target {
                expr_reads(obj, &mut out);
                expr_reads(idx, &mut out);
            }
            expr_reads(e, &mut out);
        }
        StmtKind::Expr(e) => expr_reads(e, &mut out),
        _ => {}
    }
    out
}

/// Names a terminator reads.
fn term_uses(term: &Terminator) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    match term {
        Terminator::Branch { cond, .. } => expr_reads(cond, &mut out),
        Terminator::ForNext { iter, .. } => expr_reads(iter, &mut out),
        Terminator::Return(Some(e)) => expr_reads(e, &mut out),
        _ => {}
    }
    out
}

pub struct Liveness;

impl Analysis for Liveness {
    type Fact = NameSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> NameSet {
        NameSet::default()
    }

    fn bottom(&self) -> NameSet {
        NameSet::default()
    }

    /// `fact` arrives as live-out of the block and leaves as live-in.
    fn transfer(&self, cfg: &Cfg, id: BlockId, fact: &mut NameSet) {
        let block = &cfg.blocks[id];
        // the terminator evaluates after the statements
        if let Terminator::ForNext { var, .. } = &block.term {
            fact.0.remove(var);
        }
        fact.0.extend(term_uses(&block.term));
        for s in block.stmts.iter().rev() {
            if let Some(d) = binding(s) {
                fact.0.remove(d);
            }
            fact.0.extend(leaf_uses(s));
        }
    }
}

/// Liveness solution: `input[b]` is live-out of block b, `output[b]` is
/// live-in.
pub fn liveness(cfg: &Cfg) -> Solution<NameSet> {
    solve(cfg, &Liveness)
}

// ------------------------------------------------------ constant propagation

/// A name's abstract value: a known scalar constant, or Not-A-Constant.
#[derive(Clone, Debug, PartialEq)]
pub enum CVal {
    Const(Value),
    Nac,
}

/// Map from name to abstract value. Absent names are ⊥ (never assigned on
/// any path seen so far); reading one yields Nac.
pub type ConstEnv = BTreeMap<String, CVal>;

/// `None` = block not reached yet (⊥ of the whole-environment lattice):
/// joining an unreached path contributes nothing, which is what makes
/// facts inside branches precise.
#[derive(Clone, Debug, Default)]
pub struct ConstFact(pub Option<ConstEnv>);

impl Lattice for ConstFact {
    fn join_from(&mut self, other: &Self) -> bool {
        let Some(theirs) = &other.0 else {
            return false;
        };
        let Some(ours) = &mut self.0 else {
            self.0 = Some(theirs.clone());
            return true;
        };
        let mut changed = false;
        for (k, v) in theirs {
            match ours.get(k) {
                None => {
                    // assigned on their path only; widen to Nac rather
                    // than claiming their constant holds on ours
                    ours.insert(k.clone(), CVal::Nac);
                    changed = true;
                }
                Some(cur) if cur == v => {}
                Some(CVal::Nac) => {}
                Some(_) => {
                    ours.insert(k.clone(), CVal::Nac);
                    changed = true;
                }
            }
        }
        // names only we assigned are unbound on their path: widen too
        for (k, v) in ours.iter_mut() {
            if !theirs.contains_key(k) && *v != CVal::Nac {
                *v = CVal::Nac;
                changed = true;
            }
        }
        changed
    }
}

/// Is `v` a scalar we can re-materialize as a literal expression?
pub fn scalar(v: &Value) -> bool {
    matches!(
        v,
        Value::None | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
    )
}

/// Evaluate `e` under `env` to a constant if possible. Only literals,
/// names, and operators fold — never calls, even of pure builtins, so a
/// fold can't hide an expensive computation or mask an arity error. Uses
/// the interpreter's own operator functions; any evaluation error means
/// "not a constant" (the original program may or may not error — we make
/// no claim either way).
pub fn eval_const(e: &Expr, env: &ConstEnv) -> CVal {
    match e {
        Expr::None => CVal::Const(Value::None),
        Expr::Bool(b) => CVal::Const(Value::Bool(*b)),
        Expr::Int(i) => CVal::Const(Value::Int(*i)),
        Expr::Float(f) => CVal::Const(Value::Float(*f)),
        Expr::Str(s) => CVal::Const(Value::str(s.clone())),
        Expr::Var(n) => env.get(n).cloned().unwrap_or(CVal::Nac),
        Expr::Unary(op, x) => match eval_const(x, env) {
            CVal::Const(v) => interp::unary_op(*op, &v)
                .map(CVal::Const)
                .unwrap_or(CVal::Nac),
            CVal::Nac => CVal::Nac,
        },
        Expr::Binary(op, l, r) => {
            let lv = match eval_const(l, env) {
                CVal::Const(v) => v,
                CVal::Nac => return CVal::Nac,
            };
            match op {
                // short-circuit operators yield one operand's value
                BinOp::And => {
                    if !lv.truthy() {
                        CVal::Const(lv)
                    } else {
                        eval_const(r, env)
                    }
                }
                BinOp::Or => {
                    if lv.truthy() {
                        CVal::Const(lv)
                    } else {
                        eval_const(r, env)
                    }
                }
                _ => match eval_const(r, env) {
                    CVal::Const(rv) => interp::binary_op(*op, &lv, &rv)
                        .ok()
                        .filter(scalar)
                        .map(CVal::Const)
                        .unwrap_or(CVal::Nac),
                    CVal::Nac => CVal::Nac,
                },
            }
        }
        _ => CVal::Nac,
    }
}

/// Apply one leaf statement's effect to a constant environment, consulting
/// `effects` to havoc exactly the globals a called function may write.
/// `locals` are the current scope's frame-resolved names (empty at module
/// level): calls can never write another frame's locals.
pub fn const_transfer_stmt(
    stmt: &Stmt,
    env: &mut ConstEnv,
    effects: &EffectEnv,
    locals: &BTreeSet<String>,
) {
    // calls anywhere in the statement may clobber globals
    crate::effects::havoc_for_calls(stmt, env, effects, locals);
    match &stmt.kind {
        StmtKind::Assign(Target::Var(n), e) => {
            let v = eval_const(e, env);
            env.insert(n.clone(), v);
        }
        StmtKind::Assign(Target::Index(obj, _), _) => {
            // mutating a container: the binding still refers to the same
            // object, but any name rooted here loses const-ness
            let mut roots = BTreeSet::new();
            expr_reads(obj, &mut roots);
            for r in roots {
                env.insert(r, CVal::Nac);
            }
        }
        StmtKind::Import(m) => {
            env.insert(m.clone(), CVal::Nac);
        }
        StmtKind::FuncDef(f) => {
            env.insert(f.name.clone(), CVal::Nac);
        }
        StmtKind::If(..) | StmtKind::While(..) | StmtKind::For(..) => {
            // compound statements only reach here when applied whole (the
            // CFG decomposes them): havoc everything they may write
            for w in effects.stmt_effect(stmt).writes {
                env.insert(w, CVal::Nac);
            }
        }
        _ => {}
    }
}

pub struct ConstProp<'a> {
    pub effects: &'a EffectEnv,
    /// Names with unknown incoming values (function parameters, globals).
    pub unknown_at_entry: Vec<String>,
    /// Frame-resolved names of the scope under analysis (empty at module
    /// level); calls cannot clobber these.
    pub locals: BTreeSet<String>,
}

impl Analysis for ConstProp<'_> {
    type Fact = ConstFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> ConstFact {
        let mut env = ConstEnv::new();
        for n in &self.unknown_at_entry {
            env.insert(n.clone(), CVal::Nac);
        }
        ConstFact(Some(env))
    }

    fn bottom(&self) -> ConstFact {
        ConstFact(None)
    }

    fn transfer(&self, cfg: &Cfg, id: BlockId, fact: &mut ConstFact) {
        let Some(env) = &mut fact.0 else { return };
        let block = &cfg.blocks[id];
        for s in &block.stmts {
            const_transfer_stmt(s, env, self.effects, &self.locals);
        }
        if let Terminator::ForNext { var, .. } = &block.term {
            env.insert(var.clone(), CVal::Nac);
        }
    }
}

/// Constant propagation: `input[b]` is the environment at block entry
/// (`None` for blocks never reached).
pub fn constprop(
    cfg: &Cfg,
    effects: &EffectEnv,
    unknown_at_entry: Vec<String>,
    locals: BTreeSet<String>,
) -> Solution<ConstFact> {
    solve(
        cfg,
        &ConstProp {
            effects,
            unknown_at_entry,
            locals,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_of(src: &str) -> Cfg {
        Cfg::lower(&vine_lang::parse(src).unwrap())
    }

    #[test]
    fn liveness_sees_through_branches() {
        let cfg = cfg_of("a = 1\nif c { b = a } else { b = 2 }\nprint(b)");
        let sol = liveness(&cfg);
        // live-in of entry: c is read by the branch, a is read in one arm;
        // b is defined before its use
        let live_in_entry = &sol.output[Cfg::ENTRY].0;
        assert!(live_in_entry.contains("c"));
        assert!(!live_in_entry.contains("b"));
    }

    #[test]
    fn constants_fold_with_interpreter_semantics() {
        let env = ConstEnv::new();
        let prog = vine_lang::parse("x = (2 + 3) * 4").unwrap();
        let StmtKind::Assign(_, e) = &prog[0].kind else {
            panic!()
        };
        assert_eq!(eval_const(e, &env), CVal::Const(Value::Int(20)));
        // division by zero does not fold (and does not panic)
        let prog = vine_lang::parse("x = 1 / 0").unwrap();
        let StmtKind::Assign(_, e) = &prog[0].kind else {
            panic!()
        };
        assert_eq!(eval_const(e, &env), CVal::Nac);
    }

    #[test]
    fn constprop_tracks_through_straight_line() {
        let effects = EffectEnv::default();
        let cfg = cfg_of("a = 2\nb = a + 3\nif b > 4 { c = 1 }");
        let sol = constprop(&cfg, &effects, vec![], BTreeSet::new());
        // at the branch block's input, b is Const(5)
        let found = sol.output.iter().any(|f| {
            f.0.as_ref()
                .is_some_and(|env| env.get("b") == Some(&CVal::Const(Value::Int(5))))
        });
        assert!(found);
    }

    #[test]
    fn join_widens_disagreeing_constants() {
        let effects = EffectEnv::default();
        let cfg = cfg_of("if p { x = 1 } else { x = 2 }\ny = x");
        let sol = constprop(&cfg, &effects, vec!["p".into()], BTreeSet::new());
        // after the join, x is Nac in the block computing y
        let exit_env = sol
            .output
            .iter()
            .enumerate()
            .filter(|(b, _)| cfg.succs(*b).is_empty())
            .find_map(|(_, f)| f.0.clone())
            .unwrap();
        assert_eq!(exit_env.get("x"), Some(&CVal::Nac));
    }
}
