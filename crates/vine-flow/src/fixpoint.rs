//! Generic worklist fixpoint solver over a [`Cfg`].
//!
//! An analysis supplies a join-semilattice fact type and a block transfer
//! function; the solver iterates blocks off a worklist until facts
//! stabilize. Both directions are supported: forward analyses (constant
//! propagation) join over predecessors, backward analyses (liveness) join
//! over successors. Termination is by the usual argument — facts only
//! grow under [`Lattice::join_from`] and every lattice used here has
//! finite height in the names occurring in the program.

use crate::cfg::{BlockId, Cfg};

/// A join-semilattice fact.
pub trait Lattice: Clone {
    /// Join `other` into `self`; return true iff `self` changed.
    fn join_from(&mut self, other: &Self) -> bool;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// An analysis: fact type + transfer function.
pub trait Analysis {
    type Fact: Lattice;

    fn direction(&self) -> Direction;

    /// Fact at the analysis boundary: the entry block's input for forward
    /// analyses, every exit block's input for backward analyses.
    fn boundary(&self) -> Self::Fact;

    /// The ⊥ fact blocks start from before any information arrives.
    fn bottom(&self) -> Self::Fact;

    /// Apply block `id`'s effect to `fact` (in place). For forward
    /// analyses `fact` is the block-entry fact and becomes the block-exit
    /// fact; mirrored for backward analyses.
    fn transfer(&self, cfg: &Cfg, id: BlockId, fact: &mut Self::Fact);
}

/// Per-block solution: the fact *entering* each block's transfer function
/// (`input`) and the fact it produces (`output`). For a forward analysis
/// `input[b]` is the fact at the top of block b; for a backward analysis it
/// is the fact at the bottom (after the terminator).
pub struct Solution<F> {
    pub input: Vec<F>,
    pub output: Vec<F>,
}

/// Run `analysis` to fixpoint over `cfg`.
pub fn solve<A: Analysis>(cfg: &Cfg, analysis: &A) -> Solution<A::Fact> {
    let n = cfg.blocks.len();
    let preds = cfg.preds();
    // edges facts flow across: predecessors for forward, successors for backward
    let sources: Vec<Vec<BlockId>> = match analysis.direction() {
        Direction::Forward => preds,
        Direction::Backward => (0..n).map(|b| cfg.succs(b)).collect(),
    };
    let mut input: Vec<A::Fact> = (0..n).map(|_| analysis.bottom()).collect();
    let mut output: Vec<A::Fact> = (0..n).map(|_| analysis.bottom()).collect();

    // boundary blocks: entry for forward; blocks with no successors for backward
    match analysis.direction() {
        Direction::Forward => input[Cfg::ENTRY].join_from(&analysis.boundary()),
        Direction::Backward => {
            let mut changed = false;
            for (b, inp) in input.iter_mut().enumerate() {
                if cfg.succs(b).is_empty() {
                    changed |= inp.join_from(&analysis.boundary());
                }
            }
            changed
        }
    };

    let mut work: Vec<BlockId> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop() {
        queued[b] = false;
        // (re)join inputs from sources
        for &s in &sources[b] {
            let src_out = output[s].clone();
            input[b].join_from(&src_out);
        }
        let mut fact = input[b].clone();
        analysis.transfer(cfg, b, &mut fact);
        if output[b].join_from(&fact) {
            // fact grew: everyone downstream must re-run
            for t in 0..n {
                if sources[t].contains(&b) && !queued[t] {
                    queued[t] = true;
                    work.push(t);
                }
            }
        }
    }
    Solution { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vine_lang::ast::{StmtKind, Target};

    /// Toy forward analysis: set of names assigned on some path.
    struct MaybeAssigned;

    #[derive(Clone, Default)]
    struct NameSet(BTreeSet<String>);

    impl Lattice for NameSet {
        fn join_from(&mut self, other: &Self) -> bool {
            let before = self.0.len();
            self.0.extend(other.0.iter().cloned());
            self.0.len() != before
        }
    }

    impl Analysis for MaybeAssigned {
        type Fact = NameSet;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> NameSet {
            NameSet::default()
        }
        fn bottom(&self) -> NameSet {
            NameSet::default()
        }
        fn transfer(&self, cfg: &Cfg, id: crate::cfg::BlockId, fact: &mut NameSet) {
            for s in &cfg.blocks[id].stmts {
                if let StmtKind::Assign(Target::Var(n), _) = &s.kind {
                    fact.0.insert(n.clone());
                }
            }
            if let crate::cfg::Terminator::ForNext { var, .. } = &cfg.blocks[id].term {
                fact.0.insert(var.clone());
            }
        }
    }

    #[test]
    fn converges_through_branches_and_loops() {
        let src = "a = 1\nif a { b = 2 } else { c = 3 }\nwhile a < 10 { a = a + 1\nd = a }";
        let cfg = Cfg::lower(&vine_lang::parse(src).unwrap());
        let sol = solve(&cfg, &MaybeAssigned);
        // at every exit-reachable point, all four names may be assigned
        let all: BTreeSet<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let last = sol
            .output
            .iter()
            .enumerate()
            .filter(|(b, _)| cfg.succs(*b).is_empty())
            .map(|(_, f)| f.0.clone())
            .next()
            .unwrap();
        assert_eq!(last, all);
    }
}
