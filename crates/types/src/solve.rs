//! Worklist constraint solver with widening (Appendix D.3).
//!
//! Computes the least assignment `A : ν → Lattice` satisfying all
//! constraints read as lower bounds, by chaotic iteration: when a
//! variable's value grows, all constraints reading it are re-evaluated.
//! The interval domain has infinite ascending chains (e.g. `ν ≡ ν + 1`),
//! so after `EXACT_ROUNDS` updates per variable the solver
//! switches to the widening operator `∇`, which pushes escaping endpoints
//! to `±∞` and guarantees termination.

use std::collections::VecDeque;

use gubpi_interval::{widen, Interval, Lattice};

use crate::constraints::{Constraint, ConstraintSet};

/// Number of exact (non-widening) updates allowed per variable before
/// widening kicks in. Finite chains shorter than this lose nothing.
const EXACT_ROUNDS: u32 = 24;

/// Solves the constraint set, returning one lattice element per variable.
///
/// Variables never bounded from below stay `⊥`; callers map `⊥` to a
/// context-appropriate default (e.g. `[−∞, ∞]` for value bounds).
pub fn solve(cs: &ConstraintSet) -> Vec<Lattice> {
    let n = cs.var_count();
    let mut assignment = vec![Lattice::Bottom; n];
    let mut update_count = vec![0u32; n];

    // Index: for each variable, the constraints that read it.
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in cs.constraints().iter().enumerate() {
        for v in c.inputs() {
            readers[v as usize].push(ci);
        }
    }

    let mut queue: VecDeque<usize> = (0..cs.constraints().len()).collect();
    let mut queued = vec![true; cs.constraints().len()];

    while let Some(ci) = queue.pop_front() {
        queued[ci] = false;
        let c = &cs.constraints()[ci];
        let contribution = eval_constraint(c, &assignment);
        let target = c.target() as usize;
        let old = assignment[target];
        let joined = old.join(contribution);
        if joined.leq(old) {
            continue; // no growth
        }
        update_count[target] += 1;
        let new = if update_count[target] > EXACT_ROUNDS {
            widen(old, joined)
        } else {
            joined
        };
        assignment[target] = new;
        for &ri in &readers[target] {
            if !queued[ri] {
                queued[ri] = true;
                queue.push_back(ri);
            }
        }
        // The target's own constraint may need re-evaluation when it is
        // self-referential (e.g. ν ⊒ ν + 1); it is in readers[target] if so.
    }
    assignment
}

fn eval_constraint(c: &Constraint, a: &[Lattice]) -> Lattice {
    match c {
        Constraint::Const(_, k) => Lattice::Elem(*k),
        Constraint::Flow(_, v) => a[*v as usize],
        Constraint::MeetNonNeg(_, v) => a[*v as usize].meet(Lattice::Elem(Interval::NON_NEG)),
        Constraint::Prim(_, op, args) => {
            let mut xs = Vec::with_capacity(args.len());
            for &v in args {
                match a[v as usize] {
                    Lattice::Bottom => return Lattice::Bottom, // not yet known
                    Lattice::Elem(i) => xs.push(i),
                }
            }
            Lattice::Elem(op.eval_interval(&xs))
        }
        Constraint::Product(_, args) => {
            let mut acc = Interval::ONE;
            for &v in args {
                match a[v as usize] {
                    Lattice::Bottom => return Lattice::Bottom,
                    Lattice::Elem(i) => acc = acc * i,
                }
            }
            Lattice::Elem(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::PrimOp;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn constants_and_flows_propagate() {
        let mut cs = ConstraintSet::new();
        let a = cs.fresh_const(iv(0.0, 1.0));
        let b = cs.fresh();
        cs.push(Constraint::Flow(b, a));
        let sol = solve(&cs);
        assert_eq!(sol[a as usize].interval(), Some(iv(0.0, 1.0)));
        assert_eq!(sol[b as usize].interval(), Some(iv(0.0, 1.0)));
    }

    #[test]
    fn joins_from_multiple_sources() {
        let mut cs = ConstraintSet::new();
        let a = cs.fresh_const(iv(0.0, 1.0));
        let b = cs.fresh_const(iv(2.0, 3.0));
        let c = cs.fresh();
        cs.push(Constraint::Flow(c, a));
        cs.push(Constraint::Flow(c, b));
        let sol = solve(&cs);
        assert_eq!(sol[c as usize].interval(), Some(iv(0.0, 3.0)));
    }

    #[test]
    fn primitive_constraints_apply_interval_lifting() {
        let mut cs = ConstraintSet::new();
        let a = cs.fresh_const(iv(1.0, 2.0));
        let b = cs.fresh_const(iv(10.0, 20.0));
        let s = cs.fresh();
        cs.push(Constraint::Prim(s, PrimOp::Add, vec![a, b]));
        let sol = solve(&cs);
        assert_eq!(sol[s as usize].interval(), Some(iv(11.0, 22.0)));
    }

    #[test]
    fn appendix_d_example_requires_widening() {
        // ν₁ ≡ [0,0], ν₂ ≡ [1,1], ν₁ ⊑ ν₃, ν₃ ≡ ν₃ + ν₂ — the minimal
        // solution after widening is ν₃ = [0, ∞].
        let mut cs = ConstraintSet::new();
        let v1 = cs.fresh_const(iv(0.0, 0.0));
        let v2 = cs.fresh_const(iv(1.0, 1.0));
        let v3 = cs.fresh();
        cs.push(Constraint::Flow(v3, v1));
        cs.push(Constraint::Prim(v3, PrimOp::Add, vec![v3, v2]));
        let sol = solve(&cs);
        let got = sol[v3 as usize].interval().unwrap();
        assert_eq!(got.lo(), 0.0);
        assert_eq!(got.hi(), f64::INFINITY);
    }

    #[test]
    fn finite_chains_stay_exact() {
        // A 10-step chain of flows must not trigger widening.
        let mut cs = ConstraintSet::new();
        let first = cs.fresh_const(iv(3.0, 4.0));
        let mut prev = first;
        for _ in 0..10 {
            let next = cs.fresh();
            cs.push(Constraint::Flow(next, prev));
            prev = next;
        }
        let sol = solve(&cs);
        assert_eq!(sol[prev as usize].interval(), Some(iv(3.0, 4.0)));
    }

    #[test]
    fn products_treat_missing_inputs_as_bottom() {
        let mut cs = ConstraintSet::new();
        let w1 = cs.fresh_const(Interval::ONE);
        let unknown = cs.fresh(); // never bounded
        let p = cs.fresh();
        cs.push(Constraint::Product(p, vec![w1, unknown]));
        let sol = solve(&cs);
        assert!(sol[p as usize].is_bottom());
    }

    #[test]
    fn meet_non_neg_truncates() {
        let mut cs = ConstraintSet::new();
        let m = cs.fresh_const(iv(-2.0, 3.0));
        let r = cs.fresh();
        cs.push(Constraint::MeetNonNeg(r, m));
        let sol = solve(&cs);
        assert_eq!(sol[r as usize].interval(), Some(iv(0.0, 3.0)));
    }
}
