//! Symbolic paths `Ψ = (V, n, Δ, Ξ)` (Appendix B).

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gubpi_interval::{BoxN, Interval};

use crate::symval::SymVal;

/// Direction of a recorded branch constraint.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CmpDir {
    /// `V ≤ 0` (the then-branch of `if(V, N, P)`).
    LeZero,
    /// `V > 0` (the else-branch).
    GtZero,
}

/// A symbolic constraint `V ≤ 0` or `V > 0` recorded in `Δ`.
#[derive(Clone, Debug, PartialEq)]
pub struct SymConstraint {
    /// The symbolic value being compared against 0.
    pub value: Arc<SymVal>,
    /// Which side of the branch was taken.
    pub dir: CmpDir,
}

impl SymConstraint {
    /// Do concrete samples `s` satisfy the constraint? With intervals in
    /// the value, `definitely` requires *all* refinements to satisfy it
    /// (the `∀` of `⟦Ψ⟧_lb`); otherwise *some* refinement suffices
    /// (`∃`, for `⟦Ψ⟧_ub`).
    pub fn satisfied(&self, s: &[f64], definitely: bool) -> bool {
        let range = self.value.eval(s);
        self.holds_on(range, definitely)
    }

    /// Constraint satisfaction for a whole range of values.
    pub fn holds_on(&self, range: Interval, definitely: bool) -> bool {
        match (self.dir, definitely) {
            (CmpDir::LeZero, true) => range.hi() <= 0.0,
            (CmpDir::LeZero, false) => range.lo() <= 0.0,
            (CmpDir::GtZero, true) => range.lo() > 0.0,
            (CmpDir::GtZero, false) => range.hi() > 0.0,
        }
    }
}

impl fmt::Display for SymConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dir {
            CmpDir::LeZero => write!(f, "{} <= 0", self.value),
            CmpDir::GtZero => write!(f, "{} > 0", self.value),
        }
    }
}

/// Tail-enclosure data attached to a ⊤ path: the geometric-remainder
/// ingredients of the recursion whose exploration the budget cut off.
///
/// Carried as plain data — attaching it never changes the path's own
/// denotation. `gubpi_core::pathbounds` substitutes the ⊤ path's
/// `[0, ∞]` score placeholder with the finite enclosure
/// `[0, x_hi / (1 − c_hi)]` when `per_step_weight.hi() < 1` (and tail
/// accounting is enabled); otherwise the trivial ⊤ contribution stands.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TailEnclosure {
    /// How many unfoldings of the truncating recursion the path
    /// explored before the cut. Census data for the plain geometric
    /// formula (the explored prefix's decay already lives in `Δ` and
    /// `Ξ`), but load-bearing for an eventually-geometric `prefix`:
    /// the two-phase formula discounts by `k₀ − unfoldings_explored`
    /// remaining prefix steps.
    pub unfoldings_explored: u32,
    /// Upper enclosure `c` of the one-unfolding continue mass.
    pub per_step_weight: Interval,
    /// Upper enclosure `x` of the out-of-body score product.
    pub continuation_weight: Interval,
    /// Eventually-geometric certificate from the ranking pass (mirrors
    /// `gubpi_analysis::RankedTail`), for recursions whose plain
    /// `per_step_weight` sits at or above the `c = 1` boundary.
    pub prefix: Option<TailPrefix>,
}

/// The eventually-geometric component of a [`TailEnclosure`]: after at
/// most `prefix_bound` unfoldings the continue mass is 0, and suffix
/// executions terminating before that carry total weight at most 1
/// (see `gubpi_analysis::RankedTail`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TailPrefix {
    /// `k₀`: unfoldings until the decay phase provably starts.
    pub prefix_bound: u32,
}

/// A finished symbolic (interval) path `Ψ = (V, n, Δ, Ξ)`.
///
/// `PartialEq` is structural (float literals compare by value, so two
/// paths differing only in `0.0` vs `-0.0` compare equal — both denote
/// the same measure). The analyzer's shared memo cache uses it to
/// verify [`SymPath::fingerprint`] matches before reusing an entry
/// across `Analyzer` instances.
#[derive(Clone, Debug, PartialEq)]
pub struct SymPath {
    /// The result value `V`.
    pub result: Arc<SymVal>,
    /// Number of sample variables drawn along the path.
    pub n_samples: usize,
    /// The branch constraints `Δ`.
    pub constraints: Vec<SymConstraint>,
    /// The score values `Ξ`.
    pub scores: Vec<Arc<SymVal>>,
    /// Did `approxFix` (or a budget overflow) introduce interval
    /// literals? Exact-path denotations exist only when `false`.
    pub truncated: bool,
    /// Is this a ⊤ path closing off a subtree the executor could not
    /// afford to explore (path budget, fuel or stack depth exhausted)?
    /// Strictly stronger than [`truncated`](SymPath::truncated): an
    /// `approxFix` replacement keeps the path's own structure, a ⊤ path
    /// covers *everything* beyond its cut. `repro --stats` reports the
    /// count, separating "recursion depth hit `max_fix_unfoldings`"
    /// from "path budget too small".
    pub budget_truncated: bool,
    /// For ⊤ paths cut inside a recursion with a provable geometric
    /// tail: the remainder enclosure (see [`TailEnclosure`]). Always
    /// `None` for non-⊤ paths.
    pub tail: Option<TailEnclosure>,
}

impl SymPath {
    /// The path of a bare value over `n_samples` inputs: result `v`, no
    /// constraints and no scores. A tape lowers a value (a §6.4 score
    /// skeleton, whose `Sample(k)` leaves index its parts) in this form,
    /// and its `value` output is then `v.range_over_box`.
    pub fn of_value(n_samples: usize, v: Arc<SymVal>) -> SymPath {
        SymPath {
            result: v,
            n_samples,
            constraints: Vec::new(),
            scores: Vec::new(),
            truncated: false,
            budget_truncated: false,
            tail: None,
        }
    }

    /// Is every sample variable used at most once in the result, in each
    /// constraint and in each score value (Assumption 1, §4.2)?
    pub fn satisfies_single_use(&self) -> bool {
        let single = |v: &Arc<SymVal>| {
            let mut counts = Vec::new();
            v.count_sample_uses(&mut counts);
            counts.iter().all(|&c| c <= 1)
        };
        single(&self.result)
            && self.constraints.iter().all(|c| single(&c.value))
            && self.scores.iter().all(single)
    }

    /// The product of score values over a box of sample values, as an
    /// interval (the `Π W` factor of `⟦Ψ⟧_lb` / `⟦Ψ⟧_ub`).
    pub fn weight_range_over_box(&self, b: &BoxN) -> Interval {
        let mut acc = Interval::ONE;
        for w in &self.scores {
            acc = acc * w.range_over_box(b).clamp_non_neg();
        }
        acc
    }

    /// Do all constraints hold on the box — definitely (`∀`) or possibly
    /// (`∃`)?
    pub fn constraints_on_box(&self, b: &BoxN, definitely: bool) -> bool {
        self.constraints
            .iter()
            .all(|c| c.holds_on(c.value.range_over_box(b), definitely))
    }

    /// A structural 64-bit fingerprint of the path: result, sample count,
    /// constraints (with direction), scores and the truncation flag, with
    /// float literals hashed by bit pattern. Structurally identical paths
    /// fingerprint identically across runs (the hasher is keyed with
    /// fixed constants), so the analyzer can use it as a memo-cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.n_samples.hash(&mut h);
        self.truncated.hash(&mut h);
        self.budget_truncated.hash(&mut h);
        match &self.tail {
            None => 0u8.hash(&mut h),
            Some(t) => {
                1u8.hash(&mut h);
                t.unfoldings_explored.hash(&mut h);
                t.per_step_weight.lo().to_bits().hash(&mut h);
                t.per_step_weight.hi().to_bits().hash(&mut h);
                t.continuation_weight.lo().to_bits().hash(&mut h);
                t.continuation_weight.hi().to_bits().hash(&mut h);
                match &t.prefix {
                    None => 0u8.hash(&mut h),
                    Some(p) => {
                        1u8.hash(&mut h);
                        p.prefix_bound.hash(&mut h);
                    }
                }
            }
        }
        hash_symval(&self.result, &mut h);
        self.constraints.len().hash(&mut h);
        for c in &self.constraints {
            matches!(c.dir, CmpDir::LeZero).hash(&mut h);
            hash_symval(&c.value, &mut h);
        }
        self.scores.len().hash(&mut h);
        for w in &self.scores {
            hash_symval(w, &mut h);
        }
        h.finish()
    }
}

fn hash_symval(v: &SymVal, h: &mut impl Hasher) {
    match v {
        SymVal::Const(c) => {
            0u8.hash(h);
            c.to_bits().hash(h);
        }
        SymVal::Interval(i) => {
            1u8.hash(h);
            i.lo().to_bits().hash(h);
            i.hi().to_bits().hash(h);
        }
        SymVal::Sample(i) => {
            2u8.hash(h);
            i.hash(h);
        }
        SymVal::Prim(op, args) => {
            3u8.hash(h);
            op.hash(h);
            args.len().hash(h);
            for a in args {
                hash_symval(a, h);
            }
        }
    }
}

impl fmt::Display for SymPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ψ(result = {}, n = {}, Δ = {{",
            self.result, self.n_samples
        )?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}, Ξ = {{")?;
        for (i, w) in self.scores.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::PrimOp;

    fn s(i: usize) -> Arc<SymVal> {
        Arc::new(SymVal::Sample(i))
    }
    fn c(x: f64) -> Arc<SymVal> {
        Arc::new(SymVal::Const(x))
    }

    #[test]
    fn constraint_satisfaction_on_points() {
        // α₀ − 0.5 ≤ 0
        let g = SymConstraint {
            value: SymVal::prim(PrimOp::Sub, vec![s(0), c(0.5)]),
            dir: CmpDir::LeZero,
        };
        assert!(g.satisfied(&[0.3], true));
        assert!(!g.satisfied(&[0.7], true));
        let h = SymConstraint {
            value: SymVal::prim(PrimOp::Sub, vec![s(0), c(0.5)]),
            dir: CmpDir::GtZero,
        };
        assert!(h.satisfied(&[0.7], true));
    }

    #[test]
    fn forall_vs_exists_with_intervals() {
        // (α₀ + [0, 1]) ≤ 0 at α₀ = −0.5: range [−0.5, 0.5]
        let v = SymVal::prim(
            PrimOp::Add,
            vec![s(0), Arc::new(SymVal::Interval(Interval::UNIT))],
        );
        let g = SymConstraint {
            value: v,
            dir: CmpDir::LeZero,
        };
        assert!(!g.satisfied(&[-0.5], true)); // not all refinements
        assert!(g.satisfied(&[-0.5], false)); // some refinement
    }

    #[test]
    fn weight_range_multiplies_scores() {
        let p = SymPath {
            result: s(0),
            n_samples: 1,
            constraints: vec![],
            scores: vec![c(2.0), s(0)],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        let b = BoxN::new(vec![Interval::new(0.25, 0.5)]);
        assert_eq!(p.weight_range_over_box(&b), Interval::new(0.5, 1.0));
    }

    #[test]
    fn single_use_check() {
        let good = SymPath {
            result: s(0),
            n_samples: 2,
            constraints: vec![SymConstraint {
                value: SymVal::prim(PrimOp::Sub, vec![s(1), c(0.5)]),
                dir: CmpDir::LeZero,
            }],
            scores: vec![],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        assert!(good.satisfies_single_use());
        let bad = SymPath {
            result: SymVal::prim(PrimOp::Sub, vec![s(0), s(0)]),
            n_samples: 1,
            constraints: vec![],
            scores: vec![],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        assert!(!bad.satisfies_single_use());
    }

    #[test]
    fn paths_are_send_and_sync() {
        // The parallel bounding engine shares `&[SymPath]` across worker
        // threads; this must stay a compile-time guarantee.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SymPath>();
        assert_send_sync::<SymVal>();
    }

    #[test]
    fn fingerprints_separate_structure() {
        let base = SymPath {
            result: s(0),
            n_samples: 1,
            constraints: vec![],
            scores: vec![c(2.0)],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        let same = base.clone();
        assert_eq!(base.fingerprint(), same.fingerprint());
        let mut other_score = base.clone();
        other_score.scores = vec![c(3.0)];
        assert_ne!(base.fingerprint(), other_score.fingerprint());
        let mut truncated = base.clone();
        truncated.truncated = true;
        assert_ne!(base.fingerprint(), truncated.fingerprint());
        let mut constrained = base.clone();
        constrained.constraints.push(SymConstraint {
            value: SymVal::prim(PrimOp::Sub, vec![s(0), c(0.5)]),
            dir: CmpDir::LeZero,
        });
        assert_ne!(base.fingerprint(), constrained.fingerprint());
        let mut flipped = constrained.clone();
        flipped.constraints[0].dir = CmpDir::GtZero;
        assert_ne!(constrained.fingerprint(), flipped.fingerprint());
        let mut tailed = base.clone();
        tailed.tail = Some(TailEnclosure {
            unfoldings_explored: 3,
            per_step_weight: Interval::new(0.0, 0.5),
            continuation_weight: Interval::new(0.0, 1.0),
            prefix: None,
        });
        assert_ne!(base.fingerprint(), tailed.fingerprint());
        let mut deeper = tailed.clone();
        deeper.tail.as_mut().unwrap().unfoldings_explored = 4;
        assert_ne!(tailed.fingerprint(), deeper.fingerprint());
        // The eventually-geometric component must separate too — the
        // memo cache keys bound substitutions on it.
        let mut ranked = tailed.clone();
        ranked.tail.as_mut().unwrap().prefix = Some(TailPrefix { prefix_bound: 0 });
        assert_ne!(tailed.fingerprint(), ranked.fingerprint());
        let mut longer = ranked.clone();
        longer
            .tail
            .as_mut()
            .unwrap()
            .prefix
            .as_mut()
            .unwrap()
            .prefix_bound = 7;
        assert_ne!(ranked.fingerprint(), longer.fingerprint());
    }
}
