//! Ranking-function synthesis: eventually-geometric tail certificates
//! for data-guarded recursions.
//!
//! The plain geometric tail fact ([`TailFact`](crate::TailFact)) turns a
//! budget-⊤ path into a finite upper-bound contribution only when the
//! per-unfolding continue mass is provably below 1. Data-guarded loops —
//! the paper's pedestrian model is the flagship — sit exactly at the
//! `c = 1` boundary: the widened μ-body pass cannot contract a guard
//! that reads program state, so their ⊤ paths kept the bare `[0, ∞]`
//! placeholder. This pass recovers a finite enclosure for them by
//! reasoning about the *recursion argument* instead of the per-step
//! weight alone.
//!
//! For each `μ` node the pass
//!
//! 1. extracts the **argument transformer** — the per-unfolding map on
//!    the recursion parameter as an interval-affine form `x ↦ a·x + b`,
//!    joined over every recursive call site, with the existing
//!    [`ProgramFacts`] interval machinery supplying the non-parameter
//!    coefficients;
//! 2. normalizes the loop guard into a **descent problem** (`continue
//!    while x > θ`, mirroring ascent loops through `x ↦ −x`); and
//! 3. certifies one of two linear ranking templates by pure interval
//!    arithmetic (no external solver):
//!
//!    * **bounded prefix** — the transformer is non-expansive
//!      (`a ⊆ [0, 1]`) and strictly decreasing, so iterating the
//!      interval map from the parameter's typed entry bound drives the
//!      reachable set out of the continue region after a computable
//!      `k₀` unfoldings: the guard *must* fail within `k₀` steps;
//!    * **escape mass** — the single-call geometry of the plain tail
//!      fact (one recursive call per execution path, every in-body
//!      score factor ≤ 1) makes the suffix executions of a cut a
//!      sub-probability space, so the total weight of *terminating*
//!      continuations is at most 1 even when no per-step decay is
//!      provable. This is what rescues the pedestrian's symmetric
//!      random walk, whose survival mass decays only polynomially — no
//!      honest geometric rate exists, but the exit mass is still
//!      bounded.
//!
//! A successful synthesis is recorded as a [`RankedTail`] riding on the
//! plain fact; `gubpi_core::pathbounds` consumes it through the
//! two-phase closed form
//!
//! ```text
//! x_hi · (w_prefix + c_eff^{max(0, k₀ − k_explored)} / (1 − c_eff))
//! ```
//!
//! with the post-prefix rate `c_eff = 0` and prefix weight
//! `w_prefix = 1` that both templates certify. Failures keep a
//! human-readable reason, surfaced by the `no-tail-bound-recursion`
//! lint.

use std::fmt;

use gubpi_interval::{add_down, add_up, Interval};
use gubpi_lang::{Expr, ExprKind, Name, PrimOp, Program};
use gubpi_types::{ITy, IntervalTyping};

use crate::facts::{call_of, ProgramFacts};

/// Iteration cap for the bounded-prefix descent: a loop that needs more
/// unfoldings than this to provably exit gets no prefix certificate
/// (the two-phase formula would not benefit from a six-digit `k₀`
/// anyway — explored prefixes are budget-bounded far below it).
const MAX_PREFIX_ITERS: u32 = 4096;

/// An eventually-geometric tail certificate for one `μ` node: after at
/// most `prefix_bound` unfoldings the recursion's continue mass is 0,
/// and executions terminating *before* then carry total weight at most
/// 1 (the sub-probability exit mass). Both synthesis templates certify
/// exactly this, so the certificate carries only `k₀`.
///
/// The certified inequality consumed by `gubpi_core::pathbounds` for a
/// ⊤ path cut after `k` explored unfoldings is
///
/// ```text
/// E[suffix score] ≤ x_hi · (1 + 0^{max(0, k₀ − k)} / (1 − 0))
/// ```
///
/// with `x_hi` the plain fact's continuation factor.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RankedTail {
    /// `k₀`: unfoldings after which the decay phase provably starts
    /// (for the bounded-prefix template, the step by which the guard
    /// must have failed).
    pub prefix_bound: u32,
}

/// The interval-affine per-unfolding argument transformer `x ↦ a·x + b`,
/// joined over every recursive call site.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AffineMap {
    /// Multiplicative coefficient enclosure `a`.
    pub a: Interval,
    /// Additive offset enclosure `b`.
    pub b: Interval,
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x ↦ {:?}·x + {:?}", self.a, self.b)
    }
}

/// How a synthesis succeeded (the evidence behind a [`RankedTail`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum RankingEvidence {
    /// The descent iteration emptied the continue region after
    /// `prefix_bound` steps: the guard must fail within the prefix.
    BoundedPrefix {
        /// The certified argument transformer.
        transformer: AffineMap,
    },
    /// No provable prefix, but the single-call/unit-score structure
    /// bounds the terminating suffix mass by 1.
    EscapeMass {
        /// The extracted argument transformer (reported as evidence;
        /// the mass argument itself does not depend on it).
        transformer: AffineMap,
    },
}

/// Per-`μ` outcome of the ranking pass.
#[derive(Clone, Debug, PartialEq)]
pub enum RankVerdict {
    /// The plain tail fact already contracts (`per_step < 1`); the
    /// geometric series applies and no ranking argument is needed.
    Geometric {
        /// The plain fact's per-step continue mass (high endpoint).
        rate: f64,
    },
    /// An eventually-geometric certificate was synthesized.
    Synthesized {
        /// The emitted certificate (also attached to the tail fact).
        ranked: RankedTail,
        /// Which template certified it.
        evidence: RankingEvidence,
    },
    /// Neither a geometric nor an eventually-geometric fact holds.
    Failed {
        /// Human-readable synthesis-failure reason (lint / report text).
        reason: String,
    },
}

impl RankVerdict {
    /// Stable one-word label for reports (`synthesized` /
    /// `plain-geometric` / `none`).
    pub fn label(&self) -> &'static str {
        match self {
            RankVerdict::Geometric { .. } => "plain-geometric",
            RankVerdict::Synthesized { .. } => "synthesized",
            RankVerdict::Failed { .. } => "none",
        }
    }

    /// One-line human-readable description.
    pub fn describe(&self) -> String {
        match self {
            RankVerdict::Geometric { rate } => {
                format!("plain geometric tail (per-step continue mass ≤ {rate})")
            }
            RankVerdict::Synthesized { ranked, evidence } => match evidence {
                RankingEvidence::BoundedPrefix { transformer } => format!(
                    "eventually geometric: guard must fail within {} unfoldings \
                     (transformer {transformer}, prefix weight ≤ 1)",
                    ranked.prefix_bound
                ),
                RankingEvidence::EscapeMass { transformer } => format!(
                    "eventually geometric: terminating suffix mass ≤ 1 by the \
                     single-call escape-mass argument (transformer {transformer})"
                ),
            },
            RankVerdict::Failed { reason } => format!("no tail bound: {reason}"),
        }
    }
}

/// Runs the ranking assessment for one `μ` node. `facts` must already
/// hold the plain tail facts (the pass runs as the last step of
/// [`ProgramFacts::compute`]).
pub(crate) fn assess_fix(
    program: &Program,
    typing: &IntervalTyping,
    facts: &ProgramFacts,
    fix: &Expr,
    fname: &Name,
    param: &Name,
    body: &Expr,
) -> RankVerdict {
    let Some(plain) = facts.tail_fact(fix.id) else {
        return RankVerdict::Failed {
            reason: structural_failure_reason(program, facts, fname, body),
        };
    };
    if plain.per_step.hi() < 1.0 {
        return RankVerdict::Geometric {
            rate: plain.per_step.hi(),
        };
    }
    // The guard-shaped body: a top-level branch with exactly one
    // recursion-free side (the exit).
    let ExprKind::If(guard, then_b, else_b) = &body.kind else {
        return RankVerdict::Failed {
            reason: "the loop body is not guard-shaped (no top-level branch)".to_owned(),
        };
    };
    let then_recurses = mentions(then_b, fname);
    let else_recurses = mentions(else_b, fname);
    let (exit_side, continue_on_le) = match (then_recurses, else_recurses) {
        (false, true) => (then_b, false),
        (true, false) => (else_b, true),
        (true, true) => {
            return RankVerdict::Failed {
                reason: "both sides of the loop guard recurse — no recursion-free exit branch"
                    .to_owned(),
            }
        }
        (false, false) => {
            return RankVerdict::Failed {
                reason: "no recursive call under the top-level guard (the recursion happens \
                         in the guard itself or outside the branch)"
                    .to_owned(),
            }
        }
    };
    // The argument transformer, joined over all recursive call sites.
    let transformer = match extract_transformer(body, fname, param, facts) {
        Ok(t) => t,
        Err(reason) => return RankVerdict::Failed { reason },
    };
    // Template 1: bounded prefix via descent iteration.
    if let Some(prefix_bound) = bounded_prefix(
        typing,
        facts,
        fix,
        param,
        guard,
        continue_on_le,
        transformer,
    ) {
        return RankVerdict::Synthesized {
            ranked: RankedTail { prefix_bound },
            evidence: RankingEvidence::BoundedPrefix { transformer },
        };
    }
    // Template 2: escape mass. Soundness needs only the single-call /
    // unit-score structure already certified by the plain fact; the
    // reachability check keeps the verdict honest (an exit branch the
    // analysis proves dead would make the certificate vacuous).
    let exit_reachable = facts.branch_flow(body.id).is_none_or(|flow| {
        if exit_side.id == then_b.id {
            flow.then_taken
        } else {
            flow.else_taken
        }
    });
    if !exit_reachable {
        return RankVerdict::Failed {
            reason: "the loop's exit branch is statically unreachable".to_owned(),
        };
    }
    RankVerdict::Synthesized {
        ranked: RankedTail { prefix_bound: 0 },
        evidence: RankingEvidence::EscapeMass { transformer },
    }
}

/// Why a `μ` node has no plain tail fact — re-derives which of the
/// structural preconditions failed, in check order.
fn structural_failure_reason(
    program: &Program,
    facts: &ProgramFacts,
    fname: &Name,
    body: &Expr,
) -> String {
    let mut bad_score = false;
    body.walk(&mut |s| {
        if matches!(s.kind, ExprKind::Score(_)) {
            match facts.score_weight(s.id) {
                Some(w) if w.hi() <= 1.0 => {}
                _ => bad_score = true,
            }
        }
    });
    if bad_score {
        return "an in-body score factor is not provably ≤ 1, so repeated unfoldings \
                may amplify weight without bound"
            .to_owned();
    }
    match facts.continue_mass(body, fname) {
        None => "the recursion is not single-call: a body execution path may reach \
                 more than one recursive call (or the recursion name escapes into a \
                 guard, score, or value)"
            .to_owned(),
        Some(c) if !c.is_finite() || c < 0.0 => {
            format!("the per-unfolding continue mass has no usable bound ({c})")
        }
        Some(_) => match facts.continuation_factor(program, body.id) {
            None => "the out-of-body score product has no finite bound (a many-shot \
                     score site may exceed 1)"
                .to_owned(),
            Some(_) => {
                // All three sub-checks pass individually — the fact was
                // dropped for a combination the derivation rejects.
                "the geometric-remainder preconditions do not hold for this recursion".to_owned()
            }
        },
    }
}

fn mentions(e: &Expr, name: &Name) -> bool {
    e.free_vars().contains(name)
}

/// Extracts `x ↦ a·x + b` joined over every recursive call site in the
/// body, or a human-readable reason why that is not possible.
fn extract_transformer(
    body: &Expr,
    fname: &Name,
    param: &Name,
    facts: &ProgramFacts,
) -> Result<AffineMap, String> {
    let mut sites: Vec<&Expr> = Vec::new();
    collect_call_sites(body, fname, &mut sites);
    if sites.is_empty() {
        return Err("no saturated recursive call site found in the loop body".to_owned());
    }
    let mut joined: Option<AffineMap> = None;
    for call in &sites {
        let args = call_of(call, fname).expect("collect_call_sites only yields calls");
        let [arg] = args[..] else {
            return Err(format!(
                "the recursion takes {} arguments — only single-parameter \
                 recursions admit the affine transformer",
                args.len()
            ));
        };
        let Some((a, b)) = affine_in(arg, param, facts) else {
            return Err(format!(
                "the recursive argument `{}` is not interval-affine in the parameter `{param}`",
                gubpi_lang::pretty(arg)
            ));
        };
        joined = Some(match joined {
            None => AffineMap { a, b },
            Some(acc) => AffineMap {
                a: acc.a.join(a),
                b: acc.b.join(b),
            },
        });
    }
    Ok(joined.expect("at least one site"))
}

/// Collects every application chain headed by `Var(fname)` (outermost
/// chains only — the head variable of a chain is not itself a chain).
fn collect_call_sites<'a>(e: &'a Expr, fname: &Name, out: &mut Vec<&'a Expr>) {
    if call_of(e, fname).is_some() {
        out.push(e);
        // Arguments may contain further calls (rejected later by the
        // transformer extraction, but keep the walk complete); the
        // chain head itself is not a site.
        let mut cur = e;
        while let ExprKind::App(f, a) = &cur.kind {
            collect_call_sites(a, fname, out);
            cur = f;
        }
        return;
    }
    match &e.kind {
        ExprKind::App(f, a) => {
            collect_call_sites(f, fname, out);
            collect_call_sites(a, fname, out);
        }
        ExprKind::If(c, t, els) => {
            collect_call_sites(c, fname, out);
            collect_call_sites(t, fname, out);
            collect_call_sites(els, fname, out);
        }
        ExprKind::Prim(_, args) => {
            for a in args {
                collect_call_sites(a, fname, out);
            }
        }
        ExprKind::Score(m) => collect_call_sites(m, fname, out),
        ExprKind::Lam(_, b) | ExprKind::Fix(_, _, b) => collect_call_sites(b, fname, out),
        ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Sample => {}
    }
}

/// Interval sum with directed rounding on both endpoints: exact when
/// the endpoint sums are exact (so unit coefficients stay exactly 1),
/// one ulp outward only against an actual rounding. The raw `Interval`
/// `+` rounds to nearest, which is not sound to iterate.
fn add_out(x: Interval, y: Interval) -> Interval {
    let lo = add_down(x.lo(), y.lo());
    let hi = add_up(x.hi(), y.hi());
    if lo.is_nan() || hi.is_nan() {
        // `∞ − ∞` endpoints: fall back to the NaN-repairing sum.
        (x + y).outward()
    } else {
        Interval::new(lo, hi)
    }
}

/// The interval-affine form of `e` in `param`: `Some((a, b))` with
/// `e ⊆ a·param + b` pointwise, using the abstract interpreter's value
/// facts for every param-free subterm. `None` when `e` is not affine in
/// the parameter (or a param-free subterm has no recorded value).
fn affine_in(e: &Expr, param: &Name, facts: &ProgramFacts) -> Option<(Interval, Interval)> {
    if !mentions(e, param) {
        return facts.value(e.id).map(|v| (Interval::ZERO, v));
    }
    match &e.kind {
        ExprKind::Var(x) if **x == **param => Some((Interval::ONE, Interval::ZERO)),
        ExprKind::Prim(op, args) => match (op, &args[..]) {
            (PrimOp::Add, [l, r]) => {
                let (la, lb) = affine_in(l, param, facts)?;
                let (ra, rb) = affine_in(r, param, facts)?;
                Some((add_out(la, ra), add_out(lb, rb)))
            }
            (PrimOp::Sub, [l, r]) => {
                let (la, lb) = affine_in(l, param, facts)?;
                let (ra, rb) = affine_in(r, param, facts)?;
                Some((add_out(la, -ra), add_out(lb, -rb)))
            }
            (PrimOp::Neg, [m]) => {
                let (a, b) = affine_in(m, param, facts)?;
                Some((-a, -b))
            }
            (PrimOp::Mul, [l, r]) => {
                // One side must be param-free; scaling by its value
                // enclosure keeps the form affine. `outward` here is
                // coarser than the directed sums (a `1·x` coefficient
                // widens off 1), which only costs precision, never
                // soundness — countdown loops scale by ±1 via Add/Sub.
                let (dep, free) = if mentions(l, param) { (l, r) } else { (r, l) };
                if mentions(free, param) {
                    return None;
                }
                let k = facts.value(free.id)?;
                let (a, b) = affine_in(dep, param, facts)?;
                Some(((a * k).outward(), (b * k).outward()))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Template 1: certify that the loop guard must fail within `k₀`
/// unfoldings by iterating the transformer over the continue region,
/// starting from the parameter's typed entry enclosure. Returns the
/// certified `k₀`, or `None` when no bounded prefix is provable.
fn bounded_prefix(
    typing: &IntervalTyping,
    facts: &ProgramFacts,
    fix: &Expr,
    param: &Name,
    guard: &Expr,
    continue_on_le: bool,
    transformer: AffineMap,
) -> Option<u32> {
    // Guard as a unit-affine form `±x + β` (exact coefficient, so the
    // descent normalization below needs no directed rounding on `a`).
    let (ga, gb) = affine_in(guard, param, facts)?;
    let neg_one = Interval::point(-1.0);
    // Normalize to the descent orientation: continue region `[θ, ∞)`
    // on a variable `y` that the transformer maps as `y ↦ a·y + b`.
    // Ascent loops mirror through `y = −x` (exact negation).
    let (theta, a, b, entry) = if ga == Interval::ONE && !continue_on_le {
        // continue while x + β > 0  ⇒  x ∈ (−β_hi, ∞)
        (
            -gb.hi(),
            transformer.a,
            transformer.b,
            fix_param_interval(typing, fix)?,
        )
    } else if ga == Interval::ONE && continue_on_le {
        // continue while x + β ≤ 0  ⇒  x ∈ (−∞, −β_lo]: mirror.
        (
            gb.lo(),
            transformer.a,
            -transformer.b,
            -fix_param_interval(typing, fix)?,
        )
    } else if ga == neg_one && continue_on_le {
        // continue while β − x ≤ 0  ⇒  x ∈ [β_lo, ∞).
        (
            gb.lo(),
            transformer.a,
            transformer.b,
            fix_param_interval(typing, fix)?,
        )
    } else if ga == neg_one && !continue_on_le {
        // continue while β − x > 0  ⇒  x ∈ (−∞, β_hi): mirror.
        (
            -gb.hi(),
            transformer.a,
            -transformer.b,
            -fix_param_interval(typing, fix)?,
        )
    } else {
        return None; // not unit-affine in the parameter
    };
    if !theta.is_finite() || entry.hi().is_infinite() {
        return None;
    }
    // Non-expansive, strictly decreasing on the continue region: with
    // `a ⊆ [0, 1]` and `b_hi < 0` the reachable upper endpoint drops by
    // at least `−b_hi` per step while it stays ≥ max(θ, 0)… the
    // interval iteration below checks the actual descent, so only
    // non-expansiveness is required up front.
    if a.lo() < 0.0 || a.hi() > 1.0 {
        return None;
    }
    let region = Interval::new(theta, f64::INFINITY);
    let mut reach = entry;
    for k in 0..MAX_PREFIX_ITERS {
        let Some(cont) = reach.meet(region) else {
            return Some(k); // continue region provably empty: guard fails
        };
        // The exact-unit coefficient skips the multiply so decrement
        // loops iterate without per-step ulp drift.
        let scaled = if a == Interval::ONE {
            cont
        } else {
            (a * cont).outward()
        };
        let next = add_out(scaled, b);
        if next.hi() >= reach.hi() {
            return None; // no provable progress — bail out
        }
        reach = next;
    }
    None
}

/// The interval type of the fixpoint's parameter: a sound enclosure of
/// every argument any application of this recursion can receive
/// (mirrors the widened pass in [`ProgramFacts`]).
fn fix_param_interval(typing: &IntervalTyping, fix: &Expr) -> Option<Interval> {
    match &typing.wty(fix.id)?.ty {
        ITy::Fun(param, _) => param.as_interval(),
        ITy::Base(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::{infer, parse, NodeId};
    use gubpi_types::infer_interval_types;

    fn facts_for(src: &str) -> (Program, ProgramFacts) {
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        let facts = ProgramFacts::compute(&p, &typing);
        (p, facts)
    }

    fn fix_node(p: &Program) -> NodeId {
        let mut found = None;
        p.root.walk(&mut |e| {
            if found.is_none() && matches!(e.kind, ExprKind::Fix(..)) {
                found = Some(e.id);
            }
        });
        found.expect("program has a μ node")
    }

    #[test]
    fn contracting_loops_stay_plain_geometric() {
        let (p, facts) =
            facts_for("let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0");
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        assert!(
            matches!(v, RankVerdict::Geometric { rate } if *rate == 0.5),
            "{v:?}"
        );
        assert_eq!(v.label(), "plain-geometric");
    }

    #[test]
    fn countdown_loops_get_a_bounded_prefix_certificate() {
        let (p, facts) = facts_for(
            "let rec count x = if x <= 0 then 0 else count (x - 1) in count (2 + sample)",
        );
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        let RankVerdict::Synthesized { ranked, evidence } = v else {
            panic!("countdown must synthesize, got {v:?}");
        };
        assert!(
            matches!(evidence, RankingEvidence::BoundedPrefix { .. }),
            "{evidence:?}"
        );
        // Entry x ≤ 3, decrement exactly 1: exit within 3 true steps;
        // the interval iteration may over-approximate by a step or two.
        assert!(
            (3..=6).contains(&ranked.prefix_bound),
            "k₀ = {}",
            ranked.prefix_bound
        );
        // The certificate rides on the tail fact itself.
        assert_eq!(facts.tail_fact(fix_node(&p)).unwrap().ranked, Some(*ranked));
    }

    #[test]
    fn ascent_loops_mirror_into_the_same_certificate() {
        let (p, facts) =
            facts_for("let rec count x = if 10 - x <= 0 then x else count (x + 1) in count 0");
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        let RankVerdict::Synthesized { ranked, evidence } = v else {
            panic!("ascent countdown must synthesize, got {v:?}");
        };
        assert!(
            matches!(evidence, RankingEvidence::BoundedPrefix { .. }),
            "{evidence:?}"
        );
        assert!(
            (10..=13).contains(&ranked.prefix_bound),
            "k₀ = {}",
            ranked.prefix_bound
        );
    }

    #[test]
    fn the_pedestrian_walk_falls_back_to_escape_mass() {
        // Symmetric random walk: b = [−1, 1] makes no descent progress
        // and the param type is unbounded, so the bounded-prefix
        // template must fail — but the single-call structure still
        // bounds the terminating suffix mass by 1.
        let (p, facts) = facts_for(
            "let start = 3 * sample in
             let rec walk x =
               if x <= 0 then 0 else
                 let step = sample in
                 if sample <= 0.5 then step + walk (x + step)
                 else step + walk (x - step)
             in
             let d = walk start in
             observe d from normal(1.1, 0.1); start",
        );
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        let RankVerdict::Synthesized { ranked, evidence } = v else {
            panic!("pedestrian must synthesize, got {v:?}");
        };
        let RankingEvidence::EscapeMass { transformer } = evidence else {
            panic!("pedestrian has no bounded prefix, got {evidence:?}");
        };
        assert_eq!(transformer.a, Interval::ONE);
        assert_eq!(transformer.b, Interval::new(-1.0, 1.0));
        assert_eq!(ranked.prefix_bound, 0);
        assert!(facts.tail_fact(fix_node(&p)).unwrap().ranked.is_some());
    }

    #[test]
    fn structural_failures_carry_readable_reasons() {
        // Tree recursion: two calls on one execution path.
        let (p, facts) =
            facts_for("let rec t x = if sample <= 0.5 then x else t (x + 1) + t (x + 2) in t 0");
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        let RankVerdict::Failed { reason } = v else {
            panic!("tree recursion must fail, got {v:?}");
        };
        assert!(reason.contains("single-call"), "{reason}");

        // Unbounded in-body score.
        let (p, facts) = facts_for(
            "let rec walk x =
               if x <= 0 then 0 else
                 (observe x from normal(1.1, 0.1); walk (x - sample))
             in walk 1",
        );
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        let RankVerdict::Failed { reason } = v else {
            panic!("scored walk must fail, got {v:?}");
        };
        assert!(reason.contains("score factor"), "{reason}");
        assert_eq!(v.label(), "none");
    }

    #[test]
    fn non_affine_arguments_fail_with_the_transformer_reason() {
        // x² is not affine in x; the guard-shaped body still parses.
        let (p, facts) =
            facts_for("let rec f x = if x <= 0 then 0 else f (x * x - 2) in f (sample + 1)");
        let v = facts.ranking_verdict(fix_node(&p)).unwrap();
        let RankVerdict::Failed { reason } = v else {
            panic!("quadratic argument must fail, got {v:?}");
        };
        assert!(reason.contains("interval-affine"), "{reason}");
    }

    #[test]
    fn affine_extraction_handles_let_bound_samples() {
        let (p, facts) =
            facts_for("let rec f x = if x <= 0 then 0 else let s = sample in f (x - 2 * s) in f 1");
        let fix = fix_node(&p);
        let tf = facts.tail_fact(fix).expect("structure qualifies");
        assert!(
            tf.ranked.is_some(),
            "verdict: {:?}",
            facts.ranking_verdict(fix)
        );
    }

    #[test]
    fn verdict_descriptions_render() {
        let (p, facts) = facts_for(
            "let rec count x = if x <= 0 then 0 else count (x - 1) in count (2 + sample)",
        );
        let d = facts.ranking_verdict(fix_node(&p)).unwrap().describe();
        assert!(d.contains("guard must fail within"), "{d}");
    }
}
