//! The abstract interpreter and its result table, [`ProgramFacts`].
//!
//! One environment-based pass over the program in the interval domain,
//! mirroring the symbolic executor's shape (call-by-value, both branches
//! of an undecidable `if`, `approxFix` via the weight-aware interval
//! types) but with *intervals* in place of symbolic values. Every
//! evaluation of a node joins into a per-[`NodeId`] table, so the facts
//! cover all runtime environments the executor can reach:
//!
//! * **value facts** — an interval enclosing every value the subterm can
//!   evaluate to (exactly the `eval_interval` primitives the path-bound
//!   kernel trusts);
//! * **weight facts** — per `score` node, an enclosure of the scored
//!   value: can this weight ever be 0, is it bounded above;
//! * **branch flow** — which sides of each `if` were statically
//!   possible;
//! * **contraction facts** — per `μ` node, the weight a full application
//!   chain multiplies in (off the interval types), the estimate for
//!   whether budget truncation can dominate the bounds.
//!
//! # Soundness under recursion
//!
//! A fixpoint is unfolded `MAX_FIX_UNFOLDINGS` times;
//! when the budget runs out the call returns the `approxFix` interval
//! from the typing *and* the body is re-evaluated once in a **widened**
//! environment (parameter bound to its interval *type*, recursive calls
//! answered by the typing directly). The widened pass makes the
//! per-node joins cover every deeper unfolding, so value facts stay
//! conservative inside `μ`-bodies too. If the interpreter ever has to
//! abort (depth or fuel exhausted — not reachable for any model in this
//! repository), all interpreter-derived tables are dropped and only the
//! syntactic and typing-derived facts remain: consumers degrade to "no
//! information", never to wrong information.
//!
//! # The pruning contract
//!
//! [`ProgramFacts::score_is_zero`] and [`ProgramFacts::dead_branch_cost`]
//! are the two facts the executor may act on, and both are deliberately
//! much stronger than "statically zero". A score node qualifies only if
//! its argument is built from constants and primitives alone (no
//! variables, no samples): the symbolic value the executor pushes for it
//! is then the *same* constant computation, so its range over **any**
//! box is exactly `[0, 0]` and the path's contribution to both the lower
//! and the upper bound is exactly `0.0` — dropping it keeps every bound
//! bit-identical. A branch qualifies as dead only if it must execute
//! such a score and contains no `if` and no application, so the only
//! ways it could end *before* scoring are fuel or stack exhaustion —
//! which the executor rules out at prune time via the recorded
//! evaluation cost.

use std::collections::{HashMap, HashSet};

use gubpi_interval::Interval;
use gubpi_lang::{Env, Expr, ExprKind, Name, NodeId, PrimOp, Program, Span};
use gubpi_types::{ITy, IntervalTyping};

use crate::ranking::{self, RankVerdict, RankedTail};

/// Fixpoint unfoldings before the typing-based approximation (plus
/// one widened pass) takes over. Small values lose little: the
/// widened pass covers the tail.
const MAX_FIX_UNFOLDINGS: u32 = 3;

/// Recursion guard for the interpreter's own stack.
const MAX_DEPTH: u32 = 400;

/// Step budget; exhausting it aborts the interpretation (see the
/// module docs — aborted runs keep only syntactic facts).
const FUEL: u64 = 2_000_000;

/// Which sides of an `if` the abstract interpreter saw taken.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchFlow {
    /// The `≤ 0` side was statically possible.
    pub then_taken: bool,
    /// The `> 0` side was statically possible.
    pub else_taken: bool,
}

/// Per `μ` node: the ingredients of a geometric tail enclosure for
/// budget-truncated explorations of this recursion (see
/// `gubpi_core::pathbounds`).
///
/// `per_step` bounds the *continue mass* of one unfolding — the
/// expectation, over the fresh samples one body traversal draws, of the
/// accumulated score factors restricted to executions that reach the
/// recursive call. `continuation` bounds the product of every score
/// factor evaluated *outside* the body (each many-shot site is required
/// to stay ≤ 1 and contributes 1; each once-shot site contributes its
/// static high endpoint).
///
/// The fact is only recorded when the remainder of a truncated
/// exploration is provably dominated by the geometric series these two
/// intervals define: a single recursive call per body execution path,
/// every in-body score factor ≤ 1, and a finite continuation product.
/// A recorded fact with `per_step.hi() ≥ 1` is still useful census data
/// ("this loop makes no provable progress"), but consumers must then
/// fall back to the trivial ⊤ contribution — never divide by
/// `1 − per_step.hi()` at or past the boundary.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TailFact {
    /// Upper enclosure of the one-unfolding continue mass `c`.
    pub per_step: Interval,
    /// Upper enclosure of the out-of-body score product `x` (≥ 1).
    pub continuation: Interval,
    /// Eventually-geometric certificate synthesized by the ranking pass
    /// (see [`crate::ranking`]) — the consumer's rescue when
    /// `per_step.hi() ≥ 1` blocks the plain geometric series.
    pub ranked: Option<RankedTail>,
}

/// A `let`-bound variable that is never used although its definition
/// draws samples (the draw still counts towards the trace, so this is
/// usually a modelling mistake).
#[derive(Clone, Debug)]
pub struct UnusedSample {
    /// The binder name.
    pub name: Name,
    /// Source location of the binding application.
    pub span: Span,
}

/// Static facts about one program, produced by [`ProgramFacts::compute`].
#[derive(Clone, Debug, Default)]
pub struct ProgramFacts {
    values: HashMap<NodeId, Interval>,
    score_args: HashMap<NodeId, Interval>,
    flows: HashMap<NodeId, BranchFlow>,
    evaluated: HashSet<NodeId>,
    zero_scores: HashSet<NodeId>,
    dead_branches: HashMap<NodeId, u64>,
    contraction: HashMap<NodeId, Interval>,
    fix_values: HashMap<NodeId, Interval>,
    tail_facts: HashMap<NodeId, TailFact>,
    ranking: HashMap<NodeId, RankVerdict>,
    unused_samples: Vec<UnusedSample>,
    aborted: bool,
}

impl ProgramFacts {
    /// Runs the abstract interpreter.
    pub fn compute(program: &Program, typing: &IntervalTyping) -> ProgramFacts {
        let mut interp = Interp {
            typing,
            facts: ProgramFacts::default(),
            widened: HashSet::new(),
            fuel: FUEL,
            aborted: false,
        };
        interp.eval(&program.root, &Env::empty(), MAX_FIX_UNFOLDINGS, 0);
        let mut facts = interp.facts;
        if interp.aborted {
            // Partial joins under-approximate; keep nothing the
            // interpreter produced.
            facts.values.clear();
            facts.score_args.clear();
            facts.flows.clear();
            facts.evaluated.clear();
            facts.aborted = true;
        }
        facts.finish(program, typing);
        facts
    }

    /// Joined post-pass: derive the executor-facing facts and the
    /// syntactic lint inputs from the raw evaluation tables.
    fn finish(&mut self, program: &Program, typing: &IntervalTyping) {
        program.root.walk(&mut |e| match &e.kind {
            ExprKind::Score(arg)
                if self.score_args.get(&e.id) == Some(&Interval::ZERO)
                    && substitution_stable(arg) =>
            {
                self.zero_scores.insert(e.id);
            }
            ExprKind::Fix(..) => {
                if let Some((_, value, weight)) = typing.fix_apply_chain(e.id) {
                    self.contraction.insert(e.id, weight);
                    self.fix_values.insert(e.id, value);
                }
            }
            ExprKind::App(f, arg) => {
                if let ExprKind::Lam(x, body) = &f.kind {
                    if !x.starts_with('$') && contains_sample(arg) && !body.free_vars().contains(x)
                    {
                        self.unused_samples.push(UnusedSample {
                            name: x.clone(),
                            span: e.span,
                        });
                    }
                }
            }
            _ => {}
        });
        // Tail facts per μ node (needs the score-weight table).
        let mut tails = Vec::new();
        program.root.walk(&mut |e| {
            if let ExprKind::Fix(fname, _, body) = &e.kind {
                if let Some(tf) = self.tail_fact_for(program, fname, body) {
                    tails.push((e.id, tf));
                }
            }
        });
        self.tail_facts.extend(tails);
        // Ranking verdicts per μ node (needs the tail facts above);
        // successful syntheses ride on the fact the consumers read.
        let mut verdicts = Vec::new();
        program.root.walk(&mut |e| {
            if let ExprKind::Fix(fname, param, body) = &e.kind {
                let v = ranking::assess_fix(program, typing, self, e, fname, param, body);
                verdicts.push((e.id, v));
            }
        });
        for (id, v) in verdicts {
            if let RankVerdict::Synthesized { ranked, .. } = &v {
                if let Some(tf) = self.tail_facts.get_mut(&id) {
                    tf.ranked = Some(*ranked);
                }
            }
            self.ranking.insert(id, v);
        }
        // Dead branches need the zero-score set, so a second walk.
        let mut dead = Vec::new();
        program.root.walk(&mut |e| {
            if let ExprKind::If(_, t, els) = &e.kind {
                for side in [t, els] {
                    if branch_is_inert(side) && self.must_score_zero(side) {
                        dead.push((side.id, side.size() as u64));
                    }
                }
            }
        });
        self.dead_branches.extend(dead);
    }

    /// Derives the [`TailFact`] for one `μ` node, or `None` when the
    /// geometric-remainder argument does not apply (see [`TailFact`]).
    fn tail_fact_for(&self, program: &Program, fname: &Name, body: &Expr) -> Option<TailFact> {
        // Every score the body can execute must have a known static
        // weight enclosure with high endpoint ≤ 1, so any number of
        // body traversals multiplies the weight by at most 1.
        let mut scores_ok = true;
        body.walk(&mut |s| {
            if matches!(s.kind, ExprKind::Score(_)) {
                match self.score_weight(s.id) {
                    Some(w) if w.hi() <= 1.0 => {}
                    _ => scores_ok = false,
                }
            }
        });
        if !scores_ok {
            return None;
        }
        let c = self.continue_mass(body, fname)?;
        if !c.is_finite() || c < 0.0 {
            return None;
        }
        let x = self.continuation_factor(program, body.id)?;
        Some(TailFact {
            per_step: Interval::new(0.0, c),
            continuation: Interval::new(0.0, x),
            ranked: None, // the ranking pass fills this in afterwards
        })
    }

    /// Upper bound on the *continue mass* of one body traversal: the
    /// expectation over the traversal's fresh samples of the score
    /// factors accumulated on executions that reach the recursive call.
    /// `None` when no finite bound applies — a bare `fname` escaping
    /// into a value, more than one call on a single execution path, or
    /// a call inside a guard or score argument.
    pub(crate) fn continue_mass(&self, e: &Expr, fname: &Name) -> Option<f64> {
        let mentions = |e: &Expr| e.free_vars().contains(fname);
        if !mentions(e) {
            return Some(0.0);
        }
        match &e.kind {
            ExprKind::If(c, t, els) => {
                if mentions(c) {
                    return None;
                }
                let ct = self.continue_mass(t, fname)?;
                let ce = self.continue_mass(els, fname)?;
                // A fresh-coin guard splits the mass by the coin's
                // probabilities; any other guard may deterministically
                // select either side, so only the max is sound.
                Some(match coin_probs(c) {
                    Some((pt, pe)) => pt * ct + pe * ce,
                    None => ct.max(ce),
                })
            }
            ExprKind::App(f, a) => {
                if let ExprKind::Lam(_, lam_body) = &f.kind {
                    // `let`-style sequencing: `a` runs first, then the
                    // body exactly once. Score factors accumulated in
                    // `a` scale the mass that continues into the body.
                    if mentions(a) && mentions(lam_body) {
                        return None;
                    }
                    let ca = self.continue_mass(a, fname)?;
                    let cb = self.continue_mass(lam_body, fname)?;
                    Some(ca + self.path_weight_hi(a) * cb)
                } else if let Some(args) = call_of(e, fname) {
                    // The recursive call itself. Weight accumulated in
                    // the arguments is ≤ 1 (in-body scores are ≤ 1).
                    if args.iter().any(|arg| mentions(arg)) {
                        return None;
                    }
                    Some(1.0)
                } else {
                    if mentions(f) && mentions(a) {
                        return None;
                    }
                    Some(self.continue_mass(f, fname)? + self.continue_mass(a, fname)?)
                }
            }
            ExprKind::Prim(_, args) => {
                if args.iter().filter(|a| mentions(a)).count() > 1 {
                    return None;
                }
                let mut sum = 0.0;
                for a in args {
                    sum += self.continue_mass(a, fname)?;
                }
                Some(sum)
            }
            // `fname` under a score, inside a λ/μ value, or as a bare
            // reference: the single-call geometry no longer holds.
            _ => None,
        }
    }

    /// Upper bound (≤ 1) on the score product along *any* execution
    /// path of the `fname`-free prefix `e` of a fix body. Score sites
    /// of closures invoked from `e` are not traversed — sound, because
    /// every in-body score factor is ≤ 1 and extra ≤ 1 factors only
    /// shrink the product.
    fn path_weight_hi(&self, e: &Expr) -> f64 {
        match &e.kind {
            ExprKind::Score(m) => {
                let w = self
                    .score_weight(e.id)
                    .map(|w| w.hi().clamp(0.0, 1.0))
                    .unwrap_or(1.0);
                self.path_weight_hi(m) * w
            }
            ExprKind::If(c, t, els) => {
                self.path_weight_hi(c) * self.path_weight_hi(t).max(self.path_weight_hi(els))
            }
            ExprKind::Prim(_, args) => args.iter().map(|a| self.path_weight_hi(a)).product(),
            ExprKind::App(f, a) => match &f.kind {
                ExprKind::Lam(_, b) => self.path_weight_hi(a) * self.path_weight_hi(b),
                _ => self.path_weight_hi(f) * self.path_weight_hi(a),
            },
            _ => 1.0,
        }
    }

    /// Upper bound on the product of every score factor evaluated
    /// outside the fix body rooted at `body_id`: many-shot sites must
    /// stay ≤ 1 (contributing 1), once-shot sites contribute their
    /// static high endpoint. `None` when a site has no usable bound —
    /// the sequential-composition widening of the tail enclosure.
    pub(crate) fn continuation_factor(&self, program: &Program, body_id: NodeId) -> Option<f64> {
        fn go(
            facts: &ProgramFacts,
            e: &Expr,
            body_id: NodeId,
            many: bool,
            x: &mut f64,
            ok: &mut bool,
        ) {
            if !*ok || e.id == body_id {
                return;
            }
            match &e.kind {
                ExprKind::Score(m) => {
                    match facts.score_weight(e.id) {
                        Some(w) if w.hi() <= 1.0 => {}
                        Some(w) if !many && w.hi().is_finite() => *x *= w.hi().max(1.0),
                        _ => {
                            *ok = false;
                            return;
                        }
                    }
                    go(facts, m, body_id, many, x, ok);
                }
                // λ/μ bodies may run any number of times — except a
                // `let`-style λ applied on the spot, which runs once.
                ExprKind::Lam(_, b) | ExprKind::Fix(_, _, b) => go(facts, b, body_id, true, x, ok),
                ExprKind::App(f, a) => {
                    if let ExprKind::Lam(_, b) = &f.kind {
                        go(facts, a, body_id, many, x, ok);
                        go(facts, b, body_id, many, x, ok);
                    } else {
                        go(facts, f, body_id, many, x, ok);
                        go(facts, a, body_id, many, x, ok);
                    }
                }
                ExprKind::If(c, t, els) => {
                    go(facts, c, body_id, many, x, ok);
                    go(facts, t, body_id, many, x, ok);
                    go(facts, els, body_id, many, x, ok);
                }
                ExprKind::Prim(_, args) => {
                    for a in args {
                        go(facts, a, body_id, many, x, ok);
                    }
                }
                ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Sample => {}
            }
        }
        let mut x = 1.0;
        let mut ok = true;
        go(self, &program.root, body_id, false, &mut x, &mut ok);
        (ok && x.is_finite()).then_some(x)
    }

    /// Does evaluating `e` necessarily push a provably-zero score before
    /// doing anything that could fork or truncate? (`e` is known inert.)
    fn must_score_zero(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Score(m) => self.zero_scores.contains(&e.id) || self.must_score_zero(m),
            ExprKind::Prim(_, args) => args.iter().any(|a| self.must_score_zero(a)),
            _ => false,
        }
    }

    /// The interval enclosing every value this node can evaluate to
    /// (absent for unevaluated nodes and non-numeric results).
    pub fn value(&self, id: NodeId) -> Option<Interval> {
        self.values.get(&id).copied()
    }

    /// Per `score` node: the enclosure of the scored value (the factor
    /// this node multiplies into the path weight).
    pub fn score_weight(&self, id: NodeId) -> Option<Interval> {
        self.score_args.get(&id).copied()
    }

    /// True when this `score` node provably multiplies the weight by an
    /// exact 0 on every run — substitution-stable, so the executor may
    /// drop the path without perturbing any bound (see module docs).
    pub fn score_is_zero(&self, id: NodeId) -> bool {
        self.zero_scores.contains(&id)
    }

    /// For a branch root of an `if`: `Some(cost)` when the branch is
    /// provably zero-mass and inert, with `cost` an upper bound on the
    /// fuel and stack depth its evaluation could consume. The executor
    /// may skip the branch whenever its remaining fuel and depth exceed
    /// `cost` (otherwise the unpruned run could have truncated *inside*
    /// the branch before scoring, producing a ⊤ path with real mass).
    pub fn dead_branch_cost(&self, id: NodeId) -> Option<u64> {
        self.dead_branches.get(&id).copied()
    }

    /// Which sides of an evaluated `if` were statically possible.
    pub fn branch_flow(&self, id: NodeId) -> Option<BranchFlow> {
        self.flows.get(&id).copied()
    }

    /// Per `μ` node: the weight a full application chain multiplies in
    /// (`[e,f]` of §6.2). A high endpoint `≥ 1` means unfolding makes no
    /// provable progress in weight — budget truncation risk.
    pub fn contraction(&self, id: NodeId) -> Option<Interval> {
        self.contraction.get(&id).copied()
    }

    /// Per `μ` node: the value interval of its ground result.
    pub fn fix_value(&self, id: NodeId) -> Option<Interval> {
        self.fix_values.get(&id).copied()
    }

    /// Per `μ` node: the geometric tail-enclosure ingredients for
    /// budget-truncated explorations of this recursion, when the
    /// single-call/bounded-score structure admits them (see
    /// [`TailFact`]).
    pub fn tail_fact(&self, id: NodeId) -> Option<TailFact> {
        self.tail_facts.get(&id).copied()
    }

    /// Number of `μ` nodes with a recorded tail fact.
    pub fn tail_fact_count(&self) -> usize {
        self.tail_facts.len()
    }

    /// Per `μ` node: the ranking pass verdict — plain geometric,
    /// synthesized eventually-geometric, or a failure with a
    /// human-readable reason (see [`crate::ranking`]).
    pub fn ranking_verdict(&self, id: NodeId) -> Option<&RankVerdict> {
        self.ranking.get(&id)
    }

    /// Number of `μ` nodes whose tail fact carries a synthesized
    /// eventually-geometric certificate.
    pub fn ranked_tail_count(&self) -> usize {
        self.tail_facts
            .values()
            .filter(|t| t.ranked.is_some())
            .count()
    }

    /// Did the abstract interpreter reach this node at least once?
    pub fn was_evaluated(&self, id: NodeId) -> bool {
        self.evaluated.contains(&id)
    }

    /// Unused `let`-bindings whose definitions draw samples.
    pub fn unused_samples(&self) -> &[UnusedSample] {
        &self.unused_samples
    }

    /// Number of provably-zero score nodes.
    pub fn zero_score_count(&self) -> usize {
        self.zero_scores.len()
    }

    /// Number of provably-dead branch roots.
    pub fn dead_branch_count(&self) -> usize {
        self.dead_branches.len()
    }

    /// True when the interpreter aborted and only syntactic facts
    /// remain (never the case for this repository's models).
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }
}

/// Fresh-coin guard probabilities: for guards of the shapes the parser
/// emits for comparisons against a constant on a *fresh* uniform sample
/// (`sample − k`, `k − sample`, bare `sample`), the exact probability
/// of the `≤ 0` and `> 0` sides. Boundary atoms have measure zero
/// under the uniform draw, so the two sides partition the mass.
fn coin_probs(guard: &Expr) -> Option<(f64, f64)> {
    let p_then = match &guard.kind {
        ExprKind::Sample => 0.0,
        ExprKind::Prim(PrimOp::Sub, args) if args.len() == 2 => {
            match (&args[0].kind, &args[1].kind) {
                (ExprKind::Sample, ExprKind::Const(k)) if k.is_finite() => k.clamp(0.0, 1.0),
                (ExprKind::Const(k), ExprKind::Sample) if k.is_finite() => 1.0 - k.clamp(0.0, 1.0),
                _ => return None,
            }
        }
        _ => return None,
    };
    Some((p_then, 1.0 - p_then))
}

/// When `e` is an application chain headed by `Var(fname)`, the
/// argument expressions of the chain.
pub(crate) fn call_of<'a>(e: &'a Expr, fname: &Name) -> Option<Vec<&'a Expr>> {
    let mut args = Vec::new();
    let mut cur = e;
    loop {
        match &cur.kind {
            ExprKind::App(f, a) => {
                args.push(&**a);
                cur = f;
            }
            ExprKind::Var(x) if x == fname => return Some(args),
            _ => return None,
        }
    }
}

/// Only constants and primitives: the symbolic value the executor builds
/// for such a term repeats the identical constant computation, so its
/// interval over any box equals the static interval bit-for-bit.
fn substitution_stable(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Const(_) => true,
        ExprKind::Prim(_, args) => args.iter().all(substitution_stable),
        _ => false,
    }
}

/// No `if` and no application anywhere in the evaluated spine: the
/// executor can neither fork nor enter a function body here, so
/// evaluation runs straight through (λ/μ values are inert — their bodies
/// only run when applied, and applications are excluded).
fn branch_is_inert(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::If(..) | ExprKind::App(..) => false,
        ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Sample => true,
        ExprKind::Lam(..) | ExprKind::Fix(..) => true,
        ExprKind::Prim(_, args) => args.iter().all(branch_is_inert),
        ExprKind::Score(m) => branch_is_inert(m),
    }
}

/// Does the evaluated spine of `e` draw samples?
fn contains_sample(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Sample => true,
        ExprKind::Var(_) | ExprKind::Const(_) => false,
        // Inert values: their bodies do not run here.
        ExprKind::Lam(..) | ExprKind::Fix(..) => false,
        ExprKind::App(f, a) => contains_sample(f) || contains_sample(a),
        ExprKind::If(c, t, els) => contains_sample(c) || contains_sample(t) || contains_sample(els),
        ExprKind::Prim(_, args) => args.iter().any(contains_sample),
        ExprKind::Score(m) => contains_sample(m),
    }
}

/// Abstract runtime values.
#[derive(Clone)]
enum AbsVal<'a> {
    Num(Interval),
    Closure {
        param: &'a Name,
        body: &'a Expr,
        env: Env<&'a str, AbsVal<'a>>,
    },
    Fix {
        node: NodeId,
        fname: &'a Name,
        param: &'a Name,
        body: &'a Expr,
        env: Env<&'a str, AbsVal<'a>>,
    },
    /// A curried `approxFix` stub still absorbing arguments.
    ApproxFun {
        remaining: u32,
        value: Interval,
    },
    /// An exhausted fixpoint inside its own widened pass: applications
    /// answer with the typing approximation and never re-enter the body.
    FixStub {
        node: NodeId,
    },
    /// No information (also: any non-representable join).
    Top,
}

/// Join in the abstract domain; anything without a representable join
/// collapses to `Top` (sound: consumers treat `Top` as "no fact").
fn join<'a>(a: AbsVal<'a>, b: AbsVal<'a>) -> AbsVal<'a> {
    use AbsVal::*;
    match (a, b) {
        (Num(x), Num(y)) => Num(x.join(y)),
        (
            ApproxFun {
                remaining: r1,
                value: v1,
            },
            ApproxFun {
                remaining: r2,
                value: v2,
            },
        ) if r1 == r2 => ApproxFun {
            remaining: r1,
            value: v1.join(v2),
        },
        (FixStub { node: n1 }, FixStub { node: n2 }) if n1 == n2 => FixStub { node: n1 },
        (
            Closure {
                param: p1,
                body: b1,
                env: e1,
            },
            Closure {
                param: _,
                body: b2,
                env: e2,
            },
        ) if b1.id == b2.id => match join_env(&e1, &e2) {
            Some(env) => Closure {
                param: p1,
                body: b1,
                env,
            },
            None => Top,
        },
        (
            Fix {
                node: n1,
                fname,
                param,
                body,
                env: e1,
            },
            Fix {
                node: n2, env: e2, ..
            },
        ) if n1 == n2 => match join_env(&e1, &e2) {
            Some(env) => Fix {
                node: n1,
                fname,
                param,
                body,
                env,
            },
            None => Top,
        },
        _ => Top,
    }
}

/// Pointwise join of two environments of identical shape (same names in
/// the same order — true for joins of the same closure body); a shared
/// tail is reused as is.
fn join_env<'a>(
    a: &Env<&'a str, AbsVal<'a>>,
    b: &Env<&'a str, AbsVal<'a>>,
) -> Option<Env<&'a str, AbsVal<'a>>> {
    if a.ptr_eq(b) {
        return Some(a.clone());
    }
    match (a.head(), b.head()) {
        (Some((x, xv, xs)), Some((y, yv, ys))) if x == y => {
            let rest = join_env(xs, ys)?;
            Some(rest.bind(*x, join(xv.clone(), yv.clone())))
        }
        _ => None,
    }
}

struct Interp<'a> {
    typing: &'a IntervalTyping,
    facts: ProgramFacts,
    /// Fix nodes whose widened pass already ran (once per node).
    widened: HashSet<NodeId>,
    fuel: u64,
    aborted: bool,
}

impl<'a> Interp<'a> {
    fn eval(
        &mut self,
        e: &'a Expr,
        env: &Env<&'a str, AbsVal<'a>>,
        unfold: u32,
        depth: u32,
    ) -> AbsVal<'a> {
        if self.aborted {
            return AbsVal::Top;
        }
        if depth >= MAX_DEPTH || self.fuel == 0 {
            self.aborted = true;
            return AbsVal::Top;
        }
        self.fuel -= 1;
        self.facts.evaluated.insert(e.id);
        let v = match &e.kind {
            ExprKind::Var(x) => env.lookup(x).cloned().unwrap_or(AbsVal::Top),
            ExprKind::Const(r) => AbsVal::Num(Interval::point(*r)),
            ExprKind::Sample => AbsVal::Num(Interval::UNIT),
            ExprKind::Lam(param, body) => AbsVal::Closure {
                param,
                body,
                env: env.clone(),
            },
            ExprKind::Fix(fname, param, body) => AbsVal::Fix {
                node: e.id,
                fname,
                param,
                body,
                env: env.clone(),
            },
            ExprKind::App(f, a) => {
                let fv = self.eval(f, env, unfold, depth + 1);
                let av = self.eval(a, env, unfold, depth + 1);
                self.apply(fv, av, unfold, depth + 1)
            }
            ExprKind::If(c, t, els) => {
                let guard = self.eval(c, env, unfold, depth + 1);
                let range = match &guard {
                    AbsVal::Num(i) => *i,
                    _ => Interval::REAL,
                };
                let (take_then, take_else) = if range.hi() <= 0.0 {
                    (true, false)
                } else if range.lo() > 0.0 {
                    (false, true)
                } else {
                    (true, true)
                };
                {
                    let flow = self.facts.flows.entry(e.id).or_default();
                    flow.then_taken |= take_then;
                    flow.else_taken |= take_else;
                }
                match (take_then, take_else) {
                    (true, false) => self.eval(t, env, unfold, depth + 1),
                    (false, true) => self.eval(els, env, unfold, depth + 1),
                    _ => {
                        let tv = self.eval(t, env, unfold, depth + 1);
                        let ev = self.eval(els, env, unfold, depth + 1);
                        join(tv, ev)
                    }
                }
            }
            ExprKind::Prim(op, args) => {
                let argv: Vec<Interval> = args
                    .iter()
                    .map(|a| match self.eval(a, env, unfold, depth + 1) {
                        AbsVal::Num(i) => i,
                        _ => Interval::REAL,
                    })
                    .collect();
                AbsVal::Num(op.eval_interval(&argv))
            }
            ExprKind::Score(m) => {
                let v = self.eval(m, env, unfold, depth + 1);
                let i = match &v {
                    AbsVal::Num(i) => *i,
                    _ => Interval::REAL,
                };
                self.facts
                    .score_args
                    .entry(e.id)
                    .and_modify(|old| *old = old.join(i))
                    .or_insert(i);
                v
            }
        };
        if let AbsVal::Num(i) = v {
            self.facts
                .values
                .entry(e.id)
                .and_modify(|old| *old = old.join(i))
                .or_insert(i);
        }
        v
    }

    fn apply(&mut self, f: AbsVal<'a>, a: AbsVal<'a>, unfold: u32, depth: u32) -> AbsVal<'a> {
        match f {
            AbsVal::Closure { param, body, env } => {
                let env2 = env.bind(param, a);
                self.eval(body, &env2, unfold, depth)
            }
            AbsVal::Fix {
                node,
                fname,
                param,
                body,
                env,
            } => {
                let approx = self.approx_fix(node);
                if unfold == 0 {
                    // Widened pass (once per μ node): re-run the body
                    // with the parameter at its interval *type* and
                    // recursive calls answered by the typing, so the
                    // per-node joins cover every deeper unfolding.
                    if self.widened.insert(node) {
                        let widened_arg = self.fix_param_bound(node);
                        let env2 = env
                            .bind(fname, AbsVal::FixStub { node })
                            .bind(param, widened_arg);
                        self.eval(body, &env2, 0, depth);
                    }
                    approx
                } else {
                    let rec = AbsVal::Fix {
                        node,
                        fname,
                        param,
                        body,
                        env: env.clone(),
                    };
                    let env2 = env.bind(fname, rec).bind(param, a);
                    let unfolded = self.eval(body, &env2, unfold - 1, depth);
                    join(approx, unfolded)
                }
            }
            AbsVal::ApproxFun { remaining, value } => {
                if remaining == 0 {
                    AbsVal::Num(value)
                } else {
                    AbsVal::ApproxFun {
                        remaining: remaining - 1,
                        value,
                    }
                }
            }
            AbsVal::FixStub { node } => self.approx_fix(node),
            AbsVal::Num(_) | AbsVal::Top => AbsVal::Top,
        }
    }

    /// The typing-based result of applying an exhausted fixpoint
    /// (mirrors the executor's `approxFix`, including currying).
    fn approx_fix(&self, node: NodeId) -> AbsVal<'a> {
        match self.typing.fix_apply_chain(node) {
            Some((0, value, _)) => AbsVal::Num(value),
            Some((extra, value, _)) => AbsVal::ApproxFun {
                remaining: extra - 1,
                value,
            },
            None => AbsVal::Top,
        }
    }

    /// The interval type of a fixpoint's parameter: a sound enclosure of
    /// every argument any unfolding can receive.
    fn fix_param_bound(&self, node: NodeId) -> AbsVal<'a> {
        match self.typing.wty(node) {
            Some(wty) => match &wty.ty {
                ITy::Fun(param, _) => match param.as_interval() {
                    Some(i) => AbsVal::Num(i),
                    None => AbsVal::Top,
                },
                ITy::Base(_) => AbsVal::Top,
            },
            None => AbsVal::Top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::{infer, parse};
    use gubpi_types::infer_interval_types;

    fn facts_for(src: &str) -> (Program, ProgramFacts) {
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        let facts = ProgramFacts::compute(&p, &typing);
        (p, facts)
    }

    fn node_of(p: &Program, pred: impl Fn(&Expr) -> bool) -> NodeId {
        let mut found = None;
        p.root.walk(&mut |e| {
            if found.is_none() && pred(e) {
                found = Some(e.id);
            }
        });
        found.expect("no matching node")
    }

    #[test]
    fn straight_line_values_are_exact() {
        let (p, facts) = facts_for("3 * sample + 1");
        assert!(!facts.is_aborted());
        assert_eq!(facts.value(p.root.id), Some(Interval::new(1.0, 4.0)));
    }

    #[test]
    fn fail_branches_are_provably_dead() {
        let (p, facts) = facts_for("if sample <= 0.5 then sample else fail");
        let score = node_of(&p, |e| matches!(e.kind, ExprKind::Score(_)));
        assert!(facts.score_is_zero(score));
        assert_eq!(facts.score_weight(score), Some(Interval::ZERO));
        // The whole else branch (the score node) is a dead branch root.
        assert_eq!(facts.dead_branch_cost(score), Some(2));
        assert_eq!(facts.dead_branch_count(), 1);
    }

    #[test]
    fn variable_scores_are_not_pruning_candidates() {
        // Statically zero, but the argument mentions a variable: the
        // lint may fire, the executor must not prune.
        let (p, facts) = facts_for("let x = 0 * sample in score(x); 1");
        let score = node_of(&p, |e| matches!(e.kind, ExprKind::Score(_)));
        assert_eq!(facts.score_weight(score), Some(Interval::ZERO));
        assert!(!facts.score_is_zero(score));
        assert_eq!(facts.dead_branch_count(), 0);
    }

    #[test]
    fn branch_flow_records_decided_and_open_guards() {
        let (p, facts) = facts_for(
            "let a = if 1 <= 0 then 7 else 8 in
             if sample - 0.5 <= 0 then a else a + 1",
        );
        let mut flows = Vec::new();
        p.root.walk(&mut |e| {
            if matches!(e.kind, ExprKind::If(..)) {
                flows.push(facts.branch_flow(e.id).unwrap());
            }
        });
        assert_eq!(flows.len(), 2);
        assert!(flows.contains(&BranchFlow {
            then_taken: false,
            else_taken: true,
        }));
        assert!(flows.contains(&BranchFlow {
            then_taken: true,
            else_taken: true,
        }));
    }

    #[test]
    fn widened_pass_keeps_fix_body_facts_sound() {
        // With an unfolding budget of 3 the naive joins would conclude
        // x ∈ [0, 3]; the widened pass must stretch the body facts to
        // the parameter's interval type instead.
        let (p, facts) =
            facts_for("let rec count x = if 10 - x <= 0 then x else count (x + 1) in count 0");
        let arg = node_of(&p, |e| {
            matches!(&e.kind, ExprKind::Prim(op, args) if *op == gubpi_lang::PrimOp::Add
                && matches!(args[0].kind, ExprKind::Var(_)))
        });
        let v = facts.value(arg).expect("body argument evaluated");
        assert!(
            v.hi() >= 11.0 || v.hi().is_infinite(),
            "runtime reaches count(10); fact was {v:?}"
        );
    }

    #[test]
    fn contraction_facts_come_from_the_typing() {
        let (p, facts) =
            facts_for("let rec walk x = if x <= 0 then 0 else walk (x - sample) in walk 1");
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        // No score inside the loop: weight [1,1], no contraction.
        assert_eq!(facts.contraction(fix), Some(Interval::ONE));
        assert!(facts.fix_value(fix).is_some());
    }

    #[test]
    fn tail_facts_cover_coin_guarded_loops() {
        // Plain geometric: continue with probability 1/2, no scores.
        let (p, facts) =
            facts_for("let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0");
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        let tf = facts.tail_fact(fix).expect("geo admits a tail fact");
        assert_eq!(tf.per_step, Interval::new(0.0, 0.5));
        assert_eq!(tf.continuation, Interval::new(0.0, 1.0));

        // Scored geometric: coin 1/2 times in-body score 1/2.
        let (p, facts) = facts_for(
            "let rec geo x = if sample <= 0.5 then x else (score(0.5); geo (x + 1)) in geo 0",
        );
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        let tf = facts.tail_fact(fix).expect("scored geo admits a tail fact");
        assert_eq!(tf.per_step, Interval::new(0.0, 0.25));

        // Flipped guard polarity: recurse on the `> 0` side with p 0.4.
        let (p, facts) = facts_for(
            "let rec go x = if sample <= 0.6 then x else go (x + sample uniform(0, 1)) in go 0",
        );
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        let tf = facts
            .tail_fact(fix)
            .expect("cav-example-7 admits a tail fact");
        assert!((tf.per_step.hi() - 0.4).abs() < 1e-12, "{tf:?}");
    }

    #[test]
    fn data_guarded_loops_sit_at_the_tail_boundary() {
        // The pedestrian shape: the recursion guard reads program state,
        // so no provable per-step decay — the fact is recorded at the
        // boundary (c = 1) and consumers must fall back to ⊤. The
        // out-of-loop observation is a once-shot site with hi > 1.
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
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        let tf = facts.tail_fact(fix).expect("structure qualifies");
        assert_eq!(tf.per_step.hi(), 1.0, "no provable decay");
        assert!(tf.continuation.hi() > 1.0, "observe factor: {tf:?}");
        assert!(tf.continuation.hi().is_finite());
        // The ranking pass rescues the c = 1 boundary: the escape-mass
        // certificate rides on the fact (details in `ranking::tests`).
        let ranked = tf
            .ranked
            .expect("pedestrian gets a synthesized certificate");
        assert_eq!(ranked.prefix_bound, 0);
        assert_eq!(facts.ranked_tail_count(), 1);
        assert!(matches!(
            facts.ranking_verdict(fix),
            Some(RankVerdict::Synthesized { .. })
        ));
    }

    #[test]
    fn unbounded_scores_and_tree_recursion_get_no_tail_fact() {
        // An observation *inside* the loop multiplies a factor > 1 per
        // traversal — the geometric argument needs in-body scores ≤ 1.
        let (p, facts) = facts_for(
            "let rec walk x =
               if x <= 0 then 0 else
                 (observe x from normal(1.1, 0.1); walk (x - sample))
             in walk 1",
        );
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        assert_eq!(facts.tail_fact(fix), None);

        // Two recursive calls on one execution path: not geometric.
        let (p, facts) =
            facts_for("let rec t x = if sample <= 0.5 then x else t (x + 1) + t (x + 2) in t 0");
        let fix = node_of(&p, |e| matches!(e.kind, ExprKind::Fix(..)));
        assert_eq!(facts.tail_fact(fix), None);
        assert_eq!(facts.tail_fact_count(), 0);
    }

    #[test]
    fn unused_sampling_bindings_are_reported() {
        let (_, facts) = facts_for("let waste = sample in 2");
        assert_eq!(facts.unused_samples().len(), 1);
        assert_eq!(&*facts.unused_samples()[0].name, "waste");
        // Internal sequencing binders are exempt.
        let (_, clean) = facts_for("observe sample from normal(0.5, 1); 2");
        assert!(clean.unused_samples().is_empty());
    }

    #[test]
    fn higher_order_programs_do_not_confuse_the_interpreter() {
        let (p, facts) = facts_for("let app f x = f x in app (fn y -> y + sample) 1");
        assert_eq!(facts.value(p.root.id), Some(Interval::new(1.0, 2.0)));
    }

    #[test]
    fn join_env_is_pointwise_on_one_shape_and_reuses_a_shared_tail() {
        let num = |lo, hi| AbsVal::Num(Interval::new(lo, hi));
        let tail = Env::empty().bind("a", num(0.0, 1.0));
        let x = tail.bind("b", num(1.0, 1.0));
        let y = tail.bind("b", num(3.0, 4.0));
        let joined = join_env(&x, &y).expect("one shape joins");
        let (name, v, rest) = joined.head().unwrap();
        assert_eq!(*name, "b");
        assert!(matches!(v, AbsVal::Num(i) if *i == Interval::new(1.0, 4.0)));
        assert!(rest.ptr_eq(&tail), "the shared tail is reused, not rebuilt");

        // Equal shapes on distinct lists join binding by binding.
        let other_tail = Env::empty().bind("a", num(2.0, 5.0));
        let joined = join_env(&x, &other_tail.bind("b", num(1.0, 1.0))).unwrap();
        let (_, _, rest) = joined.head().unwrap();
        assert!(matches!(rest.lookup("a"), Some(AbsVal::Num(i)) if *i == Interval::new(0.0, 5.0)));

        // Different shapes have no pointwise join, so closures over them
        // join to Top.
        assert!(join_env(&x, &tail).is_none());
        assert!(join_env(&x, &tail.bind("c", num(1.0, 1.0))).is_none());
        let p = parse("fn z -> z").unwrap();
        let ExprKind::Lam(param, body) = &p.root.kind else {
            unreachable!("a lambda parses to Lam")
        };
        let closure = |env| AbsVal::Closure { param, body, env };
        assert!(matches!(
            join(closure(x.clone()), closure(y)),
            AbsVal::Closure { .. }
        ));
        assert!(matches!(join(closure(x), closure(tail)), AbsVal::Top));
    }
}
