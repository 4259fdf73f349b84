//! The symbolic executor (Fig. 8 + Algorithm 1's path accumulation).
//!
//! # Path order and the path cap
//!
//! Exploration is a tree walk on the calling thread whose only branch
//! points are `if` expressions with undecidable guards. Every branch
//! owns its [`PState`], and the two sides of a fork are evaluated and
//! concatenated in fixed (then-before-else) order, so the produced path
//! list is a pure function of the program and the options.
//!
//! The path cap [`SymExecOptions::max_paths`] is enforced by
//! **deterministic budget splitting**: each state carries a
//! `path_budget` (max leaves its subtree may produce) and every
//! uncertain branch divides the budget between its two sides *before*
//! any evaluation happens. A branch whose expression is syntactically
//! linear (no `if`, no application anywhere in its subtree) can produce
//! few leaves on its own, so it is assigned a small budget-proportional
//! reserve and the bulk of the budget follows the branchy side —
//! this keeps deep one-sided recursions (geometric, random walks) at
//! full depth while balanced recursion trees degrade exactly like a
//! global cap (a budget `B` supports `log₂ B` levels of halving). A
//! subtree whose budget reaches 1 at a fork is closed off by a single ⊤
//! path, which soundly covers both branches.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use gubpi_analysis::ProgramFacts;
use gubpi_interval::Interval;
use gubpi_lang::{Env, Expr, ExprKind, NodeId, Program};
use gubpi_pool::{CancelToken, WorkerPool};
use gubpi_types::IntervalTyping;

use crate::path::{CmpDir, SymConstraint, SymPath, TailEnclosure, TailPrefix};
use crate::symval::SymVal;

/// Options controlling symbolic exploration.
#[derive(Copy, Clone, Debug)]
pub struct SymExecOptions {
    /// The depth limit `D` of Algorithm 1: fixpoint unfoldings allowed
    /// per path before `approxFix` replaces further applications.
    pub max_fix_unfoldings: u32,
    /// Path budget: an upper bound on the number of paths, enforced by
    /// deterministic budget splitting at every uncertain branch (see the
    /// module docs). Subtrees whose budget is exhausted are closed off
    /// by ⊤ paths (sound but infinitely wide upper bounds).
    pub max_paths: usize,
    /// Evaluation fuel shared along each path.
    pub fuel: u64,
    /// Rust-stack recursion guard.
    pub max_depth: u32,
    /// Ignored: symbolic execution always runs on the calling thread.
    /// The field remains only because the benchmark harness under
    /// `perfbench/` still sets it; it goes when that harness calls the
    /// analyzer directly.
    pub frontier_workers: usize,
}

impl Default for SymExecOptions {
    fn default() -> SymExecOptions {
        SymExecOptions {
            max_fix_unfoldings: 16,
            max_paths: 20_000,
            fuel: 5_000_000,
            max_depth: 1_200,
            frontier_workers: 1,
        }
    }
}

/// Floor of the budget reserved for a syntactically linear branch (see
/// [`Executor::split_budget`]): enough for a little post-branch fan-out
/// in its continuation without starving the branchy side. Large budgets
/// reserve proportionally more (`b/32`), so a linear side whose
/// continuation is a whole second recursion is not starved.
const LINEAR_BRANCH_RESERVE: usize = 16;

/// What the executor did beyond producing paths: the zero-score drops
/// driven by static [`ProgramFacts`] and the ⊤-path truncation census.
///
/// Dropping never changes the posterior bounds — only which exactly-zero
/// terms are enumerated — so the drop count is the observable difference
/// between a pruned and an unpruned run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Paths dropped at a `score` whose argument is statically the
    /// constant `0`: every continuation leaf would contribute exactly
    /// `0.0` to both posterior bounds.
    pub zero_score_drops: usize,
    /// Finished paths that are ⊤ paths
    /// ([`SymPath::budget_truncated`]): subtrees the executor could not
    /// afford (path budget, fuel, or stack depth), as opposed to
    /// `approxFix` truncations which keep the path's own structure.
    pub budget_truncated_paths: usize,
    /// Finished paths truncated *only* by the `approxFix` unfolding
    /// depth ([`SymPath::truncated`] without
    /// [`SymPath::budget_truncated`]): their own structure survives and
    /// their weights stay finite via the typed replacement.
    pub depth_truncated_paths: usize,
    /// ⊤ paths that carry a [`TailEnclosure`](crate::TailEnclosure) —
    /// the cut fell inside a recursion with a recorded tail fact, so
    /// tail-aware bounding can replace the `[0, ∞]` placeholder by a
    /// finite geometric remainder (when `per_step < 1`).
    pub tail_enclosed_paths: usize,
    /// The subset of [`tail_enclosed_paths`](ExecReport::tail_enclosed_paths)
    /// whose enclosure carries an eventually-geometric prefix component
    /// from the ranking pass — usable even at the `per_step = 1`
    /// boundary. The three-way ⊤ census is therefore: ranked tails,
    /// plain tails (`tail_enclosed_paths − ranked_tail_paths`), and
    /// bare ⊤ (`budget_truncated_paths − tail_enclosed_paths`).
    pub ranked_tail_paths: usize,
}

/// Runs symbolic execution from `(P, 0, ∅, ∅)`, returning all finished
/// symbolic (interval) paths.
///
/// `typing` supplies the weight-aware interval types consumed by
/// `approxFix`; fixpoints without usable bounds degrade to ⊤
/// (`[−∞, ∞]`-valued, `[0, ∞]`-weighted) replacements.
pub fn symbolic_paths(
    program: &Program,
    typing: &IntervalTyping,
    opts: SymExecOptions,
) -> Vec<SymPath> {
    symbolic_paths_report_cancellable(
        program,
        typing,
        None,
        None,
        opts,
        WorkerPool::global(),
        None,
    )
    .0
}

/// Symbolic execution with optional static facts, a zero-score-drop /
/// truncation census and an optional cooperative [`CancelToken`]. It
/// runs on the calling thread; `_pool` is ignored and remains only
/// because the benchmark harness under `perfbench/` still passes it.
///
/// When `facts` is supplied (and not
/// [aborted](ProgramFacts::is_aborted)), the executor drops a path at
/// any `score` whose argument is statically the constant `0`
/// ([`ProgramFacts::score_is_zero`]). The score is still *pushed*
/// first, so every leaf of the dropped subtree carries an exactly-zero
/// weight factor and contributes exactly `0.0` to both posterior
/// bounds: a pruned run is bit-identical to a facts-free (unpruned) run,
/// just with fewer enumerated paths. A fork whose side fails at such a
/// score evaluates that side under its own budget share, and the share
/// is discarded with the dropped paths, never reallocated to the
/// sibling.
///
/// `tail_facts` is deliberately a *separate* parameter from the pruning
/// `facts`: when supplied, ⊤ paths cut inside a recursion with a
/// recorded [`TailFact`](gubpi_analysis::TailFact) carry a
/// [`TailEnclosure`](crate::TailEnclosure) as plain data. Attaching the
/// enclosure never changes a path's own denotation, so tail facts may
/// flow in even to unpruned runs without perturbing the pruning
/// bit-identity contract; whether the enclosure is *used* is decided by
/// the tail-aware bounding layer (`gubpi_core::pathbounds`).
///
/// Once `cancel` fires, every still-running branch closes off as a ⊤
/// path at its next checkpoint — the same sound "anything can happen
/// beyond this point" closure a budget or fuel exhaustion produces, so
/// the truncated path set still encloses the program's denotation
/// (just more coarsely). The checkpoint sits next to the fuel check:
/// the latched flag is read on every node and the deadline clock every
/// 1024 nodes, so expiry is observed promptly without a per-node
/// syscall. `None` never cancels.
pub fn symbolic_paths_report_cancellable(
    program: &Program,
    typing: &IntervalTyping,
    facts: Option<&ProgramFacts>,
    tail_facts: Option<&ProgramFacts>,
    opts: SymExecOptions,
    _pool: &WorkerPool,
    cancel: Option<&CancelToken>,
) -> (Vec<SymPath>, ExecReport) {
    let mut linear = HashMap::new();
    mark_linear(&program.root, &mut linear);
    let ex = Executor {
        typing,
        opts,
        // Aborted fact tables dropped their semantic entries, so they
        // never claim a score is zero or a branch dead — but gate here
        // too so the contract does not depend on that.
        facts: facts.filter(|f| !f.is_aborted()),
        tail_facts,
        linear,
        cancel,
        zero_score_drops: Cell::new(0),
    };
    let st = PState {
        n: 0,
        constraints: Vec::new(),
        scores: Vec::new(),
        unfoldings: opts.max_fix_unfoldings,
        truncated: false,
        fuel: opts.fuel,
        path_budget: opts.max_paths.max(1),
        active_fix: None,
    };
    let leaves = ex.eval(&program.root, &Env::empty(), st, 0);
    let paths: Vec<SymPath> = leaves
        .into_iter()
        .map(|(v, st)| match v {
            Some(SValue::Sym(result)) => SymPath {
                result,
                n_samples: st.n,
                constraints: st.constraints,
                scores: st.scores,
                truncated: st.truncated,
                budget_truncated: false,
                tail: None,
            },
            _ => ex.top_path(st),
        })
        .collect();
    let report = ExecReport {
        zero_score_drops: ex.zero_score_drops.get(),
        budget_truncated_paths: paths.iter().filter(|p| p.budget_truncated).count(),
        depth_truncated_paths: paths
            .iter()
            .filter(|p| p.truncated && !p.budget_truncated)
            .count(),
        tail_enclosed_paths: paths.iter().filter(|p| p.tail.is_some()).count(),
        ranked_tail_paths: paths
            .iter()
            .filter(|p| p.tail.is_some_and(|t| t.prefix.is_some()))
            .count(),
    };
    (paths, report)
}

/// Marks every node whose subtree is *syntactically linear*: free of
/// `if` and of application, hence guaranteed to evaluate to a single
/// branch. Used by the budget splitter; closures borrow their bodies
/// from the program, so one pre-pass covers all evaluated expressions.
fn mark_linear(e: &Expr, map: &mut HashMap<NodeId, bool>) -> bool {
    let linear = match &e.kind {
        ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Sample => true,
        // A λ/μ *value* is a single branch; its body only runs when
        // applied, and applications make the applying context branchy.
        ExprKind::Lam(_, body) | ExprKind::Fix(_, _, body) => {
            mark_linear(body, map);
            true
        }
        ExprKind::App(f, a) => {
            mark_linear(f, map);
            mark_linear(a, map);
            false
        }
        ExprKind::If(c, t, els) => {
            mark_linear(c, map);
            mark_linear(t, map);
            mark_linear(els, map);
            false
        }
        ExprKind::Prim(_, args) => {
            let mut all = true;
            for a in args {
                all &= mark_linear(a, map);
            }
            all
        }
        ExprKind::Score(m) => mark_linear(m, map),
    };
    map.insert(e.id, linear);
    linear
}

/// Symbolic runtime values. Closures borrow their bodies from the
/// program being executed.
#[derive(Clone)]
enum SValue<'a> {
    Sym(Arc<SymVal>),
    Closure {
        param: &'a str,
        body: &'a Expr,
        env: SEnv<'a>,
    },
    Fix {
        node: NodeId,
        fname: &'a str,
        param: &'a str,
        body: &'a Expr,
        env: SEnv<'a>,
    },
    /// A higher-order `approxFix` stub: behaves as
    /// `λ_…λ_. score([e,f]); [c,d]` with `remaining` parameters left.
    ApproxFun {
        remaining: u32,
        value: Interval,
        weight: Interval,
    },
}

/// The executor's environment: names borrowed from the program.
type SEnv<'a> = Env<&'a str, SValue<'a>>;

/// Per-path execution state.
#[derive(Clone)]
struct PState {
    n: usize,
    constraints: Vec<SymConstraint>,
    scores: Vec<Arc<SymVal>>,
    unfoldings: u32,
    truncated: bool,
    fuel: u64,
    /// Maximum number of leaves this state's subtree may produce.
    /// Divided deterministically at every uncertain branch; always ≥ 1.
    path_budget: usize,
    /// The most recently applied `μ` node and how many times this path
    /// has applied it — the truncation site a budget cut is attributed
    /// to when attaching a tail enclosure. Census-grade: it may point at
    /// an already-completed loop, which only mislabels the attribution
    /// (the enclosure itself bounds the whole remaining program).
    active_fix: Option<(NodeId, u32)>,
}

type Branches<'a> = Vec<(Option<SValue<'a>>, PState)>;

struct Executor<'a> {
    typing: &'a IntervalTyping,
    opts: SymExecOptions,
    /// Static pre-execution facts enabling zero-score drops; `None`
    /// reproduces the historical (unpruned) behaviour exactly.
    facts: Option<&'a ProgramFacts>,
    /// Facts consulted only for tail enclosures on ⊤ paths — kept apart
    /// from the prune gate so unpruned runs still attach tails.
    tail_facts: Option<&'a ProgramFacts>,
    /// `NodeId →` "subtree is syntactically linear" (see [`mark_linear`]).
    linear: HashMap<NodeId, bool>,
    /// Cooperative cancellation: once fired, branches close off as ⊤
    /// paths at their next evaluation checkpoint (sound truncation).
    cancel: Option<&'a CancelToken>,
    /// Paths dropped at a statically-zero `score`.
    zero_score_drops: Cell<usize>,
}

impl<'a> Executor<'a> {
    /// A sound "anything can happen beyond this point" path. When the
    /// cut fell inside a recursion with a recorded tail fact, the
    /// geometric-remainder enclosure rides along as data — substituted
    /// for the `[0, ∞]` placeholder only by tail-aware bounding.
    fn top_path(&self, st: PState) -> SymPath {
        let tail = st.active_fix.and_then(|(node, k)| {
            self.tail_facts
                .and_then(|f| f.tail_fact(node))
                .map(|tf| TailEnclosure {
                    unfoldings_explored: k,
                    per_step_weight: tf.per_step,
                    continuation_weight: tf.continuation,
                    prefix: tf.ranked.map(|r| TailPrefix {
                        prefix_bound: r.prefix_bound,
                    }),
                })
        });
        let mut scores = st.scores;
        scores.push(Arc::new(SymVal::Interval(Interval::NON_NEG)));
        SymPath {
            result: Arc::new(SymVal::Interval(Interval::REAL)),
            n_samples: st.n,
            constraints: st.constraints,
            scores,
            truncated: true,
            budget_truncated: true,
            tail,
        }
    }

    fn eval(&self, e: &'a Expr, env: &SEnv<'a>, st: PState, depth: u32) -> Branches<'a> {
        if depth >= self.opts.max_depth {
            return vec![(None, st)];
        }
        self.eval_inner(e, env, st, depth + 1)
    }

    fn eval_inner(&self, e: &'a Expr, env: &SEnv<'a>, mut st: PState, depth: u32) -> Branches<'a> {
        if st.fuel == 0 {
            return vec![(None, st)];
        }
        // Cancellation checkpoint, co-located with the fuel check: the
        // latched flag is a relaxed load per node; the deadline clock is
        // consulted every 1024 nodes (keyed off the monotone fuel
        // counter, so the cadence is deterministic per path).
        if let Some(token) = self.cancel {
            let cancelled = if st.fuel & 0x3FF == 0 {
                token.is_cancelled()
            } else {
                token.is_cancelled_fast()
            };
            if cancelled {
                return vec![(None, st)];
            }
        }
        st.fuel -= 1;
        match &e.kind {
            ExprKind::Var(x) => match env.lookup(x) {
                Some(v) => vec![(Some(v.clone()), st)],
                None => vec![(None, st)],
            },
            ExprKind::Const(r) => vec![(Some(SValue::Sym(Arc::new(SymVal::Const(*r)))), st)],
            ExprKind::Sample => {
                let v = Arc::new(SymVal::Sample(st.n));
                st.n += 1;
                vec![(Some(SValue::Sym(v)), st)]
            }
            ExprKind::Lam(param, body) => vec![(
                Some(SValue::Closure {
                    param,
                    body,
                    env: env.clone(),
                }),
                st,
            )],
            ExprKind::Fix(fname, param, body) => vec![(
                Some(SValue::Fix {
                    node: e.id,
                    fname,
                    param,
                    body,
                    env: env.clone(),
                }),
                st,
            )],
            ExprKind::App(f, a) => {
                let fs = self.eval(f, env, st, depth);
                self.bind(fs, |ex, fv, st1| {
                    let args = ex.eval(a, env, st1, depth);
                    ex.bind(args, |ex, av, st2| ex.apply(fv.clone(), av, st2, depth))
                })
            }
            ExprKind::If(c, t, els) => {
                let cs = self.eval(c, env, st, depth);
                self.bind(cs, |ex, cv, st1| {
                    let guard = match cv {
                        SValue::Sym(v) => v,
                        _ => return vec![(None, st1)],
                    };
                    let range = guard.unit_range();
                    if range.hi() <= 0.0 {
                        ex.eval(t, env, st1, depth)
                    } else if range.lo() > 0.0 {
                        ex.eval(els, env, st1, depth)
                    } else {
                        if st1.path_budget <= 1 {
                            // No budget to represent both branches: one ⊤
                            // path soundly covers the whole subtree.
                            return vec![(None, st1)];
                        }
                        let (b_then, b_else) = ex.split_budget(st1.path_budget, t, els);
                        let mut st_then = st1.clone();
                        st_then.path_budget = b_then;
                        st_then.constraints.push(SymConstraint {
                            value: guard.clone(),
                            dir: CmpDir::LeZero,
                        });
                        let mut st_else = st1;
                        st_else.path_budget = b_else;
                        st_else.constraints.push(SymConstraint {
                            value: guard,
                            dir: CmpDir::GtZero,
                        });
                        let mut out = ex.eval(t, env, st_then, depth);
                        out.extend(ex.eval(els, env, st_else, depth));
                        out
                    }
                })
            }
            ExprKind::Prim(op, args) => {
                let mut partial: Vec<(Vec<Arc<SymVal>>, PState)> = vec![(Vec::new(), st)];
                let mut dead: Vec<PState> = Vec::new();
                for a in args {
                    let mut next = Vec::new();
                    for (prefix, stp) in partial {
                        for (v, stn) in self.eval(a, env, stp, depth) {
                            match v {
                                Some(SValue::Sym(sv)) => {
                                    let mut p2 = prefix.clone();
                                    p2.push(sv);
                                    next.push((p2, stn));
                                }
                                _ => dead.push(stn),
                            }
                        }
                    }
                    partial = next;
                }
                let op = *op;
                let mut out: Branches = partial
                    .into_iter()
                    .map(|(argv, stn)| (Some(SValue::Sym(SymVal::prim(op, argv))), stn))
                    .collect();
                out.extend(dead.into_iter().map(|stn| (None, stn)));
                out
            }
            ExprKind::Score(m) => {
                let ms = self.eval(m, env, st, depth);
                self.bind(ms, |ex, mv, mut st1| {
                    let v = match mv {
                        SValue::Sym(v) => v,
                        _ => return vec![(None, st1)],
                    };
                    // Fig. 8 adds V ≥ 0 to Δ; we skip the constraint when
                    // the value is structurally non-negative (pdfs).
                    let range = v.unit_range();
                    if range.lo() < 0.0 {
                        st1.constraints.push(SymConstraint {
                            value: SymVal::prim(gubpi_lang::PrimOp::Neg, vec![v.clone()]),
                            dir: CmpDir::LeZero,
                        });
                    }
                    st1.scores.push(v.clone());
                    // Zero-score drop: once a score that is statically
                    // the constant `0` has been *pushed*, every leaf of
                    // the continuation — including later ⊤ paths —
                    // carries the `[0, 0]` factor, so the whole subtree
                    // contributes exactly `0.0` to both bounds.
                    // Unconditionally sound; no fuel/depth guard needed.
                    if ex.facts.is_some_and(|f| f.score_is_zero(e.id)) {
                        ex.zero_score_drops.set(ex.zero_score_drops.get() + 1);
                        return vec![];
                    }
                    vec![(Some(SValue::Sym(v)), st1)]
                })
            }
        }
    }

    /// Splits a branch budget `b ≥ 2` between the two sides of a fork.
    ///
    /// A syntactically linear side ([`mark_linear`]) gets a small
    /// reserve and the branchy side inherits the rest, so one-sided
    /// recursions keep (nearly) full depth; otherwise the budget is
    /// halved. The reserve is budget-proportional (`b/32`, floored at
    /// [`LINEAR_BRANCH_RESERVE`]): a linear side's *continuation* may
    /// itself be a whole second recursion (`geo 0 + geo 0`), and a
    /// fixed 16-entry reserve starved it while thousands of budget
    /// units sat unused on the first recursion's spine. Both sides
    /// always receive ≥ 1 and the shares sum to `b`, which is what
    /// makes `max_paths` a hard cap on the leaf count.
    fn split_budget(&self, b: usize, t: &Expr, els: &Expr) -> (usize, usize) {
        let lin = |e: &Expr| self.linear.get(&e.id).copied().unwrap_or(false);
        let reserve = LINEAR_BRANCH_RESERVE.max(b / 32).min(b / 2).max(1);
        match (lin(t), lin(els)) {
            (true, false) => (reserve, b - reserve),
            (false, true) => (b - reserve, reserve),
            _ => (b - b / 2, b / 2),
        }
    }

    fn apply(&self, f: SValue<'a>, a: SValue<'a>, st: PState, depth: u32) -> Branches<'a> {
        match f {
            SValue::Closure { param, body, env } => {
                let env2 = env.bind(param, a);
                self.eval(body, &env2, st, depth)
            }
            SValue::Fix {
                node,
                fname,
                param,
                body,
                env,
            } => {
                if st.unfoldings == 0 {
                    return self.approx_fix(node, st);
                }
                let mut st2 = st;
                st2.unfoldings -= 1;
                st2.active_fix = Some((
                    node,
                    match st2.active_fix {
                        Some((n, k)) if n == node => k + 1,
                        _ => 1,
                    },
                ));
                let rec = SValue::Fix {
                    node,
                    fname,
                    param,
                    body,
                    env: env.clone(),
                };
                let env2 = env.bind(fname, rec).bind(param, a);
                self.eval(body, &env2, st2, depth)
            }
            SValue::ApproxFun {
                remaining,
                value,
                weight,
            } => {
                let mut st2 = st;
                st2.truncated = true;
                if remaining == 0 {
                    Self::finish_approx(value, weight, st2)
                } else {
                    vec![(
                        Some(SValue::ApproxFun {
                            remaining: remaining - 1,
                            value,
                            weight,
                        }),
                        st2,
                    )]
                }
            }
            SValue::Sym(_) => vec![(None, st)],
        }
    }

    /// `approxFix` (§6.2): replace the application of an exhausted
    /// fixpoint by `λ_…λ_. score([e, f]); [c, d]` from its interval type
    /// (curried fixpoints keep absorbing arguments until ground).
    fn approx_fix(&self, node: NodeId, mut st: PState) -> Branches<'a> {
        let (extra, value, weight) =
            self.typing
                .fix_apply_chain(node)
                .unwrap_or((0, Interval::REAL, Interval::NON_NEG));
        st.truncated = true;
        if extra == 0 {
            Self::finish_approx(value, weight, st)
        } else {
            vec![(
                Some(SValue::ApproxFun {
                    remaining: extra - 1,
                    value,
                    weight,
                }),
                st,
            )]
        }
    }

    /// Emits the ground `score([e,f]); [c,d]` of an approxFix stub.
    fn finish_approx(value: Interval, weight: Interval, mut st: PState) -> Branches<'a> {
        if weight != Interval::ONE {
            st.scores
                .push(Arc::new(SymVal::Interval(weight.clamp_non_neg())));
        }
        vec![(Some(SValue::Sym(Arc::new(SymVal::Interval(value)))), st)]
    }

    fn bind(
        &self,
        branches: Branches<'a>,
        mut f: impl FnMut(&Self, SValue<'a>, PState) -> Branches<'a>,
    ) -> Branches<'a> {
        let mut out = Branches::new();
        for (v, st) in branches {
            match v {
                Some(v) => out.extend(f(self, v, st)),
                None => out.push((None, st)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::{infer, parse};
    use gubpi_types::infer_interval_types;

    fn paths_for(src: &str, unfold: u32) -> Vec<SymPath> {
        paths_with(
            src,
            SymExecOptions {
                max_fix_unfoldings: unfold,
                ..Default::default()
            },
        )
    }

    fn paths_with(src: &str, opts: SymExecOptions) -> Vec<SymPath> {
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        symbolic_paths(&p, &typing, opts)
    }

    #[test]
    fn straight_line_gives_one_path() {
        let ps = paths_for("3 * sample + 1", 4);
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert_eq!(p.n_samples, 1);
        assert!(p.constraints.is_empty());
        assert!(p.scores.is_empty());
        assert!(!p.truncated);
        assert_eq!(p.result.eval(&[0.5]), gubpi_interval::Interval::point(2.5));
    }

    #[test]
    fn branching_gives_two_paths_with_constraints() {
        let ps = paths_for("if sample <= 0.5 then 1 else 2", 4);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.constraints.len(), 1);
            assert!(!p.truncated);
        }
        let dirs: Vec<CmpDir> = ps.iter().map(|p| p.constraints[0].dir).collect();
        assert!(dirs.contains(&CmpDir::LeZero) && dirs.contains(&CmpDir::GtZero));
    }

    #[test]
    fn deterministic_guards_do_not_branch() {
        let ps = paths_for(
            "let rec fact n = if n <= 0 then 1 else n * fact (n - 1) in fact 5",
            32,
        );
        assert_eq!(ps.len(), 1);
        assert_eq!(*ps[0].result, SymVal::Const(120.0));
    }

    #[test]
    fn scores_are_recorded() {
        let ps = paths_for("observe sample from normal(0.5, 0.1); 1", 4);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].scores.len(), 1);
        // pdf is structurally non-negative: no extra constraint.
        assert!(ps[0].constraints.is_empty());
    }

    #[test]
    fn possibly_negative_scores_get_a_constraint() {
        let ps = paths_for("score(sample - 0.5); 1", 4);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].constraints.len(), 1);
    }

    #[test]
    fn example_6_1_pedestrian_paths() {
        let src = "
            let start = 3 * sample in
            let rec walk x =
              if x <= 0 then 0 else
                let step = sample in
                if sample <= 0.5 then step + walk (x + step)
                else step + walk (x - step)
            in
            let d = walk start in
            observe d from normal(1.1, 0.1);
            start";
        let ps = paths_for(src, 3);
        assert!(ps.len() > 2);
        // Terminating, non-truncated paths return 3·α₀ and carry exactly
        // one score (the observe).
        let exact: Vec<&SymPath> = ps.iter().filter(|p| !p.truncated).collect();
        assert!(!exact.is_empty());
        for p in exact {
            assert_eq!(p.scores.len(), 1);
            let r = p
                .result
                .eval([0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0][..p.n_samples.max(1)].as_ref());
            assert!((r.lo() - 1.2).abs() < 1e-12, "result must be 3·α₀");
            assert!(p.satisfies_single_use(), "Example C.2: Assumption 1 holds");
        }
        // Truncated paths must carry interval literals.
        assert!(ps.iter().any(|p| p.truncated));
    }

    #[test]
    fn truncation_uses_type_bounds() {
        // A recursion with no score: the approxFix replacement should not
        // add any weight factor (weight type is [1,1]).
        let src = "
            let rec walk x =
              if x <= 0 then 0 else walk (x - sample)
            in walk 1";
        let ps = paths_for(src, 2);
        assert!(ps.iter().any(|p| p.truncated));
        for p in ps.iter().filter(|p| p.truncated) {
            assert!(p.scores.is_empty(), "weight [1,1] adds no score factor");
            assert!(p.result.has_intervals());
        }
    }

    #[test]
    fn higher_order_programs_execute() {
        let ps = paths_for("let app f x = f x in app (fn y -> y + sample) 1", 4);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].n_samples, 1);
    }

    #[test]
    fn deep_one_sided_recursion_keeps_full_depth() {
        // A geometric chain splits once per unfolding, always with a
        // syntactically linear terminating side: the budget splitter must
        // not halve it away. 64 unfoldings ⇒ 65 paths (64 exact + one
        // approxFix truncation), far deeper than log₂(max_paths).
        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let ps = paths_for(src, 64);
        assert_eq!(ps.len(), 65);
        assert_eq!(ps.iter().filter(|p| p.truncated).count(), 1);
    }

    #[test]
    fn path_budget_caps_leaves_deterministically() {
        // A full binary tree of coin flips: depth 6 ⇒ 64 leaves
        // unconstrained. With max_paths = 8 the budget splitter must cap
        // the leaf count at 8 (⊤ paths closing off the cut subtrees).
        // Depth 8 under max_paths = 40 splits odd budgets unevenly and
        // must still respect the cap.
        let flips = |n| {
            format!(
                "let rec flips n =
                   if n <= 0 then 0
                   else if sample <= 0.5 then flips (n - 1)
                   else 1 + flips (n - 1)
                 in flips {n}"
            )
        };
        let full = paths_for(&flips(6), 8);
        assert_eq!(full.iter().filter(|p| !p.truncated).count(), 64);
        for (depth, unfold, cap) in [(6, 8, 8), (8, 10, 40)] {
            let capped = paths_with(
                &flips(depth),
                SymExecOptions {
                    max_fix_unfoldings: unfold,
                    max_paths: cap,
                    ..Default::default()
                },
            );
            assert!(
                capped.len() <= cap,
                "budget must cap leaves: {} > {cap}",
                capped.len()
            );
            assert!(capped.iter().any(|p| p.truncated));
        }
    }

    #[test]
    fn budget_split_truncation_profile_on_sequential_composition() {
        // ROADMAP "Budget-split truncation profile", resolved: with the
        // fixed 16-entry reserve, a *sequential composition* of two
        // deep recursions (`geo 0 + geo 0`) truncated the second
        // recursion to 31 paths (some of them bare ⊤) while thousands
        // of budget units sat unused on the first one's spine. The
        // budget-proportional reserve (`b/32`) hands every linear-side
        // continuation enough budget for the whole second recursion:
        // 37 paths and no ⊤ paths. The 9 remaining truncations are
        // approxFix *depth* truncations from the shared per-path
        // unfolding counter (a first geo that exits after k unfoldings
        // leaves 8 − k for the second, so each of the 8 exact prefixes
        // plus the first geo's own approxFix ends in one depth
        // truncation: Σ_{k=1..8} (9 − k) + 1 = 37 paths). The profile
        // is budget-independent once the proportional reserve covers
        // the second recursion (same counts at 2 000 and 20 000).
        let compose = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0 + geo 0";
        let single = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let opts = |max_paths| SymExecOptions {
            max_fix_unfoldings: 8,
            max_paths,
            ..Default::default()
        };
        // One geo alone keeps full depth: 8 exact leaves + 1 approxFix.
        let alone = paths_with(single, opts(20_000));
        assert_eq!(alone.len(), 9);
        assert_eq!(alone.iter().filter(|p| p.truncated).count(), 1);
        for cap in [2_000usize, 20_000] {
            let ps = paths_with(compose, opts(cap));
            assert_eq!(ps.len(), 37, "cap={cap}");
            assert_eq!(
                ps.iter().filter(|p| p.truncated).count(),
                9,
                "cap={cap}: only approxFix depth truncations remain"
            );
            assert_eq!(
                ps.iter().filter(|p| p.budget_truncated).count(),
                0,
                "cap={cap}: no ⊤ paths"
            );
        }
    }

    fn paths_report(src: &str, opts: SymExecOptions, prune: bool) -> (Vec<SymPath>, ExecReport) {
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        let facts = ProgramFacts::compute(&p, &typing);
        let f = if prune { Some(&facts) } else { None };
        // Tail facts flow in regardless of the prune gate, mirroring
        // the analyzer's wiring.
        symbolic_paths_report_cancellable(
            &p,
            &typing,
            f,
            Some(&facts),
            opts,
            WorkerPool::global(),
            None,
        )
    }

    #[test]
    fn dead_branch_pruning_drops_fail_paths() {
        let src = "if sample <= 0.5 then sample else fail";
        let (unpruned, r0) = paths_report(src, SymExecOptions::default(), false);
        let (pruned, r1) = paths_report(src, SymExecOptions::default(), true);
        assert_eq!(r0, ExecReport::default());
        // The `fail` side is evaluated and its one path dropped at the
        // zero score.
        assert_eq!(r1.zero_score_drops, 1);
        assert_eq!(unpruned.len(), 2);
        assert_eq!(pruned.len(), 1);
        // The surviving path is exactly the unpruned run's live path
        // (same budget split, the dropped side's share discarded).
        let live: Vec<&SymPath> = unpruned.iter().filter(|p| p.scores.is_empty()).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(*live[0], pruned[0]);
        // The dropped path carried an exactly-zero score.
        let dead: Vec<&SymPath> = unpruned.iter().filter(|p| !p.scores.is_empty()).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(*dead[0].scores[0], SymVal::Const(0.0));
    }

    #[test]
    fn statically_zero_scores_drop_their_continuation() {
        // A `score(0)` in straight-line position: the unpruned run keeps
        // one path whose weight factor is exactly 0; the pruned run
        // drops it at the score (after pushing it), leaving no paths.
        let src = "score(0); sample";
        let (unpruned, _) = paths_report(src, SymExecOptions::default(), false);
        let (pruned, r) = paths_report(src, SymExecOptions::default(), true);
        assert_eq!(unpruned.len(), 1);
        assert_eq!(*unpruned[0].scores[0], SymVal::Const(0.0));
        assert!(pruned.is_empty());
        assert_eq!(r.zero_score_drops, 1);
    }

    #[test]
    fn budget_truncated_census_counts_top_paths() {
        let src = "
            let rec flips n =
              if n <= 0 then 0
              else if sample <= 0.5 then flips (n - 1)
              else 1 + flips (n - 1)
            in flips 6";
        let opts = SymExecOptions {
            max_fix_unfoldings: 8,
            max_paths: 8,
            ..Default::default()
        };
        let (paths, report) = paths_report(src, opts, false);
        let tops = paths.iter().filter(|p| p.budget_truncated).count();
        assert!(tops > 0, "tight budget must produce ⊤ paths");
        assert_eq!(report.budget_truncated_paths, tops);
        // The census splits truncations by cause: ⊤ (budget) vs
        // approxFix depth. Together they cover every truncated path.
        let depth = paths
            .iter()
            .filter(|p| p.truncated && !p.budget_truncated)
            .count();
        assert_eq!(report.depth_truncated_paths, depth);
        assert_eq!(
            report.budget_truncated_paths + report.depth_truncated_paths,
            paths.iter().filter(|p| p.truncated).count()
        );
        assert_eq!(
            report.tail_enclosed_paths,
            paths.iter().filter(|p| p.tail.is_some()).count()
        );
        // ⊤ paths are a subset of truncated paths; approxFix-only
        // truncations keep budget_truncated == false.
        assert!(paths.iter().all(|p| !p.budget_truncated || p.truncated));
        let (full, full_report) = paths_report(src, SymExecOptions::default(), false);
        assert_eq!(full_report.budget_truncated_paths, 0);
        assert!(full.iter().all(|p| !p.budget_truncated));
    }

    #[test]
    fn top_paths_carry_tail_enclosures_from_contraction_facts() {
        // A coin-guarded loop has a per-unfolding contraction fact
        // ([0, 0.5] for `geo`): every ⊤ path the budget produces must
        // carry it as a `TailEnclosure`, stamped with how many
        // unfoldings the path explored before truncation.
        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let opts = SymExecOptions {
            max_fix_unfoldings: 16,
            max_paths: 6,
            ..Default::default()
        };
        let (paths, report) = paths_report(src, opts, false);
        let tops: Vec<_> = paths.iter().filter(|p| p.budget_truncated).collect();
        assert!(!tops.is_empty(), "tight budget must produce ⊤ paths");
        for p in &tops {
            let tail = p.tail.expect("⊤ path inside geo must carry a tail fact");
            assert_eq!(tail.per_step_weight.lo(), 0.0);
            assert_eq!(tail.per_step_weight.hi(), 0.5);
            assert_eq!(tail.continuation_weight.hi(), 1.0);
            assert!(tail.unfoldings_explored >= 1);
        }
        assert_eq!(report.tail_enclosed_paths, tops.len());
        // Non-⊤ paths (exact leaves and approxFix truncations) never
        // carry an enclosure: their score lists already close the path.
        assert!(paths.iter().all(|p| p.budget_truncated || p.tail.is_none()));
        // approxFix-only truncation at full budget: no ⊤, no tails.
        let (full, full_report) = paths_report(
            src,
            SymExecOptions {
                max_fix_unfoldings: 4,
                ..Default::default()
            },
            false,
        );
        assert!(full.iter().any(|p| p.truncated));
        assert_eq!(full_report.tail_enclosed_paths, 0);
        assert!(full.iter().all(|p| p.tail.is_none()));
    }

    #[test]
    fn data_guarded_top_paths_carry_the_ranked_prefix() {
        // A data-guarded loop sits at per_step = 1: the plain geometric
        // series is unusable, but the ranking pass attaches an
        // eventually-geometric prefix that the census counts separately.
        let src = "let rec walk x = if x <= 0 then 0 else walk (x - sample) in walk 1";
        let opts = SymExecOptions {
            max_fix_unfoldings: 16,
            max_paths: 6,
            ..Default::default()
        };
        let (paths, report) = paths_report(src, opts, false);
        let tops: Vec<_> = paths.iter().filter(|p| p.budget_truncated).collect();
        assert!(!tops.is_empty(), "tight budget must produce ⊤ paths");
        for p in &tops {
            let tail = p.tail.expect("⊤ path inside walk must carry the fact");
            assert_eq!(tail.per_step_weight.hi(), 1.0, "no plain decay");
            assert!(tail.prefix.is_some(), "ranking pass must attach a prefix");
        }
        assert_eq!(report.ranked_tail_paths, tops.len());
        assert_eq!(report.tail_enclosed_paths, tops.len());
        // The plain-geometric loop's enclosures carry no prefix: its
        // ranked census stays 0 while the tail census counts them.
        let geo = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let (paths, report) = paths_report(geo, opts, false);
        assert!(report.tail_enclosed_paths > 0);
        assert_eq!(report.ranked_tail_paths, 0);
        assert!(paths
            .iter()
            .all(|p| p.tail.is_none_or(|t| t.prefix.is_none())));
    }

    #[test]
    fn tail_enclosures_require_facts_and_respect_analysis_bailouts() {
        let opts = SymExecOptions {
            max_fix_unfoldings: 16,
            max_paths: 6,
            ..Default::default()
        };
        // Without a facts table the executor degrades to bare ⊤ paths.
        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        let (paths, report) = symbolic_paths_report_cancellable(
            &p,
            &typing,
            None,
            None,
            opts,
            WorkerPool::global(),
            None,
        );
        assert!(paths.iter().any(|p| p.budget_truncated));
        assert_eq!(report.tail_enclosed_paths, 0);
        assert!(paths.iter().all(|p| p.tail.is_none()));
        // A loop whose body scores with weight above 1 (a sharp normal
        // pdf peaks at ≈ 3.99) gets no tail fact from the analysis, so
        // its ⊤ paths stay bare even with facts wired in.
        let scored = "let rec walk x =
               if x <= 0 then 0 else
                 (observe sample from normal(0.5, 0.1); walk (x - sample))
             in walk 1";
        let (paths, report) = paths_report(scored, opts, false);
        assert!(paths.iter().any(|p| p.budget_truncated));
        assert_eq!(report.tail_enclosed_paths, 0);
        assert!(paths.iter().all(|p| p.tail.is_none()));
    }
}
