//! Constraint generation (Fig. 10) and type resolution.
//!
//! Walks the program once, allocating interval variables for every
//! interval position in the typing skeleton (the skeleton's shape is
//! fixed by the term and its simple types), emitting constraints, solving
//! them, and resolving a concrete [`WTy`] for every node.

use std::collections::HashMap;

use gubpi_interval::{Interval, Lattice};
use gubpi_lang::{Env, Expr, ExprKind, Name, NodeId, Program, SimpleTy, TypeMap};

use crate::constraints::{Constraint, ConstraintSet, IVar};
use crate::solve::solve;
use crate::ty::{ITy, WTy};

/// A symbolic weightless type: the typing skeleton with variables.
#[derive(Clone, Debug)]
enum SymTy {
    Base(IVar),
    Fun(Box<SymTy>, Box<SymWTy>),
}

/// A symbolic weighted type.
#[derive(Clone, Debug)]
struct SymWTy {
    ty: SymTy,
    weight: IVar,
}

/// The result of weight-aware interval type inference: a [`WTy`] for
/// every AST node.
#[derive(Clone, Debug)]
pub struct IntervalTyping {
    map: HashMap<NodeId, WTy>,
}

impl IntervalTyping {
    /// The weighted type of a node, if inference reached it.
    pub fn wty(&self, id: NodeId) -> Option<&WTy> {
        self.map.get(&id)
    }

    /// For a `Fix` node of first-order type, the bounds used by
    /// `approxFix` (§6.2): `(value bound [c,d], weight bound [e,f])` such
    /// that the fixpoint may be replaced by `λ_. score([e,f]); [c,d]`.
    pub fn fix_apply_bounds(&self, id: NodeId) -> Option<(Interval, Interval)> {
        match self.wty(id)? {
            WTy {
                ty: ITy::Fun(_, result),
                ..
            } => {
                let value = result.ty.as_interval()?;
                Some((value, result.weight))
            }
            _ => None,
        }
    }

    /// The higher-order `approxFix` chain for a `Fix` node (§6.2 "extends
    /// to higher-order fixpoints as expected"): for a curried fixpoint of
    /// type `σ₁ → ⟨σ₂ → ⟨… → ⟨[c,d], w_k⟩ …⟩, w₁⟩`, returns
    /// `(extra, [c,d], w₁ ×I ⋯ ×I w_k)` where `extra` is the number of
    /// applications *after the first* needed to reach the ground result.
    pub fn fix_apply_chain(&self, id: NodeId) -> Option<(u32, Interval, Interval)> {
        let WTy {
            ty: ITy::Fun(_, result),
            ..
        } = self.wty(id)?
        else {
            return None;
        };
        let mut weight = result.weight;
        let mut ty = &result.ty;
        let mut extra = 0u32;
        loop {
            match ty {
                ITy::Base(i) => return Some((extra, *i, weight)),
                ITy::Fun(_, r) => {
                    extra += 1;
                    weight = weight * r.weight;
                    ty = &r.ty;
                }
            }
        }
    }

    /// Convenience for tests: the `approxFix` bounds of the unique `Fix`
    /// node of the program (`None` if there are zero or several).
    pub fn fix_summary(&self, program: &Program) -> Option<(Interval, Interval)> {
        let mut fixes = Vec::new();
        program.root.walk(&mut |e| {
            if matches!(e.kind, ExprKind::Fix(..)) {
                fixes.push(e.id);
            }
        });
        match fixes.as_slice() {
            [only] => self.fix_apply_bounds(*only),
            _ => None,
        }
    }

    /// Number of typed nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Runs weight-aware interval type inference (never fails; weak
/// completeness, Proposition 5.2).
pub fn infer_interval_types(program: &Program, simple: &TypeMap) -> IntervalTyping {
    let mut gen = Generator {
        cs: ConstraintSet::new(),
        simple,
        node_types: HashMap::new(),
    };
    let _root = gen.walk(&program.root, &Env::empty());
    let assignment = solve(&gen.cs);
    let map = gen
        .node_types
        .iter()
        .map(|(id, sw)| (*id, resolve_wty(sw, &assignment)))
        .collect();
    IntervalTyping { map }
}

struct Generator<'a> {
    cs: ConstraintSet,
    simple: &'a TypeMap,
    node_types: HashMap<NodeId, SymWTy>,
}

impl Generator<'_> {
    /// `fresh(α)` of Appendix D: a skeleton with fresh variables.
    fn fresh_symty(&mut self, ty: &SimpleTy) -> SymTy {
        match ty {
            SimpleTy::Real => SymTy::Base(self.cs.fresh()),
            SimpleTy::Fun(a, b) => {
                let arg = self.fresh_symty(a);
                let res = self.fresh_symty(b);
                let w = self.cs.fresh();
                SymTy::Fun(Box::new(arg), Box::new(SymWTy { ty: res, weight: w }))
            }
        }
    }

    /// Emits flow constraints for `sub ⊑ sup` (contravariant arguments).
    fn sub_ty(&mut self, sub: &SymTy, sup: &SymTy) {
        match (sub, sup) {
            (SymTy::Base(a), SymTy::Base(b)) => self.cs.push(Constraint::Flow(*b, *a)),
            (SymTy::Fun(a1, r1), SymTy::Fun(a2, r2)) => {
                self.sub_ty(a2, a1);
                self.sub_wty(r1, r2);
            }
            _ => unreachable!("simple typing guarantees matching shapes"),
        }
    }

    fn sub_wty(&mut self, sub: &SymWTy, sup: &SymWTy) {
        self.sub_ty(&sub.ty, &sup.ty);
        self.cs.push(Constraint::Flow(sup.weight, sub.weight));
    }

    fn one(&mut self) -> IVar {
        self.cs.fresh_const(Interval::ONE)
    }

    fn walk(&mut self, e: &Expr, env: &Env<Name, SymTy>) -> SymWTy {
        let result = match &e.kind {
            ExprKind::Var(x) => {
                let ty = env
                    .lookup(x)
                    .cloned()
                    .expect("type inference ran after scope checking");
                let w = self.one();
                SymWTy { ty, weight: w }
            }
            ExprKind::Const(r) => {
                let v = self.cs.fresh_const(Interval::point(*r));
                let w = self.one();
                SymWTy {
                    ty: SymTy::Base(v),
                    weight: w,
                }
            }
            ExprKind::Sample => {
                let v = self.cs.fresh_const(Interval::UNIT);
                let w = self.one();
                SymWTy {
                    ty: SymTy::Base(v),
                    weight: w,
                }
            }
            ExprKind::Lam(x, body) => {
                let param_ty = match self.simple.ty(e.id) {
                    SimpleTy::Fun(a, _) => self.fresh_symty(a),
                    SimpleTy::Real => unreachable!("lambda has function type"),
                };
                let body_wty = self.walk(body, &env.bind(x.clone(), param_ty.clone()));
                let w = self.one();
                SymWTy {
                    ty: SymTy::Fun(Box::new(param_ty), Box::new(body_wty)),
                    weight: w,
                }
            }
            ExprKind::Fix(f, x, body) => {
                let (param_simple, result_simple) = match self.simple.ty(e.id) {
                    SimpleTy::Fun(a, b) => (a.clone(), b.clone()),
                    SimpleTy::Real => unreachable!("fixpoint has function type"),
                };
                let param_ty = self.fresh_symty(&param_simple);
                let declared_result = SymWTy {
                    ty: self.fresh_symty(&result_simple),
                    weight: self.cs.fresh(),
                };
                let fun_ty = SymTy::Fun(
                    Box::new(param_ty.clone()),
                    Box::new(declared_result.clone()),
                );
                let env2 = env
                    .bind(f.clone(), fun_ty.clone())
                    .bind(x.clone(), param_ty);
                let body_wty = self.walk(body, &env2);
                // Body result must refine the declared invariant.
                self.sub_wty(&body_wty, &declared_result);
                let w = self.one();
                SymWTy {
                    ty: fun_ty,
                    weight: w,
                }
            }
            ExprKind::App(m, n) => {
                let m_wty = self.walk(m, env);
                let n_wty = self.walk(n, env);
                let (param, result) = match m_wty.ty {
                    SymTy::Fun(p, r) => (*p, *r),
                    SymTy::Base(_) => unreachable!("simple typing guarantees a function"),
                };
                self.sub_ty(&n_wty.ty, &param);
                let w = self.cs.fresh();
                self.cs.push(Constraint::Product(
                    w,
                    vec![m_wty.weight, n_wty.weight, result.weight],
                ));
                SymWTy {
                    ty: result.ty,
                    weight: w,
                }
            }
            ExprKind::If(c, t, els) => {
                let c_wty = self.walk(c, env);
                let t_wty = self.walk(t, env);
                let e_wty = self.walk(els, env);
                let joined = self.fresh_symty(self.simple.ty(e.id));
                self.sub_ty(&t_wty.ty, &joined);
                self.sub_ty(&e_wty.ty, &joined);
                let branch_w = self.cs.fresh();
                self.cs.push(Constraint::Flow(branch_w, t_wty.weight));
                self.cs.push(Constraint::Flow(branch_w, e_wty.weight));
                let w = self.cs.fresh();
                self.cs
                    .push(Constraint::Product(w, vec![c_wty.weight, branch_w]));
                SymWTy {
                    ty: joined,
                    weight: w,
                }
            }
            ExprKind::Prim(op, args) => {
                let mut arg_vals = Vec::with_capacity(args.len());
                let mut arg_ws = Vec::with_capacity(args.len());
                for a in args {
                    let aw = self.walk(a, env);
                    match aw.ty {
                        SymTy::Base(v) => arg_vals.push(v),
                        SymTy::Fun(..) => unreachable!("primitive arguments are ground"),
                    }
                    arg_ws.push(aw.weight);
                }
                let v = self.cs.fresh();
                self.cs.push(Constraint::Prim(v, *op, arg_vals));
                let w = self.cs.fresh();
                self.cs.push(Constraint::Product(w, arg_ws));
                SymWTy {
                    ty: SymTy::Base(v),
                    weight: w,
                }
            }
            ExprKind::Score(m) => {
                let m_wty = self.walk(m, env);
                let mv = match m_wty.ty {
                    SymTy::Base(v) => v,
                    SymTy::Fun(..) => unreachable!("score argument is ground"),
                };
                let truncated = self.cs.fresh();
                self.cs.push(Constraint::MeetNonNeg(truncated, mv));
                let w = self.cs.fresh();
                self.cs
                    .push(Constraint::Product(w, vec![m_wty.weight, truncated]));
                SymWTy {
                    ty: SymTy::Base(truncated),
                    weight: w,
                }
            }
        };
        self.node_types.insert(e.id, result.clone());
        result
    }
}

/// Resolves a symbolic type against the solved assignment. Unreached
/// variables (`⊥`) default to the safe tops: `[−∞, ∞]` for values and
/// `[0, ∞]` for weights.
fn resolve_ty(t: &SymTy, a: &[Lattice]) -> ITy {
    match t {
        SymTy::Base(v) => ITy::Base(a[*v as usize].interval_or(Interval::REAL)),
        SymTy::Fun(arg, res) => {
            ITy::Fun(Box::new(resolve_ty(arg, a)), Box::new(resolve_wty(res, a)))
        }
    }
}

fn resolve_wty(t: &SymWTy, a: &[Lattice]) -> WTy {
    WTy {
        ty: resolve_ty(&t.ty, a),
        weight: a[t.weight as usize].interval_or(Interval::NON_NEG),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_lang::{infer, parse};

    fn typing(src: &str) -> (Program, IntervalTyping) {
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let t = infer_interval_types(&p, &simple);
        (p, t)
    }

    fn root_wty(src: &str) -> WTy {
        let (p, t) = typing(src);
        t.wty(p.root.id).unwrap().clone()
    }

    #[test]
    fn constants_get_point_types() {
        let w = root_wty("3");
        assert_eq!(w.ty.as_interval(), Some(Interval::point(3.0)));
        assert_eq!(w.weight, Interval::ONE);
    }

    #[test]
    fn arithmetic_propagates_intervals() {
        let w = root_wty("3 * sample + 1");
        assert_eq!(w.ty.as_interval(), Some(Interval::new(1.0, 4.0)));
        assert_eq!(w.weight, Interval::ONE);
    }

    #[test]
    fn score_bounds_weight_by_value() {
        let w = root_wty("score(2 * sample); 7");
        assert_eq!(w.ty.as_interval(), Some(Interval::point(7.0)));
        assert_eq!(w.weight, Interval::new(0.0, 2.0));
    }

    #[test]
    fn branches_join_values_and_weights() {
        let w = root_wty("if sample <= 0.5 then score(2); 1 else 3");
        let v = w.ty.as_interval().unwrap();
        assert!(v.contains(1.0) && v.contains(3.0));
        assert!(w.weight.contains(1.0) && w.weight.contains(2.0));
    }

    #[test]
    fn every_node_receives_a_type() {
        let (p, t) = typing("let f x = score(x); x * 2 in f (sample) + f 0.25");
        let mut missing = 0;
        p.root.walk(&mut |e| {
            if t.wty(e.id).is_none() {
                missing += 1;
            }
        });
        assert_eq!(missing, 0);
        assert!(!t.is_empty() && !t.is_empty());
    }

    #[test]
    fn call_sites_flow_into_parameters() {
        // f is applied to sample∈[0,1] and 0.25; its result must cover
        // both 2·[0,1] and 2·0.25 — i.e. exactly [0,2].
        let (p, t) = typing("let f x = x * 2 in f (sample) + f 0.25");
        let root = t.wty(p.root.id).unwrap();
        assert_eq!(root.ty.as_interval(), Some(Interval::new(0.0, 4.0)));
    }

    #[test]
    fn example_5_2_pedestrian_fixpoint() {
        // μφ x. if(x, 0, (λstep. step + φ((x+step) ⊕ (x−step))) sample)
        // must get type [a,b] → ⟨[0,∞] | [1,1]⟩.
        let (p, t) = typing(
            "let rec walk x =
               if x <= 0 then 0 else
                 let step = sample in
                 if sample <= 0.5 then step + walk (x + step)
                 else step + walk (x - step)
             in walk (3 * sample)",
        );
        let (value, weight) = t.fix_summary(&p).expect("single fixpoint");
        assert_eq!(weight, Interval::ONE, "no score inside the walk");
        assert_eq!(value.lo(), 0.0);
        assert_eq!(value.hi(), f64::INFINITY);
    }

    #[test]
    fn fixpoint_with_score_gets_weight_interval() {
        let (p, t) = typing(
            "let rec geo x =
               if sample <= 0.5 then x else (score(0.5); geo (x + 1))
             in geo 0",
        );
        let (_value, weight) = t.fix_summary(&p).expect("single fixpoint");
        // Each unfolding multiplies by 0.5 ⇒ weight ⊆ [0, 1].
        assert!(weight.subset_of(&Interval::UNIT));
    }

    #[test]
    fn non_recursive_function_types_are_precise() {
        let (p, t) = typing("let f x = x + 1 in f (sample)");
        // Find the lambda for f and check its result interval is [1, 2].
        let mut found = false;
        p.root.walk(&mut |e| {
            if let ExprKind::Lam(name, _) = &e.kind {
                if &**name == "x" {
                    if let Some(WTy {
                        ty: ITy::Fun(_, res),
                        ..
                    }) = t.wty(e.id)
                    {
                        assert_eq!(res.ty.as_interval(), Some(Interval::new(1.0, 2.0)));
                        found = true;
                    }
                }
            }
        });
        assert!(found);
    }

    #[test]
    fn example_6_2_approx_fix_replacement_bounds() {
        // The pedestrian fixpoint is replaced by λ_.score([1,1]); [0,∞].
        let (p, t) = typing(
            "let rec walk x =
               if x <= 0 then 0 else
                 let step = sample in
                 if sample <= 0.5 then step + walk (x + step)
                 else step + walk (x - step)
             in walk (3 * sample)",
        );
        let mut fix_id = None;
        p.root.walk(&mut |e| {
            if matches!(e.kind, ExprKind::Fix(..)) {
                fix_id = Some(e.id);
            }
        });
        let (v, w) = t.fix_apply_bounds(fix_id.unwrap()).unwrap();
        assert_eq!(w, Interval::ONE);
        assert_eq!(v, Interval::NON_NEG);
    }
}
