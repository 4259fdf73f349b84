//! Interval SPCF evaluation `→I` (Fig. 3 + Appendix A.4).
//!
//! Programs are evaluated on *interval traces* `t ∈ ⋃_n I_{[0,1]}^n`
//! (represented as [`BoxN`]): `sample` pops the next interval, primitives
//! evaluate in interval arithmetic, and conditionals whose guard interval
//! straddles 0 take **both** branches with the weight multiplied by
//! `[0, 1]` (the implementation strategy of Appendix A.4). The evaluator
//! therefore returns a *set* of leaves.
//!
//! Leaves that get stuck, run out of fuel, or fail to consume the trace
//! exactly report the paper's "otherwise" values `wtI = [0, ∞]`,
//! `valI = [−∞, ∞]`.

use gubpi_interval::{BoxN, Interval};
use gubpi_lang::{Env, Expr, ExprKind, Program};

/// An interval runtime value. Closures borrow their names and bodies
/// from the program `'a` being evaluated.
#[derive(Clone)]
pub enum IValue<'a> {
    /// A real interval (interval literals `[a, b]`).
    Interval(Interval),
    /// A lambda closure.
    Closure {
        /// Parameter name.
        param: &'a str,
        /// Body.
        body: &'a Expr,
        /// Captured environment.
        env: IEnv<'a>,
    },
    /// A recursive closure.
    FixClosure {
        /// Recursion variable.
        fname: &'a str,
        /// Parameter name.
        param: &'a str,
        /// Body.
        body: &'a Expr,
        /// Captured environment.
        env: IEnv<'a>,
    },
}

/// The interval evaluator's environment.
type IEnv<'a> = Env<&'a str, IValue<'a>>;

impl std::fmt::Debug for IValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IValue::Interval(i) => write!(f, "{i:?}"),
            IValue::Closure { param, .. } => write!(f, "<closure λ{param}>"),
            IValue::FixClosure { fname, param, .. } => write!(f, "<fix μ{fname} {param}>"),
        }
    }
}

/// One leaf of the (nondeterministic) interval reduction.
#[derive(Clone, Debug)]
pub struct Leaf {
    /// `valI` — interval bound on the returned value.
    pub value: Interval,
    /// `wtI` — interval bound on the weight.
    pub weight: Interval,
    /// Did the leaf terminate cleanly (value reached, trace consumed)?
    pub terminated: bool,
}

impl Leaf {
    fn diverged() -> Leaf {
        Leaf {
            value: Interval::REAL,
            weight: Interval::NON_NEG,
            terminated: false,
        }
    }
}

/// Options for interval evaluation.
#[derive(Copy, Clone, Debug)]
pub struct IntervalOptions {
    /// Evaluation fuel per branch.
    pub fuel: u64,
    /// Cap on the number of leaves (guards blow-up on ambiguous guards).
    pub max_leaves: usize,
    /// Maximum evaluator recursion depth (protects the Rust call stack).
    pub max_depth: u32,
}

impl Default for IntervalOptions {
    fn default() -> IntervalOptions {
        IntervalOptions {
            fuel: 1_000_000,
            max_leaves: 4096,
            max_depth: 2_000,
        }
    }
}

/// Evaluates `program` on the interval trace `t`, returning all reachable
/// leaves (Fig. 3 with the both-branch rule of Appendix A.4).
pub fn eval_on_interval_trace(program: &Program, t: &BoxN, opts: IntervalOptions) -> Vec<Leaf> {
    let mut machine = Machine {
        trace: t,
        opts,
        depth: 0,
        leaves: Vec::new(),
    };
    let state = IState {
        pos: 0,
        weight: Interval::ONE,
        fuel: opts.fuel,
    };
    let results = machine.eval(&program.root, &Env::empty(), state);
    for (v, st) in results {
        if machine.leaves.len() >= opts.max_leaves {
            machine.leaves.push(Leaf::diverged());
            break;
        }
        match v {
            Some(IValue::Interval(value)) if st.pos == t.dim() => machine.leaves.push(Leaf {
                value,
                weight: st.weight,
                terminated: true,
            }),
            // Trace not consumed / closure result / divergence marker.
            _ => machine.leaves.push(Leaf::diverged()),
        }
    }
    machine.leaves
}

#[derive(Clone, Copy)]
struct IState {
    pos: usize,
    weight: Interval,
    fuel: u64,
}

struct Machine<'a> {
    trace: &'a BoxN,
    opts: IntervalOptions,
    depth: u32,
    leaves: Vec<Leaf>,
}

/// Evaluation result per branch: `None` marks divergence/stuckness.
type Branches<'p> = Vec<(Option<IValue<'p>>, IState)>;

impl Machine<'_> {
    fn eval<'p>(&mut self, e: &'p Expr, env: &IEnv<'p>, st: IState) -> Branches<'p> {
        self.depth += 1;
        let r = if self.depth > self.opts.max_depth {
            vec![(None, st)]
        } else {
            self.eval_inner(e, env, st)
        };
        self.depth -= 1;
        r
    }

    fn eval_inner<'p>(&mut self, e: &'p Expr, env: &IEnv<'p>, mut st: IState) -> Branches<'p> {
        if st.fuel == 0 {
            return vec![(None, st)];
        }
        st.fuel -= 1;
        match &e.kind {
            ExprKind::Var(x) => match env.lookup(x) {
                Some(v) => vec![(Some(v.clone()), st)],
                None => vec![(None, st)],
            },
            ExprKind::Const(r) => vec![(Some(IValue::Interval(Interval::point(*r))), st)],
            ExprKind::Lam(param, body) => vec![(
                Some(IValue::Closure {
                    param,
                    body,
                    env: env.clone(),
                }),
                st,
            )],
            ExprKind::Fix(fname, param, body) => vec![(
                Some(IValue::FixClosure {
                    fname,
                    param,
                    body,
                    env: env.clone(),
                }),
                st,
            )],
            ExprKind::Sample => {
                if st.pos < self.trace.dim() {
                    let iv = self.trace[st.pos];
                    st.pos += 1;
                    vec![(Some(IValue::Interval(iv)), st)]
                } else {
                    vec![(None, st)] // trace exhausted
                }
            }
            ExprKind::App(f, a) => {
                let fs = self.eval(f, env, st);
                self.flat_map(fs, |m, fv, st1| {
                    let args = m.eval(a, env, st1);
                    m.flat_map(args, |m, av, st2| match fv.clone() {
                        IValue::Closure { param, body, env } => {
                            let env2 = env.bind(param, av);
                            m.eval(body, &env2, st2)
                        }
                        IValue::FixClosure {
                            fname,
                            param,
                            body,
                            env,
                        } => {
                            let rec = IValue::FixClosure {
                                fname,
                                param,
                                body,
                                env: env.clone(),
                            };
                            let env2 = env.bind(fname, rec).bind(param, av);
                            m.eval(body, &env2, st2)
                        }
                        IValue::Interval(_) => vec![(None, st2)],
                    })
                })
            }
            ExprKind::If(c, t, els) => {
                let cs = self.eval(c, env, st);
                self.flat_map(cs, |m, cv, st1| {
                    let guard = match cv {
                        IValue::Interval(i) => i,
                        _ => return vec![(None, st1)],
                    };
                    if guard.hi() <= 0.0 {
                        m.eval(t, env, st1)
                    } else if guard.lo() > 0.0 {
                        m.eval(els, env, st1)
                    } else {
                        // Appendix A.4: take both branches, weight ×I [0,1].
                        let mut damp = st1;
                        damp.weight = damp.weight * Interval::UNIT;
                        let mut out = m.eval(t, env, damp);
                        out.extend(m.eval(els, env, damp));
                        out
                    }
                })
            }
            ExprKind::Prim(op, args) => {
                let mut acc: Branches = vec![(Some(IValue::Interval(Interval::ZERO)), st)];
                let mut vals: Vec<Branches> = Vec::new();
                // Evaluate arguments left-to-right, threading state.
                // Start from a single-branch accumulator carrying arg values.
                let mut partial: Vec<(Vec<Interval>, IState)> = vec![(Vec::new(), st)];
                for a in args {
                    let mut next: Vec<(Vec<Interval>, IState)> = Vec::new();
                    for (prefix, stp) in partial {
                        for (v, stn) in self.eval(a, env, stp) {
                            match v {
                                Some(IValue::Interval(iv)) => {
                                    let mut p2 = prefix.clone();
                                    p2.push(iv);
                                    next.push((p2, stn));
                                }
                                _ => {
                                    // Divergent argument: record a leaf now.
                                    self.leaves.push(Leaf::diverged());
                                }
                            }
                        }
                    }
                    partial = next;
                }
                acc.clear();
                vals.clear();
                for (argv, stn) in partial {
                    // Endpoint arithmetic rounds to nearest, matching the
                    // original GuBPI implementation (and our concrete f64
                    // reference semantics). Callers wanting certification
                    // against exact real arithmetic can outward-round the
                    // final bounds.
                    let out = op.eval_interval(&argv);
                    acc.push((Some(IValue::Interval(out)), stn));
                }
                acc
            }
            ExprKind::Score(mexp) => {
                let ms = self.eval(mexp, env, st);
                self.flat_map(ms, |_m, mv, mut st1| {
                    let iv = match mv {
                        IValue::Interval(i) => i,
                        _ => return vec![(None, st1)],
                    };
                    if iv.hi() < 0.0 {
                        // Every refinement is stuck: concrete weight 0.
                        st1.weight = Interval::ZERO;
                        return vec![(Some(IValue::Interval(iv)), st1)];
                    }
                    // Straddling 0: refinements with negative scores are
                    // stuck (contribute weight 0), so widen the factor down
                    // to 0 — sound for both bounds.
                    let factor = iv.clamp_non_neg();
                    let factor = if iv.lo() < 0.0 {
                        factor.join(Interval::ZERO)
                    } else {
                        factor
                    };
                    st1.weight = st1.weight * factor;
                    vec![(Some(IValue::Interval(factor)), st1)]
                })
            }
        }
    }

    /// Monadic bind over branch sets, recording divergent branches as
    /// leaves immediately.
    fn flat_map<'p>(
        &mut self,
        branches: Branches<'p>,
        mut f: impl FnMut(&mut Self, IValue<'p>, IState) -> Branches<'p>,
    ) -> Branches<'p> {
        let mut out = Branches::new();
        for (v, st) in branches {
            if self.leaves.len() + out.len() > self.opts.max_leaves {
                out.push((None, st));
                continue;
            }
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
    use gubpi_lang::parse;

    fn eval(src: &str, dims: &[(f64, f64)]) -> Vec<Leaf> {
        let t = BoxN::new(dims.iter().map(|&(a, b)| Interval::new(a, b)).collect());
        eval_on_interval_trace(&parse(src).unwrap(), &t, IntervalOptions::default())
    }

    #[test]
    fn deterministic_program_single_leaf() {
        let leaves = eval("score(2); 1 + 2", &[]);
        assert_eq!(leaves.len(), 1);
        assert!(leaves[0].terminated);
        assert!(leaves[0].value.contains(3.0));
        assert!(leaves[0].weight.contains(2.0));
    }

    #[test]
    fn sample_pops_interval() {
        let leaves = eval("3 * sample", &[(0.0, 0.5)]);
        assert_eq!(leaves.len(), 1);
        let v = leaves[0].value;
        assert!(v.lo() <= 0.0 && v.hi() >= 1.5 && v.hi() < 1.5001);
    }

    #[test]
    fn decided_branch_takes_one_path() {
        // guard = sample − 0.5 over [0, 0.4]: hi ≤ 0 → then-branch only.
        let leaves = eval("if sample <= 0.5 then 1 else 2", &[(0.0, 0.4)]);
        assert_eq!(leaves.len(), 1);
        assert!(leaves[0].value.contains(1.0));
        assert!(!leaves[0].value.contains(2.0));
    }

    #[test]
    fn ambiguous_branch_takes_both_with_dampened_weight() {
        let leaves = eval("score(4); if sample <= 0.5 then 1 else 2", &[(0.0, 1.0)]);
        assert_eq!(leaves.len(), 2);
        for l in &leaves {
            assert!(l.terminated);
            // weight 4 × [0,1] = [0,4]
            assert_eq!(l.weight.lo(), 0.0);
            assert!((l.weight.hi() - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_mismatch_diverges() {
        // extra dimension: not consumed
        let leaves = eval("1", &[(0.0, 1.0)]);
        assert_eq!(leaves.len(), 1);
        assert!(!leaves[0].terminated);
        assert_eq!(leaves[0].weight, Interval::NON_NEG);
        // missing dimension: exhausted
        let leaves = eval("sample", &[]);
        assert!(!leaves[0].terminated);
    }

    #[test]
    fn recursion_with_decided_guards_terminates() {
        let src = "let rec walk x = if x <= 0 then 0 else walk (x - 1) in walk 2";
        let leaves = eval(src, &[]);
        assert_eq!(leaves.len(), 1);
        assert!(leaves[0].terminated);
        assert!(leaves[0].value.contains(0.0));
    }

    #[test]
    fn unbounded_recursion_on_wide_interval_hits_leaf_cap() {
        // walk on [0,1] keeps branching; the cap must keep this finite and
        // produce at least one divergent leaf.
        let src = "let rec walk x = if x <= 0 then 0 else walk (x - sample) in walk 1";
        let t = BoxN::new(vec![Interval::new(0.0, 1.0); 3]);
        let opts = IntervalOptions {
            fuel: 100_000,
            max_leaves: 64,
            ..IntervalOptions::default()
        };
        let leaves = eval_on_interval_trace(&parse(src).unwrap(), &t, opts);
        assert!(!leaves.is_empty());
        assert!(leaves.iter().any(|l| !l.terminated));
    }

    #[test]
    fn score_on_negative_interval_zeroes_weight() {
        let leaves = eval("score(0 - 1); 5", &[]);
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].weight, Interval::ZERO);
    }

    #[test]
    fn example_5_2_fixpoint_weight_is_one() {
        // The pedestrian's walk carries no score: any terminating leaf has
        // weight within [1, 1] (possibly dampened to [0, 1] by ambiguity).
        let src = "
            let rec walk x =
              if x <= 0 then 0 else
                let step = sample uniform(0, 1) in
                if sample <= 0.5 then step + walk (x + step)
                else step + walk (x - step)
            in walk 0";
        let leaves = eval(src, &[]);
        assert_eq!(leaves.len(), 1);
        assert!(leaves[0].terminated);
        assert!(leaves[0].weight.contains(1.0));
    }
}
