//! Symbolic values over sample variables (Appendix B).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

use gubpi_interval::{BoxN, Interval};
use gubpi_lang::PrimOp;
use gubpi_polytope::LinExpr;

/// A symbolic value: a term over sample variables `α_i`, constants,
/// interval literals (from `approxFix`) and delayed primitive
/// applications.
///
/// Values are DAGs: the executor shares subterms. Each application
/// carries a header ([`Args`]) filled in once when it is built, so its
/// digest, unit-cube range and size as a tree are field reads.
///
/// `PartialEq` is structural, with float literals compared by value. A
/// node compared with itself is equal by address. Past a few hundred
/// primitive applications the comparison walks the value as the DAG it
/// is: a pair of nodes once proven equal is not compared again,
/// so it costs the node count, not the size of the expanded tree.
#[derive(Clone, Debug)]
pub enum SymVal {
    /// A real constant.
    Const(f64),
    /// An interval literal `[a, b]` (appears after `approxFix`).
    Interval(Interval),
    /// The sample variable `α_i` (0-based).
    Sample(usize),
    /// A delayed primitive application.
    Prim(PrimOp, Args),
}

/// The arguments of a primitive application (it derefs to them) and the
/// node's header, computed once by the constructors: its digest (see
/// [`SymVal::feed`]), `op.eval_interval` of its arguments' unit ranges,
/// and its applications as an expanded tree, saturating.
#[derive(Clone, Debug)]
pub struct Args {
    args: Box<[Arc<SymVal>]>,
    digest: u64,
    unit_range: Interval,
    op_count: u64,
}

impl Deref for Args {
    type Target = [Arc<SymVal>];

    fn deref(&self) -> &[Arc<SymVal>] {
        &self.args
    }
}

impl PartialEq for SymVal {
    fn eq(&self, other: &SymVal) -> bool {
        let mut budget = TREE_EQ_BUDGET;
        dag_eq(self, other, &mut budget, &mut HashSet::new())
    }
}

/// Pairs of primitive applications a comparison walks as a tree before
/// it starts remembering pairs proven equal. A remembered pair costs a
/// set probe and insert, more than comparing a small value outright,
/// and most values are small as trees even where large ones (fig6e's)
/// need the memo. Measured on release builds (2 vCPUs), comparing every
/// path of an analyzer with a separately built copy (a warm cache
/// lookup by a fresh analyzer): pedestrian's 4,786 paths take 35–41 ms
/// at 256 and 97–174 ms when every pair is remembered (budget 0);
/// fig6e's 17 take 0.22–0.27 ms at 256, 0.15–0.22 ms at 0, and 0.9 ms
/// at 4,096. Budgets of 16 and 64 were slower on pedestrian, 1,024
/// slower on fig6e.
const TREE_EQ_BUDGET: usize = 256;

/// Structural equality of `a` and `b`. The first `budget` pairs of
/// primitive applications are compared as a tree; after that, `proven`
/// remembers the address pairs proven equal, so shared subterms are
/// compared once.
fn dag_eq(
    a: &SymVal,
    b: &SymVal,
    budget: &mut usize,
    proven: &mut HashSet<(*const SymVal, *const SymVal)>,
) -> bool {
    if std::ptr::eq(a, b) {
        return true;
    }
    let (SymVal::Prim(op, xs), SymVal::Prim(oq, ys)) = (a, b) else {
        return match (a, b) {
            (SymVal::Const(x), SymVal::Const(y)) => x == y,
            (SymVal::Interval(x), SymVal::Interval(y)) => x == y,
            (SymVal::Sample(i), SymVal::Sample(j)) => i == j,
            _ => false,
        };
    };
    if op != oq || xs.len() != ys.len() {
        return false;
    }
    let pair = (a as *const SymVal, b as *const SymVal);
    let remember = *budget == 0;
    if remember && proven.contains(&pair) {
        return true;
    }
    *budget = budget.saturating_sub(1);
    let eq = xs
        .iter()
        .zip(&**ys)
        .all(|(x, y)| dag_eq(x, y, budget, proven));
    if eq && remember {
        proven.insert(pair);
    }
    eq
}

impl SymVal {
    /// Smart constructor for primitive applications: folds constants so
    /// that deterministic guards stay decidable. Primitives are total —
    /// out-of-domain distribution parameters fold to the zero density
    /// the concrete semantics assigns them — so folding never panics.
    pub fn prim(op: PrimOp, args: Vec<Arc<SymVal>>) -> Arc<SymVal> {
        let consts = args.iter().map(|a| match **a {
            SymVal::Const(c) => Some(c),
            _ => None,
        });
        if let Some(xs) = consts.collect::<Option<Vec<f64>>>() {
            return Arc::new(SymVal::Const(op.eval(&xs)));
        }
        SymVal::unfolded(op, args)
    }

    /// A primitive application exactly as given, constant arguments
    /// included, with its header filled in; panics when `args` does not
    /// match the arity of `op`. [`SymVal::prim`] folds first; this
    /// builds §6.4 skeletons and the raw nodes of tests.
    pub fn unfolded(op: PrimOp, args: Vec<Arc<SymVal>>) -> Arc<SymVal> {
        let mut h = DefaultHasher::new();
        op.hash(&mut h);
        args.len().hash(&mut h);
        let mut ranges = [Interval::ZERO; 3];
        let mut op_count = 1u64;
        for (r, a) in ranges.iter_mut().zip(&args) {
            a.feed(&mut h);
            *r = a.unit_range();
            op_count = op_count.saturating_add(a.prim_op_count());
        }
        let unit_range = op.eval_interval(&ranges[..args.len()]);
        Arc::new(SymVal::Prim(
            op,
            Args {
                args: args.into_boxed_slice(),
                digest: h.finish(),
                unit_range,
                op_count,
            },
        ))
    }

    /// Feeds the structure of the value into `h`: a leaf's tag and
    /// payload (floats by bit pattern), or a primitive application's tag
    /// and digest. The digest hashes the operator, the argument count
    /// and each argument fed the same way, so a DAG feeds like its
    /// expanded tree: sharing is not structure.
    pub fn feed(&self, h: &mut impl Hasher) {
        match self {
            SymVal::Const(c) => (0u8, c.to_bits()).hash(h),
            SymVal::Interval(i) => (1u8, i.lo().to_bits(), i.hi().to_bits()).hash(h),
            SymVal::Sample(i) => (2u8, i).hash(h),
            SymVal::Prim(_, args) => (3u8, args.digest).hash(h),
        }
    }

    /// Counts how often each sample variable occurs (Assumption 1 of §4.2
    /// requires each count ≤ 1 per constraint/score/result).
    pub fn count_sample_uses(&self, counts: &mut Vec<usize>) {
        match self {
            SymVal::Const(_) | SymVal::Interval(_) => {}
            SymVal::Sample(i) => {
                if counts.len() <= *i {
                    counts.resize(*i + 1, 0);
                }
                counts[*i] += 1;
            }
            SymVal::Prim(_, args) => {
                for a in args.iter() {
                    a.count_sample_uses(counts);
                }
            }
        }
    }

    /// Number of primitive applications a recursive walk evaluates,
    /// saturating at `u64::MAX`: shared `Arc`s count once per
    /// *occurrence*, because a tree walk re-descends into them every
    /// time it meets one. This is both the kernel's pre-CSE baseline and
    /// the per-cell cost of a tape's tree-walk form. A header read.
    pub fn prim_op_count(&self) -> u64 {
        match self {
            SymVal::Const(_) | SymVal::Interval(_) | SymVal::Sample(_) => 0,
            SymVal::Prim(_, args) => args.op_count,
        }
    }

    /// Does the value contain interval literals (i.e. was `approxFix`
    /// involved)?
    pub fn has_intervals(&self) -> bool {
        match self {
            SymVal::Interval(_) => true,
            SymVal::Const(_) | SymVal::Sample(_) => false,
            SymVal::Prim(_, args) => args.iter().any(|a| a.has_intervals()),
        }
    }

    /// `⌜V[s/α]⌝` — evaluates with concrete samples, returning the set of
    /// possible results as an interval (a point iff the value is
    /// interval-free).
    ///
    /// # Panics
    ///
    /// Panics when `s` is shorter than the largest sample index used.
    pub fn eval(&self, s: &[f64]) -> Interval {
        match self {
            SymVal::Const(c) => Interval::point(*c),
            SymVal::Interval(i) => *i,
            SymVal::Sample(i) => Interval::point(s[*i]),
            SymVal::Prim(op, args) => {
                let xs: Vec<Interval> = args.iter().map(|a| a.eval(s)).collect();
                op.eval_interval(&xs)
            }
        }
    }

    /// Interval range over a box of sample values (sound, exact when each
    /// sample occurs at most once — Assumption 1).
    ///
    /// # Panics
    ///
    /// Panics when the box is lower-dimensional than the samples used.
    pub fn range_over_box(&self, b: &BoxN) -> Interval {
        match self {
            SymVal::Const(c) => Interval::point(*c),
            SymVal::Interval(i) => *i,
            SymVal::Sample(i) => b[*i],
            SymVal::Prim(op, args) => {
                let xs: Vec<Interval> = args.iter().map(|a| a.range_over_box(b)).collect();
                op.eval_interval(&xs)
            }
        }
    }

    /// The range of the value when every sample ranges over `[0, 1]`:
    /// bit for bit `range_over_box` of the unit cube, as a header read.
    pub fn unit_range(&self) -> Interval {
        match self {
            SymVal::Const(c) => Interval::point(*c),
            SymVal::Interval(i) => *i,
            SymVal::Sample(_) => Interval::UNIT,
            SymVal::Prim(_, args) => args.unit_range,
        }
    }

    /// Extracts an *interval-linear form* `w·α + [a, b]` (§6.4), if the
    /// value is linear in the sample variables: addition, subtraction,
    /// negation, and multiplication/division by interval-free constants.
    /// Several values of one path share a [`LinearForms`] instead.
    pub fn linear_form(&self, dim: usize) -> Option<(LinExpr, Interval)> {
        LinearForms::new(dim).of(self)
    }

    /// Decomposes a value into `f(Z₁, …, Z_m)` where each `Zᵢ` is a
    /// maximal interval-linear sub-expression (Appendix E.1): returns the
    /// skeleton with [`SymVal::Sample`] leaves replaced by placeholder
    /// indices into the returned linear parts. Several values of one
    /// path share a [`LinearForms`] instead.
    pub fn linear_decomposition(self: &Arc<SymVal>, dim: usize) -> Decomposition {
        LinearForms::new(dim).decompose(self)
    }
}

/// The interval-linear forms (§6.4) of the values of one path over
/// `dim` samples, memoised by node address: a subterm shared by several
/// parents or several roots is formed once, so a walk costs the DAG's
/// node count, not the size of its expanded tree. The borrow `'v` keeps
/// every memoised node alive, so no address is reused while the memo
/// holds it.
pub struct LinearForms<'v> {
    dim: usize,
    forms: HashMap<*const SymVal, Option<(LinExpr, Interval)>>,
    values: PhantomData<&'v SymVal>,
}

impl<'v> LinearForms<'v> {
    /// An empty memo for values over `dim` samples.
    pub fn new(dim: usize) -> LinearForms<'v> {
        LinearForms {
            dim,
            forms: HashMap::new(),
            values: PhantomData,
        }
    }

    /// The interval-linear form of `v` ([`SymVal::linear_form`]).
    pub fn of(&mut self, v: &'v SymVal) -> Option<(LinExpr, Interval)> {
        let dim = self.dim;
        let SymVal::Prim(op, args) = v else {
            return match v {
                SymVal::Const(c) => Some((LinExpr::constant(dim, *c), Interval::ZERO)),
                SymVal::Interval(i) => Some((LinExpr::constant(dim, 0.0), *i)),
                SymVal::Sample(i) if *i < dim => Some((LinExpr::var(dim, *i), Interval::ZERO)),
                _ => None,
            };
        };
        if let Some(form) = self.forms.get(&(v as *const SymVal)) {
            return form.clone();
        }
        let form = self.prim(*op, args);
        self.forms.insert(v, form.clone());
        form
    }

    fn prim(&mut self, op: PrimOp, args: &'v [Arc<SymVal>]) -> Option<(LinExpr, Interval)> {
        match op {
            PrimOp::Add => {
                let (l1, i1) = self.of(&args[0])?;
                let (l2, i2) = self.of(&args[1])?;
                Some((&l1 + &l2, i1 + i2))
            }
            PrimOp::Sub => {
                let (l1, i1) = self.of(&args[0])?;
                let (l2, i2) = self.of(&args[1])?;
                Some((&l1 - &l2, i1 - i2))
            }
            PrimOp::Neg => {
                let (l, i) = self.of(&args[0])?;
                Some((-&l, -i))
            }
            PrimOp::Mul => {
                let (l1, i1) = self.of(&args[0])?;
                let (l2, i2) = self.of(&args[1])?;
                // One side must be a pure point constant.
                if l1.is_constant() && i1.is_point() {
                    let k = l1.constant_term() + i1.lo();
                    Some((l2.scale(k), i2 * Interval::point(k)))
                } else if l2.is_constant() && i2.is_point() {
                    let k = l2.constant_term() + i2.lo();
                    Some((l1.scale(k), i1 * Interval::point(k)))
                } else {
                    None
                }
            }
            PrimOp::Div => {
                let (l1, i1) = self.of(&args[0])?;
                let (l2, i2) = self.of(&args[1])?;
                if l2.is_constant() && i2.is_point() {
                    let k = l2.constant_term() + i2.lo();
                    if k != 0.0 {
                        return Some((l1.scale(1.0 / k), i1 * Interval::point(1.0 / k)));
                    }
                }
                None
            }
            _ => None,
        }
    }

    /// The decomposition of `v` ([`SymVal::linear_decomposition`]). A
    /// subterm shared by several parents is decomposed once: its
    /// skeleton is shared too, and so are its parts.
    pub fn decompose(&mut self, v: &'v Arc<SymVal>) -> Decomposition {
        let mut parts = Vec::new();
        let skeleton = self.skeleton(v, &mut parts, &mut HashMap::new());
        Decomposition { skeleton, parts }
    }

    fn skeleton(
        &mut self,
        v: &'v Arc<SymVal>,
        parts: &mut Vec<(LinExpr, Interval)>,
        done: &mut HashMap<*const SymVal, Arc<SymVal>>,
    ) -> Arc<SymVal> {
        if let Some(s) = done.get(&Arc::as_ptr(v)) {
            return s.clone();
        }
        let s = if let Some(lf) = self.of(v) {
            // Constant linear forms are inlined as interval literals —
            // the original node may still *syntactically* contain
            // samples (e.g. `0 · α₀`), which must not survive into the
            // skeleton where `Sample` leaves denote part indices.
            if lf.0.is_constant() {
                Arc::new(SymVal::Interval(
                    Interval::point(lf.0.constant_term()) + lf.1,
                ))
            } else {
                parts.push(lf);
                Arc::new(SymVal::Sample(parts.len() - 1))
            }
        } else {
            match &**v {
                SymVal::Prim(op, args) => {
                    let new_args = args.iter().map(|a| self.skeleton(a, parts, done)).collect();
                    SymVal::unfolded(*op, new_args)
                }
                // Non-linear leaves cannot occur (leaves are always linear).
                _ => v.clone(),
            }
        };
        done.insert(Arc::as_ptr(v), s.clone());
        s
    }
}

/// The result of [`SymVal::linear_decomposition`]: a skeleton value whose
/// `Sample(k)` leaves index into `parts` (interval-linear functions).
/// Once each part's range is known, the skeleton's range is
/// `skeleton.range_over_box` of the box of part ranges.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Skeleton with placeholder `Sample(k)` leaves referring to `parts[k]`.
    pub skeleton: Arc<SymVal>,
    /// The extracted interval-linear sub-expressions.
    pub parts: Vec<(LinExpr, Interval)>,
}

impl fmt::Display for SymVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymVal::Const(c) => write!(f, "{c}"),
            SymVal::Interval(i) => write!(f, "{i}"),
            SymVal::Sample(i) => write!(f, "a{i}"),
            SymVal::Prim(op, args) => {
                write!(f, "{}(", op.name())?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: usize) -> Arc<SymVal> {
        Arc::new(SymVal::Sample(i))
    }
    fn c(x: f64) -> Arc<SymVal> {
        Arc::new(SymVal::Const(x))
    }

    #[test]
    fn constant_folding_in_smart_constructor() {
        let v = SymVal::prim(PrimOp::Add, vec![c(2.0), c(3.0)]);
        assert_eq!(*v, SymVal::Const(5.0));
        let w = SymVal::prim(PrimOp::Add, vec![c(2.0), s(0)]);
        assert!(matches!(*w, SymVal::Prim(..)));
    }

    #[test]
    fn evaluation_substitutes_samples() {
        // 3·α₀ + α₁
        let v = SymVal::prim(
            PrimOp::Add,
            vec![SymVal::prim(PrimOp::Mul, vec![c(3.0), s(0)]), s(1)],
        );
        assert_eq!(v.eval(&[0.5, 0.25]), Interval::point(1.75));
        assert!(!v.has_intervals());
    }

    #[test]
    fn range_over_box_bounds_value() {
        let v = SymVal::prim(PrimOp::Mul, vec![c(3.0), s(0)]);
        assert_eq!(v.unit_range(), Interval::new(0.0, 3.0));
        assert_eq!(v.range_over_box(&BoxN::unit_cube(1)), v.unit_range());
    }

    #[test]
    fn linear_form_extraction() {
        // 3·α₀ − α₁ + 1 + [0, ∞]
        let v = SymVal::prim(
            PrimOp::Add,
            vec![
                SymVal::prim(
                    PrimOp::Sub,
                    vec![
                        SymVal::prim(PrimOp::Mul, vec![c(3.0), s(0)]),
                        SymVal::prim(PrimOp::Sub, vec![s(1), c(1.0)]),
                    ],
                ),
                Arc::new(SymVal::Interval(Interval::NON_NEG)),
            ],
        );
        let (lin, iv) = v.linear_form(2).expect("linear");
        assert_eq!(lin.coeffs(), &[3.0, -1.0]);
        assert_eq!(lin.constant_term(), 1.0);
        assert_eq!(iv, Interval::NON_NEG);
    }

    #[test]
    fn nonlinear_values_have_no_linear_form() {
        let v = SymVal::prim(PrimOp::Mul, vec![s(0), s(1)]);
        assert!(v.linear_form(2).is_none());
        let w = SymVal::prim(PrimOp::Exp, vec![s(0)]);
        assert!(w.linear_form(1).is_none());
    }

    #[test]
    fn example_e1_decomposition_of_pdf_score() {
        // pdf_normal(1.1, 0.1, α₁ + α₂): one linear part α₁ + α₂.
        let arg = SymVal::prim(PrimOp::Add, vec![s(1), s(2)]);
        let v = SymVal::prim(PrimOp::NormalPdf, vec![c(1.1), c(0.1), arg]);
        let d = v.linear_decomposition(3);
        assert_eq!(d.parts.len(), 1);
        assert_eq!(d.parts[0].0.coeffs(), &[0.0, 1.0, 1.0]);
        // Evaluating the skeleton with the part pinned to [0.9, 0.9]
        // reproduces the pdf at 0.9.
        use gubpi_dist::ContinuousDist;
        let r = d
            .skeleton
            .range_over_box(&BoxN::new(vec![Interval::point(0.9)]));
        let want = gubpi_dist::Normal::new(1.1, 0.1).pdf(0.9);
        assert!((r.lo() - want).abs() < 1e-12 && (r.hi() - want).abs() < 1e-12);
    }

    #[test]
    fn sample_use_counting_detects_assumption_1() {
        let ok = SymVal::prim(PrimOp::Add, vec![s(0), s(1)]);
        let mut counts = Vec::new();
        ok.count_sample_uses(&mut counts);
        assert_eq!(counts, vec![1, 1]);
        let bad = SymVal::prim(PrimOp::Sub, vec![s(0), s(0)]);
        let mut counts = Vec::new();
        bad.count_sample_uses(&mut counts);
        assert_eq!(counts, vec![2]);
    }

    /// Every node, leaves included, pays for the header: a new field
    /// should be a decision, not an accident.
    #[test]
    fn symval_is_56_bytes() {
        assert_eq!(std::mem::size_of::<SymVal>(), 56);
    }

    #[test]
    fn display_is_compact() {
        let v = SymVal::prim(PrimOp::Add, vec![s(0), c(1.0)]);
        assert_eq!(v.to_string(), "add(a0, 1)");
    }
}
