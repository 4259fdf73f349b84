//! Property tests for symbolic values: the linear-form extraction and
//! the box-range evaluation must agree with direct evaluation, and each
//! node's header must agree with the walks it replaces.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gubpi_interval::{BoxN, Interval};
use gubpi_lang::PrimOp;
use gubpi_symbolic::{CmpDir, SymConstraint, SymPath, SymVal, TailEnclosure, TailPrefix};
use proptest::prelude::*;

/// Random interval-linear symbolic values over `dim` samples, built from
/// the linear operators only.
fn linear_symval(dim: usize) -> impl Strategy<Value = Arc<SymVal>> {
    let leaf = prop_oneof![
        (0..dim).prop_map(|i| Arc::new(SymVal::Sample(i))),
        (-5.0f64..5.0).prop_map(|c| Arc::new(SymVal::Const(c))),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymVal::prim(PrimOp::Add, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymVal::prim(PrimOp::Sub, vec![a, b])),
            (inner.clone(), -3.0f64..3.0).prop_map(|(a, k)| {
                SymVal::prim(PrimOp::Mul, vec![Arc::new(SymVal::Const(k)), a])
            }),
            inner
                .clone()
                .prop_map(|a| SymVal::prim(PrimOp::Neg, vec![a])),
        ]
    })
}

/// Arbitrary (possibly non-linear) symbolic values.
fn any_symval(dim: usize) -> impl Strategy<Value = Arc<SymVal>> {
    let leaf = prop_oneof![
        (0..dim).prop_map(|i| Arc::new(SymVal::Sample(i))),
        (-3.0f64..3.0).prop_map(|c| Arc::new(SymVal::Const(c))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymVal::prim(PrimOp::Add, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymVal::prim(PrimOp::Mul, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymVal::prim(PrimOp::Min, vec![a, b])),
            inner
                .clone()
                .prop_map(|a| SymVal::prim(PrimOp::Abs, vec![a])),
            inner
                .clone()
                .prop_map(|a| SymVal::prim(PrimOp::Sigmoid, vec![a])),
        ]
    })
}

/// Leaves of [`Recipe`]s: signed zeros (equal as values, different as
/// bits), an interval literal and the samples of a 3-dimensional space.
const LEAVES: [SymVal; 6] = [
    SymVal::Const(0.0),
    SymVal::Const(-0.0),
    SymVal::Const(1.5),
    SymVal::Interval(Interval::UNIT),
    SymVal::Sample(0),
    SymVal::Sample(2),
];

const OPS: [PrimOp; 9] = [
    PrimOp::Neg,
    PrimOp::Abs,
    PrimOp::Exp,
    PrimOp::Sigmoid,
    PrimOp::Add,
    PrimOp::Sub,
    PrimOp::Mul,
    PrimOp::Div,
    PrimOp::Max,
];

/// A value as a numbered list: the leaves, then applications whose
/// arguments are earlier entries, so an entry can be used many times.
#[derive(Clone, Debug)]
struct Recipe {
    leaves: Vec<usize>,
    apps: Vec<(usize, usize, usize)>,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(0..LEAVES.len(), 1..4),
        proptest::collection::vec((0..OPS.len(), 0..64usize, 0..64usize), 1..10),
    )
        .prop_map(|(leaves, apps)| Recipe { leaves, apps })
}

impl Recipe {
    fn len(&self) -> usize {
        self.leaves.len() + self.apps.len()
    }

    /// Entry `k`, shared: every use of an entry is the same node.
    fn dag(&self) -> Vec<Arc<SymVal>> {
        let mut built: Vec<Arc<SymVal>> = Vec::new();
        for &l in &self.leaves {
            built.push(Arc::new(LEAVES[l].clone()));
        }
        for &(op, a, b) in &self.apps {
            let args = self.args(built.len(), op, a, b).map(|j| built[j].clone());
            built.push(SymVal::unfolded(OPS[op], args.collect()));
        }
        built
    }

    /// Entry `k` as a tree: every use of an entry is built afresh.
    fn tree(&self, k: usize) -> Arc<SymVal> {
        if k < self.leaves.len() {
            return Arc::new(LEAVES[self.leaves[k]].clone());
        }
        let (op, a, b) = self.apps[k - self.leaves.len()];
        let args = self.args(k, op, a, b).map(|j| self.tree(j));
        SymVal::unfolded(OPS[op], args.collect())
    }

    /// The entries application `op` at position `at` takes.
    fn args(&self, at: usize, op: usize, a: usize, b: usize) -> impl Iterator<Item = usize> {
        [a % at, b % at].into_iter().take(OPS[op].arity())
    }
}

/// Applications in the expanded tree, by recursion.
fn tree_op_count(v: &SymVal) -> u64 {
    match v {
        SymVal::Prim(_, args) => 1 + args.iter().map(|a| tree_op_count(a)).sum::<u64>(),
        _ => 0,
    }
}

/// The fingerprint as computed before values carried digests: one digest
/// map per call, keyed by node address.
fn reference_fingerprint(p: &SymPath) -> u64 {
    fn node(v: &Arc<SymVal>, h: &mut DefaultHasher, digests: &mut HashMap<*const SymVal, u64>) {
        match &**v {
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
                let digest = match digests.get(&Arc::as_ptr(v)) {
                    Some(&d) => d,
                    None => {
                        let mut ph = DefaultHasher::new();
                        op.hash(&mut ph);
                        args.len().hash(&mut ph);
                        for a in args.iter() {
                            node(a, &mut ph, digests);
                        }
                        let d = ph.finish();
                        digests.insert(Arc::as_ptr(v), d);
                        d
                    }
                };
                digest.hash(h);
            }
        }
    }
    let digests = &mut HashMap::new();
    let mut h = DefaultHasher::new();
    p.n_samples.hash(&mut h);
    p.truncated.hash(&mut h);
    p.budget_truncated.hash(&mut h);
    match &p.tail {
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
                Some(q) => {
                    1u8.hash(&mut h);
                    q.prefix_bound.hash(&mut h);
                }
            }
        }
    }
    node(&p.result, &mut h, digests);
    p.constraints.len().hash(&mut h);
    for c in &p.constraints {
        matches!(c.dir, CmpDir::LeZero).hash(&mut h);
        node(&c.value, &mut h, digests);
    }
    p.scores.len().hash(&mut h);
    for w in &p.scores {
        node(w, &mut h, digests);
    }
    h.finish()
}

/// A path over three samples whose result, constraint and score are the
/// given values.
fn path_of(result: Arc<SymVal>, guard: Arc<SymVal>, score: Arc<SymVal>, tail: bool) -> SymPath {
    SymPath {
        result,
        n_samples: 3,
        constraints: vec![SymConstraint {
            value: guard,
            dir: CmpDir::GtZero,
        }],
        scores: vec![score],
        truncated: tail,
        budget_truncated: tail,
        tail: tail.then_some(TailEnclosure {
            unfoldings_explored: 2,
            per_step_weight: Interval::new(0.0, 0.5),
            continuation_weight: Interval::UNIT,
            prefix: Some(TailPrefix { prefix_bound: 3 }),
        }),
    }
}

proptest! {
    /// Every node's header equals the walks it replaces, built as a DAG
    /// or as a tree: the unit range is `range_over_box` of the unit cube
    /// bit for bit, the op count is the recursive count, and a path's
    /// fingerprint is the per-call-map fingerprint.
    #[test]
    fn headers_match_the_walks_they_replace(r in recipe(), tail in 0..2u8) {
        let tail = tail == 1;
        let dag = r.dag();
        let cube = BoxN::unit_cube(3);
        for (k, d) in dag.iter().enumerate() {
            for v in [d, &r.tree(k)] {
                let (got, want) = (v.unit_range(), v.range_over_box(&cube));
                prop_assert_eq!(got.lo().to_bits(), want.lo().to_bits(), "{}", v);
                prop_assert_eq!(got.hi().to_bits(), want.hi().to_bits(), "{}", v);
                prop_assert_eq!(v.prim_op_count(), tree_op_count(v), "{}", v);
            }
        }
        let n = r.len();
        let pick = |k: usize| (dag[k].clone(), r.tree(k));
        let (res, res_tree) = pick(n - 1);
        let (guard, guard_tree) = pick(n / 2);
        let (score, score_tree) = pick(0);
        let shared = path_of(res, guard, score, tail);
        let fresh = path_of(res_tree, guard_tree, score_tree, tail);
        prop_assert_eq!(shared.fingerprint(), reference_fingerprint(&shared));
        prop_assert_eq!(fresh.fingerprint(), reference_fingerprint(&fresh));
        prop_assert_eq!(shared.fingerprint(), fresh.fingerprint());
    }

    /// A successfully extracted linear form evaluates identically to the
    /// original symbolic value.
    #[test]
    fn linear_form_agrees_with_eval(v in linear_symval(3),
                                    s in proptest::collection::vec(0.0f64..1.0, 3)) {
        let (lin, iv) = v.linear_form(3).expect("built from linear ops");
        prop_assert!(iv.is_point() && iv.lo() == 0.0, "no interval literals used");
        let direct = v.eval(&s);
        prop_assert!(direct.is_point());
        let via_form = lin.eval(&s);
        prop_assert!((direct.lo() - via_form).abs() < 1e-9 * (1.0 + via_form.abs()),
                     "{} vs {}", direct.lo(), via_form);
    }

    /// Box ranges are sound for arbitrary values: the value at any point
    /// of the box lies within the computed range.
    #[test]
    fn range_over_box_is_sound(v in any_symval(3),
                               s in proptest::collection::vec(0.0f64..1.0, 3)) {
        let b = BoxN::unit_cube(3);
        let range = v.range_over_box(&b);
        let point = v.eval(&s);
        prop_assert!(range.outward().contains(point.lo()),
                     "{point:?} outside {range:?} for {v}");
    }

    /// Decomposition round-trip: evaluating the skeleton with parts pinned
    /// to their point values reproduces the direct evaluation.
    #[test]
    fn decomposition_roundtrip(v in any_symval(3),
                               s in proptest::collection::vec(0.0f64..1.0, 3)) {
        let d = v.linear_decomposition(3);
        let part_vals: Vec<Interval> = d
            .parts
            .iter()
            .map(|(lin, iv)| Interval::point(lin.eval(&s)) + *iv)
            .collect();
        let via = d.skeleton.range_over_box(&BoxN::new(part_vals));
        let direct = v.eval(&s);
        // Linear forms re-associate sums (Σ wᵢxᵢ + c vs the original
        // tree), so allow a small relative tolerance, not just one ulp.
        let tol = 1e-12 * (1.0 + direct.lo().abs());
        prop_assert!(via.lo() - tol <= direct.lo() && direct.lo() <= via.hi() + tol,
                     "{direct:?} outside {via:?} for {v}");
    }
}
