//! Property tests for symbolic values: the linear-form extraction and
//! the box-range evaluation must agree with direct evaluation.

use std::sync::Arc;

use gubpi_interval::{BoxN, Interval};
use gubpi_lang::PrimOp;
use gubpi_symbolic::SymVal;
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

proptest! {
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
