//! Differential suite: the compiled interval-tape kernel must agree
//! with the tree-walking interpreter **to the bit** on arbitrary
//! symbolic values, constraints and boxes.
//!
//! The kernel's whole contract is "same bits, less work": hash-consed
//! CSE, constant pre-folding, fused constraint passes and lane-blocked
//! evaluation may change *how* a range is computed but never a single
//! bit of any reported endpoint. These tests drive randomly generated
//! `SymVal` trees — including interval literals (the `approxFix`
//! artefacts), ±∞ endpoints, NaN-repairing additions of opposite
//! infinities, and out-of-domain distribution parameters (the zero-
//! density totality fix) — across random boxes and compare every
//! endpoint bit pattern against `range_over_box` / the four-walk
//! `cell_region` semantics.

use std::sync::Arc;

use gubpi_interval::{BoxN, Interval};
use gubpi_lang::PrimOp;
use gubpi_symbolic::{CmpDir, SymConstraint, SymPath, SymVal, Tape, LANES};
use proptest::prelude::*;

/// Constant palette: ordinary magnitudes, signed zeros, huge values and
/// both infinities (NaN constants are excluded — `Interval::point(NaN)`
/// panics identically in the interpreter and the compiler, so there is
/// nothing differential to observe).
const CONSTS: &[f64] = &[
    0.0,
    -0.0,
    0.5,
    -1.5,
    2.0,
    0.25,
    -3.0,
    1e300,
    -1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Interval-literal palette (what `approxFix` and truncation produce):
/// bounded, half-bounded and fully unbounded.
fn interval_palette() -> Vec<Interval> {
    vec![
        Interval::new(0.0, 1.0),
        Interval::new(-0.5, 0.5),
        Interval::new(0.25, 0.25),
        Interval::new(0.0, f64::INFINITY),
        Interval::new(f64::NEG_INFINITY, 0.0),
        Interval::REAL,
        Interval::new(-2.0, 3.0),
    ]
}

const UNARY: &[PrimOp] = &[
    PrimOp::Neg,
    PrimOp::Abs,
    PrimOp::Exp,
    PrimOp::Ln,
    PrimOp::Sqrt,
    PrimOp::Sigmoid,
    PrimOp::Floor,
    PrimOp::NormalQuantile,
    PrimOp::ExponentialQuantile,
    PrimOp::CauchyQuantile,
];

const BINARY: &[PrimOp] = &[
    PrimOp::Add,
    PrimOp::Sub,
    PrimOp::Mul,
    PrimOp::Div,
    PrimOp::Min,
    PrimOp::Max,
    PrimOp::ExponentialPdf,
];

/// Ternary ops are all distribution pdfs/quantiles — feeding them
/// arbitrary subtrees as parameters exercises exactly the
/// out-of-domain (zero-density / sound-enclosure) code paths.
const TERNARY: &[PrimOp] = &[
    PrimOp::NormalPdf,
    PrimOp::UniformPdf,
    PrimOp::BetaPdf,
    PrimOp::CauchyPdf,
    PrimOp::BetaQuantile,
];

/// Random symbolic values over `dims` sample variables. Built with raw
/// `SymVal::Prim` nodes (not the folding smart constructor) so constant
/// subtrees survive to the tape compiler and exercise its pre-folding.
fn arb_val(dims: usize) -> impl Strategy<Value = Arc<SymVal>> {
    let leaf = prop_oneof![
        (0..CONSTS.len()).prop_map(|i| Arc::new(SymVal::Const(CONSTS[i]))),
        (0..interval_palette().len())
            .prop_map(|i| Arc::new(SymVal::Interval(interval_palette()[i]))),
        (0..dims).prop_map(|i| Arc::new(SymVal::Sample(i))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            ((0..UNARY.len()), inner.clone())
                .prop_map(|(op, a)| Arc::new(SymVal::Prim(UNARY[op], vec![a]))),
            ((0..BINARY.len()), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| Arc::new(SymVal::Prim(BINARY[op], vec![a, b]))),
            ((0..TERNARY.len()), inner.clone(), inner.clone(), inner)
                .prop_map(|(op, a, b, c)| Arc::new(SymVal::Prim(TERNARY[op], vec![a, b, c]))),
        ]
    })
}

/// Random evaluation boxes: mostly sub-boxes of `[0, 1]` (the sample
/// space), with degenerate points and unbounded dimensions mixed in.
fn arb_box(dims: usize) -> impl Strategy<Value = BoxN> {
    let dim = prop_oneof![
        (0..8usize, 0..8usize).prop_map(|(a, b)| {
            let (lo, hi) = (a.min(b) as f64 / 8.0, (a.max(b) as f64 + 1.0) / 8.0);
            Interval::new(lo, hi.min(1.0))
        }),
        (0..9usize).prop_map(|a| Interval::point(a as f64 / 8.0)),
        Just(Interval::new(0.0, f64::INFINITY)),
        Just(Interval::new(-1.0, 2.0)),
    ];
    proptest::collection::vec(dim, dims..=dims).prop_map(BoxN::new)
}

fn assert_bits(got: Interval, want: Interval, ctx: &str) {
    assert!(
        got.lo().to_bits() == want.lo().to_bits() && got.hi().to_bits() == want.hi().to_bits(),
        "{ctx}: tape {got:?} differs from tree {want:?}"
    );
}

const DIMS: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Tape::for_value` ≡ `SymVal::range_over_box`, bit for bit.
    #[test]
    fn value_tapes_match_tree_ranges((v, b) in (arb_val(DIMS), arb_box(DIMS))) {
        let tape = Tape::for_value(DIMS, &v);
        let mut scratch = tape.scratch();
        let got = tape.eval_value(b.intervals(), &mut scratch);
        assert_bits(got, v.range_over_box(&b), "value tape");
    }

    /// Full fused path evaluation ≡ the four independent tree walks
    /// (∃-pass, ∀-pass, weight product, result range).
    #[test]
    fn path_tapes_match_the_four_walks(
        (result, c1, c2, score, b) in (
            arb_val(DIMS), arb_val(DIMS), arb_val(DIMS), arb_val(DIMS), arb_box(DIMS),
        ),
        dir1 in (0..2usize).prop_map(|b| b == 1),
        dir2 in (0..2usize).prop_map(|b| b == 1),
    ) {
        let dir = |le: bool| if le { CmpDir::LeZero } else { CmpDir::GtZero };
        let path = SymPath {
            result,
            n_samples: DIMS,
            constraints: vec![
                SymConstraint { value: c1, dir: dir(dir1) },
                SymConstraint { value: c2, dir: dir(dir2) },
            ],
            scores: vec![score],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        let tape = Tape::for_path(&path);
        let mut scratch = tape.scratch();
        let got = tape.eval_cell(b.intervals(), &mut scratch);
        let pos = path.constraints_on_box(&b, false);
        match got {
            None => prop_assert!(!pos, "tape excluded a possibly-inside cell"),
            Some(cell) => {
                prop_assert!(pos, "tape kept a definitely-outside cell");
                assert_bits(cell.value, path.result.range_over_box(&b), "result");
                assert_bits(cell.weight, path.weight_range_over_box(&b), "weight");
                prop_assert_eq!(cell.definite, path.constraints_on_box(&b, true));
            }
        }
    }

    /// Lane-blocked SoA evaluation ≡ scalar evaluation, lane by lane
    /// (the batched fast paths replicate the `Interval` operators).
    #[test]
    fn block_eval_matches_scalar_eval(
        (result, guard, score) in (arb_val(DIMS), arb_val(DIMS), arb_val(DIMS)),
        boxes in proptest::collection::vec(arb_box(DIMS), 1..(2 * LANES)),
    ) {
        let path = SymPath {
            result,
            n_samples: DIMS,
            constraints: vec![SymConstraint { value: guard, dir: CmpDir::LeZero }],
            scores: vec![score],
            truncated: false,
            budget_truncated: false,
            tail: None,
        };
        let tape = Tape::for_path(&path);
        let mut scalar = tape.scratch();
        let mut block = tape.scratch();
        for chunk in boxes.chunks(LANES) {
            for (lane, b) in chunk.iter().enumerate() {
                for (d, iv) in b.intervals().iter().enumerate() {
                    block.set_input(d, lane, *iv);
                }
            }
            let any = tape.eval_block(&mut block, chunk.len());
            for (lane, b) in chunk.iter().enumerate() {
                let want = tape.eval_cell(b.intervals(), &mut scalar);
                let got = if any { block.lane(lane) } else { None };
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        assert_bits(g.value, w.value, "lane value");
                        assert_bits(g.weight, w.weight, "lane weight");
                        prop_assert_eq!(g.definite, w.definite);
                    }
                    (g, w) => prop_assert!(false, "lane {}: {:?} vs {:?}", lane, g, w),
                }
            }
        }
    }
}

/// Deterministic corner cases the random generator may only rarely hit:
/// opposite-infinity additions (NaN repair), out-of-domain distribution
/// parameters (the PR-2 totality fix), and `approxFix`-style interval
/// literals feeding pdfs.
#[test]
fn corner_cases_agree_bit_for_bit() {
    let s = |i: usize| Arc::new(SymVal::Sample(i));
    let c = |x: f64| Arc::new(SymVal::Const(x));
    let iv = |i: Interval| Arc::new(SymVal::Interval(i));
    let prim = |op: PrimOp, args: Vec<Arc<SymVal>>| Arc::new(SymVal::Prim(op, args));

    let cases: Vec<Arc<SymVal>> = vec![
        // ∞ − ∞ inside a sum: the interpreter's NaN repair must be
        // replicated exactly by the tape's SoA Add/Sub fast paths.
        prim(
            PrimOp::Add,
            vec![
                prim(PrimOp::Sub, vec![c(f64::INFINITY), iv(Interval::NON_NEG)]),
                s(0),
            ],
        ),
        // 0 · [0, ∞]: the `0 · ∞ = 0` convention in the Mul fast path.
        prim(
            PrimOp::Mul,
            vec![prim(PrimOp::Mul, vec![c(0.0), s(0)]), iv(Interval::NON_NEG)],
        ),
        // Negative σ from a sample: zero-density totality fix — the
        // enclosure's lower endpoint must drop to 0 identically.
        prim(
            PrimOp::NormalPdf,
            vec![c(0.0), prim(PrimOp::Sub, vec![s(0), c(0.5)]), s(1)],
        ),
        // Entirely invalid rate: exactly [0, 0] on both sides.
        prim(PrimOp::ExponentialPdf, vec![c(-1.0), s(0)]),
        // Invalid beta shapes → [0, ∞] enclosure.
        prim(PrimOp::BetaPdf, vec![c(0.0), c(2.0), s(0)]),
        // approxFix interval literal as a pdf argument.
        prim(
            PrimOp::NormalPdf,
            vec![
                c(1.1),
                c(0.1),
                prim(PrimOp::Add, vec![s(0), iv(Interval::new(-0.25, 0.25))]),
            ],
        ),
        // Division by a zero-straddling interval → [−∞, ∞].
        prim(
            PrimOp::Div,
            vec![c(1.0), prim(PrimOp::Sub, vec![s(0), c(0.5)])],
        ),
        // Signed zero through Neg/Abs/Min chains.
        prim(
            PrimOp::Min,
            vec![
                prim(PrimOp::Neg, vec![c(0.0)]),
                prim(PrimOp::Abs, vec![s(1)]),
            ],
        ),
    ];
    let boxes = [
        BoxN::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]),
        BoxN::new(vec![Interval::point(0.5), Interval::point(0.25)]),
        BoxN::new(vec![
            Interval::new(0.5, 0.75),
            Interval::new(0.0, f64::INFINITY),
        ]),
        BoxN::new(vec![Interval::new(0.0, 0.5), Interval::new(-1.0, 2.0)]),
    ];
    for v in &cases {
        let tape = Tape::for_value(2, v);
        let mut scratch = tape.scratch();
        for b in &boxes {
            let got = tape.eval_value(b.intervals(), &mut scratch);
            assert_bits(got, v.range_over_box(b), &format!("{v} over {b:?}"));
        }
    }
}

/// Interval literals in constraints: the ∃/∀ distinction must survive
/// the fused pass (a constraint that possibly-but-not-definitely holds
/// yields `Some` with `definite == false`).
#[test]
fn interval_constraints_keep_the_forall_exists_distinction() {
    let path = SymPath {
        result: Arc::new(SymVal::Sample(0)),
        n_samples: 1,
        constraints: vec![SymConstraint {
            // (α₀ + [0, 1]) ≤ 0: at α₀ ∈ [−0.5, −0.5] the range is
            // [−0.5, 0.5] — possibly, not definitely, ≤ 0.
            value: Arc::new(SymVal::Prim(
                PrimOp::Add,
                vec![
                    Arc::new(SymVal::Sample(0)),
                    Arc::new(SymVal::Interval(Interval::UNIT)),
                ],
            )),
            dir: CmpDir::LeZero,
        }],
        scores: vec![],
        truncated: false,
        budget_truncated: false,
        tail: None,
    };
    let tape = Tape::for_path(&path);
    let mut scratch = tape.scratch();
    let straddle = tape
        .eval_cell(&[Interval::point(-0.5)], &mut scratch)
        .expect("possibly inside");
    assert!(!straddle.definite, "not all refinements satisfy ≤ 0");
    let inside = tape
        .eval_cell(&[Interval::point(-1.5)], &mut scratch)
        .expect("definitely inside");
    assert!(inside.definite);
    assert!(tape
        .eval_cell(&[Interval::point(0.5)], &mut scratch)
        .is_none());
}
