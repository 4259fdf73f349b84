//! Cross-checks between independent implementations inside the pipeline:
//! linear vs grid semantics, exact vs certified volumes, fast vs exact
//! histograms — all must bracket the same truths.

use gubpi_core::{bound_path, bound_path_query, PathBoundOptions, QueryFold, Threads};
use gubpi_core::{AnalysisOptions, Analyzer, Method};
use gubpi_interval::Interval;
use gubpi_lang::{infer, parse};
use gubpi_symbolic::{symbolic_paths, SymExecOptions, SymPath};
use gubpi_types::infer_interval_types;
use proptest::prelude::*;

fn paths_of(src: &str) -> Vec<SymPath> {
    let p = parse(src).unwrap();
    let simple = infer(&p).unwrap();
    let typing = infer_interval_types(&p, &simple);
    symbolic_paths(&p, &typing, SymExecOptions::default())
}

/// Query both the linear (polytope) and grid semantics on linear models;
/// the intersection must be non-empty and the linear bounds at least as
/// tight in total width.
#[test]
fn linear_and_grid_agree_on_linear_models() {
    let cases = [
        ("sample + sample", Interval::new(0.4, 1.1)),
        (
            "if sample + sample <= 0.8 then 1 else 0",
            Interval::new(0.5, 1.5),
        ),
        ("let x = sample in score(x); x", Interval::new(0.25, 0.8)),
    ];
    for (src, u) in cases {
        let linear = Analyzer::from_source(src, AnalysisOptions::default()).unwrap();
        let grid = Analyzer::from_source(
            src,
            AnalysisOptions {
                method: Method::Grid,
                ..Default::default()
            },
        )
        .unwrap();
        let (ll, lh) = linear.denotation_bounds(u);
        let (gl, gh) = grid.denotation_bounds(u);
        assert!(ll <= gh + 1e-9 && gl <= lh + 1e-9, "{src}: disjoint bounds");
        assert!(
            lh - ll <= gh - gl + 1e-9,
            "{src}: linear [{ll},{lh}] wider than grid [{gl},{gh}]"
        );
    }
}

/// Certified box volumes must bracket the exact Lasserre-based bounds.
#[test]
fn certified_volumes_bracket_exact_bounds() {
    let u = Interval::new(0.5, 1.5);
    for src in [
        "if sample + sample <= 0.75 then 1 else 0",
        "if sample + sample + sample <= 1.2 then 1 else 0",
    ] {
        for path in paths_of(src) {
            let exact = bound_path_query(&path, u, PathBoundOptions::default(), Threads::Off);
            let certified = bound_path_query(
                &path,
                u,
                PathBoundOptions {
                    certified_volumes: true,
                    volume_budget: 4_000,
                    ..Default::default()
                },
                Threads::Off,
            );
            assert!(
                certified.0 <= exact.0 + 1e-7,
                "{src}: certified lower {} above exact {}",
                certified.0,
                exact.0
            );
            assert!(
                certified.1 >= exact.1 - 1e-7,
                "{src}: certified upper {} below exact {}",
                certified.1,
                exact.1
            );
        }
    }
}

/// The sink-based region stream and the direct query must agree for
/// point queries on linear paths up to the sink's bin-boundary slack.
#[test]
fn sink_and_query_are_consistent() {
    let u = Interval::new(0.13, 0.77); // avoids chunk boundaries
    for src in ["sample", "let x = sample in score(x + 0.5); x"] {
        for path in paths_of(src) {
            let (ql, qh) = bound_path_query(&path, u, PathBoundOptions::default(), Threads::Off);
            let (fold, mut sink) = (QueryFold::Filter(u), (0.0, 0.0));
            let opts = PathBoundOptions::default();
            bound_path(&path, opts, Method::Auto, Threads::Off, |r| {
                fold.apply(&mut sink, r)
            });
            // The query folds U into the polytope, so it is at least as
            // tight; both must stay ordered.
            assert!(sink.0 <= ql + 1e-9, "{src}: sink lower too high");
            assert!(sink.1 >= qh - 1e-9, "{src}: sink upper too low");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random query intervals: query bounds are always ordered, within
    /// [0, Z_hi], and monotone under interval inclusion.
    #[test]
    fn query_bounds_are_monotone_in_u(a in 0.0f64..1.0, w1 in 0.01f64..0.5, w2 in 0.01f64..0.5) {
        let src = "let x = sample in score(x + sample); x";
        let analyzer = Analyzer::from_source(src, AnalysisOptions::default()).unwrap();
        let small = Interval::new(a, (a + w1).min(1.0));
        let big = Interval::new((a - w2).max(0.0), (a + w1).min(1.0));
        let (sl, sh) = analyzer.denotation_bounds(small);
        let (bl, bh) = analyzer.denotation_bounds(big);
        prop_assert!(sl <= sh + 1e-12);
        prop_assert!(bl <= bh + 1e-12);
        // U ⊆ V ⇒ ⟦P⟧(U) ≤ ⟦P⟧(V): the bounds must allow this ordering.
        prop_assert!(sl <= bh + 1e-9, "lower of subset exceeds upper of superset");
    }

    /// The posterior probability of U and of its complement-ish split
    /// must be able to sum to 1.
    #[test]
    fn posterior_probabilities_are_coherent(cut in 0.1f64..0.9) {
        let src = "let x = sample in score(2 - x); x";
        let analyzer = Analyzer::from_source(src, AnalysisOptions::default()).unwrap();
        let (l1, h1) = analyzer.posterior_probability(Interval::new(0.0, cut));
        let (l2, h2) = analyzer.posterior_probability(Interval::new(cut, 1.0));
        prop_assert!(l1 + l2 <= 1.0 + 1e-6, "lowers sum over 1");
        prop_assert!(h1 + h2 >= 1.0 - 1e-6, "uppers sum under 1");
        prop_assert!((0.0..=1.0).contains(&l1) && h1 <= 1.0);
    }
}
