//! Programs whose symbolic values are small DAGs but huge trees.
//!
//! `let x1 = x0 + x0 in …` doubles the expanded tree with every `let`
//! while adding one node to the DAG the executor builds. At depth 64 a
//! path's result has more than 2⁶⁴ primitive applications as a tree, so
//! any query step that walks a value as a tree never returns. Every step
//! these tests reach must walk the DAG: linear forms and decompositions
//! memoise by node address, and the deadline fallback reads each root's
//! unit range from its header.

use gubpi_core::{AnalysisOptions, Analyzer};
use gubpi_interval::Interval;
use gubpi_pool::CancelToken;

/// Depth of the `let` chains: far past any tree walk.
const D: usize = 64;

/// `x0 = sample`, `xᵢ = xᵢ₋₁ + xᵢ₋₁`: the result is `2^D · α₀`, linear.
fn doubling_sum(d: usize) -> String {
    chain("sample", "+", d)
}

/// `x0 = sample + 1`, `xᵢ = xᵢ₋₁ · xᵢ₋₁`: non-linear, so `Auto` sends
/// it to the grid.
fn repeated_square(d: usize) -> String {
    chain("sample + 1", "*", d)
}

fn chain(first: &str, op: &str, d: usize) -> String {
    let mut src = format!("let x0 = {first} in ");
    for i in 1..=d {
        src.push_str(&format!("let x{i} = x{} {op} x{} in ", i - 1, i - 1));
    }
    src.push_str(&format!("x{d}"));
    src
}

fn analyzer(src: &str) -> Analyzer {
    Analyzer::from_source(src, AnalysisOptions::default()).expect("chain compiles")
}

fn assert_contains(what: &str, (lo, hi): (f64, f64), truth: f64) {
    assert!(lo <= truth && truth <= hi, "{what}: [{lo}, {hi}] ∌ {truth}");
}

/// Both programs weigh every trace 1, so `⟦P⟧(ℝ) = 1`; half of the
/// doubling sum's mass lies in `[0, 2^(D−1)]`.
#[test]
fn deep_chains_answer_every_query_kind() {
    let half = 2f64.powi(D as i32 - 1);
    let sum = analyzer(&doubling_sum(D));
    assert_eq!(sum.linear_path_count(), 1);
    assert_contains("sum Z", sum.denotation_bounds(Interval::REAL), 1.0);
    assert_contains(
        "sum half",
        sum.denotation_bounds(Interval::new(0.0, half)),
        0.5,
    );
    assert_contains(
        "sum posterior",
        sum.posterior_probability(Interval::new(0.0, half)),
        0.5,
    );
    let h = sum.histogram(Interval::new(0.0, 2.0 * half), 4);
    assert_eq!(h.bins(), 4);
    assert_contains("sum histogram Z", h.z_bounds(), 1.0);

    let square = analyzer(&repeated_square(D));
    assert_eq!(square.linear_path_count(), 0);
    assert_contains("square Z", square.denotation_bounds(Interval::REAL), 1.0);
    assert_contains(
        "square posterior",
        square.posterior_probability(Interval::REAL),
        1.0,
    );
    let h = square.histogram(Interval::new(0.0, 4.0), 4);
    assert_eq!(h.bins(), 4);
}

/// Under a token that has already fired, every path falls back to its
/// coarse unit-box enclosure, which must still contain the truth.
#[test]
fn deep_chains_degrade_soundly_under_a_fired_token() {
    let fired = CancelToken::new();
    fired.cancel();
    for src in [doubling_sum(D), repeated_square(D)] {
        let a = analyzer(&src);
        let o = a.denotation_outcome(Interval::REAL, Some(&fired));
        assert!(o.degraded, "a fired token must degrade the query");
        assert_contains("degraded Z", o.bounds(), 1.0);
        let p = a.posterior_outcome(Interval::REAL, Some(&fired));
        assert_contains("degraded posterior", p.bounds(), 1.0);
    }
}
