//! Differential tests for static dead-branch pruning: on every repo
//! model, the bounds computed with pruning enabled must be bit-identical
//! to an unpruned run (`prune: false`, the oracle) — pruning may only
//! remove symbolic paths whose contribution to both the lower and the
//! upper bound is exactly 0.0.
//!
//! These tests honour `GUBPI_THREADS` (the default `AnalysisOptions`
//! resolve `Threads::Auto` from the env), so the CI worker matrix
//! exercises pruning under real concurrency for free.

use bench::models;
use gubpi_core::{AnalysisOptions, Analyzer};
use gubpi_interval::Interval;
use gubpi_symbolic::SymExecOptions;

fn analyzer(source: &str, unfold: u32, prune: bool) -> Analyzer {
    let opts = AnalysisOptions {
        sym: SymExecOptions {
            max_fix_unfoldings: unfold,
            ..Default::default()
        },
        prune,
        ..Default::default()
    };
    Analyzer::from_source(source, opts).expect("repo model compiles")
}

fn assert_bits_equal(name: &str, what: &str, a: (f64, f64), b: (f64, f64)) {
    assert_eq!(
        a.0.to_bits(),
        b.0.to_bits(),
        "{name}: pruned {what} lower bound {} != unpruned {}",
        a.0,
        b.0
    );
    assert_eq!(
        a.1.to_bits(),
        b.1.to_bits(),
        "{name}: pruned {what} upper bound {} != unpruned {}",
        a.1,
        b.1
    );
}

/// Every Table 2 model: bit-identical bounds, and the path set must
/// strictly shrink on at least two of them (the issue's acceptance bar;
/// in practice every `fail`-conditioned model shrinks).
#[test]
fn table2_bounds_are_bit_identical_and_paths_shrink() {
    let mut reduced = 0usize;
    for b in models::table2() {
        let on = analyzer(b.source, 8, true);
        let off = analyzer(b.source, 8, false);
        assert!(
            on.paths().len() <= off.paths().len(),
            "{}: pruning must never add paths ({} vs {})",
            b.name,
            on.paths().len(),
            off.paths().len()
        );
        if on.paths().len() < off.paths().len() {
            reduced += 1;
        }
        for u in [
            Interval::new(0.5, 1.5),
            Interval::new(-0.5, 0.5),
            Interval::new(0.0, 1.0),
        ] {
            assert_bits_equal(
                b.name,
                "denotation",
                on.denotation_bounds(u),
                off.denotation_bounds(u),
            );
            assert_bits_equal(
                b.name,
                "posterior",
                on.posterior_probability(u),
                off.posterior_probability(u),
            );
        }
        assert_bits_equal(
            b.name,
            "normalizing constant",
            on.normalizing_constant(),
            off.normalizing_constant(),
        );
    }
    assert!(
        reduced >= 2,
        "pruning must shrink the path set on at least two repo models, got {reduced}"
    );
}

/// A recursive model whose `fail` arm sits behind an undecided sample
/// guard, so the prune fires at the fork (branch cut, not just a
/// zero-score drop) on every unfolding. Bounds must still match to the
/// bit against the unpruned run.
#[test]
fn fork_level_branch_cuts_are_bit_identical_on_a_recursive_model() {
    let src = "let rec walk x = \
                 if x <= 0 then 0 else \
                 if sample <= 0.5 then walk (x - sample) else fail \
               in walk 1";
    let on = analyzer(src, 5, true);
    let off = analyzer(src, 5, false);
    assert!(
        on.exec_report().pruned_branches > 0,
        "the fail arm must be cut at the fork: {:?}",
        on.exec_report()
    );
    assert!(
        on.paths().len() < off.paths().len(),
        "cut forks must shrink the path set ({} vs {})",
        on.paths().len(),
        off.paths().len()
    );
    for u in [Interval::new(0.0, 0.5), Interval::new(-1.0, 2.0)] {
        assert_bits_equal(
            "walk",
            "denotation",
            on.denotation_bounds(u),
            off.denotation_bounds(u),
        );
    }
    assert_bits_equal(
        "walk",
        "normalizing constant",
        on.normalizing_constant(),
        off.normalizing_constant(),
    );
}
