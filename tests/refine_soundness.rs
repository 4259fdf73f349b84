//! Soundness of gap-driven adaptive region refinement: adaptive bounds
//! must stay inside the one-shot uniform sweep's bounds at an equal
//! cell budget, the realised gap must never widen as the budget (or
//! bisection depth) grows, refined bounds must still contain
//! high-precision Monte-Carlo posteriors, and the `--no-refine` escape
//! hatch must reproduce the plain uniform machinery bit for bit.
//!
//! Every assertion here is stable because the refiner is deterministic:
//! the worklist is ordered by (score desc, sequence asc) and replayed
//! identically for every thread count (see
//! `tests/parallel_determinism.rs`), so a bound verified once holds on
//! every run.

use gubpi_core::{bound_path, AnalysisOptions, Analyzer, CancelToken, Method, QueryFold, Threads};
use gubpi_inference::importance::{importance_sample, ImportanceOptions};
use gubpi_interval::Interval;
use gubpi_lang::parse;
use gubpi_symbolic::SymExecOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Classic grass model (same source as the table2 benchmark): rain 1/2,
/// sprinkler 3/10, grass wet if rain (w.p. 9/10) or sprinkler
/// (w.p. 8/10); observe wet; query P(rain | wet) ≈ 0.7079.
const GRASS: &str = r#"
    let rain = flip(0.5) in
    let sprinkler = flip(0.3) in
    let wet_rain = if rain >= 1 then flip(0.9) else 0 in
    let wet_spr = if sprinkler >= 1 then flip(0.8) else 0 in
    let wet = max(wet_rain, wet_spr) in
    if wet >= 1 then rain else fail"#;

/// Figure 6a (cav-example-7): geometric accumulation with an unbounded
/// loop — continuous mass plus an atom of size 0.6 at 0.
const FIG6A: &str = r#"
    let rec go x =
      if sample <= 0.6 then x else go (x + sample uniform(0, 1))
    in go 0"#;

/// The pedestrian model (same source as `tests/tail_soundness.rs`):
/// data-guarded random walk with a normal observation.
const PEDESTRIAN: &str = r#"
    let start = 3 * sample uniform(0, 1) in
    let rec walk x =
      if x <= 0 then 0 else
        let step = sample uniform(0, 1) in
        if sample <= 0.5 then step + walk (x + step)
        else step + walk (x - step)
    in
    let distance = walk start in
    observe distance from normal(1.1, 0.1);
    start"#;

/// Smooth single-dominant-path model: a non-linear score over three
/// samples, so the dominant path is grid-destined under `Method::Auto`
/// and its gap lives in the interior (not on threshold surfaces).
const SMOOTH: &str = "
    if sample <= 0.1 then 0 else
      let x = sample in let y = sample in let z = sample in
      score(sigmoid(x * y + z)); x * y * z";

fn analyzer(src: &str, unfold: u32, opts: AnalysisOptions) -> Analyzer {
    let mut opts = opts;
    opts.sym = SymExecOptions {
        max_fix_unfoldings: unfold,
        ..Default::default()
    };
    Analyzer::from_source(src, opts).expect("model compiles")
}

/// Grid-forced options with the refinement knobs pinned explicitly, so
/// the assertions do not depend on what the defaults happen to be.
fn grid_opts(splits: usize, refine: bool) -> AnalysisOptions {
    let mut opts = AnalysisOptions {
        method: Method::Grid,
        threads: Threads::Off,
        refine,
        gap_target: 0.0,
        max_refine_depth: 12,
        ..Default::default()
    };
    opts.bounds.splits = splits;
    opts
}

/// Test threads get 2 MiB stacks; the pedestrian's deep recursive MC
/// runs need more in debug builds (same helper as
/// `tests/tail_soundness.rs`).
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(32 * 1024 * 1024)
        .spawn(f)
        .expect("spawn test worker")
        .join()
        .expect("test worker panicked");
}

fn posterior_mc(src: &str, u: Interval, samples: usize, seed: u64) -> f64 {
    let p = parse(src).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ws = importance_sample(&p, samples, ImportanceOptions::default(), &mut rng);
    ws.probability_in(u.lo(), u.hi())
}

#[test]
fn adaptive_bounds_contained_in_uniform_sweep_at_equal_budget() {
    // At the same cell budget (`splits^n` per path) the adaptive
    // refiner spends its cells where the gap is, so its realised gap
    // must be no wider than the one-shot uniform sweep's on every
    // model. Where the gap mass sits on threshold surfaces (grass's
    // flip boundaries, fig6a's loop guard) the refiner resolves both
    // sides at once, so the stronger two-sided containment holds too;
    // a diffuse interior gap (the smooth model) may trade a hair of
    // upper slack for a much larger lower-bound gain, so only the gap
    // contract is asserted there.
    let zoo: &[(&str, &str, u32, Interval, bool)] = &[
        ("grass", GRASS, 8, Interval::new(0.5, 1.5), true),
        ("fig6a", FIG6A, 6, Interval::new(-0.5, 0.5), true),
        ("smooth", SMOOTH, 8, Interval::new(0.0, 0.5), false),
    ];
    for &(name, src, unfold, u, two_sided) in zoo {
        for splits in [8usize, 12] {
            let uniform = analyzer(src, unfold, grid_opts(splits, false)).denotation_bounds(u);
            let adaptive = analyzer(src, unfold, grid_opts(splits, true)).denotation_bounds(u);
            assert!(
                adaptive.1 - adaptive.0 <= uniform.1 - uniform.0,
                "{name} (splits {splits}): adaptive gap {} wider than uniform gap {}",
                adaptive.1 - adaptive.0,
                uniform.1 - uniform.0
            );
            if two_sided {
                assert!(
                    adaptive.0 >= uniform.0 && adaptive.1 <= uniform.1,
                    "{name} (splits {splits}): adaptive [{}, {}] escapes uniform [{}, {}]",
                    adaptive.0,
                    adaptive.1,
                    uniform.0,
                    uniform.1
                );
            }
        }
    }
}

#[test]
fn gap_never_widens_as_budget_or_depth_grows() {
    let u = Interval::new(0.0, 0.5);
    // Budget sweep: doubling `splits` multiplies the per-path cell
    // budget by 2^n; the realised adaptive gap must not widen.
    let mut last = f64::INFINITY;
    for splits in [4usize, 8, 16] {
        let (lo, hi) = analyzer(SMOOTH, 8, grid_opts(splits, true)).denotation_bounds(u);
        let gap = hi - lo;
        assert!(
            gap <= last,
            "splits {splits}: gap {gap} widened past {last}"
        );
        last = gap;
    }
    // Depth sweep at a fixed budget: allowing deeper bisection below
    // the seed grid can only tighten (extra depth is only used when a
    // cell's gap score says it pays).
    let mut last = f64::INFINITY;
    for depth in [0u32, 1, 2, 4, 12] {
        let mut opts = grid_opts(8, true);
        opts.max_refine_depth = depth;
        let (lo, hi) = analyzer(SMOOTH, 8, opts).denotation_bounds(u);
        let gap = hi - lo;
        assert!(gap <= last, "depth {depth}: gap {gap} widened past {last}");
        last = gap;
    }
}

#[test]
fn refined_bounds_contain_monte_carlo_posteriors() {
    with_big_stack(|| {
        let zoo: &[(&str, &str, u32, Interval, usize)] = &[
            ("grass", GRASS, 8, Interval::new(0.5, 1.5), 60_000),
            ("fig6a", FIG6A, 6, Interval::new(-0.5, 0.5), 60_000),
            ("pedestrian", PEDESTRIAN, 4, Interval::new(0.0, 1.0), 20_000),
        ];
        for &(name, src, unfold, u, samples) in zoo {
            let mc = posterior_mc(src, u, samples, 0x7A11);
            let a = analyzer(src, unfold, grid_opts(8, true));
            let (lo, hi) = a.posterior_probability(u);
            // MC slack: ±0.02 covers the sampling error comfortably at
            // these sample counts (same tolerance as
            // `tests/tail_soundness.rs`).
            assert!(
                lo <= mc + 0.02 && mc <= hi + 0.02,
                "{name}: MC {mc} outside refined [{lo}, {hi}]"
            );
        }
    });
}

#[test]
fn refine_off_matches_uniform_path_sums() {
    // `--no-refine` must reproduce the plain uniform machinery bit for
    // bit: the analyzer's grid-forced, refinement-off bounds equal the
    // in-path-order sum of per-path uniform sweeps.
    let zoo: &[(&str, &str, u32, Interval)] = &[
        ("grass", GRASS, 8, Interval::new(0.5, 1.5)),
        ("smooth", SMOOTH, 8, Interval::new(0.0, 0.5)),
    ];
    for &(name, src, unfold, u) in zoo {
        let a = analyzer(src, unfold, grid_opts(8, false));
        let (lo, hi) = a.denotation_bounds(u);
        let (mut sum_lo, mut sum_hi) = (0.0f64, 0.0f64);
        for p in a.paths() {
            let (fold, mut sink) = (QueryFold::Filter(u), (0.0, 0.0));
            let bounds = grid_opts(8, false).bounds;
            bound_path(p, bounds, Method::Grid, Threads::Off, |r| {
                fold.apply(&mut sink, r)
            });
            sum_lo += sink.0;
            sum_hi += sink.1;
        }
        assert_eq!(
            lo.to_bits(),
            sum_lo.to_bits(),
            "{name}: refine-off lower bound drifted from the uniform path sum"
        );
        assert_eq!(
            hi.to_bits(),
            sum_hi.to_bits(),
            "{name}: refine-off upper bound drifted from the uniform path sum"
        );
    }
}

#[test]
fn refinement_cancelled_before_its_first_round_stays_sound() {
    // A token that has fired before the refiners' first round (a
    // deadline that expired during symbolic execution or the uniform
    // sweeps) must still settle the unevaluated seed grid, as each
    // cell's share of the whole-box enclosure: a degraded, wider result,
    // never the empty `[0, 0]`. Each query gets a fresh analyzer, since
    // a cached uncancelled result would hide the cancelled path.
    let token = CancelToken::new();
    token.cancel();
    let fresh = || analyzer(SMOOTH, 8, grid_opts(16, true));
    let u = Interval::new(0.0, 1.0);
    let full = fresh().denotation_outcome(u, None);
    let cut = fresh().denotation_outcome(u, Some(&token));
    assert!(!full.degraded && cut.degraded);
    assert!(
        cut.lo <= full.lo && cut.hi >= full.hi,
        "cancelled denotation [{}, {}] misses uncancelled [{}, {}]",
        cut.lo,
        cut.hi,
        full.lo,
        full.hi
    );
    let v = Interval::new(0.5, 1.0);
    let full = fresh().posterior_outcome(v, None);
    let cut = fresh().posterior_outcome(v, Some(&token));
    assert!(!full.degraded && cut.degraded);
    assert!(
        cut.lo <= full.lo && cut.hi >= full.hi,
        "cancelled posterior [{}, {}] misses uncancelled [{}, {}]",
        cut.lo,
        cut.hi,
        full.lo,
        full.hi
    );
}
