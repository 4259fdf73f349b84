//! Parallel ≡ sequential: the bounds reported by the analysis engine
//! must be **bit-identical** under every `Threads` setting.
//!
//! This is the contract that lets the parallel engine exist at all: the
//! paper's guarantees are about the *reported* floating-point bounds, so
//! the thread count may change wall-clock time but never a single bit of
//! any result. The engine enforces this by bounding each path
//! independently and reducing in fixed path order; these tests hold the
//! line on randomly generated programs and on the paper's models.

use gubpi_core::{AnalysisOptions, Analyzer, Method, Threads};
use gubpi_interval::Interval;
use gubpi_symbolic::SymExecOptions;
use proptest::prelude::*;

/// Every `Threads` setting the engine must agree across. `Fixed(2)`
/// matters: with fewer workers than paths or chunks, the engine mixes
/// grains (path-level vs region-level), which must stay invisible.
const SETTINGS: &[Threads] = &[
    Threads::Off,
    Threads::Fixed(1),
    Threads::Fixed(2),
    Threads::Fixed(4),
    Threads::Auto,
];

/// The pedestrian model of Fig. 1: a recursive random walk whose
/// uncertain guards fork at every unfolding.
const PEDESTRIAN: &str = "
    let start = 3 * sample in
    let rec walk x =
      if x <= 0 then 0 else
        let step = sample in
        if sample <= 0.5 then step + walk (x + step)
        else step + walk (x - step)
    in
    let d = walk start in
    observe d from normal(1.1, 0.1);
    start";

/// Random SPCF model sources: arithmetic over samples, branching on
/// sample-dependent guards, and score-reweighted sub-terms — enough to
/// exercise the linear semantics, the grid fallback and multi-path
/// reduction.
fn model_source() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|n| n.to_string()),
        Just("sample".to_owned()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("min({a}, {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| format!("(if {c} <= 1 then {t} else {e})")),
            (inner.clone(), inner)
                .prop_map(|(a, b)| format!("(let x = sample in score(sigmoid({a})); {b} + x)")),
        ]
    })
}

fn analyzer(src: &str, threads: Threads, method: Method) -> Analyzer {
    let mut opts = AnalysisOptions {
        method,
        threads,
        ..Default::default()
    };
    // Keep random programs cheap: they can draw up to ~10 samples, and
    // the grid semantics is exponential in that dimension.
    opts.bounds.splits = 8;
    opts.bounds.region_budget = 10_000;
    Analyzer::from_source(src, opts).unwrap_or_else(|e| panic!("{src}: {e}"))
}

fn assert_bits_eq(reference: (f64, f64), got: (f64, f64), ctx: &str) {
    assert!(
        reference.0.to_bits() == got.0.to_bits() && reference.1.to_bits() == got.1.to_bits(),
        "{ctx}: {got:?} differs from sequential {reference:?}"
    );
}

/// Runs the three query shapes under every setting and demands
/// bit-identical results against the sequential (`Threads::Off`) engine.
fn check_all_settings(src: &str, build: impl Fn(Threads) -> Analyzer) {
    let u = Interval::new(0.25, 1.0);
    let wide = Interval::new(0.0, 1.5);
    let reference = build(Threads::Off);
    let ref_den = reference.denotation_bounds(wide);
    let ref_post = reference.posterior_probability(u);
    let ref_hist = reference.histogram(Interval::new(-1.0, 3.0), 6);
    for &threads in SETTINGS {
        let a = build(threads);
        assert_eq!(
            a.paths().len(),
            reference.paths().len(),
            "{src}: path set must not depend on threading"
        );
        assert_bits_eq(
            ref_den,
            a.denotation_bounds(wide),
            &format!("{src} denotation_bounds under {threads:?}"),
        );
        assert_bits_eq(
            ref_post,
            a.posterior_probability(u),
            &format!("{src} posterior_probability under {threads:?}"),
        );
        let h = a.histogram(Interval::new(-1.0, 3.0), 6);
        for b in 0..h.bins() {
            assert_bits_eq(
                ref_hist.unnormalized(b),
                h.unnormalized(b),
                &format!("{src} histogram bin {b} under {threads:?}"),
            );
        }
        assert_bits_eq(
            ref_hist.left_tail,
            h.left_tail,
            &format!("{src} left tail under {threads:?}"),
        );
        assert_bits_eq(
            ref_hist.right_tail,
            h.right_tail,
            &format!("{src} right tail under {threads:?}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_programs_bound_identically_across_thread_counts(src in model_source()) {
        check_all_settings(&src, |threads| analyzer(&src, threads, Method::Auto));
    }

    #[test]
    fn grid_method_is_also_deterministic(src in model_source()) {
        check_all_settings(&src, |threads| analyzer(&src, threads, Method::Grid));
    }
}

/// The models exercised by `tests/paper_examples.rs`, including the
/// recursive pedestrian (many paths, mixed linear/grid, truncation).
#[test]
fn paper_example_models_bound_identically_across_thread_counts() {
    const PEDESTRIAN: &str = "
        let start = 3 * sample uniform(0, 1) in
        let rec walk x =
          if x <= 0 then 0 else
            let step = sample uniform(0, 1) in
            if sample <= 0.5 then step + walk (x + step)
            else step + walk (x - step)
        in
        let d = walk start in
        observe d from normal(1.1, 0.1);
        start";
    const GEOMETRIC: &str = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
    const UNBOUNDED_WEIGHT: &str = "
        let rec loop s =
          if sample <= s then (score(2); loop (s / 2)) else 1
        in loop 1";
    for (src, unfold) in [(PEDESTRIAN, 3u32), (GEOMETRIC, 8), (UNBOUNDED_WEIGHT, 6)] {
        check_all_settings(src, |threads| {
            let mut opts = AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: unfold,
                    ..Default::default()
                },
                threads,
                ..Default::default()
            };
            opts.bounds.splits = 8;
            Analyzer::from_source(src, opts).unwrap()
        });
    }
}

/// Region-level parallelism: a model with one dominant (or unique) path
/// gives path-level parallelism nothing to split, so the engine bounds
/// the path's grid cells / chunk combinations on the pool instead. The
/// bounds must not betray which grain ran.
#[test]
fn single_dominant_path_models_bound_identically_across_thread_counts() {
    // One path, non-linear result: §6.3 grid with splits³ cells.
    const NONLINEAR_SINGLE: &str =
        "let x = sample in let y = sample in let z = sample in score(sigmoid(x * y + z)); x * y";
    // One path, two boxed score expressions: §6.4 chunk product.
    const LINEAR_SINGLE: &str =
        "let x = sample in let y = sample in score(x + y); score(2 - x); x + y";
    for src in [NONLINEAR_SINGLE, LINEAR_SINGLE] {
        for method in [Method::Auto, Method::Grid] {
            let probe = analyzer(src, Threads::Off, method);
            assert_eq!(probe.paths().len(), 1, "{src}: must be a single path");
            check_all_settings(src, |threads| analyzer(src, threads, method));
        }
    }
}

/// The `Threads` setting must not change the *path set* either — this
/// is implied by `check_all_settings`'s path-count assertion, but pin
/// the stronger structural property (every path equal, in order) on the
/// recursive pedestrian, whose symbolic execution forks at every
/// unfolding.
#[test]
fn frontier_sharding_keeps_paths_structurally_identical() {
    let build = |threads| {
        let opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 4,
                ..Default::default()
            },
            threads,
            ..Default::default()
        };
        Analyzer::from_source(PEDESTRIAN, opts).unwrap()
    };
    let reference = build(Threads::Off);
    for &threads in SETTINGS {
        let a = build(threads);
        assert_eq!(reference.paths().len(), a.paths().len());
        for (i, (p, q)) in reference.paths().iter().zip(a.paths()).enumerate() {
            assert_eq!(p, q, "path {i} differs under {threads:?}");
        }
    }
}

/// The memo cache must be invisible: a warm analyzer answers with the
/// same bits as a cold one, under any thread count.
#[test]
fn cache_reuse_is_bit_identical_across_thread_counts() {
    let src = "let x = sample in (if x <= 0.5 then score(2 * x) else score(1)); x";
    let u = Interval::new(0.1, 0.6);
    let cold = analyzer(src, Threads::Off, Method::Auto).denotation_bounds(u);
    for &threads in SETTINGS {
        let a = analyzer(src, threads, Method::Auto);
        let first = a.denotation_bounds(u);
        let warm = a.denotation_bounds(u);
        let hits = a.cache_stats().hits;
        assert!(hits >= a.paths().len() as u64, "second query must hit");
        assert_bits_eq(cold, first, "cold query");
        assert_bits_eq(cold, warm, "warm query");
    }
}

/// The persistent pool must be shareable across analyzers (like the
/// query cache) with zero effect on results: two analyzers on one
/// explicit pool answer bit-identically to analyzers on fresh pools —
/// and the shared pool's workers are reused, not respawned.
#[test]
fn pool_reuse_across_analyzers_is_bit_identical() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    let src = "
        let start = 3 * sample in
        let rec walk x =
          if x <= 0 then 0 else
            let step = sample in
            if sample <= 0.5 then step + walk (x + step)
            else step + walk (x - step)
        in
        let d = walk start in
        observe d from normal(1.1, 0.1);
        start";
    let opts = || {
        let mut o = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 3,
                ..Default::default()
            },
            threads: Threads::Fixed(4),
            ..Default::default()
        };
        o.bounds.splits = 8;
        o
    };
    let u = Interval::new(0.0, 1.5);
    // Reference: fresh pool (and fresh cache) per analyzer.
    let fresh = |_: usize| {
        let pool = WorkerPool::new();
        let a = Analyzer::from_source_with(src, opts(), &SharedQueryCache::new(), &pool).unwrap();
        a.denotation_bounds(u)
    };
    let reference = fresh(0);
    assert_eq!(reference, fresh(1), "fresh pools agree with each other");

    // Shared: one pool, two analyzers (each with a private cache so the
    // second one really recomputes on the pool's warm workers).
    let pool = WorkerPool::new();
    let a = Analyzer::from_source_with(src, opts(), &SharedQueryCache::new(), &pool).unwrap();
    let ra = a.denotation_bounds(u);
    let spawned_after_first = pool.spawned_workers();
    let b = Analyzer::from_source_with(src, opts(), &SharedQueryCache::new(), &pool).unwrap();
    let rb = b.denotation_bounds(u);
    assert_eq!(
        pool.spawned_workers(),
        spawned_after_first,
        "the second analyzer must reuse the warm workers"
    );
    for got in [ra, rb] {
        assert_bits_eq(reference, got, "shared-pool analyzer");
    }
    assert!(
        a.pool().same_pool(b.pool()),
        "both analyzers must hold handles to the one shared pool"
    );
}

/// Cross-path work stealing: a model with one dominant grid path and a
/// trivial side path gives the pool workers that finish the trivial
/// path nothing to do *except* steal region chunks from the dominant
/// sweep. The steal must show up in the pool counters and must not
/// change a single bit of the bounds.
#[test]
fn dominant_path_model_exercises_region_stealing() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    // Path 1: trivial (one sample). Path 2: 4 samples, non-linear
    // result ⇒ §6.3 grid with splits⁴ cells — the dominant sweep.
    let src = "
        if sample <= 0.1 then 0 else
          let x = sample in let y = sample in let z = sample in
          score(sigmoid(x * y + z)); x * y * z";
    let build = |threads, pool: &WorkerPool| {
        let mut opts = AnalysisOptions {
            threads,
            ..Default::default()
        };
        opts.bounds.splits = 8;
        Analyzer::from_source_with(src, opts, &SharedQueryCache::new(), pool).unwrap()
    };
    let seq_pool = WorkerPool::new();
    let reference = build(Threads::Off, &seq_pool);
    assert_eq!(reference.paths().len(), 2, "dominant + trivial path");
    let u = Interval::new(0.0, 0.5);
    let ref_bounds = reference.denotation_bounds(u);

    let pool = WorkerPool::new();
    // Scheduling decides *who* claims each chunk, so a single run may
    // legitimately see the caller claim everything (1-CPU CI runners);
    // repeat until a steal is observed, bounded so a genuine regression
    // (stealing impossible) still fails loudly. Every repetition must
    // be bit-identical regardless.
    let mut stole = false;
    for _ in 0..50 {
        let a = build(Threads::Fixed(4), &pool);
        let got = a.denotation_bounds(u);
        assert_bits_eq(ref_bounds, got, "dominant-path model under stealing");
        if pool.stats().region_steals > 0 {
            stole = true;
            break;
        }
    }
    assert!(
        stole,
        "4 workers on a dominant sweep never stole a region chunk: {:?}",
        pool.stats()
    );
    assert!(pool.stats().path_tasks > 0);
}

/// Acceptance sweep: every width from 1 to 8 (plus Off/Auto) answers
/// with the sequential bits on a mixed recursive model.
#[test]
fn widths_one_through_eight_are_bit_identical() {
    let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
    let build = |threads| {
        let opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 8,
                ..Default::default()
            },
            threads,
            ..Default::default()
        };
        Analyzer::from_source(src, opts).unwrap()
    };
    let u = Interval::new(-0.5, 2.5);
    let reference = build(Threads::Off).denotation_bounds(u);
    for n in 1..=8usize {
        let got = build(Threads::Fixed(n)).denotation_bounds(u);
        assert_bits_eq(reference, got, &format!("Fixed({n})"));
    }
    assert_bits_eq(reference, build(Threads::Auto).denotation_bounds(u), "Auto");
}

/// The compiled interval-tape kernel vs the tree-walking interpreter:
/// same bounds, **bit for bit**, on every query shape and under every
/// thread count (CI runs this whole file under `GUBPI_THREADS` ∈
/// {2, 4, 8}, so the comparison also covers steal schedules).
#[test]
fn kernel_and_interpreter_report_identical_bits() {
    let sources = [
        // Non-linear single path: pure §6.3 grid sweep.
        "let x = sample in let y = sample in let z = sample in score(sigmoid(x * y + z)); x * y",
        // Linear with boxed scores: §6.4 chunk combinations.
        "let x = sample in let y = sample in score(x + y); score(2 - x); x + y",
        // Recursive: mixed path set with approxFix interval literals.
        "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0",
    ];
    for src in sources {
        let build = |threads: Threads, use_kernel: bool| {
            let mut opts = AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: 6,
                    ..Default::default()
                },
                threads,
                ..Default::default()
            };
            opts.bounds.splits = 8;
            opts.bounds.use_kernel = use_kernel;
            Analyzer::from_source(src, opts).unwrap()
        };
        let u = Interval::new(0.0, 1.5);
        let reference = build(Threads::Off, false);
        let ref_den = reference.denotation_bounds(u);
        let ref_hist = reference.histogram(Interval::new(-1.0, 3.0), 5);
        for &threads in SETTINGS {
            let a = build(threads, true);
            assert_bits_eq(
                ref_den,
                a.denotation_bounds(u),
                &format!("{src}: kernel under {threads:?} vs interpreter"),
            );
            let h = a.histogram(Interval::new(-1.0, 3.0), 5);
            for b in 0..h.bins() {
                assert_bits_eq(
                    ref_hist.unnormalized(b),
                    h.unnormalized(b),
                    &format!("{src}: kernel histogram bin {b} under {threads:?}"),
                );
            }
        }
    }
}

/// Gap-driven adaptive refinement must preserve the bit-identity
/// contract: worklist selection, scoring and integration run on the
/// caller's thread in canonical (score, sequence) order, and workers
/// only evaluate replayed cell batches — so the refinement tree, and
/// therefore every reported bound, is the same under every thread
/// count and steal schedule, on a fresh pool or a reused warm one.
/// `gap_target > 0` additionally exercises the early-stop round logic.
#[test]
fn adaptive_refinement_is_bit_identical_across_thread_counts() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    // Trivial side path + non-linear dominant path: the dominant sweep
    // is grid-destined, so it goes through the adaptive refiner, and
    // idle workers have refinement child-cell batches to steal.
    let src = "
        if sample <= 0.1 then 0 else
          let x = sample in let y = sample in let z = sample in
          score(sigmoid(x * y + z)); x * y * z";
    let u = Interval::new(0.0, 0.5);
    for gap_target in [0.0, 0.05] {
        let build = |threads: Threads, pool: &WorkerPool| {
            let mut opts = AnalysisOptions {
                threads,
                ..Default::default()
            };
            opts.bounds.splits = 8;
            opts.refine = true;
            opts.gap_target = gap_target;
            Analyzer::from_source_with(src, opts, &SharedQueryCache::new(), pool).unwrap()
        };
        let seq_pool = WorkerPool::new();
        let reference = build(Threads::Off, &seq_pool).denotation_bounds(u);
        assert!(
            seq_pool.stats().refine_rounds > 0,
            "the dominant path must actually refine"
        );
        for threads in SETTINGS.iter().copied().chain([Threads::Fixed(8)]) {
            let pool = WorkerPool::new();
            let fresh = build(threads, &pool).denotation_bounds(u);
            assert_bits_eq(
                reference,
                fresh,
                &format!("adaptive (gap_target {gap_target}) fresh pool under {threads:?}"),
            );
            // A second analyzer on the same (now warm) pool: steal
            // schedules differ, bits must not.
            let warm = build(threads, &pool).denotation_bounds(u);
            assert_bits_eq(
                reference,
                warm,
                &format!("adaptive (gap_target {gap_target}) warm pool under {threads:?}"),
            );
        }
    }
}

/// The worker-count clamp: a query with a single unit of work on a wide
/// setting must run inline — no pool dispatch, no empty partials, no
/// threads spawned for nothing.
#[test]
fn one_unit_queries_run_inline_on_wide_pools() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    let pool = WorkerPool::new();
    let opts = AnalysisOptions {
        threads: Threads::Fixed(8),
        ..Default::default()
    };
    // One linear path whose query plan is a single polytope volume:
    // exactly one unit of schedulable work.
    let a = Analyzer::from_source_with("sample", opts, &SharedQueryCache::new(), &pool).unwrap();
    assert_eq!(a.paths().len(), 1);
    let before = pool.stats();
    let (lo, hi) = a.denotation_bounds(Interval::new(0.0, 0.5));
    assert!((lo - 0.5).abs() < 1e-9 && (hi - 0.5).abs() < 1e-9);
    let after = pool.stats();
    assert_eq!(after.dispatches, before.dispatches, "no pool dispatch");
    assert_eq!(after.inline_runs, before.inline_runs + 1, "ran inline");
    assert_eq!(pool.spawned_workers(), 0, "no threads for a 1-unit query");
}

/// Several callers on one pool at once: four threads each build the
/// pedestrian and sweep it at width 4 on the shared pool, so their
/// `run_quota` dispatches contend for the same workers and the same
/// latch. Every caller must still see the sequential path set and bits.
#[test]
fn concurrent_callers_on_one_pool_are_bit_identical() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    let build = |threads, pool: &WorkerPool| {
        let mut opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 3,
                ..Default::default()
            },
            threads,
            ..Default::default()
        };
        opts.bounds.splits = 8;
        Analyzer::from_source_with(PEDESTRIAN, opts, &SharedQueryCache::new(), pool).unwrap()
    };
    let u = Interval::new(0.0, 1.5);
    let reference = build(Threads::Off, &WorkerPool::new());
    let ref_bounds = reference.denotation_bounds(u);
    let pool = WorkerPool::new();
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let a = build(Threads::Fixed(4), &pool);
                    (a.paths().len(), a.denotation_bounds(u))
                })
            })
            .collect();
        for caller in callers {
            let (paths, got) = caller.join().expect("caller panicked");
            assert_eq!(paths, reference.paths().len(), "path count");
            assert_bits_eq(ref_bounds, got, "concurrent caller");
        }
    });
}

/// Pool workers adopt whole paths and walk their symbolic values
/// recursively, so a worker must recurse as deep as the thread that
/// built the paths. Both paths here end in a 200-deep `let` chain,
/// built from a thread with a main-thread (8 MiB) stack and bounded
/// inline (`Off`) and on workers (`Fixed(2)`): the bits must agree.
#[test]
fn deep_programs_bound_identically_inline_and_on_workers() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    let chain: String = (1..200)
        .map(|i| format!("let x{i} = x{} + 1 in ", i - 1))
        .collect();
    let side = format!("(let x0 = sample in {chain}x199)");
    let src = format!("if sample <= 0.5 then {side} else {side}");
    let run = |threads: Threads| {
        let src = src.clone();
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(move || {
                let opts = AnalysisOptions {
                    threads,
                    ..Default::default()
                };
                let pool = WorkerPool::new();
                let a = Analyzer::from_source_with(&src, opts, &SharedQueryCache::new(), &pool)
                    .unwrap();
                (
                    a.paths().len(),
                    a.denotation_bounds(Interval::new(0.0, 150.0)),
                )
            })
            .unwrap()
            .join()
            .expect("analysis thread panicked")
    };
    let (ref_paths, ref_bounds) = run(Threads::Off);
    let (paths, got) = run(Threads::Fixed(2));
    assert_eq!(paths, ref_paths, "path count");
    assert_bits_eq(ref_bounds, got, "deep program");
}

/// Building an analyzer runs symbolic execution on the calling thread:
/// however wide the `Threads` setting, the pool sees no dispatch and
/// spawns no worker until a query sweeps, and the path set is the one
/// an `Off` build produces.
#[test]
fn building_an_analyzer_leaves_the_pool_untouched() {
    use gubpi_core::{SharedQueryCache, WorkerPool};
    let build = |threads, pool: &WorkerPool| {
        let opts = AnalysisOptions {
            sym: SymExecOptions {
                max_fix_unfoldings: 4,
                ..Default::default()
            },
            threads,
            ..Default::default()
        };
        Analyzer::from_source_with(PEDESTRIAN, opts, &SharedQueryCache::new(), pool).unwrap()
    };
    let pool = WorkerPool::new();
    let wide = build(Threads::Fixed(4), &pool);
    assert_eq!(pool.stats().dispatches, 0, "building dispatched");
    assert_eq!(pool.spawned_workers(), 0, "building spawned workers");
    let reference = build(Threads::Off, &WorkerPool::new());
    assert_eq!(wide.paths(), reference.paths());
}
