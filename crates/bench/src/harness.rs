//! Shared benchmark runners.
//!
//! A `repro` run is configured once, from its flags, into a
//! [`RunConfig`]; [`Run::new`] turns that into the state the run owns —
//! the per-path query cache every analyzer shares, the one deadline
//! token and the `--stats` census — and every runner below takes the
//! run explicitly. Nothing here reads the environment or keeps
//! process-global state.

use std::cell::RefCell;
use std::time::Duration;

use gubpi_core::{
    AnalysisOptions, Analyzer, CancelToken, ExecReport, QueryOutcome, Severity, SharedQueryCache,
};
use gubpi_interval::Interval;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::models::{FigureBenchmark, ProbBenchmark};

/// Everything a run is configured with, parsed once at the CLI edge.
#[derive(Copy, Clone, Debug, Default)]
pub struct RunConfig {
    /// The options every analyzer of the run starts from; commands only
    /// override their per-model parameters (unfolding depth, splits,
    /// method) on a copy.
    pub opts: AnalysisOptions,
    /// Entry cap of the shared per-path cache (coarse-LRU eviction);
    /// `None` is unbounded. Results are bit-identical either way.
    pub cache_cap: Option<usize>,
    /// One cooperative deadline over the whole run; queries that outlive
    /// it return anytime sound degraded enclosures instead of blocking.
    pub timeout: Option<Duration>,
    /// Print each analyzed model's lints as its analyzer is built.
    pub lint: bool,
    /// Make warning-severity lints fatal.
    pub deny_warnings: bool,
    /// Print the run's counters at the end.
    pub stats: bool,
}

/// What a run observed, for the `--stats` report.
#[derive(Copy, Clone, Debug)]
pub struct Census {
    /// The [`ExecReport`] counters summed over every analyzer the run
    /// built (one symbolic execution per analyzer).
    pub exec: ExecReport,
    /// `Severity::Warning` lints printed under [`RunConfig::lint`].
    pub lint_warnings: usize,
    /// Queries answered under the deadline.
    pub timed_queries: u64,
    /// How many of those degraded.
    pub degraded_queries: u64,
    /// The worst completeness fraction among them (`1.0` if none).
    pub min_completeness: f64,
}

impl Default for Census {
    fn default() -> Census {
        Census {
            exec: ExecReport::default(),
            lint_warnings: 0,
            timed_queries: 0,
            degraded_queries: 0,
            min_completeness: 1.0,
        }
    }
}

/// One run: its configuration plus the state it owns.
pub struct Run {
    /// The configuration the run was started with (fixed: the cache and
    /// the deadline below are built from it).
    config: RunConfig,
    /// The query cache shared by every analyzer the run builds, so a
    /// whole `repro` run reuses warm per-path bounds — sound across
    /// unrelated models because hits re-verify paths structurally.
    cache: SharedQueryCache,
    /// The deadline, armed when the run starts. Once it fires, every
    /// later query degrades to its coarse anytime bounds — the run
    /// finishes fast with sound (wide) results instead of hanging.
    deadline: Option<CancelToken>,
    census: RefCell<Census>,
}

impl Run {
    /// Starts a run: builds its cache and arms its deadline.
    pub fn new(config: RunConfig) -> Run {
        Run {
            cache: match config.cache_cap {
                Some(cap) => SharedQueryCache::with_capacity(cap),
                None => SharedQueryCache::new(),
            },
            deadline: config.timeout.map(CancelToken::with_timeout),
            census: RefCell::new(Census::default()),
            config,
        }
    }

    /// The run's options template (a copy to adjust per model).
    pub fn options(&self) -> AnalysisOptions {
        self.config.opts
    }

    /// The per-path query cache every analyzer of the run shares.
    pub fn cache(&self) -> &SharedQueryCache {
        &self.cache
    }

    /// The run's deadline token, or `None` for an unlimited run.
    pub fn deadline(&self) -> Option<&CancelToken> {
        self.deadline.as_ref()
    }

    /// The counters observed so far.
    pub fn census(&self) -> Census {
        *self.census.borrow()
    }

    /// Builds an analyzer attached to the run's shared cache (and
    /// therefore the process-global persistent worker pool), adds its
    /// execution counters to the census, and prints its lints when the
    /// run lints.
    pub fn analyzer(&self, source: &str, opts: AnalysisOptions) -> Analyzer {
        let a = Analyzer::from_source_with_cache(source, opts, &self.cache)
            .expect("benchmark must compile");
        let r = a.exec_report();
        let mut c = self.census.borrow_mut();
        c.exec.zero_score_drops += r.zero_score_drops;
        c.exec.budget_truncated_paths += r.budget_truncated_paths;
        c.exec.depth_truncated_paths += r.depth_truncated_paths;
        c.exec.tail_enclosed_paths += r.tail_enclosed_paths;
        c.exec.ranked_tail_paths += r.ranked_tail_paths;
        if self.config.lint {
            for lint in a.lints() {
                if lint.severity == Severity::Warning {
                    c.lint_warnings += 1;
                }
                println!("lint: {}", lint.render(source));
            }
        }
        a
    }

    /// Records one deadline-scoped query outcome in the census; a run
    /// without a deadline records nothing (the query helpers call this;
    /// `repro query` calls it directly because it needs the full
    /// [`QueryOutcome`] for its report line and exit code).
    pub fn note_outcome(&self, o: &QueryOutcome) {
        if self.deadline.is_none() {
            return;
        }
        let mut c = self.census.borrow_mut();
        c.timed_queries += 1;
        if o.degraded {
            c.degraded_queries += 1;
        }
        c.min_completeness = c.min_completeness.min(o.completeness.max(0.0));
    }

    /// [`Analyzer::denotation_bounds`] under the run's deadline: past it
    /// the bounds degrade to sound coarse enclosures instead of
    /// blocking. Without a deadline this is exactly `denotation_bounds`.
    pub fn denotation_bounds(&self, a: &Analyzer, u: Interval) -> (f64, f64) {
        let o = a.denotation_outcome(u, self.deadline());
        self.note_outcome(&o);
        o.bounds()
    }

    /// [`Analyzer::posterior_probability`] under the run's deadline; see
    /// [`Run::denotation_bounds`].
    pub fn posterior_probability(&self, a: &Analyzer, u: Interval) -> (f64, f64) {
        let o = a.posterior_outcome(u, self.deadline());
        self.note_outcome(&o);
        o.bounds()
    }
}

/// Runs the GuBPI analyzer on a Table 1 benchmark, returning the
/// guaranteed bounds on `P(result ∈ U)`.
pub fn analyze_prob_benchmark(run: &Run, b: &ProbBenchmark) -> (f64, f64) {
    let mut opts = run.options();
    opts.sym.max_fix_unfoldings = b.unfold;
    run.denotation_bounds(&run.analyzer(b.source, opts), b.u)
}

/// Builds an analyzer configured for a figure benchmark.
pub fn analyzer_for_figure(run: &Run, b: &FigureBenchmark) -> Analyzer {
    let mut opts = run.options();
    opts.sym.max_fix_unfoldings = b.unfold;
    opts.bounds.splits = b.splits;
    run.analyzer(b.source, opts)
}

/// Monte-Carlo estimate of `P(result ∈ U)` by likelihood weighting —
/// the statistical cross-check used in tests and EXPERIMENTS.md.
pub fn mc_probability(source: &str, u: Interval, samples: usize, seed: u64) -> f64 {
    let program = gubpi_lang::parse(source).expect("benchmark must parse");
    let mut rng = StdRng::seed_from_u64(seed);
    let ws = gubpi_inference::importance_sample(
        &program,
        samples,
        gubpi_inference::ImportanceOptions::default(),
        &mut rng,
    );
    ws.probability_in(u.lo(), u.hi())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn table1_first_row_runs_end_to_end() {
        let b = &models::table1()[3]; // ex-book-s, count >= 2 (cheap)
        let (lo, hi) = analyze_prob_benchmark(&Run::new(RunConfig::default()), b);
        // Binomial(5, 1/2): P(count ≥ 2) = 1 − 6/32 = 0.8125, and the
        // discrete model should be computed (near-)exactly.
        assert!(lo <= 0.8125 && 0.8125 <= hi, "[{lo}, {hi}]");
        assert!(hi - lo < 1e-6, "[{lo}, {hi}]");
    }

    #[test]
    fn mc_agrees_with_bounds_on_example4() {
        let b = models::table1()
            .into_iter()
            .find(|b| b.name == "example4")
            .unwrap();
        let (lo, hi) = analyze_prob_benchmark(&Run::new(RunConfig::default()), &b);
        let mc = mc_probability(b.source, b.u, 40_000, 7);
        assert!(
            lo - 0.01 <= mc && mc <= hi + 0.01,
            "mc={mc} outside [{lo}, {hi}]"
        );
        // Exact value 0.18 = (6²/2)/100 up to float rounding.
        assert!(lo <= 0.18 + 1e-12 && 0.18 <= hi + 1e-12);
    }
}
