//! GuBPI: guaranteed lower/upper bounds on the posterior of universal
//! probabilistic programs.
//!
//! This crate is the top of the reproduction stack — the analogue of the
//! paper's tool (§6, Algorithm 1). The pipeline:
//!
//! 1. parse + simple-type a program (`gubpi-lang`);
//! 2. infer weight-aware interval types (`gubpi-types`);
//! 3. symbolically execute with a fixpoint-unfolding budget, using
//!    `approxFix` to close off recursion (`gubpi-symbolic`);
//! 4. bound the denotation `⟦Ψ⟧` of every symbolic interval path with
//!    either the **linear semantics** (§6.4: polytope volumes + LP score
//!    boxing, `gubpi-polytope`) or the **standard grid semantics** (§6.3:
//!    interval splitting of every sample variable);
//! 5. aggregate into query bounds, histogram bounds and normalised
//!    posterior bounds.
//!
//! The headline guarantee (Corollary 6.3):
//! `Σ_Ψ ⟦Ψ⟧_lb(U) ≤ ⟦P⟧(U) ≤ Σ_Ψ ⟦Ψ⟧_ub(U)`.
//!
//! # Quickstart
//!
//! ```
//! use gubpi_core::{Analyzer, AnalysisOptions};
//! use gubpi_interval::Interval;
//!
//! // A conjugate-style model: uniform prior, one observation.
//! let src = "
//!     let bias = sample in
//!     observe 0.8 from normal(bias, 0.25);
//!     bias";
//! let analyzer = Analyzer::from_source(src, AnalysisOptions::default()).unwrap();
//! let z = analyzer.normalizing_constant();
//! assert!(z.0 <= z.1 && z.0 > 0.0);
//! // Posterior probability that the bias exceeds 1/2.
//! let (lo, hi) = analyzer.posterior_probability(Interval::new(0.5, 1.0));
//! assert!(lo <= hi && hi <= 1.0);
//! assert!(lo > 0.5, "observing 0.8 pulls the posterior above 0.5");
//! ```

mod analyze;
mod histogram;
mod pathbounds;
mod report;

/// The persistent executor subsystem: one long-lived work-stealing
/// worker pool shared across queries and `Analyzer` instances, with the
/// unified deterministic task model (`Task::Path` / `Task::Regions`).
/// Re-exported from the bottom-of-stack `gubpi_pool` crate, which the
/// symbolic executor also uses for its `CancelToken`.
pub mod pool {
    pub use gubpi_pool::{
        arm_fault_from_env, fault_point, faults_injected, run_jobs_cancellable, run_jobs_with,
        set_fault_plan, CancelToken, FaultKind, FaultPlan, PathJob, PoolStats, SweepProgress, Task,
        Threads, WorkerPool,
    };
}

pub use analyze::{
    AnalysisOptions, Analyzer, CacheStats, Method, QueryError, QueryOutcome, SharedQueryCache,
};
pub use gubpi_analysis::{lint_program, Lint, LintKind, ProgramFacts, RankVerdict, Severity};
pub use gubpi_symbolic::ExecReport;
pub use histogram::{HistogramBounds, NormalizedBin};
pub use pathbounds::{
    bound_path, bound_path_query, coarse_path_enclosure, grid_splits, linear_applicable,
    plan_path_grid_only_seeded, plan_path_query_seeded, plan_path_seeded, run_adaptive_refinement,
    run_adaptive_refinement_cancellable, tail_substituted, BoundSink, GridRefiner,
    PathBoundOptions, QueryFold, RefineOptions, Region,
};
pub use pool::{CancelToken, PoolStats, Threads, WorkerPool};
pub use report::render_histogram;
