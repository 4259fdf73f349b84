//! Benchmark harness for the GuBPI reproduction.
//!
//! One module per concern:
//!
//! * [`models`] — every program of the paper's evaluation (§7) in our
//!   SPCF surface syntax, with per-benchmark parameters;
//! * [`baseline56`] — the probability-estimation baseline of
//!   Sankaranarayanan et al. (the "\[56\]" column of Table 1);
//! * [`groundtruth`] — exact rational posteriors for the discrete
//!   Table 2 models (the PSI stand-in);
//! * [`harness`] — the run value (configuration parsed once, shared
//!   cache, deadline, `--stats` census) and the runners that produce
//!   the rows/series printed by the `repro` binary.

pub mod baseline56;
pub mod groundtruth;
pub mod harness;
pub mod models;

pub use baseline56::{baseline56_bounds, BaselineOptions};
pub use groundtruth::Ratio;
pub use harness::{
    analyze_prob_benchmark, analyzer_for_figure, mc_probability, Census, Run, RunConfig,
};
