//! Stochastic inference baselines for SPCF programs.
//!
//! The GuBPI paper's evaluation compares its guaranteed bounds against
//! the output of stochastic inference engines (Fig. 1/7, §7.4). This
//! crate implements those baselines on our own trace semantics:
//!
//! * [`importance`] — likelihood-weighted importance sampling (the
//!   algorithm behind Anglican's IS in Fig. 1);
//! * [`mh`] — single-site ("lightweight") Metropolis–Hastings over
//!   traces;
//! * [`hmc`] — Hamiltonian Monte Carlo with leapfrog integration and
//!   finite-difference gradients over a **fixed-length truncated trace**.
//!   This deliberately repeats Pyro's modelling error on nonparametric
//!   models (treating a trans-dimensional program as fixed-dimensional),
//!   reproducing the *wrong* histogram of Fig. 1 that GuBPI's bounds then
//!   refute;
//! * [`sbc`] — simulation-based calibration (rank-statistic uniformity,
//!   §7.4 / Appendix F.3) with a χ² uniformity score.
//!
//! # Example
//!
//! ```
//! use gubpi_inference::importance::{importance_sample, ImportanceOptions};
//! use gubpi_lang::parse;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let p = parse("let x = sample in score(x); x").unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let samples = importance_sample(&p, 4_000, ImportanceOptions::default(), &mut rng);
//! let mean = samples.weighted_mean();
//! assert!((mean - 2.0 / 3.0).abs() < 0.05); // E[x | density 2x] = 2/3
//! ```

pub mod hmc;
pub mod importance;
pub mod mh;
pub mod sbc;

pub use importance::{importance_sample, ImportanceOptions, WeightedSamples};
