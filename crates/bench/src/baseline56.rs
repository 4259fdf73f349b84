//! The probability-estimation baseline of Sankaranarayanan et al.
//! (PLDI 2013) — the "\[56\]" column of Table 1 — re-implemented on our
//! symbolic-execution machinery.
//!
//! Their method explores finitely many symbolic paths of a **score-free**
//! program, bounds each path's probability with coarse volume bounds, and
//! accounts for the unexplored paths by a cumulative-probability defect
//! `c`: if the explored paths carry mass `≥ 1 − c` and the event has
//! probability at most `b` on them, the whole-program probability is at
//! most `b + c`. Two deliberate differences from GuBPI (mirrored from the
//! papers):
//!
//! * no `score` support — programs with observations are rejected;
//! * per-path volumes are certified box bounds with a small budget
//!   (standing in for their interval/branch-and-bound volume estimates),
//!   not exact polytope volumes — bounds come out wider but faster.

use gubpi_core::{bound_path, Method, PathBoundOptions, SingleQuery, Threads};
use gubpi_interval::Interval;
use gubpi_lang::{infer, parse, LangError};
use gubpi_symbolic::{symbolic_paths, SymExecOptions, SymPath};
use gubpi_types::infer_interval_types;

/// Options for the baseline.
#[derive(Copy, Clone, Debug)]
pub struct BaselineOptions {
    /// Path-exploration depth (fixpoint unfoldings).
    pub unfold: u32,
    /// Volume budget per path (box subdivisions).
    pub volume_budget: usize,
    /// Splits per boxed expression.
    pub splits: usize,
}

impl Default for BaselineOptions {
    fn default() -> BaselineOptions {
        BaselineOptions {
            unfold: 6,
            volume_budget: 256,
            splits: 4,
        }
    }
}

/// Why the baseline refused a program.
#[derive(Debug)]
pub enum BaselineError {
    /// Front-end failure.
    Lang(LangError),
    /// The program uses `score`/`observe` — outside the method's scope.
    HasScores,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Lang(e) => write!(f, "{e}"),
            BaselineError::HasScores => write!(f, "baseline supports only score-free programs"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Bounds `P(result ∈ U)` for a score-free program.
///
/// # Errors
///
/// Fails on front-end errors or when the program contains `score`.
pub fn baseline56_bounds(
    source: &str,
    u: Interval,
    opts: BaselineOptions,
) -> Result<(f64, f64), BaselineError> {
    let program = parse(source).map_err(BaselineError::Lang)?;
    let simple = infer(&program).map_err(BaselineError::Lang)?;
    let typing = infer_interval_types(&program, &simple);
    let paths = symbolic_paths(
        &program,
        &typing,
        SymExecOptions {
            max_fix_unfoldings: opts.unfold,
            ..Default::default()
        },
    );
    // Score-free check over *exact* paths (truncated paths may carry the
    // approxFix weight marker, which counts as unexplored mass below).
    if paths.iter().any(|p| !p.truncated && !p.scores.is_empty()) {
        return Err(BaselineError::HasScores);
    }

    let popts = PathBoundOptions {
        splits: opts.splits,
        certified_volumes: true,
        volume_budget: opts.volume_budget,
        ..Default::default()
    };

    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    let mut unexplored = 0.0f64;
    for p in &paths {
        if p.truncated {
            unexplored += path_mass_upper(p, popts);
        } else {
            let mut sink = SingleQuery::new(u);
            bound_path(p, popts, Method::Auto, Threads::Off, &mut sink);
            lo += sink.lo;
            hi += sink.hi;
        }
    }
    Ok((lo, (hi + unexplored).min(1.0)))
}

/// Upper bound on a truncated path's probability mass (score-free ⇒ the
/// mass is the volume of its constraint region).
fn path_mass_upper(p: &SymPath, opts: PathBoundOptions) -> f64 {
    let mut sink = SingleQuery::new(Interval::REAL);
    // Drop score markers for the mass computation: the path's probability
    // is the measure of traces reaching it.
    let clean = SymPath {
        scores: Vec::new(),
        ..p.clone()
    };
    bound_path(&clean, opts, Method::Auto, Threads::Off, &mut sink);
    sink.hi.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_brackets_simple_probabilities() {
        let (lo, hi) = baseline56_bounds(
            "if sample + sample <= 0.75 then 1 else 0",
            Interval::new(0.5, 1.5),
            BaselineOptions::default(),
        )
        .unwrap();
        assert!(lo <= 0.28125 && 0.28125 <= hi, "[{lo}, {hi}]");
    }

    #[test]
    fn baseline_rejects_observed_programs() {
        let err = baseline56_bounds(
            "observe sample from normal(0.5, 0.1); 1",
            Interval::REAL,
            BaselineOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BaselineError::HasScores));
    }

    #[test]
    fn unexplored_recursion_widens_the_upper_bound() {
        // Geometric loop explored to depth 3: upper bound inflated by the
        // residual mass 2^-3.
        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let opts = BaselineOptions {
            unfold: 3,
            ..Default::default()
        };
        let (lo, hi) = baseline56_bounds(src, Interval::new(-0.5, 0.5), opts).unwrap();
        // P(result = 0) = 1/2.
        assert!(lo <= 0.5 && 0.5 <= hi);
        assert!(hi >= 0.5 + 0.1, "defect mass must widen the bound: hi={hi}");
    }
}
