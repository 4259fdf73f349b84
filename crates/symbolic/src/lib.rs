//! Stochastic symbolic execution of SPCF (§6.1, Appendix B).
//!
//! Each `sample` evaluates to a fresh *sample variable* `α_i`; branching
//! explores both arms while recording symbolic constraints `V ⊲⊳ 0` in
//! `Δ`; `score(V)` records `V` in `Ξ`. A finished path
//! `Ψ = (V, n, Δ, Ξ)` denotes (Lemma B.1)
//!
//! ```text
//! ⟦Ψ⟧(U) = ∫_{Sat_n(Δ)} [V[s/α] ∈ U] · Π_{W∈Ξ} W[s/α] ds
//! ```
//!
//! and the program denotation is the sum over all paths (Theorem 6.1).
//!
//! Recursion is explored up to a per-path fixpoint-unfolding budget;
//! beyond it, `approxFix` (§6.2) replaces the applied fixpoint by
//! `λ_. score([e, f]); [c, d]` with `[c, d]`, `[e, f]` read off the
//! weight-aware interval type of the fixpoint — making the path set
//! finite at the price of interval literals inside the symbolic values.
//!
//! # Example (the pedestrian paths of Example 6.1)
//!
//! ```
//! use gubpi_lang::{infer, parse};
//! use gubpi_symbolic::{symbolic_paths, SymExecOptions};
//! use gubpi_types::infer_interval_types;
//!
//! let p = parse(
//!     "let start = 3 * sample in \
//!      let rec walk x = \
//!        if x <= 0 then 0 else \
//!          let step = sample in \
//!          if sample <= 0.5 then step + walk (x + step) \
//!          else step + walk (x - step) \
//!      in \
//!      let d = walk start in \
//!      observe d from normal(1.1, 0.1); start",
//! ).unwrap();
//! let simple = infer(&p).unwrap();
//! let typing = infer_interval_types(&p, &simple);
//! let paths = symbolic_paths(&p, &typing, SymExecOptions { max_fix_unfoldings: 3, ..Default::default() });
//! assert!(paths.len() > 1);
//! // Every path returns the symbolic value 3·α₁.
//! ```

mod exec;
pub mod kernel;
mod path;
mod symval;

pub use exec::{symbolic_paths, symbolic_paths_report_cancellable, ExecReport, SymExecOptions};
pub use gubpi_pool::{CancelToken, WorkerPool};
pub use kernel::{
    kernel_stats, note_kernel_cells, CellBounds, KernelSeed, KernelStats, Tape, TapeScratch, LANES,
};
pub use path::{CmpDir, SymConstraint, SymPath, TailEnclosure, TailPrefix};
pub use symval::SymVal;
