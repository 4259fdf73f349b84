//! Linear programming and convex-polytope volume computation.
//!
//! The linear interval trace semantics of the GuBPI paper (§6.4) reduces
//! posterior bounds to two geometric primitives over convex polytopes
//! `𝔓 ⊆ [0,1]^n` given in H-representation:
//!
//! 1. **bounding a linear functional** `w·x` over `𝔓` — used to box the
//!    score values `W_i` (solved by a dense two-phase [`simplex`] LP);
//! 2. **volume computation** `vol(𝔓^t)` — the paper uses the external
//!    Vinci tool; this crate substitutes
//!    [`HPolytope::volume_lasserre`], an implementation of Lasserre's
//!    facet-recursion formula
//!    `vol(P) = (1/n) Σᵢ ((bᵢ − aᵢ·x₀)/‖aᵢ‖) vol_{n−1}(Fᵢ)`,
//!    plus [`HPolytope::volume_bounds`], a certified branch-and-bound
//!    box-subdivision method producing guaranteed `[lo, hi]` volume
//!    bounds (used to cross-check Lasserre and wherever certified bounds
//!    are preferred).
//!
//! # Example
//!
//! ```
//! use gubpi_polytope::HPolytope;
//!
//! // The triangle x + y ≤ 1 inside the unit square has area 1/2.
//! let mut p = HPolytope::unit_cube(2);
//! p.add_constraint(vec![1.0, 1.0], 1.0);
//! assert!((p.volume_lasserre() - 0.5).abs() < 1e-9);
//! let (lo, hi) = p.volume_bounds(4096);
//! assert!(lo <= 0.5 && 0.5 <= hi);
//! ```

mod hpoly;
mod linexpr;
#[cfg(test)]
mod reference;
pub mod simplex;
mod volume;

pub use hpoly::HPolytope;
pub use linexpr::LinExpr;
pub use simplex::{solve_lp, solve_lp_free, LpOutcome};
pub use volume::VolumeScratch;
