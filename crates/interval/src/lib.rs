//! Interval arithmetic for guaranteed posterior bounds.
//!
//! This crate provides the numeric substrate of the GuBPI reproduction:
//! closed intervals over the extended reals `R ∪ {−∞, +∞}` (§3.1 of the
//! paper), the interval lattice with bottom element and widening operator
//! used by the weight-aware type system (Appendix A.1 and D), and
//! `n`-dimensional boxes used by the interval trace semantics and the
//! polytope-based linear semantics (§6.4).
//!
//! # Conventions
//!
//! * Intervals are **closed**: `[a, b] = { x | a ≤ x ≤ b }` with
//!   `a ∈ R ∪ {−∞}`, `b ∈ R ∪ {+∞}` and `a ≤ b`. Following the paper we
//!   write `[0, ∞]` rather than `[0, ∞)`.
//! * The product `0 · ±∞` is defined to be `0`, matching the
//!   measure-theoretic convention used for weights (a weight of `0`
//!   annihilates even an unbounded score bound).
//! * `NaN` endpoints are rejected at construction time.
//!
//! # Example
//!
//! ```
//! use gubpi_interval::Interval;
//!
//! let x = Interval::new(0.0, 1.0);
//! let y = Interval::new(2.0, 3.0);
//! assert_eq!(x + y, Interval::new(2.0, 4.0));
//! assert!((x * y).contains(1.7));
//! ```

mod boxes;
mod interval;
mod lattice;
mod round;

pub use boxes::{widest_dim, BoxN};
pub use interval::Interval;
pub use lattice::{widen, Lattice};
pub use round::{add_down, add_up, next_after_down, next_after_up, pow_up};
