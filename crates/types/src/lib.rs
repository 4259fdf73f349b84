//! The weight-aware interval type system of the GuBPI paper (§5, App. D).
//!
//! Types bound **both** the value of an expression (refinement-style) and
//! the weight of any terminating execution:
//!
//! ```text
//! σ ::= I | σ → A        (weightless)
//! A ::= ⟨σ, I⟩           (weighted: value bound σ, weight bound I)
//! ```
//!
//! Inference is constraint-based (Fig. 10): the program determines a
//! symbolic derivation skeleton whose intervals are placeholder variables;
//! validity becomes a system of simple interval constraints, solved by a
//! worklist algorithm over the interval lattice. Termination on infinite
//! ascending chains is ensured by the widening operator `∇`
//! ([`gubpi_interval::widen`]); a bounded number of exact rounds runs
//! first so that finite chains (the common case) lose no precision.
//!
//! The analyzer uses the result for `approxFix` (§6.2): a fixpoint that
//! exceeds the unfolding budget is replaced by
//! `λ_. score([e, f]); [c, d]`, reading `[c, d]` and `[e, f]` off the
//! fixpoint's inferred type.
//!
//! # Example (Example 5.2 of the paper)
//!
//! ```
//! use gubpi_lang::{infer, parse};
//! use gubpi_types::infer_interval_types;
//!
//! // The pedestrian's walk: no score inside, so the weight bound is [1,1].
//! let p = parse(
//!     "let rec walk x = \
//!        if x <= 0 then 0 else \
//!          let step = sample in \
//!          if sample <= 0.5 then step + walk (x + step) \
//!          else step + walk (x - step) \
//!      in walk (3 * sample)",
//! ).unwrap();
//! let simple = infer(&p).unwrap();
//! let typing = infer_interval_types(&p, &simple);
//! let (value, weight) = typing.fix_summary(&p).expect("one fixpoint");
//! assert_eq!(weight, gubpi_interval::Interval::ONE);
//! assert!(value.lo() >= 0.0); // walk returns distances ≥ 0
//! ```

mod constraints;
mod infer;
mod solve;
mod ty;

pub use constraints::{Constraint, ConstraintSet};
pub use infer::{infer_interval_types, IntervalTyping};
pub use solve::solve;
pub use ty::{ITy, WTy};
