//! Pre-execution static analysis for GuBPI.
//!
//! Before the symbolic executor runs, a single abstract-interpretation
//! pass over the SPCF AST produces a [`ProgramFacts`] table: per-subterm
//! value intervals (computed with the same `eval_interval` primitives
//! the path-bound kernel trusts), per-`score` weight enclosures, branch
//! reachability, and per-recursion weight-contraction estimates read off
//! the weight-aware interval types.
//!
//! A second pass, **ranking synthesis** ([`ranking`]), runs over the
//! facts: for each `μ` node it extracts the per-unfolding argument
//! transformer as an interval-affine map and certifies — by interval
//! arithmetic alone — an *eventually*-geometric tail fact
//! ([`RankedTail`]: bounded prefix `k₀`, post-prefix rate, prefix
//! weight) for data-guarded recursions the plain contraction estimate
//! cannot bound below 1.
//!
//! Four consumers:
//!
//! * the **symbolic executor** skips provably zero-mass branches (every
//!   `else fail`), dropping paths whose contribution to *both* posterior
//!   bounds is exactly `0.0` — pruned runs are bit-identical to
//!   unpruned runs, just with fewer paths;
//! * the **path-bound kernel** seeds its constant pool and its
//!   constraint evaluation order from the static intervals instead of
//!   re-deriving them per query;
//! * **tail enclosures**: budget-truncated ⊤ paths carry the plain
//!   contraction and, when synthesized, the ranked prefix — bounding
//!   substitutes a finite geometric (or two-phase eventually-geometric)
//!   remainder for the bare `[0, ∞]` placeholder;
//! * the **lint layer** ([`lint_program`]) reports modelling mistakes —
//!   zero-weight observations, out-of-domain distribution parameters,
//!   unreachable branches, unused sampling bindings, truncation-prone
//!   recursions, recursions with no synthesizable tail bound — with
//!   pretty-printed locations (`repro analyze`).
//!
//! # Example
//!
//! ```
//! use gubpi_analysis::{lint_program, LintKind, ProgramFacts};
//! use gubpi_lang::{infer, parse};
//! use gubpi_types::infer_interval_types;
//!
//! let p = parse("if sample <= 0.5 then sample else fail").unwrap();
//! let simple = infer(&p).unwrap();
//! let typing = infer_interval_types(&p, &simple);
//! let facts = ProgramFacts::compute(&p, &typing);
//! assert_eq!(facts.dead_branch_count(), 1); // the `fail` branch
//! assert!(lint_program(&p, &typing, &facts).is_empty()); // deliberate
//! ```

pub mod facts;
pub mod lint;
pub mod ranking;

pub use facts::{BranchFlow, ProgramFacts, TailFact, UnusedSample};
pub use lint::{lint_program, Lint, LintKind, Severity};
pub use ranking::{AffineMap, RankVerdict, RankedTail, RankingEvidence};
