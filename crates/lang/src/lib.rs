//! Statistical PCF (SPCF): the probabilistic language of the GuBPI paper.
//!
//! This crate is the front end of the reproduction: a lexer and parser for
//! an ML-flavoured surface syntax, desugaring into the paper's core
//! calculus (§2.2), simple-type inference with unification, a primitive
//! operation table with exact interval liftings, a pretty printer, and the
//! persistent binding [`Env`] every downstream interpreter evaluates under.
//!
//! ```text
//! V ::= x | r | λx.M | μφ x. M
//! M ::= V | M N | if(M, N, P) | f(M₁, …, M_|f|) | sample | score(M)
//! ```
//!
//! # Example
//!
//! ```
//! use gubpi_lang::{infer, parse};
//!
//! let program = parse(
//!     "let bias = sample in \
//!      observe 1 from normal(bias, 0.5); \
//!      bias",
//! ).unwrap();
//! let types = infer(&program).unwrap();
//! assert!(types.ty(program.root.id).is_real());
//! ```

pub mod ast;
pub mod env;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod prim;
pub mod token;
pub mod types;

pub use ast::{AstBuilder, Expr, ExprKind, Name, NodeId, Program, Span};
pub use env::Env;
pub use error::{line_col, LangError, Phase};
pub use parser::parse;
pub use pretty::pretty;
pub use prim::PrimOp;
pub use types::{infer, SimpleTy, TypeMap};
