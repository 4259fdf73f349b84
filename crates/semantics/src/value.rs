//! Runtime values and environments for the big-step evaluators.

use std::fmt;

use gubpi_lang::Expr;

/// A runtime value: a real number, a closure, or a recursive closure.
/// Closures borrow their names and bodies from the program `'a` being
/// evaluated.
#[derive(Clone)]
pub enum Value<'a> {
    /// A real constant.
    Real(f64),
    /// `λx. body` closed over `env`.
    Closure {
        /// The parameter name.
        param: &'a str,
        /// The body expression.
        body: &'a Expr,
        /// The captured environment.
        env: Env<'a>,
    },
    /// `μφ x. body` closed over `env`; applying it re-binds `φ` to itself.
    FixClosure {
        /// The recursion variable `φ`.
        fname: &'a str,
        /// The parameter name.
        param: &'a str,
        /// The body expression.
        body: &'a Expr,
        /// The captured environment.
        env: Env<'a>,
    },
}

impl Value<'_> {
    /// Extracts the real number, or `None` for closures.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Debug for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(r) => write!(f, "{r}"),
            Value::Closure { param, .. } => write!(f, "<closure λ{param}>"),
            Value::FixClosure { fname, param, .. } => write!(f, "<fix μ{fname} {param}>"),
        }
    }
}

/// The big-step evaluators' environment: the shared persistent
/// [`gubpi_lang::Env`] binding names borrowed from the program to
/// runtime values.
pub type Env<'a> = gubpi_lang::Env<&'a str, Value<'a>>;
