//! Runtime values and environments for the big-step evaluators.

use std::fmt;
use std::rc::Rc;

use gubpi_lang::{Expr, Name};

/// A runtime value: a real number, a closure, or a recursive closure.
#[derive(Clone)]
pub enum Value {
    /// A real constant.
    Real(f64),
    /// `λx. body` closed over `env`.
    Closure {
        /// The parameter name.
        param: Name,
        /// The body expression (shared).
        body: Rc<Expr>,
        /// The captured environment.
        env: Env,
    },
    /// `μφ x. body` closed over `env`; applying it re-binds `φ` to itself.
    FixClosure {
        /// The recursion variable `φ`.
        fname: Name,
        /// The parameter name.
        param: Name,
        /// The body expression (shared).
        body: Rc<Expr>,
        /// The captured environment.
        env: Env,
    },
}

impl Value {
    /// Extracts the real number, or `None` for closures.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(r) => write!(f, "{r}"),
            Value::Closure { param, .. } => write!(f, "<closure λ{param}>"),
            Value::FixClosure { fname, param, .. } => write!(f, "<fix μ{fname} {param}>"),
        }
    }
}

/// The big-step evaluators' environment: the shared persistent
/// [`gubpi_lang::Env`] binding names to runtime values.
pub type Env = gubpi_lang::Env<Name, Value>;
