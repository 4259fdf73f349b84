//! Abstract syntax of SPCF (§2.2 of the paper).
//!
//! The core language is exactly the paper's statistical PCF:
//!
//! ```text
//! V ::= x | r | λx.M | μφ x. M
//! M ::= V | M N | if(M, N, P) | f(M₁, …, M_|f|) | sample | score(M)
//! ```
//!
//! Surface conveniences (`let`, `let rec`, comparisons, `observe … from`,
//! `sample D(…)`, `flip`, sequencing with `;`) are desugared by the parser
//! into this core syntax, so every downstream analysis only ever sees the
//! eight constructors of [`ExprKind`].

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::prim::PrimOp;

/// An interned variable name.
pub type Name = Arc<str>;

/// A unique identifier for every AST node, assigned by the [`AstBuilder`].
///
/// Node ids key the side tables produced by later passes (simple types,
/// interval types), keeping the AST itself immutable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A byte range into the source text, used for error reporting.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: u32,
    /// Exclusive end byte offset.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both inputs.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// An SPCF expression: a [`NodeId`], a source [`Span`] and the syntactic
/// [`ExprKind`].
#[derive(Clone, Debug)]
pub struct Expr {
    /// Unique node id (see [`NodeId`]).
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// The syntactic constructor.
    pub kind: ExprKind,
}

/// The eight core constructors of SPCF.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// A variable `x`.
    Var(Name),
    /// A real constant `r`.
    Const(f64),
    /// A lambda abstraction `λx. M`.
    Lam(Name, Box<Expr>),
    /// A recursive function `μφ x. M` (the paper writes `μ^φ_x. M`).
    Fix(Name, Name, Box<Expr>),
    /// Application `M N` (call-by-value).
    App(Box<Expr>, Box<Expr>),
    /// `if(M, N, P)`: evaluates `N` when `M ≤ 0` and `P` otherwise.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A primitive operation `f(M₁, …, M_|f|)`.
    Prim(PrimOp, Vec<Expr>),
    /// `sample`: draws uniformly from `[0, 1]`.
    Sample,
    /// `score(M)`: multiplies the current execution weight by `M`.
    Score(Box<Expr>),
}

impl Expr {
    /// The set of free variables.
    pub fn free_vars(&self) -> HashSet<Name> {
        let mut acc = HashSet::new();
        self.collect_free(&mut Vec::new(), &mut acc);
        acc
    }

    fn collect_free(&self, bound: &mut Vec<Name>, acc: &mut HashSet<Name>) {
        match &self.kind {
            ExprKind::Var(x) => {
                if !bound.iter().any(|b| b == x) {
                    acc.insert(x.clone());
                }
            }
            ExprKind::Const(_) | ExprKind::Sample => {}
            ExprKind::Lam(x, body) => {
                bound.push(x.clone());
                body.collect_free(bound, acc);
                bound.pop();
            }
            ExprKind::Fix(f, x, body) => {
                bound.push(f.clone());
                bound.push(x.clone());
                body.collect_free(bound, acc);
                bound.pop();
                bound.pop();
            }
            ExprKind::App(a, b) => {
                a.collect_free(bound, acc);
                b.collect_free(bound, acc);
            }
            ExprKind::If(c, t, e) => {
                c.collect_free(bound, acc);
                t.collect_free(bound, acc);
                e.collect_free(bound, acc);
            }
            ExprKind::Prim(_, args) => {
                for a in args {
                    a.collect_free(bound, acc);
                }
            }
            ExprKind::Score(m) => m.collect_free(bound, acc),
        }
    }

    /// Is this expression a syntactic value (variable, constant, lambda or
    /// fixpoint)?
    pub fn is_value(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Lam(..) | ExprKind::Fix(..)
        )
    }

    /// Walks the subtree, applying `f` to every node (preorder).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Sample => {}
            ExprKind::Lam(_, b) | ExprKind::Score(b) => b.walk(f),
            ExprKind::Fix(_, _, b) => b.walk(f),
            ExprKind::App(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::If(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            ExprKind::Prim(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::pretty(self))
    }
}

/// A closed, parsed and desugared SPCF program of ground type.
#[derive(Clone, Debug)]
pub struct Program {
    /// The root expression.
    pub root: Expr,
    /// Total number of [`NodeId`]s allocated (ids are `0..node_count`).
    pub node_count: u32,
}

/// Allocates fresh [`NodeId`]s and fresh internal variable names.
#[derive(Debug, Default)]
pub struct AstBuilder {
    next_id: u32,
    next_fresh: u32,
}

impl AstBuilder {
    /// A new builder starting at node id 0.
    pub fn new() -> AstBuilder {
        AstBuilder::default()
    }

    /// Wraps `kind` with a fresh node id.
    pub fn mk(&mut self, kind: ExprKind, span: Span) -> Expr {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        Expr { id, span, kind }
    }

    /// A fresh internal variable name (cannot clash with source names,
    /// which never contain `$`).
    pub fn fresh_name(&mut self, hint: &str) -> Name {
        let n = self.next_fresh;
        self.next_fresh += 1;
        Arc::from(format!("${hint}{n}").as_str())
    }

    /// Number of node ids allocated so far.
    pub fn node_count(&self) -> u32 {
        self.next_id
    }

    /// Convenience: `let x = bound in body`, i.e. `(λx. body) bound`.
    pub fn mk_let(&mut self, x: Name, bound: Expr, body: Expr, span: Span) -> Expr {
        let lam = self.mk(ExprKind::Lam(x, Box::new(body)), span);
        self.mk(ExprKind::App(Box::new(lam), Box::new(bound)), span)
    }

    /// Convenience: a constant.
    pub fn mk_const(&mut self, r: f64, span: Span) -> Expr {
        self.mk(ExprKind::Const(r), span)
    }

    /// Convenience: a primitive application.
    pub fn mk_prim(&mut self, op: PrimOp, args: Vec<Expr>, span: Span) -> Expr {
        debug_assert_eq!(args.len(), op.arity(), "arity mismatch for {op:?}");
        self.mk(ExprKind::Prim(op, args), span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b() -> AstBuilder {
        AstBuilder::new()
    }

    #[test]
    fn node_ids_are_unique() {
        let mut bld = b();
        let e1 = bld.mk(ExprKind::Sample, Span::default());
        let e2 = bld.mk(ExprKind::Const(1.0), Span::default());
        assert_ne!(e1.id, e2.id);
        assert_eq!(bld.node_count(), 2);
    }

    #[test]
    fn free_vars_respect_binders() {
        let mut bld = b();
        let x: Name = Arc::from("x");
        let y: Name = Arc::from("y");
        // λx. x + y
        let body = {
            let vx = bld.mk(ExprKind::Var(x.clone()), Span::default());
            let vy = bld.mk(ExprKind::Var(y.clone()), Span::default());
            bld.mk_prim(PrimOp::Add, vec![vx, vy], Span::default())
        };
        let lam = bld.mk(ExprKind::Lam(x.clone(), Box::new(body)), Span::default());
        let fv = lam.free_vars();
        assert!(fv.contains(&y));
        assert!(!fv.contains(&x));
    }

    #[test]
    fn fix_binds_both_names() {
        let mut bld = b();
        let f: Name = Arc::from("f");
        let x: Name = Arc::from("x");
        let body = {
            let vf = bld.mk(ExprKind::Var(f.clone()), Span::default());
            let vx = bld.mk(ExprKind::Var(x.clone()), Span::default());
            bld.mk(ExprKind::App(Box::new(vf), Box::new(vx)), Span::default())
        };
        let fix = bld.mk(ExprKind::Fix(f, x, Box::new(body)), Span::default());
        assert!(fix.free_vars().is_empty());
        assert!(fix.is_value());
    }

    #[test]
    fn fresh_names_are_distinct_and_internal() {
        let mut bld = b();
        let a = bld.fresh_name("u");
        let c = bld.fresh_name("u");
        assert_ne!(a, c);
        assert!(a.starts_with('$'));
    }

    #[test]
    fn mk_let_desugars_to_application() {
        let mut bld = b();
        let x: Name = Arc::from("x");
        let one = bld.mk_const(1.0, Span::default());
        let body = bld.mk(ExprKind::Var(x.clone()), Span::default());
        let e = bld.mk_let(x, one, body, Span::default());
        match &e.kind {
            ExprKind::App(f, _) => assert!(matches!(f.kind, ExprKind::Lam(..))),
            _ => panic!("expected application"),
        }
    }
}
