//! Recursive-descent parser and desugarer for the SPCF surface syntax.
//!
//! The surface language is an ML-flavoured notation for the paper's SPCF:
//!
//! ```text
//! let start = 3 * sample uniform(0, 1) in
//! let rec walk x =
//!   if x <= 0 then 0 else
//!     let step = sample uniform(0, 1) in
//!     if sample <= 0.5 then step + walk (x + step)
//!     else step + walk (x - step)
//! in
//! let distance = walk start in
//! observe distance from normal(1.1, 0.1);
//! start
//! ```
//!
//! Everything desugars into the eight core constructors of
//! [`crate::ast::ExprKind`]:
//!
//! | surface                      | core                                      |
//! |------------------------------|-------------------------------------------|
//! | `let x = e in b`             | `(λx. b) e`                               |
//! | `let f x y = e in b`         | `(λf. b) (λx. λy. e)`                     |
//! | `let rec f x = e in b`       | `(λf. b) (μf x. e)`                       |
//! | `e1; e2`                     | `(λ_. e2) e1`                             |
//! | `if a <= b then n else p`    | `if(a − b, n, p)`                         |
//! | `if a < b then n else p`     | `if(b − a, p, n)`                         |
//! | `observe e from D(θ)`        | `score(pdf_D(θ, e))`                      |
//! | `sample uniform(a, b)`       | `a + (b − a) · sample`                    |
//! | `sample normal(m, s)`        | `m + s · qnormal(sample)`                 |
//! | `sample exponential(r)`      | `qexponential(sample) / r`                |
//! | `sample beta(a, b)`          | `qbeta(a, b, sample)`                     |
//! | `sample cauchy(x0, g)`       | `x0 + g · qcauchy(sample)`                |
//! | `flip(p)` / `bern(p)`        | `if(sample − p, 1, 0)`                    |
//! | `fail`                       | `score(0)`                                |

use std::sync::Arc;

use crate::ast::{AstBuilder, Expr, ExprKind, Name, Program, Span};
use crate::error::{LangError, Phase};
use crate::lexer::lex;
use crate::prim::PrimOp;
use crate::token::{Token, TokenKind};

/// Parses and desugars a program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Example
///
/// ```
/// let p = gubpi_lang::parse("let x = sample in x + 1").unwrap();
/// assert!(p.root.free_vars().is_empty());
/// ```
pub fn parse(source: &str) -> Result<Program, LangError> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        builder: AstBuilder::new(),
    };
    let root = parser.expr()?;
    parser.expect(&TokenKind::Eof)?;
    Ok(Program {
        node_count: parser.builder.node_count(),
        root,
    })
}

/// The deepest expression nesting [`parse`] accepts. Every later phase
/// (typing, abstract interpretation, symbolic execution) recurses over
/// the AST, so depth is bounded once, here: a deeper program is a parse
/// error instead of a stack overflow.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open expression nesting levels (see [`MAX_NESTING`]).
    depth: usize,
    builder: AstBuilder,
}

/// The comparison operator of an `if` condition.
#[derive(Copy, Clone, Debug)]
enum CmpOp {
    Le,
    Lt,
    Ge,
    Gt,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        self.peek_at(1)
    }

    fn peek_at(&self, k: usize) -> &TokenKind {
        let i = (self.pos + k).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, LangError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(LangError::new(
                Phase::Parse,
                format!("expected {kind}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(Name, Span), LangError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                let sp = self.span();
                self.bump();
                Ok((Arc::from(s.as_str()), sp))
            }
            other => Err(LangError::new(
                Phase::Parse,
                format!("expected an identifier, found {other}"),
                self.span(),
            )),
        }
    }

    /// Runs `f` one nesting level deeper, failing once [`MAX_NESTING`]
    /// levels are open.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Expr, LangError>) -> Result<Expr, LangError> {
        if self.depth >= MAX_NESTING {
            return Err(LangError::new(
                Phase::Parse,
                format!("expression nested deeper than {MAX_NESTING} levels"),
                self.span(),
            ));
        }
        self.depth += 1;
        let e = f(self);
        self.depth -= 1;
        e
    }

    /// Every recursive cycle of the grammar passes through `expr` or
    /// the prefix-minus loop in `unary`, so both count nesting levels.
    fn expr(&mut self) -> Result<Expr, LangError> {
        self.nested(Self::seq)
    }

    /// `expr := ctrl (';' expr)?` — sequencing binds loosest.
    fn seq(&mut self) -> Result<Expr, LangError> {
        let first = self.ctrl()?;
        if *self.peek() == TokenKind::Semi {
            self.bump();
            let rest = self.expr()?;
            let span = first.span.merge(rest.span);
            let hole = self.builder.fresh_name("seq");
            Ok(self.builder.mk_let(hole, first, rest, span))
        } else {
            Ok(first)
        }
    }

    /// Control-flow and binding forms, falling back to arithmetic.
    fn ctrl(&mut self) -> Result<Expr, LangError> {
        match self.peek() {
            TokenKind::Let => self.let_expr(),
            TokenKind::If => self.if_expr(),
            TokenKind::Fn => self.fn_expr(),
            // `score(…)` is an atom, so it reaches `arith` like `sample`
            // does — a shortcut here would orphan trailing operators in
            // `score(x) * y`.
            TokenKind::Observe => self.observe_expr(),
            TokenKind::Fail => {
                let sp = self.span();
                self.bump();
                let zero = self.builder.mk_const(0.0, sp);
                Ok(self.builder.mk(ExprKind::Score(Box::new(zero)), sp))
            }
            TokenKind::Ident(s) if s == "mu" && self.mu_header_ahead() => self.mu_expr(),
            _ => self.arith(),
        }
    }

    /// Is the cursor at `mu f x ->`? Anything else starting with the
    /// identifier `mu` (a plain variable, an application) parses as
    /// before — only the full fixpoint header is claimed.
    fn mu_header_ahead(&self) -> bool {
        matches!(self.peek_at(1), TokenKind::Ident(_))
            && matches!(self.peek_at(2), TokenKind::Ident(_))
            && *self.peek_at(3) == TokenKind::Arrow
    }

    /// `mu f x -> body` — the explicit fixpoint the pretty printer emits
    /// for `let rec` desugarings; accepting it closes the round trip.
    fn mu_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        self.bump(); // `mu`
        let (f, _) = self.expect_ident()?;
        let (x, _) = self.expect_ident()?;
        self.expect(&TokenKind::Arrow)?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(self.builder.mk(ExprKind::Fix(f, x, Box::new(body)), span))
    }

    fn let_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        self.expect(&TokenKind::Let)?;
        let recursive = if *self.peek() == TokenKind::Rec {
            self.bump();
            true
        } else {
            false
        };
        let (name, _) = self.expect_ident()?;
        let mut params = Vec::new();
        while let TokenKind::Ident(_) = self.peek() {
            params.push(self.expect_ident()?.0);
        }
        self.expect(&TokenKind::Eq)?;
        let mut bound = self.expr()?;
        self.expect(&TokenKind::In)?;
        let body = self.expr()?;
        let span = start.merge(body.span);

        if recursive {
            if params.is_empty() {
                return Err(LangError::new(
                    Phase::Parse,
                    "`let rec` requires at least one parameter",
                    span,
                ));
            }
            // let rec f x y… = e  ⇒  f = μf x. λy…. e
            for p in params.iter().skip(1).rev() {
                let b_span = bound.span;
                bound = self
                    .builder
                    .mk(ExprKind::Lam(p.clone(), Box::new(bound)), b_span);
            }
            let fix = self.builder.mk(
                ExprKind::Fix(name.clone(), params[0].clone(), Box::new(bound)),
                span,
            );
            Ok(self.builder.mk_let(name, fix, body, span))
        } else {
            for p in params.iter().rev() {
                let b_span = bound.span;
                bound = self
                    .builder
                    .mk(ExprKind::Lam(p.clone(), Box::new(bound)), b_span);
            }
            Ok(self.builder.mk_let(name, bound, body, span))
        }
    }

    fn if_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        self.expect(&TokenKind::If)?;
        let lhs = self.arith()?;
        let op = match self.peek() {
            TokenKind::Le => CmpOp::Le,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Gt => CmpOp::Gt,
            other => {
                return Err(LangError::new(
                    Phase::Parse,
                    format!("expected a comparison operator in `if` condition, found {other}"),
                    self.span(),
                ))
            }
        };
        self.bump();
        let rhs = self.arith()?;
        self.expect(&TokenKind::Then)?;
        let then_e = self.expr()?;
        self.expect(&TokenKind::Else)?;
        let else_e = self.expr()?;
        let span = start.merge(else_e.span);
        // if(M, N, P) takes N when M ≤ 0.
        let (guard, t, e) = match op {
            CmpOp::Le => {
                let g = self.sub(lhs, rhs);
                (g, then_e, else_e)
            }
            CmpOp::Ge => {
                let g = self.sub(rhs, lhs);
                (g, then_e, else_e)
            }
            // a < b  ⇔  ¬(b ≤ a): swap branches
            CmpOp::Lt => {
                let g = self.sub(rhs, lhs);
                (g, else_e, then_e)
            }
            CmpOp::Gt => {
                let g = self.sub(lhs, rhs);
                (g, else_e, then_e)
            }
        };
        Ok(self.builder.mk(
            ExprKind::If(Box::new(guard), Box::new(t), Box::new(e)),
            span,
        ))
    }

    /// Builds `a − b`, folding constants for tidier guards.
    fn sub(&mut self, a: Expr, b: Expr) -> Expr {
        let span = a.span.merge(b.span);
        if let (ExprKind::Const(x), ExprKind::Const(y)) = (&a.kind, &b.kind) {
            return self.builder.mk_const(x - y, span);
        }
        if let ExprKind::Const(0.0) = b.kind {
            return a;
        }
        self.builder.mk_prim(PrimOp::Sub, vec![a, b], span)
    }

    fn fn_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        self.expect(&TokenKind::Fn)?;
        let mut params = vec![self.expect_ident()?.0];
        while let TokenKind::Ident(_) = self.peek() {
            params.push(self.expect_ident()?.0);
        }
        self.expect(&TokenKind::Arrow)?;
        let mut body = self.expr()?;
        let span = start.merge(body.span);
        for p in params.iter().rev() {
            body = self
                .builder
                .mk(ExprKind::Lam(p.clone(), Box::new(body)), span);
        }
        Ok(body)
    }

    fn score_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        self.expect(&TokenKind::Score)?;
        self.expect(&TokenKind::LParen)?;
        let inner = self.expr()?;
        let end = self.span();
        self.expect(&TokenKind::RParen)?;
        Ok(self
            .builder
            .mk(ExprKind::Score(Box::new(inner)), start.merge(end)))
    }

    fn observe_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        self.expect(&TokenKind::Observe)?;
        let value = self.arith()?;
        self.expect(&TokenKind::From)?;
        let (dist, sp) = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != TokenKind::RParen {
            args.push(self.expr()?);
            while *self.peek() == TokenKind::Comma {
                self.bump();
                args.push(self.expr()?);
            }
        }
        let end = self.span();
        self.expect(&TokenKind::RParen)?;
        let span = start.merge(end);
        let (op, expected) = match &*dist {
            "normal" | "gaussian" => (PrimOp::NormalPdf, 2),
            "uniform" => (PrimOp::UniformPdf, 2),
            "beta" => (PrimOp::BetaPdf, 2),
            "exponential" => (PrimOp::ExponentialPdf, 1),
            "cauchy" => (PrimOp::CauchyPdf, 2),
            other => {
                return Err(LangError::new(
                    Phase::Parse,
                    format!("unknown distribution `{other}` in observe"),
                    sp,
                ))
            }
        };
        if args.len() != expected {
            return Err(LangError::new(
                Phase::Parse,
                format!(
                    "distribution `{dist}` expects {expected} parameter(s), got {}",
                    args.len()
                ),
                span,
            ));
        }
        args.push(value);
        let pdf = self.builder.mk_prim(op, args, span);
        Ok(self.builder.mk(ExprKind::Score(Box::new(pdf)), span))
    }

    fn arith(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => PrimOp::Add,
                TokenKind::Minus => PrimOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul()?;
            let span = lhs.span.merge(rhs.span);
            lhs = self.builder.mk_prim(op, vec![lhs, rhs], span);
        }
        Ok(lhs)
    }

    fn mul(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => PrimOp::Mul,
                TokenKind::Slash => PrimOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            let span = lhs.span.merge(rhs.span);
            lhs = self.builder.mk_prim(op, vec![lhs, rhs], span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        if *self.peek() == TokenKind::Minus {
            let start = self.span();
            self.bump();
            let inner = self.nested(Self::unary)?;
            let span = start.merge(inner.span);
            if let ExprKind::Const(c) = inner.kind {
                return Ok(self.builder.mk_const(-c, span));
            }
            return Ok(self.builder.mk_prim(PrimOp::Neg, vec![inner], span));
        }
        self.app()
    }

    fn app(&mut self) -> Result<Expr, LangError> {
        let mut head = self.atom()?;
        while self.atom_starts_here() {
            let arg = self.atom()?;
            let span = head.span.merge(arg.span);
            head = self
                .builder
                .mk(ExprKind::App(Box::new(head), Box::new(arg)), span);
        }
        Ok(head)
    }

    fn atom_starts_here(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Ident(_)
                | TokenKind::Number(_)
                | TokenKind::LParen
                | TokenKind::Sample
                | TokenKind::Score
        )
    }

    fn atom(&mut self) -> Result<Expr, LangError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(self.builder.mk_const(n, span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Score => self.score_expr(),
            TokenKind::Sample => {
                self.bump();
                // `sample D(args)` when followed by a distribution call.
                if let TokenKind::Ident(name) = self.peek().clone() {
                    if is_dist_name(&name) && *self.peek2() == TokenKind::LParen {
                        return self.sample_dist(span);
                    }
                }
                Ok(self.builder.mk(ExprKind::Sample, span))
            }
            TokenKind::Ident(name) => {
                // builtin call?
                if *self.peek2() == TokenKind::LParen {
                    if name == "flip" || name == "bern" {
                        return self.flip_call(span);
                    }
                    if let Some(op) = PrimOp::by_name(&name) {
                        return self.prim_call(op, span);
                    }
                }
                let (n, _) = self.expect_ident()?;
                Ok(self.builder.mk(ExprKind::Var(n), span))
            }
            other => Err(LangError::new(
                Phase::Parse,
                format!("expected an expression, found {other}"),
                span,
            )),
        }
    }

    fn paren_args(&mut self) -> Result<(Vec<Expr>, Span), LangError> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != TokenKind::RParen {
            args.push(self.expr()?);
            while *self.peek() == TokenKind::Comma {
                self.bump();
                args.push(self.expr()?);
            }
        }
        let end = self.span();
        self.expect(&TokenKind::RParen)?;
        Ok((args, end))
    }

    fn prim_call(&mut self, op: PrimOp, start: Span) -> Result<Expr, LangError> {
        self.bump(); // the builtin name
        let (args, end) = self.paren_args()?;
        let span = start.merge(end);
        if args.len() != op.arity() {
            return Err(LangError::new(
                Phase::Parse,
                format!(
                    "`{}` expects {} argument(s), got {}",
                    op.name(),
                    op.arity(),
                    args.len()
                ),
                span,
            ));
        }
        Ok(self.builder.mk_prim(op, args, span))
    }

    /// `flip(p)` ⇒ `if(sample − p, 1, 0)`: 1 with probability `p`.
    fn flip_call(&mut self, start: Span) -> Result<Expr, LangError> {
        self.bump();
        let (mut args, end) = self.paren_args()?;
        let span = start.merge(end);
        if args.len() != 1 {
            return Err(LangError::new(
                Phase::Parse,
                format!("`flip` expects 1 argument, got {}", args.len()),
                span,
            ));
        }
        let p = args.pop().expect("length checked");
        let sample = self.builder.mk(ExprKind::Sample, span);
        let guard = self.builder.mk_prim(PrimOp::Sub, vec![sample, p], span);
        let one = self.builder.mk_const(1.0, span);
        let zero = self.builder.mk_const(0.0, span);
        Ok(self.builder.mk(
            ExprKind::If(Box::new(guard), Box::new(one), Box::new(zero)),
            span,
        ))
    }

    /// Desugars `sample D(args)` via the quantile transform.
    fn sample_dist(&mut self, start: Span) -> Result<Expr, LangError> {
        let (dist, dsp) = self.expect_ident()?;
        let (args, end) = self.paren_args()?;
        let span = start.merge(end);
        let check = |n: usize| -> Result<(), LangError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(LangError::new(
                    Phase::Parse,
                    format!(
                        "distribution `{dist}` expects {n} parameter(s), got {}",
                        args.len()
                    ),
                    span,
                ))
            }
        };
        match &*dist {
            "uniform" => {
                check(2)?;
                let mut it = args.into_iter();
                let (a, b) = (it.next().expect("2 args"), it.next().expect("2 args"));
                // a + (b − a)·sample, with complex params let-bound so the
                // desugaring duplicates no effects.
                self.bind_params(vec![a, b], span, |bld, vars| {
                    let (a, b) = (vars[0].clone(), vars[1].clone());
                    let u = bld.mk(ExprKind::Sample, span);
                    let width = bld.mk_prim(PrimOp::Sub, vec![b, a.clone()], span);
                    let scaled = bld.mk_prim(PrimOp::Mul, vec![width, u], span);
                    bld.mk_prim(PrimOp::Add, vec![a, scaled], span)
                })
            }
            "normal" | "gaussian" => {
                check(2)?;
                let mut it = args.into_iter();
                let (m, s) = (it.next().expect("2 args"), it.next().expect("2 args"));
                self.bind_params(vec![m, s], span, |bld, vars| {
                    let (m, s) = (vars[0].clone(), vars[1].clone());
                    let u = bld.mk(ExprKind::Sample, span);
                    let q = bld.mk_prim(PrimOp::NormalQuantile, vec![u], span);
                    let scaled = bld.mk_prim(PrimOp::Mul, vec![s, q], span);
                    bld.mk_prim(PrimOp::Add, vec![m, scaled], span)
                })
            }
            "exponential" => {
                check(1)?;
                let mut it = args.into_iter();
                let r = it.next().expect("1 arg");
                self.bind_params(vec![r], span, |bld, vars| {
                    let r = vars[0].clone();
                    let u = bld.mk(ExprKind::Sample, span);
                    let q = bld.mk_prim(PrimOp::ExponentialQuantile, vec![u], span);
                    bld.mk_prim(PrimOp::Div, vec![q, r], span)
                })
            }
            "beta" => {
                check(2)?;
                let mut it = args.into_iter();
                let (a, b) = (it.next().expect("2 args"), it.next().expect("2 args"));
                self.bind_params(vec![a, b], span, |bld, vars| {
                    let (a, b) = (vars[0].clone(), vars[1].clone());
                    let u = bld.mk(ExprKind::Sample, span);
                    bld.mk_prim(PrimOp::BetaQuantile, vec![a, b, u], span)
                })
            }
            "cauchy" => {
                check(2)?;
                let mut it = args.into_iter();
                let (x0, g) = (it.next().expect("2 args"), it.next().expect("2 args"));
                self.bind_params(vec![x0, g], span, |bld, vars| {
                    let (x0, g) = (vars[0].clone(), vars[1].clone());
                    let u = bld.mk(ExprKind::Sample, span);
                    let q = bld.mk_prim(PrimOp::CauchyQuantile, vec![u], span);
                    let scaled = bld.mk_prim(PrimOp::Mul, vec![g, q], span);
                    bld.mk_prim(PrimOp::Add, vec![x0, scaled], span)
                })
            }
            other => Err(LangError::new(
                Phase::Parse,
                format!("unknown distribution `{other}` in sample"),
                dsp,
            )),
        }
    }

    /// Let-binds non-trivial parameters so a desugaring can mention them
    /// several times without duplicating effects; trivial parameters
    /// (constants and variables) are substituted directly.
    fn bind_params(
        &mut self,
        params: Vec<Expr>,
        span: Span,
        build: impl FnOnce(&mut AstBuilder, &[Expr]) -> Expr,
    ) -> Result<Expr, LangError> {
        let mut vars = Vec::with_capacity(params.len());
        let mut bindings: Vec<(Name, Expr)> = Vec::new();
        for p in params {
            if matches!(p.kind, ExprKind::Const(_) | ExprKind::Var(_)) {
                vars.push(p);
            } else {
                let name = self.builder.fresh_name("p");
                vars.push(self.builder.mk(ExprKind::Var(name.clone()), span));
                bindings.push((name, p));
            }
        }
        let mut body = build(&mut self.builder, &vars);
        for (name, bound) in bindings.into_iter().rev() {
            body = self.builder.mk_let(name, bound, body, span);
        }
        Ok(body)
    }
}

fn is_dist_name(s: &str) -> bool {
    matches!(
        s,
        "uniform" | "normal" | "gaussian" | "beta" | "exponential" | "cauchy"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn parses_pedestrian_example() {
        let src = r#"
            let start = 3 * sample uniform(0, 1) in
            let rec walk x =
              if x <= 0 then 0 else
                let step = sample uniform(0, 1) in
                if sample <= 0.5 then step + walk (x + step)
                else step + walk (x - step)
            in
            let distance = walk start in
            observe distance from normal(1.1, 0.1);
            start
        "#;
        let p = ok(src);
        assert!(p.root.free_vars().is_empty());
        // Must contain a Fix node and a Score node somewhere.
        let mut has_fix = false;
        let mut has_score = false;
        p.root.walk(&mut |e| match e.kind {
            ExprKind::Fix(..) => has_fix = true,
            ExprKind::Score(..) => has_score = true,
            _ => {}
        });
        assert!(has_fix && has_score);
    }

    #[test]
    fn let_desugars_to_application() {
        let p = ok("let x = 1 in x");
        match &p.root.kind {
            ExprKind::App(f, a) => {
                assert!(matches!(f.kind, ExprKind::Lam(..)));
                assert!(matches!(a.kind, ExprKind::Const(c) if c == 1.0));
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn comparison_directions() {
        // a > b must swap branches: `if 1 > 2 then 10 else 20` = 20.
        let p = ok("if 1 > 2 then 10 else 20");
        match &p.root.kind {
            ExprKind::If(g, t, e) => {
                assert!(matches!(g.kind, ExprKind::Const(c) if c == -1.0));
                // branches swapped: then-slot holds 20
                assert!(matches!(t.kind, ExprKind::Const(c) if c == 20.0));
                assert!(matches!(e.kind, ExprKind::Const(c) if c == 10.0));
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn uniform_sample_desugars_linearly() {
        let p = ok("sample uniform(0, 2)");
        // 0 + (2 − 0)·sample
        let mut saw_sample = false;
        p.root.walk(&mut |e| {
            if matches!(e.kind, ExprKind::Sample) {
                saw_sample = true;
            }
        });
        assert!(saw_sample);
    }

    #[test]
    fn effectful_dist_params_are_let_bound() {
        // The parameter contains `sample`; it must be bound once, not
        // duplicated into both use sites of the uniform desugaring.
        let p = ok("sample uniform(sample, 1)");
        let mut samples = 0;
        p.root.walk(&mut |e| {
            if matches!(e.kind, ExprKind::Sample) {
                samples += 1;
            }
        });
        assert_eq!(samples, 2, "inner + outer sample, no duplication");
    }

    #[test]
    fn observe_becomes_score_of_pdf() {
        let p = ok("observe 1.1 from normal(0, 1)");
        match &p.root.kind {
            ExprKind::Score(inner) => match &inner.kind {
                ExprKind::Prim(PrimOp::NormalPdf, args) => assert_eq!(args.len(), 3),
                k => panic!("unexpected {k:?}"),
            },
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn multi_parameter_functions_curry() {
        let p = ok("let f x y = x + y in f 1 2");
        assert!(p.root.free_vars().is_empty());
    }

    #[test]
    fn sequencing_discards() {
        let p = ok("score(2); 5");
        match &p.root.kind {
            ExprKind::App(lam, arg) => {
                assert!(matches!(lam.kind, ExprKind::Lam(..)));
                assert!(matches!(arg.kind, ExprKind::Score(_)));
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn flip_desugars_to_branch() {
        let p = ok("flip(0.25)");
        assert!(matches!(p.root.kind, ExprKind::If(..)));
    }

    #[test]
    fn error_messages_point_at_spans() {
        let err = parse("let x = in x").unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
        assert!(err.render("let x = in x").starts_with("1:9"));
    }

    #[test]
    fn rejects_unknown_distributions() {
        assert!(parse("sample wat(1, 2)").is_err());
        assert!(parse("observe 1 from wat(1)").is_err());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let parens = |depth: usize| format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        for src in [parens(10_000), format!("{}1", "-".repeat(10_000))] {
            let err = parse(&src).expect_err("nested past the limit");
            assert_eq!(err.phase, Phase::Parse);
            assert!(err.message.contains("nested deeper than"), "{err}");
        }
        // `expr` itself is one level, so MAX_NESTING − 1 parentheses fit.
        assert!(parse(&parens(MAX_NESTING - 1)).is_ok());
        assert!(parse(&parens(MAX_NESTING)).is_err());
    }

    #[test]
    fn rejects_bad_arity() {
        assert!(parse("min(1)").is_err());
        assert!(parse("sample normal(1)").is_err());
        assert!(parse("let rec f = 1 in f").is_err());
    }

    #[test]
    fn fail_is_score_zero() {
        let p = ok("fail; 1");
        let mut saw = false;
        p.root.walk(&mut |e| {
            if let ExprKind::Score(inner) = &e.kind {
                if matches!(inner.kind, ExprKind::Const(c) if c == 0.0) {
                    saw = true;
                }
            }
        });
        assert!(saw);
    }
}
