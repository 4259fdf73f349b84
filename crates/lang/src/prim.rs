//! Primitive operations of SPCF.
//!
//! The paper requires primitive functions `f : R^{|f|} → R` that are
//! *boxwise continuous* and *interval separable* and that come with an
//! overapproximating interval lifting `f^I : I^{|f|} → I` (§3.1, §4.2).
//! This module provides both the concrete (`f64`) evaluation and an
//! interval lifting that is **exact** on every operation (the lifted range
//! equals the true image over the box, up to floating-point rounding),
//! which is what the completeness argument needs.
//!
//! Distribution pdfs and quantiles appear as primitives so that
//! `observe … from D` and `sample D(…)` desugar into core SPCF.

use gubpi_dist::{Beta, Cauchy, ContinuousDist, Exponential, Normal, Uniform};
use gubpi_interval::Interval;

/// A primitive operation together with its arity and interval lifting.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum PrimOp {
    /// Binary addition.
    Add,
    /// Binary subtraction.
    Sub,
    /// Binary multiplication.
    Mul,
    /// Binary division.
    Div,
    /// Unary negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Binary minimum.
    Min,
    /// Binary maximum.
    Max,
    /// Exponential `e^x`.
    Exp,
    /// Natural logarithm (`−∞` at and below 0).
    Ln,
    /// Square root (0 below 0).
    Sqrt,
    /// Logistic sigmoid `1/(1+e^{−x})`.
    Sigmoid,
    /// Floor function (boxwise continuous with unit boxes).
    Floor,
    /// `normal_pdf(μ, σ, x)`.
    NormalPdf,
    /// `uniform_pdf(a, b, x)`.
    UniformPdf,
    /// `beta_pdf(α, β, x)`.
    BetaPdf,
    /// `exponential_pdf(λ, x)`.
    ExponentialPdf,
    /// `cauchy_pdf(x₀, γ, x)`.
    CauchyPdf,
    /// Standard normal quantile `Φ⁻¹(u)`.
    NormalQuantile,
    /// Rate-1 exponential quantile `−ln(1−u)`.
    ExponentialQuantile,
    /// Standard Cauchy quantile `tan(π(u−1/2))`.
    CauchyQuantile,
    /// `beta_quantile(α, β, u)`.
    BetaQuantile,
}

impl PrimOp {
    /// Number of arguments `|f|`.
    pub fn arity(self) -> usize {
        use PrimOp::*;
        match self {
            Neg | Abs | Exp | Ln | Sqrt | Sigmoid | Floor | NormalQuantile
            | ExponentialQuantile | CauchyQuantile => 1,
            Add | Sub | Mul | Div | Min | Max | ExponentialPdf => 2,
            NormalPdf | UniformPdf | BetaPdf | CauchyPdf | BetaQuantile => 3,
        }
    }

    /// The surface-syntax name (as accepted by the parser).
    pub fn name(self) -> &'static str {
        use PrimOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Neg => "neg",
            Abs => "abs",
            Min => "min",
            Max => "max",
            Exp => "exp",
            Ln => "log",
            Sqrt => "sqrt",
            Sigmoid => "sigmoid",
            Floor => "floor",
            NormalPdf => "pdf_normal",
            UniformPdf => "pdf_uniform",
            BetaPdf => "pdf_beta",
            ExponentialPdf => "pdf_exponential",
            CauchyPdf => "pdf_cauchy",
            NormalQuantile => "qnormal",
            ExponentialQuantile => "qexponential",
            CauchyQuantile => "qcauchy",
            BetaQuantile => "qbeta",
        }
    }

    /// Looks a primitive up by its surface name.
    pub fn by_name(name: &str) -> Option<PrimOp> {
        use PrimOp::*;
        Some(match name {
            "add" => Add,
            "sub" => Sub,
            "mul" => Mul,
            "div" => Div,
            "neg" => Neg,
            "abs" => Abs,
            "min" => Min,
            "max" => Max,
            "exp" => Exp,
            "log" => Ln,
            "sqrt" => Sqrt,
            "sigmoid" => Sigmoid,
            "floor" => Floor,
            "pdf_normal" => NormalPdf,
            "pdf_uniform" => UniformPdf,
            "pdf_beta" => BetaPdf,
            "pdf_exponential" => ExponentialPdf,
            "pdf_cauchy" => CauchyPdf,
            "qnormal" => NormalQuantile,
            "qexponential" => ExponentialQuantile,
            "qcauchy" => CauchyQuantile,
            "qbeta" => BetaQuantile,
            _ => return None,
        })
    }

    /// Concrete evaluation `f(args)`.
    ///
    /// Every primitive is **total** (§3.1 requires `f : R^{|f|} → R`).
    /// In particular, out-of-domain *runtime* distribution parameters —
    /// program-controlled values like the negative σ that
    /// `normal(0, sample - 0.5)` draws with positive probability — yield
    /// **zero density** rather than a panic: a `score` of such a pdf
    /// produces a zero-weight run, which is exactly how samplers and the
    /// guaranteed bounds treat that trace. (The interval liftings agree:
    /// possibly-invalid parameter ranges produce enclosures containing
    /// 0.) `qbeta` with invalid shapes degrades to the uniform quantile
    /// `u`, which its `[0, 1]` enclosure also covers.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.arity()` (an arity error is a bug
    /// in the caller, never program-controlled).
    pub fn eval(self, args: &[f64]) -> f64 {
        assert_eq!(args.len(), self.arity(), "arity mismatch for {self:?}");
        use PrimOp::*;
        match self {
            Add => args[0] + args[1],
            Sub => args[0] - args[1],
            Mul => args[0] * args[1],
            Div => args[0] / args[1],
            Neg => -args[0],
            Abs => args[0].abs(),
            Min => args[0].min(args[1]),
            Max => args[0].max(args[1]),
            Exp => args[0].exp(),
            Ln => {
                if args[0] <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    args[0].ln()
                }
            }
            Sqrt => {
                if args[0] <= 0.0 {
                    0.0
                } else {
                    args[0].sqrt()
                }
            }
            Sigmoid => 1.0 / (1.0 + (-args[0]).exp()),
            Floor => args[0].floor(),
            NormalPdf => {
                if valid_scale_param(args[1]) && args[0].is_finite() {
                    Normal::new(args[0], args[1]).pdf(args[2])
                } else {
                    0.0
                }
            }
            UniformPdf => {
                if args[0].is_finite() && args[1].is_finite() && args[0] < args[1] {
                    Uniform::new(args[0], args[1]).pdf(args[2])
                } else {
                    0.0
                }
            }
            BetaPdf => {
                if valid_beta_shapes(args[0], args[1]) {
                    Beta::new(args[0], args[1]).pdf(args[2])
                } else {
                    0.0
                }
            }
            ExponentialPdf => {
                if valid_scale_param(args[0]) {
                    Exponential::new(args[0]).pdf(args[1])
                } else {
                    0.0
                }
            }
            CauchyPdf => {
                if valid_scale_param(args[1]) && args[0].is_finite() {
                    Cauchy::new(args[0], args[1]).pdf(args[2])
                } else {
                    0.0
                }
            }
            NormalQuantile => gubpi_dist::math::std_normal_quantile(args[0].clamp(0.0, 1.0)),
            ExponentialQuantile => Exponential::new(1.0).quantile(args[0].clamp(0.0, 1.0)),
            CauchyQuantile => Cauchy::new(0.0, 1.0).quantile(args[0].clamp(0.0, 1.0)),
            BetaQuantile => {
                let u = args[2].clamp(0.0, 1.0);
                if valid_beta_shapes(args[0], args[1]) {
                    Beta::new(args[0], args[1]).quantile(u)
                } else {
                    u // uniform fallback, inside the [0, 1] enclosure
                }
            }
        }
    }

    /// Interval lifting `f^I(args)` (§3.1): a superset of
    /// `{ f(x₁, …, x_n) | xᵢ ∈ argsᵢ }`, exact for point parameters.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.arity()`.
    pub fn eval_interval(self, args: &[Interval]) -> Interval {
        assert_eq!(args.len(), self.arity(), "arity mismatch for {self:?}");
        use PrimOp::*;
        match self {
            Add => args[0] + args[1],
            Sub => args[0] - args[1],
            Mul => args[0] * args[1],
            Div => args[0].div(args[1]),
            Neg => -args[0],
            Abs => args[0].abs(),
            Min => args[0].min_i(args[1]),
            Max => args[0].max_i(args[1]),
            Exp => args[0].exp(),
            Ln => args[0].ln(),
            Sqrt => args[0].sqrt(),
            Sigmoid => args[0].sigmoid(),
            Floor => args[0].map_increasing(f64::floor),
            NormalPdf => normal_pdf_interval(args[0], args[1], args[2]),
            UniformPdf => uniform_pdf_interval(args[0], args[1], args[2]),
            BetaPdf => beta_pdf_interval(args[0], args[1], args[2]),
            ExponentialPdf => exponential_pdf_interval(args[0], args[1]),
            CauchyPdf => cauchy_pdf_interval(args[0], args[1], args[2]),
            NormalQuantile => {
                let u = args[0].meet(Interval::UNIT).unwrap_or(Interval::ZERO);
                u.map_increasing(gubpi_dist::math::std_normal_quantile)
            }
            ExponentialQuantile => {
                let u = args[0].meet(Interval::UNIT).unwrap_or(Interval::ZERO);
                u.map_increasing(|p| Exponential::new(1.0).quantile(p))
            }
            CauchyQuantile => {
                let u = args[0].meet(Interval::UNIT).unwrap_or(Interval::ZERO);
                u.map_increasing(|p| Cauchy::new(0.0, 1.0).quantile(p))
            }
            BetaQuantile => {
                if args[0].is_point()
                    && args[1].is_point()
                    && valid_beta_shapes(args[0].lo(), args[1].lo())
                {
                    let d = Beta::new(args[0].lo(), args[1].lo());
                    let u = args[2].meet(Interval::UNIT).unwrap_or(Interval::ZERO);
                    u.map_increasing(|p| d.quantile(p))
                } else {
                    Interval::UNIT // sound: beta quantiles always lie in [0, 1]
                }
            }
        }
    }
}

/// Hull with the zero density contributed by out-of-domain scale
/// parameters: when the scale interval sticks out of `(0, ∞)`, some
/// refinements are invalid and concretely evaluate to 0, so the
/// enclosure's lower endpoint must drop to 0 (and an *entirely* invalid
/// range is exactly `[0, 0]`). Without this, the clamped enclosures
/// below would report a strictly positive guaranteed lower bound for
/// mass that the concrete semantics assigns zero weight — unsound.
fn hull_invalid_scale(scale: Interval, valid_range: Interval) -> Interval {
    if scale.hi() <= 0.0 {
        Interval::ZERO
    } else if scale.lo() <= 0.0 {
        Interval::new(0.0, valid_range.hi())
    } else {
        valid_range
    }
}

/// Exact range of `pdf_{Normal(μ, σ)}(x)` over interval-valued `μ, σ, x`
/// (zero density for out-of-domain σ, matching [`PrimOp::eval`]).
///
/// For fixed distance `d = |x − μ|`, the density `e^{−d²/2σ²}/(σ√2π)` is
/// unimodal in `σ` with mode `σ = d`; over `d` it is decreasing. The
/// extrema are therefore attained at the minimal/maximal distances between
/// the `x` and `μ` intervals and at a clamped critical `σ`.
fn normal_pdf_interval(mu: Interval, sigma: Interval, x: Interval) -> Interval {
    let s_lo = sigma.lo().max(f64::MIN_POSITIVE);
    let s_hi = sigma.hi().max(s_lo);
    // Minimal and maximal |x − μ| over the two boxes.
    let d_min = if x.intersects(&mu) {
        0.0
    } else if x.lo() > mu.hi() {
        x.lo() - mu.hi()
    } else {
        mu.lo() - x.hi()
    };
    let d_max = {
        let a = (x.hi() - mu.lo()).abs();
        let b = (mu.hi() - x.lo()).abs();
        a.max(b) // may be ∞ for unbounded inputs
    };
    // σ may be +∞ (unbounded scale interval): the density tends to 0.
    let pdf = |d: f64, s: f64| {
        if s.is_finite() {
            Normal::new(0.0, s).pdf(d)
        } else {
            0.0
        }
    };
    // Maximum: smallest distance, σ maximising at that distance.
    let s_star = d_min.clamp(s_lo, s_hi);
    let hi = if d_min == 0.0 {
        pdf(0.0, s_lo)
    } else {
        pdf(d_min, s_star)
    };
    // Minimum: largest distance; in σ the density at fixed d is unimodal,
    // so the minimum over σ is at an endpoint.
    let lo = if d_max.is_infinite() {
        0.0
    } else {
        pdf(d_max, s_lo).min(pdf(d_max, s_hi))
    };
    hull_invalid_scale(sigma, Interval::new(lo.min(hi), hi.max(lo)))
}

/// Range of `pdf_{Uniform(a, b)}(x)`; exact for point `a, b`.
fn uniform_pdf_interval(a: Interval, b: Interval, x: Interval) -> Interval {
    if a.is_point() && b.is_point() && a.is_finite() && b.is_finite() && a.lo() < b.lo() {
        Uniform::new(a.lo(), b.lo()).pdf_interval(x)
    } else {
        // Conservative: height ranges over 1/(b−a).
        let h = (b - a).recip().clamp_non_neg();
        Interval::new(0.0, h.hi())
    }
}

/// Is a scale-like parameter (σ, λ, γ) inside its distribution's domain?
/// Out-of-domain values mean zero density both concretely and in the
/// interval liftings.
fn valid_scale_param(scale: f64) -> bool {
    scale.is_finite() && scale > 0.0
}

/// Are `(α, β)` inside `Beta::new`'s domain? Out-of-domain shapes mean
/// zero density ([`PrimOp::eval`] stays total) and the sound `[0, ∞]` /
/// `[0, 1]` enclosures in the liftings.
fn valid_beta_shapes(alpha: f64, beta: f64) -> bool {
    alpha.is_finite() && beta.is_finite() && alpha > 0.0 && beta > 0.0
}

/// Range of `pdf_{Beta(α, β)}(x)`; exact for valid point parameters,
/// else `[0, ∞]`.
fn beta_pdf_interval(alpha: Interval, beta: Interval, x: Interval) -> Interval {
    if alpha.is_point() && beta.is_point() && valid_beta_shapes(alpha.lo(), beta.lo()) {
        Beta::new(alpha.lo(), beta.lo()).pdf_interval(x)
    } else {
        Interval::NON_NEG
    }
}

/// Exact range of `pdf_{Exp(λ)}(x) = λe^{−λx}` over interval `λ, x`.
fn exponential_pdf_interval(rate: Interval, x: Interval) -> Interval {
    let l_lo = rate.lo().max(f64::MIN_POSITIVE);
    let l_hi = rate.hi().max(l_lo);
    if x.hi() < 0.0 {
        return Interval::ZERO;
    }
    let x_lo = x.lo().max(0.0);
    // λ may be +∞ (unbounded rate interval): for t > 0 the density tends to 0.
    let g = |l: f64, t: f64| {
        if l.is_finite() {
            Exponential::new(l).pdf(t)
        } else {
            0.0
        }
    };
    // Max at smallest x; over λ the map λ ↦ λe^{−λx} peaks at λ = 1/x.
    let hi = if x_lo == 0.0 {
        l_hi // pdf(0) = λ
    } else {
        let l_star = (1.0 / x_lo).clamp(l_lo, l_hi);
        g(l_star, x_lo)
    };
    // Min at largest x, λ at an endpoint; 0 if x extends below 0 or to ∞.
    let lo = if x.lo() < 0.0 || x.hi().is_infinite() {
        0.0
    } else {
        g(l_lo, x.hi()).min(g(l_hi, x.hi()))
    };
    hull_invalid_scale(rate, Interval::new(lo.min(hi), hi.max(lo)))
}

/// Exact range of `pdf_{Cauchy(x₀, γ)}(x)` over interval parameters.
/// Same distance/scale analysis as the normal: density
/// `1/(πγ(1+(d/γ)²))` peaks at `d = 0` and, for fixed `d`, over `γ` at
/// `γ = d`.
fn cauchy_pdf_interval(x0: Interval, gamma: Interval, x: Interval) -> Interval {
    let g_lo = gamma.lo().max(f64::MIN_POSITIVE);
    let g_hi = gamma.hi().max(g_lo);
    let d_min = if x.intersects(&x0) {
        0.0
    } else if x.lo() > x0.hi() {
        x.lo() - x0.hi()
    } else {
        x0.lo() - x.hi()
    };
    let d_max = (x.hi() - x0.lo()).abs().max((x0.hi() - x.lo()).abs());
    // γ may be +∞ (unbounded scale interval): the density tends to 0.
    let pdf = |d: f64, g: f64| {
        if g.is_finite() {
            Cauchy::new(0.0, g).pdf(d)
        } else {
            0.0
        }
    };
    let hi = if d_min == 0.0 {
        pdf(0.0, g_lo)
    } else {
        pdf(d_min, d_min.clamp(g_lo, g_hi))
    };
    let lo = if d_max.is_infinite() {
        0.0
    } else {
        pdf(d_max, g_lo).min(pdf(d_max, g_hi))
    };
    hull_invalid_scale(gamma, Interval::new(lo.min(hi), hi.max(lo)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(r: f64) -> Interval {
        Interval::point(r)
    }

    #[test]
    fn arities_and_names_roundtrip() {
        use PrimOp::*;
        for op in [
            Add,
            Sub,
            Mul,
            Div,
            Neg,
            Abs,
            Min,
            Max,
            Exp,
            Ln,
            Sqrt,
            Sigmoid,
            Floor,
            NormalPdf,
            UniformPdf,
            BetaPdf,
            ExponentialPdf,
            CauchyPdf,
            NormalQuantile,
            ExponentialQuantile,
            CauchyQuantile,
            BetaQuantile,
        ] {
            assert_eq!(PrimOp::by_name(op.name()), Some(op));
            assert!(op.arity() >= 1 && op.arity() <= 3);
        }
        assert_eq!(PrimOp::by_name("nope"), None);
    }

    #[test]
    fn concrete_eval_basics() {
        assert_eq!(PrimOp::Add.eval(&[2.0, 3.0]), 5.0);
        assert_eq!(PrimOp::Sub.eval(&[2.0, 3.0]), -1.0);
        assert_eq!(PrimOp::Mul.eval(&[2.0, 3.0]), 6.0);
        assert_eq!(PrimOp::Min.eval(&[2.0, 3.0]), 2.0);
        assert_eq!(PrimOp::Max.eval(&[2.0, 3.0]), 3.0);
        assert_eq!(PrimOp::Neg.eval(&[2.0]), -2.0);
        assert_eq!(PrimOp::Abs.eval(&[-2.0]), 2.0);
        assert_eq!(PrimOp::Floor.eval(&[2.7]), 2.0);
        assert_eq!(PrimOp::Ln.eval(&[0.0]), f64::NEG_INFINITY);
        assert_eq!(PrimOp::Sqrt.eval(&[-1.0]), 0.0);
    }

    #[test]
    fn point_intervals_agree_with_concrete() {
        use PrimOp::*;
        for op in [Add, Sub, Mul, Min, Max] {
            let c = op.eval(&[0.3, 0.7]);
            let i = op.eval_interval(&[pt(0.3), pt(0.7)]);
            assert!(i.contains(c), "{op:?}");
            assert!(i.width() < 1e-12);
        }
        for op in [Neg, Abs, Exp, Sigmoid, Floor] {
            let c = op.eval(&[0.4]);
            let i = op.eval_interval(&[pt(0.4)]);
            assert!(i.contains(c), "{op:?}");
        }
    }

    #[test]
    fn normal_pdf_interval_point_params_matches_dist() {
        let n = Normal::new(1.1, 0.1);
        let x = Interval::new(0.0, 3.0);
        let got = PrimOp::NormalPdf.eval_interval(&[pt(1.1), pt(0.1), x]);
        let want = n.pdf_interval(x);
        assert!((got.lo() - want.lo()).abs() < 1e-12);
        assert!((got.hi() - want.hi()).abs() < 1e-12);
    }

    #[test]
    fn normal_pdf_interval_with_interval_mean() {
        // μ ∈ [0, 1], σ = 1, x = 5: distance ∈ [4, 5].
        let got = PrimOp::NormalPdf.eval_interval(&[Interval::new(0.0, 1.0), pt(1.0), pt(5.0)]);
        let n = Normal::standard();
        assert!((got.hi() - n.pdf(4.0)).abs() < 1e-14);
        assert!((got.lo() - n.pdf(5.0)).abs() < 1e-14);
    }

    #[test]
    fn normal_pdf_interval_sigma_interval_critical_point() {
        // d = 2 fixed, σ ∈ [1, 4]: the max over σ is at σ = d = 2.
        let got = PrimOp::NormalPdf.eval_interval(&[pt(0.0), Interval::new(1.0, 4.0), pt(2.0)]);
        let best = Normal::new(0.0, 2.0).pdf(2.0);
        assert!((got.hi() - best).abs() < 1e-14);
        let worst = Normal::new(0.0, 1.0)
            .pdf(2.0)
            .min(Normal::new(0.0, 4.0).pdf(2.0));
        assert!((got.lo() - worst).abs() < 1e-14);
    }

    #[test]
    fn exponential_pdf_interval_cases() {
        // λ ∈ [0.5, 2], x ∈ [1, 3].
        let got = PrimOp::ExponentialPdf
            .eval_interval(&[Interval::new(0.5, 2.0), Interval::new(1.0, 3.0)]);
        // max at x=1, λ* = 1 ∈ [0.5, 2] → e^{−1}
        assert!((got.hi() - (-1.0f64).exp()).abs() < 1e-14);
        // min at x=3: min(0.5e^{−1.5}, 2e^{−6})
        let want = (0.5 * (-1.5f64).exp()).min(2.0 * (-6.0f64).exp());
        assert!((got.lo() - want).abs() < 1e-14);
    }

    #[test]
    fn quantile_interval_lifting_is_monotone() {
        let q = PrimOp::NormalQuantile.eval_interval(&[Interval::new(0.25, 0.75)]);
        assert!(q.lo() < 0.0 && q.hi() > 0.0);
        assert!((q.lo() + q.hi()).abs() < 1e-12);
        // Full unit interval gives the whole line.
        let full = PrimOp::NormalQuantile.eval_interval(&[Interval::UNIT]);
        assert_eq!(full, Interval::REAL);
    }

    #[test]
    fn invalid_dist_params_fall_back_to_sound_enclosures() {
        // The interval liftings must stay total: out-of-domain parameters
        // (reachable from program-controlled values during analysis) give
        // the conservative enclosure instead of panicking.
        let bad_beta = PrimOp::BetaPdf.eval_interval(&[pt(-1.0), pt(1.0), Interval::UNIT]);
        assert_eq!(bad_beta, Interval::NON_NEG);
        let bad_beta_q = PrimOp::BetaQuantile.eval_interval(&[pt(0.0), pt(2.0), Interval::UNIT]);
        assert_eq!(bad_beta_q, Interval::UNIT);
        let bad_uniform = PrimOp::UniformPdf.eval_interval(&[pt(2.0), pt(1.0), Interval::UNIT]);
        assert!(bad_uniform.lo() >= 0.0);
        // Unbounded scale intervals must not reach the (finite-only)
        // constructors either.
        let unbounded_sigma =
            PrimOp::NormalPdf.eval_interval(&[pt(0.0), Interval::new(1.0, f64::INFINITY), pt(2.0)]);
        assert!(unbounded_sigma.lo() >= 0.0 && unbounded_sigma.hi().is_finite());
        let unbounded_rate = PrimOp::ExponentialPdf
            .eval_interval(&[Interval::new(1.0, f64::INFINITY), Interval::new(1.0, 2.0)]);
        assert!(unbounded_rate.lo() >= 0.0);
        let unbounded_gamma =
            PrimOp::CauchyPdf.eval_interval(&[pt(0.0), Interval::new(1.0, f64::INFINITY), pt(2.0)]);
        assert!(unbounded_gamma.lo() >= 0.0 && unbounded_gamma.hi().is_finite());
    }

    #[test]
    fn div_by_interval_containing_zero_is_whole_line() {
        let d = PrimOp::Div.eval_interval(&[pt(1.0), Interval::new(-1.0, 1.0)]);
        assert_eq!(d, Interval::REAL);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let _ = PrimOp::Add.eval(&[1.0]);
    }

    #[test]
    fn out_of_domain_dist_params_give_zero_density_not_a_panic() {
        // Negative σ (the `normal(0, sample - 0.5)` modeling error).
        assert_eq!(PrimOp::NormalPdf.eval(&[0.0, -0.5, 0.3]), 0.0);
        assert_eq!(PrimOp::NormalPdf.eval(&[0.0, 0.0, 0.3]), 0.0);
        assert_eq!(PrimOp::NormalPdf.eval(&[f64::INFINITY, 1.0, 0.3]), 0.0);
        // Invalid beta shapes: zero density; quantile degrades to u.
        assert_eq!(PrimOp::BetaPdf.eval(&[-1.0, 1.0, 0.5]), 0.0);
        assert_eq!(PrimOp::BetaPdf.eval(&[0.0, 2.0, 0.5]), 0.0);
        assert_eq!(PrimOp::BetaQuantile.eval(&[0.0, 2.0, 0.7]), 0.7);
        // Degenerate uniform, non-positive rate/scale.
        assert_eq!(PrimOp::UniformPdf.eval(&[2.0, 1.0, 1.5]), 0.0);
        assert_eq!(PrimOp::ExponentialPdf.eval(&[0.0, 1.0]), 0.0);
        assert_eq!(PrimOp::CauchyPdf.eval(&[0.0, -1.0, 0.0]), 0.0);
        // In-domain parameters are unaffected.
        assert!(PrimOp::NormalPdf.eval(&[0.0, 0.5, 0.3]) > 0.0);
    }

    #[test]
    fn invalid_scale_enclosures_contain_the_zero_density() {
        // Entirely invalid σ: concretely always 0, and the lifting is
        // exactly [0, 0] — a positive lower bound here would claim
        // guaranteed mass for traces the semantics assigns zero weight.
        let all_bad = PrimOp::NormalPdf.eval_interval(&[pt(0.0), pt(-0.5), pt(0.0)]);
        assert_eq!(all_bad, Interval::ZERO);
        assert_eq!(
            PrimOp::ExponentialPdf.eval_interval(&[pt(-1.0), pt(0.5)]),
            Interval::ZERO
        );
        assert_eq!(
            PrimOp::CauchyPdf.eval_interval(&[pt(0.0), pt(-2.0), pt(0.1)]),
            Interval::ZERO
        );
        // Partially invalid σ ∈ [−0.5, 0.5]: the enclosure keeps the
        // valid upper end but its lower endpoint drops to 0.
        let part = PrimOp::NormalPdf.eval_interval(&[pt(0.0), Interval::new(-0.5, 0.5), pt(0.0)]);
        assert_eq!(part.lo(), 0.0);
        assert!(part.hi() > 0.0);
        // Valid scales are untouched.
        let ok = PrimOp::NormalPdf.eval_interval(&[pt(0.0), pt(1.0), pt(0.0)]);
        assert!(ok.lo() > 0.0);
    }
}
