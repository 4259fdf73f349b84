//! The core [`Interval`] type and its arithmetic.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::round::{next_after_down, next_after_up};

/// A closed interval `[lo, hi]` over the extended reals.
///
/// Invariants: `lo ≤ hi`, neither endpoint is `NaN`. `lo` may be `−∞` and
/// `hi` may be `+∞` (the paper's `[0, ∞]` notation denotes exactly such an
/// interval).
///
/// # Example
///
/// ```
/// use gubpi_interval::Interval;
/// let w = Interval::new(0.25, 0.5);
/// assert!(w.contains(0.3));
/// assert_eq!(w.width(), 0.25);
/// ```
#[derive(Copy, Clone, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The unit interval `[0, 1]`, the co-domain of `sample`.
    pub const UNIT: Interval = Interval { lo: 0.0, hi: 1.0 };
    /// The whole extended real line `[−∞, ∞]` (the paper's `⊤` value bound).
    pub const REAL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };
    /// The non-negative reals `[0, ∞]` (the `⊤` weight bound).
    pub const NON_NEG: Interval = Interval {
        lo: 0.0,
        hi: f64::INFINITY,
    };
    /// The point interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };
    /// The point interval `[1, 1]`, written `1` in the typing rules.
    pub const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is `NaN`. Use
    /// [`Interval::try_new`] for a fallible constructor.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Interval {
        Interval::try_new(lo, hi)
            .unwrap_or_else(|| panic!("invalid interval endpoints [{lo}, {hi}]"))
    }

    /// Creates the interval `[lo, hi]`, or `None` when `lo > hi` or an
    /// endpoint is `NaN`.
    #[inline]
    pub fn try_new(lo: f64, hi: f64) -> Option<Interval> {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            None
        } else {
            Some(Interval { lo, hi })
        }
    }

    /// The degenerate (point) interval `[r, r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is `NaN`.
    #[inline]
    pub fn point(r: f64) -> Interval {
        Interval::new(r, r)
    }

    /// Creates `[lo, hi]` after sorting the endpoints.
    #[inline]
    pub fn from_unordered(a: f64, b: f64) -> Interval {
        Interval::new(a.min(b), a.max(b))
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi − lo` (∞ for unbounded intervals, 0 for points).
    #[inline]
    pub fn width(&self) -> f64 {
        // `∞ − ∞` would be NaN; an interval like `[∞, ∞]` has width 0.
        if self.lo == self.hi {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// Midpoint; finite intervals only give meaningful results.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        if self.lo.is_finite() && self.hi.is_finite() {
            0.5 * (self.lo + self.hi)
        } else if self.lo.is_finite() {
            self.lo
        } else if self.hi.is_finite() {
            self.hi
        } else {
            0.0
        }
    }

    /// Does the interval contain the point `x`?
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Is `self` a subset of `other` (the paper's `⊑` on intervals)?
    #[inline]
    pub fn subset_of(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// Do the two intervals overlap (share at least one point)?
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Are the intervals *almost disjoint* (§3.3): overlap at most at a
    /// single shared endpoint?
    #[inline]
    pub fn almost_disjoint(&self, other: &Interval) -> bool {
        self.hi <= other.lo || other.hi <= self.lo
    }

    /// Greatest lower bound `⊓` (intersection), or `None` when disjoint.
    #[inline]
    pub fn meet(&self, other: Interval) -> Option<Interval> {
        Interval::try_new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Least upper bound `⊔` (convex hull).
    #[inline]
    pub fn join(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Is this a single point `[r, r]`?
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Are both endpoints finite?
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Splits the interval at its midpoint into two halves.
    ///
    /// # Panics
    ///
    /// Panics on non-finite intervals.
    pub fn bisect(&self) -> (Interval, Interval) {
        assert!(self.is_finite(), "cannot bisect an unbounded interval");
        let m = self.midpoint();
        (Interval::new(self.lo, m), Interval::new(m, self.hi))
    }

    /// Splits the interval into `n ≥ 1` equal-width closed sub-intervals
    /// (which pairwise share endpoints, hence are *almost disjoint*).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the interval is unbounded.
    pub fn split(&self, n: usize) -> Vec<Interval> {
        assert!(n > 0, "split requires n >= 1");
        assert!(self.is_finite(), "cannot split an unbounded interval");
        let step = self.width() / n as f64;
        let mut parts = Vec::with_capacity(n);
        let mut lo = self.lo;
        for i in 0..n {
            let hi = if i + 1 == n {
                self.hi
            } else {
                self.lo + (i + 1) as f64 * step
            };
            parts.push(Interval::new(lo, hi.max(lo)));
            lo = hi.max(lo);
        }
        let _ = step;
        parts
    }

    /// Nudges both endpoints outward by one ulp, giving a strict superset
    /// that absorbs one rounding error of the preceding computation.
    #[inline]
    pub fn outward(&self) -> Interval {
        Interval {
            lo: next_after_down(self.lo),
            hi: next_after_up(self.hi),
        }
    }

    /// Interval absolute value.
    pub fn abs(&self) -> Interval {
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            Interval::new(-self.hi, -self.lo)
        } else {
            Interval::new(0.0, self.hi.max(-self.lo))
        }
    }

    /// Pointwise minimum `minI` (Appendix A.2).
    pub fn min_i(&self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise maximum `maxI` (Appendix A.2).
    pub fn max_i(&self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Interval reciprocal `1 / self`.
    ///
    /// Returns `[−∞, ∞]` when `0` lies strictly inside the interval (the
    /// image is then disconnected and we take its hull).
    pub fn recip(&self) -> Interval {
        if self.lo > 0.0 || self.hi < 0.0 {
            Interval::from_unordered(recip_ext(self.lo), recip_ext(self.hi))
        } else if self.lo == 0.0 && self.hi == 0.0 {
            // 1/[0,0]: undefined; conventionally everything.
            Interval::REAL
        } else if self.lo == 0.0 {
            Interval::new(recip_ext(self.hi), f64::INFINITY)
        } else if self.hi == 0.0 {
            Interval::new(f64::NEG_INFINITY, recip_ext(self.lo))
        } else {
            Interval::REAL
        }
    }

    /// Interval division `self / other`.
    ///
    /// When the divisor is sign-definite and everything is finite, the
    /// endpoints are direct `f64` quotients (a single rounding, matching
    /// scalar division exactly on point intervals). Otherwise falls back
    /// to `self * other.recip()`, and to `[−∞, ∞]` when `0` lies strictly
    /// inside the divisor.
    pub fn div(&self, other: Interval) -> Interval {
        let sign_definite = other.lo > 0.0 || other.hi < 0.0;
        if sign_definite && self.is_finite() && other.is_finite() {
            let cands = [
                self.lo / other.lo,
                self.lo / other.hi,
                self.hi / other.lo,
                self.hi / other.hi,
            ];
            let mut lo = cands[0];
            let mut hi = cands[0];
            for &c in &cands[1..] {
                if c < lo {
                    lo = c;
                }
                if c > hi {
                    hi = c;
                }
            }
            Interval { lo, hi }
        } else {
            *self * other.recip()
        }
    }

    /// Lifts a monotonically *increasing* function (Appendix A.2):
    /// `f^I([a, b]) = [f(a), f(b)]`.
    pub fn map_increasing(&self, f: impl Fn(f64) -> f64) -> Interval {
        Interval::new(f(self.lo), f(self.hi))
    }

    /// Lifts a monotonically *decreasing* function (Appendix A.2):
    /// `f^I([a, b]) = [f(b), f(a)]`.
    pub fn map_decreasing(&self, f: impl Fn(f64) -> f64) -> Interval {
        Interval::new(f(self.hi), f(self.lo))
    }

    /// Lifts a *unimodal* function with a maximum at `mode` (increasing on
    /// `(−∞, mode]`, decreasing on `[mode, ∞)`) — e.g. a normal pdf.
    pub fn map_unimodal_max(&self, mode: f64, f: impl Fn(f64) -> f64) -> Interval {
        if self.hi <= mode {
            self.map_increasing(f)
        } else if self.lo >= mode {
            self.map_decreasing(f)
        } else {
            let top = f(mode);
            let bottom = f(self.lo).min(f(self.hi));
            Interval::new(bottom, top)
        }
    }

    /// Interval exponential (monotone increasing).
    pub fn exp(&self) -> Interval {
        self.map_increasing(f64::exp)
    }

    /// Interval natural logarithm; values `≤ 0` map to `−∞`.
    pub fn ln(&self) -> Interval {
        let f = |x: f64| if x <= 0.0 { f64::NEG_INFINITY } else { x.ln() };
        self.map_increasing(f)
    }

    /// Interval square root; the domain is clipped at `0`.
    pub fn sqrt(&self) -> Interval {
        let f = |x: f64| if x <= 0.0 { 0.0 } else { x.sqrt() };
        self.map_increasing(f)
    }

    /// Interval logistic sigmoid `1 / (1 + e^{−x})` (monotone increasing).
    pub fn sigmoid(&self) -> Interval {
        self.map_increasing(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Integer power `self^n`.
    pub fn powi(&self, n: i32) -> Interval {
        if n == 0 {
            return Interval::ONE;
        }
        if n < 0 {
            return self.powi(-n).recip();
        }
        if n % 2 == 1 {
            // odd: monotone increasing
            self.map_increasing(|x| x.powi(n))
        } else {
            // even: unimodal minimum at 0
            let a = self.abs();
            a.map_increasing(|x| x.powi(n))
        }
    }

    /// Truncates the interval to be a subset of `[0, ∞]`, the operation
    /// `⊓ [0, ∞]` used by the `score` typing rule; empty meets clamp to
    /// `[0, 0]`.
    pub fn clamp_non_neg(&self) -> Interval {
        self.meet(Interval::NON_NEG).unwrap_or(Interval::ZERO)
    }
}

/// Extended-real reciprocal: `1/±∞ = 0`, `1/0 = ∞` (sign handled by caller).
fn recip_ext(x: f64) -> f64 {
    if x == 0.0 {
        f64::INFINITY
    } else {
        1.0 / x
    }
}

/// Extended-real product with the convention `0 · ±∞ = 0`.
#[inline]
pub(crate) fn mul_ext(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

impl Add for Interval {
    type Output = Interval;
    #[inline]
    fn add(self, rhs: Interval) -> Interval {
        // `−∞ + ∞` cannot occur within one endpoint pair of valid
        // intervals in the same position (lo+lo, hi+hi) unless mixing
        // opposite infinities; guard by NaN-repair toward the safe side.
        let lo = self.lo + rhs.lo;
        let hi = self.hi + rhs.hi;
        Interval {
            lo: if lo.is_nan() { f64::NEG_INFINITY } else { lo },
            hi: if hi.is_nan() { f64::INFINITY } else { hi },
        }
    }
}

impl Sub for Interval {
    type Output = Interval;
    #[inline]
    fn sub(self, rhs: Interval) -> Interval {
        self + (-rhs)
    }
}

impl Neg for Interval {
    type Output = Interval;
    #[inline]
    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        let cands = [
            mul_ext(self.lo, rhs.lo),
            mul_ext(self.lo, rhs.hi),
            mul_ext(self.hi, rhs.lo),
            mul_ext(self.hi, rhs.hi),
        ];
        let mut lo = cands[0];
        let mut hi = cands[0];
        for &c in &cands[1..] {
            if c < lo {
                lo = c;
            }
            if c > hi {
                hi = c;
            }
        }
        Interval { lo, hi }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}, {:?}]", self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "[{:.*}, {:.*}]", prec, self.lo, prec, self.hi)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl From<f64> for Interval {
    fn from(r: f64) -> Interval {
        Interval::point(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(-1.0, 2.0);
        assert_eq!(i.lo(), -1.0);
        assert_eq!(i.hi(), 2.0);
        assert_eq!(i.width(), 3.0);
        assert_eq!(i.midpoint(), 0.5);
        assert!(Interval::try_new(2.0, 1.0).is_none());
        assert!(Interval::try_new(f64::NAN, 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn invalid_construction_panics() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    fn addition_matches_appendix_a2() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(10.0, 20.0);
        assert_eq!(a + b, Interval::new(11.0, 22.0));
        assert_eq!(a - b, Interval::new(-19.0, -8.0));
        assert_eq!(-a, Interval::new(-2.0, -1.0));
    }

    #[test]
    fn multiplication_sign_cases() {
        let pos = Interval::new(2.0, 3.0);
        let neg = Interval::new(-3.0, -2.0);
        let mix = Interval::new(-1.0, 2.0);
        assert_eq!(pos * pos, Interval::new(4.0, 9.0));
        assert_eq!(pos * neg, Interval::new(-9.0, -4.0));
        assert_eq!(neg * neg, Interval::new(4.0, 9.0));
        assert_eq!(mix * pos, Interval::new(-3.0, 6.0));
        assert_eq!(mix * mix, Interval::new(-2.0, 4.0));
    }

    #[test]
    fn zero_times_infinity_is_zero() {
        let w = Interval::new(0.0, f64::INFINITY);
        let z = Interval::ZERO;
        assert_eq!(w * z, Interval::ZERO);
        assert_eq!(z * w, Interval::ZERO);
        // [0,1] × [0,∞] = [0,∞]
        assert_eq!(Interval::UNIT * w, w);
    }

    #[test]
    fn abs_min_max() {
        let i = Interval::new(-2.0, 1.0);
        assert_eq!(i.abs(), Interval::new(0.0, 2.0));
        assert_eq!(Interval::new(-3.0, -1.0).abs(), Interval::new(1.0, 3.0));
        let a = Interval::new(0.0, 5.0);
        let b = Interval::new(2.0, 3.0);
        assert_eq!(a.min_i(b), Interval::new(0.0, 3.0));
        assert_eq!(a.max_i(b), Interval::new(2.0, 5.0));
    }

    #[test]
    fn meet_join_subset() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.meet(b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.join(b), Interval::new(0.0, 3.0));
        assert!(Interval::new(1.0, 2.0).subset_of(&a));
        assert!(!a.subset_of(&b));
        let c = Interval::new(5.0, 6.0);
        assert_eq!(a.meet(c), None);
    }

    #[test]
    fn almost_disjoint_shares_endpoint() {
        let a = Interval::new(0.0, 0.5);
        let b = Interval::new(0.5, 1.0);
        let c = Interval::new(0.4, 1.0);
        assert!(a.almost_disjoint(&b));
        assert!(!a.almost_disjoint(&c));
    }

    #[test]
    fn recip_and_div() {
        assert_eq!(Interval::new(2.0, 4.0).recip(), Interval::new(0.25, 0.5));
        assert_eq!(
            Interval::new(-4.0, -2.0).recip(),
            Interval::new(-0.5, -0.25)
        );
        assert_eq!(Interval::new(-1.0, 1.0).recip(), Interval::REAL);
        assert_eq!(
            Interval::new(0.0, 2.0).recip(),
            Interval::new(0.5, f64::INFINITY)
        );
        let x = Interval::new(1.0, 2.0);
        let y = Interval::new(2.0, 4.0);
        assert_eq!(x.div(y), Interval::new(0.25, 1.0));
    }

    #[test]
    fn split_covers_and_is_compatible() {
        let i = Interval::new(0.0, 1.0);
        let parts = i.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].lo(), 0.0);
        assert_eq!(parts[3].hi(), 1.0);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi(), w[1].lo());
            assert!(w[0].almost_disjoint(&w[1]));
        }
    }

    #[test]
    fn unimodal_lifting_of_a_bump() {
        // f(x) = 1 − |x| has its max at 0.
        let f = |x: f64| 1.0 - x.abs();
        let left = Interval::new(-2.0, -1.0).map_unimodal_max(0.0, f);
        assert_eq!(left, Interval::new(-1.0, 0.0));
        let strad = Interval::new(-0.5, 1.0).map_unimodal_max(0.0, f);
        assert_eq!(strad, Interval::new(0.0, 1.0));
    }

    #[test]
    fn powers() {
        let i = Interval::new(-2.0, 3.0);
        assert_eq!(i.powi(2), Interval::new(0.0, 9.0));
        assert_eq!(i.powi(3), Interval::new(-8.0, 27.0));
        assert_eq!(i.powi(0), Interval::ONE);
    }

    #[test]
    fn outward_strictly_contains() {
        let i = Interval::new(0.1, 0.2);
        let o = i.outward();
        assert!(o.lo() < i.lo());
        assert!(o.hi() > i.hi());
        assert!(i.subset_of(&o));
    }

    #[test]
    fn clamp_non_neg_matches_score_rule() {
        assert_eq!(
            Interval::new(-1.0, 2.0).clamp_non_neg(),
            Interval::new(0.0, 2.0)
        );
        assert_eq!(Interval::new(-2.0, -1.0).clamp_non_neg(), Interval::ZERO);
        assert_eq!(
            Interval::new(1.0, 2.0).clamp_non_neg(),
            Interval::new(1.0, 2.0)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Interval::new(0.5, 1.0)), "[0.5, 1]");
        assert_eq!(format!("{:.2}", Interval::new(0.5, 1.0)), "[0.50, 1.00]");
    }
}
