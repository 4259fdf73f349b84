//! Histogram-shaped bounds and interval normalisation.
//!
//! Footnote 2 of the paper: applying the bound machinery to a
//! discretisation of the domain yields histogram-like bounds. This module
//! accumulates per-bin unnormalised bounds in one pass over all regions
//! and then normalises them soundly: with `m_i ∈ [lo_i, hi_i]` the mass
//! of bin `i` and `rest_i = Σ_{j≠i} m_j` (including both tails),
//!
//! ```text
//! posterior_i = m_i / (m_i + rest_i)
//!             ∈ [ lo_i / (lo_i + rest_hi_i) , hi_i / (hi_i + rest_lo_i) ]
//! ```
//!
//! by monotonicity of `x/(x+r)` in `x` (increasing) and `r` (decreasing).
//! `normalize` is that formula, and the analyzer's posterior query
//! normalises with it too.

use gubpi_interval::Interval;

use crate::pathbounds::BoundSink;

/// Per-bin lower/upper bounds on the unnormalised denotation, plus the
/// two tails outside the histogram domain.
#[derive(Clone, Debug)]
pub struct HistogramBounds {
    edges: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Bounds on `⟦P⟧((−∞, edges.first])`.
    pub left_tail: (f64, f64),
    /// Bounds on `⟦P⟧([edges.last, ∞))`.
    pub right_tail: (f64, f64),
}

/// A normalised posterior bin.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NormalizedBin {
    /// The bin interval.
    pub bin: Interval,
    /// Lower bound on the normalised posterior mass of the bin.
    pub lo: f64,
    /// Upper bound on the normalised posterior mass of the bin.
    pub hi: f64,
}

impl HistogramBounds {
    /// A histogram over `domain` with `bins` equal-width bins. The last
    /// edge is exactly `domain.hi()`, so the bins and the two tails
    /// cover the real line without a gap.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the domain's width is not finite and
    /// positive.
    pub fn new(domain: Interval, bins: usize) -> HistogramBounds {
        assert!(bins > 0, "need at least one bin");
        assert!(
            usable_domain(domain),
            "histogram domain must have a finite positive width"
        );
        // Rounding is monotone, so the inner edges ascend; an edge whose
        // product overflows (a width near f64::MAX) is capped at the
        // domain's end.
        let mut edges: Vec<f64> = (0..bins)
            .map(|i| (domain.lo() + domain.width() * i as f64 / bins as f64).min(domain.hi()))
            .collect();
        edges.push(domain.hi());
        HistogramBounds {
            edges,
            lo: vec![0.0; bins],
            hi: vec![0.0; bins],
            left_tail: (0.0, 0.0),
            right_tail: (0.0, 0.0),
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.lo.len()
    }

    /// The `i`-th bin interval.
    pub fn bin(&self, i: usize) -> Interval {
        Interval::new(self.edges[i], self.edges[i + 1])
    }

    /// Unnormalised bounds of bin `i`.
    pub fn unnormalized(&self, i: usize) -> (f64, f64) {
        (self.lo[i], self.hi[i])
    }

    /// Overwrites bin `i` with externally computed bounds (used by the
    /// per-bin exact histogram).
    pub fn set_bin(&mut self, i: usize, lo: f64, hi: f64) {
        self.lo[i] = lo;
        self.hi[i] = hi;
    }

    /// Accumulates another histogram's bounds into this one (bin by bin,
    /// plus tails). The parallel engine's path-level reduce step:
    /// per-path partial histograms are merged **in path order**, fixing
    /// the float summation order independently of the thread count.
    /// (Region-level parallelism *inside* one path needs no histogram
    /// machinery: buffered region contributions are replayed into the
    /// sink in index order — see `gubpi_core::pathbounds`.)
    ///
    /// # Panics
    ///
    /// Panics when the two histograms have different domains or bin
    /// counts.
    pub fn merge_from(&mut self, other: &HistogramBounds) {
        assert_eq!(
            self.edges, other.edges,
            "merging histograms over different binnings"
        );
        for (a, b) in self.lo.iter_mut().zip(&other.lo) {
            *a += b;
        }
        for (a, b) in self.hi.iter_mut().zip(&other.hi) {
            *a += b;
        }
        self.left_tail.0 += other.left_tail.0;
        self.left_tail.1 += other.left_tail.1;
        self.right_tail.0 += other.right_tail.0;
        self.right_tail.1 += other.right_tail.1;
    }

    /// Bounds on the normalising constant `Z = ⟦P⟧(R)`: the sum of all
    /// bins and tails.
    pub fn z_bounds(&self) -> (f64, f64) {
        let lo = self.lo.iter().sum::<f64>() + self.left_tail.0 + self.right_tail.0;
        let hi = self.hi.iter().sum::<f64>() + self.left_tail.1 + self.right_tail.1;
        (lo, hi)
    }

    /// Sound bounds on the *normalised* posterior mass of every bin.
    ///
    /// Returns an empty vector when the upper bound on `Z` is 0 (the
    /// program is almost surely rejected — no posterior exists).
    pub fn normalized(&self) -> Vec<NormalizedBin> {
        let (z_lo, z_hi) = self.z_bounds();
        if z_hi <= 0.0 {
            return Vec::new();
        }
        (0..self.bins())
            .map(|i| {
                let rest = ((z_lo - self.lo[i]).max(0.0), z_hi - self.hi[i]);
                let (lo, hi) = normalize((self.lo[i], self.hi[i]), rest);
                NormalizedBin {
                    bin: self.bin(i),
                    lo,
                    hi,
                }
            })
            .collect()
    }

    /// Normalised posterior *density* bounds per bin (mass / bin width),
    /// convenient for plotting against pdf curves.
    pub fn normalized_density(&self) -> Vec<NormalizedBin> {
        self.normalized()
            .into_iter()
            .map(|nb| NormalizedBin {
                bin: nb.bin,
                lo: nb.lo / nb.bin.width(),
                hi: nb.hi / nb.bin.width(),
            })
            .collect()
    }
}

/// Can `domain` be split into histogram bins? Its width must be finite
/// and positive: an infinite width (finite endpoints far apart) would
/// make the first edge `∞ · 0 = NaN`.
pub(crate) fn usable_domain(domain: Interval) -> bool {
    let width = domain.width();
    width.is_finite() && width > 0.0
}

/// Sound bounds on a normalised mass `m/(m + r)` from bounds on the mass
/// `m` and on the rest `r`. `x/(x+r)` increases in `x` and decreases in
/// `r`, so the lower end pairs `m_lo` with `r_hi` and the upper end
/// `m_hi` with `r_lo`; a mass with no positive bound normalises to 0,
/// and a rest with no positive lower bound leaves the upper end at 1.
pub(crate) fn normalize((m_lo, m_hi): (f64, f64), (r_lo, r_hi): (f64, f64)) -> (f64, f64) {
    let lo = if m_lo <= 0.0 {
        0.0
    } else {
        m_lo / (m_lo + r_hi)
    };
    let hi = if m_hi <= 0.0 {
        0.0
    } else if r_lo <= 0.0 {
        1.0
    } else {
        (m_hi / (m_hi + r_lo)).min(1.0)
    };
    (lo, hi)
}

impl BoundSink for HistogramBounds {
    fn add(&mut self, value_range: Interval, lo_mass: f64, hi_mass: f64) {
        let first = self.edges[0];
        let last = *self.edges.last().expect("non-empty edges");
        // Lower mass: attribute only when the range sits inside one piece.
        if lo_mass > 0.0 {
            if value_range.hi() <= first {
                self.left_tail.0 += lo_mass;
            } else if value_range.lo() >= last {
                self.right_tail.0 += lo_mass;
            } else if let Some(i) = self.bin_containing(value_range) {
                self.lo[i] += lo_mass;
            }
            // A range spanning several bins contributes no lower mass to
            // any single bin — sound (superadditivity).
        }
        // Upper mass: attribute to every intersecting piece.
        if hi_mass > 0.0 {
            if value_range.lo() < first {
                self.left_tail.1 += hi_mass;
            }
            if value_range.hi() > last {
                self.right_tail.1 += hi_mass;
            }
            for i in 0..self.bins() {
                if self.bin(i).intersects(&value_range) {
                    self.hi[i] += hi_mass;
                }
            }
        }
    }
}

impl HistogramBounds {
    /// The unique bin fully containing `r`, if any.
    fn bin_containing(&self, r: Interval) -> Option<usize> {
        (0..self.bins()).find(|&i| r.subset_of(&self.bin(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bins() {
        let h = HistogramBounds::new(Interval::new(0.0, 2.0), 4);
        assert_eq!(h.bins(), 4);
        assert_eq!(h.bin(0), Interval::new(0.0, 0.5));
        assert_eq!(h.bin(3), Interval::new(1.5, 2.0));
    }

    #[test]
    fn lower_mass_needs_a_single_bin() {
        let mut h = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        // Fully inside bin 0.
        h.add(Interval::new(0.1, 0.4), 0.3, 0.3);
        // Spans both bins: no lower attribution, upper to both.
        h.add(Interval::new(0.4, 0.6), 0.2, 0.2);
        assert_eq!(h.unnormalized(0), (0.3, 0.5));
        assert_eq!(h.unnormalized(1), (0.0, 0.2));
    }

    #[test]
    fn tails_capture_outside_mass() {
        let mut h = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        h.add(Interval::new(-2.0, -1.0), 0.1, 0.1);
        h.add(Interval::new(2.0, 3.0), 0.0, 0.4);
        assert_eq!(h.left_tail, (0.1, 0.1));
        assert_eq!(h.right_tail, (0.0, 0.4));
        let (zlo, zhi) = h.z_bounds();
        assert!((zlo - 0.1).abs() < 1e-12);
        assert!((zhi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalization_is_sound_and_tight_for_exact_masses() {
        let mut h = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        // Exact masses 0.2 and 0.6: posterior 0.25 / 0.75.
        h.add(Interval::new(0.0, 0.4), 0.2, 0.2);
        h.add(Interval::new(0.6, 0.9), 0.6, 0.6);
        let n = h.normalized();
        assert!((n[0].lo - 0.25).abs() < 1e-12 && (n[0].hi - 0.25).abs() < 1e-12);
        assert!((n[1].lo - 0.75).abs() < 1e-12 && (n[1].hi - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalization_widens_with_uncertainty() {
        let mut h = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        h.add(Interval::new(0.0, 0.4), 0.1, 0.3);
        h.add(Interval::new(0.6, 0.9), 0.5, 0.7);
        let n = h.normalized();
        // True posterior of bin 0 for any (m₀, m₁) in the rectangles lies
        // within the returned bounds.
        for &m0 in &[0.1, 0.2, 0.3] {
            for &m1 in &[0.5, 0.6, 0.7] {
                let p0 = m0 / (m0 + m1);
                assert!(n[0].lo <= p0 + 1e-12 && p0 <= n[0].hi + 1e-12);
            }
        }
        assert!(n[0].lo < n[0].hi);
    }

    #[test]
    fn empty_posterior_returns_no_bins() {
        let h = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        assert!(h.normalized().is_empty());
    }

    #[test]
    fn merge_from_adds_bins_and_tails() {
        let mut a = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        a.add(Interval::new(0.1, 0.4), 0.3, 0.3);
        a.add(Interval::new(-2.0, -1.0), 0.1, 0.1);
        let mut b = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        b.add(Interval::new(0.6, 0.9), 0.2, 0.5);
        b.add(Interval::new(2.0, 3.0), 0.0, 0.4);
        a.merge_from(&b);
        assert_eq!(a.unnormalized(0), (0.3, 0.3));
        assert_eq!(a.unnormalized(1), (0.2, 0.5));
        assert_eq!(a.left_tail, (0.1, 0.1));
        assert_eq!(a.right_tail, (0.0, 0.4));
    }

    #[test]
    #[should_panic(expected = "different binnings")]
    fn merge_from_rejects_mismatched_domains() {
        let mut a = HistogramBounds::new(Interval::new(0.0, 1.0), 2);
        let b = HistogramBounds::new(Interval::new(0.0, 2.0), 2);
        a.merge_from(&b);
    }

    #[test]
    fn density_scales_by_width() {
        let mut h = HistogramBounds::new(Interval::new(0.0, 2.0), 2);
        h.add(Interval::new(0.1, 0.9), 1.0, 1.0);
        let d = h.normalized_density();
        assert!((d[0].lo - 1.0).abs() < 1e-12); // mass 1 over width 1
    }
}
