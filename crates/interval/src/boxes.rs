//! `n`-dimensional boxes (Cartesian products of intervals).
//!
//! Boxes appear in two roles in the paper: as *interval traces* (finite
//! sequences of sub-intervals of `[0, 1]`, §3.2) and as the score-value
//! boxes of the optimised linear semantics (§6.4).

use std::fmt;
use std::ops::Index;

use crate::Interval;

/// An axis-aligned box `I₁ × ⋯ × I_n`.
///
/// # Example
///
/// ```
/// use gubpi_interval::{BoxN, Interval};
///
/// let b = BoxN::new(vec![Interval::UNIT, Interval::new(0.0, 0.5)]);
/// assert_eq!(b.dim(), 2);
/// assert_eq!(b.volume(), 0.5);
/// ```
#[derive(Clone, PartialEq)]
pub struct BoxN {
    dims: Vec<Interval>,
}

impl BoxN {
    /// Creates a box from its per-dimension intervals.
    pub fn new(dims: Vec<Interval>) -> BoxN {
        BoxN { dims }
    }

    /// The unit cube `[0, 1]^n`.
    pub fn unit_cube(n: usize) -> BoxN {
        BoxN {
            dims: vec![Interval::UNIT; n],
        }
    }

    /// The empty product (dimension 0, volume 1). This is the box analogue
    /// of the empty interval trace `⟨⟩`.
    pub fn empty() -> BoxN {
        BoxN { dims: Vec::new() }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// The volume `∏ (bᵢ − aᵢ)` (the paper's `vol`, §3.3).
    pub fn volume(&self) -> f64 {
        self.dims.iter().map(Interval::width).product()
    }

    /// Does the box contain the point `p` (of matching dimension)?
    pub fn contains(&self, p: &[f64]) -> bool {
        p.len() == self.dim() && self.dims.iter().zip(p).all(|(i, &x)| i.contains(x))
    }

    /// Is `self` a subset of `other`?
    pub fn subset_of(&self, other: &BoxN) -> bool {
        self.dim() == other.dim()
            && self
                .dims
                .iter()
                .zip(other.dims.iter())
                .all(|(a, b)| a.subset_of(b))
    }

    /// Are the two boxes *compatible* in the sense of §3.3: almost disjoint
    /// in at least one shared position?
    pub fn compatible(&self, other: &BoxN) -> bool {
        let shared = self.dim().min(other.dim());
        (0..shared).any(|i| self.dims[i].almost_disjoint(&other.dims[i]))
    }

    /// Appends a dimension, consuming the box (builder style).
    pub fn extended(mut self, i: Interval) -> BoxN {
        self.dims.push(i);
        self
    }

    /// Splits the box into two halves along its widest (finite) dimension.
    ///
    /// Returns `None` for 0-dimensional or degenerate (zero-width) boxes.
    pub fn bisect_widest(&self) -> Option<(BoxN, BoxN)> {
        let idx = widest_dim(&self.dims)?;
        let (left, right) = self.dims[idx].bisect();
        let mut a = self.dims.clone();
        let mut b = self.dims.clone();
        a[idx] = left;
        b[idx] = right;
        Some((BoxN::new(a), BoxN::new(b)))
    }

    /// The grid of boxes obtained by splitting each dimension into
    /// `splits[d]` equal parts. The result has `∏ splits[d]` boxes that are
    /// pairwise compatible and cover `self`.
    ///
    /// # Panics
    ///
    /// Panics if `splits.len() != self.dim()` or any count is zero.
    pub fn grid(&self, splits: &[usize]) -> Vec<BoxN> {
        assert_eq!(
            splits.len(),
            self.dim(),
            "split counts must match dimension"
        );
        let parts: Vec<Vec<Interval>> = self
            .dims
            .iter()
            .zip(splits)
            .map(|(i, &n)| i.split(n))
            .collect();
        let mut out: Vec<Vec<Interval>> = vec![Vec::new()];
        for dim_parts in &parts {
            let mut next = Vec::with_capacity(out.len() * dim_parts.len());
            for prefix in &out {
                for p in dim_parts {
                    let mut row = prefix.clone();
                    row.push(*p);
                    next.push(row);
                }
            }
            out = next;
        }
        out.into_iter().map(BoxN::new).collect()
    }

    /// The smallest box containing both inputs (dimension-wise join).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn join(&self, other: &BoxN) -> BoxN {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in join");
        BoxN::new(
            self.dims
                .iter()
                .zip(other.dims.iter())
                .map(|(a, b)| a.join(*b))
                .collect(),
        )
    }
}

impl Index<usize> for BoxN {
    type Output = Interval;
    fn index(&self, i: usize) -> &Interval {
        &self.dims[i]
    }
}

impl FromIterator<Interval> for BoxN {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> BoxN {
        BoxN::new(iter.into_iter().collect())
    }
}

/// The dimension a box with these per-dimension intervals bisects in:
/// its widest finite one, the **last** of several equally wide, or
/// `None` when no finite dimension has positive width (0-dimensional,
/// unbounded or degenerate boxes). [`BoxN::bisect_widest`] and the
/// adaptive grid refiner both split here, so they agree on ties.
pub fn widest_dim(dims: &[Interval]) -> Option<usize> {
    let (idx, widest) = dims
        .iter()
        .enumerate()
        .filter(|(_, i)| i.is_finite())
        .max_by(|a, b| a.1.width().total_cmp(&b.1.width()))?;
    (widest.width() != 0.0).then_some(idx)
}

impl fmt::Debug for BoxN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (k, i) in self.dims.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i:?}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_unit_cube_is_one() {
        assert_eq!(BoxN::unit_cube(5).volume(), 1.0);
        assert_eq!(BoxN::empty().volume(), 1.0);
    }

    #[test]
    fn example_3_1_compatibility() {
        // Example 3.1(ii): {⟨[0,0.6]⟩, ⟨[0.3,1]⟩} is not compatible.
        let a = BoxN::new(vec![Interval::new(0.0, 0.6)]);
        let b = BoxN::new(vec![Interval::new(0.3, 1.0)]);
        assert!(!a.compatible(&b));

        // From Example 3.1(iii): T2 members ⟨[1/2,1], [0,1/2]⟩ and
        // ⟨[1/2,1], [1/2,1], [0,1/2]⟩ are compatible (position 2).
        let t0 = BoxN::new(vec![Interval::new(0.5, 1.0), Interval::new(0.0, 0.5)]);
        let t1 = BoxN::new(vec![
            Interval::new(0.5, 1.0),
            Interval::new(0.5, 1.0),
            Interval::new(0.0, 0.5),
        ]);
        assert!(t0.compatible(&t1));
    }

    #[test]
    fn grid_covers_with_right_count_and_compatibility() {
        let b = BoxN::unit_cube(2);
        let g = b.grid(&[2, 3]);
        assert_eq!(g.len(), 6);
        let total: f64 = g.iter().map(BoxN::volume).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for (i, x) in g.iter().enumerate() {
            assert!(x.subset_of(&b));
            for y in &g[i + 1..] {
                assert!(x.compatible(y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn bisect_widest_splits_the_right_dimension() {
        let b = BoxN::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 4.0)]);
        let (l, r) = b.bisect_widest().unwrap();
        assert_eq!(l[1], Interval::new(0.0, 2.0));
        assert_eq!(r[1], Interval::new(2.0, 4.0));
        assert_eq!(l[0], Interval::new(0.0, 1.0));
        assert!((l.volume() + r.volume() - b.volume()).abs() < 1e-12);
        // Unbounded dimensions are skipped; ties go to the last one.
        let tie = [
            Interval::UNIT,
            Interval::new(0.0, f64::INFINITY),
            Interval::UNIT,
        ];
        assert_eq!(widest_dim(&tie), Some(2));
    }

    #[test]
    fn degenerate_boxes_do_not_bisect() {
        let b = BoxN::new(vec![Interval::point(0.5)]);
        assert!(b.bisect_widest().is_none());
        assert!(BoxN::empty().bisect_widest().is_none());
    }

    #[test]
    fn contains_checks_every_dimension() {
        let b = BoxN::new(vec![Interval::UNIT, Interval::new(2.0, 3.0)]);
        assert!(b.contains(&[0.5, 2.5]));
        assert!(!b.contains(&[0.5, 1.0]));
        assert!(!b.contains(&[0.5]));
    }
}
