//! H-representation polytopes over `[0, 1]^n`-like domains.

use gubpi_interval::{BoxN, Interval};

use crate::simplex::{solve_lp, LpOutcome, LpScratch, LpValue};
use crate::{LinExpr, VolumeScratch};

/// A convex polytope `{ x ≥ 0 | aᵢ·x ≤ bᵢ }` in H-representation.
///
/// The analyzer's polytopes always live inside `[0, 1]^n` (sample
/// variables), so [`HPolytope::unit_cube`] is the usual starting point.
#[derive(Clone, Debug, PartialEq)]
pub struct HPolytope {
    dim: usize,
    rows: Vec<(Vec<f64>, f64)>,
}

impl HPolytope {
    /// A polytope with no constraints beyond `x ≥ 0` (implicit).
    pub fn nonneg_orthant(dim: usize) -> HPolytope {
        HPolytope {
            dim,
            rows: Vec::new(),
        }
    }

    /// The unit cube `[0, 1]^n` (upper bounds as rows; `x ≥ 0` implicit).
    pub fn unit_cube(dim: usize) -> HPolytope {
        let mut rows = Vec::with_capacity(dim);
        for i in 0..dim {
            let mut a = vec![0.0; dim];
            a[i] = 1.0;
            rows.push((a, 1.0));
        }
        HPolytope { dim, rows }
    }

    /// The polytope of an axis-aligned box inside the non-negative
    /// orthant.
    ///
    /// # Panics
    ///
    /// Panics if the box has a negative lower endpoint.
    pub fn from_box(b: &BoxN) -> HPolytope {
        let dim = b.dim();
        let mut p = HPolytope::nonneg_orthant(dim);
        for (i, iv) in b.intervals().iter().enumerate() {
            assert!(iv.lo() >= 0.0, "box must lie in the non-negative orthant");
            let mut up = vec![0.0; dim];
            up[i] = 1.0;
            p.add_constraint(up, iv.hi());
            if iv.lo() > 0.0 {
                let mut down = vec![0.0; dim];
                down[i] = -1.0;
                p.add_constraint(down, -iv.lo());
            }
        }
        p
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraint rows `(a, b)` meaning `a·x ≤ b`.
    pub fn rows(&self) -> &[(Vec<f64>, f64)] {
        &self.rows
    }

    /// Are both polytopes the same row system bit for bit? Stricter than
    /// `==`, which equates `0.0` with `-0.0` and fails on NaN; every
    /// volume and LP result is a pure function of these bits.
    pub fn bit_eq(&self, other: &HPolytope) -> bool {
        let same = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
        self.dim == other.dim
            && self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|((a, b), (c, d))| {
                same(b, d) && a.len() == c.len() && a.iter().zip(c).all(|(x, y)| same(x, y))
            })
    }

    /// Row `i` as `(a, b)`.
    fn row(&self, i: usize) -> (&[f64], f64) {
        (&self.rows[i].0, self.rows[i].1)
    }

    /// Adds the constraint `a·x ≤ b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.dim()`.
    pub fn add_constraint(&mut self, a: Vec<f64>, b: f64) {
        assert_eq!(a.len(), self.dim, "constraint dimension mismatch");
        self.rows.push((a, b));
    }

    /// Adds `e ≤ 0` for a linear expression (`e.coeffs·x ≤ −e.constant`).
    pub fn add_le_zero(&mut self, e: &LinExpr) {
        self.add_constraint(e.coeffs().to_vec(), -e.constant_term());
    }

    /// Adds `e ≥ 0`, i.e. `−e ≤ 0`.
    pub fn add_ge_zero(&mut self, e: &LinExpr) {
        self.add_le_zero(&-e);
    }

    /// Is the polytope empty (within LP tolerance)?
    pub fn is_empty(&self) -> bool {
        self.is_empty_with(&mut VolumeScratch::default())
    }

    /// [`HPolytope::is_empty`] on the caller's scratch.
    pub fn is_empty_with(&self, scratch: &mut VolumeScratch) -> bool {
        let zero = vec![0.0; self.dim];
        let m = self.rows.len();
        scratch
            .lp()
            .solve(&zero, false, false, self.dim, m, |i| self.row(i))
            == LpValue::Infeasible
    }

    /// Minimises `w·x` over the polytope.
    pub fn minimize(&self, w: &[f64]) -> LpOutcome {
        solve_lp(w, false, &self.rows, self.dim)
    }

    /// Maximises `w·x` over the polytope.
    pub fn maximize(&self, w: &[f64]) -> LpOutcome {
        solve_lp(w, true, &self.rows, self.dim)
    }

    /// The exact range of a linear expression over the polytope, or
    /// `None` when the polytope is empty.
    pub fn range_of(&self, e: &LinExpr) -> Option<Interval> {
        let lo = match self.minimize(e.coeffs()) {
            LpOutcome::Optimal(v, _) => v + e.constant_term(),
            LpOutcome::Unbounded => f64::NEG_INFINITY,
            LpOutcome::Infeasible => return None,
        };
        let hi = match self.maximize(e.coeffs()) {
            LpOutcome::Optimal(v, _) => v + e.constant_term(),
            LpOutcome::Unbounded => f64::INFINITY,
            LpOutcome::Infeasible => return None,
        };
        Some(Interval::new(lo.min(hi), hi.max(lo)))
    }

    /// The tightest axis-aligned bounding box (via `2n` LPs), or `None`
    /// when empty.
    pub fn bounding_box(&self) -> Option<BoxN> {
        let mut dims = Vec::with_capacity(self.dim);
        for i in 0..self.dim {
            let e = LinExpr::var(self.dim, i);
            dims.push(self.range_of(&e)?);
        }
        Some(BoxN::new(dims))
    }

    /// Does the polytope contain `x` (within tolerance)?
    pub fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim
            && x.iter().all(|&v| v >= -tol)
            && self
                .rows
                .iter()
                .all(|(a, b)| a.iter().zip(x).map(|(ai, xi)| ai * xi).sum::<f64>() <= b + tol)
    }

    /// Removes constraints implied by the others (for each row, maximise
    /// its left-hand side subject to the rest; redundant iff `max ≤ b`).
    /// An infeasible check (empty polytope) keeps the row.
    pub fn without_redundant_rows(&self) -> HPolytope {
        let mut lp = LpScratch::default();
        let (mut keep, mut others) = (Vec::new(), Vec::new());
        irredundant_mask(self.rows.len(), &mut keep, &mut others, |i, others| {
            let (a, b) = self.row(i);
            let v = lp.solve(a, true, false, self.dim, others.len(), |k| {
                self.row(others[k])
            });
            matches!(v, LpValue::Optimal(v) if v <= b + 1e-9)
        });
        HPolytope {
            dim: self.dim,
            rows: self
                .rows
                .iter()
                .zip(keep)
                .filter(|&(_, k)| k)
                .map(|(r, _)| r.clone())
                .collect(),
        }
    }
}

/// Sequential redundancy removal over `m` rows: `keep[i]` is set unless
/// `implied(i, others)` holds, where `others` lists the rows kept before
/// `i` followed by every row after it. `keep` and `others` are the
/// caller's buffers, overwritten.
pub(crate) fn irredundant_mask(
    m: usize,
    keep: &mut Vec<bool>,
    others: &mut Vec<usize>,
    mut implied: impl FnMut(usize, &[usize]) -> bool,
) {
    keep.clear();
    keep.resize(m, false);
    for i in 0..m {
        others.clear();
        others.extend((0..i).filter(|&j| keep[j]));
        others.extend(i + 1..m);
        keep[i] = !implied(i, others);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_ranges() {
        let p = HPolytope::unit_cube(3);
        let e = LinExpr::new(vec![1.0, -1.0, 2.0], 0.5);
        assert_eq!(p.range_of(&e), Some(Interval::new(-0.5, 3.5)));
        assert!(!p.is_empty());
        assert!(p.contains(&[0.5, 0.5, 0.5], 1e-12));
        assert!(!p.contains(&[1.5, 0.0, 0.0], 1e-12));
    }

    #[test]
    fn halfspace_cut() {
        let mut p = HPolytope::unit_cube(2);
        // x + y ≤ 0.5
        p.add_le_zero(&LinExpr::new(vec![1.0, 1.0], -0.5));
        assert_eq!(
            p.range_of(&LinExpr::var(2, 0)),
            Some(Interval::new(0.0, 0.5))
        );
        // adding x ≥ 0.8 empties it
        let mut q = p.clone();
        q.add_ge_zero(&LinExpr::new(vec![1.0, 0.0], -0.8));
        assert!(q.is_empty());
        assert_eq!(q.range_of(&LinExpr::var(2, 0)), None);
    }

    #[test]
    fn bounding_box_of_triangle() {
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, 1.0], 0.75);
        let bb = p.bounding_box().unwrap();
        assert_eq!(bb[0], Interval::new(0.0, 0.75));
        assert_eq!(bb[1], Interval::new(0.0, 0.75));
    }

    #[test]
    fn redundant_rows_are_removed() {
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, 0.0], 2.0); // implied by x ≤ 1
        p.add_constraint(vec![1.0, 1.0], 0.5);
        p.add_constraint(vec![1.0, 1.0], 0.9); // implied by ≤ 0.5
        let r = p.without_redundant_rows();
        assert!(r.rows().len() <= 3, "got {:?}", r.rows());
        // Same feasible set.
        assert_eq!(
            r.range_of(&LinExpr::var(2, 0)),
            p.range_of(&LinExpr::var(2, 0))
        );
    }

    #[test]
    fn from_box_roundtrip() {
        let b = BoxN::new(vec![Interval::new(0.25, 0.75), Interval::new(0.0, 0.5)]);
        let p = HPolytope::from_box(&b);
        assert!(p.contains(&[0.5, 0.25], 1e-12));
        assert!(!p.contains(&[0.1, 0.25], 1e-12));
        let bb = p.bounding_box().unwrap();
        assert!((bb[0].lo() - 0.25).abs() < 1e-9);
        assert!((bb[1].hi() - 0.5).abs() < 1e-9);
    }
}
