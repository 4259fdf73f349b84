//! Dense two-phase simplex for small LPs.
//!
//! Solves `max / min c·x` subject to `A x ≤ b`, `x ≥ 0` — the form in
//! which all polytopes of the linear trace semantics arrive (sample
//! variables live in `[0, 1]^n`, with the cube constraints included as
//! rows). Bland's anti-cycling rule is used throughout; tolerances are
//! absolute (`1e-9`), adequate for the small well-scaled systems produced
//! by the analyzer.
//!
//! Every solve runs one core on the buffers of an `LpScratch`: a
//! contiguous row-major tableau, its basis and a cost row. A caller that
//! solves many LPs (redundancy removal solves one per row) keeps one
//! scratch and allocates nothing per LP. The core reads constraint rows
//! through an accessor, so an "every row but one" system is a list of row
//! indices, not a copy of the rows, and free variables
//! (`solve_lp_free`) are split as `x = u − v` while the tableau is
//! filled. The optimal point is read off the tableau only by the
//! callers that want it.

use std::borrow::Borrow;

/// Outcome of an LP solve.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// An optimal vertex: `(objective value, point)`.
    Optimal(f64, Vec<f64>),
}

/// A constraint row `(a, b)` meaning `a·x ≤ b`.
pub type Row = (Vec<f64>, f64);

const EPS: f64 = 1e-9;

/// Solves `optimize c·x` s.t. `rows[i].0 · x ≤ rows[i].1` and `x ≥ 0`.
///
/// `maximize` selects the direction. Row coefficient vectors must all
/// have length `dim`; rows may be owned or borrowed.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn solve_lp<R: Borrow<Row>>(c: &[f64], maximize: bool, rows: &[R], dim: usize) -> LpOutcome {
    solve_in(c, maximize, rows, dim, false, &mut LpScratch::default())
}

/// Solves `optimize c·x` s.t. `rows[i].0 · x ≤ rows[i].1` with **free**
/// variables (no sign restriction), via the split `x = u − v` with
/// `u, v ≥ 0`.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn solve_lp_free<R: Borrow<Row>>(
    c: &[f64],
    maximize: bool,
    rows: &[R],
    dim: usize,
) -> LpOutcome {
    solve_in(c, maximize, rows, dim, true, &mut LpScratch::default())
}

/// [`solve_lp`] (`free = false`) or [`solve_lp_free`] (`free = true`)
/// on the buffers of `s`, with the optimal point.
pub(crate) fn solve_in<R: Borrow<Row>>(
    c: &[f64],
    maximize: bool,
    rows: &[R],
    dim: usize,
    free: bool,
    s: &mut LpScratch,
) -> LpOutcome {
    let row = |i: usize| {
        let (a, b): &Row = rows[i].borrow();
        (a.as_slice(), *b)
    };
    match s.solve(c, maximize, free, dim, rows.len(), row) {
        LpValue::Infeasible => LpOutcome::Infeasible,
        LpValue::Unbounded => LpOutcome::Unbounded,
        LpValue::Optimal(v) => LpOutcome::Optimal(v, s.point(dim, free)),
    }
}

/// An [`LpOutcome`] without the optimal point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LpValue {
    Infeasible,
    Unbounded,
    Optimal(f64),
}

/// Reusable buffers of the simplex core: a row-major tableau of `width`
/// columns (the last one the rhs), its basis, and a cost row. Every
/// solve overwrites all three before reading them.
#[derive(Default)]
pub(crate) struct LpScratch {
    a: Vec<f64>,
    width: usize,
    basis: Vec<usize>,
    cost: Vec<f64>,
}

impl LpScratch {
    /// Solves `optimize c·x` s.t. `row(i).0 · x ≤ row(i).1` for
    /// `i < m`, over `x ≥ 0`, or over free `x` when `free` is set. The
    /// optimal point stays in the tableau; [`LpScratch::point`] reads it.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub(crate) fn solve<'r>(
        &mut self,
        c: &[f64],
        maximize: bool,
        free: bool,
        dim: usize,
        m: usize,
        row: impl Fn(usize) -> (&'r [f64], f64),
    ) -> LpValue {
        assert_eq!(c.len(), dim, "objective dimension mismatch");
        for i in 0..m {
            assert_eq!(row(i).0.len(), dim, "row dimension mismatch");
        }
        // Structural columns: `x`, or `u | v` for free variables.
        let nx = if free { 2 * dim } else { dim };

        // Columns: nx structural | m slacks | artificials… ; plus rhs.
        // Rows with negative rhs are negated (slack coeff −1) and get an
        // artificial basic variable.
        let n_art = (0..m).filter(|&i| row(i).1 < 0.0).count();
        let ncols = nx + m + n_art;
        self.width = ncols + 1;
        self.a.clear();
        self.a.resize(m * self.width, 0.0);
        self.basis.clear();
        self.basis.resize(m, 0);
        let mut art_col = nx + m;
        for i in 0..m {
            let (coef, b) = row(i);
            let neg = b < 0.0;
            let sign = if neg { -1.0 } else { 1.0 };
            let r = self.row_mut(i);
            for (j, &w) in coef.iter().enumerate() {
                r[j] = sign * w;
                if free {
                    r[dim + j] = sign * -w;
                }
            }
            r[nx + i] = sign; // slack
            r[ncols] = sign * b;
            if neg {
                r[art_col] = 1.0;
                self.basis[i] = art_col;
                art_col += 1;
            } else {
                self.basis[i] = nx + i;
            }
        }

        // ---- Phase 1: minimize the sum of artificials -------------------
        if n_art > 0 {
            self.cost.clear();
            self.cost.resize(ncols + 1, 0.0);
            self.cost[nx + m..ncols].fill(1.0);
            // Zero out basic (artificial) columns of the cost row.
            for i in 0..m {
                if self.basis[i] >= nx + m {
                    let r = &self.a[i * self.width..(i + 1) * self.width];
                    for (cj, &aij) in self.cost.iter_mut().zip(r) {
                        *cj -= aij;
                    }
                }
            }
            if self.iterate(ncols).is_err() {
                // Phase-1 objective is bounded below by 0; unboundedness
                // here signals numerical trouble — report infeasible
                // conservatively.
                return LpValue::Infeasible;
            }
            let z1 = -self.cost[ncols];
            if z1 > 1e-7 {
                return LpValue::Infeasible;
            }
            // Drive any degenerate artificials out of the basis.
            for i in 0..m {
                if self.basis[i] >= nx + m {
                    if let Some(j) = self.row(i)[..nx + m].iter().position(|x| x.abs() > EPS) {
                        self.pivot(i, j, false);
                    }
                    // If no pivot column exists the row is all-zero
                    // (redundant); leaving the artificial basic at value 0
                    // is harmless for phase 2 since its column is never
                    // entered.
                }
            }
        }

        // ---- Phase 2 -----------------------------------------------------
        // Minimize cmin·x where cmin = −c for maximisation (and `v`
        // carries the negated objective of a free variable).
        self.cost.clear();
        self.cost.resize(ncols + 1, 0.0);
        for (j, &cj) in c.iter().enumerate() {
            self.cost[j] = if maximize { -cj } else { cj };
            if free {
                self.cost[dim + j] = if maximize { cj } else { -cj };
            }
        }
        // Forbid artificials from re-entering.
        self.cost[nx + m..ncols].fill(f64::INFINITY);
        // Express the cost row in terms of non-basic variables.
        for i in 0..m {
            let factor = self.cost[self.basis[i]];
            if factor != 0.0 && factor.is_finite() {
                let r = &self.a[i * self.width..(i + 1) * self.width];
                for (cj, &aij) in self.cost.iter_mut().zip(r) {
                    if cj.is_finite() {
                        *cj -= factor * aij;
                    }
                }
            }
        }
        if self.iterate(ncols).is_err() {
            return LpValue::Unbounded;
        }
        let z_min = -self.cost[ncols];
        LpValue::Optimal(if maximize { -z_min } else { z_min })
    }

    /// The optimal point of the last [`LpScratch::solve`] that returned
    /// [`LpValue::Optimal`], for the same `dim` and `free`.
    pub(crate) fn point(&self, dim: usize, free: bool) -> Vec<f64> {
        let nx = if free { 2 * dim } else { dim };
        let rhs = self.width - 1;
        let mut x = vec![0.0f64; nx];
        for (i, &bi) in self.basis.iter().enumerate() {
            if bi < nx {
                x[bi] = self.row(i)[rhs];
            }
        }
        if free {
            x = (0..dim).map(|i| x[i] - x[dim + i]).collect();
        }
        x
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.width..(i + 1) * self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.a[i * self.width..(i + 1) * self.width]
    }

    /// Runs simplex iterations on the cost row until optimal (`Ok`) or
    /// unbounded (`Err`).
    fn iterate(&mut self, ncols: usize) -> Result<(), ()> {
        for _round in 0..100_000 {
            // Bland: entering column = smallest index with negative reduced cost.
            let Some(col) = self.cost[..ncols]
                .iter()
                .position(|&cj| cj.is_finite() && cj < -EPS)
            else {
                return Ok(()); // optimal
            };
            // Ratio test; Bland tie-break on the smallest basis variable.
            let mut leave: Option<(usize, f64)> = None;
            for (i, row) in self.a.chunks_exact(self.width).enumerate() {
                if row[col] > EPS {
                    let ratio = row[ncols] / row[col];
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((bi, br)) => {
                            if ratio < br - EPS
                                || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leave else {
                return Err(()); // unbounded
            };
            self.pivot(row, col, true);
        }
        // Iteration limit: treat as optimal-enough; Bland's rule should
        // prevent reaching this for the problem sizes at hand.
        Ok(())
    }

    /// Pivots the tableau (and the cost row, if `with_cost`) on
    /// `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize, with_cost: bool) {
        let w = self.width;
        let (head, rest) = self.a.split_at_mut(row * w);
        let (prow, tail) = rest.split_at_mut(w);
        let p = prow[col];
        for x in prow.iter_mut() {
            *x /= p;
        }
        prow[col] = 1.0; // exact
        for r in head.chunks_exact_mut(w).chain(tail.chunks_exact_mut(w)) {
            let f = r[col];
            if f.abs() > 0.0 {
                for (x, &y) in r.iter_mut().zip(prow.iter()) {
                    *x -= f * y;
                }
                r[col] = 0.0;
            }
        }
        if with_cost {
            let cost = &mut self.cost;
            let f = cost[col];
            if f.is_finite() && f != 0.0 {
                for (cj, &y) in cost.iter_mut().zip(prow.iter()) {
                    if cj.is_finite() {
                        *cj -= f * y;
                    }
                }
                cost[col] = 0.0;
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rs: &[(&[f64], f64)]) -> Vec<(Vec<f64>, f64)> {
        rs.iter().map(|(a, b)| (a.to_vec(), *b)).collect()
    }

    #[test]
    fn maximize_on_unit_square() {
        // max x + y s.t. x ≤ 1, y ≤ 1 → 2 at (1,1).
        let r = rows(&[(&[1.0, 0.0], 1.0), (&[0.0, 1.0], 1.0)]);
        match solve_lp(&[1.0, 1.0], true, &r, 2) {
            LpOutcome::Optimal(v, x) => {
                assert!((v - 2.0).abs() < 1e-9);
                assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn negative_rhs_triggers_phase_one() {
        // x ≥ 0.25 encoded as −x ≤ −0.25; min x → 0.25.
        let r = rows(&[(&[-1.0], -0.25), (&[1.0], 1.0)]);
        match solve_lp(&[1.0], false, &r, 1) {
            LpOutcome::Optimal(v, _) => assert!((v - 0.25).abs() < 1e-9),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn infeasible_detection() {
        // x ≤ 0.2 and x ≥ 0.8.
        let r = rows(&[(&[1.0], 0.2), (&[-1.0], -0.8)]);
        assert_eq!(solve_lp(&[1.0], true, &r, 1), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detection() {
        // max x with no upper bound.
        let r = rows(&[(&[-1.0], 0.0)]);
        assert_eq!(solve_lp(&[1.0], true, &r, 1), LpOutcome::Unbounded);
    }

    #[test]
    fn simplex_on_triangle() {
        // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6 → vertex (4, 0): 12.
        let r = rows(&[(&[1.0, 1.0], 4.0), (&[1.0, 3.0], 6.0)]);
        match solve_lp(&[3.0, 2.0], true, &r, 2) {
            LpOutcome::Optimal(v, x) => {
                assert!((v - 12.0).abs() < 1e-9);
                assert!((x[0] - 4.0).abs() < 1e-9);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn minimize_with_equality_like_band() {
        // 0.5 ≤ x + y ≤ 0.5 forces x + y = 0.5; min y → 0 at x = 0.5 ≤ 1.
        let r = rows(&[
            (&[1.0, 1.0], 0.5),
            (&[-1.0, -1.0], -0.5),
            (&[1.0, 0.0], 1.0),
            (&[0.0, 1.0], 1.0),
        ]);
        match solve_lp(&[0.0, 1.0], false, &r, 2) {
            LpOutcome::Optimal(v, x) => {
                assert!(v.abs() < 1e-9);
                assert!((x[0] - 0.5).abs() < 1e-9);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn degenerate_redundant_rows() {
        // Duplicate constraints must not break the solver.
        let r = rows(&[
            (&[1.0, 0.0], 0.5),
            (&[1.0, 0.0], 0.5),
            (&[0.0, 1.0], 0.5),
            (&[-1.0, 0.0], -0.5), // x ≥ 0.5 — forces x = 0.5
        ]);
        match solve_lp(&[1.0, 1.0], true, &r, 2) {
            LpOutcome::Optimal(v, _) => assert!((v - 1.0).abs() < 1e-9),
            o => panic!("unexpected {o:?}"),
        }
    }
}
