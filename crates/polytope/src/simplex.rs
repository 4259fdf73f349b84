//! Dense two-phase simplex for small LPs.
//!
//! Solves `max / min c·x` subject to `A x ≤ b`, `x ≥ 0` — the form in
//! which all polytopes of the linear trace semantics arrive (sample
//! variables live in `[0, 1]^n`, with the cube constraints included as
//! rows). Bland's anti-cycling rule is used throughout; tolerances are
//! absolute (`1e-9`), adequate for the small well-scaled systems produced
//! by the analyzer.
//!
//! Each solve works on one contiguous row-major tableau. Free variables
//! (`solve_lp_free`) are split as `x = u − v` while the tableau is
//! filled, and callers may pass borrowed rows (`&[&Row]`), so a
//! "every row but one" system costs a vector of references, not a copy
//! of the rows.

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
    solve(c, maximize, rows, dim, false)
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
    solve(c, maximize, rows, dim, true)
}

fn solve<R: Borrow<Row>>(
    c: &[f64],
    maximize: bool,
    rows: &[R],
    dim: usize,
    free: bool,
) -> LpOutcome {
    assert_eq!(c.len(), dim, "objective dimension mismatch");
    let row_at = |i: usize| -> &Row { rows[i].borrow() };
    for i in 0..rows.len() {
        assert_eq!(row_at(i).0.len(), dim, "row dimension mismatch");
    }
    let m = rows.len();
    // Structural columns: `x`, or `u | v` for free variables.
    let nx = if free { 2 * dim } else { dim };

    // Columns: nx structural | m slacks | artificials… ; plus rhs.
    // Rows with negative rhs are negated (slack coeff −1) and get an
    // artificial basic variable.
    let n_art = (0..m).filter(|&i| row_at(i).1 < 0.0).count();
    let ncols = nx + m + n_art;
    let mut t = Tableau {
        a: vec![0.0f64; m * (ncols + 1)],
        width: ncols + 1,
        basis: vec![0usize; m],
    };
    let mut art_col = nx + m;
    for i in 0..m {
        let (coef, b) = row_at(i);
        let neg = *b < 0.0;
        let sign = if neg { -1.0 } else { 1.0 };
        let row = t.row_mut(i);
        for (j, &w) in coef.iter().enumerate() {
            row[j] = sign * w;
            if free {
                row[dim + j] = sign * -w;
            }
        }
        row[nx + i] = sign; // slack
        row[ncols] = sign * b;
        if neg {
            row[art_col] = 1.0;
            t.basis[i] = art_col;
            art_col += 1;
        } else {
            t.basis[i] = nx + i;
        }
    }

    // ---- Phase 1: minimize the sum of artificials -----------------------
    if n_art > 0 {
        let mut cost = vec![0.0f64; ncols + 1];
        cost[nx + m..ncols].fill(1.0);
        // Zero out basic (artificial) columns of the cost row.
        for i in 0..m {
            if t.basis[i] >= nx + m {
                for (cj, &aij) in cost.iter_mut().zip(t.row(i)) {
                    *cj -= aij;
                }
            }
        }
        if t.iterate(&mut cost, ncols).is_err() {
            // Phase-1 objective is bounded below by 0; unboundedness here
            // signals numerical trouble — report infeasible conservatively.
            return LpOutcome::Infeasible;
        }
        let z1 = -cost[ncols];
        if z1 > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive any degenerate artificials out of the basis.
        for i in 0..m {
            if t.basis[i] >= nx + m {
                if let Some(j) = t.row(i)[..nx + m].iter().position(|x| x.abs() > EPS) {
                    t.pivot(i, j, None);
                }
                // If no pivot column exists the row is all-zero
                // (redundant); leaving the artificial basic at value 0 is
                // harmless for phase 2 since its column is never entered.
            }
        }
    }

    // ---- Phase 2 ---------------------------------------------------------
    // Minimize cmin·x where cmin = −c for maximisation (and `v` carries
    // the negated objective of a free variable).
    let mut cost = vec![0.0f64; ncols + 1];
    for (j, &cj) in c.iter().enumerate() {
        cost[j] = if maximize { -cj } else { cj };
        if free {
            cost[dim + j] = if maximize { cj } else { -cj };
        }
    }
    // Forbid artificials from re-entering.
    cost[nx + m..ncols].fill(f64::INFINITY);
    // Express the cost row in terms of non-basic variables.
    for i in 0..m {
        let factor = cost[t.basis[i]];
        if factor != 0.0 && factor.is_finite() {
            for (cj, &aij) in cost.iter_mut().zip(t.row(i)) {
                if cj.is_finite() {
                    *cj -= factor * aij;
                }
            }
        }
    }
    if t.iterate(&mut cost, ncols).is_err() {
        return LpOutcome::Unbounded;
    }

    // Read the solution.
    let mut x = vec![0.0f64; nx];
    for i in 0..m {
        if t.basis[i] < nx {
            x[t.basis[i]] = t.row(i)[ncols];
        }
    }
    if free {
        x = (0..dim).map(|i| x[i] - x[dim + i]).collect();
    }
    let z_min = -cost[ncols];
    let value = if maximize { -z_min } else { z_min };
    LpOutcome::Optimal(value, x)
}

/// A row-major `m × width` simplex tableau with its basis.
struct Tableau {
    a: Vec<f64>,
    width: usize,
    basis: Vec<usize>,
}

impl Tableau {
    fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.width..(i + 1) * self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.a[i * self.width..(i + 1) * self.width]
    }

    /// Runs simplex iterations until optimal (`Ok`) or unbounded (`Err`).
    fn iterate(&mut self, cost: &mut [f64], ncols: usize) -> Result<(), ()> {
        for _round in 0..100_000 {
            // Bland: entering column = smallest index with negative reduced cost.
            let Some(col) = cost[..ncols]
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
            self.pivot(row, col, Some(cost));
        }
        // Iteration limit: treat as optimal-enough; Bland's rule should
        // prevent reaching this for the problem sizes at hand.
        Ok(())
    }

    /// Pivots the tableau (and the cost row, if any) on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize, cost: Option<&mut [f64]>) {
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
        if let Some(cost) = cost {
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
