//! Polytope volume: Lasserre's exact facet recursion and certified
//! branch-and-bound box bounds.
//!
//! These two methods replace the external Vinci tool used by the paper's
//! artifact (see DESIGN.md). [`HPolytope::volume_lasserre`] computes the
//! exact volume by the divergence-theorem identity (with reference point
//! `x₀ = 0`)
//!
//! ```text
//! vol(P) = (1/n) Σᵢ (bᵢ / ‖aᵢ‖) · vol_{n−1}(Fᵢ)
//! ```
//!
//! recursing on facets `Fᵢ = P ∩ {aᵢ·x = bᵢ}` projected onto a
//! coordinate hyperplane. [`HPolytope::volume_bounds`] subdivides the
//! bounding box, classifying cells as inside / outside / boundary by
//! exact interval evaluation of the constraints, giving guaranteed lower
//! and upper bounds that converge as the budget grows.
//!
//! # Doing each piece of work once
//!
//! The recursion reaches the same lower-dimensional face along many
//! pivot orders (`F₁ ∩ F₂` via `F₁` and via `F₂`). Like Vinci's
//! Lasserre variant with face storage (Büeler, Enge & Fukuda, "Exact
//! volume computation for polytopes: a practical study", 2000), each
//! top-level volume call keeps a memo of the faces it has measured. It
//! is keyed on the exact bits of a face's reduced row system and
//! recursion level, which fully determine the face's value, so a hit
//! returns the very bits a recomputation would. The memo lives for one
//! call and is passed down by `&mut`; nothing is shared between calls.
//!
//! The LP-based redundancy removal hands the simplex solver borrowed
//! rows, and the solver runs on one flat tableau per LP (see
//! [`crate::simplex`]), with the same pivot order as a nested-vector
//! tableau.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use gubpi_interval::BoxN;

use crate::hpoly::{irredundant_mask, HPolytope};
use crate::simplex::{solve_lp_free, LpOutcome, Row};
use crate::LinExpr;

const EPS: f64 = 1e-9;

impl HPolytope {
    /// Exact volume by Lasserre's recursion.
    ///
    /// Axis-aligned constraints are first eliminated (variables touched
    /// only by per-coordinate bounds contribute a width factor and
    /// disappear), so boxes cost `O(m·n)` and only genuinely coupled
    /// variables enter the exponential recursion (`T(n) = m·T(n−1)`,
    /// intended for coupled dimension `≲ 8`). Degenerate (empty or
    /// lower-dimensional) polytopes yield 0.
    pub fn volume_lasserre(&self) -> f64 {
        let Some(red) = self.reduce_axis_aligned() else {
            return 0.0;
        };
        if red.rows.is_empty() {
            return red.factor;
        }
        red.factor * vol_rec(&red.rows, red.dim, 2, &mut FaceMemo::new())
    }

    /// The number of variables involved in non-axis-aligned constraints —
    /// the effective dimension of the exact volume recursion.
    pub fn coupled_dim(&self) -> usize {
        self.reduce_axis_aligned().map_or(0, |r| r.dim)
    }

    /// Volume as a `(lo, hi)` pair: exact (`lo == hi`) when the coupled
    /// dimension is at most `exact_dim_cap`, certified box-subdivision
    /// bounds with the given budget otherwise.
    pub fn volume_range(&self, exact_dim_cap: usize, budget: usize) -> (f64, f64) {
        let Some(red) = self.reduce_axis_aligned() else {
            return (0.0, 0.0);
        };
        if red.rows.is_empty() {
            return (red.factor, red.factor);
        }
        if red.dim <= exact_dim_cap {
            let v = red.factor * vol_rec(&red.rows, red.dim, 2, &mut FaceMemo::new());
            (v, v)
        } else {
            // Rebuild the reduced polytope for box subdivision. The rows
            // already contain the per-variable bounds.
            let mut p = HPolytope::nonneg_orthant(red.dim);
            for (a, b) in &red.rows {
                p.add_constraint(a.clone(), *b);
            }
            let (lo, hi) = p.volume_bounds(budget);
            (red.factor * lo, red.factor * hi)
        }
    }

    /// Separates axis-aligned from coupled constraints: computes the
    /// per-variable interval implied by single-coordinate rows, drops
    /// variables not mentioned in any coupled row (their widths multiply
    /// into `factor`), and renumbers the rest. Returns `None` when the
    /// axis bounds alone are already infeasible.
    pub(crate) fn reduce_axis_aligned(&self) -> Option<Reduced> {
        let n = self.dim();
        // Per-variable bounds from the orthant and axis rows.
        let mut lo = vec![0.0f64; n];
        let mut hi = vec![f64::INFINITY; n];
        let mut coupled: Vec<(Vec<f64>, f64)> = Vec::new();
        for (a, b) in self.rows() {
            let nz: Vec<usize> = (0..n).filter(|&j| a[j] != 0.0).collect();
            match nz.len() {
                0 => {
                    if *b < -EPS {
                        return None;
                    }
                }
                1 => {
                    let j = nz[0];
                    let bound = b / a[j];
                    if a[j] > 0.0 {
                        hi[j] = hi[j].min(bound);
                    } else {
                        lo[j] = lo[j].max(bound);
                    }
                }
                _ => coupled.push((a.clone(), *b)),
            }
        }
        for j in 0..n {
            if hi[j] < lo[j] - EPS {
                return None;
            }
            hi[j] = hi[j].max(lo[j]);
        }
        // Which variables appear in coupled rows?
        let mut involved = vec![false; n];
        for (a, _) in &coupled {
            for j in 0..n {
                if a[j] != 0.0 {
                    involved[j] = true;
                }
            }
        }
        let mut factor = 1.0f64;
        let mut remap: Vec<Option<usize>> = vec![None; n];
        let mut dim = 0usize;
        for j in 0..n {
            if involved[j] {
                remap[j] = Some(dim);
                dim += 1;
            } else {
                factor *= hi[j] - lo[j];
            }
        }
        if factor == 0.0 {
            return Some(Reduced {
                factor: 0.0,
                dim: 0,
                rows: Vec::new(),
            });
        }
        // Rebuild rows over the involved variables, adding their axis
        // bounds explicitly.
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for (a, b) in &coupled {
            let mut na = vec![0.0; dim];
            for j in 0..n {
                if let Some(k) = remap[j] {
                    na[k] = a[j];
                }
            }
            rows.push((na, *b));
        }
        for j in 0..n {
            if let Some(k) = remap[j] {
                let mut up = vec![0.0; dim];
                up[k] = 1.0;
                rows.push((up, hi[j]));
                let mut down = vec![0.0; dim];
                down[k] = -1.0;
                rows.push((down, -lo[j]));
            }
        }
        Some(Reduced { factor, dim, rows })
    }

    /// Certified volume bounds `[lo, hi]` by box subdivision.
    ///
    /// Splits at most `max_boxes` boundary cells; both bounds are sound
    /// regardless of the budget, and `hi − lo → 0` as the budget grows
    /// (at the boundary-measure rate).
    pub fn volume_bounds(&self, max_boxes: usize) -> (f64, f64) {
        let Some(bb) = self.bounding_box() else {
            return (0.0, 0.0);
        };
        if bb.dim() == 0 {
            return if self.is_empty() {
                (0.0, 0.0)
            } else {
                (1.0, 1.0)
            };
        }
        let mut inside = 0.0f64;
        let mut heap: BinaryHeap<VolBox> = BinaryHeap::new();
        let mut boundary_total = 0.0f64;
        match self.classify(&bb) {
            Cell::Inside => return (bb.volume(), bb.volume()),
            Cell::Outside => return (0.0, 0.0),
            Cell::Boundary => {
                boundary_total += bb.volume();
                heap.push(VolBox(bb));
            }
        }
        let mut splits = 0usize;
        while splits < max_boxes {
            let Some(VolBox(b)) = heap.pop() else {
                break;
            };
            boundary_total -= b.volume();
            let Some((l, r)) = b.bisect_widest() else {
                // Degenerate boundary box: count toward the upper bound.
                boundary_total += b.volume();
                break;
            };
            for child in [l, r] {
                match self.classify(&child) {
                    Cell::Inside => inside += child.volume(),
                    Cell::Outside => {}
                    Cell::Boundary => {
                        boundary_total += child.volume();
                        heap.push(VolBox(child));
                    }
                }
            }
            splits += 1;
        }
        (inside, inside + boundary_total)
    }

    /// Classifies a box against the polytope by interval evaluation.
    fn classify(&self, b: &BoxN) -> Cell {
        let mut all_inside = true;
        for (a, rhs) in self.rows() {
            let range = LinExpr::new(a.clone(), 0.0).range_over_box(b);
            if range.lo() > *rhs {
                return Cell::Outside;
            }
            if range.hi() > *rhs {
                all_inside = false;
            }
        }
        if all_inside {
            Cell::Inside
        } else {
            Cell::Boundary
        }
    }
}

enum Cell {
    Inside,
    Outside,
    Boundary,
}

/// Result of axis-aligned reduction.
pub(crate) struct Reduced {
    /// Product of widths of eliminated (axis-only) variables.
    pub(crate) factor: f64,
    /// Number of remaining (coupled) variables.
    pub(crate) dim: usize,
    /// Rows over the remaining variables, including their axis bounds.
    pub(crate) rows: Vec<(Vec<f64>, f64)>,
}

/// Max-heap ordering by box volume.
struct VolBox(BoxN);

impl PartialEq for VolBox {
    fn eq(&self, other: &Self) -> bool {
        self.0.volume() == other.0.volume()
    }
}
impl Eq for VolBox {}
impl PartialOrd for VolBox {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for VolBox {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.volume().total_cmp(&other.0.volume())
    }
}

/// Faces measured so far in one top-level volume call: the exact bits
/// of `(lp_levels, dim, rows)` after axis reduction, mapped to the
/// face's volume before its axis factor (`None`: no bounding rows).
pub(crate) type FaceMemo = HashMap<Vec<u64>, Option<f64>>;

/// Recursive volume of `{x | rows}` (variables are free; all bounds must
/// be explicit rows). `lp_levels` controls how many recursion levels
/// still run LP-based redundancy removal; below that, only cheap
/// normalisation/deduplication and axis reduction are used — projections
/// turn coupled rows into per-variable bounds, which the reduction then
/// eliminates, keeping the branching factor small.
fn vol_rec(rows: &[Row], dim: usize, lp_levels: u32, memo: &mut FaceMemo) -> f64 {
    // Per-level axis-aligned reduction over *free* variables.
    let Some(red) = reduce_rows_free(rows, dim) else {
        return 0.0;
    };
    let factor = red.factor;
    if factor == 0.0 {
        return 0.0;
    }
    let dim = red.dim;
    let rows = red.rows;
    if dim == 0 {
        return factor;
    }
    if dim == 1 {
        return factor * interval_length_1d(&rows);
    }
    let key = face_key(lp_levels, dim, &rows);
    let face = match memo.get(&key) {
        Some(&v) => v,
        None => {
            let v = facet_sum(&rows, dim, lp_levels, memo);
            memo.insert(key, v);
            v
        }
    };
    match face {
        Some(v) => factor * v,
        None => f64::INFINITY, // unbounded (cannot happen for cube subsets)
    }
}

/// The exact bits of one recursion node. Every row has `dim`
/// coefficients, so the row boundaries are implied.
fn face_key(lp_levels: u32, dim: usize, rows: &[Row]) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + rows.len() * (dim + 1));
    key.push(u64::from(lp_levels));
    key.push(dim as u64);
    for (a, b) in rows {
        key.extend(a.iter().map(|x| x.to_bits()));
        key.push(b.to_bits());
    }
    key
}

/// `(1/n) Σᵢ (bᵢ / |a_ik|) · vol_{n−1}(Fᵢ)` over the facets of an
/// axis-reduced row system of dimension `dim ≥ 2`, clamped at 0; `None`
/// when no row survives simplification.
fn facet_sum(rows: &[Row], dim: usize, lp_levels: u32, memo: &mut FaceMemo) -> Option<f64> {
    let rows = if lp_levels > 0 {
        simplify_rows(rows, dim)
    } else {
        dedup_rows(rows)
    };
    if rows.is_empty() {
        return None;
    }
    let mut total = 0.0f64;
    for (i, (a, b)) in rows.iter().enumerate() {
        // Pivot coordinate: largest |a_k| for numerical stability.
        let (k, ak) = match a
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
        {
            Some((k, &ak)) if ak.abs() > EPS => (k, ak),
            _ => continue, // zero row — no facet
        };
        if b.abs() <= EPS {
            // Facet hyperplane through the origin: zero flux term.
            continue;
        }
        // Project every other row onto the hyperplane a·x = b by
        // substituting x_k = (b − Σ_{j≠k} a_j x_j) / a_k.
        let mut sub_rows: Vec<Row> = Vec::with_capacity(rows.len() - 1);
        for (j, (c, d)) in rows.iter().enumerate() {
            if j == i {
                continue;
            }
            let ck = c[k];
            let mut new_c = Vec::with_capacity(dim - 1);
            for t in 0..dim {
                if t == k {
                    continue;
                }
                new_c.push(c[t] - ck * a[t] / ak);
            }
            let new_d = d - ck * b / ak;
            sub_rows.push((new_c, new_d));
        }
        let facet_proj_vol = vol_rec(&sub_rows, dim - 1, lp_levels.saturating_sub(1), memo);
        if facet_proj_vol.is_finite() && facet_proj_vol > 0.0 {
            total += (b / ak.abs()) * facet_proj_vol;
        }
    }
    Some((total / dim as f64).max(0.0))
}

/// Axis-aligned reduction for rows over *free* variables (no implicit
/// orthant). Returns `None` when the per-variable bounds alone are
/// infeasible; uninvolved variables with unbounded width make the factor
/// infinite.
pub(crate) fn reduce_rows_free(rows: &[Row], n: usize) -> Option<Reduced> {
    let mut lo = vec![f64::NEG_INFINITY; n];
    let mut hi = vec![f64::INFINITY; n];
    let mut coupled: Vec<(Vec<f64>, f64)> = Vec::new();
    for (a, b) in rows {
        let nz: Vec<usize> = (0..n).filter(|&j| a[j].abs() > EPS).collect();
        match nz.len() {
            0 => {
                if *b < -EPS {
                    return None;
                }
            }
            1 => {
                let j = nz[0];
                let bound = b / a[j];
                if a[j] > 0.0 {
                    hi[j] = hi[j].min(bound);
                } else {
                    lo[j] = lo[j].max(bound);
                }
            }
            _ => coupled.push((a.clone(), *b)),
        }
    }
    for j in 0..n {
        if hi[j] < lo[j] - EPS {
            return None;
        }
        hi[j] = hi[j].max(lo[j]);
    }
    let mut involved = vec![false; n];
    for (a, _) in &coupled {
        for j in 0..n {
            if a[j].abs() > EPS {
                involved[j] = true;
            }
        }
    }
    let mut factor = 1.0f64;
    let mut remap: Vec<Option<usize>> = vec![None; n];
    let mut dim = 0usize;
    for j in 0..n {
        if involved[j] {
            remap[j] = Some(dim);
            dim += 1;
        } else {
            factor *= hi[j] - lo[j]; // may be ∞ for unbounded free vars
        }
    }
    if factor == 0.0 {
        return Some(Reduced {
            factor: 0.0,
            dim: 0,
            rows: Vec::new(),
        });
    }
    let mut out_rows: Vec<(Vec<f64>, f64)> = Vec::new();
    for (a, b) in &coupled {
        let mut na = vec![0.0; dim];
        for j in 0..n {
            if let Some(k) = remap[j] {
                na[k] = a[j];
            }
        }
        out_rows.push((na, *b));
    }
    for j in 0..n {
        if let Some(k) = remap[j] {
            if hi[j].is_finite() {
                let mut up = vec![0.0; dim];
                up[k] = 1.0;
                out_rows.push((up, hi[j]));
            }
            if lo[j].is_finite() {
                let mut down = vec![0.0; dim];
                down[k] = -1.0;
                out_rows.push((down, -lo[j]));
            }
        }
    }
    Some(Reduced {
        factor,
        dim,
        rows: out_rows,
    })
}

/// Normalises and deduplicates rows without LP calls.
pub(crate) fn dedup_rows(rows: &[Row]) -> Vec<Row> {
    let mut kept: Vec<(Vec<f64>, f64)> = Vec::new();
    'next: for (a, b) in rows {
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= EPS {
            continue;
        }
        let na: Vec<f64> = a.iter().map(|x| x / norm).collect();
        let nb = b / norm;
        for (ka, kb) in &mut kept {
            if ka.iter().zip(&na).all(|(x, y)| (x - y).abs() < 1e-9) {
                *kb = kb.min(nb);
                continue 'next;
            }
        }
        kept.push((na, nb));
    }
    kept
}

/// Length of the 1-D feasible interval of `rows`.
pub(crate) fn interval_length_1d(rows: &[Row]) -> f64 {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for (a, b) in rows {
        let a = a[0];
        if a.abs() <= EPS {
            if *b < -EPS {
                return 0.0;
            }
            continue;
        }
        let bound = b / a;
        if a > 0.0 {
            hi = hi.min(bound);
        } else {
            lo = lo.max(bound);
        }
    }
    if hi.is_infinite() || lo.is_infinite() {
        return f64::INFINITY;
    }
    (hi - lo).max(0.0)
}

/// Normalises and deduplicates rows like [`dedup_rows`], then drops
/// every row implied by the others (an LP per row).
fn simplify_rows(rows: &[Row], dim: usize) -> Vec<Row> {
    let kept = dedup_rows(rows);
    // LP-based redundancy removal with FREE variables: the recursion's
    // row system is the whole truth (orthant facets are explicit rows),
    // so the check must not smuggle in the simplex solver's implicit
    // `x ≥ 0`.
    let keep = irredundant_mask(&kept, |(a, b), others| {
        matches!(
            solve_lp_free(a, true, others, dim),
            LpOutcome::Optimal(v, _) if v <= b + EPS
        )
    });
    kept.into_iter()
        .zip(keep)
        .filter(|&(_, k)| k)
        .map(|(r, _)| r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_interval::Interval;

    #[test]
    fn unit_cube_volume() {
        for n in 1..=4 {
            let p = HPolytope::unit_cube(n);
            assert!((p.volume_lasserre() - 1.0).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn standard_simplex_volume() {
        // x₁ + ⋯ + x_n ≤ 1 in the cube: volume 1/n!.
        let mut expect = 1.0;
        for n in 1..=5 {
            expect /= n as f64;
            let mut p = HPolytope::unit_cube(n);
            p.add_constraint(vec![1.0; n], 1.0);
            let v = p.volume_lasserre();
            assert!(
                (v - expect).abs() < 1e-9 * (1.0 + expect),
                "n={n}: {v} vs {expect}"
            );
        }
    }

    #[test]
    fn halfspace_cut_volume() {
        // x ≤ 0.3 in the unit square: area 0.3.
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, 0.0], 0.3);
        assert!((p.volume_lasserre() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn diagonal_band_volume() {
        // 0.25 ≤ x − y ≤ 0.75 in the unit square.
        // Area = P(x−y≤0.75) − P(x−y≤0.25) with triangles:
        //   P(x−y ≤ t) = 1 − (1−t)²/2 for t ∈ [0,1]
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, -1.0], 0.75);
        p.add_constraint(vec![-1.0, 1.0], -0.25);
        let expect = (1.0 - 0.25f64.powi(2) / 2.0) - (1.0 - 0.75f64.powi(2) / 2.0);
        assert!((p.volume_lasserre() - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_polytope_volume_zero() {
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, 0.0], 0.2);
        p.add_constraint(vec![-1.0, 0.0], -0.8);
        assert_eq!(p.volume_lasserre(), 0.0);
        assert_eq!(p.volume_bounds(100), (0.0, 0.0));
    }

    #[test]
    fn degenerate_polytope_volume_zero() {
        // x = 0.5 slice has measure 0.
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, 0.0], 0.5);
        p.add_constraint(vec![-1.0, 0.0], -0.5);
        assert!(p.volume_lasserre().abs() < 1e-9);
    }

    #[test]
    fn box_bounds_sandwich_lasserre() {
        let mut p = HPolytope::unit_cube(3);
        p.add_constraint(vec![1.0, 1.0, 1.0], 1.5);
        p.add_constraint(vec![1.0, -1.0, 0.5], 0.6);
        let exact = p.volume_lasserre();
        let (lo, hi) = p.volume_bounds(20_000);
        assert!(lo <= exact + 1e-9, "lo={lo} exact={exact}");
        assert!(exact <= hi + 1e-9, "hi={hi} exact={exact}");
        assert!(hi - lo < 0.2, "bounds too loose: [{lo}, {hi}]");
    }

    #[test]
    fn box_bounds_converge() {
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![1.0, 1.0], 1.0);
        let (lo1, hi1) = p.volume_bounds(64);
        let (lo2, hi2) = p.volume_bounds(4096);
        assert!(hi2 - lo2 < hi1 - lo1);
        assert!(lo2 <= 0.5 && 0.5 <= hi2);
        assert!(hi2 - lo2 < 0.05);
    }

    #[test]
    fn axis_aligned_reduction_makes_boxes_instant() {
        // A 12-D box would be hopeless for the raw recursion; the
        // reduction computes it as a product of widths.
        let mut p = HPolytope::unit_cube(12);
        for i in 0..12 {
            let mut a = vec![0.0; 12];
            a[i] = 1.0;
            p.add_constraint(a, 0.5); // x_i ≤ 0.5
        }
        assert_eq!(p.coupled_dim(), 0);
        let v = p.volume_lasserre();
        assert!((v - 0.5f64.powi(12)).abs() < 1e-15);
    }

    #[test]
    fn reduction_keeps_coupled_variables() {
        // 10 dims, but only x₀ + x₁ ≤ 1 couples anything.
        let mut p = HPolytope::unit_cube(10);
        p.add_constraint(vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0);
        assert_eq!(p.coupled_dim(), 2);
        assert!((p.volume_lasserre() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn volume_range_exact_vs_certified() {
        let mut p = HPolytope::unit_cube(3);
        p.add_constraint(vec![1.0, 1.0, 1.0], 1.5);
        let (lo_e, hi_e) = p.volume_range(8, 1000);
        assert_eq!(lo_e, hi_e, "exact below the cap");
        let (lo_c, hi_c) = p.volume_range(0, 8000);
        assert!(lo_c <= lo_e && hi_e <= hi_c, "certified brackets exact");
        assert!(hi_c - lo_c < 0.3);
    }

    #[test]
    fn infeasible_axis_bounds_give_zero() {
        let mut p = HPolytope::unit_cube(2);
        p.add_constraint(vec![-1.0, 0.0], -1.5); // x ≥ 1.5 vs x ≤ 1
        assert_eq!(p.volume_lasserre(), 0.0);
        assert_eq!(p.volume_range(8, 100), (0.0, 0.0));
    }

    #[test]
    fn volume_of_shifted_box() {
        let b = BoxN::new(vec![Interval::new(0.25, 0.75), Interval::new(0.5, 1.0)]);
        let p = HPolytope::from_box(&b);
        assert!((p.volume_lasserre() - 0.25).abs() < 1e-9);
        let (lo, hi) = p.volume_bounds(10);
        assert!((lo - 0.25).abs() < 1e-9 && (hi - 0.25).abs() < 1e-9);
    }
}
