//! Bit-identity oracles for the volume layer (compiled for tests only).
//!
//! The product code runs one simplex core on reusable flat buffers and
//! runs Lasserre's recursion on flat row systems with per-depth scratch
//! and a face memo. This module keeps the plain forms those
//! optimisations must reproduce bit for bit: a nested-vector tableau
//! with the free-variable split built as doubled rows, redundancy checks
//! over cloned row lists, and the recursion over `Vec<Row>` lists
//! without a memo. It shares no helper with the code it checks. The
//! property tests below compare the two on random LPs and polytopes with
//! `f64::to_bits`.
#![allow(clippy::needless_range_loop)] // index loops mirror tableau notation

use crate::hpoly::HPolytope;
use crate::simplex::{LpOutcome, Row};

const EPS: f64 = 1e-9;

/// Nested-vector two-phase simplex over `x ≥ 0`.
pub(crate) fn solve_lp(c: &[f64], maximize: bool, rows: &[Row], dim: usize) -> LpOutcome {
    assert_eq!(c.len(), dim, "objective dimension mismatch");
    for (a, _) in rows {
        assert_eq!(a.len(), dim, "row dimension mismatch");
    }
    let m = rows.len();
    let need_art: Vec<bool> = rows.iter().map(|(_, b)| *b < 0.0).collect();
    let n_art = need_art.iter().filter(|&&x| x).count();
    let ncols = dim + m + n_art;

    let mut a = vec![vec![0.0f64; ncols + 1]; m];
    let mut basis = vec![0usize; m];
    let mut art_col = dim + m;
    for (i, (coef, b)) in rows.iter().enumerate() {
        let neg = need_art[i];
        let sign = if neg { -1.0 } else { 1.0 };
        for (j, &w) in coef.iter().enumerate() {
            a[i][j] = sign * w;
        }
        a[i][dim + i] = sign;
        a[i][ncols] = sign * b;
        if neg {
            a[i][art_col] = 1.0;
            basis[i] = art_col;
            art_col += 1;
        } else {
            basis[i] = dim + i;
        }
    }

    if n_art > 0 {
        let mut cost = vec![0.0f64; ncols + 1];
        for cj in &mut cost[dim + m..ncols] {
            *cj = 1.0;
        }
        for i in 0..m {
            if basis[i] >= dim + m {
                let r = a[i].clone();
                for j in 0..=ncols {
                    cost[j] -= r[j];
                }
            }
        }
        if iterate(&mut a, &mut basis, &mut cost, ncols).is_err() {
            return LpOutcome::Infeasible;
        }
        let z1 = -cost[ncols];
        if z1 > 1e-7 {
            return LpOutcome::Infeasible;
        }
        for i in 0..m {
            if basis[i] >= dim + m {
                if let Some(j) = (0..dim + m).find(|&j| a[i][j].abs() > EPS) {
                    pivot(&mut a, &mut basis, &mut vec![0.0; ncols + 1], i, j);
                }
            }
        }
    }

    let mut cost = vec![0.0f64; ncols + 1];
    for j in 0..dim {
        cost[j] = if maximize { -c[j] } else { c[j] };
    }
    for cj in &mut cost[dim + m..ncols] {
        *cj = f64::INFINITY;
    }
    for i in 0..m {
        let bj = basis[i];
        if cost[bj] != 0.0 && cost[bj].is_finite() {
            let factor = cost[bj];
            let r = a[i].clone();
            for j in 0..=ncols {
                if cost[j].is_finite() {
                    cost[j] -= factor * r[j];
                }
            }
        }
    }
    if iterate(&mut a, &mut basis, &mut cost, ncols).is_err() {
        return LpOutcome::Unbounded;
    }

    let mut x = vec![0.0f64; dim];
    for i in 0..m {
        if basis[i] < dim {
            x[basis[i]] = a[i][ncols];
        }
    }
    let z_min = -cost[ncols];
    let value = if maximize { -z_min } else { z_min };
    LpOutcome::Optimal(value, x)
}

/// Free variables by doubling every row and the objective into `u − v`.
pub(crate) fn solve_lp_free(c: &[f64], maximize: bool, rows: &[Row], dim: usize) -> LpOutcome {
    let c2: Vec<f64> = c.iter().copied().chain(c.iter().map(|x| -x)).collect();
    let rows2: Vec<Row> = rows
        .iter()
        .map(|(a, b)| (a.iter().copied().chain(a.iter().map(|x| -x)).collect(), *b))
        .collect();
    match solve_lp(&c2, maximize, &rows2, 2 * dim) {
        LpOutcome::Optimal(v, uv) => {
            LpOutcome::Optimal(v, (0..dim).map(|i| uv[i] - uv[dim + i]).collect())
        }
        other => other,
    }
}

fn iterate(
    a: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &mut [f64],
    ncols: usize,
) -> Result<(), ()> {
    let m = a.len();
    for _round in 0..100_000 {
        let mut enter = None;
        for (j, &cj) in cost.iter().enumerate().take(ncols) {
            if cj.is_finite() && cj < -EPS {
                enter = Some(j);
                break;
            }
        }
        let Some(col) = enter else {
            return Ok(());
        };
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            if a[i][col] > EPS {
                let ratio = a[i][ncols] / a[i][col];
                match leave {
                    None => leave = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - EPS || (ratio < br + EPS && basis[i] < basis[bi]) {
                            leave = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((row, _)) = leave else {
            return Err(());
        };
        pivot(a, basis, cost, row, col);
    }
    Ok(())
}

fn pivot(a: &mut [Vec<f64>], basis: &mut [usize], cost: &mut [f64], row: usize, col: usize) {
    let ncols = a[row].len() - 1;
    let p = a[row][col];
    for j in 0..=ncols {
        a[row][j] /= p;
    }
    a[row][col] = 1.0;
    for i in 0..a.len() {
        if i != row && a[i][col].abs() > 0.0 {
            let f = a[i][col];
            for j in 0..=ncols {
                a[i][j] -= f * a[row][j];
            }
            a[i][col] = 0.0;
        }
    }
    if cost[col].is_finite() && cost[col] != 0.0 {
        let f = cost[col];
        for j in 0..=ncols {
            if cost[j].is_finite() {
                cost[j] -= f * a[row][j];
            }
        }
        cost[col] = 0.0;
    }
    basis[row] = col;
}

/// Redundancy removal over the polytope's rows, cloning "the others".
pub(crate) fn without_redundant_rows(p: &HPolytope) -> Vec<Row> {
    let rows = p.rows();
    let mut kept: Vec<Row> = Vec::new();
    for i in 0..rows.len() {
        let (a, b) = &rows[i];
        let mut others: Vec<Row> = kept.clone();
        others.extend(rows[i + 1..].iter().cloned());
        match solve_lp(a, true, &others, p.dim()) {
            LpOutcome::Optimal(v, _) if v <= b + 1e-9 => {}
            _ => kept.push((a.clone(), *b)),
        }
    }
    kept
}

/// Lasserre's volume without a face memo.
pub(crate) fn volume_lasserre(p: &HPolytope) -> f64 {
    let Some(red) = p.reduce_axis_aligned() else {
        return 0.0;
    };
    if red.rows.is_empty() {
        return red.factor;
    }
    red.factor * vol_rec(&red.rows, red.dim, 2)
}

fn vol_rec(rows: &[Row], dim: usize, lp_levels: u32) -> f64 {
    let Some((factor, dim, rows)) = reduce_rows_free(rows, dim) else {
        return 0.0;
    };
    if factor == 0.0 {
        return 0.0;
    }
    if dim == 0 {
        return factor;
    }
    if dim == 1 {
        return factor * interval_length_1d(&rows);
    }
    let rows = if lp_levels > 0 {
        simplify_rows(&rows, dim)
    } else {
        dedup_rows(&rows)
    };
    if rows.is_empty() {
        return f64::INFINITY;
    }
    let mut total = 0.0f64;
    for (i, (a, b)) in rows.iter().enumerate() {
        let (k, ak) = match a
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
        {
            Some((k, &ak)) if ak.abs() > EPS => (k, ak),
            _ => continue,
        };
        if b.abs() <= EPS {
            continue;
        }
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
            sub_rows.push((new_c, d - ck * b / ak));
        }
        let facet_proj_vol = vol_rec(&sub_rows, dim - 1, lp_levels.saturating_sub(1));
        if facet_proj_vol.is_finite() && facet_proj_vol > 0.0 {
            total += (b / ak.abs()) * facet_proj_vol;
        }
    }
    factor * (total / dim as f64).max(0.0)
}

fn simplify_rows(rows: &[Row], dim: usize) -> Vec<Row> {
    let mut normed: Vec<Row> = Vec::with_capacity(rows.len());
    for (a, b) in rows {
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= EPS {
            continue;
        }
        normed.push((a.iter().map(|x| x / norm).collect(), b / norm));
    }
    let mut kept: Vec<Row> = Vec::new();
    'next: for (a, b) in normed {
        for (ka, kb) in &mut kept {
            if ka.iter().zip(&a).all(|(x, y)| (x - y).abs() < 1e-9) {
                *kb = kb.min(b);
                continue 'next;
            }
        }
        kept.push((a, b));
    }
    let mut result: Vec<Row> = Vec::new();
    for i in 0..kept.len() {
        let (a, b) = &kept[i];
        let mut others: Vec<Row> = result.clone();
        others.extend(kept[i + 1..].iter().cloned());
        match solve_lp_free(a, true, &others, dim) {
            LpOutcome::Optimal(v, _) if v <= b + EPS => {}
            _ => result.push((a.clone(), *b)),
        }
    }
    result
}

/// Axis-aligned reduction for rows over *free* variables: `(factor,
/// dim, rows)`, or `None` when the per-variable bounds are infeasible.
fn reduce_rows_free(rows: &[Row], n: usize) -> Option<(f64, usize, Vec<Row>)> {
    let mut lo = vec![f64::NEG_INFINITY; n];
    let mut hi = vec![f64::INFINITY; n];
    let mut coupled: Vec<Row> = Vec::new();
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
            factor *= hi[j] - lo[j];
        }
    }
    if factor == 0.0 {
        return Some((0.0, 0, Vec::new()));
    }
    let mut out_rows: Vec<Row> = Vec::new();
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
    Some((factor, dim, out_rows))
}

/// Normalises and deduplicates rows without LP calls.
fn dedup_rows(rows: &[Row]) -> Vec<Row> {
    let mut kept: Vec<Row> = Vec::new();
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
fn interval_length_1d(rows: &[Row]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{self, LpScratch};
    use crate::volume::{VolumeScratch, FACE_MEMO_BYTES};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Bit pattern of an LP outcome, so `-0.0`/`0.0` and NaNs compare
    /// exactly.
    fn outcome_bits(o: &LpOutcome) -> (u8, u64, Vec<u64>) {
        match o {
            LpOutcome::Infeasible => (0, 0, Vec::new()),
            LpOutcome::Unbounded => (1, 0, Vec::new()),
            LpOutcome::Optimal(v, x) => (2, v.to_bits(), x.iter().map(|c| c.to_bits()).collect()),
        }
    }

    /// Builds one LP from raw random material. `shape` picks the family:
    /// 0 = bare random rows (often unbounded), 1 = random rows inside
    /// the box `[-1, 1]^dim` (bounded), 2 = rows plus a contradictory
    /// pair (infeasible). Every family gets an exact duplicate, a
    /// rescaled duplicate and a near-duplicate (1e-12 off) of its first
    /// row, and the rhs range reaches below zero, so phase 1 runs.
    fn build_lp(
        dim: usize,
        shape: usize,
        n_rows: usize,
        coefs: &[f64],
        rhs: &[f64],
    ) -> (Vec<f64>, Vec<Row>) {
        let c = coefs[..dim].to_vec();
        let mut rows: Vec<Row> = (0..n_rows)
            .map(|r| (coefs[dim * (r + 1)..dim * (r + 2)].to_vec(), rhs[r]))
            .collect();
        let (a0, b0) = rows[0].clone();
        rows.push((a0.clone(), b0));
        rows.push((a0.iter().map(|x| 2.0 * x).collect(), 2.0 * b0));
        rows.push((a0.iter().map(|x| x + 1e-12).collect(), b0 + 1e-12));
        match shape {
            0 => {}
            1 => {
                for j in 0..dim {
                    let mut up = vec![0.0; dim];
                    up[j] = 1.0;
                    rows.push((up, 1.0));
                    let mut down = vec![0.0; dim];
                    down[j] = -1.0;
                    rows.push((down, 1.0));
                }
            }
            _ => {
                rows.push((a0.iter().map(|x| -x).collect(), -b0 - 0.25));
            }
        }
        (c, rows)
    }

    /// `(dim, shape, n_rows, coefs, rhs)` for [`build_lp`].
    type LpMaterial = (usize, usize, usize, Vec<f64>, Vec<f64>);

    fn lp_material() -> impl Strategy<Value = LpMaterial> {
        (
            2usize..7,
            0usize..3,
            1usize..6,
            vec(-1.0f64..1.0, 42),
            vec(-0.75f64..1.5, 6),
        )
    }

    /// A unit cube of dimension `dim` cut by one plane that couples every
    /// variable, its duplicate, rescaled and near-duplicate copies, and up
    /// to six further random cuts (rhs below zero included).
    fn build_polytope(dim: usize, extra: usize, coefs: &[f64], rhs: &[f64]) -> HPolytope {
        let mut p = HPolytope::unit_cube(dim);
        // |coefficient| ≥ 0.2 keeps every variable coupled.
        let full: Vec<f64> = coefs[..dim]
            .iter()
            .map(|&x| if x < 0.0 { x - 0.2 } else { x + 0.2 })
            .collect();
        let b = rhs[0] * dim as f64 * 0.5;
        p.add_constraint(full.clone(), b);
        p.add_constraint(full.clone(), b);
        p.add_constraint(full.iter().map(|x| 3.0 * x).collect(), 3.0 * b);
        p.add_constraint(full.iter().map(|x| x - 1e-12).collect(), b - 1e-12);
        for e in 0..extra {
            p.add_constraint(coefs[dim * (e + 1)..dim * (e + 2)].to_vec(), rhs[e + 1]);
        }
        p
    }

    /// `(dim, extra, coefs, rhs)` for [`build_polytope`].
    type PolytopeMaterial = (usize, usize, Vec<f64>, Vec<f64>);

    /// Coupled dimension 2–7 (the pedestrian runs at `exact_dim_cap = 7`)
    /// and 0–6 extra cuts.
    fn polytope_material() -> impl Strategy<Value = PolytopeMaterial> {
        (
            2usize..8,
            0usize..7,
            vec(-0.8f64..0.8, 49),
            vec(-0.5f64..1.5, 7),
        )
    }

    /// The flat simplex (owned and borrowed rows, fixed and free
    /// variables) against the nested-vector oracle.
    fn check_simplex(lp: LpMaterial, max: bool) {
        let (dim, shape, n_rows, coefs, rhs) = lp;
        let (c, rows) = build_lp(dim, shape, n_rows, &coefs, &rhs);
        let flat = simplex::solve_lp(&c, max, &rows, dim);
        assert_eq!(
            outcome_bits(&flat),
            outcome_bits(&solve_lp(&c, max, &rows, dim))
        );
        let flat_free = simplex::solve_lp_free(&c, max, &rows, dim);
        assert_eq!(
            outcome_bits(&flat_free),
            outcome_bits(&solve_lp_free(&c, max, &rows, dim))
        );
        // Borrowed rows take the same path as owned ones.
        let borrowed: Vec<&Row> = rows.iter().collect();
        assert_eq!(
            outcome_bits(&simplex::solve_lp_free(&c, max, &borrowed, dim)),
            outcome_bits(&flat_free)
        );
    }

    /// The memoized flat recursion and the LP-based redundancy removal
    /// against the oracle recursion and the cloning removal.
    fn check_polytope((dim, extra, coefs, rhs): PolytopeMaterial) {
        let p = build_polytope(dim, extra, &coefs, &rhs);
        assert_eq!(p.coupled_dim(), dim);
        let v = p.volume_lasserre();
        assert_eq!(v.to_bits(), volume_lasserre(&p).to_bits(), "{p:?}");
        let (lo, hi) = p.volume_range(8, 100);
        assert_eq!((lo.to_bits(), hi.to_bits()), (v.to_bits(), v.to_bits()));
        let pruned = p.without_redundant_rows();
        let mut oracle = HPolytope::nonneg_orthant(dim);
        for (a, b) in without_redundant_rows(&p) {
            oracle.add_constraint(a, b);
        }
        assert!(pruned.bit_eq(&oracle));
    }

    /// `(dim, extra, splits, coefs, rhs)` for [`check_shared_scratch`].
    type SweepMaterial = (usize, usize, (usize, usize), Vec<f64>, Vec<f64>);

    /// A path polytope of coupled dimension 2–5 with 0–3 extra cuts,
    /// and two boxed expressions split into 1–4 chunks each.
    fn sweep_material() -> impl Strategy<Value = SweepMaterial> {
        (
            2usize..6,
            0usize..4,
            (1usize..5, 1usize..5),
            vec(-0.8f64..0.8, 36),
            vec(-0.5f64..1.5, 7),
        )
    }

    /// The §6.4 sweep's sequence of related polytopes: the path
    /// polytope of [`build_polytope`] clipped by every chunk combination
    /// of two boxed linear expressions, expression 0 fastest. Each chunk
    /// is a slice of the expression's range over the unit cube.
    fn chunk_combinations(material: &SweepMaterial) -> Vec<HPolytope> {
        let (dim, extra, (k0, k1), coefs, rhs) = material;
        let p = build_polytope(*dim, *extra, coefs, rhs);
        let boxed = [&coefs[24..24 + dim], &coefs[30..30 + dim]];
        let chunks = |lin: &[f64], k: usize| -> Vec<(f64, f64)> {
            let lo: f64 = lin.iter().map(|x| x.min(0.0)).sum();
            let hi: f64 = lin.iter().map(|x| x.max(0.0)).sum();
            let w = (hi - lo) / k as f64;
            (0..k)
                .map(|i| (lo + w * i as f64, lo + w * (i + 1) as f64))
                .collect()
        };
        let (c0, c1) = (chunks(boxed[0], *k0), chunks(boxed[1], *k1));
        let mut out = Vec::new();
        for &(lo1, hi1) in &c1 {
            for &(lo0, hi0) in &c0 {
                let mut q = p.clone();
                for (lin, lo, hi) in [(boxed[0], lo0, hi0), (boxed[1], lo1, hi1)] {
                    q.add_constraint(lin.to_vec(), hi);
                    q.add_constraint(lin.iter().map(|x| -x).collect(), -lo);
                }
                out.push(q);
            }
        }
        out
    }

    /// One scratch carried through the chunk combinations of a sweep,
    /// with a memo of `cap` bytes, measures every polytope exactly like
    /// a fresh scratch and the memo-free oracle, and decides emptiness
    /// exactly like a fresh scratch and the nested simplex.
    fn check_shared_scratch(material: SweepMaterial, cap: usize) {
        let mut shared = VolumeScratch::with_memo_cap(cap);
        for q in chunk_combinations(&material) {
            let zero = vec![0.0; q.dim()];
            let empty = solve_lp(&zero, false, q.rows(), q.dim()) == LpOutcome::Infeasible;
            assert_eq!(q.is_empty_with(&mut shared), empty, "{q:?}");
            assert_eq!(q.is_empty(), empty, "{q:?}");
            let v = volume_lasserre(&q).to_bits();
            let (lo, hi) = q.volume_range_with(8, 100, &mut shared);
            assert_eq!((lo.to_bits(), hi.to_bits()), (v, v), "{q:?}");
            let (lo, hi) = q.volume_range(8, 100);
            assert_eq!((lo.to_bits(), hi.to_bits()), (v, v), "{q:?}");
        }
    }

    /// A memo cap that holds only a few faces of the polytopes above, so
    /// the shared memo clears itself every few inserts.
    const TINY_MEMO_BYTES: usize = 2 << 10;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn a_shared_volume_scratch_measures_like_a_fresh_one(material in sweep_material()) {
            check_shared_scratch(material.clone(), FACE_MEMO_BYTES);
            check_shared_scratch(material, TINY_MEMO_BYTES);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn flat_simplex_matches_the_nested_oracle_bit_for_bit(
            lp in lp_material(),
            maximize in 0usize..2,
        ) {
            check_simplex(lp, maximize == 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn memoized_recursion_matches_the_oracle_bit_for_bit(material in polytope_material()) {
            check_polytope(material);
        }
    }

    // Soak copies of the three bit-identity properties: 2,000 cases each on
    // their own random streams, too slow for a debug `cargo test`. CI
    // runs them in release with `--ignored`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        #[ignore = "soak: cargo test --release -p gubpi-polytope -- --ignored"]
        fn flat_simplex_soak(lp in lp_material(), maximize in 0usize..2) {
            check_simplex(lp, maximize == 1);
        }

        #[test]
        #[ignore = "soak: cargo test --release -p gubpi-polytope -- --ignored"]
        fn memoized_recursion_soak(material in polytope_material()) {
            check_polytope(material);
        }

        #[test]
        #[ignore = "soak: cargo test --release -p gubpi-polytope -- --ignored"]
        fn shared_volume_scratch_soak(material in sweep_material()) {
            check_shared_scratch(material.clone(), FACE_MEMO_BYTES);
            check_shared_scratch(material, TINY_MEMO_BYTES);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// One scratch carried through a sequence of LPs of varying size,
        /// fixed and free, there and back (so every size is met after a
        /// larger and after a smaller one), solves each exactly like a
        /// fresh scratch and the oracle: no tableau, basis or cost entry
        /// of an earlier LP leaks into a later one.
        #[test]
        fn a_reused_scratch_solves_like_a_fresh_one(
            seq in vec((lp_material(), 0usize..2, 0usize..2), 1..10),
        ) {
            let mut scratch = LpScratch::default();
            for ((dim, shape, n_rows, coefs, rhs), maximize, free) in seq.iter().chain(seq.iter().rev()) {
                let (c, rows) = build_lp(*dim, *shape, *n_rows, coefs, rhs);
                let (max, free) = (*maximize == 1, *free == 1);
                let reused = simplex::solve_in(&c, max, &rows, *dim, free, &mut scratch);
                let fresh = simplex::solve_in(&c, max, &rows, *dim, free, &mut LpScratch::default());
                let oracle = if free {
                    solve_lp_free(&c, max, &rows, *dim)
                } else {
                    solve_lp(&c, max, &rows, *dim)
                };
                prop_assert_eq!(outcome_bits(&reused), outcome_bits(&fresh));
                prop_assert_eq!(outcome_bits(&reused), outcome_bits(&oracle));
            }
        }
    }

    /// The generators above reach every outcome the comparisons must
    /// cover: optimal, infeasible and unbounded LPs for both solvers,
    /// empty and non-empty polytopes, and every coupled dimension 2–7.
    #[test]
    fn generators_cover_every_outcome() {
        let mut rng = proptest::TestRng::from_name("generators_cover_every_outcome");
        let material = lp_material();
        let mut seen = [[false; 3]; 2];
        for _ in 0..200 {
            let (dim, shape, n_rows, coefs, rhs) = material.gen_value(&mut rng);
            let (c, rows) = build_lp(dim, shape, n_rows, &coefs, &rhs);
            for (k, o) in [
                simplex::solve_lp(&c, true, &rows, dim),
                simplex::solve_lp_free(&c, true, &rows, dim),
            ]
            .iter()
            .enumerate()
            {
                seen[k][outcome_bits(o).0 as usize] = true;
            }
        }
        assert_eq!(
            seen, [[true; 3]; 2],
            "[solver][infeasible, unbounded, optimal]"
        );

        let mut dims = [false; 8];
        let (mut empty, mut nonempty) = (false, false);
        let material = polytope_material();
        for _ in 0..60 {
            let (dim, extra, coefs, rhs) = material.gen_value(&mut rng);
            let p = build_polytope(dim, extra, &coefs, &rhs);
            dims[p.coupled_dim()] = true;
            if p.volume_lasserre() > 0.0 {
                nonempty = true;
            } else {
                empty = true;
            }
        }
        assert_eq!(&dims[2..], &[true; 6]);
        assert!(empty && nonempty);
    }
}
