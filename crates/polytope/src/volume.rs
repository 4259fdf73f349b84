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
//! pivot orders (`F₁ ∩ F₂` via `F₁` and via `F₂`), and the polytopes of
//! one §6.4 sweep are one path polytope clipped by neighbouring chunk
//! combinations, so they share faces too. Like Vinci's Lasserre variant
//! with face storage (Büeler, Enge & Fukuda, "Exact volume computation
//! for polytopes: a practical study", 2000), a [`VolumeScratch`] keeps a
//! memo of the faces it has measured. It is keyed on the exact bits of a
//! face's reduced row system and recursion level, which fully determine
//! the face's value, so a hit returns the very bits a recomputation
//! would, however long the memo has lived. The caller owns the scratch
//! and passes it by `&mut` (the sweep keeps one per claimed chunk of
//! combinations); the one-shot [`HPolytope::volume_range`],
//! [`HPolytope::volume_lasserre`] and [`HPolytope::is_empty`] run on a
//! fresh one. The memo clears itself when an insert would pass
//! `FACE_MEMO_BYTES` (128 KiB), counted as each key's bytes plus one
//! nominal table slot per entry.
//!
//! The recursion allocates per scratch, not per node: a row system is
//! one flat row-major buffer, every recursion depth owns one set of
//! reused buffers, and the LP-based redundancy removal addresses its
//! rows by index and runs every LP on one reused simplex scratch (see
//! [`crate::simplex`]). The floating-point operations and their order
//! are those of the plain recursion over row lists.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::mem::{size_of, size_of_val};

use gubpi_interval::BoxN;

use crate::hpoly::{irredundant_mask, HPolytope};
use crate::simplex::{LpScratch, LpValue, Row};
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
        self.volume_range_with(usize::MAX, 0, &mut VolumeScratch::default())
            .0
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
        self.volume_range_with(exact_dim_cap, budget, &mut VolumeScratch::default())
    }

    /// [`HPolytope::volume_range`] on the caller's scratch: the same
    /// bits, with the faces the scratch measured before served from its
    /// memo.
    pub fn volume_range_with(
        &self,
        exact_dim_cap: usize,
        budget: usize,
        scratch: &mut VolumeScratch,
    ) -> (f64, f64) {
        let Some(red) = self.reduce_axis_aligned() else {
            return (0.0, 0.0);
        };
        if red.rows.is_empty() {
            return (red.factor, red.factor);
        }
        if red.dim <= exact_dim_cap {
            let v = red.factor * scratch.lasserre(&red.rows, red.dim);
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

/// The byte cap of a [`VolumeScratch`]'s face memo, counting each
/// entry's key and one nominal table slot. Chosen by measurement on
/// pedestrian's §6.4 sweep, one scratch per chunk of combinations:
/// 32 KiB and 512 KiB were both slower end to end, and larger caps
/// raise peak memory (see ROADMAP.md).
pub(crate) const FACE_MEMO_BYTES: usize = 128 << 10;

/// Faces measured so far: the exact bits of `(lp_levels, dim, rows)`
/// after axis reduction, mapped to the face's volume before its axis
/// factor (`None`: no bounding rows). Clears itself when an insert would
/// pass `cap` bytes, counted as each key's bytes plus one nominal slot
/// per entry. The count is approximate: it leaves out the table's spare
/// buckets (a power-of-two bucket count, kept at its peak by `clear`)
/// and the allocator's overhead per key, so the real footprint can be
/// up to about twice `cap`.
struct FaceMemo {
    map: HashMap<Vec<u64>, Option<f64>>,
    bytes: usize,
    cap: usize,
}

impl FaceMemo {
    fn get(&self, key: &[u64]) -> Option<Option<f64>> {
        self.map.get(key).copied()
    }

    fn insert(&mut self, key: &[u64], face: Option<f64>) {
        let bytes = size_of_val(key) + size_of::<(Vec<u64>, Option<f64>)>() + 1;
        if self.bytes + bytes > self.cap {
            self.map.clear();
            self.bytes = 0;
        }
        if bytes <= self.cap {
            self.map.insert(key.to_vec(), face);
            self.bytes += bytes;
        }
    }
}

/// What a sequence of volume calls shares: the face memo, the scratch
/// of the redundancy LPs (which never nest) and one `Level` of
/// buffers per recursion depth.
///
/// A face's value is a pure function of its memo key, so every result
/// is bit-identical to a fresh scratch's, whatever the scratch measured
/// before. The memo clears itself when an insert would pass about
/// 128 KiB (an approximate count: keys plus one nominal slot per entry,
/// see `FaceMemo`).
pub struct VolumeScratch {
    memo: FaceMemo,
    lp: LpScratch,
    levels: Vec<Level>,
    /// The flattened input rows of the top-level recursion.
    src: Vec<f64>,
}

impl Default for VolumeScratch {
    fn default() -> VolumeScratch {
        VolumeScratch::with_memo_cap(FACE_MEMO_BYTES)
    }
}

impl VolumeScratch {
    /// A fresh scratch whose memo holds at most `cap` bytes.
    pub(crate) fn with_memo_cap(cap: usize) -> VolumeScratch {
        VolumeScratch {
            memo: FaceMemo {
                map: HashMap::new(),
                bytes: 0,
                cap,
            },
            lp: LpScratch::default(),
            levels: Vec::new(),
            src: Vec::new(),
        }
    }

    /// The simplex scratch.
    pub(crate) fn lp(&mut self) -> &mut LpScratch {
        &mut self.lp
    }

    /// Exact volume of `{x | rows}` over free variables, for an
    /// axis-reduced row system over `dim` variables: one [`Level`] per
    /// recursion depth (the dimension drops by at least one per depth).
    fn lasserre(&mut self, rows: &[Row], dim: usize) -> f64 {
        if self.levels.len() < dim.max(1) {
            self.levels.resize_with(dim.max(1), Level::default);
        }
        self.src.clear();
        for (a, b) in rows {
            self.src.extend_from_slice(a);
            self.src.push(*b);
        }
        vol_rec(
            &self.src,
            dim,
            2,
            &mut self.levels,
            &mut self.memo,
            &mut self.lp,
        )
    }
}

/// The buffers of one recursion depth, reused by every node at that
/// depth. A row system is one row-major `Vec<f64>` of stride `dim + 1`:
/// a row's coefficients, then its rhs.
#[derive(Default)]
struct Level {
    /// Per-variable bounds of the axis rows of the input.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Indices of the input's coupled rows.
    coupled: Vec<usize>,
    /// Variables that some coupled row involves.
    involved: Vec<bool>,
    /// The axis-reduced rows, the memo key's rows.
    rows: Vec<f64>,
    /// `rows` normalised, deduplicated and (with LP levels left) pruned.
    kept: Vec<f64>,
    /// Redundancy flags and "the other rows" of the per-row LPs.
    keep: Vec<bool>,
    others: Vec<usize>,
    /// The kept rows projected onto the current facet: the input of the
    /// next depth.
    child: Vec<f64>,
    /// The face key of `rows`.
    key: Vec<u64>,
}

/// Recursive volume of the flat row system `src` over `n` free variables
/// (all bounds must be explicit rows). `lp_levels` controls how many
/// recursion levels still run LP-based redundancy removal; below that,
/// only cheap normalisation/deduplication and axis reduction are used —
/// projections turn coupled rows into per-variable bounds, which the
/// reduction then eliminates, keeping the branching factor small.
fn vol_rec(
    src: &[f64],
    n: usize,
    lp_levels: u32,
    levels: &mut [Level],
    memo: &mut FaceMemo,
    lp: &mut LpScratch,
) -> f64 {
    let (lvl, deeper) = levels
        .split_first_mut()
        .expect("one level per recursion depth");
    let Some((factor, dim)) = lvl.reduce(src, n) else {
        return 0.0;
    };
    if factor == 0.0 {
        return 0.0;
    }
    if dim == 0 {
        return factor;
    }
    if dim == 1 {
        return factor * interval_length_1d(&lvl.rows);
    }
    // The exact bits of this node. Every row has `dim` coefficients, so
    // the row boundaries are implied.
    lvl.key.clear();
    lvl.key.push(u64::from(lp_levels));
    lvl.key.push(dim as u64);
    lvl.key.extend(lvl.rows.iter().map(|x| x.to_bits()));
    let face = match memo.get(&lvl.key) {
        Some(v) => v,
        None => {
            let v = facet_sum(lvl, dim, lp_levels, deeper, memo, lp);
            memo.insert(&lvl.key, v);
            v
        }
    };
    match face {
        Some(v) => factor * v,
        None => f64::INFINITY, // unbounded (cannot happen for cube subsets)
    }
}

/// `(1/n) Σᵢ (bᵢ / |a_ik|) · vol_{n−1}(Fᵢ)` over the facets of the
/// axis-reduced rows `lvl.rows` of dimension `dim ≥ 2`, clamped at 0;
/// `None` when no row survives simplification.
fn facet_sum(
    lvl: &mut Level,
    dim: usize,
    lp_levels: u32,
    deeper: &mut [Level],
    memo: &mut FaceMemo,
    lp: &mut LpScratch,
) -> Option<f64> {
    let w = dim + 1;
    dedup_rows(&lvl.rows, dim, &mut lvl.kept);
    if lp_levels > 0 {
        drop_redundant_rows(lvl, dim, lp);
    }
    if lvl.kept.is_empty() {
        return None;
    }
    let mut total = 0.0f64;
    for (i, row) in lvl.kept.chunks_exact(w).enumerate() {
        let (a, b) = (&row[..dim], row[dim]);
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
        lvl.child.clear();
        for (j, r) in lvl.kept.chunks_exact(w).enumerate() {
            if j == i {
                continue;
            }
            let ck = r[k];
            for t in 0..dim {
                if t != k {
                    lvl.child.push(r[t] - ck * a[t] / ak);
                }
            }
            lvl.child.push(r[dim] - ck * b / ak);
        }
        let facet_proj_vol = vol_rec(
            &lvl.child,
            dim - 1,
            lp_levels.saturating_sub(1),
            deeper,
            memo,
            lp,
        );
        if facet_proj_vol.is_finite() && facet_proj_vol > 0.0 {
            total += (b / ak.abs()) * facet_proj_vol;
        }
    }
    Some((total / dim as f64).max(0.0))
}

impl Level {
    /// Axis-aligned reduction of the flat rows `src` over `n` *free*
    /// variables (no implicit orthant) into `self.rows`: per-variable
    /// bounds from single-coordinate rows, variables no coupled row
    /// involves dropped (their widths multiply into the returned factor,
    /// infinite for an unbounded one), the rest renumbered in order with
    /// their finite bounds as explicit rows after the coupled rows.
    /// Returns `(factor, dim)`, or `None` when the per-variable bounds
    /// alone are infeasible; a zero factor leaves `self.rows` stale.
    fn reduce(&mut self, src: &[f64], n: usize) -> Option<(f64, usize)> {
        let w = n + 1;
        self.lo.clear();
        self.lo.resize(n, f64::NEG_INFINITY);
        self.hi.clear();
        self.hi.resize(n, f64::INFINITY);
        self.coupled.clear();
        for (r, row) in src.chunks_exact(w).enumerate() {
            let (a, b) = (&row[..n], row[n]);
            let mut nz = (0..n).filter(|&j| a[j].abs() > EPS);
            match (nz.next(), nz.next()) {
                (None, _) => {
                    if b < -EPS {
                        return None;
                    }
                }
                (Some(j), None) => {
                    let bound = b / a[j];
                    if a[j] > 0.0 {
                        self.hi[j] = self.hi[j].min(bound);
                    } else {
                        self.lo[j] = self.lo[j].max(bound);
                    }
                }
                _ => self.coupled.push(r),
            }
        }
        for (lo, hi) in self.lo.iter().zip(&mut self.hi) {
            if *hi < lo - EPS {
                return None;
            }
            *hi = hi.max(*lo);
        }
        self.involved.clear();
        self.involved.resize(n, false);
        for &r in &self.coupled {
            for (inv, x) in self.involved.iter_mut().zip(&src[r * w..r * w + n]) {
                if x.abs() > EPS {
                    *inv = true;
                }
            }
        }
        let mut factor = 1.0f64;
        let mut dim = 0usize;
        for j in 0..n {
            if self.involved[j] {
                dim += 1;
            } else {
                factor *= self.hi[j] - self.lo[j]; // may be ∞ for unbounded free vars
            }
        }
        if factor == 0.0 {
            return Some((0.0, 0));
        }
        self.rows.clear();
        for &r in &self.coupled {
            let row = &src[r * w..(r + 1) * w];
            for (&x, &inv) in row[..n].iter().zip(&self.involved) {
                if inv {
                    self.rows.push(x);
                }
            }
            self.rows.push(row[n]);
        }
        let mut k = 0;
        for j in 0..n {
            if !self.involved[j] {
                continue;
            }
            for (sign, bound, rhs) in [
                (1.0, self.hi[j], self.hi[j]),
                (-1.0, self.lo[j], -self.lo[j]),
            ] {
                if bound.is_finite() {
                    let start = self.rows.len();
                    self.rows.resize(start + dim, 0.0);
                    self.rows[start + k] = sign;
                    self.rows.push(rhs);
                }
            }
            k += 1;
        }
        Some((factor, dim))
    }
}

/// Normalises the flat rows `rows` over `dim` variables to unit
/// coefficient norm into `kept`, dropping zero rows and merging rows
/// whose coefficients agree within `1e-9` (the smaller rhs wins).
fn dedup_rows(rows: &[f64], dim: usize, kept: &mut Vec<f64>) {
    kept.clear();
    for r in rows.chunks_exact(dim + 1) {
        let norm = r[..dim].iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= EPS {
            continue;
        }
        let start = kept.len();
        kept.extend(r.iter().map(|x| x / norm));
        let (old, new) = kept.split_at_mut(start);
        let same = old.chunks_exact_mut(dim + 1).find(|k| {
            k[..dim]
                .iter()
                .zip(&new[..dim])
                .all(|(x, y)| (x - y).abs() < 1e-9)
        });
        if let Some(k) = same {
            k[dim] = k[dim].min(new[dim]);
            kept.truncate(start);
        }
    }
}

/// Drops every row of `lvl.kept` (over `dim` free variables) that the
/// others imply, by one LP per row, in place.
fn drop_redundant_rows(lvl: &mut Level, dim: usize, lp: &mut LpScratch) {
    // LP-based redundancy removal with FREE variables: the recursion's
    // row system is the whole truth (orthant facets are explicit rows),
    // so the check must not smuggle in the simplex solver's implicit
    // `x ≥ 0`.
    let w = dim + 1;
    let kept = &lvl.kept;
    let row = |i: usize| (&kept[i * w..i * w + dim], kept[i * w + dim]);
    irredundant_mask(
        kept.len() / w,
        &mut lvl.keep,
        &mut lvl.others,
        |i, others| {
            let (a, b) = row(i);
            let v = lp.solve(a, true, true, dim, others.len(), |k| row(others[k]));
            matches!(v, LpValue::Optimal(v) if v <= b + EPS)
        },
    );
    let mut m = 0;
    for (i, &k) in lvl.keep.iter().enumerate() {
        if k {
            lvl.kept.copy_within(i * w..(i + 1) * w, m * w);
            m += 1;
        }
    }
    lvl.kept.truncate(m * w);
}

/// Length of the 1-D feasible interval of the flat rows `rows` (stride
/// 2).
fn interval_length_1d(rows: &[f64]) -> f64 {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for r in rows.chunks_exact(2) {
        let (a, b) = (r[0], r[1]);
        if a.abs() <= EPS {
            if b < -EPS {
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
    fn face_memo_stays_under_its_cap() {
        let mut p = HPolytope::unit_cube(5);
        p.add_constraint(vec![1.0, 0.5, -0.3, 0.7, 0.2], 1.2);
        p.add_constraint(vec![-0.4, 1.0, 0.6, -0.2, 0.9], 0.8);
        let mut roomy = VolumeScratch::default();
        let mut tiny = VolumeScratch::with_memo_cap(2 << 10);
        let (v, _) = p.volume_range_with(8, 0, &mut roomy);
        let (w, _) = p.volume_range_with(8, 0, &mut tiny);
        assert_eq!(v.to_bits(), w.to_bits());
        assert!(roomy.memo.bytes <= FACE_MEMO_BYTES);
        assert!(tiny.memo.bytes <= 2 << 10);
        assert!(
            tiny.memo.map.len() < roomy.memo.map.len(),
            "the tiny memo cleared itself"
        );
        // A second run is served from the roomy memo alone.
        let faces = roomy.memo.map.len();
        assert_eq!(
            p.volume_range_with(8, 0, &mut roomy).0.to_bits(),
            v.to_bits()
        );
        assert_eq!(roomy.memo.map.len(), faces);
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
