//! Bounding the denotation of one symbolic interval path (§6.3–6.4),
//! sequentially or on the persistent worker pool.
//!
//! The hard models (pedestrian, random walks) are dominated by a few
//! deep paths, so per-path parallelism alone leaves workers idle. Each
//! path's work — the §6.3 grid's n-dimensional cell space or the §6.4
//! chunk-combination product — is a flat index space of pure region
//! computations, which this module exposes as a *plan*
//! ([`plan_path_query_seeded`] / [`plan_path_seeded`] /
//! [`plan_path_grid_only_seeded`] returning a [`PathJob`] over buffered
//! [`Region`] triples). The unified scheduler
//! (`gubpi_pool::run_jobs_with`) executes the plans
//! of a whole query at once: workers adopt paths, drain their region
//! spaces chunk by chunk, and **steal chunks from still-running
//! dominant paths**, while every buffered contribution is replayed
//! to the caller in (path index, region index) order — so the caller
//! sees exactly the sequential call sequence and every bound stays
//! bit-identical across thread counts and steal schedules.
//!
//! Each step that combines bounds lives in one function: `cell_mass`
//! turns a cell's fused tape bounds and its volume into a [`Region`],
//! and [`QueryFold::apply`] classifies a region against `U` and adds its
//! masses to the query bounds — for the sweeps, the refiner's gap scores
//! and every caller of [`bound_path`] alike. Every cell and every §6.4
//! score-skeleton factor is evaluated through a [`Tape`]; `tape_for` is
//! the one place that picks its form from [`PathBoundOptions::use_kernel`].

use std::ops::Range;
use std::sync::Arc;

use gubpi_interval::{next_after_down, next_after_up, pow_up, widest_dim, Interval};
use gubpi_polytope::{HPolytope, LinExpr, VolumeScratch};
use gubpi_symbolic::{CellBounds, KernelSeed, SymPath, SymVal, Tape, TapeScratch, LANES};

use gubpi_pool::{
    run_each, run_jobs_cancellable, run_jobs_with, CancelToken, PathJob, Threads, WorkerPool,
};

use crate::analyze::Method;

/// Where per-region contributions are accumulated.
///
/// For each explored region the path analysis reports a triple
/// `(value_range, lo_mass, hi_mass)`: all traces in the region yield a
/// value in `value_range`; their total weighted measure is at least
/// `lo_mass` (with constraints holding *definitely*) and at most
/// `hi_mass` (constraints holding *possibly*).
pub trait BoundSink {
    /// Records one region's contribution.
    fn add(&mut self, value_range: Interval, lo_mass: f64, hi_mass: f64);
}

/// One buffered region contribution `(value_range, lo_mass, hi_mass)`.
///
/// The scheduler records these per claimed chunk and replays them into
/// the real sink in (path, region) order.
pub type Region = (Interval, f64, f64);

/// How a plan's [`Region`] stream folds into `(lo, hi)` query bounds.
///
/// The linear semantics in query mode bakes `result ∈ U` into the
/// polytopes, so its masses sum directly; the grid semantics (and
/// sampleless paths) report raw value ranges that the fold must still
/// classify against `U`. This is the one place a region is classified
/// against `U` and the one place region masses are summed into query
/// bounds.
#[derive(Copy, Clone, Debug)]
pub enum QueryFold {
    /// Sum the masses as-is (membership already folded into the plan).
    Direct,
    /// Classify each region's value range against `U` before summing.
    Filter(Interval),
}

impl QueryFold {
    /// Which masses of a region with value range `v` count toward
    /// `⟦P⟧(U)`: the lower mass only when every value lies in `U`, the
    /// upper mass when some value may.
    #[inline]
    fn counts(self, v: Interval) -> (bool, bool) {
        match self {
            QueryFold::Direct => (true, true),
            QueryFold::Filter(u) => (v.subset_of(&u), v.intersects(&u)),
        }
    }

    /// Folds one region into a `(lo, hi)` accumulator.
    #[inline]
    pub fn apply(self, acc: &mut (f64, f64), (v, lo, hi): Region) {
        let (lo_in, hi_in) = self.counts(v);
        if lo_in {
            acc.0 += lo;
        }
        if hi_in {
            acc.1 += hi;
        }
    }
}

/// Options for per-path bound computation.
///
/// `Eq`/`Hash` are derived so the analyzer's memo cache can key on the
/// exact option values (every field is integral or boolean).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathBoundOptions {
    /// Chunks per boxed linear expression (the paper's "evenly sized
    /// chunks", §6.4) and per grid dimension (§6.3).
    pub splits: usize,
    /// Upper bound on the total number of regions per path; the grid
    /// semantics (§6.3) reduces per-dimension splits and the linear
    /// semantics (§6.4) reduces per-expression chunks to stay below it.
    pub region_budget: usize,
    /// Number of linear expressions boxed simultaneously (Cartesian
    /// product of chunks); beyond this, extra expressions are bounded by
    /// a single LP range.
    pub max_boxed: usize,
    /// Use certified box-subdivision volumes instead of Lasserre's exact
    /// recursion.
    pub certified_volumes: bool,
    /// Box-subdivision budget per volume query when the exact recursion
    /// is not used.
    pub volume_budget: usize,
    /// Largest *coupled* dimension for which the exact Lasserre volume is
    /// used; beyond it, certified box bounds take over.
    pub exact_dim_cap: usize,
    /// Evaluate cells and §6.4 score skeletons through compiled interval
    /// tapes (`gubpi_symbolic::kernel`) instead of the tapes' tree-walk
    /// form ([`Tape::tree_walk`]). Both run through the same sweep code
    /// and give **bit-identical** bounds (the differential tests compare
    /// them); the kernel is only faster. Off, [`gubpi_symbolic::kernel_stats`]
    /// counts no tapes and no cells. Read in one place only.
    pub use_kernel: bool,
    /// Substitute geometric tail enclosures into budget-⊤ paths before
    /// bounding (see [`tail_substituted`]): a ⊤ path carrying a
    /// [`gubpi_symbolic::TailEnclosure`] with per-step contraction
    /// `c_hi < 1` has its trailing `[0, ∞]` score placeholder tightened
    /// to the closed-form geometric remainder `[0, x_hi/(1 − c_hi)]`,
    /// turning the path's `+∞` upper-bound contribution into a finite
    /// one. Sound: the remainder dominates every score the truncated
    /// suffix could still emit. Off (`repro --no-tail`), bounds are
    /// bit-identical to the bare-⊤ behaviour.
    pub use_tail: bool,
}

impl Default for PathBoundOptions {
    fn default() -> PathBoundOptions {
        PathBoundOptions {
            splits: 32,
            region_budget: 100_000,
            max_boxed: 2,
            certified_volumes: false,
            volume_budget: 4_000,
            exact_dim_cap: 7,
            use_kernel: true,
            use_tail: true,
        }
    }
}

/// The tail-substituted variant of a budget-⊤ path, when the geometric
/// enclosure applies — `None` means "bound the path as-is".
///
/// A ⊤ path's score list ends with the `[0, ∞]` placeholder the
/// executor pushes when it cuts a subtree, which drags every upper
/// bound the path touches to `+∞`. When the path carries a
/// [`gubpi_symbolic::TailEnclosure`] — per-unfolding contraction
/// `c = [0, c_hi]` and continuation factor `x = [0, x_hi]` from the
/// static analysis — the total score mass of the truncated suffix is
/// dominated by the geometric series `Σ_{j≥0} x·c_hi^j =
/// x_hi/(1 − c_hi)`, so the placeholder tightens to
/// `[0, x_hi/(1 − c_hi)]`. The quotient is outward-rounded
/// (denominator down, quotient up) so the closed form stays sound
/// under f64.
///
/// At the `c = 1` boundary — score-free and data-guarded loops — the
/// series diverges, and the plain enclosure is unusable. When the
/// ranking pass attached an eventually-geometric prefix
/// ([`gubpi_symbolic::TailPrefix`]: the continue mass is 0 from
/// unfolding `k₀` on, and prefix terminations carry weight ≤ 1), the
/// placeholder instead tightens to the **two-phase** closed form
///
/// ```text
/// x_hi · (w + c_eff^{max(0, k₀ − k_explored)} / (1 − c_eff)),  c_eff = 0, w = 1
/// ```
///
/// computed with outward rounding throughout (power up via
/// [`pow_up`], denominator down, products and sums up): about `x_hi`
/// for a cut inside the prefix, `2·x_hi` at or past `k₀`.
///
/// Returns `None` when tails are disabled (`opts.use_tail`), the path
/// is not budget-truncated, no enclosure was attached, or `c_hi ≥ 1`
/// with no prefix component — such paths keep the bare ⊤
/// rather than divide by zero.
pub fn tail_substituted(path: &SymPath, opts: &PathBoundOptions) -> Option<SymPath> {
    if !opts.use_tail || !path.budget_truncated {
        return None;
    }
    let t = path.tail?;
    let c_hi = t.per_step_weight.hi();
    let x_hi = t.continuation_weight.hi();
    if !x_hi.is_finite() || x_hi < 0.0 {
        return None;
    }
    // The half-open range also rejects a NaN contraction estimate.
    let bound = if (0.0..1.0).contains(&c_hi) {
        // Plain geometric remainder (the PR 7 formula, verbatim).
        let denom = next_after_down(1.0 - c_hi);
        if denom <= 0.0 {
            return None;
        }
        next_after_up(x_hi / denom)
    } else {
        // Eventually geometric: the certificate splits the suffix into
        // a prefix phase (mass ≤ w_hi) and a decay phase at rate r_hi,
        // discounted by the prefix steps the cut has not yet explored.
        // Every certificate has r_hi = 0 and w_hi = 1.
        let p = t.prefix?;
        let (r_hi, w_hi) = (0.0, 1.0);
        let denom = next_after_down(1.0 - r_hi);
        let remaining = p.prefix_bound.saturating_sub(t.unfoldings_explored);
        let decay = next_after_up(pow_up(r_hi, remaining) / denom);
        next_after_up(x_hi * next_after_up(w_hi + decay))
    };
    let mut out = path.clone();
    let last = out
        .scores
        .last_mut()
        .expect("⊤ paths end with the placeholder score");
    debug_assert!(
        matches!(**last, SymVal::Interval(iv) if iv == Interval::NON_NEG),
        "budget-⊤ paths push the [0, ∞] placeholder last"
    );
    *last = Arc::new(SymVal::Interval(Interval::new(0.0, bound)));
    Some(out)
}

// --------------------------------------------------------------------
// Plans: each path as a schedulable region sweep
// --------------------------------------------------------------------

/// Plans the bounding of `⟦Ψ⟧(U)` for one path, together with the fold
/// that turns its region stream into `(lo, hi)`.
///
/// For linear paths the query set `U` is folded into the polytopes
/// (the 𝔓_lb / 𝔓_ub of §6.4), which avoids any boundary slack: the
/// membership test becomes part of the volume computation (hence
/// [`QueryFold::Direct`]).
///
/// `_seed` is ignored (see [`KernelSeed`]).
pub fn plan_path_query_seeded<'a>(
    path: &'a SymPath,
    u: Interval,
    opts: PathBoundOptions,
    _seed: Option<&KernelSeed>,
) -> (PathJob<'a, Region>, QueryFold) {
    if path.n_samples == 0 {
        (plan_sampleless(path, opts), QueryFold::Filter(u))
    } else if linear_applicable(path) {
        (
            plan_linear(path, opts, ResultMode::Query(u)),
            QueryFold::Direct,
        )
    } else {
        (plan_grid(path, opts), QueryFold::Filter(u))
    }
}

/// Plans the full region stream of one path for histogram-shaped sinks.
///
/// Dispatches to the linear semantics when the path's constraints and
/// result are interval-linear (§6.4), otherwise to the standard grid
/// semantics (§6.3). `_seed` is ignored (see [`KernelSeed`]).
pub fn plan_path_seeded<'a>(
    path: &'a SymPath,
    opts: PathBoundOptions,
    _seed: Option<&KernelSeed>,
) -> PathJob<'a, Region> {
    if path.n_samples == 0 {
        plan_sampleless(path, opts)
    } else if linear_applicable(path) {
        plan_linear(path, opts, ResultMode::Boxed)
    } else {
        plan_grid(path, opts)
    }
}

/// Like [`plan_path_seeded`] but always uses the grid semantics — the
/// §6.3 vs §6.4 ablation baseline. `_seed` is ignored (see
/// [`KernelSeed`]).
pub fn plan_path_grid_only_seeded<'a>(
    path: &'a SymPath,
    opts: PathBoundOptions,
    _seed: Option<&KernelSeed>,
) -> PathJob<'a, Region> {
    if path.n_samples == 0 {
        plan_sampleless(path, opts)
    } else {
        plan_grid(path, opts)
    }
}

// --------------------------------------------------------------------
// Direct (single-path) entry points on top of the plans
// --------------------------------------------------------------------

/// Bounds `⟦Ψ⟧(U)` for one path directly, with the path's regions (grid
/// cells / chunk combinations) bounded on the persistent pool at width
/// `threads` (`Threads::Off` runs on the calling thread). Bit-identical
/// for every `threads` value.
pub fn bound_path_query(
    path: &SymPath,
    u: Interval,
    opts: PathBoundOptions,
    threads: Threads,
) -> (f64, f64) {
    let tailed = tail_substituted(path, &opts);
    let path = tailed.as_ref().unwrap_or(path);
    let (job, fold) = plan_path_query_seeded(path, u, opts, None);
    let mut acc = (0.0, 0.0);
    run_jobs_with(
        WorkerPool::global(),
        threads.worker_count(usize::MAX),
        vec![job],
        |_, region| fold.apply(&mut acc, region),
    );
    acc
}

/// Bounds `⟦Ψ⟧` for one path under `method`, passing each [`Region`]
/// to `emit` (fold them into query bounds with [`QueryFold::apply`]).
/// Regions are bounded on the persistent pool at width `threads`;
/// `emit` receives them in the sequential order regardless.
pub fn bound_path(
    path: &SymPath,
    opts: PathBoundOptions,
    method: Method,
    threads: Threads,
    mut emit: impl FnMut(Region),
) {
    let tailed = tail_substituted(path, &opts);
    let path = tailed.as_ref().unwrap_or(path);
    let job = match method {
        Method::Auto => plan_path_seeded(path, opts, None),
        Method::Grid => plan_path_grid_only_seeded(path, opts, None),
    };
    run_jobs_with(
        WorkerPool::global(),
        threads.worker_count(usize::MAX),
        vec![job],
        |_, region| emit(region),
    );
}

/// Is the linear semantics applicable (linear constraints and result)?
pub fn linear_applicable(path: &SymPath) -> bool {
    let n = path.n_samples;
    path.result.linear_form(n).is_some()
        && path
            .constraints
            .iter()
            .all(|c| c.value.linear_form(n).is_some())
}

/// The tape a plan evaluates `path` with, and the one read of
/// `opts.use_kernel`: the compiled kernel, or the tree-walk form the
/// differential tests compare it with. Both give the same bounds, bit
/// for bit, through the same sweep code.
fn tape_for(path: &SymPath, opts: PathBoundOptions) -> Tape {
    if opts.use_kernel {
        Tape::for_path(path)
    } else {
        Tape::tree_walk(path)
    }
}

/// Paths without samples: a single region of measure 1, precomputed at
/// plan time (nothing to schedule) by one tape evaluation over the
/// empty box.
fn plan_sampleless(path: &SymPath, opts: PathBoundOptions) -> PathJob<'static, Region> {
    let tape = tape_for(path, opts);
    tape.note_cells(1);
    // The empty box has volume 1.0, and `1.0 * x == x` bit for bit.
    let region = tape
        .eval_one(&[], &mut tape.scratch())
        .map(|cell| cell_mass(1.0, cell));
    PathJob::Ready(region.into_iter().collect())
}

/// Incremental mixed-radix decoding of a flat region index: digit `d`
/// cycles fastest through `radix(d)` values. Replaces the per-region
/// `div`/`mod` chain — one division chain seeds the start of a chunk,
/// then every step is a carry walk.
struct Odometer {
    digits: Vec<usize>,
}

impl Odometer {
    /// Digits of `index` in the mixed radix given by `radix(d)`.
    fn at(n: usize, mut index: usize, radix: impl Fn(usize) -> usize) -> Odometer {
        let digits = (0..n)
            .map(|d| {
                let r = radix(d);
                let digit = index % r;
                index /= r;
                digit
            })
            .collect();
        Odometer { digits }
    }

    /// Advances to the next index (digit 0 fastest).
    fn step(&mut self, radix: impl Fn(usize) -> usize) {
        for (d, digit) in self.digits.iter_mut().enumerate() {
            *digit += 1;
            if *digit < radix(d) {
                return;
            }
            *digit = 0;
        }
    }
}

// --------------------------------------------------------------------
// Standard interval trace semantics on a path (§6.3)
// --------------------------------------------------------------------

/// The per-dimension split count for an `n`-dimensional grid under a
/// region budget: the largest `k ≤ splits` with `k == 1` or
/// `k^n ≤ budget`, decided in **exact integer arithmetic**.
///
/// Invariants (regression-tested at the budget boundary): the result is
/// always ≥ 1, and whenever it exceeds 1 its `n`-th power fits the
/// budget exactly — the old `f64::powi` comparison could misclassify
/// `k^n` near the boundary once the power left the 2⁵³ exact-integer
/// range.
pub fn grid_splits(splits: usize, n: usize, budget: usize) -> usize {
    let fits = |k: usize| -> bool {
        let mut acc: u128 = 1;
        for _ in 0..n {
            acc = acc.saturating_mul(k as u128);
            if acc > budget as u128 {
                return false;
            }
        }
        true
    };
    let splits = splits.max(1);
    if fits(splits) {
        return splits;
    }
    // Binary search the largest fitting k in [1, splits); `fits` is
    // monotone in k, and fits(1) always holds.
    let (mut lo, mut hi) = (1usize, splits);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Grid splitting of `[0,1]^n`: every cell is checked against `Δ`
/// (∀ for the lower, ∃ for the upper bound), weighted by the interval
/// product of `Ξ`, and reported with the result range.
///
/// Cells are indexed linearly (dimension 0 fastest) so the index space
/// can be carved into contiguous chunks by the scheduler; chunk buffers
/// are replayed in index order, reproducing the sequential `sink.add`
/// sequence bit for bit.
///
/// The path is lowered once into a tape ([`tape_for`]) and each claimed
/// chunk is evaluated in lane blocks, with zero per-cell allocations
/// for a compiled tape; cells are decoded by an incremental odometer
/// instead of per-dimension `div`/`mod`. The emitted region stream is
/// the same, bit for bit, for either tape form.
fn plan_grid(path: &SymPath, opts: PathBoundOptions) -> PathJob<'_, Region> {
    let n = path.n_samples;
    let k = grid_splits(opts.splits, n, opts.region_budget);
    // Every dimension splits the same [0, 1], so one edge vector serves
    // all of them.
    let cell_edges: Vec<Interval> = Interval::UNIT.split(k);
    // k^n ≤ region_budget ≤ usize::MAX whenever k > 1, and 1 otherwise.
    let total = k.pow(n as u32);
    let tape = tape_for(path, opts);
    let cost = tape.cost();
    // Cell widths mirror `BoxN::volume`'s per-dimension factors; the
    // product below multiplies them in dimension order starting from
    // 1.0, exactly like `Iterator::product` over `Interval::width`.
    let edge_widths: Vec<f64> = cell_edges.iter().map(Interval::width).collect();
    let process = move |range: Range<usize>, buf: &mut Vec<Region>| {
        let mut odo = Odometer::at(n, range.start, |_| k);
        let load = |_: usize, lane: usize, scratch: &mut TapeScratch| {
            let mut vol = 1.0;
            for (d, &e) in odo.digits.iter().enumerate() {
                scratch.set_input(d, lane, cell_edges[e]);
                vol *= edge_widths[e];
            }
            odo.step(|_| k);
            vol
        };
        eval_cells(&tape, range, load, |_, region| buf.push(region));
    };
    PathJob::Sweep {
        total,
        cost,
        process: Box::new(process),
    }
}

/// Evaluates the cells `range` on `tape` in [`LANES`]-wide blocks: the
/// one lane loop of the uniform grid sweep and the refiner's rounds.
/// `load(i, lane, scratch)` writes cell `i`'s inputs into `lane` and
/// returns the cell's volume; it is called in ascending `i`. Every cell
/// the constraints do not exclude is emitted in ascending order as
/// `(i, region)`.
fn eval_cells(
    tape: &Tape,
    range: Range<usize>,
    mut load: impl FnMut(usize, usize, &mut TapeScratch) -> f64,
    mut emit: impl FnMut(usize, Region),
) {
    tape.note_cells(range.len() as u64);
    let mut scratch = tape.scratch();
    let mut vols = [0.0f64; LANES];
    let mut idx = range.start;
    while idx < range.end {
        let lanes = LANES.min(range.end - idx);
        for (lane, vol) in vols.iter_mut().enumerate().take(lanes) {
            *vol = load(idx + lane, lane, &mut scratch);
        }
        if tape.eval_block(&mut scratch, lanes) {
            for (lane, &vol) in vols.iter().enumerate().take(lanes) {
                if let Some(cell) = scratch.lane(lane) {
                    emit(idx + lane, cell_mass(vol, cell));
                }
            }
        }
        idx += lanes;
    }
}

/// The §6.3 region of a cell of volume `vol` from its fused bounds: the
/// result range, the lower mass `vol · w.lo` when every constraint holds
/// definitely (∀) and 0 otherwise, and the upper mass `vol · w.hi`. The
/// one place a cell's mass is formed, for either tape form.
fn cell_mass(vol: f64, cell: CellBounds) -> Region {
    let lo = if cell.definite {
        vol * cell.weight.lo()
    } else {
        0.0
    };
    (cell.value, lo, vol * cell.weight.hi())
}

/// The path's coarsest sound grid-semantics enclosure: one evaluation
/// of the whole sample box `[0,1]^n`. `None` means the path's
/// constraints definitely exclude the entire box, i.e. the path
/// contributes nothing. This is the anytime fallback for regions a
/// cancelled sweep never reached — every sub-cell's true contribution
/// is contained in its share of this region by inclusion monotonicity.
///
/// One cell needs no compiling, so this always runs the tree-walk form
/// (which counts no kernel tapes or cells).
pub fn coarse_path_enclosure(path: &SymPath) -> Option<Region> {
    let unit = vec![Interval::UNIT; path.n_samples];
    let tape = Tape::tree_walk(path);
    // The unit box has volume 1.0.
    tape.eval_one(&unit, &mut tape.scratch())
        .map(|cell| cell_mass(1.0, cell))
}

// --------------------------------------------------------------------
// Linear interval trace semantics (§6.4, Appendix E.1)
// --------------------------------------------------------------------

/// How the result value participates in the linear analysis.
enum ResultMode {
    /// Box the result as one of the chunked linear expressions; regions
    /// are emitted with their value range (histogram sinks).
    Boxed,
    /// Fold `result ∈ U` into the polytopes (`𝔓_lb`/`𝔓_ub` of §6.4):
    /// membership is decided by the volume computation itself.
    Query(Interval),
}

/// Volumes of one chunk combination: the lower end of `vol(q_lb)` and
/// the upper end of `vol(q_ub)`, given the exact-dimension cap, the
/// certified-volume budget and the chunk's volume scratch.
type ComboVolumes = fn(&HPolytope, &HPolytope, usize, usize, &mut VolumeScratch) -> (f64, f64);

/// [`ComboVolumes`] computing each distinct polytope once: when 𝔓_lb
/// and 𝔓_ub are the same row system bit for bit (every path whose
/// constants are points), one volume call serves both ends.
fn combo_volumes(
    q_lb: &HPolytope,
    q_ub: &HPolytope,
    exact_cap: usize,
    budget: usize,
    scratch: &mut VolumeScratch,
) -> (f64, f64) {
    if q_lb.bit_eq(q_ub) {
        return q_lb.volume_range_with(exact_cap, budget, scratch);
    }
    let (lo, _) = q_lb.volume_range_with(exact_cap, budget, scratch);
    let (_, hi) = q_ub.volume_range_with(exact_cap, budget, scratch);
    (lo, hi)
}

fn plan_linear(path: &SymPath, opts: PathBoundOptions, mode: ResultMode) -> PathJob<'_, Region> {
    plan_linear_with(path, opts, mode, combo_volumes)
}

fn plan_linear_with(
    path: &SymPath,
    opts: PathBoundOptions,
    mode: ResultMode,
    volumes: ComboVolumes,
) -> PathJob<'_, Region> {
    let n = path.n_samples;
    let nothing = || PathJob::Ready(Vec::new());

    // 𝔓_lb: constraints hold for *all* refinements of interval parts;
    // 𝔓_ub: for *some* refinement.
    let mut p_lb = HPolytope::unit_cube(n);
    let mut p_ub = HPolytope::unit_cube(n);
    for c in &path.constraints {
        let (lin, iv) = c.value.linear_form(n).expect("checked by caller");
        use gubpi_symbolic::CmpDir::*;
        match c.dir {
            // lin + iv ≤ 0
            LeZero => {
                if iv.hi().is_finite() {
                    p_lb.add_le_zero(&(&lin + &LinExpr::constant(n, iv.hi())));
                } else {
                    // Never definitely ≤ 0: empty lower region.
                    p_lb.add_constraint(vec![0.0; n], -1.0);
                }
                if iv.lo().is_finite() {
                    p_ub.add_le_zero(&(&lin + &LinExpr::constant(n, iv.lo())));
                }
                // iv.lo = −∞ ⇒ possibly ≤ 0 everywhere: no cut.
            }
            // lin + iv > 0 (closed to ≥ 0; boundary has measure zero)
            GtZero => {
                if iv.lo().is_finite() {
                    p_lb.add_ge_zero(&(&lin + &LinExpr::constant(n, iv.lo())));
                } else {
                    p_lb.add_constraint(vec![0.0; n], -1.0);
                }
                if iv.hi().is_finite() {
                    p_ub.add_ge_zero(&(&lin + &LinExpr::constant(n, iv.hi())));
                }
            }
        }
    }

    // Fold the query into the polytopes / decide how the result reports.
    let (res_lin, res_iv) = path.result.linear_form(n).expect("checked by caller");
    let mut result_boxed = false;
    let mut const_value_range = Interval::point(res_lin.constant_term()) + res_iv;
    let mut const_in_lo = true;
    let mut const_in_hi = true;
    match mode {
        ResultMode::Boxed => {
            result_boxed = !res_lin.is_constant();
        }
        ResultMode::Query(u) => {
            if res_lin.is_constant() {
                // Classify once: all traces share the value range.
                (const_in_lo, const_in_hi) = QueryFold::Filter(u).counts(const_value_range);
                if !const_in_hi {
                    return nothing();
                }
            } else {
                // V ⊆ U for the lower bound:
                //   lin + iv.hi ≤ u.hi  ∧  lin + iv.lo ≥ u.lo
                if u.hi().is_finite() {
                    if res_iv.hi().is_finite() {
                        p_lb.add_le_zero(&(&res_lin + &LinExpr::constant(n, res_iv.hi() - u.hi())));
                    } else {
                        p_lb.add_constraint(vec![0.0; n], -1.0);
                    }
                }
                if u.lo().is_finite() {
                    if res_iv.lo().is_finite() {
                        p_lb.add_ge_zero(&(&res_lin + &LinExpr::constant(n, res_iv.lo() - u.lo())));
                    } else {
                        p_lb.add_constraint(vec![0.0; n], -1.0);
                    }
                }
                // V ∩ U ≠ ∅ for the upper bound:
                //   lin + iv.lo ≤ u.hi  ∧  lin + iv.hi ≥ u.lo
                if u.hi().is_finite() && res_iv.lo().is_finite() {
                    p_ub.add_le_zero(&(&res_lin + &LinExpr::constant(n, res_iv.lo() - u.hi())));
                }
                if u.lo().is_finite() && res_iv.hi().is_finite() {
                    p_ub.add_ge_zero(&(&res_lin + &LinExpr::constant(n, res_iv.hi() - u.lo())));
                }
                // Report the full possible value range; the query fold
                // is Direct, so the range is never consulted.
                const_value_range = Interval::REAL;
            }
        }
    }
    if p_ub.is_empty() {
        return nothing();
    }

    // Boxed expressions: the result (when boxed) first, then the linear
    // parts of every score decomposition (Appendix E.1). Identical
    // expressions share one boxed slot.
    let mut boxed: Vec<LinExpr> = Vec::new();
    if result_boxed {
        boxed.push(res_lin.clone());
    }
    let decomps: Vec<_> = path
        .scores
        .iter()
        .map(|w| w.linear_decomposition(n))
        .collect();
    // Map each score part to either a boxed index or a fixed LP range:
    // `part_source[s][p] = Ok(boxed_idx) | Err(fixed_range)`.
    let mut part_source: Vec<Vec<Result<usize, Interval>>> = Vec::new();
    for d in &decomps {
        let mut row = Vec::new();
        for (lin, iv) in &d.parts {
            if let Some(k) = boxed.iter().position(|b| b == lin) {
                row.push(Ok(k));
            } else if boxed.len() < opts.max_boxed {
                boxed.push(lin.clone());
                row.push(Ok(boxed.len() - 1));
            } else {
                let base = p_ub.range_of(lin).unwrap_or(Interval::REAL);
                row.push(Err(base + *iv));
            }
        }
        part_source.push(row);
    }

    // Ranges of the boxed expressions over 𝔓_ub, split into chunks.
    // The per-expression chunk count honours the region budget exactly
    // like the grid does: `region_budget` is documented as the cap on
    // regions *per path*, and bounding it here also keeps the linear
    // combination count below `usize::MAX` — a raw `splits^boxed`
    // product could overflow the flat index space and silently skip
    // combinations, i.e. report unsound upper bounds.
    let per_expr_chunks = grid_splits(opts.splits, boxed.len(), opts.region_budget);
    let mut chunkings: Vec<Vec<Interval>> = Vec::new();
    for lin in &boxed {
        let range = match p_ub.range_of(lin) {
            Some(r) if r.is_finite() => r,
            _ => return nothing(),
        };
        if range.width() == 0.0 {
            chunkings.push(vec![range]);
        } else {
            chunkings.push(range.split(per_expr_chunks));
        }
    }

    let exact_cap = if opts.certified_volumes {
        0
    } else {
        opts.exact_dim_cap
    };

    // Score-decomposition skeletons as value tapes over their parts:
    // the combo loop below evaluates each skeleton once per combination,
    // and compiled, it allocates nothing per combination.
    let skel_tapes: Vec<Tape> = decomps
        .iter()
        .map(|d| {
            let skeleton = SymPath::of_value(d.parts.len(), d.skeleton.clone());
            tape_for(&skeleton, opts)
        })
        .collect();

    // Cartesian sweep over chunk combinations, addressed by a linear
    // mixed-radix index (expression 0 fastest) so the combination space
    // can be chunk-partitioned across workers; chunks are decoded by an
    // incremental odometer. Each combination's work is pure; chunk
    // buffers replayed in index order reproduce the sequential emit
    // sequence exactly. The product cannot overflow: every chunking has
    // ≤ per_expr_chunks entries, whose boxed-count power grid_splits
    // bounded by the region budget.
    let total: usize = chunkings.iter().map(Vec::len).product();
    // Per-combination cost estimate (seeds the adaptive chunk width):
    // cloning 𝔓_lb and 𝔓_ub, clipping both to the chunks, one LP
    // feasibility check and the volumes (one Lasserre run when the two
    // clipped polytopes coincide, two otherwise) all scale with the
    // dimension and constraint count. A pure function of the plan, like
    // the grid's tape cost.
    let cost = 64 * (n as u64 + 1) * (path.constraints.len() as u64 + boxed.len() as u64 + 1);
    let eval_range = move |range: Range<usize>, buf: &mut Vec<Region>| {
        let radix = |d: usize| chunkings[d].len();
        let mut odo = Odometer::at(chunkings.len(), range.start, radix);
        let mut chunks = vec![Interval::ZERO; chunkings.len()];
        let mut part_ranges: Vec<Interval> = Vec::new();
        let mut scratches: Vec<_> = skel_tapes.iter().map(Tape::scratch).collect();
        // Neighbouring combinations clip the same path polytope, so they
        // share faces: one volume scratch serves the whole chunk.
        let mut vol_scratch = VolumeScratch::default();
        for _ in range {
            for (ch, (chunking, &digit)) in chunks.iter_mut().zip(chunkings.iter().zip(&odo.digits))
            {
                *ch = chunking[digit];
            }
            odo.step(radix);

            // Clip both polytopes to the chunks.
            let mut q_lb = p_lb.clone();
            let mut q_ub = p_ub.clone();
            for (lin, ch) in boxed.iter().zip(&chunks) {
                // ch.lo ≤ lin ≤ ch.hi
                let upper = &(lin.clone()) + &LinExpr::constant(n, -ch.hi());
                let lower = &(lin.clone()) + &LinExpr::constant(n, -ch.lo());
                q_lb.add_le_zero(&upper);
                q_lb.add_ge_zero(&lower);
                q_ub.add_le_zero(&upper);
                q_ub.add_ge_zero(&lower);
            }

            // One LP feasibility check prunes most chunk combinations
            // (the boxed expressions co-vary, so the Cartesian grid is
            // sparse); q_lb ⊆ q_ub, so an empty q_ub kills both volumes.
            if q_ub.is_empty_with(&mut vol_scratch) {
                continue;
            }
            let (vol_lb, vol_ub) = volumes(
                &q_lb,
                &q_ub,
                exact_cap,
                opts.volume_budget,
                &mut vol_scratch,
            );

            if vol_ub > 0.0 || vol_lb > 0.0 {
                // Weight interval: product over scores of the skeleton
                // evaluated with each part pinned to its chunk (+
                // interval slack) or fixed LP range.
                let mut w = Interval::ONE;
                for (s, d) in decomps.iter().enumerate() {
                    part_ranges.clear();
                    part_ranges.extend(d.parts.iter().enumerate().map(|(pi, (_, iv))| {
                        match part_source[s][pi] {
                            Ok(bi) => chunks[bi] + *iv,
                            Err(fixed) => fixed,
                        }
                    }));
                    let factor = skel_tapes[s]
                        .eval_one(&part_ranges, &mut scratches[s])
                        .expect("a value tape has no checks")
                        .value;
                    w = w * factor.clamp_non_neg();
                }
                let value_range = if result_boxed {
                    chunks[0] + res_iv
                } else {
                    const_value_range
                };
                let lo_mass = if const_in_lo { vol_lb * w.lo() } else { 0.0 };
                let hi_mass = if const_in_hi { vol_ub * w.hi() } else { 0.0 };
                buf.push((value_range, lo_mass, hi_mass));
            }
        }
    };

    PathJob::Sweep {
        total,
        cost,
        process: Box::new(eval_range),
    }
}

// --------------------------------------------------------------------
// Gap-driven adaptive region refinement
// --------------------------------------------------------------------

/// Options for gap-driven adaptive refinement (kept separate from
/// [`PathBoundOptions`], which must stay float-free for `Eq`/`Hash`;
/// the analyzer folds these into its cache key via `f64::to_bits`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RefineOptions {
    /// Refine grid-destined paths adaptively instead of sweeping the
    /// full uniform grid. Off (`repro --no-refine`), every query is
    /// bit-identical to the uniform sweep.
    pub refine: bool,
    /// Stop refining once the summed (upper − lower) gap of all
    /// refined paths in a query drops to this value; `0.0` (the
    /// default) means "spend the whole cell budget" (`repro
    /// --gap-target` sets it).
    pub gap_target: f64,
    /// Maximum bisection depth below the seed grid; cells at this
    /// depth settle instead of re-entering the worklist.
    pub max_refine_depth: u32,
}

impl Default for RefineOptions {
    fn default() -> RefineOptions {
        RefineOptions {
            refine: true,
            gap_target: 0.0,
            max_refine_depth: 12,
        }
    }
}

/// A region's contribution to the query's (upper − lower) gap: the
/// region folded alone by [`QueryFold::apply`], so it counts exactly the
/// masses the bounds count. `NaN` (`∞ − ∞`) settles as `0.0` so an
/// all-⊤ path cannot wedge the worklist.
fn gap_score(fold: QueryFold, region: Region) -> f64 {
    let mut acc = (0.0, 0.0);
    fold.apply(&mut acc, region);
    let score = acc.1 - acc.0;
    if score.is_nan() {
        0.0
    } else {
        score
    }
}

/// A refinable cell on the worklist: its gap contribution, the
/// canonical sequence number that breaks score ties (assigned in
/// evaluation order, which is itself deterministic), its slot in the
/// refiner's cell arena and its bisection depth. The region triple the
/// cell contributes lives in the arena beside its box, so a leaf is a
/// 24-byte plain value: moving, selecting and sorting leaves touches no
/// heap and little memory.
struct Leaf {
    score: f64,
    seq: u64,
    slot: u32,
    depth: u32,
}

impl Leaf {
    /// The worklist's total priority order: score descending (via
    /// `f64::total_cmp`), then sequence number ascending.
    fn priority(a: &Leaf, b: &Leaf) -> std::cmp::Ordering {
        b.score.total_cmp(&a.score).then(a.seq.cmp(&b.seq))
    }
}

/// Gap-driven adaptive refinement of one grid-destined path (§6.3
/// semantics, adaptively subdivided).
///
/// Instead of sweeping the uniform `k^n` grid, the refiner seeds a
/// coarse grid, scores every evaluated cell by its gap contribution
/// (`gap_score`), and repeatedly bisects the widest dimension of the
/// worst cells until the query's gap target, the cell budget (the
/// **same** `k^n` the uniform sweep would have spent), or the maximum
/// depth is reached. Soundness: the two children of a bisection
/// partition the parent box exactly, and interval evaluation is
/// inclusion-monotone, so every round only tightens the path's bounds
/// — the refined result is always contained in the uniform sweep's.
///
/// # Cell arena
///
/// Every live cell (pending or on the worklist) is `n` consecutive
/// intervals in one flat arena, addressed by slot; beside it, a
/// per-slot table holds the region triple a worklist cell contributes.
/// The worklist itself holds 24-byte keys (score, sequence number,
/// slot, depth), so selecting from it moves little memory. A popped
/// cell is bisected in place along [`widest_dim`]: its slot becomes the
/// lower child and the upper child is copied into a freed slot (or
/// appended). Dead and settled cells return their slots to a free
/// list. Each round evaluates its pending slots straight from the arena
/// in lane blocks, through the uniform sweep's lane loop, so refinement
/// allocates nothing per cell.
///
/// # Who runs what
///
/// The caller's thread drives lockstep rounds and checks the gap target
/// between them. In a round each unfinished refiner is one pool task
/// (`run_each`), largest worklist first: the participant that runs it
/// selects the refiner's next batch (sort of the worklist, bisection,
/// arena writes), evaluates it in lane blocks and integrates the
/// result (scores, worklist pushes, settling, free slots). So a
/// refiner's cells stay in one core's cache from bookkeeping to
/// evaluation, and one refiner's bookkeeping overlaps another's
/// evaluation. The caller runs the largest refiner, whose batch is a
/// sweep the pool workers join once the other refiners are claimed;
/// every other refiner evaluates its batch alone. A round of fewer than
/// `ROUND_SPREAD_CELLS` worklist and pending cells runs every task on
/// the caller (the largest refiner's sweep may still use the pool):
/// there, waking a worker costs about what it would take over. A
/// refiner is touched by one participant at a time, and its state
/// depends only on its own inputs, so it is the same whichever
/// participant ran it; region streams are replayed in canonical index
/// order (the same `(path, region)` replay as the uniform sweep).
///
/// # Determinism
///
/// The priority order is total — score descending via
/// `f64::total_cmp`, then canonical sequence number ascending — so the
/// refinement tree, and therefore every reported bound, is
/// **bit-identical across thread counts and steal schedules**. Slot
/// numbers never reach the order, the scores or the folds. A selection
/// sorts the whole worklist and pops its front, and `integrate` appends
/// new cells in sequence order, so [`GridRefiner::gap`] sums the
/// worklist in that storage order: the last selection's remainder in
/// priority order, then the cells queued since in sequence order.
/// `finish` settles the worklist in sequence order.
pub struct GridRefiner<'a> {
    path: &'a SymPath,
    tape: Tape,
    fold: QueryFold,
    max_depth: u32,
    budget: usize,
    used: usize,
    settled: (f64, f64),
    settled_gap: f64,
    /// The cell arena: slot `s` is `cells[s * n..(s + 1) * n]`.
    cells: Vec<Interval>,
    /// The region triple slot `s` contributes while its cell is on the
    /// worklist (stale otherwise).
    regions: Vec<Region>,
    /// Arena slots no live cell holds.
    free: Vec<usize>,
    frontier: Vec<Leaf>,
    pending: Vec<usize>,
    pending_depth: Vec<u32>,
    next_seq: u64,
    splits: u64,
    done: bool,
    interrupted: bool,
}

impl<'a> GridRefiner<'a> {
    /// A refiner for one grid-destined path, or `None` when refinement
    /// is disabled, the path has no sample space, or the uniform grid
    /// is too coarse to subdivide (`k < 4`) — callers fall back to the
    /// uniform sweep in that case. The cell budget is exactly the
    /// uniform sweep's `k^n`, so adaptive and uniform runs at default
    /// options spend the same number of cell evaluations. `_seed` is
    /// ignored (see [`KernelSeed`]).
    pub fn new(
        path: &'a SymPath,
        fold: QueryFold,
        opts: PathBoundOptions,
        refine: &RefineOptions,
        _seed: Option<&KernelSeed>,
    ) -> Option<GridRefiner<'a>> {
        if !refine.refine || path.n_samples == 0 {
            return None;
        }
        let n = path.n_samples;
        let k = grid_splits(opts.splits, n, opts.region_budget);
        if k < 4 {
            return None;
        }
        let budget = k.pow(n as u32);
        // Seed coarsely — a quarter of the per-dimension resolution,
        // capped to keep high-dimensional seeds from eating the budget
        // — and leave the rest of the budget to adaptive bisection.
        let k0 = grid_splits((k / 4).clamp(2, 8), n, (budget / 4).max(1));
        let cell_edges: Vec<Interval> = Interval::UNIT.split(k0);
        let total = k0.pow(n as u32);
        let mut cells: Vec<Interval> = Vec::with_capacity(total * n);
        let mut odo = Odometer::at(n, 0, |_| k0);
        for _ in 0..total {
            cells.extend(odo.digits.iter().map(|&e| cell_edges[e]));
            odo.step(|_| k0);
        }
        Some(GridRefiner {
            path,
            tape: tape_for(path, opts),
            fold,
            max_depth: refine.max_refine_depth,
            budget,
            used: 0,
            settled: (0.0, 0.0),
            settled_gap: 0.0,
            cells,
            regions: vec![(Interval::UNIT, 0.0, 0.0); total],
            free: Vec::new(),
            frontier: Vec::new(),
            pending: (0..total).collect(),
            pending_depth: vec![0; total],
            next_seq: 0,
            splits: 0,
            done: false,
            interrupted: false,
        })
    }

    /// Moves the next batch of cells from the worklist into `pending`,
    /// returning whether this refiner has cells to evaluate this
    /// round. Pop count scales with the worklist (a quarter of it, at
    /// least 8) so the shape of the refinement tree is driven by the
    /// gap landscape; the remaining cell budget only truncates it,
    /// which keeps refinement trees at different budgets nested
    /// prefixes of each other.
    fn select_batch(&mut self) -> bool {
        if !self.pending.is_empty() {
            return true; // round 0: the seed grid is already pending
        }
        if self.done {
            return false;
        }
        let remaining = self.budget.saturating_sub(self.used);
        if remaining < 2 || self.frontier.is_empty() {
            self.done = true;
            return false;
        }
        self.frontier.sort_by(Leaf::priority);
        // `integrate` queues only cells with a positive score.
        debug_assert!(self.frontier.iter().all(|l| l.score > 0.0));
        let queued = self.frontier.len();
        let pops = queued.min(remaining / 2).min((queued / 4).max(8));
        let n = self.path.n_samples;
        for leaf in self.frontier.drain(..pops) {
            let slot = leaf.slot as usize;
            let at = slot * n;
            match widest_dim(&self.cells[at..at + n]) {
                Some(d) => {
                    self.splits += 1;
                    let (lower, upper) = self.cells[at + d].bisect();
                    self.cells[at + d] = lower;
                    let twin = match self.free.pop() {
                        Some(twin) => {
                            self.cells.copy_within(at..at + n, twin * n);
                            twin
                        }
                        None => {
                            self.cells.extend_from_within(at..at + n);
                            self.regions.push(self.regions[slot]);
                            self.regions.len() - 1
                        }
                    };
                    self.cells[twin * n + d] = upper;
                    self.pending.extend([slot, twin]);
                    self.pending_depth.extend([leaf.depth + 1; 2]);
                }
                None => {
                    // Degenerate (point) box: nothing left to split.
                    self.fold.apply(&mut self.settled, self.regions[slot]);
                    self.settled_gap += leaf.score;
                    self.free.push(slot);
                }
            }
        }
        !self.pending.is_empty()
    }

    /// The pending batch as a stealable region sweep. Cells are tagged
    /// with their batch index so the (already order-replayed) stream
    /// can be matched back to `pending`; dead cells (excluded by a
    /// constraint ∃-test) are simply absent and settle with zero
    /// contribution.
    fn round_job(&self) -> PathJob<'_, (usize, Region)> {
        if self.pending.is_empty() {
            return PathJob::Ready(Vec::new());
        }
        let (cells, slots, tape) = (&self.cells, &self.pending, &self.tape);
        let n = self.path.n_samples;
        PathJob::Sweep {
            total: slots.len(),
            cost: tape.cost(),
            process: Box::new(move |range: Range<usize>, buf| {
                let load = |i: usize, lane: usize, scratch: &mut TapeScratch| {
                    let mut vol = 1.0;
                    for (d, &iv) in cells[slots[i] * n..][..n].iter().enumerate() {
                        scratch.set_input(d, lane, iv);
                        vol *= iv.width();
                    }
                    vol
                };
                eval_cells(tape, range, load, |i, region| buf.push((i, region)));
            }),
        }
    }

    /// Folds one round's replayed region stream back into the refiner
    /// after the sweep evaluated the prefix `pending[..done]` (all of
    /// it unless the round was cancelled): refinable cells (positive
    /// score, below max depth) join the worklist, everything else
    /// settles into the accumulated bounds and frees its slot. An
    /// absent index below `done` really is a dead cell and contributes
    /// nothing. Every unevaluated cell settles conservatively as its
    /// volume-share of the whole-box enclosure, which contains the
    /// cell's true contribution by inclusion monotonicity — so the
    /// final bounds stay sound, merely coarser — and marks the refiner
    /// interrupted; `integrate(&[], 0)` settles a whole batch that way.
    fn integrate(&mut self, out: &[(usize, Region)], done: usize) {
        let total = self.pending.len();
        let done = done.min(total);
        self.used += done;
        // The stream is in ascending index order: the pending cells
        // between two emitted indices are dead.
        let mut next = 0;
        for &(idx, region) in out {
            self.free.extend_from_slice(&self.pending[next..idx]);
            next = idx + 1;
            let slot = self.pending[idx];
            let score = gap_score(self.fold, region);
            let depth = self.pending_depth[idx];
            if score > 0.0 && depth < self.max_depth {
                self.regions[slot] = region;
                self.frontier.push(Leaf {
                    score,
                    seq: self.next_seq + idx as u64,
                    slot: u32::try_from(slot).expect("arena slots fit in u32"),
                    depth,
                });
            } else {
                self.fold.apply(&mut self.settled, region);
                self.settled_gap += score;
                self.free.push(slot);
            }
        }
        self.free.extend_from_slice(&self.pending[next..done]);
        if done < total {
            self.interrupted = true;
            if let Some((v, _, whole_hi)) = coarse_path_enclosure(self.path) {
                let n = self.path.n_samples;
                for &slot in &self.pending[done..] {
                    // `BoxN::volume`'s product, in dimension order.
                    let cell = &self.cells[slot * n..(slot + 1) * n];
                    let volume: f64 = cell.iter().map(Interval::width).product();
                    let mass = volume * whole_hi;
                    // 0 · ∞ for a measure-zero cell: its true mass is 0.
                    let region = (v, 0.0, if mass.is_nan() { 0.0 } else { mass });
                    self.fold.apply(&mut self.settled, region);
                    self.settled_gap += gap_score(self.fold, region);
                }
            }
            self.free.extend_from_slice(&self.pending[done..]);
        }
        self.next_seq += total as u64;
        self.pending.clear();
        self.pending_depth.clear();
    }

    /// Whether the refiner still has work it would schedule: a pending
    /// batch, or remaining budget plus a (positive-gap) worklist. Used
    /// to mark refiners degraded when cancellation lands between
    /// rounds.
    fn would_refine(&self) -> bool {
        if !self.pending.is_empty() {
            return true;
        }
        if self.done {
            return false;
        }
        self.budget.saturating_sub(self.used) >= 2 && !self.frontier.is_empty()
    }

    /// Whether cancellation cut this refiner short of the refinement it
    /// would otherwise have performed (its bounds are coarser than the
    /// deterministic uncancelled result, but still sound).
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// The refiner's full cell budget (the uniform sweep's `k^n`).
    pub fn cell_budget(&self) -> usize {
        self.budget
    }

    /// The path's current (upper − lower) gap: settled cells plus the
    /// still-refinable worklist.
    pub fn gap(&self) -> f64 {
        self.frontier
            .iter()
            .fold(self.settled_gap, |gap, leaf| gap + leaf.score)
    }

    /// Cell evaluations spent so far (≤ the uniform sweep's `k^n`).
    pub fn cells_used(&self) -> usize {
        self.used
    }

    /// Cells the refiner bisected so far.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Settles the remaining worklist (in canonical sequence order)
    /// and returns the path's final `(lo, hi)` bounds.
    fn finish(&mut self) -> (f64, f64) {
        debug_assert!(self.pending.is_empty(), "every batch is integrated");
        self.frontier.sort_by_key(|leaf| leaf.seq);
        for leaf in self.frontier.drain(..) {
            self.fold
                .apply(&mut self.settled, self.regions[leaf.slot as usize]);
            self.settled_gap += leaf.score;
        }
        self.settled
    }
}

/// Drives a set of per-path [`GridRefiner`]s in lockstep rounds on the
/// worker pool and returns each path's final `(lo, hi)` bounds (in
/// refiner order); [`run_adaptive_refinement_cancellable`] without a
/// token.
pub fn run_adaptive_refinement(
    pool: &WorkerPool,
    width: usize,
    refiners: &mut [GridRefiner<'_>],
    gap_target: f64,
) -> Vec<(f64, f64)> {
    run_adaptive_refinement_cancellable(pool, width, refiners, gap_target, None)
}

/// Drives a set of per-path [`GridRefiner`]s in lockstep rounds on the
/// worker pool and returns each path's final `(lo, hi)` bounds (in
/// refiner order).
///
/// Each round runs every refiner's selection, evaluation and
/// integration as one pool task (see [`GridRefiner`], "Who runs
/// what"); the largest refiner's batch is a [`run_jobs_cancellable`]
/// sweep, so workers **steal child-cell chunks from the dominant path**
/// once done with the others. `gap_target > 0` stops refinement early
/// once the summed gap across all refiners drops below it (the budget
/// and depth limits always apply). Rounds, splits and the final gap
/// are recorded on the pool ([`gubpi_pool::PoolStats`]).
///
/// `cancel` is polled at every round boundary and inside each round's
/// sweeps (at chunk boundaries). On cancellation the current round's
/// evaluated prefix integrates normally, every unevaluated pending cell
/// (the whole seed grid, when the token fired before the first round)
/// settles as its share of the path's whole-box enclosure, and
/// still-refinable worklists settle as-is — the returned bounds are
/// always **sound**, just coarser than the uncancelled run; affected
/// refiners report [`GridRefiner::interrupted`]. With `None` or an
/// uncancelled token the result is bit-identical.
pub fn run_adaptive_refinement_cancellable(
    pool: &WorkerPool,
    width: usize,
    refiners: &mut [GridRefiner<'_>],
    gap_target: f64,
    cancel: Option<&CancelToken>,
) -> Vec<(f64, f64)> {
    let mut rounds: u64 = 0;
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            for r in refiners.iter_mut() {
                if r.would_refine() {
                    r.interrupted = true;
                }
                // A batch no round evaluated (the seed grid, when the
                // token fired before round 0) settles as its cells'
                // shares of the whole-box enclosure.
                r.integrate(&[], 0);
            }
            break;
        }
        // The gap target is checked after each round (before round 0
        // nothing has been scored yet).
        if rounds > 0 && gap_target > 0.0 {
            let total: f64 = refiners.iter().map(GridRefiner::gap).sum();
            if total <= gap_target {
                break;
            }
        }
        if !round(pool, width, refiners, cancel) {
            break;
        }
        rounds += 1;
    }
    let splits: u64 = refiners.iter().map(GridRefiner::splits).sum();
    pool.note_refinement(rounds, splits);
    refiners.iter_mut().map(GridRefiner::finish).collect()
}

/// The fewest worklist plus pending cells in a round at which `round`
/// spreads its refiners over the pool. Below it every refiner runs on
/// the caller: on grid-refine (2 vCPUs) a round of under 1,024 cells
/// took as long or up to twice as long spread, while spread rounds of
/// over 4,096 cells took 10–40% less.
const ROUND_SPREAD_CELLS: usize = 1024;

/// One round of every unfinished refiner: it selects its next batch,
/// evaluates it and integrates the result. Returns whether any refiner
/// evaluated a batch.
///
/// Each refiner is one `run_each` task, largest worklist first; the
/// caller runs the largest one, and its batch is a sweep that the pool
/// workers join once done with the other refiners. A round of fewer
/// than [`ROUND_SPREAD_CELLS`] cells runs every task on the caller
/// (the largest one's sweep may still use the pool). Each refiner's
/// state changes exactly as in a sequential loop, whichever participant
/// runs it.
fn round(
    pool: &WorkerPool,
    width: usize,
    refiners: &mut [GridRefiner<'_>],
    cancel: Option<&CancelToken>,
) -> bool {
    let mut tasks: Vec<(&mut GridRefiner<'_>, bool, usize)> = refiners
        .iter_mut()
        .filter(|r| !r.done)
        .map(|r| (r, false, 1))
        .collect();
    let size = |r: &GridRefiner<'_>| r.frontier.len() + r.pending.len();
    tasks.sort_by_key(|(r, ..)| std::cmp::Reverse(size(r)));
    if let Some(largest) = tasks.first_mut() {
        largest.2 = width;
    }
    let cells: usize = tasks.iter().map(|(r, ..)| size(r)).sum();
    let spread = if cells < ROUND_SPREAD_CELLS { 1 } else { width };
    run_each(pool, spread, &mut tasks, |(r, busy, sweep_width)| {
        *busy = r.select_batch();
        if *busy {
            let mut out = Vec::new();
            let progress = run_jobs_cancellable(
                pool,
                *sweep_width,
                vec![r.round_job()],
                cancel,
                |_, item| out.push(item),
            );
            r.integrate(&out, progress[0].done);
        }
    });
    tasks.iter().any(|t| t.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gubpi_interval::BoxN;
    use gubpi_lang::{infer, parse};
    use gubpi_symbolic::{symbolic_paths, SymExecOptions, TailEnclosure, TailPrefix};
    use gubpi_types::infer_interval_types;

    fn paths(src: &str) -> Vec<SymPath> {
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        symbolic_paths(&p, &typing, SymExecOptions::default())
    }

    fn query(src: &str, u: Interval, opts: PathBoundOptions) -> (f64, f64) {
        let mut lo = 0.0;
        let mut hi = 0.0;
        for p in paths(src) {
            let (l, h) = bound_path_query(&p, u, opts, Threads::Off);
            lo += l;
            hi += h;
        }
        (lo, hi)
    }

    #[test]
    fn uniform_probability_is_exact_with_linear_method() {
        let (lo, hi) = query(
            "sample",
            Interval::new(0.0, 0.5),
            PathBoundOptions::default(),
        );
        assert!((lo - 0.5).abs() < 1e-9, "lo={lo}");
        assert!((hi - 0.5).abs() < 1e-9, "hi={hi}");
    }

    #[test]
    fn branch_probabilities_are_polytope_volumes() {
        // P(α₀ ≤ 0.3 branch) = 0.3 exactly.
        let (lo, hi) = query(
            "if sample <= 0.3 then 1 else 0",
            Interval::new(0.5, 1.5),
            PathBoundOptions::default(),
        );
        assert!((lo - 0.3).abs() < 1e-9);
        assert!((hi - 0.3).abs() < 1e-9);
    }

    #[test]
    fn sum_of_uniforms_crosses_half() {
        // P(α₀ + α₁ ≤ 0.75) = 0.75²/2 = 0.28125, exact by Lasserre.
        let (lo, hi) = query(
            "if sample + sample <= 0.75 then 1 else 0",
            Interval::new(0.5, 1.5),
            PathBoundOptions::default(),
        );
        assert!((lo - 0.28125).abs() < 1e-9, "lo={lo}");
        assert!((hi - 0.28125).abs() < 1e-9, "hi={hi}");
    }

    #[test]
    fn linear_score_bounds_converge() {
        // ⟦score(α₀); α₀⟧([0,1]) = ∫₀¹ x dx = 1/2.
        for (splits, tol) in [(4usize, 0.26), (32, 0.04)] {
            let opts = PathBoundOptions {
                splits,
                ..Default::default()
            };
            let (lo, hi) = query("let x = sample in score(x); x", Interval::UNIT, opts);
            assert!(lo <= 0.5 && 0.5 <= hi, "[{lo}, {hi}]");
            assert!(hi - lo <= tol, "splits={splits}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn nonlinear_paths_fall_back_to_grid() {
        // result α₀·α₁ is non-linear; ⟦P⟧([0, 0.25]) with no scores is
        // P(xy ≤ 0.25) = 0.25(1 + ln 4) ≈ 0.5966.
        let src = "let x = sample in let y = sample in
                   if x * y <= 0.25 then 1 else 0";
        let p = &paths(src)[..];
        assert!(p.iter().any(|q| !linear_applicable(q)));
        let opts = PathBoundOptions {
            splits: 64,
            ..Default::default()
        };
        let fold = QueryFold::Filter(Interval::new(0.5, 1.5));
        let mut acc = (0.0, 0.0);
        for q in p {
            bound_path(q, opts, Method::Auto, Threads::Off, |r| {
                fold.apply(&mut acc, r)
            });
        }
        let (lo, hi) = acc;
        let truth = 0.25 * (1.0 + 4.0f64.ln());
        assert!(lo <= truth && truth <= hi);
        assert!(hi - lo < 0.1, "[{lo}, {hi}]");
    }

    #[test]
    fn observe_reweights_mass() {
        // Z = ∫₀¹ pdf_N(0.5, 1)(x) dx; compare against erf ground truth.
        let src = "observe sample from normal(0.5, 1); 1";
        let opts = PathBoundOptions {
            splits: 64,
            ..Default::default()
        };
        let (lo, hi) = query(src, Interval::REAL, opts);
        use gubpi_dist::ContinuousDist;
        let n = gubpi_dist::Normal::new(0.5, 1.0);
        let truth = n.cdf(1.0) - n.cdf(0.0);
        assert!(lo <= truth && truth <= hi, "truth={truth} ∉ [{lo}, {hi}]");
        assert!(hi - lo < 0.05);
    }

    #[test]
    fn certified_volumes_also_sandwich() {
        let opts = PathBoundOptions {
            splits: 8,
            certified_volumes: true,
            volume_budget: 2_000,
            ..Default::default()
        };
        let (lo, hi) = query(
            "if sample + sample <= 0.75 then 1 else 0",
            Interval::new(0.5, 1.5),
            opts,
        );
        assert!(lo <= 0.28125 && 0.28125 <= hi, "[{lo}, {hi}]");
        assert!(hi - lo < 0.1);
    }

    #[test]
    fn grid_splits_is_exact_at_the_budget_boundary() {
        // k^n exactly equal to the budget must be kept ...
        assert_eq!(grid_splits(10, 2, 100), 10);
        assert_eq!(grid_splits(7, 3, 343), 7);
        assert_eq!(grid_splits(32, 1, 32), 32);
        // ... and one below the boundary must drop k.
        assert_eq!(grid_splits(10, 2, 99), 9);
        assert_eq!(grid_splits(7, 3, 342), 6);
        assert_eq!(grid_splits(32, 1, 31), 31);
        // The budget only ever *reduces* the requested splits.
        assert_eq!(grid_splits(4, 2, 1_000_000), 4);
        // k ≥ 1 for every n, even when k = 1 still overshoots the budget.
        assert_eq!(grid_splits(1, 5, 1), 1);
        assert_eq!(grid_splits(0, 3, 0), 1);
        assert_eq!(grid_splits(1000, 64, 1), 1);
        // Powers beyond u128 saturate instead of wrapping.
        assert_eq!(grid_splits(2, 200, usize::MAX), 1);
        // Near the 2^53 f64-exactness cliff the integer check stays
        // exact: 94906266² = 9007199326062756 > 2^53, and its f64
        // rounding hides the difference from a one-off budget.
        let k = 94_906_266usize;
        assert_eq!(grid_splits(k, 2, k * k), k);
        assert_eq!(grid_splits(k, 2, k * k - 1), k - 1);
    }

    #[test]
    fn grid_splits_invariants_hold_for_every_n() {
        for n in 1..=12usize {
            for budget in [1usize, 2, 63, 64, 65, 4095, 4096, 100_000] {
                let k = grid_splits(32, n, budget);
                assert!(k >= 1, "n={n} budget={budget}");
                if k > 1 {
                    let pow = (k as u128).checked_pow(n as u32).expect("small");
                    assert!(pow <= budget as u128, "n={n} budget={budget} k={k}");
                    // Maximality: k+1 (when allowed by splits) overshoots.
                    if k < 32 {
                        let next = ((k + 1) as u128).saturating_pow(n as u32);
                        assert!(next > budget as u128, "n={n} budget={budget} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn region_parallel_grid_is_bit_identical() {
        // Non-linear path: 3-sample grid, 8³ = 512 cells.
        let src = "let x = sample in let y = sample in
                   if x * y <= 0.25 then sample else 2";
        let opts = PathBoundOptions {
            splits: 8,
            ..Default::default()
        };
        for p in paths(src).iter().filter(|p| !linear_applicable(p)) {
            let seq = regions(p, opts, Threads::Off);
            for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Fixed(16)] {
                assert_same_regions(&seq, &regions(p, opts, threads), &format!("{threads:?}"));
            }
        }
    }

    #[test]
    fn huge_split_requests_stay_within_the_region_budget() {
        // Regression: splits^boxed used to be computed as a raw usize
        // product, so absurd-but-reachable options (splits = 2^16 with
        // two boxed expressions = 2^32 combos; worse with more) could
        // overflow the flat index space and silently skip combinations —
        // unsound upper bounds. The budget now caps the chunk count, so
        // the sweep stays finite and the bounds stay sound.
        let src = "let x = sample in let y = sample in score(x + y); score(2 - x); x + y";
        let opts = PathBoundOptions {
            splits: 1 << 16,
            region_budget: 4_096,
            ..Default::default()
        };
        // ⟦P⟧([0, 1]) = ∫∫_{x+y ≤ 1} (x+y)(2−x) over the unit square plus
        // the [1, 2] part clipped to U = [0, 1]: just require soundness
        // via a Monte-Carlo-free sanity envelope and finite runtime.
        let (lo, hi) = query(src, Interval::new(0.0, 2.0), opts);
        // Total mass: ∫₀¹∫₀¹ (x+y)(2−x) dx dy = 4/3 − 1/6 − ... compute:
        // ∫(x+y)(2−x) = ∫ 2x − x² + 2y − xy dx over [0,1] = 1 − 1/3 + 2y − y/2
        // ⇒ ∫₀¹ (2/3 + 3y/2) dy = 2/3 + 3/4 = 17/12 ≈ 1.41667.
        let truth = 17.0 / 12.0;
        assert!(
            lo <= truth + 1e-9 && truth <= hi + 1e-9,
            "truth {truth} outside [{lo}, {hi}]"
        );
        assert!(hi - lo < 0.5, "budgeted chunks must stay informative");
    }

    #[test]
    fn region_parallel_linear_is_bit_identical() {
        // Linear path with two boxed score expressions: splits² combos.
        let src = "let x = sample in let y = sample in
                   score(x + y); score(2 - x); x + y";
        let opts = PathBoundOptions {
            splits: 16,
            ..Default::default()
        };
        for p in &paths(src) {
            assert!(linear_applicable(p));
            let seq = bound_path_query(p, Interval::UNIT, opts, Threads::Off);
            for threads in [Threads::Fixed(2), Threads::Fixed(4)] {
                let par = bound_path_query(p, Interval::UNIT, opts, threads);
                assert_eq!(seq.0.to_bits(), par.0.to_bits());
                assert_eq!(seq.1.to_bits(), par.1.to_bits());
            }
        }
    }

    /// A three-sample linear path: constraints `α₀ + α₁ + k − 1 ≤ 0`
    /// and `α₁ − α₂ + k > 0`, score `α₀ + α₁`, result `α₀ + α₂`.
    fn linear_path_with_constant(k: SymVal) -> SymPath {
        use gubpi_lang::PrimOp::{Add, Sub};
        let s = |i| Arc::new(SymVal::Sample(i));
        let k = Arc::new(k);
        let sum01 = SymVal::prim(Add, vec![s(0), s(1)]);
        SymPath {
            result: SymVal::prim(Add, vec![s(0), s(2)]),
            n_samples: 3,
            constraints: vec![
                gubpi_symbolic::SymConstraint {
                    value: SymVal::prim(
                        Sub,
                        vec![
                            SymVal::prim(Add, vec![sum01.clone(), k.clone()]),
                            Arc::new(SymVal::Const(1.0)),
                        ],
                    ),
                    dir: gubpi_symbolic::CmpDir::LeZero,
                },
                gubpi_symbolic::SymConstraint {
                    value: SymVal::prim(Add, vec![SymVal::prim(Sub, vec![s(1), s(2)]), k]),
                    dir: gubpi_symbolic::CmpDir::GtZero,
                },
            ],
            scores: vec![sum01],
            truncated: false,
            budget_truncated: false,
            tail: None,
        }
    }

    /// Two one-shot volume calls, each on a fresh scratch.
    fn two_volume_calls(
        q_lb: &HPolytope,
        q_ub: &HPolytope,
        cap: usize,
        budget: usize,
        _: &mut VolumeScratch,
    ) -> (f64, f64) {
        (
            q_lb.volume_range(cap, budget).0,
            q_ub.volume_range(cap, budget).1,
        )
    }

    fn two_calls_on_equal(
        q_lb: &HPolytope,
        q_ub: &HPolytope,
        cap: usize,
        budget: usize,
        scratch: &mut VolumeScratch,
    ) -> (f64, f64) {
        assert!(q_lb.bit_eq(q_ub), "point constants give one polytope");
        two_volume_calls(q_lb, q_ub, cap, budget, scratch)
    }

    fn two_calls_on_distinct(
        q_lb: &HPolytope,
        q_ub: &HPolytope,
        cap: usize,
        budget: usize,
        scratch: &mut VolumeScratch,
    ) -> (f64, f64) {
        assert!(
            !q_lb.bit_eq(q_ub),
            "interval constants split 𝔓_lb from 𝔓_ub"
        );
        two_volume_calls(q_lb, q_ub, cap, budget, scratch)
    }

    /// The region stream [`bound_path`] emits for one path.
    fn regions(p: &SymPath, opts: PathBoundOptions, threads: Threads) -> Vec<Region> {
        let mut out = Vec::new();
        bound_path(p, opts, Method::Auto, threads, |r| out.push(r));
        out
    }

    /// Asserts two region streams are the same, bit for bit.
    fn assert_same_regions(a: &[Region], b: &[Region], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0.lo().to_bits(), y.0.lo().to_bits(), "{ctx}: value range");
            assert_eq!(x.0.hi().to_bits(), y.0.hi().to_bits(), "{ctx}: value range");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "{ctx}: lower mass bits");
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "{ctx}: upper mass bits");
        }
    }

    fn region_stream(job: PathJob<'_, Region>) -> Vec<Region> {
        match job {
            PathJob::Ready(items) => items,
            PathJob::Sweep { total, process, .. } => {
                let mut buf = Vec::new();
                process(0..total, &mut buf);
                buf
            }
        }
    }

    /// One volume call per combination when 𝔓_lb and 𝔓_ub coincide, on
    /// the volume scratch the whole sweep shares, emits exactly the
    /// region stream of two separate calls on fresh scratches, in both
    /// result modes, for point constants (deduplicated) and interval
    /// constants (two calls either way).
    #[test]
    fn deduplicated_volumes_match_two_volume_calls() {
        let opts = PathBoundOptions {
            splits: 4,
            ..Default::default()
        };
        let cases: [(SymVal, ComboVolumes); 2] = [
            (SymVal::Const(0.25), two_calls_on_equal),
            (
                SymVal::Interval(Interval::new(0.2, 0.3)),
                two_calls_on_distinct,
            ),
        ];
        for (k, oracle) in cases {
            let path = linear_path_with_constant(k);
            assert!(linear_applicable(&path));
            for mode in [
                || ResultMode::Boxed,
                || ResultMode::Query(Interval::new(0.25, 1.0)),
            ] {
                let deduped = region_stream(plan_linear(&path, opts, mode()));
                let two_calls = region_stream(plan_linear_with(&path, opts, mode(), oracle));
                assert!(!deduped.is_empty());
                assert_same_regions(&deduped, &two_calls, "one vs two volume calls");
            }
        }
    }

    #[test]
    fn sampleless_paths_work() {
        let (lo, hi) = query(
            "score(0.25); 2",
            Interval::new(1.5, 2.5),
            PathBoundOptions::default(),
        );
        assert!((lo - 0.25).abs() < 1e-12 && (hi - 0.25).abs() < 1e-12);
    }

    /// The compiled kernel and the tapes' tree-walk form must emit **the
    /// same region stream, bit for bit** — same regions, same order, same
    /// masses — for every plan shape (grid, linear with its score
    /// skeletons, sampleless) and every thread count.
    #[test]
    fn kernel_and_interpreter_emit_identical_region_streams() {
        let sources = [
            // Non-linear: §6.3 grid.
            "let x = sample in let y = sample in
             if x * y <= 0.25 then sample else 2",
            // Linear with two boxed score expressions: §6.4 chunks.
            "let x = sample in let y = sample in score(x + y); score(2 - x); x + y",
            // Sampleless.
            "score(0.25); 2",
            // Mixed constraints + pdf scores.
            "let x = sample in observe 0.4 from normal(x, 0.25);
             if x <= 0.5 then x else 1 - x",
        ];
        for src in sources {
            for p in &paths(src) {
                let kernel_opts = PathBoundOptions {
                    splits: 8,
                    use_kernel: true,
                    ..Default::default()
                };
                let interp_opts = PathBoundOptions {
                    use_kernel: false,
                    ..kernel_opts
                };
                let with_kernel = regions(p, kernel_opts, Threads::Off);
                let with_interp = regions(p, interp_opts, Threads::Off);
                assert_same_regions(&with_kernel, &with_interp, src);
                // And through the threaded query entry point.
                let u = Interval::new(0.0, 1.0);
                let kq = bound_path_query(p, u, kernel_opts, Threads::Fixed(4));
                let iq = bound_path_query(p, u, interp_opts, Threads::Off);
                assert_eq!(kq.0.to_bits(), iq.0.to_bits(), "{src}");
                assert_eq!(kq.1.to_bits(), iq.1.to_bits(), "{src}");
            }
        }
    }

    /// The §6.3 contribution of one grid cell written out without tapes:
    /// the four tree walks on a `BoxN` cell, `BoxN::volume` and the mass
    /// formula. The oracle for the uniform grid sweep, whose cell
    /// volumes are edge-width products and whose cells go through
    /// `cell_mass` and a tape.
    fn four_walk_region(path: &SymPath, cell: &BoxN) -> Option<Region> {
        if !path.constraints_on_box(cell, false) {
            return None; // definitely outside
        }
        let vol = cell.volume();
        let w = path.weight_range_over_box(cell);
        let lo = if path.constraints_on_box(cell, true) {
            vol * w.lo()
        } else {
            0.0
        };
        Some((path.result.range_over_box(cell), lo, vol * w.hi()))
    }

    /// The uniform grid sweep emits the four-walk oracle's region stream
    /// bit for bit — cells in index order, dimension 0 fastest — with
    /// either tape form, sequentially and on four workers.
    #[test]
    fn uniform_grid_matches_the_four_walk_oracle() {
        let sources = [
            "let x = sample in let y = sample in
             if x * y <= 0.25 then sample else 2",
            "let x = sample in let y = sample in score(x + y); score(2 - x); x + y",
            "score(0.25); 2",
            "let x = sample in observe 0.4 from normal(x, 0.25);
             if x <= 0.5 then x else 1 - x",
        ];
        let opts = PathBoundOptions {
            splits: 8,
            ..Default::default()
        };
        for src in sources {
            for p in &paths(src) {
                let n = p.n_samples;
                let k = grid_splits(opts.splits, n, opts.region_budget);
                let edges = Interval::UNIT.split(k);
                let want: Vec<Region> = (0..k.pow(n as u32))
                    .filter_map(|i| {
                        let cell: BoxN = (0..n).map(|d| edges[i / k.pow(d as u32) % k]).collect();
                        four_walk_region(p, &cell)
                    })
                    .collect();
                assert!(!want.is_empty(), "{src}");
                for use_kernel in [true, false] {
                    for threads in [Threads::Off, Threads::Fixed(4)] {
                        let o = PathBoundOptions { use_kernel, ..opts };
                        let mut got = Vec::new();
                        bound_path(p, o, Method::Grid, threads, |r| got.push(r));
                        let ctx = format!("{src}: use_kernel {use_kernel}, {threads:?}");
                        assert_same_regions(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn defaults_are_constants_with_every_engine_feature_on() {
        let b = PathBoundOptions::default();
        assert!(b.use_kernel && b.use_tail);
        let r = RefineOptions::default();
        assert!(r.refine);
        assert_eq!(r.gap_target.to_bits(), 0.0f64.to_bits());
        assert_eq!(r.max_refine_depth, 12);
    }

    /// Re-runs `defaults_are_constants_with_every_engine_feature_on` in a
    /// child test process with `var` set to each value that used to
    /// switch an engine feature off, so a `Default` that read the
    /// environment again would fail here.
    fn defaults_ignore_env_values(var: &str) {
        let exe = std::env::current_exe().expect("test binary path");
        for value in ["1", "true", "yes"] {
            let out = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "pathbounds::tests::defaults_are_constants_with_every_engine_feature_on",
                    "--test-threads=1",
                ])
                .env(var, value)
                .output()
                .expect("spawn test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{var}={value}: {stdout}");
            assert!(stdout.contains("1 passed"), "{var}={value}: {stdout}");
        }
    }

    #[test]
    fn no_kernel_env_values_parse() {
        defaults_ignore_env_values("GUBPI_NO_KERNEL");
    }

    #[test]
    fn no_tail_env_values_parse() {
        defaults_ignore_env_values("GUBPI_NO_TAIL");
    }

    /// A minimal sampleless ⊤ path: the `[0, ∞]` placeholder is its
    /// only score, exactly as the executor emits it.
    fn top_path_with(tail: Option<TailEnclosure>) -> SymPath {
        SymPath {
            result: Arc::new(SymVal::Interval(Interval::REAL)),
            n_samples: 0,
            constraints: vec![],
            scores: vec![Arc::new(SymVal::Interval(Interval::NON_NEG))],
            truncated: true,
            budget_truncated: true,
            tail,
        }
    }

    #[test]
    fn tail_substitution_tightens_the_placeholder_score() {
        let tail = TailEnclosure {
            unfoldings_explored: 5,
            per_step_weight: Interval::new(0.0, 0.5),
            continuation_weight: Interval::new(0.0, 1.0),
            prefix: None,
        };
        let path = top_path_with(Some(tail));
        let opts = PathBoundOptions::default();
        assert!(opts.use_tail, "tails are on by default");
        let sub = tail_substituted(&path, &opts).expect("c_hi = 0.5 < 1 must substitute");
        // x_hi/(1 − c_hi) = 1/0.5 = 2, up to outward rounding.
        let SymVal::Interval(iv) = **sub.scores.last().unwrap() else {
            panic!("substituted placeholder stays an interval literal");
        };
        assert_eq!(iv.lo(), 0.0);
        assert!(iv.hi() >= 2.0 && iv.hi() < 2.0 + 1e-12, "hi={}", iv.hi());
        // The bound itself: upper mass goes from +∞ to the remainder.
        let no_tail = PathBoundOptions {
            use_tail: false,
            ..opts
        };
        let (lo_off, hi_off) = bound_path_query(&path, Interval::REAL, no_tail, Threads::Off);
        let (lo_on, hi_on) = bound_path_query(&path, Interval::REAL, opts, Threads::Off);
        assert_eq!(hi_off, f64::INFINITY);
        assert!(hi_on.is_finite() && hi_on <= 2.0 + 1e-9, "hi_on={hi_on}");
        assert_eq!(lo_off.to_bits(), lo_on.to_bits(), "lower bound untouched");
    }

    #[test]
    fn score_free_loops_at_c_equal_one_keep_the_bare_top() {
        // `c == 1` without a ranking certificate must fall back to ⊤ —
        // never divide by `1 − c_hi = 0`.
        let boundary = TailEnclosure {
            unfoldings_explored: 3,
            per_step_weight: Interval::new(0.0, 1.0),
            continuation_weight: Interval::new(0.0, 1.0),
            prefix: None,
        };
        let opts = PathBoundOptions::default();
        assert!(tail_substituted(&top_path_with(Some(boundary)), &opts).is_none());
        // Just below the boundary the closed form is finite and sound.
        let below = TailEnclosure {
            per_step_weight: Interval::new(0.0, 1.0 - 1e-9),
            ..boundary
        };
        let sub = tail_substituted(&top_path_with(Some(below)), &opts).unwrap();
        let SymVal::Interval(iv) = **sub.scores.last().unwrap() else {
            panic!("interval literal");
        };
        assert!(iv.hi().is_finite() && iv.hi() >= 1e9);
        // Above 1 (an analysis that failed to contract) also bails.
        let above = TailEnclosure {
            per_step_weight: Interval::new(0.0, 1.5),
            ..boundary
        };
        assert!(tail_substituted(&top_path_with(Some(above)), &opts).is_none());
        // No enclosure, disabled tails, and non-⊤ paths all bail too.
        assert!(tail_substituted(&top_path_with(None), &opts).is_none());
        let off = PathBoundOptions {
            use_tail: false,
            ..opts
        };
        let some = TailEnclosure {
            per_step_weight: Interval::new(0.0, 0.5),
            ..boundary
        };
        assert!(tail_substituted(&top_path_with(Some(some)), &off).is_none());
        let mut exact = top_path_with(Some(some));
        exact.budget_truncated = false;
        assert!(tail_substituted(&exact, &opts).is_none());
    }

    #[test]
    fn ranked_prefixes_rescue_the_c_equal_one_boundary() {
        // The eventually-geometric certificate the ranking pass emits
        // (rate 0, prefix weight 1): before k₀ the decay term vanishes,
        // at or past k₀ it contributes one full unit — both finite
        // where plain geometric bails.
        let opts = PathBoundOptions::default();
        let ranked = |explored: u32| TailEnclosure {
            unfoldings_explored: explored,
            per_step_weight: Interval::new(0.0, 1.0),
            continuation_weight: Interval::new(0.0, 2.0),
            prefix: Some(TailPrefix { prefix_bound: 4 }),
        };
        let hi_of = |t: TailEnclosure| {
            let sub = tail_substituted(&top_path_with(Some(t)), &opts)
                .expect("ranked prefix must substitute at c = 1");
            let SymVal::Interval(iv) = **sub.scores.last().unwrap() else {
                panic!("interval literal");
            };
            assert_eq!(iv.lo(), 0.0);
            iv.hi()
        };
        // Cut before the prefix ends: 0^{4−2} kills the decay term, so
        // the bound is x_hi · w_hi = 2, up to outward rounding.
        let early = hi_of(ranked(2));
        assert!((2.0..2.0 + 1e-9).contains(&early), "early={early}");
        // Cut past the prefix: 0^0 = 1 adds the full decay unit —
        // x_hi · (w_hi + 1) = 4.
        let late = hi_of(ranked(5));
        assert!((4.0..4.0 + 1e-9).contains(&late), "late={late}");
    }

    /// The eventually-geometric bound for a general decay rate `r_hi` and
    /// prefix weight `w_hi`: the oracle `tail_substituted`'s
    /// `r_hi = 0`, `w_hi = 1` form must match bit for bit.
    fn general_rate_tail_bound(x_hi: f64, r_hi: f64, w_hi: f64, k0: u32, k: u32) -> Option<f64> {
        if !(0.0..1.0).contains(&r_hi) || !w_hi.is_finite() || w_hi < 0.0 {
            return None;
        }
        let denom = next_after_down(1.0 - r_hi);
        if denom <= 0.0 {
            return None;
        }
        let remaining = k0.saturating_sub(k);
        let decay = next_after_up(pow_up(r_hi, remaining) / denom);
        Some(next_after_up(x_hi * next_after_up(w_hi + decay)))
    }

    #[test]
    fn ranked_tail_bounds_match_the_general_rate_formula_bit_for_bit() {
        let opts = PathBoundOptions::default();
        for c_hi in [1.0, 1.5] {
            for x_hi in [0.0, 0.3, 1.0, 2.0, 7.25, 1e300] {
                for k0 in [0, 1, 4, 4096] {
                    for k in [0, 1, 3, 4, 5, 5000] {
                        let tail = TailEnclosure {
                            unfoldings_explored: k,
                            per_step_weight: Interval::new(0.0, c_hi),
                            continuation_weight: Interval::new(0.0, x_hi),
                            prefix: Some(TailPrefix { prefix_bound: k0 }),
                        };
                        let sub = tail_substituted(&top_path_with(Some(tail)), &opts)
                            .expect("a ranked prefix substitutes");
                        let SymVal::Interval(iv) = **sub.scores.last().unwrap() else {
                            panic!("interval literal");
                        };
                        let want = general_rate_tail_bound(x_hi, 0.0, 1.0, k0, k).unwrap();
                        assert_eq!(
                            iv.hi().to_bits(),
                            want.to_bits(),
                            "x_hi={x_hi} c_hi={c_hi} k0={k0} k={k}"
                        );
                        assert_eq!(iv.lo().to_bits(), 0.0f64.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn unusable_prefixes_and_plain_facts_keep_their_old_behavior() {
        let opts = PathBoundOptions::default();
        let good = TailEnclosure {
            unfoldings_explored: 3,
            per_step_weight: Interval::new(0.0, 1.0),
            continuation_weight: Interval::new(0.0, 1.0),
            prefix: Some(TailPrefix { prefix_bound: 0 }),
        };
        // Every certificate has rate 0, so a prefix is unusable only
        // when tails are off: `--no-tail` wins over any certificate.
        let off = PathBoundOptions {
            use_tail: false,
            ..opts
        };
        assert!(tail_substituted(&top_path_with(Some(good)), &off).is_none());
        // A contracting plain fact takes the literal PR 7 branch even
        // when a prefix rides along: bit-identical to a prefix-free
        // enclosure.
        let plain = TailEnclosure {
            per_step_weight: Interval::new(0.0, 0.5),
            prefix: None,
            ..good
        };
        let both = TailEnclosure {
            per_step_weight: Interval::new(0.0, 0.5),
            ..good
        };
        let hi = |t: TailEnclosure| {
            let sub = tail_substituted(&top_path_with(Some(t)), &opts).unwrap();
            let SymVal::Interval(iv) = **sub.scores.last().unwrap() else {
                panic!("interval literal");
            };
            iv.hi()
        };
        assert_eq!(hi(plain).to_bits(), hi(both).to_bits());
    }

    #[test]
    fn tail_enclosed_geo_paths_get_finite_upper_bounds_end_to_end() {
        use gubpi_analysis::ProgramFacts;
        use gubpi_symbolic::{symbolic_paths_report_cancellable, WorkerPool};

        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let p = parse(src).unwrap();
        let simple = infer(&p).unwrap();
        let typing = infer_interval_types(&p, &simple);
        let facts = ProgramFacts::compute(&p, &typing);
        let opts = SymExecOptions {
            max_fix_unfoldings: 16,
            max_paths: 6,
            ..Default::default()
        };
        let (paths, _) = symbolic_paths_report_cancellable(
            &p,
            &typing,
            None,
            Some(&facts),
            opts,
            WorkerPool::global(),
            None,
        );
        assert!(paths.iter().any(|q| q.budget_truncated));
        let with_tail = PathBoundOptions::default();
        let no_tail = PathBoundOptions {
            use_tail: false,
            ..with_tail
        };
        let sum = |o: PathBoundOptions| {
            let mut acc = (0.0, 0.0);
            for q in &paths {
                let (l, h) = bound_path_query(q, Interval::REAL, o, Threads::Off);
                acc.0 += l;
                acc.1 += h;
            }
            acc
        };
        let (lo_on, hi_on) = sum(with_tail);
        let (lo_off, hi_off) = sum(no_tail);
        // Bare ⊤ paths force +∞; the geometric remainder stays finite
        // and still covers the total measure (a probability: exactly 1).
        assert_eq!(hi_off, f64::INFINITY);
        assert!(hi_on.is_finite(), "tail-enclosed upper must be finite");
        assert!(hi_on >= 1.0, "upper must still cover the true mass 1");
        assert_eq!(lo_on.to_bits(), lo_off.to_bits(), "lower bounds identical");
    }

    #[test]
    fn grid_sweeps_carry_the_tape_cost_estimate() {
        let src = "let x = sample in let y = sample in
                   if x * y <= 0.25 then sample else 2";
        for p in paths(src).iter().filter(|p| !linear_applicable(p)) {
            let opts = PathBoundOptions {
                splits: 8,
                use_kernel: true,
                ..Default::default()
            };
            let PathJob::Sweep { total, cost, .. } = plan_path_seeded(p, opts, None) else {
                panic!("grid paths plan as sweeps");
            };
            assert_eq!(total, 8usize.pow(p.n_samples as u32));
            let tape = gubpi_symbolic::Tape::for_path(p);
            assert_eq!(cost, tape.cost(), "cost must be the tape's estimate");
            // The tree-walk form carries its own (tree-size) estimate;
            // both are pure functions of the plan.
            let walk = PathBoundOptions {
                use_kernel: false,
                ..opts
            };
            let PathJob::Sweep {
                cost: walk_cost, ..
            } = plan_path_seeded(p, walk, None)
            else {
                panic!("grid paths plan as sweeps");
            };
            assert_eq!(walk_cost, gubpi_symbolic::Tape::tree_walk(p).cost());
            assert!(walk_cost > 0);
        }
    }

    // ----------------------------------------------------------------
    // The BoxN-per-leaf refiner, kept as the arena refiner's oracle
    // ----------------------------------------------------------------

    /// A worklist leaf of [`OracleRefiner`]: its own heap box.
    struct OracleLeaf {
        score: f64,
        seq: u64,
        depth: u32,
        cell: BoxN,
        region: Region,
    }

    /// The adaptive refiner written with one `BoxN` per cell and its own
    /// widest-dimension rule (the last of equally wide finite
    /// dimensions), evaluated one cell at a time with `BoxN::volume`.
    /// [`GridRefiner`] must reproduce it bit for bit.
    struct OracleRefiner<'a> {
        path: &'a SymPath,
        tape: Tape,
        fold: QueryFold,
        max_depth: u32,
        budget: usize,
        used: usize,
        settled: (f64, f64),
        settled_gap: f64,
        frontier: Vec<OracleLeaf>,
        pending: Vec<BoxN>,
        pending_depth: Vec<u32>,
        next_seq: u64,
        splits: u64,
        done: bool,
        interrupted: bool,
    }

    fn oracle_bisect_widest(b: &BoxN) -> Option<(BoxN, BoxN)> {
        let (idx, widest) = b
            .intervals()
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_finite())
            .max_by(|a, b| a.1.width().total_cmp(&b.1.width()))?;
        if widest.width() == 0.0 {
            return None;
        }
        let (left, right) = widest.bisect();
        let mut a = b.intervals().to_vec();
        let mut c = b.intervals().to_vec();
        a[idx] = left;
        c[idx] = right;
        Some((BoxN::new(a), BoxN::new(c)))
    }

    impl<'a> OracleRefiner<'a> {
        fn new(
            path: &'a SymPath,
            fold: QueryFold,
            opts: PathBoundOptions,
            refine: &RefineOptions,
        ) -> Option<OracleRefiner<'a>> {
            if !refine.refine || path.n_samples == 0 {
                return None;
            }
            let n = path.n_samples;
            let k = grid_splits(opts.splits, n, opts.region_budget);
            if k < 4 {
                return None;
            }
            let budget = k.pow(n as u32);
            let k0 = grid_splits((k / 4).clamp(2, 8), n, (budget / 4).max(1));
            let edges = Interval::UNIT.split(k0);
            let total = k0.pow(n as u32);
            let pending = (0..total)
                .map(|i| (0..n).map(|d| edges[i / k0.pow(d as u32) % k0]).collect())
                .collect();
            Some(OracleRefiner {
                path,
                tape: tape_for(path, opts),
                fold,
                max_depth: refine.max_refine_depth,
                budget,
                used: 0,
                settled: (0.0, 0.0),
                settled_gap: 0.0,
                frontier: Vec::new(),
                pending,
                pending_depth: vec![0; total],
                next_seq: 0,
                splits: 0,
                done: false,
                interrupted: false,
            })
        }

        fn select_batch(&mut self) -> bool {
            if !self.pending.is_empty() {
                return true;
            }
            if self.done {
                return false;
            }
            let remaining = self.budget.saturating_sub(self.used);
            if remaining < 2 || self.frontier.is_empty() {
                self.done = true;
                return false;
            }
            self.frontier
                .sort_by(|a, b| b.score.total_cmp(&a.score).then(a.seq.cmp(&b.seq)));
            let positive = self.frontier.iter().take_while(|l| l.score > 0.0).count();
            if positive == 0 {
                self.done = true;
                return false;
            }
            let pops = positive.min(remaining / 2).min((positive / 4).max(8));
            for leaf in self.frontier.drain(..pops) {
                match oracle_bisect_widest(&leaf.cell) {
                    Some((a, b)) => {
                        self.splits += 1;
                        self.pending.push(a);
                        self.pending.push(b);
                        self.pending_depth.push(leaf.depth + 1);
                        self.pending_depth.push(leaf.depth + 1);
                    }
                    None => {
                        self.fold.apply(&mut self.settled, leaf.region);
                        self.settled_gap += leaf.score;
                    }
                }
            }
            !self.pending.is_empty()
        }

        /// The pending batch's region stream, one cell at a time.
        fn evaluate(&self) -> Vec<(usize, Region)> {
            let mut scratch = self.tape.scratch();
            self.pending
                .iter()
                .enumerate()
                .filter_map(|(i, cell)| {
                    let bounds = self.tape.eval_one(cell.intervals(), &mut scratch)?;
                    Some((i, cell_mass(cell.volume(), bounds)))
                })
                .collect()
        }

        fn integrate(&mut self, out: &[(usize, Region)], done: usize) {
            let total = self.pending.len();
            let done = done.min(total);
            self.used += done;
            for &(idx, region) in out {
                let score = gap_score(self.fold, region);
                let depth = self.pending_depth[idx];
                if score > 0.0 && depth < self.max_depth {
                    self.frontier.push(OracleLeaf {
                        score,
                        seq: self.next_seq + idx as u64,
                        depth,
                        cell: self.pending[idx].clone(),
                        region,
                    });
                } else {
                    self.fold.apply(&mut self.settled, region);
                    self.settled_gap += score;
                }
            }
            if done < total {
                self.interrupted = true;
                if let Some((v, _, whole_hi)) = coarse_path_enclosure(self.path) {
                    for cell in &self.pending[done..] {
                        let mass = cell.volume() * whole_hi;
                        let region = (v, 0.0, if mass.is_nan() { 0.0 } else { mass });
                        self.fold.apply(&mut self.settled, region);
                        self.settled_gap += gap_score(self.fold, region);
                    }
                }
            }
            self.next_seq += total as u64;
            self.pending.clear();
            self.pending_depth.clear();
        }

        fn would_refine(&self) -> bool {
            if !self.pending.is_empty() {
                return true;
            }
            if self.done {
                return false;
            }
            self.budget.saturating_sub(self.used) >= 2
                && self.frontier.iter().any(|l| l.score > 0.0)
        }

        fn gap(&self) -> f64 {
            self.frontier
                .iter()
                .fold(self.settled_gap, |gap, leaf| gap + leaf.score)
        }

        fn finish(&mut self) -> (f64, f64) {
            self.frontier.sort_by_key(|leaf| leaf.seq);
            for leaf in self.frontier.drain(..) {
                self.fold.apply(&mut self.settled, leaf.region);
                self.settled_gap += leaf.score;
            }
            self.settled
        }
    }

    /// The oracle's driver: `run_adaptive_refinement_cancellable`'s
    /// rounds, sequentially, with a token that is either already
    /// cancelled or never fires. Returns the bounds, the round count and
    /// the summed gap after each round.
    fn oracle_run(
        refiners: &mut [OracleRefiner<'_>],
        gap_target: f64,
        cancelled: bool,
    ) -> (Vec<(f64, f64)>, u64, Vec<f64>) {
        let mut rounds = 0;
        let mut gaps = Vec::new();
        loop {
            if cancelled {
                for r in refiners.iter_mut() {
                    if r.would_refine() {
                        r.interrupted = true;
                    }
                    r.integrate(&[], 0);
                }
                break;
            }
            if rounds > 0 {
                let total: f64 = refiners.iter().map(OracleRefiner::gap).sum();
                gaps.push(total);
                if gap_target > 0.0 && total <= gap_target {
                    break;
                }
            }
            let mut any = false;
            for r in refiners.iter_mut() {
                any |= r.select_batch();
            }
            if !any {
                break;
            }
            rounds += 1;
            for r in refiners.iter_mut() {
                let out = r.evaluate();
                let total = r.pending.len();
                r.integrate(&out, total);
            }
        }
        (
            refiners.iter_mut().map(OracleRefiner::finish).collect(),
            rounds,
            gaps,
        )
    }

    fn assert_bits(got: f64, want: f64, ctx: &str) {
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {got} vs {want}");
    }

    /// The refinable paths the oracle tests run on: grid paths with up to
    /// four samples, dead cells (a product threshold), and five-sample ⊤
    /// paths of a budget-truncated recursion, bare and tail-substituted.
    fn oracle_paths() -> Vec<SymPath> {
        let mut out = Vec::new();
        for src in [
            "if sample <= 0.1 then 0 else
               let x = sample in let y = sample in let z = sample in
               score(sigmoid(x * y + z)); x * y * z",
            "let x = sample in let y = sample in
             if x * y <= 0.25 then sample else 2",
        ] {
            out.extend(paths(src));
        }
        let mut opts = crate::AnalysisOptions::default();
        opts.sym.max_paths = 3;
        let rec = "let rec go x =
              if sample <= 0.6 then x else go (x + sample uniform(0, 1))
            in go 0";
        let a = crate::Analyzer::from_source(rec, opts).expect("model compiles");
        let mut tailed = 0;
        for p in a.paths() {
            if let Some(t) = tail_substituted(p, &opts.bounds) {
                out.push(t);
                tailed += 1;
            }
            out.push(p.clone());
        }
        assert!(tailed > 0);
        out
    }

    /// Runs the arena refiner through `run_adaptive_refinement_cancellable`
    /// and the oracle through `oracle_run` on every path at once and
    /// asserts bit-identical bounds, splits, cells used, gaps and rounds.
    fn assert_refiners_agree(
        paths: &[SymPath],
        u: Interval,
        opts: PathBoundOptions,
        refine: RefineOptions,
        threads: Threads,
        cancelled: bool,
    ) {
        let ctx = format!("{u:?} {opts:?} {refine:?} {threads:?} cancelled {cancelled}");
        let fold = QueryFold::Filter(u);
        let mut real: Vec<GridRefiner<'_>> = paths
            .iter()
            .filter_map(|p| GridRefiner::new(p, fold, opts, &refine, None))
            .collect();
        let mut oracle: Vec<OracleRefiner<'_>> = paths
            .iter()
            .filter_map(|p| OracleRefiner::new(p, fold, opts, &refine))
            .collect();
        assert_eq!(real.len(), oracle.len(), "{ctx}");
        assert!(!real.is_empty(), "{ctx}");
        let pool = WorkerPool::new();
        let token = CancelToken::new();
        if cancelled {
            token.cancel();
        }
        let width = threads.worker_count(usize::MAX);
        let got = run_adaptive_refinement_cancellable(
            &pool,
            width,
            &mut real,
            refine.gap_target,
            Some(&token),
        );
        let (want, rounds, _) = oracle_run(&mut oracle, refine.gap_target, cancelled);
        assert_eq!(pool.stats().refine_rounds, rounds, "{ctx}: rounds");
        for (i, (r, o)) in real.iter().zip(&oracle).enumerate() {
            let ctx = format!("{ctx}, refiner {i}");
            assert_bits(got[i].0, want[i].0, &ctx);
            assert_bits(got[i].1, want[i].1, &ctx);
            assert_bits(r.gap(), o.gap(), &ctx);
            assert_eq!(r.splits(), o.splits, "{ctx}: splits");
            assert_eq!(r.cells_used(), o.used, "{ctx}: cells used");
            assert_eq!(r.interrupted(), o.interrupted, "{ctx}: interrupted");
        }
    }

    /// Drives one arena refiner and its oracle round by round, comparing
    /// every round's region stream and state bit for bit. Round
    /// `cut_round` is interrupted after half its batch; after round 0 the
    /// first worklist cell of both shrinks to a point (a degenerate box
    /// that must settle instead of splitting).
    fn assert_lockstep(p: &SymPath, u: Interval, opts: PathBoundOptions, cut_round: usize) {
        let refine = RefineOptions::default();
        let fold = QueryFold::Filter(u);
        let Some(mut real) = GridRefiner::new(p, fold, opts, &refine, None) else {
            return;
        };
        let mut oracle = OracleRefiner::new(p, fold, opts, &refine).expect("same gate");
        let n = p.n_samples;
        for round in 0.. {
            let ctx = format!("{u:?} splits {} round {round}", opts.splits);
            let busy = real.select_batch();
            assert_eq!(busy, oracle.select_batch(), "{ctx}");
            if !busy {
                break;
            }
            let got = region_stream_indexed(real.round_job());
            let want = oracle.evaluate();
            assert_eq!(got.len(), want.len(), "{ctx}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0, "{ctx}: cell index");
                assert_same_regions(&[g.1], &[w.1], &ctx);
            }
            let total = real.pending.len();
            let done = if round == cut_round { total / 2 } else { total };
            let prefix = got.iter().take_while(|(i, _)| *i < done).count();
            real.integrate(&got[..prefix], done);
            oracle.integrate(&want[..prefix], done);
            if round == 0 {
                if let (Some(r), Some(o)) = (real.frontier.first(), oracle.frontier.first_mut()) {
                    let point: Vec<Interval> = o
                        .cell
                        .intervals()
                        .iter()
                        .map(|iv| Interval::point(iv.lo()))
                        .collect();
                    let at = r.slot as usize * n;
                    real.cells[at..at + n].copy_from_slice(&point);
                    o.cell = BoxN::new(point);
                }
            }
            assert_bits(real.gap(), oracle.gap(), &ctx);
            assert_eq!(real.splits(), oracle.splits, "{ctx}: splits");
            assert_eq!(real.cells_used(), oracle.used, "{ctx}: cells used");
            assert_eq!(real.interrupted(), oracle.interrupted, "{ctx}");
        }
        let (got, want) = (real.finish(), oracle.finish());
        assert_bits(got.0, want.0, "final lo");
        assert_bits(got.1, want.1, "final hi");
    }

    fn region_stream_indexed(job: PathJob<'_, (usize, Region)>) -> Vec<(usize, Region)> {
        match job {
            PathJob::Ready(items) => items,
            PathJob::Sweep { total, process, .. } => {
                let mut buf = Vec::new();
                // Two chunks, so a block boundary falls inside the batch.
                process(0..total / 3, &mut buf);
                process(total / 3..total, &mut buf);
                buf
            }
        }
    }

    /// Runs the arena/oracle comparison over one option grid, with query
    /// intervals that cut the paths' value ranges and one that contains
    /// every bounded range.
    fn refiner_oracle_grid(
        region_budget: usize,
        splits: &[usize],
        depths: &[u32],
        gap_targets: &[f64],
        threads: &[Threads],
    ) {
        let paths = oracle_paths();
        // The ⊤ paths get refiners (k ≥ 4) at every split count.
        let top = paths.iter().find(|p| p.truncated).expect("a ⊤ path");
        assert!(grid_splits(splits[0], top.n_samples, region_budget) >= 4);
        // Without the bare ⊤ path (unbounded weight) the summed gap is
        // finite, so a gap target can stop the rounds early.
        let finite: Vec<SymPath> = paths
            .iter()
            .filter(|p| coarse_path_enclosure(p).is_none_or(|r| r.2.is_finite()))
            .cloned()
            .collect();
        assert!(finite.len() < paths.len());
        for u in [Interval::new(0.1, 0.4), Interval::new(-1.0, 3.0)] {
            for &s in splits {
                let opts = PathBoundOptions {
                    splits: s,
                    region_budget,
                    ..Default::default()
                };
                for p in &paths {
                    assert_lockstep(p, u, opts, 1);
                    assert_lockstep(p, u, opts, 0);
                }
                for &max_refine_depth in depths {
                    for &gap_target in gap_targets {
                        let refine = RefineOptions {
                            refine: true,
                            gap_target,
                            max_refine_depth,
                        };
                        for set in [&paths, &finite] {
                            for &t in threads {
                                assert_refiners_agree(set, u, opts, refine, t, false);
                            }
                            assert_refiners_agree(set, u, opts, refine, Threads::Off, true);
                        }
                    }
                }
            }
        }
    }

    /// Many refiners with finite gaps on four participants, stopped by
    /// gap targets: the larger rounds spread their refiners over the
    /// pool, and `gap()` is read after every round, so its summation
    /// order meets the oracle's sorted worklist.
    fn many_refiners_case(region_budget: usize, splits: usize) {
        let mut set: Vec<SymPath> = oracle_paths()
            .into_iter()
            .filter(|p| coarse_path_enclosure(p).is_none_or(|r| r.2.is_finite()))
            .collect();
        for src in [
            "let x = sample in let y = sample in score(x + y); x - y",
            "if sample * sample <= 0.5 then sample else 2 * sample",
            "let x = sample in if x <= 0.3 then x * sample else sample + x",
        ] {
            set.extend(paths(src));
        }
        let opts = PathBoundOptions {
            splits,
            region_budget,
            ..Default::default()
        };
        let refine = RefineOptions {
            refine: true,
            gap_target: 1.0,
            max_refine_depth: 12,
        };
        let fold = QueryFold::Filter(Interval::new(0.1, 0.4));
        let refiners = set
            .iter()
            .filter(|p| GridRefiner::new(p, fold, opts, &refine, None).is_some())
            .count();
        assert!(refiners >= 8, "only {refiners} refiners");
        for u in [Interval::new(0.1, 0.4), Interval::new(-1.0, 3.0)] {
            assert_refiners_agree(&set, u, opts, refine, Threads::Fixed(4), false);
            // A target equal to the oracle's summed gap after some round
            // stops the arena run at that round only if its own sum has
            // the same bits, worklist order included.
            let mut oracle: Vec<OracleRefiner<'_>> = set
                .iter()
                .filter_map(|p| OracleRefiner::new(p, QueryFold::Filter(u), opts, &refine))
                .collect();
            let (_, _, gaps) = oracle_run(&mut oracle, 0.0, false);
            for &gap_target in gaps.iter().skip(2).step_by(gaps.len() / 6 + 1) {
                let refine = RefineOptions {
                    gap_target,
                    ..refine
                };
                assert_refiners_agree(&set, u, opts, refine, Threads::Fixed(4), false);
            }
        }
    }

    /// The arena refiner reproduces the `BoxN`-per-leaf refiner bit for
    /// bit: bounds, gaps, splits, cells used and rounds, across splits,
    /// depths, gap targets, query intervals, thread counts, a
    /// pre-cancelled token, interrupted rounds and a degenerate cell.
    #[test]
    fn arena_refiner_matches_the_boxed_oracle() {
        // This budget seeds three-sample paths on fifths at splits 24, so
        // the order of a volume product shows in its bits.
        refiner_oracle_grid(
            1 << 13,
            &[8, 16, 24],
            &[1, 3, 12],
            &[0.0, 1.0],
            &[Threads::Off, Threads::Fixed(2)],
        );
        many_refiners_case(1 << 13, 16);
    }

    /// A worklist leaf is a 24-byte key (its region lives in the arena),
    /// which keeps selecting and sorting the worklist cheap.
    #[test]
    fn worklist_leaves_are_24_bytes() {
        assert!(std::mem::size_of::<Leaf>() <= 24);
    }

    /// Soak copy of [`arena_refiner_matches_the_boxed_oracle`] over a
    /// larger option grid (CI runs it in release).
    #[test]
    #[ignore = "soak: cargo test --release -p gubpi-core -- --ignored"]
    fn arena_refiner_matches_the_boxed_oracle_soak() {
        refiner_oracle_grid(
            1 << 16,
            &[6, 8, 12, 16, 20, 24, 32],
            &[0, 1, 2, 3, 5, 8, 12, 20],
            &[0.0, 0.8, 1.0, 1.5, 2.5],
            &[
                Threads::Off,
                Threads::Fixed(2),
                Threads::Fixed(4),
                Threads::Fixed(8),
            ],
        );
        for splits in [8, 16, 24] {
            many_refiners_case(1 << 16, splits);
        }
    }
}
