//! The traced replay of `Analyzer`.
//!
//! A traced pass does not call `Analyzer`; it makes the same public
//! layer calls the analyzer makes (parse, typing, facts, symbolic
//! execution, kernel seed, tail substitution, plans, one
//! `run_jobs_with` per query, adaptive refinement), grouped the way the
//! analyzer groups them and at the same width, with a span around each
//! call. The analyzer's per-path memo cache is private, so the replay
//! keeps its own ([`PathMemo`]) with the same key and the same
//! structural verification; a replayed pass therefore hits exactly
//! where the analyzer does. Its bounds must equal the analyzer's bit for
//! bit; the workloads check that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use gubpi_analysis::ProgramFacts;
use gubpi_core::pool::{run_jobs_with, PathJob};
use gubpi_core::{
    coarse_path_enclosure, linear_applicable, plan_path_grid_only_seeded, plan_path_query_seeded,
    plan_path_seeded, run_adaptive_refinement, tail_substituted, AnalysisOptions, BoundSink,
    GridRefiner, HistogramBounds, Method, PathBoundOptions, QueryFold, RefineOptions, Region,
    WorkerPool,
};
use gubpi_interval::{next_after_down, next_after_up, Interval};
use gubpi_lang::{infer, parse};
use gubpi_symbolic::{symbolic_paths_report_cancellable, KernelSeed, SymPath, Tape};
use gubpi_types::infer_interval_types;

use crate::trace::Tracer;

/// Work the replay observes from outside the engine: plan sizes
/// (`PathJob::Sweep` totals), items emitted and busy time of the
/// instrumented sweeps, and the tapes the replay compiled itself for
/// the `kernel.compile` span (subtracted from the engine's counters).
#[derive(Default)]
pub struct Counts {
    pub paths: AtomicU64,
    pub linear_paths: AtomicU64,
    pub top_paths: AtomicU64,
    pub linear_combos: AtomicU64,
    pub grid_cells: AtomicU64,
    pub linear_regions: AtomicU64,
    pub grid_regions: AtomicU64,
    pub linear_busy_ns: AtomicU64,
    pub grid_busy_ns: AtomicU64,
    /// Wall time of sweeps holding grid work plus refinement runs: the
    /// time base of `kernel.cells_per_s`.
    pub grid_wall_ns: AtomicU64,
    pub own_tapes: AtomicU64,
    /// Σ (coarse whole-box gap − refined gap) over refined paths with a
    /// finite coarse gap.
    pub gap_closed: Mutex<f64>,
}

/// Reads one of the [`Counts`].
pub fn load(x: &AtomicU64) -> u64 {
    x.load(Relaxed)
}

/// `(path fingerprint, query lo bits, query hi bits, bounding options,
/// method, (refine, gap target bits, max depth))` — the analyzer's
/// cache key.
type MemoKey = (u64, u64, u64, PathBoundOptions, Method, (bool, u64, u32));

/// Per-path query bounds memoised across the queries of one replayed
/// pass; entries are verified by structural path equality.
#[derive(Default)]
pub struct PathMemo(Mutex<HashMap<MemoKey, Bucket>>);

/// The memoised paths sharing one key, each with its `(lo, hi)`.
type Bucket = Vec<(SymPath, (f64, f64))>;

/// How a path is bounded, which decides the layer its plan and sweep
/// are booked to.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Class {
    Sampleless,
    Linear,
    Grid,
}

impl Class {
    /// `linear` is `linear_applicable(p)`, which callers that already
    /// computed it pass on instead of walking the path again.
    fn of(p: &SymPath, method: Method, linear: bool) -> Class {
        if p.n_samples == 0 {
            Class::Sampleless
        } else if method == Method::Auto && linear {
            Class::Linear
        } else {
            Class::Grid
        }
    }

    fn plan_span(self) -> &'static str {
        match self {
            Class::Sampleless => "plan.sampleless",
            Class::Linear => "plan.linear",
            Class::Grid => "plan.grid",
        }
    }
}

/// A program taken through the front end: what `Analyzer` keeps for
/// bounding.
pub struct Built {
    seed: KernelSeed,
    paths: Vec<SymPath>,
    fingerprints: Vec<u64>,
}

/// One replaying caller: span sink, counters, pool, options and the
/// request id its spans carry.
pub struct Mirror<'a> {
    pub tr: &'a Tracer,
    pub counts: &'a Counts,
    pub memo: &'a PathMemo,
    pub pool: &'a WorkerPool,
    pub opts: AnalysisOptions,
    pub request: u64,
}

impl Mirror<'_> {
    fn width(&self) -> usize {
        self.opts.threads.worker_count(usize::MAX)
    }

    fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.tr.span(name, parent, self.request, f)
    }

    /// `Analyzer::from_program_with`: parse → simple types → interval
    /// types → facts → symbolic execution → kernel seed.
    pub fn build(&self, source: &str, parent: u64) -> Result<Built, String> {
        let built = self.span("analyze.build", parent, |b| {
            let program = self
                .span("lang.parse", b, |_| parse(source))
                .map_err(|e| e.to_string())?;
            let simple = self
                .span("lang.typecheck", b, |_| infer(&program))
                .map_err(|e| e.to_string())?;
            let typing = self.span("types.interval_typing", b, |_| {
                infer_interval_types(&program, &simple)
            });
            let facts = self.span("analysis.facts", b, |_| {
                ProgramFacts::compute(&program, &typing)
            });
            let mut sym = self.opts.sym;
            sym.frontier_workers = self.width();
            let exec_facts = if self.opts.prune { Some(&facts) } else { None };
            let (paths, report) = self.span("symbolic.exec", b, |_| {
                symbolic_paths_report_cancellable(
                    &program,
                    &typing,
                    exec_facts,
                    Some(&facts),
                    sym,
                    self.pool,
                    None,
                )
            });
            let seed = self.span("kernel.seed", b, |_| KernelSeed::from_facts(&facts));
            let fingerprints = paths.iter().map(SymPath::fingerprint).collect();
            let built = Built {
                seed,
                paths,
                fingerprints,
            };
            Ok::<_, String>((built, report.budget_truncated_paths))
        });
        let (built, top) = built?;
        let c = self.counts;
        c.paths.fetch_add(built.paths.len() as u64, Relaxed);
        let linear = built.paths.iter().filter(|p| linear_applicable(p)).count();
        c.linear_paths.fetch_add(linear as u64, Relaxed);
        c.top_paths.fetch_add(top as u64, Relaxed);
        Ok(built)
    }

    /// The tape the grid plan or refiner of `p` compiles, compiled once
    /// more under its own span (the plan call hides it).
    fn compile(&self, p: &SymPath, seed: &KernelSeed, parent: u64) {
        if !self.opts.bounds.use_kernel {
            return;
        }
        self.span("kernel.compile", parent, |_| {
            Tape::for_path_seeded(p, Some(seed))
        });
        self.counts.own_tapes.fetch_add(1, Relaxed);
    }

    /// Books a plan's size and wraps its sweep so chunk busy time and
    /// emitted items are counted per class.
    fn instrument<'j>(&'j self, job: PathJob<'j, Region>, class: Class) -> PathJob<'j, Region> {
        let PathJob::Sweep {
            total,
            cost,
            process,
        } = job
        else {
            return job;
        };
        let c = self.counts;
        let (planned, regions, busy) = match class {
            Class::Linear => (&c.linear_combos, &c.linear_regions, &c.linear_busy_ns),
            _ => (&c.grid_cells, &c.grid_regions, &c.grid_busy_ns),
        };
        planned.fetch_add(total as u64, Relaxed);
        PathJob::Sweep {
            total,
            cost,
            process: Box::new(move |range, buf: &mut Vec<Region>| {
                let t = Instant::now();
                let before = buf.len();
                process(range, buf);
                busy.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
                regions.fetch_add((buf.len() - before) as u64, Relaxed);
            }),
        }
    }

    /// One `run_jobs_with` under a `sweep` span.
    fn sweep<R>(&self, parent: u64, has_grid: bool, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = self.span("sweep", parent, |_| f());
        if has_grid {
            let ns = t.elapsed().as_nanos() as u64;
            self.counts.grid_wall_ns.fetch_add(ns, Relaxed);
        }
        out
    }

    /// `Analyzer::denotation_bounds`: memo lookups, then plans for the
    /// misses, one sweep, adaptive refinement, memo inserts, and the
    /// path-order sum.
    fn denotation(&self, built: &Built, u: Interval, parent: u64) -> (f64, f64) {
        self.span("analyze.denotation", parent, |q| {
            let bounds = self.opts.bounds;
            let method = self.opts.method;
            let refine = RefineOptions {
                refine: self.opts.refine,
                gap_target: self.opts.gap_target,
                max_refine_depth: self.opts.max_refine_depth,
            };
            let refine_key = (
                refine.refine,
                refine.gap_target.to_bits(),
                refine.max_refine_depth,
            );
            let key = |i: usize| -> MemoKey {
                let (lo, hi) = (u.lo().to_bits(), u.hi().to_bits());
                (built.fingerprints[i], lo, hi, bounds, method, refine_key)
            };
            let seed = &built.seed;
            let cached: Vec<Option<(f64, f64)>> = {
                let map = self.memo.0.lock().expect("memo poisoned");
                (0..built.paths.len())
                    .map(|i| {
                        map.get(&key(i)).and_then(|bucket| {
                            bucket
                                .iter()
                                .find(|(p, _)| *p == built.paths[i])
                                .map(|&(_, b)| b)
                        })
                    })
                    .collect()
            };
            let misses: Vec<usize> = (0..built.paths.len())
                .filter(|&i| cached[i].is_none())
                .collect();
            let tailed: Vec<Option<SymPath>> = misses
                .iter()
                .map(|&i| tail_substituted(&built.paths[i], &bounds))
                .collect();
            let mut jobs: Vec<PathJob<'_, Region>> = Vec::new();
            let mut folds: Vec<QueryFold> = Vec::new();
            let mut uniform_at: Vec<usize> = Vec::new();
            let mut refiners: Vec<GridRefiner<'_>> = Vec::new();
            let mut refiner_at: Vec<usize> = Vec::new();
            let mut refined_paths: Vec<&SymPath> = Vec::new();
            let mut has_grid = false;
            for (mi, (&i, t)) in misses.iter().zip(&tailed).enumerate() {
                let p = &built.paths[i];
                // Tail substitution rewrites a score only, so the class
                // of the substituted path is the original's.
                let linear = method == Method::Auto && p.n_samples > 0 && linear_applicable(p);
                let refinable = refine.refine && p.n_samples > 0 && !linear;
                let p = t.as_ref().unwrap_or(p);
                let class = Class::of(p, method, linear);
                if class == Class::Grid {
                    self.compile(p, seed, q);
                }
                if refinable {
                    let r = self.span("plan.grid", q, |_| {
                        GridRefiner::new(p, QueryFold::Filter(u), bounds, &refine, Some(seed))
                    });
                    if let Some(r) = r {
                        refiners.push(r);
                        refiner_at.push(mi);
                        refined_paths.push(p);
                        continue;
                    }
                }
                let (job, fold) = self.span(class.plan_span(), q, |_| match method {
                    Method::Auto => plan_path_query_seeded(p, u, bounds, Some(seed)),
                    Method::Grid => (
                        plan_path_grid_only_seeded(p, bounds, Some(seed)),
                        QueryFold::Filter(u),
                    ),
                });
                has_grid |= class == Class::Grid;
                jobs.push(self.instrument(job, class));
                folds.push(fold);
                uniform_at.push(mi);
            }
            let width = self.width();
            let mut computed = vec![(0.0, 0.0); misses.len()];
            self.sweep(q, has_grid, || {
                run_jobs_with(self.pool, width, jobs, |j, region| {
                    folds[j].apply(&mut computed[uniform_at[j]], region)
                })
            });
            if !refiners.is_empty() {
                let coarse = self.span("trace.coarse", q, |_| {
                    refined_paths
                        .iter()
                        .map(|p| coarse_gap(p, u))
                        .collect::<Vec<f64>>()
                });
                let t = Instant::now();
                let refined = self.span("refine", q, |_| {
                    run_adaptive_refinement(self.pool, width, &mut refiners, refine.gap_target)
                });
                let ns = t.elapsed().as_nanos() as u64;
                self.counts.grid_wall_ns.fetch_add(ns, Relaxed);
                let closed: f64 = coarse
                    .iter()
                    .zip(&refiners)
                    .filter(|(c, _)| c.is_finite())
                    .map(|(c, r)| c - r.gap())
                    .sum();
                *self.counts.gap_closed.lock().expect("counts poisoned") += closed;
                for (&mi, b) in refiner_at.iter().zip(refined) {
                    computed[mi] = b;
                }
            }
            if !misses.is_empty() {
                let mut map = self.memo.0.lock().expect("memo poisoned");
                for (&i, &v) in misses.iter().zip(&computed) {
                    let bucket = map.entry(key(i)).or_default();
                    if !bucket.iter().any(|(p, _)| *p == built.paths[i]) {
                        bucket.push((built.paths[i].clone(), v));
                    }
                }
            }
            let mut per_path = cached;
            for (&i, &v) in misses.iter().zip(&computed) {
                per_path[i] = Some(v);
            }
            let mut lo = 0.0;
            let mut hi = 0.0;
            for (l, h) in per_path.into_iter().flatten() {
                lo += l;
                hi += h;
            }
            (lo, hi)
        })
    }

    /// `Analyzer::denotation_bounds` as one user query.
    pub fn denotation_query(&self, built: &Built, u: Interval, parent: u64) -> (f64, f64) {
        self.span("analyze.query", parent, |q| self.denotation(built, u, q))
    }

    /// `Analyzer::posterior_probability`: five denotations folded by the
    /// analyzer's two-query normalisation.
    pub fn posterior_query(&self, built: &Built, u: Interval, parent: u64) -> (f64, f64) {
        self.span("analyze.query", parent, |q| {
            let (m_lo, m_hi) = self.denotation(built, u, q);
            let left_closed = Interval::new(f64::NEG_INFINITY, u.lo());
            let right_closed = Interval::new(u.hi(), f64::INFINITY);
            let left_open = Interval::new(f64::NEG_INFINITY, next_after_down(u.lo()));
            let right_open = Interval::new(next_after_up(u.hi()), f64::INFINITY);
            let (ll, _) = self.denotation(built, left_open, q);
            let (rl, _) = self.denotation(built, right_open, q);
            let (_, lh) = self.denotation(built, left_closed, q);
            let (_, rh) = self.denotation(built, right_closed, q);
            let (r_lo, r_hi) = (ll + rl, lh + rh);
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
        })
    }

    /// `Analyzer::histogram`.
    pub fn histogram_query(
        &self,
        built: &Built,
        domain: Interval,
        bins: usize,
        parent: u64,
    ) -> HistogramBounds {
        self.span("analyze.query", parent, |q| {
            let bounds = self.opts.bounds;
            let method = self.opts.method;
            let seed = &built.seed;
            let tailed: Vec<Option<SymPath>> = built
                .paths
                .iter()
                .map(|p| tail_substituted(p, &bounds))
                .collect();
            let mut has_grid = false;
            let mut jobs: Vec<PathJob<'_, Region>> = Vec::new();
            for (p, t) in built.paths.iter().zip(&tailed) {
                let p = t.as_ref().unwrap_or(p);
                let class = Class::of(p, method, linear_applicable(p));
                if class == Class::Grid {
                    self.compile(p, seed, q);
                }
                let job = self.span(class.plan_span(), q, |_| match method {
                    Method::Auto => plan_path_seeded(p, bounds, Some(seed)),
                    Method::Grid => plan_path_grid_only_seeded(p, bounds, Some(seed)),
                });
                has_grid |= class == Class::Grid;
                jobs.push(self.instrument(job, class));
            }
            let mut partials: Vec<HistogramBounds> = built
                .paths
                .iter()
                .map(|_| HistogramBounds::new(domain, bins))
                .collect();
            let width = self.width();
            self.sweep(q, has_grid, || {
                run_jobs_with(self.pool, width, jobs, |i, (v, lo, hi)| {
                    partials[i].add(v, lo, hi)
                })
            });
            let mut h = HistogramBounds::new(domain, bins);
            for part in &partials {
                h.merge_from(part);
            }
            h
        })
    }
}

/// The query gap of a path's coarsest enclosure (one evaluation of the
/// whole sample box), folded like the refiner scores cells.
fn coarse_gap(p: &SymPath, u: Interval) -> f64 {
    let Some((v, lo, hi)) = coarse_path_enclosure(p) else {
        return 0.0;
    };
    let hi_in = if v.intersects(&u) { hi } else { 0.0 };
    let lo_in = if v.subset_of(&u) { lo } else { 0.0 };
    let gap = hi_in - lo_in;
    if gap.is_nan() {
        0.0
    } else {
        gap
    }
}
