//! The analyzer facade (Algorithm 1).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gubpi_analysis::{lint_program, Lint, ProgramFacts};
use gubpi_interval::Interval;
use gubpi_lang::{infer, parse, LangError, Program};
use gubpi_pool::{run_jobs_cancellable, run_jobs_with, CancelToken, PathJob, Threads, WorkerPool};
use gubpi_symbolic::{symbolic_paths_report_cancellable, ExecReport, SymExecOptions, SymPath};
use gubpi_types::{infer_interval_types, IntervalTyping};

use crate::histogram::{normalize, usable_domain, HistogramBounds};
use crate::pathbounds::{
    coarse_path_enclosure, linear_applicable, plan_path_grid_only_seeded, plan_path_query_seeded,
    plan_path_seeded, run_adaptive_refinement_cancellable, tail_substituted, BoundSink,
    GridRefiner, PathBoundOptions, QueryFold, RefineOptions, Region,
};

/// Which per-path semantics to use.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Method {
    /// Linear semantics where applicable, grid otherwise (§6.4 + §6.3).
    #[default]
    Auto,
    /// Force the standard grid semantics (§6.3) for every path.
    Grid,
}

/// End-to-end analysis options.
#[derive(Copy, Clone, Debug)]
pub struct AnalysisOptions {
    /// Symbolic execution (depth limit `D`, path caps).
    pub sym: SymExecOptions,
    /// Per-path bounding (splits, volume method).
    pub bounds: PathBoundOptions,
    /// Semantics selection.
    pub method: Method,
    /// Participation width on the persistent worker pool. Bounds are
    /// bit-identical across every setting (see `gubpi_core::pool`).
    pub threads: Threads,
    /// Let the symbolic executor drop every path at a statically-zero
    /// `score` (pre-execution static analysis, see
    /// [`ProgramFacts::score_is_zero`]). Dropping only removes paths
    /// contributing exactly `0.0` to both bounds, so disabling it
    /// reproduces bit-identical bounds with more enumerated paths (the
    /// differential tests use it as their oracle).
    pub prune: bool,
    /// Bound grid-destined paths by **gap-driven adaptive refinement**
    /// (coarse seed grid + worklist bisection of the cells contributing
    /// most to the upper−lower gap) instead of the one-shot uniform
    /// sweep, at the *same* cell budget. Histograms always use the
    /// uniform sweep (their sinks need the full value-range partition).
    /// Off (`repro --no-refine`), query bounds are bit-identical to the
    /// uniform sweep.
    pub refine: bool,
    /// Stop refining a query early once the summed gap of its refined
    /// paths drops to this value; `0.0` (default) spends the full cell
    /// budget. Per-path results computed under a positive gap target
    /// depend on the whole query's worklist, so they bypass the memo
    /// cache (purity would not survive sharing them).
    pub gap_target: f64,
    /// Maximum bisection depth below the adaptive seed grid.
    pub max_refine_depth: u32,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        let refine = RefineOptions::default();
        AnalysisOptions {
            sym: SymExecOptions::default(),
            bounds: PathBoundOptions::default(),
            method: Method::default(),
            threads: Threads::default(),
            prune: true,
            refine: refine.refine,
            gap_target: refine.gap_target,
            max_refine_depth: refine.max_refine_depth,
        }
    }
}

/// The refinement configuration as an exact, hashable key component:
/// `(refine, gap_target bits, max_refine_depth)`. `f64::to_bits` keys
/// the gap target exactly (the float itself has no `Eq`/`Hash`).
type RefineKey = (bool, u64, u32);

/// `(path fingerprint, query lo bits, query hi bits, bounding options,
/// method, refinement key)`. The fingerprint is a 64-bit structural
/// hash, so every cached result additionally stores the [`SymPath`] it
/// was computed for and lookups verify **structural equality** before
/// reusing an entry — a fingerprint collision costs one extra bucket
/// entry, never a wrong bound. The option values are keyed exactly
/// (derived `Eq`/`Hash`), so differing configurations can never alias
/// — even ones added to [`PathBoundOptions`] later.
type QueryKey = (u64, u64, u64, PathBoundOptions, Method, RefineKey);

/// One verified cache entry.
struct CacheEntry {
    /// The path the result belongs to (hits re-verify it structurally).
    path: SymPath,
    /// The memoised `(lo, hi)` bounds.
    bounds: (f64, f64),
    /// Last-access stamp for the coarse-LRU eviction policy; refreshed
    /// on every hit, consulted only when the entry cap overflows.
    stamp: u64,
}

/// Hit/miss/eviction counters of a (possibly shared) query cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-path lookups answered from the cache.
    pub hits: u64,
    /// Per-path lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by the bounded mode's coarse-LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// The `(hits, misses)` pair (the PR-2 counter shape).
    pub fn hit_miss(self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The mutex-protected cache storage plus a running entry count, so
/// the under-cap check at insert time is O(1) instead of a full map
/// scan under the global cache mutex.
#[derive(Default)]
struct CacheMap {
    buckets: HashMap<QueryKey, Vec<CacheEntry>>,
    entries: usize,
}

/// Memo cache for per-path query bounds, shared across worker threads
/// (and, via [`SharedQueryCache`], across `Analyzer` instances).
///
/// Per-path bounding is pure, so a hit returns exactly the value a
/// recomputation would — caching cannot perturb the determinism
/// guarantee.
#[derive(Default)]
struct QueryCache {
    map: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Monotone access clock feeding the entry stamps (always advanced
    /// under the map mutex, so stamps are unique and ordered).
    clock: AtomicU64,
    /// Entry cap; `None` is the unbounded PR-3 behaviour.
    cap: Option<usize>,
}

/// A handle to a per-path memo cache that can be shared across
/// [`Analyzer`] instances (the cheap `Clone` copies the handle, not the
/// cache).
///
/// Analyzing the same program — or programs sharing structurally equal
/// paths — under several analyzers (one per thread, one per request,
/// re-parsed from source, …) normally recomputes every path bound.
/// Constructing the analyzers with [`Analyzer::from_source_with_cache`]
/// instead lets later instances hit the warm entries:
///
/// ```
/// use gubpi_core::{AnalysisOptions, Analyzer, SharedQueryCache};
/// use gubpi_interval::Interval;
///
/// let cache = SharedQueryCache::new();
/// let opts = AnalysisOptions::default();
/// let a = Analyzer::from_source_with_cache("sample", opts, &cache).unwrap();
/// let b = Analyzer::from_source_with_cache("sample", opts, &cache).unwrap();
/// let u = Interval::new(0.0, 0.5);
/// let ra = a.denotation_bounds(u); // computes, fills the cache
/// let rb = b.denotation_bounds(u); // hits the shared entries
/// assert_eq!(ra, rb);
/// assert!(cache.stats().hits > 0, "second analyzer must hit");
/// ```
///
/// Entries are verified by structural path equality before reuse (see
/// `QueryKey`), so sharing is sound even across unrelated programs.
/// Hit/miss counters live in the shared cache: each per-path lookup is
/// counted exactly once, no matter which analyzer issued it.
///
/// # Bounded mode
///
/// A persistent engine turns an unbounded memo cache into a slow leak,
/// so [`SharedQueryCache::with_capacity`] installs an entry cap with
/// **deterministic coarse-LRU eviction**: every entry carries a
/// last-access stamp (refreshed once per query lookup pass), and when
/// an insert pass overflows the cap, exactly the oldest-stamped surplus
/// entries are dropped in one batch. Eviction is a pure function of the
/// access sequence, and purity of bounding means a re-query after
/// eviction recomputes bit-identical values — capacity can change
/// wall-clock time, never a result. Evictions are counted in
/// [`SharedQueryCache::stats`].
#[derive(Clone, Default)]
pub struct SharedQueryCache {
    inner: Arc<QueryCache>,
}

impl SharedQueryCache {
    /// A fresh, empty, **unbounded** cache.
    pub fn new() -> SharedQueryCache {
        SharedQueryCache::default()
    }

    /// A fresh cache holding at most `cap` memoised per-path results,
    /// evicting the least-recently-used entries (coarse, batched) on
    /// overflow.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` — a cache that can hold nothing would evict
    /// every insert immediately; disable caching by not sharing the
    /// cache instead.
    pub fn with_capacity(cap: usize) -> SharedQueryCache {
        assert!(cap > 0, "cache capacity must be positive");
        SharedQueryCache {
            inner: Arc::new(QueryCache {
                cap: Some(cap),
                ..QueryCache::default()
            }),
        }
    }

    /// The entry cap, if this cache is bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.cap
    }

    /// Counters accumulated by every analyzer attached to this cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of memoised `(path, query, options)` results.
    pub fn entry_count(&self) -> usize {
        self.inner.map.lock().expect("cache poisoned").entries
    }

    /// Drops every memoised result and resets the counters. Affects
    /// every analyzer sharing the cache; results are unaffected because
    /// bounding is pure.
    pub fn clear(&self) {
        {
            let mut map = self.inner.map.lock().expect("cache poisoned");
            map.buckets.clear();
            map.entries = 0;
        }
        self.inner.hits.store(0, Ordering::Relaxed);
        self.inner.misses.store(0, Ordering::Relaxed);
        self.inner.evictions.store(0, Ordering::Relaxed);
    }

    /// Batch-evicts the oldest-stamped entries until the cap is met.
    /// Must be called with the map mutex held (`map` proves it).
    fn enforce_cap(&self, map: &mut CacheMap) {
        let Some(cap) = self.inner.cap else { return };
        if map.entries <= cap {
            return;
        }
        let overflow = map.entries - cap;
        // Stamps are unique (the clock only advances under this mutex),
        // so the `overflow`-th smallest stamp is an exact cutoff.
        let mut stamps: Vec<u64> = map
            .buckets
            .values()
            .flat_map(|bucket| bucket.iter().map(|e| e.stamp))
            .collect();
        let (_, cutoff, _) = stamps.select_nth_unstable(overflow - 1);
        let cutoff = *cutoff;
        map.buckets.retain(|_, bucket| {
            bucket.retain(|e| e.stamp > cutoff);
            !bucket.is_empty()
        });
        map.entries -= overflow;
        self.inner
            .evictions
            .fetch_add(overflow as u64, Ordering::Relaxed);
    }

    /// Next access stamp; call only with the map mutex held.
    fn tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::Relaxed)
    }
}

/// A query whose parameters cannot denote a valid measurable set, caught
/// at the [`Analyzer`] API boundary.
///
/// Raw endpoints arrive from CLIs, config files and remote requests;
/// without this validation a `NaN` or inverted pair would reach
/// `Interval::new` and panic deep inside the analysis — possibly
/// unwinding a worker thread mid-pool. The `try_*` query methods reject
/// such inputs up front with a typed, recoverable error.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The endpoints do not form an interval (`NaN`, or `lo > hi`).
    InvalidInterval {
        /// Requested lower endpoint.
        lo: f64,
        /// Requested upper endpoint.
        hi: f64,
    },
    /// A histogram domain must be bounded with positive width.
    InvalidDomain {
        /// Requested lower edge.
        lo: f64,
        /// Requested upper edge.
        hi: f64,
    },
    /// A histogram needs at least one bin.
    NoBins,
    /// The request's deadline had already expired before any analysis
    /// work could start, so not even a degraded bound exists.
    DeadlineExceeded,
    /// A worker task panicked while serving this request. The panic was
    /// contained at the task boundary — the pool and server remain
    /// serviceable — but this request has no sound result.
    WorkerPanicked,
    /// The server's admission queue was full; the request was rejected
    /// before any work was scheduled. Retry later.
    Overloaded,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidInterval { lo, hi } => {
                write!(f, "invalid query interval endpoints [{lo}, {hi}]")
            }
            QueryError::InvalidDomain { lo, hi } => write!(
                f,
                "histogram domain [{lo}, {hi}] must be bounded with positive width"
            ),
            QueryError::NoBins => write!(f, "histogram needs at least one bin"),
            QueryError::DeadlineExceeded => {
                write!(f, "deadline expired before analysis could start")
            }
            QueryError::WorkerPanicked => {
                write!(f, "a worker task panicked while serving this request")
            }
            QueryError::Overloaded => write!(f, "server overloaded; request rejected"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The result of a deadline-aware query: guaranteed `(lo, hi)` bounds
/// plus how they were obtained.
///
/// The bounds are **always sound** — when a query's [`CancelToken`]
/// fires mid-analysis, every region the sweep never reached contributes
/// its coarse whole-box enclosure instead of a refined value, so the
/// enclosure only widens, never tears. `degraded` marks exactly that
/// case; an undegraded outcome is bit-identical to the query run
/// without any token.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// Guaranteed lower bound.
    pub lo: f64,
    /// Guaranteed upper bound.
    pub hi: f64,
    /// Whether cancellation forced any part of the result to fall back
    /// to a coarse enclosure (including ⊤-truncation of the symbolic
    /// path set itself when execution was cancelled).
    pub degraded: bool,
    /// Fraction of the planned bounding work (grid cells / refinement
    /// budget) that actually ran, in `[0, 1]`; `1.0` for undegraded
    /// outcomes.
    pub completeness: f64,
}

impl QueryOutcome {
    /// The bounds as a pair.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// Validates raw query endpoints into an [`Interval`].
fn valid_interval(lo: f64, hi: f64) -> Result<Interval, QueryError> {
    Interval::try_new(lo, hi).ok_or(QueryError::InvalidInterval { lo, hi })
}

/// A prepared analysis: program parsed, typed, symbolically executed.
///
/// Queries and histograms reuse the path set, so asking many questions of
/// one program costs one symbolic execution; repeated or overlapping
/// queries additionally hit a per-path memo cache (see
/// [`Analyzer::cache_stats`]). Symbolic execution runs on the building
/// thread; the region sweeps of every query run on a persistent
/// [`WorkerPool`] (the process-global pool unless an explicit one is
/// supplied via [`Analyzer::from_source_with`]).
pub struct Analyzer {
    program: Program,
    typing: IntervalTyping,
    /// Pre-execution static facts (intervals, weights, reachability) —
    /// computed once per program, before symbolic execution.
    facts: ProgramFacts,
    /// Pruning / ⊤-truncation census of the symbolic execution.
    exec_report: ExecReport,
    /// Whether a deadline token cancelled symbolic execution itself —
    /// the path set is then a sound ⊤-truncated coarsening and every
    /// query on this analyzer reports `degraded`.
    exec_cancelled: bool,
    paths: Vec<SymPath>,
    /// `paths[i].fingerprint()`, precomputed once for the memo cache
    /// (each a hash of the path's fields and its roots' stored digests).
    fingerprints: Vec<u64>,
    cache: SharedQueryCache,
    pool: WorkerPool,
    opts: AnalysisOptions,
}

impl Analyzer {
    /// Parses, type-checks and symbolically executes `source`.
    ///
    /// # Errors
    ///
    /// Propagates lexing, parsing and simple-type errors.
    pub fn from_source(source: &str, opts: AnalysisOptions) -> Result<Analyzer, LangError> {
        Analyzer::from_source_with(source, opts, &SharedQueryCache::new(), WorkerPool::global())
    }

    /// [`Analyzer::from_source`] attached to a [`SharedQueryCache`], so
    /// repeated queries across analyzer instances reuse warm per-path
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates lexing, parsing and simple-type errors.
    pub fn from_source_with_cache(
        source: &str,
        opts: AnalysisOptions,
        cache: &SharedQueryCache,
    ) -> Result<Analyzer, LangError> {
        Analyzer::from_source_with(source, opts, cache, WorkerPool::global())
    }

    /// [`Analyzer::from_source_with_cache`] on an explicit persistent
    /// [`WorkerPool`] — share one pool (and one cache) across many
    /// analyzers to keep workers hot between queries and requests.
    ///
    /// # Errors
    ///
    /// Propagates lexing, parsing and simple-type errors.
    pub fn from_source_with(
        source: &str,
        opts: AnalysisOptions,
        cache: &SharedQueryCache,
        pool: &WorkerPool,
    ) -> Result<Analyzer, LangError> {
        let program = parse(source)?;
        Analyzer::from_program_cancellable(program, opts, cache, pool, None)
    }

    /// Analysis of an already-parsed program on an explicit persistent
    /// [`WorkerPool`], under an optional cooperative cancellation token.
    ///
    /// Symbolic execution runs on the calling thread, so building never
    /// touches `pool`: the pool is kept for the queries' sweeps, at the
    /// width resolved from `opts.threads`. The executor polls
    /// `cancel` at deterministic checkpoints and, on expiry, closes
    /// every in-flight branch as a sound ⊤ path. The resulting analyzer
    /// is fully usable — its bounds are merely coarser — and every
    /// query on it reports `degraded`. `None` never cancels.
    ///
    /// # Errors
    ///
    /// Propagates simple-type errors.
    pub fn from_program_cancellable(
        program: Program,
        opts: AnalysisOptions,
        cache: &SharedQueryCache,
        pool: &WorkerPool,
        cancel: Option<&CancelToken>,
    ) -> Result<Analyzer, LangError> {
        let simple = infer(&program)?;
        let typing = infer_interval_types(&program, &simple);
        let facts = ProgramFacts::compute(&program, &typing);
        let exec_facts = if opts.prune { Some(&facts) } else { None };
        // Tail facts flow in unconditionally: attaching an enclosure to
        // a ⊤ path never changes the path set (it is data on the path,
        // consumed only behind `PathBoundOptions::use_tail`), so both
        // unpruned and `--no-tail` bit-identity are preserved.
        let (paths, exec_report) = symbolic_paths_report_cancellable(
            &program,
            &typing,
            exec_facts,
            Some(&facts),
            opts.sym,
            pool,
            cancel,
        );
        let exec_cancelled = cancel.is_some_and(CancelToken::is_cancelled);
        let fingerprints = paths.iter().map(SymPath::fingerprint).collect();
        Ok(Analyzer {
            program,
            typing,
            facts,
            exec_report,
            exec_cancelled,
            paths,
            fingerprints,
            cache: cache.clone(),
            pool: pool.clone(),
            opts,
        })
    }

    /// The memo cache this analyzer reads and fills; hand the clone to
    /// [`Analyzer::from_source_with_cache`] to share warm entries.
    pub fn shared_cache(&self) -> SharedQueryCache {
        self.cache.clone()
    }

    /// The persistent worker pool this analyzer schedules on; hand it to
    /// [`Analyzer::from_source_with`] to share warm workers.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The analysed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The symbolic interval paths found by Algorithm 1's exploration.
    pub fn paths(&self) -> &[SymPath] {
        &self.paths
    }

    /// The pre-execution static facts (per-subterm intervals, weight
    /// bounds, branch reachability, contraction estimates).
    pub fn facts(&self) -> &ProgramFacts {
        &self.facts
    }

    /// The symbolic executor's census for this program: zero-score
    /// drops, and how many paths are budget-truncated ⊤ paths.
    pub fn exec_report(&self) -> ExecReport {
        self.exec_report
    }

    /// Program lints derived from the static facts (zero-weight
    /// observations, out-of-domain parameters, unreachable branches,
    /// unused samples, truncation-prone recursions), sorted by source
    /// location.
    pub fn lints(&self) -> Vec<Lint> {
        lint_program(&self.program, &self.typing, &self.facts)
    }

    /// How many paths the linear semantics (§6.4) applies to.
    pub fn linear_path_count(&self) -> usize {
        self.paths.iter().filter(|p| linear_applicable(p)).count()
    }

    /// Counters of the per-path query memo cache so far. With a shared
    /// cache they aggregate over every attached analyzer (each per-path
    /// lookup is counted exactly once).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every memoised per-path result (used by benchmarks to time
    /// cold queries; results are unaffected because bounding is pure).
    /// With a shared cache this clears it for every attached analyzer.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Guaranteed bounds on the **unnormalised** denotation `⟦P⟧(U)`
    /// (Corollary 6.3).
    pub fn denotation_bounds(&self, u: Interval) -> (f64, f64) {
        self.denotation_outcome(u, None).bounds()
    }

    /// [`Analyzer::denotation_bounds`] as a deadline-aware
    /// [`QueryOutcome`].
    ///
    /// With `cancel: None` (or a token that never fires) the bounds are
    /// bit-identical to [`Analyzer::denotation_bounds`]. When the token
    /// fires mid-query, every region chunk already swept keeps its
    /// refined contribution and every path with unswept regions falls
    /// back to a sound coarse enclosure (the refiner settles its
    /// current leaf set; an interrupted uniform sweep keeps its prefix
    /// lower bound under the whole-box upper bound) — the outcome is
    /// marked `degraded` with the fraction of planned work completed,
    /// and is **never** cached.
    ///
    /// The memo cache keys on `self.opts.bounds`, so analyzers with
    /// different per-path bounding options can share one cache safely.
    pub fn denotation_outcome(&self, u: Interval, cancel: Option<&CancelToken>) -> QueryOutcome {
        let bounds = self.opts.bounds;
        let method = self.opts.method;
        let refine = RefineOptions {
            refine: self.opts.refine,
            gap_target: self.opts.gap_target,
            max_refine_depth: self.opts.max_refine_depth,
        };
        let refine_key: RefineKey = (
            refine.refine,
            refine.gap_target.to_bits(),
            refine.max_refine_depth,
        );
        let key = |i: usize| -> QueryKey {
            (
                self.fingerprints[i],
                u.lo().to_bits(),
                u.hi().to_bits(),
                bounds,
                method,
                refine_key,
            )
        };
        // Is a path grid-destined and therefore a candidate for adaptive
        // refinement? (Linear paths under `Auto` keep the polytope
        // semantics; sampleless paths have nothing to split. Tail
        // substitution only rewrites a score constant, so it cannot
        // change this classification.) Asked only of the paths a query
        // computes, so a cached query classifies nothing.
        let refinable = |p: &SymPath| {
            refine.refine
                && p.n_samples > 0
                && match method {
                    Method::Auto => !linear_applicable(p),
                    Method::Grid => true,
                }
        };
        // Under a positive gap target a refined path's bounds depend on
        // the whole query's worklist (refinement stops when the *summed*
        // gap hits the target), so those results are not pure per-path
        // values: they bypass the memo cache entirely.
        let bypass = |i: usize| refine.gap_target > 0.0 && refinable(&self.paths[i]);
        // One lock for the whole lookup pass: cached results are read
        // out before dispatch, so workers never contend on the cache.
        // Fingerprint hits are verified by structural path equality
        // before reuse (the cache may be shared across analyzers), and
        // every hit refreshes the entry's coarse-LRU stamp. `SymVal`'s
        // equality compares shared nodes once and identical ones by
        // address, so the check under the lock costs a pointer compare
        // per value for this analyzer's own entries and the DAG's node
        // count for another analyzer's.
        let cached: Vec<Option<(f64, f64)>> = {
            let mut map = self.cache.inner.map.lock().expect("cache poisoned");
            (0..self.paths.len())
                .map(|i| {
                    if bypass(i) {
                        return None;
                    }
                    let stamp = self.cache.tick();
                    map.buckets.get_mut(&key(i)).and_then(|bucket| {
                        bucket
                            .iter_mut()
                            .find(|e| e.path == self.paths[i])
                            .map(|e| {
                                e.stamp = stamp;
                                e.bounds
                            })
                    })
                })
                .collect()
        };
        let misses: Vec<(usize, &SymPath)> = cached
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| (i, &self.paths[i]))
            .collect();
        let hits = (self.paths.len() - misses.len()) as u64;
        self.cache.inner.hits.fetch_add(hits, Ordering::Relaxed);
        self.cache
            .inner
            .misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        // Unified scheduling: every missing path becomes a region-sweep
        // plan and the pool works path- and region-grain *at once* —
        // workers that drain the shallow paths steal region chunks from
        // still-running dominant ones. The fold below replays every
        // contribution in (path, region) order, so the bounds are
        // bit-identical for every width and steal schedule.
        // Tail substitution happens at plan time, never on the stored
        // path set: the cache keys carry `bounds.use_tail`, so tailed
        // and bare results for the same path never collide, and the
        // cache entries keep the original (bare-⊤) paths.
        let tailed: Vec<Option<SymPath>> = misses
            .iter()
            .map(|&(_, p)| tail_substituted(p, &bounds))
            .collect();
        // Partition the misses: grid-destined paths become per-path
        // adaptive refiners (falling back to the uniform sweep when the
        // grid is too coarse to subdivide); everything else keeps its
        // one-shot plan. Both batches run on the same pool with the
        // same deterministic (path, region)-order replay.
        let mut jobs: Vec<PathJob<'_, Region>> = Vec::with_capacity(misses.len());
        let mut folds: Vec<QueryFold> = Vec::with_capacity(misses.len());
        let mut uniform_at: Vec<usize> = Vec::with_capacity(misses.len());
        let mut refiners: Vec<GridRefiner<'_>> = Vec::new();
        let mut refiner_at: Vec<usize> = Vec::new();
        for (mi, (&(i, p), t)) in misses.iter().zip(&tailed).enumerate() {
            let p = t.as_ref().unwrap_or(p);
            if refinable(&self.paths[i]) {
                if let Some(r) = GridRefiner::new(p, QueryFold::Filter(u), bounds, &refine, None) {
                    refiners.push(r);
                    refiner_at.push(mi);
                    continue;
                }
            }
            let (job, fold) = match method {
                Method::Auto => plan_path_query_seeded(p, u, bounds, None),
                Method::Grid => (
                    plan_path_grid_only_seeded(p, bounds, None),
                    QueryFold::Filter(u),
                ),
            };
            jobs.push(job);
            folds.push(fold);
            uniform_at.push(mi);
        }
        let width = self.opts.threads.worker_count(usize::MAX);
        let mut computed: Vec<(f64, f64)> = vec![(0.0, 0.0); misses.len()];
        // Per-miss completion ledger for the anytime contract: only
        // fully-swept results are cacheable, and the planned/done cell
        // counts yield the outcome's completeness fraction.
        let mut complete: Vec<bool> = vec![true; misses.len()];
        let mut planned_units = 0.0f64;
        let mut done_units = 0.0f64;
        let progress = run_jobs_cancellable(&self.pool, width, jobs, cancel, |j, region| {
            folds[j].apply(&mut computed[uniform_at[j]], region)
        });
        for (j, prog) in progress.iter().enumerate() {
            let mi = uniform_at[j];
            planned_units += prog.total as f64;
            done_units += prog.done as f64;
            if !prog.complete() {
                // The folded prefix's lower bound stays valid (the
                // unswept cells only add non-negative mass); its upper
                // bound does not — replace it with the whole-box
                // enclosure, which contains the full path contribution
                // by inclusion monotonicity.
                complete[mi] = false;
                let path = tailed[mi].as_ref().unwrap_or(misses[mi].1);
                let mut coarse = (0.0, 0.0);
                if let Some(region) = coarse_path_enclosure(path) {
                    folds[j].apply(&mut coarse, region);
                }
                computed[mi] = (computed[mi].0.max(coarse.0), coarse.1);
            }
        }
        if !refiners.is_empty() {
            let refined = run_adaptive_refinement_cancellable(
                &self.pool,
                width,
                &mut refiners,
                refine.gap_target,
                cancel,
            );
            for ((&mi, b), r) in refiner_at.iter().zip(refined).zip(&refiners) {
                computed[mi] = b;
                planned_units += r.cell_budget() as f64;
                if r.interrupted() {
                    complete[mi] = false;
                    done_units += r.cells_used().min(r.cell_budget()) as f64;
                } else {
                    // Early stops (gap target, exhausted worklist) are
                    // full-precision results: the refiner finished all
                    // the work it would ever schedule.
                    done_units += r.cell_budget() as f64;
                }
            }
        }
        if !misses.is_empty() {
            let mut map = self.cache.inner.map.lock().expect("cache poisoned");
            for (mi, (&(i, _), &v)) in misses.iter().zip(&computed).enumerate() {
                // Degraded per-path results never enter the cache: an
                // undisturbed re-query must recompute the path at full
                // precision, not inherit a deadline's coarse enclosure.
                if bypass(i) || !complete[mi] {
                    continue;
                }
                let stamp = self.cache.tick();
                let bucket = map.buckets.entry(key(i)).or_default();
                // A racing analyzer may have inserted the same path
                // meanwhile; bounding is pure, so skipping the duplicate
                // loses nothing.
                if !bucket.iter().any(|e| e.path == self.paths[i]) {
                    bucket.push(CacheEntry {
                        path: self.paths[i].clone(),
                        bounds: v,
                        stamp,
                    });
                    map.entries += 1;
                }
            }
            self.cache.enforce_cap(&mut map);
        }
        let mut per_path = cached;
        for (&(i, _), &v) in misses.iter().zip(&computed) {
            per_path[i] = Some(v);
        }
        // Deterministic reduce: sum the per-path bounds in path order, so
        // the float summation order is independent of the thread count.
        let mut lo = 0.0;
        let mut hi = 0.0;
        for r in per_path {
            let (l, h) = r.expect("every path is cached or computed");
            lo += l;
            hi += h;
        }
        let degraded = self.exec_cancelled || complete.iter().any(|c| !c);
        let completeness = if self.exec_cancelled {
            // Path discovery itself was truncated; the cell-level ratio
            // would overstate how much of the intended work ran.
            0.0
        } else if planned_units > 0.0 {
            (done_units / planned_units).clamp(0.0, 1.0)
        } else {
            1.0
        };
        QueryOutcome {
            lo,
            hi,
            degraded,
            completeness,
        }
    }

    /// Bounds on the normalising constant `Z = ⟦P⟧(R)`.
    pub fn normalizing_constant(&self) -> (f64, f64) {
        self.denotation_bounds(Interval::REAL)
    }

    /// Guaranteed bounds on the **normalised** posterior probability
    /// `posterior_P(U) = ⟦P⟧(U) / Z`.
    ///
    /// Uses the tight two-query normalisation: with `m = ⟦P⟧(U)` and
    /// `r = ⟦P⟧(R∖U)`, `posterior = m/(m+r)` is monotone in both.
    pub fn posterior_probability(&self, u: Interval) -> (f64, f64) {
        self.posterior_outcome(u, None).bounds()
    }

    /// [`Analyzer::posterior_probability`] as a deadline-aware
    /// [`QueryOutcome`]: all five denotation sub-queries share the one
    /// token, the outcome is degraded if any sub-query was, and its
    /// completeness is the minimum across them. The normalisation
    /// `m/(m+r)` is monotone in both arguments, so feeding it sound
    /// (merely coarser) sub-query bounds yields sound posterior bounds.
    pub fn posterior_outcome(&self, u: Interval, cancel: Option<&CancelToken>) -> QueryOutcome {
        let m = self.denotation_outcome(u, cancel);
        // Complement mass via two ray queries. For the lower bound the
        // rays are shrunk by one ulp so they are strictly disjoint from U
        // (closed intervals would otherwise double-count boundary atoms);
        // the closed rays over-cover the complement for the upper bound,
        // which is sound. A side where U is unbounded has an empty
        // complement, and is skipped: its "open" ray would be the point
        // ±∞ itself (`next_after_down(−∞) = −∞`) and would count an atom
        // at ±∞ in both `m` and the rest.
        let empty = QueryOutcome {
            lo: 0.0,
            hi: 0.0,
            degraded: false,
            completeness: 1.0,
        };
        let ray = |lo: f64, hi: f64, unbounded: bool| {
            if unbounded {
                empty
            } else {
                self.denotation_outcome(Interval::new(lo, hi), cancel)
            }
        };
        let (no_left, no_right) = (u.lo() == f64::NEG_INFINITY, u.hi() == f64::INFINITY);
        let down = gubpi_interval::next_after_down(u.lo());
        let up = gubpi_interval::next_after_up(u.hi());
        let qll = ray(f64::NEG_INFINITY, down, no_left);
        let qrl = ray(up, f64::INFINITY, no_right);
        let qlh = ray(f64::NEG_INFINITY, u.lo(), no_left);
        let qrh = ray(u.hi(), f64::INFINITY, no_right);
        let rest = (qll.lo + qrl.lo, qlh.hi + qrh.hi);
        let (lo, hi) = normalize(m.bounds(), rest);
        let subs = [&m, &qll, &qrl, &qlh, &qrh];
        QueryOutcome {
            lo,
            hi,
            degraded: subs.iter().any(|q| q.degraded),
            completeness: subs.iter().map(|q| q.completeness).fold(1.0f64, f64::min),
        }
    }

    /// Histogram bounds over `domain` with `bins` bins, on the
    /// unnormalised denotation; call
    /// [`HistogramBounds::normalized`] for posterior bounds.
    ///
    /// One pass over all regions; regions whose value range straddles a
    /// bin edge contribute their upper mass to both neighbours (sound,
    /// slightly conservative). Use [`Analyzer::histogram_exact`] for
    /// per-bin query precision.
    ///
    /// Every path is a region-sweep plan on the pool (same unified
    /// scheduling and stealing as the queries); contributions land in
    /// per-path partial histograms in region order, merged in path
    /// order — the same determinism guarantee as the queries.
    pub fn histogram(&self, domain: Interval, bins: usize) -> HistogramBounds {
        let method = self.opts.method;
        let bounds = self.opts.bounds;
        // Same tail substitution as the queries (see
        // `denotation_outcome`): ⊤ paths with a geometric enclosure
        // sweep with the tightened trailing score.
        let tailed: Vec<Option<SymPath>> = self
            .paths
            .iter()
            .map(|p| tail_substituted(p, &bounds))
            .collect();
        let jobs: Vec<PathJob<'_, Region>> = self
            .paths
            .iter()
            .zip(&tailed)
            .map(|(p, t)| {
                let p = t.as_ref().unwrap_or(p);
                match method {
                    Method::Auto => plan_path_seeded(p, bounds, None),
                    Method::Grid => plan_path_grid_only_seeded(p, bounds, None),
                }
            })
            .collect();
        let mut partials: Vec<HistogramBounds> = self
            .paths
            .iter()
            .map(|_| HistogramBounds::new(domain, bins))
            .collect();
        run_jobs_with(
            &self.pool,
            self.opts.threads.worker_count(usize::MAX),
            jobs,
            |i, (v, lo, hi)| partials[i].add(v, lo, hi),
        );
        let mut h = HistogramBounds::new(domain, bins);
        for part in &partials {
            h.merge_from(part);
        }
        h
    }

    /// Histogram bounds computed as one exact query per bin (plus the two
    /// tails) — tighter than [`Analyzer::histogram`] at `bins + 2` times
    /// the cost.
    pub fn histogram_exact(&self, domain: Interval, bins: usize) -> HistogramBounds {
        let mut h = HistogramBounds::new(domain, bins);
        for i in 0..bins {
            let (lo, hi) = self.denotation_bounds(h.bin(i));
            h.set_bin(i, lo, hi);
        }
        h.left_tail = self.denotation_bounds(Interval::new(f64::NEG_INFINITY, domain.lo()));
        h.right_tail = self.denotation_bounds(Interval::new(domain.hi(), f64::INFINITY));
        h
    }

    // ----------------------------------------------------------------
    // Validated query API: raw endpoints in, typed errors out
    // ----------------------------------------------------------------

    /// [`Analyzer::denotation_outcome`] on raw endpoints under an
    /// optional cancellation token, validating them instead of
    /// panicking deep inside the analysis.
    ///
    /// # Errors
    ///
    /// Only [`QueryError::InvalidInterval`], for `NaN`/inverted
    /// endpoints. An expired token still yields a sound, degraded
    /// outcome, never an error; `gubpi-serve` and `repro query` report
    /// a deadline that expired before any work started themselves.
    pub fn try_denotation_outcome(
        &self,
        lo: f64,
        hi: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutcome, QueryError> {
        let u = valid_interval(lo, hi)?;
        Ok(self.denotation_outcome(u, cancel))
    }

    /// [`Analyzer::posterior_outcome`] on raw endpoints under an
    /// optional cancellation token.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidInterval`] for `NaN`/inverted endpoints.
    pub fn try_posterior_outcome(
        &self,
        lo: f64,
        hi: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutcome, QueryError> {
        let u = valid_interval(lo, hi)?;
        Ok(self.posterior_outcome(u, cancel))
    }

    /// [`Analyzer::histogram`] on raw domain edges, validating the
    /// domain (bounded, positive width) and bin count.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidInterval`] for `NaN`/inverted endpoints,
    /// [`QueryError::InvalidDomain`] for unbounded or zero-width
    /// domains, [`QueryError::NoBins`] for `bins == 0`.
    pub fn try_histogram(
        &self,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Result<HistogramBounds, QueryError> {
        Ok(self.histogram(valid_domain(lo, hi, bins)?, bins))
    }
}

/// Validates raw histogram parameters.
fn valid_domain(lo: f64, hi: f64, bins: usize) -> Result<Interval, QueryError> {
    let domain = valid_interval(lo, hi)?;
    if !usable_domain(domain) {
        return Err(QueryError::InvalidDomain { lo, hi });
    }
    if bins == 0 {
        return Err(QueryError::NoBins);
    }
    Ok(domain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer(src: &str) -> Analyzer {
        Analyzer::from_source(src, AnalysisOptions::default()).unwrap()
    }

    #[test]
    fn uniform_posterior_probability() {
        let a = analyzer("sample");
        let (lo, hi) = a.posterior_probability(Interval::new(0.25, 0.75));
        assert!(lo <= 0.5 && 0.5 <= hi);
        assert!(hi - lo < 1e-6, "[{lo}, {hi}]");
    }

    #[test]
    fn scoring_changes_posterior() {
        // score(x): posterior density 2x; P(X > 0.5) = 3/4.
        let a = analyzer("let x = sample in score(x); x");
        let (lo, hi) = a.posterior_probability(Interval::new(0.5, 1.0));
        assert!(lo <= 0.75 && 0.75 <= hi, "[{lo}, {hi}]");
        assert!(hi - lo < 0.1, "[{lo}, {hi}]");
    }

    #[test]
    fn histogram_brackets_uniform() {
        let a = analyzer("sample");
        let h = a.histogram(Interval::new(0.0, 1.0), 4);
        for i in 0..4 {
            let (lo, hi) = h.unnormalized(i);
            assert!(
                lo <= 0.25 + 1e-9 && 0.25 <= hi + 1e-9,
                "bin {i}: [{lo}, {hi}]"
            );
        }
        let n = h.normalized();
        for nb in n {
            assert!(nb.lo <= 0.25 + 1e-9 && 0.25 <= nb.hi + 1e-9);
        }
    }

    #[test]
    fn grid_method_is_sound_but_looser() {
        let src = "let x = sample in score(x); x";
        let auto = analyzer(src);
        let grid = Analyzer::from_source(
            src,
            AnalysisOptions {
                method: Method::Grid,
                ..Default::default()
            },
        )
        .unwrap();
        let (al, ah) = auto.denotation_bounds(Interval::UNIT);
        let (gl, gh) = grid.denotation_bounds(Interval::UNIT);
        assert!(gl <= 0.5 && 0.5 <= gh);
        assert!(al <= 0.5 && 0.5 <= ah);
        assert!(ah - al <= gh - gl + 1e-9, "linear at least as tight");
    }

    #[test]
    fn recursive_program_gets_finite_bounds() {
        // Geometric recursion: ⟦P⟧(R) = Σ (1/2)^{k+1} = 1.
        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let a = Analyzer::from_source(
            src,
            AnalysisOptions {
                sym: SymExecOptions {
                    max_fix_unfoldings: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let (z_lo, z_hi) = a.normalizing_constant();
        assert!(z_lo > 0.9, "explored mass ≥ 1 − 2⁻⁸, got {z_lo}");
        assert!(z_hi >= 1.0 - 1e-9);
        // P(result = 0) = 1/2 exactly; bin [−0.25, 0.25] captures it.
        let (lo, hi) = a.denotation_bounds(Interval::new(-0.25, 0.25));
        assert!(lo <= 0.5 + 1e-9 && 0.5 <= hi + 1e-9, "[{lo}, {hi}]");
    }

    #[test]
    fn linear_paths_are_detected() {
        let a = analyzer("if sample + sample <= 1 then sample else 1 - sample");
        assert_eq!(a.linear_path_count(), a.paths().len());
        assert!(a.paths().len() >= 2);
    }

    #[test]
    fn constant_invalid_dist_params_have_zero_mass() {
        // Every concrete run scores density 0 (σ = −0.5 is out of
        // domain), so the true denotation is 0 — and the *guaranteed*
        // bounds must say so. Regression: the interval lifting used to
        // clamp σ into validity, reporting a huge positive lower bound.
        let a = analyzer("observe 0 from normal(0, 0 - 0.5); sample");
        let (z_lo, z_hi) = a.normalizing_constant();
        assert_eq!((z_lo, z_hi), (0.0, 0.0), "Z must be exactly 0");
    }

    #[test]
    fn runtime_invalid_dist_params_keep_bounds_sound() {
        // σ = sample − 0.5: invalid (zero density) for sample ≤ 0.5.
        // True Z = ∫_{0.5}^{1} pdf_{N(0, s−0.5)}(0.4) ds ≈ 0.171213
        // (numerical quadrature).
        let mut opts = AnalysisOptions::default();
        opts.bounds.splits = 64;
        let a = Analyzer::from_source("observe 0.4 from normal(0, sample - 0.5); sample", opts)
            .unwrap();
        let (z_lo, z_hi) = a.normalizing_constant();
        let truth = 0.171_213;
        assert!(
            z_lo <= truth && truth <= z_hi,
            "Z = {truth} outside [{z_lo}, {z_hi}]"
        );
        assert!(z_hi.is_finite());
    }

    #[test]
    fn repeated_queries_hit_the_memo_cache() {
        let a = analyzer("if sample <= 0.5 then sample else 1 - sample");
        let n_paths = a.paths().len() as u64;
        assert_eq!(a.cache_stats().hit_miss(), (0, 0));
        let first = a.denotation_bounds(Interval::new(0.0, 0.5));
        assert_eq!(a.cache_stats().hit_miss(), (0, n_paths));
        let second = a.denotation_bounds(Interval::new(0.0, 0.5));
        assert_eq!(a.cache_stats().hit_miss(), (n_paths, n_paths));
        assert_eq!(first, second, "cache must return bit-identical bounds");
        // A different query misses again.
        let _ = a.denotation_bounds(Interval::new(0.25, 0.75));
        let s = a.cache_stats();
        assert_eq!(s.hits, n_paths);
        assert_eq!(s.misses, 2 * n_paths);
        assert_eq!(s.evictions, 0, "unbounded caches never evict");
    }

    #[test]
    fn cache_keys_on_path_bound_options() {
        // Two analyzers that differ only in `opts.bounds` share one
        // cache: their entries must not alias.
        let src = "let x = sample in score(x); x";
        let cache = SharedQueryCache::new();
        let with_splits = |splits: usize| {
            let mut opts = AnalysisOptions::default();
            opts.bounds.splits = splits;
            Analyzer::from_source_with_cache(src, opts, &cache).unwrap()
        };
        let coarse = with_splits(4);
        let fine = with_splits(64);
        let u = Interval::new(0.0, 0.5);
        let c1 = coarse.denotation_bounds(u);
        let f1 = fine.denotation_bounds(u);
        // Different options must not alias: the fine query recomputes
        // rather than reusing the coarse result.
        assert!(f1.1 - f1.0 < c1.1 - c1.0, "fine {f1:?} vs coarse {c1:?}");
        let n_paths = coarse.paths().len() as u64;
        assert_eq!(fine.paths().len() as u64, n_paths);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2 * n_paths);
        // Re-asking each configuration hits its own entry.
        assert_eq!(coarse.denotation_bounds(u), c1);
        assert_eq!(fine.denotation_bounds(u), f1);
        assert_eq!(cache.stats().hits, 2 * n_paths);
    }

    #[test]
    fn bounded_cache_evicts_oldest_entries_and_stays_correct() {
        // 2 paths per query; a cap of 4 holds exactly two queries' worth
        // of entries. Warm more than that, check the cap holds, evictions
        // are counted, and a re-query of an evicted interval recomputes
        // bit-identical bounds.
        let src = "if sample <= 0.5 then sample else 1 - sample";
        let queries: Vec<Interval> = (0..5)
            .map(|i| Interval::new(0.0, 0.1 + 0.1 * i as f64))
            .collect();
        let unbounded = Analyzer::from_source(src, AnalysisOptions::default()).unwrap();
        let reference: Vec<(f64, f64)> = queries
            .iter()
            .map(|&u| unbounded.denotation_bounds(u))
            .collect();

        let cache = SharedQueryCache::with_capacity(4);
        assert_eq!(cache.capacity(), Some(4));
        let a = Analyzer::from_source_with_cache(src, AnalysisOptions::default(), &cache).unwrap();
        let n_paths = a.paths().len();
        assert_eq!(n_paths, 2);
        for (&u, &r) in queries.iter().zip(&reference) {
            assert_eq!(a.denotation_bounds(u), r);
            assert!(
                cache.entry_count() <= 4,
                "cap violated: {} entries",
                cache.entry_count()
            );
        }
        let s = cache.stats();
        assert_eq!(s.misses, 10, "5 queries × 2 paths all missed");
        assert_eq!(
            s.evictions,
            (queries.len() * n_paths - 4) as u64,
            "everything beyond the cap was evicted exactly once"
        );
        // The two most recent queries are still resident (LRU kept the
        // newest stamps) ...
        let before = cache.stats();
        assert_eq!(a.denotation_bounds(queries[4]), reference[4]);
        assert_eq!(cache.stats().hits, before.hits + 2);
        // ... and an evicted query recomputes, bit-identical.
        let before = cache.stats();
        assert_eq!(a.denotation_bounds(queries[0]), reference[0]);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses + 2, "evicted ⇒ recompute");
        assert!(cache.entry_count() <= 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_caches_are_rejected() {
        let _ = SharedQueryCache::with_capacity(0);
    }

    #[test]
    fn lru_refresh_protects_hot_entries() {
        // Cap 2, one path per query. Warm A, B (cache full: A older than
        // B), touch A (refresh), insert C ⇒ B must be the victim.
        let src = "sample";
        let cache = SharedQueryCache::with_capacity(2);
        let a = Analyzer::from_source_with_cache(src, AnalysisOptions::default(), &cache).unwrap();
        assert_eq!(a.paths().len(), 1);
        let qa = Interval::new(0.0, 0.25);
        let qb = Interval::new(0.0, 0.5);
        let qc = Interval::new(0.0, 0.75);
        let _ = a.denotation_bounds(qa);
        let _ = a.denotation_bounds(qb);
        let _ = a.denotation_bounds(qa); // refresh A
        let _ = a.denotation_bounds(qc); // evicts B, the oldest stamp
        let before = cache.stats();
        let _ = a.denotation_bounds(qa);
        assert_eq!(cache.stats().hits, before.hits + 1, "A survived");
        let before = cache.stats();
        let _ = a.denotation_bounds(qb);
        assert_eq!(cache.stats().misses, before.misses + 1, "B was evicted");
    }

    #[test]
    fn invalid_query_endpoints_yield_typed_errors() {
        let a = analyzer("sample");
        assert_eq!(
            a.try_denotation_outcome(1.0, 0.0, None),
            Err(QueryError::InvalidInterval { lo: 1.0, hi: 0.0 })
        );
        assert!(matches!(
            a.try_denotation_outcome(f64::NAN, 1.0, None),
            Err(QueryError::InvalidInterval { .. })
        ));
        assert!(matches!(
            a.try_posterior_outcome(0.5, f64::NAN, None),
            Err(QueryError::InvalidInterval { .. })
        ));
        assert!(matches!(
            a.try_histogram(0.0, f64::INFINITY, 4),
            Err(QueryError::InvalidDomain { .. })
        ));
        assert!(matches!(
            a.try_histogram(0.5, 0.5, 4),
            Err(QueryError::InvalidDomain { .. })
        ));
        // Finite endpoints whose width overflows to +∞.
        assert!(matches!(
            a.try_histogram(-1e308, 1e308, 4),
            Err(QueryError::InvalidDomain { .. })
        ));
        assert_eq!(a.try_histogram(0.0, 1.0, 0).err(), Some(QueryError::NoBins));
        assert!(matches!(
            a.try_histogram(2.0, 1.0, 4),
            Err(QueryError::InvalidInterval { .. })
        ));
    }

    #[test]
    fn histogram_exact_last_bin_ends_at_the_domain_end() {
        // `lo + (hi − lo)` rounds to one ulp below 0.2 here. With that as
        // the last edge, the point mass at 0.19999999999999998 fell in
        // the gap between the last bin and the right tail, and every
        // upper bound, Z's included, came out 0.
        let h = analyzer("0.19999999999999998").histogram_exact(Interval::new(-1.7, 0.2), 1);
        assert_eq!(h.bin(0).hi(), 0.2);
        assert!(h.unnormalized(0).1 >= 1.0, "bin {:?}", h.unnormalized(0));
        // A finite width whose multiples overflow: the edges stay ordered.
        let h = analyzer("sample").try_histogram(-8e307, 8e307, 4).unwrap();
        assert_eq!(h.bin(3).hi(), 8e307);
        let (z_lo, z_hi) = h.z_bounds();
        assert!(z_lo <= 1.0 && 1.0 <= z_hi, "Z = 1 not in [{z_lo}, {z_hi}]");
    }

    #[test]
    fn posteriors_over_unbounded_u_count_atoms_at_infinity_once() {
        // `U` unbounded on one side has an empty complement there. An
        // "open" ray on that side would be the point ±∞ itself and would
        // count an atom at ±∞ in both ⟦P⟧(U) and the rest.
        let neg = Interval::new(f64::NEG_INFINITY, 0.0);
        let pos = Interval::new(0.0, f64::INFINITY);
        let cases = [
            ("log(0)", neg, 1.0),
            ("if sample <= 0.5 then log(0) else 1", neg, 0.5),
            ("exp(1000)", pos, 1.0),
        ];
        for (src, u, truth) in cases {
            let (lo, hi) = analyzer(src).posterior_probability(u);
            assert!(
                lo <= truth && truth <= hi,
                "{src}: {truth} not in [{lo}, {hi}]"
            );
            assert!(hi - lo < 1e-9, "{src}: [{lo}, {hi}]");
        }
        let raw = analyzer("log(0)").try_posterior_outcome(f64::NEG_INFINITY, 0.0, None);
        assert_eq!(raw.map(|o| o.bounds()), Ok((1.0, 1.0)));
    }

    #[test]
    fn valid_raw_endpoints_match_the_interval_api() {
        let a = analyzer("let x = sample in score(x); x");
        let u = Interval::new(0.25, 0.75);
        assert_eq!(
            a.try_denotation_outcome(0.25, 0.75, None)
                .map(|o| o.bounds()),
            Ok(a.denotation_bounds(u))
        );
        assert_eq!(
            a.try_posterior_outcome(0.25, 0.75, None)
                .map(|o| o.bounds()),
            Ok(a.posterior_probability(u))
        );
        let h = a.try_histogram(0.0, 1.0, 4).unwrap();
        let href = a.histogram(Interval::new(0.0, 1.0), 4);
        for i in 0..4 {
            assert_eq!(h.unnormalized(i), href.unnormalized(i));
        }
    }

    #[test]
    fn an_unfired_token_changes_no_bit() {
        // One linear path (uniform polytope sweep) and one non-linear
        // sampled path (adaptive refiner), so both the sweep's progress
        // ledger and the refiner's merged integration run under a token.
        let src = "let x = sample in if x <= 0.5 then x else x * x";
        let pool = WorkerPool::new();
        let a = Analyzer::from_source_with(
            src,
            AnalysisOptions::default(),
            &SharedQueryCache::new(),
            &pool,
        )
        .unwrap();
        assert!(a.linear_path_count() >= 1);
        assert!(a.linear_path_count() < a.paths().len());
        let token = CancelToken::new();
        for u in [Interval::new(0.0, 0.75), Interval::new(0.25, 1.0)] {
            for posterior in [false, true] {
                // A cold cache, so every query computes.
                let run = |cancel: Option<&CancelToken>| {
                    a.clear_cache();
                    let o = if posterior {
                        a.posterior_outcome(u, cancel)
                    } else {
                        a.denotation_outcome(u, cancel)
                    };
                    assert!(!o.degraded, "{o:?}");
                    assert_eq!(o.completeness, 1.0, "{o:?}");
                    (o.lo.to_bits(), o.hi.to_bits())
                };
                assert_eq!(run(Some(&token)), run(None), "{u:?}, posterior {posterior}");
            }
        }
        assert!(pool.stats().refine_rounds >= 1, "{:?}", pool.stats());
    }

    #[test]
    fn pruned_and_unpruned_bounds_are_bit_identical() {
        // Models with genuinely dead branches (`else fail` conditioning):
        // the zero-score drops must cut the path count and change no
        // bound bit.
        let srcs = [
            "let x = sample in if x <= 0.7 then x else fail",
            "let rec walk x =
               if x <= 0 then 0 else
                 if sample <= 0.8 then walk (x - sample) else fail
             in walk 1",
        ];
        for src in srcs {
            let pruned = analyzer(src);
            let unpruned = Analyzer::from_source(
                src,
                AnalysisOptions {
                    prune: false,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                pruned.paths().len() < unpruned.paths().len(),
                "{src}: pruning must drop paths ({} vs {})",
                pruned.paths().len(),
                unpruned.paths().len()
            );
            assert!(pruned.exec_report().zero_score_drops > 0, "{src}");
            assert_eq!(unpruned.exec_report().zero_score_drops, 0, "{src}");
            for u in [
                Interval::new(0.0, 0.25),
                Interval::new(0.25, 1.0),
                Interval::REAL,
            ] {
                let a = pruned.denotation_bounds(u);
                let b = unpruned.denotation_bounds(u);
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{src}: lo on {u:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{src}: hi on {u:?}");
            }
            let (pl, ph) = pruned.posterior_probability(Interval::new(0.0, 0.5));
            let (ul, uh) = unpruned.posterior_probability(Interval::new(0.0, 0.5));
            assert_eq!((pl.to_bits(), ph.to_bits()), (ul.to_bits(), uh.to_bits()));
        }
    }

    #[test]
    fn tail_enclosures_tighten_top_paths_and_no_tail_keeps_bare_top() {
        // A budget too tight for `geo` produces ⊤ paths. With tail
        // substitution the upper bounds are finite; with
        // `use_tail: false` (the `--no-tail` escape hatch) they are the
        // historical +∞. Lower bounds are bit-identical either way: the
        // substitution only tightens the trailing [0, ∞] score's upper
        // end.
        let src = "let rec geo x = if sample <= 0.5 then x else geo (x + 1) in geo 0";
        let mk = |use_tail: bool| {
            Analyzer::from_source(
                src,
                AnalysisOptions {
                    sym: SymExecOptions {
                        max_fix_unfoldings: 16,
                        max_paths: 6,
                        ..Default::default()
                    },
                    bounds: PathBoundOptions {
                        use_tail,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let on = mk(true);
        let off = mk(false);
        assert!(on.exec_report().budget_truncated_paths > 0);
        assert!(on.exec_report().tail_enclosed_paths > 0);
        for u in [
            Interval::REAL,
            Interval::new(-0.25, 0.25),
            Interval::new(0.5, 10.0),
        ] {
            let (lo_on, hi_on) = on.denotation_bounds(u);
            let (lo_off, hi_off) = off.denotation_bounds(u);
            assert_eq!(lo_on.to_bits(), lo_off.to_bits(), "lo on {u:?}");
            assert_eq!(hi_off, f64::INFINITY, "bare ⊤ forces +∞ on {u:?}");
            assert!(hi_on.is_finite(), "tail-enclosed hi on {u:?}");
        }
        // ⟦P⟧(R) = 1 exactly: the finite upper must still cover it.
        let (z_lo, z_hi) = on.normalizing_constant();
        assert!(z_lo <= 1.0 && 1.0 <= z_hi, "[{z_lo}, {z_hi}]");
        // Programs without ⊤ paths are untouched by the flag, bit for
        // bit — including through the histogram sweep.
        let exact = "if sample <= 0.3 then sample else 1 - sample";
        let a = analyzer(exact);
        assert_eq!(a.exec_report().tail_enclosed_paths, 0);
        let h_on = on.histogram(Interval::new(0.0, 4.0), 8);
        assert!(
            (0..h_on.bins()).all(|i| h_on.unnormalized(i).1.is_finite()),
            "tailed histogram bins stay finite"
        );
    }

    #[test]
    fn ranked_tails_give_data_guarded_loops_finite_upper_bounds() {
        // A data-guarded loop sits at per-step mass 1, where the plain
        // geometric series is unusable — PR 7 left its ⊤ paths at +∞.
        // The ranking certificate must now make the upper bound finite,
        // while `--no-tail` still reverts and lower bounds stay put.
        let src = "let rec walk x = if x <= 0 then 0 else walk (x - sample) in walk 1";
        let mk = |use_tail: bool| {
            Analyzer::from_source(
                src,
                AnalysisOptions {
                    sym: SymExecOptions {
                        max_fix_unfoldings: 16,
                        max_paths: 6,
                        ..Default::default()
                    },
                    bounds: PathBoundOptions {
                        use_tail,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let on = mk(true);
        let off = mk(false);
        let report = on.exec_report();
        assert!(report.budget_truncated_paths > 0, "need ⊤ paths");
        assert!(report.ranked_tail_paths > 0, "need ranked enclosures");
        assert_eq!(report.ranked_tail_paths, report.tail_enclosed_paths);
        let (lo_on, hi_on) = on.denotation_bounds(Interval::REAL);
        let (lo_off, hi_off) = off.denotation_bounds(Interval::REAL);
        assert_eq!(lo_on.to_bits(), lo_off.to_bits(), "lower bound untouched");
        assert_eq!(hi_off, f64::INFINITY, "bare ⊤ forces +∞");
        assert!(hi_on.is_finite(), "ranked tail must cap the upper bound");
        // The loop a.s. terminates with result 0 and weight 1, so
        // ⟦P⟧(R) = 1 must stay inside the bounds.
        assert!(lo_on <= 1.0 && 1.0 <= hi_on, "[{lo_on}, {hi_on}]");
    }

    #[test]
    fn facts_and_lints_are_exposed() {
        // A deliberate modelling mistake: uniform(1, 0) has an inverted
        // support, and the `if 2 <= 1` branch is unreachable.
        let a = analyzer("if 2 <= 1 then sample else observe sample from uniform(1, 0); sample");
        assert!(a.facts().was_evaluated(a.program().root.id));
        let lints = a.lints();
        assert!(!lints.is_empty(), "expected lints, got none");
        let kinds: Vec<&str> = lints.iter().map(|l| l.kind.name()).collect();
        assert!(kinds.contains(&"unreachable-branch"), "{kinds:?}");
        // Deliberately clean models stay lint-free.
        let clean = analyzer("let x = sample in score(x); x");
        assert!(clean.lints().is_empty(), "{:?}", clean.lints());
    }

    #[test]
    fn clear_cache_resets_counters_not_results() {
        let a = analyzer("sample");
        let u = Interval::new(0.1, 0.9);
        let r1 = a.denotation_bounds(u);
        a.clear_cache();
        assert_eq!(a.cache_stats(), CacheStats::default());
        let r2 = a.denotation_bounds(u);
        assert_eq!(r1, r2);
        let s = a.cache_stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, a.paths().len() as u64);
    }
}
