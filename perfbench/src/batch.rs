//! The batch workloads: a fixed query set answered once per pass
//! through `Analyzer`, with a fresh `SharedQueryCache` per pass.
//!
//! * `pedestrian` — the paper's headline model (Fig. 1/7) under the
//!   linear semantics: every path is linear, so nearly all of the time
//!   is the §6.4 polytope sweep, used both boxed (histogram) and
//!   query-folded (posterior).
//! * `grid-refine` — the §6.3 grid semantics on the Table 2 posteriors,
//!   one Fig. 6 query per model and the Fig. 5 histograms: compiled-tape
//!   kernel cells, adaptive refinement and pool region stealing, with
//!   no polytope volumes at all.

use std::time::Instant;

use bench::models;
use gubpi_core::{
    AnalysisOptions, Analyzer, HistogramBounds, Method, PathBoundOptions, SharedQueryCache,
    Threads, WorkerPool,
};
use gubpi_interval::Interval;
use gubpi_symbolic::{kernel_stats, SymExecOptions};

use crate::layers::{per_layer, Engine, ServeLayer, Snapshot, TracedPass};
use crate::mirror::{load, Counts, Mirror, PathMemo};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{write_jsonl, Tracer, ROOT};
use crate::{Args, Outcome};

/// Participation width of every batch query.
const WIDTH: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What a query asks of its analyzer.
#[derive(Copy, Clone)]
pub enum Ask {
    Histogram { domain: Interval, bins: usize },
    Posterior(Interval),
    Denotation(Interval),
}

/// What a query's answer is checked against, beyond `lo ≤ hi`.
#[derive(Copy, Clone)]
pub enum Check {
    None,
    /// A Table 2 exact rational posterior `num/den`.
    Exact(i128, i128),
    /// The stored pedestrian reference (finite bounds containing it).
    Pedestrian,
}

pub struct Query {
    pub label: String,
    pub source: &'static str,
    pub opts: AnalysisOptions,
    pub ask: Ask,
    pub check: Check,
}

pub struct Workload {
    pub queries: Vec<Query>,
    /// Untimed queries answered during set-up (disjoint from `queries`).
    pub warmup: Vec<Query>,
}

/// Every analysis option set explicitly, so no `Default` impl (and no
/// environment variable behind one) decides what is measured.
pub fn pinned_opts(
    unfold: u32,
    method: Method,
    splits: usize,
    region_budget: usize,
) -> AnalysisOptions {
    AnalysisOptions {
        sym: SymExecOptions {
            max_fix_unfoldings: unfold,
            max_paths: 20_000,
            fuel: 5_000_000,
            max_depth: 1_200,
            frontier_workers: WIDTH,
        },
        bounds: PathBoundOptions {
            splits,
            region_budget,
            max_boxed: 2,
            certified_volumes: false,
            volume_budget: 4_000,
            exact_dim_cap: 7,
            use_kernel: true,
            use_tail: true,
        },
        method,
        threads: Threads::Fixed(WIDTH),
        prune: true,
        refine: true,
        gap_target: 0.0,
        max_refine_depth: 12,
    }
}

pub fn pedestrian() -> Workload {
    let opts = |unfold| pinned_opts(unfold, Method::Auto, 16, 100_000);
    let query = |label: &str, unfold, ask, check| Query {
        label: label.to_string(),
        source: models::PEDESTRIAN,
        opts: opts(unfold),
        ask,
        check,
    };
    Workload {
        queries: vec![
            query(
                "pedestrian/histogram [0,3] x12",
                4,
                Ask::Histogram {
                    domain: Interval::new(0.0, 3.0),
                    bins: 12,
                },
                Check::Pedestrian,
            ),
            query(
                "pedestrian/posterior [1,1.25]",
                4,
                Ask::Posterior(Interval::new(1.0, 1.25)),
                Check::Pedestrian,
            ),
        ],
        warmup: vec![
            query(
                "pedestrian/warm-up histogram [0,3] x6 unfold 2",
                2,
                Ask::Histogram {
                    domain: Interval::new(0.0, 3.0),
                    bins: 6,
                },
                Check::None,
            ),
            query(
                "pedestrian/warm-up posterior [2,3] unfold 2",
                2,
                Ask::Posterior(Interval::new(2.0, 3.0)),
                Check::None,
            ),
        ],
    }
}

pub fn grid_refine() -> Workload {
    let mut queries = Vec::new();
    let mut warmup = Vec::new();
    let event = Interval::new(0.5, 1.5);
    for b in models::table2() {
        let opts = pinned_opts(8, Method::Grid, 24, 400_000);
        // The two slowest models stay out of the warm-up.
        if !matches!(b.name, "grass" | "noisyOr") {
            warmup.push(Query {
                label: format!("table2/{} warm-up posterior [-0.5,0.5]", b.name),
                source: b.source,
                opts,
                ask: Ask::Posterior(Interval::new(-0.5, 0.5)),
                check: Check::None,
            });
        }
        queries.push(Query {
            label: format!("table2/{} posterior", b.name),
            source: b.source,
            opts,
            ask: Ask::Posterior(event),
            check: Check::Exact(b.exact.0, b.exact.1),
        });
    }
    for b in models::figure6() {
        let mid = 0.5 * (b.domain.lo() + b.domain.hi());
        queries.push(Query {
            label: format!("fig{} denotation [{}, {mid}]", b.id, b.domain.lo()),
            source: b.source,
            opts: pinned_opts(b.unfold, Method::Grid, b.splits, 100_000),
            ask: Ask::Denotation(Interval::new(b.domain.lo(), mid)),
            check: Check::None,
        });
    }
    for b in models::figure5() {
        queries.push(Query {
            label: format!("fig{} histogram", b.id),
            source: b.source,
            opts: pinned_opts(b.unfold, Method::Grid, b.splits, 100_000),
            ask: Ask::Histogram {
                domain: b.domain,
                bins: b.bins,
            },
            check: Check::None,
        });
    }
    Workload { queries, warmup }
}

pub enum Answer {
    Bounds(f64, f64),
    Histogram(HistogramBounds),
}

impl Answer {
    /// Every number the answer reports, for bit-for-bit comparisons.
    fn numbers(&self) -> Vec<f64> {
        match self {
            Answer::Bounds(lo, hi) => vec![*lo, *hi],
            Answer::Histogram(h) => {
                let mut v: Vec<f64> = (0..h.bins())
                    .flat_map(|i| {
                        let (lo, hi) = h.unnormalized(i);
                        [lo, hi]
                    })
                    .collect();
                v.extend([h.left_tail.0, h.left_tail.1, h.right_tail.0, h.right_tail.1]);
                v
            }
        }
    }

    /// The `[lo, hi]` pairs a user reads: the bounds, or every
    /// normalised bin.
    fn intervals(&self) -> Vec<(f64, f64)> {
        match self {
            Answer::Bounds(lo, hi) => vec![(*lo, *hi)],
            Answer::Histogram(h) => h.normalized().iter().map(|b| (b.lo, b.hi)).collect(),
        }
    }

    /// Σ (hi − lo) over [`Answer::intervals`].
    pub fn gap(&self) -> f64 {
        self.intervals().iter().map(|(lo, hi)| hi - lo).sum()
    }
}

fn same_bits(a: &Answer, b: &Answer) -> bool {
    let (x, y) = (a.numbers(), b.numbers());
    x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// The checks every answer must pass; one message per failure.
fn check_answer(q: &Query, a: &Answer) -> Vec<String> {
    let mut out = Vec::new();
    let pairs = a.intervals();
    if pairs.is_empty() {
        out.push(format!(
            "{}: no posterior bins (Z upper bound is 0)",
            q.label
        ));
    }
    let mut all = pairs.clone();
    if let Answer::Histogram(h) = a {
        all.extend((0..h.bins()).map(|i| h.unnormalized(i)));
        all.push(h.z_bounds());
    }
    for (lo, hi) in all {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            out.push(format!(
                "{}: bounds [{lo}, {hi}] are not an interval",
                q.label
            ));
        }
    }
    match q.check {
        Check::None => {}
        Check::Exact(num, den) => {
            let exact = num as f64 / den as f64;
            let (lo, hi) = pairs[0];
            if !(lo <= exact + 1e-12 && exact <= hi + 1e-12) {
                out.push(format!(
                    "{}: exact {num}/{den} outside [{lo}, {hi}]",
                    q.label
                ));
            }
        }
        Check::Pedestrian => out.extend(crate::reference::check_pedestrian(&q.label, a)),
    }
    out
}

fn answer_untraced(
    q: &Query,
    cache: &SharedQueryCache,
    pool: &WorkerPool,
) -> Result<(Answer, usize), String> {
    let a = Analyzer::from_source_with(q.source, q.opts, cache, pool)
        .map_err(|e| format!("{}: {e}", q.label))?;
    let answer = match q.ask {
        Ask::Histogram { domain, bins } => Answer::Histogram(a.histogram(domain, bins)),
        Ask::Posterior(u) => {
            let (lo, hi) = a.posterior_probability(u);
            Answer::Bounds(lo, hi)
        }
        Ask::Denotation(u) => {
            let (lo, hi) = a.denotation_bounds(u);
            Answer::Bounds(lo, hi)
        }
    };
    Ok((answer, a.paths().len()))
}

fn answer_traced(m: &Mirror<'_>, q: &Query) -> Result<Answer, String> {
    m.tr.span("bench.query", ROOT, m.request, |r| {
        let b = m
            .build(q.source, r)
            .map_err(|e| format!("{}: {e}", q.label))?;
        Ok(match q.ask {
            Ask::Histogram { domain, bins } => {
                Answer::Histogram(m.histogram_query(&b, domain, bins, r))
            }
            Ask::Posterior(u) => {
                let (lo, hi) = m.posterior_query(&b, u, r);
                Answer::Bounds(lo, hi)
            }
            Ask::Denotation(u) => {
                let (lo, hi) = m.denotation_query(&b, u, r);
                Answer::Bounds(lo, hi)
            }
        })
    })
}

fn snapshot(pool: &WorkerPool, cache: &SharedQueryCache) -> Snapshot {
    Snapshot::take(kernel_stats(), pool.stats(), cache.stats())
}

/// One untraced pass.
struct Pass {
    wall_s: f64,
    latency_ms: Vec<f64>,
    answers: Vec<Option<Answer>>,
    paths: usize,
    engine: Engine,
}

pub fn run(w: Workload, args: &Args, epoch: Instant) -> Outcome {
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // Set-up: a fresh pool with its worker spawned, plus the warm-up
    // queries, repeated; the first repetition starts at process start.
    let mut setup_s = Vec::new();
    let mut pool = WorkerPool::new();
    for k in 0..SETUPS {
        let t0 = if k == 0 { epoch } else { Instant::now() };
        pool = WorkerPool::new();
        pool.reserve(WIDTH);
        for q in &w.warmup {
            if let Err(e) = answer_untraced(q, &SharedQueryCache::new(), &pool) {
                failures.push(e);
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut traced_answers: Vec<Vec<Option<Answer>>> = Vec::new();
    let start = Instant::now();
    let mut pass_walls: Vec<f64> = Vec::new();
    while untraced.is_empty()
        || (args.trace && traced.is_empty())
        || start.elapsed().as_secs_f64() + median(&pass_walls) <= args.seconds
    {
        // Queries share the pass's cache, and a path one query bounds
        // can be a cache hit for a later one; a fixed order keeps that
        // sharing, and with it every work count, the same in every pass.
        let cache = SharedQueryCache::new();
        let before = snapshot(&pool, &cache);
        let t = Instant::now();
        if args.trace && traced.len() < untraced.len() {
            let tr = Tracer::new(epoch);
            let counts = Counts::default();
            let memo = PathMemo::default();
            let answers: Vec<Option<Answer>> = w
                .queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let m = Mirror {
                        tr: &tr,
                        counts: &counts,
                        memo: &memo,
                        pool: &pool,
                        opts: q.opts,
                        request: i as u64,
                    };
                    attempted += 1;
                    answer_traced(&m, q).map_err(|e| failures.push(e)).ok()
                })
                .collect();
            let wall_s = t.elapsed().as_secs_f64();
            let engine = before.delta(&snapshot(&pool, &cache));
            pass_walls.push(wall_s);
            traced.push(TracedPass {
                wall_s,
                spans: tr.into_spans(),
                counts,
                engine,
            });
            traced_answers.push(answers);
        } else {
            let mut latency_ms = Vec::with_capacity(w.queries.len());
            let mut paths = 0;
            let answers: Vec<Option<Answer>> = w
                .queries
                .iter()
                .map(|q| {
                    let tq = Instant::now();
                    attempted += 1;
                    let (a, p) = answer_untraced(q, &cache, &pool)
                        .map_err(|e| failures.push(e))
                        .ok()?;
                    latency_ms.push(tq.elapsed().as_secs_f64() * 1e3);
                    paths += p;
                    Some(a)
                })
                .collect();
            let wall_s = t.elapsed().as_secs_f64();
            let engine = before.delta(&snapshot(&pool, &cache));
            pass_walls.push(wall_s);
            untraced.push(Pass {
                wall_s,
                latency_ms,
                answers,
                paths,
                engine,
            });
        }
    }

    // Checks: every answer of the first pass, then bit-identity of every
    // later pass (traced or not) with it.
    let first = &untraced[0].answers;
    for (q, a) in w.queries.iter().zip(first) {
        if let Some(a) = a {
            failures.extend(check_answer(q, a));
        }
    }
    let later = untraced[1..]
        .iter()
        .map(|p| (&p.answers, "untraced"))
        .chain(traced_answers.iter().map(|a| (a, "traced")));
    for (answers, kind) in later {
        for ((q, a), b) in w.queries.iter().zip(first).zip(answers) {
            if let (Some(a), Some(b)) = (a, b) {
                if !same_bits(a, b) {
                    failures.push(format!(
                        "{}: {kind} pass bounds differ from pass 0",
                        q.label
                    ));
                }
            }
        }
    }
    // Deterministic work counts must repeat exactly.
    let work = |p: &Pass| {
        let e = p.engine;
        (e.cells, e.tapes, e.refine_splits, e.refine_rounds, p.paths)
    };
    let w0 = work(&untraced[0]);
    for (k, p) in untraced.iter().enumerate().skip(1) {
        if work(p) != w0 {
            failures.push(format!(
                "untraced pass {k}: work counts (cells, tapes, refine splits, refine rounds, \
                 paths) {:?} differ from pass 0 {w0:?}",
                work(p)
            ));
        }
    }
    let plan = |c: &Counts| {
        [
            &c.linear_combos,
            &c.grid_cells,
            &c.linear_regions,
            &c.grid_regions,
        ]
        .map(load)
    };
    for (k, t) in traced.iter().enumerate() {
        let own = load(&t.counts.own_tapes);
        let paths = load(&t.counts.paths) as usize;
        if (t.engine.cells, t.engine.tapes - own, paths) != (w0.0, w0.1, w0.4) {
            failures.push(format!(
                "traced pass {k}: work counts differ from the untraced passes"
            ));
        }
        if plan(&t.counts) != plan(&traced[0].counts) {
            failures.push(format!(
                "traced pass {k}: plan counts differ from traced pass 0"
            ));
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let mut metrics = std::collections::HashMap::new();
    let mut spans_jsonl = String::new();
    if args.trace {
        let engines: Vec<Engine> = untraced.iter().map(|p| p.engine).collect();
        metrics = per_layer(&traced, &engines, &walls, &ServeLayer::default());
        for (k, t) in traced.iter().enumerate() {
            write_jsonl(&mut spans_jsonl, k, &t.spans);
        }
    } else {
        let latency: Vec<f64> = untraced.iter().flat_map(|p| p.latency_ms.clone()).collect();
        let answered = latency.len() as f64;
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("wall_s", median(&walls));
        metrics.insert("latency_p50_ms", quantile(&latency, 0.50));
        metrics.insert("latency_p95_ms", quantile(&latency, 0.95));
        metrics.insert("throughput_qps", answered / walls.iter().sum::<f64>());
        metrics.insert(
            "bound_gap",
            first.iter().flatten().map(Answer::gap).sum::<f64>(),
        );
        metrics.insert("peak_rss_mb", peak_rss_mb());
        println!(
            "{} untraced passes of {} queries; {} latency samples",
            untraced.len(),
            w.queries.len(),
            latency.len()
        );
    }
    Outcome {
        attempted,
        failures,
        metrics,
        spans_jsonl,
    }
}
