//! Per-layer metrics of a traced run.
//!
//! Times come from the traced passes (self time of each layer's spans,
//! per pass, median over passes); engine counters come from before/after
//! deltas of the process-global `kernel_stats()`, `WorkerPool::stats()`
//! and `SharedQueryCache::stats()` around the untraced passes, when
//! nothing else runs in the process.

use std::collections::HashMap;

use gubpi_core::{CacheStats, PoolStats};
use gubpi_symbolic::KernelStats;

use crate::mirror::{load, Counts};
use crate::stats::{median, median_u64};
use crate::trace::{self_ns_by_name, Span};

/// Engine counter deltas over one pass.
#[derive(Copy, Clone, Default)]
pub struct Engine {
    pub tapes: u64,
    pub tape_instrs: u64,
    pub cells: u64,
    pub dispatches: u64,
    pub inline_runs: u64,
    pub path_tasks: u64,
    pub region_tasks: u64,
    pub path_steals: u64,
    pub region_steals: u64,
    pub refine_rounds: u64,
    pub refine_splits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Snapshot of the counters an [`Engine`] delta is taken from.
#[derive(Copy, Clone)]
pub struct Snapshot {
    kernel: KernelStats,
    pool: PoolStats,
    cache: CacheStats,
}

impl Snapshot {
    pub fn take(kernel: KernelStats, pool: PoolStats, cache: CacheStats) -> Snapshot {
        Snapshot {
            kernel,
            pool,
            cache,
        }
    }

    pub fn delta(&self, after: &Snapshot) -> Engine {
        let (k0, k1) = (&self.kernel, &after.kernel);
        let (p0, p1) = (&self.pool, &after.pool);
        let (c0, c1) = (&self.cache, &after.cache);
        Engine {
            tapes: k1.tapes - k0.tapes,
            tape_instrs: k1.tape_instrs - k0.tape_instrs,
            cells: k1.cells - k0.cells,
            dispatches: p1.dispatches - p0.dispatches,
            inline_runs: p1.inline_runs - p0.inline_runs,
            path_tasks: p1.path_tasks - p0.path_tasks,
            region_tasks: p1.region_tasks - p0.region_tasks,
            path_steals: p1.path_steals - p0.path_steals,
            region_steals: p1.region_steals - p0.region_steals,
            refine_rounds: p1.refine_rounds - p0.refine_rounds,
            refine_splits: p1.refine_splits - p0.refine_splits,
            cache_hits: c1.hits.saturating_sub(c0.hits),
            cache_misses: c1.misses.saturating_sub(c0.misses),
        }
    }
}

/// One traced pass: its wall time, spans, replay counters and the
/// engine counter deltas around it.
pub struct TracedPass {
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub engine: Engine,
}

/// Serve-only layer numbers, per request of the traced passes.
#[derive(Default)]
pub struct ServeLayer {
    pub rtt_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub overloaded: u64,
    pub errors: u64,
}

/// Every per-layer metric, by name, in the order of `PER_LAYER`.
pub fn per_layer(
    traced: &[TracedPass],
    untraced: &[Engine],
    untraced_wall_s: &[f64],
    serve: &ServeLayer,
) -> HashMap<&'static str, f64> {
    let selfs: Vec<HashMap<&'static str, u64>> =
        traced.iter().map(|t| self_ns_by_name(&t.spans)).collect();
    // Median over traced passes of a per-pass value.
    let per_pass =
        |f: &dyn Fn(usize) -> f64| -> f64 { median(&(0..traced.len()).map(f).collect::<Vec<_>>()) };
    let self_ms = |names: &[&str]| -> f64 {
        per_pass(&|i| {
            names
                .iter()
                .map(|n| selfs[i].get(n).copied().unwrap_or(0) as f64 / 1e6)
                .sum()
        })
    };
    let inclusive_ms = |name: &str| -> f64 {
        per_pass(&|i| {
            traced[i]
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ns() as f64 / 1e6)
                .sum()
        })
    };
    let count = |f: &dyn Fn(&Counts) -> u64| per_pass(&|i| f(&traced[i].counts) as f64);
    let engine =
        |f: &dyn Fn(&Engine) -> u64| median_u64(&untraced.iter().map(f).collect::<Vec<_>>());

    let mut m: HashMap<&'static str, f64> = HashMap::new();
    m.insert("lang.parse_ms", self_ms(&["lang.parse"]));
    m.insert("lang.typecheck_ms", self_ms(&["lang.typecheck"]));
    m.insert(
        "types.interval_typing_ms",
        self_ms(&["types.interval_typing"]),
    );
    m.insert("analysis.facts_ms", self_ms(&["analysis.facts"]));
    m.insert("symbolic.exec_ms", self_ms(&["symbolic.exec"]));
    m.insert("symbolic.paths", count(&|c| load(&c.paths)));
    m.insert("symbolic.linear_paths", count(&|c| load(&c.linear_paths)));
    m.insert("symbolic.top_paths", count(&|c| load(&c.top_paths)));

    m.insert(
        "kernel.compile_ms",
        self_ms(&["kernel.compile", "kernel.seed"]),
    );
    m.insert("kernel.tapes", engine(&|e| e.tapes));
    m.insert("kernel.tape_instrs", engine(&|e| e.tape_instrs));
    let cells = engine(&|e| e.cells);
    m.insert("kernel.cells", cells);
    let grid_wall_s = count(&|c| load(&c.grid_wall_ns)) / 1e9;
    m.insert(
        "kernel.cells_per_s",
        if grid_wall_s > 0.0 {
            cells / grid_wall_s
        } else {
            0.0
        },
    );

    m.insert("plan.linear_ms", self_ms(&["plan.linear"]));
    m.insert("plan.grid_ms", self_ms(&["plan.grid", "plan.sampleless"]));
    let combos = count(&|c| load(&c.linear_combos));
    m.insert("plan.linear_combos", combos);
    m.insert("plan.grid_cells", count(&|c| load(&c.grid_cells)));

    m.insert("sweep.linear_ms", count(&|c| load(&c.linear_busy_ns)) / 1e6);
    let linear_regions = count(&|c| load(&c.linear_regions));
    m.insert("sweep.linear_regions", linear_regions);
    m.insert(
        "sweep.linear_yield",
        if combos > 0.0 {
            linear_regions / combos
        } else {
            0.0
        },
    );
    m.insert("sweep.grid_ms", count(&|c| load(&c.grid_busy_ns)) / 1e6);
    m.insert("sweep.grid_regions", count(&|c| load(&c.grid_regions)));

    let refine_ms = self_ms(&["refine"]);
    m.insert("refine.ms", refine_ms);
    m.insert("refine.rounds", engine(&|e| e.refine_rounds));
    m.insert("refine.splits", engine(&|e| e.refine_splits));
    m.insert(
        "refine.gap_closed_per_s",
        per_pass(&|i| {
            let s = selfs[i].get("refine").copied().unwrap_or(0) as f64 / 1e9;
            let closed = *traced[i].counts.gap_closed.lock().expect("counts poisoned");
            if s > 0.0 {
                closed / s
            } else {
                0.0
            }
        }),
    );

    m.insert("pool.dispatches", engine(&|e| e.dispatches));
    m.insert("pool.path_tasks", engine(&|e| e.path_tasks));
    m.insert("pool.region_tasks", engine(&|e| e.region_tasks));
    m.insert("pool.path_steals", engine(&|e| e.path_steals));
    m.insert("pool.region_steals", engine(&|e| e.region_steals));
    m.insert("pool.inline_runs", engine(&|e| e.inline_runs));

    m.insert("analyze.build_ms", inclusive_ms("analyze.build"));
    m.insert("analyze.query_ms", inclusive_ms("analyze.query"));
    m.insert(
        "analyze.self_ms",
        self_ms(&["analyze.build", "analyze.query", "analyze.denotation"]),
    );
    let hits = engine(&|e| e.cache_hits);
    let misses = engine(&|e| e.cache_misses);
    m.insert("cache.hits", hits);
    m.insert("cache.misses", misses);
    m.insert(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );

    let transport: Vec<f64> = serve
        .rtt_ms
        .iter()
        .zip(&serve.compute_ms)
        .map(|(r, c)| r - c)
        .collect();
    m.insert("serve.rtt_ms", median(&serve.rtt_ms));
    m.insert("serve.compute_ms", median(&serve.compute_ms));
    m.insert("serve.transport_ms", median(&transport));
    m.insert("serve.overloaded", serve.overloaded as f64);
    m.insert("serve.errors", serve.errors as f64);

    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    m.insert("trace.overhead_s", traced_wall - median(untraced_wall_s));
    m.insert("trace.spans", per_pass(&|i| traced[i].spans.len() as f64));
    m
}
