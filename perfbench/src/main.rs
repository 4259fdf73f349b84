//! `perfbench` — the GuBPI benchmark: time-to-bounds, tightness and
//! serve latency on three workloads, with per-layer numbers from a
//! separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload pedestrian|grid-refine|serve-mixed --seed N
//!           --seconds S --trace 0|1 [--out DIR]
//! perfbench --make-reference [--samples N]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed query or
//! check makes the process exit with status 1.

mod batch;
mod layers;
mod mirror;
mod reference;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use gubpi_serve::json::{obj, Json};

/// End-to-end metrics, reported by the untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("bound_gap", "mass"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.typecheck_ms", "ms"),
    ("types.interval_typing_ms", "ms"),
    ("analysis.facts_ms", "ms"),
    ("symbolic.exec_ms", "ms"),
    ("symbolic.paths", "count"),
    ("symbolic.linear_paths", "count"),
    ("symbolic.top_paths", "count"),
    ("kernel.compile_ms", "ms"),
    ("kernel.tapes", "count"),
    ("kernel.tape_instrs", "count"),
    ("kernel.cells", "count"),
    ("kernel.cells_per_s", "1/s"),
    ("plan.linear_ms", "ms"),
    ("plan.grid_ms", "ms"),
    ("plan.linear_combos", "count"),
    ("plan.grid_cells", "count"),
    ("sweep.linear_ms", "ms"),
    ("sweep.linear_regions", "count"),
    ("sweep.linear_yield", "ratio"),
    ("sweep.grid_ms", "ms"),
    ("sweep.grid_regions", "count"),
    ("refine.ms", "ms"),
    ("refine.rounds", "count"),
    ("refine.splits", "count"),
    ("refine.gap_closed_per_s", "mass/s"),
    ("pool.dispatches", "count"),
    ("pool.path_tasks", "count"),
    ("pool.region_tasks", "count"),
    ("pool.path_steals", "count"),
    ("pool.region_steals", "count"),
    ("pool.inline_runs", "count"),
    ("analyze.build_ms", "ms"),
    ("analyze.query_ms", "ms"),
    ("analyze.self_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.rtt_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Queries (batch) or requests (serve) answered, traced or not.
    pub attempted: u64,
    /// One entry per failed query, refused request or failed check.
    pub failures: Vec<String>,
    /// Every metric of the requested kind, by name.
    pub metrics: HashMap<&'static str, f64>,
    /// Spans of the traced passes as JSON lines (empty when untraced).
    pub spans_jsonl: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The engine's `Default` impls and the daemon read `GUBPI_*`
    // variables; a run under any of them would measure another
    // configuration than the one recorded.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GUBPI_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    if raw.first().map(String::as_str) == Some("--make-reference") {
        let samples = raw
            .iter()
            .position(|a| a == "--samples")
            .and_then(|i| raw.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(200_000);
        reference::make(samples);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "pedestrian" => batch::run(batch::pedestrian(), &args, epoch),
        "grid-refine" => batch::run(batch::grid_refine(), &args, epoch),
        "serve-mixed" => serve::run(&args, epoch),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.out {
        if !outcome.spans_jsonl.is_empty() {
            let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &outcome.spans_jsonl))
            {
                Ok(()) => println!("spans written to {path}"),
                Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
            }
        }
    }
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in spec {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("metric {name:<26} {value:>18.6} {unit}");
        metrics.push((
            name,
            obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    let failed = outcome.failures.len() as u64;
    let correct = failed == 0
        && metrics.iter().all(|(_, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite)
        });
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", result.to_wire());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
