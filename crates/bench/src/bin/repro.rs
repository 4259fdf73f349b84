//! `repro` — regenerates every table and figure of the GuBPI paper.
//!
//! ```text
//! repro table1        Table 1/4: probability estimation, GuBPI vs [56]
//! repro table2        Table 2: discrete models vs exact posteriors
//! repro table3        Table 3: GuBPI vs SBC running times
//! repro pedestrian    Fig. 1/7: pedestrian bounds vs IS vs (wrong) HMC
//! repro fig5          Fig. 5a–5d: non-recursive histogram bounds
//! repro fig6          Fig. 6a–6f: recursive histogram bounds
//! repro ablation      linear (§6.4) vs grid (§6.3) semantics; depth sweep
//! repro query M L H   one-shot query with typed exit codes (see --help)
//! repro all           everything above
//! ```
//!
//! Every flag is parsed once, before any work starts, into one
//! [`RunConfig`]; the commands read it through the [`Run`] they are
//! handed. Timing and tightness measurements live in `perfbench/`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bench::models;
use bench::{analyze_prob_benchmark, analyzer_for_figure, baseline56_bounds, mc_probability};
use bench::{Run, RunConfig};
use gubpi_core::{
    lint_program, render_histogram, Analyzer, Method, ProgramFacts, QueryError, QueryOutcome,
    Severity, Threads, WorkerPool,
};
use gubpi_inference::hmc::{hmc_sample, HmcOptions};
use gubpi_inference::importance::{importance_sample, ImportanceOptions};
use gubpi_inference::sbc::{run_sbc, SbcConfig};
use gubpi_interval::Interval;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    // The last line of the panic-containment audit: no input may leave
    // this binary via an unwind. Anything that does slip through every
    // inner boundary is caught here and mapped to the documented exit
    // code 70 with a one-line message (the default hook has already
    // printed the panic location to stderr by the time we land here).
    if catch_unwind(run).is_err() {
        eprintln!("repro: internal panic reached main; this is a bug (exit 70)");
        std::process::exit(70);
    }
}

const USAGE: &str = "\
repro — regenerates the tables and figures of the GuBPI paper

USAGE: repro [--threads N|auto|off] [--cache-cap N] [--no-tail] [--no-refine]
       [--gap-target X] [--timeout-ms N] [--lint] [--deny-warnings] [--stats]
       [COMMAND]

COMMANDS:
  table1        Table 1/4: probability estimation, GuBPI vs [56]
  table2        Table 2: discrete models vs exact posteriors
  table3        Table 3: GuBPI vs SBC running times
  pedestrian    Fig. 1/7: pedestrian bounds vs IS vs (wrong) HMC
  fig5          Fig. 5a-5d: non-recursive histogram bounds
  fig6          Fig. 6a-6f: recursive histogram bounds
  ablation      linear (§6.4) vs grid (§6.3) semantics; depth sweep
  analyze [F]   static analysis only: facts + lints for every built-in
                model (or those whose label contains F); no execution
  smoke         one tiny model end to end (seconds; for diagnosing
                an installation together with --stats)
  query M L H   one query on catalog model M (or inline source) over
                [L, H]; add --posterior for the normalized probability.
                Typed failures exit 64-69 (invalid-interval, invalid-
                domain, no-bins, deadline-exceeded, worker-panicked,
                overloaded); a panic reaching main exits 70
  all           table1, table2, fig5, fig6, ablation, pedestrian and
                table3 (the default)

OPTIONS:
  --threads N|auto|off   worker threads for the bounding engine (N > 0;
                         results are bit-identical)
  --cache-cap N          bound the shared per-path query cache at N entries
                         (coarse-LRU eviction)
  --no-tail              disable geometric tail enclosures on budget-⊤ paths
                         (upper bounds revert to +∞ where a ⊤ path exists,
                         lower bounds are bit-identical)
  --no-refine            disable gap-driven adaptive region refinement (grid
                         queries fall back to the one-shot uniform sweep,
                         bit-identically)
  --gap-target X         stop refining a query once its summed bound gap
                         reaches X (0 = refine to the full cell budget)
  --timeout-ms N         run under one cooperative deadline of N ms; queries
                         that outlive it return anytime sound degraded
                         enclosures instead of blocking
  --lint                 print static-analysis findings for every model a
                         command analyzes
  --deny-warnings        exit 1 on warning-severity lints (with `analyze`,
                         or with --lint on any other command)
  --stats                print cache, worker-pool, prune and kernel counters
                         after the run (tape length, CSE savings, cells/sec)

ENVIRONMENT:
  GUBPI_THREADS          worker count behind `--threads auto` (the default)
  GUBPI_FAULT            panic@N|delay@N|cancel@N: deterministic fault
                         injection at the N-th task boundary";

/// Parses every global flag, wherever it appears, into one
/// [`RunConfig`]. Returns the config with the remaining arguments (the
/// command word and its operands), or the usage error to print.
fn parse_flags(args: Vec<String>) -> Result<(RunConfig, Vec<String>), String> {
    let mut config = RunConfig::default();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| "<missing>".to_owned());
        match arg.as_str() {
            "--threads" => {
                let v = value();
                config.opts.threads = Threads::parse(&v).ok_or_else(|| {
                    format!(
                        "--threads expects a positive worker count, `auto` or `off`; got `{v}` \
                         (use `off` for sequential execution, not `0`)"
                    )
                })?;
            }
            "--cache-cap" => {
                let v = value();
                let cap = v.trim().parse::<usize>().ok().filter(|&cap| cap > 0);
                config.cache_cap = Some(cap.ok_or_else(|| {
                    format!(
                        "--cache-cap expects a positive entry count; got `{v}` \
                         (omit the flag for an unbounded cache)"
                    )
                })?);
            }
            "--no-tail" => config.opts.bounds.use_tail = false,
            "--no-refine" => config.opts.refine = false,
            "--gap-target" => {
                let v = value();
                let gap = v.trim().parse::<f64>().ok();
                config.opts.gap_target =
                    gap.filter(|g| g.is_finite() && *g >= 0.0).ok_or_else(|| {
                        format!(
                            "--gap-target expects a finite gap >= 0; got `{v}` \
                             (use 0 to refine to the full cell budget)"
                        )
                    })?;
            }
            "--timeout-ms" => {
                let v = value();
                let ms = v.trim().parse::<u64>().map_err(|_| {
                    format!(
                        "--timeout-ms expects a millisecond count; got `{v}` \
                         (omit the flag for an unlimited run)"
                    )
                })?;
                config.timeout = Some(Duration::from_millis(ms));
            }
            "--lint" => config.lint = true,
            "--deny-warnings" => config.deny_warnings = true,
            "--stats" => config.stats = true,
            "--help" | "--posterior" => rest.push(arg),
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown option `{flag}`; run `repro --help` for usage"
                ))
            }
            _ => rest.push(arg),
        }
    }
    Ok((config, rest))
}

fn run() {
    let t_start = Instant::now();
    // Deterministic chaos, same knob as the daemon: an armed
    // `GUBPI_FAULT=panic@N|delay@N|cancel@N` fires at the N-th task
    // boundary of the run (the exit-code smoke tests drive `panic@0`
    // through `repro query` and must get the typed exit 68, not an
    // unwind).
    if let Some(plan) = gubpi_pool::arm_fault_from_env() {
        eprintln!("repro: fault injection armed: {plan:?}");
    }
    let (config, args) = match parse_flags(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let run = Run::new(config);
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "--help" | "-h" | "help" => println!("{USAGE}"),
        "table1" | "table4" => table1(&run),
        "table2" => table2(&run),
        "table3" => table3(&run),
        "smoke" => smoke(&run),
        "query" => {
            let code = query_cmd(&run, &args[1..]);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "analyze" => analyze(args.get(1).map(String::as_str), config.deny_warnings),
        "pedestrian" | "fig1" | "fig7" => pedestrian(&run),
        "fig5" => fig5(&run),
        "fig6" => fig6(&run),
        "ablation" | "ablation-linear" | "ablation-depth" => ablation(&run),
        "all" => {
            table1(&run);
            table2(&run);
            fig5(&run);
            fig6(&run);
            ablation(&run);
            pedestrian(&run);
            table3(&run);
        }
        other => {
            eprintln!("unknown command `{other}`; run `repro --help` for usage");
            std::process::exit(2);
        }
    }
    if config.stats {
        stats(&run, t_start.elapsed().as_secs_f64());
    }
    if config.lint && config.deny_warnings {
        let warnings = run.census().lint_warnings;
        if warnings > 0 {
            eprintln!("--deny-warnings: {warnings} warning-severity lints");
            std::process::exit(1);
        }
    }
}

/// `analyze [FILTER]`: static analysis only — no symbolic execution, no
/// bounding. Runs the pre-execution abstract interpreter over every
/// built-in model (or those whose label contains FILTER) and prints the
/// facts summary plus each lint at its `line:col` source location. With
/// `--deny-warnings`, any warning-severity finding fails the run — the
/// repository's models must stay warning-clean (notes are expected:
/// recursion without weight contraction is deliberate here).
fn analyze(filter: Option<&str>, deny_warnings: bool) {
    println!("== Static analysis: interval/weight facts and lints ==================");
    let mut matched = 0usize;
    let mut findings = 0usize;
    let mut warnings = 0usize;
    for (label, src) in models::catalog() {
        if let Some(f) = filter {
            if !label.contains(f) {
                continue;
            }
        }
        matched += 1;
        let program = gubpi_lang::parse(src).expect("built-in model parses");
        let simple = gubpi_lang::infer(&program).expect("built-in model type-checks");
        let typing = gubpi_types::infer_interval_types(&program, &simple);
        let facts = ProgramFacts::compute(&program, &typing);
        let lints = lint_program(&program, &typing, &facts);
        println!(
            "-- {label}: {} zero-weight scores, {} findings",
            facts.zero_score_count(),
            lints.len()
        );
        for l in &lints {
            if l.severity == Severity::Warning {
                warnings += 1;
            }
            println!("   {}", l.render(src));
        }
        findings += lints.len();
    }
    if matched == 0 {
        eprintln!(
            "no built-in model matches `{}`; run `repro analyze` to list all",
            filter.unwrap_or("")
        );
        std::process::exit(2);
    }
    println!("\n{matched} models analyzed: {findings} findings, {warnings} warnings");
    if deny_warnings && warnings > 0 {
        eprintln!("--deny-warnings: {warnings} warning-severity lints");
        std::process::exit(1);
    }
    println!();
}

/// `--stats`: per-path cache, persistent-pool and compiled-kernel
/// counters for the run.
fn stats(run: &Run, elapsed_s: f64) {
    let cache = run.cache();
    let s = cache.stats();
    println!("== Run statistics ====================================================");
    let cap = match cache.capacity() {
        Some(cap) => format!("{cap}"),
        None => "unbounded".to_owned(),
    };
    println!(
        "cache: {} hits, {} misses, {} evictions, {} entries resident (cap {cap})",
        s.hits,
        s.misses,
        s.evictions,
        cache.entry_count()
    );
    let census = run.census();
    if run.deadline().is_some() {
        let (timed, degraded) = (census.timed_queries, census.degraded_queries);
        let verdict = if degraded == 0 {
            "complete"
        } else {
            "degraded"
        };
        println!(
            "deadline: {timed} timed queries, {degraded} degraded ({verdict}), \
             min completeness {:.3}",
            census.min_completeness
        );
    }
    let p = WorkerPool::global().stats();
    println!(
        "pool:  {} workers spawned, {} dispatches, {} inline runs",
        p.spawned_workers, p.dispatches, p.inline_runs
    );
    if p.refine_rounds == 0 {
        println!("refine: no adaptive rounds (uniform sweeps only; see --no-refine)");
    } else {
        println!(
            "refine: {} adaptive rounds, {} cell splits",
            p.refine_rounds, p.refine_splits
        );
    }
    println!(
        "tasks: {} path, {} region chunks; steals: {} path, {} region",
        p.path_tasks, p.region_tasks, p.path_steals, p.region_steals
    );
    let r = census.exec;
    println!(
        "prune: {} zero-score continuations dropped",
        r.zero_score_drops
    );
    // Three-way ⊤ census: ranked ⊆ tail-enclosed ⊆ budget-truncated,
    // so the plain-tail and bare-⊤ counts are the set differences.
    println!(
        "trunc: {} budget-truncated (top) paths ({} with eventually-geometric tails, \
         {} with plain geometric tails, {} bare ⊤), {} approxFix-depth-truncated paths",
        r.budget_truncated_paths,
        r.ranked_tail_paths,
        r.tail_enclosed_paths.saturating_sub(r.ranked_tail_paths),
        r.budget_truncated_paths
            .saturating_sub(r.tail_enclosed_paths),
        r.depth_truncated_paths
    );
    let k = gubpi_symbolic::kernel_stats();
    if k.tapes == 0 {
        println!("kernel: no tapes compiled (no path needed a grid sweep)");
    } else {
        let saved = k.tree_nodes.saturating_sub(k.tape_instrs);
        let pct = if k.tree_nodes > 0 {
            100.0 * saved as f64 / k.tree_nodes as f64
        } else {
            0.0
        };
        println!(
            "kernel: {} tapes, {} instrs (CSE + folding saved {} of {} tree ops, {:.1}%), \
             {} cells at {:.0} cells/s over the whole run",
            k.tapes,
            k.tape_instrs,
            saved,
            k.tree_nodes,
            pct,
            k.cells,
            k.cells as f64 / elapsed_s.max(1e-9),
        );
    }
}

/// `smoke`: one tiny model end to end — seconds even in debug builds,
/// so `repro --stats smoke` is the cheapest way to check an
/// installation (and whether the compiled kernel is active).
fn smoke(run: &Run) {
    println!("== Smoke: one tiny model end to end ==================================");
    let src = "let x = sample in let y = sample in score(x + y); if x * y <= 0.25 then x else y";
    let a = run.analyzer(src, run.options());
    let (lo, hi) = run.denotation_bounds(&a, Interval::new(0.0, 0.5));
    println!(
        "{} paths; unnormalised mass of [0, 0.5] in [{lo:.5}, {hi:.5}]",
        a.paths().len()
    );
    assert!(lo <= hi && hi > 0.0, "smoke bounds must be non-trivial");
    println!();
}

/// Maps every typed query failure onto its own documented exit code, in
/// a sysexits-style range clear of the generic codes (0 ok, 1 denied
/// warnings, 2 usage): 64 invalid-interval, 65 invalid-domain, 66
/// no-bins, 67 deadline-exceeded, 68 worker-panicked, 69 overloaded. A
/// panic that reaches `main` exits 70 (see `main`).
fn query_error_exit(e: QueryError) -> i32 {
    match e {
        QueryError::InvalidInterval { .. } => 64,
        QueryError::InvalidDomain { .. } => 65,
        QueryError::NoBins => 66,
        QueryError::DeadlineExceeded => 67,
        QueryError::WorkerPanicked => 68,
        QueryError::Overloaded => 69,
    }
}

/// `query MODEL|SOURCE LO HI [--posterior]` — one query against a
/// catalog model (by label) or inline SPCF source, with every failure
/// mapped to a typed exit code (`query_error_exit`). The endpoints are
/// parsed leniently — a malformed number becomes `NaN` so the
/// analyzer's own validation rejects it as `InvalidInterval`: the audit
/// wants every bad input to flow through `QueryError`, not ad-hoc CLI
/// checks. Honours `--timeout-ms` (degraded results print their
/// completeness; a deadline that expired before any work starts is the
/// one case reported as an error, exit 67).
fn query_cmd(run: &Run, rest: &[String]) -> i32 {
    let mut rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    let posterior = if let Some(i) = rest.iter().position(|a| *a == "--posterior") {
        rest.remove(i);
        true
    } else {
        false
    };
    let [target, lo_s, hi_s] = rest[..] else {
        eprintln!("usage: repro [--timeout-ms N] query MODEL|SOURCE LO HI [--posterior]");
        return 2;
    };
    let catalog = models::catalog();
    let source = catalog
        .iter()
        .find(|(label, _)| label.as_str() == target)
        .map(|(_, src)| *src)
        .unwrap_or(target);
    let lo = lo_s.trim().parse::<f64>().unwrap_or(f64::NAN);
    let hi = hi_s.trim().parse::<f64>().unwrap_or(f64::NAN);
    let program = match gubpi_lang::parse(source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("repro query: `{target}` is not a catalog label and does not parse: {e}");
            return 2;
        }
    };
    let token = run.deadline();
    if token.is_some_and(|t| t.is_cancelled()) {
        eprintln!("repro query: {}", QueryError::DeadlineExceeded);
        return query_error_exit(QueryError::DeadlineExceeded);
    }
    // Panic containment at the query boundary, mirroring the serving
    // daemon: a worker panic becomes the typed `WorkerPanicked` exit,
    // not an unwind into `main`.
    let computed = catch_unwind(AssertUnwindSafe(
        || -> Result<Result<QueryOutcome, QueryError>, String> {
            let a = Analyzer::from_program_cancellable(
                program,
                run.options(),
                run.cache(),
                WorkerPool::global(),
                token,
            )
            .map_err(|e| e.to_string())?;
            Ok(if posterior {
                a.try_posterior_outcome(lo, hi, token)
            } else {
                a.try_denotation_outcome(lo, hi, token)
            })
        },
    ));
    match computed {
        Err(_) => {
            eprintln!("repro query: {}", QueryError::WorkerPanicked);
            query_error_exit(QueryError::WorkerPanicked)
        }
        Ok(Err(msg)) => {
            eprintln!("repro query: {msg}");
            2
        }
        Ok(Ok(Err(e))) => {
            eprintln!("repro query: {e}");
            query_error_exit(e)
        }
        Ok(Ok(Ok(o))) => {
            run.note_outcome(&o);
            println!(
                "{} of [{lo}, {hi}]: [{:.6}, {:.6}] ({}, completeness {:.3})",
                if posterior {
                    "posterior probability"
                } else {
                    "unnormalised mass"
                },
                o.lo,
                o.hi,
                if o.degraded { "degraded" } else { "complete" },
                o.completeness
            );
            0
        }
    }
}

/// Table 1 / Table 4: per-query bounds and times, baseline vs GuBPI,
/// with a Monte-Carlo cross-check column.
fn table1(run: &Run) {
    println!("== Table 1 / Table 4: probability estimation =========================");
    println!(
        "{:<14} {:<22} {:>8} {:>19} {:>8} {:>19} {:>8}",
        "program", "query", "t[56]", "result [56]", "tGuBPI", "result GuBPI", "MC"
    );
    for b in models::table1() {
        let t0 = Instant::now();
        let base = baseline56_bounds(b.source, b.u, Default::default());
        let t_base = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (lo, hi) = analyze_prob_benchmark(run, &b);
        let t_gubpi = t1.elapsed().as_secs_f64();
        let mc = mc_probability(b.source, b.u, 30_000, 12345);
        let base_str = match base {
            Ok((bl, bh)) => format!("[{bl:.4}, {bh:.4}]"),
            Err(_) => "(rejected)".to_owned(),
        };
        println!(
            "{:<14} {:<22} {:>7.2}s {:>19} {:>7.2}s [{:.4}, {:.4}] {:>8.4}",
            b.name, b.query_label, t_base, base_str, t_gubpi, lo, hi, mc
        );
    }
    println!();
}

/// Table 2: discrete models — GuBPI bounds vs exact rational posteriors.
fn table2(run: &Run) {
    println!("== Table 2: discrete models vs exact posterior =======================");
    println!(
        "{:<16} {:>16} {:>25} {:>9} {:>6}",
        "instance", "exact", "GuBPI bounds", "t", "tight"
    );
    for b in models::table2() {
        let exact = b.exact.0 as f64 / b.exact.1 as f64;
        let t0 = Instant::now();
        let mut opts = run.options();
        opts.sym.max_fix_unfoldings = 8;
        let a = run.analyzer(b.source, opts);
        let (lo, hi) = run.posterior_probability(&a, Interval::new(0.5, 1.5));
        let t = t0.elapsed().as_secs_f64();
        let tight = if hi - lo < 1e-3 { "yes" } else { "~" };
        println!(
            "{:<16} {:>7}={:.4} [{:.6}, {:.6}] {:>8.2}s {:>6}",
            b.name,
            format!("{}/{}", b.exact.0, b.exact.1),
            exact,
            lo,
            hi,
            t,
            tight
        );
        assert!(
            lo <= exact + 1e-9 && exact <= hi + 1e-9,
            "{}: exact {exact} outside [{lo}, {hi}]",
            b.name
        );
    }
    println!();
}

/// Table 3: running time of GuBPI bounds vs SBC on the same model.
fn table3(run: &Run) {
    println!("== Table 3: GuBPI vs simulation-based calibration ====================");
    // Binary GMM (1-dimensional).
    let fig5_models = models::figure5();
    let gmm = &fig5_models[2];
    let t0 = Instant::now();
    let a = analyzer_for_figure(run, gmm);
    let h = a.histogram(gmm.domain, gmm.bins);
    let (zlo, zhi) = h.z_bounds();
    let t_gubpi = t0.elapsed().as_secs_f64();
    println!("Binary GMM: GuBPI {t_gubpi:.2}s (Z in [{zlo:.4}, {zhi:.4}])");

    // SBC for an importance sampler on a conjugate-style model.
    let t1 = Instant::now();
    let mut rng = StdRng::seed_from_u64(99);
    let cfg = SbcConfig {
        simulations: 200,
        posterior_samples: 31,
        bins: 8,
    };
    let r = run_sbc(
        |rng| rng.random::<f64>(),
        |theta, rng| theta + (rng.random::<f64>() - 0.5) * 0.2,
        |y, l, rng| {
            // Posterior sampling by importance resampling on the program.
            let lo = (y - 0.1).max(0.0);
            let hi = (y + 0.1).min(1.0);
            if hi <= lo {
                return Vec::new();
            }
            let src = format!("let t = sample in observe t from uniform({lo}, {hi}); t");
            let p = gubpi_lang::parse(&src).expect("model parses");
            let ws = importance_sample(&p, 4 * l, ImportanceOptions::default(), rng);
            systematic_resample(&ws, l)
        },
        cfg,
        &mut rng,
    );
    let t_sbc = t1.elapsed().as_secs_f64();
    println!(
        "SBC (importance sampler): {t_sbc:.2}s, chi2 = {:.2}, p = {:.3} ({})",
        r.chi2,
        r.p_value,
        if r.is_miscalibrated() {
            "MISCALIBRATED"
        } else {
            "calibrated"
        }
    );
    println!();
}

/// Systematic resampling of a weighted sample set.
fn systematic_resample(ws: &gubpi_inference::WeightedSamples, l: usize) -> Vec<f64> {
    let max_lw = ws
        .log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !max_lw.is_finite() {
        return Vec::new();
    }
    let weights: Vec<f64> = ws
        .log_weights
        .iter()
        .map(|lw| (lw - max_lw).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(l);
    for k in 0..l {
        let target = (k as f64 + 0.5) / l as f64 * total;
        let mut acc = 0.0;
        for (v, w) in ws.values.iter().zip(&weights) {
            acc += w;
            if acc >= target {
                out.push(*v);
                break;
            }
        }
    }
    out
}

/// Fig. 1 / Fig. 7: pedestrian — GuBPI bounds, IS histogram, wrong HMC.
fn pedestrian(run: &Run) {
    println!("== Fig. 1 / Fig. 7: the pedestrian example ===========================");
    let src = models::PEDESTRIAN;
    let domain = Interval::new(0.0, 3.0);
    let bins = 12;

    let t0 = Instant::now();
    let mut opts = run.options();
    opts.sym.max_fix_unfoldings = 5;
    opts.bounds.splits = 16;
    let a = run.analyzer(src, opts);
    let h = a.histogram(domain, bins);
    println!(
        "GuBPI bounds ({} paths, {:.1}s):",
        a.paths().len(),
        t0.elapsed().as_secs_f64()
    );
    print!("{}", render_histogram(&h, 40));

    // Importance sampling (the *correct* stochastic answer).
    let program = gubpi_lang::parse(src).expect("pedestrian parses");
    let mut rng = StdRng::seed_from_u64(4);
    let is = importance_sample(&program, 30_000, ImportanceOptions::default(), &mut rng);
    let is_hist = is.histogram(domain.lo(), domain.hi(), bins);

    // Fixed-truncation HMC (the *wrong* answer of Fig. 1).
    let mut rng = StdRng::seed_from_u64(5);
    let hmc = hmc_sample(
        &program,
        1_500,
        HmcOptions {
            dim: 9,
            step_size: 0.12,
            leapfrog_steps: 8,
            burn_in: 150,
            ..Default::default()
        },
        &mut rng,
    );
    let mut hmc_hist = vec![0.0f64; bins];
    for v in &hmc.values {
        if *v >= domain.lo() && *v < domain.hi() {
            let b = (((v - domain.lo()) / domain.width()) * bins as f64) as usize;
            hmc_hist[b.min(bins - 1)] += 1.0;
        }
    }
    let total: f64 = hmc_hist.iter().sum::<f64>().max(1.0);
    for x in &mut hmc_hist {
        *x /= total;
    }

    println!(
        "\n{:<16} {:>21} {:>8} {:>8} {:>9}",
        "bin", "GuBPI", "IS", "HMC", "HMC ok?"
    );
    let norm = h.normalized();
    let mut is_viol = 0;
    let mut hmc_viol = 0;
    for (i, nb) in norm.iter().enumerate() {
        // 0.002 of slack absorbs Monte-Carlo noise in the samplers'
        // histograms without masking genuine violations.
        let ok_is = is_hist[i] >= nb.lo - 0.002 && is_hist[i] <= nb.hi + 0.002;
        let ok_hmc = hmc_hist[i] >= nb.lo - 0.002 && hmc_hist[i] <= nb.hi + 0.002;
        if !ok_is {
            is_viol += 1;
        }
        if !ok_hmc {
            hmc_viol += 1;
        }
        println!(
            "[{:5.2}, {:5.2})  [{:.4}, {:.4}] {:>8.4} {:>8.4} {:>9}",
            nb.bin.lo(),
            nb.bin.hi(),
            nb.lo,
            nb.hi,
            is_hist[i],
            hmc_hist[i],
            if ok_hmc { "ok" } else { "VIOLATES" }
        );
    }
    println!(
        "\nIS violates {is_viol} bins; fixed-truncation HMC violates {hmc_viol} bins \
         (the Fig. 1 separation)."
    );
    println!();
}

/// Fig. 5: non-recursive models.
fn fig5(run: &Run) {
    println!("== Fig. 5: guaranteed bounds for non-recursive models ================");
    for b in models::figure5() {
        run_figure(run, &b);
    }
}

/// Fig. 6: recursive models.
fn fig6(run: &Run) {
    println!("== Fig. 6: guaranteed bounds for recursive models ====================");
    for b in models::figure6() {
        run_figure(run, &b);
    }
}

fn run_figure(run: &Run, b: &models::FigureBenchmark) {
    let t0 = Instant::now();
    let a = analyzer_for_figure(run, b);
    let h = a.histogram(b.domain, b.bins);
    let t = t0.elapsed().as_secs_f64();
    println!(
        "-- Fig. {} ({}) — {} paths, {:.1}s",
        b.id,
        b.description,
        a.paths().len(),
        t
    );
    print!("{}", render_histogram(&h, 40));
    println!();
}

/// Ablations: linear vs grid semantics; depth sweep on the pedestrian.
fn ablation(run: &Run) {
    println!("== Ablation: linear (§6.4) vs grid (§6.3) semantics ==================");
    let src = "let x = sample in let y = sample in score(x + y); x";
    for (label, method) in [("linear", Method::Auto), ("grid", Method::Grid)] {
        let t0 = Instant::now();
        let mut opts = run.options();
        opts.method = method;
        let a = run.analyzer(src, opts);
        let (lo, hi) = run.denotation_bounds(&a, Interval::new(0.0, 0.5));
        println!(
            "{label:>7}: [{lo:.5}, {hi:.5}] width {:.5} in {:.2}s",
            hi - lo,
            t0.elapsed().as_secs_f64()
        );
    }

    println!("\n== Ablation: unfolding depth vs tightness (pedestrian Z bounds) =====");
    for depth in [2u32, 3, 4, 5] {
        let t0 = Instant::now();
        let mut opts = run.options();
        opts.sym.max_fix_unfoldings = depth;
        opts.bounds.splits = 16;
        let a = run.analyzer(models::PEDESTRIAN, opts);
        let (zlo, zhi) = a.normalizing_constant();
        println!(
            "depth {depth}: Z in [{zlo:.4}, {zhi:.4}] ({} paths, {:.1}s)",
            a.paths().len(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!();
}
