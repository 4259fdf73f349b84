//! The `serve-mixed` workload: an in-process `gubpi-serve` daemon with
//! default configuration, driven by a closed loop of two blocking
//! `Client` connections.
//!
//! The request universe is fixed: every small catalog model (Table 1
//! without the `ex-fig6` rows, whose posteriors take hundreds of
//! milliseconds under default options; Table 2; Fig. 5) × {denotation,
//! posterior} on one query interval per model. A pass sends every
//! universe request once as a new request and as many repeats of
//! earlier ones, so half of the stream re-asks a request the shared
//! cache already holds. `--seed` generates the stream: the order of the
//! new requests, where repeats fall and which request each repeats.
//! The cache is cleared at the start of every pass, so every pass does
//! the same work and the summed bound gap is the same for every seed.
//! Warm-up requests use each model's other interval, a part of the
//! stream the timed passes never ask.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bench::models;
use gubpi_core::{AnalysisOptions, Analyzer, SharedQueryCache, WorkerPool};
use gubpi_interval::Interval;
use gubpi_serve::{start_with_cache, Client, QueryKind, QueryRequest, ServeConfig, ServerHandle};
use gubpi_symbolic::kernel_stats;

use crate::layers::{per_layer, Engine, ServeLayer, Snapshot, TracedPass};
use crate::mirror::{Counts, Mirror, PathMemo};
use crate::rng::SplitMix64;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{write_jsonl, Tracer, ROOT};
use crate::{Args, Outcome};

/// Client connections of the closed loop.
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up requests per client and set-up.
const WARMUP_PER_CLIENT: usize = 2;

#[derive(Clone)]
pub struct Req {
    pub label: String,
    pub source: &'static str,
    pub kind: QueryKind,
    pub lo: f64,
    pub hi: f64,
    /// Exact posterior of the Table 2 models (checked on posteriors).
    pub exact: Option<(i128, i128)>,
}

impl Req {
    fn request(&self) -> QueryRequest {
        QueryRequest {
            kind: self.kind,
            source: self.source.to_string(),
            lo: self.lo,
            hi: self.hi,
            timeout_ms: None,
            region_budget: None,
        }
    }
}

/// `(timed universe, warm-up universe)`: each model's denotation and
/// posterior on its timed interval, and on its warm-up interval.
fn universe() -> (Vec<Req>, Vec<Req>) {
    let mut timed = Vec::new();
    let mut warm = Vec::new();
    let mut add = |label: String, source, u: Interval, w: Interval, exact| {
        for (kind, name) in [
            (QueryKind::Denotation, "denotation"),
            (QueryKind::Posterior, "posterior"),
        ] {
            for (iv, out) in [(u, &mut timed), (w, &mut warm)] {
                out.push(Req {
                    label: format!("{label} {name} [{}, {}]", iv.lo(), iv.hi()),
                    source,
                    kind,
                    lo: iv.lo(),
                    hi: iv.hi(),
                    exact: if kind == QueryKind::Posterior {
                        exact
                    } else {
                        None
                    },
                });
            }
        }
    };
    let event = Interval::new(0.5, 1.5);
    let other = Interval::new(-0.5, 0.5);
    for b in models::table1().into_iter().filter(|b| b.name != "ex-fig6") {
        let label = format!("table1/{} ({})", b.name, b.query_label);
        add(label, b.source, b.u, other, None);
    }
    for b in models::table2() {
        add(
            format!("table2/{}", b.name),
            b.source,
            event,
            other,
            Some(b.exact),
        );
    }
    for b in models::figure5() {
        let mid = 0.5 * (b.domain.lo() + b.domain.hi());
        let lower = Interval::new(b.domain.lo(), mid);
        let upper = Interval::new(mid, b.domain.hi());
        add(format!("fig{}", b.id), b.source, lower, upper, None);
    }
    (timed, warm)
}

/// The request stream of one pass: each of the `n` universe requests
/// once as new, plus exactly `n` repeats, each re-asking a request first
/// sent at least three positions earlier where one exists (so its
/// answer is usually cached by then).
fn pass_stream(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, 1 + pass as u64);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut marks: Vec<bool> = vec![true; n - 1];
    marks.extend(vec![false; n]);
    rng.shuffle(&mut marks);
    let mut out = vec![order[0]];
    let mut firsts: Vec<(usize, usize)> = vec![(0, order[0])];
    let mut issued = 1;
    for is_new in marks {
        if is_new {
            firsts.push((out.len(), order[issued]));
            out.push(order[issued]);
            issued += 1;
        } else {
            let eligible = firsts
                .iter()
                .filter(|(pos, _)| pos + 3 <= out.len())
                .count();
            let pick = if eligible == 0 {
                0
            } else {
                rng.below(eligible)
            };
            out.push(firsts[pick].1);
        }
    }
    out
}

type Replay = (Result<(f64, f64), String>, f64);

/// One answered request of a pass.
struct Served {
    id: usize,
    rtt_ms: f64,
    reply: Result<(f64, f64), String>,
    /// Traced passes: the in-process replay's bounds and time in ms.
    replay: Option<Replay>,
}

/// What a traced pass shares between its client threads.
struct TraceCtx<'a> {
    tr: &'a Tracer,
    counts: &'a Counts,
    /// Stands in for the daemon's shared cache, cleared with it.
    memo: &'a PathMemo,
}

/// The daemon's work for one request, replayed in-process.
fn replay(ctx: &TraceCtx<'_>, req: &Req, pos: usize, parent: u64) -> Result<(f64, f64), String> {
    let m = Mirror {
        tr: ctx.tr,
        counts: ctx.counts,
        memo: ctx.memo,
        pool: WorkerPool::global(),
        opts: AnalysisOptions::default(),
        request: pos as u64,
    };
    let built = m.build(req.source, parent)?;
    let u = Interval::new(req.lo, req.hi);
    Ok(match req.kind {
        QueryKind::Denotation => m.denotation_query(&built, u, parent),
        QueryKind::Posterior => m.posterior_query(&built, u, parent),
    })
}

/// Bit-for-bit equality of two `(lo, hi)` answers.
fn same(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
}

fn ask(client: &mut Client, req: &Req) -> Result<(f64, f64), String> {
    match client.query(req.request()) {
        Err(e) => Err(format!("{}: transport: {e}", req.label)),
        Ok(Err(e)) => Err(format!(
            "{}: refused: {} ({})",
            req.label, e.code, e.message
        )),
        Ok(Ok(o)) if o.degraded => Err(format!("{}: degraded reply", req.label)),
        Ok(Ok(o)) => Ok((o.lo, o.hi)),
    }
}

/// Runs `stream` through the clients as a closed loop.
fn drive(
    clients: &mut [Client],
    stream: &[usize],
    reqs: &[Req],
    ctx: Option<&TraceCtx<'_>>,
) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let mut served = Vec::with_capacity(stream.len());
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&id) = stream.get(pos) else { break };
                        let req = &reqs[id];
                        let Some(ctx) = ctx else {
                            let t = Instant::now();
                            let reply = ask(client, req);
                            let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
                            out.push(Served {
                                id,
                                rtt_ms,
                                reply,
                                replay: None,
                            });
                            continue;
                        };
                        let tr = ctx.tr;
                        out.push(tr.span("serve.request", ROOT, pos as u64, |r| {
                            let t = Instant::now();
                            let reply = tr.span("serve.rtt", r, pos as u64, |_| ask(client, req));
                            let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
                            let t = Instant::now();
                            let mine = tr
                                .span("serve.compute", r, pos as u64, |c| replay(ctx, req, pos, c));
                            let compute_ms = t.elapsed().as_secs_f64() * 1e3;
                            Served {
                                id,
                                rtt_ms,
                                reply,
                                replay: Some((mine, compute_ms)),
                            }
                        }));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            served.extend(w.join().expect("client thread panicked"));
        }
    });
    served
}

struct Daemon {
    handle: ServerHandle,
    cache: SharedQueryCache,
    clients: Vec<Client>,
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// Starts a daemon, connects the clients and sends the warm-up requests.
fn set_up(warm: &[Req], seed: u64, k: usize, failures: &mut Vec<String>) -> Option<Daemon> {
    let cache = SharedQueryCache::new();
    let handle = match start_with_cache(ServeConfig::default(), cache.clone()) {
        Ok(h) => h,
        Err(e) => {
            failures.push(format!("daemon start: {e}"));
            return None;
        }
    };
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        match Client::connect(handle.local_addr()) {
            Ok(c) => clients.push(c),
            Err(e) => {
                failures.push(format!("connect: {e}"));
                handle.shutdown();
                return None;
            }
        }
    }
    let mut rng = SplitMix64::new(seed, 1_000_000 + k as u64);
    let mut picks: Vec<usize> = (0..warm.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(CLIENTS * WARMUP_PER_CLIENT);
    for s in drive(&mut clients, &picks, warm, None) {
        if let Err(e) = s.reply {
            failures.push(format!("warm-up {e}"));
        }
    }
    Some(Daemon {
        handle,
        cache,
        clients,
    })
}

fn snapshot(cache: &SharedQueryCache) -> Snapshot {
    Snapshot::take(kernel_stats(), WorkerPool::global().stats(), cache.stats())
}

pub fn run(args: &Args, epoch: Instant) -> Outcome {
    let (timed, warm) = universe();
    let n = timed.len();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let t0 = if k == 0 { epoch } else { Instant::now() };
        daemon = set_up(&warm, args.seed, k, &mut failures);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut d) = daemon else {
        return Outcome {
            attempted: 1,
            failures,
            metrics: HashMap::new(),
            spans_jsonl: String::new(),
        };
    };
    let server_before = d.handle.stats();

    // First reply per universe request, and the untraced measurements.
    let mut first: Vec<Option<(f64, f64)>> = vec![None; n];
    let mut latency_ms: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut engines: Vec<Engine> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut serve_layer = ServeLayer::default();
    let start = Instant::now();
    let mut pass_walls: Vec<f64> = Vec::new();
    while walls.is_empty()
        || (args.trace && traced.is_empty())
        || start.elapsed().as_secs_f64() + median(&pass_walls) <= args.seconds
    {
        let pass_no = walls.len() + traced.len();
        let stream = pass_stream(n, args.seed, pass_no);
        d.cache.clear();
        let before = snapshot(&d.cache);
        let tracing = args.trace && traced.len() < walls.len();
        let tr = Tracer::new(epoch);
        let counts = Counts::default();
        let memo = PathMemo::default();
        let ctx = TraceCtx {
            tr: &tr,
            counts: &counts,
            memo: &memo,
        };
        let t = Instant::now();
        let served = drive(&mut d.clients, &stream, &timed, tracing.then_some(&ctx));
        let wall_s = t.elapsed().as_secs_f64();
        pass_walls.push(wall_s);
        let engine = before.delta(&snapshot(&d.cache));
        attempted += served.len() as u64;
        for s in &served {
            let reply = match &s.reply {
                Ok(b) => *b,
                Err(e) => {
                    failures.push(e.clone());
                    continue;
                }
            };
            let label = &timed[s.id].label;
            match first[s.id] {
                None => first[s.id] = Some(reply),
                Some(f) if !same(f, reply) => failures.push(format!(
                    "{label}: reply {reply:?} differs from earlier {f:?}"
                )),
                Some(_) => {}
            }
            if let Some((mine, compute_ms)) = &s.replay {
                serve_layer.rtt_ms.push(s.rtt_ms);
                serve_layer.compute_ms.push(*compute_ms);
                match mine {
                    Ok(m) if same(*m, reply) => {}
                    Ok(m) => failures.push(format!(
                        "{label}: traced replay {m:?} differs from reply {reply:?}"
                    )),
                    Err(e) => failures.push(format!("{label}: traced replay failed: {e}")),
                }
            } else {
                latency_ms.push(s.rtt_ms);
            }
        }
        if tracing {
            traced.push(TracedPass {
                wall_s,
                spans: tr.into_spans(),
                counts,
                engine,
            });
        } else {
            walls.push(wall_s);
            engines.push(engine);
        }
    }
    let server_after = d.handle.stats();
    serve_layer.overloaded = server_after.overloaded - server_before.overloaded;
    serve_layer.errors = server_after.errors - server_before.errors;
    d.stop();

    // Checks (untimed): every reply an interval, Table 2 posteriors
    // around their exact values, and every reply equal to the
    // in-process analyzer's answer under the daemon's options.
    for (req, f) in timed.iter().zip(&first) {
        let Some((lo, hi)) = *f else { continue };
        if lo.is_nan() || hi.is_nan() || lo > hi {
            failures.push(format!(
                "{}: reply [{lo}, {hi}] is not an interval",
                req.label
            ));
        }
        if let Some((num, den)) = req.exact {
            let exact = num as f64 / den as f64;
            if !(lo <= exact + 1e-12 && exact <= hi + 1e-12) {
                failures.push(format!(
                    "{}: exact {num}/{den} outside [{lo}, {hi}]",
                    req.label
                ));
            }
        }
        let local = Analyzer::from_source_with_cache(
            req.source,
            AnalysisOptions::default(),
            &SharedQueryCache::new(),
        )
        .map_err(|e| e.to_string())
        .and_then(|a| {
            match req.kind {
                QueryKind::Denotation => a.try_denotation_outcome(req.lo, req.hi, None),
                QueryKind::Posterior => a.try_posterior_outcome(req.lo, req.hi, None),
            }
            .map_err(|e| e.to_string())
        });
        match local {
            Ok(o) if same(o.bounds(), (lo, hi)) => {}
            Ok(o) => failures.push(format!(
                "{}: reply [{lo}, {hi}] differs from in-process [{}, {}]",
                req.label, o.lo, o.hi
            )),
            Err(e) => failures.push(format!("{}: in-process analyzer failed: {e}", req.label)),
        }
    }
    if first.iter().any(Option::is_none) {
        failures.push("some universe requests were never answered".into());
    }

    let mut metrics = HashMap::new();
    let mut spans_jsonl = String::new();
    if args.trace {
        metrics = per_layer(&traced, &engines, &walls, &serve_layer);
        for (k, t) in traced.iter().enumerate() {
            write_jsonl(&mut spans_jsonl, k, &t.spans);
        }
    } else {
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("wall_s", median(&walls));
        metrics.insert("latency_p50_ms", quantile(&latency_ms, 0.50));
        metrics.insert("latency_p95_ms", quantile(&latency_ms, 0.95));
        metrics.insert(
            "throughput_qps",
            latency_ms.len() as f64 / walls.iter().sum::<f64>(),
        );
        metrics.insert(
            "bound_gap",
            first.iter().flatten().map(|(lo, hi)| hi - lo).sum::<f64>(),
        );
        metrics.insert("peak_rss_mb", peak_rss_mb());
        println!(
            "{} untraced passes of {} requests ({n} distinct); {} latency samples",
            walls.len(),
            2 * n,
            latency_ms.len()
        );
    }
    Outcome {
        attempted,
        failures,
        metrics,
        spans_jsonl,
    }
}
