//! Chaos and robustness suite for the serving front-end.
//!
//! The serving contract under test (see `gubpi_serve`):
//!
//! - **Anytime soundness** — a deadline-expired query returns a
//!   *degraded* but guaranteed enclosure (checked against Monte Carlo
//!   and against the untimed bounds), never a torn result or an error;
//! - **Panic containment** — an injected worker panic yields a typed
//!   `worker_panicked` reply and the daemon (and shared pool) keep
//!   serving;
//! - **Determinism under perturbation** — delay-only fault schedules
//!   leave every reported bound bit-identical to a clean run;
//! - **Cache hygiene** — degraded results are never cached, so a
//!   timed-out query followed by the identical untimed query returns
//!   the full-precision bound.
//!
//! The fault plan and its boundary counter are process-global, so every
//! test in this file serializes on one lock — otherwise a `panic@0`
//! armed by one test could fire inside another's task boundary.

use std::sync::{Mutex, MutexGuard, OnceLock};

use gubpi_core::{AnalysisOptions, Analyzer, SharedQueryCache};
use gubpi_inference::{importance_sample, ImportanceOptions};
use gubpi_pool::{set_fault_plan, FaultKind, FaultPlan};
use gubpi_serve::{
    start, start_with_cache, Client, QueryKind, QueryRequest, ServeConfig, CACHE_CAPACITY,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 2-dimensional model that bounds in milliseconds: the workhorse for
/// bit-identity and fault-matrix checks.
const SMALL: &str =
    "let x = sample in let y = sample in score(x + y); if x * y <= 0.25 then x else y";

/// A 3-dimensional model whose uniform sweep (32³ regions per path)
/// spans many scheduler chunk boundaries, so a `cancel@N` injection on
/// the request's deadline token always interrupts it mid-sweep. (Pure
/// wall-clock deadlines are not used to force degradation here: the
/// budget-capped sweep can finish inside a few milliseconds on a fast
/// machine, which made timing-based variants of these tests flaky.)
const MEDIUM: &str = "let a = sample in let b = sample in let c = sample in \
                      score(a + b + c); a + b + c";

/// The paper's pedestrian (Fig. 1): at the daemon's default options its
/// analysis runs for minutes, so a deadlined query on it holds its
/// inflight slot for exactly the deadline.
const PEDESTRIAN: &str = "let start = 3 * sample uniform(0, 1) in
    let rec walk x =
      if x <= 0 then 0 else
        let step = sample uniform(0, 1) in
        if sample <= 0.5 then step + walk (x + step)
        else step + walk (x - step)
    in
    let distance = walk start in
    observe distance from normal(1.1, 0.1);
    start";

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn req(kind: QueryKind, source: &str, lo: f64, hi: f64, timeout_ms: Option<u64>) -> QueryRequest {
    QueryRequest {
        kind,
        source: source.to_string(),
        lo,
        hi,
        timeout_ms,
        region_budget: None,
    }
}

#[test]
fn concurrent_mixed_load_is_sound_and_within_budget() {
    let _serial = fault_lock();
    let server = start(ServeConfig {
        max_inflight: 8,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let r = if i % 2 == 0 {
                    // Small untimed queries must come back complete.
                    req(QueryKind::Denotation, SMALL, 0.0, 0.5, None)
                } else {
                    // Timed medium queries may degrade but must stay
                    // sound and well-formed.
                    req(QueryKind::Denotation, MEDIUM, 0.5, 1.5, Some(30))
                };
                (i, c.query(r).expect("transport").expect("admitted query"))
            })
        })
        .collect();
    for w in workers {
        let (i, o) = w.join().expect("worker thread");
        assert!(o.lo <= o.hi, "torn bound [{}, {}]", o.lo, o.hi);
        assert!(
            (0.0..=1.0).contains(&o.completeness),
            "completeness {} outside [0, 1]",
            o.completeness
        );
        if i % 2 == 0 {
            assert!(!o.degraded, "untimed small query degraded");
            assert_eq!(o.completeness, 1.0);
        }
    }
    // A tiny per-request region budget is clamped server-side and must
    // still produce a sound (coarse) enclosure, not an error.
    let mut c = Client::connect(addr).expect("connect");
    let o = c
        .query(QueryRequest {
            region_budget: Some(10),
            ..req(QueryKind::Denotation, MEDIUM, 0.5, 1.5, None)
        })
        .expect("transport")
        .expect("budgeted query");
    assert!(o.lo <= o.hi && !o.degraded);
    server.shutdown();
}

#[test]
fn deadline_expired_queries_return_containing_degraded_bounds() {
    let _serial = fault_lock();
    let server = start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    // A zero deadline expires before any work can start: the one
    // deadline case that is an error, because no prefix exists to
    // anchor even a degraded bound to.
    let err = c
        .query(req(QueryKind::Posterior, MEDIUM, 1.0, 2.0, Some(0)))
        .expect("transport")
        .expect_err("zero deadline must be rejected");
    assert_eq!(err.code, "deadline_exceeded");

    // Interrupt the sweep mid-way: the reply must be degraded yet
    // still contain both the untimed reference bounds and a Monte-
    // Carlo estimate of the posterior. The 4 ms deadline creates the
    // request's cancellation token; the armed `cancel@2` injection
    // fires that same token at the second task boundary, so the
    // interruption is deterministic even on machines fast enough to
    // finish the budget-capped sweep inside the deadline.
    set_fault_plan(Some(FaultPlan {
        kind: FaultKind::Cancel,
        at: 2,
    }));
    let o = c
        .query(req(QueryKind::Posterior, MEDIUM, 1.0, 2.0, Some(4)))
        .expect("transport")
        .expect("deadline must degrade, not fail");
    set_fault_plan(None);
    assert!(o.degraded, "cancelled sweep reported a complete result");
    assert!(o.lo <= o.hi && o.completeness < 1.0);
    let a = Analyzer::from_source(MEDIUM, AnalysisOptions::default()).expect("model compiles");
    let (rlo, rhi) = a.posterior_probability(gubpi_interval::Interval::new(1.0, 2.0));
    assert!(
        o.lo <= rlo + 1e-12 && rhi <= o.hi + 1e-12,
        "degraded [{}, {}] must enclose the untimed [{rlo}, {rhi}]",
        o.lo,
        o.hi
    );
    let program = gubpi_lang::parse(MEDIUM).expect("model parses");
    let mut rng = StdRng::seed_from_u64(23);
    let ws = importance_sample(&program, 20_000, ImportanceOptions::default(), &mut rng);
    let mc = ws.probability_in(1.0, 2.0);
    assert!(
        o.lo - 0.01 <= mc && mc <= o.hi + 0.01,
        "degraded [{}, {}] excludes MC {mc}",
        o.lo,
        o.hi
    );
    server.shutdown();
}

#[test]
fn fault_matrix_leaves_daemon_serviceable() {
    let _serial = fault_lock();
    let server = start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let clean = c
        .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, None))
        .expect("transport")
        .expect("clean query");
    for kind in [FaultKind::Panic, FaultKind::Delay, FaultKind::Cancel] {
        for at in [0u64, 1, 3, 7] {
            set_fault_plan(Some(FaultPlan { kind, at }));
            let hit = c
                .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, Some(5_000)))
                .expect("transport survives every injected fault");
            set_fault_plan(None);
            match (kind, hit) {
                // A panic either fires inside this query (typed error)
                // or the boundary index was past the schedule (clean).
                (FaultKind::Panic, Err(e)) => assert_eq!(e.code, "worker_panicked"),
                (FaultKind::Panic, Ok(o)) => assert!(o.lo <= o.hi),
                // Delays perturb only the schedule: bit-identical.
                (FaultKind::Delay, Ok(o)) => {
                    assert_eq!(o.lo.to_bits(), clean.lo.to_bits(), "delay@{at} moved lo");
                    assert_eq!(o.hi.to_bits(), clean.hi.to_bits(), "delay@{at} moved hi");
                    assert!(!o.degraded);
                }
                (FaultKind::Delay, Err(e)) => panic!("delay@{at} errored: {e:?}"),
                // An adversarial cancel may degrade the result, but the
                // degraded enclosure must contain the clean one.
                (FaultKind::Cancel, Ok(o)) => {
                    assert!(o.lo <= o.hi);
                    assert!(
                        o.lo <= clean.lo + 1e-12 && clean.hi <= o.hi + 1e-12,
                        "cancel@{at}: [{}, {}] must enclose [{}, {}]",
                        o.lo,
                        o.hi,
                        clean.lo,
                        clean.hi
                    );
                }
                (FaultKind::Cancel, Err(e)) => panic!("cancel@{at} errored: {e:?}"),
            }
            // Whatever was injected, the daemon must serve the next
            // query cleanly and bit-identically.
            let after = c
                .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, None))
                .expect("transport")
                .expect("daemon serviceable after fault");
            assert_eq!(after.lo.to_bits(), clean.lo.to_bits());
            assert_eq!(after.hi.to_bits(), clean.hi.to_bits());
            assert!(!after.degraded);
        }
    }
    server.shutdown();
}

#[test]
fn degraded_results_are_never_cached() {
    let _serial = fault_lock();
    let cache = SharedQueryCache::new();
    let server = start_with_cache(ServeConfig::default(), cache.clone()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    // Cancel the sweep at the first region-chunk boundary (the 60 s
    // timeout only exists to give the request a token for `cancel@1`
    // to fire — wall-clock never expires): a deterministically
    // degraded result that must NOT be cached.
    set_fault_plan(Some(FaultPlan {
        kind: FaultKind::Cancel,
        at: 1,
    }));
    let degraded = c
        .query(req(QueryKind::Denotation, MEDIUM, 0.5, 1.5, Some(60_000)))
        .expect("transport")
        .expect("cancellation must degrade, not fail");
    set_fault_plan(None);
    assert!(
        degraded.degraded,
        "cancelled sweep reported a complete result"
    );

    // The identical untimed query through the same cache must return
    // the full-precision bound, bit-identical to a fresh analyzer.
    let full = c
        .query(req(QueryKind::Denotation, MEDIUM, 0.5, 1.5, None))
        .expect("transport")
        .expect("untimed query");
    assert!(!full.degraded, "stale degraded entry served from cache");
    assert_eq!(full.completeness, 1.0);
    let fresh = Analyzer::from_source(MEDIUM, AnalysisOptions::default())
        .expect("model compiles")
        .denotation_bounds(gubpi_interval::Interval::new(0.5, 1.5));
    assert_eq!(full.lo.to_bits(), fresh.0.to_bits());
    assert_eq!(full.hi.to_bits(), fresh.1.to_bits());
    server.shutdown();
}

#[test]
fn deeply_nested_programs_get_an_error_reply_and_the_daemon_keeps_serving() {
    let _serial = fault_lock();
    let server = start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let nested = |depth: usize| format!("{}sample{}", "(".repeat(depth), ")".repeat(depth));
    // 3,000 levels used to overflow the connection thread's stack and
    // abort the whole daemon; the parser now rejects it with a typed
    // error before any recursive phase runs.
    let err = c
        .query(req(QueryKind::Denotation, &nested(3_000), 0.0, 0.5, None))
        .expect("transport survives")
        .expect_err("nesting past the limit is rejected");
    assert_eq!(err.code, "parse_error");
    assert!(
        err.message.contains("nested deeper than"),
        "{}",
        err.message
    );
    // Programs just inside the limit go through every recursive phase:
    // nested arithmetic and a chain of `let`s build ASTs as deep as the
    // parser allows.
    let deepest = gubpi_lang::parser::MAX_NESTING - 2;
    let sums = format!("{}sample{}", "0 + (".repeat(deepest), ")".repeat(deepest));
    let lets = (0..deepest).fold("x0".to_string(), |body, i| {
        let prev = if i + 1 == deepest {
            "sample".to_string()
        } else {
            format!("x{}", i + 1)
        };
        format!("let x{i} = {prev} in {body}")
    });
    for deep in [nested(deepest), sums, lets] {
        let o = c
            .query(req(QueryKind::Denotation, &deep, 0.0, 0.5, None))
            .expect("transport")
            .expect("nesting inside the limit is served");
        assert!(o.lo <= 0.5 && 0.5 <= o.hi, "[{}, {}]", o.lo, o.hi);
    }
    // And the daemon answers the next request on the same connection.
    let after = c
        .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, None))
        .expect("transport")
        .expect("daemon serviceable after the rejected request");
    assert!(after.lo <= after.hi && !after.degraded);
    server.shutdown();
}

/// `let x1 = x0 + x0 in …` to depth 64: a one-path program whose result
/// has more than 2⁶⁴ primitive applications as a tree. Every step of
/// its query walks the DAG instead, so a deadlined request is answered
/// inside its deadline and the connection serves the next request.
#[test]
fn deep_let_chains_are_answered_within_their_deadline() {
    let _serial = fault_lock();
    let server = start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let chain = (1..=64).fold("let x0 = sample in ".to_string(), |src, i| {
        src + &format!("let x{i} = x{} + x{} in ", i - 1, i - 1)
    }) + "x64";
    let half = 2f64.powi(63);
    for kind in [QueryKind::Denotation, QueryKind::Posterior] {
        let o = c
            .query(req(kind, &chain, 0.0, half, Some(500)))
            .expect("transport")
            .expect("a deadlined query is answered");
        assert!(o.lo <= 0.5 && 0.5 <= o.hi, "{kind:?}: [{}, {}]", o.lo, o.hi);
    }
    let after = c
        .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, None))
        .expect("transport")
        .expect("daemon serviceable after the deep chain");
    assert!(after.lo <= after.hi && !after.degraded);
    server.shutdown();
}

#[test]
fn admission_control_rejects_while_the_only_slot_is_held() {
    let _serial = fault_lock();
    let server = start(ServeConfig {
        max_inflight: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    // The pedestrian holds the one inflight slot until its deadline,
    // then comes back degraded.
    let hold = move || {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.query(req(
                QueryKind::Posterior,
                PEDESTRIAN,
                1.0,
                1.25,
                Some(3_000),
            ))
            .expect("transport")
        })
    };
    let mut occupier = hold();
    let mut probe = Client::connect(addr).expect("connect");
    let mut rejected = None;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if occupier.is_finished() {
            // A probe held the slot when the occupier arrived, so the
            // occupier was the one turned away: hold the slot again.
            let _ = occupier.join();
            occupier = hold();
            continue;
        }
        match probe
            .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, None))
            .expect("transport")
        {
            Err(e) => {
                rejected = Some(e);
                break;
            }
            // The occupier has not claimed the slot yet.
            Ok(o) => assert!(o.lo <= o.hi),
        }
    }
    let err = rejected.expect("a probe must be rejected while the slot is held");
    assert_eq!(err.code, "overloaded", "got {err:?}");
    assert!(server.stats().overloaded >= 1);
    let held = occupier
        .join()
        .expect("occupier thread")
        .expect("a deadlined query degrades, it does not fail");
    assert!(held.lo <= held.hi);
    // The slot is free again: the daemon answers the next request.
    let o = probe
        .query(req(QueryKind::Denotation, SMALL, 0.0, 0.5, None))
        .expect("transport")
        .expect("the daemon must serve once the slot is released");
    assert!(o.lo <= o.hi && !o.degraded);
    server.shutdown();
}

/// A daemon lives as long as its clients keep sending distinct
/// intervals, each of which keys fresh cache entries, so the cache that
/// [`start`] installs must be bounded.
#[test]
fn started_server_bounds_its_cache() {
    let server = start(ServeConfig::default()).unwrap();
    assert_eq!(server.cache().capacity(), Some(CACHE_CAPACITY));
    server.shutdown();
}
