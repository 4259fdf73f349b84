//! The serving daemon: admission control, deadlines, panic containment.
//!
//! One accept thread, one handler thread per connection. Every request
//! runs under a per-request [`CancelToken`]; on deadline expiry the
//! analyzer returns an **anytime sound** degraded enclosure rather
//! than an error (see `gubpi_core::QueryOutcome`). A bounded inflight
//! counter rejects excess load up front with `overloaded`, and every
//! query runs inside `catch_unwind` so an injected or genuine panic is
//! contained at the request boundary — the reply is a typed
//! `worker_panicked` error and the server (and the shared worker pool,
//! which re-raises task panics on the owning thread by design) remain
//! fully serviceable.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gubpi_core::{
    AnalysisOptions, Analyzer, CancelToken, PathBoundOptions, QueryError, QueryOutcome,
    SharedQueryCache, WorkerPool,
};
use gubpi_lang::parse;
use gubpi_pool::fault_point;

use crate::json::{obj, Json};
use crate::proto::{
    error_code, error_payload, ok_payload, read_frame, write_frame, QueryKind, QueryRequest,
    Request,
};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick (tests).
    pub addr: String,
    /// Admission bound: queries over this many concurrently in flight
    /// are rejected with `overloaded` before any work is scheduled.
    pub max_inflight: usize,
    /// Deadline applied when a request carries none; `None` means
    /// unlimited.
    pub default_timeout_ms: Option<u64>,
    /// Upper clamp on per-request region budgets.
    pub max_region_budget: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            default_timeout_ms: None,
            max_region_budget: PathBoundOptions::default().region_budget,
        }
    }
}

/// Monotone service counters, reported by the `stats` request.
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    degraded: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    errors: AtomicU64,
}

/// A snapshot of the server's counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries answered with sound bounds (degraded or not).
    pub served: u64,
    /// Of `served`, how many were deadline-degraded.
    pub degraded: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Requests whose deadline expired before any work started.
    pub deadline_exceeded: u64,
    /// Requests that panicked and were contained.
    pub panics: u64,
    /// Requests rejected for invalid input (parse or validation).
    pub errors: u64,
}

struct Shared {
    config: ServeConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    cache: SharedQueryCache,
    counters: Counters,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.counters.served.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            overloaded: self.counters.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.counters.deadline_exceeded.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or send a `shutdown` request).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The query cache shared by every request on this server.
    pub fn cache(&self) -> SharedQueryCache {
        self.shared.cache.clone()
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight connections finish their current request and then see
    /// closed reads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the accept loop exits (a `shutdown` request, or
    /// [`ServerHandle::shutdown`] from another thread).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Entry cap of the query cache a server from [`start`] shares across
/// its requests.
///
/// The cache key includes the bits of the query interval, so an
/// unbounded cache would grow by one entry per path for every distinct
/// interval a client sends. An entry holds its key and bounds (about
/// 270 bytes with the map's overhead) and a copy of its symbolic path,
/// whose values are not shared with entries inserted by other requests.
/// Over the benchmark catalog the largest path, measured with its shared
/// subterms counted once, is about 9 KiB, so a full cache holds at most
/// about 160 MiB for such programs. The cap holds more than three times
/// the 4,786 paths of the pedestrian (Fig. 1) at the default options, so
/// a few large programs stay warm together. Eviction never changes a
/// result (see [`SharedQueryCache::with_capacity`]).
pub const CACHE_CAPACITY: usize = 16_384;

/// Starts the server on `config.addr`, sharing one query cache of
/// [`CACHE_CAPACITY`] entries across its requests.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    start_with_cache(config, SharedQueryCache::with_capacity(CACHE_CAPACITY))
}

/// [`start`] on an explicit shared cache (lets tests pre-warm or
/// inspect it).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start_with_cache(config: ServeConfig, cache: SharedQueryCache) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        config,
        stop: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        cache,
        counters: Counters::default(),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("gubpi-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

/// Stack of a connection thread: the 8 MiB of a process's main thread,
/// not the 2 MiB default of spawned threads. A connection thread runs
/// every phase of its queries except the sweeps, symbolic execution
/// included. The parser caps nesting at
/// `gubpi_lang::parser::MAX_NESTING`; the recursive phases after it
/// need more than 2 MiB to reach that depth in unoptimised builds. Pool
/// workers run only sweep closures (compiled tapes, per-depth volume
/// buffers), which fit the default stack even for the deepest program
/// the parser accepts, so they keep it.
const CONN_STACK_BYTES: usize = 8 << 20;

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(&shared);
        let addr = listener.local_addr().ok();
        let spawned = std::thread::Builder::new()
            .name("gubpi-serve-conn".to_string())
            .stack_size(CONN_STACK_BYTES)
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                // A connection that carried a shutdown request must
                // also poke the accept loop awake.
                if conn_shared.stop.load(Ordering::SeqCst) {
                    if let Some(addr) = addr {
                        let _ = TcpStream::connect(addr);
                    }
                }
            });
        drop(spawned);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // client hung up (or sent garbage framing)
        };
        let reply = match Request::from_wire(&payload) {
            Err(msg) => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                error_payload("bad_request", &msg)
            }
            Ok(Request::Shutdown) => {
                shared.stop.store(true, Ordering::SeqCst);
                obj(vec![("ok", Json::Bool(true))]).to_wire().into_bytes()
            }
            Ok(Request::Stats) => stats_payload(shared),
            Ok(Request::Query(req)) => answer_query(shared, &req),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn stats_payload(shared: &Shared) -> Vec<u8> {
    let s = shared.stats();
    obj(vec![
        ("ok", Json::Bool(true)),
        (
            "stats",
            obj(vec![
                ("served", Json::Num(s.served as f64)),
                ("degraded", Json::Num(s.degraded as f64)),
                ("overloaded", Json::Num(s.overloaded as f64)),
                ("deadline_exceeded", Json::Num(s.deadline_exceeded as f64)),
                ("panics", Json::Num(s.panics as f64)),
                ("errors", Json::Num(s.errors as f64)),
                (
                    "faults_injected",
                    Json::Num(gubpi_pool::faults_injected() as f64),
                ),
            ]),
        ),
    ])
    .to_wire()
    .into_bytes()
}

/// Decrements the inflight counter even when the query panics.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn answer_query(shared: &Shared, req: &QueryRequest) -> Vec<u8> {
    // Admission control: claim an inflight slot or reject before any
    // analysis work is scheduled.
    let admitted = shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.config.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        return error_payload(
            error_code(QueryError::Overloaded),
            &QueryError::Overloaded.to_string(),
        );
    }
    let _slot = InflightGuard(&shared.inflight);
    let token = match req.timeout_ms.or(shared.config.default_timeout_ms) {
        Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    if token.is_cancelled() {
        // The deadline expired before any work started (a zero budget):
        // there is no prefix to anchor even a degraded bound to, so
        // this is the one deadline case reported as an error.
        shared
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        return error_payload(
            error_code(QueryError::DeadlineExceeded),
            &QueryError::DeadlineExceeded.to_string(),
        );
    }
    // Panic containment: a panicking query (injected via `GUBPI_FAULT`
    // or genuine) unwinds to here and no further — the worker pool
    // re-raises task panics on this owning thread, so the pool itself
    // stays healthy and the server answers with a typed error.
    let result = catch_unwind(AssertUnwindSafe(|| run_query(shared, req, &token)));
    match result {
        Ok(Ok(outcome)) => {
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            if outcome.degraded {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            ok_payload(&outcome)
        }
        Ok(Err(Failure::Query(e))) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            error_payload(error_code(e), &e.to_string())
        }
        Ok(Err(Failure::Lang(msg))) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            error_payload("parse_error", &msg)
        }
        Err(_) => {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            error_payload(
                error_code(QueryError::WorkerPanicked),
                &QueryError::WorkerPanicked.to_string(),
            )
        }
    }
}

enum Failure {
    Query(QueryError),
    Lang(String),
}

fn run_query(
    shared: &Shared,
    req: &QueryRequest,
    token: &CancelToken,
) -> Result<QueryOutcome, Failure> {
    // Deterministic chaos hook: the request boundary is fault-injection
    // boundary zero for this task chain.
    fault_point(Some(token));
    let mut opts = AnalysisOptions::default();
    opts.bounds.region_budget = req
        .region_budget
        .unwrap_or(opts.bounds.region_budget)
        .clamp(1, shared.config.max_region_budget);
    let program = parse(&req.source).map_err(|e| Failure::Lang(e.to_string()))?;
    let analyzer = Analyzer::from_program_cancellable(
        program,
        opts,
        &shared.cache,
        WorkerPool::global(),
        Some(token),
    )
    .map_err(|e| Failure::Lang(e.to_string()))?;
    let outcome = match req.kind {
        QueryKind::Denotation => analyzer.try_denotation_outcome(req.lo, req.hi, Some(token)),
        QueryKind::Posterior => analyzer.try_posterior_outcome(req.lo, req.hi, Some(token)),
    }
    .map_err(Failure::Query)?;
    Ok(outcome)
}
