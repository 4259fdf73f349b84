//! `gubpi-serve` — a deadline-aware serving front-end for the GuBPI
//! analyzer.
//!
//! The daemon speaks a std-only protocol: length-prefixed JSON frames
//! over a TCP socket ([`proto`]), no external dependencies. Its
//! robustness contract:
//!
//! - **Anytime sound bounds.** Every query runs under a cooperative
//!   [`CancelToken`](gubpi_core::CancelToken) threaded through the
//!   whole execution stack (symbolic execution, region sweeps,
//!   refinement rounds). On deadline expiry the reply still carries a
//!   *guaranteed* enclosure — unswept work contributes its coarse
//!   whole-box bound — flagged `degraded` with a `completeness`
//!   fraction. Undegraded replies are bit-identical to untimed runs.
//! - **Panic containment.** Queries run inside `catch_unwind`; a panic
//!   (genuine or injected via `GUBPI_FAULT=panic@N`) yields a typed
//!   `worker_panicked` error and the daemon stays serviceable.
//! - **Admission control.** A bounded inflight counter rejects excess
//!   load with `overloaded` before any work is scheduled; per-request
//!   region budgets are clamped server-side.
//! - **Deterministic fault injection.** `GUBPI_FAULT=panic@N|delay@N|
//!   cancel@N` fires exactly at task boundary `N`
//!   (see `gubpi_pool::fault_point`), driving the chaos test suite.
//!
//! ```no_run
//! use gubpi_serve::{start, Client, QueryKind, QueryRequest, ServeConfig};
//!
//! let server = start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let outcome = client
//!     .query(QueryRequest {
//!         kind: QueryKind::Posterior,
//!         source: "let x = sample in score(x); x".to_string(),
//!         lo: 0.5,
//!         hi: 1.0,
//!         timeout_ms: Some(500),
//!         region_budget: None,
//!     })
//!     .unwrap()
//!     .unwrap();
//! assert!(outcome.lo <= outcome.hi);
//! server.shutdown();
//! ```

pub mod json;
pub mod proto;

mod client;
mod server;

pub use client::Client;
pub use proto::{
    error_code, parse_reply, read_frame, write_frame, QueryKind, QueryRequest, RemoteError,
    Request, MAX_FRAME,
};
pub use server::{start, start_with_cache, ServeConfig, ServerHandle, ServerStats};
