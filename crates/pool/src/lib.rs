//! `gubpi-pool` — the persistent work-stealing executor behind the
//! GuBPI analysis engine.
//!
//! One long-lived [`WorkerPool`] (shared process-wide by default, or
//! explicitly across `Analyzer` instances like a shared query cache)
//! executes a unified deterministic task model: [`Task::Path`] adopts a
//! whole symbolic path, [`Task::Regions`] processes one contiguous
//! chunk of a path's region space, and idle workers **steal** region
//! chunks from still-running dominant paths. All partial results are
//! replayed in (path index, region index) order, so every reported
//! bound is bit-identical across thread counts and steal schedules —
//! see [`run_jobs_with`] for the full argument.
//!
//! The crate sits at the bottom of the workspace (std only): the core
//! analyzer schedules every query's sweeps through [`run_jobs_with`] on
//! one set of warm workers, and the symbolic executor takes only the
//! [`CancelToken`] it polls. `gubpi_core::pool` re-exports this API.

mod cancel;
mod fault;
mod pool;
mod sched;
mod threads;

pub use cancel::CancelToken;
pub use fault::{
    arm_fault_from_env, fault_point, faults_injected, set_fault_plan, FaultKind, FaultPlan,
};
pub use pool::{PoolStats, WorkerPool};
pub use sched::{
    chunk_width, run_each, run_jobs_cancellable, run_jobs_with, PathJob, RegionFn, SweepProgress,
    Task, LANE_GRAIN,
};
pub use threads::Threads;
