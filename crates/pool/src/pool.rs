//! The persistent worker pool.
//!
//! One long-lived executor runs every parallel sweep: OS threads are
//! spawned **lazily** the first time a caller asks for width > 1, then
//! parked on a condvar between queries, so a production service keeps
//! its workers hot across requests. One pool is shared process-wide by
//! default ([`WorkerPool::global`]) and explicit pools can be shared
//! across `Analyzer` instances exactly like a `SharedQueryCache`.
//!
//! One primitive carries every consumer: [`WorkerPool::run_quota`]
//! enlists up to `extra` pool workers to run a work-claiming closure
//! alongside the caller. The caller always participates; queued helper
//! slots that no worker picks up before the work runs dry are purged,
//! so a small query never blocks on pool capacity. Its only caller is
//! the deterministic task scheduler in [`crate::sched`], whose
//! participants claim path and region tasks in that loop. A participant
//! only ever waits for helpers that already claimed a slot and are
//! running the loop, so every chain of waiters ends at a thread making
//! progress, which rules out deadlock by construction.
//!
//! # Safety
//!
//! `run_quota` hands the pool a **borrowed** closure through a raw
//! `*const dyn Fn` (the workers are long-lived, so `std::thread::scope`
//! cannot tie the lifetimes). The invariant that makes this sound is
//! enforced in exactly one place: `run_quota` returns only after every
//! claimed helper slot has finished and every unclaimed slot has been
//! purged from the queue (both transitions happen under the pool
//! mutex), so no worker can touch the closure after the owning frame
//! unwinds. Panics inside the closure are caught, carried across the
//! latch and resumed on the caller.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on threads a single pool will ever spawn — a backstop
/// against pathological width requests, far above any real worker
/// count.
const MAX_POOL_THREADS: usize = 256;

/// A borrowed task closure smuggled to long-lived workers; see the
/// module-level safety contract.
#[derive(Copy, Clone)]
struct RawTask(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the
// run_quota latch guarantees it outlives every call.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

impl RawTask {
    /// SAFETY: caller guarantees the closure outlives every call (the
    /// run_quota latch; see the module docs).
    unsafe fn new(task: &(dyn Fn() + Sync)) -> RawTask {
        let short: *const (dyn Fn() + Sync + '_) = task;
        RawTask(std::mem::transmute::<
            *const (dyn Fn() + Sync + '_),
            *const (dyn Fn() + Sync + 'static),
        >(short))
    }

    /// SAFETY: caller must uphold the module-level liveness contract.
    unsafe fn call(self) {
        (*self.0)()
    }
}

/// One helper slot of a [`WorkerPool::run_quota`] call.
struct QuotaJob {
    task: RawTask,
    /// Helpers currently *running* the task; incremented under the pool
    /// mutex at claim time so the purge can never race a startup.
    active: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct State {
    queue: VecDeque<Arc<QuotaJob>>,
    /// Threads spawned so far (monotone; workers never exit before
    /// shutdown).
    spawned: usize,
    /// Workers currently parked on the condvar.
    idle: usize,
    /// Largest participation width ever requested (`reserve`); bounds
    /// lazy spawning so a width-2 analysis never inflates the pool to
    /// hardware size.
    width_hint: usize,
    shutdown: bool,
}

/// Monotone counters describing what the executor has done — the
/// observability hooks the scheduler tests assert against.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads spawned over the pool's lifetime.
    pub spawned_workers: u64,
    /// Parallel dispatches (`run_quota` with helpers enlisted): one per
    /// task set that ran wider than the caller.
    pub dispatches: u64,
    /// Task sets resolved inline on the caller (width or work ≤ 1) —
    /// the clamp that keeps a 1-job query from waking an 8-worker pool.
    pub inline_runs: u64,
    /// `Task::Path` adoptions (a participant took ownership of a path).
    pub path_tasks: u64,
    /// `Task::Regions` executions (one contiguous chunk of one path's
    /// region space).
    pub region_tasks: u64,
    /// Paths popped from *another* participant's deque.
    pub path_steals: u64,
    /// Region chunks claimed from a path first claimed by another
    /// participant — cross-path work stealing actually happening.
    pub region_steals: u64,
    /// Gap-driven adaptive refinement rounds driven to completion (one
    /// per lockstep worklist batch the refiner dispatched as a sweep).
    pub refine_rounds: u64,
    /// Worklist cells bisected during adaptive refinement (each split
    /// re-evaluates two child cells on the compiled tape).
    pub refine_splits: u64,
}

#[derive(Default)]
pub(crate) struct StatsCells {
    spawned_workers: AtomicU64,
    dispatches: AtomicU64,
    inline_runs: AtomicU64,
    pub(crate) path_tasks: AtomicU64,
    pub(crate) region_tasks: AtomicU64,
    pub(crate) path_steals: AtomicU64,
    pub(crate) region_steals: AtomicU64,
    refine_rounds: AtomicU64,
    refine_splits: AtomicU64,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here waiting for assignments.
    work: Condvar,
    pub(crate) stats: StatsCells,
    /// Live `WorkerPool` handles; the last one to drop shuts the
    /// workers down (worker threads hold `Arc<Inner>` but no handle).
    handles: AtomicUsize,
}

/// A handle to a persistent worker pool. Cloning is cheap (handle
/// copy); the threads shut down when the last handle drops.
///
/// ```
/// use gubpi_pool::{run_jobs_with, PathJob, WorkerPool};
///
/// let pool = WorkerPool::new();
/// let sweep = || PathJob::Sweep {
///     total: 1_000,
///     cost: 1,
///     process: Box::new(|range, buf: &mut Vec<u64>| buf.extend(range.map(|i| i as u64))),
/// };
/// let mut sums = [0u64; 2];
/// run_jobs_with(&pool, 2, vec![sweep(), sweep()], |path, x| sums[path] += x);
/// assert_eq!(sums, [499_500, 499_500]);
/// ```
pub struct WorkerPool {
    inner: Arc<Inner>,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl Clone for WorkerPool {
    fn clone(&self) -> WorkerPool {
        self.inner.handles.fetch_add(1, Ordering::Relaxed);
        WorkerPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if self.inner.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut st = self.inner.state.lock().expect("pool poisoned");
            st.shutdown = true;
            self.inner.work.notify_all();
        }
    }
}

impl WorkerPool {
    /// A fresh pool with **zero** threads; workers are spawned lazily
    /// when a caller first asks for parallel width.
    pub fn new() -> WorkerPool {
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    spawned: 0,
                    idle: 0,
                    width_hint: 1,
                    shutdown: false,
                }),
                work: Condvar::new(),
                stats: StatsCells::default(),
                handles: AtomicUsize::new(1),
            }),
        }
    }

    /// The process-wide default pool, shared by every `Analyzer` that
    /// is not constructed with an explicit pool. Never shuts down.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Records that callers may ask for up to `width` participants,
    /// allowing the pool to grow to `width − 1` threads on demand. Does
    /// not spawn anything by itself.
    pub fn reserve(&self, width: usize) {
        let mut st = self.inner.state.lock().expect("pool poisoned");
        st.width_hint = st.width_hint.max(width.min(MAX_POOL_THREADS + 1));
    }

    /// Counter snapshot (monotone; see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        let s = &self.inner.stats;
        PoolStats {
            spawned_workers: s.spawned_workers.load(Ordering::Relaxed),
            dispatches: s.dispatches.load(Ordering::Relaxed),
            inline_runs: s.inline_runs.load(Ordering::Relaxed),
            path_tasks: s.path_tasks.load(Ordering::Relaxed),
            region_tasks: s.region_tasks.load(Ordering::Relaxed),
            path_steals: s.path_steals.load(Ordering::Relaxed),
            region_steals: s.region_steals.load(Ordering::Relaxed),
            refine_rounds: s.refine_rounds.load(Ordering::Relaxed),
            refine_splits: s.refine_splits.load(Ordering::Relaxed),
        }
    }

    /// Records one finished adaptive-refinement run: `rounds` lockstep
    /// worklist rounds and `splits` cell bisections.
    pub fn note_refinement(&self, rounds: u64, splits: u64) {
        let s = &self.inner.stats;
        s.refine_rounds.fetch_add(rounds, Ordering::Relaxed);
        s.refine_splits.fetch_add(splits, Ordering::Relaxed);
    }

    /// Number of worker threads spawned so far.
    pub fn spawned_workers(&self) -> usize {
        self.inner.state.lock().expect("pool poisoned").spawned
    }

    /// Do two handles drive the same underlying pool? (Handles are
    /// distinct structs, so pointer-comparing them says nothing.)
    pub fn same_pool(&self, other: &WorkerPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn note_inline_run(&self) {
        self.inner.stats.inline_runs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats_cells(&self) -> &StatsCells {
        &self.inner.stats
    }

    /// Runs `task` on the calling thread **and** on up to `extra` pool
    /// workers concurrently, returning once every participant is done.
    ///
    /// `task` must be a work-claiming loop: participants race to claim
    /// units from shared state and return when nothing is left, so a
    /// helper that arrives late (or never) is harmless. With
    /// `extra == 0` this is a plain inline call.
    ///
    /// Panics in any participant are propagated to the caller (after
    /// all participants finished, so the borrowed closure stays valid).
    pub(crate) fn run_quota(&self, extra: usize, task: &(dyn Fn() + Sync)) {
        if extra == 0 {
            task();
            return;
        }
        let job = Arc::new(QuotaJob {
            // SAFETY: `task` outlives this call; see the latch protocol.
            task: unsafe { RawTask::new(task) },
            active: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.inner.state.lock().expect("pool poisoned");
            st.width_hint = st.width_hint.max((extra + 1).min(MAX_POOL_THREADS + 1));
            let cap = st.width_hint.saturating_sub(1).min(MAX_POOL_THREADS);
            let missing = extra.min(cap).saturating_sub(st.idle);
            for _ in 0..missing {
                if st.spawned >= cap {
                    break;
                }
                self.spawn_worker(&mut st);
            }
            for _ in 0..extra {
                st.queue.push_back(Arc::clone(&job));
            }
            self.inner.work.notify_all();
            self.inner.stats.dispatches.fetch_add(1, Ordering::Relaxed);
        }
        // The caller is always a participant.
        let caller_panic = catch_unwind(AssertUnwindSafe(task)).err();
        // Purge helper slots nobody claimed; claimed ones are tracked by
        // `active` and awaited below.
        self.inner
            .state
            .lock()
            .expect("pool poisoned")
            .queue
            .retain(|j| !Arc::ptr_eq(j, &job));
        let mut active = job.active.lock().expect("pool poisoned");
        while *active > 0 {
            active = job.done.wait(active).expect("pool poisoned");
        }
        drop(active);
        if let Some(p) = caller_panic {
            resume_unwind(p);
        }
        let helper_panic = job.panic.lock().expect("pool poisoned").take();
        if let Some(p) = helper_panic {
            resume_unwind(p);
        }
    }

    /// Spawns one worker thread. Must be called with the state lock
    /// held (`st` proves it).
    fn spawn_worker(&self, st: &mut State) {
        let inner = Arc::clone(&self.inner);
        st.spawned += 1;
        self.inner
            .stats
            .spawned_workers
            .fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name("gubpi-pool-worker".to_owned())
            .spawn(move || worker_loop(&inner))
            .expect("worker thread spawns");
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.state.lock().expect("pool poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    // Claim under the pool mutex: run_quota's purge (also
                    // under the mutex) either removed this slot or will
                    // await this increment.
                    *job.active.lock().expect("pool poisoned") += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st.idle += 1;
                st = inner.work.wait(st).expect("pool poisoned");
                st.idle -= 1;
            }
        };
        // SAFETY: `active > 0` holds until the decrement below, and
        // run_quota waits for it before invalidating `task`.
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| unsafe { job.task.call() })) {
            job.panic.lock().expect("pool poisoned").get_or_insert(p);
        }
        let mut active = job.active.lock().expect("pool poisoned");
        *active -= 1;
        if *active == 0 {
            job.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_quota_zero_extra_is_inline() {
        let pool = WorkerPool::new();
        let hits = AtomicUsize::new(0);
        pool.run_quota(0, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.spawned_workers(), 0, "no threads for inline work");
    }

    #[test]
    fn run_quota_enlists_helpers_and_completes() {
        let pool = WorkerPool::new();
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        pool.run_quota(3, &|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= 1000 {
                break;
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 1000);
        assert!(pool.spawned_workers() <= 3);
        // The pool persists: a second dispatch reuses the workers.
        let before = pool.spawned_workers();
        cursor.store(0, Ordering::Relaxed);
        pool.run_quota(3, &|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= 100 {
                break;
            }
        });
        assert_eq!(pool.spawned_workers(), before, "workers are reused");
    }

    #[test]
    fn run_quota_propagates_panics() {
        let pool = WorkerPool::new();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_quota(2, &|| panic!("boom"));
        }));
        assert!(r.is_err());
        // The pool survives a panicking task set.
        let ok = AtomicUsize::new(0);
        pool.run_quota(2, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn dropping_the_last_handle_shuts_down() {
        let pool = WorkerPool::new();
        pool.run_quota(2, &|| {});
        let clone = pool.clone();
        drop(pool);
        // Still alive through the second handle.
        clone.run_quota(2, &|| {});
        drop(clone); // workers asked to exit; nothing to assert beyond "no hang"
    }
}
