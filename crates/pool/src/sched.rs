//! The unified deterministic task model.
//!
//! A bounding query is a set of per-path jobs; each job is either a
//! precomputed item stream ([`PathJob::Ready`]) or a *sweep* — a flat
//! index space of pure region computations ([`PathJob::Sweep`]). The
//! scheduler executes two kinds of [`Task`]:
//!
//! * [`Task::Path`] — a participant adopts a whole path and drains its
//!   region space chunk by chunk;
//! * [`Task::Regions`] — one contiguous chunk of one path's region
//!   space, the unit in which idle participants **steal work from
//!   still-running paths**.
//!
//! Paths are dealt round-robin into per-participant deques. A
//! participant pops its own deque front; when empty it steals a path
//! from the back of another deque; when no unclaimed path remains it
//! claims region chunks from any unfinished sweep — so a query no
//! longer chooses path-grain *or* region-grain, and workers that finish
//! the shallow paths converge on the dominant one.
//!
//! # Determinism guarantee
//!
//! Every sweep's chunk boundaries are a pure function of its size and
//! the resolved width (all claims go through one shared cursor with one
//! chunk size), so the *partition* of the index space is identical no
//! matter which participant claimed which chunk. Each chunk's item
//! buffer is recorded with its start index, and [`run_jobs_with`]
//! replays all buffers to the caller's fold in **(path index, region
//! index) order** — the concatenation visits every region of every path
//! exactly as a sequential sweep would, so every reported bound is
//! bit-identical across thread counts and steal schedules. With a
//! resolved width of 1 (or ≤ 1 unit of work) the scheduler degrades to
//! a streaming sequential sweep on the calling thread: no buffering, no
//! pool wake-up, no empty partials.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::CancelToken;
use crate::fault::fault_point;
use crate::pool::WorkerPool;

/// One schedulable unit of the unified task model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Task {
    /// Adopt path `idx`: drain its region space chunk by chunk.
    Path(usize),
    /// Process one contiguous chunk of path `path`'s region space.
    Regions {
        /// Index of the path whose space the chunk belongs to.
        path: usize,
        /// Half-open region-index range of the chunk.
        range: Range<usize>,
    },
}

/// The pure batched computation of a sweep: `process(range, buf)`
/// appends the items of every index in `range` (possibly none per
/// index) to `buf`, **in increasing index order**. Handing whole ranges
/// to the plan lets it amortise per-chunk setup (kernel scratch
/// allocation, incremental odometer decoding, lane-blocked evaluation)
/// across thousands of regions instead of paying it per cell.
pub type RegionFn<'a, T> = Box<dyn Fn(Range<usize>, &mut Vec<T>) + Sync + 'a>;

/// One per-path job handed to the scheduler.
pub enum PathJob<'a, T> {
    /// The item stream is already known (sampleless paths, infeasible
    /// polytopes): nothing to schedule, the items are folded directly.
    Ready(Vec<T>),
    /// A flat index space of pure region computations.
    Sweep {
        /// Size of the index space (`0..total`).
        total: usize,
        /// Deterministic per-region cost estimate (e.g. the compiled
        /// tape length); seeds the adaptive chunk width. Must be a pure
        /// function of the plan — never of timing or thread identity.
        cost: u64,
        /// The pure batched computation over an index range.
        process: RegionFn<'a, T>,
    },
}

/// The scheduler's minimum chunk grain, mirroring the compiled
/// kernel's lane-block width (`gubpi_symbolic::LANES` asserts the two
/// stay equal). Sweeps are evaluated in lane blocks of this many
/// regions at once; a chunk narrower than one block wastes vector
/// lanes *and* pays a full per-chunk setup (scratch allocation, buffer,
/// replay entry) for a fraction of a block's work.
pub const LANE_GRAIN: usize = 16;

/// Deterministic chunk width of a region sweep: a **pure function of
/// `(total, width, cost)`**, so the partition of the index space — and
/// therefore every replayed bound — is bit-identical across runs, steal
/// schedules and pool states.
///
/// The width adapts to the plan's per-region cost estimate: expensive
/// regions (long tapes, high-dimensional volumes) get smaller chunks so
/// idle workers can steal meaningful work, cheap regions get larger
/// chunks so the scheduler's atomic traffic and buffer overhead stay
/// negligible. Three guards bracket the cost-derived width: at most ~4
/// chunks per participant of headroom is kept (the PR-4 fairness
/// split), a sweep never shatters into more than `MAX_CHUNKS` (4096)
/// chunks no matter how expensive its regions look, and a chunk never
/// drops below one [`LANE_GRAIN`] lane block (unless the sweep itself
/// is smaller). The lane floor is what keeps *small, expensive* sweeps
/// — adaptive-refinement rounds hand the scheduler a few dozen
/// deep-tape child cells at a time — from shattering into one-region
/// chunks whose scratch setup outweighs the work.
pub fn chunk_width(total: usize, width: usize, cost: u64) -> usize {
    /// Target work units (cost × regions) per chunk.
    const TARGET_CHUNK_COST: u64 = 1 << 20;
    /// Upper bound on chunks per sweep (caps buffer/replay overhead).
    const MAX_CHUNKS: usize = 4096;
    let fair = total.div_ceil(width.max(1) * 4).max(1);
    let by_cost = usize::try_from(TARGET_CHUNK_COST / cost.max(1))
        .unwrap_or(usize::MAX)
        .max(1);
    by_cost
        .min(fair)
        .max(total.div_ceil(MAX_CHUNKS))
        .max(LANE_GRAIN.min(total))
        .max(1)
}

/// Per-sweep shared claiming state.
struct Space {
    total: usize,
    chunk: usize,
    cursor: AtomicUsize,
    /// First participant to claim a chunk (`usize::MAX` while
    /// unclaimed); later claims by other participants are steals.
    owner: AtomicUsize,
}

/// Local steal/task counters, flushed into the pool stats once per run.
#[derive(Default)]
struct RunCounters {
    path_tasks: AtomicU64,
    region_tasks: AtomicU64,
    path_steals: AtomicU64,
    region_steals: AtomicU64,
}

/// How much of one job's region space completed before a run returned.
///
/// Claimed chunks always run to completion and claims advance one
/// monotone cursor, so the completed regions of a cancelled sweep are
/// exactly the contiguous prefix `0..done` — the folded item stream of
/// an interrupted job is the prefix of the sequential stream, never a
/// gapped subset.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SweepProgress {
    /// Regions evaluated and folded (a contiguous prefix of the space).
    pub done: usize,
    /// Size of the job's region space ([`PathJob::Ready`] jobs report
    /// their item count and are always complete).
    pub total: usize,
}

impl SweepProgress {
    /// Did the whole region space fold?
    pub fn complete(&self) -> bool {
        self.done >= self.total
    }
}

/// Executes `jobs` on up to `width` participants (the caller plus pool
/// workers) and folds every produced item into `fold` in deterministic
/// **(path index, region index) order**; [`run_jobs_cancellable`]
/// without a token.
///
/// `fold(path_idx, item)` always runs on the calling thread.
pub fn run_jobs_with<T: Send + Sync>(
    pool: &WorkerPool,
    width: usize,
    jobs: Vec<PathJob<'_, T>>,
    fold: impl FnMut(usize, T),
) {
    run_jobs_cancellable(pool, width, jobs, None, fold);
}

/// Executes `jobs` on up to `width` participants (the caller plus pool
/// workers) and folds every produced item into `fold` in deterministic
/// **(path index, region index) order**, polling an optional
/// cooperative [`CancelToken`] at every chunk boundary (claims and the
/// sequential fast path alike).
///
/// `fold(path_idx, item)` always runs on the calling thread. On
/// cancellation, work already claimed still completes; each job's
/// folded items are the contiguous **prefix** of its sequential stream
/// reported in the returned [`SweepProgress`] (see its docs for the
/// monotone-cursor argument). `Ready` jobs always fold fully. A run
/// that is never cancelled completes every job — same partition, same
/// replay, bit-identical fold sequence with or without a token.
pub fn run_jobs_cancellable<T: Send + Sync>(
    pool: &WorkerPool,
    width: usize,
    jobs: Vec<PathJob<'_, T>>,
    cancel: Option<&CancelToken>,
    mut fold: impl FnMut(usize, T),
) -> Vec<SweepProgress> {
    if jobs.is_empty() {
        return Vec::new();
    }
    // Deterministic chunk size per sweep, seeded from the plan's cost
    // estimate (see `chunk_width`). The value only shapes scheduling —
    // the folded item stream is partition-independent.
    let width = width.max(1);
    let spaces: Vec<Option<Space>> = jobs
        .iter()
        .map(|j| match j {
            PathJob::Ready(_) => None,
            PathJob::Sweep { total, .. } if *total == 0 => None,
            PathJob::Sweep { total, cost, .. } => {
                let chunk = chunk_width(*total, width, *cost);
                pool.stats_cells()
                    .last_chunk_width
                    .store(chunk as u64, Ordering::Relaxed);
                Some(Space {
                    total: *total,
                    chunk,
                    cursor: AtomicUsize::new(0),
                    owner: AtomicUsize::new(usize::MAX),
                })
            }
        })
        .collect();
    // Units of schedulable work decide the effective width (the clamp
    // that keeps a 1-job query from waking an 8-worker pool).
    let units: usize = spaces
        .iter()
        .flatten()
        .map(|s| s.total.div_ceil(s.chunk))
        .sum();
    let width = width.min(units.max(1));
    if width <= 1 {
        pool.note_inline_run();
        return run_sequential(jobs, cancel, fold);
    }

    let deques: Vec<Mutex<VecDeque<Task>>> =
        (0..width).map(|_| Mutex::new(VecDeque::new())).collect();
    for (next, i) in (0..jobs.len()).filter(|&i| spaces[i].is_some()).enumerate() {
        deques[next % width]
            .lock()
            .expect("deque poisoned")
            .push_back(Task::Path(i));
    }
    let out: Mutex<Vec<(usize, usize, Vec<T>)>> = Mutex::new(Vec::new());
    let counters = RunCounters::default();
    let next_participant = AtomicUsize::new(0);
    let participant = || {
        let me = next_participant.fetch_add(1, Ordering::Relaxed) % width;
        participant_loop(me, width, &jobs, &spaces, &deques, &out, &counters, cancel);
    };
    pool.run_quota(width - 1, &participant);
    flush_counters(pool, &counters);

    // Completed prefix per sweep: every claimed chunk ran to completion
    // and claims are monotone, so the cursor (capped by the total) *is*
    // the prefix length — even when cancellation stopped further claims.
    let progress: Vec<SweepProgress> = jobs
        .iter()
        .zip(&spaces)
        .map(|(job, space)| match (job, space) {
            (PathJob::Ready(items), _) => SweepProgress {
                done: items.len(),
                total: items.len(),
            },
            (PathJob::Sweep { total, .. }, None) => SweepProgress {
                done: 0,
                total: *total,
            },
            (PathJob::Sweep { total, .. }, Some(sp)) => SweepProgress {
                done: sp.cursor.load(Ordering::Relaxed).min(*total),
                total: *total,
            },
        })
        .collect();

    // Deterministic reduce: group chunk buffers per path, order them by
    // region start, and replay — (path index, region index) order, bit
    // for bit the sequential sweep.
    let mut per_path: Vec<Vec<(usize, Vec<T>)>> = Vec::with_capacity(jobs.len());
    per_path.resize_with(jobs.len(), Vec::new);
    for (path, start, items) in out.into_inner().expect("out poisoned") {
        per_path[path].push((start, items));
    }
    for (i, (job, mut partials)) in jobs.into_iter().zip(per_path).enumerate() {
        match job {
            PathJob::Ready(items) => {
                for item in items {
                    fold(i, item);
                }
            }
            PathJob::Sweep { .. } => {
                partials.sort_unstable_by_key(|&(start, _)| start);
                for (_, items) in partials {
                    for item in items {
                        fold(i, item);
                    }
                }
            }
        }
    }
    progress
}

/// The width-1 fast path: stream every job straight into the fold, in
/// order, with a single reused buffer — no partials, no pool. Sweeps
/// stream chunk by chunk (same width-1 chunking as the parallel
/// partition) so the buffer stays bounded on huge region spaces.
///
/// Cancellation is checked at the same grain as the parallel mode —
/// once per chunk, before it runs — so an interrupted job's folded
/// stream is a chunk-aligned prefix. `Ready` jobs still fold fully
/// after a cancellation: their items are precomputed contributions.
fn run_sequential<T>(
    jobs: Vec<PathJob<'_, T>>,
    cancel: Option<&CancelToken>,
    mut fold: impl FnMut(usize, T),
) -> Vec<SweepProgress> {
    let mut buf = Vec::new();
    let mut progress = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.into_iter().enumerate() {
        match job {
            PathJob::Ready(items) => {
                progress.push(SweepProgress {
                    done: items.len(),
                    total: items.len(),
                });
                for item in items {
                    fold(i, item);
                }
            }
            PathJob::Sweep {
                total,
                cost,
                process,
            } => {
                let chunk = chunk_width(total, 1, cost);
                let mut start = 0;
                while start < total {
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    fault_point(cancel);
                    let end = (start + chunk).min(total);
                    process(start..end, &mut buf);
                    for item in buf.drain(..) {
                        fold(i, item);
                    }
                    start = end;
                }
                progress.push(SweepProgress { done: start, total });
            }
        }
    }
    progress
}

fn participant_loop<T: Send + Sync>(
    me: usize,
    width: usize,
    jobs: &[PathJob<'_, T>],
    spaces: &[Option<Space>],
    deques: &[Mutex<VecDeque<Task>>],
    out: &Mutex<Vec<(usize, usize, Vec<T>)>>,
    counters: &RunCounters,
    cancel: Option<&CancelToken>,
) {
    loop {
        // 0. Cooperative cancellation: stop claiming new work. Claimed
        // chunks always completed, so the per-sweep cursors still
        // describe exact completed prefixes.
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        // 1. Own deque, front.
        let own = deques[me].lock().expect("deque poisoned").pop_front();
        if let Some(task) = own {
            counters.path_tasks.fetch_add(1, Ordering::Relaxed);
            run_task(task, me, jobs, spaces, out, counters, cancel);
            continue;
        }
        // 2. Steal a path from the back of another participant's deque.
        let stolen = (1..width).find_map(|k| {
            deques[(me + k) % width]
                .lock()
                .expect("deque poisoned")
                .pop_back()
        });
        if let Some(task) = stolen {
            counters.path_tasks.fetch_add(1, Ordering::Relaxed);
            counters.path_steals.fetch_add(1, Ordering::Relaxed);
            run_task(task, me, jobs, spaces, out, counters, cancel);
            continue;
        }
        // 3. No unclaimed path anywhere: steal region chunks from a
        // still-running sweep (the dominant-path case).
        let chunk = spaces.iter().enumerate().find_map(|(p, sp)| {
            let sp = sp.as_ref()?;
            (sp.cursor.load(Ordering::Relaxed) < sp.total)
                .then(|| claim_chunk(p, sp))
                .flatten()
        });
        if let Some(task) = chunk {
            run_task(task, me, jobs, spaces, out, counters, cancel);
            continue;
        }
        // 4. Every deque empty, every cursor exhausted (work is never
        // added after start, so this is a stable condition): done.
        break;
    }
}

/// Claims the next chunk of `sp`'s region space, if any is left.
fn claim_chunk(path: usize, sp: &Space) -> Option<Task> {
    let start = sp.cursor.fetch_add(sp.chunk, Ordering::Relaxed);
    if start >= sp.total {
        None
    } else {
        Some(Task::Regions {
            path,
            range: start..(start + sp.chunk).min(sp.total),
        })
    }
}

fn run_task<T: Send + Sync>(
    task: Task,
    me: usize,
    jobs: &[PathJob<'_, T>],
    spaces: &[Option<Space>],
    out: &Mutex<Vec<(usize, usize, Vec<T>)>>,
    counters: &RunCounters,
    cancel: Option<&CancelToken>,
) {
    match task {
        Task::Path(p) => {
            let sp = spaces[p].as_ref().expect("scheduled paths have spaces");
            loop {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    break;
                }
                match claim_chunk(p, sp) {
                    Some(chunk) => run_task(chunk, me, jobs, spaces, out, counters, cancel),
                    None => break,
                }
            }
        }
        Task::Regions { path, range } => {
            // Task boundary: the deterministic fault-injection hook
            // (one relaxed load when no plan is armed).
            fault_point(cancel);
            let sp = spaces[path].as_ref().expect("scheduled paths have spaces");
            let first =
                sp.owner
                    .compare_exchange(usize::MAX, me, Ordering::Relaxed, Ordering::Relaxed);
            if first.is_err_and(|owner| owner != me) {
                counters.region_steals.fetch_add(1, Ordering::Relaxed);
            }
            counters.region_tasks.fetch_add(1, Ordering::Relaxed);
            let PathJob::Sweep { process, .. } = &jobs[path] else {
                unreachable!("spaces exist only for sweeps");
            };
            let mut items = Vec::new();
            let start = range.start;
            process(range, &mut items);
            out.lock().expect("out poisoned").push((path, start, items));
        }
    }
}

fn flush_counters(pool: &WorkerPool, c: &RunCounters) {
    let s = pool.stats_cells();
    s.path_tasks
        .fetch_add(c.path_tasks.load(Ordering::Relaxed), Ordering::Relaxed);
    s.region_tasks
        .fetch_add(c.region_tasks.load(Ordering::Relaxed), Ordering::Relaxed);
    s.path_steals
        .fetch_add(c.path_steals.load(Ordering::Relaxed), Ordering::Relaxed);
    s.region_steals
        .fetch_add(c.region_steals.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity sweeps: every region index yields itself.
    fn sweep_jobs(sizes: &[usize]) -> Vec<PathJob<'static, usize>> {
        sizes
            .iter()
            .map(|&n| PathJob::Sweep {
                total: n,
                cost: 1,
                process: Box::new(|range, buf| buf.extend(range)),
            })
            .collect()
    }

    fn collect(
        pool: &WorkerPool,
        width: usize,
        jobs: Vec<PathJob<'_, usize>>,
    ) -> Vec<(usize, usize)> {
        let mut got = Vec::new();
        run_jobs_with(pool, width, jobs, |p, item| got.push((p, item)));
        got
    }

    #[test]
    fn items_fold_in_path_then_region_order() {
        let pool = WorkerPool::new();
        let reference = collect(&pool, 1, sweep_jobs(&[5, 0, 3, 1000, 2]));
        for width in [2usize, 3, 4, 8] {
            let got = collect(&pool, width, sweep_jobs(&[5, 0, 3, 1000, 2]));
            assert_eq!(got, reference, "width {width}");
        }
    }

    #[test]
    fn ready_jobs_fold_without_scheduling() {
        let pool = WorkerPool::new();
        let jobs = vec![
            PathJob::Ready(vec![10usize, 11]),
            PathJob::Sweep {
                total: 3,
                cost: 1,
                process: Box::new(|range, buf| buf.extend(range)),
            },
            PathJob::Ready(vec![99]),
        ];
        let got = collect(&pool, 4, jobs);
        assert_eq!(got, vec![(0, 10), (0, 11), (1, 0), (1, 1), (1, 2), (2, 99)]);
    }

    #[test]
    fn tiny_work_runs_inline_without_waking_the_pool() {
        let pool = WorkerPool::new();
        let before = pool.stats();
        let got = collect(&pool, 8, sweep_jobs(&[1]));
        assert_eq!(got, vec![(0, 0)]);
        let after = pool.stats();
        assert_eq!(after.dispatches, before.dispatches, "no dispatch");
        assert_eq!(after.inline_runs, before.inline_runs + 1);
        assert_eq!(pool.spawned_workers(), 0, "no threads for a 1-unit query");
    }

    #[test]
    fn dominant_sweep_is_stolen_from() {
        // One huge path and several trivial ones: participants that
        // drain the trivial paths must steal chunks of the dominant
        // sweep. With 4 participants and ~16 chunks the steal counter
        // must move (every participant starts on its own deque, so at
        // least the three non-owners end up claiming foreign chunks).
        let pool = WorkerPool::new();
        let before = pool.stats();
        let got = collect(&pool, 4, sweep_jobs(&[100_000, 1, 1, 1]));
        assert_eq!(got.len(), 100_003);
        let after = pool.stats();
        assert!(after.dispatches > before.dispatches);
        assert_eq!(
            after.region_tasks - before.region_tasks,
            100_000usize.div_ceil(chunk_width(100_000, 4, 1)) as u64 + 3,
            "chunk partition is a pure function of (total, width, cost)"
        );
        assert_eq!(
            after.last_chunk_width,
            chunk_width(1, 4, 1) as u64,
            "gauge reflects the most recently planned sweep (the trailing 1-region paths)"
        );
    }

    #[test]
    fn chunk_width_is_pure_and_cost_adaptive() {
        // Cheap regions reproduce the fairness split (~4 chunks/worker).
        assert_eq!(chunk_width(100_000, 4, 1), 6250);
        // Expensive regions shrink the chunk toward the cost target ...
        let heavy = chunk_width(100_000, 4, 1 << 12);
        assert!(heavy < 6250, "heavy regions must chunk finer: {heavy}");
        assert_eq!(heavy, (1usize << 20) >> 12);
        // ... but never below the 4096-chunk cap, a lane block, or the
        // sweep itself.
        assert_eq!(chunk_width(1 << 20, 4, u64::MAX), (1usize << 20) / 4096);
        assert_eq!(chunk_width(10, 4, u64::MAX), 10);
        assert_eq!(chunk_width(100, 4, u64::MAX), LANE_GRAIN);
        // Monotone determinism: same inputs, same width — every call.
        for &(t, w, c) in &[(1usize, 1usize, 1u64), (12345, 3, 77), (1 << 20, 8, 500)] {
            assert_eq!(chunk_width(t, w, c), chunk_width(t, w, c));
            assert!(chunk_width(t, w, c) >= 1);
        }
    }

    #[test]
    fn few_expensive_regions_chunk_at_lane_blocks() {
        // An adaptive-refinement round: a small batch of expensive
        // cells. The raw cost target would shatter it into one-region
        // chunks; the lane floor must hold the width at one lane block,
        // observable through the `last_chunk_width` gauge.
        let pool = WorkerPool::new();
        assert_eq!(chunk_width(40, 4, 1 << 20), LANE_GRAIN);
        let jobs: Vec<PathJob<'_, usize>> = vec![PathJob::Sweep {
            total: 40,
            cost: 1 << 20,
            process: Box::new(|range, buf| buf.extend(range)),
        }];
        let got = collect(&pool, 4, jobs);
        assert_eq!(got.len(), 40);
        assert_eq!(pool.stats().last_chunk_width, LANE_GRAIN as u64);
    }

    #[test]
    fn cost_changes_chunking_but_not_the_folded_stream() {
        let pool = WorkerPool::new();
        let jobs_with_cost = |cost: u64| -> Vec<PathJob<'static, usize>> {
            vec![PathJob::Sweep {
                total: 50_000,
                cost,
                process: Box::new(|range, buf| buf.extend(range)),
            }]
        };
        let reference = collect(&pool, 1, jobs_with_cost(1));
        for cost in [1u64, 64, 4096, u64::MAX] {
            for width in [2usize, 4] {
                let got = collect(&pool, width, jobs_with_cost(cost));
                assert_eq!(got, reference, "cost {cost} width {width}");
            }
        }
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new();
        let before = pool.stats();
        run_jobs_with(&pool, 8, Vec::<PathJob<'_, usize>>::new(), |_, _: usize| {
            panic!("no items")
        });
        assert_eq!(pool.stats(), before);
    }

    #[test]
    fn uncancelled_token_runs_are_bit_identical_to_plain_runs() {
        let pool = WorkerPool::new();
        let reference = collect(&pool, 1, sweep_jobs(&[5, 0, 3, 1000, 2]));
        for width in [1usize, 2, 4, 8] {
            let mut got = Vec::new();
            let token = CancelToken::new();
            let progress = run_jobs_cancellable(
                &pool,
                width,
                sweep_jobs(&[5, 0, 3, 1000, 2]),
                Some(&token),
                |p, item| got.push((p, item)),
            );
            assert_eq!(got, reference, "width {width}");
            assert!(progress.iter().all(SweepProgress::complete));
            assert_eq!(
                progress.iter().map(|p| p.total).collect::<Vec<_>>(),
                vec![5, 0, 3, 1000, 2]
            );
        }
    }

    #[test]
    fn pre_cancelled_runs_fold_only_ready_jobs() {
        let pool = WorkerPool::new();
        for width in [1usize, 4] {
            let token = CancelToken::new();
            token.cancel();
            let jobs: Vec<PathJob<'_, usize>> = vec![
                PathJob::Ready(vec![7, 8]),
                PathJob::Sweep {
                    total: 100_000,
                    cost: 1,
                    process: Box::new(|range, buf| buf.extend(range)),
                },
            ];
            let mut got = Vec::new();
            let progress = run_jobs_cancellable(&pool, width, jobs, Some(&token), |p, item| {
                got.push((p, item))
            });
            assert_eq!(got, vec![(0, 7), (0, 8)], "width {width}");
            assert!(progress[0].complete());
            assert_eq!(
                progress[1],
                SweepProgress {
                    done: 0,
                    total: 100_000
                }
            );
        }
    }

    #[test]
    fn mid_run_cancellation_folds_an_exact_prefix() {
        // The sweep cancels its own token once it sees index 5_000; the
        // folded stream must then be a contiguous prefix of the
        // sequential stream matching the reported progress, at every
        // width.
        let pool = WorkerPool::new();
        for width in [1usize, 2, 4, 8] {
            let token = CancelToken::new();
            let tok = token.clone();
            let jobs: Vec<PathJob<'_, usize>> = vec![PathJob::Sweep {
                total: 1_000_000,
                cost: 1,
                process: Box::new(move |range, buf| {
                    if range.contains(&5_000) {
                        tok.cancel();
                    }
                    buf.extend(range);
                }),
            }];
            let mut got = Vec::new();
            let progress =
                run_jobs_cancellable(&pool, width, jobs, Some(&token), |_, item| got.push(item));
            let done = progress[0].done;
            assert!(done < 1_000_000, "width {width}: cancellation must bite");
            assert_eq!(got.len(), done, "width {width}");
            assert!(
                got.iter().copied().eq(0..done),
                "width {width}: folded stream must be the exact prefix 0..{done}"
            );
        }
    }

    #[test]
    fn deadline_tokens_cancel_mid_sweep() {
        let pool = WorkerPool::new();
        let token = CancelToken::with_timeout(std::time::Duration::from_millis(5));
        let jobs: Vec<PathJob<'_, usize>> = vec![PathJob::Sweep {
            total: usize::MAX / 2,
            cost: 1 << 14,
            process: Box::new(|range, buf| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                buf.push(range.start);
            }),
        }];
        let mut chunks = 0usize;
        let progress = run_jobs_cancellable(&pool, 2, jobs, Some(&token), |_, _| chunks += 1);
        assert!(!progress[0].complete(), "an unbounded sweep must be cut");
        assert!(token.is_cancelled());
    }

    #[test]
    fn panics_inside_sweeps_propagate() {
        let pool = WorkerPool::new();
        let jobs: Vec<PathJob<'_, usize>> = vec![PathJob::Sweep {
            total: 1000,
            cost: 1,
            process: Box::new(|range, _| assert!(!range.contains(&999), "boom")),
        }];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs_with(&pool, 4, jobs, |_, _: usize| {});
        }));
        assert!(r.is_err());
    }
}
