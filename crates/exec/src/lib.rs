//! The scoped-thread task executor shared across the workspace.
//!
//! Originally built for parallel macrocell generation inside
//! `bisramgen`'s compile pipeline, the executor now also drives the
//! in-field fleet simulator and the Monte-Carlo yield cross-checks —
//! leaf crates that `bisramgen` itself depends on, which is why the
//! executor lives in its own dependency-free crate instead of the
//! pipeline module (the old location is re-exported for compatibility).
//!
//! Deliberately minimal: a fixed task list is distributed over at most
//! `jobs` `std::thread::scope` workers pulling indices from an atomic
//! counter. Results land in their task's slot, so the output order is
//! the input order no matter how the scheduler interleaves workers —
//! which is what keeps parallel compiles, fleets and yield experiments
//! byte-identical to serial runs.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The golden-ratio multiplier (`⌊2⁶⁴/φ⌋`, odd) used to derive per-trial
/// seeds from a base seed and a trial index. An odd multiplier is a
/// bijection on `u64`, so distinct indices can never collide onto the
/// same seed, and the high bits of the product decorrelate neighbouring
/// indices (Fibonacci hashing).
pub const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Trials per executor task for the seeded parallel Monte-Carlo engines
/// (fleet lifetimes, yield trials). Fixed — never derived from the job
/// count — so chunk boundaries, and therefore the merge order of the
/// partial aggregates, are identical no matter how many workers run.
///
/// The chunk size itself is *not* part of any determinism contract:
/// every engine built on [`run_chunked`] merges integer partial tallies
/// in range order, and integer addition is associative, so regrouping
/// the same per-trial contributions into different chunks produces the
/// same totals. Only the per-trial seeds ([`trial_seed`]) and the merge
/// order matter.
pub const TRIAL_CHUNK: usize = 8;

/// Derives the RNG seed of trial `index` from `base_seed`.
///
/// This is the single definition of the index-seeded scheme every
/// parallel Monte-Carlo engine in the workspace uses: same
/// `(base_seed, index)` ⇒ same seed, forever — which is what lets a
/// lane-batched engine replay exactly the per-trial streams of the
/// scalar golden path, and lets any worker simulate any trial.
pub fn trial_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(SEED_MIX)
}

thread_local! {
    /// Set on the threads [`run_tasks`] spawns, for their lifetime.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs every task, using up to `jobs` worker threads, and returns the
/// results in task order. `jobs <= 1` (or a single task) runs inline on
/// the caller's thread with no spawn overhead, and so does a call made
/// from inside a task of another `run_tasks`: the outer call already
/// keeps its `jobs` threads busy, so nested workers would only
/// oversubscribe the cores. A sweep worker's compile, for example, then
/// builds its macrocells serially instead of spawning threads of its
/// own for every stage of every point.
///
/// # Panics
///
/// Propagates a panic from any task (the scope joins all workers
/// first), so a panicking generator fails the compile loudly instead of
/// losing work silently.
pub fn run_tasks<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let queue: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let task = queue[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("each index is claimed exactly once");
                    let result = task();
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("joined scope has filled every slot")
        })
        .collect()
}

/// Splits `0..total` into contiguous ranges of at most `chunk` items and
/// runs `worker` over each range on the executor, returning the partial
/// results in range order.
///
/// The chunk boundaries depend only on `total` and `chunk` — never on
/// `jobs` — so a caller that merges the partials in the returned order
/// gets byte-identical aggregates at any worker count. This is the
/// backbone of the deterministic parallel Monte-Carlo engines.
pub fn run_chunked<T, F>(jobs: usize, total: usize, chunk: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunk = chunk.max(1);
    let worker = &worker;
    let tasks: Vec<_> = (0..total)
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(total);
            move || worker(start..end)
        })
        .collect();
    run_tasks(jobs, tasks)
}

/// Resolves the worker count: an explicit request wins, then the
/// `BISRAM_JOBS` environment variable, then the machine's available
/// parallelism. Always at least 1.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(j) = explicit {
        return j.max(1);
    }
    if let Ok(v) = std::env::var("BISRAM_JOBS") {
        if let Ok(j) = v.trim().parse::<usize>() {
            return j.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_task_order() {
        let tasks: Vec<_> = (0..40).map(|i| move || i * 10).collect();
        let out = run_tasks(8, tasks);
        assert_eq!(out, (0..40).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || {
            (0..17)
                .map(|i| move || format!("cell_{i}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_tasks(1, mk()), run_tasks(6, mk()));
    }

    #[test]
    fn empty_and_single_task_lists_work() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(run_tasks(4, none).is_empty());
        assert_eq!(run_tasks(4, vec![|| 7u8]), vec![7]);
    }

    #[test]
    fn nested_task_lists_run_on_the_outer_worker() {
        let outer: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    let me = std::thread::current().id();
                    let inner: Vec<_> = (0..5)
                        .map(|j| move || (i * 10 + j, std::thread::current().id()))
                        .collect();
                    (me, run_tasks(4, inner))
                }
            })
            .collect();
        for (i, (me, inner)) in run_tasks(2, outer).into_iter().enumerate() {
            let values: Vec<usize> = inner.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
            assert!(inner.iter().all(|&(_, id)| id == me), "task {i}");
        }
        // The caller's own thread is no worker: its task lists still
        // spread over threads of their own.
        let ids = run_tasks(2, vec![|| std::thread::current().id(); 2]);
        assert!(ids.iter().all(|&id| id != std::thread::current().id()));
    }

    #[test]
    fn explicit_jobs_win_and_are_clamped() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
    }

    #[test]
    fn defaulted_jobs_are_positive() {
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn chunked_ranges_cover_everything_in_order() {
        let partials = run_chunked(4, 23, 5, |r| r.collect::<Vec<_>>());
        assert_eq!(partials.len(), 5);
        let flat: Vec<usize> = partials.into_iter().flatten().collect();
        assert_eq!(flat, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_is_independent_of_job_count() {
        let sums = |jobs| run_chunked(jobs, 100, 7, |r| r.sum::<usize>());
        assert_eq!(sums(1), sums(2));
        assert_eq!(sums(1), sums(8));
    }

    #[test]
    fn zero_chunk_is_clamped_to_one() {
        let partials = run_chunked(2, 3, 0, |r| r.len());
        assert_eq!(partials, vec![1, 1, 1]);
    }

    #[test]
    fn trial_seed_sequence_is_pinned() {
        // The exact seed sequence is a cross-crate contract: the fleet
        // simulator, the yield engine and the lane-batched engine all
        // replay trials by index, and byte-reproducibility of archived
        // experiments depends on these values never changing.
        let base = 0xF1EE7u64;
        let expect = [
            0x000F_1EE7u64,
            0x9E37_79B9_7F45_62F2,
            0x3C6E_F372_FE9B_E6CD,
            0xDAA6_6D2C_7DD0_6AD8,
            0x78DD_E6E5_FD26_EEB3,
        ];
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(trial_seed(base, i), want, "index {i}");
        }
        assert_eq!(trial_seed(0, 1), SEED_MIX);
        assert_eq!(trial_seed(0, 2), 0x3C6E_F372_FE94_F82A);
    }

    #[test]
    fn trial_seeds_are_injective_per_base() {
        // Odd multiplier ⇒ index → seed is a bijection; a window of
        // indices can never collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            assert!(seen.insert(trial_seed(42, i)), "collision at {i}");
        }
    }
}
