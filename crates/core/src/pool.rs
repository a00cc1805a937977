//! A minimal scoped-thread worker pool.
//!
//! The workspace builds offline, so instead of `rayon` this module
//! provides the one primitive the merging engine needs: run `jobs`
//! independent, index-addressed tasks on up to `threads` OS threads and
//! collect the results **in index order**. Work is distributed through an
//! atomic next-index counter (work stealing by index), and every result
//! lands in its own pre-allocated slot — so the output is bit-identical
//! regardless of thread count or scheduling, which the determinism tests
//! (`--threads 1` vs `--threads 4`) rely on.
//!
//! Pools do not nest. A [`run_indexed`] call made from inside a pool
//! job runs inline on that job's thread: `merge_all` fans its cliques
//! out over the pool, and each clique's own pass-2/pass-3 pools then
//! stay serial instead of spawning a second tier of workers that would
//! oversubscribe the cores. `--threads` stays the only knob; a
//! top-level call (the warm-up, the mock merges, and a clique that is
//! the only one in its cover — singletons are not pool jobs) still gets
//! every worker.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

thread_local! {
    /// Set while this thread runs jobs of a multi-worker pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped (also on
/// unwind), restoring the previous mark: the calling thread works as
/// worker zero and must be unmarked again when its pool returns.
struct PoolMark(bool);

impl PoolMark {
    fn enter() -> Self {
        Self(IN_POOL.replace(true))
    }
}

impl Drop for PoolMark {
    fn drop(&mut self) {
        IN_POOL.set(self.0);
    }
}

/// The worker count [`run_indexed`] uses for a `threads` request:
/// capped at the host's hardware threads, and 1 inside a pool job.
pub(crate) fn workers(threads: usize) -> usize {
    if IN_POOL.get() {
        return 1;
    }
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    threads.min(hw)
}

/// Runs `f(0..jobs)` on up to `threads` scoped threads, returning the
/// results in index order.
///
/// `threads` is an upper bound, not a demand: the pool never spawns more
/// workers than the host has hardware threads, because oversubscribing
/// one core only adds spawn cost and futex ping-pong on shared caches
/// without any extra parallelism. `threads <= 1` (or `jobs <= 1`, a
/// single-core host, or a call from inside another pool's job) runs
/// inline on the caller's thread — the serial path is byte-for-byte the
/// parallel path with one worker.
pub fn run_indexed<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_with_workers(workers(threads), jobs, f)
}

/// The worker-count-explicit core of [`run_indexed`]. Crate-visible so
/// unit tests can force real concurrency even on single-core hosts
/// (where the public entry point correctly degrades to the serial
/// path). Every job of a multi-worker run is marked as a pool job, so
/// nested [`run_indexed`] calls inside it run inline.
pub(crate) fn run_with_workers<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let workers = threads.min(jobs);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    // The caller participates as worker zero: only `workers - 1` threads
    // are spawned, which halves spawn overhead and keeps this thread
    // doing useful work instead of blocking on the join.
    let work = |tx: mpsc::Sender<(usize, T)>| {
        let _mark = PoolMark::enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            let v = f(i);
            if tx.send((i, v)).is_err() {
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let tx = tx.clone();
            let work = &work;
            scope.spawn(move || work(tx));
        }
        work(tx.clone());
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    for (i, v) in rx {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        // `run_with_workers` forces real concurrency regardless of the
        // host's core count; `run_indexed` must agree with it.
        let serial = run_indexed(1, 17, |i| i * i);
        let parallel = run_with_workers(4, 17, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, run_indexed(4, 17, |i| i * i));
        assert_eq!(serial[16], 256);
    }

    #[test]
    fn zero_jobs() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = run_with_workers(8, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn nested_calls_inside_a_pool_job_run_inline() {
        let out = run_with_workers(2, 4, |i| {
            let me = std::thread::current().id();
            assert_eq!(workers(8), 1, "a pool job is marked");
            // The nested pool runs every job on this job's own thread.
            let inner = run_indexed(8, 4, |j| (std::thread::current().id() == me, i * 10 + j));
            assert!(inner.iter().all(|&(same, _)| same), "{inner:?}");
            inner.into_iter().map(|(_, v)| v).sum::<usize>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
        // The calling thread worked as worker zero and is unmarked again.
        assert!(!IN_POOL.get());
        // Outside any pool, only the host bounds the worker count.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers(64), 64.min(hw));
    }

    #[test]
    fn a_lone_job_runs_at_top_level() {
        // One job is no pool: its own pools get every worker.
        assert_eq!(run_with_workers(4, 1, |_| IN_POOL.get()), vec![false]);
        assert_eq!(run_with_workers(4, 2, |_| IN_POOL.get()), vec![true; 2]);
    }

    #[test]
    fn results_are_in_index_order() {
        // Jobs finish out of order (reverse sleep); results must not.
        let out = run_with_workers(4, 8, |i| {
            std::thread::sleep(std::time::Duration::from_millis((8 - i) as u64));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
