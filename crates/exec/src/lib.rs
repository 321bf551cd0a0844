#![doc = include_str!("exec.md")]
#![warn(missing_docs)]

mod pool;
mod scope;

pub use pool::{resolve_worker_limit, set_worker_override, worker_override};
pub use scope::{scope, Scope};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pool::POOL;

/// Run `f` over every element of `items` on the process-wide pool and return
/// the results in submission order.
///
/// Each job writes its result into a dedicated per-index slot, so results
/// land at their submitted index with no shared collector and no post-hoc
/// sort. The effective parallelism is
/// [`resolve_worker_limit`]`(items.len())`; when that resolves to 1 the batch
/// runs inline on the calling thread without touching the pool, which makes
/// the single-thread path trivially bitwise-identical to a sequential loop.
///
/// If any job panics no new index starts, and the first payload is re-raised
/// on the calling thread after every in-flight job has drained.
pub fn run_batch<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_batch_with_limit(resolve_worker_limit(items.len()), items, f)
}

/// [`run_batch`] with an explicit parallelism limit instead of
/// [`resolve_worker_limit`] (a test hook: it ignores the worker override).
pub fn run_batch_with_limit<T, R, F>(limit: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    // The sequential inline path: no pool interaction at all, so a 1-thread
    // run is bitwise-identical to a plain loop by construction.
    if limit <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let threads = limit.min(n);
    // `Relaxed` suffices: the counter publishes no data, it only hands out
    // each index once; results reach the submitter through their slots'
    // mutexes and the scope join.
    let next = AtomicUsize::new(0);
    // Each slot is written once, by whoever claimed its index; the lock is
    // never contended and, unlike a shared `OnceLock`, needs no `R: Sync`.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let claim_and_run = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| f(index, &items[index]))) {
            Ok(result) => *slots[index].lock().expect("batch slot poisoned") = Some(result),
            Err(payload) => {
                // Close the batch so no new index starts, then let the join
                // re-raise the payload once every runner has finished.
                next.store(n, Ordering::Relaxed);
                resume_unwind(payload);
            }
        }
    };
    // The submitter runs the same loop inline, so the batch completes even
    // when every worker is busy (nested batches cannot deadlock) and the
    // `threads - 1` spawned runners are no-ops once the indices run out.
    scope::join(threads, |s| {
        for _ in 1..threads {
            s.spawn(claim_and_run);
        }
        claim_and_run();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("batch slot poisoned")
                .expect("every index claimed exactly once")
        })
        .collect()
}

/// Ensure the process-wide pool has spawned its workers and return the
/// cumulative time (seconds) spent spawning them. Useful to front-load worker
/// startup before timing-sensitive work and to report `exec.pool_startup_s`.
pub fn warm_up() -> f64 {
    POOL.ensure_workers(resolve_worker_limit(usize::MAX))
}
