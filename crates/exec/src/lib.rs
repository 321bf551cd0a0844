#![doc = include_str!("exec.md")]
#![warn(missing_docs)]

mod batch;
mod pool;
mod scope;

pub use pool::{resolve_worker_limit, set_worker_override, worker_override};
pub use scope::{scope, Scope};

use pool::POOL;

/// Run `f` over every element of `items` on the process-wide pool and return
/// the results in submission order.
///
/// Each job writes its result directly into a dedicated per-index slot, so
/// results land at their submitted index with no shared collector lock and no
/// post-hoc sort. The effective parallelism is
/// [`resolve_worker_limit`]`(items.len())`; when that resolves to 1 the batch
/// runs inline on the calling thread without touching the pool, which makes
/// the single-thread path trivially bitwise-identical to a sequential loop.
///
/// If any job panics the first payload is re-raised on the calling thread
/// after every in-flight job has drained.
pub fn run_batch<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    batch::run(resolve_worker_limit(items.len()), items, f)
}

/// [`run_batch`] with an explicit parallelism limit instead of
/// [`resolve_worker_limit`] (a test hook: it ignores the worker override).
pub fn run_batch_with_limit<T, R, F>(limit: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    batch::run(limit, items, f)
}

/// Ensure the process-wide pool has spawned its workers and return the
/// cumulative time (seconds) spent spawning them. Useful to front-load worker
/// startup before timing-sensitive work and to report `exec.pool_startup_s`.
pub fn warm_up() -> f64 {
    POOL.ensure_workers(resolve_worker_limit(usize::MAX))
}
