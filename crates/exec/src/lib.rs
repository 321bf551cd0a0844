#![doc = include_str!("exec.md")]
#![warn(missing_docs)]

mod batch;
mod pool;
mod scope;

pub use pool::{
    global, resolve_worker_limit, set_worker_override, worker_override, Pool, PoolStats,
};
pub use scope::{scope, Scope};

/// Run `f` over every element of `items` on the global pool and return the
/// results in submission order.
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
    global().run_batch(items, f)
}

/// Ensure the global pool has spawned its workers and return the cumulative
/// time (seconds) spent spawning them. Useful to front-load worker startup
/// before timing-sensitive work and to report `exec.pool_startup_s`.
pub fn warm_up() -> f64 {
    let pool = global();
    pool.ensure_workers(resolve_worker_limit(usize::MAX));
    pool.startup_seconds()
}
