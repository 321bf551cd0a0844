//! The persistent worker pool: per-worker LIFO deques, a shared injector for
//! external submissions, random-victim stealing, and a graceful
//! shutdown/drain path.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::batch;

/// Upper bound on spawned workers, far above any realistic `--threads` value.
const MAX_WORKERS: usize = 256;

/// How long an idle worker sleeps before re-checking the queues. The condvar
/// wake protocol makes lost wakeups impossible; the timeout is purely a
/// belt-and-braces backstop.
const IDLE_PARK: Duration = Duration::from_millis(200);

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Explicit worker-count override (0 = unset). Takes precedence over the
/// detected parallelism.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set an explicit worker-count override for subsequent batch submissions
/// (equivalent to the repro CLI's `--threads N`). `threads == 0` clears the
/// override. The persistent pool grows lazily to the largest limit observed
/// and never shrinks; a lower override simply bounds per-batch parallelism.
pub fn set_worker_override(threads: usize) {
    WORKER_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// Current explicit override (0 = unset).
pub fn worker_override() -> usize {
    WORKER_OVERRIDE.load(Ordering::SeqCst)
}

/// Resolve the worker limit for a batch of `jobs` items.
///
/// Precedence: explicit [`set_worker_override`] value, then detected
/// hardware parallelism — capped at the job count so tiny batches never pay
/// for spare workers.
pub fn resolve_worker_limit(jobs: usize) -> usize {
    let override_threads = WORKER_OVERRIDE.load(Ordering::SeqCst);
    let configured = if override_threads > 0 {
        override_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    configured.min(jobs.max(1)).min(MAX_WORKERS)
}

/// Counters describing pool activity since creation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Workers spawned so far.
    pub workers: usize,
    /// Jobs executed to completion (including panicked jobs).
    pub jobs_run: u64,
    /// Jobs whose closure panicked. Batch panics are propagated to the
    /// submitter as well; detached `spawn` panics are only counted.
    pub jobs_panicked: u64,
}

struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
}

struct Shared {
    /// Per-worker deques. Owners push/pop the back (LIFO); thieves pop the
    /// front (FIFO), so the oldest — typically largest — work migrates first.
    queues: Mutex<Vec<Arc<WorkerQueue>>>,
    /// Overflow queue for submissions from non-worker threads.
    injector: Mutex<VecDeque<Job>>,
    /// Number of queued-but-not-started jobs across all queues.
    pending: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    shutting_down: AtomicBool,
    jobs_run: AtomicU64,
    jobs_panicked: AtomicU64,
}

thread_local! {
    /// Identity of the pool worker running on this thread, if any. Lets
    /// submissions from inside a job land on the worker's own LIFO deque.
    static CURRENT_WORKER: RefCell<Option<(Weak<Shared>, Arc<WorkerQueue>)>> =
        const { RefCell::new(None) };
}

/// A persistent work-stealing thread pool.
///
/// Workers are spawned lazily on first use (and grown when a larger limit is
/// requested) and then reused for the life of the pool — no per-batch thread
/// spawn/teardown. Most callers want the process-wide [`global`] pool;
/// standalone pools exist for tests and for [`Pool::shutdown`] coverage.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    startup_seconds: Mutex<f64>,
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// Create an empty pool; workers are spawned on demand.
    pub fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                queues: Mutex::new(Vec::new()),
                injector: Mutex::new(VecDeque::new()),
                pending: AtomicUsize::new(0),
                sleep: Mutex::new(()),
                wake: Condvar::new(),
                shutting_down: AtomicBool::new(false),
                jobs_run: AtomicU64::new(0),
                jobs_panicked: AtomicU64::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            startup_seconds: Mutex::new(0.0),
        }
    }

    /// Grow the pool to at least `target` workers (no-op if already there or
    /// shutting down). Records cumulative spawn time for
    /// [`Pool::startup_seconds`].
    pub fn ensure_workers(&self, target: usize) {
        let target = target.min(MAX_WORKERS);
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let mut handles = self.handles.lock().expect("pool handle list poisoned");
        if handles.len() >= target {
            return;
        }
        let started = Instant::now();
        let mut queues = self.shared.queues.lock().expect("pool queue list poisoned");
        for index in handles.len()..target {
            let queue = Arc::new(WorkerQueue {
                jobs: Mutex::new(VecDeque::new()),
            });
            queues.push(Arc::clone(&queue));
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("pnoc-exec-{index}"))
                .spawn(move || worker_loop(shared, queue, index as u64))
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        drop(queues);
        *self.startup_seconds.lock().expect("startup timer poisoned") +=
            started.elapsed().as_secs_f64();
    }

    /// Cumulative seconds spent spawning workers so far.
    pub fn startup_seconds(&self) -> f64 {
        *self.startup_seconds.lock().expect("startup timer poisoned")
    }

    /// Snapshot of activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self
                .handles
                .lock()
                .expect("pool handle list poisoned")
                .len(),
            jobs_run: self.shared.jobs_run.load(Ordering::SeqCst),
            jobs_panicked: self.shared.jobs_panicked.load(Ordering::SeqCst),
        }
    }

    /// True once [`Pool::shutdown`] has been called. A shut-down pool runs
    /// all further submissions inline on the caller, so it degrades to
    /// sequential execution rather than refusing work.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Submit a detached job. Runs on a pool worker; panics are caught and
    /// counted (see [`PoolStats::jobs_panicked`]), mirroring detached-spawn
    /// semantics. If the pool has been shut down the job runs inline.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if self.is_shut_down() {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            self.shared.jobs_run.fetch_add(1, Ordering::SeqCst);
            if outcome.is_err() {
                self.shared.jobs_panicked.fetch_add(1, Ordering::SeqCst);
            }
            return;
        }
        self.ensure_workers(resolve_worker_limit(usize::MAX));
        self.inject(Box::new(job));
    }

    /// Queue a job: onto the current worker's LIFO deque when called from
    /// inside this pool, otherwise onto the shared injector.
    pub(crate) fn inject(&self, job: Job) {
        // Count before publishing so `pending` never under-counts a popped
        // job (workers decrement only after a successful pop).
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let unrouted = CURRENT_WORKER.with(move |current| {
            if let Some((shared, queue)) = current.borrow().as_ref() {
                if let Some(shared) = shared.upgrade() {
                    if Arc::ptr_eq(&shared, &self.shared) {
                        queue
                            .jobs
                            .lock()
                            .expect("worker deque poisoned")
                            .push_back(job);
                        return None;
                    }
                }
            }
            Some(job)
        });
        if let Some(job) = unrouted {
            self.shared
                .injector
                .lock()
                .expect("pool injector poisoned")
                .push_back(job);
        }
        let _guard = self.shared.sleep.lock().expect("pool sleep lock poisoned");
        self.shared.wake.notify_one();
    }

    /// Run an indexed batch on this pool. See [`crate::run_batch`].
    pub fn run_batch<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let limit = resolve_worker_limit(items.len());
        self.run_batch_with_limit(limit, items, f)
    }

    /// Run an indexed batch with an explicit parallelism limit (test hook;
    /// production callers go through [`resolve_worker_limit`]).
    pub fn run_batch_with_limit<T, R, F>(&self, limit: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        batch::run(self, limit, items, f)
    }

    /// Drain queued work, stop all workers, and join them. Jobs already
    /// queued still run; submissions after shutdown run inline on the caller.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep.lock().expect("pool sleep lock poisoned");
            self.shared.wake.notify_all();
        }
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("pool handle list poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool backing [`crate::run_batch`] and [`crate::scope`].
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::new)
}

fn worker_loop(shared: Arc<Shared>, queue: Arc<WorkerQueue>, seed: u64) {
    CURRENT_WORKER.with(|current| {
        *current.borrow_mut() = Some((Arc::downgrade(&shared), Arc::clone(&queue)));
    });
    // splitmix64 state for random victim selection; seeded per worker so
    // thieves scatter instead of convoying on one victim.
    let mut rng = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x243f_6a88_85a3_08d3);
    loop {
        if let Some(job) = next_job(&shared, &queue, &mut rng) {
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            shared.jobs_run.fetch_add(1, Ordering::SeqCst);
            if outcome.is_err() {
                shared.jobs_panicked.fetch_add(1, Ordering::SeqCst);
            }
            continue;
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let guard = shared.sleep.lock().expect("pool sleep lock poisoned");
        if shared.pending.load(Ordering::SeqCst) == 0
            && !shared.shutting_down.load(Ordering::SeqCst)
        {
            let _ = shared.wake.wait_timeout(guard, IDLE_PARK);
        }
    }
}

fn next_job(shared: &Shared, own: &WorkerQueue, rng: &mut u64) -> Option<Job> {
    // Own deque first, LIFO end: freshest work, warmest caches, and nested
    // batch runners execute before older siblings.
    if let Some(job) = own.jobs.lock().expect("worker deque poisoned").pop_back() {
        return Some(job);
    }
    if let Some(job) = shared
        .injector
        .lock()
        .expect("pool injector poisoned")
        .pop_front()
    {
        return Some(job);
    }
    // Steal from a random victim, FIFO end.
    let victims: Vec<Arc<WorkerQueue>> = shared
        .queues
        .lock()
        .expect("pool queue list poisoned")
        .clone();
    if victims.is_empty() {
        return None;
    }
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let start = (*rng as usize) % victims.len();
    for offset in 0..victims.len() {
        let victim = &victims[(start + offset) % victims.len()];
        if std::ptr::eq(Arc::as_ptr(victim), own) {
            continue;
        }
        if let Some(job) = victim
            .jobs
            .lock()
            .expect("worker deque poisoned")
            .pop_front()
        {
            return Some(job);
        }
    }
    None
}
