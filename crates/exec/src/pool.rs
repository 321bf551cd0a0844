//! The persistent worker pool: one FIFO of jobs that every worker takes from.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Upper bound on spawned workers, far above any realistic `--threads` value.
const MAX_WORKERS: usize = 256;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

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

/// Workers spawned so far and the cumulative seconds spent spawning them.
struct Spawned {
    workers: usize,
    seconds: f64,
}

/// The process-wide pool backing [`crate::run_batch`] and [`crate::scope`]:
/// one FIFO under one mutex, and one condvar idle workers wait on.
///
/// Workers are spawned lazily on first use (and grown when a larger limit is
/// requested) and then reused for the life of the process — no per-batch
/// thread spawn/teardown.
pub(crate) struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    spawned: Mutex<Spawned>,
}

pub(crate) static POOL: Pool = Pool {
    jobs: Mutex::new(VecDeque::new()),
    ready: Condvar::new(),
    spawned: Mutex::new(Spawned {
        workers: 0,
        seconds: 0.0,
    }),
};

impl Pool {
    /// Grow the pool to at least `target` workers (no-op if already there).
    /// Returns the cumulative seconds spent spawning workers so far.
    pub(crate) fn ensure_workers(&'static self, target: usize) -> f64 {
        let target = target.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool worker count poisoned");
        if spawned.workers < target {
            let started = Instant::now();
            // Handles are dropped: a worker lives as long as the process and
            // never unwinds (see `work`), so there is nothing to join.
            for index in spawned.workers..target {
                std::thread::Builder::new()
                    .name(format!("pnoc-exec-{index}"))
                    .spawn(move || self.work())
                    .expect("failed to spawn pool worker");
            }
            spawned.workers = target;
            spawned.seconds += started.elapsed().as_secs_f64();
        }
        spawned.seconds
    }

    /// Queue a job and wake one idle worker.
    pub(crate) fn inject(&self, job: Job) {
        self.jobs
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.ready.notify_one();
    }

    /// A worker's life: pop the oldest job, or wait while the queue is empty.
    /// The queue is checked under the mutex the condvar waits on, so a job
    /// pushed between the check and the wait cannot go unnoticed.
    fn work(&self) {
        loop {
            let job = {
                let mut jobs = self.jobs.lock().expect("pool queue poisoned");
                loop {
                    match jobs.pop_front() {
                        Some(job) => break job,
                        None => jobs = self.ready.wait(jobs).expect("pool queue poisoned"),
                    }
                }
            };
            // Never unwinds: batch runners and scope drains catch the panics
            // of the closures they run and re-raise them on the submitter.
            job();
        }
    }
}
