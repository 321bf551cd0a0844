//! Scoped jobs on the persistent pool — the crate's one join protocol.
//!
//! [`scope`] lets jobs borrow from the caller's stack (lifetime `'env`)
//! while running on long-lived pool workers, and every batch is a claim loop
//! run inside the same join (see `run_batch_with_limit`). Soundness rests on
//! one rule: `join` does not return — not even by unwinding — until the
//! scope's queue is empty **and** no spawned job is still executing. Jobs
//! are queued under one mutex together with the active count, so the exit
//! predicate (`queue empty && active == 0`) is checked against a consistent
//! snapshot; a job that spawns further jobs is itself active, keeping the
//! predicate false until its children are visible.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::pool::{resolve_worker_limit, Job, POOL};

#[derive(Default)]
struct ScopeState {
    queue: VecDeque<Job>,
    active: usize,
}

#[derive(Default)]
struct ScopeCore {
    state: Mutex<ScopeState>,
    idle: Condvar,
    /// The first panic of a spawned job, re-raised by `join`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeCore {
    /// Pop-and-run scope jobs until the queue is empty. Popping and entering
    /// the active count happen under one lock acquisition, so the exit
    /// predicate can never observe a claimed-but-uncounted job.
    fn drain(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("scope state poisoned");
                match state.queue.pop_front() {
                    Some(job) => {
                        state.active += 1;
                        job
                    }
                    None => break,
                }
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let mut first = self.panic.lock().expect("scope panic slot poisoned");
                first.get_or_insert(payload);
            }
            let now_idle = {
                let mut state = self.state.lock().expect("scope state poisoned");
                state.active -= 1;
                state.active == 0 && state.queue.is_empty()
            };
            if now_idle {
                self.idle.notify_all();
            }
        }
    }

    /// Block until no job is queued or running. The predicate is checked
    /// under the mutex `drain` updates it under, so the last job's notify
    /// cannot slip between the check and the wait.
    fn wait_idle(&self) {
        let state = self.state.lock().expect("scope state poisoned");
        let _idle = self
            .idle
            .wait_while(state, |state| state.active != 0 || !state.queue.is_empty())
            .expect("scope state poisoned");
    }
}

/// Handle passed to the [`scope`] closure; spawns jobs that may borrow
/// anything outliving the scope.
pub struct Scope<'env> {
    core: Arc<ScopeCore>,
    /// Pool size a spawn grows the pool to.
    workers: usize,
    // Invariant over 'env so the borrow checker cannot shrink borrows handed
    // to spawned jobs.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawn a job onto the pool. The job may borrow `'env` data; it is
    /// guaranteed to finish before the enclosing [`scope`] call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: lifetime erasure only. `join` joins every spawned job
        // (queue empty + active == 0) before returning or unwinding, so the
        // job cannot outlive 'env. Box<dyn Trait + 'a> and
        // Box<dyn Trait + 'static> share one layout (fat pointer).
        let job: Job = unsafe { std::mem::transmute(job) };
        self.core
            .state
            .lock()
            .expect("scope state poisoned")
            .queue
            .push_back(job);
        POOL.ensure_workers(self.workers);
        let core = Arc::clone(&self.core);
        POOL.inject(Box::new(move || core.drain()));
    }
}

/// Run `f` with a [`Scope`] handle, then run/join every job it spawned
/// (directly or transitively) before returning. The first panic from a
/// spawned job — or from `f` itself — is re-raised afterwards, matching
/// `std::thread::scope` semantics.
pub fn scope<'env, T>(f: impl FnOnce(&Scope<'env>) -> T) -> T {
    join(resolve_worker_limit(usize::MAX), f)
}

/// [`scope`] whose spawns grow the pool to `workers` threads.
pub(crate) fn join<'env, T>(workers: usize, f: impl FnOnce(&Scope<'env>) -> T) -> T {
    let handle = Scope {
        core: Arc::default(),
        workers,
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&handle)));
    // Join before unwinding in every case: spawned jobs borrow 'env.
    handle.core.drain();
    handle.core.wait_idle();
    let job_panic = handle
        .core
        .panic
        .lock()
        .expect("scope panic slot poisoned")
        .take();
    match (result, job_panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(value), None) => value,
    }
}
