//! Scoped jobs on the persistent pool.
//!
//! [`scope`] lets jobs borrow from the caller's stack (lifetime `'env`)
//! while running on long-lived pool workers. Soundness rests on the join
//! protocol: `scope` does not return — not even by unwinding — until the
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
use std::time::Duration;

use crate::pool::{resolve_worker_limit, Job, POOL};

struct ScopeState {
    queue: VecDeque<Job>,
    active: usize,
}

struct ScopeCore {
    state: Mutex<ScopeState>,
    idle: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeCore {
    fn new() -> Self {
        ScopeCore {
            state: Mutex::new(ScopeState {
                queue: VecDeque::new(),
                active: 0,
            }),
            idle: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

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
            let outcome = catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("scope panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
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

    fn wait_idle(&self) {
        let mut state = self.state.lock().expect("scope state poisoned");
        while state.active != 0 || !state.queue.is_empty() {
            let (next_state, _) = self
                .idle
                .wait_timeout(state, Duration::from_millis(100))
                .expect("scope state poisoned");
            state = next_state;
        }
    }
}

/// Handle passed to the [`scope`] closure; spawns jobs that may borrow
/// anything outliving the scope.
pub struct Scope<'env> {
    core: Arc<ScopeCore>,
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
        // SAFETY: lifetime erasure only. `scope` joins every spawned job
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
        POOL.ensure_workers(resolve_worker_limit(usize::MAX));
        let core = Arc::clone(&self.core);
        POOL.inject(Box::new(move || core.drain()));
    }
}

/// Run `f` with a [`Scope`] handle, then run/join every job it spawned
/// (directly or transitively) before returning. The first panic from a
/// spawned job — or from `f` itself — is re-raised afterwards, matching
/// `std::thread::scope` semantics.
pub fn scope<'env, T>(f: impl FnOnce(&Scope<'env>) -> T) -> T {
    let handle = Scope {
        core: Arc::new(ScopeCore::new()),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&handle)));
    // Join before unwinding in every case: spawned jobs borrow 'env.
    handle.core.drain();
    handle.core.wait_idle();
    match result {
        Ok(value) => {
            if let Some(payload) = handle
                .core
                .panic
                .lock()
                .expect("scope panic slot poisoned")
                .take()
            {
                resume_unwind(payload);
            }
            value
        }
        Err(payload) => resume_unwind(payload),
    }
}
