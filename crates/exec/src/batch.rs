//! Indexed batch execution on a persistent pool.
//!
//! A batch borrows the caller's stack (`items`, the closure, and the result
//! slots), so its central obligation is: **no runner may touch that stack
//! after the submitting call returns**. The proof hinges on one packed
//! atomic word (`BatchCore::word`):
//!
//! * low 32 bits — next unclaimed index (monotonic, saturates at `n`),
//! * high 32 bits — number of claims currently executing.
//!
//! Claiming an index and becoming "active" is a single CAS, finishing is a
//! single `fetch_sub`, and the submitter's completion predicate
//! (`next >= n && active == 0`) is a single load. There is no window in
//! which a runner holds an index without being visible in the active count,
//! so the submitter cannot return while any runner can still dereference the
//! stack. Runner jobs left in the pool queue after completion hold only an
//! `Arc<BatchCore>`; their claims fail immediately and they exit without
//! touching the (now dangling) data pointer.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::pool::POOL;

const LOW_MASK: u64 = 0xffff_ffff;
const ACTIVE_ONE: u64 = 1 << 32;

/// Borrowed view of the submitter's stack, type-erased behind `BatchCore`.
struct BatchData<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    /// One lock-free slot per index; each claimed job writes exactly one.
    slots: &'a [OnceLock<R>],
}

struct BatchCore {
    word: AtomicU64,
    n: u64,
    data: *const (),
    run: unsafe fn(*const (), usize),
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    gate: Mutex<()>,
    done: Condvar,
}

// SAFETY: `data` points at `BatchData`, whose fields are `&[T]`, `&F`, and
// `&[OnceLock<R>]` with `T: Sync`, `F: Sync`, `R: Send` enforced by `run`.
// The pointer is only dereferenced between a successful claim and the
// matching finish, and the submitter blocks until no such window can open
// again (see module docs).
unsafe impl Send for BatchCore {}
unsafe impl Sync for BatchCore {}

unsafe fn run_one<T, R, F>(data: *const (), index: usize)
where
    F: Fn(usize, &T) -> R,
{
    let data = unsafe { &*data.cast::<BatchData<'_, T, R, F>>() };
    let result = (data.f)(index, &data.items[index]);
    // Exactly-once is guaranteed by the claim CAS; `set` can only fail if
    // that invariant broke, which would also corrupt results silently.
    assert!(
        data.slots[index].set(result).is_ok(),
        "batch index {index} claimed twice"
    );
}

impl BatchCore {
    fn is_complete(word: u64, n: u64) -> bool {
        (word & LOW_MASK) >= n && (word >> 32) == 0
    }

    /// Atomically claim the next index and enter the active count.
    fn claim(&self) -> Option<usize> {
        let mut current = self.word.load(Ordering::SeqCst);
        loop {
            let next = current & LOW_MASK;
            if next >= self.n {
                return None;
            }
            match self.word.compare_exchange_weak(
                current,
                current + 1 + ACTIVE_ONE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(next as usize),
                Err(now) => current = now,
            }
        }
    }

    /// Forbid further claims (used on panic) without disturbing the active
    /// count: set the low bits to `n` in one CAS loop.
    fn close(&self) {
        let mut current = self.word.load(Ordering::SeqCst);
        loop {
            if (current & LOW_MASK) >= self.n {
                return;
            }
            let target = (current & !LOW_MASK) | self.n;
            match self.word.compare_exchange_weak(
                current,
                target,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }

    /// Leave the active count; wake the submitter if this was the last job.
    fn finish_one(&self) {
        let after = self.word.fetch_sub(ACTIVE_ONE, Ordering::SeqCst) - ACTIVE_ONE;
        if Self::is_complete(after, self.n) {
            // Taking the gate orders this notify after the submitter's
            // predicate check, so the wakeup cannot be lost.
            let _gate = self.gate.lock().expect("batch gate poisoned");
            self.done.notify_all();
        }
    }

    /// Claim-and-run until no indices remain. Runs on pool workers and,
    /// crucially, inline on the submitting thread — so a batch always makes
    /// progress even when every worker is busy (nested batches cannot
    /// deadlock) and `limit == 1` never touches the pool.
    fn run_to_exhaustion(&self) {
        while let Some(index) = self.claim() {
            let outcome =
                catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.data, index) }));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("batch panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                self.close();
            }
            self.finish_one();
        }
    }

    fn wait_complete(&self) {
        let mut gate = self.gate.lock().expect("batch gate poisoned");
        while !Self::is_complete(self.word.load(Ordering::SeqCst), self.n) {
            let (next_gate, _) = self
                .done
                .wait_timeout(gate, Duration::from_millis(100))
                .expect("batch gate poisoned");
            gate = next_gate;
        }
    }
}

pub(crate) fn run<T, R, F>(limit: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // The sequential inline path: no pool interaction at all, so a 1-thread
    // run is bitwise-identical to a plain loop by construction.
    if limit <= 1 || n == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    assert!(
        n < u32::MAX as usize,
        "batch too large for packed claim word"
    );

    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let data = BatchData {
        items,
        f: &f,
        slots: &slots,
    };
    let core = Arc::new(BatchCore {
        word: AtomicU64::new(0),
        n: n as u64,
        data: (&data as *const BatchData<'_, T, R, F>).cast(),
        run: run_one::<T, R, F>,
        panic: Mutex::new(None),
        gate: Mutex::new(()),
        done: Condvar::new(),
    });

    // The submitter participates inline, so `limit` total executors need
    // `limit - 1` queued runners. Idle workers pop them; busy pools just
    // leave them as cheap no-ops once the batch drains.
    let runners = limit.min(n) - 1;
    POOL.ensure_workers(limit.min(n));
    for _ in 0..runners {
        let core = Arc::clone(&core);
        POOL.inject(Box::new(move || core.run_to_exhaustion()));
    }
    core.run_to_exhaustion();
    core.wait_complete();

    if let Some(payload) = core.panic.lock().expect("batch panic slot poisoned").take() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index claimed exactly once"))
        .collect()
}
