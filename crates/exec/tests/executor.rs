//! Property and unit tests for the persistent executor: exactly-once
//! execution, index-correct results, panic propagation, bitwise
//! 1-thread == sequential, nested batches and scopes — all on the one
//! process-wide pool, which every test here shares.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use pnoc_exec::run_batch_with_limit;
use proptest::prelude::*;

/// Deterministic per-index payload (splitmix64) so index mix-ups are loud.
fn payload(index: usize) -> u64 {
    let mut z = (index as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every job runs exactly once and its result lands at the submitted
    /// index, for arbitrary batch sizes and parallelism limits.
    #[test]
    fn batch_runs_exactly_once_at_right_index(n in 0usize..150, limit in 1usize..6) {
        let items: Vec<usize> = (0..n).collect();
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let results = run_batch_with_limit(limit, &items, |index, &item| {
            counters[index].fetch_add(1, Ordering::SeqCst);
            assert_eq!(index, item, "job observed the wrong index");
            payload(item)
        });
        prop_assert_eq!(results.len(), n);
        for (index, result) in results.into_iter().enumerate() {
            prop_assert_eq!(result, payload(index));
            prop_assert_eq!(counters[index].load(Ordering::SeqCst), 1);
        }
    }
}

/// A 1-limit batch must be bitwise-identical to the sequential loop — it is
/// the same loop, never touching the pool.
#[test]
fn one_thread_batch_is_bitwise_sequential() {
    let items: Vec<f64> = (0..64).map(|i| 0.1 + i as f64 * 0.37).collect();
    let f = |x: &f64| (x.sin() * 1e6).sqrt() + x.powi(3) / 7.0;
    let sequential: Vec<u64> = items.iter().map(|x| f(x).to_bits()).collect();
    let pooled: Vec<u64> = run_batch_with_limit(1, &items, |_, x| f(x).to_bits());
    assert_eq!(sequential, pooled);
    // And with real workers the values still match bitwise, because each
    // job is a pure function of its input.
    let parallel: Vec<u64> = run_batch_with_limit(4, &items, |_, x| f(x).to_bits());
    assert_eq!(sequential, parallel);
}

/// A panicking job surfaces its payload on the submitting thread, and the
/// pool stays usable afterwards.
#[test]
fn batch_panic_propagates_and_pool_survives() {
    let items: Vec<usize> = (0..40).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_batch_with_limit(4, &items, |_, &item| {
            assert!(item != 17, "injected failure at 17");
            item * 2
        })
    }));
    let payload = outcome.expect_err("panic must propagate to the submitter");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "<non-string payload>".to_owned());
    assert!(
        message.contains("injected failure"),
        "unexpected payload: {message}"
    );
    // Pool is still healthy.
    let results = run_batch_with_limit(4, &items, |_, &item| item + 1);
    assert_eq!(results, (1..=40).collect::<Vec<_>>());
}

/// The first panic closes the batch: no new index starts, so the other
/// runner does not drain the remaining items before the panic is re-raised.
#[test]
fn a_panicking_job_stops_new_claims() {
    let items: Vec<usize> = (0..200).collect();
    let ran = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_batch_with_limit(2, &items, |_, &item| {
            ran.fetch_add(1, Ordering::SeqCst);
            if item == 0 {
                // Unwind without the panic hook: with RUST_BACKTRACE set, a
                // debug build's backtrace print outlasts many 2 ms jobs.
                resume_unwind(Box::new("injected failure at 0"));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
    }));
    assert!(
        outcome.is_err(),
        "the panic must propagate to the submitter"
    );
    let ran = ran.load(Ordering::SeqCst);
    assert!(ran < 10, "{ran} jobs ran after the batch was closed");
}

/// Concurrent batches on one pool don't cross results.
#[test]
fn concurrent_batches_do_not_interfere() {
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for lane in 0u64..4 {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let items: Vec<u64> = (0..200).map(|i| i + lane * 1000).collect();
                let results = run_batch_with_limit(3, &items, |_, &x| payload(x as usize));
                for (i, r) in results.into_iter().enumerate() {
                    assert_eq!(r, payload((i as u64 + lane * 1000) as usize));
                }
            });
        }
    });
}

/// Nested batches (a batch submitted from inside a batch job) complete
/// without deadlock because submitters participate inline.
#[test]
fn nested_batches_complete() {
    let outer: Vec<usize> = (0..8).collect();
    let results = run_batch_with_limit(2, &outer, |_, &o| {
        let inner: Vec<usize> = (0..16).map(|i| i + o * 100).collect();
        run_batch_with_limit(2, &inner, |_, &x| payload(x))
            .iter()
            .fold(0u64, |acc, &x| acc.wrapping_add(x))
    });
    for (o, got) in results.into_iter().enumerate() {
        let want: u64 = (0..16)
            .map(|i| payload(i + o * 100))
            .fold(0u64, |acc, x| acc.wrapping_add(x));
        assert_eq!(got, want);
    }
}

/// Scope jobs all run before `scope` returns, may borrow the stack, and may
/// spawn transitively.
#[test]
fn scope_joins_all_jobs_including_nested() {
    let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    pnoc_exec::scope(|s| {
        for i in 0..24 {
            let seen = &seen;
            s.spawn(move || {
                seen.lock().unwrap().push(i);
            });
        }
        // A job that spawns another job while running.
        let seen_ref = &seen;
        s.spawn(move || {
            seen_ref.lock().unwrap().push(1000);
        });
    });
    let mut got = seen.into_inner().unwrap();
    got.sort_unstable();
    let mut want: Vec<usize> = (0..24).collect();
    want.push(1000);
    assert_eq!(got, want);
}

/// A panic in a scope job is re-raised by `scope` after all jobs joined.
#[test]
fn scope_propagates_job_panics() {
    let ran = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pnoc_exec::scope(|s| {
            for i in 0..8 {
                let ran = &ran;
                s.spawn(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert!(i != 3, "scope job failure");
                });
            }
        });
    }));
    assert!(outcome.is_err(), "scope must re-raise the job panic");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        8,
        "all jobs joined before unwinding"
    );
}

/// A scope job can run a batch while its sibling scope jobs hold pool
/// workers until that batch has finished — a server connection calling
/// `run_specs` beside connections that wait. The batch's runners may sit
/// queued behind the blocked siblings; its submitter still claims every index
/// inline, and only its results release the barrier the siblings wait on.
#[test]
fn batch_inside_a_scope_job_completes() {
    const BLOCKERS: usize = 3;
    let released = Barrier::new(BLOCKERS + 1);
    let blocked = AtomicUsize::new(0);
    let mut results = Vec::new();
    pnoc_exec::scope(|s| {
        let released = &released;
        let results = &mut results;
        // Spawned first, so the first thread to drain the scope runs it and
        // the siblings cannot take every thread before it starts.
        s.spawn(move || {
            let items: Vec<usize> = (0..64).collect();
            *results = run_batch_with_limit(4, &items, |_, &x| payload(x));
            released.wait();
        });
        for _ in 0..BLOCKERS {
            let blocked = &blocked;
            s.spawn(move || {
                blocked.fetch_add(1, Ordering::SeqCst);
                released.wait();
            });
        }
    });
    assert_eq!(blocked.load(Ordering::SeqCst), BLOCKERS);
    assert_eq!(results, (0..64).map(payload).collect::<Vec<_>>());
}

/// Empty batches and single-item batches short-circuit correctly.
#[test]
fn degenerate_batches() {
    let empty: Vec<u32> = Vec::new();
    let out: Vec<u32> = run_batch_with_limit(4, &empty, |_, &x| x);
    assert!(out.is_empty());
    let one = [41u32];
    let out: Vec<u32> = run_batch_with_limit(4, &one, |_, &x| x + 1);
    assert_eq!(out, vec![42]);
}
