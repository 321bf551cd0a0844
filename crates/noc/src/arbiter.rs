//! Arbitration primitives.
//!
//! The three-stage routers of the thesis perform *input arbitration* (select a
//! virtual channel per input port) and *output arbitration* (select an input
//! port per output port) every cycle. Both stages use the
//! [`RoundRobinArbiter`], a fair rotating-priority arbiter: the winner gets
//! lowest priority for the next arbitration round.

/// A combinational arbiter granting one of `n` requesters per invocation.
pub trait Arbiter {
    /// Number of requesters this arbiter was built for.
    fn num_requesters(&self) -> usize;

    /// Grants one of the active requests (`requests[i] == true`) or `None`
    /// if there are no active requests. The arbiter updates its internal
    /// priority state when a grant is issued.
    ///
    /// # Panics
    ///
    /// Implementations panic if `requests.len()` differs from
    /// [`Arbiter::num_requesters`].
    fn grant(&mut self, requests: &[bool]) -> Option<usize>;

    /// Resets the arbiter to its initial priority state.
    fn reset(&mut self);
}

/// Rotating-priority (round-robin) arbiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    n: usize,
    /// Index with the highest priority in the next arbitration round.
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter for `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 64 (requests travel as one mask word).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=64).contains(&n),
            "arbiter needs between 1 and 64 requesters, got {n}"
        );
        Self { n, next: 0 }
    }

    /// [`Arbiter::grant`] on a request mask (bit `i` ⇔ requester `i`): the
    /// first requester at or after the priority pointer wins, wrapping to the
    /// lowest requester when none is left above it. `requests` must not name
    /// a requester at or above [`Arbiter::num_requesters`] (checked in debug
    /// builds only: this is the per-cycle arbitration of every router).
    #[inline]
    pub fn grant_mask(&mut self, requests: u64) -> Option<usize> {
        debug_assert!(
            self.n == 64 || requests >> self.n == 0,
            "request mask {requests:#x} names a requester beyond {}",
            self.n
        );
        if requests == 0 {
            return None;
        }
        let at_or_after = requests & (u64::MAX << self.next);
        let first = if at_or_after != 0 {
            at_or_after
        } else {
            requests
        };
        let idx = first.trailing_zeros() as usize;
        self.next = if idx + 1 == self.n { 0 } else { idx + 1 };
        Some(idx)
    }

    /// Moves the priority pointer exactly as `count` calls of
    /// [`Self::grant_mask`]`(requests)` would, in at most `popcount(requests)`
    /// grants: after the first grant the pointer cycles through the
    /// requesters with that period, so `count ≥ 1` grants leave it where
    /// `((count − 1) mod popcount) + 1` do. An empty mask never moves it.
    #[inline]
    pub fn replay_grants(&mut self, requests: u64, count: u64) {
        let period = u64::from(requests.count_ones());
        if period == 0 || count == 0 {
            return;
        }
        for _ in 0..=(count - 1) % period {
            self.grant_mask(requests);
        }
    }
}

impl Arbiter for RoundRobinArbiter {
    fn num_requesters(&self) -> usize {
        self.n
    }

    fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(
            requests.len(),
            self.n,
            "request vector length mismatch: expected {}, got {}",
            self.n,
            requests.len()
        );
        let mask = requests
            .iter()
            .rev()
            .fold(0u64, |mask, &r| mask << 1 | u64::from(r));
        self.grant_mask(mask)
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_fairly() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = [true, true, true];
        assert_eq!(arb.grant(&all), Some(0));
        assert_eq!(arb.grant(&all), Some(1));
        assert_eq!(arb.grant(&all), Some(2));
        assert_eq!(arb.grant(&all), Some(0));
    }

    #[test]
    fn round_robin_skips_inactive() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(&[false, false, true, false]), Some(2));
        // Priority now starts at 3.
        assert_eq!(arb.grant(&[true, false, true, true]), Some(3));
        assert_eq!(arb.grant(&[true, false, true, false]), Some(0));
    }

    #[test]
    fn round_robin_none_when_no_requests() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
    }

    #[test]
    fn round_robin_reset_restores_priority() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(&[true, true]), Some(0));
        arb.reset();
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn round_robin_length_mismatch_panics() {
        let mut arb = RoundRobinArbiter::new(3);
        let _ = arb.grant(&[true, true]);
    }

    #[test]
    fn fairness_over_many_rounds() {
        // Under constant full load every requester receives the same number of
        // grants (+/- 1).
        let n = 5;
        let mut arb = RoundRobinArbiter::new(n);
        let mut counts = vec![0usize; n];
        let all = vec![true; n];
        for _ in 0..1000 {
            counts[arb.grant(&all).unwrap()] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 1, "unfair grants: {counts:?}");
    }
}
