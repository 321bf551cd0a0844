//! The harness's own arithmetic: pooled percentiles, the best-rep estimator
//! and the seeded request-sequence generator.
//!
//! Host-time noise on a small shared machine is one-sided: a call is slowed
//! by a neighbour, never sped up. Identical deterministic reps therefore
//! agree far better on their *fastest* execution than on their median (see
//! `README.md`, "Estimator"), so every gated host-time number is built from
//! best times; median and quartiles of the whole reps are printed beside it
//! as the noise indicator.

/// Which direction of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, memory: smaller is better.
    Lower,
    /// Rates: larger is better.
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The `p`-th percentile (0 < p <= 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the pool at or below it.
/// Pooling all rounds' samples before taking one percentile weights every
/// request equally; averaging per-round percentiles would not.
///
/// # Panics
///
/// Panics on an empty pool or a NaN sample: both are harness bugs.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty pool");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest of `values` (infinity for none): the fastest execution.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// What one run reports about the host times of its whole reps: the noise
/// indicator printed beside the gated values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The fastest rep.
    pub best: f64,
    /// Median over the reps (the noisy estimator).
    pub median: f64,
    /// First quartile over the reps.
    pub q1: f64,
    /// Third quartile over the reps.
    pub q3: f64,
    /// Number of reps.
    pub n: usize,
}

impl Summary {
    /// Summarises one time per rep.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            best: fastest(values.iter().copied()),
            median: percentile(values, 50.0),
            q1: percentile(values, 25.0),
            q3: percentile(values, 75.0),
            n: values.len(),
        }
    }

    /// Interquartile range as a percentage of the median: how noisy the
    /// reps were.
    pub fn iqr_pct(&self) -> f64 {
        (self.q3 - self.q1) / self.median * 100.0
    }
}

/// One call a rep makes into the crates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Host seconds the call took.
    pub seconds: f64,
    /// Simulated cycles it advanced (0 for a call that simulates nothing).
    pub cycles: u64,
    /// Sweep points it produced.
    pub points: u64,
}

/// The best rep, call by call: every rep makes the same calls in the same
/// order, and each call keeps the fastest of its executions. A whole rep is
/// fast only when all of its calls were; its calls are disturbed one at a
/// time, so their separate minima are reached in far fewer reps.
#[derive(Debug, Default)]
pub struct BestCalls(Vec<Call>);

impl BestCalls {
    /// Folds one rep's calls in.
    ///
    /// # Panics
    ///
    /// Panics when the rep did not make the calls the earlier reps made:
    /// the reps of a run are identical by construction.
    pub fn absorb(&mut self, calls: &[Call]) {
        if self.0.is_empty() {
            self.0 = calls.to_vec();
            return;
        }
        assert_eq!(self.0.len(), calls.len(), "every rep makes the same calls");
        for (best, call) in self.0.iter_mut().zip(calls) {
            assert_eq!(
                (best.cycles, best.points),
                (call.cycles, call.points),
                "every rep simulates the same work"
            );
            best.seconds = best.seconds.min(call.seconds);
        }
    }

    /// Host seconds of the best rep: the sum of the calls' best times.
    pub fn rep_s(&self) -> f64 {
        self.0.iter().map(|call| call.seconds).sum()
    }

    /// `(simulated cycles, sweep points)` per host second over the calls
    /// that simulate, at their best times.
    pub fn rates(&self) -> (f64, f64) {
        let simulating = || self.0.iter().filter(|call| call.cycles > 0);
        let seconds: f64 = simulating().map(|call| call.seconds).sum();
        let cycles: u64 = simulating().map(|call| call.cycles).sum();
        let points: u64 = simulating().map(|call| call.points).sum();
        (cycles as f64 / seconds, points as f64 / seconds)
    }
}

/// `len` indices into `0..choices`, a pure function of `seed` (SplitMix64):
/// which single-scenario document each warm request of a service round
/// posts. The crates under test never see the generator; they receive only
/// the documents chosen with it.
pub fn request_sequence(seed: u64, len: usize, choices: usize) -> Vec<usize> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % choices as u64) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_percentile_is_nearest_rank() {
        let pool = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&pool, 50.0), 5.0);
        assert_eq!(percentile(&pool, 99.0), 10.0);
        assert_eq!(percentile(&pool, 10.0), 1.0);
        assert_eq!(percentile(&pool, 11.0), 2.0);
        assert_eq!(percentile(&[42.0], 50.0), 42.0);
    }

    #[test]
    fn pooling_weights_requests_not_rounds() {
        // One slow round of 2 requests and one fast round of 8: the pooled
        // p50 is a fast request; the mean of per-round medians is not.
        let slow = [10.0, 10.0];
        let fast = [1.0; 8];
        let pooled: Vec<f64> = slow.iter().chain(&fast).copied().collect();
        assert_eq!(percentile(&pooled, 50.0), 1.0);
        let per_round = (percentile(&slow, 50.0) + percentile(&fast, 50.0)) / 2.0;
        assert_eq!(per_round, 5.5);
    }

    #[test]
    fn summary_reports_the_best_rep_beside_the_noisy_estimators() {
        let summary = Summary::of(&[1.9, 1.75, 2.07, 1.8]);
        assert_eq!(summary.best, 1.75);
        assert_eq!(summary.n, 4);
        assert_eq!(summary.median, 1.8);
        assert_eq!((summary.q1, summary.q3), (1.75, 1.9));
        assert!((summary.iqr_pct() - 0.15 / 1.8 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn best_calls_keep_each_calls_fastest_execution() {
        let call = |seconds, cycles, points| Call {
            seconds,
            cycles,
            points,
        };
        let mut best = BestCalls::default();
        // Rep 0 is disturbed in its second call, rep 1 in its first.
        best.absorb(&[call(1.0, 1000, 2), call(0.9, 0, 0), call(0.5, 500, 1)]);
        best.absorb(&[call(1.4, 1000, 2), call(0.3, 0, 0), call(0.5, 500, 1)]);
        assert_eq!(best.rep_s(), 1.0 + 0.3 + 0.5);
        // Rates count only the calls that simulate.
        assert_eq!(best.rates(), (1500.0 / 1.5, 3.0 / 1.5));
    }

    #[test]
    #[should_panic(expected = "every rep makes the same calls")]
    fn best_calls_reject_a_rep_of_another_shape() {
        let call = Call {
            seconds: 1.0,
            cycles: 0,
            points: 0,
        };
        let mut best = BestCalls::default();
        best.absorb(&[call, call]);
        best.absorb(&[call]);
    }

    #[test]
    fn request_sequence_is_a_pure_function_of_the_seed() {
        let a = request_sequence(0x2014_50CC, 150, 18);
        assert_eq!(a, request_sequence(0x2014_50CC, 150, 18));
        assert_ne!(a, request_sequence(0x2014_50CD, 150, 18));
        assert_eq!(a.len(), 150);
        assert!(a.iter().all(|&i| i < 18));
        // Every scenario is requested at least once in a round.
        assert!((0..18).all(|i| a.contains(&i)));
    }
}
