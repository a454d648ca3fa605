//! The end-to-end arithmetic: outcome counts, latency percentiles that rank
//! failures last, and the failure share.

/// Attempted queries at which a run starts reporting p90: from here on the
/// 90th percentile has at least ten samples beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// Why an attempted query did not count as completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The engine refused it with a typed error.
    Refused,
    /// The result was produced but never reached the client (a frame the
    /// client cannot take, a dropped connection).
    Undeliverable,
    /// The result reached the client and failed the correctness check.
    Wrong,
}

/// Every attempted query of one run: its latency, or why it failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latency in ms per attempted query, in completion order; `None` for
    /// a failure.
    latencies: Vec<Option<f64>>,
    refused: usize,
    undeliverable: usize,
    wrong: usize,
}

impl Tally {
    /// Records a completed query; returns its index for [`Tally::mark_wrong`].
    pub fn complete(&mut self, latency_ms: f64) -> usize {
        self.latencies.push(Some(latency_ms));
        self.latencies.len() - 1
    }

    pub fn fail(&mut self, why: Failure) {
        self.latencies.push(None);
        self.count(why);
    }

    /// Turns completed query `index` into a wrong result, found after the
    /// fact by the byte-for-byte check.
    pub fn mark_wrong(&mut self, index: usize) {
        if self.latencies[index].take().is_some() {
            self.count(Failure::Wrong);
        }
    }

    /// Appends a later instance's attempts to this run's.
    pub fn append(&mut self, later: Tally) {
        self.latencies.extend(later.latencies);
        self.refused += later.refused;
        self.undeliverable += later.undeliverable;
        self.wrong += later.wrong;
    }

    fn count(&mut self, why: Failure) {
        match why {
            Failure::Refused => self.refused += 1,
            Failure::Undeliverable => self.undeliverable += 1,
            Failure::Wrong => self.wrong += 1,
        }
    }

    pub fn attempted(&self) -> usize {
        self.latencies.len()
    }

    pub fn failed(&self) -> usize {
        self.refused + self.undeliverable + self.wrong
    }

    pub fn completed(&self) -> usize {
        self.attempted() - self.failed()
    }

    pub fn wrong(&self) -> usize {
        self.wrong
    }

    pub fn refused(&self) -> usize {
        self.refused
    }

    pub fn undeliverable(&self) -> usize {
        self.undeliverable
    }

    /// Latency of attempt `index`; `None` for a failure.
    pub fn latency(&self, index: usize) -> Option<f64> {
        self.latencies.get(index).copied().flatten()
    }

    /// Failed or refused queries ÷ queries attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted() == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted() as f64
    }

    /// Nearest-rank percentile `q` in `(0, 1]` over every attempted query,
    /// a failure ranking above every completed one (it misses any latency
    /// limit).  `None` when nothing was attempted or the rank is a failure.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let mut done: Vec<f64> = self.latencies.iter().flatten().copied().collect();
        done.sort_by(|a, b| a.total_cmp(b));
        let n = self.attempted();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        done.get(rank - 1).copied()
    }

    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// p90, withheld until the run has attempted [`P90_MIN_SAMPLES`].
    pub fn p90(&self) -> Option<f64> {
        (self.attempted() >= P90_MIN_SAMPLES)
            .then(|| self.percentile(0.9))
            .flatten()
    }
}

/// Median of `values` (mean of the middle pair), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| rdx_bench::stats::median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_rank_failures_last() {
        let mut t = Tally::default();
        for ms in [5.0, 1.0, 3.0] {
            t.complete(ms);
        }
        t.fail(Failure::Undeliverable);
        // Four samples: 1, 3, 5, then the failure.
        assert_eq!(t.p50(), Some(3.0));
        assert_eq!(t.percentile(0.75), Some(5.0));
        assert_eq!(t.percentile(1.0), None, "the top rank is the failure");
        // A failure ranks above even a very slow completion.
        t.complete(1e9);
        assert_eq!(t.percentile(0.8), Some(1e9));
        assert_eq!(t.percentile(1.0), None);
    }

    #[test]
    fn p90_is_withheld_under_100_samples() {
        let mut t = Tally::default();
        for i in 0..99 {
            t.complete(i as f64);
        }
        assert_eq!(t.p90(), None);
        t.complete(99.0);
        // 100 samples 0..=99: rank 90 is 89, with ten samples beyond it.
        assert_eq!(t.p90(), Some(89.0));
    }

    #[test]
    fn failed_frac_counts_refusals_undeliverable_frames_and_wrong_results() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.complete(1.0);
        }
        let wrong = t.complete(1.0);
        t.fail(Failure::Refused);
        t.fail(Failure::Undeliverable);
        t.fail(Failure::Wrong);
        assert_eq!((t.attempted(), t.failed()), (10, 3));
        t.mark_wrong(wrong);
        t.mark_wrong(wrong); // idempotent
        assert_eq!((t.attempted(), t.failed(), t.completed()), (10, 4, 6));
        assert_eq!(t.failed_frac(), 0.4);
        assert_eq!(t.wrong(), 2);

        // Pooling instances keeps every count.
        let mut later = Tally::default();
        later.complete(2.0);
        later.fail(Failure::Undeliverable);
        t.append(later);
        assert_eq!((t.attempted(), t.failed(), t.undeliverable()), (12, 5, 2));
    }
}
