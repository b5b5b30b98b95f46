//! Streaming accuracy estimators and the adaptive stopping rule.
//!
//! The paper justifies its 1000-iteration count with a 95 %-confidence
//! margin-of-error argument (§III-D, "maximum margin of error … is
//! 6.27 %"). The engine turns that argument around: instead of always
//! paying the worst-case iteration count, each sweep point keeps a
//! [`Welford`] running mean/variance and stops as soon as its *measured*
//! margin of error undercuts the spec's target — at a deterministic round
//! boundary, so the result is independent of the worker-thread count.

/// Numerically stable streaming mean/variance (Welford 1962).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh estimator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n > 1 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// 95 % margin of error of the mean, `1.96·s/√n` — the paper's §III-D
    /// statistic. Infinite below two observations: with n < 2 the sample
    /// variance is undefined, and reporting 0 would let an adaptive stop
    /// rule "satisfy" any target off a single sample.
    pub fn margin_of_error_95(&self) -> f64 {
        if self.n < 2 {
            f64::INFINITY
        } else {
            1.96 * self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// The raw `(count, mean, m2)` state — the estimator's complete
    /// serializable form, used by the shard partial-report format
    /// ([`crate::shard`]) to carry per-point state across processes.
    pub fn parts(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuilds an estimator from [`Welford::parts`] output, bit-exactly.
    pub fn from_parts(n: u64, mean: f64, m2: f64) -> Self {
        Self { n, mean, m2 }
    }
}

/// When to stop iterating on one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct StopRule {
    /// Hard iteration cap (the paper's fixed count when adaptivity is off).
    pub max_iterations: usize,
    /// Iterations that must complete before early termination is allowed —
    /// guards against a lucky low-variance start.
    pub min_iterations: usize,
    /// 95 % margin-of-error target; `0` disables early termination and the
    /// point always runs `max_iterations`.
    pub target_moe: f64,
}

impl StopRule {
    /// A fixed-count rule (no adaptivity), matching the seed's
    /// `mc_accuracy` behaviour.
    pub fn fixed(iterations: usize) -> Self {
        Self {
            max_iterations: iterations,
            min_iterations: iterations,
            target_moe: 0.0,
        }
    }

    /// An adaptive rule: stop once the 95 % margin of error is at or below
    /// `target_moe`, but not before `min_iterations` and never after
    /// `max_iterations`.
    pub fn adaptive(max_iterations: usize, min_iterations: usize, target_moe: f64) -> Self {
        Self {
            max_iterations,
            min_iterations: min_iterations.min(max_iterations),
            target_moe,
        }
    }

    /// `true` when the estimator's state satisfies the rule — callers must
    /// only consult this at deterministic (round) boundaries.
    pub fn should_stop(&self, est: &Welford) -> bool {
        let n = est.count() as usize;
        if n >= self.max_iterations {
            return true;
        }
        self.target_moe > 0.0
            && n >= self.min_iterations
            && est.margin_of_error_95() <= self.target_moe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_statistics() {
        let xs = [0.5, 0.7, 0.9, 0.2, 0.4, 0.8];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert!((w.mean() - mean).abs() < 1e-15);
        assert!((w.variance() - var).abs() < 1e-15);
        assert!((w.margin_of_error_95() - 1.96 * var.sqrt() / n.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn welford_edge_counts() {
        let mut w = Welford::new();
        assert_eq!(w.variance(), 0.0);
        assert!(w.margin_of_error_95().is_infinite());
        w.push(0.3);
        assert_eq!(w.count(), 1);
        assert_eq!(w.variance(), 0.0);
        // One sample carries no variance information — the margin of
        // error must not read as "converged".
        assert!(w.margin_of_error_95().is_infinite());
        w.push(0.3);
        assert_eq!(w.margin_of_error_95(), 0.0);
    }

    #[test]
    fn single_sample_never_satisfies_an_adaptive_rule() {
        let rule = StopRule::adaptive(100, 1, 0.5);
        let mut w = Welford::new();
        w.push(0.5);
        assert!(!rule.should_stop(&w), "n = 1 must not count as converged");
    }

    #[test]
    fn fixed_rule_ignores_moe() {
        let rule = StopRule::fixed(10);
        let mut w = Welford::new();
        for _ in 0..9 {
            w.push(0.5); // zero variance → moe 0
        }
        assert!(!rule.should_stop(&w), "fixed rule must run to the cap");
        w.push(0.5);
        assert!(rule.should_stop(&w));
    }

    #[test]
    fn adaptive_rule_respects_min_and_target() {
        let rule = StopRule::adaptive(1000, 8, 0.01);
        let mut w = Welford::new();
        for _ in 0..7 {
            w.push(0.5);
        }
        assert!(!rule.should_stop(&w), "below min_iterations");
        w.push(0.5);
        assert!(rule.should_stop(&w), "zero variance satisfies any target");

        // High variance keeps iterating.
        let mut noisy = Welford::new();
        for i in 0..20 {
            noisy.push(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert!(noisy.margin_of_error_95() > 0.01);
        assert!(!rule.should_stop(&noisy));
    }

    #[test]
    fn parts_round_trip_bit_exactly() {
        let mut w = Welford::new();
        for x in [0.25, 0.75, 0.5, 0.125] {
            w.push(x);
        }
        let (n, mean, m2) = w.parts();
        let back = Welford::from_parts(n, mean, m2);
        assert_eq!(back.count(), w.count());
        assert_eq!(back.mean().to_bits(), w.mean().to_bits());
        assert_eq!(back.variance().to_bits(), w.variance().to_bits());
    }

    #[test]
    fn adaptive_rule_clamps_min_to_max() {
        let rule = StopRule::adaptive(5, 50, 0.01);
        assert_eq!(rule.min_iterations, 5);
        let mut w = Welford::new();
        for _ in 0..5 {
            w.push(0.3);
        }
        assert!(rule.should_stop(&w));
    }
}
