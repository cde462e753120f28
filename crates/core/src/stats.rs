//! Streaming statistics (Welford's algorithm).
//!
//! The Application Master of §5.2 estimates the mean and standard
//! deviation of task execution times *online*: from prior runs of
//! recurring jobs, then from the first few finished tasks of the current
//! phase, updating as more tasks complete. [`RunningStats`] is that
//! estimator — numerically stable, mergeable, O(1) per sample.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean / variance accumulator.
///
/// ```
/// use dollymp_core::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (divides by `n`; 0 when empty).
    pub fn population_std(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_std(), 0.0);
    }

    proptest! {
        /// Welford matches the two-pass formulas.
        #[test]
        fn matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
            let mut s = RunningStats::new();
            for &x in &xs { s.push(x); }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6);
            prop_assert!((s.population_std() - var.sqrt()).abs() < 1e-6);
        }

        /// Merging two halves equals pushing everything into one.
        #[test]
        fn merge_equals_sequential(
            a in prop::collection::vec(-1e3f64..1e3, 0..100),
            b in prop::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let mut whole = RunningStats::new();
            for &x in a.iter().chain(&b) { whole.push(x); }
            let mut left = RunningStats::new();
            for &x in &a { left.push(x); }
            let mut right = RunningStats::new();
            for &x in &b { right.push(x); }
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.population_std() - whole.population_std()).abs() < 1e-6);
        }
    }
}
