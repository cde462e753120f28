//! The recurring-job history registry (§5.2, estimation source #1):
//! *"recurring jobs are fairly common in big data processing clusters …
//! for such jobs, AM directly applies task statistics measured in prior
//! runs of the job."*
//!
//! Keyed by application label, then phase index; thread-safe behind a
//! [`parking_lot::RwLock`] so a shared registry can serve many simulated
//! AMs (and parallel experiment sweeps).

use dollymp_core::stats::RunningStats;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregated duration statistics of prior runs: label → per-phase-index
/// stats across runs (a phase not yet recorded holds an empty entry).
type HistoryData = HashMap<String, Vec<RunningStats>>;

/// Shared, thread-safe history registry.
#[derive(Debug, Clone, Default)]
pub struct HistoryRegistry {
    inner: Arc<RwLock<HistoryData>>,
}

impl HistoryRegistry {
    /// An empty registry (a cold cluster with no prior runs).
    pub fn new() -> Self {
        HistoryRegistry::default()
    }

    /// Record the observed duration stats of one finished phase run.
    pub fn record(&self, label: &str, phase_idx: u32, observed: &RunningStats) {
        if observed.count() == 0 {
            return;
        }
        let mut data = self.inner.write();
        let phases = data.entry(label.to_string()).or_default();
        let idx = phase_idx as usize;
        if phases.len() <= idx {
            phases.resize_with(idx + 1, RunningStats::new);
        }
        phases[idx].merge(observed);
    }

    /// Prior `(mean, std, samples)` for a phase of a recurring
    /// application, if any run has been recorded.
    pub fn prior(&self, label: &str, phase_idx: u32) -> Option<(f64, f64, u64)> {
        let data = self.inner.read();
        data.get(label)?
            .get(phase_idx as usize)
            .filter(|s| s.count() > 0)
            .map(|s| (s.mean(), s.population_std(), s.count()))
    }

    /// Number of distinct `(label, phase)` entries.
    pub fn len(&self) -> usize {
        let data = self.inner.read();
        data.values()
            .map(|phases| phases.iter().filter(|s| s.count() > 0).count())
            .sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_has_no_priors() {
        let r = HistoryRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.prior("wordcount", 0), None);
    }

    #[test]
    fn record_then_query() {
        let r = HistoryRegistry::new();
        let mut s = RunningStats::new();
        for x in [8.0, 10.0, 12.0] {
            s.push(x);
        }
        r.record("wordcount", 0, &s);
        let (mean, _std, n) = r.prior("wordcount", 0).unwrap();
        assert!((mean - 10.0).abs() < 1e-9);
        assert_eq!(n, 3);
        // Other phases/labels unaffected.
        assert_eq!(r.prior("wordcount", 1), None);
        assert_eq!(r.prior("pagerank", 0), None);
    }

    #[test]
    fn repeated_runs_merge() {
        let r = HistoryRegistry::new();
        let mut a = RunningStats::new();
        a.push(10.0);
        let mut b = RunningStats::new();
        b.push(20.0);
        r.record("pagerank", 2, &a);
        r.record("pagerank", 2, &b);
        let (mean, _, n) = r.prior("pagerank", 2).unwrap();
        assert_eq!(n, 2);
        assert!((mean - 15.0).abs() < 1e-9);
    }

    #[test]
    fn len_counts_recorded_phases_only() {
        let r = HistoryRegistry::new();
        let mut s = RunningStats::new();
        s.push(4.0);
        r.record("sort", 2, &s);
        assert_eq!(r.len(), 1, "the phases below 2 are not entries");
        assert_eq!(r.prior("sort", 0), None);
        r.record("sort", 0, &s);
        r.record("grep", 0, &s);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_observations_ignored() {
        let r = HistoryRegistry::new();
        r.record("x", 0, &RunningStats::new());
        assert!(r.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let r = HistoryRegistry::new();
        let r2 = r.clone();
        let mut s = RunningStats::new();
        s.push(5.0);
        r2.record("shared", 0, &s);
        assert!(r.prior("shared", 0).is_some(), "clone writes visible");
    }
}
