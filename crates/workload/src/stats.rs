//! Workload summarization: the statistics the paper quotes about its
//! traces (job-size distribution, per-label composition, offered load),
//! computed for any generated or loaded workload. Used by the CLI and the
//! experiment binaries to sanity-check that a workload has the intended
//! shape before burning simulation time on it.

use dollymp_core::job::JobSpec;
use dollymp_core::resources::Resources;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate description of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Total task count across jobs.
    pub tasks: u64,
    /// Job counts per application label.
    pub per_label: BTreeMap<String, usize>,
    /// Job size (task count) quantiles: (p50, p90, p99, max).
    pub size_quantiles: (u64, u64, u64, u64),
    /// Fraction of jobs with ≤ 10 tasks ("small jobs"; the Google trace
    /// analyses report ~95 % small jobs by a duration cut-off — ours is
    /// the size cut-off used in §6.3).
    pub small_job_fraction: f64,
    /// Span of the arrival process in slots (last − first arrival).
    pub arrival_span: u64,
    /// Total dominant-share work `Σ_j v_j` (Eq. 14 with `w = 0`),
    /// in cluster-fraction × slots, relative to `totals`.
    pub dominant_work: f64,
    /// Offered load: dominant work / arrival span (∞-safe: 0 when the
    /// span is zero).
    pub offered_load: f64,
}

impl WorkloadStats {
    /// Compute statistics against a cluster's totals.
    pub fn compute(jobs: &[JobSpec], totals: Resources) -> WorkloadStats {
        let mut per_label: BTreeMap<String, usize> = BTreeMap::new();
        let mut sizes: Vec<u64> = Vec::with_capacity(jobs.len());
        let mut dominant_work = 0.0;
        for j in jobs {
            *per_label.entry(j.label.clone()).or_insert(0) += 1;
            sizes.push(j.total_tasks());
            dominant_work += j.volume(totals, 0.0);
        }
        sizes.sort_unstable();
        let q = |p: f64| -> u64 {
            if sizes.is_empty() {
                return 0;
            }
            let idx = ((p * sizes.len() as f64).ceil() as usize).clamp(1, sizes.len()) - 1;
            sizes[idx]
        };
        let small = sizes.iter().filter(|&&s| s <= 10).count();
        let first = jobs.iter().map(|j| j.arrival).min().unwrap_or(0);
        let last = jobs.iter().map(|j| j.arrival).max().unwrap_or(0);
        let span = last.saturating_sub(first);
        WorkloadStats {
            jobs: jobs.len(),
            tasks: sizes.iter().sum(),
            per_label,
            size_quantiles: (q(0.5), q(0.9), q(0.99), sizes.last().copied().unwrap_or(0)),
            small_job_fraction: if sizes.is_empty() {
                0.0
            } else {
                small as f64 / sizes.len() as f64
            },
            arrival_span: span,
            dominant_work,
            offered_load: if span > 0 {
                dominant_work / span as f64
            } else {
                0.0
            },
        }
    }

    /// A one-screen human-readable rendering.
    pub fn render(&self) -> String {
        let labels: Vec<String> = self
            .per_label
            .iter()
            .map(|(l, n)| format!("{l}:{n}"))
            .collect();
        format!(
            "{} jobs / {} tasks [{}]\n\
             job sizes: p50={} p90={} p99={} max={} | small (≤10 tasks): {:.0}%\n\
             arrivals span {} slots | dominant work {:.2} cluster-slots | offered load {:.1}%",
            self.jobs,
            self.tasks,
            labels.join(", "),
            self.size_quantiles.0,
            self.size_quantiles.1,
            self.size_quantiles.2,
            self.size_quantiles.3,
            self.small_job_fraction * 100.0,
            self.arrival_span,
            self.dominant_work,
            self.offered_load * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::{generate, GoogleConfig};
    use dollymp_core::job::JobId;

    #[test]
    fn empty_workload() {
        let s = WorkloadStats::compute(&[], Resources::new(10.0, 10.0));
        assert_eq!(s.jobs, 0);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.offered_load, 0.0);
        assert_eq!(s.size_quantiles, (0, 0, 0, 0));
    }

    #[test]
    fn hand_checked_small_workload() {
        let totals = Resources::new(10.0, 10.0);
        let jobs = vec![
            JobSpec::builder(JobId(0))
                .arrival(0)
                .label("a")
                .phase(dollymp_core::job::PhaseSpec::new(
                    2,
                    Resources::new(1.0, 1.0),
                    5.0,
                    0.0,
                ))
                .build()
                .unwrap(),
            JobSpec::builder(JobId(1))
                .arrival(10)
                .label("b")
                .phase(dollymp_core::job::PhaseSpec::new(
                    20,
                    Resources::new(1.0, 1.0),
                    5.0,
                    0.0,
                ))
                .build()
                .unwrap(),
        ];
        let s = WorkloadStats::compute(&jobs, totals);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.tasks, 22);
        assert_eq!(s.per_label["a"], 1);
        assert_eq!(s.per_label["b"], 1);
        assert_eq!(s.small_job_fraction, 0.5);
        assert_eq!(s.arrival_span, 10);
        // v = 2·5·0.1 + 20·5·0.1 = 11; load = 11/10.
        assert!((s.dominant_work - 11.0).abs() < 1e-12);
        assert!((s.offered_load - 1.1).abs() < 1e-12);
        assert_eq!(s.size_quantiles.3, 20);
    }

    #[test]
    fn google_workload_matches_design_targets() {
        let jobs = generate(&GoogleConfig {
            njobs: 2000,
            ..Default::default()
        });
        let s = WorkloadStats::compute(&jobs, Resources::new(10_000.0, 20_000.0));
        assert!((0.55..0.85).contains(&s.small_job_fraction));
        assert!(s.size_quantiles.3 > 100, "heavy tail present");
        assert!(s.size_quantiles.0 <= 20, "median job is small");
        let rendered = s.render();
        assert!(rendered.contains("2000 jobs"));
        assert!(rendered.contains("google"));
    }
}
