//! The simulated Application Master (§5.2).
//!
//! Its responsibility here is **estimation**: unlike the oracle, which
//! reads a phase's true `(θ, σ)` from the job spec, a YARN AM must
//! *estimate* task statistics, in the paper's three-tier order:
//!
//! 1. prior runs of the same recurring application (the
//!    [`HistoryRegistry`]);
//! 2. the measured durations of already-finished tasks of the same phase
//!    in the current run ("tasks from the same phase … have similar
//!    resource requirements and execution properties");
//! 3. otherwise a default guess of [`DEFAULT_THETA`] slots.
//!
//! The AM is the [`JobStatistics`] source of the RM's DollyMP pass: it
//! reports each phase's `(θ̂, σ̂)`, and DollyMP turns these into the job's remaining volume and
//! processing time (Eq. 16/17). It also archives finished runs into the
//! history. An AM keeps no per-job state, so one serves every job.

use crate::history::HistoryRegistry;
use dollymp_cluster::state::JobState;
use dollymp_core::job::PhaseId;
use dollymp_schedulers::JobStatistics;

/// Duration guess (slots) for a phase with neither history nor finished
/// tasks in the current run.
pub const DEFAULT_THETA: f64 = 10.0;

/// The Application Master estimator.
#[derive(Debug, Clone)]
pub struct ApplicationMaster {
    history: HistoryRegistry,
}

impl ApplicationMaster {
    /// Create an AM backed by the shared history registry.
    pub fn new(history: HistoryRegistry) -> Self {
        ApplicationMaster { history }
    }

    /// On job completion, fold the run's observed per-phase statistics
    /// back into the recurring-job history.
    pub fn archive(&self, job: &JobState) {
        for (pi, _) in job.spec().phases().iter().enumerate() {
            let obs = &job.phase_state(PhaseId(pi as u32)).observed;
            self.history.record(&job.spec().label, pi as u32, obs);
        }
    }

    /// The shared history registry.
    pub fn history(&self) -> &HistoryRegistry {
        &self.history
    }
}

/// The AM's report (§5.2: "Application Master computes the job volume
/// along with the processing time, and sends them to the Resource
/// Manager"), with estimated `(θ̂, σ̂)` wherever the oracle reads the
/// spec.
impl JobStatistics for ApplicationMaster {
    /// Estimated `(θ̂, σ̂)` of one phase, via the three-tier policy. When
    /// both a prior and in-run observations exist they are blended by
    /// sample count: the paper updates estimates "timely when more tasks
    /// finish".
    fn phase_stats(&self, job: &JobState, phase: PhaseId) -> (f64, f64) {
        let observed = &job.phase_state(phase).observed;
        let prior = self.history.prior(&job.spec().label, phase.0);
        match (prior, observed.count() >= 1) {
            (Some((pm, ps, pn)), true) => {
                let on = observed.count() as f64;
                let w = on / (on + pn as f64);
                (
                    w * observed.mean() + (1.0 - w) * pm,
                    w * observed.population_std() + (1.0 - w) * ps,
                )
            }
            (Some((pm, ps, _)), false) => (pm, ps),
            (None, true) => (observed.mean(), observed.population_std()),
            (None, false) => (DEFAULT_THETA, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::state::JobState;
    use dollymp_core::job::{JobId, JobSpec, PhaseSpec};
    use dollymp_core::resources::Resources;
    use dollymp_core::stats::RunningStats;

    fn job_state(label: &str) -> JobState {
        let spec = JobSpec::builder(JobId(1))
            .label(label)
            .phase(PhaseSpec::new(4, Resources::new(1.0, 2.0), 100.0, 30.0))
            .phase(
                PhaseSpec::new(2, Resources::new(2.0, 4.0), 50.0, 10.0)
                    .with_parents(vec![PhaseId(0)]),
            )
            .build()
            .unwrap();
        let tables = [[100.0; 4].as_slice(), &[50.0; 2]].concat();
        JobState::new(spec, tables)
    }

    fn am(history: HistoryRegistry) -> ApplicationMaster {
        ApplicationMaster::new(history)
    }

    #[test]
    fn tier3_default_guess_when_nothing_known() {
        let a = am(HistoryRegistry::new());
        let job = job_state("cold");
        let (theta, sigma) = a.phase_stats(&job, PhaseId(0));
        assert_eq!(theta, DEFAULT_THETA);
        assert_eq!(sigma, 0.0);
        // Crucially NOT the spec's true 100.0 — the AM has no oracle.
        assert_ne!(theta, 100.0);
    }

    #[test]
    fn tier1_history_prior_used_when_present() {
        let history = HistoryRegistry::new();
        let mut s = RunningStats::new();
        for x in [90.0, 100.0, 110.0] {
            s.push(x);
        }
        history.record("warm", 0, &s);
        let a = am(history);
        let job = job_state("warm");
        let (theta, _sigma) = a.phase_stats(&job, PhaseId(0));
        assert!((theta - 100.0).abs() < 1e-9, "prior mean used, got {theta}");
    }

    #[test]
    fn tier2_in_run_observations_used_when_no_history() {
        let a = am(HistoryRegistry::new());
        let mut job = job_state("cold");
        job.push_observed(PhaseId(0), 80.0);
        job.push_observed(PhaseId(0), 120.0);
        let (theta, sigma) = a.phase_stats(&job, PhaseId(0));
        assert!((theta - 100.0).abs() < 1e-9);
        assert!(sigma > 0.0);
    }

    #[test]
    fn prior_and_observations_blend_by_sample_count() {
        let history = HistoryRegistry::new();
        let mut s = RunningStats::new();
        s.push(200.0); // one prior sample at 200
        history.record("mix", 0, &s);
        let a = am(history);
        let mut job = job_state("mix");
        job.push_observed(PhaseId(0), 100.0); // one in-run sample at 100
        let (theta, _) = a.phase_stats(&job, PhaseId(0));
        assert!(
            (theta - 150.0).abs() < 1e-9,
            "equal-weight blend, got {theta}"
        );
    }

    #[test]
    fn report_uses_estimates_not_oracle_stats() {
        let cluster = dollymp_cluster::spec::ClusterSpec::homogeneous(4, 8.0, 16.0);
        let a = am(HistoryRegistry::new());
        let job = job_state("cold");
        let r = a.transient_job(&job, cluster.totals(), 1.5);
        // With the default guess θ̂ = 10 and σ̂ = 0 for both phases, the
        // estimated critical path is 20 (≪ the true 100 + 50 + w·σ).
        assert!((r.etime - 20.0).abs() < 1e-9, "etime {}", r.etime);
        // Volume: 4·10·d₀ + 2·10·d₁ with d₀ = 2/64, d₁ = 4/64.
        let expected = 4.0 * 10.0 * (2.0 / 64.0) + 2.0 * 10.0 * (4.0 / 64.0);
        assert!((r.volume - expected).abs() < 1e-9, "volume {}", r.volume);
        assert!((r.dominant - 4.0 / 64.0).abs() < 1e-9);
        // The §4.1 gate reads the same estimated volume.
        assert_eq!(a.remaining_volume(&job, cluster.totals(), 1.5), r.volume);
    }

    #[test]
    fn archive_records_observed_phases_only() {
        let history = HistoryRegistry::new();
        let a = am(history.clone());
        let mut job = job_state("arch");
        job.push_observed(PhaseId(0), 95.0);
        a.archive(&job);
        assert!(history.prior("arch", 0).is_some());
        assert!(history.prior("arch", 1).is_none(), "phase 1 never ran");
    }
}
