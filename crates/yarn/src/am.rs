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
//! 3. otherwise a configured default guess (all the AM knows is the
//!    container request).
//!
//! From these estimates the AM computes a job's remaining effective
//! volume and processing time (Eq. 14/16/17 with `θ̂, σ̂`): it is the
//! [`JobStatistics`] source of the RM's DollyMP pass. It also writes the
//! container request behind each granted container (task ID, clone
//! budget, locality preferences) and archives finished runs into the
//! history. An AM keeps no per-job state, so one serves every job.

use crate::history::HistoryRegistry;
use crate::protocol::ContainerRequest;
use dollymp_cluster::execution::block_replicas;
use dollymp_cluster::state::JobState;
use dollymp_core::job::{PhaseId, TaskRef};
use dollymp_core::resources::Resources;
use dollymp_core::speedup::SpeedupFn;
use dollymp_core::transient::TransientJob;
use dollymp_schedulers::JobStatistics;
use serde::{Deserialize, Serialize};

/// AM estimation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmConfig {
    /// Default duration guess (slots) when neither history nor current
    /// observations exist.
    pub default_theta: f64,
    /// σ-weight `w` in effective times (paper: 1.5).
    pub sigma_weight: f64,
    /// Clone budget advertised in container requests (paper: 2).
    pub max_clones: u32,
    /// Minimum completed tasks before trusting in-run observations over
    /// the default guess.
    pub min_observations: u64,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            default_theta: 10.0,
            sigma_weight: 1.5,
            max_clones: 2,
            min_observations: 1,
        }
    }
}

/// The Application Master estimator.
#[derive(Debug, Clone)]
pub struct ApplicationMaster {
    cfg: AmConfig,
    history: HistoryRegistry,
}

impl ApplicationMaster {
    /// Create an AM backed by the shared history registry.
    pub fn new(cfg: AmConfig, history: HistoryRegistry) -> Self {
        ApplicationMaster { cfg, history }
    }

    /// Estimated `(θ̂, σ̂)` of one phase, via the three-tier policy.
    pub fn estimate_phase(&self, job: &JobState, phase: PhaseId) -> (f64, f64) {
        let label = &job.spec().label;
        // Tier 2 first if the current run already has better evidence than
        // a cross-run prior? The paper updates "timely when more tasks
        // finish": blend prior and current observations when both exist.
        let observed = &job.phase_state(phase).observed;
        let prior = self.history.prior(label, phase.0);
        match (prior, observed.count() >= self.cfg.min_observations.max(1)) {
            (Some((pm, ps, pn)), true) => {
                // Weighted blend of prior and in-run evidence.
                let on = observed.count() as f64;
                let w = on / (on + pn as f64);
                (
                    w * observed.mean() + (1.0 - w) * pm,
                    w * observed.population_std() + (1.0 - w) * ps,
                )
            }
            (Some((pm, ps, _)), false) => (pm, ps),
            (None, true) => (observed.mean(), observed.population_std()),
            (None, false) => (self.cfg.default_theta, 0.0),
        }
    }

    /// The request behind one of `task`'s containers: its demand, the
    /// AM's clone budget, and the servers holding replicas of its input
    /// block ([`block_replicas`], the map the engine's remote-read
    /// penalty consults, so the preferences are *correct*, not merely
    /// plausible).
    pub fn container_request(
        &self,
        task: TaskRef,
        demand: Resources,
        nservers: usize,
    ) -> ContainerRequest {
        ContainerRequest::new(task, demand)
            .with_max_clones(self.cfg.max_clones)
            .with_preferred(block_replicas(task, nservers).to_vec())
    }

    /// On job completion, fold the run's observed per-phase statistics
    /// back into the recurring-job history.
    pub fn archive(&self, job: &JobState) {
        for (pi, _) in job.spec().phases().iter().enumerate() {
            let obs = &job.phase_state(PhaseId(pi as u32)).observed;
            self.history.record(&job.spec().label, pi as u32, obs);
        }
    }

    /// This AM's configuration.
    pub fn config(&self) -> &AmConfig {
        &self.cfg
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
    fn transient_job(&self, job: &JobState, totals: Resources, sigma_weight: f64) -> TransientJob {
        let spec = job.spec();
        // Remaining critical path (Eq. 17) and the speedup fitted from
        // the first unfinished phase, whose clones launch first.
        let mut longest = vec![0.0f64; spec.num_phases()];
        let mut etime = 0.0f64;
        let mut speedup = None;
        for &pid in spec.topo_order() {
            let own = if job.phase_state(pid).remaining == 0 {
                0.0
            } else {
                let (theta, sigma) = self.estimate_phase(job, pid);
                speedup.get_or_insert_with(|| SpeedupFn::fit_pareto(theta, sigma));
                theta + sigma_weight * sigma
            };
            let up = spec
                .phase(pid)
                .parents
                .iter()
                .map(|p| longest[p.0 as usize])
                .fold(0.0f64, f64::max);
            longest[pid.0 as usize] = up + own;
            etime = etime.max(up + own);
        }
        TransientJob {
            id: job.id(),
            volume: self.remaining_volume(job, totals, sigma_weight),
            etime,
            dominant: spec.max_dominant_share(totals),
            speedup: speedup.unwrap_or(SpeedupFn::None),
        }
    }

    /// Eq. 16 with `θ̂, σ̂`.
    fn remaining_volume(&self, job: &JobState, totals: Resources, sigma_weight: f64) -> f64 {
        let mut volume = 0.0;
        for (pi, p) in job.spec().phases().iter().enumerate() {
            let pid = PhaseId(pi as u32);
            let remaining = job.phase_state(pid).remaining;
            if remaining > 0 {
                let (theta, sigma) = self.estimate_phase(job, pid);
                volume +=
                    remaining as f64 * (theta + sigma_weight * sigma) * p.dominant_share(totals);
            }
        }
        volume
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
        ApplicationMaster::new(AmConfig::default(), history)
    }

    #[test]
    fn tier3_default_guess_when_nothing_known() {
        let a = am(HistoryRegistry::new());
        let job = job_state("cold");
        let (theta, sigma) = a.estimate_phase(&job, PhaseId(0));
        assert_eq!(theta, AmConfig::default().default_theta);
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
        let (theta, _sigma) = a.estimate_phase(&job, PhaseId(0));
        assert!((theta - 100.0).abs() < 1e-9, "prior mean used, got {theta}");
    }

    #[test]
    fn tier2_in_run_observations_used_when_no_history() {
        let a = am(HistoryRegistry::new());
        let mut job = job_state("cold");
        job.push_observed(PhaseId(0), 80.0);
        job.push_observed(PhaseId(0), 120.0);
        let (theta, sigma) = a.estimate_phase(&job, PhaseId(0));
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
        let (theta, _) = a.estimate_phase(&job, PhaseId(0));
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
    fn container_requests_cover_ready_frontier_with_replicas() {
        let a = am(HistoryRegistry::new());
        let job = job_state("cold");
        let requests = || -> Vec<ContainerRequest> {
            job.iter_ready()
                .map(|t| a.container_request(t, job.spec().phase(t.phase).demand, 10))
                .collect()
        };
        let reqs = requests();
        // Only phase 0 is ready: 4 tasks.
        assert_eq!(reqs.len(), 4);
        for r in &reqs {
            assert_eq!(r.max_clones, 2);
            assert_eq!(r.preferred_servers.len(), 2);
            assert!(r.preferred_servers.iter().all(|s| (s.0 as usize) < 10));
            assert_eq!(r.demand, Resources::new(1.0, 2.0));
        }
        // Deterministic per identity.
        assert_eq!(reqs, requests());
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
