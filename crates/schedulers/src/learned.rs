//! Online learning of straggler-prone servers — the paper's stated
//! future work (§8: *"we plan to apply online learning methods to quickly
//! identify those servers that can easily lead to stragglers"*),
//! implemented here as an optional extension of DollyMP.
//!
//! [`ServerReputation`] keeps a per-server streaming estimate of the
//! *slowdown ratio* — the winning copy's observed duration over its
//! phase's mean `θ` — shrunk toward 1 by a configurable pseudo-count
//! prior so that a server is only condemned (or celebrated) after real
//! evidence accumulates. [`LearnedDollyMP`] feeds the estimator from job
//! completion records and hands DollyMP a server *visit order* sorted
//! fastest-first, so primaries and clones preferentially land on
//! machines with good track records while slow machines only receive
//! work once the fast ones are full.

use crate::dollymp::DollyMP;
use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, TaskRef};
use dollymp_core::stats::RunningStats;
use serde::{Deserialize, Serialize};

/// Streaming per-server slowdown estimator with a shrinkage prior.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerReputation {
    stats: Vec<RunningStats>,
    /// Pseudo-observations of ratio 1.0 blended into every estimate, so
    /// cold servers look nominal and a single unlucky task cannot
    /// blacklist a machine.
    prior_weight: f64,
}

impl ServerReputation {
    /// A fresh estimator with the default prior weight (4 pseudo-samples).
    pub fn new() -> Self {
        ServerReputation {
            stats: Vec::new(),
            prior_weight: 4.0,
        }
    }

    /// Record one completed task: its winning copy ran on `server` and
    /// took `observed` slots against a phase mean of `theta`.
    pub fn observe(&mut self, server: ServerId, observed: f64, theta: f64) {
        if theta <= 0.0 || observed <= 0.0 || theta.is_nan() || observed.is_nan() {
            return;
        }
        let idx = server.0 as usize;
        if self.stats.len() <= idx {
            self.stats.resize(idx + 1, RunningStats::new());
        }
        self.stats[idx].push(observed / theta);
    }

    /// Estimated slowdown ratio of a server (1.0 = nominal, larger =
    /// straggler-prone), shrunk toward 1 by the prior.
    pub fn slowdown(&self, server: ServerId) -> f64 {
        match self.stats.get(server.0 as usize) {
            Some(s) if s.count() > 0 => {
                let n = s.count() as f64;
                (n * s.mean() + self.prior_weight) / (n + self.prior_weight)
            }
            _ => 1.0,
        }
    }

    /// Samples observed for a server.
    pub fn samples(&self, server: ServerId) -> u64 {
        self.stats
            .get(server.0 as usize)
            .map(|s| s.count())
            .unwrap_or(0)
    }

    /// Server ids `0..n` sorted fastest-first (ties by id — stable and
    /// deterministic).
    pub fn fastest_first(&self, n: usize) -> Vec<ServerId> {
        let mut order: Vec<ServerId> = (0..n as u32).map(ServerId).collect();
        order.sort_by(|a, b| {
            self.slowdown(*a)
                .partial_cmp(&self.slowdown(*b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        order
    }
}

/// DollyMP with the §8 server-reputation extension: identical policy,
/// but servers are visited fastest-first in both placement passes.
#[derive(Debug, Clone)]
pub struct LearnedDollyMP {
    inner: DollyMP,
    reputation: ServerReputation,
}

impl LearnedDollyMP {
    /// Learned DollyMP^`clones`.
    pub fn with_clones(clones: u32) -> Self {
        LearnedDollyMP {
            inner: DollyMP::with_clones(clones),
            reputation: ServerReputation::new(),
        }
    }

    /// The paper-default two-clone variant.
    pub fn new() -> Self {
        LearnedDollyMP::with_clones(2)
    }

    /// Read access to the learned reputations (for analysis binaries).
    pub fn reputation(&self) -> &ServerReputation {
        &self.reputation
    }
}

impl Default for LearnedDollyMP {
    fn default() -> Self {
        LearnedDollyMP::new()
    }
}

impl Scheduler for LearnedDollyMP {
    fn name(&self) -> String {
        format!("learned-{}", self.inner.name())
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.inner.on_job_arrival(view, job);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        for (server, _phase, observed, theta) in job.completion_records() {
            self.reputation.observe(server, observed, theta);
        }
        self.inner.on_job_finish(job);
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.inner.on_server_down(view, server);
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.inner.on_server_up(view, server);
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.inner.on_task_lost(view, task);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let order = self.reputation.fastest_first(view.cluster().len());
        self.inner.schedule_with_server_order(view, &order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    #[test]
    fn reputation_shrinks_toward_one() {
        let mut r = ServerReputation::new();
        assert_eq!(r.slowdown(ServerId(5)), 1.0, "cold server is nominal");
        r.observe(ServerId(0), 40.0, 10.0); // one 4× straggle
        let s = r.slowdown(ServerId(0));
        assert!(s > 1.0 && s < 4.0, "shrinkage keeps {s} between 1 and 4");
        for _ in 0..50 {
            r.observe(ServerId(0), 40.0, 10.0);
        }
        assert!(r.slowdown(ServerId(0)) > 3.5, "evidence overwhelms prior");
    }

    #[test]
    fn degenerate_observations_ignored() {
        let mut r = ServerReputation::new();
        r.observe(ServerId(0), 10.0, 0.0);
        r.observe(ServerId(0), 0.0, 10.0);
        assert_eq!(r.samples(ServerId(0)), 0);
    }

    #[test]
    fn fastest_first_orders_by_slowdown() {
        let mut r = ServerReputation::new();
        for _ in 0..20 {
            r.observe(ServerId(1), 30.0, 10.0); // slow
            r.observe(ServerId(2), 8.0, 10.0); // fast
        }
        let order = r.fastest_first(3);
        assert_eq!(order[0], ServerId(2), "fastest first");
        assert_eq!(order[2], ServerId(1), "slowest last");
    }

    #[test]
    fn learner_avoids_the_slow_server_after_warmup() {
        // One badly slow server among four. After a warm-up stream of
        // jobs, the learner must beat vanilla DollyMP because primaries
        // stop landing on the slow machine.
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(4.0, 8.0),
            ServerSpec::new(4.0, 8.0).with_speed(0.2), // 5× slow
            ServerSpec::new(4.0, 8.0),
            ServerSpec::new(4.0, 8.0),
        ]);
        let jobs: Vec<JobSpec> = (0..40u64)
            .map(|i| {
                JobSpec::builder(JobId(i))
                    .arrival(i * 12)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        6,
                        Resources::new(2.0, 4.0),
                        10.0,
                        0.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let sampler = DurationSampler::new(3, StragglerModel::Deterministic);
        let mut vanilla = DollyMP::with_clones(0);
        let base = simulate(
            &cluster,
            jobs.clone(),
            &sampler,
            &mut vanilla,
            &EngineConfig::default(),
        );
        let mut learned = LearnedDollyMP::with_clones(0);
        let smart = simulate(
            &cluster,
            jobs,
            &sampler,
            &mut learned,
            &EngineConfig::default(),
        );
        assert!(
            smart.total_flowtime() < base.total_flowtime(),
            "learned {} should beat vanilla {}",
            smart.total_flowtime(),
            base.total_flowtime()
        );
        // The slow server's reputation reflects reality.
        assert!(learned.reputation().slowdown(ServerId(1)) > 1.5);
        assert!(learned.reputation().slowdown(ServerId(0)) < 1.5);
    }

    /// With deterministic durations on a homogeneous cluster every
    /// reputation stays at 1.0, so the learned visit order is the id
    /// order and the learned variant must decide exactly like plain
    /// DollyMP — through crashes too, which only holds if the fault
    /// hooks reach the inner scheduler.
    #[test]
    fn matches_dollymp_under_crashes_when_reputations_are_flat() {
        let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0);
        // (arrival, tasks, cpu, θ): the crash lands between arrivals, so
        // only the task-loss hook can refresh the priorities there.
        let jobs: Vec<JobSpec> = [(6, 5, 2.0, 8.0), (7, 1, 1.0, 10.0), (12, 7, 1.0, 6.0)]
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, tasks, cpu, theta))| {
                JobSpec::builder(JobId(i as u64))
                    .arrival(arrival)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        tasks,
                        Resources::new(cpu, 2.0),
                        theta,
                        0.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let tl = FaultTimeline::new(vec![
            TimedFault {
                at: 16,
                event: FaultEvent::Crash(ServerId(1)),
            },
            TimedFault {
                at: 18,
                event: FaultEvent::Restore(ServerId(1)),
            },
        ]);
        let sampler = DurationSampler::new(3, StragglerModel::Deterministic);
        let cfg = EngineConfig::default();
        let mut plain = DollyMP::new();
        let base =
            try_simulate_with_faults(&cluster, jobs.clone(), &sampler, &mut plain, &cfg, &tl)
                .unwrap();
        let mut learned = LearnedDollyMP::new();
        let smart =
            try_simulate_with_faults(&cluster, jobs, &sampler, &mut learned, &cfg, &tl).unwrap();
        assert!(base.faults.tasks_requeued > 0, "the crash must bite");
        assert!((0..2).all(|s| learned.reputation().slowdown(ServerId(s)) == 1.0));
        assert_eq!(
            SimReport {
                scheduler: base.scheduler.clone(),
                ..smart.scrubbed()
            },
            base.scrubbed()
        );
    }

    #[test]
    fn name_reflects_wrapper() {
        assert_eq!(LearnedDollyMP::new().name(), "learned-dollymp2");
    }
}
