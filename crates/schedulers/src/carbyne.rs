//! The Carbyne scheduler (Grandl et al., OSDI 2016) — §6.1/§6.3.2: *"The
//! Carbyne Scheduler adopts ideas from DRF and Tetris, and applies
//! altruistic scheduling to collect leftover resources. The leftover
//! resources are then redistributed to other tasks for achieving better
//! job performance and cluster efficiency."*
//!
//! Carbyne's full system is considerably larger (per-job deadline
//! estimation, plan-ahead); we implement its published core loop, as
//! documented in DESIGN.md/EXPERIMENTS.md:
//!
//! 1. **Fair pass** — DRF's progressive filling ([`crate::drf`]), but a
//!    job stops receiving resources once its dominant share reaches its
//!    fair share `1/N` (jobs are *entitled* to fairness but not more), and
//!    each task goes to its best-fit server rather than the first fit;
//! 2. **Altruistic pass** — the leftover capacity is redistributed to
//!    ready tasks in SRPT order with Tetris best-fit placement, which is
//!    what "redistributed … for better job performance (completion time)
//!    and cluster efficiency (packing)" amounts to.
//!
//! No cloning — like the other baselines, Carbyne spends resources on
//! distinct tasks only.

use crate::dollymp::{JobStatistics, Oracle};
use crate::drf::fill;
use dollymp_cluster::prelude::*;
use dollymp_core::job::JobId;

/// The Carbyne-style altruistic scheduler.
#[derive(Debug, Clone, Default)]
pub struct Carbyne;

impl Scheduler for Carbyne {
    fn name(&self) -> String {
        "carbyne".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let fair = 1.0 / view.num_jobs().max(1) as f64;
        let mut free = view.capacity().begin_batch();
        let mut out = Vec::new();

        // Pass 1: DRF up to the fair share, best-fit.
        let mut ready = fill(view, &mut free, fair, CapacityOverlay::best_fit, &mut out);

        // Pass 2: altruistic redistribution of leftovers, SRPT order.
        let mut srpt: Vec<(f64, JobId)> = view
            .jobs()
            .map(|j| (Oracle.remaining_etime(j, 0.0), j.id()))
            .collect();
        srpt.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        for (_, jid) in srpt {
            for rt in ready.remove(&jid).unwrap_or_default() {
                if let Some(server) = free.best_fit(rt.demand) {
                    free.place(&mut out, rt.task, server, rt.demand, CopyKind::Primary);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn det() -> DurationSampler {
        DurationSampler::new(1, StragglerModel::Deterministic)
    }

    #[test]
    fn leftovers_go_to_short_jobs() {
        // Two jobs: a long one with many tasks and a short one with many
        // tasks. Fair share caps each at half the cluster; leftovers (the
        // other half when one job can't use its share) accelerate the
        // short job first.
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let long = JobSpec::single_phase(JobId(0), 8, Resources::new(1.0, 1.0), 20.0, 0.0);
        let short = JobSpec::single_phase(JobId(1), 8, Resources::new(1.0, 1.0), 2.0, 0.0);
        let mut s = Carbyne;
        let r = simulate(
            &cluster,
            vec![long, short],
            &det(),
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert!(
            by_id[&JobId(1)].flowtime < by_id[&JobId(0)].flowtime,
            "short job must finish first under altruism"
        );
    }

    #[test]
    fn single_job_gets_the_whole_cluster() {
        // Altruistic pass must make Carbyne work-conserving: with one job,
        // its fair share is 1 and everything fits at once anyway.
        let cluster = ClusterSpec::homogeneous(2, 2.0, 2.0);
        let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 1.0), 3.0, 0.0);
        let mut s = Carbyne;
        let r = simulate(
            &cluster,
            vec![job],
            &det(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].flowtime, 3);
    }

    #[test]
    fn fair_pass_caps_a_greedy_job() {
        // Job 0 has 8 ready tasks, job 1 has 2; with fair share = 1/2 of
        // a 4-slot cluster, job 0 gets 2 slots in pass 1 and job 1 gets
        // its 2 — job 1 must finish in one wave.
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let greedy = JobSpec::single_phase(JobId(0), 8, Resources::new(1.0, 1.0), 5.0, 0.0);
        let meek = JobSpec::single_phase(JobId(1), 2, Resources::new(1.0, 1.0), 5.0, 0.0);
        let mut s = Carbyne;
        let r = simulate(
            &cluster,
            vec![greedy, meek],
            &det(),
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(1)].flowtime, 5, "meek job unharmed");
    }

    #[test]
    fn never_clones() {
        let cluster = ClusterSpec::homogeneous(6, 4.0, 4.0);
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 1.0), 8.0, 4.0))
            .collect();
        let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
        let mut s = Carbyne;
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }
}
