//! The Tetris scheduler (Grandl et al., SIGCOMM 2014) as described in
//! §6.1: *"Tetris combines the SRPT scheduler and heuristic algorithms for
//! the multi-dimensional resource packing problem to compute a weighted
//! score for each of the mapping pairs between the available server and
//! unscheduled tasks; then, Tetris assigns a task with the highest score
//! to the available servers."*
//!
//! The score of a `(task, server)` pair is the alignment inner product
//! `demand · free` plus `ε ×` an SRPT bonus that favours jobs with little
//! remaining work. With the paper's small `ε` the packing term dominates,
//! reproducing the Fig. 2 behaviour where Tetris runs the large,
//! well-aligned job first.
//!
//! [`Tetris::with_cloning`] adds the *best-effort* cloning of §2's
//! motivating example (leftover resources cloned in score order without
//! any job-scheduling coordination) — the strawman DollyMP is compared
//! against.

use crate::common::{ready_tasks_of, ReadyTask};
use crate::dollymp::{JobStatistics, Oracle};
use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, TaskRef};
use dollymp_core::online::best_fit_score;
use std::collections::HashMap;

/// The Tetris multi-resource packer.
#[derive(Debug, Clone)]
pub struct Tetris {
    /// Weight of the SRPT term relative to the alignment term.
    pub epsilon: f64,
    /// Maximum concurrent copies per task (1 = no cloning, the Tetris
    /// default; ≥ 2 enables the best-effort cloning variant).
    pub max_copies: u32,
}

impl Tetris {
    /// Plain Tetris: packing + SRPT, no redundancy.
    pub fn new() -> Self {
        Tetris {
            epsilon: 0.2,
            max_copies: 1,
        }
    }

    /// Tetris with best-effort cloning of up to `clones` extra copies out
    /// of leftover resources.
    pub fn with_cloning(clones: u32) -> Self {
        Tetris {
            epsilon: 0.2,
            max_copies: clones + 1,
        }
    }

    /// SRPT bonus of a job: larger for shorter remaining work.
    fn srpt_bonus(&self, job: &JobState) -> f64 {
        1.0 / (1.0 + Oracle.remaining_etime(job, 0.0))
    }

    fn pair_score(
        &self,
        demand: dollymp_core::resources::Resources,
        free: dollymp_core::resources::Resources,
        srpt: f64,
    ) -> f64 {
        best_fit_score(demand, free) + self.epsilon * srpt
    }
}

impl Default for Tetris {
    fn default() -> Self {
        Tetris::new()
    }
}

impl Scheduler for Tetris {
    fn name(&self) -> String {
        if self.max_copies > 1 {
            format!("tetris+clone{}", self.max_copies - 1)
        } else {
            "tetris".into()
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free = view.capacity().begin_batch();
        let mut out = Vec::new();

        // Per-job SRPT bonus and remaining ready tasks.
        let srpt: HashMap<JobId, f64> = view.jobs().map(|j| (j.id(), self.srpt_bonus(j))).collect();
        let mut ready: Vec<(JobId, ReadyTask)> = view
            .jobs()
            .flat_map(|j| ready_tasks_of(j).into_iter().map(move |rt| (j.id(), rt)))
            .collect();

        // Primary pass: per server, repeatedly place the highest-scoring
        // fitting task.
        for s in 0..free.len() as u32 {
            let server = ServerId(s);
            loop {
                let avail = free.free(server);
                if avail.is_zero() || ready.is_empty() {
                    break;
                }
                let mut best: Option<(f64, usize)> = None;
                for (idx, (jid, rt)) in ready.iter().enumerate() {
                    if !rt.demand.fits_in(avail) {
                        continue;
                    }
                    let score = self.pair_score(rt.demand, avail, srpt[jid]);
                    if best.map(|(b, _)| score > b).unwrap_or(true) {
                        best = Some((score, idx));
                    }
                }
                let Some((_, idx)) = best else { break };
                let (_, rt) = ready.swap_remove(idx);
                free.place(&mut out, rt.task, server, rt.demand, CopyKind::Primary);
            }
        }

        // Best-effort clone pass (only in the cloning variant): leftover
        // resources go to running tasks in descending SRPT bonus order —
        // uncoordinated with the job schedule, which is exactly the
        // behaviour §2 criticizes.
        if self.max_copies > 1 {
            let mut placed_primary: HashMap<JobId, Vec<TaskRef>> = HashMap::new();
            for a in &out {
                placed_primary.entry(a.task.job).or_default().push(a.task);
            }
            let mut jobs: Vec<&JobState> = view.jobs().collect();
            jobs.sort_by(|a, b| {
                srpt[&b.id()]
                    .partial_cmp(&srpt[&a.id()])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for job in jobs {
                let placed = placed_primary.get(&job.id()).into_iter().flatten();
                for task in job.iter_running().chain(placed.copied()) {
                    if free.effective_copies(view, task) >= self.max_copies {
                        continue;
                    }
                    let demand = job.spec().phase(task.phase).demand;
                    if let Some(server) = free.best_fit(demand) {
                        free.place(&mut out, task, server, demand, CopyKind::Clone);
                    }
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
    fn names() {
        assert_eq!(Tetris::new().name(), "tetris");
        assert_eq!(Tetris::with_cloning(2).name(), "tetris+clone2");
    }

    #[test]
    fn packs_the_best_aligned_job_first() {
        // The Fig. 2 pathology: one unit-capacity server, a fat job and
        // two small jobs. Tetris runs the fat job first (highest
        // alignment), so the small jobs wait behind it.
        let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
        let fat = JobSpec::single_phase(JobId(0), 1, Resources::new(0.8, 0.8), 10.0, 0.0);
        let s1 = JobSpec::single_phase(JobId(1), 1, Resources::new(0.5, 0.5), 8.0, 0.0);
        let s2 = JobSpec::single_phase(JobId(2), 1, Resources::new(0.45, 0.45), 8.0, 0.0);
        let mut t = Tetris::new();
        let r = simulate(
            &cluster,
            vec![fat, s1, s2],
            &det(),
            &mut t,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(0)].flowtime, 10, "fat job first");
        assert_eq!(by_id[&JobId(1)].flowtime, 18, "small jobs behind it");
        assert_eq!(by_id[&JobId(2)].flowtime, 18);
        // Total = 46 s: exactly the Tetris number of Fig. 2.
        assert_eq!(r.total_flowtime(), 46);
    }

    #[test]
    fn plain_tetris_never_clones() {
        let cluster = ClusterSpec::homogeneous(4, 8.0, 8.0);
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 1.0), 5.0, 2.0))
            .collect();
        let sampler = DurationSampler::new(4, StragglerModel::ParetoFit);
        let mut t = Tetris::new();
        let r = simulate(&cluster, jobs, &sampler, &mut t, &EngineConfig::default());
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn cloning_variant_uses_leftovers() {
        let cluster = ClusterSpec::homogeneous(4, 2.0, 2.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 4.0);
        let sampler = DurationSampler::new(4, StragglerModel::ParetoFit);
        let mut t = Tetris::with_cloning(1);
        let r = simulate(
            &cluster,
            vec![job],
            &sampler,
            &mut t,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].clone_copies, 1, "idle cluster → one clone");
    }

    #[test]
    fn srpt_term_breaks_packing_ties() {
        // Two jobs with identical demands but different durations on one
        // server: equal alignment, so the ε·SRPT term must favour the
        // short one.
        let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
        let long = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 50.0, 0.0);
        let short = JobSpec::single_phase(JobId(1), 1, Resources::new(1.0, 1.0), 2.0, 0.0);
        let mut t = Tetris::new();
        let r = simulate(
            &cluster,
            vec![long, short],
            &det(),
            &mut t,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(1)].flowtime, 2, "short job first on ties");
    }
}
