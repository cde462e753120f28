//! The assembled YARN-like system: the Resource Manager runs DollyMP's
//! pass on the Application Masters' estimates, packaged as a
//! [`Scheduler`] so it runs on the same simulation engine as every other
//! policy.
//!
//! This is the "deployment" configuration of the paper (§5.2/§6.2). The
//! RM's scheduling logic is [`DollyMP`] itself, but it reads
//! **estimated** task statistics, with an [`ApplicationMaster`] as its
//! [`JobStatistics`](dollymp_schedulers::JobStatistics) source, rather
//! than the ground truth the oracle reads from the job specs. The AMs
//! then add the one thing only they know, where each task's input block
//! lives, as a second-level placement over the batch DollyMP returns:
//!
//! 1. a primary moves onto one of its task's replica servers if that
//!    server has room;
//! 2. a clone moves off a server that already hosts a copy of its task:
//!    to a replica if one has room, else to the first server that does.
//!
//! Each move commits on the overlay that holds the whole batch, and the
//! server it left is not released, so the batch stays admissible. Each
//! [`Assignment`] carries what §5.2 adds to a container request, the
//! task ID and whether the copy is a clone; the clone budget is
//! DollyMP's `r`.

use crate::am::ApplicationMaster;
use crate::history::HistoryRegistry;
use dollymp_cluster::execution::block_replicas;
use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, TaskRef};
use dollymp_core::resources::Resources;
use dollymp_schedulers::DollyMP;

/// The RM + AMs control plane as one schedulable unit.
#[derive(Debug, Clone)]
pub struct YarnSystem {
    /// The RM's scheduling logic, on the AMs' estimates.
    dollymp: DollyMP<ApplicationMaster>,
    /// The current batch's primaries, sorted (reused across passes).
    primaries: Vec<(TaskRef, ServerId)>,
}

impl YarnSystem {
    /// A YARN system running DollyMP^`clones` in its RM, with a fresh
    /// (cold) history registry.
    pub fn new(clones: u32) -> Self {
        YarnSystem::with_history(clones, HistoryRegistry::new())
    }

    /// Like [`YarnSystem::new`] but sharing an existing history registry
    /// — how recurring-job knowledge survives across runs.
    pub fn with_history(clones: u32, history: HistoryRegistry) -> Self {
        YarnSystem {
            dollymp: DollyMP::with_statistics(clones, ApplicationMaster::new(history)),
            primaries: Vec::new(),
        }
    }

    /// The shared history registry (clone it to reuse across runs).
    pub fn history(&self) -> &HistoryRegistry {
        self.dollymp.statistics().history()
    }

    /// The AMs' second-level placement over DollyMP's `batch`, committed
    /// on `free`, the overlay that holds the batch (module docs).
    fn place_locally(
        &mut self,
        view: &ClusterView<'_>,
        free: &CapacityOverlay,
        batch: &mut [Assignment],
    ) {
        let n = view.cluster().len();
        let demand = |t: TaskRef| {
            let job = view.job(t.job).expect("a batch places tasks of view jobs");
            job.spec().phase(t.phase).demand
        };
        let has_room = |s: ServerId, d: Resources| !view.is_down(s) && d.fits_in(free.free(s));

        for a in batch.iter_mut().filter(|a| a.kind == CopyKind::Primary) {
            let (replicas, d) = (block_replicas(a.task, n), demand(a.task));
            if replicas.contains(&a.server) {
                continue;
            }
            if let Some(&r) = replicas.iter().find(|&&r| has_room(r, d)) {
                free.commit(r, d);
                a.server = r;
            }
        }

        self.primaries.clear();
        self.primaries.extend(
            batch
                .iter()
                .filter(|a| a.kind == CopyKind::Primary)
                .map(|a| (a.task, a.server)),
        );
        self.primaries.sort_unstable();
        for a in batch.iter_mut().filter(|a| a.kind == CopyKind::Clone) {
            let (task, d) = (a.task, demand(a.task));
            let job = view
                .job(task.job)
                .expect("a batch places tasks of view jobs");
            let primaries = &self.primaries;
            let hosts = |s: ServerId| {
                primaries.binary_search(&(task, s)).is_ok()
                    || job
                        .copies_of(task.phase, task.task)
                        .any(|c| c.is_live() && c.server == s)
            };
            if !hosts(a.server) {
                continue;
            }
            let spare = |s: ServerId| !hosts(s) && has_room(s, d);
            let target = block_replicas(task, n)
                .into_iter()
                .find(|&s| spare(s))
                .or_else(|| {
                    let mut next = 0;
                    while let Some(s) = free.next_fit_at_or_after(next, d) {
                        if spare(s) {
                            return Some(s);
                        }
                        next = s.0 as usize + 1;
                    }
                    None
                });
            if let Some(s) = target {
                free.commit(s, d);
                a.server = s;
            }
        }
    }
}

impl Scheduler for YarnSystem {
    fn name(&self) -> String {
        format!("yarn-{}", self.dollymp.name())
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        // A new AM registers, and "the priority of each job" is
        // recomputed (§5.2): DollyMP re-runs Algorithm 1 over every AM's
        // fresh estimates before its next pass.
        self.dollymp.on_job_arrival(view, job);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        self.dollymp.statistics().archive(job);
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.dollymp.on_task_lost(view, task);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let free = view.capacity().begin_batch();
        let mut batch = self.dollymp.schedule_on(view, &free);
        self.place_locally(view, &free, &mut batch);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn sampler() -> DurationSampler {
        DurationSampler::new(21, StragglerModel::ParetoFit)
    }

    fn workload(n: u64, label: &str) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::builder(JobId(i))
                    .arrival(i * 4)
                    .label(label)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        4,
                        Resources::new(1.0, 2.0),
                        12.0,
                        5.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn completes_workloads_and_names_itself() {
        let cluster = ClusterSpec::paper_30_node();
        let mut s = YarnSystem::new(2);
        assert_eq!(s.name(), "yarn-dollymp2");
        let r = simulate(
            &cluster,
            workload(10, "wc"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs.len(), 10);
    }

    #[test]
    fn archives_history_after_jobs_finish() {
        let cluster = ClusterSpec::paper_30_node();
        let history = HistoryRegistry::new();
        let mut s = YarnSystem::with_history(2, history.clone());
        let _ = simulate(
            &cluster,
            workload(4, "recurring"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert!(
            history.prior("recurring", 0).is_some(),
            "finished phases recorded as priors"
        );
        let (mean, _, n) = history.prior("recurring", 0).unwrap();
        assert!(mean > 0.0);
        assert!(n >= 4, "each job contributed observations");
    }

    #[test]
    fn warm_history_changes_nothing_structurally() {
        // A second run with a warm registry must still complete everything
        // (estimates differ, the mechanics hold).
        let cluster = ClusterSpec::paper_30_node();
        let history = HistoryRegistry::new();
        let jobs = workload(6, "stable");
        let mut cold = YarnSystem::with_history(2, history.clone());
        let r1 = simulate(
            &cluster,
            jobs.clone(),
            &sampler(),
            &mut cold,
            &EngineConfig::default(),
        );
        let mut warm = YarnSystem::with_history(2, history.clone());
        let r2 = simulate(
            &cluster,
            jobs,
            &sampler(),
            &mut warm,
            &EngineConfig::default(),
        );
        assert_eq!(r1.jobs.len(), r2.jobs.len());
        // Paired durations: identical workload/seed ⇒ identical task
        // tables; only the estimation (and hence possibly order) differs.
        assert!(r2.total_flowtime() > 0);
    }

    #[test]
    fn yarn_dollymp0_never_clones() {
        let cluster = ClusterSpec::paper_30_node();
        let mut s = YarnSystem::new(0);
        let r = simulate(
            &cluster,
            workload(6, "wc"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn yarn_dollymp2_clones_under_light_load() {
        let cluster = ClusterSpec::paper_30_node();
        // One lonely job: everything else idle → clones expected.
        let mut s = YarnSystem::new(2);
        let r = simulate(
            &cluster,
            workload(1, "wc"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert!(r.jobs[0].clone_copies > 0);
    }

    #[test]
    fn clone_spread_avoids_same_server_when_possible() {
        // 3 servers, single 1-task job with 2 clones allowed. Clone
        // containers are granted one per allocation round (DESIGN.md
        // §4.8), and a lone job has no later decision point before its
        // task completes — so exactly one clone is launched, on a
        // different server than the primary.
        let cluster = ClusterSpec::homogeneous(3, 2.0, 2.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 4.0);
        let mut s = YarnSystem::new(2);
        let r = simulate(
            &cluster,
            vec![job],
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].clone_copies, 1);
        assert_eq!(r.jobs[0].tasks_cloned, 1);
    }
}
