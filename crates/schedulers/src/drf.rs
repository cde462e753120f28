//! Dominant Resource Fairness (Ghodsi et al., NSDI 2011) — §6.1: *"DRF is
//! a widely-adopted fair algorithm under which it offers resources to the
//! job whose dominant resource's allocation is furthest from its fair
//! share."*
//!
//! Implemented as progressive filling: repeatedly offer one task's worth
//! of resources to the active job with the smallest current dominant
//! share (ties by job id), until nothing fits. A job's share is the
//! dominant share of its allocation: the resources its live copies
//! actually hold plus what this batch has tentatively granted. No
//! cloning — DRF spends every resource on distinct tasks. Carbyne's fair
//! pass runs the same `fill` with a share cap and best-fit placement.

use crate::common::{ready_tasks_of, ReadyTask};
use dollymp_cluster::prelude::*;
use dollymp_core::job::JobId;
use dollymp_core::resources::{dominant_share, Resources};
use std::collections::HashMap;

/// The DRF progressive-filling scheduler.
#[derive(Debug, Clone, Default)]
pub struct Drf;

/// Resources currently held by a job's live copies.
pub(crate) fn allocated(job: &JobState) -> Resources {
    let mut total = Resources::ZERO;
    for task in job.iter_running() {
        let demand = job.spec().phase(task.phase).demand;
        let live = job.task(task.phase, task.task).live_copies() as u64;
        total += demand * live;
    }
    total
}

/// Progressive filling, shared by DRF and Carbyne's fair pass: offer one
/// task at a time to the job with the smallest `(dominant share, JobId)`
/// among those whose share is below `cap` and that have a ready task
/// fitting some server. That job's first such task in (phase, task)
/// order goes to the server `fit` picks, and the task's demand joins the
/// job's allocation, whose dominant share is the job's new share. Stops
/// when no job qualifies.
///
/// Returns the ready tasks left unplaced, per job (a job with none left
/// is absent).
pub(crate) fn fill<'a>(
    view: &ClusterView<'_>,
    free: &mut CapacityOverlay<'a>,
    cap: f64,
    fit: fn(&CapacityOverlay<'a>, Resources) -> Option<ServerId>,
    out: &mut Vec<Assignment>,
) -> HashMap<JobId, Vec<ReadyTask>> {
    let totals = view.totals();
    // Each job's allocation and its dominant share.
    let mut share: HashMap<JobId, (Resources, f64)> = HashMap::new();
    let mut ready: HashMap<JobId, Vec<ReadyTask>> = HashMap::new();
    for job in view.jobs() {
        let held = allocated(job);
        share.insert(job.id(), (held, dominant_share(held, totals)));
        let rts = ready_tasks_of(job);
        if !rts.is_empty() {
            ready.insert(job.id(), rts);
        }
    }

    loop {
        let mut pick: Option<(f64, JobId)> = None;
        for (&jid, tasks) in &ready {
            let s = share[&jid].1;
            if s >= cap || !tasks.iter().any(|rt| free.fits_anywhere(rt.demand)) {
                continue;
            }
            match pick {
                Some((bs, bj)) if (s, jid) >= (bs, bj) => {}
                _ => pick = Some((s, jid)),
            }
        }
        let Some((_, jid)) = pick else { break };
        let tasks = ready.get_mut(&jid).expect("picked from map");
        let idx = tasks
            .iter()
            .position(|rt| free.fits_anywhere(rt.demand))
            .expect("checked above");
        let rt = tasks.remove(idx);
        if tasks.is_empty() {
            ready.remove(&jid);
        }
        let server = fit(free, rt.demand).expect("fits somewhere");
        free.place(out, rt.task, server, rt.demand, CopyKind::Primary);
        let (held, s) = share.get_mut(&jid).expect("tracked");
        *held += rt.demand;
        *s = dominant_share(*held, totals);
    }
    ready
}

impl Scheduler for Drf {
    fn name(&self) -> String {
        "drf".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut free = view.capacity().begin_batch();
        fill(
            view,
            &mut free,
            f64::INFINITY,
            CapacityOverlay::first_fit,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;

    fn det() -> DurationSampler {
        DurationSampler::new(1, StragglerModel::Deterministic)
    }

    #[test]
    fn splits_capacity_between_equal_jobs() {
        // 4 slots of capacity, two jobs with 4 unit tasks each: DRF gives
        // each job 2 concurrent tasks, so both finish at 2 waves × 5 slots.
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec::single_phase(JobId(i), 4, Resources::new(1.0, 1.0), 5.0, 0.0))
            .collect();
        let mut s = Drf;
        let r = simulate(&cluster, jobs, &det(), &mut s, &EngineConfig::default());
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(0)].flowtime, 10);
        assert_eq!(by_id[&JobId(1)].flowtime, 10);
    }

    #[test]
    fn favors_the_job_with_lower_dominant_share() {
        // Job 0 is CPU-dominant, job 1 memory-dominant; with equalized
        // dominant shares both make progress together instead of one
        // hogging the cluster.
        let cluster = ClusterSpec::homogeneous(1, 8.0, 8.0);
        let cpu_heavy = JobSpec::single_phase(JobId(0), 8, Resources::new(2.0, 0.5), 5.0, 0.0);
        let mem_heavy = JobSpec::single_phase(JobId(1), 8, Resources::new(0.5, 2.0), 5.0, 0.0);
        let mut s = Drf;
        let r = simulate(
            &cluster,
            vec![cpu_heavy, mem_heavy],
            &det(),
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        // Mixed packing lets ~3+3 tasks run per wave; both jobs finish in
        // roughly the same number of waves — neither is starved.
        let f0 = by_id[&JobId(0)].flowtime as f64;
        let f1 = by_id[&JobId(1)].flowtime as f64;
        assert!((f0 - f1).abs() / f0.max(f1) < 0.5, "f0={f0} f1={f1}");
    }

    #[test]
    fn never_clones() {
        let cluster = ClusterSpec::homogeneous(6, 4.0, 4.0);
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 1.0), 8.0, 4.0))
            .collect();
        let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
        let mut s = Drf;
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn work_conserving_under_single_job() {
        let cluster = ClusterSpec::homogeneous(2, 2.0, 2.0);
        let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 1.0), 3.0, 0.0);
        let mut s = Drf;
        let r = simulate(
            &cluster,
            vec![job],
            &det(),
            &mut s,
            &EngineConfig::default(),
        );
        // All 4 tasks fit at once (2 servers × 2 slots).
        assert_eq!(r.jobs[0].flowtime, 3);
    }
}
