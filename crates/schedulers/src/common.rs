//! Shared placement machinery used by every scheduler implementation.
//!
//! Schedulers receive an immutable [`ClusterView`] and must return a
//! self-consistent batch of assignments. They build it on a
//! [`CapacityOverlay`] from the view's capacity index
//! (`view.capacity().begin_batch()`), which layers the batch's tentative
//! commitments and per-task copy counts over the engine's free capacity,
//! so a scheduler can never over-commit — without cloning the per-server
//! free vector each pass.

use dollymp_cluster::prelude::*;
use dollymp_core::job::TaskRef;
use dollymp_core::resources::Resources;

/// A ready task together with its demand (avoids re-deriving the phase
/// spec at every comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyTask {
    /// The task.
    pub task: TaskRef,
    /// Its per-copy resource demand.
    pub demand: Resources,
}

/// Collect the ready tasks of one job.
pub fn ready_tasks_of(job: &JobState) -> Vec<ReadyTask> {
    job.ready_tasks()
        .into_iter()
        .map(|task| ReadyTask {
            task,
            demand: job.spec().phase(task.phase).demand,
        })
        .collect()
}

/// Greedy work-conserving pass: walk jobs in the given order and place
/// every ready task that fits (first-fit). Returns the assignments and
/// updates `free`. The workhorse of the FIFO/SRPT/SVF family.
pub fn place_in_job_order(
    view: &ClusterView<'_>,
    order: &[dollymp_core::job::JobId],
    free: &mut CapacityOverlay,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    for &jid in order {
        let Some(job) = view.job(jid) else { continue };
        for task in job.iter_ready() {
            let demand = job.spec().phase(task.phase).demand;
            if let Some(server) = free.first_fit(demand) {
                free.commit(server, demand);
                free.note_copy(task);
                out.push(Assignment {
                    task,
                    server,
                    kind: CopyKind::Primary,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::{JobId, JobSpec};

    /// The overlay is exercised through a scheduler that uses it; the
    /// pure parts are tested here via a synthetic run.
    struct Probe {
        observed_fit: bool,
    }
    impl Scheduler for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let mut free = view.capacity().begin_batch();
            assert_eq!(free.len(), 2);
            let order: Vec<JobId> = view.jobs().map(|j| j.id()).collect();
            let batch = place_in_job_order(view, &order, &mut free);
            if !batch.is_empty() {
                self.observed_fit = true;
                // Every committed server's free shrank by exactly the sum
                // of demands placed on it.
                let mut committed: Vec<(ServerId, Resources)> = Vec::new();
                for a in &batch {
                    let demand = view
                        .job(a.task.job)
                        .expect("placed job is active")
                        .spec()
                        .phase(a.task.phase)
                        .demand;
                    match committed.iter_mut().find(|(s, _)| *s == a.server) {
                        Some((_, d)) => *d += demand,
                        None => committed.push((a.server, demand)),
                    }
                }
                for &(server, demand) in &committed {
                    let expected = view
                        .free(server)
                        .checked_sub(demand)
                        .expect("overlay never over-commits");
                    assert_eq!(
                        free.free(server),
                        expected,
                        "server {server:?} free did not shrink by the committed demand"
                    );
                }
            }
            batch
        }
    }

    #[test]
    fn place_in_job_order_is_work_conserving() {
        let cluster = ClusterSpec::homogeneous(2, 2.0, 2.0);
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::single_phase(JobId(i), 1, Resources::new(2.0, 2.0), 3.0, 0.0))
            .collect();
        let sampler = DurationSampler::new(1, StragglerModel::Deterministic);
        let mut p = Probe {
            observed_fit: false,
        };
        let r = simulate(&cluster, jobs, &sampler, &mut p, &EngineConfig::default());
        assert!(p.observed_fit);
        // 4 single-server jobs on 2 servers: two waves of 3 slots.
        assert_eq!(r.makespan, 6);
        assert_eq!(r.total_flowtime(), 3 + 3 + 6 + 6);
    }

    #[test]
    fn best_fit_prefers_fuller_alignment() {
        // Construct through a probe: a CPU-heavy task must land on the
        // CPU-rich server under best_fit.
        struct BestFitProbe;
        impl Scheduler for BestFitProbe {
            fn name(&self) -> String {
                "bf".into()
            }
            fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
                let free = view.capacity().begin_batch();
                let mut out = Vec::new();
                for job in view.jobs() {
                    for rt in ready_tasks_of(job) {
                        if let Some(s) = free.best_fit(rt.demand) {
                            free.commit(s, rt.demand);
                            out.push(Assignment {
                                task: rt.task,
                                server: s,
                                kind: CopyKind::Primary,
                            });
                        }
                    }
                }
                out
            }
        }
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(2.0, 16.0), // memory-rich
            ServerSpec::new(16.0, 2.0), // CPU-rich
        ]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(2.0, 1.0), 3.0, 0.0);
        let sampler = DurationSampler::new(1, StragglerModel::Deterministic);
        let r = simulate(
            &cluster,
            vec![job],
            &sampler,
            &mut BestFitProbe,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs.len(), 1);
        // Can't observe the server from the report directly, but the run
        // completing proves the placement was valid; the alignment choice
        // itself is asserted below on the pure function.
        let cpu_heavy = Resources::new(2.0, 1.0);
        let a = dollymp_core::online::best_fit_score(cpu_heavy, Resources::new(16.0, 2.0));
        let b = dollymp_core::online::best_fit_score(cpu_heavy, Resources::new(2.0, 16.0));
        assert!(a > b);
    }
}
