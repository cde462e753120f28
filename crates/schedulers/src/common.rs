//! The ready-task lists the queue-based baselines (DRF, Carbyne, Tetris,
//! Hopper) work through.
//!
//! Schedulers receive an immutable [`ClusterView`] and must return a
//! self-consistent batch of assignments. They build it on a
//! [`CapacityOverlay`] from the view's capacity index
//! (`view.capacity().begin_batch()`), which layers the batch's tentative
//! commitments and per-task copy counts over the engine's free capacity,
//! so a scheduler can never over-commit — without cloning the per-server
//! free vector each pass. [`CapacityOverlay::place`] is the one placement
//! step.

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
    job.iter_ready()
        .map(|task| ReadyTask {
            task,
            demand: job.spec().phase(task.phase).demand,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::{JobId, JobSpec};

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
                let mut free = view.capacity().begin_batch();
                let mut out = Vec::new();
                for job in view.jobs() {
                    for rt in ready_tasks_of(job) {
                        if let Some(s) = free.best_fit(rt.demand) {
                            free.place(&mut out, rt.task, s, rt.demand, CopyKind::Primary);
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
