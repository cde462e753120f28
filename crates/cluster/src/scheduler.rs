//! The scheduler interface, the shared first-fit walk and a reference
//! FIFO/first-fit implementation.
//!
//! Every policy in `dollymp-schedulers` (DollyMP itself, Tetris, DRF,
//! Carbyne, the Capacity scheduler, …) implements [`Scheduler`] and is
//! driven by the same engine through the same [`ClusterView`] — keeping
//! cross-scheduler comparisons apples-to-apples (DESIGN.md §4.2).

use crate::capacity::CapacityOverlay;
use crate::spec::ServerId;
use crate::state::CopyKind;
use crate::view::ClusterView;
use dollymp_core::job::{JobId, TaskRef};
use serde::{Deserialize, Serialize};

/// One placement decision: launch a copy of `task` on `server`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// The task receiving a copy.
    pub task: TaskRef,
    /// Target server.
    pub server: ServerId,
    /// Primary launch or redundant clone.
    pub kind: CopyKind,
}

/// A cluster scheduling policy.
///
/// The engine calls [`Scheduler::schedule`] once per decision point (job
/// arrival or any task/copy completion — which, in the slotted model, is
/// always a slot boundary). The returned batch must be *self-consistent*:
/// the scheduler is responsible for not over-committing the free resources
/// it sees in the view, because the engine validates each assignment
/// against remaining capacity and aborts the run on a violation (scheduler
/// bugs should fail loudly, not silently skew experiments):
/// [`try_simulate_with_faults`](crate::engine::try_simulate_with_faults)
/// returns [`SimError::Rejected`](crate::error::SimError::Rejected), and
/// [`simulate`](crate::engine::simulate) panics with it.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> String;

    /// Called when a job enters the cluster, before the scheduling pass of
    /// the same slot. Every arrival of a slot is delivered before that
    /// pass, and nothing changes in between, so a policy whose order
    /// depends on the whole job set (DollyMP's Algorithm 1, §5) can mark
    /// it stale here and recompute once, at the start of the pass.
    fn on_job_arrival(&mut self, _view: &ClusterView<'_>, _job: JobId) {}

    /// Called when a job fully completes, with its final runtime state
    /// (so estimation layers can archive observed statistics).
    fn on_job_finish(&mut self, _job: &crate::state::JobState) {}

    /// Called when a server crashes (fault injection), after its copies
    /// were evicted but before the slot's scheduling pass. The view
    /// already shows the server with zero free capacity and
    /// [`ClusterView::is_down`].
    fn on_server_down(&mut self, _view: &ClusterView<'_>, _server: ServerId) {}

    /// Called when a crashed server is repaired and its capacity returns
    /// to the pool, before the slot's scheduling pass. Policies keeping
    /// incremental free-capacity summaries must account for capacity
    /// *growing* here.
    fn on_server_up(&mut self, _view: &ClusterView<'_>, _server: ServerId) {}

    /// Called when a task's *last* live copy was evicted by a crash: the
    /// task is back in `Ready` state and will be re-executed from
    /// scratch, before the slot's scheduling pass. Estimation layers
    /// must account for it here — evicted progress is lost work, yet the
    /// job's remaining-task counts do not change.
    fn on_task_lost(&mut self, _view: &ClusterView<'_>, _task: TaskRef) {}

    /// Produce the placement batch for this decision point.
    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment>;

    /// Containment counters, for policies wrapped in
    /// [`crate::guard::GuardedScheduler`]. The engine stores the returned
    /// value on [`crate::metrics::SimReport::guard`] when the run drains.
    /// `None` (the default) means "not guarded" and records as all-zero
    /// stats, so unguarded and cleanly-guarded reports are identical.
    fn guard_stats(&self) -> Option<crate::metrics::GuardStats> {
        None
    }

    /// Stage breakdown (prepare vs placement, in nanoseconds) of the most
    /// recent [`Scheduler::schedule`] call, for the flight recorder's
    /// [`crate::trace::Event::SchedSpan`]. `None` (the default) means the
    /// policy does not instrument its pass; the engine then records the
    /// span without a stage breakdown.
    fn pass_span(&self) -> Option<crate::trace::PassSpan> {
        None
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.as_mut().on_job_arrival(view, job)
    }

    fn on_job_finish(&mut self, job: &crate::state::JobState) {
        self.as_mut().on_job_finish(job)
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.as_mut().on_server_down(view, server)
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.as_mut().on_server_up(view, server)
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.as_mut().on_task_lost(view, task)
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.as_mut().schedule(view)
    }

    fn guard_stats(&self) -> Option<crate::metrics::GuardStats> {
        self.as_ref().guard_stats()
    }

    fn pass_span(&self) -> Option<crate::trace::PassSpan> {
        self.as_ref().pass_span()
    }
}

/// The active jobs in arrival order, ties by id: the FIFO queue.
pub fn arrival_order(view: &ClusterView<'_>) -> Vec<JobId> {
    let mut order: Vec<_> = view.jobs().map(|j| (j.spec().arrival, j.id())).collect();
    order.sort_unstable();
    order.into_iter().map(|(_, id)| id).collect()
}

/// Greedy work-conserving pass: walk the jobs in `order`, each job's ready
/// tasks in (phase, task) order, and place every task that fits on the
/// first server with room. A task this batch already placed a copy of is
/// skipped. Returns the primaries it placed.
///
/// `first_fit` is the index's O(log n) leftmost-fitting-server query,
/// which visits exactly the servers a linear scan would accept.
pub fn place_in_job_order(
    view: &ClusterView<'_>,
    order: &[JobId],
    free: &mut CapacityOverlay<'_>,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    for &jid in order {
        let Some(job) = view.job(jid) else { continue };
        for task in job.iter_ready() {
            if free.noted_copies(task) > 0 {
                continue;
            }
            let demand = job.spec().phase(task.phase).demand;
            if let Some(server) = free.first_fit(demand) {
                free.place(&mut out, task, server, demand, CopyKind::Primary);
            }
        }
    }
    out
}

/// Reference policy: FIFO job order, first-fit placement, no cloning.
///
/// Used by the engine's own tests, as the guard's safe fallback and as
/// the simplest baseline: [`place_in_job_order`] over [`arrival_order`].
#[derive(Debug, Default, Clone)]
pub struct FifoFirstFit;

impl Scheduler for FifoFirstFit {
    fn name(&self) -> String {
        "fifo".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free = view.capacity().begin_batch();
        place_in_job_order(view, &arrival_order(view), &mut free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, EngineConfig};
    use crate::execution::{DurationSampler, StragglerModel};
    use crate::spec::ClusterSpec;
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    /// Checks the overlay inside a pass: every committed server's free
    /// capacity shrank by exactly the demands the walk placed on it.
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
}
