//! The scheduler interface and a reference FIFO/first-fit implementation.
//!
//! Every policy in `dollymp-schedulers` (DollyMP itself, Tetris, DRF,
//! Carbyne, the Capacity scheduler, …) implements [`Scheduler`] and is
//! driven by the same engine through the same [`ClusterView`] — keeping
//! cross-scheduler comparisons apples-to-apples (DESIGN.md §4.2).

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
/// against remaining capacity and panics on violations (scheduler bugs
/// should fail loudly, not silently skew experiments).
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

/// Reference policy: FIFO job order, first-fit placement, no cloning.
///
/// Used by the engine's own tests and as the simplest baseline. Jobs are
/// visited in arrival order (ties by id), tasks in (phase, task) order,
/// and each task goes to the first server with room.
#[derive(Debug, Default, Clone)]
pub struct FifoFirstFit;

impl Scheduler for FifoFirstFit {
    fn name(&self) -> String {
        "fifo".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        // Tentative commitments go on a capacity overlay (O(1) to start);
        // first_fit is the index's O(log n) leftmost-fitting-server query,
        // which visits exactly the servers a linear scan would accept.
        let free = view.capacity().begin_batch();
        let mut out = Vec::new();
        let mut jobs: Vec<_> = view.jobs().collect();
        jobs.sort_by_key(|j| (j.spec().arrival, j.id()));
        for job in jobs {
            for task in job.iter_ready() {
                let demand = job.spec().phase(task.phase).demand;
                if let Some(server) = free.first_fit(demand) {
                    free.commit(server, demand);
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
}
