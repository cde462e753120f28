//! The read-only cluster snapshot handed to schedulers.
//!
//! At every decision point the engine exposes a [`ClusterView`]: per-server
//! free resources, which servers are crashed, the active jobs with their
//! full runtime state, and the clock. A crashed server also shows zero
//! free capacity; [`ClusterView::is_down`] tells it apart from a full one,
//! so no policy or wrapper has to rebuild the set from fault hooks.
//! Schedulers never see a copy's *future* finish time — only its start
//! and elapsed time — so speculation policies must infer progress the way
//! a real cluster manager would.
//!
//! The active jobs are the engine's own [`JobTable`], borrowed:
//! [`ClusterView::job`] is an O(1) lookup for the contiguous job ids every
//! generator assigns, and [`ClusterView::jobs`] walks the table in
//! ascending [`JobId`] order. Tests and benchmarks that build a view by
//! hand collect their [`JobState`]s into a table.
//!
//! Free capacity is not a snapshot `Vec` — the view borrows the engine's
//! incrementally-maintained [`CapacityIndex`] and always reads its *base*
//! values. Schedulers that need to tentatively commit resources while
//! building a batch call [`ClusterView::capacity`] and layer a
//! [`crate::capacity::CapacityOverlay`] on top (O(1) to start, no
//! per-decision-point clone of the cluster).

use crate::capacity::CapacityIndex;
use crate::spec::{ClusterSpec, ServerId, ServerSpec};
use crate::state::{JobState, JobTable};
use dollymp_core::job::JobId;
use dollymp_core::resources::Resources;
use dollymp_core::time::Time;

/// Immutable snapshot of the simulated cluster at one decision point.
pub struct ClusterView<'a> {
    /// Current slot.
    pub now: Time,
    pub(crate) spec: &'a ClusterSpec,
    pub(crate) cap: &'a CapacityIndex,
    pub(crate) jobs: &'a JobTable,
    /// The engine's per-server crash counts (a server is down while its
    /// count is nonzero). Empty means no server is down.
    pub(crate) down: &'a [u32],
}

impl<'a> ClusterView<'a> {
    /// Assemble a view from its parts. The engine builds views
    /// internally; this constructor exists for benchmarks and control-
    /// plane tests that drive a [`crate::scheduler::Scheduler`] directly
    /// (build the index once with [`CapacityIndex::from_free`]). No
    /// server of such a view is down.
    ///
    /// # Panics
    /// Panics when `cap` does not have one entry per server.
    pub fn new(
        now: Time,
        spec: &'a ClusterSpec,
        cap: &'a CapacityIndex,
        jobs: &'a JobTable,
    ) -> Self {
        assert_eq!(cap.len(), spec.len(), "one free entry per server");
        ClusterView {
            now,
            spec,
            cap,
            jobs,
            down: &[],
        }
    }

    /// The static cluster description.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.spec
    }

    /// The free-capacity index backing this view. Read-only here; call
    /// [`CapacityIndex::begin_batch`] to stack tentative commitments.
    pub fn capacity(&self) -> &'a CapacityIndex {
        self.cap
    }

    /// Total cluster capacity `(Σ C_i, Σ M_i)`.
    pub fn totals(&self) -> Resources {
        self.spec.totals()
    }

    /// Free resources on one server right now.
    pub fn free(&self, server: ServerId) -> Resources {
        self.cap.free(server)
    }

    /// True while `server` is crashed: it holds no copies and takes no
    /// assignments until its last overlapping crash window is restored.
    pub fn is_down(&self, server: ServerId) -> bool {
        self.down.get(server.0 as usize).is_some_and(|&d| d > 0)
    }

    /// Total free resources across the cluster (O(1) — the index keeps a
    /// running sum).
    pub fn total_free(&self) -> Resources {
        self.cap.total_free()
    }

    /// Iterate `(ServerId, &ServerSpec, free)` over all servers.
    pub fn servers(&self) -> impl Iterator<Item = (ServerId, &'a ServerSpec, Resources)> + '_ {
        self.spec
            .iter()
            .map(move |(id, s)| (id, s, self.cap.free(id)))
    }

    /// Active (arrived, unfinished) jobs in ascending [`JobId`] order.
    pub fn jobs(&self) -> impl Iterator<Item = &'a JobState> + '_ {
        self.jobs.values()
    }

    /// Number of active jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Look up one active job.
    pub fn job(&self, id: JobId) -> Option<&'a JobState> {
        self.jobs.get(id)
    }
}
