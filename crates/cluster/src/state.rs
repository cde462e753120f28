//! Runtime state of jobs, phases, tasks and copies inside the simulator.
//!
//! The engine owns and mutates this state; schedulers observe it read-only
//! through [`crate::view::ClusterView`]. Task *copies* (a primary plus up
//! to two clones, §5) are first-class: each copy occupies resources on one
//! server from its start until it finishes or is killed when a sibling
//! finishes first.

use crate::spec::ServerId;
use dollymp_core::job::{JobId, JobSpec, PhaseId, PhaseSpec, TaskId, TaskRef};
use dollymp_core::resources::Resources;
use dollymp_core::stats::RunningStats;
use dollymp_core::time::Time;
use serde::{Deserialize, Serialize};

/// Whether a copy is the first launch of a task or an extra clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopyKind {
    /// The task's first copy.
    Primary,
    /// A redundant copy racing the primary (straggler mitigation).
    Clone,
}

/// One running (or finished/killed) copy of a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CopyState {
    /// Copy index (0 = primary).
    pub copy_idx: u32,
    /// Where it runs.
    pub server: ServerId,
    /// When it started.
    pub start: Time,
    /// When it would finish if not killed (engine-internal; hidden from
    /// scheduler views, which only see elapsed time).
    pub(crate) finish: Time,
    /// Primary or clone.
    pub kind: CopyKind,
    /// Still occupying resources?
    pub(crate) live: bool,
}

impl CopyState {
    /// Elapsed running time at `now`.
    pub fn elapsed(&self, now: Time) -> Time {
        now.saturating_sub(self.start)
    }

    /// Is this copy still running?
    pub fn is_live(&self) -> bool {
        self.live
    }
}

/// Lifecycle of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskStatus {
    /// Waiting on parent phases (Eq. 7).
    Blocked,
    /// All parents finished; may be launched.
    Ready,
    /// At least one copy is running.
    Running,
    /// Finished (first copy to complete wins).
    Done,
}

/// Runtime state of one task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskState {
    /// Current lifecycle stage; written only by [`JobState::transition`].
    status: TaskStatus,
    /// All copies ever launched (live and dead).
    pub copies: Vec<CopyState>,
    /// Completion time, once done.
    pub finish: Option<Time>,
    /// Index of the copy that finished first (set when done).
    pub winner: Option<u32>,
}

impl TaskState {
    fn new(blocked: bool) -> Self {
        TaskState {
            status: if blocked {
                TaskStatus::Blocked
            } else {
                TaskStatus::Ready
            },
            copies: Vec::new(),
            finish: None,
            winner: None,
        }
    }

    /// Current lifecycle stage.
    pub fn status(&self) -> TaskStatus {
        self.status
    }

    /// Number of live copies.
    pub fn live_copies(&self) -> u32 {
        self.copies.iter().filter(|c| c.live).count() as u32
    }

    /// Total copies ever launched.
    pub fn launched_copies(&self) -> u32 {
        self.copies.len() as u32
    }
}

/// A set of task ids of one phase: one bit per task plus the member
/// count. Insert and remove are O(1); ascending iteration costs
/// O(ntasks/64 + members). Ids below 64 are stored inline, so a phase of
/// at most 64 tasks allocates nothing and its bits sit next to the rest
/// of its [`PhaseState`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSet {
    /// Ids `0..64`.
    head: u64,
    /// Ids `64..`, one word per 64 ids.
    tail: Vec<u64>,
    len: u32,
}

impl TaskSet {
    /// An empty set over the ids `0..ntasks`.
    pub(crate) fn new(ntasks: u32) -> Self {
        TaskSet {
            head: 0,
            tail: vec![0; (ntasks as usize).div_ceil(64).saturating_sub(1)],
            len: 0,
        }
    }

    /// Add every id of `0..ntasks` (the `ntasks` the set was built with).
    pub(crate) fn fill(&mut self, ntasks: u32) {
        debug_assert_eq!(self.nwords(), (ntasks as usize).div_ceil(64).max(1));
        let low_bits = |n: u32| if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        self.head = low_bits(ntasks);
        for (wi, w) in self.tail.iter_mut().enumerate() {
            *w = low_bits(ntasks - 64 * (wi as u32 + 1));
        }
        self.len = ntasks;
    }

    fn nwords(&self) -> usize {
        1 + self.tail.len()
    }

    fn word(&self, wi: usize) -> u64 {
        if wi == 0 {
            self.head
        } else {
            self.tail[wi - 1]
        }
    }

    fn word_mut(&mut self, wi: usize) -> &mut u64 {
        if wi == 0 {
            &mut self.head
        } else {
            &mut self.tail[wi - 1]
        }
    }

    /// Add `id`; a no-op if it is already a member.
    pub(crate) fn insert(&mut self, id: u32) {
        let (w, bit) = (self.word_mut(id as usize / 64), 1u64 << (id % 64));
        if *w & bit == 0 {
            *w |= bit;
            self.len += 1;
        }
    }

    /// Drop `id`; a no-op if it is not a member.
    pub(crate) fn remove(&mut self, id: u32) {
        let (w, bit) = (self.word_mut(id as usize / 64), 1u64 << (id % 64));
        if *w & bit != 0 {
            *w &= !bit;
            self.len -= 1;
        }
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Has the set no members?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let words = std::iter::once(self.head).chain(self.tail.iter().copied());
        words.enumerate().flat_map(|(wi, word)| {
            let base = wi as u32 * 64;
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(base + bit)
            })
        })
    }

    /// The highest member strictly below `hi`, if any.
    pub fn highest_below(&self, hi: u32) -> Option<u32> {
        let hi = (hi as usize).min(self.nwords() * 64);
        if hi == 0 {
            return None;
        }
        let top = hi - 1;
        let mut wi = top / 64;
        // Keep bits 0..=top%64 of the first word scanned.
        let mut word = self.word(wi) & (u64::MAX >> (63 - top % 64));
        loop {
            if word != 0 {
                return Some((wi * 64) as u32 + 63 - word.leading_zeros());
            }
            if wi == 0 {
                return None;
            }
            wi -= 1;
            word = self.word(wi);
        }
    }
}

/// Runtime state of one phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseState {
    /// Tasks not yet finished.
    pub remaining: u32,
    /// Parents all complete → tasks may run.
    pub runnable: bool,
    /// Observed durations of completed copies (feeds speculation and the
    /// AM statistics estimator).
    pub observed: RunningStats,
    /// The phase's tasks in [`TaskStatus::Ready`].
    ready: TaskSet,
    /// The phase's tasks in [`TaskStatus::Running`].
    running: TaskSet,
}

impl PhaseState {
    /// The phase's ready tasks (its share of the schedulable frontier).
    pub fn ready(&self) -> &TaskSet {
        &self.ready
    }

    /// The phase's running tasks (its clone candidates).
    pub fn running(&self) -> &TaskSet {
        &self.running
    }
}

/// A task-status change. [`JobState::transition`] is the only writer of
/// [`TaskState`] status, so the per-phase ready and running sets stay in
/// step with it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transition {
    /// A copy launched: Ready (a primary) or Running (a clone) → Running.
    Launch(TaskId),
    /// The winning copy finished: Running → Done.
    Retire(TaskId),
    /// A crash evicted the last live copy: Running → Ready.
    Requeue(TaskId),
    /// Every parent finished: the whole phase Blocked → Ready.
    Unlock,
}

/// Runtime state of one job inside the engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobState {
    spec: JobSpec,
    /// Pre-drawn per-phase duration tables (paired sampling).
    pub(crate) tables: Vec<Vec<f64>>,
    /// Per-phase runtime state.
    pub(crate) phases: Vec<PhaseState>,
    /// Per-phase, per-task runtime state.
    pub(crate) tasks: Vec<Vec<TaskState>>,
    /// First copy start across the whole job.
    pub(crate) first_start: Option<Time>,
    /// Job completion time.
    pub(crate) finish: Option<Time>,
    /// Accumulated normalized resource usage (Σ normalized demand ×
    /// occupied slots over every copy, clones and killed copies included)
    /// — the §6.3.1 usage metric.
    pub(crate) usage_norm: f64,
    /// Clone copies launched.
    pub(crate) clone_launches: u64,
}

impl JobState {
    /// Instantiate runtime state for a job. Called by the engine when a
    /// job is admitted; public so that control-plane layers (the YARN
    /// simulation) and tests can build job states directly.
    pub fn new(spec: JobSpec, tables: Vec<Vec<f64>>) -> Self {
        let phases: Vec<PhaseState> = spec
            .phases()
            .iter()
            .map(|p| {
                let mut ready = TaskSet::new(p.ntasks);
                if p.parents.is_empty() {
                    ready.fill(p.ntasks);
                }
                PhaseState {
                    remaining: p.ntasks,
                    runnable: p.parents.is_empty(),
                    observed: RunningStats::new(),
                    ready,
                    running: TaskSet::new(p.ntasks),
                }
            })
            .collect();
        let tasks: Vec<Vec<TaskState>> = spec
            .phases()
            .iter()
            .map(|p| {
                (0..p.ntasks)
                    .map(|_| TaskState::new(!p.parents.is_empty()))
                    .collect()
            })
            .collect();
        JobState {
            spec,
            tables,
            phases,
            tasks,
            first_start: None,
            finish: None,
            usage_norm: 0.0,
            clone_launches: 0,
        }
    }

    /// The immutable job description.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// This job's id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Runtime state of one task.
    pub fn task(&self, phase: PhaseId, task: TaskId) -> &TaskState {
        &self.tasks[phase.0 as usize][task.0 as usize]
    }

    /// What launching a copy of a task needs at once: the phase spec and
    /// its duration table (shared) next to the task's state (mutable).
    pub(crate) fn launch_parts(
        &mut self,
        phase: PhaseId,
        task: TaskId,
    ) -> (&PhaseSpec, &[f64], &mut TaskState) {
        let pi = phase.0 as usize;
        (
            self.spec.phase(phase),
            &self.tables[pi],
            &mut self.tasks[pi][task.0 as usize],
        )
    }

    /// Runtime state of one phase.
    pub fn phase_state(&self, phase: PhaseId) -> &PhaseState {
        &self.phases[phase.0 as usize]
    }

    /// Apply one status change to a task (or, for
    /// [`Transition::Unlock`], to a whole phase), keeping the phase's
    /// ready and running sets in step.
    pub(crate) fn transition(&mut self, phase: PhaseId, step: Transition) {
        let pi = phase.0 as usize;
        let st = &mut self.phases[pi];
        let tasks = &mut self.tasks[pi];
        match step {
            Transition::Launch(t) => {
                let task = &mut tasks[t.0 as usize];
                // A clone's launch leaves its Running task as it is.
                if task.status == TaskStatus::Ready {
                    task.status = TaskStatus::Running;
                    st.ready.remove(t.0);
                    st.running.insert(t.0);
                }
                debug_assert_eq!(task.status, TaskStatus::Running);
            }
            Transition::Retire(t) => {
                let task = &mut tasks[t.0 as usize];
                debug_assert_eq!(task.status, TaskStatus::Running);
                task.status = TaskStatus::Done;
                st.running.remove(t.0);
            }
            Transition::Requeue(t) => {
                let task = &mut tasks[t.0 as usize];
                debug_assert_eq!(task.status, TaskStatus::Running);
                task.status = TaskStatus::Ready;
                st.running.remove(t.0);
                st.ready.insert(t.0);
            }
            Transition::Unlock => {
                debug_assert!(!st.runnable);
                st.runnable = true;
                for task in tasks.iter_mut() {
                    debug_assert_eq!(task.status, TaskStatus::Blocked);
                    task.status = TaskStatus::Ready;
                }
                st.ready.fill(tasks.len() as u32);
            }
        }
    }

    /// Do the per-phase ready and running sets hold exactly the tasks a
    /// status filter over every task finds? The engine's debug checks.
    pub(crate) fn index_matches_status(&self) -> bool {
        self.phases.iter().zip(&self.tasks).all(|(st, tasks)| {
            let matches = |set: &TaskSet, status: TaskStatus| {
                let filtered = tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status == status)
                    .map(|(ti, _)| ti as u32);
                set.iter().eq(filtered) && set.len() as usize == set.iter().count()
            };
            matches(&st.ready, TaskStatus::Ready) && matches(&st.running, TaskStatus::Running)
        })
    }

    /// The members of one per-phase set of every phase, in (phase, task)
    /// order.
    fn members(&self, set: fn(&PhaseState) -> &TaskSet) -> impl Iterator<Item = TaskRef> + '_ {
        let job = self.spec.id;
        self.phases
            .iter()
            .enumerate()
            .filter(move |(_, st)| !set(st).is_empty())
            .flat_map(move |(pi, st)| {
                let phase = PhaseId(pi as u32);
                set(st).iter().map(move |ti| TaskRef {
                    job,
                    phase,
                    task: TaskId(ti),
                })
            })
    }

    /// All tasks currently in [`TaskStatus::Ready`], in (phase, task)
    /// order — the schedulable frontier. Allocation-free variant of
    /// [`JobState::ready_tasks`] for hot scheduler loops.
    pub fn iter_ready(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.members(PhaseState::ready)
    }

    /// All tasks currently in [`TaskStatus::Ready`], in (phase, task)
    /// order — the schedulable frontier.
    pub fn ready_tasks(&self) -> Vec<TaskRef> {
        self.iter_ready().collect()
    }

    /// All tasks currently running, in (phase, task) order.
    /// Allocation-free variant of [`JobState::running_tasks`].
    pub fn iter_running(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.members(PhaseState::running)
    }

    /// All tasks currently running (clone candidates), in (phase, task)
    /// order.
    pub fn running_tasks(&self) -> Vec<TaskRef> {
        self.iter_running().collect()
    }

    /// Unfinished task count per phase (`n_j^k(t)` of Eq. 16).
    pub fn remaining_tasks(&self) -> Vec<u32> {
        self.phases.iter().map(|p| p.remaining).collect()
    }

    /// Per-phase completion flags (for Eq. 17).
    pub fn finished_phases(&self) -> Vec<bool> {
        self.phases.iter().map(|p| p.remaining == 0).collect()
    }

    /// Remaining effective volume `v_j(t)` (Eq. 16). Computed directly
    /// from the per-phase remaining counts (same term order as
    /// `JobSpec::remaining_volume`, without materializing the counts).
    pub fn remaining_volume(&self, totals: Resources, sigma_weight: f64) -> f64 {
        self.spec
            .phases()
            .iter()
            .zip(self.phases.iter())
            .map(|(p, st)| {
                st.remaining as f64 * p.effective_time(sigma_weight) * p.dominant_share(totals)
            })
            .sum()
    }

    /// Remaining effective processing time `e_j(t)` (Eq. 17).
    pub fn remaining_etime(&self, sigma_weight: f64) -> f64 {
        self.spec
            .remaining_effective_time(&self.finished_phases(), sigma_weight)
    }

    /// Has every phase completed?
    pub fn is_done(&self) -> bool {
        self.phases.iter().all(|p| p.remaining == 0)
    }

    /// When the job finished, if it has.
    pub fn finish_time(&self) -> Option<Time> {
        self.finish
    }

    /// When the job's first copy started, if any has.
    pub fn first_start(&self) -> Option<Time> {
        self.first_start
    }

    /// Normalized resource usage accumulated so far.
    pub fn usage(&self) -> f64 {
        self.usage_norm
    }

    /// Clone copies launched so far.
    pub fn clone_launches(&self) -> u64 {
        self.clone_launches
    }

    /// Record a completed-copy duration observation for a phase. The
    /// engine calls this when a task's winning copy finishes; exposed for
    /// control-plane layers and tests that replay observations.
    pub fn push_observed(&mut self, phase: PhaseId, duration: f64) {
        self.phases[phase.0 as usize].observed.push(duration);
    }

    /// Completion records of every *finished* task: the server its
    /// winning copy ran on, the phase, the observed winner duration (in
    /// slots) and the phase's mean `θ`. These are past events, so exposing
    /// them to schedulers leaks no future information — they feed the
    /// server-reputation learner (the paper's §8 future work, implemented
    /// in `dollymp-schedulers::learned`).
    pub fn completion_records(&self) -> Vec<(ServerId, PhaseId, f64, f64)> {
        let mut out = Vec::new();
        for (pi, tasks) in self.tasks.iter().enumerate() {
            let theta = self.spec.phase(PhaseId(pi as u32)).theta;
            for t in tasks {
                let (Some(finish), Some(winner)) = (t.finish, t.winner) else {
                    continue;
                };
                if let Some(c) = t.copies.iter().find(|c| c.copy_idx == winner) {
                    out.push((
                        c.server,
                        PhaseId(pi as u32),
                        finish.saturating_sub(c.start) as f64,
                        theta,
                    ));
                }
            }
        }
        out
    }

    /// Number of tasks that ever received a clone copy. (Counted by copy
    /// kind, not launch count: a task re-executed after a crash eviction
    /// launches a second *primary*, which is not cloning.)
    pub fn tasks_cloned(&self) -> u64 {
        self.tasks
            .iter()
            .flatten()
            .filter(|t| t.copies.iter().any(|c| c.kind == CopyKind::Clone))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::job::PhaseSpec;

    fn two_phase_job() -> JobState {
        let spec = JobSpec::chain(
            JobId(1),
            vec![
                PhaseSpec::new(2, Resources::new(1.0, 1.0), 10.0, 0.0),
                PhaseSpec::new(1, Resources::new(1.0, 1.0), 5.0, 0.0),
            ],
        )
        .unwrap();
        let tables = vec![vec![10.0, 10.0], vec![5.0]];
        JobState::new(spec, tables)
    }

    #[test]
    fn initial_frontier_is_root_phase_only() {
        let j = two_phase_job();
        let ready = j.ready_tasks();
        assert_eq!(ready.len(), 2);
        assert!(ready.iter().all(|t| t.phase == PhaseId(0)));
        assert_eq!(j.task(PhaseId(1), TaskId(0)).status, TaskStatus::Blocked);
        assert!(!j.is_done());
        assert_eq!(j.remaining_tasks(), vec![2, 1]);
    }

    #[test]
    fn remaining_metrics_delegate_to_spec() {
        let j = two_phase_job();
        let totals = Resources::new(10.0, 10.0);
        // v = 2·10·0.1 + 1·5·0.1 = 2.5 (w = 0)
        assert!((j.remaining_volume(totals, 0.0) - 2.5).abs() < 1e-12);
        assert!((j.remaining_etime(0.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn copy_counters() {
        let mut j = two_phase_job();
        let t = &mut j.tasks[0][0];
        t.copies.push(CopyState {
            copy_idx: 0,
            server: ServerId(0),
            start: 0,
            finish: 10,
            kind: CopyKind::Primary,
            live: true,
        });
        t.copies.push(CopyState {
            copy_idx: 1,
            server: ServerId(1),
            start: 2,
            finish: 8,
            kind: CopyKind::Clone,
            live: true,
        });
        j.transition(PhaseId(0), Transition::Launch(TaskId(0)));
        assert_eq!(j.task(PhaseId(0), TaskId(0)).live_copies(), 2);
        assert_eq!(j.tasks_cloned(), 1);
        assert_eq!(j.running_tasks().len(), 1);
        assert_eq!(j.task(PhaseId(0), TaskId(0)).copies[1].elapsed(5), 3);
    }

    #[test]
    fn task_set_insert_and_remove_are_idempotent() {
        let mut set = TaskSet::new(130);
        set.insert(5);
        set.insert(5);
        set.insert(129);
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5, 129]);
        set.remove(5);
        set.remove(5);
        set.remove(64); // never a member
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn task_set_over_no_tasks_is_empty() {
        let mut set = TaskSet::new(0);
        set.fill(0);
        assert!(set.is_empty());
        assert_eq!(set.iter().next(), None);
        assert_eq!(set.highest_below(u32::MAX), None);
    }

    #[test]
    fn task_set_fill_covers_exactly_its_ids() {
        for n in [1, 63, 64, 65, 128] {
            let mut set = TaskSet::new(n);
            set.fill(n);
            assert_eq!(set.len(), n);
            assert!(set.iter().eq(0..n), "n = {n}");
            assert_eq!(set.highest_below(u32::MAX), Some(n - 1));
        }
    }

    #[test]
    fn task_set_highest_below_crosses_word_boundaries() {
        let mut set = TaskSet::new(130);
        for id in [63, 64, 65] {
            set.insert(id);
        }
        assert_eq!(set.highest_below(u32::MAX), Some(65));
        assert_eq!(set.highest_below(66), Some(65));
        assert_eq!(set.highest_below(65), Some(64));
        assert_eq!(set.highest_below(64), Some(63));
        assert_eq!(set.highest_below(63), None);
        assert_eq!(set.highest_below(0), None);
        set.remove(64);
        assert_eq!(set.highest_below(65), Some(63));
        set.remove(63);
        assert_eq!(set.highest_below(65), None);
        assert_eq!(set.highest_below(130), Some(65));
    }

    #[test]
    fn transitions_keep_the_index_in_step() {
        let mut j = two_phase_job();
        assert!(j.index_matches_status());
        for t in [TaskId(0), TaskId(1)] {
            j.transition(PhaseId(0), Transition::Launch(t));
        }
        j.transition(PhaseId(0), Transition::Launch(TaskId(1))); // a clone
        j.transition(PhaseId(0), Transition::Requeue(TaskId(0)));
        assert!(j.index_matches_status());
        assert_eq!(j.phase_state(PhaseId(0)).ready().len(), 1);
        assert_eq!(j.running_tasks().len(), 1);
        j.transition(PhaseId(0), Transition::Launch(TaskId(0)));
        for t in [TaskId(0), TaskId(1)] {
            j.transition(PhaseId(0), Transition::Retire(t));
        }
        j.transition(PhaseId(1), Transition::Unlock);
        assert!(j.index_matches_status());
        assert_eq!(j.task(PhaseId(1), TaskId(0)).status(), TaskStatus::Ready);
        assert_eq!(
            j.ready_tasks(),
            vec![TaskRef {
                job: JobId(1),
                phase: PhaseId(1),
                task: TaskId(0),
            }]
        );
    }
}
