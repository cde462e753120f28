//! Runtime state of jobs, phases, tasks and copies inside the simulator.
//!
//! The engine owns and mutates this state; schedulers observe it read-only
//! through [`crate::view::ClusterView`]. Task *copies* (a primary plus up
//! to two clones, §5) are first-class: each copy occupies resources on one
//! server from its start until it finishes or is killed when a sibling
//! finishes first.

use crate::spec::ServerId;
use dollymp_core::job::{JobId, JobSpec, PhaseId, TaskId, TaskRef};
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

/// Arena index that names no copy: the end of a task's copy links.
const NO_COPY: u32 = u32::MAX;

/// One running (or finished/killed) copy of a task. A job keeps all its
/// copies in one arena in launch order; see [`JobState::copies_of`].
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
    /// The phase of the copy's task.
    pub(crate) phase: PhaseId,
    /// The copy's task within its phase.
    pub(crate) task: TaskId,
    /// Arena index of the task's next copy in launch order, or
    /// [`NO_COPY`].
    pub(crate) next: u32,
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

/// Runtime state of one task. Its copies live in the job's copy arena,
/// linked in launch order from `first` to `last`; the counters are kept
/// by `JobState::launch` and `JobState::end_copy`, the only writers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskState {
    /// Current lifecycle stage; written only by [`JobState::transition`].
    status: TaskStatus,
    /// Arena indices of the first and last copy, [`NO_COPY`] before the
    /// first launch.
    pub(crate) first: u32,
    last: u32,
    /// Copies still occupying resources.
    live: u32,
    /// Copies ever launched.
    launched: u32,
    /// Has a clone copy ever launched?
    cloned: bool,
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
            first: NO_COPY,
            last: NO_COPY,
            live: 0,
            launched: 0,
            cloned: false,
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
        self.live
    }

    /// Total copies ever launched.
    pub fn launched_copies(&self) -> u32 {
        self.launched
    }
}

/// A set of task ids of one phase: one bit per task plus the member
/// count. Insert and remove are O(1); ascending iteration costs
/// O(ntasks/64 + members). Ids below 64 are stored inline, so a phase of
/// at most 64 tasks allocates nothing and its bits sit next to the rest
/// of its [`PhaseState`]. [`JobTable`] keeps its active job ranks in one
/// too.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

    /// Is `id` a member?
    pub(crate) fn contains(&self, id: u32) -> bool {
        let wi = id as usize / 64;
        wi < self.nwords() && self.word(wi) & (1u64 << (id % 64)) != 0
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
        let (mut word, mut base, mut rest) = (self.head, 0u32, self.tail.iter());
        std::iter::from_fn(move || {
            while word == 0 {
                word = *rest.next()?;
                base += 64;
            }
            let bit = word.trailing_zeros();
            word &= word - 1;
            Some(base + bit)
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

    /// The lowest member at or above `lo`, if any: the forward cursor
    /// that mirrors [`TaskSet::highest_below`].
    pub fn lowest_at_or_above(&self, lo: u32) -> Option<u32> {
        let mut wi = lo as usize / 64;
        if wi >= self.nwords() {
            return None;
        }
        // Drop bits 0..lo%64 of the first word scanned.
        let mut word = self.word(wi) & (u64::MAX << (lo % 64));
        loop {
            if word != 0 {
                return Some((wi * 64) as u32 + word.trailing_zeros());
            }
            wi += 1;
            if wi == self.nwords() {
                return None;
            }
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
    /// Position of the phase's first task in the job's task list and of
    /// its first entry in the job's duration tables.
    offset: u32,
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

/// Runtime state of one job inside the engine, in a few flat arrays:
/// every task of every phase in one list, every phase's duration table in
/// one list (both indexed from the phase's `offset`), and every copy the
/// job ever launched in one arena, in launch order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobState {
    spec: JobSpec,
    /// Pre-drawn duration tables (paired sampling), one entry per task.
    tables: Vec<f64>,
    /// Per-phase runtime state.
    pub(crate) phases: Vec<PhaseState>,
    /// Per-task runtime state, phase after phase.
    tasks: Vec<TaskState>,
    /// Every copy launched so far, in launch order.
    copies: Vec<CopyState>,
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
    /// Instantiate runtime state for a job. `tables` holds every phase's
    /// duration table in phase order, one entry per task (what
    /// [`crate::execution::DurationSampler::job_tables`] draws). Called by
    /// the engine when a job is admitted; public so that control-plane
    /// layers (the YARN simulation) and tests can build job states
    /// directly.
    ///
    /// # Panics
    /// Panics when `tables` does not hold exactly one entry per task.
    pub fn new(spec: JobSpec, tables: Vec<f64>) -> Self {
        assert_eq!(
            tables.len() as u64,
            spec.total_tasks(),
            "a job's duration tables hold one entry per task"
        );
        let mut offset = 0u32;
        let mut tasks = Vec::with_capacity(tables.len());
        let phases: Vec<PhaseState> = spec
            .phases()
            .iter()
            .map(|p| {
                let root = p.parents.is_empty();
                let mut ready = TaskSet::new(p.ntasks);
                if root {
                    ready.fill(p.ntasks);
                }
                tasks.extend((0..p.ntasks).map(|_| TaskState::new(!root)));
                let st = PhaseState {
                    remaining: p.ntasks,
                    runnable: root,
                    observed: RunningStats::new(),
                    ready,
                    running: TaskSet::new(p.ntasks),
                    offset,
                };
                offset += p.ntasks;
                st
            })
            .collect();
        JobState {
            spec,
            tables,
            phases,
            tasks,
            copies: Vec::new(),
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

    /// The range of a phase's tasks in `tasks` and its entries in
    /// `tables`.
    fn phase_range(&self, phase: PhaseId) -> std::ops::Range<usize> {
        let start = self.phases[phase.0 as usize].offset as usize;
        start..start + self.spec.phase(phase).ntasks as usize
    }

    /// Position of a task in `tasks`.
    ///
    /// # Panics
    /// Panics when the task is outside its phase.
    fn task_index(&self, phase: PhaseId, task: TaskId) -> usize {
        let range = self.phase_range(phase);
        assert!(
            (task.0 as usize) < range.len(),
            "task {} outside phase {} of job {}",
            task.0,
            phase.0,
            self.spec.id.0
        );
        range.start + task.0 as usize
    }

    /// Runtime state of one task.
    pub fn task(&self, phase: PhaseId, task: TaskId) -> &TaskState {
        &self.tasks[self.task_index(phase, task)]
    }

    /// A task's copies, live and dead, in launch order (so `copy_idx`
    /// counts up from 0).
    pub fn copies_of(&self, phase: PhaseId, task: TaskId) -> impl Iterator<Item = &CopyState> + '_ {
        let mut next = self.task(phase, task).first;
        std::iter::from_fn(move || {
            let c = self.copy(next)?;
            next = c.next;
            Some(c)
        })
    }

    /// The copy at arena index `copy`, if there is one.
    pub(crate) fn copy(&self, copy: u32) -> Option<&CopyState> {
        self.copies.get(copy as usize)
    }

    /// A phase's pre-drawn duration table.
    pub(crate) fn table(&self, phase: PhaseId) -> &[f64] {
        &self.tables[self.phase_range(phase)]
    }

    /// Launch a copy of a task at `start` that would finish at `finish`:
    /// append it to the arena and to the task's links, count it, and move
    /// a ready task to running. Returns the copy's arena index.
    pub(crate) fn launch(
        &mut self,
        phase: PhaseId,
        task: TaskId,
        server: ServerId,
        start: Time,
        finish: Time,
        kind: CopyKind,
    ) -> u32 {
        assert!(
            self.copies.len() < NO_COPY as usize,
            "a job's copy arena holds fewer than u32::MAX copies"
        );
        let idx = self.copies.len() as u32;
        let ti = self.task_index(phase, task);
        let t = &mut self.tasks[ti];
        self.copies.push(CopyState {
            copy_idx: t.launched,
            server,
            start,
            finish,
            kind,
            live: true,
            phase,
            task,
            next: NO_COPY,
        });
        match t.last {
            NO_COPY => t.first = idx,
            last => self.copies[last as usize].next = idx,
        }
        t.last = idx;
        t.live += 1;
        t.launched += 1;
        if kind == CopyKind::Clone {
            t.cloned = true;
            self.clone_launches += 1;
        }
        self.transition(phase, Transition::Launch(task));
        self.first_start.get_or_insert(start);
        idx
    }

    /// End the live copy at arena index `copy` (it won, was killed or was
    /// evicted): it stops occupying resources. Returns it.
    pub(crate) fn end_copy(&mut self, copy: u32) -> CopyState {
        let c = &mut self.copies[copy as usize];
        debug_assert!(c.live, "ending a copy that already ended");
        c.live = false;
        let c = *c;
        let ti = self.task_index(c.phase, c.task);
        self.tasks[ti].live -= 1;
        c
    }

    /// Record a task's completion at `at` by its copy `winner` (a
    /// `copy_idx`): Running → Done.
    pub(crate) fn finish_task(&mut self, phase: PhaseId, task: TaskId, at: Time, winner: u32) {
        let ti = self.task_index(phase, task);
        let t = &mut self.tasks[ti];
        t.finish = Some(at);
        t.winner = Some(winner);
        self.transition(phase, Transition::Retire(task));
    }

    /// Move the live copy at arena index `copy` to a new finish slot (a
    /// fail-slow stretch).
    pub(crate) fn set_finish(&mut self, copy: u32, finish: Time) {
        self.copies[copy as usize].finish = finish;
    }

    /// Runtime state of one phase.
    pub fn phase_state(&self, phase: PhaseId) -> &PhaseState {
        &self.phases[phase.0 as usize]
    }

    /// Apply one status change to a task (or, for
    /// [`Transition::Unlock`], to a whole phase), keeping the phase's
    /// ready and running sets in step.
    pub(crate) fn transition(&mut self, phase: PhaseId, step: Transition) {
        let range = self.phase_range(phase);
        let st = &mut self.phases[phase.0 as usize];
        let tasks = &mut self.tasks[range];
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
        (0..self.phases.len()).all(|pi| {
            let phase = PhaseId(pi as u32);
            let (st, tasks) = (&self.phases[pi], &self.tasks[self.phase_range(phase)]);
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

    /// Does walking each task's links visit exactly its copies, with
    /// `copy_idx` counting 0, 1, 2, …, and every arena copy once, and do
    /// the task's live, launched and cloned counters (and its running
    /// status) match that walk? The engine's debug checks.
    ///
    /// A walk only accepts copies that name its task, and a revisit would
    /// repeat a smaller `copy_idx`, so no copy is visited twice; the
    /// walks then cover the arena when their lengths add up to its size.
    pub(crate) fn copies_match_links(&self) -> bool {
        let mut visited = 0usize;
        let tasks_agree = (0..self.phases.len()).all(|pi| {
            let phase = PhaseId(pi as u32);
            let range = self.phase_range(phase);
            self.tasks[range].iter().enumerate().all(|(ti, t)| {
                let (mut launched, mut live, mut cloned, mut last) = (0u32, 0u32, false, NO_COPY);
                let mut next = t.first;
                while let Some(c) = self.copy(next) {
                    if c.copy_idx != launched || (c.phase, c.task) != (phase, TaskId(ti as u32)) {
                        return false;
                    }
                    launched += 1;
                    live += u32::from(c.live);
                    cloned |= c.kind == CopyKind::Clone;
                    last = next;
                    next = c.next;
                }
                visited += launched as usize;
                next == NO_COPY
                    && last == t.last
                    && (launched, live, cloned) == (t.launched, t.live, t.cloned)
                    && (t.status == TaskStatus::Running) == (live > 0)
            })
        });
        tasks_agree && visited == self.copies.len()
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
    /// order — the schedulable frontier.
    pub fn iter_ready(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.members(PhaseState::ready)
    }

    /// All tasks currently running (clone candidates), in (phase, task)
    /// order.
    pub fn iter_running(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.members(PhaseState::running)
    }

    /// Remaining effective volume `v_j(t)` (Eq. 16): like
    /// [`JobSpec::volume`] but over the unfinished phases only, in index
    /// order, with each phase's unfinished task count and `etime(p)` as
    /// its effective time.
    pub fn remaining_volume(&self, totals: Resources, etime: impl Fn(PhaseId) -> f64) -> f64 {
        let mut volume = 0.0;
        for (pi, (p, st)) in self.spec.phases().iter().zip(&self.phases).enumerate() {
            if st.remaining > 0 {
                let e = etime(PhaseId(pi as u32));
                volume += st.remaining as f64 * e * p.dominant_share(totals);
            }
        }
        volume
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
        for (pi, p) in self.spec.phases().iter().enumerate() {
            let phase = PhaseId(pi as u32);
            for ti in 0..p.ntasks {
                let t = self.task(phase, TaskId(ti));
                let (Some(finish), Some(winner)) = (t.finish, t.winner) else {
                    continue;
                };
                if let Some(c) = self
                    .copies_of(phase, TaskId(ti))
                    .find(|c| c.copy_idx == winner)
                {
                    out.push((
                        c.server,
                        phase,
                        finish.saturating_sub(c.start) as f64,
                        p.theta,
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
        self.tasks.iter().filter(|t| t.cloned).count() as u64
    }
}

/// Slot of a rank whose job is not active.
const NO_SLOT: u32 = u32::MAX;

/// The active jobs of a run, keyed by [`JobId`]: the engine's job map,
/// which every [`crate::view::ClusterView`] borrows.
///
/// A table holds jobs from a fixed *universe* of ids, for the engine every
/// job of the run. A job's *rank* is its id's position in the sorted
/// universe. Jobs sit in a slab in insertion order; a per-rank slot array
/// finds a job in it, and a [`TaskSet`] of active ranks yields the jobs in
/// ascending id order. A lookup costs one compare when the universe is a
/// contiguous id range (every workload generator assigns ids `0..n`) and
/// a binary search otherwise.
///
/// Removal only vacates the job's slot, so the slab keeps insertion
/// order. When jobs arrive in id order, as every generator's do, the
/// ascending-id walk of every scheduler pass reads the slab front to
/// back; filling holes with
/// `swap_remove` instead scatters that walk, which slows passes over a
/// deep job queue. Vacated slots are reclaimed by an in-order compaction
/// when the slab is full and at least a quarter of it is vacated, so
/// insert and remove cost amortized O(1) past the lookup, and the slab
/// only grows while three quarters of it hold active jobs.
#[derive(Debug, Clone, Default)]
pub struct JobTable {
    /// The universe, sorted and deduplicated: rank → id.
    ids: Vec<JobId>,
    /// Rank → slab slot, [`NO_SLOT`] while the job is not active.
    slot_of: Vec<u32>,
    /// The jobs in insertion order; `None` marks a vacated slot.
    slab: Vec<Option<JobState>>,
    /// Slab slot → rank (stale for a vacated slot).
    rank_of: Vec<u32>,
    /// The active ranks.
    present: TaskSet,
}

impl JobTable {
    /// An empty table over the universe `ids` (duplicates are ignored).
    ///
    /// # Panics
    /// Panics when `ids` holds `u32::MAX` or more distinct ids.
    pub(crate) fn with_ids(ids: impl IntoIterator<Item = JobId>) -> Self {
        let mut ids: Vec<JobId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() < NO_SLOT as usize,
            "too many job ids for one table"
        );
        let n = ids.len() as u32;
        JobTable {
            slot_of: vec![NO_SLOT; ids.len()],
            ids,
            slab: Vec::new(),
            rank_of: Vec::new(),
            present: TaskSet::new(n),
        }
    }

    /// The rank of `id`, if it is in the universe.
    fn rank(&self, id: JobId) -> Option<usize> {
        // With ids `first..first + n` the offset is the rank; the compare
        // confirms it (and rejects any truncated guess).
        let guess = id.0.wrapping_sub(self.ids.first()?.0) as usize;
        if self.ids.get(guess) == Some(&id) {
            return Some(guess);
        }
        self.ids.binary_search(&id).ok()
    }

    /// The slab slot of an active job.
    fn slot(&self, id: JobId) -> Option<usize> {
        let slot = self.slot_of[self.rank(id)?];
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The active job `id`, if any.
    pub fn get(&self, id: JobId) -> Option<&JobState> {
        self.slab[self.slot(id)?].as_ref()
    }

    /// The active job `id`, mutably, if any.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut JobState> {
        let s = self.slot(id)?;
        self.slab[s].as_mut()
    }

    /// Is job `id` active?
    pub fn contains_key(&self, id: JobId) -> bool {
        self.slot(id).is_some()
    }

    /// Make `job` active. Returns the active job with the same id that it
    /// replaces, if there was one.
    ///
    /// # Panics
    /// Panics when the job's id is outside the table's universe.
    pub fn insert(&mut self, job: JobState) -> Option<JobState> {
        let id = job.id();
        let Some(rank) = self.rank(id) else {
            panic!("job {} is outside the job table's id universe", id.0);
        };
        if self.slot_of[rank] != NO_SLOT {
            return self.slab[self.slot_of[rank] as usize].replace(job);
        }
        // A full slab reuses its vacated slots instead of growing once a
        // quarter of it is vacated: that many removals pay for the pass.
        let vacated = self.slab.len() - self.len();
        if self.slab.len() == self.slab.capacity() && vacated > 0 && 4 * vacated >= self.slab.len()
        {
            self.compact();
        }
        self.slot_of[rank] = self.slab.len() as u32;
        self.slab.push(Some(job));
        self.rank_of.push(rank as u32);
        self.present.insert(rank as u32);
        None
    }

    /// Deactivate job `id` and hand back its state, if it was active. The
    /// id stays in the universe, so the job may be inserted again.
    pub fn remove(&mut self, id: JobId) -> Option<JobState> {
        let rank = self.rank(id)?;
        let slot = std::mem::replace(&mut self.slot_of[rank], NO_SLOT);
        if slot == NO_SLOT {
            return None;
        }
        self.present.remove(rank as u32);
        let job = self.slab[slot as usize].take();
        // Vacated slots at the end go at once.
        while let Some(None) = self.slab.last() {
            self.slab.pop();
            self.rank_of.pop();
        }
        job
    }

    /// Drop the vacated slots, keeping the jobs in insertion order.
    fn compact(&mut self) {
        let mut kept = 0;
        for slot in 0..self.slab.len() {
            if self.slab[slot].is_some() {
                self.slab.swap(kept, slot);
                self.rank_of[kept] = self.rank_of[slot];
                self.slot_of[self.rank_of[kept] as usize] = kept as u32;
                kept += 1;
            }
        }
        self.slab.truncate(kept);
        self.rank_of.truncate(kept);
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.present.len() as usize
    }

    /// Is no job active?
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// The active jobs in ascending [`JobId`] order.
    pub fn values(&self) -> impl Iterator<Item = &JobState> + '_ {
        self.present
            .iter()
            .filter_map(|r| self.slab[self.slot_of[r as usize] as usize].as_ref())
    }

    /// The active job ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = JobId> + '_ {
        self.present.iter().map(|r| self.ids[r as usize])
    }

    /// Do the rank → slot and slot → rank maps invert each other, hold
    /// each job under its own id, match the active-rank set, and leave
    /// every other slot vacated? The engine's debug checks.
    pub(crate) fn is_consistent(&self) -> bool {
        let ranks_agree = self.slot_of.iter().enumerate().all(|(rank, &slot)| {
            let active = slot != NO_SLOT;
            self.present.contains(rank as u32) == active
                && (!active
                    || (self.rank_of.get(slot as usize) == Some(&(rank as u32))
                        && self
                            .slab
                            .get(slot as usize)
                            .and_then(|j| j.as_ref().map(JobState::id))
                            == Some(self.ids[rank])))
        });
        ranks_agree
            && self.rank_of.len() == self.slab.len()
            && self.slab.iter().flatten().count() == self.len()
            && self.present.iter().count() == self.len()
            && !matches!(self.slab.last(), Some(None))
    }
}

impl FromIterator<JobState> for JobTable {
    /// A table over exactly the collected jobs' ids, all active; a later
    /// job replaces an earlier one with the same id.
    fn from_iter<I: IntoIterator<Item = JobState>>(iter: I) -> Self {
        let jobs: Vec<JobState> = iter.into_iter().collect();
        let mut table = JobTable::with_ids(jobs.iter().map(JobState::id));
        for job in jobs {
            table.insert(job);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::job::PhaseSpec;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn two_phase_job() -> JobState {
        let spec = JobSpec::chain(
            JobId(1),
            vec![
                PhaseSpec::new(2, Resources::new(1.0, 1.0), 10.0, 0.0),
                PhaseSpec::new(1, Resources::new(1.0, 1.0), 5.0, 0.0),
            ],
        )
        .unwrap();
        JobState::new(spec, vec![10.0, 10.0, 5.0])
    }

    #[test]
    fn initial_frontier_is_root_phase_only() {
        let j = two_phase_job();
        let ready: Vec<TaskRef> = j.iter_ready().collect();
        assert_eq!(ready.len(), 2);
        assert!(ready.iter().all(|t| t.phase == PhaseId(0)));
        assert_eq!(j.task(PhaseId(1), TaskId(0)).status, TaskStatus::Blocked);
        assert!(!j.is_done());
        let remaining = |p| j.phase_state(PhaseId(p)).remaining;
        assert_eq!((remaining(0), remaining(1)), (2, 1));
    }

    #[test]
    fn remaining_metrics_delegate_to_spec() {
        let j = two_phase_job();
        let totals = Resources::new(10.0, 10.0);
        let etime = |p| j.spec().phase(p).effective_time(0.0);
        // v = 2·10·0.1 + 1·5·0.1 = 2.5 (w = 0)
        assert!((j.remaining_volume(totals, etime) - 2.5).abs() < 1e-12);
        assert!((j.spec().remaining_effective_time(etime) - 15.0).abs() < 1e-12);
    }

    /// Seeded chains: the remaining volume starts at the full volume
    /// (Eq. 14), never grows as tasks finish, and ends at zero.
    #[test]
    fn remaining_volume_is_monotone() {
        let totals = Resources::new(100.0, 200.0);
        let mut rng = SmallRng::seed_from_u64(16);
        for _ in 0..64 {
            let phases: Vec<PhaseSpec> = (0..rng.gen_range(1..8))
                .map(|_| {
                    let demand = Resources::new(rng.gen_range(0.5..4.0), rng.gen_range(0.5..8.0));
                    PhaseSpec::new(
                        rng.gen_range(1..6),
                        demand,
                        rng.gen_range(0.5..50.0),
                        rng.gen_range(0.0..20.0),
                    )
                })
                .collect();
            let spec = JobSpec::chain(JobId(0), phases).expect("a chain is acyclic");
            let ntasks = spec.phases().iter().map(|p| p.ntasks as usize).sum();
            let full = spec.volume(totals, 1.5);
            let mut job = JobState::new(spec, vec![1.0; ntasks]);
            let volume = |j: &JobState| {
                j.remaining_volume(totals, |p| j.spec().phase(p).effective_time(1.5))
            };
            let mut last = volume(&job);
            assert!((full - last).abs() < 1e-9);
            for pi in 0..job.phases.len() {
                while job.phases[pi].remaining > 0 {
                    job.phases[pi].remaining -= 1;
                    let v = volume(&job);
                    assert!(v <= last + 1e-9, "remaining volume grew");
                    last = v;
                }
            }
            assert!(last.abs() < 1e-9, "all finished ⇒ zero volume");
        }
    }

    #[test]
    fn copy_counters() {
        let mut j = two_phase_job();
        let (p, t) = (PhaseId(0), TaskId(0));
        let primary = j.launch(p, t, ServerId(0), 0, 10, CopyKind::Primary);
        let clone = j.launch(p, t, ServerId(1), 2, 8, CopyKind::Clone);
        assert_eq!((primary, clone), (0, 1));
        assert_eq!(j.task(p, t).live_copies(), 2);
        assert_eq!(j.tasks_cloned(), 1);
        assert_eq!(j.iter_running().count(), 1);
        assert_eq!(j.copies_of(p, t).nth(1).map(|c| c.elapsed(5)), Some(3));
        assert!(j.copies_match_links());
    }

    #[test]
    fn copy_links_survive_interleaved_launches_and_ends() {
        let mut j = two_phase_job();
        let (p, t0, t1) = (PhaseId(0), TaskId(0), TaskId(1));
        let a = j.launch(p, t0, ServerId(0), 0, 10, CopyKind::Primary);
        j.launch(p, t1, ServerId(1), 0, 10, CopyKind::Primary);
        // A crash evicts task 0's only copy; its re-run is copy 1.
        j.end_copy(a);
        j.transition(p, Transition::Requeue(t0));
        assert_eq!(j.task(p, t0).live_copies(), 0);
        j.launch(p, t0, ServerId(2), 4, 14, CopyKind::Primary);
        j.launch(p, t1, ServerId(3), 5, 9, CopyKind::Clone);
        assert!(j.copies_match_links());
        let servers = |t| {
            j.copies_of(p, t)
                .map(|c| (c.copy_idx, c.server.0, c.is_live()))
        };
        assert!(servers(t0).eq([(0, 0, false), (1, 2, true)]));
        assert!(servers(t1).eq([(0, 1, true), (1, 3, true)]));
        assert_eq!(
            (j.task(p, t0).launched_copies(), j.task(p, t1).live_copies()),
            (2, 2)
        );
        assert_eq!(j.tasks_cloned(), 1);
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
    fn task_set_lowest_at_or_above_crosses_word_boundaries() {
        let empty = TaskSet::new(130);
        assert_eq!(empty.lowest_at_or_above(0), None);
        assert_eq!(empty.lowest_at_or_above(127), None);
        let mut set = TaskSet::new(130);
        for id in [63, 64, 65, 127] {
            set.insert(id);
        }
        assert_eq!(set.lowest_at_or_above(0), Some(63));
        assert_eq!(set.lowest_at_or_above(63), Some(63));
        assert_eq!(set.lowest_at_or_above(64), Some(64));
        assert_eq!(set.lowest_at_or_above(65), Some(65));
        assert_eq!(set.lowest_at_or_above(66), Some(127));
        assert_eq!(set.lowest_at_or_above(127), Some(127));
        assert_eq!(set.lowest_at_or_above(128), None);
        // Past the last word (130 ids take three words).
        assert_eq!(set.lowest_at_or_above(192), None);
        assert_eq!(set.lowest_at_or_above(u32::MAX), None);
        set.remove(64);
        assert_eq!(set.lowest_at_or_above(64), Some(65));
        set.remove(65);
        assert_eq!(set.lowest_at_or_above(64), Some(127));
        assert_eq!(TaskSet::new(0).lowest_at_or_above(0), None);
    }

    #[test]
    fn task_set_lowest_at_or_above_matches_a_btree_range() {
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..200 {
            let n = rng.gen_range(0..=200u32);
            let mut set = TaskSet::new(n);
            let mut reference = std::collections::BTreeSet::new();
            for id in 0..n {
                if rng.gen_range(0..4) == 0 {
                    set.insert(id);
                    reference.insert(id);
                }
            }
            for lo in 0..=n + 64 {
                let expected = reference.range(lo..).next().copied();
                assert_eq!(set.lowest_at_or_above(lo), expected, "n = {n}, lo = {lo}");
            }
        }
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
        assert_eq!(j.iter_running().count(), 1);
        j.transition(PhaseId(0), Transition::Launch(TaskId(0)));
        for t in [TaskId(0), TaskId(1)] {
            j.transition(PhaseId(0), Transition::Retire(t));
        }
        j.transition(PhaseId(1), Transition::Unlock);
        assert!(j.index_matches_status());
        assert_eq!(j.task(PhaseId(1), TaskId(0)).status(), TaskStatus::Ready);
        assert_eq!(
            j.iter_ready().collect::<Vec<_>>(),
            vec![TaskRef {
                job: JobId(1),
                phase: PhaseId(1),
                task: TaskId(0),
            }]
        );
    }

    /// A one-task job state with id `id`, tagged with `tag` as its usage
    /// so that a replaced or re-inserted state is told apart.
    fn tagged_job(id: JobId, tag: f64) -> JobState {
        let spec = JobSpec::single_phase(id, 1, Resources::new(1.0, 1.0), 1.0, 0.0);
        let mut job = JobState::new(spec, vec![1.0]);
        job.usage_norm = tag;
        job
    }

    /// Seeded insert/remove/mutate sequences over contiguous ids, sparse
    /// ids and ids near `u64::MAX`, checked step by step against a
    /// `BTreeMap` model.
    #[test]
    fn job_table_agrees_with_a_btree_map_model() {
        let universes: [Vec<u64>; 4] = [
            (0..150).collect(),
            (0..150).map(|i| i * i * 7919 + 3).collect(),
            (0..150).map(|i| u64::MAX - 3 * i).collect(),
            (u64::MAX - 149..=u64::MAX).collect(),
        ];
        for (seed, universe) in universes.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(seed as u64);
            let ids: Vec<JobId> = universe.iter().map(|&i| JobId(i)).collect();
            let unknown: Vec<JobId> = [0, 1, 4, 150, 7919, u64::MAX / 2, u64::MAX - 1, u64::MAX]
                .into_iter()
                .map(JobId)
                .filter(|id| !ids.contains(id))
                .collect();
            assert!(!unknown.is_empty());
            // Duplicates in the universe are ignored.
            let mut table = JobTable::with_ids(ids.iter().chain(&ids[..10]).copied());
            let mut model: BTreeMap<JobId, JobState> = BTreeMap::new();
            for step in 0..2000 {
                let id = ids[rng.gen_range(0..ids.len())];
                let tag = step as f64;
                let usage = |j: JobState| j.usage();
                match rng.gen_range(0..10) {
                    0..=4 => assert_eq!(
                        table.insert(tagged_job(id, tag)).map(usage),
                        model.insert(id, tagged_job(id, tag)).map(usage)
                    ),
                    5..=8 => assert_eq!(table.remove(id).map(usage), model.remove(&id).map(usage)),
                    _ => {
                        // Mutate through both; the checks below compare.
                        for job in [table.get_mut(id), model.get_mut(&id)]
                            .into_iter()
                            .flatten()
                        {
                            job.usage_norm += 0.5;
                        }
                    }
                }
                assert!(table.is_consistent(), "step {step}");
                assert_eq!(table.len(), model.len());
                assert_eq!(table.is_empty(), model.is_empty());
                for &id in &ids {
                    assert_eq!(table.contains_key(id), model.contains_key(&id));
                    assert_eq!(
                        table.get(id).map(|j| (j.id(), j.usage())),
                        model.get(&id).map(|j| (j.id(), j.usage()))
                    );
                }
                assert!(table.keys().eq(model.keys().copied()));
                assert!(table
                    .values()
                    .map(|j| (j.id(), j.usage()))
                    .eq(model.values().map(|j| (j.id(), j.usage()))));
                for &id in &unknown {
                    assert!(table.get(id).is_none() && !table.contains_key(id));
                    assert!(table.get_mut(id).is_none() && table.remove(id).is_none());
                }
            }
        }
    }

    #[test]
    fn job_table_readmits_a_removed_id() {
        let mut table = JobTable::with_ids([JobId(4), JobId(9), JobId(2)]);
        for id in [JobId(9), JobId(2), JobId(4)] {
            assert!(table.insert(tagged_job(id, 1.0)).is_none());
        }
        // Removing the first slot only vacates it.
        assert_eq!(table.remove(JobId(9)).map(|j| j.id()), Some(JobId(9)));
        assert!(table.remove(JobId(9)).is_none());
        assert!(table.insert(tagged_job(JobId(9), 2.0)).is_none());
        assert!(table.is_consistent());
        let listed: Vec<(JobId, f64)> = table.values().map(|j| (j.id(), j.usage())).collect();
        assert_eq!(listed, [(JobId(2), 1.0), (JobId(4), 1.0), (JobId(9), 2.0)]);
    }

    /// Insert 0..8, remove every odd id, then insert again until the
    /// full slab compacts: the survivors keep their insertion order.
    #[test]
    fn job_table_compacts_in_insertion_order() {
        let mut table = JobTable::with_ids((0..64).map(JobId));
        for id in 0..8 {
            table.insert(tagged_job(JobId(id), 0.0));
        }
        for id in [1, 3, 5, 7] {
            table.remove(JobId(id));
        }
        // The trailing vacated slot of job 7 is dropped at once.
        assert_eq!(table.slab.len(), 7);
        let cap = table.slab.capacity();
        for id in 8..8 + (cap as u64 - 7) + 1 {
            table.insert(tagged_job(JobId(id), 0.0));
        }
        assert!(table.is_consistent());
        assert_eq!(table.slab.capacity(), cap, "compacted instead of growing");
        let slab_order: Vec<u64> = table.slab.iter().flatten().map(|j| j.id().0).collect();
        let expected: Vec<u64> = [0, 2, 4, 6]
            .into_iter()
            .chain(8..8 + (cap as u64 - 7) + 1)
            .collect();
        assert_eq!(slab_order, expected);
        assert!(table.keys().eq(expected.iter().map(|&i| JobId(i))));
    }

    #[test]
    #[should_panic(expected = "outside the job table's id universe")]
    fn job_table_rejects_an_id_outside_its_universe() {
        let mut table = JobTable::with_ids([JobId(0), JobId(1)]);
        table.insert(tagged_job(JobId(u64::MAX), 0.0));
    }

    #[test]
    fn job_table_collects_with_later_duplicates_winning() {
        let table: JobTable = [(7, 1.0), (3, 1.0), (7, 2.0)]
            .into_iter()
            .map(|(id, tag)| tagged_job(JobId(id), tag))
            .collect();
        let listed: Vec<(JobId, f64)> = table.values().map(|j| (j.id(), j.usage())).collect();
        assert_eq!(listed, [(JobId(3), 1.0), (JobId(7), 2.0)]);
        assert!(JobTable::default().is_empty());
        assert!(JobTable::default().get(JobId(0)).is_none());
    }
}
