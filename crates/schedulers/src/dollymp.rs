//! The DollyMP scheduler — Algorithm 2 of the paper.
//!
//! After a job arrival (or a crash-induced task loss), the priorities of
//! *all* unfinished jobs are recomputed by the transient Algorithm 1 over
//! their remaining volumes and critical paths (Eq. 16/17), and the
//! resulting job order is stored; between arrivals it is frozen (§5: "the
//! scheduling order of all jobs in the cluster won't be updated until the
//! next job arrival"), and each pass walks it, skipping jobs that have
//! finished since. The hooks only mark the order stale: the simulator is
//! slotted (§6.3), so every arrival of a slot is acted on at that slot's
//! decision point, and Algorithm 1 runs once there, over the slot's final
//! state.
//!
//! At each decision point the scheduler then:
//!
//! 1. **Primary pass** — per server, repeatedly pick the highest-priority
//!    level that has a fitting ready task and, within the level, the task
//!    with the best Tetris alignment (`R·c` inner product, Algorithm 2
//!    step 12);
//! 2. **Clone pass** — with the leftover resources, walk tasks of jobs
//!    in the same priority order and give each *running* task of a
//!    clone-eligible (small, §4.1-gated) job that holds fewer than
//!    `max_copies` copies one extra copy. Algorithm 2 repeats this step
//!    twice, but a task gets at most one new clone per decision point,
//!    and under that rule the second round can place nothing (DESIGN §4
//!    item 8), so the pass runs once.
//!
//! The statistics of both steps (Algorithm 1's inputs and the §4.1
//! gate's remaining volumes) are assembled from one [`JobStatistics`]
//! source's per-phase `(θ, σ)`: the [`Oracle`] reads the true ones from
//! each job's spec, and the YARN control plane passes its Application
//! Masters' estimates. The assembly and the pass are the same for both.

use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, PhaseId, TaskId, TaskRef};
use dollymp_core::online::{best_fit_score, ClonePolicy, PriorityOrder};
use dollymp_core::resources::Resources;
use dollymp_core::transient::TransientJob;

/// Where DollyMP reads its per-phase statistics from. A source supplies
/// one fact per phase, its `(θ, σ)`; the provided methods assemble
/// Algorithm 1's inputs and the §4.1 gate's remaining volumes from it, the
/// same way for every source, and the pass itself is the same too.
pub trait JobStatistics {
    /// `(θ, σ)`: the mean and standard deviation of the durations of
    /// `phase`'s tasks.
    fn phase_stats(&self, job: &JobState, phase: PhaseId) -> (f64, f64);

    /// Effective time `θ + w·σ` (§5) of `phase`, or 0 once it finished.
    fn effective_time(&self, job: &JobState, phase: PhaseId, sigma_weight: f64) -> f64 {
        if job.phase_state(phase).remaining == 0 {
            return 0.0;
        }
        let (theta, sigma) = self.phase_stats(job, phase);
        theta + sigma_weight * sigma
    }

    /// The job's remaining volume (Eq. 16), as the §4.1 gate reads it.
    fn remaining_volume(&self, job: &JobState, totals: Resources, sigma_weight: f64) -> f64 {
        job.remaining_volume(totals, |p| self.effective_time(job, p, sigma_weight))
    }

    /// The job's remaining critical path (Eq. 17).
    fn remaining_etime(&self, job: &JobState, sigma_weight: f64) -> f64 {
        job.spec()
            .remaining_effective_time(|p| self.effective_time(job, p, sigma_weight))
    }

    /// Algorithm 1's input for one job: its remaining volume and
    /// remaining critical path, and its largest dominant share.
    fn transient_job(&self, job: &JobState, totals: Resources, sigma_weight: f64) -> TransientJob {
        TransientJob {
            id: job.id(),
            volume: self.remaining_volume(job, totals, sigma_weight),
            etime: self.remaining_etime(job, sigma_weight),
            dominant: job.spec().max_dominant_share(totals),
        }
    }
}

/// The simulator's oracle: each phase's true `(θ, σ)`, read from the
/// job's spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle;

impl JobStatistics for Oracle {
    fn phase_stats(&self, job: &JobState, phase: PhaseId) -> (f64, f64) {
        let p = job.spec().phase(phase);
        (p.theta, p.sigma)
    }
}

/// One (job, distinct-demand) bucket of ready tasks: the ready tasks of
/// every phase of `job` with this demand, `len` of them not yet placed.
/// They are consumed LIFO in (phase, task) order (mirroring the
/// historical `Vec::pop`): the highest ready id below `below` of `phase`,
/// the highest phase that still has some, then the next lower phase of
/// the same demand.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    demand: Resources,
    job: JobId,
    phase: PhaseId,
    below: u32,
    len: u32,
}

impl Bucket {
    /// Take the bucket's next task from its job's state. The view is
    /// immutable during the pass, so the phase's ready set is walked
    /// downwards from `below`.
    fn pop(&mut self, job: &JobState) -> TaskRef {
        debug_assert!(self.len > 0 && job.id() == self.job);
        self.len -= 1;
        loop {
            let ready = job.phase_state(self.phase).ready();
            if let Some(task) = ready.highest_below(self.below) {
                self.below = task;
                return TaskRef {
                    job: self.job,
                    phase: self.phase,
                    task: TaskId(task),
                };
            }
            // `len` counts the members still below, so a lower phase of
            // this demand has some.
            let lower = (0..self.phase.0)
                .rev()
                .map(PhaseId)
                .find(|&p| {
                    job.spec().phase(p).demand == self.demand
                        && !job.phase_state(p).ready().is_empty()
                })
                .expect("bucket count covers its phases");
            self.phase = lower;
            self.below = u32::MAX;
        }
    }
}

/// A FIFO of the primary pass's buckets sharing one demand vector;
/// bucket indices live in a scratch entry arena at `[head, end)` and are
/// consumed by advancing `head`.
#[derive(Debug, Clone, Copy)]
struct DemandQueue {
    demand: Resources,
    head: u32,
    end: u32,
}

/// No run: the end of a [`CloneQueue`]'s run list.
const NO_RUN: u32 = u32::MAX;
/// A [`CloneQueue`] whose head is not resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// One run of clone candidates, in the clone pass's candidate order:
/// the running tasks of one phase of a gated job in ascending id order,
/// or one primary of this batch alone. Runs are pushed in global
/// candidate order, so the run index orders candidates across queues.
#[derive(Debug, Clone, Copy)]
struct CloneRun {
    job: JobId,
    phase: PhaseId,
    /// `None`: the phase's running tasks; `Some(t)`: this batch's
    /// primary `t`.
    primary: Option<u32>,
    /// The next run of the same demand, or [`NO_RUN`].
    next: u32,
}

/// The clone candidates of one demand, read lazily: a linked list of
/// [`CloneRun`]s and a cursor into it. The head is resolved only when a
/// server has room for `demand`, and stays cached until it is consumed;
/// the view is frozen during the pass, so a resolved head stays valid.
#[derive(Debug, Clone, Copy)]
struct CloneQueue {
    demand: Resources,
    /// The run holding the head, or [`NO_RUN`] once exhausted.
    run: u32,
    /// Tasks of `run` below this id are consumed or saturated.
    from: u32,
    /// The head's task id, or [`UNRESOLVED`].
    head: u32,
    /// The last run of the list (where the next one is linked).
    tail: u32,
}

impl CloneQueue {
    /// Resolve the head: the first task at or after the cursor that is
    /// running with fewer than `max_copies` copies (a primary run's task
    /// always qualifies). Returns `false` once the queue is exhausted.
    fn resolve(&mut self, runs: &[CloneRun], view: &ClusterView<'_>, max_copies: u32) -> bool {
        if self.head != UNRESOLVED {
            return true;
        }
        while self.run != NO_RUN {
            let r = runs[self.run as usize];
            match r.primary {
                Some(t) if self.from <= t => {
                    self.head = t;
                    return true;
                }
                Some(_) => {}
                None => {
                    let j = view.job(r.job).expect("gated jobs are in the view");
                    let running = j.phase_state(r.phase).running();
                    while let Some(t) = running.lowest_at_or_above(self.from) {
                        if j.task(r.phase, TaskId(t)).live_copies() < max_copies {
                            self.head = t;
                            return true;
                        }
                        self.from = t + 1;
                    }
                }
            }
            debug_assert!(r.next > self.run, "a queue's runs ascend");
            self.run = r.next;
            self.from = 0;
        }
        false
    }
}

/// What a pass's pick did with the server it was offered.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Placed a request of this demand; offer the server again.
    Place(Resources),
    /// Nothing left fits this server; go on to the next one.
    Leave,
    /// Nothing is left to place anywhere; end the walk.
    Stop,
}

/// Iterates the servers of one placement walk: either a caller-supplied
/// explicit order (every listed server is visited), or the identity
/// order driven by the capacity index, whose `next_fit_at_or_after`
/// skips servers that cannot even hold `min_demand` in O(log n) per hop.
/// The two modes visit exactly the same fitting servers in the same
/// order, since a server without room for the smallest demand can never
/// receive a placement.
enum ServerWalk<'o> {
    Identity { cursor: usize },
    Custom { order: &'o [ServerId], next: usize },
}

impl<'o> ServerWalk<'o> {
    fn new(order: Option<&'o [ServerId]>) -> Self {
        match order {
            None => ServerWalk::Identity { cursor: 0 },
            Some(order) => ServerWalk::Custom { order, next: 0 },
        }
    }

    fn next(&mut self, free: &CapacityOverlay, min_demand: Resources) -> Option<ServerId> {
        match self {
            ServerWalk::Identity { cursor } => {
                let sv = free.next_fit_at_or_after(*cursor, min_demand)?;
                *cursor = sv.0 as usize + 1;
                Some(sv)
            }
            ServerWalk::Custom { order, next } => {
                let sv = *order.get(*next)?;
                *next += 1;
                Some(sv)
            }
        }
    }
}

/// The server-driven placement walk shared by the primary and clone
/// passes (the RM hands free capacity to requests as heartbeats come in).
/// Each visited server's free capacity goes to `pick` until it answers
/// [`Step::Leave`] (the walk moves to the next server) or [`Step::Stop`]
/// (the walk ends). A server's placements accumulate locally and commit
/// to the capacity index once, on leaving it, since the index is only
/// queried again for the next server. `min_demand` is a component-wise
/// lower bound on every request: a server without room for it is left
/// at once.
fn walk_servers(
    order: Option<&[ServerId]>,
    free: &CapacityOverlay,
    min_demand: Resources,
    mut pick: impl FnMut(ServerId, Resources) -> Step,
) {
    let mut walk = ServerWalk::new(order);
    while let Some(server) = walk.next(free, min_demand) {
        let mut avail = free.free(server);
        let mut used = Resources::ZERO;
        let mut step = Step::Leave;
        while min_demand.fits_in(avail) {
            step = pick(server, avail);
            let Step::Place(demand) = step else {
                break;
            };
            avail -= demand; // `pick` only places what fits
            used += demand;
        }
        if used != Resources::ZERO {
            free.commit(server, used);
        }
        if let Step::Stop = step {
            return;
        }
    }
}

/// Appends one group of demand queues over `(demand, entry)` items: one
/// queue per distinct demand in first-seen order, each holding its
/// entries in item order, laid out contiguously at the end of `entries`
/// (count, prefix, scatter). Returns the group's range into `queues`.
fn push_queue_group(
    queues: &mut Vec<DemandQueue>,
    entries: &mut Vec<u32>,
    items: impl Iterator<Item = (Resources, u32)> + Clone,
) -> (u32, u32) {
    let qstart = queues.len();
    for (demand, _) in items.clone() {
        match queues[qstart..].iter_mut().find(|q| q.demand == demand) {
            Some(q) => q.end += 1,
            None => queues.push(DemandQueue {
                demand,
                head: 0,
                end: 1,
            }),
        }
    }
    let mut cursor = entries.len() as u32;
    for q in &mut queues[qstart..] {
        let count = q.end;
        q.head = cursor;
        q.end = cursor;
        cursor += count;
    }
    entries.resize(cursor as usize, 0);
    for (demand, entry) in items {
        let q = queues[qstart..]
            .iter_mut()
            .find(|q| q.demand == demand)
            .expect("queue created in the counting pass");
        entries[q.end as usize] = entry;
        q.end += 1;
    }
    (qstart as u32, queues.len() as u32)
}

/// Reusable buffers for one decision point. Everything here is cleared
/// and refilled each pass and [`PriorityOrder`] keeps its own buffers, so
/// at steady state every pass, whether it refreshes the job order or not,
/// performs no heap allocation beyond the returned batch itself. The
/// primary pass holds tasks as bucket counts and the clone pass as runs,
/// so neither buffer grows with the number of ready or running tasks.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Algorithm 1's inputs, rebuilt from the view at each refresh.
    transient: Vec<TransientJob>,
    /// One entry per (job, distinct-demand), contiguous per job, jobs in
    /// priority order (so each level's buckets are contiguous too).
    buckets: Vec<Bucket>,
    /// The primary pass's demand queues, one group per level.
    queues: Vec<DemandQueue>,
    /// Per priority level: `(start, end)` range into `buckets` while they
    /// are built, then into `queues`.
    level_queues: Vec<(u32, u32)>,
    /// Per priority level: ready tasks not yet placed (drives the
    /// skip-empty-prefix cursor of the placement loop).
    level_remaining: Vec<u32>,
    /// Entry arena for `queues`: bucket indices.
    entries: Vec<u32>,
    /// The jobs the §4.1 gate lets clone with their remaining volumes
    /// (Eq. 16), ids ascending.
    gated: Vec<(JobId, f64)>,
    /// This batch's primaries as `(job, batch index)`, sorted.
    placed: Vec<(JobId, u32)>,
    /// The clone pass's candidate runs, in candidate order.
    runs: Vec<CloneRun>,
    /// The clone pass's queues, one per distinct demand of `runs`, in
    /// first-seen order.
    clone_queues: Vec<CloneQueue>,
}

/// The DollyMP scheduler (Algorithm 2). `DollyMP::with_clones(r)` builds
/// the paper's DollyMP^r variants on the [`Oracle`] statistics;
/// [`DollyMP::with_statistics`] runs the same pass on another
/// [`JobStatistics`] source.
#[derive(Debug, Clone)]
pub struct DollyMP<S = Oracle> {
    /// Weight `w` on the duration standard deviation in the effective
    /// processing time `θ + w·σ` (§5; the paper deploys 1.5).
    pub sigma_weight: f64,
    /// Cloning budget and §4.1 small-job gate.
    pub clone_policy: ClonePolicy,
    /// Where the per-job statistics come from.
    stats: S,
    /// The job order of the last Algorithm 1 run.
    order: PriorityOrder,
    /// Set by the arrival and task-loss hooks: the next pass re-runs
    /// Algorithm 1 before placing anything.
    stale: bool,
    /// Reusable per-decision-point buffers (see [`Scratch`]).
    scratch: Scratch,
    /// Prepare/placement stage timing of the most recent pass, surfaced
    /// via [`Scheduler::pass_span`] for the flight recorder.
    last_span: PassSpan,
}

impl DollyMP {
    /// DollyMP with the paper's defaults (two clones, `δ = 0.3`,
    /// `w = 1.5`) — the DollyMP² configuration.
    pub fn new() -> Self {
        DollyMP::with_clones(2)
    }

    /// DollyMP^r: at most `clones` extra copies per task.
    pub fn with_clones(clones: u32) -> Self {
        DollyMP::with_statistics(clones, Oracle)
    }
}

impl<S: JobStatistics> DollyMP<S> {
    /// DollyMP^r scheduling on the statistics `stats` reports.
    pub fn with_statistics(clones: u32, stats: S) -> Self {
        DollyMP {
            sigma_weight: 1.5,
            clone_policy: ClonePolicy::with_clones(clones),
            stats,
            order: PriorityOrder::default(),
            stale: false,
            scratch: Scratch::default(),
            last_span: PassSpan::default(),
        }
    }

    /// Override the §4.1 small-job gate `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.clone_policy.delta = delta;
        self
    }

    /// Override the σ-weight of effective processing times.
    pub fn with_sigma_weight(mut self, w: f64) -> Self {
        self.sigma_weight = w;
        self
    }

    /// The statistics source the pass reads.
    pub fn statistics(&self) -> &S {
        &self.stats
    }

    /// Re-run Algorithm 1 over every job in the view and store its order.
    fn refresh_priorities(&mut self, view: &ClusterView<'_>, s: &mut Scratch) {
        let (totals, w) = (view.totals(), self.sigma_weight);
        s.transient.clear();
        s.transient
            .extend(view.jobs().map(|j| self.stats.transient_job(j, totals, w)));
        self.order.refill(&s.transient);
    }

    /// The primary placement pass (Algorithm 2 steps 6–15).
    ///
    /// Tasks of one phase are statistically identical, so candidates are
    /// *bucketed* by (job, demand): the per-server best-fit argmax scans
    /// one entry per distinct demand instead of one per task, which is
    /// what keeps a full pass over 30 000 servers within the paper's
    /// §6.3.3 overhead budget. All intermediate structures are flattened
    /// arenas living in [`Scratch`] (buckets, per-level demand queues),
    /// so the pass allocates nothing at steady state:
    ///
    /// * buckets are built in priority order from the per-phase ready
    ///   *counts* of each job, so building them costs O(phases), not
    ///   O(tasks); a bucket names no task until it is popped, when it
    ///   takes the highest remaining ready id of its last non-empty phase
    ///   from the job's ready set (the historical LIFO `Vec::pop` over
    ///   (phase, task) order);
    /// * each level's buckets form one [`push_queue_group`] group keyed by
    ///   demand, with bucket indices as entries — buckets sharing a
    ///   demand have the same Tetris score against any server, and the
    ///   scan's strict `score > best` keeps the first seen, so the argmax
    ///   only needs the frontmost alive bucket per demand, with
    ///   exact-score ties across demands breaking toward the smaller
    ///   bucket index (first-seen-wins, verbatim);
    /// * fully drained levels are skipped by a monotone cursor — a level
    ///   with no tasks left can never match again.
    ///
    /// The servers are visited by [`walk_servers`]; the pick rule is the
    /// best-aligned queue of the highest non-empty level that fits.
    fn place_primaries(
        &self,
        view: &ClusterView<'_>,
        order: Option<&[ServerId]>,
        free: &CapacityOverlay,
        s: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) {
        s.buckets.clear();
        s.level_queues.clear();
        s.level_remaining.clear();
        let mut ready_count: usize = 0;
        let mut min_demand: Option<Resources> = None;
        let mut found = 0usize;
        for (_, members) in self.order.groups() {
            let lstart = s.buckets.len() as u32;
            let mut level_tasks = 0u32;
            // Jobs that finished since the last refresh have left the view.
            for j in members.iter().filter_map(|&jid| view.job(jid)) {
                found += 1;
                let bstart = s.buckets.len();
                // One bucket per distinct demand, in first-ready-phase
                // order; a bucket's `phase` ends at its highest phase.
                for (pi, p) in j.spec().phases().iter().enumerate() {
                    let count = j.phase_state(PhaseId(pi as u32)).ready().len();
                    if count == 0 {
                        continue;
                    }
                    level_tasks += count;
                    min_demand = Some(match min_demand {
                        Some(m) => m.min(p.demand),
                        None => p.demand,
                    });
                    match s.buckets[bstart..]
                        .iter_mut()
                        .find(|b| b.demand == p.demand)
                    {
                        Some(b) => {
                            b.phase = PhaseId(pi as u32);
                            b.len += count;
                        }
                        None => s.buckets.push(Bucket {
                            demand: p.demand,
                            job: j.id(),
                            phase: PhaseId(pi as u32),
                            below: u32::MAX,
                            len: count,
                        }),
                    }
                }
            }
            ready_count += level_tasks as usize;
            s.level_queues.push((lstart, s.buckets.len() as u32));
            s.level_remaining.push(level_tasks);
        }
        // Every arrival and task loss marks the order stale, so the last
        // refresh saw every job now in the view.
        debug_assert_eq!(found, view.num_jobs(), "every view job is in the order");
        let Some(min_demand) = min_demand else {
            return;
        };
        if !free.could_fit(min_demand) {
            // Nothing fits anywhere in the cluster — skip the queues and
            // the server walk.
            return;
        }
        s.queues.clear();
        s.entries.clear();
        for range in &mut s.level_queues {
            let buckets = &s.buckets;
            let items = (range.0..range.1).map(|b| (buckets[b as usize].demand, b));
            *range = push_queue_group(&mut s.queues, &mut s.entries, items);
        }

        out.reserve(ready_count);
        // The job of the last pop: successive pops mostly drain one
        // bucket, so this skips most view lookups.
        let mut last_job: Option<&JobState> = None;
        let nlevels = s.level_queues.len();
        let mut first_active = 0usize;
        walk_servers(order, free, min_demand, |server, avail| {
            while first_active < nlevels && s.level_remaining[first_active] == 0 {
                first_active += 1;
            }
            if first_active == nlevels {
                return Step::Stop;
            }
            // Highest-priority level with a fitting task; within the
            // level, the best-aligned demand queue (step 12).
            for li in first_active..nlevels {
                if s.level_remaining[li] == 0 {
                    continue;
                }
                let (qs, qe) = s.level_queues[li];
                let mut best: Option<(f64, u32, u32)> = None;
                for qi in qs..qe {
                    let q = s.queues[qi as usize];
                    if q.head == q.end || !q.demand.fits_in(avail) {
                        continue;
                    }
                    let bidx = s.entries[q.head as usize];
                    let score = best_fit_score(q.demand, avail);
                    let better = match best {
                        None => true,
                        Some((b, bb, _)) => score > b || (score == b && bidx < bb),
                    };
                    if better {
                        best = Some((score, bidx, qi));
                    }
                }
                let Some((_, bidx, qi)) = best else {
                    continue;
                };
                let b = &mut s.buckets[bidx as usize];
                let job = match last_job {
                    Some(j) if j.id() == b.job => j,
                    _ => view.job(b.job).expect("buckets come from the view's jobs"),
                };
                last_job = Some(job);
                let task = b.pop(job);
                if b.len == 0 {
                    s.queues[qi as usize].head += 1;
                }
                s.level_remaining[li] -= 1;
                out.push(Assignment {
                    task,
                    server,
                    kind: CopyKind::Primary,
                });
                return Step::Place(b.demand);
            }
            Step::Leave
        });
    }

    /// The clone pass over leftover resources (Algorithm 2 step 16).
    ///
    /// Candidates are the tasks already running in the view *plus* the
    /// primaries placed earlier in this very batch — the paper clones
    /// small jobs "when they are scheduled" (Fig. 2), not one decision
    /// point later. They come job by job in the stored Algorithm 1 order,
    /// from the jobs the §4.1 gate lets clone; within a job its running
    /// tasks holding fewer than `max_copies` copies in (phase, task)
    /// order, then its primaries of this batch in batch order.
    ///
    /// No candidate list is built. The pass pushes [`CloneRun`]s in that
    /// order instead (one per phase with running tasks, one per primary),
    /// which costs O(gated jobs × phases + primaries), and links each
    /// onto the [`CloneQueue`] of its demand. A queue's head is resolved
    /// from its run's running set only when a server has room for the
    /// queue's demand, and is cached until consumed. Runs are in global
    /// candidate order and no two queues share one, so comparing the
    /// heads' run indices orders candidates across queues.
    ///
    /// The servers are visited by [`walk_servers`]; the pick rule is the
    /// earliest candidate that fits, and the walk stops once every queue
    /// is exhausted. Free capacity on a server only shrinks during its
    /// scan, so a request that does not fit when passed over never fits
    /// later on that server — picking the earliest request that fits,
    /// repeatedly, places exactly the same set as a sequential walk of the
    /// flat priority-ordered candidate list, while resolving only the
    /// heads that a server could take.
    ///
    /// Each candidate gets at most one clone here: the RM grants clone
    /// containers round by round ("repeat Step 9" spans allocation
    /// rounds, not one batch), so a task's second clone can only arrive
    /// at a later decision point. A second round within this decision
    /// point would place nothing: the walk leaves a server only when no
    /// remaining candidate fits there, and skips only servers without
    /// room for the smallest demand, so every candidate left over fits no
    /// server, and free capacity only shrinks.
    fn place_clones(
        &self,
        view: &ClusterView<'_>,
        order: Option<&[ServerId]>,
        free: &CapacityOverlay,
        s: &mut Scratch,
        batch: &mut Vec<Assignment>,
    ) {
        let max_copies = self.clone_policy.max_copies;
        if max_copies <= 1 {
            return;
        }
        let w = self.sigma_weight;
        // Remaining volumes, computed once (the §4.1 gate needs every
        // job's volume against the sum of the others'; recomputing per
        // candidate would make this pass quadratic). The total is summed
        // in ascending-JobId view order so it cannot depend on any map's
        // iteration order.
        let totals = view.totals();
        s.gated.clear();
        let volumes = view
            .jobs()
            .map(|j| (j.id(), self.stats.remaining_volume(j, totals, w)));
        s.gated.extend(volumes);
        let total_volume = s.gated.iter().fold(0.0f64, |sum, &(_, v)| sum + v);
        let gate = &self.clone_policy;
        s.gated
            .retain(|&(_, mine)| gate.small_job_gate(mine, (total_volume - mine).max(0.0)));
        s.placed.clear();
        s.placed.extend(
            batch
                .iter()
                .enumerate()
                .map(|(i, a)| (a.task.job, i as u32)),
        );
        s.placed.sort_unstable();
        s.runs.clear();
        s.clone_queues.clear();
        let (runs, queues) = (&mut s.runs, &mut s.clone_queues);
        let mut push_run = |demand: Resources, job: JobId, phase: PhaseId, primary: Option<u32>| {
            let at = runs.len() as u32;
            runs.push(CloneRun {
                job,
                phase,
                primary,
                next: NO_RUN,
            });
            match queues.iter_mut().find(|q| q.demand == demand) {
                Some(q) => {
                    runs[q.tail as usize].next = at;
                    q.tail = at;
                }
                None => queues.push(CloneQueue {
                    demand,
                    run: at,
                    from: 0,
                    head: UNRESOLVED,
                    tail: at,
                }),
            }
        };
        for (_, members) in self.order.groups() {
            for &jid in members {
                if s.gated.binary_search_by_key(&jid, |&(id, _)| id).is_err() {
                    continue;
                }
                let j = view.job(jid).expect("gated jobs are in the view");
                for (pi, p) in j.spec().phases().iter().enumerate() {
                    let phase = PhaseId(pi as u32);
                    if !j.phase_state(phase).running().is_empty() {
                        push_run(p.demand, jid, phase, None);
                    }
                }
                // A primary placed this very batch is one copy the view
                // cannot see yet, so it always has room for a clone.
                let from = s.placed.partition_point(|&(job, _)| job < jid);
                for &(_, i) in s.placed[from..].iter().take_while(|&&(job, _)| job == jid) {
                    let task = batch[i as usize].task;
                    debug_assert_eq!(
                        j.task(task.phase, task.task).live_copies(),
                        0,
                        "a task placed as primary this batch was ready, hence copy-free"
                    );
                    let demand = j.spec().phase(task.phase).demand;
                    push_run(demand, jid, task.phase, Some(task.task.0));
                }
            }
        }
        // A lower bound on every candidate's demand: a queue whose runs
        // hold only saturated tasks still counts.
        let Some(min_demand) = s
            .clone_queues
            .iter()
            .map(|q| q.demand)
            .reduce(Resources::min)
        else {
            return;
        };
        if !free.could_fit(min_demand) {
            // No server in the whole cluster has room for even the
            // smallest request — skip the server walk entirely.
            return;
        }
        // Queues not yet found exhausted.
        let mut live = s.clone_queues.len();
        let (runs, queues) = (&s.runs, &mut s.clone_queues);
        walk_servers(order, free, min_demand, |server, avail| {
            // The queue holding the earliest fitting head. A queue's head
            // lies at or after its current run, so a queue whose run is
            // later than the best head so far cannot win and is not
            // resolved.
            let mut best: Option<(u32, usize)> = None;
            for (qi, q) in queues.iter_mut().enumerate() {
                let bound = best.map_or(NO_RUN, |(run, _)| run);
                if q.run >= bound || !q.demand.fits_in(avail) {
                    continue;
                }
                if !q.resolve(runs, view, max_copies) {
                    live -= 1;
                } else if q.run < bound {
                    best = Some((q.run, qi));
                }
            }
            let Some((run, qi)) = best else {
                return if live == 0 { Step::Stop } else { Step::Leave };
            };
            let q = &mut queues[qi];
            let r = runs[run as usize];
            let task = TaskRef {
                job: r.job,
                phase: r.phase,
                task: TaskId(q.head),
            };
            #[cfg(debug_assertions)]
            if r.primary.is_none() {
                let j = view.job(r.job).expect("gated jobs are in the view");
                debug_assert_eq!(
                    j.phase_state(r.phase).running().lowest_at_or_above(q.head),
                    Some(q.head),
                    "a resolved head is running"
                );
                debug_assert!(
                    j.task(r.phase, task.task).live_copies() < max_copies,
                    "a resolved head has room for a clone"
                );
            }
            q.from = q.head + 1;
            q.head = UNRESOLVED;
            batch.push(Assignment {
                task,
                server,
                kind: CopyKind::Clone,
            });
            Step::Place(q.demand)
        });
    }
}

impl Default for DollyMP {
    fn default() -> Self {
        DollyMP::new()
    }
}

impl<S: JobStatistics> Scheduler for DollyMP<S> {
    fn name(&self) -> String {
        format!("dollymp{}", self.clone_policy.max_copies - 1)
    }

    fn on_job_arrival(&mut self, _view: &ClusterView<'_>, _job: JobId) {
        self.stale = true;
    }

    fn on_task_lost(&mut self, _view: &ClusterView<'_>, _task: TaskRef) {
        // A crash is as much a scheduling shock as an arrival: the next
        // pass re-runs Algorithm 1 so the frozen order reflects the
        // post-crash state of the cluster.
        self.stale = true;
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.schedule_on(view, &view.capacity().begin_batch())
    }

    fn pass_span(&self) -> Option<PassSpan> {
        Some(self.last_span)
    }
}

impl<S: JobStatistics> DollyMP<S> {
    /// Run one full Algorithm 2 pass visiting servers in the given order
    /// — the hook the `learned` extension uses to prefer fast machines.
    /// `schedule` calls the identity-order equivalent, driven directly by
    /// the capacity index (no materialized server list).
    pub fn schedule_with_server_order(
        &mut self,
        view: &ClusterView<'_>,
        server_order: &[ServerId],
    ) -> Vec<Assignment> {
        let free = view.capacity().begin_batch();
        self.schedule_inner(view, Some(server_order), &free)
    }

    /// Run one full Algorithm 2 pass that commits on the caller's
    /// overlay, which afterwards holds the whole batch — so a caller
    /// can adjust the batch's placements on it and keep it admissible.
    pub fn schedule_on(
        &mut self,
        view: &ClusterView<'_>,
        free: &CapacityOverlay,
    ) -> Vec<Assignment> {
        self.schedule_inner(view, None, free)
    }

    /// One full Algorithm 2 decision point: the Algorithm 1 refresh if a
    /// hook marked the order stale, the primary pass, then the clone pass
    /// over the leftovers. `order` is `None` for the identity server
    /// walk.
    fn schedule_inner(
        &mut self,
        view: &ClusterView<'_>,
        order: Option<&[ServerId]>,
        free: &CapacityOverlay,
    ) -> Vec<Assignment> {
        let pass_start = std::time::Instant::now();
        // The scratch moves out of `self` for the duration of the pass so
        // the `&self` helper methods can borrow it mutably alongside.
        let mut s = std::mem::take(&mut self.scratch);
        // The engine changes nothing Algorithm 1 reads between a slot's
        // last hook and its pass, so refreshing here sees exactly the
        // state the last hook saw.
        if std::mem::take(&mut self.stale) {
            self.refresh_priorities(view, &mut s);
        }
        let prepare_ns = pass_start.elapsed().as_nanos() as u64;
        let mut batch: Vec<Assignment> = Vec::new();
        self.place_primaries(view, order, free, &mut s, &mut batch);
        self.place_clones(view, order, free, &mut s, &mut batch);
        self.scratch = s;
        self.last_span = PassSpan {
            prepare_ns,
            placement_ns: (pass_start.elapsed().as_nanos() as u64).saturating_sub(prepare_ns),
        };
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn det_sampler() -> DurationSampler {
        DurationSampler::new(7, StragglerModel::Deterministic)
    }

    #[test]
    fn names_encode_clone_budget() {
        assert_eq!(DollyMP::with_clones(0).name(), "dollymp0");
        assert_eq!(DollyMP::with_clones(1).name(), "dollymp1");
        assert_eq!(DollyMP::new().name(), "dollymp2");
    }

    /// A job finishes between two refreshes: the next pass skips it and
    /// places the rest in the stored order, even though the survivors'
    /// states would now rank them the other way round (the order stays
    /// frozen until the next arrival, §5).
    #[test]
    fn passes_walk_the_last_refresh_order_past_finished_jobs() {
        use dollymp_cluster::capacity::CapacityIndex;
        let job = |id, theta| {
            let spec = JobSpec::single_phase(JobId(id), 1, Resources::new(1.0, 1.0), theta, 0.0);
            JobState::new(spec, vec![theta])
        };
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let mut s = DollyMP::with_clones(0);
        // Full server: the first pass only refreshes the order, ranking
        // job 1 (tiny), then job 2 (mid), then job 0 (huge).
        let jobs = JobTable::from_iter([job(0, 100.0), job(1, 1.0), job(2, 10.0)]);
        let cap = CapacityIndex::from_free(&[Resources::ZERO]);
        let view = ClusterView::new(0, &cluster, &cap, &jobs);
        s.on_job_arrival(&view, JobId(2));
        assert!(s.schedule(&view).is_empty());
        let groups = |s: &DollyMP| -> Vec<Vec<JobId>> {
            s.order.groups().map(|(_, m)| m.to_vec()).collect()
        };
        let refreshed = groups(&s);
        assert_eq!(refreshed, [[JobId(1)], [JobId(2)], [JobId(0)]]);
        // Job 1 finished; job 0 now looks smaller than job 2.
        let jobs = JobTable::from_iter([job(0, 1.0), job(2, 10.0)]);
        let cap = CapacityIndex::from_free(&[Resources::new(4.0, 4.0)]);
        let view = ClusterView::new(1, &cluster, &cap, &jobs);
        let placed: Vec<JobId> = s.schedule(&view).iter().map(|a| a.task.job).collect();
        assert_eq!(placed, [JobId(2), JobId(0)]);
        assert_eq!(groups(&s), refreshed, "no refresh without an arrival");
        // The next arrival's refresh reads the survivors' new statistics.
        s.on_job_arrival(&view, JobId(2));
        let _ = s.schedule(&view);
        assert_eq!(groups(&s), [[JobId(0)], [JobId(2)]]);
    }

    /// The σ-weight reaches Algorithm 1: a σ = 0 job against a shorter
    /// job with a large σ. On means alone (`w = 0`) the short job ranks
    /// first; at the paper's `w = 1.5` its effective time `2 + 1.5·4 = 8`
    /// exceeds the other's 4 and the order flips.
    #[test]
    fn sigma_weight_reaches_algorithm1() {
        use dollymp_cluster::capacity::CapacityIndex;
        let job = |id, theta, sigma| {
            let spec = JobSpec::single_phase(JobId(id), 1, Resources::new(1.0, 1.0), theta, sigma);
            JobState::new(spec, vec![theta])
        };
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let jobs = JobTable::from_iter([job(0, 4.0, 0.0), job(1, 2.0, 4.0)]);
        let cap = CapacityIndex::from_free(&[Resources::ZERO]);
        let view = ClusterView::new(0, &cluster, &cap, &jobs);
        let refreshed = |w| -> Vec<(u32, Vec<JobId>)> {
            let mut s = DollyMP::with_clones(0).with_sigma_weight(w);
            s.on_job_arrival(&view, JobId(1));
            assert!(s.schedule(&view).is_empty());
            s.order.groups().map(|(l, m)| (l, m.to_vec())).collect()
        };
        assert_eq!(refreshed(0.0), [(1, vec![JobId(1)]), (2, vec![JobId(0)])]);
        assert_eq!(refreshed(1.5), [(2, vec![JobId(0)]), (3, vec![JobId(1)])]);
        assert_eq!(DollyMP::new().sigma_weight, 1.5, "the paper's default");
    }

    fn tref(phase: u32, task: u32) -> TaskRef {
        TaskRef {
            job: JobId(0),
            phase: PhaseId(phase),
            task: TaskId(task),
        }
    }

    fn placed(kind: CopyKind, (phase, task): (u32, u32), server: u32) -> Assignment {
        Assignment {
            task: tref(phase, task),
            server: ServerId(server),
            kind,
        }
    }

    /// Job 0 with one root phase per `(tasks, demand)`, 50 slots each.
    fn job0(phases: &[(u32, Resources)]) -> JobSpec {
        phases
            .iter()
            .fold(JobSpec::builder(JobId(0)), |b, &(n, demand)| {
                b.phase(dollymp_core::job::PhaseSpec::new(n, demand, 50.0, 0.0))
            })
            .build()
            .unwrap()
    }

    /// The batch `dmp` places at slot 1 of a run whose slot-0 decision
    /// point launches `setup` instead, so the view holds running tasks
    /// with the copy counts `setup` gives them.
    fn batch_after(
        cluster: &ClusterSpec,
        job: JobSpec,
        setup: Vec<Assignment>,
        dmp: DollyMP,
    ) -> Vec<Assignment> {
        struct Staged {
            setup: Option<Vec<Assignment>>,
            dmp: DollyMP,
            second: Option<Vec<Assignment>>,
        }
        impl Scheduler for Staged {
            fn name(&self) -> String {
                "staged".into()
            }
            fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
                self.dmp.on_job_arrival(view, job);
            }
            fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
                if let Some(setup) = self.setup.take() {
                    return setup;
                }
                let batch = self.dmp.schedule(view);
                self.second.get_or_insert_with(|| batch.clone());
                batch
            }
        }
        let mut staged = Staged {
            setup: Some(setup),
            dmp,
            second: None,
        };
        let config = EngineConfig {
            tick: Some(1),
            ..EngineConfig::default()
        };
        simulate(cluster, vec![job], &det_sampler(), &mut staged, &config);
        staged.second.expect("a decision point at slot 1")
    }

    /// Two phases of one demand are two runs of one clone queue, walked
    /// in phase order: with room for three clones, phase 0's both
    /// tasks go first.
    #[test]
    fn clone_runs_of_one_demand_follow_phase_order() {
        let unit = Resources::new(1.0, 1.0);
        let cluster = ClusterSpec::new(vec![ServerSpec::new(4.0, 4.0), ServerSpec::new(3.0, 3.0)]);
        let setup = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .map(|t| placed(CopyKind::Primary, t, 0))
            .to_vec();
        let batch = batch_after(
            &cluster,
            job0(&[(2, unit), (2, unit)]),
            setup,
            DollyMP::new(),
        );
        let clone = |t| placed(CopyKind::Clone, t, 1);
        assert_eq!(batch, [clone((0, 0)), clone((0, 1)), clone((1, 0))]);
    }

    /// One job's primaries of this batch with demands A, B, A are three
    /// single-task runs in batch order across two queues: after the
    /// first A, the B run comes before the second A, though the second A
    /// has the lower (phase, task).
    #[test]
    fn batch_primaries_clone_in_batch_order_across_demands() {
        use dollymp_cluster::capacity::CapacityIndex;
        let (a, b) = (Resources::new(1.0, 1.0), Resources::new(2.0, 2.0));
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(1.0, 1.0),
            ServerSpec::new(2.0, 2.0),
            ServerSpec::new(1.0, 1.0),
            ServerSpec::new(3.0, 3.0),
        ]);
        let spec = job0(&[(2, a), (1, b)]);
        let tables = det_sampler().job_tables(&spec);
        let jobs = JobTable::from_iter([JobState::new(spec, tables)]);
        let cap = CapacityIndex::from_capacities(&cluster);
        let view = ClusterView::new(0, &cluster, &cap, &jobs);
        let mut s = DollyMP::new();
        s.on_job_arrival(&view, JobId(0));
        // Server 0 takes an A (the bucket pops the highest id first),
        // server 1 the better-aligned B, server 2 the other A; server 3
        // has room for the first two clone candidates.
        let (p, c) = (CopyKind::Primary, CopyKind::Clone);
        let expected = [
            placed(p, (0, 1), 0),
            placed(p, (1, 0), 1),
            placed(p, (0, 0), 2),
            placed(c, (0, 1), 3),
            placed(c, (1, 0), 3),
        ];
        assert_eq!(s.schedule(&view), expected);
    }

    /// A task already holding `max_copies` copies is skipped inside its
    /// run, and the run goes on to the next running task.
    #[test]
    fn saturated_tasks_are_skipped_inside_a_run() {
        let unit = Resources::new(1.0, 1.0);
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(3.0, 3.0),
            ServerSpec::new(1.0, 1.0),
            ServerSpec::new(4.0, 4.0),
        ]);
        let mut setup: Vec<Assignment> = [(0, 0), (0, 1), (0, 2)]
            .map(|t| placed(CopyKind::Primary, t, 0))
            .to_vec();
        setup.push(placed(CopyKind::Clone, (0, 1), 1));
        let batch = batch_after(&cluster, job0(&[(3, unit)]), setup, DollyMP::with_clones(1));
        let clone = |t| placed(CopyKind::Clone, t, 2);
        assert_eq!(batch, [clone((0, 0)), clone((0, 2))]);
    }

    /// Room for more than every candidate: each gets its one clone, in
    /// order, and the walk stops with servers to spare.
    #[test]
    fn a_pass_that_places_every_candidate_stops() {
        let unit = Resources::new(1.0, 1.0);
        let mut servers = vec![ServerSpec::new(2.0, 2.0)];
        servers.extend((0..4).map(|_| ServerSpec::new(1.0, 1.0)));
        let cluster = ClusterSpec::new(servers);
        let setup = [(0, 0), (0, 1)]
            .map(|t| placed(CopyKind::Primary, t, 0))
            .to_vec();
        let batch = batch_after(&cluster, job0(&[(2, unit)]), setup, DollyMP::new());
        let clone = |t, server| placed(CopyKind::Clone, t, server);
        assert_eq!(batch, [clone((0, 0), 1), clone((0, 1), 2)]);
    }

    #[test]
    fn completes_a_simple_workload() {
        let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0);
        let jobs: Vec<JobSpec> = (0..5)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 2.0), 6.0, 2.0))
            .collect();
        let mut s = DollyMP::new();
        let sampler = DurationSampler::new(3, StragglerModel::ParetoFit);
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert_eq!(r.jobs.len(), 5);
        assert!(r.total_flowtime() > 0);
    }

    #[test]
    fn prioritizes_small_jobs_over_large() {
        // One server; a long fat job (id 0) and a short thin job (id 1)
        // arriving together. DollyMP must run the small one first.
        let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
        let big = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 50.0, 0.0);
        let small = JobSpec::single_phase(JobId(1), 1, Resources::new(1.0, 1.0), 2.0, 0.0);
        let mut s = DollyMP::with_clones(0);
        let r = simulate(
            &cluster,
            vec![big, small],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(1)].flowtime, 2, "small job first");
        assert_eq!(by_id[&JobId(0)].flowtime, 52);
    }

    #[test]
    fn clones_when_idle_resources_exist() {
        // Heterogeneous speeds: primary may land on the slow server; the
        // clone pass must exploit the idle fast server.
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(1.0, 1.0).with_speed(0.25),
            ServerSpec::new(1.0, 1.0).with_speed(1.0),
        ]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 8.0, 0.0);
        let mut s = DollyMP::new();
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let m = &r.jobs[0];
        assert_eq!(m.clone_copies, 1, "one clone on the idle server");
        // Primary lands on the fast server (best fit tie → both equal →
        // server order favors 0? free is identical; score ties → first
        // seen wins, i.e. server 0, the slow one at 32 slots; the clone on
        // server 1 takes 8 slots and wins.
        assert_eq!(m.flowtime, 8);
    }

    #[test]
    fn dollymp0_never_clones() {
        let cluster = ClusterSpec::homogeneous(4, 4.0, 4.0);
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 1.0), 5.0, 3.0))
            .collect();
        let mut s = DollyMP::with_clones(0);
        let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn clone_budget_respected() {
        // Plenty of idle capacity: DollyMP¹ must cap at 1 clone per task.
        let cluster = ClusterSpec::homogeneous(8, 4.0, 4.0);
        let job = JobSpec::single_phase(JobId(0), 2, Resources::new(1.0, 1.0), 10.0, 5.0);
        let sampler = DurationSampler::new(11, StragglerModel::ParetoFit);
        let mut s1 = DollyMP::with_clones(1);
        let r1 = simulate(
            &cluster,
            vec![job.clone()],
            &sampler,
            &mut s1,
            &EngineConfig::default(),
        );
        assert!(r1.jobs[0].clone_copies <= 2, "≤ 1 clone × 2 tasks");
        assert!(
            r1.jobs[0].clone_copies >= 1,
            "idle cluster → clones expected"
        );
        let mut s2 = DollyMP::new();
        let r2 = simulate(
            &cluster,
            vec![job],
            &sampler,
            &mut s2,
            &EngineConfig::default(),
        );
        assert!(r2.jobs[0].clone_copies <= 4, "≤ 2 clones × 2 tasks");
        assert!(r2.jobs[0].clone_copies >= r1.jobs[0].clone_copies);
    }

    #[test]
    fn large_jobs_are_not_cloned_while_backlog_exists() {
        // Two equal big jobs with idle servers to spare: while BOTH are
        // active, neither passes the δ = 0.3 small-job gate (each equals
        // the other's backlog), so the job finishing first must have zero
        // clones. Once it completes, the survivor runs alone (no backlog)
        // and may legitimately be cloned.
        let cluster = ClusterSpec::homogeneous(4, 1.0, 1.0);
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec::single_phase(JobId(i), 1, Resources::new(1.0, 1.0), 20.0, 8.0))
            .collect();
        let sampler = DurationSampler::new(13, StragglerModel::ParetoFit);
        let mut s = DollyMP::new();
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        let first_finisher = r
            .jobs
            .iter()
            .min_by_key(|j| (j.finish, j.id))
            .expect("two jobs ran");
        assert_eq!(
            first_finisher.clone_copies, 0,
            "no clones while the equal-size backlog existed"
        );
    }

    #[test]
    fn recovers_requeued_tasks_after_crash() {
        use dollymp_cluster::engine::try_simulate_with_faults;
        use dollymp_cluster::fault::{FaultEvent, FaultTimeline, TimedFault};
        // Single server: every copy dies with it, so each loss is a full
        // re-queue DollyMP must re-place after the restore.
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 1.0), 10.0, 0.0);
        let tl = FaultTimeline::new(vec![
            TimedFault {
                at: 5,
                event: FaultEvent::Crash(ServerId(0)),
            },
            TimedFault {
                at: 9,
                event: FaultEvent::Restore(ServerId(0)),
            },
        ]);
        let mut s = DollyMP::with_clones(0);
        let r = try_simulate_with_faults(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
            &tl,
        )
        .unwrap();
        assert_eq!(r.jobs.len(), 1, "the job still completes");
        assert_eq!(r.faults.tasks_requeued, 4);
        // 5 slots lost + 4 idle + full 10-slot rerun.
        assert_eq!(r.jobs[0].finish, 19);
    }

    #[test]
    fn beats_fifo_on_mixed_sizes() {
        // The headline behaviour: on a mix of small and large jobs with
        // stragglers, DollyMP² must achieve lower total flowtime than
        // FIFO first-fit.
        let cluster = ClusterSpec::paper_30_node();
        let mut jobs = Vec::new();
        for i in 0..30u64 {
            let (n, theta) = if i % 3 == 0 { (20, 40.0) } else { (4, 8.0) };
            jobs.push(
                JobSpec::builder(JobId(i))
                    .arrival(i * 2)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        n,
                        Resources::new(2.0, 4.0),
                        theta,
                        theta / 2.0,
                    ))
                    .build()
                    .unwrap(),
            );
        }
        let sampler = DurationSampler::new(17, StragglerModel::ParetoFit);
        let mut fifo = FifoFirstFit;
        let r_fifo = simulate(
            &cluster,
            jobs.clone(),
            &sampler,
            &mut fifo,
            &EngineConfig::default(),
        );
        let mut dmp = DollyMP::new();
        let r_dmp = simulate(&cluster, jobs, &sampler, &mut dmp, &EngineConfig::default());
        assert!(
            r_dmp.total_flowtime() < r_fifo.total_flowtime(),
            "DollyMP {} ≥ FIFO {}",
            r_dmp.total_flowtime(),
            r_fifo.total_flowtime()
        );
    }
}
