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

/// A FIFO of placement requests sharing one demand vector; entries live
/// in a scratch entry arena at `[head, end)` and are consumed by
/// advancing `head`.
#[derive(Debug, Clone, Copy)]
struct DemandQueue {
    demand: Resources,
    head: u32,
    end: u32,
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
/// Each visited server's free capacity goes to `pick`, which places one
/// request that fits `avail` and returns its demand, or `None` to leave
/// the server; the walk stops after `n` placements. A server's
/// placements accumulate locally and commit to the capacity index once,
/// on leaving it, since the index is only queried again for the next
/// server. `min_demand` is a component-wise lower bound on every
/// request: a server without room for it is left at once.
fn walk_servers(
    order: Option<&[ServerId]>,
    free: &CapacityOverlay,
    min_demand: Resources,
    mut n: usize,
    mut pick: impl FnMut(ServerId, Resources) -> Option<Resources>,
) {
    let mut walk = ServerWalk::new(order);
    while n > 0 {
        let Some(server) = walk.next(free, min_demand) else {
            break;
        };
        let mut avail = free.free(server);
        let mut used = Resources::ZERO;
        while n > 0 && min_demand.fits_in(avail) {
            let Some(demand) = pick(server, avail) else {
                break;
            };
            avail -= demand; // `pick` only places what fits
            used += demand;
            n -= 1;
        }
        if used != Resources::ZERO {
            free.commit(server, used);
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
/// performs no heap allocation beyond the returned batch itself.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Algorithm 1's inputs, rebuilt from the view at each refresh.
    transient: Vec<TransientJob>,
    /// One entry per (job, distinct-demand), contiguous per job, jobs in
    /// priority order (so each level's buckets are contiguous too).
    buckets: Vec<Bucket>,
    /// Demand queues of the current pass: per level for the primary
    /// pass, one group for the clone pass.
    queues: Vec<DemandQueue>,
    /// Per priority level: `(start, end)` range into `buckets` while they
    /// are built, then into `queues`.
    level_queues: Vec<(u32, u32)>,
    /// Per priority level: ready tasks not yet placed (drives the
    /// skip-empty-prefix cursor of the placement loop).
    level_remaining: Vec<u32>,
    /// Entry arena for `queues`: bucket indices in the primary pass,
    /// candidate indices in the clone pass.
    entries: Vec<u32>,
    /// The jobs the §4.1 gate lets clone with their remaining volumes
    /// (Eq. 16), ids ascending.
    gated: Vec<(JobId, f64)>,
    /// This batch's primaries as `(job, batch index)`, sorted.
    placed: Vec<(JobId, u32)>,
    /// Clone candidates of this decision point with their demands, in
    /// priority order.
    candidates: Vec<(Resources, TaskRef)>,
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
        walk_servers(order, free, min_demand, ready_count, |server, avail| {
            while first_active < nlevels && s.level_remaining[first_active] == 0 {
                first_active += 1;
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
                return Some(b.demand);
            }
            None
        });
    }

    /// The clone pass over leftover resources (Algorithm 2 step 16).
    ///
    /// Candidates are the tasks already running in the view *plus* the
    /// primaries placed earlier in this very batch — the paper clones
    /// small jobs "when they are scheduled" (Fig. 2), not one decision
    /// point later. They come job by job in the stored Algorithm 1 order,
    /// from the jobs the §4.1 gate lets clone; within a job its running
    /// tasks holding fewer than `max_copies` copies, then its primaries
    /// of this batch in batch order. The candidates form one
    /// [`push_queue_group`] group with candidate indices as entries.
    ///
    /// The servers are visited by [`walk_servers`]; the pick rule is the
    /// earliest candidate that fits. Free capacity on a server only
    /// shrinks during its scan, so a request that does not fit when
    /// passed over never fits later on that server — picking the
    /// earliest-index request that fits, repeatedly, places exactly the
    /// same set as a sequential walk of the flat priority-ordered queue,
    /// while costing `O(placements × #demands)` instead of
    /// `O(queue length)` per server.
    ///
    /// Each candidate gets at most one clone here: the RM grants clone
    /// containers round by round ("repeat Step 9" spans allocation
    /// rounds, not one batch), so a task's second clone can only arrive
    /// at a later decision point. A second round within this decision
    /// point would place nothing: the walk leaves a server only when no
    /// remaining candidate fits there, and skips only servers without
    /// room for the smallest one, so every candidate left over fits no
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
        s.candidates.clear();
        for (_, members) in self.order.groups() {
            for &jid in members {
                if s.gated.binary_search_by_key(&jid, |&(id, _)| id).is_err() {
                    continue;
                }
                let j = view.job(jid).expect("gated jobs are in the view");
                let demand = |t: TaskRef| j.spec().phase(t.phase).demand;
                s.candidates.extend(
                    j.iter_running()
                        .filter(|t| j.task(t.phase, t.task).live_copies() < max_copies)
                        .map(|t| (demand(t), t)),
                );
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
                    s.candidates.push((demand(task), task));
                }
            }
        }
        s.queues.clear();
        s.entries.clear();
        let items = s.candidates.iter().enumerate();
        push_queue_group(
            &mut s.queues,
            &mut s.entries,
            items.map(|(i, &(demand, _))| (demand, i as u32)),
        );
        let Some(min_demand) = s.queues.iter().map(|q| q.demand).reduce(Resources::min) else {
            return;
        };
        if !free.could_fit(min_demand) {
            // No server in the whole cluster has room for even the
            // smallest request — skip the server walk entirely.
            return;
        }
        walk_servers(order, free, min_demand, s.entries.len(), |server, avail| {
            let mut best: Option<(u32, usize)> = None;
            for (qi, q) in s.queues.iter().enumerate() {
                if q.head == q.end || !q.demand.fits_in(avail) {
                    continue;
                }
                let ci = s.entries[q.head as usize];
                if best.is_none_or(|(bc, _)| ci < bc) {
                    best = Some((ci, qi));
                }
            }
            let (ci, qi) = best?;
            s.queues[qi].head += 1;
            let (demand, task) = s.candidates[ci as usize];
            batch.push(Assignment {
                task,
                server,
                kind: CopyKind::Clone,
            });
            Some(demand)
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
