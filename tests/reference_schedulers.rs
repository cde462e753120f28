//! Reference oracles for DollyMP, Tetris and the fair-share baselines:
//! each scheduler written straight from its definition, recomputing
//! everything from the view and the batch so far before each placement
//! and scanning servers linearly.
//!
//! The fast schedulers share one placement machinery: `Drf` and
//! `Carbyne` one progressive-filling loop over a capacity overlay with
//! incrementally tracked shares, `DollyMP` bucketed demand queues and a
//! capacity-index server walk, `Tetris` a ready list scored against the
//! overlay and the index's best-fit search for clones. The engine is
//! deterministic, so a scrubbed `SimReport` equal to the reference's
//! means every decision was equal. Each rule the references apply is
//! stated once, with its tie-break, where it is applied.

use dollymp::prelude::*;
use dollymp_core::job::TaskRef;
use dollymp_core::online::best_fit_score;
use dollymp_core::resources::dominant_share;
use dollymp_schedulers::{JobStatistics, Oracle};
use dollymp_testkit::{self as testkit, Lockstep};
use proptest::prelude::*;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Which fair-share baseline a [`NaiveFair`] reproduces.
#[derive(Clone, Copy, PartialEq)]
enum Policy {
    Drf,
    Carbyne,
}

/// Naive DRF / Carbyne: one placement per iteration, everything
/// recomputed from the view and the batch so far.
struct NaiveFair(Policy);

/// Rule (share): a job's share is the dominant share of its allocation,
/// the resources its live copies hold plus each task this batch granted
/// it.
fn share(job: &JobState, batch: &[(Assignment, Resources)], totals: Resources) -> f64 {
    let mut held = Resources::ZERO;
    for task in job.iter_running() {
        let demand = job.spec().phase(task.phase).demand;
        for _ in job.copies_of(task.phase, task.task).filter(|c| c.is_live()) {
            held += demand;
        }
    }
    let granted = batch
        .iter()
        .filter(|(a, _)| a.task.job == job.id())
        .fold(Resources::ZERO, |sum, &(_, d)| sum + d);
    dominant_share(held + granted, totals)
}

/// Rule (first-fit, DRF): the lowest-id server with room.
fn first_fit(free: &[Resources], demand: Resources) -> Option<usize> {
    free.iter().position(|&f| demand.fits_in(f))
}

/// Rule (best-fit, Carbyne and Tetris's clones): the server with room
/// maximizing the alignment score `demand · free`; on equal scores the
/// lowest id wins.
fn best_fit(free: &[Resources], demand: Resources) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (s, &f) in free.iter().enumerate() {
        if !demand.fits_in(f) {
            continue;
        }
        let score = best_fit_score(demand, f);
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, s));
        }
    }
    best.map(|(_, s)| s)
}

/// The ready tasks of `job` this batch has not placed, in (phase, task)
/// order.
fn unplaced<'a>(
    job: &'a JobState,
    batch: &'a [(Assignment, Resources)],
) -> impl Iterator<Item = (TaskRef, Resources)> + 'a {
    job.iter_ready()
        .filter(|&t| batch.iter().all(|(a, _)| a.task != t))
        .map(|t| (t, job.spec().phase(t.phase).demand))
}

impl Scheduler for NaiveFair {
    fn name(&self) -> String {
        match self.0 {
            Policy::Drf => "drf".into(),
            Policy::Carbyne => "carbyne".into(),
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let totals = view.totals();
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut batch: Vec<(Assignment, Resources)> = Vec::new();
        // Rule (cap): DRF has none; Carbyne stops offering to a job once
        // its share reaches the fair share 1/N of the N active jobs.
        let cap = match self.0 {
            Policy::Drf => f64::INFINITY,
            Policy::Carbyne => 1.0 / view.num_jobs().max(1) as f64,
        };
        let fit = match self.0 {
            Policy::Drf => first_fit,
            Policy::Carbyne => best_fit,
        };
        let place = |free: &mut Vec<Resources>, batch: &mut Vec<_>, task, demand| {
            let Some(s) = fit(free, demand) else { return };
            free[s] = free[s].checked_sub(demand).expect("the server has room");
            let server = ServerId(s as u32);
            let kind = CopyKind::Primary;
            batch.push((Assignment { task, server, kind }, demand));
        };

        loop {
            // Rule (pick): among jobs under the cap with an unplaced ready
            // task that fits some server, the smallest (share, JobId)
            // wins. It offers its first such task in (phase, task) order.
            let mut pick: Option<(f64, JobId, TaskRef, Resources)> = None;
            for job in view.jobs() {
                let s = share(job, &batch, totals);
                if s >= cap {
                    continue;
                }
                let fits = |&(_, d): &(TaskRef, Resources)| free.iter().any(|&f| d.fits_in(f));
                let Some((task, demand)) = unplaced(job, &batch).find(fits) else {
                    continue;
                };
                if pick.is_none_or(|(ps, pj, ..)| (s, job.id()) < (ps, pj)) {
                    pick = Some((s, job.id(), task, demand));
                }
            }
            let Some((_, _, task, demand)) = pick else {
                break;
            };
            place(&mut free, &mut batch, task, demand);
        }

        if self.0 == Policy::Carbyne {
            // Rule (leftovers, Carbyne): jobs in SRPT order, by remaining
            // critical-path time, then JobId; each offers every unplaced
            // ready task in (phase, task) order, placed best-fit.
            let mut jobs: Vec<&JobState> = view.jobs().collect();
            jobs.sort_by(|a, b| {
                (Oracle.remaining_etime(a, 0.0), a.id())
                    .partial_cmp(&(Oracle.remaining_etime(b, 0.0), b.id()))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for job in jobs {
                let leftovers: Vec<_> = unplaced(job, &batch).collect();
                for (task, demand) in leftovers {
                    place(&mut free, &mut batch, task, demand);
                }
            }
        }
        batch.into_iter().map(|(a, _)| a).collect()
    }
}

/// The σ-weight `w` of DollyMP's effective times `θ + w·σ`, in
/// Algorithm 1 and in the §4.1 gate.
const W: f64 = 1.5;

/// The §4.1 gate's `δ`.
const DELTA: f64 = 0.3;

/// Naive DollyMP^r (Algorithm 2): no buckets, no demand queues, no
/// capacity index; every pick rescans the jobs, their ready tasks and
/// the batch so far.
struct NaiveDollyMP {
    /// `r`: a task holds at most `r + 1` copies.
    clones: u32,
    /// The last Algorithm 1 run's jobs, by `(level, JobId)`.
    order: Vec<(u32, JobId)>,
    /// A job arrived or a task was lost since that run.
    stale: bool,
}

impl NaiveDollyMP {
    fn new(clones: u32) -> Self {
        NaiveDollyMP {
            clones,
            order: Vec::new(),
            stale: false,
        }
    }
}

/// Rule (Algorithm 1, §4.2): `g = ⌈log₂(Σ_j v_j / (1 − max_j d_j))⌉`
/// levels (volumes clamped at 0, the dominant share at 0.99), stretched
/// so the longest `e_j` fits the last one and kept within 1..=60. At each
/// level `l`, the candidates `B_l = { j : e_j ≤ 2ˡ }` are packed by the
/// greedy unit-profit knapsack against the budget `2ˡ`: by increasing
/// volume, equal volumes in view order, until the next one overflows;
/// infinite volumes are never packed. Each job takes the first level that
/// packs it, [`PRIORITY_UNSELECTED`] if none does. Returns `(level, id)`
/// per job, in view order.
///
/// This keeps the lockstep properties independent of the production
/// refresh, but the instances here draw continuous `θ` and `σ`, so they
/// rarely produce equal volumes or `e_j` exactly at `2ˡ`. The oracle in
/// `dollymp_core::transient`'s tests is the one that pins ties and the
/// horizon boundaries.
fn algorithm1_levels(jobs: &[TransientJob]) -> Vec<(u32, JobId)> {
    let volume = |j: &TransientJob| j.volume.max(0.0);
    let total: f64 = jobs.iter().map(volume).sum();
    let dominant = jobs.iter().map(|j| j.dominant).fold(0.0, f64::max);
    let longest = jobs.iter().map(|j| j.etime).fold(0.0, f64::max);
    let by_volume = (total / (1.0 - dominant.clamp(0.0, 0.99))).max(1.0);
    let g_volume = by_volume.log2().ceil() as i64;
    let g_etime = longest.max(1.0).log2().ceil() as i64;
    let g = g_volume.max(g_etime).clamp(1, 60) as i32;
    let mut levels = vec![PRIORITY_UNSELECTED; jobs.len()];
    for l in 1..=g {
        let budget = 2f64.powi(l);
        let mut candidates: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].etime <= budget && volume(&jobs[i]).is_finite())
            .collect();
        candidates.sort_by(|&a, &b| {
            let (va, vb) = (volume(&jobs[a]), volume(&jobs[b]));
            va.partial_cmp(&vb).expect("finite volumes")
        });
        let mut used = 0.0;
        for i in candidates {
            if used + volume(&jobs[i]) > budget {
                break;
            }
            used += volume(&jobs[i]);
            if levels[i] == PRIORITY_UNSELECTED {
                levels[i] = l as u32;
            }
        }
    }
    levels.into_iter().zip(jobs.iter().map(|j| j.id)).collect()
}

/// The distinct demands of `job`'s ready tasks, by their lowest ready
/// phase. The view is fixed during a pass, so this is their order at its
/// start.
fn demands_by_first_ready_phase(job: &JobState) -> Vec<Resources> {
    let mut demands = Vec::new();
    for task in job.iter_ready() {
        let demand = job.spec().phase(task.phase).demand;
        if !demands.contains(&demand) {
            demands.push(demand);
        }
    }
    demands
}

impl Scheduler for NaiveDollyMP {
    fn name(&self) -> String {
        format!("dollymp{}", self.clones)
    }

    fn on_job_arrival(&mut self, _view: &ClusterView<'_>, _job: JobId) {
        self.stale = true;
    }

    fn on_task_lost(&mut self, _view: &ClusterView<'_>, _task: TaskRef) {
        self.stale = true;
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let totals = view.totals();
        let max_copies = self.clones + 1;
        // Rule (order): on the first pass after an arrival or a task
        // loss, run Algorithm 1 over every job in the view and sort the
        // jobs by (level, JobId); otherwise keep the last order.
        if std::mem::take(&mut self.stale) {
            let jobs: Vec<TransientJob> = view
                .jobs()
                .map(|j| Oracle.transient_job(j, totals, W))
                .collect();
            self.order = algorithm1_levels(&jobs);
            self.order.sort_unstable();
        }
        // Jobs that finished since that run are skipped.
        let levels: Vec<Vec<&JobState>> = self
            .order
            .chunk_by(|a, b| a.0 == b.0)
            .map(|level| level.iter().filter_map(|&(_, id)| view.job(id)).collect())
            .collect();
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut batch: Vec<Assignment> = Vec::new();
        let mut placed: HashSet<TaskRef> = HashSet::new();

        // Rule (primary pass): servers by ascending id; on each, take
        // again and again from the first level that has an unplaced ready
        // task fitting the server's room. Within the level the largest
        // score `demand · room` wins; on equal scores the earlier job of
        // the level, then within a job the demand whose lowest ready
        // phase comes first at the start of the pass. The task taken is
        // the highest (phase, task) of that job's unplaced ready tasks of
        // that demand.
        for (s, room) in free.iter_mut().enumerate() {
            loop {
                let mut pick: Option<(f64, TaskRef, Resources)> = None;
                for level in &levels {
                    for job in level {
                        for demand in demands_by_first_ready_phase(job) {
                            if !demand.fits_in(*room) {
                                continue;
                            }
                            let highest = job
                                .iter_ready()
                                .filter(|t| {
                                    job.spec().phase(t.phase).demand == demand
                                        && !placed.contains(t)
                                })
                                .last();
                            let Some(task) = highest else {
                                continue;
                            };
                            let score = best_fit_score(demand, *room);
                            if pick.is_none_or(|(best, ..)| score > best) {
                                pick = Some((score, task, demand));
                            }
                        }
                    }
                    if pick.is_some() {
                        break;
                    }
                }
                let Some((_, task, demand)) = pick else {
                    break;
                };
                *room -= demand;
                placed.insert(task);
                let (server, kind) = (ServerId(s as u32), CopyKind::Primary);
                batch.push(Assignment { task, server, kind });
            }
        }

        // Rule (gate, §4.1): a job may be cloned when its remaining
        // volume is at most δ times the others' total, or when the others
        // have none left. The total is summed in ascending-JobId order.
        let volumes: Vec<(JobId, f64)> = view
            .jobs()
            .map(|j| (j.id(), Oracle.remaining_volume(j, totals, W)))
            .collect();
        let total = volumes.iter().fold(0.0f64, |sum, &(_, v)| sum + v);
        let gated = |id: JobId| {
            let mine = volumes
                .iter()
                .find(|&&(j, _)| j == id)
                .map_or(0.0, |&(_, v)| v);
            let others = (total - mine).max(0.0);
            others <= 0.0 || mine <= DELTA * others
        };
        // Rule (candidates): the gated jobs in the stored order; within
        // a job, its running tasks in (phase, task) order with their live
        // copies, then its primaries of this batch in batch order, one
        // copy each.
        let mut candidates: Vec<(TaskRef, Resources, u32)> = Vec::new();
        for job in levels.iter().flatten().filter(|j| gated(j.id())) {
            let demand = |t: TaskRef| job.spec().phase(t.phase).demand;
            for t in job.iter_running() {
                let copies = job.task(t.phase, t.task).live_copies();
                candidates.push((t, demand(t), copies));
            }
            for a in batch.iter().filter(|a| a.task.job == job.id()) {
                candidates.push((a.task, demand(a.task), 1));
            }
        }
        // Rule (clones): "repeat Step 9 twice", literally. Each round
        // walks the servers by ascending id and offers each server's room
        // to the candidates in order. A candidate takes it if it fits,
        // holds fewer than `r + 1` copies and got no clone yet at this
        // decision point. Clones are emitted server by server: the engine
        // retires tied finishes in launch order.
        let mut cloned = vec![false; candidates.len()];
        for _round in 0..2 {
            for (s, room) in free.iter_mut().enumerate() {
                for (i, &(task, demand, copies)) in candidates.iter().enumerate() {
                    if cloned[i] || copies >= max_copies || !demand.fits_in(*room) {
                        continue;
                    }
                    *room -= demand;
                    cloned[i] = true;
                    let (server, kind) = (ServerId(s as u32), CopyKind::Clone);
                    batch.push(Assignment { task, server, kind });
                }
            }
        }
        batch
    }
}

/// Tetris's `ε`, the weight of the SRPT bonus against the packing score.
const EPSILON: f64 = 0.2;

/// Naive Tetris: every placement rescores every unplaced ready task
/// against the server's room; clones go best-fit by a linear scan.
struct NaiveTetris {
    /// A task holds at most `clones + 1` copies.
    clones: u32,
}

impl Scheduler for NaiveTetris {
    fn name(&self) -> String {
        match self.clones {
            0 => "tetris".into(),
            r => format!("tetris+clone{r}"),
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let demand = |t: TaskRef| {
            view.job(t.job)
                .expect("job in view")
                .spec()
                .phase(t.phase)
                .demand
        };
        // Rule (SRPT bonus): `1 / (1 + the job's remaining critical-path
        // time)`, larger for less remaining work. The view is fixed
        // during a pass, so this is its value at the start.
        let bonus: HashMap<JobId, f64> = view
            .jobs()
            .map(|j| (j.id(), 1.0 / (1.0 + Oracle.remaining_etime(j, 0.0))))
            .collect();
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut batch: Vec<Assignment> = Vec::new();

        // Rule (ready order): the jobs in view order, each job's ready
        // tasks in (phase, task) order. Placing the task at position i
        // moves the last unplaced task into position i (a `swap_remove`).
        let mut ready: Vec<TaskRef> = view.jobs().flat_map(|j| j.iter_ready()).collect();
        // Rule (primary pass): servers by ascending id; on each, place
        // again and again the unplaced ready task of largest score
        // `demand · room + ε · bonus` among those that fit the room. On
        // equal scores the first in the ready order wins.
        for (s, room) in free.iter_mut().enumerate() {
            loop {
                let mut pick: Option<(f64, usize)> = None;
                for (i, &task) in ready.iter().enumerate() {
                    if !demand(task).fits_in(*room) {
                        continue;
                    }
                    let score = best_fit_score(demand(task), *room) + EPSILON * bonus[&task.job];
                    if pick.is_none_or(|(best, _)| score > best) {
                        pick = Some((score, i));
                    }
                }
                let Some((_, i)) = pick else {
                    break;
                };
                let task = ready.swap_remove(i);
                *room -= demand(task);
                let (server, kind) = (ServerId(s as u32), CopyKind::Primary);
                batch.push(Assignment { task, server, kind });
            }
        }

        // Rule (clones): jobs by descending bonus, equal bonuses in view
        // order; within a job its running tasks in (phase, task) order
        // with their live copies, then its primaries of this batch in
        // batch order, one copy each. A task holding fewer than
        // `clones + 1` copies gets one clone, placed by the best-fit rule
        // above (largest `demand · room`, the lowest id on ties).
        if self.clones > 0 {
            let mut jobs: Vec<&JobState> = view.jobs().collect();
            jobs.sort_by(|a, b| bonus[&b.id()].total_cmp(&bonus[&a.id()]));
            for job in jobs {
                let mut candidates: Vec<(TaskRef, u32)> = job
                    .iter_running()
                    .map(|t| (t, job.task(t.phase, t.task).live_copies()))
                    .collect();
                let primaries = batch.iter().filter(|a| a.task.job == job.id());
                candidates.extend(primaries.map(|a| (a.task, 1)));
                for (task, copies) in candidates {
                    if copies > self.clones {
                        continue;
                    }
                    let Some(s) = best_fit(&free, demand(task)) else {
                        continue;
                    };
                    free[s] -= demand(task);
                    let (server, kind) = (ServerId(s as u32), CopyKind::Clone);
                    batch.push(Assignment { task, server, kind });
                }
            }
        }
        batch
    }
}

/// Run `fast` in lockstep with the reference `naive` on one seeded draw,
/// so a divergence names its first differing assignment, and assert that
/// the run's scrubbed report equals the reference's own run's.
fn agrees<S: Scheduler>(fast: &str, naive: impl Fn() -> S, seed: u64) {
    let mut rng = testkit::rng(seed);
    let cluster = testkit::cluster(&mut rng, 64);
    let jobs = testkit::jobs(&mut rng, 1..=40);
    let faults = if rng.gen_bool(0.5) {
        testkit::faults(seed, &cluster, 120)
    } else {
        FaultTimeline::empty()
    };
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let cfg = EngineConfig::default();
    let run = |policy: &mut dyn Scheduler| {
        try_simulate_with_faults(&cluster, jobs.clone(), &sampler, policy, &cfg, &faults).unwrap()
    };
    let fast = by_name(fast).expect("registered scheduler");
    let got = run(&mut Lockstep::new(fast, naive()));
    let want = run(&mut naive());
    assert_eq!(got.scrubbed(), want.scrubbed(), "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn drf_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("drf", || NaiveFair(Policy::Drf), seed);
    }

    #[test]
    fn carbyne_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("carbyne", || NaiveFair(Policy::Carbyne), seed);
    }

    #[test]
    fn tetris_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("tetris", || NaiveTetris { clones: 0 }, seed);
    }

    #[test]
    fn tetris_clone1_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("tetris+clone1", || NaiveTetris { clones: 1 }, seed);
    }

    #[test]
    fn dollymp0_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("dollymp0", || NaiveDollyMP::new(0), seed);
    }

    #[test]
    fn dollymp1_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("dollymp1", || NaiveDollyMP::new(1), seed);
    }

    #[test]
    fn dollymp2_matches_its_reference(seed in 0u64..1_000_000) {
        agrees("dollymp2", || NaiveDollyMP::new(2), seed);
    }
}
