//! Engine fuzzing: a randomized (but validity-respecting) scheduler makes
//! chaotic placement and cloning decisions across many seeds; whatever it
//! does, the engine must uphold its conservation laws — every job
//! completes, no resource leaks (the engine debug-asserts free ==
//! capacity on drain), copy budgets hold, time never runs backwards.
//! Instances are `dollymp-testkit` draws: DAG jobs on heterogeneous
//! racks, under crashes that overlap rack blackouts.

use dollymp_cluster::metrics::CopyOutcome;
use dollymp_cluster::prelude::*;
use dollymp_cluster::trace::copy_spans;
use dollymp_core::resources::Resources;
use dollymp_testkit as testkit;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Places a random subset of ready tasks on random fitting servers and
/// occasionally clones random running tasks — always self-consistent
/// (tracks its own tentative commitments) and never stalls (it places at
/// least one task whenever nothing is running).
struct ChaosScheduler {
    rng: SmallRng,
    max_copies: u32,
}

impl ChaosScheduler {
    fn new(seed: u64) -> Self {
        ChaosScheduler {
            rng: SmallRng::seed_from_u64(seed),
            max_copies: 3,
        }
    }
}

impl Scheduler for ChaosScheduler {
    fn name(&self) -> String {
        "chaos".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut out = Vec::new();
        let mut placed_any_running = view.jobs().any(|j| j.iter_running().next().is_some());

        // Primaries: each ready task is placed with probability 0.7, on a
        // uniformly random fitting server.
        for job in view.jobs() {
            for task in job.iter_ready() {
                let demand = job.spec().phase(task.phase).demand;
                let must_place = !placed_any_running && out.is_empty();
                if !must_place && self.rng.gen_bool(0.3) {
                    continue;
                }
                let fitting: Vec<usize> = (0..free.len())
                    .filter(|&s| demand.fits_in(free[s]))
                    .collect();
                if let Some(&s) = fitting.get(self.rng.gen_range(0..fitting.len().max(1))) {
                    free[s] -= demand;
                    out.push(Assignment {
                        task,
                        server: ServerId(s as u32),
                        kind: CopyKind::Primary,
                    });
                    placed_any_running = true;
                }
            }
        }
        // Clones: random running tasks under the copy budget.
        for job in view.jobs() {
            for task in job.iter_running() {
                if job.task(task.phase, task.task).live_copies() >= self.max_copies {
                    continue;
                }
                if self.rng.gen_bool(0.7) {
                    continue;
                }
                let demand = job.spec().phase(task.phase).demand;
                if let Some(s) = (0..free.len()).find(|&s| demand.fits_in(free[s])) {
                    free[s] -= demand;
                    out.push(Assignment {
                        task,
                        server: ServerId(s as u32),
                        kind: CopyKind::Clone,
                    });
                }
            }
        }
        out
    }
}

/// Merged per-server down windows `[crash, restore)` implied by a
/// timeline (a window stays open while the per-server down-count is
/// positive).
fn down_windows(faults: &FaultTimeline, nservers: usize) -> Vec<Vec<(u64, u64)>> {
    let mut depth = vec![0u32; nservers];
    let mut open = vec![0u64; nservers];
    let mut windows = vec![Vec::new(); nservers];
    for f in faults.events() {
        let s = match f.event {
            FaultEvent::Crash(s) => {
                let i = s.0 as usize;
                depth[i] += 1;
                if depth[i] == 1 {
                    open[i] = f.at;
                }
                continue;
            }
            FaultEvent::Restore(s) => s,
            FaultEvent::Degrade(..) => continue,
        };
        let i = s.0 as usize;
        depth[i] -= 1;
        if depth[i] == 0 {
            windows[i].push((open[i], f.at));
        }
    }
    for (i, &d) in depth.iter().enumerate() {
        if d > 0 {
            windows[i].push((open[i], u64::MAX));
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the chaos scheduler does, the engine's invariants hold.
    #[test]
    fn engine_survives_chaotic_scheduling(seed in 0u64..10_000) {
        let mut rng = testkit::rng(seed);
        let cluster = testkit::cluster(&mut rng, 8);
        let jobs = testkit::jobs(&mut rng, 1..=12);
        let total_tasks: u64 = jobs.iter().map(|j| j.total_tasks()).sum();
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let mut chaos = ChaosScheduler::new(seed ^ 0xC0FFEE);
        let r = simulate(&cluster, jobs.clone(), &sampler, &mut chaos, &EngineConfig::default());

        prop_assert_eq!(r.jobs.len(), jobs.len());
        let mut seen = std::collections::HashSet::new();
        for m in &r.jobs {
            prop_assert!(seen.insert(m.id), "job completed twice");
            prop_assert!(m.first_start >= m.arrival);
            prop_assert!(m.finish > m.first_start);
            prop_assert!(m.usage > 0.0);
            prop_assert!(m.tasks_cloned <= m.tasks);
            prop_assert!(m.clone_copies <= m.tasks * 2, "≤ 2 clones per task");
        }
        let reported_tasks: u64 = r.jobs.iter().map(|m| m.tasks).sum();
        prop_assert_eq!(reported_tasks, total_tasks);
        prop_assert_eq!(r.makespan, r.jobs.iter().map(|m| m.finish).max().unwrap());
    }

    /// Chaos with a periodic tick behaves identically w.r.t. invariants.
    #[test]
    fn engine_survives_chaos_with_ticks(seed in 0u64..3_000) {
        let mut rng = testkit::rng(seed);
        let cluster = testkit::cluster(&mut rng, 8);
        let jobs = testkit::jobs(&mut rng, 1..=8);
        let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
        let cfg = EngineConfig { tick: Some(2), ..Default::default() };
        let mut chaos = ChaosScheduler::new(seed);
        let r = simulate(&cluster, jobs.clone(), &sampler, &mut chaos, &cfg);
        prop_assert_eq!(r.jobs.len(), jobs.len());
    }

    /// Chaotic scheduling under chaotic faults: every job still
    /// completes, the fault counters are mutually consistent, no copy
    /// ever runs inside a server's down window, and the whole run is a
    /// deterministic function of (seed, timeline).
    #[test]
    fn engine_upholds_invariants_under_faults(seed in 0u64..5_000) {
        let mut rng = testkit::rng(seed);
        let cluster = testkit::cluster(&mut rng, 8);
        let jobs = testkit::jobs(&mut rng, 1..=10);
        let faults = testkit::faults(seed, &cluster, 80);
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let cfg = EngineConfig::default();

        let run = |s: u64| {
            let mut chaos = ChaosScheduler::new(s ^ 0xC0FFEE);
            let mut events: Vec<TraceEvent> = Vec::new();
            let r = try_simulate_with_faults_recorded(
                &cluster, jobs.clone(), &sampler, &mut chaos, &cfg, &faults, &mut events,
            ).unwrap().scrubbed();
            (r, copy_spans(&events))
        };
        let (r, timeline) = run(seed);

        // Work conservation: faults delay jobs, they never lose them.
        prop_assert_eq!(r.jobs.len(), jobs.len());
        let total_tasks: u64 = jobs.iter().map(|j| j.total_tasks()).sum();
        let reported_tasks: u64 = r.jobs.iter().map(|m| m.tasks).sum();
        prop_assert_eq!(reported_tasks, total_tasks);

        // Counter consistency.
        let f = &r.faults;
        prop_assert!(f.tasks_requeued <= f.copies_evicted, "a requeue needs an eviction");
        prop_assert!(f.tasks_saved_by_clone + f.tasks_requeued <= f.copies_evicted);
        prop_assert!(f.server_recoveries <= f.server_crashes);
        prop_assert!(f.server_crashes <= faults.crash_count() as u64);
        prop_assert!(f.work_lost_norm.is_finite() && f.work_lost_norm >= 0.0);
        prop_assert!((f.copies_evicted == 0) == (f.work_lost_norm == 0.0));

        // No copy overlaps a down window of its server: a span may end
        // exactly at the crash slot (evicted or just-finished) and may
        // start exactly at the restore slot, never in between.
        let windows = down_windows(&faults, cluster.len());
        for span in &timeline {
            for &(c, rst) in &windows[span.server.0 as usize] {
                prop_assert!(
                    span.end <= c || span.start >= rst,
                    "copy {:?} [{}, {}) on server {} overlaps down window [{}, {})",
                    span.task, span.start, span.end, span.server.0, c, rst
                );
            }
        }

        // Determinism: an identical rerun reproduces the report and the
        // copy spans bit-wise.
        let (r2, timeline2) = run(seed);
        prop_assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&timeline).unwrap(),
            serde_json::to_string(&timeline2).unwrap()
        );
    }

    /// Recording is observational: a zero-fault run through the recorded
    /// entry point is byte-identical to the plain `simulate` path (which
    /// is the same run with no recorder), and the recorded copy spans
    /// account for exactly the plain report's tasks and clones.
    #[test]
    fn empty_fault_timeline_is_byte_identical(seed in 0u64..3_000) {
        let mut rng = testkit::rng(seed);
        let cluster = testkit::cluster(&mut rng, 8);
        let jobs = testkit::jobs(&mut rng, 1..=8);
        let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
        let cfg = EngineConfig::default();
        let mut a = ChaosScheduler::new(seed);
        let plain = simulate(&cluster, jobs.clone(), &sampler, &mut a, &cfg).scrubbed();
        let mut b = ChaosScheduler::new(seed);
        let mut events: Vec<TraceEvent> = Vec::new();
        let faulty = try_simulate_with_faults_recorded(
            &cluster, jobs.clone(), &sampler, &mut b, &cfg, &FaultTimeline::empty(), &mut events,
        ).unwrap().scrubbed();
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&faulty).unwrap()
        );
        // `simulate` takes no recorder, so the plain run's spans are
        // checked against its report: one winner per task, one span per
        // clone, nothing evicted, the last span ending at the finish.
        let spans = copy_spans(&events);
        prop_assert!(spans.iter().all(|c| c.outcome != CopyOutcome::Evicted));
        for job in &plain.jobs {
            let mine: Vec<_> = spans.iter().filter(|c| c.task.job == job.id).collect();
            let won = mine.iter().filter(|c| c.outcome == CopyOutcome::Won).count() as u64;
            let clones = mine.iter().filter(|c| c.kind == CopyKind::Clone).count() as u64;
            prop_assert_eq!(won, job.tasks);
            prop_assert_eq!(clones, job.clone_copies);
            prop_assert_eq!(mine.iter().map(|c| c.end).max(), Some(job.finish));
        }
    }
}
