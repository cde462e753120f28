//! Cross-crate acceptance tests for the containment layer (PR 3's
//! tentpole): an adversarial policy under `GuardedScheduler` can never
//! take a run down, across arbitrary fault timelines — and a
//! well-behaved policy under the guard produces reports byte-identical
//! to the unguarded path.

use dollymp::prelude::*;
use dollymp::schedulers::{AdversarialConfig, AdversarialScheduler};
use dollymp_cluster::guard::GuardConfig;
use dollymp_testkit::{self as testkit, Lockstep};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline containment property: the adversary (over-commits,
    /// targets down servers, duplicates copies, names unknown jobs,
    /// stalls, panics, busy-waits past the budget) under the guard,
    /// on an arbitrary fault timeline, never panics the engine, still
    /// completes every job, and leaves a nonzero audit trail.
    ///
    /// At least 8 jobs: a run of one small job can drain before the
    /// third strike that quarantines the adversary.
    #[test]
    fn guarded_adversary_never_takes_a_run_down(seed in 0u64..10_000) {
        let mut rng = testkit::rng(seed);
        let cluster = testkit::cluster(&mut rng, 8);
        let jobs = testkit::jobs(&mut rng, 8..=16);
        let njobs = jobs.len();
        let faults = testkit::faults(seed, &cluster, 60);
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let mut guard = dollymp_cluster::guard::GuardedScheduler::with_config(
            AdversarialScheduler::with_config(AdversarialConfig::full_hostility()),
            GuardConfig {
                budget: std::time::Duration::from_micros(200),
                ..GuardConfig::default()
            },
        );
        let report = try_simulate_with_faults(
            &cluster,
            jobs,
            &sampler,
            &mut guard,
            &EngineConfig::default(),
            &faults,
        );
        let report = report.expect("guard must contain the adversary");
        prop_assert_eq!(report.jobs.len(), njobs, "every job completes");
        prop_assert!(!report.guard.is_clean(), "misbehaviour leaves a trail");
        prop_assert!(report.guard.total_rejections() > 0);
        // The panic attack only fires if strikes have not already
        // quarantined the adversary; either way it ends quarantined.
        prop_assert!(report.guard.policy_panics <= 1);
        prop_assert!(report.guard.quarantined_at.is_some(), "offender quarantined");
        prop_assert!(report.guard.fallback_passes > 0, "fallback finished the run");
    }

    /// Transparency: wrapping a well-behaved policy changes nothing —
    /// in lockstep with the unguarded policy every guarded batch is the
    /// same, the guarded report is byte-identical to the unguarded one
    /// (after zeroing wall-clock timings) and its guard stats are all
    /// zero.
    #[test]
    fn guard_is_transparent_for_well_behaved_policies(seed in 0u64..10_000) {
        let mut rng = testkit::rng(seed);
        let cluster = testkit::cluster(&mut rng, 8);
        let jobs = testkit::jobs(&mut rng, 1..=16);
        let faults = testkit::faults(seed, &cluster, 60);
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let cfg = EngineConfig::default();
        for name in ["fifo", "dollymp2"] {
            let policy = || dollymp::schedulers::by_name(name).expect("known policy");
            let mut plain = policy();
            let unguarded = try_simulate_with_faults(
                &cluster, jobs.clone(), &sampler, &mut plain, &cfg, &faults,
            ).unwrap();
            let mut lockstep = Lockstep::new(GuardedScheduler::new(policy()), policy());
            let guarded = try_simulate_with_faults(
                &cluster, jobs.clone(), &sampler, &mut lockstep, &cfg, &faults,
            ).unwrap();
            prop_assert!(guarded.guard.is_clean(), "{}: no interventions", name);
            prop_assert_eq!(unguarded.scrubbed(), guarded.scrubbed(), "{} must be unchanged", name);
        }
    }
}

/// Strict mode still refuses the adversary: `try_simulate_with_faults`
/// returns a typed error (never panics), and the error maps onto the
/// taxonomy.
#[test]
fn strict_mode_rejects_the_adversary_with_typed_errors() {
    let mut rng = testkit::rng(77);
    let cluster = testkit::cluster(&mut rng, 8);
    let jobs = testkit::jobs(&mut rng, 6..=6);
    let sampler = DurationSampler::new(77, StragglerModel::ParetoFit);
    let mut adv = AdversarialScheduler::new();
    let (cfg, faults) = (EngineConfig::default(), FaultTimeline::empty());
    let err = try_simulate_with_faults(&cluster, jobs, &sampler, &mut adv, &cfg, &faults)
        .expect_err("strict mode must refuse");
    // Whatever attack fired first, it lands in the shared taxonomy.
    let _reason: RejectReason = err.reason();
}

/// A well-behaved, self-consistent policy that clones aggressively from
/// leftover capacity — the kind of speculation the throttle exists to
/// suppress under saturation.
struct CloneHappy;

impl Scheduler for CloneHappy {
    fn name(&self) -> String {
        "clone-happy".into()
    }
    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut out = FifoFirstFit.schedule(view);
        for a in &out {
            let demand = view
                .job(a.task.job)
                .map(|j| j.spec().phase(a.task.phase).demand)
                .unwrap_or(Resources::ZERO);
            free[a.server.0 as usize] -= demand;
        }
        // One clone per running task into whatever is left.
        for job in view.jobs() {
            for task in job.iter_running() {
                if job.task(task.phase, task.task).live_copies() >= 2 {
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

/// The guard under overload config still completes a saturated workload
/// and its saturation signal suppresses clone launches while the
/// cluster is hot.
#[test]
fn overload_guard_throttles_clones_under_saturation() {
    let cluster = ClusterSpec::homogeneous(4, 4.0, 8.0);
    // Everything arrives at once: 96 tasks on 16 task-slots of capacity
    // means sustained saturation for most of the run.
    let jobs: Vec<JobSpec> = (0..24u64)
        .map(|i| JobSpec::single_phase(JobId(i), 4, Resources::new(1.0, 2.0), 10.0, 4.0))
        .collect();
    let sampler = DurationSampler::new(9, StragglerModel::ParetoFit);
    let mut guard = dollymp_cluster::guard::GuardedScheduler::with_config(
        CloneHappy,
        GuardConfig {
            // The 16-slot cluster quantizes utilization in 1/16 steps, so
            // "saturated" here is ≥90% (15 of 16 slots busy).
            clone_throttle: Some(dollymp_cluster::guard::CloneThrottle {
                high: 0.90,
                low: 0.50,
            }),
            ..GuardConfig::default()
        },
    );
    let report = simulate(
        &cluster,
        jobs,
        &sampler,
        &mut guard,
        &EngineConfig::default(),
    );
    assert_eq!(report.jobs.len(), 24);
    assert!(
        report.guard.clones_throttled > 0,
        "saturation must suppress clone launches: {:?}",
        report.guard
    );
    assert!(
        report.guard.quarantined_at.is_none(),
        "no offence committed"
    );
}

/// The YARN control plane moves DollyMP's placements after its pass
/// (primaries onto block replicas, clones off servers that host a copy
/// of their task). Every move must stay admissible: on the golden
/// corpus's 30-node setup with its fault timeline, the strict engine
/// accepts every batch, and the guard rejects nothing and changes
/// nothing.
#[test]
fn yarn_placement_moves_stay_admissible_under_faults() {
    let seed = 7;
    let cluster = ClusterSpec::paper_30_node();
    let jobs = generate_google(&GoogleConfig {
        njobs: 40,
        mean_gap_slots: 2.0,
        seed,
        ..Default::default()
    });
    let faults = dollymp::faults::generate(
        &cluster,
        &FaultConfig::new(seed, 300)
            .with_crash_rate(0.004, 10.0)
            .with_fail_slow(0.2, 0.5),
    );
    assert!(!faults.is_empty(), "the setup exercises downed servers");
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let cfg = EngineConfig::default();
    let strict = try_simulate_with_faults(
        &cluster,
        jobs.clone(),
        &sampler,
        &mut YarnSystem::new(2),
        &cfg,
        &faults,
    )
    .expect("the strict engine accepts every batch");
    let mut guard = dollymp_cluster::guard::GuardedScheduler::new(YarnSystem::new(2));
    let guarded =
        try_simulate_with_faults(&cluster, jobs, &sampler, &mut guard, &cfg, &faults).unwrap();
    assert_eq!(guarded.guard.total_rejections(), 0, "{:?}", guarded.guard);
    assert_eq!(strict.scrubbed(), guarded.scrubbed());
}
