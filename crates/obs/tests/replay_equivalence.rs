//! The acceptance suite for the flight recorder: record → replay must
//! reproduce the live `SimReport` byte-for-byte for every scheduler
//! family, with and without fault timelines, whether runs execute
//! sequentially or fanned out on the rayon backend. This generalizes
//! the bespoke equivalence suites of earlier refactors — any future
//! engine/scheduler change that perturbs observable behavior surfaces
//! here as a typed `Divergence`.

use dollymp_cluster::prelude::*;
use dollymp_core::job::JobSpec;
use dollymp_obs::journal::Journal;
use dollymp_obs::replay;
use dollymp_schedulers::{AdversarialConfig, AdversarialScheduler};
use dollymp_testkit as testkit;
use proptest::prelude::*;

const SCHEDULERS: [&str; 4] = ["dollymp2", "dollymp0", "fifo", "tetris"];

/// A testkit draw: up to 8 servers on up to 3 racks, 1–12 DAG jobs, and
/// (when asked) a timeline of crashes, rack blackouts and fail-slow
/// onsets.
fn instance(seed: u64, with_faults: bool) -> (ClusterSpec, Vec<JobSpec>, FaultTimeline) {
    let mut rng = testkit::rng(seed);
    let cluster = testkit::cluster(&mut rng, 8);
    let jobs = testkit::jobs(&mut rng, 1..=12);
    let faults = if with_faults {
        testkit::faults(seed, &cluster, 120)
    } else {
        FaultTimeline::empty()
    };
    (cluster, jobs, faults)
}

fn run_recorded(name: &str, seed: u64, with_faults: bool) -> (Journal, SimReport) {
    let (cluster, jobs, timeline) = instance(seed, with_faults);
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let cfg = EngineConfig {
        record_utilization: true,
        ..EngineConfig::default()
    };
    let mut policy = dollymp_schedulers::by_name(name).expect("known scheduler");
    let mut journal = Journal::for_run(name, seed, &cfg, &cfg);
    let report = try_simulate_with_faults_recorded(
        &cluster,
        jobs,
        &sampler,
        &mut policy,
        &cfg,
        &timeline,
        &mut journal,
    )
    .unwrap();
    (journal, report)
}

/// Zero the wall-clock nanosecond fields of a journal's spans so two
/// runs of the same configuration compare byte-equal (event *order* and
/// every simulation-domain value are deterministic; ns timings are not).
fn scrub_spans(mut j: Journal) -> Journal {
    for ev in &mut j.events {
        if let dollymp_cluster::trace::Event::SchedSpan {
            arrival_ns,
            schedule_ns,
            detail,
            ..
        } = ev
        {
            *arrival_ns = 0;
            *schedule_ns = 0;
            *detail = None;
        }
    }
    j
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every scheduler family, with and without faults: the journal
    /// replays to the byte-identical live report.
    #[test]
    fn replay_is_byte_identical(seed in 0u64..1_000) {
        for name in SCHEDULERS {
            for with_faults in [false, true] {
                let (journal, live) = run_recorded(name, seed, with_faults);
                prop_assert!(!journal.events.is_empty());
                if let Err(d) = replay::verify(&journal, &live) {
                    prop_assert!(false, "{name} faults={with_faults}: {d}");
                }
                // And through the JSONL round trip: what a reader loads
                // from disk replays identically too.
                let reloaded = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
                if let Err(d) = replay::verify(&reloaded, &live) {
                    prop_assert!(false, "{name} faults={with_faults} after JSONL: {d}");
                }
            }
        }
    }
}

/// The rayon fan-out backend records the same journals (modulo
/// wall-clock spans) and every parallel run still verifies against its
/// own live report.
#[test]
fn rayon_backend_matches_sequential() {
    let cases: Vec<(&str, bool)> = SCHEDULERS
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let parallel = rayon::par_map_slice(&cases, &|&(name, wf)| run_recorded(name, 42, wf));
    for ((name, wf), (journal, live)) in cases.iter().zip(&parallel) {
        assert_eq!(
            *wf,
            live.faults.server_crashes > 0,
            "{name}: the draw's faults fire"
        );
        replay::verify(journal, live).unwrap_or_else(|d| panic!("{name} faults={wf} (rayon): {d}"));
        let (seq_journal, seq_live) = run_recorded(name, 42, *wf);
        assert_eq!(
            scrub_spans(seq_journal).to_jsonl(),
            scrub_spans(journal.clone()).to_jsonl(),
            "{name} faults={wf}: journal differs across backends"
        );
        assert_eq!(
            serde_json::to_string(&seq_live.scrubbed()).unwrap(),
            serde_json::to_string(&live.clone().scrubbed()).unwrap(),
            "{name} faults={wf}: live report differs across backends"
        );
    }
}

/// A guarded run of a hostile policy exercises the `GuardDelta` stream:
/// the replayed report reproduces nonzero containment counters exactly.
#[test]
fn guarded_hostile_run_replays_guard_stats() {
    let (cluster, jobs, _) = instance(7, false);
    let sampler = DurationSampler::new(7, StragglerModel::ParetoFit);
    let cfg = EngineConfig::default();
    let hostile = AdversarialScheduler::with_config(AdversarialConfig {
        overcommit: true,
        duplicate: true,
        ..AdversarialConfig::default()
    });
    let mut policy = GuardedScheduler::new(hostile);
    let mut journal = Journal::for_run(&policy.name(), 7, &cfg, &cfg);
    let report = try_simulate_with_faults_recorded(
        &cluster,
        jobs,
        &sampler,
        &mut policy,
        &cfg,
        &FaultTimeline::empty(),
        &mut journal,
    )
    .unwrap();
    assert!(
        report.guard.total_rejections() > 0,
        "hostile policy should have been contained at least once"
    );
    replay::verify(&journal, &report).unwrap();
}

/// The `NullRecorder` path and the recorded path produce identical
/// simulation outcomes — recording is purely observational.
#[test]
fn recording_does_not_perturb_the_simulation() {
    for name in SCHEDULERS {
        let (journal, recorded) = run_recorded(name, 2, true);
        assert!(!journal.events.is_empty());
        assert!(
            recorded.faults.copies_evicted > 0,
            "{name}: a crash hits a copy"
        );
        let (cluster, jobs, faults) = instance(2, true);
        let sampler = DurationSampler::new(2, StragglerModel::ParetoFit);
        let cfg = EngineConfig {
            record_utilization: true,
            ..EngineConfig::default()
        };
        let mut policy = dollymp_schedulers::by_name(name).unwrap();
        let plain =
            try_simulate_with_faults(&cluster, jobs, &sampler, &mut policy, &cfg, &faults).unwrap();
        assert_eq!(
            serde_json::to_string(&plain.scrubbed()).unwrap(),
            serde_json::to_string(&recorded.scrubbed()).unwrap(),
            "{name}: recording changed the simulation outcome"
        );
    }
}

/// Behaves like [`FifoFirstFit`] but panics in the run's final
/// `on_job_finish`, after the last decision pass.
struct PanicsOnLastFinish {
    unfinished: usize,
}

impl Scheduler for PanicsOnLastFinish {
    fn name(&self) -> String {
        "panics-on-last-finish".into()
    }

    fn on_job_finish(&mut self, _job: &JobState) {
        self.unfinished -= 1;
        if self.unfinished == 0 {
            panic!("policy fault in the final on_job_finish");
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        FifoFirstFit.schedule(view)
    }
}

/// The guard's last containment change can land after the last decision
/// pass; the journal must still carry it, so the replayed report keeps
/// the panic and the quarantine slot.
#[test]
fn guard_change_after_the_last_pass_replays() {
    let (cluster, jobs, _) = instance(7, false);
    let sampler = DurationSampler::new(7, StragglerModel::ParetoFit);
    let cfg = EngineConfig::default();
    let mut policy = GuardedScheduler::new(PanicsOnLastFinish {
        unfinished: jobs.len(),
    });
    let mut journal = Journal::for_run(&policy.name(), 7, &cfg, &cfg);
    let report = try_simulate_with_faults_recorded(
        &cluster,
        jobs,
        &sampler,
        &mut policy,
        &cfg,
        &FaultTimeline::empty(),
        &mut journal,
    )
    .unwrap();
    assert_eq!(report.guard.policy_panics, 1);
    assert_eq!(report.guard.quarantined_at, Some(report.makespan));
    replay::verify(&journal, &report).unwrap();
}
