//! Cross-crate invariant tests: whatever the scheduler, the simulator
//! must conserve work, time and resources, and identical inputs must
//! yield identical outputs.

use dollymp::prelude::*;
use dollymp_testkit as testkit;

/// `n` jobs from the Google-like production generator.
fn google_jobs(seed: u64, n: u64) -> Vec<JobSpec> {
    generate_google(&GoogleConfig {
        njobs: n as usize,
        mean_gap_slots: 2.0,
        seed,
        ..Default::default()
    })
}

/// `(cluster, jobs, seed)`: a Google-like workload on `servers`
/// Google-like servers, then testkit draws at seeds 0..4 (branching DAG
/// jobs on heterogeneous racks).
fn inputs(seed: u64, servers: u32, njobs: u64) -> Vec<(ClusterSpec, Vec<JobSpec>, u64)> {
    let google = ClusterSpec::google_like(servers, seed);
    let mut all = vec![(google, google_jobs(seed, njobs), seed)];
    for s in 0..4 {
        let mut rng = testkit::rng(s);
        let cluster = testkit::cluster(&mut rng, 64);
        all.push((cluster, testkit::jobs(&mut rng, 1..=40), s));
    }
    all
}

fn all_schedulers() -> Vec<&'static str> {
    vec![
        "fifo",
        "capacity-nospec",
        "drf",
        "tetris",
        "tetris+clone1",
        "carbyne",
        "srpt",
        "svf",
        "dollymp0",
        "dollymp2",
    ]
}

#[test]
fn every_scheduler_satisfies_time_invariants() {
    for (cluster, jobs, seed) in inputs(77, 30, 120) {
        let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
        for name in all_schedulers() {
            let mut s = by_name(name).unwrap();
            let r = simulate(
                &cluster,
                jobs.clone(),
                &sampler,
                s.as_mut(),
                &EngineConfig::default(),
            );
            let name = format!("{name} on input {seed}");
            assert_eq!(r.jobs.len(), jobs.len(), "{name}: all jobs complete");
            let by = r.by_id();
            for spec in &jobs {
                let m = by[&spec.id];
                assert_eq!(m.arrival, spec.arrival, "{name}");
                assert!(m.first_start >= m.arrival, "{name}: start after arrival");
                assert!(m.finish > m.first_start, "{name}: positive running time");
                assert_eq!(m.flowtime, m.finish - m.arrival, "{name}");
                assert_eq!(m.running_time, m.finish - m.first_start, "{name}");
                // Each phase takes ≥ 1 slot, phases on the critical path are
                // sequential.
                assert!(
                    m.running_time >= spec.num_phases() as u64,
                    "{name}: running time below phase count"
                );
                assert!(m.usage > 0.0, "{name}: usage accrued");
                assert_eq!(m.tasks, spec.total_tasks(), "{name}");
            }
            assert_eq!(
                r.makespan,
                r.jobs.iter().map(|j| j.finish).max().unwrap(),
                "{name}"
            );
        }
    }
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let cluster = ClusterSpec::google_like(25, 5);
    let jobs = google_jobs(5, 80);
    let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
    for name in ["dollymp2", "tetris", "capacity-nospec"] {
        let mut s1 = by_name(name).unwrap();
        let r1 = simulate(
            &cluster,
            jobs.clone(),
            &sampler,
            s1.as_mut(),
            &EngineConfig::default(),
        );
        let mut s2 = by_name(name).unwrap();
        let r2 = simulate(
            &cluster,
            jobs.clone(),
            &sampler,
            s2.as_mut(),
            &EngineConfig::default(),
        );
        // scheduling_ns is wall-clock and legitimately varies; everything
        // that describes the simulation itself must be identical.
        assert_eq!(r1.jobs, r2.jobs, "{name}: same inputs ⇒ same outputs");
        assert_eq!(r1.makespan, r2.makespan, "{name}");
        assert_eq!(r1.decision_points, r2.decision_points, "{name}");
    }
}

#[test]
fn different_seeds_change_outcomes_but_not_job_counts() {
    let cluster = ClusterSpec::google_like(25, 5);
    let jobs = google_jobs(5, 60);
    let a = DurationSampler::new(5, StragglerModel::ParetoFit);
    let b = DurationSampler::new(6, StragglerModel::ParetoFit);
    let mut s1 = by_name("dollymp2").unwrap();
    let r1 = simulate(
        &cluster,
        jobs.clone(),
        &a,
        s1.as_mut(),
        &EngineConfig::default(),
    );
    let mut s2 = by_name("dollymp2").unwrap();
    let r2 = simulate(
        &cluster,
        jobs.clone(),
        &b,
        s2.as_mut(),
        &EngineConfig::default(),
    );
    assert_eq!(r1.jobs.len(), r2.jobs.len());
    assert_ne!(r1.total_flowtime(), r2.total_flowtime());
}

#[test]
fn clone_budgets_are_never_exceeded() {
    for (cluster, jobs, seed) in inputs(13, 40, 100) {
        let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
        for (name, max_extra) in [
            ("dollymp0", 0u64),
            ("dollymp1", 1),
            ("dollymp2", 2),
            ("dollymp3", 3),
        ] {
            let mut s = by_name(name).unwrap();
            let r = simulate(
                &cluster,
                jobs.clone(),
                &sampler,
                s.as_mut(),
                &EngineConfig::default(),
            );
            let name = format!("{name} on input {seed}");
            for m in &r.jobs {
                assert!(
                    m.clone_copies <= m.tasks * max_extra,
                    "{name}: job {} launched {} clones for {} tasks",
                    m.id.0,
                    m.clone_copies,
                    m.tasks
                );
                assert!(m.tasks_cloned <= m.tasks, "{name}");
                if max_extra == 0 {
                    assert_eq!(m.clone_copies, 0, "{name} must never clone");
                }
            }
        }
    }
}

#[test]
fn paired_durations_make_no_clone_schedulers_agree_on_isolated_jobs() {
    // A single job alone in the cluster: any work-conserving non-cloning
    // scheduler must produce the same makespan, because placement freedom
    // only matters under contention and durations are paired...
    // Heterogeneous speeds break that, so use a homogeneous cluster.
    let cluster = ClusterSpec::homogeneous(8, 8.0, 16.0);
    let job = JobSpec::single_phase(JobId(0), 12, Resources::new(2.0, 4.0), 9.0, 3.0);
    let sampler = DurationSampler::new(3, StragglerModel::ParetoFit);
    let mut outcomes = Vec::new();
    for name in ["fifo", "srpt", "svf", "drf", "tetris", "dollymp0"] {
        let mut s = by_name(name).unwrap();
        let r = simulate(
            &cluster,
            vec![job.clone()],
            &sampler,
            s.as_mut(),
            &EngineConfig::default(),
        );
        outcomes.push((name, r.jobs[0].flowtime));
    }
    let first = outcomes[0].1;
    for (name, f) in &outcomes {
        assert_eq!(*f, first, "{name} diverged: {outcomes:?}");
    }
}

#[test]
fn usage_accounting_matches_hand_computation() {
    // Deterministic single job, no clones: usage = Σ tasks (cpu/ΣC +
    // mem/ΣM) × duration.
    let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0); // totals (8, 16)
    let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 2.0), 6.0, 0.0);
    let sampler = DurationSampler::new(1, StragglerModel::Deterministic);
    let mut s = by_name("fifo").unwrap();
    let r = simulate(
        &cluster,
        vec![job],
        &sampler,
        s.as_mut(),
        &EngineConfig::default(),
    );
    // Per task: (1/8 + 2/16) × 6 = 1.5; 4 tasks → 6.0.
    assert!((r.jobs[0].usage - 6.0).abs() < 1e-9);
}
