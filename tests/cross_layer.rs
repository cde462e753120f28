//! Integration across the control-plane and persistence layers: the YARN
//! simulation vs the oracle scheduler, history warm-up, and trace
//! round-trips through JSON.

use dollymp::prelude::*;

fn recurring_workload(seed: u64, n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let j = dollymp::workload::apps::wordcount(JobId(i), 0, 4.0, seed);
            JobSpec::builder(JobId(i))
                .arrival(i * 5)
                .label("wordcount")
                .phase(j.phases()[0].clone())
                .phase(j.phases()[1].clone())
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn yarn_system_completes_and_archives_history() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = recurring_workload(42, 10);
    let sampler = DurationSampler::new(42, StragglerModel::ParetoFit);
    let history = HistoryRegistry::new();
    let mut yarn = YarnSystem::with_history(2, history.clone());
    let r = simulate(
        &cluster,
        jobs,
        &sampler,
        &mut yarn,
        &EngineConfig::default(),
    );
    assert_eq!(r.jobs.len(), 10);
    // Both wordcount phases now have priors.
    assert!(history.prior("wordcount", 0).is_some());
    assert!(history.prior("wordcount", 1).is_some());
    let (mean, std, n) = history.prior("wordcount", 0).unwrap();
    assert!(mean > 0.0 && std >= 0.0 && n >= 10);
}

#[test]
fn warm_history_recovers_the_short_before_long_order() {
    // Estimation only matters when durations differ but sizes do not:
    // two recurring apps, identical task counts and demands, one 10×
    // longer than the other. The cold AM guesses the same θ̂ for both
    // (no ordering signal); priors from one warm-up run let the RM put
    // the short app first — shrinking the gap to the oracle.
    let cluster = ClusterSpec::homogeneous(2, 8.0, 16.0);
    let mk = |id: u64, arrival, label: &str, theta: f64| {
        JobSpec::builder(JobId(id))
            .arrival(arrival)
            .label(label)
            .phase(dollymp::core::job::PhaseSpec::new(
                8,
                Resources::new(1.0, 2.0),
                theta,
                theta * 0.2,
            ))
            .build()
            .unwrap()
    };
    // Alternating short/long arrivals, all at once → ordering decides
    // everything.
    let jobs: Vec<JobSpec> = (0..12u64)
        .map(|i| {
            if i % 2 == 0 {
                mk(i, 0, "short", 4.0)
            } else {
                mk(i, 0, "long", 40.0)
            }
        })
        .collect();
    let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);

    let mut oracle = DollyMP::with_clones(0);
    let r_oracle = simulate(
        &cluster,
        jobs.clone(),
        &sampler,
        &mut oracle,
        &EngineConfig::default(),
    );

    let history = HistoryRegistry::new();
    let mut cold = YarnSystem::with_history(0, history.clone());
    let r_cold = simulate(
        &cluster,
        jobs.clone(),
        &sampler,
        &mut cold,
        &EngineConfig::default(),
    );
    let mut warm = YarnSystem::with_history(0, history.clone());
    let r_warm = simulate(
        &cluster,
        jobs,
        &sampler,
        &mut warm,
        &EngineConfig::default(),
    );

    let gap = |r: &SimReport| (r.total_flowtime() as f64 - r_oracle.total_flowtime() as f64).abs();
    assert!(
        gap(&r_warm) < gap(&r_cold),
        "warm gap {} must beat cold gap {} (oracle {}, cold {}, warm {})",
        gap(&r_warm),
        gap(&r_cold),
        r_oracle.total_flowtime(),
        r_cold.total_flowtime(),
        r_warm.total_flowtime()
    );
    // And the short jobs specifically finish earlier under warm history.
    let mean_short = |r: &SimReport| {
        let flows: Vec<f64> = r.jobs_labeled("short").map(|j| j.flowtime as f64).collect();
        flows.iter().sum::<f64>() / flows.len() as f64
    };
    assert!(mean_short(&r_warm) < mean_short(&r_cold));
}

#[test]
fn trace_round_trip_preserves_simulation_results() {
    let jobs = generate_google(&GoogleConfig {
        njobs: 60,
        mean_gap_slots: 2.0,
        seed: 31,
        ..Default::default()
    });
    let trace = Trace::new("round trip", jobs.clone());
    let parsed = Trace::from_json(&trace.to_json()).unwrap();

    let cluster = ClusterSpec::google_like(20, 31);
    let sampler = DurationSampler::new(31, StragglerModel::ParetoFit);
    let mut s1 = by_name("dollymp2").unwrap();
    let r1 = simulate(
        &cluster,
        jobs,
        &sampler,
        s1.as_mut(),
        &EngineConfig::default(),
    );
    let mut s2 = by_name("dollymp2").unwrap();
    let r2 = simulate(
        &cluster,
        parsed.jobs,
        &sampler,
        s2.as_mut(),
        &EngineConfig::default(),
    );
    // scheduling_ns is wall-clock; compare the simulation contents.
    assert_eq!(
        r1.jobs, r2.jobs,
        "serialization must not perturb the simulation"
    );
    assert_eq!(r1.makespan, r2.makespan);
}

#[test]
fn yarn_clone_budget_matches_request_budget() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = recurring_workload(17, 6);
    let sampler = DurationSampler::new(17, StragglerModel::ParetoFit);
    for clones in [0u32, 1, 2] {
        let mut yarn = YarnSystem::new(clones);
        let r = simulate(
            &cluster,
            jobs.clone(),
            &sampler,
            &mut yarn,
            &EngineConfig::default(),
        );
        for m in &r.jobs {
            assert!(
                m.clone_copies <= m.tasks * clones as u64,
                "yarn-dollymp{clones}: {} clones for {} tasks",
                m.clone_copies,
                m.tasks
            );
        }
    }
}

#[test]
fn faulted_yarn_run_replays_from_its_journal() {
    // The YARN control plane moves placements after DollyMP's pass; the
    // journal must still fold back into the live report byte for byte.
    let cluster = ClusterSpec::paper_30_node();
    let jobs = recurring_workload(23, 12);
    let faults = dollymp::faults::generate(
        &cluster,
        &FaultConfig::new(23, 200)
            .with_crash_rate(0.004, 10.0)
            .with_fail_slow(0.2, 0.5),
    );
    assert!(!faults.is_empty());
    let sampler = DurationSampler::new(23, StragglerModel::ParetoFit);
    let cfg = EngineConfig {
        record_utilization: true,
        ..EngineConfig::default()
    };
    let mut yarn = YarnSystem::new(2);
    let mut journal = dollymp_obs::journal::Journal::for_run(&yarn.name(), 23, &cfg, &cfg);
    let live = try_simulate_with_faults_recorded(
        &cluster,
        jobs,
        &sampler,
        &mut yarn,
        &cfg,
        &faults,
        &mut journal,
    )
    .unwrap();
    assert_eq!(live.scheduler, "yarn-dollymp2");
    assert!(
        live.faults.tasks_requeued > 0,
        "the faults hit running tasks"
    );
    if let Err(d) = dollymp_obs::replay::verify(&journal, &live) {
        panic!("yarn-dollymp2 replay diverged: {d}");
    }
}
