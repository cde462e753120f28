//! End-to-end integration tests asserting the paper's *qualitative*
//! claims — the orderings and ratios its figures report — on scaled-down
//! versions of the actual experiments. These are the "shape" contracts of
//! EXPERIMENTS.md, wired into `cargo test`.

use dollymp::prelude::*;

fn run(
    name: &str,
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    sampler: &DurationSampler,
) -> SimReport {
    let mut s = by_name(name).unwrap_or_else(|| panic!("unknown scheduler {name}"));
    simulate(
        cluster,
        jobs.to_vec(),
        sampler,
        s.as_mut(),
        &engine_cfg_for(name),
    )
}

/// Fig. 2 — the worked example is fully deterministic and must match the
/// paper's totals exactly: Tetris 46, Tetris+clone 42, small-first 34,
/// DollyMP¹ 28.
#[test]
fn fig2_worked_example_totals_match_exactly() {
    let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
    let jobs = vec![
        JobSpec::single_phase(JobId(1), 1, Resources::new(0.80, 0.80), 10.0, 0.0),
        JobSpec::single_phase(JobId(2), 1, Resources::new(0.25, 0.25), 8.0, 0.0),
        JobSpec::single_phase(JobId(3), 1, Resources::new(0.25, 0.25), 8.0, 0.0),
    ];
    let sampler = DurationSampler::new(0, StragglerModel::ExpectedSpeedup { alpha: 2.5 });
    for (name, expected) in [
        ("tetris", 46),
        ("tetris+clone1", 42),
        ("dollymp0", 34),
        ("dollymp1", 28),
    ] {
        let r = run(name, &cluster, &jobs, &sampler);
        assert_eq!(r.total_flowtime(), expected, "{name}");
    }
}

/// Fig. 1 — the cloning variants must beat Capacity on the repeated
/// WordCount workload and be markedly more stable.
#[test]
fn fig1_cloning_stabilizes_repeated_jobs() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = dollymp::workload::suite::fig1_wordcount(1);
    let sampler = DurationSampler::new(1, StragglerModel::ParetoFit);
    let cap = run("capacity", &cluster, &jobs, &sampler);
    let d2 = run("dollymp2", &cluster, &jobs, &sampler);
    assert!(
        d2.mean_running_time() < cap.mean_running_time(),
        "DollyMP² must cut the mean running time ({} vs {})",
        d2.mean_running_time(),
        cap.mean_running_time()
    );
    // Stability: max/min run-time spread is tighter under DollyMP².
    let spread = |r: &SimReport| {
        let runs: Vec<u64> = r.jobs.iter().map(|j| j.running_time).collect();
        *runs.iter().max().unwrap() as f64 / *runs.iter().min().unwrap() as f64
    };
    assert!(
        spread(&d2) <= spread(&cap),
        "DollyMP² spread {} must not exceed capacity's {}",
        spread(&d2),
        spread(&cap)
    );
}

/// Fig. 4 — lightly loaded: DollyMP² beats DollyMP⁰ and the Capacity
/// scheduler on total flowtime; DollyMP¹/² beat DollyMP⁰.
#[test]
fn fig4_light_load_ordering() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = dollymp::workload::suite::light_load(4, 4); // 25 jobs
    let sampler = DurationSampler::new(4, StragglerModel::ParetoFit);
    let cap = run("capacity-nospec", &cluster, &jobs, &sampler).total_flowtime();
    let d0 = run("dollymp0", &cluster, &jobs, &sampler).total_flowtime();
    let d1 = run("dollymp1", &cluster, &jobs, &sampler).total_flowtime();
    let d2 = run("dollymp2", &cluster, &jobs, &sampler).total_flowtime();
    assert!(d2 < cap, "DollyMP² {d2} vs Capacity {cap}");
    assert!(d1 < d0, "DollyMP¹ {d1} vs DollyMP⁰ {d0}");
    assert!(d2 <= d1, "DollyMP² {d2} vs DollyMP¹ {d1}");
}

/// Figs. 5–7 — heavily loaded: DollyMP² beats Tetris and Capacity on
/// total flowtime for both applications.
#[test]
fn fig5_to_7_heavy_load_ordering() {
    let cluster = ClusterSpec::paper_30_node();
    let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
    for jobs in [
        dollymp::workload::suite::heavy_pagerank(5, 10),
        dollymp::workload::suite::heavy_wordcount(5, 10),
    ] {
        let tetris = run("tetris", &cluster, &jobs, &sampler).total_flowtime();
        let capacity = run("capacity-nospec", &cluster, &jobs, &sampler).total_flowtime();
        let d2 = run("dollymp2", &cluster, &jobs, &sampler).total_flowtime();
        assert!(d2 < tetris, "DollyMP² {d2} vs Tetris {tetris}");
        assert!(d2 < capacity, "DollyMP² {d2} vs Capacity {capacity}");
    }
}

/// Fig. 8 — trace simulation: DollyMP² speeds most jobs up vs Tetris and
/// costs more resources than DRF, but far less than the naïve 3× bound.
#[test]
fn fig8_trace_ratios_shape() {
    let cluster = ClusterSpec::google_like(60, 8);
    let jobs = generate_google(&GoogleConfig {
        njobs: 600,
        mean_gap_slots: 1.0,
        seed: 8,
        duration_cv: 1.2,
        ..Default::default()
    });
    let sampler = DurationSampler::new(8, StragglerModel::ParetoFit);
    let dmp = run("dollymp2", &cluster, &jobs, &sampler);
    let tetris = run("tetris", &cluster, &jobs, &sampler);
    let drf = run("drf", &cluster, &jobs, &sampler);
    assert!(dmp.total_flowtime() < tetris.total_flowtime());
    assert!(dmp.makespan <= tetris.makespan);
    let overhead = dmp.total_usage() / drf.total_usage();
    assert!(
        overhead > 1.0 && overhead < 3.0,
        "usage overhead {overhead} should be positive but far below 3×"
    );
}

/// Fig. 9 — clone-count ablation: cloning helps a lot going 0 → 1 → 2
/// and brings diminishing returns (and more usage) at 3.
#[test]
fn fig9_clone_count_diminishing_returns() {
    let cluster = ClusterSpec::google_like(50, 9);
    let jobs = generate_google(&GoogleConfig {
        njobs: 400,
        mean_gap_slots: 3.0,
        seed: 9,
        ..Default::default()
    });
    let sampler = DurationSampler::new(9, StragglerModel::google_traces());
    let flows: Vec<u64> = (0..4)
        .map(|r| run(&format!("dollymp{r}"), &cluster, &jobs, &sampler).total_flowtime())
        .collect();
    let usages: Vec<f64> = (0..4)
        .map(|r| run(&format!("dollymp{r}"), &cluster, &jobs, &sampler).total_usage())
        .collect();
    assert!(flows[1] < flows[0], "one clone must help: {flows:?}");
    assert!(flows[2] < flows[0], "two clones must help: {flows:?}");
    let gain12 = flows[1] as f64 - flows[2] as f64;
    let gain01 = flows[0] as f64 - flows[1] as f64;
    assert!(
        gain12 < gain01,
        "second clone must help less than the first: {flows:?}"
    );
    assert!(usages[3] > usages[2], "third clone costs more resources");
}

/// Fig. 10 — cloning still helps at high load, with the extra usage
/// shrinking as the cluster fills up.
#[test]
fn fig10_cloning_survives_high_load() {
    let base = ClusterSpec::google_like(40, 10);
    let jobs = generate_google(&GoogleConfig {
        njobs: 300,
        mean_gap_slots: 2.0,
        seed: 10,
        ..Default::default()
    });
    let sampler = DurationSampler::new(10, StragglerModel::google_traces());
    let mut usage_overheads = Vec::new();
    for factor in [1.0, 0.25] {
        let cluster = base.scale_cpu(factor);
        let d0 = run("dollymp0", &cluster, &jobs, &sampler);
        let d2 = run("dollymp2", &cluster, &jobs, &sampler);
        assert!(
            d2.total_flowtime() < d0.total_flowtime(),
            "cloning must help at capacity factor {factor}"
        );
        usage_overheads.push(d2.total_usage() / d0.total_usage());
    }
    assert!(
        usage_overheads[1] < usage_overheads[0],
        "extra usage must shrink as load grows: {usage_overheads:?}"
    );
}

/// Fig. 11 — DollyMP² beats the Carbyne approximation on mean flowtime
/// under heavy load while using comparable resources per job.
#[test]
fn fig11_vs_carbyne_shape() {
    let cluster = ClusterSpec::google_like(50, 11);
    let jobs = generate_google(&GoogleConfig {
        njobs: 500,
        mean_gap_slots: 1.0,
        seed: 11,
        ..Default::default()
    });
    let sampler = DurationSampler::new(11, StragglerModel::google_traces());
    let dmp = run("dollymp2", &cluster, &jobs, &sampler);
    let carbyne = run("carbyne", &cluster, &jobs, &sampler);
    assert!(
        dmp.mean_flowtime() < carbyne.mean_flowtime(),
        "DollyMP² {} vs Carbyne {}",
        dmp.mean_flowtime(),
        carbyne.mean_flowtime()
    );
}
