//! Deployment-style run through the simulated YARN control plane (§5.2):
//! the Resource Manager schedules on statistics *estimated* by the
//! Application Masters, and recurring-job history sharpens those
//! estimates across runs.
//!
//! The example submits the same recurring WordCount workload twice —
//! first against a cold history registry, then against the registry
//! warmed by the first run — and prints each run's gap to the oracle
//! (spec-informed) DollyMP scheduler.
//!
//! Run with:
//! ```sh
//! cargo run --release --example yarn_deployment
//! ```

use dollymp::prelude::*;

fn workload(seed: u64) -> Vec<JobSpec> {
    (0..16u64)
        .map(|i| {
            let mut j = dollymp::workload::apps::wordcount(JobId(i), 0, 6.0, seed);
            j = JobSpec::builder(JobId(i))
                .arrival(i * 6)
                .label("wordcount")
                .phase(j.phases()[0].clone())
                .phase(j.phases()[1].clone())
                .build()
                .expect("rebuilt chain valid");
            j
        })
        .collect()
}

fn main() {
    let cluster = ClusterSpec::paper_30_node();
    let sampler = DurationSampler::new(33, StragglerModel::ParetoFit);
    let jobs = workload(33);

    // Run 1: cold history — AMs estimate from defaults, then from the
    // first finished tasks of each phase.
    let history = HistoryRegistry::new();
    let mut cold = YarnSystem::with_history(2, history.clone());
    let r_cold = simulate(
        &cluster,
        jobs.clone(),
        &sampler,
        &mut cold,
        &EngineConfig::default(),
    );

    // Run 2: warm history — the registry now holds per-phase statistics
    // of 16 prior wordcount runs.
    let mut warm = YarnSystem::with_history(2, history.clone());
    let r_warm = simulate(
        &cluster,
        jobs.clone(),
        &sampler,
        &mut warm,
        &EngineConfig::default(),
    );

    // Oracle: the plain DollyMP scheduler reads true (θ, σ) from specs.
    let mut oracle = DollyMP::new();
    let r_oracle = simulate(
        &cluster,
        jobs,
        &sampler,
        &mut oracle,
        &EngineConfig::default(),
    );

    println!("recurring WordCount workload (16 jobs) through the YARN control plane\n");
    println!(
        "{:<28} {:>14} {:>10}",
        "configuration", "total flow", "clones"
    );
    for (name, r) in [
        ("yarn, cold history", &r_cold),
        ("yarn, warm history", &r_warm),
        ("oracle DollyMP (true stats)", &r_oracle),
    ] {
        println!(
            "{:<28} {:>14} {:>10}",
            name,
            r.total_flowtime(),
            r.jobs.iter().map(|j| j.clone_copies).sum::<u64>()
        );
    }
    // Every job shares one label, so history shifts every job's θ̂ alike
    // and barely changes the order: the closing line reports the gaps as
    // measured instead of assuming warm beats cold.
    let oracle = r_oracle.total_flowtime() as f64;
    let gap = |r: &SimReport| (r.total_flowtime() as f64 - oracle).abs();
    let (cold_gap, warm_gap) = (gap(&r_cold), gap(&r_warm));
    let closer = if warm_gap < cold_gap {
        "warm estimates track the oracle more closely than cold ones"
    } else if warm_gap > cold_gap {
        "cold estimates track the oracle more closely than warm ones"
    } else {
        "warm and cold estimates track the oracle equally closely"
    };
    println!(
        "\ngap to the oracle's total flow: cold {cold_gap}, warm {warm_gap} — {closer}.\n\
         The history registry holds {} (label, phase) entries. Warm history moved total \
         flow by {:+.1} % against cold: all jobs share one label, so history shifts every \
         estimate alike.",
        history.len(),
        (r_warm.total_flowtime() as f64 / r_cold.total_flowtime() as f64 - 1.0) * 100.0
    );
}
