//! **Parameter ablations** — the design choices DESIGN.md calls out:
//!
//! * the σ-weight `w` in effective processing times (`e = θ + w·σ`; the
//!   paper deploys w = 1.5) — how much does penalizing high-variance
//!   phases matter?
//! * the §4.1 small-job gate `δ` (paper: 0.3) — from "never clone"
//!   (δ = 0) to "clone anything" (δ = ∞);
//! * the §8 future-work extension: vanilla DollyMP² vs the
//!   server-reputation learner on a cluster with straggler-prone nodes;
//! * data locality: the locality-aware YARN control plane vs the
//!   locality-blind DollyMP under increasing remote-read penalties.
//!
//! Each table reports total flowtime and total normalized usage on the
//! same paired workload.

use dollymp_bench::{respace_for_load, scale, write_csv};
use dollymp_cluster::prelude::*;
use dollymp_schedulers::{DollyMP, LearnedDollyMP};
use dollymp_workload::{generate_google, GoogleConfig};

fn run(
    s: &mut dyn Scheduler,
    cluster: &ClusterSpec,
    jobs: &[JobSpec_],
    sampler: &DurationSampler,
) -> SimReport {
    simulate(cluster, jobs.to_vec(), sampler, s, &EngineConfig::default())
}

type JobSpec_ = dollymp_core::job::JobSpec;

fn main() {
    let s = scale(10);
    let servers = (1_000 / s).max(40) as u32;
    let njobs = (10_000 / s).max(400);
    let cluster = ClusterSpec::google_like(servers, 21);
    let mut jobs = generate_google(&GoogleConfig {
        njobs,
        mean_gap_slots: 1.0,
        seed: 21,
        ..Default::default()
    });
    respace_for_load(&mut jobs, &cluster, 0.6, 2121);
    let sampler = DurationSampler::new(21, StragglerModel::google_traces());
    let mut rows = Vec::new();

    // --- σ-weight sweep -------------------------------------------------
    println!("ablation 1 — σ-weight w in e = θ + w·σ (paper: 1.5)\n");
    println!("{:>6} {:>14} {:>14}", "w", "total flow", "total usage");
    for &w in &[0.0, 0.5, 1.0, 1.5, 2.5, 4.0] {
        let mut sched = DollyMP::new().with_sigma_weight(w);
        let r = run(&mut sched, &cluster, &jobs, &sampler);
        println!(
            "{w:>6.1} {:>14} {:>14.1}",
            r.total_flowtime(),
            r.total_usage()
        );
        rows.push(format!(
            "sigma_weight,{w},{},{:.2}",
            r.total_flowtime(),
            r.total_usage()
        ));
    }

    // --- δ gate sweep ----------------------------------------------------
    println!("\nablation 2 — small-job clone gate δ (paper: 0.3)\n");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "delta", "total flow", "total usage", "cloned tasks"
    );
    for &delta in &[0.0, 0.1, 0.3, 0.6, 1.0, 1e9] {
        let mut sched = DollyMP::new().with_delta(delta);
        let r = run(&mut sched, &cluster, &jobs, &sampler);
        println!(
            "{:>8} {:>14} {:>14.1} {:>13.1}%",
            if delta > 1e6 {
                "inf".to_string()
            } else {
                format!("{delta:.1}")
            },
            r.total_flowtime(),
            r.total_usage(),
            r.cloned_task_fraction() * 100.0
        );
        rows.push(format!(
            "delta,{delta},{},{:.2}",
            r.total_flowtime(),
            r.total_usage()
        ));
    }

    // --- §8 reputation learner --------------------------------------------
    println!("\nablation 3 — §8 future work: server-reputation learning\n");
    println!(
        "{:>20} {:>14} {:>14}",
        "scheduler", "total flow", "total usage"
    );
    let mut vanilla = DollyMP::new();
    let rv = run(&mut vanilla, &cluster, &jobs, &sampler);
    let mut learned = LearnedDollyMP::new();
    let rl = run(&mut learned, &cluster, &jobs, &sampler);
    for (name, r) in [("dollymp2", &rv), ("learned-dollymp2", &rl)] {
        println!(
            "{name:>20} {:>14} {:>14.1}",
            r.total_flowtime(),
            r.total_usage()
        );
        rows.push(format!(
            "learned,{name},{},{:.2}",
            r.total_flowtime(),
            r.total_usage()
        ));
    }
    println!(
        "\nlearned vs vanilla: {:+.1}% total flowtime",
        (rl.total_flowtime() as f64 / rv.total_flowtime() as f64 - 1.0) * 100.0
    );

    // --- data locality -----------------------------------------------------
    println!("\nablation 4 — locality-aware YARN placement vs locality-blind DollyMP\n");
    println!(
        "{:>8} {:>18} {:>18} {:>10}",
        "penalty", "dollymp2 flow", "yarn-dollymp2 flow", "yarn Δ"
    );
    let small_cluster = ClusterSpec::google_like(60, 22);
    let mut small_jobs = generate_google(&GoogleConfig {
        njobs: 600,
        mean_gap_slots: 1.0,
        seed: 22,
        ..Default::default()
    });
    respace_for_load(&mut small_jobs, &small_cluster, 0.5, 2222);
    let small_sampler = DurationSampler::new(22, StragglerModel::google_traces());
    for &penalty in &[1.0, 1.5, 2.0, 3.0] {
        let cfg = EngineConfig {
            remote_penalty: penalty,
            ..Default::default()
        };
        let mut blind = DollyMP::new();
        let rb = simulate(
            &small_cluster,
            small_jobs.clone(),
            &small_sampler,
            &mut blind,
            &cfg,
        );
        let mut aware = dollymp_yarn::YarnSystem::new(2);
        let ra = simulate(
            &small_cluster,
            small_jobs.clone(),
            &small_sampler,
            &mut aware,
            &cfg,
        );
        println!(
            "{:>7.1}x {:>18} {:>18} {:>9.1}%",
            penalty,
            rb.total_flowtime(),
            ra.total_flowtime(),
            (ra.total_flowtime() as f64 / rb.total_flowtime() as f64 - 1.0) * 100.0
        );
        rows.push(format!(
            "locality,{penalty},{},{}",
            rb.total_flowtime(),
            ra.total_flowtime()
        ));
    }

    // --- related-work baseline: Hopper ------------------------------------
    println!("\nablation 5 — joint designs compared: DollyMP² vs Hopper-lite (§7)\n");
    println!(
        "{:>20} {:>14} {:>14} {:>10}",
        "scheduler", "total flow", "total usage", "clones"
    );
    let hopper_cfg = dollymp_schedulers::engine_cfg_for("hopper");
    let mut hopper = dollymp_schedulers::Hopper::new();
    let rh = simulate(&cluster, jobs.clone(), &sampler, &mut hopper, &hopper_cfg);
    for (name, r) in [("dollymp2", &rv), ("hopper", &rh)] {
        println!(
            "{name:>20} {:>14} {:>14.1} {:>10}",
            r.total_flowtime(),
            r.total_usage(),
            r.jobs.iter().map(|j| j.clone_copies).sum::<u64>()
        );
        rows.push(format!(
            "hopper,{name},{},{:.2}",
            r.total_flowtime(),
            r.total_usage()
        ));
    }

    let p = write_csv(
        "ablation_params.csv",
        "ablation,value,total_flow,total_usage",
        &rows,
    );
    println!("csv: {}", p.display());
}
