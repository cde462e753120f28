//! **Fig. 4** — lightly-loaded regime (§6.2.1): 100 jobs (50 PageRank,
//! 50 WordCount), inter-arrival ≈ 200 s.
//!
//! (a) overall job flowtime per scheduler (bar chart → one row each);
//! (b) CDF of job execution (running) times.
//!
//! Paper's shape: flowtime ≈ running time (barely any queueing); Tetris ≈
//! Capacity; DollyMP² ≈ −10 % flowtime vs Capacity and the best tail
//! (95 % of jobs < 350 s under DollyMP² vs 80 % under Capacity);
//! DollyMP² beats DollyMP¹.

use dollymp_bench::{cdf_line, cdf_samples, run_named, scale, write_csv};
use dollymp_cluster::prelude::*;
use dollymp_schedulers::engine_cfg_for;
use dollymp_workload::suite::light_load;

fn main() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = light_load(4, scale(1));
    let sampler = DurationSampler::new(4, StragglerModel::ParetoFit);
    let schedulers = [
        "capacity", "tetris", "drf", "dollymp0", "dollymp1", "dollymp2",
    ];

    println!(
        "Fig. 4 — light load: {} jobs on the 30-node cluster (slots of 5 s)\n",
        jobs.len()
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10}   running-time CDF",
        "scheduler", "total flow", "mean flow", "mean run"
    );
    let mut bar_rows = Vec::new();
    let mut cdf_rows = Vec::new();
    for name in schedulers {
        let r = run_named(name, &cluster, &jobs, &sampler, &engine_cfg_for(name));
        let runs: Vec<f64> = r.jobs.iter().map(|j| j.running_time as f64).collect();
        println!(
            "{:<10} {:>12} {:>10.1} {:>10.1}   {}",
            name,
            r.total_flowtime(),
            r.mean_flowtime(),
            r.mean_running_time(),
            cdf_line(&runs)
        );
        bar_rows.push(format!(
            "{name},{},{:.2},{:.2}",
            r.total_flowtime(),
            r.mean_flowtime(),
            r.mean_running_time()
        ));
        for (v, q) in cdf_samples(&runs, 20) {
            cdf_rows.push(format!("{name},{v:.1},{q:.3}"));
        }
    }
    write_csv(
        "fig04a_light_flowtime.csv",
        "scheduler,total_flow,mean_flow,mean_run",
        &bar_rows,
    );
    let p = write_csv(
        "fig04b_light_running_cdf.csv",
        "scheduler,running_slots,cdf",
        &cdf_rows,
    );
    println!("\ncsv: fig04a_light_flowtime.csv, {}", p.display());
}
