//! **Fig. 5** — running-time CDFs in the heavily-loaded regime (§6.2.2):
//! (a) 500 PageRank jobs, (b) 500 WordCount jobs, inter-arrival ≈ 20 s.
//!
//! Paper's shape: under DollyMP every job's *running* time stays small
//! (all < 200 s for PageRank) because once a job is scheduled its tasks
//! run together and clones absorb stragglers; Tetris/Capacity have a
//! long running-time tail (only ~80 % < 200 s under Tetris).

use dollymp_bench::{cdf_line, cdf_samples, run_named, scale, write_csv};
use dollymp_cluster::prelude::*;
use dollymp_schedulers::engine_cfg_for;
use dollymp_workload::suite::{heavy_pagerank, heavy_wordcount};

fn main() {
    let cluster = ClusterSpec::paper_30_node();
    let s = scale(2);
    let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
    let schedulers = ["capacity", "tetris", "dollymp2"];

    let mut rows = Vec::new();
    for (panel, jobs) in [
        ("a:pagerank", heavy_pagerank(5, s)),
        ("b:wordcount", heavy_wordcount(5, s)),
    ] {
        println!(
            "Fig. 5({}) — heavy load, {} jobs: running-time CDFs (slots)\n",
            &panel[..1],
            jobs.len()
        );
        for name in schedulers {
            let r = run_named(name, &cluster, &jobs, &sampler, &engine_cfg_for(name));
            let runs: Vec<f64> = r.jobs.iter().map(|j| j.running_time as f64).collect();
            println!("  {:<10} {}", name, cdf_line(&runs));
            for (v, q) in cdf_samples(&runs, 20) {
                rows.push(format!("{panel},{name},{v:.1},{q:.3}"));
            }
        }
        println!();
    }
    let p = write_csv(
        "fig05_heavy_running_cdf.csv",
        "panel,scheduler,running_slots,cdf",
        &rows,
    );
    println!("csv: {}", p.display());
}
