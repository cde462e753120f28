//! **Fig. 7** — overall (cumulative) job flowtime as jobs enter the
//! cluster over time, heavy-load regime (§6.2.2).
//!
//! Paper's shape: the cumulative curve under DollyMP grows much slower;
//! at the end DollyMP is ≈ −50 % vs Capacity and ≈ −30 % vs Tetris.

use dollymp_bench::{run_named, scale, write_csv};
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
            "Fig. 7({}) — cumulative flowtime over arrivals, {} jobs\n",
            &panel[..1],
            jobs.len()
        );
        let mut finals = Vec::new();
        for name in schedulers {
            let r = run_named(name, &cluster, &jobs, &sampler, &engine_cfg_for(name));
            let series = r.cumulative_flowtime_by_arrival();
            // Print a decimated series (10 points).
            let step = (series.len() / 10).max(1);
            print!("  {name:<10}");
            for (t, acc) in series.iter().step_by(step) {
                print!(" ({t},{acc})");
            }
            println!();
            for (t, acc) in &series {
                rows.push(format!("{panel},{name},{t},{acc}"));
            }
            finals.push((name, *series.last().map(|(_, a)| a).unwrap_or(&0)));
        }
        let dmp = finals.iter().find(|(n, _)| *n == "dollymp2").unwrap().1 as f64;
        for (name, total) in &finals {
            if *name != "dollymp2" {
                println!(
                    "  dollymp2 vs {name}: {:+.1}% total flowtime",
                    (dmp / *total as f64 - 1.0) * 100.0
                );
            }
        }
        println!();
    }
    let p = write_csv(
        "fig07_cumulative_flowtime.csv",
        "panel,scheduler,arrival_slot,cumulative_flow",
        &rows,
    );
    println!("csv: {}", p.display());
}
