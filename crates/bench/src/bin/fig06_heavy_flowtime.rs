//! **Fig. 6** — flowtime CDFs in the heavily-loaded regime (§6.2.2),
//! same runs as Fig. 5 but measuring `finish − arrival` (queueing
//! included).
//!
//! Paper's shape: most jobs complete within 6 000 s of arrival under
//! DollyMP, vs ~60 % under Tetris and ~45 % under Capacity.

use dollymp_bench::{cdf_line, cdf_samples, run_named, scale, write_csv};
use dollymp_cluster::metrics::cdf_at;
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
            "Fig. 6({}) — heavy load, {} jobs: flowtime CDFs (slots)\n",
            &panel[..1],
            jobs.len()
        );
        // The paper's reference point: fraction finishing within 6000 s
        // (1200 slots).
        for name in schedulers {
            let r = run_named(name, &cluster, &jobs, &sampler, &engine_cfg_for(name));
            let flows: Vec<f64> = r.jobs.iter().map(|j| j.flowtime as f64).collect();
            let curve = cdf(flows.clone());
            println!(
                "  {:<10} {}  | ≤1200 slots: {:.0}%",
                name,
                cdf_line(&flows),
                cdf_at(&curve, 1200.0) * 100.0
            );
            for (v, q) in cdf_samples(&flows, 20) {
                rows.push(format!("{panel},{name},{v:.1},{q:.3}"));
            }
        }
        println!();
    }
    let p = write_csv(
        "fig06_heavy_flowtime_cdf.csv",
        "panel,scheduler,flow_slots,cdf",
        &rows,
    );
    println!("csv: {}", p.display());
}
