//! **Fig. 8** — trace-driven simulation at scale (§6.3.1): CDFs of the
//! per-job ratios of (a) flowtime under DollyMP² to flowtime under
//! Tetris and (b) resource usage under DollyMP² to usage under DRF.
//!
//! Paper's shape: ≥ 40 % of jobs get ≥ 30 % lower flowtime (ratio ≤ 0.7)
//! with a mean speedup of 22 %; ~70 % of jobs consume up to 2× resources
//! vs DRF but the *total* usage is only ~60 % higher (clones target small
//! jobs); makespan −18 %.
//!
//! Default scale (`DOLLYMP_SCALE=10`): 300 servers / 3 000 jobs.
//! `DOLLYMP_SCALE=1` runs 3 000 servers / 30 000 jobs, still a tenth of
//! the paper's 30 000 servers.

use dollymp_bench::{cdf_samples, respace_for_load, run_named, scale, write_csv};
use dollymp_cluster::metrics::{cdf, cdf_at, quantile};
use dollymp_cluster::prelude::*;
use dollymp_workload::{generate_google, GoogleConfig};
use rayon::prelude::*;

fn main() {
    let s = scale(10);
    let servers = (3_000 / s).max(60) as u32;
    let njobs = (30_000 / s).max(600);
    let cluster = ClusterSpec::google_like(servers, 8);
    let mut jobs = generate_google(&GoogleConfig {
        njobs,
        mean_gap_slots: 1.0,
        seed: 8,
        duration_cv: 1.2,
        ..Default::default()
    });
    // §6.3.1 runs at moderate load ("the cluster load is not high, DRF
    // performs similar to Tetris"); calibrate to ≈ 45 % CPU utilization.
    respace_for_load(&mut jobs, &cluster, 0.62, 88);
    let sampler = DurationSampler::new(8, StragglerModel::ParetoFit);
    println!("Fig. 8 — trace sim: {servers} servers, {njobs} jobs (DOLLYMP_SCALE={s})\n");

    let names = ["dollymp2", "tetris", "drf"];
    let reports: Vec<SimReport> = names
        .par_iter()
        .map(|n| run_named(n, &cluster, &jobs, &sampler, &EngineConfig::default()))
        .collect();
    let (dmp, tetris, drf) = (&reports[0], &reports[1], &reports[2]);
    let t_by = tetris.by_id();
    let d_by = drf.by_id();

    // (a) flowtime ratio vs Tetris.
    let flow_ratios: Vec<f64> = dmp
        .jobs
        .iter()
        .filter_map(|j| {
            t_by.get(&j.id)
                .map(|t| j.flowtime as f64 / t.flowtime.max(1) as f64)
        })
        .collect();
    let curve = cdf(flow_ratios.clone());
    let speedups: Vec<f64> = flow_ratios.iter().map(|r| 1.0 - r).collect();
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    println!("(a) flowtime ratio DollyMP²/Tetris:");
    println!(
        "    ≥30% faster (ratio ≤ 0.7): {:.0}% of jobs   [paper: ≥40%]",
        cdf_at(&curve, 0.7) * 100.0
    );
    println!(
        "    mean speedup: {:.0}%                        [paper: 22%]",
        mean_speedup * 100.0
    );

    // (b) usage ratio vs DRF.
    let usage_ratios: Vec<f64> = dmp
        .jobs
        .iter()
        .filter_map(|j| d_by.get(&j.id).map(|d| j.usage / d.usage.max(1e-9)))
        .collect();
    let ucurve = cdf(usage_ratios.clone());
    println!("\n(b) resource-usage ratio DollyMP²/DRF:");
    println!(
        "    ≤2× usage: {:.0}% of jobs                  [paper: ~70%]",
        cdf_at(&ucurve, 2.0) * 100.0
    );
    println!(
        "    total usage overhead: {:+.0}%               [paper: +60%]",
        (dmp.total_usage() / drf.total_usage() - 1.0) * 100.0
    );
    println!(
        "    median per-job ratio: {:.2}",
        quantile(&usage_ratios, 0.5)
    );

    println!(
        "cloned task fraction: {:.1}%  (clone copies per task: {:.2})",
        dmp.cloned_task_fraction() * 100.0,
        dmp.jobs.iter().map(|j| j.clone_copies).sum::<u64>() as f64
            / dmp.jobs.iter().map(|j| j.tasks).sum::<u64>() as f64
    );
    println!(
        "makespan: DollyMP² {} vs Tetris {} ({:+.0}%)   [paper: −18%]",
        dmp.makespan,
        tetris.makespan,
        (dmp.makespan as f64 / tetris.makespan as f64 - 1.0) * 100.0
    );

    let mut rows = Vec::new();
    for (v, q) in cdf_samples(&flow_ratios, 40) {
        rows.push(format!("a:flow_ratio,{v:.3},{q:.3}"));
    }
    for (v, q) in cdf_samples(&usage_ratios, 40) {
        rows.push(format!("b:usage_ratio,{v:.3},{q:.3}"));
    }
    let p = write_csv("fig08_trace_ratios.csv", "panel,ratio,cdf", &rows);
    println!("csv: {}", p.display());
}
