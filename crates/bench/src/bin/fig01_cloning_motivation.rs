//! **Fig. 1** — job running time under different schedulers.
//!
//! The §2 motivation: one 4 GB WordCount job repeated 8 times on the
//! 30-node heterogeneous cluster (each run submitted after the previous
//! finished), under the Capacity scheduler (with Hadoop-style speculative
//! execution) and DollyMP⁰/¹/².
//!
//! Paper's shape: Capacity and DollyMP⁰ vary wildly run-to-run;
//! DollyMP¹/² are much more stable, and DollyMP² cuts the average running
//! time by ≈ 20 % vs Capacity.

use dollymp_bench::runner::{cell_seed, run_matrix, Parallelism};
use dollymp_bench::{run_named, write_csv};
use dollymp_cluster::prelude::*;
use dollymp_workload::suite::fig1_wordcount;

/// Base seed of the figure; the workload/sampler stream is
/// `cell_seed(FIG_SEED, 0)` (the standard per-cell derivation, shared
/// by every bench entry point).
const FIG_SEED: u64 = 1;

fn main() {
    let cluster = ClusterSpec::paper_30_node();
    // **Paired sampling**: every scheduler must see the identical
    // workload and task-duration stream (the figure compares policies,
    // not seeds), so the seed is derived once — from the *figure's*
    // cell, not per scheduler — and shared across the matrix.
    let seed = cell_seed(FIG_SEED, 0);
    let jobs = fig1_wordcount(seed);
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let schedulers = ["capacity", "dollymp0", "dollymp1", "dollymp2"];

    println!("Fig. 1 — running time (slots) of the same 4 GB WordCount job, 8 runs\n");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "scheduler", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "mean"
    );
    let per_sched = run_matrix(&schedulers, Parallelism::Rayon, |_, &name| {
        // The paper's slotted system re-evaluates every interval; give
        // every scheduler the same 1-slot decision cadence so DollyMP²'s
        // second clone (granted a round after the first) can launch.
        let cfg = EngineConfig {
            tick: Some(1),
            ..Default::default()
        };
        let r = run_named(name, &cluster, &jobs, &sampler, &cfg);
        let mut runs: Vec<(u64, u64)> =
            r.jobs.iter().map(|j| (j.arrival, j.running_time)).collect();
        runs.sort();
        let times: Vec<u64> = runs.iter().map(|&(_, t)| t).collect();
        let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
        (name, times, mean)
    });

    let mut rows = Vec::new();
    let mut means = Vec::new();
    for (name, times, mean) in &per_sched {
        means.push((*name, *mean));
        print!("{name:<10}");
        for t in times {
            print!(" {t:>6}");
        }
        println!(" {mean:>8.1}");
        rows.push(format!(
            "{name},{},{mean:.2}",
            times
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    let base = means
        .iter()
        .find(|(n, _)| *n == "capacity")
        .map(|&(_, m)| m)
        .unwrap_or(1.0);
    println!();
    for (name, m) in &means {
        println!(
            "{name:<10} mean reduction vs capacity: {:+.1}%",
            (1.0 - m / base) * 100.0
        );
    }
    let p = write_csv(
        "fig01_cloning_motivation.csv",
        "scheduler,r1,r2,r3,r4,r5,r6,r7,r8,mean",
        &rows,
    );
    println!("\ncsv: {}", p.display());
}
