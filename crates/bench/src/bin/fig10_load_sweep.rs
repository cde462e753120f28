//! **Fig. 10** — the effect of cloning under different cluster loads
//! (§6.3.1): fix the workload, scale the cluster's CPU capacity, and
//! compare DollyMP² against DollyMP⁰.
//!
//! (a) flowtime reduction and extra resource usage from cloning, per
//! load; (b) fraction of tasks with cloned copies, per load.
//!
//! Paper's shape: cloning keeps helping even at 10× the low load —
//! ≈ −10 % flowtime for ≈ +2 % resources — because DollyMP's queue stays
//! short and small jobs still find clone room; ~40 % of tasks hold clones
//! at high load (their cost is small because they're small tasks).

use dollymp_bench::runner::{run_matrix, Parallelism};
use dollymp_bench::{respace_for_load, run_named, scale, write_csv};
use dollymp_cluster::metrics::cdf;
use dollymp_cluster::metrics::cdf_at;
use dollymp_cluster::prelude::*;
use dollymp_workload::{generate_google, GoogleConfig};

fn main() {
    let s = scale(10);
    let servers = (1_000 / s).max(30) as u32;
    let njobs = (10_000 / s).max(300);
    let base_cluster = ClusterSpec::google_like(servers, 10);
    let mut jobs = generate_google(&GoogleConfig {
        njobs,
        mean_gap_slots: 2.0,
        seed: 10,
        ..Default::default()
    });
    // Calibrate the lightest point of the sweep to ≈ 8 % CPU load; the
    // capacity factors below then span 1×–10× that load, the paper's
    // "10× the low load" endpoint.
    respace_for_load(&mut jobs, &base_cluster, 0.08, 1010);
    let sampler = DurationSampler::new(10, StragglerModel::google_traces());
    // Load = 1/capacity-factor: shrinking CPU capacity raises load.
    // The largest container shape is 4 cores and the largest server 32
    // cores, so CPU can shrink at most to 0.125× before some task fits
    // nowhere; the sweep therefore spans 1×–8× the base load (the paper
    // sweeps to 10×).
    let factors = [1.0, 0.5, 0.25, 0.167, 0.125];
    println!("Fig. 10 — cloning vs cluster load: {servers} servers × factor, {njobs} jobs\n");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "load", "flow Δ%", "usage Δ%", "cloned tasks%", "≥20% faster%", "flow(r=2)"
    );

    let mut rows = Vec::new();
    let results: Vec<(f64, SimReport, SimReport)> =
        run_matrix(&factors, Parallelism::Rayon, |_, &f| {
            let cluster = base_cluster.scale_cpu(f);
            let r0 = run_named(
                "dollymp0",
                &cluster,
                &jobs,
                &sampler,
                &EngineConfig::default(),
            );
            let r2 = run_named(
                "dollymp2",
                &cluster,
                &jobs,
                &sampler,
                &EngineConfig::default(),
            );
            (f, r0, r2)
        });
    for (f, r0, r2) in &results {
        let load = factors[0] / f; // relative load, 1 = lightest in sweep
        let flow_delta = (r2.total_flowtime() as f64 / r0.total_flowtime() as f64 - 1.0) * 100.0;
        let usage_delta = (r2.total_usage() / r0.total_usage() - 1.0) * 100.0;
        let r0_by = r0.by_id();
        let reductions: Vec<f64> = r2
            .jobs
            .iter()
            .filter_map(|j| {
                r0_by
                    .get(&j.id)
                    .map(|b| -(1.0 - j.flowtime as f64 / b.flowtime.max(1) as f64))
            })
            .collect();
        let frac20 = cdf_at(&cdf(reductions), -0.2) * 100.0;
        println!(
            "{:>7.1}x {:>13.1}% {:>13.1}% {:>13.1}% {:>13.0}% {:>14}",
            load,
            flow_delta,
            usage_delta,
            r2.cloned_task_fraction() * 100.0,
            frac20,
            r2.total_flowtime()
        );
        rows.push(format!(
            "{load:.2},{flow_delta:.2},{usage_delta:.2},{:.4},{frac20:.1}",
            r2.cloned_task_fraction()
        ));
    }
    println!(
        "\npaper: at 10× load cloning still gives ≈ −10% flowtime for ≈ +2% resources; \
         ~40% of tasks hold clones at high load."
    );
    let p = write_csv(
        "fig10_load_sweep.csv",
        "relative_load,flow_delta_pct,usage_delta_pct,cloned_task_frac,frac_jobs_20pct_faster",
        &rows,
    );
    println!("csv: {}", p.display());
}
