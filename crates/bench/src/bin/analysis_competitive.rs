//! **Theorem 1 / §5.1 analysis** — empirical competitive ratios.
//!
//! 1. Random tiny transient instances (single server, single-task jobs,
//!    deterministic durations): Algorithm 1's order executed by the list
//!    scheduler vs the brute-force optimum. Theorem 1 bounds the ratio by
//!    `6R` with `R = 1` (no cloning, `h ≡ 1`); in practice the ratio is
//!    far smaller.
//! 2. The §5.1 discussion table: DollyMP's `(3+3ε)/ε` vs HRDF's
//!    `(5+3ε)/ε` under `(2+ε)`-capacity augmentation.

use dollymp_bench::write_csv;
use dollymp_core::prelude::*;
use dollymp_core::resources::dominant_share;
use dollymp_core::theory::{
    dollymp_augmented_ratio, hrdf_augmented_ratio, list_schedule_flowtime, BfJob,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = SmallRng::seed_from_u64(4242);
    let cap = Resources::new(1.0, 1.0);
    let trials = 300;
    let mut worst: f64 = 1.0;
    let mut sum = 0.0;
    let mut rows = Vec::new();

    for t in 0..trials {
        let n = rng.gen_range(2..=6);
        let jobs: Vec<BfJob> = (0..n)
            .map(|_| BfJob {
                arrival: 0,
                duration: rng.gen_range(1..=8),
                demand: Resources::new(
                    rng.gen_range(1..=10) as f64 / 10.0,
                    rng.gen_range(1..=10) as f64 / 10.0,
                ),
            })
            .collect();
        let inputs: Vec<TransientJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let d = dominant_share(j.demand, cap);
                TransientJob {
                    id: JobId(i as u64),
                    volume: d * j.duration as f64,
                    etime: j.duration as f64,
                    dominant: d,
                }
            })
            .collect();
        let out = transient_schedule(&inputs);
        let algo = list_schedule_flowtime(&jobs, cap, &out.order);
        let opt = BruteForceOptimal::new(cap, jobs).min_total_flowtime();
        let ratio = algo as f64 / opt as f64;
        worst = worst.max(ratio);
        sum += ratio;
        rows.push(format!("{t},{n},{algo},{opt},{ratio:.4}"));
        assert!(
            ratio <= theorem1_bound(1.0) + 1e-9,
            "Theorem 1 violated: ratio {ratio}"
        );
    }
    println!("Theorem 1 empirical check — {trials} random transient instances");
    println!(
        "  worst observed ratio: {worst:.3}   mean: {:.3}   bound 6R = {:.1}",
        sum / trials as f64,
        theorem1_bound(1.0)
    );
    write_csv(
        "analysis_competitive_instances.csv",
        "trial,n,algo_flow,opt_flow,ratio",
        &rows,
    );

    println!("\n§5.1 — capacity-augmented competitive ratios (lower is better)");
    println!("{:>8} {:>14} {:>14}", "epsilon", "DollyMP", "HRDF [16]");
    let mut ratio_rows = Vec::new();
    for &eps in &[0.1, 0.25, 0.5, 1.0, 2.0] {
        let (d, h) = (dollymp_augmented_ratio(eps), hrdf_augmented_ratio(eps));
        println!("{eps:>8.2} {d:>14.2} {h:>14.2}");
        ratio_rows.push(format!("{eps},{d:.4},{h:.4}"));
        assert!(d < h);
    }
    let p = write_csv(
        "analysis_competitive_ratios.csv",
        "epsilon,dollymp,hrdf",
        &ratio_rows,
    );
    println!("csv: {}", p.display());
}
