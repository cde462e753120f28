//! # dollymp-bench
//!
//! The experiment harness that regenerates **every figure of the paper's
//! evaluation** (§2 Fig. 1/2, §6.2 Figs. 4–7, §6.3 Figs. 8–11 and the
//! §6.3.3 overhead numbers), plus the §4.1/§4.2 analysis artifacts.
//!
//! Each `src/bin/figNN_*.rs` binary prints the figure's series to stdout
//! and writes CSV under `target/experiments/`. Binaries accept the
//! `DOLLYMP_SCALE` environment variable (a divisor on workload/cluster
//! size; default runs are scaled down to finish in seconds, `DOLLYMP_SCALE=1`
//! removes the divisor). Scale 1 is each binary's largest size, not always
//! the paper's: Fig. 8 then simulates 3 000 servers, a tenth of the
//! paper's 30 000. `all_figures` runs everything.
//!
//! There are no `cargo bench` targets: the §6.3.3 decision-pass timer
//! is the `bench_scale` binary.

pub mod runner;

use dollymp_cluster::prelude::*;
use dollymp_core::job::JobSpec;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Scale divisor from `DOLLYMP_SCALE` (default `def`). 1 = no divisor.
pub fn scale(def: usize) -> usize {
    std::env::var("DOLLYMP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(def)
}

/// Directory where experiment CSVs land (`target/experiments`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Write rows as CSV (first row = header) and return the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    path
}

/// Run a named scheduler on a workload and return its report.
pub fn run_named(
    name: &str,
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    sampler: &DurationSampler,
    cfg: &EngineConfig,
) -> SimReport {
    let mut s =
        dollymp_schedulers::by_name(name).unwrap_or_else(|| panic!("unknown scheduler {name}"));
    simulate(cluster, jobs.to_vec(), sampler, s.as_mut(), cfg)
}

/// Expected *dominant-share* work of a job, in units of
/// cluster-fraction × slots: `Σ_phases n · θ · d` where `d` is the
/// Eq. (15) dominant share of the phase's demand — i.e. the job's volume
/// with `w = 0`. Using the dominant dimension means the calibration is
/// correct even when memory, not CPU, is the binding resource.
pub fn job_dominant_work(job: &JobSpec, totals: dollymp_core::resources::Resources) -> f64 {
    job.volume(totals, 0.0)
}

/// Re-space a workload's arrivals (Poisson, seeded) so the offered
/// dominant-dimension load on `cluster` is approximately `target_load`
/// (fraction of total capacity busy on average, before straggler
/// inflation and cloning). This is how the trace experiments calibrate
/// "lightly/heavily loaded" independent of the synthetic generator's
/// defaults.
pub fn respace_for_load(jobs: &mut [JobSpec], cluster: &ClusterSpec, target_load: f64, seed: u64) {
    assert!(target_load > 0.0 && target_load.is_finite());
    if jobs.is_empty() {
        return;
    }
    let totals = cluster.totals();
    let total_work: f64 = jobs.iter().map(|j| job_dominant_work(j, totals)).sum();
    let span = total_work / target_load;
    let gap = (span / jobs.len() as f64).max(0.0);
    let arrivals = dollymp_workload::arrivals::poisson(jobs.len(), gap, seed);
    for (j, &a) in jobs.iter_mut().zip(&arrivals) {
        j.arrival = a;
    }
    jobs.sort_by_key(|j| (j.arrival, j.id));
}

/// Sample an empirical CDF at `k` evenly spaced fractions for compact
/// printing: returns `(value, fraction)` pairs.
pub fn cdf_samples(values: &[f64], k: usize) -> Vec<(f64, f64)> {
    let curve = cdf(values.to_vec());
    if curve.is_empty() {
        return Vec::new();
    }
    (1..=k)
        .map(|i| {
            let q = i as f64 / k as f64;
            let idx = ((q * curve.len() as f64).ceil() as usize).clamp(1, curve.len()) - 1;
            curve[idx]
        })
        .collect()
}

/// Pretty-print a compact CDF line: `p10=… p50=… p90=… max=…`.
pub fn cdf_line(values: &[f64]) -> String {
    format!(
        "p10={:.1} p25={:.1} p50={:.1} p75={:.1} p90={:.1} max={:.1}",
        quantile(values, 0.10),
        quantile(values, 0.25),
        quantile(values, 0.50),
        quantile(values, 0.75),
        quantile(values, 0.90),
        quantile(values, 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_path() {
        assert!(scale(3) >= 1);
    }

    #[test]
    fn cdf_samples_are_monotone() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = cdf_samples(&v, 10);
        assert_eq!(s.len(), 10);
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((s.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csv_written_to_experiments_dir() {
        let p = write_csv(
            "unit_test.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        );
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("a,b\n1,2\n3,4"));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn cdf_line_mentions_all_quantiles() {
        let line = cdf_line(&[1.0, 2.0, 3.0]);
        for q in ["p10", "p25", "p50", "p75", "p90", "max"] {
            assert!(line.contains(q));
        }
    }

    #[test]
    fn respace_hits_the_target_load() {
        use dollymp_workload::{generate_google, GoogleConfig};
        let cluster = ClusterSpec::homogeneous(50, 16.0, 32.0);
        let mut jobs = generate_google(&GoogleConfig {
            njobs: 500,
            ..Default::default()
        });
        respace_for_load(&mut jobs, &cluster, 0.5, 7);
        let totals = cluster.totals();
        let work: f64 = jobs.iter().map(|j| job_dominant_work(j, totals)).sum();
        let span = jobs.last().unwrap().arrival - jobs.first().unwrap().arrival;
        let load = work / span as f64;
        assert!(
            (load - 0.5).abs() < 0.1,
            "offered load {load} should be ≈ 0.5"
        );
        // Arrivals sorted, ids preserved.
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }
}
