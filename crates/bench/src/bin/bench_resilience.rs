//! Resilience sweep: failure rate vs. flowtime and wasted work, and the
//! cloning-as-failure-insurance comparison. Writes
//! `BENCH_resilience.json` into the current directory.
//!
//! The sweep injects seeded Poisson per-server crashes (exponential
//! repair) at increasing rates into the same light-load workload and
//! runs DollyMP with cloning (`dollymp2`) against the no-cloning
//! baseline (`dollymp0`) on identical fault timelines. Three properties
//! are checked and recorded, matching the paper's cloning story extended
//! to failures:
//!
//! 1. **Zero-rate transparency** — a zero-rate schedule produces a
//!    report byte-identical to the fault-free path, so every fig*
//!    artifact is unaffected by the subsystem existing.
//! 2. **Determinism** — the same seed + timeline reproduces the same
//!    report across two runs.
//! 3. **Cloning saves work** — with faults enabled, `dollymp2` fully
//!    loses strictly fewer tasks (`tasks_requeued`) than `dollymp0`,
//!    because an evicted primary often has a live clone elsewhere.

use dollymp_bench::{run_named, scale};
use dollymp_cluster::engine::try_simulate_with_faults;
use dollymp_cluster::prelude::*;
use dollymp_core::job::JobSpec;
use dollymp_faults::{generate, FaultConfig};
use dollymp_obs::config_fingerprint;
use dollymp_workload::suite::light_load;
use serde::Serialize;

const SEED: u64 = 7;
const MEAN_REPAIR: f64 = 60.0;
const RATES: [f64; 4] = [0.0, 2e-4, 5e-4, 1e-3];
const SCHEDULERS: [&str; 2] = ["dollymp2", "dollymp0"];

#[derive(Serialize)]
struct SweepPoint {
    scheduler: String,
    crash_rate: f64,
    server_crashes: u64,
    copies_evicted: u64,
    tasks_saved_by_clone: u64,
    tasks_requeued: u64,
    work_lost_norm: f64,
    mean_flowtime: f64,
    p99_flowtime: u64,
    total_flowtime: u64,
    makespan: u64,
}

/// The knobs that define this sweep — serialized into the
/// [`config_fingerprint`] so result files from different parameterizations
/// can't be confused for one another.
#[derive(Serialize)]
struct BenchParams {
    cluster: &'static str,
    workload: &'static str,
    jobs: usize,
    rates: Vec<f64>,
    mean_repair_slots: f64,
    schedulers: Vec<&'static str>,
}

#[derive(Serialize)]
struct Report {
    cluster: String,
    jobs: usize,
    seed: u64,
    config_fingerprint: String,
    horizon: u64,
    mean_repair_slots: f64,
    zero_rate_matches_baseline: bool,
    deterministic: bool,
    dollymp2_requeued_total: u64,
    dollymp0_requeued_total: u64,
    cloning_loses_strictly_fewer_tasks: bool,
    sweep: Vec<SweepPoint>,
}

fn run_with_faults(
    name: &str,
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    sampler: &DurationSampler,
    faults: &dollymp_cluster::fault::FaultTimeline,
) -> SimReport {
    let mut s =
        dollymp_schedulers::by_name(name).unwrap_or_else(|| panic!("unknown scheduler {name}"));
    try_simulate_with_faults(
        cluster,
        jobs.to_vec(),
        sampler,
        s.as_mut(),
        &EngineConfig::default(),
        faults,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

fn p99(mut flows: Vec<u64>) -> u64 {
    flows.sort_unstable();
    let idx = ((flows.len() as f64 * 0.99).ceil() as usize).clamp(1, flows.len()) - 1;
    flows[idx]
}

fn main() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = light_load(SEED, scale(4));
    let sampler = DurationSampler::new(SEED, StragglerModel::ParetoFit);

    // Size the fault horizon from a fault-free run of the slower
    // baseline, with headroom for fault-induced stretching.
    let baseline = run_named(
        "dollymp0",
        &cluster,
        &jobs,
        &sampler,
        &EngineConfig::default(),
    );
    let horizon = baseline.makespan * 2;

    // Property 1: a zero-rate schedule (empty timeline) is invisible.
    let zero_cfg = FaultConfig::new(SEED, horizon);
    let zero_tl = generate(&cluster, &zero_cfg);
    assert!(zero_tl.is_empty(), "zero-rate config must generate nothing");
    let zero_run = run_with_faults("dollymp0", &cluster, &jobs, &sampler, &zero_tl);
    let zero_rate_matches_baseline = baseline.clone().scrubbed() == zero_run.scrubbed();
    assert!(
        zero_rate_matches_baseline,
        "zero-rate fault schedule changed the report"
    );

    let mut sweep = Vec::new();
    let mut requeued = [0u64; 2];
    let mut deterministic = true;
    println!(
        "{:<10} {:>9} {:>8} {:>8} {:>7} {:>9} {:>10} {:>10} {:>9}",
        "scheduler",
        "rate",
        "crashes",
        "evicted",
        "saved",
        "requeued",
        "lost work",
        "mean flow",
        "p99 flow"
    );
    for &rate in &RATES {
        let cfg = FaultConfig::new(SEED, horizon).with_crash_rate(rate, MEAN_REPAIR);
        let faults = generate(&cluster, &cfg);
        for (si, name) in SCHEDULERS.iter().enumerate() {
            let r = run_with_faults(name, &cluster, &jobs, &sampler, &faults);
            if rate > 0.0 {
                requeued[si] += r.faults.tasks_requeued;
                // Property 2: identical seed + timeline → identical report.
                let again = run_with_faults(name, &cluster, &jobs, &sampler, &faults);
                deterministic &= r.clone().scrubbed() == again.scrubbed();
            }
            let f = &r.faults;
            println!(
                "{:<10} {:>9} {:>8} {:>8} {:>7} {:>9} {:>10.2} {:>10.1} {:>9}",
                name,
                rate,
                f.server_crashes,
                f.copies_evicted,
                f.tasks_saved_by_clone,
                f.tasks_requeued,
                f.work_lost_norm,
                r.mean_flowtime(),
                p99(r.jobs.iter().map(|j| j.flowtime).collect())
            );
            sweep.push(SweepPoint {
                scheduler: name.to_string(),
                crash_rate: rate,
                server_crashes: f.server_crashes,
                copies_evicted: f.copies_evicted,
                tasks_saved_by_clone: f.tasks_saved_by_clone,
                tasks_requeued: f.tasks_requeued,
                work_lost_norm: f.work_lost_norm,
                mean_flowtime: r.mean_flowtime(),
                p99_flowtime: p99(r.jobs.iter().map(|j| j.flowtime).collect()),
                total_flowtime: r.total_flowtime(),
                makespan: r.makespan,
            });
        }
    }
    assert!(deterministic, "same seed + timeline must reproduce reports");

    // Property 3: cloning is failure insurance.
    let fewer = requeued[0] < requeued[1];
    assert!(
        fewer,
        "dollymp2 must fully lose strictly fewer tasks than dollymp0 \
         (got {} vs {})",
        requeued[0], requeued[1]
    );

    let report = Report {
        cluster: "paper_30_node".to_string(),
        jobs: jobs.len(),
        seed: SEED,
        config_fingerprint: config_fingerprint(
            SEED,
            &BenchParams {
                cluster: "paper_30_node",
                workload: "light_load",
                jobs: jobs.len(),
                rates: RATES.to_vec(),
                mean_repair_slots: MEAN_REPAIR,
                schedulers: SCHEDULERS.to_vec(),
            },
        ),
        horizon,
        mean_repair_slots: MEAN_REPAIR,
        zero_rate_matches_baseline,
        deterministic,
        dollymp2_requeued_total: requeued[0],
        dollymp0_requeued_total: requeued[1],
        cloning_loses_strictly_fewer_tasks: fewer,
        sweep,
    };
    let path = "BENCH_resilience.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write BENCH_resilience.json");
    println!("\nwrote {path}");
}
