//! Guarded-scheduling overload sweep: the §6.3.3 containment story under
//! pressure. Writes `BENCH_guard.json` into the current directory.
//!
//! The sweep compresses a light-load workload's arrivals by increasing
//! overload factors (1.0×, 1.2×, 1.5× the calibrated arrival rate) and
//! runs DollyMP with cloning (`dollymp2`) twice per point: bare, and
//! wrapped in [`GuardedScheduler`] with the overload preset (clone
//! throttle + bounded deferral queue). Three properties are checked and
//! recorded:
//!
//! 1. **Transparency at calibrated load** — at 1.0× the guarded report
//!    is byte-identical to the unguarded one (after zeroing wall-clock
//!    timings) when the throttle never engages, and the guard's audit
//!    trail is clean either way on a well-behaved policy.
//! 2. **No regression under overload** — at every factor ≥ 1.2× the
//!    guarded run's makespan is no worse than the unguarded run's:
//!    dropping speculative clones while the cluster is saturated cannot
//!    slow the work down.
//! 3. **Containment** — the adversarial policy under the guard still
//!    completes every job (with a nonzero audit trail), while strict
//!    mode (`try_simulate_with_faults`) refuses it with a typed error instead of
//!    panicking.

use dollymp_bench::{run_named, scale};
use dollymp_cluster::guard::{GuardConfig, GuardedScheduler};
use dollymp_cluster::prelude::*;
use dollymp_core::job::JobSpec;
use dollymp_obs::config_fingerprint;
use dollymp_schedulers::{AdversarialConfig, AdversarialScheduler};
use dollymp_workload::suite::light_load;
use serde::Serialize;

const SEED: u64 = 13;
const FACTORS: [f64; 3] = [1.0, 1.2, 1.5];

/// The knobs that define this sweep — serialized into the
/// [`config_fingerprint`] so result files from different parameterizations
/// can't be confused for one another.
#[derive(Serialize)]
struct BenchParams {
    cluster: &'static str,
    workload: &'static str,
    jobs: usize,
    factors: Vec<f64>,
    guard: &'static str,
}

#[derive(Serialize)]
struct SweepPoint {
    overload_factor: f64,
    unguarded_makespan: u64,
    guarded_makespan: u64,
    unguarded_mean_flowtime: f64,
    guarded_mean_flowtime: f64,
    clones_throttled: u64,
    deferred: u64,
    rejections: u64,
    quarantined: bool,
}

#[derive(Serialize)]
struct Adversarial {
    jobs_completed: usize,
    jobs_submitted: usize,
    total_rejections: u64,
    policy_panics: u64,
    budget_overruns: u64,
    fallback_passes: u64,
    quarantined: bool,
    strict_mode_reason: String,
}

#[derive(Serialize)]
struct Report {
    cluster: String,
    jobs: usize,
    seed: u64,
    config_fingerprint: String,
    transparent_at_calibrated_load: bool,
    guarded_no_worse_at_overload: bool,
    sweep: Vec<SweepPoint>,
    adversarial: Adversarial,
}

/// Compress arrivals by `factor`: the same jobs offered `factor`× as
/// fast. 1.0 leaves the workload untouched.
fn overload(jobs: &[JobSpec], factor: f64) -> Vec<JobSpec> {
    let mut out = jobs.to_vec();
    for j in &mut out {
        j.arrival = (j.arrival as f64 / factor).round() as u64;
    }
    out.sort_by_key(|j| (j.arrival, j.id));
    out
}

fn run_guarded(
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    sampler: &DurationSampler,
    cfg: GuardConfig,
) -> SimReport {
    let inner = dollymp_schedulers::by_name("dollymp2").expect("dollymp2 is registered");
    let mut guard = GuardedScheduler::with_config(inner, cfg);
    simulate(
        cluster,
        jobs.to_vec(),
        sampler,
        &mut guard,
        &EngineConfig::default(),
    )
}

fn main() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = light_load(SEED, scale(4));
    let sampler = DurationSampler::new(SEED, StragglerModel::ParetoFit);
    let fingerprint = config_fingerprint(
        SEED,
        &BenchParams {
            cluster: "paper_30_node",
            workload: "light_load",
            jobs: jobs.len(),
            factors: FACTORS.to_vec(),
            guard: "overload-preset",
        },
    );

    let mut sweep = Vec::new();
    let mut transparent = true;
    let mut no_worse = true;
    println!(
        "{:>7} {:>14} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "factor", "makespan", "guarded", "throttled", "deferred", "rejected", "flow Δ%"
    );
    for &factor in &FACTORS {
        let load = overload(&jobs, factor);
        let bare = run_named(
            "dollymp2",
            &cluster,
            &load,
            &sampler,
            &EngineConfig::default(),
        );
        let guarded = run_guarded(&cluster, &load, &sampler, GuardConfig::overload());
        assert_eq!(
            guarded.jobs.len(),
            load.len(),
            "guarded run must complete every job at {factor}x"
        );
        if factor == 1.0 && guarded.guard.is_clean() {
            transparent &= bare.clone().scrubbed() == guarded.clone().scrubbed();
        }
        if factor >= 1.2 {
            no_worse &= guarded.makespan <= bare.makespan;
        }
        let flow_delta =
            100.0 * (guarded.mean_flowtime() - bare.mean_flowtime()) / bare.mean_flowtime();
        println!(
            "{:>7.1} {:>14} {:>12} {:>12} {:>10} {:>9} {:>+9.2}",
            factor,
            bare.makespan,
            guarded.makespan,
            guarded.guard.clones_throttled,
            guarded.guard.deferred,
            guarded.guard.total_rejections(),
            flow_delta,
        );
        sweep.push(SweepPoint {
            overload_factor: factor,
            unguarded_makespan: bare.makespan,
            guarded_makespan: guarded.makespan,
            unguarded_mean_flowtime: bare.mean_flowtime(),
            guarded_mean_flowtime: guarded.mean_flowtime(),
            clones_throttled: guarded.guard.clones_throttled,
            deferred: guarded.guard.deferred,
            rejections: guarded.guard.total_rejections(),
            quarantined: guarded.guard.quarantined_at.is_some(),
        });
    }
    assert!(
        transparent,
        "guard must be invisible at calibrated load when it never intervenes"
    );
    assert!(
        no_worse,
        "guarded DollyMP must not regress makespan at ≥1.2x overload"
    );

    // Containment demonstration: the adversary guarded vs. strict mode.
    let adv_jobs = overload(&jobs, 1.0);
    let mut guard = GuardedScheduler::with_config(
        AdversarialScheduler::with_config(AdversarialConfig::full_hostility()),
        GuardConfig {
            budget: std::time::Duration::from_micros(200),
            ..GuardConfig::default()
        },
    );
    let contained = simulate(
        &cluster,
        adv_jobs.clone(),
        &sampler,
        &mut guard,
        &EngineConfig::default(),
    );
    assert_eq!(contained.jobs.len(), adv_jobs.len());
    assert!(!contained.guard.is_clean());

    let mut bare_adv = AdversarialScheduler::new();
    let strict_err = try_simulate_with_faults(
        &cluster,
        adv_jobs.clone(),
        &sampler,
        &mut bare_adv,
        &EngineConfig::default(),
        &FaultTimeline::empty(),
    )
    .expect_err("strict mode must refuse the adversary");
    let adversarial = Adversarial {
        jobs_completed: contained.jobs.len(),
        jobs_submitted: adv_jobs.len(),
        total_rejections: contained.guard.total_rejections(),
        policy_panics: contained.guard.policy_panics,
        budget_overruns: contained.guard.budget_overruns,
        fallback_passes: contained.guard.fallback_passes,
        quarantined: contained.guard.quarantined_at.is_some(),
        strict_mode_reason: strict_err.reason().to_string(),
    };
    println!(
        "\nadversary: contained run finished {}/{} jobs ({} rejections, \
         {} panics caught); strict mode refused with `{}`",
        adversarial.jobs_completed,
        adversarial.jobs_submitted,
        adversarial.total_rejections,
        adversarial.policy_panics,
        adversarial.strict_mode_reason,
    );

    let report = Report {
        cluster: "paper_30_node".to_string(),
        jobs: jobs.len(),
        seed: SEED,
        config_fingerprint: fingerprint,
        transparent_at_calibrated_load: transparent,
        guarded_no_worse_at_overload: no_worse,
        sweep,
        adversarial,
    };
    let path = "BENCH_guard.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write BENCH_guard.json");
    println!("wrote {path}");
}
