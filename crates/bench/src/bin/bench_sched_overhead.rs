//! §6.3.3 scheduling-overhead report: measures the two hot paths of the
//! Criterion `sched_overhead` bench without its harness, compares them
//! against the pre-optimization baselines recorded below, and writes
//! `BENCH_sched_overhead.json` into the current directory.
//!
//! The baselines are Criterion means measured on this repository at the
//! commit *before* the incremental-Algorithm-1 / compacted-placement
//! work landed, on the same class of machine that runs CI. They are
//! deliberately hardcoded: the point of the artifact is to document the
//! before/after of that change, not to drift with every run.
//!
//! Also exercises [`SimReport::sched_overhead`] end to end with a small
//! simulated workload, so the emitted JSON shows the engine-side
//! per-decision-point summary alongside the microbenchmarks.

use dollymp_cluster::prelude::*;
use dollymp_cluster::view::ClusterView;
use dollymp_core::prelude::*;
use dollymp_core::speedup::SpeedupFn;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Criterion mean before the hot-path work, nanoseconds.
const BASELINE_TRANSIENT_1000_NS: u64 = 193_540;
/// Criterion mean before the hot-path work, nanoseconds.
const BASELINE_SCHEDULE_PASS_NS: u64 = 16_570_000;

fn transient_inputs(n: usize) -> Vec<TransientJob> {
    (0..n)
        .map(|i| TransientJob {
            id: JobId(i as u64),
            volume: 0.1 + (i % 97) as f64 * 0.37,
            etime: 1.0 + (i % 53) as f64 * 1.9,
            dominant: 0.0001 + (i % 11) as f64 * 0.0003,
            speedup: SpeedupFn::Pareto { alpha: 2.0 },
        })
        .collect()
}

/// Mean wall-clock of `f` over `iters` runs after `warmup` runs, in ns.
fn time_mean<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    (t0.elapsed().as_nanos() / iters as u128) as u64
}

fn measure_transient_1000() -> u64 {
    let cfg = TransientConfig::default();
    let jobs = transient_inputs(1000);
    time_mean(20, 200, || {
        black_box(transient_schedule(black_box(&jobs), black_box(&cfg)));
    })
}

fn measure_schedule_pass() -> u64 {
    let cluster = ClusterSpec::google_like(30_000, 1);
    let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
    let mut jobs: BTreeMap<JobId, dollymp_cluster::state::JobState> = BTreeMap::new();
    for i in 0..1000u64 {
        let spec = JobSpec::single_phase(
            JobId(i),
            4,
            Resources::new(1.0 + (i % 3) as f64, 2.0),
            10.0 + (i % 7) as f64,
            4.0,
        );
        jobs.insert(
            JobId(i),
            dollymp_cluster::state::JobState::new(spec, vec![vec![10.0; 4]]),
        );
    }
    // Fresh scheduler per iteration (a pass consumes nothing, but the
    // Criterion bench does the same, so the numbers stay comparable).
    // The arrival hook only marks the priorities stale, so the timed pass
    // runs Algorithm 1 first: the §6.3.3 per-decision-point cost.
    let mut passes = Vec::new();
    for it in 0..13 {
        let mut s = dollymp_schedulers::DollyMP::new();
        let view = ClusterView::new(0, &cluster, &free, &jobs);
        s.on_job_arrival(&view, JobId(0));
        let t0 = Instant::now();
        let batch = black_box(s.schedule(&view));
        let ns = t0.elapsed().as_nanos() as u64;
        assert!(!batch.is_empty(), "placement pass placed nothing");
        if it >= 3 {
            passes.push(ns);
        }
    }
    passes.iter().sum::<u64>() / passes.len() as u64
}

/// Run a small mixed workload and return the engine-side overhead
/// summary, proving the `SimReport::sched_overhead` plumbing end to end.
fn simulated_overhead() -> SchedOverhead {
    let cluster = ClusterSpec::paper_30_node();
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        let (n, theta) = if i % 3 == 0 { (20, 40.0) } else { (4, 8.0) };
        jobs.push(
            JobSpec::builder(JobId(i))
                .arrival(i * 2)
                .phase(dollymp_core::job::PhaseSpec::new(
                    n,
                    Resources::new(2.0, 4.0),
                    theta,
                    theta / 2.0,
                ))
                .build()
                .expect("valid job spec"),
        );
    }
    let sampler = DurationSampler::new(17, StragglerModel::ParetoFit);
    let mut s = dollymp_schedulers::DollyMP::new();
    let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
    assert_eq!(r.sched_overhead.decision_points, r.decision_points);
    r.sched_overhead
}

use dollymp_bench::runner::{best_of_smoke, json_obj as obj};

fn entry(name: &str, before_ns: u64, after_ns: u64) -> serde_json::Value {
    let speedup = before_ns as f64 / after_ns.max(1) as f64;
    obj(vec![
        ("name", serde_json::Value::Str(name.to_string())),
        ("before_ns", serde_json::Value::UInt(before_ns)),
        ("after_ns", serde_json::Value::UInt(after_ns)),
        (
            "speedup",
            serde_json::Value::Float((speedup * 100.0).round() / 100.0),
        ),
    ])
}

/// Pull `after_ns` of `schedule_pass_30k_servers_1k_jobs` out of a
/// committed `BENCH_sched_overhead.json`, if present and well-formed.
fn committed_pass_ns(text: &str) -> Option<u64> {
    let root: serde_json::Value = serde_json::from_str(text).ok()?;
    root.get("benchmarks")?.as_array()?.iter().find_map(|b| {
        if b.get("name")?.as_str()? == "schedule_pass_30k_servers_1k_jobs" {
            b.get("after_ns")?.as_u64()
        } else {
            None
        }
    })
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        // CI guard: the measured pass mean must stay within 2× the
        // committed artifact, best-of-3 (same gate as `bench_scale`).
        let Some(reference) = std::fs::read_to_string("BENCH_sched_overhead.json")
            .ok()
            .as_deref()
            .and_then(committed_pass_ns)
        else {
            eprintln!("FAIL: no committed BENCH_sched_overhead.json with a schedule-pass entry");
            std::process::exit(1);
        };
        let gate = best_of_smoke("schedule pass mean", reference, 2, 3, |_| {
            measure_schedule_pass()
        });
        if gate.is_err() {
            eprintln!("FAIL: schedule pass mean regressed more than 2x");
            std::process::exit(1);
        }
        return;
    }

    println!("measuring transient_1000_jobs ...");
    let transient = measure_transient_1000();
    println!("  {transient} ns (baseline {BASELINE_TRANSIENT_1000_NS} ns)");
    println!("measuring schedule_pass_30k_servers_1k_jobs ...");
    let pass = measure_schedule_pass();
    println!("  {pass} ns (baseline {BASELINE_SCHEDULE_PASS_NS} ns)");
    println!("running simulated workload for SimReport.sched_overhead ...");
    let sim = simulated_overhead();
    println!(
        "  {} decision points, mean {} ns, p99 {} ns",
        sim.decision_points, sim.mean_ns, sim.p99_ns
    );

    let report = obj(vec![
        (
            "paper_claim",
            serde_json::Value::Str(
                "§6.3.3: < 20 ms per decision pass; scheduling 1K jobs to \
                 30K machines costs < 50 ms"
                    .to_string(),
            ),
        ),
        (
            "benchmarks",
            serde_json::Value::Array(vec![
                entry("transient_1000_jobs", BASELINE_TRANSIENT_1000_NS, transient),
                entry(
                    "schedule_pass_30k_servers_1k_jobs",
                    BASELINE_SCHEDULE_PASS_NS,
                    pass,
                ),
            ]),
        ),
        ("simulated_run", serde::Serialize::to_value(&sim)),
    ]);
    let path = "BENCH_sched_overhead.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write BENCH_sched_overhead.json");
    println!("wrote {path}");
}
