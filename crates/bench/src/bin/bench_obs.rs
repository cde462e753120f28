//! Flight-recorder overhead and record→replay verification, writing
//! `BENCH_obs.json` into the current directory.
//!
//! Per scheduler the binary runs the same fault-injected workload on
//! the paper's 30-node cluster twice — once through the `NullRecorder`
//! (recording off: the steady-state configuration every other bench
//! measures) and once into an in-memory `Journal` — takes the best of
//! several timed repetitions of each, and reports the relative
//! overhead, the event volume, and whether the journal replays to a
//! byte-identical `SimReport` (the run aborts if it does not: this
//! binary doubles as the record→replay acceptance check).
//!
//! `--smoke` runs one dollymp2 cell, writes the journal and the live
//! report under `target/experiments/` for the `dollymp-trace` CLI to
//! verify in CI, and exits non-zero on any divergence — the CI
//! record→replay smoke step.

use dollymp_bench::out_dir;
use dollymp_bench::runner::{cell_seed, json_obj as obj, run_matrix, Parallelism};
use dollymp_cluster::prelude::*;
use dollymp_faults::FaultConfig;
use dollymp_obs::config_fingerprint;
use dollymp_obs::journal::Journal;
use dollymp_obs::registry::MetricsRegistry;
use dollymp_obs::replay;
use dollymp_workload::{generate_google, GoogleConfig};
use std::time::Instant;

const SEED: u64 = 5;
const SCHEDULERS: [&str; 4] = ["dollymp2", "dollymp0", "fifo", "tetris"];

struct Case {
    cluster: ClusterSpec,
    jobs: Vec<dollymp_core::job::JobSpec>,
    sampler: DurationSampler,
    cfg: EngineConfig,
    faults: FaultTimeline,
}

fn case(seed: u64, njobs: usize) -> Case {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = generate_google(&GoogleConfig {
        njobs,
        seed,
        ..Default::default()
    });
    let faults = dollymp_faults::generate(
        &cluster,
        &FaultConfig::new(seed, 400)
            .with_crash_rate(0.001, 15.0)
            .with_fail_slow(0.1, 0.5),
    );
    Case {
        cluster,
        jobs,
        sampler: DurationSampler::new(seed, StragglerModel::ParetoFit),
        cfg: EngineConfig {
            record_utilization: true,
            ..EngineConfig::default()
        },
        faults,
    }
}

fn run_off(c: &Case, name: &str) -> (SimReport, u64) {
    let mut s = dollymp_schedulers::by_name(name).expect("known scheduler");
    let t0 = Instant::now();
    let r = try_simulate_with_faults(
        &c.cluster,
        c.jobs.clone(),
        &c.sampler,
        s.as_mut(),
        &c.cfg,
        &c.faults,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    (r, t0.elapsed().as_nanos() as u64)
}

fn run_on(c: &Case, name: &str) -> (SimReport, Journal, u64) {
    let mut s = dollymp_schedulers::by_name(name).expect("known scheduler");
    let mut journal = Journal::for_run(name, SEED, &c.cfg, &c.cfg);
    let t0 = Instant::now();
    let r = try_simulate_with_faults_recorded(
        &c.cluster,
        c.jobs.clone(),
        &c.sampler,
        s.as_mut(),
        &c.cfg,
        &c.faults,
        &mut journal,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    (r, journal, t0.elapsed().as_nanos() as u64)
}

fn smoke() -> ! {
    let c = case(cell_seed(SEED, 0), 60);
    let (live, journal, _) = run_on(&c, "dollymp2");
    assert!(
        live.faults.server_crashes > 0,
        "smoke workload must actually exercise the fault path"
    );
    if let Err(d) = replay::verify(&journal, &live) {
        eprintln!("FAIL: {d}");
        std::process::exit(1);
    }
    // Leave the artifacts for the `dollymp-trace verify` CI step.
    let jp = out_dir().join("smoke_journal.jsonl");
    let rp = out_dir().join("smoke_report.json");
    journal.save(&jp).expect("write smoke journal");
    std::fs::write(
        &rp,
        serde_json::to_string_pretty(&live).expect("serializable"),
    )
    .expect("write smoke report");
    println!(
        "smoke OK: {} events replay to a byte-identical report ({} jobs, {} crashes)",
        journal.events.len(),
        live.jobs.len(),
        live.faults.server_crashes
    );
    println!("journal: {}", jp.display());
    println!("report:  {}", rp.display());
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
    }

    let c = case(cell_seed(SEED, 0), 120);
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>9} {:>12}",
        "scheduler", "off_ns", "on_ns", "overhead", "events", "journal_kb"
    );
    // Sequential: wall-clock comparisons must not contend for cores.
    let cells = run_matrix(&SCHEDULERS, Parallelism::Sequential, |_, &name| {
        const REPS: usize = 5;
        let mut off_best = u64::MAX;
        let mut on_best = u64::MAX;
        let mut verified = false;
        let mut events = 0u64;
        let mut journal_bytes = 0u64;
        let mut registry_decision_points = 0u64;
        for _ in 0..REPS {
            let (off_report, off_ns) = run_off(&c, name);
            let (on_report, journal, on_ns) = run_on(&c, name);
            replay::verify(&journal, &on_report).unwrap_or_else(|d| {
                eprintln!("FAIL ({name}): {d}");
                std::process::exit(1);
            });
            // Recorder on/off must not change the simulation itself.
            assert_eq!(
                off_report.jobs, on_report.jobs,
                "{name}: recording perturbed the run"
            );
            let reg = MetricsRegistry::from_events(&journal.events);
            registry_decision_points = reg.counter("decision_points");
            assert_eq!(registry_decision_points, on_report.decision_points);
            off_best = off_best.min(off_ns);
            on_best = on_best.min(on_ns);
            events = journal.events.len() as u64;
            journal_bytes = journal.to_jsonl().len() as u64;
            verified = true;
        }
        let overhead = on_best as f64 / off_best.max(1) as f64 - 1.0;
        println!(
            "{name:<10} {off_best:>12} {on_best:>12} {:>8.1}% {events:>9} {:>12.1}",
            overhead * 100.0,
            journal_bytes as f64 / 1024.0
        );
        obj(vec![
            ("scheduler", serde_json::Value::Str(name.to_string())),
            ("recorder_off_ns", serde_json::Value::UInt(off_best)),
            ("recorder_on_ns", serde_json::Value::UInt(on_best)),
            (
                "overhead_pct",
                serde_json::Value::Float((overhead * 1000.0).round() / 10.0),
            ),
            ("events", serde_json::Value::UInt(events)),
            ("journal_bytes", serde_json::Value::UInt(journal_bytes)),
            (
                "decision_points",
                serde_json::Value::UInt(registry_decision_points),
            ),
            ("replay_verified", serde_json::Value::Bool(verified)),
        ])
    });

    let report = obj(vec![
        (
            "protocol",
            serde_json::Value::Str(
                "paper_30_node, 120 Google-like jobs, fault timeline \
                 (crashes + fail-slow), utilization recording on. \
                 Best-of-5 wall time per configuration; recorder_off \
                 = NullRecorder (steady-state path), recorder_on = full \
                 in-memory journal. Every recorded run is replay-verified \
                 byte-identical before timing is reported"
                    .to_string(),
            ),
        ),
        (
            "config_fingerprint",
            serde_json::Value::Str(config_fingerprint(SEED, &c.cfg)),
        ),
        ("cells", serde_json::Value::Array(cells)),
    ]);
    let path = "BENCH_obs.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write BENCH_obs.json");
    println!("wrote {path}");
}
