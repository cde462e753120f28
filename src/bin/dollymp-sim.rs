//! `dollymp-sim` — command-line simulation driver.
//!
//! Runs one workload under one or more schedulers on a chosen cluster and
//! prints a comparison table; optionally dumps full per-job reports as
//! JSON for downstream analysis. `--timeline PREFIX` records each run and
//! writes the copy spans read from its journal as a Chrome trace,
//! `PREFIX.<scheduler>.json` (5 s per slot).
//!
//! ```text
//! dollymp-sim [--scheduler NAME[,NAME…]] [--cluster paper30|google]
//!             [--workload google|light|heavy-pagerank|heavy-wordcount]
//!             [--trace FILE.json] [--jobs N] [--servers N] [--seed N]
//!             [--load F] [--out FILE.json] [--timeline PREFIX]
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --release --bin dollymp-sim -- \
//!     --scheduler dollymp2,tetris,drf --workload google --jobs 500 \
//!     --servers 100 --load 0.6 --seed 7
//! cargo run --release --bin dollymp-sim -- --trace my_trace.json \
//!     --cluster paper30 --scheduler capacity,dollymp2
//! ```

use dollymp::cluster::trace::{chrome_trace, copy_spans};
use dollymp::prelude::*;
use std::process::exit;

#[derive(Debug)]
struct Args {
    schedulers: Vec<String>,
    cluster: String,
    workload: String,
    trace: Option<String>,
    jobs: usize,
    servers: u32,
    seed: u64,
    load: Option<f64>,
    out: Option<String>,
    timeline: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            schedulers: vec!["dollymp2".into(), "tetris".into(), "capacity-nospec".into()],
            cluster: "google".into(),
            workload: "google".into(),
            trace: None,
            jobs: 300,
            servers: 100,
            seed: 42,
            load: Some(0.6),
            out: None,
            timeline: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dollymp-sim [--scheduler NAME[,NAME…]] [--cluster paper30|google]\n\
         \x20                  [--workload google|light|heavy-pagerank|heavy-wordcount]\n\
         \x20                  [--trace FILE.json] [--jobs N] [--servers N] [--seed N]\n\
         \x20                  [--load F] [--out FILE.json] [--timeline PREFIX]\n\
         schedulers: {}",
        dollymp::schedulers::ALL_NAMES.join(", ")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scheduler" | "-s" => {
                args.schedulers = val().split(',').map(str::to_string).collect()
            }
            "--cluster" | "-c" => args.cluster = val(),
            "--workload" | "-w" => args.workload = val(),
            "--trace" | "-t" => args.trace = Some(val()),
            "--jobs" | "-j" => args.jobs = val().parse().unwrap_or_else(|_| usage()),
            "--servers" | "-n" => args.servers = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--load" | "-l" => args.load = Some(val().parse().unwrap_or_else(|_| usage())),
            "--out" | "-o" => args.out = Some(val()),
            "--timeline" => args.timeline = Some(val()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn build_cluster(args: &Args) -> ClusterSpec {
    match args.cluster.as_str() {
        "paper30" => ClusterSpec::paper_30_node(),
        "google" => ClusterSpec::google_like(args.servers, args.seed),
        other => {
            eprintln!("unknown cluster {other}");
            usage()
        }
    }
}

fn build_workload(args: &Args, cluster: &ClusterSpec) -> Vec<JobSpec> {
    if let Some(path) = &args.trace {
        match Trace::load(path) {
            Ok(t) => return t.jobs,
            Err(e) => {
                eprintln!("failed to load trace {path}: {e}");
                exit(1);
            }
        }
    }
    let mut jobs = match args.workload.as_str() {
        "google" => generate_google(&GoogleConfig {
            njobs: args.jobs,
            mean_gap_slots: 2.0,
            seed: args.seed,
            ..Default::default()
        }),
        "light" => dollymp::workload::suite::light_load(args.seed, (100 / args.jobs.max(1)).max(1)),
        "heavy-pagerank" => {
            dollymp::workload::suite::heavy_pagerank(args.seed, (500 / args.jobs.max(1)).max(1))
        }
        "heavy-wordcount" => {
            dollymp::workload::suite::heavy_wordcount(args.seed, (500 / args.jobs.max(1)).max(1))
        }
        other => {
            eprintln!("unknown workload {other}");
            usage()
        }
    };
    if let (Some(load), "google") = (args.load, args.workload.as_str()) {
        // Re-space arrivals for the requested dominant-share load.
        let totals = cluster.totals();
        let total_work: f64 = jobs.iter().map(|j| j.volume(totals, 0.0)).sum();
        let span = total_work / load;
        let gap = span / jobs.len().max(1) as f64;
        let arrivals = dollymp::workload::arrivals::poisson(jobs.len(), gap, args.seed ^ 0xC11);
        for (j, &a) in jobs.iter_mut().zip(&arrivals) {
            j.arrival = a;
        }
        jobs.sort_by_key(|j| (j.arrival, j.id));
    }
    jobs
}

fn main() {
    let args = parse_args();
    let cluster = build_cluster(&args);
    let jobs = build_workload(&args, &cluster);
    let sampler = DurationSampler::new(args.seed, StragglerModel::google_traces());
    println!(
        "cluster: {} servers, totals {} | seed {}",
        cluster.len(),
        cluster.totals(),
        args.seed
    );
    let stats = dollymp::workload::WorkloadStats::compute(&jobs, cluster.totals());
    println!("{}\n", stats.render());
    println!(
        "{:<20} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "scheduler", "total flow", "mean flow", "mean run", "makespan", "clones"
    );

    let mut reports = Vec::new();
    let mut timelines = Vec::new();
    for name in &args.schedulers {
        let Some(mut s) = by_name(name) else {
            eprintln!("unknown scheduler {name}");
            usage()
        };
        let cfg = engine_cfg_for(name);
        let mut events: Vec<TraceEvent> = Vec::new();
        let recorder: &mut dyn Recorder = match args.timeline {
            Some(_) => &mut events,
            None => &mut NullRecorder,
        };
        let r = match try_simulate_with_faults_recorded(
            &cluster,
            jobs.clone(),
            &sampler,
            s.as_mut(),
            &cfg,
            &FaultTimeline::empty(),
            recorder,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        };
        timelines.push(copy_spans(&events));
        println!(
            "{:<20} {:>12} {:>10.1} {:>10.1} {:>10} {:>12}",
            name,
            r.total_flowtime(),
            r.mean_flowtime(),
            r.mean_running_time(),
            r.makespan,
            r.jobs.iter().map(|j| j.clone_copies).sum::<u64>()
        );
        reports.push(r);
    }

    if let Some(path) = &args.timeline {
        // One Chrome-trace file per scheduler: <path>.<scheduler>.json
        for (r, spans) in reports.iter().zip(&timelines) {
            let file = format!("{path}.{}.json", r.scheduler);
            if let Err(e) = std::fs::write(&file, chrome_trace(spans, 5.0)) {
                eprintln!("failed to write {file}: {e}");
                exit(1);
            }
            println!("timeline ({} spans) written to {file}", spans.len());
        }
    }

    if let Some(path) = &args.out {
        // `.csv` → per-job CSV (one file per scheduler); anything else →
        // one JSON document with the full reports.
        if path.ends_with(".csv") {
            for r in &reports {
                let file = path.replace(".csv", &format!(".{}.csv", r.scheduler));
                if let Err(e) = std::fs::write(&file, r.jobs_to_csv()) {
                    eprintln!("failed to write {file}: {e}");
                    exit(1);
                }
                println!("per-job csv written to {file}");
            }
        } else {
            match serde_json::to_string(&reports) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("failed to write {path}: {e}");
                        exit(1);
                    }
                    println!("\nfull reports written to {path}");
                }
                Err(e) => {
                    eprintln!("serialization failed: {e}");
                    exit(1);
                }
            }
        }
    }
}
