//! `dollymp-trace` — inspect, summarize, diff and verify flight-recorder
//! journals (the JSONL files written by `dollymp_obs::journal::Journal`).
//!
//! ```text
//! dollymp-trace inspect <journal> [--limit N] [--job J] [--server S]
//! dollymp-trace summary <journal>
//! dollymp-trace diff <journal-a> <journal-b>
//! dollymp-trace verify <journal> <report.json>
//! ```

use dollymp_cluster::metrics::SimReport;
use dollymp_cluster::spec::ServerId;
use dollymp_core::job::JobId;
use dollymp_obs::journal::Journal;
use dollymp_obs::registry::MetricsRegistry;
use dollymp_obs::replay;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dollymp-trace inspect <journal> [--limit N] [--job J] [--server S]
  dollymp-trace summary <journal>
  dollymp-trace diff <journal-a> <journal-b>
  dollymp-trace verify <journal> <report.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => inspect(&args[1..]),
        Some("summary") => summary(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("verify") => verify(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Journal, String> {
    Journal::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn header_line(j: &Journal) -> String {
    format!(
        "scheduler={} seed={} fingerprint={} version={} events={} (utilization={})",
        j.header.scheduler,
        j.header.seed,
        j.header.config_fingerprint,
        j.header.version,
        j.events.len(),
        j.header.record_utilization,
    )
}

fn inspect(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or(USAGE)?;
    let mut limit = usize::MAX;
    let mut job: Option<JobId> = None;
    let mut server: Option<ServerId> = None;
    let mut i = 1;
    while i < args.len() {
        let parse = |v: Option<&String>, what: &str| -> Result<u64, String> {
            v.ok_or(format!("{what} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{what}: {e}"))
        };
        match args[i].as_str() {
            "--limit" => limit = parse(args.get(i + 1), "--limit")? as usize,
            "--job" => job = Some(JobId(parse(args.get(i + 1), "--job")?)),
            "--server" => server = Some(ServerId(parse(args.get(i + 1), "--server")? as u32)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 2;
    }
    let journal = load(path)?;
    println!("{}", header_line(&journal));
    let mut shown = 0usize;
    for (idx, ev) in journal.events.iter().enumerate() {
        if job.is_some() && ev.job() != job {
            continue;
        }
        if server.is_some() && ev.server() != server {
            continue;
        }
        if shown >= limit {
            println!("... (truncated at --limit {limit})");
            break;
        }
        shown += 1;
        let body = serde_json::to_string(ev).map_err(|e| e.to_string())?;
        println!("#{idx:<6} t={:<8} {:<16} {body}", ev.at(), ev.kind_str());
    }
    Ok(ExitCode::SUCCESS)
}

fn summary(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or(USAGE)?;
    let journal = load(path)?;
    println!("{}", header_line(&journal));
    let reg = MetricsRegistry::from_events(&journal.events);
    println!("\ncounters:");
    for (name, v) in reg.counters() {
        println!("  {name:<24} {v}");
    }
    println!("\nhistograms (nearest-rank):");
    for (name, h) in reg.histograms() {
        println!(
            "  {name:<24} n={} mean={} p50={} p99={} max={}",
            h.count(),
            h.mean(),
            h.percentile(0.50),
            h.percentile(0.99),
            h.max(),
        );
    }
    let report = replay::replay_report(&journal);
    println!("\nreplayed report:");
    println!("  jobs={} makespan={}", report.jobs.len(), report.makespan);
    println!(
        "  total_flowtime={} mean_flowtime={:.2}",
        report.total_flowtime(),
        report.mean_flowtime()
    );
    println!(
        "  decision_points={} sched p50={}ns p99={}ns",
        report.decision_points, report.sched_overhead.p50_ns, report.sched_overhead.p99_ns
    );
    if report.faults != Default::default() {
        println!(
            "  faults: crashes={} evicted={} saved_by_clone={} requeued={} work_lost={:.3}",
            report.faults.server_crashes,
            report.faults.copies_evicted,
            report.faults.tasks_saved_by_clone,
            report.faults.tasks_requeued,
            report.faults.work_lost_norm,
        );
    }
    if !report.guard.is_clean() {
        println!(
            "  guard: rejections={} fallback_passes={} quarantined_at={:?}",
            report.guard.total_rejections(),
            report.guard.fallback_passes,
            report.guard.quarantined_at,
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &[String]) -> Result<ExitCode, String> {
    let (pa, pb) = match args {
        [a, b] => (a, b),
        _ => return Err(USAGE.to_string()),
    };
    let a = load(pa)?;
    let b = load(pb)?;
    if a.header != b.header {
        println!("headers differ:");
        println!("  a: {}", header_line(&a));
        println!("  b: {}", header_line(&b));
    }
    let n = a.events.len().min(b.events.len());
    for i in 0..n {
        if a.events[i] != b.events[i] {
            println!("first divergent event at #{i}:");
            println!(
                "  a: {}",
                serde_json::to_string(&a.events[i]).map_err(|e| e.to_string())?
            );
            println!(
                "  b: {}",
                serde_json::to_string(&b.events[i]).map_err(|e| e.to_string())?
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    if a.events.len() != b.events.len() {
        println!(
            "streams share a {n}-event prefix but lengths differ: a={} b={}",
            a.events.len(),
            b.events.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    if a.header != b.header {
        return Ok(ExitCode::FAILURE);
    }
    println!("journals are identical ({n} events)");
    Ok(ExitCode::SUCCESS)
}

fn verify(args: &[String]) -> Result<ExitCode, String> {
    let (jp, rp) = match args {
        [a, b] => (a, b),
        _ => return Err(USAGE.to_string()),
    };
    let journal = load(jp)?;
    let text = std::fs::read_to_string(rp).map_err(|e| format!("{rp}: {e}"))?;
    let live: SimReport = serde_json::from_str(&text).map_err(|e| format!("{rp}: {e}"))?;
    match replay::verify(&journal, &live) {
        Ok(()) => {
            println!(
                "verified: journal replays to a byte-identical report ({} events, {} jobs)",
                journal.events.len(),
                live.jobs.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(d) => {
            println!("{d}");
            Ok(ExitCode::FAILURE)
        }
    }
}
