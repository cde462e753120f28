//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Generates the named workload's instances from the seed, runs DollyMP²
//! on each through the engine's public entry points, repeating for about
//! `--seconds`, checks every run's outputs, prints each metric as
//! `name value unit`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` makes the traced runs that give
//! the per-layer metrics and writes the spans of one run next to the
//! binary. Exits 1 when any run or check failed, 2 on a usage error.

use dollymp_cluster::metrics::{FaultStats, SimReport};
use dollymp_e2ebench::stats::{median, nearest_rank, samples_beyond};
use dollymp_e2ebench::timing::{self_times, Counts, Layer, Span};
use dollymp_e2ebench::workload::{self, Inputs, SetupTimes, Workload};
use dollymp_e2ebench::{
    check_outputs, fingerprint, heap, journal_counts, simulate, JournalCounts, Run,
};
use dollymp_obs::journal::Journal;
use dollymp_obs::replay;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2022;
/// Generations timed before the measured repetitions.
const SETUP_REPS: usize = 11;
/// Generations timed after each measured repetition, so that `setup_s`,
/// the fastest of all of them, draws on the whole run as the simulation
/// timings do.
const SETUP_PER_REP: usize = 5;
/// Fewest measured repetitions (each runs every instance once).
const MIN_REPS: usize = 3;
/// Tail percentile of the per-decision samples. The smallest pooled set
/// (trace3k_burst: two instances of ~229 decision points) keeps ≥ 10
/// samples beyond it, and so does each of its instances alone.
const TAIL_Q: f64 = 0.95;

const USAGE: &str = "usage: e2ebench --workload <paper30_queue|trace3k_burst|faults1k_churn> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics, run tally and check results of one invocation.
struct Outcome {
    seed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    fingerprint: Option<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, why: String) {
        eprintln!("CHECK FAILED: {why}");
        self.notes.push(format!("check failed: {why}"));
        self.failed += 1;
    }

    /// Count one repetition's simulation runs (one per instance) and
    /// check their outputs; returns the reports when every run passed
    /// and the set reproduces the first repetition's fingerprint.
    fn check_rep(&mut self, instances: &[Inputs], runs: &[Run]) -> Option<Vec<SimReport>> {
        let mut reports = Vec::with_capacity(runs.len());
        for (inputs, run) in instances.iter().zip(runs) {
            self.attempted += 1;
            match &run.result {
                Err(e) => self.fail(format!("simulation returned an error: {e}")),
                Ok(report) => match check_outputs(inputs, report) {
                    Err(e) => self.fail(e),
                    Ok(()) => reports.push(report.clone()),
                },
            }
        }
        if reports.len() != runs.len() {
            return None;
        }
        let fp = fingerprint(self.seed, &reports);
        match &self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if *first == fp => {}
            Some(first) => {
                let why = format!("report fingerprint {fp} differs from the first run's {first}");
                self.fail(why);
                return None;
            }
        }
        Some(reports)
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn print(&self) {
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            println!("{name} {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for note in &self.notes {
            println!("# {note}");
        }
        if let Some(fp) = &self.fingerprint {
            println!("# report fingerprint {fp}");
        }
        println!(
            "# failed_frac {} ({} failures over {} simulation runs)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// Whether two generations produced the same inputs.
fn same_inputs(a: &[Inputs], b: &[Inputs]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.jobs == y.jobs && x.faults == y.faults)
}

/// Generate the inputs again, check that they equal `inputs` and drop
/// them. Dropping each copy before the next generation keeps the heap
/// the allocator holds the same from one generation to the next, so these
/// timings do not depend on how many came before.
fn regenerate(args: &Args, inputs: &[Inputs], out: &mut Outcome) -> SetupTimes {
    let (again, times) = args.workload.generate(args.seed);
    if !same_inputs(&again, inputs) {
        out.fail("the same seed generated different inputs".into());
    }
    times
}

/// Generate the inputs `SETUP_REPS` times. Returns the inputs, the step
/// times of the median generation and every generation's total in
/// nanoseconds; a generation that differs from the first fails the
/// determinism check.
fn setup(args: &Args, out: &mut Outcome) -> (Vec<Inputs>, SetupTimes, Vec<f64>) {
    let (inputs, first) = args.workload.generate(args.seed);
    let mut times = vec![first];
    for _ in 1..SETUP_REPS {
        times.push(regenerate(args, &inputs, out));
    }
    times.sort_by_key(SetupTimes::total_ns);
    let totals = times.iter().map(|t| t.total_ns() as f64).collect();
    (inputs, times[SETUP_REPS / 2], totals)
}

/// One repetition: every instance once, in order.
fn rep(instances: &[Inputs], trace: bool) -> Vec<Run> {
    instances.iter().map(|i| simulate(i, trace, None)).collect()
}

/// Keep the element-wise minimum of `best` and `sample`; `false` when
/// their lengths differ.
fn keep_min(best: &mut Vec<u64>, sample: &[u64]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(sample);
        return true;
    }
    if best.len() != sample.len() {
        return false;
    }
    for (b, &s) in best.iter_mut().zip(sample) {
        *b = (*b).min(s);
    }
    true
}

/// The end-to-end metrics. `setup_ns` holds the generation times so far.
fn untraced(args: &Args, instances: &[Inputs], mut setup_ns: Vec<f64>, out: &mut Outcome) {
    let start = Instant::now();
    // Every repetition replays the same deterministic runs, so what differs
    // between repetitions is the host: a busy neighbour slows whole
    // stretches of a run. Each decision point and each stretch between two
    // decision passes is therefore timed at its fastest over the
    // repetitions, which varies far less between invocations than any one
    // repetition does.
    let mut walls = Vec::new();
    let mut best_decisions: Vec<Vec<u64>> = vec![Vec::new(); instances.len()];
    let mut best_segments: Vec<Vec<u64>> = vec![Vec::new(); instances.len()];
    let mut peaks = Vec::new();
    let mut first: Option<Vec<SimReport>> = None;
    let mut reps = 0;
    loop {
        let runs = rep(instances, false);
        reps += 1;
        if let Some(reports) = out.check_rep(instances, &runs) {
            first.get_or_insert(reports);
            walls.push(runs.iter().map(|r| r.wall_ns).sum::<u64>() as f64 / 1e9);
            peaks.push(runs.iter().map(|r| r.peak_heap_bytes).max().unwrap_or(0) as f64 / 1e6);
            for (i, r) in runs.iter().enumerate() {
                if !keep_min(&mut best_decisions[i], &r.decisions)
                    || !keep_min(&mut best_segments[i], &r.segments)
                {
                    out.fail(format!(
                        "instance {i} had {} decision points, earlier {}",
                        r.decisions.len(),
                        best_decisions[i].len()
                    ));
                }
            }
        }
        for _ in 0..SETUP_PER_REP {
            setup_ns.push(regenerate(args, instances, out).total_ns() as f64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let typical = if walls.is_empty() {
            elapsed
        } else {
            median(&walls)
        };
        if reps >= MIN_REPS && elapsed + typical > args.seconds {
            break;
        }
    }
    let Some(reports) = first else { return };
    let mut decisions: Vec<u64> = best_decisions.concat();
    decisions.sort_unstable();
    let samples = decisions.len();
    out.notes.push(format!(
        "{} repetitions of {} instances, wall s {walls:?}; {samples} decision samples, \
         p95 keeps {} beyond",
        walls.len(),
        instances.len(),
        samples_beyond(samples, TAIL_Q)
    ));
    // The fastest generation, for the reason the simulations' timings are
    // the fastest: on a busy host the median of these ~15 ms generations
    // moved by 30% between sets of runs, the fastest far less.
    let fastest_setup = setup_ns.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("setup_s", fastest_setup / 1e9, "s");
    out.metric(
        "sim_wall_s",
        best_segments.iter().flatten().sum::<u64>() as f64 / 1e9,
        "s",
    );
    out.metric(
        "decision_p50_us",
        nearest_rank(&decisions, 0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "decision_p95_us",
        nearest_rank(&decisions, TAIL_Q) as f64 / 1e3,
        "us",
    );
    out.metric("peak_heap_mb", median(&peaks), "MB");
    let mut flows: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| j.flowtime))
        .collect();
    flows.sort_unstable();
    let n = reports.len() as f64;
    out.metric(
        "mean_flowtime_slots",
        flows.iter().sum::<u64>() as f64 / flows.len().max(1) as f64,
        "slots",
    );
    out.metric(
        "flowtime_p99_slots",
        nearest_rank(&flows, 0.99) as f64,
        "slots",
    );
    // Printed, not a metric: one instance's makespan is set by a single
    // straggler of its last jobs and swings by tens of percent between
    // seeds.
    out.notes.push(format!(
        "makespan_slots {} (mean over instances)",
        reports.iter().map(|r| r.makespan as f64).sum::<f64>() / n
    ));
    out.metric(
        "usage_total",
        reports.iter().map(SimReport::total_usage).sum(),
        "norm",
    );
}

/// Per-layer self times of one traced run, in nanoseconds, indexed by
/// `Layer as usize`; checks that none is negative and that they sum to the
/// simulate span.
fn layer_times(spans: &[Span], out: &mut Outcome) -> [f64; 5] {
    let per_span = self_times(spans);
    if let Some((s, v)) = per_span.iter().find(|(_, v)| *v < 0) {
        out.fail(format!(
            "negative self time {v} ns on a {} span",
            s.layer.name()
        ));
    }
    let total: i64 = per_span.iter().map(|(_, v)| v).sum();
    let sim: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Simulate)
        .map(Span::dur_ns)
        .collect();
    if sim.len() != 1 || total != sim[0] as i64 {
        out.fail(format!(
            "layer self times sum to {total} ns, simulate span is {sim:?} ns"
        ));
    }
    let mut by_layer = [0.0; 5];
    for (s, ns) in per_span {
        by_layer[s.layer as usize] += ns as f64;
    }
    by_layer
}

/// Cross-check the decorator against the engine's own accounting.
fn check_decisions(run: &Run, report: &SimReport, out: &mut Outcome) {
    if run.counts.passes != report.decision_points {
        out.fail(format!(
            "decorator saw {} decision points, report has {}",
            run.counts.passes, report.decision_points
        ));
    }
    let ours: u64 = run.decisions.iter().sum();
    let engine = report.sched_overhead.total_ns;
    // The engine's timer encloses the decorator's, so ours ≤ engine; the
    // gap is the decorator's own bookkeeping.
    if ours > engine || (ours as f64) < 0.9 * engine as f64 {
        out.fail(format!(
            "decorator decision time {ours} ns is not within 10% below the engine's {engine} ns"
        ));
    }
}

fn write_spans(args: &Args, runs: &[Run]) -> Option<std::path::PathBuf> {
    let dir = std::env::current_exe()
        .ok()?
        .parent()?
        .join("e2ebench-spans");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-{}.csv", args.workload.name, args.seed));
    let mut text = String::from("instance,layer,start_ns,end_ns\n");
    for (i, run) in runs.iter().enumerate() {
        for s in &run.spans {
            let _ = writeln!(text, "{i},{},{},{}", s.layer.name(), s.start_ns, s.end_ns);
        }
    }
    std::fs::write(&path, text).ok()?;
    Some(path)
}

/// What the traced repetitions measured, summed over instances.
struct Traced {
    /// Per-layer self ns, indexed by `Layer as usize`, one entry per
    /// repetition.
    layers: Vec<[f64; 5]>,
    /// (prepare, placement) ns per repetition.
    split: Vec<(f64, f64)>,
    /// Every pass span's duration.
    pass_ns: Vec<u64>,
    counts: Counts,
    decision_points: u64,
    faults: FaultStats,
}

fn traced_reps(args: &Args, instances: &[Inputs], out: &mut Outcome) -> Option<Traced> {
    let start = Instant::now();
    let mut t: Option<Traced> = None;
    loop {
        let runs = rep(instances, true);
        if let Some(reports) = out.check_rep(instances, &runs) {
            let mut layers = [0.0; 5];
            let mut split = (0.0, 0.0);
            let mut pass_ns = Vec::new();
            for (run, report) in runs.iter().zip(&reports) {
                check_decisions(run, report, out);
                for (acc, ns) in layers.iter_mut().zip(layer_times(&run.spans, out)) {
                    *acc += ns;
                }
                split.0 += run.counts.prepare_ns as f64;
                split.1 += run.counts.placement_ns as f64;
                pass_ns.extend(
                    run.spans
                        .iter()
                        .filter(|s| s.layer == Layer::Pass)
                        .map(Span::dur_ns),
                );
            }
            match &mut t {
                Some(t) => {
                    t.layers.push(layers);
                    t.split.push(split);
                    t.pass_ns.extend(pass_ns);
                }
                None => {
                    if let Some(path) = write_spans(args, &runs) {
                        out.notes
                            .push(format!("spans written to {}", path.display()));
                    }
                    let mut counts = Counts::default();
                    let mut faults = FaultStats::default();
                    for (run, r) in runs.iter().zip(&reports) {
                        counts += run.counts;
                        faults.copies_evicted += r.faults.copies_evicted;
                        faults.tasks_requeued += r.faults.tasks_requeued;
                        faults.tasks_saved_by_clone += r.faults.tasks_saved_by_clone;
                    }
                    t = Some(Traced {
                        layers: vec![layers],
                        split: vec![split],
                        pass_ns,
                        counts,
                        decision_points: reports.iter().map(|r| r.decision_points).sum(),
                        faults,
                    });
                }
            }
        }
        // Half the run for the traced repetitions: the reference and
        // recorded repetitions after them, with the journal's encode and
        // parse, take about as long again.
        let done = t.as_ref().map_or(0, |t| t.layers.len()).max(1) as f64;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (1.0 + 1.0 / done) > args.seconds / 2.0 {
            break;
        }
    }
    t
}

fn traced(args: &Args, instances: &[Inputs], times: &SetupTimes, out: &mut Outcome) {
    out.metric("workload.gen_ms", ms(times.workload_ns as f64), "ms");
    let jobs: usize = instances.iter().map(|i| i.jobs.len()).sum();
    out.metric("workload.jobs", jobs as f64, "count");
    let tasks: u64 = instances.iter().map(Inputs::tasks).sum();
    out.metric("workload.tasks", tasks as f64, "count");
    out.metric("faults.gen_ms", ms(times.faults_ns as f64), "ms");
    let events: usize = instances.iter().map(|i| i.faults.len()).sum();
    out.metric("faults.events", events as f64, "count");

    let Some(mut t) = traced_reps(args, instances, out) else {
        return;
    };
    let layer = |i: usize| median_of(t.layers.iter().map(|l| l[i]));
    let [sim, arrival, pass, finish, fault] = [0, 1, 2, 3, 4].map(layer);
    let prepare = median_of(t.split.iter().map(|s| s.0));
    let placement = median_of(t.split.iter().map(|s| s.1));
    let total = median_of(t.layers.iter().map(|l| l.iter().sum::<f64>()));
    let share = |ns: f64| 100.0 * ns / total;
    out.notes.push(format!(
        "self-time shares of the simulate spans ({} traced repetitions): arrival {:.1}%, \
         prepare {:.1}%, placement {:.1}%, engine {:.1}%, fault hooks {:.1}%, finish hooks {:.1}%",
        t.layers.len(),
        share(arrival),
        share(prepare),
        share(placement),
        share(sim),
        share(fault),
        share(finish),
    ));
    let c = t.counts;
    t.pass_ns.sort_unstable();
    out.metric("sched.arrival.calls", c.arrivals as f64, "count");
    out.metric("sched.arrival.self_ms", ms(arrival), "ms");
    out.metric("sched.pass.calls", c.passes as f64, "count");
    out.metric("sched.pass.self_ms", ms(pass), "ms");
    out.metric(
        "sched.pass.p50_us",
        nearest_rank(&t.pass_ns, 0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "sched.pass.p95_us",
        nearest_rank(&t.pass_ns, TAIL_Q) as f64 / 1e3,
        "us",
    );
    out.metric("sched.prepare_ms", ms(prepare), "ms");
    out.metric("sched.placement_ms", ms(placement), "ms");
    out.metric("sched.fault_hook.calls", c.fault_hooks as f64, "count");
    out.metric("sched.fault_hook.self_ms", ms(fault), "ms");
    out.metric("sched.finish_hook.self_ms", ms(finish), "ms");
    out.metric("sched.assignments", c.assignments as f64, "count");
    out.metric("sched.clones", c.clones as f64, "count");
    out.metric(
        "sched.empty_pass_frac",
        c.empty_passes as f64 / c.passes.max(1) as f64,
        "frac",
    );
    out.metric("engine.self_ms", ms(sim), "ms");
    out.metric(
        "engine.self_us_per_decision",
        sim / 1e3 / t.decision_points.max(1) as f64,
        "us",
    );
    out.metric("engine.decision_points", t.decision_points as f64, "count");
    let f = t.faults;
    out.metric("engine.evictions", f.copies_evicted as f64, "count");
    out.metric("engine.tasks_requeued", f.tasks_requeued as f64, "count");
    out.metric(
        "engine.tasks_saved_by_clone",
        f.tasks_saved_by_clone as f64,
        "count",
    );
    let at_risk = f.tasks_saved_by_clone + f.tasks_requeued;
    out.metric(
        "fault.saved_frac",
        f.tasks_saved_by_clone as f64 / at_risk.max(1) as f64,
        "frac",
    );
    // Untraced reference, right before the recorded repetition, for the
    // recorder's overhead.
    let reference = rep(instances, false);
    out.check_rep(instances, &reference);
    let reference_ns: u64 = reference.iter().map(|r| r.wall_ns).sum();
    drop(reference);
    recorded(args, instances, reference_ns, out);
}

/// One recorded repetition, instance by instance so only one journal is
/// in memory at a time: journal counts, replay, JSONL encode and parse.
fn recorded(args: &Args, instances: &[Inputs], reference_ns: u64, out: &mut Outcome) {
    let mut counts = JournalCounts::default();
    let (mut wall_ns, mut bytes) = (0u64, 0usize);
    let (mut replay_ns, mut encode_ns, mut parse_ns) = (0.0, 0.0, 0.0);
    let mut runs = Vec::new();
    for inputs in instances {
        let mut journal = Journal::for_run(
            "dollymp2",
            args.seed,
            &args.workload.name,
            &Default::default(),
        );
        let run = simulate(inputs, false, Some(&mut journal));
        wall_ns += run.wall_ns;
        if let Ok(live) = &run.result {
            check_decisions(&run, live, out);
            let t0 = Instant::now();
            let verdict = replay::verify(&journal, live);
            replay_ns += t0.elapsed().as_nanos() as f64;
            if let Err(d) = verdict {
                out.fail(format!("replay: {d}"));
            }
        }
        let these = journal_counts(&journal);
        counts += these;
        let t0 = Instant::now();
        let text = journal.to_jsonl();
        encode_ns += t0.elapsed().as_nanos() as f64;
        bytes += text.len();
        drop(journal);
        let t0 = Instant::now();
        let parsed = Journal::from_jsonl(&text);
        parse_ns += t0.elapsed().as_nanos() as f64;
        match parsed {
            Ok(back) if journal_counts(&back) == these => {}
            Ok(_) => out.fail("parsed journal's event counts differ from the recorded ones".into()),
            Err(e) => out.fail(format!("journal does not parse back: {e}")),
        }
        runs.push(run);
    }
    // The recorded reports must equal the untraced ones.
    out.check_rep(instances, &runs);
    out.metric(
        "engine.copies_launched",
        counts.copies_launched as f64,
        "count",
    );
    out.metric("engine.copies_killed", counts.copies_killed as f64, "count");
    out.metric(
        "clone.win_frac",
        counts.clones_won as f64 / counts.clones_launched.max(1) as f64,
        "frac",
    );
    out.metric("obs.events", counts.events as f64, "count");
    out.metric("obs.journal_mb", bytes as f64 / 1e6, "MB");
    out.metric("obs.encode_ms", ms(encode_ns), "ms");
    out.metric("obs.parse_ms", ms(parse_ns), "ms");
    out.metric("obs.replay_ms", ms(replay_ns), "ms");
    out.metric(
        "obs.record_overhead_frac",
        wall_ns as f64 / reference_ns.max(1) as f64 - 1.0,
        "frac",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome {
        seed: args.seed,
        metrics: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        fingerprint: None,
    };
    let (instances, times, setup_ns) = setup(&args, &mut out);
    if args.trace {
        traced(&args, &instances, &times, &mut out);
    } else {
        untraced(&args, &instances, setup_ns, &mut out);
    }
    out.print();
    std::process::exit(if out.correct() { 0 } else { 1 });
}
