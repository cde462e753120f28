//! End-to-end simulation benchmark of DollyMP² with per-layer
//! attribution. See `README.md` beside this crate for the metrics and
//! workloads; `src/main.rs` is the command.
//!
//! Every simulation goes through the engine's public entry points
//! (`try_simulate_with_faults`, or `try_simulate_with_faults_recorded`
//! when a journal is wanted) with the policy wrapped in the
//! [`timing::Timed`] decorator.

pub mod heap;
pub mod stats;
pub mod timing;
pub mod workload;

use dollymp_cluster::metrics::CopyOutcome;
use dollymp_cluster::prelude::*;
use dollymp_obs::journal::Journal;
use dollymp_schedulers::DollyMP;
use std::collections::BTreeMap;
use std::time::Instant;
use timing::{Counts, Layer, Span, Timed};
use workload::Inputs;

/// One simulate call and what was measured around it.
pub struct Run {
    /// The engine's result.
    pub result: Result<SimReport, SimError>,
    /// Host wall time of the simulate call, in nanoseconds.
    pub wall_ns: u64,
    /// Peak live heap during the call, in bytes (0 unless the binary
    /// installs [`heap::CountingAlloc`]).
    pub peak_heap_bytes: u64,
    /// One sample per decision point, in nanoseconds.
    pub decisions: Vec<u64>,
    /// The simulate call cut at the end of every decision pass: the
    /// nanoseconds up to the first pass's end, from each pass's end to the
    /// next one's, and from the last pass's end to the return. They sum to
    /// the call's duration on the decorator's clock.
    pub segments: Vec<u64>,
    /// The decorator's counters.
    pub counts: Counts,
    /// Spans, the simulate span included (empty unless traced).
    pub spans: Vec<Span>,
}

/// Run DollyMP² on `inputs` once, behind the timing decorator. `trace`
/// collects spans; `journal`, when given, records the run's event stream.
pub fn simulate(inputs: &Inputs, trace: bool, journal: Option<&mut Journal>) -> Run {
    let mut sched = Timed::new(DollyMP::new(), trace);
    let jobs = inputs.jobs.clone();
    let cfg = EngineConfig::default();
    heap::reset_peak();
    let start_ns = sched.now_ns();
    let t0 = Instant::now();
    let result = match journal {
        None => try_simulate_with_faults(
            &inputs.cluster,
            jobs,
            &inputs.sampler,
            &mut sched,
            &cfg,
            &inputs.faults,
        ),
        Some(journal) => try_simulate_with_faults_recorded(
            &inputs.cluster,
            jobs,
            &inputs.sampler,
            &mut sched,
            &cfg,
            &inputs.faults,
            journal,
        ),
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let end_ns = sched.now_ns();
    let peak_heap_bytes = heap::peak_bytes();
    sched.push_span(Layer::Simulate, start_ns, end_ns);
    let mut segments = Vec::with_capacity(sched.pass_ends().len() + 1);
    let mut from = start_ns;
    for &to in sched.pass_ends().iter().chain([&end_ns]) {
        segments.push(to - from);
        from = to;
    }
    Run {
        result,
        wall_ns,
        peak_heap_bytes,
        decisions: sched.decisions().to_vec(),
        segments,
        counts: sched.counts(),
        spans: sched.spans().to_vec(),
    }
}

/// The same run with the bare policy: no decorator, no recorder.
pub fn simulate_bare(inputs: &Inputs) -> Result<SimReport, SimError> {
    try_simulate_with_faults(
        &inputs.cluster,
        inputs.jobs.clone(),
        &inputs.sampler,
        &mut DollyMP::new(),
        &EngineConfig::default(),
        &inputs.faults,
    )
}

/// The report with its wall-clock fields zeroed: what must repeat exactly.
pub fn scrub(report: &SimReport) -> SimReport {
    SimReport {
        scheduling_ns: 0,
        sched_overhead: SchedOverhead::default(),
        ..report.clone()
    }
}

/// FNV-1a fingerprint of the scrubbed reports' JSON.
pub fn fingerprint(seed: u64, reports: &[SimReport]) -> String {
    let scrubbed: Vec<SimReport> = reports.iter().map(scrub).collect();
    dollymp_obs::config_fingerprint(seed, &scrubbed)
}

/// Output checks: every generated job completed exactly once, with the
/// generated task count.
pub fn check_outputs(inputs: &Inputs, report: &SimReport) -> Result<(), String> {
    let mut expected: BTreeMap<u64, u64> = inputs
        .jobs
        .iter()
        .map(|j| (j.id.0, j.total_tasks()))
        .collect();
    if report.jobs.len() != expected.len() {
        return Err(format!(
            "{} of {} jobs completed",
            report.jobs.len(),
            expected.len()
        ));
    }
    for j in &report.jobs {
        match expected.remove(&j.id.0) {
            Some(tasks) if tasks == j.tasks => {}
            Some(tasks) => {
                return Err(format!(
                    "job {} reports {} tasks, generated {tasks}",
                    j.id.0, j.tasks
                ))
            }
            None => {
                return Err(format!(
                    "job {} completed twice or was never generated",
                    j.id.0
                ))
            }
        }
    }
    Ok(())
}

/// Counts taken from a journal's event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalCounts {
    /// Events recorded.
    pub events: u64,
    /// `CopyLaunch` events.
    pub copies_launched: u64,
    /// `CopyRetire` events whose copy was killed by a sibling's win.
    pub copies_killed: u64,
    /// `CopyLaunch` events of clones.
    pub clones_launched: u64,
    /// `CopyRetire` events of clones that won.
    pub clones_won: u64,
}

impl std::ops::AddAssign for JournalCounts {
    fn add_assign(&mut self, o: JournalCounts) {
        self.events += o.events;
        self.copies_launched += o.copies_launched;
        self.copies_killed += o.copies_killed;
        self.clones_launched += o.clones_launched;
        self.clones_won += o.clones_won;
    }
}

/// Fold a journal into [`JournalCounts`].
pub fn journal_counts(journal: &Journal) -> JournalCounts {
    let mut c = JournalCounts {
        events: journal.events.len() as u64,
        ..JournalCounts::default()
    };
    for ev in &journal.events {
        match *ev {
            TraceEvent::CopyLaunch { kind, .. } => {
                c.copies_launched += 1;
                c.clones_launched += u64::from(kind == CopyKind::Clone);
            }
            TraceEvent::CopyRetire { kind, outcome, .. } => {
                c.copies_killed += u64::from(outcome == CopyOutcome::Killed);
                c.clones_won += u64::from(kind == CopyKind::Clone && outcome == CopyOutcome::Won);
            }
            _ => {}
        }
    }
    c
}
