//! Simulation outputs: per-job metrics, report aggregation and the CDF /
//! percentile helpers the paper's figures are built from.

use crate::error::RejectReason;
use crate::trace::Event;
use dollymp_core::job::JobId;
use dollymp_core::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// How a copy's occupancy ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CopyOutcome {
    /// This copy finished first and its output was used.
    Won,
    /// A sibling finished first; this copy was killed.
    Killed,
    /// Its server crashed; the copy's work was lost.
    Evicted,
}

/// Final metrics of one completed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Job identity.
    pub id: JobId,
    /// Application label (e.g. `"pagerank"`).
    pub label: String,
    /// Arrival slot `a_j`.
    pub arrival: Time,
    /// First copy launch slot.
    pub first_start: Time,
    /// Completion slot `f_j`.
    pub finish: Time,
    /// Flowtime `f_j − a_j` (§3.1's objective).
    pub flowtime: Time,
    /// Running time `f_j − first_start` — the "actual job execution time"
    /// of §6.1's metrics.
    pub running_time: Time,
    /// Total tasks in the job.
    pub tasks: u64,
    /// Clone copies launched for this job.
    pub clone_copies: u64,
    /// Tasks that ever held more than one copy.
    pub tasks_cloned: u64,
    /// Normalized resource usage: Σ over copies of
    /// `(cpu/ΣC + mem/ΣM) × occupied_slots` (§6.3.1's usage metric;
    /// killed clones count for the time they actually held resources).
    pub usage: f64,
}

/// Wall-clock scheduling overhead, summarized over the run's decision
/// points — the §6.3.3 metric (the paper reports < 20 ms per pass for
/// 1 000 pending jobs and a < 50 ms end-to-end budget).
///
/// One sample per decision point, covering the scheduler work done at
/// that point: the `Scheduler::schedule` call **plus** any on-arrival
/// priority refresh (`on_job_arrival`) that preceded it in the same
/// slot. Measured inside [`crate::engine::simulate`].
///
/// Percentiles use the **nearest-rank** convention: `pq` is the smallest
/// sample whose rank `r` (1-based, ascending) satisfies `r ≥ ⌈q·n⌉` —
/// i.e. an actual observed sample, never an interpolated value. For
/// `n = 1` every percentile equals that single sample; `p99` of exactly
/// 100 samples is the 99th-smallest (the second-largest), and of 101
/// samples the 100th-smallest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedOverhead {
    /// Number of decision points (= samples).
    pub decision_points: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_ns: u64,
    /// Mean sample, in nanoseconds (0 for empty runs).
    pub mean_ns: u64,
    /// Median sample (nearest-rank), in nanoseconds. Defaults to 0 when
    /// deserializing artifacts written before this field existed.
    #[serde(default)]
    pub p50_ns: u64,
    /// 99th-percentile sample (nearest-rank), in nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
}

/// Nearest-rank `q`-percentile of an **ascending-sorted** sample set:
/// the element at 1-based rank `⌈q·n⌉` (clamped to `[1, n]`). Panics on
/// an empty slice — callers handle that case (see
/// [`SchedOverhead::from_samples`]).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

impl SchedOverhead {
    /// Summarize per-decision-point samples (nanoseconds each).
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return SchedOverhead::default();
        }
        let n = samples.len();
        let total: u64 = samples.iter().sum();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        SchedOverhead {
            decision_points: n as u64,
            total_ns: total,
            mean_ns: total / n as u64,
            p50_ns: nearest_rank(&sorted, 0.50),
            p99_ns: nearest_rank(&sorted, 0.99),
            max_ns: sorted[n - 1],
        }
    }
}

/// Fault-injection and recovery counters for one run (all zero when the
/// fault timeline was empty — see `dollymp_cluster::fault`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Server-down transitions (a rack blackout counts once per server).
    pub server_crashes: u64,
    /// Server-up transitions.
    pub server_recoveries: u64,
    /// Fail-slow onsets applied.
    pub server_degradations: u64,
    /// Copies evicted by crashes (primaries and clones).
    pub copies_evicted: u64,
    /// Eviction victims that survived because another live copy of the
    /// same task kept running — the clone-as-failure-insurance counter.
    pub tasks_saved_by_clone: u64,
    /// Tasks whose *last* live copy was evicted: fully lost, returned to
    /// the ready queue and re-executed from scratch.
    pub tasks_requeued: u64,
    /// Normalized work destroyed by evictions: Σ over evicted copies of
    /// `(cpu/ΣC + mem/ΣM) × slots held` — the same unit as
    /// [`JobMetrics::usage`], so wasted work is directly comparable to
    /// useful usage.
    pub work_lost_norm: f64,
}

/// Containment-layer counters for one run (all zero when no
/// [`crate::guard::GuardedScheduler`] was in the loop, or when the
/// wrapped policy behaved — so a clean guarded run's report equals the
/// unguarded one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardStats {
    /// Assignments dropped for over-committing free capacity.
    pub rejected_overcommit: u64,
    /// Assignments dropped for naming an unknown/blocked job, phase or
    /// task.
    pub rejected_unknown_job: u64,
    /// Assignments dropped for targeting an unknown or crashed server.
    pub rejected_server_down: u64,
    /// Assignments dropped for illegal extra copies (duplicate primary,
    /// clone of a non-running task, copy-cap excess).
    pub rejected_duplicate_copy: u64,
    /// Policy panics caught by `catch_unwind` (each one quarantines the
    /// policy — its internal state is poisoned).
    pub policy_panics: u64,
    /// Decision passes whose wall-clock time exceeded the watchdog
    /// budget. Counted only, never struck; the one host-load-dependent
    /// counter, so [`SimReport::scrubbed`] zeroes it.
    pub budget_overruns: u64,
    /// Passes where the policy returned nothing while the cluster was
    /// otherwise idle and the safe fallback could place work (each one a
    /// prevented engine stall).
    pub stall_rescues: u64,
    /// Decision passes served by the safe-fallback policy (panic passes,
    /// stall rescues, and every pass after quarantine).
    pub fallback_passes: u64,
    /// Clone assignments dropped by saturation backpressure.
    pub clones_throttled: u64,
    /// Assignments deferred to a later pass by the bounded pending
    /// queue.
    pub deferred: u64,
    /// Deferred assignments dropped because the pending queue was full.
    pub deferrals_dropped: u64,
    /// Slot at which the policy was quarantined and permanently replaced
    /// by the fallback, if that happened.
    pub quarantined_at: Option<Time>,
}

impl GuardStats {
    /// Total dropped assignments across all rejection reasons.
    pub fn total_rejections(&self) -> u64 {
        self.rejected_overcommit
            + self.rejected_unknown_job
            + self.rejected_server_down
            + self.rejected_duplicate_copy
    }

    /// Record one dropped assignment under its taxonomy bucket.
    /// `Stalled` maps to a stall rescue and `ClockOverrun` to a budget
    /// overrun, so every [`RejectReason`] has a home.
    pub fn record_rejection(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::OverCommit => self.rejected_overcommit += 1,
            RejectReason::UnknownJob => self.rejected_unknown_job += 1,
            RejectReason::ServerDown => self.rejected_server_down += 1,
            RejectReason::DuplicateCopy => self.rejected_duplicate_copy += 1,
            RejectReason::Stalled => self.stall_rescues += 1,
            RejectReason::ClockOverrun => self.budget_overruns += 1,
        }
    }

    /// True when the guard never had to intervene (the report is then
    /// identical to an unguarded run's).
    pub fn is_clean(&self) -> bool {
        *self == GuardStats::default()
    }

    /// Counter-wise difference `self − prev` (saturating), with
    /// `quarantined_at` carried only when it changed. The flight
    /// recorder emits this per decision point; summing the deltas with
    /// [`GuardStats::accumulate`] reconstructs the final stats.
    pub fn diff(&self, prev: &GuardStats) -> GuardStats {
        GuardStats {
            rejected_overcommit: self.rejected_overcommit - prev.rejected_overcommit,
            rejected_unknown_job: self.rejected_unknown_job - prev.rejected_unknown_job,
            rejected_server_down: self.rejected_server_down - prev.rejected_server_down,
            rejected_duplicate_copy: self.rejected_duplicate_copy - prev.rejected_duplicate_copy,
            policy_panics: self.policy_panics - prev.policy_panics,
            budget_overruns: self.budget_overruns - prev.budget_overruns,
            stall_rescues: self.stall_rescues - prev.stall_rescues,
            fallback_passes: self.fallback_passes - prev.fallback_passes,
            clones_throttled: self.clones_throttled - prev.clones_throttled,
            deferred: self.deferred - prev.deferred,
            deferrals_dropped: self.deferrals_dropped - prev.deferrals_dropped,
            quarantined_at: if self.quarantined_at == prev.quarantined_at {
                None
            } else {
                self.quarantined_at
            },
        }
    }

    /// Add a [`GuardStats::diff`] delta onto an accumulator.
    /// `quarantined_at` adopts the delta's value when present (it is set
    /// at most once per run).
    pub fn accumulate(&mut self, delta: &GuardStats) {
        self.rejected_overcommit += delta.rejected_overcommit;
        self.rejected_unknown_job += delta.rejected_unknown_job;
        self.rejected_server_down += delta.rejected_server_down;
        self.rejected_duplicate_copy += delta.rejected_duplicate_copy;
        self.policy_panics += delta.policy_panics;
        self.budget_overruns += delta.budget_overruns;
        self.stall_rescues += delta.stall_rescues;
        self.fallback_passes += delta.fallback_passes;
        self.clones_throttled += delta.clones_throttled;
        self.deferred += delta.deferred;
        self.deferrals_dropped += delta.deferrals_dropped;
        if delta.quarantined_at.is_some() {
            self.quarantined_at = delta.quarantined_at;
        }
    }
}

/// Everything a simulation run produces.
///
/// Copy spans are not part of the report: they are a view of the run's
/// journal (record the run and call [`crate::trace::copy_spans`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheduler that produced this run.
    pub scheduler: String,
    /// Per-job metrics, in completion order.
    pub jobs: Vec<JobMetrics>,
    /// Completion slot of the last job (0 when no jobs ran).
    pub makespan: Time,
    /// Number of scheduling decision points.
    pub decision_points: u64,
    /// Wall-clock spent inside `Scheduler::schedule`, in nanoseconds —
    /// the §6.3.3 scheduling-overhead metric.
    pub scheduling_ns: u64,
    /// Per-decision-point overhead summary (schedule + on-arrival
    /// refresh). `#[serde(default)]` so reports written before this field
    /// existed still deserialize.
    #[serde(default)]
    pub sched_overhead: SchedOverhead,
    /// Fault/recovery counters — all zero for fault-free runs.
    /// `#[serde(default)]` so reports written before fault injection
    /// existed still deserialize.
    #[serde(default)]
    pub faults: FaultStats,
    /// Containment counters — all zero for unguarded runs or guarded
    /// runs of a well-behaved policy. `#[serde(default)]` so reports
    /// written before the guard existed still deserialize.
    #[serde(default)]
    pub guard: GuardStats,
    /// Cluster utilization samples `(slot, cpu fraction, mem fraction)`
    /// taken after every decision point — empty unless
    /// `EngineConfig::record_utilization` was set.
    pub utilization: Vec<(Time, f64, f64)>,
}

impl SimReport {
    /// The report with its wall-clock fields (`scheduling_ns`,
    /// `sched_overhead`, `guard.budget_overruns`) zeroed: what repeats
    /// exactly across runs of the same inputs.
    pub fn scrubbed(mut self) -> SimReport {
        self.scheduling_ns = 0;
        self.sched_overhead = SchedOverhead::default();
        self.guard.budget_overruns = 0;
        self
    }

    /// Total flowtime `Σ_j (f_j − a_j)` — the (OPT) objective.
    pub fn total_flowtime(&self) -> u64 {
        self.jobs.iter().map(|j| j.flowtime).sum()
    }

    /// Mean flowtime (0 for empty runs).
    pub fn mean_flowtime(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.total_flowtime() as f64 / self.jobs.len() as f64
        }
    }

    /// Mean running time (0 for empty runs).
    pub fn mean_running_time(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.jobs.iter().map(|j| j.running_time).sum::<u64>() as f64 / self.jobs.len() as f64
        }
    }

    /// Total normalized resource usage across jobs.
    pub fn total_usage(&self) -> f64 {
        self.jobs.iter().map(|j| j.usage).sum()
    }

    /// Fraction of tasks that received at least one clone.
    pub fn cloned_task_fraction(&self) -> f64 {
        let tasks: u64 = self.jobs.iter().map(|j| j.tasks).sum();
        if tasks == 0 {
            0.0
        } else {
            self.jobs.iter().map(|j| j.tasks_cloned).sum::<u64>() as f64 / tasks as f64
        }
    }

    /// Jobs with a given label.
    pub fn jobs_labeled<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a JobMetrics> {
        self.jobs.iter().filter(move |j| j.label == label)
    }

    /// Metrics keyed by job id (for cross-scheduler joins).
    pub fn by_id(&self) -> std::collections::HashMap<JobId, &JobMetrics> {
        self.jobs.iter().map(|j| (j.id, j)).collect()
    }

    /// Per-job slowdowns `flowtime / running_time` — how much queueing
    /// and dependency waiting stretched each job beyond its execution.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| j.flowtime as f64 / j.running_time.max(1) as f64)
            .collect()
    }

    /// Time-weighted mean CPU utilization over the run (0 when the
    /// utilization series was not recorded or has fewer than 2 samples).
    pub fn mean_cpu_utilization(&self) -> f64 {
        time_weighted_mean(&self.utilization, |&(_, c, _)| c)
    }

    /// Time-weighted mean memory utilization (see
    /// [`SimReport::mean_cpu_utilization`]).
    pub fn mean_mem_utilization(&self) -> f64 {
        time_weighted_mean(&self.utilization, |&(_, _, m)| m)
    }

    /// Cumulative flowtime ordered by arrival — the Fig. 7 series.
    pub fn cumulative_flowtime_by_arrival(&self) -> Vec<(Time, u64)> {
        let mut jobs: Vec<_> = self.jobs.iter().collect();
        jobs.sort_by_key(|j| (j.arrival, j.id));
        let mut acc = 0u64;
        jobs.iter()
            .map(|j| {
                acc += j.flowtime;
                (j.arrival, acc)
            })
            .collect()
    }

    /// Per-job metrics as CSV (header + one row per job, arrival order) —
    /// the interchange format of the experiment binaries and the CLI.
    pub fn jobs_to_csv(&self) -> String {
        let mut out = String::from(
            "job,label,arrival,first_start,finish,flowtime,running_time,tasks,\
             clone_copies,tasks_cloned,usage\n",
        );
        let mut jobs: Vec<_> = self.jobs.iter().collect();
        jobs.sort_by_key(|j| (j.arrival, j.id));
        for j in jobs {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{:.6}",
                j.id.0,
                j.label,
                j.arrival,
                j.first_start,
                j.finish,
                j.flowtime,
                j.running_time,
                j.tasks,
                j.clone_copies,
                j.tasks_cloned,
                j.usage
            );
        }
        out
    }
}

/// The one fold from a run's event stream to its [`SimReport`].
///
/// The engine feeds it every report-relevant [`Event`] as it happens, and
/// `dollymp-obs` replay feeds it a recorded journal, so the live and the
/// replayed report come from the same code. Events are folded in order:
/// the f64 `work_lost_norm` sum and the per-decision-point overhead
/// samples therefore come out bit-identical on both paths. The fold keeps
/// no copy spans (an eviction only moves the fault stats); those are read
/// from the journal by [`crate::trace::copy_spans`].
#[derive(Debug, Default)]
pub struct ReportFold {
    record_utilization: bool,
    jobs: Vec<JobMetrics>,
    scheduling_ns: u64,
    /// One sample per decision point (see [`SchedOverhead`]).
    overhead_samples: Vec<u64>,
    faults: FaultStats,
    guard: GuardStats,
    utilization: Vec<(Time, f64, f64)>,
}

impl ReportFold {
    /// An empty fold. `record_utilization` keeps [`Event::UtilSample`]s
    /// in [`SimReport::utilization`].
    pub fn new(record_utilization: bool) -> ReportFold {
        ReportFold {
            record_utilization,
            ..ReportFold::default()
        }
    }

    /// Fold one event into the report.
    pub fn ingest(&mut self, ev: &Event) {
        match *ev {
            Event::JobCompletion { ref metrics, .. } => self.jobs.push(metrics.clone()),
            Event::SchedSpan {
                arrival_ns,
                schedule_ns,
                ..
            } => {
                self.scheduling_ns += schedule_ns;
                self.overhead_samples.push(arrival_ns + schedule_ns);
            }
            Event::CopyEvict { work_lost_norm, .. } => {
                self.faults.copies_evicted += 1;
                self.faults.work_lost_norm += work_lost_norm;
            }
            Event::TaskSaved { .. } => self.faults.tasks_saved_by_clone += 1,
            Event::TaskLost { .. } => self.faults.tasks_requeued += 1,
            Event::ServerCrash { .. } => self.faults.server_crashes += 1,
            Event::ServerRestore { .. } => self.faults.server_recoveries += 1,
            Event::ServerDegrade { .. } => self.faults.server_degradations += 1,
            Event::GuardDelta { ref delta, .. } => self.guard.accumulate(delta),
            Event::UtilSample { at, cpu, mem } => {
                if self.record_utilization {
                    self.utilization.push((at, cpu, mem));
                }
            }
            Event::SlotTick { .. }
            | Event::JobArrival { .. }
            | Event::CopyLaunch { .. }
            | Event::CopyRetire { .. } => {}
        }
    }

    /// Completed jobs folded so far, in completion order.
    pub fn jobs(&self) -> &[JobMetrics] {
        &self.jobs
    }

    /// Decision points folded so far.
    pub fn decision_points(&self) -> u64 {
        self.overhead_samples.len() as u64
    }

    /// Utilization samples kept so far.
    pub fn utilization(&self) -> &[(Time, f64, f64)] {
        &self.utilization
    }

    /// The finished report of a run driven by `scheduler`.
    pub fn finish(self, scheduler: String) -> SimReport {
        SimReport {
            scheduler,
            makespan: self.jobs.iter().map(|j| j.finish).max().unwrap_or(0),
            decision_points: self.decision_points(),
            jobs: self.jobs,
            scheduling_ns: self.scheduling_ns,
            sched_overhead: SchedOverhead::from_samples(&self.overhead_samples),
            faults: self.faults,
            guard: self.guard,
            utilization: self.utilization,
        }
    }
}

fn time_weighted_mean<F: Fn(&(Time, f64, f64)) -> f64>(
    series: &[(Time, f64, f64)],
    pick: F,
) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let mut weighted = 0.0;
    let mut span = 0.0;
    for w in series.windows(2) {
        let dt = w[1].0.saturating_sub(w[0].0) as f64;
        weighted += pick(&w[0]) * dt;
        span += dt;
    }
    if span > 0.0 {
        weighted / span
    } else {
        0.0
    }
}

/// Jain's fairness index over non-negative samples:
/// `(Σx)² / (n · Σx²)` — 1.0 means perfectly equal, `1/n` means one
/// sample holds everything. Returns 1.0 for empty/degenerate input.
pub fn jain_index(values: &[f64]) -> f64 {
    let v: Vec<f64> = values
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .collect();
    if v.is_empty() {
        return 1.0;
    }
    let sum: f64 = v.iter().sum();
    let sumsq: f64 = v.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    sum * sum / (v.len() as f64 * sumsq)
}

/// An empirical CDF over `f64` samples: sorted `(value, fraction ≤ value)`
/// pairs. The building block of Figs. 4–6, 8, 9, 11.
pub fn cdf(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    values.retain(|v| v.is_finite());
    values.sort_by(f64::total_cmp);
    let n = values.len();
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Fraction of samples `≤ x` in a CDF built by [`cdf`].
pub fn cdf_at(curve: &[(f64, f64)], x: f64) -> f64 {
    match curve.iter().rev().find(|&&(v, _)| v <= x) {
        Some(&(_, p)) => p,
        None => 0.0,
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample set (nearest-rank).
/// Returns 0 for empty input.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let idx = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ServerId;
    use crate::state::CopyKind;
    use dollymp_core::job::TaskRef;

    fn jm(id: u64, arrival: Time, finish: Time, first_start: Time) -> JobMetrics {
        JobMetrics {
            id: JobId(id),
            label: "t".into(),
            arrival,
            first_start,
            finish,
            flowtime: finish - arrival,
            running_time: finish - first_start,
            tasks: 2,
            clone_copies: 1,
            tasks_cloned: 1,
            usage: 1.0,
        }
    }

    fn report(jobs: Vec<JobMetrics>) -> SimReport {
        let makespan = jobs.iter().map(|j| j.finish).max().unwrap_or(0);
        SimReport {
            scheduler: "test".into(),
            jobs,
            makespan,
            decision_points: 0,
            scheduling_ns: 0,
            sched_overhead: SchedOverhead::default(),
            faults: FaultStats::default(),
            guard: GuardStats::default(),
            utilization: Vec::new(),
        }
    }

    fn task(job: u64, task: u32) -> TaskRef {
        TaskRef {
            job: JobId(job),
            phase: dollymp_core::job::PhaseId(0),
            task: dollymp_core::job::TaskId(task),
        }
    }

    /// A hand-built run: every event kind, in an order the engine could
    /// emit them.
    fn event_stream() -> Vec<Event> {
        let span = |at, decision_point, arrival_ns, schedule_ns| Event::SchedSpan {
            at,
            decision_point,
            arrival_ns,
            schedule_ns,
            batch: 1,
            detail: None,
        };
        let evict = |at, t, work_lost_norm| Event::CopyEvict {
            at,
            task: task(0, t),
            copy_idx: 0,
            server: ServerId(1),
            kind: CopyKind::Primary,
            start: 1,
            work_lost_norm,
        };
        vec![
            Event::SlotTick { at: 1 },
            Event::JobArrival {
                at: 1,
                job: JobId(0),
            },
            span(1, 1, 10, 100),
            Event::CopyLaunch {
                at: 1,
                task: task(0, 0),
                copy_idx: 0,
                server: ServerId(1),
                kind: CopyKind::Primary,
                finish: 9,
            },
            Event::UtilSample {
                at: 1,
                cpu: 0.5,
                mem: 0.25,
            },
            Event::ServerCrash {
                at: 3,
                server: ServerId(1),
            },
            evict(3, 0, 0.1),
            Event::TaskSaved {
                at: 3,
                task: task(0, 0),
            },
            evict(3, 1, 0.2),
            Event::TaskLost {
                at: 3,
                task: task(0, 1),
            },
            Event::ServerDegrade {
                at: 3,
                server: ServerId(2),
                factor: 0.5,
            },
            span(3, 2, 0, 250),
            Event::GuardDelta {
                at: 3,
                delta: GuardStats {
                    rejected_overcommit: 2,
                    ..GuardStats::default()
                },
            },
            Event::ServerRestore {
                at: 5,
                server: ServerId(1),
            },
            span(5, 3, 5, 40),
            Event::CopyRetire {
                at: 9,
                task: task(0, 0),
                copy_idx: 1,
                server: ServerId(2),
                kind: CopyKind::Clone,
                start: 2,
                outcome: CopyOutcome::Won,
            },
            Event::CopyRetire {
                at: 9,
                task: task(0, 0),
                copy_idx: 2,
                server: ServerId(0),
                kind: CopyKind::Clone,
                start: 3,
                outcome: CopyOutcome::Killed,
            },
            Event::JobCompletion {
                at: 9,
                metrics: jm(0, 1, 9, 1),
            },
            Event::JobCompletion {
                at: 12,
                metrics: jm(1, 4, 12, 5),
            },
            // A change after the last pass, as from a final
            // `on_job_finish`.
            Event::GuardDelta {
                at: 12,
                delta: GuardStats {
                    rejected_overcommit: 1,
                    policy_panics: 1,
                    fallback_passes: 1,
                    quarantined_at: Some(12),
                    ..GuardStats::default()
                },
            },
        ]
    }

    fn fold(record_utilization: bool) -> SimReport {
        let mut fold = ReportFold::new(record_utilization);
        for ev in &event_stream() {
            fold.ingest(ev);
        }
        fold.finish("hand".into())
    }

    /// The report the stream folds to with both recording options off.
    fn expected_bare() -> SimReport {
        SimReport {
            scheduler: "hand".into(),
            jobs: vec![jm(0, 1, 9, 1), jm(1, 4, 12, 5)],
            makespan: 12,
            decision_points: 3,
            scheduling_ns: 390,
            sched_overhead: SchedOverhead {
                decision_points: 3,
                total_ns: 405,
                mean_ns: 135,
                p50_ns: 110,
                p99_ns: 250,
                max_ns: 250,
            },
            faults: FaultStats {
                server_crashes: 1,
                server_recoveries: 1,
                server_degradations: 1,
                copies_evicted: 2,
                tasks_saved_by_clone: 1,
                tasks_requeued: 1,
                // Summed in stream order: 0.1 + 0.2, not 0.3.
                work_lost_norm: 0.1 + 0.2,
            },
            guard: GuardStats {
                rejected_overcommit: 3,
                policy_panics: 1,
                fallback_passes: 1,
                quarantined_at: Some(12),
                ..GuardStats::default()
            },
            utilization: Vec::new(),
        }
    }

    #[test]
    fn fold_builds_the_exact_report() {
        assert_eq!(fold(false), expected_bare());
    }

    #[test]
    fn fold_keeps_utilization_only_when_asked() {
        let mut want = expected_bare();
        want.utilization = vec![(1, 0.5, 0.25)];
        assert_eq!(fold(true), want);
    }

    #[test]
    fn empty_fold_is_the_empty_report() {
        assert_eq!(ReportFold::new(true).finish("test".into()), report(vec![]));
    }

    #[test]
    fn scrubbed_zeroes_only_wall_clock_fields() {
        let mut r = fold(true);
        r.guard.budget_overruns = 3;
        assert_ne!(r.scheduling_ns, 0);
        assert_ne!(r.guard, GuardStats::default());
        assert_eq!(
            r.clone().scrubbed(),
            SimReport {
                scheduling_ns: 0,
                sched_overhead: SchedOverhead::default(),
                guard: GuardStats {
                    budget_overruns: 0,
                    ..r.guard
                },
                ..r
            }
        );
    }

    #[test]
    fn sched_overhead_defaults_when_absent_from_json() {
        // A report written before the field existed must still load.
        let json = r#"{"scheduler":"t","jobs":[],"makespan":0,
                       "decision_points":3,"scheduling_ns":9,
                       "utilization":[]}"#;
        let r: SimReport = serde_json::from_str(json).expect("old report loads");
        assert_eq!(r.sched_overhead, SchedOverhead::default());
        assert_eq!(r.decision_points, 3);
        // And a freshly serialized report round-trips the field.
        let mut r2 = report(vec![]);
        r2.sched_overhead = SchedOverhead::from_samples(&[5, 10, 15]);
        let back: SimReport = serde_json::from_str(&serde_json::to_string(&r2).unwrap()).unwrap();
        assert_eq!(back.sched_overhead, r2.sched_overhead);
    }

    #[test]
    fn guard_stats_bucket_every_reason() {
        let mut g = GuardStats::default();
        assert!(g.is_clean());
        for r in [
            RejectReason::OverCommit,
            RejectReason::UnknownJob,
            RejectReason::ServerDown,
            RejectReason::DuplicateCopy,
            RejectReason::Stalled,
            RejectReason::ClockOverrun,
        ] {
            g.record_rejection(r);
        }
        assert_eq!(g.total_rejections(), 4, "engine-level reasons excluded");
        assert_eq!(g.stall_rescues, 1);
        assert_eq!(g.budget_overruns, 1);
        assert!(!g.is_clean());
    }

    #[test]
    fn guard_stats_diff_and_accumulate_round_trip() {
        let mut a = GuardStats::default();
        a.record_rejection(RejectReason::OverCommit);
        a.record_rejection(RejectReason::Stalled);
        a.fallback_passes = 2;
        let mut b = a;
        b.record_rejection(RejectReason::OverCommit);
        b.clones_throttled = 5;
        b.quarantined_at = Some(17);
        let delta = b.diff(&a);
        assert_eq!(delta.rejected_overcommit, 1);
        assert_eq!(delta.clones_throttled, 5);
        assert_eq!(delta.stall_rescues, 0);
        assert_eq!(delta.quarantined_at, Some(17), "newly set ⇒ carried");
        // Unchanged quarantine is not re-carried.
        assert_eq!(b.diff(&b).quarantined_at, None);
        // Accumulating the per-pass deltas reconstructs the final state.
        let mut acc = GuardStats::default();
        acc.accumulate(&a.diff(&GuardStats::default()));
        acc.accumulate(&delta);
        assert_eq!(acc, b);
    }

    #[test]
    fn sched_overhead_summary() {
        assert_eq!(SchedOverhead::from_samples(&[]), SchedOverhead::default());
        let samples: Vec<u64> = (1..=100).collect();
        let o = SchedOverhead::from_samples(&samples);
        assert_eq!(o.decision_points, 100);
        assert_eq!(o.total_ns, 5050);
        assert_eq!(o.mean_ns, 50);
        assert_eq!(o.p50_ns, 50, "nearest-rank p50 of 1..=100");
        assert_eq!(o.p99_ns, 99, "nearest-rank p99 of 1..=100");
        assert_eq!(o.max_ns, 100);
        let one = SchedOverhead::from_samples(&[7]);
        assert_eq!(one.p99_ns, 7);
        assert_eq!(one.mean_ns, 7);
    }

    #[test]
    fn sched_overhead_percentiles_at_rank_boundaries() {
        // Nearest-rank percentiles around the ⌈q·n⌉ boundaries, over
        // 1..=n so the expected value *is* the rank.
        for (n, p50, p99) in [
            (1u64, 1u64, 1u64), // single sample: every percentile is it
            (2, 1, 2),          // ⌈0.5·2⌉ = 1, ⌈0.99·2⌉ = 2
            (99, 50, 99),       // ⌈0.99·99⌉ = 99 (= max)
            (100, 50, 99),      // ⌈0.99·100⌉ = 99 (second-largest)
            (101, 51, 100),     // ⌈0.99·101⌉ = 100
        ] {
            // Feed samples in descending order to prove sorting happens.
            let samples: Vec<u64> = (1..=n).rev().collect();
            let o = SchedOverhead::from_samples(&samples);
            assert_eq!(o.p50_ns, p50, "p50 of 1..={n}");
            assert_eq!(o.p99_ns, p99, "p99 of 1..={n}");
            assert_eq!(o.max_ns, n, "max of 1..={n}");
        }
    }

    #[test]
    fn sched_overhead_p50_defaults_on_old_artifacts() {
        // Artifacts serialized before `p50_ns` existed must still load.
        let old = r#"{"decision_points":3,"total_ns":30,"mean_ns":10,"p99_ns":15,"max_ns":15}"#;
        let o: SchedOverhead = serde_json::from_str(old).unwrap();
        assert_eq!(o.p50_ns, 0);
        assert_eq!(o.p99_ns, 15);
    }

    #[test]
    fn aggregates() {
        let r = report(vec![jm(0, 0, 10, 2), jm(1, 5, 9, 6)]);
        assert_eq!(r.total_flowtime(), 14);
        assert!((r.mean_flowtime() - 7.0).abs() < 1e-12);
        assert!((r.mean_running_time() - 5.5).abs() < 1e-12);
        assert!((r.total_usage() - 2.0).abs() < 1e-12);
        assert!((r.cloned_task_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = report(vec![]);
        assert_eq!(r.total_flowtime(), 0);
        assert_eq!(r.mean_flowtime(), 0.0);
        assert_eq!(r.cloned_task_fraction(), 0.0);
        assert_eq!(r.makespan, 0);
    }

    #[test]
    fn cumulative_series_sorted_by_arrival() {
        let r = report(vec![jm(0, 10, 30, 10), jm(1, 0, 50, 0)]);
        let series = r.cumulative_flowtime_by_arrival();
        assert_eq!(series, vec![(0, 50), (10, 70)]);
    }

    #[test]
    fn csv_export_is_sorted_and_complete() {
        let r = report(vec![jm(1, 10, 30, 12), jm(0, 0, 20, 1)]);
        let csv = r.jobs_to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[0].starts_with("job,label,arrival"));
        assert!(
            lines[1].starts_with("0,t,0,"),
            "arrival order: {}",
            lines[1]
        );
        assert!(lines[2].starts_with("1,t,10,"));
        // Row fields count matches the header.
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }

    #[test]
    fn cdf_basic_properties() {
        let c = cdf(vec![3.0, 1.0, 2.0, f64::NAN]);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], (1.0, 1.0 / 3.0));
        assert_eq!(c[2], (3.0, 1.0));
        assert!((cdf_at(&c, 2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf_at(&c, 0.5), 0.0);
        assert_eq!(cdf_at(&c, 99.0), 1.0);
    }

    #[test]
    fn slowdowns_and_jain() {
        let r = report(vec![jm(0, 0, 10, 5), jm(1, 0, 20, 10)]);
        // flow 10 / run 5 = 2; flow 20 / run 10 = 2.
        assert_eq!(r.slowdowns(), vec![2.0, 2.0]);
        assert!(
            (jain_index(&r.slowdowns()) - 1.0).abs() < 1e-12,
            "equal → 1"
        );
        // One dominant sample → index tends to 1/n.
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[f64::NAN, 3.0]), 1.0, "single finite value");
    }

    #[test]
    fn utilization_means_are_time_weighted() {
        let mut r = report(vec![jm(0, 0, 10, 2)]);
        // 100% CPU for 1 slot, then 0% for 9 slots → mean 0.1.
        r.utilization = vec![(0, 1.0, 0.5), (1, 0.0, 0.0), (10, 0.0, 0.0)];
        assert!((r.mean_cpu_utilization() - 0.1).abs() < 1e-12);
        assert!((r.mean_mem_utilization() - 0.05).abs() < 1e-12);
        // Unrecorded series → 0.
        r.utilization.clear();
        assert_eq!(r.mean_cpu_utilization(), 0.0);
    }

    #[test]
    fn quantiles() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
