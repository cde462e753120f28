//! Flight-recorder hooks: the typed event journal the engine can emit.
//!
//! Every observable state change of a simulation run — slot advances, job
//! arrivals/completions, copy launches/retirements/evictions, fault
//! transitions, guard interventions and per-decision-point scheduler
//! spans — has a variant on [`Event`]. The engine builds its
//! [`SimReport`](crate::metrics::SimReport) by feeding the report-relevant
//! events into a [`ReportFold`](crate::metrics::ReportFold), and journals
//! every event through a [`Recorder`]. The journal is therefore a
//! *superset* of the report (`dollymp-obs::replay` feeds it into the same
//! fold and byte-diffs the result against the live report, which is the
//! standing correctness oracle for engine/scheduler refactors).
//!
//! The default [`NullRecorder`] reports itself disabled; the engine
//! checks [`Recorder::enabled`] once per run. With it, the
//! report-relevant events are still built and fed to the fold; only the
//! journal-only ones ([`Event::SlotTick`], [`Event::JobArrival`],
//! [`Event::CopyLaunch`]) are never constructed. Events are plain stack
//! values, so the steady-state hot path stays allocation-free and within
//! noise of the recorded `BENCH_scale.json` timings. Consumers (bounded
//! ring buffer, JSONL sink, metrics registry, replay verifier) live in
//! the `dollymp-obs` crate — this module is only the schema and the
//! emission contract, keeping the simulation substrate free of I/O
//! concerns.
//!
//! Event order is fully determined by the simulation itself (the engine
//! loop is single-threaded and every tie is broken deterministically),
//! so journals are byte-identical across runs and across sequential vs
//! rayon experiment fan-out.
//!
//! Views of a run that the report does not carry are read from its
//! journal: [`copy_spans`] turns the retirements and evictions into one
//! [`CopySpan`] per copy, and [`chrome_trace`] renders those spans for
//! `chrome://tracing`. A `Vec<Event>` is itself a [`Recorder`], so
//! `try_simulate_with_faults_recorded(.., &mut events)` is all a caller
//! needs.

use crate::metrics::{CopyOutcome, GuardStats, JobMetrics};
use crate::spec::ServerId;
use crate::state::CopyKind;
use dollymp_core::job::{JobId, TaskRef};
use dollymp_core::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Scheduler-internal timing of one decision pass, split into the two
/// stages every policy in this repository has: refreshing priorities /
/// job order (DollyMP's Algorithm 1 grouping; trivial for stateless
/// baselines) and walking servers to place copies (Algorithm 2 and its
/// baseline equivalents). Attached to [`Event::SchedSpan`] when the
/// policy implements [`crate::scheduler::Scheduler::pass_span`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassSpan {
    /// Nanoseconds spent preparing the pass (priority refresh, job
    /// grouping) before any placement.
    pub prepare_ns: u64,
    /// Nanoseconds spent in the placement walk itself.
    pub placement_ns: u64,
}

/// One journal entry. Variants mirror the engine's observable state
/// transitions one-to-one; folding the stream with
/// [`ReportFold`](crate::metrics::ReportFold) yields the run's
/// [`SimReport`](crate::metrics::SimReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The clock advanced to a decision slot (one per engine iteration).
    SlotTick {
        /// The slot the engine jumped to.
        at: Time,
    },
    /// A job was admitted into the active set.
    JobArrival {
        /// Admission slot.
        at: Time,
        /// The admitted job.
        job: JobId,
    },
    /// A job completed; carries its final per-job metrics record (the
    /// same struct the live report stores, in the same completion
    /// order).
    JobCompletion {
        /// Completion slot.
        at: Time,
        /// Final metrics of the finished job.
        metrics: JobMetrics,
    },
    /// A copy (primary or clone) was launched on a server.
    CopyLaunch {
        /// Launch slot.
        at: Time,
        /// The task receiving the copy.
        task: TaskRef,
        /// Copy index within the task (0 = primary).
        copy_idx: u32,
        /// Target server.
        server: ServerId,
        /// Primary or clone.
        kind: CopyKind,
        /// Slot at which the copy will finish absent faults (the
        /// sampled duration is fixed at launch; fail-slow events may
        /// stretch it later).
        finish: Time,
    },
    /// A copy ended at a task completion: either it won (first to
    /// finish) or a sibling won and it was killed.
    CopyRetire {
        /// Retirement slot.
        at: Time,
        /// The copy's task.
        task: TaskRef,
        /// Copy index within the task.
        copy_idx: u32,
        /// Where it ran.
        server: ServerId,
        /// Primary or clone.
        kind: CopyKind,
        /// Launch slot (so the span is reconstructible).
        start: Time,
        /// [`CopyOutcome::Won`] or [`CopyOutcome::Killed`].
        outcome: CopyOutcome,
    },
    /// A copy was evicted by a server crash; its work is lost.
    CopyEvict {
        /// Crash slot.
        at: Time,
        /// The copy's task.
        task: TaskRef,
        /// Copy index within the task.
        copy_idx: u32,
        /// The crashed server.
        server: ServerId,
        /// Primary or clone.
        kind: CopyKind,
        /// Launch slot.
        start: Time,
        /// Normalized work destroyed (same unit as
        /// [`JobMetrics::usage`]).
        work_lost_norm: f64,
    },
    /// An eviction's task survived because another live copy kept
    /// running — cloning as failure insurance.
    TaskSaved {
        /// Crash slot.
        at: Time,
        /// The surviving task.
        task: TaskRef,
    },
    /// A task lost its last live copy and was returned to the ready
    /// queue for re-execution from scratch.
    TaskLost {
        /// Crash slot.
        at: Time,
        /// The fully-lost task.
        task: TaskRef,
    },
    /// A server went offline (emitted on the up→down transition only;
    /// overlapping crash windows do not re-fire).
    ServerCrash {
        /// Crash slot.
        at: Time,
        /// The crashed server.
        server: ServerId,
    },
    /// A server came back online, empty (down→up transition only).
    ServerRestore {
        /// Restore slot.
        at: Time,
        /// The repaired server.
        server: ServerId,
    },
    /// A persistent fail-slow onset multiplied a server's speed.
    ServerDegrade {
        /// Onset slot.
        at: Time,
        /// The degraded server.
        server: ServerId,
        /// Speed multiplier applied (`0 < factor ≤ 1`).
        factor: f64,
    },
    /// One scheduling decision point: the wall-clock sample that feeds
    /// [`crate::metrics::SchedOverhead`], emitted *before* the batch's
    /// [`Event::CopyLaunch`] events.
    SchedSpan {
        /// Decision slot.
        at: Time,
        /// 1-based decision-point ordinal within the run.
        decision_point: u64,
        /// Nanoseconds spent in `on_job_arrival` refreshes this slot.
        arrival_ns: u64,
        /// Nanoseconds spent in `Scheduler::schedule`.
        schedule_ns: u64,
        /// Number of assignments in the returned batch.
        batch: u64,
        /// Scheduler-internal stage split, when the policy reports one.
        detail: Option<PassSpan>,
    },
    /// The guard's containment counters changed since the previous
    /// delta; carries the change (counter-wise difference, plus
    /// `quarantined_at` when it was set). Emitted after each decision
    /// pass, and once more when the run drains if hooks after the last
    /// pass moved the counters. Summing the deltas reconstructs the
    /// final [`GuardStats`].
    GuardDelta {
        /// Decision slot.
        at: Time,
        /// Counter-wise change since the previous pass.
        delta: GuardStats,
    },
    /// A cluster-utilization sample (only emitted when
    /// `EngineConfig::record_utilization` is set, mirroring the report's
    /// series).
    UtilSample {
        /// Sample slot.
        at: Time,
        /// CPU fraction busy.
        cpu: f64,
        /// Memory fraction busy.
        mem: f64,
    },
}

impl Event {
    /// The slot this event fired at.
    pub fn at(&self) -> Time {
        match *self {
            Event::SlotTick { at }
            | Event::JobArrival { at, .. }
            | Event::JobCompletion { at, .. }
            | Event::CopyLaunch { at, .. }
            | Event::CopyRetire { at, .. }
            | Event::CopyEvict { at, .. }
            | Event::TaskSaved { at, .. }
            | Event::TaskLost { at, .. }
            | Event::ServerCrash { at, .. }
            | Event::ServerRestore { at, .. }
            | Event::ServerDegrade { at, .. }
            | Event::SchedSpan { at, .. }
            | Event::GuardDelta { at, .. }
            | Event::UtilSample { at, .. } => at,
        }
    }

    /// The job this event concerns, if any (filter key for the CLI).
    pub fn job(&self) -> Option<JobId> {
        match self {
            Event::JobArrival { job, .. } => Some(*job),
            Event::JobCompletion { metrics, .. } => Some(metrics.id),
            Event::CopyLaunch { task, .. }
            | Event::CopyRetire { task, .. }
            | Event::CopyEvict { task, .. }
            | Event::TaskSaved { task, .. }
            | Event::TaskLost { task, .. } => Some(task.job),
            _ => None,
        }
    }

    /// The server this event concerns, if any (filter key for the CLI).
    pub fn server(&self) -> Option<ServerId> {
        match self {
            Event::CopyLaunch { server, .. }
            | Event::CopyRetire { server, .. }
            | Event::CopyEvict { server, .. }
            | Event::ServerCrash { server, .. }
            | Event::ServerRestore { server, .. }
            | Event::ServerDegrade { server, .. } => Some(*server),
            _ => None,
        }
    }

    /// Short kind tag (stable, used by the CLI's summaries).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Event::SlotTick { .. } => "slot_tick",
            Event::JobArrival { .. } => "job_arrival",
            Event::JobCompletion { .. } => "job_completion",
            Event::CopyLaunch { .. } => "copy_launch",
            Event::CopyRetire { .. } => "copy_retire",
            Event::CopyEvict { .. } => "copy_evict",
            Event::TaskSaved { .. } => "task_saved",
            Event::TaskLost { .. } => "task_lost",
            Event::ServerCrash { .. } => "server_crash",
            Event::ServerRestore { .. } => "server_restore",
            Event::ServerDegrade { .. } => "server_degrade",
            Event::SchedSpan { .. } => "sched_span",
            Event::GuardDelta { .. } => "guard_delta",
            Event::UtilSample { .. } => "util_sample",
        }
    }
}

/// A sink for engine events.
///
/// The engine calls [`Recorder::enabled`] once at the start of a run and
/// caches the answer: when `false`, [`Recorder::record`] is never called
/// and journal-only events are never constructed, so wrapping a run in
/// [`NullRecorder`] is observationally identical to the unrecorded entry
/// points.
pub trait Recorder {
    /// Whether this recorder wants events at all. Must be constant for
    /// the lifetime of a run — the engine reads it once.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event. Called in deterministic emission order.
    fn record(&mut self, ev: Event);
}

/// The no-op recorder: [`Recorder::enabled`] is `false`, so the engine
/// journals nothing. This is what the plain `simulate` entry points use.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: Event) {}
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, ev: Event) {
        (**self).record(ev)
    }
}

impl Recorder for Vec<Event> {
    fn record(&mut self, ev: Event) {
        self.push(ev);
    }
}

/// One copy's lifetime on a server — the unit of the execution timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CopySpan {
    /// The task this copy belonged to.
    pub task: TaskRef,
    /// Copy index (0 = primary).
    pub copy_idx: u32,
    /// Where it ran.
    pub server: ServerId,
    /// Primary or clone.
    pub kind: CopyKind,
    /// Start slot.
    pub start: Time,
    /// End slot (completion, kill or eviction).
    pub end: Time,
    /// Won, killed or evicted.
    pub outcome: CopyOutcome,
}

/// Every retired or evicted copy of a journal, in journal order: one
/// span per [`Event::CopyRetire`] and [`Event::CopyEvict`].
pub fn copy_spans(events: &[Event]) -> Vec<CopySpan> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            Event::CopyRetire {
                at,
                task,
                copy_idx,
                server,
                kind,
                start,
                outcome,
            } => Some(CopySpan {
                task,
                copy_idx,
                server,
                kind,
                start,
                end: at,
                outcome,
            }),
            Event::CopyEvict {
                at,
                task,
                copy_idx,
                server,
                kind,
                start,
                ..
            } => Some(CopySpan {
                task,
                copy_idx,
                server,
                kind,
                start,
                end: at,
                outcome: CopyOutcome::Evicted,
            }),
            _ => None,
        })
        .collect()
}

/// Render copy spans as a Chrome-tracing (`chrome://tracing`,
/// [Perfetto](https://ui.perfetto.dev)) JSON document: one duration event
/// per copy, grouped by server (pid) — open the file to *see* clones
/// racing their primaries and losing copies being killed.
pub fn chrome_trace(spans: &[CopySpan], slot_secs: f64) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us = |t: Time| (t as f64 * slot_secs * 1e6) as u64;
        let kind = match s.kind {
            CopyKind::Primary => "primary",
            CopyKind::Clone => "clone",
        };
        let outcome = match s.outcome {
            CopyOutcome::Won => "won",
            CopyOutcome::Killed => "killed",
            CopyOutcome::Evicted => "evicted",
        };
        // name: j<job>p<phase>t<task>#<copy>; pid = server, tid = task hash.
        let _ = write!(
            out,
            "{{\"name\":\"{} {kind}/{outcome}\",\"cat\":\"{kind}\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
            s.task,
            us(s.start),
            us(s.end.saturating_sub(s.start)),
            s.server.0,
            (s.task.job.0 % 1_000_000) * 100 + s.copy_idx as u64,
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        let r = NullRecorder;
        assert!(!r.enabled());
    }

    #[test]
    fn accessors_cover_every_variant() {
        let task = TaskRef {
            job: JobId(3),
            phase: dollymp_core::job::PhaseId(0),
            task: dollymp_core::job::TaskId(1),
        };
        let ev = Event::CopyLaunch {
            at: 7,
            task,
            copy_idx: 0,
            server: ServerId(5),
            kind: CopyKind::Primary,
            finish: 12,
        };
        assert_eq!(ev.at(), 7);
        assert_eq!(ev.job(), Some(JobId(3)));
        assert_eq!(ev.server(), Some(ServerId(5)));
        assert_eq!(ev.kind_str(), "copy_launch");
        let tick = Event::SlotTick { at: 9 };
        assert_eq!(tick.at(), 9);
        assert_eq!(tick.job(), None);
        assert_eq!(tick.server(), None);
    }

    #[test]
    fn copy_spans_map_retires_and_evictions_in_journal_order() {
        let task = |t| TaskRef {
            job: JobId(0),
            phase: dollymp_core::job::PhaseId(0),
            task: dollymp_core::job::TaskId(t),
        };
        let mut log: Vec<Event> = Vec::new();
        for ev in [
            Event::SlotTick { at: 1 },
            Event::CopyLaunch {
                at: 1,
                task: task(0),
                copy_idx: 0,
                server: ServerId(1),
                kind: CopyKind::Primary,
                finish: 9,
            },
            Event::CopyEvict {
                at: 3,
                task: task(1),
                copy_idx: 0,
                server: ServerId(1),
                kind: CopyKind::Primary,
                start: 1,
                work_lost_norm: 0.2,
            },
            Event::TaskLost {
                at: 3,
                task: task(1),
            },
            Event::CopyRetire {
                at: 9,
                task: task(0),
                copy_idx: 1,
                server: ServerId(2),
                kind: CopyKind::Clone,
                start: 2,
                outcome: CopyOutcome::Won,
            },
            Event::CopyRetire {
                at: 9,
                task: task(0),
                copy_idx: 0,
                server: ServerId(1),
                kind: CopyKind::Primary,
                start: 1,
                outcome: CopyOutcome::Killed,
            },
        ] {
            log.record(ev);
        }
        assert!(log.enabled());
        let span = |t, copy_idx, server, kind, start, end, outcome| CopySpan {
            task: task(t),
            copy_idx,
            server: ServerId(server),
            kind,
            start,
            end,
            outcome,
        };
        assert_eq!(
            copy_spans(&log),
            vec![
                span(1, 0, 1, CopyKind::Primary, 1, 3, CopyOutcome::Evicted),
                span(0, 1, 2, CopyKind::Clone, 2, 9, CopyOutcome::Won),
                span(0, 0, 1, CopyKind::Primary, 1, 9, CopyOutcome::Killed),
            ]
        );
        assert_eq!(
            chrome_trace(&copy_spans(&log)[1..2], 5.0),
            "[{\"name\":\"j0p0t0 clone/won\",\"cat\":\"clone\",\"ph\":\"X\",\
             \"ts\":10000000,\"dur\":35000000,\"pid\":2,\"tid\":1}]"
        );
    }

    #[test]
    fn events_serde_round_trip() {
        let evs = vec![
            Event::SlotTick { at: 1 },
            Event::JobArrival {
                at: 1,
                job: JobId(0),
            },
            Event::ServerDegrade {
                at: 4,
                server: ServerId(2),
                factor: 0.5,
            },
            Event::SchedSpan {
                at: 1,
                decision_point: 1,
                arrival_ns: 10,
                schedule_ns: 20,
                batch: 3,
                detail: Some(PassSpan {
                    prepare_ns: 4,
                    placement_ns: 16,
                }),
            },
        ];
        let json = serde_json::to_string(&evs).expect("serialize");
        let back: Vec<Event> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, evs);
    }
}
