//! Typed admission and simulation errors — the non-panicking face of the
//! engine's strict validation.
//!
//! The engine historically `panic!`ed on every scheduler bug (fail-loud,
//! so a buggy policy cannot silently skew an experiment). That is the
//! right default for research runs but the wrong one for a control plane
//! that must *contain* third-party policies: a panic aborts the whole
//! sweep. This module gives every abort path a typed representation:
//!
//! * [`RejectReason`] — the coarse taxonomy shared by the engine and the
//!   [`crate::guard::GuardedScheduler`] containment layer;
//! * [`AdmissionError`] — one rejected assignment with full context;
//! * [`SimError`] — everything that can abort a run, returned by
//!   [`crate::engine::try_simulate_with_faults`] and
//!   [`crate::engine::try_simulate_with_faults_recorded`].
//!
//! [`crate::engine::simulate`] keeps its fail-loud semantics by
//! unwrapping the `Result`: the panic message is the error's `Display`
//! form, which preserves the historical message fragments
//! (`"over-commitment"`, `"stalled"`, `"fits no server"`, …) that tests
//! and operators grep for.

use crate::scheduler::Assignment;
use dollymp_core::job::JobId;
use dollymp_core::resources::Resources;
use dollymp_core::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an input (an assignment batch entry, or the run as a whole) was
/// refused. One taxonomy across layers so that guard statistics and
/// engine errors aggregate on the same axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The demand does not fit the target's remaining free capacity (or,
    /// for an up-front check, fits no server at all).
    OverCommit,
    /// The job, task or phase named by the input does not exist or is not
    /// in a schedulable state (unknown id, out-of-range index, blocked
    /// phase).
    UnknownJob,
    /// The target server does not exist or is currently crashed.
    ServerDown,
    /// An illegal extra copy: a primary for an already-running task, a
    /// clone for a non-running task, or a launch beyond the per-task copy
    /// cap.
    DuplicateCopy,
    /// The scheduler made no progress while the cluster had runnable work
    /// and nothing else pending.
    Stalled,
    /// The decision pass (or the whole run) exceeded its time budget: the
    /// per-pass wall-clock watchdog of the guard, or the engine's
    /// `max_slots` safety valve.
    ClockOverrun,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::OverCommit => "over-commit",
            RejectReason::UnknownJob => "unknown-job",
            RejectReason::ServerDown => "server-down",
            RejectReason::DuplicateCopy => "duplicate-copy",
            RejectReason::Stalled => "stalled",
            RejectReason::ClockOverrun => "clock-overrun",
        };
        f.write_str(s)
    }
}

/// One rejected assignment, with enough context to debug the policy that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionError {
    /// Slot at which the batch was validated.
    pub at: Time,
    /// The offending assignment.
    pub assignment: Assignment,
    /// Coarse classification.
    pub reason: RejectReason,
    /// Human-readable specifics (preserves the engine's historical panic
    /// phrasing, e.g. `"over-commitment on server 3: …"`).
    pub detail: String,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid assignment at slot {} ({}): {}",
            self.at, self.reason, self.detail
        )
    }
}

impl std::error::Error for AdmissionError {}

/// A snapshot of scheduler-visible progress state, embedded in stall and
/// clock-overrun errors so an aborted run is debuggable from the message
/// alone.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Active (arrived, unfinished) job ids — capped at
    /// [`ProgressSnapshot::MAX_LISTED`] entries.
    pub active_jobs: Vec<JobId>,
    /// Total active jobs (may exceed `active_jobs.len()`).
    pub total_active: usize,
    /// Ready tasks awaiting placement across all active jobs — the
    /// pending-queue depth.
    pub pending_tasks: usize,
    /// Last slot at which anything happened (an arrival was admitted, a
    /// copy launched, or a copy retired).
    pub last_progress: Time,
}

impl ProgressSnapshot {
    /// Cap on the job ids listed in messages (keeps errors bounded on
    /// 30 000-server sweeps).
    pub const MAX_LISTED: usize = 16;
}

impl fmt::Display for ProgressSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<u64> = self.active_jobs.iter().map(|j| j.0).collect();
        let ellipsis = if self.total_active > ids.len() {
            format!(" (+{} more)", self.total_active - ids.len())
        } else {
            String::new()
        };
        write!(
            f,
            "{} active job(s) {:?}{}, {} ready task(s) pending, last progress at slot {}",
            self.total_active, ids, ellipsis, self.pending_tasks, self.last_progress
        )
    }
}

/// Everything that can abort a simulation, returned by the fallible
/// engine entry points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimError {
    /// A job's phase demand fits no server: the job could never run.
    Unsatisfiable {
        /// The impossible job.
        job: JobId,
        /// Offending phase index.
        phase: u32,
        /// Its per-task demand.
        demand: Resources,
    },
    /// Two jobs in the workload share an id.
    DuplicateJob {
        /// The duplicated id.
        job: JobId,
    },
    /// The scheduler produced an invalid assignment (strict mode only —
    /// under [`crate::guard::GuardedScheduler`] these are dropped and
    /// counted instead).
    Rejected(AdmissionError),
    /// Active jobs, nothing running, nothing arriving, and an empty
    /// scheduling batch: the run would hang forever.
    Stalled {
        /// Name of the stalled policy.
        scheduler: String,
        /// Slot at which the stall was detected.
        at: Time,
        /// Progress context for debugging.
        progress: ProgressSnapshot,
    },
    /// The clock passed `EngineConfig::max_slots` (livelock safety
    /// valve).
    ClockOverrun {
        /// Name of the livelocked policy.
        scheduler: String,
        /// The configured ceiling.
        max_slots: Time,
        /// Slot the clock reached.
        at: Time,
        /// Progress context for debugging.
        progress: ProgressSnapshot,
    },
    /// The fault timeline itself is malformed (generator bug): an event
    /// for an unknown server, or a `Restore` for a server that is up.
    InvalidTimeline {
        /// Slot of the offending event.
        at: Time,
        /// What was wrong.
        detail: String,
    },
}

impl SimError {
    /// The coarse [`RejectReason`] bucket this error falls into.
    pub fn reason(&self) -> RejectReason {
        match self {
            SimError::Unsatisfiable { .. } => RejectReason::OverCommit,
            SimError::DuplicateJob { .. } => RejectReason::UnknownJob,
            SimError::Rejected(e) => e.reason,
            SimError::Stalled { .. } => RejectReason::Stalled,
            SimError::ClockOverrun { .. } => RejectReason::ClockOverrun,
            SimError::InvalidTimeline { .. } => RejectReason::ServerDown,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unsatisfiable { job, phase, demand } => {
                write!(
                    f,
                    "job {} phase {phase} demand {demand} fits no server",
                    job.0
                )
            }
            SimError::DuplicateJob { job } => {
                write!(f, "duplicate job id {} in workload", job.0)
            }
            SimError::Rejected(e) => e.fmt(f),
            SimError::Stalled {
                scheduler,
                at,
                progress,
            } => write!(
                f,
                "scheduler {scheduler} stalled at slot {at}: returned no assignments with \
                 {progress}, nothing running, nothing arriving"
            ),
            SimError::ClockOverrun {
                scheduler,
                max_slots,
                at,
                progress,
            } => write!(
                f,
                "simulation exceeded {max_slots} slots (clock at {at}) — livelocked \
                 scheduler {scheduler}? {progress}"
            ),
            SimError::InvalidTimeline { at, detail } => {
                write!(f, "invalid fault timeline at slot {at}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<AdmissionError> for SimError {
    fn from(e: AdmissionError) -> Self {
        SimError::Rejected(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ServerId;
    use crate::state::CopyKind;
    use dollymp_core::job::{PhaseId, TaskId, TaskRef};

    fn admission(reason: RejectReason, detail: &str) -> AdmissionError {
        AdmissionError {
            at: 7,
            assignment: Assignment {
                task: TaskRef {
                    job: JobId(1),
                    phase: PhaseId(0),
                    task: TaskId(2),
                },
                server: ServerId(3),
                kind: CopyKind::Primary,
            },
            reason,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn display_preserves_legacy_fragments() {
        // The substrings the pre-existing `should_panic` tests (and any
        // operator grepping logs) rely on.
        let e = SimError::Unsatisfiable {
            job: JobId(4),
            phase: 1,
            demand: Resources::new(8.0, 2.0),
        };
        assert!(e.to_string().contains("fits no server"));

        let e = SimError::DuplicateJob { job: JobId(9) };
        assert!(e.to_string().contains("duplicate job id 9"));

        let e = SimError::Stalled {
            scheduler: "lazy".into(),
            at: 12,
            progress: ProgressSnapshot {
                active_jobs: vec![JobId(0), JobId(3)],
                total_active: 2,
                pending_tasks: 5,
                last_progress: 8,
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("stalled"));
        assert!(msg.contains("[0, 3]"), "job ids listed: {msg}");
        assert!(
            msg.contains("5 ready task(s) pending"),
            "queue depth: {msg}"
        );
        assert!(msg.contains("last progress at slot 8"), "{msg}");

        let e = SimError::Rejected(admission(
            RejectReason::OverCommit,
            "over-commitment on server 3: demand (2, 2) > free (1, 1)",
        ));
        assert!(e.to_string().contains("over-commitment"));
    }

    #[test]
    fn overrun_message_names_the_budget_and_progress() {
        let e = SimError::ClockOverrun {
            scheduler: "spin".into(),
            max_slots: 100,
            at: 101,
            progress: ProgressSnapshot {
                active_jobs: (0..20).map(JobId).collect::<Vec<_>>()[..16].to_vec(),
                total_active: 20,
                pending_tasks: 40,
                last_progress: 33,
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("exceeded 100 slots"));
        assert!(msg.contains("livelocked"));
        assert!(msg.contains("(+4 more)"), "capped id list: {msg}");
        assert!(msg.contains("last progress at slot 33"));
    }

    #[test]
    fn reasons_map_to_taxonomy() {
        assert_eq!(
            SimError::DuplicateJob { job: JobId(0) }.reason(),
            RejectReason::UnknownJob
        );
        assert_eq!(
            SimError::Rejected(admission(RejectReason::ServerDown, "x")).reason(),
            RejectReason::ServerDown
        );
        let stall = SimError::Stalled {
            scheduler: "s".into(),
            at: 0,
            progress: ProgressSnapshot::default(),
        };
        assert_eq!(stall.reason(), RejectReason::Stalled);
    }

    #[test]
    fn errors_serialize_round_trip() {
        let e = SimError::Rejected(admission(RejectReason::DuplicateCopy, "d"));
        let s = serde_json::to_string(&e).unwrap();
        let back: SimError = serde_json::from_str(&s).unwrap();
        assert_eq!(e, back);
    }
}
