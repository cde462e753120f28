//! # dollymp-core
//!
//! Core algorithms of **DollyMP**, the multi-resource cluster scheduler with
//! task cloning from *"Multi Resource Scheduling with Task Cloning in
//! Heterogeneous Clusters"* (Xu, Liu, Lau — ICPP 2022).
//!
//! This crate is deliberately free of any simulation or I/O machinery: it
//! contains the pure scheduling mathematics so that the simulator
//! (`dollymp-cluster`), the scheduler implementations
//! (`dollymp-schedulers`) and the YARN-like control plane
//! (`dollymp-yarn`) can all share one implementation of the paper's model.
//!
//! The module layout mirrors the paper:
//!
//! * [`resources`] — two-dimensional (CPU, memory) resource vectors and the
//!   *dominant resource* of Eq. (9)/(15).
//! * [`time`] — the time-slotted clock of §3.
//! * [`speedup`] — the cloning speedup function `h(r)` of Eq. (1), including
//!   the Pareto fit of Eq. (2)–(3).
//! * [`job`] — DAG jobs, phases and tasks; effective processing times,
//!   critical paths and job volumes of Eq. (10)/(14)/(17).
//! * [`knapsack`] — the unit-profit knapsack oracle of Algorithm 1 (§4.2.1)
//!   plus an exact DP used to validate it.
//! * [`transient`] — Algorithm 1, the transient scheduling process that
//!   assigns knapsack-based priorities.
//! * [`online`] — decision helpers for Algorithm 2 (the job order of the
//!   last Algorithm 1 run, Tetris-style best-fit tie-breaking, clone
//!   budgeting).
//! * [`cloning`] — the §4.1 analysis of *when cloning helps* (the
//!   flow₁/flow₂/flow₃ case study) and clone-count selection.
//! * [`stats`] — streaming mean/standard-deviation estimation used by the
//!   Application-Master statistics estimator of §5.2.
//! * [`hash`] — a deterministic FxHash-style hasher for scheduler-internal
//!   maps (hot-path replacement for SipHash).
//! * [`theory`] — competitive-ratio machinery: Theorem 1 / Corollary 4.1
//!   bounds and a brute-force optimal scheduler for tiny instances.
//!
//! ## Quick start
//!
//! ```
//! use dollymp_core::prelude::*;
//!
//! // A cluster totalling 32 cores / 64 GB.
//! let totals = Resources::new(32.0, 64.0);
//!
//! // Three single-phase jobs: (tasks, cpu, mem, mean secs, std secs).
//! let jobs: Vec<JobSpec> = [(4u32, 1.0, 2.0, 10.0, 2.0),
//!                           (2, 2.0, 4.0, 40.0, 8.0),
//!                           (8, 1.0, 1.0, 5.0, 1.0)]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &(n, c, m, mu, sd))| {
//!         JobSpec::builder(JobId(i as u64))
//!             .phase(PhaseSpec::new(n, Resources::new(c, m), mu, sd))
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//!
//! // Algorithm 1: knapsack-based priorities (smaller = scheduled earlier),
//! // on effective times θ + w·σ with the paper's w = 1.5.
//! let w = 1.5;
//! let inputs: Vec<TransientJob> = jobs
//!     .iter()
//!     .map(|j| TransientJob {
//!         id: j.id,
//!         volume: j.volume(totals, w),
//!         etime: j.effective_time(w),
//!         dominant: j.max_dominant_share(totals),
//!     })
//!     .collect();
//! let out = transient_schedule(&inputs);
//! assert_eq!(out.priorities.len(), 3);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cloning;
pub mod hash;
pub mod job;
pub mod knapsack;
pub mod online;
pub mod resources;
pub mod speedup;
pub mod stats;
pub mod theory;
pub mod time;
pub mod transient;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::cloning::{clone_gain, flow1, flow2, flow3, CloningRegime};
    pub use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet};
    pub use crate::job::{
        DagError, JobId, JobSpec, JobSpecBuilder, PhaseId, PhaseSpec, TaskId, TaskRef,
    };
    pub use crate::knapsack::{knapsack_01_dp, unit_profit_knapsack};
    pub use crate::online::{best_fit_score, ClonePolicy, PriorityOrder};
    pub use crate::resources::{dominant_share, Resources};
    pub use crate::speedup::{ParetoSpeedup, Speedup, SpeedupFn};
    pub use crate::stats::RunningStats;
    pub use crate::theory::{theorem1_bound, BruteForceOptimal};
    pub use crate::time::{Duration, Time};
    pub use crate::transient::{
        transient_schedule, TransientJob, TransientOutput, PRIORITY_UNSELECTED,
    };
}
