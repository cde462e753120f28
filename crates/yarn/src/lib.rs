//! # dollymp-yarn
//!
//! A simulated Hadoop-YARN-like control plane reproducing the paper's
//! deployment architecture (§5.2, Fig. 3): a **Resource Manager** running
//! DollyMP's scheduling pass, and **Application Masters** that
//! *estimate* task statistics (from recurring-job history, then in-run
//! observations, then a default), feed them to that pass, move the
//! granted containers next to their input blocks, and archive finished
//! runs back into the history.
//!
//! There is no node side: container launch, kill-on-first-finish and
//! crash eviction are the engine's own bookkeeping (`dollymp-cluster`),
//! and the engine's admission rules (with `GuardedScheduler` to contain
//! a bad batch) check every container.
//!
//! * [`shuffle`] — the Dolly-style delay assignment of upstream outputs
//!   to downstream clones, a stand-alone state machine that nothing in
//!   the control plane drives (the engine models no intermediate data);
//! * [`history`] — the recurring-job statistics registry;
//! * [`am`] — the Application Master estimator, DollyMP's
//!   [`JobStatistics`](dollymp_schedulers::JobStatistics) source;
//! * [`system`] — [`system::YarnSystem`], the assembled control plane as
//!   a `Scheduler`: DollyMP's pass on the AMs' estimates, then the AMs'
//!   locality moves over its batch.
//!
//! The headline difference from using `dollymp_schedulers::DollyMP`
//! directly: [`system::YarnSystem`] schedules on *estimated* statistics,
//! so the deployment figures (Figs. 1, 4–7) can be reproduced with the
//! realistic information model rather than oracle knowledge.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod am;
pub mod history;
pub mod shuffle;
pub mod system;

pub use am::ApplicationMaster;
pub use history::HistoryRegistry;
pub use system::YarnSystem;
