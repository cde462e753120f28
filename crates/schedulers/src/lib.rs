//! # dollymp-schedulers
//!
//! Every scheduling policy evaluated in the DollyMP paper, implemented
//! behind the single [`dollymp_cluster::scheduler::Scheduler`] trait so
//! that all of them run on the identical simulation substrate:
//!
//! | Policy | Paper role | Module |
//! |---|---|---|
//! | [`DollyMP`] (`DollyMP::with_clones(r)` = DollyMP^r) | the contribution | [`dollymp`] |
//! | [`Tetris`] / [`Tetris::with_cloning`] | multi-resource packing baseline (§6.1, Fig. 2) | [`tetris`] |
//! | [`Drf`] | fairness baseline (§6.1) | [`drf`] |
//! | [`CapacityScheduler`] | YARN default + speculative execution (§6.1) | [`capacity`] |
//! | [`Carbyne`] | state-of-the-art altruistic scheduler (§6.3.2) | [`carbyne`] |
//! | [`PriorityScheduler::srpt`] / [`PriorityScheduler::svf`] | the §4.2 building blocks | [`priority`] |
//! | [`Hopper`] | §7's speculation-aware prior work (documented approximation) | [`hopper`] |
//! | [`LearnedDollyMP`] | §8 future work: server-reputation learning | [`learned`] |
//!
//! The baselines share one placement vocabulary. Each places a copy with
//! `CapacityOverlay::place` (commit the demand, note the copy, append the
//! assignment) on the batch overlay of `dollymp-cluster`. FIFO, Capacity,
//! SRPT and SVF run that crate's one first-fit walk,
//! `dollymp_cluster::scheduler::place_in_job_order`, over their job
//! orders. DRF and Carbyne's fair pass run one progressive-filling loop,
//! which differs only in the share cap and the server fit.
//!
//! Use [`by_name`] to build a scheduler from its string name (the
//! experiment binaries' CLI contract), and [`engine_cfg_for`] for the
//! engine config that name runs under.
//!
//! The [`adversarial`] module additionally provides
//! [`AdversarialScheduler`] — an intentionally misbehaving policy used
//! to exercise `dollymp_cluster::guard::GuardedScheduler`. It is *not*
//! part of [`ALL_NAMES`] (those must survive strict, unguarded runs).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adversarial;
pub mod capacity;
pub mod carbyne;
pub mod common;
pub mod dollymp;
pub mod drf;
pub mod hopper;
pub mod learned;
pub mod priority;
pub mod tetris;

pub use adversarial::{AdversarialConfig, AdversarialScheduler};
pub use capacity::{CapacityScheduler, SpeculationConfig};
pub use carbyne::Carbyne;
pub use dollymp::{DollyMP, JobStatistics, Oracle};
pub use drf::Drf;
pub use hopper::{Hopper, HopperConfig};
pub use learned::{LearnedDollyMP, ServerReputation};
pub use priority::PriorityScheduler;
pub use tetris::Tetris;

use dollymp_cluster::prelude::{EngineConfig, FifoFirstFit, Scheduler};

/// Construct a scheduler from its canonical name.
///
/// Recognized names: `fifo`, `capacity`, `capacity-nospec`, `drf`,
/// `tetris`, `tetris+cloneN`, `carbyne`, `srpt`, `svf`, `dollymp0` …
/// `dollymp8`, and `learned-dollymp0` … `learned-dollymp8`.
///
/// ```
/// use dollymp_schedulers::by_name;
/// assert!(by_name("dollymp2").is_some());
/// assert!(by_name("tetris+clone1").is_some());
/// assert!(by_name("made-up").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name {
        "fifo" => Some(Box::new(FifoFirstFit)),
        "capacity" => Some(Box::new(CapacityScheduler::new())),
        "capacity-nospec" => Some(Box::new(CapacityScheduler::without_speculation())),
        "drf" => Some(Box::new(Drf)),
        "tetris" => Some(Box::new(Tetris::new())),
        "carbyne" => Some(Box::new(Carbyne)),
        "hopper" => Some(Box::new(Hopper::new())),
        "srpt" => Some(Box::new(PriorityScheduler::srpt())),
        "svf" => Some(Box::new(PriorityScheduler::svf())),
        _ => {
            if let Some(r) = name.strip_prefix("learned-dollymp") {
                let clones: u32 = r.parse().ok()?;
                if clones > 8 {
                    return None;
                }
                return Some(Box::new(LearnedDollyMP::with_clones(clones)));
            }
            if let Some(r) = name.strip_prefix("dollymp") {
                let clones: u32 = r.parse().ok()?;
                if clones > 8 {
                    return None;
                }
                return Some(Box::new(DollyMP::with_clones(clones)));
            }
            if let Some(r) = name.strip_prefix("tetris+clone") {
                let clones: u32 = r.parse().ok()?;
                if clones == 0 || clones > 8 {
                    return None;
                }
                return Some(Box::new(Tetris::with_cloning(clones)));
            }
            None
        }
    }
}

/// Engine config for the scheduler [`by_name`] builds from `name`. The
/// policies that watch running tasks for stragglers, `capacity`
/// (LATE-style speculation) and `hopper` (backups for a job's slowest
/// tasks), get a 1-slot tick so they observe progress mid-flight; every
/// other policy runs without one.
pub fn engine_cfg_for(name: &str) -> EngineConfig {
    EngineConfig {
        tick: matches!(name, "capacity" | "hopper").then_some(1),
        ..EngineConfig::default()
    }
}

/// All scheduler names [`by_name`] recognizes (one representative per
/// family) — used by experiment binaries to enumerate baselines.
pub const ALL_NAMES: &[&str] = &[
    "fifo",
    "capacity",
    "capacity-nospec",
    "drf",
    "tetris",
    "tetris+clone1",
    "carbyne",
    "hopper",
    "srpt",
    "svf",
    "dollymp0",
    "dollymp1",
    "dollymp2",
    "dollymp3",
    "learned-dollymp2",
];

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_cluster::execution::{DurationSampler, StragglerModel};
    use dollymp_cluster::spec::ClusterSpec;
    use dollymp_core::job::{JobId, JobSpec};
    use dollymp_core::resources::Resources;

    #[test]
    fn factory_covers_all_names() {
        for &n in ALL_NAMES {
            let s = by_name(n).unwrap_or_else(|| panic!("unknown scheduler {n}"));
            assert_eq!(s.name(), n, "factory name round-trip");
        }
        assert!(by_name("dollymp99").is_none());
        assert!(by_name("tetris+clone0").is_none());
        assert!(by_name("").is_none());
    }

    #[test]
    fn engine_cfg_gives_capacity_a_tick() {
        assert_eq!(engine_cfg_for("capacity").tick, Some(1));
        assert_eq!(engine_cfg_for("hopper").tick, Some(1));
        assert_eq!(engine_cfg_for("capacity-nospec").tick, None);
        assert_eq!(engine_cfg_for("dollymp2").tick, None);
    }

    /// Cross-scheduler smoke test: every policy completes the same
    /// workload on the paper's 30-node cluster, conserves resources (the
    /// engine asserts that) and reports sane metrics.
    #[test]
    fn every_scheduler_completes_the_same_workload() {
        let cluster = ClusterSpec::paper_30_node();
        let jobs: Vec<JobSpec> = (0..20u64)
            .map(|i| {
                JobSpec::builder(JobId(i))
                    .arrival(i * 3)
                    .label(if i % 2 == 0 { "wordcount" } else { "pagerank" })
                    .phase(dollymp_core::job::PhaseSpec::new(
                        (2 + i % 6) as u32,
                        Resources::new(1.0 + (i % 3) as f64, 2.0),
                        10.0 + (i % 5) as f64,
                        4.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let sampler = DurationSampler::new(99, StragglerModel::ParetoFit);
        for &n in ALL_NAMES {
            let mut s = by_name(n).unwrap();
            let r = simulate(
                &cluster,
                jobs.clone(),
                &sampler,
                s.as_mut(),
                &EngineConfig::default(),
            );
            assert_eq!(r.jobs.len(), 20, "{n} must complete all jobs");
            assert!(r.total_flowtime() > 0, "{n}");
            assert!(r.makespan > 0, "{n}");
            for j in &r.jobs {
                assert!(j.finish >= j.first_start, "{n}");
                assert!(j.first_start >= j.arrival, "{n}");
                assert!(j.usage > 0.0, "{n}");
            }
        }
    }

    /// The headline comparison shape (§6.2.2): under heavy load DollyMP²
    /// beats Tetris and the Capacity scheduler on total flowtime.
    #[test]
    fn dollymp_beats_baselines_under_heavy_load() {
        let cluster = ClusterSpec::paper_30_node();
        let jobs: Vec<JobSpec> = (0..60u64)
            .map(|i| {
                let (n, theta) = if i % 4 == 0 { (24, 30.0) } else { (4, 6.0) };
                JobSpec::builder(JobId(i))
                    .arrival(i)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        n,
                        Resources::new(2.0, 4.0),
                        theta,
                        theta * 0.6,
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let sampler = DurationSampler::new(7, StragglerModel::ParetoFit);
        let run = |name: &str| {
            let mut s = by_name(name).unwrap();
            simulate(
                &cluster,
                jobs.clone(),
                &sampler,
                s.as_mut(),
                &EngineConfig::default(),
            )
            .total_flowtime()
        };
        let dollymp = run("dollymp2");
        let tetris = run("tetris");
        let capacity = run("capacity-nospec");
        assert!(
            dollymp < tetris,
            "dollymp2 {dollymp} should beat tetris {tetris}"
        );
        assert!(
            dollymp < capacity,
            "dollymp2 {dollymp} should beat capacity {capacity}"
        );
    }
}
