//! # dollymp-testkit
//!
//! The one instance generator and the one lockstep harness of the
//! equivalence suites. Every property that compares two runs, or checks
//! an invariant over random runs, draws its cluster, jobs and fault
//! timeline here, so all of them see the same breadth: heterogeneous
//! servers on several racks, chains and branching DAG jobs, and crashes
//! that overlap rack blackouts. The only parameters are sizes.
//!
//! ```
//! use dollymp_testkit as testkit;
//!
//! let mut rng = testkit::rng(7);
//! let cluster = testkit::cluster(&mut rng, 8);
//! let jobs = testkit::jobs(&mut rng, 1..=12);
//! let faults = testkit::faults(7, &cluster, 120);
//! assert!((1..=8).contains(&cluster.len()) && (1..=12).contains(&jobs.len()));
//! assert!(faults.events().iter().all(|f| (f.event.server().0 as usize) < cluster.len()));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use dollymp_cluster::fault::FaultTimeline;
use dollymp_cluster::metrics::GuardStats;
use dollymp_cluster::scheduler::{Assignment, Scheduler};
use dollymp_cluster::spec::{ClusterSpec, ServerId, ServerSpec};
use dollymp_cluster::state::JobState;
use dollymp_cluster::trace::PassSpan;
use dollymp_cluster::view::ClusterView;
use dollymp_core::job::{JobId, JobSpec, PhaseId, PhaseSpec, TaskRef};
use dollymp_core::resources::Resources;
use dollymp_core::time::Time;
use dollymp_faults::FaultConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;

/// The seeded generator the draws below take.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// 1..=`max_servers` heterogeneous servers: CPU {4, 8, 16, 32}, memory
/// {4, 8, 16, 64}, speed {0.5, 1, 2} and rack 0..3, so rack blackouts
/// take down groups of unlike servers.
pub fn cluster(rng: &mut SmallRng, max_servers: u32) -> ClusterSpec {
    let n = rng.gen_range(1..=max_servers);
    ClusterSpec::new(
        (0..n)
            .map(|_| {
                let cpu = [4.0, 8.0, 16.0, 32.0][rng.gen_range(0..4usize)];
                let mem = [4.0, 8.0, 16.0, 64.0][rng.gen_range(0..4usize)];
                let speed = [0.5, 1.0, 2.0][rng.gen_range(0..3usize)];
                ServerSpec::new(cpu, mem)
                    .with_speed(speed)
                    .with_rack(rng.gen_range(0..3))
            })
            .collect(),
    )
}

/// `njobs` jobs (a count drawn from the range) of 1–4 phases whose
/// parents are a random subset of the earlier phases: chains, several
/// roots and branching DAGs all occur, so several phases of one job,
/// with different demands, can be ready at once. Arrivals spread over
/// twice the job count. Demands take CPU in half units (0.5–4) and
/// memory 1–4, so every demand fits the smallest server. A phase has
/// 1–8 tasks, or one in twenty 60–70, so task sets cross a 64-bit word.
pub fn jobs(rng: &mut SmallRng, njobs: RangeInclusive<u64>) -> Vec<JobSpec> {
    let n = rng.gen_range(njobs);
    (0..n)
        .map(|i| {
            let mut b = JobSpec::builder(JobId(i)).arrival(rng.gen_range(0..2 * n));
            for p in 0..rng.gen_range(1..=4u32) {
                let parents = (0..p).filter(|_| rng.gen_bool(0.5)).map(PhaseId).collect();
                let ntasks = if rng.gen_bool(0.05) {
                    rng.gen_range(60..=70)
                } else {
                    rng.gen_range(1..=8)
                };
                let demand = Resources::new(
                    rng.gen_range(1..=8) as f64 * 0.5,
                    rng.gen_range(1..=4) as f64,
                );
                let phase = PhaseSpec::new(
                    ntasks,
                    demand,
                    rng.gen_range(1.0..12.0),
                    rng.gen_range(0.0..6.0),
                );
                b = b.phase(phase.with_parents(parents));
            }
            b.build().expect("parents precede their children")
        })
        .collect()
}

/// The production generator over `[0, horizon)` with crashes, rack
/// blackouts and fail-slow onsets, dense enough that on small clusters a
/// crash often overlaps a blackout of its rack. Every crash is repaired,
/// so runs drain.
pub fn faults(seed: u64, cluster: &ClusterSpec, horizon: Time) -> FaultTimeline {
    let cfg = FaultConfig::new(seed, horizon)
        .with_crash_rate(0.01, 6.0)
        .with_rack_blackouts(0.004, 8)
        .with_fail_slow(0.3, 0.5);
    dollymp_faults::generate(cluster, &cfg)
}

/// A scheduler that runs two schedulers in lockstep: every hook goes to
/// both, and each pass asks both for a batch on the same view. Equal
/// batches (as sequences) return the first's; the first difference
/// panics, naming the slot, the pass, the index of the first differing
/// assignment and both assignments. `name`, `guard_stats` and
/// `pass_span` are the first scheduler's.
pub struct Lockstep<A, B> {
    first: A,
    second: B,
    passes: u64,
}

impl<A: Scheduler, B: Scheduler> Lockstep<A, B> {
    /// `first` drives the run; `second` must agree with it at every pass.
    pub fn new(first: A, second: B) -> Self {
        Lockstep {
            first,
            second,
            passes: 0,
        }
    }
}

impl<A: Scheduler, B: Scheduler> Scheduler for Lockstep<A, B> {
    fn name(&self) -> String {
        self.first.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.first.on_job_arrival(view, job);
        self.second.on_job_arrival(view, job);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        self.first.on_job_finish(job);
        self.second.on_job_finish(job);
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.first.on_server_down(view, server);
        self.second.on_server_down(view, server);
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.first.on_server_up(view, server);
        self.second.on_server_up(view, server);
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.first.on_task_lost(view, task);
        self.second.on_task_lost(view, task);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.passes += 1;
        let a = self.first.schedule(view);
        let b = self.second.schedule(view);
        if a != b {
            let i = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
            panic!(
                "{} and {} diverge at slot {} pass {} first diff at {i}: {:?} vs {:?}",
                self.first.name(),
                self.second.name(),
                view.now,
                self.passes,
                a.get(i),
                b.get(i),
            );
        }
        a
    }

    fn guard_stats(&self) -> Option<GuardStats> {
        self.first.guard_stats()
    }

    fn pass_span(&self) -> Option<PassSpan> {
        self.first.pass_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::fault::FaultEvent;

    /// A server's down-count reaches 2: with crash windows never
    /// overlapping each other and blackouts of one rack neither, that is
    /// a crash overlapping a blackout.
    fn overlapping_down_windows(faults: &FaultTimeline, nservers: usize) -> bool {
        let mut depth = vec![0u32; nservers];
        faults.events().iter().any(|f| match f.event {
            FaultEvent::Crash(s) => {
                depth[s.0 as usize] += 1;
                depth[s.0 as usize] >= 2
            }
            FaultEvent::Restore(s) => {
                depth[s.0 as usize] -= 1;
                false
            }
            FaultEvent::Degrade(..) => false,
        })
    }

    /// Pins the breadth of the draws against future narrowing: the first
    /// 64 seeds include every shape the equivalence suites rely on.
    #[test]
    fn the_first_64_seeds_cover_every_shape() {
        let mut seen = [false; 6];
        for seed in 0..64 {
            let mut rng = rng(seed);
            let cluster = cluster(&mut rng, 8);
            let jobs = jobs(&mut rng, 1..=40);
            let faults = faults(seed, &cluster, 120);
            let phases = || jobs.iter().flat_map(|j| j.phases());
            let speeds: Vec<f64> = cluster.servers().iter().map(|s| s.speed).collect();
            let racks = cluster.servers().iter().map(|s| s.rack);
            seen[0] |= phases().any(|p| p.parents.len() >= 2);
            seen[1] |= phases().any(|p| p.ntasks > 64);
            seen[2] |= [0.5, 1.0, 2.0].iter().all(|v| speeds.contains(v))
                && racks.clone().min() != racks.max();
            seen[3] |= overlapping_down_windows(&faults, cluster.len());
            seen[4] |= faults
                .events()
                .iter()
                .any(|f| matches!(f.event, FaultEvent::Degrade(..)));
            seen[5] |= cluster.len() == 1;
        }
        let shapes = [
            "a phase with two parents",
            "a phase of more than 64 tasks",
            "a cluster with all three speeds on two racks",
            "a crash overlapping a rack blackout",
            "a fail-slow onset",
            "a one-server cluster",
        ];
        for (shape, seen) in shapes.iter().zip(seen) {
            assert!(seen, "no draw has {shape}");
        }
    }
}
