//! The benchmark's workloads. Each one is a fixed cluster plus a job
//! stream, straggler sampler and fault timeline generated from a seed;
//! the engine only ever sees the generated [`Inputs`].
//!
//! A workload may run as several independent instances, each generated
//! from its own sub-seed of the command-line seed. One instance's queue
//! depth, and with it its wall time and flowtime, can swing by ±15% or
//! more from seed to seed; the sum over `k` instances swings about
//! `1/√k` as much.

use dollymp_cluster::prelude::*;
use dollymp_core::job::JobSpec;
use dollymp_faults::FaultConfig;
use dollymp_workload::{generate_google, GoogleConfig};
use std::time::Instant;

/// The machine a workload runs on. The cluster is part of the workload's
/// definition, not of its seeded input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cluster {
    /// `ClusterSpec::paper_30_node()`: the paper's heterogeneous testbed.
    Paper30,
    /// `ClusterSpec::google_like(servers, 8)`: a §6.3 trace fleet.
    GoogleLike {
        /// Number of servers.
        servers: u32,
    },
}

/// Parameters of a `dollymp_faults` timeline. The horizon is the arrival
/// span of the generated jobs, so faults land while work is in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faults {
    /// Per-server crash rate, per slot.
    pub crash_rate: f64,
    /// Mean repair time of a crash, in slots.
    pub mean_repair: f64,
    /// Per-rack blackout rate, per slot.
    pub blackout_rate: f64,
    /// Blackout window length, in slots.
    pub blackout_len: u64,
    /// Fraction of servers that turn fail-slow.
    pub fail_slow_frac: f64,
    /// Speed multiplier of a fail-slow server.
    pub fail_slow_factor: f64,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The cluster.
    pub cluster: Cluster,
    /// Independent instances per run.
    pub instances: usize,
    /// Google-like jobs per instance.
    pub jobs: usize,
    /// Offered dominant-resource load the arrivals are re-spaced to.
    pub load: f64,
    /// Fault timeline parameters, if the workload injects faults.
    pub faults: Option<Faults>,
}

/// Every workload of the benchmark.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper30_queue",
        cluster: Cluster::Paper30,
        instances: 16,
        jobs: 2_500,
        load: 1.0,
        faults: None,
    },
    Workload {
        name: "trace3k_burst",
        cluster: Cluster::GoogleLike { servers: 3_000 },
        instances: 2,
        jobs: 10_000,
        load: 0.62,
        faults: None,
    },
    Workload {
        name: "faults1k_churn",
        cluster: Cluster::GoogleLike { servers: 1_000 },
        instances: 8,
        jobs: 2_500,
        load: 0.62,
        faults: Some(Faults {
            crash_rate: 0.01,
            mean_repair: 10.0,
            blackout_rate: 1e-3,
            blackout_len: 20,
            fail_slow_frac: 0.05,
            fail_slow_factor: 0.5,
        }),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything one simulation instance consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The cluster.
    pub cluster: ClusterSpec,
    /// The jobs, sorted by arrival.
    pub jobs: Vec<JobSpec>,
    /// Paired straggler sampler.
    pub sampler: DurationSampler,
    /// Fault timeline (empty for fault-free workloads).
    pub faults: FaultTimeline,
}

impl Inputs {
    /// Total task count over all generated jobs.
    pub fn tasks(&self) -> u64 {
        self.jobs.iter().map(|j| j.total_tasks()).sum()
    }
}

/// Wall time of each generation step over all instances, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Cluster construction.
    pub cluster_ns: u64,
    /// Job generation and arrival re-spacing.
    pub workload_ns: u64,
    /// Straggler sampler construction.
    pub sampler_ns: u64,
    /// Fault timeline generation.
    pub faults_ns: u64,
}

impl SetupTimes {
    /// All steps together.
    pub fn total_ns(&self) -> u64 {
        self.cluster_ns + self.workload_ns + self.sampler_ns + self.faults_ns
    }
}

/// SplitMix64 finalizer: independent sub-seeds for the workload's
/// generators from one command-line seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Re-space arrivals (Poisson, seeded) so the offered dominant-resource
/// load on `cluster` is `load` (the calibration the fig08 experiment
/// uses).
fn respace_for_load(jobs: &mut [JobSpec], cluster: &ClusterSpec, load: f64, seed: u64) {
    let totals = cluster.totals();
    let work: f64 = jobs.iter().map(|j| j.volume(totals, 0.0)).sum();
    let gap = work / load / jobs.len().max(1) as f64;
    let arrivals = dollymp_workload::arrivals::poisson(jobs.len(), gap, seed);
    for (j, &a) in jobs.iter_mut().zip(&arrivals) {
        j.arrival = a;
    }
    jobs.sort_by_key(|j| (j.arrival, j.id));
}

fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *ns += t0.elapsed().as_nanos() as u64;
    out
}

impl Workload {
    /// The same workload at another size (for small test runs).
    pub fn resized(self, instances: usize, jobs: usize) -> Workload {
        Workload {
            instances,
            jobs,
            ..self
        }
    }

    /// Generate every instance's inputs for `seed`, timing each step. The
    /// same seed always yields the same inputs.
    pub fn generate(&self, seed: u64) -> (Vec<Inputs>, SetupTimes) {
        let mut t = SetupTimes::default();
        let instances = (0..self.instances as u64)
            .map(|i| self.generate_one(sub_seed(seed, i), &mut t))
            .collect();
        (instances, t)
    }

    fn generate_one(&self, seed: u64, t: &mut SetupTimes) -> Inputs {
        let cluster = timed(&mut t.cluster_ns, || match self.cluster {
            Cluster::Paper30 => ClusterSpec::paper_30_node(),
            Cluster::GoogleLike { servers } => ClusterSpec::google_like(servers, 8),
        });
        let jobs = timed(&mut t.workload_ns, || {
            let mut jobs = generate_google(&GoogleConfig {
                njobs: self.jobs,
                mean_gap_slots: 1.0,
                seed: sub_seed(seed, 101),
                duration_cv: 1.2,
                ..Default::default()
            });
            respace_for_load(&mut jobs, &cluster, self.load, sub_seed(seed, 102));
            jobs
        });
        let sampler = timed(&mut t.sampler_ns, || {
            DurationSampler::new(sub_seed(seed, 103), StragglerModel::ParetoFit)
        });
        let faults = timed(&mut t.faults_ns, || match self.faults {
            None => FaultTimeline::empty(),
            Some(f) => {
                let horizon = jobs.last().map_or(1, |j| j.arrival.max(1));
                dollymp_faults::generate(
                    &cluster,
                    &FaultConfig::new(sub_seed(seed, 104), horizon)
                        .with_crash_rate(f.crash_rate, f.mean_repair)
                        .with_rack_blackouts(f.blackout_rate, f.blackout_len)
                        .with_fail_slow(f.fail_slow_frac, f.fail_slow_factor),
                )
            }
        });
        Inputs {
            cluster,
            jobs,
            sampler,
            faults,
        }
    }
}
