//! Shared helpers for the integration suites: a seeded random workload
//! and a random fault timeline of well-formed crash→restore windows.

use dollymp::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `njobs` single-phase jobs with seeded random arrivals, sizes, demands
/// and durations.
pub fn workload(seed: u64, njobs: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..njobs)
        .map(|i| {
            JobSpec::builder(JobId(i))
                .arrival(rng.gen_range(0..njobs * 3))
                .phase(dollymp_core::job::PhaseSpec::new(
                    rng.gen_range(1..=6),
                    Resources::new(rng.gen_range(1..=3) as f64, rng.gen_range(2..=4) as f64),
                    rng.gen_range(2.0..12.0),
                    rng.gen_range(0.0..5.0),
                ))
                .build()
                .expect("valid spec")
        })
        .collect()
}

/// Random well-formed crash→restore windows (every crash repaired, so
/// runs can always drain) — the same shape as the engine fuzz suite's.
pub fn fault_timeline(seed: u64, nservers: u32, horizon: u64) -> FaultTimeline {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6A2D);
    let mut events = Vec::new();
    for s in 0..nservers {
        let mut t = rng.gen_range(1..horizon / 2);
        for _ in 0..rng.gen_range(0..=2u32) {
            let len: u64 = rng.gen_range(1..=10);
            events.push(TimedFault {
                at: t,
                event: FaultEvent::Crash(ServerId(s)),
            });
            events.push(TimedFault {
                at: t + len,
                event: FaultEvent::Restore(ServerId(s)),
            });
            t += len + rng.gen_range(1..=15u64);
        }
    }
    FaultTimeline::new(events)
}
