//! # dollymp-faults
//!
//! Stochastic fault-schedule **generators** for the DollyMP simulator.
//! The mechanism — timed crash/restore/degrade events, eviction, clone
//! survival, re-queueing — lives in `dollymp_cluster::fault` and the
//! engine; this crate turns a handful of rates into a deterministic
//! [`FaultTimeline`] the engine replays:
//!
//! * **Poisson per-server crashes** with exponentially distributed repair
//!   times — the classic independent-failure model;
//! * **correlated rack blackouts**: every server of a rack goes down for
//!   a fixed window (top-of-rack switch or PDU failure), overlapping
//!   freely with individual crashes (the engine's down-count composes
//!   them);
//! * **persistent fail-slow onsets**: a sampled fraction of servers
//!   degrades to a lower effective speed at a uniform random slot and
//!   never recovers — §2's stragglers made permanent, the failure mode
//!   cloning is best at masking.
//!
//! Generation is pure: the same `(ClusterSpec, FaultConfig)` always
//! yields the same timeline (per-server/per-rack counter-seeded RNG
//! streams, same idiom as `dollymp_cluster::execution`), so experiments
//! are reproducible and schedulers are comparable under *identical*
//! fault sequences. All-zero rates yield an empty timeline, which makes
//! `try_simulate_with_faults` byte-identical to `simulate`.
//!
//! ```
//! use dollymp_cluster::prelude::*;
//! use dollymp_faults::FaultConfig;
//!
//! let cluster = ClusterSpec::paper_30_node();
//! let cfg = FaultConfig::new(7, 10_000).with_crash_rate(1e-3, 50.0);
//! let tl = dollymp_faults::generate(&cluster, &cfg);
//! assert!(tl.crash_count() > 0);
//! assert_eq!(tl, dollymp_faults::generate(&cluster, &cfg));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use dollymp_cluster::fault::{FaultEvent, FaultTimeline, TimedFault};
use dollymp_cluster::spec::{ClusterSpec, ServerId};
use dollymp_core::time::Time;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of a stochastic fault schedule.
///
/// All rates are per slot; a zero rate disables that fault class. The
/// default config (any seed, zero rates) generates an empty timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// RNG seed; together with the cluster shape it fully determines the
    /// schedule.
    pub seed: u64,
    /// Faults are injected in `[0, horizon)` (repairs may complete
    /// later — every crash is always paired with its restore).
    pub horizon: Time,
    /// Per-server crash rate (expected crashes per server per slot).
    pub crash_rate: f64,
    /// Mean of the exponential repair time, in slots.
    pub mean_repair: f64,
    /// Per-rack blackout rate (expected blackouts per rack per slot).
    pub rack_blackout_rate: f64,
    /// Fixed blackout window length, in slots.
    pub rack_blackout_len: Time,
    /// Fraction of servers that suffer a fail-slow onset during the
    /// horizon (sampled per server).
    pub fail_slow_frac: f64,
    /// Speed multiplier applied at a fail-slow onset, in `(0, 1]`.
    pub fail_slow_factor: f64,
}

impl FaultConfig {
    /// A config with every fault class disabled.
    pub fn new(seed: u64, horizon: Time) -> Self {
        FaultConfig {
            seed,
            horizon,
            crash_rate: 0.0,
            mean_repair: 1.0,
            rack_blackout_rate: 0.0,
            rack_blackout_len: 1,
            fail_slow_frac: 0.0,
            fail_slow_factor: 1.0,
        }
    }

    /// Enable independent per-server crashes.
    pub fn with_crash_rate(mut self, rate: f64, mean_repair: f64) -> Self {
        assert!(rate >= 0.0 && mean_repair > 0.0, "bad crash parameters");
        self.crash_rate = rate;
        self.mean_repair = mean_repair;
        self
    }

    /// Enable correlated rack blackouts.
    pub fn with_rack_blackouts(mut self, rate: f64, len: Time) -> Self {
        assert!(rate >= 0.0 && len >= 1, "bad blackout parameters");
        self.rack_blackout_rate = rate;
        self.rack_blackout_len = len;
        self
    }

    /// Enable persistent fail-slow onsets.
    pub fn with_fail_slow(mut self, frac: f64, factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac) && factor > 0.0 && factor <= 1.0,
            "bad fail-slow parameters"
        );
        self.fail_slow_frac = frac;
        self.fail_slow_factor = factor;
        self
    }

    /// True when every fault class is disabled.
    pub fn is_zero(&self) -> bool {
        self.crash_rate == 0.0 && self.rack_blackout_rate == 0.0 && self.fail_slow_frac == 0.0
    }
}

/// SplitMix64 over (seed, stream, salt) — independent counter-based
/// streams, the same idiom the duration sampler uses so fault draws and
/// duration draws never share an RNG sequence.
fn mix(seed: u64, stream: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exponential draw with the given mean, at least one slot.
fn exp_slots(rng: &mut SmallRng, mean: f64) -> Time {
    // 1 − U ∈ (0, 1] avoids ln(0).
    let u: f64 = 1.0 - rng.gen::<f64>();
    ((-u.ln() * mean).ceil() as Time).max(1)
}

/// Generate the deterministic fault timeline for `cluster` under `cfg`.
///
/// Event order within a slot is deterministic: individual server events
/// (ascending server id), then rack blackouts (ascending rack id), then
/// fail-slow onsets (ascending server id), preserved by the timeline's
/// stable sort.
pub fn generate(cluster: &ClusterSpec, cfg: &FaultConfig) -> FaultTimeline {
    let mut events: Vec<TimedFault> = Vec::new();

    // Independent per-server crash/repair renewal process.
    if cfg.crash_rate > 0.0 {
        let mean_gap = 1.0 / cfg.crash_rate;
        for sid in 0..cluster.len() {
            let mut rng = SmallRng::seed_from_u64(mix(cfg.seed, sid as u64, 0xC4A5));
            let mut t: Time = 0;
            loop {
                t = t.saturating_add(exp_slots(&mut rng, mean_gap));
                if t >= cfg.horizon {
                    break;
                }
                let repair = exp_slots(&mut rng, cfg.mean_repair);
                let s = ServerId(sid as u32);
                events.push(TimedFault {
                    at: t,
                    event: FaultEvent::Crash(s),
                });
                events.push(TimedFault {
                    at: t + repair,
                    event: FaultEvent::Restore(s),
                });
                // The server cannot crash again while it is already down.
                t += repair;
            }
        }
    }

    // Correlated rack blackouts: a fixed window over every server of the
    // rack. Overlap with individual crashes is fine — the engine's
    // down-count keeps the server offline until *both* restores.
    if cfg.rack_blackout_rate > 0.0 {
        let mut racks: Vec<u32> = cluster.servers().iter().map(|s| s.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        let mean_gap = 1.0 / cfg.rack_blackout_rate;
        for rack in racks {
            let mut rng = SmallRng::seed_from_u64(mix(cfg.seed, rack as u64, 0xB1AC));
            let mut t: Time = 0;
            loop {
                t = t.saturating_add(exp_slots(&mut rng, mean_gap));
                if t >= cfg.horizon {
                    break;
                }
                for (sid, srv) in cluster.servers().iter().enumerate() {
                    if srv.rack == rack {
                        let s = ServerId(sid as u32);
                        events.push(TimedFault {
                            at: t,
                            event: FaultEvent::Crash(s),
                        });
                        events.push(TimedFault {
                            at: t + cfg.rack_blackout_len,
                            event: FaultEvent::Restore(s),
                        });
                    }
                }
                t += cfg.rack_blackout_len;
            }
        }
    }

    // Persistent fail-slow onsets.
    if cfg.fail_slow_frac > 0.0 {
        for sid in 0..cluster.len() {
            let mut rng = SmallRng::seed_from_u64(mix(cfg.seed, sid as u64, 0xFA11));
            if rng.gen::<f64>() < cfg.fail_slow_frac {
                let at = rng.gen_range(0..cfg.horizon.max(1));
                events.push(TimedFault {
                    at,
                    event: FaultEvent::Degrade(ServerId(sid as u32), cfg.fail_slow_factor),
                });
            }
        }
    }

    FaultTimeline::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::paper_30_node()
    }

    #[test]
    fn zero_rates_give_empty_timeline() {
        let cfg = FaultConfig::new(42, 100_000);
        assert!(cfg.is_zero());
        assert!(generate(&cluster(), &cfg).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::new(7, 20_000)
            .with_crash_rate(5e-4, 100.0)
            .with_rack_blackouts(1e-4, 200)
            .with_fail_slow(0.2, 0.5);
        let a = generate(&cluster(), &cfg);
        let b = generate(&cluster(), &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // A different seed reshuffles the schedule.
        let c = generate(&cluster(), &FaultConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn crashes_are_paired_and_inside_horizon() {
        let cfg = FaultConfig::new(3, 50_000)
            .with_crash_rate(1e-3, 80.0)
            .with_rack_blackouts(5e-5, 300);
        let tl = generate(&cluster(), &cfg);
        assert!(tl.crash_count() > 0);
        let n = cluster().len();
        let mut balance = vec![0i64; n];
        for e in tl.events() {
            match e.event {
                FaultEvent::Crash(s) => {
                    assert!(e.at < cfg.horizon, "crash after horizon");
                    balance[s.0 as usize] += 1;
                }
                FaultEvent::Restore(s) => {
                    balance[s.0 as usize] -= 1;
                    // The timeline is time-sorted, so the running balance
                    // can never go negative: every restore follows its
                    // crash (the engine asserts exactly this).
                    assert!(balance[s.0 as usize] >= 0, "restore before crash");
                }
                FaultEvent::Degrade(..) => {}
            }
        }
        assert!(balance.iter().all(|&b| b == 0), "unpaired crash");
    }

    #[test]
    fn rack_blackout_takes_down_whole_rack() {
        let cfg = FaultConfig::new(11, 40_000).with_rack_blackouts(2e-4, 150);
        let spec = cluster();
        let tl = generate(&spec, &cfg);
        assert!(tl.crash_count() > 0);
        // Every crash slot must cover one entire rack.
        let mut by_slot: std::collections::BTreeMap<Time, Vec<u32>> = Default::default();
        for e in tl.events() {
            if let FaultEvent::Crash(s) = e.event {
                by_slot.entry(e.at).or_default().push(s.0);
            }
        }
        for (at, mut servers) in by_slot {
            servers.sort_unstable();
            let rack = spec.server(ServerId(servers[0])).rack;
            let mut expected: Vec<u32> = spec
                .servers()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.rack == rack)
                .map(|(i, _)| i as u32)
                .collect();
            expected.sort_unstable();
            assert_eq!(servers, expected, "partial blackout at slot {at}");
        }
    }

    #[test]
    fn fail_slow_covers_sampled_fraction() {
        let spec = cluster();
        let all = FaultConfig::new(5, 10_000).with_fail_slow(1.0, 0.6);
        let tl = generate(&spec, &all);
        let degrades: Vec<_> = tl
            .events()
            .iter()
            .filter_map(|e| match e.event {
                FaultEvent::Degrade(s, f) => Some((s, f)),
                _ => None,
            })
            .collect();
        assert_eq!(degrades.len(), spec.len(), "frac 1.0 hits every server");
        assert!(degrades.iter().all(|&(_, f)| f == 0.6));
        let none = FaultConfig::new(5, 10_000).with_fail_slow(0.0, 0.6);
        assert!(generate(&spec, &none).is_empty());
    }

    #[test]
    fn higher_rate_means_more_crashes() {
        let spec = cluster();
        let lo = generate(
            &spec,
            &FaultConfig::new(9, 30_000).with_crash_rate(1e-4, 50.0),
        );
        let hi = generate(
            &spec,
            &FaultConfig::new(9, 30_000).with_crash_rate(2e-3, 50.0),
        );
        assert!(hi.crash_count() > lo.crash_count());
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = FaultConfig::new(1, 2_000)
            .with_crash_rate(1e-3, 40.0)
            .with_fail_slow(0.1, 0.5);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
