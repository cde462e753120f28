//! # dollymp-obs
//!
//! Observability consumers for the simulator's flight recorder
//! (`dollymp_cluster::trace`). The engine emits a typed event stream
//! through the `Recorder` trait; this crate turns that stream into
//! artifacts:
//!
//! * [`journal`] — the in-memory JSONL journal recorder, with a
//!   versioned header (scheduler, seed, FNV-1a config
//!   fingerprint, recording flags);
//! * [`registry`] — a [`registry::MetricsRegistry`] of counters, gauges
//!   and nearest-rank histograms over the stream;
//! * [`replay`] — feeds a journal into the engine's own report fold
//!   (`dollymp_cluster::metrics::ReportFold`) to re-derive the full
//!   `SimReport`, and byte-diffs it against the live report, returning a typed
//!   [`replay::Divergence`] on mismatch. This is the standing
//!   correctness oracle for engine/scheduler refactors: any change that
//!   perturbs observable behavior shows up as a replay divergence.
//!
//! The `dollymp-trace` binary exposes the same machinery on the command
//! line (inspect / summary / diff / verify).
//!
//! ## Quick start
//!
//! ```
//! use dollymp_cluster::prelude::*;
//! use dollymp_core::prelude::*;
//! use dollymp_obs::journal::Journal;
//! use dollymp_obs::replay;
//!
//! let cluster = ClusterSpec::homogeneous(4, 8.0, 16.0);
//! let jobs = vec![JobSpec::single_phase(JobId(0), 8, Resources::new(1.0, 2.0), 10.0, 3.0)];
//! let sampler = DurationSampler::new(42, StragglerModel::ParetoFit);
//! let mut policy = FifoFirstFit;
//! let cfg = EngineConfig::default();
//!
//! let mut journal = Journal::for_run("fifo", 42, &cfg, &cfg);
//! let faults = FaultTimeline::empty();
//! let report = try_simulate_with_faults_recorded(
//!     &cluster, jobs, &sampler, &mut policy, &cfg, &faults, &mut journal,
//! )
//! .expect("the run completes");
//! replay::verify(&journal, &report).expect("journal replays to the live report");
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod journal;
pub mod registry;
pub mod replay;

/// FNV-1a fingerprint of `(seed, config)` — 16 lowercase hex digits.
///
/// The hash runs over the seed's little-endian bytes followed by the
/// config's compact-JSON serialization, so any config change (and any
/// seed change) yields a different fingerprint. Journals store it in
/// their header; `dollymp-bench` stamps the same fingerprint into its
/// artifact files, which is how a journal is matched to the experiment
/// that produced it.
pub fn config_fingerprint<T: serde::Serialize>(seed: u64, cfg: &T) -> String {
    #[allow(clippy::expect_used)] // all config types in this workspace serialize infallibly
    let json = serde_json::to_string(cfg).expect("config serializes");
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in seed.to_le_bytes().iter().chain(json.as_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let cfg = ("paper_30_node", vec![0.5_f64]);
        let a = config_fingerprint(7, &cfg);
        assert_eq!(a, config_fingerprint(7, &cfg));
        assert_eq!(a.len(), 16);
        assert_ne!(a, config_fingerprint(8, &cfg));
        assert_ne!(a, config_fingerprint(7, &("paper_30_node", vec![0.0_f64])));
    }
}
