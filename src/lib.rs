//! # dollymp
//!
//! Umbrella crate for the **DollyMP** reproduction — *"Multi Resource
//! Scheduling with Task Cloning in Heterogeneous Clusters"* (Xu, Liu,
//! Lau — ICPP 2022) — re-exporting the full stack:
//!
//! | Layer | Crate | Re-export |
//! |---|---|---|
//! | Scheduling mathematics (Algorithm 1/2, speedup models, theory) | `dollymp-core` | [`core`] |
//! | Cluster simulator (slotted engine, stragglers, clones) | `dollymp-cluster` | [`cluster`] |
//! | Fault-schedule generators (crashes, blackouts, fail-slow) | `dollymp-faults` | [`faults`] |
//! | Workload generators (WordCount/PageRank, Google-like traces) | `dollymp-workload` | [`workload`] |
//! | Schedulers (DollyMP^r, Tetris, DRF, Capacity, Carbyne, SRPT, SVF) | `dollymp-schedulers` | [`schedulers`] |
//! | YARN-like control plane (RM/AM, estimation, locality) | `dollymp-yarn` | [`yarn`] |
//!
//! ## Five-minute tour
//!
//! ```
//! use dollymp::prelude::*;
//!
//! // The paper's 30-node heterogeneous cluster (§6.1).
//! let cluster = ClusterSpec::paper_30_node();
//!
//! // A small WordCount/PageRank mix (§6.2's light-load suite, scaled).
//! let jobs = dollymp::workload::suite::light_load(42, 20); // 5 jobs
//!
//! // Paired stochastic durations: same seed ⇒ same task durations for
//! // every scheduler.
//! let sampler = DurationSampler::new(42, StragglerModel::ParetoFit);
//!
//! // Run DollyMP² and the Capacity baseline on identical inputs.
//! let mut dollymp = DollyMP::new();
//! let r1 = simulate(&cluster, jobs.clone(), &sampler, &mut dollymp, &EngineConfig::default());
//! let mut capacity = CapacityScheduler::new();
//! let r2 = simulate(&cluster, jobs, &sampler, &mut capacity, &EngineConfig::default());
//!
//! assert_eq!(r1.jobs.len(), r2.jobs.len());
//! println!("DollyMP² flowtime {} vs Capacity {}", r1.total_flowtime(), r2.total_flowtime());
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries regenerating every figure of
//! the paper's evaluation (EXPERIMENTS.md records the outcomes).

#![warn(clippy::all)]

pub use dollymp_cluster as cluster;
pub use dollymp_core as core;
pub use dollymp_faults as faults;
pub use dollymp_schedulers as schedulers;
pub use dollymp_workload as workload;
pub use dollymp_yarn as yarn;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dollymp_cluster::prelude::*;
    pub use dollymp_core::prelude::*;
    pub use dollymp_faults::FaultConfig;
    pub use dollymp_schedulers::{
        by_name, engine_cfg_for, CapacityScheduler, Carbyne, DollyMP, Drf, PriorityScheduler,
        Tetris,
    };
    pub use dollymp_workload::{generate_google, GoogleConfig, Trace};
    pub use dollymp_yarn::{HistoryRegistry, YarnSystem};
}
