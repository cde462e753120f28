//! Equivalence pin for the hierarchical free-capacity index (the
//! scale-out tentpole): every scheduler driven through the segment-tree
//! query path must produce a `SimReport` **byte-identical** to the
//! legacy linear scan, with and without fault timelines, with
//! utilization sampling on.
//!
//! `LinearQueriesGuard` flips the index's thread-local escape hatch so
//! all first-fit/best-fit/max-free queries fall back to a linear walk of
//! the same per-server data; placements, commits, and bookkeeping are
//! unchanged. The tree is therefore a pure query accelerator — any
//! divergence caught here is an index bug, never an acceptable
//! approximation.

use dollymp::prelude::*;
use dollymp_cluster::capacity::LinearQueriesGuard;
use proptest::prelude::*;

mod common;
use common::{fault_timeline, workload};

fn run(name: &str, seed: u64, with_faults: bool, linear: bool) -> SimReport {
    let cluster = ClusterSpec::homogeneous(6, 6.0, 12.0);
    let jobs = workload(seed, 10);
    let faults = if with_faults {
        fault_timeline(seed, 6, 60)
    } else {
        FaultTimeline::empty()
    };
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let cfg = EngineConfig {
        record_utilization: true,
        ..EngineConfig::default()
    };
    let mut s = dollymp::schedulers::by_name(name).expect("known policy");
    let report = if linear {
        let _guard = LinearQueriesGuard::new();
        simulate_with_faults(&cluster, jobs, &sampler, s.as_mut(), &cfg, &faults)
    } else {
        simulate_with_faults(&cluster, jobs, &sampler, s.as_mut(), &cfg, &faults)
    };
    report.scrubbed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole's correctness bar, per scheduler family: DollyMP
    /// with and without cloning, plain FIFO first-fit, and the Tetris
    /// packer — indexed vs. linear, faulty and fault-free.
    #[test]
    fn index_and_linear_paths_agree(seed in 0u64..10_000) {
        for name in ["dollymp2", "dollymp0", "fifo", "tetris"] {
            for with_faults in [false, true] {
                let indexed = run(name, seed, with_faults, false);
                let linear = run(name, seed, with_faults, true);
                prop_assert_eq!(
                    &indexed, &linear,
                    "{} (faults={}) diverged between the segment-tree and \
                     linear query paths", name, with_faults
                );
                // Byte-identical, not just structurally equal.
                prop_assert_eq!(
                    serde_json::to_string(&indexed).expect("serializes"),
                    serde_json::to_string(&linear).expect("serializes"),
                    "{} (faults={}): serialized reports differ", name, with_faults
                );
            }
        }
    }
}

/// The same pin on the paper-shaped heterogeneous cluster with a larger
/// DollyMP² run — deeper tree, mixed server sizes, utilization sampling.
#[test]
fn paper_cluster_dollymp_agrees_on_both_paths() {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = workload(4242, 40);
    let sampler = DurationSampler::new(4242, StragglerModel::google_traces());
    let cfg = EngineConfig {
        record_utilization: true,
        ..EngineConfig::default()
    };
    let mut a = dollymp::schedulers::DollyMP::new();
    let indexed = simulate(&cluster, jobs.clone(), &sampler, &mut a, &cfg).scrubbed();
    let mut b = dollymp::schedulers::DollyMP::new();
    let linear = {
        let _guard = LinearQueriesGuard::new();
        simulate(&cluster, jobs, &sampler, &mut b, &cfg).scrubbed()
    };
    assert_eq!(indexed, linear);
    assert!(
        !indexed.utilization.is_empty(),
        "utilization sampling was on"
    );
}
