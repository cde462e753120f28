//! One-shot §6.3.3 overhead probe: times one decision point — the
//! Algorithm 1 refresh an arrival triggers plus one full Algorithm 2
//! placement pass — for 1 000 jobs over 30 000 servers, without the
//! Criterion harness (see `benches/sched_overhead` for statistically
//! rigorous numbers). The pass's own stage split attributes the time.

use dollymp_bench::runner::{cell_seed, run_matrix, Parallelism};
use dollymp_cluster::prelude::*;
use dollymp_cluster::view::ClusterView;
use dollymp_core::prelude::*;
use std::collections::BTreeMap;

/// Base seed; each clone-budget cell derives its own job-mix stream via
/// the standard `cell_seed` scheme.
const PROBE_SEED: u64 = 63;

fn probe_jobs(seed: u64) -> BTreeMap<JobId, dollymp_cluster::state::JobState> {
    let mut jobs = BTreeMap::new();
    for i in 0..1000u64 {
        // Deterministic per-job variation drawn from the cell's seed so
        // different cells probe different (but reproducible) job mixes.
        let v = cell_seed(seed, i as usize);
        let spec = JobSpec::single_phase(
            JobId(i),
            4,
            Resources::new(1.0 + (v % 3) as f64, 2.0),
            10.0 + (v % 7) as f64,
            4.0,
        );
        jobs.insert(
            JobId(i),
            dollymp_cluster::state::JobState::new(spec, vec![vec![10.0; 4]]),
        );
    }
    jobs
}

fn main() {
    let cluster = ClusterSpec::google_like(30_000, 1);
    println!("§6.3.3 probe — 1 000 jobs × 30 000 servers (paper: < 50 ms)\n");
    // Sequential always: this probe times wall-clock; parallel cells
    // would contend for cores.
    let clone_budgets = [0u32, 2];
    let lines = run_matrix(&clone_budgets, Parallelism::Sequential, |i, &clones| {
        // Built per cell: the index's interior caches are not `Sync`.
        let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
        let jobs = probe_jobs(cell_seed(PROBE_SEED, i));
        let mut s = dollymp_schedulers::DollyMP::with_clones(clones);
        let view = ClusterView::new(0, &cluster, &free, &jobs);
        s.on_job_arrival(&view, JobId(0));
        let t0 = std::time::Instant::now();
        let batch = s.schedule(&view);
        let t_pass = t0.elapsed();
        let span = s.pass_span().expect("DollyMP reports its stages");
        format!(
            "dollymp{clones}: decision point {t_pass:?} = Algorithm 1 refresh + grouping \
             {:?}, placement {:?} ({} assignments)",
            std::time::Duration::from_nanos(span.prepare_ns),
            std::time::Duration::from_nanos(span.placement_ns),
            batch.len()
        )
    });
    for line in lines {
        println!("{line}");
    }
}
