//! §6.3.3 — scheduling overhead.
//!
//! The paper: *"the scheduler takes less than 20 ms to make scheduling
//! decisions for all jobs in our private cluster"* and *"scheduling 1K
//! jobs to 30K machines costs less than 50 ms"*.
//!
//! Two benchmarks:
//! * `transient_N_jobs` — Algorithm 1 priority recomputation (what runs
//!   on every arrival);
//! * `schedule_pass_30k_servers_1k_jobs` — one full DollyMP placement
//!   pass over a 30 000-server view with 1 000 active jobs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dollymp_cluster::prelude::*;
use dollymp_cluster::view::ClusterView;
use dollymp_core::prelude::*;
use dollymp_core::speedup::SpeedupFn;
use std::collections::BTreeMap;
use std::hint::black_box;

fn transient_inputs(n: usize) -> Vec<TransientJob> {
    (0..n)
        .map(|i| TransientJob {
            id: JobId(i as u64),
            volume: 0.1 + (i % 97) as f64 * 0.37,
            etime: 1.0 + (i % 53) as f64 * 1.9,
            dominant: 0.0001 + (i % 11) as f64 * 0.0003,
            speedup: SpeedupFn::Pareto { alpha: 2.0 },
        })
        .collect()
}

fn bench_transient(c: &mut Criterion) {
    let cfg = TransientConfig::default();
    for &n in &[100usize, 1000] {
        let jobs = transient_inputs(n);
        c.bench_function(&format!("transient_{n}_jobs"), |b| {
            b.iter(|| transient_schedule(black_box(&jobs), black_box(&cfg)))
        });
    }
}

fn bench_schedule_pass(c: &mut Criterion) {
    let servers = 30_000u32;
    let njobs = 1_000u64;
    let cluster = ClusterSpec::google_like(servers, 1);
    let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);

    // 1 000 active jobs, each with a handful of ready tasks.
    let mut jobs: BTreeMap<JobId, dollymp_cluster::state::JobState> = BTreeMap::new();
    for i in 0..njobs {
        let spec = JobSpec::single_phase(
            JobId(i),
            4,
            Resources::new(1.0 + (i % 3) as f64, 2.0),
            10.0 + (i % 7) as f64,
            4.0,
        );
        let tables = vec![vec![10.0; 4]];
        jobs.insert(
            JobId(i),
            dollymp_cluster::state::JobState::new(spec, tables),
        );
    }

    c.bench_function("schedule_pass_30k_servers_1k_jobs", |b| {
        b.iter_batched(
            || {
                let mut s = dollymp_schedulers::DollyMP::new();
                // An arrival marks the priorities stale; the timed pass
                // then runs Algorithm 1 before placing.
                let view = ClusterView::new(0, &cluster, &free, &jobs);
                s.on_job_arrival(&view, JobId(0));
                s
            },
            |mut s| {
                let view = ClusterView::new(0, &cluster, &free, &jobs);
                black_box(s.schedule(&view))
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_transient, bench_schedule_pass
}
criterion_main!(benches);
