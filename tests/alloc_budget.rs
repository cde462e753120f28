//! Allocation budget of a whole simulation. A DollyMP² run may allocate a
//! bounded number of times per job (admission, the job's flat state, its
//! report row) and per decision point (the batch, an Algorithm 1 refresh,
//! finish buckets), but never per job per decision point: that term grows
//! with the queue depth times the run length.
//!
//! This file is its own test binary, so its counting allocator sees only
//! this test's run.

use dollymp::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation; forwards to `System`.
struct CountingAlloc;

/// Allocations and reallocations so far. A statistic that publishes no
/// other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only
// observes calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Calibration: this workload's generator at 750 and at 1 500 jobs fits
// 6.24 allocations per job plus 6.19 per decision point (10 559 and
// 19 763 allocations). `PER_JOB` adds 1.5× headroom to its fit;
// `PER_DECISION_POINT` stays at 7 (1.13× its fit), from an earlier fit
// of 13.7 per job plus 4.2 per decision point, before an Algorithm 1
// refresh stopped allocating. The budget is 1.35× this run's count
// (1.34× at 750 jobs). A job state with one `Vec` of copies per task,
// refreshed with three `Vec`s per job per Algorithm 1 run, makes
// 307 260 allocations here, 11.5× the budget.

/// Allocations allowed per job of the run.
const PER_JOB: u64 = 10;
/// Allocations allowed per decision point of the run.
const PER_DECISION_POINT: u64 = 7;

#[test]
fn dollymp2_run_allocates_per_job_and_per_decision_point_only() {
    let cluster = ClusterSpec::google_like(30, 18);
    let jobs = generate_google(&GoogleConfig {
        njobs: 1500,
        mean_gap_slots: 0.3,
        seed: 18,
        ..Default::default()
    });
    let njobs = jobs.len() as u64;
    let sampler = DurationSampler::new(18, StragglerModel::google_traces());
    let mut scheduler = DollyMP::new();
    let cfg = EngineConfig::default();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = simulate(&cluster, jobs, &sampler, &mut scheduler, &cfg);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(report.jobs.len() as u64, njobs);
    let budget = PER_JOB * njobs + PER_DECISION_POINT * report.decision_points;
    eprintln!(
        "jobs {njobs}, decision points {}, allocations {allocations}, budget {budget}",
        report.decision_points
    );
    assert!(
        allocations <= budget,
        "{allocations} allocations over the budget of {budget} \
         ({PER_JOB} per job × {njobs} jobs + {PER_DECISION_POINT} per decision point × {} \
         decision points)",
        report.decision_points
    );
}
