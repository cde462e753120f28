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

// Calibration: this workload's generator at 750 and at 1 500 jobs with
// `mean_gap_slots` 0.3, and at 1 500 jobs with `mean_gap_slots` 3.0,
// makes 10 562, 19 764 and 35 020 allocations over 950, 1 681 and
// 4 155 decision points. The two 0.3 runs alone cannot split the terms,
// since their decision points grow almost with the job count; the
// sparse run more than doubles the decision points per job. The
// three-point least-squares fit is 6.27 allocations per job plus 6.17
// per decision point, and each run lies within 0.1 % of it. (A gap of
// 1.0 separates nothing: 1 768 decision points at 1 500 jobs.) `PER_JOB`
// is 1.5× its fit, rounded up; `PER_DECISION_POINT` is 1.13× its fit.
// The budget is 1.35× the dense run's count and 1.26× the sparse run's.
// A job state with one `Vec` of copies per task, refreshed with three
// `Vec`s per job per Algorithm 1 run, makes 307 260 allocations in the
// dense run, 11.5× its budget.

/// Allocations allowed per job of the run.
const PER_JOB: u64 = 10;
/// Allocations allowed per decision point of the run.
const PER_DECISION_POINT: u64 = 7;

/// One DollyMP² run of this workload's generator: its job count,
/// decision points and allocations.
fn counted_run(njobs: usize, mean_gap_slots: f64) -> (u64, u64, u64) {
    let cluster = ClusterSpec::google_like(30, 18);
    let jobs = generate_google(&GoogleConfig {
        njobs,
        mean_gap_slots,
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
    (njobs, report.decision_points, allocations)
}

#[test]
fn dollymp2_run_allocates_per_job_and_per_decision_point_only() {
    // A dense and a sparse arrival stream: the budget must hold for both
    // splits of the run into jobs and decision points.
    for mean_gap_slots in [0.3, 3.0] {
        let (njobs, decision_points, allocations) = counted_run(1500, mean_gap_slots);
        let budget = PER_JOB * njobs + PER_DECISION_POINT * decision_points;
        eprintln!(
            "mean gap {mean_gap_slots}: jobs {njobs}, decision points {decision_points}, \
             allocations {allocations}, budget {budget}"
        );
        assert!(
            allocations <= budget,
            "mean gap {mean_gap_slots}: {allocations} allocations over the budget of {budget} \
             ({PER_JOB} per job × {njobs} jobs + {PER_DECISION_POINT} per decision point × \
             {decision_points} decision points)"
        );
    }
}
