//! Scale-out sweep of the DollyMP decision pass: servers ∈ {30K, 100K,
//! 300K} × pending jobs ∈ {1K, 10K}, writing `BENCH_scale.json` into the
//! current directory.
//!
//! Per cell the binary times the `Scheduler::schedule` pass under two
//! protocols and reports nearest-rank p50/p99/max for each:
//!
//! * **steady** (the headline, `pass_*` fields) — one scheduler reused
//!   across passes, so its scratch buffers persist exactly as they do
//!   across decision points inside a live `simulate` loop. This is the
//!   number comparable to the 3.26 ms reference: the pre-index
//!   scheduler kept no state between passes, so its cold and steady
//!   costs were the same thing.
//! * **cold** (`cold_pass_*` fields) — a fresh scheduler per sample,
//!   first pass timed; pays one-time scratch growth and the Algorithm 1
//!   refresh the arrival hook deferred to the pass — the §6.3.3
//!   per-decision-point cost — and is noticeably noisier. The steady
//!   protocol's warmup absorbs that one refresh. The pass's own stage
//!   split ([`Scheduler::pass_span`]) attributes the cold pass:
//!   `cold_prepare_p50_ns` is Algorithm 1 plus grouping,
//!   `cold_placement_p50_ns` is Algorithm 2's placement.
//!
//! Two allocator-side gauges come from a counting `#[global_allocator]`:
//!
//! * `peak_alloc_bytes` — high-water mark of live heap bytes across the
//!   cell (cluster + job state + index + scheduler), the RSS proxy;
//! * `steady_pass_alloc_bytes` — bytes allocated *during* one steady
//!   pass, minus the returned batch itself. The scratch reuse makes
//!   this 0: the decision loop is allocation-free at steady state.
//!
//! Cells run **sequentially** (through the same `bench::runner` API the
//! parallel fig bins use) so timings never contend for cores.
//!
//! `--smoke` runs only the 30K × 1K cell and exits non-zero if its
//! steady p99 regresses to more than 2× the committed `BENCH_scale.json`
//! reference — the CI guard for the scale-out hot path — or if its cold
//! p99 exceeds the paper's §6.3.3 budget of 50 ms for 1K jobs on 30K
//! servers.

use dollymp_bench::runner::{best_of_smoke, json_obj as obj, run_matrix, Parallelism};
use dollymp_cluster::prelude::*;
use dollymp_cluster::view::ClusterView;
use dollymp_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The 30K × 1K pass as measured *before* the capacity-index/scratch-
/// reuse work (3.26 ms) — the ≥5× target baseline of that work.
/// Hardcoded: the artifact documents a before/after and must not drift
/// with every run.
const REFERENCE_PASS_NS: u64 = 3_261_401;

/// The paper's §6.3.3 bound on one decision pass for 1K jobs on 30K
/// servers (50 ms), gated absolutely on the smoke cell's cold p99.
const PAPER_BUDGET_NS: u64 = 50_000_000;

/// System allocator wrapped with live/peak byte counters. `dealloc` can
/// momentarily race `fetch_max` into a slightly stale peak under
/// threads, but the bench allocates from one thread while timing.
struct CountingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed)
                + layout.size() as u64;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new > old {
                let live = LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed) + (new - old);
                PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
                ALLOC_BYTES.fetch_add(new - old, Ordering::Relaxed);
            } else {
                LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Reset the peak gauge to the current live level.
fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    servers: u32,
    jobs: u64,
}

#[derive(Debug, Clone, Copy)]
struct CellResult {
    cell: Cell,
    /// Steady-state pass (scratch reused across passes) — the headline.
    steady: SchedOverhead,
    /// Cold first pass of a fresh scheduler.
    cold: SchedOverhead,
    /// p50 of the cold pass's Algorithm 1 + grouping stage.
    cold_prepare_p50_ns: u64,
    /// p50 of the cold pass's Algorithm 2 placement stage.
    cold_placement_p50_ns: u64,
    assignments: usize,
    peak_alloc_bytes: u64,
    steady_pass_alloc_bytes: u64,
}

/// Measure one cell: build the cluster/job state once, then time the
/// pass under both protocols (see the module docs).
fn measure_cell(cell: Cell, warmup: usize, timed_iters: usize) -> CellResult {
    reset_peak();
    let cluster = ClusterSpec::google_like(cell.servers, 1);
    let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
    let jobs: JobTable = (0..cell.jobs)
        .map(|i| {
            let spec = JobSpec::single_phase(
                JobId(i),
                4,
                Resources::new(1.0 + (i % 3) as f64, 2.0),
                10.0 + (i % 7) as f64,
                4.0,
            );
            JobState::new(spec, vec![10.0; 4])
        })
        .collect();
    let view = ClusterView::new(0, &cluster, &free, &jobs);

    // Cold protocol: fresh scheduler per sample, first pass timed.
    let mut cold_samples = Vec::with_capacity(timed_iters);
    let mut prepare_samples = Vec::with_capacity(timed_iters);
    let mut placement_samples = Vec::with_capacity(timed_iters);
    let mut assignments = 0;
    for it in 0..warmup + timed_iters {
        let mut s = dollymp_schedulers::DollyMP::new();
        s.on_job_arrival(&view, JobId(0));
        let t0 = Instant::now();
        let batch = black_box(s.schedule(&view));
        let ns = t0.elapsed().as_nanos() as u64;
        assert!(!batch.is_empty(), "placement pass placed nothing");
        if it >= warmup {
            let span = s.pass_span().expect("DollyMP reports its stages");
            cold_samples.push(ns);
            prepare_samples.push(span.prepare_ns);
            placement_samples.push(span.placement_ns);
            assignments = batch.len();
        }
    }

    // Steady protocol: one scheduler, scratch persists across passes —
    // as it does across decision points inside `simulate`.
    let mut s = dollymp_schedulers::DollyMP::new();
    s.on_job_arrival(&view, JobId(0));
    let mut steady_samples = Vec::with_capacity(timed_iters);
    let mut steady_pass_alloc_bytes = 0;
    for it in 0..warmup + timed_iters {
        let alloc0 = ALLOC_BYTES.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let batch = black_box(s.schedule(&view));
        let ns = t0.elapsed().as_nanos() as u64;
        let pass_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - alloc0;
        if it >= warmup {
            steady_samples.push(ns);
            steady_pass_alloc_bytes = pass_bytes.saturating_sub(approx_batch_bytes(&batch));
        }
    }

    CellResult {
        cell,
        steady: SchedOverhead::from_samples(&steady_samples),
        cold: SchedOverhead::from_samples(&cold_samples),
        cold_prepare_p50_ns: SchedOverhead::from_samples(&prepare_samples).p50_ns,
        cold_placement_p50_ns: SchedOverhead::from_samples(&placement_samples).p50_ns,
        assignments,
        peak_alloc_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        steady_pass_alloc_bytes,
    }
}

/// Heap bytes of the returned batch itself (the one allocation a steady
/// pass is allowed), so `steady_pass_alloc_bytes` isolates everything
/// else.
fn approx_batch_bytes(batch: &Vec<Assignment>) -> u64 {
    (batch.capacity() * std::mem::size_of::<Assignment>()) as u64
}

fn cell_json(r: &CellResult) -> serde_json::Value {
    obj(vec![
        ("servers", serde_json::Value::UInt(r.cell.servers as u64)),
        ("jobs", serde_json::Value::UInt(r.cell.jobs)),
        ("pass_p50_ns", serde_json::Value::UInt(r.steady.p50_ns)),
        ("pass_p99_ns", serde_json::Value::UInt(r.steady.p99_ns)),
        ("pass_max_ns", serde_json::Value::UInt(r.steady.max_ns)),
        ("cold_pass_p50_ns", serde_json::Value::UInt(r.cold.p50_ns)),
        ("cold_pass_p99_ns", serde_json::Value::UInt(r.cold.p99_ns)),
        (
            "cold_prepare_p50_ns",
            serde_json::Value::UInt(r.cold_prepare_p50_ns),
        ),
        (
            "cold_placement_p50_ns",
            serde_json::Value::UInt(r.cold_placement_p50_ns),
        ),
        ("assignments", serde_json::Value::UInt(r.assignments as u64)),
        (
            "peak_alloc_bytes",
            serde_json::Value::UInt(r.peak_alloc_bytes),
        ),
        (
            "steady_pass_alloc_bytes",
            serde_json::Value::UInt(r.steady_pass_alloc_bytes),
        ),
    ])
}

/// Pull `pass_p99_ns` of the 30K × 1K cell out of a committed
/// `BENCH_scale.json`, if present and well-formed.
fn committed_smoke_p99(text: &str) -> Option<u64> {
    let root: serde_json::Value = serde_json::from_str(text).ok()?;
    let cells = root.get("cells")?.as_array()?;
    cells.iter().find_map(|c| {
        let servers = c.get("servers")?.as_u64()?;
        let jobs = c.get("jobs")?.as_u64()?;
        if servers == 30_000 && jobs == 1_000 {
            c.get("pass_p99_ns")?.as_u64()
        } else {
            None
        }
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cells: Vec<Cell> = if smoke {
        vec![Cell {
            servers: 30_000,
            jobs: 1_000,
        }]
    } else {
        let mut v = Vec::new();
        for &servers in &[30_000u32, 100_000, 300_000] {
            for &jobs in &[1_000u64, 10_000] {
                v.push(Cell { servers, jobs });
            }
        }
        v
    };

    // Burn-in: ramp the CPU governor and fault in heap pages before any
    // timed work, otherwise the first cell measures the machine waking
    // up rather than the scheduler (observed as the 30K cell timing 2×
    // slower than the 100K cell that ran after it).
    black_box(measure_cell(
        Cell {
            servers: 30_000,
            jobs: 1_000,
        },
        0,
        8,
    ));

    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "servers",
        "jobs",
        "p50_ns",
        "p99_ns",
        "cold_p50_ns",
        "cold_p99_ns",
        "prepare_ns",
        "placement_ns",
        "assign",
        "peak_alloc",
        "pass_alloc"
    );
    // Cells run sequentially — timing must not contend for cores. The
    // fewer iterations on the 10K-job cells keep the full sweep fast.
    // 101 timed samples per protocol: nearest-rank p99 then sits at
    // rank 100, so a single descheduling blip (common on shared hosts)
    // cannot inflate it the way it inflates a small-sample maximum.
    let results = run_matrix(&cells, Parallelism::Sequential, |_, &cell| {
        let (warmup, iters) = if cell.jobs >= 10_000 {
            (2, 101)
        } else {
            (5, 101)
        };
        let r = measure_cell(cell, warmup, iters);
        println!(
            "{:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10}",
            r.cell.servers,
            r.cell.jobs,
            r.steady.p50_ns,
            r.steady.p99_ns,
            r.cold.p50_ns,
            r.cold.p99_ns,
            r.cold_prepare_p50_ns,
            r.cold_placement_p50_ns,
            r.assignments,
            r.peak_alloc_bytes,
            r.steady_pass_alloc_bytes
        );
        r
    });

    if smoke {
        let Some(reference) = std::fs::read_to_string("BENCH_scale.json")
            .ok()
            .as_deref()
            .and_then(committed_smoke_p99)
        else {
            eprintln!("FAIL: no committed BENCH_scale.json with a 30K x 1K cell");
            std::process::exit(1);
        };
        // Best-of-3 against 2× the committed p99 (see
        // `runner::best_of_smoke`); attempt 1 reuses the sweep's own
        // measurement, retries re-measure the cell.
        let gate = best_of_smoke("30Kx1K steady p99", reference, 2, 3, |attempt| {
            if attempt == 1 {
                results[0].steady.p99_ns
            } else {
                measure_cell(cells[0], 5, 101).steady.p99_ns
            }
        });
        if gate.is_err() {
            eprintln!("FAIL: 30K-server pass p99 regressed more than 2x");
            std::process::exit(1);
        }
        let cold_p99 = results[0].cold.p99_ns;
        println!("30Kx1K cold p99 {cold_p99} ns vs the paper's {PAPER_BUDGET_NS} ns budget");
        if cold_p99 > PAPER_BUDGET_NS {
            eprintln!("FAIL: 30K-server cold pass p99 exceeds the paper's 50 ms budget");
            std::process::exit(1);
        }
        return;
    }

    let base = &results[0];
    assert_eq!((base.cell.servers, base.cell.jobs), (30_000, 1_000));
    let speedup = REFERENCE_PASS_NS as f64 / base.steady.p50_ns.max(1) as f64;
    // Sublinear growth: going 30K → 300K (10× servers) must cost < 10×
    // per pass at the same job count.
    let p50_at = |servers: u32, jobs: u64| {
        results
            .iter()
            .find(|r| r.cell.servers == servers && r.cell.jobs == jobs)
            .map(|r| r.steady.p50_ns)
            .unwrap_or(0)
    };
    let growth_10x = p50_at(300_000, 1_000) as f64 / base.steady.p50_ns.max(1) as f64;
    println!(
        "\n30K×1K steady p50 {} ns — {speedup:.2}x vs the {REFERENCE_PASS_NS} ns reference; \
         10x servers costs {growth_10x:.2}x per pass",
        base.steady.p50_ns
    );

    let report = obj(vec![
        (
            "protocol",
            serde_json::Value::Str(
                "DollyMP schedule pass per cell. pass_* = steady protocol \
                 (one scheduler, scratch persisted across passes, as in the \
                 live engine; comparable to the reference, whose scheduler \
                 kept no state so cold == steady). cold_pass_* = fresh \
                 scheduler per sample, so its first pass includes the \
                 Algorithm 1 refresh an arrival defers to the next pass; \
                 cold_prepare_* / cold_placement_* split it into \
                 Algorithm 1 + grouping and Algorithm 2 placement. \
                 Nearest-rank percentiles"
                    .to_string(),
            ),
        ),
        (
            "reference_pass_ns",
            serde_json::Value::UInt(REFERENCE_PASS_NS),
        ),
        (
            "speedup_30k_vs_reference",
            serde_json::Value::Float((speedup * 100.0).round() / 100.0),
        ),
        (
            "growth_10x_servers",
            serde_json::Value::Float((growth_10x * 100.0).round() / 100.0),
        ),
        (
            "cells",
            serde_json::Value::Array(results.iter().map(cell_json).collect()),
        ),
    ]);
    let path = "BENCH_scale.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write BENCH_scale.json");
    println!("wrote {path}");
}
