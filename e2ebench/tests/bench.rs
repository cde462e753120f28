//! The benchmark's own checks: its decorator, percentile helper, span
//! arithmetic and seeding behave as the measurements assume.

use dollymp_cluster::prelude::*;
use dollymp_e2ebench::stats::{nearest_rank, samples_beyond};
use dollymp_e2ebench::timing::{self_times, Layer, Span};
use dollymp_e2ebench::workload::{by_name, Inputs};
use dollymp_e2ebench::{check_outputs, fingerprint, scrub, simulate, simulate_bare};

/// One instance of a few hundred jobs: seconds in a debug build.
fn small(name: &str, jobs: usize, seed: u64) -> Inputs {
    let (mut instances, _) = by_name(name)
        .expect("known workload")
        .resized(1, jobs)
        .generate(seed);
    instances.remove(0)
}

fn json(report: &SimReport) -> String {
    serde_json::to_string(&scrub(report)).expect("report serializes")
}

#[test]
fn decorator_is_transparent() {
    for inputs in [
        small("paper30_queue", 300, 3),
        small("faults1k_churn", 150, 3),
    ] {
        let bare = simulate_bare(&inputs).expect("bare run completes");
        for trace in [false, true] {
            let run = simulate(&inputs, trace, None);
            let wrapped = run.result.expect("wrapped run completes");
            assert_eq!(json(&bare), json(&wrapped), "trace={trace}");
        }
    }
}

#[test]
fn fault_workload_exercises_the_fault_hooks() {
    let inputs = small("faults1k_churn", 150, 3);
    let run = simulate(&inputs, false, None);
    let report = run.result.expect("run completes");
    assert!(report.faults.server_crashes > 0);
    assert!(run.counts.fault_hooks > 0);
}

#[test]
fn percentile_keeps_ten_samples_beyond_p95() {
    // 229 decision points, one trace3k_burst instance, is below every
    // sample set the benchmark reports a p95 over; larger sets keep more.
    for n in [229, 230, 259, 337, 500, 777, 36_247] {
        assert!(samples_beyond(n, 0.95) >= 10, "n={n}");
    }
    assert!(samples_beyond(199, 0.95) < 10);
}

#[test]
fn percentile_matches_the_engine_convention() {
    let samples: Vec<u64> = (0..229u64).map(|i| (i * 7919) % 1000 + 1).collect();
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let engine = SchedOverhead::from_samples(&samples);
    assert_eq!(nearest_rank(&sorted, 0.5), engine.p50_ns);
    assert_eq!(nearest_rank(&sorted, 0.99), engine.p99_ns);
    assert!(sorted.contains(&nearest_rank(&sorted, 0.95)));
}

#[test]
fn self_time_is_never_negative_and_sums_to_the_simulate_span() {
    let inputs = small("faults1k_churn", 150, 5);
    let run = simulate(&inputs, true, None);
    run.result.expect("run completes");
    let sim: Vec<&Span> = run
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Simulate)
        .collect();
    assert_eq!(sim.len(), 1);
    let per_span = self_times(&run.spans);
    assert_eq!(per_span.len(), run.spans.len());
    assert!(per_span.iter().all(|&(_, ns)| ns >= 0));
    let total: i64 = per_span.iter().map(|&(_, ns)| ns).sum();
    assert_eq!(total, sim[0].dur_ns() as i64);
}

#[test]
fn segments_cover_the_simulate_call() {
    let inputs = small("paper30_queue", 300, 4);
    let run = simulate(&inputs, true, None);
    let report = run.result.expect("run completes");
    assert_eq!(run.segments.len() as u64, report.decision_points + 1);
    let sim = run
        .spans
        .iter()
        .find(|s| s.layer == Layer::Simulate)
        .expect("simulate span");
    assert_eq!(run.segments.iter().sum::<u64>(), sim.dur_ns());
}

#[test]
fn self_time_subtracts_only_direct_children() {
    let span = |layer, start_ns, end_ns| Span {
        layer,
        start_ns,
        end_ns,
    };
    let spans = [
        span(Layer::Simulate, 0, 100),
        span(Layer::Arrival, 10, 30),
        span(Layer::Pass, 40, 90),
        span(Layer::FinishHook, 50, 60),
    ];
    let by_layer = |l: Layer| {
        self_times(&spans)
            .into_iter()
            .find(|(s, _)| s.layer == l)
            .map(|(_, ns)| ns)
    };
    assert_eq!(by_layer(Layer::Simulate), Some(30));
    assert_eq!(by_layer(Layer::Arrival), Some(20));
    assert_eq!(by_layer(Layer::Pass), Some(40));
    assert_eq!(by_layer(Layer::FinishHook), Some(10));
}

#[test]
fn same_seed_reproduces_and_other_seeds_are_accepted() {
    let run = |seed| {
        let inputs = small("paper30_queue", 300, seed);
        let report = simulate(&inputs, false, None)
            .result
            .expect("run completes");
        check_outputs(&inputs, &report).expect("outputs check");
        fingerprint(seed, &[report])
    };
    assert_eq!(run(7), run(7));
    let held_out = run(987_654_321);
    assert_ne!(run(7), held_out);
}
