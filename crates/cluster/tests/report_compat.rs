//! Serde backward compatibility for [`SimReport`]: archived reports from
//! older builds must keep deserializing as the struct grows. Fields
//! added after the seed (`sched_overhead` in PR 1, `faults` in PR 2,
//! `guard` in PR 3) are all `#[serde(default)]`, so their absence means
//! "all zero" — exactly what those runs would have recorded. Fields
//! removed since (the copy `timeline`, now read from the journal) are
//! unknown keys, which deserialization skips.

use dollymp_cluster::prelude::*;

/// A report as the pre-fault-injection builds wrote it: no `faults`, no
/// `guard`, no `sched_overhead`.
const PRE_PR2_JSON: &str = r#"{
    "scheduler": "dollymp2",
    "jobs": [{
        "id": 0,
        "label": "wordcount",
        "arrival": 0,
        "first_start": 1,
        "finish": 21,
        "flowtime": 21,
        "running_time": 20,
        "tasks": 8,
        "clone_copies": 2,
        "tasks_cloned": 2,
        "usage": 3.5
    }],
    "makespan": 21,
    "decision_points": 4,
    "scheduling_ns": 1200,
    "utilization": []
}"#;

/// A report as PR 2 builds wrote it: `faults` present, `guard` absent.
const PRE_PR3_JSON: &str = r#"{
    "scheduler": "capacity",
    "jobs": [],
    "makespan": 0,
    "decision_points": 0,
    "scheduling_ns": 0,
    "sched_overhead": {
        "decision_points": 3,
        "total_ns": 300,
        "mean_ns": 100,
        "p99_ns": 130,
        "max_ns": 130
    },
    "faults": {
        "server_crashes": 2,
        "server_recoveries": 2,
        "server_degradations": 0,
        "copies_evicted": 5,
        "tasks_requeued": 3,
        "tasks_saved_by_clone": 2,
        "work_lost_norm": 0.75
    },
    "utilization": []
}"#;

/// A report as builds before the copy spans moved to the journal wrote
/// it with `record_timeline` on: a populated `"timeline"` array.
const WITH_TIMELINE_JSON: &str = r#"{
    "scheduler": "dollymp2",
    "jobs": [],
    "makespan": 5,
    "decision_points": 1,
    "scheduling_ns": 40,
    "utilization": [[0, 1.0, 1.0]],
    "timeline": [
        {
            "task": {"job": 0, "phase": 0, "task": 0},
            "copy_idx": 1,
            "server": 1,
            "kind": "Clone",
            "start": 0,
            "end": 5,
            "outcome": "Won"
        },
        {
            "task": {"job": 0, "phase": 0, "task": 0},
            "copy_idx": 0,
            "server": 0,
            "kind": "Primary",
            "start": 0,
            "end": 5,
            "outcome": "Killed"
        }
    ]
}"#;

#[test]
fn report_with_a_timeline_still_deserializes() {
    let r: SimReport = serde_json::from_str(WITH_TIMELINE_JSON).expect("timeline JSON");
    assert_eq!(r.scheduler, "dollymp2");
    assert_eq!(r.makespan, 5);
    assert_eq!(r.decision_points, 1);
    assert_eq!(r.utilization, vec![(0, 1.0, 1.0)]);
    let json = serde_json::to_string(&r).expect("serialize");
    assert!(!json.contains("timeline"), "{json}");
}

#[test]
fn pre_fault_injection_report_still_deserializes() {
    let r: SimReport = serde_json::from_str(PRE_PR2_JSON).expect("pre-PR2 JSON");
    assert_eq!(r.scheduler, "dollymp2");
    assert_eq!(r.jobs.len(), 1);
    assert_eq!(r.makespan, 21);
    assert_eq!(r.faults, FaultStats::default(), "missing faults ⇒ zeroed");
    assert_eq!(r.guard, GuardStats::default(), "missing guard ⇒ zeroed");
    assert!(r.guard.is_clean());
    assert_eq!(r.sched_overhead, SchedOverhead::default());
}

#[test]
fn pre_guard_report_still_deserializes() {
    let r: SimReport = serde_json::from_str(PRE_PR3_JSON).expect("pre-PR3 JSON");
    assert_eq!(r.scheduler, "capacity");
    assert_eq!(r.faults.server_crashes, 2);
    assert_eq!(r.faults.tasks_saved_by_clone, 2);
    assert_eq!(r.guard, GuardStats::default(), "missing guard ⇒ zeroed");
}

/// Property-based coverage of the schema-evolution contract: every
/// `#[serde(default)]` field (`sched_overhead`, `faults`, `guard`, and
/// the nested `sched_overhead.p50_ns`) must survive a round trip when
/// present and come back as its default when absent — i.e. old readers
/// tolerate new writers and new readers tolerate old writers, for
/// arbitrary counter values, not just the hand-picked fixtures above.
mod evolution {
    use super::*;
    use proptest::prelude::*;

    fn arb_overhead() -> impl Strategy<Value = SchedOverhead> {
        (
            1u64..100,
            0u64..1_000_000,
            0u64..10_000,
            0u64..10_000,
            0u64..50_000,
        )
            .prop_map(|(decision_points, total_ns, mean_ns, p50_ns, p99_ns)| {
                SchedOverhead {
                    decision_points,
                    total_ns,
                    mean_ns,
                    p50_ns,
                    p99_ns,
                    max_ns: p99_ns + 1,
                }
            })
    }

    fn arb_faults() -> impl Strategy<Value = FaultStats> {
        (
            0u64..50,
            0u64..50,
            0u64..50,
            0u64..200,
            0u64..50,
            0u64..50,
            0.0f64..10.0,
        )
            .prop_map(
                |(crashes, recoveries, degradations, evicted, saved, requeued, lost)| FaultStats {
                    server_crashes: crashes,
                    server_recoveries: recoveries,
                    server_degradations: degradations,
                    copies_evicted: evicted,
                    tasks_saved_by_clone: saved,
                    tasks_requeued: requeued,
                    work_lost_norm: lost,
                },
            )
    }

    fn arb_guard() -> impl Strategy<Value = GuardStats> {
        (
            (0u64..20, 0u64..20, 0u64..20, 0u64..20, 0u64..5, 0u64..5),
            (0u64..20, 0u64..20, 0u64..20, 0u64..20, 0u64..20, 0u64..200),
        )
            .prop_map(
                |((oc, uj, sd, dc, panics, overruns), (sr, fp, ct, df, dd, q))| GuardStats {
                    rejected_overcommit: oc,
                    rejected_unknown_job: uj,
                    rejected_server_down: sd,
                    rejected_duplicate_copy: dc,
                    policy_panics: panics,
                    budget_overruns: overruns,
                    stall_rescues: sr,
                    fallback_passes: fp,
                    clones_throttled: ct,
                    deferred: df,
                    deferrals_dropped: dd,
                    // Exercise both arms of the Option.
                    quarantined_at: if q % 2 == 0 { None } else { Some(q) },
                },
            )
    }

    fn arb_report() -> impl Strategy<Value = SimReport> {
        (arb_overhead(), arb_faults(), arb_guard(), 0u64..500).prop_map(
            |(sched_overhead, faults, guard, makespan)| SimReport {
                scheduler: "dollymp2".to_string(),
                jobs: Vec::new(),
                makespan,
                decision_points: sched_overhead.decision_points,
                scheduling_ns: sched_overhead.total_ns,
                sched_overhead,
                faults,
                guard,
                utilization: Vec::new(),
            },
        )
    }

    /// Re-serialize `json` with the named top-level field removed — the
    /// shape an artifact written before that field existed would have.
    fn without_field(json: &str, field: &str) -> String {
        let mut v: serde_json::Value = serde_json::from_str(json).expect("reparse as value");
        match &mut v {
            serde_json::Value::Object(pairs) => pairs.retain(|(k, _)| k != field),
            other => panic!("report must serialize to an object, got {}", other.kind()),
        }
        serde_json::to_string(&v).expect("re-serialize")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// New → new: every optional section survives a round trip
        /// bit-for-bit when present.
        #[test]
        fn populated_optional_sections_round_trip(r in arb_report()) {
            let json = serde_json::to_string(&r).expect("serialize");
            let back: SimReport = serde_json::from_str(&json).expect("round trip");
            prop_assert_eq!(&back, &r);
        }

        /// Old → new: dropping any one optional section yields exactly
        /// the report with that section defaulted — nothing else moves.
        #[test]
        fn each_missing_optional_section_defaults(r in arb_report()) {
            let json = serde_json::to_string(&r).expect("serialize");

            let back: SimReport =
                serde_json::from_str(&without_field(&json, "sched_overhead")).expect("no overhead");
            let mut want = r.clone();
            want.sched_overhead = SchedOverhead::default();
            prop_assert_eq!(back, want);

            let back: SimReport =
                serde_json::from_str(&without_field(&json, "faults")).expect("no faults");
            let mut want = r.clone();
            want.faults = FaultStats::default();
            prop_assert_eq!(back, want);

            let back: SimReport =
                serde_json::from_str(&without_field(&json, "guard")).expect("no guard");
            let mut want = r.clone();
            want.guard = GuardStats::default();
            prop_assert_eq!(back, want);
        }

        /// Old → new, nested: a `sched_overhead` block written before
        /// `p50_ns` existed parses with only the median zeroed.
        #[test]
        fn missing_p50_defaults_inside_sched_overhead(r in arb_report()) {
            let mut v: serde_json::Value =
                serde_json::from_str(&serde_json::to_string(&r).expect("serialize"))
                    .expect("reparse");
            if let serde_json::Value::Object(pairs) = &mut v {
                for (k, val) in pairs.iter_mut() {
                    if k == "sched_overhead" {
                        if let serde_json::Value::Object(inner) = val {
                            inner.retain(|(ik, _)| ik != "p50_ns");
                        }
                    }
                }
            }
            let back: SimReport =
                serde_json::from_str(&serde_json::to_string(&v).expect("re-serialize"))
                    .expect("no p50");
            let mut want = r.clone();
            want.sched_overhead.p50_ns = 0;
            prop_assert_eq!(back, want);
        }
    }
}

#[test]
fn fresh_report_round_trips_with_guard_stats() {
    // A real run's report (guard counters included) must survive a
    // serialize → deserialize cycle bit-for-bit.
    let cluster = ClusterSpec::homogeneous(3, 4.0, 8.0);
    let jobs = vec![dollymp_core::job::JobSpec::single_phase(
        dollymp_core::job::JobId(0),
        4,
        dollymp_core::resources::Resources::new(1.0, 2.0),
        10.0,
        3.0,
    )];
    let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
    let mut policy = GuardedScheduler::new(FifoFirstFit);
    let report = simulate(
        &cluster,
        jobs,
        &sampler,
        &mut policy,
        &EngineConfig::default(),
    );
    let json = serde_json::to_string(&report).expect("serialize");
    let back: SimReport = serde_json::from_str(&json).expect("round trip");
    assert_eq!(report, back);
}
