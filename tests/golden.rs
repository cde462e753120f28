//! Golden report corpus: a cross-commit oracle for simulation behaviour.
//!
//! Each cell runs one scheduler on the paper's 30-node cluster with a
//! small seeded Google-like workload (utilization and timeline recording
//! on, so those paths are pinned too) and reduces the report, with its
//! wall-clock fields zeroed, to an FNV-1a fingerprint. The fingerprints
//! are committed in `tests/golden/reports.txt`.
//!
//! There is deliberately no regeneration switch. On a mismatch the test
//! prints the actual corpus; an intended behaviour change is a hand edit
//! of the committed file, recorded in `CHANGES.md` with the reason.

use dollymp::prelude::*;
use dollymp_obs::config_fingerprint;
use dollymp_schedulers::ALL_NAMES;

const SEED: u64 = 7;
const FAULTED: [&str; 4] = ["dollymp2", "dollymp0", "fifo", "tetris"];
/// DollyMP² under the default guard. The watchdog only counts overruns
/// and the scrub zeroes that count, so the cell is host-load independent.
const GUARDED: &str = "guarded-dollymp2";

fn policy(name: &str) -> Box<dyn Scheduler> {
    if name == GUARDED {
        return Box::new(GuardedScheduler::new(DollyMP::new()));
    }
    dollymp_schedulers::by_name(name).expect("registered scheduler")
}

fn cell(name: &str, with_faults: bool) -> String {
    let cluster = ClusterSpec::paper_30_node();
    let jobs = generate_google(&GoogleConfig {
        njobs: 40,
        mean_gap_slots: 2.0,
        seed: SEED,
        ..Default::default()
    });
    // The fault shape of the record→replay equivalence suite.
    let faults = if with_faults {
        dollymp::faults::generate(
            &cluster,
            &FaultConfig::new(SEED, 300)
                .with_crash_rate(0.004, 10.0)
                .with_fail_slow(0.2, 0.5),
        )
    } else {
        FaultTimeline::empty()
    };
    let sampler = DurationSampler::new(SEED, StragglerModel::ParetoFit);
    let cfg = EngineConfig {
        record_utilization: true,
        record_timeline: true,
        ..EngineConfig::default()
    };
    let mut policy = policy(name);
    let report = simulate_with_faults(&cluster, jobs, &sampler, &mut policy, &cfg, &faults);
    let tag = if with_faults { "on" } else { "off" };
    format!(
        "paper_30_node/google40/{name}/faults={tag} {}",
        config_fingerprint(SEED, &report.scrubbed())
    )
}

#[test]
fn reports_match_the_golden_corpus() {
    let mut actual = String::new();
    for name in ALL_NAMES {
        actual.push_str(&cell(name, false));
        actual.push('\n');
    }
    for name in FAULTED {
        actual.push_str(&cell(name, true));
        actual.push('\n');
    }
    for with_faults in [false, true] {
        actual.push_str(&cell(GUARDED, with_faults));
        actual.push('\n');
    }
    let expected = include_str!("golden/reports.txt");
    assert!(
        actual == expected,
        "golden report corpus changed; actual corpus:\n{actual}"
    );
}
