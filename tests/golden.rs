//! Golden report corpus: a cross-commit oracle for simulation behaviour.
//!
//! Each cell runs one scheduler on one seeded setup with a recorder
//! attached (and utilization recording on, so that path is pinned too)
//! and reduces the report, with its wall-clock fields zeroed, plus the
//! copy spans read from the journal, to an FNV-1a fingerprint.
//! The fingerprints are committed in `tests/golden/reports.txt`. Two
//! setups:
//!
//! * the paper's 30-node cluster with a small Google-like workload, for
//!   every registered scheduler, DollyMP² under the guard and DollyMP²
//!   in the YARN-like control plane;
//! * a small heterogeneous `google_like` fleet with the §6.2.2 PageRank
//!   suite, whose chained iterations share one demand, for DollyMP² and
//!   the non-cloning Tetris;
//! * the first setup with a 2× remote-read penalty on root tasks placed
//!   off their input block's replicas, for DollyMP² and the YARN control
//!   plane, whose locality moves are what the penalty rewards.
//!
//! There is deliberately no regeneration switch. On a mismatch the test
//! lists each changed cell as `cell: expected → actual`, then prints the
//! actual corpus; an intended behaviour change is a hand edit of the
//! committed file, recorded in `CHANGES.md` with the reason.

use dollymp::cluster::trace::copy_spans;
use dollymp::prelude::*;
use dollymp_obs::config_fingerprint;
use dollymp_schedulers::ALL_NAMES;
use serde::Serialize;
use serde_json::Value;

const SEED: u64 = 7;
/// Every scheduler in `ALL_NAMES` also runs under the fault timeline.
/// These four faulted cells come first; the others follow at the end of
/// the corpus, in `ALL_NAMES` order.
const FAULTED_FIRST: [&str; 4] = ["dollymp2", "dollymp0", "fifo", "tetris"];
/// The schedulers of the `google_like` fleet cells, each faults off and on.
const FLEET: [&str; 2] = ["dollymp2", "tetris"];
/// DollyMP² under the default guard. The watchdog only counts overruns
/// and the scrub zeroes that count, so the cell is host-load independent.
const GUARDED: &str = "guarded-dollymp2";
/// DollyMP² inside the YARN-like RM/AM control plane, scheduling on the
/// AMs' estimated statistics.
const YARN: &str = "yarn-dollymp2";

fn policy(name: &str) -> Box<dyn Scheduler> {
    if name == GUARDED {
        return Box::new(GuardedScheduler::new(DollyMP::new()));
    }
    if name == YARN {
        return Box::new(YarnSystem::new(2));
    }
    dollymp_schedulers::by_name(name).expect("registered scheduler")
}

/// One cluster + workload pair of the corpus, named by its line prefix.
struct Setup {
    name: &'static str,
    cluster: ClusterSpec,
    jobs: Vec<JobSpec>,
    /// The engine's remote-read penalty (1 = off).
    remote_penalty: f64,
}

fn paper_google40() -> Setup {
    Setup {
        name: "paper_30_node/google40",
        cluster: ClusterSpec::paper_30_node(),
        jobs: generate_google(&GoogleConfig {
            njobs: 40,
            mean_gap_slots: 2.0,
            seed: SEED,
            ..Default::default()
        }),
        remote_penalty: 1.0,
    }
}

fn paper_google40_remote() -> Setup {
    Setup {
        name: "paper_30_node/google40/remote_penalty=2",
        remote_penalty: 2.0,
        ..paper_google40()
    }
}

fn fleet_pagerank() -> Setup {
    Setup {
        name: "google_like60/heavy_pagerank25",
        cluster: ClusterSpec::google_like(60, SEED),
        jobs: dollymp::workload::suite::heavy_pagerank(SEED, 20),
        remote_penalty: 1.0,
    }
}

fn cell(setup: &Setup, name: &str, with_faults: bool) -> String {
    let cluster = &setup.cluster;
    // The fault shape of the record→replay equivalence suite.
    let faults = if with_faults {
        dollymp::faults::generate(
            cluster,
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
        remote_penalty: setup.remote_penalty,
        ..EngineConfig::default()
    };
    let mut policy = policy(name);
    let mut events: Vec<TraceEvent> = Vec::new();
    let report = try_simulate_with_faults_recorded(
        cluster,
        setup.jobs.clone(),
        &sampler,
        &mut policy,
        &cfg,
        &faults,
        &mut events,
    )
    .unwrap();
    // Reports used to carry the copy spans as a final `"timeline"` field.
    // Appending the journal's spans under that key rebuilds exactly the
    // document the committed fingerprints were taken of, so the corpus
    // still pins every copy span.
    let mut doc = report.scrubbed().to_value();
    let Value::Object(fields) = &mut doc else {
        panic!("a report serializes to an object")
    };
    fields.push(("timeline".to_string(), copy_spans(&events).to_value()));
    let tag = if with_faults { "on" } else { "off" };
    format!(
        "{}/{name}/faults={tag} {}",
        setup.name,
        config_fingerprint(SEED, &doc)
    )
}

/// One line per cell whose fingerprint differs between two corpora,
/// `cell: expected → actual`, with `(none)` for a cell missing from one
/// side.
fn changed_cells(expected: &str, actual: &str) -> String {
    let cells = |corpus: &str| -> Vec<(String, String)> {
        corpus
            .lines()
            .map(|l| {
                let (cell, fp) = l.rsplit_once(' ').unwrap_or((l, ""));
                (cell.to_string(), fp.to_string())
            })
            .collect()
    };
    let (expected, actual) = (cells(expected), cells(actual));
    let find = |side: &[(String, String)], cell: &str| {
        side.iter()
            .find(|(c, _)| c == cell)
            .map_or("(none)".to_string(), |(_, fp)| fp.clone())
    };
    let mut out = String::new();
    for (cell, fp) in &actual {
        let old = find(&expected, cell);
        if &old != fp {
            out.push_str(&format!("{cell}: {old} → {fp}\n"));
        }
    }
    for (cell, fp) in &expected {
        if find(&actual, cell) == "(none)" {
            out.push_str(&format!("{cell}: {fp} → (none)\n"));
        }
    }
    out
}

#[test]
fn reports_match_the_golden_corpus() {
    let paper = paper_google40();
    let fleet = fleet_pagerank();
    let mut actual = String::new();
    for name in ALL_NAMES {
        actual.push_str(&cell(&paper, name, false));
        actual.push('\n');
    }
    for name in FAULTED_FIRST {
        actual.push_str(&cell(&paper, name, true));
        actual.push('\n');
    }
    for name in [GUARDED, YARN] {
        for with_faults in [false, true] {
            actual.push_str(&cell(&paper, name, with_faults));
            actual.push('\n');
        }
    }
    for name in FLEET {
        for with_faults in [false, true] {
            actual.push_str(&cell(&fleet, name, with_faults));
            actual.push('\n');
        }
    }
    for name in ALL_NAMES.iter().filter(|n| !FAULTED_FIRST.contains(n)) {
        actual.push_str(&cell(&paper, name, true));
        actual.push('\n');
    }
    let remote = paper_google40_remote();
    for name in ["dollymp2", YARN] {
        actual.push_str(&cell(&remote, name, false));
        actual.push('\n');
    }
    let expected = include_str!("golden/reports.txt");
    assert!(
        actual == expected,
        "golden report corpus changed; changed cells:\n{}actual corpus:\n{actual}",
        changed_cells(expected, &actual)
    );
}
