//! Fuzz test for the journal loader: a damaged journal file — cut short
//! at any byte, or with bytes overwritten anywhere — must load as `Ok`
//! or as a typed `JournalError`, never as a panic.

use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, JobSpec};
use dollymp_core::resources::Resources;
use dollymp_faults::FaultConfig;
use dollymp_obs::journal::Journal;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Bytes that make damage interesting to a JSON parser: structure,
/// escapes, number and keyword starts, and invalid UTF-8.
const NASTY: &[u8] = b"\"\\{}[]:,-+.eE0129untf \n\xff\xc3";

/// The JSONL text of a small recorded `paper_30_node` run with crashes,
/// so every event kind the loader knows is likely present.
fn journal_text() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let cluster = ClusterSpec::paper_30_node();
        let jobs: Vec<JobSpec> = (0..6u64)
            .map(|i| {
                let mut j = JobSpec::single_phase(JobId(i), 8, Resources::new(2.0, 4.0), 10.0, 3.0);
                j.arrival = i * 4;
                j
            })
            .collect();
        let faults = dollymp_faults::generate(
            &cluster,
            &FaultConfig::new(5, 80)
                .with_crash_rate(0.01, 8.0)
                .with_fail_slow(0.1, 0.5),
        );
        let cfg = EngineConfig {
            record_utilization: true,
            ..EngineConfig::default()
        };
        let mut policy = dollymp_schedulers::by_name("dollymp2").expect("known scheduler");
        let mut journal = Journal::for_run("dollymp2", 5, &cfg, &cfg);
        let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
        try_simulate_with_faults_recorded(
            &cluster,
            jobs,
            &sampler,
            &mut policy,
            &cfg,
            &faults,
            &mut journal,
        )
        .unwrap();
        journal.to_jsonl().into_bytes()
    })
}

#[test]
fn undamaged_journal_loads() {
    let text = std::str::from_utf8(journal_text()).expect("journals are UTF-8");
    let journal = Journal::from_jsonl(text).expect("a clean journal loads");
    assert!(journal.events.len() > 100, "a non-trivial run was recorded");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A journal cut right after a line loads every event before the cut.
    #[test]
    fn journal_cut_at_a_line_end_loads_the_prefix(frac in 0.0f64..1.0) {
        let text = std::str::from_utf8(journal_text()).expect("journals are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        let keep = 1 + (frac * (lines.len() - 1) as f64) as usize;
        let prefix = lines[..keep].join("\n") + "\n";
        let journal = Journal::from_jsonl(&prefix).expect("a whole-line prefix loads");
        prop_assert_eq!(journal.events.len(), keep - 1);
    }

    /// Truncate at a random byte, then overwrite random positions with
    /// random or JSON-significant bytes. Loading returns whatever it
    /// returns; reaching the end of the body means it did not panic.
    #[test]
    fn damaged_journal_loads_or_errors(
        cut in 0.0f64..=1.0,
        overwrites in prop::collection::vec((0.0f64..1.0, 0usize..NASTY.len() + 256), 0..8),
    ) {
        let full = journal_text();
        let mut bytes = full[..(cut * full.len() as f64) as usize].to_vec();
        for (at, pick) in overwrites {
            if bytes.is_empty() {
                break;
            }
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] = match NASTY.get(pick) {
                Some(&b) => b,
                None => (pick - NASTY.len()) as u8,
            };
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Journal::from_jsonl(&text);
    }
}
