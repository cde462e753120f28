//! Event journals: the in-memory recorder the engine writes into and
//! the JSONL serialization it round-trips through.
//!
//! A journal file is line-oriented: the first line is the
//! [`JournalHeader`] (versioned, carrying the scheduler name, the run
//! seed, the FNV-1a config fingerprint and the recording flags), every
//! subsequent line one [`Event`]. Line-oriented JSON keeps the format
//! streamable — `dollymp-trace inspect` and the replay verifier both
//! read it without loading structure beyond one line at a time — and
//! diff-friendly for humans.

use crate::config_fingerprint;
use dollymp_cluster::engine::EngineConfig;
use dollymp_cluster::trace::{Event, Recorder};
use serde::{Deserialize, Serialize};

/// Current journal format version. Bump on any schema change; readers
/// reject newer versions instead of misparsing them.
///
/// * 2 — the header no longer carries `record_timeline`: copy spans are
///   always read from the journal. Version 1 files still load (the key
///   is skipped).
pub const JOURNAL_VERSION: u32 = 2;

/// First line of every journal file: enough provenance to match the
/// journal to the run that produced it and to know whether it contains
/// the optional utilization stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`] at write time).
    pub version: u32,
    /// Scheduler name as reported by `Scheduler::name` (matches
    /// `SimReport::scheduler`).
    pub scheduler: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// [`config_fingerprint`] of `(seed, experiment config)` — 16 hex
    /// digits, same convention as the `dollymp-bench` artifacts.
    pub config_fingerprint: String,
    /// Whether the run recorded utilization samples
    /// (`EngineConfig::record_utilization`); replay only reconstructs
    /// the utilization series when set.
    pub record_utilization: bool,
}

/// An unbounded in-memory journal: header plus every event of one run,
/// in emission order. This is the [`Recorder`] to pass to
/// `try_simulate_with_faults_recorded` when the full stream is wanted
/// (replay verification, JSONL export).
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Run provenance (first line of the JSONL form).
    pub header: JournalHeader,
    /// The event stream, in emission order.
    pub events: Vec<Event>,
}

impl Journal {
    /// Journal for a run of `scheduler` with the given seed and
    /// experiment config (fingerprinted into the header) under `engine`
    /// (whose `record_utilization` flag the header copies).
    pub fn for_run<T: Serialize>(
        scheduler: &str,
        seed: u64,
        config: &T,
        engine: &EngineConfig,
    ) -> Journal {
        Journal {
            header: JournalHeader {
                version: JOURNAL_VERSION,
                scheduler: scheduler.to_string(),
                seed,
                config_fingerprint: config_fingerprint(seed, config),
                record_utilization: engine.record_utilization,
            },
            events: Vec::new(),
        }
    }

    /// Serialize to the JSONL form: header line, then one event per
    /// line, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        #[allow(clippy::expect_used)] // trace events serialize infallibly
        {
            out.push_str(&serde_json::to_string(&self.header).expect("header serializes"));
            out.push('\n');
            for ev in &self.events {
                out.push_str(&serde_json::to_string(ev).expect("event serializes"));
                out.push('\n');
            }
        }
        out
    }

    /// Parse the JSONL form produced by [`Journal::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Journal, JournalError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or(JournalError::Empty)?;
        let header: JournalHeader =
            serde_json::from_str(first).map_err(|e| JournalError::BadLine {
                line: 1,
                detail: e.to_string(),
            })?;
        if header.version > JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion(header.version));
        }
        let mut events = Vec::new();
        for (i, line) in lines {
            let ev: Event = serde_json::from_str(line).map_err(|e| JournalError::BadLine {
                line: i + 1,
                detail: e.to_string(),
            })?;
            events.push(ev);
        }
        Ok(Journal { header, events })
    }

    /// Write the JSONL form to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Read a journal back from a JSONL file.
    pub fn load(path: &std::path::Path) -> Result<Journal, JournalError> {
        let text = std::fs::read_to_string(path).map_err(|e| JournalError::Io(e.to_string()))?;
        Journal::from_jsonl(&text)
    }
}

impl Recorder for Journal {
    fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// Why a journal file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file had no non-blank lines.
    Empty,
    /// The header declared a version newer than this reader.
    UnsupportedVersion(u32),
    /// A line was not valid header/event JSON (1-based line number).
    BadLine {
        /// 1-based line number of the offending line.
        line: usize,
        /// Parser message.
        detail: String,
    },
    /// The file could not be read at all.
    Io(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Empty => write!(f, "journal is empty (missing header line)"),
            JournalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "journal version {v} is newer than supported {JOURNAL_VERSION}"
                )
            }
            JournalError::BadLine { line, detail } => {
                write!(f, "journal line {line}: {detail}")
            }
            JournalError::Io(e) => write!(f, "journal read failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::time::Time;

    fn tick(at: Time) -> Event {
        Event::SlotTick { at }
    }

    #[test]
    fn jsonl_round_trip_preserves_journal() {
        let mut j = Journal::for_run("fifo", 9, &"cfg", &EngineConfig::default());
        j.record(tick(0));
        j.record(tick(3));
        let back = Journal::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut j = Journal::for_run("fifo", 9, &"cfg", &EngineConfig::default());
        j.header.version = JOURNAL_VERSION + 1;
        match Journal::from_jsonl(&j.to_jsonl()) {
            Err(JournalError::UnsupportedVersion(v)) => assert_eq!(v, JOURNAL_VERSION + 1),
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn bad_event_line_is_located() {
        let mut text = Journal::for_run("fifo", 9, &"cfg", &EngineConfig::default()).to_jsonl();
        text.push_str("{\"NotAnEvent\":{}}\n");
        match Journal::from_jsonl(&text) {
            Err(JournalError::BadLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected bad-line error, got {other:?}"),
        }
    }
}
