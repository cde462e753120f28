//! A small metrics registry fed by the event stream: named counters,
//! gauges and nearest-rank histograms. The report's own summaries
//! (`SchedOverhead`, `FaultStats`, `GuardStats`) come from
//! [`crate::replay::replay_report`], which runs the engine's report fold.
//!
//! Percentiles follow the **nearest-rank** convention documented on
//! [`SchedOverhead`](dollymp_cluster::metrics::SchedOverhead): `pq` is the sample at 1-based ascending rank
//! `⌈q·n⌉` (clamped), always an observed value, never interpolated —
//! so a histogram fed the same samples as the engine reproduces the
//! engine's percentiles bit-for-bit.

use dollymp_cluster::state::CopyKind;
use dollymp_cluster::trace::Event;
use std::collections::BTreeMap;

/// A sample-retaining histogram with nearest-rank percentiles.
///
/// Samples are kept verbatim (sorted lazily at query time), which keeps
/// ingestion O(1) and makes every percentile exact — the right trade
/// for post-hoc journal analysis, where sample counts are bounded by
/// the run's decision points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// Add one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Mean sample (0 when empty), matching `SchedOverhead::mean_ns`'s
    /// integer-division convention.
    pub fn mean(&self) -> u64 {
        if self.samples.is_empty() {
            0
        } else {
            self.sum() / self.count()
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank `q`-percentile (0 when empty): the sample at
    /// 1-based ascending rank `⌈q·n⌉`, clamped to `[1, n]`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((n as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// The raw samples, in insertion order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

/// Counters, gauges and histograms accumulated from an event stream.
///
/// Feed it events with [`MetricsRegistry::ingest`] (it is itself *not*
/// a `Recorder` — build it from a journal after the run, or wrap it if
/// live ingestion is wanted) and read the named metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Build a registry from a full event stream.
    pub fn from_events<'a, I: IntoIterator<Item = &'a Event>>(events: I) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for ev in events {
            r.ingest(ev);
        }
        r
    }

    fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    fn hist(&mut self, name: &'static str) -> &mut Histogram {
        self.histograms.entry(name).or_default()
    }

    /// Fold one event into the registry.
    pub fn ingest(&mut self, ev: &Event) {
        self.bump("events_total");
        match ev {
            Event::SlotTick { .. } => self.bump("slot_ticks"),
            Event::JobArrival { .. } => self.bump("jobs_arrived"),
            Event::JobCompletion { metrics, .. } => {
                self.bump("jobs_completed");
                self.hist("job_flowtime_slots").record(metrics.flowtime);
                self.hist("job_running_slots").record(metrics.running_time);
            }
            Event::CopyLaunch {
                kind, at, finish, ..
            } => {
                self.bump("copies_launched");
                if *kind == CopyKind::Clone {
                    self.bump("clones_launched");
                }
                self.hist("copy_planned_slots")
                    .record(finish.saturating_sub(*at));
            }
            Event::CopyRetire {
                start, at, outcome, ..
            } => {
                match outcome {
                    dollymp_cluster::metrics::CopyOutcome::Won => self.bump("copies_won"),
                    _ => self.bump("copies_killed"),
                }
                self.hist("copy_lifetime_slots")
                    .record(at.saturating_sub(*start));
            }
            Event::CopyEvict { .. } => self.bump("copies_evicted"),
            Event::TaskSaved { .. } => self.bump("tasks_saved_by_clone"),
            Event::TaskLost { .. } => self.bump("tasks_requeued"),
            Event::ServerCrash { .. } => self.bump("server_crashes"),
            Event::ServerRestore { .. } => self.bump("server_recoveries"),
            Event::ServerDegrade { .. } => self.bump("server_degradations"),
            Event::SchedSpan {
                arrival_ns,
                schedule_ns,
                batch,
                detail,
                ..
            } => {
                self.bump("decision_points");
                self.hist("sched_overhead_ns")
                    .record(arrival_ns + schedule_ns);
                self.hist("batch_size").record(*batch);
                if let Some(span) = detail {
                    self.hist("pass_prepare_ns").record(span.prepare_ns);
                    self.hist("pass_placement_ns").record(span.placement_ns);
                }
            }
            Event::GuardDelta { .. } => self.bump("guard_deltas"),
            Event::UtilSample { cpu, mem, .. } => {
                self.bump("util_samples");
                self.gauges.insert("cpu_utilization", *cpu);
                self.gauges.insert("mem_utilization", *mem);
            }
        }
    }

    /// A named counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named gauge's most recent value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A named histogram, if any samples were recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-sorted (for display).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms, name-sorted (for display).
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 50);
        // Single sample: every percentile is that sample.
        let mut one = Histogram::default();
        one.record(7);
        assert_eq!(one.percentile(0.01), 7);
        assert_eq!(one.percentile(0.99), 7);
    }
}
