//! A timing decorator around any [`Scheduler`], and the span arithmetic
//! that turns its spans into per-layer self times.
//!
//! [`Timed`] forwards every call unchanged, so a wrapped run's report is
//! identical to an unwrapped one. It always collects one sample per
//! decision point (the slot's `on_job_arrival` calls plus its `schedule`
//! call, the quantity the engine's `SchedOverhead` summarizes) and the
//! scheduler's outcome counts. With tracing on it also keeps one [`Span`]
//! per call, in memory, against a clock the caller shares for the
//! enclosing simulate span.

use dollymp_cluster::prelude::*;
use dollymp_cluster::state::JobState;
use dollymp_core::job::{JobId, TaskRef};
use std::time::Instant;

/// The layer a span belongs to. Per-layer arrays are indexed by
/// `layer as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole simulate call (the engine plus every scheduler call).
    Simulate,
    /// `Scheduler::on_job_arrival`, the Algorithm 1 refresh.
    Arrival,
    /// `Scheduler::schedule`, one decision pass.
    Pass,
    /// `Scheduler::on_job_finish`.
    FinishHook,
    /// `on_server_down`, `on_server_up` and `on_task_lost`.
    FaultHook,
}

impl Layer {
    /// Short name, as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Simulate => "simulate",
            Layer::Arrival => "arrival",
            Layer::Pass => "pass",
            Layer::FinishHook => "finish_hook",
            Layer::FaultHook => "fault_hook",
        }
    }
}

/// One timed interval, in nanoseconds since the decorator's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub layer: Layer,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (≥ start).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the decorator counted. Every field is a deterministic function
/// of the inputs except the two `_ns` sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `on_job_arrival` calls.
    pub arrivals: u64,
    /// `schedule` calls (decision points).
    pub passes: u64,
    /// Passes that returned an empty batch.
    pub empty_passes: u64,
    /// Assignments returned, primaries and clones.
    pub assignments: u64,
    /// Clone assignments returned.
    pub clones: u64,
    /// `on_job_finish` calls.
    pub finish_hooks: u64,
    /// Fault hook calls.
    pub fault_hooks: u64,
    /// Sum of the policy's own `pass_span().prepare_ns`.
    pub prepare_ns: u64,
    /// Sum of the policy's own `pass_span().placement_ns`.
    pub placement_ns: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.arrivals += o.arrivals;
        self.passes += o.passes;
        self.empty_passes += o.empty_passes;
        self.assignments += o.assignments;
        self.clones += o.clones;
        self.finish_hooks += o.finish_hooks;
        self.fault_hooks += o.fault_hooks;
        self.prepare_ns += o.prepare_ns;
        self.placement_ns += o.placement_ns;
    }
}

/// Timing decorator implementing [`Scheduler`] around `S`.
pub struct Timed<S> {
    inner: S,
    origin: Instant,
    trace: bool,
    spans: Vec<Span>,
    pending_arrival_ns: u64,
    decisions: Vec<u64>,
    pass_ends: Vec<u64>,
    counts: Counts,
}

impl<S: Scheduler> Timed<S> {
    /// Wrap `inner`; `trace` turns span collection on.
    pub fn new(inner: S, trace: bool) -> Self {
        Timed {
            inner,
            origin: Instant::now(),
            trace,
            spans: Vec::new(),
            pending_arrival_ns: 0,
            decisions: Vec::new(),
            pass_ends: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Nanoseconds since this decorator's origin: the clock every span
    /// uses, so a caller can time the enclosing simulate call on it.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span measured by the caller on [`Timed::now_ns`].
    pub fn push_span(&mut self, layer: Layer, start_ns: u64, end_ns: u64) {
        if self.trace {
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns,
            });
        }
    }

    /// Collected spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One sample per decision point, in nanoseconds.
    pub fn decisions(&self) -> &[u64] {
        &self.decisions
    }

    /// When each decision pass ended, on [`Timed::now_ns`].
    pub fn pass_ends(&self) -> &[u64] {
        &self.pass_ends
    }

    /// The counters.
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Run `f` on the inner scheduler, recording a span when tracing.
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce(&mut S) -> T) -> T {
        if !self.trace {
            return f(&mut self.inner);
        }
        let start_ns = self.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.now_ns();
        self.push_span(layer, start_ns, end_ns);
        out
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        let start_ns = self.now_ns();
        self.inner.on_job_arrival(view, job);
        let end_ns = self.now_ns();
        self.pending_arrival_ns += end_ns - start_ns;
        self.counts.arrivals += 1;
        self.push_span(Layer::Arrival, start_ns, end_ns);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        self.counts.finish_hooks += 1;
        self.span(Layer::FinishHook, |s| s.on_job_finish(job));
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.counts.fault_hooks += 1;
        self.span(Layer::FaultHook, |s| s.on_server_down(view, server));
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.counts.fault_hooks += 1;
        self.span(Layer::FaultHook, |s| s.on_server_up(view, server));
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.counts.fault_hooks += 1;
        self.span(Layer::FaultHook, |s| s.on_task_lost(view, task));
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let start_ns = self.now_ns();
        let batch = self.inner.schedule(view);
        let end_ns = self.now_ns();
        self.decisions
            .push(std::mem::take(&mut self.pending_arrival_ns) + (end_ns - start_ns));
        self.pass_ends.push(end_ns);
        self.push_span(Layer::Pass, start_ns, end_ns);
        let c = &mut self.counts;
        c.passes += 1;
        c.empty_passes += u64::from(batch.is_empty());
        c.assignments += batch.len() as u64;
        c.clones += batch.iter().filter(|a| a.kind == CopyKind::Clone).count() as u64;
        if let Some(p) = self.inner.pass_span() {
            c.prepare_ns += p.prepare_ns;
            c.placement_ns += p.placement_ns;
        }
        batch
    }

    fn guard_stats(&self) -> Option<GuardStats> {
        self.inner.guard_stats()
    }

    fn pass_span(&self) -> Option<PassSpan> {
        self.inner.pass_span()
    }
}

/// Self time of each span: its duration minus the part covered by its
/// direct children. Spans must nest (a child lies inside its parent) —
/// true of everything [`Timed`] records inside a simulate span. Returns
/// `(span, self_ns)` pairs in start order; a negative self time would
/// mean the children overlap, so it is kept signed rather than clamped.
pub fn self_times(spans: &[Span]) -> Vec<(Span, i64)> {
    let mut order: Vec<Span> = spans.to_vec();
    // Parents before children: earlier start first, longer span first.
    order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.layer));
    let mut child_ns = vec![0u64; order.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in order.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let p = order[top];
            if p.start_ns <= s.start_ns && s.end_ns <= p.end_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += s.dur_ns();
        }
        stack.push(i);
    }
    order
        .into_iter()
        .zip(child_ns)
        .map(|(s, c)| (s, s.dur_ns() as i64 - c as i64))
        .collect()
}
