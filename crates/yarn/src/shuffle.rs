//! Intermediate-data transfer between successive phases — the **delay
//! assignment** mechanism of §5.2 (adopted from Dolly \[5\]).
//!
//! When both an upstream task and its downstream consumer have cloned
//! copies, naively wiring every downstream copy to the *first* upstream
//! copy to finish recreates a single point of contention; waiting for
//! *all* upstream copies wastes the cloning speedup. The paper's rule:
//!
//! * delay assignment applies **only when the downstream tasks also have
//!   clones** (otherwise the single downstream copy just reads the first
//!   finished upstream output);
//! * the AM *waits for the two earliest upstream copies* and assigns
//!   their outputs **evenly** across the downstream clones, then
//!   *proceeds without waiting for the last upstream clone* as long as
//!   some upstream copy is still running;
//! * if the upstream task has *fewer* copies than the downstream one,
//!   the first finished upstream output is broadcast to every downstream
//!   copy.
//!
//! [`DelayAssigner`] is the per-(upstream task, downstream task) state
//! machine implementing exactly that. It stands alone: the engine models
//! no intermediate-data transfer, so neither the AM nor
//! [`YarnSystem`](crate::YarnSystem) drives it, and only its own tests
//! and the `delay_assignment` example call it.

use dollymp_core::job::TaskRef;
use serde::{Deserialize, Serialize};

/// Where one downstream copy should read its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputBinding {
    /// Downstream copy index.
    pub downstream_copy: u32,
    /// Upstream copy index whose output it reads.
    pub upstream_copy: u32,
}

/// Decision produced after an upstream copy finishes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShuffleDecision {
    /// Not enough upstream outputs yet — keep waiting.
    Wait,
    /// Bind these downstream copies to upstream outputs now.
    Bind(Vec<OutputBinding>),
    /// Everything already bound; nothing to do.
    Done,
}

/// Per-edge delay-assignment state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayAssigner {
    /// The upstream (producer) task.
    pub upstream: TaskRef,
    /// The downstream (consumer) task.
    pub downstream: TaskRef,
    /// Total copies launched for the upstream task.
    upstream_copies: u32,
    /// Total copies launched for the downstream task.
    downstream_copies: u32,
    /// Upstream copy indices that have finished, in completion order.
    finished: Vec<u32>,
    /// Downstream copies not yet bound to an output.
    unbound: Vec<u32>,
}

impl DelayAssigner {
    /// Create the state machine for one upstream→downstream task edge.
    ///
    /// # Panics
    /// Panics when either copy count is zero.
    pub fn new(
        upstream: TaskRef,
        downstream: TaskRef,
        upstream_copies: u32,
        downstream_copies: u32,
    ) -> Self {
        assert!(upstream_copies >= 1 && downstream_copies >= 1);
        DelayAssigner {
            upstream,
            downstream,
            upstream_copies,
            downstream_copies,
            finished: Vec::new(),
            unbound: (0..downstream_copies).collect(),
        }
    }

    /// Whether the delay-assignment rule is active for this edge — only
    /// when the *downstream* task has clones (§5.2: "only when tasks from
    /// the downstream phase have also been scheduled clones").
    pub fn delay_active(&self) -> bool {
        self.downstream_copies >= 2 && self.upstream_copies >= self.downstream_copies
    }

    /// Feed one upstream copy completion; returns the binding decision.
    ///
    /// # Panics
    /// Panics when the same copy completes twice or the index is out of
    /// range.
    pub fn on_upstream_finish(&mut self, copy: u32) -> ShuffleDecision {
        assert!(copy < self.upstream_copies, "copy index out of range");
        assert!(!self.finished.contains(&copy), "copy finished twice");
        self.finished.push(copy);

        if self.unbound.is_empty() {
            return ShuffleDecision::Done;
        }

        if !self.delay_active() {
            // Fewer upstream copies than downstream (or no downstream
            // clones): broadcast the first output to every consumer copy.
            let bindings = self
                .unbound
                .drain(..)
                .map(|d| OutputBinding {
                    downstream_copy: d,
                    upstream_copy: copy,
                })
                .collect();
            return ShuffleDecision::Bind(bindings);
        }

        // Delay assignment: hold the first output back until the second
        // arrives, then split the consumers evenly between the two early
        // outputs; afterwards, bind remaining consumers one output at a
        // time without waiting for the last upstream clone.
        match self.finished.len() {
            1 => ShuffleDecision::Wait,
            2 => {
                let first = self.finished[0];
                let second = self.finished[1];
                let half = self.unbound.len().div_ceil(2);
                let bindings = self
                    .unbound
                    .drain(..)
                    .enumerate()
                    .map(|(i, d)| OutputBinding {
                        downstream_copy: d,
                        upstream_copy: if i < half { first } else { second },
                    })
                    .collect();
                ShuffleDecision::Bind(bindings)
            }
            _ => {
                // Late upstream copies only matter if consumers remain
                // (they cannot here — the len == 2 arm drained them — but
                // a defensive bind keeps the machine total).
                let bindings = self
                    .unbound
                    .drain(..)
                    .map(|d| OutputBinding {
                        downstream_copy: d,
                        upstream_copy: copy,
                    })
                    .collect();
                ShuffleDecision::Bind(bindings)
            }
        }
    }

    /// Downstream copies still waiting for an input binding.
    pub fn unbound_count(&self) -> usize {
        self.unbound.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::job::{JobId, PhaseId, TaskId};

    fn edge(up_copies: u32, down_copies: u32) -> DelayAssigner {
        let up = TaskRef {
            job: JobId(1),
            phase: PhaseId(0),
            task: TaskId(0),
        };
        let down = TaskRef {
            job: JobId(1),
            phase: PhaseId(1),
            task: TaskId(0),
        };
        DelayAssigner::new(up, down, up_copies, down_copies)
    }

    #[test]
    fn single_downstream_copy_reads_first_output() {
        let mut a = edge(3, 1);
        assert!(!a.delay_active());
        let d = a.on_upstream_finish(2);
        assert_eq!(
            d,
            ShuffleDecision::Bind(vec![OutputBinding {
                downstream_copy: 0,
                upstream_copy: 2
            }])
        );
        // Later finishes are no-ops.
        assert_eq!(a.on_upstream_finish(0), ShuffleDecision::Done);
    }

    #[test]
    fn fewer_upstream_copies_broadcasts_first_output() {
        // §5.2: "the number of copies in the upstream phase is less than
        // that in the subsequent phase" → broadcast.
        let mut a = edge(1, 3);
        assert!(!a.delay_active());
        match a.on_upstream_finish(0) {
            ShuffleDecision::Bind(b) => {
                assert_eq!(b.len(), 3);
                assert!(b.iter().all(|x| x.upstream_copy == 0));
                let mut consumers: Vec<u32> = b.iter().map(|x| x.downstream_copy).collect();
                consumers.sort();
                assert_eq!(consumers, vec![0, 1, 2]);
            }
            other => panic!("expected broadcast, got {other:?}"),
        }
    }

    #[test]
    fn delay_waits_for_two_then_splits_evenly() {
        let mut a = edge(3, 2);
        assert!(a.delay_active());
        assert_eq!(a.on_upstream_finish(1), ShuffleDecision::Wait);
        assert_eq!(a.unbound_count(), 2);
        match a.on_upstream_finish(2) {
            ShuffleDecision::Bind(b) => {
                assert_eq!(b.len(), 2);
                // First early output feeds the first half, second the rest.
                assert_eq!(b[0].upstream_copy, 1);
                assert_eq!(b[1].upstream_copy, 2);
                assert_ne!(b[0].downstream_copy, b[1].downstream_copy);
            }
            other => panic!("expected even split, got {other:?}"),
        }
        // The third upstream copy is not waited for.
        assert_eq!(a.on_upstream_finish(0), ShuffleDecision::Done);
        assert_eq!(a.unbound_count(), 0);
    }

    #[test]
    fn odd_consumer_counts_split_ceil_floor() {
        let mut a = edge(3, 3);
        let _ = a.on_upstream_finish(0);
        match a.on_upstream_finish(1) {
            ShuffleDecision::Bind(b) => {
                let firsts = b.iter().filter(|x| x.upstream_copy == 0).count();
                let seconds = b.iter().filter(|x| x.upstream_copy == 1).count();
                assert_eq!(firsts, 2, "ceil half to the first output");
                assert_eq!(seconds, 1);
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn completion_order_not_copy_index_decides() {
        let mut a = edge(3, 2);
        assert_eq!(a.on_upstream_finish(2), ShuffleDecision::Wait);
        match a.on_upstream_finish(0) {
            ShuffleDecision::Bind(b) => {
                assert_eq!(b[0].upstream_copy, 2, "earliest finisher first");
                assert_eq!(b[1].upstream_copy, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn duplicate_completion_rejected() {
        let mut a = edge(2, 2);
        let _ = a.on_upstream_finish(0);
        let _ = a.on_upstream_finish(0);
    }

    #[test]
    fn serde_round_trip() {
        let mut a = edge(3, 2);
        let _ = a.on_upstream_finish(1);
        let json = serde_json::to_string(&a).unwrap();
        let back: DelayAssigner = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
