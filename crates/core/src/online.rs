//! Decision helpers for Algorithm 2 — the online DollyMP scheduler.
//!
//! The online scheduler (implemented in `dollymp-schedulers`) refreshes job
//! priorities through Algorithm 1 on every arrival, then repeatedly places
//! the best-fitting task of the highest-priority job group onto servers
//! with free resources, and finally spends leftover capacity on clones.
//! This module holds the pure pieces of that loop:
//!
//! * [`PriorityOrder`] — the job order of the latest Algorithm 1 run,
//!   grouped by priority level;
//! * [`best_fit_score`] — the Tetris-style alignment inner product used to
//!   break ties inside one priority group (Algorithm 2, step 12);
//! * [`ClonePolicy`] — the cloning budget of §5 (≤ 2 extra copies) plus
//!   the §4.1 *small-job gate* parameterized by `δ`.

use crate::job::JobId;
use crate::resources::Resources;
use crate::transient::{TransientJob, TransientOutput};
use serde::{Deserialize, Serialize};

/// The job order of the latest Algorithm 1 run: its jobs grouped by
/// ascending priority level, ids ascending inside a level, so jobs
/// Algorithm 1 left unselected ([`crate::transient::PRIORITY_UNSELECTED`])
/// come last. This is the deterministic order Algorithm 2's placement
/// loop walks (DollyMP's pass, which the YARN RM runs too).
///
/// Refilled (only) when the order goes stale, per §5: *"the scheduling
/// order of all jobs in the cluster won't be updated until the next job
/// arrival"*. A job that finishes in between stays in the order until
/// the next refill; readers skip jobs that are no longer active.
#[derive(Debug, Clone, Default)]
pub struct PriorityOrder {
    /// The jobs, level after level.
    members: Vec<JobId>,
    /// Per level: `(level, start, end)`, the level's range in `members`.
    levels: Vec<(u32, u32, u32)>,
}

impl PriorityOrder {
    /// Replace the order with Algorithm 1's output `out` over `jobs`
    /// (aligned slices). Reuses the buffers' capacity, so refilling at
    /// steady state allocates nothing.
    ///
    /// # Panics
    /// Panics when the slices disagree in length.
    pub fn refill(&mut self, jobs: &[TransientJob], out: &TransientOutput) {
        assert_eq!(jobs.len(), out.priorities.len());
        self.members.clear();
        self.levels.clear();
        // `out.order` visits the jobs by ascending level.
        for &i in &out.order {
            let (level, at) = (out.priorities[i], self.members.len() as u32);
            match self.levels.last_mut() {
                Some(last) if last.0 == level => last.2 = at + 1,
                _ => self.levels.push((level, at, at + 1)),
            }
            self.members.push(jobs[i].id);
        }
        // Ids are unique, so the unstable sort is deterministic.
        for &(_, start, end) in &self.levels {
            self.members[start as usize..end as usize].sort_unstable();
        }
    }

    /// The groups by ascending level: each level with its jobs, ids
    /// ascending.
    pub fn groups(&self) -> impl Iterator<Item = (u32, &[JobId])> + '_ {
        self.levels
            .iter()
            .map(|&(level, start, end)| (level, &self.members[start as usize..end as usize]))
    }
}

/// The Algorithm 2 (step 12) tie-break score: the inner product between a
/// task's demand vector and the server's remaining capacity. Larger is
/// better — the task that best "aligns" with what the server has left is
/// placed first, exactly as in Tetris.
pub fn best_fit_score(demand: Resources, available: Resources) -> f64 {
    demand.dot(available)
}

/// The cloning rules of §4.1/§5.
///
/// * A task may hold at most `max_copies` concurrent copies (original
///   included); the paper fixes 3, i.e. at most two clones, because `h` is
///   concave and HDFS keeps two extra data replicas.
/// * Clones are only worth their resource cost for *small* jobs. The
///   paper's deployment uses a gate parameter `δ = 0.3` (§6.1); we
///   interpret it per §4.1 ("schedule extra cloned copies for small jobs
///   when the total amount of consumed resources under cloning is less
///   than the resource demand of other jobs"): a job is clone-eligible
///   when its remaining volume is at most `δ ×` the total remaining volume
///   of the *other* unfinished jobs, or when no other work is waiting at
///   all. This substitution is documented in DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClonePolicy {
    /// Maximum concurrent copies per task, original included (paper: 3).
    pub max_copies: u32,
    /// Small-job gate `δ` (paper: 0.3).
    pub delta: f64,
}

impl Default for ClonePolicy {
    fn default() -> Self {
        ClonePolicy {
            max_copies: 3,
            delta: 0.3,
        }
    }
}

impl ClonePolicy {
    /// A policy with `clones` extra copies (DollyMP¹ → `clones = 1`, …);
    /// `with_clones(0)` never clones (DollyMP⁰), whatever `δ`.
    pub fn with_clones(clones: u32) -> Self {
        ClonePolicy {
            max_copies: clones + 1,
            delta: 0.3,
        }
    }

    /// The §4.1 small-job gate: is a job with `job_remaining_volume`
    /// clone-eligible when the other unfinished jobs total
    /// `other_remaining_volume`?
    pub fn small_job_gate(&self, job_remaining_volume: f64, other_remaining_volume: f64) -> bool {
        if self.max_copies <= 1 {
            return false;
        }
        if other_remaining_volume <= 0.0 {
            // Nobody is delayed by the clone — always worth it.
            return true;
        }
        job_remaining_volume <= self.delta * other_remaining_volume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{transient_schedule, PRIORITY_UNSELECTED};
    use proptest::prelude::*;

    /// Algorithm 1 inputs from `(volume, etime, unselectable)` triples,
    /// with ids out of input order; an unselectable job has infinite
    /// volume, so no knapsack level packs it.
    fn jobs(raw: &[(f64, f64, usize)]) -> Vec<TransientJob> {
        raw.iter()
            .enumerate()
            .map(|(i, &(volume, etime, unselectable))| TransientJob {
                id: JobId(i as u64 * 37 % 101),
                volume: if unselectable == 0 {
                    f64::INFINITY
                } else {
                    volume
                },
                etime,
                dominant: 0.1,
            })
            .collect()
    }

    proptest! {
        /// The refilled order holds every input job exactly once, in the
        /// group of its own level; levels strictly ascend, unselected jobs
        /// come last and ids ascend inside a group. The order is refilled
        /// into the buffers of an earlier, unrelated one, which leaves
        /// nothing of it behind.
        #[test]
        fn refill_groups_algorithm1_output_by_level_then_id(
            earlier in prop::collection::vec((0.01f64..30.0, 0.1f64..60.0, 0usize..10), 0..40),
            raw in prop::collection::vec((0.01f64..30.0, 0.1f64..60.0, 0usize..10), 0..40),
        ) {
            let mut order = PriorityOrder::default();
            let before = jobs(&earlier);
            order.refill(&before, &transient_schedule(&before));
            let jobs = jobs(&raw);
            let out = transient_schedule(&jobs);
            order.refill(&jobs, &out);
            let groups: Vec<(u32, &[JobId])> = order.groups().collect();
            let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
            prop_assert_eq!(total, jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                let holding: Vec<u32> = groups
                    .iter()
                    .filter(|(_, m)| m.contains(&job.id))
                    .map(|&(level, _)| level)
                    .collect();
                prop_assert_eq!(holding, vec![out.priorities[i]]);
            }
            for w in groups.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "levels strictly ascend");
            }
            for (_, members) in &groups {
                prop_assert!(!members.is_empty());
                prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
            }
            if out.priorities.contains(&PRIORITY_UNSELECTED) {
                prop_assert_eq!(groups.last().map(|g| g.0), Some(PRIORITY_UNSELECTED));
            }
        }
    }

    #[test]
    fn best_fit_prefers_aligned_demand() {
        let avail = Resources::new(8.0, 2.0); // CPU-rich server
        let cpu_heavy = Resources::new(4.0, 1.0);
        let mem_heavy = Resources::new(1.0, 4.0);
        assert!(best_fit_score(cpu_heavy, avail) > best_fit_score(mem_heavy, avail));
    }

    #[test]
    fn disabled_policy_never_clones() {
        let p = ClonePolicy::with_clones(0);
        assert!(!p.small_job_gate(0.0, 0.0));
    }

    #[test]
    fn with_clones_sets_budget() {
        assert_eq!(ClonePolicy::with_clones(2).max_copies, 3);
        assert_eq!(ClonePolicy::with_clones(0).max_copies, 1);
    }

    #[test]
    fn small_job_gate_semantics() {
        let p = ClonePolicy::default(); // δ = 0.3
                                        // Idle cluster (no other work): always eligible.
        assert!(p.small_job_gate(100.0, 0.0));
        // Small relative to the backlog: eligible.
        assert!(p.small_job_gate(1.0, 10.0));
        // Large relative to the backlog: not eligible.
        assert!(!p.small_job_gate(5.0, 10.0));
        // Boundary: exactly δ × other.
        assert!(p.small_job_gate(3.0, 10.0));
    }
}
