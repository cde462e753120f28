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
use crate::transient::{LevelAssignment, TransientJob, MAX_LEVELS, PRIORITY_UNSELECTED};
use serde::{Deserialize, Serialize};

/// The job order of the latest Algorithm 1 run: its jobs grouped by
/// ascending priority level, ids ascending inside a level, so jobs
/// Algorithm 1 left unselected ([`PRIORITY_UNSELECTED`]) come last. This
/// is the deterministic order Algorithm 2's placement loop walks
/// (DollyMP's pass, which the YARN RM runs too).
///
/// Refilled (only) when the order goes stale, per §5: *"the scheduling
/// order of all jobs in the cluster won't be updated until the next job
/// arrival"*. A job that finishes in between stays in the order until
/// the next refill; readers skip jobs that are no longer active.
///
/// A refill runs Algorithm 1's level assignment (one integer-key sort of
/// the volumes, then the level loop) and groups the jobs by level with
/// one counting pass, all on buffers the order owns: at steady state it
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PriorityOrder {
    /// Algorithm 1's buffers.
    algorithm1: LevelAssignment,
    /// The jobs, level after level.
    members: Vec<JobId>,
    /// Per level: `(level, start, end)`, the level's range in `members`.
    levels: Vec<(u32, u32, u32)>,
}

/// Counting-pass slots: one per level `1..=MAX_LEVELS`, then one for
/// [`PRIORITY_UNSELECTED`].
const SLOTS: usize = MAX_LEVELS as usize + 1;

impl PriorityOrder {
    /// Replace the order with Algorithm 1's run over `jobs`. Ids inside a
    /// level are sorted, so input already in ascending id order (the
    /// view's) costs the sort one linear scan.
    pub fn refill(&mut self, jobs: &[TransientJob]) {
        self.algorithm1.assign(jobs);
        let priorities = &self.algorithm1.priorities;
        let slot = |level: u32| match level {
            PRIORITY_UNSELECTED => SLOTS - 1,
            l => l as usize - 1,
        };
        // `start[s]..start[s + 1]` becomes slot `s`'s range in `members`.
        let mut start = [0u32; SLOTS + 1];
        for &level in priorities {
            start[slot(level) + 1] += 1;
        }
        for s in 1..=SLOTS {
            start[s] += start[s - 1];
        }
        self.levels.clear();
        for s in 0..SLOTS {
            if start[s] < start[s + 1] {
                let level = if s == SLOTS - 1 {
                    PRIORITY_UNSELECTED
                } else {
                    s as u32 + 1
                };
                self.levels.push((level, start[s], start[s + 1]));
            }
        }
        self.members.clear();
        self.members.resize(jobs.len(), JobId(0));
        let mut next = start;
        for (job, &level) in jobs.iter().zip(priorities) {
            let at = &mut next[slot(level)];
            self.members[*at as usize] = job.id;
            *at += 1;
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
    use crate::transient::tests::{edge_case_jobs, reference_transient_schedule, EdgeDraw};
    use proptest::prelude::*;

    /// Algorithm 1 inputs with the ids shuffled: job `i` takes the rank
    /// of `(shuffle_i, i)` among all the draws as its id.
    fn shuffled_jobs(raw: &[(EdgeDraw, u32)]) -> Vec<TransientJob> {
        let draws: Vec<EdgeDraw> = raw.iter().map(|&(draw, _)| draw).collect();
        let mut jobs = edge_case_jobs(&draws, 0.1);
        let mut ranks: Vec<(u32, usize)> = raw.iter().map(|r| r.1).zip(0..).collect();
        ranks.sort_unstable();
        for (rank, &(_, i)) in ranks.iter().enumerate() {
            jobs[i].id = JobId(rank as u64);
        }
        jobs
    }

    proptest! {
        /// The refilled groups are the reference Algorithm 1's jobs
        /// grouped by `(level, id)`: levels ascending, unselected jobs
        /// last, ids ascending inside a level. The order is refilled into
        /// the buffers of an earlier, unrelated one, which leaves nothing
        /// of it behind.
        #[test]
        fn refill_groups_algorithm1_output_by_level_then_id(
            earlier in prop::collection::vec(
                (((0usize..16, 0.0f64..30.0), (0usize..16, 0.0f64..60.0)), 0u32..1000),
                0..40,
            ),
            raw in prop::collection::vec(
                (((0usize..16, 0.0f64..30.0), (0usize..16, 0.0f64..60.0)), 0u32..1000),
                0..300,
            ),
        ) {
            let mut order = PriorityOrder::default();
            order.refill(&shuffled_jobs(&earlier));
            let jobs = shuffled_jobs(&raw);
            order.refill(&jobs);
            let groups: Vec<(u32, Vec<JobId>)> =
                order.groups().map(|(level, m)| (level, m.to_vec())).collect();
            let reference = reference_transient_schedule(&jobs);
            let mut by_level: Vec<(u32, JobId)> = reference
                .priorities
                .iter()
                .zip(&jobs)
                .map(|(&level, job)| (level, job.id))
                .collect();
            by_level.sort_unstable();
            let expected: Vec<(u32, Vec<JobId>)> = by_level
                .chunk_by(|a, b| a.0 == b.0)
                .map(|level| (level[0].0, level.iter().map(|&(_, id)| id).collect()))
                .collect();
            prop_assert_eq!(groups, expected);
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
