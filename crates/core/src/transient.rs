//! Algorithm 1 — the *transient scheduling process*.
//!
//! Given a set of jobs with effective volumes `v_j` and effective
//! processing times `e_j`, Algorithm 1 assigns each job a **priority
//! level** by solving a sequence of unit-profit knapsack problems over
//! doubling time horizons:
//!
//! 1. `g = log₂( Σ_j v_j / (1 − max_j d_j) )` levels are considered.
//! 2. At level `l`, the candidate set is `B_l = { j : e_j ≤ 2ˡ }` — jobs
//!    whose processing time fits the horizon.
//! 3. A knapsack packs as many candidates as possible subject to total
//!    volume ≤ `2ˡ`; each job newly packed at level `l` gets priority
//!    `p_j = l`.
//! 4. Jobs are then scheduled in increasing priority order; all jobs
//!    sharing one level are treated equally (the online scheduler breaks
//!    ties by Tetris-style best fit).
//!
//! Corollary 4.1 also derives a per-job clone count `r_j` from the level
//! horizon; DollyMP does not compute it, since its clone pass caps every
//! task at §5's flat budget instead (`ClonePolicy`).

use crate::job::JobId;
use crate::knapsack::weight_order_into;
use serde::{Deserialize, Serialize};

/// Priority assigned to jobs never selected by any knapsack level (they
/// sort after every selected job).
pub const PRIORITY_UNSELECTED: u32 = u32::MAX;

/// Hard cap on the number of doubling levels; `2^60` time units exceeds
/// any realistic horizon and caps work even on adversarial inputs.
pub(crate) const MAX_LEVELS: u32 = 60;

/// Per-job input to Algorithm 1: the scalar summary DollyMP schedules on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientJob {
    /// Job identity (passed through to the output).
    pub id: JobId,
    /// Effective volume `v_j` (Eq. 14/16).
    pub volume: f64,
    /// Effective processing time `e_j` (Eq. 14/17).
    pub etime: f64,
    /// Maximum dominant share `d_j` over the job's phases (Eq. 15).
    pub dominant: f64,
}

/// Result of Algorithm 1, aligned with the input job slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientOutput {
    /// `priorities[i]` is the knapsack level at which input job `i` was
    /// first packed, or [`PRIORITY_UNSELECTED`].
    pub priorities: Vec<u32>,
    /// Input indices sorted by `(priority, volume, JobId)`: smallest
    /// volume first within a level (volumes compared by
    /// [`f64::total_cmp`]), the list order the theory code executes.
    /// The online pass does not read it:
    /// [`PriorityOrder::refill`](crate::online::PriorityOrder::refill)
    /// runs the same level assignment and groups each level by id.
    pub order: Vec<usize>,
    /// Number of doubling levels `g` actually used.
    pub levels: u32,
}

/// Run Algorithm 1 over a job set.
///
/// The returned priorities are *levels*: smaller is scheduled earlier, and
/// jobs sharing a level are peers (tie-broken downstream by resource fit).
///
/// ```
/// use dollymp_core::prelude::*;
/// let mk = |id, v, e| TransientJob { id: JobId(id), volume: v, etime: e, dominant: 0.1 };
/// // A tiny fast job, a mid job and a huge slow job.
/// let jobs = vec![mk(0, 0.5, 1.5), mk(1, 1.0, 3.0), mk(2, 40.0, 60.0)];
/// let out = transient_schedule(&jobs);
/// assert!(out.priorities[0] <= out.priorities[1]);
/// assert!(out.priorities[1] < out.priorities[2]);
/// ```
pub fn transient_schedule(jobs: &[TransientJob]) -> TransientOutput {
    let mut run = LevelAssignment::default();
    let levels = run.assign(jobs);
    let priorities = run.priorities;
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        priorities[a]
            .cmp(&priorities[b])
            .then(jobs[a].volume.total_cmp(&jobs[b].volume))
            .then(jobs[a].id.cmp(&jobs[b].id))
    });
    TransientOutput {
        priorities,
        order,
        levels,
    }
}

/// The horizon `2ˡ` of level `l` (exact: `l ≤ MAX_LEVELS`).
fn horizon(l: u32) -> f64 {
    (1u64 << l) as f64
}

/// Algorithm 1's level assignment on buffers that persist across runs, so
/// a run allocates nothing once they have grown to the job count.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelAssignment {
    /// The knapsack's greedy order over the job set:
    /// [`weight_order_into`] keys of the clamped volumes.
    keys: Vec<(u64, u32)>,
    /// Per input job, the smallest level `l ∈ 1..=g` whose horizon covers
    /// its effective processing time, `g + 1` when none does.
    first_level: Vec<u32>,
    /// Per input job, the level at which it was first packed, or
    /// [`PRIORITY_UNSELECTED`].
    pub(crate) priorities: Vec<u32>,
}

impl LevelAssignment {
    /// Assign every job of `jobs` its level in `priorities` and return the
    /// number of levels `g` (0 for no jobs).
    pub(crate) fn assign(&mut self, jobs: &[TransientJob]) -> u32 {
        self.priorities.clear();
        self.priorities.resize(jobs.len(), PRIORITY_UNSELECTED);
        if jobs.is_empty() {
            return 0;
        }

        // g = log2( Σ v / (1 − max d) ), stretched so the largest e_j fits
        // at least one level and clamped to a sane range.
        let total_volume: f64 = jobs.iter().map(|j| j.volume.max(0.0)).sum();
        let max_dom = jobs
            .iter()
            .map(|j| j.dominant)
            .fold(0.0f64, f64::max)
            .clamp(0.0, 0.99);
        let max_etime = jobs.iter().map(|j| j.etime).fold(0.0f64, f64::max);
        let g_volume = (total_volume / (1.0 - max_dom)).max(1.0).log2().ceil() as i64;
        let g_etime = max_etime.max(1.0).log2().ceil() as i64;
        let g = g_volume.max(g_etime).max(1).min(MAX_LEVELS as i64) as u32;

        // Every level solves a unit-profit knapsack over the SAME job set,
        // so the increasing-weight greedy order is computed once and
        // reused; each level filters it by horizon eligibility on the fly.
        // This is decision-identical to a per-level `unit_profit_knapsack`
        // call: filtering a sorted sequence preserves its order, and the
        // greedy still stops at the first *eligible* item that overflows
        // the budget. Jobs with an infinite volume get no key: no level
        // packs them.
        weight_order_into(jobs.iter().map(|j| j.volume.max(0.0)), &mut self.keys);
        // Eligibility `e_j ≤ 2ˡ` is monotone in `l`, so the hot per-level
        // filter reduces to one integer comparison.
        self.first_level.clear();
        self.first_level.extend(
            jobs.iter()
                .map(|j| (1..=g).find(|&l| j.etime <= horizon(l)).unwrap_or(g + 1)),
        );

        let mut selected = 0usize;
        for l in 1..=g {
            let budget = horizon(l);
            // B_l: jobs completing within the horizon. The knapsack
            // re-packs previously selected jobs too (their volume still
            // occupies the budget), exactly as in the pseudo-code.
            let mut used = 0.0f64;
            for &(bits, i) in &self.keys {
                let i = i as usize;
                if self.first_level[i] > l {
                    continue;
                }
                let weight = f64::from_bits(bits);
                if used + weight > budget {
                    // Weights ascend along the keys: no later candidate
                    // fits.
                    break;
                }
                used += weight;
                if self.priorities[i] == PRIORITY_UNSELECTED {
                    self.priorities[i] = l;
                    selected += 1;
                }
            }
            if selected == self.keys.len() {
                // Only keyed jobs are ever packed.
                break;
            }
        }
        g
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(id: u64, volume: f64, etime: f64) -> TransientJob {
        TransientJob {
            id: JobId(id),
            volume,
            etime,
            dominant: 0.1,
        }
    }

    #[test]
    fn empty_input() {
        let out = transient_schedule(&[]);
        assert!(out.priorities.is_empty());
        assert_eq!(out.levels, 0);
    }

    #[test]
    fn single_small_job_gets_level_one() {
        let out = transient_schedule(&[job(0, 1.0, 1.0)]);
        assert_eq!(out.priorities, vec![1]);
        assert_eq!(out.order, vec![0]);
    }

    #[test]
    fn small_jobs_beat_large_jobs() {
        let jobs = vec![job(0, 100.0, 200.0), job(1, 0.5, 1.0), job(2, 2.0, 3.0)];
        let out = transient_schedule(&jobs);
        assert!(out.priorities[1] < out.priorities[0]);
        assert!(out.priorities[2] < out.priorities[0]);
        assert_eq!(out.order[0], 1);
        assert_eq!(*out.order.last().unwrap(), 0);
    }

    #[test]
    fn short_but_fat_job_deferred_past_its_duration_level() {
        // e = 1 fits level 1 (horizon 2) but volume 10 does not; it must
        // wait for the level whose budget holds it (2^4 = 16 also packs
        // the small job's 1.0 → both picked, big one later or equal).
        let jobs = vec![job(0, 10.0, 1.0), job(1, 1.0, 1.0)];
        let out = transient_schedule(&jobs);
        assert!(out.priorities[1] < out.priorities[0]);
    }

    #[test]
    fn equal_jobs_fill_levels_in_index_order() {
        // Four unit-volume jobs, level-1 budget of 2: the first two jobs
        // land on level 1, the rest spill to level 2 when the budget
        // doubles (the doubling structure of Algorithm 1).
        let jobs: Vec<_> = (0..4).map(|i| job(i, 1.0, 2.0)).collect();
        let out = transient_schedule(&jobs);
        assert_eq!(out.priorities, vec![1, 1, 2, 2]);
        assert_eq!(out.order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn order_is_priority_then_volume() {
        let jobs = vec![job(0, 1.5, 2.0), job(1, 0.3, 2.0), job(2, 30.0, 50.0)];
        let out = transient_schedule(&jobs);
        assert_eq!(out.order[0], 1, "same level → smaller volume first");
        assert_eq!(out.order[1], 0);
        assert_eq!(out.order[2], 2);
    }

    #[test]
    fn hand_computed_doubling_levels() {
        // Five jobs, dominant share 0.1 each, so g = ⌈log₂(Σv/0.9)⌉ = 6:
        //   A: v=1,   e=2   → level 1 (budget 2 holds only A)
        //   B: v=1.5, e=2   → level 2 (budget 4 holds A+B = 2.5)
        //   C: v=3,   e=4   → level 3 (budget 8 holds 5.5, not 13.5)
        //   D: v=8,   e=8   → level 4 (budget 16 holds 13.5)
        //   E: v=20,  e=30  → level 6 (budget 32 misses 33.5; 64 fits)
        let jobs = vec![
            job(0, 1.0, 2.0),
            job(1, 1.5, 2.0),
            job(2, 3.0, 4.0),
            job(3, 8.0, 8.0),
            job(4, 20.0, 30.0),
        ];
        let out = transient_schedule(&jobs);
        assert_eq!(out.levels, 6);
        assert_eq!(out.priorities, vec![1, 2, 3, 4, 6]);
        assert_eq!(out.order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn degenerate_dominant_share_clamped() {
        let mut j = job(0, 1.0, 1.0);
        j.dominant = 1.0; // would divide by zero without clamping
        let out = transient_schedule(&[j]);
        assert_ne!(out.priorities[0], PRIORITY_UNSELECTED);
    }

    proptest! {
        /// Every job is eventually selected (g is stretched to cover the
        /// longest job), and priorities respect weak volume dominance:
        /// strictly smaller volume AND etime never yields a strictly
        /// larger level... (they may tie).
        #[test]
        fn all_jobs_selected_and_monotone(
            raw in prop::collection::vec((0.01f64..50.0, 0.1f64..100.0), 1..20)
        ) {
            let jobs: Vec<TransientJob> = raw.iter().enumerate()
                .map(|(i, &(v, e))| job(i as u64, v, e)).collect();
            let out = transient_schedule(&jobs);
            for &p in &out.priorities {
                prop_assert!(p != PRIORITY_UNSELECTED);
                prop_assert!(p >= 1 && p <= out.levels);
            }
            for a in 0..jobs.len() {
                for b in 0..jobs.len() {
                    if jobs[a].volume < jobs[b].volume && jobs[a].etime <= jobs[b].etime {
                        prop_assert!(
                            out.priorities[a] <= out.priorities[b],
                            "dominated job {} (v={}, e={}) ranked before dominating job {} (v={}, e={})",
                            b, jobs[b].volume, jobs[b].etime, a, jobs[a].volume, jobs[a].etime
                        );
                    }
                }
            }
        }

        /// The key-sorted level loop is decision-identical to the
        /// per-level reading of Algorithm 1, on tied weights, signed
        /// zeros, infinities, NaNs, etimes exactly at a horizon `2ˡ`, and
        /// job sets large enough for the sort to leave its small-input
        /// path.
        #[test]
        fn matches_reference_implementation(
            raw in prop::collection::vec(
                ((0usize..16, 0.0f64..80.0), (0usize..16, 0.0f64..200.0)),
                0..600,
            ),
            dominant in 0.0f64..=1.0,
        ) {
            let jobs = edge_case_jobs(&raw, dominant);
            prop_assert_eq!(
                transient_schedule(&jobs),
                reference_transient_schedule(&jobs)
            );
        }

        /// The order permutation is a valid permutation sorted by priority.
        #[test]
        fn order_is_permutation(
            raw in prop::collection::vec((0.01f64..20.0, 0.1f64..40.0), 0..15)
        ) {
            let jobs: Vec<TransientJob> = raw.iter().enumerate()
                .map(|(i, &(v, e))| job(i as u64, v, e)).collect();
            let out = transient_schedule(&jobs);
            let mut seen = vec![false; jobs.len()];
            for &i in &out.order {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
            for w in out.order.windows(2) {
                prop_assert!(out.priorities[w[0]] <= out.priorities[w[1]]);
            }
        }
    }

    /// A volume: one of a few special values or tie-prone constants by
    /// `code`, else `x`.
    fn edge_volume(code: usize, x: f64) -> f64 {
        match code {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NAN,
            4..=7 => [0.5, 1.0, 2.0, 3.0][code - 4],
            _ => x,
        }
    }

    /// An effective time: a special value, exactly a horizon `2ˡ`, or `x`.
    fn edge_etime(code: usize, x: f64) -> f64 {
        match code {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NAN,
            4..=9 => (2f64).powi(code as i32 - 4),
            _ => x,
        }
    }

    /// One job's draw: `((volume code, volume), (etime code, etime))`,
    /// read by [`edge_volume`] and [`edge_etime`].
    pub(crate) type EdgeDraw = ((usize, f64), (usize, f64));

    /// Algorithm 1 inputs from draws, ids in input order.
    pub(crate) fn edge_case_jobs(raw: &[EdgeDraw], dominant: f64) -> Vec<TransientJob> {
        raw.iter()
            .enumerate()
            .map(|(i, &((vc, v), (ec, e)))| TransientJob {
                id: JobId(i as u64),
                volume: edge_volume(vc, v),
                etime: edge_etime(ec, e),
                dominant,
            })
            .collect()
    }

    /// Algorithm 1 read level by level: at each level `l ≤ g`, the
    /// candidate set `B_l = { j : e_j ≤ 2ˡ }` is packed by a fresh greedy
    /// unit-profit knapsack (increasing weight, ties by index, weights
    /// `max(v_j, 0)` that are not finite skipped) against the budget `2ˡ`,
    /// and each newly packed job takes level `l`. The test oracle for the
    /// key-sorted level loop: it shares no sort with it.
    pub(crate) fn reference_transient_schedule(jobs: &[TransientJob]) -> TransientOutput {
        let n = jobs.len();
        let mut priorities = vec![PRIORITY_UNSELECTED; n];
        if n == 0 {
            return TransientOutput {
                priorities,
                order: Vec::new(),
                levels: 0,
            };
        }
        let total_volume: f64 = jobs.iter().map(|j| j.volume.max(0.0)).sum();
        let max_dom = jobs
            .iter()
            .map(|j| j.dominant)
            .fold(0.0f64, f64::max)
            .clamp(0.0, 0.99);
        let max_etime = jobs.iter().map(|j| j.etime).fold(0.0f64, f64::max);
        let g_volume = (total_volume / (1.0 - max_dom)).max(1.0).log2().ceil() as i64;
        let g_etime = max_etime.max(1.0).log2().ceil() as i64;
        let g = g_volume.max(g_etime).max(1).min(MAX_LEVELS as i64) as u32;
        for l in 1..=g {
            let budget = (2f64).powi(l as i32);
            let weight = |i: usize| jobs[i].volume.max(0.0);
            let mut candidates: Vec<usize> = (0..n)
                .filter(|&i| jobs[i].etime <= budget && weight(i).is_finite())
                .collect();
            candidates.sort_by(|&a, &b| {
                weight(a)
                    .partial_cmp(&weight(b))
                    .expect("finite weights")
                    .then(a.cmp(&b))
            });
            let mut used = 0.0f64;
            for i in candidates {
                if used + weight(i) > budget {
                    break;
                }
                used += weight(i);
                if priorities[i] == PRIORITY_UNSELECTED {
                    priorities[i] = l;
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            priorities[a]
                .cmp(&priorities[b])
                .then(jobs[a].volume.total_cmp(&jobs[b].volume))
                .then(jobs[a].id.cmp(&jobs[b].id))
        });
        TransientOutput {
            priorities,
            order,
            levels: g,
        }
    }

    #[test]
    fn infinite_volume_never_packed_like_reference() {
        let mut jobs = vec![job(0, 1.0, 2.0), job(1, f64::INFINITY, 2.0)];
        jobs.push(job(2, 2.0, 3.0));
        let out = transient_schedule(&jobs);
        assert_eq!(out.priorities[1], PRIORITY_UNSELECTED);
        assert_eq!(out, reference_transient_schedule(&jobs));
    }
}
