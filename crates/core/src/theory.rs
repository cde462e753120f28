//! Competitive-ratio machinery for §4.2.2 / §5.1.
//!
//! * [`theorem1_bound`] — the `6R` competitive ratio of Theorem 1 (the
//!   transient Algorithm 1 without cloning, `R = sup h`).
//! * [`dollymp_augmented_ratio`] / [`hrdf_augmented_ratio`] — the
//!   `(3+3ε)/ε` vs `(5+3ε)/ε` comparison of §5.1's discussion, showing
//!   DollyMP beats HRDF under the same `(2+ε)`-capacity augmentation.
//! * [`BruteForceOptimal`] — an exact minimum-flowtime scheduler for tiny
//!   instances (exhaustive search with branch-and-bound), used to check
//!   the competitive bounds empirically.
//! * [`list_schedule_flowtime`] — the non-preemptive, work-conserving list
//!   scheduler that executes a given priority order; combined with
//!   Algorithm 1's order this reproduces the transient scheduling process
//!   on one machine.

use crate::resources::Resources;
use crate::time::{Duration, Time};
use serde::{Deserialize, Serialize};

/// Theorem 1: Algorithm 1 without cloning is `6R`-competitive for total
/// flowtime when `h` is bounded by `R`.
pub fn theorem1_bound(r_sup: f64) -> f64 {
    6.0 * r_sup
}

/// §5.1 discussion: DollyMP's online competitive ratio `(3 + 3ε)/ε` under
/// `(2+ε)`-capacity augmentation with no stragglers.
///
/// # Panics
/// Panics for `ε ≤ 0`.
pub fn dollymp_augmented_ratio(epsilon: f64) -> f64 {
    assert!(epsilon > 0.0, "capacity augmentation needs ε > 0");
    (3.0 + 3.0 * epsilon) / epsilon
}

/// §5.1 discussion: the HRDF policy of Fox & Korupolu achieves
/// `(5 + 3ε)/ε` under the same augmentation — strictly worse than
/// [`dollymp_augmented_ratio`] for every `ε`.
pub fn hrdf_augmented_ratio(epsilon: f64) -> f64 {
    assert!(epsilon > 0.0, "capacity augmentation needs ε > 0");
    (5.0 + 3.0 * epsilon) / epsilon
}

/// A single-task job for the tiny-instance solvers: deterministic
/// duration, one resource demand, release time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfJob {
    /// Release (arrival) time.
    pub arrival: Time,
    /// Deterministic processing time (slots, ≥ 1).
    pub duration: Duration,
    /// Resource demand.
    pub demand: Resources,
}

/// Exact minimum total flowtime by exhaustive search.
///
/// The search branches, at every decision instant, on either starting one
/// waiting job (canonically, in increasing index order within the same
/// instant) or sealing the instant and advancing to the next event. A
/// branch-and-bound lower bound (`each unstarted job finishes no earlier
/// than max(now, arrival) + duration`) keeps tiny instances (≤ ~8 jobs)
/// fast. Non-preemptive, single resource pool (one server).
#[derive(Debug, Clone)]
pub struct BruteForceOptimal {
    /// Server capacity.
    pub capacity: Resources,
    /// The jobs to schedule.
    pub jobs: Vec<BfJob>,
}

/// Hard cap on instance size; the search is exponential.
pub const BRUTE_FORCE_MAX_JOBS: usize = 10;

impl BruteForceOptimal {
    /// Construct a solver.
    ///
    /// # Panics
    /// Panics when more than [`BRUTE_FORCE_MAX_JOBS`] jobs are supplied,
    /// when a job has zero duration, or when a demand exceeds capacity
    /// (such a job can never run).
    pub fn new(capacity: Resources, jobs: Vec<BfJob>) -> Self {
        assert!(
            jobs.len() <= BRUTE_FORCE_MAX_JOBS,
            "brute force capped at {BRUTE_FORCE_MAX_JOBS} jobs"
        );
        for (i, j) in jobs.iter().enumerate() {
            assert!(j.duration >= 1, "job {i} has zero duration");
            assert!(
                j.demand.fits_in(capacity),
                "job {i} demand {} exceeds capacity {}",
                j.demand,
                capacity
            );
        }
        BruteForceOptimal { capacity, jobs }
    }

    /// The minimum achievable total flowtime `Σ (f_j − a_j)`.
    pub fn min_total_flowtime(&self) -> u64 {
        if self.jobs.is_empty() {
            return 0;
        }
        let t0 = self.jobs.iter().map(|j| j.arrival).min().unwrap_or(0);
        let mut best = u64::MAX;
        let mut running: Vec<(Time, Resources)> = Vec::new();
        self.dfs(
            t0,
            &mut running,
            (1u32 << self.jobs.len()) - 1,
            0,
            0,
            &mut best,
        );
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        now: Time,
        running: &mut Vec<(Time, Resources)>,
        unstarted: u32,
        acc: u64,
        min_idx: usize,
        best: &mut u64,
    ) {
        // Branch & bound: every unstarted job finishes no earlier than
        // max(now, arrival) + duration.
        let mut bound = acc;
        let mut m = unstarted;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let j = &self.jobs[i];
            bound += now.max(j.arrival) + j.duration - j.arrival;
        }
        if bound >= *best {
            return;
        }
        if unstarted == 0 {
            *best = (*best).min(acc);
            return;
        }

        let used: Resources = running.iter().map(|&(_, d)| d).sum();
        let free = self.capacity.saturating_sub(used);

        // Option A: start one waiting job (index ≥ min_idx for canonical
        // ordering inside a single instant).
        let mut any_startable = false;
        for i in min_idx..self.jobs.len() {
            if unstarted & (1 << i) == 0 {
                continue;
            }
            let j = &self.jobs[i];
            if j.arrival > now || !j.demand.fits_in(free) {
                continue;
            }
            any_startable = true;
            let finish = now + j.duration;
            running.push((finish, j.demand));
            self.dfs(
                now,
                running,
                unstarted & !(1 << i),
                acc + (finish - j.arrival),
                i + 1,
                best,
            );
            running.pop();
        }
        // Also allow starting a lower-indexed job *after* a completion
        // event moved time forward: min_idx only constrains same-instant
        // sequences, so option B resets it.

        // Option B: seal this instant; advance to the next event.
        let next_end = running.iter().map(|&(e, _)| e).min();
        let next_arrival = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| unstarted & (1 << i) != 0 && j.arrival > now)
            .map(|(_, j)| j.arrival)
            .min();
        let next = match (next_end, next_arrival) {
            (Some(e), Some(a)) => Some(e.min(a)),
            (Some(e), None) => Some(e),
            (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        match next {
            Some(t) => {
                let mut kept: Vec<(Time, Resources)> =
                    running.iter().copied().filter(|&(e, _)| e > t).collect();
                std::mem::swap(running, &mut kept);
                self.dfs(t, running, unstarted, acc, 0, best);
                std::mem::swap(running, &mut kept);
            }
            None => {
                // Nothing running, nothing arriving later, yet jobs remain
                // unstarted: sealing would deadlock. Valid only if option A
                // had no feasible start — impossible here because every
                // job fits an empty server; so this branch is simply dead
                // unless a start existed, in which case skip it.
                debug_assert!(any_startable, "deadlocked search state");
            }
        }
    }
}

/// Non-preemptive, work-conserving list scheduling of single-task jobs on
/// one resource pool, honoring a fixed priority order. Returns the total
/// flowtime. This is how the transient process of Algorithm 1 executes its
/// priority list (§4.2): at every event, scan the order and start every
/// waiting job that fits.
///
/// # Panics
/// Panics when `order` is not a permutation of `0..jobs.len()` or when a
/// demand exceeds capacity.
pub fn list_schedule_flowtime(jobs: &[BfJob], capacity: Resources, order: &[usize]) -> u64 {
    assert_eq!(order.len(), jobs.len(), "order must cover all jobs");
    let mut seen = vec![false; jobs.len()];
    for &i in order {
        assert!(i < jobs.len() && !seen[i], "order must be a permutation");
        seen[i] = true;
        assert!(
            jobs[i].demand.fits_in(capacity),
            "job {i} can never fit capacity"
        );
    }
    if jobs.is_empty() {
        return 0;
    }

    let mut unstarted: Vec<bool> = vec![true; jobs.len()];
    let mut running: Vec<(Time, Resources)> = Vec::new();
    let mut now = jobs.iter().map(|j| j.arrival).min().unwrap();
    let mut total_flow = 0u64;
    let mut remaining = jobs.len();

    while remaining > 0 {
        // Start everything that fits, in priority order.
        let mut used: Resources = running.iter().map(|&(_, d)| d).sum();
        for &i in order {
            if !unstarted[i] || jobs[i].arrival > now {
                continue;
            }
            let free = capacity.saturating_sub(used);
            if jobs[i].demand.fits_in(free) {
                let finish = now + jobs[i].duration;
                running.push((finish, jobs[i].demand));
                used += jobs[i].demand;
                unstarted[i] = false;
                remaining -= 1;
                total_flow += finish - jobs[i].arrival;
            }
        }
        // Advance to the next event.
        let next_end = running.iter().map(|&(e, _)| e).min();
        let next_arrival = jobs
            .iter()
            .enumerate()
            .filter(|&(i, j)| unstarted[i] && j.arrival > now)
            .map(|(_, j)| j.arrival)
            .min();
        now = match (next_end, next_arrival) {
            (Some(e), Some(a)) => e.min(a),
            (Some(e), None) => e,
            (None, Some(a)) => a,
            (None, None) => break,
        };
        running.retain(|&(e, _)| e > now);
    }
    total_flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::transient::{transient_schedule, TransientJob};
    use proptest::prelude::*;

    fn res(c: f64, m: f64) -> Resources {
        Resources::new(c, m)
    }

    #[test]
    fn ratio_formulas() {
        assert_eq!(theorem1_bound(1.0), 6.0);
        assert_eq!(theorem1_bound(2.0), 12.0);
        // DollyMP strictly beats HRDF at every ε.
        for &eps in &[0.01, 0.1, 1.0, 10.0] {
            assert!(dollymp_augmented_ratio(eps) < hrdf_augmented_ratio(eps));
        }
        assert!((dollymp_augmented_ratio(1.0) - 6.0).abs() < 1e-12);
        assert!((hrdf_augmented_ratio(1.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn brute_force_trivial_cases() {
        let cap = res(1.0, 1.0);
        assert_eq!(BruteForceOptimal::new(cap, vec![]).min_total_flowtime(), 0);
        let one = BfJob {
            arrival: 0,
            duration: 5,
            demand: res(1.0, 1.0),
        };
        assert_eq!(
            BruteForceOptimal::new(cap, vec![one]).min_total_flowtime(),
            5
        );
    }

    #[test]
    fn brute_force_srpt_on_serial_jobs() {
        // Two full-capacity jobs, durations 1 and 10: SRPT gives 1 + 11 = 12.
        let cap = res(1.0, 1.0);
        let jobs = vec![
            BfJob {
                arrival: 0,
                duration: 10,
                demand: cap,
            },
            BfJob {
                arrival: 0,
                duration: 1,
                demand: cap,
            },
        ];
        assert_eq!(BruteForceOptimal::new(cap, jobs).min_total_flowtime(), 12);
    }

    #[test]
    fn brute_force_packs_parallel_jobs() {
        // Two half-capacity jobs run together: flow 5 + 5 = 10.
        let cap = res(1.0, 1.0);
        let j = BfJob {
            arrival: 0,
            duration: 5,
            demand: res(0.5, 0.5),
        };
        assert_eq!(
            BruteForceOptimal::new(cap, vec![j, j]).min_total_flowtime(),
            10
        );
    }

    #[test]
    fn brute_force_can_prefer_idling() {
        // The Fig. 2 lesson: a big job first can be wrong even if it fits.
        // Job A: demand 1.0, duration 10. Jobs B, C: demand 0.5, duration 2.
        // A-first: 10 + 12 + 12 = 34. B,C-first: 2 + 2 + 12 = 16.
        let cap = res(1.0, 1.0);
        let jobs = vec![
            BfJob {
                arrival: 0,
                duration: 10,
                demand: res(1.0, 1.0),
            },
            BfJob {
                arrival: 0,
                duration: 2,
                demand: res(0.5, 0.5),
            },
            BfJob {
                arrival: 0,
                duration: 2,
                demand: res(0.5, 0.5),
            },
        ];
        assert_eq!(BruteForceOptimal::new(cap, jobs).min_total_flowtime(), 16);
    }

    #[test]
    fn brute_force_respects_arrivals() {
        let cap = res(1.0, 1.0);
        let jobs = vec![BfJob {
            arrival: 7,
            duration: 3,
            demand: cap,
        }];
        assert_eq!(BruteForceOptimal::new(cap, jobs).min_total_flowtime(), 3);
    }

    #[test]
    fn list_schedule_matches_hand_computation() {
        let cap = res(1.0, 1.0);
        let jobs = vec![
            BfJob {
                arrival: 0,
                duration: 10,
                demand: res(1.0, 1.0),
            }, // big
            BfJob {
                arrival: 0,
                duration: 2,
                demand: res(0.5, 0.5),
            },
            BfJob {
                arrival: 0,
                duration: 2,
                demand: res(0.5, 0.5),
            },
        ];
        // Small-first order: B and C at t=0 (flow 2 + 2), A at t=2 (flow 12).
        assert_eq!(list_schedule_flowtime(&jobs, cap, &[1, 2, 0]), 16);
        // Big-first order: A at 0 (flow 10), B/C at 10 (flow 12 each).
        assert_eq!(list_schedule_flowtime(&jobs, cap, &[0, 1, 2]), 34);
    }

    #[test]
    fn list_schedule_skips_over_blocked_heads() {
        // Head of the order doesn't fit now, but a later job does:
        // work conservation starts the later one.
        let cap = res(1.0, 1.0);
        let jobs = vec![
            BfJob {
                arrival: 0,
                duration: 4,
                demand: res(0.8, 0.8),
            },
            BfJob {
                arrival: 0,
                duration: 4,
                demand: res(0.8, 0.8),
            },
            BfJob {
                arrival: 0,
                duration: 4,
                demand: res(0.2, 0.2),
            },
        ];
        // Order big, big, small: first big starts; second blocked; small
        // fits alongside → finishes at 4 too.
        let flow = list_schedule_flowtime(&jobs, cap, &[0, 1, 2]);
        assert_eq!(flow, 4 + 8 + 4);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn list_schedule_rejects_bad_order() {
        let cap = res(1.0, 1.0);
        let j = BfJob {
            arrival: 0,
            duration: 1,
            demand: cap,
        };
        let _ = list_schedule_flowtime(&[j, j], cap, &[0, 0]);
    }

    /// Build Algorithm-1 inputs from BfJobs on a unit-capacity server.
    fn transient_inputs(jobs: &[BfJob], cap: Resources) -> Vec<TransientJob> {
        jobs.iter()
            .enumerate()
            .map(|(i, j)| {
                let d = crate::resources::dominant_share(j.demand, cap);
                TransientJob {
                    id: JobId(i as u64),
                    volume: d * j.duration as f64,
                    etime: j.duration as f64,
                    dominant: d,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Brute force is a true lower bound for any list order.
        #[test]
        fn brute_force_lower_bounds_list_schedules(
            raw in prop::collection::vec((1u64..6, 1u32..10, 1u32..10), 1..6)
        ) {
            let cap = res(1.0, 1.0);
            let jobs: Vec<BfJob> = raw.iter().map(|&(d, c, m)| BfJob {
                arrival: 0,
                duration: d,
                demand: res(c as f64 / 10.0, m as f64 / 10.0),
            }).collect();
            let opt = BruteForceOptimal::new(cap, jobs.clone()).min_total_flowtime();
            let order: Vec<usize> = (0..jobs.len()).collect();
            let listed = list_schedule_flowtime(&jobs, cap, &order);
            prop_assert!(opt <= listed);
        }

        /// Empirical Theorem 1: Algorithm 1's order, executed by the list
        /// scheduler, is within 6R (R = 1, no cloning) of optimal on
        /// transient single-server instances.
        #[test]
        fn algorithm1_is_6r_competitive_on_tiny_instances(
            raw in prop::collection::vec((1u64..8, 1u32..10, 1u32..10), 1..6)
        ) {
            let cap = res(1.0, 1.0);
            let jobs: Vec<BfJob> = raw.iter().map(|&(d, c, m)| BfJob {
                arrival: 0,
                duration: d,
                demand: res(c as f64 / 10.0, m as f64 / 10.0),
            }).collect();
            let inputs = transient_inputs(&jobs, cap);
            let out = transient_schedule(&inputs);
            let flow = list_schedule_flowtime(&jobs, cap, &out.order);
            let opt = BruteForceOptimal::new(cap, jobs.clone()).min_total_flowtime();
            prop_assert!(opt > 0);
            prop_assert!(
                flow as f64 <= theorem1_bound(1.0) * opt as f64 + 1e-9,
                "flow {} > 6 × opt {}", flow, opt
            );
        }
    }
}
