//! Stochastic task execution: straggler models and paired duration
//! sampling.
//!
//! ## Straggler model
//!
//! The analytical model (§3) fits a Type-I Pareto distribution to each
//! phase's `(θ, σ)`; the trace simulator (§6.3) replays empirical
//! durations where stragglers run up to 20× slower than normal tasks.
//! [`StragglerModel`] supports both views plus a deterministic mode for
//! worked examples like Fig. 2.
//!
//! ## Paired sampling
//!
//! Comparing schedulers fairly requires that the *same* task observe the
//! *same* base duration under every scheduler (§6's experiments replay one
//! workload against many schedulers). All draws therefore come from
//! counter-based RNGs seeded by `(workload_seed, job, phase)` — completely
//! independent of scheduling decisions. Per §6.3, *"the running time of
//! each clone \[is\] the same as that of a task randomly chosen from the
//! same job phase"*: a phase's durations are pre-drawn into a table; the
//! primary copy of task `l` reads `table[l]`, and clone copy `k` reads a
//! random index chosen by a seed derived from `(job, phase, task, k)`.
//!
//! Server effects (speed, locality) are applied *at placement* by the
//! engine, on top of the paired base duration.

use dollymp_core::job::{JobId, JobSpec, PhaseId, PhaseSpec, TaskId};
use dollymp_core::speedup::ParetoDist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How base task durations are drawn around a phase's mean `θ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StragglerModel {
    /// Every task takes exactly `θ` (worked examples, Fig. 2).
    Deterministic,
    /// Durations are Pareto with the phase's `(θ, σ)` moments — the
    /// analytical model of §3. Falls back to deterministic when `σ = 0`.
    ParetoFit,
    /// Empirical-trace style: a task is normal (`≈ θ`) with probability
    /// `1 − straggler_frac`, otherwise inflated by a Pareto factor in
    /// `[1, max_slowdown]`. Matches the §6.3 statistics (70 % of phases
    /// contain > 15 % stragglers, up to 20× slow).
    Bimodal {
        /// Fraction of straggling tasks within a phase.
        straggler_frac: f64,
        /// Pareto tail index of the slowdown factor (heavier when closer
        /// to 1).
        tail_alpha: f64,
        /// Slowdowns are capped here (the traces report up to 20×).
        max_slowdown: f64,
    },
    /// Expectation-based cloning, for worked examples (Fig. 2): primary
    /// copies take exactly `θ`, and the `k`-th copy of a task takes
    /// `θ / h(k+1)` with the Eq. (3) Pareto speedup — so a task with `r`
    /// simultaneous copies finishes in exactly its expected duration
    /// `θ / h(r)`.
    ExpectedSpeedup {
        /// Pareto tail index of the speedup (Fig. 2 uses α = 2.5, where
        /// `h(2) = 4/3` turns 8 s into 6 s).
        alpha: f64,
    },
}

impl StragglerModel {
    /// The §6.3 trace statistics: 15 % stragglers per phase, up to 20×.
    pub fn google_traces() -> Self {
        StragglerModel::Bimodal {
            straggler_frac: 0.15,
            tail_alpha: 1.25,
            max_slowdown: 20.0,
        }
    }
}

/// Deterministic, scheduler-independent duration source for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurationSampler {
    /// Workload-level seed; two runs with equal seeds observe identical
    /// durations regardless of scheduling.
    pub seed: u64,
    /// The straggler model.
    pub model: StragglerModel,
}

impl DurationSampler {
    /// Build a sampler.
    pub fn new(seed: u64, model: StragglerModel) -> Self {
        DurationSampler { seed, model }
    }

    /// Append the pre-drawn duration table of one phase to `out`: entry
    /// `l` is the base duration (in the phase's `θ` units) of task `l`'s
    /// primary copy.
    fn append_phase_table(&self, job: JobId, phase: PhaseId, spec: &PhaseSpec, out: &mut Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, job.0, phase.0 as u64, 0x9e37));
        out.extend((0..spec.ntasks).map(|_| self.draw(&mut rng, spec)));
    }

    /// Every phase's duration table of `job`, concatenated in phase order
    /// — the layout [`crate::state::JobState::new`] takes.
    pub fn job_tables(&self, job: &JobSpec) -> Vec<f64> {
        let mut out = Vec::with_capacity(job.total_tasks() as usize);
        for (pi, p) in job.phases().iter().enumerate() {
            self.append_phase_table(job.id, PhaseId(pi as u32), p, &mut out);
        }
        out
    }

    /// Base duration of copy `copy_idx` of a task. Copy 0 (the primary)
    /// reads its own table slot; clones re-draw a uniformly random slot of
    /// the same phase, per §6.3. For a *degenerate* (single-task) phase
    /// that rule would make the clone an exact duplicate of the primary
    /// — physically a clone is an independent execution — so clones of
    /// singleton phases draw a fresh i.i.d. duration from the phase's
    /// model instead.
    pub fn copy_duration(
        &self,
        job: JobId,
        phase: PhaseId,
        task: TaskId,
        copy_idx: u32,
        spec: &PhaseSpec,
        table: &[f64],
    ) -> f64 {
        debug_assert!(!table.is_empty());
        if let StragglerModel::ExpectedSpeedup { alpha } = self.model {
            use dollymp_core::speedup::{ParetoSpeedup, Speedup};
            let theta = table[task.0 as usize % table.len()];
            return theta / ParetoSpeedup::new(alpha).factor(copy_idx + 1);
        }
        if copy_idx == 0 {
            table[task.0 as usize % table.len()]
        } else {
            let mut rng = SmallRng::seed_from_u64(mix(
                self.seed,
                job.0,
                ((phase.0 as u64) << 32) | task.0 as u64,
                copy_idx as u64,
            ));
            if table.len() == 1 {
                self.draw(&mut rng, spec)
            } else {
                table[rng.gen_range(0..table.len())]
            }
        }
    }

    fn draw(&self, rng: &mut SmallRng, spec: &PhaseSpec) -> f64 {
        match self.model {
            StragglerModel::Deterministic | StragglerModel::ExpectedSpeedup { .. } => spec.theta,
            StragglerModel::ParetoFit => match ParetoDist::fit_from_moments(spec.theta, spec.sigma)
            {
                Some(d) => d.sample_from_uniform(rng.gen_range(f64::MIN_POSITIVE..=1.0)),
                None => spec.theta,
            },
            StragglerModel::Bimodal {
                straggler_frac,
                tail_alpha,
                max_slowdown,
            } => {
                // Normal tasks jitter ±10 % around θ; stragglers inflate by
                // a truncated Pareto factor.
                let base = spec.theta * rng.gen_range(0.9..1.1);
                if rng.gen_bool(straggler_frac.clamp(0.0, 1.0)) {
                    let factor = ParetoDist::new(1.0, tail_alpha.max(1.01))
                        .sample_from_uniform(rng.gen_range(f64::MIN_POSITIVE..=1.0))
                        .min(max_slowdown.max(1.0));
                    base * factor
                } else {
                    base
                }
            }
        }
    }
}

/// The two HDFS-style replica servers holding a task's input block,
/// derived by hashing the task identity over the cluster — the shared
/// block map used by both the engine's locality penalty and the YARN
/// AM's container preferences (§5: "each data block usually keeps two
/// replicas … two clones can maintain a good data locality").
///
/// Deterministic; the two replicas differ whenever the cluster has more
/// than one server.
pub fn block_replicas(
    task: dollymp_core::job::TaskRef,
    nservers: usize,
) -> [crate::spec::ServerId; 2] {
    use crate::spec::ServerId;
    let m = nservers.max(1) as u64;
    let h = mix(
        task.job.0,
        (task.phase.0 as u64) << 32 | task.task.0 as u64,
        0xB10C,
        0,
    );
    let r1 = h % m;
    let mut r2 = (h / m) % m;
    if r2 == r1 {
        r2 = (r1 + 1) % m;
    }
    [ServerId(r1 as u32), ServerId(r2 as u32)]
}

/// SplitMix64-style mixing of several ids into one RNG seed.
fn mix(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(c.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(d.wrapping_mul(0xD6E8FEB86659FD93));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::resources::Resources;

    fn phase(theta: f64, sigma: f64, n: u32) -> PhaseSpec {
        PhaseSpec::new(n, Resources::new(1.0, 1.0), theta, sigma)
    }

    fn phase_table(s: &DurationSampler, job: JobId, phase: PhaseId, spec: &PhaseSpec) -> Vec<f64> {
        let mut t = Vec::new();
        s.append_phase_table(job, phase, spec, &mut t);
        t
    }

    #[test]
    fn deterministic_model_returns_theta() {
        let s = DurationSampler::new(1, StragglerModel::Deterministic);
        let t = phase_table(&s, JobId(0), PhaseId(0), &phase(7.0, 3.0, 5));
        assert!(t.iter().all(|&d| (d - 7.0).abs() < 1e-12));
    }

    #[test]
    fn tables_are_reproducible_and_seed_sensitive() {
        let p = phase(10.0, 4.0, 8);
        let a = DurationSampler::new(5, StragglerModel::ParetoFit);
        let t1 = phase_table(&a, JobId(3), PhaseId(1), &p);
        let t2 = phase_table(&a, JobId(3), PhaseId(1), &p);
        assert_eq!(t1, t2, "same ids → same table");
        let b = DurationSampler::new(6, StragglerModel::ParetoFit);
        assert_ne!(
            t1,
            phase_table(&b, JobId(3), PhaseId(1), &p),
            "seed matters"
        );
        assert_ne!(
            t1,
            phase_table(&a, JobId(4), PhaseId(1), &p),
            "job id matters"
        );
    }

    #[test]
    fn pareto_fit_tables_have_roughly_right_mean() {
        let p = phase(10.0, 5.0, 4000);
        let s = DurationSampler::new(9, StragglerModel::ParetoFit);
        let t = phase_table(&s, JobId(0), PhaseId(0), &p);
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        assert!(
            (mean - 10.0).abs() < 1.0,
            "sample mean {mean} too far from θ = 10"
        );
        assert!(t.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn primary_copy_reads_its_slot_clones_resample() {
        let p = phase(10.0, 5.0, 16);
        let s = DurationSampler::new(11, StragglerModel::ParetoFit);
        let table = phase_table(&s, JobId(1), PhaseId(0), &p);
        for l in 0..16u32 {
            let d = s.copy_duration(JobId(1), PhaseId(0), TaskId(l), 0, &p, &table);
            assert_eq!(d, table[l as usize]);
        }
        // Clone draws come from the table and are deterministic per copy.
        let c1 = s.copy_duration(JobId(1), PhaseId(0), TaskId(3), 1, &p, &table);
        let c1_again = s.copy_duration(JobId(1), PhaseId(0), TaskId(3), 1, &p, &table);
        assert_eq!(c1, c1_again);
        assert!(table.contains(&c1));
        // Different copy indices are (very likely) independent draws.
        let c2 = s.copy_duration(JobId(1), PhaseId(0), TaskId(3), 2, &p, &table);
        assert!(table.contains(&c2));
    }

    #[test]
    fn bimodal_inflates_some_tasks() {
        let p = phase(10.0, 0.0, 4000);
        let s = DurationSampler::new(2, StragglerModel::google_traces());
        let t = phase_table(&s, JobId(0), PhaseId(0), &p);
        let stragglers = t.iter().filter(|&&d| d > 12.0).count();
        let frac = stragglers as f64 / t.len() as f64;
        assert!(
            (0.08..0.25).contains(&frac),
            "straggler fraction {frac} should be near 0.15"
        );
        assert!(
            t.iter().all(|&d| d <= 10.0 * 1.1 * 20.0 + 1e-9),
            "capped at 20×"
        );
    }

    #[test]
    fn expected_speedup_model_shrinks_clones_exactly() {
        use dollymp_core::resources::Resources as R;
        let _ = R::ZERO;
        let p = phase(8.0, 0.0, 2);
        let s = DurationSampler::new(0, StragglerModel::ExpectedSpeedup { alpha: 2.5 });
        let table = phase_table(&s, JobId(0), PhaseId(0), &p);
        assert_eq!(table, vec![8.0, 8.0]);
        // Copy 0 = θ; copy 1 = θ / h(2) = 8 / (4/3) = 6.
        assert_eq!(
            s.copy_duration(JobId(0), PhaseId(0), TaskId(0), 0, &p, &table),
            8.0
        );
        let c1 = s.copy_duration(JobId(0), PhaseId(0), TaskId(0), 1, &p, &table);
        assert!((c1 - 6.0).abs() < 1e-9);
        // Copy 2 = θ / h(3) = 8 / ((2.5 − 1/3)/1.5).
        let c2 = s.copy_duration(JobId(0), PhaseId(0), TaskId(0), 2, &p, &table);
        assert!(c2 < c1);
    }

    #[test]
    fn zero_sigma_pareto_fit_degenerates() {
        let s = DurationSampler::new(3, StragglerModel::ParetoFit);
        let t = phase_table(&s, JobId(0), PhaseId(0), &phase(4.0, 0.0, 3));
        assert!(t.iter().all(|&d| (d - 4.0).abs() < 1e-12));
    }
}
