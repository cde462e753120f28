//! A Hopper-style speculation-aware baseline (Ren et al., SIGCOMM 2015)
//! — the closest prior *joint* design of job scheduling and redundancy
//! the paper discusses in §7.
//!
//! Hopper's core idea: give every job a **virtual size** — its remaining
//! tasks *plus* a speculation budget — and, when the cluster cannot fit
//! all virtual sizes, serve jobs smallest-virtual-size-first (small jobs
//! get their full budget; big jobs wait). Within its allocation a job
//! spends spare capacity on backups for its slowest running tasks. §7
//! also names Hopper's key flaw: it is **non-work-conserving** — capacity
//! reserved as a small job's speculation budget may idle while other
//! jobs queue. This implementation reproduces both the idea and the flaw
//! (the reservation is honored for the highest-priority jobs even when
//! lower-priority tasks could run), so the comparison against DollyMP is
//! faithful to the published designs.
//!
//! Simplifications vs the real system (documented, as with Carbyne):
//! slot-based Hopper is translated to multi-resource demands via
//! first-fit placement, and the speculation budget is a fixed fraction
//! rather than Hopper's optimal √-allocation.

use crate::common::ready_tasks_of;
use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, PhaseId};
use serde::{Deserialize, Serialize};

/// Hopper-lite configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HopperConfig {
    /// Speculation budget as a fraction of a job's remaining tasks
    /// (Hopper's analysis suggests budgets of 10–20 %).
    pub budget_frac: f64,
    /// A running copy is a speculation candidate once its elapsed time
    /// exceeds this multiple of the phase's observed mean.
    pub slowdown_threshold: f64,
    /// Maximum concurrent copies per task (original + backups).
    pub max_copies: u32,
}

impl Default for HopperConfig {
    fn default() -> Self {
        HopperConfig {
            budget_frac: 0.15,
            slowdown_threshold: 1.3,
            max_copies: 2,
        }
    }
}

/// The Hopper-lite scheduler.
#[derive(Debug, Clone, Default)]
pub struct Hopper {
    /// Tunables.
    pub cfg: HopperConfig,
}

impl Hopper {
    /// Hopper with default parameters.
    pub fn new() -> Self {
        Hopper::default()
    }

    /// A job's virtual size: remaining tasks × (1 + budget).
    fn virtual_size(&self, job: &JobState) -> f64 {
        let remaining: u32 = (0..job.spec().num_phases())
            .map(|pi| job.phase_state(PhaseId(pi as u32)).remaining)
            .sum();
        remaining as f64 * (1.0 + self.cfg.budget_frac)
    }
}

impl Scheduler for Hopper {
    fn name(&self) -> String {
        "hopper".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free = view.capacity().begin_batch();
        let mut out = Vec::new();

        // Smallest virtual size first.
        let mut order: Vec<(f64, JobId)> = view
            .jobs()
            .map(|j| (self.virtual_size(j), j.id()))
            .collect();
        order.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        for (vsize, jid) in order {
            let Some(job) = view.job(jid) else { continue };
            // This job is entitled to ⌈vsize⌉ concurrent copies; count
            // what it already holds.
            let mut held: u32 = job
                .iter_running()
                .map(|t| job.task(t.phase, t.task).live_copies())
                .sum();
            let entitlement = vsize.ceil() as u32;

            // 1) Primaries within the entitlement.
            for rt in ready_tasks_of(job) {
                if held >= entitlement {
                    break;
                }
                if let Some(server) = free.first_fit(rt.demand) {
                    free.place(&mut out, rt.task, server, rt.demand, CopyKind::Primary);
                    held += 1;
                }
            }
            // 2) Speculation within the remaining budget: slowest running
            // copies first.
            let mut candidates: Vec<(f64, dollymp_core::job::TaskRef)> = job
                .iter_running()
                .filter_map(|t| {
                    let ts = job.task(t.phase, t.task);
                    if ts.live_copies() >= self.cfg.max_copies {
                        return None;
                    }
                    let mean = job.phase_state(t.phase).observed.mean();
                    if mean <= 0.0 {
                        return None;
                    }
                    let elapsed = job
                        .copies_of(t.phase, t.task)
                        .filter(|c| c.is_live())
                        .map(|c| c.elapsed(view.now))
                        .max()
                        .unwrap_or(0) as f64;
                    if elapsed > self.cfg.slowdown_threshold * mean {
                        Some((elapsed / mean, t))
                    } else {
                        None
                    }
                })
                .collect();
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for (_, task) in candidates {
                if held >= entitlement {
                    break;
                }
                if free.effective_copies(view, task) >= self.cfg.max_copies {
                    continue;
                }
                let demand = job.spec().phase(task.phase).demand;
                if let Some(server) = free.first_fit(demand) {
                    free.place(&mut out, task, server, demand, CopyKind::Clone);
                    held += 1;
                }
            }
            // Deliberately NOT work-conserving: unused entitlement idles
            // (the §7 critique) — except that the engine forbids a total
            // stall, so if nothing at all was placed and nothing runs, we
            // fall through to a minimal work-conserving rescue below.
        }

        if out.is_empty() && view.jobs().all(|j| j.iter_running().next().is_none()) {
            // Rescue pass: place the first ready task that fits anywhere
            // (keeps the simulation live without changing the policy's
            // character under load).
            for job in view.jobs() {
                for rt in ready_tasks_of(job) {
                    if let Some(server) = free.first_fit(rt.demand) {
                        free.place(&mut out, rt.task, server, rt.demand, CopyKind::Primary);
                        return out;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    #[test]
    fn completes_workloads() {
        let cluster = ClusterSpec::paper_30_node();
        let jobs: Vec<JobSpec> = (0..12u64)
            .map(|i| {
                JobSpec::builder(JobId(i))
                    .arrival(i * 4)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        5,
                        Resources::new(1.0, 2.0),
                        8.0,
                        4.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let sampler = DurationSampler::new(7, StragglerModel::ParetoFit);
        let cfg = EngineConfig {
            tick: Some(1),
            ..Default::default()
        };
        let mut s = Hopper::new();
        let r = simulate(&cluster, jobs, &sampler, &mut s, &cfg);
        assert_eq!(r.jobs.len(), 12);
    }

    #[test]
    fn small_jobs_preempt_large_in_priority() {
        let cluster = ClusterSpec::homogeneous(1, 2.0, 2.0);
        let big = JobSpec::single_phase(JobId(0), 8, Resources::new(1.0, 1.0), 10.0, 0.0);
        let small = JobSpec::single_phase(JobId(1), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
        let sampler = DurationSampler::new(1, StragglerModel::Deterministic);
        let mut s = Hopper::new();
        let r = simulate(
            &cluster,
            vec![big, small],
            &sampler,
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert!(
            by_id[&JobId(1)].flowtime <= by_id[&JobId(0)].flowtime,
            "smallest virtual size served first"
        );
    }

    #[test]
    fn speculates_on_observed_stragglers() {
        // 4-task phase, one task lands on a 10× slow server; Hopper's
        // monitor must launch a backup once peers establish the mean.
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(3.0, 3.0),
            ServerSpec::new(1.0, 1.0).with_speed(0.1),
        ]);
        let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 1.0), 10.0, 0.0);
        let sampler = DurationSampler::new(1, StragglerModel::Deterministic);
        let cfg = EngineConfig {
            tick: Some(1),
            ..Default::default()
        };
        let mut s = Hopper::new();
        let r = simulate(&cluster, vec![job], &sampler, &mut s, &cfg);
        assert_eq!(r.jobs[0].clone_copies, 1, "one backup for the straggler");
        assert!(r.jobs[0].flowtime < 100, "backup rescued the straggler");
    }

    #[test]
    fn dollymp_beats_hopper_under_contention() {
        // The paper's §7 argument: Hopper's reservations waste capacity
        // that DollyMP's work-conserving knapsack order uses.
        let cluster = ClusterSpec::paper_30_node();
        let jobs: Vec<JobSpec> = (0..40u64)
            .map(|i| {
                let n = if i % 4 == 0 { 24 } else { 4 };
                JobSpec::builder(JobId(i))
                    .arrival(i)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        n,
                        Resources::new(2.0, 4.0),
                        12.0,
                        6.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let sampler = DurationSampler::new(17, StragglerModel::ParetoFit);
        let cfg = EngineConfig {
            tick: Some(1),
            ..Default::default()
        };
        let mut h = Hopper::new();
        let rh = simulate(&cluster, jobs.clone(), &sampler, &mut h, &cfg);
        let mut d = crate::DollyMP::new();
        let rd = simulate(&cluster, jobs, &sampler, &mut d, &cfg);
        assert!(
            rd.total_flowtime() < rh.total_flowtime(),
            "DollyMP {} vs Hopper {}",
            rd.total_flowtime(),
            rh.total_flowtime()
        );
    }
}
