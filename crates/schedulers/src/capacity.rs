//! The Hadoop **Capacity Scheduler** baseline (§6.1) with Hadoop-style
//! speculative execution.
//!
//! YARN's Capacity Scheduler serves jobs in arrival (FIFO) order within a
//! queue and hands out containers first-fit. MapReduce adds *speculative
//! execution* on top: the progress of running tasks is monitored and a
//! backup copy is launched for a task running much slower than its phase's
//! completed peers. §2 observes exactly why this under-performs: the
//! backup launches *late*, once enough peers have finished for the
//! straggler to be detectable — for small jobs there may never be enough
//! statistically significant samples.
//!
//! The monitor here reproduces that behaviour: a task is speculated only
//! when (a) a minimum fraction of its phase has already completed, and
//! (b) its elapsed time exceeds `slowdown_threshold ×` the observed mean
//! duration of its phase.

use dollymp_cluster::prelude::*;
use dollymp_cluster::scheduler::{arrival_order, place_in_job_order};
use dollymp_core::job::{JobId, TaskRef};
use serde::{Deserialize, Serialize};

/// Speculative-execution tunables (Hadoop-like defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// A task is a straggler when its elapsed time exceeds this multiple
    /// of the phase's observed mean completed duration.
    pub slowdown_threshold: f64,
    /// Minimum fraction of the phase's tasks that must have completed
    /// before speculation may trigger (statistical significance — the
    /// source of the "late backup" pathology for small jobs).
    pub min_completed_frac: f64,
    /// Maximum backup copies per task.
    pub max_backups: u32,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            slowdown_threshold: 1.5,
            min_completed_frac: 0.25,
            max_backups: 1,
        }
    }
}

/// FIFO + first-fit with optional speculative execution.
#[derive(Debug, Clone, Default)]
pub struct CapacityScheduler {
    /// `None` disables speculation entirely.
    pub speculation: Option<SpeculationConfig>,
    /// Tasks whose last copy a crash evicted, in loss order. YARN retries
    /// failed attempts ahead of fresh containers, so these jump the FIFO
    /// queue until re-placed (always empty in fault-free runs).
    recovering: Vec<TaskRef>,
}

impl CapacityScheduler {
    /// The production default: speculation enabled.
    pub fn new() -> Self {
        CapacityScheduler {
            speculation: Some(SpeculationConfig::default()),
            recovering: Vec::new(),
        }
    }

    /// Pure FIFO, no speculation.
    pub fn without_speculation() -> Self {
        CapacityScheduler {
            speculation: None,
            recovering: Vec::new(),
        }
    }

    /// Re-place crash-recovered tasks, in loss order, ahead of the FIFO
    /// queue. A task that does not fit yet keeps its place at the head.
    fn recover(&mut self, view: &ClusterView<'_>, free: &mut CapacityOverlay) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.recovering.retain(|&task| {
            // Drop stale entries: job retired, or the task was already
            // re-launched (e.g. speculation) and is no longer Ready.
            let Some(job) = view.job(task.job) else {
                return false;
            };
            if job.task(task.phase, task.task).status() != TaskStatus::Ready {
                return false;
            }
            let demand = job.spec().phase(task.phase).demand;
            let Some(server) = free.first_fit(demand) else {
                return true;
            };
            free.place(&mut out, task, server, demand, CopyKind::Primary);
            false
        });
        out
    }

    fn speculate(
        &self,
        view: &ClusterView<'_>,
        order: &[JobId],
        free: &mut CapacityOverlay,
    ) -> Vec<Assignment> {
        let Some(cfg) = self.speculation else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &jid in order {
            let Some(job) = view.job(jid) else { continue };
            for task in job.iter_running() {
                let phase = job.spec().phase(task.phase);
                let ps = job.phase_state(task.phase);
                // (a) enough peers finished for significance…
                let completed = phase.ntasks - ps.remaining;
                if (completed as f64) < cfg.min_completed_frac * phase.ntasks as f64
                    || completed == 0
                {
                    continue;
                }
                // (b) …and this copy looks slow against them.
                let mean = ps.observed.mean();
                if mean <= 0.0 {
                    continue;
                }
                let slow = job
                    .copies_of(task.phase, task.task)
                    .filter(|c| c.is_live())
                    .all(|c| c.elapsed(view.now) as f64 > cfg.slowdown_threshold * mean);
                if !slow {
                    continue;
                }
                if free.effective_copies(view, task) > cfg.max_backups {
                    continue;
                }
                if let Some(server) = free.first_fit(phase.demand) {
                    free.place(&mut out, task, server, phase.demand, CopyKind::Clone);
                }
            }
        }
        out
    }
}

impl Scheduler for CapacityScheduler {
    fn name(&self) -> String {
        if self.speculation.is_some() {
            "capacity".into()
        } else {
            "capacity-nospec".into()
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let order = arrival_order(view);
        let mut free = view.capacity().begin_batch();
        let mut batch = self.recover(view, &mut free);
        batch.extend(place_in_job_order(view, &order, &mut free));
        batch.extend(self.speculate(view, &order, &mut free));
        batch
    }

    fn on_task_lost(&mut self, _view: &ClusterView<'_>, task: TaskRef) {
        if !self.recovering.contains(&task) {
            self.recovering.push(task);
        }
    }

    fn on_job_finish(&mut self, job: &JobState) {
        self.recovering.retain(|t| t.job != job.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn det() -> DurationSampler {
        DurationSampler::new(1, StragglerModel::Deterministic)
    }

    #[test]
    fn fifo_order_is_arrival_order() {
        let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
        let mk = |id: u64, arr, theta: f64| {
            JobSpec::builder(JobId(id))
                .arrival(arr)
                .phase(dollymp_core::job::PhaseSpec::new(
                    1,
                    Resources::new(1.0, 1.0),
                    theta,
                    0.0,
                ))
                .build()
                .unwrap()
        };
        // A long job arrives first; FIFO makes the short one wait.
        let jobs = vec![mk(0, 0, 20.0), mk(1, 1, 2.0)];
        let mut s = CapacityScheduler::without_speculation();
        let r = simulate(&cluster, jobs, &det(), &mut s, &EngineConfig::default());
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(0)].flowtime, 20);
        assert_eq!(by_id[&JobId(1)].flowtime, 21, "head-of-line blocking");
    }

    #[test]
    fn speculation_launches_late_backup_for_straggler() {
        // A 4-task phase on a cluster with one very slow server. The three
        // fast copies finish quickly; the straggler gets a backup only
        // after peers complete — the §2 "late backup" behaviour.
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(3.0, 3.0),                 // fast, 3 tasks
            ServerSpec::new(1.0, 1.0).with_speed(0.1), // 10× slow
        ]);
        let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 1.0), 10.0, 0.0);
        let mut s = CapacityScheduler::new();
        // Progress monitoring needs periodic decision points (a real
        // MapReduce AM polls task progress); tick every slot.
        let cfg = EngineConfig {
            tick: Some(1),
            ..Default::default()
        };
        let r = simulate(&cluster, vec![job], &det(), &mut s, &cfg);
        let m = &r.jobs[0];
        assert_eq!(m.clone_copies, 1, "exactly one backup for the straggler");
        // Peers finish at t=10 (observed mean 10). The straggler (10×
        // slow, would finish at 100) trips the 1.5× threshold at t=16;
        // the backup then runs 10 slots on a fast server → done at 26.
        assert_eq!(m.flowtime, 26);
        assert_eq!(m.tasks_cloned, 1);
    }

    #[test]
    fn no_speculation_variant_never_clones() {
        let cluster = ClusterSpec::homogeneous(4, 4.0, 4.0);
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::single_phase(JobId(i), 4, Resources::new(1.0, 1.0), 10.0, 6.0))
            .collect();
        let sampler = DurationSampler::new(9, StragglerModel::ParetoFit);
        let mut s = CapacityScheduler::without_speculation();
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn recovered_task_jumps_the_fifo_queue() {
        use dollymp_cluster::engine::try_simulate_with_faults;

        // Two unit servers. Job 0 is a two-phase chain (θ=8 each); job 1
        // is a single 20-slot task that starts on server 1. Server 1
        // crashes at t=3, losing job 1's only copy. When server 0 frees
        // at t=8, plain FIFO would hand it to job 0's newly-ready second
        // phase (earlier arrival); the recovery hook instead retries the
        // crashed attempt first, YARN-style.
        let cluster = ClusterSpec::homogeneous(2, 1.0, 1.0);
        let mk_phase = || dollymp_core::job::PhaseSpec::new(1, Resources::new(1.0, 1.0), 8.0, 0.0);
        let chain = JobSpec::chain(JobId(0), vec![mk_phase(), mk_phase()]).unwrap();
        let lone = JobSpec::single_phase(JobId(1), 1, Resources::new(1.0, 1.0), 20.0, 0.0);
        let faults = FaultTimeline::new(vec![TimedFault {
            at: 3,
            event: FaultEvent::Crash(ServerId(1)),
        }]);
        let mut s = CapacityScheduler::without_speculation();
        let r = try_simulate_with_faults(
            &cluster,
            vec![chain, lone],
            &det(),
            &mut s,
            &EngineConfig::default(),
            &faults,
        )
        .unwrap();
        assert_eq!(r.faults.tasks_requeued, 1);
        let by_id = r.by_id();
        // Job 1 restarts at t=8 on the freed server (3..8 nothing fits),
        // finishing at 28; job 0's phase 2 then runs 28..36. Without the
        // hook the finishes would be 16 and 36 the other way round.
        assert_eq!(by_id[&JobId(1)].flowtime, 28, "lost task retried first");
        assert_eq!(by_id[&JobId(0)].flowtime, 36);
    }

    #[test]
    fn on_task_lost_retries_in_loss_order_ahead_of_fifo() {
        use dollymp_cluster::view::ClusterView;
        use dollymp_core::job::{PhaseId, TaskId};

        // Direct unit coverage of the recovery queue (the sim-level test
        // above only shows the end-to-end effect): two losses reported in
        // a specific order must be replayed in exactly that order, ahead
        // of every FIFO placement — even though the lost tasks belong to
        // the *later*-arriving job.
        let cluster = ClusterSpec::homogeneous(4, 1.0, 1.0);
        let sampler = det();
        let mk = |id: u64, arrival: u64| {
            JobSpec::builder(JobId(id))
                .arrival(arrival)
                .phase(dollymp_core::job::PhaseSpec::new(
                    2,
                    Resources::new(1.0, 1.0),
                    8.0,
                    0.0,
                ))
                .build()
                .unwrap()
        };
        let jobs: JobTable = [mk(0, 0), mk(1, 1)]
            .into_iter()
            .map(|spec| {
                let tables = sampler.job_tables(&spec);
                JobState::new(spec, tables)
            })
            .collect();
        let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
        let view = ClusterView::new(5, &cluster, &free, &jobs);

        let tref = |job: u64, task: u32| TaskRef {
            job: JobId(job),
            phase: PhaseId(0),
            task: TaskId(task),
        };
        let mut s = CapacityScheduler::without_speculation();
        // Loss order: job 1's task 1 first, then its task 0.
        s.on_task_lost(&view, tref(1, 1));
        s.on_task_lost(&view, tref(1, 0));
        s.on_task_lost(&view, tref(1, 1)); // duplicate report is a no-op
        assert_eq!(s.recovering, vec![tref(1, 1), tref(1, 0)]);

        let batch = s.schedule(&view);
        let order: Vec<TaskRef> = batch.iter().map(|a| a.task).collect();
        assert_eq!(
            order,
            vec![tref(1, 1), tref(1, 0), tref(0, 0), tref(0, 1)],
            "lost attempts replay in loss order, ahead of the FIFO queue"
        );
        assert!(s.recovering.is_empty(), "replayed entries are consumed");
    }

    #[test]
    fn names() {
        assert_eq!(CapacityScheduler::new().name(), "capacity");
        assert_eq!(
            CapacityScheduler::without_speculation().name(),
            "capacity-nospec"
        );
    }
}
