//! Decision-level tests of the assembled YARN control plane: hand-built
//! cluster views, exact assertions on the placement batches the RM + AMs
//! produce — locality preferences, estimation-driven ordering, and clone
//! budgets, without a simulation in the loop — plus a bit-exact pin of
//! the Algorithm 1 inputs the oracle and the AM report.

use dollymp_cluster::execution::block_replicas;
use dollymp_cluster::prelude::*;
use dollymp_cluster::view::ClusterView;
use dollymp_core::job::{JobId, JobSpec, PhaseId, TaskId, TaskRef};
use dollymp_core::resources::Resources;
use dollymp_yarn::YarnSystem;

fn job_state(id: u64, ntasks: u32, theta: f64) -> JobState {
    let spec = JobSpec::single_phase(JobId(id), ntasks, Resources::new(1.0, 1.0), theta, 0.0);
    JobState::new(spec, vec![theta; ntasks as usize])
}

#[test]
fn placement_honors_block_replicas() {
    // Plenty of room everywhere: every primary must land on one of its
    // task's two replica servers.
    let cluster = ClusterSpec::homogeneous(8, 16.0, 16.0);
    let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
    let jobs = JobTable::from_iter([job_state(0, 6, 10.0)]);
    let view = ClusterView::new(0, &cluster, &free, &jobs);

    let mut yarn = YarnSystem::new(0);
    yarn.on_job_arrival(&view, JobId(0));
    let batch = yarn.schedule(&view);
    assert_eq!(batch.len(), 6);
    for a in &batch {
        let replicas = block_replicas(a.task, cluster.len());
        assert!(
            replicas.contains(&a.server),
            "task {} placed on {:?}, replicas {:?}",
            a.task,
            a.server,
            replicas
        );
    }
}

#[test]
fn clones_spread_to_a_different_server_than_the_primary() {
    let cluster = ClusterSpec::homogeneous(4, 4.0, 4.0);
    let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
    let jobs = JobTable::from_iter([job_state(0, 1, 10.0)]);
    let view = ClusterView::new(0, &cluster, &free, &jobs);

    let mut yarn = YarnSystem::new(2);
    yarn.on_job_arrival(&view, JobId(0));
    let batch = yarn.schedule(&view);
    let primary = batch
        .iter()
        .find(|a| a.kind == CopyKind::Primary)
        .expect("primary placed");
    for clone in batch.iter().filter(|a| a.kind == CopyKind::Clone) {
        assert_ne!(
            clone.server, primary.server,
            "clone must avoid the primary's server when others are free"
        );
    }
    assert!(
        batch.iter().filter(|a| a.kind == CopyKind::Clone).count() >= 1,
        "idle cluster → at least one clone"
    );
}

#[test]
fn estimated_priorities_order_unknown_jobs_by_size_not_duration() {
    // Two fresh jobs, no history: the AM guesses the same θ̂ for both, so
    // the RM can only distinguish them by task count (volume). The big
    // job must not starve the small one even though its *true* duration
    // is shorter.
    let cluster = ClusterSpec::homogeneous(1, 2.0, 2.0);
    let free = dollymp_cluster::capacity::CapacityIndex::from_free(&[Resources::new(2.0, 2.0)]);
    let jobs: JobTable = [
        job_state(0, 40, 1.0), // many short tasks
        job_state(1, 1, 50.0), // one long task
    ]
    .into_iter()
    .collect();
    let view = ClusterView::new(0, &cluster, &free, &jobs);

    let mut yarn = YarnSystem::new(0);
    // The engine calls the arrival hook for every job before a pass.
    yarn.on_job_arrival(&view, JobId(0));
    yarn.on_job_arrival(&view, JobId(1));
    let batch = yarn.schedule(&view);
    assert!(!batch.is_empty());
    // The small-volume job is served first; work conservation may then
    // fill the leftover core with the big job's tasks.
    assert_eq!(
        batch[0].task.job,
        JobId(1),
        "with equal θ̂ the 1-task job has the smaller estimated volume: {batch:?}"
    );
}

#[test]
fn clone_budget_from_am_requests_is_enforced() {
    let cluster = ClusterSpec::homogeneous(6, 4.0, 4.0);
    let free = dollymp_cluster::capacity::CapacityIndex::from_capacities(&cluster);
    let jobs = JobTable::from_iter([job_state(0, 2, 10.0)]);
    let view = ClusterView::new(0, &cluster, &free, &jobs);

    for clones in [0u32, 1, 2] {
        let mut yarn = YarnSystem::new(clones);
        yarn.on_job_arrival(&view, JobId(0));
        let batch = yarn.schedule(&view);
        let mut per_task: std::collections::HashMap<TaskRef, u32> = Default::default();
        for a in &batch {
            *per_task.entry(a.task).or_insert(0) += 1;
        }
        for (t, copies) in per_task {
            // One clone per task per decision round, bounded by budget.
            let max_now = 1 + clones.min(1);
            assert!(
                copies <= max_now,
                "budget {clones}: task {t} got {copies} copies in one round"
            );
        }
    }
}

#[test]
fn view_round_trip_ids_are_consistent() {
    // Sanity for the fixtures themselves: ready tasks enumerate phase 0.
    let js = job_state(7, 3, 5.0);
    let ready: Vec<TaskRef> = js.iter_ready().collect();
    assert_eq!(ready.len(), 3);
    for (i, t) in ready.iter().enumerate() {
        assert_eq!(t.job, JobId(7));
        assert_eq!(t.phase, PhaseId(0));
        assert_eq!(t.task, TaskId(i as u32));
    }
}

/// Records the first view of job 0 in which its root phase has finished
/// and its two children have not started, then schedules first-fit.
#[derive(Default)]
struct CaptureAfterRoot {
    seen: Option<JobState>,
}

impl Scheduler for CaptureAfterRoot {
    fn name(&self) -> String {
        "capture".to_string()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        if let Some(j) = view.job(JobId(0)) {
            if self.seen.is_none() && j.phase_state(PhaseId(0)).remaining == 0 {
                self.seen = Some(j.clone());
            }
        }
        FifoFirstFit.schedule(view)
    }
}

/// `(volume, etime, dominant)` as bits.
fn input_bits<S: dollymp_schedulers::JobStatistics>(
    stats: &S,
    job: &JobState,
    totals: Resources,
) -> [u64; 3] {
    let t = stats.transient_job(job, totals, 1.5);
    assert_eq!(
        stats.remaining_volume(job, totals, 1.5).to_bits(),
        t.volume.to_bits(),
        "the §4.1 gate reads Algorithm 1's volume"
    );
    [t.volume.to_bits(), t.etime.to_bits(), t.dominant.to_bits()]
}

/// Algorithm 1's inputs for a three-phase DAG job whose root phase has
/// finished, from the oracle and from the AM at each estimation tier,
/// pinned to the bit.
#[test]
fn algorithm1_inputs_are_pinned_for_the_oracle_and_every_am_tier() {
    use dollymp_core::job::PhaseSpec;
    use dollymp_core::stats::RunningStats;
    use dollymp_yarn::{ApplicationMaster, HistoryRegistry};

    let spec = JobSpec::builder(JobId(0))
        .label("dag")
        .phase(PhaseSpec::new(2, Resources::new(1.0, 2.0), 6.0, 2.0))
        .phase(PhaseSpec::new(3, Resources::new(2.0, 1.0), 9.0, 4.0).with_parents(vec![PhaseId(0)]))
        .phase(PhaseSpec::new(2, Resources::new(1.0, 3.0), 4.0, 1.5).with_parents(vec![PhaseId(0)]))
        .build()
        .unwrap();
    let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0);
    let mut probe = CaptureAfterRoot::default();
    dollymp_cluster::engine::simulate(
        &cluster,
        vec![spec],
        &DurationSampler::new(5, StragglerModel::ParetoFit),
        &mut probe,
        &dollymp_cluster::engine::EngineConfig::default(),
    );
    let job = probe.seen.expect("the root phase finishes first");
    assert_eq!(job.phase_state(PhaseId(1)).remaining, 3);
    assert_eq!(job.phase_state(PhaseId(2)).remaining, 2);
    let totals = cluster.totals();

    let oracle = input_bits(&dollymp_schedulers::Oracle, &job, totals);
    let cold = ApplicationMaster::new(HistoryRegistry::new());
    let default_tier = input_bits(&cold, &job, totals);
    let mut observed = job.clone();
    for (phase, xs) in [(1, [7.0, 12.0]), (2, [3.0, 5.5])] {
        for x in xs {
            observed.push_observed(PhaseId(phase), x);
        }
    }
    let in_run = input_bits(&cold, &observed, totals);
    let history = HistoryRegistry::new();
    for (phase, xs) in [(1, [8.0, 10.0, 15.0]), (2, [2.0, 6.0, 4.5])] {
        let mut s = RunningStats::new();
        for x in xs {
            s.push(x);
        }
        history.record("dag", phase, &s);
    }
    let warm = ApplicationMaster::new(history);
    let history_tier = input_bits(&warm, &job, totals);

    // 0.25, phase 1's CPU share: the job's largest dominant share.
    let d = 0x3fd0000000000000;
    let expected = [
        [0x402b300000000000, 0x402e000000000000, d],
        [0x402c1adfb431aa4a, 0x402ed4ee47b6f882, d],
        [0x4028780000000000, 0x402a800000000000, d],
        [0x4026800000000000, 0x4024000000000000, d],
    ];
    let got = [oracle, history_tier, in_run, default_tier];
    for ((tier, want), got) in ["oracle", "history", "in-run", "default"]
        .iter()
        .zip(expected)
        .zip(got)
    {
        assert_eq!(got, want, "{tier}: {got:#x?}");
    }
}
