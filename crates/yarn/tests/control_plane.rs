//! Decision-level tests of the assembled YARN control plane: hand-built
//! cluster views, exact assertions on the placement batches the RM + AMs
//! produce — locality preferences, estimation-driven ordering, and clone
//! budgets, without a simulation in the loop.

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
