//! Decision-level scheduler tests: hand-built cluster views, exact
//! assertions on the assignment batches each policy produces — no
//! simulation in the loop, so failures point straight at decision logic.

use dollymp_cluster::prelude::*;
use dollymp_cluster::view::ClusterView;
use dollymp_core::job::{JobId, JobSpec, PhaseSpec};
use dollymp_core::resources::Resources;
use dollymp_schedulers::{by_name, DollyMP, LearnedDollyMP, Tetris};

fn job_state(id: u64, ntasks: u32, cpu: f64, mem: f64, theta: f64) -> JobState {
    let spec = JobSpec::single_phase(JobId(id), ntasks, Resources::new(cpu, mem), theta, 0.0);
    JobState::new(spec, vec![theta; ntasks as usize])
}

fn view_fixture<'a>(
    cluster: &'a ClusterSpec,
    cap: &'a dollymp_cluster::capacity::CapacityIndex,
    jobs: &'a JobTable,
) -> ClusterView<'a> {
    ClusterView::new(0, cluster, cap, jobs)
}

#[test]
fn dollymp_assigns_small_job_before_large() {
    let cluster = ClusterSpec::homogeneous(1, 2.0, 2.0);
    let free = vec![Resources::new(2.0, 2.0)];
    let jobs: JobTable = [
        job_state(0, 1, 2.0, 2.0, 100.0), // huge
        job_state(1, 1, 2.0, 2.0, 2.0),   // tiny
    ]
    .into_iter()
    .collect();
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);

    let mut s = DollyMP::with_clones(0);
    s.on_job_arrival(&view, JobId(1));
    let batch = s.schedule(&view);
    // Only one fits; it must be the tiny job.
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].task.job, JobId(1));
    assert_eq!(batch[0].kind, CopyKind::Primary);
}

#[test]
fn dollymp_batch_never_overcommits_a_server() {
    let cluster = ClusterSpec::homogeneous(2, 4.0, 4.0);
    let free = vec![Resources::new(4.0, 4.0), Resources::new(1.0, 1.0)];
    let jobs = JobTable::from_iter([job_state(0, 6, 2.0, 2.0, 5.0)]);
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = DollyMP::new();
    s.on_job_arrival(&view, JobId(0));
    let batch = s.schedule(&view);
    // Server 0 fits two 2-core tasks, server 1 none → at most 2 + clones
    // that fit (none: leftover is zero).
    let mut used = [Resources::ZERO; 2];
    for a in &batch {
        used[a.server.0 as usize] += Resources::new(2.0, 2.0);
    }
    assert!(used[0].fits_in(free[0]));
    assert!(used[1].fits_in(free[1]));
    assert_eq!(batch.len(), 2);
}

#[test]
fn dollymp_clones_small_job_with_leftovers() {
    let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
    let free = vec![Resources::new(4.0, 4.0)];
    let jobs = JobTable::from_iter([job_state(0, 1, 1.0, 1.0, 3.0)]);
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = DollyMP::new(); // 2 clones allowed
    s.on_job_arrival(&view, JobId(0));
    let batch = s.schedule(&view);
    let primaries = batch.iter().filter(|a| a.kind == CopyKind::Primary).count();
    let clones = batch.iter().filter(|a| a.kind == CopyKind::Clone).count();
    assert_eq!(primaries, 1);
    assert_eq!(
        clones, 1,
        "one clone in the same round; the second comes at a later decision point"
    );
}

/// Two root phases of one job share a demand, so they form one bucket.
/// Its primaries come LIFO in (phase, task) order: the last phase's
/// highest ids first, then the earlier phase's, across its 64-id word
/// boundary.
#[test]
fn dollymp_pops_a_shared_demand_bucket_from_the_highest_phase_and_task() {
    let demand = Resources::new(1.0, 1.0);
    let spec = JobSpec::builder(JobId(0))
        .phase(PhaseSpec::new(66, demand, 5.0, 0.0))
        .phase(PhaseSpec::new(2, demand, 5.0, 0.0))
        .build()
        .expect("two root phases");
    let jobs = JobTable::from_iter([JobState::new(spec, vec![5.0; 68])]);
    let cluster = ClusterSpec::homogeneous(1, 5.0, 5.0);
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&[Resources::new(5.0, 5.0)]);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = DollyMP::with_clones(0);
    s.on_job_arrival(&view, JobId(0));
    let placed: Vec<(u32, u32)> = s
        .schedule(&view)
        .iter()
        .map(|a| (a.task.phase.0, a.task.task.0))
        .collect();
    assert_eq!(placed, vec![(1, 1), (1, 0), (0, 65), (0, 64), (0, 63)]);
}

#[test]
fn dollymp0_emits_no_clones_ever() {
    let cluster = ClusterSpec::homogeneous(2, 8.0, 8.0);
    let free = vec![Resources::new(8.0, 8.0); 2];
    let jobs = JobTable::from_iter([job_state(0, 2, 1.0, 1.0, 5.0)]);
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = DollyMP::with_clones(0);
    s.on_job_arrival(&view, JobId(0));
    let batch = s.schedule(&view);
    assert!(batch.iter().all(|a| a.kind == CopyKind::Primary));
}

#[test]
fn tetris_prefers_the_aligned_task() {
    // CPU-rich free vector: the CPU-heavy task scores higher.
    let cluster = ClusterSpec::homogeneous(1, 16.0, 4.0);
    let free = vec![Resources::new(16.0, 4.0)];
    let jobs: JobTable = [
        job_state(0, 1, 1.0, 3.9, 10.0), // memory-heavy
        job_state(1, 1, 8.0, 1.0, 10.0), // CPU-heavy
    ]
    .into_iter()
    .collect();
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = Tetris::new();
    let batch = s.schedule(&view);
    assert_eq!(
        batch[0].task.job,
        JobId(1),
        "alignment with the CPU-rich server wins"
    );
}

/// Jobs 1 and 2 tie on every pair score (same demand, same SRPT bonus);
/// job 0 scores lower (longer work) and sits first in the ready list. A
/// tie goes to the first maximum in ready order, and `swap_remove` then
/// moves the list's last task into the taken slot, so after job 1's first
/// task the server takes job 2's tasks from the highest id down.
#[test]
fn tetris_breaks_ties_by_ready_order_as_swap_remove_leaves_it() {
    let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
    let free = vec![Resources::new(4.0, 4.0)];
    let jobs: JobTable = [
        job_state(0, 1, 1.0, 1.0, 50.0),
        job_state(1, 3, 1.0, 1.0, 5.0),
        job_state(2, 3, 1.0, 1.0, 5.0),
    ]
    .into_iter()
    .collect();
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let placed: Vec<(u64, u32)> = Tetris::new()
        .schedule(&view)
        .iter()
        .map(|a| {
            assert_eq!((a.server, a.kind), (ServerId(0), CopyKind::Primary));
            (a.task.job.0, a.task.task.0)
        })
        .collect();
    assert_eq!(placed, vec![(1, 0), (2, 2), (2, 1), (2, 0)]);
}

#[test]
fn drf_round_robins_equal_jobs() {
    let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
    let free = vec![Resources::new(4.0, 4.0)];
    let jobs: JobTable = [
        job_state(0, 4, 1.0, 1.0, 5.0),
        job_state(1, 4, 1.0, 1.0, 5.0),
    ]
    .into_iter()
    .collect();
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = by_name("drf").unwrap();
    let batch = s.schedule(&view);
    assert_eq!(batch.len(), 4, "capacity for exactly 4 unit tasks");
    let a = batch.iter().filter(|x| x.task.job == JobId(0)).count();
    let b = batch.iter().filter(|x| x.task.job == JobId(1)).count();
    assert_eq!(a, 2, "equal dominant shares → equal split");
    assert_eq!(b, 2);
}

#[test]
fn capacity_is_strict_fifo_when_everything_fits_the_head() {
    let cluster = ClusterSpec::homogeneous(1, 2.0, 2.0);
    let free = vec![Resources::new(2.0, 2.0)];
    // Later-arriving short job must NOT jump the queue head.
    let early = {
        let spec = JobSpec::builder(JobId(0))
            .arrival(0)
            .phase(PhaseSpec::new(4, Resources::new(1.0, 1.0), 50.0, 0.0))
            .build()
            .unwrap();
        JobState::new(spec, vec![50.0; 4])
    };
    let late = {
        let spec = JobSpec::builder(JobId(1))
            .arrival(5)
            .phase(PhaseSpec::new(4, Resources::new(1.0, 1.0), 1.0, 0.0))
            .build()
            .unwrap();
        JobState::new(spec, vec![1.0; 4])
    };
    let jobs = JobTable::from_iter([early, late]);
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);
    let mut s = by_name("capacity-nospec").unwrap();
    let batch = s.schedule(&view);
    assert_eq!(batch.len(), 2);
    assert!(
        batch.iter().all(|a| a.task.job == JobId(0)),
        "FIFO head takes all capacity first"
    );
}

#[test]
fn srpt_and_svf_disagree_exactly_when_they_should() {
    // Job 0: short but fat; job 1: longer but thin (same as the unit test
    // in priority.rs, but asserted at the decision level).
    let cluster = ClusterSpec::homogeneous(1, 10.0, 10.0);
    let free = vec![Resources::new(10.0, 10.0)];
    let jobs: JobTable = [
        job_state(0, 1, 10.0, 10.0, 4.0),
        job_state(1, 1, 1.0, 1.0, 6.0),
    ]
    .into_iter()
    .collect();
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);

    let mut srpt = by_name("srpt").unwrap();
    let b = srpt.schedule(&view);
    assert_eq!(b[0].task.job, JobId(0), "SRPT: shortest first");

    let mut svf = by_name("svf").unwrap();
    let b = svf.schedule(&view);
    assert_eq!(b[0].task.job, JobId(1), "SVF: smallest volume first");
}

#[test]
fn learned_dollymp_prefers_reputable_servers() {
    let cluster = ClusterSpec::homogeneous(3, 2.0, 2.0);
    let free = vec![Resources::new(2.0, 2.0); 3];
    let jobs = JobTable::from_iter([job_state(0, 1, 1.0, 1.0, 10.0)]);
    let cap = dollymp_cluster::capacity::CapacityIndex::from_free(&free);
    let view = view_fixture(&cluster, &cap, &jobs);

    // Teach the learner that server 0 is terrible and server 2 is great
    // by feeding completion records through a finished job.
    let mut s = LearnedDollyMP::with_clones(0);
    // Directly exercise the reputation via a warm-up simulation is the
    // integration test's job; here we check the visit order logic through
    // the public reputation view after observing a synthetic history.
    // (Reputation is only mutated via on_job_finish, so run a tiny sim.)
    let warm_cluster = ClusterSpec::new(vec![
        ServerSpec::new(2.0, 2.0).with_speed(0.2), // server 0: slow
        ServerSpec::new(2.0, 2.0),
        ServerSpec::new(2.0, 2.0),
    ]);
    let warm_jobs: Vec<JobSpec> = (0..12)
        .map(|i| JobSpec::single_phase(JobId(100 + i), 3, Resources::new(2.0, 2.0), 10.0, 0.0))
        .collect();
    let sampler = DurationSampler::new(1, StragglerModel::Deterministic);
    let _ = dollymp_cluster::engine::simulate(
        &warm_cluster,
        warm_jobs,
        &sampler,
        &mut s,
        &EngineConfig::default(),
    );
    assert!(
        s.reputation().slowdown(ServerId(0)) > 1.2,
        "slow server learnt"
    );

    // Now the placement on the fresh view must avoid server 0.
    s.on_job_arrival(&view, JobId(0));
    let batch = s.schedule(&view);
    assert_eq!(batch.len(), 1);
    assert_ne!(batch[0].server, ServerId(0), "slow server dodged");
}
