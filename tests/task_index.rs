//! Equivalence pin for the per-phase ready/running task index: at every
//! decision point of a DollyMP² run (cloning on) over random DAG jobs,
//! crashes and fail-slow servers, `JobState::iter_ready` and
//! `iter_running` must list exactly the tasks a brute-force status filter
//! over every task finds, in the same (phase, task) order.

use dollymp::prelude::*;
use dollymp_core::job::{PhaseId, TaskId};
use dollymp_testkit as testkit;
use proptest::prelude::*;

/// DollyMP² that compares the index with the status filter before each
/// pass and remembers the first disagreement.
struct Checked {
    inner: DollyMP,
    passes: u64,
    mismatch: Option<String>,
}

/// Every task of `job` whose status is `status`, in (phase, task) order.
fn filtered(job: &JobState, status: TaskStatus) -> Vec<TaskRef> {
    let mut out = Vec::new();
    for (pi, p) in job.spec().phases().iter().enumerate() {
        for ti in 0..p.ntasks {
            let (phase, task) = (PhaseId(pi as u32), TaskId(ti));
            if job.task(phase, task).status() == status {
                out.push(TaskRef {
                    job: job.id(),
                    phase,
                    task,
                });
            }
        }
    }
    out
}

impl Scheduler for Checked {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.inner.on_job_arrival(view, job);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        self.inner.on_job_finish(job);
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.inner.on_server_down(view, server);
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.inner.on_server_up(view, server);
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.inner.on_task_lost(view, task);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.passes += 1;
        for job in view.jobs() {
            if self.mismatch.is_some() {
                break;
            }
            let ready: Vec<TaskRef> = job.iter_ready().collect();
            let running: Vec<TaskRef> = job.iter_running().collect();
            if ready != filtered(job, TaskStatus::Ready)
                || running != filtered(job, TaskStatus::Running)
            {
                self.mismatch = Some(format!(
                    "slot {}: job {} index ready {ready:?} running {running:?}",
                    view.now,
                    job.id().0
                ));
            }
        }
        self.inner.schedule(view)
    }
}

/// Run the checked DollyMP² on a testkit draw: DAG jobs whose phases
/// sometimes cross a 64-bit word, on heterogeneous racks under crashes,
/// rack blackouts and fail-slow servers.
fn run(seed: u64) -> (Checked, SimReport) {
    let mut rng = testkit::rng(seed);
    let cluster = testkit::cluster(&mut rng, 8);
    let jobs = testkit::jobs(&mut rng, 1..=12);
    let faults = testkit::faults(seed, &cluster, 200);
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let mut policy = Checked {
        inner: DollyMP::new(),
        passes: 0,
        mismatch: None,
    };
    let report = try_simulate_with_faults(
        &cluster,
        jobs,
        &sampler,
        &mut policy,
        &EngineConfig::default(),
        &faults,
    )
    .unwrap();
    (policy, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_equals_the_status_filter_at_every_decision_point(seed in 0u64..100_000) {
        let (policy, _) = run(seed);
        prop_assert!(policy.passes > 0);
        prop_assert_eq!(policy.mismatch, None);
    }
}

/// The property's runs do reach every transition: clones launch, crashes
/// re-queue tasks, and a clone saves some task.
#[test]
fn checked_runs_cover_requeues_and_clones() {
    let mut requeued = 0;
    let mut saved = 0;
    let mut cloned = 0;
    for seed in 0..8 {
        let (policy, report) = run(seed);
        assert_eq!(policy.mismatch, None, "seed {seed}");
        requeued += report.faults.tasks_requeued;
        saved += report.faults.tasks_saved_by_clone;
        cloned += report.jobs.iter().map(|j| j.clone_copies).sum::<u64>();
    }
    assert!(requeued > 0 && saved > 0 && cloned > 0);
}
