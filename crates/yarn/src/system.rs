//! The assembled YARN-like system: Resource Manager + per-job Application
//! Masters, packaged as a [`Scheduler`] so it runs on the same simulation
//! engine as every other policy.
//!
//! This is the "deployment" configuration of the paper (§5.2/§6.2): the
//! DollyMP scheduling logic runs inside the RM, but — crucially — on
//! **estimated** task statistics reported by the AMs rather than the
//! ground-truth distributions the plain simulator schedulers read from
//! the job specs. Container requests carry task IDs, clone budgets and
//! data-locality preferences; the AM's second-level placement prefers a
//! task's replica servers and spreads a task's clones across distinct
//! replicas.

use crate::am::{AmConfig, ApplicationMaster};
use crate::history::HistoryRegistry;
use crate::protocol::ContainerRequest;
use crate::rm::ResourceManager;
use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, TaskRef};
use dollymp_core::online::ClonePolicy;
use dollymp_core::transient::{TransientConfig, PRIORITY_UNSELECTED};
use std::collections::HashMap;

/// The RM + AMs control plane as one schedulable unit.
#[derive(Debug, Clone)]
pub struct YarnSystem {
    am_cfg: AmConfig,
    clone_policy: ClonePolicy,
    history: HistoryRegistry,
    rm: ResourceManager,
    ams: HashMap<JobId, ApplicationMaster>,
}

impl YarnSystem {
    /// A YARN system running DollyMP^`clones` in its RM, with a fresh
    /// (cold) history registry.
    pub fn new(clones: u32) -> Self {
        YarnSystem::with_history(clones, HistoryRegistry::new())
    }

    /// Like [`YarnSystem::new`] but sharing an existing history registry
    /// — how recurring-job knowledge survives across runs.
    pub fn with_history(clones: u32, history: HistoryRegistry) -> Self {
        let am_cfg = AmConfig {
            max_clones: clones,
            ..AmConfig::default()
        };
        let clone_policy = if clones == 0 {
            ClonePolicy::disabled()
        } else {
            ClonePolicy::with_clones(clones)
        };
        YarnSystem {
            am_cfg,
            clone_policy,
            history,
            rm: ResourceManager::new(TransientConfig {
                max_copies: clones + 1,
                sigma_weight: am_cfg.sigma_weight,
            }),
            ams: HashMap::new(),
        }
    }

    /// The shared history registry (clone it to reuse across runs).
    pub fn history(&self) -> &HistoryRegistry {
        &self.history
    }

    fn refresh_all_reports(&mut self, view: &ClusterView<'_>) {
        for job in view.jobs() {
            let am = self
                .ams
                .entry(job.id())
                .or_insert_with(|| ApplicationMaster::new(self.am_cfg, self.history.clone()));
            let report = am.report(job, view.cluster());
            self.rm.submit_report(report);
        }
        self.rm.recompute_priorities();
    }

    /// Place one container, preferring the task's replica servers (AM
    /// second-level scheduling), falling back to the best-aligned server.
    fn place_with_locality(
        free: &CapacityOverlay,
        req: &ContainerRequest,
        avoid: &[ServerId],
    ) -> Option<ServerId> {
        for &s in &req.preferred_servers {
            if (s.0 as usize) < free.len()
                && !avoid.contains(&s)
                && req.demand.fits_in(free.free(s))
            {
                return Some(s);
            }
        }
        free.best_fit(req.demand)
    }

    /// Like [`Self::place_with_locality`] but also keeps the fallback off
    /// the avoid list when any other server fits — used for clones, which
    /// must spread across machines to be worth anything.
    fn place_with_locality_avoiding(
        free: &CapacityOverlay,
        req: &ContainerRequest,
        avoid: &[ServerId],
    ) -> Option<ServerId> {
        if let Some(s) = Self::place_with_locality(free, req, avoid) {
            if !avoid.contains(&s) {
                return Some(s);
            }
            // Fallback landed on an avoided server: look for any other
            // fitting server before accepting co-location.
            let alt = (0..free.len() as u32)
                .map(ServerId)
                .find(|s| !avoid.contains(s) && req.demand.fits_in(free.free(*s)));
            return alt.or(Some(s));
        }
        None
    }
}

impl Scheduler for YarnSystem {
    fn name(&self) -> String {
        format!("yarn-dollymp{}", self.clone_policy.max_copies - 1)
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, _job: JobId) {
        // "Recompute the priority of each job whenever a new Application
        // Master is created" (§5.2) — every AM re-estimates with its
        // freshest observations, then the RM re-runs Algorithm 1.
        self.refresh_all_reports(view);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        if let Some(am) = self.ams.remove(&job.id()) {
            am.archive(job);
        }
        self.rm.retire_job(job.id());
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free = view.capacity().begin_batch();
        let mut out: Vec<Assignment> = Vec::new();

        // Gather container requests per job (ready tasks only). The RM
        // validates each request rather than trusting the AM (same
        // RejectReason taxonomy as the engine/guard); invalid ones are
        // dropped and counted.
        let mut requests: HashMap<JobId, Vec<ContainerRequest>> = HashMap::new();
        for job in view.jobs() {
            if let Some(am) = self.ams.get(&job.id()) {
                let reqs: Vec<ContainerRequest> = am
                    .container_requests(job, view.cluster())
                    .into_iter()
                    .filter(|r| self.rm.admit_request(view.cluster(), r))
                    .collect();
                if !reqs.is_empty() {
                    requests.insert(job.id(), reqs);
                }
            }
        }

        // Primary pass in RM priority order, locality-aware. Jobs that
        // finished since the last recompute have no requests.
        let mut newly_placed: HashMap<JobId, Vec<TaskRef>> = HashMap::new();
        let mut request_index: HashMap<TaskRef, ContainerRequest> = HashMap::new();
        for (_, members) in self.rm.priorities().groups() {
            for &jid in members {
                let Some(reqs) = requests.remove(&jid) else {
                    continue;
                };
                for req in reqs {
                    if let Some(server) = Self::place_with_locality(&free, &req, &[]) {
                        free.commit(server, req.demand);
                        free.note_copy(req.task);
                        out.push(Assignment {
                            task: req.task,
                            server,
                            kind: CopyKind::Primary,
                        });
                        newly_placed.entry(jid).or_default().push(req.task);
                    }
                    request_index.insert(req.task, req);
                }
            }
        }

        // Clone passes ("repeat twice") over leftover resources — but at
        // most one *new* clone per task per decision point (clone
        // containers are granted round by round, matching DollyMP;
        // DESIGN.md §4.8).
        let mut cloned_this_batch: std::collections::HashSet<TaskRef> =
            std::collections::HashSet::new();
        // Servers already hosting a copy of each task *in this batch* —
        // clones must spread across machines like replicas do.
        let mut batch_servers: HashMap<TaskRef, Vec<ServerId>> = HashMap::new();
        for a in &out {
            batch_servers.entry(a.task).or_default().push(a.server);
        }
        if self.clone_policy.max_copies > 1 {
            for _ in 0..2 {
                let mut any = false;
                for (level, members) in self.rm.priorities().groups() {
                    if level == PRIORITY_UNSELECTED {
                        continue;
                    }
                    for &jid in members {
                        let Some(job) = view.job(jid) else { continue };
                        // §4.1 small-job gate on *reported* volumes.
                        let mine = self.rm.report(jid).map(|r| r.volume).unwrap_or(f64::MAX);
                        let others: f64 = view
                            .jobs()
                            .filter(|j| j.id() != jid)
                            .filter_map(|j| self.rm.report(j.id()).map(|r| r.volume))
                            .sum();
                        if !self.clone_policy.small_job_gate(mine, others) {
                            continue;
                        }
                        let mut candidates = job.running_tasks();
                        if let Some(extra) = newly_placed.get(&jid) {
                            candidates.extend(extra.iter().copied());
                        }
                        for task in candidates {
                            let am_budget = request_index
                                .get(&task)
                                .map(|r| r.max_clones + 1)
                                .unwrap_or(self.am_cfg.max_clones + 1);
                            let cap = self.clone_policy.max_copies.min(am_budget);
                            if free.effective_copies(view, task) >= cap {
                                continue;
                            }
                            if cloned_this_batch.contains(&task) {
                                continue;
                            }
                            let demand = job.spec().phase(task.phase).demand;
                            // Spread clones across machines: avoid servers
                            // already hosting live copies of this task —
                            // both from the view and from this batch.
                            let mut avoid: Vec<ServerId> = job
                                .copies_of(task.phase, task.task)
                                .filter(|c| c.is_live())
                                .map(|c| c.server)
                                .collect();
                            if let Some(extra) = batch_servers.get(&task) {
                                avoid.extend(extra.iter().copied());
                            }
                            let req = request_index
                                .get(&task)
                                .cloned()
                                .unwrap_or_else(|| ContainerRequest::new(task, demand));
                            if let Some(server) =
                                Self::place_with_locality_avoiding(&free, &req, &avoid)
                            {
                                free.commit(server, demand);
                                free.note_copy(task);
                                cloned_this_batch.insert(task);
                                batch_servers.entry(task).or_default().push(server);
                                out.push(Assignment {
                                    task,
                                    server,
                                    kind: CopyKind::Clone,
                                });
                                any = true;
                            }
                        }
                    }
                }
                if !any {
                    break;
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

    fn sampler() -> DurationSampler {
        DurationSampler::new(21, StragglerModel::ParetoFit)
    }

    fn workload(n: u64, label: &str) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::builder(JobId(i))
                    .arrival(i * 4)
                    .label(label)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        4,
                        Resources::new(1.0, 2.0),
                        12.0,
                        5.0,
                    ))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn completes_workloads_and_names_itself() {
        let cluster = ClusterSpec::paper_30_node();
        let mut s = YarnSystem::new(2);
        assert_eq!(s.name(), "yarn-dollymp2");
        let r = simulate(
            &cluster,
            workload(10, "wc"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs.len(), 10);
    }

    #[test]
    fn archives_history_after_jobs_finish() {
        let cluster = ClusterSpec::paper_30_node();
        let history = HistoryRegistry::new();
        let mut s = YarnSystem::with_history(2, history.clone());
        let _ = simulate(
            &cluster,
            workload(4, "recurring"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert!(
            history.prior("recurring", 0).is_some(),
            "finished phases recorded as priors"
        );
        let (mean, _, n) = history.prior("recurring", 0).unwrap();
        assert!(mean > 0.0);
        assert!(n >= 4, "each job contributed observations");
    }

    #[test]
    fn warm_history_changes_nothing_structurally() {
        // A second run with a warm registry must still complete everything
        // (estimates differ, the mechanics hold).
        let cluster = ClusterSpec::paper_30_node();
        let history = HistoryRegistry::new();
        let jobs = workload(6, "stable");
        let mut cold = YarnSystem::with_history(2, history.clone());
        let r1 = simulate(
            &cluster,
            jobs.clone(),
            &sampler(),
            &mut cold,
            &EngineConfig::default(),
        );
        let mut warm = YarnSystem::with_history(2, history.clone());
        let r2 = simulate(
            &cluster,
            jobs,
            &sampler(),
            &mut warm,
            &EngineConfig::default(),
        );
        assert_eq!(r1.jobs.len(), r2.jobs.len());
        // Paired durations: identical workload/seed ⇒ identical task
        // tables; only the estimation (and hence possibly order) differs.
        assert!(r2.total_flowtime() > 0);
    }

    #[test]
    fn yarn_dollymp0_never_clones() {
        let cluster = ClusterSpec::paper_30_node();
        let mut s = YarnSystem::new(0);
        let r = simulate(
            &cluster,
            workload(6, "wc"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn yarn_dollymp2_clones_under_light_load() {
        let cluster = ClusterSpec::paper_30_node();
        // One lonely job: everything else idle → clones expected.
        let mut s = YarnSystem::new(2);
        let r = simulate(
            &cluster,
            workload(1, "wc"),
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert!(r.jobs[0].clone_copies > 0);
    }

    #[test]
    fn clone_spread_avoids_same_server_when_possible() {
        // 3 servers, single 1-task job with 2 clones allowed. Clone
        // containers are granted one per allocation round (DESIGN.md
        // §4.8), and a lone job has no later decision point before its
        // task completes — so exactly one clone is launched, on a
        // different server than the primary.
        let cluster = ClusterSpec::homogeneous(3, 2.0, 2.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 4.0);
        let mut s = YarnSystem::new(2);
        let r = simulate(
            &cluster,
            vec![job],
            &sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].clone_copies, 1);
        assert_eq!(r.jobs[0].tasks_cloned, 1);
    }
}
