//! The simulated Resource Manager (§5.2): receives [`JobReport`]s from
//! the Application Masters and runs the transient scheduling algorithm
//! over them to produce the cluster-wide job priority order. The paper's
//! modification lives exactly here — "we implement the scheduling
//! algorithm in Section 5 under the Resource Manager of YARN; the new
//! scheduling logic combines DRF, SVF, and SRPT to recompute the priority
//! of each job whenever a new Application Master is created".

use crate::protocol::{ContainerRequest, JobReport};
use dollymp_cluster::error::RejectReason;
use dollymp_cluster::spec::ClusterSpec;
use dollymp_core::job::JobId;
use dollymp_core::online::PriorityOrder;
use dollymp_core::transient::{transient_schedule, TransientConfig, TransientJob};
use std::collections::HashMap;

/// The RM's scheduling brain: report intake + Algorithm 1 priorities.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    cfg: TransientConfig,
    reports: HashMap<JobId, JobReport>,
    /// The job order of the last Algorithm 1 run over the reports.
    order: PriorityOrder,
    /// AM container requests refused by [`ResourceManager::admit_request`],
    /// bucketed on the same [`RejectReason`] taxonomy the engine and the
    /// guard use.
    rejections: HashMap<RejectReason, u64>,
}

impl ResourceManager {
    /// A fresh RM.
    pub fn new(cfg: TransientConfig) -> Self {
        ResourceManager {
            cfg,
            reports: HashMap::new(),
            order: PriorityOrder::default(),
            rejections: HashMap::new(),
        }
    }

    /// Validate one AM container request instead of trusting it — the RM
    /// side of the containment story (a compromised or buggy AM must not
    /// be able to poison placement):
    ///
    /// * [`RejectReason::UnknownJob`] — no report registered for the
    ///   request's job (an AM must introduce its job before asking for
    ///   containers);
    /// * [`RejectReason::DuplicateCopy`] — the clone budget exceeds the
    ///   RM's configured per-task copy cap;
    /// * [`RejectReason::ServerDown`] — a locality preference names a
    ///   server outside the cluster;
    /// * [`RejectReason::OverCommit`] — the demand fits no server even
    ///   when idle (the request could never be granted).
    pub fn validate_request(
        &self,
        cluster: &ClusterSpec,
        req: &ContainerRequest,
    ) -> Result<(), RejectReason> {
        if !self.reports.contains_key(&req.task.job) {
            return Err(RejectReason::UnknownJob);
        }
        if req.max_clones + 1 > self.cfg.max_copies.max(1) {
            return Err(RejectReason::DuplicateCopy);
        }
        if req
            .preferred_servers
            .iter()
            .any(|s| (s.0 as usize) >= cluster.len())
        {
            return Err(RejectReason::ServerDown);
        }
        if !cluster
            .servers()
            .iter()
            .any(|s| req.demand.fits_in(s.capacity))
        {
            return Err(RejectReason::OverCommit);
        }
        Ok(())
    }

    /// [`Self::validate_request`] plus bookkeeping: refused requests are
    /// counted under their reason. Returns whether the request was
    /// admitted.
    pub fn admit_request(&mut self, cluster: &ClusterSpec, req: &ContainerRequest) -> bool {
        match self.validate_request(cluster, req) {
            Ok(()) => true,
            Err(reason) => {
                *self.rejections.entry(reason).or_insert(0) += 1;
                false
            }
        }
    }

    /// Requests refused so far under one reason.
    pub fn rejected(&self, reason: RejectReason) -> u64 {
        self.rejections.get(&reason).copied().unwrap_or(0)
    }

    /// Total requests refused so far.
    pub fn total_rejected(&self) -> u64 {
        self.rejections.values().sum()
    }

    /// Ingest (or refresh) a job's report.
    pub fn submit_report(&mut self, report: JobReport) {
        self.reports.insert(report.job, report);
    }

    /// Forget a finished job. It stays in the job order until the next
    /// recompute.
    pub fn retire_job(&mut self, job: JobId) {
        self.reports.remove(&job);
    }

    /// Recompute the global job order from the current reports — done on
    /// every new-AM registration, per §5.2.
    pub fn recompute_priorities(&mut self) {
        let mut inputs: Vec<TransientJob> = self
            .reports
            .values()
            .map(|r| TransientJob {
                id: r.job,
                volume: r.volume,
                etime: r.etime,
                dominant: r.dominant,
                speedup: r.speedup,
            })
            .collect();
        // Deterministic input order regardless of HashMap iteration.
        inputs.sort_by_key(|j| j.id);
        let out = transient_schedule(&inputs, &self.cfg);
        self.order.refill(&inputs, &out);
    }

    /// The job order of the last recompute.
    pub fn priorities(&self) -> &PriorityOrder {
        &self.order
    }

    /// Latest report for a job, if any.
    pub fn report(&self, job: JobId) -> Option<&JobReport> {
        self.reports.get(&job)
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::speedup::SpeedupFn;

    fn report(id: u64, volume: f64, etime: f64) -> JobReport {
        JobReport {
            job: JobId(id),
            volume,
            etime,
            dominant: 0.1,
            speedup: SpeedupFn::Pareto { alpha: 2.0 },
        }
    }

    /// Position of `job`'s group in the RM's job order.
    fn group_of(rm: &ResourceManager, job: JobId) -> usize {
        rm.priorities()
            .groups()
            .position(|(_, members)| members.contains(&job))
            .expect("the job is in the order")
    }

    #[test]
    fn priorities_follow_reports() {
        let mut rm = ResourceManager::new(TransientConfig::default());
        rm.submit_report(report(0, 50.0, 100.0));
        rm.submit_report(report(1, 0.5, 1.0));
        rm.recompute_priorities();
        assert_eq!((group_of(&rm, JobId(1)), group_of(&rm, JobId(0))), (0, 1));
    }

    #[test]
    fn resubmitting_updates_a_job() {
        let mut rm = ResourceManager::new(TransientConfig::default());
        rm.submit_report(report(0, 50.0, 100.0));
        rm.submit_report(report(1, 0.5, 1.0));
        rm.recompute_priorities();
        assert_eq!(group_of(&rm, JobId(0)), 1);
        // Job 0 shrank (most of it finished): its report improves.
        rm.submit_report(report(0, 0.1, 0.5));
        rm.recompute_priorities();
        assert_eq!(group_of(&rm, JobId(0)), 0);
        assert_eq!(rm.len(), 2);
    }

    #[test]
    fn retire_removes_job() {
        let mut rm = ResourceManager::new(TransientConfig::default());
        rm.submit_report(report(0, 1.0, 1.0));
        rm.recompute_priorities();
        rm.retire_job(JobId(0));
        assert!(rm.is_empty());
        // The order keeps the job until the next recompute.
        assert_eq!(group_of(&rm, JobId(0)), 0);
        rm.recompute_priorities();
        assert_eq!(rm.priorities().groups().count(), 0);
    }

    #[test]
    fn empty_rm_recompute_is_safe() {
        let mut rm = ResourceManager::new(TransientConfig::default());
        rm.recompute_priorities();
        assert!(rm.is_empty());
    }

    #[test]
    fn request_validation_covers_the_taxonomy() {
        use dollymp_cluster::error::RejectReason;
        use dollymp_cluster::spec::{ClusterSpec, ServerId};
        use dollymp_core::job::{PhaseId, TaskId, TaskRef};
        use dollymp_core::resources::Resources;

        let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0);
        let cfg = TransientConfig {
            max_copies: 3, // DollyMP²: a primary plus at most two clones
            ..TransientConfig::default()
        };
        let mut rm = ResourceManager::new(cfg);
        rm.submit_report(report(0, 1.0, 1.0));

        let task = TaskRef {
            job: JobId(0),
            phase: PhaseId(0),
            task: TaskId(0),
        };
        let ok = crate::protocol::ContainerRequest::new(task, Resources::new(1.0, 2.0));
        assert!(rm.validate_request(&cluster, &ok).is_ok());
        assert!(rm.admit_request(&cluster, &ok));
        assert_eq!(rm.total_rejected(), 0);

        // Unknown job: no report submitted for job 9.
        let mut unknown = ok.clone();
        unknown.task.job = JobId(9);
        assert_eq!(
            rm.validate_request(&cluster, &unknown),
            Err(RejectReason::UnknownJob)
        );

        // Clone budget beyond the RM's copy cap.
        let greedy = ok.clone().with_max_clones(7);
        assert_eq!(
            rm.validate_request(&cluster, &greedy),
            Err(RejectReason::DuplicateCopy)
        );

        // Locality preference naming a server outside the cluster.
        let bogus = ok.clone().with_preferred(vec![ServerId(40)]);
        assert_eq!(
            rm.validate_request(&cluster, &bogus),
            Err(RejectReason::ServerDown)
        );

        // Demand no server could ever satisfy.
        let huge = crate::protocol::ContainerRequest::new(task, Resources::new(64.0, 1.0));
        assert_eq!(
            rm.validate_request(&cluster, &huge),
            Err(RejectReason::OverCommit)
        );

        // admit_request counts by reason.
        assert!(!rm.admit_request(&cluster, &unknown));
        assert!(!rm.admit_request(&cluster, &huge));
        assert!(!rm.admit_request(&cluster, &huge));
        assert_eq!(rm.rejected(RejectReason::UnknownJob), 1);
        assert_eq!(rm.rejected(RejectReason::OverCommit), 2);
        assert_eq!(rm.total_rejected(), 3);
    }
}
