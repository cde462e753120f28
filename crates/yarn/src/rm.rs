//! The simulated Resource Manager (§5.2). The paper's modification lives
//! here — "we implement the scheduling algorithm in Section 5 under the
//! Resource Manager of YARN; the new scheduling logic combines DRF, SVF,
//! and SRPT to recompute the priority of each job whenever a new
//! Application Master is created". That logic is DollyMP's own pass
//! ([`crate::system::YarnSystem`] runs it on the AMs' estimates); this
//! type is the RM's bookkeeping around it: which jobs have a registered
//! AM, and the validation of each granted container's request.

use crate::protocol::ContainerRequest;
use dollymp_cluster::error::RejectReason;
use dollymp_cluster::spec::ClusterSpec;
use dollymp_core::job::JobId;
use std::collections::{HashMap, HashSet};

/// The RM's registry of AMs and its request validation.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    /// Per-task copy cap (a primary plus the clone budget).
    max_copies: u32,
    /// Jobs whose AM has registered and not yet finished.
    jobs: HashSet<JobId>,
    /// AM container requests refused by [`ResourceManager::admit_request`],
    /// bucketed on the same [`RejectReason`] taxonomy the engine and the
    /// guard use.
    rejections: HashMap<RejectReason, u64>,
}

impl ResourceManager {
    /// A fresh RM granting at most `max_copies` copies per task.
    pub fn new(max_copies: u32) -> Self {
        ResourceManager {
            max_copies,
            jobs: HashSet::new(),
            rejections: HashMap::new(),
        }
    }

    /// Validate one AM container request instead of trusting it — the RM
    /// side of the containment story (a compromised or buggy AM must not
    /// be able to poison placement):
    ///
    /// * [`RejectReason::UnknownJob`] — no AM registered for the
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
        if !self.jobs.contains(&req.task.job) {
            return Err(RejectReason::UnknownJob);
        }
        if req.max_clones + 1 > self.max_copies.max(1) {
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

    /// Register a new job's AM.
    pub fn register(&mut self, job: JobId) {
        self.jobs.insert(job);
    }

    /// Forget a finished job.
    pub fn retire_job(&mut self, job: JobId) {
        self.jobs.remove(&job);
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_removes_job() {
        let mut rm = ResourceManager::new(3);
        assert!(rm.is_empty());
        rm.register(JobId(0));
        rm.register(JobId(0));
        assert_eq!(rm.len(), 1);
        rm.retire_job(JobId(0));
        assert!(rm.is_empty());
    }

    #[test]
    fn request_validation_covers_the_taxonomy() {
        use dollymp_cluster::error::RejectReason;
        use dollymp_cluster::spec::{ClusterSpec, ServerId};
        use dollymp_core::job::{PhaseId, TaskId, TaskRef};
        use dollymp_core::resources::Resources;

        let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0);
        // DollyMP²: a primary plus at most two clones.
        let mut rm = ResourceManager::new(3);
        rm.register(JobId(0));

        let task = TaskRef {
            job: JobId(0),
            phase: PhaseId(0),
            task: TaskId(0),
        };
        let ok = crate::protocol::ContainerRequest::new(task, Resources::new(1.0, 2.0));
        assert!(rm.validate_request(&cluster, &ok).is_ok());
        assert!(rm.admit_request(&cluster, &ok));
        assert_eq!(rm.total_rejected(), 0);

        // Unknown job: no AM registered for job 9.
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
