//! The container request an Application Master stands behind — the
//! surface the paper modifies in YARN (§5.2):
//!
//! * container requests carry the **task ID** (so the RM can launch
//!   cloned containers for a specific task) and the **maximum number of
//!   clones** (default two);
//! * requests carry data-locality preferences (the replica servers of the
//!   task's input block).
//!
//! The other half of §5.2's protocol, each job's **effective volume and
//! processing time**, is the AM's
//! [`JobStatistics`](dollymp_schedulers::JobStatistics) report, which
//! the RM's DollyMP pass feeds to the transient scheduling algorithm.

use dollymp_cluster::spec::ServerId;
use dollymp_core::job::TaskRef;
use dollymp_core::resources::Resources;
use serde::{Deserialize, Serialize};

/// An AM → RM request for one task's container(s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainerRequest {
    /// The task this container is for — the ID addition of §5.2 that
    /// lets the RM clone specific tasks.
    pub task: TaskRef,
    /// Resources per copy.
    pub demand: Resources,
    /// Maximum clones the AM allows for this task (paper default: 2).
    pub max_clones: u32,
    /// Replica servers holding the task's input block, in preference
    /// order (HDFS keeps two extra replicas; clones placed on replicas
    /// preserve data locality, §5).
    pub preferred_servers: Vec<ServerId>,
}

impl ContainerRequest {
    /// A request with the paper's defaults (two clones allowed).
    pub fn new(task: TaskRef, demand: Resources) -> Self {
        ContainerRequest {
            task,
            demand,
            max_clones: 2,
            preferred_servers: Vec::new(),
        }
    }

    /// Set the locality preference list.
    pub fn with_preferred(mut self, servers: Vec<ServerId>) -> Self {
        self.preferred_servers = servers;
        self
    }

    /// Set the clone budget.
    pub fn with_max_clones(mut self, n: u32) -> Self {
        self.max_clones = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::job::{JobId, PhaseId, TaskId};

    fn task() -> TaskRef {
        TaskRef {
            job: JobId(1),
            phase: PhaseId(0),
            task: TaskId(3),
        }
    }

    #[test]
    fn request_defaults_match_paper() {
        let r = ContainerRequest::new(task(), Resources::new(1.0, 2.0));
        assert_eq!(r.max_clones, 2, "paper default: two clones");
        assert!(r.preferred_servers.is_empty());
    }

    #[test]
    fn builders_set_fields() {
        let r = ContainerRequest::new(task(), Resources::new(1.0, 2.0))
            .with_preferred(vec![ServerId(4), ServerId(9)])
            .with_max_clones(1);
        assert_eq!(r.preferred_servers.len(), 2);
        assert_eq!(r.max_clones, 1);
    }

    #[test]
    fn messages_serialize() {
        let r = ContainerRequest::new(task(), Resources::new(1.0, 2.0));
        let s = serde_json::to_string(&r).unwrap();
        let back: ContainerRequest = serde_json::from_str(&s).unwrap();
        assert_eq!(r, back);
    }
}
