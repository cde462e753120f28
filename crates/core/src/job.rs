//! DAG jobs, phases and tasks — the job model of §3, plus the derived
//! quantities DollyMP schedules on: *effective processing time*
//! `e = θ + w·σ` (§5), *critical path* `L_j`, *job volume* (Eq. 10/14) and
//! the remaining critical path (Eq. 17). The remaining volume (Eq. 16)
//! needs per-phase task counts, so it lives with the runtime job state.
//!
//! A [`JobSpec`] is an immutable description of a job: a set of
//! [`PhaseSpec`]s connected by parent (upstream) edges. Every task inside a
//! phase is statistically identical — same resource demand, same duration
//! distribution — matching the paper's observation (§5.2) that tasks of one
//! phase have similar requirements. The runtime state of a job while it
//! executes lives in `dollymp-cluster`; this module is purely structural.

use crate::resources::{dominant_share, Resources};
use crate::speedup::SpeedupFn;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Phase count up to which [`JobSpec::remaining_effective_time`] keeps
/// its per-phase path lengths on the stack.
const INLINE_PHASES: usize = 32;

/// Unique job identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

/// Index of a phase within its job (position in [`JobSpec::phases`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct PhaseId(pub u32);

/// Index of a task within its phase.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub u32);

/// Fully qualified reference to a single task.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TaskRef {
    /// Owning job.
    pub job: JobId,
    /// Phase within the job.
    pub phase: PhaseId,
    /// Task within the phase.
    pub task: TaskId,
}

impl fmt::Display for TaskRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}p{}t{}", self.job.0, self.phase.0, self.task.0)
    }
}

/// One phase of a job: `n` parallel, statistically identical tasks.
///
/// Durations are in abstract time units (the simulator interprets them as
/// slots; workload generators convert from seconds via
/// [`crate::time::SlotClock`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Number of parallel tasks `n_j^k` (≥ 1).
    pub ntasks: u32,
    /// Per-task resource demand `(c_j^k, m_j^k)`.
    pub demand: Resources,
    /// Mean task duration `θ_j^k`.
    pub theta: f64,
    /// Standard deviation of task duration `σ_j^k`.
    pub sigma: f64,
    /// Cloning speedup function `h_j^k` for this phase.
    pub speedup: SpeedupFn,
    /// Upstream phases that must fully complete before any task of this
    /// phase may start (Eq. 7).
    pub parents: Vec<PhaseId>,
}

impl PhaseSpec {
    /// A phase whose speedup function is Pareto-fitted from `(theta,
    /// sigma)`, the way the paper derives `h` from the first two moments.
    pub fn new(ntasks: u32, demand: Resources, theta: f64, sigma: f64) -> Self {
        PhaseSpec {
            ntasks,
            demand,
            theta,
            sigma,
            speedup: SpeedupFn::fit_pareto(theta, sigma),
            parents: Vec::new(),
        }
    }

    /// Set upstream dependencies.
    pub fn with_parents(mut self, parents: Vec<PhaseId>) -> Self {
        self.parents = parents;
        self
    }

    /// Effective processing time `e = θ + w·σ` (§5). The paper folds
    /// execution-time variability into scheduling priority by penalizing
    /// high-variance phases; `w` is the deployment parameter `r = 1.5`.
    pub fn effective_time(&self, sigma_weight: f64) -> f64 {
        self.theta + sigma_weight * self.sigma
    }

    /// Dominant share of one task of this phase (Eq. 15).
    pub fn dominant_share(&self, cluster_totals: Resources) -> f64 {
        dominant_share(self.demand, cluster_totals)
    }
}

/// Errors from [`JobSpecBuilder::build`] DAG validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The job has no phases.
    EmptyJob,
    /// A phase has zero tasks.
    NoTasks(PhaseId),
    /// A parent reference points outside the phase list.
    BadParent {
        /// Phase holding the dangling reference.
        phase: PhaseId,
        /// The dangling parent id.
        parent: PhaseId,
    },
    /// A phase lists itself as a parent.
    SelfParent(PhaseId),
    /// The dependency graph contains a cycle.
    Cycle,
    /// A phase demands zero resources (it would be schedulable infinitely
    /// often and breaks packing maths).
    ZeroDemand(PhaseId),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::EmptyJob => write!(f, "job has no phases"),
            DagError::NoTasks(p) => write!(f, "phase {} has zero tasks", p.0),
            DagError::BadParent { phase, parent } => {
                write!(
                    f,
                    "phase {} references unknown parent {}",
                    phase.0, parent.0
                )
            }
            DagError::SelfParent(p) => write!(f, "phase {} lists itself as parent", p.0),
            DagError::Cycle => write!(f, "phase dependency graph has a cycle"),
            DagError::ZeroDemand(p) => write!(f, "phase {} demands zero resources", p.0),
        }
    }
}

impl std::error::Error for DagError {}

/// Immutable description of a DAG job (§3): identity, arrival time and the
/// validated phase DAG, with children lists and a topological order
/// precomputed at build time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Arrival time `a_j` (slots).
    pub arrival: Time,
    /// Human-readable application label (e.g. `"wordcount"`), used only
    /// for reporting.
    pub label: String,
    phases: Vec<PhaseSpec>,
    children: Vec<Vec<PhaseId>>,
    topo: Vec<PhaseId>,
}

impl JobSpec {
    /// Start building a job.
    pub fn builder(id: JobId) -> JobSpecBuilder {
        JobSpecBuilder {
            id,
            arrival: 0,
            label: String::new(),
            phases: Vec::new(),
        }
    }

    /// Convenience: a single-phase job with Pareto-fitted speedup.
    pub fn single_phase(
        id: JobId,
        ntasks: u32,
        demand: Resources,
        theta: f64,
        sigma: f64,
    ) -> JobSpec {
        JobSpec::builder(id)
            .phase(PhaseSpec::new(ntasks, demand, theta, sigma))
            .build()
            .expect("single phase jobs are always valid DAGs")
    }

    /// Convenience: a linear chain of phases (e.g. map → reduce), each
    /// depending on the previous one.
    pub fn chain(id: JobId, phases: Vec<PhaseSpec>) -> Result<JobSpec, DagError> {
        let mut b = JobSpec::builder(id);
        for (i, mut p) in phases.into_iter().enumerate() {
            p.parents = if i == 0 {
                Vec::new()
            } else {
                vec![PhaseId(i as u32 - 1)]
            };
            b = b.phase(p);
        }
        b.build()
    }

    /// The validated phases, indexed by [`PhaseId`].
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// A specific phase.
    pub fn phase(&self, p: PhaseId) -> &PhaseSpec {
        &self.phases[p.0 as usize]
    }

    /// Number of phases `π_j`.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Total number of tasks across all phases.
    pub fn total_tasks(&self) -> u64 {
        self.phases.iter().map(|p| p.ntasks as u64).sum()
    }

    /// Downstream phases of `p`.
    pub fn children(&self, p: PhaseId) -> &[PhaseId] {
        &self.children[p.0 as usize]
    }

    /// A topological order of the phases (parents before children).
    pub fn topo_order(&self) -> &[PhaseId] {
        &self.topo
    }

    /// Effective job processing time `e_j` — the length of the critical
    /// path `L_j` under effective phase times `e_k = θ_k + w·σ_k`
    /// (Eq. 14, right).
    pub fn effective_time(&self, sigma_weight: f64) -> f64 {
        self.remaining_effective_time(|p| self.phase(p).effective_time(sigma_weight))
    }

    /// Effective job volume `v_j = Σ_k n_k · e_k · d_k` (Eq. 14, left).
    pub fn volume(&self, cluster_totals: Resources, sigma_weight: f64) -> f64 {
        self.phases
            .iter()
            .map(|p| {
                p.ntasks as f64 * p.effective_time(sigma_weight) * p.dominant_share(cluster_totals)
            })
            .sum()
    }

    /// Remaining effective processing time `e_j(t)` (Eq. 17): length of
    /// the critical path when phase `p` takes `etime(p)`, which is 0 for
    /// a finished phase, so finished phases add no length but still
    /// connect the path. The phases are walked in topological order.
    /// Allocates nothing for a job of at most 32 phases.
    pub fn remaining_effective_time(&self, etime: impl Fn(PhaseId) -> f64) -> f64 {
        let mut inline = [0.0f64; INLINE_PHASES];
        let mut spilled = Vec::new();
        let longest: &mut [f64] = match inline.get_mut(..self.phases.len()) {
            Some(longest) => longest,
            None => {
                spilled.resize(self.phases.len(), 0.0);
                &mut spilled
            }
        };
        let mut best = 0.0f64;
        for &pid in &self.topo {
            let idx = pid.0 as usize;
            let upstream = self.phases[idx]
                .parents
                .iter()
                .map(|par| longest[par.0 as usize])
                .fold(0.0f64, f64::max);
            longest[idx] = upstream + etime(pid);
            best = best.max(longest[idx]);
        }
        best
    }

    /// Maximum dominant share over the job's phases — the `d_j` used by
    /// Algorithm 1's capacity bound `1 − max_j d_j`.
    pub fn max_dominant_share(&self, cluster_totals: Resources) -> f64 {
        self.phases
            .iter()
            .map(|p| p.dominant_share(cluster_totals))
            .fold(0.0, f64::max)
    }
}

/// Builder for [`JobSpec`]; [`JobSpecBuilder::build`] validates the DAG.
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    id: JobId,
    arrival: Time,
    label: String,
    phases: Vec<PhaseSpec>,
}

impl JobSpecBuilder {
    /// Set the arrival slot `a_j`.
    pub fn arrival(mut self, t: Time) -> Self {
        self.arrival = t;
        self
    }

    /// Set the application label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Append a phase; its [`PhaseId`] is its position in insertion order.
    pub fn phase(mut self, p: PhaseSpec) -> Self {
        self.phases.push(p);
        self
    }

    /// Validate the DAG and produce the job.
    pub fn build(self) -> Result<JobSpec, DagError> {
        let n = self.phases.len();
        if n == 0 {
            return Err(DagError::EmptyJob);
        }
        for (i, p) in self.phases.iter().enumerate() {
            let pid = PhaseId(i as u32);
            if p.ntasks == 0 {
                return Err(DagError::NoTasks(pid));
            }
            if p.demand.is_zero() {
                return Err(DagError::ZeroDemand(pid));
            }
            for &par in &p.parents {
                if par.0 as usize >= n {
                    return Err(DagError::BadParent {
                        phase: pid,
                        parent: par,
                    });
                }
                if par == pid {
                    return Err(DagError::SelfParent(pid));
                }
            }
        }
        // Kahn's algorithm: topological order or cycle detection.
        let mut indeg = vec![0usize; n];
        let mut children = vec![Vec::new(); n];
        for (i, p) in self.phases.iter().enumerate() {
            // Duplicate parent edges are tolerated but counted once.
            let mut seen = Vec::new();
            for &par in &p.parents {
                if !seen.contains(&par) {
                    seen.push(par);
                    indeg[i] += 1;
                    children[par.0 as usize].push(PhaseId(i as u32));
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(PhaseId(i as u32));
            for &c in &children[i] {
                let ci = c.0 as usize;
                indeg[ci] -= 1;
                if indeg[ci] == 0 {
                    queue.push(ci);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }
        Ok(JobSpec {
            id: self.id,
            arrival: self.arrival,
            label: self.label,
            phases: self.phases,
            children,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each phase's effective time at weight `w`, 0 where `finished`
    /// holds: the per-phase input of Eq. 17.
    fn etime_unless<'a>(
        j: &'a JobSpec,
        finished: impl Fn(PhaseId) -> bool + 'a,
        w: f64,
    ) -> impl Fn(PhaseId) -> f64 + 'a {
        move |p| {
            if finished(p) {
                0.0
            } else {
                j.phase(p).effective_time(w)
            }
        }
    }

    fn demand() -> Resources {
        Resources::new(1.0, 2.0)
    }

    #[test]
    fn single_phase_job_basics() {
        let j = JobSpec::single_phase(JobId(7), 4, demand(), 10.0, 2.0);
        assert_eq!(j.num_phases(), 1);
        assert_eq!(j.total_tasks(), 4);
        // e = θ + 1.5σ = 13
        assert!((j.effective_time(1.5) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn chain_builds_linear_dependencies() {
        let j = JobSpec::chain(
            JobId(1),
            vec![
                PhaseSpec::new(8, demand(), 10.0, 1.0),
                PhaseSpec::new(2, demand(), 20.0, 2.0),
            ],
        )
        .unwrap();
        assert_eq!(j.phase(PhaseId(1)).parents, vec![PhaseId(0)]);
        assert_eq!(j.children(PhaseId(0)), &[PhaseId(1)]);
        // critical path = (10 + 1.5) + (20 + 3) = 34.5 with w = 1.5
        assert!((j.effective_time(1.5) - 34.5).abs() < 1e-12);
    }

    #[test]
    fn empty_job_rejected() {
        assert_eq!(
            JobSpec::builder(JobId(0)).build().unwrap_err(),
            DagError::EmptyJob
        );
    }

    #[test]
    fn zero_tasks_rejected() {
        let e = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(0, demand(), 1.0, 0.0))
            .build()
            .unwrap_err();
        assert_eq!(e, DagError::NoTasks(PhaseId(0)));
    }

    #[test]
    fn zero_demand_rejected() {
        let e = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, Resources::ZERO, 1.0, 0.0))
            .build()
            .unwrap_err();
        assert_eq!(e, DagError::ZeroDemand(PhaseId(0)));
    }

    #[test]
    fn dangling_parent_rejected() {
        let e = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(9)]))
            .build()
            .unwrap_err();
        assert!(matches!(e, DagError::BadParent { .. }));
    }

    #[test]
    fn self_parent_rejected() {
        let e = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(0)]))
            .build()
            .unwrap_err();
        assert_eq!(e, DagError::SelfParent(PhaseId(0)));
    }

    #[test]
    fn cycle_rejected() {
        let e = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(1)]))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(0)]))
            .build()
            .unwrap_err();
        assert_eq!(e, DagError::Cycle);
    }

    #[test]
    fn diamond_dag_critical_path() {
        //      0
        //    /   \
        //   1     2     e0=10, e1=5, e2=20, e3=10 (w = 0)
        //    \   /
        //      3
        let j = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, demand(), 10.0, 0.0))
            .phase(PhaseSpec::new(1, demand(), 5.0, 0.0).with_parents(vec![PhaseId(0)]))
            .phase(PhaseSpec::new(1, demand(), 20.0, 0.0).with_parents(vec![PhaseId(0)]))
            .phase(
                PhaseSpec::new(1, demand(), 10.0, 0.0).with_parents(vec![PhaseId(1), PhaseId(2)]),
            )
            .build()
            .unwrap();
        assert!((j.effective_time(0.0) - 40.0).abs() < 1e-12); // 10 + 20 + 10
                                                               // Finishing the long middle phase shortens the remaining path.
        let finished = [true, false, true, false];
        let rem = j.remaining_effective_time(etime_unless(&j, |p| finished[p.0 as usize], 0.0));
        assert!((rem - 15.0).abs() < 1e-12); // 5 + 10 through the left branch
    }

    /// A chain longer than [`INLINE_PHASES`] keeps its path lengths on
    /// the heap and still measures the unfinished suffix.
    #[test]
    fn long_chain_critical_path() {
        let n = INLINE_PHASES as u32 + 8;
        let phases = (0..n)
            .map(|_| PhaseSpec::new(1, demand(), 2.0, 0.0))
            .collect();
        let j = JobSpec::chain(JobId(0), phases).unwrap();
        assert!((j.effective_time(0.0) - 2.0 * n as f64).abs() < 1e-12);
        let rem = j.remaining_effective_time(etime_unless(&j, |p| p.0 < 10, 0.0));
        assert!((rem - 2.0 * (n - 10) as f64).abs() < 1e-12);
    }

    #[test]
    fn volume_matches_eq14() {
        let totals = Resources::new(10.0, 10.0);
        let j = JobSpec::chain(
            JobId(0),
            vec![
                PhaseSpec::new(4, Resources::new(1.0, 2.0), 10.0, 0.0), // d = 0.2
                PhaseSpec::new(2, Resources::new(2.0, 1.0), 5.0, 0.0),  // d = 0.2
            ],
        )
        .unwrap();
        // v = 4·10·0.2 + 2·5·0.2 = 8 + 2 = 10
        assert!((j.volume(totals, 0.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn topo_order_respects_parents() {
        let j = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(2)]))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(0)]))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0))
            .build()
            .unwrap();
        let pos: Vec<usize> = (0..3)
            .map(|i| j.topo_order().iter().position(|p| p.0 == i).unwrap())
            .collect();
        assert!(pos[2] < pos[0] && pos[0] < pos[1]);
    }

    #[test]
    fn duplicate_parents_tolerated() {
        let j = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0))
            .phase(PhaseSpec::new(1, demand(), 1.0, 0.0).with_parents(vec![PhaseId(0), PhaseId(0)]))
            .build()
            .unwrap();
        assert_eq!(j.children(PhaseId(0)), &[PhaseId(1)]);
    }

    #[test]
    fn max_dominant_share() {
        let totals = Resources::new(10.0, 100.0);
        let j = JobSpec::chain(
            JobId(0),
            vec![
                PhaseSpec::new(1, Resources::new(5.0, 10.0), 1.0, 0.0), // d = 0.5 (cpu)
                PhaseSpec::new(1, Resources::new(1.0, 30.0), 1.0, 0.0), // d = 0.3 (mem)
            ],
        )
        .unwrap();
        assert!((j.max_dominant_share(totals) - 0.5).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary acyclic jobs: phase `i` may only depend on phases
        /// `< i`, so the DAG is acyclic by construction (any DAG has such
        /// a topological labelling, so this loses no generality).
        fn arb_job() -> impl Strategy<Value = JobSpec> {
            prop::collection::vec(
                (
                    1u32..6,                                 // ntasks
                    0.5f64..4.0,                             // cpu
                    0.5f64..8.0,                             // mem
                    0.5f64..50.0,                            // theta
                    0.0f64..20.0,                            // sigma
                    prop::collection::vec(0usize..64, 0..3), // raw parent picks
                ),
                1..8,
            )
            .prop_map(|raw| {
                let mut b = JobSpec::builder(JobId(99));
                for (i, (n, c, m, theta, sigma, parents)) in raw.into_iter().enumerate() {
                    let parents: Vec<PhaseId> = if i == 0 {
                        vec![]
                    } else {
                        parents
                            .into_iter()
                            .map(|p| PhaseId((p % i) as u32))
                            .collect()
                    };
                    b = b.phase(
                        PhaseSpec::new(n, Resources::new(c, m), theta, sigma).with_parents(parents),
                    );
                }
                b.build().expect("forward-only parents are acyclic")
            })
        }

        proptest! {
            /// The critical path is at least the longest single phase and
            /// at most the sum of all phases.
            #[test]
            fn critical_path_bounds(job in arb_job(), w in 0.0f64..3.0) {
                let e = job.effective_time(w);
                let max_phase = job
                    .phases()
                    .iter()
                    .map(|p| p.effective_time(w))
                    .fold(0.0f64, f64::max);
                let sum: f64 = job.phases().iter().map(|p| p.effective_time(w)).sum();
                prop_assert!(e >= max_phase - 1e-9);
                prop_assert!(e <= sum + 1e-9);
            }

            /// Finishing phases never increases the remaining critical
            /// path, and finishing everything zeroes it.
            #[test]
            fn remaining_time_is_monotone(job in arb_job()) {
                let n = job.num_phases();
                let mut finished = vec![false; n];
                let mut last =
                    job.remaining_effective_time(etime_unless(&job, |p| finished[p.0 as usize], 1.5));
                // Finish phases in topological order (respects real
                // execution order).
                for &p in job.topo_order() {
                    finished[p.0 as usize] = true;
                    let now = job
                        .remaining_effective_time(etime_unless(&job, |p| finished[p.0 as usize], 1.5));
                    prop_assert!(now <= last + 1e-9, "remaining path grew");
                    last = now;
                }
                prop_assert!(last.abs() < 1e-9, "all finished ⇒ zero path");
            }

            /// topo_order is a permutation placing every parent before
            /// its child.
            #[test]
            fn topo_order_is_valid(job in arb_job()) {
                let n = job.num_phases();
                let mut pos = vec![usize::MAX; n];
                for (i, p) in job.topo_order().iter().enumerate() {
                    prop_assert_eq!(pos[p.0 as usize], usize::MAX, "duplicate");
                    pos[p.0 as usize] = i;
                }
                for (i, phase) in job.phases().iter().enumerate() {
                    for par in &phase.parents {
                        prop_assert!(pos[par.0 as usize] < pos[i]);
                    }
                }
            }

            /// Serde round-trips arbitrary jobs exactly.
            #[test]
            fn serde_round_trip(job in arb_job()) {
                let json = serde_json::to_string(&job).expect("serializable");
                let back: JobSpec = serde_json::from_str(&json).expect("parseable");
                prop_assert_eq!(job, back);
            }
        }
    }
}
