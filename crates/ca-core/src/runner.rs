//! The one threaded run path shared by multithreaded CALU and CAQR.
//!
//! Every DAG entry point — infallible, fallible, fault harness, checked,
//! recovering and profiled — builds its plan, then hands it here with a
//! [`Mode`]. The runner wraps each task body (plain or snapshot/replay
//! recovering), optionally proves the graph sound and attaches the shadow
//! race detector, and executes on the scheduler `p.scheduler` names.

use crate::params::{CaParams, Scheduler};
use ca_matrix::{Matrix, SharedMatrix};
use ca_sched::{
    AccessMap, ChaosPlan, CheckedError, Exec, ExecStats, FaultPlan, Job, Policy, Profile,
    RecoveryCounters, RetryPolicy, TaskGraph,
};

/// A built factorization plan the runner can execute.
pub(crate) trait DagPlan: Sync {
    /// Task payload: what one task does.
    type Task: Copy + Send + Sync;
    /// The task graph.
    fn graph(&self) -> &TaskGraph<Self::Task>;
    /// Declared block footprints of every task.
    fn access(&self) -> &AccessMap;
    /// Block size of the footprint grid.
    fn block(&self) -> usize;
    /// Executes one task against the shared matrix.
    fn exec(&self, a: &SharedMatrix, task: Self::Task);
}

/// Snapshot/replay recovery for every task body (see
/// [`ca_sched::retrying_job`]).
#[derive(Clone, Copy)]
pub(crate) struct Recovery<'a> {
    pub policy: RetryPolicy,
    pub chaos: &'a ChaosPlan,
    pub counters: &'a RecoveryCounters,
}

/// How one run executes. The default is a plain run: no injected faults,
/// no recovery, no race detector, no profile.
#[derive(Default)]
pub(crate) struct Mode<'a> {
    /// Deterministic fault injection.
    pub faults: Option<&'a FaultPlan>,
    /// Wrap every task body with snapshot/replay recovery.
    pub recovery: Option<Recovery<'a>>,
    /// Prove the graph sound first, then audit every access at run time.
    pub checked: bool,
    /// Record the scheduler profile.
    pub profile: bool,
}

/// What a successful run leaves behind besides the factors.
pub(crate) struct Ran {
    pub shared: SharedMatrix,
    pub stats: ExecStats,
    pub profile: Option<Profile>,
}

/// Executes `plan` over `a` on `p.threads` workers of `p.scheduler`.
pub(crate) fn run<P: DagPlan>(
    plan: &P,
    a: Matrix,
    p: &CaParams,
    mode: &Mode<'_>,
) -> Result<Ran, CheckedError> {
    let (m, n) = (a.nrows(), a.ncols());
    let graph = plan.graph();
    let registry = if mode.checked {
        ca_sched::verify_graph(graph, plan.access()).map_err(CheckedError::Soundness)?;
        Some(ca_sched::build_shadow_registry(graph, plan.access(), plan.block(), m, n))
    } else {
        None
    };
    let shared = match &registry {
        Some(r) => SharedMatrix::with_shadow(a, r.clone()),
        None => SharedMatrix::new(a),
    };

    let report = {
        let shared = &shared;
        let jobs: TaskGraph<Job<'_>> = graph.map_ref(|id, &task| match mode.recovery {
            None => ca_sched::job(move || plan.exec(shared, task)),
            Some(r) => ca_sched::retrying_job(
                graph.meta(id).label,
                ca_sched::write_set(plan.access(), id, plan.block(), m, n),
                shared,
                r.policy,
                r.chaos,
                r.counters,
                move || plan.exec(shared, task),
            ),
        });
        let policy = match p.scheduler {
            Scheduler::PriorityQueue => Policy::Priority,
            Scheduler::WorkStealing => Policy::Stealing,
        };
        let exec = Exec {
            workers: p.threads,
            policy,
            profile: mode.profile,
            faults: mode.faults,
            shadow: registry.as_ref(),
        };
        ca_sched::run(jobs, &exec)
    };
    report.result?;
    Ok(Ran { shared, stats: report.stats, profile: report.profile })
}
