//! # ca-sched
//!
//! Dynamic task-graph runtime for the `ca-factor` workspace — the scheduling
//! substrate of multithreaded CALU/CAQR (Donfack, Grigori & Gupta, IPDPS
//! 2010, §III "Task scheduling").
//!
//! A [`TaskGraph`] of [`Job`]s runs on real threads through one entry
//! point, [`run`], configured by an [`Exec`]:
//!
//! * [`Exec::workers`] — the number of OS threads (lane 0 is the caller).
//! * [`Exec::policy`] — the ready set the workers drain:
//!   [`Policy::Priority`], a shared priority queue whose priorities encode
//!   the paper's lookahead-of-1 rule (panel tasks and the update of block
//!   column `K+1` outrank other updates), or [`Policy::Stealing`],
//!   Cilk-style per-worker deques with no global priorities.
//! * [`Exec::profile`] — record the full task lifecycle into a [`Profile`].
//! * [`Exec::faults`] — inject failures, panics or delays from a
//!   [`FaultPlan`].
//! * [`Exec::shadow`] — audit every `SharedMatrix` access against the
//!   declared footprints through a [`ca_matrix::ShadowRegistry`].
//!
//! [`run`] returns an [`ExecReport`]: the [`ExecStats`] (task count, wall
//! time, [`Timeline`]), the optional [`Profile`], and the run's result.
//!
//! [`simulate`] is the second, deterministic executor: a list-scheduling
//! discrete-event simulator with `P` virtual cores and a pluggable cost
//! model. It is the hardware-substitution layer that stands in for the
//! paper's 8-core Xeon and 16-core Opteron machines (see DESIGN.md §2).
//! Both produce a [`Timeline`] renderable as an ASCII Gantt chart
//! ([`ascii_gantt`]) in the style of the paper's Figures 2–4.
//! [`MultiFrontier`] runs many graphs at once on one long-lived pool for
//! the serving layer.
//!
//! ## Failure semantics
//!
//! Jobs return [`TaskResult`]; panics are caught and converted into
//! failures. A failed task never releases its successors — the executors
//! cancel its **transitive successors**, drain every independent task, and
//! report the first failure as an [`ExecError`] naming the failed task, its
//! label, its worker lane, and the cancelled set ([`ExecReport::result`],
//! [`try_simulate`]). [`ExecReport::unwrap`] turns a failure into a panic
//! carrying that message.
//!
//! ## Recovery
//!
//! Wrapping a task body with [`retrying_job`] / [`retrying_dyn_job`] adds
//! the *recover* half: the wrapper snapshots the task's declared write-set
//! (resolved from the [`AccessMap`] by [`write_set`]), and on failure or
//! panic restores it and replays the body under a [`RetryPolicy`] —
//! successors are cancelled only once retries are exhausted. [`ChaosPlan`]
//! extends the fault harness with seeded rate-based injection of failures,
//! panics, delays, and silent data corruption.
//!
//! ## Profiling
//!
//! A profiled run ([`Exec::profile`], [`profile_simulate`]) records the
//! full task lifecycle (ready → dispatch → start → end, steal counters,
//! queue-depth samples) into a [`Profile`]. [`Profile::metrics`] derives
//! dispatch-latency distributions, per-[`KernelClass`] achieved GFlop/s
//! (roofline attribution), critical-path scheduling efficiency, and the
//! lookahead-effectiveness metric; [`Profile::chrome_trace`] emits a Chrome
//! trace with DAG flow events and counter tracks.
//!
//! ## Verification
//!
//! The builders' block declarations are retained in an [`AccessMap`]
//! ([`BlockTracker::into_access_map`]); [`verify_graph`] statically proves
//! every conflicting block pair is ordered by a happens-before path.
//! Checked execution — [`run`] with [`Exec::shadow`] set, or
//! [`try_simulate_checked`] — audits the actual element accesses at run
//! time through a [`ca_matrix::ShadowRegistry`] built by
//! [`build_shadow_registry`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod blockdeps;
mod checked;
mod exec;
mod fault;
mod footprint;
mod graph;
mod multigraph;
mod profile;
mod retry;
mod sim;
mod task;
mod telemetry;
mod trace;
mod verify;

pub use blockdeps::{row_blocks, BlockTracker};
pub use checked::{build_shadow_registry, try_simulate_checked, CheckedError};
pub use exec::{job, run, Exec, ExecReport, ExecStats, Job, Policy};
pub use footprint::{AccessMap, BlockRegion};
pub use verify::{
    reduce_transitive_edges, verify_graph, verify_graph_with, ConflictKind, EdgeFinding,
    Granularity, LintReport, ShadowedWrite, SoundnessError, VerifyOptions, VerifyReport,
    CLOSURE_TASK_LIMIT,
};
pub use fault::{ExecError, FaultAction, FaultPlan, TaskFailure, TaskResult};
pub use graph::TaskGraph;
pub use multigraph::{
    dyn_job, CancelReason, DynJob, JobId, JobOptions, JobOutcome, JobReport, JobWatch,
    MultiFrontier,
};
pub use profile::{
    ClassMetrics, KindMetrics, LatencyStats, LookaheadMetrics, PanelWait, Profile, QueueSample,
    SchedMetrics, StealStats, TaskRecord,
};
pub use retry::{
    retrying_dyn_job, retrying_job, write_set, ChaosAction, ChaosPlan, ChaosProfile,
    PanicHookGuard, RecoveryCounters, RecoveryStats, RetryPolicy, WriteSet,
};
pub use sim::{profile_simulate, simulate, simulate_uniform, try_simulate};
pub use task::{KernelClass, TaskId, TaskKind, TaskLabel, TaskMeta};
pub use telemetry::{
    record_event, sched_counters, set_thread_recorder, FlightEvent, FlightEventKind,
    FlightRecorder, SchedCounters, SchedCountersSnapshot,
};
pub use trace::{
    ascii_gantt, chrome_trace_json, chrome_trace_json_with_marks, Span, Timeline, TimelineError,
};
