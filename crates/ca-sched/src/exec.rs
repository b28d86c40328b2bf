//! Threaded execution of a task graph: one worker loop, two ready sets.
//!
//! [`run`] executes a [`TaskGraph`] of [`Job`]s on [`Exec::workers`] OS
//! threads (lane 0 on the calling thread, the others scoped to the call).
//! Every worker runs the same task lifecycle — claim a ready task, run it,
//! record its span, then release its successors or cancel them — and only
//! the ready set differs, chosen by [`Policy`]:
//!
//! * [`Policy::Priority`] — one shared max-heap under a mutex, with a
//!   condition variable for idle workers. Priorities implement the paper's
//!   lookahead-of-1 rule (the DAG builders assign them); among equal
//!   priorities the lower task id wins, which follows submission order.
//! * [`Policy::Stealing`] — per-worker LIFO deques, a global injector for
//!   the roots, and peer stealing with a spin-then-yield idle loop: the
//!   Cilk-style alternative, with depth-first locality and no global
//!   priorities.
//!
//! Failure semantics: jobs return [`TaskResult`], and panics are caught and
//! converted to failures. A failed task never releases its successors;
//! instead its **transitive successors** are cancelled (accounted for
//! without running), every task that does not depend on the failure still
//! runs, and the first failure is reported in [`ExecReport::result`].
//!
//! Fault injection ([`Exec::faults`]) and the race detector
//! ([`Exec::shadow`]) are job decorators applied before the workers start;
//! the loop itself never consults them.

use crate::checked::{self, CheckedError};
use crate::fault::{self, ExecError, FaultPlan, TaskResult};
use crate::graph::TaskGraph;
use crate::profile::{Collector, Profile};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::trace::{Span, Timeline};
use ca_matrix::ShadowRegistry;
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::sync::Arc;
use std::time::Instant;

/// A unit of executable work. Borrows from the caller's scope (`'s`), so
/// tasks can capture references to a shared matrix. Returns `Ok(())` on
/// success; an `Err` (or a panic) cancels all transitive successors.
pub type Job<'s> = Box<dyn FnOnce() -> TaskResult + Send + 's>;

/// Wraps an infallible closure as a [`Job`]. This is the common case: most
/// kernels signal trouble by panicking (caught by the executor), not by
/// returning `Err`.
pub fn job<'s>(f: impl FnOnce() + Send + 's) -> Job<'s> {
    Box::new(move || {
        f();
        Ok(())
    })
}

/// Which ready set the workers drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Central priority queue with the lookahead rule (the paper's dynamic
    /// scheduler). Profiles name it `"priority-queue"`.
    Priority,
    /// Work stealing: depth-first locality, no global priorities.
    /// Profiles name it `"work-stealing"`.
    Stealing,
}

/// How [`run`] executes a graph. Start from [`Exec::new`] and override
/// fields with struct-update syntax:
/// `Exec { policy: Policy::Stealing, ..Exec::new(4) }`.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    /// Number of worker threads (at least one).
    pub workers: usize,
    /// Ready-set policy.
    pub policy: Policy,
    /// Record the full task lifecycle into [`ExecReport::profile`].
    pub profile: bool,
    /// Deterministic fault injection, decided as each task starts.
    pub faults: Option<&'a FaultPlan>,
    /// Run every task inside its shadow scope, so `SharedMatrix` block
    /// accesses are audited against the declared footprints. The matrix
    /// must have been built with `SharedMatrix::with_shadow(_, registry)`.
    pub shadow: Option<&'a Arc<ShadowRegistry>>,
}

impl Exec<'_> {
    /// `workers` threads on the priority queue: no profile, no injected
    /// faults, no race detector.
    pub fn new(workers: usize) -> Self {
        Self { workers, policy: Policy::Priority, profile: false, faults: None, shadow: None }
    }
}

/// Statistics of one [`run`].
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Wall-clock execution time in seconds.
    pub wall_seconds: f64,
    /// Wall-clock timeline (always recorded; spans use `Instant` deltas).
    pub timeline: Timeline,
}

/// Everything one [`run`] produced. The statistics and the profile are
/// present even when a task failed.
#[derive(Debug)]
pub struct ExecReport {
    /// Task count, wall time and timeline.
    pub stats: ExecStats,
    /// The lifecycle profile, when [`Exec::profile`] was set.
    pub profile: Option<Profile>,
    /// The first task failure ([`CheckedError::Exec`]) or, on a clean
    /// checked run, the first race-detector finding
    /// ([`CheckedError::Soundness`]).
    pub result: Result<(), CheckedError>,
}

impl ExecReport {
    /// The statistics of a clean run.
    ///
    /// # Panics
    /// With the error's message if a task failed or the race detector
    /// reported a violation.
    #[track_caller]
    pub fn unwrap(self) -> ExecStats {
        match self.result {
            Ok(()) => self.stats,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Executes `graph` as `exec` says, consuming it, and returns after every
/// task has run or been cancelled.
///
/// # Panics
/// If `exec.workers == 0`. Task panics are caught and reported.
pub fn run<'s>(graph: TaskGraph<Job<'s>>, exec: &Exec<'s>) -> ExecReport {
    assert!(exec.workers > 0, "need at least one worker");
    let graph = match exec.shadow {
        Some(registry) => checked::instrument(graph, registry),
        None => graph,
    };
    let graph = match exec.faults {
        Some(plan) if !plan.is_empty() => fault::inject(graph, plan),
        _ => graph,
    };
    let (stats, failure, profile) = match exec.policy {
        Policy::Priority => execute::<PriorityQueue>(graph, exec.workers, exec.profile),
        Policy::Stealing => execute::<WorkStealing>(graph, exec.workers, exec.profile),
    };
    let result = match (failure, exec.shadow) {
        (Some(rec), _) => Err(CheckedError::Exec(rec.into_exec_error())),
        (None, Some(registry)) => match checked::first_violation(registry) {
            Some(v) => Err(CheckedError::Soundness(v)),
            None => Ok(()),
        },
        (None, None) => Ok(()),
    };
    ExecReport { stats, profile, result }
}

/// First failure wins; later failures only contribute their cancelled sets.
struct FailureRecord {
    task: TaskId,
    label: TaskLabel,
    lane: usize,
    message: String,
    panicked: bool,
    cancelled: Vec<TaskId>,
}

impl FailureRecord {
    /// Converts the record into the public error (cancelled set sorted and
    /// deduplicated).
    fn into_exec_error(self) -> ExecError {
        let mut cancelled = self.cancelled;
        cancelled.sort_unstable();
        cancelled.dedup();
        ExecError {
            task: self.task,
            label: self.label,
            lane: self.lane,
            message: self.message,
            panicked: self.panicked,
            cancelled,
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Where ready tasks wait and how idle workers wait for them: the only
/// part of the executor that differs between the two policies.
trait ReadySet: Sync + Sized {
    /// Name recorded in [`Profile::scheduler`].
    const NAME: &'static str;
    /// Whether profiles keep the per-worker steal counters.
    const STEALS: bool;
    /// Per-worker state, moved onto the worker's thread.
    type Local: Send;

    /// Builds the ready set holding `roots`, plus each worker's state.
    fn new(run: &Run<'_>, roots: impl Iterator<Item = TaskId>) -> (Self, Vec<Self::Local>);

    /// The next task for worker `w`, waiting while none is ready; `None`
    /// once every task is accounted for.
    fn next(&self, run: &Run<'_>, w: usize, local: &mut Self::Local) -> Option<TaskId>;

    /// Publishes the tasks a completion made ready. `finished` is set when
    /// that completion accounted for the last task.
    fn publish(&self, run: &Run<'_>, local: &mut Self::Local, ready: &[TaskId], finished: bool);
}

#[derive(PartialEq, Eq)]
struct ReadyEntry {
    priority: i64,
    id: TaskId,
}

impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then lower id first.
        self.priority.cmp(&other.priority).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// [`Policy::Priority`]: a shared heap; idle workers sleep on the condvar
/// and every publication wakes them all.
struct PriorityQueue {
    heap: Mutex<BinaryHeap<ReadyEntry>>,
    cv: Condvar,
}

impl ReadySet for PriorityQueue {
    const NAME: &'static str = "priority-queue";
    const STEALS: bool = false;
    type Local = ();

    fn new(run: &Run<'_>, roots: impl Iterator<Item = TaskId>) -> (Self, Vec<()>) {
        let mut heap = BinaryHeap::new();
        for id in roots {
            if let Some(c) = &run.collector {
                c.mark_ready(id, 0.0);
            }
            heap.push(ReadyEntry { priority: run.metas[id].priority, id });
        }
        if let Some(c) = &run.collector {
            c.sample_queue(0.0, heap.len());
        }
        let workers = run.lanes.len();
        (Self { heap: Mutex::new(heap), cv: Condvar::new() }, vec![(); workers])
    }

    fn next(&self, run: &Run<'_>, _w: usize, _local: &mut ()) -> Option<TaskId> {
        let mut q = self.heap.lock();
        loop {
            if let Some(e) = q.pop() {
                if let Some(c) = &run.collector {
                    c.sample_queue(run.now(), q.len());
                }
                return Some(e.id);
            }
            if run.remaining.load(AtomicOrd::Acquire) == 0 {
                return None;
            }
            self.cv.wait(&mut q);
        }
    }

    fn publish(&self, run: &Run<'_>, _local: &mut (), ready: &[TaskId], finished: bool) {
        if ready.is_empty() && !finished {
            return;
        }
        let mut q = self.heap.lock();
        let t_ready = run.now();
        for &s in ready {
            if let Some(c) = &run.collector {
                c.mark_ready(s, t_ready);
            }
            q.push(ReadyEntry { priority: run.metas[s].priority, id: s });
        }
        if let Some(c) = &run.collector {
            c.sample_queue(t_ready, q.len());
        }
        drop(q);
        self.cv.notify_all();
    }
}

/// [`Policy::Stealing`]: roots in the injector, released tasks on the
/// releasing worker's own deque; idle workers spin, then yield.
struct WorkStealing {
    injector: Injector<TaskId>,
    stealers: Vec<Stealer<TaskId>>,
}

struct StealLocal {
    deque: Deque<TaskId>,
    idle_spins: u32,
}

impl ReadySet for WorkStealing {
    const NAME: &'static str = "work-stealing";
    const STEALS: bool = true;
    type Local = StealLocal;

    fn new(run: &Run<'_>, roots: impl Iterator<Item = TaskId>) -> (Self, Vec<StealLocal>) {
        let injector = Injector::new();
        for id in roots {
            if let Some(c) = &run.collector {
                c.mark_ready(id, 0.0);
            }
            injector.push(id);
        }
        let locals: Vec<StealLocal> = (0..run.lanes.len())
            .map(|_| StealLocal { deque: Deque::new_lifo(), idle_spins: 0 })
            .collect();
        let stealers = locals.iter().map(|l| l.deque.stealer()).collect();
        (Self { injector, stealers }, locals)
    }

    fn next(&self, run: &Run<'_>, w: usize, local: &mut StealLocal) -> Option<TaskId> {
        loop {
            // Local first, then the injector, then steal from peers.
            let found = local.deque.pop().or_else(|| {
                let stolen = std::iter::repeat_with(|| {
                    self.injector
                        .steal_batch_and_pop(&local.deque)
                        .or_else(|| self.stealers.iter().map(|s| s.steal()).collect())
                })
                .find(|s| !s.is_retry())
                .and_then(|s| s.success());
                let counters = crate::telemetry::sched_counters();
                counters.steal_attempts.inc();
                if stolen.is_some() {
                    counters.steal_hits.inc();
                }
                if let Some(c) = &run.collector {
                    c.count_steal(w, stolen.is_some());
                }
                stolen
            });
            if found.is_some() {
                local.idle_spins = 0;
                return found;
            }
            if run.remaining.load(AtomicOrd::Acquire) == 0 {
                return None;
            }
            local.idle_spins += 1;
            if local.idle_spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn publish(&self, run: &Run<'_>, local: &mut StealLocal, ready: &[TaskId], _finished: bool) {
        for &s in ready {
            if let Some(c) = &run.collector {
                c.mark_ready(s, run.now());
            }
            local.deque.push(s);
        }
    }
}

/// State shared by every worker of one run.
struct Run<'s> {
    metas: Vec<TaskMeta>,
    succs: Vec<Vec<TaskId>>,
    /// Payload slots, each claimed exactly once.
    slots: Vec<Mutex<Option<Job<'s>>>>,
    /// Unfinished predecessors per task.
    preds: Vec<AtomicUsize>,
    /// Set exactly once per cancelled task (by the cancellation walk).
    cancelled: Vec<AtomicBool>,
    /// Tasks not yet accounted for (executed or cancelled).
    remaining: AtomicUsize,
    /// Executed spans, one lane per worker.
    lanes: Vec<Mutex<Vec<Span>>>,
    failure: Mutex<Option<FailureRecord>>,
    collector: Option<Collector>,
    t0: Instant,
}

impl Run<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The task lifecycle, run by every worker until all tasks are
    /// accounted for.
    fn worker<R: ReadySet>(&self, ready: &R, w: usize, mut local: R::Local) {
        let counters = crate::telemetry::sched_counters();
        let mut released = Vec::new();
        while let Some(id) = ready.next(self, w, &mut local) {
            let dispatch = self.now();
            counters.tasks_dispatched.inc();

            let job = self.slots[id].lock().take().expect("task executed twice");
            let start = self.now();
            let outcome = catch_unwind(AssertUnwindSafe(job));
            let end = self.now();
            let meta = &self.metas[id];
            self.lanes[w].lock().push(Span { task: id, label: meta.label, start, end });
            if let Some(c) = &self.collector {
                c.record(w, id, meta, dispatch, start, end);
            }

            let failure = match outcome {
                Ok(Ok(())) => None,
                Ok(Err(f)) => Some((f.message, false)),
                Err(p) => Some((panic_message(p.as_ref()), true)),
            };
            if let Some((message, panicked)) = failure {
                counters.tasks_failed.inc();
                let drained = 1 + self.cancel_successors(id, w, message, panicked);
                if self.remaining.fetch_sub(drained, AtomicOrd::AcqRel) == drained {
                    ready.publish(self, &mut local, &[], true);
                    return;
                }
                continue;
            }
            counters.tasks_completed.inc();

            // Release successors. The cancelled check is defensive: a task
            // whose predecessors all completed cannot be in a cancelled
            // closure, but the load is cheap.
            released.clear();
            for &s in &self.succs[id] {
                if self.preds[s].fetch_sub(1, AtomicOrd::AcqRel) == 1
                    && !self.cancelled[s].load(AtomicOrd::Acquire)
                {
                    released.push(s);
                }
            }
            let finished = self.remaining.fetch_sub(1, AtomicOrd::AcqRel) == 1;
            ready.publish(self, &mut local, &released, finished);
            if finished {
                return;
            }
        }
    }

    /// Cancels the transitive successors of the failed task `id` instead of
    /// releasing them and records the failure; returns how many tasks this
    /// call cancelled.
    ///
    /// Nothing in the closure can have started: each node's path back to
    /// the failed task goes through a predecessor that never completed, so
    /// its predecessor count never reached zero. The swap makes each task
    /// count once even when two failures race over a shared successor.
    fn cancel_successors(&self, id: TaskId, w: usize, message: String, panicked: bool) -> usize {
        let mut newly = Vec::new();
        let mut stack: Vec<TaskId> = self.succs[id].clone();
        while let Some(s) = stack.pop() {
            if !self.cancelled[s].swap(true, AtomicOrd::AcqRel) {
                newly.push(s);
                stack.extend(self.succs[s].iter().copied());
            }
        }
        let count = newly.len();
        let mut rec = self.failure.lock();
        match rec.as_mut() {
            None => {
                *rec = Some(FailureRecord {
                    task: id,
                    label: self.metas[id].label,
                    lane: w,
                    message,
                    panicked,
                    cancelled: newly,
                });
            }
            Some(r) => r.cancelled.extend(newly),
        }
        count
    }
}

/// Runs the graph to quiescence on `workers` threads drained from ready
/// set `R`: every task either executes or is cancelled because a
/// (transitive) predecessor failed.
fn execute<R: ReadySet>(
    graph: TaskGraph<Job<'_>>,
    workers: usize,
    profile: bool,
) -> (ExecStats, Option<FailureRecord>, Option<Profile>) {
    let n = graph.len();
    let TaskGraph { metas, payloads, succs, npreds } = graph;
    let run = Run {
        metas,
        succs,
        slots: payloads.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        preds: npreds.iter().map(|&c| AtomicUsize::new(c)).collect(),
        cancelled: (0..n).map(|_| AtomicBool::new(false)).collect(),
        remaining: AtomicUsize::new(n),
        lanes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        failure: Mutex::new(None),
        collector: profile.then(|| Collector::new(n, workers)),
        t0: Instant::now(),
    };
    let roots = (0..n).filter(|&id| npreds[id] == 0);
    let (ready, locals) = R::new(&run, roots);

    // Lane 0 runs on the calling thread, the others on scoped threads.
    let mut locals = locals.into_iter();
    let first = locals.next().expect("at least one worker");
    std::thread::scope(|scope| {
        for (w, local) in locals.enumerate() {
            let (run, ready) = (&run, &ready);
            scope.spawn(move || run.worker(ready, w + 1, local));
        }
        run.worker(&ready, 0, first);
    });

    let Run { succs, lanes, failure, collector, cancelled, t0, .. } = run;
    let mut timeline = Timeline::new(workers);
    let mut executed = 0;
    for (w, lane) in lanes.into_iter().enumerate() {
        let mut spans = lane.into_inner();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        executed += spans.len();
        timeline.lanes[w] = spans;
    }
    timeline.makespan = t0.elapsed().as_secs_f64();
    let profile = collector.map(|c| {
        let cancelled: Vec<TaskId> =
            (0..n).filter(|&id| cancelled[id].load(AtomicOrd::Acquire)).collect();
        c.finish(R::NAME, timeline.makespan, &succs, cancelled, R::STEALS)
    });
    let stats = ExecStats { tasks: executed, wall_seconds: timeline.makespan, timeline };
    (stats, failure.into_inner(), profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TaskFailure;
    use crate::task::{TaskKind, TaskMeta};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    const POLICIES: [Policy; 2] = [Policy::Priority, Policy::Stealing];

    fn meta(priority: i64) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0).with_priority(priority)
    }

    fn on(policy: Policy, workers: usize) -> Exec<'static> {
        Exec { policy, ..Exec::new(workers) }
    }

    fn exec_error(report: ExecReport) -> ExecError {
        match report.result {
            Err(CheckedError::Exec(e)) => e,
            other => panic!("expected a task failure, got {other:?}"),
        }
    }

    #[test]
    fn executes_all_tasks_once() {
        for policy in POLICIES {
            let counter = AtomicUsize::new(0);
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            for _ in 0..200 {
                g.add_task(meta(0), job(|| {
                    counter.fetch_add(1, AtomicOrd::Relaxed);
                }));
            }
            let stats = run(g, &on(policy, 4)).unwrap();
            assert_eq!(counter.load(AtomicOrd::Relaxed), 200, "{policy:?}");
            assert_eq!(stats.tasks, 200, "{policy:?}");
            stats.timeline.validate();
        }
    }

    #[test]
    fn respects_dependencies() {
        for policy in POLICIES {
            // Chain a -> b -> c writing increasing stamps.
            let stamp = AtomicU64::new(0);
            let order = Mutex::new(Vec::new());
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let mk = |name: &'static str| {
                let stamp = &stamp;
                let order = &order;
                move || {
                    let s = stamp.fetch_add(1, AtomicOrd::SeqCst);
                    order.lock().push((name, s));
                }
            };
            let a = g.add_task(meta(0), job(mk("a")));
            let b = g.add_task(meta(0), job(mk("b")));
            let c = g.add_task(meta(0), job(mk("c")));
            g.add_dep(a, b);
            g.add_dep(b, c);
            run(g, &on(policy, 4)).unwrap();
            let o = order.into_inner();
            let pos = |n: &str| o.iter().position(|(x, _)| *x == n).unwrap();
            assert!(pos("a") < pos("b"), "{policy:?}");
            assert!(pos("b") < pos("c"), "{policy:?}");

            // Chain of 40 tasks stamped by a shared clock.
            let clock = AtomicU64::new(0);
            let stamps: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(u64::MAX)).collect();
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let mut prev = None;
            for i in 0..40usize {
                let clock = &clock;
                let stamps = &stamps;
                let id = g.add_task(meta(0), job(move || {
                    stamps[i].store(clock.fetch_add(1, AtomicOrd::SeqCst), AtomicOrd::SeqCst);
                }));
                if let Some(p) = prev {
                    g.add_dep(p, id);
                }
                prev = Some(id);
            }
            run(g, &on(policy, 4)).unwrap();
            for i in 1..40 {
                assert!(
                    stamps[i - 1].load(AtomicOrd::SeqCst) < stamps[i].load(AtomicOrd::SeqCst),
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn fan_out_fan_in_runs_everything() {
        for policy in POLICIES {
            for (width, workers) in [(16usize, 3usize), (64, 8)] {
                let total = AtomicUsize::new(0);
                let total_ref = &total;
                let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
                let root = g.add_task(meta(0), job(move || {
                    total_ref.fetch_add(1, AtomicOrd::Relaxed);
                }));
                let mids: Vec<_> = (0..width)
                    .map(|_| {
                        let id = g.add_task(meta(0), job(move || {
                            total_ref.fetch_add(1, AtomicOrd::Relaxed);
                        }));
                        g.add_dep(root, id);
                        id
                    })
                    .collect();
                let sink = g.add_task(meta(0), job(move || {
                    total_ref.fetch_add(1, AtomicOrd::Relaxed);
                }));
                for m in mids {
                    g.add_dep(m, sink);
                }
                run(g, &on(policy, workers)).unwrap();
                assert_eq!(total.load(AtomicOrd::Relaxed), width + 2, "{policy:?}");
            }
        }
    }

    #[test]
    fn single_thread_respects_priority_order() {
        let order = Mutex::new(Vec::new());
        let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
        // All ready at start; one worker must take highest priority first.
        for (i, p) in [(0usize, 1i64), (1, 5), (2, 3)] {
            let order = &order;
            g.add_task(meta(p), job(move || order.lock().push(i)));
        }
        run(g, &Exec::new(1)).unwrap();
        assert_eq!(order.into_inner(), vec![1, 2, 0]);
    }

    #[test]
    fn timeline_has_all_spans() {
        for policy in POLICIES {
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            for _ in 0..10 {
                g.add_task(meta(0), job(|| std::hint::black_box(())));
            }
            let stats = run(g, &on(policy, 2)).unwrap();
            let total: usize = stats.timeline.lanes.iter().map(|l| l.len()).sum();
            assert_eq!(total, 10, "{policy:?}");
            stats.timeline.validate();
        }
    }

    #[test]
    fn task_panic_propagates() {
        for policy in POLICIES {
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            g.add_task(meta(0), job(|| panic!("boom in task")));
            let r = catch_unwind(AssertUnwindSafe(|| run(g, &on(policy, 2)).unwrap()));
            let payload = r.expect_err("unwrap of a failed run panics");
            assert!(panic_message(payload.as_ref()).contains("boom in task"), "{policy:?}");
        }
    }

    #[test]
    fn scoped_borrow_of_external_data() {
        for policy in POLICIES {
            // Tasks mutate disjoint slots of a borrowed buffer.
            let mut data = vec![0u64; 8];
            {
                let slots: Vec<_> = data.iter_mut().collect();
                let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
                for (i, slot) in slots.into_iter().enumerate() {
                    g.add_task(meta(0), job(move || *slot = i as u64 + 1));
                }
                run(g, &on(policy, 4)).unwrap();
            }
            assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 7, 8], "{policy:?}");
        }
    }

    #[test]
    fn failed_task_cancels_transitive_successors() {
        for policy in POLICIES {
            // a -> b -> c: a fails, so b and c must never run.
            let ran = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let a = g.add_task(meta(0), Box::new(|| {
                ran[0].fetch_add(1, AtomicOrd::SeqCst);
                Err(TaskFailure::new("pivot went sideways"))
            }));
            let ran_ref = &ran;
            let b = g.add_task(meta(0), job(move || {
                ran_ref[1].fetch_add(1, AtomicOrd::SeqCst);
            }));
            let c = g.add_task(meta(0), job(move || {
                ran_ref[2].fetch_add(1, AtomicOrd::SeqCst);
            }));
            g.add_dep(a, b);
            g.add_dep(b, c);
            let err = exec_error(run(g, &on(policy, 4)));
            assert_eq!(err.task, a);
            assert!(!err.panicked);
            assert!(err.message.contains("pivot went sideways"));
            assert_eq!(err.cancelled, vec![b, c]);
            assert_eq!(ran[0].load(AtomicOrd::SeqCst), 1);
            assert_eq!(ran[1].load(AtomicOrd::SeqCst), 0);
            assert_eq!(ran[2].load(AtomicOrd::SeqCst), 0);
        }
    }

    #[test]
    fn independent_branch_survives_failure() {
        for policy in POLICIES {
            // Diamond with an extra independent chain: failing one branch
            // must not stop the other branch or the chain, only the join.
            let ok_runs = AtomicUsize::new(0);
            let join_runs = AtomicUsize::new(0);
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let root = g.add_task(meta(0), job(|| {}));
            let bad = g.add_task(meta(0), Box::new(|| Err(TaskFailure::new("boom"))));
            let good = g.add_task(meta(0), job(|| {
                ok_runs.fetch_add(1, AtomicOrd::SeqCst);
            }));
            let join = g.add_task(meta(0), job(|| {
                join_runs.fetch_add(1, AtomicOrd::SeqCst);
            }));
            g.add_dep(root, bad);
            g.add_dep(root, good);
            g.add_dep(bad, join);
            g.add_dep(good, join);
            let chain: Vec<_> = (0..8)
                .map(|_| {
                    g.add_task(meta(0), job(|| {
                        ok_runs.fetch_add(1, AtomicOrd::SeqCst);
                    }))
                })
                .collect();
            for pair in chain.windows(2) {
                g.add_dep(pair[0], pair[1]);
            }
            let err = exec_error(run(g, &on(policy, 4)));
            assert_eq!(err.task, bad);
            assert_eq!(err.cancelled, vec![join]);
            assert_eq!(ok_runs.load(AtomicOrd::SeqCst), 9, "{policy:?}");
            assert_eq!(join_runs.load(AtomicOrd::SeqCst), 0, "{policy:?}");
        }
    }

    #[test]
    fn clean_graph_succeeds() {
        for policy in POLICIES {
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            for _ in 0..20 {
                g.add_task(meta(0), job(|| {}));
            }
            let report = run(g, &on(policy, 4));
            report.result.expect("clean graph must succeed");
            assert_eq!(report.stats.tasks, 20);
        }
    }

    #[test]
    fn fault_plan_injects_panic_deterministically() {
        // (chain length, panicking step, workers)
        for policy in POLICIES {
            for (len, step, workers) in [(6usize, 2usize, 2usize), (10, 5, 3)] {
                let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
                let ids: Vec<_> = (0..len)
                    .map(|i| {
                        let m = TaskMeta::new(TaskLabel::new(TaskKind::Update, i, 0, 0), 1.0);
                        g.add_task(m, job(|| {}))
                    })
                    .collect();
                for pair in ids.windows(2) {
                    g.add_dep(pair[0], pair[1]);
                }
                // Panic on the task with the given step; everything after it
                // cancels.
                let plan = FaultPlan::new().panic_nth(1, move |l| l.step == step);
                let exec = Exec { faults: Some(&plan), ..on(policy, workers) };
                let err = exec_error(run(g, &exec));
                assert_eq!(err.task, ids[step]);
                assert!(err.panicked);
                assert!(err.message.contains("injected panic"));
                assert_eq!(err.cancelled, ids[step + 1..].to_vec(), "{policy:?}");
            }
        }
    }

    #[test]
    fn injected_failure_on_source_cancels_whole_chain() {
        for policy in POLICIES {
            let ran = AtomicUsize::new(0);
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let ids: Vec<_> = (0..5)
                .map(|i| {
                    let m = TaskMeta::new(TaskLabel::new(TaskKind::Panel, i, 0, 0), 1.0);
                    let ran = &ran;
                    g.add_task(m, job(move || {
                        ran.fetch_add(1, AtomicOrd::SeqCst);
                    }))
                })
                .collect();
            for pair in ids.windows(2) {
                g.add_dep(pair[0], pair[1]);
            }
            let plan = FaultPlan::new().fail_nth(1, |l| l.step == 0);
            let err = exec_error(run(g, &Exec { faults: Some(&plan), ..on(policy, 1) }));
            assert_eq!(err.task, ids[0]);
            assert!(!err.panicked);
            assert_eq!(err.message, "injected fault");
            assert_eq!(err.cancelled.len(), 4);
            assert_eq!(ran.load(AtomicOrd::SeqCst), 0, "no task body may run");
        }
    }

    #[test]
    fn injected_delay_is_counted_inside_the_span() {
        for policy in POLICIES {
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let m = TaskMeta::new(TaskLabel::new(TaskKind::Panel, 3, 0, 0), 1.0);
            let id = g.add_task(m, job(|| {}));
            let plan = FaultPlan::new().delay_nth(1, Duration::from_millis(20), |l| l.step == 3);
            let stats = run(g, &Exec { faults: Some(&plan), ..on(policy, 2) }).unwrap();
            let span = stats.timeline.lanes.iter().flatten().find(|s| s.task == id).unwrap();
            assert!(span.end - span.start >= 0.02, "{policy:?}: span {span:?}");
        }
    }
}
