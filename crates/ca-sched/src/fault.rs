//! First-class task-failure semantics and deterministic fault injection.
//!
//! Jobs return [`TaskResult`]; a failed (or panicking) task makes the pool
//! **cancel the transitive successors** of that task instead of running
//! them on garbage, drain every task that does not depend on the failure,
//! and report an [`ExecError`] identifying the failed task, its label, the
//! worker lane it ran on, and the set of cancelled tasks.
//!
//! [`FaultPlan`] is the deterministic fault-injection harness used by the
//! stress tests: it fails, panics, or delays the N-th task matching a label
//! predicate, so scheduler failure paths can be exercised reproducibly
//! without bespoke panicking jobs. [`crate::Exec::faults`] applies it as a
//! job decorator, so the worker loop never consults it.

use crate::exec::Job;
use crate::graph::TaskGraph;
use crate::task::{TaskId, TaskLabel};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Why a single task failed. Jobs return this; panics are caught by the
/// pool and converted into one.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Human-readable cause.
    pub message: String,
}

impl TaskFailure {
    /// Creates a failure with the given cause.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task failed: {}", self.message)
    }
}

impl std::error::Error for TaskFailure {}

impl From<String> for TaskFailure {
    fn from(message: String) -> Self {
        Self::new(message)
    }
}

impl From<&str> for TaskFailure {
    fn from(message: &str) -> Self {
        Self::new(message)
    }
}

/// What a job returns: `Ok(())` or a failure the pool turns into
/// cancellation of the task's transitive successors.
pub type TaskResult = Result<(), TaskFailure>;

/// The outcome of a graph execution that hit a failing task. Carries enough
/// identity to log, retry, or surface the failure upstream.
#[derive(Clone, Debug)]
pub struct ExecError {
    /// Id of the first task that failed.
    pub task: TaskId,
    /// Label of the failed task.
    pub label: TaskLabel,
    /// Worker lane the failed task ran on.
    pub lane: usize,
    /// Failure message (panic payload text or `TaskFailure` message).
    pub message: String,
    /// Whether the task panicked (vs. returning `Err`).
    pub panicked: bool,
    /// Every task cancelled because it transitively depended on a failed
    /// task (sorted, deduplicated; may span several failed tasks).
    pub cancelled: Vec<TaskId>,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} ({:?}) {} on worker {}: {} ({} successor task(s) cancelled)",
            self.task,
            self.label,
            if self.panicked { "panicked" } else { "failed" },
            self.lane,
            self.message,
            self.cancelled.len(),
        )
    }
}

impl std::error::Error for ExecError {}

/// What to inject when a [`FaultPlan`] rule fires.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// The task does not run; it reports a `TaskFailure`.
    Fail,
    /// The task does not run; the worker panics (caught by the pool).
    Panic,
    /// The task runs normally after sleeping, stressing drain ordering.
    Delay(Duration),
}

struct FaultRule {
    predicate: Box<dyn Fn(&TaskLabel) -> bool + Send + Sync>,
    /// 1-based index among the tasks matching `predicate`.
    nth: usize,
    action: FaultAction,
    hits: AtomicUsize,
}

/// Deterministic fault-injection plan: each rule fires on the N-th task
/// (in execution-start order) whose label matches its predicate.
///
/// Rules keep private hit counters, so a plan is single-use: build a fresh
/// plan per run.
#[derive(Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    fn rule(
        mut self,
        nth: usize,
        action: FaultAction,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        assert!(nth >= 1, "fault rules are 1-based: nth must be >= 1");
        self.rules.push(FaultRule {
            predicate: Box::new(predicate),
            nth,
            action,
            hits: AtomicUsize::new(0),
        });
        self
    }

    /// Fails the `nth` task matching `predicate` (1-based).
    pub fn fail_nth(
        self,
        nth: usize,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, FaultAction::Fail, predicate)
    }

    /// Panics on the `nth` task matching `predicate` (1-based).
    pub fn panic_nth(
        self,
        nth: usize,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, FaultAction::Panic, predicate)
    }

    /// Delays the `nth` task matching `predicate` (1-based) by `delay`.
    pub fn delay_nth(
        self,
        nth: usize,
        delay: Duration,
        predicate: impl Fn(&TaskLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.rule(nth, FaultAction::Delay(delay), predicate)
    }

    /// Consults the plan as a task starts; returns the action to inject, if
    /// any. Counts one match per rule per call, atomically.
    pub fn decide(&self, label: &TaskLabel) -> Option<FaultAction> {
        for rule in &self.rules {
            if (rule.predicate)(label) {
                let hit = rule.hits.fetch_add(1, Ordering::AcqRel) + 1;
                if hit == rule.nth {
                    return Some(rule.action.clone());
                }
            }
        }
        None
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Decorates every job with `plan`'s decision, taken as the job starts:
/// [`FaultAction::Fail`] replaces the body with an `"injected fault"`
/// failure, [`FaultAction::Panic`] with an `"injected panic"` panic, and
/// [`FaultAction::Delay`] sleeps before the body, inside the task's span.
pub(crate) fn inject<'s>(graph: TaskGraph<Job<'s>>, plan: &'s FaultPlan) -> TaskGraph<Job<'s>> {
    let TaskGraph { metas, payloads, succs, npreds } = graph;
    let payloads = payloads
        .into_iter()
        .zip(&metas)
        .map(|(job, meta)| {
            let label = meta.label;
            Box::new(move || match plan.decide(&label) {
                Some(FaultAction::Fail) => Err(TaskFailure::new("injected fault")),
                Some(FaultAction::Panic) => panic!("injected panic"),
                Some(FaultAction::Delay(d)) => {
                    std::thread::sleep(d);
                    job()
                }
                None => job(),
            }) as Job<'s>
        })
        .collect();
    TaskGraph { metas, payloads, succs, npreds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel};

    fn label(step: usize) -> TaskLabel {
        TaskLabel::new(TaskKind::Panel, step, 0, 0)
    }

    #[test]
    fn nth_match_fires_once() {
        let plan = FaultPlan::new().fail_nth(2, |l| l.kind == TaskKind::Panel);
        assert!(plan.decide(&label(0)).is_none());
        assert!(matches!(plan.decide(&label(1)), Some(FaultAction::Fail)));
        assert!(plan.decide(&label(2)).is_none());
    }

    #[test]
    fn predicate_filters_labels() {
        let plan = FaultPlan::new().panic_nth(1, |l| l.step == 7);
        assert!(plan.decide(&label(3)).is_none());
        assert!(matches!(plan.decide(&label(7)), Some(FaultAction::Panic)));
    }

    #[test]
    fn exec_error_display_names_the_task() {
        let err = ExecError {
            task: 42,
            label: label(3),
            lane: 1,
            message: "boom".to_string(),
            panicked: true,
            cancelled: vec![43, 44],
        };
        let text = err.to_string();
        assert!(text.contains("42") && text.contains("boom") && text.contains("2 successor"));
    }
}
