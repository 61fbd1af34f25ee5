//! Tasks, task groups, and per-execution statistics.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;

use crate::executor::{Executor, Job};

/// Whether a task body is running as the accurate or the approximate
/// version (the runtime's decision at the `taskwait`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The accurate (original) body.
    Accurate,
    /// The light-weight approximate body supplied via the `approxfun`
    /// equivalent.
    Approximate,
}

/// Handle given to every running task body for work accounting.
///
/// Work units are abstract op counts; kernels report how much accurate
/// and approximate computation they actually performed, and the
/// [`EnergyModel`](crate::EnergyModel) prices them. Counting is what makes
/// the energy evaluation deterministic and testable.
///
/// Each worker owns one context per mode and sums their counts after
/// the `taskwait`'s join, so counting is a plain add, not an atomic.
#[derive(Debug)]
pub struct TaskCtx {
    mode: ExecMode,
    accurate_ops: Cell<u64>,
    approx_ops: Cell<u64>,
}

impl TaskCtx {
    pub(crate) fn new(mode: ExecMode) -> TaskCtx {
        TaskCtx {
            mode,
            accurate_ops: Cell::new(0),
            approx_ops: Cell::new(0),
        }
    }

    /// The mode the runtime chose for this task.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Reports `n` units of accurate work.
    pub fn count_accurate_ops(&self, n: u64) {
        self.accurate_ops.set(self.accurate_ops.get().wrapping_add(n));
    }

    /// Reports `n` units of approximate work.
    pub fn count_approx_ops(&self, n: u64) {
        self.approx_ops.set(self.approx_ops.get().wrapping_add(n));
    }

    /// The `(accurate, approximate)` work units counted so far.
    pub(crate) fn ops(&self) -> (u64, u64) {
        (self.accurate_ops.get(), self.approx_ops.get())
    }
}

/// A task's bodies, behind one allocation: the accurate closure and the
/// optional approximate one. Running it consumes both and calls the one
/// `ctx.mode()` names.
pub(crate) trait Body: Send {
    fn run(self: Box<Self>, ctx: &TaskCtx);
}

struct Bodies<A, B> {
    accurate: A,
    approx: Option<B>,
}

impl<A, B> Body for Bodies<A, B>
where
    A: FnOnce(&TaskCtx) + Send,
    B: FnOnce(&TaskCtx) + Send,
{
    fn run(self: Box<Self>, ctx: &TaskCtx) {
        let Bodies { accurate, approx } = *self;
        match ctx.mode() {
            ExecMode::Accurate => accurate(ctx),
            ExecMode::Approximate => {
                if let Some(approx) = approx {
                    approx(ctx);
                }
            }
        }
    }
}

/// Boxes a task's accurate and optional approximate body together.
pub(crate) fn bodies<'scope, A, B>(accurate: A, approx: Option<B>) -> Box<dyn Body + 'scope>
where
    A: FnOnce(&TaskCtx) + Send + 'scope,
    B: FnOnce(&TaskCtx) + Send + 'scope,
{
    Box::new(Bodies { accurate, approx })
}

pub(crate) struct Task<'scope> {
    pub significance: f64,
    pub has_approx: bool,
    pub body: Box<dyn Body + 'scope>,
}

impl fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("significance", &self.significance)
            .field("has_approx", &self.has_approx)
            .finish()
    }
}

/// Statistics of one `taskwait` execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionStats {
    /// Tasks executed with the accurate body.
    pub accurate: usize,
    /// Tasks executed with the approximate body.
    pub approximate: usize,
    /// Tasks dropped (chosen for approximation but no approximate body).
    pub dropped: usize,
    /// Total accurate work units reported by task bodies.
    pub accurate_ops: u64,
    /// Total approximate work units reported by task bodies.
    pub approx_ops: u64,
}

impl ExecutionStats {
    /// Total number of tasks in the group.
    pub fn total(&self) -> usize {
        self.accurate + self.approximate + self.dropped
    }

    /// Merges another group's statistics into this one (used when an
    /// application runs several task groups per run).
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.accurate += other.accurate;
        self.approximate += other.approximate;
        self.dropped += other.dropped;
        self.accurate_ops += other.accurate_ops;
        self.approx_ops += other.approx_ops;
    }
}

/// A labelled group of tasks — the unit over which `taskwait ratio(r)`
/// synchronises and enforces quality (§3.2, `label()` clause).
pub struct TaskGroup<'scope> {
    label: String,
    tasks: Vec<Task<'scope>>,
}

impl fmt::Debug for TaskGroup<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskGroup")
            .field("label", &self.label)
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

impl<'scope> TaskGroup<'scope> {
    /// Creates an empty group with the given label.
    pub fn new(label: impl Into<String>) -> TaskGroup<'scope> {
        TaskGroup {
            label: label.into(),
            tasks: Vec::new(),
        }
    }

    /// The group's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of spawned tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if no task has been spawned yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Spawns a task with the given `significance`, accurate body and
    /// optional approximate body (`#pragma omp task significance(s)
    /// approxfun(approx)`).
    ///
    /// Significance is clamped to `[0, 1]`; a value of exactly `1.0`
    /// forces accurate execution regardless of the requested ratio (the
    /// paper's Sobel kernel uses this for its group-A convolution tasks).
    ///
    /// # Panics
    ///
    /// Panics if `significance` is NaN.
    pub fn spawn<A, B>(&mut self, significance: f64, accurate: A, approx: Option<B>)
    where
        A: FnOnce(&TaskCtx) + Send + 'scope,
        B: FnOnce(&TaskCtx) + Send + 'scope,
    {
        assert!(!significance.is_nan(), "task significance must not be NaN");
        self.tasks.push(Task {
            significance: significance.clamp(0.0, 1.0),
            has_approx: approx.is_some(),
            body: bodies(accurate, approx),
        });
    }

    /// Spawns a task that is always executed accurately (no approximate
    /// body, significance 1).
    pub fn spawn_accurate<A>(&mut self, accurate: A)
    where
        A: FnOnce(&TaskCtx) + Send + 'scope,
    {
        self.spawn(1.0, accurate, None::<fn(&TaskCtx)>);
    }

    /// Executes the group on `executor` with the quality knob `ratio`
    /// (`#pragma omp taskwait label(...) ratio(r)`), blocking until every
    /// task has run.
    ///
    /// At least `ceil(ratio · n)` tasks execute accurately, chosen in
    /// order of decreasing significance (spawn order breaks ties); tasks
    /// with significance ≥ 1 are always accurate on top of that
    /// guarantee. The rest run their approximate body, or are dropped
    /// when none exists.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `[0, 1]` or is NaN.
    pub fn taskwait(self, executor: &Executor, ratio: f64) -> ExecutionStats {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "taskwait ratio must be within [0, 1], got {ratio}"
        );
        let _span = scorpio_obs::span("taskwait");
        let tracing = scorpio_obs::enabled();
        let started = tracing.then(std::time::Instant::now);
        let n = self.tasks.len();
        if n == 0 {
            return ExecutionStats::default();
        }

        let accurate = select_accurate(&self.tasks, ratio);
        let mut stats = ExecutionStats::default();
        let mut jobs: Vec<Job<'scope>> = Vec::with_capacity(n);
        for (seq, (task, is_accurate)) in self.tasks.into_iter().zip(accurate).enumerate() {
            let mode = if is_accurate {
                stats.accurate += 1;
                ExecMode::Accurate
            } else if task.has_approx {
                stats.approximate += 1;
                ExecMode::Approximate
            } else {
                stats.dropped += 1;
                // Dropped tasks never reach a worker, so the drop
                // decision is recorded here (zero duration).
                scorpio_obs::task_event(
                    &self.label,
                    seq as u64,
                    task.significance,
                    scorpio_obs::TaskClass::Dropped,
                    0,
                );
                continue;
            };
            jobs.push(Job {
                mode,
                task_id: seq as u64,
                significance: task.significance,
                body: task.body,
            });
        }

        {
            let _span = scorpio_obs::span("task_execution");
            (stats.accurate_ops, stats.approx_ops) = executor.run(&self.label, jobs);
        }

        scorpio_obs::count("tasks.accurate", stats.accurate as u64);
        scorpio_obs::count("tasks.approximate", stats.approximate as u64);
        scorpio_obs::count("tasks.dropped", stats.dropped as u64);
        scorpio_obs::count("tasks.accurate_ops", stats.accurate_ops);
        scorpio_obs::count("tasks.approx_ops", stats.approx_ops);
        if let Some(started) = started {
            scorpio_obs::taskwait_event(
                &self.label,
                ratio,
                stats.accurate as f64 / n as f64,
                stats.accurate as u64,
                stats.approximate as u64,
                stats.dropped as u64,
                started.elapsed().as_nanos() as u64,
            );
        }
        stats
    }

    /// Executes the group at the ratio currently commanded by an
    /// [`AdaptiveController`](crate::controller::adaptive::AdaptiveController)
    /// and records the achieved schedule back into it — the first half
    /// of the closed loop (`#pragma omp taskwait` with the knob under
    /// feedback control instead of a constant).
    ///
    /// The caller completes the loop by measuring (or proxying) output
    /// quality and passing it to
    /// [`observe`](crate::controller::adaptive::AdaptiveController::observe):
    ///
    /// ```
    /// use scorpio_runtime::controller::adaptive::{AdaptiveController, Objective};
    /// use scorpio_runtime::controller::QualityTarget;
    /// use scorpio_runtime::{Executor, TaskGroup};
    ///
    /// let executor = Executor::new(1);
    /// let mut ctrl = AdaptiveController::new(
    ///     "loop",
    ///     Objective::Quality(QualityTarget::AtLeast(0.5)),
    /// );
    /// for _ in 0..8 {
    ///     let mut group = TaskGroup::new("loop");
    ///     for i in 0..10 {
    ///         group.spawn(
    ///             i as f64 / 10.0,
    ///             |ctx| ctx.count_accurate_ops(10),
    ///             Some(|ctx: &scorpio_runtime::TaskCtx| ctx.count_approx_ops(1)),
    ///         );
    ///     }
    ///     let stats = group.taskwait_adaptive(&executor, &mut ctrl);
    ///     // Quality proxy: the accurate fraction itself.
    ///     let quality = stats.accurate as f64 / stats.total() as f64;
    ///     ctrl.observe(quality);
    ///     if ctrl.converged() {
    ///         break;
    ///     }
    /// }
    /// assert!(ctrl.steps() > 0);
    /// ```
    pub fn taskwait_adaptive(
        self,
        executor: &Executor,
        controller: &mut crate::controller::adaptive::AdaptiveController,
    ) -> ExecutionStats {
        let ratio = controller.ratio();
        let stats = self.taskwait(executor, ratio);
        controller.record_execution(&stats);
        stats
    }
}

/// The runtime's decision for each task, in spawn order: `true` runs
/// the accurate body.
///
/// The top `ceil(ratio · n)` tasks of the total order "significance
/// descending, spawn order ascending" are accurate, plus every task
/// with significance ≥ 1. The order is total, so a selection finds the
/// same set a stable sort's prefix would.
fn select_accurate(tasks: &[Task<'_>], ratio: f64) -> Vec<bool> {
    let n = tasks.len();
    let min_accurate = (ratio * n as f64).ceil() as usize;
    if min_accurate == n {
        return vec![true; n];
    }
    let mut accurate: Vec<bool> = tasks.iter().map(|t| t.significance >= 1.0).collect();
    if min_accurate > 0 {
        // Significances are clamped and never NaN, so `partial_cmp`
        // always answers; spawn order breaks ties.
        let by_rank = |&a: &usize, &b: &usize| {
            tasks[b]
                .significance
                .partial_cmp(&tasks[a].significance)
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.select_nth_unstable_by(min_accurate - 1, by_rank);
        for &i in &order[..min_accurate] {
            accurate[i] = true;
        }
    }
    accurate
}
