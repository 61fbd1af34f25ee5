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
///
/// The group is typed by its task bodies: `A` is the accurate body and
/// `B` the approximate one, and each task stores them inline, with no
/// allocation of its own. Tasks spawned from one call site (a loop)
/// share one closure type each. Bodies of different closure types share
/// a group when boxed at the call site, since
/// `Box<dyn FnOnce(&TaskCtx) + Send>` is itself a body:
///
/// ```
/// use scorpio_runtime::{Executor, TaskCtx, TaskGroup};
///
/// type Body = Box<dyn FnOnce(&TaskCtx) + Send>;
/// let mut group: TaskGroup<Body, Body> = TaskGroup::new("mixed");
/// group.spawn(0.9, Box::new(|ctx: &TaskCtx| ctx.count_accurate_ops(2)), None);
/// group.spawn(
///     0.1,
///     Box::new(|ctx: &TaskCtx| ctx.count_accurate_ops(5)),
///     Some(Box::new(|ctx: &TaskCtx| ctx.count_approx_ops(1))),
/// );
/// let stats = group.taskwait(&Executor::new(1), 0.5);
/// assert_eq!((stats.accurate_ops, stats.approx_ops), (2, 1));
/// ```
///
/// `B` defaults to a function pointer: the approximate body type of a
/// group that only calls [`TaskGroup::spawn_accurate`].
pub struct TaskGroup<A, B = fn(&TaskCtx)> {
    label: String,
    /// Each task's clamped significance, in spawn order.
    significance: Vec<f64>,
    /// Each task's accurate and optional approximate body, in spawn
    /// order.
    bodies: Vec<(A, Option<B>)>,
}

impl<A, B> fmt::Debug for TaskGroup<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskGroup")
            .field("label", &self.label)
            .field("tasks", &self.bodies.len())
            .finish()
    }
}

impl<A> TaskGroup<A> {
    /// Spawns a task that is always executed accurately (no approximate
    /// body, significance 1).
    pub fn spawn_accurate(&mut self, accurate: A)
    where
        A: FnOnce(&TaskCtx) + Send,
    {
        self.spawn(1.0, accurate, None);
    }
}

impl<A, B> TaskGroup<A, B> {
    /// Creates an empty group with the given label.
    pub fn new(label: impl Into<String>) -> TaskGroup<A, B> {
        TaskGroup::with_capacity(label, 0)
    }

    /// Creates an empty group with room for `tasks` spawns.
    pub fn with_capacity(label: impl Into<String>, tasks: usize) -> TaskGroup<A, B> {
        TaskGroup {
            label: label.into(),
            significance: Vec::with_capacity(tasks),
            bodies: Vec::with_capacity(tasks),
        }
    }

    /// The group's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of spawned tasks.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// `true` if no task has been spawned yet.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
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
    pub fn spawn(&mut self, significance: f64, accurate: A, approx: Option<B>)
    where
        A: FnOnce(&TaskCtx) + Send,
        B: FnOnce(&TaskCtx) + Send,
    {
        assert!(!significance.is_nan(), "task significance must not be NaN");
        self.significance.push(significance.clamp(0.0, 1.0));
        self.bodies.push((accurate, approx));
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
    pub fn taskwait(self, executor: &Executor, ratio: f64) -> ExecutionStats
    where
        A: FnOnce(&TaskCtx) + Send,
        B: FnOnce(&TaskCtx) + Send,
    {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "taskwait ratio must be within [0, 1], got {ratio}"
        );
        let _span = scorpio_obs::span("taskwait");
        let tracing = scorpio_obs::enabled();
        let started = tracing.then(std::time::Instant::now);
        let n = self.bodies.len();
        if n == 0 {
            return ExecutionStats::default();
        }

        let accurate = select_accurate(&self.significance, ratio);
        let mut stats = ExecutionStats::default();
        let (label, significance) = (&self.label, &self.significance);
        let jobs = self.bodies.into_iter().zip(accurate).enumerate().filter_map(
            |(seq, ((accurate, approx), is_accurate))| {
                let mode = if is_accurate {
                    stats.accurate += 1;
                    ExecMode::Accurate
                } else if approx.is_some() {
                    stats.approximate += 1;
                    ExecMode::Approximate
                } else {
                    stats.dropped += 1;
                    // Dropped tasks never reach a worker, so the drop
                    // decision is recorded here (zero duration).
                    scorpio_obs::task_event(
                        label,
                        seq as u64,
                        significance[seq],
                        scorpio_obs::TaskClass::Dropped,
                        0,
                    );
                    return None;
                };
                Some(Job {
                    mode,
                    task_id: seq as u64,
                    significance: significance[seq],
                    accurate,
                    approx,
                })
            },
        );

        let ops = {
            let _span = scorpio_obs::span("task_execution");
            executor.run(label, jobs)
        };
        (stats.accurate_ops, stats.approx_ops) = ops;

        scorpio_obs::count("tasks.accurate", stats.accurate as u64);
        scorpio_obs::count("tasks.approximate", stats.approximate as u64);
        scorpio_obs::count("tasks.dropped", stats.dropped as u64);
        scorpio_obs::count("tasks.accurate_ops", stats.accurate_ops);
        scorpio_obs::count("tasks.approx_ops", stats.approx_ops);
        if let Some(started) = started {
            scorpio_obs::taskwait_event(
                label,
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
    ) -> ExecutionStats
    where
        A: FnOnce(&TaskCtx) + Send,
        B: FnOnce(&TaskCtx) + Send,
    {
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
/// same set a stable sort's prefix would. It runs over a compact
/// `(significance, spawn index)` key per task.
fn select_accurate(significance: &[f64], ratio: f64) -> Vec<bool> {
    let n = significance.len();
    let min_accurate = (ratio * n as f64).ceil() as usize;
    if min_accurate == n {
        return vec![true; n];
    }
    let mut accurate: Vec<bool> = significance.iter().map(|&s| s >= 1.0).collect();
    if min_accurate > 0 {
        // Significances are clamped and never NaN, so `partial_cmp`
        // always answers; spawn order breaks ties.
        let by_rank = |a: &(f64, usize), b: &(f64, usize)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let mut keys: Vec<(f64, usize)> = significance.iter().copied().zip(0..).collect();
        keys.select_nth_unstable_by(min_accurate - 1, by_rank);
        for &(_, i) in &keys[..min_accurate] {
            accurate[i] = true;
        }
    }
    accurate
}
