//! The worker-pool executor behind `taskwait`.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use scorpio_obs::TaskClass;

use crate::task::{Body, ExecMode, TaskCtx};

/// A prepared job: the runtime's decision for one spawned task, carried
/// to whichever worker claims it so the executor can attribute the
/// task-event it emits (task id, significance, chosen mode).
pub(crate) struct Job<'scope> {
    /// The mode the `taskwait` ranking chose.
    pub mode: ExecMode,
    /// Spawn order within the group — the event log's task id.
    pub task_id: u64,
    /// The task's (clamped) significance.
    pub significance: f64,
    /// The task's bodies; the one `mode` names runs.
    pub body: Box<dyn Body + 'scope>,
}

/// A fixed-width thread pool executing the task jobs of a `taskwait`.
///
/// The calling thread is worker 0: it runs the same claim loop as the
/// other `threads − 1` workers, which are spawned per `taskwait` with
/// `std::thread::scope`, so a one-worker executor spawns no thread at
/// all. Scoped workers let task bodies borrow stack data (output
/// buffers, images) without `'static` bounds — the natural translation
/// of the paper's OpenMP tasks writing to caller-owned arrays.
pub struct Executor {
    threads: usize,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Executor {
    /// Creates an executor with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Executor {
        assert!(threads > 0, "executor needs at least one thread");
        Executor { threads }
    }

    /// Creates an executor sized to the machine
    /// (`std::thread::available_parallelism`, falling back to 4).
    pub fn with_available_parallelism() -> Executor {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Executor::new(threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `work` over `items` on the worker pool, each worker carrying
    /// private mutable state built once by `init` — the hook the
    /// parallel analysis engine uses to give every worker its own
    /// reusable tape arena.
    ///
    /// Items are claimed through a shared atomic cursor (the same
    /// self-scheduling the task pool uses), `work` receives the worker
    /// state, the item index and the item, and results come back in
    /// item order regardless of which worker produced them. With one
    /// thread the pool is bypassed entirely: items run inline on the
    /// caller's thread, so `threads == 1` has zero synchronisation
    /// overhead and serves as the serial baseline.
    pub fn map_with_state<T, S, R, I, W>(&self, items: &[T], init: I, work: W) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, &T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| work(&mut state, i, item))
                .collect();
        }

        let slots: Vec<parking_lot::Mutex<Option<R>>> =
            items.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let n = items.len();
        let workers = self.threads.min(n);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = work(&mut state, i, &items[i]);
                        *slots[i].lock() = Some(r);
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker pool completed without filling every result slot")
            })
            .collect()
    }

    /// Runs the prepared jobs to completion and returns the
    /// `(accurate, approximate)` work units their bodies counted.
    ///
    /// Workers claim jobs through a shared atomic cursor; the caller is
    /// worker 0 and `min(threads, jobs) − 1` more are spawned. Blocks
    /// until every job has finished. `label` is the task group's label,
    /// attributed to the per-task events the workers emit while tracing
    /// is enabled. A panicking body panics the caller once every worker
    /// has stopped.
    pub(crate) fn run(&self, label: &str, jobs: Vec<Job<'_>>) -> (u64, u64) {
        let slots = JobSlots(jobs.into_iter().map(|j| UnsafeCell::new(Some(j))).collect());
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(slots.0.len());
        let work = || claim_loop(label, &slots, &cursor);
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut ops = work();
            for helper in helpers {
                let (accurate, approx) = helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                ops.0 = ops.0.wrapping_add(accurate);
                ops.1 = ops.1.wrapping_add(approx);
            }
            ops
        })
    }
}

/// The jobs of one `taskwait`, each taken by the one worker that
/// claimed its index.
struct JobSlots<'scope>(Vec<UnsafeCell<Option<Job<'scope>>>>);

// SAFETY: a slot is only accessed through `JobSlots::take`, by the
// worker that claimed its index from the shared cursor, and the cursor
// hands every index out once — no slot is ever reached by two threads.
// Jobs are `Send`, so moving one out on another thread is sound.
unsafe impl Sync for JobSlots<'_> {}

impl<'scope> JobSlots<'scope> {
    /// Takes the job at `i`.
    ///
    /// # Safety
    ///
    /// `i` must have been claimed from the cursor by the calling worker.
    unsafe fn take(&self, i: usize) -> Option<Job<'scope>> {
        // SAFETY: the caller holds the only claim on slot `i`.
        unsafe { (*self.0[i].get()).take() }
    }
}

/// One worker: claims jobs until the cursor runs past the end, running
/// each with the worker's context for its mode, and returns the
/// `(accurate, approximate)` work units its bodies counted.
fn claim_loop(label: &str, slots: &JobSlots<'_>, cursor: &AtomicUsize) -> (u64, u64) {
    let accurate = TaskCtx::new(ExecMode::Accurate);
    let approximate = TaskCtx::new(ExecMode::Approximate);
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= slots.0.len() {
            break;
        }
        // SAFETY: `i` came from this worker's own `fetch_add`.
        if let Some(job) = unsafe { slots.take(i) } {
            let ctx = match job.mode {
                ExecMode::Accurate => &accurate,
                ExecMode::Approximate => &approximate,
            };
            run_job(label, job, ctx);
        }
    }
    let (acc_a, apx_a) = accurate.ops();
    let (acc_b, apx_b) = approximate.ops();
    (acc_a.wrapping_add(acc_b), apx_a.wrapping_add(apx_b))
}

/// Executes one claimed job, timing it and emitting a per-task event
/// when tracing is enabled. When disabled the only overhead against
/// the uninstrumented runtime is the one relaxed atomic load of
/// [`scorpio_obs::enabled`] — no clock reads.
fn run_job(label: &str, job: Job<'_>, ctx: &TaskCtx) {
    if scorpio_obs::enabled() {
        let started = std::time::Instant::now();
        job.body.run(ctx);
        let class = match job.mode {
            ExecMode::Accurate => TaskClass::Accurate,
            ExecMode::Approximate => TaskClass::Approx,
        };
        scorpio_obs::task_event(
            label,
            job.task_id,
            job.significance,
            class,
            started.elapsed().as_nanos() as u64,
        );
    } else {
        job.body.run(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An accurate job with only an accurate body.
    fn accurate_job<'s>(task_id: u64, body: impl FnOnce(&TaskCtx) + Send + 's) -> Job<'s> {
        Job {
            mode: ExecMode::Accurate,
            task_id,
            significance: 1.0,
            body: crate::task::bodies(body, None::<fn(&TaskCtx)>),
        }
    }

    #[test]
    fn runs_all_jobs_in_parallel() {
        let counter = AtomicUsize::new(0);
        for threads in [1, 4] {
            counter.store(0, Ordering::Relaxed);
            let jobs: Vec<Job<'_>> = (0..100)
                .map(|i| {
                    let counter = &counter;
                    accurate_job(i, move |ctx: &TaskCtx| {
                        ctx.count_accurate_ops(2);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            let ops = Executor::new(threads).run("test", jobs);
            assert_eq!(counter.load(Ordering::Relaxed), 100);
            assert_eq!(ops, (200, 0));
        }
    }

    #[test]
    fn one_worker_runs_jobs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(Vec::new());
        let jobs: Vec<Job<'_>> = (0..8)
            .map(|i| {
                let ran_on = &ran_on;
                accurate_job(i, move |_: &TaskCtx| {
                    ran_on.lock().unwrap().push(std::thread::current().id());
                })
            })
            .collect();
        Executor::new(1).run("test", jobs);
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 8);
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn jobs_can_borrow_stack_data() {
        let executor = Executor::new(2);
        let mut out = vec![0u64; 8];
        {
            let jobs: Vec<Job<'_>> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    accurate_job(i as u64, move |_: &TaskCtx| {
                        *slot = i as u64 * 10;
                    })
                })
                .collect();
            executor.run("test", jobs);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = Executor::new(0);
    }

    #[test]
    fn map_with_state_keeps_item_order() {
        let executor = Executor::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = executor.map_with_state(
            &items,
            || 0usize,
            |used, i, &item| {
                *used += 1;
                item * 2 + i
            },
        );
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_state_single_thread_runs_inline() {
        let executor = Executor::new(1);
        let items = [1, 2, 3, 4];
        // One thread means one state shared across all items, in order.
        let out = executor.map_with_state(
            &items,
            || 0i32,
            |acc, _, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(out, vec![1, 3, 6, 10]);
    }

    #[test]
    fn map_with_state_empty_items() {
        let executor = Executor::new(4);
        let items: [u8; 0] = [];
        let out = executor.map_with_state(&items, || (), |_, i, _| i);
        assert!(out.is_empty());
    }
}
