//! The worker-pool executor behind `taskwait`.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use scorpio_obs::TaskClass;

use crate::task::{ExecMode, TaskCtx};

/// A prepared job: the runtime's decision for one spawned task, carried
/// to whichever worker claims it so the executor can attribute the
/// task-event it emits (task id, significance, chosen mode).
pub(crate) struct Job<A, B> {
    /// The mode the `taskwait` ranking chose.
    pub mode: ExecMode,
    /// Spawn order within the group — the event log's task id.
    pub task_id: u64,
    /// The task's (clamped) significance.
    pub significance: f64,
    /// The accurate body.
    pub accurate: A,
    /// The approximate body, if the task has one.
    pub approx: Option<B>,
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
    /// One worker runs the jobs on the calling thread in the order
    /// `jobs` yields them, as it yields them. More workers claim jobs
    /// through a shared atomic cursor; the caller is worker 0 and
    /// `min(threads, jobs) − 1` more are spawned. Blocks until every job
    /// has finished. `label` is the task group's label, attributed to
    /// the per-task events the workers emit while tracing is enabled. A
    /// panicking body panics the caller once every worker has stopped.
    pub(crate) fn run<A, B>(&self, label: &str, jobs: impl Iterator<Item = Job<A, B>>) -> (u64, u64)
    where
        A: FnOnce(&TaskCtx) + Send,
        B: FnOnce(&TaskCtx) + Send,
    {
        if self.threads == 1 {
            let worker = Worker::new(label);
            jobs.for_each(|job| worker.run(job));
            return worker.ops();
        }
        let slots = JobSlots(jobs.map(|j| UnsafeCell::new(Some(j))).collect());
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
struct JobSlots<A, B>(Vec<UnsafeCell<Option<Job<A, B>>>>);

// SAFETY: a slot is only accessed through `JobSlots::take`, by the
// worker that claimed its index from the shared cursor, and the cursor
// hands every index out once — no slot is ever reached by two threads.
// Jobs are `Send`, so moving one out on another thread is sound.
unsafe impl<A: Send, B: Send> Sync for JobSlots<A, B> {}

impl<A, B> JobSlots<A, B> {
    /// Takes the job at `i`.
    ///
    /// # Safety
    ///
    /// `i` must have been claimed from the cursor by the calling worker.
    unsafe fn take(&self, i: usize) -> Option<Job<A, B>> {
        // SAFETY: the caller holds the only claim on slot `i`.
        unsafe { (*self.0[i].get()).take() }
    }
}

/// One worker: claims jobs until the cursor runs past the end and
/// returns the `(accurate, approximate)` work units its bodies counted.
fn claim_loop<A, B>(label: &str, slots: &JobSlots<A, B>, cursor: &AtomicUsize) -> (u64, u64)
where
    A: FnOnce(&TaskCtx) + Send,
    B: FnOnce(&TaskCtx) + Send,
{
    let worker = Worker::new(label);
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= slots.0.len() {
            break;
        }
        // SAFETY: `i` came from this worker's own `fetch_add`.
        if let Some(job) = unsafe { slots.take(i) } {
            worker.run(job);
        }
    }
    worker.ops()
}

/// One worker's context for each mode, summed after the join.
struct Worker<'a> {
    label: &'a str,
    accurate: TaskCtx,
    approximate: TaskCtx,
}

impl<'a> Worker<'a> {
    fn new(label: &'a str) -> Worker<'a> {
        Worker {
            label,
            accurate: TaskCtx::new(ExecMode::Accurate),
            approximate: TaskCtx::new(ExecMode::Approximate),
        }
    }

    /// Executes one job with the context of its mode, timing it and
    /// emitting a per-task event when tracing is enabled. When disabled
    /// the only overhead against the uninstrumented runtime is the one
    /// relaxed atomic load of [`scorpio_obs::enabled`] — no clock reads.
    fn run<A, B>(&self, job: Job<A, B>)
    where
        A: FnOnce(&TaskCtx),
        B: FnOnce(&TaskCtx),
    {
        let Job {
            mode,
            task_id,
            significance,
            accurate,
            approx,
        } = job;
        let body = || match mode {
            ExecMode::Accurate => accurate(&self.accurate),
            ExecMode::Approximate => {
                if let Some(approx) = approx {
                    approx(&self.approximate);
                }
            }
        };
        if scorpio_obs::enabled() {
            let started = std::time::Instant::now();
            body();
            let class = match mode {
                ExecMode::Accurate => TaskClass::Accurate,
                ExecMode::Approximate => TaskClass::Approx,
            };
            let nanos = started.elapsed().as_nanos() as u64;
            scorpio_obs::task_event(self.label, task_id, significance, class, nanos);
        } else {
            body();
        }
    }

    /// The `(accurate, approximate)` work units counted by both
    /// contexts.
    fn ops(&self) -> (u64, u64) {
        let (acc_a, apx_a) = self.accurate.ops();
        let (acc_b, apx_b) = self.approximate.ops();
        (acc_a.wrapping_add(acc_b), apx_a.wrapping_add(apx_b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An accurate job with only an accurate body.
    fn accurate_job<A: FnOnce(&TaskCtx) + Send>(task_id: u64, body: A) -> Job<A, fn(&TaskCtx)> {
        Job {
            mode: ExecMode::Accurate,
            task_id,
            significance: 1.0,
            accurate: body,
            approx: None,
        }
    }

    #[test]
    fn runs_all_jobs_in_parallel() {
        let counter = AtomicUsize::new(0);
        for threads in [1, 4] {
            counter.store(0, Ordering::Relaxed);
            let jobs: Vec<_> = (0..100)
                .map(|i| {
                    let counter = &counter;
                    accurate_job(i, move |ctx: &TaskCtx| {
                        ctx.count_accurate_ops(2);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            let ops = Executor::new(threads).run("test", jobs.into_iter());
            assert_eq!(counter.load(Ordering::Relaxed), 100);
            assert_eq!(ops, (200, 0));
        }
    }

    #[test]
    fn one_worker_runs_jobs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let ran_on = &ran_on;
                accurate_job(i, move |_: &TaskCtx| {
                    ran_on.lock().unwrap().push(std::thread::current().id());
                })
            })
            .collect();
        Executor::new(1).run("test", jobs.into_iter());
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 8);
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn jobs_can_borrow_stack_data() {
        let executor = Executor::new(2);
        let mut out = vec![0u64; 8];
        {
            let jobs: Vec<_> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    accurate_job(i as u64, move |_: &TaskCtx| {
                        *slot = i as u64 * 10;
                    })
                })
                .collect();
            executor.run("test", jobs.into_iter());
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
