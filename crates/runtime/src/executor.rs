//! The worker-pool executor behind `taskwait`.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::task::{ExecMode, TaskCtx};

/// A prepared job: the runtime's decision for one spawned task, carried
/// to whichever worker claims it.
pub(crate) struct Job<A, B> {
    /// The mode the `taskwait` ranking chose.
    pub mode: ExecMode,
    /// The accurate body.
    pub accurate: A,
    /// The approximate body, if the task has one; an approximate job
    /// without one is a dropped task.
    pub approx: Option<B>,
}

/// A fixed-width thread pool executing the task jobs of a `taskwait`
/// and the item batches of [`Executor::map_with_state`].
///
/// Both run one claim loop. The calling thread is worker 0 and the other
/// workers are spawned per call with `std::thread::scope`, so a
/// one-worker executor spawns no thread at all. Scoped workers let task
/// bodies borrow stack data (inputs, images) without `'static` bounds,
/// and each body's return value comes back to the caller as its task's
/// output.
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
    /// Items are claimed through a shared atomic cursor by the caller
    /// (worker 0) and `min(threads, items) − 1` spawned workers — the
    /// claim loop `taskwait` uses. `work` receives the worker state, the
    /// item index and the item, and results come back in item order
    /// regardless of which worker produced them. With one thread the
    /// pool is bypassed entirely: items run inline on the caller's
    /// thread, so `threads == 1` has zero synchronisation overhead and
    /// serves as the serial baseline.
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

        let results = Slots::empty(items.len());
        self.claim_loop(items.len(), |claims| {
            let mut state = init();
            for i in claims {
                // SAFETY: `i` is this worker's own claim.
                unsafe { results.put(i, work(&mut state, i, &items[i])) }
            }
        });
        results.into_values()
    }

    /// Runs the prepared jobs to completion and returns each job's
    /// output in job order, with the `(accurate, approximate)` work
    /// units their bodies counted.
    ///
    /// One worker runs the jobs on the calling thread in the order
    /// `jobs` yields them, as it yields them. More workers claim jobs
    /// through a shared atomic cursor and put each output in the slot of
    /// its index; the caller is worker 0 and `min(threads, jobs) − 1`
    /// more are spawned. Blocks until every job has finished. A
    /// panicking body panics the caller once every worker has stopped.
    pub(crate) fn run<T, A, B>(&self, jobs: impl Iterator<Item = Job<A, B>>) -> (Vec<T>, (u64, u64))
    where
        T: Default + Send,
        A: FnOnce(&TaskCtx) -> T + Send,
        B: FnOnce(&TaskCtx) -> T + Send,
    {
        if self.threads == 1 {
            let worker = Worker::new();
            let outputs = jobs.map(|job| worker.run(job)).collect();
            return (outputs, worker.ops());
        }
        let jobs = Slots(jobs.map(|j| UnsafeCell::new(Some(j))).collect());
        let outputs = Slots::empty(jobs.0.len());
        let ops = self.claim_loop(jobs.0.len(), |claims| {
            let worker = Worker::new();
            for i in claims {
                // SAFETY: `i` is this worker's own claim.
                unsafe {
                    if let Some(job) = jobs.take(i) {
                        outputs.put(i, worker.run(job));
                    }
                }
            }
            worker.ops()
        });
        let ops = ops.into_iter().fold((0u64, 0u64), |(a, b), (c, d)| {
            (a.wrapping_add(c), b.wrapping_add(d))
        });
        (outputs.into_values(), ops)
    }

    /// The one multi-worker claim loop: the caller is worker 0 and
    /// `min(threads, n) − 1` scoped helpers join it, each running `work`
    /// over the indices it claims from one shared cursor over `0..n`.
    /// Returns every worker's output, the caller's first. A panicking
    /// worker panics the caller once every worker has stopped.
    fn claim_loop<O, W>(&self, n: usize, work: W) -> Vec<O>
    where
        O: Send,
        W: Fn(Claims<'_>) -> O + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let worker = || work(Claims { cursor: &cursor, n });
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.threads.min(n)).map(|_| scope.spawn(worker)).collect();
            let mut outputs = vec![worker()];
            outputs.extend(helpers.into_iter().map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            outputs
        })
    }
}

/// The indices one worker claims: each index of `0..n` is handed out
/// once, to whichever worker's `fetch_add` reaches it first.
struct Claims<'a> {
    cursor: &'a AtomicUsize,
    n: usize,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }
}

/// One slot per claimed index — a `taskwait`'s jobs and their outputs,
/// or the results of a map — each reached only by the worker that
/// claimed its index.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: a slot is only accessed through `Slots::take`/`Slots::put`,
// by the worker that claimed its index from the shared cursor, and the
// cursor hands every index out once — no slot is ever reached by two
// threads. Values are `Send`, so moving one across threads is sound.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// `n` empty slots.
    fn empty(n: usize) -> Slots<T> {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Takes the value at `i`.
    ///
    /// # Safety
    ///
    /// `i` must have been claimed from the cursor by the calling worker.
    unsafe fn take(&self, i: usize) -> Option<T> {
        // SAFETY: the caller holds the only claim on slot `i`.
        unsafe { (*self.0[i].get()).take() }
    }

    /// Stores `value` at `i`.
    ///
    /// # Safety
    ///
    /// `i` must have been claimed from the cursor by the calling worker.
    unsafe fn put(&self, i: usize, value: T) {
        // SAFETY: the caller holds the only claim on slot `i`.
        unsafe { *self.0[i].get() = Some(value) }
    }

    /// The stored values in index order, once the claim loop has
    /// joined.
    fn into_values(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker pool completed without filling every result slot")
            })
            .collect()
    }
}

/// One worker's context for each mode, summed after the join.
struct Worker {
    accurate: TaskCtx,
    approximate: TaskCtx,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            accurate: TaskCtx::new(ExecMode::Accurate),
            approximate: TaskCtx::new(ExecMode::Approximate),
        }
    }

    /// Executes one job with the context of its mode and returns its
    /// output: an approximate job without an approximate body is a
    /// dropped task and yields `T::default()`.
    fn run<T, A, B>(&self, job: Job<A, B>) -> T
    where
        T: Default,
        A: FnOnce(&TaskCtx) -> T,
        B: FnOnce(&TaskCtx) -> T,
    {
        match job.mode {
            ExecMode::Accurate => (job.accurate)(&self.accurate),
            ExecMode::Approximate => job
                .approx
                .map_or_else(T::default, |approx| approx(&self.approximate)),
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
    fn accurate_job<A: FnOnce(&TaskCtx) + Send>(body: A) -> Job<A, fn(&TaskCtx)> {
        Job {
            mode: ExecMode::Accurate,
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
                .map(|_| {
                    let counter = &counter;
                    accurate_job(move |ctx: &TaskCtx| {
                        ctx.count_accurate_ops(2);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            let (_, ops) = Executor::new(threads).run(jobs.into_iter());
            assert_eq!(counter.load(Ordering::Relaxed), 100);
            assert_eq!(ops, (200, 0));
        }
    }

    #[test]
    fn one_worker_runs_jobs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let ran_on = &ran_on;
                accurate_job(move |_: &TaskCtx| {
                    ran_on.lock().unwrap().push(std::thread::current().id());
                })
            })
            .collect();
        Executor::new(1).run(jobs.into_iter());
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
                    accurate_job(move |_: &TaskCtx| {
                        *slot = i as u64 * 10;
                    })
                })
                .collect();
            executor.run(jobs.into_iter());
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
    fn map_with_state_keeps_order_and_per_worker_state() {
        let executor = Executor::new(3);
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..200).collect();
        // Each worker's state is (worker id, items it has run so far).
        let out = executor.map_with_state(
            &items,
            || (inits.fetch_add(1, Ordering::Relaxed), 0usize),
            |(id, count), i, &item| {
                *count += 1;
                (item, i, *id, *count)
            },
        );
        let workers = inits.load(Ordering::Relaxed);
        assert!((1..=3).contains(&workers), "{workers} states built");
        for (k, &(item, i, _, _)) in out.iter().enumerate() {
            assert_eq!((item, i), (k, k));
        }
        // Every worker's counter runs 1, 2, … over the items it claimed,
        // in the order it claimed them.
        for id in 0..workers {
            let counts: Vec<usize> = out
                .iter()
                .filter(|r| r.2 == id)
                .map(|r| r.3)
                .collect();
            assert_eq!(counts, (1..=counts.len()).collect::<Vec<_>>());
        }
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
