//! Behavioural tests of the ratio knob and scheduling guarantees.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;

use crate::{EnergyModel, ExecMode, Executor, TaskGroup};

#[test]
fn taskwait_emits_one_summary_event_matching_its_stats() {
    let executor = Executor::new(2);
    let mut group = TaskGroup::new("evt-group");
    for i in 0..6 {
        // Even tasks have an approximate body, odd ones will be dropped
        // when not selected as accurate.
        let approx = (i % 2 == 0).then_some(|_: &crate::TaskCtx| {});
        group.spawn(i as f64 / 6.0, |_| {}, approx);
    }
    scorpio_obs::enable();
    let (_, stats) = group.taskwait(&executor, 0.5);
    scorpio_obs::disable();
    // Only this group's events: the obs log is process-global and other
    // tests may be tracing concurrently.
    let events: Vec<scorpio_obs::TaskEvent> = scorpio_obs::take_task_events()
        .into_iter()
        .filter(|e| e.label == "evt-group")
        .collect();
    assert_eq!(events.len(), 1, "one event per taskwait: {events:?}");
    match events[0].kind {
        scorpio_obs::EventKind::Taskwait {
            requested_ratio,
            achieved_ratio,
            accurate,
            approximate,
            dropped,
            ..
        } => {
            assert_eq!(requested_ratio, 0.5);
            assert!((achieved_ratio - stats.accurate as f64 / 6.0).abs() < 1e-12);
            assert_eq!(accurate, stats.accurate as u64);
            assert_eq!(approximate, stats.approximate as u64);
            assert_eq!(dropped, stats.dropped as u64);
        }
        ref k => panic!("expected a taskwait event, got {k:?}"),
    }
    assert_eq!(stats.accurate + stats.approximate + stats.dropped, 6);
    assert!(stats.dropped > 0, "odd low-significance tasks have no approx body");
}

#[test]
fn ratio_one_runs_everything_accurately() {
    let executor = Executor::new(4);
    let accurate_runs = AtomicUsize::new(0);
    let mut group = TaskGroup::new("g");
    for i in 0..10 {
        let accurate_runs = &accurate_runs;
        group.spawn(
            i as f64 / 10.0,
            move |_| {
                accurate_runs.fetch_add(1, Ordering::Relaxed);
            },
            Some(|_: &crate::TaskCtx| panic!("approx must not run at ratio 1")),
        );
    }
    let (_, stats) = group.taskwait(&executor, 1.0);
    assert_eq!(stats.accurate, 10);
    assert_eq!(stats.approximate, 0);
    assert_eq!(accurate_runs.load(Ordering::Relaxed), 10);
}

#[test]
fn ratio_zero_approximates_all_unforced_tasks() {
    let executor = Executor::new(4);
    let mut group = TaskGroup::new("g");
    for i in 0..10 {
        group.spawn(
            i as f64 / 20.0, // all < 1.0
            |_| panic!("accurate must not run at ratio 0"),
            Some(|_: &crate::TaskCtx| {}),
        );
    }
    let (_, stats) = group.taskwait(&executor, 0.0);
    assert_eq!(stats.accurate, 0);
    assert_eq!(stats.approximate, 10);
}

#[test]
fn significance_one_forces_accurate_execution() {
    // The Sobel pattern: group A at significance 1.0 always accurate,
    // even at ratio 0 (§4.1.1).
    let executor = Executor::new(2);
    let forced = AtomicUsize::new(0);
    let mut group = TaskGroup::new("sobel");
    for i in 0..9 {
        let forced = &forced;
        let sig = if i % 3 == 0 { 1.0 } else { 0.5 };
        group.spawn(
            sig,
            move |_| {
                forced.fetch_add(1, Ordering::Relaxed);
            },
            Some(|_: &crate::TaskCtx| {}),
        );
    }
    let (_, stats) = group.taskwait(&executor, 0.0);
    assert_eq!(stats.accurate, 3);
    assert_eq!(forced.load(Ordering::Relaxed), 3);
}

#[test]
fn most_significant_tasks_run_accurately_first() {
    let executor = Executor::new(2);
    // Declared before the group: the group's task closures borrow it.
    let accurate_ids = Mutex::new(Vec::new());
    let mut group = TaskGroup::new("g");
    for i in 0..10usize {
        let accurate_ids = &accurate_ids;
        group.spawn(
            i as f64 / 10.0, // significance rises with i
            move |_| accurate_ids.lock().unwrap().push(i),
            Some(|_: &crate::TaskCtx| {}),
        );
    }
    let (_, stats) = group.taskwait(&executor, 0.3);
    assert_eq!(stats.accurate, 3);
    let mut ids = accurate_ids.into_inner().unwrap();
    ids.sort_unstable();
    // ceil(0.3·10) = 3 accurate slots → the three most significant: 7, 8, 9.
    assert_eq!(ids, vec![7, 8, 9]);
}

#[test]
fn dropped_tasks_have_no_approx_body() {
    let executor = Executor::new(2);
    let mut group = TaskGroup::new("g");
    for _ in 0..4 {
        group.spawn(0.1, |_| {}, None::<fn(&crate::TaskCtx)>);
    }
    let (_, stats) = group.taskwait(&executor, 0.5);
    // ceil(0.5·4) = 2 accurate; the other 2 have no approx body → dropped.
    assert_eq!(stats.accurate, 2);
    assert_eq!(stats.approximate, 0);
    assert_eq!(stats.dropped, 2);
    assert_eq!(stats.total(), 4);
}

#[test]
fn work_units_are_accumulated_per_mode() {
    for threads in [1, 4] {
        let executor = Executor::new(threads);
        let mut group = TaskGroup::new("g");
        for _ in 0..6 {
            group.spawn(
                0.5,
                |ctx: &crate::TaskCtx| {
                    assert_eq!(ctx.mode(), ExecMode::Accurate);
                    ctx.count_accurate_ops(100);
                },
                Some(|ctx: &crate::TaskCtx| {
                    assert_eq!(ctx.mode(), ExecMode::Approximate);
                    ctx.count_approx_ops(10);
                }),
            );
        }
        let (_, stats) = group.taskwait(&executor, 0.5);
        assert_eq!(stats.accurate, 3, "{threads} workers");
        assert_eq!(stats.approximate, 3, "{threads} workers");
        assert_eq!(stats.accurate_ops, 300, "{threads} workers");
        assert_eq!(stats.approx_ops, 30, "{threads} workers");
    }
}

#[test]
fn empty_group_is_fine() {
    let executor = Executor::new(2);
    // Nothing spawned, so nothing fixes the body types: name one.
    let group: TaskGroup<fn(&crate::TaskCtx)> = TaskGroup::new("empty");
    let (_, stats) = group.taskwait(&executor, 0.5);
    assert_eq!(stats.total(), 0);
}

/// Bodies of different closure types share one group when boxed at the
/// call site: the ratio picks among them as among inline bodies, each
/// chosen body runs once, and the work counts add up. At one worker the
/// chosen bodies run in spawn order.
#[test]
fn boxed_bodies_make_a_heterogeneous_group() {
    type Body<'a> = Box<dyn FnOnce(&crate::TaskCtx) + Send + 'a>;
    for threads in [1, 3] {
        let ran = Mutex::new(Vec::new());
        let ran = &ran;
        let mut group: TaskGroup<Body<'_>, Body<'_>> = TaskGroup::new("mixed");
        let scale = 10u64;
        group.spawn(
            0.9,
            Box::new(move |ctx| {
                ctx.count_accurate_ops(scale);
                ran.lock().unwrap().push("a0");
            }),
            Some(Box::new(|_| ran.lock().unwrap().push("x0"))),
        );
        group.spawn(
            0.2,
            Box::new(|ctx| {
                ctx.count_accurate_ops(1);
                ran.lock().unwrap().push("a1");
            }),
            None,
        );
        group.spawn(0.5, Box::new(|_| ran.lock().unwrap().push("a2")), None);
        let label = String::from("owned");
        group.spawn(
            0.1,
            Box::new(|_| ran.lock().unwrap().push("a3")),
            Some(Box::new(move |ctx| {
                ctx.count_approx_ops(label.len() as u64);
                ran.lock().unwrap().push("x3");
            })),
        );
        let (_, stats) = group.taskwait(&Executor::new(threads), 0.5);
        assert_eq!((stats.accurate, stats.approximate, stats.dropped), (2, 1, 1));
        assert_eq!((stats.accurate_ops, stats.approx_ops), (scale, 5));
        let mut ran = ran.lock().unwrap().clone();
        if threads > 1 {
            ran.sort_unstable();
        }
        assert_eq!(ran, ["a0", "a2", "x3"], "{threads} workers");
    }
}

#[test]
fn tasks_can_write_disjoint_borrowed_buffers() {
    let executor = Executor::new(4);
    let mut out = vec![0.0f64; 16];
    {
        let mut group = TaskGroup::new("g");
        for (i, chunk) in out.chunks_mut(4).enumerate() {
            group.spawn_accurate(move |_| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (i * 4 + j) as f64;
                }
            });
        }
        let (_, stats) = group.taskwait(&executor, 1.0);
        assert_eq!(stats.accurate, 4);
    }
    let want: Vec<f64> = (0..16).map(|i| i as f64).collect();
    assert_eq!(out, want);
}

#[test]
fn task_panic_propagates_to_taskwait() {
    // A panicking task body must not be swallowed: thread::scope re-raises
    // it at the join, so taskwait (and the whole run) fails loudly rather
    // than returning corrupt output.
    let result = std::panic::catch_unwind(|| {
        let executor = Executor::new(2);
        let mut group = TaskGroup::new("g");
        group.spawn_accurate(|_| panic!("task body exploded"));
        let _: (Vec<()>, _) = group.taskwait(&executor, 1.0);
    });
    assert!(result.is_err());
}

/// A task's return value is its output: `taskwait` hands back one per
/// task in spawn order, a dropped task yields `T::default()`, the
/// outputs are the same at 1 and 4 workers, and a panicking body
/// panics the caller only after every other worker has stopped.
#[test]
fn taskwait_returns_one_output_per_task_in_spawn_order() {
    let run = |threads: usize| {
        let mut group = TaskGroup::new("outputs");
        for i in 0..40u64 {
            // Significance falls with i; every third task has no
            // approximate body, so the unchosen ones are dropped.
            let approx = (i % 3 != 0).then_some(move |_: &crate::TaskCtx| 1000 + i);
            group.spawn(1.0 - i as f64 / 40.0, move |_| i, approx);
        }
        group.taskwait(&Executor::new(threads), 0.5)
    };
    let (outputs, stats) = run(1);
    let want: Vec<u64> = (0..40)
        .map(|i| match i {
            0..=19 => i,
            _ if i % 3 == 0 => 0,
            _ => 1000 + i,
        })
        .collect();
    assert_eq!(outputs, want);
    assert_eq!((stats.accurate, stats.approximate, stats.dropped), (20, 13, 7));
    assert_eq!(run(4), (outputs, stats));

    let finished = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(|| {
        let mut group = TaskGroup::new("panics");
        for i in 0..16 {
            let finished = &finished;
            group.spawn_accurate(move |_| {
                if i == 0 {
                    panic!("task body exploded");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                finished.fetch_add(1, Ordering::SeqCst);
                i
            });
        }
        group.taskwait(&Executor::new(4), 1.0)
    });
    assert!(result.is_err());
    // Every worker had stopped when the panic reached the caller: the
    // other 15 bodies had all run to their end.
    assert_eq!(finished.load(Ordering::SeqCst), 15);
}

#[test]
fn stats_merge_adds_fields() {
    let mut a = crate::ExecutionStats {
        accurate: 1,
        approximate: 2,
        dropped: 3,
        accurate_ops: 10,
        approx_ops: 20,
    };
    let b = a.clone();
    a.merge(&b);
    assert_eq!(a.accurate, 2);
    assert_eq!(a.dropped, 6);
    assert_eq!(a.approx_ops, 40);
}

/// Significance levels the selection oracle draws from: few, so ties
/// are common, with `-0.0` (ties `0.0`), `1.0` and an above-1 value
/// (both forced accurate) among them.
const ORACLE_LEVELS: [f64; 7] = [-0.0, 0.0, 0.25, 0.5, 0.99, 1.0, 1.5];

/// The reference model of `taskwait`'s choice: a full stable sort on
/// (significance desc, spawn order asc), the `ceil(ratio · n)` prefix,
/// plus every task with significance ≥ 1.
fn oracle_accurate_set(sigs: &[f64], ratio: f64) -> Vec<usize> {
    let sigs: Vec<f64> = sigs.iter().map(|s| s.clamp(0.0, 1.0)).collect();
    let mut order: Vec<usize> = (0..sigs.len()).collect();
    order.sort_by(|&a, &b| sigs[b].partial_cmp(&sigs[a]).unwrap());
    let prefix = (ratio * sigs.len() as f64).ceil() as usize;
    let mut set: Vec<usize> = (0..sigs.len())
        .filter(|&i| order[..prefix].contains(&i) || sigs[i] >= 1.0)
        .collect();
    set.sort_unstable();
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The executed accurate set equals the sorted-prefix oracle, at
    /// one worker (the caller runs every task) and at three; the
    /// remaining tasks run their approximate body or are dropped.
    #[test]
    fn accurate_set_matches_sorted_prefix_oracle(
        tasks in proptest::collection::vec((0usize..ORACLE_LEVELS.len(), 0usize..4), 0..48),
        ratio_pick in 0usize..4,
        ratio_draw in 0.0f64..=1.0,
        k in 0usize..48,
    ) {
        let n = tasks.len();
        // Exact 0 and 1, an exact k/n, and an arbitrary draw.
        let ratio = match ratio_pick {
            0 => 0.0,
            1 => 1.0,
            2 if n > 0 => (k % (n + 1)) as f64 / n as f64,
            _ => ratio_draw,
        };
        let sigs: Vec<f64> = tasks.iter().map(|&(level, _)| ORACLE_LEVELS[level]).collect();
        // One task in four has no approximate body.
        let has_approx: Vec<bool> = tasks.iter().map(|&(_, pick)| pick != 0).collect();
        let want = oracle_accurate_set(&sigs, ratio);
        for threads in [1, 3] {
            let accurate_ran = Mutex::new(Vec::new());
            let approx_ran = Mutex::new(Vec::new());
            let mut group = TaskGroup::new("oracle");
            for i in 0..n {
                let (accurate_ran, approx_ran) = (&accurate_ran, &approx_ran);
                group.spawn(
                    sigs[i],
                    move |_| accurate_ran.lock().unwrap().push(i),
                    has_approx[i].then_some(move |_: &crate::TaskCtx| {
                        approx_ran.lock().unwrap().push(i)
                    }),
                );
            }
            let (_, stats) = group.taskwait(&Executor::new(threads), ratio);
            let mut accurate = accurate_ran.into_inner().unwrap();
            accurate.sort_unstable();
            let mut approx = approx_ran.into_inner().unwrap();
            approx.sort_unstable();
            prop_assert_eq!(&accurate, &want, "{} workers, ratio {}", threads, ratio);
            let want_approx: Vec<usize> =
                (0..n).filter(|&i| has_approx[i] && !want.contains(&i)).collect();
            prop_assert_eq!(&approx, &want_approx, "{} workers, ratio {}", threads, ratio);
            prop_assert_eq!(stats.accurate, want.len());
            prop_assert_eq!(stats.approximate, want_approx.len());
            prop_assert_eq!(stats.dropped, n - want.len() - want_approx.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ratio guarantee: at least ceil(ratio · n) accurate tasks, and
    /// the accurate set is significance-maximal.
    #[test]
    fn ratio_guarantee(n in 1usize..40, ratio in 0.0f64..=1.0, seed in 0u64..1000) {
        let executor = Executor::new(3);
        // Deterministic pseudo-random significances < 1.0.
        let sig = |i: usize| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((h >> 33) % 1000) as f64 / 1001.0
        };
        let executed = Mutex::new(Vec::new());
        let mut group = TaskGroup::new("g");
        for i in 0..n {
            let executed = &executed;
            group.spawn(
                sig(i),
                move |_| executed.lock().unwrap().push(i),
                Some(|_: &crate::TaskCtx| {}),
            );
        }
        let (_, stats) = group.taskwait(&executor, ratio);
        let min_acc = (ratio * n as f64).ceil() as usize;
        prop_assert!(stats.accurate >= min_acc);
        prop_assert_eq!(stats.accurate + stats.approximate, n);

        // Significance-maximality: every accurate task is at least as
        // significant as every approximated task.
        let accurate: Vec<usize> = executed.into_inner().unwrap();
        let min_acc_sig = accurate.iter().map(|&i| sig(i)).fold(f64::INFINITY, f64::min);
        for i in 0..n {
            if !accurate.contains(&i) {
                prop_assert!(sig(i) <= min_acc_sig + 1e-12);
            }
        }
    }

    /// Ties break deterministically by spawn order: among equal
    /// significances, the earliest-spawned tasks win the accurate slots.
    /// With ALL significances equal the accurate set must be exactly the
    /// spawn-order prefix {0, …, ceil(ratio·n)−1}, identically on every run.
    #[test]
    fn tie_break_is_deterministic_by_spawn_order(
        n in 2usize..30,
        ratio in 0.05f64..0.95,
        sig in 0.0f64..1.0,
    ) {
        let executor = Executor::new(3);
        let run = || {
            let executed = Mutex::new(Vec::new());
            let mut group = TaskGroup::new("g");
            for i in 0..n {
                let executed = &executed;
                group.spawn(
                    sig,
                    move |_| executed.lock().unwrap().push(i),
                    Some(|_: &crate::TaskCtx| {}),
                );
            }
            let (_, stats) = group.taskwait(&executor, ratio);
            let mut accurate = executed.into_inner().unwrap();
            accurate.sort_unstable();
            (stats.accurate, accurate)
        };
        let min_acc = (ratio * n as f64).ceil() as usize;
        let (count_a, set_a) = run();
        let (count_b, set_b) = run();
        prop_assert_eq!(count_a, min_acc);
        // The winners are the first ceil(ratio·n) spawned, nothing else.
        let want: Vec<usize> = (0..min_acc).collect();
        prop_assert_eq!(&set_a, &want);
        // And a second identical run selects the identical set.
        prop_assert_eq!(count_b, count_a);
        prop_assert_eq!(set_b, set_a);
    }

    /// Energy is monotone non-increasing as ratio decreases, whenever
    /// approximate bodies do less work than accurate ones.
    #[test]
    fn energy_monotone_in_ratio(n in 4usize..24) {
        let executor = Executor::new(2);
        let model = EnergyModel::xeon_e5_2695v3();
        let run = |ratio: f64| {
            let mut group = TaskGroup::new("g");
            for i in 0..n {
                group.spawn(
                    i as f64 / n as f64,
                    |ctx: &crate::TaskCtx| ctx.count_accurate_ops(1000),
                    Some(|ctx: &crate::TaskCtx| ctx.count_approx_ops(100)),
                );
            }
            model.energy(&group.taskwait(&executor, ratio).1)
        };
        let e0 = run(0.0);
        let e5 = run(0.5);
        let e1 = run(1.0);
        prop_assert!(e0 <= e5 + 1e-12);
        prop_assert!(e5 <= e1 + 1e-12);
    }
}
