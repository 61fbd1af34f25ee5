//! The parallel significance-analysis engine.
//!
//! Significance analysis is embarrassingly parallel across *analyses*:
//! a per-pixel kernel analysis (Fig. 5 of the paper), a Monte-Carlo
//! sample, or one point of a range sweep each records its own DynDFG
//! and runs its own reverse sweep, sharing nothing with its siblings.
//! [`ParallelAnalysis`] exploits that by fanning independent analysis
//! closures over the [`scorpio_runtime::Executor`] worker pool, with
//! one reusable [`AnalysisArena`] per worker: each worker keeps a warm
//! tape and adjoint scratch buffer across all the items it claims, so
//! the steady state allocates nothing per analysis.
//!
//! Results are returned in item order regardless of scheduling, and
//! every analysis computes exactly the same floating-point operations
//! it would serially — parallel output is bit-identical to the
//! `threads == 1` baseline (which runs inline, bypassing the pool).
//!
//! Two batch entry points: [`ParallelAnalysis::run_batch`] records
//! every item afresh (the reference the replay path is tested
//! against), and [`ParallelAnalysis::run_batch_replay_vars_map_lanes`]
//! records once per worker and lane-replays the compiled trace for the
//! rest of the batch, mapping each item's [`VarSignificances`] to the
//! caller's result.
//!
//! ```
//! use scorpio_core::parallel::ParallelAnalysis;
//!
//! let engine = ParallelAnalysis::new(2);
//! let radii = [0.1, 0.2, 0.3, 0.4];
//! let reports = engine
//!     .run_batch(&radii, |ctx, &r| {
//!         let x = ctx.input_centered("x", 0.5, r);
//!         let y = x.sqr();
//!         ctx.output(&y, "y");
//!         Ok(())
//!     })
//!     .unwrap();
//! assert_eq!(reports.len(), 4);
//! assert_eq!(reports[0].significance_of("y"), Some(1.0));
//! ```

use scorpio_interval::Interval;
use scorpio_runtime::Executor;

use crate::error::AnalysisError;
use crate::replay::{LaneScratch, ReplayOrRecord, ReplayStats};
use crate::report::{Report, VarSignificances};
use crate::session::{Analysis, AnalysisArena, Ctx};

/// Default node capacity each worker's arena is warmed to.
const DEFAULT_ARENA_CAPACITY: usize = 1024;

/// Lane width the kernels' batch entry points replay at: four f64
/// lanes fill one 256-bit vector register and one 32-byte block per
/// node stays cache-friendly for the large (~10⁴-node) kernel traces.
/// EXPERIMENTS.md ("Lane-width table") records the last 1/2/4/8-lane
/// sweep over the fisheye grid, a Black-Scholes book and DCT blocks;
/// the Criterion `lane_replay` group of the `parallel_analysis` bench
/// re-times the alternatives.
pub const DEFAULT_LANES: usize = 4;

/// Driver fanning independent significance analyses over a worker pool,
/// one reusable tape arena per worker (see the [module docs](self)).
#[derive(Debug)]
pub struct ParallelAnalysis {
    analysis: Analysis,
    executor: Executor,
    arena_capacity: usize,
}

impl ParallelAnalysis {
    /// An engine with `threads` workers and a default-configured
    /// [`Analysis`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> ParallelAnalysis {
        ParallelAnalysis::with_analysis(Analysis::new(), threads)
    }

    /// An engine running `analysis` (carrying its δ threshold) on
    /// `threads` workers.
    pub fn with_analysis(analysis: Analysis, threads: usize) -> ParallelAnalysis {
        ParallelAnalysis {
            analysis,
            executor: Executor::new(threads),
            arena_capacity: DEFAULT_ARENA_CAPACITY,
        }
    }

    /// An engine sized to the machine.
    pub fn with_available_parallelism() -> ParallelAnalysis {
        ParallelAnalysis {
            analysis: Analysis::new(),
            executor: Executor::with_available_parallelism(),
            arena_capacity: DEFAULT_ARENA_CAPACITY,
        }
    }

    /// Sets the node capacity worker arenas are pre-sized to (useful
    /// when the per-item trace size is known, e.g. from a pilot run).
    pub fn with_arena_capacity(mut self, capacity: usize) -> ParallelAnalysis {
        self.arena_capacity = capacity;
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The underlying analysis configuration.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Runs one registration closure per item, in parallel, returning
    /// the reports in item order.
    ///
    /// # Errors
    ///
    /// If any item's analysis fails (ambiguous branch, no outputs, …),
    /// the error of the **lowest-indexed** failing item is returned —
    /// the same error the serial loop would have hit first — so error
    /// behaviour is independent of scheduling.
    pub fn run_batch<T, F>(&self, items: &[T], f: F) -> Result<Vec<Report>, AnalysisError>
    where
        T: Sync,
        F: Fn(&Ctx<'_>, &T) -> Result<(), AnalysisError> + Sync,
    {
        let _span = scorpio_obs::span("parallel_batch");
        scorpio_obs::count("parallel.items", items.len() as u64);
        let results = self.executor.map_with_state(
            items,
            || {
                scorpio_obs::count("parallel.arena_init", 1);
                AnalysisArena::with_capacity(self.arena_capacity)
            },
            |arena, _, item| self.analysis.run_in(arena, |ctx| f(ctx, item)),
        );
        // Item order is preserved by map_with_state, so collect() stops
        // at the first failing index — matching the serial loop.
        results.into_iter().collect()
    }

    /// [`ParallelAnalysis::run_batch`] in record-once / replay-many
    /// mode, mapping each item's registered rows through `map`: each
    /// worker records and [compiles](scorpio_adjoint::CompiledTape) its
    /// first item's trace, then *replays* it for the items that follow
    /// with their input intervals — no re-recording, no `RefCell`
    /// traffic, no allocation — yielding rows bit-identical to a fresh
    /// recording (see [`ReplayOrRecord`]).
    ///
    /// Items are chunked into `LANES`-sized blocks **at the executor
    /// granularity** (workers claim whole blocks, so a block's lanes
    /// always share one worker's compiled trace), and each full block is
    /// served by **one** walk of the compiled op stream
    /// ([`ReplayOrRecord::run_block`]); partial trailing blocks and
    /// shape-divergent blocks run item by item. Results are
    /// bit-identical for every width.
    ///
    /// `map` borrows each item's rows. Each worker keeps one set of
    /// rows per lane and refills it block after block: a replay of the
    /// same trace overwrites only the numbers, and the names are
    /// rebuilt only when the trace changes. The results of all blocks
    /// go into one output vector.
    ///
    /// `inputs_of` must return the per-item input boxes **in
    /// registration order**, and the closure's trace shape must not
    /// otherwise depend on the item (a [`Ctx::branch`] in `f`
    /// automatically disables replay for safety). The returned
    /// [`ReplayStats`] aggregate all workers; a high
    /// [`fallback_rate`](ReplayStats::fallback_rate) means the batch is
    /// not actually shape-uniform.
    ///
    /// # Errors
    ///
    /// As [`ParallelAnalysis::run_batch`]: the first failing block is,
    /// by construction, the one holding the lowest-indexed failing item.
    ///
    /// # Panics
    ///
    /// Panics if `LANES == 0`.
    pub fn run_batch_replay_vars_map_lanes<const LANES: usize, T, R, I, F, M>(
        &self,
        items: &[T],
        inputs_of: I,
        f: F,
        map: M,
    ) -> Result<(Vec<R>, ReplayStats), AnalysisError>
    where
        T: Sync,
        R: Send,
        I: Fn(&T) -> Vec<Interval> + Sync,
        F: Fn(&Ctx<'_>, &T) -> Result<(), AnalysisError> + Sync,
        M: Fn(&T, &VarSignificances) -> Result<R, AnalysisError> + Sync,
    {
        let _span = scorpio_obs::span("parallel_batch");
        scorpio_obs::count("parallel.items", items.len() as u64);
        assert!(LANES > 0, "a lane block holds at least one item");
        let blocks: Vec<&[T]> = items.chunks(LANES).collect();
        let results = self.executor.map_with_state(
            &blocks,
            || {
                scorpio_obs::count("parallel.arena_init", 1);
                (
                    AnalysisArena::with_capacity(self.arena_capacity),
                    ReplayOrRecord::new(self.analysis.clone()),
                    LaneScratch::<LANES>::new(),
                )
            },
            |(arena, driver, lanes), _, block| {
                // Snapshot the worker's counters around the block so the
                // delta can ride back with the results (worker state
                // itself is dropped inside the pool).
                let before = driver.stats();
                let mut out: [Option<R>; LANES] = std::array::from_fn(|_| None);
                let mut slots = out.iter_mut();
                driver.run_block_rows(arena, lanes, block, &inputs_of, &f, |item, vars| {
                    *slots.next().expect("a block holds at most LANES items") =
                        Some(map(item, vars)?);
                    Ok(())
                })?;
                Ok((out, driver.stats().since(before)))
            },
        );
        let mut stats = ReplayStats::default();
        let mut out = Vec::with_capacity(items.len());
        for result in results {
            let (rs, delta) = result?;
            stats.merge(delta);
            out.extend(rs.into_iter().flatten());
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maclaurin(ctx: &Ctx<'_>, &(x0, n): &(f64, usize)) -> Result<(), AnalysisError> {
        let x = ctx.input("x", x0 - 0.5, x0 + 0.5);
        let mut result = ctx.constant(0.0);
        for i in 0..n {
            let term = x.powi(i as i32);
            ctx.intermediate(&term, format!("term{i}"));
            result = result + term;
        }
        ctx.output(&result, "result");
        Ok(())
    }

    #[test]
    fn batch_matches_serial_reports() {
        let items: Vec<(f64, usize)> = (0..24).map(|i| (0.2 + 0.01 * i as f64, 5)).collect();
        let serial = ParallelAnalysis::new(1);
        let parallel = ParallelAnalysis::new(4);
        let a = serial.run_batch(&items, maclaurin).unwrap();
        let b = parallel.run_batch(&items, maclaurin).unwrap();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.tape_len(), rb.tape_len());
            for (va, vb) in ra.registered().iter().zip(rb.registered()) {
                assert_eq!(va.name, vb.name);
                // Bit-identical, not approximately equal.
                assert_eq!(va.significance.to_bits(), vb.significance.to_bits());
                assert_eq!(va.significance_raw.to_bits(), vb.significance_raw.to_bits());
            }
        }
    }

    #[test]
    fn first_item_error_wins() {
        let items: Vec<i32> = (0..16).collect();
        let engine = ParallelAnalysis::new(4);
        let result = engine.run_batch(&items, |ctx, &i| {
            let x = ctx.input("x", -1.0, 1.0);
            if i >= 3 {
                // Ambiguous comparison: terminates this item's analysis.
                ctx.branch(x.value().certainly_lt(0.0.into()), &format!("x < 0 (item {i})"))?;
            }
            ctx.output(&x, "y");
            Ok(())
        });
        match result {
            Err(AnalysisError::AmbiguousBranch { condition }) => {
                assert_eq!(condition, "x < 0 (item 3)");
            }
            other => panic!("expected ambiguous branch, got {other:?}"),
        }
    }

    /// Lane-replays `items` at width `LANES`, keeping every item's rows.
    fn replay_vars<const LANES: usize, T: Sync>(
        engine: &ParallelAnalysis,
        items: &[T],
        inputs_of: impl Fn(&T) -> Vec<Interval> + Sync,
        f: impl Fn(&Ctx<'_>, &T) -> Result<(), AnalysisError> + Sync,
    ) -> (Vec<VarSignificances>, ReplayStats) {
        engine
            .run_batch_replay_vars_map_lanes::<LANES, _, _, _, _, _>(items, inputs_of, f, |_, v| {
                Ok(v.clone())
            })
            .unwrap()
    }

    #[test]
    fn batch_map_extracts_scalars() {
        let items: Vec<f64> = (1..=8).map(|i| i as f64 * 0.1).collect();
        let engine = ParallelAnalysis::new(2).with_arena_capacity(64);
        let (sigs, _) = engine
            .run_batch_replay_vars_map_lanes::<DEFAULT_LANES, _, _, _, _, _>(
                &items,
                |&r| vec![Interval::centered(1.0, r)],
                |ctx, &r| {
                    let x = ctx.input_centered("x", 1.0, r);
                    let y = x.sqr() + x;
                    ctx.output(&y, "y");
                    Ok(())
                },
                |_, vars| Ok(vars.var("x").map(|v| v.significance_raw).unwrap_or(0.0)),
            )
            .unwrap();
        assert_eq!(sigs.len(), 8);
        // Wider input intervals can only grow the raw significance.
        for w in sigs.windows(2) {
            assert!(w[1] >= w[0], "significance must grow with radius: {sigs:?}");
        }
    }

    #[test]
    fn replay_batch_matches_recording_batch_bitwise() {
        let items: Vec<f64> = (0..32).map(|i| 0.05 + 0.01 * i as f64).collect();
        let closure = |ctx: &Ctx<'_>, &r: &f64| {
            let x = ctx.input_centered("x", 0.5, r);
            let t = x.sin();
            ctx.intermediate(&t, "t");
            let y = t + x.sqr();
            ctx.output(&y, "y");
            Ok(())
        };
        let inputs_of = |&r: &f64| vec![Interval::centered(0.5, r)];
        let engine = ParallelAnalysis::new(1);
        let recorded = engine.run_batch(&items, closure).unwrap();
        let (replayed, stats) =
            replay_vars::<DEFAULT_LANES, _>(&engine, &items, inputs_of, closure);
        assert_eq!(stats.records, 1, "only the first item may record");
        assert_eq!(stats.replays, items.len() as u64 - 1);
        assert_eq!(stats.fallbacks, 0);
        // 32 items in 4-wide blocks: block 0 warms up item by item
        // (record + 3 width-1 replays), blocks 1..8 lane-replay.
        assert_eq!(stats.lane_blocks, 7);
        assert_eq!(stats.lane_remainder, 4);
        for (a, b) in replayed.iter().zip(&recorded) {
            assert_eq!(a.tape_len(), b.tape_len());
            for (va, vb) in a.registered().iter().zip(b.registered()) {
                assert_eq!(va.name, vb.name);
                assert_eq!(va.significance.to_bits(), vb.significance.to_bits());
                assert_eq!(va.significance_raw.to_bits(), vb.significance_raw.to_bits());
            }
        }
    }

    /// A batch whose size is not a multiple of the lane width: the
    /// trailing partial block must run item by item — visible in
    /// `lane_remainder` — and stay bit-identical to the recording batch.
    #[test]
    fn lane_remainder_items_are_scalar_replayed() {
        let items: Vec<f64> = (0..13).map(|i| 0.05 + 0.01 * i as f64).collect();
        let closure = |ctx: &Ctx<'_>, &r: &f64| {
            let x = ctx.input_centered("x", 0.5, r);
            let y = x.sin() + x.sqr();
            ctx.output(&y, "y");
            Ok(())
        };
        let inputs_of = |&r: &f64| vec![Interval::centered(0.5, r)];
        let engine = ParallelAnalysis::new(1);
        let recorded = engine.run_batch(&items, closure).unwrap();
        let (replayed, stats) = replay_vars::<4, _>(&engine, &items, inputs_of, closure);
        // Block 0 warms up item by item (4 items), blocks 1/2
        // lane-replay, the trailing 13 % 4 = 1 item is remainder.
        assert_eq!(stats.lane_blocks, 2);
        assert_eq!(stats.lane_remainder, 5);
        assert_eq!(stats.records, 1);
        assert_eq!(stats.replays, 12);
        for (a, b) in replayed.iter().zip(&recorded) {
            for (va, vb) in a.registered().iter().zip(b.registered()) {
                assert_eq!(va.significance_raw.to_bits(), vb.significance_raw.to_bits());
            }
        }
    }

    /// Input arity diverging *inside* a lane block: the block must run
    /// item by item (re-recording as needed) instead of lane-replaying
    /// a wrong trace.
    #[test]
    fn lane_block_with_divergent_arity_falls_back() {
        // Items 0..6 bind one input, items 6..8 bind two: the arity
        // change lands in the middle of block 1 (items 4..8), so the
        // divergence is detected *inside* a lane block.
        let items: Vec<usize> = (0..8).collect();
        let closure = |ctx: &Ctx<'_>, &i: &usize| {
            let x = ctx.input("x", 0.1, 0.9);
            let y = if i < 6 {
                x.sqr()
            } else {
                let z = ctx.input("z", 1.0, 2.0);
                x.sqr() + z
            };
            ctx.output(&y, "y");
            Ok(())
        };
        let inputs_of = |&i: &usize| {
            if i < 6 {
                vec![Interval::new(0.1, 0.9)]
            } else {
                vec![Interval::new(0.1, 0.9), Interval::new(1.0, 2.0)]
            }
        };
        let engine = ParallelAnalysis::new(1);
        let recorded = engine.run_batch(&items, closure).unwrap();
        let (replayed, stats) = replay_vars::<4, _>(&engine, &items, inputs_of, closure);
        // Block 1 (items 4..8) mixes arities: no lane block may serve
        // it, and the two-input items force a re-record fallback.
        assert_eq!(stats.lane_blocks, 0);
        assert_eq!(stats.lane_remainder, 8);
        assert!(stats.fallbacks >= 1, "arity change must fall back");
        assert_eq!(replayed.len(), recorded.len());
        for (a, b) in replayed.iter().zip(&recorded) {
            assert_eq!(a.registered().len(), b.registered().len());
            for (va, vb) in a.registered().iter().zip(b.registered()) {
                assert_eq!(va.significance_raw.to_bits(), vb.significance_raw.to_bits());
            }
        }
    }

    /// Two traces with different names and input arity, three rows
    /// each: `x → t → y` and `p, q → z`.
    fn two_traces(ctx: &Ctx<'_>, &(second, r): &(bool, f64)) -> Result<(), AnalysisError> {
        if second {
            let p = ctx.input_centered("p", 0.7, r);
            let q = ctx.input_centered("q", -0.2, r / 2.0);
            let z = p * q.exp() - q;
            ctx.output(&z, "z");
        } else {
            let x = ctx.input_centered("x", 0.3, r);
            let t = x.sin();
            ctx.intermediate(&t, "t");
            let y = t * x + x.sqr();
            ctx.output(&y, "y");
        }
        Ok(())
    }

    fn two_traces_inputs(&(second, r): &(bool, f64)) -> Vec<Interval> {
        if second {
            vec![Interval::centered(0.7, r), Interval::centered(-0.2, r / 2.0)]
        } else {
            vec![Interval::centered(0.3, r)]
        }
    }

    /// The per-worker rows are refilled in place block after block:
    /// one engine runs a batch that switches trace at a block boundary
    /// and ends in a partial block, then a batch of the second trace
    /// alone, then one of the first. Every row carries its own trace's
    /// names and is bit-identical to a fresh `Analysis::run` of its
    /// item: no name carries over from one trace to the next.
    #[test]
    fn refilled_rows_match_fresh_runs_across_trace_changes() {
        let items = |second: bool, n: usize| -> Vec<(bool, f64)> {
            (0..n).map(|i| (second, 0.01 + 0.013 * i as f64)).collect()
        };
        let mixed: Vec<(bool, f64)> = items(false, 12).into_iter().chain(items(true, 11)).collect();
        for threads in [1, 2] {
            let engine = ParallelAnalysis::new(threads);
            for batch in [mixed.clone(), items(true, 9), items(false, 10)] {
                let (rows, stats) =
                    replay_vars::<4, _>(&engine, &batch, two_traces_inputs, two_traces);
                // One worker warms up on the first block and
                // lane-replays the others; how two workers share the
                // blocks depends on scheduling.
                assert!(threads > 1 || stats.lane_blocks > 0, "{stats:?}");
                assert_eq!(rows.len(), batch.len());
                for (vars, item) in rows.iter().zip(&batch) {
                    let fresh = Analysis::new().run(|ctx| two_traces(ctx, item)).unwrap();
                    let names: Vec<&str> = vars.registered().iter().map(|v| &*v.name).collect();
                    let want: &[&str] = if item.0 { &["p", "q", "z"] } else { &["x", "t", "y"] };
                    assert_eq!(names, want, "{threads} workers, item {item:?}");
                    assert_eq!(vars.tape_len(), fresh.tape_len());
                    assert_eq!(
                        vars.output_significance_raw().to_bits(),
                        fresh.output_significance_raw().to_bits()
                    );
                    for (a, b) in vars.registered().iter().zip(fresh.registered()) {
                        assert_eq!((&a.name, a.kind, a.node), (&b.name, b.kind, b.node));
                        for (x, y) in [(a.enclosure, b.enclosure), (a.derivative, b.derivative)] {
                            assert_eq!(x.inf().to_bits(), y.inf().to_bits(), "{}", a.name);
                            assert_eq!(x.sup().to_bits(), y.sup().to_bits(), "{}", a.name);
                        }
                        assert_eq!(a.significance_raw.to_bits(), b.significance_raw.to_bits());
                        assert_eq!(a.significance.to_bits(), b.significance.to_bits());
                    }
                }
            }
        }
    }

    /// Width-1 batches run item by item: each replay counts in
    /// `replays`, never in `lane_blocks`.
    #[test]
    fn one_lane_batch_degenerates_to_scalar_replay() {
        let items: Vec<f64> = (0..6).map(|i| 0.1 + 0.05 * i as f64).collect();
        let closure = |ctx: &Ctx<'_>, &r: &f64| {
            let x = ctx.input_centered("x", 0.5, r);
            let y = x.exp();
            ctx.output(&y, "y");
            Ok(())
        };
        let engine = ParallelAnalysis::new(1);
        let (_, stats) =
            replay_vars::<1, _>(&engine, &items, |&r| vec![Interval::centered(0.5, r)], closure);
        assert_eq!(stats.lane_blocks, 0);
        assert_eq!(stats.records, 1);
        assert_eq!(stats.replays, 5);
    }

    #[test]
    fn arena_reuse_is_invisible_in_results() {
        // One worker, many differently-shaped traces through one arena:
        // results must match fresh-tape runs exactly.
        let engine = ParallelAnalysis::new(1).with_arena_capacity(8);
        let items: Vec<(f64, usize)> = (1..12).map(|i| (0.3, i)).collect();
        let pooled = engine.run_batch(&items, maclaurin).unwrap();
        for (report, item) in pooled.iter().zip(&items) {
            let fresh = Analysis::new().run(|ctx| maclaurin(ctx, item)).unwrap();
            assert_eq!(report.tape_len(), fresh.tape_len());
            for (a, b) in report.registered().iter().zip(fresh.registered()) {
                assert_eq!(a.significance.to_bits(), b.significance.to_bits());
            }
        }
    }
}
