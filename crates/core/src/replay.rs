//! Record-once / replay-many driving of batch analyses.
//!
//! The paper's workflow re-records the DynDFG from scratch for every
//! analysed item, yet for data-parallel batches (per-pixel kernels,
//! per-option pricing, per-block DCT, sweep points) the trace structure
//! is identical across items — only input values differ. The
//! [`ReplayOrRecord`] driver exploits that: the first item records and
//! [compiles](CompiledTape::compile) its trace; every following item
//! *replays* the compiled trace with fresh input intervals — a tight
//! forward loop plus the reverse sweep, with no `RefCell` traffic, no
//! node pushes and no allocation — and still produces bit-identical
//! reports (the replay interpreter recomputes values and partials with
//! exactly the recording formulas).
//!
//! Recording is value-dependent: a closure that resolves a branch can
//! trace differently for different inputs, which a replayer cannot
//! detect because it never runs the closure again. The driver is
//! therefore guarded:
//!
//! * a trace that executed any [`Ctx::branch`] is never replayed — every
//!   subsequent item re-records (and counts as a fallback);
//! * a replay must bind exactly the compiled input arity; a different
//!   input count forces re-recording;
//! * callers whose trace shape depends on non-input data (e.g. a series
//!   length) pass it as the `key` of [`ReplayOrRecord::run`] /
//!   [`ReplayOrRecord::run_block`] — a changed key invalidates the
//!   compiled trace.
//!
//! Every replay runs the lane interpreter
//! ([`CompiledTape::replay_lanes`]): a full block of same-shape items
//! shares one walk of the op stream, and a single item is a block of
//! width 1.
//!
//! [`ReplayOrRecord::stats`] exposes how often each path ran, so a
//! workload whose shape churns (high fallback rate) is visible instead
//! of silently slow.

use std::sync::Arc;

use scorpio_adjoint::{CompiledTape, LaneReplayBuffers};
use scorpio_interval::Interval;

use crate::error::AnalysisError;
use crate::report::{
    build_recorded, build_replayed, refill_replayed, OutputDetail, ReplayRegs, Report,
    VarSignificances,
};
use crate::session::{Analysis, AnalysisArena, Ctx, Registrations};

/// Counters for the replay/record decision of a [`ReplayOrRecord`]
/// driver: how many runs replayed the compiled trace, how many recorded
/// from scratch, and how many of those recordings were *fallbacks*
/// (a compiled trace existed but could not be trusted — branchy trace,
/// changed shape key, or changed input arity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Runs served by replaying the compiled trace (items served by a
    /// lane block count individually here too).
    pub replays: u64,
    /// Runs that recorded the closure from scratch (includes the first).
    pub records: u64,
    /// Recordings forced while a compiled trace existed — the
    /// shape-churn signal.
    pub fallbacks: u64,
    /// Full lane blocks replayed with one walk of the op stream (the
    /// multi-lane drivers; each block serves `LANES` items).
    pub lane_blocks: u64,
    /// Items a lane driver served via the *scalar* path instead of a
    /// lane block: partial trailing blocks, blocks with divergent
    /// per-item input arity, and warm-up blocks replayed before a
    /// trustworthy compiled trace existed.
    pub lane_remainder: u64,
}

impl ReplayStats {
    /// Fraction of runs that fell back to re-recording despite a
    /// compiled trace being available (0.0 when nothing has run).
    pub fn fallback_rate(&self) -> f64 {
        let total = self.replays + self.records;
        if total == 0 {
            0.0
        } else {
            self.fallbacks as f64 / total as f64
        }
    }

    /// Folds `other`'s counters into `self` field by field — the
    /// aggregation used when per-worker driver stats are rolled up into
    /// engine- or server-wide totals (see [`crate::ParallelAnalysis`]
    /// and the serve layer).
    pub fn merge(&mut self, other: ReplayStats) {
        self.replays += other.replays;
        self.records += other.records;
        self.fallbacks += other.fallbacks;
        self.lane_blocks += other.lane_blocks;
        self.lane_remainder += other.lane_remainder;
    }

    /// The per-field difference `self − before` — the counter delta
    /// accumulated since the `before` snapshot was taken.
    pub fn since(&self, before: ReplayStats) -> ReplayStats {
        ReplayStats {
            replays: self.replays - before.replays,
            records: self.records - before.records,
            fallbacks: self.fallbacks - before.fallbacks,
            lane_blocks: self.lane_blocks - before.lane_blocks,
            lane_remainder: self.lane_remainder - before.lane_remainder,
        }
    }
}

/// A compiled trace plus the registration snapshot it was recorded with
/// (and the output seeds and registered node ids every replay reads).
struct CompiledAnalysis {
    tape: CompiledTape<Interval>,
    regs: ReplayRegs,
    /// The recording resolved a branch: the trace is value-dependent
    /// and must never be replayed.
    branched: bool,
    /// The caller-supplied shape key the trace was recorded under (see
    /// [`ReplayOrRecord::run`]); a run with a different key must
    /// re-record.
    key: Option<u64>,
}

/// A compiled analysis trace extracted from (or injectable into) a
/// [`ReplayOrRecord`] driver: the SoA replay bytecode plus the
/// registration snapshot it was recorded with, behind an [`Arc`] so
/// drivers on different workers — or a cross-request
/// [`TapeCache`](crate::TapeCache) — can share one recording.
///
/// Cloning is an `Arc` bump; the trace itself is immutable. Only
/// replay-safe traces are extractable ([`ReplayOrRecord::share`]
/// returns `None` for branchy recordings), so every `CompiledTrace` in
/// circulation can be trusted by [`ReplayOrRecord::install`].
#[derive(Clone)]
pub struct CompiledTrace {
    inner: Arc<CompiledAnalysis>,
}

impl CompiledTrace {
    /// Number of input bindings a replay of this trace requires.
    pub fn input_count(&self) -> usize {
        self.inner.tape.input_count()
    }

    /// Number of compiled DynDFG nodes.
    pub fn node_count(&self) -> usize {
        self.inner.tape.len()
    }

    /// The shape key the trace was recorded under (`None` for un-keyed
    /// recordings).
    pub fn shape_key(&self) -> Option<u64> {
        self.inner.key
    }

    /// `true` when `other` shares this trace's allocation.
    pub fn ptr_eq(&self, other: &CompiledTrace) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for CompiledTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledTrace")
            .field("nodes", &self.inner.tape.len())
            .field("inputs", &self.inner.tape.input_count())
            .field("key", &self.inner.key)
            .finish()
    }
}

/// Record-once / replay-many driver for one analysis closure family
/// (the module docs above describe the replay guards in detail).
///
/// Per-item input intervals are passed positionally and override the
/// closure's declared ranges on the recording run too, so record and
/// replay see exactly the same input values.
///
/// ```
/// use scorpio_core::{Analysis, AnalysisArena, ReplayOrRecord};
/// use scorpio_interval::Interval;
///
/// let mut driver = ReplayOrRecord::new(Analysis::new());
/// let mut arena = AnalysisArena::new();
/// for radius in [0.1, 0.2, 0.3] {
///     let inputs = [Interval::centered(1.0, radius)];
///     let report = driver
///         .run_in(&mut arena, &inputs, |ctx| {
///             let x = ctx.input("x", 0.9, 1.1); // overridden per item
///             let y = x.sqr() + x;
///             ctx.output(&y, "y");
///             Ok(())
///         })
///         .unwrap();
///     assert_eq!(report.significance_of("y"), Some(1.0));
/// }
/// // First item recorded, the other two replayed the compiled trace.
/// assert_eq!(driver.stats().records, 1);
/// assert_eq!(driver.stats().replays, 2);
/// ```
pub struct ReplayOrRecord {
    analysis: Analysis,
    compiled: Option<Arc<CompiledAnalysis>>,
    stats: ReplayStats,
}

impl std::fmt::Debug for ReplayOrRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayOrRecord")
            .field("compiled", &self.compiled.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ReplayOrRecord {
    /// A driver running `analysis`-configured runs with no compiled
    /// trace yet (the first run records).
    pub fn new(analysis: Analysis) -> ReplayOrRecord {
        ReplayOrRecord {
            analysis,
            compiled: None,
            stats: ReplayStats::default(),
        }
    }

    /// The underlying analysis configuration.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Replay/record/fallback counters so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// `true` if a replayable compiled trace is currently held.
    pub fn has_compiled(&self) -> bool {
        self.compiled.as_ref().is_some_and(|c| !c.branched)
    }

    /// Extracts the currently held compiled trace as a shareable
    /// [`CompiledTrace`] (an `Arc` bump — the driver keeps replaying
    /// its copy). Returns `None` when no trace is held or the held
    /// recording resolved a branch and must never be replayed; every
    /// extracted trace is therefore safe to [`install`] elsewhere.
    ///
    /// [`install`]: ReplayOrRecord::install
    pub fn share(&self) -> Option<CompiledTrace> {
        match &self.compiled {
            Some(c) if !c.branched => Some(CompiledTrace { inner: Arc::clone(c) }),
            _ => None,
        }
    }

    /// Injects a trace previously extracted with
    /// [`share`](ReplayOrRecord::share) — typically from another
    /// worker's driver via a [`TapeCache`](crate::TapeCache) — so this
    /// driver replays it without ever recording. The trace carries its
    /// own shape key: subsequent runs replay only when their key and
    /// input arity match it (the usual guards), so installing a trace
    /// for the wrong shape degrades to a re-record, never to a wrong
    /// result. Installing the trace the driver already holds is a
    /// no-op.
    pub fn install(&mut self, trace: &CompiledTrace) {
        if self
            .compiled
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(c, &trace.inner))
        {
            return;
        }
        self.compiled = Some(Arc::clone(&trace.inner));
    }

    /// Drops the held compiled trace (if any): the next run records
    /// from scratch. Used by serving layers whose cache is the source
    /// of truth — a cache miss must cost a recording, not silently
    /// reuse a stale per-driver trace.
    pub fn clear_compiled(&mut self) {
        self.compiled = None;
    }

    /// Runs one item: replays the compiled trace (as a width-1 lane
    /// block in the arena) when its shape is trustworthy for `inputs`,
    /// records (and re-compiles) otherwise. `inputs` positionally
    /// override the closure's declared input ranges — on the recording
    /// run as well, so both paths analyse identical input boxes and the
    /// result is bit-identical either way.
    ///
    /// `key` is the caller's **shape key**: anything that determines
    /// the trace structure beyond the inputs (a loop trip count, a
    /// model variant, …). A key different from the compiled trace's
    /// invalidates it and re-records. `D` picks the detail: a full
    /// [`Report`] or the registered rows only ([`VarSignificances`],
    /// which skips the node graph; its rows are bit-identical to the
    /// full report's).
    ///
    /// # Errors
    ///
    /// Propagates closure and report-building errors on the record
    /// path; replay itself cannot fail once a trace is compiled.
    pub fn run<D, F>(
        &mut self,
        key: Option<u64>,
        arena: &mut AnalysisArena,
        inputs: &[Interval],
        f: F,
    ) -> Result<D, AnalysisError>
    where
        D: OutputDetail,
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        if self.replay_ready(key, inputs) {
            let _span = scorpio_obs::span_detail("replay");
            scorpio_obs::count("replay.replays", 1);
            self.stats.replays += 1;
            let lanes = &mut arena.lanes;
            lanes.staging.clear();
            lanes.staging.extend(inputs.iter().map(|&v| [v]));
            let [result] = self.replay_staged(lanes)?;
            return Ok(result);
        }
        let regs = self.record(key, arena, inputs, f)?;
        build_recorded(&arena.tape, &regs, self.analysis.delta(), &mut arena.scratch)
    }

    /// Runs one **lane block** of up to `LANES` items, appending one
    /// result per item to `out` in item order.
    ///
    /// When the block is full, the compiled trace is trustworthy and
    /// every item binds the compiled input arity, the whole block is
    /// served by **one** walk of the op stream
    /// ([`CompiledTape::replay_lanes`]) — counted in
    /// [`ReplayStats::lane_blocks`]. Otherwise every item takes
    /// [`ReplayOrRecord::run`] (recording when needed) — counted in
    /// [`ReplayStats::lane_remainder`]. Either way each item's result is
    /// bit-identical to a fresh recording of that item. `key` and `D`
    /// are as for [`ReplayOrRecord::run`].
    ///
    /// # Errors
    ///
    /// As [`ReplayOrRecord::run`]; a failing item stops the block at
    /// the lowest failing index (earlier items' results stay in `out`).
    #[allow(clippy::too_many_arguments)]
    pub fn run_block<const LANES: usize, D, T, I, F>(
        &mut self,
        key: Option<u64>,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<LANES>,
        block: &[T],
        inputs_of: &I,
        f: &F,
        out: &mut Vec<D>,
    ) -> Result<(), AnalysisError>
    where
        D: OutputDetail,
        I: Fn(&T) -> Vec<Interval>,
        F: Fn(&Ctx<'_>, &T) -> Result<(), AnalysisError>,
    {
        if self.stage_lane_block(key, lanes, block, inputs_of) {
            let _span = scorpio_obs::span_detail("replay_lanes");
            out.extend(self.replay_staged(lanes)?);
            return Ok(());
        }
        for item in block {
            let inputs = inputs_of(item);
            out.push(self.run(key, arena, &inputs, |ctx| f(ctx, item))?);
        }
        Ok(())
    }

    /// Unkeyed [`ReplayOrRecord::run_block`] for the registered rows,
    /// lending each item's rows to `each` in item order instead of
    /// returning them. A lane-replayed block refills the rows `lanes`
    /// keeps per lane: their numbers always, their names only when the
    /// trace differs from the one the rows were last filled from. Items
    /// that run one by one get fresh rows. Either way the rows are
    /// bit-identical to [`ReplayOrRecord::run_block`]'s.
    ///
    /// # Errors
    ///
    /// As [`ReplayOrRecord::run_block`], and the first error of `each`.
    pub(crate) fn run_block_rows<const LANES: usize, T, I, F, E>(
        &mut self,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<LANES>,
        block: &[T],
        inputs_of: &I,
        f: &F,
        mut each: E,
    ) -> Result<(), AnalysisError>
    where
        I: Fn(&T) -> Vec<Interval>,
        F: Fn(&Ctx<'_>, &T) -> Result<(), AnalysisError>,
        E: FnMut(&T, &VarSignificances) -> Result<(), AnalysisError>,
    {
        if self.stage_lane_block(None, lanes, block, inputs_of) {
            let _span = scorpio_obs::span_detail("replay_lanes");
            let c = self.replay_forward(lanes);
            let named = lanes.rows_of.as_ref().is_some_and(|r| Arc::ptr_eq(&r.inner, c));
            refill_replayed(&c.tape, &c.regs, &mut lanes.buf, &mut lanes.rows, named)?;
            if !named {
                lanes.rows_of = Some(CompiledTrace {
                    inner: Arc::clone(c),
                });
            }
            for (item, rows) in block.iter().zip(&lanes.rows) {
                each(item, rows)?;
            }
            return Ok(());
        }
        for item in block {
            let inputs = inputs_of(item);
            let rows: VarSignificances = self.run(None, arena, &inputs, |ctx| f(ctx, item))?;
            each(item, &rows)?;
        }
        Ok(())
    }

    /// Unkeyed [`ReplayOrRecord::run`] returning a full [`Report`].
    ///
    /// # Errors
    ///
    /// As [`ReplayOrRecord::run`].
    pub fn run_in<F>(
        &mut self,
        arena: &mut AnalysisArena,
        inputs: &[Interval],
        f: F,
    ) -> Result<Report, AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        self.run(None, arena, inputs, f)
    }

    /// Unkeyed [`ReplayOrRecord::run`] returning the registered rows
    /// only — the hot path for batch kernels that never touch the node
    /// graph.
    ///
    /// # Errors
    ///
    /// As [`ReplayOrRecord::run`].
    pub fn run_vars_in<F>(
        &mut self,
        arena: &mut AnalysisArena,
        inputs: &[Interval],
        f: F,
    ) -> Result<VarSignificances, AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        self.run(None, arena, inputs, f)
    }

    /// Unkeyed [`ReplayOrRecord::run_block`] producing full [`Report`]s.
    ///
    /// # Errors
    ///
    /// As [`ReplayOrRecord::run_block`].
    pub fn run_lanes_in<const LANES: usize, T, I, F>(
        &mut self,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<LANES>,
        block: &[T],
        inputs_of: &I,
        f: &F,
        out: &mut Vec<Report>,
    ) -> Result<(), AnalysisError>
    where
        I: Fn(&T) -> Vec<Interval>,
        F: Fn(&Ctx<'_>, &T) -> Result<(), AnalysisError>,
    {
        self.run_block(None, arena, lanes, block, inputs_of, f, out)
    }

    /// Replays the block staged in `lanes` through the held compiled
    /// trace and builds one result per lane.
    fn replay_staged<D: OutputDetail, const LANES: usize>(
        &self,
        lanes: &mut LaneScratch<LANES>,
    ) -> Result<[D; LANES], AnalysisError> {
        let c = self.replay_forward(lanes);
        build_replayed(&c.tape, &c.regs, self.analysis.delta(), &mut lanes.buf)
    }

    /// The forward sweep of the block staged in `lanes` through the held
    /// compiled trace, which it returns.
    fn replay_forward<const LANES: usize>(
        &self,
        lanes: &mut LaneScratch<LANES>,
    ) -> &Arc<CompiledAnalysis> {
        let c = self.compiled.as_ref().expect("staged against a compiled trace");
        c.tape
            .replay_lanes(&lanes.staging, &mut lanes.buf)
            .expect("staging validated input arity");
        c
    }

    /// Decides whether `block` can be served by one lane replay and, if
    /// so, fills `lanes.staging` with the slot-major transposed inputs
    /// (`staging[s][l]` = input slot `s` of item `l`) and bumps the
    /// lane counters. On `false` the caller must run the items one by
    /// one — they are accounted to [`ReplayStats::lane_remainder`] here.
    fn stage_lane_block<const LANES: usize, T, I>(
        &mut self,
        key: Option<u64>,
        lanes: &mut LaneScratch<LANES>,
        block: &[T],
        inputs_of: &I,
    ) -> bool
    where
        I: Fn(&T) -> Vec<Interval>,
    {
        let per_item = |stats: &mut ReplayStats| {
            stats.lane_remainder += block.len() as u64;
            scorpio_obs::count("replay.lane_remainder", block.len() as u64);
            false
        };
        // A width-1 block is a single item: route it through `run`, so it
        // counts in `replays` and never in `lane_blocks`.
        if LANES <= 1 || block.len() != LANES {
            return per_item(&mut self.stats);
        }
        let arity = match &self.compiled {
            Some(c) if !c.branched && c.key == key => c.tape.input_count(),
            _ => return per_item(&mut self.stats),
        };
        lanes.staging.clear();
        lanes.staging.resize(arity, [Interval::ONE; LANES]);
        for (l, item) in block.iter().enumerate() {
            let inputs = inputs_of(item);
            if inputs.len() != arity {
                // Divergent input arity *inside* the block: the block
                // cannot share one trace, so every item runs on its own
                // (recording as needed).
                scorpio_obs::count("replay.fallback.lane_divergent", 1);
                return per_item(&mut self.stats);
            }
            for (s, &v) in inputs.iter().enumerate() {
                lanes.staging[s][l] = v;
            }
        }
        self.stats.lane_blocks += 1;
        self.stats.replays += LANES as u64;
        scorpio_obs::count("replay.lane_blocks", 1);
        scorpio_obs::count("replay.replays", LANES as u64);
        true
    }

    /// `true` when the held compiled trace may be replayed for this
    /// `(key, inputs)` combination.
    fn replay_ready(&self, key: Option<u64>, inputs: &[Interval]) -> bool {
        match &self.compiled {
            Some(c) => !c.branched && c.key == key && c.tape.input_count() == inputs.len(),
            None => false,
        }
    }

    /// Observability counter name for *why* a held compiled trace could
    /// not serve this `(key, inputs)` combination; `None` when no trace
    /// was held (a first recording is not a fallback).
    fn fallback_counter(&self, key: Option<u64>, inputs: &[Interval]) -> Option<&'static str> {
        let c = self.compiled.as_ref()?;
        Some(if c.branched {
            "replay.fallback.branched"
        } else if c.key != key {
            "replay.fallback.shape_key"
        } else {
            debug_assert_ne!(c.tape.input_count(), inputs.len());
            "replay.fallback.input_arity"
        })
    }

    /// Records `f` into the arena tape (inputs overriding declared
    /// ranges), compiles and stores the trace for future replays, and
    /// returns the registrations for report assembly.
    fn record<F>(
        &mut self,
        key: Option<u64>,
        arena: &mut AnalysisArena,
        inputs: &[Interval],
        f: F,
    ) -> Result<Registrations, AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        let _span = scorpio_obs::span("record");
        scorpio_obs::count("replay.records", 1);
        if let Some(reason) = self.fallback_counter(key, inputs) {
            scorpio_obs::count(reason, 1);
        }
        if self.compiled.is_some() {
            self.stats.fallbacks += 1;
        }
        self.compiled = None;

        arena.tape.clear();
        let ctx = Ctx::new(&arena.tape, inputs.to_vec());
        let closure_result = f(&ctx);
        let branched = ctx.branched();
        closure_result?;
        let regs = ctx.into_registrations()?;
        self.stats.records += 1;
        scorpio_obs::count("analysis.nodes_recorded", arena.tape.len() as u64);

        // Only a trace whose inputs are fully bound by the positional
        // overrides can be replayed: an uncovered input would keep its
        // *declared* range on replayed items, silently diverging from a
        // re-recording. Such traces simply re-record every item.
        if regs
            .entries
            .iter()
            .filter(|e| e.kind == crate::report::VarKind::Input)
            .count()
            == inputs.len()
        {
            self.compiled = Some(Arc::new(CompiledAnalysis {
                tape: CompiledTape::compile(&arena.tape),
                regs: ReplayRegs::new(Registrations {
                    entries: regs.entries.clone(),
                }),
                branched,
                key,
            }));
        } else {
            scorpio_obs::count("replay.uncompilable", 1);
        }
        Ok(regs)
    }
}

/// Scratch for one lane width: the lane-blocked replay buffers, the
/// slot-major staging area the per-item inputs are transposed into, and
/// one set of registered rows per lane that
/// [`ParallelAnalysis::run_batch_replay_vars_map_lanes`](crate::ParallelAnalysis::run_batch_replay_vars_map_lanes)
/// refills block after block. [`AnalysisArena`] holds the width-1
/// instance that single-item runs replay through;
/// [`ReplayOrRecord::run_block`] takes a caller-owned one per worker,
/// since its width is a const generic chosen per call site.
#[derive(Debug)]
pub struct LaneScratch<const LANES: usize> {
    buf: LaneReplayBuffers<Interval, LANES>,
    /// `staging[s][l]` = input slot `s` of block item `l`.
    staging: Vec<[Interval; LANES]>,
    /// The last refilled rows of each lane.
    rows: [VarSignificances; LANES],
    /// The trace whose names `rows` carry (`None` before the first
    /// refill). Holding it keeps the trace alive, so a pointer match
    /// always means the same registrations.
    rows_of: Option<CompiledTrace>,
}

impl<const LANES: usize> LaneScratch<LANES> {
    /// Empty scratch; the first lane block sizes it.
    pub fn new() -> LaneScratch<LANES> {
        LaneScratch {
            buf: LaneReplayBuffers::new(),
            staging: Vec::new(),
            rows: std::array::from_fn(|_| VarSignificances::empty()),
            rows_of: None,
        }
    }
}

impl<const LANES: usize> Default for LaneScratch<LANES> {
    fn default() -> Self {
        LaneScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(ctx: &Ctx<'_>) -> Result<(), AnalysisError> {
        let x = ctx.input("x", -1.0, 1.0);
        let t = x.sqr();
        ctx.intermediate(&t, "t");
        let y = t + x.sin();
        ctx.output(&y, "y");
        Ok(())
    }

    #[test]
    fn replay_matches_rerecording_bitwise() {
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        for i in 0..8 {
            let r = 0.05 + 0.1 * i as f64;
            let inputs = [Interval::centered(0.3, r)];
            let replayed = driver.run_in(&mut arena, &inputs, poly).unwrap();
            let (recorded, _) = Analysis::new()
                .run_with_overrides(poly, inputs.to_vec())
                .unwrap();
            assert_eq!(replayed.tape_len(), recorded.tape_len());
            for (a, b) in replayed.registered().iter().zip(recorded.registered()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.significance.to_bits(), b.significance.to_bits());
                assert_eq!(a.significance_raw.to_bits(), b.significance_raw.to_bits());
                assert_eq!(a.enclosure.inf().to_bits(), b.enclosure.inf().to_bits());
                assert_eq!(a.derivative.sup().to_bits(), b.derivative.sup().to_bits());
            }
        }
        assert_eq!(driver.stats().records, 1);
        assert_eq!(driver.stats().replays, 7);
        assert_eq!(driver.stats().fallbacks, 0);
    }

    /// Registered constants that feed later ops: `k` as an
    /// intermediate, `z` as an output (seeded with 1 *and* accumulated
    /// into by `y`). A sweep that never accumulates into constants
    /// reports `k`'s derivative as 0 and `z`'s as the bare seed.
    fn registered_consts(ctx: &Ctx<'_>) -> Result<(), AnalysisError> {
        let x = ctx.input("x", -1.0, 1.0);
        let k = ctx.constant(1.5);
        ctx.intermediate(&k, "k");
        let z = ctx.constant(-0.25);
        ctx.output(&z, "z");
        let t = x.sqr() * k;
        ctx.intermediate(&t, "t");
        let y = t + x.sin() * z + k;
        ctx.output(&y, "y");
        Ok(())
    }

    fn assert_rows_bit_equal(vars: &VarSignificances, full: &Report) {
        assert_eq!(
            vars.output_significance_raw().to_bits(),
            full.output_significance_raw().to_bits()
        );
        assert_eq!(vars.registered().len(), full.registered().len());
        for (a, b) in vars.registered().iter().zip(full.registered()) {
            assert_eq!((&a.name, a.kind, a.node), (&b.name, b.kind, b.node));
            for (x, y) in [(a.enclosure, b.enclosure), (a.derivative, b.derivative)] {
                assert_eq!(x.inf().to_bits(), y.inf().to_bits(), "{}: {x} vs {y}", a.name);
                assert_eq!(x.sup().to_bits(), y.sup().to_bits(), "{}: {x} vs {y}", a.name);
            }
            assert_eq!(a.significance_raw.to_bits(), b.significance_raw.to_bits());
            assert_eq!(a.significance.to_bits(), b.significance.to_bits());
        }
    }

    /// Rows-only replay (width 1 and a 4-lane block) must match a full
    /// recorded report's rows bit for bit, registered constants included.
    #[test]
    fn vars_rows_match_full_report_rows() {
        type Closure = fn(&Ctx<'_>) -> Result<(), AnalysisError>;
        let radii = [0.1, 0.4, 0.25, 0.05];
        let full_rows = |f: Closure, r: f64| {
            let inputs = vec![Interval::centered(0.3, r)];
            Analysis::new().run_with_overrides(f, inputs).unwrap().0
        };
        for f in [poly as Closure, registered_consts] {
            let mut driver = ReplayOrRecord::new(Analysis::new());
            let mut arena = AnalysisArena::new();
            // The first item records, the rest replay at width 1.
            for r in radii {
                let inputs = [Interval::centered(0.3, r)];
                let vars = driver.run_vars_in(&mut arena, &inputs, f).unwrap();
                assert_rows_bit_equal(&vars, &full_rows(f, r));
            }
            let mut lanes = LaneScratch::<4>::new();
            let mut out: Vec<VarSignificances> = Vec::new();
            let inputs_of = |&r: &f64| vec![Interval::centered(0.3, r)];
            let item = |ctx: &Ctx<'_>, _: &f64| f(ctx);
            driver
                .run_block(None, &mut arena, &mut lanes, &radii, &inputs_of, &item, &mut out)
                .unwrap();
            for (vars, r) in out.iter().zip(radii) {
                assert_rows_bit_equal(vars, &full_rows(f, r));
            }
            assert_eq!(driver.stats().records, 1);
            assert_eq!(driver.stats().lane_blocks, 1);
        }
    }

    #[test]
    fn branchy_trace_is_never_replayed() {
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let branchy = |ctx: &Ctx<'_>| {
            let x = ctx.input("x", 2.0, 3.0);
            // Decidable over every box we pass, but still a branch:
            // replaying it for other inputs could be wrong.
            let pos = ctx.branch(x.value().certainly_gt(0.0.into()), "x > 0")?;
            let y = if pos { x.sqr() } else { -x };
            ctx.output(&y, "y");
            Ok(())
        };
        for _ in 0..3 {
            let inputs = [Interval::new(2.0, 3.0)];
            driver.run_in(&mut arena, &inputs, branchy).unwrap();
        }
        assert_eq!(driver.stats().replays, 0);
        assert_eq!(driver.stats().records, 3);
        // The first run compiles (then distrusts) a trace; later runs
        // see it and count as fallbacks.
        assert_eq!(driver.stats().fallbacks, 2);
        assert!(driver.stats().fallback_rate() > 0.6);
        assert!(!driver.has_compiled());
    }

    #[test]
    fn changed_shape_key_forces_rerecord() {
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let run = |driver: &mut ReplayOrRecord, arena: &mut AnalysisArena, n: usize| {
            driver
                .run::<Report, _>(Some(n as u64), arena, &[Interval::new(0.2, 0.4)], |ctx| {
                    let x = ctx.input("x", 0.0, 1.0);
                    let mut acc = ctx.constant(0.0);
                    for i in 0..n {
                        acc = acc + x.powi(i as i32);
                    }
                    ctx.output(&acc, "y");
                    Ok(())
                })
                .unwrap()
        };
        let a = run(&mut driver, &mut arena, 3);
        let b = run(&mut driver, &mut arena, 3); // same shape: replay
        assert_eq!(a.tape_len(), b.tape_len());
        let c = run(&mut driver, &mut arena, 5); // new shape: re-record
        assert!(c.tape_len() > b.tape_len(), "trace must have grown");
        assert_eq!(driver.stats().replays, 1);
        assert_eq!(driver.stats().records, 2);
        assert_eq!(driver.stats().fallbacks, 1);
    }

    #[test]
    fn input_arity_change_falls_back() {
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let one = [Interval::new(0.0, 1.0)];
        let two = [Interval::new(0.0, 1.0), Interval::new(1.0, 2.0)];
        driver
            .run_in(&mut arena, &one, |ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                ctx.output(&x, "y");
                Ok(())
            })
            .unwrap();
        // Different arity: must re-record, not replay a wrong trace.
        let report = driver
            .run_in(&mut arena, &two, |ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                let z = ctx.input("z", 1.0, 2.0);
                let y = x + z;
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap();
        assert_eq!(report.registered().len(), 3);
        assert_eq!(driver.stats().fallbacks, 1);
    }

    #[test]
    fn stats_merge_and_since_are_fieldwise() {
        let a = ReplayStats {
            replays: 10,
            records: 2,
            fallbacks: 1,
            lane_blocks: 4,
            lane_remainder: 3,
        };
        let b = ReplayStats {
            replays: 5,
            records: 1,
            fallbacks: 0,
            lane_blocks: 2,
            lane_remainder: 1,
        };
        let mut total = a;
        total.merge(b);
        assert_eq!(total.replays, 15);
        assert_eq!(total.records, 3);
        assert_eq!(total.fallbacks, 1);
        assert_eq!(total.lane_blocks, 6);
        assert_eq!(total.lane_remainder, 4);
        // since() inverts merge(): (a ∪ b) − a == b.
        let delta = total.since(a);
        assert_eq!(delta.replays, b.replays);
        assert_eq!(delta.records, b.records);
        assert_eq!(delta.fallbacks, b.fallbacks);
        assert_eq!(delta.lane_blocks, b.lane_blocks);
        assert_eq!(delta.lane_remainder, b.lane_remainder);
    }

    #[test]
    fn shared_trace_replays_in_fresh_driver_without_recording() {
        let inputs = [Interval::centered(0.3, 0.2)];
        let mut warm = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let expected = warm.run::<Report, _>(Some(7), &mut arena, &inputs, poly).unwrap();
        let trace = warm.share().expect("straight-line trace must be shareable");
        assert_eq!(trace.shape_key(), Some(7));
        assert!(trace.input_count() == 1 && trace.node_count() > 0);

        let mut cold = ReplayOrRecord::new(Analysis::new());
        cold.install(&trace);
        assert!(cold.has_compiled());
        let replayed = cold.run::<Report, _>(Some(7), &mut arena, &inputs, poly).unwrap();
        assert_eq!(cold.stats().records, 0, "install must skip recording");
        assert_eq!(cold.stats().replays, 1);
        for (a, b) in replayed.registered().iter().zip(expected.registered()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.significance.to_bits(), b.significance.to_bits());
        }
        // The second driver shares, not copies, the compiled trace.
        assert!(cold.share().unwrap().ptr_eq(&trace));
    }

    #[test]
    fn installed_trace_with_wrong_key_degrades_to_rerecord() {
        let inputs = [Interval::centered(0.3, 0.2)];
        let mut warm = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        warm.run::<Report, _>(Some(1), &mut arena, &inputs, poly).unwrap();
        let trace = warm.share().unwrap();

        let mut other = ReplayOrRecord::new(Analysis::new());
        other.install(&trace);
        // Requesting a different shape key must not replay the foreign
        // trace — the keyed guard records afresh instead.
        other.run::<Report, _>(Some(2), &mut arena, &inputs, poly).unwrap();
        assert_eq!(other.stats().records, 1);
        assert_eq!(other.stats().replays, 0);
        assert_eq!(other.stats().fallbacks, 1);
    }

    #[test]
    fn branched_trace_is_not_shareable() {
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        driver
            .run_in(&mut arena, &[Interval::new(2.0, 3.0)], |ctx| {
                let x = ctx.input("x", 2.0, 3.0);
                let pos = ctx.branch(x.value().certainly_gt(0.0.into()), "x > 0")?;
                let y = if pos { x.sqr() } else { -x };
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap();
        assert!(driver.share().is_none());
    }

    #[test]
    fn clear_compiled_forces_rerecord() {
        let inputs = [Interval::centered(0.3, 0.2)];
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        driver.run_in(&mut arena, &inputs, poly).unwrap();
        driver.run_in(&mut arena, &inputs, poly).unwrap();
        assert_eq!(driver.stats().replays, 1);
        driver.clear_compiled();
        assert!(!driver.has_compiled());
        driver.run_in(&mut arena, &inputs, poly).unwrap();
        assert_eq!(driver.stats().records, 2, "cleared driver must re-record");
        // A dropped trace counts as a record, not a fallback.
        assert_eq!(driver.stats().fallbacks, 0);
    }
}
