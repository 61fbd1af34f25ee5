//! Monte-Carlo significance estimation (§6 future work: "combining the
//! robustness of algorithmic differentiation to Monte Carlo-based
//! methodologies").
//!
//! Instead of one interval sweep over the whole input box, this estimator
//! samples concrete input points, runs point-valued adjoint AD at each
//! sample, and measures the **empirical width** of the per-variable
//! product `u_j · ∇_{u_j} y` across samples — the sampling analogue of
//! Eq. 11. By construction the estimate converges (from below) to a value
//! enclosed by the interval significance, which is exactly the
//! relationship the `mc_crosscheck` bench quantifies.
//!
//! Unlike the interval analysis, sampling tolerates data-dependent control
//! flow without splitting: each sample follows its own concrete trace.
//!
//! # Record once, replay many
//!
//! Samples of a branch-free model all share one trace shape, so the
//! estimators record and [compile](CompiledTape) the *first* sample's
//! trace, then **replay** it for the remaining samples — drawing each
//! sample's input values by replaying the recorded input ranges through
//! the sample's own RNG — instead of re-recording the DynDFG every
//! time. Replay is guarded twice: a trace that resolved any
//! [`McCtx::branch`] is never replayed (its shape is value-dependent),
//! and the second sample is both re-recorded *and* replayed, with the
//! estimator falling back to full re-recording unless the two agree
//! bit-for-bit. [`McReport::replayed_samples`] reports which path ran.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scorpio_adjoint::{AdjointDemand, CompiledTape, LaneReplayBuffers, NodeId, Tape, Var};

use crate::error::AnalysisError;
use crate::report::VarKind;

/// Lane width of the Monte-Carlo sample-replay loops: full blocks of
/// this many samples share one walk of the compiled op stream
/// ([`CompiledTape::replay_lanes`]); the verification sample and the
/// trailing partial block replay as width-1 blocks. Same width
/// rationale as [`crate::parallel::DEFAULT_LANES`].
const MC_LANES: usize = crate::parallel::DEFAULT_LANES;

/// Active value for Monte-Carlo runs: point-valued AD.
pub type McVarValue<'t> = Var<'t, f64>;

/// Registration context for one Monte-Carlo sample run.
#[derive(Debug)]
pub struct McCtx<'t> {
    tape: &'t Tape<f64>,
    entries: RefCell<Vec<(String, NodeId, VarKind)>>,
    rng: RefCell<StdRng>,
    /// Declared input ranges in call order — the recipe the replay path
    /// uses to re-draw input values for later samples.
    ranges: RefCell<Vec<(f64, f64)>>,
    /// Set when the closure resolved any branch: the trace shape is then
    /// value-dependent and must not be replayed for other samples.
    branched: Cell<bool>,
}

impl<'t> McCtx<'t> {
    fn new(tape: &'t Tape<f64>, rng: StdRng) -> McCtx<'t> {
        McCtx {
            tape,
            entries: RefCell::new(Vec::new()),
            rng: RefCell::new(rng),
            ranges: RefCell::new(Vec::new()),
            branched: Cell::new(false),
        }
    }

    /// Declares input `name` with range `[lo, hi]`; the returned active
    /// value carries a uniform sample from the range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn input(&self, name: impl Into<String>, lo: f64, hi: f64) -> McVarValue<'t> {
        assert!(lo <= hi, "McCtx::input: inverted range");
        self.ranges.borrow_mut().push((lo, hi));
        let x = if lo == hi {
            lo
        } else {
            self.rng.borrow_mut().gen_range(lo..=hi)
        };
        let var = self.tape.var(x);
        self.entries
            .borrow_mut()
            .push((name.into(), var.id(), VarKind::Input));
        var
    }

    /// Records a constant.
    pub fn constant(&self, value: f64) -> McVarValue<'t> {
        self.tape.constant(value)
    }

    /// Registers a named intermediate.
    pub fn intermediate(&self, var: &McVarValue<'t>, name: impl Into<String>) {
        self.entries
            .borrow_mut()
            .push((name.into(), var.id(), VarKind::Intermediate));
    }

    /// Registers an output (adjoint seed 1).
    pub fn output(&self, var: &McVarValue<'t>, name: impl Into<String>) {
        self.entries
            .borrow_mut()
            .push((name.into(), var.id(), VarKind::Output));
    }

    /// Concrete control flow: never ambiguous under sampling.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` mirrors [`crate::Ctx::branch`] so the
    /// same closure shape works for both analyses.
    pub fn branch(&self, condition: bool, _description: &str) -> Result<bool, AnalysisError> {
        self.branched.set(true);
        Ok(condition)
    }
}

/// Accumulated Monte-Carlo estimate for one registered variable.
#[derive(Debug, Clone)]
pub struct McVar {
    /// Registration name.
    pub name: String,
    /// Role in the computation.
    pub kind: VarKind,
    /// Smallest sampled product `u · ∇_u y`.
    pub product_min: f64,
    /// Largest sampled product.
    pub product_max: f64,
    /// Raw empirical significance `product_max − product_min`.
    pub significance_raw: f64,
    /// Significance normalized by the summed output widths (same scale as
    /// [`crate::Report`]).
    pub significance: f64,
}

/// Result of a Monte-Carlo estimation run.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Per-variable estimates in first-seen order.
    pub vars: Vec<McVar>,
    /// Number of samples drawn.
    pub samples: usize,
    /// How many samples were served by replaying the compiled trace
    /// instead of re-recording (0 when the model branched or the
    /// verification sample disagreed; see the [module docs](self)).
    pub replayed_samples: usize,
}

impl McReport {
    /// Normalized significance estimate of a registered variable.
    pub fn significance_of(&self, name: &str) -> Option<f64> {
        self.vars
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.significance)
    }
}

/// Runs `samples` point-AD evaluations of `f` and estimates significances
/// from the empirical spread of `u · ∇_u y`.
///
/// # Errors
///
/// Propagates closure errors and [`AnalysisError::NoOutputs`] if a sample
/// registers no output.
///
/// # Panics
///
/// Panics if `samples == 0`.
///
/// # Examples
///
/// ```
/// use scorpio_core::mc::estimate;
///
/// let report = estimate(256, 42, |ctx| {
///     let x = ctx.input("x", 0.0, 1.0);
///     let t1 = x.powi(1);
///     ctx.intermediate(&t1, "t1");
///     let t3 = x.powi(3);
///     ctx.intermediate(&t3, "t3");
///     let y = t1 + t3;
///     ctx.output(&y, "y");
///     Ok(())
/// }).unwrap();
///
/// // d y / d t_i = 1, so the estimate is the empirical width of x^i,
/// // which shrinks with i on [0, 1]... but only slightly: both ≈ 1.
/// let s1 = report.significance_of("t1").unwrap();
/// let s3 = report.significance_of("t3").unwrap();
/// assert!(s1 > 0.0 && s3 > 0.0 && s1 >= s3 * 0.9);
/// ```
pub fn estimate<F>(samples: usize, seed: u64, f: F) -> Result<McReport, AnalysisError>
where
    F: Fn(&McCtx<'_>) -> Result<(), AnalysisError>,
{
    assert!(samples > 0, "estimate: need at least one sample");
    let sample_seeds = draw_sample_seeds(samples, seed);
    let tape = Tape::<f64>::new();
    let mut scratch = Vec::new();
    let mut per_sample = Vec::with_capacity(samples);

    let (first, trace) = record_sample(&tape, &mut scratch, sample_seeds[0], &f)?;
    per_sample.push(first);

    let mut replayed = 0usize;
    let mut rest = &sample_seeds[1..];
    if !rest.is_empty() {
        if let Some(compiled) = verified_compile(&tape, &trace, &mut scratch, rest[0], &f)? {
            // Sample 1 was recorded inside verified_compile and matched
            // its replay bitwise; push the recorded copy and replay on.
            per_sample.push(compiled.verify_entries);
            rest = &rest[1..];
            // Full lane blocks share one walk of the op stream; the
            // trailing remainder replays as width-1 blocks (bit-identical
            // either way).
            let mut wide = SampleLanes::<MC_LANES>::default();
            let mut chunks = rest.chunks_exact(MC_LANES);
            for block in chunks.by_ref() {
                per_sample.extend(wide.replay(&compiled.tape, &trace, block));
            }
            let mut single = SampleLanes::<1>::default();
            for s in chunks.remainder().chunks(1) {
                per_sample.extend(single.replay(&compiled.tape, &trace, s));
            }
            replayed = rest.len();
            rest = &[];
        }
    }
    for &s in rest {
        per_sample.push(run_sample(&tape, &mut scratch, s, &f)?);
    }
    let mut report = merge_samples(per_sample)?;
    report.replayed_samples = replayed;
    Ok(report)
}

/// [`estimate`] with the samples fanned over `threads` workers, each
/// worker reusing one tape arena and adjoint scratch buffer across all
/// the samples it claims.
///
/// The estimate is **bit-identical** to the serial [`estimate`] with
/// the same `seed`: per-sample RNG seeds are pre-drawn from the master
/// generator in the serial order, every sample's trace and reverse
/// sweep compute the same floating-point operations wherever they run,
/// and the per-sample results are merged serially in sample order.
///
/// # Errors
///
/// Propagates the error of the lowest-indexed failing sample (the one
/// the serial loop would hit first), independent of scheduling.
///
/// # Panics
///
/// Panics if `samples == 0` or `threads == 0`.
pub fn estimate_threaded<F>(
    samples: usize,
    seed: u64,
    threads: usize,
    f: F,
) -> Result<McReport, AnalysisError>
where
    F: Fn(&McCtx<'_>) -> Result<(), AnalysisError> + Sync,
{
    assert!(samples > 0, "estimate: need at least one sample");
    if threads == 1 {
        return estimate(samples, seed, f);
    }
    let sample_seeds = draw_sample_seeds(samples, seed);
    let executor = scorpio_runtime::Executor::new(threads);

    // Serial probe: record sample 0, compile, verify against sample 1.
    // The replay decision is made from exactly the same data as in the
    // serial estimator, so both take the same path and stay
    // bit-identical.
    if samples > 1 {
        let tape = Tape::<f64>::new();
        let mut scratch = Vec::new();
        let (first, trace) = record_sample(&tape, &mut scratch, sample_seeds[0], &f)?;
        if let Some(compiled) = verified_compile(&tape, &trace, &mut scratch, sample_seeds[1], &f)?
        {
            let mut per_sample = Vec::with_capacity(samples);
            per_sample.push(first);
            per_sample.push(compiled.verify_entries);
            // Replay is infallible and identical wherever it runs: fan
            // the remaining samples over the workers in lane blocks —
            // each full block is one walk of the op stream, the
            // trailing partial block replays as width-1 blocks.
            let blocks: Vec<&[u64]> = sample_seeds[2..].chunks(MC_LANES).collect();
            let replayed = executor.map_with_state(
                &blocks,
                <(SampleLanes<MC_LANES>, SampleLanes<1>)>::default,
                |(wide, single), _, &block| {
                    if block.len() == MC_LANES {
                        wide.replay(&compiled.tape, &trace, block)
                    } else {
                        block
                            .chunks(1)
                            .flat_map(|s| single.replay(&compiled.tape, &trace, s))
                            .collect()
                    }
                },
            );
            let replayed: Vec<Vec<SampleEntry>> =
                replayed.into_iter().flatten().collect();
            let replayed_count = replayed.len();
            per_sample.extend(replayed);
            let mut report = merge_samples(per_sample)?;
            report.replayed_samples = replayed_count;
            return Ok(report);
        }
    }

    // Branchy or shape-divergent model: record every sample in the pool
    // (samples 0/1 re-record identically to the probe above).
    let per_sample = executor.map_with_state(
        &sample_seeds,
        || (Tape::<f64>::new(), Vec::new()),
        |(tape, scratch), _, &s| run_sample(tape, scratch, s, &f),
    );
    let per_sample: Vec<Vec<SampleEntry>> =
        per_sample.into_iter().collect::<Result<_, _>>()?;
    merge_samples(per_sample)
}

/// Pre-draws one RNG seed per sample from the master generator —
/// exactly the sequence the serial loop consumes, so serial and
/// threaded runs sample identical input points.
fn draw_sample_seeds(samples: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..samples).map(|_| rng.gen()).collect()
}

/// One registered variable's contribution from one sample.
struct SampleEntry {
    name: String,
    kind: VarKind,
    /// The sampled product `u · ∇_u y` (Eq. 11's argument, pointwise).
    product: f64,
    /// The sampled value `u` (used for output-width normalization).
    value: f64,
}

/// Shape metadata captured while recording one sample: everything the
/// replay path needs to run later samples without the closure.
struct RecordedTrace {
    /// Registrations in order: name, trace node, role.
    entries: Vec<(String, NodeId, VarKind)>,
    /// Declared input ranges in input-call order (the RNG replay recipe).
    ranges: Vec<(f64, f64)>,
    /// The closure resolved a branch — the trace is value-dependent.
    branched: bool,
}

/// Runs one sample on a (cleared) arena tape and extracts per-variable
/// products in registration order.
fn run_sample<F>(
    tape: &Tape<f64>,
    scratch: &mut Vec<f64>,
    sample_seed: u64,
    f: &F,
) -> Result<Vec<SampleEntry>, AnalysisError>
where
    F: Fn(&McCtx<'_>) -> Result<(), AnalysisError>,
{
    record_sample(tape, scratch, sample_seed, f).map(|(entries, _)| entries)
}

/// [`run_sample`] that also returns the recorded trace shape.
fn record_sample<F>(
    tape: &Tape<f64>,
    scratch: &mut Vec<f64>,
    sample_seed: u64,
    f: &F,
) -> Result<(Vec<SampleEntry>, RecordedTrace), AnalysisError>
where
    F: Fn(&McCtx<'_>) -> Result<(), AnalysisError>,
{
    tape.clear();
    let ctx = McCtx::new(tape, StdRng::seed_from_u64(sample_seed));
    f(&ctx)?;
    let trace = RecordedTrace {
        entries: ctx.entries.into_inner(),
        ranges: ctx.ranges.into_inner(),
        branched: ctx.branched.get(),
    };
    let outputs: Vec<NodeId> = trace
        .entries
        .iter()
        .filter(|(_, _, k)| *k == VarKind::Output)
        .map(|(_, id, _)| *id)
        .collect();
    if outputs.is_empty() {
        return Err(AnalysisError::NoOutputs);
    }
    let seeds: Vec<(NodeId, f64)> = outputs.iter().map(|&o| (o, 1.0)).collect();
    let adj = tape.adjoints_in(&seeds, std::mem::take(scratch));
    let result = trace
        .entries
        .iter()
        .map(|(name, id, kind)| SampleEntry {
            name: name.clone(),
            kind: *kind,
            product: tape.value(*id) * adj.get(*id),
            value: tape.value(*id),
        })
        .collect();
    *scratch = adj.into_inner();
    Ok((result, trace))
}

/// A compiled trace that survived the verification sample, plus that
/// sample's (recorded) entries for reuse.
struct VerifiedCompile {
    tape: CompiledTape<f64>,
    verify_entries: Vec<SampleEntry>,
}

/// Compiles the just-recorded trace on `tape` and verifies it on the
/// next sample: the sample is recorded from scratch *and* replayed, and
/// the compile is kept only if both agree bit-for-bit. Returns `None`
/// (without recording anything) for branchy traces, or on divergence —
/// the caller then re-records every remaining sample.
fn verified_compile<F>(
    tape: &Tape<f64>,
    trace: &RecordedTrace,
    scratch: &mut Vec<f64>,
    verify_seed: u64,
    f: &F,
) -> Result<Option<VerifiedCompile>, AnalysisError>
where
    F: Fn(&McCtx<'_>) -> Result<(), AnalysisError>,
{
    if trace.branched {
        return Ok(None);
    }
    let compiled = CompiledTape::compile(tape);
    // Recording clears the tape, but `compiled` is an owned snapshot.
    let (recorded, _) = record_sample(tape, scratch, verify_seed, f)?;
    let replayed = SampleLanes::<1>::default().replay(&compiled, trace, &[verify_seed]);
    if entries_bit_equal(&recorded, &replayed[0]) {
        Ok(Some(VerifiedCompile {
            tape: compiled,
            verify_entries: recorded,
        }))
    } else {
        Ok(None)
    }
}

/// Lane replay state for blocks of `LANES` Monte-Carlo samples: the
/// lane buffers plus the slot-major input staging area.
#[derive(Default)]
struct SampleLanes<const LANES: usize> {
    buf: LaneReplayBuffers<f64, LANES>,
    staging: Vec<[f64; LANES]>,
}

impl<const LANES: usize> SampleLanes<LANES> {
    /// Replays one full block of `LANES` samples with a **single** walk
    /// of the compiled op stream: each sample's inputs are re-drawn from
    /// the recorded ranges with its own RNG (exactly the sequence
    /// [`McCtx::input`] would consume) into the staging area, then the
    /// lane forward/reverse sweeps run all lanes at once. Per sample,
    /// the extracted entries are bit-identical to a recording's (each
    /// lane performs the same scalar operations in the same order).
    fn replay(
        &mut self,
        compiled: &CompiledTape<f64>,
        trace: &RecordedTrace,
        sample_seeds: &[u64],
    ) -> Vec<Vec<SampleEntry>> {
        debug_assert_eq!(sample_seeds.len(), LANES);
        self.staging.clear();
        self.staging.resize(trace.ranges.len(), [0.0; LANES]);
        for (l, &s) in sample_seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(s);
            for (slot, &(lo, hi)) in trace.ranges.iter().enumerate() {
                self.staging[slot][l] = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            }
        }
        compiled
            .replay_lanes(&self.staging, &mut self.buf)
            .expect("input arity is fixed by the recorded ranges");
        let seeds: Vec<(NodeId, f64)> = trace
            .entries
            .iter()
            .filter(|(_, _, k)| *k == VarKind::Output)
            .map(|(_, id, _)| (*id, 1.0))
            .collect();
        // Only the registered nodes' adjoints are read below.
        let registered: Vec<NodeId> = trace.entries.iter().map(|(_, id, _)| *id).collect();
        compiled.adjoints_into_lanes(&seeds, AdjointDemand::Listed(&registered), &mut self.buf);
        let buf = &self.buf;
        (0..LANES)
            .map(|l| {
                trace
                    .entries
                    .iter()
                    .map(|(name, id, kind)| SampleEntry {
                        name: name.clone(),
                        kind: *kind,
                        product: buf.value(*id, l) * buf.adjoint(*id, l),
                        value: buf.value(*id, l),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Bitwise comparison of two samples' entry lists.
fn entries_bit_equal(a: &[SampleEntry], b: &[SampleEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.kind == y.kind
                && x.product.to_bits() == y.product.to_bits()
                && x.value.to_bits() == y.value.to_bits()
        })
}

/// Folds per-sample entry lists, in sample order, into the report —
/// the same accumulation the serial loop performs inline.
fn merge_samples(per_sample: Vec<Vec<SampleEntry>>) -> Result<McReport, AnalysisError> {
    struct Acc {
        kind: VarKind,
        min: f64,
        max: f64,
        order: usize,
    }
    let samples = per_sample.len();
    let mut acc: HashMap<String, Acc> = HashMap::new();
    let mut order = 0usize;
    let mut output_min_max: HashMap<String, (f64, f64)> = HashMap::new();

    for entries in per_sample {
        for entry in entries {
            let slot = acc.entry(entry.name.clone()).or_insert_with(|| {
                let a = Acc {
                    kind: entry.kind,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    order,
                };
                order += 1;
                a
            });
            slot.min = slot.min.min(entry.product);
            slot.max = slot.max.max(entry.product);
            if entry.kind == VarKind::Output {
                let e = output_min_max
                    .entry(entry.name)
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY));
                e.0 = e.0.min(entry.value);
                e.1 = e.1.max(entry.value);
            }
        }
    }

    let total: f64 = output_min_max.values().map(|(lo, hi)| hi - lo).sum();
    let normalize = |raw: f64| if total > 0.0 { raw / total } else { raw };

    let mut vars: Vec<(usize, McVar)> = acc
        .into_iter()
        .map(|(name, a)| {
            let raw = a.max - a.min;
            (
                a.order,
                McVar {
                    name,
                    kind: a.kind,
                    product_min: a.min,
                    product_max: a.max,
                    significance_raw: raw,
                    significance: normalize(raw),
                },
            )
        })
        .collect();
    vars.sort_by_key(|(o, _)| *o);
    Ok(McReport {
        vars: vars.into_iter().map(|(_, v)| v).collect(),
        samples,
        replayed_samples: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_significance_is_below_interval_significance() {
        // Interval analysis of y = x² over [0, 1]: S(x) = w([0,1]·[0,2]) = 2.
        // MC: products x·2x = 2x² ∈ [0, 2] empirically — always ≤ interval.
        let mc = estimate(512, 7, |ctx| {
            let x = ctx.input("x", 0.0, 1.0);
            let y = x.sqr();
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();

        let ia = crate::Analysis::new()
            .run(|ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                let y = x.sqr();
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap();

        let mc_x = mc.vars.iter().find(|v| v.name == "x").unwrap();
        let ia_x = ia.var("x").unwrap();
        assert!(mc_x.significance_raw <= ia_x.significance_raw + 1e-12);
        assert!(mc_x.significance_raw > 0.5 * ia_x.significance_raw);
    }

    #[test]
    fn mc_handles_control_flow_without_splitting() {
        let mc = estimate(256, 3, |ctx| {
            let x = ctx.input("x", -1.0, 1.0);
            let neg = ctx.branch(x.value() < 0.0, "x < 0")?;
            let y = if neg { -x } else { x };
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        let y = mc.vars.iter().find(|v| v.name == "y").unwrap();
        assert!(y.product_min >= 0.0);
        assert!(y.product_max <= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            estimate(64, 99, |ctx| {
                let x = ctx.input("x", 0.0, 2.0);
                let y = x.exp();
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.vars[0].product_min, b.vars[0].product_min);
        assert_eq!(a.vars[0].product_max, b.vars[0].product_max);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let _ = estimate(0, 0, |_| Ok(()));
    }

    #[test]
    fn replayed_estimate_matches_pure_recording_bitwise() {
        let model = |ctx: &McCtx<'_>| {
            let x = ctx.input("x", -1.0, 2.0);
            let z = ctx.input("z", 0.5, 1.5);
            let t = (x * z).sin();
            ctx.intermediate(&t, "t");
            let y = t.exp() + x.sqr();
            ctx.output(&y, "y");
            Ok(())
        };
        // Reference: the pre-replay behaviour — record every sample.
        let seeds = draw_sample_seeds(64, 5);
        let tape = Tape::<f64>::new();
        let mut scratch = Vec::new();
        let per_sample: Vec<Vec<SampleEntry>> = seeds
            .iter()
            .map(|&s| run_sample(&tape, &mut scratch, s, &model).unwrap())
            .collect();
        let reference = merge_samples(per_sample).unwrap();

        let replayed = estimate(64, 5, model).unwrap();
        assert_eq!(replayed.replayed_samples, 62, "samples 2.. must replay");
        assert_eq!(replayed.vars.len(), reference.vars.len());
        for (a, b) in replayed.vars.iter().zip(&reference.vars) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.product_min.to_bits(), b.product_min.to_bits());
            assert_eq!(a.product_max.to_bits(), b.product_max.to_bits());
            assert_eq!(a.significance.to_bits(), b.significance.to_bits());
        }
    }

    #[test]
    fn branchy_model_never_replays() {
        let mc = estimate(32, 11, |ctx| {
            let x = ctx.input("x", -1.0, 1.0);
            let neg = ctx.branch(x.value() < 0.0, "x < 0")?;
            let y = if neg { -x } else { x };
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        assert_eq!(mc.replayed_samples, 0);
        let threaded = estimate_threaded(32, 11, 2, |ctx| {
            let x = ctx.input("x", -1.0, 1.0);
            let neg = ctx.branch(x.value() < 0.0, "x < 0")?;
            let y = if neg { -x } else { x };
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        assert_eq!(threaded.replayed_samples, 0);
        for (a, b) in mc.vars.iter().zip(&threaded.vars) {
            assert_eq!(a.significance.to_bits(), b.significance.to_bits());
        }
    }

    #[test]
    fn threaded_estimate_is_bit_identical_to_serial() {
        let model = |ctx: &McCtx<'_>| {
            let x = ctx.input("x", -1.0, 2.0);
            let z = ctx.input("z", 0.5, 1.5);
            let t = (x * z).sin();
            ctx.intermediate(&t, "t");
            let y = t.exp() + x;
            ctx.output(&y, "y");
            Ok(())
        };
        let serial = estimate(128, 2024, model).unwrap();
        for threads in [2, 4, 8] {
            let par = estimate_threaded(128, 2024, threads, model).unwrap();
            assert_eq!(par.samples, serial.samples);
            assert_eq!(par.vars.len(), serial.vars.len());
            for (a, b) in serial.vars.iter().zip(&par.vars) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.product_min.to_bits(), b.product_min.to_bits());
                assert_eq!(a.product_max.to_bits(), b.product_max.to_bits());
                assert_eq!(a.significance.to_bits(), b.significance.to_bits());
            }
        }
    }
}
