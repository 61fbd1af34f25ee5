//! BlackScholes option pricing (§4.1.5), after the Parsec benchmark.
//!
//! Prices European options with the Black-Scholes closed form:
//!
//! ```text
//! d1 = (ln(S/K) + (r + v²/2)·T) / (v·√T)        — block A
//! d2 = d1 − v·√T                                 — block B
//! price_call = S·Φ(d1) − K·e^(−rT)·Φ(d2)
//! ```
//!
//! The analysis decomposes the computation into four blocks
//! `A, B, C, D` with `sig(A) > sig(B) ≫ sig(C) > sig(D)` (§4.1.5): the
//! `d1`/`d2` computations dominate, the CNDF evaluations and the
//! discount factor tolerate much looser arithmetic. The approximate task
//! body therefore keeps A/B in full precision and evaluates the C/D
//! blocks with [`scorpio_fastmath`] kernels.
//!
//! Loop perforation is **not applicable** to this benchmark — pricing one
//! option has no loop to perforate (§4.2) — so only the
//! significance-driven version exists, as in the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scorpio_core::{
    Analysis, AnalysisArena, AnalysisError, Ctx, Ia1s, ParallelAnalysis, Report, VarSignificances,
};
use scorpio_fastmath::{fast_cndf, fast_exp, fast_ln, fast_sqrt};
use scorpio_interval::real::cndf;
use scorpio_interval::Interval;
use scorpio_runtime::{ExecutionStats, Executor, TaskGroup};

use crate::Kernel;

/// One option contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Option_ {
    /// Spot price.
    pub spot: f64,
    /// Strike price.
    pub strike: f64,
    /// Risk-free rate.
    pub rate: f64,
    /// Volatility.
    pub volatility: f64,
    /// Time to expiry (years).
    pub time: f64,
    /// `true` for a call, `false` for a put.
    pub call: bool,
}

/// Generates a Parsec-like batch of options (their input generator's
/// documented parameter ranges), deterministically from `seed`.
pub fn generate_options(n: usize, seed: u64) -> Vec<Option_> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Option_ {
            spot: rng.gen_range(5.0..120.0),
            strike: rng.gen_range(10.0..100.0),
            rate: rng.gen_range(0.01..0.1),
            volatility: rng.gen_range(0.05..0.65),
            time: rng.gen_range(0.1..2.0),
            call: rng.gen_bool(0.5),
        })
        .collect()
}

/// Accurate price of one option (double-precision CNDF via `erfc`).
///
/// ```
/// use scorpio_kernels::blackscholes::{price, Option_};
/// let opt = Option_ {
///     spot: 100.0, strike: 100.0, rate: 0.05,
///     volatility: 0.2, time: 1.0, call: true,
/// };
/// let p = price(&opt);
/// assert!((p - 10.4506).abs() < 1e-3); // textbook value
/// ```
pub fn price(opt: &Option_) -> f64 {
    // Block A: d1.
    let sqrt_t = opt.time.sqrt();
    let d1 = ((opt.spot / opt.strike).ln()
        + (opt.rate + 0.5 * opt.volatility * opt.volatility) * opt.time)
        / (opt.volatility * sqrt_t);
    // Block B: d2.
    let d2 = d1 - opt.volatility * sqrt_t;
    // Block C: the CNDF evaluations.
    let nd1 = cndf(d1);
    let nd2 = cndf(d2);
    // Block D: discounting and combination.
    let discount = opt.strike * (-opt.rate * opt.time).exp();
    if opt.call {
        opt.spot * nd1 - discount * nd2
    } else {
        discount * (1.0 - nd2) - opt.spot * (1.0 - nd1)
    }
}

/// Approximate price: blocks A/B accurate, blocks C/D via fastmath
/// (`fast_cndf`, `fast_exp`, `fast_ln`, `fast_sqrt`) — the paper's
/// fastapprox substitution.
pub fn price_approx(opt: &Option_) -> f64 {
    let sqrt_t = fast_sqrt(opt.time);
    let d1 = (fast_ln(opt.spot / opt.strike)
        + (opt.rate + 0.5 * opt.volatility * opt.volatility) * opt.time)
        / (opt.volatility * sqrt_t);
    let d2 = d1 - opt.volatility * sqrt_t;
    let nd1 = fast_cndf(d1);
    let nd2 = fast_cndf(d2);
    let discount = opt.strike * fast_exp(-opt.rate * opt.time);
    if opt.call {
        opt.spot * nd1 - discount * nd2
    } else {
        discount * (1.0 - nd2) - opt.spot * (1.0 - nd1)
    }
}

/// Sequential accurate pricing of a batch.
pub fn reference(options: &[Option_]) -> Vec<f64> {
    let _span = scorpio_obs::span("kernel.blackscholes.reference");
    options.iter().map(price).collect()
}

/// Significance-driven task version: the batch is split into chunks of
/// `chunk` options, one task each (uniform significance 0.5 — the block
/// ranking lives *inside* the approximate body, per §4.1.5); approximate
/// tasks price with [`price_approx`].
pub fn tasked(
    options: &[Option_],
    chunk: usize,
    executor: &Executor,
    ratio: f64,
) -> (Vec<f64>, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.blackscholes.tasked");
    assert!(chunk > 0, "chunk size must be positive");
    let mut group = TaskGroup::new("blackscholes");
    for opts in options.chunks(chunk) {
        group.spawn(
            0.5,
            move |ctx: &scorpio_runtime::TaskCtx| {
                ctx.count_accurate_ops(opts.len() as u64 * 10);
                opts.iter().map(price).collect::<Vec<f64>>()
            },
            Some(move |ctx: &scorpio_runtime::TaskCtx| {
                ctx.count_approx_ops(opts.len() as u64 * 10);
                opts.iter().map(price_approx).collect()
            }),
        );
    }
    let (chunks, stats) = group.taskwait(executor, ratio);
    (chunks.concat(), stats)
}

/// Significance analysis of one option pricing (§4.1.5): inputs are the
/// five market parameters over their Parsec generation ranges; the four
/// blocks `A` (d1), `B` (d2), `C` (the CNDF values), `D` (the discount
/// factor) are registered as intermediates, the call price as the
/// output.
///
/// # Errors
///
/// Propagates framework errors (the call-price path is branch-free).
pub fn analysis() -> Result<Report, AnalysisError> {
    let _span = scorpio_obs::span("kernel.blackscholes.analysis");
    Analysis::new().run(|ctx| {
        let spot = ctx.input("spot", 80.0, 120.0);
        let strike = ctx.input("strike", 90.0, 110.0);
        let rate = ctx.input("rate", 0.01, 0.1);
        let vol = ctx.input("volatility", 0.15, 0.65);
        let time = ctx.input("time", 0.25, 2.0);
        register_blocks(ctx, [spot, strike, rate, vol, time]);
        Ok(())
    })
}

/// Records the block-structured call price over the market parameters
/// `[spot, strike, rate, volatility, time]`, registering the blocks as
/// intermediates and the price as the output.
fn register_blocks<'t>(ctx: &Ctx<'t>, [spot, strike, rate, vol, time]: [Ia1s<'t>; 5]) {
    // Block A: d1.
    let sqrt_t = time.sqrt();
    let d1 = ((spot / strike).ln() + (rate + vol.sqr() * 0.5) * time) / (vol * sqrt_t);
    ctx.intermediate(&d1, "A");

    // Block B: d2.
    let d2 = d1 - vol * sqrt_t;
    ctx.intermediate(&d2, "B");

    // Block C: CNDF evaluations.
    let nd1 = d1.cndf();
    ctx.intermediate(&nd1, "C1");
    let nd2 = d2.cndf();
    ctx.intermediate(&nd2, "C2");

    // Block D: the discount factor.
    let discount = (-(rate * time)).exp();
    ctx.intermediate(&discount, "D");

    let price = spot * nd1 - strike * discount * nd2;
    ctx.output(&price, "price");
}

/// The per-block significances `(A, B, C, D)` from the rows of an
/// [`analysis`] or [`Pricing`] run, with C the summed CNDF blocks.
pub fn block_significances(vars: &VarSignificances) -> (f64, f64, f64, f64) {
    let s = |n: &str| vars.significance_of(n).unwrap_or(0.0);
    (s("A"), s("B"), s("C1") + s("C2"), s("D"))
}

/// Relative half-width each market parameter is boxed with in the
/// per-option analysis: ±2% around the option's concrete values keeps
/// the interval enclosures tight enough to stay branch-free while still
/// exercising the adjoint sweep per operating point.
const OPTION_BOX_FRACTION: f64 = 0.02;

/// The per-option analysis descriptor: the block structure of
/// [`analysis`] with every market parameter boxed ±2 % around one
/// option's values. All five parameters are input boxes, so the trace
/// shape is option-independent.
#[derive(Debug, Clone, Copy)]
pub struct Pricing;

/// Registration names of the five market parameters, in input order.
const PARAMS: [&str; 5] = ["spot", "strike", "rate", "volatility", "time"];

impl Kernel for Pricing {
    type Item = Option_;

    fn shape_key(&self) -> u64 {
        0
    }

    fn inputs(&self, o: &Option_) -> Vec<Interval> {
        [o.spot, o.strike, o.rate, o.volatility, o.time]
            .into_iter()
            .map(|v| Interval::centered(v, v.abs() * OPTION_BOX_FRACTION))
            .collect()
    }

    fn register(&self, ctx: &Ctx<'_>, o: &Option_) -> Result<(), AnalysisError> {
        let boxes = self.inputs(o);
        let params = std::array::from_fn(|i| ctx.input(PARAMS[i], boxes[i].inf(), boxes[i].sup()));
        register_blocks(ctx, params);
        Ok(())
    }
}

/// The block significances `(A, B, C, D)` of one option, recorded into a
/// reusable arena.
///
/// # Errors
///
/// Propagates framework errors (the call-price path is branch-free).
pub fn analysis_option_in(
    arena: &mut AnalysisArena,
    o: &Option_,
) -> Result<(f64, f64, f64, f64), AnalysisError> {
    let report = Analysis::new().run_in(arena, |ctx| Pricing.register(ctx, o))?;
    Ok(block_significances(&report))
}

/// The block significances `(A, B, C, D)` of every option, in option
/// order: [`Pricing`] lane-replayed `LANES` options per walk of the
/// compiled trace over `engine`'s workers, bit-identical to
/// [`analysis_option_in`] for every width.
///
/// # Errors
///
/// Propagates the error of the lowest-indexed failing option.
pub fn analysis_options_lanes<const LANES: usize>(
    options: &[Option_],
    engine: &ParallelAnalysis,
) -> Result<Vec<(f64, f64, f64, f64)>, AnalysisError> {
    let _span = scorpio_obs::span("kernel.blackscholes.analysis_options");
    Pricing.batch::<LANES, _>(options, engine, block_significances)
}

/// The input boxes of [`register_option`] ([`Pricing`]'s).
pub fn option_inputs(o: &Option_) -> Vec<Interval> {
    Pricing.inputs(o)
}

/// Records the per-option pricing ([`Pricing`]'s registration).
///
/// # Errors
///
/// Propagates framework errors (the call-price path is branch-free).
pub fn register_option(ctx: &Ctx<'_>, o: &Option_) -> Result<(), AnalysisError> {
    Pricing.register(ctx, o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_core::DEFAULT_LANES;
    use scorpio_quality::{mean_relative_error, relative_error_l2};

    #[test]
    fn put_call_parity() {
        let call = Option_ {
            spot: 95.0,
            strike: 100.0,
            rate: 0.04,
            volatility: 0.3,
            time: 0.75,
            call: true,
        };
        let put = Option_ { call: false, ..call };
        let lhs = price(&call) - price(&put);
        let rhs = call.spot - call.strike * (-call.rate * call.time).exp();
        assert!((lhs - rhs).abs() < 1e-10, "parity violated: {lhs} vs {rhs}");
    }

    #[test]
    fn price_bounds() {
        for o in generate_options(500, 3) {
            let p = price(&o);
            assert!(p >= -1e-9, "negative price {p} for {o:?}");
            if o.call {
                assert!(p <= o.spot + 1e-9);
            } else {
                assert!(p <= o.strike + 1e-9);
            }
        }
    }

    #[test]
    fn approx_price_is_close() {
        let opts = generate_options(1000, 11);
        let exact: Vec<f64> = opts.iter().map(price).collect();
        let approx: Vec<f64> = opts.iter().map(price_approx).collect();
        let err = mean_relative_error(&exact, &approx);
        assert!(err < 1e-3, "mean rel err {err}");
    }

    #[test]
    fn tasked_ratio_one_matches_reference() {
        let opts = generate_options(256, 5);
        let executor = Executor::new(4);
        let (prices, stats) = tasked(&opts, 32, &executor, 1.0);
        assert_eq!(prices, reference(&opts));
        assert_eq!(stats.accurate, 8);
    }

    #[test]
    fn tasked_error_monotone_in_ratio() {
        let opts = generate_options(256, 7);
        let executor = Executor::new(4);
        let exact = reference(&opts);
        let mut last = f64::INFINITY;
        for ratio in [0.0, 0.5, 1.0] {
            let (prices, _) = tasked(&opts, 16, &executor, ratio);
            let err = relative_error_l2(&exact, &prices);
            assert!(err <= last + 1e-15, "err {err} after {last}");
            last = err;
        }
        assert_eq!(last, 0.0);
    }

    #[test]
    fn analysis_block_ordering() {
        // §4.1.5: sig(A) > sig(B) ≫ sig(C) > sig(D).
        let report = analysis().unwrap();
        let (a, b, c, d) = block_significances(&report);
        assert!(a > b, "A = {a} must exceed B = {b}");
        assert!(b > c, "B = {b} must exceed C = {c}");
        assert!(c > d, "C = {c} must exceed D = {d}");
        // The "≫" between B and C: at least 2×.
        assert!(b / c > 2.0, "B/C = {}", b / c);
    }

    #[test]
    fn replayed_batch_matches_rerecorded_options_bitwise() {
        let opts = generate_options(24, 13);
        let engine = ParallelAnalysis::new(1);
        let replayed = analysis_options_lanes::<DEFAULT_LANES>(&opts, &engine).unwrap();
        let mut arena = AnalysisArena::new();
        for (o, r) in opts.iter().zip(&replayed) {
            let fresh = analysis_option_in(&mut arena, o).unwrap();
            assert_eq!(r.0.to_bits(), fresh.0.to_bits(), "A diverged for {o:?}");
            assert_eq!(r.1.to_bits(), fresh.1.to_bits(), "B diverged for {o:?}");
            assert_eq!(r.2.to_bits(), fresh.2.to_bits(), "C diverged for {o:?}");
            assert_eq!(r.3.to_bits(), fresh.3.to_bits(), "D diverged for {o:?}");
        }
    }

    #[test]
    fn generated_options_in_parsec_ranges() {
        for o in generate_options(200, 1) {
            assert!((5.0..120.0).contains(&o.spot));
            assert!((10.0..100.0).contains(&o.strike));
            assert!((0.01..0.1).contains(&o.rate));
            assert!((0.05..0.65).contains(&o.volatility));
            assert!((0.1..2.0).contains(&o.time));
        }
    }
}
