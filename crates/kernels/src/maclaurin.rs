//! The Maclaurin-series running example of §3 (Listings 5–7, Fig. 3).
//!
//! `f(x) = Σ_{i=0}^{N−1} xⁱ ≈ 1/(1−x)` for `x ∈ (−1, 1)`.

use scorpio_core::{AnalysisError, Ctx, Report};
use scorpio_fastmath::fast_pow;
use scorpio_interval::Interval;
use scorpio_runtime::{ExecutionStats, Executor, TaskGroup};

use crate::Kernel;

/// Sequential accurate implementation (Listing 5).
///
/// ```
/// use scorpio_kernels::maclaurin;
/// let y = maclaurin::reference(0.5, 20);
/// assert!((y - 2.0).abs() < 1e-5); // 1/(1−0.5)
/// ```
pub fn reference(x: f64, n: usize) -> f64 {
    let mut result = 0.0;
    for i in 0..n {
        result += x.powi(i as i32);
    }
    result
}

/// The per-task significance function of Listing 7, line 14:
/// `(N − i + 1) / (N + 2)` — a monotone interpolation of the analysis'
/// term ranking ("approximations of the task significance values may be
/// used, with no penalty, as long as they capture the ranking").
pub fn task_significance(i: usize, n: usize) -> f64 {
    (n - i + 1) as f64 / (n + 2) as f64
}

/// Significance analysis of the series (Listing 6): input `x₀ ± 0.5`,
/// every term registered as an intermediate.
///
/// # Errors
///
/// Propagates [`AnalysisError`]s from the framework (none expected for
/// this branch-free kernel).
pub fn analysis(x0: f64, n: usize) -> Result<Report, AnalysisError> {
    let _span = scorpio_obs::span("kernel.maclaurin.analysis");
    Series { n }.report(&x0)
}

/// The analysis descriptor of the `n`-term series around an expansion
/// point `x₀` (Listing 6's body). The trace shape depends on `n` (one
/// `term{i}` intermediate per term), so `n` is the shape key; only `x₀`
/// is an input box.
#[derive(Debug, Clone, Copy)]
pub struct Series {
    /// Number of terms.
    pub n: usize,
}

impl Kernel for Series {
    type Item = f64;

    fn shape_key(&self) -> u64 {
        self.n as u64
    }

    fn inputs(&self, &x0: &f64) -> Vec<Interval> {
        vec![Interval::centered(x0, 0.5)]
    }

    fn register(&self, ctx: &Ctx<'_>, x0: &f64) -> Result<(), AnalysisError> {
        let b = self.inputs(x0)[0];
        let x = ctx.input("x", b.inf(), b.sup());
        let mut result = ctx.constant(0.0);
        for i in 0..self.n {
            let term = x.powi(i as i32);
            ctx.intermediate(&term, format!("term{i}"));
            result = result + term;
        }
        ctx.output(&result, "result");
        Ok(())
    }
}

/// Task-based version (Listing 7): one task per term `i ≥ 1`, approximate
/// body computing the term with [`fast_pow`] (the paper's `pow_fast`);
/// `ratio` is the taskwait quality knob.
///
/// Work accounting: an accurate term costs `i` units (the multiply chain
/// of `powi`), the approximate `fast_pow` a flat 2.
pub fn tasked(x: f64, n: usize, executor: &Executor, ratio: f64) -> (f64, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.maclaurin.tasked");
    let mut temp = vec![0.0f64; n];
    if n == 0 {
        return (0.0, ExecutionStats::default());
    }
    temp[0] = 1.0; // pow(x, 0) = 1: significance 0, precomputed (Fig. 3).
    let stats = {
        let mut group = TaskGroup::new("maclaurin");
        for (i, slot) in temp.iter_mut().enumerate().skip(1) {
            let significance = task_significance(i, n);
            // Two bodies write the same slot; spawn-time decision makes
            // them mutually exclusive, which Rust can't see — hand each
            // body its own raw view via a one-element split.
            let slot_acc: *mut f64 = slot;
            let slot_apx = SendPtr(slot_acc);
            let slot_acc = SendPtr(slot_acc);
            group.spawn(
                significance,
                move |ctx: &scorpio_runtime::TaskCtx| {
                    ctx.count_accurate_ops(i as u64);
                    slot_acc.write(x.powi(i as i32));
                },
                Some(move |ctx: &scorpio_runtime::TaskCtx| {
                    ctx.count_approx_ops(2);
                    slot_apx.write(fast_pow(x, i as f64));
                }),
            );
        }
        group.taskwait(executor, ratio)
    };
    (temp.iter().sum(), stats)
}

/// Loop-perforated version (§4.2): skips `1 − keep_fraction` of the term
/// loop iterations outright.
pub fn perforated(x: f64, n: usize, keep_fraction: f64) -> (f64, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.maclaurin.perforated");
    let perf = scorpio_runtime::perforation::Perforator::new(n, keep_fraction);
    let mut result = 0.0;
    let mut ops = 0u64;
    for i in 0..n {
        if perf.keep(i) {
            result += x.powi(i as i32);
            ops += i as u64;
        }
    }
    let stats = ExecutionStats {
        accurate: 0,
        approximate: 0,
        dropped: 0,
        accurate_ops: ops,
        approx_ops: 0,
    };
    (result, stats)
}

/// A pointer wrapper asserting Send for the disjoint-slot task pattern.
struct SendPtr(*mut f64);

impl SendPtr {
    /// Writes through the pointer.
    fn write(&self, v: f64) {
        // SAFETY: each SendPtr targets a distinct vector element, the
        // element outlives the task group, and exactly one of the two
        // bodies holding a pointer to a given slot ever runs.
        unsafe { *self.0 = v };
    }
}

// SAFETY: see `SendPtr::write`.
unsafe impl Send for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_converges_to_closed_form() {
        for x in [-0.5, 0.0, 0.3, 0.7] {
            let y = reference(x, 60);
            assert!((y - 1.0 / (1.0 - x)).abs() < 1e-6, "at {x}");
        }
    }

    #[test]
    fn significance_function_is_monotone() {
        let n = 10;
        for i in 2..n {
            assert!(task_significance(i, n) < task_significance(i - 1, n));
        }
        assert!(task_significance(1, n) <= 1.0);
    }

    #[test]
    fn tasked_at_ratio_one_matches_reference() {
        let executor = Executor::new(4);
        let (y, stats) = tasked(0.49, 12, &executor, 1.0);
        assert!((y - reference(0.49, 12)).abs() < 1e-12);
        assert_eq!(stats.accurate, 11);
        assert_eq!(stats.approximate, 0);
    }

    #[test]
    fn tasked_quality_monotone_in_ratio() {
        let executor = Executor::new(4);
        let exact = reference(0.49, 12);
        let mut last_err = f64::INFINITY;
        for ratio in [0.0, 0.5, 1.0] {
            let (y, _) = tasked(0.49, 12, &executor, ratio);
            let err = (y - exact).abs();
            assert!(
                err <= last_err + 1e-9,
                "error must not grow with ratio: {err} after {last_err}"
            );
            last_err = err;
        }
    }

    #[test]
    fn tasked_approx_is_close_anyway() {
        // fast_pow keeps a few good digits per term: ratio 0 stays within
        // ~1e-4 relative while skipping all the accurate multiply chains.
        let executor = Executor::new(2);
        let exact = reference(0.49, 12);
        let (y, stats) = tasked(0.49, 12, &executor, 0.0);
        assert_eq!(stats.accurate, 0);
        let rel = (y - exact).abs() / exact;
        assert!(rel > 0.0, "approximation should be visible");
        assert!(rel < 1e-3, "rel err {rel}");
    }

    #[test]
    fn perforated_drops_terms() {
        let exact = reference(0.49, 12);
        let (y_full, _) = perforated(0.49, 12, 1.0);
        assert_eq!(y_full, exact);
        let (y_half, stats) = perforated(0.49, 12, 0.5);
        assert!(y_half < exact); // positive terms dropped
        assert!(stats.accurate_ops > 0);
        let (y_none, _) = perforated(0.49, 12, 0.0);
        assert_eq!(y_none, 0.0);
    }

    #[test]
    fn tasked_beats_perforation_at_same_ratio() {
        // The headline comparison at the heart of Fig. 7, in miniature:
        // at equal accurate fractions, approximating (fast_powi) beats
        // dropping (perforation).
        let executor = Executor::new(2);
        let exact = reference(0.49, 16);
        for ratio in [0.0, 0.25, 0.5, 0.75] {
            let (y_sig, _) = tasked(0.49, 16, &executor, ratio);
            let (y_perf, _) = perforated(0.49, 16, ratio);
            let err_sig = (y_sig - exact).abs();
            let err_perf = (y_perf - exact).abs();
            assert!(
                err_sig <= err_perf,
                "ratio {ratio}: sig err {err_sig} vs perf err {err_perf}"
            );
        }
    }

    #[test]
    fn analysis_matches_fig3() {
        let report = analysis(0.49, 5).unwrap();
        assert!(report.significance_of("term0").unwrap() < 1e-12);
        let s: Vec<f64> = (1..5)
            .map(|i| report.significance_of(&format!("term{i}")).unwrap())
            .collect();
        assert!(s.windows(2).all(|w| w[0] > w[1]), "{s:?}");
    }
}
