//! Input-range sweeps (§6 future work: "extending significance analysis
//! to a wider range of input intervals to accommodate the fact that code
//! significance is input-dependent for some benchmarks").
//!
//! [`sweep_input_scale`] re-runs one analysis with the declared input
//! ranges shrunk/expanded around their midpoints by a series of scale
//! factors, and [`RangeSweep::ranking_stability`] quantifies how stable
//! the resulting significance ranking is — the paper's "code
//! significance is input-dependent for some benchmarks" made measurable.

use scorpio_interval::Interval;

use crate::error::AnalysisError;
use crate::report::{Report, VarKind};
use crate::session::Analysis;

/// One sweep point: the scale factor applied to every input width and
/// the resulting report.
#[derive(Debug)]
pub struct SweepPoint {
    /// Input-width scale relative to the declared ranges (1.0 = as
    /// declared).
    pub scale: f64,
    /// The analysis report at this scale.
    pub report: Report,
}

/// The results of an input-range sweep.
#[derive(Debug)]
pub struct RangeSweep {
    /// One point per requested scale, in the given order.
    pub points: Vec<SweepPoint>,
}

impl RangeSweep {
    /// Normalized significance trajectory of one registered variable
    /// across the sweep (`None` if the variable is missing anywhere).
    pub fn trajectory(&self, name: &str) -> Option<Vec<f64>> {
        self.points
            .iter()
            .map(|p| p.report.significance_of(name))
            .collect()
    }

    /// Fraction of variable pairs whose significance order is identical
    /// at every sweep point (1.0 = the ranking never changes with input
    /// width). Only named intermediates take part; near-ties (within a
    /// 1e-9 relative tolerance — ULP noise from outward rounding) are
    /// compatible with either order.
    pub fn ranking_stability(&self) -> f64 {
        let names: Vec<&str> = match self.points.first() {
            Some(p) => p
                .report
                .registered_of(VarKind::Intermediate)
                .map(|v| v.name.as_str())
                .collect(),
            None => return 1.0,
        };
        // Three-valued pairwise order: Some(a > b), or None for a tie.
        let order = |p: &SweepPoint, i: usize, j: usize| -> Option<bool> {
            let a = p.report.significance_of(names[i]).unwrap_or(0.0);
            let b = p.report.significance_of(names[j]).unwrap_or(0.0);
            if (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) {
                None
            } else {
                Some(a > b)
            }
        };
        let mut stable = 0usize;
        let mut total = 0usize;
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                total += 1;
                let orders: Vec<bool> = self
                    .points
                    .iter()
                    .filter_map(|p| order(p, i, j))
                    .collect();
                if orders.windows(2).all(|w| w[0] == w[1]) {
                    stable += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            stable as f64 / total as f64
        }
    }
}

/// Re-runs `f` once per `scale`, multiplying every declared input width
/// by the scale (around the declared midpoint), with the sweep points
/// fanned over `threads` workers, one reusable tape arena per worker.
/// Reports are identical at every thread count (each point records and
/// differentiates the same trace wherever it runs) and come back in
/// scale order.
///
/// # Errors
///
/// Propagates the error of the lowest-indexed failing scale.
///
/// # Panics
///
/// Panics if any scale is negative or `threads == 0`.
///
/// # Examples
///
/// ```
/// use scorpio_core::sweep::sweep_input_scale;
/// use scorpio_core::Analysis;
///
/// let sweep = sweep_input_scale(&Analysis::new(), &[0.25, 0.5, 1.0], 1, |ctx| {
///     let x = ctx.input("x", 0.0, 1.0);
///     let a = x.sqr();
///     ctx.intermediate(&a, "a");
///     let b = x.powi(4);
///     ctx.intermediate(&b, "b");
///     let y = a + b;
///     ctx.output(&y, "y");
///     Ok(())
/// }).unwrap();
///
/// // a = x² dominates b = x⁴ on every sub-unit box: fully stable.
/// // (Scales > 1 would widen past [0, 1] and eventually flip it.)
/// assert_eq!(sweep.ranking_stability(), 1.0);
/// assert_eq!(sweep.trajectory("a").unwrap().len(), 3);
/// ```
pub fn sweep_input_scale<F>(
    analysis: &Analysis,
    scales: &[f64],
    threads: usize,
    f: F,
) -> Result<RangeSweep, AnalysisError>
where
    F: Fn(&crate::Ctx<'_>) -> Result<(), AnalysisError> + Sync,
{
    // Learn the declared ranges from a probe run.
    let declared = analysis.probe_inputs(&f)?;
    for &scale in scales {
        assert!(scale >= 0.0, "sweep_input_scale: negative scale {scale}");
    }
    // Sweep points share one trace shape (only the input boxes differ),
    // so each worker's first point records + compiles and the rest
    // replay; the driver falls back to re-recording per point for
    // branchy closures.
    let executor = scorpio_runtime::Executor::new(threads);
    let points = executor.map_with_state(
        scales,
        || {
            (
                crate::AnalysisArena::new(),
                crate::ReplayOrRecord::new(analysis.clone()),
            )
        },
        |(arena, driver), _, &scale| {
            let overrides = scaled_overrides(&declared, scale);
            driver
                .run_in(arena, &overrides, &f)
                .map(|report| SweepPoint { scale, report })
        },
    );
    let points = points.into_iter().collect::<Result<_, _>>()?;
    Ok(RangeSweep { points })
}

/// Override ranges for one sweep point: every declared input width
/// multiplied by `scale` around its midpoint.
fn scaled_overrides(declared: &[Interval], scale: f64) -> Vec<Interval> {
    declared
        .iter()
        .map(|iv| Interval::centered(iv.mid(), iv.rad() * scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_inputs_raise_raw_significance() {
        let sweep = sweep_input_scale(&Analysis::new(), &[0.25, 0.5, 1.0], 1, |ctx| {
            let x = ctx.input("x", 1.0, 2.0);
            let t = x.exp();
            ctx.intermediate(&t, "t");
            let y = t + x;
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        let raws: Vec<f64> = sweep
            .points
            .iter()
            .map(|p| p.report.var("t").unwrap().significance_raw)
            .collect();
        assert!(raws[0] < raws[1] && raws[1] < raws[2], "{raws:?}");
    }

    #[test]
    fn input_dependent_ranking_detected() {
        // a = 10x vs b = x² on x ∈ [−30, 30]: the linear term's
        // significance grows like the box radius r (S = 20r), the
        // square's like r² (S = r²), so the ranking flips at r = 20 —
        // exactly the input dependence the paper warns about.
        let sweep = sweep_input_scale(&Analysis::new(), &[0.2, 1.0], 1, |ctx| {
            let x = ctx.input("x", -30.0, 30.0);
            let a = x * 10.0;
            ctx.intermediate(&a, "a");
            let b = x.sqr();
            ctx.intermediate(&b, "b");
            let y = a + b;
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        assert!(sweep.ranking_stability() < 1.0);
        let a = sweep.trajectory("a").unwrap();
        let b = sweep.trajectory("b").unwrap();
        assert!(a[0] > b[0], "linear dominates on the narrow box: {a:?} {b:?}");
        assert!(b[1] > a[1], "square dominates on the wide box: {a:?} {b:?}");
    }

    #[test]
    fn zero_scale_gives_point_inputs() {
        let sweep = sweep_input_scale(&Analysis::new(), &[0.0], 1, |ctx| {
            let x = ctx.input("x", 0.0, 2.0);
            let y = x.sqr();
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        let x = sweep.points[0].report.var("x").unwrap();
        assert!(x.enclosure.is_point());
        assert!(x.significance_raw < 1e-12);
    }

    #[test]
    fn threaded_sweep_matches_serial() {
        let model = |ctx: &crate::Ctx<'_>| {
            let x = ctx.input("x", 0.0, 1.0);
            let a = x.sqr();
            ctx.intermediate(&a, "a");
            let b = x.powi(4);
            ctx.intermediate(&b, "b");
            let y = a + b;
            ctx.output(&y, "y");
            Ok(())
        };
        let scales: Vec<f64> = (1..=12).map(|i| i as f64 / 12.0).collect();
        let serial = sweep_input_scale(&Analysis::new(), &scales, 1, model).unwrap();
        for threads in [2, 4, 8] {
            let par = sweep_input_scale(&Analysis::new(), &scales, threads, model).unwrap();
            for (ps, pp) in serial.points.iter().zip(&par.points) {
                assert_eq!(ps.scale, pp.scale);
                for name in ["x", "a", "b", "y"] {
                    let a = ps.report.significance_of(name).unwrap();
                    let b = pp.report.significance_of(name).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "{name} diverged");
                }
            }
        }
    }

    #[test]
    fn replayed_sweep_matches_rerecorded_sweep_bitwise() {
        let model = |ctx: &crate::Ctx<'_>| {
            let x = ctx.input("x", 1.0, 2.0);
            let z = ctx.input("z", -1.0, 1.0);
            let t = x.exp() * z.sin();
            ctx.intermediate(&t, "t");
            let y = t + x;
            ctx.output(&y, "y");
            Ok(())
        };
        let analysis = Analysis::new();
        let scales: Vec<f64> = (0..10).map(|i| 0.1 + 0.1 * i as f64).collect();
        let sweep = sweep_input_scale(&analysis, &scales, 1, model).unwrap();
        // Reference: re-record every point through the pre-replay API.
        let declared = analysis.probe_inputs(&model).unwrap();
        let mut arena = crate::AnalysisArena::new();
        for point in &sweep.points {
            let overrides = scaled_overrides(&declared, point.scale);
            let (reference, _) = analysis
                .run_with_overrides_in(&mut arena, model, overrides)
                .unwrap();
            assert_eq!(point.report.tape_len(), reference.tape_len());
            for name in ["x", "z", "t", "y"] {
                assert_eq!(
                    point.report.significance_of(name).unwrap().to_bits(),
                    reference.significance_of(name).unwrap().to_bits(),
                    "{name} diverged at scale {}",
                    point.scale
                );
            }
        }
    }

    #[test]
    fn empty_names_are_stable() {
        let sweep = sweep_input_scale(&Analysis::new(), &[0.5, 1.0], 1, |ctx| {
            let x = ctx.input("x", 0.0, 1.0);
            let y = x.exp();
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        assert_eq!(sweep.ranking_stability(), 1.0);
    }
}
