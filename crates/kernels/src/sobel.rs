//! Sobel edge-detection filter (§4.1.1).
//!
//! The 3×3 convolutions are split into the paper's three computation
//! blocks:
//!
//! * **A** — the contributions with coefficients `±2` (the centre row of
//!   `Gx` and centre column of `Gy`);
//! * **B** — the `±1` corner contributions to the horizontal gradient;
//! * **C** — the `±1` corner contributions to the vertical gradient.
//!
//! Every part is a DC-free difference, so dropping one degrades edge
//! strength gracefully instead of fabricating edges on flat regions.
//!
//! The analysis finds A twice as significant as B/C, so the tasked
//! version pins A at significance 1.0 (always accurate) and gives B and C
//! significance 0.5; their approximate bodies drop the contribution. A
//! second task group combines the partial sums (`t = √(tx² + ty²)`,
//! clipped to `[0, 255]`) and always runs accurately.

use scorpio_core::{
    Analysis, AnalysisError, Ctx, ParallelAnalysis, Report, VarSignificances, DEFAULT_LANES,
};
use scorpio_interval::Interval;
use scorpio_quality::GrayImage;
use scorpio_runtime::perforation::Perforator;
use scorpio_runtime::{ExecutionStats, Executor, TaskGroup};

use crate::Kernel;

/// The three computation blocks of the decomposed convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    /// Coefficients ±2 (most significant).
    A,
    /// Coefficients ±1: corner contributions to the horizontal gradient.
    B,
    /// Coefficients ±1: corner contributions to the vertical gradient.
    C,
}

impl Part {
    /// All parts in significance order.
    pub fn all() -> [Part; 3] {
        [Part::A, Part::B, Part::C]
    }

    /// Task significance assigned per the analysis (§4.1.1): A forced
    /// accurate, B and C at 0.5.
    pub fn significance(self) -> f64 {
        match self {
            Part::A => 1.0,
            Part::B | Part::C => 0.5,
        }
    }
}

/// Horizontal and vertical partial contribution of one part at one pixel.
#[inline]
fn part_contribution(img: &GrayImage, x: usize, y: usize, part: Part) -> (f64, f64) {
    let (x, y) = (x as isize, y as isize);
    let p = |dx: isize, dy: isize| img.get_clamped(x + dx, y + dy);
    match part {
        // Gx centre row: +2·p(x+1,y) − 2·p(x−1,y); Gy centre column.
        Part::A => (
            2.0 * (p(1, 0) - p(-1, 0)),
            2.0 * (p(0, 1) - p(0, -1)),
        ),
        // Corner ±1 contributions to the horizontal gradient.
        Part::B => (
            p(1, -1) - p(-1, -1) + p(1, 1) - p(-1, 1),
            0.0,
        ),
        // Corner ±1 contributions to the vertical gradient.
        Part::C => (
            0.0,
            p(-1, 1) + p(1, 1) - p(-1, -1) - p(1, -1),
        ),
    }
}

/// Combines partial sums into the output pixel value.
#[inline]
fn combine(tx: f64, ty: f64) -> f64 {
    (tx * tx + ty * ty).sqrt().clamp(0.0, 255.0)
}

/// Sequential accurate Sobel filter.
///
/// ```
/// use scorpio_kernels::sobel;
/// use scorpio_quality::checkerboard;
/// let img = checkerboard(32, 32, 8);
/// let edges = sobel::reference(&img);
/// // Cell interiors are flat: zero response.
/// assert_eq!(edges.get(4, 4), 0.0);
/// // Cell boundaries respond strongly.
/// assert!(edges.get(8, 4) > 100.0);
/// ```
pub fn reference(img: &GrayImage) -> GrayImage {
    let _span = scorpio_obs::span("kernel.sobel.reference");
    let (w, h) = (img.width(), img.height());
    GrayImage::from_fn(w, h, |x, y| {
        let mut tx = 0.0;
        let mut ty = 0.0;
        for part in Part::all() {
            let (cx, cy) = part_contribution(img, x, y, part);
            tx += cx;
            ty += cy;
        }
        combine(tx, ty)
    })
}

/// Significance-driven task version.
///
/// Group 1: one task per (row, part); approximate bodies drop the part's
/// contribution. Group 2: one always-accurate combine task per row.
pub fn tasked(
    img: &GrayImage,
    executor: &Executor,
    ratio: f64,
) -> (GrayImage, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.sobel.tasked");
    let (w, h) = (img.width(), img.height());
    // Partial sums per part: (tx, ty) interleaved per pixel.
    let mut parts: Vec<Vec<f64>> = vec![vec![0.0; w * h * 2]; 3];

    let mut stats = {
        let [ref mut pa, ref mut pb, ref mut pc] = parts[..] else {
            unreachable!()
        };
        let mut group = TaskGroup::new("sobel-conv");
        for (part, buf) in [(Part::A, pa), (Part::B, pb), (Part::C, pc)] {
            for (y, row) in buf.chunks_mut(w * 2).enumerate() {
                group.spawn(
                    part.significance(),
                    move |ctx: &scorpio_runtime::TaskCtx| {
                        ctx.count_accurate_ops(4 * w as u64);
                        for x in 0..w {
                            let (cx, cy) = part_contribution(img, x, y, part);
                            row[2 * x] = cx;
                            row[2 * x + 1] = cy;
                        }
                    },
                    // Approximate version: drop the computation (§4.1.1).
                    Some(move |ctx: &scorpio_runtime::TaskCtx| {
                        ctx.count_approx_ops(1);
                    }),
                );
            }
        }
        group.taskwait(executor, ratio).1
    };

    // Second group: combine + clip, always accurate.
    let mut out = GrayImage::new(w, h);
    let combine_stats = {
        let (pa, rest) = parts.split_first().unwrap();
        let (pb, rest) = rest.split_first().unwrap();
        let pc = &rest[0];
        let mut group = TaskGroup::new("sobel-combine");
        for (y, out_row) in out.pixels_mut().chunks_mut(w).enumerate() {
            let base = y * w * 2;
            group.spawn_accurate(move |ctx: &scorpio_runtime::TaskCtx| {
                ctx.count_accurate_ops(4 * w as u64);
                for (x, out_px) in out_row.iter_mut().enumerate() {
                    let tx = pa[base + 2 * x] + pb[base + 2 * x] + pc[base + 2 * x];
                    let ty =
                        pa[base + 2 * x + 1] + pb[base + 2 * x + 1] + pc[base + 2 * x + 1];
                    *out_px = combine(tx, ty);
                }
            });
        }
        group.taskwait(executor, 1.0).1
    };
    stats.merge(&combine_stats);
    (out, stats)
}

/// Loop-perforated Sobel (§4.2): skips whole output rows; skipped rows
/// keep their zero initialisation.
pub fn perforated(img: &GrayImage, keep_fraction: f64) -> (GrayImage, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.sobel.perforated");
    let (w, h) = (img.width(), img.height());
    let perf = Perforator::new(h, keep_fraction);
    let mut out = GrayImage::new(w, h);
    let mut ops = 0u64;
    for y in 0..h {
        if !perf.keep(y) {
            continue;
        }
        ops += 16 * w as u64;
        for x in 0..w {
            let mut tx = 0.0;
            let mut ty = 0.0;
            for part in Part::all() {
                let (cx, cy) = part_contribution(img, x, y, part);
                tx += cx;
                ty += cy;
            }
            out.set(x, y, combine(tx, ty));
        }
    }
    (
        out,
        ExecutionStats {
            accurate_ops: ops,
            ..ExecutionStats::default()
        },
    )
}

/// Significance analysis of one output pixel over a 3×3 input window with
/// full pixel range `[0, 255]`, registering the per-part partial sums
/// (`Ax`, `Ay`, `Bx`, `By`, `Cx`, `Cy`) on the path to the clipped output
/// — the §4.1.1 analysis showing `S(A) = 2·S(B) = 2·S(C)`.
///
/// The magnitude is formed with `hypot` (whose interval partials are
/// bounded by `[-1, 1]`) rather than `sqrt(tx² + ty²)` (whose interval
/// derivative is unbounded at the origin of the full pixel range); the
/// two are pointwise identical.
///
/// # Errors
///
/// Propagates framework errors (none expected: branch-free via min/max
/// clipping).
pub fn analysis() -> Result<Report, AnalysisError> {
    let _span = scorpio_obs::span("kernel.sobel.analysis");
    Analysis::new().run(|ctx| {
        // The 3×3 neighbourhood as 9 independent inputs.
        let mut p = Vec::with_capacity(9);
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                p.push(ctx.input(format!("p[{dx},{dy}]"), 0.0, 255.0));
            }
        }
        let at = |dx: i32, dy: i32| p[((dy + 1) * 3 + (dx + 1)) as usize];

        // Part A: ±2 coefficients (centre row of Gx, centre column of Gy).
        let ax = (at(1, 0) - at(-1, 0)) * 2.0;
        ctx.intermediate(&ax, "Ax");
        let ay = (at(0, 1) - at(0, -1)) * 2.0;
        ctx.intermediate(&ay, "Ay");

        // Part B: corner ±1 contributions to the horizontal gradient.
        let bx = at(1, -1) - at(-1, -1) + at(1, 1) - at(-1, 1);
        ctx.intermediate(&bx, "Bx");

        // Part C: corner ±1 contributions to the vertical gradient.
        let cy = at(-1, 1) + at(1, 1) - at(-1, -1) - at(1, -1);
        ctx.intermediate(&cy, "Cy");

        // Combine: t = hypot(tx, ty), clipped to [0, 255] via min/max.
        let tx = ax + bx;
        let ty = ay + cy;
        let t = tx.hypot(ty);
        let hi = ctx.constant(255.0);
        let lo = ctx.constant(0.0);
        let out = t.min(hi).max(lo);
        ctx.output(&out, "pixel");
        Ok(())
    })
}

/// Significance analysis of the combine stage alone (§4.1.1's closing
/// observation): given partial sums `tx, ty` over their full ranges, the
/// output pixel's sensitivity is uniform across operating points — "the
/// computations which aggregate convolution results and produce output
/// pixels show little significance variance across all pixels".
///
/// Returns the raw significances of `tx` and `ty` at the `k`
/// [`Combine::windows`], in window order, lane-replayed over `threads`
/// workers of a [`ParallelAnalysis`] engine; the values are
/// bit-identical to a serial re-recording loop. The caller (and the
/// test below) checks their variance is small.
///
/// # Errors
///
/// Propagates the error of the lowest-indexed failing operating point.
///
/// # Panics
///
/// Panics if `k == 0` or `threads == 0`.
pub fn analysis_combine_threaded(
    k: usize,
    threads: usize,
) -> Result<Vec<(f64, f64)>, AnalysisError> {
    let raw = |vars: &VarSignificances, name: &str| vars.var(name).unwrap().significance_raw;
    Combine.batch::<DEFAULT_LANES, _>(
        &Combine::windows(k),
        &ParallelAnalysis::new(threads),
        |vars| (raw(vars, "tx"), raw(vars, "ty")),
    )
}

/// The analysis descriptor of the combine stage `t = hypot(tx, ty)`,
/// clipped to `[0, 255]`, with both partial sums boxed over one
/// [`Combine::WIDTH`]-wide window of the gradient range; an item is the
/// window's low end. Both inputs are boxes, so the trace shape is
/// window-independent.
#[derive(Debug, Clone, Copy)]
pub struct Combine;

impl Combine {
    /// Width of every operating window: half the full ±1020 gradient
    /// range.
    pub const WIDTH: f64 = 1020.0;

    /// Low ends of `k` windows sliding across the full ±1020 gradient
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn windows(k: usize) -> Vec<f64> {
        assert!(k > 0, "need at least one operating range");
        (0..k)
            .map(|i| -1020.0 + (i as f64 / k.max(2) as f64) * Combine::WIDTH)
            .collect()
    }
}

impl Kernel for Combine {
    type Item = f64;

    fn shape_key(&self) -> u64 {
        0
    }

    fn inputs(&self, &lo: &f64) -> Vec<Interval> {
        let window = Interval::new(lo, lo + Combine::WIDTH);
        vec![window, window]
    }

    fn register(&self, ctx: &Ctx<'_>, lo: &f64) -> Result<(), AnalysisError> {
        let boxes = self.inputs(lo);
        let tx = ctx.input("tx", boxes[0].inf(), boxes[0].sup());
        let ty = ctx.input("ty", boxes[1].inf(), boxes[1].sup());
        let t = tx.hypot(ty);
        let hi = ctx.constant(255.0);
        let zero = ctx.constant(0.0);
        let pixel = t.min(hi).max(zero);
        ctx.output(&pixel, "pixel");
        Ok(())
    }
}

/// Per-part significance: the summed significances of the part's
/// horizontal and vertical contributions from [`analysis`].
pub fn part_significance(report: &Report, part: Part) -> f64 {
    match part {
        Part::A => {
            report.significance_of("Ax").unwrap_or(0.0)
                + report.significance_of("Ay").unwrap_or(0.0)
        }
        Part::B => report.significance_of("Bx").unwrap_or(0.0),
        Part::C => report.significance_of("Cy").unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_quality::{checkerboard, psnr_images, value_noise};

    #[test]
    fn reference_detects_edges() {
        let img = checkerboard(48, 48, 12);
        let edges = reference(&img);
        assert_eq!(edges.get(6, 6), 0.0);
        assert!(edges.get(12, 6) > 50.0);
        // Output clipped to [0, 255].
        assert!(edges.pixels().iter().all(|&v| (0.0..=255.0).contains(&v)));
    }

    #[test]
    fn tasked_ratio_one_matches_reference() {
        let img = value_noise(40, 32, 5);
        let executor = Executor::new(4);
        let (out, stats) = tasked(&img, &executor, 1.0);
        let reference = reference(&img);
        assert_eq!(out, reference);
        // 3 parts × 32 rows + 32 combine tasks.
        assert_eq!(stats.accurate, 3 * 32 + 32);
    }

    #[test]
    fn tasked_ratio_zero_keeps_part_a() {
        // At ratio 0 only the forced A tasks (significance 1.0) run, so
        // the output is the A-only edge map: nonzero but degraded.
        let img = checkerboard(32, 32, 8);
        let executor = Executor::new(2);
        let (out, stats) = tasked(&img, &executor, 0.0);
        assert_eq!(stats.accurate, 32 + 32); // A rows + combine rows
        assert_eq!(stats.approximate, 64); // B and C rows approximated
        assert!(out.pixels().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn tasked_quality_monotone_in_ratio() {
        let img = value_noise(48, 48, 9);
        let executor = Executor::new(4);
        let reference = reference(&img);
        let mut last = -1.0;
        for ratio in [0.0, 0.4, 0.7, 1.0] {
            let (out, _) = tasked(&img, &executor, ratio);
            let p = psnr_images(&reference, &out);
            assert!(p >= last, "PSNR fell from {last} to {p} at ratio {ratio}");
            last = p;
        }
        assert_eq!(last, f64::INFINITY);
    }

    #[test]
    fn significance_beats_perforation_on_quality() {
        // The Fig. 7 Sobel relationship at matched accurate fractions.
        let img = checkerboard(64, 64, 16);
        let executor = Executor::new(4);
        let full = reference(&img);
        for ratio in [0.5, 0.8] {
            let (sig_out, _) = tasked(&img, &executor, ratio);
            let (perf_out, _) = perforated(&img, ratio);
            let psnr_sig = psnr_images(&full, &sig_out);
            let psnr_perf = psnr_images(&full, &perf_out);
            assert!(
                psnr_sig > psnr_perf,
                "ratio {ratio}: sig {psnr_sig} dB vs perf {psnr_perf} dB"
            );
        }
    }

    #[test]
    fn perforation_keeps_fraction_of_rows() {
        let img = value_noise(32, 40, 3);
        let (out, _) = perforated(&img, 0.5);
        let zero_rows = (0..40)
            .filter(|&y| (0..32).all(|x| out.get(x, y) == 0.0))
            .count();
        // Exactly half the rows skipped (some kept rows could be all-zero
        // on flat images; value noise isn't flat).
        assert_eq!(zero_rows, 20);
    }

    #[test]
    fn combine_stage_significance_is_uniform() {
        // §4.1.1: the aggregation stage shows little significance
        // variance across operating points → it is kept always-accurate
        // rather than partitioned further.
        let points = analysis_combine_threaded(5, 1).unwrap();
        let sx: Vec<f64> = points.iter().map(|p| p.0).collect();
        let mean = sx.iter().sum::<f64>() / sx.len() as f64;
        let var = sx.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / sx.len() as f64;
        let rel_spread = var.sqrt() / mean;
        assert!(
            rel_spread < 0.25,
            "combine significance varies too much: cv = {rel_spread}"
        );
    }

    #[test]
    fn analysis_ranks_a_twice_b_and_c() {
        let report = analysis().unwrap();
        let a = part_significance(&report, Part::A);
        let b = part_significance(&report, Part::B);
        let c = part_significance(&report, Part::C);
        assert!(a > 0.0);
        // A uses ±2 coefficients: twice the significance of B/C (§4.1.1).
        assert!((a / b - 2.0).abs() < 1e-6, "A/B = {}", a / b);
        assert!((a / c - 2.0).abs() < 1e-6, "A/C = {}", a / c);
        // B and C are symmetric.
        assert!((b / c - 1.0).abs() < 1e-9, "B/C = {}", b / c);
    }
}
