//! Fisheye lens image correction (§4.1.3, Fig. 5–6).
//!
//! Two kernels, as in the paper:
//!
//! * **InverseMapping** — maps integer coordinates of the corrected
//!   output image to real-valued coordinates in the distorted fisheye
//!   input. The lens model is radially expansive towards the border
//!   (`r_d = f·tan(R/f)`): the fisheye image magnifies peripheral
//!   content, so correcting it pushes border coordinates outward — which
//!   is why the paper finds border pixels' coordinate computations "more
//!   sensitive to imprecision" (Fig. 5).
//! * **BicubicInterp** — Catmull-Rom bicubic interpolation on the 4×4
//!   pixel window around the mapped point.
//!
//! The analysis shows border pixels' coordinate computations are more
//! significant than central ones (Fig. 5), and that of the 4×4 window the
//! inner 2×2 pixel pairs dominate (Fig. 6). The tasked version exploits
//! both: per-block significance grows with distance from the image
//! centre, and the approximate task body computes the mapping only at
//! block corners (bilinear coordinate interpolation inside) and samples
//! with 2×2 bilinear interpolation — the transitive-significance argument
//! of §4.1.3.

use std::hash::{DefaultHasher, Hash, Hasher};

use scorpio_core::{
    Analysis, AnalysisArena, AnalysisError, Ctx, ParallelAnalysis, Report, VarSignificances,
};
use scorpio_interval::Interval;
use scorpio_quality::GrayImage;
use scorpio_runtime::perforation::Perforator;
use scorpio_runtime::{ExecutionStats, Executor, TaskGroup};

use crate::Kernel;

/// Lens/geometry parameters of the correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lens {
    /// Output (and input) image width in pixels.
    pub width: usize,
    /// Output (and input) image height in pixels.
    pub height: usize,
    /// Focal length in pixels.
    pub focal: f64,
}

impl Lens {
    /// A lens whose field of view keeps the whole image inside the
    /// model's validity range (`R_max/focal < π/2`, with margin).
    pub fn for_image(width: usize, height: usize) -> Lens {
        let r_max = (width as f64 / 2.0).hypot(height as f64 / 2.0);
        Lens {
            width,
            height,
            focal: r_max / 1.2,
        }
    }

    /// Largest valid normalized radius `R/focal` (kept clear of the tan
    /// pole at π/2).
    pub const MAX_Q: f64 = 1.45;

    /// Image centre.
    #[inline]
    pub fn center(&self) -> (f64, f64) {
        (self.width as f64 / 2.0, self.height as f64 / 2.0)
    }
}

/// The InverseMapping kernel: output pixel `(u, v)` → real-valued
/// coordinates in the distorted image, radial scale `s = tan(q)/q` with
/// `q = R/focal` (clamped below the tan pole).
///
/// ```
/// use scorpio_kernels::fisheye::{inverse_mapping, Lens};
/// let lens = Lens::for_image(128, 96);
/// // The centre maps to itself.
/// let (x, y) = inverse_mapping(&lens, 64.0, 48.0);
/// assert!((x - 64.0).abs() < 1e-9 && (y - 48.0).abs() < 1e-9);
/// // Border points are pushed outward (the fisheye magnified them).
/// let (x, _) = inverse_mapping(&lens, 120.0, 48.0);
/// assert!(x > 120.0);
/// ```
pub fn inverse_mapping(lens: &Lens, u: f64, v: f64) -> (f64, f64) {
    let (cx, cy) = lens.center();
    let dx = u - cx;
    let dy = v - cy;
    let big_r = dx.hypot(dy);
    if big_r < 1e-12 {
        return (u, v);
    }
    let q = (big_r / lens.focal).min(Lens::MAX_Q);
    let s = q.tan() / q;
    (cx + dx * s, cy + dy * s)
}

/// The forward mapping — the exact inverse of [`inverse_mapping`]:
/// distorted-image coordinates back to corrected-output coordinates
/// (radial scale `atan(q)/q`). Used to *synthesise* distorted test
/// inputs from a ground-truth perspective image, enabling end-to-end
/// round-trip validation.
///
/// ```
/// use scorpio_kernels::fisheye::{forward_mapping, inverse_mapping, Lens};
/// let lens = Lens::for_image(128, 96);
/// let (xd, yd) = inverse_mapping(&lens, 100.0, 70.0);
/// let (u, v) = forward_mapping(&lens, xd, yd);
/// assert!((u - 100.0).abs() < 1e-9 && (v - 70.0).abs() < 1e-9);
/// ```
pub fn forward_mapping(lens: &Lens, xd: f64, yd: f64) -> (f64, f64) {
    let (cx, cy) = lens.center();
    let dx = xd - cx;
    let dy = yd - cy;
    let r = dx.hypot(dy);
    if r < 1e-12 {
        return (xd, yd);
    }
    let q = (r / lens.focal).atan();
    let s = q / (r / lens.focal);
    (cx + dx * s, cy + dy * s)
}

/// Renders the distorted (fisheye) view of a perspective ground-truth
/// image: each distorted pixel samples the ground truth at its
/// forward-mapped position (bicubic).
pub fn distort(ground_truth: &GrayImage, lens: &Lens) -> GrayImage {
    GrayImage::from_fn(lens.width, lens.height, |x, y| {
        let (u, v) = forward_mapping(lens, x as f64, y as f64);
        bicubic(ground_truth, u, v)
    })
}

/// Catmull-Rom weights for the four samples at offsets −1, 0, 1, 2.
#[inline]
fn catmull_rom(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    [
        0.5 * (-t3 + 2.0 * t2 - t),
        0.5 * (3.0 * t3 - 5.0 * t2 + 2.0),
        0.5 * (-3.0 * t3 + 4.0 * t2 + t),
        0.5 * (t3 - t2),
    ]
}

/// The BicubicInterp kernel: Catmull-Rom interpolation of the input at
/// real coordinates `(x, y)`, clamped at borders, result clipped to
/// `[0, 255]`.
pub fn bicubic(img: &GrayImage, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let wx = catmull_rom(x - x0);
    let wy = catmull_rom(y - y0);
    let mut acc = 0.0;
    for (j, wyj) in wy.iter().enumerate() {
        for (i, wxi) in wx.iter().enumerate() {
            let px = img.get_clamped(x0 as isize + i as isize - 1, y0 as isize + j as isize - 1);
            acc += wxi * wyj * px;
        }
    }
    acc.clamp(0.0, 255.0)
}

/// Bilinear interpolation on the inner 2×2 window — the approximate
/// sampling justified by Fig. 6 (the two central pixel pairs carry most
/// of the significance).
pub fn bilinear(img: &GrayImage, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let tx = x - x0;
    let ty = y - y0;
    let p = |i: isize, j: isize| img.get_clamped(x0 as isize + i, y0 as isize + j);
    let v = p(0, 0) * (1.0 - tx) * (1.0 - ty)
        + p(1, 0) * tx * (1.0 - ty)
        + p(0, 1) * (1.0 - tx) * ty
        + p(1, 1) * tx * ty;
    v.clamp(0.0, 255.0)
}

/// Sequential accurate correction: per output pixel, InverseMapping then
/// BicubicInterp.
pub fn reference(img: &GrayImage, lens: &Lens) -> GrayImage {
    let _span = scorpio_obs::span("kernel.fisheye.reference");
    GrayImage::from_fn(lens.width, lens.height, |x, y| {
        let (xd, yd) = inverse_mapping(lens, x as f64, y as f64);
        bicubic(img, xd, yd)
    })
}

/// Block significance: normalized distance of the block centre from the
/// image centre — border blocks are most significant (Fig. 5).
pub fn block_significance(lens: &Lens, bx0: usize, by0: usize, bw: usize, bh: usize) -> f64 {
    let (cx, cy) = lens.center();
    let mx = bx0 as f64 + bw as f64 / 2.0;
    let my = by0 as f64 + bh as f64 / 2.0;
    let d = (mx - cx).hypot(my - cy);
    let dmax = cx.hypot(cy);
    (d / dmax).clamp(0.0, 0.99)
}

/// Significance-driven task version with the paper's 128×64 output
/// blocks.
pub fn tasked(
    img: &GrayImage,
    lens: &Lens,
    executor: &Executor,
    ratio: f64,
) -> (GrayImage, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.fisheye.tasked");
    tasked_with_blocks(img, lens, executor, ratio, 128, 64)
}

/// [`tasked`] with an explicit block size (tests use small blocks).
pub fn tasked_with_blocks(
    img: &GrayImage,
    lens: &Lens,
    executor: &Executor,
    ratio: f64,
    block_w: usize,
    block_h: usize,
) -> (GrayImage, ExecutionStats) {
    let (w, h) = (lens.width, lens.height);
    // Output blocks `(x0, y0, width, height)`, band by band, left to
    // right; each task returns its block's pixels row by row.
    let blocks: Vec<(usize, usize, usize, usize)> = (0..h)
        .step_by(block_h)
        .flat_map(|y0| {
            (0..w)
                .step_by(block_w)
                .map(move |x0| (x0, y0, block_w.min(w - x0), block_h.min(h - y0)))
        })
        .collect();

    let mut group = TaskGroup::new("fisheye");
    for &(x0, y0, bw, bh) in &blocks {
        group.spawn(
            block_significance(lens, x0, y0, bw, bh),
            move |ctx: &scorpio_runtime::TaskCtx| {
                ctx.count_accurate_ops((bw * bh * 20) as u64);
                (y0..y0 + bh)
                    .flat_map(|y| {
                        (x0..x0 + bw).map(move |x| {
                            let (xd, yd) = inverse_mapping(lens, x as f64, y as f64);
                            bicubic(img, xd, yd)
                        })
                    })
                    .collect::<Vec<f64>>()
            },
            Some(move |ctx: &scorpio_runtime::TaskCtx| {
                ctx.count_approx_ops((bw * bh * 5) as u64);
                // InverseMapping only at the four block corners...
                let bh_f = (bh.max(2) - 1) as f64;
                let bw_f = (bw.max(2) - 1) as f64;
                let c00 = inverse_mapping(lens, x0 as f64, y0 as f64);
                let c10 = inverse_mapping(lens, (x0 as f64) + bw_f, y0 as f64);
                let c01 = inverse_mapping(lens, x0 as f64, (y0 as f64) + bh_f);
                let c11 = inverse_mapping(lens, (x0 as f64) + bw_f, (y0 as f64) + bh_f);
                (0..bh)
                    .flat_map(|j| {
                        let ty = if bh > 1 { j as f64 / bh_f } else { 0.0 };
                        (0..bw).map(move |i| {
                            let tx = if bw > 1 { i as f64 / bw_f } else { 0.0 };
                            // ...bilinear interpolation of the coordinates...
                            let xd = (1.0 - ty) * ((1.0 - tx) * c00.0 + tx * c10.0)
                                + ty * ((1.0 - tx) * c01.0 + tx * c11.0);
                            let yd = (1.0 - ty) * ((1.0 - tx) * c00.1 + tx * c10.1)
                                + ty * ((1.0 - tx) * c01.1 + tx * c11.1);
                            // ...and 2×2 bilinear sampling (Fig. 6 pairs c/e).
                            bilinear(img, xd, yd)
                        })
                    })
                    .collect()
            }),
        );
    }
    let (pixels, stats) = group.taskwait(executor, ratio);

    let mut out = GrayImage::new(w, h);
    for (&(x0, y0, bw, _), block) in blocks.iter().zip(&pixels) {
        for (j, row) in block.chunks(bw).enumerate() {
            let start = (y0 + j) * w + x0;
            out.pixels_mut()[start..start + bw].copy_from_slice(row);
        }
    }
    (out, stats)
}

/// Loop-perforated version (§4.2): drops a fraction of the output rows,
/// "similarly to Sobel".
pub fn perforated(img: &GrayImage, lens: &Lens, keep_fraction: f64) -> (GrayImage, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.fisheye.perforated");
    let (w, h) = (lens.width, lens.height);
    let perf = Perforator::new(h, keep_fraction);
    let mut out = GrayImage::new(w, h);
    let mut ops = 0u64;
    for y in 0..h {
        if !perf.keep(y) {
            continue;
        }
        ops += (w * 20) as u64;
        for x in 0..w {
            let (xd, yd) = inverse_mapping(lens, x as f64, y as f64);
            out.set(x, y, bicubic(img, xd, yd));
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

/// Significance analysis of the InverseMapping kernel at output pixel
/// `(u, v) ± 0.5` (Fig. 5): inputs are the pixel coordinates, outputs the
/// distorted coordinates. Returns the **raw** summed significance, which
/// is comparable across pixels (normalisation would divide by a
/// per-pixel output scale).
///
/// The radial scale is evaluated through the series
/// `tan(q)/q = 1 + q²/3 + 2q⁴/15 + 17q⁶/315 + 62q⁸/2835` in `q² =
/// (dx² + dy²)/f²` — the "special interval algorithm" remedy of §2.2:
/// the naive `r/R` form divides two strongly correlated intervals and
/// its decorrelation error near the image centre would swamp the true
/// radial sensitivity pattern. The series contains no division by `R`
/// at all.
///
/// # Errors
///
/// Propagates framework errors (the series form is branch-free and
/// total).
pub fn analysis_inverse_mapping(lens: &Lens, u: f64, v: f64) -> Result<f64, AnalysisError> {
    let report = InverseMapping { lens: *lens }.report(&(u, v))?;
    Ok(summed_input_significance(&report))
}

/// [`analysis_inverse_mapping`] recording into a reusable arena.
/// Produces exactly the same value as the fresh-tape variant.
///
/// # Errors
///
/// Propagates framework errors, as [`analysis_inverse_mapping`].
pub fn analysis_inverse_mapping_in(
    arena: &mut AnalysisArena,
    lens: &Lens,
    u: f64,
    v: f64,
) -> Result<f64, AnalysisError> {
    let kernel = InverseMapping { lens: *lens };
    let report = Analysis::new().run_in(arena, |ctx| kernel.register(ctx, &(u, v)))?;
    Ok(summed_input_significance(&report))
}

/// The Fig. 5 per-pixel significance map: one InverseMapping analysis
/// per cell of a `grid_w × grid_h` grid of pixel centres, lane-replayed
/// `LANES` pixels per walk of the compiled trace over `engine`'s
/// workers. Returns raw summed significances in row-major order,
/// bit-identical to a serial per-pixel re-recording loop for every
/// width.
///
/// # Errors
///
/// Propagates the error of the lowest-indexed failing pixel.
pub fn analysis_inverse_mapping_grid_lanes<const LANES: usize>(
    lens: &Lens,
    grid_w: usize,
    grid_h: usize,
    engine: &ParallelAnalysis,
) -> Result<Vec<f64>, AnalysisError> {
    let _span = scorpio_obs::span("kernel.fisheye.analysis_grid");
    let cell_w = lens.width as f64 / grid_w as f64;
    let cell_h = lens.height as f64 / grid_h as f64;
    let pixels: Vec<(f64, f64)> = (0..grid_h)
        .flat_map(|gy| {
            (0..grid_w).map(move |gx| {
                ((gx as f64 + 0.5) * cell_w, (gy as f64 + 0.5) * cell_h)
            })
        })
        .collect();
    InverseMapping { lens: *lens }.batch::<LANES, _>(&pixels, engine, summed_input_significance)
}

/// The InverseMapping analysis descriptor over pixels `(u, v)` of one
/// lens (see [`analysis_inverse_mapping`] for the modelling rationale).
/// The lens focal length and centre are trace constants — only the two
/// centred pixel coordinates are input boxes — so the shape key hashes
/// the lens.
#[derive(Debug, Clone, Copy)]
pub struct InverseMapping {
    /// The lens whose correction is analysed.
    pub lens: Lens,
}

impl Kernel for InverseMapping {
    type Item = (f64, f64);

    fn shape_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        (self.lens.width, self.lens.height, self.lens.focal.to_bits()).hash(&mut h);
        h.finish()
    }

    /// The pixel coordinates measured from the image centre, `± 0.5`:
    /// Eq. 11 weighs a variable's magnitude, so an arbitrary top-left
    /// origin would skew the map towards large absolute coordinates
    /// instead of the radial pattern.
    fn inputs(&self, &(u, v): &(f64, f64)) -> Vec<Interval> {
        let (cx, cy) = self.lens.center();
        vec![
            Interval::centered(u - cx, 0.5),
            Interval::centered(v - cy, 0.5),
        ]
    }

    fn register(&self, ctx: &Ctx<'_>, pixel: &(f64, f64)) -> Result<(), AnalysisError> {
        let boxes = self.inputs(pixel);
        let focal = self.lens.focal;
        let dx = ctx.input("u", boxes[0].inf(), boxes[0].sup());
        let dy = ctx.input("v", boxes[1].inf(), boxes[1].sup());
        let q2 = (dx.sqr() + dy.sqr()) * (1.0 / (focal * focal));
        let q4 = q2.sqr();
        let q6 = q4 * q2;
        let q8 = q4.sqr();
        let s = 1.0 + q2 * (1.0 / 3.0)
            + q4 * (2.0 / 15.0)
            + q6 * (17.0 / 315.0)
            + q8 * (62.0 / 2835.0);
        // Outputs are the *centred* distorted coordinates: the +centre
        // translation is an exact constant whose inclusion would skew
        // Eq. 11's magnitude product towards large absolute coordinates
        // (bottom-right of the image) and mask the radial symmetry.
        let xd = dx * s;
        let yd = dy * s;
        ctx.output(&xd, "xd");
        ctx.output(&yd, "yd");
        Ok(())
    }
}

/// The input boxes of [`register_inverse_mapping`] ([`InverseMapping`]'s).
pub fn inverse_mapping_inputs(lens: &Lens, u: f64, v: f64) -> Vec<Interval> {
    InverseMapping { lens: *lens }.inputs(&(u, v))
}

/// Records the InverseMapping computation at pixel `(u, v)`
/// ([`InverseMapping`]'s registration).
///
/// # Errors
///
/// Propagates framework errors (the series form is branch-free).
pub fn register_inverse_mapping(
    ctx: &Ctx<'_>,
    lens: &Lens,
    u: f64,
    v: f64,
) -> Result<(), AnalysisError> {
    InverseMapping { lens: *lens }.register(ctx, &(u, v))
}

/// Raw summed significance of the two coordinate inputs.
fn summed_input_significance(vars: &VarSignificances) -> f64 {
    let sx = vars.var("u").map(|r| r.significance_raw).unwrap_or(0.0);
    let sy = vars.var("v").map(|r| r.significance_raw).unwrap_or(0.0);
    sx + sy
}

/// Significance analysis of BicubicInterp (Fig. 6): 16 window pixels in
/// `[0, 255]` plus interpolation coordinates `(tx, ty) ∈ [0, 1]²` (the
/// grey central cell of Fig. 6i); returns the 4×4 per-pixel normalized
/// significance map.
///
/// # Errors
///
/// Propagates framework errors (none expected; the weights are
/// polynomials).
pub fn analysis_bicubic() -> Result<(Report, [[f64; 4]; 4]), AnalysisError> {
    let report = Analysis::new().run(|ctx| {
        let tx = ctx.input("tx", 0.0, 1.0);
        let ty = ctx.input("ty", 0.0, 1.0);
        let mut pixels = Vec::with_capacity(16);
        for j in 0..4 {
            for i in 0..4 {
                pixels.push(ctx.input(format!("p{j}_{i}"), 0.0, 255.0));
            }
        }

        // Catmull-Rom weight vectors as recorded polynomials.
        fn weights<'t>(t: scorpio_core::Ia1s<'t>) -> [scorpio_core::Ia1s<'t>; 4] {
            let t2 = t.sqr();
            let t3 = t2 * t;
            [
                (t2 * 2.0 - t3 - t) * 0.5,
                (t3 * 3.0 - t2 * 5.0 + 2.0) * 0.5,
                (t2 * 4.0 - t3 * 3.0 + t) * 0.5,
                (t3 - t2) * 0.5,
            ]
        }
        let wx = weights(tx);
        let wy = weights(ty);

        let mut acc = ctx.constant(0.0);
        for j in 0..4 {
            for i in 0..4 {
                let contrib = pixels[j * 4 + i] * wx[i] * wy[j];
                ctx.intermediate(&contrib, format!("w{j}_{i}"));
                acc = acc + contrib;
            }
        }
        let lo = ctx.constant(0.0);
        let hi = ctx.constant(255.0);
        let out = acc.min(hi).max(lo);
        ctx.output(&out, "pixel");
        Ok(())
    })?;

    let mut map = [[0.0; 4]; 4];
    for (j, row) in map.iter_mut().enumerate() {
        for (i, s) in row.iter_mut().enumerate() {
            *s = report
                .significance_of(&format!("w{j}_{i}"))
                .unwrap_or(f64::NAN);
        }
    }
    Ok((report, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_core::DEFAULT_LANES;
    use scorpio_quality::{psnr_images, value_noise};

    fn lens() -> Lens {
        Lens::for_image(96, 64)
    }

    #[test]
    fn inverse_mapping_geometry() {
        let lens = lens();
        let (cx, cy) = lens.center();
        // Centre is a fixed point.
        let (x, y) = inverse_mapping(&lens, cx, cy);
        assert!((x - cx).abs() < 1e-9 && (y - cy).abs() < 1e-9);
        // Radial monotone expansion: farther out → pushed further outward.
        let (x1, _) = inverse_mapping(&lens, cx + 10.0, cy);
        let (x2, _) = inverse_mapping(&lens, cx + 40.0, cy);
        assert!(x1 - (cx + 10.0) < x2 - (cx + 40.0));
        assert!(x1 >= cx + 10.0);
        // Rotational symmetry.
        let (xa, ya) = inverse_mapping(&lens, cx + 15.0, cy);
        let (xb, yb) = inverse_mapping(&lens, cx, cy + 15.0);
        assert!((xa - cx - (yb - cy)).abs() < 1e-9);
        assert!((ya - cy - (xb - cx)).abs() < 1e-9);
    }

    #[test]
    fn catmull_rom_partition_of_unity() {
        for t in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let w = catmull_rom(t);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "at {t}");
        }
        // Interpolation property: t = 0 selects sample 0 exactly.
        assert_eq!(catmull_rom(0.0), [0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn bicubic_reproduces_constants_and_linears() {
        let flat = GrayImage::from_fn(16, 16, |_, _| 77.0);
        assert!((bicubic(&flat, 7.3, 8.6) - 77.0).abs() < 1e-9);
        let linear = GrayImage::from_fn(16, 16, |x, _| x as f64);
        assert!((bicubic(&linear, 7.25, 8.0) - 7.25).abs() < 1e-9);
    }

    #[test]
    fn bilinear_matches_bicubic_on_linear_images() {
        let linear = GrayImage::from_fn(16, 16, |x, y| (x + y) as f64);
        assert!((bilinear(&linear, 5.5, 6.5) - bicubic(&linear, 5.5, 6.5)).abs() < 1e-9);
    }

    #[test]
    fn tasked_ratio_one_matches_reference() {
        let lens = lens();
        let img = value_noise(96, 64, 17);
        let executor = Executor::new(4);
        let (out, stats) = tasked_with_blocks(&img, &lens, &executor, 1.0, 24, 16);
        assert_eq!(out, reference(&img, &lens));
        assert_eq!(stats.accurate, 4 * 4);
    }

    #[test]
    fn tasked_quality_monotone_in_ratio() {
        let lens = lens();
        let img = value_noise(96, 64, 23);
        let executor = Executor::new(4);
        let full = reference(&img, &lens);
        let mut last = -1.0;
        for ratio in [0.0, 0.3, 0.6, 1.0] {
            let (out, _) = tasked_with_blocks(&img, &lens, &executor, ratio, 24, 16);
            let p = psnr_images(&full, &out);
            assert!(p >= last - 0.75, "PSNR fell from {last} to {p} at {ratio}");
            last = p;
        }
        assert_eq!(last, f64::INFINITY);
    }

    #[test]
    fn significance_beats_perforation_on_quality() {
        let lens = lens();
        let img = value_noise(96, 64, 29);
        let executor = Executor::new(4);
        let full = reference(&img, &lens);
        for ratio in [0.2, 0.5, 0.8] {
            let (sig_out, _) = tasked_with_blocks(&img, &lens, &executor, ratio, 24, 16);
            let (perf_out, _) = perforated(&img, &lens, ratio);
            let psnr_sig = psnr_images(&full, &sig_out);
            let psnr_perf = psnr_images(&full, &perf_out);
            assert!(
                psnr_sig > psnr_perf,
                "ratio {ratio}: sig {psnr_sig} vs perf {psnr_perf}"
            );
        }
    }

    #[test]
    fn analysis_fig5_border_beats_center() {
        let lens = lens();
        let (cx, cy) = lens.center();
        let center = analysis_inverse_mapping(&lens, cx + 3.0, cy + 2.0).unwrap();
        let border = analysis_inverse_mapping(&lens, 2.0, 2.0).unwrap();
        assert!(
            border > center,
            "border {border} must exceed centre {center}"
        );
    }

    #[test]
    fn analysis_fig6_inner_pairs_dominate() {
        let (_, map) = analysis_bicubic().unwrap();
        // Inner 2×2 (indices 1..=2) vs the outer ring.
        let inner: f64 = (1..3)
            .flat_map(|j| (1..3).map(move |i| (i, j)))
            .map(|(i, j)| map[j][i])
            .sum();
        let outer: f64 = (0..4)
            .flat_map(|j| (0..4).map(move |i| (i, j)))
            .filter(|&(i, j)| !(1..3).contains(&i) || !(1..3).contains(&j))
            .map(|(i, j)| map[j][i])
            .sum();
        assert!(
            inner > outer,
            "inner 2×2 total {inner} must dominate outer ring {outer}"
        );
        // Symmetry of the pairs (Fig. 6 groups mirrored pixels).
        assert!((map[1][1] - map[1][2]).abs() / map[1][1] < 0.05);
    }

    #[test]
    fn replayed_grid_matches_fresh_recording_bitwise() {
        let lens = lens();
        let (grid_w, grid_h) = (6, 4);
        let engine = ParallelAnalysis::new(1);
        let sigs =
            analysis_inverse_mapping_grid_lanes::<DEFAULT_LANES>(&lens, grid_w, grid_h, &engine)
                .unwrap();
        assert_eq!(sigs.len(), grid_w * grid_h);
        let cell_w = lens.width as f64 / grid_w as f64;
        let cell_h = lens.height as f64 / grid_h as f64;
        for (k, &s) in sigs.iter().enumerate() {
            let u = ((k % grid_w) as f64 + 0.5) * cell_w;
            let v = ((k / grid_w) as f64 + 0.5) * cell_h;
            let fresh = analysis_inverse_mapping(&lens, u, v).unwrap();
            assert_eq!(s.to_bits(), fresh.to_bits(), "pixel ({u}, {v}) diverged");
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let lens = lens();
        for (u, v) in [(10.0, 10.0), (48.0, 32.0), (80.0, 50.0), (95.0, 5.0)] {
            let (xd, yd) = inverse_mapping(&lens, u, v);
            let (u2, v2) = forward_mapping(&lens, xd, yd);
            assert!((u - u2).abs() < 1e-9 && (v - v2).abs() < 1e-9, "at ({u},{v})");
        }
    }

    #[test]
    fn correction_recovers_ground_truth() {
        // End to end: synthesise the distorted view of a smooth ground
        // truth, correct it, and compare against the ground truth on the
        // interior (borders lose information to clamping).
        let lens = Lens::for_image(96, 96);
        let truth = scorpio_quality::gaussian_blobs(96, 96, 3);
        let distorted = distort(&truth, &lens);
        let corrected = reference(&distorted, &lens);

        let mut se = 0.0;
        let mut n = 0usize;
        for y in 24..72 {
            for x in 24..72 {
                let d = corrected.get(x, y) - truth.get(x, y);
                se += d * d;
                n += 1;
            }
        }
        let interior_psnr = 10.0 * (255.0 * 255.0 / (se / n as f64)).log10();
        assert!(
            interior_psnr > 30.0,
            "interior PSNR after round trip: {interior_psnr:.1} dB"
        );
    }

    #[test]
    fn block_significance_radial() {
        let lens = lens();
        let center_block = block_significance(&lens, 40, 24, 16, 16);
        let corner_block = block_significance(&lens, 0, 0, 16, 16);
        assert!(corner_block > center_block);
        assert!(corner_block < 1.0); // never forced
    }
}
