//! Discrete Cosine Transform video-compression kernel (§4.1.2, Fig. 4).
//!
//! The pipeline is the JPEG-style chain the paper analyses: forward 8×8
//! DCT-II → quantisation → de-quantisation → inverse DCT. The analysis
//! reveals a significance variation at the level of individual frequency
//! coefficients: the DC coefficient (top-left) matters most and
//! significance "drops in a wave-like pattern towards the opposite
//! corner" along the zig-zag diagonals — matching image-compression
//! expert wisdom (Fig. 4).
//!
//! The tasked version therefore uses **15 tasks, one per coefficient
//! diagonal** (`u + v = d`), with significance decreasing in `d`; the
//! approximate body drops the diagonal's coefficients (sets them to 0 —
//! frequency truncation).

// Index loops below walk several parallel arrays at once; zipped
// iterators would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

pub mod codec;

use std::sync::OnceLock;

use scorpio_core::{
    Analysis, AnalysisArena, AnalysisError, Ctx, ParallelAnalysis, Report, VarSignificances,
};
use scorpio_interval::Interval;
use scorpio_quality::GrayImage;
use scorpio_runtime::perforation::Perforator;
use scorpio_runtime::{ExecutionStats, Executor, TaskGroup};

use crate::kernel::checked_radius;
use crate::{Kernel, NegativeRadius};

/// Block edge length of the transform.
pub const BLOCK: usize = 8;
/// Number of coefficient diagonals in an 8×8 block (`u + v ∈ 0..15`).
pub const DIAGONALS: usize = 2 * BLOCK - 1;

/// The JPEG luminance quantisation matrix (quality 50), the standard
/// weighting the paper's pipeline applies between DCT and IDCT.
pub const QUANT: [[f64; BLOCK]; BLOCK] = [
    [16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0],
    [12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0],
    [14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0],
    [14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0],
    [18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0],
    [24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0],
    [49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0],
    [72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0],
];

/// DCT-II basis factor `α(u)·cos((2x+1)uπ/16)/2`.
fn basis(u: usize, x: usize) -> f64 {
    let alpha = if u == 0 {
        (1.0f64 / BLOCK as f64).sqrt()
    } else {
        (2.0f64 / BLOCK as f64).sqrt()
    };
    alpha * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / (2 * BLOCK) as f64).cos()
}

/// The 64 [`basis`] factors, `table[u][x]`, computed on first use. Every
/// transform reads them from here: the values are the closed form's
/// bits, so the products (and their association) are unchanged.
fn basis_table() -> &'static [[f64; BLOCK]; BLOCK] {
    static TABLE: OnceLock<[[f64; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|u| std::array::from_fn(|x| basis(u, x))))
}

/// Forward DCT of one coefficient `(u, v)` of an 8×8 block — the
/// per-coefficient form the diagonal tasks need (64 multiply-adds).
pub fn forward_coefficient(block: &[[f64; BLOCK]; BLOCK], u: usize, v: usize) -> f64 {
    let b = basis_table();
    let mut acc = 0.0;
    for (y, row) in block.iter().enumerate() {
        for (x, &p) in row.iter().enumerate() {
            acc += p * b[v][y] * b[u][x];
        }
    }
    acc
}

/// Full forward DCT of a block (all 64 coefficients).
pub fn forward_block(block: &[[f64; BLOCK]; BLOCK]) -> [[f64; BLOCK]; BLOCK] {
    let mut coeffs = [[0.0; BLOCK]; BLOCK];
    for (v, row) in coeffs.iter_mut().enumerate() {
        for (u, c) in row.iter_mut().enumerate() {
            *c = forward_coefficient(block, u, v);
        }
    }
    coeffs
}

/// Quantise then dequantise (the lossy step of the codec chain).
pub fn quant_dequant(coeffs: &mut [[f64; BLOCK]; BLOCK]) {
    for (v, row) in coeffs.iter_mut().enumerate() {
        for (u, c) in row.iter_mut().enumerate() {
            let q = QUANT[v][u];
            *c = (*c / q).round() * q;
        }
    }
}

/// Inverse DCT of a block.
///
/// Zero coefficients are skipped (most quantised ones are zero), bit for
/// bit: a skipped term is `±0 · b · b = ±0`, the basis factors being
/// finite. Each sum starts at `+0`, and under round-to-nearest a sum is
/// `−0` only when both addends are `−0`, so a sum never becomes `−0`;
/// adding `±0` to anything but `−0` returns it unchanged. The remaining
/// terms are added in the dense order.
pub fn inverse_block(coeffs: &[[f64; BLOCK]; BLOCK]) -> [[f64; BLOCK]; BLOCK] {
    let b = basis_table();
    let mut terms = [(0, 0, 0.0); BLOCK * BLOCK];
    let mut len = 0;
    for (v, crow) in coeffs.iter().enumerate() {
        for (u, &c) in crow.iter().enumerate() {
            if c != 0.0 {
                terms[len] = (v, u, c);
                len += 1;
            }
        }
    }
    let mut out = [[0.0; BLOCK]; BLOCK];
    for (y, row) in out.iter_mut().enumerate() {
        for (x, p) in row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(v, u, c) in &terms[..len] {
                acc += c * b[v][y] * b[u][x];
            }
            *p = acc;
        }
    }
    out
}

/// Extracts the 8×8 block at block coordinates `(bx, by)`, with edge
/// clamping for images whose dimensions are not multiples of 8.
fn load_block(img: &GrayImage, bx: usize, by: usize) -> [[f64; BLOCK]; BLOCK] {
    let mut block = [[0.0; BLOCK]; BLOCK];
    for (y, row) in block.iter_mut().enumerate() {
        for (x, p) in row.iter_mut().enumerate() {
            *p = img.get_clamped((bx * BLOCK + x) as isize, (by * BLOCK + y) as isize);
        }
    }
    block
}

/// Stores a block into the image (ignoring out-of-range pixels).
fn store_block(img: &mut GrayImage, bx: usize, by: usize, block: &[[f64; BLOCK]; BLOCK]) {
    for (y, row) in block.iter().enumerate() {
        for (x, &p) in row.iter().enumerate() {
            let ix = bx * BLOCK + x;
            let iy = by * BLOCK + y;
            if ix < img.width() && iy < img.height() {
                img.set(ix, iy, p.clamp(0.0, 255.0));
            }
        }
    }
}

/// Sequential accurate encode-decode round trip: DCT → quantise →
/// dequantise → IDCT for every 8×8 block.
///
/// ```
/// use scorpio_kernels::dct;
/// use scorpio_quality::{gradient, psnr_images};
/// let img = gradient(32, 32);
/// let recon = dct::reference(&img);
/// // Smooth gradients survive quantisation almost perfectly.
/// assert!(psnr_images(&img, &recon) > 35.0);
/// ```
pub fn reference(img: &GrayImage) -> GrayImage {
    let _span = scorpio_obs::span("kernel.dct.reference");
    let (w, h) = (img.width(), img.height());
    let mut out = GrayImage::new(w, h);
    for by in 0..h.div_ceil(BLOCK) {
        for bx in 0..w.div_ceil(BLOCK) {
            let block = load_block(img, bx, by);
            let mut coeffs = forward_block(&block);
            quant_dequant(&mut coeffs);
            let recon = inverse_block(&coeffs);
            store_block(&mut out, bx, by, &recon);
        }
    }
    out
}

/// Task significance per diagonal, taken from the Fig. 4 wave pattern:
/// the DC diagonal is forced accurate, then significance falls linearly
/// with the diagonal index.
pub fn diagonal_significance(d: usize) -> f64 {
    if d == 0 {
        1.0
    } else {
        (DIAGONALS - d) as f64 / DIAGONALS as f64
    }
}

/// Significance-driven task version: 15 tasks, one per coefficient
/// diagonal, each computing its diagonal's coefficients for **all**
/// blocks (the paper's "15 tasks in total"); approximate bodies drop the
/// diagonal. Quantisation, dequantisation and the inverse transform run
/// accurately afterwards.
pub fn tasked(img: &GrayImage, executor: &Executor, ratio: f64) -> (GrayImage, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.dct.tasked");
    let (w, h) = (img.width(), img.height());
    let blocks_x = w.div_ceil(BLOCK);
    let blocks_y = h.div_ceil(BLOCK);
    let n_blocks = blocks_x * blocks_y;

    // Pre-extract pixel blocks (shared read-only input for the tasks).
    let inputs: Vec<[[f64; BLOCK]; BLOCK]> = (0..n_blocks)
        .map(|i| load_block(img, i % blocks_x, i / blocks_x))
        .collect();

    // Coefficient storage: per diagonal, a dense vector of
    // (block, u, v, value) entries — each diagonal task owns its slice.
    let diag_cells: Vec<Vec<(usize, usize)>> = (0..DIAGONALS)
        .map(|d| {
            (0..BLOCK)
                .flat_map(|v| (0..BLOCK).map(move |u| (u, v)))
                .filter(|&(u, v)| u + v == d)
                .collect()
        })
        .collect();
    let mut diag_values: Vec<Vec<f64>> = diag_cells
        .iter()
        .map(|cells| vec![0.0; cells.len() * n_blocks])
        .collect();

    let stats = {
        let mut group = TaskGroup::new("dct-diagonals");
        for (d, values) in diag_values.iter_mut().enumerate() {
            let cells = &diag_cells[d];
            let inputs = &inputs;
            group.spawn(
                diagonal_significance(d),
                move |ctx: &scorpio_runtime::TaskCtx| {
                    ctx.count_accurate_ops((cells.len() * n_blocks * 64) as u64);
                    for (b, input) in inputs.iter().enumerate() {
                        for (k, &(u, v)) in cells.iter().enumerate() {
                            values[b * cells.len() + k] = forward_coefficient(input, u, v);
                        }
                    }
                },
                // Approximate: drop the diagonal (frequency truncation).
                Some(move |ctx: &scorpio_runtime::TaskCtx| {
                    ctx.count_approx_ops(1);
                }),
            );
        }
        group.taskwait(executor, ratio).1
    };

    // Reassemble coefficients, quantise and decode (accurate epilogue,
    // counted as accurate work).
    let mut out = GrayImage::new(w, h);
    let mut epilogue_ops = 0u64;
    for b in 0..n_blocks {
        let mut coeffs = [[0.0; BLOCK]; BLOCK];
        for (d, cells) in diag_cells.iter().enumerate() {
            for (k, &(u, v)) in cells.iter().enumerate() {
                coeffs[v][u] = diag_values[d][b * cells.len() + k];
            }
        }
        quant_dequant(&mut coeffs);
        let recon = inverse_block(&coeffs);
        store_block(&mut out, b % blocks_x, b / blocks_x, &recon);
        epilogue_ops += 64 * 64 + 64;
    }
    let mut stats = stats;
    stats.accurate_ops += epilogue_ops;
    (out, stats)
}

/// Loop-perforated DCT (§4.2): perforates the double-nested coefficient
/// loop of each block, skipping a fraction of the 64 coefficients
/// (in raster order — perforation is structure-blind, which is exactly
/// why it loses to the significance-ranked diagonals).
pub fn perforated(img: &GrayImage, keep_fraction: f64) -> (GrayImage, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.dct.perforated");
    let (w, h) = (img.width(), img.height());
    let perf = Perforator::new(BLOCK * BLOCK, keep_fraction);
    let mut out = GrayImage::new(w, h);
    let mut ops = 0u64;
    for by in 0..h.div_ceil(BLOCK) {
        for bx in 0..w.div_ceil(BLOCK) {
            let block = load_block(img, bx, by);
            let mut coeffs = [[0.0; BLOCK]; BLOCK];
            for v in 0..BLOCK {
                for u in 0..BLOCK {
                    if perf.keep(v * BLOCK + u) {
                        coeffs[v][u] = forward_coefficient(&block, u, v);
                        ops += 64;
                    }
                }
            }
            quant_dequant(&mut coeffs);
            let recon = inverse_block(&coeffs);
            store_block(&mut out, bx, by, &recon);
            ops += 64 * 64 + 64;
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

/// The significance-analysis descriptor of the full per-block pipeline
/// (§4.1.2), profile-driven as in the paper: the 64 pixel inputs are
/// boxed around a concrete image block (`block[y][x] ± radius`, clamped
/// to `[0, 255]`; the paper registers ranges around profiled values from
/// its benchmark image set), every frequency coefficient is registered
/// as an intermediate, and all 64 reconstructed (clipped) pixels are
/// outputs. [`coefficient_map`] reshapes a run's rows into the Fig. 4
/// 8×8 significance map.
///
/// Because Eq. 11 weighs a variable's *enclosure* against its effect on
/// the output, coefficient significance tracks the block's spectral
/// magnitude profile — for natural-image-like content that is exactly
/// the zig-zag decay image-compression experts expect (Fig. 4).
///
/// Quantisation is modelled by its smooth surrogate `c/Q·Q` (the `round`
/// step function has zero derivative almost everywhere, which would
/// erase the analysis' signal); pixel clipping is expressed with min/max
/// so no ambiguous control flow arises. All 64 pixels are input boxes,
/// so the trace shape is block-independent.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    radius: f64,
}

impl Pipeline {
    /// The pipeline with per-pixel box radius `radius`.
    ///
    /// # Errors
    ///
    /// [`NegativeRadius`] if `radius` is negative (or NaN).
    pub fn new(radius: f64) -> Result<Pipeline, NegativeRadius> {
        checked_radius(radius).map(|radius| Pipeline { radius })
    }
}

/// [`Pipeline::new`] for the library entry points that document a
/// panic on a negative radius.
fn pipeline(radius: f64) -> Pipeline {
    Pipeline::new(radius).unwrap_or_else(|e| panic!("dct analysis: {e}"))
}

impl Kernel for Pipeline {
    type Item = [[f64; BLOCK]; BLOCK];

    fn shape_key(&self) -> u64 {
        0
    }

    fn inputs(&self, block: &[[f64; BLOCK]; BLOCK]) -> Vec<Interval> {
        let mut inputs = Vec::with_capacity(BLOCK * BLOCK);
        for row in block {
            for &p0 in row {
                let lo = (p0 - self.radius).max(0.0);
                let hi = (p0 + self.radius).min(255.0);
                inputs.push(Interval::new(lo, hi.max(lo)));
            }
        }
        inputs
    }

    fn register(&self, ctx: &Ctx<'_>, block: &[[f64; BLOCK]; BLOCK]) -> Result<(), AnalysisError> {
        let pixels: Vec<_> = self
            .inputs(block)
            .iter()
            .enumerate()
            .map(|(i, b)| ctx.input(format!("p{}_{}", i / BLOCK, i % BLOCK), b.inf(), b.sup()))
            .collect();

        // Forward DCT, registering every coefficient.
        let b = basis_table();
        let mut coeffs = Vec::with_capacity(BLOCK * BLOCK);
        for v in 0..BLOCK {
            for u in 0..BLOCK {
                let mut acc = ctx.constant(0.0);
                for y in 0..BLOCK {
                    for x in 0..BLOCK {
                        acc = acc + pixels[y * BLOCK + x] * (b[v][y] * b[u][x]);
                    }
                }
                // Quant/dequant surrogate: scale down and back up.
                let c = (acc / QUANT[v][u]) * QUANT[v][u];
                ctx.intermediate(&c, format!("c{v}_{u}"));
                coeffs.push(c);
            }
        }

        // Inverse DCT + clip; all pixels registered as outputs (§2.3
        // vector-function treatment).
        let lo = ctx.constant(0.0);
        let hi = ctx.constant(255.0);
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let mut acc = ctx.constant(0.0);
                for v in 0..BLOCK {
                    for u in 0..BLOCK {
                        acc = acc + coeffs[v * BLOCK + u] * (b[v][y] * b[u][x]);
                    }
                }
                let px = acc.min(hi).max(lo);
                ctx.output(&px, format!("out{y}_{x}"));
            }
        }
        Ok(())
    }
}

/// The full [`Pipeline`] report of one block, recorded into a reusable
/// arena.
///
/// # Errors
///
/// Propagates framework errors (none expected).
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn analysis_in(
    arena: &mut AnalysisArena,
    block: &[[f64; BLOCK]; BLOCK],
    radius: f64,
) -> Result<Report, AnalysisError> {
    let kernel = pipeline(radius);
    Analysis::new().run_in(arena, |ctx| kernel.register(ctx, block))
}

/// The Fig. 4 coefficient maps of every block, in block order:
/// [`Pipeline`] lane-replayed `LANES` blocks per walk of the ~25k-op
/// compiled trace over `engine`'s workers, bit-identical to a serial
/// per-block re-recording loop for every width.
///
/// # Errors
///
/// Propagates the error of the lowest-indexed failing block.
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn analysis_blocks_lanes<const LANES: usize>(
    blocks: &[[[f64; BLOCK]; BLOCK]],
    radius: f64,
    engine: &ParallelAnalysis,
) -> Result<Vec<[[f64; BLOCK]; BLOCK]>, AnalysisError> {
    let _span = scorpio_obs::span("kernel.dct.analysis_blocks");
    pipeline(radius).batch::<LANES, _>(blocks, engine, coefficient_map)
}

/// The input boxes of [`register_block`] ([`Pipeline`]'s).
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn block_inputs(block: &[[f64; BLOCK]; BLOCK], radius: f64) -> Vec<Interval> {
    pipeline(radius).inputs(block)
}

/// Records the full per-block pipeline ([`Pipeline`]'s registration).
///
/// # Errors
///
/// Propagates framework errors (none expected).
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn register_block(
    ctx: &Ctx<'_>,
    block: &[[f64; BLOCK]; BLOCK],
    radius: f64,
) -> Result<(), AnalysisError> {
    pipeline(radius).register(ctx, block)
}

/// A natural-image-like test block (smooth diagonal shading with a soft
/// feature), standing in for the paper's benchmark image set.
pub fn natural_test_block() -> [[f64; BLOCK]; BLOCK] {
    let mut block = [[0.0; BLOCK]; BLOCK];
    for (y, row) in block.iter_mut().enumerate() {
        for (x, p) in row.iter_mut().enumerate() {
            let dx = x as f64 - 3.0;
            let dy = y as f64 - 4.0;
            let feature = 60.0 * (-(dx * dx + dy * dy) / 10.0).exp();
            *p = (40.0 + 18.0 * x as f64 + 9.0 * y as f64 + feature).min(255.0);
        }
    }
    block
}

/// The [`Pipeline`] report of [`natural_test_block`] at the
/// pixel-noise radius the figure harness uses.
///
/// # Errors
///
/// Propagates framework errors (none expected).
pub fn analysis_default() -> Result<Report, AnalysisError> {
    let _span = scorpio_obs::span("kernel.dct.analysis");
    pipeline(8.0).report(&natural_test_block())
}

/// The 8×8 coefficient-significance map of Fig. 4 (`map[v][u]`) from
/// the rows of a [`Pipeline`] run.
pub fn coefficient_map(vars: &VarSignificances) -> [[f64; BLOCK]; BLOCK] {
    let mut map = [[0.0; BLOCK]; BLOCK];
    for (v, row) in map.iter_mut().enumerate() {
        for (u, s) in row.iter_mut().enumerate() {
            *s = vars
                .significance_of(&format!("c{v}_{u}"))
                .unwrap_or(f64::NAN);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_quality::{gradient, psnr_images, value_noise};

    #[test]
    fn basis_table_is_the_closed_form_bit_for_bit() {
        let table = basis_table();
        for u in 0..BLOCK {
            let alpha = if u == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            for x in 0..BLOCK {
                let want =
                    alpha * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos();
                assert_eq!(table[u][x].to_bits(), want.to_bits(), "basis({u}, {x})");
            }
        }
    }

    /// The dense inverse [`inverse_block`] replaced: every term summed.
    fn inverse_block_dense(coeffs: &[[f64; BLOCK]; BLOCK]) -> [[f64; BLOCK]; BLOCK] {
        let b = basis_table();
        let mut out = [[0.0; BLOCK]; BLOCK];
        for (y, row) in out.iter_mut().enumerate() {
            for (x, p) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (v, crow) in coeffs.iter().enumerate() {
                    for (u, &c) in crow.iter().enumerate() {
                        acc += c * b[v][y] * b[u][x];
                    }
                }
                *p = acc;
            }
        }
        out
    }

    #[test]
    fn sparse_inverse_matches_the_dense_sum_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1d_c7);
        for case in 0..400 {
            // Quantised blocks of random images, then blocks with `±0`
            // and mostly-zero coefficients, and one with a NaN.
            let mut coeffs = [[0.0; BLOCK]; BLOCK];
            for (v, row) in coeffs.iter_mut().enumerate() {
                for (u, c) in row.iter_mut().enumerate() {
                    *c = match case % 4 {
                        0 | 1 => rng.gen_range(0.0..255.0),
                        2 => [0.0, -0.0, 0.0, -0.0, rng.gen_range(-50.0..50.0)]
                            [rng.gen_range(0..5usize)],
                        _ => {
                            QUANT[v][u] * [-1.0, -0.0, 0.0, 0.0, 0.0, 1.0][rng.gen_range(0..6usize)]
                        }
                    };
                }
            }
            if case % 4 < 2 {
                coeffs = forward_block(&coeffs);
                quant_dequant(&mut coeffs);
            }
            if case == 399 {
                coeffs[3][5] = f64::NAN;
            }
            let (sparse, dense) = (inverse_block(&coeffs), inverse_block_dense(&coeffs));
            for (s, d) in sparse.iter().flatten().zip(dense.iter().flatten()) {
                assert_eq!(s.to_bits(), d.to_bits(), "case {case}: {coeffs:?}");
            }
        }
    }

    #[test]
    fn dct_roundtrip_without_quantisation_is_exact() {
        let block = [[128.0; BLOCK]; BLOCK];
        let coeffs = forward_block(&block);
        // Flat block: only DC is nonzero.
        assert!((coeffs[0][0] - 8.0 * 128.0).abs() < 1e-9);
        for v in 0..BLOCK {
            for u in 0..BLOCK {
                if (u, v) != (0, 0) {
                    assert!(coeffs[v][u].abs() < 1e-9, "c[{v}][{u}]");
                }
            }
        }
        let recon = inverse_block(&coeffs);
        for row in &recon {
            for &p in row {
                assert!((p - 128.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dct_is_orthonormal() {
        // Random block → forward → inverse reproduces the input.
        let mut block = [[0.0; BLOCK]; BLOCK];
        for (y, row) in block.iter_mut().enumerate() {
            for (x, p) in row.iter_mut().enumerate() {
                *p = ((x * 31 + y * 17) % 256) as f64;
            }
        }
        let recon = inverse_block(&forward_block(&block));
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                assert!((recon[y][x] - block[y][x]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reference_reconstruction_quality_reasonable() {
        let img = value_noise(32, 32, 11);
        let recon = reference(&img);
        let p = psnr_images(&img, &recon);
        assert!(p > 25.0, "round-trip PSNR {p}");
    }

    #[test]
    fn tasked_ratio_one_matches_reference() {
        let img = gradient(24, 16);
        let executor = Executor::new(4);
        let (out, stats) = tasked(&img, &executor, 1.0);
        assert_eq!(out, reference(&img));
        assert_eq!(stats.accurate, DIAGONALS);
    }

    #[test]
    fn tasked_quality_monotone_in_ratio() {
        let img = value_noise(32, 32, 4);
        let executor = Executor::new(4);
        let full = reference(&img);
        let mut last = -1.0;
        for ratio in [0.1, 0.4, 0.7, 1.0] {
            let (out, _) = tasked(&img, &executor, ratio);
            let p = psnr_images(&full, &out);
            assert!(
                p >= last - 0.5,
                "PSNR fell from {last} to {p} at ratio {ratio}"
            );
            last = p;
        }
    }

    #[test]
    fn dc_diagonal_survives_ratio_zero() {
        // Significance 1.0 forces the DC task: even at ratio 0 the output
        // preserves block averages.
        let img = gradient(16, 16);
        let executor = Executor::new(2);
        let (out, _) = tasked(&img, &executor, 0.0);
        // Mean of the output approximates the mean of the input.
        let mean_in: f64 = img.pixels().iter().sum::<f64>() / img.pixels().len() as f64;
        let mean_out: f64 = out.pixels().iter().sum::<f64>() / out.pixels().len() as f64;
        assert!((mean_in - mean_out).abs() < 10.0);
    }

    #[test]
    fn significance_beats_perforation_on_quality() {
        // Fig. 7 DCT: the significance version wins by ~11 dB on average
        // because perforation drops raster-order (including low-frequency)
        // coefficients while the diagonal tasks drop high frequencies.
        let img = value_noise(48, 48, 21);
        let executor = Executor::new(4);
        let full = reference(&img);
        for ratio in [0.2, 0.5, 0.8] {
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
    fn diagonal_significance_monotone() {
        for d in 1..DIAGONALS {
            assert!(diagonal_significance(d) <= diagonal_significance(d - 1));
        }
        assert_eq!(diagonal_significance(0), 1.0);
    }

    #[test]
    fn analysis_reproduces_fig4_wave() {
        let report = analysis_default().unwrap();
        let map = coefficient_map(&report);
        // DC is the most significant coefficient.
        let dc = map[0][0];
        for (v, row) in map.iter().enumerate() {
            for (u, &s) in row.iter().enumerate() {
                assert!(s.is_finite());
                if (u, v) != (0, 0) {
                    assert!(s <= dc, "c[{v}][{u}] = {s} exceeds DC {dc}");
                }
            }
        }
        // Wave pattern: mean significance per diagonal decreases.
        let mut diag_means = Vec::new();
        for d in 0..DIAGONALS {
            let cells: Vec<f64> = (0..BLOCK)
                .flat_map(|v| (0..BLOCK).map(move |u| (u, v)))
                .filter(|&(u, v)| u + v == d)
                .map(|(u, v)| map[v][u])
                .collect();
            diag_means.push(cells.iter().sum::<f64>() / cells.len() as f64);
        }
        for d in 1..DIAGONALS {
            assert!(
                diag_means[d] <= diag_means[d - 1] * 1.05 + 1e-12,
                "diagonal means not wave-decreasing: {diag_means:?}"
            );
        }
        // And strictly decreasing overall (first vs last).
        assert!(diag_means[0] > diag_means[DIAGONALS - 1]);
    }
}
