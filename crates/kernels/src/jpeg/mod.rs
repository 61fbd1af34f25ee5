//! End-to-end approximate grayscale JPEG encoder — the first scenario
//! whose output artifact (a decodable image) a human can look at.
//!
//! The pipeline extends [`crate::dct`] from per-block round trips
//! to a complete codec: 8×8 tiling with edge padding → level shift →
//! forward DCT → quantisation → zig-zag run-length symbols
//! ([`crate::dct::codec`]) → canonical [`huffman`] entropy
//! coding into a real bitstream. Bitrate is therefore measured in
//! actual bits, and [`decode`] reconstructs a viewable image from the
//! bytes alone.
//!
//! The approximation is the paper's `approxfun` pairing at block
//! granularity: every block is a [`TaskGroup`] task whose **accurate**
//! body runs the exact [`dct::forward_block`] and whose **approximate**
//! body runs the shift/add [`bindct`] lifting transform. Per-block
//! significance comes from the framework's own analysis
//! ([`dct::Pipeline`] — all blocks share one tape shape, so the
//! trace is recorded once and replayed per block), and the
//! `taskwait(ratio)` / `taskwait_adaptive` knobs choose which blocks
//! get the exact transform. Busy blocks score high and are protected
//! first; flat blocks degrade gracefully under BinDCT (its DC constant
//! is near-exact by design, see [`bindct`]).

use std::sync::Mutex;

use scorpio_core::{AnalysisError, ParallelAnalysis, DEFAULT_LANES};
use scorpio_quality::GrayImage;
use scorpio_runtime::controller::adaptive::AdaptiveController;
use scorpio_runtime::{ExecutionStats, Executor, TaskCtx, TaskGroup};

use crate::dct::{self, codec, BLOCK};

pub mod bindct;
pub mod huffman;

use huffman::{BitReader, BitWriter, HuffmanTable};

/// Work units of one exact forward DCT block (64 coefficients × 64
/// multiply-adds), the accurate-body cost the energy model prices.
pub const REALDCT_OPS_PER_BLOCK: u64 = 64 * 64;

/// Upper bound on normalised block significance, kept strictly below
/// 1.0: significance exactly 1.0 forces accurate execution in
/// [`TaskGroup::taskwait`], which would make `ratio = 0` unable to
/// select the all-BinDCT operating point.
pub const SIGNIFICANCE_CEILING: f64 = 31.0 / 32.0;

/// Container magic of the encoded stream (not JFIF — the scenario's
/// human-viewable artifact is the round-tripped `.pgm`, the container
/// only needs to be self-describing).
pub const MAGIC: [u8; 4] = *b"SJPG";
/// Container format version.
pub const VERSION: u8 = 1;

/// Pixel cap for [`decode`] (2^26 ≈ 67 MP) so a malformed header
/// cannot request an absurd allocation.
const MAX_PIXELS: u64 = 1 << 26;

/// Error of the codec's fallible entry points.
#[derive(Debug)]
pub enum JpegError {
    /// The significance analysis failed.
    Analysis(AnalysisError),
    /// The encoded stream is malformed or truncated.
    Malformed(String),
}

impl std::fmt::Display for JpegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JpegError::Analysis(e) => write!(f, "significance analysis failed: {e}"),
            JpegError::Malformed(msg) => write!(f, "malformed jpeg stream: {msg}"),
        }
    }
}

impl std::error::Error for JpegError {}

impl From<AnalysisError> for JpegError {
    fn from(e: AnalysisError) -> Self {
        JpegError::Analysis(e)
    }
}

/// Options of the one-call [`encode`] entry point.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// The `taskwait` quality knob: fraction of blocks guaranteed the
    /// exact DCT (chosen by significance, descending).
    pub ratio: f64,
    /// Pixel-noise radius of the significance analysis (the paper's
    /// profiled input ranges).
    pub radius: f64,
    /// Worker threads for both task execution and analysis replay.
    pub threads: usize,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            ratio: 1.0,
            radius: 8.0,
            threads: 1,
        }
    }
}

/// An encoded image: the container bytes plus the run's telemetry.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The complete container (header + Huffman table + bitstream).
    pub bytes: Vec<u8>,
    /// Source image width in pixels.
    pub width: usize,
    /// Source image height in pixels.
    pub height: usize,
    /// Entropy-coded payload length in bits (excluding the container
    /// header and table).
    pub payload_bits: u64,
    /// Task-execution statistics of the transform stage plus the
    /// accurately-counted codec epilogue.
    pub stats: ExecutionStats,
    /// The normalised per-block significance used for scheduling.
    pub significance: Vec<f64>,
}

impl Encoded {
    /// Total encoded size in bits (the whole container).
    pub fn bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Bits per source pixel — the bitrate axis of the QoR curves.
    pub fn bits_per_pixel(&self) -> f64 {
        self.bits() as f64 / (self.width * self.height) as f64
    }

    /// Number of blocks transformed with the exact DCT.
    pub fn accurate_blocks(&self) -> usize {
        self.stats.accurate
    }

    /// Number of blocks transformed with BinDCT.
    pub fn approx_blocks(&self) -> usize {
        self.stats.approximate
    }
}

/// Extracts the image's 8×8 blocks in row-major block order, with edge
/// clamping for dimensions that are not multiples of 8 (same padding as
/// the [`dct`] kernel).
pub fn tile_blocks(img: &GrayImage) -> Vec<[[f64; BLOCK]; BLOCK]> {
    let blocks_x = img.width().div_ceil(BLOCK);
    let blocks_y = img.height().div_ceil(BLOCK);
    let mut blocks = Vec::with_capacity(blocks_x * blocks_y);
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            let mut block = [[0.0; BLOCK]; BLOCK];
            for (y, row) in block.iter_mut().enumerate() {
                for (x, p) in row.iter_mut().enumerate() {
                    *p = img.get_clamped((bx * BLOCK + x) as isize, (by * BLOCK + y) as isize);
                }
            }
            blocks.push(block);
        }
    }
    blocks
}

/// Per-block significance scores from the framework's own analysis,
/// normalised into `[0, `[`SIGNIFICANCE_CEILING`]`]`.
///
/// Each block runs the full [`dct::Pipeline`] analysis — all blocks
/// share one tape shape, so `engine` records the ~25k-node trace once
/// and replays it per block. A block's score is first-order
/// error propagation through its map: each **AC** coefficient's
/// significance (DC is near-exact under BinDCT and would flatten the
/// ranking) weighted by the post-quantisation damage BinDCT would
/// actually do to this block's content — the squared dequantised gap
/// between the exact and the BinDCT coefficient's quantisation levels.
/// The map's significance is normalised per coefficient across the
/// image first: the raw Fig. 4 profile weights low frequencies heavily,
/// but BinDCT's error lives in the high-frequency AC band, so it is the
/// map's *spatial* (per-block) signal that must drive the ranking, not
/// its frequency profile. Scores are then scaled by the image-wide
/// maximum: blocks whose significant coefficients BinDCT visibly
/// perturbs rank highest; blocks where the perturbation quantises away
/// keep only a small expected-damage tie-break score.
///
/// # Errors
///
/// Propagates analysis failures of the lowest-indexed failing block.
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn analyze(
    img: &GrayImage,
    radius: f64,
    engine: &ParallelAnalysis,
) -> Result<Vec<f64>, AnalysisError> {
    let _span = scorpio_obs::span("kernel.jpeg.analyze");
    let blocks = tile_blocks(img);
    let maps = dct::analysis_blocks_lanes::<DEFAULT_LANES>(&blocks, radius, engine)?;
    // Image-wide mean significance per coefficient, the normaliser that
    // strips the map's frequency profile.
    let mut mean = [[0.0f64; BLOCK]; BLOCK];
    let mut count = [[0usize; BLOCK]; BLOCK];
    for map in &maps {
        for (v, row) in map.iter().enumerate() {
            for (u, &s) in row.iter().enumerate() {
                if s.is_finite() {
                    mean[v][u] += s;
                    count[v][u] += 1;
                }
            }
        }
    }
    for (v, row) in mean.iter_mut().enumerate() {
        for (u, m) in row.iter_mut().enumerate() {
            *m = if count[v][u] > 0 {
                *m / count[v][u] as f64
            } else {
                0.0
            };
        }
    }
    let scores: Vec<f64> = maps
        .iter()
        .zip(&blocks)
        .map(|(map, block)| {
            // The damage BinDCT does to *this* block, measured on the
            // level-shifted pixels the encoder actually transforms.
            let mut shifted = *block;
            for row in &mut shifted {
                for p in row {
                    *p -= 128.0;
                }
            }
            let exact = dct::forward_block(&shifted);
            let approx = bindct::forward_block_bin(&shifted);
            let mut sum = 0.0;
            for (v, row) in map.iter().enumerate() {
                for (u, &s) in row.iter().enumerate() {
                    if (u, v) != (0, 0) && s.is_finite() {
                        let q = dct::QUANT[v][u];
                        let gap = ((exact[v][u] / q).round() - (approx[v][u] / q).round()) * q;
                        let delta = (exact[v][u] - approx[v][u]).abs();
                        let weight = if mean[v][u] > 0.0 { s / mean[v][u] } else { 1.0 };
                        // Measured flip damage ranks first; the small
                        // q·δ term is the *expected* damage under a
                        // uniform-phase model (flip probability δ/q ×
                        // squared step q²) and orders the zero-flip
                        // blocks, strictly below any real flip.
                        sum += weight * (gap * gap + 1e-3 * q * delta);
                    }
                }
            }
            sum
        })
        .collect();
    let max = scores.iter().cloned().fold(0.0f64, f64::max);
    if !(max.is_finite() && max > 0.0) {
        // Degenerate image (e.g. fully flat): every block is equally
        // expendable.
        return Ok(vec![0.5 * SIGNIFICANCE_CEILING; scores.len()]);
    }
    Ok(scores
        .iter()
        .map(|&s| (s / max * SIGNIFICANCE_CEILING).clamp(0.0, SIGNIFICANCE_CEILING))
        .collect())
}

/// How the transform task group is synchronised.
enum Waiter<'c> {
    /// Constant `taskwait ratio(r)`.
    Ratio(f64),
    /// One step of the closed loop: the controller commands the ratio
    /// and the achieved schedule is recorded back.
    Adaptive(&'c mut AdaptiveController),
}

/// The shared encode core: transform blocks under the given scheduling
/// policy, then quantise, run-length and entropy-code accurately.
fn encode_core(
    img: &GrayImage,
    executor: &Executor,
    significance: &[f64],
    waiter: Waiter<'_>,
) -> Encoded {
    let _span = scorpio_obs::span("kernel.jpeg.encode");
    let (w, h) = (img.width(), img.height());
    let blocks = tile_blocks(img);
    let n_blocks = blocks.len();
    assert_eq!(
        significance.len(),
        n_blocks,
        "significance length {} does not match {n_blocks} blocks",
        significance.len()
    );

    // Level shift: JPEG transforms pixels centred on zero.
    let shifted: Vec<[[f64; BLOCK]; BLOCK]> = blocks
        .iter()
        .map(|b| {
            let mut s = *b;
            for row in &mut s {
                for p in row {
                    *p -= 128.0;
                }
            }
            s
        })
        .collect();

    // Per-block coefficient slots. Both task bodies of a block need
    // write access to the same slot, but only one of them ever runs —
    // an uncontended mutex per block expresses that to the borrow
    // checker without unsafe code.
    let slots: Vec<Mutex<[[f64; BLOCK]; BLOCK]>> = (0..n_blocks)
        .map(|_| Mutex::new([[0.0; BLOCK]; BLOCK]))
        .collect();

    let mut stats = {
        let mut group = TaskGroup::new("jpeg-blocks");
        for (i, block) in shifted.iter().enumerate() {
            let slot = &slots[i];
            group.spawn(
                significance[i],
                move |ctx: &TaskCtx| {
                    ctx.count_accurate_ops(REALDCT_OPS_PER_BLOCK);
                    *slot.lock().unwrap() = dct::forward_block(block);
                },
                Some(move |ctx: &TaskCtx| {
                    ctx.count_approx_ops(bindct::BINDCT_OPS_PER_BLOCK);
                    *slot.lock().unwrap() = bindct::forward_block_bin(block);
                }),
            );
        }
        match waiter {
            Waiter::Ratio(ratio) => group.taskwait(executor, ratio),
            Waiter::Adaptive(controller) => group.taskwait_adaptive(executor, controller),
        }
    };

    // Accurate codec epilogue: quantise + zig-zag run-length per block,
    // then entropy-code the shared symbol stream.
    let mut block_symbols = Vec::with_capacity(n_blocks);
    let mut total_symbols = 0u64;
    for slot in slots {
        let coeffs = slot.into_inner().unwrap();
        let symbols = codec::encode_block(&coeffs);
        total_symbols += symbols.len() as u64;
        block_symbols.push(symbols);
    }
    let all: Vec<codec::Symbol> = block_symbols.iter().flatten().copied().collect();
    let table = HuffmanTable::from_symbols(&all);
    let mut writer = BitWriter::new();
    for symbols in &block_symbols {
        huffman::encode_block_bits(symbols, &table, &mut writer);
    }
    let payload_bits = writer.bit_len();
    // Quantise/scan (2×64 per block) plus one unit per emitted symbol.
    stats.accurate_ops += n_blocks as u64 * 128 + total_symbols;

    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.extend_from_slice(&(w as u32).to_le_bytes());
    bytes.extend_from_slice(&(h as u32).to_le_bytes());
    table.serialize_into(&mut bytes);
    bytes.extend_from_slice(&writer.finish());

    scorpio_obs::count("jpeg.blocks", n_blocks as u64);
    scorpio_obs::count("jpeg.payload_bits", payload_bits);

    Encoded {
        bytes,
        width: w,
        height: h,
        payload_bits,
        stats,
        significance: significance.to_vec(),
    }
}

/// One-call encode: analyses significance, schedules the block
/// transforms at `opts.ratio`, and entropy-codes the result.
///
/// ```
/// use scorpio_kernels::jpeg;
/// use scorpio_quality::{psnr_images, value_noise};
///
/// let img = value_noise(24, 16, 7);
/// let enc = jpeg::encode(&img, &jpeg::EncodeOptions::default()).unwrap();
/// let back = jpeg::decode(&enc.bytes).unwrap();
/// assert_eq!((back.width(), back.height()), (24, 16));
/// // Full-ratio encode is plain (quantisation-lossy) JPEG quality.
/// assert!(psnr_images(&img, &back) > 20.0);
/// assert!(enc.bits() > 0);
/// ```
///
/// # Errors
///
/// Propagates significance-analysis failures.
///
/// # Panics
///
/// Panics if `opts.ratio` is outside `[0, 1]`, `opts.radius` is
/// negative, or `opts.threads` is zero.
pub fn encode(img: &GrayImage, opts: &EncodeOptions) -> Result<Encoded, JpegError> {
    let engine = ParallelAnalysis::new(opts.threads);
    let significance = analyze(img, opts.radius, &engine)?;
    let executor = Executor::new(opts.threads);
    Ok(encode_with_significance(
        img,
        &executor,
        &significance,
        opts.ratio,
    ))
}

/// Encodes with precomputed per-block significance — the entry point
/// for ratio sweeps, which analyse once and encode many times.
///
/// # Panics
///
/// Panics if `significance.len()` does not match the image's block
/// count or `ratio` is outside `[0, 1]`.
pub fn encode_with_significance(
    img: &GrayImage,
    executor: &Executor,
    significance: &[f64],
    ratio: f64,
) -> Encoded {
    encode_core(img, executor, significance, Waiter::Ratio(ratio))
}

/// One step of the closed adaptive loop: encodes at the ratio the
/// controller currently commands and records the achieved schedule back
/// into it. The caller completes the loop by measuring quality (PSNR of
/// the decode against the full-ratio reconstruction) and passing it to
/// [`AdaptiveController::observe`].
///
/// # Panics
///
/// Panics if `significance.len()` does not match the image's block
/// count.
pub fn encode_adaptive(
    img: &GrayImage,
    executor: &Executor,
    significance: &[f64],
    controller: &mut AdaptiveController,
) -> Encoded {
    encode_core(img, executor, significance, Waiter::Adaptive(controller))
}

/// Decodes an encoded container back into an image: entropy decode →
/// dequantise → inverse DCT → level unshift → clip.
///
/// The inverse transform is always exact — approximation lives on the
/// encode side, as in the paper's codec scenario.
///
/// # Errors
///
/// Returns [`JpegError::Malformed`] on bad magic/version, absurd
/// dimensions, a corrupt Huffman table, or a truncated bitstream.
pub fn decode(bytes: &[u8]) -> Result<GrayImage, JpegError> {
    let _span = scorpio_obs::span("kernel.jpeg.decode");
    if bytes.len() < 13 {
        return Err(JpegError::Malformed("container shorter than header".into()));
    }
    if bytes[..4] != MAGIC {
        return Err(JpegError::Malformed("bad magic".into()));
    }
    if bytes[4] != VERSION {
        return Err(JpegError::Malformed(format!(
            "unsupported version {}",
            bytes[4]
        )));
    }
    let w = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let h = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    if w == 0 || h == 0 {
        return Err(JpegError::Malformed("zero dimension".into()));
    }
    if w as u64 * h as u64 > MAX_PIXELS {
        return Err(JpegError::Malformed(format!(
            "image {w}x{h} exceeds the {MAX_PIXELS}-pixel decode cap"
        )));
    }
    let (table, table_len) =
        HuffmanTable::parse(&bytes[13..]).map_err(JpegError::Malformed)?;
    let decoder = table.decoder();
    let mut reader = BitReader::new(&bytes[13 + table_len..]);

    let blocks_x = w.div_ceil(BLOCK);
    let blocks_y = h.div_ceil(BLOCK);
    let mut img = GrayImage::new(w, h);
    for b in 0..blocks_x * blocks_y {
        let symbols = huffman::decode_block_symbols(&mut reader, &decoder)
            .ok_or_else(|| JpegError::Malformed(format!("truncated bitstream at block {b}")))?;
        let coeffs = codec::decode_block(&symbols);
        let recon = dct::inverse_block(&coeffs);
        let (bx, by) = (b % blocks_x, b / blocks_x);
        for (y, row) in recon.iter().enumerate() {
            for (x, &p) in row.iter().enumerate() {
                let ix = bx * BLOCK + x;
                let iy = by * BLOCK + y;
                if ix < w && iy < h {
                    img.set(ix, iy, (p + 128.0).clamp(0.0, 255.0));
                }
            }
        }
    }
    Ok(img)
}

/// Structural bit-exactness check of an encoded container: parses the
/// header and table, entropy-decodes every block's symbol stream, then
/// re-encodes from scratch (statistics → canonical table → bits). The
/// result must reproduce `bytes` exactly — any loss, reordering, or
/// table nondeterminism in the entropy layer fails the comparison.
///
/// # Errors
///
/// Returns [`JpegError::Malformed`] when the container cannot be parsed
/// (the check needs a decodable stream to re-encode).
pub fn verify_bitstream(bytes: &[u8]) -> Result<bool, JpegError> {
    if bytes.len() < 13 || bytes[..4] != MAGIC || bytes[4] != VERSION {
        return Err(JpegError::Malformed("not a SJPG v1 container".into()));
    }
    let w = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let h = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    if w == 0 || h == 0 || w as u64 * h as u64 > MAX_PIXELS {
        return Err(JpegError::Malformed("bad dimensions".into()));
    }
    let (table, table_len) =
        HuffmanTable::parse(&bytes[13..]).map_err(JpegError::Malformed)?;
    let decoder = table.decoder();
    let mut reader = BitReader::new(&bytes[13 + table_len..]);
    let n_blocks = w.div_ceil(BLOCK) * h.div_ceil(BLOCK);
    let mut block_symbols = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let symbols = huffman::decode_block_symbols(&mut reader, &decoder)
            .ok_or_else(|| JpegError::Malformed(format!("truncated bitstream at block {b}")))?;
        block_symbols.push(symbols);
    }
    let all: Vec<codec::Symbol> = block_symbols.iter().flatten().copied().collect();
    let rebuilt_table = HuffmanTable::from_symbols(&all);
    let mut writer = BitWriter::new();
    for symbols in &block_symbols {
        huffman::encode_block_bits(symbols, &rebuilt_table, &mut writer);
    }
    let mut rebuilt = Vec::new();
    rebuilt.extend_from_slice(&MAGIC);
    rebuilt.push(VERSION);
    rebuilt.extend_from_slice(&(w as u32).to_le_bytes());
    rebuilt.extend_from_slice(&(h as u32).to_le_bytes());
    rebuilt_table.serialize_into(&mut rebuilt);
    rebuilt.extend_from_slice(&writer.finish());
    Ok(rebuilt == bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_quality::{gradient, psnr_images, value_noise};

    /// Sequential reference pipeline with a caller-chosen transform —
    /// the oracle for the ratio-identity tests.
    fn sequential_encode(
        img: &GrayImage,
        forward: impl Fn(&[[f64; BLOCK]; BLOCK]) -> [[f64; BLOCK]; BLOCK],
    ) -> Vec<u8> {
        let blocks = tile_blocks(img);
        let block_symbols: Vec<Vec<codec::Symbol>> = blocks
            .iter()
            .map(|b| {
                let mut s = *b;
                for row in &mut s {
                    for p in row {
                        *p -= 128.0;
                    }
                }
                codec::encode_block(&forward(&s))
            })
            .collect();
        let all: Vec<codec::Symbol> = block_symbols.iter().flatten().copied().collect();
        let table = HuffmanTable::from_symbols(&all);
        let mut writer = BitWriter::new();
        for symbols in &block_symbols {
            huffman::encode_block_bits(symbols, &table, &mut writer);
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&(img.width() as u32).to_le_bytes());
        bytes.extend_from_slice(&(img.height() as u32).to_le_bytes());
        table.serialize_into(&mut bytes);
        bytes.extend_from_slice(&writer.finish());
        bytes
    }

    fn uniform_significance(img: &GrayImage) -> Vec<f64> {
        vec![0.5; tile_blocks(img).len()]
    }

    #[test]
    fn ratio_one_is_byte_identical_to_all_realdct() {
        let img = value_noise(40, 24, 3);
        let executor = Executor::new(2);
        let enc = encode_with_significance(&img, &executor, &uniform_significance(&img), 1.0);
        assert_eq!(enc.bytes, sequential_encode(&img, dct::forward_block));
        assert_eq!(enc.approx_blocks(), 0);
        assert_eq!(enc.accurate_blocks(), tile_blocks(&img).len());
    }

    #[test]
    fn ratio_zero_is_byte_identical_to_all_bindct() {
        let img = value_noise(40, 24, 3);
        let executor = Executor::new(2);
        let enc = encode_with_significance(&img, &executor, &uniform_significance(&img), 0.0);
        assert_eq!(enc.bytes, sequential_encode(&img, bindct::forward_block_bin));
        assert_eq!(enc.accurate_blocks(), 0);
        assert_eq!(enc.approx_blocks(), tile_blocks(&img).len());
    }

    #[test]
    fn round_trip_decodes_to_jpeg_quality() {
        let img = value_noise(33, 25, 9); // non-multiple-of-8 dims
        let executor = Executor::new(1);
        let enc = encode_with_significance(&img, &executor, &uniform_significance(&img), 1.0);
        let back = decode(&enc.bytes).unwrap();
        assert_eq!((back.width(), back.height()), (33, 25));
        let p = psnr_images(&img, &back);
        assert!(p > 25.0, "round-trip PSNR {p}");
        // Real bits were spent.
        assert!(enc.payload_bits > 0);
        assert!(enc.bits() >= enc.payload_bits);
    }

    #[test]
    fn partial_ratio_sits_between_the_extremes() {
        let img = value_noise(48, 48, 17);
        let executor = Executor::new(2);
        let sig = uniform_significance(&img);
        let enc = encode_with_significance(&img, &executor, &sig, 0.5);
        let n = sig.len();
        assert_eq!(enc.accurate_blocks(), n.div_ceil(2));
        assert_eq!(enc.accurate_blocks() + enc.approx_blocks(), n);
        assert!(enc.stats.accurate_ops > 0 && enc.stats.approx_ops > 0);
    }

    /// Left half flat (zero BinDCT damage by construction), right half
    /// per-pixel hash noise (energy across the whole AC band, so BinDCT
    /// flips quantisation levels there).
    fn half_flat_half_noise() -> GrayImage {
        GrayImage::from_fn(32, 16, |x, y| {
            if x < 16 {
                120.0
            } else {
                (x.wrapping_mul(2_654_435_761)
                    .wrapping_add(y.wrapping_mul(40_503))
                    .wrapping_mul(97_654_321)
                    >> 7) as f64
                    % 256.0
            }
        })
    }

    #[test]
    fn analyze_ranks_busy_blocks_above_flat_ones() {
        // Block scores must separate the two halves, and all land
        // strictly below 1.0.
        let img = half_flat_half_noise();
        let engine = ParallelAnalysis::new(1);
        let sig = analyze(&img, 8.0, &engine).unwrap();
        assert_eq!(sig.len(), 8);
        for &s in &sig {
            assert!((0.0..=SIGNIFICANCE_CEILING).contains(&s), "score {s}");
        }
        // Row-major 4×2 block grid: blocks 0,1 flat; 2,3 busy (per row).
        let flat_max = sig[0].max(sig[1]).max(sig[4]).max(sig[5]);
        let busy_min = sig[2].min(sig[3]).min(sig[6]).min(sig[7]);
        assert!(
            busy_min > flat_max,
            "busy blocks must outrank flat ones: {sig:?}"
        );
    }

    #[test]
    fn significance_protects_busy_blocks_first() {
        let img = half_flat_half_noise();
        let engine = ParallelAnalysis::new(1);
        let executor = Executor::new(1);
        let sig = analyze(&img, 8.0, &engine).unwrap();
        let full = decode(&encode_with_significance(&img, &executor, &sig, 1.0).bytes).unwrap();
        // Half the blocks accurate: significance must spend them on the
        // busy half, so quality stays near the full encode.
        let half = decode(&encode_with_significance(&img, &executor, &sig, 0.5).bytes).unwrap();
        let p = psnr_images(&full, &half);
        assert!(p > 40.0, "significance-guided half-ratio PSNR {p}");
    }

    #[test]
    fn adaptive_loop_converges_toward_a_psnr_target() {
        use scorpio_runtime::controller::adaptive::Objective;
        use scorpio_runtime::controller::QualityTarget;

        let img = value_noise(48, 48, 29);
        let engine = ParallelAnalysis::new(1);
        let executor = Executor::new(1);
        let sig = analyze(&img, 8.0, &engine).unwrap();
        let full = decode(&encode_with_significance(&img, &executor, &sig, 1.0).bytes).unwrap();
        let mut ctrl =
            AdaptiveController::new("jpeg", Objective::Quality(QualityTarget::AtLeast(38.0)));
        let mut last_psnr = 0.0;
        for _ in 0..12 {
            let enc = encode_adaptive(&img, &executor, &sig, &mut ctrl);
            let recon = decode(&enc.bytes).unwrap();
            last_psnr = psnr_images(&full, &recon);
            ctrl.observe(last_psnr);
            if ctrl.converged() {
                break;
            }
        }
        assert!(ctrl.steps() > 0);
        assert!(
            last_psnr >= 30.0,
            "adaptive loop ended far below target: {last_psnr}"
        );
    }

    #[test]
    fn verify_bitstream_accepts_real_encodes_and_spots_tampering() {
        let img = value_noise(40, 32, 13);
        let executor = Executor::new(1);
        for ratio in [0.0, 0.5, 1.0] {
            let enc = encode_with_significance(&img, &executor, &uniform_significance(&img), ratio);
            assert!(verify_bitstream(&enc.bytes).unwrap(), "ratio {ratio}");
        }
        // Flipping a payload bit breaks bit-exactness (or decodability).
        let enc = encode_with_significance(&img, &executor, &uniform_significance(&img), 1.0);
        let mut tampered = enc.bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x40;
        assert!(!verify_bitstream(&tampered).unwrap_or(false));
    }

    #[test]
    fn decode_rejects_malformed_containers() {
        assert!(decode(&[]).is_err());
        assert!(decode(b"NOPE\x01aaaaaaaaaaaa").is_err());
        let img = gradient(16, 16);
        let executor = Executor::new(1);
        let enc = encode_with_significance(&img, &executor, &uniform_significance(&img), 1.0);
        // Bad version.
        let mut bad = enc.bytes.clone();
        bad[4] = 9;
        assert!(matches!(decode(&bad), Err(JpegError::Malformed(_))));
        // Truncated bitstream.
        let cut = &enc.bytes[..enc.bytes.len() - 1];
        assert!(matches!(decode(cut), Err(JpegError::Malformed(_))));
        // Absurd dimensions.
        let mut huge = enc.bytes.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        huge[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&huge), Err(JpegError::Malformed(_))));
    }

    #[test]
    fn encode_options_entry_point_round_trips() {
        let img = value_noise(24, 24, 5);
        let enc = encode(
            &img,
            &EncodeOptions {
                ratio: 0.6,
                ..EncodeOptions::default()
            },
        )
        .unwrap();
        let back = decode(&enc.bytes).unwrap();
        assert_eq!((back.width(), back.height()), (24, 24));
        assert_eq!(enc.significance.len(), 9);
        assert!(enc.bits_per_pixel() > 0.0);
    }
}
