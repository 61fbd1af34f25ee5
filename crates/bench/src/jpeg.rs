//! End-to-end JPEG codec scenario: bitrate vs PSNR/SSIM vs modeled
//! energy curves, the random-block-selection ablation, and the
//! adaptive-controller run behind `bench_jpeg` / `BENCH_jpeg.json`.
//!
//! For each checked-in test image the runner analyses per-block
//! significance once (record-once/replay-many through the kernel's
//! analysis path), sweeps the `taskwait` ratio over a grid with that
//! ranking **and** with a seeded random ranking of the same blocks
//! (same accurate-block count per ratio, so bitrates are comparable),
//! and finally lets an [`AdaptiveController`] find the cheapest ratio
//! for a PSNR target. Every encode is decoded back and its container is
//! checked for bit-exactness with [`jpeg::verify_bitstream`].
//! `scorpio_diff` gates the resulting report against
//! `baselines/BENCH_jpeg_small.json`: quality/energy/bitrate drift plus
//! the contract bits (round-trip, significance-dominates-random,
//! adaptive target met).

use scorpio_core::audit::SplitMix64;
use scorpio_core::ParallelAnalysis;
use scorpio_kernels::jpeg;
use scorpio_quality::{psnr_images, ssim, GrayImage};
use scorpio_runtime::controller::adaptive::{AdaptiveController, Objective};
use scorpio_runtime::controller::QualityTarget;
use scorpio_obs::gate::{self, Better, Metric};
use scorpio_obs::json_record;
use scorpio_runtime::{EnergyModel, Executor};

/// Schema tag of `BENCH_jpeg.json`.
pub const JPEG_SCHEMA: &str = "scorpio-jpeg-v1";

/// The ratio grid of the sweep.
pub const RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Cap on adaptive-controller observations per image.
pub const MAX_ADAPTIVE_STEPS: usize = 24;

/// Seed of the random-ranking ablation (fixed: the ablation must be
/// reproducible for the diff gate).
pub const ABLATION_SEED: u64 = 0x05c0_a910_cafe;

/// One measured point of an image's ratio sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JpegPoint {
    /// The requested accurate-block ratio.
    pub ratio: f64,
    /// PSNR (dB) of the decode against the full-ratio reconstruction,
    /// capped at 99 (the two coincide at ratio 1.0).
    pub psnr_db: f64,
    /// SSIM of the decode against the full-ratio reconstruction.
    pub ssim: f64,
    /// Total container size in bits — *actual* entropy-coded bits, not
    /// an estimate.
    pub bits: u64,
    /// Bits per source pixel.
    pub bits_per_pixel: f64,
    /// Modeled energy (J) of the encode's transform + epilogue work.
    pub energy_j: f64,
    /// Blocks transformed with the exact DCT.
    pub accurate_blocks: u64,
    /// Blocks transformed with BinDCT.
    pub approx_blocks: u64,
    /// Whether the container survived the structural bit-exactness
    /// check (decode symbols → rebuild table → re-encode → identical
    /// bytes).
    pub roundtrip_ok: bool,
}
json_record!(JpegPoint {
    ratio,
    psnr_db,
    ssim,
    bits,
    bits_per_pixel,
    energy_j,
    accurate_blocks,
    approx_blocks,
    roundtrip_ok
});

/// The adaptive-controller outcome on one image.
#[derive(Debug, Clone, PartialEq)]
pub struct JpegAdaptive {
    /// The PSNR floor the controller pursued (dB, against the
    /// full-ratio reconstruction).
    pub target_psnr_db: f64,
    /// The ratio the controller settled on.
    pub final_ratio: f64,
    /// PSNR measured at the final ratio.
    pub psnr_db: f64,
    /// Modeled energy at the final ratio.
    pub energy_j: f64,
    /// Bits per pixel at the final ratio.
    pub bits_per_pixel: f64,
    /// Controller observations consumed.
    pub steps: u64,
    /// Whether convergence latched before the step cap.
    pub converged: bool,
    /// Whether the final observation met the target.
    pub target_met: bool,
}
json_record!(JpegAdaptive {
    target_psnr_db,
    final_ratio,
    psnr_db,
    energy_j,
    bits_per_pixel,
    steps,
    converged,
    target_met
});

/// One image's full scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct JpegImage {
    /// Image name (asset file stem).
    pub name: String,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Number of 8×8 blocks.
    pub blocks: u64,
    /// Significance-ordered sweep, ascending ratio.
    pub curve: Vec<JpegPoint>,
    /// Random-ranking ablation on the same grid (same accurate-block
    /// count per ratio — the PSNR-at-equal-bitrate comparison).
    pub random_curve: Vec<JpegPoint>,
    /// `true` when the significance sweep weakly dominates the random
    /// ablation on PSNR at every grid ratio.
    pub sig_dominates_random: bool,
    /// The closed-loop run.
    pub adaptive: JpegAdaptive,
}
json_record!(JpegImage {
    name,
    width,
    height,
    blocks,
    curve,
    random_curve,
    sig_dominates_random,
    adaptive
});

/// The whole report (`BENCH_jpeg.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct JpegReport {
    /// Format tag, always [`JPEG_SCHEMA`].
    pub schema: String,
    /// Producing harness (`"bench_jpeg"`).
    pub name: String,
    /// `git describe` of the producing tree.
    pub git: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// Whether the reduced `--small` grid was used.
    pub small: bool,
    /// `true` when the producing run dropped task events (see
    /// [`crate::QorReport::degraded`]).
    pub degraded: bool,
    /// Per-image results.
    pub images: Vec<JpegImage>,
}
json_record!(JpegReport {
    schema,
    name,
    git,
    threads,
    small,
    degraded,
    images
});

impl JpegReport {
    /// Serialises the report, with its [`JpegReport::metrics`], as JSON.
    pub fn to_json(&self) -> String {
        gate::to_json(self, &self.metrics())
    }

    /// The gated metrics, per image: the codec contract (every sweep
    /// point round-trips bit-exactly, significance dominates random,
    /// the adaptive run meets its target and converges), then per sweep
    /// point of both curves PSNR/SSIM, modeled energy, bits per pixel
    /// (actual coded size: drift either way gates) and the accurate
    /// block tally (deterministic), then the adaptive outcome.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for img in &self.images {
            let at = |what: &str| format!("{} · {what}", img.name);
            let curves = [("curve", &img.curve), ("random_curve", &img.random_curve)];
            let roundtrip = curves
                .iter()
                .all(|(_, pts)| !pts.is_empty() && pts.iter().all(|p| p.roundtrip_ok));
            out.extend([
                Metric::contract(at("bitstreams round-trip"), roundtrip),
                Metric::contract(at("significance dominates random"), img.sig_dominates_random),
                Metric::contract(at("adaptive target_met"), img.adaptive.target_met),
                Metric::contract(at("adaptive converged"), img.adaptive.converged),
            ]);
            for (curve, points) in curves {
                for p in points {
                    let at = |what: &str| format!("{} {curve} @ ratio {} · {what}", img.name, p.ratio);
                    out.extend([
                        Metric::new(at("psnr_db"), "dB", Better::Higher, p.psnr_db),
                        Metric::new(at("ssim"), "ssim", Better::Higher, p.ssim),
                        Metric::new(at("energy_j"), "J", Better::Lower, p.energy_j),
                        Metric::new(at("bits_per_pixel"), "bpp", Better::Either, p.bits_per_pixel),
                        Metric::new(at("accurate_blocks"), "blocks", Better::Exact, p.accurate_blocks as f64),
                    ]);
                }
            }
            let a = &img.adaptive;
            out.extend([
                Metric::new(at("adaptive psnr_db"), "dB", Better::Higher, a.psnr_db),
                Metric::new(at("adaptive energy_j"), "J", Better::Lower, a.energy_j),
                Metric::new(at("adaptive steps"), "steps", Better::Lower, a.steps as f64),
            ]);
        }
        out
    }
}

/// A one-image report whose contract bits all equal `ok`, with
/// `psnr_delta` added to the significance curve's PSNR.
#[cfg(test)]
pub(crate) fn fixture(ok: bool, psnr_delta: f64) -> JpegReport {
    let point = |ratio: f64, delta: f64| JpegPoint {
        ratio,
        psnr_db: 40.0 + 20.0 * ratio + delta,
        ssim: 0.99 + 0.01 * ratio,
        bits: 4096,
        bits_per_pixel: 1.5,
        energy_j: 0.002 + 0.02 * ratio,
        accurate_blocks: (ratio * 16.0).ceil() as u64,
        approx_blocks: 16 - (ratio * 16.0).ceil() as u64,
        roundtrip_ok: ok,
    };
    JpegReport {
        schema: JPEG_SCHEMA.to_owned(),
        name: "bench_jpeg".to_owned(),
        git: "deadbeef".to_owned(),
        threads: 1,
        small: true,
        degraded: false,
        images: vec![JpegImage {
            name: "scene".to_owned(),
            width: 32,
            height: 32,
            blocks: 16,
            curve: [0.0, 0.5, 1.0].map(|r| point(r, psnr_delta)).to_vec(),
            random_curve: [0.0, 0.5, 1.0].map(|r| point(r, -5.0)).to_vec(),
            sig_dominates_random: ok,
            adaptive: JpegAdaptive {
                target_psnr_db: 50.0,
                final_ratio: 0.4,
                psnr_db: 51.0,
                energy_j: 0.01,
                bits_per_pixel: 1.5,
                steps: 3,
                converged: ok,
                target_met: ok,
            },
        }],
    }
}

/// A random block ranking in `[0, SIGNIFICANCE_CEILING)`, seeded so the
/// ablation is reproducible run to run.
pub fn random_significance(n_blocks: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n_blocks)
        .map(|_| rng.next_f64() * jpeg::SIGNIFICANCE_CEILING * 0.999_999)
        .collect()
}

/// Encodes at one ratio with the given ranking and measures the point.
fn measure_point(
    img: &GrayImage,
    executor: &Executor,
    significance: &[f64],
    ratio: f64,
    full: &GrayImage,
    model: &EnergyModel,
) -> (JpegPoint, GrayImage) {
    let enc = jpeg::encode_with_significance(img, executor, significance, ratio);
    let recon = jpeg::decode(&enc.bytes).expect("own encode must decode");
    let roundtrip_ok = jpeg::verify_bitstream(&enc.bytes).unwrap_or(false);
    let point = JpegPoint {
        ratio,
        psnr_db: psnr_images(full, &recon).min(99.0),
        ssim: ssim(full, &recon),
        bits: enc.bits(),
        bits_per_pixel: enc.bits_per_pixel(),
        energy_j: model.energy(&enc.stats),
        accurate_blocks: enc.accurate_blocks() as u64,
        approx_blocks: enc.approx_blocks() as u64,
        roundtrip_ok,
    };
    (point, recon)
}

/// Runs the full scenario on one image: significance sweep, random
/// ablation, dominance verdict, adaptive run. Returns the result plus
/// the significance-sweep reconstructions (ratio, image) so callers can
/// write viewable `.pgm` artifacts.
///
/// # Panics
///
/// Panics if the significance analysis fails (framework errors — none
/// expected on real images).
pub fn run_image(
    name: &str,
    img: &GrayImage,
    executor: &Executor,
    engine: &ParallelAnalysis,
    radius: f64,
    target_psnr_db: f64,
    model: &EnergyModel,
) -> (JpegImage, Vec<(f64, GrayImage)>) {
    let _span = scorpio_obs::span("bench.jpeg.image");
    let significance =
        jpeg::analyze(img, radius, engine).expect("jpeg significance analysis failed");
    let n_blocks = significance.len();

    // The quality yardstick: the all-RealDCT (ratio 1.0) encode — the
    // curves then isolate the *approximation* loss from the ordinary
    // quantisation loss.
    let full_enc = jpeg::encode_with_significance(img, executor, &significance, 1.0);
    let full = jpeg::decode(&full_enc.bytes).expect("full encode must decode");

    let mut curve = Vec::new();
    let mut recons = Vec::new();
    for &ratio in &RATIOS {
        let (point, recon) = measure_point(img, executor, &significance, ratio, &full, model);
        curve.push(point);
        recons.push((ratio, recon));
    }

    let random = random_significance(n_blocks, ABLATION_SEED);
    let random_curve: Vec<JpegPoint> = RATIOS
        .iter()
        .map(|&ratio| measure_point(img, executor, &random, ratio, &full, model).0)
        .collect();

    // Weak dominance on PSNR at equal accurate-block budget (both
    // rankings make ceil(ratio·n) blocks accurate, so bitrates are
    // directly comparable). A hair of tolerance absorbs f64 metric
    // noise at the shared endpoints.
    let sig_dominates_random = curve
        .iter()
        .zip(&random_curve)
        .all(|(s, r)| s.psnr_db >= r.psnr_db - 1e-9);

    // Closed loop: find the cheapest ratio meeting the PSNR target.
    let mut controller = AdaptiveController::new(
        format!("jpeg-{name}"),
        Objective::Quality(QualityTarget::AtLeast(target_psnr_db)),
    );
    controller.seed_from_curve(
        &curve
            .iter()
            .map(|p| (p.ratio, p.psnr_db))
            .collect::<Vec<_>>(),
    );
    let mut last = None;
    for _ in 0..MAX_ADAPTIVE_STEPS {
        let enc = jpeg::encode_adaptive(img, executor, &significance, &mut controller);
        let recon = jpeg::decode(&enc.bytes).expect("adaptive encode must decode");
        let psnr = psnr_images(&full, &recon).min(99.0);
        last = Some((enc, psnr));
        controller.observe(psnr);
        if controller.converged() {
            break;
        }
    }
    let (enc, psnr) = last.expect("adaptive loop runs at least once");
    let adaptive = JpegAdaptive {
        target_psnr_db,
        final_ratio: controller.ratio(),
        psnr_db: psnr,
        energy_j: model.energy(&enc.stats),
        bits_per_pixel: enc.bits_per_pixel(),
        steps: controller.steps(),
        converged: controller.converged(),
        target_met: psnr >= target_psnr_db,
    };

    (
        JpegImage {
            name: name.to_owned(),
            width: img.width(),
            height: img.height(),
            blocks: n_blocks as u64,
            curve,
            random_curve,
            sig_dominates_random,
            adaptive,
        },
        recons,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_quality::value_noise;

    #[test]
    fn random_significance_is_seeded_and_bounded() {
        let a = random_significance(32, 7);
        let b = random_significance(32, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| (0.0..jpeg::SIGNIFICANCE_CEILING).contains(&s)));
        assert_ne!(a, random_significance(32, 8));
    }

    #[test]
    fn run_image_produces_a_consistent_report() {
        let img = value_noise(48, 40, 23);
        let executor = Executor::new(1);
        let engine = ParallelAnalysis::new(1);
        let model = EnergyModel::xeon_e5_2695v3();
        let (result, recons) =
            run_image("noise", &img, &executor, &engine, 8.0, 34.0, &model);
        assert_eq!(result.blocks, 6 * 5);
        assert_eq!(result.curve.len(), RATIOS.len());
        assert_eq!(result.random_curve.len(), RATIOS.len());
        assert_eq!(recons.len(), RATIOS.len());
        for (s, r) in result.curve.iter().zip(&result.random_curve) {
            assert!(s.roundtrip_ok && r.roundtrip_ok);
            assert_eq!(s.accurate_blocks, r.accurate_blocks, "equal budget");
            assert!(s.bits > 0);
        }
        // Ratio 1.0 point is the yardstick itself.
        assert_eq!(result.curve.last().unwrap().psnr_db, 99.0);
        // Energy grows with the accurate fraction.
        assert!(result.curve.first().unwrap().energy_j < result.curve.last().unwrap().energy_j);
        // PSNR is monotone (weakly) along the significance curve.
        for w in result.curve.windows(2) {
            assert!(
                w[1].psnr_db >= w[0].psnr_db - 0.5,
                "psnr fell: {} -> {}",
                w[0].psnr_db,
                w[1].psnr_db
            );
        }
        assert!(result.adaptive.steps > 0);
    }

    #[test]
    fn report_serialises_with_schema_tag() {
        let img = value_noise(24, 24, 3);
        let executor = Executor::new(1);
        let engine = ParallelAnalysis::new(1);
        let model = EnergyModel::xeon_e5_2695v3();
        let (result, _) = run_image("tiny", &img, &executor, &engine, 8.0, 30.0, &model);
        let report = JpegReport {
            schema: JPEG_SCHEMA.to_owned(),
            name: "bench_jpeg".to_owned(),
            git: "none".to_owned(),
            threads: 1,
            small: true,
            degraded: false,
            images: vec![result],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"scorpio-jpeg-v1\""));
        let parsed = scorpio_obs::json::parse(&json).expect("round-trip");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(JPEG_SCHEMA)
        );
        assert!(parsed.get("images").is_some());
    }
}
