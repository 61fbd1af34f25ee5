//! End-to-end approximate JPEG codec scenario: bitrate vs quality vs
//! energy on real images.
//!
//! For each checked-in PGM under `assets/` this harness analyses
//! per-block significance (all 8×8 blocks share one tape shape — record
//! once, replay per block), sweeps the accurate-block ratio over the
//! grid with the significance ranking and with a seeded random ranking
//! (the ablation: same accurate-block budget, so PSNR at equal bitrate
//! is directly comparable), runs the closed-loop adaptive controller
//! against a PSNR target, and verifies every container bit-exactly.
//! Results land in `BENCH_jpeg.json` (`scorpio-jpeg-v1`), gated by
//! `scorpio_diff` against `baselines/BENCH_jpeg_small.json`; the
//! ratio-0 and ratio-1 reconstructions are also written as viewable
//! `.pgm` files next to the report.
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin bench_jpeg \
//!     [--small] [--threads N] [--out-dir DIR] [--image NAME] \
//!     [--target PSNR] [--trace trace.json]
//! ```
//!
//! `--small` crops each image to its top-left 32×32 tile so the CI gate
//! stays fast; `--image NAME` restricts the run to one asset;
//! `--target PSNR` overrides the default 50 dB adaptive target.

use scorpio_bench::{
    arg_value, finish_trace, flag_present, jpeg::run_image, out_dir_arg, threads_arg, trace_arg,
    usage_check, JpegReport, JPEG_SCHEMA,
};
use scorpio_core::ParallelAnalysis;
use scorpio_quality::GrayImage;
use scorpio_runtime::{EnergyModel, Executor};
use std::io::BufReader;
use std::path::Path;

/// The checked-in test images, relative to the repository root.
const ASSETS: [(&str, &str); 2] = [
    ("scene", "assets/scene.pgm"),
    ("texture", "assets/texture.pgm"),
];

/// Significance-analysis perturbation radius (matches
/// `jpeg::EncodeOptions::default()`).
const RADIUS: f64 = 8.0;

/// Default adaptive PSNR floor (dB). Above the all-BinDCT quality of
/// the checked-in images, so the controller genuinely has to search for
/// a partial ratio rather than settling at the floor.
const DEFAULT_TARGET: f64 = 50.0;

/// Side of the `--small` crop, a multiple of the 8-pixel block.
const SMALL_SIDE: usize = 32;

fn load_image(path: &str) -> GrayImage {
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| panic!("open {path}: {e} (run from the repository root)"));
    GrayImage::read_pgm(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn crop(img: &GrayImage, side: usize) -> GrayImage {
    let w = img.width().min(side);
    let h = img.height().min(side);
    GrayImage::from_fn(w, h, |x, y| img.get(x, y))
}

fn write_recon(out_dir: &Path, name: &str, ratio: f64, img: &GrayImage) {
    let file_name = format!("{name}_r{:03}.pgm", (ratio * 100.0).round() as u32);
    let path = out_dir.join(file_name);
    let file = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    img.write_pgm(std::io::BufWriter::new(file))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

const SYNOPSIS: &str = "\
usage: bench_jpeg [--small] [--threads N] [--out-dir DIR] [--image NAME] [--target PSNR]
                  [--trace PATH]";

fn main() {
    usage_check(
        SYNOPSIS,
        &[
            "--small",
            "--threads",
            "--out-dir",
            "--image",
            "--target",
            "--trace",
        ],
    );
    let small = flag_present("--small");
    let out_dir = out_dir_arg();
    let only = arg_value("--image");
    let target: f64 = arg_value("--target").map_or(DEFAULT_TARGET, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("invalid --target value {v:?}"))
    });
    let trace_path = trace_arg();
    let session = scorpio_obs::RunSession::start("bench_jpeg");
    let threads = threads_arg().unwrap_or(1);
    let executor = Executor::new(threads);
    let engine = ParallelAnalysis::new(threads);
    let model = EnergyModel::xeon_e5_2695v3();

    if let Some(o) = only.as_deref() {
        let known: Vec<&str> = ASSETS.iter().map(|(n, _)| *n).collect();
        assert!(known.contains(&o), "unknown --image {o:?} (have: {known:?})");
    }
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");

    let mut images = Vec::new();
    for (name, path) in ASSETS {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let mut img = load_image(path);
        if small {
            img = crop(&img, SMALL_SIDE);
        }
        let (result, recons) = run_image(name, &img, &executor, &engine, RADIUS, target, &model);
        println!(
            "\n=== {name} ({}x{}, {} blocks) ===",
            result.width, result.height, result.blocks
        );
        println!("ratio   psnr_db    ssim      bpp  energy_j  rand_psnr  roundtrip");
        for (s, r) in result.curve.iter().zip(&result.random_curve) {
            println!(
                "{:5.2}  {:8.2}  {:.4}  {:7.3}  {:8.4}  {:9.2}  {}",
                s.ratio,
                s.psnr_db,
                s.ssim,
                s.bits_per_pixel,
                s.energy_j,
                r.psnr_db,
                if s.roundtrip_ok && r.roundtrip_ok { "ok" } else { "FAIL" }
            );
        }
        println!(
            "significance dominates random: {}",
            result.sig_dominates_random
        );
        let a = &result.adaptive;
        println!(
            "adaptive: target {:.1} dB -> ratio {:.3}, {:.2} dB, {:.4} J, {:.3} bpp, {} steps, converged: {}, met: {}",
            a.target_psnr_db, a.final_ratio, a.psnr_db, a.energy_j, a.bits_per_pixel,
            a.steps, a.converged, a.target_met
        );
        for (ratio, recon) in &recons {
            if *ratio == 0.0 || *ratio == 1.0 {
                write_recon(&out_dir, name, *ratio, recon);
            }
        }
        images.push(result);
    }

    let degraded = scorpio_obs::events_dropped() > 0;
    if degraded {
        eprintln!(
            "warning: {} task events were dropped — marking report degraded",
            scorpio_obs::events_dropped()
        );
    }
    let report = JpegReport {
        schema: JPEG_SCHEMA.to_owned(),
        name: "bench_jpeg".to_owned(),
        git: scorpio_obs::git_describe(),
        threads: executor.threads(),
        small,
        degraded,
        images,
    };
    let path = out_dir.join("BENCH_jpeg.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_jpeg.json");
    println!(
        "\nwrote {} ({} images; ratio-0/ratio-1 reconstructions alongside)",
        path.display(),
        report.images.len()
    );

    let mut config = vec![
        ("small".to_owned(), small.to_string()),
        ("threads".to_owned(), executor.threads().to_string()),
        ("target".to_owned(), target.to_string()),
    ];
    if let Some(i) = only {
        config.push(("image".to_owned(), i));
    }
    finish_trace(
        session,
        &out_dir,
        executor.threads(),
        &config,
        trace_path.as_deref(),
    );
}
