//! Cross-crate determinism contract of the parallel analysis engine
//! and the task runtime: every parallel entry point must produce
//! **bit-identical** results at any worker count — parallelism is a
//! pure latency optimisation, never a semantic knob. Serial baselines
//! (`threads == 1` runs inline, bypassing the pool) are compared
//! against multi-worker runs via `f64::to_bits`, not approximate
//! equality.

use scorpio::analysis::mc;
use scorpio::analysis::{ParallelAnalysis, DEFAULT_LANES};
use scorpio::kernels::{blackscholes, dct, fisheye, nbody, sobel, Kernel};
use scorpio::quality::SyntheticImage;
use scorpio::runtime::{ExecutionStats, Executor};

const THREAD_COUNTS: [usize; 2] = [2, 8];

#[test]
fn sobel_combine_is_bit_identical_across_thread_counts() {
    let serial = sobel::analysis_combine_threaded(12, 1).unwrap();
    for threads in THREAD_COUNTS {
        let parallel = sobel::analysis_combine_threaded(12, threads).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (i, ((sx, sy), (px, py))) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(sx.to_bits(), px.to_bits(), "tx diverged at point {i}, {threads} threads");
            assert_eq!(sy.to_bits(), py.to_bits(), "ty diverged at point {i}, {threads} threads");
        }
    }
}

#[test]
fn blackscholes_batch_is_bit_identical_across_thread_counts() {
    let options = blackscholes::generate_options(48, 7);
    let batch = |threads| {
        blackscholes::analysis_options_lanes::<DEFAULT_LANES>(
            &options,
            &ParallelAnalysis::new(threads),
        )
        .unwrap()
    };
    let serial = batch(1);
    for threads in THREAD_COUNTS {
        let parallel = batch(threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let s = [s.0, s.1, s.2, s.3];
            let p = [p.0, p.1, p.2, p.3];
            for (block, (a, b)) in ["A", "B", "C", "D"].iter().zip(s.iter().zip(&p)) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "block {block} diverged at option {i}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    let model = |ctx: &mc::McCtx<'_>| {
        let x = ctx.input("x", -0.01, 0.99);
        let mut acc = ctx.constant(0.0);
        for i in 0..5 {
            let t = x.powi(i);
            ctx.intermediate(&t, format!("term{i}"));
            acc = acc + t;
        }
        ctx.output(&acc, "y");
        Ok(())
    };
    let serial = mc::estimate(256, 99, model).unwrap();
    for threads in THREAD_COUNTS {
        let parallel = mc::estimate_threaded(256, 99, threads, model).unwrap();
        assert_eq!(serial.vars.len(), parallel.vars.len());
        for (s, p) in serial.vars.iter().zip(&parallel.vars) {
            assert_eq!(s.name, p.name);
            assert_eq!(
                s.significance_raw.to_bits(),
                p.significance_raw.to_bits(),
                "MC significance of {} diverged at {threads} threads",
                s.name
            );
        }
    }
}

#[test]
fn fisheye_grid_matches_serial_per_pixel_loop() {
    let lens = fisheye::Lens::for_image(1280, 960);
    let (gw, gh) = (8usize, 6);
    // The hand-rolled serial loop the grid replaces.
    let mut expected = Vec::with_capacity(gw * gh);
    for gy in 0..gh {
        for gx in 0..gw {
            let u = (gx as f64 + 0.5) * lens.width as f64 / gw as f64;
            let v = (gy as f64 + 0.5) * lens.height as f64 / gh as f64;
            expected.push(fisheye::analysis_inverse_mapping(&lens, u, v).unwrap());
        }
    }
    for threads in [1, 2, 8] {
        let engine = ParallelAnalysis::new(threads);
        let got =
            fisheye::analysis_inverse_mapping_grid_lanes::<DEFAULT_LANES>(&lens, gw, gh, &engine)
                .unwrap();
        assert_eq!(got.len(), expected.len());
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(e.to_bits(), g.to_bits(), "pixel {i} diverged at {threads} threads");
        }
    }
}

#[test]
fn dct_blocks_match_serial_analysis() {
    let base = dct::natural_test_block();
    // A few distinct blocks derived from the natural test block.
    let blocks: Vec<_> = (0..3)
        .map(|k| {
            let mut b = base;
            for row in &mut b {
                for p in row.iter_mut() {
                    *p = (*p + 7.0 * k as f64).min(255.0);
                }
            }
            b
        })
        .collect();
    let batch = |threads| {
        dct::analysis_blocks_lanes::<DEFAULT_LANES>(&blocks, 8.0, &ParallelAnalysis::new(threads))
            .unwrap()
    };
    let serial = batch(1);
    let parallel = batch(2);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        for (v, (srow, prow)) in s.iter().zip(p).enumerate() {
            for (u, (a, b)) in srow.iter().zip(prow).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "coefficient ({v},{u}) diverged in block {i}"
                );
            }
        }
    }
    // And the batch agrees with the standalone single-block analysis.
    let pipeline = dct::Pipeline::new(8.0).unwrap();
    let standalone = dct::coefficient_map(&pipeline.report(&blocks[0]).unwrap());
    for (srow, prow) in standalone.iter().zip(&serial[0]) {
        for (a, b) in srow.iter().zip(prow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// The five ratios of the Fig. 7 sweep.
const SWEEP_RATIOS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 1.0];

/// Runs one `tasked` kernel at every sweep ratio on a one-worker and a
/// three-worker executor and asserts bit-identical output and equal
/// execution statistics (hence equal modelled energy).
fn assert_sweep_thread_invariant(
    kernel: &str,
    run: impl Fn(&Executor, f64) -> (Vec<f64>, ExecutionStats),
) {
    let (one, three) = (Executor::new(1), Executor::new(3));
    for ratio in SWEEP_RATIOS {
        let (serial, serial_stats) = run(&one, ratio);
        let (parallel, parallel_stats) = run(&three, ratio);
        assert_eq!(serial.len(), parallel.len(), "{kernel} at ratio {ratio}");
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "{kernel} output {i} diverged at ratio {ratio}"
            );
        }
        assert_eq!(
            serial_stats, parallel_stats,
            "{kernel} stats diverged at ratio {ratio}"
        );
    }
}

// Inputs below are the `fig7_sweep --small` workloads.

#[test]
fn sobel_sweep_is_bit_identical_across_thread_counts() {
    let img = SyntheticImage::GaussianBlobs.render(96, 96, 101);
    assert_sweep_thread_invariant("sobel", |executor, ratio| {
        let (out, stats) = sobel::tasked(&img, executor, ratio);
        (out.pixels().to_vec(), stats)
    });
}

#[test]
fn dct_sweep_is_bit_identical_across_thread_counts() {
    let img = SyntheticImage::GaussianBlobs.render(96, 96, 202);
    assert_sweep_thread_invariant("dct", |executor, ratio| {
        let (out, stats) = dct::tasked(&img, executor, ratio);
        (out.pixels().to_vec(), stats)
    });
}

#[test]
fn fisheye_sweep_is_bit_identical_across_thread_counts() {
    let img = SyntheticImage::ValueNoise.render(160, 120, 303);
    let lens = fisheye::Lens::for_image(160, 120);
    assert_sweep_thread_invariant("fisheye", |executor, ratio| {
        let (out, stats) = fisheye::tasked_with_blocks(&img, &lens, executor, ratio, 32, 24);
        (out.pixels().to_vec(), stats)
    });
}

#[test]
fn nbody_sweep_is_bit_identical_across_thread_counts() {
    let params = nbody::Params::small();
    assert_sweep_thread_invariant("nbody", |executor, ratio| {
        let (state, stats) = nbody::tasked(&params, executor, ratio);
        (state.flatten(), stats)
    });
}

#[test]
fn blackscholes_sweep_is_bit_identical_across_thread_counts() {
    let options = blackscholes::generate_options(4096, 404);
    assert_sweep_thread_invariant("blackscholes", |executor, ratio| {
        blackscholes::tasked(&options, 256, executor, ratio)
    });
}
