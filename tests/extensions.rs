//! Integration tests for the extension features: ratio autotuning on a
//! real kernel, machine-readable report export, DynDFG liveness, and the
//! input-range sweep over a benchmark analysis.

use scorpio::adjoint::Tape;
use scorpio::analysis::sweep::sweep_input_scale;
use scorpio::analysis::Analysis;
use scorpio::kernels::{maclaurin, sobel};
use scorpio::quality::{psnr_images, SyntheticImage};
use scorpio::runtime::controller::{calibrate_ratio, QualityTarget};
use scorpio::runtime::Executor;

#[test]
fn autotune_sobel_to_psnr_target() {
    let executor = Executor::new(4);
    let img = SyntheticImage::ValueNoise.render(64, 64, 55);
    let reference = sobel::reference(&img);

    let target = 40.0;
    let calibration = calibrate_ratio(
        |ratio| {
            let (out, _) = sobel::tasked(&img, &executor, ratio);
            psnr_images(&reference, &out).min(1e6)
        },
        QualityTarget::AtLeast(target),
        0.05,
    );

    let ratio = calibration.ratio.expect("target reachable at ratio 1");
    assert!(calibration.quality >= target);
    // A cheaper setting (one tolerance step below) must miss the target —
    // minimality of the found knob.
    if ratio > 0.06 {
        let (out, _) = sobel::tasked(&img, &executor, ratio - 0.06);
        assert!(
            psnr_images(&reference, &out) < target,
            "found ratio was not minimal"
        );
    }
    // Bisection stays cheap.
    assert!(calibration.evaluations.len() <= 8);
}

#[test]
fn report_export_round_trip() {
    let report = maclaurin::analysis(0.49, 5).unwrap();

    let json = report.to_json();
    for i in 0..5 {
        assert!(json.contains(&format!("\"term{i}\"")), "missing term{i}");
    }
    assert!(json.contains("\"significance\""));

    let csv = report.to_csv();
    // Header + 1 input + 5 terms + 1 output.
    assert_eq!(csv.lines().count(), 8);
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 8));

    let record = report.to_record();
    assert_eq!(record.vars.len(), 7);
    assert_eq!(record.tape_len, report.tape_len());
}

#[test]
fn liveness_spots_discarded_work() {
    // A kernel computing something it never uses: the analysis scores it
    // zero AND the tape liveness flags it dead — the two signals the
    // docs say to combine.
    let tape = Tape::<scorpio::interval::Interval>::new();
    let x = tape.var(scorpio::interval::Interval::new(0.0, 1.0));
    let dead = x.exp().sin(); // 2 dead nodes
    let y = x.sqr();
    let summary = tape.dead_count(&[y.id()]);
    assert_eq!(summary.dead, 2);
    assert_eq!(summary.live, 2);
    let live = tape.live_nodes(&[y.id()]);
    assert!(!live[dead.id().index()]);
}

#[test]
fn range_sweep_on_maclaurin_is_stable() {
    // The Maclaurin ranking (Fig. 3) is robust across input widths — a
    // single analysis run generalises, which is why the paper's single
    // profile sufficed for this benchmark.
    let sweep = sweep_input_scale(&Analysis::new(), &[0.25, 0.5, 1.0], 1, |ctx| {
        let x = ctx.input_centered("x", 0.49, 0.5);
        let mut acc = ctx.constant(0.0);
        for i in 0..5 {
            let t = x.powi(i);
            ctx.intermediate(&t, format!("term{i}"));
            acc = acc + t;
        }
        ctx.output(&acc, "y");
        Ok(())
    })
    .unwrap();
    assert_eq!(sweep.ranking_stability(), 1.0);
    // Raw significances still grow with width.
    let t1 = sweep.trajectory("term1").unwrap();
    assert!(t1.iter().all(|s| s.is_finite()));
}

#[test]
fn autotune_error_metric_on_maclaurin() {
    let executor = Executor::new(2);
    let exact = maclaurin::reference(0.49, 24);
    let calibration = calibrate_ratio(
        |ratio| {
            let (y, _) = maclaurin::tasked(0.49, 24, &executor, ratio);
            (y - exact).abs() / exact.abs()
        },
        QualityTarget::AtMost(1e-9),
        0.05,
    );
    let ratio = calibration.ratio.expect("exactness reachable at ratio 1");
    assert!(calibration.quality <= 1e-9);
    assert!(ratio > 0.0, "fast_pow error exceeds 1e-9, some accuracy needed");
}
