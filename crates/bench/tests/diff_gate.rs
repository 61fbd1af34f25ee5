//! End-to-end tests of the `scorpio_diff` binary: the regression gate
//! must fail (exit 1) on a synthetically injected slowdown, a quality
//! loss or a dropped kernel, and pass (exit 0) on self-comparison.

use std::path::PathBuf;
use std::process::Command;

use scorpio_bench::{QorKernel, QorPoint, QorReport, QOR_SCHEMA};

/// Builds a three-kernel QoR report; `time_scale` multiplies every
/// timing sample, `quality_delta` shifts the PSNR-like metric.
fn report(time_scale: f64, quality_delta: f64) -> QorReport {
    let kernel = |name: &str, higher: bool| QorKernel {
        name: name.to_owned(),
        metric: if higher { "psnr_db" } else { "rel_error" }.to_owned(),
        higher_is_better: higher,
        points: [0.0, 0.5, 1.0]
            .iter()
            .map(|&ratio| QorPoint {
                ratio,
                quality: if higher {
                    30.0 + 10.0 * ratio + quality_delta
                } else {
                    (1e-3 * (1.0 - ratio)).max(1e-18)
                },
                energy_j: 1.0 + ratio,
                achieved_ratio: ratio,
                accurate: (ratio * 10.0) as u64,
                approximate: 10 - (ratio * 10.0) as u64,
                dropped: 0,
                // Tight samples: ±1% noise, so a 10% shift is
                // unambiguous to the t-test.
                time_ns_samples: [10_000.0, 10_100.0, 9_900.0, 10_050.0, 9_950.0]
                    .iter()
                    .map(|t| (t * time_scale) as u64)
                    .collect(),
            })
            .collect(),
    };
    QorReport {
        schema: QOR_SCHEMA.to_owned(),
        name: "diff_gate_test".to_owned(),
        git: "test".to_owned(),
        threads: 1,
        reps: 5,
        small: true,
        degraded: false,
        kernels: vec![
            kernel("sobel", true),
            kernel("dct", true),
            kernel("nbody", false),
        ],
    }
}

fn write_report(dir: &std::path::Path, name: &str, r: &QorReport) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, r.to_json()).expect("write report");
    path
}

fn scorpio_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scorpio_diff"))
        .args(args)
        .output()
        .expect("run scorpio_diff")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scorpio_diff_gate_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gate_passes_on_self_comparison() {
    let dir = temp_dir("self");
    let base = write_report(&dir, "base.json", &report(1.0, 0.0));
    let out = scorpio_diff(&[
        base.to_str().unwrap(),
        base.to_str().unwrap(),
        "--gate",
        "--threshold",
        "5",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "self-comparison must pass the gate:\n{stdout}"
    );
    assert!(stdout.contains("0 regression(s)"), "{stdout}");
    assert!(stdout.contains("gate: passed"), "{stdout}");
}

#[test]
fn gate_fails_on_injected_slowdown() {
    let dir = temp_dir("slow");
    let base = write_report(&dir, "base.json", &report(1.0, 0.0));
    let slow = write_report(&dir, "slow.json", &report(1.10, 0.0));
    let out = scorpio_diff(&[
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--gate",
        "--threshold",
        "5",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "10% slowdown must fail the gate:\n{stdout}"
    );
    assert!(stdout.contains("gate: FAILED"), "{stdout}");
    assert!(stdout.contains("time_ns"), "{stdout}");
}

#[test]
fn quality_only_ignores_timing_but_catches_quality_loss() {
    let dir = temp_dir("quality");
    let base = write_report(&dir, "base.json", &report(1.0, 0.0));
    // Slower but same quality: --quality-only must pass.
    let slow = write_report(&dir, "slow.json", &report(1.5, 0.0));
    let out = scorpio_diff(&[
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--gate",
        "--quality-only",
    ]);
    assert!(
        out.status.success(),
        "--quality-only must ignore timings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Quality loss must still gate.
    let worse = write_report(&dir, "worse.json", &report(1.0, -10.0));
    let out = scorpio_diff(&[
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--gate",
        "--quality-only",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "PSNR drop must fail the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn gate_fails_when_a_baseline_metric_is_missing() {
    let dir = temp_dir("missing");
    let base = write_report(&dir, "base.json", &report(1.0, 0.0));
    let mut fewer = report(1.0, 0.0);
    fewer.kernels.pop();
    let fewer = write_report(&dir, "fewer.json", &fewer);
    let out = scorpio_diff(&[
        base.to_str().unwrap(),
        fewer.to_str().unwrap(),
        "--gate",
        "--quality-only",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a dropped kernel must fail the gate:\n{stdout}"
    );
    assert!(stdout.contains("missing from candidate"), "{stdout}");
}

#[test]
fn bad_input_exits_with_usage_error() {
    let dir = temp_dir("bad");
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "not json").expect("write bogus file");
    let out = scorpio_diff(&[bogus.to_str().unwrap(), bogus.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let out = scorpio_diff(&["one-arg-only"]);
    assert_eq!(out.status.code(), Some(2));
    // Valid JSON without a metrics list: regenerate, don't guess.
    let bare = dir.join("bare.json");
    std::fs::write(&bare, r#"{"schema":"scorpio-qor-v1","kernels":[]}"#).expect("write bare file");
    let out = scorpio_diff(&[bare.to_str().unwrap(), bare.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("regenerate"));
}
