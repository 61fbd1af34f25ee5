//! End-to-end test of the closed-loop harness: `fig7_sweep --adaptive`
//! must produce a `BENCH_adaptive.json` whose non-flat kernels meet
//! their targets at no more energy than the best static ratio, with
//! the controller's decision sequence exported as `ratio_decision`
//! events.

use std::path::PathBuf;
use std::process::Command;

use scorpio_obs::json::{parse, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scorpio_adaptive_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn read_json(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Runs the small traced `fig7_sweep --adaptive` into a fresh temp dir
/// and returns the dir with its parsed `BENCH_adaptive.json`.
fn run_adaptive_sweep(tag: &str) -> (PathBuf, Value) {
    let dir = temp_dir(tag);
    let status = Command::new(env!("CARGO_BIN_EXE_fig7_sweep"))
        .args(["--small", "--threads", "1", "--reps", "1", "--adaptive", "--trace"])
        .arg(dir.join("trace.json"))
        .arg("--out-dir")
        .arg(&dir)
        .status()
        .expect("run fig7_sweep");
    assert!(status.success(), "fig7_sweep failed: {status}");

    let report = read_json(&dir.join("BENCH_adaptive.json"));
    assert_eq!(
        report.get("schema").and_then(Value::as_str),
        Some("scorpio-adaptive-v1")
    );
    (dir, report)
}

#[test]
fn bench_adaptive_sobel_meets_target_and_exports_decisions() {
    let (dir, report) = run_adaptive_sweep("sobel");
    let kernels = report.get("kernels").and_then(Value::as_arr).unwrap();
    let sobel = kernels
        .iter()
        .find(|k| k.get("name").and_then(Value::as_str) == Some("sobel"))
        .expect("sobel adapts");
    assert_eq!(sobel.get("non_flat"), Some(&Value::Bool(true)));
    assert_eq!(sobel.get("target_met"), Some(&Value::Bool(true)));
    assert_eq!(sobel.get("dominates"), Some(&Value::Bool(true)));
    let adaptive = sobel.get("adaptive").expect("adaptive outcome");
    assert_eq!(adaptive.get("converged"), Some(&Value::Bool(true)));
    let final_ratio = adaptive.get("final_ratio").and_then(Value::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&final_ratio), "ratio {final_ratio}");
    let static_energy = sobel
        .get("best_static")
        .and_then(|s| s.get("energy_j"))
        .and_then(Value::as_f64)
        .expect("sobel has a target-meeting static point");
    let adaptive_energy = adaptive.get("energy_j").and_then(Value::as_f64).unwrap();
    assert!(
        adaptive_energy <= static_energy * (1.0 + 1e-9),
        "adaptive {adaptive_energy} J vs static {static_energy} J"
    );

    // The controller's decision sequence is part of the exported run:
    // every sobel observation shows up as a ratio_decision event.
    let events = std::fs::read_to_string(dir.join("EVENTS_fig7_sweep.jsonl"))
        .expect("events log");
    let decisions: Vec<&str> = events
        .lines()
        .filter(|l| {
            l.contains("\"event\":\"ratio_decision\"") && l.contains("\"label\":\"sobel\"")
        })
        .collect();
    let steps = adaptive.get("steps").and_then(Value::as_f64).unwrap() as usize;
    assert_eq!(decisions.len(), steps, "one event per observation");
    assert!(
        decisions.last().unwrap().contains("\"decision\":\"converged\""),
        "last decision: {:?}",
        decisions.last()
    );
    // The run manifest embeds the same decision records.
    let manifest =
        std::fs::read_to_string(dir.join("RUN_fig7_sweep.json")).expect("run manifest");
    assert!(manifest.contains("ratio_decision"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kernel adapts and passes its own gate, every controller
/// decision is exported, and the event log loses nothing.
#[test]
fn fig7_sweep_adaptive_covers_all_kernels_and_passes_its_own_gate() {
    let (dir, report) = run_adaptive_sweep("fig7");
    let events = std::fs::read_to_string(dir.join("EVENTS_fig7_sweep.jsonl"))
        .expect("events log");
    assert!(!events.contains("\"event\":\"task\""), "no per-task rows");

    let kernels = report.get("kernels").and_then(Value::as_arr).unwrap();
    assert_eq!(kernels.len(), 5, "all five benchmarks adapt");
    for k in kernels {
        let name = k.get("name").and_then(Value::as_str).unwrap();
        assert_eq!(
            k.get("dominates"),
            Some(&Value::Bool(true)),
            "{name} does not dominate its best static ratio"
        );
        let adaptive = k.get("adaptive").expect("adaptive outcome");
        let final_ratio = adaptive.get("final_ratio").and_then(Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&final_ratio), "{name} ratio {final_ratio}");

        // The controller's decision sequence is part of the exported
        // run: one ratio_decision event per observation, the last one
        // converged.
        let label = format!("\"label\":\"{name}\"");
        let decisions: Vec<&str> = events
            .lines()
            .filter(|l| l.contains("\"event\":\"ratio_decision\"") && l.contains(&label))
            .collect();
        let steps = adaptive.get("steps").and_then(Value::as_f64).unwrap() as usize;
        assert_eq!(decisions.len(), steps, "{name}: one event per observation");
        assert!(
            decisions.last().unwrap().contains("\"decision\":\"converged\""),
            "{name} last decision: {:?}",
            decisions.last()
        );

        if k.get("non_flat") != Some(&Value::Bool(true)) {
            continue;
        }
        assert_eq!(k.get("target_met"), Some(&Value::Bool(true)), "{name}");
        assert_eq!(adaptive.get("converged"), Some(&Value::Bool(true)), "{name}");
        let static_energy = k
            .get("best_static")
            .and_then(|s| s.get("energy_j"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} has a target-meeting static point"));
        let adaptive_energy = adaptive.get("energy_j").and_then(Value::as_f64).unwrap();
        assert!(
            adaptive_energy <= static_energy * (1.0 + 1e-9),
            "{name}: adaptive {adaptive_energy} J vs static {static_energy} J"
        );
    }
    let sobel = kernels
        .iter()
        .find(|k| k.get("name").and_then(Value::as_str) == Some("sobel"))
        .expect("sobel adapts");
    assert_eq!(sobel.get("non_flat"), Some(&Value::Bool(true)));

    // The run manifest embeds the same decision records.
    let manifest =
        std::fs::read_to_string(dir.join("RUN_fig7_sweep.json")).expect("run manifest");
    assert!(manifest.contains("ratio_decision"));

    // The event log kept everything, so neither report is degraded.
    let qor = read_json(&dir.join("BENCH_qor.json"));
    assert_eq!(qor.get("degraded"), Some(&Value::Bool(false)), "QoR report");
    assert_eq!(report.get("degraded"), Some(&Value::Bool(false)), "adaptive report");

    // Self-comparison through the scorpio_diff gate is clean.
    let status = Command::new(env!("CARGO_BIN_EXE_scorpio_diff"))
        .arg(dir.join("BENCH_adaptive.json"))
        .arg(dir.join("BENCH_adaptive.json"))
        .args(["--gate", "--quality-only"])
        .status()
        .expect("run scorpio_diff");
    assert!(status.success(), "self-gate failed: {status}");

    let _ = std::fs::remove_dir_all(&dir);
}
