//! Integration tests for the observability layer against a real kernel
//! run: the run manifest must contain every phase the pipeline
//! registers, round-trip through the `scorpio-obs` JSON writer/parser,
//! and the Chrome trace export must be valid.
//!
//! `scorpio-obs` state is process-global, so every test serialises on
//! one mutex and resets the sink before starting.

use std::sync::Mutex;

use scorpio::kernels::maclaurin;
use scorpio::obs;
use scorpio::runtime::Executor;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Runs the full Maclaurin pipeline (analysis → Algorithm 1 →
/// ratio-driven execution) inside a session and returns its manifest.
fn instrumented_kernel_run() -> obs::RunManifest {
    let session = obs::RunSession::start("itest_maclaurin");
    let report = maclaurin::analysis(0.49, 8).expect("analysis");
    let partition = report.partition();
    assert_eq!(partition.cut_level, Some(1));
    let executor = Executor::new(2);
    let (value, _stats) = maclaurin::tasked(0.49, 8, &executor, 0.5);
    assert!(value.is_finite());
    let config = vec![
        ("x0".to_owned(), "0.49".to_owned()),
        ("n".to_owned(), "8".to_owned()),
    ];
    let manifest = session.manifest(2, &config);
    obs::disable();
    manifest
}

/// The phases every Maclaurin pipeline run registers — the golden
/// expectation for the manifest's phase tree. Span nesting may differ
/// across refactors, so membership (not position) is checked.
const GOLDEN_PHASES: &[&str] = &[
    "kernel.maclaurin.analysis",
    "record",
    "reverse",
    "significance",
    "simplify",
    "partition",
    "kernel.maclaurin.tasked",
    "taskwait",
    "task_execution",
];

#[test]
fn kernel_manifest_contains_all_registered_phases() {
    let _guard = lock();
    let manifest = instrumented_kernel_run();

    let names = manifest.phase_names();
    for phase in GOLDEN_PHASES {
        assert!(
            names.iter().any(|n| n == phase),
            "manifest is missing phase {phase:?}; got {names:?}"
        );
    }

    // Counters from the record sweep and the task runtime made it in.
    let counter = |name: &str| {
        manifest
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing counter {name:?}"))
            .value
    };
    assert!(counter("analysis.nodes_recorded") > 0);
    let executed =
        counter("tasks.accurate") + counter("tasks.approximate") + counter("tasks.dropped");
    assert!(executed > 0, "no tasks accounted");

    // The per-level variance histogram was fed by the partition walk.
    assert!(
        manifest
            .histograms
            .iter()
            .any(|h| h.name == "partition.level_variance" && h.count > 0),
        "partition.level_variance histogram missing or empty"
    );

    // Timing sanity: the root phases on the session thread cannot
    // exceed the wall clock.
    assert!(manifest.wall_clock_ns > 0);
    assert!(manifest.phase_total_ns > 0);
    assert!(manifest.phase_total_ns <= manifest.wall_clock_ns);

    obs::reset();
}

#[test]
fn kernel_manifest_round_trips_through_serde() {
    let _guard = lock();
    let manifest = instrumented_kernel_run();

    let json = manifest.to_json();
    let value = obs::json::parse(&json).expect("manifest JSON parses");

    // Golden top-level schema.
    for key in [
        "name",
        "git",
        "threads",
        "config",
        "wall_clock_ns",
        "phase_total_ns",
        "phases",
        "counters",
        "histograms",
        "task_events",
        "task_events_dropped",
    ] {
        assert!(value.get(key).is_some(), "manifest JSON is missing {key:?}");
    }

    // The tasked run executed under tracing, so the event log is
    // populated and each record carries the flat event schema.
    let events = value.get("task_events").and_then(|v| v.as_arr()).expect("task_events array");
    assert!(!events.is_empty(), "no task events in manifest");
    for e in events {
        for key in ["seq", "t_ns", "event", "label", "worker"] {
            assert!(e.get(key).is_some(), "task event missing {key:?}");
        }
    }
    assert_eq!(value.get("task_events_dropped").and_then(|v| v.as_f64()), Some(0.0));

    assert_eq!(value.get("name").and_then(|v| v.as_str()), Some("itest_maclaurin"));
    assert_eq!(value.get("threads").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(
        value.get("wall_clock_ns").and_then(|v| v.as_f64()),
        Some(manifest.wall_clock_ns as f64)
    );

    // Every phase in the tree survives the round trip.
    fn collect_names(node: &obs::json::Value, out: &mut Vec<String>) {
        if let Some(name) = node.get("name").and_then(|v| v.as_str()) {
            out.push(name.to_owned());
        }
        if let Some(children) = node.get("children").and_then(|v| v.as_arr()) {
            for c in children {
                collect_names(c, out);
            }
        }
    }
    let mut parsed_names = Vec::new();
    for root in value.get("phases").and_then(|v| v.as_arr()).expect("phases array") {
        collect_names(root, &mut parsed_names);
    }
    assert_eq!(parsed_names, manifest.phase_names());

    // Counters survive with exact values.
    let counters = value.get("counters").and_then(|v| v.as_arr()).expect("counters");
    assert_eq!(counters.len(), manifest.counters.len());
    for (parsed, original) in counters.iter().zip(&manifest.counters) {
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some(original.name.as_str()));
        assert_eq!(
            parsed.get("value").and_then(|v| v.as_f64()),
            Some(original.value as f64)
        );
    }

    obs::reset();
}

#[test]
fn kernel_chrome_trace_is_valid() {
    let _guard = lock();
    let _manifest = instrumented_kernel_run();

    let events = obs::take_events();
    assert!(!events.is_empty());
    let trace = obs::chrome_trace_json(&events);
    let value = obs::json::parse(&trace).expect("chrome trace parses");
    let trace_events = value
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), events.len());
    for e in trace_events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(e.get(key).is_some(), "trace event missing {key:?}");
        }
    }

    obs::reset();
}
