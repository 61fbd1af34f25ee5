//! Golden bytes of every JSON writer: one value of each served response
//! type, a run manifest, the event JSONL and the four gated bench
//! reports, each written from fixed inputs and compared byte for byte
//! with the checked-in files under `tests/golden/`. A change to a
//! writer that moves one byte of any artifact fails here.

use scorpio_core::{Analysis, NodeRecord, ReportRecord, VarRecord};
use scorpio_obs::{
    events_jsonl, ConfigEntry, CounterSnapshot, DecisionClass, EventKind, HistogramSnapshot,
    PhaseNode, RunManifest, TaskEvent,
};
use scorpio_serve::protocol::{
    response_line, vars_to_record, AckResponse, AnalyzeResponse, CacheStatsRecord, ErrorResponse,
    ExemplarRecord, ExemplarsResponse, KernelCountRecord, KernelWindowRecord, MetricsResponse,
    ReplayStatsRecord, SpanRecord, StatsResponse, TaskRecord, WindowResponse, WindowSpanRecord,
};

/// Asserts `actual` equals the golden file `name`, naming the first
/// differing byte.
fn check(name: &str, actual: &str, golden: &str) {
    if actual != golden {
        let at = actual
            .bytes()
            .zip(golden.bytes())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.len().min(golden.len()));
        panic!(
            "{name}: bytes differ from byte {at}\n  actual: {}\n  golden: {}",
            &actual[at.saturating_sub(40)..(at + 40).min(actual.len())],
            &golden[at.saturating_sub(40)..(at + 40).min(golden.len())],
        );
    }
}

macro_rules! golden {
    ($file:literal) => {
        include_str!(concat!("../tests/golden/", $file))
    };
}

/// `y = 2·exp(x)` with an input name that needs escaping.
fn report() -> scorpio_core::Report {
    Analysis::new()
        .run(|ctx| {
            let x = ctx.input("p[\"0\"]\n\t\\", 0.0, 1.0);
            let t = x.exp();
            ctx.intermediate(&t, "t");
            ctx.output(&(t * 2.0), "y");
            Ok(())
        })
        .unwrap()
}

/// A hand-made record with every special value a report can carry:
/// no level, no name, an empty `preds`, NaN and ±∞ bounds.
fn special_record() -> ReportRecord {
    ReportRecord {
        tape_len: 2,
        output_significance_raw: f64::NAN,
        vars: vec![VarRecord {
            name: "\u{1}é\"".to_owned(),
            kind: "output",
            enclosure: [f64::NEG_INFINITY, f64::INFINITY],
            derivative: [-0.0, 5e-324],
            significance_raw: f64::NAN,
            significance: 1.0,
        }],
        nodes: vec![NodeRecord {
            id: 1,
            op: "const".to_owned(),
            preds: Vec::new(),
            significance: 0.1,
            level: None,
            name: None,
            is_output: false,
        }],
    }
}

fn analyze(reports: Vec<ReportRecord>) -> String {
    response_line(&AnalyzeResponse {
        id: 7,
        ok: true,
        trace_id: "00000000000000ab".to_owned(),
        kernel: "maclaurin",
        cached: false,
        server_ns: 12_345,
        tasks: vec![
            TaskRecord {
                task_id: 0,
                significance: 0.75,
                class: "accurate".to_owned(),
            },
            TaskRecord {
                task_id: 1,
                significance: 1e-300,
                class: "approximate".to_owned(),
            },
        ],
        reports,
    })
}

fn events() -> Vec<TaskEvent> {
    let event = |seq: u64, trace_id: u64, kind: EventKind| TaskEvent {
        seq,
        t_ns: 1_000 * seq,
        worker: seq % 2,
        label: format!("kernel \"{seq}\""),
        trace_id,
        kind,
    };
    vec![
        event(
            0,
            0xab,
            EventKind::Taskwait {
                requested_ratio: 0.5,
                achieved_ratio: 0.5625,
                accurate: 9,
                approximate: 7,
                dropped: 0,
                duration_ns: 42_000,
            },
        ),
        event(1, 0, EventKind::Ratio { requested: 0.25 }),
        event(2, 0, EventKind::Phase { duration_ns: 7 }),
        event(
            3,
            u64::MAX,
            EventKind::RatioDecision {
                step: 4,
                ratio_before: 0.5,
                ratio_after: 0.5,
                signal: f64::NAN,
                decision: DecisionClass::NonFinite,
            },
        ),
    ]
}

#[test]
fn analyze_responses_match_golden_bytes() {
    let report = report();
    let vars = analyze(vec![vars_to_record(&report), special_record()]);
    check("analyze_vars.json", &vars, golden!("analyze_vars.json"));
    assert!(vars.contains(r#""nodes":[]"#), "empty Vec");
    let full = analyze(vec![report.to_record()]);
    check("analyze_full.json", &full, golden!("analyze_full.json"));
    assert!(
        full.ends_with(&format!("{}]}}", report.to_json())),
        "served = direct"
    );
}

#[test]
fn control_responses_match_golden_bytes() {
    let error = response_line(&ErrorResponse {
        id: 3,
        ok: false,
        error: "bad \"kernel\"\n".to_owned(),
    });
    let stats = response_line(&StatsResponse {
        id: 8,
        ok: true,
        workers: 2,
        uptime_ms: 1_500,
        events_dropped: 0,
        spans_dropped: 3,
        requests: 10,
        errors: 1,
        cache: CacheStatsRecord {
            hits: 6,
            misses: 3,
            insertions: 3,
            evictions: 0,
            len: 3,
            capacity: 64,
            hit_rate: 6.0 / 9.0,
        },
        replay: ReplayStatsRecord {
            replays: 40,
            records: 3,
            fallbacks: 0,
            lane_blocks: 9,
            lane_remainder: 4,
        },
        kernels: vec![
            KernelCountRecord {
                kernel: "dct",
                requests: 5,
                errors: 0,
            },
            KernelCountRecord {
                kernel: "nbody",
                requests: 4,
                errors: 1,
            },
        ],
    });
    let metrics = response_line(&MetricsResponse {
        id: 11,
        ok: true,
        format: "prometheus-text-0.0.4",
        body: "# TYPE x counter\nx 1\n".to_owned(),
    });
    let span = |span: &'static str, requests: u64| WindowSpanRecord {
        span,
        requests,
        errors: 0,
        rate_per_s: requests as f64 / 10.0,
        error_rate: if requests == 0 { f64::NAN } else { 0.0 },
        p50_ns: if requests == 0 { f64::NAN } else { 125_000.5 },
        p90_ns: f64::INFINITY,
        p99_ns: f64::NEG_INFINITY,
        cache_lookups: requests,
        cache_hits: requests / 2,
        cache_hit_rate: 0.5,
        requested_ratio: 0.3,
        achieved_ratio: 1.0 / 3.0,
    };
    let window = response_line(&WindowResponse {
        id: 12,
        ok: true,
        uptime_ms: 60_000,
        kernels: vec![
            KernelWindowRecord {
                kernel: "sobel".to_owned(),
                spans: vec![span("10s", 4), span("1m", 0)],
            },
            KernelWindowRecord {
                kernel: "empty".to_owned(),
                spans: Vec::new(),
            },
        ],
    });
    let exemplars = response_line(&ExemplarsResponse {
        id: 13,
        ok: true,
        exemplars: vec![ExemplarRecord {
            trace_id: "00000000000000ab".to_owned(),
            kernel: "dct",
            ok: false,
            cached: true,
            latency_ns: 9_000_000,
            end_t_ns: 123_456_789,
            spans: vec![SpanRecord {
                path: "serve.request/replay".to_owned(),
                name: "replay".to_owned(),
                start_ns: 100,
                dur_ns: 2_500,
                tid: 1,
                depth: 1,
            }],
            events: events().iter().map(TaskEvent::to_record).collect(),
        }],
        passed: 17,
    });
    let ack = response_line(&AckResponse { id: 9, ok: true });
    check("error.json", &error, golden!("error.json"));
    check("stats.json", &stats, golden!("stats.json"));
    check("metrics.json", &metrics, golden!("metrics.json"));
    check("window.json", &window, golden!("window.json"));
    check("exemplars.json", &exemplars, golden!("exemplars.json"));
    check("ack.json", &ack, golden!("ack.json"));
    assert!(window.contains(r#""error_rate":null"#), "NaN");
    assert!(window.contains(r#""p90_ns":1e999,"p99_ns":-1e999"#), "±inf");
    assert!(window.contains(r#""spans":[]"#), "empty Vec");
}

#[test]
fn manifest_and_events_match_golden_bytes() {
    let manifest = RunManifest {
        name: "golden".to_owned(),
        git: "deadbeef-dirty".to_owned(),
        threads: 2,
        config: vec![ConfigEntry {
            key: "image \"a\"".to_owned(),
            value: "32\t32".to_owned(),
        }],
        wall_clock_ns: 5_000_000,
        phase_total_ns: 4_500_000,
        phases: vec![PhaseNode {
            name: "sweep".to_owned(),
            total_ns: 4_500_000,
            count: 1,
            children: vec![PhaseNode {
                name: "taskwait".to_owned(),
                total_ns: 4_000_000,
                count: 3,
                children: Vec::new(),
            }],
        }],
        counters: vec![CounterSnapshot {
            name: "tasks.accurate".to_owned(),
            value: 9,
        }],
        histograms: vec![
            HistogramSnapshot {
                name: "empty".to_owned(),
                count: 0,
                non_positive: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            },
            HistogramSnapshot {
                name: "latency".to_owned(),
                count: 3,
                non_positive: 1,
                sum: 2.5,
                min: 0.5,
                max: 2.0,
            },
        ],
        task_events: events().iter().map(TaskEvent::to_record).collect(),
        task_events_dropped: 0,
        degraded: false,
    };
    let json = manifest.to_json();
    check("manifest.json", &json, golden!("manifest.json"));
    assert!(json.contains(r#""min":1e999,"max":-1e999"#), "±inf");
    let jsonl = events_jsonl(&events());
    check("events.jsonl", &jsonl, golden!("events.jsonl"));
    assert!(jsonl.contains(r#""trace_id":null"#), "None");
    assert!(jsonl.contains(r#""signal":null"#), "NaN");
}

#[test]
fn gated_reports_match_golden_bytes() {
    let qor = crate::qor::fixture(1.0, 0.0).to_json();
    check("qor.json", &qor, golden!("qor.json"));
    assert!(
        qor.contains(r#""samples":[1000,1010,990,1005,995]}"#),
        "samples"
    );
    assert!(qor.contains(r#""better":"lower","value":2}"#), "no samples");
    let adaptive = crate::adaptive::fixture(false, true, 5).to_json();
    check("adaptive.json", &adaptive, golden!("adaptive.json"));
    assert!(adaptive.contains(r#""converged_step":null"#), "None");
    check(
        "jpeg.json",
        &crate::jpeg::fixture(true, 0.0).to_json(),
        golden!("jpeg.json"),
    );
    check(
        "obs.json",
        &crate::obs::fixture(true).to_json(),
        golden!("obs.json"),
    );
}
