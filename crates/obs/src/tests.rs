//! Unit tests for the observability crate.
//!
//! The sink and registry are process-global, so every test that
//! touches them serialises on [`lock`] and resets state first.

use std::sync::Mutex;

use proptest::prelude::*;

use crate::json::{parse, Value};
use crate::*;

/// Global test lock: obs state is process-wide, and the Rust test
/// harness runs tests on parallel threads.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[test]
fn disabled_span_records_nothing() {
    let _guard = lock();
    reset();
    disable();
    {
        let _s = span("ghost");
    }
    assert!(events_snapshot().is_empty());
    count("ghost_counter", 5);
    // The counter is created lazily only when enabled; look it up
    // directly to show nothing was counted either way.
    assert_eq!(registry().counter("ghost_counter").get(), 0);
}

#[test]
fn span_nesting_builds_paths_and_depths() {
    let _guard = lock();
    reset();
    enable();
    {
        let _a = span("outer");
        {
            let _b = span("middle");
            let _c = span("inner");
        }
        let _d = span("sibling");
    }
    disable();
    let events = take_events();
    let find = |path: &str| {
        events
            .iter()
            .find(|e| e.path == path)
            .unwrap_or_else(|| panic!("missing path {path}: {events:?}"))
    };
    assert_eq!(find("outer").depth, 0);
    assert_eq!(find("outer/middle").depth, 1);
    assert_eq!(find("outer/middle/inner").depth, 2);
    assert_eq!(find("outer/sibling").depth, 1);
    // Children close before parents, so they are recorded first.
    let pos = |path: &str| events.iter().position(|e| e.path == path).unwrap();
    assert!(pos("outer/middle/inner") < pos("outer/middle"));
    assert!(pos("outer/middle") < pos("outer"));
    // A child's interval is contained in its parent's.
    let outer = find("outer");
    let inner = find("outer/middle/inner");
    assert!(inner.start_ns >= outer.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns + 1);
}

#[test]
fn counters_aggregate_across_threads() {
    let _guard = lock();
    reset();
    enable();
    let threads = 8;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    count("agg_test_total", 1);
                }
                count("agg_test_batches", 1);
            });
        }
    });
    disable();
    assert_eq!(
        registry().counter("agg_test_total").get(),
        threads * per_thread
    );
    assert_eq!(registry().counter("agg_test_batches").get(), threads);
}

#[test]
fn histograms_aggregate_across_threads() {
    let _guard = lock();
    reset();
    enable();
    let threads = 4usize;
    let per_thread = 1_000usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Values 1.0 ..= 1000.0, identical per thread.
                    observe("hist_agg_test", (i + 1) as f64);
                    let _ = t;
                }
            });
        }
    });
    disable();
    let h = registry().histogram("hist_agg_test");
    assert_eq!(h.count(), (threads * per_thread) as u64);
    assert_eq!(h.min(), 1.0);
    assert_eq!(h.max(), 1000.0);
    let expected_sum = threads as f64 * (per_thread * (per_thread + 1)) as f64 / 2.0;
    // CAS-addition is exact here: every value is an integer ≤ 2^53.
    assert_eq!(h.sum(), expected_sum);
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
}

#[test]
fn histogram_buckets_follow_log2() {
    assert_eq!(Histogram::bucket_of(1.0), 32);
    assert_eq!(Histogram::bucket_of(2.0), 33);
    assert_eq!(Histogram::bucket_of(3.9), 33);
    assert_eq!(Histogram::bucket_of(0.5), 31);
    assert_eq!(Histogram::bucket_of(0.0), 0);
    assert_eq!(Histogram::bucket_of(-1.0), 0);
    assert_eq!(Histogram::bucket_of(f64::NAN), 0);
    assert_eq!(Histogram::bucket_of(f64::MAX), HISTOGRAM_BUCKETS - 1);
}

#[test]
fn histogram_tracks_non_positive_separately() {
    let _guard = lock();
    reset();
    enable();
    observe("hist_np_test", 2.0);
    observe("hist_np_test", 0.0);
    observe("hist_np_test", f64::NAN);
    disable();
    let h = registry().histogram("hist_np_test");
    assert_eq!(h.count(), 3);
    assert_eq!(h.non_positive(), 2);
    assert_eq!(h.sum(), 2.0);
    assert_eq!(h.mean(), 2.0);
}

#[test]
fn manifest_aggregates_phases_counters_and_wallclock() {
    let _guard = lock();
    let session = RunSession::start("unit");
    {
        let _a = span("alpha");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _b = span("beta");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    {
        let _a = span("alpha"); // second event on the same path
        count("manifest_items", 7);
    }
    let manifest = session.manifest(3, &[("k".to_owned(), "v".to_owned())]);
    disable();

    assert_eq!(manifest.name, "unit");
    assert_eq!(manifest.threads, 3);
    assert_eq!(manifest.config[0].key, "k");
    let alpha = manifest
        .phases
        .iter()
        .find(|p| p.name == "alpha")
        .expect("alpha phase");
    assert_eq!(alpha.count, 2);
    assert_eq!(alpha.children.len(), 1);
    assert_eq!(alpha.children[0].name, "beta");
    assert!(alpha.total_ns >= alpha.children[0].total_ns);
    // Root phases on the session thread account for (almost) the whole
    // wall clock here, and can never exceed it.
    assert!(manifest.phase_total_ns <= manifest.wall_clock_ns);
    assert!(manifest.phase_total_ns > 0);
    assert!(manifest
        .counters
        .iter()
        .any(|c| c.name == "manifest_items" && c.value == 7));
    assert!(manifest.phase_names().contains(&"beta".to_owned()));
}

#[test]
fn manifest_json_round_trips_through_parser() {
    let _guard = lock();
    let session = RunSession::start("roundtrip");
    {
        let _a = span("phase_one");
        observe("rt_hist", 1.5);
    }
    let manifest = session.manifest(1, &[("quick".to_owned(), "true".to_owned())]);
    disable();

    let json = manifest.to_json();
    let v = parse(&json).expect("manifest JSON must parse");
    assert_eq!(v.get("name").and_then(Value::as_str), Some("roundtrip"));
    assert_eq!(v.get("threads").and_then(Value::as_f64), Some(1.0));
    let phases = v.get("phases").and_then(Value::as_arr).unwrap();
    assert!(phases
        .iter()
        .any(|p| p.get("name").and_then(Value::as_str) == Some("phase_one")));
    // Serialising the parsed-equal manifest again is byte-stable.
    assert_eq!(json, manifest.to_json());
}

#[test]
fn chrome_trace_is_valid_json_with_one_event_per_span() {
    let _guard = lock();
    reset();
    enable();
    {
        let _a = span("outer");
        let _b = span_owned("inner dynamic \"quoted\"".to_owned());
    }
    disable();
    let events = take_events();
    let trace = chrome_trace_json(&events);
    let v = parse(&trace).expect("chrome trace must parse");
    let list = v.get("traceEvents").and_then(Value::as_arr).unwrap();
    assert_eq!(list.len(), 2);
    for e in list {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert!(e.get("ts").and_then(Value::as_f64).is_some());
        assert!(e.get("dur").and_then(Value::as_f64).is_some());
        assert!(e.get("name").and_then(Value::as_str).is_some());
    }
    assert!(list
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("inner dynamic \"quoted\"")));
}

#[test]
fn reset_clears_events_and_zeroes_metrics() {
    let _guard = lock();
    reset();
    enable();
    {
        let _s = span("to_clear");
        count("reset_counter", 3);
        observe("reset_hist", 1.0);
        phase_event("to_clear", 10);
    }
    disable();
    assert!(!events_snapshot().is_empty());
    assert!(!task_events_snapshot().is_empty());
    reset();
    assert!(events_snapshot().is_empty());
    assert!(task_events_snapshot().is_empty());
    assert_eq!(registry().counter("reset_counter").get(), 0);
    assert_eq!(registry().histogram("reset_hist").count(), 0);
}

// ───────────────────────── task-event log ─────────────────────────

#[test]
fn disabled_task_event_records_nothing() {
    let _guard = lock();
    reset();
    disable();
    taskwait_event("ghost", 0.5, 0.6, 3, 1, 1, 500);
    ratio_event("ghost", 0.5);
    phase_event("ghost", 1);
    assert!(task_events_snapshot().is_empty());
    assert_eq!(events_dropped(), 0);
}

#[test]
fn task_events_merge_into_one_sequenced_timeline() {
    let _guard = lock();
    reset();
    enable();
    ratio_event("sweep", 0.5);
    phase_event("g", 120);
    taskwait_event("g", 0.5, 2.0 / 3.0, 1, 1, 1, 400);
    disable();
    let events = take_task_events();
    assert_eq!(events.len(), 3);
    // The log is in emission order, numbered by `seq`.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
    assert!(matches!(events[0].kind, EventKind::Ratio { requested } if requested == 0.5));
    assert!(matches!(
        events[1].kind,
        EventKind::Phase { duration_ns: 120 }
    ));
    assert_eq!(events[1].label, "g");
    match events[2].kind {
        EventKind::Taskwait {
            requested_ratio,
            achieved_ratio,
            accurate,
            approximate,
            dropped,
            duration_ns,
        } => {
            assert_eq!(requested_ratio, 0.5);
            assert!((achieved_ratio - 2.0 / 3.0).abs() < 1e-12);
            assert_eq!((accurate, approximate, dropped), (1, 1, 1));
            assert_eq!(duration_ns, 400);
        }
        ref k => panic!("expected taskwait event, got {k:?}"),
    }
    // The drain emptied the log.
    assert!(task_events_snapshot().is_empty());
    reset();
}

/// The durations of the `phase` events labelled `label`, in log order.
fn phase_durations(events: &[TaskEvent], label: &str) -> Vec<u64> {
    events
        .iter()
        .filter(|e| e.label == label)
        .filter_map(|e| match e.kind {
            EventKind::Phase { duration_ns } => Some(duration_ns),
            _ => None,
        })
        .collect()
}

#[test]
fn full_ring_counts_drops_instead_of_losing_silently() {
    let _guard = lock();
    reset();
    enable();
    let emitted = events::LOG_CAP as u64 + 12;
    for i in 0..emitted {
        phase_event("overflow", i);
    }
    disable();
    // The first `LOG_CAP` events survive in order; the rest are counted.
    let events = take_task_events();
    assert_eq!(
        phase_durations(&events, "overflow"),
        (0..events::LOG_CAP as u64).collect::<Vec<_>>()
    );
    assert_eq!(events_dropped(), 12);
    // A drained log has room again; the drop count stays until reset.
    enable();
    phase_event("after_drain", 1);
    disable();
    assert_eq!(take_task_events().len(), 1);
    assert_eq!(events_dropped(), 12);
    reset();
    assert_eq!(events_dropped(), 0);
}

#[test]
fn ratio_decision_events_round_trip_through_ring_and_jsonl() {
    let _guard = lock();
    reset();
    enable();
    ratio_decision_event("adapt", 0, 0.5, 0.64, 21.7, DecisionClass::Stepped);
    ratio_decision_event("adapt", 1, 0.64, 0.64, f64::NAN, DecisionClass::NonFinite);
    ratio_decision_event("adapt", 2, 0.64, 0.64, 25.3, DecisionClass::Converged);
    disable();
    let events = take_task_events();
    assert_eq!(events.len(), 3);
    match events[0].kind {
        EventKind::RatioDecision {
            step,
            ratio_before,
            ratio_after,
            signal,
            decision,
        } => {
            assert_eq!(step, 0);
            assert_eq!(ratio_before, 0.5);
            assert_eq!(ratio_after, 0.64);
            assert_eq!(signal, 21.7);
            assert_eq!(decision, DecisionClass::Stepped);
        }
        ref k => panic!("expected ratio_decision event, got {k:?}"),
    }
    // NaN signals are kept as they were emitted.
    match events[1].kind {
        EventKind::RatioDecision {
            signal, decision, ..
        } => {
            assert!(signal.is_nan());
            assert_eq!(decision, DecisionClass::NonFinite);
        }
        ref k => panic!("expected ratio_decision event, got {k:?}"),
    }
    let record = events[2].to_record();
    assert_eq!(record.event, "ratio_decision");
    assert_eq!(record.step, Some(2));
    assert_eq!(record.decision, Some("converged"));
    let jsonl = events_jsonl(&events);
    let v = parse(jsonl.lines().last().unwrap()).expect("jsonl line parses");
    assert_eq!(v.get("event").and_then(Value::as_str), Some("ratio_decision"));
    assert_eq!(v.get("ratio_after").and_then(Value::as_f64), Some(0.64));
    assert_eq!(v.get("decision").and_then(Value::as_str), Some("converged"));
    reset();
}

#[test]
fn jsonl_export_is_one_parsable_object_per_line() {
    let _guard = lock();
    reset();
    enable();
    ratio_event("kernel \"x\"", 0.2);
    taskwait_event("kernel \"x\"", 0.2, 0.25, 1, 2, 1, 42);
    disable();
    let events = take_task_events();
    let jsonl = events_jsonl(&events);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 2);
    let v = parse(lines[1]).expect("jsonl line parses");
    assert_eq!(v.get("event").and_then(Value::as_str), Some("taskwait"));
    assert_eq!(v.get("label").and_then(Value::as_str), Some("kernel \"x\""));
    assert_eq!(v.get("requested_ratio").and_then(Value::as_f64), Some(0.2));
    assert_eq!(v.get("achieved_ratio").and_then(Value::as_f64), Some(0.25));
    assert_eq!(v.get("approximate").and_then(Value::as_f64), Some(2.0));
    assert_eq!(v.get("duration_ns").and_then(Value::as_f64), Some(42.0));
    // Non-applicable fields serialise as null, keeping one flat schema.
    assert_eq!(v.get("decision"), Some(&Value::Null));
    assert_eq!(v.get("task_id"), None, "no per-task columns");
    reset();
}

#[test]
fn back_to_back_sessions_report_deltas_not_totals() {
    let _guard = lock();
    reset();

    // Session A does 100 units of work and two spans.
    let a = RunSession::start("delta_a");
    {
        let _s = span("work_a");
        count("delta_items", 100);
        observe("delta_hist", 4.0);
        phase_event("a", 5);
    }
    let manifest_a = a.manifest(1, &[]);
    disable();

    // Session B — without any reset in between — does 30 more.
    let b = RunSession::start("delta_b");
    {
        let _s = span("work_b");
        count("delta_items", 30);
        observe("delta_hist", 8.0);
        phase_event("b", 5);
    }
    let manifest_b = b.manifest(1, &[]);
    disable();

    let counter = |m: &RunManifest, name: &str| {
        m.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    assert_eq!(counter(&manifest_a, "delta_items"), 100);
    // The regression this pins: B must see 30, not the global 130.
    assert_eq!(counter(&manifest_b, "delta_items"), 30);

    let hist = |m: &RunManifest, name: &str| {
        m.histograms
            .iter()
            .find(|h| h.name == name)
            .cloned()
            .expect("histogram present")
    };
    assert_eq!(hist(&manifest_b, "delta_hist").count, 1);
    assert_eq!(hist(&manifest_b, "delta_hist").sum, 8.0);

    // Span and event scoping: B only sees its own phase and event.
    assert!(manifest_b.phase_names().contains(&"work_b".to_owned()));
    assert!(!manifest_b.phase_names().contains(&"work_a".to_owned()));
    assert_eq!(manifest_b.task_events.len(), 1);
    assert_eq!(manifest_b.task_events[0].label, "b");
    reset();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Multi-thread stress: with T threads each emitting K events, the
    /// log never loses or reorders events within a thread, and once it
    /// is full the losses are exactly counted.
    #[test]
    fn ring_never_loses_or_reorders_within_a_thread(
        threads in 1usize..6,
        per_thread in 1usize..1000,
    ) {
        let _guard = lock();
        reset();
        enable();
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        phase_event("prop", (t * 1_000_000 + i) as u64);
                    }
                });
            }
        });
        disable();
        let events = take_task_events();
        let dropped = events_dropped();
        let emitted = (threads * per_thread) as u64;
        prop_assert_eq!(
            events.len() as u64 + dropped,
            emitted,
            "recorded + dropped must equal emitted"
        );
        prop_assert_eq!(events.len(), (emitted as usize).min(events::LOG_CAP));
        prop_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-thread: the recorded ids are a prefix of that thread's
        // emission order (a full log drops from the tail, never from
        // the middle).
        let durations = phase_durations(&events, "prop");
        for t in 0..threads as u64 {
            let ids: Vec<u64> = durations
                .iter()
                .filter(|&&d| d / 1_000_000 == t)
                .map(|&d| d % 1_000_000)
                .collect();
            let expected: Vec<u64> = (0..ids.len() as u64).collect();
            prop_assert_eq!(&ids, &expected, "thread {} lost or reordered", t);
            prop_assert!(ids.len() <= per_thread);
        }
        reset();
    }
}

#[test]
fn quantile_clamps_to_observed_extremes_and_stays_within_a_bucket() {
    let _guard = lock();
    reset();
    enable();
    let h = registry().histogram("q_test");
    let samples = [3.0, 5.0, 9.0, 17.0, 33.0, 120.0, 900.0, 1500.0];
    for s in samples {
        h.record(s);
    }
    // Edge quantiles clamp to the exact observed extremes.
    assert_eq!(h.quantile(0.0), 3.0);
    assert_eq!(h.quantile(1.0), 1500.0);
    // Interior quantiles come from log2 buckets: the estimate must sit
    // within one bucket (a factor of 2) of the true sample quantile.
    for (q, exact) in [(0.25, 5.0), (0.5, 17.0), (0.75, 120.0), (0.9, 900.0)] {
        let est = h.quantile(q);
        assert!(
            est >= exact / 2.0 && est <= exact * 2.0,
            "q{q}: estimate {est} not within a bucket of exact {exact}"
        );
    }
    // Degenerate cases.
    assert!(h.quantile(-0.1).is_nan());
    assert!(h.quantile(1.1).is_nan());
    assert!(registry().histogram("q_empty").quantile(0.5).is_nan());
    reset();
}

#[test]
fn quantile_from_buckets_is_monotone_in_q() {
    // Direct layout check, no registry: 4 samples in bucket 32
    // ([1, 2)), 4 in bucket 34 ([4, 8)).
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    buckets[32] = 4;
    buckets[34] = 4;
    let mut prev = f64::NEG_INFINITY;
    for i in 0..=10 {
        let v = quantile_from_buckets(&buckets, i as f64 / 10.0, f64::INFINITY, f64::NEG_INFINITY);
        assert!(v >= prev, "quantile must be monotone in q ({v} < {prev})");
        prev = v;
    }
    assert!(quantile_from_buckets(&buckets, 0.25, f64::INFINITY, f64::NEG_INFINITY) < 2.0);
    assert!(quantile_from_buckets(&buckets, 0.9, f64::INFINITY, f64::NEG_INFINITY) >= 4.0);
}

#[test]
fn prometheus_exposition_matches_golden_text() {
    use crate::expose::{validate_exposition, PrometheusRenderer};
    let mut r = PrometheusRenderer::new();
    r.counter("scorpio_requests_total", "Requests served.", &[], 42.0);
    r.gauge(
        "scorpio_window_rate_per_s",
        "Request rate.",
        &[("kernel", "maclaurin"), ("span", "10s")],
        1.5,
    );
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    buckets[32] = 2; // [1, 2)
    buckets[33] = 1; // [2, 4)
    r.histogram_from_log2(
        "scorpio_latency_us",
        "Latency.",
        &[],
        &buckets,
        5.5,
        3,
    );
    let text = r.finish();
    let golden = "\
# HELP scorpio_requests_total Requests served.
# TYPE scorpio_requests_total counter
scorpio_requests_total 42
# HELP scorpio_window_rate_per_s Request rate.
# TYPE scorpio_window_rate_per_s gauge
scorpio_window_rate_per_s{kernel=\"maclaurin\",span=\"10s\"} 1.5
# HELP scorpio_latency_us Latency.
# TYPE scorpio_latency_us histogram
scorpio_latency_us_bucket{le=\"2\"} 2
scorpio_latency_us_bucket{le=\"4\"} 3
scorpio_latency_us_bucket{le=\"+Inf\"} 3
scorpio_latency_us_sum 5.5
scorpio_latency_us_count 3
";
    assert_eq!(text, golden, "exposition drifted from the golden format");
    assert_eq!(validate_exposition(&text), Ok(7), "golden must validate");
}

#[test]
fn sliding_window_rotates_samples_out_by_span() {
    let w = SlidingWindow::new();
    let s = |latency_ns: u64| RequestSample {
        latency_ns,
        error: false,
        cache_hit: Some(true),
        requested_ratio: Some(0.7),
        achieved_ratio: Some(0.75),
    };
    w.record(5_000_000_000, &s(1000)); // at second 5
    // Still inside all three spans at second 8.
    assert_eq!(w.snapshot(8_000_000_000, 10).requests, 1);
    // At second 20 the 10s span has rotated it out; 1m still holds it.
    assert_eq!(w.snapshot(20_000_000_000, 10).requests, 0);
    assert_eq!(w.snapshot(20_000_000_000, 60).requests, 1);
    // At second 100 only the 5m span holds it.
    assert_eq!(w.snapshot(100_000_000_000, 60).requests, 0);
    assert_eq!(w.snapshot(100_000_000_000, 300).requests, 1);
    // Past the ring's 300s retention it is gone everywhere.
    assert_eq!(w.snapshot(400_000_000_000, 300).requests, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rotation correctness: for a monotone stream of samples, every
    /// span's snapshot must count exactly the samples whose second
    /// falls inside `(now - span, now]` — no double counting across
    /// bucket rotation, no leakage from evicted seconds.
    #[test]
    fn sliding_window_snapshot_matches_naive_model(
        mut secs in proptest::collection::vec(0u64..600, 1..80),
        errors in proptest::collection::vec(any::<bool>(), 80),
    ) {
        secs.sort_unstable();
        let now_s = *secs.last().unwrap() + 1;
        let w = SlidingWindow::new();
        for (i, &sec) in secs.iter().enumerate() {
            w.record(
                sec * 1_000_000_000 + 500,
                &RequestSample {
                    latency_ns: 1000 + i as u64,
                    error: errors[i % errors.len()],
                    cache_hit: Some(i % 2 == 0),
                    requested_ratio: Some(0.5),
                    achieved_ratio: Some(0.5),
                },
            );
        }
        for (_, span_secs) in WINDOW_SPANS {
            let snap = w.snapshot(now_s * 1_000_000_000, span_secs);
            let oldest = now_s.saturating_sub(span_secs - 1);
            // The ring retains WINDOW_SLOTS seconds: a second is still
            // counted only if no later sample evicted its slot. With a
            // monotone stream ending at now_s - 1, eviction cannot have
            // happened for any second inside the span, so the model is
            // a plain range filter.
            let expected = secs
                .iter()
                .filter(|&&sec| sec >= oldest && sec <= now_s)
                .count() as u64;
            prop_assert_eq!(
                snap.requests,
                expected,
                "span {}s: snapshot disagrees with model",
                span_secs
            );
            let expected_errors = secs
                .iter()
                .enumerate()
                .filter(|(i, &sec)| sec >= oldest && sec <= now_s && errors[i % errors.len()])
                .count() as u64;
            prop_assert_eq!(snap.errors, expected_errors);
        }
    }
}

#[test]
fn trace_context_stamps_and_captures_spans_and_events() {
    let _guard = lock();
    reset();
    enable();
    enable_detail();
    // Outside any context: no stamp.
    assert_eq!(current_trace_id(), 0);
    {
        let mut ctx = trace_context(0xbeef, true);
        assert_eq!(current_trace_id(), 0xbeef);
        {
            let _outer = span("req");
            let _inner = span_detail("step");
            phase_event("traced", 10);
        }
        // Nested context: inner id wins, then the outer is restored.
        {
            let _nested = trace_context(0xf00d, false);
            assert_eq!(current_trace_id(), 0xf00d);
        }
        assert_eq!(current_trace_id(), 0xbeef);

        let spans = ctx.take_spans();
        assert_eq!(spans.len(), 2, "both spans captured");
        assert!(spans.iter().all(|s| s.trace_id == 0xbeef));
        assert!(spans.iter().any(|s| s.path == "req/step"));
        let events = ctx.take_task_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, 0xbeef);
        assert_eq!(events[0].label, "traced");
        // Draining is destructive: a second take is empty.
        assert!(ctx.take_spans().is_empty());
        assert!(ctx.take_task_events().is_empty());
    }
    assert_eq!(current_trace_id(), 0);
    // The global sink got the same stamped spans.
    let sunk = events_snapshot();
    assert!(sunk.iter().all(|s| s.trace_id == 0xbeef));
    reset();
}

#[test]
fn detail_spans_gate_off_while_stage_spans_keep_recording() {
    let _guard = lock();
    reset();
    enable();
    disable_detail();
    {
        let _stage = span("stage");
        let _interior = span_detail("interior");
    }
    let spans = events_snapshot();
    assert!(spans.iter().any(|s| s.path == "stage"));
    assert!(
        !spans.iter().any(|s| s.name == "interior"),
        "detail span must not record while detail is off"
    );
    enable_detail();
    {
        let _interior = span_detail("interior");
    }
    assert!(events_snapshot().iter().any(|s| s.name == "interior"));
    reset();
}
