//! Zero-cost-when-disabled observability for the scorpio pipeline.
//!
//! The analysis pipeline (record DynDFG → interval forward sweep →
//! interval-adjoint reverse sweep → Eq. 11 significance → Algorithm 1
//! simplify/partition → ratio-driven task runtime) is instrumented with
//! three complementary facilities, all living in this dependency-free
//! crate (vendor-style, like the offline shims under `vendor/`):
//!
//! * **Structured spans** — [`span`] returns an RAII guard that records
//!   a named, nested timing into a process-global trace sink. Guards
//!   nest per thread (a span opened while another is active becomes its
//!   child), and the collected events can be exported as a
//!   Chrome-trace-format JSON file viewable in `about:tracing` or
//!   [Perfetto](https://ui.perfetto.dev) via [`chrome_trace_json`].
//! * **A metrics registry** — monotonic [`Counter`]s and log₂-bucketed
//!   [`Histogram`]s, created on first use through [`count`] /
//!   [`observe`] (or ahead of time through [`registry`]), aggregated
//!   atomically across threads.
//! * **A structured task-event log** — bounded, lock-free per-thread
//!   rings of [`TaskEvent`]s (one per task the significance runtime
//!   executes or drops, plus `taskwait`/ratio markers), merged into a
//!   monotonic timeline and exportable as JSONL via [`events_jsonl`];
//!   see the [`events`] module.
//! * **Run manifests** — [`RunSession`] snapshots the spans and metrics
//!   of one instrumented run into a machine-readable [`RunManifest`]
//!   (`RUN_<name>.json`: config, timings tree, counters, git describe,
//!   thread count) next to the Chrome trace.
//!
//! # Zero cost when disabled
//!
//! Instrumentation is **off by default**. Every entry point checks one
//! relaxed atomic load ([`enabled`]) and returns immediately when
//! tracing is off: no clock reads, no allocation, no locking. Binaries
//! opt in with [`enable`] (the bench harnesses do so behind their
//! `--trace <path>` flag).
//!
//! # Example
//!
//! ```
//! scorpio_obs::enable();
//! {
//!     let _outer = scorpio_obs::span("phase");
//!     let _inner = scorpio_obs::span("step");       // nests under "phase"
//!     scorpio_obs::count("items", 3);
//!     scorpio_obs::observe("variance", 0.25);
//! }
//! let events = scorpio_obs::events_snapshot();
//! assert!(events.iter().any(|e| e.path == "phase/step"));
//! assert_eq!(scorpio_obs::registry().counter("items").get(), 3);
//! # scorpio_obs::disable();
//! # scorpio_obs::reset();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod expose;
pub mod gate;
pub mod json;
mod manifest;
mod metrics;
mod span;
pub mod window;

pub use events::{
    events_dropped, events_jsonl, phase_event, ratio_decision_event, ratio_event, records_jsonl,
    take_task_events, task_event, task_events_snapshot, taskwait_event, DecisionClass, EventKind,
    TaskClass, TaskEvent, TaskEventRecord,
};
pub use manifest::{
    git_describe, ConfigEntry, CounterSnapshot, HistogramSnapshot, PhaseNode, RunManifest,
    RunSession,
};
pub use metrics::{
    quantile_from_buckets, registry, Counter, Histogram, Registry, HISTOGRAM_BUCKETS,
};
pub use span::{
    chrome_trace_json, current_trace_id, events_snapshot, spans_dropped, take_events, SpanGuard,
    TraceContext, TraceEvent,
};
pub use window::{
    KernelWindowStats, RequestSample, SlidingWindow, WindowSnapshot, WINDOW_SPANS,
};

#[cfg(test)]
mod tests;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(true);

/// `true` while instrumentation is collecting. One relaxed atomic load:
/// this is the *only* cost every instrumented call site pays when
/// tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `true` while *detail* spans ([`span_detail`]) record. Detail spans
/// sit on per-item / per-lane-block interior paths (`replay`,
/// `replay_lanes`, per-item `reverse`/`significance` sweeps, …) whose
/// volume scales with the workload; stage-level spans always record
/// while tracing is [enabled]. Detail is **on** by default so offline
/// harnesses (`--trace` exports, run manifests) see the full tree; a
/// latency-sensitive host like the serve daemon turns it off with
/// [`disable_detail`] and keeps only stage-level spans plus the
/// lock-free task-event telemetry.
#[inline(always)]
pub fn detail_enabled() -> bool {
    enabled() && DETAIL.load(Ordering::Relaxed)
}

/// Turns detail spans back on (the default); see [`detail_enabled`].
pub fn enable_detail() {
    DETAIL.store(true, Ordering::SeqCst);
}

/// Turns detail spans off; see [`detail_enabled`].
pub fn disable_detail() {
    DETAIL.store(false, Ordering::SeqCst);
}

/// Turns instrumentation on (idempotent). The first call fixes the
/// trace epoch all span timestamps are relative to.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns instrumentation off. Already-open spans still record when
/// their guards drop; new call sites become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clears the trace sink, drains the task-event rings, and zeroes
/// every registered counter and histogram (handles stay valid). The
/// epoch is kept so timestamps stay monotonic within the process.
pub fn reset() {
    span::reset();
    metrics::reset();
    events::reset();
}

/// The process-wide trace epoch: all span timestamps are nanoseconds
/// since this instant.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch — the time base of
/// every span and task-event timestamp (the first caller of [`enable`]
/// or this function fixes the epoch). Lets a host splice synthetic
/// spans measured outside the guard machinery (e.g. the serve daemon's
/// connection-thread parse span) into the same timeline as captured
/// spans.
pub fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Opens a named span. Returns a guard that records the elapsed time
/// (nested under the thread's currently open span, if any) when
/// dropped. A no-op returning an inert guard when tracing is
/// [disabled](enabled).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::open(name.to_owned())
    } else {
        SpanGuard::noop()
    }
}

/// [`span`] with a runtime-built name (e.g. a per-benchmark label).
#[inline]
pub fn span_owned(name: String) -> SpanGuard {
    if enabled() {
        SpanGuard::open(name)
    } else {
        SpanGuard::noop()
    }
}

/// A *detail* span: like [`span`], but records only while
/// [`detail_enabled`] — use for interior spans whose count scales with
/// items or lane blocks rather than with pipeline stages. Costs the
/// same single relaxed load as [`span`] when tracing is off.
#[inline]
pub fn span_detail(name: &'static str) -> SpanGuard {
    if detail_enabled() {
        SpanGuard::open(name.to_owned())
    } else {
        SpanGuard::noop()
    }
}

/// Opens a per-request trace context on the calling thread: until the
/// returned guard drops, every span and task event recorded on this
/// thread is stamped with `trace_id` (visible as
/// [`TraceEvent::trace_id`] / [`TaskEvent::trace_id`] and in Chrome
/// traces and JSONL exports). With `capture` on, completed spans and
/// task events are *also* cloned into per-thread buffers the guard can
/// drain ([`TraceContext::take_spans`] /
/// [`TraceContext::take_task_events`]) so a request handler can
/// assemble its own span tree without scanning the global sink.
///
/// Contexts nest: dropping the guard restores the previous trace id
/// and capture buffers. Stamping and capture only happen for spans /
/// events that record at all, i.e. when tracing is [enabled]; when
/// disabled this costs the usual single relaxed atomic load at each
/// instrumented site.
#[inline]
pub fn trace_context(trace_id: u64, capture: bool) -> TraceContext {
    TraceContext::open(trace_id, capture)
}

/// Adds `n` to the monotonic counter `name`, creating it on first use.
/// A no-op when tracing is [disabled](enabled).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        registry().counter(name).add(n);
    }
}

/// Records `value` into the histogram `name`, creating it on first
/// use. A no-op when tracing is [disabled](enabled).
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        registry().histogram(name).record(value);
    }
}
