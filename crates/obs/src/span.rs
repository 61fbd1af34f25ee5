//! Structured spans, the process-global trace sink and the per-thread
//! request trace context.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::epoch;

/// One completed span: a named, timed interval on one thread.
///
/// Events are recorded when the [`SpanGuard`](crate::SpanGuard) drops,
/// so within a thread children always precede their parent in the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Slash-joined ancestry within the opening thread, e.g.
    /// `"fig7/sobel/taskwait"` — the last segment is [`name`](Self::name).
    pub path: String,
    /// The span's own name.
    pub name: String,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense id of the recording thread (0 = first thread that traced).
    pub tid: u64,
    /// Nesting depth within the thread (0 = thread-root span).
    pub depth: usize,
    /// Request trace id in force when the span opened (0 = none). Set
    /// by [`trace_context`](crate::trace_context); lets a request's
    /// spans be picked out of the merged sink and reassembled into one
    /// tree.
    pub trace_id: u64,
}

/// Bound on the global span sink. A long-lived traced process (the
/// serve daemon runs with tracing on by default) keeps the newest
/// `SINK_CAP` spans; older ones are evicted and counted in
/// [`spans_dropped`]. Short instrumented runs (benches, tests) stay far
/// below the bound and lose nothing.
const SINK_CAP: usize = 1 << 16;

static SINK: Mutex<VecDeque<TraceEvent>> = Mutex::new(VecDeque::new());
static SPANS_DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Request trace id stamped onto spans/events this thread emits
    /// (0 = no request context).
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
    /// When capturing, completed spans are *also* cloned here so a
    /// request handler can assemble its own span tree without touching
    /// the global sink.
    static CAPTURE: RefCell<Option<Vec<TraceEvent>>> = const { RefCell::new(None) };
}

/// Dense id of the calling thread within the trace.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The request trace id currently in force on this thread (0 = none).
pub fn current_trace_id() -> u64 {
    TRACE_ID.with(Cell::get)
}

/// RAII guard of one request trace context; see
/// [`trace_context`](crate::trace_context).
#[derive(Debug)]
pub struct TraceContext {
    prev_id: u64,
    prev_capture: Option<Vec<TraceEvent>>,
    prev_event_capture: Option<Vec<crate::TaskEvent>>,
    capturing: bool,
}

impl TraceContext {
    pub(crate) fn open(trace_id: u64, capture: bool) -> TraceContext {
        let prev_id = TRACE_ID.with(|t| t.replace(trace_id));
        let (prev_capture, prev_event_capture) = if capture {
            (
                CAPTURE.with(|c| c.borrow_mut().replace(Vec::new())),
                crate::events::capture_replace(Some(Vec::new())),
            )
        } else {
            (None, None)
        };
        TraceContext {
            prev_id,
            prev_capture,
            prev_event_capture,
            capturing: capture,
        }
    }

    /// Drains the spans captured on this thread since the context
    /// opened (or the last call). Empty unless the context was opened
    /// with capture on *and* tracing is [enabled](crate::enabled).
    pub fn take_spans(&mut self) -> Vec<TraceEvent> {
        if !self.capturing {
            return Vec::new();
        }
        CAPTURE.with(|c| {
            c.borrow_mut()
                .as_mut()
                .map(std::mem::take)
                .unwrap_or_default()
        })
    }

    /// Drains the task events captured on this thread since the context
    /// opened (or the last call). Empty unless capturing.
    pub fn take_task_events(&mut self) -> Vec<crate::TaskEvent> {
        if !self.capturing {
            return Vec::new();
        }
        crate::events::capture_take()
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        TRACE_ID.with(|t| t.set(self.prev_id));
        if self.capturing {
            let prev = self.prev_capture.take();
            CAPTURE.with(|c| *c.borrow_mut() = prev);
            crate::events::capture_replace(self.prev_event_capture.take());
        }
    }
}

/// RAII guard for an open span; records a [`TraceEvent`] when dropped.
/// Obtained from [`span`](crate::span) / [`span_owned`](crate::span_owned);
/// inert (records nothing) when tracing was disabled at open time.
#[derive(Debug)]
pub struct SpanGuard(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    path: String,
    depth: usize,
    tid: u64,
    start: Instant,
    start_ns: u64,
    trace_id: u64,
}

impl SpanGuard {
    pub(crate) fn noop() -> SpanGuard {
        SpanGuard(None)
    }

    pub(crate) fn open(name: String) -> SpanGuard {
        let start = Instant::now();
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        let tid = current_tid();
        let trace_id = current_trace_id();
        let (path, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                name.clone()
            } else {
                format!("{}/{}", stack.join("/"), name)
            };
            let depth = stack.len();
            stack.push(name);
            (path, depth)
        });
        SpanGuard(Some(ActiveSpan {
            path,
            depth,
            tid,
            start,
            start_ns,
            trace_id,
        }))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let name = active
            .path
            .rsplit('/')
            .next()
            .unwrap_or(&active.path)
            .to_owned();
        let event = TraceEvent {
            path: active.path,
            name,
            start_ns: active.start_ns,
            dur_ns,
            tid: active.tid,
            depth: active.depth,
            trace_id: active.trace_id,
        };
        CAPTURE.with(|c| {
            if let Some(buf) = c.borrow_mut().as_mut() {
                buf.push(event.clone());
            }
        });
        let mut sink = SINK.lock().expect("trace sink poisoned");
        if sink.len() >= SINK_CAP {
            sink.pop_front();
            SPANS_DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        sink.push_back(event);
    }
}

/// Copies the currently collected events out of the sink (sink keeps
/// them; see [`take_events`] for the draining variant).
pub fn events_snapshot() -> Vec<TraceEvent> {
    SINK.lock().expect("trace sink poisoned").iter().cloned().collect()
}

/// Drains and returns every collected event.
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *SINK.lock().expect("trace sink poisoned")).into()
}

/// Spans evicted from the bounded global sink since the last
/// [`reset`](crate::reset) — nonzero means a trace export would be
/// missing the oldest spans (the per-request capture path is
/// unaffected).
pub fn spans_dropped() -> u64 {
    SPANS_DROPPED.load(Ordering::Relaxed)
}

pub(crate) fn reset() {
    SINK.lock().expect("trace sink poisoned").clear();
    SPANS_DROPPED.store(0, Ordering::Relaxed);
}

/// Renders events as a Chrome-trace-format JSON string (`ph: "X"`
/// complete events, microsecond timestamps) loadable in
/// `about:tracing` / [Perfetto](https://ui.perfetto.dev).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        crate::json::escape_into(&mut out, &e.name);
        out.push_str(",\"cat\":\"scorpio\",\"ph\":\"X\",\"ts\":");
        let _ = write!(out, "{:.3}", e.start_ns as f64 / 1000.0);
        out.push_str(",\"dur\":");
        let _ = write!(out, "{:.3}", e.dur_ns as f64 / 1000.0);
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.tid);
        out.push_str(",\"args\":{\"path\":");
        crate::json::escape_into(&mut out, &e.path);
        if e.trace_id != 0 {
            let _ = write!(out, ",\"trace_id\":\"{:016x}\"", e.trace_id);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}
