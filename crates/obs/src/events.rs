//! Quality-of-result telemetry: one bounded, process-wide event log.
//!
//! The spans of [`crate::span`] time *phases*; this module records
//! *decisions* — one structured summary per `taskwait` (the requested
//! ratio against the accurate/approximate/dropped tallies the schedule
//! delivered), sweep-point and phase markers, and every adaptive
//! controller decision. Together they answer the question the paper's
//! Figure 7 asks: what a given ratio did to the schedule, and what it
//! cost in output quality (the join with `scorpio-quality` metrics
//! happens in the `fig7_sweep` harness, which writes the curves to
//! `BENCH_qor.json`).
//!
//! # Design
//!
//! Events arrive at the rate of `taskwait`s, not of tasks, so one
//! mutex-guarded `Vec` holds them all, built like the span sink:
//!
//! * the log keeps its first 2,048 events; later ones are **counted as
//!   drops** (see [`events_dropped`]) instead of growing the log;
//! * the sequence number is assigned under the lock, so insertion
//!   order is the timeline and within-thread order is preserved;
//! * a request [trace context](crate::trace_context) that captures also
//!   receives a copy of each event its thread emits, full log or not.
//!
//! Like every other `scorpio-obs` facility the emission entry points
//! ([`taskwait_event`], [`ratio_event`], [`phase_event`],
//! [`ratio_decision_event`]) cost one relaxed atomic load when
//! instrumentation is [disabled](crate::enabled) — no clock reads, no
//! lock, nothing.
//!
//! # Collection
//!
//! [`task_events_snapshot`] copies and [`take_task_events`] drains the
//! log. [`events_jsonl`] renders events one-JSON-object-per-line for
//! offline analysis; [`TaskEvent::to_record`] produces the serialisable
//! row embedded in [`crate::RunManifest`].

use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard};

use serde::Serialize;

use crate::span::current_tid;

/// What the adaptive controller did with one quality observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionClass {
    /// The controller moved the ratio.
    Stepped,
    /// The observation landed inside the hysteresis band (or the
    /// bracket pinned the ratio); the ratio was left alone.
    Held,
    /// The quality signal was NaN/∞ and was discarded without
    /// influencing the ratio.
    NonFinite,
    /// The controller latched convergence on this observation.
    Converged,
}

impl DecisionClass {
    /// Stable lowercase name used in JSONL/manifest exports.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionClass::Stepped => "stepped",
            DecisionClass::Held => "held",
            DecisionClass::NonFinite => "non_finite",
            DecisionClass::Converged => "converged",
        }
    }
}

/// The event-specific payload of a [`TaskEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// One `taskwait` summary: the requested quality knob against what
    /// the schedule actually delivered.
    Taskwait {
        /// The `ratio` knob the caller passed.
        requested_ratio: f64,
        /// `accurate / total` the schedule achieved (≥ requested —
        /// significance-1 tasks run accurately on top of the quota).
        achieved_ratio: f64,
        /// Tasks that ran their accurate body.
        accurate: u64,
        /// Tasks that ran their approximate body.
        approximate: u64,
        /// Tasks dropped outright.
        dropped: u64,
        /// Wall time of the whole `taskwait` in nanoseconds.
        duration_ns: u64,
    },
    /// A sweep-point marker: a harness is about to run the labelled
    /// workload at this requested ratio (lets offline tooling cut the
    /// timeline into per-ratio segments).
    Ratio {
        /// The ratio the following tasks will be scheduled at.
        requested: f64,
    },
    /// A coarse phase marker with a duration (for harness-level phases
    /// that want to appear in the event timeline as well as the span
    /// tree).
    Phase {
        /// Phase wall time in nanoseconds.
        duration_ns: u64,
    },
    /// One adaptive-controller decision: the quality signal it observed
    /// and how it moved (or held) the ratio in response. Emitted by
    /// `scorpio_runtime::controller::adaptive` so every online
    /// adjustment is on the same timeline as the `taskwait`s it governs.
    RatioDecision {
        /// Controller step counter (0-based observation index).
        step: u64,
        /// Ratio in force when the observation arrived.
        ratio_before: f64,
        /// Ratio after the decision (equals `ratio_before` on holds).
        ratio_after: f64,
        /// The raw quality/energy signal observed (may be NaN for
        /// [`DecisionClass::NonFinite`] decisions).
        signal: f64,
        /// What the controller did.
        decision: DecisionClass,
    },
}

/// One structured telemetry event on the log's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEvent {
    /// Process-wide sequence number, assigned in emission order: the
    /// log (and every per-thread order within it) is sorted by `seq`.
    pub seq: u64,
    /// Emission time in nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Dense id of the emitting thread (shared with span `tid`s).
    pub worker: u64,
    /// The task-group label (or phase/kernel name) the event belongs to.
    pub label: String,
    /// Request trace id in force when the event was emitted (0 = none);
    /// see [`trace_context`](crate::trace_context).
    pub trace_id: u64,
    /// The payload.
    pub kind: EventKind,
}

/// Flat, serialisable form of a [`TaskEvent`] — the row format of the
/// JSONL export and of the `task_events` array in
/// [`crate::RunManifest`]. Fields not applicable to the event type are
/// `null`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskEventRecord {
    /// Global sequence number.
    pub seq: u64,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Dense emitting-thread id.
    pub worker: u64,
    /// Task-group / phase label.
    pub label: String,
    /// Request trace id as 16 hex digits (`None` when the event was
    /// emitted outside any request context). Hex keeps full u64
    /// fidelity through JSON parsers that read numbers as f64.
    pub trace_id: Option<String>,
    /// `"taskwait"`, `"ratio"`, `"phase"` or `"ratio_decision"`.
    pub event: &'static str,
    /// Requested ratio (taskwait and ratio events).
    pub requested_ratio: Option<f64>,
    /// Achieved accurate fraction (taskwait events only).
    pub achieved_ratio: Option<f64>,
    /// Accurate-task count (taskwait events only).
    pub accurate: Option<u64>,
    /// Approximate-task count (taskwait events only).
    pub approximate: Option<u64>,
    /// Dropped-task count (taskwait events only).
    pub dropped: Option<u64>,
    /// Duration in nanoseconds (taskwait and phase events).
    pub duration_ns: Option<u64>,
    /// Controller step counter (ratio-decision events only).
    pub step: Option<u64>,
    /// Ratio before the decision (ratio-decision events only).
    pub ratio_before: Option<f64>,
    /// Ratio after the decision (ratio-decision events only).
    pub ratio_after: Option<f64>,
    /// Observed quality/energy signal (ratio-decision events only).
    pub signal: Option<f64>,
    /// `"stepped"` / `"held"` / `"non_finite"` / `"converged"`
    /// (ratio-decision events only).
    pub decision: Option<&'static str>,
}

impl TaskEvent {
    /// Flattens the event into its serialisable row form.
    pub fn to_record(&self) -> TaskEventRecord {
        let mut r = TaskEventRecord {
            seq: self.seq,
            t_ns: self.t_ns,
            worker: self.worker,
            label: self.label.clone(),
            trace_id: (self.trace_id != 0).then(|| format!("{:016x}", self.trace_id)),
            event: "",
            requested_ratio: None,
            achieved_ratio: None,
            accurate: None,
            approximate: None,
            dropped: None,
            duration_ns: None,
            step: None,
            ratio_before: None,
            ratio_after: None,
            signal: None,
            decision: None,
        };
        match self.kind {
            EventKind::Taskwait {
                requested_ratio,
                achieved_ratio,
                accurate,
                approximate,
                dropped,
                duration_ns,
            } => {
                r.event = "taskwait";
                r.requested_ratio = Some(requested_ratio);
                r.achieved_ratio = Some(achieved_ratio);
                r.accurate = Some(accurate);
                r.approximate = Some(approximate);
                r.dropped = Some(dropped);
                r.duration_ns = Some(duration_ns);
            }
            EventKind::Ratio { requested } => {
                r.event = "ratio";
                r.requested_ratio = Some(requested);
            }
            EventKind::Phase { duration_ns } => {
                r.event = "phase";
                r.duration_ns = Some(duration_ns);
            }
            EventKind::RatioDecision {
                step,
                ratio_before,
                ratio_after,
                signal,
                decision,
            } => {
                r.event = "ratio_decision";
                r.step = Some(step);
                r.ratio_before = Some(ratio_before);
                r.ratio_after = Some(ratio_after);
                r.signal = Some(signal);
                r.decision = Some(decision.as_str());
            }
        }
        r
    }
}

// ─────────────────────────── the log ───────────────────────────

/// Bound on the process-wide event log (records). The largest traced
/// harness run (a full `fig7_sweep --threads 2 --adaptive`) emits a
/// few hundred events, so offline runs keep every one; a traced daemon
/// that never drains the log holds at most this many summaries
/// (≈0.3 MB).
pub(crate) const LOG_CAP: usize = 2048;

/// The kept events in emission order, the next sequence number and the
/// count of events that found the log full.
struct Log {
    events: Vec<TaskEvent>,
    next_seq: u64,
    dropped: u64,
}

static LOG: Mutex<Log> = Mutex::new(Log {
    events: Vec::new(),
    next_seq: 0,
    dropped: 0,
});

fn log() -> MutexGuard<'static, Log> {
    LOG.lock().expect("event log poisoned")
}

thread_local! {
    /// Per-thread task-event capture buffer; managed by
    /// [`TraceContext`](crate::TraceContext).
    static EVENT_CAPTURE: RefCell<Option<Vec<TaskEvent>>> = const { RefCell::new(None) };
}

fn emit(label: &str, kind: EventKind) {
    let mut event = TaskEvent {
        seq: 0,
        t_ns: crate::epoch().elapsed().as_nanos() as u64,
        worker: current_tid(),
        label: label.to_owned(),
        trace_id: crate::current_trace_id(),
        kind,
    };
    let mut log = log();
    event.seq = log.next_seq;
    log.next_seq += 1;
    // A request context capturing on this thread gets its own copy,
    // also once the log is full: exemplars carry the request's events
    // without scanning the log.
    let _ = EVENT_CAPTURE.try_with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(event.clone());
        }
    });
    if log.events.len() < LOG_CAP {
        log.events.push(event);
    } else {
        log.dropped += 1;
    }
}

/// Swaps this thread's event-capture buffer, returning the previous one
/// (`TraceContext` uses this to nest contexts correctly).
pub(crate) fn capture_replace(new: Option<Vec<TaskEvent>>) -> Option<Vec<TaskEvent>> {
    EVENT_CAPTURE.with(|c| std::mem::replace(&mut *c.borrow_mut(), new))
}

/// Drains the events captured on this thread (empty when not
/// capturing).
pub(crate) fn capture_take() -> Vec<TaskEvent> {
    EVENT_CAPTURE.with(|c| {
        c.borrow_mut()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    })
}

// ───────────────────────── public emission ─────────────────────────

/// Records one `taskwait` summary event (see [`EventKind::Taskwait`]).
/// A no-op when tracing is [disabled](crate::enabled).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn taskwait_event(
    label: &str,
    requested_ratio: f64,
    achieved_ratio: f64,
    accurate: u64,
    approximate: u64,
    dropped: u64,
    duration_ns: u64,
) {
    if crate::enabled() {
        emit(
            label,
            EventKind::Taskwait {
                requested_ratio,
                achieved_ratio,
                accurate,
                approximate,
                dropped,
                duration_ns,
            },
        );
    }
}

/// Records a sweep-point marker (see [`EventKind::Ratio`]). A no-op
/// when tracing is [disabled](crate::enabled).
#[inline]
pub fn ratio_event(label: &str, requested: f64) {
    if crate::enabled() {
        emit(label, EventKind::Ratio { requested });
    }
}

/// Records a coarse phase marker (see [`EventKind::Phase`]). A no-op
/// when tracing is [disabled](crate::enabled).
#[inline]
pub fn phase_event(label: &str, duration_ns: u64) {
    if crate::enabled() {
        emit(label, EventKind::Phase { duration_ns });
    }
}

/// Records one adaptive-controller decision (see
/// [`EventKind::RatioDecision`]). A no-op when tracing is
/// [disabled](crate::enabled).
#[inline]
pub fn ratio_decision_event(
    label: &str,
    step: u64,
    ratio_before: f64,
    ratio_after: f64,
    signal: f64,
    decision: DecisionClass,
) {
    if crate::enabled() {
        emit(
            label,
            EventKind::RatioDecision {
                step,
                ratio_before,
                ratio_after,
                signal,
                decision,
            },
        );
    }
}

// ───────────────────────── collection ─────────────────────────

/// Copies the log in emission order (the log keeps its contents; see
/// [`take_task_events`] to drain).
pub fn task_events_snapshot() -> Vec<TaskEvent> {
    log().events.clone()
}

/// Drains and returns the log in emission order.
pub fn take_task_events() -> Vec<TaskEvent> {
    std::mem::take(&mut log().events)
}

/// Total events dropped so far because the log was full. Monotonic
/// until [`reset`](crate::reset).
pub fn events_dropped() -> u64 {
    log().dropped
}

/// The current event sequence watermark: events emitted from now on
/// have `seq >=` this value. Used by sessions to scope the timeline to
/// one run.
pub fn seq_watermark() -> u64 {
    log().next_seq
}

pub(crate) fn reset() {
    let mut log = log();
    log.events.clear();
    log.dropped = 0;
}

/// Renders events as JSON Lines: one flat [`TaskEventRecord`] object
/// per line, in timeline order — `grep`/`jq`-friendly and
/// concatenation-safe across runs.
pub fn events_jsonl(events: &[TaskEvent]) -> String {
    records_jsonl(&events.iter().map(TaskEvent::to_record).collect::<Vec<_>>())
}

/// [`events_jsonl`] over already-flattened records (e.g. the
/// `task_events` embedded in a [`RunManifest`](crate::RunManifest)).
pub fn records_jsonl(records: &[TaskEventRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 160);
    for r in records {
        out.push_str(&crate::json::to_string(r));
        out.push('\n');
    }
    out
}
