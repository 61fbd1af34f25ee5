//! Quality-of-result task telemetry: a bounded, per-thread event log.
//!
//! The spans of [`crate::span`] time *phases*; this module records
//! *decisions* — one structured event per task the significance-driven
//! runtime executes or drops, plus `taskwait` summaries and sweep
//! markers. Together they answer the question the paper's Figure 7
//! asks: *which* tasks were approximated or dropped at a given ratio,
//! and what it cost in output quality (the join with `scorpio-quality`
//! metrics happens in the `fig7_sweep` harness, which writes the
//! curves to `BENCH_qor.json`).
//!
//! # Design
//!
//! Every emitting thread owns one **bounded ring** of fixed-size event
//! records stored as plain `AtomicU64` words (a struct-of-words
//! layout), so the hot path is entirely lock-free and allocation-free:
//!
//! * the owning thread appends with relaxed stores and publishes each
//!   record with one release store of the ring length — no CAS, no
//!   mutex, no other thread ever writes the ring;
//! * when the ring is full, further events are **counted as drops**
//!   (see [`events_dropped`]) instead of blocking or reallocating;
//! * a global atomic sequence number stamps every event, so merging
//!   the per-thread rings yields one monotonic timeline in which
//!   within-thread order is preserved exactly;
//! * labels are interned once per thread into a process-wide table;
//!   records store a 4-byte id, not a `String`;
//! * threads that exit (the executor's scoped workers live for one
//!   `taskwait`) flush their ring into a spill list from their
//!   thread-local destructor, so no event is lost when a worker dies
//!   before collection.
//!
//! Like every other `scorpio-obs` facility the emission entry points
//! ([`task_event`], [`taskwait_event`], [`ratio_event`],
//! [`phase_event`]) cost one relaxed atomic load when instrumentation
//! is [disabled](crate::enabled) — no clock reads, no ring allocation,
//! nothing.
//!
//! # Collection
//!
//! [`task_events_snapshot`] merges (without draining) and
//! [`take_task_events`] drains by bumping a global generation: rings
//! notice the stale generation on their owner's next append and reset
//! themselves, so draining never touches memory another thread is
//! writing. [`events_jsonl`] renders events one-JSON-object-per-line
//! for offline analysis; [`TaskEvent::to_record`] produces the
//! serialisable row embedded in [`crate::RunManifest`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Serialize;

use crate::span::current_tid;

/// How the runtime executed (or didn't execute) a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// The accurate (original) body ran.
    Accurate,
    /// The approximate (`approxfun`) body ran.
    Approx,
    /// The task was elided: chosen for approximation with no
    /// approximate body available.
    Dropped,
}

impl TaskClass {
    /// Stable lowercase name used in JSONL/manifest exports.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskClass::Accurate => "accurate",
            TaskClass::Approx => "approx",
            TaskClass::Dropped => "dropped",
        }
    }

    fn from_u64(v: u64) -> TaskClass {
        match v {
            0 => TaskClass::Accurate,
            1 => TaskClass::Approx,
            _ => TaskClass::Dropped,
        }
    }
}

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

    fn from_u64(v: u64) -> DecisionClass {
        match v {
            0 => DecisionClass::Stepped,
            1 => DecisionClass::Held,
            2 => DecisionClass::NonFinite,
            _ => DecisionClass::Converged,
        }
    }
}

/// The event-specific payload of a [`TaskEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// One task's execution decision and cost. Emitted by the executor
    /// (executed tasks, timed) and by `taskwait` itself (dropped
    /// tasks, zero duration).
    Task {
        /// Spawn-order id of the task within its group.
        task_id: u64,
        /// The task's (clamped) significance.
        significance: f64,
        /// How the runtime ran the task.
        class: TaskClass,
        /// Body wall time in nanoseconds (0 for dropped tasks).
        duration_ns: u64,
    },
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
    /// adjustment is on the same timeline as the tasks it governs.
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

/// One structured telemetry event on the merged timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEvent {
    /// Global monotonic sequence number (the merge key: sorting by
    /// `seq` yields one timeline that preserves per-thread order).
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
    /// `"task"`, `"taskwait"`, `"ratio"`, `"phase"` or
    /// `"ratio_decision"`.
    pub event: &'static str,
    /// Spawn-order task id (task events only).
    pub task_id: Option<u64>,
    /// Task significance (task events only).
    pub significance: Option<f64>,
    /// `"accurate"` / `"approx"` / `"dropped"` (task events only).
    pub class: Option<&'static str>,
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
    /// Duration in nanoseconds (task, taskwait and phase events).
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
            event: "task",
            task_id: None,
            significance: None,
            class: None,
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
            EventKind::Task {
                task_id,
                significance,
                class,
                duration_ns,
            } => {
                r.event = "task";
                r.task_id = Some(task_id);
                r.significance = Some(significance);
                r.class = Some(class.as_str());
                r.duration_ns = Some(duration_ns);
            }
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

// ───────────────────────── raw record layout ─────────────────────────

/// Words per ring record. Kind-dependent payload lives in `a..=f`; the
/// last word carries the request trace id; see `encode`/`decode` for
/// the per-kind assignment.
const WORDS: usize = 13;

const K_TASK: u64 = 0;
const K_TASKWAIT: u64 = 1;
const K_RATIO: u64 = 2;
const K_PHASE: u64 = 3;
const K_DECISION: u64 = 4;

/// One decoded raw record: `[seq, t_ns, kind, class, worker, label,
/// a, b, c, d, e, f, trace_id]`.
pub(crate) type Raw = [u64; WORDS];

fn encode(seq: u64, t_ns: u64, worker: u64, label: u32, trace_id: u64, kind: &EventKind) -> Raw {
    let mut w = [0u64; WORDS];
    w[0] = seq;
    w[1] = t_ns;
    w[4] = worker;
    w[5] = label as u64;
    w[12] = trace_id;
    match *kind {
        EventKind::Task {
            task_id,
            significance,
            class,
            duration_ns,
        } => {
            w[2] = K_TASK;
            w[3] = class as u64;
            w[6] = task_id;
            w[9] = significance.to_bits();
            w[11] = duration_ns;
        }
        EventKind::Taskwait {
            requested_ratio,
            achieved_ratio,
            accurate,
            approximate,
            dropped,
            duration_ns,
        } => {
            w[2] = K_TASKWAIT;
            w[6] = accurate;
            w[7] = approximate;
            w[8] = dropped;
            w[9] = requested_ratio.to_bits();
            w[10] = achieved_ratio.to_bits();
            w[11] = duration_ns;
        }
        EventKind::Ratio { requested } => {
            w[2] = K_RATIO;
            w[9] = requested.to_bits();
        }
        EventKind::Phase { duration_ns } => {
            w[2] = K_PHASE;
            w[11] = duration_ns;
        }
        EventKind::RatioDecision {
            step,
            ratio_before,
            ratio_after,
            signal,
            decision,
        } => {
            w[2] = K_DECISION;
            w[3] = decision as u64;
            w[6] = step;
            w[7] = ratio_before.to_bits();
            w[8] = ratio_after.to_bits();
            w[9] = signal.to_bits();
        }
    }
    w
}

fn decode(w: &Raw) -> TaskEvent {
    let kind = match w[2] {
        K_TASK => EventKind::Task {
            task_id: w[6],
            significance: f64::from_bits(w[9]),
            class: TaskClass::from_u64(w[3]),
            duration_ns: w[11],
        },
        K_TASKWAIT => EventKind::Taskwait {
            requested_ratio: f64::from_bits(w[9]),
            achieved_ratio: f64::from_bits(w[10]),
            accurate: w[6],
            approximate: w[7],
            dropped: w[8],
            duration_ns: w[11],
        },
        K_RATIO => EventKind::Ratio {
            requested: f64::from_bits(w[9]),
        },
        K_DECISION => EventKind::RatioDecision {
            step: w[6],
            ratio_before: f64::from_bits(w[7]),
            ratio_after: f64::from_bits(w[8]),
            signal: f64::from_bits(w[9]),
            decision: DecisionClass::from_u64(w[3]),
        },
        _ => EventKind::Phase { duration_ns: w[11] },
    };
    TaskEvent {
        seq: w[0],
        t_ns: w[1],
        worker: w[4],
        label: label_name(w[5] as u32),
        trace_id: w[12],
        kind,
    }
}

// ───────────────────────── label interning ─────────────────────────

/// Process-wide label table: id → name, plus reverse lookup.
struct Labels {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

fn labels() -> &'static Mutex<Labels> {
    static LABELS: OnceLock<Mutex<Labels>> = OnceLock::new();
    LABELS.get_or_init(|| {
        Mutex::new(Labels {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

thread_local! {
    /// Per-thread intern cache so the steady state never takes the
    /// global label lock.
    static LABEL_CACHE: RefCell<HashMap<String, u32>> = RefCell::new(HashMap::new());
}

fn intern(label: &str) -> u32 {
    LABEL_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&id) = cache.get(label) {
            return id;
        }
        let mut table = labels().lock().expect("label table poisoned");
        let id = match table.ids.get(label) {
            Some(&id) => id,
            None => {
                let id = table.names.len() as u32;
                table.names.push(label.to_owned());
                table.ids.insert(label.to_owned(), id);
                id
            }
        };
        cache.insert(label.to_owned(), id);
        id
    })
}

fn label_name(id: u32) -> String {
    let table = labels().lock().expect("label table poisoned");
    table
        .names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("<label#{id}>"))
}

// ─────────────────────────── the ring ───────────────────────────

/// Default per-thread ring capacity (records). At 12 words a record,
/// the default ring is 768 KiB per emitting thread.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Sets the capacity (in records) used by event rings **created after
/// this call** — existing rings keep their size. Intended for tests
/// exercising the full-ring drop path; the default is
/// [`DEFAULT_RING_CAPACITY`].
///
/// # Panics
///
/// Panics if `records` is zero.
pub fn set_ring_capacity(records: usize) {
    assert!(records > 0, "event ring capacity must be at least 1");
    RING_CAPACITY.store(records, Ordering::SeqCst);
}

/// Global generation: bumping it logically clears every ring (owners
/// reset lazily on their next append; readers ignore stale rings).
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Global monotonic event sequence — the timeline merge key.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Events counted as dropped because a ring was full.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// One thread's bounded event buffer. Only the owning thread writes
/// `words` and publishes `len`; any thread may read the published
/// prefix (all words are atomics, so concurrent reads are safe — a
/// stale-generation check discards logically-invalid snapshots).
struct EventRing {
    /// Generation the current contents belong to.
    gen: AtomicU64,
    /// Published record count (release-stored by the owner).
    len: AtomicUsize,
    /// Flat `capacity × WORDS` word storage.
    words: Box<[AtomicU64]>,
}

impl EventRing {
    fn new(capacity: usize) -> EventRing {
        EventRing {
            gen: AtomicU64::new(GENERATION.load(Ordering::SeqCst)),
            len: AtomicUsize::new(0),
            words: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.words.len() / WORDS
    }

    /// Owner-only append. Returns `false` (and counts a drop) when full.
    fn push(&self, raw: &Raw) -> bool {
        // Lazy generation reset: a drain happened since our last append.
        let current_gen = GENERATION.load(Ordering::Relaxed);
        if self.gen.load(Ordering::Relaxed) != current_gen {
            // Order matters for racing readers: invalidate first (gen
            // change makes any in-flight snapshot of this ring discard
            // itself), then reset the length.
            self.gen.store(current_gen, Ordering::SeqCst);
            self.len.store(0, Ordering::SeqCst);
        }
        let len = self.len.load(Ordering::Relaxed);
        if len >= self.capacity() {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let base = len * WORDS;
        for (i, &w) in raw.iter().enumerate() {
            self.words[base + i].store(w, Ordering::Relaxed);
        }
        self.len.store(len + 1, Ordering::Release);
        true
    }

    /// Reads the published records, or `None` when the ring's contents
    /// are from another generation (or changed generation mid-read).
    fn snapshot(&self, want_gen: u64) -> Option<Vec<Raw>> {
        if self.gen.load(Ordering::SeqCst) != want_gen {
            return None;
        }
        let n = self.len.load(Ordering::Acquire).min(self.capacity());
        let mut out = Vec::with_capacity(n);
        for rec in 0..n {
            let base = rec * WORDS;
            let mut raw = [0u64; WORDS];
            for (i, slot) in raw.iter_mut().enumerate() {
                *slot = self.words[base + i].load(Ordering::Relaxed);
            }
            out.push(raw);
        }
        // If the owner reset the ring while we read, the data may mix
        // generations — discard.
        if self.gen.load(Ordering::SeqCst) != want_gen {
            return None;
        }
        Some(out)
    }
}

/// Default bound on the spill list (records). Scoped executor workers
/// live for one `taskwait` and flush their ring on exit, so over a long
/// traced run the spill — not the rings — is where the volume ends up;
/// past the bound further spilled records are counted as dropped, the
/// same graceful degradation as a full ring.
pub const DEFAULT_SPILL_CAPACITY: usize = 1 << 20;

static SPILL_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_SPILL_CAPACITY);

/// Sets the bound (in records) of the exited-thread spill list.
/// Records flushed beyond it are counted in [`events_dropped`].
///
/// # Panics
///
/// Panics if `records` is zero.
pub fn set_spill_capacity(records: usize) {
    assert!(records > 0, "event spill capacity must be at least 1");
    SPILL_CAPACITY.store(records, Ordering::SeqCst);
}

/// Registry of live rings plus the spill list of rings whose threads
/// exited (spilled records are tagged with their generation).
struct Collector {
    rings: Vec<Arc<EventRing>>,
    spill: Vec<(u64, Raw)>,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(Collector {
            rings: Vec::new(),
            spill: Vec::new(),
        })
    })
}

/// Thread-local handle: owns the Arc and flushes on thread exit.
struct RingHandle {
    ring: Arc<EventRing>,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        // Flush this thread's records into the spill list so scoped
        // executor workers (one taskwait's lifetime) don't lose events,
        // and drop the ring from the live registry. Records of an older
        // generation were already drained (or reset away): flushing them
        // would only take spill room from live records.
        let gen = GENERATION.load(Ordering::SeqCst);
        let records = self.ring.snapshot(gen).unwrap_or_default();
        let cap = SPILL_CAPACITY.load(Ordering::SeqCst);
        let mut c = collector().lock().expect("event collector poisoned");
        let room = cap.saturating_sub(c.spill.len());
        if records.len() > room {
            DROPPED.fetch_add((records.len() - room) as u64, Ordering::Relaxed);
        }
        c.spill
            .extend(records.into_iter().take(room).map(|r| (gen, r)));
        c.rings.retain(|r| !Arc::ptr_eq(r, &self.ring));
    }
}

thread_local! {
    static RING: RingHandle = {
        let ring = Arc::new(EventRing::new(RING_CAPACITY.load(Ordering::SeqCst)));
        collector()
            .lock()
            .expect("event collector poisoned")
            .rings
            .push(Arc::clone(&ring));
        RingHandle { ring }
    };
}

#[inline]
fn emit(label: &str, kind: EventKind) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let t_ns = crate::epoch().elapsed().as_nanos() as u64;
    let trace_id = crate::current_trace_id();
    let worker = current_tid();
    let raw = encode(seq, t_ns, worker, intern(label), trace_id, &kind);
    // When a request context is capturing on this thread, copy the raw
    // (alloc-free) record into its buffer; it is decoded when the
    // context drains, off the hot path. This is how exemplars carry a
    // request's task events without a global-ring scan.
    EVENT_CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(raw);
        }
    });
    // Accessing a TLS with a destructor from within another TLS's
    // destructor can fail; count the event as dropped rather than
    // panicking in that (teardown-only) corner.
    if RING.try_with(|h| h.ring.push(&raw)).is_err() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

thread_local! {
    /// Per-thread task-event capture buffer (raw records; decoded at
    /// drain time); managed by [`TraceContext`](crate::TraceContext).
    static EVENT_CAPTURE: RefCell<Option<Vec<Raw>>> = const { RefCell::new(None) };
}

/// Swaps this thread's event-capture buffer, returning the previous one
/// (`TraceContext` uses this to nest contexts correctly).
pub(crate) fn capture_replace(new: Option<Vec<Raw>>) -> Option<Vec<Raw>> {
    EVENT_CAPTURE.with(|c| std::mem::replace(&mut *c.borrow_mut(), new))
}

/// Drains and decodes the events captured on this thread (empty when
/// not capturing).
pub(crate) fn capture_take() -> Vec<TaskEvent> {
    let raws: Vec<Raw> = EVENT_CAPTURE.with(|c| {
        c.borrow_mut()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    });
    raws.iter().map(decode).collect()
}

// ───────────────────────── public emission ─────────────────────────

/// Records one task-execution event (see [`EventKind::Task`]). A no-op
/// costing one relaxed atomic load when tracing is
/// [disabled](crate::enabled).
#[inline]
pub fn task_event(label: &str, task_id: u64, significance: f64, class: TaskClass, duration_ns: u64) {
    if crate::enabled() {
        emit(
            label,
            EventKind::Task {
                task_id,
                significance,
                class,
                duration_ns,
            },
        );
    }
}

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

fn collect(gen: u64) -> Vec<TaskEvent> {
    let c = collector().lock().expect("event collector poisoned");
    let mut raws: Vec<Raw> = c
        .spill
        .iter()
        .filter(|(g, _)| *g == gen)
        .map(|(_, r)| *r)
        .collect();
    for ring in &c.rings {
        if let Some(records) = ring.snapshot(gen) {
            raws.extend(records);
        }
    }
    drop(c);
    raws.sort_unstable_by_key(|r| r[0]);
    raws.iter().map(decode).collect()
}

/// Merges every thread's events into one timeline sorted by [`TaskEvent::seq`]
/// (rings keep their contents; see [`take_task_events`] to drain).
pub fn task_events_snapshot() -> Vec<TaskEvent> {
    collect(GENERATION.load(Ordering::SeqCst))
}

/// Drains and returns the merged timeline: the current events are
/// collected, then the global generation is bumped so every ring
/// logically empties (owners reset lazily on their next append).
pub fn take_task_events() -> Vec<TaskEvent> {
    let gen = GENERATION.load(Ordering::SeqCst);
    let events = collect(gen);
    GENERATION.fetch_add(1, Ordering::SeqCst);
    collector()
        .lock()
        .expect("event collector poisoned")
        .spill
        .retain(|(g, _)| *g > gen);
    events
}

/// Total events dropped so far because a thread's ring was full (or a
/// thread emitted during TLS teardown). Monotonic until [`reset`](crate::reset).
pub fn events_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// The current global event sequence watermark: events emitted from
/// now on have `seq >=` this value. Used by sessions to scope the
/// timeline to one run.
pub fn seq_watermark() -> u64 {
    SEQ.load(Ordering::SeqCst)
}

pub(crate) fn reset() {
    let gen = GENERATION.load(Ordering::SeqCst);
    GENERATION.fetch_add(1, Ordering::SeqCst);
    DROPPED.store(0, Ordering::Relaxed);
    collector()
        .lock()
        .expect("event collector poisoned")
        .spill
        .retain(|(g, _)| *g > gen);
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
