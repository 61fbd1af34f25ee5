//! Run manifests: a machine-readable record of one instrumented run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::events::{self, TaskEventRecord};
use crate::gate::{self, Better, Metric};
use crate::span::{self, TraceEvent};
use crate::{chrome_trace_json, events_snapshot, json_record, registry};

/// One `key = value` configuration entry of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigEntry {
    /// Configuration key (e.g. `"threads"`).
    pub key: String,
    /// Stringified value.
    pub value: String,
}
json_record!(ConfigEntry { key, value });

/// One node of the aggregated phase-timing tree: every span path
/// becomes a node whose `total_ns`/`count` aggregate all events with
/// that path (across threads), with child paths nested beneath it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNode {
    /// The phase (span) name — one path segment.
    pub name: String,
    /// Total nanoseconds across all events at this path.
    pub total_ns: u64,
    /// Number of events at this path.
    pub count: u64,
    /// Child phases, sorted by name.
    pub children: Vec<PhaseNode>,
}
json_record!(PhaseNode {
    name,
    total_ns,
    count,
    children
});

impl PhaseNode {
    fn new(name: &str) -> PhaseNode {
        PhaseNode {
            name: name.to_owned(),
            total_ns: 0,
            count: 0,
            children: Vec::new(),
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut PhaseNode {
        match self.children.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => &mut self.children[i],
            Err(i) => {
                self.children.insert(i, PhaseNode::new(name));
                &mut self.children[i]
            }
        }
    }

    /// Depth-first iteration over this node and every descendant.
    pub fn walk(&self, f: &mut impl FnMut(&PhaseNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry name.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}
json_record!(CounterSnapshot { name, value });

/// Snapshot of one histogram (summary statistics of the positive
/// finite samples; see [`crate::Histogram`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Samples that were zero, negative or non-finite.
    pub non_positive: u64,
    /// Sum of positive finite samples.
    pub sum: f64,
    /// Smallest positive finite sample (+∞ when none).
    pub min: f64,
    /// Largest positive finite sample (−∞ when none).
    pub max: f64,
}
json_record!(HistogramSnapshot {
    name,
    count,
    non_positive,
    sum,
    min,
    max
});

/// The machine-readable record of one instrumented run, serialisable
/// to `RUN_<name>.json` via [`RunManifest::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Run name (the `<name>` of `RUN_<name>.json`).
    pub name: String,
    /// `git describe --always --dirty` of the working tree, or
    /// `"unknown"` outside a repository.
    pub git: String,
    /// Worker-thread count the run was configured with.
    pub threads: usize,
    /// Arbitrary run configuration (flags, sizes, seeds).
    pub config: Vec<ConfigEntry>,
    /// Wall-clock nanoseconds from session start to capture.
    pub wall_clock_ns: u64,
    /// Sum of the root-level phase durations *on the session's own
    /// thread* — comparable against `wall_clock_ns` to check that the
    /// instrumented phases cover the run.
    pub phase_total_ns: u64,
    /// Aggregated phase-timing tree over every collected span.
    pub phases: Vec<PhaseNode>,
    /// Every registered counter, sorted by name. Values are **deltas
    /// over the session**: each counter's total at session start is
    /// subtracted, so back-to-back sessions in one process don't
    /// double-count each other's work.
    pub counters: Vec<CounterSnapshot>,
    /// Every registered histogram, sorted by name. `count`,
    /// `non_positive` and `sum` are session deltas; `min`/`max` are
    /// process-lifetime extremes (extremes can't be un-merged).
    pub histograms: Vec<HistogramSnapshot>,
    /// The structured task-event timeline of the session (only events
    /// emitted after session start), in sequence order.
    pub task_events: Vec<TaskEventRecord>,
    /// Task events lost to full rings during the session.
    pub task_events_dropped: u64,
    /// `task_events_dropped > 0`: the event timeline is truncated.
    pub degraded: bool,
}
json_record!(RunManifest {
    name,
    git,
    threads,
    config,
    wall_clock_ns,
    phase_total_ns,
    phases,
    counters,
    histograms,
    task_events,
    task_events_dropped,
    degraded
});

impl RunManifest {
    /// Serialises the manifest, with its [`RunManifest::metrics`], as
    /// JSON.
    pub fn to_json(&self) -> String {
        gate::to_json(self, &self.metrics())
    }

    /// The gated metrics: the wall clock and every phase path (single
    /// timing samples, lower is better) and every counter (work
    /// accounting is deterministic, so drift either way is flagged).
    pub fn metrics(&self) -> Vec<Metric> {
        fn phases(nodes: &[PhaseNode], prefix: &str, out: &mut Vec<Metric>) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.clone()
                } else {
                    format!("{prefix}/{}", n.name)
                };
                out.push(Metric::new(
                    format!("phase {path}"),
                    "ns",
                    Better::Lower,
                    n.total_ns as f64,
                ));
                phases(&n.children, &path, out);
            }
        }
        let mut out = vec![Metric::new(
            "wall_clock_ns",
            "ns",
            Better::Lower,
            self.wall_clock_ns as f64,
        )];
        phases(&self.phases, "", &mut out);
        out.extend(self.counters.iter().map(|c| {
            Metric::new(format!("counter {}", c.name), "count", Better::Either, c.value as f64)
        }));
        out
    }

    /// Flat list of every phase name in the tree (depth-first).
    pub fn phase_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for root in &self.phases {
            root.walk(&mut |n| names.push(n.name.clone()));
        }
        names
    }
}

/// Builds the aggregated phase tree from raw events.
fn phase_tree(events: &[TraceEvent]) -> Vec<PhaseNode> {
    let mut virtual_root = PhaseNode::new("");
    for e in events {
        let mut node = &mut virtual_root;
        for seg in e.path.split('/') {
            node = node.child_mut(seg);
        }
        node.total_ns += e.dur_ns;
        node.count += 1;
    }
    virtual_root.children
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// An instrumented run: [`RunSession::start`] snapshots the current
/// state of every collector and enables collection;
/// [`RunSession::finish`] (or [`RunSession::finish_in`]) snapshots
/// everything into a [`RunManifest`], writes `RUN_<name>.json` (and
/// optionally the Chrome trace), and disables collection again.
///
/// Sessions are **delta-scoped**, not global: counters record the
/// difference against their value at session start, histograms the
/// difference of their running count/sum, and spans/task events are
/// cut at a start watermark. Two back-to-back sessions in one process
/// therefore each report only their own work — starting a session no
/// longer wipes collector state someone else may still be reading.
///
/// ```no_run
/// let session = scorpio_obs::RunSession::start("demo");
/// { let _s = scorpio_obs::span("work"); /* ... */ }
/// let manifest = session
///     .finish(4, &[("small".into(), "true".into())],
///             Some(std::path::Path::new("trace.json")))
///     .unwrap();
/// assert!(manifest.phase_names().contains(&"work".to_owned()));
/// ```
#[derive(Debug)]
pub struct RunSession {
    name: String,
    started: Instant,
    tid: u64,
    /// Span-sink length at session start: only events recorded after
    /// this index belong to the session.
    span_watermark: usize,
    /// Task-event sequence watermark at session start.
    event_watermark: u64,
    /// Dropped-event total at session start.
    dropped_base: u64,
    /// Counter totals at session start (absent = counter created
    /// during the session, base 0).
    counter_base: BTreeMap<String, u64>,
    /// Histogram `(count, non_positive, sum)` at session start.
    histogram_base: BTreeMap<String, (u64, u64, f64)>,
}

impl RunSession {
    /// Snapshots the current collector state (the session's baseline),
    /// enables instrumentation and starts the wall clock.
    pub fn start(name: impl Into<String>) -> RunSession {
        let counter_base = registry()
            .counters()
            .iter()
            .map(|c| (c.name().to_owned(), c.get()))
            .collect();
        let histogram_base = registry()
            .histograms()
            .iter()
            .map(|h| (h.name().to_owned(), (h.count(), h.non_positive(), h.sum())))
            .collect();
        let session = RunSession {
            name: name.into(),
            started: Instant::now(),
            tid: span::current_tid(),
            span_watermark: events_snapshot().len(),
            event_watermark: events::seq_watermark(),
            dropped_base: events::events_dropped(),
            counter_base,
            histogram_base,
        };
        crate::enable();
        session
    }

    /// The run's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshots the current spans and metrics into a manifest without
    /// ending the session. Everything is reported as a delta against
    /// the state captured by [`RunSession::start`].
    pub fn manifest(&self, threads: usize, config: &[(String, String)]) -> RunManifest {
        let events = self.session_spans();
        let phase_total_ns = events
            .iter()
            .filter(|e| e.depth == 0 && e.tid == self.tid)
            .map(|e| e.dur_ns)
            .sum();
        let counter_delta = |name: &str, value: u64| {
            value.saturating_sub(self.counter_base.get(name).copied().unwrap_or(0))
        };
        let task_events_dropped = events::events_dropped().saturating_sub(self.dropped_base);
        RunManifest {
            name: self.name.clone(),
            git: git_describe(),
            threads,
            config: config
                .iter()
                .map(|(k, v)| ConfigEntry {
                    key: k.clone(),
                    value: v.clone(),
                })
                .collect(),
            wall_clock_ns: self.started.elapsed().as_nanos() as u64,
            phase_total_ns,
            phases: phase_tree(&events),
            counters: registry()
                .counters()
                .iter()
                .map(|c| CounterSnapshot {
                    name: c.name().to_owned(),
                    value: counter_delta(c.name(), c.get()),
                })
                .collect(),
            histograms: registry()
                .histograms()
                .iter()
                .map(|h| {
                    let (count0, np0, sum0) = self
                        .histogram_base
                        .get(h.name())
                        .copied()
                        .unwrap_or((0, 0, 0.0));
                    HistogramSnapshot {
                        name: h.name().to_owned(),
                        count: h.count().saturating_sub(count0),
                        non_positive: h.non_positive().saturating_sub(np0),
                        sum: h.sum() - sum0,
                        min: h.min(),
                        max: h.max(),
                    }
                })
                .collect(),
            task_events: events::task_events_snapshot()
                .iter()
                .filter(|e| e.seq >= self.event_watermark)
                .map(|e| e.to_record())
                .collect(),
            task_events_dropped,
            degraded: task_events_dropped > 0,
        }
    }

    /// The span events recorded since the session started (best-effort:
    /// if another party drained the sink mid-session the watermark is
    /// clamped, so the result is never out of bounds).
    fn session_spans(&self) -> Vec<TraceEvent> {
        let mut events = events_snapshot();
        let start = self.span_watermark.min(events.len());
        events.drain(..start);
        events
    }

    /// Ends the session: snapshots the manifest, writes
    /// `RUN_<name>.json` into the current directory (and the Chrome
    /// trace to `trace_path` when given), disables instrumentation and
    /// returns the manifest. See [`RunSession::finish_in`] to choose
    /// the manifest directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing either file.
    pub fn finish(
        self,
        threads: usize,
        config: &[(String, String)],
        trace_path: Option<&Path>,
    ) -> std::io::Result<RunManifest> {
        self.finish_in(Path::new("."), threads, config, trace_path)
    }

    /// [`RunSession::finish`], but writes `RUN_<name>.json` into
    /// `out_dir` (created if missing). The Chrome trace still goes to
    /// the explicit `trace_path` when one is given.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or writing
    /// either file.
    pub fn finish_in(
        self,
        out_dir: &Path,
        threads: usize,
        config: &[(String, String)],
        trace_path: Option<&Path>,
    ) -> std::io::Result<RunManifest> {
        let manifest = self.manifest(threads, config);
        std::fs::create_dir_all(out_dir)?;
        if let Some(path) = trace_path {
            std::fs::write(path, chrome_trace_json(&self.session_spans()))?;
        }
        let manifest_path: PathBuf = out_dir.join(format!("RUN_{}.json", self.name));
        std::fs::write(&manifest_path, manifest.to_json())?;
        crate::disable();
        Ok(manifest)
    }
}
