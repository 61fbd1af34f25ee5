//! The newline-delimited JSON wire format.
//!
//! One request object per line, one response object per line, in
//! request order per connection. Requests are parsed with
//! [`scorpio_obs::json::parse`]; responses are plain records rendered
//! by [`scorpio_obs::json::to_string`] — the same writer
//! [`Report::to_json`](scorpio_core::Report::to_json) uses, so a
//! served [`ReportRecord`] is byte-identical to the record a direct
//! library call would serialize (the property the round-trip test
//! pins).
//!
//! # Requests
//!
//! ```json
//! {"id":7,"cmd":"analyze","kernel":"fisheye","width":64,"height":64,
//!  "ratio":0.5,"detail":"vars","items":[{"u":3,"v":9},{"u":60,"v":60}]}
//! {"id":8,"cmd":"stats"}
//! {"id":9,"cmd":"cache_clear"}
//! {"id":10,"cmd":"shutdown"}
//! {"id":11,"cmd":"metrics"}
//! {"id":12,"cmd":"window"}
//! {"id":13,"cmd":"exemplars"}
//! ```
//!
//! `cmd` defaults to `"analyze"`, `ratio` to `1.0`, `detail` to
//! `"vars"` (`"full"` adds the node-level significance graph to each
//! report). Kernel parameters are documented in [`crate::kernels`].
//!
//! Any request may carry a `trace_id` — a string of up to 16 hex
//! digits (preferred: survives f64 JSON number parsing losslessly) or
//! a non-negative integer. Analyze requests without one get a
//! server-generated id; the id is echoed in the analyze response and
//! stamps every span and task event the request emits, which is how
//! the `exemplars` dump reassembles a request's full span tree. The
//! live-observability verbs are answered on the connection thread:
//! `metrics` returns the Prometheus text exposition (also served by
//! the HTTP sidecar, see [`ServerConfig`](crate::ServerConfig)),
//! `window` the sliding-window SLO snapshots, `exemplars` the
//! tail-retained slow/error span trees.
//!
//! # Responses
//!
//! Every response carries the request's `id` and an `ok` flag; errors
//! (malformed JSON, unknown kernel/command, analysis failures) answer
//! `{"id":N,"ok":false,"error":"..."}` on the same connection without
//! closing it.

use scorpio_core::{ReportRecord, VarSignificances};
use scorpio_obs::json::{self, Value, WriteJson};
use scorpio_obs::{json_record, KernelWindowStats, TaskEventRecord};

use crate::exemplar::Exemplar;
use crate::kernels::{kernel_index, KernelRequest, KERNEL_NAMES};

/// How much of the analysis result a request wants back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detail {
    /// Registered-variable rows only (skips building the significance
    /// graph — the fast path and the default).
    Vars,
    /// Full reports including the node-level graph records.
    Full,
}

/// One parsed analyze command.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// The kernel batch to run.
    pub kernel: KernelRequest,
    /// Requested taskwait ratio in `[0, 1]`: the fraction of the
    /// batch's tasks classified (and event-logged) as accurate, ranked
    /// by per-item output significance.
    pub ratio: f64,
    /// Result detail level.
    pub detail: Detail,
}

/// The commands a request line can carry.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run a kernel batch.
    Analyze(AnalyzeRequest),
    /// Report server/cache/replay statistics.
    Stats,
    /// Drop every cached compiled trace (the cold-cache ablation knob).
    CacheClear,
    /// Render the Prometheus text exposition (live scrape).
    Metrics,
    /// Report the sliding-window SLO snapshots per kernel.
    Window,
    /// Dump the tail-retained slow/error exemplars.
    Exemplars,
    /// Stop the server after replying (deterministic lifecycle for
    /// tests and benchmarks; also writes the run manifest).
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim in the response (defaults to 0).
    pub id: u64,
    /// Client-supplied trace id (0 = none; the server generates one
    /// for analyze requests).
    pub trace_id: u64,
    /// The command to execute.
    pub cmd: Command,
}

/// A parse failure, keeping the best-effort request id so the error
/// reply still correlates with the request that caused it.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// The request's id if one could be read, else 0.
    pub id: u64,
    /// The catalogue kernel the request named, when that much parsed —
    /// lets the server attribute the error to a kernel in its
    /// per-kernel error counts and windows.
    pub kernel: Option<&'static str>,
    /// Human-readable description, echoed in the error reply.
    pub message: String,
}

/// Parses one request line.
///
/// # Errors
///
/// [`ParseError`] with a message naming what was wrong; the connection
/// stays usable.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let v = json::parse(line).map_err(|e| ParseError {
        id: 0,
        kernel: None,
        message: format!("malformed JSON: {e}"),
    })?;
    let id = v
        .get("id")
        .and_then(Value::as_f64)
        .filter(|x| x.is_finite() && *x >= 0.0)
        .map(|x| x as u64)
        .unwrap_or(0);
    // Best-effort kernel attribution for error accounting: resolve the
    // catalogue name even when the rest of the request fails to parse.
    let kernel_name: Option<&'static str> = v
        .get("kernel")
        .and_then(Value::as_str)
        .and_then(kernel_index)
        .map(|i| KERNEL_NAMES[i]);
    let fail = |message: String| ParseError {
        id,
        kernel: kernel_name,
        message,
    };
    let trace_id = parse_trace_id(&v).map_err(|m| fail(m.to_string()))?;
    let cmd = match v.get("cmd").and_then(Value::as_str).unwrap_or("analyze") {
        "analyze" => {
            let kernel = KernelRequest::from_value(&v).map_err(&fail)?;
            let ratio = match v.get("ratio") {
                None | Some(Value::Null) => 1.0,
                Some(x) => x
                    .as_f64()
                    .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
                    .ok_or_else(|| fail("\"ratio\" must be a number in [0, 1]".to_string()))?,
            };
            let detail = match v.get("detail").and_then(Value::as_str).unwrap_or("vars") {
                "vars" => Detail::Vars,
                "full" => Detail::Full,
                other => {
                    return Err(fail(format!(
                        "unknown detail \"{other}\" (expected \"vars\" or \"full\")"
                    )))
                }
            };
            Command::Analyze(AnalyzeRequest {
                kernel,
                ratio,
                detail,
            })
        }
        "stats" => Command::Stats,
        "cache_clear" => Command::CacheClear,
        "metrics" => Command::Metrics,
        "window" => Command::Window,
        "exemplars" => Command::Exemplars,
        "shutdown" => Command::Shutdown,
        other => return Err(fail(format!("unknown cmd \"{other}\""))),
    };
    Ok(Request { id, trace_id, cmd })
}

/// Reads the optional `trace_id` field: a string of 1–16 hex digits
/// (lossless for the full u64 range) or a non-negative integer
/// (client convenience; capped by f64 integer precision at 2⁵³).
///
/// # Errors
///
/// A message describing the accepted forms.
pub fn parse_trace_id(v: &Value) -> Result<u64, &'static str> {
    const MSG: &str = "\"trace_id\" must be a string of 1-16 hex digits or a non-negative integer";
    match v.get("trace_id") {
        None | Some(Value::Null) => Ok(0),
        Some(Value::Str(s)) => {
            if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(MSG);
            }
            u64::from_str_radix(s, 16).map_err(|_| MSG)
        }
        Some(x) => x
            .as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15)
            .map(|n| n as u64)
            .ok_or(MSG),
    }
}

/// Renders a trace id the way the wire carries it: 16 hex digits.
pub fn trace_id_hex(trace_id: u64) -> String {
    format!("{trace_id:016x}")
}

/// Per-task classification row of an analyze response: how the
/// requested taskwait ratio ranked this item.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Item index within the request batch.
    pub task_id: u64,
    /// The item's raw output significance (the ranking key).
    pub significance: f64,
    /// `"accurate"` or `"approximate"` under the requested ratio.
    pub class: String,
}
json_record!(TaskRecord {
    task_id,
    significance,
    class
});

/// Successful analyze response.
#[derive(Debug, Clone)]
pub struct AnalyzeResponse {
    /// Echoed request id.
    pub id: u64,
    /// Always `true` (errors use [`ErrorResponse`]).
    pub ok: bool,
    /// The request's trace id as 16 hex digits (client-supplied or
    /// server-generated) — the handle for `exemplars` lookups.
    pub trace_id: String,
    /// Kernel catalogue name.
    pub kernel: &'static str,
    /// `true` when the compiled trace came from the tape cache
    /// (i.e. this request skipped recording entirely).
    pub cached: bool,
    /// Server-side wall time for the batch, nanoseconds.
    pub server_ns: u64,
    /// Ratio-driven task classification, one row per item.
    pub tasks: Vec<TaskRecord>,
    /// One report per item, in item order (`detail: "vars"` leaves
    /// `nodes` empty).
    pub reports: Vec<ReportRecord>,
}
json_record!(AnalyzeResponse {
    id,
    ok,
    trace_id,
    kernel,
    cached,
    server_ns,
    tasks,
    reports
});

/// Error reply (parse failures, unknown kernels, analysis errors).
#[derive(Debug, Clone)]
pub struct ErrorResponse {
    /// Echoed request id (0 if unknown).
    pub id: u64,
    /// Always `false`.
    pub ok: bool,
    /// Human-readable description.
    pub error: String,
}
json_record!(ErrorResponse { id, ok, error });

/// Cache section of a stats response.
#[derive(Debug, Clone)]
pub struct CacheStatsRecord {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that recorded afresh.
    pub misses: u64,
    /// Traces stored.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Entry capacity.
    pub capacity: usize,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}
json_record!(CacheStatsRecord {
    hits,
    misses,
    insertions,
    evictions,
    len,
    capacity,
    hit_rate
});

/// Replay section of a stats response (worker totals, merged via
/// [`ReplayStats::merge`](scorpio_core::ReplayStats::merge)).
#[derive(Debug, Clone)]
pub struct ReplayStatsRecord {
    /// Items served by replaying a compiled trace.
    pub replays: u64,
    /// Items that recorded from scratch.
    pub records: u64,
    /// Recordings forced despite a compiled trace existing.
    pub fallbacks: u64,
    /// Full lane blocks replayed in one op-stream walk.
    pub lane_blocks: u64,
    /// Items the lane drivers served one by one (width-1 replays or
    /// recordings) instead of in a full lane block.
    pub lane_remainder: u64,
}
json_record!(ReplayStatsRecord {
    replays,
    records,
    fallbacks,
    lane_blocks,
    lane_remainder
});

/// Per-kernel request tally of a stats response.
#[derive(Debug, Clone)]
pub struct KernelCountRecord {
    /// Kernel catalogue name.
    pub kernel: &'static str,
    /// Analyze requests served (including failed ones).
    pub requests: u64,
    /// Requests for this kernel answered with an error (parse or
    /// analysis failures).
    pub errors: u64,
}
json_record!(KernelCountRecord {
    kernel,
    requests,
    errors
});

/// Stats response.
#[derive(Debug, Clone)]
pub struct StatsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Always `true`.
    pub ok: bool,
    /// Worker-pool size.
    pub workers: usize,
    /// Milliseconds since the server started serving.
    pub uptime_ms: u64,
    /// Task events dropped by the process-wide event log over the
    /// process lifetime: the log keeps the first 2,048 events and
    /// counts the rest.
    pub events_dropped: u64,
    /// Spans evicted from the bounded global trace sink over the
    /// process lifetime (per-request exemplar capture is unaffected).
    pub spans_dropped: u64,
    /// Total request lines handled (all commands).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Compiled-tape cache counters.
    pub cache: CacheStatsRecord,
    /// Merged per-worker replay counters.
    pub replay: ReplayStatsRecord,
    /// Analyze-request tallies per kernel.
    pub kernels: Vec<KernelCountRecord>,
}
json_record!(StatsResponse {
    id,
    ok,
    workers,
    uptime_ms,
    events_dropped,
    spans_dropped,
    requests,
    errors,
    cache,
    replay,
    kernels
});

/// `metrics` response: the Prometheus text exposition as one JSON
/// string field (the HTTP sidecar serves the same body raw).
#[derive(Debug, Clone)]
pub struct MetricsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Always `true`.
    pub ok: bool,
    /// Exposition format identifier.
    pub format: &'static str,
    /// The exposition text (`# TYPE` comments + samples, newline
    /// separated).
    pub body: String,
}
json_record!(MetricsResponse {
    id,
    ok,
    format,
    body
});

/// One span of one kernel's sliding window in a `window` response.
#[derive(Debug, Clone)]
pub struct WindowSpanRecord {
    /// Span label (`"10s"`, `"1m"`, `"5m"`).
    pub span: &'static str,
    /// Requests inside the span.
    pub requests: u64,
    /// Failed requests inside the span.
    pub errors: u64,
    /// Requests per second over the span.
    pub rate_per_s: f64,
    /// `errors / requests` (`null` when no requests).
    pub error_rate: f64,
    /// Median service latency, nanoseconds (`null` when empty).
    pub p50_ns: f64,
    /// 90th-percentile service latency, nanoseconds.
    pub p90_ns: f64,
    /// 99th-percentile service latency, nanoseconds.
    pub p99_ns: f64,
    /// Tape-cache lookups inside the span.
    pub cache_lookups: u64,
    /// Tape-cache hits inside the span.
    pub cache_hits: u64,
    /// `cache_hits / cache_lookups` (`null` when no lookups).
    pub cache_hit_rate: f64,
    /// Mean requested taskwait ratio (`null` when no samples).
    pub requested_ratio: f64,
    /// Mean achieved taskwait ratio (`null` when no samples).
    pub achieved_ratio: f64,
}
json_record!(WindowSpanRecord {
    span,
    requests,
    errors,
    rate_per_s,
    error_rate,
    p50_ns,
    p90_ns,
    p99_ns,
    cache_lookups,
    cache_hits,
    cache_hit_rate,
    requested_ratio,
    achieved_ratio
});

/// Per-kernel window section of a `window` response.
#[derive(Debug, Clone)]
pub struct KernelWindowRecord {
    /// Kernel catalogue name.
    pub kernel: String,
    /// One record per span in
    /// [`WINDOW_SPANS`](scorpio_obs::WINDOW_SPANS) order.
    pub spans: Vec<WindowSpanRecord>,
}
json_record!(KernelWindowRecord { kernel, spans });

/// `window` response.
#[derive(Debug, Clone)]
pub struct WindowResponse {
    /// Echoed request id.
    pub id: u64,
    /// Always `true`.
    pub ok: bool,
    /// Milliseconds since the server started (the windows' "now").
    pub uptime_ms: u64,
    /// Per-kernel sliding-window snapshots.
    pub kernels: Vec<KernelWindowRecord>,
}
json_record!(WindowResponse {
    id,
    ok,
    uptime_ms,
    kernels
});

/// Converts an obs [`KernelWindowStats`] into its wire record.
pub fn window_to_record(stats: &KernelWindowStats) -> KernelWindowRecord {
    KernelWindowRecord {
        kernel: stats.kernel.clone(),
        spans: stats
            .spans
            .iter()
            .map(|&(span, w)| WindowSpanRecord {
                span,
                requests: w.requests,
                errors: w.errors,
                rate_per_s: w.rate_per_s,
                error_rate: w.error_rate,
                p50_ns: w.p50_ns,
                p90_ns: w.p90_ns,
                p99_ns: w.p99_ns,
                cache_lookups: w.cache_lookups,
                cache_hits: w.cache_hits,
                cache_hit_rate: w.cache_hit_rate,
                requested_ratio: w.requested_ratio_mean,
                achieved_ratio: w.achieved_ratio_mean,
            })
            .collect(),
    }
}

/// One span row of an exemplar dump (a flattened
/// [`TraceEvent`](scorpio_obs::TraceEvent)).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Slash-joined ancestry within the recording thread.
    pub path: String,
    /// The span's own name.
    pub name: String,
    /// Start time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Dense id of the recording thread.
    pub tid: u64,
    /// Nesting depth within the thread.
    pub depth: usize,
}
json_record!(SpanRecord {
    path,
    name,
    start_ns,
    dur_ns,
    tid,
    depth
});

/// One retained request in an `exemplars` response.
#[derive(Debug, Clone)]
pub struct ExemplarRecord {
    /// Trace id, 16 hex digits.
    pub trace_id: String,
    /// Kernel catalogue name (`"-"` when unresolved).
    pub kernel: &'static str,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Whether the compiled trace came from the tape cache.
    pub cached: bool,
    /// Service latency, nanoseconds.
    pub latency_ns: u64,
    /// Completion time, nanoseconds since server start.
    pub end_t_ns: u64,
    /// The request's span tree, in completion order.
    pub spans: Vec<SpanRecord>,
    /// The request's task events (same rows as the manifest JSONL).
    pub events: Vec<TaskEventRecord>,
}
json_record!(ExemplarRecord {
    trace_id,
    kernel,
    ok,
    cached,
    latency_ns,
    end_t_ns,
    spans,
    events
});

/// Converts a retained [`Exemplar`] into its wire record.
pub fn exemplar_to_record(e: &Exemplar) -> ExemplarRecord {
    ExemplarRecord {
        trace_id: trace_id_hex(e.trace_id),
        kernel: e.kernel,
        ok: e.ok,
        cached: e.cached,
        latency_ns: e.latency_ns,
        end_t_ns: e.end_t_ns,
        spans: e
            .spans
            .iter()
            .map(|s| SpanRecord {
                path: s.path.clone(),
                name: s.name.clone(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                tid: s.tid,
                depth: s.depth,
            })
            .collect(),
        events: e.events.iter().map(scorpio_obs::TaskEvent::to_record).collect(),
    }
}

/// `exemplars` response.
#[derive(Debug, Clone)]
pub struct ExemplarsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Always `true`.
    pub ok: bool,
    /// Retained exemplars: errors newest-first, then slow requests
    /// slowest-first.
    pub exemplars: Vec<ExemplarRecord>,
    /// Successful requests offered to the ring but not retained.
    pub passed: u64,
}
json_record!(ExemplarsResponse {
    id,
    ok,
    exemplars,
    passed
});

/// Bare acknowledgement (`cache_clear`, `shutdown`).
#[derive(Debug, Clone)]
pub struct AckResponse {
    /// Echoed request id.
    pub id: u64,
    /// Always `true`.
    pub ok: bool,
}
json_record!(AckResponse { id, ok });

/// Writes `response` as one wire line (no trailing newline).
pub fn response_line<T: WriteJson>(response: &T) -> String {
    json::to_string(response)
}

/// Builds the error reply line for `(id, message)`.
pub fn error_line(id: u64, message: impl Into<String>) -> String {
    response_line(&ErrorResponse {
        id,
        ok: false,
        error: message.into(),
    })
}

/// Converts variables-only results into a [`ReportRecord`] (empty
/// `nodes`): the rows' half of [`Report::to_record`](scorpio_core::Report::to_record),
/// so the shared rows stay byte-identical.
pub fn vars_to_record(vars: &VarSignificances) -> ReportRecord {
    vars.to_record()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_bounds() {
        let req = parse_request(r#"{"kernel":"maclaurin","n":3,"items":[0.5]}"#).unwrap();
        assert_eq!(req.id, 0);
        match req.cmd {
            Command::Analyze(a) => {
                assert_eq!(a.ratio, 1.0);
                assert_eq!(a.detail, Detail::Vars);
                assert_eq!(a.kernel.name(), "maclaurin");
            }
            other => panic!("expected analyze, got {other:?}"),
        }
        let err = parse_request(r#"{"id":4,"kernel":"maclaurin","n":3,"ratio":1.5,"items":[1]}"#)
            .unwrap_err();
        assert_eq!(err.id, 4, "error must keep the request id");
        assert!(err.message.contains("ratio"));
        let err = parse_request("not json").unwrap_err();
        assert!(err.message.contains("malformed"));
        let err = parse_request(r#"{"id":2,"cmd":"reboot"}"#).unwrap_err();
        assert!(err.message.contains("unknown cmd"));
    }

    #[test]
    fn control_commands_parse() {
        for (line, want) in [
            (r#"{"id":1,"cmd":"stats"}"#, "Stats"),
            (r#"{"id":2,"cmd":"cache_clear"}"#, "CacheClear"),
            (r#"{"id":3,"cmd":"shutdown"}"#, "Shutdown"),
        ] {
            let req = parse_request(line).unwrap();
            assert_eq!(format!("{:?}", req.cmd), want);
        }
    }

    #[test]
    fn error_line_escapes_message() {
        let line = error_line(3, "bad \"field\"");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("bad \"field\""));
    }
}
