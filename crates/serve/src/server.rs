//! The serve loop: accept thread, connection threads, worker pool and
//! the shared compiled-tape cache.
//!
//! # Threading model
//!
//! * The **accept loop** ([`Server::run`]) hands each connection to its
//!   own thread — connections only parse, enqueue and write lines, so
//!   thread-per-connection is cheap and keeps per-connection response
//!   order trivially correct.
//! * Analyze commands are pushed onto one shared MPSC queue consumed by
//!   a **fixed pool of worker threads**. Each worker owns the mutable
//!   analysis state — an [`AnalysisArena`], a [`LaneScratch`] and one
//!   [`ReplayOrRecord`] driver, shared by every kernel because each
//!   request installs or clears its trace (below) — so the hot path
//!   never locks anything but the queue and one cache shard.
//! * Control commands (`stats`, `cache_clear`, `shutdown`) are answered
//!   on the connection thread; they touch only shared atomics and the
//!   cache.
//!
//! # The cache is the source of truth
//!
//! On every analyze request the worker consults the shared
//! [`TapeCache`] under the request's `(kernel, shape_key)`:
//!
//! * **hit** — the cached [`CompiledTrace`](scorpio_core::CompiledTrace)
//!   is installed into the
//!   worker's driver ([`ReplayOrRecord::install`], an `Arc` bump) and
//!   the whole batch replays without recording.
//! * **miss** — the worker *clears* its driver's private trace first
//!   ([`ReplayOrRecord::clear_compiled`]) so the request pays a true
//!   fresh recording, then publishes the new trace
//!   ([`ReplayOrRecord::share`]) for every other worker.
//!
//! Clearing on miss keeps worker-private state from shadowing the
//! cache: after `cache_clear`, the next request per shape genuinely
//! re-records, the miss path perfbench times as
//! `serve.kernels.run_vars_cold_us`.

use std::any::Any;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scorpio_core::{
    Analysis, AnalysisArena, LaneScratch, ReplayOrRecord, ReplayStats, TapeCache, TapeCacheStats,
    DEFAULT_LANES,
};
use scorpio_obs::expose::PrometheusRenderer;
use scorpio_obs::{KernelWindowStats, RequestSample, RunSession, SlidingWindow, TraceEvent};

use crate::exemplar::{Exemplar, ExemplarRing};
use crate::kernels::{kernel_index, KERNEL_NAMES};
use crate::protocol::{
    error_line, exemplar_to_record, parse_request, response_line, trace_id_hex, vars_to_record,
    window_to_record, AckResponse, AnalyzeRequest, AnalyzeResponse, CacheStatsRecord, Command,
    Detail, ExemplarsResponse, KernelCountRecord, MetricsResponse, ReplayStatsRecord,
    StatsResponse, TaskRecord, WindowResponse,
};

/// Slow-request exemplars retained by the tail ring.
const EXEMPLAR_SLOW_CAP: usize = 16;
/// Error-request exemplars retained by the tail ring.
const EXEMPLAR_ERROR_CAP: usize = 32;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size.
    pub workers: usize,
    /// Compiled-tape cache capacity (entries).
    pub cache_capacity: usize,
    /// When set, tracing is enabled for the server's lifetime and a
    /// `RUN_<name>.json` manifest (per-kernel latency histograms, task
    /// events, counters) is written into `out_dir` on shutdown.
    pub manifest: Option<String>,
    /// Artifact directory for the manifest (the `--out-dir`
    /// convention; default `out/`).
    pub out_dir: PathBuf,
    /// Live observability: when `true` (the default) tracing is
    /// enabled for the server's lifetime, so per-request spans and
    /// task events are recorded, stamped with trace ids and
    /// tail-retained in the exemplar ring. Sliding windows and the
    /// `metrics`/`window` verbs work either way (their cost is not
    /// gated); `bench_obs` measures the difference.
    pub obs: bool,
    /// When set, a read-only HTTP sidecar listener binds here
    /// (`127.0.0.1:0` picks an ephemeral port) and answers every
    /// request with the Prometheus text exposition — scrapeable
    /// without speaking the JSON protocol or shutting the server
    /// down.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 64,
            manifest: None,
            out_dir: PathBuf::from("out"),
            obs: true,
            metrics_addr: None,
        }
    }
}

/// What the server observed over its lifetime, returned by
/// [`Server::run`] after a clean shutdown.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// Request lines handled (all commands).
    pub requests: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Analyze requests per kernel, in [`KERNEL_NAMES`] order.
    pub kernel_requests: [u64; 5],
    /// Merged per-worker replay counters.
    pub replay: ReplayStats,
    /// Cache traffic counters.
    pub cache: TapeCacheStats,
}

/// Shared server state (one per [`Server::run`]).
struct Shared {
    cache: TapeCache,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    kernel_requests: [AtomicU64; 5],
    kernel_errors: [AtomicU64; 5],
    /// Worker replay counters, folded in after every analyze request so
    /// `stats` replies are always current.
    replay: Mutex<ReplayStats>,
    workers: usize,
    /// Serving epoch: window timestamps and `uptime_ms` count from
    /// here.
    started: Instant,
    /// Per-kernel sliding-window SLO aggregators (always on).
    windows: [SlidingWindow; 5],
    /// Tail-retained slow/error exemplars.
    exemplars: ExemplarRing,
    /// Monotonic source for server-generated trace ids.
    trace_counter: AtomicU64,
}

/// SplitMix64 finalizer: spreads the sequential trace counter over the
/// id space so server-generated ids don't collide with small
/// client-chosen ones.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Shared {
    fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn count_kernel_error(&self, kernel: &str) {
        if let Some(i) = kernel_index(kernel) {
            self.kernel_errors[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Nanoseconds since the server started serving.
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// A fresh, never-zero trace id.
    fn next_trace_id(&self) -> u64 {
        let id = mix64(self.trace_counter.fetch_add(1, Ordering::Relaxed));
        id | 1
    }

    /// Folds one finished request into its kernel's sliding window.
    fn record_window(&self, kernel: &str, sample: RequestSample) {
        if let Some(i) = kernel_index(kernel) {
            self.windows[i].record(self.now_ns(), &sample);
        }
    }

    fn stats_response(&self, id: u64) -> StatsResponse {
        let cache = self.cache.stats();
        // A worker that panicked mid-merge poisons this mutex; the
        // guarded data is plain counters (at worst missing that
        // worker's last delta), so salvage it — `stats` must keep
        // answering after a bad job rather than panicking the daemon.
        let replay = *self
            .replay
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        StatsResponse {
            id,
            ok: true,
            workers: self.workers,
            uptime_ms: self.uptime_ms(),
            events_dropped: scorpio_obs::events_dropped(),
            spans_dropped: scorpio_obs::spans_dropped(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache: CacheStatsRecord {
                hits: cache.hits,
                misses: cache.misses,
                insertions: cache.insertions,
                evictions: cache.evictions,
                len: self.cache.len(),
                capacity: self.cache.capacity(),
                hit_rate: cache.hit_rate(),
            },
            replay: ReplayStatsRecord {
                replays: replay.replays,
                records: replay.records,
                fallbacks: replay.fallbacks,
                lane_blocks: replay.lane_blocks,
                lane_remainder: replay.lane_remainder,
            },
            kernels: KERNEL_NAMES
                .iter()
                .enumerate()
                .map(|(i, &kernel)| KernelCountRecord {
                    kernel,
                    requests: self.kernel_requests[i].load(Ordering::Relaxed),
                    errors: self.kernel_errors[i].load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Per-kernel window snapshots at "now", in catalogue order.
    fn window_stats(&self) -> Vec<KernelWindowStats> {
        let now_ns = self.now_ns();
        KERNEL_NAMES
            .iter()
            .enumerate()
            .map(|(i, &kernel)| KernelWindowStats {
                kernel: kernel.to_string(),
                spans: self.windows[i].snapshot_all(now_ns),
            })
            .collect()
    }

    fn window_response(&self, id: u64) -> WindowResponse {
        WindowResponse {
            id,
            ok: true,
            uptime_ms: self.uptime_ms(),
            kernels: self.window_stats().iter().map(window_to_record).collect(),
        }
    }

    fn exemplars_response(&self, id: u64) -> ExemplarsResponse {
        ExemplarsResponse {
            id,
            ok: true,
            exemplars: self
                .exemplars
                .snapshot()
                .iter()
                .map(exemplar_to_record)
                .collect(),
            passed: self.exemplars.passed(),
        }
    }

    /// Renders the full Prometheus text exposition: the global metrics
    /// registry, server/cache/replay gauges, and the sliding windows.
    fn metrics_body(&self) -> String {
        let mut r = PrometheusRenderer::new();
        r.render_registry();
        r.counter(
            "scorpio_serve_requests_total",
            "Request lines handled (all commands).",
            &[],
            self.requests.load(Ordering::Relaxed) as f64,
        );
        r.counter(
            "scorpio_serve_errors_total",
            "Requests answered with an error.",
            &[],
            self.errors.load(Ordering::Relaxed) as f64,
        );
        r.gauge(
            "scorpio_serve_uptime_seconds",
            "Seconds since the server started serving.",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        r.counter(
            "scorpio_events_dropped_total",
            "Events dropped because the bounded event log was full.",
            &[],
            scorpio_obs::events_dropped() as f64,
        );
        r.counter(
            "scorpio_spans_dropped_total",
            "Spans evicted from the bounded global trace sink.",
            &[],
            scorpio_obs::spans_dropped() as f64,
        );
        let cache = self.cache.stats();
        for (name, help, v) in [
            ("scorpio_cache_hits_total", "Tape-cache lookups served from the cache.", cache.hits),
            ("scorpio_cache_misses_total", "Tape-cache lookups that recorded afresh.", cache.misses),
            ("scorpio_cache_insertions_total", "Compiled traces stored.", cache.insertions),
            ("scorpio_cache_evictions_total", "Entries evicted by the LRU bound.", cache.evictions),
        ] {
            r.counter(name, help, &[], v as f64);
        }
        r.gauge(
            "scorpio_cache_entries",
            "Compiled traces currently cached.",
            &[],
            self.cache.len() as f64,
        );
        r.gauge(
            "scorpio_cache_capacity",
            "Tape-cache entry capacity.",
            &[],
            self.cache.capacity() as f64,
        );
        let replay = *self
            .replay
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, help, v) in [
            ("scorpio_replay_replays_total", "Items served by replaying a compiled trace.", replay.replays),
            ("scorpio_replay_records_total", "Items that recorded from scratch.", replay.records),
            ("scorpio_replay_lane_blocks_total", "Full lane blocks replayed in one op-stream walk.", replay.lane_blocks),
        ] {
            r.counter(name, help, &[], v as f64);
        }
        for (i, &kernel) in KERNEL_NAMES.iter().enumerate() {
            let labels = [("kernel", kernel)];
            r.counter(
                "scorpio_kernel_requests_total",
                "Analyze requests per kernel.",
                &labels,
                self.kernel_requests[i].load(Ordering::Relaxed) as f64,
            );
            r.counter(
                "scorpio_kernel_errors_total",
                "Failed requests per kernel.",
                &labels,
                self.kernel_errors[i].load(Ordering::Relaxed) as f64,
            );
        }
        for stats in self.window_stats() {
            for &(span, w) in &stats.spans {
                let labels = [("kernel", stats.kernel.as_str()), ("span", span)];
                r.gauge("scorpio_window_requests", "Requests in the sliding window.", &labels, w.requests as f64);
                r.gauge("scorpio_window_rate_per_s", "Request rate over the window.", &labels, w.rate_per_s);
                r.gauge("scorpio_window_error_rate", "Error rate over the window.", &labels, w.error_rate);
                r.gauge("scorpio_window_cache_hit_rate", "Tape-cache hit rate over the window.", &labels, w.cache_hit_rate);
                r.gauge("scorpio_window_achieved_ratio", "Mean achieved taskwait ratio over the window.", &labels, w.achieved_ratio_mean);
                for (q, v) in [("0.5", w.p50_ns), ("0.9", w.p90_ns), ("0.99", w.p99_ns)] {
                    let labels = [("kernel", stats.kernel.as_str()), ("span", span), ("quantile", q)];
                    r.gauge("scorpio_window_latency_ns", "Service-latency quantile over the window.", &labels, v);
                }
            }
        }
        r.finish()
    }
}

/// One queued analyze job; the worker sends the finished response line
/// back through `reply`.
struct Job {
    id: u64,
    /// The request's trace id (client-supplied or server-generated;
    /// never 0).
    trace_id: u64,
    /// When the connection thread started parsing the line,
    /// nanoseconds since the *trace epoch* (`scorpio_obs::epoch_ns`) —
    /// the synthetic parse span must share the captured spans' time
    /// base. Zero when tracing is off.
    parse_start_ns: u64,
    /// How long the parse took, nanoseconds.
    parse_dur_ns: u64,
    request: AnalyzeRequest,
    reply: mpsc::Sender<String>,
}

/// A bound, not-yet-running server. Splitting bind from run lets tests
/// and the load harness learn the ephemeral port before serving.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    config: ServerConfig,
}

impl Server {
    /// Binds the configured address (and the metrics sidecar address,
    /// when one is configured).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        Ok(Server {
            listener,
            metrics_listener,
            config,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The sidecar scrape address, when one was configured.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Serves until a `shutdown` command arrives, then drains workers,
    /// writes the manifest (if configured) and returns the lifetime
    /// summary.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop and manifest I/O failures. Per-connection
    /// I/O errors only end that connection.
    pub fn run(self) -> io::Result<ServerSummary> {
        let session = self
            .config
            .manifest
            .as_ref()
            .map(|name| RunSession::start(name.clone()));
        if self.config.obs {
            // A warm batch request would emit ~16 interior detail spans
            // (per-item `replay`/`reverse`/`significance`, lane sweeps)
            // whose recording cost lands on the service path, so the
            // daemon keeps only stage-level spans (`serve.request` →
            // `parse`/`cache_lookup`/`analyze`/`classify`/`serialize`)
            // plus the per-request `taskwait` summary event.
            scorpio_obs::disable_detail();
            scorpio_obs::enable();
        }
        let addr = self.local_addr()?;
        let shared = Arc::new(Shared {
            cache: TapeCache::new(self.config.cache_capacity),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            kernel_requests: Default::default(),
            kernel_errors: Default::default(),
            replay: Mutex::new(ReplayStats::default()),
            workers: self.config.workers.max(1),
            started: Instant::now(),
            windows: Default::default(),
            exemplars: ExemplarRing::new(EXEMPLAR_SLOW_CAP, EXEMPLAR_ERROR_CAP),
            trace_counter: AtomicU64::new(1),
        });

        let sidecar = self.metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sidecar_loop(&listener, &shared))
        });

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers: Vec<_> = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let job_rx = Arc::clone(&job_rx);
                std::thread::spawn(move || worker_loop(&shared, &job_rx))
            })
            .collect();

        let mut connections = Vec::new();
        for stream in self.listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            // One reply segment per request (no Nagle/delayed-ACK
            // stalls), and a finite read timeout so idle connections
            // notice the shutdown flag instead of pinning the join.
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                .ok();
            let shared = Arc::clone(&shared);
            let job_tx = job_tx.clone();
            connections.push(std::thread::spawn(move || {
                connection_loop(stream, &shared, &job_tx, addr);
            }));
        }
        // Connections hold job-sender clones: join them first so the
        // worker queue's senders all drop and the workers run dry.
        drop(job_tx);
        for conn in connections {
            let _ = conn.join();
        }
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(sidecar) = sidecar {
            let _ = sidecar.join();
        }

        let summary = ServerSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            errors: shared.errors.load(Ordering::Relaxed),
            kernel_requests: std::array::from_fn(|i| {
                shared.kernel_requests[i].load(Ordering::Relaxed)
            }),
            replay: *shared
                .replay
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            cache: shared.cache.stats(),
        };
        if let Some(session) = session {
            let config = [
                ("workers".to_string(), shared.workers.to_string()),
                (
                    "cache_capacity".to_string(),
                    self.config.cache_capacity.to_string(),
                ),
                ("requests".to_string(), summary.requests.to_string()),
            ];
            session.finish_in(&self.config.out_dir, shared.workers, &config, None)?;
        }
        Ok(summary)
    }
}

/// Longest request line a connection accepts, in bytes without the
/// newline. A longer line gets an error reply and is discarded through
/// its newline, so no connection buffers more than this (plus one read)
/// of unparsed input.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Reads newline-delimited requests off one connection and writes one
/// response line per request, in order. Returns when the peer closes,
/// on an I/O error, or right after serving a `shutdown`.
fn connection_loop(
    mut stream: TcpStream,
    shared: &Shared,
    job_tx: &mpsc::Sender<Job>,
    addr: SocketAddr,
) {
    // The unterminated start of the next line.
    let mut pending = Vec::new();
    // Set while skipping the rest of an over-long line that has
    // already had its error reply.
    let mut discarding = false;
    let mut chunk = [0u8; 4096];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            // The accept loop arms a read timeout so idle connections
            // poll the shutdown flag instead of blocking forever.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let mut fresh = &chunk[..n];
        if discarding {
            let Some(end) = fresh.iter().position(|&b| b == b'\n') else {
                continue;
            };
            discarding = false;
            fresh = &fresh[end + 1..];
        }
        // `pending` holds no newline, so only the fresh bytes are
        // searched; after a line is cut off, the rest is all fresh.
        let mut scan_from = pending.len();
        pending.extend_from_slice(fresh);
        while let Some(offset) = pending[scan_from..].iter().position(|&b| b == b'\n') {
            let end = scan_from + offset;
            scan_from = 0;
            let line: Vec<u8> = pending.drain(..=end).collect();
            let (mut response, is_shutdown) = if end > MAX_LINE_BYTES {
                (line_too_long(shared), false)
            } else {
                let line = String::from_utf8_lossy(&line[..end]);
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(&line, shared, job_tx)
            };
            response.push('\n');
            let write = stream.write_all(response.as_bytes());
            if is_shutdown {
                // Flag first, then nudge the accept loop awake with a
                // throwaway connection so it observes the flag.
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(addr);
                return;
            }
            if write.is_err() {
                return;
            }
        }
        if pending.len() > MAX_LINE_BYTES {
            pending = Vec::new();
            discarding = true;
            let mut response = line_too_long(shared);
            response.push('\n');
            if stream.write_all(response.as_bytes()).is_err() {
                return;
            }
        }
    }
}

/// Counts an over-long line as a failed request and builds its reply.
fn line_too_long(shared: &Shared) -> String {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    shared.count_error();
    let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
    error_line(0, message)
}

/// Executes one request line, returning the response line and whether
/// it was a shutdown.
fn handle_line(line: &str, shared: &Shared, job_tx: &mpsc::Sender<Job>) -> (String, bool) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let parse_start_ns = shared.now_ns();
    let parse_start_epoch_ns = if scorpio_obs::enabled() {
        scorpio_obs::epoch_ns()
    } else {
        0
    };
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.count_error();
            // Attribute the failure: per-kernel error count, an error
            // sample in the kernel's window, and an error exemplar —
            // all when the line parsed far enough to name a kernel.
            if let Some(kernel) = e.kernel {
                shared.count_kernel_error(kernel);
                shared.record_window(
                    kernel,
                    RequestSample {
                        error: true,
                        ..RequestSample::default()
                    },
                );
            }
            shared.exemplars.offer(Exemplar {
                trace_id: shared.next_trace_id(),
                kernel: e.kernel.unwrap_or("-"),
                ok: false,
                cached: false,
                latency_ns: shared.now_ns().saturating_sub(parse_start_ns),
                end_t_ns: shared.now_ns(),
                spans: Vec::new(),
                events: Vec::new(),
            });
            return (error_line(e.id, e.message), false);
        }
    };
    let parse_dur_ns = shared.now_ns().saturating_sub(parse_start_ns);
    match request.cmd {
        Command::Analyze(analyze) => {
            if let Some(i) = kernel_index(analyze.kernel.name()) {
                shared.kernel_requests[i].fetch_add(1, Ordering::Relaxed);
            }
            let trace_id = if request.trace_id != 0 {
                request.trace_id
            } else {
                shared.next_trace_id()
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                id: request.id,
                trace_id,
                parse_start_ns: parse_start_epoch_ns,
                parse_dur_ns,
                request: analyze,
                reply: reply_tx,
            };
            if job_tx.send(job).is_err() {
                shared.count_error();
                return (error_line(request.id, "server is shutting down"), false);
            }
            match reply_rx.recv() {
                Ok(line) => (line, false),
                Err(_) => {
                    shared.count_error();
                    (error_line(request.id, "worker dropped the request"), false)
                }
            }
        }
        Command::Stats => (response_line(&shared.stats_response(request.id)), false),
        Command::Metrics => (
            response_line(&MetricsResponse {
                id: request.id,
                ok: true,
                format: "prometheus-text-0.0.4",
                body: shared.metrics_body(),
            }),
            false,
        ),
        Command::Window => (response_line(&shared.window_response(request.id)), false),
        Command::Exemplars => (response_line(&shared.exemplars_response(request.id)), false),
        Command::CacheClear => {
            shared.cache.clear();
            (
                response_line(&AckResponse {
                    id: request.id,
                    ok: true,
                }),
                false,
            )
        }
        Command::Shutdown => (
            response_line(&AckResponse {
                id: request.id,
                ok: true,
            }),
            true,
        ),
    }
}

/// The read-only HTTP sidecar: answers every connection with one
/// `200 OK` carrying the current Prometheus exposition, then closes.
/// Polls the shutdown flag between accepts so it dies with the server.
fn sidecar_loop(listener: &TcpListener, shared: &Shared) {
    listener.set_nonblocking(true).ok();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                    .ok();
                // Consume (best-effort) the request head; the body we
                // serve does not depend on it.
                let mut head = [0u8; 1024];
                let _ = stream.read(&mut head);
                let body = shared.metrics_body();
                let response = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(_) => return,
        }
    }
}

/// One worker: owns the arena, the lane scratch and one replay driver;
/// drains the job queue until every sender is gone. A job whose
/// analysis panics gets an error reply, and the worker rebuilds its
/// state (the panic may have left it half-updated) and keeps serving.
fn worker_loop(shared: &Shared, job_rx: &Mutex<mpsc::Receiver<Job>>) {
    let fresh_arena = || AnalysisArena::with_capacity(4096);
    let mut arena = fresh_arena();
    let mut lanes = LaneScratch::<DEFAULT_LANES>::new();
    let fresh_driver = || ReplayOrRecord::new(Analysis::new());
    let mut driver = fresh_driver();
    loop {
        // Poison on the queue just means a sibling worker panicked
        // while blocked in recv(); the receiver itself is still sound.
        let job = match job_rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv()
        {
            Ok(job) => job,
            Err(_) => return,
        };
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            run_analyze(shared, &mut arena, &mut lanes, &mut driver, &job)
        }));
        let line = run.unwrap_or_else(|payload| {
            arena = fresh_arena();
            lanes = LaneScratch::new();
            driver = fresh_driver();
            panicked_job(shared, &job, payload.as_ref())
        });
        // A send failure means the connection died mid-request; the
        // work is done either way.
        let _ = job.reply.send(line);
    }
}

/// Accounts an analyze job that panicked — an error in the totals,
/// the kernel's count and window, and `serve.worker_panics` — and
/// builds its error reply.
fn panicked_job(shared: &Shared, job: &Job, payload: &(dyn Any + Send)) -> String {
    let kernel = job.request.kernel.name();
    shared.count_error();
    shared.count_kernel_error(kernel);
    shared.record_window(
        kernel,
        RequestSample {
            error: true,
            ..RequestSample::default()
        },
    );
    scorpio_obs::registry().counter("serve.worker_panics").add(1);
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic");
    error_line(job.id, format!("analysis panicked: {message}"))
}

/// Per-kernel static names for the latency histogram (the observe
/// registry interns `&'static str` keys).
fn latency_metric(kernel: &str) -> &'static str {
    match kernel {
        "fisheye" => "serve.latency_us.fisheye",
        "blackscholes" => "serve.latency_us.blackscholes",
        "dct" => "serve.latency_us.dct",
        "maclaurin" => "serve.latency_us.maclaurin",
        _ => "serve.latency_us.nbody",
    }
}

/// Runs one analyze job on this worker's state and builds its response
/// line: opens the request's trace context (stamping + capture), runs
/// the analysis under spans, then folds the outcome into the kernel's
/// sliding window and offers the captured span tree to the exemplar
/// ring.
fn run_analyze(
    shared: &Shared,
    arena: &mut AnalysisArena,
    lanes: &mut LaneScratch<DEFAULT_LANES>,
    driver: &mut ReplayOrRecord,
    job: &Job,
) -> String {
    let capture = scorpio_obs::enabled();
    let mut ctx = scorpio_obs::trace_context(job.trace_id, capture);
    let outcome = run_analyze_spanned(shared, arena, lanes, driver, job);
    let mut spans = ctx.take_spans();
    let events = ctx.take_task_events();
    drop(ctx);

    // The connection thread parsed before the job was queued; splice a
    // synthetic span in so the exemplar's tree covers parse → reply.
    if capture {
        spans.push(TraceEvent {
            path: "serve.request/parse".to_string(),
            name: "parse".to_string(),
            start_ns: job.parse_start_ns,
            dur_ns: job.parse_dur_ns,
            tid: u64::MAX, // connection thread; not a worker tid
            depth: 1,
            trace_id: job.trace_id,
        });
    }

    let kernel = job.request.kernel.name();
    shared.record_window(
        kernel,
        RequestSample {
            latency_ns: outcome.server_ns.max(1),
            error: !outcome.ok,
            cache_hit: Some(outcome.cached),
            requested_ratio: Some(job.request.ratio),
            achieved_ratio: outcome.achieved_ratio,
        },
    );
    shared.exemplars.offer(Exemplar {
        trace_id: job.trace_id,
        kernel,
        ok: outcome.ok,
        cached: outcome.cached,
        latency_ns: outcome.server_ns,
        end_t_ns: shared.now_ns(),
        spans,
        events,
    });
    outcome.line
}

/// What one analyze run produced, for the caller's window/exemplar
/// accounting.
struct AnalyzeOutcome {
    line: String,
    ok: bool,
    cached: bool,
    server_ns: u64,
    achieved_ratio: Option<f64>,
}

/// The span-instrumented body of [`run_analyze`] (runs inside the
/// job's trace context).
fn run_analyze_spanned(
    shared: &Shared,
    arena: &mut AnalysisArena,
    lanes: &mut LaneScratch<DEFAULT_LANES>,
    driver: &mut ReplayOrRecord,
    job: &Job,
) -> AnalyzeOutcome {
    let _span = scorpio_obs::span("serve.request");
    let request = &job.request;
    let kernel = request.kernel.name();
    let key = request.kernel.shape_key();
    let stats_before = driver.stats();

    // Cache as source of truth: a hit installs the shared trace, a miss
    // clears worker-private state so the recording cost is honest (see
    // the module docs).
    let cached = {
        let _s = scorpio_obs::span("serve.cache_lookup");
        match shared.cache.get(kernel, key) {
            Some(trace) => {
                driver.install(&trace);
                true
            }
            None => {
                driver.clear_compiled();
                false
            }
        }
    };

    let started = Instant::now();
    let result = {
        let _s = scorpio_obs::span("serve.analyze");
        match request.detail {
            Detail::Vars => request
                .kernel
                .run_vars(driver, arena, lanes)
                .map(|vars| (vars.iter().map(vars_to_record).collect::<Vec<_>>(), vars_sigs(&vars))),
            Detail::Full => request.kernel.run_full(driver, arena, lanes).map(|reports| {
                (
                    reports.iter().map(|r| r.to_record()).collect::<Vec<_>>(),
                    reports
                        .iter()
                        .map(|r| r.output_significance_raw())
                        .collect(),
                )
            }),
        }
    };
    let server_ns = started.elapsed().as_nanos() as u64;

    if !cached {
        if let Some(trace) = driver.share() {
            // Only publish what the request actually keyed: a branchy
            // trace never gets here (share() refuses it) and a foreign
            // key means the driver recorded under other terms.
            if trace.shape_key() == Some(key) {
                shared.cache.insert(kernel, key, trace);
            }
        }
    }
    shared
        .replay
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .merge(driver.stats().since(stats_before));
    scorpio_obs::observe(latency_metric(kernel), server_ns as f64 / 1_000.0);

    match result {
        Ok((reports, significances)) => {
            let (tasks, achieved) = {
                let _s = scorpio_obs::span("serve.classify");
                classify_tasks(kernel, request.ratio, &significances, server_ns)
            };
            let line = {
                let _s = scorpio_obs::span("serve.serialize");
                response_line(&AnalyzeResponse {
                    id: job.id,
                    ok: true,
                    trace_id: trace_id_hex(job.trace_id),
                    kernel,
                    cached,
                    server_ns,
                    tasks,
                    reports,
                })
            };
            AnalyzeOutcome {
                line,
                ok: true,
                cached,
                server_ns,
                achieved_ratio: Some(achieved),
            }
        }
        Err(e) => {
            shared.count_error();
            shared.count_kernel_error(kernel);
            AnalyzeOutcome {
                line: error_line(job.id, format!("analysis failed: {e}")),
                ok: false,
                cached,
                server_ns,
                achieved_ratio: None,
            }
        }
    }
}

/// Extracts per-item raw output significances from vars-detail results.
fn vars_sigs(vars: &[scorpio_core::VarSignificances]) -> Vec<f64> {
    vars.iter().map(|v| v.output_significance_raw()).collect()
}

/// Ranks the batch by significance, classifies the top `ratio` fraction
/// accurate, and emits the request's `taskwait` summary event.
/// Returns the rows plus the achieved ratio (`accurate / total`).
fn classify_tasks(
    kernel: &str,
    ratio: f64,
    significances: &[f64],
    server_ns: u64,
) -> (Vec<TaskRecord>, f64) {
    let k = significances.len();
    let accurate_n = ((ratio * k as f64).ceil() as usize).min(k);
    let mut order: Vec<usize> = (0..k).collect();
    // Descending by significance, index-stable for ties; NaN ranks
    // least significant, in index order. (`partial_cmp` alone is no
    // total order once a NaN is present, and the sort may panic.)
    order.sort_by(|&a, &b| {
        let (sa, sb) = (significances[a], significances[b]);
        sa.is_nan()
            .cmp(&sb.is_nan())
            .then_with(|| sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut classes = vec!["approximate"; k];
    for &i in order.iter().take(accurate_n) {
        classes[i] = "accurate";
    }
    let label = format!("serve.{kernel}");
    let achieved = if k == 0 {
        0.0
    } else {
        accurate_n as f64 / k as f64
    };
    scorpio_obs::taskwait_event(
        &label,
        ratio,
        achieved,
        accurate_n as u64,
        (k - accurate_n) as u64,
        0,
        server_ns,
    );
    let rows = significances
        .iter()
        .zip(&classes)
        .enumerate()
        .map(|(i, (&sig, &class))| TaskRecord {
            task_id: i as u64,
            significance: sig,
            class: class.to_string(),
        })
        .collect();
    (rows, achieved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared {
            cache: TapeCache::new(4),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            kernel_requests: Default::default(),
            kernel_errors: Default::default(),
            replay: Mutex::new(ReplayStats::default()),
            workers: 1,
            started: Instant::now(),
            windows: Default::default(),
            exemplars: ExemplarRing::new(4, 4),
            trace_counter: AtomicU64::new(1),
        })
    }

    /// Panics while holding `m`, leaving it poisoned.
    fn poison<T: Send>(m: &Mutex<T>) {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = m.lock().unwrap();
                panic!("deliberate poison");
            });
            assert!(handle.join().is_err());
        });
        assert!(m.is_poisoned(), "mutex must be poisoned for this test");
    }

    #[test]
    fn nan_significances_rank_last_in_index_order() {
        let sigs = [f64::NAN, 0.5, f64::NAN, 0.9, 0.1];
        let accurate = |ratio| -> Vec<u64> {
            let (rows, _) = classify_tasks("maclaurin", ratio, &sigs, 0);
            rows.iter()
                .filter(|r| r.class == "accurate")
                .map(|r| r.task_id)
                .collect()
        };
        assert_eq!(accurate(0.6), [1, 3, 4]);
        assert_eq!(accurate(0.8), [0, 1, 3, 4]);
        assert_eq!(accurate(1.0), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn stats_answers_after_a_panicked_job_poisons_replay_totals() {
        let shared = test_shared();
        // Counters recorded before the "bad job" must survive salvage.
        shared
            .replay
            .lock()
            .unwrap()
            .merge(ReplayStats {
                replays: 7,
                records: 2,
                ..ReplayStats::default()
            });
        shared.requests.fetch_add(3, Ordering::Relaxed);
        poison(&shared.replay);

        // The regression this pins: stats_response used to panic here
        // (`expect("replay totals poisoned")`), taking the daemon's
        // stats/shutdown path down with the one bad worker.
        let stats = shared.stats_response(42);
        assert!(stats.ok);
        assert_eq!(stats.id, 42);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.replay.replays, 7);
        assert_eq!(stats.replay.records, 2);

        // And the merge path salvages too: later good jobs keep
        // accumulating into the poisoned-but-sound counters.
        shared
            .replay
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .merge(ReplayStats {
                replays: 1,
                ..ReplayStats::default()
            });
        assert_eq!(shared.stats_response(43).replay.replays, 8);
    }

    #[test]
    fn worker_loop_drains_jobs_from_a_poisoned_queue() {
        let shared = test_shared();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Mutex::new(job_rx);
        poison(&job_rx);

        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        job_tx
            .send(maclaurin_job(1, 0.25, reply_tx))
            .expect("queue accepts the job");
        drop(job_tx); // run the worker dry after one job

        worker_loop(&shared, &job_rx);
        let line = reply_rx.recv().expect("worker answered despite poison");
        assert!(line.contains("\"ok\":true"), "bad reply: {line}");
    }

    /// A directly built one-item Maclaurin job (no request parsing).
    fn maclaurin_job(id: u64, item: f64, reply: mpsc::Sender<String>) -> Job {
        Job {
            id,
            trace_id: 0x5eed + id,
            parse_start_ns: 0,
            parse_dur_ns: 0,
            request: AnalyzeRequest {
                kernel: crate::kernels::KernelRequest::Maclaurin(crate::kernels::Batch {
                    kernel: scorpio_kernels::maclaurin::Series { n: 4 },
                    items: vec![item],
                }),
                ratio: 0.5,
                detail: Detail::Vars,
            },
            reply,
        }
    }

    #[test]
    fn a_panicking_job_gets_an_error_reply_and_the_worker_keeps_serving() {
        let shared = test_shared();
        let panics = scorpio_obs::registry().counter("serve.worker_panics");
        let panics_before = panics.get();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Mutex::new(job_rx);
        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        // Parsing refuses a NaN item; built directly, it reaches
        // `Interval::new`, which panics on it.
        job_tx.send(maclaurin_job(1, f64::NAN, reply_tx.clone())).unwrap();
        job_tx.send(maclaurin_job(2, 0.25, reply_tx)).unwrap();
        drop(job_tx);

        worker_loop(&shared, &job_rx);
        let bad = reply_rx.recv().expect("the panicked job is answered");
        assert!(bad.starts_with("{\"id\":1,\"ok\":false"), "bad reply: {bad}");
        assert!(bad.contains("analysis panicked"), "bad reply: {bad}");
        let good = reply_rx.recv().expect("the worker survives the panic");
        assert!(good.starts_with("{\"id\":2,\"ok\":true"), "bad reply: {good}");

        assert_eq!(shared.errors.load(Ordering::Relaxed), 1);
        let maclaurin = kernel_index("maclaurin").unwrap();
        assert_eq!(shared.kernel_errors[maclaurin].load(Ordering::Relaxed), 1);
        assert_eq!(shared.windows[maclaurin].snapshot(shared.now_ns(), 60).errors, 1);
        assert!(panics.get() > panics_before);
    }
}
