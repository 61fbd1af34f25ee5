//! The two serving workloads, `serve_batch` and `serve_dct`.
//!
//! Each run starts the repo's `scorpio_serve` daemon as a child
//! process and drives two timed phases with a warm cache over `nproc`
//! connections from one thread: an open loop at a fixed offered rate
//! (latency from each request's due time), then a closed loop
//! (throughput). Three batches of identical set-ups, each on a daemon
//! of its own, are timed before, between and after the phases.
//! Replies are byte-scanned in the timed window; a seeded sample is
//! verified bit for bit against direct library calls afterwards, and
//! `stats` deltas around each phase prove the cache served every
//! request.
//!
//! The traced run (`--trace 1`) repeats the same phases for the wire
//! and counter figures, then calls the serve layers' public functions
//! in-process on one thread, timing each call as a span. The offline
//! workload's traced run probes these layers through
//! [`probe_layers`], so every workload reports every layer.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use scorpio_core::audit::SplitMix64;
use scorpio_core::{Analysis, AnalysisArena, LaneScratch, ReplayOrRecord, DEFAULT_LANES};
use scorpio_obs::json::{self, Value};
use scorpio_serve::protocol::{
    parse_request, response_line, trace_id_hex, vars_to_record, AnalyzeResponse, TaskRecord,
};
use scorpio_serve::{Command as ServeCommand, KernelRequest};

use crate::net::{run_phase, Completion, Conn, PhaseResult, Plan, Requests};
use crate::stats::{
    chunk_percentiles, median, percentile, second_highest, second_lowest, window_rates,
};
use crate::trace::Tracer;
use crate::{interval_op_ns, Args, Checks, Outcome};

/// Worker threads of the daemon under test.
const SERVER_WORKERS: usize = 2;
/// Distinct request bodies per run (requests cycle through them).
const BODY_POOL: usize = 128;
/// Identical server set-ups timed in each of the three set-up batches
/// of a run: before the warm-up, between the open and the closed loop,
/// and after the closed loop. `setup_s` is the median of the 30, so
/// it samples the host at three moments instead of one.
const SETUP_BATCH: usize = 10;
/// Untimed open-loop warm-up at the workload's offered rate before the
/// timed phases: a fixed number of requests, so the daemon has served
/// the same work whenever its peak RSS is read.
const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` given to the closed loop; the open loop gets
/// the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Closed-loop throughput is the second-highest completion rate of
/// the windows of this length.
const RATE_WINDOW_NS: u64 = 500_000_000;
/// `latency_p50_ms` is the second-lowest, over this many equal
/// consecutive chunks of the open loop's replies, of each chunk's
/// median. Host steal comes in bursts of seconds and can double a
/// chunk's latency, and a slow spell can cover all but a few chunks of
/// a run, so the gated figure reads the second-best chunk. A program
/// stall that misses two chunks is filtered too; it shows in the
/// ungated plain p90 and p99 (`load.latency_p90_ms`,
/// `load.latency_p99_ms`) instead.
const LATENCY_CHUNKS: usize = 24;

/// One serving workload: a single kernel and batch size, so the
/// latency distribution has one mode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Served kernel.
    pub kernel: &'static str,
    /// Items per request.
    pub batch: usize,
    /// Open-loop offered rate, requests per second. A constant, never
    /// derived from a run's own throughput.
    pub offered_rps: f64,
    /// Replies per timed phase verified against direct library calls.
    pub verify_per_phase: usize,
    /// Requests replayed in-process by the traced run.
    pub traced_requests: usize,
    /// Cold (record + compile) calls timed by the traced run.
    pub cold_calls: usize,
}

/// Protocol-bound: 64 Black–Scholes options in, ~157 KB of `vars`
/// rows out, against ~0.14 ms of analysis. The offered rate is about
/// 30% of the closed-loop throughput measured on a 2-vCPU VM (medians
/// of 520–680 req/s over sets of ten runs; see `NOTES.md`).
pub const SERVE_BATCH: Shape = Shape {
    name: "serve_batch",
    kernel: "blackscholes",
    batch: 64,
    offered_rps: 200.0,
    verify_per_phase: 8,
    traced_requests: 300,
    cold_calls: 50,
};

/// Analysis-bound: one lane block of four 8×8 DCT blocks, ~8 ms of
/// replay and reverse sweep over the 25k-node tape per request. The
/// offered rate is about 30% of the measured closed-loop throughput
/// (medians of 174–194 req/s over sets of ten runs).
pub const SERVE_DCT: Shape = Shape {
    name: "serve_dct",
    kernel: "dct",
    batch: 4,
    offered_rps: 60.0,
    verify_per_phase: 2,
    traced_requests: 60,
    cold_calls: 8,
};

/// The request bodies of a run (everything after `{"id":N,`),
/// generated from the seed before anything is timed.
pub fn request_bodies(shape: &Shape, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_5E4E);
    (0..BODY_POOL)
        .map(|_| {
            let mut body = format!(r#""kernel":"{}","#, shape.kernel);
            match shape.kernel {
                "blackscholes" => {
                    body.push_str(r#""items":["#);
                    for i in 0..shape.batch {
                        if i > 0 {
                            body.push(',');
                        }
                        let spot = 80.0 + 40.0 * rng.next_f64();
                        let strike = 80.0 + 40.0 * rng.next_f64();
                        let rate = 0.01 + 0.04 * rng.next_f64();
                        let vol = 0.1 + 0.4 * rng.next_f64();
                        let time = 0.25 + 1.75 * rng.next_f64();
                        body.push_str(&format!(
                            r#"{{"spot":{spot},"strike":{strike},"rate":{rate},"volatility":{vol},"time":{time}}}"#
                        ));
                    }
                }
                "dct" => {
                    body.push_str(r#""radius":1,"items":["#);
                    for i in 0..shape.batch {
                        if i > 0 {
                            body.push(',');
                        }
                        body.push('[');
                        for p in 0..64 {
                            if p > 0 {
                                body.push(',');
                            }
                            body.push_str(&format!("{:.3}", rng.next_f64() * 255.0));
                        }
                        body.push(']');
                    }
                }
                other => unreachable!("no serve workload uses kernel {other}"),
            }
            body.push_str("]}");
            body
        })
        .collect()
}

/// A running `scorpio_serve` child process. Dropping it kills and
/// reaps the process if it has not shut down cleanly.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Starts the daemon on an ephemeral port and waits for its
    /// "listening on" line.
    fn spawn(bin: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(SERVER_WORKERS.to_string())
            .arg("--no-manifest")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first)?;
        let addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "unexpected server banner {first:?}"
                )))
            }
        }
    }

    /// Peak resident set of the server process so far, MiB.
    fn peak_rss_mib(&self) -> io::Result<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` on `conn` and waits for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> io::Result<()> {
        conn.roundtrip(r#"{"cmd":"shutdown"}"#)?;
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of the `/proc/<pid>/status` file at `path`, in MiB.
pub fn peak_rss_mib(path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Cache and replay counters from the `stats` verb.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    replays: u64,
    records: u64,
    fallbacks: u64,
    lane_blocks: u64,
}

impl Counters {
    /// Takes a snapshot over `conn` (idle; outside the timed loop).
    fn fetch(conn: &mut Conn) -> io::Result<Counters> {
        let reply = conn.roundtrip(r#"{"cmd":"stats"}"#)?;
        let v = json::parse(&String::from_utf8_lossy(&reply))
            .map_err(|e| io::Error::other(format!("bad stats reply: {e}")))?;
        let n = |section: &str, key: &str| -> io::Result<u64> {
            v.get(section)
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| io::Error::other(format!("stats reply lacks {section}.{key}")))
        };
        Ok(Counters {
            hits: n("cache", "hits")?,
            misses: n("cache", "misses")?,
            replays: n("replay", "replays")?,
            records: n("replay", "records")?,
            fallbacks: n("replay", "fallbacks")?,
            lane_blocks: n("replay", "lane_blocks")?,
        })
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            replays: self.replays - before.replays,
            records: self.records - before.records,
            fallbacks: self.fallbacks - before.fallbacks,
            lane_blocks: self.lane_blocks - before.lane_blocks,
        }
    }
}

/// Checks every completion of a phase: a reply that scans, echoes its
/// request's id (so replies come back in request order), is `ok` and
/// `cached` as designed.
fn check_completions(checks: &mut Checks, phase: &str, completions: &[Completion], cached: bool) {
    for c in completions {
        let head = c.head.as_ref();
        checks.check(
            head.is_some_and(|h| h.id == c.expected_id && h.ok && h.cached == cached),
            || format!("{phase}: request {} got reply head {head:?}", c.expected_id),
        );
    }
}

/// Checks a phase's counter delta: every analyze request was a cache
/// hit and nothing was recorded.
fn check_counters(checks: &mut Checks, phase: &str, delta: &Counters, requests: usize) {
    checks.check(
        delta.misses == 0 && delta.records == 0 && delta.hits == requests as u64,
        || format!("{phase}: counters {delta:?} for {requests} warm requests"),
    );
}

/// The reply line the server must have sent for `request_line`, given
/// the head fields that legitimately vary (trace id, timing, cache
/// state): reports recomputed by fresh, replay-free library calls.
fn expected_reply(request_line: &str, head: &crate::scan::ReplyHead) -> Result<String, String> {
    let request = parse_request(request_line).map_err(|e| e.message)?;
    let ServeCommand::Analyze(analyze) = request.cmd else {
        return Err("not an analyze request".into());
    };
    let reports = analyze.kernel.direct_reports().map_err(|e| e.to_string())?;
    Ok(response_line(&AnalyzeResponse {
        id: request.id,
        ok: true,
        trace_id: head.trace_id.clone(),
        kernel: analyze.kernel.name(),
        cached: head.cached,
        server_ns: head.server_ns,
        tasks: all_accurate(reports.iter().map(|r| r.output_significance_raw())),
        reports: reports
            .iter()
            .map(|r| {
                let mut record = r.to_record();
                record.nodes.clear();
                record
            })
            .collect(),
    }))
}

/// Task rows for the default ratio 1.0: every item accurate.
fn all_accurate(significances: impl Iterator<Item = f64>) -> Vec<TaskRecord> {
    significances
        .enumerate()
        .map(|(i, significance)| TaskRecord {
            task_id: i as u64,
            significance,
            class: "accurate".to_string(),
        })
        .collect()
}

/// Verifies kept replies byte for byte against [`expected_reply`].
fn verify_kept(
    checks: &mut Checks,
    phase: &str,
    requests: &Requests<'_>,
    kept: &[(usize, Vec<u8>)],
) {
    for (seq, reply) in kept {
        let head = crate::scan::scan_reply(reply);
        let expected = head
            .as_ref()
            .ok_or_else(|| "reply did not scan".to_string())
            .and_then(|h| expected_reply(&requests.line(*seq), h));
        let matches = expected
            .as_ref()
            .is_ok_and(|e| e.as_bytes() == reply.as_slice());
        checks.check(matches, || {
            format!(
                "{phase}: reply to request {seq} differs from direct library calls ({expected:?})"
            )
        });
    }
}

/// Picks `n` distinct sequence numbers below `limit`, from the seed.
fn sample_seqs(rng: &mut SplitMix64, n: usize, limit: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n.min(limit) {
        let s = rng.below(limit);
        if !picked.contains(&s) {
            picked.push(s);
        }
    }
    picked
}

/// Wire-level results of one run's timed phases.
struct Measured {
    connections: usize,
    setup_s: Vec<f64>,
    closed: PhaseResult,
    open: PhaseResult,
    counters: [Counters; 2],
    peak_rss_mib: f64,
}

/// Times `n` identical set-ups, each on a daemon of its own: daemon
/// start until the first reply for the workload's shape arrives (that
/// request records and compiles the tape, so it must come back
/// uncached). Verifies the first reply of the batch in full.
fn time_setups(
    args: &Args,
    setup_request: &Requests<'_>,
    n: usize,
    checks: &mut Checks,
    setup_s: &mut Vec<f64>,
) -> io::Result<()> {
    for rep in 0..n {
        let t0 = Instant::now();
        let server = ServerProc::spawn(&args.server)?;
        let mut conn = Conn::connect(server.addr)?;
        let line = setup_request.line(rep);
        let reply = conn.roundtrip(&line)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let head = crate::scan::scan_reply(&reply);
        let id = setup_request.first_id + rep as u64;
        checks.check(
            head.as_ref()
                .is_some_and(|h| h.ok && !h.cached && h.id == id),
            || format!("setup: first reply head {head:?} (must be ok and uncached)"),
        );
        if rep == 0 {
            verify_kept(checks, "setup", setup_request, &[(rep, reply)]);
        }
        server.shutdown(&mut conn)?;
    }
    Ok(())
}

/// Set-ups, warm-up and the two timed phases. The daemon under load
/// serves a fixed amount of work (its first request, the warm-up and
/// the open loop) before its peak RSS is read; the closed loop, whose
/// request count follows throughput, comes after.
fn measure(
    shape: &Shape,
    args: &Args,
    bodies: &[String],
    checks: &mut Checks,
) -> io::Result<Measured> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = SplitMix64::new(args.seed ^ 0xC4EC);
    let setup_request = Requests {
        bodies,
        first_id: 0,
    };
    let mut setup_s = Vec::with_capacity(3 * SETUP_BATCH);
    time_setups(args, &setup_request, SETUP_BATCH, checks, &mut setup_s)?;

    let server = ServerProc::spawn(&args.server)?;
    let mut conns = Vec::with_capacity(nproc);
    for _ in 0..nproc {
        conns.push(Conn::connect(server.addr)?);
    }
    let first = conns[0].roundtrip(&setup_request.line(0))?;
    let head = crate::scan::scan_reply(&first);
    checks.check(head.as_ref().is_some_and(|h| h.ok && !h.cached), || {
        format!("first reply head {head:?} (must be ok and uncached)")
    });

    let warm = Requests {
        bodies,
        first_id: 1_000_000,
    };
    let warm_schedule = crate::schedule::open_loop(shape.offered_rps, WARMUP_S, conns.len());
    let warmup = run_phase(
        &mut conns,
        &warm,
        Plan::Open {
            schedule: &warm_schedule,
        },
        &|_| false,
    )?;
    check_completions(checks, "warm-up", &warmup.completions, true);

    let closed_s = args.seconds * CLOSED_SHARE;
    let open_s = args.seconds - closed_s;
    let schedule = crate::schedule::open_loop(shape.offered_rps, open_s, conns.len());
    let open_keep = sample_seqs(&mut rng, shape.verify_per_phase, schedule.len());
    let closed_keep = sample_seqs(&mut rng, shape.verify_per_phase, 64);

    let open_req = Requests {
        bodies,
        first_id: 2_000_000,
    };
    let closed_req = Requests {
        bodies,
        first_id: 3_000_000,
    };
    let c0 = Counters::fetch(&mut conns[0])?;
    let open = run_phase(
        &mut conns,
        &open_req,
        Plan::Open {
            schedule: &schedule,
        },
        &|seq| open_keep.contains(&seq),
    )?;
    let c1 = Counters::fetch(&mut conns[0])?;
    let peak_rss_mib = server.peak_rss_mib()?;
    time_setups(args, &setup_request, SETUP_BATCH, checks, &mut setup_s)?;
    let closed = run_phase(
        &mut conns,
        &closed_req,
        Plan::Closed {
            duration: Duration::from_secs_f64(closed_s),
        },
        &|seq| closed_keep.contains(&seq),
    )?;
    let c2 = Counters::fetch(&mut conns[0])?;
    time_setups(args, &setup_request, SETUP_BATCH, checks, &mut setup_s)?;
    server.shutdown(&mut conns[0])?;

    check_completions(checks, "open loop", &open.completions, true);
    check_completions(checks, "closed loop", &closed.completions, true);
    checks.check(open.completions.len() == schedule.len(), || {
        format!(
            "open loop: {} of {} replies",
            open.completions.len(),
            schedule.len()
        )
    });
    let counters = [c1.since(&c0), c2.since(&c1)];
    check_counters(checks, "open loop", &counters[0], open.completions.len());
    check_counters(
        checks,
        "closed loop",
        &counters[1],
        closed.completions.len(),
    );
    verify_kept(checks, "open loop", &open_req, &open.kept);
    verify_kept(checks, "closed loop", &closed_req, &closed.kept);
    Ok(Measured {
        connections: conns.len(),
        setup_s,
        closed,
        open,
        counters,
        peak_rss_mib,
    })
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Open-loop figures of one run, in nanoseconds per reply.
struct Wire {
    /// Receive time minus due time: the latency a user sees.
    from_due: Vec<f64>,
    /// The daemon's own service time (`server_ns` of the reply).
    server_ns: Vec<f64>,
    /// Wire time minus service time: socket, connection thread, queue.
    residual: Vec<f64>,
    /// Send time minus due time: how late the client sent.
    send_lag: Vec<f64>,
}

impl Wire {
    fn of(open: &PhaseResult) -> Wire {
        let c = &open.completions;
        let server_ns: Vec<f64> = c
            .iter()
            .map(|c| c.head.as_ref().map_or(0, |h| h.server_ns) as f64)
            .collect();
        Wire {
            from_due: c.iter().map(|c| (c.recv_ns - c.due_ns) as f64).collect(),
            residual: c
                .iter()
                .zip(&server_ns)
                .map(|(c, s)| (c.recv_ns - c.sent_ns) as f64 - s)
                .collect(),
            send_lag: c.iter().map(|c| (c.sent_ns - c.due_ns) as f64).collect(),
            server_ns,
        }
    }
}

/// Writes a run's sample counts and plain percentiles to standard error.
fn report(shape: &Shape, m: &Measured, w: &Wire) {
    eprintln!(
        "[{}] {} connections; setup_s {:?}; closed loop {} replies in {:.2} s; open loop {} \
         replies at {} req/s, latency p50/p75/p90/p95/p99 {:.3}/{:.3}/{:.3}/{:.3}/{:.3} ms, \
         service p50 {:.3} ms, send lag p90 {:.3} ms",
        shape.name,
        m.connections,
        m.setup_s,
        m.closed.completions.len(),
        m.closed.elapsed_ns as f64 / 1e9,
        w.from_due.len(),
        shape.offered_rps,
        ms(percentile(&w.from_due, 0.5)),
        ms(percentile(&w.from_due, 0.75)),
        ms(percentile(&w.from_due, 0.9)),
        ms(percentile(&w.from_due, 0.95)),
        ms(percentile(&w.from_due, 0.99)),
        ms(percentile(&w.server_ns, 0.5)),
        ms(percentile(&w.send_lag, 0.9)),
    );
    let chunks = |p: f64| -> Vec<f64> {
        chunk_percentiles(&w.from_due, LATENCY_CHUNKS, p)
            .iter()
            .map(|ns| (ms(*ns) * 1e3).round() / 1e3)
            .collect()
    };
    eprintln!(
        "[{}] open-loop chunk p50 {:?} ms; chunk p90 {:?} ms",
        shape.name,
        chunks(0.5),
        chunks(0.9)
    );
}

/// Runs one serving workload and returns its metrics. The traced run
/// also probes the offline layers (see [`crate::offline::probe_layers`]),
/// so every workload reports every per-layer metric.
///
/// # Errors
///
/// Propagates process and socket failures (a failed run prints no
/// result).
pub fn run(shape: &Shape, args: &Args) -> io::Result<Outcome> {
    let bodies = request_bodies(shape, args.seed);
    let mut checks = Checks::default();
    let m = measure(shape, args, &bodies, &mut checks)?;
    let w = Wire::of(&m.open);
    report(shape, &m, &w);

    let mut out = Outcome::new(checks);
    if !args.trace {
        // The second-best window of each phase, so bursts of
        // interference from outside the process move other windows,
        // not the figure.
        let closed_times: Vec<u64> = m.closed.completions.iter().map(|c| c.recv_ns).collect();
        let closed_span_ns = (args.seconds * CLOSED_SHARE * 1e9) as u64;
        let rates = window_rates(&closed_times, RATE_WINDOW_NS, closed_span_ns);
        let p50 = chunk_percentiles(&w.from_due, LATENCY_CHUNKS, 0.5);
        out.metric("setup_s", median(&m.setup_s), "s");
        out.metric("throughput_per_s", second_highest(&rates), "1/s");
        out.metric("latency_p50_ms", ms(second_lowest(&p50)), "ms");
        out.metric("peak_rss_mb", m.peak_rss_mib, "MiB");
        return Ok(out);
    }

    let layers_ms = layer_metrics(shape, args, &m, &w, &bodies, &mut out)?;
    crate::offline::probe_layers(args, &mut out)?;
    out.metric("interval.op_ns", interval_op_ns(args.seed), "ns");
    out.metric(
        "trace.coverage",
        layers_ms / ms(percentile(&w.from_due, 0.5)),
        "ratio",
    );
    Ok(out)
}

/// Seconds of open and closed loop in a probe of the serve layers.
const PROBE_SECONDS: f64 = 5.0;

/// The serve layers' per-layer figures for a workload that does not
/// serve: a short run of `shape`'s phases (set-ups, warm-up,
/// [`PROBE_SECONDS`] of open and closed loop) on a daemon of its own,
/// with every check of a serve run, then the in-process layer calls.
///
/// # Errors
///
/// Propagates process and socket failures.
pub fn probe_layers(shape: &Shape, args: &Args, out: &mut Outcome) -> io::Result<()> {
    let args = Args {
        seconds: PROBE_SECONDS,
        ..args.clone()
    };
    let bodies = request_bodies(shape, args.seed);
    let m = measure(shape, &args, &bodies, &mut out.checks)?;
    let w = Wire::of(&m.open);
    report(shape, &m, &w);
    layer_metrics(shape, &args, &m, &w, &bodies, out)?;
    Ok(())
}

/// The serve layers' per-layer figures: wire and counter figures of the
/// untraced phases in `m`, then in-process calls of each layer's public
/// functions on one thread, timed as spans and written to
/// `spans_<workload>_serve.jsonl`. Returns the median per-request self
/// time of parse, `run_vars` and serialize, in ms.
fn layer_metrics(
    shape: &Shape,
    args: &Args,
    m: &Measured,
    w: &Wire,
    bodies: &[String],
    out: &mut Outcome,
) -> io::Result<f64> {
    let timed_requests = (m.closed.completions.len() + m.open.completions.len()) as f64;
    let hits: u64 = m.counters.iter().map(|c| c.hits).sum();
    let lookups: u64 = m.counters.iter().map(|c| c.hits + c.misses).sum();
    let replays: u64 = m.counters.iter().map(|c| c.replays).sum();
    let fallbacks: u64 = m.counters.iter().map(|c| c.fallbacks).sum();
    let lane_blocks: u64 = m.counters.iter().map(|c| c.lane_blocks).sum();
    out.metric(
        "serve.server.residual_p50_ms",
        ms(percentile(&w.residual, 0.5)),
        "ms",
    );
    out.metric(
        "serve.server.residual_p90_ms",
        ms(percentile(&w.residual, 0.9)),
        "ms",
    );
    out.metric(
        "serve.server.service_p50_ms",
        ms(percentile(&w.server_ns, 0.5)),
        "ms",
    );
    out.metric(
        "load.send_lag_p90_ms",
        ms(percentile(&w.send_lag, 0.9)),
        "ms",
    );
    out.metric(
        "load.latency_p90_ms",
        ms(percentile(&w.from_due, 0.9)),
        "ms",
    );
    out.metric(
        "load.latency_p99_ms",
        ms(percentile(&w.from_due, 0.99)),
        "ms",
    );
    out.metric(
        "core.cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "core.replay.lane_blocks_per_req",
        lane_blocks as f64 / timed_requests,
        "blocks/req",
    );
    out.metric(
        "core.replay.fallback_ratio",
        fallbacks as f64 / replays.max(1) as f64,
        "ratio",
    );

    // In-process layer calls on one thread.
    let requests = Requests {
        bodies,
        first_id: 0,
    };
    let mut tracer = Tracer::new();
    let reply_bytes = traced_layers(shape, &requests, &mut tracer, &mut out.checks)?;
    let selfs = tracer.self_times_ns_by(|s| s.name);
    let med_us = |name: &str| selfs.get(name).map_or(f64::NAN, |v| median(v) / 1e3);
    let parse_us = med_us("serve.protocol.parse");
    let run_us = med_us("serve.kernels.run_vars");
    let serialize_us = med_us("serve.protocol.serialize");
    out.metric("serve.protocol.parse_us", parse_us, "us");
    out.metric("serve.protocol.serialize_us", serialize_us, "us");
    out.metric(
        "serve.protocol.reply_kb",
        median(&reply_bytes) / 1024.0,
        "KiB",
    );
    out.metric("serve.kernels.run_vars_us", run_us, "us");
    out.metric(
        "serve.kernels.run_vars_cold_us",
        med_us("serve.kernels.run_vars_cold"),
        "us",
    );
    tracer.write_jsonl(
        &args
            .out_dir
            .join(format!("spans_{}_serve.jsonl", args.workload)),
    )?;
    Ok((parse_us + run_us + serialize_us) / 1e3)
}

/// The traced run's in-process calls: per request, `parse_request`,
/// a warm `run_vars`, and `vars_to_record` + `response_line`; then
/// `run_vars` after `clear_compiled` (the cache-miss path). Returns the
/// reply sizes in bytes.
fn traced_layers(
    shape: &Shape,
    requests: &Requests<'_>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Vec<f64>> {
    let mut driver = ReplayOrRecord::new(Analysis::new());
    let mut arena = AnalysisArena::with_capacity(4096);
    let mut lanes = LaneScratch::<DEFAULT_LANES>::new();
    let kernel_of = |line: &str| -> io::Result<KernelRequest> {
        match parse_request(line).map(|r| r.cmd) {
            Ok(ServeCommand::Analyze(a)) => Ok(a.kernel),
            _ => Err(io::Error::other("traced request did not parse")),
        }
    };
    // Record and compile once, untraced, so every traced call is warm.
    kernel_of(&requests.line(0))?
        .run_vars(&mut driver, &mut arena, &mut lanes)
        .map_err(io::Error::other)?;

    let mut reply_bytes = Vec::with_capacity(shape.traced_requests);
    for seq in 0..shape.traced_requests {
        let line = requests.line(seq);
        let reply = tracer.span("serve.request", seq as u64, |t| {
            let request = t.span("serve.protocol.parse", seq as u64, |_| parse_request(&line));
            let Ok(request) = request else { return None };
            let ServeCommand::Analyze(analyze) = request.cmd else {
                return None;
            };
            let vars = t.span("serve.kernels.run_vars", seq as u64, |_| {
                analyze.kernel.run_vars(&mut driver, &mut arena, &mut lanes)
            });
            let vars = vars.ok()?;
            Some(t.span("serve.protocol.serialize", seq as u64, |_| {
                response_line(&AnalyzeResponse {
                    id: request.id,
                    ok: true,
                    trace_id: trace_id_hex(seq as u64 + 1),
                    kernel: analyze.kernel.name(),
                    cached: true,
                    server_ns: 0,
                    tasks: all_accurate(vars.iter().map(|v| v.output_significance_raw())),
                    reports: vars.iter().map(vars_to_record).collect(),
                })
            }))
        });
        checks.check(reply.is_some(), || format!("traced request {seq} failed"));
        reply_bytes.push(reply.map_or(0, |r| r.len()) as f64);
    }
    checks.check(driver.stats().records == 1, || {
        format!("traced warm calls recorded: {:?}", driver.stats())
    });

    for seq in 0..shape.cold_calls {
        let kernel = kernel_of(&requests.line(seq))?;
        driver.clear_compiled();
        let ok = tracer.span("serve.kernels.run_vars_cold", seq as u64, |_| {
            kernel.run_vars(&mut driver, &mut arena, &mut lanes).is_ok()
        });
        checks.check(ok, || format!("cold call {seq} failed"));
    }
    Ok(reply_bytes)
}
