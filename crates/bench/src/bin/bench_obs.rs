//! Live-observability overhead ablation and contract check, writing
//! `BENCH_obs.json`.
//!
//! ```text
//! bench_obs [--requests N] [--reps N] [--batch N] [--workers N]
//!           [--seed N] [--bound PCT] [--out-dir DIR]
//! ```
//!
//! Measures the cost of the daemon's default telemetry (stage-level
//! spans, per-request trace capture, sliding windows, metrics) on the
//! served mixed-workload latency. Because tracing is a process-global
//! switch, the two arms run **paired and interleaved**: each rep spawns
//! an untraced in-process server (after `scorpio_obs::disable()`),
//! primes and measures the warm mixed workload, then does the same
//! against a traced server — so slow drift on a loaded box hits both
//! arms of a rep alike. The headline overhead is the **median of the
//! per-rep deltas** of mixed-workload p50 service time, gated at
//! `--bound` percent (default 5, the issue's acceptance bound) and
//! machine-independently enforced from the checked-in baseline by
//! `scorpio_diff --gate --quality-only`.
//!
//! A final traced server (with the HTTP metrics sidecar) exercises the
//! live-scrape contract under load:
//!
//! * a client-supplied trace id must round-trip into the exemplar dump
//!   as a reassemblable span tree (root `serve.request` plus nested
//!   children, all stamped with the id);
//! * the `metrics` verb — and the HTTP sidecar — must render valid
//!   Prometheus text exposition;
//! * every loaded kernel's 1m sliding window must report the traffic.

use std::net::SocketAddr;
use std::process::ExitCode;

use scorpio_bench::probe::{check_trace_roundtrip, check_windows, is_ok, LocalServer};
use scorpio_bench::{
    arg_value, out_dir_arg, request_line, usage_check, ObsContract, ObsMode, ObsReport, OBS_SCHEMA,
};
use scorpio_core::audit::SplitMix64;
use scorpio_obs::expose::validate_exposition;
use scorpio_obs::json::Value;
use scorpio_serve::{Client, ServerConfig};

/// Kernels the ablation loads, with one fixed shape each. Moderate
/// batches keep per-request service time well above the fixed cost of
/// a span guard, so the overhead number reflects steady serving, not
/// clock-read noise.
const KERNELS: [&str; 3] = ["maclaurin", "dct", "fisheye"];
const BATCH_DEFAULT: usize = 16;
/// The accurate-computation ratio of every request.
const RATIO: f64 = 0.7;

/// The trace id the round-trip probe supplies (hex on the wire).
const PROBE_TRACE_ID: &str = "c0ffee";

/// Sends one analyze line, asserting success, and returns the reply.
fn send_ok(client: &mut Client, line: &str) -> Value {
    let reply = client.request(line).expect("analyze request failed");
    assert!(
        is_ok(&reply),
        "server returned an error reply: {}",
        reply.get("error").and_then(Value::as_str).unwrap_or("?")
    );
    reply
}

/// Spawns an in-process server, with the HTTP metrics sidecar when
/// `metrics` is set.
fn spawn_server(
    workers: usize,
    obs: bool,
    metrics: bool,
    out_dir: &std::path::Path,
) -> LocalServer {
    LocalServer::spawn(ServerConfig {
        workers,
        obs,
        metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
        out_dir: out_dir.to_path_buf(),
        ..ServerConfig::default()
    })
}

/// Scrapes the HTTP metrics sidecar once and returns the response body.
fn scrape_sidecar(addr: SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics sidecar");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("write scrape request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "sidecar did not answer 200: {:?}",
        response.lines().next()
    );
    let body_at = response.find("\r\n\r\n").expect("sidecar response without header break");
    response[body_at + 4..].to_string()
}

/// Nearest-rank percentile over an unsorted nanosecond sample.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// One measurement arm of one rep: spawns a server, primes every
/// kernel's tape, measures `requests` warm analyze requests round-robin
/// across the kernels, and returns their server-reported `server_ns`.
fn measure_arm(
    obs: bool,
    requests: usize,
    batch: usize,
    workers: usize,
    seed: u64,
    out_dir: &std::path::Path,
) -> Vec<f64> {
    if !obs {
        // Tracing is process-global and a previous traced arm leaves it
        // on; the untraced arm must actively turn it off.
        scorpio_obs::disable();
    }
    let server = spawn_server(workers, obs, false, out_dir);
    let mut client = Client::connect(server.addr).expect("connect to server");
    let mut rng = SplitMix64::new(seed);
    for kernel in KERNELS {
        send_ok(&mut client, &request_line(1, kernel, batch, RATIO, &mut rng));
        send_ok(&mut client, &request_line(2, kernel, batch, RATIO, &mut rng));
    }
    let mut service_ns = Vec::with_capacity(requests);
    for i in 0..requests {
        let kernel = KERNELS[i % KERNELS.len()];
        let line = request_line(100 + i as u64, kernel, batch, RATIO, &mut rng);
        let reply = send_ok(&mut client, &line);
        assert!(
            matches!(reply.get("cached"), Some(Value::Bool(true))),
            "{kernel}: warm request missed the cache"
        );
        service_ns.push(reply.get("server_ns").and_then(Value::as_f64).unwrap_or(0.0));
    }
    server.shutdown(&mut client);
    service_ns
}

/// The live-scrape contract run: a traced server with the metrics
/// sidecar, probed and loaded. Returns
/// `(exposition_valid, exposition_samples, windows_nonempty,
/// trace_roundtrip)`.
fn run_contract(
    batch: usize,
    workers: usize,
    seed: u64,
    out_dir: &std::path::Path,
) -> (bool, u64, bool, bool) {
    let server = spawn_server(workers, true, true, out_dir);
    let mut client = Client::connect(server.addr).expect("connect to server");
    let mut rng = SplitMix64::new(seed);

    // Trace round-trip probe first: the exemplar ring is empty, so the
    // probe is retained unconditionally.
    let probe = request_line(777, "maclaurin", 4, RATIO, &mut rng);
    let trace_roundtrip = check_trace_roundtrip(&mut client, &probe, PROBE_TRACE_ID)
        .map_err(|e| eprintln!("{e}"))
        .is_ok();

    // Load every kernel so the windows and per-kernel metrics are warm.
    for kernel in KERNELS {
        for id in 0..4 {
            send_ok(&mut client, &request_line(10 + id, kernel, batch, RATIO, &mut rng));
        }
    }

    let body = client.metrics().expect("metrics verb");
    let verb_samples = match validate_exposition(&body) {
        Ok(n) => Some(n as u64),
        Err(e) => {
            eprintln!("metrics verb: invalid exposition: {e}");
            None
        }
    };
    let sidecar_body = scrape_sidecar(server.metrics_addr.expect("sidecar bound"));
    let sidecar_ok = match validate_exposition(&sidecar_body) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("metrics sidecar: invalid exposition: {e}");
            false
        }
    };
    let windows_nonempty = check_windows(&mut client, &KERNELS)
        .map_err(|e| eprintln!("{e}"))
        .is_ok();
    server.shutdown(&mut client);
    (
        verb_samples.is_some() && sidecar_ok,
        verb_samples.unwrap_or(0),
        windows_nonempty,
        trace_roundtrip,
    )
}

const SYNOPSIS: &str = "\
usage: bench_obs [--requests N] [--reps N] [--batch N] [--workers N]
                 [--seed N] [--bound PCT] [--out-dir DIR]";

fn main() -> ExitCode {
    usage_check(
        SYNOPSIS,
        &[
            "--requests",
            "--reps",
            "--batch",
            "--workers",
            "--seed",
            "--bound",
            "--out-dir",
        ],
    );
    let usize_arg = |flag: &str, default: usize| {
        arg_value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} must be a non-negative integer"))
        })
    };
    let out_dir = out_dir_arg();
    let requests = usize_arg("--requests", 120).max(KERNELS.len());
    let reps = usize_arg("--reps", 5).max(1);
    let batch = usize_arg("--batch", BATCH_DEFAULT).max(1);
    let workers = usize_arg("--workers", 2).max(1);
    let seed = usize_arg("--seed", 42) as u64;
    let bound_pct: f64 =
        arg_value("--bound").map_or(5.0, |v| v.parse().expect("--bound must be a number"));
    let per_rep = requests.div_ceil(reps).max(KERNELS.len());

    // Paired interleaved reps: off then on, back to back, so machine
    // drift lands on both arms of a rep alike.
    let mut off_ns = Vec::with_capacity(reps * per_rep);
    let mut on_ns = Vec::with_capacity(reps * per_rep);
    let mut deltas = Vec::with_capacity(reps);
    for rep in 0..reps {
        let rep_seed = seed.wrapping_add(rep as u64);
        let off = measure_arm(false, per_rep, batch, workers, rep_seed, &out_dir);
        let on = measure_arm(true, per_rep, batch, workers, rep_seed, &out_dir);
        let (p50_off, p50_on) = (percentile(&off, 0.50), percentile(&on, 0.50));
        let delta_pct = (p50_on - p50_off) / p50_off * 100.0;
        println!(
            "rep {}/{reps}: p50 off {:.1} µs, on {:.1} µs, delta {delta_pct:+.2}%",
            rep + 1,
            p50_off / 1e3,
            p50_on / 1e3
        );
        deltas.push(delta_pct);
        off_ns.extend(off);
        on_ns.extend(on);
    }
    let overhead_pct = percentile(&deltas, 0.50);
    let overhead_within_bound = overhead_pct <= bound_pct;
    println!(
        "tracing overhead: {overhead_pct:+.2}% of untraced mixed-workload p50 \
         (median of {reps} paired reps, bound {bound_pct}%) — {}",
        if overhead_within_bound { "within bound" } else { "OVER BOUND" }
    );

    let mode_row = |obs: bool, ns: &[f64]| ObsMode {
        obs,
        requests: ns.len() as u64,
        service_p50_ns: percentile(ns, 0.50),
        service_p90_ns: percentile(ns, 0.90),
        service_mean_ns: ns.iter().sum::<f64>() / ns.len().max(1) as f64,
    };
    let on = mode_row(true, &on_ns);
    let off = mode_row(false, &off_ns);

    // Live-scrape contract on a dedicated traced server, after the
    // measurement so its sidecar and probe traffic cannot perturb it.
    let (exposition_valid, exposition_samples, windows_nonempty, trace_roundtrip) =
        run_contract(batch, workers, seed, &out_dir);

    let contract = ObsContract {
        exposition_valid,
        exposition_samples,
        windows_nonempty,
        trace_roundtrip,
        overhead_within_bound,
    };
    let ok = contract.exposition_valid
        && contract.windows_nonempty
        && contract.trace_roundtrip
        && contract.overhead_within_bound;
    let report = ObsReport {
        schema: OBS_SCHEMA.to_string(),
        workers,
        requests_per_mode: (reps * per_rep) as u64,
        overhead_bound_pct: bound_pct,
        overhead_pct,
        contract,
        modes: vec![on, off],
    };
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    let path = out_dir.join("BENCH_obs.json");
    std::fs::write(&path, report.to_json() + "\n").expect("write BENCH_obs.json");
    println!("wrote {}", path.display());

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_obs FAILED: live-observability contract violated");
        ExitCode::FAILURE
    }
}
