//! Smoke probe for `scorpio_serve`: the end-to-end check the verify
//! workflow runs against the daemon.
//!
//! ```text
//! scorpio_load [--addr HOST:PORT]   # default: spawn an in-process server
//!              [--out-dir DIR]      # the in-process server's run manifest
//! ```
//!
//! Sends one two-item request per kernel plus a malformed line and an
//! unknown kernel (both must produce error replies without killing the
//! server), then checks the live-observability surface — the `metrics`
//! verb must render valid Prometheus exposition, every kernel's sliding
//! window must have seen the traffic, and a client-supplied trace id
//! must round-trip into the exemplar dump as a span tree — and exits
//! non-zero on any failure. Serving cost (cold and warm service time,
//! cache hit ratio, wire latency quantiles) is measured by perfbench,
//! not here.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::thread;

use scorpio_bench::{arg_value, out_dir_arg, request_line};
use scorpio_core::audit::SplitMix64;
use scorpio_obs::json::Value;
use scorpio_serve::kernels::KERNEL_NAMES;
use scorpio_serve::{Client, Server, ServerConfig, ServerSummary};

/// Seed of the request stream.
const SEED: u64 = 42;
/// Accurate-computation ratio of every request.
const RATIO: f64 = 1.0;
/// Worker threads of the in-process server.
const WORKERS: usize = 2;
/// Trace-cache capacity of the in-process server.
const CACHE_CAPACITY: usize = 64;

fn is_ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// Reads the top-level counter `key` out of a stats response.
fn stat_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// Spawns an in-process server on an ephemeral port, returning its
/// address and the `run()` thread.
fn spawn_server(
    out_dir: std::path::PathBuf,
) -> (SocketAddr, thread::JoinHandle<std::io::Result<ServerSummary>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        manifest: Some("serve".to_string()),
        out_dir,
        ..ServerConfig::default()
    })
    .expect("bind in-process server");
    let addr = server.local_addr().expect("server local_addr");
    (addr, thread::spawn(move || server.run()))
}

/// One request per kernel, malformed-line and unknown-kernel error
/// probes, then a stats check — the verify-workflow smoke.
fn run_smoke(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = SplitMix64::new(SEED);
    for (k, kernel) in KERNEL_NAMES.iter().enumerate() {
        let line = request_line(1 + k as u64, kernel, 2, RATIO, &mut rng);
        let reply = client.request(&line).map_err(|e| format!("{kernel}: {e}"))?;
        if !is_ok(&reply) {
            return Err(format!(
                "{kernel}: error reply: {}",
                reply.get("error").and_then(Value::as_str).unwrap_or("?")
            ));
        }
        let reports = reply.get("reports").and_then(Value::as_arr).map_or(0, <[Value]>::len);
        let tasks = reply.get("tasks").and_then(Value::as_arr).map_or(0, <[Value]>::len);
        if reports != 2 || tasks != 2 {
            return Err(format!("{kernel}: expected 2 reports + 2 tasks, got {reports} + {tasks}"));
        }
        println!("smoke {kernel}: ok ({reports} reports)");
    }
    // Both error paths must answer on the same connection, and the
    // server must keep serving afterwards.
    let bad = client
        .request(r#"{"kernel": oops"#)
        .map_err(|e| format!("malformed probe: {e}"))?;
    if is_ok(&bad) {
        return Err("malformed request was not rejected".to_string());
    }
    let unknown = client
        .request(r#"{"id":9,"kernel":"warp","items":[1]}"#)
        .map_err(|e| format!("unknown-kernel probe: {e}"))?;
    let msg = unknown.get("error").and_then(Value::as_str).unwrap_or("");
    if is_ok(&unknown) || !msg.contains("unknown kernel") {
        return Err(format!("unknown kernel was not rejected: {msg:?}"));
    }
    let stats = client.stats().map_err(|e| format!("stats after errors: {e}"))?;
    if !is_ok(&stats) || stat_u64(&stats, "errors") < 2 {
        return Err("stats did not record the two error probes".to_string());
    }
    println!(
        "smoke errors: ok (malformed + unknown kernel rejected, server still serving, {} requests total)",
        stat_u64(&stats, "requests")
    );

    // Live-observability surface, on the same connection.
    let body = client.metrics().map_err(|e| format!("metrics verb: {e}"))?;
    let samples = scorpio_obs::expose::validate_exposition(&body)
        .map_err(|e| format!("metrics verb returned invalid exposition: {e}"))?;
    println!("smoke metrics: ok ({samples} samples of valid Prometheus exposition)");

    let windows = client.window().map_err(|e| format!("window verb: {e}"))?;
    let empty = Vec::new();
    let kernels = windows.get("kernels").and_then(Value::as_arr).unwrap_or(&empty);
    for (k, kernel) in KERNEL_NAMES.iter().enumerate() {
        // The 1m span: wide enough that a slow box cannot rotate the
        // smoke's own traffic out before this check runs.
        let seen = kernels
            .iter()
            .find(|rec| rec.get("kernel").and_then(Value::as_str) == Some(*kernel))
            .and_then(|rec| rec.get("spans"))
            .and_then(Value::as_arr)
            .and_then(|spans| {
                spans
                    .iter()
                    .find(|s| s.get("span").and_then(Value::as_str) == Some("1m"))
            })
            .and_then(|s| s.get("requests"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if seen <= 0.0 {
            return Err(format!("window verb: {kernel} 1m window is empty (kernel {k})"));
        }
    }
    println!("smoke windows: ok (all {} kernels report 1m traffic)", KERNEL_NAMES.len());

    let mut traced = request_line(99, KERNEL_NAMES[0], 1, RATIO, &mut rng);
    traced.insert_str(traced.len() - 1, r#","trace_id":"beef""#);
    let reply = client.request(&traced).map_err(|e| format!("traced probe: {e}"))?;
    if reply.get("trace_id").and_then(Value::as_str) != Some("000000000000beef") {
        return Err("traced probe: reply did not echo the supplied trace id".to_string());
    }
    let dump = client.exemplars().map_err(|e| format!("exemplars verb: {e}"))?;
    let found = dump
        .get("exemplars")
        .and_then(Value::as_arr)
        .unwrap_or(&empty)
        .iter()
        .find(|e| e.get("trace_id").and_then(Value::as_str) == Some("000000000000beef"))
        .ok_or("traced probe: trace id not retained in the exemplar ring")?;
    let spans = found.get("spans").and_then(Value::as_arr).unwrap_or(&empty);
    if !spans
        .iter()
        .any(|s| s.get("path").and_then(Value::as_str) == Some("serve.request"))
    {
        return Err("traced probe: exemplar has no serve.request root span".to_string());
    }
    println!("smoke trace: ok (trace id beef round-tripped into a {}-span exemplar)", spans.len());
    Ok(())
}

fn main() -> ExitCode {
    // Point at a running server, or host one in this process.
    let (addr, server_handle) = match arg_value("--addr") {
        Some(addr) => (addr, None),
        None => {
            let (addr, handle) = spawn_server(out_dir_arg());
            println!("spawned in-process server on {addr} ({WORKERS} workers)");
            (addr.to_string(), Some(handle))
        }
    };
    let result = run_smoke(&addr);
    if let Some(handle) = server_handle {
        let mut client = Client::connect(&addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown request");
        let summary = handle.join().expect("server thread").expect("server run");
        println!(
            "server closed: {} requests, {} cache hits / {} misses",
            summary.requests, summary.cache.hits, summary.cache.misses
        );
    }
    match result {
        Ok(()) => {
            println!("smoke: all checks passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
