//! Analysis-as-a-service daemon: serves significance-analysis requests
//! over newline-delimited JSON TCP until told to shut down.
//!
//! ```text
//! scorpio_serve [--addr 127.0.0.1:7070] [--workers N] [--cache-capacity N]
//!               [--out-dir DIR] [--no-manifest] [--no-obs]
//!               [--metrics-addr 127.0.0.1:9090]
//! ```
//!
//! The server keeps a shape-keyed cache of compiled analysis traces
//! shared across its worker pool, so repeated traffic from the same
//! kernel shape replays without re-recording (see
//! `docs/architecture.md`, "The serve layer"). On `{"cmd":"shutdown"}`
//! it writes `RUN_serve.json` (per-kernel latency histograms, task
//! events, cache counters) into `--out-dir` and prints a lifetime
//! summary.
//!
//! Probe it with `scorpio_load --addr <addr>` (the end-to-end smoke),
//! load it with perfbench, or drive it from any line client:
//!
//! ```text
//! {"id":1,"kernel":"maclaurin","n":12,"ratio":0.5,"items":[0.3,0.4]}
//! ```
//!
//! The server is live-observable while it runs: `{"cmd":"metrics"}`
//! returns the Prometheus exposition (also served over HTTP at
//! `--metrics-addr` when given), `{"cmd":"window"}` the per-kernel
//! sliding-window SLO telemetry, `{"cmd":"exemplars"}` the
//! tail-retained slow/error span trees. Watch a running server with
//! `scorpio_top --addr <addr>` / `scorpio_trace --addr <addr>`.
//! `--no-obs` disables span/event tracing (the `bench_obs` ablation
//! baseline); windows and metrics stay on either way. Exemplar trees
//! keep stage-level spans only: per-item interior spans (`replay`,
//! `reverse`, `significance`, lane sweeps) stay off the service path.

use scorpio_bench::{arg_value, flag_present, out_dir_arg};
use scorpio_serve::kernels::KERNEL_NAMES;
use scorpio_serve::{Server, ServerConfig};

fn main() -> std::io::Result<()> {
    let config = ServerConfig {
        addr: arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        workers: arg_value("--workers")
            .map(|v| v.parse().expect("--workers must be a positive integer"))
            .unwrap_or(2),
        cache_capacity: arg_value("--cache-capacity")
            .map(|v| v.parse().expect("--cache-capacity must be a positive integer"))
            .unwrap_or(64),
        manifest: (!flag_present("--no-manifest")).then(|| "serve".to_string()),
        out_dir: out_dir_arg(),
        obs: !flag_present("--no-obs"),
        metrics_addr: arg_value("--metrics-addr"),
    };
    assert!(config.workers > 0, "--workers must be at least 1");
    assert!(config.cache_capacity > 0, "--cache-capacity must be at least 1");

    let manifest_note = match &config.manifest {
        Some(name) => format!("RUN_{name}.json -> {}", config.out_dir.display()),
        None => "manifest disabled".to_string(),
    };
    let workers = config.workers;
    let cache_capacity = config.cache_capacity;
    let server = Server::bind(config)?;
    println!(
        "scorpio_serve listening on {} ({} workers, cache capacity {}, {})",
        server.local_addr()?,
        workers,
        cache_capacity,
        manifest_note,
    );
    if let Some(metrics_addr) = server.metrics_local_addr() {
        println!("metrics sidecar (Prometheus text exposition) on http://{metrics_addr}/metrics");
    }

    let summary = server.run()?;
    println!(
        "served {} requests ({} errors); cache hits {} / misses {} ({:.1}% hit rate), {} evictions",
        summary.requests,
        summary.errors,
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.hit_rate() * 100.0,
        summary.cache.evictions,
    );
    println!(
        "replay totals: {} replays, {} records, {} fallbacks, {} lane blocks",
        summary.replay.replays,
        summary.replay.records,
        summary.replay.fallbacks,
        summary.replay.lane_blocks,
    );
    for (kernel, n) in KERNEL_NAMES.iter().zip(summary.kernel_requests) {
        if n > 0 {
            println!("  {kernel}: {n} requests");
        }
    }
    Ok(())
}
