//! Analysis-as-a-service: a persistent significance-analysis server.
//!
//! Every harness binary in this workspace is one-shot: it pays the
//! record+compile cost of every kernel trace on every invocation. The
//! runtime of the source paper is the opposite — a long-lived system
//! that amortizes analysis across repeated task submissions. This crate
//! closes that gap with a TCP server speaking newline-delimited JSON
//! (one request object per line, one response object per line) that
//! keeps compiled traces alive *across* requests, connections and
//! worker threads:
//!
//! * [`protocol`] — the wire format: requests parsed with
//!   [`scorpio_obs::json`], responses written with the same
//!   [`WriteJson`](scorpio_obs::json::WriteJson) writer the run
//!   manifests use (so served reports are byte-comparable with
//!   [`scorpio_core::Report::to_json`] output).
//! * [`kernels`] — the served kernel catalogue (fisheye, blackscholes,
//!   dct, maclaurin, nbody): per-kernel request parsing, shape keys and
//!   replay-driver execution over the public `register_*`/`*_inputs`
//!   pairs the kernel crate exports.
//! * [`server`] — the accept loop, the fixed worker pool (one
//!   [`AnalysisArena`](scorpio_core::AnalysisArena) +
//!   [`LaneScratch`](scorpio_core::LaneScratch) per worker) and the
//!   shared [`TapeCache`](scorpio_core::TapeCache): a request whose
//!   `(kernel, shape_key)` was served before — by *any* worker —
//!   installs the cached [`CompiledTrace`](scorpio_core::CompiledTrace)
//!   and replays without recording.
//! * [`client`] — a small blocking client used by the load generator,
//!   the integration tests and the verify smoke.
//!
//! The server is deliberately `std::net`-only: the build environment
//! has no crate registry, and the request rate the analysis itself can
//! sustain (micro- to milliseconds per item) makes thread-per-connection
//! plus a bounded worker pool the right tool anyway.
//!
//! # Protocol at a glance
//!
//! ```json
//! {"id":1,"cmd":"analyze","kernel":"maclaurin","n":12,"ratio":0.5,"items":[0.3,0.4]}
//! {"id":1,"ok":true,"kernel":"maclaurin","cached":true,"server_ns":180000,"tasks":[...],"reports":[...]}
//! ```
//!
//! Control commands: `{"cmd":"stats"}`, `{"cmd":"cache_clear"}`,
//! `{"cmd":"shutdown"}` (the latter also writes the run manifest,
//! making server lifecycles deterministic in tests and benchmarks).
//!
//! # Live observability
//!
//! The server is observable *while it runs* (see
//! `docs/architecture.md` §live observability):
//!
//! * every analyze request carries a **trace id** (client-supplied or
//!   server-generated) stamped onto all spans and task events it
//!   emits; the [`exemplar`] ring tail-retains the slowest and all
//!   failed requests' complete span trees, dumpable live with
//!   `{"cmd":"exemplars"}`;
//! * `{"cmd":"metrics"}` renders the metrics registry, cache/replay
//!   gauges and sliding windows as Prometheus text exposition — the
//!   same body an optional read-only HTTP **sidecar listener**
//!   ([`ServerConfig::metrics_addr`]) serves to scrapers;
//! * `{"cmd":"window"}` reports per-kernel sliding-window SLO
//!   telemetry (request/error rate, latency quantiles, cache hit
//!   rate, achieved-vs-requested ratio over the last 10s/1m/5m) from
//!   [`scorpio_obs::SlidingWindow`] aggregators that are always on —
//!   their cost is a handful of adds under a per-second mutex, and
//!   the `bench_obs` ablation pins the total observability overhead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod exemplar;
pub mod kernels;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use exemplar::{Exemplar, ExemplarRing};
pub use kernels::KernelRequest;
pub use protocol::{AnalyzeRequest, Command, Detail, Request};
pub use server::{Server, ServerConfig, ServerSummary};
