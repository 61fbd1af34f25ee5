//! The live-observability ablation report (`BENCH_obs.json`).
//!
//! `bench_obs` runs the same warm serving workload against two
//! in-process servers — one with span/event tracing enabled
//! (`obs: true`, the daemon default) and one with it disabled — and
//! records the per-request service-time distribution of each, plus the
//! live-scrape contract: the `metrics` verb must render valid
//! Prometheus exposition under load, the sliding windows must be
//! non-empty, a client-supplied trace id must round-trip into the
//! exemplar dump, and the tracing overhead must stay within
//! [`ObsReport::overhead_bound_pct`] of the untraced service-time p50.
//!
//! The contract bits are machine-independent, so
//! `scorpio_diff --gate --quality-only` against
//! `baselines/BENCH_obs_small.json` enforces them on any host; raw
//! nanosecond columns only gate in full (same-machine) mode.

use scorpio_obs::gate::{self, Better, Metric};
use scorpio_obs::json_record;

/// Format tag of `BENCH_obs.json`.
pub const OBS_SCHEMA: &str = "scorpio-obs-v1";

/// The machine-independent live-observability contract.
#[derive(Debug, Clone)]
pub struct ObsContract {
    /// The `metrics` verb's body passed
    /// [`scorpio_obs::expose::validate_exposition`] while the server
    /// was under load.
    pub exposition_valid: bool,
    /// Samples the validated exposition contained.
    pub exposition_samples: u64,
    /// Every loaded kernel's 10s window reported the requests that
    /// were just sent.
    pub windows_nonempty: bool,
    /// A client-supplied trace id came back in the analyze response
    /// *and* named a reassemblable span tree in the exemplar dump
    /// (root span plus nested children, all stamped with the id).
    pub trace_roundtrip: bool,
    /// Measured tracing overhead stayed within
    /// [`ObsReport::overhead_bound_pct`] of the untraced p50.
    pub overhead_within_bound: bool,
}
json_record!(ObsContract {
    exposition_valid,
    exposition_samples,
    windows_nonempty,
    trace_roundtrip,
    overhead_within_bound
});

/// One ablation arm: the serving workload with tracing on or off.
#[derive(Debug, Clone)]
pub struct ObsMode {
    /// Whether span/event tracing was enabled.
    pub obs: bool,
    /// Warm analyze requests measured.
    pub requests: u64,
    /// Median service time, nanoseconds.
    pub service_p50_ns: f64,
    /// 90th-percentile service time, nanoseconds.
    pub service_p90_ns: f64,
    /// Mean service time, nanoseconds.
    pub service_mean_ns: f64,
}
json_record!(ObsMode {
    obs,
    requests,
    service_p50_ns,
    service_p90_ns,
    service_mean_ns
});

/// The `BENCH_obs.json` artifact.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Format tag, always [`OBS_SCHEMA`].
    pub schema: String,
    /// Worker-pool size used by both arms.
    pub workers: usize,
    /// Warm requests measured per arm.
    pub requests_per_mode: u64,
    /// The acceptance bound on tracing overhead, percent of the
    /// untraced p50 (the issue fixes it at 5%).
    pub overhead_bound_pct: f64,
    /// Measured overhead: `(p50_on - p50_off) / p50_off · 100`
    /// (negative when tracing measured faster — noise on a 1-core
    /// container).
    pub overhead_pct: f64,
    /// The machine-independent contract bits.
    pub contract: ObsContract,
    /// The two arms, tracing-on first.
    pub modes: Vec<ObsMode>,
}
json_record!(ObsReport {
    schema,
    workers,
    requests_per_mode,
    overhead_bound_pct,
    overhead_pct,
    contract,
    modes
});

impl ObsReport {
    /// Serialises the report, with its [`ObsReport::metrics`], as JSON.
    pub fn to_json(&self) -> String {
        gate::to_json(self, &self.metrics())
    }

    /// The gated metrics: the four contract bits, then each arm's
    /// service-time p50/p90 (machine-dependent, so skipped under
    /// `--quality-only`). The measured `overhead_pct` itself is gated
    /// only through the `overhead_within_bound` bit.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.contract;
        let mut out: Vec<Metric> = [
            ("exposition_valid", c.exposition_valid),
            ("windows_nonempty", c.windows_nonempty),
            ("trace_roundtrip", c.trace_roundtrip),
            ("overhead_within_bound", c.overhead_within_bound),
        ]
        .into_iter()
        .map(|(what, ok)| Metric::contract(format!("contract · {what}"), ok))
        .collect();
        for m in &self.modes {
            let label = if m.obs { "obs-on" } else { "obs-off" };
            out.extend([
                Metric::new(format!("{label} · service_p50_ns"), "ns", Better::Lower, m.service_p50_ns),
                Metric::new(format!("{label} · service_p90_ns"), "ns", Better::Lower, m.service_p90_ns),
            ]);
        }
        out
    }
}

/// A two-arm report whose four contract bits all equal `ok`.
#[cfg(test)]
pub(crate) fn fixture(ok: bool) -> ObsReport {
    let mode = |obs: bool| ObsMode {
        obs,
        requests: 60,
        service_p50_ns: 130_000.0,
        service_p90_ns: 3.0e7,
        service_mean_ns: 1.0e7,
    };
    ObsReport {
        schema: OBS_SCHEMA.to_owned(),
        workers: 2,
        requests_per_mode: 60,
        overhead_bound_pct: 10.0,
        overhead_pct: -1.0,
        contract: ObsContract {
            exposition_valid: ok,
            exposition_samples: 169,
            windows_nonempty: ok,
            trace_roundtrip: ok,
            overhead_within_bound: ok,
        },
        modes: vec![mode(true), mode(false)],
    }
}
