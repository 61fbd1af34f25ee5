//! Quality-of-result (QoR) reports: the per-kernel quality-vs-ratio
//! curves the sweep harness writes to `BENCH_qor.json`, joining the
//! quality metrics from `scorpio-quality` with the runtime's achieved
//! ratio and repeated wall-time samples. `scorpio_diff` compares two of
//! these files through their [`QorReport::metrics`] and gates on
//! regressions.

use scorpio_obs::gate::{self, Better, Metric};
use serde::Serialize;

use crate::stats;

/// Schema tag stamped into every report so `scorpio_diff` can tell QoR
/// reports and run manifests apart (and reject future format changes).
pub const QOR_SCHEMA: &str = "scorpio-qor-v1";

/// One measured point of a kernel's quality-vs-ratio curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QorPoint {
    /// The requested accurate-task ratio (the knob).
    pub ratio: f64,
    /// The measured quality at this ratio (in `metric` units).
    pub quality: f64,
    /// Modeled energy in Joules.
    pub energy_j: f64,
    /// The ratio the runtime actually achieved (forced significance-1
    /// tasks can push it above the request).
    pub achieved_ratio: f64,
    /// Tasks executed accurately.
    pub accurate: u64,
    /// Tasks executed with their approximate body.
    pub approximate: u64,
    /// Tasks dropped outright.
    pub dropped: u64,
    /// Wall-clock nanoseconds of each timed repetition (`--reps`),
    /// in measurement order — the raw samples `scorpio_diff` feeds its
    /// statistics.
    pub time_ns_samples: Vec<u64>,
}

/// One kernel's full curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QorKernel {
    /// Kernel name (e.g. `"sobel"`).
    pub name: String,
    /// Quality metric of the `quality` values (`"psnr_db"` or
    /// `"rel_error"`).
    pub metric: String,
    /// `true` when larger `quality` is better (PSNR), `false` when
    /// smaller is better (relative error). Spares downstream tools a
    /// hard-coded metric table.
    pub higher_is_better: bool,
    /// The measured points, in ascending ratio order.
    pub points: Vec<QorPoint>,
}

/// The whole report (`BENCH_qor.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QorReport {
    /// Format tag, always [`QOR_SCHEMA`].
    pub schema: String,
    /// Producing harness (e.g. `"fig7_sweep"`).
    pub name: String,
    /// `git describe` of the producing tree.
    pub git: String,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Timed repetitions per point.
    pub reps: usize,
    /// Whether the reduced `--small` workloads were used (reports from
    /// different workload sizes are not comparable).
    pub small: bool,
    /// `true` when the producing run dropped events (the bounded event
    /// log was full, see `scorpio_obs::events_dropped`): the exported
    /// event timeline is then truncated, and `scorpio_diff` warns
    /// whenever it consumes the report.
    pub degraded: bool,
    /// Per-kernel curves.
    pub kernels: Vec<QorKernel>,
}

impl QorReport {
    /// Serialises the report, with its [`QorReport::metrics`], as JSON.
    pub fn to_json(&self) -> String {
        gate::to_json(self, &self.metrics())
    }

    /// The gated metrics, per kernel and ratio point: quality
    /// (metric-direction aware), modeled energy, the achieved ratio
    /// (the runtime's scheduling is deterministic, so any drift gates)
    /// and the wall time with its repeated samples.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for k in &self.kernels {
            let better = if k.higher_is_better {
                Better::Higher
            } else {
                Better::Lower
            };
            for p in &k.points {
                let at = |what: &str| format!("{} @ ratio {} · {what}", k.name, p.ratio);
                let samples: Vec<f64> = p.time_ns_samples.iter().map(|&t| t as f64).collect();
                out.extend([
                    Metric::new(at(&format!("quality({})", k.metric)), &k.metric, better, p.quality),
                    Metric::new(at("energy_j"), "J", Better::Lower, p.energy_j),
                    Metric::new(at("achieved_ratio"), "ratio", Better::Exact, p.achieved_ratio),
                    Metric::new(at("time_ns"), "ns", Better::Lower, stats::mean(&samples))
                        .with_samples(samples),
                ]);
            }
        }
        out
    }
}

/// A one-kernel sobel report: `time_scale` multiplies every timing
/// sample, `quality_delta` shifts the PSNR.
#[cfg(test)]
pub(crate) fn fixture(time_scale: f64, quality_delta: f64) -> QorReport {
    let point = |ratio: f64| QorPoint {
        ratio,
        quality: 30.0 + 10.0 * ratio + quality_delta,
        energy_j: 1.0 + ratio,
        achieved_ratio: ratio,
        accurate: (ratio * 10.0) as u64,
        approximate: 10 - (ratio * 10.0) as u64,
        dropped: 0,
        time_ns_samples: [1000.0, 1010.0, 990.0, 1005.0, 995.0]
            .iter()
            .map(|t| (t * time_scale) as u64)
            .collect(),
    };
    QorReport {
        schema: QOR_SCHEMA.to_owned(),
        name: "test".to_owned(),
        git: "deadbeef".to_owned(),
        threads: 1,
        reps: 5,
        small: true,
        degraded: false,
        kernels: vec![QorKernel {
            name: "sobel".to_owned(),
            metric: "psnr_db".to_owned(),
            higher_is_better: true,
            points: vec![point(0.0), point(0.5), point(1.0)],
        }],
    }
}
