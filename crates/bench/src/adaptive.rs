//! Adaptive-controller ablation: closed-loop ratio control vs the best
//! static ratio.
//!
//! The static Fig. 7 sweep answers "what quality does each ratio buy";
//! this module answers the operational question the paper's §3.2 knob
//! exists for: *given a quality target, can the runtime find the
//! cheapest ratio by itself?* [`run_adaptive`] drives one kernel's
//! [`AdaptiveController`] loop — execute at the current ratio, feed the
//! measured quality (or modeled energy) back, let the controller step —
//! until it converges or a step budget runs out, then scores the result
//! against the best *static* grid point from the same kernel's QoR
//! curve. The per-kernel outcomes aggregate into `BENCH_adaptive.json`
//! ([`ADAPTIVE_SCHEMA`]), which `scorpio_diff --gate` checks against a
//! checked-in baseline: on every kernel with a non-flat quality curve
//! the controller must meet its target and use no more energy than the
//! cheapest target-meeting static ratio.

use crate::qor::QorKernel;
use scorpio_runtime::controller::adaptive::{AdaptiveController, Objective};
use scorpio_runtime::controller::QualityTarget;
use scorpio_obs::gate::{self, Better, Metric};
use scorpio_obs::json_record;
use scorpio_runtime::{EnergyModel, ExecutionStats};

/// Schema tag of `BENCH_adaptive.json`, so `scorpio_diff` can tell the
/// ablation report apart from QoR reports and run manifests.
pub const ADAPTIVE_SCHEMA: &str = "scorpio-adaptive-v1";

/// Default cap on closed-loop iterations per kernel. The controller's
/// bracket halves in width every couple of steps, so a well-behaved
/// kernel converges in well under half of this; hitting the cap means
/// `converged: false` in the report, which the diff gate flags on
/// non-flat kernels.
pub const MAX_STEPS: usize = 32;

/// The cheapest static grid point meeting the objective (for quality
/// targets), or the best-quality point within budget (for energy
/// budgets) — the yardstick the controller has to beat or match.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticBest {
    /// The grid ratio.
    pub ratio: f64,
    /// Quality measured at that ratio in the static sweep.
    pub quality: f64,
    /// Modeled energy at that ratio in the static sweep.
    pub energy_j: f64,
}
json_record!(StaticBest {
    ratio,
    quality,
    energy_j
});

/// What the closed loop ended at.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// The ratio the controller settled on.
    pub final_ratio: f64,
    /// Quality measured at [`AdaptiveOutcome::final_ratio`].
    pub quality: f64,
    /// Modeled energy at the final ratio.
    pub energy_j: f64,
    /// Controller observations consumed.
    pub steps: u64,
    /// Whether the controller latched convergence before the step cap.
    pub converged: bool,
    /// Zero-based observation index at which convergence latched.
    pub converged_step: Option<u64>,
    /// Kernel executions spent (≥ `steps`: a confirming run is added
    /// when the last observation still moved the ratio).
    pub evals: u64,
    /// Non-finite quality signals the controller absorbed (held, not
    /// chased — see the NaN-immunity contract of the controller).
    pub non_finite: u64,
}
json_record!(AdaptiveOutcome {
    final_ratio,
    quality,
    energy_j,
    steps,
    converged,
    converged_step,
    evals,
    non_finite
});

/// One kernel's adaptive-vs-static verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveKernel {
    /// Kernel name (e.g. `"sobel"`).
    pub name: String,
    /// Quality metric of the `quality` values.
    pub metric: String,
    /// `true` when larger quality values are better.
    pub higher_is_better: bool,
    /// Objective direction: `"at_least"`, `"at_most"`, or
    /// `"energy_budget"`.
    pub target_kind: String,
    /// The objective's threshold value.
    pub target: f64,
    /// `true` when the static QoR curve actually varies with the ratio.
    /// A flat curve (blackscholes' synthetic error metric) gives the
    /// controller nothing to trade, so flat kernels are reported but
    /// exempt from the dominance gate.
    pub non_flat: bool,
    /// The static yardstick, absent when no grid point meets the
    /// objective.
    pub best_static: Option<StaticBest>,
    /// The closed-loop result.
    pub adaptive: AdaptiveOutcome,
    /// Whether the final observation satisfies the objective.
    pub target_met: bool,
    /// The gate predicate: on non-flat kernels, target met at energy no
    /// worse than [`AdaptiveKernel::best_static`] (quality no worse,
    /// for energy budgets). Flat kernels pass vacuously.
    pub dominates: bool,
}
json_record!(AdaptiveKernel {
    name,
    metric,
    higher_is_better,
    target_kind,
    target,
    non_flat,
    best_static,
    adaptive,
    target_met,
    dominates
});

/// The whole report (`BENCH_adaptive.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Format tag, always [`ADAPTIVE_SCHEMA`].
    pub schema: String,
    /// Producing harness (e.g. `"fig7_sweep"`).
    pub name: String,
    /// `git describe` of the producing tree.
    pub git: String,
    /// Worker threads the runs used.
    pub threads: usize,
    /// Whether the reduced `--small` workloads were used.
    pub small: bool,
    /// `true` when the producing run dropped task events — achieved
    /// ratios (and anything seeded from them) may then be biased; see
    /// [`crate::QorReport::degraded`].
    pub degraded: bool,
    /// Per-kernel verdicts.
    pub kernels: Vec<AdaptiveKernel>,
}
json_record!(AdaptiveReport {
    schema,
    name,
    git,
    threads,
    small,
    degraded,
    kernels
});

impl AdaptiveReport {
    /// Serialises the report, with its [`AdaptiveReport::metrics`], as
    /// JSON.
    pub fn to_json(&self) -> String {
        gate::to_json(self, &self.metrics())
    }

    /// The gated metrics, per kernel: on non-flat kernels the
    /// controller contract (target met, converged, dominates the best
    /// static ratio; flat kernels are exempt and emit no bits), then
    /// the adaptive quality, modeled energy and convergence step count.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for k in &self.kernels {
            let at = |what: &str| format!("{} · {what}", k.name);
            if k.non_flat {
                out.extend([
                    Metric::contract(at("target_met"), k.target_met),
                    Metric::contract(at("converged"), k.adaptive.converged),
                    Metric::contract(at("dominates best static"), k.dominates),
                ]);
            }
            let better = if k.higher_is_better {
                Better::Higher
            } else {
                Better::Lower
            };
            let a = &k.adaptive;
            out.extend([
                Metric::new(at(&format!("adaptive quality({})", k.metric)), &k.metric, better, a.quality),
                Metric::new(at("adaptive energy_j"), "J", Better::Lower, a.energy_j),
                Metric::new(at("convergence steps"), "steps", Better::Lower, a.steps as f64),
            ]);
        }
        out
    }
}

/// A one-kernel (non-flat sobel) report whose contract bits all equal
/// `ok`.
#[cfg(test)]
pub(crate) fn fixture(ok: bool, degraded: bool, steps: u64) -> AdaptiveReport {
    AdaptiveReport {
        schema: ADAPTIVE_SCHEMA.to_owned(),
        name: "test".to_owned(),
        git: "deadbeef".to_owned(),
        threads: 1,
        small: true,
        degraded,
        kernels: vec![AdaptiveKernel {
            name: "sobel".to_owned(),
            metric: "psnr_db".to_owned(),
            higher_is_better: true,
            target_kind: "at_least".to_owned(),
            target: 25.0,
            non_flat: true,
            best_static: Some(StaticBest {
                ratio: 0.8,
                quality: 28.9,
                energy_j: 2.0,
            }),
            adaptive: AdaptiveOutcome {
                final_ratio: 0.62,
                quality: 25.4,
                energy_j: 1.6,
                steps,
                converged: ok,
                converged_step: ok.then(|| steps.saturating_sub(1)),
                evals: steps + 1,
                non_finite: 0,
            },
            target_met: ok,
            dominates: ok,
        }],
    }
}

/// The per-kernel quality objective the adaptive run pursues. Values
/// are chosen to sit strictly inside each kernel's measured quality
/// range so the controller has a real crossing to find (on both the
/// `--small` and full workloads). Returns `None` for unknown kernel
/// names.
pub fn default_objective(kernel: &str) -> Option<Objective> {
    Some(match kernel {
        "sobel" => Objective::Quality(QualityTarget::AtLeast(25.0)),
        "dct" => Objective::Quality(QualityTarget::AtLeast(40.0)),
        "fisheye" => Objective::Quality(QualityTarget::AtLeast(30.0)),
        "nbody" => Objective::Quality(QualityTarget::AtMost(1e-5)),
        "blackscholes" => Objective::Quality(QualityTarget::AtMost(1e-3)),
        _ => return None,
    })
}

/// The objective the adaptive run pursues for `kernel`: its
/// [`default_objective`].
///
/// # Panics
///
/// Panics when `kernel` has no default objective (unknown name).
pub fn resolve_objective(kernel: &str) -> Objective {
    default_objective(kernel)
        .unwrap_or_else(|| panic!("no default quality target for kernel {kernel:?}"))
}

/// Splits an objective into the `(target_kind, target)` report fields.
pub fn objective_fields(objective: Objective) -> (&'static str, f64) {
    match objective {
        Objective::Quality(QualityTarget::AtLeast(t)) => ("at_least", t),
        Objective::Quality(QualityTarget::AtMost(t)) => ("at_most", t),
        Objective::EnergyBudget(b) => ("energy_budget", b),
    }
}

/// `true` when the curve's quality actually responds to the ratio knob
/// (relative spread beyond noise). Flat curves are exempt from the
/// dominance gate: there is no trade-off for the controller to win.
pub fn non_flat(curve: &QorKernel) -> bool {
    let finite: Vec<f64> = curve
        .points
        .iter()
        .map(|p| p.quality)
        .filter(|q| q.is_finite())
        .collect();
    let (Some(lo), Some(hi)) = (
        finite.iter().copied().reduce(f64::min),
        finite.iter().copied().reduce(f64::max),
    ) else {
        return false;
    };
    hi - lo > 1e-6 * hi.abs().max(1.0)
}

/// Picks the static yardstick off a measured curve: for quality
/// targets, the minimum-energy point meeting the target; for energy
/// budgets, the best-quality point within budget. `None` when no grid
/// point qualifies.
pub fn best_static(curve: &QorKernel, objective: Objective) -> Option<StaticBest> {
    let candidates = curve.points.iter().filter(|p| match objective {
        Objective::Quality(t) => t.met_by(p.quality),
        Objective::EnergyBudget(b) => p.energy_j <= b,
    });
    let winner = match objective {
        Objective::Quality(_) => {
            candidates.min_by(|a, b| a.energy_j.total_cmp(&b.energy_j))
        }
        Objective::EnergyBudget(_) => candidates.max_by(|a, b| {
            if curve.higher_is_better {
                a.quality.total_cmp(&b.quality)
            } else {
                b.quality.total_cmp(&a.quality)
            }
        }),
    }?;
    Some(StaticBest {
        ratio: winner.ratio,
        quality: winner.quality,
        energy_j: winner.energy_j,
    })
}

/// Drives the closed loop for one kernel and scores it against the
/// static curve.
///
/// `curve` is the kernel's static QoR sweep (used to seed the
/// controller's starting ratio and to pick [`StaticBest`]); `eval` runs
/// the kernel once at a given ratio and returns the measured quality
/// and execution statistics. The loop stops at convergence or after
/// `max_steps` observations; when the final observation still moved the
/// ratio, one confirming execution at the settled ratio produces the
/// reported quality/energy.
pub fn run_adaptive(
    curve: &QorKernel,
    objective: Objective,
    max_steps: usize,
    model: &EnergyModel,
    mut eval: impl FnMut(f64) -> (f64, ExecutionStats),
) -> AdaptiveKernel {
    let mut controller = AdaptiveController::new(curve.name.clone(), objective);
    let seed: Vec<(f64, f64)> = curve.points.iter().map(|p| (p.ratio, p.quality)).collect();
    controller.seed_from_curve(&seed);

    let mut evals = 0u64;
    let mut quality = f64::NAN;
    let mut energy_j = f64::NAN;
    let mut moved_after_measuring = false;
    for _ in 0..max_steps {
        let ratio = controller.ratio();
        let (q, stats) = eval(ratio);
        evals += 1;
        let e = model.energy(&stats);
        controller.record_execution(&stats);
        let signal = match objective {
            Objective::Quality(_) => q,
            Objective::EnergyBudget(_) => e,
        };
        let decision = controller.observe(signal);
        quality = q;
        energy_j = e;
        moved_after_measuring = decision.ratio_after != decision.ratio_before;
        if controller.converged() {
            break;
        }
    }
    if moved_after_measuring {
        // The last observation stepped the ratio, so the recorded
        // quality belongs to the pre-step ratio: confirm at the settled
        // one.
        let (q, stats) = eval(controller.ratio());
        evals += 1;
        quality = q;
        energy_j = model.energy(&stats);
    }

    let target_met = match objective {
        Objective::Quality(t) => t.met_by(quality),
        Objective::EnergyBudget(b) => energy_j <= b,
    };
    let flat_exempt = !non_flat(curve);
    let best = best_static(curve, objective);
    let dominates = flat_exempt
        || (target_met
            && match (&objective, &best) {
                (_, None) => true,
                (Objective::Quality(_), Some(s)) => {
                    energy_j <= s.energy_j * (1.0 + 1e-9) + 1e-12
                }
                (Objective::EnergyBudget(_), Some(s)) => {
                    if curve.higher_is_better {
                        quality >= s.quality
                    } else {
                        quality <= s.quality
                    }
                }
            });
    let (target_kind, target) = objective_fields(objective);
    AdaptiveKernel {
        name: curve.name.clone(),
        metric: curve.metric.clone(),
        higher_is_better: curve.higher_is_better,
        target_kind: target_kind.to_owned(),
        target,
        non_flat: !flat_exempt,
        best_static: best,
        adaptive: AdaptiveOutcome {
            final_ratio: controller.ratio(),
            quality,
            energy_j,
            steps: controller.steps(),
            converged: controller.converged(),
            converged_step: controller.converged_at(),
            evals,
            non_finite: controller.non_finite_observations(),
        },
        target_met,
        dominates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qor::QorPoint;

    /// A synthetic kernel: `tasks` tasks, quality follows `q(ratio)`,
    /// energy proportional to accurate task count (the runtime's
    /// ceil-quantised schedule).
    fn synth_eval(
        tasks: usize,
        q: impl Fn(f64) -> f64,
    ) -> impl FnMut(f64) -> (f64, ExecutionStats) {
        move |ratio: f64| {
            let accurate = (ratio * tasks as f64).ceil() as usize;
            let stats = ExecutionStats {
                accurate,
                approximate: tasks - accurate,
                dropped: 0,
                accurate_ops: accurate as u64 * 1000,
                approx_ops: (tasks - accurate) as u64 * 10,
            };
            (q(ratio), stats)
        }
    }

    fn synth_curve(name: &str, tasks: usize, q: impl Fn(f64) -> f64) -> QorKernel {
        let model = EnergyModel::xeon_e5_2695v3();
        let mut eval = synth_eval(tasks, &q);
        let points = [0.0, 0.2, 0.5, 0.8, 1.0]
            .into_iter()
            .map(|ratio| {
                let (quality, stats) = eval(ratio);
                QorPoint {
                    ratio,
                    quality,
                    energy_j: model.energy(&stats),
                    achieved_ratio: stats.accurate as f64 / stats.total() as f64,
                    accurate: stats.accurate as u64,
                    approximate: stats.approximate as u64,
                    dropped: 0,
                    time_ns_samples: vec![1_000],
                }
            })
            .collect();
        QorKernel {
            name: name.to_owned(),
            metric: "psnr_db".to_owned(),
            higher_is_better: true,
            points,
        }
    }

    #[test]
    fn adaptive_meets_target_and_dominates_on_a_ramp() {
        let q = |r: f64| 20.0 + 40.0 * r; // crosses 30 dB at r = 0.25
        let curve = synth_curve("ramp", 200, q);
        let model = EnergyModel::xeon_e5_2695v3();
        let k = run_adaptive(
            &curve,
            Objective::Quality(QualityTarget::AtLeast(30.0)),
            MAX_STEPS,
            &model,
            synth_eval(200, q),
        );
        assert!(k.non_flat);
        assert!(k.adaptive.converged, "did not converge: {k:?}");
        assert!(k.target_met, "missed target: {k:?}");
        assert!(k.dominates, "worse than static: {k:?}");
        // Best static is the 0.5 grid point (the 0.2 point sits below
        // 30 dB); the controller should land near 0.25.
        let s = k.best_static.as_ref().unwrap();
        assert_eq!(s.ratio, 0.5);
        assert!(k.adaptive.energy_j < s.energy_j);
        assert!(k.adaptive.final_ratio < 0.45, "ratio {}", k.adaptive.final_ratio);
    }

    #[test]
    fn flat_curve_is_exempt_from_dominance() {
        let q = |_: f64| 42.0;
        let curve = synth_curve("flat", 50, q);
        let model = EnergyModel::xeon_e5_2695v3();
        let k = run_adaptive(
            &curve,
            Objective::Quality(QualityTarget::AtLeast(99.0)), // unreachable
            MAX_STEPS,
            &model,
            synth_eval(50, q),
        );
        assert!(!k.non_flat);
        assert!(!k.target_met);
        assert!(k.dominates, "flat kernels pass vacuously");
    }

    #[test]
    fn unreachable_target_on_varying_curve_fails_the_gate() {
        let q = |r: f64| 20.0 + 10.0 * r; // tops out at 30 dB
        let curve = synth_curve("capped", 50, q);
        let model = EnergyModel::xeon_e5_2695v3();
        let k = run_adaptive(
            &curve,
            Objective::Quality(QualityTarget::AtLeast(60.0)),
            MAX_STEPS,
            &model,
            synth_eval(50, q),
        );
        assert!(k.non_flat);
        assert!(!k.target_met);
        assert!(!k.dominates);
        assert!(k.best_static.is_none(), "no static point meets 60 dB");
    }

    #[test]
    fn default_objectives_cover_the_five_kernels() {
        for name in ["sobel", "dct", "fisheye", "nbody", "blackscholes"] {
            assert!(default_objective(name).is_some(), "{name}");
        }
        assert!(default_objective("mandelbrot").is_none());
    }

    #[test]
    fn report_serialises_with_schema_tag() {
        let q = |r: f64| 20.0 + 40.0 * r;
        let curve = synth_curve("ramp", 40, q);
        let model = EnergyModel::xeon_e5_2695v3();
        let k = run_adaptive(
            &curve,
            Objective::Quality(QualityTarget::AtLeast(30.0)),
            MAX_STEPS,
            &model,
            synth_eval(40, q),
        );
        let report = AdaptiveReport {
            schema: ADAPTIVE_SCHEMA.to_owned(),
            name: "test".to_owned(),
            git: "none".to_owned(),
            threads: 1,
            small: true,
            degraded: false,
            kernels: vec![k],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"scorpio-adaptive-v1\""));
        assert!(json.contains("\"dominates\":true"));
        let parsed = scorpio_obs::json::parse(&json).expect("round-trip");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(ADAPTIVE_SCHEMA)
        );
    }
}
