//! Closed-loop adaptive ratio control: the online counterpart of
//! [`calibrate_ratio`](super::calibrate_ratio).
//!
//! The calibrator bisects offline against a repeatable evaluation; this
//! module closes the loop at run time instead, in the direction of the
//! follow-on runtime work (Vassiliadis et al., arXiv 1412.5150) and "On
//! Dynamic Precision Scaling" (arXiv 1709.06160): a per-task-group
//! [`AdaptiveController`] that nudges the `taskwait` ratio after every
//! execution toward an explicit [`Objective`] — a quality floor at
//! minimum energy, or an energy budget at maximum quality.
//!
//! # Control law
//!
//! The controller is a damped proportional step rule over a shrinking
//! **feasibility bracket**, built to be safe on the shapes real QoR
//! curves take (monotone ramps, hard steps from task quantisation, flat
//! plateaus) and on broken quality signals:
//!
//! * **Bracketing.** Every finite observation classifies the current
//!   ratio as *met* or *missed* and tightens a `[lo, hi]` bracket
//!   (quality is monotone in the ratio by construction of the
//!   significance-ranked schedule). Steps never leave the bracket, so
//!   the controller cannot oscillate across the whole knob range; a
//!   contradicting observation (phase change, noise) deterministically
//!   re-opens the bracket on the contradicted side instead of
//!   panicking or diverging.
//! * **Damped steps with hysteresis.** Step size is proportional to the
//!   normalised target error, clamped to `[min_step, max_step]`, and a
//!   damping factor halves on every direction flip (and slowly
//!   recovers), so noisy plateaus shrink the step instead of exciting
//!   it. Observations that meet the target within the `hysteresis`
//!   band hold the ratio rather than chasing the last decimal.
//! * **Clamped output.** The ratio is always in `[0, 1]`; a target
//!   unreachable even at ratio 1 (or trivially met at 0) pins the knob
//!   at the endpoint and converges there rather than winding up.
//! * **NaN immunity.** Non-finite quality signals are counted
//!   ([`AdaptiveController::non_finite_observations`]), reported as
//!   [`DecisionKind::NonFinite`], and otherwise ignored — they move
//!   nothing.
//!
//! Convergence is declared (and latched, until the live signal clearly
//! contradicts it) when the bracket is narrower than `ratio_tolerance`
//! with the target met, or after `settle` consecutive holds.
//!
//! Every decision is appended to an in-memory log **and** emitted as a
//! `ratio_decision` task event (see `scorpio-obs`), so controller
//! behaviour lands on the same timeline as the `taskwait`s it governed and is
//! exported in run manifests. The whole law is deterministic: no
//! clocks, no randomness — a fixed observation sequence always yields
//! the same decision sequence.
//!
//! # Example
//!
//! ```
//! use scorpio_runtime::controller::adaptive::{AdaptiveController, Objective};
//! use scorpio_runtime::controller::QualityTarget;
//!
//! let mut ctrl = AdaptiveController::new(
//!     "sobel",
//!     Objective::Quality(QualityTarget::AtLeast(30.0)),
//! );
//! // Seed from an offline QoR curve (ratio, PSNR) — the prior puts the
//! // first probe near the interpolated crossing instead of at 0.5.
//! ctrl.seed_from_curve(&[(0.0, 20.0), (0.5, 28.0), (1.0, 44.0)]);
//! // Closed loop: run at the commanded ratio, feed back the measured
//! // quality (the synthetic app here ramps 20 → 44 dB).
//! for _ in 0..32 {
//!     let quality = 20.0 + 24.0 * ctrl.ratio();
//!     ctrl.observe(quality);
//!     if ctrl.converged() {
//!         break;
//!     }
//! }
//! assert!(ctrl.converged());
//! assert!((20.0 + 24.0 * ctrl.ratio()) >= 30.0 - 1e-9);
//! ```

use std::fmt;

use super::QualityTarget;
use crate::task::ExecutionStats;

/// What the controller steers toward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Meet a quality target at minimum energy: the controller seeks
    /// the **lowest** ratio whose quality satisfies the target.
    Quality(QualityTarget),
    /// Stay under an energy budget (same units as the observed signal,
    /// e.g. modelled Joules) at maximum quality: the controller seeks
    /// the **highest** ratio whose energy stays within the budget.
    EnergyBudget(f64),
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Quality(t) => write!(f, "quality {t}"),
            Objective::EnergyBudget(b) => write!(f, "energy ≤ {b} J"),
        }
    }
}

/// Tuning knobs of the control law. [`AdaptiveConfig::default`] is the
/// configuration every harness uses; the fields exist for tests and for
/// callers with unusually cheap or expensive evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Proportional gain on the normalised target error.
    pub gain: f64,
    /// Relative error band (on the met side) inside which the ratio is
    /// held instead of stepped.
    pub hysteresis: f64,
    /// Smallest nonzero step (keeps progress on shallow slopes).
    pub min_step: f64,
    /// Largest single step (bounds overshoot on steep slopes).
    pub max_step: f64,
    /// Bracket width below which (with the target met) convergence is
    /// declared.
    pub ratio_tolerance: f64,
    /// Consecutive held observations after which convergence is
    /// declared even with a wide bracket (flat/plateau curves).
    pub settle: u32,
    /// Ratio commanded before any observation or seeding.
    pub initial_ratio: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            gain: 0.5,
            hysteresis: 0.05,
            min_step: 0.01,
            max_step: 0.25,
            ratio_tolerance: 0.02,
            settle: 2,
            initial_ratio: 0.5,
        }
    }
}

/// What the controller did with one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionKind {
    /// The ratio moved.
    Stepped,
    /// The ratio was held (in-band, or pinned by the bracket/endpoints).
    Held,
    /// The signal was non-finite and was discarded.
    NonFinite,
    /// This observation latched convergence.
    Converged,
}

impl DecisionKind {
    /// Stable lowercase name (matches the obs event encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Stepped => "stepped",
            DecisionKind::Held => "held",
            DecisionKind::NonFinite => "non_finite",
            DecisionKind::Converged => "converged",
        }
    }

    fn class(self) -> scorpio_obs::DecisionClass {
        match self {
            DecisionKind::Stepped => scorpio_obs::DecisionClass::Stepped,
            DecisionKind::Held => scorpio_obs::DecisionClass::Held,
            DecisionKind::NonFinite => scorpio_obs::DecisionClass::NonFinite,
            DecisionKind::Converged => scorpio_obs::DecisionClass::Converged,
        }
    }
}

/// One entry of the controller's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioDecision {
    /// 0-based observation index.
    pub step: u64,
    /// Ratio in force when the observation arrived.
    pub ratio_before: f64,
    /// Ratio after the decision.
    pub ratio_after: f64,
    /// The raw observed signal (NaN preserved for non-finite entries).
    pub signal: f64,
    /// `accurate / total` of the most recent recorded execution, if
    /// [`AdaptiveController::record_execution`] was called.
    pub achieved_ratio: Option<f64>,
    /// What happened.
    pub kind: DecisionKind,
}

/// Closed-loop controller for one task group's `taskwait` ratio.
///
/// Drive it with the two-phase pattern (see
/// [`TaskGroup::taskwait_adaptive`](crate::TaskGroup::taskwait_adaptive)):
///
/// 1. execute the group at [`AdaptiveController::ratio`] (which also
///    [records](AdaptiveController::record_execution) the achieved
///    schedule), then
/// 2. measure (or cheaply proxy) the output quality and feed it to
///    [`AdaptiveController::observe`] — `observe` *is* the probe hook:
///    anything that returns an `f64` correlated with output quality
///    (full PSNR, a sampled-pixel PSNR, a residual norm) closes the
///    loop.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    label: String,
    objective: Objective,
    cfg: AdaptiveConfig,
    /// Internal knob in *met-increases-with-u* orientation: `u = ratio`
    /// for quality objectives, `u = 1 − ratio` for energy budgets.
    u: f64,
    /// Highest u observed missing the objective (bracket floor).
    lo: f64,
    /// Lowest u observed meeting the objective (bracket ceiling).
    hi: f64,
    /// Whether `lo` comes from a live observation (vs the initial 0).
    lo_observed: bool,
    /// Whether `hi` comes from a live observation (vs the initial 1).
    hi_observed: bool,
    damping: f64,
    last_direction: f64,
    settled: u32,
    steps: u64,
    non_finite: u64,
    converged: bool,
    converged_at: Option<u64>,
    last_achieved: Option<f64>,
    decisions: Vec<RatioDecision>,
}

impl AdaptiveController {
    /// Creates a controller with the [default](AdaptiveConfig::default)
    /// configuration. The label names the task group in emitted
    /// `ratio_decision` events.
    pub fn new(label: impl Into<String>, objective: Objective) -> AdaptiveController {
        AdaptiveController::with_config(label, objective, AdaptiveConfig::default())
    }

    /// Creates a controller with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if any step/tolerance knob is non-finite or out of its
    /// documented range.
    pub fn with_config(
        label: impl Into<String>,
        objective: Objective,
        cfg: AdaptiveConfig,
    ) -> AdaptiveController {
        assert!(
            cfg.gain.is_finite() && cfg.gain > 0.0,
            "gain must be positive and finite"
        );
        assert!(
            cfg.hysteresis.is_finite() && cfg.hysteresis >= 0.0,
            "hysteresis must be non-negative and finite"
        );
        assert!(
            cfg.min_step.is_finite() && cfg.min_step > 0.0 && cfg.min_step <= cfg.max_step,
            "need 0 < min_step <= max_step"
        );
        assert!(
            cfg.max_step.is_finite() && cfg.max_step <= 1.0,
            "max_step must be finite and at most 1"
        );
        assert!(
            cfg.ratio_tolerance.is_finite() && cfg.ratio_tolerance > 0.0,
            "ratio_tolerance must be positive and finite"
        );
        assert!(cfg.settle >= 1, "settle must be at least 1");
        assert!(
            (0.0..=1.0).contains(&cfg.initial_ratio),
            "initial_ratio must be within [0, 1]"
        );
        let met_at_high = matches!(objective, Objective::Quality(_));
        let u = if met_at_high {
            cfg.initial_ratio
        } else {
            1.0 - cfg.initial_ratio
        };
        AdaptiveController {
            label: label.into(),
            objective,
            cfg,
            u,
            lo: 0.0,
            hi: 1.0,
            lo_observed: false,
            hi_observed: false,
            damping: 1.0,
            last_direction: 0.0,
            settled: 0,
            steps: 0,
            non_finite: 0,
            converged: false,
            converged_at: None,
            last_achieved: None,
            decisions: Vec::new(),
        }
    }

    /// `ratio → u` for this objective's orientation (metness is
    /// non-decreasing in `u`). The transform is its own inverse.
    fn to_u(&self, ratio: f64) -> f64 {
        match self.objective {
            Objective::Quality(_) => ratio,
            Objective::EnergyBudget(_) => 1.0 - ratio,
        }
    }

    /// Normalised objective error: positive ⇒ missed (need more `u`),
    /// negative ⇒ met with margin `-e`.
    fn error(&self, signal: f64) -> f64 {
        let (reference, raw) = match self.objective {
            Objective::Quality(QualityTarget::AtLeast(t)) => (t, t - signal),
            Objective::Quality(QualityTarget::AtMost(t)) => (t, signal - t),
            Objective::EnergyBudget(b) => (b, signal - b),
        };
        raw / reference.abs().max(1e-9)
    }

    /// The task-group label decisions are emitted under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The objective being steered toward.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The ratio to command on the next `taskwait`. Always in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        self.to_u(self.u)
    }

    /// `true` once convergence is latched (it unlatches only when a
    /// later observation clearly contradicts the converged operating
    /// point — a phase change).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The observation index at which convergence latched, if it has.
    pub fn converged_at(&self) -> Option<u64> {
        self.converged_at
    }

    /// Number of observations processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of non-finite observations discarded so far.
    pub fn non_finite_observations(&self) -> u64 {
        self.non_finite
    }

    /// The full decision log, in observation order.
    pub fn decisions(&self) -> &[RatioDecision] {
        &self.decisions
    }

    /// Seeds the starting ratio from an offline QoR prior: `(ratio,
    /// signal)` points, e.g. one kernel's curve out of `BENCH_qor.json`.
    /// The seed is the inverse-interpolated cheapest point meeting the
    /// objective (plus a `min_step` safety margin on the met side);
    /// non-finite prior points are skipped. The feasibility bracket is
    /// deliberately *not* tightened — the prior may come from another
    /// workload size, so only live feedback narrows it.
    pub fn seed_from_curve(&mut self, curve: &[(f64, f64)]) {
        let mut pts: Vec<(f64, f64)> = curve
            .iter()
            .filter(|(r, s)| r.is_finite() && s.is_finite() && (0.0..=1.0).contains(r))
            .map(|&(r, s)| (self.to_u(r), s))
            .collect();
        if pts.is_empty() {
            return;
        }
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let met = |s: f64| self.error(s) <= 0.0;
        let first_met = pts.iter().position(|&(_, s)| met(s));
        let seed_u = match first_met {
            None => 1.0,
            Some(0) => 0.0,
            Some(i) => {
                let (u0, s0) = pts[i - 1];
                let (u1, s1) = pts[i];
                // Interpolate the error zero-crossing between the last
                // missed and first met prior points.
                let e0 = self.error(s0);
                let e1 = self.error(s1);
                let t = if (e0 - e1).abs() > 1e-12 {
                    (e0 / (e0 - e1)).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                u0 + t * (u1 - u0)
            }
        };
        self.u = (seed_u + self.cfg.min_step).clamp(0.0, 1.0);
    }

    /// Records the schedule one `taskwait` actually delivered; the
    /// achieved accurate fraction is attached to the next decision (and
    /// its manifest event) so requested-vs-achieved drift is visible in
    /// the log.
    pub fn record_execution(&mut self, stats: &ExecutionStats) {
        let total = stats.total();
        if total > 0 {
            self.last_achieved = Some(stats.accurate as f64 / total as f64);
        }
    }

    /// Feeds back one quality (or energy) observation measured at the
    /// currently commanded ratio and advances the control law. Returns
    /// the decision taken; the same record is appended to
    /// [`decisions`](AdaptiveController::decisions) and emitted as a
    /// `ratio_decision` event when tracing is enabled.
    pub fn observe(&mut self, signal: f64) -> RatioDecision {
        let step_idx = self.steps;
        self.steps += 1;
        let before = self.ratio();

        let kind = if !signal.is_finite() {
            // NaN/∞ must not steer the loop: count, report, hold.
            self.non_finite += 1;
            DecisionKind::NonFinite
        } else {
            self.advance(signal)
        };

        let decision = RatioDecision {
            step: step_idx,
            ratio_before: before,
            ratio_after: self.ratio(),
            signal,
            achieved_ratio: self.last_achieved,
            kind,
        };
        scorpio_obs::ratio_decision_event(
            &self.label,
            decision.step,
            decision.ratio_before,
            decision.ratio_after,
            decision.signal,
            kind.class(),
        );
        self.decisions.push(decision.clone());
        decision
    }

    /// The control law proper, for a finite signal. Returns what
    /// happened to the ratio.
    fn advance(&mut self, signal: f64) -> DecisionKind {
        let u = self.u;
        let e = self.error(signal);
        let met = e <= 0.0;

        // Tighten (or, on contradiction, re-open) the feasibility
        // bracket. Monotonicity gives: met at u ⇒ met everywhere above,
        // missed at u ⇒ missed everywhere below.
        if met {
            if u <= self.lo {
                // Contradicts an earlier "missed" at or above u: a
                // phase change made the objective easier. Re-open the
                // floor so the controller can walk down again.
                self.lo = (u - self.cfg.max_step).max(0.0);
                self.lo_observed = false;
            }
            self.hi = self.hi.min(u);
            self.hi_observed = true;
        } else {
            if u >= self.hi {
                // Contradicts an earlier "met" at or below u: the
                // objective got harder. Re-open the ceiling.
                self.hi = (u + self.cfg.max_step).min(1.0);
                self.hi_observed = false;
            }
            self.lo = self.lo.max(u);
            self.lo_observed = true;
        }

        let in_band = met && -e <= self.cfg.hysteresis;
        let width_ok = (self.hi - self.lo) <= self.cfg.ratio_tolerance;
        // Met inside the hysteresis band, or met with the bracket
        // already narrower than the tolerance (there is provably
        // nothing usefully cheaper): hold — stepping out of a met
        // point the bracket has pinned down would only bounce back.
        let kind = if in_band || (met && width_ok) {
            self.settled += 1;
            DecisionKind::Held
        } else {
            // Out of band: step toward the boundary, damped and
            // bracket-clamped.
            let direction = if met { -1.0 } else { 1.0 };
            if self.last_direction != 0.0 && direction != self.last_direction {
                self.damping = (self.damping * 0.5).max(1.0 / 16.0);
            } else {
                self.damping = (self.damping * 1.5).min(1.0);
            }
            self.last_direction = direction;
            let magnitude = (self.cfg.gain * self.damping * e.abs())
                .clamp(self.cfg.min_step, self.cfg.max_step);
            let mut next = (u + direction * magnitude)
                .clamp(0.0, 1.0)
                .clamp(self.lo.min(self.hi), self.hi);
            // A proportional step that lands back on an already-probed
            // bracket end would ping-pong forever on hard step curves;
            // once both ends are live observations, probe the interior
            // midpoint instead (bisection), halving the bracket.
            let width = self.hi - self.lo;
            if self.lo_observed
                && self.hi_observed
                && width > self.cfg.ratio_tolerance
                && (next <= self.lo + 1e-12 || next >= self.hi - 1e-12)
            {
                next = 0.5 * (self.lo + self.hi);
            }
            if (next - u).abs() < 1e-12 {
                // Pinned by the bracket or a [0, 1] endpoint (e.g. the
                // target is unreachable even at ratio 1).
                self.settled += 1;
                DecisionKind::Held
            } else {
                self.u = next;
                self.settled = 0;
                DecisionKind::Stepped
            }
        };

        let clearly_out = !met || -e > self.cfg.hysteresis;
        if self.converged && clearly_out && kind == DecisionKind::Stepped {
            // Phase change: the latched operating point no longer
            // holds and the law actually moved. Re-adapt.
            self.converged = false;
            self.converged_at = None;
            self.damping = 1.0;
            return kind;
        }
        if !self.converged
            && ((met && width_ok)
                || (kind == DecisionKind::Held && self.settled >= self.cfg.settle))
        {
            self.converged = true;
            self.converged_at = Some(self.steps - 1);
            return DecisionKind::Converged;
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality_ctrl(target: f64) -> AdaptiveController {
        AdaptiveController::new("test", Objective::Quality(QualityTarget::AtLeast(target)))
    }

    /// Drives the loop against a deterministic quality function until
    /// convergence (or `max` steps) and returns the step count.
    fn drive(ctrl: &mut AdaptiveController, mut quality: impl FnMut(f64, u64) -> f64, max: u64) -> u64 {
        for i in 0..max {
            let q = quality(ctrl.ratio(), i);
            ctrl.observe(q);
            if ctrl.converged() {
                return i + 1;
            }
        }
        max
    }

    #[test]
    fn converges_on_monotone_ramp() {
        // PSNR ramps 20 → 60 dB; target ≥ 30 crosses at ratio 0.25.
        let mut c = quality_ctrl(30.0);
        let steps = drive(&mut c, |r, _| 20.0 + 40.0 * r, 64);
        assert!(c.converged(), "no convergence in {steps} steps");
        let q = 20.0 + 40.0 * c.ratio();
        assert!(q >= 30.0 - 1e-9, "target missed at {q}");
        // Minimum energy: it should not sit far above the crossing.
        assert!(c.ratio() <= 0.25 + 0.2, "wasteful ratio {}", c.ratio());
        assert!(steps <= 32, "took {steps} steps");
    }

    #[test]
    fn converges_on_step_curve_without_oscillating() {
        // Hard step at 0.6 — the shape task quantisation produces.
        let mut c = quality_ctrl(50.0);
        let steps = drive(&mut c, |r, _| if r >= 0.6 { 100.0 } else { 0.0 }, 64);
        assert!(c.converged(), "no convergence in {steps} steps");
        assert!(c.ratio() >= 0.6 - 1e-9, "below the step: {}", c.ratio());
        assert!(c.ratio() <= 0.7, "overshoot persisted: {}", c.ratio());
        // Once converged, further identical feedback never moves it.
        let settled = c.ratio();
        for _ in 0..8 {
            let q = if c.ratio() >= 0.6 { 100.0 } else { 0.0 };
            let d = c.observe(q);
            assert_ne!(d.kind, DecisionKind::Stepped, "oscillated after latch");
        }
        assert_eq!(c.ratio(), settled);
    }

    #[test]
    fn hysteresis_tames_noisy_non_monotone_quality() {
        // Deterministic "noise": ±1.5 dB triangle wave on top of the
        // ramp, non-monotone in both ratio and time.
        let noise = |i: u64| match i % 4 {
            0 => 1.5,
            1 => -1.5,
            2 => 0.75,
            _ => -0.75,
        };
        let mut c = quality_ctrl(30.0);
        drive(&mut c, |r, i| 20.0 + 40.0 * r + noise(i), 64);
        // The loop must stay sane: clamped ratio, and an operating
        // point in the neighbourhood of the true crossing (0.25).
        assert!((0.0..=1.0).contains(&c.ratio()));
        assert!(
            (c.ratio() - 0.25).abs() <= 0.25,
            "ran away to {}",
            c.ratio()
        );
        // Damping must have shrunk steps: the last few decisions are
        // small or holds.
        let tail = &c.decisions()[c.decisions().len().saturating_sub(4)..];
        for d in tail {
            assert!(
                (d.ratio_after - d.ratio_before).abs() <= AdaptiveConfig::default().max_step / 2.0,
                "late step too large: {d:?}"
            );
        }
    }

    #[test]
    fn unreachable_target_pins_at_one_and_converges() {
        let mut c = quality_ctrl(50.0);
        let steps = drive(&mut c, |_, _| 10.0, 64);
        assert_eq!(c.ratio(), 1.0, "must pin at the accurate endpoint");
        assert!(c.converged(), "no convergence in {steps} steps");
    }

    #[test]
    fn trivially_met_target_pins_at_zero_and_converges() {
        let mut c = quality_ctrl(50.0);
        let steps = drive(&mut c, |_, _| 1000.0, 64);
        assert_eq!(c.ratio(), 0.0, "must pin at the cheapest endpoint");
        assert!(c.converged(), "no convergence in {steps} steps");
    }

    #[test]
    fn decision_sequence_is_deterministic() {
        let run = || {
            let mut c = quality_ctrl(30.0);
            c.seed_from_curve(&[(0.0, 20.0), (0.5, 40.0), (1.0, 60.0)]);
            let quality = |r: f64, i: u64| 20.0 + 40.0 * r + if i.is_multiple_of(2) { 0.5 } else { -0.5 };
            drive(&mut c, quality, 48);
            c.decisions().to_vec()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same event stream must give same decisions");
    }

    #[test]
    fn nan_signals_are_counted_and_move_nothing() {
        let mut c = quality_ctrl(30.0);
        let mut i = 0u64;
        // Every third observation is NaN.
        let steps = drive(
            &mut c,
            move |r, _| {
                i += 1;
                if i.is_multiple_of(3) {
                    f64::NAN
                } else {
                    20.0 + 40.0 * r
                }
            },
            96,
        );
        assert!(c.converged(), "no convergence in {steps} steps");
        assert!(c.non_finite_observations() > 0);
        for d in c.decisions() {
            if d.signal.is_nan() {
                assert_eq!(d.kind, DecisionKind::NonFinite);
                assert_eq!(d.ratio_before, d.ratio_after, "NaN moved the ratio");
            }
        }
        assert!(20.0 + 40.0 * c.ratio() >= 30.0 - 1e-9);
    }

    #[test]
    fn energy_budget_seeks_highest_affordable_ratio() {
        // Energy rises 1 → 10 J with ratio; budget 5.5 J ⇒ the best
        // feasible ratio is 0.5.
        let mut c = AdaptiveController::new("budget", Objective::EnergyBudget(5.5));
        let steps = drive(&mut c, |r, _| 1.0 + 9.0 * r, 64);
        assert!(c.converged(), "no convergence in {steps} steps");
        let energy = 1.0 + 9.0 * c.ratio();
        assert!(energy <= 5.5 + 1e-9, "over budget: {energy}");
        // Maximum quality within budget: not far below the boundary.
        assert!(c.ratio() >= 0.5 - 0.25, "too conservative: {}", c.ratio());
    }

    #[test]
    fn seeding_starts_near_the_interpolated_crossing() {
        let mut c = quality_ctrl(45.0);
        c.seed_from_curve(&[(0.0, 20.0), (0.5, 30.0), (1.0, 60.0)]);
        // 45 dB crosses between 0.5 (30 dB) and 1.0 (60 dB) at 0.75.
        assert!(
            (c.ratio() - 0.75).abs() <= 0.05,
            "seed {} not near 0.75",
            c.ratio()
        );
        // Non-finite prior points are ignored rather than poisoning it.
        let mut d = quality_ctrl(45.0);
        d.seed_from_curve(&[(0.0, f64::NAN), (f64::NAN, 50.0)]);
        assert_eq!(d.ratio(), AdaptiveConfig::default().initial_ratio);
    }

    #[test]
    fn phase_change_unlatches_and_readapts() {
        let mut c = quality_ctrl(30.0);
        drive(&mut c, |r, _| 20.0 + 40.0 * r, 64);
        assert!(c.converged());
        let easy_ratio = c.ratio();
        // The workload gets harder: quality drops 15 dB everywhere.
        let steps = drive(&mut c, |r, _| 5.0 + 40.0 * r, 64);
        assert!(c.converged(), "no re-convergence in {steps} steps");
        assert!(
            c.ratio() > easy_ratio,
            "must move up after the phase change ({} ≤ {easy_ratio})",
            c.ratio()
        );
        assert!(5.0 + 40.0 * c.ratio() >= 30.0 - 1e-9);
    }

    #[test]
    fn achieved_ratio_lands_in_the_decision_log() {
        let mut c = quality_ctrl(30.0);
        let stats = ExecutionStats {
            accurate: 3,
            approximate: 1,
            dropped: 0,
            accurate_ops: 30,
            approx_ops: 1,
        };
        c.record_execution(&stats);
        let d = c.observe(40.0);
        assert_eq!(d.achieved_ratio, Some(0.75));
    }

    #[test]
    fn config_validation_panics_on_bad_knobs() {
        for cfg in [
            AdaptiveConfig {
                min_step: 0.0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                max_step: f64::NAN,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                initial_ratio: 1.5,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                settle: 0,
                ..AdaptiveConfig::default()
            },
        ] {
            let result = std::panic::catch_unwind(|| {
                AdaptiveController::with_config(
                    "bad",
                    Objective::Quality(QualityTarget::AtLeast(1.0)),
                    cfg,
                )
            });
            assert!(result.is_err(), "config {cfg:?} must be rejected");
        }
    }
}
