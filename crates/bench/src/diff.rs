//! Run-to-run comparison and the regression gate behind `scorpio_diff`.
//!
//! Every artifact the harness binaries write — QoR, adaptive, JPEG and
//! observability reports and `RUN_*.json` run manifests — carries a
//! flat `metrics` list next to its human-readable payload (see
//! [`scorpio_obs::gate`]). This module pairs a baseline's list with a
//! candidate's by metric name and judges each pair by the metric's
//! [`Better`] rule:
//!
//! * `higher` / `lower` — relative change against the threshold,
//!   direction-aware. With repeated `samples` on both sides the change
//!   must also be statistically significant (Welch's t-test, falling
//!   back to a seeded bootstrap CI when the t-test is undefined), so a
//!   timing regression has to be real, not just noisy.
//! * `either` — drift beyond the threshold in either direction gates.
//! * `exact` — any change over 1e-9 gates.
//! * `contract` — the candidate's bit must be 1, whatever the baseline
//!   says; candidate bits the baseline lacks are judged too.
//!
//! A baseline metric missing from the candidate is a regression. Under
//! `quality_only`, metrics with a time unit are skipped.
//! [`DiffReport::regressions`] drives the `--gate` exit code.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use scorpio_obs::gate::{Better, Metric};
use scorpio_obs::json::{parse, Value};

use crate::stats;

/// Bootstrap resamples used when the t-test is undefined.
const RESAMPLES: usize = 1000;
/// Bootstrap seed (verdicts are deterministic in it).
const SEED: u64 = 0x5ca1_ab1e;
/// Units of machine-dependent metrics, skipped under
/// [`DiffOptions::quality_only`].
const TIME_UNITS: [&str; 4] = ["ns", "us", "ms", "s"];

/// Knobs of one comparison.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative-change gate threshold in percent (a regression must be
    /// worse than this to fire).
    pub threshold_pct: f64,
    /// Compare only machine-independent metrics — skip every metric
    /// with a time unit so a checked-in baseline gates identically on
    /// any host.
    pub quality_only: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threshold_pct: 5.0,
            quality_only: false,
        }
    }
}

/// Verdict on one compared item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Better than baseline beyond the threshold.
    Improvement,
    /// Within the threshold (or not significant).
    Unchanged,
    /// Worse than baseline beyond the threshold (and significant where
    /// repeated samples exist).
    Regression,
}

impl Severity {
    fn tag(self) -> &'static str {
        match self {
            Severity::Improvement => "BETTER",
            Severity::Unchanged => "ok",
            Severity::Regression => "REGRESSION",
        }
    }
}

/// One compared item.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What was compared: the metric name (e.g.
    /// `"sobel @ ratio 0.5 · quality(psnr_db)"`).
    pub item: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Signed relative change in percent, oriented so **positive means
    /// worse** (direction-aware for quality metrics).
    pub worse_pct: f64,
    /// Two-sided p-value where repeated samples allowed a test.
    pub p_value: Option<f64>,
    /// The verdict.
    pub severity: Severity,
    /// Free-form annotation (which test ran, fallbacks taken…).
    pub note: String,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The `schema` tag both artifacts carry (`None` for untagged
    /// artifacts such as run manifests).
    pub schema: Option<String>,
    /// Every compared item, in baseline metric order.
    pub findings: Vec<Finding>,
    /// Non-gating caveats about the *inputs* — either side was produced
    /// by a run that dropped task events (top-level `degraded: true`),
    /// so its telemetry-derived values may be biased. Rendered
    /// prominently but never an exit-code regression by itself.
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Number of regressions found.
    pub fn regressions(&self) -> usize {
        self.count(Severity::Regression)
    }

    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Human-readable table of every finding plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let schema = self.schema.as_deref().unwrap_or("untagged");
        let _ = writeln!(
            out,
            "comparing {schema} artifacts: {} items",
            self.findings.len()
        );
        for w in &self.warnings {
            let _ = writeln!(out, "WARNING: {w}");
        }
        for f in &self.findings {
            let p = f.p_value.map(|p| format!(" p={p:.4}")).unwrap_or_default();
            let note = if f.note.is_empty() {
                String::new()
            } else {
                format!(" [{}]", f.note)
            };
            let _ = writeln!(
                out,
                "{:<12} {:<48} {:>14.6} -> {:>14.6} ({:+.2}%{p}){note}",
                f.severity.tag(),
                f.item,
                f.baseline,
                f.candidate,
                f.worse_pct,
            );
        }
        let (regs, better) = (self.regressions(), self.count(Severity::Improvement));
        let _ = writeln!(
            out,
            "summary: {regs} regression(s), {better} improvement(s), {} unchanged",
            self.findings.len() - regs - better
        );
        out
    }
}

/// Loads and parses one artifact file.
///
/// # Errors
///
/// Returns a message naming the path on I/O or JSON syntax errors.
pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
}

/// The `metrics` list of one parsed artifact.
fn metric_list(value: &Value, side: &str) -> Result<Vec<Metric>, String> {
    let list = value
        .get("metrics")
        .and_then(Value::as_arr)
        .ok_or_else(|| {
            format!("{side} has no metrics list; regenerate it with the current harness binaries")
        })?;
    list.iter()
        .enumerate()
        .map(|(i, m)| {
            Metric::from_value(m).ok_or_else(|| format!("{side} metric #{i} is malformed"))
        })
        .collect()
}

/// Compares two parsed artifacts.
///
/// # Errors
///
/// Returns a message when the `schema` tags differ or either side has
/// no well-formed `metrics` list.
pub fn diff_values(base: &Value, cand: &Value, opts: &DiffOptions) -> Result<DiffReport, String> {
    let schema = |v: &Value| v.get("schema").and_then(Value::as_str).map(str::to_owned);
    let (schema, cand_schema) = (schema(base), schema(cand));
    if schema != cand_schema {
        return Err(format!(
            "cannot compare schema {schema:?} against {cand_schema:?}"
        ));
    }
    let findings = compare(
        &metric_list(base, "baseline")?,
        &metric_list(cand, "candidate")?,
        opts,
    );
    let warnings = [("baseline", base), ("candidate", cand)]
        .into_iter()
        .filter(|(_, v)| matches!(v.get("degraded"), Some(Value::Bool(true))))
        .map(|(side, _)| {
            format!(
                "{side} is degraded (its run dropped task events; achieved-ratio \
                 and task tallies may be biased)"
            )
        })
        .collect();
    Ok(DiffReport {
        schema,
        findings,
        warnings,
    })
}

/// [`load`] + [`diff_values`] over two files.
///
/// # Errors
///
/// Propagates loading and comparison errors.
pub fn diff_files(
    baseline: &Path,
    candidate: &Path,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    diff_values(&load(baseline)?, &load(candidate)?, opts)
}

/// The one comparison: every baseline metric against its namesake in
/// the candidate (absent = regression), then the candidate's contract
/// bits the baseline does not list.
pub fn compare(base: &[Metric], cand: &[Metric], opts: &DiffOptions) -> Vec<Finding> {
    let kept = |m: &&Metric| !(opts.quality_only && TIME_UNITS.contains(&m.unit.as_str()));
    let by_name: HashMap<&str, &Metric> = cand.iter().map(|m| (m.name.as_str(), m)).collect();
    let base_names: HashSet<&str> = base.iter().map(|m| m.name.as_str()).collect();
    let mut findings: Vec<Finding> = base
        .iter()
        .filter(kept)
        .map(|b| match by_name.get(b.name.as_str()) {
            Some(c) => judge(b, c, opts),
            None => Finding {
                item: b.name.clone(),
                baseline: b.value,
                candidate: f64::NAN,
                worse_pct: 100.0,
                p_value: None,
                severity: Severity::Regression,
                note: "missing from candidate".to_owned(),
            },
        })
        .collect();
    findings.extend(
        cand.iter()
            .filter(kept)
            .filter(|c| c.better == Better::Contract && !base_names.contains(c.name.as_str()))
            .map(|c| judge(c, c, opts)),
    );
    findings
}

/// Judges one baseline/candidate pair by the baseline's rule.
fn judge(b: &Metric, c: &Metric, opts: &DiffOptions) -> Finding {
    let change = relative_pct(b.value, c.value);
    let (worse_pct, severity, note) = match b.better {
        Better::Higher => (-change, threshold_verdict(-change, opts.threshold_pct), ""),
        Better::Lower => {
            if let (Some(bs), Some(cs)) = (&b.samples, &c.samples) {
                return compare_time_samples(&b.name, bs, cs, opts);
            }
            (change, threshold_verdict(change, opts.threshold_pct), "")
        }
        Better::Either => {
            let drift = change.abs();
            let severity = if drift > opts.threshold_pct {
                Severity::Regression
            } else {
                Severity::Unchanged
            };
            (drift, severity, "")
        }
        Better::Exact if (b.value - c.value).abs() > 1e-9 => (
            change.abs(),
            Severity::Regression,
            "deterministic value changed",
        ),
        Better::Exact => (0.0, Severity::Unchanged, ""),
        Better::Contract if c.value == 1.0 => (0.0, Severity::Unchanged, ""),
        Better::Contract => (100.0, Severity::Regression, "contract violated"),
    };
    Finding {
        item: b.name.clone(),
        baseline: b.value,
        candidate: c.value,
        worse_pct,
        p_value: None,
        severity,
        note: note.to_owned(),
    }
}

/// Relative change in percent: positive = candidate larger.
fn relative_pct(base: f64, cand: f64) -> f64 {
    (cand - base) / base.abs().max(1e-12) * 100.0
}

fn threshold_verdict(worse: f64, threshold_pct: f64) -> Severity {
    if worse > threshold_pct {
        Severity::Regression
    } else if worse < -threshold_pct {
        Severity::Improvement
    } else {
        Severity::Unchanged
    }
}

/// Compares two repeated-timing sample sets: the mean change must
/// exceed the threshold *and* be statistically significant (Welch
/// p < 0.05, or — when the t-test is undefined, e.g. constant
/// samples — a bootstrap 95% CI excluding zero) to count as a
/// regression or an improvement.
fn compare_time_samples(item: &str, base: &[f64], cand: &[f64], opts: &DiffOptions) -> Finding {
    let (mb, mc) = (stats::mean(base), stats::mean(cand));
    let finding = |worse_pct, p_value, severity, note: String| Finding {
        item: item.to_owned(),
        baseline: mb,
        candidate: mc,
        worse_pct,
        p_value,
        severity,
        note,
    };
    if base.is_empty() || cand.is_empty() {
        return finding(
            0.0,
            None,
            Severity::Unchanged,
            "no timing samples".to_owned(),
        );
    }
    let worse = relative_pct(mb, mc);
    let (significant, p_value, note) = match stats::welch_t_test(base, cand) {
        Some(w) => (w.p < 0.05, Some(w.p), format!("welch df={:.1}", w.df)),
        None => match stats::bootstrap_mean_diff_ci(base, cand, RESAMPLES, SEED, 0.05) {
            Some((lo, hi)) => (
                lo > 0.0 || hi < 0.0,
                None,
                format!("bootstrap ci=[{lo:.1}, {hi:.1}]"),
            ),
            // Single constant samples on both sides: exact compare.
            None => (mb != mc, None, "single sample".to_owned()),
        },
    };
    let severity = if significant {
        threshold_verdict(worse, opts.threshold_pct)
    } else {
        Severity::Unchanged
    };
    finding(worse, p_value, severity, note)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_obs::{CounterSnapshot, PhaseNode, RunManifest};

    fn value(json: String) -> Value {
        parse(&json).expect("round-trip")
    }

    fn report(time_scale: f64, quality_delta: f64) -> Value {
        value(crate::qor::fixture(time_scale, quality_delta).to_json())
    }

    fn adaptive_report(ok: bool, degraded: bool, steps: u64) -> Value {
        value(crate::adaptive::fixture(ok, degraded, steps).to_json())
    }

    fn jpeg_report(ok: bool, psnr_delta: f64) -> Value {
        value(crate::jpeg::fixture(ok, psnr_delta).to_json())
    }

    fn diff(base: &Value, cand: &Value) -> DiffReport {
        diff_values(base, cand, &DiffOptions::default()).expect("diff")
    }

    fn regressed(d: &DiffReport, needle: &str) -> bool {
        d.findings
            .iter()
            .any(|f| f.item.contains(needle) && f.severity == Severity::Regression)
    }

    /// `metrics` with the named metric's value replaced.
    fn with_value(mut metrics: Vec<Metric>, name: &str, v: f64) -> Vec<Metric> {
        let m = metrics.iter_mut().find(|m| m.name == name).expect("metric");
        m.value = v;
        metrics
    }

    #[test]
    fn self_comparison_is_clean() {
        let r = report(1.0, 0.0);
        let d = diff(&r, &r);
        assert_eq!(d.regressions(), 0, "{}", d.render());
    }

    #[test]
    fn injected_slowdown_gates() {
        let base = report(1.0, 0.0);
        let slow = report(1.10, 0.0); // +10% on every timing sample
        let d = diff(&base, &slow);
        assert!(d.regressions() >= 3, "{}", d.render());
        assert!(d.findings.iter().any(|f| f.item.contains("time_ns")
            && f.severity == Severity::Regression
            && f.p_value.is_some_and(|p| p < 0.05)));
    }

    #[test]
    fn slowdown_is_invisible_in_quality_only_mode() {
        let base = report(1.0, 0.0);
        let slow = report(1.10, 0.0);
        let opts = DiffOptions {
            quality_only: true,
            ..DiffOptions::default()
        };
        let d = diff_values(&base, &slow, &opts).expect("diff");
        assert_eq!(d.regressions(), 0, "{}", d.render());
        assert!(!d.findings.iter().any(|f| f.item.contains("time_ns")));
    }

    #[test]
    fn quality_drop_gates_with_metric_direction() {
        let base = report(1.0, 0.0);
        let worse = report(1.0, -10.0); // PSNR down = worse
        let d = diff(&base, &worse);
        assert!(regressed(&d, "quality"), "{}", d.render());
        // And a PSNR *increase* is an improvement, not a regression.
        let d = diff(&base, &report(1.0, 10.0));
        assert_eq!(d.regressions(), 0, "{}", d.render());
        assert!(d
            .findings
            .iter()
            .any(|f| f.severity == Severity::Improvement));
    }

    #[test]
    fn small_noise_does_not_gate() {
        let base = report(1.0, 0.0);
        // 1% timing drift, under the 5% threshold.
        let d = diff(&base, &report(1.01, 0.0));
        assert_eq!(d.regressions(), 0, "{}", d.render());
    }

    #[test]
    fn missing_kernel_is_a_regression() {
        let base = crate::qor::fixture(1.0, 0.0).metrics();
        let d = compare(&base, &[], &DiffOptions::default());
        assert_eq!(d.len(), base.len());
        assert!(d
            .iter()
            .all(|f| f.severity == Severity::Regression && f.note.contains("missing")));
    }

    #[test]
    fn qor_achieved_ratio_change_gates() {
        let base = crate::qor::fixture(1.0, 0.0).metrics();
        let cand = with_value(base.clone(), "sobel @ ratio 0.5 · achieved_ratio", 0.6);
        let d = compare(&base, &cand, &DiffOptions::default());
        assert_eq!(
            d.iter()
                .filter(|f| f.severity == Severity::Regression)
                .count(),
            1
        );
    }

    #[test]
    fn manifest_phase_slowdown_gates() {
        let mk = |wall: u64, phase: u64| {
            let node = |name: &str, children| PhaseNode {
                name: name.to_owned(),
                total_ns: phase,
                count: 1,
                children,
            };
            RunManifest {
                name: "test".to_owned(),
                git: "deadbeef".to_owned(),
                threads: 1,
                config: vec![],
                wall_clock_ns: wall,
                phase_total_ns: phase,
                phases: vec![node("analyze", vec![node("sweep", vec![])])],
                counters: vec![CounterSnapshot {
                    name: "tasks.accurate".to_owned(),
                    value: 10,
                }],
                histograms: vec![],
                task_events: vec![],
                task_events_dropped: 0,
                degraded: false,
            }
        };
        let base = value(mk(1000, 800).to_json());
        let d = diff(&base, &value(mk(1000, 1000).to_json()));
        assert_eq!(d.schema, None);
        assert!(regressed(&d, "phase analyze"), "{}", d.render());
        assert!(d.findings.iter().any(|f| f.item == "phase analyze/sweep"));
        // Self-compare is clean.
        assert_eq!(diff(&base, &base).regressions(), 0);
    }

    #[test]
    fn manifest_counter_drift_gates_both_directions() {
        let base = vec![Metric::new(
            "counter tasks.accurate",
            "count",
            Better::Either,
            100.0,
        )];
        let opts = DiffOptions::default();
        for drifted in [150.0, 50.0] {
            let cand = with_value(base.clone(), "counter tasks.accurate", drifted);
            assert_eq!(
                compare(&base, &cand, &opts)[0].severity,
                Severity::Regression
            );
        }
        assert_eq!(
            compare(&base, &base, &opts)[0].severity,
            Severity::Unchanged
        );
    }

    #[test]
    fn adaptive_self_comparison_is_clean() {
        let r = adaptive_report(true, false, 6);
        let d = diff(&r, &r);
        assert_eq!(d.regressions(), 0, "{}", d.render());
        assert!(d.warnings.is_empty());
    }

    #[test]
    fn broken_controller_contract_gates() {
        let d = diff(
            &adaptive_report(true, false, 6),
            &adaptive_report(false, false, 6),
        );
        // target_met, converged, and dominance all broke.
        assert_eq!(d.regressions(), 3, "{}", d.render());
        assert!(d.render().contains("dominates best static"));
        // One flipped bit is enough.
        let base = crate::adaptive::fixture(true, false, 6).metrics();
        let cand = with_value(base.clone(), "sobel · converged", 0.0);
        let d = compare(&base, &cand, &DiffOptions::default());
        assert_eq!(
            d.iter()
                .filter(|f| f.severity == Severity::Regression)
                .count(),
            1
        );
    }

    #[test]
    fn convergence_step_increase_gates() {
        // Both runs are deterministic, so steps gate on the plain
        // relative threshold: any extra step past 5% is a regression.
        let base = adaptive_report(true, false, 6);
        let d = diff(&base, &adaptive_report(true, false, 5));
        assert_eq!(d.regressions(), 0, "{}", d.render());
        let d = diff(&base, &adaptive_report(true, false, 20));
        assert_eq!(d.regressions(), 1, "{}", d.render());
        assert!(d.render().contains("convergence steps"));
    }

    #[test]
    fn jpeg_self_comparison_is_clean() {
        let r = jpeg_report(true, 0.0);
        let d = diff(&r, &r);
        assert_eq!(d.regressions(), 0, "{}", d.render());
    }

    #[test]
    fn broken_codec_contract_gates() {
        let d = diff(&jpeg_report(true, 0.0), &jpeg_report(false, 0.0));
        // round-trip, dominance, target_met, converged all broke.
        assert_eq!(d.regressions(), 4, "{}", d.render());
        assert!(d.render().contains("significance dominates random"));
        assert!(d.render().contains("bitstreams round-trip"));
        // A changed accurate-block tally (an `exact` metric) gates too.
        let base = crate::jpeg::fixture(true, 0.0).metrics();
        let cand = with_value(
            base.clone(),
            "scene curve @ ratio 0.5 · accurate_blocks",
            9.0,
        );
        let d = compare(&base, &cand, &DiffOptions::default());
        assert_eq!(
            d.iter()
                .filter(|f| f.severity == Severity::Regression)
                .count(),
            1
        );
    }

    #[test]
    fn jpeg_psnr_drop_gates() {
        let base = jpeg_report(true, 0.0);
        let d = diff(&base, &jpeg_report(true, -10.0));
        assert!(regressed(&d, "curve @ ratio 0 · psnr_db"), "{}", d.render());
        // A PSNR *gain* on the significance curve never gates.
        let d = diff(&base, &jpeg_report(true, 10.0));
        assert_eq!(d.regressions(), 0, "{}", d.render());
    }

    #[test]
    fn jpeg_missing_image_is_a_regression() {
        let base = crate::jpeg::fixture(true, 0.0).metrics();
        let mut cand = base.clone();
        cand.retain(|m| !m.name.starts_with("scene "));
        let d = compare(&base, &cand, &DiffOptions::default());
        assert_eq!(d.len(), base.len());
        assert!(d.iter().all(
            |f| f.severity == Severity::Regression && f.note.contains("missing from candidate")
        ));
    }

    #[test]
    fn obs_contract_bit_gates() {
        let base = crate::obs::fixture(true).metrics();
        let opts = DiffOptions::default();
        assert!(compare(&base, &base, &opts)
            .iter()
            .all(|f| f.severity == Severity::Unchanged));
        let cand = with_value(base.clone(), "contract · trace_roundtrip", 0.0);
        let d = compare(&base, &cand, &opts);
        assert_eq!(
            d.iter()
                .filter(|f| f.severity == Severity::Regression)
                .count(),
            1
        );
        // Contract bits are judged on the candidate even when the
        // baseline does not list them.
        let d = compare(&[], &crate::obs::fixture(false).metrics(), &opts);
        assert_eq!(d.len(), 4);
        assert!(d.iter().all(|f| f.severity == Severity::Regression));
    }

    #[test]
    fn degraded_inputs_surface_as_warnings() {
        let clean = adaptive_report(true, false, 6);
        let degraded = adaptive_report(true, true, 6);
        let d = diff(&clean, &degraded);
        assert_eq!(
            d.regressions(),
            0,
            "degraded warns, not gates: {}",
            d.render()
        );
        assert_eq!(d.warnings.len(), 1);
        assert!(d.render().contains("WARNING"), "{}", d.render());
        let d = diff(&degraded, &degraded);
        assert_eq!(d.warnings.len(), 2, "both sides degraded: {:?}", d.warnings);
    }

    #[test]
    fn schema_mismatch_and_missing_metrics_are_refused() {
        let opts = DiffOptions::default();
        let err = diff_values(&report(1.0, 0.0), &jpeg_report(true, 0.0), &opts).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let bare = parse(r#"{"schema":"scorpio-qor-v1"}"#).unwrap();
        let err = diff_values(&bare, &bare, &opts).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
    }
}
