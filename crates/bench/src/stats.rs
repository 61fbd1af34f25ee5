//! Repeated-sample statistics for the run-to-run regression gate:
//! Welch's unequal-variance t-test (with a real p-value via the
//! regularised incomplete beta function) and a seeded bootstrap
//! confidence interval for the difference of means.
//!
//! Everything here is deterministic — the bootstrap uses an explicit
//! SplitMix64 seed — so `scorpio_diff` verdicts are reproducible.

use scorpio_core::audit::SplitMix64;

/// Result of a Welch two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welch {
    /// The t statistic (`mean_b − mean_a` over the pooled standard
    /// error); positive when `b`'s mean is larger.
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub df: f64,
    /// Two-sided p-value of the null hypothesis "equal means".
    pub p: f64,
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased (n−1) sample variance (`NaN` for fewer than two samples).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Welch's unequal-variance t-test of "mean(a) == mean(b)".
///
/// Returns `None` when either sample has fewer than two observations,
/// or when both samples are exactly constant (zero variance): with no
/// spread there is no sampling distribution to test against — callers
/// should fall back to an exact comparison of the two constants.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<Welch> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (va, vb) = (variance(a), variance(b));
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 || !se2.is_finite() {
        return None;
    }
    let t = (mean(b) - mean(a)) / se2.sqrt();
    // Welch–Satterthwaite.
    let df = se2 * se2
        / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let p = student_t_two_sided_p(t, df);
    Some(Welch { t, df, p })
}

/// Two-sided p-value of a Student-t statistic with `df` degrees of
/// freedom: `P(|T| >= |t|) = I_{df/(df+t²)}(df/2, 1/2)`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    if df <= 0.0 {
        return 1.0;
    }
    reg_inc_beta(df / 2.0, 0.5, df / (df + t * t)).clamp(0.0, 1.0)
}

/// Natural log of the gamma function (Lanczos approximation, g=7).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, c) in COEF.iter().enumerate() {
        acc += c / (x + i as f64 + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularised incomplete beta function `I_x(a, b)` via the Lentz
/// continued fraction (Numerical Recipes §6.4).
fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // The continued fraction converges fastest for x < (a+1)/(a+b+2);
    // use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - reg_inc_beta(b, a, 1.0 - x)
    }
}

fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const EPS: f64 = 3e-16;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=200 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Percentile bootstrap confidence interval for `mean(b) − mean(a)`.
///
/// Draws `resamples` bootstrap replicates (seeded, deterministic) and
/// returns the `(alpha/2, 1 − alpha/2)` percentile interval of the
/// replicated mean difference. Returns `None` when either sample is
/// empty or `resamples == 0`.
pub fn bootstrap_mean_diff_ci(
    a: &[f64],
    b: &[f64],
    resamples: usize,
    seed: u64,
    alpha: f64,
) -> Option<(f64, f64)> {
    if a.is_empty() || b.is_empty() || resamples == 0 {
        return None;
    }
    let mut rng = SplitMix64::new(seed);
    let mut diffs = Vec::with_capacity(resamples);
    let resample_mean = |xs: &[f64], rng: &mut SplitMix64| {
        let mut sum = 0.0;
        for _ in 0..xs.len() {
            sum += xs[rng.below(xs.len())];
        }
        sum / xs.len() as f64
    };
    for _ in 0..resamples {
        let ma = resample_mean(a, &mut rng);
        let mb = resample_mean(b, &mut rng);
        diffs.push(mb - ma);
    }
    diffs.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let pick = |q: f64| {
        let idx = ((diffs.len() - 1) as f64 * q).round() as usize;
        diffs[idx.min(diffs.len() - 1)]
    };
    Some((pick(alpha / 2.0), pick(1.0 - alpha / 2.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(close(variance(&[1.0, 2.0, 3.0]), 1.0, 1e-12));
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(close(ln_gamma(1.0), 0.0, 1e-10));
        assert!(close(ln_gamma(2.0), 0.0, 1e-10));
        assert!(close(ln_gamma(5.0), 24.0f64.ln(), 1e-10));
        assert!(close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10));
    }

    #[test]
    fn t_distribution_known_quantiles() {
        // For df=10, t=2.228 is the 97.5% quantile → two-sided p ≈ 0.05.
        assert!(close(student_t_two_sided_p(2.228, 10.0), 0.05, 1e-3));
        // t=0 is no evidence at all.
        assert!(close(student_t_two_sided_p(0.0, 5.0), 1.0, 1e-12));
        // Very large t → p ≈ 0.
        assert!(student_t_two_sided_p(50.0, 10.0) < 1e-9);
    }

    #[test]
    fn welch_identical_samples_do_not_reject() {
        let a = [10.0, 11.0, 9.5, 10.5, 10.2];
        let w = welch_t_test(&a, &a).expect("testable");
        assert!(close(w.t, 0.0, 1e-12));
        assert!(close(w.p, 1.0, 1e-9));
    }

    #[test]
    fn welch_detects_a_clear_shift() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [110.0, 111.0, 109.0, 110.5, 109.5]; // +10%
        let w = welch_t_test(&a, &b).expect("testable");
        assert!(w.t > 10.0, "t = {}", w.t);
        assert!(w.p < 1e-6, "p = {}", w.p);
    }

    #[test]
    fn welch_needs_spread_and_size() {
        assert!(welch_t_test(&[1.0], &[2.0, 3.0]).is_none());
        assert!(welch_t_test(&[5.0, 5.0], &[5.0, 5.0]).is_none());
    }

    #[test]
    fn bootstrap_brackets_a_real_shift_and_is_deterministic() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2];
        let b = [110.0, 111.0, 109.0, 110.5, 109.5, 110.2];
        let ci = bootstrap_mean_diff_ci(&a, &b, 1000, 42, 0.05).expect("ci");
        assert!(ci.0 > 0.0, "CI {ci:?} must exclude zero");
        assert!(ci.0 <= 10.0 && 10.0 <= ci.1, "CI {ci:?} should bracket +10");
        let again = bootstrap_mean_diff_ci(&a, &b, 1000, 42, 0.05).expect("ci");
        assert_eq!(ci, again, "same seed must reproduce the interval");
    }

    #[test]
    fn bootstrap_identical_samples_cover_zero() {
        let a = [10.0, 10.5, 9.5, 10.1, 9.9];
        let ci = bootstrap_mean_diff_ci(&a, &a, 500, 7, 0.05).expect("ci");
        assert!(ci.0 <= 0.0 && 0.0 <= ci.1, "CI {ci:?} must cover zero");
    }
}
