//! Elementary interval functions (the `φ_j` of Eq. 5 in the paper).
//!
//! Every function returns an enclosure of the pointwise image
//! `{ f(x) | x ∈ [self] }`. Monotone functions are evaluated at the
//! endpoints and padded outward by a few ULPs to absorb libm error
//! (see [`crate::rounding::ULP_PAD_TRANSCENDENTAL`]); periodic functions
//! additionally test for interior extrema.

use std::f64::consts::{FRAC_PI_2, PI};

use crate::interval::Interval;
use crate::real;
use crate::rounding::{pad_hi, pad_lo, round_hi_unless_exact, round_lo};

/// Decides conservatively whether some point `offset + k·period` (k ∈ ℤ)
/// lies in `[lo, hi]`. "Conservative" means: may answer `true` when the
/// point is just outside (harmless — only widens enclosures), but never
/// answers `false` when a point is inside.
fn contains_grid_point(lo: f64, hi: f64, offset: f64, period: f64) -> bool {
    debug_assert!(period > 0.0);
    if !lo.is_finite() || !hi.is_finite() {
        return true;
    }
    // Absorb the error of the argument reduction below.
    let eps = 8.0 * f64::EPSILON * (lo.abs().max(hi.abs()).max(1.0));
    let lo = lo - eps;
    let hi = hi + eps;
    let k = ((lo - offset) / period).ceil();
    offset + k * period <= hi
}

impl Interval {
    /// Absolute value: `{ |x| : x ∈ [self] }`. Exact (no rounding error).
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// assert_eq!(Interval::new(-3.0, 2.0).abs(), Interval::new(0.0, 3.0));
    /// ```
    #[inline]
    pub fn abs(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        Interval::make(self.mig(), self.mag())
    }

    /// The square `x²`, tighter than `self * self` because the two factors
    /// are correlated.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let x = Interval::new(-2.0, 1.0);
    /// assert!(x.sqr().encloses(Interval::new(0.0, 4.0)));
    /// assert!(x.sqr().inf() >= 0.0); // x*x would give −2
    /// ```
    #[inline]
    pub fn sqr(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        let lo = self.mig();
        let hi = self.mag();
        // `mag == 0` is the only exact zero square; `1e-200²` underflows.
        Interval::make(
            round_lo(lo * lo).max(0.0),
            round_hi_unless_exact(hi * hi, || hi == 0.0),
        )
    }

    /// Square root; the domain is intersected with `[0, ∞)`.
    ///
    /// Returns the empty interval if `sup < 0`.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let r = Interval::new(4.0, 9.0).sqrt();
    /// assert!(r.contains(2.0) && r.contains(3.0));
    /// ```
    #[inline]
    pub fn sqrt(self) -> Interval {
        if self.is_empty() || self.sup() < 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.inf() <= 0.0 {
            0.0
        } else {
            round_lo(self.inf().sqrt()).max(0.0)
        };
        // `sqrt` of a nonzero double is never zero, so a zero is exact.
        Interval::make(lo, round_hi_unless_exact(self.sup().sqrt(), || true))
    }

    /// Reciprocal `1/x`; the same zero-divisor rules as division apply.
    #[inline]
    pub fn recip(self) -> Interval {
        Interval::ONE / self
    }

    /// Exponential `eˣ`. Always non-negative.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let r = Interval::new(0.0, 1.0).exp();
    /// assert!(r.contains(1.0) && r.contains(std::f64::consts::E));
    /// ```
    #[inline]
    pub fn exp(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        Interval::make(pad_lo(self.inf().exp()).max(0.0), pad_hi(self.sup().exp()))
    }

    /// Base-2 exponential `2ˣ`.
    #[inline]
    pub fn exp2(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        Interval::make(
            pad_lo(self.inf().exp2()).max(0.0),
            pad_hi(self.sup().exp2()),
        )
    }

    /// Natural logarithm; the domain is intersected with `(0, ∞)`.
    ///
    /// Returns the empty interval if `sup ≤ 0`.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let r = Interval::new(1.0, std::f64::consts::E).ln();
    /// assert!(r.contains(0.0) && r.contains(1.0));
    /// ```
    #[inline]
    pub fn ln(self) -> Interval {
        if self.is_empty() || self.sup() <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.inf() <= 0.0 {
            f64::NEG_INFINITY
        } else {
            pad_lo(self.inf().ln())
        };
        Interval::make(lo, pad_hi(self.sup().ln()))
    }

    /// Base-2 logarithm with the same domain handling as [`Interval::ln`].
    #[inline]
    pub fn log2(self) -> Interval {
        if self.is_empty() || self.sup() <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.inf() <= 0.0 {
            f64::NEG_INFINITY
        } else {
            pad_lo(self.inf().log2())
        };
        Interval::make(lo, pad_hi(self.sup().log2()))
    }

    /// Base-10 logarithm with the same domain handling as [`Interval::ln`].
    #[inline]
    pub fn log10(self) -> Interval {
        if self.is_empty() || self.sup() <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.inf() <= 0.0 {
            f64::NEG_INFINITY
        } else {
            pad_lo(self.inf().log10())
        };
        Interval::make(lo, pad_hi(self.sup().log10()))
    }

    /// Sine. Interior extrema at `π/2 + 2kπ` (maxima) and `−π/2 + 2kπ`
    /// (minima) are detected conservatively.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// use std::f64::consts::PI;
    /// // Contains the maximum at π/2:
    /// let r = Interval::new(0.0, PI).sin();
    /// assert!(r.sup() >= 1.0);
    /// assert!(r.contains(0.0));
    /// ```
    pub fn sin(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        if !self.is_bounded() || self.width() >= 2.0 * PI {
            return Interval::make(-1.0, 1.0);
        }
        let (a, b) = (self.inf(), self.sup());
        let sa = a.sin();
        let sb = b.sin();
        let mut lo = pad_lo(sa.min(sb));
        let mut hi = pad_hi(sa.max(sb));
        if contains_grid_point(a, b, FRAC_PI_2, 2.0 * PI) {
            hi = 1.0;
        }
        if contains_grid_point(a, b, -FRAC_PI_2, 2.0 * PI) {
            lo = -1.0;
        }
        Interval::make(lo.max(-1.0), hi.min(1.0))
    }

    /// Cosine. Interior extrema at `2kπ` (maxima) and `π + 2kπ` (minima)
    /// are detected conservatively.
    pub fn cos(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        if !self.is_bounded() || self.width() >= 2.0 * PI {
            return Interval::make(-1.0, 1.0);
        }
        let (a, b) = (self.inf(), self.sup());
        let ca = a.cos();
        let cb = b.cos();
        let mut lo = pad_lo(ca.min(cb));
        let mut hi = pad_hi(ca.max(cb));
        if contains_grid_point(a, b, 0.0, 2.0 * PI) {
            hi = 1.0;
        }
        if contains_grid_point(a, b, PI, 2.0 * PI) {
            lo = -1.0;
        }
        Interval::make(lo.max(-1.0), hi.min(1.0))
    }

    /// Tangent. If the interval contains a pole `π/2 + kπ` the result is the
    /// whole real line.
    pub fn tan(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        if !self.is_bounded() || self.width() >= PI {
            return Interval::ENTIRE;
        }
        let (a, b) = (self.inf(), self.sup());
        if contains_grid_point(a, b, FRAC_PI_2, PI) {
            return Interval::ENTIRE;
        }
        Interval::make(pad_lo(a.tan()), pad_hi(b.tan()))
    }

    /// Arc-tangent (monotone, total).
    #[inline]
    pub fn atan(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        Interval::make(
            pad_lo(self.inf().atan()).max(-FRAC_PI_2),
            pad_hi(self.sup().atan()).min(FRAC_PI_2),
        )
    }

    /// Arc-sine; domain intersected with `[-1, 1]`, empty if disjoint.
    pub fn asin(self) -> Interval {
        let x = self.intersection(Interval::make(-1.0, 1.0));
        if x.is_empty() {
            return x;
        }
        Interval::make(pad_lo(x.inf().asin()), pad_hi(x.sup().asin()))
    }

    /// Arc-cosine; domain intersected with `[-1, 1]`, empty if disjoint.
    pub fn acos(self) -> Interval {
        let x = self.intersection(Interval::make(-1.0, 1.0));
        if x.is_empty() {
            return x;
        }
        // acos is decreasing.
        Interval::make(pad_lo(x.sup().acos()).max(0.0), pad_hi(x.inf().acos()))
    }

    /// Hyperbolic sine (monotone, total).
    #[inline]
    pub fn sinh(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        Interval::make(pad_lo(self.inf().sinh()), pad_hi(self.sup().sinh()))
    }

    /// Hyperbolic cosine (even; minimum 1 at 0).
    pub fn cosh(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        let lo = if self.contains(0.0) {
            1.0
        } else {
            pad_lo(self.mig().cosh()).max(1.0)
        };
        Interval::make(lo, pad_hi(self.mag().cosh()))
    }

    /// Hyperbolic tangent (monotone, range `(-1, 1)`).
    #[inline]
    pub fn tanh(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        Interval::make(
            pad_lo(self.inf().tanh()).max(-1.0),
            pad_hi(self.sup().tanh()).min(1.0),
        )
    }

    /// Error function (monotone, range `(-1, 1)`); see [`real::erf`].
    pub fn erf(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        let f = |x: f64| real::erf(x);
        let lo = f(self.inf());
        let hi = f(self.sup());
        let pad = |v: f64| v.abs() * real::ERF_REL_ERROR + f64::MIN_POSITIVE;
        Interval::make(
            pad_lo(lo - pad(lo)).max(-1.0),
            pad_hi(hi + pad(hi)).min(1.0),
        )
    }

    /// Complementary error function (decreasing, range `(0, 2)`).
    pub fn erfc(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        let lo = real::erfc(self.sup());
        let hi = real::erfc(self.inf());
        let pad = |v: f64| v.abs() * real::ERF_REL_ERROR + f64::MIN_POSITIVE;
        Interval::make(pad_lo(lo - pad(lo)).max(0.0), pad_hi(hi + pad(hi)).min(2.0))
    }

    /// Standard-normal CDF `Φ(x)` (monotone, range `(0, 1)`); see
    /// [`real::cndf`].
    pub fn cndf(self) -> Interval {
        if self.is_empty() {
            return self;
        }
        let lo = real::cndf(self.inf());
        let hi = real::cndf(self.sup());
        let pad = |v: f64| v.abs() * real::ERF_REL_ERROR + f64::MIN_POSITIVE;
        Interval::make(pad_lo(lo - pad(lo)).max(0.0), pad_hi(hi + pad(hi)).min(1.0))
    }

    /// Integer power `xⁿ`, with `x⁰ = [1, 1]` for every `x` (matching the
    /// `pow(x, 0) = 1` convention the paper leans on for the Maclaurin
    /// example's zero-significance first term).
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let x = Interval::new(-2.0, 3.0);
    /// assert_eq!(x.powi(0), Interval::ONE);
    /// assert!(x.powi(2).encloses(Interval::new(0.0, 9.0)));
    /// assert!(x.powi(3).encloses(Interval::new(-8.0, 27.0)));
    /// ```
    pub fn powi(self, n: i32) -> Interval {
        if self.is_empty() {
            return self;
        }
        if n == 0 {
            return Interval::ONE;
        }
        if n < 0 {
            return self.powi(-n).recip();
        }
        if n % 2 == 0 {
            let lo = self.mig();
            let hi = self.mag();
            Interval::make(pad_lo(lo.powi(n)).max(0.0), pad_hi(hi.powi(n)))
        } else {
            Interval::make(pad_lo(self.inf().powi(n)), pad_hi(self.sup().powi(n)))
        }
    }

    /// Real power `x^p` for scalar `p`, defined on `x ≥ 0` (the domain is
    /// intersected with `[0, ∞)`; empty if disjoint).
    ///
    /// For integer exponents prefer [`Interval::powi`], which also covers
    /// negative bases.
    pub fn powf(self, p: f64) -> Interval {
        if self.is_empty() || p.is_nan() {
            return Interval::EMPTY;
        }
        if p == 0.0 {
            return Interval::ONE;
        }
        let x = self.intersection(Interval::make(0.0, f64::INFINITY));
        if x.is_empty() {
            return Interval::EMPTY;
        }
        let (a, b) = (x.inf(), x.sup());
        let va = a.powf(p);
        let vb = b.powf(p);
        // x^p on [0, ∞) is monotone (increasing for p > 0, decreasing for
        // p < 0); handle 0^negative = ∞.
        let (mut lo, mut hi) = if p > 0.0 { (va, vb) } else { (vb, va) };
        if lo.is_nan() {
            lo = 0.0;
        }
        if hi.is_nan() {
            hi = f64::INFINITY;
        }
        Interval::make(pad_lo(lo).max(0.0), pad_hi(hi))
    }

    /// Euclidean norm `√(x² + y²)` of two intervals, computed tighter than
    /// composing `sqr`, `add` and `sqrt` — the dependence on each variable's
    /// magnitude is monotone.
    pub fn hypot(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        let lo = self.mig().hypot(other.mig());
        let hi = self.mag().hypot(other.mag());
        Interval::make(pad_lo(lo).max(0.0), pad_hi(hi))
    }

    /// Elementwise minimum: `{ min(x, y) }`.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let a = Interval::new(0.0, 5.0);
    /// let b = Interval::new(2.0, 3.0);
    /// assert_eq!(a.min(b), Interval::new(0.0, 3.0));
    /// ```
    #[inline]
    pub fn min(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::make(self.inf().min(other.inf()), self.sup().min(other.sup()))
    }

    /// Elementwise maximum: `{ max(x, y) }`.
    #[inline]
    pub fn max(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::make(self.inf().max(other.inf()), self.sup().max(other.sup()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn abs_cases() {
        assert_eq!(iv(1.0, 2.0).abs(), iv(1.0, 2.0));
        assert_eq!(iv(-2.0, -1.0).abs(), iv(1.0, 2.0));
        assert_eq!(iv(-1.0, 2.0).abs(), iv(0.0, 2.0));
    }

    #[test]
    fn sqr_tighter_than_mul() {
        let x = iv(-2.0, 1.0);
        assert!(x.sqr().inf() >= 0.0);
        assert!((x * x).inf() < 0.0);
        assert!((x * x).encloses(x.sqr()));
    }

    #[test]
    fn sqrt_domain() {
        assert!(iv(-4.0, -1.0).sqrt().is_empty());
        let partial = iv(-1.0, 4.0).sqrt();
        assert_eq!(partial.inf(), 0.0);
        assert!(partial.contains(2.0));
    }

    #[test]
    fn sqr_sqrt_of_zero_are_exact() {
        assert_eq!(Interval::ZERO.sqrt(), Interval::ZERO);
        assert_eq!(Interval::ZERO.sqr(), Interval::ZERO);
        assert_eq!(iv(-1.0, 0.0).sqrt(), Interval::ZERO);
    }

    #[test]
    fn underflowed_sqr_still_widens() {
        assert!(iv(1e-200, 1e-200).sqr().sup() > 0.0);
        assert!(iv(-1e-200, 0.0).sqr().sup() > 0.0);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let x = iv(0.5, 2.0);
        let r = x.exp().ln();
        assert!(r.encloses(x));
        assert!(r.width() < x.width() + 1e-12);
    }

    #[test]
    fn ln_domain() {
        assert!(iv(-2.0, -1.0).ln().is_empty());
        assert_eq!(iv(0.0, 1.0).ln().inf(), f64::NEG_INFINITY);
        assert!(iv(0.0, 1.0).ln().contains(0.0));
    }

    #[test]
    fn sin_extrema_detected() {
        let r = iv(0.0, PI).sin();
        assert_eq!(r.sup(), 1.0);
        assert!(r.inf() <= 0.0);

        let r = iv(PI, 2.0 * PI).sin();
        assert_eq!(r.inf(), -1.0);

        // Narrow interval on a monotone stretch: strictly inside (-1, 1).
        let r = iv(0.1, 0.2).sin();
        assert!(r.inf() > 0.0 && r.sup() < 0.21);
    }

    #[test]
    fn cos_extrema_detected() {
        let r = iv(-0.5, 0.5).cos();
        assert_eq!(r.sup(), 1.0);
        let r = iv(3.0, 3.3).cos(); // contains π
        assert_eq!(r.inf(), -1.0);
    }

    #[test]
    fn sin_cos_wide_interval_is_unit() {
        let wide = iv(0.0, 100.0);
        assert_eq!(wide.sin(), iv(-1.0, 1.0));
        assert_eq!(wide.cos(), iv(-1.0, 1.0));
    }

    #[test]
    fn tan_pole() {
        assert_eq!(iv(1.0, 2.0).tan(), Interval::ENTIRE); // π/2 ≈ 1.5708 inside
        let r = iv(0.1, 0.2).tan();
        assert!(r.is_bounded());
        assert!(r.contains(0.15f64.tan()));
    }

    #[test]
    fn powi_even_odd() {
        let x = iv(-2.0, 3.0);
        assert!(x.powi(2).inf() >= 0.0);
        assert!(x.powi(2).contains(9.0));
        assert!(x.powi(3).contains(-8.0) && x.powi(3).contains(27.0));
        assert_eq!(x.powi(0), Interval::ONE);
        assert_eq!(Interval::ZERO.powi(0), Interval::ONE);
    }

    #[test]
    fn powi_negative_exponent() {
        let x = iv(2.0, 4.0);
        let r = x.powi(-2);
        assert!(r.contains(1.0 / 16.0) && r.contains(0.25));
    }

    #[test]
    fn powf_monotone() {
        let x = iv(1.0, 4.0);
        assert!(x.powf(0.5).encloses(iv(1.0, 2.0)));
        assert!(x.powf(-1.0).contains(0.25));
        assert_eq!(x.powf(0.0), Interval::ONE);
    }

    #[test]
    fn powf_zero_base_negative_exponent() {
        let r = iv(0.0, 1.0).powf(-1.0);
        assert_eq!(r.sup(), f64::INFINITY);
        assert!(r.contains(1.0));
    }

    #[test]
    fn hypot_tight() {
        let r = iv(3.0, 3.0).hypot(iv(4.0, 4.0));
        assert!(r.contains(5.0));
        assert!(r.width() < 1e-12);
        // Straddling zero: mignitude is 0.
        let r = iv(-1.0, 1.0).hypot(iv(0.0, 0.0));
        assert_eq!(r.inf(), 0.0);
    }

    #[test]
    fn erf_cndf_ranges() {
        assert!(Interval::ENTIRE.tanh().encloses(iv(-1.0, 1.0)));
        let r = iv(-1.0, 1.0).erf();
        assert!(r.inf() < 0.0 && r.sup() > 0.0);
        assert!(r.encloses(iv(-0.8427, 0.8427)));
        let c = iv(0.0, 0.0).cndf();
        assert!(c.contains(0.5));
    }

    #[test]
    fn min_max_elementwise() {
        let a = iv(0.0, 5.0);
        let b = iv(2.0, 3.0);
        assert_eq!(a.min(b), iv(0.0, 3.0));
        assert_eq!(a.max(b), iv(2.0, 5.0));
    }

    #[test]
    fn trig_inverse_domains() {
        assert!(iv(2.0, 3.0).asin().is_empty());
        let r = iv(-2.0, 0.0).asin();
        assert!(r.contains(-FRAC_PI_2) && r.contains(0.0));
        let r = iv(-1.0, 1.0).acos();
        assert!(r.contains(0.0) && r.contains(PI));
    }
}
