//! The [`Scalar`] abstraction: value types a [`Tape`](crate::Tape) can
//! record over.
//!
//! Two implementations are provided:
//!
//! * `f64` — classical point-valued algorithmic differentiation.
//! * [`Interval`] — the interval AD of §2.1 of the paper: values are
//!   enclosures over a whole input box, partial derivatives are interval
//!   enclosures of the true derivative range (Eq. 10).

use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Neg, Sub};

use scorpio_interval::{real, Interval, Trichotomy};

/// A numeric value type over which elementary operations and their local
/// partial derivatives can be evaluated.
///
/// The trait collects exactly the elementary functions `φ_j` the paper's
/// three-part evaluation procedure supports (arithmetic plus C++ intrinsics,
/// §2.1), together with the derivative helpers the tape needs when
/// recording:
///
/// * `*_deriv` / `*_partials` methods return (enclosures of) the local
///   partial derivatives of the non-smooth or multi-argument operations.
/// * [`Scalar::width`] is the `w(·)` of the significance definition
///   (Eq. 11); it is identically zero for `f64`.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Embeds a point value.
    fn from_f64(x: f64) -> Self;

    /// The additive identity.
    #[inline]
    fn zero() -> Self {
        Self::from_f64(0.0)
    }

    /// The multiplicative identity.
    #[inline]
    fn one() -> Self {
        Self::from_f64(1.0)
    }

    /// Interval width `w([u])`; `0` for point scalars.
    fn width(self) -> f64;

    /// A representative point value (midpoint for intervals).
    fn midpoint(self) -> f64;

    /// Largest absolute member value.
    fn mag(self) -> f64;

    /// `true` if the value is the additive identity (used to skip adjoint
    /// propagation work for zero adjoints).
    fn is_zero(self) -> bool;

    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Tangent.
    fn tan(self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Square.
    fn sqr(self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// Integer power (with `x⁰ = 1`).
    fn powi(self, n: i32) -> Self;
    /// Real power.
    fn powf(self, p: f64) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Arc-tangent.
    fn atan(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Hyperbolic sine.
    fn sinh(self) -> Self;
    /// Hyperbolic cosine.
    fn cosh(self) -> Self;
    /// Error function.
    fn erf(self) -> Self;
    /// Standard-normal CDF.
    fn cndf(self) -> Self;
    /// Euclidean norm `√(x² + y²)`.
    fn hypot(self, other: Self) -> Self;
    /// Elementwise minimum.
    fn min_val(self, other: Self) -> Self;
    /// Elementwise maximum.
    fn max_val(self, other: Self) -> Self;

    /// (Enclosure of the) derivative of `|x|`: `sign(x)`, and `[-1, 1]`
    /// for an interval straddling zero.
    fn abs_deriv(self) -> Self;

    /// Local partials of `min(a, b)` with respect to `(a, b)`.
    fn min_partials(self, other: Self) -> (Self, Self);

    /// Local partials of `max(a, b)` with respect to `(a, b)`.
    fn max_partials(self, other: Self) -> (Self, Self);

    /// Local partials of `hypot(a, b)` given the already-computed result
    /// `value = hypot(a, b)`; each partial is bounded by `[-1, 1]`.
    fn hypot_partials(self, other: Self, value: Self) -> (Self, Self);

    /// `point · self`, where `point` is a point value of `c` (such as
    /// `Self::from_f64(c)`, `Self::one()` or `-Self::one()`), bit for bit.
    /// The default is that product; a type may compute it from `c` alone
    /// when that gives the same bits more cheaply. Lane replay multiplies
    /// by `±1` in every linear reverse step and by the constant of every
    /// [`Scalar::nonzero_point`] product through this.
    #[inline]
    fn mul_point(self, point: Self, c: f64) -> Self {
        let _ = c;
        point * self
    }

    /// `Some(c)` if `self` is the point value of a finite nonzero `c` for
    /// which [`Scalar::mul_point`] is cheaper than the generic product:
    /// then `Self::from_f64(c)` is `self` bit for bit, and for every `x`,
    /// `x * self`, `self * x` and `x.mul_point(self, c)` are the same
    /// bits. Compiling a trace rewrites a product with such a constant
    /// into a point product ([`crate::CompiledTape::compile`]). The
    /// default is `None`: no rewrite.
    #[inline]
    fn nonzero_point(self) -> Option<f64> {
        None
    }
}

impl Scalar for f64 {
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn width(self) -> f64 {
        0.0
    }
    #[inline]
    fn midpoint(self) -> f64 {
        self
    }
    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == 0.0
    }
    #[inline]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline]
    fn tan(self) -> Self {
        f64::tan(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn sqr(self) -> Self {
        self * self
    }
    #[inline]
    fn recip(self) -> Self {
        f64::recip(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f64::powi(self, n)
    }
    #[inline]
    fn powf(self, p: f64) -> Self {
        f64::powf(self, p)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn atan(self) -> Self {
        f64::atan(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn sinh(self) -> Self {
        f64::sinh(self)
    }
    #[inline]
    fn cosh(self) -> Self {
        f64::cosh(self)
    }
    #[inline]
    fn erf(self) -> Self {
        real::erf(self)
    }
    #[inline]
    fn cndf(self) -> Self {
        real::cndf(self)
    }
    #[inline]
    fn hypot(self, other: Self) -> Self {
        f64::hypot(self, other)
    }
    #[inline]
    fn min_val(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn max_val(self, other: Self) -> Self {
        f64::max(self, other)
    }

    #[inline]
    fn abs_deriv(self) -> Self {
        if self > 0.0 {
            1.0
        } else if self < 0.0 {
            -1.0
        } else {
            0.0
        }
    }

    #[inline]
    fn min_partials(self, other: Self) -> (Self, Self) {
        if self <= other {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    }

    #[inline]
    fn max_partials(self, other: Self) -> (Self, Self) {
        if self >= other {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    }

    #[inline]
    fn hypot_partials(self, other: Self, value: Self) -> (Self, Self) {
        if value == 0.0 {
            (0.0, 0.0)
        } else {
            (self / value, other / value)
        }
    }
}

impl Scalar for Interval {
    #[inline]
    fn from_f64(x: f64) -> Self {
        Interval::point(x)
    }
    /// [`Interval::mul_point`]: two corner products instead of four.
    #[inline]
    fn mul_point(self, _point: Self, c: f64) -> Self {
        Interval::mul_point(self, c)
    }
    #[inline]
    fn nonzero_point(self) -> Option<f64> {
        let c = self.inf();
        (self.is_point() && c.is_finite() && c != 0.0).then_some(c)
    }
    #[inline]
    fn width(self) -> f64 {
        Interval::width(&self)
    }
    #[inline]
    fn midpoint(self) -> f64 {
        self.mid()
    }
    #[inline]
    fn mag(self) -> f64 {
        Interval::mag(&self)
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == Interval::ZERO
    }
    #[inline]
    fn sin(self) -> Self {
        Interval::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        Interval::cos(self)
    }
    #[inline]
    fn tan(self) -> Self {
        Interval::tan(self)
    }
    #[inline]
    fn exp(self) -> Self {
        Interval::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        Interval::ln(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Interval::sqrt(self)
    }
    #[inline]
    fn sqr(self) -> Self {
        Interval::sqr(self)
    }
    #[inline]
    fn recip(self) -> Self {
        Interval::recip(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        Interval::powi(self, n)
    }
    #[inline]
    fn powf(self, p: f64) -> Self {
        Interval::powf(self, p)
    }
    #[inline]
    fn abs(self) -> Self {
        Interval::abs(self)
    }
    #[inline]
    fn atan(self) -> Self {
        Interval::atan(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        Interval::tanh(self)
    }
    #[inline]
    fn sinh(self) -> Self {
        Interval::sinh(self)
    }
    #[inline]
    fn cosh(self) -> Self {
        Interval::cosh(self)
    }
    #[inline]
    fn erf(self) -> Self {
        Interval::erf(self)
    }
    #[inline]
    fn cndf(self) -> Self {
        Interval::cndf(self)
    }
    #[inline]
    fn hypot(self, other: Self) -> Self {
        Interval::hypot(self, other)
    }
    #[inline]
    fn min_val(self, other: Self) -> Self {
        Interval::min(self, other)
    }
    #[inline]
    fn max_val(self, other: Self) -> Self {
        Interval::max(self, other)
    }

    #[inline]
    fn abs_deriv(self) -> Self {
        // EMPTY must stay absorbing: the NaN comparisons below would
        // otherwise both fail and leak the straddling case `[-1, 1]`.
        if self.is_empty() {
            Interval::EMPTY
        } else if self.inf() > 0.0 {
            Interval::ONE
        } else if self.sup() < 0.0 {
            -Interval::ONE
        } else {
            Interval::new(-1.0, 1.0)
        }
    }

    #[inline]
    fn min_partials(self, other: Self) -> (Self, Self) {
        if self.is_empty() || other.is_empty() {
            return (Interval::EMPTY, Interval::EMPTY);
        }
        match self.certainly_le(other) {
            Trichotomy::True => (Interval::ONE, Interval::ZERO),
            Trichotomy::False => (Interval::ZERO, Interval::ONE),
            Trichotomy::Ambiguous => (Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)),
        }
    }

    #[inline]
    fn max_partials(self, other: Self) -> (Self, Self) {
        if self.is_empty() || other.is_empty() {
            return (Interval::EMPTY, Interval::EMPTY);
        }
        match self.certainly_ge(other) {
            Trichotomy::True => (Interval::ONE, Interval::ZERO),
            Trichotomy::False => (Interval::ZERO, Interval::ONE),
            Trichotomy::Ambiguous => (Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)),
        }
    }

    #[inline]
    fn hypot_partials(self, other: Self, value: Self) -> (Self, Self) {
        if self.is_empty() || other.is_empty() || value.is_empty() {
            return (Interval::EMPTY, Interval::EMPTY);
        }
        // ∂h/∂a = a/h ∈ [-1, 1] always; intersect to avoid the blow-up when
        // the result interval touches zero.
        let unit = Interval::new(-1.0, 1.0);
        let pa = (self / value).intersection(unit);
        let pb = (other / value).intersection(unit);
        let fix = |p: Interval| if p.is_empty() { unit } else { p };
        (fix(pa), fix(pb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_scalar_basics() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(Scalar::width(3.0), 0.0);
        assert_eq!(Scalar::midpoint(3.0), 3.0);
        assert!(Scalar::is_zero(0.0));
        assert!(!Scalar::is_zero(1e-300));
    }

    #[test]
    fn interval_scalar_basics() {
        let x = Interval::new(1.0, 3.0);
        assert_eq!(Scalar::width(x), 2.0);
        assert_eq!(Scalar::midpoint(x), 2.0);
        assert!(Scalar::is_zero(Interval::ZERO));
        assert!(!Scalar::is_zero(Interval::new(0.0, 1.0)));
    }

    #[test]
    fn abs_deriv_cases() {
        assert_eq!(Scalar::abs_deriv(2.0), 1.0);
        assert_eq!(Scalar::abs_deriv(-2.0), -1.0);
        assert_eq!(Scalar::abs_deriv(0.0), 0.0);
        assert_eq!(Interval::new(1.0, 2.0).abs_deriv(), Interval::ONE);
        assert_eq!(Interval::new(-2.0, -1.0).abs_deriv(), -Interval::ONE);
        assert_eq!(Interval::new(-1.0, 2.0).abs_deriv(), Interval::new(-1.0, 1.0));
    }

    #[test]
    fn min_max_partials_sum_to_one_for_certain_cases() {
        let (pa, pb) = Scalar::min_partials(1.0, 2.0);
        assert_eq!((pa, pb), (1.0, 0.0));
        let (pa, pb) = Interval::new(0.0, 1.0).min_partials(Interval::new(2.0, 3.0));
        assert_eq!((pa, pb), (Interval::ONE, Interval::ZERO));
        let (pa, pb) = Interval::new(0.0, 3.0).min_partials(Interval::new(2.0, 4.0));
        assert_eq!(pa, Interval::new(0.0, 1.0));
        assert_eq!(pb, Interval::new(0.0, 1.0));
    }

    /// Regression: the derivative helpers must absorb EMPTY. Before the
    /// fix, NaN bound comparisons fell through to the "straddling" /
    /// "ambiguous" branches and an empty enclosure silently acquired the
    /// non-empty partials `[-1, 1]` / `[0, 1]`, letting a downstream
    /// adjoint pretend a value existed where interval arithmetic had
    /// proven none does.
    #[test]
    fn empty_is_absorbing_through_derivative_helpers() {
        let e = Interval::EMPTY;
        let x = Interval::new(-1.0, 2.0);

        assert!(Scalar::abs_deriv(e).is_empty());

        let (pa, pb) = e.min_partials(x);
        assert!(pa.is_empty() && pb.is_empty());
        let (pa, pb) = x.min_partials(e);
        assert!(pa.is_empty() && pb.is_empty());

        let (pa, pb) = e.max_partials(x);
        assert!(pa.is_empty() && pb.is_empty());
        let (pa, pb) = x.max_partials(e);
        assert!(pa.is_empty() && pb.is_empty());

        let (pa, pb) = Scalar::hypot_partials(e, x, Scalar::hypot(e, x));
        assert!(pa.is_empty() && pb.is_empty());
    }

    #[test]
    fn hypot_partials_bounded() {
        let a = Interval::new(-1.0, 1.0);
        let b = Interval::new(-1.0, 1.0);
        let v = a.hypot(b);
        let (pa, pb) = a.hypot_partials(b, v);
        assert!(Interval::new(-1.0, 1.0).encloses(pa));
        assert!(Interval::new(-1.0, 1.0).encloses(pb));

        let (pa, pb) = Scalar::hypot_partials(3.0, 4.0, 5.0);
        assert!((pa - 0.6).abs() < 1e-15);
        assert!((pb - 0.8).abs() < 1e-15);
        assert_eq!(Scalar::hypot_partials(0.0, 0.0, 0.0), (0.0, 0.0));
    }
}
