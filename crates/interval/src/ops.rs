//! Arithmetic operators for [`Interval`] with outward rounding.
//!
//! The binary kernels are written once, generic over a [`Round`] policy, so
//! that the rounding ablation (`nearest` module) shares the exact same case
//! analysis as the production outward-rounded operators. That case
//! analysis includes the exact-zero rule of the
//! [`rounding`](crate::rounding) module: each kernel tells the policy when
//! a bound of `0.0` is the exact result, and [`Outward`] then leaves it
//! unwidened.

use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::interval::Interval;
use crate::rounding::{round_hi_unless_exact, round_lo_unless_exact};

/// Rounding policy for the arithmetic kernels.
///
/// This trait is sealed within the crate: the only implementations are
/// [`Outward`] (production) and [`Nearest`] (ablation baseline).
pub(crate) trait Round: Copy {
    /// Adjusts a computed lower bound in the safe direction;
    /// `exact_zero` is asked only when `x == 0.0` and says whether that
    /// zero is exact.
    fn lo(x: f64, exact_zero: impl FnOnce() -> bool) -> f64;
    /// Adjusts a computed upper bound in the safe direction (same
    /// `exact_zero` contract as [`Round::lo`]).
    fn hi(x: f64, exact_zero: impl FnOnce() -> bool) -> f64;
}

/// Outward rounding: lower bounds are nudged down one ULP, upper bounds up,
/// except a bound the kernel proves to be exactly zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outward;

impl Round for Outward {
    #[inline]
    fn lo(x: f64, exact_zero: impl FnOnce() -> bool) -> f64 {
        round_lo_unless_exact(x, exact_zero)
    }
    #[inline]
    fn hi(x: f64, exact_zero: impl FnOnce() -> bool) -> f64 {
        round_hi_unless_exact(x, exact_zero)
    }
}

/// Round-to-nearest: bounds taken verbatim (enclosure NOT guaranteed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Nearest;

impl Round for Nearest {
    #[inline]
    fn lo(x: f64, _exact_zero: impl FnOnce() -> bool) -> f64 {
        x
    }
    #[inline]
    fn hi(x: f64, _exact_zero: impl FnOnce() -> bool) -> f64 {
        x
    }
}

/// A round-to-nearest sum that is zero is exact: under gradual underflow
/// `x + y` rounds to zero only when `x == -y`.
#[inline]
fn sum_zero_exact() -> bool {
    true
}

/// `true` unless the corner product `p = x·y` is a zero that underflowed:
/// a zero product is exact only when a factor is zero (which covers the
/// `0 · ∞ = 0` convention).
#[inline]
fn product_zero_exact(x: f64, y: f64, p: f64) -> bool {
    p != 0.0 || x == 0.0 || y == 0.0
}

/// `true` unless the corner quotient `q = x/y` is a zero that did not
/// come from a zero dividend (an underflow, or a finite `x` over `±∞`).
#[inline]
fn quotient_zero_exact(x: f64, q: f64) -> bool {
    q != 0.0 || x == 0.0
}

/// Adds; a zero bound is exact ([`sum_zero_exact`]).
#[inline]
pub(crate) fn add_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    Interval::make(
        R::lo(a.inf() + b.inf(), sum_zero_exact),
        R::hi(a.sup() + b.sup(), sum_zero_exact),
    )
}

/// Subtracts; a zero bound is exact, as for [`add_impl`].
#[inline]
pub(crate) fn sub_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    Interval::make(
        R::lo(a.inf() - b.sup(), sum_zero_exact),
        R::hi(a.sup() - b.inf(), sum_zero_exact),
    )
}

/// Multiplies with the standard 4-product rule, treating `0 * ±∞` (which is
/// NaN in IEEE arithmetic) as `0` per interval-arithmetic convention.
///
/// A zero bound stays unwidened only when every corner product that
/// rounded to zero has a zero factor; one underflowed corner (a nonzero
/// real rounded to zero, e.g. `1e-200 · 1e-200`) widens both zero bounds.
#[inline]
pub(crate) fn mul_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    #[inline]
    fn prod(x: f64, y: f64) -> f64 {
        let p = x * y;
        if p.is_nan() {
            // One factor was 0 and the other ±∞: by convention 0 · ∞ = 0.
            0.0
        } else {
            p
        }
    }
    let (a0, a1, b0, b1) = (a.inf(), a.sup(), b.inf(), b.sup());
    let p1 = prod(a0, b0);
    let p2 = prod(a0, b1);
    let p3 = prod(a1, b0);
    let p4 = prod(a1, b1);
    let lo = p1.min(p2).min(p3).min(p4);
    let hi = p1.max(p2).max(p3).max(p4);
    let exact_zero = || {
        product_zero_exact(a0, b0, p1)
            && product_zero_exact(a0, b1, p2)
            && product_zero_exact(a1, b0, p3)
            && product_zero_exact(a1, b1, p4)
    };
    Interval::make(R::lo(lo, exact_zero), R::hi(hi, exact_zero))
}

/// Divides; if the divisor straddles zero the result is the whole line
/// (the tightest single-interval enclosure of the two-piece true result).
///
/// A zero bound stays unwidened only when every corner quotient that
/// rounded to zero has a zero dividend.
#[inline]
pub(crate) fn div_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    let (a0, a1) = (a.inf(), a.sup());
    if b.inf() <= 0.0 && b.sup() >= 0.0 {
        if b.inf() == 0.0 && b.sup() == 0.0 {
            // Division by the point zero: undefined everywhere.
            return Interval::EMPTY;
        }
        // The half-line cases divide by the nonzero endpoint `d` only.
        let d = if b.inf() == 0.0 {
            b.sup()
        } else if b.sup() == 0.0 {
            b.inf()
        } else {
            return Interval::ENTIRE;
        };
        let q1 = a0 / d;
        let q2 = a1 / d;
        // `true` when the quotients head to +∞ as the divisor nears zero.
        let towards_pos_inf = if a1 <= 0.0 {
            d < 0.0
        } else if a0 >= 0.0 {
            d > 0.0
        } else {
            return Interval::ENTIRE;
        };
        let (lo, hi) = if towards_pos_inf {
            (q1.min(q2), f64::INFINITY)
        } else {
            (f64::NEG_INFINITY, q1.max(q2))
        };
        let exact_zero = || quotient_zero_exact(a0, q1) && quotient_zero_exact(a1, q2);
        return Interval::make(R::lo(lo, exact_zero), R::hi(hi, exact_zero));
    }
    #[inline]
    fn quot(x: f64, y: f64) -> f64 {
        let q = x / y;
        if q.is_nan() {
            0.0
        } else {
            q
        }
    }
    let (b0, b1) = (b.inf(), b.sup());
    let q1 = quot(a0, b0);
    let q2 = quot(a0, b1);
    let q3 = quot(a1, b0);
    let q4 = quot(a1, b1);
    let lo = q1.min(q2).min(q3).min(q4);
    let hi = q1.max(q2).max(q3).max(q4);
    let exact_zero = || {
        quotient_zero_exact(a0, q1)
            && quotient_zero_exact(a0, q2)
            && quotient_zero_exact(a1, q3)
            && quotient_zero_exact(a1, q4)
    };
    Interval::make(R::lo(lo, exact_zero), R::hi(hi, exact_zero))
}

/// Applies the differential invariant checks to a binary-operator
/// result when `audit-invariants` is on; a no-op (and fully compiled
/// out) otherwise. The `$nearest` expression is only evaluated under
/// the feature, so the production operators pay nothing.
macro_rules! audited {
    ($name:literal, $a:expr, $b:expr, $outward:expr, $nearest:expr) => {{
        let r = $outward;
        #[cfg(feature = "audit-invariants")]
        crate::audit::check_binary($name, $a, $b, r, $nearest);
        r
    }};
}

impl Add for Interval {
    type Output = Interval;
    #[inline]
    fn add(self, rhs: Interval) -> Interval {
        audited!(
            "add",
            self,
            rhs,
            add_impl::<Outward>(self, rhs),
            add_impl::<Nearest>(self, rhs)
        )
    }
}

impl Sub for Interval {
    type Output = Interval;
    #[inline]
    fn sub(self, rhs: Interval) -> Interval {
        audited!(
            "sub",
            self,
            rhs,
            sub_impl::<Outward>(self, rhs),
            sub_impl::<Nearest>(self, rhs)
        )
    }
}

impl Mul for Interval {
    type Output = Interval;
    #[inline]
    fn mul(self, rhs: Interval) -> Interval {
        audited!(
            "mul",
            self,
            rhs,
            mul_impl::<Outward>(self, rhs),
            mul_impl::<Nearest>(self, rhs)
        )
    }
}

impl Div for Interval {
    type Output = Interval;
    #[inline]
    fn div(self, rhs: Interval) -> Interval {
        audited!(
            "div",
            self,
            rhs,
            div_impl::<Outward>(self, rhs),
            div_impl::<Nearest>(self, rhs)
        )
    }
}

impl Neg for Interval {
    type Output = Interval;
    #[inline]
    fn neg(self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        // Negation is exact: no rounding adjustment needed.
        let r = Interval::make(-self.sup(), -self.inf());
        #[cfg(feature = "audit-invariants")]
        crate::audit::check_canonical("neg", r);
        r
    }
}

macro_rules! scalar_rhs_ops {
    ($($trait:ident :: $method:ident),* $(,)?) => {
        $(
            impl $trait<f64> for Interval {
                type Output = Interval;
                #[inline]
                fn $method(self, rhs: f64) -> Interval {
                    $trait::$method(self, Interval::point(rhs))
                }
            }
            impl $trait<Interval> for f64 {
                type Output = Interval;
                #[inline]
                fn $method(self, rhs: Interval) -> Interval {
                    $trait::$method(Interval::point(self), rhs)
                }
            }
        )*
    };
}

scalar_rhs_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

macro_rules! assign_ops {
    ($($trait:ident :: $method:ident => $base:ident),* $(,)?) => {
        $(
            impl $trait for Interval {
                #[inline]
                fn $method(&mut self, rhs: Interval) {
                    *self = self.$base(rhs);
                }
            }
            impl $trait<f64> for Interval {
                #[inline]
                fn $method(&mut self, rhs: f64) {
                    *self = self.$base(Interval::point(rhs));
                }
            }
        )*
    };
}

assign_ops!(
    AddAssign::add_assign => add,
    SubAssign::sub_assign => sub,
    MulAssign::mul_assign => mul,
    DivAssign::div_assign => div,
);

impl std::iter::Sum for Interval {
    fn sum<I: Iterator<Item = Interval>>(iter: I) -> Interval {
        iter.fold(Interval::ZERO, |acc, x| acc + x)
    }
}

impl std::iter::Product for Interval {
    fn product<I: Iterator<Item = Interval>>(iter: I) -> Interval {
        iter.fold(Interval::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use crate::Interval;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn add_basic() {
        let r = iv(1.0, 2.0) + iv(3.0, 4.0);
        assert!(r.contains(4.0) && r.contains(6.0));
        assert!(r.inf() >= 3.999999999 && r.sup() <= 6.000000001);
    }

    #[test]
    fn sub_anticommutes() {
        let r = iv(1.0, 2.0) - iv(0.5, 1.5);
        assert!(r.contains(-0.5) && r.contains(1.5));
    }

    #[test]
    fn mul_sign_cases() {
        // pos * pos
        assert!((iv(1.0, 2.0) * iv(3.0, 4.0)).encloses(iv(3.0, 8.0)));
        // straddle * pos
        assert!((iv(-1.0, 2.0) * iv(3.0, 4.0)).encloses(iv(-4.0, 8.0)));
        // straddle * straddle
        assert!((iv(-2.0, 3.0) * iv(-5.0, 7.0)).encloses(iv(-15.0, 21.0)));
        // neg * neg
        assert!((iv(-2.0, -1.0) * iv(-4.0, -3.0)).encloses(iv(3.0, 8.0)));
    }

    #[test]
    fn mul_zero_times_entire_is_defined() {
        let r = Interval::ZERO * Interval::ENTIRE;
        assert!(!r.is_empty());
        assert!(r.contains(0.0));
        // The `0 · ∞ = 0` convention counts as a zero factor: exact.
        assert_eq!(r, Interval::ZERO);
    }

    #[test]
    fn div_nonzero() {
        let r = iv(1.0, 2.0) / iv(4.0, 8.0);
        assert!(r.encloses(iv(0.125, 0.5)));
    }

    #[test]
    fn div_straddling_zero_is_entire() {
        assert_eq!(iv(1.0, 2.0) / iv(-1.0, 1.0), Interval::ENTIRE);
    }

    #[test]
    fn div_zero_endpoint_is_half_line() {
        let r = iv(1.0, 2.0) / iv(0.0, 4.0);
        assert_eq!(r.sup(), f64::INFINITY);
        assert!(r.inf() <= 0.25 && r.inf() > 0.0);
    }

    #[test]
    fn div_by_point_zero_is_empty() {
        assert!((iv(1.0, 2.0) / Interval::ZERO).is_empty());
    }

    #[test]
    fn neg_flips() {
        assert_eq!(-iv(1.0, 2.0), iv(-2.0, -1.0));
    }

    #[test]
    fn empty_is_absorbing() {
        assert!((Interval::EMPTY + iv(1.0, 2.0)).is_empty());
        assert!((iv(1.0, 2.0) * Interval::EMPTY).is_empty());
        assert!((-Interval::EMPTY).is_empty());
    }

    #[test]
    fn scalar_mixed_ops() {
        let x = iv(0.0, 1.0);
        assert!((x + 1.0).contains(2.0));
        assert!((2.0 * x).contains(2.0));
        assert!((1.0 - x).contains(0.0));
        assert!((x / 2.0).contains(0.5));
    }

    #[test]
    fn assign_ops_match_binary() {
        let mut a = iv(1.0, 2.0);
        a += iv(1.0, 1.0);
        assert_eq!(a, iv(1.0, 2.0) + iv(1.0, 1.0));
        a *= 2.0;
        assert_eq!(a, (iv(1.0, 2.0) + iv(1.0, 1.0)) * 2.0);
    }

    #[test]
    fn sum_and_product() {
        let xs = [iv(0.0, 1.0), iv(1.0, 2.0), iv(2.0, 3.0)];
        let s: Interval = xs.iter().copied().sum();
        assert!(s.encloses(iv(3.0, 6.0)));
        let p: Interval = xs.iter().copied().product();
        assert!(p.contains(0.0) && p.contains(6.0));
    }

    // An underflowed product or quotient is a nonzero real that rounded
    // to zero: the bound on its side must still widen past zero. Leaving
    // every `0.0` bound unwidened fails all three.
    #[test]
    fn underflowed_product_still_widens() {
        assert!((iv(1e-200, 1e-200) * iv(1e-200, 1e-200)).sup() > 0.0);
        assert!((iv(-1e-200, -1e-200) * iv(1e-200, 1e-200)).inf() < 0.0);
    }

    #[test]
    fn underflowed_quotient_still_widens() {
        assert!((iv(1e-200, 1e-200) / iv(1e200, 1e200)).sup() > 0.0);
    }

    #[test]
    fn exact_zero_bounds_stay_zero() {
        assert_eq!(Interval::ZERO * iv(1.0, 2.0), Interval::ZERO);
        assert_eq!((iv(0.0, 1.0) * iv(2.0, 3.0)).inf(), 0.0);
        assert_eq!(iv(3.0, 3.0) - iv(3.0, 3.0), Interval::ZERO);
        assert_eq!(iv(-3.0, -3.0) + iv(3.0, 3.0), Interval::ZERO);
        assert_eq!(Interval::ZERO / iv(1.0, 2.0), Interval::ZERO);
        // A zero-dividend quotient on the half-line branch is exact too.
        assert_eq!((iv(-1.0, 0.0) / iv(0.0, 2.0)).sup(), 0.0);
    }

    #[test]
    fn zero_from_a_nonzero_corner_still_widens() {
        // `1/∞` rounds to zero from a nonzero dividend: not exact.
        let r = iv(1.0, 1.0) / iv(1.0, f64::INFINITY);
        assert!(r.inf() < 0.0 && r.sup() > 1.0);
    }

    #[test]
    fn outward_rounding_widens() {
        // 0.1 + 0.2 is inexact; the enclosure must contain the true rational.
        let r = Interval::point(0.1) + Interval::point(0.2);
        assert!(r.inf() < r.sup());
        assert!(r.contains(0.1 + 0.2));
    }
}
