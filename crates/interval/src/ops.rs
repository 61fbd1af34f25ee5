//! Arithmetic operators for [`Interval`] with outward rounding.
//!
//! The binary kernels are written once, generic over a [`Round`] policy, so
//! that the rounding ablation (`nearest` module) shares the exact same case
//! analysis as the production outward-rounded operators (products and
//! quotients pick their corners differently, see
//! [`Round::FOUR_CORNERS`]). That case analysis includes the exact-zero
//! rule of the
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
    /// Whether products and quotients take the `min`/`max` of all four
    /// corners instead of the two corners the operands' sign case names.
    /// Both give the same bound values; they can differ only in the sign
    /// of a zero bound. Outward rounding erases that sign (an exact zero
    /// becomes `+0.0`, an inexact one a subnormal), so [`Outward`] takes
    /// two corners. [`Nearest`] keeps its bounds verbatim, and the sign of
    /// a zero bound reaches the significance width `w([u]·∇[u])`, so it
    /// keeps all four.
    const FOUR_CORNERS: bool;
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
    const FOUR_CORNERS: bool = false;
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
    const FOUR_CORNERS: bool = true;
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

/// Adds; a zero bound is exact ([`sum_zero_exact`]). An empty operand
/// needs no test: its NaN bounds make both sums NaN, which the rounding
/// keeps and [`Interval::make`] turns into [`Interval::EMPTY`].
#[inline]
pub(crate) fn add_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    Interval::make(
        R::lo(a.inf() + b.inf(), sum_zero_exact),
        R::hi(a.sup() + b.sup(), sum_zero_exact),
    )
}

/// Subtracts; zero bounds and empty operands as in [`add_impl`].
#[inline]
pub(crate) fn sub_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    Interval::make(
        R::lo(a.inf() - b.sup(), sum_zero_exact),
        R::hi(a.sup() - b.inf(), sum_zero_exact),
    )
}

/// `x · y` with the interval convention `0 · ±∞ = 0` (NaN in IEEE
/// arithmetic).
#[inline]
fn prod(x: f64, y: f64) -> f64 {
    let p = x * y;
    if p.is_nan() {
        0.0
    } else {
        p
    }
}

/// `x / y` with the convention `±∞ / ±∞ = 0` (NaN in IEEE arithmetic).
#[inline]
fn quot(x: f64, y: f64) -> f64 {
    let q = x / y;
    if q.is_nan() {
        0.0
    } else {
        q
    }
}

/// Multiplies, treating `0 * ±∞` as `0` per interval-arithmetic
/// convention ([`prod`]).
///
/// Each bound is the corner product that the operands' sign case names
/// (each operand nonnegative, nonpositive or straddling zero); only two
/// straddling operands take a `min` and a `max` of two corners. On a
/// range of one sign the product is monotone in each factor (the
/// convention included), and round-to-nearest is monotone, so the
/// picked corner equals the `min`/`max` of all four up to the sign of a
/// zero ([`Round::FOUR_CORNERS`]).
///
/// A zero bound stays unwidened only when every corner product that
/// rounded to zero has a zero factor; one underflowed corner (a nonzero
/// real rounded to zero, e.g. `1e-200 · 1e-200`) widens both zero bounds.
/// That test looks at all four corners, and runs only for a zero bound.
#[inline]
pub(crate) fn mul_impl<R: Round>(a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    let (a0, a1, b0, b1) = (a.inf(), a.sup(), b.inf(), b.sup());
    let (lo, hi) = if R::FOUR_CORNERS {
        let (p1, p2, p3, p4) = (prod(a0, b0), prod(a0, b1), prod(a1, b0), prod(a1, b1));
        (p1.min(p2).min(p3).min(p4), p1.max(p2).max(p3).max(p4))
    } else if a0 >= 0.0 {
        if b0 >= 0.0 {
            (prod(a0, b0), prod(a1, b1))
        } else if b1 <= 0.0 {
            (prod(a1, b0), prod(a0, b1))
        } else {
            (prod(a1, b0), prod(a1, b1))
        }
    } else if a1 <= 0.0 {
        if b0 >= 0.0 {
            (prod(a0, b1), prod(a1, b0))
        } else if b1 <= 0.0 {
            (prod(a1, b1), prod(a0, b0))
        } else {
            (prod(a0, b1), prod(a0, b0))
        }
    } else if b0 >= 0.0 {
        (prod(a0, b1), prod(a1, b1))
    } else if b1 <= 0.0 {
        (prod(a1, b0), prod(a0, b0))
    } else {
        (
            prod(a0, b1).min(prod(a1, b0)),
            prod(a0, b0).max(prod(a1, b1)),
        )
    };
    let exact_zero = || {
        product_zero_exact(a0, b0, prod(a0, b0))
            && product_zero_exact(a0, b1, prod(a0, b1))
            && product_zero_exact(a1, b0, prod(a1, b0))
            && product_zero_exact(a1, b1, prod(a1, b1))
    };
    Interval::make(R::lo(lo, exact_zero), R::hi(hi, exact_zero))
}

/// Multiplies by the point `[c, c]` for a finite nonzero `c`: two corner
/// products and a select on the sign of `c` give the bounds of
/// [`mul_impl`]`(a, [c, c])` bit for bit. Its four corners are these two
/// products, each twice, so its `min`/`max` pick the same values and can
/// differ only in the sign of a zero bound, which the rounding erases:
/// an exact zero becomes `+0.0`, an inexact one a subnormal. Its
/// exact-zero test reduces to both corners, as stated here; no `0 · ∞`
/// corner arises. An empty `a` has NaN bounds, which the products and
/// [`Interval::make`] carry through to [`Interval::EMPTY`].
#[inline]
fn mul_point_impl(a: Interval, c: f64) -> Interval {
    debug_assert!(c.is_finite() && c != 0.0, "mul_point_impl: c = {c}");
    let (a0, a1) = (a.inf(), a.sup());
    let (p0, p1) = (a0 * c, a1 * c);
    let (lo, hi) = if c > 0.0 { (p0, p1) } else { (p1, p0) };
    let exact_zero = || product_zero_exact(a0, c, p0) && product_zero_exact(a1, c, p1);
    Interval::make(
        round_lo_unless_exact(lo, exact_zero),
        round_hi_unless_exact(hi, exact_zero),
    )
}

/// Divides, treating `±∞ / ±∞` as `0` ([`quot`]); if the divisor
/// straddles zero the result is the whole line (the tightest
/// single-interval enclosure of the two-piece true result).
///
/// A divisor of one sign takes the two corner quotients that the
/// dividend's sign case names (see [`mul_impl`]). A zero bound stays
/// unwidened only when every corner quotient that rounded to zero has a
/// zero dividend; that test looks at all four corners.
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
    // A divisor of one sign: each bound is the corner quotient that the
    // dividend's sign case names, as in `mul_impl`.
    let (b0, b1) = (b.inf(), b.sup());
    let (lo, hi) = if R::FOUR_CORNERS {
        let (q1, q2, q3, q4) = (quot(a0, b0), quot(a0, b1), quot(a1, b0), quot(a1, b1));
        (q1.min(q2).min(q3).min(q4), q1.max(q2).max(q3).max(q4))
    } else if b0 > 0.0 {
        if a0 >= 0.0 {
            (quot(a0, b1), quot(a1, b0))
        } else if a1 <= 0.0 {
            (quot(a0, b0), quot(a1, b1))
        } else {
            (quot(a0, b0), quot(a1, b0))
        }
    } else if a0 >= 0.0 {
        (quot(a1, b1), quot(a0, b0))
    } else if a1 <= 0.0 {
        (quot(a1, b0), quot(a0, b1))
    } else {
        (quot(a1, b1), quot(a0, b1))
    };
    let exact_zero = || {
        quotient_zero_exact(a0, quot(a0, b0))
            && quotient_zero_exact(a0, quot(a0, b1))
            && quotient_zero_exact(a1, quot(a1, b0))
            && quotient_zero_exact(a1, quot(a1, b1))
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

impl Interval {
    /// `self · [c, c]`: the product with the point interval of `c`, bit
    /// for bit equal to `self * Interval::point(c)` and to
    /// `Interval::point(c) * self`, but for a finite nonzero `c` computed
    /// from two products instead of four. `c` of `±0`, `±∞` or NaN takes
    /// the generic product.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let a = Interval::new(-1.0, 3.0);
    /// assert_eq!(a.mul_point(-0.5), a * Interval::point(-0.5));
    /// assert_eq!(a.mul_point(0.0), a * Interval::point(0.0));
    /// ```
    #[inline]
    pub fn mul_point(self, c: f64) -> Interval {
        let point = Interval::point(c);
        audited!(
            "mul",
            self,
            point,
            if c.is_finite() && c != 0.0 {
                mul_point_impl(self, c)
            } else {
                mul_impl::<Outward>(self, point)
            },
            mul_impl::<Nearest>(self, point)
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

impl Mul<f64> for Interval {
    type Output = Interval;
    #[inline]
    fn mul(self, rhs: f64) -> Interval {
        self.mul_point(rhs)
    }
}

impl Mul<Interval> for f64 {
    type Output = Interval;
    #[inline]
    fn mul(self, rhs: Interval) -> Interval {
        rhs.mul_point(self)
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

scalar_rhs_ops!(Add::add, Sub::sub, Div::div);

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
                    *self = self.$base(rhs);
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
