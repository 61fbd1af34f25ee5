//! Software directed rounding.
//!
//! Rust (and portable x86-64 code in general) performs floating-point
//! arithmetic in round-to-nearest-even mode. Interval arithmetic needs
//! *outward* rounding: lower bounds rounded towards `-∞`, upper bounds
//! towards `+∞`. Instead of touching the MXCSR control register (which is
//! undefined behaviour under the Rust abstract machine), we post-adjust each
//! computed bound by one unit in the last place in the safe direction.
//!
//! A round-to-nearest result differs from the correctly rounded directed
//! result by at most one ULP, so a single [`next_down`]/[`next_up`] step is
//! sufficient for `+`, `-`, `*`, `/` and `sqrt` (all correctly rounded by
//! IEEE 754). Library transcendentals (`sin`, `exp`, …) are not correctly
//! rounded; for those the interval kernels in this crate pad by
//! [`ULP_PAD_TRANSCENDENTAL`] steps, which covers the ≤ 1–2 ULP error bound
//! of every libm implementation in practical use.
//!
//! # Exact zero stays zero
//!
//! The one-ULP step is only needed when the round-to-nearest result may
//! differ from the exact one. A bound that is **provably exactly zero**
//! is left as `0.0` (`round_lo_unless_exact`, `round_hi_unless_exact`):
//! stepping it would turn an exact zero into the subnormal `∓4.9e-324`,
//! which then spreads through every later product and sum and makes each
//! interval operation that touches it several times slower. A zero is
//! provably exact when
//!
//! - it is a sum or difference: Rust runs with gradual underflow (FTZ/DAZ
//!   are never enabled), and the exact sum of two doubles is a multiple of
//!   the smallest subnormal, so `x ± y` rounds to zero only when it *is*
//!   zero;
//! - it is a product and every corner product that rounded to zero has an
//!   exactly zero factor (the `0 · ∞ = 0` convention counts as one); a
//!   zero from two nonzero factors is an underflow and still widens;
//! - it is a quotient and every zero corner quotient has a zero dividend;
//!   `1e-200 / 1e200` or `1 / ∞` still widen;
//! - it is `sqrt(0)`, or the upper bound of `sqr` over `[0, 0]`.
//!
//! The kernels state the condition; the check runs only on the rare branch
//! where a bound is `== 0.0`. Every other bound keeps its widening, and
//! transcendental padding is unchanged.

/// Number of ULP steps by which transcendental function results are padded
/// outward to absorb libm rounding error.
pub const ULP_PAD_TRANSCENDENTAL: u32 = 3;

/// Returns the largest `f64` strictly less than `x`.
///
/// Infinities are mapped towards the finite range one step at a time;
/// `next_down(-∞) == -∞` and NaN is propagated unchanged.
///
/// ```
/// use scorpio_interval::next_down;
/// assert!(next_down(1.0) < 1.0);
/// assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
/// ```
#[inline]
pub fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    let bits = x.to_bits();
    let next = if x > 0.0 { bits - 1 } else { bits + 1 };
    f64::from_bits(next)
}

/// Returns the smallest `f64` strictly greater than `x`.
///
/// `next_up(+∞) == +∞` and NaN is propagated unchanged.
///
/// ```
/// use scorpio_interval::next_up;
/// assert!(next_up(1.0) > 1.0);
/// assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
/// ```
#[inline]
pub fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    let next = if x > 0.0 { bits + 1 } else { bits - 1 };
    f64::from_bits(next)
}

/// Moves `x` down by `n` ULP steps (saturating at `-∞`).
#[inline]
pub fn steps_down(x: f64, n: u32) -> f64 {
    let mut v = x;
    for _ in 0..n {
        v = next_down(v);
    }
    v
}

/// Moves `x` up by `n` ULP steps (saturating at `+∞`).
#[inline]
pub fn steps_up(x: f64, n: u32) -> f64 {
    let mut v = x;
    for _ in 0..n {
        v = next_up(v);
    }
    v
}

/// Rounds the result of a correctly rounded operation down one step, unless
/// it is exactly representable-infinite (kept) — helper for lower bounds.
#[inline]
pub(crate) fn round_lo(x: f64) -> f64 {
    if x.is_infinite() {
        x
    } else {
        next_down(x)
    }
}

/// Rounds the result of a correctly rounded operation up one step — helper
/// for upper bounds.
#[inline]
pub(crate) fn round_hi(x: f64) -> f64 {
    if x.is_infinite() {
        x
    } else {
        next_up(x)
    }
}

/// [`round_lo`], except that a zero which `exact_zero` proves exact stays
/// `0.0` (see the module docs). `exact_zero` is called only when
/// `x == 0.0`.
#[inline]
pub(crate) fn round_lo_unless_exact(x: f64, exact_zero: impl FnOnce() -> bool) -> f64 {
    if x == 0.0 && exact_zero() {
        0.0
    } else {
        round_lo(x)
    }
}

/// [`round_hi`], except that a zero which `exact_zero` proves exact stays
/// `0.0` (see the module docs). `exact_zero` is called only when
/// `x == 0.0`.
#[inline]
pub(crate) fn round_hi_unless_exact(x: f64, exact_zero: impl FnOnce() -> bool) -> f64 {
    if x == 0.0 && exact_zero() {
        0.0
    } else {
        round_hi(x)
    }
}

/// Pads a transcendental lower bound outward.
#[inline]
pub(crate) fn pad_lo(x: f64) -> f64 {
    if x.is_infinite() {
        x
    } else {
        steps_down(x, ULP_PAD_TRANSCENDENTAL)
    }
}

/// Pads a transcendental upper bound outward.
#[inline]
pub(crate) fn pad_hi(x: f64) -> f64 {
    if x.is_infinite() {
        x
    } else {
        steps_up(x, ULP_PAD_TRANSCENDENTAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_up_down_are_inverse_neighbours() {
        for &x in &[1.0, -1.0, 0.5, 1e300, -1e-300, std::f64::consts::PI] {
            assert_eq!(next_down(next_up(x)), x);
            assert_eq!(next_up(next_down(x)), x);
        }
    }

    #[test]
    fn zero_crossing() {
        assert!(next_down(0.0) < 0.0);
        assert!(next_up(0.0) > 0.0);
        assert!(next_down(-0.0) < 0.0);
        assert!(next_up(-0.0) > 0.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(next_down(f64::NAN).is_nan());
        assert!(next_up(f64::NAN).is_nan());
    }

    #[test]
    fn infinities_saturate() {
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        // Stepping off the largest finite value reaches infinity.
        assert_eq!(next_up(f64::MAX), f64::INFINITY);
        assert_eq!(next_down(f64::MIN), f64::NEG_INFINITY);
    }

    #[test]
    fn steps_move_n_ulps() {
        let x = 1.0;
        assert_eq!(steps_up(x, 3), next_up(next_up(next_up(x))));
        assert_eq!(steps_down(x, 2), next_down(next_down(x)));
    }
}
