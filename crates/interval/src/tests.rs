//! Property-based tests for the enclosure (soundness) invariant.
//!
//! The fundamental theorem of interval arithmetic — for any `x ∈ [a]`,
//! `y ∈ [b]`: `f(x, y) ∈ f([a], [b])` — is exactly what makes Eq. 4–6 of
//! the paper an over-approximation of all reachable values, so we test it
//! exhaustively with random intervals and random member points.

use proptest::prelude::*;

use crate::Interval;

/// Strategy producing a finite interval plus a member point.
fn interval_with_member() -> impl Strategy<Value = (Interval, f64)> {
    (
        -1.0e6f64..1.0e6,
        0.0f64..1.0e6,
        0.0f64..=1.0, // relative position of the member point
    )
        .prop_map(|(lo, w, t)| {
            let iv = Interval::new(lo, lo + w);
            let x = lo + t * w;
            (iv, x.clamp(iv.inf(), iv.sup()))
        })
}

/// Strategy producing small intervals (|bounds| ≤ 30) for transcendentals.
fn small_interval_with_member() -> impl Strategy<Value = (Interval, f64)> {
    (
        -30.0f64..30.0,
        0.0f64..10.0,
        0.0f64..=1.0,
    )
        .prop_map(|(lo, w, t)| {
            let iv = Interval::new(lo, lo + w);
            let x = lo + t * w;
            (iv, x.clamp(iv.inf(), iv.sup()))
        })
}

proptest! {
    #[test]
    fn add_encloses((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        prop_assert!((a + b).contains(x + y));
    }

    #[test]
    fn sub_encloses((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        prop_assert!((a - b).contains(x - y));
    }

    #[test]
    fn mul_encloses((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        prop_assert!((a * b).contains(x * y));
    }

    #[test]
    fn div_encloses((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        let q = a / b;
        if y != 0.0 && !q.is_empty() {
            prop_assert!(q.contains(x / y), "({a}) / ({b}) = {q} missing {x}/{y} = {}", x / y);
        }
    }

    #[test]
    fn neg_encloses((a, x) in interval_with_member()) {
        prop_assert!((-a).contains(-x));
    }

    #[test]
    fn abs_sqr_sqrt_enclose((a, x) in interval_with_member()) {
        prop_assert!(a.abs().contains(x.abs()));
        // sqr may overflow to inf for 1e6 bounds; still must enclose.
        prop_assert!(a.sqr().contains(x * x));
        if x >= 0.0 {
            prop_assert!(a.sqrt().contains(x.sqrt()));
        }
    }

    #[test]
    fn transcendentals_enclose((a, x) in small_interval_with_member()) {
        prop_assert!(a.sin().contains(x.sin()), "sin {a} {x}");
        prop_assert!(a.cos().contains(x.cos()), "cos {a} {x}");
        prop_assert!(a.exp().contains(x.exp()), "exp {a} {x}");
        prop_assert!(a.atan().contains(x.atan()), "atan {a} {x}");
        prop_assert!(a.tanh().contains(x.tanh()), "tanh {a} {x}");
        prop_assert!(a.sinh().contains(x.sinh()), "sinh {a} {x}");
        prop_assert!(a.cosh().contains(x.cosh()), "cosh {a} {x}");
        prop_assert!(a.erf().contains(crate::real::erf(x)), "erf {a} {x}");
        prop_assert!(a.cndf().contains(crate::real::cndf(x)), "cndf {a} {x}");
        if x > 0.0 {
            prop_assert!(a.ln().contains(x.ln()), "ln {a} {x}");
        }
    }

    #[test]
    fn powi_encloses((a, x) in small_interval_with_member(), n in -5i32..8) {
        let p = a.powi(n);
        let v = x.powi(n);
        if v.is_finite() && !p.is_empty() {
            prop_assert!(p.contains(v), "({a})^{n} = {p} missing {x}^{n} = {v}");
        }
    }

    #[test]
    fn powf_encloses((a, x) in small_interval_with_member(), e in -3.0f64..3.0) {
        if x > 0.0 && a.inf() > 0.0 {
            let p = a.powf(e);
            let v = x.powf(e);
            prop_assert!(p.contains(v), "({a})^{e} = {p} missing {v}");
        }
    }

    #[test]
    fn hypot_encloses((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        prop_assert!(a.hypot(b).contains(x.hypot(y)));
    }

    #[test]
    fn min_max_enclose((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        prop_assert!(a.min(b).contains(x.min(y)));
        prop_assert!(a.max(b).contains(x.max(y)));
    }

    #[test]
    fn hull_contains_both(( a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        let h = a.hull(b);
        prop_assert!(h.contains(x) && h.contains(y));
        prop_assert!(h.encloses(a) && h.encloses(b));
    }

    #[test]
    fn intersection_is_subset((a, _x) in interval_with_member(), (b, _y) in interval_with_member()) {
        let i = a.intersection(b);
        if !i.is_empty() {
            prop_assert!(a.encloses(i) && b.encloses(i));
        }
    }

    #[test]
    fn width_is_nonnegative((a, _x) in interval_with_member()) {
        prop_assert!(a.width() >= 0.0);
        prop_assert!(a.rad() * 2.0 <= a.width() * (1.0 + 1e-15));
    }

    #[test]
    fn mid_is_member((a, _x) in interval_with_member()) {
        prop_assert!(a.contains(a.mid()));
    }

    #[test]
    fn comparisons_sound((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
        // A certain answer must agree with every sampled pair.
        if let Some(ans) = a.certainly_lt(b).to_bool() {
            prop_assert_eq!(ans, x < y);
        }
        if let Some(ans) = a.certainly_le(b).to_bool() {
            prop_assert_eq!(ans, x <= y);
        }
    }

    #[test]
    fn bisect_halves_cover((a, x) in interval_with_member()) {
        if let Some(h) = a.bisect() {
            prop_assert!(h.lower.contains(x) || h.upper.contains(x));
        }
    }

    #[test]
    fn split_covers((a, x) in interval_with_member(), n in 1usize..10) {
        let parts = a.split(n);
        prop_assert!(parts.iter().any(|p| p.contains(x)));
    }

    #[test]
    fn clamp_encloses((a, x) in interval_with_member()) {
        let c = a.clamp_to(0.0, 255.0);
        prop_assert!(c.contains(x.clamp(0.0, 255.0)));
    }

    #[test]
    fn atan2_encloses((a, y) in small_interval_with_member(), (b, x) in small_interval_with_member()) {
        if !(y == 0.0 && x == 0.0) {
            let e = a.atan2(b);
            prop_assert!(e.contains(y.atan2(x)), "atan2({y},{x}) ∉ {e}");
        }
    }

    #[test]
    fn mul_add_encloses((a, x) in small_interval_with_member(),
                        (b, y) in small_interval_with_member(),
                        (c, z) in small_interval_with_member()) {
        prop_assert!(a.mul_add(b, c).contains(x.mul_add(y, z)));
    }

    #[test]
    fn exp_m1_ln_1p_enclose((a, x) in small_interval_with_member()) {
        prop_assert!(a.exp_m1().contains(x.exp_m1()));
        if x > -1.0 {
            prop_assert!(a.ln_1p().contains(x.ln_1p()));
        }
    }

    #[test]
    fn ibox_subdivide_covers_member(
        (a, x) in interval_with_member(),
        (b, y) in interval_with_member(),
        k in 1usize..4,
    ) {
        let bx = crate::IBox::new(vec![a, b]);
        let parts = bx.subdivide(k);
        prop_assert_eq!(parts.len(), k * k);
        prop_assert!(parts.iter().any(|p| p.contains(&[x, y])));
        // Bisection covers too.
        if let Some((lo, hi)) = bx.bisect_widest() {
            prop_assert!(lo.contains(&[x, y]) || hi.contains(&[x, y]));
        }
    }
}

/// Exact-sign sweep for the exact-zero rule of [`crate::rounding`].
///
/// Every bound of `+ − × ÷`, `sqr` and `sqrt` that comes out as exactly
/// `0.0` (unwidened) must be a true bound of the real result set. The
/// oracle reasons about exact signs, never about rounded values: a
/// product of nonzero factors has sign `sx·sy` even when it underflows, a
/// quotient with a nonzero dividend is nonzero (it only tends to zero
/// over an infinite divisor), and a sum is zero only when `x == -y`.
///
/// The containment oracle of `scorpio_audit` cannot catch a zero that
/// should have widened: its reference is f64 evaluation at concrete
/// points, which underflows the same way (`1e-200 * 1e-200 == 0.0` in
/// f64, and `[0, 0]` "contains" it). The endpoint pool mixes ±0,
/// subnormals, `1e-200…1e-150`, ordinary and huge normals and ±∞, so
/// underflowing corners are common.
#[test]
fn exact_zero_bounds_are_true_bounds() {
    /// SplitMix64 (Steele, Lea, Flood 2014): a fixed seed gives the same
    /// operand set on every run.
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn endpoint(&mut self) -> f64 {
            let mag = match self.next() % 6 {
                0 => 0.0,
                1 => f64::from_bits(1 + self.next() % ((1u64 << 52) - 1)),
                2 => 10f64.powf(-200.0 + 50.0 * self.unit()),
                3 => 10f64.powf(-3.0 + 6.0 * self.unit()),
                4 => 10f64.powf(150.0 + 50.0 * self.unit()),
                _ => f64::INFINITY,
            };
            if self.next() & 1 == 0 {
                mag
            } else {
                -mag
            }
        }
        /// A non-empty interval with at least one real member.
        fn interval(&mut self) -> Interval {
            loop {
                let (x, y) = (self.endpoint(), self.endpoint());
                let (lo, hi) = (x.min(y), x.max(y));
                if !(lo == hi && lo.is_infinite()) {
                    return Interval::new(lo, hi);
                }
            }
        }
    }

    fn sign(x: f64) -> i8 {
        if x > 0.0 {
            1
        } else if x < 0.0 {
            -1
        } else {
            0
        }
    }
    /// Sign of the exact sum `x + y` (never rounded).
    fn sum_sign(x: f64, y: f64) -> i8 {
        if x == -y {
            0
        } else if x.abs() >= y.abs() {
            sign(x)
        } else {
            sign(y)
        }
    }
    /// Whether some product (or quotient) of members of `a` and nonzero
    /// members of `b` is negative / positive — exact: only signs matter.
    fn can_be_neg(a: Interval, b: Interval) -> bool {
        (a.inf() < 0.0 && b.sup() > 0.0) || (a.sup() > 0.0 && b.inf() < 0.0)
    }
    fn can_be_pos(a: Interval, b: Interval) -> bool {
        (a.sup() > 0.0 && b.sup() > 0.0) || (a.inf() < 0.0 && b.inf() < 0.0)
    }
    /// A lower bound of exactly zero needs no negative member; an upper
    /// bound of exactly zero needs no positive member.
    fn check(op: &str, a: Interval, b: Interval, r: Interval, neg: bool, pos: bool) {
        if r.is_empty() {
            return;
        }
        assert!(
            r.inf() != 0.0 || !neg,
            "{op}({a:?}, {b:?}) = {r:?}: inf 0 is not a lower bound"
        );
        assert!(
            r.sup() != 0.0 || !pos,
            "{op}({a:?}, {b:?}) = {r:?}: sup 0 is not an upper bound"
        );
    }

    let mut rng = SplitMix64(0x5eed_0017);
    let (mut exact_zero_bounds, mut underflow_widened) = (0usize, 0usize);
    for _ in 0..100_000 {
        let (a, b) = (rng.interval(), rng.interval());
        let (a0, a1, b0, b1) = (a.inf(), a.sup(), b.inf(), b.sup());
        let sums = [
            ("add", a + b, sum_sign(a0, b0) < 0, sum_sign(a1, b1) > 0),
            ("sub", a - b, sum_sign(a0, -b1) < 0, sum_sign(a1, -b0) > 0),
        ];
        let products = [("mul", a * b), ("div", a / b)];
        for (op, r, neg, pos) in sums {
            check(op, a, b, r, neg, pos);
        }
        for (op, r) in products {
            check(op, a, b, r, can_be_neg(a, b), can_be_pos(a, b));
            exact_zero_bounds += usize::from(r.inf() == 0.0) + usize::from(r.sup() == 0.0);
            underflow_widened += usize::from(can_be_pos(a, b) && r.sup() == f64::from_bits(1));
        }
        let sq = a.sqr();
        check("sqr", a, a, sq, false, a.mag() != 0.0);
        let rt = a.sqrt();
        check("sqrt", a, a, rt, false, a1 > 0.0);
    }
    // The sweep is not vacuous: it meets exact zeros and underflowed
    // corners that must (and do) widen to the smallest subnormal.
    assert!(
        exact_zero_bounds > 10_000,
        "only {exact_zero_bounds} exact-zero bounds"
    );
    assert!(
        underflow_widened > 1_000,
        "only {underflow_widened} widened underflows"
    );
}
