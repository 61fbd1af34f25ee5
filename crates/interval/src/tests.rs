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

/// SplitMix64 (Steele, Lea, Flood 2014): a fixed seed gives the same
/// operand set on every run. `endpoint` mixes ±0, subnormals,
/// `1e-200…1e-150`, ordinary and huge normals and ±∞.
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

/// The stepping functions as they were written before the branch-free
/// step: explicit NaN, infinity and zero cases, then `±1` on the bit
/// pattern by sign, and the pads as loops of single steps. The oracle
/// the rounding must equal bit for bit.
mod stepwise {
    pub fn next_down(x: f64) -> f64 {
        if x.is_nan() || x == f64::NEG_INFINITY {
            return x;
        }
        if x == 0.0 {
            return -f64::from_bits(1);
        }
        let bits = x.to_bits();
        f64::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
    }

    pub fn next_up(x: f64) -> f64 {
        if x.is_nan() || x == f64::INFINITY {
            return x;
        }
        if x == 0.0 {
            return f64::from_bits(1);
        }
        let bits = x.to_bits();
        f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
    }

    pub fn steps(x: f64, n: u32, step: fn(f64) -> f64) -> f64 {
        (0..n).fold(x, |v, _| step(v))
    }

    /// Outward rounding (`n == 1`) or padding (`n == 3`): infinities
    /// kept, everything else stepped `n` times.
    pub fn outward(x: f64, n: u32, step: fn(f64) -> f64) -> f64 {
        if x.is_infinite() {
            x
        } else {
            steps(x, n, step)
        }
    }
}

/// Every class of double: both zeros, the smallest subnormals (whose
/// steps cross zero), the subnormal/normal boundary, ordinary values,
/// the largest finite values (whose steps reach the infinities), both
/// infinities and NaNs of both signs.
fn rounding_cases() -> Vec<f64> {
    let sub = f64::from_bits(1);
    let mut cases = vec![
        0.0,
        sub,
        2.0 * sub,
        3.0 * sub,
        4.0 * sub,
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        crate::next_up(f64::MIN_POSITIVE),
        0.1,
        1.0,
        1.5,
        std::f64::consts::PI,
        1e300,
        crate::next_down(crate::next_down(f64::MAX)),
        crate::next_down(f64::MAX),
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
    ];
    cases.extend(cases.clone().into_iter().map(|x| -x));
    cases
}

fn same_bits(what: &str, x: f64, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}({x:?} = {:#018x}) = {got:?}, the stepwise oracle gives {want:?}",
        x.to_bits()
    );
}

/// The branch-free rounding is the stepwise one bit for bit: the public
/// `next_*`/`steps_*` at 0–4 steps, the outward roundings and the
/// transcendental pads, on every class of double and on 200k random bit
/// patterns (NaN payloads included).
#[test]
fn branch_free_rounding_matches_stepwise_oracle() {
    use crate::rounding::{
        pad_hi, pad_lo, round_hi, round_lo, steps_down, steps_up, ULP_PAD_TRANSCENDENTAL,
    };
    use stepwise::{next_down, next_up, outward, steps};

    let check = |x: f64| {
        same_bits("next_down", x, crate::next_down(x), next_down(x));
        same_bits("next_up", x, crate::next_up(x), next_up(x));
        for n in 0..=4 {
            same_bits("steps_down", x, steps_down(x, n), steps(x, n, next_down));
            same_bits("steps_up", x, steps_up(x, n), steps(x, n, next_up));
        }
        same_bits("round_lo", x, round_lo(x), outward(x, 1, next_down));
        same_bits("round_hi", x, round_hi(x), outward(x, 1, next_up));
        let pad = ULP_PAD_TRANSCENDENTAL;
        same_bits("pad_lo", x, pad_lo(x), outward(x, pad, next_down));
        same_bits("pad_hi", x, pad_hi(x), outward(x, pad, next_up));
    };
    for x in rounding_cases() {
        check(x);
    }
    let mut rng = SplitMix64(0x5eed_0022);
    for _ in 0..100_000 {
        check(f64::from_bits(rng.next()));
        check(rng.endpoint());
    }
    // The stepwise walks that cross zero land on the zero of the side
    // they came from; the one-move step must too.
    let sub = f64::from_bits(1);
    assert_eq!(crate::next_down(sub).to_bits(), 0.0f64.to_bits());
    assert_eq!(crate::next_up(-sub).to_bits(), (-0.0f64).to_bits());
    assert_eq!(steps_up(-3.0 * sub, 3).to_bits(), (-0.0f64).to_bits());
}

/// `a.mul_point(c)` (and the `Interval * f64` operators built on it) is
/// the generic product with `Interval::point(c)` bit for bit, with the
/// point on either side: on `EMPTY`, `ENTIRE`, zero, half-line and
/// subnormal operands, for `c` of ±0, ±1, ±∞, NaN, a subnormal, ±`MAX`
/// and both signs, then on 200k random operand pairs whose endpoints mix
/// zeros, subnormals, underflowing and overflowing magnitudes and ±∞.
#[test]
fn point_product_matches_generic_product() {
    fn check(a: Interval, c: f64) {
        let p = Interval::point(c);
        let same = |x: Interval, y: Interval| {
            x.inf().to_bits() == y.inf().to_bits() && x.sup().to_bits() == y.sup().to_bits()
        };
        let got = a.mul_point(c);
        assert!(same(got, a * p), "{a:?}.mul_point({c:?}) = {got:?}, a·[c] = {:?}", a * p);
        assert!(same(got, p * a), "{a:?}.mul_point({c:?}) = {got:?}, [c]·a = {:?}", p * a);
        assert!(same(a * c, got) && same(c * a, got), "{a:?} * {c:?}");
    }
    let sub = f64::from_bits(1);
    let operands = [
        Interval::EMPTY,
        Interval::ENTIRE,
        Interval::ZERO,
        Interval::new(-0.0, 0.0),
        Interval::new(-0.0, 2.5),
        Interval::new(0.0, sub),
        Interval::new(-sub, sub),
        Interval::new(1e-200, 1e-160),
        Interval::new(-3.0, -1.0),
        Interval::new(-1.0, 3.0),
        Interval::new(0.1, 0.7),
        Interval::new(1e300, f64::MAX),
        Interval::new(f64::NEG_INFINITY, -2.0),
        Interval::new(-2.0, f64::INFINITY),
        Interval::new(0.0, f64::INFINITY),
    ];
    let factors = [
        0.0,
        1.0,
        f64::INFINITY,
        sub,
        1e-200,
        0.35355339059327373,
        3.0,
        16.0,
        f64::MAX,
        f64::NAN,
    ];
    for a in operands {
        for c in factors {
            check(a, c);
            check(a, -c);
        }
    }
    let mut rng = SplitMix64(0x5eed_0023);
    for _ in 0..200_000 {
        let a = rng.interval();
        let c = match rng.next() % 4 {
            0 => rng.endpoint(),
            1 => f64::from_bits(rng.next()),
            _ => (rng.unit() - 0.5) * 4.0,
        };
        check(a, c);
    }
}

/// An underflowed corner at either end widens both zero bounds: the
/// exact-zero test of the point product covers both corners, not only
/// the bound that matches the sign of `c`.
#[test]
fn point_product_widens_an_underflowed_corner() {
    let sub = f64::from_bits(1);
    let a = Interval::new(0.0, sub);
    let want = Interval::new(-sub, sub);
    assert_eq!(a * Interval::point(sub), want);
    assert_eq!(a.mul_point(sub), want);
    assert_eq!(a.mul_point(-sub), want);
    // A zero corner from a zero factor alone stays an exact zero.
    let r = Interval::new(0.0, 2.0).mul_point(0.5);
    assert_eq!(r, Interval::new(0.0, crate::next_up(1.0)));
}

/// The products and quotients as they were written before the sign-case
/// kernels: every bound the `min`/`max` of all four corners (`0 · ∞` and
/// `∞ / ∞` taken as `0`), then rounded by the caller. The oracle the
/// outward `*` and `/` must equal bit for bit, and the form the
/// round-to-nearest ablation must keep, zero signs included.
mod four_corner {
    use crate::Interval;

    /// `(lo, hi, exact_zero)`, or `None` for a result that is not a
    /// corner `min`/`max` (empty operand, zero-containing divisor).
    pub type Corners = Option<(f64, f64, bool)>;

    fn prod(x: f64, y: f64) -> f64 {
        let p = x * y;
        if p.is_nan() {
            0.0
        } else {
            p
        }
    }

    fn quot(x: f64, y: f64) -> f64 {
        let q = x / y;
        if q.is_nan() {
            0.0
        } else {
            q
        }
    }

    pub fn mul(a: Interval, b: Interval) -> Corners {
        if a.is_empty() || b.is_empty() {
            return None;
        }
        let (a0, a1, b0, b1) = (a.inf(), a.sup(), b.inf(), b.sup());
        let p = [prod(a0, b0), prod(a0, b1), prod(a1, b0), prod(a1, b1)];
        let exact = [(a0, b0), (a0, b1), (a1, b0), (a1, b1)]
            .iter()
            .zip(p)
            .all(|(&(x, y), p)| p != 0.0 || x == 0.0 || y == 0.0);
        Some((p[0].min(p[1]).min(p[2]).min(p[3]), p[0].max(p[1]).max(p[2]).max(p[3]), exact))
    }

    pub fn div(a: Interval, b: Interval) -> Corners {
        if a.is_empty() || b.is_empty() || (b.inf() <= 0.0 && b.sup() >= 0.0) {
            return None;
        }
        let (a0, a1, b0, b1) = (a.inf(), a.sup(), b.inf(), b.sup());
        let q = [quot(a0, b0), quot(a0, b1), quot(a1, b0), quot(a1, b1)];
        let exact = [a0, a0, a1, a1].iter().zip(q).all(|(&x, q)| q != 0.0 || x == 0.0);
        Some((q[0].min(q[1]).min(q[2]).min(q[3]), q[0].max(q[1]).max(q[2]).max(q[3]), exact))
    }

    /// The outward rounding of the corner bounds: one step out, except
    /// an exact zero, which becomes `+0.0`.
    pub fn outward((lo, hi, exact): (f64, f64, bool)) -> (f64, f64) {
        let round = |x: f64, step: fn(f64) -> f64| {
            if x == 0.0 && exact {
                0.0
            } else if x.is_finite() {
                step(x)
            } else {
                x
            }
        };
        (round(lo, crate::next_down), round(hi, crate::next_up))
    }
}

/// Every class of double as an interval endpoint: both zeros, the
/// smallest and largest subnormals, `MIN_POSITIVE`, underflowing,
/// ordinary and overflowing magnitudes, `MAX` and the infinities, of
/// both signs. The operands are every ordered pair of them — points
/// (the point zero among them), half-lines, `ENTIRE` — and `EMPTY`.
fn corner_case_operands() -> Vec<Interval> {
    let mut ends = vec![
        0.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        1e-200,
        0.5,
        1.0,
        3.0,
        1e200,
        f64::MAX,
        f64::INFINITY,
    ];
    ends.extend(ends.clone().into_iter().map(|x| -x));
    let mut operands = vec![Interval::EMPTY];
    for &lo in &ends {
        for &hi in &ends {
            if lo <= hi {
                operands.push(Interval::new(lo, hi));
            }
        }
    }
    operands
}

/// Outward `*` and `/` take two corners per bound, picked by sign case;
/// the four-corner forms of [`four_corner`] give the same bits on every
/// class of double and on 200k random operand pairs. `nearest::mul` and
/// `nearest::div` still return the unrounded four-corner bounds, zero
/// signs included.
#[test]
fn sign_case_products_match_four_corner_oracle() {
    let bits = |r: Interval| (r.inf().to_bits(), r.sup().to_bits());
    let check = |a: Interval, b: Interval| {
        let cases = [
            ("mul", a * b, crate::nearest::mul(a, b), four_corner::mul(a, b)),
            ("div", a / b, crate::nearest::div(a, b), four_corner::div(a, b)),
        ];
        for (op, got, nearest, want) in cases {
            let Some(corners) = want else { continue };
            let (lo, hi) = four_corner::outward(corners);
            assert_eq!(
                bits(got),
                bits(Interval::make(lo, hi)),
                "{op}({a:?}, {b:?}) = {got:?}, four corners give [{lo:?}, {hi:?}]"
            );
            let (lo, hi, _) = corners;
            assert_eq!(
                bits(nearest),
                bits(Interval::make(lo, hi)),
                "nearest::{op}({a:?}, {b:?}) = {nearest:?}, four corners give [{lo:?}, {hi:?}]"
            );
        }
    };
    let operands = corner_case_operands();
    for &a in &operands {
        for &b in &operands {
            check(a, b);
        }
    }
    let mut rng = SplitMix64(0x5eed_0024);
    for _ in 0..200_000 {
        check(rng.interval(), rng.interval());
    }
}
