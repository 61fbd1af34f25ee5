//! Number formatting for the JSON writer, byte-identical to `{}`.
//!
//! Integers are written through a two-digit lookup table. Finite `f64`s
//! go through a shortest round-trip digit generator (Ryū: U. Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018) and are then laid
//! out the way `core::fmt`'s `{}` lays them out: plain decimal notation,
//! never an exponent, `-` on every negative value including `-0`. The
//! one departure from published Ryū is the tie rule: when two shortest
//! candidates are exactly equally close to the value, `core::fmt` takes
//! the larger one, so this generator does too instead of rounding to
//! even.
//!
//! The 128-bit power-of-5 tables are computed by `const fn`s at compile
//! time, so formatting needs no initialisation at run time.

/// `"00" "01" … "99"`, two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The decimal digits of `v`, written right-aligned into `buf`.
fn digits(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    // SAFETY: every byte of `buf[i..]` was written above, each one from
    // `DIGIT_PAIRS` or as `b'0' + v` with `v < 10`: ASCII digits only,
    // so the slice is valid UTF-8. (Validating instead costs ~35 ns per
    // float, a third of the formatter's time.)
    unsafe { std::str::from_utf8_unchecked(&buf[i..]) }
}

fn push_zeros(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n('0', n));
}

/// Appends `v` in decimal, as `{}` writes it.
pub(super) fn write_u64(out: &mut String, v: u64) {
    out.push_str(digits(v, &mut [0; 20]));
}

/// Appends the finite `v` exactly as `format!("{v}")` would.
pub(super) fn write_finite_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exp) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0; 20];
    let digits = digits(mantissa, &mut buf);
    let len = digits.len() as i32;
    // `v` is `0.<digits> × 10^point`; `{}` never uses an exponent, so
    // the point either precedes the digits, splits them, or follows
    // them after zero padding.
    let point = exp + len;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_str(digits);
    } else if point < len {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        push_zeros(out, (point - len) as usize);
    }
}

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Significant bits kept per entry of both power-of-5 tables.
const POW5_BITCOUNT: i32 = 125;
/// Entries of [`POW5_INV_SPLIT`]: `q ≤ log10(2^969) − 1 = 290`, reached
/// by the largest exponent.
const POW5_INV_LEN: usize = 291;
/// Entries of [`POW5_SPLIT`]: `−e2 − q ≤ 1076 − 751 = 325`, reached by
/// the subnormals.
const POW5_LEN: usize = 326;

/// `⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋ + 1` for each `i`, as 128-bit
/// `(low, high)` halves.
static POW5_INV_SPLIT: [(u64, u64); POW5_INV_LEN] = pow5_inv_split();
/// The top 125 bits of `5^i` (shifted up when it is shorter) for each
/// `i`, as 128-bit `(low, high)` halves.
static POW5_SPLIT: [(u64, u64); POW5_LEN] = pow5_split();

/// Limbs of the compile-time bignums: 1024 bits, above the 798 bits the
/// largest inverse entry needs and the 755 bits of `5^325`.
const LIMBS: usize = 16;
/// `2^J` is the dividend of the inverse table; `J` is the top bit of a
/// `LIMBS`-limb number.
const J: u32 = 64 * LIMBS as u32 - 1;

const fn limb(n: &[u64; LIMBS], i: usize) -> u128 {
    if i < LIMBS {
        n[i] as u128
    } else {
        0
    }
}

/// The 128 bits of `n` starting at bit `shift`.
const fn bits_at(n: &[u64; LIMBS], shift: u32) -> u128 {
    let (word, bit) = ((shift / 64) as usize, shift % 64);
    let low = limb(n, word) | (limb(n, word + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(n, word + 2) << (128 - bit))
    }
}

const fn mul5(n: &mut [u64; LIMBS]) {
    let mut carry = 0u128;
    let mut k = 0;
    while k < LIMBS {
        let t = n[k] as u128 * 5 + carry;
        n[k] = t as u64;
        carry = t >> 64;
        k += 1;
    }
}

const fn split(v: u128) -> (u64, u64) {
    (v as u64, (v >> 64) as u64)
}

const fn pow5_split() -> [(u64, u64); POW5_LEN] {
    let mut table = [(0, 0); POW5_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = pow5_bits(i as i32);
        table[i] = split(if len >= POW5_BITCOUNT {
            bits_at(&pow, (len - POW5_BITCOUNT) as u32)
        } else {
            bits_at(&pow, 0) << (POW5_BITCOUNT - len)
        });
        mul5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [(u64, u64); POW5_INV_LEN] {
    let mut table = [(0, 0); POW5_INV_LEN];
    // quot = ⌊2^J / 5^i⌋, kept exact by dividing by 5 once per step:
    // ⌊⌊x⌋ / 5⌋ = ⌊x / 5⌋. Shifting it right by `J − j` then gives
    // ⌊2^j / 5^i⌋ for the same reason.
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let j = (pow5_bits(i as i32) - 1 + POW5_BITCOUNT) as u32;
        table[i] = split(bits_at(&quot, J - j) + 1);
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let t = (rem << 64) | quot[k] as u128;
            quot[k] = (t / 5) as u64;
            rem = t % 5;
        }
        i += 1;
    }
    table
}

/// `⌈log2(5^e)⌉` for `1 ≤ e ≤ 3528` (1 at `e = 0`): the bit length of
/// `5^e`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^j⌋` for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: (u64, u64), j: u32) -> u64 {
    let low = m as u128 * mul.0 as u128;
    let high = m as u128 * mul.1 as u128;
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Shortest `(digits, exp)` with `digits × 10^exp` reading back as the
/// finite non-zero `f64` with these IEEE fields; among the shortest
/// candidates the one nearest the value, exact ties taking the larger.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // v = m2 × 2^e2, with two extra bits so the interval bounds
    // (halfway to each neighbour) are integers: mv ± 2 (or 1).
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even on reading back: an even mantissa owns its bounds.
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    // The gap below is half as wide at a power of two.
    let mm_shift = u32::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = mv - 1 - u64::from(mm_shift);
    let mp = mv + 2;

    // Scale the interval to a decimal exponent e10. Only the lower
    // bound's exactness matters: an exact tie rounds up like any other
    // dropped tail of 5 or more, so whether mv scaled exactly does not.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITCOUNT + pow5_bits(q as i32) - 1;
        let shift = (-e2 + q as i32 + k) as u32;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let shift = (q as i32 - k) as u32;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // mm has a trailing zero bit exactly when mm_shift is 1; mp
        // always has one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare path: the lower bound is exact and allowed, so trailing
        // zeros of vm may be dropped too.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 (Steele, Lea, Flood 2014): a fixed seed gives the same
    /// value set on every run.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn ours(v: f64) -> String {
        let mut out = String::new();
        write_finite_f64(&mut out, v);
        out
    }

    /// Every value that must always be checked: both zeros, the extreme
    /// normals and subnormals, every power of 2 and of 10 and their
    /// neighbours, and integers around 2^53.
    fn special_values() -> Vec<f64> {
        let mut vals = vec![
            0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::from_bits(1 << 52),
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            2.0 / 3.0,
            123_456.789,
            5e-324,
            1.7976931348623157e308,
        ];
        for e in -1074..=1023 {
            vals.push(2f64.powi(e));
        }
        for e in -323..=308 {
            vals.push(format!("1e{e}").parse().expect("power of ten"));
        }
        let centres = vals.clone();
        for v in centres {
            vals.push(v.next_up());
            vals.push(v.next_down());
        }
        vals.retain(|v| v.is_finite());
        let negated: Vec<f64> = vals.iter().map(|v| -v).collect();
        vals.extend(negated);
        vals
    }

    /// `n + 0.25` and `n + 0.75` for integers `n` in `[2^50, 2^51)`: the
    /// spacing there is 0.25, so both 17-digit candidates `n.2`/`n.3`
    /// (or `n.7`/`n.8`) sit exactly 0.05 away, inside the ±0.125
    /// round-trip interval, and no 16-digit number does — an exact tie.
    fn exact_ties(rng: &mut SplitMix64, count: usize) -> Vec<f64> {
        (0..count)
            .map(|i| {
                let n = (1u64 << 50) + rng.next() % (1u64 << 50);
                n as f64 + if i % 2 == 0 { 0.25 } else { 0.75 }
            })
            .collect()
    }

    /// `count` values mixing every IEEE class: random bit patterns,
    /// random subnormals, and magnitudes the kernels produce.
    fn random_values(rng: &mut SplitMix64, count: usize) -> Vec<f64> {
        let mut vals = Vec::with_capacity(count);
        while vals.len() < count {
            let v = match vals.len() % 5 {
                0 | 1 => f64::from_bits(rng.next()),
                2 => f64::from_bits(rng.next() & ((1 << 52) - 1)),
                3 => rng.unit() * 200.0,
                _ => 10f64.powf(rng.unit() * 40.0 - 30.0),
            };
            if v.is_finite() {
                vals.push(if rng.next() & 1 == 0 { v } else { -v });
            }
        }
        vals
    }

    fn mismatches(vals: &[f64]) -> Vec<(f64, String, String)> {
        vals.iter()
            .filter_map(|&v| {
                let (got, want) = (ours(v), format!("{v}"));
                (got != want).then_some((v, got, want))
            })
            .collect()
    }

    #[test]
    fn matches_std_on_specials_ties_and_200k_random_values() {
        let mut rng = SplitMix64(0x5c0f_910e_15f0_0d5e);
        let ties = exact_ties(&mut rng, 1_000);
        for &t in ties.iter().take(20) {
            let std = format!("{t}");
            assert!(
                std.ends_with('3') || std.ends_with('8'),
                "{std} is not a tie rounded up"
            );
        }
        let mut vals = special_values();
        vals.extend(ties);
        vals.extend(random_values(&mut rng, 200_000));
        assert_eq!(mismatches(&vals), Vec::new());
        assert_eq!(ours(-0.0), "-0");
        assert_eq!(ours(1_308_548_795_726_862.0 + 0.25), "1308548795726862.3");
    }

    /// The release sweep behind the formatter's byte-identity claim:
    /// `cargo test --release -p scorpio-obs --lib -- --ignored
    /// json::num::tests::sweep` (≈20M values).
    #[test]
    #[ignore = "release-mode sweep, ~20M values"]
    fn sweep_20m_values_against_std() {
        let mut rng = SplitMix64(0x0dd_ba11_cafe_f00d);
        let mut checked = 0usize;
        let mut vals = special_values();
        vals.extend(exact_ties(&mut rng, 100_000));
        let mut bad = mismatches(&vals);
        checked += vals.len();
        for _ in 0..200 {
            let vals = random_values(&mut rng, 100_000);
            bad.extend(mismatches(&vals));
            checked += vals.len();
        }
        println!("checked {checked} values, {} mismatches", bad.len());
        assert_eq!(bad, Vec::new());
    }

    #[test]
    fn integers_match_std() {
        let mut rng = SplitMix64(7);
        let mut cases = vec![0, 1, 9, 10, 99, 100, u64::MAX, u64::MAX / 10];
        cases.extend((0..1_000).map(|_| rng.next() >> (rng.next() % 64)));
        for v in cases {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    /// The compile-time tables against entries computed independently
    /// with arbitrary-precision integers.
    #[test]
    fn tables_match_independent_computation() {
        let join = |(low, high): (u64, u64)| (high as u128) << 64 | low as u128;
        // 5^0 … 5^53 fit in 125 bits: the entry is 5^i shifted up.
        let mut pow = 1u128;
        for entry in POW5_SPLIT.iter().take(54) {
            let len = 128 - pow.leading_zeros();
            assert_eq!(join(*entry), pow << (125 - len));
            pow *= 5;
        }
        assert_eq!(join(POW5_INV_SPLIT[0]), (1 << 125) + 1);
        assert_eq!(
            join(POW5_INV_SPLIT[1]),
            34_028_236_692_093_846_346_337_460_743_176_821_146
        );
        assert_eq!(
            join(POW5_SPLIT[325]),
            32_836_294_410_387_009_994_688_234_313_321_054_992
        );
        assert_eq!(
            join(POW5_INV_SPLIT[290]),
            33_161_585_181_869_771_710_872_837_606_427_411_587
        );
    }
}
