//! BinDCT — a multiplierless approximate forward DCT, the codec's
//! `approxfun` pairing partner for the exact RealDCT transform
//! ([`crate::dct::forward_block`]).
//!
//! The transform factors the 8-point DCT-II into Chen's butterfly
//! (even/odd symmetry split, a 4-point even stage and four odd-part
//! rotations) and then replaces every irrational rotation constant with
//! a **dyadic rational** (`k/2ⁿ`) — each multiply becomes a handful of
//! shifts and adds on fixed-point hardware, which is exactly the
//! shift/add lifting trick of the BinDCT family and of the
//! `BinDct` mode in DCT-based encoders. Values here stay `f64` (the
//! analysis pipeline and quality metrics are floating point); what the
//! approximation changes is the *constant set* and the *op budget*:
//! [`BINDCT_OPS_PER_BLOCK`] cheap shift/add units instead of
//! [`REALDCT_OPS_PER_BLOCK`](crate::jpeg::REALDCT_OPS_PER_BLOCK)
//! multiply-accumulates.
//!
//! Precision is deliberately asymmetric, as in the published BinDCT
//! configurations: the DC/X4 path uses a 9-bit dyadic (error `≈ 4e-5`,
//! so flat image regions survive almost exactly — a constant input has
//! zero odd part and zero `X2`/`X6` drive, making DC the *only* error
//! source there), while the AC rotations use coarse 5-bit dyadics whose
//! error only materialises on blocks with real high-frequency content.
//! That asymmetry is what makes per-block significance ordering
//! effective: the blocks BinDCT hurts are the blocks the analysis
//! ranks as significant.

/// The `/2`-scaled constant set of one 8-point Chen butterfly pass.
///
/// `dc` multiplies the even sums for `X0`/`X4`, (`c1`,`s1`) is the
/// `X2`/`X6` rotation, and `o` holds the four odd-part constants
/// `cos(kπ/16)/2` for `k = 1, 3, 5, 7`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constants {
    /// `1/(2√2)` or its dyadic approximation.
    pub dc: f64,
    /// `cos(π/8)/2` or its dyadic approximation.
    pub c1: f64,
    /// `sin(π/8)/2` or its dyadic approximation.
    pub s1: f64,
    /// `cos(kπ/16)/2` for `k = 1, 3, 5, 7`.
    pub o: [f64; 4],
}

/// Exact (irrational) constants: with these the butterfly reproduces
/// the orthonormal DCT-II to rounding error — the reference point the
/// BinDCT error bound is measured against.
pub const EXACT: Constants = Constants {
    dc: 0.353_553_390_593_273_8,      // 1/(2√2)
    c1: 0.461_939_766_255_643_37,     // cos(π/8)/2
    s1: 0.191_341_716_182_544_86,     // sin(π/8)/2
    o: [
        0.490_392_640_201_615_2,      // cos(π/16)/2
        0.415_734_806_151_272_7,      // cos(3π/16)/2
        0.277_785_116_509_801_14,     // cos(5π/16)/2
        0.097_545_161_008_064_16,     // cos(7π/16)/2
    ],
};

/// Dyadic BinDCT constants (shift/add realizable): `181/512` on the
/// DC path, 5-bit `k/32` approximations on the AC rotations.
pub const BIN: Constants = Constants {
    dc: 181.0 / 512.0,  // 0.35351563 vs 0.35355339
    c1: 15.0 / 32.0,    // 0.46875    vs 0.46193977
    s1: 6.0 / 32.0,     // 0.1875     vs 0.19134172
    o: [
        16.0 / 32.0,    // 0.5        vs 0.49039264
        13.0 / 32.0,    // 0.40625    vs 0.41573481
        9.0 / 32.0,     // 0.28125    vs 0.27778512
        3.0 / 32.0,     // 0.09375    vs 0.09754516
    ],
};

/// Shift/add work units of one 1-D butterfly pass (8 symmetry adds,
/// the 4-add/2-mul even sums, the 8-op `X2`/`X6` rotation pair and
/// four 7-op odd rotations) — the unit [`BINDCT_OPS_PER_BLOCK`]
/// aggregates.
pub const OPS_PER_PASS: u64 = 52;

/// Shift/add work units of one full 8×8 BinDCT (16 butterfly passes).
pub const BINDCT_OPS_PER_BLOCK: u64 = 16 * OPS_PER_PASS;

/// One 8-point Chen butterfly pass with the given constant set:
/// `constants = `[`EXACT`] gives the orthonormal DCT-II, [`BIN`] the
/// BinDCT approximation.
pub fn butterfly_1d(x: &[f64; 8], k: &Constants) -> [f64; 8] {
    // Even/odd symmetry split.
    let e = [x[0] + x[7], x[1] + x[6], x[2] + x[5], x[3] + x[4]];
    let o = [x[0] - x[7], x[1] - x[6], x[2] - x[5], x[3] - x[4]];
    // 4-point even stage.
    let s03 = e[0] + e[3];
    let s12 = e[1] + e[2];
    let d03 = e[0] - e[3];
    let d12 = e[1] - e[2];
    [
        (s03 + s12) * k.dc,
        o[0] * k.o[0] + o[1] * k.o[1] + o[2] * k.o[2] + o[3] * k.o[3],
        d03 * k.c1 + d12 * k.s1,
        o[0] * k.o[1] - o[1] * k.o[3] - o[2] * k.o[0] - o[3] * k.o[2],
        (s03 - s12) * k.dc,
        o[0] * k.o[2] - o[1] * k.o[0] + o[2] * k.o[3] + o[3] * k.o[1],
        d03 * k.s1 - d12 * k.c1,
        o[0] * k.o[3] - o[1] * k.o[2] + o[2] * k.o[1] - o[3] * k.o[0],
    ]
}

/// Separable 8×8 forward transform with the given constant set: rows
/// first, then columns, matching the `coeffs[v][u]` layout of
/// [`forward_block`](crate::dct::forward_block).
pub fn forward_block_with(block: &[[f64; 8]; 8], k: &Constants) -> [[f64; 8]; 8] {
    let mut rows = [[0.0; 8]; 8];
    for (y, row) in block.iter().enumerate() {
        rows[y] = butterfly_1d(row, k);
    }
    let mut out = [[0.0; 8]; 8];
    for u in 0..8 {
        let col = [
            rows[0][u], rows[1][u], rows[2][u], rows[3][u], rows[4][u], rows[5][u], rows[6][u],
            rows[7][u],
        ];
        let t = butterfly_1d(&col, k);
        for (v, row) in out.iter_mut().enumerate() {
            row[u] = t[v];
        }
    }
    out
}

/// The BinDCT forward transform of an 8×8 block — the approximate
/// body of every per-block codec task.
pub fn forward_block_bin(block: &[[f64; 8]; 8]) -> [[f64; 8]; 8] {
    forward_block_with(block, &BIN)
}

/// Analytic worst-case absolute coefficient error of the 2-D BinDCT
/// against the exact DCT for inputs bounded by `max_abs` (the level-
/// shifted pixel range, 128): first-pass error amplified by the exact
/// second pass, plus second-pass error on first-pass magnitudes.
///
/// The bound is loose by design (it triangle-inequalities both passes)
/// but cheap to state and easy to test against; observed errors on
/// random blocks sit well under half of it.
pub fn error_bound(max_abs: f64) -> f64 {
    // Worst absolute row error sum of one pass (the odd rotations):
    // 2·Σ|Δcos(kπ/16)/2|.
    let row_err: f64 = 2.0
        * (0..4)
            .map(|i| (BIN.o[i] - EXACT.o[i]).abs())
            .sum::<f64>();
    // Worst row L1 norm of the exact pass (the DC row: 8·dc) — what a
    // first-pass value can grow to, and what amplifies first-pass error.
    let row_l1 = 8.0 * EXACT.dc;
    let first_pass_err = row_err * max_abs;
    let first_pass_mag = row_l1 * max_abs;
    // Δ·X·Eᵀ + E·X·Δᵀ + Δ·X·Δᵀ terms of B X Bᵀ − E X Eᵀ with B = E + Δ.
    first_pass_err * row_l1 + row_err * first_pass_mag + row_err * first_pass_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::forward_block;
    use scorpio_core::audit::SplitMix64;

    /// A level-shifted pixel in `[-128, 127]`.
    fn pixel(rng: &mut SplitMix64) -> f64 {
        (rng.next_u64() % 256) as f64 - 128.0
    }

    fn random_block(rng: &mut SplitMix64) -> [[f64; 8]; 8] {
        let mut b = [[0.0; 8]; 8];
        for row in &mut b {
            for p in row.iter_mut() {
                *p = pixel(rng);
            }
        }
        b
    }

    #[test]
    fn exact_butterfly_is_the_dct() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let block = random_block(&mut rng);
            let direct = forward_block(&block);
            let chen = forward_block_with(&block, &EXACT);
            for v in 0..8 {
                for u in 0..8 {
                    assert!(
                        (direct[v][u] - chen[v][u]).abs() < 1e-9,
                        "({u},{v}): {} vs {}",
                        direct[v][u],
                        chen[v][u]
                    );
                }
            }
        }
    }

    #[test]
    fn bindct_error_within_analytic_bound() {
        let bound = error_bound(128.0);
        assert!(bound < 45.0, "bound unexpectedly loose: {bound}");
        let mut rng = SplitMix64::new(21);
        let mut observed: f64 = 0.0;
        for _ in 0..500 {
            let block = random_block(&mut rng);
            let exact = forward_block_with(&block, &EXACT);
            let bin = forward_block_bin(&block);
            for v in 0..8 {
                for u in 0..8 {
                    observed = observed.max((exact[v][u] - bin[v][u]).abs());
                }
            }
        }
        assert!(
            observed <= bound,
            "observed error {observed} exceeds analytic bound {bound}"
        );
        // The approximation must actually approximate: errors are real
        // but bounded well below the coarsest quantisation step.
        assert!(observed > 0.1, "BinDCT suspiciously exact: {observed}");
    }

    #[test]
    fn bindct_dc_is_near_exact() {
        // Flat blocks have zero odd part and zero X2/X6 drive, so the
        // only error path is the 9-bit DC dyadic — sub-0.5 absolute on
        // the extreme ±128 flat block, i.e. invisible after the 16-step
        // DC quantiser.
        for level in [-128.0, -1.0, 0.0, 63.0, 127.0] {
            let block = [[level; 8]; 8];
            let exact = forward_block_with(&block, &EXACT);
            let bin = forward_block_bin(&block);
            assert!(
                (exact[0][0] - bin[0][0]).abs() < 0.5,
                "DC error at level {level}: {} vs {}",
                exact[0][0],
                bin[0][0]
            );
            for (v, row) in bin.iter().enumerate() {
                for (u, &coeff) in row.iter().enumerate() {
                    if (u, v) != (0, 0) {
                        assert!(
                            coeff.abs() < 1e-9,
                            "flat block leaked AC energy at ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bindct_is_linear() {
        // Shift/add networks are linear maps; scaling the input scales
        // the output. Guards against accidentally introducing a
        // nonlinear "optimisation" later.
        let mut rng = SplitMix64::new(3);
        let block = random_block(&mut rng);
        let mut doubled = block;
        for row in &mut doubled {
            for p in row.iter_mut() {
                *p *= 2.0;
            }
        }
        let a = forward_block_bin(&block);
        let b = forward_block_bin(&doubled);
        for v in 0..8 {
            for u in 0..8 {
                assert!((b[v][u] - 2.0 * a[v][u]).abs() < 1e-9);
            }
        }
    }
}
