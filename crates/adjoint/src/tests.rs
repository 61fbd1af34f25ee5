//! Cross-cutting tests for the AD engine:
//!
//! 1. adjoint gradients vs central finite differences (f64 scalars);
//! 2. adjoint vs tangent mode via the dot-product identity;
//! 3. interval AD encloses point AD — the property that makes Eq. 10 of
//!    the paper an enclosure of the true derivative range;
//! 4. the worked example of Listings 1–3;
//! 5. the per-op table [`Op::eval`] against `Dual`'s own derivative
//!    formulas.

use proptest::prelude::*;
use scorpio_interval::Interval;

use crate::{Dual, NodeId, Op, Tape, Var};

/// A differentiable test function exercised in every representation.
/// Chosen to hit most operator kinds while staying well-conditioned on
/// the sampled domain.
fn test_fn<'t, V: crate::Scalar>(x: Var<'t, V>, y: Var<'t, V>) -> Var<'t, V> {
    let a = (x.sin() + x * y).exp();
    let b = (y.sqr() + 2.5).sqrt();
    let c = x.hypot(y) + (x * 0.25).atan();
    a / b + c.tanh() - (0.5 * y).cos()
}

fn eval_f64(x: f64, y: f64) -> f64 {
    let a = (x.sin() + x * y).exp();
    let b = (y * y + 2.5).sqrt();
    let c = x.hypot(y) + (x * 0.25).atan();
    a / b + c.tanh() - (0.5 * y).cos()
}

/// Central finite difference in one coordinate.
fn fd(f: impl Fn(f64) -> f64, x: f64) -> f64 {
    let h = 1e-6 * x.abs().max(1.0);
    (f(x + h) - f(x - h)) / (2.0 * h)
}

#[test]
fn listing_example_gradient() {
    // f(x) = cos(exp(sin(x) + x) − x), Listings 1–3 of the paper.
    let tape = Tape::<f64>::new();
    let x0 = 0.3;
    let x = tape.var(x0);
    let y = ((x.sin() + x).exp() - x).cos();
    let adj = tape.adjoints(&[(y.id(), 1.0)]);

    // Hand-derived: u3 = exp(sin x + x); dy/dx = −sin(u3 − x)·(u3·(cos x + 1) − 1)
    let u3 = (x0.sin() + x0).exp();
    let want = -(u3 - x0).sin() * (u3 * (x0.cos() + 1.0) - 1.0);
    assert!((adj[x.id()] - want).abs() < 1e-12);

    // The tape has exactly the 6 nodes of Listing 2 (u0..u5).
    assert_eq!(tape.len(), 6);
}

#[test]
fn listing_example_interval_enclosure() {
    // Same function evaluated over an input box: every pointwise gradient
    // must be enclosed in the interval adjoint.
    let domain = Interval::new(0.1, 0.6);
    let tape = Tape::<Interval>::new();
    let x = tape.var(domain);
    let y = ((x.sin() + x).exp() - x).cos();
    let adj = tape.adjoints(&[(y.id(), Interval::ONE)]);
    let grad = adj[x.id()];

    for k in 0..=20 {
        let p = domain.inf() + domain.width() * (k as f64) / 20.0;
        let u3 = (p.sin() + p).exp();
        let g = -(u3 - p).sin() * (u3 * (p.cos() + 1.0) - 1.0);
        assert!(grad.contains(g), "gradient {g} at {p} not in {grad}");
    }
}

#[test]
fn multiple_outputs_sum_adjoints() {
    // Vector function y = (x², 3x): seeding both outputs with 1 gives
    // d(y0+y1)/dx = 2x + 3.
    let tape = Tape::<f64>::new();
    let x = tape.var(2.0);
    let y0 = x.sqr();
    let y1 = x * 3.0;
    let adj = tape.adjoints(&[(y0.id(), 1.0), (y1.id(), 1.0)]);
    assert!((adj[x.id()] - 7.0).abs() < 1e-15);
}

#[test]
fn fan_out_accumulates() {
    // x used three times: d(x + x·x + sin x)/dx = 1 + 2x + cos x.
    let tape = Tape::<f64>::new();
    let x = tape.var(1.2);
    let y = x + x * x + x.sin();
    let adj = tape.adjoints(&[(y.id(), 1.0)]);
    let want = 1.0 + 2.0 * 1.2 + 1.2f64.cos();
    assert!((adj[x.id()] - want).abs() < 1e-14);
}

#[test]
fn tangent_mode_matches_adjoint_gradient() {
    let tape = Tape::<f64>::new();
    let x = tape.var(0.7);
    let y = tape.var(-0.4);
    let z = test_fn(x, y);

    let adj = tape.adjoints(&[(z.id(), 1.0)]);

    // Forward mode, one sweep per input direction.
    let tx = tape.tangents(&[(x.id(), 1.0)]);
    let ty = tape.tangents(&[(y.id(), 1.0)]);

    assert!((adj[x.id()] - tx[z.id()]).abs() < 1e-12);
    assert!((adj[y.id()] - ty[z.id()]).abs() < 1e-12);
}

#[test]
fn intermediate_adjoints_available() {
    // The reverse sweep yields ∇_{u_j} y for *every* node (the paper's key
    // efficiency claim for adjoint mode).
    let tape = Tape::<f64>::new();
    let x = tape.var(0.5);
    let u = x.exp(); // intermediate
    let y = u.sqr();
    let adj = tape.adjoints(&[(y.id(), 1.0)]);
    // dy/du = 2u
    assert!((adj[u.id()] - 2.0 * 0.5f64.exp()).abs() < 1e-14);
}

/// Every non-leaf op class of [`Op::eval`], the parameterised ones at
/// several exponents.
const TABLE_OPS: [Op; 31] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Neg,
    Op::Sin,
    Op::Cos,
    Op::Tan,
    Op::Exp,
    Op::Ln,
    Op::Sqrt,
    Op::Sqr,
    Op::Recip,
    Op::Powi(-3),
    Op::Powi(0),
    Op::Powi(1),
    Op::Powi(4),
    Op::Powf(-1.5),
    Op::Powf(0.0),
    Op::Powf(0.5),
    Op::Powf(2.5),
    Op::Abs,
    Op::Atan,
    Op::Tanh,
    Op::Sinh,
    Op::Cosh,
    Op::Erf,
    Op::Cndf,
    Op::Hypot,
    Op::Min,
    Op::Max,
];

/// `x` and `y` agree to a relative `1e-12` (the table and `Dual` write
/// the same derivative with different formulas).
fn rel_close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-12 * x.abs().max(y.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The per-op oracle. Recording, replay and the audit's `f64`
    /// reverse sweep all take their partials from [`Op::eval`], so they
    /// share any wrong entry; `Dual`'s tangents come from its own
    /// formulas. At in-domain points (positive operands for
    /// `ln`/`sqrt`/`powf`, magnitudes in `[0.3, 1.4)` so no `abs` kink,
    /// no `min`/`max` tie), each `f64` partial must match the tangent of
    /// `Op::eval::<Dual>` seeded with a unit tangent on that operand.
    #[test]
    fn op_table_partials_match_dual_tangents(
        ma in 0.3f64..1.4, mb in 0.3f64..1.4, neg_a in any::<bool>(), neg_b in any::<bool>()
    ) {
        for op in TABLE_OPS {
            let positive_only = matches!(op, Op::Ln | Op::Sqrt | Op::Powf(_));
            let a = if neg_a && !positive_only { -ma } else { ma };
            let b = if neg_b { -mb } else { mb };
            if matches!(op, Op::Min | Op::Max) && (a - b).abs() < 1e-3 {
                continue;
            }
            let (v, pa, pb) = op.eval(a, b);
            let da = op.eval(Dual::with_tangent(a, 1.0), Dual::constant(b)).0;
            let db = op.eval(Dual::constant(a), Dual::with_tangent(b, 1.0)).0;
            prop_assert!(rel_close(v, da.re), "{op} at ({a}, {b}): value {v} vs dual {}", da.re);
            prop_assert!(rel_close(pa, da.eps), "{op} at ({a}, {b}): ∂a {pa} vs dual {}", da.eps);
            if op.arity() == 2 {
                prop_assert!(rel_close(pb, db.eps), "{op} at ({a}, {b}): ∂b {pb} vs dual {}", db.eps);
            }
        }
    }

    #[test]
    fn adjoint_matches_finite_difference(x0 in -1.5f64..1.5, y0 in -1.5f64..1.5) {
        let tape = Tape::<f64>::new();
        let x = tape.var(x0);
        let y = tape.var(y0);
        let z = test_fn(x, y);
        let adj = tape.adjoints(&[(z.id(), 1.0)]);

        let dx = fd(|t| eval_f64(t, y0), x0);
        let dy = fd(|t| eval_f64(x0, t), y0);

        let tol = 1e-4 * (1.0 + dx.abs().max(dy.abs()));
        prop_assert!((adj[x.id()] - dx).abs() < tol,
            "d/dx: adjoint {} vs fd {}", adj[x.id()], dx);
        prop_assert!((adj[y.id()] - dy).abs() < tol,
            "d/dy: adjoint {} vs fd {}", adj[y.id()], dy);
    }

    #[test]
    fn dot_product_identity(x0 in -1.5f64..1.5, y0 in -1.5f64..1.5,
                            dx in -1.0f64..1.0, dy in -1.0f64..1.0) {
        // ⟨ȳ, J·ẋ⟩ = ⟨Jᵀ·ȳ, ẋ⟩ with ȳ = 1.
        let tape = Tape::<f64>::new();
        let x = tape.var(x0);
        let y = tape.var(y0);
        let z = test_fn(x, y);

        let tan = tape.tangents(&[(x.id(), dx), (y.id(), dy)]);
        let adj = tape.adjoints(&[(z.id(), 1.0)]);

        let lhs = tan[z.id()];
        let rhs = adj[x.id()] * dx + adj[y.id()] * dy;
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "forward {lhs} vs reverse {rhs}");
    }

    #[test]
    fn interval_adjoint_encloses_point_adjoint(
        lo_x in -1.0f64..1.0, w_x in 0.0f64..0.5,
        lo_y in -1.0f64..1.0, w_y in 0.0f64..0.5,
        tx in 0.0f64..=1.0, ty in 0.0f64..=1.0,
    ) {
        let ix = Interval::new(lo_x, lo_x + w_x);
        let iy = Interval::new(lo_y, lo_y + w_y);
        let px = lo_x + tx * w_x;
        let py = lo_y + ty * w_y;

        // Interval AD over the box.
        let itape = Tape::<Interval>::new();
        let x = itape.var(ix);
        let y = itape.var(iy);
        let z = test_fn(x, y);
        let iadj = itape.adjoints(&[(z.id(), Interval::ONE)]);

        // Point AD at a sample inside the box.
        let ptape = Tape::<f64>::new();
        let xp = ptape.var(px);
        let yp = ptape.var(py);
        let zp = test_fn(xp, yp);
        let padj = ptape.adjoints(&[(zp.id(), 1.0)]);

        prop_assert!(iadj[x.id()].contains(padj[xp.id()]),
            "x-adjoint {} not in {}", padj[xp.id()], iadj[x.id()]);
        prop_assert!(iadj[y.id()].contains(padj[yp.id()]),
            "y-adjoint {} not in {}", padj[yp.id()], iadj[y.id()]);
        // Values enclose too.
        prop_assert!(z.value().contains(zp.value()));
    }

    #[test]
    fn dual_hessian_vector_matches_fd_of_gradient(
        x0 in -1.2f64..1.2, y0 in -1.2f64..1.2,
        vx in -1.0f64..1.0, vy in -1.0f64..1.0,
    ) {
        // H·v from tangent-over-adjoint vs central differences of the
        // (adjoint) gradient along v.
        let grad = |x: f64, y: f64| -> (f64, f64) {
            let tape = Tape::<f64>::new();
            let xv = tape.var(x);
            let yv = tape.var(y);
            let z = test_fn(xv, yv);
            let adj = tape.adjoints(&[(z.id(), 1.0)]);
            (adj[xv.id()], adj[yv.id()])
        };
        let h = 1e-6;
        let gp = grad(x0 + h * vx, y0 + h * vy);
        let gm = grad(x0 - h * vx, y0 - h * vy);
        let fd_hv = ((gp.0 - gm.0) / (2.0 * h), (gp.1 - gm.1) / (2.0 * h));

        let tape = Tape::<Dual>::new();
        let x = tape.var(Dual::with_tangent(x0, vx));
        let y = tape.var(Dual::with_tangent(y0, vy));
        let z = test_fn(x, y);
        let adj = tape.adjoints(&[(z.id(), Dual::ONE)]);
        let scale = 1.0 + fd_hv.0.abs().max(fd_hv.1.abs());
        prop_assert!((adj[x.id()].eps - fd_hv.0).abs() < 2e-4 * scale,
            "Hv_x {} vs fd {}", adj[x.id()].eps, fd_hv.0);
        prop_assert!((adj[y.id()].eps - fd_hv.1).abs() < 2e-4 * scale,
            "Hv_y {} vs fd {}", adj[y.id()].eps, fd_hv.1);
    }

    #[test]
    fn tape_structure_is_consistent(x0 in -1.0f64..1.0, y0 in -1.0f64..1.0) {
        let tape = Tape::<f64>::new();
        let x = tape.var(x0);
        let y = tape.var(y0);
        let z = test_fn(x, y);

        // Predecessors always precede successors (i ≺ j ⇒ i < j).
        for j in 0..tape.len() {
            for p in tape.node(NodeId::from_index(j)).preds() {
                prop_assert!(p.index() < tape.len());
            }
        }
        let succ = tape.successors();
        prop_assert_eq!(succ.len(), tape.len());
        // The output node has no successors.
        prop_assert!(succ[z.id().index()].is_empty());
        // Every successor edge mirrors a predecessor edge.
        for (i, ss) in succ.iter().enumerate() {
            for s in ss {
                let node = tape.node(*s);
                prop_assert!(node.preds().any(|p| p == NodeId::from_index(i)));
            }
        }
        prop_assert_eq!(tape.inputs(), vec![x.id(), y.id()]);
    }

    #[test]
    fn cleared_tape_rerecords_identically(x0 in -1.5f64..1.5, y0 in -1.5f64..1.5) {
        // Recycling a tape via clear() must be observationally identical
        // to a fresh tape: same structure, same values, same adjoints.
        let recycled = Tape::<f64>::new();
        {
            // A throwaway first recording with a different shape, so the
            // clear actually has stale state to discard.
            let a = recycled.var(0.25);
            let _ = (a.sin() + a.exp()) * a;
        }
        recycled.clear();
        let xr = recycled.var(x0);
        let yr = recycled.var(y0);
        let zr = test_fn(xr, yr);

        let fresh = Tape::<f64>::new();
        let xf = fresh.var(x0);
        let yf = fresh.var(y0);
        let zf = test_fn(xf, yf);

        prop_assert_eq!(recycled.len(), fresh.len());
        prop_assert_eq!(xr.id(), xf.id());
        prop_assert_eq!(zr.id(), zf.id());
        prop_assert_eq!(zr.value().to_bits(), zf.value().to_bits());
        prop_assert_eq!(recycled.inputs(), fresh.inputs());

        let ar = recycled.adjoints(&[(zr.id(), 1.0)]);
        let af = fresh.adjoints(&[(zf.id(), 1.0)]);
        prop_assert_eq!(ar[xr.id()].to_bits(), af[xf.id()].to_bits());
        prop_assert_eq!(ar[yr.id()].to_bits(), af[yf.id()].to_bits());
    }
}
