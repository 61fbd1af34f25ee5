//! The overloaded active value type [`Var`].

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::node::{NodeId, Op};
use crate::tape::Tape;
use crate::value::Scalar;

/// An active value: the Rust equivalent of `dco::ia1s::type` from the
/// paper (Listing 4). Arithmetic on `Var`s evaluates the operation on the
/// underlying [`Scalar`] *and* appends the corresponding node — with its
/// local partial derivatives — to the owning [`Tape`].
///
/// `Var` is `Copy`; it is a `(tape, node-id, cached value)` triple.
///
/// # Example
///
/// ```
/// use scorpio_adjoint::Tape;
///
/// let tape = Tape::<f64>::new();
/// let x = tape.var(2.0);
/// let y = (x * x + 1.0).sqrt();
/// assert!((y.value() - 5.0f64.sqrt()).abs() < 1e-15);
/// assert_eq!(tape.len(), 5); // x, x*x, const 1, +, sqrt
/// ```
pub struct Var<'t, V> {
    tape: &'t Tape<V>,
    id: NodeId,
    value: V,
}

impl<V: Scalar> Clone for Var<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V: Scalar> Copy for Var<'_, V> {}

impl<V: Scalar> fmt::Debug for Var<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.id)
            .field("value", &self.value)
            .finish()
    }
}

impl<'t, V: Scalar> Var<'t, V> {
    pub(crate) fn new(tape: &'t Tape<V>, id: NodeId, value: V) -> Var<'t, V> {
        Var { tape, id, value }
    }

    /// The DynDFG node this value was produced by.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The computed value `[u_j]`.
    #[inline]
    pub fn value(&self) -> V {
        self.value
    }

    /// The tape this value records onto.
    #[inline]
    pub fn tape(&self) -> &'t Tape<V> {
        self.tape
    }

    /// Applies the elemental function `op` to `self` (and `rhs` for a
    /// binary op) and records the node with the value and local
    /// partials of [`Op::eval`] — the one table every `Var` operation
    /// records through. A unary op ignores `rhs` (pass `self`).
    ///
    /// # Panics
    ///
    /// Panics on `Op::Input` / `Op::Const`, and if a binary op's
    /// operands belong to different tapes.
    ///
    /// # Example
    ///
    /// ```
    /// use scorpio_adjoint::{Op, Tape};
    ///
    /// let tape = Tape::<f64>::new();
    /// let x = tape.var(0.5);
    /// let y = tape.var(2.0);
    /// assert_eq!(x.apply(Op::Sin, x).value(), x.sin().value());
    /// assert_eq!(x.apply(Op::Hypot, y).value(), x.hypot(y).value());
    /// ```
    #[inline(always)]
    pub fn apply(self, op: Op, rhs: Var<'t, V>) -> Var<'t, V> {
        let (value, pa, pb) = op.eval(self.value, rhs.value);
        let id = if op.arity() == 2 {
            assert!(
                std::ptr::eq(self.tape, rhs.tape),
                "Var operands belong to different tapes"
            );
            self.tape.record2(op, self.id, rhs.id, pa, pb, value)
        } else {
            self.tape.record1(op, self.id, pa, value)
        };
        Var::new(self.tape, id, value)
    }

    /// Lifts a plain scalar to a recorded constant on the same tape.
    #[inline]
    pub fn lift(&self, value: V) -> Var<'t, V> {
        self.tape.constant(value)
    }

    /// Sine, with local partial `cos u`.
    pub fn sin(self) -> Var<'t, V> {
        self.apply(Op::Sin, self)
    }

    /// Cosine, with local partial `−sin u`.
    pub fn cos(self) -> Var<'t, V> {
        self.apply(Op::Cos, self)
    }

    /// Tangent, with local partial `1 + tan² u`.
    pub fn tan(self) -> Var<'t, V> {
        self.apply(Op::Tan, self)
    }

    /// Exponential, with local partial `eᵘ`.
    pub fn exp(self) -> Var<'t, V> {
        self.apply(Op::Exp, self)
    }

    /// Natural logarithm, with local partial `1/u`.
    pub fn ln(self) -> Var<'t, V> {
        self.apply(Op::Ln, self)
    }

    /// Square root, with local partial `1/(2√u)`.
    pub fn sqrt(self) -> Var<'t, V> {
        self.apply(Op::Sqrt, self)
    }

    /// Square, with local partial `2u` (tighter than `self * self` for
    /// interval scalars).
    pub fn sqr(self) -> Var<'t, V> {
        self.apply(Op::Sqr, self)
    }

    /// Reciprocal, with local partial `−1/u²`.
    pub fn recip(self) -> Var<'t, V> {
        self.apply(Op::Recip, self)
    }

    /// Integer power, with local partial `n·uⁿ⁻¹` (zero for `n = 0`).
    pub fn powi(self, n: i32) -> Var<'t, V> {
        self.apply(Op::Powi(n), self)
    }

    /// Real power, with local partial `p·uᵖ⁻¹`.
    pub fn powf(self, p: f64) -> Var<'t, V> {
        self.apply(Op::Powf(p), self)
    }

    /// Absolute value, with subgradient partial (see
    /// [`Scalar::abs_deriv`]).
    pub fn abs(self) -> Var<'t, V> {
        self.apply(Op::Abs, self)
    }

    /// Arc-tangent, with local partial `1/(1 + u²)`.
    pub fn atan(self) -> Var<'t, V> {
        self.apply(Op::Atan, self)
    }

    /// Hyperbolic tangent, with local partial `1 − tanh² u`.
    pub fn tanh(self) -> Var<'t, V> {
        self.apply(Op::Tanh, self)
    }

    /// Hyperbolic sine, with local partial `cosh u`.
    pub fn sinh(self) -> Var<'t, V> {
        self.apply(Op::Sinh, self)
    }

    /// Hyperbolic cosine, with local partial `sinh u`.
    pub fn cosh(self) -> Var<'t, V> {
        self.apply(Op::Cosh, self)
    }

    /// Error function, with local partial `(2/√π)·e^(−u²)`.
    pub fn erf(self) -> Var<'t, V> {
        self.apply(Op::Erf, self)
    }

    /// Standard-normal CDF, with local partial `φ(u) = e^(−u²/2)/√(2π)`.
    pub fn cndf(self) -> Var<'t, V> {
        self.apply(Op::Cndf, self)
    }

    /// Euclidean norm `√(self² + other²)`.
    pub fn hypot(self, other: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Hypot, other)
    }

    /// Elementwise minimum with subgradient partials.
    pub fn min(self, other: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Min, other)
    }

    /// Elementwise maximum with subgradient partials.
    pub fn max(self, other: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Max, other)
    }
}

impl<'t, V: Scalar> Add for Var<'t, V> {
    type Output = Var<'t, V>;
    fn add(self, rhs: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Add, rhs)
    }
}

impl<'t, V: Scalar> Sub for Var<'t, V> {
    type Output = Var<'t, V>;
    fn sub(self, rhs: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Sub, rhs)
    }
}

impl<'t, V: Scalar> Mul for Var<'t, V> {
    type Output = Var<'t, V>;
    fn mul(self, rhs: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Mul, rhs)
    }
}

impl<'t, V: Scalar> Div for Var<'t, V> {
    type Output = Var<'t, V>;
    fn div(self, rhs: Var<'t, V>) -> Var<'t, V> {
        self.apply(Op::Div, rhs)
    }
}

impl<'t, V: Scalar> Neg for Var<'t, V> {
    type Output = Var<'t, V>;
    fn neg(self) -> Var<'t, V> {
        self.apply(Op::Neg, self)
    }
}

// Mixed Var ⊙ f64 operators: the scalar is recorded as a constant node so
// the DynDFG stays self-contained.
macro_rules! mixed_ops {
    ($($trait:ident :: $method:ident),* $(,)?) => {
        $(
            impl<'t, V: Scalar> $trait<f64> for Var<'t, V> {
                type Output = Var<'t, V>;
                fn $method(self, rhs: f64) -> Var<'t, V> {
                    let c = self.tape.constant_f64(rhs);
                    $trait::$method(self, c)
                }
            }
            impl<'t, V: Scalar> $trait<Var<'t, V>> for f64 {
                type Output = Var<'t, V>;
                fn $method(self, rhs: Var<'t, V>) -> Var<'t, V> {
                    let c = rhs.tape.constant_f64(self);
                    $trait::$method(c, rhs)
                }
            }
        )*
    };
}

mixed_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

#[cfg(test)]
mod tests {
    use crate::Tape;

    #[test]
    fn values_track_f64_arithmetic() {
        let tape = Tape::<f64>::new();
        let x = tape.var(3.0);
        let y = tape.var(4.0);
        assert_eq!((x + y).value(), 7.0);
        assert_eq!((x - y).value(), -1.0);
        assert_eq!((x * y).value(), 12.0);
        assert_eq!((x / y).value(), 0.75);
        assert_eq!((-x).value(), -3.0);
        assert_eq!(x.hypot(y).value(), 5.0);
        assert_eq!(x.min(y).value(), 3.0);
        assert_eq!(x.max(y).value(), 4.0);
    }

    #[test]
    fn mixed_scalar_ops_record_constants() {
        let tape = Tape::<f64>::new();
        let x = tape.var(2.0);
        let y = 3.0 * x + 1.0;
        assert_eq!(y.value(), 7.0);
        // x, const 3, mul, const 1, add
        assert_eq!(tape.len(), 5);
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn cross_tape_operands_panic() {
        let t1 = Tape::<f64>::new();
        let t2 = Tape::<f64>::new();
        let a = t1.var(1.0);
        let b = t2.var(2.0);
        let _ = a + b;
    }

    #[test]
    fn powi_zero_has_zero_partial() {
        let tape = Tape::<f64>::new();
        let x = tape.var(5.0);
        let y = x.powi(0);
        assert_eq!(y.value(), 1.0);
        let adj = tape.adjoints(&[(y.id(), 1.0)]);
        assert_eq!(adj[x.id()], 0.0);
    }
}
