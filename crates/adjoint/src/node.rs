//! DynDFG nodes: elementary operations with recorded local partials.

use std::fmt;

use crate::value::Scalar;

/// Index of a node within a [`Tape`](crate::Tape).
///
/// Node ids are dense and allocated in execution order, so `a.id() < b.id()`
/// whenever `a` was computed before `b` — the `i ≺ j ⇒ i < j` property of
/// the paper's three-part evaluation procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Sentinel used for unused predecessor slots.
    pub(crate) const INVALID: NodeId = NodeId(u32::MAX);

    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX - 1`.
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        assert!(index < u32::MAX as usize, "tape too large");
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// The elementary function `φ_j` a node represents (Eq. 2 of the paper:
/// arithmetic operations and C++ intrinsics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A registered input variable `x_k` (Eq. 1).
    Input,
    /// A literal constant.
    Const,
    /// `a + b`
    Add,
    /// `a − b`
    Sub,
    /// `a · b`
    Mul,
    /// `a / b`
    Div,
    /// `−a`
    Neg,
    /// `sin a`
    Sin,
    /// `cos a`
    Cos,
    /// `tan a`
    Tan,
    /// `eᵃ`
    Exp,
    /// `ln a`
    Ln,
    /// `√a`
    Sqrt,
    /// `a²`
    Sqr,
    /// `1/a`
    Recip,
    /// `aⁿ`, integer exponent
    Powi(i32),
    /// `aᵖ`, real exponent
    Powf(f64),
    /// `|a|`
    Abs,
    /// `atan a`
    Atan,
    /// `tanh a`
    Tanh,
    /// `sinh a`
    Sinh,
    /// `cosh a`
    Cosh,
    /// `erf a`
    Erf,
    /// standard-normal CDF `Φ(a)`
    Cndf,
    /// `√(a² + b²)`
    Hypot,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

impl Op {
    /// Number of predecessor operands (0 for inputs/constants).
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            Op::Input | Op::Const => 0,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Hypot | Op::Min | Op::Max => 2,
            _ => 1,
        }
    }

    /// `true` for the accumulation-friendly operators whose chains the
    /// Algorithm-1 `simplify` step (S4) may collapse.
    #[inline]
    pub fn is_additive(self) -> bool {
        matches!(self, Op::Add | Op::Sub)
    }

    /// Number of operator classes ([`Op::class_index`] codomain size).
    pub const CLASS_COUNT: usize = 27;

    /// Dense class index of this operator: parameterised variants
    /// (`Powi(n)`, `Powf(p)`) collapse onto one class each, so the
    /// index fits a fixed `[_; Op::CLASS_COUNT]` table with no hashing
    /// or string comparison on the hot path.
    #[inline]
    pub fn class_index(self) -> usize {
        match self {
            Op::Input => 0,
            Op::Const => 1,
            Op::Add => 2,
            Op::Sub => 3,
            Op::Mul => 4,
            Op::Div => 5,
            Op::Neg => 6,
            Op::Sin => 7,
            Op::Cos => 8,
            Op::Tan => 9,
            Op::Exp => 10,
            Op::Ln => 11,
            Op::Sqrt => 12,
            Op::Sqr => 13,
            Op::Recip => 14,
            Op::Powi(_) => 15,
            Op::Powf(_) => 16,
            Op::Abs => 17,
            Op::Atan => 18,
            Op::Tanh => 19,
            Op::Sinh => 20,
            Op::Cosh => 21,
            Op::Erf => 22,
            Op::Cndf => 23,
            Op::Hypot => 24,
            Op::Min => 25,
            Op::Max => 26,
        }
    }

    /// The mnemonic of operator class `index` (inverse of
    /// [`Op::class_index`] up to operator parameters).
    ///
    /// # Panics
    ///
    /// Panics if `index >= Op::CLASS_COUNT`.
    pub fn class_mnemonic(index: usize) -> &'static str {
        const MNEMONICS: [&str; Op::CLASS_COUNT] = [
            "in", "const", "+", "-", "*", "/", "neg", "sin", "cos", "tan", "exp", "ln", "sqrt",
            "sqr", "recip", "powi", "powf", "abs", "atan", "tanh", "sinh", "cosh", "erf", "cndf",
            "hypot", "min", "max",
        ];
        MNEMONICS[index]
    }

    /// Short mnemonic used by graph dumps.
    pub fn mnemonic(self) -> &'static str {
        Op::class_mnemonic(self.class_index())
    }

    /// The elemental function of this op at operands `a` (and `b` for
    /// binary ops): its value and its local partials `(∂φ/∂a, ∂φ/∂b)`
    /// (§2.1, Eq. 7–9). This is the one table of per-op formulas:
    /// recording ([`crate::Var::apply`]), lane replay
    /// ([`crate::CompiledTape::replay_lanes`]) and the soundness audit
    /// all evaluate through it, so each op's value and partials are
    /// written once and every mode computes the same bits. A unary op
    /// ignores `b` and returns a zero second partial.
    ///
    /// Products with a literal factor go through [`Scalar::mul_point`]
    /// (bit for bit the generic product, by its contract). `a / b` is
    /// `a · recip(b)`.
    ///
    /// # Panics
    ///
    /// Panics on `Op::Input` / `Op::Const`: leaves have no operands.
    ///
    /// # Example
    ///
    /// ```
    /// use scorpio_adjoint::Op;
    ///
    /// let (v, da, db) = Op::Mul.eval(3.0, 4.0);
    /// assert_eq!((v, da, db), (12.0, 4.0, 3.0));
    /// let (v, da, _) = Op::Sqr.eval(3.0f64, 0.0);
    /// assert_eq!((v, da), (9.0, 6.0));
    /// ```
    #[inline(always)]
    pub fn eval<V: Scalar>(self, a: V, b: V) -> (V, V, V) {
        match self {
            Op::Input | Op::Const => {
                unreachable!("Op::eval: Input/Const are leaves, not elemental functions")
            }
            Op::Add => (a + b, V::one(), V::one()),
            Op::Sub => (a - b, V::one(), -V::one()),
            Op::Mul => (a * b, b, a),
            Op::Div => {
                let inv = b.recip();
                (a * inv, inv, -a * inv.sqr())
            }
            Op::Neg => (-a, -V::one(), V::zero()),
            Op::Sin => (a.sin(), a.cos(), V::zero()),
            Op::Cos => (a.cos(), -a.sin(), V::zero()),
            Op::Tan => {
                let t = a.tan();
                (t, V::one() + t.sqr(), V::zero())
            }
            Op::Exp => {
                let e = a.exp();
                (e, e, V::zero())
            }
            Op::Ln => (a.ln(), a.recip(), V::zero()),
            Op::Sqrt => {
                let r = a.sqrt();
                (r, times(2.0, r).recip(), V::zero())
            }
            Op::Sqr => (a.sqr(), times(2.0, a), V::zero()),
            Op::Recip => (a.recip(), -a.sqr().recip(), V::zero()),
            Op::Powi(m) => {
                let partial = if m == 0 {
                    V::zero()
                } else {
                    times(m as f64, a.powi(m - 1))
                };
                (a.powi(m), partial, V::zero())
            }
            Op::Powf(p) => {
                let partial = if p == 0.0 {
                    V::zero()
                } else {
                    times(p, a.powf(p - 1.0))
                };
                (a.powf(p), partial, V::zero())
            }
            Op::Abs => (a.abs(), a.abs_deriv(), V::zero()),
            Op::Atan => (a.atan(), (V::one() + a.sqr()).recip(), V::zero()),
            Op::Tanh => {
                let t = a.tanh();
                (t, V::one() - t.sqr(), V::zero())
            }
            Op::Sinh => (a.sinh(), a.cosh(), V::zero()),
            Op::Cosh => (a.cosh(), a.sinh(), V::zero()),
            Op::Erf => {
                let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
                (a.erf(), times(two_over_sqrt_pi, (-a.sqr()).exp()), V::zero())
            }
            Op::Cndf => {
                let inv_sqrt_2pi = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
                (
                    a.cndf(),
                    times(inv_sqrt_2pi, (-a.sqr() / V::from_f64(2.0)).exp()),
                    V::zero(),
                )
            }
            Op::Hypot => {
                let v = a.hypot(b);
                let (pa, pb) = a.hypot_partials(b, v);
                (v, pa, pb)
            }
            Op::Min => {
                let (pa, pb) = a.min_partials(b);
                (a.min_val(b), pa, pb)
            }
            Op::Max => {
                let (pa, pb) = a.max_partials(b);
                (a.max_val(b), pa, pb)
            }
        }
    }
}

/// `V::from_f64(c) * x` through [`Scalar::mul_point`]: the product by a
/// literal factor in [`Op::eval`], and by a point constant in lane
/// replay.
#[inline(always)]
pub(crate) fn times<V: Scalar>(c: f64, x: V) -> V {
    x.mul_point(V::from_f64(c), c)
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Powi(n) => write!(f, "powi({n})"),
            Op::Powf(p) => write!(f, "powf({p})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// One recorded elementary operation: `value = op(preds)`, with the local
/// partial derivatives `∂φ/∂pred` captured at recording time (the edge
/// annotations of Fig. 1a in the paper).
#[derive(Debug, Clone, Copy)]
pub struct Node<V> {
    pub(crate) op: Op,
    pub(crate) preds: [NodeId; 2],
    pub(crate) partials: [V; 2],
    pub(crate) value: V,
}

impl<V: Copy> Node<V> {
    /// The elementary function this node applies.
    #[inline]
    pub fn op(&self) -> Op {
        self.op
    }

    /// The recorded result value `[u_j]`.
    #[inline]
    pub fn value(&self) -> V {
        self.value
    }

    /// Predecessor node ids (`i ≺ j`), in operand order.
    #[inline]
    pub fn preds(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.preds
            .iter()
            .take(self.op.arity())
            .copied()
            .filter(|&p| p != NodeId::INVALID)
    }

    /// Predecessors paired with the local partial `∂φ_j/∂u_i`.
    #[inline]
    pub fn pred_partials(&self) -> impl Iterator<Item = (NodeId, V)> + '_ {
        (0..self.op.arity())
            .filter(|&k| self.preds[k] != NodeId::INVALID)
            .map(|k| (self.preds[k], self.partials[k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_operator_class() {
        assert_eq!(Op::Input.arity(), 0);
        assert_eq!(Op::Sin.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Hypot.arity(), 2);
        assert_eq!(Op::Powi(3).arity(), 1);
    }

    #[test]
    fn additive_ops() {
        assert!(Op::Add.is_additive());
        assert!(Op::Sub.is_additive());
        assert!(!Op::Mul.is_additive());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::Add.to_string(), "+");
        assert_eq!(Op::Powi(3).to_string(), "powi(3)");
        assert_eq!(NodeId(7).to_string(), "u7");
    }

    #[test]
    fn class_table_agrees_with_mnemonics() {
        let ops = [
            Op::Input,
            Op::Const,
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
            Op::Powi(3),
            Op::Powf(0.5),
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
        assert_eq!(ops.len(), Op::CLASS_COUNT);
        let mut seen = [false; Op::CLASS_COUNT];
        for op in ops {
            assert_eq!(Op::class_mnemonic(op.class_index()), op.mnemonic());
            seen[op.class_index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "class indices must be dense");
    }

    #[test]
    fn node_pred_iteration() {
        let n = Node {
            op: Op::Add,
            preds: [NodeId(1), NodeId(2)],
            partials: [1.0, 1.0],
            value: 3.0,
        };
        let preds: Vec<_> = n.preds().collect();
        assert_eq!(preds, vec![NodeId(1), NodeId(2)]);
        let pp: Vec<_> = n.pred_partials().collect();
        assert_eq!(pp.len(), 2);
    }
}
