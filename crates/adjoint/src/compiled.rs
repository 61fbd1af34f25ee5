//! Record-once / replay-many: the [`CompiledTape`] structure-of-arrays
//! bytecode.
//!
//! Recording a trace through [`Tape`] pays for generality: every
//! elementary operation borrows the arena's `RefCell`, grows the node
//! vector, and boxes its operands behind the [`crate::Var`] overloads.
//! For data-parallel workloads (a per-pixel kernel analysis, a
//! Monte-Carlo sample, one point of a range sweep) the trace *structure*
//! is identical across items — only the input values differ — so all of
//! that bookkeeping is pure overhead after the first item.
//!
//! [`CompiledTape::compile`] flattens a recorded trace into parallel
//! arrays (one op, one predecessor pair and one recorded value per
//! node, with the input nodes indexed up front). A product by a constant
//! with a [`Scalar::nonzero_point`] is marked in the op stream itself, so
//! that replay multiplies by that point with [`Scalar::mul_point`] (the
//! [`lanes`](crate::lanes) module's "Point products"); every accessor
//! still reads it as the recorded `Op::Mul`.
//! [`CompiledTape::replay_lanes`] then re-evaluates the whole trace for
//! a block of fresh input values in a single tight forward loop — zero
//! `RefCell` borrows, zero node pushes, zero allocation in the steady
//! state — recomputing node values and the local partials of the
//! nonlinear ops through [`Op::eval`], the one table the [`crate::Var`]
//! overloads record through too (the linear ops' partials are `±1` or
//! an operand value, which the reverse sweep reads directly), so a
//! replayed sweep is bit-identical to a fresh recording of the same
//! trace; a single item is a block of width 1. [`CompiledTape::adjoints_into_lanes`] runs the reverse sweep
//! over the replayed buffers, mirroring [`Tape::adjoints_in`], for the
//! adjoints an [`AdjointDemand`](crate::AdjointDemand) asks for (see the
//! [`lanes`](crate::lanes) module).
//!
//! Replay is only sound while the trace shape is actually fixed:
//! recording is value-dependent (a branch can send different inputs
//! down different traces), which a replayer cannot detect because it
//! never re-runs the user closure. [`CompiledTape::replay_lanes`]
//! validates input arity; detecting control-flow divergence is the
//! caller's responsibility (the `scorpio-core` `ReplayOrRecord` driver
//! refuses to replay traces that executed a branch and falls back to
//! full re-recording).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::node::{NodeId, Op};
use crate::tape::{OpHistogram, Successors, Tape};
use crate::value::Scalar;

/// A recorded trace compiled into structure-of-arrays form for repeated
/// replay (the module docs above explain when replay is sound).
///
/// # Example
///
/// ```
/// use scorpio_adjoint::{AdjointDemand, CompiledTape, LaneReplayBuffers, Tape};
///
/// // Record y = x·sin(x) once…
/// let tape = Tape::<f64>::new();
/// let x = tape.var(0.3);
/// let y = x * x.sin();
/// let y_id = y.id();
/// let compiled = CompiledTape::compile(&tape);
///
/// // …then replay it for a different input without re-recording (one
/// // item is a lane block of width 1).
/// let mut buf = LaneReplayBuffers::<f64, 1>::new();
/// compiled.replay_lanes(&[[0.7]], &mut buf).unwrap();
/// assert_eq!(buf.value(y_id, 0), 0.7 * 0.7f64.sin());
/// compiled.adjoints_into_lanes(&[(y_id, 1.0)], AdjointDemand::All, &mut buf);
/// let want = 0.7f64.sin() + 0.7 * 0.7f64.cos();
/// assert!((buf.adjoint(x.id(), 0) - want).abs() < 1e-15);
/// ```
pub struct CompiledTape<V> {
    /// The op stream: the recorded ops, with point products marked.
    pub(crate) code: Vec<Code>,
    pub(crate) preds: Vec<[NodeId; 2]>,
    /// Values captured at compile time. Replay only reads the `Const`
    /// slots (constants are part of the trace, not of the per-item
    /// input), but keeping the full vector lets callers inspect the
    /// recorded trace without holding the original tape alive.
    pub(crate) recorded: Vec<V>,
    /// Input node ids in registration order — the positional slots
    /// [`CompiledTape::replay_lanes`] binds fresh values to.
    pub(crate) inputs: Vec<NodeId>,
    successors: Successors,
    histogram: OpHistogram,
    /// Unique per compiled trace: lets [`crate::LaneReplayBuffers`]
    /// that last replayed this trace keep its constants' lane blocks.
    pub(crate) id: u64,
}

/// One entry of the compiled op stream: the recorded [`Op`], except a
/// `Mul` whose operand is a constant with a
/// [`nonzero_point`](Scalar::nonzero_point), which carries that point so
/// both replay sweeps can multiply by it with [`Scalar::mul_point`]. The
/// marker rides in the payload bytes `Op::Powf` already reserves: the
/// stream is no larger than a plain `Vec<Op>`, and there is no side
/// table. [`CompiledTape::op`] reads every marked entry as `Op::Mul`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Code {
    /// A recorded op, replayed as recorded.
    Op(Op),
    /// `Op::Mul` with the point `c` as its second operand: `x · c`.
    MulPointRhs(f64),
    /// `Op::Mul` with the point `c` as its first operand: `c · x`.
    MulPointLhs(f64),
}

const _: () = assert!(std::mem::size_of::<Code>() == std::mem::size_of::<Op>());

impl Code {
    /// The recorded op.
    #[inline(always)]
    pub(crate) fn op(self) -> Op {
        match self {
            Code::Op(op) => op,
            Code::MulPointRhs(_) | Code::MulPointLhs(_) => Op::Mul,
        }
    }
}

impl<V: Scalar> CompiledTape<V> {
    /// Compiles the recorded trace of `tape` into replayable form.
    ///
    /// One pass over a borrow of the arena; the tape itself is left
    /// untouched and can keep recording afterwards.
    pub fn compile(tape: &Tape<V>) -> CompiledTape<V> {
        let _span = scorpio_obs::span("compile");
        scorpio_obs::count("compiled.nodes", tape.len() as u64);
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let (code, preds, recorded, inputs) = tape.with_nodes(|nodes| {
            let mut code = Vec::with_capacity(nodes.len());
            let mut preds = Vec::with_capacity(nodes.len());
            let mut recorded = Vec::with_capacity(nodes.len());
            let mut inputs = Vec::new();
            // The point of a `Const` operand, if the product may use it.
            let point = |p: NodeId| {
                let node = &nodes[p.index()];
                if node.op == Op::Const {
                    node.value.nonzero_point()
                } else {
                    None
                }
            };
            for (j, node) in nodes.iter().enumerate() {
                code.push(match node.op {
                    Op::Mul => match (point(node.preds[0]), point(node.preds[1])) {
                        (_, Some(c)) => Code::MulPointRhs(c),
                        (Some(c), None) => Code::MulPointLhs(c),
                        (None, None) => Code::Op(Op::Mul),
                    },
                    op => Code::Op(op),
                });
                preds.push(node.preds);
                recorded.push(node.value);
                if node.op == Op::Input {
                    inputs.push(NodeId::from_index(j));
                }
            }
            (code, preds, recorded, inputs)
        });
        CompiledTape {
            code,
            preds,
            recorded,
            inputs,
            successors: tape.successors(),
            histogram: tape.op_histogram(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of compiled nodes.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` if the compiled trace is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of input slots a replay must bind.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Input node ids in registration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Operator of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn op(&self, index: usize) -> Op {
        self.code[index].op()
    }

    /// Predecessors of node `index` (valid slots only), in operand
    /// order — the compiled equivalent of [`crate::Node::preds`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn preds_of(&self, index: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[index]
            .into_iter()
            .filter(|&p| p != NodeId::INVALID)
    }

    /// Value of node `index` as captured at compile time.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn recorded_value(&self, index: usize) -> V {
        self.recorded[index]
    }

    /// The forward-edge CSR of the trace, built once at compile time —
    /// repeated report generation over a compiled trace shares this
    /// instead of rebuilding the CSR per call ([`Tape::successors`]).
    pub fn successors(&self) -> &Successors {
        &self.successors
    }

    /// Per-operator-class node counts, computed once at compile time
    /// (the compiled analogue of [`Tape::op_histogram`]).
    pub fn op_histogram(&self) -> OpHistogram {
        self.histogram
    }
}

impl<V: Scalar> fmt::Debug for CompiledTape<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTape")
            .field("len", &self.len())
            .field("inputs", &self.inputs.len())
            .finish()
    }
}

/// Replay was handed a different number of input values than the
/// compiled trace has input slots — the structural guard of
/// [`CompiledTape::replay_lanes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Input slots the compiled trace expects.
    pub expected: usize,
    /// Input values the replay provided.
    pub got: usize,
}

impl fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay shape mismatch: compiled trace has {} input slot(s), got {} value(s)",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ShapeMismatch {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lanes::{AdjointDemand, LaneReplayBuffers};
    use scorpio_interval::Interval;

    /// Records a trace exercising every operator class.
    pub(crate) fn record_all_ops(tape: &Tape<f64>, x0: f64, y0: f64) -> NodeId {
        let x = tape.var(x0);
        let y = tape.var(y0);
        let c = tape.constant(0.75);
        let mut acc = x + y - c;
        acc = acc * x / (y + 2.5);
        acc = acc + (-x);
        acc = acc + x.sin() + x.cos() + (x * 0.3).tan();
        acc = acc + (x * 0.2).exp() + (y + 3.0).ln() + (y + 4.0).sqrt();
        acc = acc + x.sqr() + (y + 2.0).recip();
        acc = acc + x.powi(3) + (y + 5.0).powf(1.3) + x.powi(0);
        acc = acc + x.abs() + x.atan() + x.tanh() + (x * 0.5).sinh() + (x * 0.5).cosh();
        acc = acc + x.erf() + x.cndf();
        acc = acc + x.hypot(y) + x.min(y) + x.max(y);
        acc.id()
    }

    /// A two-input interval trace touching the interval-specific
    /// partials (hypot, min/max).
    pub(crate) fn record_interval(tape: &Tape<Interval>, x0: Interval, y0: Interval) -> NodeId {
        let x = tape.var(x0);
        let y = tape.var(y0);
        let s = (x.sqr() + y.sqr()) * 0.7;
        let z = (s.sin() + x.hypot(y)).exp() + x.min(y).max(x * 0.1);
        z.id()
    }

    /// An interval trace of products by constants: points on either side
    /// (`x · c`, `2.5 · y`, `±1`, a subnormal, a point times a point), the
    /// generic cases `0`, `-0`, `∞` and a non-point constant, and a
    /// product of two computed nodes. The first constant is the point of
    /// `x · c`, so a `Listed` sweep of [`assert_lanes_match_recording`]
    /// checks that constant's own adjoint too.
    pub(crate) fn record_point_products(
        tape: &Tape<Interval>,
        x0: Interval,
        y0: Interval,
    ) -> NodeId {
        let x = tape.var(x0);
        let y = tape.var(y0);
        let c = tape.constant(Interval::point(0.375));
        let wide = tape.constant(Interval::new(0.5, 2.0));
        let mut acc = x * c + 2.5 * y - y * -1.0 + (c * c) * x;
        acc = acc + x * 0.0 + y * -0.0 + wide * x;
        acc = acc + (x * f64::INFINITY).min(y) + y * f64::from_bits(1);
        (acc * acc).id()
    }

    /// Operands for [`record_point_products`]: `x` straddling zero,
    /// exactly zero (`0 · ∞`), and negative; `y` with a zero bound whose
    /// subnormal products underflow.
    pub(crate) fn point_product_items() -> [[Interval; 2]; 4] {
        [
            [Interval::centered(0.5, 0.125), Interval::centered(-0.25, 0.125)],
            [Interval::centered(-0.1, 0.25), Interval::centered(0.75, 0.5)],
            [Interval::ZERO, Interval::new(0.0, 1e-300)],
            [Interval::new(-3.0, -1.0), Interval::point(2.0)],
        ]
    }

    pub(crate) fn same_f64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    pub(crate) fn same_interval(a: Interval, b: Interval) -> bool {
        a.inf().to_bits() == b.inf().to_bits() && a.sup().to_bits() == b.sup().to_bits()
    }

    /// Lane-replays `items` (lane `l` binds `items[l]`) through the
    /// trace `record` produces, then checks every lane against a fresh
    /// recording of its item: every node value, and every adjoint of
    /// the full sweep ([`AdjointDemand::All`]). A second sweep over the
    /// same replay lists only the output and the trace's first constant
    /// ([`AdjointDemand::Listed`]): every non-`Const` node and the
    /// listed constant must still match, and every other constant's
    /// slot must hold zero (no seed reaches it).
    pub(crate) fn assert_lanes_match_recording<V: Scalar, const LANES: usize>(
        items: [[V; 2]; LANES],
        record: impl Fn(&Tape<V>, V, V) -> NodeId,
        same: impl Fn(V, V) -> bool,
    ) {
        let tape = Tape::<V>::new();
        let out = record(&tape, items[0][0], items[0][1]);
        let compiled = CompiledTape::compile(&tape);
        let first_const = (0..compiled.len())
            .find(|&j| compiled.op(j) == Op::Const)
            .map(NodeId::from_index)
            .expect("the trace records a constant");
        let staging: [[V; LANES]; 2] =
            std::array::from_fn(|s| std::array::from_fn(|l| items[l][s]));
        let mut full = LaneReplayBuffers::<V, LANES>::new();
        compiled.replay_lanes(&staging, &mut full).unwrap();
        let mut listed = full.clone();
        compiled.adjoints_into_lanes(&[(out, V::one())], AdjointDemand::All, &mut full);
        compiled.adjoints_into_lanes(
            &[(out, V::one())],
            AdjointDemand::Listed(&[out, first_const]),
            &mut listed,
        );

        for (l, &[x0, y0]) in items.iter().enumerate() {
            let fresh = Tape::<V>::new();
            let fresh_out = record(&fresh, x0, y0);
            assert_eq!(fresh_out, out, "trace shape must not depend on inputs");
            let adj = fresh.adjoints(&[(fresh_out, V::one())]);
            fresh.with_nodes(|nodes| {
                for (j, node) in nodes.iter().enumerate() {
                    let id = NodeId::from_index(j);
                    let op = node.op();
                    let (value, adjoint) = (full.value(id, l), full.adjoint(id, l));
                    assert!(same(value, node.value()), "value: node {j} lane {l} ({op:?})");
                    assert!(same(adjoint, adj.get(id)), "adjoint: node {j} lane {l} ({op:?})");
                    let want = if op != Op::Const || id == first_const {
                        adj.get(id)
                    } else {
                        V::zero()
                    };
                    assert!(
                        same(listed.adjoint(id, l), want),
                        "listed adjoint: node {j} lane {l} ({op:?})"
                    );
                }
            });
        }
    }

    const F64_ITEMS: [[f64; 2]; 4] = [[0.4, 1.1], [-0.8, 0.2], [1.7, -0.4], [0.01, 9.5]];

    #[test]
    fn replay_is_bit_identical_to_rerecording_f64() {
        for item in F64_ITEMS {
            assert_lanes_match_recording([item], record_all_ops, same_f64);
        }
        assert_lanes_match_recording(F64_ITEMS, record_all_ops, same_f64);
    }

    #[test]
    fn replay_is_bit_identical_to_rerecording_interval() {
        let items = [0.125, 0.5, 0.03125, 0.25]
            .map(|r| [Interval::centered(0.5, r), Interval::centered(-0.25, r)]);
        for item in items {
            assert_lanes_match_recording([item], record_interval, same_interval);
        }
        assert_lanes_match_recording(items, record_interval, same_interval);
    }

    #[test]
    fn point_products_replay_bit_identically() {
        let items = point_product_items();
        for item in items {
            assert_lanes_match_recording([item], record_point_products, same_interval);
        }
        assert_lanes_match_recording(items, record_point_products, same_interval);
    }

    /// Products with a finite nonzero point constant on either side are
    /// marked in the op stream; zero, infinite and non-point constants
    /// and products of computed nodes are not, nor is anything on an
    /// `f64` trace. Every accessor still reads each product as `Op::Mul`.
    #[test]
    fn compile_marks_point_products_and_reports_mul() {
        let [[x0, y0], _, _, _] = point_product_items();
        let tape = Tape::<Interval>::new();
        record_point_products(&tape, x0, y0);
        let compiled = CompiledTape::compile(&tape);
        let count = |want: fn(&Code) -> bool| compiled.code.iter().filter(|c| want(c)).count();
        // `x · c`, `c · c`, `y · -1`, `y · 5e-324`; then `2.5 · y`.
        assert_eq!(count(|c| matches!(c, Code::MulPointRhs(_))), 4);
        assert_eq!(count(|c| matches!(c, Code::MulPointLhs(_))), 1);
        // `(c·c) · x`, `x · 0`, `y · -0`, `wide · x`, `x · ∞`, `acc · acc`.
        assert_eq!(count(|c| *c == Code::Op(Op::Mul)), 6);
        tape.with_nodes(|nodes| {
            for (j, node) in nodes.iter().enumerate() {
                assert_eq!(compiled.op(j), node.op(), "node {j}");
                let preds: Vec<NodeId> = compiled.preds_of(j).collect();
                assert_eq!(preds, node.preds().collect::<Vec<_>>(), "node {j}");
            }
        });
        assert_eq!(compiled.op_histogram(), tape.op_histogram());

        let tape = Tape::<f64>::new();
        record_all_ops(&tape, 0.4, 1.1);
        let compiled = CompiledTape::compile(&tape);
        assert!(compiled.code.iter().all(|c| matches!(c, Code::Op(_))));
    }

    #[test]
    fn replay_rejects_wrong_input_arity() {
        let tape = Tape::<f64>::new();
        let x = tape.var(1.0);
        let _ = x.exp();
        let compiled = CompiledTape::compile(&tape);
        let err = compiled
            .replay_lanes(&[[1.0], [2.0]], &mut LaneReplayBuffers::new())
            .unwrap_err();
        assert_eq!(err, ShapeMismatch { expected: 1, got: 2 });
        assert!(err.to_string().contains("1 input slot"));
        let err = compiled
            .replay_lanes(&[[1.0; 4], [2.0; 4]], &mut LaneReplayBuffers::new())
            .unwrap_err();
        assert_eq!(err, ShapeMismatch { expected: 1, got: 2 });
    }

    #[test]
    fn compile_caches_csr_and_histogram() {
        let tape = Tape::<f64>::new();
        let x = tape.var(2.0);
        let y = x.sin() * x;
        let compiled = CompiledTape::compile(&tape);
        assert_eq!(compiled.successors(), &tape.successors());
        assert_eq!(compiled.op_histogram(), tape.op_histogram());
        assert_eq!(compiled.len(), tape.len());
        assert_eq!(compiled.input_count(), 1);
        assert_eq!(compiled.op(y.id().index()), Op::Mul);
        let preds: Vec<NodeId> = compiled.preds_of(y.id().index()).collect();
        assert_eq!(preds.len(), 2);
    }
}
