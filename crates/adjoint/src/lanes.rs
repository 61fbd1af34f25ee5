//! Lane replay: execute a compiled op stream once per **block of
//! `LANES` items** instead of once per item.
//!
//! This is the one replay interpreter of a [`CompiledTape`]. For
//! data-parallel workloads (pixels, options, DCT blocks) the op stream
//! is identical across items, so decoding one [`Op`] discriminant and
//! one predecessor pair per node is redundant across a batch. The lane
//! engine amortises it: [`LaneReplayBuffers`] stores one `[V; LANES]`
//! block per node (a structure-of-lane-blocks layout), and
//! [`CompiledTape::replay_lanes`] / [`CompiledTape::adjoints_into_lanes`]
//! walk the stream **once per lane block**, executing each op over all
//! `LANES` items with a fixed-width inner loop the compiler can
//! autovectorize. A single item is the width-1 instance.
//!
//! Memory layout:
//!
//! ```text
//! values[j]   = [ item0, item1, …, item{LANES-1} ]   // every node j
//! adj[j]      = [ ∇_{u_j} y per item … ]             // every node j
//! partials[k] = [ ∂φ/∂operand per item … ]           // nonlinear ops only
//! ```
//!
//! # Partials only where they are not free
//!
//! `Input`/`Const` have no operands, and the local partials of the
//! linear ops are literals or operand values: `±1` for `Add`/`Sub`/`Neg`
//! and the *other* operand's value for `Mul`. The forward loop stores
//! only those of the remaining (nonlinear) ops, one block per operand,
//! in execution order; the reverse sweep multiplies by literal `±1`
//! or reads the operand's `values` block for the linear ops and walks
//! the `partials` table backwards for the rest. It still computes
//! `partial · adj` with the same operands, so no rounding changes.
//!
//! # Point products
//!
//! Nearly every product in the sweeps has a point factor: the `±1` of
//! each `Add`/`Sub`/`Neg` step of the reverse sweep, and the constant of
//! a `Var · f64` product, which [`CompiledTape::compile`] marks in the op
//! stream when [`Scalar::nonzero_point`] says so (for an interval: a
//! finite nonzero point). Both sweeps multiply by such a point through
//! [`Scalar::mul_point`], which for intervals takes two corner products
//! instead of four (`Interval::mul_point`) and, for the literal `±1`,
//! folds to the rounding alone. An `Add` computes its `1 · adj` once for
//! both operands. The other factor of a marked product — the constant's
//! own adjoint, under [`AdjointDemand::All`] or when listed — keeps the
//! generic product. Every point product is the generic one bit for bit.
//!
//! A constant's block holds the same value on every replay of a trace,
//! so a buffer writes the constants' blocks only when it last replayed
//! another trace; [`LaneReplayBuffers::value`] reads them as before.
//!
//! # Adjoints on demand
//!
//! A `Const` node has no predecessors, so accumulating into its adjoint
//! feeds no other node. Most callers read only a few adjoints (a report
//! of the registered variables, a Monte-Carlo sample), so the sweep
//! takes an [`AdjointDemand`]: with [`AdjointDemand::Listed`] it skips
//! the `partial · adj` products into every constant not listed — on a
//! DCT trace a third of all nodes. Every other adjoint is unaffected.
//!
//! # Bit-identity
//!
//! Lane `l` of a lane replay performs exactly the scalar operations, in
//! exactly the order, that a fresh recording of item `l` performs — one
//! table, [`Op::eval`], computes every value and partial for both — so
//! each lane is bit-identical to re-recording at every width. The
//! reverse sweep preserves this by keeping [`Tape::adjoints_in`]'s
//! zero-adjoint skip *per lane*: the skip is not a harmless shortcut
//! under IEEE-754 (an infinite partial times a zero adjoint would inject
//! a NaN, and `-0.0 + 0.0` flips the sign of zero), so lanes whose
//! adjoint is zero must not accumulate.
//!
//! [`Tape::adjoints_in`]: crate::Tape::adjoints_in
//!
//! # Example
//!
//! ```
//! use scorpio_adjoint::{AdjointDemand, CompiledTape, LaneReplayBuffers, Tape};
//!
//! // Record y = x·sin(x) once…
//! let tape = Tape::<f64>::new();
//! let x = tape.var(0.3);
//! let y = x * x.sin();
//! let compiled = CompiledTape::compile(&tape);
//!
//! // …then replay four items with one walk of the op stream.
//! let mut buf = LaneReplayBuffers::<f64, 4>::new();
//! let xs = [0.1, 0.2, 0.3, 0.4];
//! compiled.replay_lanes(&[xs], &mut buf).unwrap();
//! compiled.adjoints_into_lanes(&[(y.id(), 1.0)], AdjointDemand::All, &mut buf);
//! for (l, &x0) in xs.iter().enumerate() {
//!     assert_eq!(buf.value(y.id(), l), x0 * x0.sin());
//!     let want = x0.sin() + x0 * x0.cos();
//!     assert!((buf.adjoint(x.id(), l) - want).abs() < 1e-15);
//! }
//! ```

use crate::compiled::{Code, CompiledTape, ShapeMismatch};
use crate::node::{times, NodeId, Op};
use crate::value::Scalar;

/// Reusable lane-blocked value/partial/adjoint buffers for
/// [`CompiledTape::replay_lanes`] — the replay-mode analogue of the
/// tape arena plus adjoint scratch vector. One `[V; LANES]` value and
/// adjoint block per node, partial blocks for nonlinear ops only; one
/// set per worker; sized on first replay, zero allocation afterwards.
#[derive(Debug, Clone)]
pub struct LaneReplayBuffers<V, const LANES: usize> {
    values: Vec<[V; LANES]>,
    /// Local partials of the nonlinear ops (see [`stores_partials`]),
    /// one block per operand, in execution order.
    partials: Vec<[V; LANES]>,
    adj: Vec<[V; LANES]>,
    /// Per node: does the reverse sweep accumulate into its adjoint?
    /// Rebuilt by every sweep from its [`AdjointDemand`].
    accumulate: Vec<bool>,
    /// Id of the compiled trace whose constants `values` holds (0 for
    /// none): a replay of that trace again leaves their blocks alone.
    consts_of: u64,
}

impl<V: Scalar, const LANES: usize> LaneReplayBuffers<V, LANES> {
    /// Empty buffers; the first replay sizes them.
    pub fn new() -> LaneReplayBuffers<V, LANES> {
        LaneReplayBuffers {
            values: Vec::new(),
            partials: Vec::new(),
            adj: Vec::new(),
            accumulate: Vec::new(),
            consts_of: 0,
        }
    }

    /// The replayed value `[u_j]` of node `id` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `lane` is out of range for the last replayed
    /// trace.
    pub fn value(&self, id: NodeId, lane: usize) -> V {
        self.values[id.index()][lane]
    }

    /// The adjoint `∇_{u_j} y` of node `id` in lane `lane` from the
    /// last [`CompiledTape::adjoints_into_lanes`] sweep.
    ///
    /// A `Const` node the sweep's [`AdjointDemand`] did not ask for is
    /// not accumulated into: its slot holds only the seeds the sweep was
    /// given for it, so zero unless the constant was itself seeded.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `lane` is out of range or no sweep has run.
    pub fn adjoint(&self, id: NodeId, lane: usize) -> V {
        self.adj[id.index()][lane]
    }
}

impl<V: Scalar, const LANES: usize> Default for LaneReplayBuffers<V, LANES> {
    fn default() -> Self {
        LaneReplayBuffers::new()
    }
}

/// The adjoints a [`CompiledTape::adjoints_into_lanes`] sweep must
/// produce. Every non-`Const` node's adjoint is always exact (other
/// adjoints flow through it); the demand decides only which constants'
/// adjoints are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjointDemand<'a> {
    /// Every node, constants included — what a node-level report reads.
    All,
    /// The non-`Const` nodes plus these (typically the registered
    /// variables); any other constant's slot keeps only its seeds.
    Listed(&'a [NodeId]),
}

/// `true` for the ops whose local partials the forward loop stores: all
/// but `Input`/`Const` (no operands) and the linear `Add`/`Sub`/`Neg`/
/// `Mul`, whose partials the reverse sweep rebuilds as `±1` literals or
/// operand values — the same values [`Op::eval`] returns for them.
#[inline(always)]
fn stores_partials(op: Op) -> bool {
    !matches!(
        op,
        Op::Input | Op::Const | Op::Add | Op::Sub | Op::Neg | Op::Mul
    )
}

/// Evaluates one compute op over a whole lane block. `op` is passed by
/// the caller's per-variant dispatch so that after inlining the
/// [`Op::eval`] match folds to a single arm, leaving a straight-line
/// fixed-width loop the compiler autovectorizes; a caller that drops the
/// partials lets the compiler drop their computation too.
#[inline(always)]
fn eval_op_lanes<V: Scalar, const LANES: usize>(
    op: Op,
    a: &[V; LANES],
    b: &[V; LANES],
) -> ([V; LANES], [V; LANES], [V; LANES]) {
    let mut v = [V::zero(); LANES];
    let mut pa = [V::zero(); LANES];
    let mut pb = [V::zero(); LANES];
    for l in 0..LANES {
        let (x, da, db) = op.eval(a[l], b[l]);
        v[l] = x;
        pa[l] = da;
        pb[l] = db;
    }
    (v, pa, pb)
}

/// `[c] · x` over a lane block ([`times`] per lane): a product the
/// compiled stream marks as a point product, or the `1 · a` of an `Add`
/// in the reverse sweep.
#[inline(always)]
fn mul_point_lanes<V: Scalar, const LANES: usize>(x: &[V; LANES], c: f64) -> [V; LANES] {
    let mut v = [V::zero(); LANES];
    for (v, &x) in v.iter_mut().zip(x) {
        *v = times(c, x);
    }
    v
}

/// `slot[l] += term(l, a[l])` in every lane whose adjoint `a[l]` is
/// nonzero. The per-lane zero skip mirrors the recorded sweep's
/// `is_zero` guard: skipping is not a no-op under IEEE-754 (inf/NaN
/// partials times a zero adjoint inject NaNs; `-0.0 + 0.0` flips the
/// sign of zero), so a lane only accumulates when its recorded twin
/// would.
#[inline(always)]
fn add_terms<V: Scalar, const LANES: usize>(
    slot: &mut [V; LANES],
    a: &[V; LANES],
    term: impl Fn(usize, V) -> V,
) {
    for l in 0..LANES {
        if !a[l].is_zero() {
            slot[l] = slot[l] + term(l, a[l]);
        }
    }
}

impl<V: Scalar> CompiledTape<V> {
    /// Replays the trace for a whole block of `LANES` items at once:
    /// one walk of the op stream, each op evaluated over a fixed-width
    /// lane array. `inputs` is **slot-major**: `inputs[s][l]` is the
    /// value bound to input slot `s` for item `l` (transposed from the
    /// per-item layout a recording binds).
    ///
    /// Each lane is bit-identical to a fresh recording of the same item
    /// (see the [module docs](crate::lanes) for why).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatch`] (leaving `buf` unspecified) when
    /// `inputs` does not provide exactly one lane block per input slot.
    pub fn replay_lanes<const LANES: usize>(
        &self,
        inputs: &[[V; LANES]],
        buf: &mut LaneReplayBuffers<V, LANES>,
    ) -> Result<(), ShapeMismatch> {
        let _span = scorpio_obs::span_detail("forward_lanes");
        if inputs.len() != self.inputs.len() {
            return Err(ShapeMismatch {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        let n = self.code.len();
        // resize() both shrinks and grows; the fill value is only used
        // for growth and every slot is overwritten below — except the
        // constants' blocks, which hold the same values on every replay
        // of one trace and are written only when `buf` last replayed
        // another one.
        buf.values.resize(n, [V::zero(); LANES]);
        buf.partials.clear();
        let fill_consts = buf.consts_of != self.id;
        buf.consts_of = 0;
        let mut next_input = 0usize;
        for j in 0..n {
            match self.code[j] {
                Code::Op(Op::Input) => {
                    buf.values[j] = inputs[next_input];
                    next_input += 1;
                }
                Code::Op(Op::Const) => {
                    if fill_consts {
                        buf.values[j] = [self.recorded[j]; LANES];
                    }
                }
                Code::MulPointRhs(c) => {
                    let x = &buf.values[self.preds[j][0].index()];
                    buf.values[j] = mul_point_lanes(x, c);
                }
                Code::MulPointLhs(c) => {
                    let x = &buf.values[self.preds[j][1].index()];
                    buf.values[j] = mul_point_lanes(x, c);
                }
                Code::Op(op) => {
                    // Predecessor slots are always earlier in the
                    // sequence; copying the operand blocks out keeps the
                    // borrow checker happy and the lane loop tight.
                    // Unary nodes carry an INVALID second slot — only
                    // dereference it for binary ops.
                    let a = buf.values[self.preds[j][0].index()];
                    let b = if op.arity() == 2 {
                        buf.values[self.preds[j][1].index()]
                    } else {
                        [V::zero(); LANES]
                    };
                    // The arithmetic workhorses get literal-op calls so
                    // each inlined `Op::eval` match folds to one arm and
                    // the lane loop vectorizes; rarer ops share the
                    // generic arm (same code, one extra branch). The
                    // linear ops keep only the value.
                    buf.values[j] = match op {
                        Op::Add => eval_op_lanes(Op::Add, &a, &b).0,
                        Op::Sub => eval_op_lanes(Op::Sub, &a, &b).0,
                        Op::Mul => eval_op_lanes(Op::Mul, &a, &b).0,
                        Op::Neg => eval_op_lanes(Op::Neg, &a, &b).0,
                        _ => {
                            let (v, pa, pb) = match op {
                                Op::Div => eval_op_lanes(Op::Div, &a, &b),
                                Op::Sqr => eval_op_lanes(Op::Sqr, &a, &b),
                                other => eval_op_lanes(other, &a, &b),
                            };
                            buf.partials.push(pa);
                            if op.arity() == 2 {
                                buf.partials.push(pb);
                            }
                            v
                        }
                    };
                }
            }
        }
        buf.consts_of = self.id;
        Ok(())
    }

    /// Reverse (adjoint) sweep over the replayed lane blocks: every
    /// seed is broadcast across all `LANES` lanes, and each lane's
    /// accumulation is bit-identical to a [`crate::Tape::adjoints_in`]
    /// sweep over a fresh recording of that item — for every node
    /// under [`AdjointDemand::All`], and for every non-`Const` and every
    /// listed node under [`AdjointDemand::Listed`] (see
    /// [`LaneReplayBuffers::adjoint`] for the other constants).
    ///
    /// # Panics
    ///
    /// Panics if a seed or listed id is out of range, or if `buf` has
    /// not been filled by a [`CompiledTape::replay_lanes`] of this trace.
    pub fn adjoints_into_lanes<const LANES: usize>(
        &self,
        seeds: &[(NodeId, V)],
        demand: AdjointDemand<'_>,
        buf: &mut LaneReplayBuffers<V, LANES>,
    ) {
        let n = self.code.len();
        assert_eq!(
            buf.values.len(),
            n,
            "adjoints_into_lanes: buffers were not replayed for this trace"
        );
        let LaneReplayBuffers {
            values,
            partials,
            adj,
            accumulate,
            consts_of: _,
        } = buf;
        accumulate.clear();
        match demand {
            AdjointDemand::All => accumulate.resize(n, true),
            AdjointDemand::Listed(ids) => {
                accumulate.extend(self.code.iter().map(|&code| code != Code::Op(Op::Const)));
                for id in ids {
                    accumulate[id.index()] = true;
                }
            }
        }
        adj.clear();
        adj.resize(n, [V::zero(); LANES]);
        for &(id, seed) in seeds {
            for lane in &mut adj[id.index()] {
                *lane = *lane + seed;
            }
        }
        // The nonlinear ops' partial blocks, consumed back to front.
        let mut next_partial = partials.len();
        for j in (0..n).rev() {
            let code = self.code[j];
            if stores_partials(code.op()) {
                next_partial -= code.op().arity();
            }
            let a = adj[j];
            // Whole-node fast path: if every lane's adjoint is zero the
            // recorded sweep would skip this node in every lane.
            if a.iter().all(|x| x.is_zero()) {
                continue;
            }
            let [p0, p1] = self.preds[j];
            // `adj[pred] += partial · a`, lane by lane, where the recorded
            // sweep would (see `add_terms`). The partial is a point —
            // `±1` for the linear ops, the constant of a point product —
            // multiplied through `mul_point`, or a lane block: the other
            // operand of a generic `Mul`, a stored nonlinear partial.
            // Operands go in recorded order (first operand first), which
            // matters when both operands are one node.
            macro_rules! acc {
                ($pred:expr, $term:expr) => {
                    if accumulate[$pred.index()] {
                        add_terms(&mut adj[$pred.index()], &a, $term);
                    }
                };
            }
            match code {
                Code::Op(Op::Add) => {
                    // Both operands add the same `1 · a`.
                    let term = mul_point_lanes(&a, 1.0);
                    acc!(p0, |l, _| term[l]);
                    acc!(p1, |l, _| term[l]);
                }
                Code::Op(Op::Sub) => {
                    acc!(p0, |_, x| times(1.0, x));
                    acc!(p1, |_, x| x.mul_point(-V::one(), -1.0));
                }
                Code::Op(Op::Neg) => acc!(p0, |_, x| x.mul_point(-V::one(), -1.0)),
                Code::Op(Op::Mul) => {
                    let (v0, v1) = (&values[p0.index()], &values[p1.index()]);
                    acc!(p0, |l, x| v1[l] * x);
                    acc!(p1, |l, x| v0[l] * x);
                }
                Code::MulPointRhs(c) => {
                    let v0 = &values[p0.index()];
                    acc!(p0, |_, x| times(c, x));
                    acc!(p1, |l, x| v0[l] * x);
                }
                Code::MulPointLhs(c) => {
                    let v1 = &values[p1.index()];
                    acc!(p0, |l, x| v1[l] * x);
                    acc!(p1, |_, x| times(c, x));
                }
                Code::Op(op) => {
                    for (k, pred) in [p0, p1].into_iter().enumerate().take(op.arity()) {
                        let partial = &partials[next_partial + k];
                        acc!(pred, |l, x| partial[l] * x);
                    }
                }
            }
        }
        debug_assert_eq!(next_partial, 0, "partials table out of step with the op stream");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::tests::{
        assert_lanes_match_recording, record_all_ops, record_interval, same_f64, same_interval,
    };
    use crate::tape::Tape;
    use scorpio_interval::Interval;

    #[test]
    fn lane_replay_is_bit_identical_to_rerecording_f64() {
        let items: [[f64; 2]; 8] = std::array::from_fn(|l| {
            let t = l as f64;
            [0.4 - 0.3 * t, 1.1 + 0.7 * t]
        });
        assert_lanes_match_recording(items, record_all_ops, same_f64);
    }

    #[test]
    fn lane_replay_is_bit_identical_to_rerecording_interval() {
        let items = [0.125, 0.03125]
            .map(|r| [Interval::centered(0.5, r), Interval::centered(-0.25, r)]);
        assert_lanes_match_recording(items, record_interval, same_interval);
    }

    /// Zero adjoints must stay skipped per lane: a dead subtree with an
    /// infinite partial must not leak NaN into lanes that never touch
    /// it, and signed zeros must survive exactly as in a recorded sweep.
    #[test]
    fn lane_reverse_sweep_keeps_per_lane_zero_skip() {
        let tape = Tape::<f64>::new();
        let x = tape.var(0.0);
        let y = x.ln(); // ln(0) → -inf value, +inf partial
        let z = x + 1.0;
        let (y_id, z_id) = (y.id(), z.id());
        let compiled = CompiledTape::compile(&tape);

        // Seed only z: the ln node's adjoint is zero in every lane, so
        // its infinite partial must never be multiplied in.
        let mut lanes = LaneReplayBuffers::<f64, 2>::new();
        compiled.replay_lanes(&[[0.0, 0.5]], &mut lanes).unwrap();
        compiled.adjoints_into_lanes(&[(z_id, 1.0)], AdjointDemand::All, &mut lanes);
        for l in 0..2 {
            assert_eq!(lanes.adjoint(x.id(), l).to_bits(), 1.0f64.to_bits());
            assert!(lanes.adjoint(y_id, l) == 0.0);
        }
    }

    /// A buffer keeps a trace's constant blocks only while it replays
    /// that trace: alternating two traces of the same length through one
    /// buffer must read each trace's own constants every time.
    #[test]
    fn lane_buffers_rewrite_constants_for_another_trace() {
        let record = |scale: f64| {
            let tape = Tape::<f64>::new();
            let x = tape.var(1.0);
            let y = (x * scale).exp() + scale;
            (CompiledTape::compile(&tape), y.id())
        };
        let (a, b) = (record(2.0), record(-3.0));
        let mut buf = LaneReplayBuffers::<f64, 2>::new();
        for ((compiled, y), scale) in [(&a, 2.0), (&b, -3.0), (&a, 2.0)] {
            compiled.replay_lanes(&[[0.5, 0.25]], &mut buf).unwrap();
            for (l, x) in [0.5f64, 0.25].into_iter().enumerate() {
                assert_eq!(buf.value(*y, l), (x * scale).exp() + scale);
                assert_eq!(buf.value(NodeId::from_index(1), l), scale);
            }
        }
    }

    #[test]
    fn lane_replay_rejects_wrong_input_arity() {
        let tape = Tape::<f64>::new();
        let x = tape.var(1.0);
        let _ = x.exp();
        let compiled = CompiledTape::compile(&tape);
        let mut buf = LaneReplayBuffers::<f64, 4>::new();
        let err = compiled
            .replay_lanes(&[[1.0; 4], [2.0; 4]], &mut buf)
            .unwrap_err();
        assert_eq!(err, ShapeMismatch { expected: 1, got: 2 });
    }
}
