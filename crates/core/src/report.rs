//! The analysis report: per-variable significances and the exported graph.

use std::fmt;

use scorpio_adjoint::{AdjointDemand, CompiledTape, LaneReplayBuffers, NodeId, Op, Tape};
use scorpio_interval::Interval;

use crate::error::AnalysisError;
use crate::graph::{SigGraph, SigNode};
use crate::session::Registrations;
use crate::workflow::Partition;

/// The role a registered variable plays in the analysed computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Independent input with a declared range.
    Input,
    /// Named intermediate result.
    Intermediate,
    /// Registered output (adjoint seed).
    Output,
}

impl VarKind {
    /// `"input"`, `"intermediate"` or `"output"`: the spelling of
    /// `Display`, the CSV export and the JSON records.
    pub fn as_str(self) -> &'static str {
        match self {
            VarKind::Input => "input",
            VarKind::Intermediate => "intermediate",
            VarKind::Output => "output",
        }
    }
}

impl fmt::Display for VarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A registered variable with its analysis results.
#[derive(Debug, Clone)]
pub struct RegisteredVar {
    /// Registration name.
    pub name: String,
    /// Role in the computation.
    pub kind: VarKind,
    /// DynDFG node the variable was bound to.
    pub node: NodeId,
    /// Interval enclosure `[u]` from the forward sweep.
    pub enclosure: Interval,
    /// Interval adjoint `∇_{[u]}[y]` from the reverse sweep.
    pub derivative: Interval,
    /// Raw significance `S_y(u) = w([u] · ∇_{[u]}[y])` (Eq. 11).
    pub significance_raw: f64,
    /// Significance normalized by the total output significance, the
    /// scale Fig. 3 of the paper reports (final result ≡ 1.0).
    pub significance: f64,
}

/// The result of a significance-analysis run: the registered rows
/// (reached through `Deref` to [`VarSignificances`]) plus the
/// node-level significance graph.
///
/// Produced by [`crate::Analysis::run`]; see the crate docs for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct Report {
    rows: VarSignificances,
    graph: SigGraph,
    delta: f64,
    empty_nodes: Vec<usize>,
}

impl std::ops::Deref for Report {
    type Target = VarSignificances;

    fn deref(&self) -> &VarSignificances {
        &self.rows
    }
}

impl Report {
    /// The significance-annotated DynDFG (input to Algorithm-1 steps
    /// S4/S5).
    pub fn graph(&self) -> &SigGraph {
        &self.graph
    }

    /// Convenience for the full Algorithm-1 pipeline: simplify (S4) then
    /// partition with the configured δ (S5).
    pub fn partition(&self) -> Partition {
        self.graph.simplified().into_partition(self.delta)
    }

    /// DynDFG node ids whose forward enclosure is the EMPTY interval.
    ///
    /// An empty enclosure means the recorded operation has no result
    /// for *any* point of the input box (e.g. division by an exact
    /// zero interval), so Eq. 11 is undefined there: those nodes carry
    /// `NaN` significance instead of silently ranking last, and the
    /// analysis surfaces them here for diagnosis.
    pub fn empty_enclosures(&self) -> &[usize] {
        &self.empty_nodes
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "significance report ({} nodes, {} registered)",
            self.tape_len(),
            self.registered().len()
        )?;
        writeln!(
            f,
            "{:<20} {:<13} {:>11} {:>26} {:>26}",
            "name", "kind", "S (norm)", "enclosure", "derivative"
        )?;
        for v in self.registered() {
            writeln!(
                f,
                "{:<20} {:<13} {:>11.4} {:>26} {:>26}",
                v.name,
                v.kind.as_str(),
                v.significance,
                v.enclosure.to_string(),
                v.derivative.to_string()
            )?;
        }
        if !self.empty_nodes.is_empty() {
            writeln!(
                f,
                "warning: {} node(s) with EMPTY enclosure (NaN significance): {:?}",
                self.empty_nodes.len(),
                self.empty_nodes
            )?;
        }
        Ok(())
    }
}

/// Eq. 11 significance with the EMPTY-enclosure policy: a node whose
/// value or adjoint enclosure is empty has no defined significance —
/// Eq. 11 computes the width of a product over a set with no members —
/// so it reports `NaN` explicitly rather than relying on how
/// `nearest::mul` happens to treat empty operands. Callers that rank
/// or aggregate must treat the NaN as "undefined", not "zero"; the
/// report surfaces the affected nodes via [`Report::empty_enclosures`].
fn significance_raw_from(value: Interval, adjoint: Interval) -> f64 {
    if value.is_empty() || adjoint.is_empty() {
        f64::NAN
    } else {
        scorpio_interval::nearest::mul(value, adjoint).width()
    }
}

/// The registered-variable rows of a run: all of a [`Report`] but its
/// node-level [`SigGraph`], and the light extraction the batch replay
/// entry points use when only named significances are consumed. The
/// rows of a replay are computed by the same floating-point operations
/// as a recording's, so they are bit-identical to a full report's.
#[derive(Debug, Clone)]
pub struct VarSignificances {
    vars: Vec<RegisteredVar>,
    output_significance_raw: f64,
    tape_len: usize,
}

impl VarSignificances {
    /// No rows yet: the state a lane scratch's rows start in before the
    /// first refill names them.
    pub(crate) fn empty() -> VarSignificances {
        VarSignificances {
            vars: Vec::new(),
            output_significance_raw: 0.0,
            tape_len: 0,
        }
    }

    /// All registered variables in registration order.
    pub fn registered(&self) -> &[RegisteredVar] {
        &self.vars
    }

    /// Registered variables of one kind.
    pub fn registered_of(&self, kind: VarKind) -> impl Iterator<Item = &RegisteredVar> {
        self.vars.iter().filter(move |v| v.kind == kind)
    }

    /// Looks up a registered variable by name.
    pub fn var(&self, name: &str) -> Option<&RegisteredVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Normalized significance of a registered variable, if present.
    ///
    /// ```
    /// use scorpio_core::Analysis;
    /// let report = Analysis::new().run(|ctx| {
    ///     let x = ctx.input("x", 0.0, 1.0);
    ///     let y = x.sqr();
    ///     ctx.output(&y, "y");
    ///     Ok(())
    /// }).unwrap();
    /// assert_eq!(report.significance_of("y"), Some(1.0));
    /// assert!(report.significance_of("nope").is_none());
    /// ```
    pub fn significance_of(&self, name: &str) -> Option<f64> {
        self.var(name).map(|v| v.significance)
    }

    /// Raw (un-normalized) total output significance `Σ_i w([y_i])`,
    /// the normalization denominator.
    pub fn output_significance_raw(&self) -> f64 {
        self.output_significance_raw
    }

    /// Number of DynDFG nodes the run recorded (or replayed).
    pub fn tape_len(&self) -> usize {
        self.tape_len
    }
}

mod sealed {
    use super::{RegisteredVar, SigGraph};

    /// The constructor half of [`OutputDetail`](super::OutputDetail),
    /// unreachable from outside the crate so the trait stays closed.
    pub trait Sealed: Sized {
        /// `true` when the result reads every node's adjoint (the
        /// node-level graph), `false` when only the registered rows'.
        const READS_EVERY_NODE: bool;

        /// Wraps finished rows; `graph` builds the node-level graph and
        /// the empty-enclosure list, and is only called by [`Report`](super::Report).
        fn assemble(
            rows: Vec<RegisteredVar>,
            output_significance_raw: f64,
            tape_len: usize,
            delta: f64,
            graph: impl FnOnce() -> (SigGraph, Vec<usize>),
        ) -> Self;
    }
}

/// The detail level an analysis run produces: a full [`Report`]
/// (registered rows plus the node-level [`SigGraph`]) or the registered
/// rows only ([`VarSignificances`], which skips the graph). The
/// [`crate::ReplayOrRecord`] driver is generic over it; the trait is
/// sealed, and those two types are its only implementations.
pub trait OutputDetail: sealed::Sealed {}

impl OutputDetail for Report {}
impl OutputDetail for VarSignificances {}

impl sealed::Sealed for Report {
    const READS_EVERY_NODE: bool = true;

    fn assemble(
        vars: Vec<RegisteredVar>,
        output_significance_raw: f64,
        tape_len: usize,
        delta: f64,
        graph: impl FnOnce() -> (SigGraph, Vec<usize>),
    ) -> Report {
        let (graph, empty_nodes) = graph();
        Report {
            rows: VarSignificances {
                vars,
                output_significance_raw,
                tape_len,
            },
            graph,
            delta,
            empty_nodes,
        }
    }
}

impl sealed::Sealed for VarSignificances {
    const READS_EVERY_NODE: bool = false;

    fn assemble(
        vars: Vec<RegisteredVar>,
        output_significance_raw: f64,
        tape_len: usize,
        _delta: f64,
        _graph: impl FnOnce() -> (SigGraph, Vec<usize>),
    ) -> VarSignificances {
        VarSignificances {
            vars,
            output_significance_raw,
            tape_len,
        }
    }
}

/// Output node ids of `regs`, every one seeded with adjoint 1 (§2.3,
/// vector functions). Empty when nothing was registered as an output.
fn output_seeds(regs: &Registrations) -> Vec<(NodeId, Interval)> {
    regs.entries
        .iter()
        .filter(|e| e.kind == VarKind::Output)
        .map(|e| (e.node, Interval::ONE))
        .collect()
}

/// [`AnalysisError::NoOutputs`] when `seeds` is empty: Eq. 11 needs an
/// output to differentiate.
fn require_outputs(seeds: &[(NodeId, Interval)]) -> Result<(), AnalysisError> {
    if seeds.is_empty() {
        Err(AnalysisError::NoOutputs)
    } else {
        Ok(())
    }
}

/// The summed raw significance of the outputs, `Σ_i w([y_i])`: the
/// normalization denominator of Eq. 11.
fn output_total_raw(seeds: &[(NodeId, Interval)], significance_raw: impl Fn(NodeId) -> f64) -> f64 {
    seeds.iter().map(|&(o, _)| significance_raw(o)).sum()
}

/// A raw significance normalized by `total_raw` (left raw when the
/// total is zero or not finite).
fn normalize(raw: f64, total_raw: f64) -> f64 {
    if total_raw > 0.0 && total_raw.is_finite() {
        raw / total_raw
    } else {
        raw
    }
}

/// Writes the registered rows of `regs` into `rows`. When `named` is
/// `true`, `rows` already holds `regs`'s rows from an earlier fill (same
/// names, kinds and nodes) and only the numbers are overwritten;
/// otherwise the rows are rebuilt first. The numbers are the Eq. 11
/// arithmetic of one finished forward and reverse sweep, looked up per
/// node by `value_of` / `adjoint_of`.
fn fill_rows(
    rows: &mut Vec<RegisteredVar>,
    regs: &Registrations,
    named: bool,
    value_of: impl Fn(NodeId) -> Interval,
    adjoint_of: impl Fn(NodeId) -> Interval,
    total_raw: f64,
) {
    if !named {
        rows.clear();
        rows.extend(regs.entries.iter().map(|entry| RegisteredVar {
            name: entry.name.clone(),
            kind: entry.kind,
            node: entry.node,
            enclosure: Interval::EMPTY,
            derivative: Interval::EMPTY,
            significance_raw: f64::NAN,
            significance: f64::NAN,
        }));
    }
    debug_assert_eq!(rows.len(), regs.entries.len());
    for row in rows.iter_mut() {
        let (value, adjoint) = (value_of(row.node), adjoint_of(row.node));
        let raw = significance_raw_from(value, adjoint);
        row.enclosure = value;
        row.derivative = adjoint;
        row.significance_raw = raw;
        row.significance = normalize(raw, total_raw);
    }
}

/// The single row/graph assembler behind every builder: evaluates
/// Eq. 11 (round-to-nearest product, normalized by the summed output
/// significances) for the registered rows ([`fill_rows`]) and, when `D`
/// asks for it, for every node of the graph. `value_of` / `adjoint_of`
/// look up one finished forward and reverse sweep per node and
/// `node_of` the node's operator and predecessors, so recorded and
/// replayed results run the same arithmetic and agree bit for bit. The
/// graph is written straight into its compact layout: a few
/// allocations in all, none per node.
fn assemble<D: OutputDetail, P: IntoIterator<Item = NodeId>>(
    regs: &Registrations,
    seeds: &[(NodeId, Interval)],
    delta: f64,
    len: usize,
    value_of: impl Fn(NodeId) -> Interval,
    adjoint_of: impl Fn(NodeId) -> Interval,
    node_of: impl Fn(usize) -> (Op, P),
) -> D {
    let significance_raw = |id: NodeId| significance_raw_from(value_of(id), adjoint_of(id));
    let total_raw = output_total_raw(seeds, significance_raw);
    let mut rows = Vec::with_capacity(regs.entries.len());
    fill_rows(&mut rows, regs, false, &value_of, &adjoint_of, total_raw);
    D::assemble(rows, total_raw, len, delta, || {
        // Every operator takes at most two operands.
        let mut graph = SigGraph::with_capacity(len, 2 * len);
        for i in 0..len {
            let id = NodeId::from_index(i);
            let (op, preds) = node_of(i);
            let significance = normalize(significance_raw(id), total_raw);
            graph.push(
                SigNode::new(i, op, value_of(id), adjoint_of(id), significance),
                preds.into_iter().map(NodeId::index),
            );
        }
        for entry in &regs.entries {
            graph.register(entry.node.index(), &entry.name, entry.kind == VarKind::Output);
        }
        let empty_nodes: Vec<usize> = graph
            .nodes()
            .iter()
            .filter(|n| n.value.is_empty())
            .map(|n| n.id)
            .collect();
        scorpio_obs::count("analysis.empty_enclosures", empty_nodes.len() as u64);
        let outputs = seeds.iter().map(|&(o, _)| o.index()).collect();
        (graph.finish(outputs), empty_nodes)
    })
}

/// Builds a result from a recorded tape: performs the reverse sweep
/// and evaluates Eq. 11. The sweep runs in the caller-provided
/// `scratch` buffer (cleared and resized as needed), which is handed
/// back on return, so arena-driven repeated analyses allocate the
/// adjoint vector once instead of per run.
pub(crate) fn build_recorded<D: OutputDetail>(
    tape: &Tape<Interval>,
    regs: &Registrations,
    delta: f64,
    scratch: &mut Vec<Interval>,
) -> Result<D, AnalysisError> {
    let seeds = output_seeds(regs);
    require_outputs(&seeds)?;
    let adjoints = {
        let _span = scorpio_obs::span("reverse");
        tape.adjoints_in(&seeds, std::mem::take(scratch))
    };
    let _span = scorpio_obs::span("significance");
    // One borrow of the arena for the whole assembly, rather than
    // cloning the trace or re-borrowing the tape per node.
    let result = tape.with_nodes(|nodes| {
        assemble(
            regs,
            &seeds,
            delta,
            nodes.len(),
            |id| nodes[id.index()].value(),
            |id| adjoints.get(id),
            |i| (nodes[i].op(), nodes[i].preds()),
        )
    });
    *scratch = adjoints.into_inner();
    Ok(result)
}

/// The registrations of a compiled trace with what every replay of it
/// reads, computed once when the trace is compiled: the output seeds
/// and the registered node ids.
pub(crate) struct ReplayRegs {
    regs: Registrations,
    seeds: Vec<(NodeId, Interval)>,
    registered: Vec<NodeId>,
}

impl ReplayRegs {
    pub(crate) fn new(regs: Registrations) -> ReplayRegs {
        let seeds = output_seeds(&regs);
        let registered = regs.entries.iter().map(|e| e.node).collect();
        ReplayRegs {
            regs,
            seeds,
            registered,
        }
    }
}

/// The reverse sweep over a replayed lane block: each output seeded
/// with 1 in every lane. `every_node` asks for every node's adjoint, as
/// a full report reads; otherwise only the registered nodes' are asked
/// for, which skips the accumulation into every unregistered constant.
/// The sweep mirrors [`Tape::adjoints_in`], so each lane's adjoints are
/// bit-identical to a recording's.
fn reverse_replayed<const LANES: usize>(
    compiled: &CompiledTape<Interval>,
    rr: &ReplayRegs,
    every_node: bool,
    buf: &mut LaneReplayBuffers<Interval, LANES>,
) -> Result<(), AnalysisError> {
    require_outputs(&rr.seeds)?;
    let _span = scorpio_obs::span_detail("reverse");
    let demand = if every_node {
        AdjointDemand::All
    } else {
        AdjointDemand::Listed(&rr.registered)
    };
    compiled.adjoints_into_lanes(&rr.seeds, demand, buf);
    Ok(())
}

/// Builds one result per lane of a block whose buffers
/// [`CompiledTape::replay_lanes`] has filled: one reverse sweep over
/// the lane buffers, then the shared assembly per lane, in lane (=
/// item) order. Values and partials are recomputed with the recording
/// formulas, so each lane is bit-identical to [`build_recorded`] over a
/// fresh recording of its item.
pub(crate) fn build_replayed<D: OutputDetail, const LANES: usize>(
    compiled: &CompiledTape<Interval>,
    rr: &ReplayRegs,
    delta: f64,
    buf: &mut LaneReplayBuffers<Interval, LANES>,
) -> Result<[D; LANES], AnalysisError> {
    reverse_replayed(compiled, rr, D::READS_EVERY_NODE, buf)?;
    let _span = scorpio_obs::span_detail("significance");
    let node_of = |i: usize| (compiled.op(i), compiled.preds_of(i));
    Ok(std::array::from_fn(|l| {
        assemble(
            &rr.regs,
            &rr.seeds,
            delta,
            compiled.len(),
            |id| buf.value(id, l),
            |id| buf.adjoint(id, l),
            node_of,
        )
    }))
}

/// [`build_replayed`] for the registered rows, written into `rows` in
/// place (one per lane) instead of into fresh ones. With `named`, the
/// rows already carry this trace's names from an earlier refill and
/// only the numbers are overwritten ([`fill_rows`]); the numbers are
/// the same arithmetic, so the rows are bit-identical to
/// `build_replayed::<VarSignificances, LANES>`'s.
pub(crate) fn refill_replayed<const LANES: usize>(
    compiled: &CompiledTape<Interval>,
    rr: &ReplayRegs,
    buf: &mut LaneReplayBuffers<Interval, LANES>,
    rows: &mut [VarSignificances; LANES],
    named: bool,
) -> Result<(), AnalysisError> {
    reverse_replayed(compiled, rr, false, buf)?;
    let _span = scorpio_obs::span_detail("significance");
    for (l, vars) in rows.iter_mut().enumerate() {
        let value_of = |id: NodeId| buf.value(id, l);
        let adjoint_of = |id: NodeId| buf.adjoint(id, l);
        let total_raw = output_total_raw(&rr.seeds, |id| {
            significance_raw_from(value_of(id), adjoint_of(id))
        });
        fill_rows(&mut vars.vars, &rr.regs, named, value_of, adjoint_of, total_raw);
        vars.output_significance_raw = total_raw;
        vars.tape_len = compiled.len();
    }
    Ok(())
}
