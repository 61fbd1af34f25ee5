//! The analysis report: per-variable significances and the exported graph.

use std::fmt;

use scorpio_adjoint::{CompiledTape, LaneReplayBuffers, NodeId, ReplayBuffers, Tape};
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

/// The result of a significance-analysis run.
///
/// Produced by [`crate::Analysis::run`]; see the crate docs for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct Report {
    registered: Vec<RegisteredVar>,
    graph: SigGraph,
    output_significance_raw: f64,
    delta: f64,
    tape_len: usize,
    empty_nodes: Vec<usize>,
}

impl Report {
    /// All registered variables in registration order.
    pub fn registered(&self) -> &[RegisteredVar] {
        &self.registered
    }

    /// Registered variables of one kind.
    pub fn registered_of(&self, kind: VarKind) -> impl Iterator<Item = &RegisteredVar> {
        self.registered.iter().filter(move |v| v.kind == kind)
    }

    /// Looks up a registered variable by name.
    pub fn var(&self, name: &str) -> Option<&RegisteredVar> {
        self.registered.iter().find(|v| v.name == name)
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

    /// The significance-annotated DynDFG (input to Algorithm-1 steps
    /// S4/S5).
    pub fn graph(&self) -> &SigGraph {
        &self.graph
    }

    /// Convenience for the full Algorithm-1 pipeline: simplify (S4) then
    /// partition with the configured δ (S5).
    pub fn partition(&self) -> Partition {
        self.graph.simplified().partition(self.delta)
    }

    /// Raw (un-normalized) total output significance `Σ_i w([y_i])`, the
    /// normalization denominator.
    pub fn output_significance_raw(&self) -> f64 {
        self.output_significance_raw
    }

    /// Number of DynDFG nodes the run recorded.
    pub fn tape_len(&self) -> usize {
        self.tape_len
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
            self.tape_len,
            self.registered.len()
        )?;
        writeln!(
            f,
            "{:<20} {:<13} {:>11} {:>26} {:>26}",
            "name", "kind", "S (norm)", "enclosure", "derivative"
        )?;
        for v in &self.registered {
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

/// Builds the report from a recorded tape: performs the reverse sweep
/// (with every registered output seeded by 1, per §2.3 for vector
/// functions) and evaluates Eq. 11 for every node. The reverse sweep
/// runs in the caller-provided `scratch` buffer (cleared and resized as
/// needed), which is handed back on return, so arena-driven repeated
/// analyses allocate the adjoint vector once instead of per run.
pub(crate) fn build_report_with(
    tape: &Tape<Interval>,
    regs: Registrations,
    delta: f64,
    scratch: &mut Vec<Interval>,
) -> Result<Report, AnalysisError> {
    let outputs = output_nodes(&regs)?;

    let seeds: Vec<(NodeId, Interval)> =
        outputs.iter().map(|&o| (o, Interval::ONE)).collect();
    let adjoints = {
        let _span = scorpio_obs::span("reverse");
        tape.adjoints_in(&seeds, std::mem::take(scratch))
    };

    let _span = scorpio_obs::span("significance");
    // Rows + normalization denominator via the shared assembly (Eq. 11
    // with the round-to-nearest product; see `registered_rows`).
    let (registered, total_raw) = registered_rows(
        &regs,
        &outputs,
        |node| tape.value(node),
        |node| adjoints.get(node),
    );
    let significance_raw = |node: NodeId, value: Interval| -> f64 {
        significance_raw_from(value, adjoints.get(node))
    };
    let normalize = |raw: f64| {
        if total_raw > 0.0 && total_raw.is_finite() {
            raw / total_raw
        } else {
            raw
        }
    };

    // Zero-copy graph construction: one borrow of the arena for the
    // whole loop, rather than cloning the trace (or re-borrowing the
    // tape per node) just to read it once.
    let mut nodes: Vec<SigNode> = tape.with_nodes(|nodes| {
        nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let id = NodeId::from_index(i);
                let raw = significance_raw(id, node.value());
                SigNode {
                    id: i,
                    op: node.op(),
                    preds: node.preds().map(|p| p.index()).collect(),
                    value: node.value(),
                    derivative: adjoints.get(id),
                    significance: normalize(raw),
                    level: None,
                    name: None,
                    is_output: false,
                    removed: false,
                }
            })
            .collect()
    });

    for entry in &regs.entries {
        let idx = entry.node.index();
        nodes[idx].name = Some(entry.name.clone());
        if entry.kind == VarKind::Output {
            nodes[idx].is_output = true;
        }
    }

    let empty_nodes: Vec<usize> = nodes
        .iter()
        .filter(|n| n.value.is_empty())
        .map(|n| n.id)
        .collect();
    scorpio_obs::count("analysis.empty_enclosures", empty_nodes.len() as u64);
    let graph = SigGraph::new(nodes, outputs.iter().map(|o| o.index()).collect());
    let report = Report {
        registered,
        graph,
        output_significance_raw: total_raw,
        delta,
        tape_len: tape.len(),
        empty_nodes,
    };
    *scratch = adjoints.into_inner();
    Ok(report)
}

/// The registered-variable rows of a report without the node-level
/// [`SigGraph`] — the light extraction the batch replay entry points
/// use when only named significances are consumed. Every field is
/// computed by the same floating-point operations as the corresponding
/// [`Report`] row, so the rows are bit-identical to a full report's.
#[derive(Debug, Clone)]
pub struct VarSignificances {
    vars: Vec<RegisteredVar>,
    output_significance_raw: f64,
    tape_len: usize,
}

impl VarSignificances {
    /// All registered variables in registration order.
    pub fn registered(&self) -> &[RegisteredVar] {
        &self.vars
    }

    /// Looks up a registered variable by name.
    pub fn var(&self, name: &str) -> Option<&RegisteredVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Normalized significance of a registered variable, if present.
    pub fn significance_of(&self, name: &str) -> Option<f64> {
        self.var(name).map(|v| v.significance)
    }

    /// Raw total output significance (the normalization denominator).
    pub fn output_significance_raw(&self) -> f64 {
        self.output_significance_raw
    }

    /// Number of DynDFG nodes the run recorded (or replayed).
    pub fn tape_len(&self) -> usize {
        self.tape_len
    }
}

/// Output node ids of `regs`, or the [`AnalysisError::NoOutputs`] error.
fn output_nodes(regs: &Registrations) -> Result<Vec<NodeId>, AnalysisError> {
    let outputs: Vec<NodeId> = regs
        .entries
        .iter()
        .filter(|e| e.kind == VarKind::Output)
        .map(|e| e.node)
        .collect();
    if outputs.is_empty() {
        return Err(AnalysisError::NoOutputs);
    }
    Ok(outputs)
}

/// Assembles the per-registration rows shared by every report flavour.
///
/// `value_of` / `adjoint_of` look up the forward and reverse sweep
/// results per node; the arithmetic (Eq. 11 + normalization) is exactly
/// [`build_report_with`]'s, so recorded and replayed rows agree bit for
/// bit.
fn registered_rows(
    regs: &Registrations,
    outputs: &[NodeId],
    value_of: impl Fn(NodeId) -> Interval,
    adjoint_of: impl Fn(NodeId) -> Interval,
) -> (Vec<RegisteredVar>, f64) {
    let significance_raw =
        |node: NodeId| -> f64 { significance_raw_from(value_of(node), adjoint_of(node)) };
    let total_raw: f64 = outputs.iter().map(|&o| significance_raw(o)).sum();
    let normalize = |raw: f64| {
        if total_raw > 0.0 && total_raw.is_finite() {
            raw / total_raw
        } else {
            raw
        }
    };
    let rows = regs
        .entries
        .iter()
        .map(|entry| {
            let raw = significance_raw(entry.node);
            RegisteredVar {
                name: entry.name.clone(),
                kind: entry.kind,
                node: entry.node,
                enclosure: value_of(entry.node),
                derivative: adjoint_of(entry.node),
                significance_raw: raw,
                significance: normalize(raw),
            }
        })
        .collect();
    (rows, total_raw)
}

/// [`build_report_with`]'s registered rows from a *recorded* tape,
/// without building the node graph.
pub(crate) fn build_vars_with(
    tape: &Tape<Interval>,
    regs: &Registrations,
    scratch: &mut Vec<Interval>,
) -> Result<VarSignificances, AnalysisError> {
    let outputs = output_nodes(regs)?;
    let seeds: Vec<(NodeId, Interval)> =
        outputs.iter().map(|&o| (o, Interval::ONE)).collect();
    let adjoints = {
        let _span = scorpio_obs::span("reverse");
        tape.adjoints_in(&seeds, std::mem::take(scratch))
    };
    let _span = scorpio_obs::span("significance");
    let (vars, total_raw) = registered_rows(
        regs,
        &outputs,
        |node| tape.value(node),
        |node| adjoints.get(node),
    );
    let result = VarSignificances {
        vars,
        output_significance_raw: total_raw,
        tape_len: tape.len(),
    };
    *scratch = adjoints.into_inner();
    Ok(result)
}

/// Runs the reverse sweep over already-replayed buffers (every output
/// seeded with 1, as in [`build_report_with`]).
fn replayed_adjoints(
    compiled: &CompiledTape<Interval>,
    outputs: &[NodeId],
    buf: &mut ReplayBuffers<Interval>,
) {
    let _span = scorpio_obs::span_detail("reverse");
    let seeds: Vec<(NodeId, Interval)> =
        outputs.iter().map(|&o| (o, Interval::ONE)).collect();
    compiled.adjoints_into(&seeds, buf);
}

/// Full report from a compiled trace whose buffers have been filled by
/// [`CompiledTape::replay`] — the replay-mode twin of
/// [`build_report_with`], producing bit-identical contents (values and
/// partials are recomputed with the recording formulas, the reverse
/// sweep mirrors [`Tape::adjoints_in`], and the assembly below runs the
/// same row/graph arithmetic).
pub(crate) fn build_report_replayed(
    compiled: &CompiledTape<Interval>,
    regs: &Registrations,
    delta: f64,
    buf: &mut ReplayBuffers<Interval>,
) -> Result<Report, AnalysisError> {
    let outputs = output_nodes(regs)?;
    replayed_adjoints(compiled, &outputs, buf);
    let _span = scorpio_obs::span_detail("significance");
    Ok(replayed_report_from(
        compiled,
        regs,
        &outputs,
        delta,
        |node| buf.value(node),
        |node| buf.adjoint(node),
    ))
}

/// Assembles one [`Report`] from replayed sweep results exposed via
/// accessor closures — shared by the scalar and the per-lane replayed
/// report builders, so lane-built reports run exactly the scalar
/// assembly arithmetic.
fn replayed_report_from(
    compiled: &CompiledTape<Interval>,
    regs: &Registrations,
    outputs: &[NodeId],
    delta: f64,
    value_of: impl Fn(NodeId) -> Interval,
    adjoint_of: impl Fn(NodeId) -> Interval,
) -> Report {
    let (registered, total_raw) = registered_rows(regs, outputs, &value_of, &adjoint_of);

    let significance_raw =
        |id: NodeId| -> f64 { significance_raw_from(value_of(id), adjoint_of(id)) };
    let normalize = |raw: f64| {
        if total_raw > 0.0 && total_raw.is_finite() {
            raw / total_raw
        } else {
            raw
        }
    };
    let mut nodes: Vec<SigNode> = (0..compiled.len())
        .map(|i| {
            let id = NodeId::from_index(i);
            SigNode {
                id: i,
                op: compiled.op(i),
                preds: compiled.preds_of(i).map(|p| p.index()).collect(),
                value: value_of(id),
                derivative: adjoint_of(id),
                significance: normalize(significance_raw(id)),
                level: None,
                name: None,
                is_output: false,
                removed: false,
            }
        })
        .collect();
    for entry in &regs.entries {
        let idx = entry.node.index();
        nodes[idx].name = Some(entry.name.clone());
        if entry.kind == VarKind::Output {
            nodes[idx].is_output = true;
        }
    }

    let empty_nodes: Vec<usize> = nodes
        .iter()
        .filter(|n| n.value.is_empty())
        .map(|n| n.id)
        .collect();
    scorpio_obs::count("analysis.empty_enclosures", empty_nodes.len() as u64);
    let graph = SigGraph::new(nodes, outputs.iter().map(|o| o.index()).collect());
    Report {
        registered,
        graph,
        output_significance_raw: total_raw,
        delta,
        tape_len: compiled.len(),
        empty_nodes,
    }
}

/// Full reports for every lane of a lane-replayed block — the lane twin
/// of [`build_report_replayed`]: one reverse sweep over the lane
/// buffers (each output seeded with 1 in every lane), then the shared
/// report assembly per lane. Appends `LANES` reports to `out` in lane
/// (= item) order.
pub(crate) fn build_report_replayed_lanes<const LANES: usize>(
    compiled: &CompiledTape<Interval>,
    regs: &Registrations,
    delta: f64,
    buf: &mut LaneReplayBuffers<Interval, LANES>,
    out: &mut Vec<Report>,
) -> Result<(), AnalysisError> {
    let outputs = output_nodes(regs)?;
    {
        let _span = scorpio_obs::span_detail("reverse");
        let seeds: Vec<(NodeId, Interval)> =
            outputs.iter().map(|&o| (o, Interval::ONE)).collect();
        compiled.adjoints_into_lanes(&seeds, buf);
    }
    let _span = scorpio_obs::span_detail("significance");
    for l in 0..LANES {
        out.push(replayed_report_from(
            compiled,
            regs,
            &outputs,
            delta,
            |node| buf.value(node, l),
            |node| buf.adjoint(node, l),
        ));
    }
    Ok(())
}

/// Registered rows for every lane of a lane-replayed block — the lane
/// twin of [`build_vars_replayed`]. Appends `LANES` results to `out`
/// in lane (= item) order; rows are bit-identical to what a scalar
/// replay of each item would produce.
pub(crate) fn build_vars_replayed_lanes<const LANES: usize>(
    compiled: &CompiledTape<Interval>,
    regs: &Registrations,
    buf: &mut LaneReplayBuffers<Interval, LANES>,
    out: &mut Vec<VarSignificances>,
) -> Result<(), AnalysisError> {
    let outputs = output_nodes(regs)?;
    {
        let _span = scorpio_obs::span_detail("reverse");
        let seeds: Vec<(NodeId, Interval)> =
            outputs.iter().map(|&o| (o, Interval::ONE)).collect();
        compiled.adjoints_into_lanes(&seeds, buf);
    }
    let _span = scorpio_obs::span_detail("significance");
    for l in 0..LANES {
        let (vars, total_raw) = registered_rows(
            regs,
            &outputs,
            |node| buf.value(node, l),
            |node| buf.adjoint(node, l),
        );
        out.push(VarSignificances {
            vars,
            output_significance_raw: total_raw,
            tape_len: compiled.len(),
        });
    }
    Ok(())
}

/// Registered rows only, from replayed buffers — the hot path of the
/// batch kernels (skips the whole per-node graph construction).
pub(crate) fn build_vars_replayed(
    compiled: &CompiledTape<Interval>,
    regs: &Registrations,
    buf: &mut ReplayBuffers<Interval>,
) -> Result<VarSignificances, AnalysisError> {
    let outputs = output_nodes(regs)?;
    replayed_adjoints(compiled, &outputs, buf);
    let _span = scorpio_obs::span_detail("significance");
    let (vars, total_raw) = registered_rows(
        regs,
        &outputs,
        |node| buf.value(node),
        |node| buf.adjoint(node),
    );
    Ok(VarSignificances {
        vars,
        output_significance_raw: total_raw,
        tape_len: compiled.len(),
    })
}
