//! The significance-annotated DynDFG exported by an analysis run
//! (the `G` of Algorithm 1, Fig. 2/3 of the paper).
//!
//! Layout: one fixed-size [`SigNode`] per node with no heap pointer in
//! it (80 B), the predecessor lists in one CSR buffer (`u32` offsets
//! plus `u32` ids) and the registration names in one per-graph table.
//! Building, copying or rewiring a graph therefore costs a handful of
//! allocations, not one per node.

use std::collections::VecDeque;
use std::fmt::Write as _;

use scorpio_adjoint::Op;
use scorpio_interval::Interval;

/// Name-table index of a node registered under no name.
const NO_NAME: u32 = u32::MAX;

/// One node of the exported significance graph. Its predecessors and
/// registration name live in the owning graph: [`SigGraph::preds`] and
/// [`SigGraph::name`].
#[derive(Debug, Clone)]
pub struct SigNode {
    /// Dense node index (matches the recording tape before
    /// simplification; stable across [`SigGraph::simplified`], which only
    /// rewires edges and marks nodes removed).
    pub id: usize,
    /// Elementary operation.
    pub op: Op,
    /// Interval enclosure `[u_j]` from the forward sweep.
    pub value: Interval,
    /// Interval adjoint `∇_{[u_j]}[y]` from the reverse sweep.
    pub derivative: Interval,
    /// Significance `S_y(u_j) = w([u_j] · ∇_{[u_j]}[y])` (Eq. 11),
    /// normalized by the total output significance so the final result
    /// reads 1.0 as in Fig. 3.
    pub significance: f64,
    /// BFS distance from the output level (outputs are level 0, Fig. 2);
    /// `None` if the node does not reach any output.
    pub level: Option<u32>,
    /// `true` for registered outputs.
    pub is_output: bool,
    /// `true` once the node has been collapsed away by
    /// [`SigGraph::simplified`] or truncated by the level cut.
    pub removed: bool,
    /// Index into the graph's name table, or [`NO_NAME`].
    name: u32,
}

impl SigNode {
    /// A node with no level, name or flag set yet.
    pub(crate) fn new(
        id: usize,
        op: Op,
        value: Interval,
        derivative: Interval,
        significance: f64,
    ) -> SigNode {
        SigNode {
            id,
            op,
            value,
            derivative,
            significance,
            level: None,
            is_output: false,
            removed: false,
            name: NO_NAME,
        }
    }
}

/// The registration names of one graph, stored back to back in `text`;
/// name `i` ends at byte `ends[i]`.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn push(&mut self, name: &str) -> u32 {
        self.text.push_str(name);
        self.ends.push(to_u32(self.text.len()));
        to_u32(self.ends.len() - 1)
    }

    fn get(&self, index: u32) -> &str {
        let i = index as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

/// `n` as a `u32` graph index or offset.
///
/// # Panics
///
/// Panics past `u32::MAX - 2`: the top two values are sentinels.
pub(crate) fn to_u32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(v) if v < u32::MAX - 1 => v,
        _ => panic!("SigGraph: {n} exceeds the u32 index range"),
    }
}

/// The significance-annotated DynDFG.
///
/// Produced by [`crate::Report::graph`]; post-processed by
/// [`SigGraph::simplified`] (Algorithm 1 step S4) and
/// [`SigGraph::partition`] (step S5).
#[derive(Debug, Clone)]
pub struct SigGraph {
    pub(crate) nodes: Vec<SigNode>,
    /// Node `id`'s predecessors are
    /// `pred_ids[pred_start[id]..pred_start[id + 1]]`.
    pub(crate) pred_start: Vec<u32>,
    pub(crate) pred_ids: Vec<u32>,
    names: Names,
    pub(crate) outputs: Vec<usize>,
}

impl SigGraph {
    /// An empty graph with room for `nodes` nodes and `preds` edges,
    /// filled by [`SigGraph::push`] and closed by [`SigGraph::finish`].
    pub(crate) fn with_capacity(nodes: usize, preds: usize) -> SigGraph {
        let mut pred_start = Vec::with_capacity(nodes + 1);
        pred_start.push(0);
        SigGraph {
            nodes: Vec::with_capacity(nodes),
            pred_start,
            pred_ids: Vec::with_capacity(preds),
            names: Names::default(),
            outputs: Vec::new(),
        }
    }

    /// Appends `node`, which must carry the next id, with its operand
    /// ids in operand order.
    pub(crate) fn push(&mut self, node: SigNode, preds: impl IntoIterator<Item = usize>) {
        assert_eq!(
            node.id,
            self.nodes.len(),
            "SigGraph::push: ids must be dense"
        );
        // Ids are stored and compared as `u32` (predecessors, marks).
        to_u32(node.id);
        self.nodes.push(node);
        self.pred_ids.extend(preds.into_iter().map(to_u32));
        self.pred_start.push(to_u32(self.pred_ids.len()));
    }

    /// This graph's nodes, names and outputs with an empty predecessor
    /// buffer of capacity `preds`: the start of a pass that rewrites
    /// every node's edges in id order, each node's closed by one push
    /// onto `pred_start`.
    pub(crate) fn without_preds(&self, preds: usize) -> SigGraph {
        let mut g = SigGraph::with_capacity(self.nodes.len(), preds);
        g.nodes.clone_from(&self.nodes);
        g.names.clone_from(&self.names);
        g.outputs.clone_from(&self.outputs);
        g
    }

    /// Names node `id` (a later registration of the same node wins) and
    /// marks it an output when `is_output`.
    pub(crate) fn register(&mut self, id: usize, name: &str, is_output: bool) {
        let index = self.names.push(name);
        let node = &mut self.nodes[id];
        node.name = index;
        node.is_output |= is_output;
    }

    /// Sets the output ids and assigns every node its level.
    pub(crate) fn finish(mut self, outputs: Vec<usize>) -> SigGraph {
        self.outputs = outputs;
        self.compute_levels();
        self
    }

    /// All nodes, including removed ones (check [`SigNode::removed`]).
    pub fn nodes(&self) -> &[SigNode] {
        &self.nodes
    }

    /// Ids of the registered output nodes (level 0).
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Operand node ids of node `id`, in operand order on a recorded
    /// graph (an operand used twice appears twice), sorted and unique
    /// after [`SigGraph::simplified`], where a collapsed accumulation
    /// node may have more than two.
    pub fn preds(&self, id: usize) -> &[u32] {
        &self.pred_ids[self.pred_start[id] as usize..self.pred_start[id + 1] as usize]
    }

    /// The name node `id` was registered under, if any.
    pub fn name(&self, id: usize) -> Option<&str> {
        match self.nodes[id].name {
            NO_NAME => None,
            index => Some(self.names.get(index)),
        }
    }

    /// Live (non-removed) nodes.
    pub fn live_nodes(&self) -> impl Iterator<Item = &SigNode> {
        self.nodes.iter().filter(|n| !n.removed)
    }

    /// The graph height: one past the maximum live level.
    pub fn height(&self) -> usize {
        self.live_nodes()
            .filter_map(|n| n.level)
            .max()
            .map_or(0, |l| l as usize + 1)
    }

    /// Live nodes at BFS level `level`.
    pub fn level_nodes(&self, level: usize) -> Vec<&SigNode> {
        self.live_nodes()
            .filter(|n| n.level.is_some_and(|l| l as usize == level))
            .collect()
    }

    /// Looks a node up by registration name.
    pub fn node_by_name(&self, name: &str) -> Option<&SigNode> {
        self.live_nodes().find(|n| self.name(n.id) == Some(name))
    }

    /// Renders the live part of the graph as Graphviz DOT, with node
    /// labels carrying name (if registered), operation and significance —
    /// the Fig. 3 visualisation.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=BT;");
        for node in self.live_nodes() {
            let label = match self.name(node.id) {
                Some(n) => format!("{n}\\n{}\\nS={:.3}", node.op, node.significance),
                None => format!("u{}: {}\\nS={:.3}", node.id, node.op, node.significance),
            };
            let shape = if node.is_output {
                "doubleoctagon"
            } else if node.op == Op::Input {
                "box"
            } else {
                "ellipse"
            };
            let _ = writeln!(out, "  n{} [shape={shape}, label=\"{label}\"];", node.id);
        }
        for node in self.live_nodes() {
            for &p in self.preds(node.id) {
                if !self.nodes[p as usize].removed {
                    let _ = writeln!(out, "  n{p} -> n{};", node.id);
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Assigns `level = BFS distance from the nearest output` (outputs
    /// 0), walking result→operand edges in place; unreachable nodes get
    /// `None`.
    pub(crate) fn compute_levels(&mut self) {
        for n in &mut self.nodes {
            n.level = None;
        }
        let mut queue = VecDeque::new();
        for &o in &self.outputs {
            let node = &mut self.nodes[o];
            if !node.removed && node.level.is_none() {
                node.level = Some(0);
                queue.push_back(o);
            }
        }
        while let Some(id) = queue.pop_front() {
            let level = self.nodes[id].level.expect("queued node has level") + 1;
            let (start, end) = (self.pred_start[id], self.pred_start[id + 1]);
            for &p in &self.pred_ids[start as usize..end as usize] {
                let pred = &mut self.nodes[p as usize];
                if !pred.removed && pred.level.is_none() {
                    pred.level = Some(level);
                    queue.push_back(p as usize);
                }
            }
        }
    }

    /// A graph of `(node, operand ids)` pairs in id order.
    #[cfg(test)]
    pub(crate) fn from_nodes(nodes: Vec<(SigNode, Vec<usize>)>, outputs: Vec<usize>) -> SigGraph {
        let mut g = SigGraph::with_capacity(nodes.len(), 0);
        for (node, preds) in nodes {
            g.push(node, preds);
        }
        g.finish(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_node(id: usize, op: Op, preds: Vec<usize>) -> (SigNode, Vec<usize>) {
        (
            SigNode::new(id, op, Interval::ZERO, Interval::ZERO, 0.0),
            preds,
        )
    }

    #[test]
    fn levels_are_bfs_distance_from_output() {
        // 0:in  1:in  2:=0+1  3:=sin(2)  output 3
        let nodes = vec![
            mk_node(0, Op::Input, vec![]),
            mk_node(1, Op::Input, vec![]),
            mk_node(2, Op::Add, vec![0, 1]),
            mk_node(3, Op::Sin, vec![2]),
        ];
        let g = SigGraph::from_nodes(nodes, vec![3]);
        assert_eq!(g.nodes()[3].level, Some(0));
        assert_eq!(g.nodes()[2].level, Some(1));
        assert_eq!(g.nodes()[0].level, Some(2));
        assert_eq!(g.height(), 3);
        assert_eq!(g.level_nodes(2).len(), 2);
    }

    #[test]
    fn unreachable_nodes_have_no_level() {
        let nodes = vec![
            mk_node(0, Op::Input, vec![]),
            mk_node(1, Op::Const, vec![]), // dead
            mk_node(2, Op::Sin, vec![0]),
        ];
        let g = SigGraph::from_nodes(nodes, vec![2]);
        assert_eq!(g.nodes()[1].level, None);
    }

    #[test]
    fn shortest_path_wins_for_fan_in() {
        // Diamond: 0 feeds both 1 (long path via 2) and 3 directly.
        let nodes = vec![
            mk_node(0, Op::Input, vec![]),
            mk_node(1, Op::Sin, vec![0]),
            mk_node(2, Op::Cos, vec![1]),
            mk_node(3, Op::Add, vec![0, 2]),
        ];
        let g = SigGraph::from_nodes(nodes, vec![3]);
        // 0 is reachable at distance 1 (direct) even though the other path
        // is length 3.
        assert_eq!(g.nodes()[0].level, Some(1));
    }

    #[test]
    fn dot_output_live_only() {
        let mut nodes = vec![
            mk_node(0, Op::Input, vec![]),
            mk_node(1, Op::Sin, vec![0]),
            mk_node(2, Op::Cos, vec![0]),
        ];
        nodes[2].0.removed = true;
        let g = SigGraph::from_nodes(nodes, vec![1]);
        let dot = g.to_dot("g");
        assert!(dot.contains("sin"));
        assert!(!dot.contains("cos"));
    }

    #[test]
    fn names_and_preds_are_per_graph_tables() {
        let mut g = SigGraph::from_nodes(
            vec![
                mk_node(0, Op::Input, vec![]),
                mk_node(1, Op::Mul, vec![0, 0]),
                mk_node(2, Op::Sin, vec![1]),
            ],
            vec![2],
        );
        g.register(0, "x", false);
        g.register(2, "first", true);
        g.register(2, "y", true);
        assert_eq!(g.preds(1), &[0, 0]);
        assert_eq!(g.preds(0), &[] as &[u32]);
        assert_eq!(
            (g.name(0), g.name(1), g.name(2)),
            (Some("x"), None, Some("y"))
        );
        assert_eq!(g.node_by_name("y").map(|n| n.id), Some(2));
        assert!(g.node_by_name("first").is_none());
        assert!(g.nodes()[2].is_output);
    }
}
