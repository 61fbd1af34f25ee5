//! Algorithm 1, steps S4 and S5: graph simplification and
//! significance-variance partitioning.

use crate::graph::{to_u32, SigGraph};

/// Per-level significance statistics produced during partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// BFS level (0 = outputs).
    pub level: usize,
    /// Number of live nodes at the level.
    pub count: usize,
    /// Number of live nodes whose significance is non-finite (NaN or
    /// infinite — e.g. nodes with an EMPTY enclosure, whose Eq.-11
    /// width is NaN). These are excluded from `mean`/`variance`.
    pub non_finite: usize,
    /// Mean normalized significance over the finite entries; NaN when
    /// the level is [degenerate](LevelStats::is_degenerate).
    pub mean: f64,
    /// Population variance of the finite normalized significances; NaN
    /// when the level is [degenerate](LevelStats::is_degenerate).
    pub variance: f64,
}

impl LevelStats {
    /// `true` when every live node at this level has a non-finite
    /// significance, so the level's statistics carry no information.
    /// Such a level reports NaN mean/variance — a hard diagnostic —
    /// rather than `(0, 0)`, which would read as "perfectly uniform"
    /// and silently suppress the δ cut.
    pub fn is_degenerate(&self) -> bool {
        self.count > 0 && self.non_finite == self.count
    }
}

/// The result of the `findSgnfVariance` walk (Algorithm 1, step S5).
#[derive(Debug, Clone)]
pub struct Partition {
    /// The level whose significance variance first exceeded δ, if any.
    /// This is the level whose nodes become the *outputs of tasks*; the
    /// programmer restructures code so each node at this level is
    /// produced by one task (§3.2).
    pub cut_level: Option<usize>,
    /// The graph truncated to levels `≤ cut_level + 1` (or the full graph
    /// if no cut was found, meaning all levels are near-uniformly
    /// significant).
    pub graph: SigGraph,
    /// Statistics for every level that was examined.
    pub level_stats: Vec<LevelStats>,
}

impl Partition {
    /// Levels whose statistics are degenerate (every live node
    /// non-finite; see [`LevelStats::is_degenerate`]). A non-empty
    /// result means the δ cut skipped those levels for lack of any
    /// finite significance — inspect the analysis report's flagged
    /// empty enclosures before trusting the partition.
    pub fn degenerate_levels(&self) -> Vec<usize> {
        self.level_stats
            .iter()
            .filter(|s| s.is_degenerate())
            .map(|s| s.level)
            .collect()
    }
}

/// Sole-consumer marks of [`SigGraph::simplified`]: no live consumer
/// yet, or more than one consumer edge.
const NO_CONSUMER: u32 = u32::MAX;
const MANY_CONSUMERS: u32 = u32::MAX - 1;

impl SigGraph {
    /// Algorithm 1, step S4 (`simplify`): collapses **anti-dependence
    /// chains** — accumulation patterns like `res = res + term[i]` whose
    /// interior partial-sum nodes "aggregate results and are not really
    /// part of the computation".
    ///
    /// A node is chain-interior when it is an additive op (`+`/`-`) whose
    /// single consumer is also additive. Interior nodes are removed and
    /// their non-chain operands re-attached to the chain's final node, so
    /// the Maclaurin DynDFG of Fig. 3a becomes exactly Fig. 3b: every
    /// `term_i` feeding the final `result` directly.
    ///
    /// One pass marks the interior nodes and one rewires the edges into
    /// a fresh predecessor buffer; the walk reuses one stack, one set of
    /// visit marks and one output buffer, so the cost is a few
    /// allocations for the whole graph, none per node.
    pub fn simplified(&self) -> SigGraph {
        let _span = scorpio_obs::span("simplify");
        let n = self.nodes.len();

        // Each node's sole live consumer, counting edges with
        // multiplicity (`x + x` consumes `x` twice).
        let mut consumer = vec![NO_CONSUMER; n];
        for node in self.live_nodes() {
            for &p in self.preds(node.id) {
                if !self.nodes[p as usize].removed {
                    let c = &mut consumer[p as usize];
                    *c = if *c == NO_CONSUMER {
                        node.id as u32
                    } else {
                        MANY_CONSUMERS
                    };
                }
            }
        }
        // Chain-interior: additive, exactly one live consumer, consumer
        // additive, and not a registered output (outputs must survive).
        let interior: Vec<bool> = self
            .nodes
            .iter()
            .zip(&consumer)
            .map(|(node, &c)| {
                !node.removed
                    && node.op.is_additive()
                    && !node.is_output
                    && c < MANY_CONSUMERS
                    && self.nodes[c as usize].op.is_additive()
            })
            .collect();

        // Rewire: every kept node expands interior predecessors into
        // their own predecessors, transitively, reading the original
        // edges. Removed nodes keep theirs and interior nodes lose
        // theirs. The walk is guarded: a well-formed DynDFG is a DAG, so
        // one expansion can neither revisit an interior node nor reach
        // the expanding node itself. A malformed (cyclic) graph trips
        // one of the two asserts and fails loudly instead of silently
        // wiring a node to itself.
        let mut g = self.without_preds(self.pred_ids.len());
        // `expanded[p] == id` once node `id`'s walk has expanded `p`.
        let mut expanded = vec![u32::MAX; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut found: Vec<u32> = Vec::new();
        for id in 0..n {
            let preds = self.preds(id);
            if interior[id] {
                g.nodes[id].removed = true;
            } else if self.nodes[id].removed {
                g.pred_ids.extend_from_slice(preds);
            } else {
                stack.extend_from_slice(preds);
                while let Some(p) = stack.pop() {
                    assert!(
                        p as usize != id,
                        "SigGraph::simplified: cycle detected — node {id} is its own \
                         transitive predecessor"
                    );
                    if interior[p as usize] {
                        assert!(
                            expanded[p as usize] != id as u32,
                            "SigGraph::simplified: cycle detected through node {p} \
                             while rewiring node {id}"
                        );
                        expanded[p as usize] = id as u32;
                        stack.extend_from_slice(self.preds(p as usize));
                    } else {
                        found.push(p);
                    }
                }
                found.sort_unstable();
                found.dedup();
                g.pred_ids.extend_from_slice(&found);
                found.clear();
            }
            g.pred_start.push(to_u32(g.pred_ids.len()));
        }
        g.compute_levels();
        g
    }

    /// Algorithm 1, step S5 (`findSgnfVariance`): walks levels breadth
    /// first from the outputs (L = 1, 2, …) and cuts at the first level
    /// whose normalized significance variance exceeds `delta`. Nodes
    /// above level `cut + 1` are truncated from the returned graph.
    ///
    /// Call on the [`SigGraph::simplified`] graph for faithful Algorithm-1
    /// behaviour; calling it on the raw graph is permitted (the ablation
    /// benches do) but aggregation nodes may then mask the variance.
    pub fn partition(&self, delta: f64) -> Partition {
        self.clone().into_partition(delta)
    }

    /// [`SigGraph::partition`] of a graph the caller no longer needs:
    /// the partition's graph is this one, truncated in place.
    pub(crate) fn into_partition(mut self, delta: f64) -> Partition {
        assert!(delta >= 0.0, "partition: delta must be non-negative");
        let _span = scorpio_obs::span("partition");
        let (cut_level, level_stats) = self.find_cut(delta);
        if let Some(cut) = cut_level {
            self.truncate_above(cut + 1);
        }
        Partition {
            cut_level,
            graph: self,
            level_stats,
        }
    }

    /// The level walk of [`SigGraph::partition`]. One pass buckets the
    /// live nodes' finite significances by level (a counting sort, so
    /// ids stay ascending within a level and every sum runs in id
    /// order); the walk then reads one bucket per level.
    fn find_cut(&self, delta: f64) -> (Option<usize>, Vec<LevelStats>) {
        let height = self.height();
        // `start[l + 1]` first counts level `l`'s finite values, then
        // becomes the end of its bucket.
        let mut start = vec![0usize; height + 1];
        let mut non_finite = vec![0usize; height];
        for node in self.live_nodes() {
            if let Some(l) = node.level {
                if node.significance.is_finite() {
                    start[l as usize + 1] += 1;
                } else {
                    non_finite[l as usize] += 1;
                }
            }
        }
        for l in 0..height {
            start[l + 1] += start[l];
        }
        let mut next = start.clone();
        let mut finite = vec![0.0; start[height]];
        for node in self.live_nodes() {
            if let Some(l) = node.level.filter(|_| node.significance.is_finite()) {
                finite[next[l as usize]] = node.significance;
                next[l as usize] += 1;
            }
        }

        let mut level_stats = Vec::new();
        for level in 1..height {
            let sig = &finite[start[level]..start[level + 1]];
            let non_finite = non_finite[level];
            let count = sig.len() + non_finite;
            // An all-non-finite live level carries no usable statistics:
            // report NaN (a hard diagnostic, surfaced via
            // `LevelStats::is_degenerate`) instead of the pre-fix (0, 0),
            // which masqueraded as a perfectly uniform level.
            let (mean, variance) = if count > 0 && non_finite == count {
                (f64::NAN, f64::NAN)
            } else {
                mean_variance(sig)
            };
            scorpio_obs::observe("partition.level_variance", variance);
            if count > 0 && non_finite == count {
                scorpio_obs::count("partition.degenerate_levels", 1);
            }
            level_stats.push(LevelStats {
                level,
                count,
                non_finite,
                mean,
                variance,
            });
            if variance > delta {
                return (Some(level), level_stats);
            }
        }
        (None, level_stats)
    }

    /// Removes every live node above `max_level` (or unreachable), drops
    /// the edges into removed nodes by compacting the predecessor buffer
    /// in place, and recomputes the levels.
    fn truncate_above(&mut self, max_level: usize) {
        for node in &mut self.nodes {
            if node.level.is_none_or(|l| l as usize > max_level) {
                node.removed = true;
            }
        }
        let mut kept = 0;
        let mut start = 0;
        for id in 0..self.nodes.len() {
            let end = self.pred_start[id + 1] as usize;
            for k in start..end {
                let p = self.pred_ids[k];
                if !self.nodes[p as usize].removed {
                    self.pred_ids[kept] = p;
                    kept += 1;
                }
            }
            start = end;
            self.pred_start[id + 1] = to_u32(kept);
        }
        self.pred_ids.truncate(kept);
        self.compute_levels();
    }
}

/// Population mean and variance; `(0, 0)` for empty input.
fn mean_variance(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, variance)
}

#[cfg(test)]
mod tests {
    use scorpio_adjoint::Op;
    use scorpio_interval::Interval;

    use super::*;
    use crate::graph::SigNode;

    fn mk(id: usize, op: Op, preds: Vec<usize>, sig: f64) -> (SigNode, Vec<usize>) {
        (
            SigNode::new(id, op, Interval::ZERO, Interval::ZERO, sig),
            preds,
        )
    }

    /// Builds the Maclaurin-like accumulation:
    /// c, t0..t3 inputs; a1 = c + t0; a2 = a1 + t1; a3 = a2 + t2;
    /// a4 = a3 + t3 (output).
    fn accumulation_graph() -> SigGraph {
        let mut nodes = vec![
            mk(0, Op::Const, vec![], 0.0),
            mk(1, Op::Powi(0), vec![], 0.0),
            mk(2, Op::Powi(1), vec![], 0.26),
            mk(3, Op::Powi(2), vec![], 0.25),
            mk(4, Op::Powi(3), vec![], 0.24),
            mk(5, Op::Add, vec![0, 1], 0.0),
            mk(6, Op::Add, vec![5, 2], 0.26),
            mk(7, Op::Add, vec![6, 3], 0.51),
            mk(8, Op::Add, vec![7, 4], 1.0),
        ];
        nodes[8].0.is_output = true;
        SigGraph::from_nodes(nodes, vec![8])
    }

    #[test]
    fn simplify_collapses_accumulation_chain() {
        let g = accumulation_graph();
        // Raw graph: terms at staggered levels because of the chain.
        assert!(g.height() > 3);
        let s = g.simplified();
        // Interior adds removed...
        assert!(s.nodes()[5].removed);
        assert!(s.nodes()[6].removed);
        assert!(s.nodes()[7].removed);
        // ...final add survives with all terms as direct preds (Fig. 3b).
        assert_eq!(s.preds(8), &[0, 1, 2, 3, 4]);
        // All terms now sit at level 1.
        assert_eq!(s.height(), 2);
        assert_eq!(s.level_nodes(1).len(), 5);
    }

    #[test]
    fn simplify_keeps_non_additive_structure() {
        // mul chains must not collapse.
        let mut nodes = vec![
            mk(0, Op::Input, vec![], 0.1),
            mk(1, Op::Mul, vec![0, 0], 0.2),
            mk(2, Op::Mul, vec![1, 0], 0.3),
        ];
        nodes[2].0.is_output = true;
        let g = SigGraph::from_nodes(nodes, vec![2]);
        let s = g.simplified();
        assert!(!s.nodes()[1].removed);
        assert_eq!(s.preds(2), &[0, 1]);
    }

    #[test]
    fn simplify_respects_fan_out() {
        // An additive node consumed twice is not chain-interior.
        let mut nodes = vec![
            mk(0, Op::Input, vec![], 0.1),
            mk(1, Op::Input, vec![], 0.1),
            mk(2, Op::Add, vec![0, 1], 0.2),
            mk(3, Op::Add, vec![2, 0], 0.3),
            mk(4, Op::Mul, vec![2, 3], 0.4),
        ];
        nodes[4].0.is_output = true;
        let g = SigGraph::from_nodes(nodes, vec![4]);
        let s = g.simplified();
        // Node 2 feeds both 3 and 4 → kept.
        assert!(!s.nodes()[2].removed);
        // Node 3 feeds only the mul (not additive) → kept too.
        assert!(!s.nodes()[3].removed);
    }

    #[test]
    fn simplify_leaves_predecessors_sorted_and_unique() {
        // 3 = (1 + 0) + 1: the collapsed chain reaches 1 twice and 0
        // after it.
        let mut nodes = vec![
            mk(0, Op::Input, vec![], 0.1),
            mk(1, Op::Input, vec![], 0.2),
            mk(2, Op::Add, vec![1, 0], 0.3),
            mk(3, Op::Add, vec![2, 1], 1.0),
        ];
        nodes[3].0.is_output = true;
        let s = SigGraph::from_nodes(nodes, vec![3]).simplified();
        assert!(s.nodes()[2].removed);
        assert_eq!(s.preds(3), &[0, 1]);
    }

    #[test]
    fn partition_cuts_at_high_variance_level() {
        let g = accumulation_graph().simplified();
        let p = g.partition(1e-3);
        // Level 1 has significances {0, 0, 0.26, 0.25, 0.24}: variance
        // well above 1e-3 → cut at L = 1.
        assert_eq!(p.cut_level, Some(1));
        assert_eq!(p.level_stats.len(), 1);
        assert!(p.level_stats[0].variance > 1e-3);
        // Graph truncated to levels ≤ 2 (here: everything, height 2).
        assert!(p.graph.height() <= 2);
    }

    #[test]
    fn partition_without_variance_returns_whole_graph() {
        let g = accumulation_graph().simplified();
        // δ larger than any variance → no cut.
        let p = g.partition(10.0);
        assert_eq!(p.cut_level, None);
        assert_eq!(p.graph.height(), g.height());
    }

    #[test]
    fn partition_truncates_above_cut() {
        // Two levels of structure: output <- mul <- {a, b}; a <- sin(in).
        let mut nodes = vec![
            mk(0, Op::Input, vec![], 0.5),
            mk(1, Op::Sin, vec![0], 0.9),
            mk(2, Op::Const, vec![], 0.0),
            mk(3, Op::Mul, vec![1, 2], 0.9),
            mk(4, Op::Neg, vec![3], 1.0),
        ];
        nodes[4].0.is_output = true;
        let g = SigGraph::from_nodes(nodes, vec![4]);
        // level1 = {3}: variance 0. level2 = {1, 2}: sig {0.9, 0} → var.
        let p = g.partition(1e-3);
        assert_eq!(p.cut_level, Some(2));
        // Input at level 3 survives (cut + 1); nothing above it exists.
        assert!(p.graph.live_nodes().any(|n| n.id == 0));
    }

    /// Regression: a cyclic (malformed) graph must fail loudly in the
    /// rewire walk. Pre-fix, this graph silently rewired the output to
    /// be its own predecessor.
    #[test]
    #[should_panic(expected = "cycle detected")]
    fn simplify_panics_on_cyclic_graph() {
        // Output Add node 1 consumes node 0; node 0 (additive, single
        // consumer) consumes node 1 back — a two-node cycle.
        let mut nodes = vec![
            mk(0, Op::Add, vec![1], 0.5),
            mk(1, Op::Add, vec![0], 1.0),
        ];
        nodes[1].0.is_output = true;
        let g = SigGraph::from_nodes(nodes, vec![1]);
        let _ = g.simplified();
    }

    /// Regression: a level whose significances are all non-finite used
    /// to report `(mean, variance) = (0, 0)` — "perfectly uniform" —
    /// because the finite filter emptied the slice. It must now be a
    /// hard diagnostic: NaN statistics, full live count, and the level
    /// listed as degenerate.
    #[test]
    fn partition_flags_all_non_finite_level_as_degenerate() {
        let mut nodes = vec![
            mk(0, Op::Input, vec![], f64::NAN),
            mk(1, Op::Input, vec![], f64::NAN),
            mk(2, Op::Add, vec![0, 1], 1.0),
        ];
        nodes[2].0.is_output = true;
        let g = SigGraph::from_nodes(nodes, vec![2]);
        let p = g.partition(1e-3);
        assert_eq!(p.cut_level, None, "NaN variance must never fire the cut");
        let stats = &p.level_stats[0];
        assert_eq!(stats.level, 1);
        assert_eq!(stats.count, 2, "count reports live nodes, not finite ones");
        assert_eq!(stats.non_finite, 2);
        assert!(stats.mean.is_nan() && stats.variance.is_nan());
        assert!(stats.is_degenerate());
        assert_eq!(p.degenerate_levels(), vec![1]);
    }

    /// A partially non-finite level keeps finite statistics but counts
    /// the non-finite members.
    #[test]
    fn partition_counts_non_finite_members() {
        let mut nodes = vec![
            mk(0, Op::Input, vec![], 0.2),
            mk(1, Op::Input, vec![], f64::NAN),
            mk(2, Op::Input, vec![], 0.4),
            mk(3, Op::Add, vec![0, 1, 2], 1.0),
        ];
        nodes[3].0.is_output = true;
        let g = SigGraph::from_nodes(nodes, vec![3]);
        let p = g.partition(10.0);
        let stats = &p.level_stats[0];
        assert_eq!((stats.count, stats.non_finite), (3, 1));
        assert!((stats.mean - 0.3).abs() < 1e-12);
        assert!(!stats.is_degenerate());
        assert!(p.degenerate_levels().is_empty());
    }

    #[test]
    fn mean_variance_basics() {
        let (m, v) = mean_variance(&[]);
        assert_eq!((m, v), (0.0, 0.0));
        let (m, v) = mean_variance(&[2.0, 2.0]);
        assert_eq!((m, v), (2.0, 0.0));
        let (m, v) = mean_variance(&[1.0, 3.0]);
        assert_eq!((m, v), (2.0, 1.0));
    }
}
