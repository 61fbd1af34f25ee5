//! From analysis to task structure: the paper's contribution (iii) —
//! "we integrate this significance ranking to a task-based programming
//! model" — automated one step further: a [`Partition`] is turned into a
//! concrete [`TaskPlan`] (which nodes become task outputs, with which
//! significances) and a Rust skeleton the developer fills in.

use std::fmt::Write as _;

use crate::graph::SigNode;
use crate::workflow::Partition;

/// One suggested task: produce the value of a cut-level DynDFG node.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSuggestion {
    /// Task name (registration name of the node when available,
    /// otherwise `task_u<id>`).
    pub name: String,
    /// The DynDFG node whose value the task computes.
    pub node_id: usize,
    /// Operation mnemonic of the node (what the task body ends with).
    pub op: String,
    /// Normalized significance from the analysis.
    pub significance: f64,
    /// Runtime task significance: rescaled so the most significant
    /// suggestion gets 1.0 (forced accurate) and the rest keep their
    /// relative ranking in `(0, 1)`.
    pub task_significance: f64,
}

/// A complete task-structure suggestion for one analysed kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPlan {
    /// The level whose nodes become task outputs (§3.2: "the nodes of
    /// graph Gout at level L are the outputs of those tasks").
    pub level: usize,
    /// Whether the level came from a variance cut (or is the fallback
    /// level 1 when the graph is significance-uniform).
    pub from_variance_cut: bool,
    /// The suggested tasks, most significant first.
    pub tasks: Vec<TaskSuggestion>,
}

impl Partition {
    /// Derives the task plan from this partition: one task per live node
    /// at the cut level (constants are skipped — they need no task),
    /// ranked by significance.
    pub fn task_plan(&self) -> TaskPlan {
        let (level, from_cut) = match self.cut_level {
            Some(l) => (l, true),
            None => (1, false),
        };
        let mut nodes: Vec<&SigNode> = self
            .graph
            .level_nodes(level)
            .into_iter()
            .filter(|n| n.op != scorpio_adjoint::Op::Const && n.op != scorpio_adjoint::Op::Input)
            .collect();
        nodes.sort_by(|a, b| {
            b.significance
                .partial_cmp(&a.significance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let max_sig = nodes
            .first()
            .map(|n| n.significance)
            .filter(|s| *s > 0.0)
            .unwrap_or(1.0);
        let tasks = nodes
            .into_iter()
            .map(|n| TaskSuggestion {
                name: self
                    .graph
                    .name(n.id)
                    .map_or_else(|| format!("task_u{}", n.id), str::to_owned),
                node_id: n.id,
                op: n.op.to_string(),
                significance: n.significance,
                task_significance: if n.significance >= max_sig {
                    1.0
                } else {
                    (n.significance / max_sig).clamp(0.0, 0.99)
                },
            })
            .collect();
        TaskPlan {
            level,
            from_variance_cut: from_cut,
            tasks,
        }
    }
}

impl TaskPlan {
    /// Renders a Rust skeleton using the `scorpio-runtime` API: one
    /// `spawn` per suggested task with its significance filled in, plus
    /// the `taskwait` with the ratio knob — the Listing-7 restructuring,
    /// generated.
    ///
    /// The bodies are `todo!()` stubs: deciding *how* to approximate
    /// remains the developer's insight (§3.2), but the structure and the
    /// ranking come from the analysis. A `TaskGroup` is typed by its
    /// bodies, and every spawn here has closures of its own type, so
    /// the skeleton boxes them into one `Body` type at the call site.
    pub fn to_rust_skeleton(&self, kernel_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "/// Task-restructured `{kernel_name}` generated from the significance analysis."
        );
        let _ = writeln!(
            out,
            "/// Cut level: {} ({}).",
            self.level,
            if self.from_variance_cut {
                "variance cut"
            } else {
                "uniform significance; level 1 fallback"
            }
        );
        let _ = writeln!(
            out,
            "pub fn {kernel_name}_tasked(executor: &Executor, ratio: f64) -> ExecutionStats {{"
        );
        let _ = writeln!(out, "    type Body = Box<dyn FnOnce(&TaskCtx) + Send>;");
        let _ = writeln!(
            out,
            "    let mut group: TaskGroup<Body, Body> = TaskGroup::new(\"{kernel_name}\");"
        );
        for t in &self.tasks {
            let _ = writeln!(out, "    // {}: {} (S = {:.4})", t.name, t.op, t.significance);
            let _ = writeln!(out, "    group.spawn(");
            let _ = writeln!(out, "        {:.4},", t.task_significance);
            let _ = writeln!(
                out,
                "        Box::new(|ctx: &TaskCtx| todo!(\"accurate body producing {}\")),",
                t.name
            );
            let _ = writeln!(
                out,
                "        Some(Box::new(|ctx: &TaskCtx| todo!(\"approximate body for {}\"))),",
                t.name
            );
            let _ = writeln!(out, "    );");
        }
        let _ = writeln!(out, "    group.taskwait(executor, ratio)");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{TaskPlan, TaskSuggestion};
    use crate::Analysis;

    fn maclaurin_partition() -> crate::Partition {
        Analysis::new()
            .run(|ctx| {
                let x = ctx.input_centered("x", 0.49, 0.5);
                let mut acc = ctx.constant(0.0);
                for i in 0..5 {
                    let t = x.powi(i);
                    ctx.intermediate(&t, format!("term{i}"));
                    acc = acc + t;
                }
                ctx.output(&acc, "result");
                Ok(())
            })
            .unwrap()
            .partition()
    }

    #[test]
    fn plan_has_one_task_per_term() {
        let plan = maclaurin_partition().task_plan();
        assert_eq!(plan.level, 1);
        assert!(plan.from_variance_cut);
        // 5 term nodes (the constant seed is skipped).
        assert_eq!(plan.tasks.len(), 5);
        // Most significant first, with the top one forced accurate.
        assert_eq!(plan.tasks[0].name, "term1");
        assert_eq!(plan.tasks[0].task_significance, 1.0);
        for w in plan.tasks.windows(2) {
            assert!(w[0].significance >= w[1].significance);
        }
        // term0 is the least significant suggestion.
        assert_eq!(plan.tasks.last().unwrap().name, "term0");
        // term0's significance is ULP noise from the outward-rounded
        // adjoint sweep, i.e. numerically zero.
        assert!(plan.tasks.last().unwrap().task_significance < 1e-12);
    }

    /// The emitted text, whole: every spawn boxes its two bodies into
    /// the one `Body` type the group is declared with, so bodies of
    /// different closure types type-check together in one group.
    #[test]
    fn skeleton_boxes_bodies_into_one_group_type() {
        let task = |name: &str, node_id, significance, task_significance| TaskSuggestion {
            name: name.into(),
            node_id,
            op: "mul".into(),
            significance,
            task_significance,
        };
        let plan = TaskPlan {
            level: 2,
            from_variance_cut: true,
            tasks: vec![task("hi", 7, 0.75, 1.0), task("task_u9", 9, 0.25, 0.3333)],
        };
        let want = r#"/// Task-restructured `k` generated from the significance analysis.
/// Cut level: 2 (variance cut).
pub fn k_tasked(executor: &Executor, ratio: f64) -> ExecutionStats {
    type Body = Box<dyn FnOnce(&TaskCtx) + Send>;
    let mut group: TaskGroup<Body, Body> = TaskGroup::new("k");
    // hi: mul (S = 0.7500)
    group.spawn(
        1.0000,
        Box::new(|ctx: &TaskCtx| todo!("accurate body producing hi")),
        Some(Box::new(|ctx: &TaskCtx| todo!("approximate body for hi"))),
    );
    // task_u9: mul (S = 0.2500)
    group.spawn(
        0.3333,
        Box::new(|ctx: &TaskCtx| todo!("accurate body producing task_u9")),
        Some(Box::new(|ctx: &TaskCtx| todo!("approximate body for task_u9"))),
    );
    group.taskwait(executor, ratio)
}
"#;
        assert_eq!(plan.to_rust_skeleton("k"), want);
    }

    #[test]
    fn skeleton_contains_spawns_and_ranking() {
        let plan = maclaurin_partition().task_plan();
        let skeleton = plan.to_rust_skeleton("maclaurin");
        assert!(skeleton.contains("TaskGroup::new(\"maclaurin\")"));
        assert_eq!(skeleton.matches("group.spawn(").count(), 5);
        assert!(skeleton.contains("group.taskwait(executor, ratio)"));
        assert!(skeleton.contains("term1"));
        // Valid-ish shape: braces balance.
        assert_eq!(
            skeleton.matches('{').count(),
            skeleton.matches('}').count() + skeleton.matches("{kernel").count()
        );
    }

    #[test]
    fn uniform_graph_falls_back_to_level_one() {
        let partition = Analysis::new()
            .run(|ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                let y = x.exp();
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap()
            .partition();
        let plan = partition.task_plan();
        assert!(!plan.from_variance_cut);
        assert_eq!(plan.level, 1);
    }
}
