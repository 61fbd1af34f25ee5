//! Machine-readable report export (JSON, CSV).
//!
//! The paper argues the analysis "can help developers gain insight ...
//! since it allows them to 'visualize' the significance for different
//! parts of the computation"; these exporters feed that visualisation:
//! JSON for tooling, CSV for spreadsheets/plotting.

use scorpio_obs::json_record;

use crate::graph::SigGraph;
use crate::report::{Report, VarSignificances};

/// Serialisable view of one registered variable.
#[derive(Debug, Clone)]
pub struct VarRecord {
    /// Registration name.
    pub name: String,
    /// `"input"`, `"intermediate"` or `"output"` ([`crate::VarKind::as_str`]).
    pub kind: &'static str,
    /// Enclosure bounds.
    pub enclosure: [f64; 2],
    /// Interval-derivative bounds.
    pub derivative: [f64; 2],
    /// Raw Eq. 11 significance.
    pub significance_raw: f64,
    /// Normalized significance.
    pub significance: f64,
}
json_record!(VarRecord {
    name,
    kind,
    enclosure,
    derivative,
    significance_raw,
    significance
});

/// Serialisable view of one DynDFG node.
#[derive(Debug, Clone)]
pub struct NodeRecord {
    /// Dense node id.
    pub id: usize,
    /// Operation mnemonic.
    pub op: String,
    /// Predecessor ids.
    pub preds: Vec<usize>,
    /// Normalized significance.
    pub significance: f64,
    /// BFS level from the outputs, if reachable.
    pub level: Option<usize>,
    /// Registration name, if any.
    pub name: Option<String>,
    /// `true` for registered outputs.
    pub is_output: bool,
}
json_record!(NodeRecord {
    id,
    op,
    preds,
    significance,
    level,
    name,
    is_output
});

/// Serialisable view of a whole report.
#[derive(Debug, Clone)]
pub struct ReportRecord {
    /// Number of recorded DynDFG nodes.
    pub tape_len: usize,
    /// Raw total output significance (normalization denominator).
    pub output_significance_raw: f64,
    /// Registered variables.
    pub vars: Vec<VarRecord>,
    /// Live graph nodes.
    pub nodes: Vec<NodeRecord>,
}
json_record!(ReportRecord {
    tape_len,
    output_significance_raw,
    vars,
    nodes
});

impl VarSignificances {
    /// Builds the serialisable record of these rows, with no `nodes`.
    pub fn to_record(&self) -> ReportRecord {
        ReportRecord {
            tape_len: self.tape_len(),
            output_significance_raw: self.output_significance_raw(),
            vars: self
                .registered()
                .iter()
                .map(|v| VarRecord {
                    name: v.name.clone(),
                    kind: v.kind.as_str(),
                    enclosure: [v.enclosure.inf(), v.enclosure.sup()],
                    derivative: [v.derivative.inf(), v.derivative.sup()],
                    significance_raw: v.significance_raw,
                    significance: v.significance,
                })
                .collect(),
            nodes: Vec::new(),
        }
    }
}

impl Report {
    /// Builds the serialisable record of this report: its rows' record
    /// plus the live graph nodes.
    pub fn to_record(&self) -> ReportRecord {
        ReportRecord {
            nodes: graph_records(self.graph()),
            ..(**self).to_record()
        }
    }

    /// Serialises the report as a JSON object.
    ///
    /// The writer is the workspace's own dependency-free one
    /// ([`scorpio_obs::json`]), shared with the observability run
    /// manifests and the served replies.
    ///
    /// ```
    /// use scorpio_core::Analysis;
    /// let report = Analysis::new().run(|ctx| {
    ///     let x = ctx.input("x", 0.0, 1.0);
    ///     let y = x.sqr();
    ///     ctx.output(&y, "y");
    ///     Ok(())
    /// }).unwrap();
    /// let json = report.to_json();
    /// assert!(json.contains("\"vars\""));
    /// assert!(json.contains("\"name\":\"x\""));
    /// ```
    pub fn to_json(&self) -> String {
        scorpio_obs::json::to_string(&self.to_record())
    }

    /// Serialises the registered variables as CSV
    /// (`name,kind,enclosure_lo,enclosure_hi,deriv_lo,deriv_hi,raw,normalized`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "name,kind,enclosure_lo,enclosure_hi,derivative_lo,derivative_hi,significance_raw,significance\n",
        );
        for v in self.registered() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                v.name,
                v.kind,
                v.enclosure.inf(),
                v.enclosure.sup(),
                v.derivative.inf(),
                v.derivative.sup(),
                v.significance_raw,
                v.significance
            ));
        }
        out
    }
}

fn graph_records(graph: &SigGraph) -> Vec<NodeRecord> {
    graph
        .live_nodes()
        .map(|n| NodeRecord {
            id: n.id,
            op: n.op.to_string(),
            preds: graph.preds(n.id).iter().map(|&p| p as usize).collect(),
            significance: n.significance,
            level: n.level.map(|l| l as usize),
            name: graph.name(n.id).map(str::to_owned),
            is_output: n.is_output,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::Analysis;

    fn sample_report() -> crate::Report {
        Analysis::new()
            .run(|ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                let t = x.exp();
                ctx.intermediate(&t, "t");
                let y = t * 2.0;
                ctx.output(&y, "y");
                Ok(())
            })
            .unwrap()
    }

    #[test]
    fn json_structure() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{'));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"tape_len\":"));
        assert!(json.contains("\"kind\":\"intermediate\""));
        assert!(json.contains("\"is_output\":true"));
        // Balanced braces/brackets (rough structural sanity).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_strings() {
        let report = Analysis::new()
            .run(|ctx| {
                let x = ctx.input("p[\"0\"]", 0.0, 1.0);
                ctx.output(&x, "y");
                Ok(())
            })
            .unwrap();
        let json = report.to_json();
        assert!(json.contains("p[\\\"0\\\"]"));
    }

    #[test]
    fn csv_structure() {
        let csv = sample_report().to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("name,kind"));
        assert_eq!(lines.count(), 3); // x, t, y
        assert!(csv.contains("t,intermediate,"));
    }

    #[test]
    fn record_roundtrips_counts() {
        let report = sample_report();
        let record = report.to_record();
        assert_eq!(record.vars.len(), 3);
        assert_eq!(record.tape_len, report.tape_len());
        assert!(record.nodes.iter().any(|n| n.is_output));
    }
}
