//! Automatic significance analysis for approximate computing.
//!
//! Rust reproduction of the **dco/scorpio** framework from Vassiliadis
//! et al., *Towards Automatic Significance Analysis for Approximate
//! Computing* (CGO 2016). Given a computation `y = f(x)` and ranges for its
//! inputs, one profile run produces — for every input and intermediate
//! variable — a quantitative **significance** for the output:
//!
//! ```text
//! S_y(u_j) = w( [u_j] · ∇_{[u_j]}[y] )        (Eq. 11)
//! ```
//!
//! where `[u_j]` is the interval enclosure of the variable (forward
//! interval sweep, Eq. 4–6) and `∇_{[u_j]}[y]` the interval adjoint
//! derivative of the output with respect to it (reverse sweep over the
//! recorded DynDFG, Eq. 7–10).
//!
//! # Quick start
//!
//! The paper's running example — the Maclaurin series of `1/(1−x)`
//! (§3, Listings 5–6, Fig. 3):
//!
//! ```
//! use scorpio_core::Analysis;
//!
//! let report = Analysis::new().run(|ctx| {
//!     let x = ctx.input("x", 0.49 - 0.5, 0.49 + 0.5);
//!     let mut result = ctx.constant(0.0);
//!     for i in 0..5 {
//!         let term = x.powi(i);
//!         ctx.intermediate(&term, format!("term{i}"));
//!         result = result + term;
//!     }
//!     ctx.output(&result, "result");
//!     Ok(())
//! }).unwrap();
//!
//! // pow(x, 0) = 1 is constant: (numerically) zero significance (Fig. 3).
//! assert!(report.significance_of("term0").unwrap() < 1e-12);
//! // Later terms matter monotonically less.
//! let s: Vec<f64> = (1..5)
//!     .map(|i| report.significance_of(&format!("term{i}")).unwrap())
//!     .collect();
//! assert!(s.windows(2).all(|w| w[0] > w[1]));
//! ```
//!
//! # Workflow (Algorithm 1)
//!
//! [`Report::graph`] exposes the significance-annotated DynDFG;
//! [`SigGraph::simplified`] collapses anti-dependence (accumulation)
//! chains (step S4); [`SigGraph::partition`] walks levels breadth-first
//! from the outputs and cuts at the first level whose significance
//! variance exceeds δ (step S5, `findSgnfVariance`). The surviving nodes
//! are the natural task outputs for the significance-driven runtime.
//!
//! # Limitations faithfully kept (§2.2)
//!
//! Interval comparisons may be ambiguous; recording then stops with
//! [`AnalysisError::AmbiguousBranch`] naming the condition. The
//! [`splitting`] module implements the paper's "ongoing research" remedy:
//! bisect the offending input range and merge per-subdomain reports.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
mod cache;
mod codegen;
mod error;
mod export;
mod graph;
#[macro_use]
mod macros;
pub mod mc;
pub mod parallel;
mod replay;
mod report;
mod session;
pub mod splitting;
pub mod sweep;
mod workflow;

pub use cache::{TapeCache, TapeCacheStats};
pub use codegen::{TaskPlan, TaskSuggestion};
pub use error::AnalysisError;
pub use export::{NodeRecord, ReportRecord, VarRecord};
pub use graph::{SigGraph, SigNode};
pub use parallel::{ParallelAnalysis, DEFAULT_LANES};
pub use replay::{CompiledTrace, LaneScratch, ReplayOrRecord, ReplayStats};
pub use report::{OutputDetail, Report, RegisteredVar, VarKind, VarSignificances};
pub use session::{Analysis, AnalysisArena, Ctx, Ia1s};
pub use workflow::{LevelStats, Partition};

#[cfg(test)]
mod tests;
