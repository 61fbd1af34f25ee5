//! Dynamic data-flow graph recording and algorithmic differentiation.
//!
//! This crate is the AD substrate of the `scorpio` significance-analysis
//! framework, filling the role of the dco/c++ template library in the
//! original CGO'16 tool (Vassiliadis et al., *Towards Automatic Significance
//! Analysis for Approximate Computing*).
//!
//! A computation `y = f(x)` is executed with [`Var`] active values drawn
//! from a [`Tape`]. Every elementary operation `u_j = φ_j(u_i)` (Eq. 2 of
//! the paper) appends a node to the tape, building the **DynDFG** — a DAG
//! whose edges are annotated with the local partial derivatives
//! `∂φ_j/∂u_i` evaluated during the forward sweep (Fig. 1a of the paper).
//! Each elementary function's value and local partials are written once,
//! in [`Op::eval`]; recording ([`Var::apply`]) and compiled-tape replay
//! both evaluate through that one table.
//!
//! Derivatives are then obtained by propagation over the recorded graph:
//!
//! * [`Tape::adjoints`] — reverse sweep (Eq. 7–9): one pass yields the
//!   derivative of the seeded outputs with respect to **every** node,
//!   which is the enabling technology for significance analysis.
//! * [`Tape::tangents`] — forward (tangent-linear) sweep, used to
//!   cross-check adjoints via the dot-product identity.
//!
//! Everything is generic over the [`Scalar`] value type: `f64` gives
//! classical AD, [`Interval`](scorpio_interval::Interval) gives the interval
//! AD of §2.1 of the paper (enclosures of derivatives over a whole input
//! box).
//!
//! # Example
//!
//! Listing 1 of the paper, `f(x) = cos(exp(sin(x) + x) − x)`:
//!
//! ```
//! use scorpio_adjoint::Tape;
//!
//! let tape = Tape::<f64>::new();
//! let x = tape.var(0.7);
//! let y = ((x.sin() + x).exp() - x).cos();
//!
//! let adj = tape.adjoints(&[(y.id(), 1.0)]);
//! let dy_dx = adj[x.id()];
//!
//! // Compare against the hand-derived gradient.
//! let u = (0.7f64.sin() + 0.7).exp();
//! let want = -(u - 0.7).sin() * (u * (0.7f64.cos() + 1.0) - 1.0);
//! assert!((dy_dx - want).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compiled;
mod dot;
mod dual;
pub mod lanes;
mod liveness;
mod node;
mod tape;
mod value;
mod var;

pub use compiled::{CompiledTape, ShapeMismatch};
pub use lanes::{AdjointDemand, LaneReplayBuffers};
pub use dot::{dot_options, DotOptions};
pub use dual::Dual;
pub use liveness::LivenessSummary;
pub use node::{Node, NodeId, Op};
pub use tape::{Adjoints, OpHistogram, Successors, Tangents, Tape};
pub use value::Scalar;
pub use var::Var;

#[cfg(test)]
mod tests;
