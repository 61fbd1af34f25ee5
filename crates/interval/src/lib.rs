//! Outward-rounded interval arithmetic.
//!
//! This crate is the interval-arithmetic substrate of the `scorpio`
//! significance-analysis framework, playing the role FILIB++ plays for the
//! original dco/scorpio tool (Vassiliadis et al., *Towards Automatic
//! Significance Analysis for Approximate Computing*, CGO 2016).
//!
//! The central type is [`Interval`], a closed connected set
//! `[a, b] = { x ∈ ℝ | a ≤ x ≤ b }` represented by a pair of `f64` bounds.
//! All arithmetic operations and elementary functions return *enclosures*:
//! the true real result of applying the operation pointwise to every member
//! of the operands is always contained in the returned interval. Directed
//! (outward) rounding is implemented in software by nudging computed bounds
//! with [`next_down`]/[`next_up`], so the enclosure property holds despite
//! the hardware rounding mode being round-to-nearest. A bound that is
//! provably exactly zero is not nudged, so exact zeros never turn into
//! subnormals (see [`rounding`]).
//!
//! # Quick start
//!
//! ```
//! use scorpio_interval::Interval;
//!
//! let x = Interval::new(0.0, 1.0);
//! let y = (x.sin() + x).exp().cos();
//! // Every pointwise result is enclosed:
//! assert!(y.contains(((0.5f64).sin() + 0.5).exp().cos()));
//! ```
//!
//! # Modules
//!
//! * [`rounding`] — software directed-rounding primitives.
//! * [`real`] — auxiliary real-valued special functions (`erf`, `erfc`,
//!   `cndf`) used to build their interval versions.
//! * three-valued ([`Trichotomy`]) interval comparisons, the
//!   mechanism by which ambiguous control flow is detected (§2.2 of the
//!   paper).
//! * [`nearest`] — round-to-nearest variants of the arithmetic kernels, used
//!   only by the rounding ablation study.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "audit-invariants")]
mod audit;
mod boxes;
mod compare;
mod extra;
mod functions;
mod interval;
pub mod nearest;
mod ops;
pub mod real;
pub mod rounding;
mod split;

pub use boxes::IBox;
pub use compare::Trichotomy;
pub use interval::{Interval, IntervalError};
pub use rounding::{next_down, next_up};
pub use split::Bisection;

#[cfg(test)]
mod tests;
