//! Significance-driven task runtime and energy model.
//!
//! Reproduces the OpenMP-like programming model of §3.2 of the CGO'16
//! paper (`#pragma omp task significance(...) approxfun(...) label(...)`
//! plus `#pragma omp taskwait label(...) ratio(...)`) as an explicit Rust
//! API:
//!
//! * [`TaskGroup`] ≙ a `label()` task group;
//! * [`TaskGroup::spawn`] ≙ `#pragma omp task significance(s)
//!   approxfun(f)`; both bodies return the task's output;
//! * [`TaskGroup::taskwait`] ≙ `#pragma omp taskwait ratio(r)` — the
//!   single knob of the quality/energy trade-off: at least fraction `r`
//!   of the group's tasks execute their accurate body, most-significant
//!   first; the rest run the approximate body (or are dropped when none
//!   was provided); tasks with significance ≥ 1 always run accurately.
//!   It returns one output per task, in spawn order (`T::default()` for
//!   a dropped task), so exactly one body per task ever produces it.
//!
//! Execution happens on a [`Executor`] thread pool. Every task body
//! receives a [`TaskCtx`] through which it reports its work in abstract
//! **work units**; the deterministic [`EnergyModel`] converts the counted
//! units into Joules (see DESIGN.md §5 for why a model replaces the
//! paper's RAPL measurements and what it preserves).
//!
//! The ratio knob can also be put under feedback control: the
//! [`controller`] module provides offline calibration
//! ([`controller::calibrate_ratio`]) and the closed-loop
//! [`controller::adaptive::AdaptiveController`], which
//! [`TaskGroup::taskwait_adaptive`] consults instead of a fixed ratio.
//!
//! # Example
//!
//! The Maclaurin series of Listing 7, one task per term:
//!
//! ```
//! use scorpio_runtime::{Executor, TaskGroup};
//!
//! let executor = Executor::new(4);
//! let n = 8usize;
//! let x = 0.49f64;
//!
//! let mut group = TaskGroup::new("maclaurin");
//! for i in 1..n {
//!     let significance = (n - i + 1) as f64 / (n + 2) as f64;
//!     group.spawn(
//!         significance,
//!         move |ctx| {
//!             ctx.count_accurate_ops(i as u64);
//!             x.powi(i as i32)
//!         },
//!         Some(move |ctx: &scorpio_runtime::TaskCtx| {
//!             ctx.count_approx_ops(1);
//!             0.0 // drop the contribution
//!         }),
//!     );
//! }
//! let (terms, stats) = group.taskwait(&executor, 0.5);
//! assert_eq!(stats.total(), 7);
//! assert!(stats.accurate >= 4); // ceil(0.5 · 7)
//! let result: f64 = 1.0 + terms.iter().sum::<f64>();
//! assert!(result > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
mod energy;
mod executor;
pub mod perforation;
mod task;

pub use energy::EnergyModel;
pub use executor::Executor;
pub use task::{ExecMode, ExecutionStats, TaskCtx, TaskGroup};

#[cfg(test)]
mod tests;
