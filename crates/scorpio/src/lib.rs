//! **scorpio** — automatic significance analysis for approximate
//! computing.
//!
//! This facade crate re-exports the whole `scorpio-rs` workspace, a Rust
//! reproduction of Vassiliadis et al., *Towards Automatic Significance
//! Analysis for Approximate Computing* (CGO 2016):
//!
//! * [`interval`] — outward-rounded interval arithmetic (the IA of Eq.
//!   4–6);
//! * [`adjoint`] — DynDFG recording and adjoint/tangent algorithmic
//!   differentiation, generic over `f64` and intervals (Eq. 1–3, 7–10);
//! * [`analysis`] — the dco/scorpio-style significance-analysis
//!   framework: Eq. 11 significances, Algorithm-1 graph workflow,
//!   interval splitting and Monte-Carlo extensions;
//! * [`runtime`] — the significance-driven task runtime (§3.2: task
//!   significance, `approxfun`, the `ratio` quality knob) and the
//!   deterministic energy model;
//! * [`fastmath`] — fastapprox-style approximate math kernels;
//! * [`quality`] — PSNR/relative-error metrics and the image substrate;
//! * [`kernels`] — the five paper benchmarks plus the Maclaurin running
//!   example, each in reference/tasked/perforated form;
//! * [`dsl`] — a textual expression-language front-end (and the
//!   `scorpio-analyze` CLI) for running the analysis without writing
//!   Rust;
//! * [`obs`] — zero-cost-when-disabled observability: structured spans
//!   around every pipeline phase, a counters/histograms registry, and
//!   Chrome-trace + run-manifest export (see `docs/architecture.md`);
//! * [`serve`] — analysis-as-a-service: a persistent
//!   newline-delimited-JSON TCP server whose workers share compiled
//!   traces through a shape-keyed tape cache (the `scorpio_serve`
//!   daemon and its `scorpio_load` smoke probe).
//!
//! # Quick start
//!
//! Analyse, partition, and approximate the paper's running example:
//!
//! ```
//! use scorpio::analysis::Analysis;
//! use scorpio::runtime::{EnergyModel, Executor};
//! use scorpio::kernels::maclaurin;
//!
//! // 1. One profile run yields significances for every term.
//! let report = maclaurin::analysis(0.49, 8)?;
//! assert!(report.significance_of("term1") > report.significance_of("term4"));
//!
//! // 2. Algorithm 1 finds the task boundary at the term level.
//! let partition = report.partition();
//! assert_eq!(partition.cut_level, Some(1));
//!
//! // 3. Execute with the ratio knob; approximate terms use fast_powi.
//! let executor = Executor::new(4);
//! let (value, stats) = maclaurin::tasked(0.49, 8, &executor, 0.5);
//! assert!((value - maclaurin::reference(0.49, 8)).abs() < 1e-4);
//!
//! // 4. Energy comes from the deterministic model.
//! let energy = EnergyModel::xeon_e5_2695v3().energy(&stats);
//! assert!(energy > 0.0);
//! # Ok::<(), scorpio::analysis::AnalysisError>(())
//! ```
//!
//! # Observability
//!
//! Every pipeline phase is instrumented with [`obs`] spans and
//! counters. Instrumentation is off by default (one relaxed atomic
//! load per site); turn it on around a run to collect a phase-timing
//! tree and metrics:
//!
//! ```
//! use scorpio::kernels::maclaurin;
//!
//! scorpio::obs::enable();
//! let report = maclaurin::analysis(0.49, 8)?;
//! scorpio::obs::disable();
//!
//! // The record → reverse → significance phases were timed…
//! let events = scorpio::obs::take_events();
//! assert!(events.iter().any(|e| e.path.ends_with("significance")));
//! // …and the tape size was counted.
//! assert!(scorpio::obs::registry().counter("analysis.nodes_recorded").get() > 0);
//! # scorpio::obs::reset();
//! # Ok::<(), scorpio::analysis::AnalysisError>(())
//! ```
//!
//! The bench harness binaries expose this end to end via `--trace
//! <path>` (Chrome trace + `RUN_<name>.json` manifest).

#![warn(missing_docs)]

pub use scorpio_adjoint as adjoint;
pub use scorpio_core as analysis;
pub use scorpio_dsl as dsl;
pub use scorpio_fastmath as fastmath;
pub use scorpio_interval as interval;
pub use scorpio_kernels as kernels;
pub use scorpio_obs as obs;
pub use scorpio_quality as quality;
pub use scorpio_runtime as runtime;
pub use scorpio_serve as serve;
